//! The host block printed with every result, so each number records the
//! machine that produced it.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use twoqan_bench::{scaling_device, Workload, WorkloadKind};
use twoqan_graphs::{tabu_search, TabuConfig};

use crate::check::mapping_qap;
use crate::stats::{json_number, json_string, median};

pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    /// Median wall time of a seeded single-thread Tabu solve of the n = 40
    /// NNN-Heisenberg placement QAP on Sycamore.
    pub calibration_ms: f64,
}

impl Host {
    pub fn measure() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            calibration_ms: calibration_ms(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"host\": {{\"cores\": {}, \"cpu_model\": {}, \"calibration_tabu_n40_ms\": {}}}}}",
            self.cores,
            json_string(&self.cpu_model),
            json_number(self.calibration_ms)
        )
    }
}

fn calibration_ms() -> f64 {
    let workload = Workload::generate(WorkloadKind::NnnHeisenberg, 40, 0);
    let device = scaling_device(40);
    let qap = mapping_qap(&workload.circuit.unify_same_pair_gates(), &device, false);
    let config = TabuConfig {
        parallel: false,
        ..TabuConfig::default()
    };
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(tabu_search(&qap, &config, &mut StdRng::seed_from_u64(40)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).expect("five calibration solves")
}
