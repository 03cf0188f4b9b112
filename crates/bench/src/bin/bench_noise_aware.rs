//! Emits `BENCH_noise.json`: the calibration-aware compilation sweep.
//!
//! For every (workload × topology × basis) case and every heterogeneous
//! calibration seed, the same circuit is compiled twice — by the stock
//! hop-count 2QAN and by the calibration-aware `2QAN-noise` variant — and
//! both compilations are scored with the per-channel [`TargetNoiseModel`]
//! over the *same* heterogeneous target.  The sweep records per-case ESP,
//! swap counts and nanosecond durations, writes
//! `results/noise_aware.csv` + `BENCH_noise.json`, and (in full mode)
//! exits non-zero unless the calibration-aware compiler achieves a strictly
//! higher geometric-mean ESP than the hop-count compiler across the sweep.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_noise_aware \
//!     [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI mode: a 4-case subset, no aggregate assertion (the
//! subset is too small to be statistically meaningful) — it checks that the
//! sweep runs end to end and produces valid probabilities.
//!
//! [`TargetNoiseModel`]: twoqan_sim::TargetNoiseModel

use twoqan::{Compiler, TwoQanCompiler, TwoQanConfig};
use twoqan_bench::harness::{any, emit, Args};
use twoqan_bench::noise::esp_breakdown;
use twoqan_bench::report::{write_csv, Table};
use twoqan_bench::workloads::{Workload, WorkloadKind};
use twoqan_device::{Device, TwoQubitBasis};

/// One (workload, device, calibration seed) comparison point.
struct CaseResult {
    workload: String,
    device: String,
    basis: String,
    qubits: usize,
    calib_seed: u64,
    swaps_hop: usize,
    swaps_cal: usize,
    duration_hop_ns: f64,
    duration_cal_ns: f64,
    esp_hop: f64,
    esp_cal: f64,
}

impl CaseResult {
    fn csv_header() -> &'static str {
        "workload,device,basis,qubits,calib_seed,swaps_hop,swaps_cal,\
         duration_hop_ns,duration_cal_ns,esp_hop,esp_cal,esp_ratio"
    }

    fn csv_line(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.1},{:.1},{:.6e},{:.6e},{:.4}",
            self.workload,
            self.device,
            self.basis,
            self.qubits,
            self.calib_seed,
            self.swaps_hop,
            self.swaps_cal,
            self.duration_hop_ns,
            self.duration_cal_ns,
            self.esp_hop,
            self.esp_cal,
            self.esp_cal / self.esp_hop
        )
    }
}

/// The benchmark matrix: workloads × topologies × bases.  Sizes are chosen
/// so every circuit needs real routing on its device.
fn cases(smoke: bool) -> Vec<(WorkloadKind, usize, Device)> {
    let full = vec![
        (WorkloadKind::NnnIsing, 10, Device::montreal()),
        (WorkloadKind::NnnIsing, 14, Device::montreal()),
        (WorkloadKind::NnnHeisenberg, 12, Device::montreal()),
        (WorkloadKind::QaoaRegular(3), 10, Device::montreal()),
        (WorkloadKind::QaoaRegular(3), 14, Device::montreal()),
        (WorkloadKind::NnnXy, 10, Device::aspen()),
        (WorkloadKind::NnnIsing, 12, Device::aspen()),
        (
            WorkloadKind::NnnHeisenberg,
            12,
            Device::grid(4, 4, TwoQubitBasis::Cnot),
        ),
        (
            WorkloadKind::QaoaRegular(3),
            12,
            Device::grid(4, 4, TwoQubitBasis::Cz),
        ),
        (WorkloadKind::NnnHeisenberg, 14, Device::sycamore()),
    ];
    if smoke {
        full.into_iter().take(4).collect()
    } else {
        full
    }
}

fn run_case(kind: WorkloadKind, n: usize, base_device: &Device, calib_seed: u64) -> CaseResult {
    let workload = Workload::generate(kind, n, 0);
    let device = base_device.with_heterogeneous_calibration(calib_seed);
    let hop = TwoQanCompiler::new(TwoQanConfig::default());
    let cal = TwoQanCompiler::new(TwoQanConfig::calibration_aware());
    let hop_out = hop
        .compile(&workload.circuit, &device)
        .expect("benchmark circuits fit on their devices");
    let cal_out = cal
        .compile(&workload.circuit, &device)
        .expect("benchmark circuits fit on their devices");
    let esp_hop = esp_breakdown(&hop_out.hardware_circuit, &device).esp();
    let esp_cal = esp_breakdown(&cal_out.hardware_circuit, &device).esp();
    CaseResult {
        workload: kind.name(),
        device: device.name().to_string(),
        basis: device.default_basis().name().to_string(),
        qubits: n,
        calib_seed,
        swaps_hop: hop_out.metrics.swap_count,
        swaps_cal: cal_out.metrics.swap_count,
        duration_hop_ns: hop_out.metrics.duration_ns,
        duration_cal_ns: cal_out.metrics.duration_ns,
        esp_hop,
        esp_cal,
    }
}

fn main() {
    let (smoke, out) = Args::from_env(|args| {
        let smoke = args.flag("--smoke");
        let out = args.value("--out", "a path", any)?;
        Ok((smoke, out.unwrap_or("BENCH_noise.json".to_string())))
    });
    let calib_seeds: &[u64] = if smoke { &[1] } else { &[1, 2, 3] };

    let mut results = Vec::new();
    for (kind, n, device) in cases(smoke) {
        for &seed in calib_seeds {
            let case = run_case(kind, n, &device, seed);
            assert!(
                case.esp_hop > 0.0 && case.esp_hop <= 1.0,
                "hop ESP out of range"
            );
            assert!(
                case.esp_cal > 0.0 && case.esp_cal <= 1.0,
                "calibration-aware ESP out of range"
            );
            results.push(case);
        }
    }

    let mut table = Table::new(
        "Noise-aware compilation: hop-count vs calibration-aware 2QAN \
         (per-channel ESP on heterogeneous targets)",
        &[
            "workload", "device", "basis", "qubits", "seed", "ESP hop", "ESP cal", "ratio",
        ],
    );
    for r in &results {
        table.push_row(vec![
            r.workload.clone(),
            r.device.clone(),
            r.basis.clone(),
            r.qubits.to_string(),
            r.calib_seed.to_string(),
            format!("{:.4}", r.esp_hop),
            format!("{:.4}", r.esp_cal),
            format!("{:.4}", r.esp_cal / r.esp_hop),
        ]);
    }
    table.print();

    let lines: Vec<String> = results.iter().map(CaseResult::csv_line).collect();
    let csv_path = write_csv("noise_aware", CaseResult::csv_header(), &lines);
    println!("wrote {} rows to {}", results.len(), csv_path.display());

    let geomean_ratio = (results
        .iter()
        .map(|r| (r.esp_cal / r.esp_hop).ln())
        .sum::<f64>()
        / results.len() as f64)
        .exp();
    let wins = results.iter().filter(|r| r.esp_cal > r.esp_hop).count();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"noise_aware_compilation\",\n");
    json.push_str(
        "  \"comparison\": \"calibration-aware 2QAN vs hop-count 2QAN, per-channel ESP on seeded heterogeneous targets\",\n",
    );
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"entries\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"device\": \"{}\", \"basis\": \"{}\", \"qubits\": {}, \"calib_seed\": {}, \"swaps_hop\": {}, \"swaps_cal\": {}, \"duration_hop_ns\": {:.1}, \"duration_cal_ns\": {:.1}, \"esp_hop\": {:.6e}, \"esp_cal\": {:.6e}, \"esp_ratio\": {:.4}}}{}\n",
            r.workload,
            r.device,
            r.basis,
            r.qubits,
            r.calib_seed,
            r.swaps_hop,
            r.swaps_cal,
            r.duration_hop_ns,
            r.duration_cal_ns,
            r.esp_hop,
            r.esp_cal,
            r.esp_cal / r.esp_hop,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"summary\": {{\"cases\": {}, \"wins\": {}, \"geomean_esp_ratio\": {:.4}}}\n",
        results.len(),
        wins,
        geomean_ratio
    ));
    json.push_str("}\n");
    println!("geomean ESP ratio (calibration-aware / hop-count): {geomean_ratio:.4}");
    emit(&out, &json);

    if !smoke && geomean_ratio <= 1.0 {
        eprintln!(
            "FAIL: calibration-aware 2QAN must achieve a strictly higher \
             geometric-mean ESP than hop-count 2QAN (got {geomean_ratio:.4})"
        );
        std::process::exit(1);
    }
}
