//! Solver-layer probes of a traced run: the mapping pass's QAP for each
//! distinct input, solved cold and warm outside the service.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use twoqan::CompilePool;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_graphs::{tabu_search, tabu_search_warm, QapProblem, TabuConfig, WarmStart};

use crate::check::{mapping_qap, pad_placement};
use crate::run::Run;
use crate::stats::mean;

/// The seed every probe solve draws its restarts from.
const SOLVER_SEED: u64 = 2021;

/// One QAP the mapping pass builds, with the placement a warm solve starts
/// from.
pub struct QapCase {
    pub qap: QapProblem,
    pub seed: Vec<usize>,
}

impl QapCase {
    /// The mapping QAP of `circuit` on `device`, seeded with a
    /// `logical → physical` placement of a predecessor compile.
    pub fn new(circuit: &Circuit, device: &Device, weighted: bool, placement: &[usize]) -> Self {
        Self {
            qap: mapping_qap(&circuit.unify_same_pair_gates(), device, weighted),
            seed: pad_placement(placement, device.num_qubits()),
        }
    }
}

/// Times a cold `tabu_search` (default config, as a mapping trial runs it)
/// and a warm `tabu_search_warm` (one restart, as the warm clone runs it)
/// on every case, on a pool like the service's, and records
/// `solver.{tabu,warm_tabu}_{ms,iterations}`.
pub fn solver_probes(run: &mut Run, cases: &[QapCase]) {
    let pool = CompilePool::new(twoqan::pool::max_useful_workers());
    let _installed = pool.install();
    let cold_config = TabuConfig::default();
    let warm_config = TabuConfig {
        restarts: 1,
        ..TabuConfig::default()
    };
    let (mut cold_iterations, mut warm_iterations) = (Vec::new(), Vec::new());
    for (i, case) in cases.iter().enumerate() {
        let (cold, _) = run.tracer.span("solver.tabu_search", None, i as u64, || {
            black_box(tabu_search(
                &case.qap,
                &cold_config,
                &mut StdRng::seed_from_u64(SOLVER_SEED),
            ))
        });
        cold_iterations.push(cold.iterations as f64);
        let warm_start = WarmStart::new(case.seed.clone());
        let (warm, _) = run
            .tracer
            .span("solver.tabu_search_warm", None, i as u64, || {
                black_box(tabu_search_warm(
                    &case.qap,
                    &warm_config,
                    &warm_start,
                    &mut StdRng::seed_from_u64(SOLVER_SEED),
                ))
            });
        warm_iterations.push(warm.iterations as f64);
        let seed_cost = case.qap.cost(&case.seed);
        if warm.cost > seed_cost * (1.0 + 1e-9) {
            run.fail(format!(
                "solver probe {i}: warm Tabu ended worse than its seed ({} > {seed_cost})",
                warm.cost
            ));
        }
    }
    let t = &run.tracer;
    let cold_ms = mean(&t.durations_ms("solver.tabu_search"));
    let warm_ms = mean(&t.durations_ms("solver.tabu_search_warm"));
    run.layer.set("solver.tabu_ms", cold_ms, "ms");
    run.layer
        .set("solver.tabu_iterations", mean(&cold_iterations), "count");
    run.layer.set("solver.warm_tabu_ms", warm_ms, "ms");
    run.layer.set(
        "solver.warm_tabu_iterations",
        mean(&warm_iterations),
        "count",
    );
    run.layer
        .set("solver.qap_cases", Some(cases.len() as f64), "count");
}
