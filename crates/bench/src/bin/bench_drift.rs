//! Emits `BENCH_drift.json`: warm-start recompilation latency under
//! calibration drift versus compiling from scratch.
//!
//! The bench models the operational loop of a compilation service tracking
//! a drifting device: an n-qubit NNN-Heisenberg Trotter step is compiled
//! cold once with the calibration-aware portfolio (`2QAN-noise` — the
//! variant for which calibration drift actually changes the compilation,
//! and whose portfolio ranks candidates by estimated success probability),
//! then on every calibration cycle a **single value** of the target drifts
//! (one edge's two-qubit error, round-robin over the edges), the stale
//! snapshot is invalidated and the workload is *recompiled* — warm, seeded
//! with the predecessor snapshot's placement through
//! [`CompileService::recompile`].  Each cycle the same drifted snapshot is
//! also compiled from scratch (a fresh miss on a separate service, same
//! request path) as the cold comparison.  Every warm artifact is
//! structurally verified (connectivity + gate multiset; the full
//! statevector equivalence battery runs on small instances in
//! `crates/service/tests/service_drift.rs`), its placement is checked to
//! never lose to its seed under the cost model the winning portfolio run
//! optimised (hop-count or calibration-weighted, both evaluated on the
//! drifted snapshot), and its ESP is recorded relative to the cold compile
//! of the same snapshot.  Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_drift -- \
//!     [--qubits N] [--cycles N] [--out PATH]
//! cargo run --release -p twoqan-bench --bin bench_drift -- --smoke [--out PATH]
//! cargo run --release -p twoqan-bench --bin bench_drift -- --check PATH \
//!     [--tolerance PCT]
//! ```
//!
//! Defaults: 80 qubits (the paper sweep's largest size, on the 9×9 grid
//! with a heterogeneous calibration snapshot), 6 drift cycles, output to
//! `BENCH_drift.json` in the current directory.  Full runs exit non-zero
//! unless every recompile took the warm path, every warm artifact passed
//! its checks, and warm p50 beat cold p50.  `--smoke` is the CI mode: 20
//! qubits, 2 cycles, same hard gates.  `--check PATH` re-measures the warm
//! recompile p50 and fails if it regressed more than `--tolerance` percent
//! (default 50) against the committed baseline at PATH.  See
//! `BENCHMARKS.md` for the output schema.

use std::time::Instant;
use twoqan::mapping::{mapping_cost, QubitMap};
use twoqan_bench::harness::{any, emit, gate, mean, percentile, Args, Baseline};
use twoqan_bench::noise::esp;
use twoqan_bench::{scaling_device, Workload, WorkloadKind};
use twoqan_circuit::Circuit;
use twoqan_device::{Device, DriftDelta};
use twoqan_graphs::QapProblem;
use twoqan_service::{CompileService, ServiceConfig, StatsSnapshot};
use twoqan_verify::check_structural;

/// The compiler under test: the calibration-aware portfolio, for which a
/// drifted target genuinely changes the compilation problem.
const COMPILER: &str = "2QAN-noise";

/// Everything one drift scenario measures.
struct ScenarioNumbers {
    qubits: usize,
    cycles: usize,
    /// Warm recompile wall-clock per cycle (ms).
    warm_ms: Vec<f64>,
    /// From-scratch compile wall-clock per cycle (ms).
    cold_ms: Vec<f64>,
    /// ESP(warm) / ESP(cold) per cycle, both on the drifted snapshot.
    esp_retention: Vec<f64>,
    /// Worst warm-placement QAP cost relative to its seed, under the cost
    /// model the winning portfolio run optimised (≤ 1.0 when the
    /// never-worse guarantee holds).
    cost_ratio_max: f64,
    /// Cache entries dropped by the per-cycle invalidations.
    invalidated: Vec<usize>,
    stats: StatsSnapshot,
}

/// The calibration-cycle seed for edge `cycle` of the round-robin: bumps
/// one edge's two-qubit error by 15% (clamped away from the validation
/// ceiling) and returns the drifted device.
fn drift_one_value(device: &Device, cycle: usize) -> Device {
    let target = device.target();
    let edges = target.edges();
    let (a, b) = edges[cycle % edges.len()];
    let error = (target.two_qubit_error(a, b) * 1.15).min(0.4);
    let drifted = target
        .perturb(&DriftDelta::for_two_qubit_error(a, b, error))
        .expect("round-robin edges exist on the device");
    device.with_target(drifted)
}

/// Evaluates a logical placement under both QAP cost models on `device`:
/// the hop-count Eq.-7 cost and the calibration-weighted cost.  The warm
/// never-worse guarantee holds on the matrix the winning portfolio run
/// optimised, so the gate accepts a placement that is at least as good as
/// its seed under *either* model (both evaluated on the drifted snapshot).
fn placement_costs(placement: &[usize], unified: &Circuit, device: &Device) -> (f64, f64) {
    let m = device.num_qubits();
    let hop = mapping_cost(&QubitMap::from_assignment(placement, m), unified, device);
    // Pad to a full permutation; the dummy facilities carry zero flow, so
    // their ordering cannot change the cost.
    let mut used = vec![false; m];
    for &p in placement {
        used[p] = true;
    }
    let mut padded = placement.to_vec();
    padded.extend((0..m).filter(|&p| !used[p]));
    let weighted = QapProblem::from_interactions_weighted(
        m,
        &unified.interaction_pairs(),
        device.weighted_distances(),
    )
    .cost(&padded);
    (hop, weighted)
}

/// Runs one drift scenario: cold-compile the initial snapshot, then
/// `cycles` rounds of single-value drift → invalidate → warm recompile,
/// with a from-scratch compile of each drifted snapshot as the control.
/// Hard-fails (exit 1) if a recompile misses the warm path, a warm
/// artifact fails its structural check, or a warm placement loses to its
/// seed.
fn run_scenario(qubits: usize, cycles: usize, quiet: bool) -> ScenarioNumbers {
    let workload = Workload::generate(WorkloadKind::NnnHeisenberg, qubits, 0);
    let circuit = &workload.circuit;
    let unified = circuit.unify_same_pair_gates();
    let base = scaling_device(qubits).with_heterogeneous_calibration(7);

    let service = CompileService::new(ServiceConfig::default());
    let cold_service = CompileService::new(ServiceConfig::default());

    let mut device = base;
    let initial = service
        .request(COMPILER, circuit, &device)
        .expect("the scaling workload fits its device");
    let mut seed_placement = initial.output.initial_placement.clone();

    let mut numbers = ScenarioNumbers {
        qubits,
        cycles,
        warm_ms: Vec::with_capacity(cycles),
        cold_ms: Vec::with_capacity(cycles),
        esp_retention: Vec::with_capacity(cycles),
        cost_ratio_max: 0.0,
        invalidated: Vec::with_capacity(cycles),
        stats: service.stats(),
    };

    for cycle in 0..cycles {
        let drifted = drift_one_value(&device, cycle);
        numbers.invalidated.push(service.invalidate_device(&device));
        device = drifted;

        let warm = service
            .recompile(COMPILER, circuit, &device)
            .expect("recompiling the same workload cannot fail");
        if !warm.warm {
            eprintln!("cycle {cycle}: recompile did not take the warm path");
            std::process::exit(1);
        }
        numbers.warm_ms.push(warm.wall_ms);

        let cold = cold_service
            .request(COMPILER, circuit, &device)
            .expect("the cold control compiles the same workload");
        assert!(!cold.hit, "each drifted snapshot is a fresh cold key");
        numbers.cold_ms.push(cold.wall_ms);

        // Validity: structural verification of the warm artifact (full
        // equivalence is property-tested on small instances).
        if let Err(e) = check_structural(&warm.output.hardware_circuit, &unified, Some(&device)) {
            eprintln!("cycle {cycle}: warm artifact failed structural verification: {e}");
            std::process::exit(1);
        }
        // Never-worse-than-seed: the warm placement's QAP cost under the
        // model the winning portfolio run optimised.
        let (seed_hop, seed_weighted) = placement_costs(&seed_placement, &unified, &device);
        let (warm_hop, warm_weighted) =
            placement_costs(&warm.output.initial_placement, &unified, &device);
        let slack = 1.0 + 1e-9;
        if warm_hop > seed_hop * slack && warm_weighted > seed_weighted * slack {
            eprintln!(
                "cycle {cycle}: warm placement lost to its seed under both cost models \
                 (hop {warm_hop} vs {seed_hop}, weighted {warm_weighted:.3} vs {seed_weighted:.3})"
            );
            std::process::exit(1);
        }
        if seed_hop > 0.0 && seed_weighted > 0.0 {
            let ratio = (warm_hop / seed_hop).min(warm_weighted / seed_weighted);
            numbers.cost_ratio_max = numbers.cost_ratio_max.max(ratio);
        }
        seed_placement = warm.output.initial_placement.clone();

        numbers.esp_retention.push(
            esp(&warm.output.hardware_circuit, &device)
                / esp(&cold.output.hardware_circuit, &device),
        );
        if !quiet {
            println!(
                "cycle {cycle}: warm {:.1} ms, cold {:.1} ms, esp retention {:.4}",
                warm.wall_ms, cold.wall_ms, numbers.esp_retention[cycle]
            );
        }
    }
    numbers.stats = service.stats();
    numbers
}

fn write_report(numbers: &ScenarioNumbers, out: &str, elapsed_s: f64) {
    let mut warm = numbers.warm_ms.clone();
    let mut cold = numbers.cold_ms.clone();
    let warm_p50 = percentile(&mut warm, 50.0);
    let warm_p99 = percentile(&mut warm, 99.0);
    let cold_p50 = percentile(&mut cold, 50.0);
    let cold_p99 = percentile(&mut cold, 99.0);
    let retention_min = numbers
        .esp_retention
        .iter()
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let invalidated: Vec<String> = numbers.invalidated.iter().map(usize::to_string).collect();
    let stats = &numbers.stats;
    let json = format!(
        "{{\n  \"benchmark\": \"drift_recompile\",\n  \"compiler\": \"{COMPILER}\",\n  \
         \"workload\": \"NNN-Heisenberg\",\n  \
         \"qubits\": {},\n  \"cycles\": {},\n  \
         \"drift\": \"single two-qubit error value per cycle (+15%, round-robin edges)\",\n  \
         \"elapsed_s\": {:.3},\n  \
         \"warm\": {{ \"count\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }},\n  \
         \"cold\": {{ \"count\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }},\n  \
         \"speedup_p50\": {:.3},\n  \
         \"esp_retention\": {{ \"mean\": {:.6}, \"min\": {:.6} }},\n  \
         \"placement_cost_ratio_max\": {:.6},\n  \
         \"invalidated_entries\": [{}],\n  \
         \"stats\": {{ \"warm_hits\": {}, \"cold_compiles\": {}, \"invalidations\": {}, \
         \"invalidated_entries\": {}, \"service_warm_speedup\": {:.3} }}\n}}",
        numbers.qubits,
        numbers.cycles,
        elapsed_s,
        numbers.warm_ms.len(),
        warm_p50,
        warm_p99,
        numbers.cold_ms.len(),
        cold_p50,
        cold_p99,
        cold_p50 / warm_p50,
        mean(&numbers.esp_retention),
        retention_min,
        numbers.cost_ratio_max,
        invalidated.join(", "),
        stats.warm_hits,
        stats.cold_compiles,
        stats.invalidations,
        stats.invalidated_entries,
        stats.warm_speedup(),
    );
    emit(out, &json);
    if warm_p50 >= cold_p50 {
        eprintln!("GATE FAILED: warm recompile p50 did not beat the from-scratch p50");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// `--check`: the CI perf-regression guard on the warm recompile path.
// ---------------------------------------------------------------------------

fn run_check(baseline_path: &str, tolerance_pct: f64) {
    let baseline = Baseline::read(baseline_path);
    let committed = baseline.require("\"warm\"", "p50_ms");
    let qubits = baseline
        .field("\"qubits\"", "qubits")
        .map_or(80, |n| n as usize);
    // Two 4-cycle scenario runs on fresh services; the gate compares the
    // median of the per-cycle minimum.
    let (first, second) = (run_scenario(qubits, 4, true), run_scenario(qubits, 4, true));
    let mut best: Vec<f64> = std::iter::zip(&first.warm_ms, &second.warm_ms)
        .map(|(a, b)| a.min(*b))
        .collect();
    let measured = percentile(&mut best, 50.0);
    let label = format!("drift warm-recompile p50 (n = {qubits}) best-of-2");
    gate(&label, measured, committed, tolerance_pct);
}

/// The command line; see the module docs.
struct Options {
    qubits: usize,
    cycles: usize,
    check: Option<String>,
    tolerance_pct: f64,
    out: String,
}

fn options(args: &mut Args) -> Result<Options, String> {
    let smoke = args.flag("--smoke");
    let qubits = args.value("--qubits", "a positive integer", |&n| n > 0)?;
    let cycles = args.value("--cycles", "a positive integer", |&n| n > 0)?;
    let tolerance_pct = args.value("--tolerance", "a positive percentage", |&p| p > 0.0)?;
    let out = args.value("--out", "a path", any)?;
    Ok(Options {
        qubits: if smoke { 20 } else { qubits.unwrap_or(80) },
        cycles: if smoke { 2 } else { cycles.unwrap_or(6) },
        check: args.value("--check", "the committed baseline path", any)?,
        tolerance_pct: tolerance_pct.unwrap_or(50.0),
        out: out.unwrap_or("BENCH_drift.json".into()),
    })
}

fn main() {
    let opts = Args::from_env(options);
    if let Some(path) = opts.check {
        run_check(&path, opts.tolerance_pct);
        return;
    }
    let start = Instant::now();
    let numbers = run_scenario(opts.qubits, opts.cycles, false);
    write_report(&numbers, &opts.out, start.elapsed().as_secs_f64());
}
