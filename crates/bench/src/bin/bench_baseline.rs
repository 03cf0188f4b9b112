//! Emits `BENCH_compiler.json`: the saved compile-time baseline that the
//! perf trajectory is measured against.
//!
//! For every size n = 10/20/40/80 (plus one n = 200 stress compile on a
//! 15×14 grid in full runs) it runs the instrumented pipeline on the same
//! circuits as the `compiler_passes` criterion bench and derives *all* of an
//! entry's numbers from that one sample set: `mapping_ms`, `routing_ms` and
//! `scheduling_ms` are the medians of the `qap-mapping`,
//! `permutation-routing` and `alap-schedule` passes, `end_to_end_ms` is the
//! external wall-clock median of the same compiles, and the `passes` section
//! lists every pass's median.  It also runs the whole
//! size × compiler sweep through the parallel [`BatchCompiler`] driver at
//! every requested worker count (`batch.sweep` section — serial wall-clock
//! plus one `{threads, workers, ms, speedup}` point per count, where
//! `workers` is the *actual* pool size used).  Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_baseline -- \
//!     [--samples N] [--out PATH] [--threads T1,T2,...] [--smoke]
//! cargo run --release -p twoqan-bench --bin bench_baseline -- --kernels \
//!     [--samples N] [--out PATH] [--smoke]
//! cargo run --release -p twoqan-bench --bin bench_baseline -- --scaling \
//!     [--samples N] [--out PATH] [--smoke]
//! cargo run --release -p twoqan-bench --bin bench_baseline -- --check PATH \
//!     [--samples N] [--tolerance PCT]
//! ```
//!
//! Defaults: 9 samples per measurement, output to `BENCH_compiler.json` in
//! the current directory, thread sweep `1,2,4` (override with `--threads`;
//! `0` = one worker per core).  `--smoke` is the CI mode: sizes 10/20 only,
//! 1 sample, no n = 200 entry.
//!
//! `--kernels` instead microbenchmarks the QAP delta-table kernels (build /
//! apply / neighbourhood scan on padded NNN-chain and QAOA-REG-3 mapping
//! QAPs on Sycamore (m = 54) and 9×9 / 15×14 grids: block-sparse + SIMD vs.
//! the dense kernels vs. the reference implementations, all behind
//! `twoqan_graphs`' `reference` feature) and the dense 4×4 statevector
//! kernel (SIMD vs. scalar), writing `BENCH_kernels.json`.  It fails if the
//! block-sparse table ever differs from the dense one by a single bit.
//!
//! `--scaling` instead prints a Markdown table per family (QAOA-REG-3,
//! NNN-Heisenberg): every pass's median ms of a one-trial 2QAN pipeline at
//! n = 80/200/300/400/500 on square CNOT grids, and each pass's fitted
//! log-log exponent (`--out` also writes it to PATH; `--smoke`: n = 20/40).
//!
//! `--check PATH` re-measures the n = 80 end-to-end compile and fails if it
//! regressed more than `--tolerance` percent (default 10) against the
//! committed baseline at PATH — the CI perf guard.  See `BENCHMARKS.md` for
//! how to compare a full run against the checked-in baseline.

use std::time::Instant;
use twoqan::{BatchCompiler, BatchJob, Compiler, TwoQanCompiler, TwoQanConfig};
use twoqan_baselines::CompilerRegistry;
use twoqan_bench::harness::{
    any, emit, gate, host_json, loglog_slope, median, median_ms, Args, Baseline,
};
use twoqan_bench::{scaling_device, Workload, WorkloadKind, LARGE_SCALING_SIZE, SCALING_SIZES};
use twoqan_circuit::Circuit;
use twoqan_device::{Device, TwoQubitBasis};
use twoqan_graphs::tabu::{
    build_delta_table_reference, select_best_move, select_best_move_reference, DeltaTable,
};
use twoqan_graphs::{random_regular_graph, DistanceMatrix, Graph, QapProblem, SolverBudget};
use twoqan_ham::{nnn_heisenberg, trotter_step};
use twoqan_math::{gates, Complex};
use twoqan_sim::simd::{apply_general4, apply_general4_scalar};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Entry {
    n: usize,
    device: String,
    samples: usize,
    mapping_ms: f64,
    routing_ms: f64,
    scheduling_ms: f64,
    end_to_end_ms: f64,
    /// `(pass name, median wall-clock ms)` from the instrumented pipeline.
    passes: Vec<(&'static str, f64)>,
}

fn measure(n: usize, samples: usize) -> Entry {
    let device = scaling_device(n);
    let circuit = trotter_step(&nnn_heisenberg(n, 1), 1.0);
    let (passes, end_to_end_ms) = pass_medians(&circuit, &device, samples);
    let pass_ms = |name: &str| {
        passes
            .iter()
            .find(|(pass, _)| *pass == name)
            .map(|&(_, ms)| ms)
            .unwrap_or_else(|| panic!("pipeline has no {name} pass"))
    };

    Entry {
        n,
        device: device.name().to_string(),
        samples,
        mapping_ms: pass_ms("qap-mapping"),
        routing_ms: pass_ms("permutation-routing"),
        scheduling_ms: pass_ms("alap-schedule"),
        end_to_end_ms,
        passes,
    }
}

/// Compiles `circuit` onto `device` with a one-trial 2QAN pipeline `samples`
/// times (after a warm-up) and returns every pass's median wall-clock ms, in
/// pipeline order, plus the median external wall-clock of the same compiles.
fn pass_medians(
    circuit: &Circuit,
    device: &Device,
    samples: usize,
) -> (Vec<(&'static str, f64)>, f64) {
    let compiler = TwoQanCompiler::new(TwoQanConfig {
        mapping_trials: 1,
        ..TwoQanConfig::default()
    });

    // ONE sample set for everything: `samples` instrumented compiles (plus a
    // warm-up that also fixes the pass list).  The per-pass numbers are the
    // medians of the pipeline's own pass records and the end-to-end median is
    // the external wall-clock of the same runs, so a `mapping_ms` column and
    // the `qap-mapping` pass can never disagree about what was measured.
    let mut per_pass: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut end_to_end: Vec<f64> = Vec::with_capacity(samples);
    for sample in 0..=samples {
        let t0 = Instant::now();
        let report = compiler.compile(circuit, device).unwrap().report;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if sample == 0 {
            // Warm-up run (populates the device distance cache etc.).
            per_pass = report
                .passes
                .iter()
                .map(|p| (p.name, Vec::with_capacity(samples)))
                .collect();
            continue;
        }
        end_to_end.push(wall_ms);
        for (slot, record) in per_pass.iter_mut().zip(&report.passes) {
            debug_assert_eq!(slot.0, record.name);
            slot.1.push(record.wall_ms);
        }
    }
    let passes = per_pass
        .into_iter()
        .map(|(name, mut samples)| (name, median(&mut samples)))
        .collect();
    (passes, median(&mut end_to_end))
}

/// One point of the batch-driver thread sweep.
struct SweepPoint {
    /// Requested worker count (`0` = one per core).
    threads: usize,
    /// Actual pool size the driver resolved to.
    workers: usize,
    ms: f64,
    speedup: f64,
}

struct BatchNumbers {
    jobs: usize,
    serial_ms: f64,
    sweep: Vec<SweepPoint>,
}

/// Runs the whole size × compiler sweep (every registry compiler on every
/// scaling size) through the batch driver — once serially, then once per
/// requested worker count — and checks that every ordering agrees with the
/// serial results.
fn measure_batch(sizes: &[usize], samples: usize, thread_counts: &[usize]) -> BatchNumbers {
    let inputs: Vec<(Circuit, Device)> = sizes
        .iter()
        .map(|&n| (trotter_step(&nnn_heisenberg(n, 1), 1.0), scaling_device(n)))
        .collect();
    let compilers = CompilerRegistry::all();
    let jobs: Vec<BatchJob<'_>> = inputs
        .iter()
        .flat_map(|(circuit, device)| {
            compilers.iter().map(move |compiler| BatchJob {
                circuit,
                device,
                compiler: compiler.as_ref(),
            })
        })
        .collect();

    let serial_driver = BatchCompiler::new(1);
    let serial_results = serial_driver.compile_batch(&jobs);

    // Warm every driver up once and check that its results agree with the
    // serial ordering before any timing.
    let drivers: Vec<(usize, BatchCompiler, usize)> = thread_counts
        .iter()
        .map(|&threads| {
            let driver = BatchCompiler::new(threads);
            let workers = driver.resolved_threads(jobs.len());
            let results = driver.compile_batch(&jobs);
            for (i, (s, p)) in serial_results.iter().zip(&results).enumerate() {
                let (s, p) = (
                    s.as_ref().expect("bench circuits fit"),
                    p.as_ref().expect("bench circuits fit"),
                );
                assert_eq!(
                    s.metrics, p.metrics,
                    "batch job {i} diverged between serial and {threads}-thread runs"
                );
            }
            (threads, driver, workers)
        })
        .collect();

    // Interleaved timing: every round times the serial driver and then each
    // sweep configuration, so slow host drift (thermal state, co-tenants)
    // hits all of them equally instead of penalising whichever ran last.
    // Per-configuration medians are taken across the rounds.
    let mut serial_samples: Vec<f64> = Vec::with_capacity(samples);
    let mut config_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); drivers.len()];
    let time_one = |driver: &BatchCompiler| {
        let t0 = Instant::now();
        driver.compile_batch(&jobs);
        t0.elapsed().as_secs_f64() * 1e3
    };
    for _ in 0..samples {
        serial_samples.push(time_one(&serial_driver));
        for ((_, driver, _), slot) in drivers.iter().zip(&mut config_samples) {
            slot.push(time_one(driver));
        }
    }
    let serial_ms = median(&mut serial_samples);
    let sweep = drivers
        .iter()
        .zip(config_samples)
        .map(|(&(threads, _, workers), mut samples)| {
            let ms = median(&mut samples);
            eprintln!("batch sweep: requested {threads} threads -> {workers} workers, {ms:.3} ms");
            SweepPoint {
                threads,
                workers,
                ms,
                speedup: serial_ms / ms.max(1e-9),
            }
        })
        .collect();

    BatchNumbers {
        jobs: jobs.len(),
        serial_ms,
        sweep,
    }
}

// ---------------------------------------------------------------------------
// `--kernels`: QAP delta-table + statevector kernel microbenches.
// ---------------------------------------------------------------------------

/// A padded mapping QAP on a device with distance matrix `hw`, the shape
/// the QAP-mapping pass solves: `family` is `"nnn"` (an NNN chain over all
/// but one device qubit) or `"qaoa3"` (a random 3-regular graph over all but
/// one or two, so the qubit count is even); the rest are dummies.
fn mapping_qap(family: &str, hw: &DistanceMatrix) -> QapProblem {
    let m = hw.num_vertices();
    let interactions: Vec<(usize, usize)> = match family {
        "nnn" => {
            let n = m - 1;
            (0..n)
                .flat_map(|i| [(i, i + 1), (i, i + 2)])
                .filter(|&(_, j)| j < n)
                .collect()
        }
        "qaoa3" => {
            let n = (m - 1) & !1;
            random_regular_graph(n, 3, &mut StdRng::seed_from_u64(11)).edges()
        }
        _ => unreachable!("unknown QAP family {family}"),
    };
    QapProblem::from_interactions(m, &interactions, hw)
}

struct KernelEntry {
    name: &'static str,
    family: &'static str,
    n: usize,
    /// The production kernel (block-sparse table, early-abort scan, SIMD).
    blocked_ms: f64,
    /// The all-dense delta-table kernels, where they apply.
    dense_ms: Option<f64>,
    /// Whether the production table skipped zero flow blocks.
    skips: bool,
    /// The swap_delta rebuild / full scan / scalar original.
    reference_ms: f64,
}

/// Panics unless the two tables agree bit for bit on every upper-triangle
/// entry and every row minimum.
fn assert_same_table(sparse: &DeltaTable, dense: &DeltaTable, n: usize, context: &str) {
    for i in 0..n {
        let same_min = sparse.row_lower_bound(i).to_bits() == dense.row_lower_bound(i).to_bits();
        assert!(
            same_min,
            "{context}: row_min[{i}] diverged from the dense oracle"
        );
        for j in (i + 1)..n {
            let same = sparse.delta(i, j).to_bits() == dense.delta(i, j).to_bits();
            assert!(
                same,
                "{context}: delta({i}, {j}) diverged from the dense oracle"
            );
        }
    }
}

fn measure_kernels(samples: usize, smoke: bool) -> Vec<KernelEntry> {
    let mut entries = Vec::new();
    let sycamore = Device::sycamore().distances().clone();
    let grid = |rows, cols| DistanceMatrix::bfs(&Graph::grid(rows, cols));
    let devices: Vec<DistanceMatrix> = if smoke {
        vec![sycamore, grid(9, 9)]
    } else {
        vec![sycamore, grid(9, 9), grid(15, 14)]
    };
    for hw in &devices {
        for family in ["nnn", "qaoa3"] {
            let problem = mapping_qap(family, hw);
            measure_qap_kernels(&problem, family, samples, &mut entries);
        }
    }
    measure_sim_kernel(samples, smoke, &mut entries);
    entries
}

fn measure_qap_kernels(
    problem: &QapProblem,
    family: &'static str,
    samples: usize,
    entries: &mut Vec<KernelEntry>,
) {
    let n = problem.num_facilities();
    let skips = problem.skips_zero_blocks();
    let context = format!("{family} n = {n}");
    let mut rng = StdRng::seed_from_u64(7);
    let assignment = problem.random_assignment(&mut rng);

    // Delta-table build: block-sparse vs dense vs the O(n³) swap_delta
    // reference.
    entries.push(KernelEntry {
        name: "delta_build",
        family,
        n,
        blocked_ms: median_ms(samples, || {
            std::hint::black_box(DeltaTable::new(problem, &assignment));
        }),
        dense_ms: Some(median_ms(samples, || {
            std::hint::black_box(DeltaTable::new_dense(problem, &assignment));
        })),
        skips,
        reference_ms: median_ms(samples, || {
            std::hint::black_box(build_delta_table_reference(problem, &assignment));
        }),
    });

    // Post-swap maintenance: two updates (a swap and its inverse, so the
    // table returns to its starting state every iteration) vs. two full
    // reference rebuilds.  The sparse and dense tables see the same swaps,
    // so afterwards they must agree bit for bit.
    let (u, v) = (3usize, 17usize);
    let mut table = DeltaTable::new(problem, &assignment);
    let mut dense = DeltaTable::new_dense(problem, &assignment);
    let mut assign = assignment.clone();
    let blocked_ms = median_ms(samples, || {
        assign.swap(u, v);
        table.apply_swap(problem, &assign, u, v);
        assign.swap(u, v);
        table.apply_swap(problem, &assign, u, v);
    });
    let dense_ms = median_ms(samples, || {
        assign.swap(u, v);
        dense.apply_swap_dense(problem, &assign, u, v);
        assign.swap(u, v);
        dense.apply_swap_dense(problem, &assign, u, v);
    });
    let reference_ms = median_ms(samples, || {
        assign.swap(u, v);
        std::hint::black_box(build_delta_table_reference(problem, &assign));
        assign.swap(u, v);
        std::hint::black_box(build_delta_table_reference(problem, &assign));
    });
    entries.push(KernelEntry {
        name: "apply_swap_x2",
        family,
        n,
        blocked_ms,
        dense_ms: Some(dense_ms),
        skips,
        reference_ms,
    });
    // A seeded walk of accepted-looking swaps visits far more (u, v) pairs
    // than the timed loop.
    for _ in 0..64 {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        assign.swap(a, b);
        table.apply_swap(problem, &assign, a, b);
        dense.apply_swap_dense(problem, &assign, a, b);
    }
    assert_same_table(&table, &dense, n, &context);

    // Neighbourhood scan: span-truncated early-abort scan vs. the full
    // reference scan.  Both must pick the same move.
    let table = DeltaTable::new(problem, &assignment);
    let tabu_until = vec![0usize; n * n];
    let current_cost = problem.cost(&assignment);
    let budget = SolverBudget::unlimited();
    let blocked_scan = || {
        select_best_move(
            &table,
            problem,
            &tabu_until,
            1,
            current_cost,
            current_cost,
            &budget,
        )
    };
    let reference_scan =
        || select_best_move_reference(&table, problem, &tabu_until, 1, current_cost, current_cost);
    assert_eq!(
        blocked_scan(),
        reference_scan(),
        "{context}: blocked and reference scans disagree"
    );
    entries.push(KernelEntry {
        name: "scan",
        family,
        n,
        blocked_ms: median_ms(samples, || {
            std::hint::black_box(blocked_scan());
        }),
        dense_ms: None,
        skips,
        reference_ms: median_ms(samples, || {
            std::hint::black_box(reference_scan());
        }),
    });
}

/// Dense 4×4 statevector kernel on long amplitude runs (the
/// `two_canonical_general` laggard): SIMD vs. the scalar original.  The
/// gate is unitary, so applying it in place repeatedly stays normalised.
fn measure_sim_kernel(samples: usize, smoke: bool, entries: &mut Vec<KernelEntry>) {
    let run_len = if smoke { 1 << 8 } else { 1 << 14 };
    let m = gates::canonical(0.5, 0.25, 0.125);
    let mut rng = StdRng::seed_from_u64(13);
    let mut runs: Vec<Vec<Complex>> = (0..4)
        .map(|_| {
            (0..run_len)
                .map(|_| Complex::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect()
        })
        .collect();
    let mut scalar_runs = runs.clone();
    entries.push(KernelEntry {
        name: "sim_general4",
        family: "canonical",
        n: run_len,
        blocked_ms: median_ms(samples, || {
            let [a, b, c, d] = &mut runs[..] else {
                unreachable!()
            };
            apply_general4(&m, a, b, c, d);
        }),
        dense_ms: None,
        skips: false,
        reference_ms: median_ms(samples, || {
            let [a, b, c, d] = &mut scalar_runs[..] else {
                unreachable!()
            };
            apply_general4_scalar(&m, a, b, c, d);
        }),
    });
}

fn run_kernels(samples: usize, smoke: bool, out: &str) {
    let entries = measure_kernels(samples, smoke);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"qap_and_sim_kernels\",\n");
    json.push_str("  \"unit\": \"ms (median wall clock)\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    let host = host_json();
    json.push_str(&format!("  {},\n", &host[1..host.len() - 1]));
    json.push_str("  \"kernels\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let dense = e
            .dense_ms
            .map(|ms| {
                format!(
                    ", \"dense_ms\": {ms:.4}, \"skips_zero_blocks\": {}",
                    e.skips
                )
            })
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"family\": \"{}\", \"n\": {}, \"blocked_ms\": {:.4}{dense}, \"reference_ms\": {:.4}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.family,
            e.n,
            e.blocked_ms,
            e.reference_ms,
            e.reference_ms / e.blocked_ms.max(1e-9),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    emit(out, &json);
}

// ---------------------------------------------------------------------------
// `--scaling`: per-pass times and their growth at large sizes.
// ---------------------------------------------------------------------------

/// Sizes of the full `--scaling` table; `--smoke` runs [`SCALING_SMOKE_SIZES`].
const SCALING_TABLE_SIZES: [usize; 5] = [80, 200, 300, 400, 500];
const SCALING_SMOKE_SIZES: [usize; 2] = [20, 40];

/// A Markdown table per family of every pass's median ms at each
/// size on the smallest square CNOT grid that fits (the stock devices stop
/// at 210 qubits), then each pass's least-squares log-log exponent.
fn scaling_table(samples: usize, smoke: bool) -> String {
    let sizes: &[usize] = if smoke {
        &SCALING_SMOKE_SIZES
    } else {
        &SCALING_TABLE_SIZES
    };
    let mut md = String::new();
    for kind in [WorkloadKind::QaoaRegular(3), WorkloadKind::NnnHeisenberg] {
        let rows: Vec<_> = sizes
            .iter()
            .map(|&n| {
                let side = (1..).find(|s| s * s >= n).expect("some square fits n");
                let device = Device::grid(side, side, TwoQubitBasis::Cnot);
                let circuit = Workload::generate(kind, n, 0).circuit;
                let (mut passes, end_to_end_ms) = pass_medians(&circuit, &device, samples);
                passes.push(("end-to-end", end_to_end_ms));
                eprintln!("scaling: {} n={n} done", kind.name());
                (n, device, passes)
            })
            .collect();
        let names: Vec<&str> = rows[0].2.iter().map(|&(name, _)| name).collect();
        md.push_str(&format!(
            "\n{} (one-trial 2QAN pipeline, median ms of {samples}):\n\n| n | device | {} |\n|---|---|{}\n",
            kind.name(),
            names.join(" | "),
            "---|".repeat(names.len())
        ));
        for (n, device, passes) in &rows {
            let cells: Vec<String> = passes.iter().map(|(_, ms)| format!("{ms:.3}")).collect();
            md.push_str(&format!(
                "| {n} | {} | {} |\n",
                device.name(),
                cells.join(" | ")
            ));
        }
        let exponents: Vec<String> = (0..names.len())
            .map(|p| {
                let points: Vec<(f64, f64)> = rows
                    .iter()
                    .map(|(n, _, passes)| (*n as f64, passes[p].1))
                    .collect();
                format!("n^{:.2}", loglog_slope(&points))
            })
            .collect();
        md.push_str(&format!("| fit | | {} |\n", exponents.join(" | ")));
    }
    md
}

// ---------------------------------------------------------------------------
// `--check`: the CI perf-regression guard.
// ---------------------------------------------------------------------------

fn run_check(baseline_path: &str, samples: usize, tolerance_pct: f64) {
    let committed = Baseline::read(baseline_path).require("\"n\": 80", "end_to_end_ms");
    let n = 80;
    let device = scaling_device(n);
    let circuit = trotter_step(&nnn_heisenberg(n, 1), 1.0);
    let compiler = TwoQanCompiler::new(TwoQanConfig {
        mapping_trials: 1,
        ..TwoQanConfig::default()
    });
    // Warm up caches/frequency state, then gate on the minimum sample.
    for _ in 0..3 {
        compiler.compile(&circuit, &device).unwrap();
    }
    let measured = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            compiler.compile(&circuit, &device).unwrap();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let label = format!("n=80 end-to-end best-of-{samples}");
    gate(&label, measured, committed, tolerance_pct);
}

fn parse_thread_list(spec: &str) -> Option<Vec<usize>> {
    let list: Option<Vec<usize>> = spec
        .split(',')
        .map(|t| t.trim().parse::<usize>().ok())
        .collect();
    list.filter(|l| !l.is_empty())
}

/// The command line; see the module docs.
struct Options {
    samples: usize,
    out: Option<String>,
    threads: Vec<usize>,
    smoke: bool,
    kernels: bool,
    scaling: bool,
    check: Option<String>,
    tolerance_pct: f64,
}

fn options(args: &mut Args) -> Result<Options, String> {
    let smoke = args.flag("--smoke");
    let samples = args.value("--samples", "a positive integer", |&n| n > 0)?;
    let threads = args.value(
        "--threads",
        "a comma-separated list of integers (0 = one per core), e.g. --threads 1,2,4",
        |spec: &String| parse_thread_list(spec).is_some(),
    )?;
    let tolerance_pct = args.value("--tolerance", "a positive percentage", |&p| p > 0.0)?;
    Ok(Options {
        samples: if smoke { 1 } else { samples.unwrap_or(9) },
        out: args.value("--out", "a path", any)?,
        threads: threads.map_or(vec![1, 2, 4], |spec| parse_thread_list(&spec).unwrap()),
        smoke,
        kernels: args.flag("--kernels"),
        scaling: args.flag("--scaling"),
        check: args.value("--check", "the committed baseline path", any)?,
        tolerance_pct: tolerance_pct.unwrap_or(10.0),
    })
}

fn main() {
    let opts = Args::from_env(options);
    let (samples, smoke) = (opts.samples, opts.smoke);
    if let Some(baseline) = opts.check {
        run_check(&baseline, samples, opts.tolerance_pct);
        return;
    }
    if opts.scaling {
        let table = scaling_table(samples, smoke);
        match opts.out {
            Some(out) => emit(&out, &table),
            None => println!("{table}"),
        }
        return;
    }
    if opts.kernels {
        run_kernels(
            samples,
            smoke,
            &opts.out.unwrap_or("BENCH_kernels.json".into()),
        );
        return;
    }

    let out = opts.out.unwrap_or("BENCH_compiler.json".into());
    let sizes: Vec<usize> = if smoke {
        SCALING_SIZES.iter().copied().take(2).collect()
    } else {
        SCALING_SIZES.to_vec()
    };

    let mut entries: Vec<Entry> = sizes.iter().map(|&n| measure(n, samples)).collect();
    if !smoke {
        // One large stress compile, at a reduced sample count (it dominates
        // the wall-clock of a full run).
        entries.push(measure(LARGE_SCALING_SIZE, samples.min(3)));
    }
    // The batch sweep sticks to the paper sizes; the n = 200 stress entry is
    // end-to-end only.
    let batch = measure_batch(&sizes, samples, &opts.threads);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"compiler_passes\",\n");
    json.push_str("  \"workload\": \"nnn_heisenberg trotter step, seed 1\",\n");
    json.push_str("  \"unit\": \"ms (median wall clock)\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let passes = e
            .passes
            .iter()
            .map(|(name, ms)| format!("{{\"name\": \"{name}\", \"ms\": {ms:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"n\": {}, \"device\": \"{}\", \"samples\": {}, \"mapping_ms\": {:.3}, \"routing_ms\": {:.3}, \"scheduling_ms\": {:.3}, \"end_to_end_ms\": {:.3}, \"passes\": [{}]}}{}\n",
            e.n,
            e.device,
            e.samples,
            e.mapping_ms,
            e.routing_ms,
            e.scheduling_ms,
            e.end_to_end_ms,
            passes,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"batch\": {{\"jobs\": {}, \"compilers\": {}, \"serial_ms\": {:.3}, \"sweep\": [\n",
        batch.jobs,
        CompilerRegistry::NAMES.len(),
        batch.serial_ms,
    ));
    for (i, p) in batch.sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"workers\": {}, \"ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            p.threads,
            p.workers,
            p.ms,
            p.speedup,
            if i + 1 == batch.sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]}\n");
    json.push_str("}\n");
    emit(&out, &json);
}
