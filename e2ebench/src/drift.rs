//! `drift-recompile`: one heterogeneous 9×9 grid carries four n = 80
//! workloads compiled cold with `2QAN-noise` during set-up.  Each cycle
//! advances a seeded calibration drift stream, invalidates the old
//! snapshot, and recompiles every workload — the warm path, seeded from
//! the predecessor placement — followed by four repeat recompiles per
//! workload on the unchanged snapshot, which hit through the
//! placement-record fast path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use twoqan::pipeline::Compiler;
use twoqan::{CompilePool, TwoQanCompiler, TwoQanConfig};
use twoqan_bench::{scaling_device, WorkloadKind};
use twoqan_circuit::Circuit;
use twoqan_device::{Device, DriftStream};
use twoqan_service::{CompileService, ServiceConfig};

use crate::check::{verify_artifact, warm_never_worse, Compilers};
use crate::probe::{solver_probes, QapCase};
use crate::run::{log10_esp, repeat_setup, serve, workload_circuit, Options, Run};
use crate::stats::{mean, median};

pub const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::NnnHeisenberg,
    WorkloadKind::NnnXy,
    WorkloadKind::NnnIsing,
    WorkloadKind::QaoaRegular(3),
];
pub const QUBITS: usize = 80;
pub const COMPILER: &str = "2QAN-noise";
/// Repeat recompiles per workload and cycle on the unchanged snapshot.
pub const REPEATS: usize = 4;
/// Cycles per drift epoch.  Every epoch restarts the walk from the initial
/// snapshot with a stream of its own, so a run averages many short walks
/// instead of following one walk until calibrations saturate.
pub const EPOCH_CYCLES: usize = 4;
/// Cycles whose warm artifacts make up the quality counts; every run
/// measures at least this many, so the counts do not depend on speed.
pub const QUALITY_CYCLES: usize = 8 * EPOCH_CYCLES;
/// Cycles the control arms and solver probes of a traced run replay.
const CONTROL_CYCLES: usize = 4;

/// The initial calibration snapshot and the drift walks are fixed, so every
/// seed measures the same problems; the seed draws the workloads'
/// coefficients and angles.
const CALIBRATION_SEED: u64 = 7;
const DRIFT_SEED: u64 = 11;

pub struct Inputs {
    pub labels: Vec<String>,
    pub circuits: Vec<Circuit>,
    pub device: Device,
}

impl Inputs {
    /// The drift stream of epoch `epoch`, starting at the initial snapshot.
    pub fn stream(&self, epoch: usize) -> DriftStream {
        DriftStream::new(self.device.target().clone(), DRIFT_SEED + epoch as u64)
    }
}

pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        labels: KINDS
            .iter()
            .map(|k| format!("drift.{}.n{QUBITS}", k.name()))
            .collect(),
        circuits: KINDS
            .iter()
            .map(|&k| workload_circuit(k, QUBITS, 0, seed))
            .collect(),
        device: scaling_device(QUBITS).with_heterogeneous_calibration(CALIBRATION_SEED),
    }
}

struct Setup {
    inputs: Inputs,
    service: CompileService,
    /// Placement of each workload's latest artifact (the next warm seed).
    placements: Vec<Vec<usize>>,
}

fn setup(seed: u64) -> Setup {
    let inputs = inputs(seed);
    let service = CompileService::new(ServiceConfig::default());
    let placements = inputs
        .circuits
        .iter()
        .map(|c| {
            service
                .request(COMPILER, c, &inputs.device)
                .expect("drift workloads fit the grid")
                .output
                .initial_placement
                .clone()
        })
        .collect();
    Setup {
        inputs,
        service,
        placements,
    }
}

/// A drifted snapshot kept for the control arms: the device and the seed
/// placements its warm recompiles started from.
struct Snapshot {
    device: Device,
    seeds: Vec<Vec<usize>>,
}

pub fn run(opts: &Options) -> Run {
    // Thousands of requests per run: p99 leaves tens beyond.
    let mut run = Run::new(opts, 99.0);
    let Setup {
        inputs,
        service,
        mut placements,
    } = repeat_setup(opts, &mut run, || setup(opts.seed));
    run.inputs = inputs.labels.clone();
    let compilers = Compilers::new(&[COMPILER]);
    let compiler = compilers.get(COMPILER);
    let unified: Vec<Circuit> = inputs
        .circuits
        .iter()
        .map(Circuit::unify_same_pair_gates)
        .collect();
    let mut device = inputs.device.clone();
    let mut stream = inputs.stream(0);
    let mut snapshots = Vec::new();

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let stats_before = service.stats();
    let census_before = twoqan::pool::spawned_thread_census();
    let mut request_id = 0u64;
    let mut cycle = 0usize;
    while cycle < QUALITY_CYCLES || Instant::now() < deadline {
        run.tracer.on = opts.trace && cycle % 2 == 1;
        run.block = cycle as u32;
        if cycle > 0 && cycle.is_multiple_of(EPOCH_CYCLES) {
            stream = inputs.stream(cycle / EPOCH_CYCLES);
        }
        stream.advance();
        let drifted = device.with_target(stream.current().clone());
        let span = run.tracer.open("cycle", None, cycle as u64);
        let (_, ms) = run
            .tracer
            .span("service.invalidate_device", span, cycle as u64, || {
                service.invalidate_device(&device)
            });
        run.invalidate_ms.push((run.block, ms));
        device = drifted;
        if cycle < CONTROL_CYCLES {
            snapshots.push(Snapshot {
                device: device.clone(),
                seeds: placements.clone(),
            });
        }
        for (w, label) in inputs.labels.iter().enumerate() {
            let circuit = &inputs.circuits[w];
            let op = run.tracer.open("op", span, request_id);
            let (served, ms) = serve(
                &mut run, &service, COMPILER, circuit, &device, true, op, request_id,
            );
            let Some(warm) = run.record(w, served, ms) else {
                run.tracer.close(op);
                continue;
            };
            run.key_probes(compiler, circuit, &device, op, request_id);
            for _ in 0..REPEATS {
                let (served, ms) = serve(
                    &mut run, &service, COMPILER, circuit, &device, true, op, request_id,
                );
                if let Some(repeat) = run.record(w, served, ms) {
                    if !repeat.hit || !Arc::ptr_eq(&repeat.output, &warm.output) {
                        run.fail(format!("{label} cycle {cycle}: repeat recompile missed"));
                    }
                }
            }
            run.tracer.close(op);
            request_id += 1;

            // Checks, untimed: a warm, valid artifact whose placement is
            // never worse than its seed.
            let output = &warm.output;
            let check = if warm.hit || !warm.warm {
                Err("recompile did not take the warm path".to_string())
            } else {
                verify_artifact(compiler, circuit, output, &device).and_then(|()| {
                    warm_never_worse(
                        &output.initial_placement,
                        &placements[w],
                        &unified[w],
                        &device,
                    )
                })
            };
            if let Err(e) = check {
                run.fail(format!("{label} cycle {cycle}: {e}"));
            }
            if cycle < QUALITY_CYCLES {
                run.quality.add(output, Some(&device));
            }
            placements[w] = output.initial_placement.clone();
        }
        run.tracer.close(span);
        cycle += 1;
    }
    run.threads_spawned = twoqan::pool::spawned_thread_census() - census_before;
    let stats_after = service.stats();
    run.set_stats(&stats_before, &stats_after);
    run.tracer.on = opts.trace;
    run.extra.set("drift.cycles", Some(cycle as f64), "count");
    run.extra.set(
        "service.invalidate_ms",
        median(&run.invalidate_ms.iter().map(|b| b.1).collect::<Vec<_>>()),
        "ms",
    );
    let warm_self: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| s.outcome == crate::run::Outcome::Warm)
        .map(|s| s.service_self_ms)
        .collect();
    run.extra
        .set("service.self_ms.warm", median(&warm_self), "ms");

    if opts.trace {
        control_arms(&mut run, &inputs.circuits, &snapshots);
        let cases: Vec<QapCase> = snapshots
            .iter()
            .flat_map(|s| {
                inputs.circuits.iter().zip(&s.seeds).flat_map(|(c, seed)| {
                    [
                        QapCase::new(c, &s.device, false, seed),
                        QapCase::new(c, &s.device, true, seed),
                    ]
                })
            })
            .collect();
        solver_probes(&mut run, &cases);
    }
    run
}

/// Replays the first drifted snapshots outside the service with three
/// compilers: the full cold portfolio, the warm clone's reduced config
/// without a seed (truncated), and the warm clone itself.  Cold vs
/// truncated isolates what the smaller search saves; truncated vs warm,
/// what the seed adds.
fn control_arms(run: &mut Run, circuits: &[Circuit], snapshots: &[Snapshot]) {
    let pool = CompilePool::new(twoqan::pool::max_useful_workers());
    let _installed = pool.install();
    let cold = TwoQanCompiler::new(TwoQanConfig::calibration_aware());
    let mut truncated_config = TwoQanConfig::calibration_aware();
    truncated_config.mapping_trials = 1;
    truncated_config.tabu.restarts = 1;
    truncated_config.annealing.restarts = 1;
    let truncated = TwoQanCompiler::new(truncated_config);

    let (mut warm_swaps, mut truncated_swaps, mut esp_delta) = (0.0, 0.0, Vec::new());
    for (s, snapshot) in snapshots.iter().enumerate() {
        for (w, circuit) in circuits.iter().enumerate() {
            let device = &snapshot.device;
            let warm = cold
                .warm_clone(&snapshot.seeds[w])
                .expect("2QAN has a warm path");
            let id = (s * circuits.len() + w) as u64;
            let (c, _) = run.tracer.span("control.cold", None, id, || {
                Compiler::compile(&cold, circuit, device)
            });
            let (t, _) = run.tracer.span("control.truncated", None, id, || {
                Compiler::compile(&truncated, circuit, device)
            });
            let (h, _) = run
                .tracer
                .span("control.warm", None, id, || warm.compile(circuit, device));
            match (c, t, h) {
                (Ok(c), Ok(t), Ok(h)) => {
                    warm_swaps += h.swap_count() as f64 - c.swap_count() as f64;
                    truncated_swaps += t.swap_count() as f64 - c.swap_count() as f64;
                    esp_delta.push(log10_esp(&h, device) - log10_esp(&c, device));
                }
                _ => run.fail(format!("control arm {id} failed to compile")),
            }
        }
    }
    let t = &run.tracer;
    let (cold_ms, truncated_ms, warm_ms) = (
        median(&t.durations_ms("control.cold")),
        median(&t.durations_ms("control.truncated")),
        median(&t.durations_ms("control.warm")),
    );
    run.extra.set("control.cold_ms", cold_ms, "ms");
    run.extra.set("control.truncated_ms", truncated_ms, "ms");
    run.extra.set("control.warm_ms", warm_ms, "ms");
    run.extra
        .set("control.warm_swaps_delta", Some(warm_swaps), "count");
    run.extra.set(
        "control.truncated_swaps_delta",
        Some(truncated_swaps),
        "count",
    );
    run.extra
        .set("control.warm_log10_esp_delta", mean(&esp_delta), "log10");
}
