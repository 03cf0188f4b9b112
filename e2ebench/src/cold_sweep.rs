//! `cold-sweep`: every request is a miss, so the passes do nearly all the
//! work.  Two families × three sizes on heterogeneous scaling devices, each
//! requested with both shipped configs: 12 requests per round, with the
//! cache cleared (untimed) before every request.  After each timed miss one
//! hit probe re-requests the same input, which measures the hit path at up
//! to 200 qubits without counting towards throughput or latency.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use twoqan::pipeline::CompiledOutput;
use twoqan_bench::{scaling_device, WorkloadKind};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_service::{bit_identical, CompileService, ServiceConfig};

use crate::check::{verify_artifact, Compilers};
use crate::probe::{solver_probes, QapCase};
use crate::run::{log10_esp, repeat_setup, serve, workload_circuit, Options, Run};

pub const FAMILIES: [WorkloadKind; 2] = [WorkloadKind::NnnHeisenberg, WorkloadKind::QaoaRegular(3)];
pub const SIZES: [usize; 3] = [20, 80, 200];
pub const CONFIGS: [&str; 2] = ["2QAN", "2QAN-noise"];
/// Random QAOA graphs per size, rotated round by round, so one graph does
/// not decide a run's numbers.  Odd, so traced and untraced rounds of a
/// traced run see every graph.
pub const QAOA_GRAPHS: usize = 3;
/// The calibrations and QAOA graphs are fixed, so every seed measures the
/// same problems; the seed draws coefficients, angles and the rotation.
const CALIBRATION_SEED: u64 = 7;

/// One of the 12 requests of a round.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub compiler: &'static str,
    /// Index into [`Inputs::circuits`].
    pub slot: usize,
    /// Index into [`Inputs::devices`].
    pub device: usize,
}

/// The generated inputs: per (family, size) slot the circuit variants
/// (one NNN-Heisenberg circuit, one circuit per QAOA graph), one
/// heterogeneous device per size, and the 12 requests of a round.
pub struct Inputs {
    pub labels: Vec<String>,
    pub requests: Vec<Request>,
    pub circuits: Vec<Vec<Circuit>>,
    pub devices: Vec<Device>,
    /// Which variant round 0 starts with.
    offset: usize,
}

impl Inputs {
    /// The circuit request `i` sends in round `round`, with its variant.
    pub fn circuit(&self, i: usize, round: usize) -> (&Circuit, usize) {
        let variants = &self.circuits[self.requests[i].slot];
        let variant = (round + self.offset) % variants.len();
        (&variants[variant], variant)
    }
}

pub fn inputs(seed: u64) -> Inputs {
    let mut out = Inputs {
        offset: (seed % QAOA_GRAPHS as u64) as usize,
        labels: Vec::new(),
        requests: Vec::new(),
        circuits: Vec::new(),
        devices: SIZES
            .iter()
            .map(|&n| scaling_device(n).with_heterogeneous_calibration(CALIBRATION_SEED))
            .collect(),
    };
    for kind in FAMILIES {
        for (device, &n) in SIZES.iter().enumerate() {
            let variants = match kind {
                WorkloadKind::QaoaRegular(_) => QAOA_GRAPHS,
                _ => 1,
            };
            out.circuits.push(
                (0..variants as u64)
                    .map(|graph| workload_circuit(kind, n, graph, seed))
                    .collect(),
            );
            for compiler in CONFIGS {
                out.labels
                    .push(format!("cold.{}.n{n}.{compiler}", kind.name()));
                out.requests.push(Request {
                    compiler,
                    slot: out.circuits.len() - 1,
                    device,
                });
            }
        }
    }
    out
}

/// The first artifact compiled for each (request, circuit variant): the
/// reference every later compile of it must be bit-identical to.
type References = HashMap<(usize, usize), Arc<CompiledOutput>>;

struct Setup {
    inputs: Inputs,
    service: CompileService,
    reference: References,
}

fn setup(seed: u64) -> Setup {
    let inputs = inputs(seed);
    let service = CompileService::new(ServiceConfig::default());
    // One compiled round lets lazy per-device set-up (distance matrices)
    // finish before timing.
    let mut reference = References::new();
    for (i, r) in inputs.requests.iter().enumerate() {
        let (circuit, variant) = inputs.circuit(i, 0);
        let output = service
            .request(r.compiler, circuit, &inputs.devices[r.device])
            .expect("cold-sweep inputs fit their devices")
            .output;
        reference.insert((i, variant), output);
    }
    service.clear();
    Setup {
        inputs,
        service,
        reference,
    }
}

pub fn run(opts: &Options) -> Run {
    // About 200 measured requests in a 15-second run: p90 leaves about 20
    // beyond it, p99 only 2.
    let mut run = Run::new(opts, 90.0);
    let Setup {
        inputs,
        service,
        mut reference,
    } = repeat_setup(opts, &mut run, || setup(opts.seed));
    run.inputs = inputs.labels.clone();
    let compilers = Compilers::new(&CONFIGS);

    // Every circuit variant is compiled at least once; traced runs
    // alternate untraced and traced rounds.
    let min_rounds = if opts.trace {
        2 * QAOA_GRAPHS
    } else {
        QAOA_GRAPHS
    };
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let stats_before = service.stats();
    let census_before = twoqan::pool::spawned_thread_census();
    let mut request_id = 0u64;
    let mut round = 0;
    // Whole rounds only, so every run measures the same request mix.
    while round < min_rounds || Instant::now() < deadline {
        run.tracer.on = opts.trace && round % 2 == 1;
        run.block = round as u32;
        for (i, input) in inputs.requests.iter().enumerate() {
            let (circuit, variant) = inputs.circuit(i, round);
            let device = &inputs.devices[input.device];
            service.clear();
            let op = run.tracer.open("op", None, request_id);
            let (served, ms) = serve(
                &mut run,
                &service,
                input.compiler,
                circuit,
                device,
                false,
                op,
                request_id,
            );
            if let Some(miss) = run.record(i, served, ms) {
                let first = reference
                    .entry((i, variant))
                    .or_insert_with(|| miss.output.clone());
                if miss.hit {
                    run.fail(format!("{}: hit after clear()", inputs.labels[i]));
                } else if !bit_identical(&miss.output, first) {
                    run.fail(format!(
                        "{}: not bit-identical to its first compile",
                        inputs.labels[i]
                    ));
                }
                run.key_probes(
                    compilers.get(input.compiler),
                    circuit,
                    device,
                    op,
                    request_id,
                );
                let (served, ms) = serve(
                    &mut run,
                    &service,
                    input.compiler,
                    circuit,
                    device,
                    false,
                    op,
                    request_id,
                );
                if let Some(hit) = run.record(i, served, ms) {
                    run.samples.last_mut().expect("just recorded").probe = true;
                    if !hit.hit || !Arc::ptr_eq(&hit.output, &miss.output) {
                        run.fail(format!(
                            "{}: probe did not hit the stored artifact",
                            inputs.labels[i]
                        ));
                    }
                }
            }
            run.tracer.close(op);
            request_id += 1;
        }
        round += 1;
    }
    run.threads_spawned = twoqan::pool::spawned_thread_census() - census_before;
    let stats_after = service.stats();
    run.set_stats(&stats_before, &stats_after);
    run.tracer.on = opts.trace;

    // Checks and quality over every distinct artifact.
    let mut keys: Vec<(usize, usize)> = reference.keys().copied().collect();
    keys.sort_unstable();
    for &(i, variant) in &keys {
        let r = &inputs.requests[i];
        let (circuit, device) = (&inputs.circuits[r.slot][variant], &inputs.devices[r.device]);
        let output = &reference[&(i, variant)];
        if let Err(e) = verify_artifact(compilers.get(r.compiler), circuit, output, device) {
            run.fail(format!("{} (variant {variant}): {e}", inputs.labels[i]));
        }
        run.quality.add(output, Some(device));
    }
    for (label, ms) in run.input_medians() {
        run.extra.set(format!("{label}_ms"), Some(ms), "ms");
    }
    // Requests come in (2QAN, 2QAN-noise) pairs of one circuit slot.
    let pairs: Vec<((usize, usize), (usize, usize))> = keys
        .iter()
        .filter(|(i, _)| i % 2 == 0)
        .map(|&(i, v)| ((i, v), (i + 1, v)))
        .collect();
    let wins = pairs
        .iter()
        .filter(|(hop, noise)| {
            let device = &inputs.devices[inputs.requests[hop.0].device];
            log10_esp(&reference[noise], device) > log10_esp(&reference[hop], device)
        })
        .count();
    run.extra.set(
        "core.weighted_win_share",
        Some(wins as f64 / pairs.len() as f64),
        "share",
    );

    if opts.trace {
        let cases: Vec<QapCase> = pairs
            .iter()
            .flat_map(|(hop, noise)| {
                let r = &inputs.requests[hop.0];
                let (circuit, device) =
                    (&inputs.circuits[r.slot][hop.1], &inputs.devices[r.device]);
                [
                    QapCase::new(circuit, device, false, &reference[hop].initial_placement),
                    QapCase::new(circuit, device, true, &reference[noise].initial_placement),
                ]
            })
            .collect();
        solver_probes(&mut run, &cases);
    }
    run
}
