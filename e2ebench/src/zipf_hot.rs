//! `zipf-hot`: zipf(1.1) traffic over a 168-combo population (all seven
//! registered compilers × three devices × two models × four sizes) against
//! a 64-entry cache, so hits, inserts and LRU evictions all recur in steady
//! state.  A hit is key hashing plus a shard probe, so the service layer
//! dominates the hit path; misses are small circuits through all seven
//! compilers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use twoqan::pipeline::CompiledOutput;
use twoqan::CompilePool;
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step};
use twoqan_service::{bit_identical, CompileService, ServiceConfig};

use crate::check::{verify_artifact, Compilers};
use crate::probe::{solver_probes, QapCase};
use crate::run::{repeat_setup, serve, Options, Run};

pub const SIZES: [usize; 4] = [8, 10, 12, 16];
pub const ZIPF_S: f64 = 1.1;
pub const CAPACITY: usize = 64;
/// Untimed requests that bring the cache to steady state during set-up.
pub const WARM_PREFIX: usize = 2000;
/// Requests per block (throughput is a median over blocks; a traced run
/// alternates untraced and traced blocks).
const BLOCK: usize = 256;
/// Index of the heterogeneous device (the one ESP is reported on).
const HETEROGENEOUS: usize = 2;
/// The population (circuits, calibration) and its popularity order are
/// fixed: cache keys, and so the cache shard each combo lands in, then do
/// not change with the seed, and every seed measures the same hot set.  The
/// seed draws the request stream.
const POPULARITY_SEED: u64 = 42;
const CALIBRATION_SEED: u64 = 7;
const MODEL_SEED: u64 = 1;

/// One member of the population.
#[derive(Debug, Clone, Copy)]
pub struct Input {
    pub compiler: &'static str,
    /// Index into [`Inputs::circuits`].
    pub circuit: usize,
    /// Index into [`Inputs::devices`].
    pub device: usize,
}

pub fn compiler_names() -> Vec<&'static str> {
    let mut names = CompilerRegistry::NAMES.to_vec();
    names.push("2QAN-noise");
    names
}

/// The population, in popularity order, with the stream generator.
pub struct Inputs {
    pub labels: Vec<String>,
    pub requests: Vec<Input>,
    pub circuits: Vec<Circuit>,
    pub devices: Vec<Device>,
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Inputs {
    /// The next request of the zipf stream (an index into `requests`).
    pub fn draw(&mut self) -> usize {
        let u = self.rng.gen::<f64>();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

pub fn inputs(seed: u64) -> Inputs {
    let devices = vec![
        Device::aspen(),
        Device::montreal(),
        Device::montreal().with_heterogeneous_calibration(CALIBRATION_SEED),
    ];
    let mut circuits = Vec::new();
    let mut models = Vec::new();
    for n in SIZES {
        circuits.push(trotter_step(&nnn_ising(n, MODEL_SEED), 1.0));
        models.push(format!("NNN-Ising.n{n}"));
        circuits.push(trotter_step(&nnn_heisenberg(n, MODEL_SEED + 1), 1.0));
        models.push(format!("NNN-Heisenberg.n{n}"));
    }
    let device_names = ["Aspen", "Montreal", "Montreal-het"];
    let mut combos = Vec::new();
    for device in 0..devices.len() {
        for circuit in 0..circuits.len() {
            for compiler in compiler_names() {
                combos.push(Input {
                    compiler,
                    circuit,
                    device,
                });
            }
        }
    }
    combos.shuffle(&mut StdRng::seed_from_u64(POPULARITY_SEED));
    let mut cdf = Vec::with_capacity(combos.len());
    let mut total = 0.0;
    for rank in 0..combos.len() {
        total += ((rank + 1) as f64).powf(-ZIPF_S);
        cdf.push(total);
    }
    cdf.iter_mut().for_each(|c| *c /= total);
    Inputs {
        labels: combos
            .iter()
            .map(|c| {
                format!(
                    "{}.{}.{}",
                    device_names[c.device], models[c.circuit], c.compiler
                )
            })
            .collect(),
        requests: combos,
        circuits,
        devices,
        cdf,
        rng: StdRng::seed_from_u64(seed),
    }
}

struct Setup {
    inputs: Inputs,
    service: CompileService,
    /// The set-up compile of every combo.
    first: Vec<Arc<CompiledOutput>>,
}

fn setup(seed: u64) -> Setup {
    let mut inputs = inputs(seed);
    let service = CompileService::new(ServiceConfig {
        capacity: CAPACITY,
        ..ServiceConfig::default()
    });
    let request = |service: &CompileService, inputs: &Inputs, i: usize| {
        let r = &inputs.requests[i];
        service
            .request(
                r.compiler,
                &inputs.circuits[r.circuit],
                &inputs.devices[r.device],
            )
            .expect("population workloads fit their devices")
    };
    let first = (0..inputs.requests.len())
        .map(|i| request(&service, &inputs, i).output)
        .collect();
    for _ in 0..WARM_PREFIX {
        let i = inputs.draw();
        request(&service, &inputs, i);
    }
    Setup {
        inputs,
        service,
        first,
    }
}

pub fn run(opts: &Options) -> Run {
    // Tens of thousands of requests per run: p99 leaves hundreds beyond.
    let mut run = Run::new(opts, 99.0);
    let Setup {
        mut inputs,
        service,
        first,
    } = repeat_setup(opts, &mut run, || setup(opts.seed));
    run.inputs = inputs.labels.clone();
    let compilers = Compilers::new(&compiler_names());

    // An independent cold compile of every combo, outside the service and
    // before the measured phase, is the reference every artifact served
    // must be bit-identical to.
    let cold: Vec<Option<CompiledOutput>> = {
        let pool = CompilePool::new(twoqan::pool::max_useful_workers());
        let _installed = pool.install();
        inputs
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                compilers
                    .get(r.compiler)
                    .compile(&inputs.circuits[r.circuit], &inputs.devices[r.device])
                    .map_err(|e| {
                        run.fail(format!("{}: cold compile failed: {e}", inputs.labels[i]))
                    })
                    .ok()
            })
            .collect()
    };
    // The last artifact of each combo already compared with its cold
    // compile: a hit returning the same `Arc` needs no second comparison.
    let mut checked: HashMap<usize, Arc<CompiledOutput>> = HashMap::new();

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let stats_before = service.stats();
    let census_before = twoqan::pool::spawned_thread_census();
    let mut request_id = 0u64;
    while request_id < (2 * BLOCK) as u64 || Instant::now() < deadline {
        run.block = (request_id as usize / BLOCK) as u32;
        run.tracer.on = opts.trace && run.block % 2 == 1;
        let i = inputs.draw();
        let input = inputs.requests[i];
        let op = run.tracer.open("op", None, request_id);
        let (circuit, device) = (
            &inputs.circuits[input.circuit],
            &inputs.devices[input.device],
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
        if let Some(response) = run.record(i, served, ms) {
            run.key_probes(
                compilers.get(input.compiler),
                circuit,
                device,
                op,
                request_id,
            );
            let seen = checked
                .get(&i)
                .is_some_and(|a| Arc::ptr_eq(a, &response.output));
            if !seen {
                if let Some(reference) = &cold[i] {
                    if !bit_identical(&response.output, reference) {
                        run.fail(format!(
                            "{}: {} not bit-identical to a cold compile",
                            inputs.labels[i],
                            if response.hit { "hit" } else { "miss" }
                        ));
                    }
                }
                checked.insert(i, response.output);
            }
        }
        run.tracer.close(op);
        request_id += 1;
    }
    run.threads_spawned = twoqan::pool::spawned_thread_census() - census_before;
    let stats_after = service.stats();
    run.set_stats(&stats_before, &stats_after);
    run.tracer.on = opts.trace;

    // Every combo: its set-up artifact equals a cold compile, which passes
    // the structural (and, up to 12 qubits, equivalence) checks.
    for (i, input) in inputs.requests.iter().enumerate() {
        let (circuit, device) = (
            &inputs.circuits[input.circuit],
            &inputs.devices[input.device],
        );
        let Some(reference) = &cold[i] else {
            continue;
        };
        let mut failure = None;
        if !bit_identical(&first[i], reference) {
            failure = Some("set-up artifact not bit-identical to a cold compile".to_string());
        } else if let Err(e) =
            verify_artifact(compilers.get(input.compiler), circuit, reference, device)
        {
            failure = Some(e);
        }
        if let Some(e) = failure {
            run.fail(format!("{}: {e}", inputs.labels[i]));
        }
        let esp_device = (input.device == HETEROGENEOUS).then_some(device);
        run.quality.add(&first[i], esp_device);
    }

    if opts.trace {
        // One hop-count QAP per (circuit, device) seeded from the 2QAN
        // artifact, and one weighted QAP per circuit on the heterogeneous
        // device seeded from the 2QAN-noise artifact.
        let find = |compiler: &str, circuit: usize, device: usize| {
            inputs
                .requests
                .iter()
                .position(|r| r.compiler == compiler && r.circuit == circuit && r.device == device)
                .expect("every combo is in the population")
        };
        let mut cases = Vec::new();
        for device in 0..inputs.devices.len() {
            for circuit in 0..inputs.circuits.len() {
                let (c, d) = (&inputs.circuits[circuit], &inputs.devices[device]);
                let hop = find("2QAN", circuit, device);
                cases.push(QapCase::new(c, d, false, &first[hop].initial_placement));
                if device == HETEROGENEOUS {
                    let noise = find("2QAN-noise", circuit, device);
                    cases.push(QapCase::new(c, d, true, &first[noise].initial_placement));
                }
            }
        }
        solver_probes(&mut run, &cases);
    }
    run
}
