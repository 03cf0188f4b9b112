//! What every workload records, and the metrics computed from it.

use std::collections::BTreeMap;
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan::pipeline::{CompiledOutput, Compiler, DegradationRung};
use twoqan_bench::{Workload, WorkloadKind};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::QaoaProblem;
use twoqan_service::{
    cache_key, stable_key, CompileService, ServiceError, ServiceResponse, StatsSnapshot,
};

use crate::stats::{geomean, mean, median, percentile, weighted_median, Metrics};
use crate::trace::Tracer;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: alternate traced and untraced blocks and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// How many times set-up is repeated (the median is reported).
    pub setup_repeats: usize,
}

/// How the service answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the cache (including the recompile fast path).
    Hit,
    /// Compiled from scratch.
    Miss,
    /// Compiled warm from a predecessor placement.
    Warm,
}

/// One timed request, kept compact: a run holds tens of thousands.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into [`Run::inputs`].
    pub input: u32,
    /// The block of the measured phase it was taken in (see [`Run::block`]).
    pub block: u32,
    pub outcome: Outcome,
    /// Taken in a traced block.
    pub traced: bool,
    /// A hit probe that re-requests a just-compiled input: counted in the
    /// hit metrics only, not in throughput or latency.
    pub probe: bool,
    /// Wall time measured by the benchmark around the call.
    pub wall_ms: f64,
    /// Wall time not spent compiling or waiting for another caller's
    /// compile (`compile_ms`, `coalesced_wait_ms`): hashing, cache probes,
    /// locking, bookkeeping.
    pub service_self_ms: f64,
    pub queue_wait_ms: f64,
}

/// Pass accounting summed over every freshly compiled artifact.
#[derive(Debug, Default, Clone)]
pub struct PassTotals {
    /// Per pass name: total wall ms and the number of artifacts that ran it.
    pub by_pass: BTreeMap<&'static str, (f64, usize)>,
    /// `compile_ms` minus the sum of the pass times, summed.
    pub other_ms: f64,
    pub artifacts: usize,
    pub pipeline_runs: usize,
    pub full_rung: usize,
}

impl PassTotals {
    fn add(&mut self, response: &ServiceResponse) {
        let report = &response.output.report;
        let mut passes_ms = 0.0;
        for pass in &report.passes {
            let entry = self.by_pass.entry(pass.name).or_default();
            entry.0 += pass.wall_ms;
            entry.1 += 1;
            passes_ms += pass.wall_ms;
        }
        self.other_ms += response.compile_ms - passes_ms;
        self.artifacts += 1;
        self.pipeline_runs += report.trials;
        self.full_rung += usize::from(report.rung == DegradationRung::Full);
    }
}

/// Output quality summed over a workload's distinct artifacts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Quality {
    pub artifacts: usize,
    pub swaps: usize,
    pub hw_2q_gates: usize,
    pub hw_2q_depth: usize,
    /// log10 ESP of each artifact compiled for a heterogeneous device.
    pub log10_esp: Vec<f64>,
}

impl Quality {
    /// Adds one artifact; `esp_device` is the device to estimate its
    /// success probability on (heterogeneous targets only).
    pub fn add(&mut self, output: &CompiledOutput, esp_device: Option<&Device>) {
        self.artifacts += 1;
        self.swaps += output.metrics.swap_count;
        self.hw_2q_gates += output.metrics.hardware_two_qubit_count;
        self.hw_2q_depth += output.metrics.hardware_two_qubit_depth;
        if let Some(device) = esp_device {
            self.log10_esp.push(log10_esp(output, device));
        }
    }
}

/// One circuit of a benchmark family.  The structure is fixed: the
/// interaction graph of NNN models, and for QAOA the random regular graph
/// `graph` of the fixed pool.  The seed draws what a caller varies between
/// compiles of one problem: the Hamiltonian coefficients, and the QAOA
/// angles (as a variational loop does).
pub fn workload_circuit(kind: WorkloadKind, n: usize, graph: u64, seed: u64) -> Circuit {
    match kind {
        WorkloadKind::QaoaRegular(degree) => {
            let problem = QaoaProblem::random_regular(n, degree, 1000 * n as u64 + graph);
            let (gamma, beta) = QaoaProblem::optimal_p1_angles_regular3();
            let mut rng = StdRng::seed_from_u64(seed);
            let scale = |rng: &mut StdRng| rng.gen_range(0.5..1.5);
            problem.circuit(&[(gamma * scale(&mut rng), beta * scale(&mut rng))], false)
        }
        _ => Workload::generate(kind, n, (seed % 1_000_000) as usize).circuit,
    }
}

pub fn log10_esp(output: &CompiledOutput, device: &Device) -> f64 {
    twoqan_bench::noise::esp(&output.hardware_circuit, device).log10()
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// Labels of the distinct inputs.
    pub inputs: Vec<String>,
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// Pass accounting of the measured requests that compiled.
    pub passes: PassTotals,
    /// Timed `invalidate_device` calls by block; they count against
    /// throughput.
    pub invalidate_ms: Vec<(u32, f64)>,
    /// The current block of the measured phase: a round, a drift cycle, a
    /// fixed number of requests.  Throughput is the median over blocks, so
    /// a short stall of the host moves it little.
    pub block: u32,
    /// Requests attempted (timed requests and hit probes).
    pub attempted: u64,
    /// One line per request that errored or whose artifact failed a check.
    pub failures: Vec<String>,
    pub quality: Quality,
    /// Service counters over the measured phase.
    pub stats: StatsSnapshot,
    /// Compile-work threads spawned during the measured phase.
    pub threads_spawned: usize,
    pub tracer: Tracer,
    /// Workload-specific numbers (printed, and written with the trace).
    pub extra: Metrics,
    /// Per-layer numbers only a traced run measures.
    pub layer: Metrics,
    /// The percentile `latency_tail_ms` reports: fixed per workload, the
    /// highest of p99 and p90 that leaves at least ten samples beyond it
    /// in a run of the benchmark's length.
    pub tail_percentile: f64,
}

impl Run {
    pub fn new(opts: &Options, tail_percentile: f64) -> Self {
        Self {
            inputs: Vec::new(),
            setup_s: Vec::new(),
            // Reserved up front so that growth never copies the samples,
            // which would make peak memory jump with the request count.
            samples: Vec::with_capacity(1 << 18),
            passes: PassTotals::default(),
            invalidate_ms: Vec::new(),
            block: 0,
            attempted: 0,
            failures: Vec::new(),
            quality: Quality::default(),
            stats: StatsSnapshot::default(),
            threads_spawned: 0,
            tracer: Tracer::new(opts.trace),
            extra: Metrics::default(),
            layer: Metrics::default(),
            tail_percentile,
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records a timed request; an error is a failure and yields `None`.
    pub fn record(
        &mut self,
        input: usize,
        served: Result<ServiceResponse, ServiceError>,
        wall_ms: f64,
    ) -> Option<ServiceResponse> {
        self.attempted += 1;
        match served {
            Ok(response) => {
                let outcome = if response.hit {
                    Outcome::Hit
                } else if response.warm {
                    Outcome::Warm
                } else {
                    Outcome::Miss
                };
                if outcome != Outcome::Hit {
                    self.passes.add(&response);
                }
                self.samples.push(Sample {
                    input: input as u32,
                    block: self.block,
                    outcome,
                    traced: self.tracer.on,
                    probe: false,
                    wall_ms,
                    service_self_ms: wall_ms - response.compile_ms - response.coalesced_wait_ms,
                    queue_wait_ms: response.queue_wait_ms,
                });
                Some(response)
            }
            Err(e) => {
                self.fail(format!("{}: {e}", self.inputs[input]));
                None
            }
        }
    }

    /// Times the key derivations the service performs for a request, as
    /// separate calls (traced blocks only).
    pub fn key_probes(
        &mut self,
        compiler: &dyn Compiler,
        circuit: &Circuit,
        device: &Device,
        parent: Option<usize>,
        request: u64,
    ) {
        if self.tracer.on {
            self.tracer.span("service.cache_key", parent, request, || {
                black_box(cache_key(compiler, circuit, device))
            });
            self.tracer.span("service.stable_key", parent, request, || {
                black_box(stable_key(compiler, circuit, device))
            });
        }
    }

    /// Counter deltas over the measured phase.
    pub fn set_stats(&mut self, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.stats = StatsSnapshot {
            requests: after.requests - before.requests,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
            warm_hits: after.warm_hits - before.warm_hits,
            invalidations: after.invalidations - before.invalidations,
            invalidated_entries: after.invalidated_entries - before.invalidated_entries,
            errors: after.errors - before.errors,
            ..StatsSnapshot::default()
        };
    }

    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| !s.probe)
    }

    /// Wall times grouped by input, in input order.
    fn by_input<'a>(samples: impl Iterator<Item = &'a Sample>) -> BTreeMap<u32, Vec<f64>> {
        let mut by_input: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in samples {
            by_input.entry(s.input).or_default().push(s.wall_ms);
        }
        by_input
    }

    /// Geometric mean over distinct inputs of each input's typical latency,
    /// itself a geometric mean: an input whose requests are part hits and
    /// part misses then moves smoothly with its hit share, where its median
    /// would jump between the two.
    fn latency_geomean<'a>(samples: impl Iterator<Item = &'a Sample>) -> Option<f64> {
        let typical: Vec<f64> = Self::by_input(samples)
            .values()
            .filter_map(|v| geomean(v))
            .collect();
        geomean(&typical)
    }

    /// The request-weighted median of the per-input median latencies: the
    /// request p50 whenever one input holds it, and still stable when a mix
    /// of equally frequent inputs puts the request p50 between two inputs
    /// (`cold-sweep`), where the two inputs' medians are averaged.
    fn p50<'a>(samples: impl Iterator<Item = &'a Sample>) -> Option<f64> {
        let groups: Vec<(f64, usize)> = Self::by_input(samples)
            .values()
            .filter_map(|v| median(v).map(|m| (m, v.len())))
            .collect();
        weighted_median(&groups)
    }

    /// Per-input median latency, by input label.
    pub fn input_medians(&self) -> Vec<(String, f64)> {
        Self::by_input(self.measured())
            .into_iter()
            .filter_map(|(i, v)| median(&v).map(|m| (self.inputs[i as usize].clone(), m)))
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The metrics a user of the service sees.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        let walls: Vec<f64> = self.measured().map(|s| s.wall_ms).collect();
        // Per block: (requests, busy ms).
        let mut blocks: BTreeMap<u32, (usize, f64)> = BTreeMap::new();
        for s in self.measured() {
            let block = blocks.entry(s.block).or_default();
            block.0 += 1;
            block.1 += s.wall_ms;
        }
        for &(block, ms) in &self.invalidate_ms {
            blocks.entry(block).or_default().1 += ms;
        }
        let block_rps: Vec<f64> = blocks
            .values()
            .filter(|b| b.0 > 0 && b.1 > 0.0)
            .map(|&(requests, busy_ms)| requests as f64 / (busy_ms / 1e3))
            .collect();
        let hits = self.samples.iter().filter(|s| s.outcome == Outcome::Hit);
        let compiled = self.measured().filter(|s| s.outcome != Outcome::Hit);

        m.set("setup_s", median(&self.setup_s), "s");
        m.set("throughput_rps", median(&block_rps), "1/s");
        m.set("latency_p50_ms", Self::p50(self.measured()), "ms");
        m.set(
            "latency_tail_ms",
            percentile(&walls, self.tail_percentile),
            "ms",
        );
        m.set(
            "latency_geomean_ms",
            Self::latency_geomean(self.measured()),
            "ms",
        );
        m.set("hit_p50_ms", Self::p50(hits), "ms");
        m.set("miss_p50_ms", Self::p50(compiled), "ms");
        m.set("swaps_total", Some(self.quality.swaps as f64), "count");
        m.set(
            "hw_2q_gates_total",
            Some(self.quality.hw_2q_gates as f64),
            "count",
        );
        m.set(
            "hw_2q_depth_total",
            Some(self.quality.hw_2q_depth as f64),
            "count",
        );
        m.set(
            "neg_log10_esp_mean",
            mean(&self.quality.log10_esp).map(|v| -v),
            "log10",
        );
        m.set("success_rate", Some(1.0 - self.error_rate()), "share");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    /// Requests that errored or whose artifact failed a check, over requests
    /// attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// End-to-end companions that do not fit the shared metric list: the
    /// tail's percentile and sample count, the error rate, the warm p50.
    pub fn end_to_end_notes(&self) -> Metrics {
        let mut m = Metrics::default();
        let count = self.measured().count();
        let tail = self.tail_percentile;
        m.set("latency_tail.percentile", Some(tail), "pct");
        m.set("latency_tail.samples", Some(count as f64), "count");
        m.set(
            "latency_tail.beyond",
            Some(count.saturating_sub((tail / 100.0 * count as f64).ceil() as usize) as f64),
            "count",
        );
        m.set("error_rate", Some(self.error_rate()), "share");
        m.set(
            "quality.artifacts",
            Some(self.quality.artifacts as f64),
            "count",
        );
        let warm = self.samples.iter().filter(|s| s.outcome == Outcome::Warm);
        if let Some(p50) = Self::p50(warm) {
            m.set("warm_p50_ms", Some(p50), "ms");
        }
        m
    }

    /// The per-layer metrics every workload reports in a traced run.
    pub fn per_layer(&self) -> Metrics {
        let mut m = Metrics::default();
        let t = &self.tracer;
        m.set(
            "service.hash_ms",
            median(&t.durations_ms("service.cache_key")),
            "ms",
        );
        m.set(
            "service.stable_hash_ms",
            median(&t.durations_ms("service.stable_key")),
            "ms",
        );
        let self_of = |compiled: bool| -> Vec<f64> {
            self.samples
                .iter()
                .filter(|s| (s.outcome != Outcome::Hit) == compiled)
                .map(|s| s.service_self_ms)
                .collect()
        };
        m.set("service.self_ms.hit", median(&self_of(false)), "ms");
        m.set("service.self_ms.miss", median(&self_of(true)), "ms");
        let compiled: Vec<&Sample> = self
            .measured()
            .filter(|s| s.outcome != Outcome::Hit)
            .collect();
        let queue: Vec<f64> = compiled.iter().map(|s| s.queue_wait_ms).collect();
        m.set("service.queue_wait_ms", median(&queue), "ms");
        m.set("service.hit_rate", Some(self.stats.hit_rate()), "share");
        m.set(
            "service.insertions",
            Some(self.stats.insertions as f64),
            "count",
        );
        m.set(
            "service.evictions",
            Some(self.stats.evictions as f64),
            "count",
        );
        let warm = compiled
            .iter()
            .filter(|s| s.outcome == Outcome::Warm)
            .count();
        m.set(
            "service.warm_share",
            Some(warm as f64 / compiled.len().max(1) as f64),
            "share",
        );
        m.set(
            "service.invalidated_entries",
            Some(self.stats.invalidated_entries as f64),
            "count",
        );

        // Mean pass times per fresh artifact that ran the pass.
        let p = &self.passes;
        for pass in [
            "unify",
            "qap-mapping",
            "permutation-routing",
            "alap-schedule",
            "decompose",
        ] {
            let (total, count) = p.by_pass.get(pass).copied().unwrap_or((0.0, 0));
            m.set(
                format!("core.{pass}_ms"),
                Some(total / count.max(1) as f64),
                "ms",
            );
        }
        let per_artifact = |v: f64| (p.artifacts > 0).then(|| v / p.artifacts as f64);
        m.set("core.other_ms", per_artifact(p.other_ms), "ms");
        m.set(
            "core.pipeline_runs",
            per_artifact(p.pipeline_runs as f64),
            "count",
        );
        m.set(
            "core.full_rung_share",
            per_artifact(p.full_rung as f64),
            "share",
        );

        // Shares of measured request wall time nobody attributes: compile
        // time outside the passes, plus service self time.
        let wall: f64 = self.measured().map(|s| s.wall_ms).sum();
        let service_self: f64 = self.measured().map(|s| s.service_self_ms).sum();
        m.set("core.other_share", Some(p.other_ms / wall), "share");
        m.set("service.self_share", Some(service_self / wall), "share");
        m.set(
            "unattributed_share",
            Some((p.other_ms + service_self) / wall),
            "share",
        );

        m.set(
            "pool.threads_spawned",
            Some(self.threads_spawned as f64),
            "count",
        );
        let traced = Self::latency_geomean(self.measured().filter(|s| s.traced));
        let untraced = Self::latency_geomean(self.measured().filter(|s| !s.traced));
        m.set(
            "trace.overhead_ratio",
            traced.zip(untraced).map(|(a, b)| a / b),
            "ratio",
        );
        m.extend(self.layer.clone());
        m
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Times `f` once per set-up repetition, keeping the last result.
pub fn repeat_setup<T>(opts: &Options, run: &mut Run, mut f: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..opts.setup_repeats.max(1) {
        let start = std::time::Instant::now();
        let built = black_box(f());
        run.setup_s.push(start.elapsed().as_secs_f64());
        // Drop the previous set-up (its service pool joins its threads)
        // outside the timed region.
        last = Some(built);
    }
    last.expect("at least one set-up repetition")
}

/// Sends one request (or recompile) and times it.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    run: &mut Run,
    service: &CompileService,
    compiler: &str,
    circuit: &Circuit,
    device: &Device,
    recompile: bool,
    parent: Option<usize>,
    request: u64,
) -> (Result<ServiceResponse, ServiceError>, f64) {
    if recompile {
        run.tracer.span("service.recompile", parent, request, || {
            service.recompile(compiler, circuit, device)
        })
    } else {
        run.tracer.span("service.request", parent, request, || {
            service.request(compiler, circuit, device)
        })
    }
}
