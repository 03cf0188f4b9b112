//! Emits `BENCH_service.json`: the compile-as-a-service throughput/latency
//! baseline.
//!
//! The bench builds a request *population* — every (device, workload,
//! compiler) combination over the registered devices — and drives thousands
//! of requests through one [`CompileService`], sampling the population from
//! a zipf(s) popularity distribution so a hot head of repeated requests hits
//! the content-addressed cache while the cold tail keeps compiling.  It
//! records per-request wall-clock split by hit/miss (p50/p99), overall
//! throughput, and the service's own counters, then verifies that every
//! combination served from the cache is bit-identical to an independent cold
//! compile.  `--clients N` adds the concurrency section: a contended phase
//! (N threads of overlapping zipf streams against one service) and a
//! barrier-started same-key storm that must coalesce onto exactly one
//! compile.  Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_service -- \
//!     [--requests N] [--zipf S] [--seed SEED] [--clients N] [--out PATH]
//! cargo run --release -p twoqan-bench --bin bench_service -- --smoke \
//!     [--clients N] [--out PATH]
//! cargo run --release -p twoqan-bench --bin bench_service -- --check PATH \
//!     [--tolerance PCT]
//! cargo run --release -p twoqan-bench --bin bench_service -- --keys [--smoke]
//! ```
//!
//! Defaults: 2000 requests, zipf exponent 1.1, seed 42, output to
//! `BENCH_service.json` in the current directory.  `--smoke` is the CI mode:
//! a small population and 120 requests, exiting non-zero if the cache never
//! hits, a hit is not bit-identical, or (with `--clients`) the same-key
//! storm performs more than one compile.  `--check PATH` re-measures the
//! cold-compile (miss) p50 over the population and fails if it regressed
//! more than `--tolerance` percent (default 50) against the committed
//! baseline at PATH; when the baseline carries a `"contended"` entry it also
//! re-measures the contended p99 against the same tolerance.  `--keys`
//! prints the host block and the median cost of the two key derivations
//! (`cache_key`, `stable_key`) in µs on QAOA-REG-3 at n = 20/80/200 with
//! the `2QAN-noise` config on the heterogeneous `scaling_device(n)`; it
//! has no gate (`--smoke` takes fewer samples).  See `BENCHMARKS.md` for
//! the output schema.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;
use twoqan_baselines::CompilerRegistry;
use twoqan_bench::harness::{any, emit, gate, host_json, median_ms, percentile, Args, Baseline};
use twoqan_bench::{scaling_device, Workload, WorkloadKind};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step};
use twoqan_service::{
    bit_identical, cache_key, stable_key, CompileService, ServiceConfig, StatsSnapshot,
};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One member of the request population.
struct Combo {
    compiler: &'static str,
    device_idx: usize,
    circuit_idx: usize,
}

/// The fixed request population: every registered compiler on every
/// (device, workload) pair.  `smoke` shrinks it to one device and two
/// workloads so the CI run stays fast.
fn build_population(smoke: bool) -> (Vec<Device>, Vec<Circuit>, Vec<Combo>) {
    // One small uniform device, one mid-size uniform device, and one with a
    // heterogeneous calibration snapshot so the noise-aware portfolio
    // (`2QAN-noise`) compiles something the uniform path would not.
    let devices = if smoke {
        vec![Device::aspen()]
    } else {
        vec![
            Device::aspen(),
            Device::montreal(),
            Device::montreal().with_heterogeneous_calibration(7),
        ]
    };
    let sizes: &[usize] = if smoke { &[6, 8] } else { &[8, 10, 12, 16] };
    let circuits: Vec<Circuit> = sizes
        .iter()
        .flat_map(|&n| {
            [
                trotter_step(&nnn_ising(n, 1), 1.0),
                trotter_step(&nnn_heisenberg(n, 2), 1.0),
            ]
        })
        .collect();
    let mut names: Vec<&'static str> = CompilerRegistry::NAMES.to_vec();
    names.push("2QAN-noise");
    let mut combos = Vec::new();
    for device_idx in 0..devices.len() {
        for circuit_idx in 0..circuits.len() {
            for &compiler in &names {
                combos.push(Combo {
                    compiler,
                    device_idx,
                    circuit_idx,
                });
            }
        }
    }
    (devices, circuits, combos)
}

/// Cumulative zipf(s) distribution over `n` ranks: rank `i` has weight
/// `1 / (i + 1)^s`.  Sampling is a uniform draw + binary search.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += ((i + 1) as f64).powf(-s);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

fn sample_rank(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u = rng.gen::<f64>();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

struct RunNumbers {
    requests: usize,
    population: usize,
    elapsed_s: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    verified: usize,
    /// Snapshot taken *before* the bit-identity verification pass, so the
    /// reported counters line up with the measured run (`stats.hits`
    /// equals `hit.count`) instead of absorbing the verifier's re-requests.
    stats: StatsSnapshot,
}

/// Drives `requests` zipf-sampled requests through one service, then
/// verifies every combination that was served from the cache against an
/// independent cold compile.
fn run_service(requests: usize, zipf_s: f64, seed: u64, smoke: bool) -> RunNumbers {
    let (devices, circuits, mut combos) = build_population(smoke);
    let mut rng = StdRng::seed_from_u64(seed);
    // Shuffle so the popular zipf head is not all one device or compiler.
    combos.shuffle(&mut rng);
    let cdf = zipf_cdf(combos.len(), zipf_s);

    let service = CompileService::new(ServiceConfig::default());
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut touched = vec![false; combos.len()];
    let run_start = Instant::now();
    for _ in 0..requests {
        let rank = sample_rank(&cdf, &mut rng);
        let combo = &combos[rank];
        touched[rank] = true;
        let response = service
            .request(
                combo.compiler,
                &circuits[combo.circuit_idx],
                &devices[combo.device_idx],
            )
            .expect("population workloads fit their devices");
        if response.hit {
            hit_ms.push(response.wall_ms);
        } else {
            miss_ms.push(response.wall_ms);
        }
    }
    let elapsed_s = run_start.elapsed().as_secs_f64();
    let stats = service.stats();

    // Every combination that entered the cache must serve an artifact
    // bit-identical to a cold compile outside the service.  This pass runs
    // after the stats snapshot: its re-requests are bookkeeping, not load.
    let mut verified = 0usize;
    for (rank, combo) in combos.iter().enumerate() {
        if !touched[rank] {
            continue;
        }
        let (circuit, device) = (&circuits[combo.circuit_idx], &devices[combo.device_idx]);
        let response = service
            .request(combo.compiler, circuit, device)
            .expect("verification re-request");
        if !response.hit {
            continue; // Evicted or uncacheable; nothing cached to verify.
        }
        let cold = CompilerRegistry::by_name(combo.compiler)
            .expect("population names are registered")
            .compile(circuit, device)
            .expect("cold verification compile");
        assert!(
            bit_identical(&response.output, &cold),
            "{} on {} diverged from a cold compile",
            combo.compiler,
            device.name()
        );
        verified += 1;
    }

    RunNumbers {
        requests,
        population: combos.len(),
        elapsed_s,
        hit_ms,
        miss_ms,
        verified,
        stats,
    }
}

// ---------------------------------------------------------------------------
// `--clients N`: the concurrency section.
// ---------------------------------------------------------------------------

struct ClientNumbers {
    clients: usize,
    requests: usize,
    elapsed_s: f64,
    single_requests: usize,
    single_elapsed_s: f64,
    contended_ms: Vec<f64>,
    per_client_rps: Vec<f64>,
    coalesced: u64,
    rejected: u64,
    storm_requests: usize,
    storm_compiles: u64,
    storm_coalesced: u64,
    host_cores: usize,
}

/// Drives one client's zipf stream against a shared service, returning its
/// per-request wall times and the client's own elapsed seconds.
fn drive_zipf_stream(
    service: &CompileService,
    devices: &[Device],
    circuits: &[Circuit],
    combos: &[Combo],
    cdf: &[f64],
    requests: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wall_ms = Vec::with_capacity(requests);
    let start = Instant::now();
    for _ in 0..requests {
        let combo = &combos[sample_rank(cdf, &mut rng)];
        let response = service
            .request(
                combo.compiler,
                &circuits[combo.circuit_idx],
                &devices[combo.device_idx],
            )
            .expect("population workloads fit their devices");
        wall_ms.push(response.wall_ms);
    }
    (wall_ms, start.elapsed().as_secs_f64())
}

/// The N-thread contended phase on a fresh service: every client replays an
/// overlapping zipf stream, so hot keys race and coalesce.  Returns the
/// merged per-request wall times, per-client elapsed seconds, the phase
/// elapsed, and the service's counters.
fn run_contended(
    clients: usize,
    requests: usize,
    zipf_s: f64,
    seed: u64,
    smoke: bool,
) -> (Vec<f64>, Vec<f64>, f64, StatsSnapshot) {
    let (devices, circuits, mut combos) = build_population(smoke);
    let mut rng = StdRng::seed_from_u64(seed);
    combos.shuffle(&mut rng);
    let cdf = zipf_cdf(combos.len(), zipf_s);
    let per_client = (requests / clients).max(1);

    let service = CompileService::new(ServiceConfig::default());
    let barrier = Barrier::new(clients);
    let mut merged = Vec::with_capacity(per_client * clients);
    let mut client_elapsed = Vec::with_capacity(clients);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (service, devices, circuits, combos, cdf, barrier) =
                    (&service, &devices, &circuits, &combos, &cdf, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    drive_zipf_stream(
                        service,
                        devices,
                        circuits,
                        combos,
                        cdf,
                        per_client,
                        seed.wrapping_add(7919 * (client as u64 + 1)),
                    )
                })
            })
            .collect();
        for handle in handles {
            let (wall_ms, elapsed) = handle.join().expect("contended client panicked");
            merged.extend(wall_ms);
            client_elapsed.push(elapsed);
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    (merged, client_elapsed, elapsed_s, service.stats())
}

/// Barrier-started same-key storm on a fresh service: every thread hammers
/// one key at once.  Singleflight must collapse the whole storm onto exactly
/// one compile (`stats.misses == 1`); everything else is a hit or a
/// coalesced follower.
fn run_storm(clients: usize, requests: usize, smoke: bool) -> (usize, StatsSnapshot) {
    let (devices, circuits, combos) = build_population(smoke);
    let combo = &combos[0];
    let per_client = (requests / clients).max(1);
    let service = CompileService::new(ServiceConfig::default());
    let barrier = Barrier::new(clients);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (service, devices, circuits, barrier, failures) =
                (&service, &devices, &circuits, &barrier, &failures);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..per_client {
                    let response = service
                        .request(
                            combo.compiler,
                            &circuits[combo.circuit_idx],
                            &devices[combo.device_idx],
                        )
                        .expect("storm workload fits its device");
                    if !(response.hit || response.coalesced || response.cached) {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "storm responses must be the leader's, a coalesced copy, or a hit"
    );
    (per_client * clients, service.stats())
}

fn run_clients(
    clients: usize,
    requests: usize,
    zipf_s: f64,
    seed: u64,
    smoke: bool,
) -> ClientNumbers {
    // Single-client baseline on a fresh service: the denominator for the
    // scaling ratio, measured with the same stream shape.
    let (contended_single, _, single_elapsed_s, _) =
        run_contended(1, requests, zipf_s, seed, smoke);
    let single_requests = contended_single.len();

    let (contended_ms, client_elapsed, elapsed_s, stats) =
        run_contended(clients, requests, zipf_s, seed, smoke);
    let per_client = contended_ms.len() / clients;
    let per_client_rps = client_elapsed
        .iter()
        .map(|&s| per_client as f64 / s.max(1e-9))
        .collect();

    let storm_requests = if smoke { 400 } else { 2000 };
    let (storm_total, storm_stats) = run_storm(clients, storm_requests, smoke);

    ClientNumbers {
        clients,
        requests: contended_ms.len(),
        elapsed_s,
        single_requests,
        single_elapsed_s,
        contended_ms,
        per_client_rps,
        coalesced: stats.coalesced,
        rejected: stats.rejected,
        storm_requests: storm_total,
        storm_compiles: storm_stats.misses,
        storm_coalesced: storm_stats.coalesced,
        host_cores: twoqan::pool::max_useful_workers(),
    }
}

fn clients_json(numbers: &mut ClientNumbers) -> String {
    let throughput = numbers.requests as f64 / numbers.elapsed_s.max(1e-9);
    let single = numbers.single_requests as f64 / numbers.single_elapsed_s.max(1e-9);
    let p50 = percentile(&mut numbers.contended_ms, 50.0);
    let p99 = percentile(&mut numbers.contended_ms, 99.0);
    let per_client: Vec<String> = numbers
        .per_client_rps
        .iter()
        .map(|rps| format!("{rps:.1}"))
        .collect();
    let mut json = String::new();
    json.push_str("  \"clients\": {\n");
    json.push_str(&format!("    \"count\": {},\n", numbers.clients));
    json.push_str(&format!("    \"requests\": {},\n", numbers.requests));
    json.push_str(&format!("    \"throughput_rps\": {throughput:.1},\n"));
    json.push_str(&format!(
        "    \"single_client_throughput_rps\": {single:.1},\n"
    ));
    json.push_str(&format!(
        "    \"scaling_vs_single\": {:.3},\n",
        throughput / single.max(1e-9)
    ));
    json.push_str(&format!("    \"host_cores\": {},\n", numbers.host_cores));
    json.push_str(&format!(
        "    \"contended\": {{\"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}}},\n"
    ));
    json.push_str(&format!("    \"coalesced\": {},\n", numbers.coalesced));
    json.push_str(&format!("    \"rejected\": {},\n", numbers.rejected));
    json.push_str(&format!(
        "    \"per_client_rps\": [{}],\n",
        per_client.join(", ")
    ));
    json.push_str(&format!(
        "    \"storm\": {{\"requests\": {}, \"compiles\": {}, \"coalesced\": {}}}\n",
        numbers.storm_requests, numbers.storm_compiles, numbers.storm_coalesced
    ));
    json.push_str("  },\n");
    json
}

fn write_json(
    numbers: &mut RunNumbers,
    clients: Option<&mut ClientNumbers>,
    zipf_s: f64,
    seed: u64,
    out: &str,
) {
    let stats = &numbers.stats;
    let hit_p50 = percentile(&mut numbers.hit_ms, 50.0);
    let hit_p99 = percentile(&mut numbers.hit_ms, 99.0);
    let miss_p50 = percentile(&mut numbers.miss_ms, 50.0);
    let miss_p99 = percentile(&mut numbers.miss_ms, 99.0);
    let config = ServiceConfig::default();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"compile_service\",\n");
    json.push_str("  \"unit\": \"ms (per-request wall clock)\",\n");
    json.push_str(&format!("  \"requests\": {},\n", numbers.requests));
    json.push_str(&format!("  \"population\": {},\n", numbers.population));
    json.push_str(&format!("  \"zipf_s\": {zipf_s},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"cache\": {{\"capacity\": {}, \"shards\": {}}},\n",
        config.capacity, config.shards
    ));
    json.push_str(&format!(
        "  \"throughput_rps\": {:.1},\n",
        numbers.requests as f64 / numbers.elapsed_s.max(1e-9)
    ));
    json.push_str(&format!(
        "  \"hit\": {{\"count\": {}, \"rate\": {:.3}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}},\n",
        numbers.hit_ms.len(),
        numbers.hit_ms.len() as f64 / numbers.requests as f64,
        hit_p50,
        hit_p99
    ));
    json.push_str(&format!(
        "  \"miss\": {{\"count\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}},\n",
        numbers.miss_ms.len(),
        miss_p50,
        miss_p99
    ));
    json.push_str(&format!(
        "  \"hit_speedup_p50\": {:.1},\n",
        miss_p50 / hit_p50.max(1e-9)
    ));
    json.push_str(&format!(
        "  \"verified_bit_identical\": {},\n",
        numbers.verified
    ));
    if let Some(clients) = clients {
        json.push_str(&clients_json(clients));
    }
    json.push_str(&format!(
        "  \"stats\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"rejected\": {}, \"insertions\": {}, \"evictions\": {}, \"uncacheable\": {}, \"errors\": {}, \"warm_hits\": {}, \"invalidations\": {}, \"invalidated_entries\": {}}}\n",
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.rejected,
        stats.insertions,
        stats.evictions,
        stats.uncacheable,
        stats.errors,
        stats.warm_hits,
        stats.invalidations,
        stats.invalidated_entries
    ));
    json.push_str("}\n");
    emit(out, &json);
}

// ---------------------------------------------------------------------------
// `--check`: the CI perf-regression guard on the cold (miss) path and, when
// the committed baseline carries one, the contended p99.
// ---------------------------------------------------------------------------

fn run_check(baseline_path: &str, tolerance_pct: f64) {
    let baseline = Baseline::read(baseline_path);
    let committed = baseline.require("\"miss\"", "p50_ms");
    let (devices, circuits, combos) = build_population(false);
    // Two passes over the population on fresh caches (every request a miss);
    // the gate compares the median of the per-combination minimum.
    let mut best = vec![f64::INFINITY; combos.len()];
    for _ in 0..2 {
        let service = CompileService::new(ServiceConfig::default());
        for (slot, combo) in best.iter_mut().zip(&combos) {
            let response = service
                .request(
                    combo.compiler,
                    &circuits[combo.circuit_idx],
                    &devices[combo.device_idx],
                )
                .expect("population workloads fit their devices");
            assert!(!response.hit, "fresh caches cannot hit");
            *slot = slot.min(response.wall_ms);
        }
    }
    let measured = percentile(&mut best, 50.0);
    gate(
        "service miss p50 best-of-2",
        measured,
        committed,
        tolerance_pct,
    );

    // The contended gate only arms once a `--clients` baseline is committed.
    let Some(committed_p99) = baseline.field("\"contended\"", "p99_ms") else {
        println!("service contended p99: no committed baseline, gate skipped");
        return;
    };
    let clients = baseline
        .field("\"clients\"", "count")
        .map_or(4, |n| n as usize);
    // The minimum p99 of two full contended runs.
    let p99 = (0..2)
        .map(|_| {
            let (mut contended_ms, _, _, _) = run_contended(clients, 2000, 1.1, 42, false);
            percentile(&mut contended_ms, 99.0)
        })
        .fold(f64::INFINITY, f64::min);
    let label = format!("service contended p99 ({clients} clients) best-of-2");
    gate(&label, p99, committed_p99, tolerance_pct);
}

/// `--keys`: prints the host block, then one line per size with the median
/// µs of `cache_key` and `stable_key` — what every request and every
/// recompile hashes.  The device digests are memoised after the warm-up
/// call, as they are for a service's repeat traffic.
fn run_keys(smoke: bool) {
    println!("{}", host_json());
    let compiler = CompilerRegistry::by_name("2QAN-noise").expect("a registered config");
    let calls = if smoke { 50 } else { 2000 };
    for n in [20, 80, 200] {
        let circuit = Workload::generate(WorkloadKind::QaoaRegular(3), n, 0).circuit;
        let device = scaling_device(n).with_heterogeneous_calibration(7);
        let us = |key: fn(&dyn twoqan::pipeline::Compiler, &Circuit, &Device) -> u128| {
            median_ms(calls, || {
                black_box(key(compiler.as_ref(), &circuit, &device));
            }) * 1e3
        };
        println!(
            "{{\"keys\": {{\"family\": \"QAOA-REG-3\", \"n\": {n}, \"gates\": {}, \
             \"cache_key_us\": {:.2}, \"stable_key_us\": {:.2}}}}}",
            circuit.gates().len(),
            us(cache_key),
            us(stable_key)
        );
    }
}

/// The command line; see the module docs.
struct Options {
    requests: usize,
    zipf_s: f64,
    seed: u64,
    clients: Option<usize>,
    out: String,
    smoke: bool,
    check: Option<String>,
    tolerance_pct: f64,
    keys: bool,
}

fn options(args: &mut Args) -> Result<Options, String> {
    let smoke = args.flag("--smoke");
    let requests = args.value("--requests", "a positive integer", |&n| n > 0)?;
    let zipf_s = args.value("--zipf", "a positive exponent", |&s| s > 0.0)?;
    let out = args.value("--out", "a path", any)?;
    let tolerance_pct = args.value("--tolerance", "a positive percentage", |&p| p > 0.0)?;
    Ok(Options {
        requests: if smoke { 120 } else { requests.unwrap_or(2000) },
        zipf_s: zipf_s.unwrap_or(1.1),
        seed: args.value("--seed", "an integer", any)?.unwrap_or(42),
        clients: args.value("--clients", "an integer greater than 1", |&n| n > 1)?,
        out: out.unwrap_or("BENCH_service.json".into()),
        smoke,
        check: args.value("--check", "the committed baseline path", any)?,
        tolerance_pct: tolerance_pct.unwrap_or(50.0),
        keys: args.flag("--keys"),
    })
}

fn main() {
    let opts = Args::from_env(options);
    let (requests, zipf_s, seed, smoke) = (opts.requests, opts.zipf_s, opts.seed, opts.smoke);
    if let Some(baseline) = opts.check {
        run_check(&baseline, opts.tolerance_pct);
        return;
    }
    if opts.keys {
        run_keys(smoke);
        return;
    }

    let mut numbers = run_service(requests, zipf_s, seed, smoke);
    eprintln!(
        "{} requests over a population of {}: {} hits / {} misses (rate {:.3}), \
         {} combinations verified bit-identical",
        numbers.requests,
        numbers.population,
        numbers.hit_ms.len(),
        numbers.miss_ms.len(),
        numbers.stats.hit_rate(),
        numbers.verified
    );
    if numbers.hit_ms.is_empty() || numbers.miss_ms.is_empty() {
        eprintln!("SERVICE CACHE FAILURE: the run must record both hits and misses");
        std::process::exit(1);
    }
    if numbers.verified == 0 {
        eprintln!("SERVICE CACHE FAILURE: no cached combination could be verified");
        std::process::exit(1);
    }
    if numbers.stats.hits != numbers.hit_ms.len() as u64 {
        eprintln!(
            "SERVICE STATS FAILURE: snapshot hits {} != measured hit count {}",
            numbers.stats.hits,
            numbers.hit_ms.len()
        );
        std::process::exit(1);
    }

    let mut client_numbers = opts.clients.map(|clients| {
        let numbers = run_clients(clients, requests, zipf_s, seed, smoke);
        eprintln!(
            "{} clients, {} contended requests: {} coalesced, {} rejected; \
             same-key storm of {} requests compiled {} time(s)",
            numbers.clients,
            numbers.requests,
            numbers.coalesced,
            numbers.rejected,
            numbers.storm_requests,
            numbers.storm_compiles
        );
        if numbers.storm_compiles != 1 {
            eprintln!(
                "SERVICE COALESCING FAILURE: the same-key storm performed {} compiles \
                 (singleflight must collapse it to exactly 1)",
                numbers.storm_compiles
            );
            std::process::exit(1);
        }
        numbers
    });

    write_json(
        &mut numbers,
        client_numbers.as_mut(),
        zipf_s,
        seed,
        &opts.out,
    );
    if !smoke {
        // The acceptance bar for the committed baseline: a cache hit is at
        // least an order of magnitude cheaper than a cold compile.
        let hit_p50 = percentile(&mut numbers.hit_ms, 50.0);
        let miss_p50 = percentile(&mut numbers.miss_ms, 50.0);
        assert!(
            miss_p50 >= 10.0 * hit_p50,
            "hit p50 {hit_p50:.4} ms is not >=10x below miss p50 {miss_p50:.4} ms"
        );
    }
}
