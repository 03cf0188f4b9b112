//! Compile-as-a-service: a caching front-end over the workspace compilers.
//!
//! The 2QAN pipeline is cheap per invocation (single-digit milliseconds at
//! n = 80), so a long-running compilation service absorbing sustained mixed
//! traffic is dominated by *repeat* requests: the same popular (workload,
//! device, calibration) combinations arrive over and over, and re-running
//! the QAP search for them is pure waste.  [`CompileService`] keys every
//! request by a **content hash** of everything that determines the compiled
//! artifact —
//!
//! * the canonicalized workload circuit (gate kinds, parameters, operands,
//!   in order),
//! * the device topology and native gate set,
//! * the full per-edge/per-qubit calibration ([`Target`]) snapshot,
//! * the compiler's configuration fingerprint
//!   ([`Compiler::cache_fingerprint`]) —
//!
//! and serves hits from a sharded LRU cache of [`CompiledOutput`]s.  Every
//! workspace compiler is deterministic for a fixed configuration, so a hit
//! is bit-identical to a fresh compile (property-tested in
//! `tests/service_properties.rs`); the only fields a cache hit cannot
//! reproduce are the wall-clock *timing* instrumentation of the original
//! run, which [`bit_identical`] therefore excludes from its comparison.
//!
//! Because the calibration snapshot is part of the key, cache invalidation
//! under calibration drift is automatic: a device whose `Target` changed
//! simply stops matching its old entries (which age out via LRU), and
//! [`CompileService::invalidate_device`] drops them eagerly when a drift
//! event is known.  Compiles that failed, or that were degraded below
//! [`DegradationRung::Full`] by a deadline, are **never** cached: a later
//! request with a healthier budget must get the chance to produce the
//! full-quality artifact.
//!
//! # Warm-start recompilation under drift
//!
//! [`CompileService::recompile`] goes one step further than invalidation:
//! alongside the artifact cache the service keeps a **drift-stable
//! placement index** — keyed by [`stable_key`], which hashes everything in
//! [`cache_key`] *except* the calibration snapshot — remembering the
//! initial placement of the last full-quality compile of every workload.
//! When drift invalidates an artifact, `recompile` seeds
//! [`Compiler::warm_clone`] with the predecessor placement: a
//! reduced-effort compiler whose warm-started QAP solvers are guaranteed
//! never to end with a placement worse than the seed.  Because calibration
//! drift moves placement quality only marginally per cycle, the warm
//! compile skips most of the cold multi-start effort (see
//! [`StatsSnapshot::warm_speedup`]) while staying fully valid and
//! equivalence-checkable.  Warm artifacts are cached under the warm
//! compiler's own fingerprint, so plain [`CompileService::request`] hits
//! never observe a warm-derived artifact.
//!
//! # Concurrency: singleflight coalescing and bounded admission
//!
//! The service is designed for **many concurrent callers**.  Two layers sit
//! between the cache and the compile pool:
//!
//! * **In-flight coalescing (singleflight).**  The first thread to miss on a
//!   key becomes that key's *leader* and compiles it; every other thread
//!   that misses on the same key while the compile is running becomes a
//!   *follower*: it parks on the leader's in-flight slot — lending its core
//!   to queued pool work via [`CompilePool::try_help_one`] instead of
//!   sleeping — and receives the leader's `Arc<CompiledOutput>` when it
//!   lands (`coalesced: true` in the response, bit-identical by
//!   construction since the artifact is shared).  A leader *failure*
//!   propagates its typed [`ServiceError`] to all current followers and
//!   then clears the slot — errors are never cached and never poison the
//!   key, so a later retry compiles fresh.  A leader result that a deadline
//!   *degraded* below full quality is shared with the followers that were
//!   already waiting but never cached, matching the quality gate above.
//! * **Bounded admission (backpressure).**  [`ServiceConfig::max_in_flight`]
//!   caps the number of concurrently admitted miss compiles (leaders).
//!   When the cap is reached, a request that would need a *new* compile is
//!   fast-rejected with [`ServiceError::Overloaded`] instead of piling up
//!   behind the pool — the caller sheds load, retries later, or routes
//!   elsewhere.  Hits and followers are never rejected: they consume no
//!   compile capacity.
//!
//! # One request path
//!
//! `request`, `recompile` and `request_batch` share one front half (count,
//! resolve the compiler, hash, probe the cache), one admission, one leader
//! path and one follower path; a batch only runs its leaders side by side
//! on the pool.  The key format ([`cache_key`], [`stable_key`]) lives in
//! `key.rs`, and the bounded LRU map behind both the cache shards and the
//! placement index in `lru.rs`.  The probe hashes the circuit once; the
//! cache key, the drift-stable key and the warm key all reuse that digest,
//! and the device digests are memoised inside the [`Device`].
//!
//! # Verified hits
//!
//! Every key carries an independent 64-bit check digest beside its 128-bit
//! key.  Cache entries, in-flight compiles and placement records store the
//! check, and every lookup compares it: an entry whose check disagrees was
//! stored for different content under a colliding key.  It is never served —
//! the request proceeds as a miss — and the lookup is counted in
//! [`StatsSnapshot::check_mismatches`].
//!
//! [`Target`]: twoqan_device::Target

#![deny(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use twoqan::pipeline::{CompiledOutput, Compiler, DegradationRung};
use twoqan::{BatchCompiler, BatchJob, CompileError, CompilePool};
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::Circuit;
use twoqan_device::Device;

mod key;
mod lru;

pub use key::{cache_key, stable_key};
use key::{circuit_digest, KeyPrefix};
use lru::Lru;
use twoqan::hash::Digest;

/// Configuration of a [`CompileService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Total cached outputs across all shards (divided evenly per shard).
    pub capacity: usize,
    /// Number of independently locked cache shards; more shards means less
    /// lock contention between concurrent requests.
    pub shards: usize,
    /// Worker count of the service's long-lived compile pool (`0` = one per
    /// core).  Provisioned **once** at construction — requests never pay
    /// per-call pool spawn costs.
    pub threads: usize,
    /// Maximum number of concurrently admitted miss compiles (in-flight
    /// *leaders*); `0` means unbounded.  A request that would start a new
    /// compile while the cap is saturated is fast-rejected with
    /// [`ServiceError::Overloaded`].  Cache hits and requests that coalesce
    /// onto an already-running compile are never rejected.
    pub max_in_flight: usize,
}

impl Default for ServiceConfig {
    /// 1024 cached outputs over 8 shards, one worker per core, unbounded
    /// admission.
    fn default() -> Self {
        Self {
            capacity: 1024,
            shards: 8,
            threads: 0,
            max_in_flight: 0,
        }
    }
}

/// Why a service request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request named a compiler the service has not registered.
    UnknownCompiler {
        /// The requested compiler name.
        name: String,
    },
    /// The compile itself failed.
    Compile(CompileError),
    /// The admission cap on concurrent miss compiles is saturated: serving
    /// this request would require starting a new compile, and
    /// [`ServiceConfig::max_in_flight`] of them are already running.  This
    /// is a *fast* rejection — the request did not queue — so the caller
    /// can shed load or retry after a backoff.
    Overloaded {
        /// Miss compiles in flight when the request was rejected.
        in_flight: usize,
        /// The configured admission cap ([`ServiceConfig::max_in_flight`]).
        cap: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownCompiler { name } => {
                write!(
                    f,
                    "no compiler named '{name}' is registered with the service"
                )
            }
            Self::Compile(e) => write!(f, "compilation failed: {e}"),
            Self::Overloaded { in_flight, cap } => write!(
                f,
                "service overloaded: {in_flight} miss compile(s) in flight at a cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
        Self::Compile(e)
    }
}

/// One request of a [`CompileService::request_batch`] call.
#[derive(Clone, Copy)]
pub struct ServiceRequest<'a> {
    /// Registered compiler name (e.g. `"2QAN"`).
    pub compiler: &'a str,
    /// The workload circuit.
    pub circuit: &'a Circuit,
    /// The target device (topology + gate set + calibration snapshot).
    pub device: &'a Device,
}

/// The service's answer to one request, with its per-request metrics.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The compiled artifact (shared with the cache on a hit/insert).
    pub output: Arc<CompiledOutput>,
    /// Whether the artifact came from the cache.
    pub hit: bool,
    /// Whether this request coalesced onto another caller's in-flight
    /// compile of the same key and received the leader's (shared, therefore
    /// bit-identical) artifact instead of compiling itself.
    pub coalesced: bool,
    /// Whether the artifact came from the warm-start recompile path: a
    /// previous snapshot's placement seeded a reduced-effort compile (only
    /// [`CompileService::recompile`] sets this).
    pub warm: bool,
    /// Whether this request inserted the artifact into the cache (misses
    /// only; `false` when the result was uncacheable — failed requests
    /// return an error instead, degraded ones return `cached: false`).
    pub cached: bool,
    /// The content-addressed cache key of the request.
    pub key: u128,
    /// Milliseconds between request arrival and compile start (hashing,
    /// cache lookup and — in a batch — waiting for a pool worker).
    pub queue_wait_ms: f64,
    /// Milliseconds a coalesced request spent waiting for the leader's
    /// artifact (`0` unless `coalesced`).  Followers spend this time
    /// helping with queued pool work, not sleeping.
    pub coalesced_wait_ms: f64,
    /// Compile wall-clock milliseconds (`0` on a hit or coalesced request).
    pub compile_ms: f64,
    /// Total request wall-clock milliseconds.
    pub wall_ms: f64,
    /// Miss compiles in flight when this request arrived — the queue-depth
    /// / backpressure signal [`ServiceConfig::max_in_flight`] caps.
    pub queue_depth: usize,
}

impl ServiceResponse {
    /// The degradation rung that produced the artifact (from the PR-6
    /// graceful-degradation ladder).
    pub fn rung(&self) -> DegradationRung {
        self.output.report.rung
    }
}

/// A point-in-time copy of the service's request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total requests served (including failed ones).
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that compiled (in-flight *leaders*; coalesced followers are
    /// counted separately).
    pub misses: u64,
    /// Requests that coalesced onto another caller's in-flight compile of
    /// the same key instead of compiling themselves.
    pub coalesced: u64,
    /// Requests fast-rejected with [`ServiceError::Overloaded`] because the
    /// admission cap on concurrent miss compiles was saturated.
    pub rejected: u64,
    /// Artifacts inserted into the cache.
    pub insertions: u64,
    /// Artifacts evicted to respect the capacity bound.
    pub evictions: u64,
    /// Successful compiles *not* cached because a deadline degraded them
    /// below [`DegradationRung::Full`].
    pub uncacheable: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Successful *warm* leader compiles: recompiles where the predecessor
    /// snapshot's placement seeded a reduced-effort compile.
    pub warm_hits: u64,
    /// Total wall-clock microseconds of successful *warm* leader compiles.
    pub warm_compile_us: u64,
    /// Successful *cold* (full-effort) leader compiles.
    pub cold_compiles: u64,
    /// Total wall-clock microseconds of successful cold leader compiles.
    pub cold_compile_us: u64,
    /// Calls to [`CompileService::invalidate_device`].
    pub invalidations: u64,
    /// Cached artifacts dropped by those invalidation calls.
    pub invalidated_entries: u64,
    /// Lookups — cache entries, in-flight compiles, placement records — that
    /// found an entry under the requested 128-bit key whose 64-bit check
    /// digest disagreed: a key collision.  The colliding entry is never
    /// served; the request proceeds as a miss.
    pub check_mismatches: u64,
}

impl StatsSnapshot {
    /// Fraction of requests answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Mean cold compile time divided by mean warm compile time — how much
    /// faster a warm-start recompile is than a from-scratch compile.  `0`
    /// until at least one of each has completed.
    pub fn warm_speedup(&self) -> f64 {
        if self.warm_hits == 0 || self.cold_compiles == 0 || self.warm_compile_us == 0 {
            return 0.0;
        }
        let cold_mean = self.cold_compile_us as f64 / self.cold_compiles as f64;
        let warm_mean = self.warm_compile_us as f64 / self.warm_hits as f64;
        cold_mean / warm_mean
    }
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
    errors: AtomicU64,
    warm_hits: AtomicU64,
    warm_compile_us: AtomicU64,
    cold_compiles: AtomicU64,
    cold_compile_us: AtomicU64,
    invalidations: AtomicU64,
    invalidated_entries: AtomicU64,
    check_mismatches: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_compile_us: self.warm_compile_us.load(Ordering::Relaxed),
            cold_compiles: self.cold_compiles.load(Ordering::Relaxed),
            cold_compile_us: self.cold_compile_us.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            invalidated_entries: self.invalidated_entries.load(Ordering::Relaxed),
            check_mismatches: self.check_mismatches.load(Ordering::Relaxed),
        }
    }
}

/// A cached artifact.
struct Entry {
    output: Arc<CompiledOutput>,
    /// The check digest of the key the artifact was stored under.
    check: u64,
    /// Digest of the (device, target) snapshot the artifact was compiled
    /// against, for eager [`CompileService::invalidate_device`].
    device: Digest,
}

/// What [`CompileService::recompile`] remembers about the last successful
/// full-quality compile of a drift-stable key: which calibration snapshot
/// it was compiled against, where the artifact lives in the cache, and the
/// initial placement that seeds a warm recompile after the snapshot drifts.
#[derive(Clone)]
struct PlacementRecord {
    /// The check digest of the drift-stable key the record is stored under.
    stable_check: u64,
    device: Digest,
    artifact: Digest,
    placement: Vec<usize>,
}

/// The answer to one request.
type Answer = Result<ServiceResponse, ServiceError>;

/// A leader compile's result, the milliseconds from request arrival to
/// compile start, and the compile milliseconds.
type Timed = (Result<CompiledOutput, CompileError>, f64, f64);

/// A request the cache probe of [`CompileService::probe`] could not answer:
/// its registered compiler, its operands, its circuit digest, key prefix
/// and cache key, and the bookkeeping every response reports.
struct Pending<'a> {
    compiler: &'a dyn Compiler,
    circuit: &'a Circuit,
    device: &'a Device,
    circuit_digest: Digest,
    prefix: KeyPrefix,
    key: Digest,
    arrival: Instant,
    queue_depth: usize,
}

impl Pending<'_> {
    /// A response serving `output` under `key`, timed like a hit — the
    /// whole wall clock is queue wait — until the caller overrides fields.
    fn respond(&self, output: Arc<CompiledOutput>, key: Digest, warm: bool) -> ServiceResponse {
        let wall_ms = ms_since(self.arrival);
        ServiceResponse {
            output,
            hit: false,
            coalesced: false,
            warm,
            cached: false,
            key: key.key,
            queue_wait_ms: wall_ms,
            coalesced_wait_ms: 0.0,
            compile_ms: 0.0,
            wall_ms,
            queue_depth: self.queue_depth,
        }
    }
}

/// One in-flight compile: the slot the key's leader publishes into and its
/// followers park on.  `state` is `None` while the compile runs and becomes
/// `Some(result)` exactly once; a shared `Arc` clone of the leader's output
/// (or its typed error) is what every follower receives — bit-identical by
/// construction.  `check` is the check digest of the key being compiled:
/// only requests whose check matches may follow.
struct Flight {
    check: u64,
    state: Mutex<Option<Result<Arc<CompiledOutput>, ServiceError>>>,
    done: Condvar,
}

impl Flight {
    fn new(check: u64) -> Arc<Self> {
        Arc::new(Self {
            check,
            state: Mutex::new(None),
            done: Condvar::new(),
        })
    }
}

/// How [`CompileService::admit`] classified a miss-path request.
enum Admission<'s> {
    /// The key was cached between the miss probe and admission (another
    /// thread's leader landed it) — serve the artifact as a hit.
    Hit(Arc<CompiledOutput>),
    /// This thread is the key's leader: it owns the compile and must
    /// publish through the lease (which also releases the admission slot).
    Lead(FlightLease<'s>),
    /// Another thread is already compiling this key — park on its flight.
    Follow(Arc<Flight>),
}

/// The leader's RAII claim on an in-flight slot plus one admission token.
///
/// [`FlightLease::publish`] hands the compile result to every parked
/// follower, clears the slot and releases the token.  Dropping the lease
/// without publishing (a panic unwinding through the leader) publishes a
/// typed internal error instead — followers are never left parked on a
/// torn slot, and the key is never poisoned (the slot is removed either
/// way, so a later retry compiles fresh).
struct FlightLease<'s> {
    service: &'s CompileService,
    key: Digest,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightLease<'_> {
    /// Publishes the leader's result to all followers and clears the slot.
    fn publish(mut self, result: Result<Arc<CompiledOutput>, ServiceError>) {
        self.published = true;
        self.service
            .finish_flight(self.key.key, &self.flight, result);
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.service.finish_flight(
                self.key.key,
                &self.flight,
                Err(ServiceError::Compile(CompileError::Internal {
                    detail: "in-flight leader abandoned its compile".to_string(),
                })),
            );
        }
    }
}

/// A long-running compilation service with a content-addressed cache.
///
/// Construction registers the compilers and provisions one long-lived
/// [`CompilePool`] (clamped to the core count); requests reuse both, so the
/// per-request cost of a miss is exactly one compile, and of a hit one hash
/// plus one shard lock.  The service is `Sync`: requests may be issued from
/// any number of threads concurrently.
pub struct CompileService {
    compilers: Vec<Box<dyn Compiler>>,
    /// The artifact cache: independently locked LRU shards sharing
    /// [`ServiceConfig::capacity`] evenly.
    shards: Vec<Mutex<Lru<Entry>>>,
    /// In-flight compiles keyed by cache key, sharded like the cache so
    /// leader registration and follower lookup contend per shard only.
    flights: Vec<Mutex<HashMap<u128, Arc<Flight>>>>,
    /// Currently admitted miss compiles (leaders holding admission tokens).
    in_flight: AtomicUsize,
    /// Admission cap (`0` = unbounded); see [`ServiceConfig::max_in_flight`].
    max_in_flight: usize,
    /// The drift-stable placement index from [`stable_key`] to
    /// [`PlacementRecord`] feeding warm-start recompiles, bounded by the
    /// same capacity as the artifact cache.  Placements survive device
    /// drift by construction (the key excludes the calibration snapshot),
    /// which is the whole point: when drift invalidates an artifact, its
    /// placement is still here to warm-start the recompile.
    placements: Mutex<Lru<PlacementRecord>>,
    batch: BatchCompiler,
    pool: CompilePool,
    stats: Stats,
}

impl CompileService {
    /// A service over every registered workspace compiler
    /// ([`CompilerRegistry::NAMES`] plus the calibration-aware
    /// `"2QAN-noise"` variant).
    pub fn new(config: ServiceConfig) -> Self {
        let mut compilers = CompilerRegistry::all();
        compilers.push(
            CompilerRegistry::by_name("2QAN-noise")
                .expect("the noise-aware 2QAN variant is constructible by name"),
        );
        Self::with_compilers(config, compilers)
    }

    /// A service over an explicit compiler set (names must be unique).
    pub fn with_compilers(config: ServiceConfig, compilers: Vec<Box<dyn Compiler>>) -> Self {
        let shards = config.shards.max(1);
        let threads = if config.threads == 0 {
            twoqan::pool::max_useful_workers()
        } else {
            config.threads.min(twoqan::pool::max_useful_workers())
        };
        Self {
            compilers,
            shards: (0..shards)
                .map(|_| Mutex::new(Lru::new(config.capacity.div_ceil(shards))))
                .collect(),
            flights: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            in_flight: AtomicUsize::new(0),
            max_in_flight: config.max_in_flight,
            placements: Mutex::new(Lru::new(config.capacity)),
            // Runs under the installed service pool: no worker count needed.
            batch: BatchCompiler::default(),
            pool: CompilePool::new(threads),
            stats: Stats::default(),
        }
    }

    /// The registered compiler names, in registration order.
    pub fn compiler_names(&self) -> Vec<&'static str> {
        self.compilers.iter().map(|c| c.name()).collect()
    }

    /// Number of artifacts currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Returns `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the request counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The content-addressed cache key the service would use for this
    /// request, or `None` for an unregistered compiler name.
    pub fn key_for(&self, compiler: &str, circuit: &Circuit, device: &Device) -> Option<u128> {
        self.compiler(compiler)
            .map(|c| cache_key(c, circuit, device))
    }

    /// Serves one request: a cache hit returns the stored artifact, a miss
    /// either compiles on the service pool (this thread is the key's
    /// *leader*) or coalesces onto another thread's in-flight compile of
    /// the same key and receives its shared artifact (`coalesced: true`).
    /// Full-quality leader results are cached.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCompiler`] for an unregistered name,
    /// [`ServiceError::Compile`] when the compile fails — propagated to the
    /// leader *and* every coalesced follower, never cached, never poisoning
    /// the key — and [`ServiceError::Overloaded`] when starting a new
    /// compile would exceed [`ServiceConfig::max_in_flight`].
    pub fn request(
        &self,
        compiler: &str,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<ServiceResponse, ServiceError> {
        match self.probe(compiler, circuit, device, Instant::now()) {
            Ok(pending) => self.serve_miss(&pending, pending.compiler, pending.key, false),
            Err(answer) => answer,
        }
    }

    /// Recompiles a workload whose cached artifact was invalidated by
    /// calibration drift, **warm-starting** from the placement of the last
    /// successful compile of the same (compiler, circuit, topology) when
    /// one is known:
    ///
    /// 1. If the *current* snapshot's artifact is cached (the target did not
    ///    actually change, or another thread already recompiled it), it is
    ///    served as an ordinary hit — bit-identical to a cold compile by the
    ///    cache contract.
    /// 2. Otherwise the drift-stable placement index is consulted.  A
    ///    recorded placement seeds [`Compiler::warm_clone`] — a
    ///    reduced-effort compiler that is guaranteed never to end up with a
    ///    worse placement than the seed — and the warm artifact is compiled,
    ///    cached under the warm compiler's own key and returned with
    ///    `warm: true`.
    /// 3. With no usable record (first sight of the workload, index
    ///    eviction, or a compiler without a warm path) the request falls
    ///    back to a cold compile, exactly like [`CompileService::request`].
    ///
    /// # Errors
    ///
    /// Same contract as [`CompileService::request`].
    pub fn recompile(
        &self,
        compiler: &str,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<ServiceResponse, ServiceError> {
        let pending = match self.probe(compiler, circuit, device, Instant::now()) {
            Ok(pending) => pending,
            Err(answer) => return answer,
        };
        let stable = pending.prefix.stable(device);
        let record = self
            .placements
            .lock()
            .expect("placement index poisoned")
            .touch(stable.key)
            .cloned()
            .filter(|record| self.verify(record.stable_check == stable.check));
        if let Some(record) = record {
            // Fast path for a repeat recompile against an unchanged
            // snapshot whose artifact is still cached under its own key.
            if record.device == device.digest() {
                if let Some(output) = self.cached(record.artifact) {
                    // A recorded artifact under a different key than the
                    // cold one was produced by a warm compile.
                    let warm = record.artifact != pending.key;
                    return Ok(self.hit(&pending, output, record.artifact, warm));
                }
            }
            if let Some(warm_compiler) = pending.compiler.warm_clone(&record.placement) {
                // The warm artifact is keyed under the *warm* compiler's
                // fingerprint (which covers the seed), so plain `request`
                // hits never observe warm-derived artifacts and repeated
                // recompiles of the same drifted snapshot hit this key.
                let warm_key =
                    KeyPrefix::new(warm_compiler.as_ref(), pending.circuit_digest).cache(device);
                return self.serve_miss(&pending, warm_compiler.as_ref(), warm_key, true);
            }
        }
        self.serve_miss(&pending, pending.compiler, pending.key, false)
    }

    /// Serves a batch of requests, fanning the misses out over the service
    /// pool; responses keep the request order.  Per-response
    /// `queue_wait_ms` covers hashing, lookup and the wait for a pool
    /// worker.  Duplicate keys inside the batch — and keys another thread
    /// is already compiling — coalesce onto a single compile, just like
    /// [`CompileService::request`].
    pub fn request_batch(
        &self,
        requests: &[ServiceRequest<'_>],
    ) -> Vec<Result<ServiceResponse, ServiceError>> {
        let arrival = Instant::now();
        // Classify every request first: hits and unknown names answer
        // immediately, each distinct missing key elects one in-batch leader
        // (the pool compiles those), and everything else follows a flight —
        // an in-batch leader's or another thread's.
        let mut responses: Vec<Option<Answer>> = (0..requests.len()).map(|_| None).collect();
        let mut leaders = Vec::new();
        let mut followers = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let pending = match self.probe(req.compiler, req.circuit, req.device, arrival) {
                Ok(pending) => pending,
                Err(answer) => {
                    responses[i] = Some(answer);
                    continue;
                }
            };
            match self.admit(pending.key) {
                Ok(Admission::Hit(output)) => {
                    responses[i] = Some(Ok(self.hit(&pending, output, pending.key, false)));
                }
                Ok(Admission::Lead(lease)) => leaders.push((i, pending, lease)),
                Ok(Admission::Follow(flight)) => followers.push((i, pending, flight)),
                Err(e) => responses[i] = Some(Err(e)),
            }
        }
        let compiled = self.pool.run_indexed(leaders.len(), |j| {
            let (_, pending, _) = &leaders[j];
            self.compile_timed(pending, pending.compiler)
        });
        for ((i, pending, lease), timed) in leaders.into_iter().zip(compiled) {
            responses[i] = Some(self.finish_lead(lease, &pending, false, timed));
        }
        // In-batch followers resolve instantly (their leader just
        // published); followers of another thread's flight park on it.
        for (i, pending, flight) in followers {
            responses[i] = Some(self.follow(&flight, pending.key, false, &pending));
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request index is answered"))
            .collect()
    }

    /// Eagerly drops every cached artifact compiled against this device's
    /// *current* (topology, gate set, calibration snapshot) — the explicit
    /// invalidation hook for calibration-drift events.  Returns the number
    /// of dropped entries.  (Entries for a *previous* snapshot stop being
    /// reachable as soon as the device drifts — their keys no longer match —
    /// and age out via LRU.)
    pub fn invalidate_device(&self, device: &Device) -> usize {
        let digest = device.digest();
        let dropped: usize = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("cache shard poisoned")
                    .retain(|e| e.device != digest)
            })
            .sum();
        Stats::bump(&self.stats.invalidations);
        Stats::add(&self.stats.invalidated_entries, dropped as u64);
        dropped
    }

    /// Drops every cached artifact.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    fn compiler(&self, name: &str) -> Option<&dyn Compiler> {
        self.compilers
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.as_ref())
    }

    /// The front half every request shares: counts the request, samples the
    /// queue depth, resolves the compiler name and probes the cache under
    /// the request's key.  `Err` carries the finished answer (an unknown
    /// compiler or a hit); `Ok` a request that still needs serving.  The
    /// circuit is hashed here, once; the drift-stable key is *not* computed
    /// here: the hit path never needs it.
    fn probe<'a>(
        &'a self,
        name: &str,
        circuit: &'a Circuit,
        device: &'a Device,
        arrival: Instant,
    ) -> Result<Pending<'a>, Answer> {
        Stats::bump(&self.stats.requests);
        let queue_depth = self.in_flight.load(Ordering::Relaxed);
        let Some(compiler) = self.compiler(name) else {
            Stats::bump(&self.stats.errors);
            return Err(Err(ServiceError::UnknownCompiler {
                name: name.to_string(),
            }));
        };
        let circuit_digest = circuit_digest(circuit);
        let prefix = KeyPrefix::new(compiler, circuit_digest);
        let key = prefix.cache(device);
        let pending = Pending {
            compiler,
            circuit,
            device,
            circuit_digest,
            prefix,
            key,
            arrival,
            queue_depth,
        };
        match self.cached(key) {
            Some(output) => Err(Ok(self.hit(&pending, output, key, false))),
            None => Ok(pending),
        }
    }

    /// The miss path of [`CompileService::request`] and
    /// [`CompileService::recompile`]: singleflight admission, then either
    /// the compile as the key's leader or the wait as a follower.
    /// `compiler` and `key` are the registered compiler's, or its warm
    /// clone's for a warm recompile.
    fn serve_miss(
        &self,
        pending: &Pending<'_>,
        compiler: &dyn Compiler,
        key: Digest,
        warm: bool,
    ) -> Answer {
        match self.admit(key)? {
            Admission::Hit(output) => Ok(self.hit(pending, output, key, warm)),
            Admission::Follow(flight) => self.follow(&flight, key, warm, pending),
            Admission::Lead(lease) => {
                let timed = self.compile_timed(pending, compiler);
                self.finish_lead(lease, pending, warm, timed)
            }
        }
    }

    /// Answers a request from the cache.
    fn hit(
        &self,
        pending: &Pending<'_>,
        output: Arc<CompiledOutput>,
        key: Digest,
        warm: bool,
    ) -> ServiceResponse {
        Stats::bump(&self.stats.hits);
        ServiceResponse {
            hit: true,
            ..pending.respond(output, key, warm)
        }
    }

    /// Runs one leader compile of the pending request through `compiler`
    /// (the [`BatchCompiler`] supplies panic isolation) and
    /// times it from the request's arrival.
    fn compile_timed(&self, pending: &Pending<'_>, compiler: &dyn Compiler) -> Timed {
        let queue_wait_ms = ms_since(pending.arrival);
        let compile_start = Instant::now();
        // The service pool is installed for the compile so the solvers'
        // multi-start restarts reuse the long-lived workers instead of
        // provisioning per request.
        let guard = self.pool.install();
        let result = self
            .batch
            .compile_batch(&[BatchJob {
                circuit: pending.circuit,
                device: pending.device,
                compiler,
            }])
            .pop()
            .expect("one job in, one result out");
        drop(guard);
        (result, queue_wait_ms, ms_since(compile_start))
    }

    /// Everything a leader does once its compile returns: the warm/cold
    /// timing counters, caching and placement recording, publishing to the
    /// followers (which also releases the admission slot), the response.
    fn finish_lead(
        &self,
        lease: FlightLease<'_>,
        pending: &Pending<'_>,
        warm: bool,
        (result, queue_wait_ms, compile_ms): Timed,
    ) -> Answer {
        let key = lease.key;
        match result {
            Ok(output) => {
                let output = Arc::new(output);
                self.note_compile(warm, compile_ms);
                // Cache *before* the flight clears so a newcomer always
                // finds the key in one of the two maps.
                let cached = self.maybe_cache(key, &output, pending);
                lease.publish(Ok(Arc::clone(&output)));
                Ok(ServiceResponse {
                    cached,
                    queue_wait_ms,
                    compile_ms,
                    ..pending.respond(output, key, warm)
                })
            }
            Err(e) => {
                Stats::bump(&self.stats.errors);
                let error = ServiceError::from(e);
                lease.publish(Err(error.clone()));
                Err(error)
            }
        }
    }

    /// Parks on another leader's flight and answers with its shared
    /// artifact (`coalesced: true`) or its typed error.
    fn follow(&self, flight: &Flight, key: Digest, warm: bool, pending: &Pending<'_>) -> Answer {
        let queue_wait_ms = ms_since(pending.arrival);
        let wait_start = Instant::now();
        let result = self.wait_for_flight(flight);
        let coalesced_wait_ms = ms_since(wait_start);
        Stats::bump(&self.stats.coalesced);
        result
            .map(|output| ServiceResponse {
                coalesced: true,
                queue_wait_ms,
                coalesced_wait_ms,
                ..pending.respond(output, key, warm)
            })
            .inspect_err(|_| Stats::bump(&self.stats.errors))
    }

    /// Accounts a successful leader compile into the warm/cold timing
    /// counters [`StatsSnapshot::warm_speedup`] is computed from.
    fn note_compile(&self, warm: bool, compile_ms: f64) {
        let us = (compile_ms * 1e3) as u64;
        if warm {
            Stats::bump(&self.stats.warm_hits);
            Stats::add(&self.stats.warm_compile_us, us);
        } else {
            Stats::bump(&self.stats.cold_compiles);
            Stats::add(&self.stats.cold_compile_us, us);
        }
    }

    /// Caches a leader's artifact under `key` unless a deadline degraded
    /// it — only [`DegradationRung::Full`] artifacts may be served as the
    /// canonical result for their key — and remembers its initial
    /// placement under the drift-stable key so a later
    /// [`CompileService::recompile`] against a drifted snapshot can
    /// warm-start from it.  The stable key is the *registered* compiler's
    /// (not a warm clone's), so successive recompiles keep finding the
    /// freshest placement; compilers that report no placement record none.
    fn maybe_cache(
        &self,
        key: Digest,
        output: &Arc<CompiledOutput>,
        pending: &Pending<'_>,
    ) -> bool {
        if output.report.rung != DegradationRung::Full {
            Stats::bump(&self.stats.uncacheable);
            return false;
        }
        let device = pending.device.digest();
        let evicted = self.shard(key.key).insert(
            key.key,
            Entry {
                output: Arc::clone(output),
                check: key.check,
                device,
            },
        );
        Stats::bump(&self.stats.insertions);
        Stats::add(&self.stats.evictions, evicted);
        if !output.initial_placement.is_empty() {
            let stable = pending.prefix.stable(pending.device);
            self.placements
                .lock()
                .expect("placement index poisoned")
                .insert(
                    stable.key,
                    PlacementRecord {
                        stable_check: stable.check,
                        device,
                        artifact: key,
                        placement: output.initial_placement.clone(),
                    },
                );
        }
        true
    }

    /// The cached artifact under `key`, marked most recently used, if its
    /// check digest matches (see [`CompileService::verify`]).
    fn cached(&self, key: Digest) -> Option<Arc<CompiledOutput>> {
        self.shard(key.key)
            .touch(key.key)
            .filter(|e| self.verify(e.check == key.check))
            .map(|e| Arc::clone(&e.output))
    }

    /// Whether an entry found under a request's key passed the check-digest
    /// comparison; a failure is a key collision and is counted.
    fn verify(&self, checks_match: bool) -> bool {
        if !checks_match {
            Stats::bump(&self.stats.check_mismatches);
        }
        checks_match
    }

    fn shard(&self, key: u128) -> MutexGuard<'_, Lru<Entry>> {
        // Shard by the top bits: the low bits pick the slot inside the
        // shard's hash map, so both selections stay independent.
        let index = (key >> 96) as usize % self.shards.len();
        self.shards[index].lock().expect("cache shard poisoned")
    }

    /// Classifies a cache miss: follow an existing in-flight compile, serve
    /// the cache entry a just-finished leader landed (double-checked under
    /// the flight-shard lock), or become the key's leader — which requires
    /// an admission token when [`ServiceConfig::max_in_flight`] is set.  A
    /// flight under the key whose check disagrees is a colliding compile:
    /// this leader then runs unregistered beside it, so no follower of
    /// either can receive the other's artifact.
    fn admit(&self, key: Digest) -> Result<Admission<'_>, ServiceError> {
        let mut flights = self.flight_shard(key.key);
        let occupied = match flights.get(&key.key) {
            Some(flight) if self.verify(flight.check == key.check) => {
                return Ok(Admission::Follow(Arc::clone(flight)));
            }
            other => other.is_some(),
        };
        // Double-check the cache while holding the flight-shard lock: a
        // leader inserts into the cache *before* clearing its flight, so a
        // key absent from both maps genuinely needs a fresh compile.  (Lock
        // order is always flight shard → cache shard; nothing acquires them
        // in the opposite order.)
        if let Some(output) = self.cached(key) {
            return Ok(Admission::Hit(output));
        }
        let admitted = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        if self.max_in_flight != 0 && admitted > self.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            Stats::bump(&self.stats.rejected);
            Stats::bump(&self.stats.errors);
            return Err(ServiceError::Overloaded {
                in_flight: admitted - 1,
                cap: self.max_in_flight,
            });
        }
        Stats::bump(&self.stats.misses);
        let flight = Flight::new(key.check);
        if !occupied {
            flights.insert(key.key, Arc::clone(&flight));
        }
        Ok(Admission::Lead(FlightLease {
            service: self,
            key,
            flight,
            published: false,
        }))
    }

    /// Parks on a leader's in-flight slot until its result is published.
    /// While waiting, the follower lends its core to queued pool work
    /// ([`CompilePool::try_help_one`]) — typically the leader's own
    /// multi-start restarts — instead of sleeping.
    fn wait_for_flight(&self, flight: &Flight) -> Result<Arc<CompiledOutput>, ServiceError> {
        loop {
            {
                let state = flight.state.lock().expect("in-flight slot poisoned");
                if let Some(result) = state.as_ref() {
                    return result.clone();
                }
            }
            if self.pool.try_help_one() {
                continue;
            }
            // Nothing to help with right now: park until the leader's
            // notify (with a short timeout so newly queued pool work is
            // picked up promptly).
            let state = flight.state.lock().expect("in-flight slot poisoned");
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            let (state, _) = flight
                .done
                .wait_timeout(state, Duration::from_micros(500))
                .expect("in-flight slot poisoned");
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
        }
    }

    /// Publishes a leader's result to its followers, clears the in-flight
    /// slot and releases the admission token.  Called exactly once per
    /// flight, via [`FlightLease::publish`] or the lease's drop guard.
    fn finish_flight(
        &self,
        key: u128,
        flight: &Arc<Flight>,
        result: Result<Arc<CompiledOutput>, ServiceError>,
    ) {
        {
            let mut flights = self.flight_shard(key);
            // Remove only *this* flight — belt-and-braces against a stale
            // lease racing a successor leader's registration.
            if flights.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                flights.remove(&key);
            }
        }
        *flight.state.lock().expect("in-flight slot poisoned") = Some(result);
        flight.done.notify_all();
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn flight_shard(&self, key: u128) -> MutexGuard<'_, HashMap<u128, Arc<Flight>>> {
        let index = (key >> 96) as usize % self.flights.len();
        self.flights[index]
            .lock()
            .expect("in-flight shard poisoned")
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Compares two compiled artifacts for bit-identity on everything the
/// compiler *decides*: hardware circuit, metrics, basis, placements,
/// compiler name, trial count, degradation rung, deadline and per-pass
/// gate/depth accounting.  The wall-clock *timing* instrumentation
/// (`wall_ms`, `total_ms`, `budget_consumed_ms`) is excluded — it measures
/// the run, not the artifact, and legitimately differs between a cold
/// compile and the compile that populated the cache.
pub fn bit_identical(a: &CompiledOutput, b: &CompiledOutput) -> bool {
    a.compiler == b.compiler
        && a.hardware_circuit == b.hardware_circuit
        && a.metrics == b.metrics
        && a.basis == b.basis
        && a.initial_placement == b.initial_placement
        && a.final_placement == b.final_placement
        && a.report.trials == b.report.trials
        && a.report.rung == b.report.rung
        && a.report.deadline_ms == b.report.deadline_ms
        && a.report.passes.len() == b.report.passes.len()
        && a.report.passes.iter().zip(&b.report.passes).all(|(x, y)| {
            x.name == y.name
                && x.two_qubit_gates_after == y.two_qubit_gates_after
                && x.depth_after == y.depth_after
                && x.gate_delta == y.gate_delta
                && x.depth_delta == y.depth_delta
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_ham::{nnn_ising, trotter_step};

    fn service() -> CompileService {
        CompileService::new(ServiceConfig {
            capacity: 64,
            shards: 4,
            threads: 1,
            max_in_flight: 0,
        })
    }

    #[test]
    fn misses_then_hits_with_shared_storage() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let device = Device::montreal();
        let miss = service.request("2QAN", &circuit, &device).unwrap();
        assert!(!miss.hit);
        assert!(!miss.coalesced);
        assert!(miss.cached);
        assert!(miss.compile_ms > 0.0);
        assert_eq!(miss.queue_depth, 0, "no other compile was in flight");
        let hit = service.request("2QAN", &circuit, &device).unwrap();
        assert!(hit.hit);
        assert!(!hit.coalesced);
        assert_eq!(hit.key, miss.key);
        assert_eq!(hit.compile_ms, 0.0);
        assert_eq!(hit.coalesced_wait_ms, 0.0);
        assert!(Arc::ptr_eq(&hit.output, &miss.output) || bit_identical(&hit.output, &miss.output));
        let stats = service.stats();
        assert_eq!((stats.requests, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn unknown_compilers_are_typed_errors() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(6, 1), 1.0);
        let device = Device::montreal();
        let err = service.request("not-a-compiler", &circuit, &device);
        assert!(matches!(err, Err(ServiceError::UnknownCompiler { .. })));
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn failed_compiles_propagate_and_are_not_cached() {
        let service = service();
        let too_big = trotter_step(&nnn_ising(40, 1), 1.0);
        let device = Device::montreal(); // 27 qubits
        let err = service.request("2QAN", &too_big, &device);
        assert!(matches!(
            err,
            Err(ServiceError::Compile(CompileError::TooManyQubits { .. }))
        ));
        assert!(service.is_empty());
        // The failure is not sticky: the error path never poisons the key.
        let err2 = service.request("2QAN", &too_big, &device);
        assert!(err2.is_err());
        assert_eq!(service.stats().misses, 2);
    }

    #[test]
    fn request_batch_keeps_order_and_mixes_hits_and_misses() {
        let service = service();
        let a = trotter_step(&nnn_ising(7, 1), 1.0);
        let b = trotter_step(&nnn_ising(8, 2), 1.0);
        let device = Device::montreal();
        // Warm `a` only.
        service.request("2QAN", &a, &device).unwrap();
        let responses = service.request_batch(&[
            ServiceRequest {
                compiler: "2QAN",
                circuit: &a,
                device: &device,
            },
            ServiceRequest {
                compiler: "nope",
                circuit: &a,
                device: &device,
            },
            ServiceRequest {
                compiler: "2QAN",
                circuit: &b,
                device: &device,
            },
        ]);
        assert!(responses[0].as_ref().unwrap().hit);
        assert!(matches!(
            responses[1],
            Err(ServiceError::UnknownCompiler { .. })
        ));
        let miss = responses[2].as_ref().unwrap();
        assert!(!miss.hit && miss.cached);
        assert!(miss.compile_ms > 0.0);
        assert!(miss.queue_wait_ms >= 0.0);
    }

    #[test]
    fn response_timing_fields_add_up_for_every_kind_of_response() {
        let service = service();
        let a = trotter_step(&nnn_ising(8, 1), 1.0);
        let b = trotter_step(&nnn_ising(7, 2), 1.0);
        let device = Device::montreal();
        let leader = service.request("2QAN", &a, &device).unwrap();
        let hit = service.request("2QAN", &a, &device).unwrap();
        // A duplicate inside one batch coalesces onto the in-batch leader.
        let batch = service.request_batch(&[&b, &b].map(|circuit| ServiceRequest {
            compiler: "2QAN",
            circuit,
            device: &device,
        }));
        let (batch_leader, follower) = (batch[0].as_ref().unwrap(), batch[1].as_ref().unwrap());
        assert!(hit.hit && !leader.hit && !batch_leader.hit && follower.coalesced);
        assert_eq!(hit.compile_ms, 0.0);
        assert_eq!(hit.queue_wait_ms, hit.wall_ms);
        for response in [&leader, batch_leader] {
            assert!(!response.coalesced && response.compile_ms > 0.0);
            assert!(response.queue_wait_ms + response.compile_ms <= response.wall_ms);
        }
        assert_eq!(follower.compile_ms, 0.0);
        assert!(follower.coalesced_wait_ms <= follower.wall_ms);
        for (response, circuit) in [
            (&leader, &a),
            (&hit, &a),
            (batch_leader, &b),
            (follower, &b),
        ] {
            assert_eq!(
                Some(response.key),
                service.key_for("2QAN", circuit, &device)
            );
        }
    }

    #[test]
    fn device_invalidation_drops_only_that_snapshot() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let montreal = Device::montreal();
        let aspen = Device::aspen();
        service.request("2QAN", &circuit, &montreal).unwrap();
        service.request("2QAN", &circuit, &aspen).unwrap();
        assert_eq!(service.len(), 2);
        assert_eq!(service.invalidate_device(&montreal), 1);
        assert_eq!(service.len(), 1);
        // The aspen artifact is still served from cache.
        assert!(service.request("2QAN", &circuit, &aspen).unwrap().hit);
        assert!(!service.request("2QAN", &circuit, &montreal).unwrap().hit);
    }

    #[test]
    fn key_for_matches_the_served_key_and_rejects_unknown_names() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let device = Device::montreal();
        let key = service.key_for("2QAN", &circuit, &device).unwrap();
        assert_eq!(service.request("2QAN", &circuit, &device).unwrap().key, key);
        assert!(service.key_for("nope", &circuit, &device).is_none());
    }

    /// Turns on the test-only colliding-key mode for the current thread
    /// until dropped.
    struct Colliding;

    impl Colliding {
        fn on() -> Self {
            key::COLLIDE.set(true);
            Self
        }
    }

    impl Drop for Colliding {
        fn drop(&mut self) {
            key::COLLIDE.set(false);
        }
    }

    #[test]
    fn colliding_keys_are_caught_by_the_check_and_served_as_misses() {
        let _colliding = Colliding::on();
        let service = service();
        let device = Device::montreal();
        let a = trotter_step(&nnn_ising(8, 1), 1.0);
        let b = trotter_step(&nnn_ising(7, 2), 1.0);
        let compiler = service.compiler("2QAN").unwrap();
        let (fresh_a, fresh_b) = (
            compiler.compile(&a, &device).unwrap(),
            compiler.compile(&b, &device).unwrap(),
        );
        let mismatches = || service.stats().check_mismatches;

        let first_a = service.request("2QAN", &a, &device).unwrap();
        assert!(!first_a.hit && first_a.cached);
        assert_eq!(mismatches(), 0);
        // Same 128-bit key, different content: the check catches it and `b`
        // compiles instead of being served `a`'s artifact.
        let first_b = service.request("2QAN", &b, &device).unwrap();
        assert_eq!(first_b.key, first_a.key, "every key collides in this mode");
        assert!(!first_b.hit);
        assert!(bit_identical(&first_b.output, &fresh_b));
        assert!(mismatches() > 0);
        // `b` replaced `a` under the shared key: `b` now hits its own
        // artifact, and `a` is a miss again.
        let again_b = service.request("2QAN", &b, &device).unwrap();
        assert!(again_b.hit && Arc::ptr_eq(&again_b.output, &first_b.output));
        let before = mismatches();
        let again_a = service.request("2QAN", &a, &device).unwrap();
        assert!(!again_a.hit && bit_identical(&again_a.output, &fresh_a));
        assert!(mismatches() > before);

        // The placement index holds `a`'s record under the (colliding)
        // stable key: `b`'s recompile must not warm-start from it.
        let before = mismatches();
        let recompiled = service.recompile("2QAN", &b, &device).unwrap();
        assert!(!recompiled.hit && !recompiled.warm);
        assert!(bit_identical(&recompiled.output, &fresh_b));
        assert!(mismatches() > before);

        // In flight: `b` must not follow `a`'s compile of the same key.
        service.clear();
        let batch = service.request_batch(&[&a, &b].map(|circuit| ServiceRequest {
            compiler: "2QAN",
            circuit,
            device: &device,
        }));
        let (batch_a, batch_b) = (batch[0].as_ref().unwrap(), batch[1].as_ref().unwrap());
        assert!(!batch_a.coalesced && !batch_b.coalesced);
        assert!(bit_identical(&batch_a.output, &fresh_a));
        assert!(bit_identical(&batch_b.output, &fresh_b));
    }

    #[test]
    fn threads_racing_on_a_fresh_device_memo_derive_one_key() {
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let compiler = twoqan::TwoQanCompiler::default();
        let device = Device::montreal().with_heterogeneous_calibration(4);
        let barrier = std::sync::Barrier::new(2);
        let keys: Vec<u128> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (
                            cache_key(&compiler, &circuit, &device),
                            stable_key(&compiler, &circuit, &device),
                        )
                    })
                })
                .collect();
            racers
                .into_iter()
                .flat_map(|r| {
                    let (cache, stable) = r.join().unwrap();
                    [cache, stable]
                })
                .collect()
        });
        let rebuilt = Device::montreal().with_heterogeneous_calibration(4);
        let expected = [
            cache_key(&compiler, &circuit, &rebuilt),
            stable_key(&compiler, &circuit, &rebuilt),
        ];
        assert_eq!(keys, [expected, expected].concat());
    }
}
