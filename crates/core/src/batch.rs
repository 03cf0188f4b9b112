//! The parallel batch-compilation driver.
//!
//! Benchmark sweeps compile hundreds of (workload × device × compiler)
//! combinations; [`BatchCompiler`] provisions one shared
//! [`twoqan_pool::CompilePool`] per batch run and fans the job list out over
//! it while keeping the result order identical to the job order (and
//! therefore identical to a serial run), so sweeps stay reproducible
//! regardless of thread count.  The pool is *installed* on every worker —
//! including the submitting thread — so the multi-start Tabu/annealing
//! restarts inside each job reuse the same workers instead of spawning a
//! second nested thread layer: a batch at `--threads N` runs exactly `N`
//! workers, end to end.
//!
//! Every job runs inside a `catch_unwind` isolation boundary
//! ([`compile_isolated`], which the compile service also calls directly): a
//! panicking compiler produces a [`CompileError::Internal`] in that job's
//! result slot instead of unwinding across the scope and sinking the whole
//! batch.  A configurable per-job retry policy
//! ([`BatchCompiler::with_retries`]) re-runs failed jobs a bounded number of
//! times, for transient faults.

use crate::error::CompileError;
use crate::pipeline::{CompiledOutput, Compiler};
use std::panic::{catch_unwind, AssertUnwindSafe};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_pool::CompilePool;

/// One compilation job of a batch: a circuit, a target device and the
/// compiler to run.
#[derive(Clone, Copy)]
pub struct BatchJob<'a> {
    /// The application circuit to compile.
    pub circuit: &'a Circuit,
    /// The target device.
    pub device: &'a Device,
    /// The compiler to run the job through.
    pub compiler: &'a dyn Compiler,
}

impl std::fmt::Debug for BatchJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJob")
            .field("compiler", &self.compiler.name())
            .field("device", &self.device.name())
            .field("qubits", &self.circuit.num_qubits())
            .finish()
    }
}

/// A multi-threaded batch driver with deterministic result ordering.
///
/// Workers claim jobs from a shared counter and write each result into the
/// slot matching its job index, so `compile_batch(jobs)[i]` is always the
/// result of `jobs[i]` — bit-identical to a serial run — independent of the
/// thread count and of scheduling jitter.  The default driver has one
/// worker per available CPU core and no retries.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCompiler {
    threads: usize,
    retries: usize,
}

impl BatchCompiler {
    /// Creates a driver with the given worker count (`0` = one worker per
    /// available CPU core).
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            retries: 0,
        }
    }

    /// Sets the per-job retry budget: a job whose compile fails (typed
    /// error or caught panic) is re-run up to `retries` additional times;
    /// the first success wins, otherwise the *last* failure is reported.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// The worker count a batch of `jobs` jobs would use.
    ///
    /// Clamped to the machine's core count even for explicit requests:
    /// compile work is CPU-bound, so oversubscribing cores only buys
    /// context-switch churn (it is what made the committed 2-worker batch
    /// sweep run *slower* than serial on a small machine).  Also bounded by
    /// the job count — extra workers would have nothing to claim.
    pub fn resolved_threads(&self, jobs: usize) -> usize {
        let cores = twoqan_pool::max_useful_workers();
        let requested = if self.threads == 0 {
            cores
        } else {
            self.threads
        };
        requested.min(cores).min(jobs.max(1)).max(1)
    }

    /// Compiles every job, in parallel, returning one result per job in job
    /// order.
    ///
    /// One [`CompilePool`] is provisioned for the whole batch and installed
    /// on the submitting thread (pool workers install it on themselves), so
    /// the solvers' nested multi-start parallelism shares the same workers
    /// instead of spawning a second thread layer.  An already-installed pool
    /// (a batch nested inside another batch) is reused as-is.
    pub fn compile_batch(
        &self,
        jobs: &[BatchJob<'_>],
    ) -> Vec<Result<CompiledOutput, CompileError>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        if CompilePool::current_workers().is_some() {
            // Nested batch: reuse the outer pool (the caller participates
            // and helps, so this cannot deadlock and spawns nothing).
            return twoqan_pool::run_indexed(jobs.len(), |i| self.compile_with_retries(&jobs[i]));
        }
        let pool = CompilePool::new(self.resolved_threads(jobs.len()));
        // Install on the submitting thread too: it participates in the
        // batch, and its jobs' nested restarts must also reach the pool.
        let guard = pool.install();
        let results = pool.run_indexed(jobs.len(), |i| self.compile_with_retries(&jobs[i]));
        drop(guard);
        results
    }

    /// Runs one job through [`compile_isolated`] with the configured retry
    /// budget.
    fn compile_with_retries(&self, job: &BatchJob<'_>) -> Result<CompiledOutput, CompileError> {
        let mut result = compile_isolated(job);
        for _ in 0..self.retries {
            if result.is_ok() {
                break;
            }
            result = compile_isolated(job);
        }
        result
    }
}

/// Runs one compile attempt behind a `catch_unwind` boundary.  A panic
/// becomes [`CompileError::Internal`] carrying the panic payload; it never
/// unwinds into the caller.  The job runs on the calling thread, under
/// whatever pool it has installed.
pub fn compile_isolated(job: &BatchJob<'_>) -> Result<CompiledOutput, CompileError> {
    catch_unwind(AssertUnwindSafe(|| {
        job.compiler.compile(job.circuit, job.device)
    }))
    .unwrap_or_else(|payload| {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(CompileError::Internal { detail })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TwoQanCompiler, TwoQanConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};
    use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step};

    fn compiler() -> TwoQanCompiler {
        TwoQanCompiler::new(TwoQanConfig {
            mapping_trials: 1,
            ..TwoQanConfig::default()
        })
    }

    #[test]
    fn batch_results_keep_job_order_for_any_thread_count() {
        let device = Device::montreal();
        let circuits: Vec<Circuit> = (0..6)
            .map(|s| trotter_step(&nnn_ising(6 + s % 3, s as u64), 1.0))
            .collect();
        let compiler = compiler();
        let jobs: Vec<BatchJob<'_>> = circuits
            .iter()
            .map(|c| BatchJob {
                circuit: c,
                device: &device,
                compiler: &compiler,
            })
            .collect();
        let _census = CENSUS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let serial = BatchCompiler::new(1).compile_batch(&jobs);
        let parallel = BatchCompiler::new(4).compile_batch(&jobs);
        assert_eq!(serial.len(), jobs.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.metrics, p.metrics, "job {i}");
            assert_eq!(s.hardware_circuit, p.hardware_circuit, "job {i}");
            assert_eq!(s.initial_placement, p.initial_placement, "job {i}");
        }
    }

    #[test]
    fn failing_jobs_report_their_error_in_place() {
        let device = Device::aspen(); // 16 qubits
        let fits = trotter_step(&nnn_ising(8, 1), 1.0);
        let too_big = trotter_step(&nnn_heisenberg(20, 1), 1.0);
        let compiler = compiler();
        let jobs = [
            BatchJob {
                circuit: &fits,
                device: &device,
                compiler: &compiler,
            },
            BatchJob {
                circuit: &too_big,
                device: &device,
                compiler: &compiler,
            },
            BatchJob {
                circuit: &fits,
                device: &device,
                compiler: &compiler,
            },
        ];
        let results = BatchCompiler::new(2).compile_batch(&jobs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CompileError::TooManyQubits { .. })
        ));
        assert!(results[2].is_ok());
    }

    /// Serialises the tests that replace the global panic hook.
    static HOOK_LOCK: Mutex<()> = Mutex::new(());

    /// Serialises the tests that spawn pool workers, so they do not
    /// oversubscribe the machine's cores.
    static CENSUS_LOCK: Mutex<()> = Mutex::new(());

    /// A compiler that panics on every call.
    struct PanickyCompiler;
    impl Compiler for PanickyCompiler {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn compile(
            &self,
            _circuit: &Circuit,
            _device: &Device,
        ) -> Result<CompiledOutput, CompileError> {
            panic!("deliberate test panic: poisoned job");
        }
    }

    /// A compiler that fails `failures` times before delegating to 2QAN.
    struct FlakyCompiler {
        inner: TwoQanCompiler,
        failures: AtomicUsize,
    }
    impl Compiler for FlakyCompiler {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn compile(
            &self,
            circuit: &Circuit,
            device: &Device,
        ) -> Result<CompiledOutput, CompileError> {
            if self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| {
                    (f > 0).then(|| f - 1)
                })
                .is_ok()
            {
                panic!("deliberate transient panic");
            }
            Compiler::compile(&self.inner, circuit, device)
        }
    }

    #[test]
    fn panicking_jobs_become_internal_errors_without_sinking_the_batch() {
        let device = Device::montreal();
        let circuit = trotter_step(&nnn_ising(6, 1), 1.0);
        let good = compiler();
        let bad = PanickyCompiler;
        let jobs = [
            BatchJob {
                circuit: &circuit,
                device: &device,
                compiler: &good,
            },
            BatchJob {
                circuit: &circuit,
                device: &device,
                compiler: &bad,
            },
            BatchJob {
                circuit: &circuit,
                device: &device,
                compiler: &good,
            },
        ];
        // Silence the default panic-hook backtrace noise for the expected panic.
        let _census = CENSUS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let _guard = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results = BatchCompiler::new(2).compile_batch(&jobs);
        std::panic::set_hook(hook);
        assert!(results[0].is_ok());
        match &results[1] {
            Err(CompileError::Internal { detail }) => {
                assert!(detail.contains("poisoned job"), "detail: {detail}");
            }
            other => panic!("expected Internal error, got {other:?}"),
        }
        assert!(results[2].is_ok());
    }

    #[test]
    fn retry_budget_recovers_transient_failures_and_is_bounded() {
        let device = Device::montreal();
        let circuit = trotter_step(&nnn_ising(6, 1), 1.0);
        let _guard = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Two transient failures + two retries → recovered.
        let flaky = FlakyCompiler {
            inner: compiler(),
            failures: AtomicUsize::new(2),
        };
        let jobs = [BatchJob {
            circuit: &circuit,
            device: &device,
            compiler: &flaky,
        }];
        let results = BatchCompiler::new(1).with_retries(2).compile_batch(&jobs);
        assert!(results[0].is_ok(), "{:?}", results[0].as_ref().err());
        // Three failures + one retry → still fails, with a typed error.
        let flaky = FlakyCompiler {
            inner: compiler(),
            failures: AtomicUsize::new(3),
        };
        let jobs = [BatchJob {
            circuit: &circuit,
            device: &device,
            compiler: &flaky,
        }];
        let results = BatchCompiler::new(1).with_retries(1).compile_batch(&jobs);
        std::panic::set_hook(hook);
        assert!(matches!(results[0], Err(CompileError::Internal { .. })));
        // The retry budget was respected: only 2 attempts consumed 2 of the
        // 3 planted failures.
        assert_eq!(flaky.failures.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batch_spawns_exactly_the_requested_workers_with_no_nested_threads() {
        // The restarts inside each job are parallel by default; before the
        // shared pool they spawned their own scoped threads *under* the
        // batch workers.  Now a batch at `--threads N` must account for
        // exactly N − 1 spawned OS threads (the caller is the N-th worker),
        // with the nested multi-start parallelism riding the same pool.
        let device = Device::montreal();
        let circuits: Vec<Circuit> = (0..4)
            .map(|s| trotter_step(&nnn_ising(7 + s % 2, s as u64), 1.0))
            .collect();
        let compiler = TwoQanCompiler::new(TwoQanConfig::default());
        let jobs: Vec<BatchJob<'_>> = circuits
            .iter()
            .map(|c| BatchJob {
                circuit: c,
                device: &device,
                compiler: &compiler,
            })
            .collect();
        let _census = CENSUS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        for threads in [1usize, 2, 4] {
            let batch = BatchCompiler::new(threads);
            // The resolved count is the *request* clamped to cores and jobs;
            // the pool then spawns resolved − 1 threads (caller included).
            let resolved = batch.resolved_threads(jobs.len());
            // Count only the threads this batch spawned: the global census
            // also sees whatever concurrently running tests spawn.
            let (results, spawned) = twoqan_pool::count_spawns(|| batch.compile_batch(&jobs));
            assert_eq!(
                spawned,
                resolved - 1,
                "--threads {threads} resolves to {resolved} worker(s) and must spawn exactly {}",
                resolved - 1
            );
            assert!(results.iter().all(Result::is_ok));
        }
    }

    #[test]
    fn thread_resolution_is_bounded_by_jobs_and_cores() {
        let cores = twoqan_pool::max_useful_workers();
        let b = BatchCompiler::new(8);
        assert_eq!(b.resolved_threads(3), 3.min(cores));
        assert_eq!(b.resolved_threads(100), 8.min(cores));
        assert_eq!(BatchCompiler::new(1).resolved_threads(10), 1);
        // Explicit requests never oversubscribe the machine…
        assert_eq!(b.resolved_threads(usize::MAX), 8.min(cores));
        assert!(BatchCompiler::new(1024).resolved_threads(1024) <= cores);
        // …and the default (0 = auto) resolves to at most one per core.
        let auto = BatchCompiler::default().resolved_threads(64);
        assert!((1..=cores.min(64)).contains(&auto));
        assert!(BatchCompiler::new(0).resolved_threads(0) >= 1);
        assert!(BatchCompiler::default().compile_batch(&[]).is_empty());
    }
}
