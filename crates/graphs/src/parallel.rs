//! Deterministic multi-start execution for the QAP solvers.
//!
//! Both Tabu search and simulated annealing run several independent,
//! seeded restarts and keep the best result.  The restarts are embarrassingly
//! parallel, so [`run_indexed`] fans them out; because every restart derives
//! its own RNG from a pre-drawn seed and results are collected *by restart
//! index*, the outcome is bit-identical to the serial execution regardless
//! of thread count or scheduling.
//!
//! The restarts run on the compile pool: the one installed on the current
//! thread (the batch driver and the compile service install theirs), else
//! the process-wide default pool (see [`twoqan_pool::run_indexed`]).  No
//! thread is spawned here, and nested restarts — inside a batch job running
//! on a pool worker — reuse the same workers.

/// The compile pool's core count, for callers that size their own work
/// partitions (the state-vector kernels).
pub use twoqan_pool::max_useful_workers;

/// Runs `f(0), f(1), …, f(count - 1)` and returns the results in index
/// order.
///
/// With `parallel == false` the indices run serially on the caller's
/// thread; otherwise [`twoqan_pool::run_indexed`] runs them on the installed
/// pool, else on the default pool.  The returned vector is identical in
/// every mode (index `k` always holds `f(k)`), so callers get determinism
/// for free as long as `f` itself is a pure function of its index.
pub fn run_indexed<T, F>(count: usize, parallel: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if parallel {
        twoqan_pool::run_indexed(count, f)
    } else {
        (0..count).map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tabu_search, DistanceMatrix, Graph, QapProblem, TabuConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use twoqan_pool::count_spawns;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = run_indexed(17, false, |k| k * k);
        let parallel = run_indexed(17, true, |k| k * k);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn zero_and_one_counts_work() {
        assert_eq!(run_indexed(0, true, |k| k), Vec::<usize>::new());
        assert_eq!(run_indexed(1, true, |k| k + 1), vec![1]);
    }

    #[test]
    fn standalone_parallel_calls_spawn_nothing_but_the_default_pool_once() {
        let hw = DistanceMatrix::floyd_warshall(&Graph::grid(3, 3));
        let interactions: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 1)).collect();
        let problem = QapProblem::from_interactions(9, &interactions, &hw);
        let config = TabuConfig {
            restarts: 4,
            parallel: true,
            ..TabuConfig::default()
        };
        let solve = || tabu_search(&problem, &config, &mut StdRng::seed_from_u64(7));
        let ((first, second), spawned) = count_spawns(|| {
            let first = solve();
            // The first call may have created the default pool, which is
            // never charged to a caller; the second must find it in place.
            let (second, spawned) = count_spawns(solve);
            assert_eq!(spawned, 0);
            (first, second)
        });
        assert_eq!(spawned, 0);
        assert_eq!(first, second);
    }

    #[test]
    fn nested_standalone_batches_spawn_nothing() {
        let (sums, spawned) = count_spawns(|| {
            run_indexed(4, true, |i| {
                run_indexed(4, true, |j| i * 4 + j).iter().sum::<usize>()
            })
        });
        assert_eq!(spawned, 0);
        assert_eq!(sums, vec![6, 22, 38, 54]);
    }
}
