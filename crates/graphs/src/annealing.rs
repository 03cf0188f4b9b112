//! Simulated annealing for the Quadratic Assignment Problem.
//!
//! The paper (§III-A) notes that "other heuristics such as simulated
//! annealing … can be also used" for the qubit-mapping QAP.  This module
//! provides that alternative so the mapping pass can be configured with
//! either solver (and so the ablation benches can compare them).
//!
//! Like the Tabu solver, annealing runs independent restart schedules on a
//! thread pool with per-restart seeds pre-drawn from the caller's RNG, so
//! results are bit-identical for a fixed seed regardless of thread count —
//! and, once the chain has cooled enough that most proposals are rejected,
//! evaluates moves through the same incrementally maintained
//! [`DeltaTable`], so a proposal costs O(1) instead of the O(n) of
//! recomputing `swap_delta` from scratch.

use crate::budget::SolverBudget;
use crate::parallel::run_indexed;
use crate::qap::QapProblem;
use crate::tabu::{DeltaTable, WarmStart};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the simulated-annealing solver.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingConfig {
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied after every sweep.
    pub cooling_rate: f64,
    /// Number of proposed moves per temperature level (a "sweep").
    pub moves_per_temperature: usize,
    /// Stop when the temperature drops below this value.
    pub final_temperature: f64,
    /// Number of independent annealing schedules; the best result is kept.
    pub restarts: usize,
    /// Run the restart schedules on a thread pool (bit-identical to serial
    /// execution for a fixed seed).
    pub parallel: bool,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        Self {
            initial_temperature: 10.0,
            cooling_rate: 0.95,
            moves_per_temperature: 100,
            final_temperature: 1e-3,
            restarts: 1,
            parallel: true,
        }
    }
}

/// Result of a simulated-annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingResult {
    /// Best assignment found (facility → location).
    pub assignment: Vec<usize>,
    /// Cost of the best assignment.
    pub cost: f64,
    /// Number of accepted moves (in the restart that produced the result).
    pub accepted_moves: usize,
}

/// Runs simulated annealing on a QAP instance with no budget: shorthand
/// for [`simulated_annealing_with`].
///
/// Each restart anneals from a fresh random start; the best result over all
/// restarts is returned (ties broken in favour of the earlier restart).
pub fn simulated_annealing<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &AnnealingConfig,
    rng: &mut R,
) -> AnnealingResult {
    simulated_annealing_with(problem, config, &SolverBudget::unlimited(), None, rng)
}

/// Runs simulated annealing under a cooperative budget, optionally
/// warm-started.
///
/// Schedule slot 0 of a warm run anneals from `warm.assignment`; every other
/// slot anneals from a fresh random start, with seeds pre-drawn from `rng`.
/// Like [`tabu_search_with`](crate::tabu::tabu_search_with), a warm result
/// never costs more than its seed (every schedule's best-so-far starts at
/// its start, and the reduction keeps the minimum with ties broken in favour
/// of the warm slot).
///
/// On budget expiry each schedule stops at its next temperature-sweep
/// boundary and returns its best-so-far assignment, which is valid from the
/// very first start.
pub fn simulated_annealing_with<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &AnnealingConfig,
    budget: &SolverBudget,
    warm: Option<&WarmStart>,
    rng: &mut R,
) -> AnnealingResult {
    let restarts = config.restarts.max(1);
    let seeds: Vec<u64> = (0..restarts).map(|_| rng.gen::<u64>()).collect();
    let results = run_indexed(restarts, config.parallel, |k| {
        let mut restart_rng = StdRng::seed_from_u64(seeds[k]);
        let start = match warm {
            Some(warm) if k == 0 => warm.assignment.clone(),
            _ => problem.random_assignment(&mut restart_rng),
        };
        annealing_schedule(problem, config, start, budget, &mut restart_rng)
    });
    results
        .into_iter()
        .reduce(|best, r| if r.cost < best.cost { r } else { best })
        .expect("at least one restart is always performed")
}

/// Runs one annealing schedule from `start` under a cooperative budget,
/// checked once per temperature sweep.  The best-so-far assignment starts at
/// `start`, so the result never costs more than the start itself.
fn annealing_schedule<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &AnnealingConfig,
    start: Vec<usize>,
    budget: &SolverBudget,
    rng: &mut R,
) -> AnnealingResult {
    assert!(
        problem.is_valid_assignment(&start),
        "annealing requires a valid starting assignment"
    );
    let n = problem.num_facilities();
    let mut current = start;
    let mut current_cost = problem.cost(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut accepted = 0usize;

    if n < 2 {
        return AnnealingResult {
            assignment: current,
            cost: current_cost,
            accepted_moves: 0,
        };
    }

    // O(1) amortized move evaluation via the Tabu solver's DeltaTable.
    // The table read is O(1) but every *accepted* move pays the Taillard
    // update — O(n²) on dense flows, typically O(n·deg) on the sparse flows
    // of 2-local circuits — whereas recomputing `swap_delta` directly is
    // O(n) per proposal with no update cost.  The switch rule below is
    // sized for the dense update: the table pays off once acceptance falls
    // below ~1/n — which the cooling schedule guarantees eventually, but
    // which is false by design in the hot phase.  Run table-free while the
    // chain is hot and switch (once, deterministically) as soon as a
    // sweep's acceptance rate drops under 1/n.  The rule decides which
    // moves are proposed against which deltas, so it stays as it is: a
    // cheaper update leaves every annealing result unchanged.
    let mut deltas: Option<DeltaTable> = None;

    let mut temperature = config.initial_temperature.max(config.final_temperature);
    while temperature > config.final_temperature {
        if budget.expired() {
            break;
        }
        let mut accepted_this_sweep = 0usize;
        let mut evaluated_this_sweep = 0usize;
        for _ in 0..config.moves_per_temperature {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n);
            if i == j {
                j = (j + 1) % n;
            }
            if !problem.is_active(i) && !problem.is_active(j) {
                // Dummy–dummy exchange: always a zero-cost no-op, skip it.
                continue;
            }
            evaluated_this_sweep += 1;
            let delta = match &deltas {
                Some(table) => table.delta(i.min(j), i.max(j)),
                None => problem.swap_delta(&current, i, j),
            };
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                current.swap(i, j);
                current_cost += delta;
                if let Some(table) = &mut deltas {
                    table.apply_swap(problem, &current, i, j);
                }
                accepted += 1;
                accepted_this_sweep += 1;
                if current_cost < best_cost - 1e-12 {
                    best_cost = current_cost;
                    best.copy_from_slice(&current);
                }
            }
        }
        temperature *= config.cooling_rate;
        if best_cost <= 1e-12 {
            break;
        }
        // Acceptance is measured against *evaluated* proposals only —
        // dummy–dummy skips never reach the accept test and would deflate
        // the rate on heavily padded instances.
        if deltas.is_none() && accepted_this_sweep * n < evaluated_this_sweep {
            deltas = Some(DeltaTable::new(problem, &current));
        }
    }

    AnnealingResult {
        assignment: best,
        cost: best_cost,
        accepted_moves: accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::graph::Graph;

    fn line_on_grid(n: usize, rows: usize, cols: usize) -> QapProblem {
        let hw = DistanceMatrix::floyd_warshall(&Graph::grid(rows, cols));
        let interactions: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        QapProblem::from_interactions(n, &interactions, &hw)
    }

    #[test]
    fn finds_optimal_line_placement_on_small_grid() {
        let p = line_on_grid(6, 2, 3);
        let mut rng = StdRng::seed_from_u64(23);
        let r = simulated_annealing(&p, &AnnealingConfig::default(), &mut rng);
        assert_eq!(r.cost, 10.0);
        assert!(p.is_valid_assignment(&r.assignment));
        assert!(r.accepted_moves > 0);
    }

    #[test]
    fn never_returns_worse_than_reported_cost() {
        let p = line_on_grid(8, 3, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let r = simulated_annealing(&p, &AnnealingConfig::default(), &mut rng);
        assert!((p.cost(&r.assignment) - r.cost).abs() < 1e-9);
    }

    #[test]
    fn single_facility_is_trivial() {
        let hw = DistanceMatrix::floyd_warshall(&Graph::path(2));
        let p = QapProblem::from_interactions(1, &[], &hw);
        let mut rng = StdRng::seed_from_u64(1);
        let r = simulated_annealing(&p, &AnnealingConfig::default(), &mut rng);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.accepted_moves, 0);
    }

    #[test]
    fn short_schedule_still_produces_valid_assignment() {
        let p = line_on_grid(9, 3, 3);
        let config = AnnealingConfig {
            initial_temperature: 1.0,
            cooling_rate: 0.5,
            moves_per_temperature: 10,
            final_temperature: 0.5,
            ..AnnealingConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let r = simulated_annealing(&p, &config, &mut rng);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn multi_start_parallel_and_serial_agree() {
        let p = line_on_grid(8, 3, 4);
        let config = AnnealingConfig {
            restarts: 5,
            ..AnnealingConfig::default()
        };
        for seed in 0..5 {
            let serial = simulated_annealing(
                &p,
                &AnnealingConfig {
                    parallel: false,
                    ..config.clone()
                },
                &mut StdRng::seed_from_u64(seed),
            );
            let parallel = simulated_annealing(
                &p,
                &AnnealingConfig {
                    parallel: true,
                    ..config.clone()
                },
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(serial, parallel, "seed {seed} diverged across thread modes");
        }
    }

    #[test]
    fn expired_budget_returns_a_valid_assignment_immediately() {
        use std::time::Duration;
        let p = line_on_grid(9, 3, 3);
        let budget = SolverBudget::with_deadline(Duration::ZERO);
        let mut rng = StdRng::seed_from_u64(8);
        let r = simulated_annealing_with(&p, &AnnealingConfig::default(), &budget, None, &mut rng);
        assert_eq!(r.accepted_moves, 0);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn unlimited_budget_matches_the_unbudgeted_search() {
        let p = line_on_grid(8, 3, 3);
        let plain = simulated_annealing(
            &p,
            &AnnealingConfig::default(),
            &mut StdRng::seed_from_u64(13),
        );
        let budgeted = simulated_annealing_with(
            &p,
            &AnnealingConfig::default(),
            &SolverBudget::unlimited(),
            None,
            &mut StdRng::seed_from_u64(13),
        );
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let p = line_on_grid(9, 3, 3);
        let one = simulated_annealing(
            &p,
            &AnnealingConfig {
                restarts: 1,
                ..AnnealingConfig::default()
            },
            &mut StdRng::seed_from_u64(6),
        );
        let four = simulated_annealing(
            &p,
            &AnnealingConfig {
                restarts: 4,
                ..AnnealingConfig::default()
            },
            &mut StdRng::seed_from_u64(6),
        );
        // Both runs draw their restart seeds from the same stream, so the
        // 4-restart run's first schedule is exactly the 1-restart run; the
        // extra schedules can only improve on it.
        assert!(p.is_valid_assignment(&one.assignment));
        assert!(p.is_valid_assignment(&four.assignment));
        assert!(four.cost <= one.cost);
    }

    #[test]
    fn warm_start_never_loses_to_its_seed() {
        let p = line_on_grid(9, 4, 4);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = p.random_assignment(&mut rng);
            let start_cost = p.cost(&start);
            let warm = WarmStart::new(start);
            let r = simulated_annealing_with(
                &p,
                &AnnealingConfig::default(),
                &SolverBudget::unlimited(),
                Some(&warm),
                &mut rng,
            );
            assert!(r.cost <= start_cost, "seed {seed}: warm lost to its seed");
            assert!(p.is_valid_assignment(&r.assignment));
        }
    }

    #[test]
    fn warm_parallel_and_serial_restarts_are_bit_identical() {
        let p = line_on_grid(8, 3, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let warm = WarmStart::new(p.random_assignment(&mut rng));
        let config = AnnealingConfig {
            restarts: 4,
            ..AnnealingConfig::default()
        };
        for seed in 0..4 {
            let serial = simulated_annealing_with(
                &p,
                &AnnealingConfig {
                    parallel: false,
                    ..config.clone()
                },
                &SolverBudget::unlimited(),
                Some(&warm),
                &mut StdRng::seed_from_u64(seed),
            );
            let parallel = simulated_annealing_with(
                &p,
                &AnnealingConfig {
                    parallel: true,
                    ..config.clone()
                },
                &SolverBudget::unlimited(),
                Some(&warm),
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(serial, parallel, "seed {seed} diverged across thread modes");
        }
    }
}
