//! Tabu search for the Quadratic Assignment Problem.
//!
//! §III-A of the paper: "QAP is a NP-hard problem and we use the Tabu search
//! heuristic algorithm to efficiently find good qubit mappings".  This is a
//! classic swap-neighbourhood Tabu search with an aspiration criterion:
//! recently swapped facility pairs are forbidden for a configurable tenure
//! unless the move improves on the best cost seen so far.
//!
//! Two things make it fast:
//!
//! * a Taillard-style **delta table** — the cost change of every candidate
//!   swap is computed once up front and then updated incrementally after
//!   each accepted move (O(1) for pairs not touching the swapped facilities,
//!   O(n) for the O(n) pairs that do), so one iteration costs O(n²) instead
//!   of the O(n³) of re-deriving every swap delta from scratch;
//! * **parallel restarts** — the independent random restarts run on a thread
//!   pool with per-restart seeds pre-drawn from the caller's RNG, so results
//!   are bit-identical for a fixed seed regardless of thread count.

use crate::budget::SolverBudget;
use crate::parallel::run_indexed;
use crate::qap::QapProblem;
use crate::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the Tabu search.
#[derive(Debug, Clone, PartialEq)]
pub struct TabuConfig {
    /// Maximum number of iterations (each iteration evaluates the whole swap
    /// neighbourhood).
    pub max_iterations: usize,
    /// Number of iterations a swapped pair stays tabu.
    pub tenure: usize,
    /// Stop early after this many iterations without improvement.
    pub stall_limit: usize,
    /// Number of random restarts; the best result over all restarts is kept.
    pub restarts: usize,
    /// Run the restarts on a thread pool.  The result is bit-identical to
    /// the serial execution for a fixed seed; disable only to keep the
    /// search on the caller's thread.
    pub parallel: bool,
}

impl Default for TabuConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tenure: 8,
            stall_limit: 60,
            restarts: 2,
            parallel: true,
        }
    }
}

/// Result of a Tabu search run.
#[derive(Debug, Clone, PartialEq)]
pub struct TabuResult {
    /// Best assignment found (facility → location).
    pub assignment: Vec<usize>,
    /// Cost of the best assignment.
    pub cost: f64,
    /// Total number of neighbourhood iterations performed.
    pub iterations: usize,
}

/// Runs Tabu search on a QAP instance starting from random assignments,
/// with no budget: shorthand for [`tabu_search_with`].
///
/// Returns the best assignment found across all restarts (ties broken in
/// favour of the earlier restart).  The search is deterministic for a fixed
/// random number generator state, whether or not restarts run in parallel.
pub fn tabu_search<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &TabuConfig,
    rng: &mut R,
) -> TabuResult {
    tabu_search_with(problem, config, &SolverBudget::unlimited(), None, rng)
}

/// Runs warm-started Tabu search with no budget: shorthand for
/// [`tabu_search_with`] with `Some(warm)`.
pub fn tabu_search_warm<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &TabuConfig,
    warm: &WarmStart,
    rng: &mut R,
) -> TabuResult {
    tabu_search_with(problem, config, &SolverBudget::unlimited(), Some(warm), rng)
}

/// Runs Tabu search under a cooperative budget, optionally warm-started.
///
/// One seed per restart is pre-drawn from `rng`, so the restart outcomes are
/// independent of execution order and thread count.  Every restart starts
/// from a random assignment drawn from its seed — except restart slot 0 of a
/// warm search, which starts from `warm.assignment` and ignores its seed.
/// A single-restart warm search is therefore a plain descent from the seed.
///
/// The result never costs more than the warm seed: slot 0's best-so-far
/// starts at the seed, and the cross-restart reduction keeps the minimum
/// (ties broken in favour of the earlier slot).
///
/// The expiry check on an unlimited budget never reads the clock.  On expiry
/// each restart stops at its next iteration boundary and returns its
/// best-so-far assignment — the starting assignment is always valid, so the
/// result is valid no matter how early the budget runs out.
pub fn tabu_search_with<R: Rng + ?Sized>(
    problem: &QapProblem,
    config: &TabuConfig,
    budget: &SolverBudget,
    warm: Option<&WarmStart>,
    rng: &mut R,
) -> TabuResult {
    let restarts = config.restarts.max(1);
    let seeds: Vec<u64> = (0..restarts).map(|_| rng.gen::<u64>()).collect();
    let results = run_indexed(restarts, config.parallel, |k| {
        let start = match warm {
            Some(warm) if k == 0 => warm.assignment.clone(),
            _ => problem.random_assignment(&mut StdRng::seed_from_u64(seeds[k])),
        };
        tabu_core(problem, start, config, budget)
    });
    results
        .into_iter()
        .reduce(|best, r| if r.cost < best.cost { r } else { best })
        .expect("at least one restart is always performed")
}

/// How many scan/build rows are processed between cooperative budget
/// checks — one "tile" of the blocked sweep.
const BUDGET_CHECK_ROWS: usize = 32;

/// Incrementally maintained swap-delta table over facility pairs `i < j`.
///
/// `delta(i, j)` always equals `QapProblem::swap_delta(&current, i, j)` for
/// the solver's current assignment; [`DeltaTable::apply_swap`] keeps that
/// invariant after an accepted move.  Pairs of two inactive (dummy
/// padding) facilities are excluded: their delta is identically zero and
/// swapping them never helps, so the neighbourhood scan skips them — each
/// row's candidate partners are its *active span*
/// ([`QapProblem::scan_span`]).
///
/// The table is the 95% hot path of a compile, so it is built for streaming:
///
/// * `dloc` caches the assignment-permuted distance matrix
///   (`dloc[r·n + k] = d(φ(r), φ(k))`), turning every delta recomputation
///   into a gather-free dot product over four contiguous rows
///   ([`crate::simd::delta_dot`]);
/// * [`DeltaTable::apply_swap`] applies the Taillard update as a rank-1
///   row sweep (`(sg[i] − sg[j])·(h[i] − h[j])` from two O(n) difference
///   vectors) via the explicit-SIMD seam ([`crate::simd::update_row`]);
/// * each row's minimum is cached while its data is hot (`row_min`), giving
///   the neighbourhood scan a lower bound to early-abort whole rows.
#[derive(Debug, Clone)]
pub struct DeltaTable {
    n: usize,
    /// Upper-triangle swap deltas in a full row-major `n × n` buffer.
    delta: Vec<f64>,
    /// Assignment-permuted distances: `dloc[r·n + k] = d(φ(r), φ(k))`.
    dloc: Vec<f64>,
    /// `row_min[i] = min over j ∈ (i, span(i)) of delta(i, j)`; `+∞` for
    /// empty rows.  A conservative lower bound for the early-abort scan
    /// (it ignores tabu status, so it never overestimates).
    row_min: Vec<f64>,
    /// Scratch for [`DeltaTable::apply_swap`]: `sg`, `h`, `sg·h`.
    scratch: Vec<f64>,
}

impl DeltaTable {
    /// Builds the table for `assignment` (O(n³), but streaming + SIMD).
    pub fn new(problem: &QapProblem, assignment: &[usize]) -> Self {
        Self::new_budgeted(problem, assignment, &SolverBudget::unlimited())
            .expect("an unlimited budget never expires")
    }

    /// Builds the table under a cooperative budget, checked once per
    /// `BUDGET_CHECK_ROWS`-row tile.  Returns `None` if the budget expires
    /// mid-build so deadline-limited solvers can fall back to best-so-far
    /// without paying for the rest of the O(n³) build.
    pub fn new_budgeted(
        problem: &QapProblem,
        assignment: &[usize],
        budget: &SolverBudget,
    ) -> Option<Self> {
        let n = problem.num_facilities();
        let mut dloc = vec![0.0; n * n];
        for (r, row) in dloc.chunks_exact_mut(n).enumerate() {
            let drow = problem.distance_row(assignment[r]);
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = drow[assignment[k]];
            }
        }
        let mut delta = vec![0.0; n * n];
        let mut row_min = vec![f64::INFINITY; n];
        for i in 0..n {
            if i % BUDGET_CHECK_ROWS == 0 && budget.expired() {
                return None;
            }
            let span = problem.scan_span(i);
            let lo = i + 1;
            if lo >= span {
                continue;
            }
            for j in lo..span {
                delta[i * n + j] = delta_pair(problem, &dloc, n, i, j);
            }
            row_min[i] = simd::row_min(&delta[i * n + lo..i * n + span]);
        }
        Some(Self {
            n,
            delta,
            dloc,
            row_min,
            scratch: vec![0.0; 3 * n],
        })
    }

    /// The cached cost change of exchanging facilities `i` and `j`
    /// (requires `i < j`).
    #[inline]
    pub fn delta(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < j);
        self.delta[i * self.n + j]
    }

    /// Lower bound on `delta(i, j)` over row `i`'s active span (`+∞` for
    /// rows with no candidate partner).
    #[inline]
    pub fn row_lower_bound(&self, i: usize) -> f64 {
        self.row_min[i]
    }

    /// Updates the table after the swap of facilities `u` and `v` has been
    /// applied to `assignment` (which must already reflect the swap).
    ///
    /// Pairs disjoint from `{u, v}` get the O(1) Taillard update, applied as
    /// a SIMD rank-1 row sweep; the O(n) pairs touching `u` or `v` are
    /// recomputed as streaming dot products, for an O(n²) total — the same
    /// order as one neighbourhood scan.
    pub fn apply_swap(&mut self, problem: &QapProblem, assignment: &[usize], u: usize, v: usize) {
        let n = self.n;
        debug_assert!(u != v && u < n && v < n);
        debug_assert_eq!(assignment.len(), n);
        let (u, v) = (u.min(v), u.max(v));

        // 1. Re-permute the cached distance matrix: swapping facilities u, v
        //    permutes dloc by the transposition (u v) on both axes.
        for r in 0..n {
            self.dloc.swap(r * n + u, r * n + v);
        }
        let (head, tail) = self.dloc.split_at_mut(v * n);
        head[u * n..(u + 1) * n].swap_with_slice(&mut tail[..n]);
        debug_assert_eq!(
            self.dloc[u * n + v],
            problem.distance(assignment[u], assignment[v])
        );

        // 2. Difference vectors for the rank-1 Taillard update: for any pair
        //    {i, j} disjoint from {u, v},
        //    Δ'(i, j) = Δ(i, j) + (sg[i] − sg[j])·(h[i] − h[j])
        //    with sg[i] = sym(i, u) − sym(i, v) (flow side, rows + columns
        //    folded through the symmetric sums) and h[i] = d(φ(i), a) −
        //    d(φ(i), b) (distance side; a/b are u/v's pre-swap locations,
        //    i.e. φ(v)/φ(u) *after* the swap — dloc columns v/u).
        let (sg, rest) = self.scratch.split_at_mut(n);
        let (h, sgh) = rest.split_at_mut(n);
        for i in 0..n {
            let sym_i = problem.sym_row(i);
            sg[i] = sym_i[u] - sym_i[v];
            h[i] = self.dloc[i * n + v] - self.dloc[i * n + u];
            sgh[i] = sg[i] * h[i];
        }

        // 3. Sweep the rows.  Inactive-inactive pairs stay at exactly 0.0:
        //    dummy facilities have all-zero sym rows, so sg (and sgh) vanish
        //    and the blanket update adds 0.0·(h[i] − h[j]) = ±0.0.
        for i in 0..n {
            let span = problem.scan_span(i);
            let lo = i + 1;
            if lo >= span {
                continue;
            }
            let row = &mut self.delta[i * n + lo..i * n + span];
            if i == u || i == v {
                for (off, slot) in row.iter_mut().enumerate() {
                    *slot = delta_pair(problem, &self.dloc, n, i, lo + off);
                }
            } else {
                simd::update_row(
                    row,
                    &sg[lo..span],
                    &h[lo..span],
                    &sgh[lo..span],
                    sg[i],
                    h[i],
                );
                // The blanket update is wrong for the two recompute columns;
                // overwrite them with exact streaming recomputations.
                if u > i && u < span {
                    self.delta[i * n + u] = delta_pair(problem, &self.dloc, n, i, u);
                }
                if v > i && v < span {
                    self.delta[i * n + v] = delta_pair(problem, &self.dloc, n, i, v);
                }
            }
            self.row_min[i] = simd::row_min(&self.delta[i * n + lo..i * n + span]);
        }
    }
}

/// Streaming recomputation of `QapProblem::swap_delta(φ, i, j)` from the
/// permuted distance cache:
/// `Σ_{k ≠ i,j} (sym_i[k] − sym_j[k])·(dloc_j[k] − dloc_i[k])` (the direct
/// `{i, j}` term cancels because hardware distance matrices are symmetric).
/// Exact — not merely close — on integer-valued matrices, since every
/// intermediate is an exactly-representable integer.
#[inline]
fn delta_pair(problem: &QapProblem, dloc: &[f64], n: usize, i: usize, j: usize) -> f64 {
    let sym_i = problem.sym_row(i);
    let sym_j = problem.sym_row(j);
    let dloc_i = &dloc[i * n..(i + 1) * n];
    let dloc_j = &dloc[j * n..(j + 1) * n];
    let full = simd::delta_dot(sym_i, sym_j, dloc_j, dloc_i);
    let at_i = (sym_i[i] - sym_j[i]) * (dloc_j[i] - dloc_i[i]);
    let at_j = (sym_i[j] - sym_j[j]) * (dloc_j[j] - dloc_i[j]);
    full - at_i - at_j
}

/// Outcome of one neighbourhood scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanOutcome {
    /// Best admissible move `(i, j, delta)` under the usual Tabu rules.
    Move(usize, usize, f64),
    /// No admissible move exists (everything tabu without aspiration).
    Exhausted,
    /// The solver budget expired mid-scan; stop and keep best-so-far.
    Expired,
}

/// Blocked, early-aborting neighbourhood scan over the cached delta table.
///
/// Semantically identical to [`select_best_move_reference`] (same move, same
/// delta, same tie-breaks) whenever the budget does not expire.  Two filters
/// cut the scanned volume:
///
/// 1. **Best-bound-first incumbent seeding** — the row with the globally
///    smallest cached lower bound ([`DeltaTable::row_lower_bound`]) is
///    scanned first, so the incumbent is near-optimal before the index-order
///    sweep begins.  This pays off most on warm-started searches sitting in a
///    local optimum, where almost every row's bound is non-negative.
/// 2. **Per-row early abort** — a row is skipped when its lower bound (a min
///    over a *superset* of the admissible moves, so never an overestimate)
///    proves it cannot beat the incumbent, nor tie it at a
///    lexicographically smaller pair.
///
/// Candidate replacement is tie-aware (`delta < d`, or `delta == d` at a
/// lex-smaller `(i, j)`), which makes the result order-independent and equal
/// to the reference scan's first-wins winner.  The budget is checked once
/// per `BUDGET_CHECK_ROWS`-row tile.
pub fn select_best_move(
    table: &DeltaTable,
    problem: &QapProblem,
    tabu_until: &[usize],
    iter: usize,
    current_cost: f64,
    best_cost: f64,
    budget: &SolverBudget,
) -> ScanOutcome {
    let n = problem.num_facilities();
    if budget.expired() {
        return ScanOutcome::Expired;
    }
    let mut best: Option<(usize, usize, f64)> = None;
    let scan_row = |i: usize, best: &mut Option<(usize, usize, f64)>| {
        let span = problem.scan_span(i);
        let lo = i + 1;
        if lo >= span {
            return;
        }
        let i_active = problem.is_active(i);
        for j in lo..span {
            // The span truncates dummy rows at the last active facility, but
            // dummy partners *below* it still need the reference's
            // dummy-dummy exclusion.
            if !i_active && !problem.is_active(j) {
                continue;
            }
            let delta = table.delta(i, j);
            let is_tabu = tabu_until[i * n + j] > iter;
            let aspires = current_cost + delta < best_cost - 1e-12;
            if is_tabu && !aspires {
                continue;
            }
            let replace = match *best {
                None => true,
                Some((bi, bj, d)) => delta < d || (delta == d && (i, j) < (bi, bj)),
            };
            if replace {
                *best = Some((i, j, delta));
            }
        }
    };
    // Seed the incumbent from the most promising row so the per-row filter
    // below starts strong.  O(n) to find, one row to scan.
    let mut seed_row = None;
    let mut seed_bound = f64::INFINITY;
    for i in 0..n {
        let bound = table.row_lower_bound(i);
        if bound < seed_bound {
            seed_bound = bound;
            seed_row = Some(i);
        }
    }
    if let Some(s) = seed_row {
        scan_row(s, &mut best);
    }
    for i in 0..n {
        if i % BUDGET_CHECK_ROWS == 0 && budget.expired() {
            return ScanOutcome::Expired;
        }
        if Some(i) == seed_row {
            continue;
        }
        if let Some((bi, _, d)) = best {
            let bound = table.row_lower_bound(i);
            // `bound > d`: every move in the row is strictly worse.
            // `bound == d && i > bi`: a tie here loses the lex tie-break.
            // `bound == d && i < bi` must still be scanned — it may hold an
            // equal-delta move at a lex-smaller pair.
            if bound > d || (bound == d && i > bi) {
                continue;
            }
        }
        scan_row(i, &mut best);
    }
    match best {
        Some((i, j, delta)) => ScanOutcome::Move(i, j, delta),
        None => ScanOutcome::Exhausted,
    }
}

/// Reference full scan of the swap neighbourhood — the pre-blocking PR-1
/// semantics, kept as the oracle for the property tests and the `--kernels`
/// microbench.  Never checks the budget.
pub fn select_best_move_reference(
    table: &DeltaTable,
    problem: &QapProblem,
    tabu_until: &[usize],
    iter: usize,
    current_cost: f64,
    best_cost: f64,
) -> ScanOutcome {
    let n = problem.num_facilities();
    let mut best: Option<(usize, usize, f64)> = None;
    for i in 0..n {
        let i_active = problem.is_active(i);
        for j in (i + 1)..n {
            if !i_active && !problem.is_active(j) {
                continue;
            }
            let delta = table.delta(i, j);
            let is_tabu = tabu_until[i * n + j] > iter;
            let aspires = current_cost + delta < best_cost - 1e-12;
            if is_tabu && !aspires {
                continue;
            }
            if best.map(|(_, _, d)| delta < d).unwrap_or(true) {
                best = Some((i, j, delta));
            }
        }
    }
    match best {
        Some((i, j, delta)) => ScanOutcome::Move(i, j, delta),
        None => ScanOutcome::Exhausted,
    }
}

/// Reference O(n³) delta-table build on top of `QapProblem::swap_delta` —
/// the pre-blocking PR-1 semantics, kept as the oracle for property tests
/// and the `--kernels` microbench.  Returns the full upper-triangle buffer.
pub fn build_delta_table_reference(problem: &QapProblem, assignment: &[usize]) -> Vec<f64> {
    let n = problem.num_facilities();
    let mut delta = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            if problem.is_active(i) || problem.is_active(j) {
                delta[i * n + j] = problem.swap_delta(assignment, i, j);
            }
        }
    }
    delta
}

/// A seed for warm-started (incremental) search: the previous placement,
/// used as the starting point of restart slot 0 (see [`tabu_search_with`]).
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// The previous best assignment (facility → location).
    pub assignment: Vec<usize>,
}

impl WarmStart {
    /// A warm start from a previous assignment.
    pub fn new(assignment: Vec<usize>) -> Self {
        Self { assignment }
    }
}

/// The single Tabu descent every restart runs, from `start`.  On budget
/// expiry the best-so-far assignment (at worst, `start` itself) is returned.
fn tabu_core(
    problem: &QapProblem,
    start: Vec<usize>,
    config: &TabuConfig,
    budget: &SolverBudget,
) -> TabuResult {
    assert!(
        problem.is_valid_assignment(&start),
        "tabu search requires a valid starting assignment"
    );
    let n = problem.num_facilities();
    let mut current = start;
    let mut current_cost = problem.cost(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    // tabu_until[i * n + j] = iteration until which swapping (i, j) is forbidden.
    let mut tabu_until = vec![0usize; n * n];
    let mut stall = 0usize;
    let mut iterations = 0usize;
    // The delta table costs O(n³) up front — the budgeted build bails out
    // per row tile, so a zero-deadline call returns (the valid start)
    // immediately and a mid-build expiry wastes at most one tile.
    let mut deltas = if n >= 2 && !budget.expired() {
        DeltaTable::new_budgeted(problem, &current, budget)
    } else {
        None
    };

    for iter in 1..=config.max_iterations {
        if budget.expired() {
            break;
        }
        iterations = iter;
        let Some(deltas) = deltas.as_mut() else { break };
        // Blocked early-abort scan of the swap neighbourhood using the
        // cached deltas and per-row lower bounds; pairs of two dummy
        // facilities are never worth exchanging and are outside every row's
        // active span.  The budget is re-checked per row tile so deadline
        // expiry mid-scan still returns the best-so-far assignment.
        let (i, j, delta) = match select_best_move(
            deltas,
            problem,
            &tabu_until,
            iter,
            current_cost,
            best_cost,
            budget,
        ) {
            ScanOutcome::Move(i, j, delta) => (i, j, delta),
            ScanOutcome::Exhausted | ScanOutcome::Expired => break,
        };
        current.swap(i, j);
        current_cost += delta;
        deltas.apply_swap(problem, &current, i, j);
        // Only the upper triangle (i < j) is ever read by the scan above.
        tabu_until[i * n + j] = iter + config.tenure;

        if current_cost < best_cost - 1e-12 {
            best_cost = current_cost;
            best.copy_from_slice(&current);
            stall = 0;
        } else {
            stall += 1;
            if stall >= config.stall_limit {
                break;
            }
        }
        // A cost of zero cannot be improved upon (all interacting pairs adjacent
        // or no interactions at all).
        if best_cost <= 1e-12 {
            break;
        }
    }

    TabuResult {
        assignment: best,
        cost: best_cost,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::graph::Graph;

    /// A single warm-seeded restart: a plain Tabu descent from `start`.
    fn descend_from(problem: &QapProblem, start: Vec<usize>, budget: &SolverBudget) -> TabuResult {
        let config = TabuConfig {
            restarts: 1,
            ..TabuConfig::default()
        };
        let warm = WarmStart::new(start);
        tabu_search_with(
            problem,
            &config,
            budget,
            Some(&warm),
            &mut StdRng::seed_from_u64(0),
        )
    }

    /// A line of interacting qubits on a grid device: the optimum places the
    /// line along adjacent hardware qubits (cost = number of gates, counted
    /// twice by the symmetric objective).
    fn line_on_grid(n: usize, rows: usize, cols: usize) -> QapProblem {
        let hw = DistanceMatrix::floyd_warshall(&Graph::grid(rows, cols));
        let interactions: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        QapProblem::from_interactions(n, &interactions, &hw)
    }

    #[test]
    fn finds_optimal_line_placement_on_grid() {
        let p = line_on_grid(6, 2, 3);
        let mut rng = StdRng::seed_from_u64(17);
        let r = tabu_search(&p, &TabuConfig::default(), &mut rng);
        // Five chain gates, each of distance 1, counted symmetrically → 10.
        assert_eq!(r.cost, 10.0);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn improves_over_random_start() {
        let p = line_on_grid(8, 3, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let start = p.random_assignment(&mut rng);
        let start_cost = p.cost(&start);
        let r = descend_from(&p, start, &SolverBudget::unlimited());
        assert!(r.cost <= start_cost);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn handles_single_facility() {
        let hw = DistanceMatrix::floyd_warshall(&Graph::path(3));
        let p = QapProblem::from_interactions(1, &[], &hw);
        let mut rng = StdRng::seed_from_u64(0);
        let r = tabu_search(&p, &TabuConfig::default(), &mut rng);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.assignment.len(), 1);
    }

    #[test]
    fn respects_iteration_budget() {
        let p = line_on_grid(9, 3, 3);
        let config = TabuConfig {
            max_iterations: 3,
            ..TabuConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let r = tabu_search(&p, &config, &mut rng);
        assert!(r.iterations <= 3);
    }

    #[test]
    fn parallel_and_serial_restarts_are_bit_identical() {
        let p = line_on_grid(9, 4, 4);
        let config = TabuConfig {
            restarts: 6,
            ..TabuConfig::default()
        };
        for seed in 0..5 {
            let serial = tabu_search(
                &p,
                &TabuConfig {
                    parallel: false,
                    ..config.clone()
                },
                &mut StdRng::seed_from_u64(seed),
            );
            let parallel = tabu_search(
                &p,
                &TabuConfig {
                    parallel: true,
                    ..config.clone()
                },
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(serial, parallel, "seed {seed} diverged across thread modes");
        }
    }

    #[test]
    fn delta_table_tracks_accepted_swaps() {
        let p = line_on_grid(7, 3, 3);
        let mut rng = StdRng::seed_from_u64(40);
        let mut assignment = p.random_assignment(&mut rng);
        let n = p.num_facilities();
        let mut table = DeltaTable::new(&p, &assignment);
        for step in 0..30 {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if u == v {
                v = (v + 1) % n;
            }
            assignment.swap(u, v);
            table.apply_swap(&p, &assignment, u, v);
            for i in 0..n {
                for j in (i + 1)..n {
                    if !p.is_active(i) && !p.is_active(j) {
                        continue;
                    }
                    let expected = p.swap_delta(&assignment, i, j);
                    assert!(
                        (table.delta(i, j) - expected).abs() < 1e-9,
                        "step {step}: table ({i},{j}) = {} but swap_delta = {expected}",
                        table.delta(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn single_warm_restart_ignores_its_drawn_seed() {
        let p = line_on_grid(8, 3, 3);
        let start = p.random_assignment(&mut StdRng::seed_from_u64(5));
        let config = TabuConfig {
            restarts: 1,
            ..TabuConfig::default()
        };
        let warm = WarmStart::new(start);
        let run = |seed| {
            tabu_search_with(
                &p,
                &config,
                &SolverBudget::unlimited(),
                Some(&warm),
                &mut StdRng::seed_from_u64(seed),
            )
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn expired_budget_returns_the_valid_start() {
        use std::time::Duration;
        let p = line_on_grid(8, 3, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let start = p.random_assignment(&mut rng);
        let start_cost = p.cost(&start);
        let budget = SolverBudget::with_deadline(Duration::ZERO);
        let r = descend_from(&p, start, &budget);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.cost, start_cost);
        assert!(p.is_valid_assignment(&r.assignment));
    }

    #[test]
    fn unlimited_budget_matches_the_unbudgeted_search() {
        let p = line_on_grid(9, 3, 3);
        let plain = tabu_search(&p, &TabuConfig::default(), &mut StdRng::seed_from_u64(3));
        let budgeted = tabu_search_with(
            &p,
            &TabuConfig::default(),
            &SolverBudget::unlimited(),
            None,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(plain, budgeted);
    }

    #[test]
    #[should_panic(expected = "valid starting assignment")]
    fn rejects_invalid_start() {
        let p = line_on_grid(4, 2, 2);
        let _ = descend_from(&p, vec![0, 0, 1, 2], &SolverBudget::unlimited());
    }

    #[test]
    fn warm_start_never_loses_to_its_seed() {
        let p = line_on_grid(9, 4, 4);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = p.random_assignment(&mut rng);
            let start_cost = p.cost(&start);
            let warm = WarmStart::new(start);
            let r = tabu_search_warm(&p, &TabuConfig::default(), &warm, &mut rng);
            assert!(r.cost <= start_cost, "seed {seed}: warm lost to its seed");
            assert!(p.is_valid_assignment(&r.assignment));
        }
    }

    #[test]
    fn warm_start_from_an_optimum_returns_it_unchanged() {
        // Find the optimum cold, then warm-start from it: the warm slot's
        // best-so-far starts at the optimum and can never be displaced.
        let p = line_on_grid(6, 2, 3);
        let cold = tabu_search(&p, &TabuConfig::default(), &mut StdRng::seed_from_u64(17));
        assert_eq!(cold.cost, 10.0);
        let warm = WarmStart::new(cold.assignment.clone());
        let r = tabu_search_warm(
            &p,
            &TabuConfig::default(),
            &warm,
            &mut StdRng::seed_from_u64(99),
        );
        assert_eq!(r.cost, 10.0);
    }

    #[test]
    fn warm_parallel_and_serial_restarts_are_bit_identical() {
        let p = line_on_grid(9, 4, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let warm = WarmStart::new(p.random_assignment(&mut rng));
        let config = TabuConfig {
            restarts: 5,
            ..TabuConfig::default()
        };
        for seed in 0..4 {
            let serial = tabu_search_warm(
                &p,
                &TabuConfig {
                    parallel: false,
                    ..config.clone()
                },
                &warm,
                &mut StdRng::seed_from_u64(seed),
            );
            let parallel = tabu_search_warm(
                &p,
                &TabuConfig {
                    parallel: true,
                    ..config.clone()
                },
                &warm,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(serial, parallel, "seed {seed} diverged across thread modes");
        }
    }
}
