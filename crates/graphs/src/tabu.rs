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
//!   of the O(n³) of re-deriving every swap delta from scratch.  The flow
//!   matrix of a 2-local Hamiltonian is sparse (each qubit meets a handful
//!   of others), and the table skips its all-zero 4-wide blocks bit for bit
//!   ([`DeltaTable`]): an accepted move then typically costs O(n·deg), and
//!   the scan, not the update, bounds an iteration at O(n²);
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
/// Maintaining the table is most of a Tabu search (and so of the
/// qubit-mapping pass), so it is built for streaming and for sparse flows:
///
/// * `dloc` caches the assignment-permuted distance matrix
///   (`dloc[r·n + k] = d(φ(r), φ(k))`), turning every delta recomputation
///   into a gather-free dot product over four contiguous rows;
/// * on problems whose flow rows are mostly zero blocks
///   ([`QapProblem::skips_zero_blocks`]) that dot product visits only the
///   4-wide blocks where either flow row is nonzero
///   ([`crate::simd::delta_dot_masked`]), so a recomputation costs O(deg)
///   blocks instead of O(n);
/// * [`DeltaTable::apply_swap`] applies the Taillard update as a rank-1
///   row sweep (`(sg[i] − sg[j])·(h[i] − h[j])` from two O(n) difference
///   vectors, [`crate::simd::update_row`]).  `sg` vanishes outside
///   N(u) ∪ N(v), so on those same problems a long row outside it is
///   patched in just those columns, which keeps a swap at typically
///   O(n·deg) instead of O(n²);
/// * each row's minimum is kept exact (`row_min`), giving the neighbourhood
///   scan a lower bound to early-abort whole rows.
///
/// Other problems (small devices, dense flows) run the all-dense kernels.
/// Each skip only leaves out terms that are `±0` and is decided from the
/// input alone, so every entry is bit-identical either way;
/// `new_dense` / `apply_swap_dense` (feature `reference`) force the
/// all-dense kernels as the test oracle.
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
    /// Scratch for [`DeltaTable::apply_swap`]: the columns `j ∉ {u, v}`
    /// with `sg[j] ≠ 0`, ascending.
    moved: Vec<usize>,
}

impl DeltaTable {
    /// Builds the table for `assignment` (O(n²) delta recomputations).
    pub fn new(problem: &QapProblem, assignment: &[usize]) -> Self {
        Self::new_budgeted(problem, assignment, &SolverBudget::unlimited())
            .expect("an unlimited budget never expires")
    }

    /// Builds the table under a cooperative budget, checked once per
    /// `BUDGET_CHECK_ROWS`-row tile.  Returns `None` if the budget expires
    /// mid-build so deadline-limited solvers can fall back to best-so-far
    /// without paying for the rest of the build.
    pub fn new_budgeted(
        problem: &QapProblem,
        assignment: &[usize],
        budget: &SolverBudget,
    ) -> Option<Self> {
        if problem.skips_zero_blocks() {
            Self::build::<true>(problem, assignment, budget)
        } else {
            Self::build::<false>(problem, assignment, budget)
        }
    }

    fn build<const SKIP: bool>(
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
                delta[i * n + j] = delta_pair::<SKIP>(problem, &dloc, n, i, j);
            }
            row_min[i] = simd::row_min(&delta[i * n + lo..i * n + span]);
        }
        Some(Self {
            n,
            delta,
            dloc,
            row_min,
            scratch: vec![0.0; 3 * n],
            moved: vec![0; n],
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
    /// rows with no candidate partner): the exact row minimum.
    #[inline]
    pub fn row_lower_bound(&self, i: usize) -> f64 {
        self.row_min[i]
    }

    /// Updates the table after the swap of facilities `u` and `v` has been
    /// applied to `assignment` (which must already reflect the swap).
    ///
    /// The O(n) pairs touching `u` or `v` are recomputed as streaming dot
    /// products (O(deg) blocks each where the flow is sparse).  Pairs
    /// disjoint from `{u, v}` get the O(1) Taillard update, which is
    /// nonzero only where a row or column lies in N(u) ∪ N(v): rows inside
    /// it and short rows take the dense SIMD sweep, every other row is
    /// patched in those O(deg) columns and rescans its minimum only when
    /// the old minimum went up.  On sparse flows that is typically
    /// O(n·deg) per swap instead of O(n²).
    pub fn apply_swap(&mut self, problem: &QapProblem, assignment: &[usize], u: usize, v: usize) {
        let (u, v) = self.permute_dloc(problem, assignment, u, v);
        if problem.skips_zero_blocks() {
            self.sweep::<true>(problem, u, v);
        } else {
            self.sweep::<false>(problem, u, v);
        }
    }

    /// Swapping facilities `u` and `v` permutes `dloc` by the transposition
    /// `(u v)` on both axes.  Returns `(min, max)` of the pair.
    fn permute_dloc(
        &mut self,
        problem: &QapProblem,
        assignment: &[usize],
        u: usize,
        v: usize,
    ) -> (usize, usize) {
        let n = self.n;
        debug_assert!(u != v && u < n && v < n);
        debug_assert_eq!(assignment.len(), n);
        let (u, v) = (u.min(v), u.max(v));
        for r in 0..n {
            self.dloc.swap(r * n + u, r * n + v);
        }
        let (head, tail) = self.dloc.split_at_mut(v * n);
        head[u * n..(u + 1) * n].swap_with_slice(&mut tail[..n]);
        debug_assert_eq!(
            self.dloc[u * n + v],
            problem.distance(assignment[u], assignment[v])
        );
        (u, v)
    }

    /// The row sweep of [`DeltaTable::apply_swap`] for `u < v`; `SKIP`
    /// enables the masked dot products and the patched rows.
    fn sweep<const SKIP: bool>(&mut self, problem: &QapProblem, u: usize, v: usize) {
        let n = self.n;
        // Difference vectors for the rank-1 Taillard update: for any pair
        // {i, j} disjoint from {u, v},
        // Δ'(i, j) = Δ(i, j) + (sg[i] − sg[j])·(h[i] − h[j])
        // with sg[i] = sym(i, u) − sym(i, v) (flow side, rows + columns
        // folded through the symmetric sums) and h[i] = d(φ(i), a) −
        // d(φ(i), b) (distance side; a/b are u/v's pre-swap locations,
        // i.e. φ(v)/φ(u) *after* the swap — dloc columns v/u).  `sym` is
        // symmetric bit for bit (IEEE addition commutes), so rows u and v
        // give sg contiguously.
        let sym_u = problem.sym_row(u);
        let sym_v = problem.sym_row(v);
        let (sg, rest) = self.scratch.split_at_mut(n);
        let (h, sgh) = rest.split_at_mut(n);
        let mut moved = 0;
        for i in 0..n {
            sg[i] = sym_u[i] - sym_v[i];
            h[i] = self.dloc[i * n + v] - self.dloc[i * n + u];
            sgh[i] = sg[i] * h[i];
            if SKIP {
                // Branch-free append: the pattern of sg ≠ 0 is data.
                self.moved[moved] = i;
                moved += usize::from((sg[i] != 0.0) & (i != u) & (i != v));
            }
        }
        let moved = &self.moved[..moved];
        // A row patch costs about as much as a dense sweep of
        // PATCH_ROW_FACTOR × (the set blocks of N(u) ∪ N(v)); shorter rows
        // take the sweep.  Both give the same bits.
        let dense_span = if SKIP {
            let blocks = problem.sym_blocks(u).iter().zip(problem.sym_blocks(v));
            let set: u32 = blocks.map(|(a, b)| (a | b).count_ones()).sum();
            PATCH_ROW_FACTOR * 4 * set as usize
        } else {
            n
        };
        // `moved[first..]` are the patch columns right of the current row.
        let mut first = 0;

        for i in 0..n {
            let span = problem.scan_span(i);
            let lo = i + 1;
            if lo >= span {
                continue;
            }
            let base = i * n;
            while first < moved.len() && moved[first] <= i {
                first += 1;
            }
            if i == u || i == v {
                for j in lo..span {
                    self.delta[base + j] = delta_pair::<SKIP>(problem, &self.dloc, n, i, j);
                }
                self.row_min[i] = simd::row_min(&self.delta[base + lo..base + span]);
            } else if span - lo <= dense_span || sg[i] != 0.0 {
                // Inactive-inactive pairs stay at exactly 0.0: dummy
                // facilities have all-zero sym rows, so sg (and sgh) vanish
                // and the blanket update adds 0.0·(h[i] − h[j]) = ±0.0.
                simd::update_row(
                    &mut self.delta[base + lo..base + span],
                    &sg[lo..span],
                    &h[lo..span],
                    &sgh[lo..span],
                    sg[i],
                    h[i],
                );
                // The blanket update is wrong for the two recompute columns;
                // overwrite them with exact recomputations.
                for c in [u, v] {
                    if c > i && c < span {
                        self.delta[base + c] = delta_pair::<SKIP>(problem, &self.dloc, n, i, c);
                    }
                }
                self.row_min[i] = simd::row_min(&self.delta[base + lo..base + span]);
            } else {
                // sg[i] == 0: entry j moves by (sg[j] − 0)·(h[i] − h[j]),
                // so only where sg[j] ≠ 0.  The expression is `update_row`'s,
                // so a patched entry matches the sweep bit for bit, and a
                // skipped one would only have gained ±0.
                let old_min = self.row_min[i];
                let (a_sg, a_h) = (sg[i], h[i]);
                let ab = a_sg * a_h;
                let mut changed_min = f64::INFINITY;
                let mut lost_min = false;
                let mut set = |slot: &mut f64, value: f64| {
                    lost_min |= *slot == old_min;
                    changed_min = changed_min.min(value);
                    *slot = value;
                };
                for &j in &moved[first..] {
                    if j >= span {
                        break;
                    }
                    let slot = &mut self.delta[base + j];
                    let value = *slot + ((ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]));
                    set(slot, value);
                }
                for c in [u, v] {
                    if c > i && c < span {
                        let value = delta_pair::<SKIP>(problem, &self.dloc, n, i, c);
                        set(&mut self.delta[base + c], value);
                    }
                }
                // Untouched entries are all ≥ old_min, so the minimum moves
                // down to `changed_min`, stays, or must be rescanned if the
                // entry that held it went up.
                self.row_min[i] = if changed_min <= old_min {
                    changed_min
                } else if !lost_min {
                    old_min
                } else {
                    simd::row_min(&self.delta[base + lo..base + span])
                };
            }
        }
    }
}

/// How much longer than the dense sweep of its blocks a row must be before
/// [`DeltaTable::apply_swap`] patches it instead.
const PATCH_ROW_FACTOR: usize = 2;

/// The all-dense kernels: every delta recomputation streams whole rows and
/// every row takes the rank-1 sweep.  The oracle that the block-skipping
/// table must match bit for bit, and the `--kernels` microbench baseline.
#[cfg(any(test, feature = "reference"))]
impl DeltaTable {
    /// Builds the table with dense delta recomputations.
    pub fn new_dense(problem: &QapProblem, assignment: &[usize]) -> Self {
        Self::build::<false>(problem, assignment, &SolverBudget::unlimited())
            .expect("an unlimited budget never expires")
    }

    /// [`DeltaTable::apply_swap`] with the all-dense kernels.
    pub fn apply_swap_dense(
        &mut self,
        problem: &QapProblem,
        assignment: &[usize],
        u: usize,
        v: usize,
    ) {
        let (u, v) = self.permute_dloc(problem, assignment, u, v);
        self.sweep::<false>(problem, u, v);
    }
}

/// Streaming recomputation of `QapProblem::swap_delta(φ, i, j)` from the
/// permuted distance cache:
/// `Σ_{k ≠ i,j} (sym_i[k] − sym_j[k])·(dloc_j[k] − dloc_i[k])` (the direct
/// `{i, j}` term cancels because hardware distance matrices are symmetric).
/// Exact — not merely close — on integer-valued matrices, since every
/// intermediate is an exactly-representable integer.
///
/// With `SKIP` the sum visits only the blocks where `sym_i` or `sym_j` is
/// nonzero; the rest would add `(0 − 0)·(finite) = ±0` to lanes that are
/// never `−0`, so the result is the dense sum bit for bit (distances are
/// finite).
#[inline]
fn delta_pair<const SKIP: bool>(
    problem: &QapProblem,
    dloc: &[f64],
    n: usize,
    i: usize,
    j: usize,
) -> f64 {
    let sym_i = problem.sym_row(i);
    let sym_j = problem.sym_row(j);
    let dloc_i = &dloc[i * n..(i + 1) * n];
    let dloc_j = &dloc[j * n..(j + 1) * n];
    let full = if SKIP {
        let (mask_i, mask_j) = (problem.sym_blocks(i), problem.sym_blocks(j));
        simd::delta_dot_masked(sym_i, sym_j, dloc_j, dloc_i, mask_i, mask_j)
    } else {
        simd::delta_dot(sym_i, sym_j, dloc_j, dloc_i)
    };
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
#[cfg(any(test, feature = "reference"))]
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
#[cfg(any(test, feature = "reference"))]
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
    // The delta table costs O(n²·deg) up front (O(n³) on dense flows) —
    // the budgeted build bails out
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

    /// QAPs that exercise the block masks: hop-count and weighted
    /// (non-integer) distances, dummy padding, sizes off a multiple of 4,
    /// m > 256 (two mask words), a dense non-integer flow, the tiny sizes
    /// and an all-dummy problem.
    fn oracle_instances() -> Vec<(&'static str, QapProblem)> {
        use crate::random_regular::random_regular_graph;
        use crate::weighted::WeightedDistanceMatrix;
        let mut rng = StdRng::seed_from_u64(2024);
        let hop = |rows, cols| DistanceMatrix::bfs(&Graph::grid(rows, cols));
        let weighted = |rows, cols| {
            WeightedDistanceMatrix::dijkstra(&Graph::grid(rows, cols), &|a, b| {
                1.0 + ((a.min(b) * 31 + a.max(b) * 17) % 23) as f64 / 7.0
            })
        };
        let nnn = |n: usize| -> Vec<(usize, usize)> {
            (0..n)
                .flat_map(|i| [(i, i + 1), (i, i + 2)])
                .filter(|&(_, j)| j < n)
                .collect()
        };
        let qaoa3 = |n: usize, rng: &mut StdRng| random_regular_graph(n, 3, rng).edges();
        let dense_flow = {
            let (n, m) = (13, 15);
            let flow: Vec<f64> = (0..n * n).map(|_| rng.gen::<f64>() * 3.0).collect();
            let w = weighted(3, 5);
            let distance = (0..m).flat_map(|a| w.row(a).to_vec()).collect();
            QapProblem::from_flat(n, flow, m, distance)
        };
        vec![
            (
                "qaoa3 m=16",
                QapProblem::from_interactions(16, &qaoa3(14, &mut rng), &hop(4, 4)),
            ),
            (
                "qaoa3 m=27",
                QapProblem::from_interactions(27, &qaoa3(26, &mut rng), &hop(3, 9)),
            ),
            (
                "nnn m=54",
                QapProblem::from_interactions(54, &nnn(53), &hop(6, 9)),
            ),
            (
                "weighted qaoa3 m=81",
                QapProblem::from_interactions_weighted(81, &qaoa3(80, &mut rng), &weighted(9, 9)),
            ),
            (
                "weighted nnn m=30",
                QapProblem::from_interactions_weighted(30, &nnn(20), &weighted(5, 6)),
            ),
            ("dense weighted flow n=13", dense_flow),
            (
                "qaoa3 m=289",
                QapProblem::from_interactions(289, &qaoa3(280, &mut rng), &hop(17, 17)),
            ),
            ("n=1", QapProblem::from_interactions(1, &[], &hop(1, 3))),
            (
                "n=2",
                QapProblem::from_interactions(2, &[(0, 1)], &hop(1, 3)),
            ),
            (
                "all dummy",
                QapProblem::from_interactions(6, &[], &hop(2, 3)),
            ),
        ]
    }

    fn assert_same_bits(sparse: &DeltaTable, dense: &DeltaTable, context: &str) {
        let n = sparse.n;
        for i in 0..n {
            assert_eq!(
                sparse.row_lower_bound(i).to_bits(),
                dense.row_lower_bound(i).to_bits(),
                "{context}: row_min[{i}]"
            );
            for j in (i + 1)..n {
                assert_eq!(
                    sparse.delta(i, j).to_bits(),
                    dense.delta(i, j).to_bits(),
                    "{context}: delta({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn sparse_table_matches_the_dense_oracle_bit_for_bit() {
        let instances = oracle_instances();
        let skipping = instances.iter().filter(|(_, p)| p.skips_zero_blocks());
        assert!(
            skipping.count() >= 3,
            "too few instances exercise the skips"
        );
        for (name, p) in instances {
            let n = p.num_facilities();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut assignment = p.random_assignment(&mut rng);
            let mut sparse = DeltaTable::new(&p, &assignment);
            let mut dense = DeltaTable::new_dense(&p, &assignment);
            assert_same_bits(&sparse, &dense, &format!("{name}, build"));
            if n < 2 {
                continue;
            }
            let steps = if n > 256 { 12 } else { 40 };
            for step in 0..steps {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                assignment.swap(u, v);
                sparse.apply_swap(&p, &assignment, u, v);
                dense.apply_swap_dense(&p, &assignment, u, v);
                assert_same_bits(&sparse, &dense, &format!("{name}, swap {step} ({u}, {v})"));
            }
        }
    }

    #[test]
    fn solvers_match_their_dense_oracle_runs_exactly() {
        use crate::annealing::{simulated_annealing_with, AnnealingConfig};
        let unlimited = SolverBudget::unlimited();
        for (name, p) in oracle_instances() {
            if p.num_facilities() > 100 {
                continue; // covered table-level above; keeps the debug run short
            }
            let oracle = p.clone().dense_oracle();
            let warm = WarmStart::new(p.random_assignment(&mut StdRng::seed_from_u64(1)));
            for start in [None, Some(&warm)] {
                let tabu = |q: &QapProblem| {
                    let config = TabuConfig::default();
                    tabu_search_with(q, &config, &unlimited, start, &mut StdRng::seed_from_u64(5))
                };
                let (got, want) = (tabu(&p), tabu(&oracle));
                assert_eq!(got, want, "{name}: tabu (warm: {})", start.is_some());
                assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{name}: tabu cost");
                let anneal = |q: &QapProblem| {
                    let config = AnnealingConfig::default();
                    simulated_annealing_with(
                        q,
                        &config,
                        &unlimited,
                        start,
                        &mut StdRng::seed_from_u64(6),
                    )
                };
                let (got, want) = (anneal(&p), anneal(&oracle));
                assert_eq!(got, want, "{name}: annealing (warm: {})", start.is_some());
                assert_eq!(
                    got.cost.to_bits(),
                    want.cost.to_bits(),
                    "{name}: annealing cost"
                );
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
