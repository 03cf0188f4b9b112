//! The Quadratic Assignment Problem (QAP) used for initial qubit mapping.
//!
//! §III-A of the paper formulates qubit mapping as a QAP: circuit qubits are
//! "facilities", hardware qubits are "locations", the *flow* between two
//! circuit qubits is the number of two-qubit gates acting on them, and the
//! *distance* between two hardware qubits is their shortest-path distance.
//! The objective (Eq. 7) is
//! `min_φ Σ_{i,j} f_{ij} · d_{φ(i)φ(j)}`.
//!
//! Both matrices are stored flat in row-major order so the solvers' inner
//! loops are simple strided reads; `flow_row`/`distance_row` expose whole
//! rows for cache-friendly scans.

use crate::distance::DistanceMatrix;
use crate::weighted::WeightedDistanceMatrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// How many 4-wide blocks a pair's block union must leave out before a
/// masked delta sum beats the dense one (see
/// [`QapProblem::skips_zero_blocks`]).
const SKIP_PAYS_BLOCKS: usize = 8;

/// A QAP instance: an `n × n` flow matrix between facilities and an
/// `m × m` (`m ≥ n`) distance matrix between locations, both stored flat in
/// row-major order.
#[derive(Debug, Clone)]
pub struct QapProblem {
    n: usize,
    m: usize,
    flow: Vec<f64>,
    distance: Vec<f64>,
    /// Symmetric flow sums, `sym[i·n + j] = flow(i, j) + flow(j, i)`.  The
    /// delta-table kernels stream over whole `sym` rows instead of gathering
    /// matching `flow` row/column entries.
    sym: Vec<f64>,
    /// Block masks of the `sym` rows, `block_words` words per facility: bit
    /// `b` of facility `i`'s words is set when `sym_row(i)[4b..4b + 4]`
    /// holds a nonzero.  A 2-local Hamiltonian gives each qubit a handful of
    /// partners, so the delta-table kernels visit a few blocks per row.
    blocks: Vec<u64>,
    block_words: usize,
    /// See [`QapProblem::skips_zero_blocks`].
    skips_zero_blocks: bool,
    /// `active[i]` is `false` for facilities whose flow row and column are
    /// all zero — the dummy facilities introduced by device-size padding.
    /// Exchanging two inactive facilities never changes the cost, so the
    /// solvers skip those pairs.
    active: Vec<bool>,
    /// Index of the highest-numbered active facility (`None` when every
    /// facility is a dummy).  Rows past this index contain only dummy-dummy
    /// pairs, so neighbourhood scans truncate there (the per-row "active
    /// span").
    last_active: Option<usize>,
}

impl QapProblem {
    /// Creates a QAP instance from explicit (nested) flow and distance
    /// matrices.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not square or if there are fewer locations
    /// than facilities.
    pub fn new(flow: Vec<Vec<f64>>, distance: Vec<Vec<f64>>) -> Self {
        let n = flow.len();
        let m = distance.len();
        assert!(
            flow.iter().all(|r| r.len() == n),
            "flow matrix must be square"
        );
        assert!(
            distance.iter().all(|r| r.len() == m),
            "distance matrix must be square"
        );
        Self::from_flat(
            n,
            flow.into_iter().flatten().collect(),
            m,
            distance.into_iter().flatten().collect(),
        )
    }

    /// Creates a QAP instance from flat row-major matrices: `flow` is
    /// `n × n`, `distance` is `m × m`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the declared dimensions or
    /// if there are fewer locations than facilities.
    pub fn from_flat(n: usize, flow: Vec<f64>, m: usize, distance: Vec<f64>) -> Self {
        assert_eq!(flow.len(), n * n, "flow matrix must be n × n");
        assert_eq!(distance.len(), m * m, "distance matrix must be m × m");
        assert!(
            m >= n,
            "need at least as many locations ({m}) as facilities ({n})"
        );
        let active: Vec<bool> = (0..n)
            .map(|i| {
                flow[i * n..(i + 1) * n].iter().any(|&f| f != 0.0)
                    || (0..n).any(|k| flow[k * n + i] != 0.0)
            })
            .collect();
        let last_active = active.iter().rposition(|&a| a);
        let mut sym = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                sym[i * n + j] = flow[i * n + j] + flow[j * n + i];
            }
        }
        // One word per 64 blocks of 4, i.e. per 256 facilities.
        let block_words = n.div_ceil(256);
        let mut blocks = vec![0u64; n * block_words];
        for (i, words) in blocks.chunks_exact_mut(block_words.max(1)).enumerate() {
            for (k, &s) in sym[i * n..(i + 1) * n].iter().enumerate() {
                if s != 0.0 {
                    words[k / 256] |= 1 << ((k / 4) % 64);
                }
            }
        }
        // A masked sum costs a few cycles more per call than a dense one,
        // and a union of two rows spans about twice a row's blocks: skip
        // only when that leaves out SKIP_PAYS_BLOCKS or more of the row.
        let set_blocks: usize = blocks.iter().map(|w| w.count_ones() as usize).sum();
        let rows = active.iter().filter(|&&a| a).count();
        let skips_zero_blocks =
            rows > 0 && 2 * set_blocks + SKIP_PAYS_BLOCKS * rows <= n.div_ceil(4) * rows;
        Self {
            n,
            m,
            flow,
            distance,
            sym,
            blocks,
            block_words,
            skips_zero_blocks,
            active,
            last_active,
        }
    }

    /// Builds the qubit-mapping QAP from gate interaction counts and a
    /// hardware distance matrix.
    ///
    /// `interactions` lists `(circuit_qubit_a, circuit_qubit_b)` pairs, one
    /// entry per two-qubit gate (repetitions increase the flow).
    pub fn from_interactions(
        num_circuit_qubits: usize,
        interactions: &[(usize, usize)],
        hardware: &DistanceMatrix,
    ) -> Self {
        let n = num_circuit_qubits;
        let mut flow = vec![0.0; n * n];
        for &(a, b) in interactions {
            assert!(a < n && b < n, "interaction qubit out of range");
            flow[a * n + b] += 1.0;
            flow[b * n + a] += 1.0;
        }
        let m = hardware.num_vertices();
        let mut distance = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                distance[i * m + j] = hardware.distance_f64(i, j);
            }
        }
        Self::from_flat(n, flow, m, distance)
    }

    /// Builds the qubit-mapping QAP with a *weighted* hardware distance
    /// matrix — the calibration-aware variant of
    /// [`from_interactions`](Self::from_interactions), where location
    /// distances are −log-fidelity path costs instead of hop counts.  The
    /// flow matrix (gate counts) is identical; only the distance side
    /// changes, so the same Tabu/annealing solvers (and their delta tables)
    /// apply unchanged.
    pub fn from_interactions_weighted(
        num_circuit_qubits: usize,
        interactions: &[(usize, usize)],
        hardware: &WeightedDistanceMatrix,
    ) -> Self {
        let n = num_circuit_qubits;
        let mut flow = vec![0.0; n * n];
        for &(a, b) in interactions {
            assert!(a < n && b < n, "interaction qubit out of range");
            flow[a * n + b] += 1.0;
            flow[b * n + a] += 1.0;
        }
        let m = hardware.num_vertices();
        let mut distance = vec![0.0; m * m];
        for i in 0..m {
            distance[i * m..(i + 1) * m].copy_from_slice(hardware.row(i));
        }
        Self::from_flat(n, flow, m, distance)
    }

    /// Number of facilities (circuit qubits).
    #[inline]
    pub fn num_facilities(&self) -> usize {
        self.n
    }

    /// Number of locations (hardware qubits).
    #[inline]
    pub fn num_locations(&self) -> usize {
        self.m
    }

    /// Flow between two facilities.
    #[inline]
    pub fn flow(&self, i: usize, j: usize) -> f64 {
        self.flow[i * self.n + j]
    }

    /// Distance between two locations.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        self.distance[a * self.m + b]
    }

    /// The `i`-th row of the flow matrix.
    #[inline]
    pub fn flow_row(&self, i: usize) -> &[f64] {
        &self.flow[i * self.n..(i + 1) * self.n]
    }

    /// The `a`-th row of the distance matrix.
    #[inline]
    pub fn distance_row(&self, a: usize) -> &[f64] {
        &self.distance[a * self.m..(a + 1) * self.m]
    }

    /// The `i`-th row of the symmetric flow sums,
    /// `sym_row(i)[j] = flow(i, j) + flow(j, i)`.
    #[inline]
    pub fn sym_row(&self, i: usize) -> &[f64] {
        &self.sym[i * self.n..(i + 1) * self.n]
    }

    /// The block mask of `sym_row(i)`: bit `b` (word `b / 64`) is set when
    /// `sym_row(i)[4b..4b + 4]` holds a nonzero.  One word per 256
    /// facilities.
    #[inline]
    pub fn sym_blocks(&self, i: usize) -> &[u64] {
        &self.blocks[i * self.block_words..(i + 1) * self.block_words]
    }

    /// Whether the delta-table kernels skip the zero blocks of the flow
    /// rows ([`sym_blocks`](Self::sym_blocks)) on this problem: decided
    /// from the masks alone, when a typical pair of rows leaves out at
    /// least `SKIP_PAYS_BLOCKS` (8) of the ⌈n/4⌉ blocks.  Either way the
    /// kernels give the same bits; below that, skipping costs more than it
    /// saves.
    #[inline]
    pub fn skips_zero_blocks(&self) -> bool {
        self.skips_zero_blocks
    }

    /// Returns `false` for dummy facilities (all-zero flow row and column)
    /// introduced by padding the QAP up to the device size.
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Index of the highest-numbered active facility, or `None` when all
    /// facilities are dummies.
    #[inline]
    pub fn last_active(&self) -> Option<usize> {
        self.last_active
    }

    /// Scan span for row `i` of the swap neighbourhood: candidate partners
    /// are `j ∈ (i, span)`.  Active rows pair with every later facility;
    /// dummy rows only pair with later *active* facilities (dummy-dummy
    /// swaps never change the cost), so their span truncates at the last
    /// active facility.
    #[inline]
    pub fn scan_span(&self, i: usize) -> usize {
        if self.active[i] {
            self.n
        } else {
            self.last_active.map_or(0, |last| last + 1)
        }
    }

    /// The QAP objective (Eq. 7) for an assignment `φ`:
    /// `Σ_{i,j} f_{ij} · d_{φ(i)φ(j)}`.
    ///
    /// `assignment[i]` is the location of facility `i`.
    pub fn cost(&self, assignment: &[usize]) -> f64 {
        let n = self.n;
        debug_assert_eq!(assignment.len(), n);
        let mut total = 0.0;
        for i in 0..n {
            if !self.active[i] {
                continue;
            }
            let frow = self.flow_row(i);
            let drow = self.distance_row(assignment[i]);
            for (j, &f) in frow.iter().enumerate() {
                if f != 0.0 {
                    total += f * drow[assignment[j]];
                }
            }
        }
        total
    }

    /// Change in cost when the locations of facilities `i` and `j` are
    /// exchanged (O(n) instead of recomputing the full O(n²) cost).
    pub fn swap_delta(&self, assignment: &[usize], i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let n = self.n;
        let (pi, pj) = (assignment[i], assignment[j]);
        let fi = self.flow_row(i);
        let fj = self.flow_row(j);
        let di = self.distance_row(pi);
        let dj = self.distance_row(pj);
        let mut delta = 0.0;
        for k in 0..n {
            if k == i || k == j {
                continue;
            }
            let pk = assignment[k];
            delta += (fi[k] + self.flow(k, i)) * (dj[pk] - di[pk]);
            delta += (fj[k] + self.flow(k, j)) * (di[pk] - dj[pk]);
        }
        delta += fi[j] * (dj[pi] - di[pj]);
        delta += fj[i] * (di[pj] - dj[pi]);
        delta
    }

    /// Taillard-style O(1) update of a cached swap delta.
    ///
    /// Let `Δ(φ; i, j)` be [`swap_delta`](Self::swap_delta) under assignment
    /// `φ`.  After a swap of facilities `u` and `v` is *accepted*, turning
    /// `φ` into `φ'`, the cached delta of any pair `{i, j}` disjoint from
    /// `{u, v}` can be updated in constant time:
    ///
    /// `Δ(φ'; i, j) = Δ(φ; i, j) + (f_iu − f_iv − f_ju + f_jv)·(d_{φ(i)a} −
    /// d_{φ(i)b} − d_{φ(j)a} + d_{φ(j)b}) + (f_ui − f_vi − f_uj +
    /// f_vj)·(d_{aφ(i)} − d_{bφ(i)} − d_{aφ(j)} + d_{bφ(j)})`
    ///
    /// where `a = φ(u)` and `b = φ(v)` are the locations of `u`/`v` *before*
    /// the accepted swap.  `assignment` must be the assignment **after** the
    /// `(u, v)` swap was applied (so `a = assignment[v]`,
    /// `b = assignment[u]`), which is what a solver naturally has in hand.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `{i, j}` and `{u, v}` are disjoint; for pairs that
    /// overlap the swapped facilities the delta must be recomputed with
    /// [`swap_delta`](Self::swap_delta).
    #[inline]
    pub fn swap_delta_update(
        &self,
        assignment: &[usize],
        old_delta: f64,
        i: usize,
        j: usize,
        u: usize,
        v: usize,
    ) -> f64 {
        debug_assert!(i != u && i != v && j != u && j != v && i != j);
        let a = assignment[v]; // φ(u) before the accepted swap
        let b = assignment[u]; // φ(v) before the accepted swap
        let (pi, pj) = (assignment[i], assignment[j]);
        let fi = self.flow_row(i);
        let fj = self.flow_row(j);
        let fu = self.flow_row(u);
        let fv = self.flow_row(v);
        let di = self.distance_row(pi);
        let dj = self.distance_row(pj);
        let da = self.distance_row(a);
        let db = self.distance_row(b);
        let row_flow = fi[u] - fi[v] - fj[u] + fj[v];
        let row_dist = di[a] - di[b] - dj[a] + dj[b];
        let col_flow = fu[i] - fv[i] - fu[j] + fv[j];
        let col_dist = da[pi] - db[pi] - da[pj] + db[pj];
        old_delta + row_flow * row_dist + col_flow * col_dist
    }

    /// A random assignment of facilities to distinct locations.
    pub fn random_assignment<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let mut locations: Vec<usize> = (0..self.m).collect();
        locations.shuffle(rng);
        locations.truncate(self.n);
        locations
    }

    /// The identity ("trivial") assignment mapping facility `i` to location `i`.
    pub fn trivial_assignment(&self) -> Vec<usize> {
        (0..self.n).collect()
    }

    /// Verifies that an assignment is injective and within range.
    pub fn is_valid_assignment(&self, assignment: &[usize]) -> bool {
        if assignment.len() != self.n {
            return false;
        }
        let mut seen = vec![false; self.m];
        for &loc in assignment {
            if loc >= self.m || seen[loc] {
                return false;
            }
            seen[loc] = true;
        }
        true
    }
}

#[cfg(test)]
impl QapProblem {
    /// The same problem with [`skips_zero_blocks`](Self::skips_zero_blocks)
    /// off: the Tabu and annealing delta tables then run their all-dense
    /// kernels, the oracle the skipping ones must match bit for bit.
    pub(crate) fn dense_oracle(mut self) -> Self {
        self.skips_zero_blocks = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_problem() -> QapProblem {
        // 3 facilities on a 4-location path graph.
        let hw = DistanceMatrix::floyd_warshall(&Graph::path(4));
        QapProblem::from_interactions(3, &[(0, 1), (1, 2), (0, 1)], &hw)
    }

    /// A dense random problem with an asymmetric flow matrix, to exercise
    /// the general (non-symmetric) delta formulas.
    fn random_problem(n: usize, rng: &mut StdRng) -> QapProblem {
        let flow: Vec<f64> = (0..n * n)
            .map(|_| f64::from(rng.gen_range(0..5u32)))
            .collect();
        let hw = DistanceMatrix::floyd_warshall(&Graph::grid(2, n.div_ceil(2)));
        let m = hw.num_vertices();
        let mut distance = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                distance[i * m + j] = hw.distance_f64(i, j);
            }
        }
        QapProblem::from_flat(n, flow, m, distance)
    }

    #[test]
    fn flow_counts_interactions_symmetrically() {
        let p = small_problem();
        assert_eq!(p.flow(0, 1), 2.0);
        assert_eq!(p.flow(1, 0), 2.0);
        assert_eq!(p.flow(1, 2), 1.0);
        assert_eq!(p.flow(0, 2), 0.0);
        assert_eq!(p.num_facilities(), 3);
        assert_eq!(p.num_locations(), 4);
        assert_eq!(p.flow_row(0), &[0.0, 2.0, 0.0]);
        assert_eq!(p.distance_row(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn cost_of_adjacent_placement_is_minimal() {
        let p = small_problem();
        // Facilities 0,1,2 on consecutive path locations: every interacting
        // pair is adjacent, cost = 2·(2·1) + 2·(1·1) = 6 (flow counted both ways).
        let lined_up = vec![0, 1, 2];
        assert_eq!(p.cost(&lined_up), 6.0);
        // Spreading qubit 1 away increases the cost.
        let spread = vec![0, 3, 1];
        assert!(p.cost(&spread) > p.cost(&lined_up));
    }

    #[test]
    fn swap_delta_matches_full_recomputation() {
        let p = small_problem();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = p.random_assignment(&mut rng);
            for i in 0..3 {
                for j in 0..3 {
                    let mut swapped = a.clone();
                    swapped.swap(i, j);
                    let delta = p.swap_delta(&a, i, j);
                    let expected = p.cost(&swapped) - p.cost(&a);
                    assert!(
                        (delta - expected).abs() < 1e-9,
                        "delta mismatch for swap ({i},{j}): {delta} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_delta_handles_asymmetric_flow() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let p = random_problem(6, &mut rng);
            let a = p.random_assignment(&mut rng);
            for i in 0..6 {
                for j in (i + 1)..6 {
                    let mut swapped = a.clone();
                    swapped.swap(i, j);
                    let delta = p.swap_delta(&a, i, j);
                    let expected = p.cost(&swapped) - p.cost(&a);
                    assert!(
                        (delta - expected).abs() < 1e-9,
                        "asymmetric delta mismatch ({i},{j}): {delta} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // pair indices (i, j) read clearest
    fn swap_delta_update_matches_recomputation() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let p = random_problem(8, &mut rng);
            let mut assignment = p.random_assignment(&mut rng);
            // Cache deltas for all pairs, then apply a random swap and check
            // the O(1) update against a fresh O(n) computation.
            for _ in 0..5 {
                let u = rng.gen_range(0..8);
                let mut v = rng.gen_range(0..8);
                if u == v {
                    v = (v + 1) % 8;
                }
                let mut cached = vec![vec![0.0; 8]; 8];
                for i in 0..8 {
                    for j in (i + 1)..8 {
                        cached[i][j] = p.swap_delta(&assignment, i, j);
                    }
                }
                assignment.swap(u, v);
                for i in 0..8 {
                    for j in (i + 1)..8 {
                        if i == u || i == v || j == u || j == v {
                            continue;
                        }
                        let updated = p.swap_delta_update(&assignment, cached[i][j], i, j, u, v);
                        let fresh = p.swap_delta(&assignment, i, j);
                        assert!(
                            (updated - fresh).abs() < 1e-9,
                            "update mismatch pair ({i},{j}) after swap ({u},{v}): {updated} vs {fresh}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_qap_matches_hop_qap_on_unit_weights() {
        let g = Graph::path(4);
        let interactions = [(0usize, 1usize), (1, 2), (0, 1)];
        let hop = QapProblem::from_interactions(3, &interactions, &DistanceMatrix::bfs(&g));
        let unit = WeightedDistanceMatrix::dijkstra(&g, &|_, _| 1.0);
        let weighted = QapProblem::from_interactions_weighted(3, &interactions, &unit);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let a = hop.random_assignment(&mut rng);
            assert_eq!(hop.cost(&a), weighted.cost(&a));
            assert_eq!(hop.swap_delta(&a, 0, 2), weighted.swap_delta(&a, 0, 2));
        }
    }

    #[test]
    fn weighted_qap_prefers_low_error_locations() {
        // Path 0–1–2–3 where the 2–3 edge is 10× more expensive: placing an
        // interacting pair on (0, 1) must cost less than on (2, 3).
        let g = Graph::path(4);
        let weight = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (2, 3) {
                10.0
            } else {
                1.0
            }
        };
        let w = WeightedDistanceMatrix::dijkstra(&g, &weight);
        let p = QapProblem::from_interactions_weighted(2, &[(0, 1)], &w);
        assert!(p.cost(&[0, 1]) < p.cost(&[2, 3]));
    }

    #[test]
    fn padding_facilities_are_inactive() {
        let hw = DistanceMatrix::floyd_warshall(&Graph::path(5));
        let p = QapProblem::from_interactions(5, &[(0, 1), (1, 2)], &hw);
        assert!(p.is_active(0));
        assert!(p.is_active(1));
        assert!(p.is_active(2));
        assert!(!p.is_active(3));
        assert!(!p.is_active(4));
        // Swapping two inactive facilities never changes the cost.
        let a = p.trivial_assignment();
        assert_eq!(p.swap_delta(&a, 3, 4), 0.0);
    }

    #[test]
    fn sym_blocks_mark_the_nonzero_blocks_of_each_flow_row() {
        // An NNN chain over 300 of 310 facilities: two mask words per row.
        let n = 310;
        let hw = DistanceMatrix::bfs(&Graph::grid(10, 31));
        let chain: Vec<(usize, usize)> = (0..299)
            .flat_map(|i| [(i, i + 1), (i, i + 2)])
            .filter(|&(_, j)| j < 300)
            .collect();
        let p = QapProblem::from_interactions(n, &chain, &hw);
        for i in 0..n {
            let words = p.sym_blocks(i);
            assert_eq!(words.len(), 2);
            for block in 0..n.div_ceil(4) {
                let set = words[block / 64] >> (block % 64) & 1 == 1;
                let end = (4 * block + 4).min(n);
                let nonzero = p.sym_row(i)[4 * block..end].iter().any(|&x| x != 0.0);
                assert_eq!(set, nonzero, "row {i}, block {block}");
            }
        }
        assert!(p.skips_zero_blocks());
        // Dense flows, and tiny or all-dummy problems, keep the dense sums.
        assert!(!small_problem().skips_zero_blocks());
        assert!(!QapProblem::from_interactions(64, &[], &hw_grid(8, 8)).skips_zero_blocks());
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!random_problem(60, &mut rng).skips_zero_blocks());
    }

    fn hw_grid(rows: usize, cols: usize) -> DistanceMatrix {
        DistanceMatrix::bfs(&Graph::grid(rows, cols))
    }

    #[test]
    fn random_assignments_are_valid() {
        let p = small_problem();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = p.random_assignment(&mut rng);
            assert!(p.is_valid_assignment(&a));
        }
        assert!(p.is_valid_assignment(&p.trivial_assignment()));
        assert!(!p.is_valid_assignment(&[0, 0, 1]));
        assert!(!p.is_valid_assignment(&[0, 1]));
        assert!(!p.is_valid_assignment(&[0, 1, 9]));
    }

    #[test]
    #[should_panic(expected = "at least as many locations")]
    fn rejects_too_few_locations() {
        let hw = DistanceMatrix::floyd_warshall(&Graph::path(2));
        let _ = QapProblem::from_interactions(3, &[(0, 1)], &hw);
    }
}
