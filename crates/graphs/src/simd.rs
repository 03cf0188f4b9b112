//! Explicit-SIMD inner loops for the QAP delta-table kernels.
//!
//! Three primitives cover the hot paths of the Taillard delta table
//! ([`crate::tabu::DeltaTable`]):
//!
//! * [`delta_dot`] / [`delta_dot_masked`] — `Σ_k (a[k] − b[k])·(c[k] − d[k])`,
//!   the streaming form of a swap-delta recomputation over the symmetric
//!   flow matrix and the permuted (assignment-local) distance matrix, over
//!   every 4-wide block of `k` or only over the blocks two block masks mark.
//!   Flow rows of 2-local Hamiltonians are almost all zero blocks
//!   ([`QapProblem::sym_blocks`](crate::QapProblem::sym_blocks)), and a
//!   skipped block would only have added `±0` to a lane that is never `−0`,
//!   so the masked sum is bit-identical to the dense one;
//! * [`update_row`] — the rank-1 Taillard update of one delta-table row after
//!   an accepted swap, `row[j] += (A·B + sgh[j]) − (A·h[j] + B·sg[j])`;
//! * [`row_min`] — the per-row lower bound used by the early-abort
//!   neighbourhood scan.
//!
//! `std::simd` is nightly-only, so the wide paths use stable `core::arch`
//! intrinsics — AVX2 on x86_64 and NEON on aarch64, selected at runtime —
//! with portable scalar fallbacks (`*_scalar`) behind the same seam.  Every
//! path performs the same floating-point operations in the same order (no
//! FMA contraction), so all are bit-identical on every input: the dot
//! products keep four lanes by `k mod 4`, combine them as
//! `(l0 + l2) + (l1 + l3)` and then add the tail (`k ≥ 4·⌊len/4⌋`) in order,
//! which is the AVX2 reduction.  A placement therefore does not depend on
//! the host's vector unit, even on weighted (non-integer) distances.

/// `Σ_k (a[k] − b[k]) · (c[k] − d[k])` over the blocks `[4b, 4b + 4)` whose
/// bit `b` is set in `mask_a | mask_b` (blocks past the end are clipped).
///
/// Equals the dense sum bit for bit whenever every skipped block has
/// `a[k] == b[k] == 0` — the masks of two flow rows — and `c`, `d` are
/// finite.
#[inline]
pub fn delta_dot_masked(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &[f64],
    mask_a: &[u64],
    mask_b: &[u64],
) -> f64 {
    // The wide kernels read `b`, `c`, `d` at `a`'s indices.
    assert!(a.len() == b.len() && a.len() == c.len() && a.len() == d.len());
    debug_assert!(mask_a.len() == a.len().div_ceil(256) && mask_b.len() == mask_a.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { x86::delta_dot_masked(a, b, c, d, mask_a, mask_b) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { neon::delta_dot(a, b, c, d, SetBlocks::new(mask_a, mask_b)) };
        }
    }
    delta_dot_masked_scalar(a, b, c, d, mask_a, mask_b)
}

/// Scalar reference implementation of [`delta_dot_masked`].
#[inline]
pub fn delta_dot_masked_scalar(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &[f64],
    mask_a: &[u64],
    mask_b: &[u64],
) -> f64 {
    dot_blocks_scalar(a, b, c, d, SetBlocks::new(mask_a, mask_b))
}

/// Dense `Σ_k (a[k] − b[k]) · (c[k] − d[k])` over four equal-length
/// slices: [`delta_dot_masked`] with every block set, which it matches bit
/// for bit.  Cheaper than the masked sum when few blocks would be skipped.
#[inline]
pub fn delta_dot(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
    assert!(a.len() == b.len() && a.len() == c.len() && a.len() == d.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { x86::delta_dot(a, b, c, d) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { neon::delta_dot(a, b, c, d, 0..a.len().div_ceil(4)) };
        }
    }
    delta_dot_scalar(a, b, c, d)
}

/// Scalar reference implementation of [`delta_dot`].
#[inline]
pub fn delta_dot_scalar(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
    dot_blocks_scalar(a, b, c, d, 0..a.len().div_ceil(4))
}

/// Ascending indices of the set bits of `mask_a | mask_b`: the 4-wide
/// blocks a masked dot product visits.
struct SetBlocks<'a> {
    mask_a: &'a [u64],
    mask_b: &'a [u64],
    next_word: usize,
    base: usize,
    bits: u64,
}

impl<'a> SetBlocks<'a> {
    #[inline]
    fn new(mask_a: &'a [u64], mask_b: &'a [u64]) -> Self {
        Self {
            mask_a,
            mask_b,
            next_word: 0,
            base: 0,
            bits: 0,
        }
    }
}

impl Iterator for SetBlocks<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let w = self.next_word;
            if w >= self.mask_a.len() {
                return None;
            }
            self.bits = self.mask_a[w] | self.mask_b[w];
            self.base = w * 64;
            self.next_word = w + 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + bit)
    }
}

/// The one definition of the dot-product reduction: four lanes by `k mod 4`
/// over the ascending `blocks`, combined as `(l0 + l2) + (l1 + l3)`, then
/// the partial last block (if visited) added in order.
#[inline]
fn dot_blocks_scalar(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    d: &[f64],
    blocks: impl Iterator<Item = usize>,
) -> f64 {
    let n = a.len();
    let full = n / 4;
    let mut lanes = [0.0f64; 4];
    let mut tail = false;
    for block in blocks {
        if block >= full {
            tail = true;
            break;
        }
        let k = 4 * block;
        for (r, lane) in lanes.iter_mut().enumerate() {
            *lane += (a[k + r] - b[k + r]) * (c[k + r] - d[k + r]);
        }
    }
    let mut total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    if tail {
        for k in 4 * full..n {
            total += (a[k] - b[k]) * (c[k] - d[k]);
        }
    }
    total
}

/// Rank-1 Taillard row update: `row[j] += (A·B + sgh[j]) − (A·h[j] + B·sg[j])`
/// with `A = a_sg`, `B = a_h`.  All slices must have the same length.
///
/// The vector and scalar paths perform identical elementwise operations in
/// identical order (multiply, add, subtract — no FMA), so they are
/// bit-identical on every input, not just integer-valued ones.
#[inline]
pub fn update_row(row: &mut [f64], sg: &[f64], h: &[f64], sgh: &[f64], a_sg: f64, a_h: f64) {
    assert!(row.len() == sg.len() && row.len() == h.len() && row.len() == sgh.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { x86::update_row(row, sg, h, sgh, a_sg, a_h) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            unsafe { neon::update_row(row, sg, h, sgh, a_sg, a_h) };
            return;
        }
    }
    update_row_scalar(row, sg, h, sgh, a_sg, a_h);
}

/// Scalar reference implementation of [`update_row`].
#[inline]
pub fn update_row_scalar(row: &mut [f64], sg: &[f64], h: &[f64], sgh: &[f64], a_sg: f64, a_h: f64) {
    let ab = a_sg * a_h;
    for j in 0..row.len() {
        row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
    }
}

/// Minimum of a slice (`+∞` for an empty one).  Inputs are finite deltas,
/// never NaN.
#[inline]
pub fn row_min(xs: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { x86::row_min(xs) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            // SAFETY: NEON support was just verified at runtime.
            return unsafe { neon::row_min(xs) };
        }
    }
    row_min_scalar(xs)
}

/// Scalar reference implementation of [`row_min`].
#[inline]
pub fn row_min_scalar(xs: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    for &x in xs {
        if x < min {
            min = x;
        }
    }
    min
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn delta_dot(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> f64 {
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut k = 0;
        while k + 4 <= n {
            let va = _mm256_loadu_pd(a.as_ptr().add(k));
            let vb = _mm256_loadu_pd(b.as_ptr().add(k));
            let vc = _mm256_loadu_pd(c.as_ptr().add(k));
            let vd = _mm256_loadu_pd(d.as_ptr().add(k));
            let left = _mm256_sub_pd(va, vb);
            let right = _mm256_sub_pd(vc, vd);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(left, right));
            k += 4;
        }
        let mut total = hsum(acc);
        while k < n {
            total += (a[k] - b[k]) * (c[k] - d[k]);
            k += 1;
        }
        total
    }

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn delta_dot_masked(
        a: &[f64],
        b: &[f64],
        c: &[f64],
        d: &[f64],
        mask_a: &[u64],
        mask_b: &[u64],
    ) -> f64 {
        let n = a.len();
        let full = n / 4;
        let (pa, pb, pc, pd) = (a.as_ptr(), b.as_ptr(), c.as_ptr(), d.as_ptr());
        let mut acc = _mm256_setzero_pd();
        let mut tail = false;
        for w in 0..mask_a.len() {
            let mut bits = mask_a[w] | mask_b[w];
            let base = 64 * w;
            if base + 64 > full {
                // Block `full` is the partial tail block; none lie past it.
                let keep = full.saturating_sub(base);
                tail |= base <= full && (bits >> keep) & 1 != 0;
                bits &= (1u64 << keep) - 1;
            }
            while bits != 0 {
                let k = 4 * (base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                let left = _mm256_sub_pd(_mm256_loadu_pd(pa.add(k)), _mm256_loadu_pd(pb.add(k)));
                let right = _mm256_sub_pd(_mm256_loadu_pd(pc.add(k)), _mm256_loadu_pd(pd.add(k)));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(left, right));
            }
        }
        let mut total = hsum(acc);
        if tail {
            for k in 4 * full..n {
                total += (a[k] - b[k]) * (c[k] - d[k]);
            }
        }
        total
    }

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn update_row(
        row: &mut [f64],
        sg: &[f64],
        h: &[f64],
        sgh: &[f64],
        a_sg: f64,
        a_h: f64,
    ) {
        let n = row.len();
        let ab = a_sg * a_h;
        let vab = _mm256_set1_pd(ab);
        let va = _mm256_set1_pd(a_sg);
        let vb = _mm256_set1_pd(a_h);
        let mut j = 0;
        while j + 4 <= n {
            let vh = _mm256_loadu_pd(h.as_ptr().add(j));
            let vsg = _mm256_loadu_pd(sg.as_ptr().add(j));
            let vsgh = _mm256_loadu_pd(sgh.as_ptr().add(j));
            let vrow = _mm256_loadu_pd(row.as_ptr().add(j));
            // Same operation order as the scalar path: no FMA contraction.
            let pos = _mm256_add_pd(vab, vsgh);
            let neg = _mm256_add_pd(_mm256_mul_pd(va, vh), _mm256_mul_pd(vb, vsg));
            let out = _mm256_add_pd(vrow, _mm256_sub_pd(pos, neg));
            _mm256_storeu_pd(row.as_mut_ptr().add(j), out);
            j += 4;
        }
        while j < n {
            row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
            j += 1;
        }
    }

    /// SAFETY: callers must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_min(xs: &[f64]) -> f64 {
        let n = xs.len();
        let mut acc = _mm256_set1_pd(f64::INFINITY);
        let mut k = 0;
        while k + 4 <= n {
            acc = _mm256_min_pd(acc, _mm256_loadu_pd(xs.as_ptr().add(k)));
            k += 4;
        }
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd::<1>(acc);
        let m2 = _mm_min_pd(lo, hi);
        let m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
        let mut min = _mm_cvtsd_f64(m1);
        while k < n {
            if xs[k] < min {
                min = xs[k];
            }
            k += 1;
        }
        min
    }

    /// `(l0 + l2) + (l1 + l3)`.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s2 = _mm_add_pd(lo, hi);
        let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
        _mm_cvtsd_f64(s1)
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// The dot-product reduction of `dot_blocks_scalar` over the ascending
    /// `blocks`: lanes 0–1 in `lo`, lanes 2–3 in `hi`.
    ///
    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn delta_dot(
        a: &[f64],
        b: &[f64],
        c: &[f64],
        d: &[f64],
        blocks: impl Iterator<Item = usize>,
    ) -> f64 {
        let n = a.len();
        let full = n / 4;
        let mut lo = vdupq_n_f64(0.0);
        let mut hi = vdupq_n_f64(0.0);
        let mut tail = false;
        for block in blocks {
            if block >= full {
                tail = true;
                break;
            }
            let k = 4 * block;
            let left = vsubq_f64(vld1q_f64(a.as_ptr().add(k)), vld1q_f64(b.as_ptr().add(k)));
            let right = vsubq_f64(vld1q_f64(c.as_ptr().add(k)), vld1q_f64(d.as_ptr().add(k)));
            lo = vaddq_f64(lo, vmulq_f64(left, right));
            let k = k + 2;
            let left = vsubq_f64(vld1q_f64(a.as_ptr().add(k)), vld1q_f64(b.as_ptr().add(k)));
            let right = vsubq_f64(vld1q_f64(c.as_ptr().add(k)), vld1q_f64(d.as_ptr().add(k)));
            hi = vaddq_f64(hi, vmulq_f64(left, right));
        }
        // (l0 + l2, l1 + l3), then their sum.
        let pair = vaddq_f64(lo, hi);
        let mut total = vgetq_lane_f64::<0>(pair) + vgetq_lane_f64::<1>(pair);
        if tail {
            for k in 4 * full..n {
                total += (a[k] - b[k]) * (c[k] - d[k]);
            }
        }
        total
    }

    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn update_row(
        row: &mut [f64],
        sg: &[f64],
        h: &[f64],
        sgh: &[f64],
        a_sg: f64,
        a_h: f64,
    ) {
        let n = row.len();
        let ab = a_sg * a_h;
        let vab = vdupq_n_f64(ab);
        let va = vdupq_n_f64(a_sg);
        let vb = vdupq_n_f64(a_h);
        let mut j = 0;
        while j + 2 <= n {
            let vh = vld1q_f64(h.as_ptr().add(j));
            let vsg = vld1q_f64(sg.as_ptr().add(j));
            let vsgh = vld1q_f64(sgh.as_ptr().add(j));
            let vrow = vld1q_f64(row.as_ptr().add(j));
            // Same operation order as the scalar path: no FMA contraction.
            let pos = vaddq_f64(vab, vsgh);
            let neg = vaddq_f64(vmulq_f64(va, vh), vmulq_f64(vb, vsg));
            let out = vaddq_f64(vrow, vsubq_f64(pos, neg));
            vst1q_f64(row.as_mut_ptr().add(j), out);
            j += 2;
        }
        while j < n {
            row[j] += (ab + sgh[j]) - (a_sg * h[j] + a_h * sg[j]);
            j += 1;
        }
    }

    /// SAFETY: callers must have verified NEON support at runtime.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_min(xs: &[f64]) -> f64 {
        let n = xs.len();
        let mut acc = vdupq_n_f64(f64::INFINITY);
        let mut k = 0;
        while k + 2 <= n {
            acc = vminq_f64(acc, vld1q_f64(xs.as_ptr().add(k)));
            k += 2;
        }
        let mut min = {
            let a = vgetq_lane_f64::<0>(acc);
            let b = vgetq_lane_f64::<1>(acc);
            if b < a {
                b
            } else {
                a
            }
        };
        while k < n {
            if xs[k] < min {
                min = xs[k];
            }
            k += 1;
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| f64::from(rng.gen_range(-9..10))).collect()
    }

    /// Non-integer values, so every change of reduction order would show.
    fn random_real(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect()
    }

    /// A flow-like row: each 4-wide block is all zero with probability 3/4.
    fn sparse_real(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut xs = random_real(rng, n);
        for block in xs.chunks_mut(4) {
            if rng.gen_range(0..4) != 0 {
                block.iter_mut().for_each(|x| *x = 0.0);
            }
        }
        xs
    }

    fn block_mask(xs: &[f64]) -> Vec<u64> {
        let mut mask = vec![0u64; xs.len().div_ceil(256)];
        for (k, &x) in xs.iter().enumerate() {
            if x != 0.0 {
                mask[k / 256] |= 1 << ((k / 4) % 64);
            }
        }
        mask
    }

    #[test]
    fn delta_dot_is_bit_identical_to_scalar_on_non_integer_inputs() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [0usize, 1, 3, 4, 5, 8, 13, 64, 81, 200] {
            let (a, b) = (random_real(&mut rng, n), random_real(&mut rng, n));
            let (c, d) = (random_real(&mut rng, n), random_real(&mut rng, n));
            let wide = delta_dot(&a, &b, &c, &d);
            let scalar = delta_dot_scalar(&a, &b, &c, &d);
            assert_eq!(wide.to_bits(), scalar.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn masked_delta_dot_is_bit_identical_to_the_dense_sum() {
        let mut rng = StdRng::seed_from_u64(10);
        // Lengths off a multiple of 4 (partial last block) and past 256
        // (multi-word masks).
        for n in [0usize, 1, 2, 5, 16, 27, 54, 81, 210, 257, 300, 515] {
            for _ in 0..8 {
                let (a, b) = (sparse_real(&mut rng, n), sparse_real(&mut rng, n));
                let (c, d) = (random_real(&mut rng, n), random_real(&mut rng, n));
                let (mask_a, mask_b) = (block_mask(&a), block_mask(&b));
                let dense = delta_dot_scalar(&a, &b, &c, &d).to_bits();
                let masked = delta_dot_masked(&a, &b, &c, &d, &mask_a, &mask_b);
                let masked_scalar = delta_dot_masked_scalar(&a, &b, &c, &d, &mask_a, &mask_b);
                assert_eq!(masked.to_bits(), dense, "n = {n}");
                assert_eq!(masked_scalar.to_bits(), dense, "n = {n}");
                assert_eq!(delta_dot(&a, &b, &c, &d).to_bits(), dense, "n = {n}");
            }
        }
    }

    #[test]
    fn update_row_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [0usize, 1, 2, 4, 7, 31, 81, 200] {
            let base: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect();
            let sg: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let h: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let sgh: Vec<f64> = sg.iter().zip(&h).map(|(&s, &t)| s * t).collect();
            let (a_sg, a_h) = (rng.gen::<f64>() * 3.0, rng.gen::<f64>() * 3.0);
            let mut wide = base.clone();
            let mut scalar = base;
            update_row(&mut wide, &sg, &h, &sgh, a_sg, a_h);
            update_row_scalar(&mut scalar, &sg, &h, &sgh, a_sg, a_h);
            // Non-integer inputs on purpose: the two paths share the exact
            // operation order, so equality is bitwise, not just approximate.
            assert_eq!(wide, scalar, "n = {n}");
        }
    }

    #[test]
    fn row_min_matches_scalar_and_handles_edges() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(row_min(&[]), f64::INFINITY);
        assert_eq!(row_min_scalar(&[]), f64::INFINITY);
        for n in [1usize, 2, 3, 4, 5, 9, 64, 81, 203] {
            let xs = random_vec(&mut rng, n);
            let expect = row_min_scalar(&xs);
            assert_eq!(row_min(&xs), expect);
            assert_eq!(xs.iter().copied().fold(f64::INFINITY, f64::min), expect);
        }
    }
}
