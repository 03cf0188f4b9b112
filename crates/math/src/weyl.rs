//! Weyl-chamber (canonical) classification of two-qubit unitaries.
//!
//! Every two-qubit unitary `U` can be written as
//! `U = (k₁ ⊗ k₂) · Can(c₁, c₂, c₃) · (k₃ ⊗ k₄)` for single-qubit unitaries
//! `kᵢ` and the canonical gate `Can(a,b,c) = exp(i(a·XX + b·YY + c·ZZ))`
//! — the KAK / Cartan decomposition.  The coordinates `(c₁, c₂, c₃)` (modulo
//! the Weyl-group symmetries) determine how many hardware two-qubit gates of
//! a given native basis are needed to implement `U`, which is exactly what
//! the 2QAN gate-decomposition pass and the benchmark harness need.
//!
//! This module provides:
//!
//! * [`MakhlinInvariants`] — the local invariants `(G₁, G₂)` of a two-qubit
//!   unitary, used to test local equivalence,
//! * [`WeylCoordinates`] — canonical coordinates folded into the chamber
//!   `π/4 ≥ c₁ ≥ c₂ ≥ c₃ ≥ 0`, computed either analytically from interaction
//!   parameters or numerically from an arbitrary 4×4 unitary,
//! * [`eigenvalues4`] — a small Durand–Kerner root finder for the quartic
//!   characteristic polynomial used by the numerical path.
//!
//! The folded chamber identifies a gate class with its mirror (complex
//! conjugate) class.  Mirror classes require identical numbers of basis
//! gates for every basis considered here, so the distinction is irrelevant
//! for cost modelling; this is documented behaviour, not an accident.

use crate::complex::{c64, Complex};
use crate::matrix::Matrix4;
use crate::{wrap_angle, LOOSE_EPSILON};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// The "magic" Bell-like basis change matrix used in the KAK decomposition.
pub fn magic_basis() -> Matrix4 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let mut m = Matrix4::zero();
    m.data[0][0] = c64(s, 0.0);
    m.data[0][3] = c64(0.0, s);
    m.data[1][1] = c64(0.0, s);
    m.data[1][2] = c64(s, 0.0);
    m.data[2][1] = c64(0.0, s);
    m.data[2][2] = c64(-s, 0.0);
    m.data[3][0] = c64(s, 0.0);
    m.data[3][3] = c64(0.0, -s);
    m
}

/// Makhlin local invariants `(G₁ ∈ ℂ, G₂ ∈ ℝ)` of a two-qubit unitary.
///
/// Two two-qubit unitaries are equivalent under single-qubit (local)
/// operations iff their invariants coincide.  Reference values:
/// identity → `(1, 3)`, CNOT/CZ → `(0, 1)`, SWAP → `(−1, −3)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakhlinInvariants {
    /// The complex invariant `G₁ = tr²(m) / (16 · det U)`.
    pub g1: Complex,
    /// The real invariant `G₂ = (tr²(m) − tr(m²)) / (4 · det U)`.
    pub g2: f64,
}

impl MakhlinInvariants {
    /// Computes the invariants of a two-qubit unitary.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `u` is not unitary.
    pub fn of(u: &Matrix4) -> Self {
        debug_assert!(
            u.is_unitary(1e-6),
            "Makhlin invariants require a unitary matrix"
        );
        let m = magic_basis();
        let um = m.dagger().mul(u).mul(&m);
        let gamma = um.transpose().mul(&um);
        let tr = gamma.trace();
        let tr2 = gamma.mul(&gamma).trace();
        let det = u.det();
        let g1 = tr * tr / (det * 16.0);
        let g2c = (tr * tr - tr2) / (det * 4.0);
        Self { g1, g2: g2c.re }
    }

    /// Returns `true` if two invariant pairs agree within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.g1.approx_eq(other.g1, tol) && (self.g2 - other.g2).abs() < tol
    }
}

/// Canonical (Weyl-chamber) coordinates of a two-qubit unitary, folded into
/// `π/4 ≥ c₁ ≥ c₂ ≥ c₃ ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeylCoordinates {
    /// Largest coordinate, in `[0, π/4]`.
    pub c1: f64,
    /// Middle coordinate.
    pub c2: f64,
    /// Smallest coordinate.
    pub c3: f64,
}

impl WeylCoordinates {
    /// Coordinates of the identity class.
    pub fn identity() -> Self {
        Self {
            c1: 0.0,
            c2: 0.0,
            c3: 0.0,
        }
    }

    /// Coordinates of the CNOT/CZ class, `(π/4, 0, 0)`.
    pub fn cnot() -> Self {
        Self {
            c1: FRAC_PI_4,
            c2: 0.0,
            c3: 0.0,
        }
    }

    /// Coordinates of the iSWAP class, `(π/4, π/4, 0)`.
    pub fn iswap() -> Self {
        Self {
            c1: FRAC_PI_4,
            c2: FRAC_PI_4,
            c3: 0.0,
        }
    }

    /// Coordinates of the SWAP class, `(π/4, π/4, π/4)`.
    pub fn swap() -> Self {
        Self {
            c1: FRAC_PI_4,
            c2: FRAC_PI_4,
            c3: FRAC_PI_4,
        }
    }

    /// Builds coordinates analytically from interaction parameters, i.e. the
    /// class of `Can(a, b, c) = exp(i(a·XX + b·YY + c·ZZ))`.
    ///
    /// This is exact (no numerics) and is the path used for the
    /// application-level unitaries carried through the 2QAN pipeline, which
    /// are all canonical gates or SWAP·canonical products.
    pub fn from_interaction(a: f64, b: f64, c: f64) -> Self {
        Self::canonicalize([a, b, c])
    }

    /// Coordinates of the "dressed SWAP" `SWAP · Can(a, b, c)`.
    ///
    /// Because SWAP is (up to phase) `Can(π/4, π/4, π/4)` and canonical gates
    /// compose additively, the class is `Can(a + π/4, b + π/4, c + π/4)`.
    pub fn from_dressed_swap(a: f64, b: f64, c: f64) -> Self {
        Self::canonicalize([a + FRAC_PI_4, b + FRAC_PI_4, c + FRAC_PI_4])
    }

    /// Numerically computes the coordinates of an arbitrary two-qubit
    /// unitary via the magic-basis spectral method.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `u` is not unitary.
    pub fn of(u: &Matrix4) -> Self {
        debug_assert!(
            u.is_unitary(1e-6),
            "Weyl coordinates require a unitary matrix"
        );
        let m = magic_basis();
        let mut um = m.dagger().mul(u).mul(&m);
        // Normalise to determinant 1 (the i^k branch ambiguity only shifts
        // coordinates by π/2, which the canonicalisation absorbs).
        let det = um.det();
        let scale = det.powf(-0.25);
        um = um.scale(scale);
        let gamma = um.transpose().mul(&um);
        let eigs = eigenvalues4(&gamma);
        let thetas: Vec<f64> = eigs.iter().map(|l| l.arg() / 2.0).collect();
        let raw = [
            (thetas[0] + thetas[1]) / 2.0,
            (thetas[0] + thetas[2]) / 2.0,
            (thetas[1] + thetas[2]) / 2.0,
        ];
        Self::canonicalize(raw)
    }

    /// Folds arbitrary interaction parameters into the canonical chamber:
    /// each coordinate is reduced modulo π/2, reflected into `[0, π/4]`, and
    /// the triple is sorted in descending order.
    fn canonicalize(raw: [f64; 3]) -> Self {
        let mut cs: Vec<f64> = raw
            .iter()
            .map(|&x| {
                let w = wrap_angle(x, FRAC_PI_2);
                let folded = if w > FRAC_PI_4 { FRAC_PI_2 - w } else { w };
                // Snap values that are numerically 0 or π/4.
                if folded.abs() < LOOSE_EPSILON {
                    0.0
                } else if (folded - FRAC_PI_4).abs() < LOOSE_EPSILON {
                    FRAC_PI_4
                } else {
                    folded
                }
            })
            .collect();
        cs.sort_by(|a, b| b.partial_cmp(a).expect("weyl coordinates are finite"));
        Self {
            c1: cs[0],
            c2: cs[1],
            c3: cs[2],
        }
    }

    /// Returns `true` if the coordinates match `other` within `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        (self.c1 - other.c1).abs() < tol
            && (self.c2 - other.c2).abs() < tol
            && (self.c3 - other.c3).abs() < tol
    }

    /// Returns `true` if the gate is locally equivalent to the identity
    /// (needs no two-qubit hardware gates at all).
    pub fn is_identity_class(&self) -> bool {
        self.c1 < LOOSE_EPSILON
    }

    /// Returns `true` if the gate is locally equivalent to CNOT/CZ.
    pub fn is_cnot_class(&self) -> bool {
        (self.c1 - FRAC_PI_4).abs() < LOOSE_EPSILON
            && self.c2 < LOOSE_EPSILON
            && self.c3 < LOOSE_EPSILON
    }

    /// Returns `true` if the gate is locally equivalent to iSWAP.
    pub fn is_iswap_class(&self) -> bool {
        (self.c1 - FRAC_PI_4).abs() < LOOSE_EPSILON
            && (self.c2 - FRAC_PI_4).abs() < LOOSE_EPSILON
            && self.c3 < LOOSE_EPSILON
    }

    /// Returns `true` if the gate is locally equivalent to SWAP.
    pub fn is_swap_class(&self) -> bool {
        (self.c1 - FRAC_PI_4).abs() < LOOSE_EPSILON
            && (self.c2 - FRAC_PI_4).abs() < LOOSE_EPSILON
            && (self.c3 - FRAC_PI_4).abs() < LOOSE_EPSILON
    }

    /// Returns `true` if the smallest coordinate vanishes, i.e. the gate lies
    /// in the two-basis-gate ("c₃ = 0") plane of the chamber.
    pub fn has_zero_c3(&self) -> bool {
        self.c3 < LOOSE_EPSILON
    }

    /// A rough "entangling strength" measure, `c₁ + c₂ + c₃` (0 for local
    /// gates, `3π/4` for the SWAP class after folding).
    pub fn interaction_strength(&self) -> f64 {
        self.c1 + self.c2 + self.c3
    }
}

impl std::fmt::Display for WeylCoordinates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.4}, {:.4}, {:.4})", self.c1, self.c2, self.c3)
    }
}

/// Eigenvalues of a 4×4 complex matrix via the characteristic polynomial and
/// Durand–Kerner iteration.
///
/// Intended for unitary inputs (eigenvalues on the unit circle).  Matrices
/// that are numerically diagonal short-circuit to their diagonal entries,
/// which also covers the fully-degenerate (scalar) case where polynomial
/// root finding loses accuracy.
pub fn eigenvalues4(m: &Matrix4) -> [Complex; 4] {
    // Short-circuit for (numerically) diagonal matrices.
    let mut off = 0.0f64;
    for i in 0..4 {
        for j in 0..4 {
            if i != j {
                off = off.max(m.data[i][j].abs());
            }
        }
    }
    if off < 1e-9 {
        return [m.data[0][0], m.data[1][1], m.data[2][2], m.data[3][3]];
    }

    // Characteristic polynomial λ⁴ − e₁λ³ + e₂λ² − e₃λ + e₄ via Newton's
    // identities on the power sums p_k = tr(Mᵏ).
    let m2 = m.mul(m);
    let m3 = m2.mul(m);
    let m4 = m3.mul(m);
    let p1 = m.trace();
    let p2 = m2.trace();
    let p3 = m3.trace();
    let p4 = m4.trace();
    let e1 = p1;
    let e2 = (e1 * p1 - p2) / 2.0;
    let e3 = (e2 * p1 - e1 * p2 + p3) / 3.0;
    let e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0;
    // Coefficients of λ⁴ + a₃λ³ + a₂λ² + a₁λ + a₀.
    let coeffs = [-e1, e2, -e3, e4];
    durand_kerner(coeffs)
}

/// Durand–Kerner root finding for the monic quartic
/// `λ⁴ + a₃λ³ + a₂λ² + a₁λ + a₀` (coefficients given as `[a₃, a₂, a₁, a₀]`).
fn durand_kerner(coeffs: [Complex; 4]) -> [Complex; 4] {
    let eval = |x: Complex| -> Complex {
        ((x + coeffs[0]) * x + coeffs[1]) * x * x + coeffs[2] * x + coeffs[3]
    };
    // Standard non-real, non-root-of-unity starting points.
    let seed = c64(0.4, 0.9);
    let mut roots = [
        seed,
        seed * seed,
        seed * seed * seed,
        seed * seed * seed * seed,
    ];
    for _ in 0..200 {
        let mut max_step = 0.0f64;
        for i in 0..4 {
            let mut denom = Complex::one();
            for j in 0..4 {
                if i != j {
                    denom *= roots[i] - roots[j];
                }
            }
            if denom.abs() < 1e-300 {
                // Perturb collided estimates slightly.
                roots[i] += c64(1e-8, 1e-8);
                continue;
            }
            let step = eval(roots[i]) / denom;
            roots[i] -= step;
            max_step = max_step.max(step.abs());
        }
        if max_step < 1e-14 {
            break;
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::matrix::Matrix2;

    fn conjugate_by_locals(u: &Matrix4, k: [&Matrix2; 4]) -> Matrix4 {
        gates::embed_single(k[0], 0)
            .mul(&gates::embed_single(k[1], 1))
            .mul(u)
            .mul(&gates::embed_single(k[2], 0))
            .mul(&gates::embed_single(k[3], 1))
    }

    #[test]
    fn magic_basis_is_unitary() {
        assert!(magic_basis().is_unitary(1e-12));
    }

    #[test]
    fn makhlin_invariants_of_reference_gates() {
        let id = MakhlinInvariants::of(&Matrix4::identity());
        assert!(id.g1.approx_eq(Complex::one(), 1e-9));
        assert!((id.g2 - 3.0).abs() < 1e-9);

        let cnot = MakhlinInvariants::of(&gates::cnot());
        assert!(cnot.g1.approx_eq(Complex::zero(), 1e-9));
        assert!((cnot.g2 - 1.0).abs() < 1e-9);

        let swap = MakhlinInvariants::of(&gates::swap());
        assert!(swap.g1.approx_eq(c64(-1.0, 0.0), 1e-9));
        assert!((swap.g2 + 3.0).abs() < 1e-9);

        // CZ is locally equivalent to CNOT.
        let cz = MakhlinInvariants::of(&gates::cz());
        assert!(cz.approx_eq(&cnot, 1e-9));
    }

    #[test]
    fn makhlin_invariants_are_local_invariants() {
        let u = gates::canonical(0.31, 0.17, 0.05);
        let base = MakhlinInvariants::of(&u);
        let dressed = conjugate_by_locals(
            &u,
            [
                &gates::rx(0.4),
                &gates::ry(1.3),
                &gates::rz(-0.7),
                &gates::hadamard(),
            ],
        );
        let inv = MakhlinInvariants::of(&dressed);
        assert!(base.approx_eq(&inv, 1e-8));
    }

    #[test]
    fn weyl_coordinates_of_reference_gates() {
        assert!(
            WeylCoordinates::of(&Matrix4::identity()).approx_eq(&WeylCoordinates::identity(), 1e-6)
        );
        assert!(WeylCoordinates::of(&gates::cnot()).approx_eq(&WeylCoordinates::cnot(), 1e-6));
        assert!(WeylCoordinates::of(&gates::cz()).approx_eq(&WeylCoordinates::cnot(), 1e-6));
        assert!(WeylCoordinates::of(&gates::iswap()).approx_eq(&WeylCoordinates::iswap(), 1e-6));
        assert!(WeylCoordinates::of(&gates::swap()).approx_eq(&WeylCoordinates::swap(), 1e-6));
    }

    #[test]
    fn weyl_coordinates_numeric_matches_analytic_for_canonical_gates() {
        for &(a, b, c) in &[
            (0.3, 0.2, 0.1),
            (0.7, 0.05, 0.0),
            (0.0, 0.0, 0.43),
            (1.1, 0.9, 0.2),
            (0.2, 0.2, 0.2),
        ] {
            let numeric = WeylCoordinates::of(&gates::canonical(a, b, c));
            let analytic = WeylCoordinates::from_interaction(a, b, c);
            assert!(
                numeric.approx_eq(&analytic, 1e-5),
                "mismatch for ({a},{b},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn weyl_coordinates_invariant_under_local_rotations() {
        let u = gates::canonical(0.45, 0.3, 0.12);
        let base = WeylCoordinates::of(&u);
        let dressed = conjugate_by_locals(
            &u,
            [
                &gates::rz(0.8),
                &gates::rx(0.33),
                &gates::ry(-1.9),
                &gates::t_gate(),
            ],
        );
        let coords = WeylCoordinates::of(&dressed);
        assert!(
            base.approx_eq(&coords, 1e-5),
            "base {base} vs dressed {coords}"
        );
    }

    #[test]
    fn canonicalization_folds_and_sorts() {
        // Plain chamber point stays put (sorted).
        let w = WeylCoordinates::from_interaction(0.1, 0.3, 0.2);
        assert!(w.approx_eq(
            &WeylCoordinates {
                c1: 0.3,
                c2: 0.2,
                c3: 0.1
            },
            1e-12
        ));
        // Values above π/4 reflect back.
        let w = WeylCoordinates::from_interaction(FRAC_PI_2 - 0.1, 0.0, 0.0);
        assert!((w.c1 - 0.1).abs() < 1e-12);
        // Shifting any coordinate by π/2 is a no-op on the class.
        let a = WeylCoordinates::from_interaction(0.2 + FRAC_PI_2, 0.1, 0.05);
        let b = WeylCoordinates::from_interaction(0.2, 0.1, 0.05);
        assert!(a.approx_eq(&b, 1e-12));
        // Negative parameters fold into the chamber too.
        let n = WeylCoordinates::from_interaction(-0.2, 0.1, 0.0);
        assert!(n.approx_eq(
            &WeylCoordinates {
                c1: 0.2,
                c2: 0.1,
                c3: 0.0
            },
            1e-12
        ));
    }

    #[test]
    fn dressed_swap_coordinates() {
        // SWAP · exp(iθZZ) has coordinates (π/4, π/4, π/4 − θ) — a generic
        // three-basis-gate class, consistent with Fig. 5 of the paper.
        let theta = 0.3;
        let analytic = WeylCoordinates::from_dressed_swap(0.0, 0.0, theta);
        let numeric = WeylCoordinates::of(&gates::dressed_swap(0.0, 0.0, theta));
        assert!(analytic.approx_eq(&numeric, 1e-5));
        assert!((analytic.c1 - FRAC_PI_4).abs() < 1e-9);
        assert!((analytic.c3 - (FRAC_PI_4 - theta)).abs() < 1e-9);
        // A dressed SWAP with no circuit gate is just a SWAP.
        assert!(WeylCoordinates::from_dressed_swap(0.0, 0.0, 0.0)
            .approx_eq(&WeylCoordinates::swap(), 1e-9));
    }

    #[test]
    fn classification_predicates() {
        assert!(WeylCoordinates::identity().is_identity_class());
        assert!(WeylCoordinates::cnot().is_cnot_class());
        assert!(WeylCoordinates::iswap().is_iswap_class());
        assert!(WeylCoordinates::swap().is_swap_class());
        assert!(WeylCoordinates::cnot().has_zero_c3());
        assert!(!WeylCoordinates::swap().has_zero_c3());
        let xy = WeylCoordinates::from_interaction(0.3, 0.2, 0.0);
        assert!(xy.has_zero_c3());
        assert!(!xy.is_cnot_class());
        assert!((WeylCoordinates::swap().interaction_strength() - 3.0 * FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_of_diagonal_and_generic_matrices() {
        let d = Matrix4::diagonal([
            Complex::cis(0.3),
            Complex::cis(-0.3),
            Complex::cis(1.1),
            Complex::cis(-1.1),
        ]);
        let eigs = eigenvalues4(&d);
        let mut phases: Vec<f64> = eigs.iter().map(|e| e.arg()).collect();
        phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((phases[0] + 1.1).abs() < 1e-9);
        assert!((phases[3] - 1.1).abs() < 1e-9);

        // A generic unitary: check the eigenvalues satisfy det and trace.
        let u = gates::canonical(0.37, 0.21, 0.11);
        let m = magic_basis();
        let um = m.dagger().mul(&u).mul(&m);
        let gamma = um.transpose().mul(&um);
        let eigs = eigenvalues4(&gamma);
        let prod = eigs.iter().fold(Complex::one(), |a, b| a * *b);
        assert!(prod.approx_eq(gamma.det(), 1e-7));
        let sum: Complex = eigs.iter().copied().sum();
        assert!(sum.approx_eq(gamma.trace(), 1e-7));
    }

    #[test]
    fn xy_class_has_two_gate_structure() {
        // exp(i(aXX + bYY)) lies in the c₃ = 0 plane for small a, b.
        let coords = WeylCoordinates::of(&gates::canonical(0.4, 0.25, 0.0));
        assert!(coords.has_zero_c3());
        assert!(!coords.is_identity_class());
    }
}
