//! Simulation backend for the 2QAN reproduction.
//!
//! The paper's Fig. 10 runs QAOA benchmarks on the real IBMQ Montreal device
//! and measures the normalised cost `⟨C⟩ / C_min`.  Real hardware is not
//! available here, so this crate provides the substitution described in
//! DESIGN.md: an exact state-vector simulator for the noiseless expectation
//! values, plus a depolarizing/readout/decoherence noise model calibrated
//! with the Montreal figures quoted in §IV, and a stochastic Pauli-error
//! trajectory sampler used to validate the analytic model.
//!
//! The key property the substitution must preserve is the *monotone*
//! relationship between compilation quality (fewer native two-qubit gates,
//! shallower circuits) and application performance — which is exactly what a
//! calibrated depolarizing model yields.
//!
//! Gate application runs on the kernels of [`kernels`]: stride-enumeration
//! kernels with specialized fast paths for the diagonal / swap-like gate
//! classes that dominate 2QAN workloads, per-kind matrix caching, and
//! deterministic amplitude-chunk / shot-level multi-threading (bit-identical
//! results for any thread count).  They are the only engine.  The naive
//! pre-kernel loops they are checked against (`StateVector::apply_*_naive`,
//! `TrajectorySimulator::naive_expectation`) are test oracles, compiled only
//! for tests and under the `reference` feature.  See `BENCHMARKS.md`
//! § Simulation for the perf trajectory.

#![deny(missing_docs)]

pub mod kernels;
pub mod noise;
pub mod qaoa_eval;
pub mod simd;
pub mod statevector;
pub mod trajectories;

pub use kernels::{CompiledCircuit, CompiledOp, SingleKernel, TwoKernel};
pub use noise::{EspBreakdown, NoiseModel, TargetNoiseModel};
pub use qaoa_eval::{evaluate_qaoa, optimize_angles, QaoaEvaluation};
pub use statevector::StateVector;
pub use trajectories::{IsingCostTable, TrajectorySimulator};
