//! Umbrella crate for the 2QAN reproduction workspace.
//!
//! This crate re-exports the member crates so that the examples under
//! `examples/` and the integration tests under `tests/` can use a single
//! dependency.  Downstream users should normally depend on the individual
//! crates (e.g. [`twoqan`], [`twoqan_ham`]) directly.
//!
//! # Quickstart
//!
//! ```
//! use twoqan_repro::prelude::*;
//!
//! // Build a 6-qubit NNN Ising Hamiltonian and compile one Trotter step to
//! // the IBMQ Montreal device.
//! let ham = nnn_ising(6, 1234);
//! let circuit = trotterize(&ham, 1, 0.3);
//! let device = Device::montreal();
//! let compiler = TwoQanCompiler::new(TwoQanConfig::default());
//! let result = compiler.compile(&circuit, &device).unwrap();
//! assert!(result.hardware_circuit.two_qubit_gate_count() > 0);
//! ```

pub use twoqan;
pub use twoqan_baselines;
pub use twoqan_circuit;
pub use twoqan_device;
pub use twoqan_graphs;
pub use twoqan_ham;
pub use twoqan_math;
pub use twoqan_sim;
pub use twoqan_verify;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use twoqan::{
        BatchCompiler, BatchJob, CompiledOutput, Compiler, PassManager, PipelineReport,
        TwoQanCompiler, TwoQanConfig,
    };
    pub use twoqan_baselines::{
        CompilerRegistry, GenericCompiler, GenericConfig, IcQaoaCompiler, NoMapCompiler,
        PaulihedralCompiler, RegistryOptions,
    };
    pub use twoqan_circuit::{Circuit, Gate, GateKind, Qubit};
    pub use twoqan_device::{Device, GateSet, TwoQubitBasis};
    pub use twoqan_ham::{nnn_heisenberg, nnn_ising, nnn_xy, trotterize, Hamiltonian, QaoaProblem};
    pub use twoqan_sim::{NoiseModel, StateVector};
    pub use twoqan_verify::{EquivalenceChecker, EquivalenceMode};
}
