//! Order-respecting general-purpose compilers (the Qiskit / t|ket⟩ stand-ins).
//!
//! Both configurations respect the gate order of the input circuit — the
//! defining limitation the paper exploits: a generic compiler cannot permute
//! anti-commuting exponentials, so its router and scheduler must honour the
//! dependencies implied by the input order.
//!
//! * `qiskit_like` — trivial initial placement, per-gate greedy routing
//!   without look-ahead (heavier SWAP insertion, like Qiskit's results in
//!   the paper, which are consistently the worst).
//! * `tket_like` — "line placement" along a device path plus a look-ahead
//!   SWAP selection (fewer SWAPs, like t|ket⟩'s results, but still well
//!   above 2QAN).
//!
//! Both run as pass pipelines (`[unify, placement, ordered-routing,
//! asap-schedule, decompose]`, see [`crate::passes`]) behind the
//! [`Compiler`] trait.

use crate::passes::{AsapSchedulePass, OrderedRoutingPass, PlacementPass};
use twoqan::pipeline::{ensure_fits, CompilationContext, CompiledOutput, Compiler, PassManager};
use twoqan::{CompileError, DecomposePass, UnifyPass};
use twoqan_circuit::Circuit;
use twoqan_device::Device;

/// Configuration of the generic order-respecting compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenericConfig {
    /// Place logical qubits along a BFS path of the device (t|ket⟩'s
    /// LinePlacement); otherwise use the trivial identity placement.
    pub line_placement: bool,
    /// Number of upcoming gates considered when scoring a candidate SWAP
    /// (0 = no look-ahead).
    pub lookahead: usize,
    /// Display name.
    pub name: &'static str,
}

impl GenericConfig {
    /// The Qiskit-like configuration: trivial placement, no look-ahead.
    pub fn qiskit_like() -> Self {
        Self {
            line_placement: false,
            lookahead: 0,
            name: "Qiskit-like",
        }
    }

    /// The t|ket⟩-like configuration: line placement and look-ahead 5.
    pub fn tket_like() -> Self {
        Self {
            line_placement: true,
            lookahead: 5,
            name: "tket-like",
        }
    }
}

/// An order-respecting mapper + router + scheduler.
#[derive(Debug, Clone, Copy)]
pub struct GenericCompiler {
    config: GenericConfig,
}

impl GenericCompiler {
    /// Creates a generic compiler with the given configuration.
    pub fn new(config: GenericConfig) -> Self {
        Self { config }
    }

    /// The Qiskit-like compiler.
    pub fn qiskit_like() -> Self {
        Self::new(GenericConfig::qiskit_like())
    }

    /// The t|ket⟩-like compiler.
    pub fn tket_like() -> Self {
        Self::new(GenericConfig::tket_like())
    }

    /// The pass pipeline this configuration describes.
    pub fn pipeline(&self) -> PassManager {
        PassManager::with_passes(vec![
            // The paper pre-processes the baselines' inputs with the same
            // circuit-unitary-unifying pass used for 2QAN.
            Box::new(UnifyPass),
            Box::new(PlacementPass::new(self.config.line_placement)),
            Box::new(OrderedRoutingPass::new(self.config.lookahead)),
            Box::new(AsapSchedulePass),
            Box::new(DecomposePass),
        ])
    }
}

impl Compiler for GenericCompiler {
    fn name(&self) -> &'static str {
        self.config.name
    }

    fn order_respecting(&self) -> bool {
        true
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        ensure_fits(circuit, device)?;
        let mut ctx = CompilationContext::for_device(circuit.clone(), device, 0);
        let report = self.pipeline().run(&mut ctx)?;
        Ok(ctx.into_output(self.config.name, report))
    }

    fn cache_fingerprint(&self, h: &mut twoqan::hash::ContentHasher) {
        // A custom `GenericConfig` may reuse a display name with different
        // placement/look-ahead knobs, so hash the whole configuration.  No
        // `..`: a new field fails to compile here until it is hashed.
        let GenericConfig {
            line_placement,
            lookahead,
            name,
        } = self.config;
        h.write_str(name);
        h.write_u8(line_placement.into());
        h.write_usize(lookahead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_circuit::Gate;
    use twoqan_device::TwoQubitBasis;
    use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step, QaoaProblem};

    #[test]
    fn both_configurations_produce_hardware_compatible_circuits() {
        let circuit = trotter_step(&nnn_heisenberg(10, 3), 1.0);
        let device = Device::montreal();
        for compiler in [GenericCompiler::qiskit_like(), GenericCompiler::tket_like()] {
            let r = compiler.compile(&circuit, &device).unwrap();
            assert!(r.hardware_compatible(&device), "{}", r.compiler);
            // All 17 application gates survive (never merged into SWAPs).
            assert_eq!(r.metrics.application_two_qubit_count - r.swap_count(), 17);
            assert_eq!(r.metrics.dressed_swap_count, 0);
        }
    }

    #[test]
    fn tket_like_uses_fewer_swaps_than_qiskit_like_on_average() {
        let mut qiskit_total = 0usize;
        let mut tket_total = 0usize;
        for seed in 0..5u64 {
            let circuit = trotter_step(&nnn_ising(12, seed), 1.0);
            let device = Device::montreal();
            qiskit_total += GenericCompiler::qiskit_like()
                .compile(&circuit, &device)
                .unwrap()
                .swap_count();
            tket_total += GenericCompiler::tket_like()
                .compile(&circuit, &device)
                .unwrap()
                .swap_count();
        }
        assert!(
            tket_total <= qiskit_total,
            "tket-like ({tket_total}) should not use more SWAPs than qiskit-like ({qiskit_total})"
        );
    }

    #[test]
    fn qaoa_circuits_route_on_all_devices() {
        let problem = QaoaProblem::random_regular(12, 3, 1);
        let circuit = problem.circuit(&[(0.6, 0.4)], true);
        for device in [Device::sycamore(), Device::montreal(), Device::aspen()] {
            let r = GenericCompiler::tket_like()
                .compile(&circuit, &device)
                .unwrap();
            assert!(r.hardware_compatible(&device), "{}", device.name());
            assert!(r.swap_count() > 0);
        }
    }

    #[test]
    fn perfectly_embeddable_chain_needs_no_swaps_with_line_placement() {
        let mut circuit = Circuit::new(6);
        for i in 0..5 {
            circuit.push(Gate::canonical(i, i + 1, 0.0, 0.0, 0.2));
        }
        let device = Device::linear(6, TwoQubitBasis::Cnot);
        let r = GenericCompiler::tket_like()
            .compile(&circuit, &device)
            .unwrap();
        assert_eq!(r.swap_count(), 0);
        // Trivial placement on a line also works for an ordered chain.
        let r2 = GenericCompiler::qiskit_like()
            .compile(&circuit, &device)
            .unwrap();
        assert_eq!(r2.swap_count(), 0);
    }

    #[test]
    fn compile_reports_the_pass_pipeline() {
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let device = Device::aspen();
        let out = Compiler::compile(&GenericCompiler::tket_like(), &circuit, &device).unwrap();
        assert_eq!(
            out.report.pass_names(),
            vec![
                "unify",
                "line-placement",
                "ordered-routing",
                "asap-schedule",
                "decompose"
            ]
        );
        assert_eq!(out.compiler, "tket-like");
        assert!(out.final_placement.is_some());
    }

    #[test]
    fn oversized_circuits_error_through_the_trait() {
        let circuit = trotter_step(&nnn_ising(20, 0), 1.0);
        let err = Compiler::compile(&GenericCompiler::qiskit_like(), &circuit, &Device::aspen())
            .unwrap_err();
        assert!(matches!(err, CompileError::TooManyQubits { .. }));
    }

    #[test]
    fn rejects_oversized_circuits_with_a_typed_error() {
        let circuit = trotter_step(&nnn_ising(20, 0), 1.0);
        let result = GenericCompiler::qiskit_like().compile(&circuit, &Device::aspen());
        assert!(matches!(result, Err(CompileError::TooManyQubits { .. })));
    }
}
