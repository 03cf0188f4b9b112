//! Target a user-defined device: build a 4×4 grid architecture with an
//! iSWAP gate set from scratch, define a custom 2-local Hamiltonian on a
//! ring with a defect, compile it with 2QAN, and verify the compiled
//! circuit's semantics on the state-vector simulator.
//!
//! Run with `cargo run --release --example custom_device`.

use twoqan_repro::prelude::*;
use twoqan_repro::twoqan::decompose::decompose_to_cnot_exact;
use twoqan_repro::twoqan_device::{Calibration, GateSet};
use twoqan_repro::twoqan_graphs::Graph;

fn main() {
    // A custom 16-qubit grid device with iSWAP (plus CZ) as native gates.
    let topology = Graph::grid(4, 4);
    let device = Device::from_topology(
        "custom-grid-4x4",
        topology,
        GateSet {
            bases: vec![TwoQubitBasis::ISwap, TwoQubitBasis::Cz],
        },
        Calibration::aspen_typical(),
    );

    // A custom 2-local Hamiltonian: a 10-qubit ZZ ring with one long-range
    // "defect" coupling.  All terms commute, so every operator permutation
    // the compiler may choose implements exactly the same unitary — which
    // lets us verify the compiled circuit bit-for-bit on the simulator.
    let mut hamiltonian = Hamiltonian::new(10);
    for i in 0..10 {
        hamiltonian.add_zz(i, (i + 1) % 10, 0.8);
    }
    hamiltonian.add_zz(0, 5, 1.2); // the defect makes the ring non-planar on the grid
    let circuit = trotterize(&hamiltonian, 1, 0.4);

    let result = TwoQanCompiler::new(TwoQanConfig::default())
        .compile(&circuit, &device)
        .expect("10 qubits fit on the 16-qubit grid");
    assert!(result.hardware_compatible(&device));

    println!(
        "custom device: {} ({} qubits, {} edges)",
        device.name(),
        device.num_qubits(),
        device.topology().num_edges()
    );
    println!("compiled with 2QAN:");
    println!(
        "  SWAPs: {} ({} dressed)",
        result.swap_count(),
        result.metrics.dressed_swap_count
    );
    println!(
        "  native {} gates: {}",
        result.basis, result.metrics.hardware_two_qubit_count
    );
    println!(
        "  two-qubit depth: {}",
        result.metrics.hardware_two_qubit_depth
    );

    // Verify the compiled circuit on the simulator: decompose it to an exact
    // CNOT-level circuit, simulate it, and compare the ZZ correlators with a
    // direct simulation of the uncompiled circuit.
    let exact =
        decompose_to_cnot_exact(&result.hardware_circuit).expect("ZZ workloads decompose exactly");
    let mut hardware_state = StateVector::plus_state(device.num_qubits());
    hardware_state.apply_circuit(&exact);

    let mut logical_state = StateVector::plus_state(circuit.num_qubits());
    logical_state.apply_circuit(&circuit);

    // A final mixer layer turns the diagonal evolution into non-trivial ZZ
    // correlators; it is applied identically to both states (on the
    // corresponding qubits), so it does not affect the comparison.
    let final_map = result
        .final_placement
        .as_deref()
        .expect("2QAN tracks the final placement");
    let mixer = twoqan_repro::twoqan_math::gates::rx(0.7);
    for (logical, &physical) in final_map.iter().enumerate() {
        logical_state.apply_single(logical, &mixer);
        hardware_state.apply_single(physical, &mixer);
    }

    // Compare ⟨Z_u Z_v⟩ for every Hamiltonian edge, mapping logical qubits to
    // their final physical positions.
    let mut max_error: f64 = 0.0;
    for term in hamiltonian.two_qubit_terms() {
        let logical_value = logical_state.expectation_zz(term.u, term.v);
        let physical_value = hardware_state.expectation_zz(final_map[term.u], final_map[term.v]);
        max_error = max_error.max((logical_value - physical_value).abs());
    }
    println!("  max |⟨ZZ⟩ difference| between logical and compiled circuit: {max_error:.2e}");
    assert!(
        max_error < 1e-9,
        "compiled circuit must reproduce the logical correlators"
    );
    println!("  semantics verified on the state-vector simulator ✓");
}
