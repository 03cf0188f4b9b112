//! Compile the NNN Heisenberg model onto Google Sycamore for both of its
//! native two-qubit gate sets (SYC and CZ) and show the headline effect of
//! the paper: thanks to dressed SWAPs, 2QAN has almost no hardware-gate
//! overhead for the Heisenberg model, while order-respecting compilers pay a
//! large penalty.
//!
//! Run with `cargo run --release --example heisenberg_sycamore`.

use twoqan_repro::prelude::*;

fn main() {
    let sizes = [8usize, 16, 24, 32];
    for basis in [TwoQubitBasis::Syc, TwoQubitBasis::Cz] {
        let device = Device::sycamore().with_basis(basis);
        println!("=== Sycamore, {} basis ===", basis);
        println!(
            "{:>7} {:>12} {:>7} {:>9} {:>11} {:>11} {:>12}",
            "qubits", "compiler", "SWAPs", "dressed", "2q gates", "overhead", "2q depth"
        );
        for &n in &sizes {
            let circuit = trotterize(&nnn_heisenberg(n, n as u64), 1, 1.0);
            let baseline = NoMapCompiler::new().compile_output(&circuit, basis);
            let two_qan = TwoQanCompiler::new(TwoQanConfig::default())
                .compile(&circuit, &device)
                .expect("fits on Sycamore");
            let tket = GenericCompiler::tket_like()
                .compile(&circuit, &device)
                .expect("fits on Sycamore");
            let rows = [
                ("2QAN", two_qan.metrics),
                ("tket-like", tket.metrics),
                ("NoMap", baseline.metrics),
            ];
            for (name, m) in rows {
                println!(
                    "{:>7} {:>12} {:>7} {:>9} {:>11} {:>11} {:>12}",
                    n,
                    name,
                    m.swap_count,
                    m.dressed_swap_count,
                    m.hardware_two_qubit_count,
                    m.hardware_two_qubit_count as i64
                        - baseline.metrics.hardware_two_qubit_count as i64,
                    m.hardware_two_qubit_depth
                );
            }
        }
        println!();
    }
}
