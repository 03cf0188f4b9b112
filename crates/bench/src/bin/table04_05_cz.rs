//! Regenerates Tables IV and V (appendix): overhead-reduction ratios of 2QAN
//! versus the generic baselines when Sycamore and Aspen are compiled to
//! their CZ gate sets.
//!
//! Usage: `cargo run --release -p twoqan-bench --bin table04_05_cz [--quick]`

use twoqan_bench::figures::{
    main_workloads, overhead_reduction_table, quick_mode, run_compilation_sweep,
};
use twoqan_device::{Device, TwoQubitBasis};

fn main() {
    let quick = quick_mode();
    let instance_cap = if quick { 2 } else { 5 };
    let devices = [
        ("Table IV", Device::sycamore().with_basis(TwoQubitBasis::Cz)),
        ("Table V", Device::aspen().with_basis(TwoQubitBasis::Cz)),
    ];
    for (label, device) in devices {
        let rows = run_compilation_sweep(&device, &main_workloads(), quick, instance_cap);
        overhead_reduction_table(
            &format!("{label} ({}, CZ basis): 2QAN vs t|ket>-like", device.name()),
            &rows,
            "tket-like",
        )
        .print();
        overhead_reduction_table(
            &format!("{label} ({}, CZ basis): 2QAN vs Qiskit-like", device.name()),
            &rows,
            "Qiskit-like",
        )
        .print();
    }
}
