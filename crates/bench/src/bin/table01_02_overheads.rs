//! Regenerates Tables I and II: the average and maximum overhead-reduction
//! ratios of 2QAN versus the t|ket⟩-like (Table I) and Qiskit-like
//! (Table II) baselines, across all benchmarks and all three devices.
//!
//! Usage: `cargo run --release -p twoqan-bench --bin table01_02_overheads [--quick]`

use twoqan_bench::figures::{
    main_workloads, overhead_reduction_table, quick_mode, run_compilation_sweep,
};
use twoqan_device::Device;

fn main() {
    let quick = quick_mode();
    let instance_cap = if quick { 2 } else { 5 };
    for device in [Device::sycamore(), Device::aspen(), Device::montreal()] {
        let rows = run_compilation_sweep(&device, &main_workloads(), quick, instance_cap);
        overhead_reduction_table(
            &format!(
                "Table I ({}, {} basis): overhead reduction of 2QAN vs t|ket>-like",
                device.name(),
                device.default_basis()
            ),
            &rows,
            "tket-like",
        )
        .print();
        overhead_reduction_table(
            &format!(
                "Table II ({}, {} basis): overhead reduction of 2QAN vs Qiskit-like",
                device.name(),
                device.default_basis()
            ),
            &rows,
            "Qiskit-like",
        )
        .print();
    }
}
