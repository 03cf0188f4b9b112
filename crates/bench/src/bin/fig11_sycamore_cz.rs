//! Regenerates the Sycamore with the CZ gate set (Fig. 11) panels: compilation metrics (SWAP count, native
//! two-qubit gate count, two-qubit depth) for the NNN Heisenberg/XY/Ising
//! models and QAOA-REG-3 across the paper's problem sizes.
//!
//! Usage: `cargo run --release -p twoqan-bench --bin fig11_sycamore_cz [--quick]`

use twoqan_bench::figures::{main_workloads, quick_mode, report_figure, run_compilation_sweep};
use twoqan_device::{Device, TwoQubitBasis};

fn main() {
    let device = Device::sycamore().with_basis(TwoQubitBasis::Cz);
    let quick = quick_mode();
    let instance_cap = if quick { 3 } else { 10 };
    let rows = run_compilation_sweep(&device, &main_workloads(), quick, instance_cap);
    report_figure("fig11", &device, &rows);
}
