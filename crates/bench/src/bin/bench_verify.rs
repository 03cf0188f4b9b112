//! The conformance suite: fuzzes every compiler in the workspace with
//! random 2-local workloads on random device topologies and cross-checks
//! permutation-aware statevector equivalence (≤ 1e-10 amplitude error) plus
//! the structural invariants.  See `BENCHMARKS.md` § Verification.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_verify [--smoke] \
//!     [--combos N] [--seed S] [--out PATH]
//! ```
//!
//! Full mode runs 34 (workload × device) combos through all 6 registry
//! compilers plus the calibration-aware `2QAN-noise` variant on a
//! heterogeneous-target copy of each device (238 cases) and writes
//! `VERIFY_conformance.json` plus `results/verify_conformance.csv`;
//! `--smoke` runs the 35-case CI subset.  The exit code is non-zero if any
//! case fails.

use std::collections::BTreeMap;
use twoqan_bench::harness::{any, emit, Args};
use twoqan_bench::report::{write_csv, Table};
use twoqan_verify::{run_fuzz, ConformanceReport, FuzzConfig};

fn summarise(report: &ConformanceReport) -> Table {
    let mut table = Table::new(
        "Conformance: equivalence + invariants per compiler",
        &[
            "compiler",
            "cases",
            "passed",
            "strict",
            "permutation",
            "max |Δamp|",
            "avg swaps",
        ],
    );
    let mut groups: BTreeMap<&str, Vec<&twoqan_verify::CaseResult>> = BTreeMap::new();
    for r in &report.results {
        groups.entry(r.compiler).or_default().push(r);
    }
    for (compiler, cases) in groups {
        let passed = cases.iter().filter(|c| c.passed()).count();
        let strict = cases.iter().filter(|c| c.mode == "strict").count();
        let max_err = cases
            .iter()
            .map(|c| c.max_amplitude_error)
            .fold(0.0, f64::max);
        let avg_swaps =
            cases.iter().map(|c| c.swaps as f64).sum::<f64>() / cases.len().max(1) as f64;
        table.push_row(vec![
            compiler.to_string(),
            cases.len().to_string(),
            passed.to_string(),
            strict.to_string(),
            (cases.len() - strict).to_string(),
            format!("{max_err:.2e}"),
            format!("{avg_swaps:.1}"),
        ]);
    }
    table
}

fn main() {
    let (config, out) = Args::from_env(|args| {
        let mut config = FuzzConfig::full();
        if args.flag("--smoke") {
            config.combos = FuzzConfig::smoke().combos;
        }
        if let Some(combos) = args.value("--combos", "a positive integer", |&n| n > 0)? {
            config.combos = combos;
        }
        if let Some(seed) = args.value("--seed", "an integer", any)? {
            config.seed = seed;
        }
        let out = args.value("--out", "a path", any)?;
        Ok((config, out.unwrap_or("VERIFY_conformance.json".to_string())))
    });

    let report = run_fuzz(&config);
    summarise(&report).print();

    let csv_path = write_csv(
        "verify_conformance",
        ConformanceReport::csv_header(),
        &report.csv_lines(),
    );
    println!(
        "wrote {} case rows to {}",
        report.results.len(),
        csv_path.display()
    );

    emit(&out, &report.to_json());

    let failures = report.failures();
    if failures.is_empty() {
        println!(
            "conformance: {}/{} cases passed, max amplitude error {:.3e} (tolerance {:.1e})",
            report.passed(),
            report.results.len(),
            report.max_amplitude_error(),
            report.config.tolerance
        );
    } else {
        eprintln!("conformance FAILED: {} case(s):", failures.len());
        for f in &failures {
            eprintln!(
                "  #{} {} ({} qubits) on {} via {} [{}]: {}",
                f.case_id,
                f.workload,
                f.qubits,
                f.device,
                f.compiler,
                f.mode,
                f.failure.as_deref().unwrap_or("")
            );
        }
        std::process::exit(1);
    }
}
