//! The seeded conformance fuzzing harness.
//!
//! Each fuzz *combo* draws one random workload and one random device; each
//! combo is then compiled by **every** compiler in the workspace registry
//! (`twoqan_baselines::CompilerRegistry`: 2QAN, the Qiskit-like and
//! t|ket⟩-like generic baselines, IC-QAOA, Paulihedral and NoMap) plus the
//! calibration-aware `2QAN-noise` variant on a heterogeneous-target copy of
//! the device (equivalence is cost-model-independent), and each compilation
//! is checked for:
//!
//! * permutation-aware statevector equivalence at `≤ 1e-10` amplitude error
//!   ([`crate::equivalence`]), in strict-order mode for order-respecting
//!   compilers (and for every compiler when the workload's gates all
//!   commute), in term-permutation mode otherwise;
//! * structural invariants: connectivity of every two-qubit gate, moment
//!   validity and gate-count accounting ([`crate::invariants`]);
//! * dependency-DAG preservation for the order-respecting compilers.
//!
//! Each compiler's contract (check mode, connectivity constraint, DAG
//! preservation) is read off the [`Compiler`] trait itself —
//! `order_respecting()` / `constrains_connectivity()` — so adding a
//! compiler to the registry automatically enrols it here.  Everything is
//! deterministic in the harness seed, so any failure reproduces from its
//! case id alone.

use crate::equivalence::{
    all_gates_commute, EquivalenceChecker, EquivalenceMode, EquivalenceReport,
};
use crate::invariants::{check_order_preserved, check_structural};
use crate::workloads::{random_device, random_workload, RandomTopologyKind, RandomWorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twoqan::pipeline::Compiler;
use twoqan_baselines::{CompilerRegistry, RegistryOptions};
use twoqan_circuit::Circuit;
use twoqan_device::Device;

/// Configuration of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of (workload × device) combos; each combo runs every registry
    /// compiler plus the calibration-aware `2QAN-noise` variant on a
    /// heterogeneous-target copy of the device, so the case count is
    /// `combos × 7`.
    pub combos: usize,
    /// Master seed; case `i` derives its own generator from it.
    pub seed: u64,
    /// Amplitude tolerance for the equivalence check.
    pub tolerance: f64,
}

impl FuzzConfig {
    /// The full conformance run: 34 combos × 7 cases = 238.
    pub fn full() -> Self {
        Self {
            combos: 34,
            seed: 20220611, // the paper's ISCA year/month, for reproducibility
            tolerance: 1e-10,
        }
    }

    /// The CI smoke run: 5 combos × 7 cases = 35.
    pub fn smoke() -> Self {
        Self {
            combos: 5,
            ..Self::full()
        }
    }

    /// Cases per combo: the six registry compilers plus the
    /// calibration-aware 2QAN variant.
    pub fn cases_per_combo() -> usize {
        CompilerRegistry::NAMES.len() + 1
    }
}

/// The outcome of one (workload, device, compiler) case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Sequential case id (stable for a given config).
    pub case_id: usize,
    /// Workload family name.
    pub workload: &'static str,
    /// Number of circuit qubits.
    pub qubits: usize,
    /// Application two-qubit gates (after unification).
    pub app_gates: usize,
    /// Device name.
    pub device: String,
    /// Compiler name.
    pub compiler: &'static str,
    /// Equivalence mode the case ran in.
    pub mode: &'static str,
    /// SWAPs found in the compiled circuit (plain + dressed).
    pub swaps: usize,
    /// Dressed SWAPs found in the compiled circuit.
    pub dressed_swaps: usize,
    /// Maximum amplitude error after phase alignment.
    pub max_amplitude_error: f64,
    /// Simulated physical qubits (compacted support).
    pub support_qubits: usize,
    /// `None` if the case passed, otherwise the failure description.
    pub failure: Option<String>,
}

impl CaseResult {
    /// Whether the case passed every check.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// The aggregated outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The configuration the run used.
    pub config: FuzzConfig,
    /// One result per case.
    pub results: Vec<CaseResult>,
}

impl ConformanceReport {
    /// Number of cases that passed.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.passed()).count()
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.results.iter().filter(|r| !r.passed()).collect()
    }

    /// The largest amplitude error across all passing cases.
    pub fn max_amplitude_error(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.max_amplitude_error)
            .fold(0.0, f64::max)
    }

    /// CSV header matching [`CaseResult`] serialisation.
    pub fn csv_header() -> &'static str {
        "case,workload,qubits,app_gates,device,compiler,mode,swaps,dressed_swaps,max_amplitude_error,support_qubits,status"
    }

    /// The canonical JSON rendering of the run (the schema of
    /// `VERIFY_conformance.json`, see `BENCHMARKS.md` § Verification).  The
    /// chaos harness re-emits a zero-fault run through this to prove it
    /// reproduces the conformance suite bit for bit.
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"suite\": \"conformance_fuzz\",\n");
        json.push_str(&format!("  \"combos\": {},\n", self.config.combos));
        json.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        json.push_str(&format!(
            "  \"tolerance\": {:.1e},\n",
            self.config.tolerance
        ));
        json.push_str(&format!("  \"cases\": {},\n", self.results.len()));
        json.push_str(&format!("  \"passed\": {},\n", self.passed()));
        json.push_str(&format!(
            "  \"max_amplitude_error\": {:.3e},\n",
            self.max_amplitude_error()
        ));
        json.push_str("  \"failures\": [\n");
        let failures = self.failures();
        for (i, f) in failures.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"case\": {}, \"workload\": \"{}\", \"device\": \"{}\", \"compiler\": \"{}\", \"reason\": \"{}\"}}{}\n",
                f.case_id,
                f.workload,
                f.device,
                f.compiler,
                f.failure.as_deref().unwrap_or("").replace('"', "'"),
                if i + 1 == failures.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n");
        json.push_str("}\n");
        json
    }

    /// CSV lines, one per case.
    pub fn csv_lines(&self) -> Vec<String> {
        self.results
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{:.3e},{},{}",
                    r.case_id,
                    r.workload,
                    r.qubits,
                    r.app_gates,
                    r.device,
                    r.compiler,
                    r.mode,
                    r.swaps,
                    r.dressed_swaps,
                    r.max_amplitude_error,
                    r.support_qubits,
                    if r.passed() { "pass" } else { "FAIL" }
                )
            })
            .collect()
    }
}

/// The outcome of compiling and fully checking one (circuit, device,
/// compiler) case.
#[derive(Debug, Clone)]
pub struct VerifiedCase {
    /// The contract mode the case was checked in.
    pub mode: EquivalenceMode,
    /// SWAPs in the compiled circuit (plain + dressed).
    pub swaps: usize,
    /// Dressed SWAPs in the compiled circuit.
    pub dressed_swaps: usize,
    /// The equivalence report, or a description of the first failed check.
    pub outcome: Result<EquivalenceReport, String>,
}

/// Compiles `circuit` through one registry compiler and runs the complete
/// check battery (see [`verify_output`] for the checks).
///
/// This is the single source of truth for each compiler's contract — the
/// fuzz harness and the integration tests both go through it.
pub fn verify_one(
    compiler: &dyn Compiler,
    circuit: &Circuit,
    device: &Device,
    checker: &EquivalenceChecker,
) -> VerifiedCase {
    let compiled = compiler
        .compile(circuit, device)
        .expect("fuzz circuits fit on their devices");
    verify_output(compiler, circuit, &compiled, device, checker)
}

/// Runs the complete check battery over an **already compiled** output:
/// structural invariants, dependency-DAG preservation for the
/// order-respecting compilers, and statevector equivalence in the
/// compiler's contract mode (strict order when the compiler respects order
/// or every gate commutes, term permutation otherwise; connectivity is not
/// checked for compilers that do not constrain it, i.e. NoMap).
///
/// Splitting this off [`verify_one`] lets harnesses that obtained the
/// output through another path — the chaos harness's deadline-degraded
/// compilations, batch drivers — validate it against the same contract.
pub fn verify_output(
    compiler: &dyn Compiler,
    circuit: &Circuit,
    compiled: &twoqan::pipeline::CompiledOutput,
    device: &Device,
    checker: &EquivalenceChecker,
) -> VerifiedCase {
    let unified = circuit.unify_same_pair_gates();
    let mode = if compiler.order_respecting() || all_gates_commute(&unified) {
        EquivalenceMode::StrictOrder
    } else {
        EquivalenceMode::TermPermutation
    };
    let connectivity_device = compiler.constrains_connectivity().then_some(device);
    let outcome = (|| {
        check_structural(&compiled.hardware_circuit, &unified, connectivity_device)
            .map_err(|e| format!("structural: {e}"))?;
        if compiler.order_respecting() {
            check_order_preserved(
                &unified,
                &compiled.hardware_circuit,
                &compiled.initial_placement,
            )
            .map_err(|e| format!("dag: {e}"))?;
        }
        checker
            .check(
                &unified,
                &compiled.hardware_circuit,
                &compiled.initial_placement,
                mode,
                compiled.final_placement.as_deref(),
            )
            .map_err(|e| format!("equivalence: {e}"))
    })();
    VerifiedCase {
        mode,
        swaps: compiled.metrics.swap_count,
        dressed_swaps: compiled.metrics.dressed_swap_count,
        outcome,
    }
}

/// Runs the full fuzzing harness for a configuration.
pub fn run_fuzz(config: &FuzzConfig) -> ConformanceReport {
    let checker = EquivalenceChecker {
        tolerance: config.tolerance,
        ..EquivalenceChecker::default()
    };
    let compilers_per_combo = FuzzConfig::cases_per_combo();
    let mut results = Vec::with_capacity(config.combos * compilers_per_combo);
    let mut case_id = 0usize;
    for combo in 0..config.combos {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(combo as u64));
        let workload_kind = RandomWorkloadKind::ALL[combo % RandomWorkloadKind::ALL.len()];
        let topology_kind = RandomTopologyKind::ALL[combo % RandomTopologyKind::ALL.len()];
        let n = rng.gen_range(4..=9usize);
        let workload = random_workload(workload_kind, n, &mut rng);
        let device = random_device(topology_kind, n, &mut rng);
        let app_gates = workload
            .circuit
            .unify_same_pair_gates()
            .two_qubit_gate_count();
        let per_check = EquivalenceChecker {
            seed: checker.seed.wrapping_add(combo as u64),
            ..checker.clone()
        };
        // One deterministic mapping trial per case, seeded per combo, for
        // both stochastic compilers (2QAN's Tabu mapping, IC-QAOA's
        // annealing placement).
        let options = RegistryOptions::seeded(config.seed.wrapping_add(1000 + combo as u64), 1);
        let mut run_case = |compiler: &dyn Compiler, device: &Device, device_label: String| {
            let verified = verify_one(compiler, &workload.circuit, device, &per_check);
            let (max_error, support) = match &verified.outcome {
                Ok(report) => (report.max_amplitude_error, report.support_qubits),
                Err(_) => (f64::NAN, 0),
            };
            results.push(CaseResult {
                case_id,
                workload: workload_kind.name(),
                qubits: n,
                app_gates,
                device: device_label,
                compiler: compiler.name(),
                mode: verified.mode.name(),
                swaps: verified.swaps,
                dressed_swaps: verified.dressed_swaps,
                max_amplitude_error: max_error,
                support_qubits: support,
                failure: verified.outcome.err(),
            });
            case_id += 1;
        };
        for compiler in CompilerRegistry::with_options(&options) {
            let label = if compiler.constrains_connectivity() {
                device.name().to_string()
            } else {
                "all-to-all".to_string()
            };
            run_case(compiler.as_ref(), &device, label);
        }
        // The calibration-aware 2QAN path, on a heterogeneous-target copy
        // of the same device: equivalence must be cost-model-independent —
        // steering routes through low-error edges may change the circuit,
        // never its semantics.
        let noisy_device =
            device.with_heterogeneous_calibration(config.seed.wrapping_add(combo as u64));
        let noise_aware = CompilerRegistry::by_name_with_options("2QAN-noise", &options)
            .expect("the noise-aware 2QAN variant is registered by name");
        let label = format!("{} (het)", noisy_device.name());
        run_case(noise_aware.as_ref(), &noisy_device, label);
    }
    ConformanceReport {
        config: config.clone(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fuzz_run_passes_every_case() {
        let report = run_fuzz(&FuzzConfig::smoke());
        assert_eq!(report.results.len(), 35);
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "fuzz failures: {:?}",
            failures
                .iter()
                .map(|f| format!(
                    "#{} {} on {} via {}: {}",
                    f.case_id,
                    f.workload,
                    f.device,
                    f.compiler,
                    f.failure.as_deref().unwrap_or("")
                ))
                .collect::<Vec<_>>()
        );
        assert!(report.max_amplitude_error() <= 1e-10);
        // Every registered compiler, the calibration-aware variant and both
        // modes are exercised.
        for name in CompilerRegistry::NAMES {
            assert!(report.results.iter().any(|r| r.compiler == name));
        }
        assert!(report
            .results
            .iter()
            .any(|r| r.compiler == "2QAN-noise" && r.device.ends_with("(het)")));
        assert!(report.results.iter().any(|r| r.mode == "strict"));
        assert!(report.results.iter().any(|r| r.mode == "permutation"));
    }

    #[test]
    fn fuzz_runs_are_deterministic() {
        let a = run_fuzz(&FuzzConfig::smoke());
        let b = run_fuzz(&FuzzConfig::smoke());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.swaps, y.swaps);
            assert_eq!(x.max_amplitude_error, y.max_amplitude_error);
        }
    }
}
