//! Output checks, run outside the measured phase.

use twoqan::mapping::{mapping_cost, QubitMap};
use twoqan::pipeline::{CompiledOutput, Compiler};
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_graphs::QapProblem;
use twoqan_verify::{check_structural, verify_output, EquivalenceChecker};

/// Largest circuit the statevector equivalence check runs on.
pub const EQUIVALENCE_MAX_QUBITS: usize = 12;

/// Compiler instances by name, for checks and key probes outside the
/// service.
pub struct Compilers(Vec<Box<dyn Compiler>>);

impl Compilers {
    pub fn new(names: &[&'static str]) -> Self {
        Self(
            names
                .iter()
                .map(|n| CompilerRegistry::by_name(n).expect("registered compiler name"))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> &dyn Compiler {
        self.0
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.as_ref())
            .expect("compiler was registered with the benchmark")
    }
}

/// Structural invariants (connectivity, moments, gate accounting) and
/// hardware compatibility; plus statevector equivalence for circuits of at
/// most [`EQUIVALENCE_MAX_QUBITS`] qubits.
pub fn verify_artifact(
    compiler: &dyn Compiler,
    circuit: &Circuit,
    output: &CompiledOutput,
    device: &Device,
) -> Result<(), String> {
    if compiler.constrains_connectivity() && !output.hardware_compatible(device) {
        return Err("a two-qubit gate acts on non-adjacent qubits".into());
    }
    if circuit.num_qubits() <= EQUIVALENCE_MAX_QUBITS {
        verify_output(
            compiler,
            circuit,
            output,
            device,
            &EquivalenceChecker::default(),
        )
        .outcome
        .map(|_| ())
    } else {
        let unified = circuit.unify_same_pair_gates();
        let device = compiler.constrains_connectivity().then_some(device);
        check_structural(&output.hardware_circuit, &unified, device)
            .map(|_| ())
            .map_err(|e| format!("structural: {e}"))
    }
}

/// Extends a `logical → physical` placement of `n` qubits to a full
/// assignment over the device's `m` qubits (unused qubits in order), the
/// shape of the mapping pass's padded QAP.
pub fn pad_placement(placement: &[usize], m: usize) -> Vec<usize> {
    let mut used = vec![false; m];
    for &p in placement {
        used[p] = true;
    }
    let mut padded = placement.to_vec();
    padded.extend((0..m).filter(|&p| !used[p]));
    padded
}

/// The mapping pass's QAP for a (unified) circuit on a device, under the
/// hop-count or the calibration-weighted distance.
pub fn mapping_qap(unified: &Circuit, device: &Device, weighted: bool) -> QapProblem {
    let m = device.num_qubits();
    let pairs = unified.interaction_pairs();
    if weighted {
        QapProblem::from_interactions_weighted(m, &pairs, device.weighted_distances())
    } else {
        QapProblem::from_interactions(m, &pairs, device.distances())
    }
}

/// Whether a warm placement is no worse than its seed under at least one of
/// the two cost models the portfolio optimises (the winning run's model),
/// both evaluated on the current device.
pub fn warm_never_worse(
    warm: &[usize],
    seed: &[usize],
    unified: &Circuit,
    device: &Device,
) -> Result<(), String> {
    let m = device.num_qubits();
    let hop = |p: &[usize]| mapping_cost(&QubitMap::from_assignment(p, m), unified, device);
    let weighted_qap = mapping_qap(unified, device, true);
    let weighted = |p: &[usize]| weighted_qap.cost(&pad_placement(p, m));
    let slack = 1.0 + 1e-9;
    let (wh, sh, ww, sw) = (hop(warm), hop(seed), weighted(warm), weighted(seed));
    if wh > sh * slack && ww > sw * slack {
        Err(format!(
            "warm placement lost to its seed (hop {wh} vs {sh}, weighted {ww:.4} vs {sw:.4})"
        ))
    } else {
        Ok(())
    }
}
