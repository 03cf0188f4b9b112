//! The cache-key format: the content hashes [`CompileService`] keys its
//! artifact cache and its drift-stable placement index by.
//!
//! [`CompileService`]: crate::CompileService

use twoqan::hash::ContentHasher;
use twoqan::pipeline::Compiler;
use twoqan_circuit::{Circuit, GateKind};
use twoqan_device::{Device, Target, TwoQubitBasis};

/// The content-addressed cache key of a (compiler, circuit, device)
/// request: a 128-bit stable hash of the canonicalized circuit, the device
/// topology and gate set, the full calibration snapshot and the compiler's
/// configuration fingerprint.
pub fn cache_key(compiler: &dyn Compiler, circuit: &Circuit, device: &Device) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(compiler.cache_fingerprint());
    hash_circuit(&mut h, circuit);
    hash_device(&mut h, device);
    h.finish()
}

/// Hash of a device's (topology, gate set, calibration snapshot) — what a
/// cached artifact was compiled *against*, independent of the workload.
pub(crate) fn device_fingerprint(device: &Device) -> u128 {
    let mut h = ContentHasher::new();
    hash_device(&mut h, device);
    h.finish()
}

fn hash_circuit(h: &mut ContentHasher, circuit: &Circuit) {
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.gates().len());
    for gate in circuit.gates() {
        hash_gate(h, gate.kind);
        h.write_usize(gate.qubit0());
        if gate.is_two_qubit() {
            h.write_usize(gate.qubit1());
        }
    }
}

/// One stable byte tag per gate kind plus its exact parameter bits.  The
/// tags are part of the cache-key format: renumbering them invalidates
/// every key (which is safe — at worst one cold compile per entry).
fn hash_gate(h: &mut ContentHasher, kind: GateKind) {
    match kind {
        GateKind::Rx(t) => {
            h.write_u8(0);
            h.write_f64(t);
        }
        GateKind::Ry(t) => {
            h.write_u8(1);
            h.write_f64(t);
        }
        GateKind::Rz(t) => {
            h.write_u8(2);
            h.write_f64(t);
        }
        GateKind::H => h.write_u8(3),
        GateKind::X => h.write_u8(4),
        GateKind::Y => h.write_u8(5),
        GateKind::Z => h.write_u8(6),
        GateKind::U3(t, p, l) => {
            h.write_u8(7);
            h.write_f64(t);
            h.write_f64(p);
            h.write_f64(l);
        }
        GateKind::Cnot => h.write_u8(8),
        GateKind::Cz => h.write_u8(9),
        GateKind::Swap => h.write_u8(10),
        GateKind::ISwap => h.write_u8(11),
        GateKind::Syc => h.write_u8(12),
        GateKind::Canonical { xx, yy, zz } => {
            h.write_u8(13);
            h.write_f64(xx);
            h.write_f64(yy);
            h.write_f64(zz);
        }
        GateKind::DressedSwap { xx, yy, zz } => {
            h.write_u8(14);
            h.write_f64(xx);
            h.write_f64(yy);
            h.write_f64(zz);
        }
    }
}

fn basis_tag(basis: TwoQubitBasis) -> u8 {
    match basis {
        TwoQubitBasis::Cnot => 0,
        TwoQubitBasis::Cz => 1,
        TwoQubitBasis::Syc => 2,
        TwoQubitBasis::ISwap => 3,
    }
}

fn hash_device(h: &mut ContentHasher, device: &Device) {
    hash_topology(h, device);
    hash_target(h, device.target());
}

/// Hash of the calibration-*independent* part of a device: topology and
/// native gate set only.  This is what stays stable across calibration
/// drift, making it the right device component of [`stable_key`].
fn hash_topology(h: &mut ContentHasher, device: &Device) {
    // Topology: qubit count plus the canonical sorted edge list.  The
    // display name is deliberately excluded — two identically shaped and
    // calibrated devices compile identically, so they share cache lines.
    h.write_usize(device.num_qubits());
    let mut edges: Vec<(usize, usize)> = device
        .topology()
        .edges()
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    h.write_usize(edges.len());
    for (a, b) in edges {
        h.write_usize(a);
        h.write_usize(b);
    }
    // Native gate set, in declared order (the first basis is the default
    // decomposition target, so order matters).
    let bases = &device.gate_set().bases;
    h.write_usize(bases.len());
    for &basis in bases {
        h.write_u8(basis_tag(basis));
    }
}

/// The *drift-stable* identity of a request: compiler fingerprint,
/// canonical circuit and device topology + gate set — everything in
/// [`cache_key`] **except** the calibration snapshot.  Two requests for the
/// same workload on the same device before and after a calibration drift
/// share this key, which is how [`CompileService::recompile`] finds the
/// predecessor snapshot's placement to warm-start from.
///
/// [`CompileService::recompile`]: crate::CompileService::recompile
pub fn stable_key(compiler: &dyn Compiler, circuit: &Circuit, device: &Device) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(compiler.cache_fingerprint());
    hash_circuit(&mut h, circuit);
    hash_topology(&mut h, device);
    h.finish()
}

/// Absorbs the complete per-edge / per-qubit calibration snapshot: any
/// single drifted value — one edge error, one readout figure — changes the
/// digest and therefore the cache key.
fn hash_target(h: &mut ContentHasher, target: &Target) {
    let edges = target.edges();
    h.write_usize(edges.len());
    for &(a, b) in edges {
        h.write_usize(a);
        h.write_usize(b);
        h.write_f64(target.two_qubit_error(a, b));
        h.write_f64(target.two_qubit_duration_ns(a, b));
    }
    let n = target.num_qubits();
    h.write_usize(n);
    for q in 0..n {
        h.write_f64(target.single_qubit_error(q));
        h.write_f64(target.single_qubit_duration_ns(q));
        h.write_f64(target.readout_error(q));
        h.write_f64(target.t1_us(q));
        h.write_f64(target.t2_us(q));
    }
    let avg = target.average();
    h.write_f64_slice(&[
        avg.two_qubit_error,
        avg.two_qubit_gate_ns,
        avg.single_qubit_error,
        avg.single_qubit_gate_ns,
        avg.readout_error,
        avg.t1_us,
        avg.t2_us,
    ]);
    h.write_u8(target.is_uniform() as u8);
}
