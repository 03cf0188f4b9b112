//! The cache-key format: the content hashes [`CompileService`] keys its
//! artifact cache and its drift-stable placement index by.
//!
//! A key is one [`ContentHasher`] stream: the compiler writes its own
//! identity and settings into it ([`Compiler::cache_fingerprint`]), then
//! two nested digests follow ([`ContentHasher::write_digest`]) — the
//! circuit's, hashed once per request by [`circuit_digest`], and the
//! device's, memoised inside the [`Device`] ([`Device::digest`] for the
//! cache key, [`Device::topology_digest`] for the drift-stable key).  The
//! compiler fingerprint plus the circuit digest is the [`KeyPrefix`] both
//! keys share, so a request walks its circuit once however many keys it
//! derives (cache key, stable key, warm key).
//!
//! Every key is a [`Digest`]: a 128-bit key and an independent 64-bit
//! check.  The service indexes its maps by the key and stores the check
//! beside each entry; a hit is served only when the checks agree, so a
//! 128-bit collision is caught and served as a miss.  Nested digests carry
//! their own checks into the check lane, so a collision inside the circuit
//! or device digest cannot slip past the outer check either.
//!
//! Changing any of these encodings moves every key once, which is safe: at
//! worst one cold compile per entry.
//!
//! [`CompileService`]: crate::CompileService

use twoqan::hash::{ContentHasher, Digest};
use twoqan::pipeline::Compiler;
use twoqan_circuit::{Circuit, GateKind};
use twoqan_device::Device;

/// The content-addressed cache key of a (compiler, circuit, device)
/// request: a 128-bit stable hash of the canonicalized circuit, the device
/// topology and gate set, the full calibration snapshot and the compiler's
/// configuration fingerprint.
pub fn cache_key(compiler: &dyn Compiler, circuit: &Circuit, device: &Device) -> u128 {
    KeyPrefix::new(compiler, circuit_digest(circuit))
        .cache(device)
        .key
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
    KeyPrefix::new(compiler, circuit_digest(circuit))
        .stable(device)
        .key
}

/// A request's compiler fingerprint followed by its circuit digest: the
/// shared prefix of its cache key and its drift-stable key.
#[derive(Clone)]
pub(crate) struct KeyPrefix(ContentHasher);

impl KeyPrefix {
    pub(crate) fn new(compiler: &dyn Compiler, circuit: Digest) -> Self {
        let mut h = ContentHasher::new();
        compiler.cache_fingerprint(&mut h);
        h.write_digest(circuit);
        Self(h)
    }

    /// The cache key: the prefix plus the full device digest.
    pub(crate) fn cache(&self, device: &Device) -> Digest {
        self.with_device(device.digest())
    }

    /// The drift-stable key: the prefix plus the topology + gate set digest.
    pub(crate) fn stable(&self, device: &Device) -> Digest {
        self.with_device(device.topology_digest())
    }

    fn with_device(&self, device: Digest) -> Digest {
        let mut h = self.0.clone();
        h.write_digest(device);
        let digest = h.digest();
        #[cfg(test)]
        if COLLIDE.get() {
            return Digest { key: 0, ..digest };
        }
        digest
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only hasher mode: while set, every key this thread derives
    /// collides (its 128-bit part is zero) and only the check digests still
    /// tell requests apart.
    pub(crate) static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The digest of the canonicalized circuit: qubit count, gate count, then
/// every gate's kind, exact parameter bits and operands, in order.
pub(crate) fn circuit_digest(circuit: &Circuit) -> Digest {
    let mut h = ContentHasher::new();
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.gates().len());
    for gate in circuit.gates() {
        hash_gate(&mut h, gate.kind);
        h.write_usize(gate.qubit0());
        if gate.is_two_qubit() {
            h.write_usize(gate.qubit1());
        }
    }
    h.digest()
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
