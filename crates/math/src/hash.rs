//! Stable content hashing for compile-cache keys.
//!
//! The compilation service (`twoqan-service`) keys its cache by a content
//! hash of everything that determines a compile's output: the canonicalized
//! workload circuit, the device topology and gate set, the calibration
//! (`Target`) snapshot, and the compiler's configuration, which every
//! compiler writes into the same hasher through `Compiler::cache_fingerprint`.
//! That hash must be *stable* — the same inputs must produce the same key
//! across runs, processes and releases — so `std::hash` (randomly seeded,
//! layout dependent) is off the table.
//!
//! # Encoding
//!
//! [`ContentHasher`] hashes an explicit byte stream: every `write_*` method
//! appends a fixed, documented byte sequence (integers little-endian,
//! `usize` widened to 8 bytes, `f64` by its bit pattern), and compound
//! writers length-prefix variable data so adjacent fields can never alias
//! (e.g. `("ab", "c")` vs `("a", "bc")`).  The digest depends on the byte
//! stream only, not on how it was cut into calls: eight `write_u8` calls
//! equal one little-endian `write_u64` at any alignment.
//!
//! # Lanes
//!
//! The stream is absorbed eight bytes at a time into three independent
//! 64-bit lanes, each `lane = rotl((lane ^ word) · Kᵢ, rᵢ)` with its own
//! seed, odd multiplier and rotation.  After the last (zero-padded) word the
//! byte count is absorbed, and each lane passes through a final avalanche
//! (the MurmurHash3 `fmix64` bijection).  Lanes 0 and 1 form the 128-bit
//! **key**; lane 2 is the independent 64-bit **check** ([`Digest::check`]).
//! 128 bits keep accidental key collisions out of reach for any realistic
//! cache population; the check lets a cache confirm on every hit that the
//! entry it found was stored for the same content.
//!
//! # Nested digests
//!
//! A digest of a large, reused part (a circuit, a device) can be computed
//! once and absorbed whole with [`ContentHasher::write_digest`]: its key
//! enters the key lanes as 16 stream bytes and its check enters the check
//! lane in the same 16 byte positions, so the check lane never hashes a
//! key-lane value and a collision of the nested key alone cannot reach the
//! outer check.  These are not cryptographic hashes: they guard against
//! accident, not against an adversary.

/// The per-lane seeds: the first 192 bits of the fractional part of π.
const SEEDS: [u64; 3] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
];
/// The per-lane odd multipliers (the golden ratio and two xxHash64 primes).
const MULTIPLIERS: [u64; 3] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];
/// The per-lane rotations.
const ROTATIONS: [u32; 3] = [31, 29, 27];

/// A finished content hash: the 128-bit key and the independent 64-bit
/// check digest of the same byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    /// The 128-bit key (lanes 0 and 1).
    pub key: u128,
    /// The 64-bit check digest (lane 2), independent of the key lanes.
    pub check: u64,
}

/// An incremental, seed-free, platform-independent content hasher with a
/// 128-bit key and a 64-bit check digest.
///
/// Unlike `std::collections::hash_map::DefaultHasher` the digest depends
/// only on the bytes written, so it is safe to persist and compare across
/// processes — exactly what a content-addressed compile cache needs.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lanes: [u64; 3],
    /// Up to seven stream bytes not yet absorbed, little-endian from bit 0.
    pending: u64,
    /// Number of pending bits (a multiple of 8 below 64).
    pending_bits: u32,
    /// The check stream's pending bytes XOR the key stream's.  The streams
    /// differ only inside a nested digest, so this is non-zero only while
    /// the tail of a misaligned [`ContentHasher::write_digest`] is pending.
    check_delta: u64,
    /// Bytes written so far.
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Creates a hasher over the empty stream.
    pub fn new() -> Self {
        ContentHasher {
            lanes: SEEDS,
            pending: 0,
            pending_bits: 0,
            check_delta: 0,
            len: 0,
        }
    }

    /// Absorbs one full word into the key lanes and its check-stream
    /// counterpart into the check lane.
    #[inline(always)]
    fn absorb(&mut self, key_word: u64, check_word: u64) {
        let words = [key_word, key_word, check_word];
        for i in 0..3 {
            self.lanes[i] = (self.lanes[i] ^ words[i])
                .wrapping_mul(MULTIPLIERS[i])
                .rotate_left(ROTATIONS[i]);
        }
    }

    /// Appends eight bytes: `key_word` to the key stream and `check_word`
    /// to the check stream (equal except inside a nested digest).
    #[inline]
    fn push_word(&mut self, key_word: u64, check_word: u64) {
        self.len += 8;
        let shift = self.pending_bits;
        if shift == 0 {
            self.absorb(key_word, check_word);
            return;
        }
        let diff = key_word ^ check_word;
        let word = self.pending | (key_word << shift);
        self.absorb(word, word ^ self.check_delta ^ (diff << shift));
        self.pending = key_word >> (64 - shift);
        self.check_delta = diff >> (64 - shift);
    }

    /// Appends one byte to both streams.
    #[inline]
    fn push_byte(&mut self, byte: u8) {
        self.len += 1;
        self.pending |= u64::from(byte) << self.pending_bits;
        self.pending_bits += 8;
        if self.pending_bits == 64 {
            self.absorb(self.pending, self.pending ^ self.check_delta);
            self.pending = 0;
            self.pending_bits = 0;
            self.check_delta = 0;
        }
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            self.push_word(word, word);
        }
        for &byte in words.remainder() {
            self.push_byte(byte);
        }
    }

    /// Absorbs a `u8` tag (e.g. a gate-kind discriminant).
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.push_byte(v);
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.push_word(v, v);
    }

    /// Absorbs a `usize` widened to `u64` so 32- and 64-bit builds agree.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by its exact IEEE-754 bit pattern.  Bit-identical
    /// calibration values — and only those — hash identically; `-0.0` and
    /// `0.0` deliberately differ, as do distinct NaN payloads.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed UTF-8 string, so consecutive strings can
    /// never alias each other's boundaries.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a length-prefixed `f64` slice.
    #[inline]
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    /// Absorbs a nested digest as 16 stream bytes: its key (little-endian)
    /// in the key lanes, its check zero-extended to 128 bits in the check
    /// lane.
    #[inline]
    pub fn write_digest(&mut self, digest: Digest) {
        self.push_word(digest.key as u64, digest.check);
        self.push_word((digest.key >> 64) as u64, 0);
    }

    /// The key and check digest of everything written so far.
    pub fn digest(&self) -> Digest {
        let mut h = self.clone();
        if h.pending_bits != 0 {
            h.absorb(h.pending, h.pending ^ h.check_delta);
        }
        h.absorb(h.len, h.len);
        let [lo, hi, check] = h.lanes.map(fmix64);
        Digest {
            key: (u128::from(hi) << 64) | u128::from(lo),
            check,
        }
    }

    /// The 128-bit key of everything written so far.
    pub fn finish(&self) -> u128 {
        self.digest().key
    }
}

/// The MurmurHash3 64-bit finalizer: a bijection in which every input bit
/// affects every output bit.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(f: impl Fn(&mut ContentHasher)) -> Digest {
        let mut h = ContentHasher::new();
        f(&mut h);
        h.digest()
    }

    #[test]
    fn digest_is_stable_across_hashers() {
        let a = digest_of(|h| {
            h.write_str("qap");
            h.write_f64(1.5);
        });
        let b = digest_of(|h| {
            h.write_str("qap");
            h.write_f64(1.5);
        });
        assert_eq!(a, b);
        let c = digest_of(|h| {
            h.write_str("qap");
            h.write_f64(1.5000001);
        });
        assert_ne!(a.key, c.key);
        assert_ne!(a.check, c.check);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut h1 = ContentHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = ContentHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn f64_hashing_is_bit_exact() {
        let mut pos = ContentHasher::new();
        pos.write_f64(0.0);
        let mut neg = ContentHasher::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn eight_bytes_equal_one_little_endian_word_at_every_alignment() {
        let word = 0x0123_4567_89ab_cdefu64;
        for offset in 0..8u8 {
            let prefix = |h: &mut ContentHasher| (0..offset).for_each(|i| h.write_u8(0xa0 + i));
            let bytewise = digest_of(|h| {
                prefix(h);
                word.to_le_bytes().iter().for_each(|&b| h.write_u8(b));
                h.write_u8(7);
            });
            let wordwise = digest_of(|h| {
                prefix(h);
                h.write_u64(word);
                h.write_u8(7);
            });
            assert_eq!(bytewise, wordwise, "offset {offset}");
            let sliced = digest_of(|h| {
                prefix(h);
                h.write_bytes(&word.to_le_bytes());
                h.write_u8(7);
            });
            assert_eq!(bytewise, sliced, "offset {offset}");
        }
    }

    #[test]
    fn trailing_zero_bytes_move_the_digest() {
        // The final word is zero-padded, so the byte count must separate
        // these.
        let one = digest_of(|h| h.write_u8(1));
        let padded = digest_of(|h| {
            h.write_u8(1);
            h.write_u8(0);
        });
        assert_ne!(one, padded);
        assert_ne!(ContentHasher::new().digest(), digest_of(|h| h.write_u8(0)));
    }

    #[test]
    fn nested_digest_is_its_key_bytes_in_the_key_lanes_only() {
        let inner = digest_of(|h| h.write_str("circuit"));
        for offset in 0..8u8 {
            let prefix = |h: &mut ContentHasher| (0..offset).for_each(|i| h.write_u8(i));
            let nested = digest_of(|h| {
                prefix(h);
                h.write_digest(inner);
                h.write_u64(5);
            });
            let inlined = digest_of(|h| {
                prefix(h);
                h.write_u64(inner.key as u64);
                h.write_u64((inner.key >> 64) as u64);
                h.write_u64(5);
            });
            assert_eq!(nested.key, inlined.key, "offset {offset}");
            assert_ne!(nested.check, inlined.check, "offset {offset}");
            // The check lane sees the nested check, not the nested key: a
            // nested key collision with a different check moves only the
            // outer check.
            let colliding = Digest {
                key: inner.key,
                check: inner.check ^ 1,
            };
            let other = digest_of(|h| {
                prefix(h);
                h.write_digest(colliding);
                h.write_u64(5);
            });
            assert_eq!(other.key, nested.key, "offset {offset}");
            assert_ne!(other.check, nested.check, "offset {offset}");
            // …and a different nested key with the same check moves only
            // the outer key.
            let rekeyed = Digest {
                key: !inner.key,
                check: inner.check,
            };
            let other = digest_of(|h| {
                prefix(h);
                h.write_digest(rekeyed);
                h.write_u64(5);
            });
            assert_ne!(other.key, nested.key, "offset {offset}");
            assert_eq!(other.check, nested.check, "offset {offset}");
        }
    }

    #[test]
    fn known_answer_vectors() {
        // Pinned so that any change to the encoding, the lanes or the
        // avalanche is deliberate: it moves every cache key.
        let empty = ContentHasher::new().digest();
        let word = digest_of(|h| h.write_u64(0x0123_4567_89ab_cdef));
        let mixed = digest_of(|h| {
            h.write_str("2QAN");
            h.write_u8(3);
            h.write_f64_slice(&[0.5, -0.0]);
            h.write_usize(80);
        });
        let nested = digest_of(|h| {
            h.write_u8(1);
            h.write_digest(mixed);
        });
        for (digest, (key, check)) in [empty, word, mixed, nested].into_iter().zip(KNOWN) {
            assert_eq!((digest.key, digest.check), (key, check), "{digest:x?}");
        }
    }

    const KNOWN: [(u128, u64); 4] = [
        (
            0x7bf3_7424_d05f_5c43_5ab7_f56e_7b12_884d,
            0x9b39_3138_1746_0762,
        ),
        (
            0x0b89_7ea3_c24e_e74c_f8ba_c0bc_7cb3_38ea,
            0x6e48_20cf_7828_ceff,
        ),
        (
            0x6023_2041_8cdc_11ec_164d_e6e6_e6f8_8e87,
            0x745f_6902_4422_ff3e,
        ),
        (
            0xe40c_c69a_67d5_54fb_391a_d870_a425_4f57,
            0x0ed4_c5b9_4040_f3b8,
        ),
    ];
}
