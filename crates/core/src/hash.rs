//! Stable content hashing for compile-cache keys: [`ContentHasher`] lives
//! in the leaf crate `twoqan-math` (see [`twoqan_math::hash`] for the
//! encoding, the lanes and the check digest) so that `twoqan-device` can
//! memoise device digests with it; this module re-exports it for
//! [`crate::Compiler::cache_fingerprint`] implementors.

pub use twoqan_math::hash::{ContentHasher, Digest};
