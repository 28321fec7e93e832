//! Stable 128-bit content hashes.
//!
//! The hash is a hand-rolled 128-bit FNV-1a (the build environment is
//! offline; no external hashing crates), which is stable across platforms,
//! processes, and releases of the standard library.  It keys the summary
//! cache (`chora_ir::fingerprint` hashes procedures and call-graph cones
//! with it) and, through its [`Hasher`] impl, any value with a derived
//! [`Hash`] — `chora_logic` fingerprints constraint lists this way to
//! memoize emptiness checks.

use std::fmt;
use std::hash::Hasher;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A stable 128-bit content hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The canonical lower-case hex rendering (32 digits).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the rendering produced by [`Fingerprint::to_hex`].
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An incremental FNV-1a-128 writer with length-prefixed framing (so that
/// `("ab", "c")` and `("a", "bc")` hash differently).
#[derive(Clone, Debug)]
pub struct FingerprintBuilder {
    state: u128,
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        FingerprintBuilder::new()
    }
}

impl FingerprintBuilder {
    /// A builder seeded with the FNV offset basis.
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder {
            state: FNV128_OFFSET,
        }
    }

    /// Absorbs raw bytes (no framing).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
        self
    }

    /// Absorbs a one-byte structural tag.
    pub fn write_tag(&mut self, tag: u8) -> &mut Self {
        self.write_bytes(&[tag])
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs an `i64` (little-endian two's complement).
    pub fn write_i64(&mut self, v: i64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs a boolean.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_tag(u8::from(v))
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// Absorbs a finished fingerprint.
    pub fn write_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.write_bytes(&fp.0.to_le_bytes())
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Feeds a derived [`Hash`] into the same FNV-1a-128 state:
/// `value.hash(&mut builder)` followed by the inherent
/// [`FingerprintBuilder::finish`] yields the full 128-bit fingerprint.  The
/// trait's `finish` folds it to 64 bits; with `Hasher` in scope, a chain
/// through `&mut FingerprintBuilder` (`b.write_bytes(..).finish()`)
/// resolves to that one, so call `finish` on the builder itself.  Derived
/// hashes encode integers in native byte order and may mix in interner
/// indices, so such fingerprints are only stable within one process.
impl Hasher for FingerprintBuilder {
    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }

    fn finish(&self) -> u64 {
        (self.state as u64) ^ ((self.state >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn matches_the_fnv1a_128_reference_vectors() {
        let mut h = FingerprintBuilder::new();
        assert_eq!(h.finish().0, FNV128_OFFSET);
        h.write_bytes(b"a");
        assert_eq!(h.finish().0, 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn derived_hashes_feed_the_same_state() {
        let mut via_trait = FingerprintBuilder::new();
        [1u8, 2, 3].hash(&mut via_trait);
        let mut via_bytes = FingerprintBuilder::new();
        via_bytes
            .write_bytes(&3usize.to_ne_bytes())
            .write_bytes(&[1, 2, 3]);
        assert_eq!(via_trait.finish(), via_bytes.finish());
    }
}
