//! A small deterministic hasher for integer-keyed maps.
//!
//! Page tables, protocol directories and NIC region tables are keyed by
//! page numbers and ids that the simulator itself generates, so they need
//! no protection against adversarial keys. [`IntMap`] replaces the
//! standard library's randomly seeded SipHash with one folded multiply
//! per key, which keeps strided keys (every 16th page, say) spread over
//! the table's buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for integer keys, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd multiplier with well-mixed bits (the 64-bit golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys: each written integer is
/// xored into the state and mixed by one 64×64→128-bit multiply whose
/// halves are folded together, so every input bit reaches both the low
/// bits (bucket index) and the high bits (control byte) of the hash.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(1u64), hash(2u64));
        // The same integer hashes the same whatever its width.
        assert_eq!(hash(7u32), hash(7u64));
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Chunk-aligned page numbers share their low 4 bits; the bucket
        // index (low bits of the hash) must still differ.
        let buckets: std::collections::BTreeSet<u64> =
            (0..256u64).map(|i| hash(i * 16) & 255).collect();
        assert!(
            buckets.len() > 128,
            "only {} of 256 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn map_round_trip() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i);
        }
        assert!((0..1000u64).all(|i| m[&(i * 4096)] == i));
    }
}
