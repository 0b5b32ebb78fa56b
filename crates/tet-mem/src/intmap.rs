//! A hash map keyed by small integers (page numbers, radix indices).
//!
//! The default SipHash state is built to resist adversarial keys; these
//! maps are keyed by simulator-chosen integers on the hottest lookups in
//! the crate (every physical page access, every table level of every
//! walk), so a single multiply-and-fold hash is enough. Nothing iterates
//! these maps in an order-dependent way, so the hash never reaches an
//! output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd 64-bit constant (2^64 / golden ratio) for Fibonacci hashing.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hasher for integer keys.
///
/// The product's high bits are well mixed and its low bits are not, so
/// [`Hasher::finish`] folds the high half down: `HashMap` takes bucket
/// indices from the low bits and its control tags from the top seven.
#[derive(Debug, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(v: u64) -> u64 {
        let mut h = IntHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_buckets() {
        // A bare product would put every multiple of 2^20 in bucket 0.
        let buckets: std::collections::HashSet<u64> =
            (0..256u64).map(|i| hash(i << 20) & 0xff).collect();
        assert!(buckets.len() > 128, "{} buckets", buckets.len());
    }

    #[test]
    fn int_map_round_trips() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for i in 0..1000u64 {
            m.insert(i * 0x1000, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 0x1000)), Some(&i));
        }
        assert_eq!(m.get(&1), None);
    }
}
