//! The one flight-id hash the whole system routes by.
//!
//! Two layers place flights into buckets: the cluster-level partition map
//! ([`crate::partition::PartitionMap`]) and the flight-keyed hash tables
//! on the apply and edge-subscription hot paths (and the aux unit's status
//! table and coalescer, probed once per event). They must never disagree
//! on how a flight id mixes — a divergence would be invisible until a
//! flight's events and its subscribers landed in different buckets — so
//! the Fibonacci multiplicative hash lives here, once, and every layer
//! derives from it.
//!
//! Two post-mixes are exposed because the two consumers want different
//! bits:
//!
//! * [`fib_slot`] keeps the **high** bits (the well-mixed ones after a
//!   multiply) and reduces them modulo the bucket count — the classic
//!   Fibonacci bucketing for the partition map;
//! * [`fib_mix64`] xor-folds the high bits into the low bits, producing a
//!   full-width value whose **low** bits are usable — what a hash table
//!   that masks with its capacity needs.

/// 2^64 / φ, the Fibonacci hashing constant.
pub const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Full-width mix: multiply and fold the well-mixed high bits into the
/// low bits. Use for hash-table hashers (which index with low bits).
#[inline]
pub fn fib_mix64(v: u64) -> u64 {
    let h = v.wrapping_mul(FIB_MULT);
    h ^ (h >> 32)
}

/// Bucket assignment: multiply, keep the high bits, reduce modulo
/// `buckets` (exact for non-power-of-two counts). Use for the partition
/// map. `buckets` is clamped to at least 1.
#[inline]
pub fn fib_slot(key: u64, buckets: usize) -> usize {
    ((key.wrapping_mul(FIB_MULT) >> 32) % buckets.max(1) as u64) as usize
}

/// Hasher for flight-id keys: one Fibonacci multiply with an xor-fold.
/// Flight ids are small dense integers, and flight-keyed lookups sit on
/// the per-event apply and subscription-fan-out hot paths — SipHash
/// (std's default) costs more there than the field updates it guards.
#[derive(Clone, Copy, Default)]
pub struct FlightIdHasher(u64);

impl std::hash::Hasher for FlightIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (never hit by u32 keys): byte-wise FNV-style mix.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FIB_MULT);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = fib_mix64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = fib_mix64(v);
    }
}

/// [`std::hash::BuildHasher`] for flight-keyed tables.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BuildFlightHasher;

impl std::hash::BuildHasher for BuildFlightHasher {
    type Hasher = FlightIdHasher;
    fn build_hasher(&self) -> FlightIdHasher {
        FlightIdHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn fib_slot_is_deterministic_and_in_range() {
        for buckets in [1usize, 2, 3, 8, 64] {
            for key in 0..1000u64 {
                let s = fib_slot(key, buckets);
                assert!(s < buckets);
                assert_eq!(s, fib_slot(key, buckets), "stable");
            }
        }
        assert_eq!(fib_slot(42, 0), 0, "clamped to one bucket");
    }

    #[test]
    fn fib_slot_spreads_sequential_keys() {
        // Sequential flight ids must not all land in one bucket (the whole
        // point of the multiplicative mix).
        let mut counts = [0usize; 8];
        for key in 0..800u64 {
            counts[fib_slot(key, 8)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 2 * min.max(1), "balanced: {counts:?}");
    }

    #[test]
    fn mix_matches_hasher_write_u32() {
        let mut h = FlightIdHasher::default();
        77u32.hash(&mut h);
        assert_eq!(h.finish(), fib_mix64(77));
    }

    #[test]
    fn mix_differs_from_slot_projection() {
        // The two post-mixes serve different consumers; sanity-check they
        // both derive from the same multiply.
        let v = 123u64;
        let product = v.wrapping_mul(FIB_MULT);
        assert_eq!(fib_mix64(v), product ^ (product >> 32));
        assert_eq!(fib_slot(v, 64), ((product >> 32) % 64) as usize);
    }
}
