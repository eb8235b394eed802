//! A standard Bloom filter over keys, used to skip disk components during
//! point lookups (Section II-B of the paper).

use crate::bucket::hash_key;
use crate::entry::Key;

/// A Bloom filter sized for a target false-positive rate of roughly 1%.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    num_items: usize,
}

/// Bits per key used when sizing filters (10 bits/key ≈ 1% false positives).
pub const BITS_PER_KEY: usize = 10;

impl BloomFilter {
    /// Creates a filter sized for `expected_items` keys.
    pub fn with_capacity(expected_items: usize) -> Self {
        let num_bits = (expected_items.max(1) * BITS_PER_KEY).max(64);
        let words = num_bits.div_ceil(64);
        BloomFilter {
            bits: vec![0u64; words],
            num_bits: words * 64,
            num_hashes: 7,
            num_items: 0,
        }
    }

    /// Inserts a key into the filter.
    pub fn insert(&mut self, key: &Key) {
        for p in positions(self.num_bits, self.num_hashes, key) {
            self.bits[p / 64] |= 1u64 << (p % 64);
        }
        self.num_items += 1;
    }

    /// Returns `false` if the key is definitely absent, `true` if it may be
    /// present.
    pub fn may_contain(&self, key: &Key) -> bool {
        positions(self.num_bits, self.num_hashes, key)
            .all(|p| self.bits[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// Number of keys inserted.
    pub fn len(&self) -> usize {
        self.num_items
    }

    /// True if no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Size of the filter in bytes (used by the storage cost accounting).
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Double hashing: the `i`-th of a key's `num_hashes` bit positions is
/// `(h1 + i·h2) % num_bits`, with `h1` and `h2` the 32-bit halves of the
/// 64-bit key hash. Stepped instead of multiplied — both halves are reduced
/// once and every further position is one add and one conditional subtract
/// — which yields the same positions (`h1 + i·h2` cannot overflow 64 bits).
fn positions(num_bits: usize, num_hashes: u32, key: &Key) -> impl Iterator<Item = usize> {
    let h = hash_key(key);
    let n = num_bits as u64;
    let (mut at, step) = ((h & 0xffff_ffff) % n, (h >> 32) % n);
    (0..num_hashes).map(move |_| {
        let p = at;
        at += step;
        if at >= n {
            at -= n;
        }
        p as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn inserted_keys_are_found() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000u64 {
            f.insert(&Key::from_u64(i));
        }
        for i in 0..1000u64 {
            assert!(f.may_contain(&Key::from_u64(i)));
        }
        assert_eq!(f.len(), 1000);
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::with_capacity(10_000);
        for i in 0..10_000u64 {
            f.insert(&Key::from_u64(i));
        }
        let mut fp = 0usize;
        let probes = 10_000usize;
        for i in 0..probes as u64 {
            if f.may_contain(&Key::from_u64(1_000_000 + i)) {
                fp += 1;
            }
        }
        // 10 bits/key with 7 hashes should comfortably stay below 5%.
        assert!(
            fp < probes / 20,
            "false positive rate too high: {fp}/{probes}"
        );
    }

    #[test]
    fn empty_filter_rejects_everything_cheaply() {
        let f = BloomFilter::with_capacity(0);
        assert!(f.is_empty());
        assert!(!f.may_contain(&Key::from_u64(42)));
    }

    /// The stepped positions are the multiplied ones, so every filter is
    /// bit-identical to what `(h1 + i·h2) % n` built.
    #[test]
    fn stepped_positions_equal_the_multiplied_form() {
        let mut rng = SplitMix64::seed_from_u64(0xb100_5eed);
        for items in [0usize, 1, 7, 100, 2_300, 4_600, 100_000, 1 << 22] {
            let f = BloomFilter::with_capacity(items);
            let n = f.num_bits as u64;
            for _ in 0..10_000 {
                let key = Key::from_u64(rng.next_u64());
                let h = hash_key(&key);
                let (h1, h2) = (h & 0xffff_ffff, h >> 32);
                let multiplied: Vec<usize> = (0..f.num_hashes as u64)
                    .map(|i| ((h1 + i * h2) % n) as usize)
                    .collect();
                let stepped: Vec<usize> = positions(f.num_bits, f.num_hashes, &key).collect();
                assert_eq!(stepped, multiplied, "key {key:?}, {n} bits");
            }
        }
    }

    #[test]
    fn prop_no_false_negatives() {
        // Seeded randomized property: any set of inserted keys is reported
        // as possibly present.
        for case in 0..16u64 {
            let mut rng = SplitMix64::seed_from_u64(0xb100_0000 + case);
            let n = rng.gen_range(1..200) as usize;
            let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut f = BloomFilter::with_capacity(keys.len());
            for &k in &keys {
                f.insert(&Key::from_u64(k));
            }
            for &k in &keys {
                assert!(
                    f.may_contain(&Key::from_u64(k)),
                    "false negative for key {k} (case seed {})",
                    0xb100_0000u64 + case
                );
            }
        }
    }
}
