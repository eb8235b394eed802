//! A cache-line-blocked Bloom filter over keys, used to skip disk components
//! during point lookups (Section II-B of the paper).
//!
//! The filter is an array of 64-byte-aligned 512-bit blocks. A key sets (and
//! a probe tests) seven bits of **one** block, so a probe costs one cache
//! line however large the filter is — a point read probes one filter per
//! disk component, and most of those probes are misses that touch nothing
//! else of the component.
//!
//! Both the block and the bits inside it are cut from a *remix* of the 64-bit
//! key hash ([`hash_key`]), never from the hash as it comes: a bucket's
//! components hold only keys that share their low-order hash bits (that is
//! what makes them one bucket, up to 32 bits of it), so a filter that indexed
//! with those bits raw would crowd a bucket's keys into a fraction of its
//! blocks, or onto a fraction of a block's bits.
//!
//! The filter consumes the hash, not the key: a reader hashes its key once
//! and hands the hash to the directory and to every filter it probes
//! ([`BloomFilter::may_contain_hash`]).

use crate::bucket::hash_key;
use crate::entry::Key;

/// Bits per key used when sizing filters. A blocked filter pays for its
/// locality with a slightly higher false-positive rate than a flat one of the
/// same size (blocks fill unevenly): about 1% at 10 bits per key.
pub const BITS_PER_KEY: usize = 10;

/// Bits of one block: one cache line.
const BLOCK_BITS: usize = 512;

/// Bits set per key, all in one block.
const BITS_PER_PROBE: u32 = 7;

/// One cache line of filter bits.
#[derive(Clone, Copy, Debug, Default)]
#[repr(align(64))]
struct Block([u64; BLOCK_BITS / 64]);

/// A Bloom filter sized for a target false-positive rate of roughly 1%.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    blocks: Vec<Block>,
    num_items: usize,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_items` keys.
    pub fn with_capacity(expected_items: usize) -> Self {
        let blocks = (expected_items * BITS_PER_KEY).div_ceil(BLOCK_BITS).max(1);
        BloomFilter {
            blocks: vec![Block::default(); blocks],
            num_items: 0,
        }
    }

    /// Inserts a key into the filter.
    pub fn insert(&mut self, key: &Key) {
        self.insert_hash(hash_key(key));
    }

    /// Inserts the key whose [`hash_key`] is `hash`.
    pub fn insert_hash(&mut self, hash: u64) {
        let (block, bits) = self.locate(hash);
        let words = &mut self.blocks[block].0;
        for p in bit_positions(bits) {
            words[p / 64] |= 1 << (p % 64);
        }
        self.num_items += 1;
    }

    /// Returns `false` if the key is definitely absent, `true` if it may be
    /// present.
    pub fn may_contain(&self, key: &Key) -> bool {
        self.may_contain_hash(hash_key(key))
    }

    /// [`BloomFilter::may_contain`] for the key whose [`hash_key`] is `hash`.
    pub fn may_contain_hash(&self, hash: u64) -> bool {
        let (block, bits) = self.locate(hash);
        let words = &self.blocks[block].0;
        bit_positions(bits).all(|p| (words[p / 64] >> (p % 64)) & 1 == 1)
    }

    /// The block a hash falls into and the 63 bits its in-block positions are
    /// cut from, each taken from its own round of mixing. The block index is
    /// the high half of `mixed × blocks` (multiply-shift): no division.
    fn locate(&self, hash: u64) -> (usize, u64) {
        let mixed = (hash ^ (hash >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let block = ((mixed as u128 * self.blocks.len() as u128) >> 64) as usize;
        let bits = (mixed ^ (mixed >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (block, bits >> 1)
    }

    /// Number of keys inserted.
    pub fn len(&self) -> usize {
        self.num_items
    }

    /// True if no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Size of the filter in bytes: whole cache lines.
    pub fn size_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<Block>()
    }
}

/// The in-block bit positions of a key: nine bits of `bits` each.
fn bit_positions(bits: u64) -> impl Iterator<Item = usize> {
    (0..BITS_PER_PROBE).map(move |i| (bits >> (9 * i)) as usize % BLOCK_BITS)
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

    /// Share of `probes` (none of them inserted) the filter lets through.
    fn false_positive_rate(f: &BloomFilter, probes: impl Iterator<Item = u64>) -> f64 {
        let (mut n, mut fp) = (0u32, 0u32);
        for h in probes {
            n += 1;
            fp += u32::from(f.may_contain_hash(h));
        }
        f64::from(fp) / f64::from(n)
    }

    #[test]
    fn false_positive_rate_is_low_for_random_keys() {
        let mut f = BloomFilter::with_capacity(10_000);
        for i in 0..10_000u64 {
            f.insert(&Key::from_u64(i));
        }
        let absent = (0..50_000u64).map(|i| hash_key(&Key::from_u64(1_000_000 + i)));
        let rate = false_positive_rate(&f, absent);
        assert!(rate <= 0.02, "false positive rate too high: {rate}");
    }

    /// What a bucket's component holds and what its readers ask for: only
    /// keys whose hash has one fixed value in its low 12 bits. A filter that
    /// took its block index (or its bit positions) from those bits raw would
    /// use one block in 4 096 and let nearly every probe through. The hashes
    /// are drawn directly — `hash_key` is uniform, and finding 60 000 keys of
    /// one depth-12 bucket would hash 250 million.
    #[test]
    fn false_positive_rate_is_low_for_the_keys_of_one_bucket() {
        for fixed in [0u64, 0xfff, 0xa5a] {
            let mut rng = SplitMix64::seed_from_u64(0xb100_b0c7 ^ fixed);
            let mut in_bucket = move || (rng.next_u64() << 12) | fixed;
            let mut f = BloomFilter::with_capacity(10_000);
            for _ in 0..10_000 {
                f.insert_hash(in_bucket());
            }
            let rate = false_positive_rate(&f, (0..50_000).map(|_| in_bucket()));
            assert!(rate <= 0.02, "low bits {fixed:#x}: rate {rate}");
        }
        // and with real keys, a shallower bucket
        let bucket = crate::bucket::BucketId::new(0b101, 3);
        let mut keys = (0..u64::MAX)
            .map(Key::from_u64)
            .filter(|k| bucket.contains_key(k));
        let mut f = BloomFilter::with_capacity(10_000);
        for k in keys.by_ref().take(10_000) {
            f.insert(&k);
        }
        let rate = false_positive_rate(&f, keys.take(50_000).map(|k| hash_key(&k)));
        assert!(rate <= 0.02, "bucket {bucket}: rate {rate}");
    }

    #[test]
    fn empty_filter_rejects_everything_cheaply() {
        let f = BloomFilter::with_capacity(0);
        assert!(f.is_empty());
        assert!(!f.may_contain(&Key::from_u64(42)));
        assert!(!f.may_contain_hash(0));
        assert!(!f.may_contain_hash(u64::MAX));
    }

    /// No false negatives at any size, whichever door a key came in by and
    /// whichever it is asked for by; the filter is whole cache lines.
    #[test]
    fn no_false_negatives_at_any_size_by_key_or_by_hash() {
        let mut rng = SplitMix64::seed_from_u64(0xb100_5eed);
        for items in [0usize, 1, 7, 100, 2_300, 100_000, 1 << 22] {
            let mut f = BloomFilter::with_capacity(items);
            assert_eq!(f.size_bytes() % 64, 0, "{items} items");
            assert!(f.size_bytes() * 8 >= items * BITS_PER_KEY, "{items} items");
            let keys: Vec<Key> = (0..items.clamp(1, 5_000))
                .map(|_| Key::from_u64(rng.next_u64()))
                .collect();
            for (at, key) in keys.iter().enumerate() {
                if at % 2 == 0 {
                    f.insert(key);
                } else {
                    f.insert_hash(hash_key(key));
                }
            }
            assert_eq!(f.len(), keys.len());
            for key in &keys {
                assert!(f.may_contain(key), "{items} items, key {key:?}");
                assert!(
                    f.may_contain_hash(hash_key(key)),
                    "{items} items, key {key:?}"
                );
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
