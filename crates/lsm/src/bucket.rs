//! Extendible-hashing buckets.
//!
//! A bucket is identified by the `depth` low-order bits of a key's hash
//! value (Section III of the paper). A bucket of depth `d` covers the hash
//! values `h` such that `h mod 2^d == bits`. Splitting a bucket takes one
//! more hash bit, producing the two children `bits` and `bits + 2^d` with
//! depth `d + 1`.

use std::fmt;

use crate::entry::Key;

/// Maximum supported bucket depth (bits of the hash value used).
pub const MAX_DEPTH: u8 = 32;

/// 64-bit hash of a key used for hash partitioning and bucket assignment.
///
/// This is a seeded FNV-1a style hash followed by a 64-bit finalizer
/// (splitmix64). It is deterministic across runs and platforms, which the
/// experiments rely on.
pub fn hash_key(key: &Key) -> u64 {
    hash_bytes(key.as_slice())
}

/// [`hash_key`] over raw key bytes, so the primary part of a composite
/// secondary-index key can be hashed in place.
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer to scramble the low-order bits, which extendible
    // hashing consumes first.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The low-order `depth` bits of a hash value.
fn hash_mask(depth: u8) -> u64 {
    if depth >= 32 {
        u32::MAX as u64
    } else {
        (1u64 << depth) - 1
    }
}

/// A bucket of the extendible-hash key space: the `depth` low-order bits of
/// the hash equal `bits`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BucketId {
    /// The low-order bits identifying the bucket (`bits < 2^depth`).
    pub bits: u32,
    /// Number of hash bits used (the bucket's depth).
    pub depth: u8,
}

impl BucketId {
    /// Creates a bucket id, masking `bits` to the given depth.
    pub fn new(bits: u32, depth: u8) -> Self {
        assert!(depth <= MAX_DEPTH, "bucket depth {depth} exceeds maximum");
        BucketId {
            bits: bits & hash_mask(depth) as u32,
            depth,
        }
    }

    /// The root bucket covering the whole hash space (depth 0).
    pub fn root() -> Self {
        BucketId { bits: 0, depth: 0 }
    }

    /// Returns the bucket of depth `depth` that a hash value falls into.
    pub fn of_hash(hash: u64, depth: u8) -> Self {
        BucketId::new((hash & hash_mask(depth)) as u32, depth)
    }

    /// True if the given hash value belongs to this bucket.
    pub fn contains_hash(&self, hash: u64) -> bool {
        (hash & hash_mask(self.depth)) == self.bits as u64
    }

    /// True if the given key belongs to this bucket.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.contains_hash(hash_key(key))
    }

    /// The two children obtained by taking one more hash bit.
    ///
    /// Splitting bucket `b` of depth `d` produces `(b, d+1)` and
    /// `(b + 2^d, d+1)`.
    pub fn split(&self) -> (BucketId, BucketId) {
        assert!(self.depth < MAX_DEPTH, "cannot split beyond max depth");
        let low = BucketId::new(self.bits, self.depth + 1);
        let high = BucketId::new(self.bits | (1u32 << self.depth), self.depth + 1);
        (low, high)
    }

    /// The parent bucket one level up (or `None` for the root).
    pub fn parent(&self) -> Option<BucketId> {
        if self.depth == 0 {
            None
        } else {
            Some(BucketId::new(self.bits, self.depth - 1))
        }
    }

    /// True if `self` covers `other`, i.e. `other` is `self` or one of its
    /// descendants in the split tree.
    pub fn covers(&self, other: &BucketId) -> bool {
        other.depth >= self.depth && self.contains_hash(other.bits as u64)
    }

    /// The normalized size of the bucket relative to a directory of global
    /// depth `global_depth`: `2^(D - d)` (Section V-A of the paper).
    ///
    /// A bucket of smaller depth covers more of the hash space and therefore
    /// has a larger normalized size.
    pub fn normalized_size(&self, global_depth: u8) -> u64 {
        assert!(
            global_depth >= self.depth,
            "global depth {global_depth} smaller than bucket depth {}",
            self.depth
        );
        1u64 << (global_depth - self.depth)
    }
}

/// A set of buckets arranged for membership tests: one group per distinct
/// depth holding that depth's hash mask and the sorted `bits` of its
/// buckets, so a test costs one binary search per depth in use however many
/// buckets moved. `contains_hash` is by definition
/// `buckets.iter().any(|b| b.contains_hash(hash))`.
#[derive(Clone, Debug, Default)]
pub(crate) struct BucketSet {
    by_depth: Vec<(u64, Vec<u32>)>,
}

impl BucketSet {
    /// True if the set holds no bucket.
    pub(crate) fn is_empty(&self) -> bool {
        self.by_depth.is_empty()
    }

    /// Adds `buckets`; returns true if any of them was not in the set yet.
    pub(crate) fn extend(&mut self, buckets: &[BucketId]) -> bool {
        let mut grew = false;
        for b in buckets {
            let mask = hash_mask(b.depth);
            let known = self.by_depth.iter().position(|(m, _)| *m == mask);
            let at = known.unwrap_or_else(|| {
                self.by_depth.push((mask, Vec::new()));
                self.by_depth.len() - 1
            });
            let bits = &mut self.by_depth[at].1;
            if let Err(slot) = bits.binary_search(&b.bits) {
                bits.insert(slot, b.bits);
                grew = true;
            }
        }
        grew
    }

    /// True if the given hash value belongs to any bucket of the set.
    pub(crate) fn contains_hash(&self, hash: u64) -> bool {
        self.by_depth
            .iter()
            .any(|(mask, bits)| bits.binary_search(&((hash & mask) as u32)).is_ok())
    }
}

impl fmt::Display for BucketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.depth == 0 {
            write!(f, "b[*]")
        } else {
            write!(f, "b[{:0width$b}]", self.bits, width = self.depth as usize)
        }
    }
}

impl fmt::Debug for BucketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn split_children_partition_the_parent() {
        let b = BucketId::new(0b11, 2);
        let (lo, hi) = b.split();
        assert_eq!(lo, BucketId::new(0b011, 3));
        assert_eq!(hi, BucketId::new(0b111, 3));
        assert!(b.covers(&lo));
        assert!(b.covers(&hi));
        assert!(!lo.covers(&hi));
        assert_eq!(lo.parent(), Some(b));
        assert_eq!(hi.parent(), Some(b));
    }

    #[test]
    fn root_covers_everything() {
        let root = BucketId::root();
        assert!(root.contains_hash(0));
        assert!(root.contains_hash(u64::MAX));
        assert!(root.covers(&BucketId::new(5, 4)));
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn normalized_size_follows_depth() {
        let b = BucketId::new(1, 2);
        assert_eq!(b.normalized_size(2), 1);
        assert_eq!(b.normalized_size(3), 2);
        assert_eq!(b.normalized_size(5), 8);
    }

    #[test]
    fn hash_is_deterministic() {
        let k = Key::from_u64(123456);
        assert_eq!(hash_key(&k), hash_key(&k));
        assert_ne!(hash_key(&Key::from_u64(1)), hash_key(&Key::from_u64(2)));
    }

    #[test]
    fn of_key_respects_depth_masking() {
        let k = Key::from_u64(99);
        let d3 = BucketId::of_hash(hash_key(&k), 3);
        let d5 = BucketId::of_hash(hash_key(&k), 5);
        assert!(d3.covers(&d5));
        assert!(d3.contains_key(&k));
        assert!(d5.contains_key(&k));
    }

    #[test]
    fn prop_children_cover_exactly_parent_hashes() {
        for case in 0..32u64 {
            let seed = 0xbcc0_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let hash = rng.next_u64();
            let bits = rng.gen_range(0..16) as u32;
            let depth = rng.gen_range(1..16) as u8;
            let b = BucketId::new(bits, depth);
            let (lo, hi) = b.split();
            let in_parent = b.contains_hash(hash);
            let in_children = lo.contains_hash(hash) || hi.contains_hash(hash);
            assert_eq!(in_parent, in_children, "seed {seed}: {b} vs {lo}/{hi}");
            // children are disjoint
            assert!(
                !(lo.contains_hash(hash) && hi.contains_hash(hash)),
                "seed {seed}: children overlap on hash {hash:#x}"
            );
        }
    }

    /// The grouped set answers exactly what testing every bucket in turn
    /// answers, for mixed depths, duplicates and sets grown in several steps.
    #[test]
    fn prop_bucket_set_matches_the_linear_definition() {
        for case in 0..64u64 {
            let seed = 0xbcc2_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let buckets: Vec<BucketId> = (0..rng.gen_range(0..40))
                .map(|_| BucketId::new(rng.next_u64() as u32, rng.gen_range(0..7) as u8))
                .collect();
            let mut set = BucketSet::default();
            let half = buckets.len() / 2;
            assert_eq!(set.extend(&buckets[..half]), half > 0, "seed {seed}");
            set.extend(&buckets[half..]);
            assert!(!set.extend(&buckets), "seed {seed}: nothing left to add");
            assert_eq!(set.is_empty(), buckets.is_empty(), "seed {seed}");
            for _ in 0..200 {
                let hash = rng.next_u64();
                assert_eq!(
                    set.contains_hash(hash),
                    buckets.iter().any(|b| b.contains_hash(hash)),
                    "seed {seed}: hash {hash:#x} against {buckets:?}"
                );
            }
        }
    }

    #[test]
    fn prop_every_hash_has_one_bucket_per_depth() {
        for case in 0..32u64 {
            let seed = 0xbcc1_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let hash = rng.next_u64();
            let depth = rng.gen_range(0..20) as u8;
            let b = BucketId::of_hash(hash, depth);
            assert!(b.contains_hash(hash), "seed {seed}");
            assert_eq!(b.depth, depth, "seed {seed}");
        }
    }

    #[test]
    fn prop_normalized_sizes_sum_to_directory_size() {
        // A full split tree at uniform depth d has 2^d buckets of
        // normalized size 2^(D-d); their sum must be 2^D.
        for depth in 0u8..6 {
            let global = 8u8;
            let total: u64 = (0..(1u32 << depth))
                .map(|bits| BucketId::new(bits, depth).normalized_size(global))
                .sum();
            assert_eq!(total, 1u64 << global, "depth {depth}");
        }
    }
}
