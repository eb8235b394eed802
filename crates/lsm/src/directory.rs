//! The per-partition local directory.
//!
//! Each storage partition keeps a local directory of the buckets it has been
//! assigned (Section III). Buckets may be split locally without notifying
//! the Cluster Controller; the global directory is only refreshed when a
//! rebalance starts. The local directory therefore is the source of truth
//! for which buckets exist at a partition and which bucket a key belongs to.
//!
//! Like the CC's global directory, lookups go through a [`SlotArray`]
//! indexed by the `D` low-order hash bits (`D` = the partition's local
//! depth), so routing a write or validating a session route is one probe
//! instead of a scan over the bucket set. A partition owns only part of the
//! hash space, so slots outside its buckets are simply empty.

use std::collections::BTreeSet;
use std::fmt;

use crate::bucket::{hash_key, BucketId};
use crate::entry::Key;
use crate::slots::SlotArray;

/// The set of buckets owned by one partition.
///
/// Invariant: no bucket in the directory covers another (buckets are
/// disjoint regions of the hash space).
#[derive(Clone)]
pub struct LocalDirectory {
    buckets: BTreeSet<BucketId>,
    /// Slot array over the low-order `local_depth` hash bits; `None` marks
    /// hash ranges this partition does not own.
    slots: SlotArray<BucketId>,
}

impl PartialEq for LocalDirectory {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
    }
}

impl Eq for LocalDirectory {}

impl fmt::Debug for LocalDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalDirectory")
            .field("buckets", &self.buckets)
            .field("local_depth", &self.slots.depth())
            .finish()
    }
}

impl Default for LocalDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        LocalDirectory {
            buckets: BTreeSet::new(),
            slots: SlotArray::new(),
        }
    }

    /// Adds a bucket, rejecting overlaps with existing buckets.
    ///
    /// The overlap check probes the new bucket's slot lattice instead of
    /// scanning the bucket set: two buckets overlap exactly when one covers
    /// the other, which surfaces as an occupied slot in the lattice.
    pub fn add(&mut self, bucket: BucketId) -> crate::Result<()> {
        if self.slots.lattice_occupied(&bucket) {
            return Err(crate::StorageError::BucketExists(bucket));
        }
        self.buckets.insert(bucket);
        self.slots.insert(bucket, bucket);
        self.debug_validate_caches();
        Ok(())
    }

    /// Removes a bucket. Returns `true` if it was present.
    pub fn remove(&mut self, bucket: &BucketId) -> bool {
        if !self.buckets.remove(bucket) {
            return false;
        }
        self.slots.remove(*bucket, |b| b == bucket);
        self.debug_validate_caches();
        true
    }

    /// True if the exact bucket is present.
    pub fn contains(&self, bucket: &BucketId) -> bool {
        self.buckets.contains(bucket)
    }

    /// Replaces `bucket` with its two split children. Errors if the bucket is
    /// not present.
    pub fn split(&mut self, bucket: &BucketId) -> crate::Result<(BucketId, BucketId)> {
        if !self.remove(bucket) {
            return Err(crate::StorageError::UnknownBucket(*bucket));
        }
        let (lo, hi) = bucket.split();
        // The parent covered both children's hash ranges, so after its
        // removal the children cannot overlap anything; propagate rather
        // than panic if that invariant is ever broken.
        self.add(lo)?;
        self.add(hi)?;
        Ok((lo, hi))
    }

    /// The bucket (if any) owned by this partition that a hash value falls
    /// into: one slot probe.
    pub fn lookup_hash(&self, hash: u64) -> Option<BucketId> {
        self.slots.lookup(hash)
    }

    /// The bucket (if any) that a key falls into.
    pub fn lookup_key(&self, key: &Key) -> Option<BucketId> {
        self.lookup_hash(hash_key(key))
    }

    /// All buckets in this directory, in sorted order.
    pub fn buckets(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.buckets.iter().copied()
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The maximum depth among the buckets (the partition's local depth).
    /// Cached by the slot array and maintained incrementally.
    pub fn local_depth(&self) -> u8 {
        self.slots.depth()
    }

    /// Checks the no-overlap invariant plus slot/bucket agreement (used by
    /// property tests and debug assertions).
    pub fn is_consistent(&self) -> bool {
        let v: Vec<BucketId> = self.buckets.iter().copied().collect();
        for (i, a) in v.iter().enumerate() {
            for b in v.iter().skip(i + 1) {
                if a.covers(b) || b.covers(a) {
                    return false;
                }
            }
        }
        if self.slots.num_slots() != 1usize << self.slots.depth() {
            return false;
        }
        // Every slot must agree with the bucket set: an owned slot points at
        // the unique bucket containing its hashes, an empty slot at nothing.
        self.slots.slots().iter().enumerate().all(|(idx, slot)| {
            let expect = v.iter().find(|b| b.contains_hash(idx as u64)).copied();
            *slot == expect
        })
    }

    #[inline]
    fn debug_validate_caches(&self) {
        #[cfg(debug_assertions)]
        {
            let recomputed = self.buckets.iter().map(|b| b.depth).max().unwrap_or(0);
            self.slots.debug_validate(recomputed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn add_and_lookup() {
        let mut d = LocalDirectory::new();
        d.add(BucketId::new(0b00, 2)).unwrap();
        d.add(BucketId::new(0b10, 2)).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.lookup_hash(0b100), Some(BucketId::new(0b00, 2)));
        assert_eq!(d.lookup_hash(0b110), Some(BucketId::new(0b10, 2)));
        assert_eq!(d.lookup_hash(0b01), None, "bucket 01 not owned here");
    }

    #[test]
    fn overlapping_buckets_are_rejected() {
        let mut d = LocalDirectory::new();
        d.add(BucketId::new(0b0, 1)).unwrap();
        assert!(d.add(BucketId::new(0b00, 2)).is_err());
        assert!(d.add(BucketId::new(0, 0)).is_err());
        assert!(d.is_consistent());
    }

    #[test]
    fn split_replaces_bucket_with_children() {
        let mut d = LocalDirectory::new();
        let b = BucketId::new(0b1, 1);
        d.add(b).unwrap();
        let (lo, hi) = d.split(&b).unwrap();
        assert!(!d.contains(&b));
        assert!(d.contains(&lo) && d.contains(&hi));
        assert_eq!(d.local_depth(), 2);
        assert!(d.is_consistent());
        assert!(d.split(&b).is_err(), "splitting a missing bucket fails");
    }

    #[test]
    fn lookup_key_matches_bucket_membership() {
        let mut d = LocalDirectory::new();
        d.add(BucketId::new(0, 1)).unwrap();
        d.add(BucketId::new(1, 2)).unwrap();
        d.add(BucketId::new(3, 2)).unwrap();
        for i in 0..1000u64 {
            let k = Key::from_u64(i);
            let b = d.lookup_key(&k).expect("full coverage");
            assert!(b.contains_key(&k));
        }
    }

    #[test]
    fn remove_shrinks_the_slot_array_and_depth_cache() {
        let mut d = LocalDirectory::new();
        d.add(BucketId::new(0, 1)).unwrap();
        d.add(BucketId::new(0b01, 2)).unwrap();
        d.add(BucketId::new(0b11, 2)).unwrap();
        assert_eq!(d.local_depth(), 2);
        assert!(d.remove(&BucketId::new(0b01, 2)));
        assert_eq!(d.local_depth(), 2, "a depth-2 bucket remains");
        assert!(d.remove(&BucketId::new(0b11, 2)));
        assert_eq!(d.local_depth(), 1, "depth cache must shrink");
        assert!(d.is_consistent());
        assert!(
            !d.remove(&BucketId::new(0b11, 2)),
            "double remove is a no-op"
        );
        assert_eq!(d.lookup_hash(0b11), None);
        assert_eq!(d.lookup_hash(0b10), Some(BucketId::new(0, 1)));
    }

    #[test]
    fn prop_splits_preserve_consistency_and_coverage() {
        // Start with the root bucket and repeatedly split the bucket
        // containing an arbitrary hash; the directory must stay
        // consistent and keep covering the full hash space.
        for case in 0..16u64 {
            let seed = 0xd1c0_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let n = rng.gen_range(0..40) as usize;
            let splits: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut d = LocalDirectory::new();
            d.add(BucketId::root()).unwrap();
            for &h in &splits {
                let b = d.lookup_hash(h).expect("coverage");
                if b.depth < 20 {
                    d.split(&b).unwrap();
                }
            }
            assert!(d.is_consistent(), "seed {seed}, splits {splits:#x?}");
            for h in [0u64, 1, 2, 3, 1 << 20, u64::MAX, 0xdead_beef] {
                assert!(
                    d.lookup_hash(h).is_some(),
                    "seed {seed}: hash {h:#x} uncovered"
                );
            }
        }
    }

    #[test]
    fn prop_slot_lookup_matches_linear_scan() {
        // Random add/remove/split sequences over a partial hash space: the
        // slot-array lookup must agree with a linear scan over the bucket
        // set for every probed hash.
        for case in 0..16u64 {
            let seed = 0xd1c1_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut d = LocalDirectory::new();
            d.add(BucketId::new(0, 2)).unwrap();
            d.add(BucketId::new(2, 2)).unwrap();
            for _ in 0..rng.gen_range(5..60) {
                let buckets: Vec<BucketId> = d.buckets().collect();
                match rng.gen_range(0..3) {
                    0 if !buckets.is_empty() => {
                        let b = buckets[rng.gen_range(0..buckets.len() as u64) as usize];
                        if b.depth < 12 {
                            d.split(&b).unwrap();
                        }
                    }
                    1 if buckets.len() > 1 => {
                        let b = buckets[rng.gen_range(0..buckets.len() as u64) as usize];
                        d.remove(&b);
                    }
                    _ => {
                        let bits = rng.next_u64() as u32;
                        let depth = rng.gen_range(1..8) as u8;
                        let _ = d.add(BucketId::new(bits, depth));
                    }
                }
                for _ in 0..16 {
                    let h = rng.next_u64();
                    let scan = d.buckets().find(|b| b.contains_hash(h));
                    assert_eq!(d.lookup_hash(h), scan, "seed {seed}: hash {h:#x}");
                }
                assert!(d.is_consistent(), "seed {seed}");
            }
        }
    }
}
