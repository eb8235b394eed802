//! The global directory kept at the Cluster Controller.
//!
//! The global directory maps every bucket of a dataset to the storage
//! partition that owns it (Section III). Its global depth `D` is the maximum
//! depth over all buckets, so a lookup uses the `D` low-order bits of a key's
//! hash. The directory may be *stale* with respect to local bucket splits —
//! routing stays correct because a split bucket's children cover exactly the
//! parent's hash range — and is refreshed from the partitions' local
//! directories when a rebalance starts.
//!
//! The directory is **versioned**: every mutation (a [`GlobalDirectory::reassign`],
//! a [`GlobalDirectory::remove`], or an [`GlobalDirectory::install`]/refresh
//! absorbing local splits or a rebalance commit) bumps a monotonically
//! increasing version and appends the changed buckets to a bounded change
//! log. Clients (query coordinators and `Session` handles in the cluster
//! crate) cache a snapshot of the directory together with its version; when
//! a partition rejects a stale-routed request, the client catches up either
//! with a cheap [`DirectoryDelta`] ([`GlobalDirectory::delta_since`]) or — if
//! the log no longer reaches back far enough — a full snapshot.
//!
//! Lookups are **O(1)**: alongside the assignment map the directory
//! materializes the textbook extendible-hashing slot array — `2^D` entries
//! indexed by the `D` low-order bits of a key's hash, each pointing at the
//! bucket covering that slot. A bucket of depth `d` owns the `2^(D-d)` slots
//! of its lattice (`bits + k·2^d`). The array is maintained incrementally:
//! it doubles when a mutation raises the global depth, halves when the last
//! deepest bucket disappears, and split/merge/reassign rewrite only the
//! affected slot lattices — delta catch-up never rebuilds the whole table.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use dynahash_lsm::bucket::{hash_key, BucketId};
use dynahash_lsm::entry::Key;
use dynahash_lsm::slots::SlotArray;

use crate::topology::PartitionId;
use crate::{CoreError, Result};

/// How many directory changes are retained for delta catch-up. Sessions that
/// fall further behind than this fall back to a full snapshot refresh.
const MAX_CHANGE_LOG: usize = 1024;

/// One logged directory change: the bucket now maps to `Some(partition)`, or
/// was removed from the directory (`None`).
type DirectoryChange = (u64, BucketId, Option<PartitionId>);

/// The changes between two directory versions, applied by a client to bring
/// a cached snapshot up to date without re-fetching the whole directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryDelta {
    /// The version the delta starts from (the client's cached version).
    pub from_version: u64,
    /// The version the delta brings the client to.
    pub to_version: u64,
    /// Per-bucket changes, already deduplicated to the latest state:
    /// `Some(partition)` assigns (or re-assigns) the bucket, `None` removes
    /// it (e.g. a split parent superseded by its children).
    pub changes: Vec<(BucketId, Option<PartitionId>)>,
}

impl DirectoryDelta {
    /// True if the delta carries no changes (the client was already current).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// The CC's mapping from buckets to partitions.
///
/// Equality compares the *assignment only*: two directories with the same
/// bucket-to-partition mapping are equal even if they reached it at
/// different versions (integrity checks rebuild a fresh directory from the
/// partitions' local views and compare it against the CC's copy).
#[derive(Clone)]
pub struct GlobalDirectory {
    assignment: BTreeMap<BucketId, PartitionId>,
    /// The extendible-hashing slot array (shared implementation with each
    /// partition's bucket map, `BucketedLsmTree`): `2^D` entries indexed by the low-order
    /// `D` bits of a key's hash, `D` being the cached global depth. `None`
    /// marks a hash range no bucket currently covers (transient mid-delta
    /// state).
    slots: SlotArray<(BucketId, PartitionId)>,
    /// Monotonic version, bumped by every mutation.
    version: u64,
    /// Bounded log of recent changes, each tagged with the version it
    /// produced. Multiple entries may share a version (a refresh or a
    /// rebalance commit installs all of its changes under one bump).
    log: VecDeque<DirectoryChange>,
    /// The oldest version `delta_since` can still serve: requests for
    /// anything older must fall back to a full snapshot.
    oldest_delta_base: u64,
}

impl PartialEq for GlobalDirectory {
    fn eq(&self, other: &Self) -> bool {
        self.assignment == other.assignment
    }
}

impl Eq for GlobalDirectory {}

impl fmt::Debug for GlobalDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalDirectory")
            .field("assignment", &self.assignment)
            .field("global_depth", &self.slots.depth())
            .field("version", &self.version)
            .finish()
    }
}

impl Default for GlobalDirectory {
    fn default() -> Self {
        GlobalDirectory {
            assignment: BTreeMap::new(),
            slots: SlotArray::new(),
            version: 1,
            log: VecDeque::new(),
            oldest_delta_base: 1,
        }
    }
}

impl GlobalDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_assignment(assignment: BTreeMap<BucketId, PartitionId>) -> Self {
        let mut dir = GlobalDirectory {
            assignment,
            ..Self::default()
        };
        dir.rebuild_slots();
        dir
    }

    // ------------------------------------------------ slot-array maintenance

    /// Rebuilds the slot array from the assignment. Only construction paths
    /// use this; incremental mutations go through
    /// [`GlobalDirectory::insert_bucket`] /
    /// [`GlobalDirectory::remove_bucket`].
    fn rebuild_slots(&mut self) {
        let entries: Vec<(BucketId, (BucketId, PartitionId))> = self
            .assignment
            .iter()
            .map(|(b, p)| (*b, (*b, *p)))
            .collect();
        self.slots.rebuild(&entries);
    }

    /// Assigns (or re-assigns) a bucket, keeping the slot array in sync.
    /// Returns the previous owner.
    fn insert_bucket(&mut self, bucket: BucketId, to: PartitionId) -> Option<PartitionId> {
        let prev = self.assignment.insert(bucket, to);
        if prev.is_none() {
            self.slots.insert(bucket, (bucket, to));
        } else {
            self.slots.update(bucket, (bucket, to));
        }
        self.debug_validate_caches();
        prev
    }

    /// Removes a bucket, clearing its slots and shrinking the array if it
    /// was the last bucket at the global depth.
    fn remove_bucket(&mut self, bucket: &BucketId) -> Option<PartitionId> {
        let removed = self.assignment.remove(bucket)?;
        self.slots.remove(*bucket, |(b, _)| b == bucket);
        self.debug_validate_caches();
        Some(removed)
    }

    /// Debug-build check that the cached depth (and thus `num_slots`) agrees
    /// with a recomputation over the assignment keys.
    #[inline]
    fn debug_validate_caches(&self) {
        #[cfg(debug_assertions)]
        {
            let recomputed = self.assignment.keys().map(|b| b.depth).max().unwrap_or(0);
            self.slots.debug_validate(recomputed);
        }
    }

    /// Creates a directory with `2^depth` buckets assigned round-robin over
    /// the given partitions — the initial layout when a dataset is created.
    pub fn initial(depth: u8, partitions: &[PartitionId]) -> Result<Self> {
        if partitions.is_empty() {
            return Err(CoreError::EmptyTopology);
        }
        let mut assignment = BTreeMap::new();
        for bits in 0..(1u64 << depth) as u32 {
            let bucket = BucketId::new(bits, depth);
            let partition = partitions[(bits as usize) % partitions.len()];
            assignment.insert(bucket, partition);
        }
        Ok(GlobalDirectory::with_assignment(assignment))
    }

    /// Builds a directory from an explicit assignment.
    pub fn from_assignment(
        assignment: impl IntoIterator<Item = (BucketId, PartitionId)>,
    ) -> Result<Self> {
        let dir = GlobalDirectory::with_assignment(assignment.into_iter().collect());
        dir.check_consistency()?;
        Ok(dir)
    }

    /// Checks that no bucket covers another, on a freshly rebuilt slot
    /// array: two overlapping buckets wrote shared slots, and the one written
    /// first finds the other in its lattice. One walk of about `2^D` slots.
    fn check_consistency(&self) -> Result<()> {
        for a in self.assignment.keys() {
            let foreign = self
                .slots
                .lattice(a)
                .find_map(|s| s.filter(|(b, _)| b != a));
            if let Some((b, _)) = foreign {
                return Err(CoreError::InconsistentDirectory(format!(
                    "buckets {a} and {b} overlap"
                )));
            }
        }
        Ok(())
    }

    /// The global depth `D`: the maximum bucket depth. Cached by the slot
    /// array and maintained incrementally (no key scan).
    pub fn global_depth(&self) -> u8 {
        self.slots.depth()
    }

    /// Number of directory slots, `2^D`.
    pub fn num_slots(&self) -> u64 {
        self.slots.num_slots() as u64
    }

    /// Number of distinct buckets.
    pub fn num_buckets(&self) -> usize {
        self.assignment.len()
    }

    /// Looks up the bucket and partition for a hash value: one slot-array
    /// probe on the hash's low-order `D` bits, independent of the number of
    /// buckets.
    pub fn lookup_hash(&self, hash: u64) -> Option<(BucketId, PartitionId)> {
        self.slots.lookup(hash)
    }

    /// Looks up the bucket and partition for a key.
    pub fn lookup_key(&self, key: &Key) -> Option<(BucketId, PartitionId)> {
        self.lookup_hash(hash_key(key))
    }

    /// The partition a bucket is assigned to.
    ///
    /// Exact match first; otherwise the covering ancestor is resolved through
    /// the slot array (the CC may still hold the unsplit parent of a locally
    /// split bucket): any of the bucket's slots points either at that
    /// ancestor or at an unrelated bucket, so one probe plus one `covers`
    /// check replaces the old O(#buckets) ancestor scan.
    pub fn partition_of_bucket(&self, bucket: &BucketId) -> Option<PartitionId> {
        if let Some(p) = self.assignment.get(bucket) {
            return Some(*p);
        }
        match self.slots.probe_bits(bucket.bits) {
            Some((owner, p)) if owner.covers(bucket) => Some(p),
            _ => None,
        }
    }

    /// All buckets assigned to a partition.
    pub fn buckets_of_partition(&self, partition: PartitionId) -> Vec<BucketId> {
        self.assignment
            .iter()
            .filter(|(_, p)| **p == partition)
            .map(|(b, _)| *b)
            .collect()
    }

    /// All distinct partitions referenced by the directory.
    pub fn partitions(&self) -> Vec<PartitionId> {
        let mut v: Vec<PartitionId> = self.assignment.values().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Iterates (bucket, partition) pairs in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (BucketId, PartitionId)> + '_ {
        self.assignment.iter().map(|(b, p)| (*b, *p))
    }

    /// The normalized size of a partition: the sum of `2^(D-d)` over its
    /// buckets (Section V-A). Partitions with no buckets have load 0.
    pub fn partition_load(&self, partition: PartitionId) -> u64 {
        let d = self.global_depth();
        self.assignment
            .iter()
            .filter(|(_, p)| **p == partition)
            .map(|(b, _)| b.normalized_size(d))
            .sum()
    }

    /// Refreshes the directory from the partitions' local directories
    /// (the initialization phase of a rebalance: the CC contacts all NCs to
    /// get their latest local directories). Each entry of `local_views` is a
    /// partition and the buckets its local directory currently holds; the
    /// refreshed directory keeps each bucket assigned to the partition that
    /// reported it.
    pub fn refresh_from_locals(
        local_views: impl IntoIterator<Item = (PartitionId, Vec<BucketId>)>,
    ) -> Result<GlobalDirectory> {
        let mut assignment = BTreeMap::new();
        for (partition, buckets) in local_views {
            for b in buckets {
                if assignment.insert(b, partition).is_some() {
                    return Err(CoreError::InconsistentDirectory(format!(
                        "bucket {b} reported by two partitions"
                    )));
                }
            }
        }
        let dir = GlobalDirectory::with_assignment(assignment);
        dir.check_consistency()?;
        Ok(dir)
    }

    // ------------------------------------------------- versioned mutations

    /// The directory version. Bumped by every mutation; cached client
    /// snapshots carry the version they were taken at.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn push_change(&mut self, bucket: BucketId, to: Option<PartitionId>) {
        self.log.push_back((self.version, bucket, to));
        while self.log.len() > MAX_CHANGE_LOG {
            if let Some((v, _, _)) = self.log.pop_front() {
                // Changes up to and including version `v` may now be missing
                // from the log, so `v` is the oldest base a delta can serve.
                self.oldest_delta_base = self.oldest_delta_base.max(v);
            }
        }
    }

    /// Reassigns a bucket to a new partition (used when applying a rebalance
    /// plan at commit time). Bumps the version when the ownership actually
    /// changes; a no-op reassignment leaves the version untouched so clients
    /// are not forced through spurious refreshes.
    pub fn reassign(&mut self, bucket: BucketId, to: PartitionId) {
        if self.assignment.get(&bucket) == Some(&to) {
            return;
        }
        self.insert_bucket(bucket, to);
        self.version += 1;
        self.push_change(bucket, Some(to));
    }

    /// Removes a bucket from the directory, bumping the version.
    ///
    /// Removal *must* bump: before versioning, `remove` and
    /// `refresh_from_locals` could silently diverge — a bucket dropped
    /// mid-refresh left the directory with a different assignment under what
    /// looked like the same routing state, so cached clients had no way to
    /// notice (see the `removal_bumps_version_*` regression test).
    pub fn remove(&mut self, bucket: &BucketId) -> Option<PartitionId> {
        let removed = self.remove_bucket(bucket);
        if removed.is_some() {
            self.version += 1;
            self.push_change(*bucket, None);
        }
        removed
    }

    /// Replaces this directory's assignment with `new`'s, recording the
    /// per-bucket differences in the change log under a single version bump.
    /// Used by the rebalance commit (installing the planned directory) and by
    /// the initialization-phase refresh (absorbing local bucket splits).
    /// Leaves the version untouched when nothing changed.
    ///
    /// Only the differing buckets' slot lattices are rewritten: removals are
    /// applied first (a split's parent vanishes before its children land, a
    /// merge's children before the parent), so the slot array transitions
    /// through disjoint intermediate states and never needs a full rebuild.
    pub fn install(&mut self, new: &GlobalDirectory) {
        let mut changes: Vec<(BucketId, Option<PartitionId>)> = Vec::new();
        for bucket in self.assignment.keys() {
            if !new.assignment.contains_key(bucket) {
                changes.push((*bucket, None));
            }
        }
        for (bucket, partition) in &new.assignment {
            if self.assignment.get(bucket) != Some(partition) {
                changes.push((*bucket, Some(*partition)));
            }
        }
        if changes.is_empty() {
            return;
        }
        self.version += 1;
        for (bucket, to) in changes {
            match to {
                Some(p) => {
                    self.insert_bucket(bucket, p);
                }
                None => {
                    self.remove_bucket(&bucket);
                }
            }
            self.push_change(bucket, to);
        }
    }

    /// Refreshes this directory in place from the partitions' local
    /// directories, bumping the version if any bucket changed (a split
    /// replaced a parent with its children, a bucket moved, or one vanished).
    pub fn refresh(
        &mut self,
        local_views: impl IntoIterator<Item = (PartitionId, Vec<BucketId>)>,
    ) -> Result<()> {
        let fresh = GlobalDirectory::refresh_from_locals(local_views)?;
        self.install(&fresh);
        Ok(())
    }

    /// The changes needed to bring a snapshot taken at `since` up to the
    /// current version, or `None` when the change log no longer reaches back
    /// that far (the client must take a full snapshot instead). A client that
    /// is already current gets an empty delta.
    pub fn delta_since(&self, since: u64) -> Option<DirectoryDelta> {
        if since > self.version || since < self.oldest_delta_base {
            return None;
        }
        // Later entries supersede earlier ones for the same bucket.
        let mut latest: BTreeMap<BucketId, Option<PartitionId>> = BTreeMap::new();
        for (v, bucket, to) in &self.log {
            if *v > since {
                latest.insert(*bucket, *to);
            }
        }
        Some(DirectoryDelta {
            from_version: since,
            to_version: self.version,
            changes: latest.into_iter().collect(),
        })
    }

    /// Applies a delta produced by [`GlobalDirectory::delta_since`] to this
    /// (cached) directory, bringing it to the delta's target version. Errors
    /// if the delta does not start at this directory's version.
    ///
    /// Like [`GlobalDirectory::install`], catch-up is incremental: removals
    /// first, then assignments, each rewriting only its own slot lattice —
    /// a stale cache never rebuilds its whole slot array.
    pub fn apply_delta(&mut self, delta: &DirectoryDelta) -> Result<()> {
        if delta.from_version != self.version {
            return Err(CoreError::InconsistentDirectory(format!(
                "delta starts at version {} but the cached directory is at {}",
                delta.from_version, self.version
            )));
        }
        for (bucket, to) in &delta.changes {
            if to.is_none() {
                self.remove_bucket(bucket);
            }
        }
        for (bucket, to) in &delta.changes {
            if let Some(p) = to {
                self.insert_bucket(*bucket, *p);
            }
        }
        self.version = delta.to_version;
        Ok(())
    }

    /// The total number of hash-space slots (at global depth) covered — used
    /// by property tests to check full coverage: must equal `2^D`.
    pub fn covered_slots(&self) -> u64 {
        let d = self.global_depth();
        self.assignment.keys().map(|b| b.normalized_size(d)).sum()
    }

    /// True if every hash value maps to exactly one bucket.
    pub fn covers_full_space(&self) -> bool {
        !self.assignment.is_empty() && self.covered_slots() == self.num_slots()
    }

    /// Cheap structural self-check: full hash-space coverage plus agreement
    /// between the O(1) slot array and the assignment map — every slot must
    /// resolve to a bucket that covers it and is assigned to the partition
    /// the slot reports. `O(2^D + #buckets)`, no record scans, so soak
    /// harnesses can run it *continuously between steps* (the full
    /// route-every-record integrity check stays reserved for rebalance
    /// boundaries).
    pub fn check_invariants(&self) -> Result<()> {
        if !self.covers_full_space() {
            return Err(CoreError::InconsistentDirectory(format!(
                "directory covers {}/{} slots",
                self.covered_slots(),
                self.num_slots()
            )));
        }
        for slot in 0..self.num_slots() {
            let Some((bucket, partition)) = self.lookup_hash(slot) else {
                return Err(CoreError::InconsistentDirectory(format!(
                    "slot {slot:#x} resolves to no bucket"
                )));
            };
            let mask = (1u64 << bucket.depth) - 1;
            if u64::from(bucket.bits) != slot & mask {
                return Err(CoreError::InconsistentDirectory(format!(
                    "slot {slot:#x} resolves to non-covering bucket {bucket}"
                )));
            }
            if self.assignment.get(&bucket) != Some(&partition) {
                return Err(CoreError::InconsistentDirectory(format!(
                    "slot {slot:#x} maps {bucket} to {partition:?} but the \
                     assignment disagrees"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynahash_lsm::rng::SplitMix64;

    fn parts(n: u32) -> Vec<PartitionId> {
        (0..n).map(PartitionId).collect()
    }

    #[test]
    fn initial_directory_covers_space_and_balances() {
        let dir = GlobalDirectory::initial(4, &parts(4)).unwrap();
        assert_eq!(dir.num_buckets(), 16);
        assert_eq!(dir.global_depth(), 4);
        assert!(dir.covers_full_space());
        for p in parts(4) {
            assert_eq!(dir.buckets_of_partition(p).len(), 4);
            assert_eq!(dir.partition_load(p), 4);
        }
    }

    #[test]
    fn initial_requires_partitions() {
        assert!(matches!(
            GlobalDirectory::initial(4, &[]),
            Err(CoreError::EmptyTopology)
        ));
    }

    #[test]
    fn lookup_routes_keys_to_owning_bucket() {
        let dir = GlobalDirectory::initial(3, &parts(2)).unwrap();
        for i in 0..1000u64 {
            let k = Key::from_u64(i);
            let (b, p) = dir.lookup_key(&k).unwrap();
            assert!(b.contains_key(&k));
            assert_eq!(dir.partition_of_bucket(&b), Some(p));
        }
    }

    #[test]
    fn stale_directory_still_routes_split_buckets() {
        // CC holds bucket 00 (depth 2); locally it split into 000 and 100.
        let dir = GlobalDirectory::initial(2, &parts(2)).unwrap();
        let child = BucketId::new(0b100, 3);
        // partition_of_bucket falls back to the covering ancestor
        let p = dir.partition_of_bucket(&child).unwrap();
        assert_eq!(p, dir.partition_of_bucket(&BucketId::new(0, 2)).unwrap());
    }

    #[test]
    fn refresh_from_locals_rejects_duplicates() {
        let err = GlobalDirectory::refresh_from_locals(vec![
            (PartitionId(0), vec![BucketId::new(0, 1)]),
            (PartitionId(1), vec![BucketId::new(0, 1)]),
        ]);
        assert!(err.is_err());
        let err2 = GlobalDirectory::refresh_from_locals(vec![
            (PartitionId(0), vec![BucketId::new(0, 1)]),
            (PartitionId(1), vec![BucketId::new(0, 2)]),
        ]);
        assert!(err2.is_err(), "overlapping buckets must be rejected");
        // 128 buckets of depth 7, plus a depth-9 bucket under bucket 0b1000101:
        // the two are not neighbours in bucket order, and the error names both
        let mut views: Vec<(PartitionId, Vec<BucketId>)> = (0..4u32)
            .map(|p| {
                let buckets = (0..128).filter(|b| b % 4 == p).map(|b| BucketId::new(b, 7));
                (PartitionId(p), buckets.collect())
            })
            .collect();
        let deep = BucketId::new(0b10_1000101, 9);
        views[3].1.push(deep);
        let assignment: Vec<(BucketId, PartitionId)> = views
            .iter()
            .flat_map(|(p, bs)| bs.iter().map(move |b| (*b, *p)))
            .collect();
        let shallow = BucketId::new(0b1000101, 7).to_string();
        let refreshed = GlobalDirectory::refresh_from_locals(views).map(|_| ());
        let built = GlobalDirectory::from_assignment(assignment).map(|_| ());
        for err in [refreshed, built] {
            match err {
                Err(CoreError::InconsistentDirectory(msg)) => assert!(
                    msg.contains(&shallow) && msg.contains(&deep.to_string()),
                    "{msg}"
                ),
                other => panic!("overlap not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn refresh_from_locals_reflects_splits() {
        let dir = GlobalDirectory::refresh_from_locals(vec![
            (
                PartitionId(0),
                vec![BucketId::new(0b000, 3), BucketId::new(0b100, 3)],
            ),
            (PartitionId(1), vec![BucketId::new(0b01, 2)]),
            (PartitionId(2), vec![BucketId::new(0b10, 2)]),
            (PartitionId(3), vec![BucketId::new(0b11, 2)]),
        ])
        .unwrap();
        assert_eq!(dir.global_depth(), 3);
        assert!(dir.covers_full_space());
        assert_eq!(dir.partition_load(PartitionId(0)), 2);
        assert_eq!(dir.partition_load(PartitionId(1)), 2);
    }

    #[test]
    fn mixed_depth_loads_follow_normalized_sizes() {
        let dir = GlobalDirectory::from_assignment(vec![
            (BucketId::new(0, 1), PartitionId(0)),     // size 4 at D=3
            (BucketId::new(0b01, 2), PartitionId(1)),  // size 2
            (BucketId::new(0b011, 3), PartitionId(1)), // size 1
            (BucketId::new(0b111, 3), PartitionId(2)), // size 1
        ])
        .unwrap();
        assert_eq!(dir.global_depth(), 3);
        assert_eq!(dir.partition_load(PartitionId(0)), 4);
        assert_eq!(dir.partition_load(PartitionId(1)), 3);
        assert_eq!(dir.partition_load(PartitionId(2)), 1);
        assert!(dir.covers_full_space());
    }

    #[test]
    fn prop_initial_directories_route_every_key() {
        for case in 0..16u64 {
            let seed = 0x61d0_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let depth = rng.gen_range(0..8) as u8;
            let nparts = rng.gen_range(1..16) as u32;
            let nkeys = rng.gen_range(1..50) as usize;
            let dir = GlobalDirectory::initial(depth, &parts(nparts)).unwrap();
            assert!(
                dir.covers_full_space(),
                "seed {seed}: depth {depth}, {nparts} parts"
            );
            for _ in 0..nkeys {
                let key = Key::from_u64(rng.next_u64());
                assert!(
                    dir.lookup_key(&key).is_some(),
                    "seed {seed}: {key:?} unrouted"
                );
            }
        }
    }

    #[test]
    fn reassign_bumps_version_and_logs_the_change() {
        let mut dir = GlobalDirectory::initial(2, &parts(2)).unwrap();
        let v0 = dir.version();
        dir.reassign(BucketId::new(0, 2), PartitionId(1));
        assert_eq!(dir.version(), v0 + 1);
        // a no-op reassignment does not churn the version
        dir.reassign(BucketId::new(0, 2), PartitionId(1));
        assert_eq!(dir.version(), v0 + 1);
        let delta = dir.delta_since(v0).unwrap();
        assert_eq!(delta.to_version, v0 + 1);
        assert_eq!(
            delta.changes,
            vec![(BucketId::new(0, 2), Some(PartitionId(1)))]
        );
    }

    /// Regression: `remove` used to leave the version untouched, so a
    /// directory that dropped a bucket mid-refresh (e.g. a split parent
    /// superseded by its children) was indistinguishable from the unchanged
    /// one — cached clients kept routing through the removed bucket with no
    /// way to detect the divergence from a refreshed copy.
    #[test]
    fn removal_bumps_version_and_appears_in_deltas() {
        let mut dir = GlobalDirectory::initial(2, &parts(2)).unwrap();
        let v0 = dir.version();
        let parent = BucketId::new(0, 2);
        assert_eq!(dir.remove(&parent), Some(PartitionId(0)));
        assert!(
            dir.version() > v0,
            "removing a bucket must bump the version"
        );
        // removing a bucket that is not there is a no-op
        let v1 = dir.version();
        assert_eq!(dir.remove(&parent), None);
        assert_eq!(dir.version(), v1);
        // the removal is visible to delta catch-up, so a cached client
        // converges to the same assignment instead of silently diverging
        let mut cached = GlobalDirectory::initial(2, &parts(2)).unwrap();
        cached.apply_delta(&dir.delta_since(v0).unwrap()).unwrap();
        assert_eq!(cached, dir);
        assert_eq!(cached.version(), dir.version());
        // ...and refresh-from-locals of the same post-removal state agrees
        let refreshed =
            GlobalDirectory::refresh_from_locals(dir.iter().map(|(b, p)| (p, vec![b])).fold(
                std::collections::BTreeMap::<PartitionId, Vec<BucketId>>::new(),
                |mut acc, (p, bs)| {
                    acc.entry(p).or_default().extend(bs);
                    acc
                },
            ))
            .unwrap();
        assert_eq!(refreshed, dir);
    }

    #[test]
    fn install_diffs_and_delta_catches_a_stale_snapshot_up() {
        let mut dir = GlobalDirectory::initial(2, &parts(2)).unwrap();
        let snapshot = dir.clone();
        let v0 = dir.version();
        // absorb a local split of bucket 00 and move bucket 01
        let mut fresh = dir.clone();
        fresh.remove(&BucketId::new(0b00, 2));
        fresh.reassign(BucketId::new(0b000, 3), PartitionId(0));
        fresh.reassign(BucketId::new(0b100, 3), PartitionId(0));
        fresh.reassign(BucketId::new(0b01, 2), PartitionId(0));
        dir.install(&fresh);
        assert_eq!(dir.version(), v0 + 1, "install bumps once");
        assert!(dir.covers_full_space());
        // installing the same assignment again is a no-op
        dir.install(&fresh);
        assert_eq!(dir.version(), v0 + 1);

        let delta = dir.delta_since(snapshot.version()).unwrap();
        assert_eq!(delta.changes.len(), 4);
        let mut cached = snapshot;
        cached.apply_delta(&delta).unwrap();
        assert_eq!(cached, dir);
        assert_eq!(cached.version(), dir.version());
        // a delta from the wrong base is rejected
        let bad = dir.delta_since(dir.version()).unwrap();
        assert!(bad.is_empty());
        let mut stale = GlobalDirectory::initial(2, &parts(2)).unwrap();
        assert!(stale.apply_delta(&delta).is_ok() || delta.from_version != stale.version());
    }

    #[test]
    fn delta_since_refuses_versions_outside_the_log() {
        let mut dir = GlobalDirectory::initial(1, &parts(2)).unwrap();
        // ahead of the server: impossible to serve
        assert!(dir.delta_since(dir.version() + 1).is_none());
        // push enough changes to truncate the log
        for i in 0..(super::MAX_CHANGE_LOG as u32 + 50) {
            let p = PartitionId(i % 2);
            let other = PartitionId((i + 1) % 2);
            dir.reassign(BucketId::new(0, 1), p);
            dir.reassign(BucketId::new(1, 1), other);
        }
        assert!(
            dir.delta_since(1).is_none(),
            "truncated history must force a full refresh"
        );
        assert!(dir.delta_since(dir.version()).is_some());
    }

    #[test]
    fn refresh_in_place_bumps_only_on_change() {
        let mut dir = GlobalDirectory::initial(2, &parts(2)).unwrap();
        let v0 = dir.version();
        // identical local views: no version churn
        let same: Vec<(PartitionId, Vec<BucketId>)> = (0..2)
            .map(|p| (PartitionId(p), dir.buckets_of_partition(PartitionId(p))))
            .collect();
        dir.refresh(same).unwrap();
        assert_eq!(dir.version(), v0);
        // partition 0's bucket 00 split locally into 000/100
        let split: Vec<(PartitionId, Vec<BucketId>)> = vec![
            (
                PartitionId(0),
                vec![
                    BucketId::new(0b000, 3),
                    BucketId::new(0b100, 3),
                    BucketId::new(0b10, 2),
                ],
            ),
            (
                PartitionId(1),
                vec![BucketId::new(0b01, 2), BucketId::new(0b11, 2)],
            ),
        ];
        dir.refresh(split).unwrap();
        assert_eq!(dir.version(), v0 + 1);
        assert!(dir.covers_full_space());
        assert_eq!(dir.global_depth(), 3);
    }

    #[test]
    fn check_invariants_accepts_healthy_and_rejects_gaps() {
        let mut dir = GlobalDirectory::initial(3, &parts(3)).unwrap();
        dir.check_invariants().unwrap();
        // Splits and moves keep the invariants.
        dir.remove(&BucketId::new(0b000, 3));
        assert!(dir.check_invariants().is_err(), "uncovered slot accepted");
        dir.reassign(BucketId::new(0b0000, 4), PartitionId(0));
        dir.reassign(BucketId::new(0b1000, 4), PartitionId(2));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn prop_partition_loads_sum_to_slots() {
        for case in 0..16u64 {
            let seed = 0x61d1_0000 + case;
            let mut rng = SplitMix64::seed_from_u64(seed);
            let depth = rng.gen_range(0..8) as u8;
            let nparts = rng.gen_range(1..16) as u32;
            let dir = GlobalDirectory::initial(depth, &parts(nparts)).unwrap();
            let total: u64 = parts(nparts).iter().map(|p| dir.partition_load(*p)).sum();
            assert_eq!(
                total,
                dir.num_slots(),
                "seed {seed}: depth {depth}, {nparts} parts"
            );
        }
    }
}
