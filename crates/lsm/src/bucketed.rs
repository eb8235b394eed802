//! The bucketed LSM-tree used for primary indexes (Section IV).
//!
//! Each extendible-hashing bucket is stored as a separate LSM-tree (storage
//! Option 3 of the paper): moving a bucket during a rebalance only touches
//! that bucket's components, and splitting/dropping buckets is cheap.
//!
//! The tree's bucket map is the partition's local directory (Section III):
//! buckets may be split locally without notifying the Cluster Controller, so
//! it is the source of truth for which buckets exist at a partition and which
//! bucket a key belongs to. Like the CC's global directory, lookups go
//! through a [`SlotArray`] indexed by the `D` low-order hash bits (`D` = the
//! partition's local depth), so routing a write or validating a session
//! route is one probe. A partition owns only part of the hash space, so
//! slots outside its buckets are empty.
//!
//! Writes arrive with their keys' hashes and the buckets the writer found
//! them in ([`BucketedLsmTree::apply_routed`]): a stretch of writes to one
//! bucket resolves the bucket's tree once, and the split check after each
//! write reads the tree's kept logical size instead of walking its
//! components. A split builds both children's reference components in one
//! pass over each parent component (`Component::split`).
//!
//! The type also implements the destination-side machinery of the rebalance
//! data-movement phase: *pending* (received) buckets hold the shipped (or
//! feed-built) components plus replicated writes and stay invisible to
//! queries until the rebalance commits.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bucket::{hash_key, BucketId};
use crate::component::{Component, ComponentSource};
use crate::entry::{Entry, Key, Op, Value};
use crate::iterator::MergeIter;
use crate::metrics::StorageMetrics;
use crate::slots::SlotArray;
use crate::tree::{LsmConfig, LsmTree};
use crate::{Result, StorageError};

/// Configuration of a bucketed LSM-tree.
#[derive(Clone, Debug)]
pub struct BucketedConfig {
    /// Per-bucket LSM configuration.
    pub lsm: LsmConfig,
    /// Maximum bucket size in bytes before the bucket is split (DynaHash).
    /// `None` disables dynamic splitting (StaticHash behaviour).
    pub max_bucket_size_bytes: Option<usize>,
    /// Hard cap on bucket depth: a bucket this deep never splits.
    pub max_depth: u8,
}

impl Default for BucketedConfig {
    fn default() -> Self {
        BucketedConfig {
            lsm: LsmConfig::default(),
            max_bucket_size_bytes: None,
            max_depth: 20,
        }
    }
}

/// How a primary-key range scan over all buckets should be executed
/// (Section IV, "Data Ingestion and Query Processing").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanOrder {
    /// Scan each bucket separately; results are not globally key-ordered.
    /// This is the default because it avoids the merge-sort overhead.
    Unordered,
    /// One merge over every bucket's memory and disk components at once, so
    /// the output is ordered by primary key (needed when a downstream
    /// operator requires primary-key order, e.g. TPC-H q18's group-by on a
    /// key prefix) — not a merge of per-bucket merges.
    Ordered,
}

/// A primary index whose buckets are separate LSM-trees.
///
/// Invariant: no bucket covers another (buckets are disjoint regions of the
/// hash space), and `slots` routes every hash a bucket covers to it.
#[derive(Debug)]
pub struct BucketedLsmTree {
    config: BucketedConfig,
    buckets: BTreeMap<BucketId, LsmTree>,
    /// Slot array over the low-order local-depth hash bits; `None` marks
    /// hash ranges this partition does not own.
    slots: SlotArray<BucketId>,
    /// Received buckets (rebalance destination), invisible to queries.
    pending: BTreeMap<BucketId, LsmTree>,
    metrics: Arc<StorageMetrics>,
    splits_enabled: bool,
}

impl BucketedLsmTree {
    /// Creates a bucketed tree owning the given initial buckets.
    pub fn new(
        config: BucketedConfig,
        initial_buckets: impl IntoIterator<Item = BucketId>,
        metrics: Arc<StorageMetrics>,
    ) -> Self {
        let mut tree = BucketedLsmTree {
            config,
            buckets: BTreeMap::new(),
            slots: SlotArray::new(),
            pending: BTreeMap::new(),
            metrics,
            splits_enabled: true,
        };
        for b in initial_buckets {
            let added = tree.add_bucket(b, tree.new_tree());
            #[expect(
                clippy::expect_used,
                reason = "constructor contract: initial buckets are disjoint"
            )]
            added.expect("initial buckets must not overlap");
        }
        tree
    }

    fn new_tree(&self) -> LsmTree {
        LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics))
    }

    /// The shared metrics instance.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &BucketedConfig {
        &self.config
    }

    /// Buckets owned by this partition (visible to queries), in sorted order.
    pub fn bucket_ids(&self) -> Vec<BucketId> {
        self.buckets.keys().copied().collect()
    }

    /// True if the exact bucket is owned here (pending buckets are not).
    pub fn owns(&self, bucket: &BucketId) -> bool {
        self.buckets.contains_key(bucket)
    }

    /// The owned bucket (if any) a hash value falls into: one slot probe.
    pub fn bucket_of_hash(&self, hash: u64) -> Option<BucketId> {
        self.slots.lookup(hash)
    }

    /// The maximum depth among the owned buckets (the partition's local
    /// depth), cached by the slot array.
    pub fn local_depth(&self) -> u8 {
        self.slots.depth()
    }

    /// Registers a bucket and its tree, rejecting overlaps with owned
    /// buckets. The check probes the new bucket's slot lattice instead of
    /// scanning the bucket set: two buckets overlap exactly when one covers
    /// the other, which surfaces as an occupied slot in the lattice.
    fn add_bucket(&mut self, bucket: BucketId, tree: LsmTree) -> Result<()> {
        if self.slots.lattice_occupied(&bucket) {
            return Err(StorageError::BucketExists(bucket));
        }
        self.buckets.insert(bucket, tree);
        self.slots.insert(bucket, bucket);
        self.debug_validate_slots();
        Ok(())
    }

    /// Unregisters a bucket, returning its tree if it was owned.
    fn remove_bucket(&mut self, bucket: &BucketId) -> Option<LsmTree> {
        let tree = self.buckets.remove(bucket)?;
        self.slots.remove(*bucket, |b| b == bucket);
        self.debug_validate_slots();
        Some(tree)
    }

    #[inline]
    fn debug_validate_slots(&self) {
        #[cfg(debug_assertions)]
        {
            let recomputed = self.buckets.keys().map(|b| b.depth).max().unwrap_or(0);
            self.slots.debug_validate(recomputed);
        }
    }

    /// Number of visible buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Pending (received but not yet installed) bucket ids.
    pub fn pending_bucket_ids(&self) -> Vec<BucketId> {
        self.pending.keys().copied().collect()
    }

    // ----------------------------------------------------------------- writes

    /// Routes a write to the bucket owning the key. Errors if this partition
    /// does not own a bucket for the key (a routing bug upstream).
    pub fn insert(&mut self, key: impl Into<Key>, value: impl Into<Value>) -> Result<()> {
        self.apply(Entry::put(key, value))
    }

    /// Deletes a key.
    pub fn delete(&mut self, key: impl Into<Key>) -> Result<()> {
        self.apply(Entry::delete(key))
    }

    /// Applies an entry to the owning bucket and splits the bucket afterwards
    /// if it exceeded its maximum size.
    pub fn apply(&mut self, entry: Entry) -> Result<()> {
        let hash = hash_key(&entry.key);
        let bucket = (self.bucket_of_hash(hash))
            .ok_or(StorageError::UnknownBucket(BucketId::of_hash(hash, 0)))?;
        self.apply_routed([(entry, hash, bucket)], |_| {})
    }

    /// Applies writes in order, each beside its key's `hash_key` and the
    /// owned bucket the caller found for it ([`BucketedLsmTree::bucket_of_hash`]),
    /// splitting a bucket as soon as a write takes it past its maximum size:
    /// every bucket's tree sees what applying the writes one by one would
    /// show it. A stretch of writes to one bucket resolves the bucket's tree
    /// once, so a writer that groups its writes by bucket (batch order kept
    /// within each) pays one tree lookup per bucket; the split check after
    /// each write is O(1) ([`LsmTree::logical_size_bytes`]). Once a split
    /// has replaced a bucket, the rest of the writes find theirs again by
    /// hash. `noted` hears the bucket each write goes to.
    pub fn apply_routed(
        &mut self,
        writes: impl IntoIterator<Item = (Entry, u64, BucketId)>,
        mut noted: impl FnMut(BucketId),
    ) -> Result<()> {
        let mut writes = writes.into_iter().peekable();
        let mut split = false;
        while let Some(&(_, hash, routed)) = writes.peek() {
            let bucket = match split {
                false => routed,
                true => (self.bucket_of_hash(hash))
                    .ok_or(StorageError::UnknownBucket(BucketId::of_hash(hash, 0)))?,
            };
            let limit = self.split_limit(bucket);
            let tree =
                (self.buckets.get_mut(&bucket)).ok_or(StorageError::UnknownBucket(bucket))?;
            let mut due = false;
            while let Some((entry, hash, _)) = writes.next_if(|(_, h, _)| bucket.contains_hash(*h))
            {
                noted(bucket);
                tree.apply_hashed(entry, hash);
                due = limit.is_some_and(|max| tree.logical_size_bytes() > max);
                if due {
                    break;
                }
            }
            if due {
                self.maybe_split(bucket)?;
                split = true;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------ reads

    /// Point lookup: only the target bucket (located by one slot probe) is
    /// searched.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.get_ref(key).cloned()
    }

    /// [`BucketedLsmTree::get`] that lends the payload instead of sharing it.
    /// The key is hashed once, for the slot probe and for every filter of
    /// the bucket's tree.
    pub fn get_ref(&self, key: &Key) -> Option<&Value> {
        let hash = hash_key(key);
        let bucket = self.bucket_of_hash(hash)?;
        self.buckets.get(&bucket)?.get_ref_hashed(key, hash)
    }

    /// Full scan of all buckets.
    ///
    /// * [`ScanOrder::Unordered`] concatenates per-bucket scans (each bucket
    ///   internally ordered).
    /// * [`ScanOrder::Ordered`] merges every bucket's components at once.
    pub fn scan(&self, order: ScanOrder) -> Vec<Entry> {
        self.scan_range(None, None, order)
    }

    /// Range scan over `[lo, hi)` in the requested order handing every live
    /// entry, still borrowed from its component, to `visit`: one pass, nothing
    /// materialised here. The unordered path merges bucket after bucket; the
    /// ordered one is a single merge over every bucket's sources at once —
    /// bucket key sets are disjoint, so only one bucket's sources can hold
    /// the same key, and they sit side by side, newest first. Charges the
    /// bytes visited to the query-read metric and returns them.
    pub fn scan_with(
        &self,
        lo: Option<&Key>,
        hi: Option<&Key>,
        order: ScanOrder,
        mut visit: impl FnMut(&Key, &Op),
    ) -> u64 {
        let trees = self.buckets.values();
        let bytes = match order {
            ScanOrder::Unordered => trees
                .map(|tree| tree.iter_live(lo, hi).visit_all(&mut visit))
                .sum(),
            ScanOrder::Ordered => {
                let mut cursors = Vec::new();
                trees.for_each(|tree| tree.push_cursors(lo, hi, &mut cursors));
                MergeIter::new(cursors, false).visit_all(visit)
            }
        };
        StorageMetrics::add(&self.metrics.bytes_query_read, bytes);
        bytes
    }

    /// Range scan over `[lo, hi)` with the requested output order, the
    /// output materialised exactly once (a full scan reserves it up front).
    pub fn scan_range(&self, lo: Option<&Key>, hi: Option<&Key>, order: ScanOrder) -> Vec<Entry> {
        let full = lo.is_none() && hi.is_none();
        let mut out = Vec::with_capacity(if full { self.visible_len() } else { 0 });
        self.scan_with(lo, hi, order, |key, op| {
            out.push(Entry::from_parts(key, op))
        });
        out
    }

    /// Entries a full scan has to look at — everything buffered plus every
    /// component's visible entries: an O(components) upper bound on the live
    /// records (each version of a key counts, tombstones too).
    pub fn visible_len(&self) -> usize {
        let trees = || self.buckets.values();
        let buffered: usize = trees().map(|t| t.memtable().len()).sum();
        let on_disk: usize = trees()
            .flat_map(|t| t.components())
            .map(|c| c.visible_len())
            .sum();
        buffered + on_disk
    }

    /// Total number of live records across all visible buckets.
    pub fn live_len(&self) -> usize {
        self.buckets.values().map(|t| t.live_len()).sum()
    }

    /// Total number of disk components across visible buckets (the quantity
    /// that grows after splits and drives merge-sort overhead for ordered
    /// scans).
    pub fn num_components(&self) -> usize {
        self.buckets.values().map(|t| t.num_components()).sum()
    }

    /// Per-bucket logical sizes in bytes (memtable + visible disk data).
    pub fn bucket_sizes(&self) -> Vec<(BucketId, usize)> {
        self.buckets
            .iter()
            .map(|(b, t)| (*b, t.logical_size_bytes()))
            .collect()
    }

    /// Total storage bytes across visible buckets.
    pub fn storage_bytes(&self) -> usize {
        self.buckets.values().map(|t| t.storage_bytes()).sum()
    }

    /// Total logical bytes across visible buckets (reference components count
    /// their visible share; used by balancing and split decisions).
    pub fn logical_size_bytes(&self) -> usize {
        self.buckets.values().map(|t| t.logical_size_bytes()).sum()
    }

    // ------------------------------------------------------- flush/merge/split

    /// Flushes every bucket's memory component.
    pub fn flush_all(&mut self) {
        for tree in self.buckets.values_mut() {
            tree.flush();
        }
    }

    /// Runs the merge policy in every bucket. Returns total merges performed.
    pub fn run_merges(&mut self) -> usize {
        self.buckets.values_mut().map(|t| t.run_merges()).sum()
    }

    /// Enables or disables dynamic bucket splits (splits are disabled for the
    /// duration of a rebalance, Section V-A).
    pub fn set_splits_enabled(&mut self, enabled: bool) {
        self.splits_enabled = enabled;
    }

    /// True if dynamic splits are currently enabled.
    pub fn splits_enabled(&self) -> bool {
        self.splits_enabled
    }

    /// The size past which `bucket` splits, while it may split: splits are
    /// enabled, the dataset splits dynamically, and the bucket is shallower
    /// than the depth cap.
    fn split_limit(&self, bucket: BucketId) -> Option<usize> {
        let max = self.config.max_bucket_size_bytes?;
        (self.splits_enabled && bucket.depth < self.config.max_depth).then_some(max)
    }

    fn maybe_split(&mut self, bucket: BucketId) -> Result<()> {
        // A single write can at most trigger one split of its own bucket, but
        // the children may immediately exceed the limit under heavy skew, so
        // loop until the owning bucket is within bounds or at max depth.
        let mut current = bucket;
        loop {
            let Some(max) = self.split_limit(current) else {
                return Ok(());
            };
            let size = match self.buckets.get(&current) {
                Some(t) => t.logical_size_bytes(),
                None => return Ok(()),
            };
            if size <= max {
                return Ok(());
            }
            let (lo, hi) = self.split_bucket(current)?;
            // Continue with whichever child is larger.
            let lo_size = self
                .buckets
                .get(&lo)
                .map(|t| t.logical_size_bytes())
                .unwrap_or(0);
            let hi_size = self
                .buckets
                .get(&hi)
                .map(|t| t.logical_size_bytes())
                .unwrap_or(0);
            current = if lo_size >= hi_size { lo } else { hi };
        }
    }

    /// Splits a bucket into its two children following Algorithm 1:
    ///
    /// 1. pause merges and flush the bucket's memory component,
    /// 2. create two child buckets whose disk components are *reference
    ///    components* pointing at the parent's components (one pass over
    ///    each parent component records which entries each child shows),
    /// 3. replace the parent by its children in the bucket map (the metadata
    ///    force-to-disk of the paper).
    ///
    /// The data rewrite is postponed to the children's next merges.
    pub fn split_bucket(&mut self, bucket: BucketId) -> Result<(BucketId, BucketId)> {
        if !self.splits_enabled {
            return Err(StorageError::SplitsDisabled);
        }
        if bucket.depth >= self.config.max_depth {
            return Err(StorageError::MaxDepthReached(bucket));
        }
        let mut parent = self
            .remove_bucket(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        // Algorithm 1, lines 3-7: stop merges, flush the memory component so
        // that all data lives in immutable disk components.
        parent.pause_merges();
        parent.flush();
        let (lo, hi) = bucket.split();
        let mut lo_tree = self.new_tree();
        let mut hi_tree = self.new_tree();
        // One pass per parent component builds both children's views.
        let (lo_comps, hi_comps): (Vec<Component>, Vec<Component>) = (parent.components().iter())
            .map(|c| c.split(lo, hi))
            .unzip();
        lo_tree.set_components(lo_comps);
        hi_tree.set_components(hi_comps);
        // Line 9: force the directory metadata; in the simulation this is the
        // in-memory directory update, which is the recovery point. The parent
        // covered both children's hash ranges, so after its removal they
        // cannot overlap anything; propagate rather than panic if that
        // invariant is ever broken.
        self.add_bucket(lo, lo_tree)?;
        self.add_bucket(hi, hi_tree)?;
        StorageMetrics::add(&self.metrics.split_count, 1);
        Ok((lo, hi))
    }

    // ------------------------------------------------- rebalance source side

    /// Prepares a bucket for being moved: flushes its memory component so an
    /// immutable snapshot of all writes before the rebalance start exists
    /// ("the flush time is treated as the rebalance start time").
    /// Returns clones of the bucket's disk components.
    pub fn snapshot_bucket(&mut self, bucket: BucketId) -> Result<Vec<Component>> {
        let tree = self
            .buckets
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        tree.flush();
        Ok(tree.components().to_vec())
    }

    /// Scans all live records of a bucket (the source-side data movement
    /// read).
    pub fn scan_bucket(&self, bucket: BucketId) -> Result<Vec<Entry>> {
        let tree = self
            .buckets
            .get(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        Ok(tree.scan_all())
    }

    /// Ships a bucket as sealed components (Section IV: disk components are
    /// immutable, so moving a bucket is moving its component files). The
    /// bucket's memory component is flushed first, then every component is
    /// handed out as a cheap `Arc`-clone marked [`Component::is_shipped`] —
    /// Bloom filters, sorted runs, and the bucket filters splits left travel
    /// with the handle, and no filtered copy is made: every component of a
    /// bucket's tree already exposes only that bucket's entries. Components
    /// are returned newest first, the tree's own order.
    pub fn ship_bucket(&mut self, bucket: BucketId) -> Result<Vec<Component>> {
        let tree = self
            .buckets
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        tree.flush();
        let comps: Vec<Component> = tree
            .components()
            .iter()
            .map(|c| c.clone_shipped())
            .collect();
        let bytes: usize = comps.iter().map(|c| c.visible_size_bytes()).sum();
        StorageMetrics::add(&self.metrics.bytes_rebalance_shipped, bytes as u64);
        StorageMetrics::add(&self.metrics.components_shipped, comps.len() as u64);
        Ok(comps)
    }

    /// Drops a moved bucket after a committed rebalance: it is removed from
    /// the bucket map so new queries cannot see it. Idempotent: dropping a
    /// bucket not owned here is a no-op (Case 4). Reference counting (Arc)
    /// keeps the components alive for readers that still hold them.
    pub fn drop_bucket(&mut self, bucket: BucketId) -> Result<()> {
        self.remove_bucket(&bucket);
        Ok(())
    }

    // -------------------------------------------- rebalance destination side

    /// Registers a new pending (received) bucket at a destination partition.
    /// Pending buckets are invisible to queries until installed. Merges are
    /// paused on the pending tree until the install: the base components and
    /// the replicated-write flushes must survive as-is so
    /// recovery can tell a healthy pending bucket from one whose transfer a
    /// crash wiped ([`BucketedLsmTree::pending_has_base_data`]).
    pub fn create_pending_bucket(&mut self, bucket: BucketId) -> Result<()> {
        if self.pending.contains_key(&bucket) {
            return Err(StorageError::PendingBucketExists(bucket));
        }
        let mut tree = self.new_tree();
        tree.pause_merges();
        self.pending.insert(bucket, tree);
        Ok(())
    }

    /// Installs a bucket's base data into its pending bucket: components
    /// shipped whole from a source partition, or the one component a repair
    /// builds from its feed. The handles are appended as the **oldest** data
    /// of the pending tree — replicated writes applied afterwards (or already
    /// sitting in the pending memory component) stay newer. The components
    /// keep their internal newest-first order.
    pub fn install_shipped(&mut self, bucket: BucketId, comps: Vec<Component>) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        tree.append_oldest_components(comps);
        Ok(())
    }

    /// True if a pending (received, not yet installed) bucket exists.
    pub fn has_pending_bucket(&self, bucket: &BucketId) -> bool {
        self.pending.contains_key(bucket)
    }

    /// True if the pending bucket holds its base data — shipped or
    /// feed-built components, as opposed to only replicated writes
    /// accumulated after a crash wiped the uncommitted transfer. Recovery
    /// re-ships the bucket from its source when this is false.
    pub fn pending_has_base_data(&self, bucket: &BucketId) -> bool {
        self.pending
            .get(bucket)
            .map(|t| {
                t.components()
                    .iter()
                    .any(|c| c.is_shipped() || c.source() == ComponentSource::Loaded)
            })
            .unwrap_or(false)
    }

    /// Applies a replicated write (a concurrent write routed to the source)
    /// to a pending bucket's memory component, beside the `hash_key` of its
    /// key that routing computed. The pending bucket must exist — a
    /// replicated write to an unregistered bucket is a routing bug upstream.
    /// (After a destination crash wiped an uncommitted transfer, the
    /// cluster's replication path re-creates the pending bucket explicitly
    /// for buckets of the active rebalance before applying; see
    /// `Cluster::replicate`.)
    pub fn apply_replicated(&mut self, bucket: BucketId, entry: Entry, hash: u64) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        tree.apply_hashed(entry, hash);
        Ok(())
    }

    /// Flushes the memory components of pending buckets (the prepare-phase
    /// requirement that replicated writes are persisted before voting yes).
    pub fn flush_pending(&mut self) {
        for tree in self.pending.values_mut() {
            tree.flush();
        }
    }

    /// Installs a pending bucket, making it visible to queries (commit phase:
    /// "add the loaded disk components to the component lists").
    /// Idempotent if the bucket is already installed.
    pub fn install_pending(&mut self, bucket: BucketId) -> Result<()> {
        let Some(mut tree) = self.pending.remove(&bucket) else {
            if self.owns(&bucket) {
                return Ok(()); // already installed (recovery retries are idempotent)
            }
            return Err(StorageError::UnknownPendingBucket(bucket));
        };
        // Merges were paused while the bucket was pending; the installed
        // bucket compacts normally again.
        tree.resume_merges();
        self.add_bucket(bucket, tree)
    }

    /// Discards all pending buckets (abort and crash paths). Idempotent, as
    /// required by failure Case 1.
    pub fn drop_all_pending(&mut self) {
        self.pending.clear();
    }

    /// Storage bytes held by pending buckets (intermediate rebalance state).
    pub fn pending_storage_bytes(&self) -> usize {
        self.pending.values().map(|t| t.storage_bytes()).sum()
    }

    /// Read-only access to a bucket's tree (for inspection in tests and the
    /// cost model).
    pub fn bucket_tree(&self, bucket: &BucketId) -> Option<&LsmTree> {
        self.buckets.get(bucket)
    }

    /// Checks the no-overlap invariant and that the slot array agrees with
    /// the bucket map (used by property tests and integrity checks): the
    /// table is as deep as the deepest bucket, each bucket's slot lattice
    /// points at that bucket alone — two overlapping buckets would share a
    /// slot — and no other slot is occupied. One walk per bucket lattice.
    pub fn is_consistent(&self) -> bool {
        let depth = self.buckets.keys().map(|b| b.depth).max().unwrap_or(0);
        let owned: usize = self.buckets.keys().map(|b| 1 << (depth - b.depth)).sum();
        self.slots.depth() == depth
            && self.slots.num_slots() == 1 << depth
            && (self.buckets.keys()).all(|b| self.slots.lattice(b).all(|s| *s == Some(*b)))
            && self.slots.slots().iter().flatten().count() == owned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;

    fn cfg(max_bucket: Option<usize>) -> BucketedConfig {
        BucketedConfig {
            lsm: LsmConfig::with_memtable_budget(1 << 14),
            max_bucket_size_bytes: max_bucket,
            max_depth: 16,
        }
    }

    fn tree_with_depth(depth: u8, max_bucket: Option<usize>) -> BucketedLsmTree {
        let buckets = (0..(1u32 << depth)).map(|b| BucketId::new(b, depth));
        BucketedLsmTree::new(cfg(max_bucket), buckets, StorageMetrics::new_shared())
    }

    fn val(n: usize) -> Bytes {
        Bytes::from(vec![3u8; n])
    }

    #[test]
    fn writes_route_to_owning_bucket() {
        let mut t = tree_with_depth(2, None);
        for i in 0..200u64 {
            t.insert(i, val(8)).unwrap();
        }
        assert_eq!(t.live_len(), 200);
        for i in 0..200u64 {
            let key = Key::from_u64(i);
            let b = t.bucket_of_hash(hash_key(&key)).unwrap();
            assert!(b.contains_key(&key));
            assert!(t.get(&key).is_some());
        }
        assert!(t.is_consistent());
    }

    /// The size every write's split check reads is kept, not walked: while
    /// writes flush, merge and split buckets, every bucket tree's
    /// `logical_size_bytes` is the walk over its components' visible bytes
    /// plus its memory component — and so is a secondary index tree's after
    /// a mark of moved buckets leaves its views unbuilt.
    #[test]
    fn the_kept_logical_size_is_the_walked_one() {
        use crate::secondary::SecondaryIndex;

        let walked = |tree: &LsmTree| -> usize {
            let disk: usize = tree
                .components()
                .iter()
                .map(|c| c.visible_size_bytes())
                .sum();
            disk + tree.memtable().size_bytes()
        };
        let mut t = tree_with_depth(1, Some(24 * 1024));
        for i in 0..6000u64 {
            t.insert(i * 7919 % 6000, val(8 + (i % 40) as usize))
                .unwrap();
            if i % 97 == 0 {
                for b in t.bucket_ids() {
                    let tree = t.bucket_tree(&b).unwrap();
                    assert_eq!(tree.logical_size_bytes(), walked(tree), "write {i}, {b:?}");
                }
            }
        }
        assert!(t.num_buckets() > 2, "the writes must split buckets");
        let config = LsmConfig::with_memtable_budget(8 * 1024);
        let mut idx = SecondaryIndex::new("idx", config, StorageMetrics::new_shared());
        for i in 0..2000u64 {
            idx.insert(Key::from_u64(i % 17), Key::from_u64(i * 7919 % 6000));
        }
        assert!(idx.components().len() > 1 && !idx.tree().memtable().is_empty());
        idx.mark_buckets_moved(&[BucketId::new(0, 1)]);
        assert_eq!(idx.tree().logical_size_bytes(), walked(idx.tree()));
        idx.flush();
        assert_eq!(idx.tree().logical_size_bytes(), walked(idx.tree()));
    }

    #[test]
    fn unowned_keys_are_rejected() {
        let mut t = BucketedLsmTree::new(
            cfg(None),
            [BucketId::new(0, 1)],
            StorageMetrics::new_shared(),
        );
        let mut rejected = 0;
        for i in 0..100u64 {
            if t.insert(i, val(4)).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "keys hashing to bucket 1 must be rejected");
    }

    #[test]
    fn ordered_scan_is_sorted_unordered_is_complete() {
        let mut t = tree_with_depth(3, None);
        for i in (0..500u64).rev() {
            t.insert(i, val(4)).unwrap();
        }
        let ordered = t.scan(ScanOrder::Ordered);
        let keys: Vec<u64> = ordered.iter().map(|e| e.key.as_u64()).collect();
        let expected: Vec<u64> = (0..500).collect();
        assert_eq!(keys, expected);
        let unordered = t.scan(ScanOrder::Unordered);
        assert_eq!(unordered.len(), 500);
        let mut un_keys: Vec<u64> = unordered.iter().map(|e| e.key.as_u64()).collect();
        un_keys.sort_unstable();
        assert_eq!(un_keys, expected);
    }

    /// Both scan orders walk every record once: one multiset of entries, one
    /// charge to the query-read metric — the live records' key + value + op
    /// tag, the number the two-pass scans charged before them — over
    /// reference components, shadowed versions, tombstones and memtables.
    #[test]
    fn both_scan_orders_return_one_multiset_and_charge_the_same_bytes() {
        let mut t = tree_with_depth(1, None);
        for k in 0..600u64 {
            t.insert(k, val(16)).unwrap();
        }
        t.flush_all();
        for k in (0..300u64).step_by(3) {
            t.insert(k, val(40)).unwrap(); // 100 newer versions
        }
        for k in (1..250u64).step_by(5) {
            t.delete(k).unwrap(); // 50 tombstones, 17 of them over a 40-byte version
        }
        t.flush_all();
        t.split_bucket(BucketId::new(0, 1)).unwrap();
        for k in 600..650u64 {
            t.insert(k, val(8)).unwrap(); // buffered only
        }
        let read = |t: &BucketedLsmTree| t.metrics().snapshot().bytes_query_read;
        let before = read(&t);
        let mut unordered = t.scan(ScanOrder::Unordered);
        let after_unordered = read(&t);
        let ordered = t.scan(ScanOrder::Ordered);
        let after_ordered = read(&t);

        // 467 records of 16 bytes, 83 of 40, 50 of 8: 8-byte keys, 1-byte tag
        assert_eq!(after_unordered - before, 467 * 25 + 83 * 49 + 50 * 17);
        assert_eq!(after_ordered - after_unordered, 16_592);
        assert_eq!(ordered.len(), 600);
        assert!(ordered.windows(2).all(|w| w[0].key < w[1].key));
        unordered.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(unordered, ordered);
        let mut visited = 0;
        let bytes = t.scan_with(None, None, ScanOrder::Ordered, |_, _| visited += 1);
        assert_eq!((visited, bytes), (600, 16_592));
        assert!(
            t.visible_len() >= 600,
            "an upper bound on what a scan returns"
        );
    }

    /// The ordered scan is one merge over every bucket's sources; it must
    /// return exactly the unordered scan, sorted, whatever the buckets hold:
    /// reference components left by splits, versions shadowed across runs
    /// and the memory component, and tombstones. Checked over the whole key
    /// space and over bounded ranges.
    #[test]
    fn the_ordered_scan_is_the_sorted_unordered_scan() {
        let mut t = tree_with_depth(1, None);
        for k in 0..900u64 {
            t.insert(k, val(8 + (k % 5) as usize)).unwrap();
        }
        t.flush_all();
        for k in (0..900u64).step_by(4) {
            t.insert(k, val(24)).unwrap();
        }
        t.flush_all();
        let (lo, _) = t.split_bucket(BucketId::new(0, 1)).unwrap();
        t.split_bucket(lo).unwrap();
        for k in (2..900u64).step_by(7) {
            t.delete(k).unwrap();
        }
        for k in (1..900u64).step_by(9) {
            t.insert(k, val(40)).unwrap();
        }
        assert!(t.buckets.values().any(|t| !t.memtable().is_empty()));
        assert!(t.num_buckets() == 4 && t.num_components() > 4);

        let bounds = [
            None,
            Some(0),
            Some(1),
            Some(250),
            Some(613),
            Some(899),
            Some(2000),
        ];
        for lo in bounds {
            for hi in bounds
                .iter()
                .filter(|hi| lo.zip(**hi).is_none_or(|(l, h)| l <= h))
            {
                let (lo, hi) = (lo.map(Key::from_u64), hi.map(Key::from_u64));
                let ordered = t.scan_range(lo.as_ref(), hi.as_ref(), ScanOrder::Ordered);
                let mut unordered = t.scan_range(lo.as_ref(), hi.as_ref(), ScanOrder::Unordered);
                unordered.sort_by(|a, b| a.key.cmp(&b.key));
                assert_eq!(ordered, unordered, "{lo:?}..{hi:?}");
                assert!(ordered.windows(2).all(|w| w[0].key < w[1].key));
                if lo.is_none() && hi.is_none() {
                    let live: Vec<u64> = (0..900u64).filter(|k| k % 7 != 2 || k % 9 == 1).collect();
                    let keys: Vec<u64> = ordered.iter().map(|e| e.key.as_u64()).collect();
                    assert_eq!(keys, live);
                }
            }
        }
    }

    /// Reference counting keeps what a reader holds alive and nothing else
    /// does: a component handle pins its run, a value read earlier pins the
    /// run's payload slab, and the dropped bucket has no other owner.
    #[test]
    fn a_dropped_bucket_lives_on_only_in_what_its_readers_hold() {
        let mut t = tree_with_depth(1, None);
        let b = BucketId::new(0, 1);
        for round in 0..2u64 {
            for k in (round * 150)..(round * 150 + 150) {
                t.insert(k, Bytes::from(vec![k as u8; 16])).unwrap();
            }
            t.flush_all();
        }
        // merged, so the bucket's one run owns its payloads in one slab
        t.buckets.get_mut(&b).unwrap().force_merge_all();
        let key = t.bucket_tree(&b).unwrap().scan_all()[0].key.clone();
        let held = t.get(&key).unwrap();
        let reader = t.bucket_tree(&b).unwrap().components()[0].clone();
        assert_eq!(reader.ref_count(), 2, "the bucket's tree and the reader");

        t.drop_bucket(b).unwrap();
        assert_eq!(reader.ref_count(), 1, "nothing else pins a dropped bucket");
        assert!(t.get(&key).is_none());
        let neighbour = reader.iter().last().unwrap().op.value().unwrap().clone();
        assert!(held.shares_allocation(&neighbour), "one slab for the run");
        drop((reader, neighbour));
        // the run is gone; the value still holds the slab it is a slice of
        assert_eq!(held.as_ref(), &[key.as_u64() as u8; 16]);
    }

    #[test]
    fn split_preserves_data_and_routing() {
        let mut t = tree_with_depth(1, None);
        for i in 0..300u64 {
            t.insert(i, val(16)).unwrap();
        }
        let target = BucketId::new(0, 1);
        let before = t.live_len();
        let (lo, hi) = t.split_bucket(target).unwrap();
        assert!(t.is_consistent());
        assert_eq!(t.live_len(), before, "no records may be lost by a split");
        // children partition the parent's records
        let lo_entries = t.bucket_tree(&lo).unwrap().scan_all();
        let hi_entries = t.bucket_tree(&hi).unwrap().scan_all();
        assert!(lo_entries.iter().all(|e| lo.contains_key(&e.key)));
        assert!(hi_entries.iter().all(|e| hi.contains_key(&e.key)));
        assert!(!lo_entries.is_empty() && !hi_entries.is_empty());
        // reference components occupy no extra storage until merged
        assert!(t
            .bucket_tree(&lo)
            .unwrap()
            .components()
            .iter()
            .all(|c| c.is_reference()));
        assert_eq!(t.metrics().snapshot().split_count, 1);
        // reads still work after the split
        for i in 0..300u64 {
            assert!(t.get(&Key::from_u64(i)).is_some());
        }
    }

    #[test]
    fn dynamic_splits_trigger_on_max_bucket_size() {
        let mut t = BucketedLsmTree::new(
            BucketedConfig {
                lsm: LsmConfig::with_memtable_budget(1 << 12),
                max_bucket_size_bytes: Some(4 * 1024),
                max_depth: 10,
            },
            [BucketId::root()],
            StorageMetrics::new_shared(),
        );
        for i in 0..2000u64 {
            t.insert(i, val(32)).unwrap();
        }
        assert!(t.num_buckets() > 1, "bucket should have split dynamically");
        assert!(t.is_consistent());
        assert_eq!(t.live_len(), 2000);
        // every bucket respects the size bound reasonably (allow slack for
        // the memtable that has not flushed yet)
        for (b, _size) in t.bucket_sizes() {
            assert!(b.depth <= 10);
        }
    }

    #[test]
    fn splits_disabled_prevents_splitting() {
        let mut t = tree_with_depth(0, Some(128));
        t.set_splits_enabled(false);
        for i in 0..500u64 {
            t.insert(i, val(64)).unwrap();
        }
        assert_eq!(t.num_buckets(), 1);
        assert!(matches!(
            t.split_bucket(BucketId::root()),
            Err(StorageError::SplitsDisabled)
        ));
    }

    #[test]
    fn pending_buckets_are_invisible_until_installed() {
        let mut t = tree_with_depth(1, None);
        let incoming = BucketId::new(0, 1);
        // simulate a destination partition that owns bucket 1 and receives bucket 0
        let mut dest = BucketedLsmTree::new(
            cfg(None),
            [BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        );
        for i in 0..200u64 {
            t.insert(i, val(8)).unwrap();
        }
        let moved_count = t.scan_bucket(incoming).unwrap().len();
        assert!(moved_count > 0);

        dest.create_pending_bucket(incoming).unwrap();
        // a repair's feed arrives as one component built from its records
        let feed =
            Component::from_unsorted(t.scan_bucket(incoming).unwrap(), ComponentSource::Loaded);
        dest.install_shipped(incoming, vec![feed]).unwrap();
        assert!(dest.pending_has_base_data(&incoming));
        // a replicated concurrent write that updates a moved key
        let some_key = t.bucket_tree(&incoming).unwrap().scan_all()[0].key.clone();
        let newer = Entry::put(some_key.clone(), Bytes::from("newer"));
        dest.apply_replicated(incoming, newer, hash_key(&some_key))
            .unwrap();

        // still invisible
        assert_eq!(dest.get(&some_key), None);
        assert_eq!(dest.live_len(), 0);

        dest.flush_pending();
        dest.install_pending(incoming).unwrap();
        assert!(dest.is_consistent());
        assert_eq!(dest.live_len(), moved_count);
        // the replicated write must win over the feed-built record
        assert_eq!(dest.get(&some_key).unwrap(), Bytes::from("newer"));
        // idempotent install (Case 4/5 retries)
        dest.install_pending(incoming).unwrap();
        assert_eq!(dest.live_len(), moved_count);
    }

    #[test]
    fn drop_pending_and_drop_bucket_are_idempotent() {
        let mut t = tree_with_depth(1, None);
        for i in 0..50u64 {
            t.insert(i, val(8)).unwrap();
        }
        let b = BucketId::new(0, 1);
        t.drop_bucket(b).unwrap();
        t.drop_bucket(b).unwrap(); // no-op
        assert!(t.bucket_of_hash(0).is_none());
        t.drop_all_pending(); // nothing pending: no-op
        assert!(t.is_consistent());
    }

    #[test]
    fn ship_bucket_moves_sealed_components_without_copying() {
        let mut src = tree_with_depth(1, None);
        let mut dst = BucketedLsmTree::new(
            cfg(None),
            [BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        );
        for i in 0..300u64 {
            src.insert(i, val(16)).unwrap();
        }
        let moving = BucketId::new(0, 1);
        let expected = src.bucket_tree(&moving).unwrap().scan_all();
        let comps = src.ship_bucket(moving).unwrap();
        assert!(!comps.is_empty());
        assert!(comps.iter().all(|c| c.is_shipped()));
        // the shipped handles share the source's data (no copy was made)
        let src_ids: Vec<_> = src
            .bucket_tree(&moving)
            .unwrap()
            .components()
            .iter()
            .map(|c| c.id())
            .collect();
        assert_eq!(comps.iter().map(|c| c.id()).collect::<Vec<_>>(), src_ids);
        let snap = src.metrics().snapshot();
        assert_eq!(snap.components_shipped, comps.len() as u64);
        assert!(snap.bytes_rebalance_shipped > 0);

        dst.create_pending_bucket(moving).unwrap();
        // a replicated concurrent write applied before the transfer lands
        // must stay newer than the shipped base data
        let overwritten = expected[0].key.clone();
        let hash = hash_key(&overwritten);
        dst.apply_replicated(moving, Entry::put(overwritten.clone(), val(1)), hash)
            .unwrap();
        dst.flush_pending();
        dst.install_shipped(moving, comps).unwrap();
        assert!(dst.pending_has_base_data(&moving));
        assert_eq!(dst.live_len(), 0, "pending data must stay invisible");
        dst.install_pending(moving).unwrap();
        assert_eq!(dst.live_len(), expected.len());
        assert_eq!(dst.get(&overwritten).unwrap(), val(1));
        for e in &expected[1..] {
            assert_eq!(dst.get(&e.key).as_ref(), e.op.value());
        }
    }

    #[test]
    fn pending_merges_stay_paused_so_base_provenance_survives_heavy_feeds() {
        let mut src = tree_with_depth(1, None);
        for i in 0..200u64 {
            src.insert(i, val(16)).unwrap();
        }
        let moving = BucketId::new(0, 1);
        let comps = src.ship_bucket(moving).unwrap();
        let mut dst = BucketedLsmTree::new(
            cfg(None), // 16 KiB memtable budget, auto flush + merge on
            [BucketId::new(1, 1)],
            StorageMetrics::new_shared(),
        );
        dst.create_pending_bucket(moving).unwrap();
        dst.install_shipped(moving, comps).unwrap();
        // A replicated feed far above the memtable budget flushes the
        // pending tree repeatedly; without paused merges a size-tiered merge
        // would rewrite the shipped base components (erasing the provenance
        // that crash recovery checks) and force a spurious re-ship.
        for i in 0..600u64 {
            if moving.contains_key(&Key::from_u64(i)) {
                let key = Key::from_u64(i);
                let hash = hash_key(&key);
                dst.apply_replicated(moving, Entry::put(key, val(64)), hash)
                    .unwrap();
            }
        }
        assert!(
            dst.pending_has_base_data(&moving),
            "shipped base components must survive replicated-feed flushes"
        );
        dst.install_pending(moving).unwrap();
        assert!(!dst.bucket_tree(&moving).unwrap().merges_paused());
        assert_eq!(
            dst.live_len(),
            dst.bucket_tree(&moving).unwrap().scan_all().len()
        );
    }

    #[test]
    fn apply_replicated_requires_a_registered_pending_bucket() {
        let mut dst = tree_with_depth(1, None);
        let b = BucketId::new(0, 2);
        let key = Key::from_u64(8);
        let hash = hash_key(&key);
        dst.create_pending_bucket(b).unwrap();
        dst.drop_all_pending(); // crash wiped the uncommitted transfer
        assert!(!dst.has_pending_bucket(&b));
        // a misrouted replicated write surfaces as an error, not a silent
        // fresh pending tree
        assert!(matches!(
            dst.apply_replicated(b, Entry::put(key.clone(), val(4)), hash),
            Err(StorageError::UnknownPendingBucket(_))
        ));
        // the recovery path re-creates the pending bucket explicitly; the
        // re-created bucket holds only replicated records until re-shipped
        dst.create_pending_bucket(b).unwrap();
        dst.apply_replicated(b, Entry::put(key, val(4)), hash)
            .unwrap();
        assert!(
            !dst.pending_has_base_data(&b),
            "a recreated pending bucket holds only replicated records"
        );
    }

    #[test]
    fn snapshot_bucket_flushes_memtable_first() {
        let mut t = tree_with_depth(1, None);
        for i in 0..100u64 {
            t.insert(i, val(8)).unwrap();
        }
        let b = BucketId::new(1, 1);
        let comps = t.snapshot_bucket(b).unwrap();
        assert!(!comps.is_empty());
        // everything the bucket holds is now in immutable components
        assert!(t.bucket_tree(&b).unwrap().memtable().is_empty());
    }

    // ------------------------------------------------ the bucket map's slots

    fn empty_tree() -> BucketedLsmTree {
        let config = BucketedConfig {
            max_depth: 20,
            ..cfg(None)
        };
        BucketedLsmTree::new(config, [], StorageMetrics::new_shared())
    }

    /// Adds an empty bucket the way a partition receives one: staged pending,
    /// then installed, which rejects a bucket overlapping an owned one.
    fn receive(t: &mut BucketedLsmTree, bucket: BucketId) -> Result<()> {
        t.create_pending_bucket(bucket)?;
        t.install_pending(bucket)
    }

    #[test]
    fn add_and_lookup() {
        let mut t = empty_tree();
        receive(&mut t, BucketId::new(0b00, 2)).unwrap();
        receive(&mut t, BucketId::new(0b10, 2)).unwrap();
        assert_eq!(t.num_buckets(), 2);
        assert_eq!(t.bucket_of_hash(0b100), Some(BucketId::new(0b00, 2)));
        assert_eq!(t.bucket_of_hash(0b110), Some(BucketId::new(0b10, 2)));
        assert_eq!(t.bucket_of_hash(0b01), None, "bucket 01 not owned here");
    }

    #[test]
    fn overlapping_buckets_are_rejected() {
        let mut t = empty_tree();
        receive(&mut t, BucketId::new(0b0, 1)).unwrap();
        assert!(receive(&mut t, BucketId::new(0b00, 2)).is_err());
        assert!(receive(&mut t, BucketId::new(0, 0)).is_err());
        assert!(t.is_consistent());
    }

    #[test]
    fn split_replaces_bucket_with_children() {
        let mut t = empty_tree();
        let b = BucketId::new(0b1, 1);
        receive(&mut t, b).unwrap();
        let (lo, hi) = t.split_bucket(b).unwrap();
        assert!(!t.owns(&b));
        assert!(t.owns(&lo) && t.owns(&hi));
        assert_eq!(t.local_depth(), 2);
        assert!(t.is_consistent());
        assert!(
            t.split_bucket(b).is_err(),
            "splitting a missing bucket fails"
        );
    }

    #[test]
    fn lookup_key_matches_bucket_membership() {
        let mut t = empty_tree();
        receive(&mut t, BucketId::new(0, 1)).unwrap();
        receive(&mut t, BucketId::new(1, 2)).unwrap();
        receive(&mut t, BucketId::new(3, 2)).unwrap();
        for i in 0..1000u64 {
            let k = Key::from_u64(i);
            let b = t.bucket_of_hash(hash_key(&k)).expect("full coverage");
            assert!(b.contains_key(&k));
        }
    }

    #[test]
    fn remove_shrinks_the_slot_array_and_depth_cache() {
        let mut t = empty_tree();
        receive(&mut t, BucketId::new(0, 1)).unwrap();
        receive(&mut t, BucketId::new(0b01, 2)).unwrap();
        receive(&mut t, BucketId::new(0b11, 2)).unwrap();
        assert_eq!(t.local_depth(), 2);
        t.drop_bucket(BucketId::new(0b01, 2)).unwrap();
        assert_eq!(t.local_depth(), 2, "a depth-2 bucket remains");
        t.drop_bucket(BucketId::new(0b11, 2)).unwrap();
        assert_eq!(t.local_depth(), 1, "depth cache must shrink");
        assert!(t.is_consistent());
        t.drop_bucket(BucketId::new(0b11, 2)).unwrap(); // double drop: no-op
        assert_eq!(t.num_buckets(), 1);
        assert_eq!(t.bucket_of_hash(0b11), None);
        assert_eq!(t.bucket_of_hash(0b10), Some(BucketId::new(0, 1)));
    }

    /// The check sees what the public API cannot produce: a slot no owned
    /// bucket covers, a slot routing to the wrong bucket, and two owned
    /// buckets whose lattices overlap.
    #[test]
    fn is_consistent_rejects_stray_and_misrouted_slots_and_overlaps() {
        let (lo, hi) = BucketId::root().split();
        let mut stray = empty_tree();
        receive(&mut stray, lo).unwrap();
        assert!(stray.is_consistent());
        stray.slots.insert(hi, hi);
        assert!(!stray.is_consistent(), "a slot without a bucket");
        let mut misrouted = empty_tree();
        receive(&mut misrouted, lo).unwrap();
        receive(&mut misrouted, hi).unwrap();
        assert!(misrouted.is_consistent());
        misrouted.slots.update(hi, lo);
        assert!(!misrouted.is_consistent(), "{hi}'s slot routes to {lo}");
        let mut overlap = empty_tree();
        receive(&mut overlap, lo).unwrap();
        let inner = BucketId::new(0b10, 2);
        overlap.buckets.insert(inner, overlap.new_tree());
        overlap.slots.insert(inner, inner);
        assert!(!overlap.is_consistent(), "{lo} covers {inner}");
    }

    #[test]
    fn prop_splits_preserve_consistency_and_coverage() {
        // Start with the root bucket and repeatedly split the bucket
        // containing an arbitrary hash; the tree must stay consistent and
        // keep covering the full hash space.
        for case in 0..16u64 {
            let seed = 0xd1c0_0000 + case;
            let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
            let n = rng.gen_range(0..40) as usize;
            let splits: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut t = empty_tree();
            receive(&mut t, BucketId::root()).unwrap();
            for &h in &splits {
                let b = t.bucket_of_hash(h).expect("coverage");
                if b.depth < 20 {
                    t.split_bucket(b).unwrap();
                }
            }
            assert!(t.is_consistent(), "seed {seed}, splits {splits:#x?}");
            for h in [0u64, 1, 2, 3, 1 << 20, u64::MAX, 0xdead_beef] {
                assert!(
                    t.bucket_of_hash(h).is_some(),
                    "seed {seed}: hash {h:#x} uncovered"
                );
            }
        }
    }

    #[test]
    fn prop_slot_lookup_matches_linear_scan() {
        // Random receive/drop/split sequences over a partial hash space: the
        // slot-array lookup must agree with a linear scan over the bucket
        // map for every probed hash.
        for case in 0..16u64 {
            let seed = 0xd1c1_0000 + case;
            let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
            let mut t = empty_tree();
            receive(&mut t, BucketId::new(0, 2)).unwrap();
            receive(&mut t, BucketId::new(2, 2)).unwrap();
            for _ in 0..rng.gen_range(5..60) {
                let buckets = t.bucket_ids();
                match rng.gen_range(0..3) {
                    0 if !buckets.is_empty() => {
                        let b = buckets[rng.gen_range(0..buckets.len() as u64) as usize];
                        if b.depth < 12 {
                            t.split_bucket(b).unwrap();
                        }
                    }
                    1 if buckets.len() > 1 => {
                        let b = buckets[rng.gen_range(0..buckets.len() as u64) as usize];
                        t.drop_bucket(b).unwrap();
                    }
                    _ => {
                        let bits = rng.next_u64() as u32;
                        let depth = rng.gen_range(1..8) as u8;
                        let _ = receive(&mut t, BucketId::new(bits, depth));
                    }
                }
                for _ in 0..16 {
                    let h = rng.next_u64();
                    let scan = t.bucket_ids().into_iter().find(|b| b.contains_hash(h));
                    assert_eq!(t.bucket_of_hash(h), scan, "seed {seed}: hash {h:#x}");
                }
                assert!(t.is_consistent(), "seed {seed}");
            }
        }
    }
}
