//! The bucketed LSM-tree used for primary indexes (Section IV).
//!
//! Each extendible-hashing bucket is stored as a separate LSM-tree (storage
//! Option 3 of the paper): moving a bucket during a rebalance only touches
//! that bucket's components, and splitting/dropping buckets is cheap. The
//! buckets of a partition are coordinated by a [`LocalDirectory`].
//!
//! The type also implements the destination-side machinery of the rebalance
//! data-movement phase: *pending* (received) buckets hold bulk-loaded
//! components plus replicated writes and stay invisible to queries until
//! the rebalance commits.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::bucket::{hash_key, BucketId};
use crate::component::{Component, ComponentSource};
use crate::directory::LocalDirectory;
use crate::entry::{Entry, Key, Op, Value};
use crate::iterator::MergeIter;
use crate::metrics::StorageMetrics;
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
    /// Hard cap on bucket depth.
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
#[derive(Debug)]
pub struct BucketedLsmTree {
    config: BucketedConfig,
    directory: LocalDirectory,
    buckets: BTreeMap<BucketId, LsmTree>,
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
        let mut directory = LocalDirectory::new();
        let mut buckets = BTreeMap::new();
        for b in initial_buckets {
            // dhlint: allow(panic) — constructor contract: initial buckets are disjoint
            directory.add(b).expect("initial buckets must not overlap");
            buckets.insert(b, LsmTree::new(config.lsm.clone(), Arc::clone(&metrics)));
        }
        BucketedLsmTree {
            config,
            directory,
            buckets,
            pending: BTreeMap::new(),
            metrics,
            splits_enabled: true,
        }
    }

    /// The shared metrics instance.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    /// The local directory of owned buckets.
    pub fn directory(&self) -> &LocalDirectory {
        &self.directory
    }

    /// The configuration.
    pub fn config(&self) -> &BucketedConfig {
        &self.config
    }

    /// Buckets owned by this partition (visible to queries).
    pub fn bucket_ids(&self) -> Vec<BucketId> {
        self.directory.buckets().collect()
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
        let bucket = self
            .directory
            .lookup_key(&entry.key)
            .ok_or_else(|| StorageError::UnknownBucket(BucketId::of_key(&entry.key, 0)))?;
        self.buckets
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?
            .apply(entry);
        self.maybe_split(bucket)?;
        Ok(())
    }

    // ------------------------------------------------------------------ reads

    /// Point lookup: only the target bucket (located via the local directory)
    /// is searched.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.get_ref(key).cloned()
    }

    /// [`BucketedLsmTree::get`] that lends the payload instead of sharing it.
    /// The key is hashed once, for the directory and for every filter of the
    /// bucket's tree.
    pub fn get_ref(&self, key: &Key) -> Option<&Value> {
        let hash = hash_key(key);
        let bucket = self.directory.lookup_hash(hash)?;
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

    fn maybe_split(&mut self, bucket: BucketId) -> Result<()> {
        let Some(max) = self.config.max_bucket_size_bytes else {
            return Ok(());
        };
        if !self.splits_enabled {
            return Ok(());
        }
        // A single write can at most trigger one split of its own bucket, but
        // the children may immediately exceed the limit under heavy skew, so
        // loop until the owning bucket is within bounds or at max depth.
        let mut current = bucket;
        loop {
            let size = match self.buckets.get(&current) {
                Some(t) => t.logical_size_bytes(),
                None => return Ok(()),
            };
            if size <= max || current.depth >= self.config.max_depth {
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
    ///    components* pointing at the parent's components,
    /// 3. update the local directory (the metadata force-to-disk of the
    ///    paper) and drop the parent bucket.
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
            .buckets
            .remove(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))?;
        // Algorithm 1, lines 3-7: stop merges, flush the memory component so
        // that all data lives in immutable disk components.
        parent.pause_merges();
        parent.flush();
        let (lo, hi) = bucket.split();
        let mut lo_tree = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        let mut hi_tree = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        let lo_comps: Vec<Component> = parent
            .components()
            .iter()
            .map(|c| c.restrict_to_bucket(lo))
            .collect();
        let hi_comps: Vec<Component> = parent
            .components()
            .iter()
            .map(|c| c.restrict_to_bucket(hi))
            .collect();
        lo_tree.set_components(lo_comps);
        hi_tree.set_components(hi_comps);
        // Line 9: force the directory metadata; in the simulation this is the
        // in-memory directory update, which is the recovery point.
        self.directory.split(&bucket)?;
        self.buckets.insert(lo, lo_tree);
        self.buckets.insert(hi, hi_tree);
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
    /// Bloom filters, sorted runs, and any bucket/lazy-cleanup filters travel
    /// with the handle, and no `restrict_to_bucket` copy is made: every
    /// component of a bucket's tree already exposes only that bucket's
    /// entries. Components are returned newest first, the tree's own order.
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
    /// the local directory so new queries cannot see it. Reference counting
    /// (Arc) keeps the components alive for readers that still hold them.
    pub fn drop_bucket(&mut self, bucket: BucketId) -> Result<()> {
        if !self.directory.remove(&bucket) {
            // Idempotent: dropping a non-existent bucket is a no-op (Case 4).
            return Ok(());
        }
        self.buckets.remove(&bucket);
        Ok(())
    }

    // -------------------------------------------- rebalance destination side

    /// Registers a new pending (received) bucket at a destination partition.
    /// Pending buckets are invisible to queries until installed. Merges are
    /// paused on the pending tree until the install: the loaded/shipped base
    /// components and the replicated-write flushes must survive as-is so
    /// recovery can tell a healthy pending bucket from one whose transfer a
    /// crash wiped ([`BucketedLsmTree::pending_has_base_data`]).
    pub fn create_pending_bucket(&mut self, bucket: BucketId) -> Result<()> {
        if self.pending.contains_key(&bucket) {
            return Err(StorageError::PendingBucketExists(bucket));
        }
        let mut tree = LsmTree::new(self.config.lsm.clone(), Arc::clone(&self.metrics));
        tree.pause_merges();
        self.pending.insert(bucket, tree);
        Ok(())
    }

    /// Bulk-loads scanned records into a pending bucket as disk components
    /// that are strictly older than any replicated write.
    pub fn load_into_pending(&mut self, bucket: BucketId, entries: Vec<Entry>) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        let comp = Component::from_unsorted(entries, ComponentSource::Loaded);
        tree.append_oldest_components(vec![comp]);
        Ok(())
    }

    /// Installs components shipped whole from a source partition into a
    /// pending bucket. The handles are appended as the **oldest** data of the
    /// pending tree — replicated writes applied afterwards (or already
    /// sitting in the pending memory component) stay newer, exactly as the
    /// record-level `load_into_pending` path orders its bulk-loaded
    /// component. The components keep their internal newest-first order.
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
    /// bulk-loaded components, as opposed to only replicated writes
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
    /// to a pending bucket's memory component. The pending bucket
    /// must exist — a replicated write to an unregistered bucket is a
    /// routing bug upstream. (After a destination crash wiped an uncommitted
    /// transfer, the cluster's replication path re-creates the pending
    /// bucket explicitly for buckets of the active rebalance before
    /// applying; see `Cluster::ingest`.)
    pub fn apply_replicated(&mut self, bucket: BucketId, entry: Entry) -> Result<()> {
        let tree = self
            .pending
            .get_mut(&bucket)
            .ok_or(StorageError::UnknownPendingBucket(bucket))?;
        tree.apply(entry);
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
            if self.directory.contains(&bucket) {
                return Ok(()); // already installed (recovery retries are idempotent)
            }
            return Err(StorageError::UnknownPendingBucket(bucket));
        };
        // Merges were paused while the bucket was pending; the installed
        // bucket compacts normally again.
        tree.resume_merges();
        self.directory.add(bucket)?;
        self.buckets.insert(bucket, tree);
        Ok(())
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

    /// Checks internal consistency: directory and bucket map agree and the
    /// directory has no overlaps.
    pub fn is_consistent(&self) -> bool {
        self.directory.is_consistent()
            && self.directory.len() == self.buckets.len()
            && self
                .directory
                .buckets()
                .all(|b| self.buckets.contains_key(&b))
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
            let b = t.directory.lookup_key(&key).unwrap();
            assert!(b.contains_key(&key));
            assert!(t.get(&key).is_some());
        }
        assert!(t.is_consistent());
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
    /// and the memory component, tombstones, and — from a lazy-cleanup mark
    /// on part of one bucket — hidden entries both on disk and buffered.
    /// Checked over the whole key space and over bounded ranges.
    #[test]
    fn the_ordered_scan_is_the_sorted_unordered_scan() {
        use crate::component::KeyLayout;

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
        // half of bucket 1/1 moved away: hidden in its runs and its buffer
        let moved = BucketId::new(1, 2);
        let tree = t.buckets.get_mut(&BucketId::new(1, 1)).unwrap();
        tree.mark_buckets_invalid(&[moved], KeyLayout::PrimaryKey);
        assert!(tree.hidden_entries() > 0);
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
                    let expected = (0..900u64).filter(|k| k % 7 != 2 || k % 9 == 1);
                    let live: Vec<u64> = expected
                        .filter(|k| !moved.contains_key(&Key::from_u64(*k)))
                        .collect();
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
        let moved_entries = t.scan_bucket(incoming).unwrap();
        let moved_count = moved_entries.len();
        assert!(moved_count > 0);

        dest.create_pending_bucket(incoming).unwrap();
        dest.load_into_pending(incoming, moved_entries).unwrap();
        // a replicated concurrent write that updates a moved key
        let some_key = t.bucket_tree(&incoming).unwrap().scan_all()[0].key.clone();
        dest.apply_replicated(incoming, Entry::put(some_key.clone(), Bytes::from("newer")))
            .unwrap();

        // still invisible
        assert_eq!(dest.get(&some_key), None);
        assert_eq!(dest.live_len(), 0);

        dest.flush_pending();
        dest.install_pending(incoming).unwrap();
        assert!(dest.is_consistent());
        assert_eq!(dest.live_len(), moved_count);
        // the replicated write must win over the bulk-loaded record
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
        assert!(t.directory.lookup_hash(0).is_none());
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
        dst.apply_replicated(moving, Entry::put(overwritten.clone(), val(1)))
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
                dst.apply_replicated(moving, Entry::put(Key::from_u64(i), val(64)))
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
        dst.create_pending_bucket(b).unwrap();
        dst.drop_all_pending(); // crash wiped the uncommitted transfer
        assert!(!dst.has_pending_bucket(&b));
        // a misrouted replicated write surfaces as an error, not a silent
        // fresh pending tree
        assert!(matches!(
            dst.apply_replicated(b, Entry::put(Key::from_u64(8), val(4))),
            Err(StorageError::UnknownPendingBucket(_))
        ));
        // the recovery path re-creates the pending bucket explicitly; the
        // re-created bucket holds only replicated records until re-shipped
        dst.create_pending_bucket(b).unwrap();
        dst.apply_replicated(b, Entry::put(Key::from_u64(8), val(4)))
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
}
