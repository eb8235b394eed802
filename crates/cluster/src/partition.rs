//! Storage partitions.
//!
//! A partition is the unit of storage and parallelism inside a Node
//! Controller. For each dataset it holds a **bucketed primary index** and
//! the dataset's **local secondary indexes** (Section II-C). AsterixDB also
//! keeps a keys-only primary-key index, read by COUNT(*) and by
//! insert-uniqueness checks; this repository implements neither, so it
//! keeps no such index. The partition also implements both sides of the
//! rebalance data-movement phase. A received bucket is only primary
//! components: whatever staged it (a ship or a repair's feed) and whatever
//! writes were replicated to it, the secondary indexes learn it once, from
//! its components as installed, on the first index query.
//!
//! A partition applies its share of a routed write group
//! (`PartitionDataset::write`): the secondary indexes take the writes in
//! batch order, then the primary takes them in the group's sorted order,
//! bucket by bucket. Each write arrives stamped with its local bucket, so
//! nothing is looked up or sorted here again.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynahash_core::PartitionId;
use dynahash_lsm::{
    BucketId, BucketedConfig, BucketedLsmTree, Component, Entry, Key, LsmConfig, MergeIter, Op,
    SecondaryEntry, SecondaryIndex, StorageError, StorageMetrics, Value,
};

use crate::cluster::{Keyed, Write};
use crate::dataset::{DatasetId, DatasetSpec, SecondaryIndexDef};
use crate::ClusterError;

/// Per-dataset storage inside one partition.
pub struct PartitionDataset {
    /// The bucketed primary index (Option 3 storage).
    pub primary: BucketedLsmTree,
    /// Local secondary indexes (Option 1 storage, lazy cleanup).
    pub secondaries: Vec<SecondaryIndex>,
    /// The definition of each secondary index, in `secondaries` order.
    pub(crate) defs: Vec<SecondaryIndexDef>,
    /// Installed buckets still awaiting their deferred secondary rebuild.
    /// The stashed handles are `Arc` clones of the bucket's components as
    /// installed, so later primary merges cannot disturb the data the
    /// rebuild reads.
    deferred_installed: BTreeMap<BucketId, Vec<Component>>,
}

impl std::fmt::Debug for PartitionDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionDataset")
            .field("buckets", &self.primary.num_buckets())
            .field("secondaries", &self.secondaries.len())
            .finish()
    }
}

impl PartitionDataset {
    fn new(
        spec: &DatasetSpec,
        initial_buckets: Vec<BucketId>,
        metrics: Arc<StorageMetrics>,
    ) -> Self {
        let lsm = LsmConfig::with_memtable_budget(spec.memtable_budget_bytes);
        let secondaries = spec
            .secondary_indexes
            .iter()
            .map(|d| SecondaryIndex::new(d.name.clone(), lsm.clone(), Arc::clone(&metrics)))
            .collect();
        let bucketed_cfg = BucketedConfig {
            lsm,
            max_bucket_size_bytes: spec.scheme.max_bucket_size_bytes().map(|b| b as usize),
            max_depth: 20,
        };
        PartitionDataset {
            primary: BucketedLsmTree::new(bucketed_cfg, initial_buckets, metrics),
            secondaries,
            defs: spec.secondary_indexes.clone(),
            deferred_installed: BTreeMap::new(),
        }
    }

    /// Ingests one record: the primary index and every secondary index are
    /// updated (a write group of one, see `PartitionDataset::write`).
    pub fn ingest(&mut self, key: Key, value: Value) -> Result<(), ClusterError> {
        self.write_one(Write::new(key, Some(value))).map(drop)
    }

    /// Writes one write as a group of one, routed to its local bucket here.
    fn write_one(&mut self, mut write: Write) -> Result<u64, ClusterError> {
        let hash = write.hash;
        write.bucket = (self.primary.bucket_of_hash(hash))
            .ok_or(StorageError::UnknownBucket(BucketId::of_hash(hash, 0)))?;
        self.write(&mut [write], &[(0, 0)], &[(0, 0)], |_| {})
    }

    /// Writes this partition's share of a routed write group and returns
    /// how many deletes found their record live. The share's positions come
    /// twice: `in_batch` in group order, `in_bucket` grouped by local bucket
    /// (the bucket each write is stamped with), group order kept within
    /// each bucket; without secondary indexes the two may be one order.
    /// Every secondary index takes the writes in group order — a put's
    /// extracted keys, and a delete's keys extracted from the payload it
    /// replaces, so index scans never return phantom hits — then the primary
    /// takes them in bucket order ([`BucketedLsmTree::apply_routed`]): every
    /// tree sees what applying the writes one at a time would show it, and
    /// each bucket's tree is resolved once. A delete reads the payload it
    /// replaces before the primary takes any write of the group, so a group
    /// that deletes a key writes nothing else to it (the feed only puts; a
    /// point delete is a group of one). `noted` hears the bucket of each
    /// primary write. The share's writes are left without keys or payloads.
    pub(crate) fn write(
        &mut self,
        writes: &mut [Write],
        in_batch: &[Keyed],
        in_bucket: &[Keyed],
        noted: impl FnMut(BucketId),
    ) -> Result<u64, ClusterError> {
        let mut live = 0;
        for write in in_batch.iter().map(|&(_, at)| &writes[at as usize]) {
            let old;
            let (payload, put) = match &write.value {
                Some(value) => (Some(value), true),
                None => {
                    old = self.primary.get(&write.key);
                    live += u64::from(old.is_some());
                    (old.as_ref(), false)
                }
            };
            let Some(payload) = payload else {
                continue;
            };
            for (def, idx) in self.defs.iter().zip(self.secondaries.iter_mut()) {
                if let Some(secondary) = (def.extractor)(payload) {
                    match put {
                        true => idx.insert(secondary, write.key.clone()),
                        false => idx.delete(secondary, write.key.clone()),
                    }
                }
            }
        }
        let entries = in_bucket.iter().map(|&(_, at)| {
            let write = &mut writes[at as usize];
            let op = write.value.take().map_or(Op::Delete, Op::Put);
            let key = std::mem::take(&mut write.key);
            (Entry { key, op }, write.hash, write.bucket)
        });
        (self.primary.apply_routed(entries, noted)).map_err(ClusterError::Storage)?;
        Ok(live)
    }

    /// Point lookup in the primary index.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.primary.get(key)
    }

    /// Deletes one record: a tombstone in the primary index and — driven by
    /// the old payload — deletes of the record's secondary entries, so index
    /// scans never return phantom hits for deleted records. Returns whether
    /// the record was live.
    pub fn delete(&mut self, key: &Key) -> Result<bool, ClusterError> {
        Ok(self.write_one(Write::new(key.clone(), None))? > 0)
    }

    /// Finds a secondary index by name.
    pub fn secondary_mut(&mut self, name: &str) -> Option<&mut SecondaryIndex> {
        self.secondaries.iter_mut().find(|s| s.name == name)
    }

    /// The one way a query opens a secondary index: checks that `name`
    /// exists, then warms every deferred rebuild
    /// ([`PartitionDataset::warm_secondary_indexes`]). Returns the records
    /// the warm processed, for the caller to charge, and the index's
    /// position in `secondaries`, so the caller can borrow `primary` beside
    /// it. The name is checked first, so a query naming an unknown index
    /// consumes no deferred stash.
    pub fn open_index(&mut self, name: &str) -> Result<(u64, usize), ClusterError> {
        let at = (self.secondaries.iter())
            .position(|s| s.name == name)
            .ok_or_else(|| ClusterError::UnknownIndex(name.to_string()))?;
        Ok((self.warm_secondary_indexes(), at))
    }

    /// Total storage bytes including secondary indexes.
    pub fn total_storage_bytes(&self) -> usize {
        self.primary.storage_bytes()
            + self
                .secondaries
                .iter()
                .map(|s| s.storage_bytes())
                .sum::<usize>()
    }

    /// Flushes all memory components (primary buckets, secondaries).
    pub fn flush_all(&mut self) {
        self.primary.flush_all();
        for s in self.secondaries.iter_mut() {
            s.flush();
        }
    }

    /// Runs merge policies everywhere. Returns the number of merges.
    pub fn run_merges(&mut self) -> usize {
        let mut n = self.primary.run_merges();
        for s in self.secondaries.iter_mut() {
            n += s.run_merges();
        }
        n
    }

    // --------------------------------------------------- rebalance source side

    /// After a committed rebalance: drops the moved buckets from the primary
    /// index and marks them for lazy cleanup in every secondary index — a
    /// metadata write per index component and no pass over any entry: the
    /// first query to reach a component applies the mark there ([`PartitionDataset::warm_secondary_indexes`] pre-pays it).
    /// Index entries still in a memory component are covered by the same
    /// mark (dead at once, dropped by the next flush), so nothing this
    /// partition ever wrote about the buckets — no key, no tombstone — can
    /// resurface under a bucket that is later received back and installed as
    /// oldest data.
    ///
    /// Deferred stashes are reconciled first: a stash a moved bucket fully
    /// covers is simply dropped (all of its entries would be hidden by the
    /// lazy-cleanup mark anyway), while a stash that covers *more* than a
    /// moved bucket (the received bucket split locally and only one child
    /// moves away) is materialized now — its component lands in the tree
    /// before the mark, so the mark's per-component filter hides exactly the
    /// moved child's entries and keeps the sibling's. Only covering stashes
    /// are materialized; unrelated deferred buckets keep waiting for their
    /// first query.
    ///
    /// Returns the number of records whose deferred entries had to be
    /// materialized here, so callers can charge the rebuild they triggered.
    pub fn cleanup_moved_buckets(&mut self, buckets: &[BucketId]) -> Result<u64, ClusterError> {
        self.deferred_installed
            .retain(|stash, _| !buckets.iter().any(|b| b.covers(stash)));
        let covering: Vec<BucketId> = self
            .deferred_installed
            .keys()
            .filter(|stash| buckets.iter().any(|b| stash.covers(b)))
            .copied()
            .collect();
        let stashes: Vec<Vec<Component>> = covering
            .iter()
            .filter_map(|b| self.deferred_installed.remove(b))
            .collect();
        let warmed = self.materialize_deferred(stashes);
        for b in buckets {
            self.primary
                .drop_bucket(*b)
                .map_err(ClusterError::Storage)?;
        }
        for s in self.secondaries.iter_mut() {
            s.mark_buckets_moved(buckets);
        }
        Ok(warmed)
    }

    // ---------------------------------------------- rebalance destination side

    /// Creates the pending bucket that will receive a moved bucket unless it
    /// already exists (the replication path may have re-created it after a
    /// destination crash, or a recovery retry may re-ship into it).
    pub fn ensure_pending_bucket(&mut self, bucket: BucketId) -> Result<(), ClusterError> {
        if self.primary.has_pending_bucket(&bucket) {
            return Ok(());
        }
        self.primary
            .create_pending_bucket(bucket)
            .map_err(ClusterError::Storage)
    }

    /// True if any installed bucket still awaits its deferred secondary
    /// rebuild.
    pub fn has_deferred_secondary(&self) -> bool {
        !self.deferred_installed.is_empty()
    }

    /// The index work a rebalance left for the first query. Materializes the
    /// secondary entries of every installed deferred bucket: the stashed
    /// components are merge-iterated once and the extracted entries land as
    /// the oldest data of each secondary index, so writes made after the
    /// install keep superseding them. Returns the number of records processed (0 when
    /// nothing was deferred), which callers charge as the off-commit-path
    /// rebuild cost. Then applies the lazy-cleanup marks still unapplied on
    /// the secondary-index components (O(components) when there is none).
    pub fn warm_secondary_indexes(&mut self) -> u64 {
        let stashes: Vec<Vec<Component>> = std::mem::take(&mut self.deferred_installed)
            .into_values()
            .collect();
        let warmed = self.materialize_deferred(stashes);
        for s in &self.secondaries {
            s.build_views();
        }
        warmed
    }

    /// Merge-iterates the given stashes once and loads the extracted entries
    /// as the oldest data of every visible secondary index. Returns the
    /// number of records processed.
    fn materialize_deferred(&mut self, stashes: Vec<Vec<Component>>) -> u64 {
        if stashes.is_empty() {
            return 0;
        }
        let mut records = 0u64;
        let mut rebuilt: Vec<Vec<SecondaryEntry>> = self.defs.iter().map(|_| Vec::new()).collect();
        for comps in &stashes {
            let mut merge = MergeIter::over_components(comps, false);
            while let Some((key, op)) = merge.next_ref() {
                records += 1;
                let Some(value) = op.value() else { continue };
                for (def, entries) in self.defs.iter().zip(rebuilt.iter_mut()) {
                    if let Some(secondary) = (def.extractor)(value) {
                        entries.push(SecondaryEntry {
                            secondary,
                            primary: key.clone(),
                        });
                    }
                }
            }
        }
        for (idx, rebuilt) in self.secondaries.iter_mut().zip(rebuilt) {
            idx.load_deferred_base(rebuilt);
        }
        records
    }

    /// Installs a received bucket (commit phase), making it visible by
    /// appending its pending components — no record is read or written.
    /// The installed bucket's components, after a flush of its memory
    /// component (a no-op after the prepare flush), become its deferred
    /// stash: the secondary entries wait for the first index query, which
    /// derives them from the bucket as installed. Idempotent: a bucket
    /// installed already is left alone.
    pub fn install_pending(&mut self, bucket: BucketId) -> Result<(), ClusterError> {
        let receiving = self.primary.has_pending_bucket(&bucket);
        self.primary
            .install_pending(bucket)
            .map_err(ClusterError::Storage)?;
        if receiving && !self.defs.is_empty() {
            let comps = (self.primary.snapshot_bucket(bucket)).map_err(ClusterError::Storage)?;
            self.deferred_installed.insert(bucket, comps);
        }
        Ok(())
    }
}

/// A storage partition: per-dataset storage plus shared metrics.
pub struct Partition {
    /// The partition id.
    pub id: PartitionId,
    /// Each dataset's storage, indexed by dataset id (`None` where the
    /// partition holds none of it).
    datasets: Vec<Option<PartitionDataset>>,
    metrics: Arc<StorageMetrics>,
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("datasets", &self.datasets.iter().flatten().count())
            .finish()
    }
}

impl Partition {
    /// Creates an empty partition.
    pub fn new(id: PartitionId) -> Self {
        Partition {
            id,
            datasets: Vec::new(),
            metrics: StorageMetrics::new_shared(),
        }
    }

    /// The partition's storage metrics.
    pub fn metrics(&self) -> &Arc<StorageMetrics> {
        &self.metrics
    }

    /// Creates the local storage for a dataset with the given initial buckets.
    pub fn create_dataset(
        &mut self,
        id: DatasetId,
        spec: &DatasetSpec,
        initial_buckets: Vec<BucketId>,
    ) {
        let at = id as usize;
        (self.datasets).resize_with(self.datasets.len().max(at + 1), || None);
        let metrics = Arc::clone(&self.metrics);
        self.datasets[at] = Some(PartitionDataset::new(spec, initial_buckets, metrics));
    }

    /// Drops a dataset's local storage.
    pub fn drop_dataset(&mut self, id: DatasetId) {
        if let Some(stored) = self.datasets.get_mut(id as usize) {
            *stored = None;
        }
    }

    /// Access a dataset's local storage.
    pub fn dataset(&self, id: DatasetId) -> Result<&PartitionDataset, ClusterError> {
        (self.datasets.get(id as usize))
            .and_then(Option::as_ref)
            .ok_or(ClusterError::UnknownDataset(id))
    }

    /// Mutable access to a dataset's local storage.
    pub fn dataset_mut(&mut self, id: DatasetId) -> Result<&mut PartitionDataset, ClusterError> {
        (self.datasets.get_mut(id as usize))
            .and_then(Option::as_mut)
            .ok_or(ClusterError::UnknownDataset(id))
    }

    /// Total storage bytes across datasets.
    pub fn total_storage_bytes(&self) -> usize {
        (self.datasets.iter().flatten())
            .map(|d| d.total_storage_bytes())
            .sum()
    }

    /// Discards the pending rebalance state of every dataset (crash path:
    /// the metadata registering an uncommitted transfer was never forced, so
    /// orphan received components are dropped on restart and the rebalance
    /// recovery path re-ships them).
    pub fn drop_all_pending(&mut self) {
        for ds in self.datasets.iter_mut().flatten() {
            ds.primary.drop_all_pending();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SecondaryIndexDef;
    use dynahash_core::Scheme;
    use dynahash_lsm::bucket::hash_key;
    use dynahash_lsm::{ComponentSource, Entry};

    fn spec_with_index() -> DatasetSpec {
        DatasetSpec::new("orders", Scheme::static_hash_256())
            .with_secondary_index(SecondaryIndexDef::new("idx_first8", |payload| {
                if payload.len() >= 8 {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&payload[..8]);
                    Some(Key::from_u64(u64::from_be_bytes(b)))
                } else {
                    None
                }
            }))
            .with_memtable_budget(8 * 1024)
    }

    fn all_buckets(depth: u8) -> Vec<BucketId> {
        (0..(1u32 << depth))
            .map(|b| BucketId::new(b, depth))
            .collect()
    }

    /// Whether the bucket's secondary entries still await their rebuild.
    fn is_deferred(ds: &PartitionDataset, bucket: &BucketId) -> bool {
        ds.deferred_installed.contains_key(bucket)
    }

    fn payload(secondary: u64) -> dynahash_lsm::Bytes {
        let mut v = secondary.to_be_bytes().to_vec();
        v.extend_from_slice(&[0u8; 56]);
        dynahash_lsm::Bytes::from(v)
    }

    #[test]
    fn ingest_updates_all_indexes() {
        let mut p = Partition::new(PartitionId(0));
        p.create_dataset(1, &spec_with_index(), all_buckets(2));
        let ds = p.dataset_mut(1).unwrap();
        for i in 0..300u64 {
            ds.ingest(Key::from_u64(i), payload(i % 10)).unwrap();
        }
        assert_eq!(ds.primary.live_len(), 300);
        assert!(ds.get(&Key::from_u64(5)).is_some());
        // secondary search finds all records with secondary key 3
        let hits = ds
            .secondary_mut("idx_first8")
            .unwrap()
            .search_range(Some(&Key::from_u64(3)), Some(&Key::from_u64(4)));
        assert_eq!(hits.len(), 30);
        assert!(ds.total_storage_bytes() > 0);
        assert!(p.dataset(1).is_ok());
    }

    #[test]
    fn move_bucket_between_partitions_end_to_end() {
        let spec = spec_with_index();
        let mut src = Partition::new(PartitionId(0));
        let mut dst = Partition::new(PartitionId(1));
        src.create_dataset(1, &spec, all_buckets(1));
        dst.create_dataset(1, &spec, vec![]);

        let moved_bucket = BucketId::new(0, 1);
        {
            let ds = src.dataset_mut(1).unwrap();
            for i in 0..400u64 {
                ds.ingest(Key::from_u64(i), payload(i % 7)).unwrap();
            }
        }
        // source: the bucket's records, as a repair feed would supply them,
        // built into one component as a repair's plan builds it
        let entries = src
            .dataset(1)
            .unwrap()
            .primary
            .scan_bucket(moved_bucket)
            .unwrap();
        let moved_count = entries.len();
        assert!(moved_count > 0);
        let concurrent_key = entries[0].key.clone();
        let feed = Component::from_unsorted(entries, ComponentSource::Loaded);

        // destination: the staged component + a replicated concurrent write
        let dst_ds = dst.dataset_mut(1).unwrap();
        dst_ds.ensure_pending_bucket(moved_bucket).unwrap();
        dst_ds
            .primary
            .install_shipped(moved_bucket, vec![feed])
            .unwrap();
        dst_ds
            .primary
            .apply_replicated(
                moved_bucket,
                Entry::put(concurrent_key.clone(), payload(99)),
                hash_key(&concurrent_key),
            )
            .unwrap();
        assert_eq!(
            dst_ds.primary.live_len(),
            0,
            "pending data must stay invisible"
        );

        // finalize: install at destination, cleanup at source
        dst_ds.primary.flush_pending();
        dst_ds.install_pending(moved_bucket).unwrap();
        assert_eq!(dst_ds.primary.live_len(), moved_count);
        assert_eq!(dst_ds.get(&concurrent_key).unwrap(), payload(99));
        // the index learns the installed bucket on its first query: the
        // overwritten record has its current entry and nothing else
        let (warmed, at) = dst_ds.open_index("idx_first8").unwrap();
        assert_eq!(warmed, moved_count as u64);
        let entries = dst_ds.secondaries[at].all_valid_entries();
        assert_eq!(entries.len(), moved_count);
        let of_key: Vec<_> = entries
            .iter()
            .filter(|se| se.primary == concurrent_key)
            .collect();
        assert_eq!(of_key.len(), 1);
        assert_eq!(of_key[0].secondary, Key::from_u64(99));

        let src_ds = src.dataset_mut(1).unwrap();
        let before = src_ds.primary.live_len();
        src_ds.cleanup_moved_buckets(&[moved_bucket]).unwrap();
        assert_eq!(src_ds.primary.live_len(), before - moved_count);
        // lazy cleanup: secondary queries no longer return moved records
        let stale = src_ds
            .secondary_mut("idx_first8")
            .unwrap()
            .all_valid_entries();
        assert!(stale
            .iter()
            .all(|se| !moved_bucket.contains_key(&se.primary)));
    }

    /// Ships bucket `moved` from `src` into `dst` and returns the number of
    /// live records it holds at the source.
    fn ship_into(src: &mut Partition, dst: &mut Partition, moved: BucketId) -> u64 {
        let src_ds = src.dataset_mut(1).unwrap();
        let live = src_ds.primary.bucket_tree(&moved).unwrap().live_len();
        let comps = src_ds.primary.ship_bucket(moved).unwrap();
        let dst_ds = dst.dataset_mut(1).unwrap();
        dst_ds.ensure_pending_bucket(moved).unwrap();
        dst_ds.primary.install_shipped(moved, comps).unwrap();
        live as u64
    }

    #[test]
    fn a_component_install_keeps_exactly_the_live_records() {
        let moved = BucketId::new(0, 1);
        let indexed = spec_with_index();
        let plain =
            DatasetSpec::new("orders", Scheme::static_hash_256()).with_memtable_budget(8 * 1024);
        for spec in [&indexed, &plain] {
            let ctx = format!("{} index(es)", spec.secondary_indexes.len());
            let mut src = Partition::new(PartitionId(0));
            let mut dst = Partition::new(PartitionId(1));
            src.create_dataset(1, spec, all_buckets(1));
            dst.create_dataset(1, spec, vec![]);
            // Overwrites and tombstones land in newer components than the
            // records they shadow.
            let ds = src.dataset_mut(1).unwrap();
            for i in 0..400u64 {
                ds.ingest(Key::from_u64(i), payload(i % 7)).unwrap();
            }
            for i in 0..200u64 {
                ds.ingest(Key::from_u64(i), payload(i % 5)).unwrap();
            }
            for i in 300..360u64 {
                ds.delete(&Key::from_u64(i)).unwrap();
            }
            let comps = ds.primary.ship_bucket(moved).unwrap();
            let source_live = ds.primary.bucket_tree(&moved).unwrap().live_len();
            let stored: usize = comps.iter().map(Component::visible_len).sum();
            assert!(comps.len() >= 2, "{ctx}: one component shipped");
            assert!(stored > source_live, "{ctx}: nothing shadowed");

            let dst_ds = dst.dataset_mut(1).unwrap();
            dst_ds.ensure_pending_bucket(moved).unwrap();
            dst_ds.primary.install_shipped(moved, comps).unwrap();
            dst_ds.primary.flush_pending();
            dst_ds.install_pending(moved).unwrap();
            // only an indexed dataset has index entries to defer
            assert_eq!(
                is_deferred(dst_ds, &moved),
                !spec.secondary_indexes.is_empty(),
                "{ctx}"
            );
            let installed = dst_ds.primary.bucket_tree(&moved).unwrap().live_len();
            assert_eq!(installed, source_live, "{ctx}");
        }
    }

    /// A write reaches its bucket's tree and each secondary index once; a
    /// replicated write reaches its pending bucket and no index.
    #[test]
    fn a_write_reaches_its_bucket_and_each_secondary_index_once() {
        let plain = DatasetSpec::new("orders", Scheme::static_hash_256());
        for spec in [spec_with_index(), plain] {
            let fan_out = 1 + spec.secondary_indexes.len() as u64;
            let mut p = Partition::new(PartitionId(0));
            p.create_dataset(1, &spec, all_buckets(1));
            let metrics = Arc::clone(p.metrics());
            let written = || metrics.snapshot().records_written;
            let ds = p.dataset_mut(1).unwrap();

            let before = written();
            ds.ingest(Key::from_u64(7), payload(3)).unwrap();
            assert_eq!(written() - before, fan_out, "a client write");

            let pending = BucketId::new(0, 2);
            let key = (0..).map(Key::from_u64).find(|k| pending.contains_key(k));
            let key = key.unwrap();
            let hash = hash_key(&key);
            ds.ensure_pending_bucket(pending).unwrap();
            let before = written();
            ds.primary
                .apply_replicated(pending, Entry::put(key, payload(4)), hash)
                .unwrap();
            assert_eq!(written() - before, 1, "a replicated write");
        }
    }

    #[test]
    fn deferred_install_answers_index_scans_like_eager() {
        let spec = spec_with_index();
        let moved = BucketId::new(0, 1);
        let mut src = Partition::new(PartitionId(0));
        let mut dst = Partition::new(PartitionId(1));
        src.create_dataset(1, &spec, all_buckets(1));
        dst.create_dataset(1, &spec, vec![]);
        for i in 0..400u64 {
            src.dataset_mut(1)
                .unwrap()
                .ingest(Key::from_u64(i), payload(i % 7))
                .unwrap();
        }
        let records = ship_into(&mut src, &mut dst, moved);
        assert!(records > 0);
        let dst_ds = dst.dataset_mut(1).unwrap();
        // a replicated concurrent delete must supersede the deferred base
        let victim = src
            .dataset(1)
            .unwrap()
            .primary
            .bucket_tree(&moved)
            .unwrap()
            .scan_all()[0]
            .key
            .clone();
        dst_ds
            .primary
            .apply_replicated(moved, Entry::delete(victim.clone()), hash_key(&victim))
            .unwrap();
        dst_ds.primary.flush_pending();
        dst_ds.install_pending(moved).unwrap();
        assert!(is_deferred(dst_ds, &moved));
        assert!(dst_ds.has_deferred_secondary());
        // warming is what an index scan does on first touch: it reads the
        // bucket as installed, the victim's tombstone included; afterwards
        // the bucket is Ready and a second warm is free
        assert_eq!(dst_ds.warm_secondary_indexes(), records - 1);
        assert!(!is_deferred(dst_ds, &moved));
        assert_eq!(dst_ds.warm_secondary_indexes(), 0);
        let mut hits = dst_ds
            .secondary_mut("idx_first8")
            .unwrap()
            .all_valid_entries();
        hits.sort();
        assert!(
            hits.iter().all(|se| se.primary != victim),
            "replicated delete must hide the victim's index entry"
        );
        // the index an eager build would hold: one entry per live record of
        // the installed bucket, its secondary key read off the payload
        let installed = dst_ds.primary.bucket_tree(&moved).unwrap().scan_all();
        let mut built: Vec<SecondaryEntry> = installed
            .into_iter()
            .filter_map(|e| {
                let v = e.op.value()?;
                let secondary = u64::from_be_bytes(v[..8].try_into().unwrap());
                Some(SecondaryEntry {
                    secondary: Key::from_u64(secondary),
                    primary: e.key,
                })
            })
            .collect();
        built.sort();
        assert_eq!(
            hits, built,
            "deferred rebuild must answer index scans like an index built from the records"
        );
    }

    #[test]
    fn dropping_pending_leaves_nothing_to_warm() {
        let spec = spec_with_index();
        let moved = BucketId::new(0, 1);
        let mut src = Partition::new(PartitionId(0));
        let mut dst = Partition::new(PartitionId(1));
        src.create_dataset(1, &spec, all_buckets(1));
        dst.create_dataset(1, &spec, vec![]);
        for i in 0..200u64 {
            src.dataset_mut(1)
                .unwrap()
                .ingest(Key::from_u64(i), payload(i % 5))
                .unwrap();
        }
        ship_into(&mut src, &mut dst, moved);
        let dst_ds = dst.dataset_mut(1).unwrap();
        // a pending bucket stashes nothing: the install takes the stash
        assert!(!is_deferred(dst_ds, &moved));
        // crash/abort wipes the pending bucket: nothing to install or warm
        dst_ds.primary.drop_all_pending();
        assert!(dst_ds.install_pending(moved).is_err());
        assert!(!is_deferred(dst_ds, &moved));
        assert_eq!(dst_ds.warm_secondary_indexes(), 0);
        assert!(dst_ds
            .secondary_mut("idx_first8")
            .unwrap()
            .all_valid_entries()
            .is_empty());
    }

    #[test]
    fn cleanup_of_a_split_child_materializes_the_sibling_entries() {
        // A bucket installed with a deferred stash splits locally; one child
        // then moves away. The cleanup must materialize the stash before the
        // lazy-cleanup mark so the remaining sibling's entries survive.
        let spec = spec_with_index();
        let moved = BucketId::new(0, 1);
        let mut src = Partition::new(PartitionId(0));
        let mut dst = Partition::new(PartitionId(1));
        src.create_dataset(1, &spec, all_buckets(1));
        dst.create_dataset(1, &spec, vec![]);
        for i in 0..300u64 {
            src.dataset_mut(1)
                .unwrap()
                .ingest(Key::from_u64(i), payload(i))
                .unwrap();
        }
        ship_into(&mut src, &mut dst, moved);
        let dst_ds = dst.dataset_mut(1).unwrap();
        dst_ds.install_pending(moved).unwrap();
        let (lo, hi) = dst_ds.primary.split_bucket(moved).unwrap();
        let keep = dst_ds.primary.bucket_tree(&lo).unwrap().scan_all().len();
        assert!(keep > 0);
        // `hi` moves away before any index scan warmed the stash
        dst_ds.cleanup_moved_buckets(&[hi]).unwrap();
        assert!(!dst_ds.has_deferred_secondary());
        let hits = dst_ds
            .secondary_mut("idx_first8")
            .unwrap()
            .all_valid_entries();
        assert_eq!(hits.len(), keep, "sibling entries must survive");
        assert!(hits.iter().all(|se| lo.contains_key(&se.primary)));
        // ...and cleaning up a bucket that covers the whole stash drops it
        let mut dst2 = Partition::new(PartitionId(2));
        dst2.create_dataset(1, &spec, vec![]);
        ship_into(&mut src, &mut dst2, moved);
        let ds2 = dst2.dataset_mut(1).unwrap();
        ds2.install_pending(moved).unwrap();
        ds2.cleanup_moved_buckets(&[moved]).unwrap();
        assert!(!ds2.has_deferred_secondary());
        assert_eq!(ds2.warm_secondary_indexes(), 0);
    }

    #[test]
    fn abort_discards_pending_data() {
        let spec = spec_with_index();
        let mut dst = Partition::new(PartitionId(1));
        dst.create_dataset(1, &spec, all_buckets(1));
        let b = BucketId::new(0, 2); // not owned: pending only
        let ds = dst.dataset_mut(1).unwrap();
        ds.ensure_pending_bucket(b).unwrap();
        let feed = Component::from_unsorted(
            vec![Entry::put(Key::from_u64(1), payload(1))],
            ComponentSource::Loaded,
        );
        ds.primary.install_shipped(b, vec![feed]).unwrap();
        ds.primary.drop_all_pending();
        // installing after a drop fails gracefully, data stays invisible
        assert!(ds.install_pending(b).is_err());
        assert_eq!(ds.get(&Key::from_u64(1)), None);
    }

    #[test]
    fn unknown_dataset_errors() {
        let mut p = Partition::new(PartitionId(3));
        assert!(p.dataset(9).is_err());
        assert!(p.dataset_mut(9).is_err());
        p.create_dataset(
            9,
            &DatasetSpec::new("x", Scheme::Hashing),
            vec![BucketId::root()],
        );
        assert!(p.dataset(9).is_ok());
        p.drop_dataset(9);
        assert!(p.dataset(9).is_err());
    }
}
