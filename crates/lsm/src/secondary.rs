//! Secondary LSM indexes.
//!
//! Secondary indexes store the composition of the secondary key and the
//! primary key as their index keys (AsterixDB convention). Unlike the primary
//! index, secondary indexes store **all buckets together** in one LSM-tree
//! (storage Option 1, Section IV): they never have to be read during a
//! rebalance because they are rebuilt on the fly at the destination.
//!
//! After a committed rebalance the entries of moved buckets become obsolete.
//! They are removed with **lazy cleanup** (Section V-C): the moved bucket's
//! `(hash, depth)` is recorded in the index metadata, queries validate
//! results against this list (skipping entries whose *primary key* belongs to
//! a moved bucket), and the physical cleanup happens at the next compaction.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::bucket::BucketId;
use crate::component::{Component, ComponentSource, KeyLayout};
use crate::entry::{Entry, Key};
use crate::metrics::StorageMetrics;
use crate::tree::{LsmConfig, LsmTree};

/// A decoded secondary-index entry: the secondary key plus the primary key of
/// the record it points at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SecondaryEntry {
    /// The secondary (indexed) key.
    pub secondary: Key,
    /// The primary key of the indexed record.
    pub primary: Key,
}

impl SecondaryEntry {
    /// Encodes the entry as a single composite index key:
    /// `secondary || primary || len(primary) as u16 BE`.
    pub fn encode(&self) -> Key {
        let mut v = Vec::with_capacity(self.secondary.len() + self.primary.len() + 2);
        v.extend_from_slice(self.secondary.as_slice());
        v.extend_from_slice(self.primary.as_slice());
        v.extend_from_slice(&(self.primary.len() as u16).to_be_bytes());
        Key::from_bytes(v)
    }

    /// Splits the bytes of a composite index key into its `(secondary,
    /// primary)` parts without copying. Returns `None` for malformed keys.
    pub(crate) fn split(raw: &[u8]) -> Option<(&[u8], &[u8])> {
        let body = raw.len().checked_sub(2)?;
        let plen = u16::from_be_bytes([raw[body], raw[body + 1]]) as usize;
        let split = body.checked_sub(plen)?;
        Some((&raw[..split], &raw[split..body]))
    }

    /// Decodes a composite index key produced by [`SecondaryEntry::encode`].
    /// Returns `None` for malformed keys.
    pub fn decode(key: &Key) -> Option<SecondaryEntry> {
        let (secondary, primary) = Self::split(key.as_slice())?;
        Some(SecondaryEntry {
            secondary: Key::from_bytes(secondary.to_vec()),
            primary: Key::from_bytes(primary.to_vec()),
        })
    }
}

/// A secondary index over one dataset partition.
#[derive(Debug)]
pub struct SecondaryIndex {
    /// Human-readable index name (e.g. `idx_lineitem_shipdate`).
    pub name: String,
    tree: LsmTree,
    /// Buckets whose entries are obsolete, for reporting only: the filtering
    /// lives in the per-component metadata (so that a bucket received back
    /// later is not affected).
    invalid_buckets: BTreeSet<BucketId>,
    /// Pending component list receiving rebalanced data, invisible to queries.
    pending: Option<LsmTree>,
    lsm_config: LsmConfig,
    metrics: Arc<StorageMetrics>,
    /// Number of obsolete entries still physically present (estimated at
    /// mark time, cleared by compaction).
    obsolete_remaining: u64,
    /// Cumulative obsolete-entry validation work performed by queries since
    /// the last compaction (quantifies the lazy-cleanup overhead).
    obsolete_skipped: u64,
}

impl SecondaryIndex {
    /// Creates an empty secondary index.
    pub fn new(name: impl Into<String>, config: LsmConfig, metrics: Arc<StorageMetrics>) -> Self {
        SecondaryIndex {
            name: name.into(),
            tree: LsmTree::new(config.clone(), Arc::clone(&metrics)),
            invalid_buckets: BTreeSet::new(),
            pending: None,
            lsm_config: config,
            metrics,
            obsolete_remaining: 0,
            obsolete_skipped: 0,
        }
    }

    /// Inserts a secondary-index entry.
    pub fn insert(&mut self, secondary: Key, primary: Key) {
        let composite = SecondaryEntry { secondary, primary }.encode();
        self.tree.put(composite, crate::Bytes::new());
    }

    /// Deletes a secondary-index entry (requires knowing the old secondary key).
    pub fn delete(&mut self, secondary: Key, primary: Key) {
        let composite = SecondaryEntry { secondary, primary }.encode();
        self.tree.delete(composite);
    }

    /// Searches for all primary keys whose secondary key is in
    /// `[lo, hi)` (unbounded when `None`). Obsolete entries of moved buckets
    /// are filtered by the per-component lazy-cleanup metadata; the
    /// validation work they cause is accounted in
    /// [`SecondaryIndex::obsolete_entries_skipped`].
    pub fn search_range(&mut self, lo: Option<&Key>, hi: Option<&Key>) -> Vec<SecondaryEntry> {
        // The composite keys are ordered by secondary key first, so prefix
        // bounds on the secondary key translate directly.
        let entries = self.tree.scan(lo, hi);
        let mut out = Vec::with_capacity(entries.len());
        for e in entries {
            if let Some(se) = SecondaryEntry::decode(&e.key) {
                // An encoded composite >= hi can slip in when hi is a bare
                // secondary-key prefix; filter exactly on the decoded key.
                if let Some(h) = hi {
                    if &se.secondary >= h {
                        continue;
                    }
                }
                if let Some(l) = lo {
                    if &se.secondary < l {
                        continue;
                    }
                }
                out.push(se);
            }
        }
        // Every query over an index with pending lazy cleanup has to validate
        // (and discard) the still-present obsolete entries; account that work.
        self.obsolete_skipped += self.obsolete_remaining;
        out
    }

    /// Searches for the primary keys with exactly this secondary key.
    pub fn search_exact(&mut self, secondary: &Key) -> Vec<Key> {
        let mut hi = secondary.as_slice().to_vec();
        hi.push(0xff);
        hi.push(0xff);
        hi.push(0xff);
        let hi = Key::from_bytes(hi);
        self.search_range(Some(secondary), Some(&hi))
            .into_iter()
            .filter(|se| &se.secondary == secondary)
            .map(|se| se.primary)
            .collect()
    }

    // ------------------------------------------------------------ rebalancing

    /// Records moved buckets for lazy cleanup: each bucket's `(hash, depth)`
    /// is added to the metadata of every **current** component (and of the
    /// memory component), so its entries disappear from queries immediately
    /// while the physical removal waits for the next merge, flush or
    /// [`SecondaryIndex::compact`]. Data added later (e.g. the same bucket
    /// received back by a future rebalance) is unaffected — which is why
    /// every call stamps the current components afresh, whatever an earlier
    /// call recorded. One streaming count of the newly obsolete entries and
    /// one pass per component serve the whole set, and nothing is flushed;
    /// the count sees only currently visible entries, so marking again adds
    /// nothing.
    pub fn mark_buckets_moved(&mut self, buckets: &[BucketId]) {
        self.obsolete_remaining += self
            .tree
            .count_live_in_buckets(buckets, KeyLayout::SecondaryComposite);
        self.tree
            .mark_buckets_invalid(buckets, KeyLayout::SecondaryComposite);
        self.invalid_buckets.extend(buckets);
    }

    /// The buckets marked for lazy cleanup since the last compaction.
    pub fn invalid_buckets(&self) -> &BTreeSet<BucketId> {
        &self.invalid_buckets
    }

    /// Number of obsolete entries that queries had to skip since the last
    /// compaction (the lazy-cleanup overhead reported in the experiments).
    pub fn obsolete_entries_skipped(&self) -> u64 {
        self.obsolete_skipped
    }

    /// Ensures the pending component list exists (destination side of a
    /// rebalance). Received entries go into a single list regardless of how
    /// many buckets are being received (the paper's optimization to limit
    /// the number of components).
    fn pending_tree(&mut self) -> &mut LsmTree {
        self.pending
            .get_or_insert_with(|| LsmTree::new(self.lsm_config.clone(), Arc::clone(&self.metrics)))
    }

    /// Bulk-loads received secondary entries into the invisible pending list.
    pub fn load_into_pending(&mut self, entries: Vec<SecondaryEntry>) {
        let raw: Vec<Entry> = entries
            .into_iter()
            .map(|se| Entry::put(se.encode(), crate::Bytes::new()))
            .collect();
        let comp = Component::from_unsorted(raw, ComponentSource::Loaded);
        StorageMetrics::add(
            &self.metrics.bytes_rebalance_loaded,
            comp.size_bytes() as u64,
        );
        self.pending_tree().append_oldest_components(vec![comp]);
    }

    /// Bulk-loads lazily rebuilt base entries of a received bucket as the
    /// **oldest** data of the visible tree (deferred secondary rebuild: the
    /// bucket was installed without its base entries, which are derived from
    /// the shipped primary components on first query). Appending oldest
    /// keeps replicated writes — installed at commit time, and therefore
    /// already in the tree — newer than the base data they supersede,
    /// exactly as the eager path orders its bulk-loaded pending component.
    pub fn load_deferred_base(&mut self, entries: Vec<SecondaryEntry>) {
        if entries.is_empty() {
            return;
        }
        let raw: Vec<Entry> = entries
            .into_iter()
            .map(|se| Entry::put(se.encode(), crate::Bytes::new()))
            .collect();
        let comp = Component::from_unsorted(raw, ComponentSource::Loaded);
        StorageMetrics::add(
            &self.metrics.bytes_rebalance_loaded,
            comp.size_bytes() as u64,
        );
        self.tree.append_oldest_components(vec![comp]);
    }

    /// Applies a replicated concurrent write to the pending list.
    pub fn apply_replicated(&mut self, secondary: Key, primary: Key, op_is_delete: bool) {
        let composite = SecondaryEntry { secondary, primary }.encode();
        let entry = if op_is_delete {
            Entry::delete(composite)
        } else {
            Entry::put(composite, crate::Bytes::new())
        };
        self.pending_tree().apply(entry);
    }

    /// Flushes the pending list's memory component (prepare phase).
    pub fn flush_pending(&mut self) {
        if let Some(p) = self.pending.as_mut() {
            p.flush();
        }
    }

    /// Installs the pending component list, making received entries visible
    /// (commit phase). Idempotent when there is nothing pending.
    pub fn install_pending(&mut self) {
        if let Some(mut p) = self.pending.take() {
            p.flush();
            let comps = p.components().to_vec();
            // Received data is disjoint (by bucket) from local data, so the
            // position in the list does not affect reconciliation with local
            // writes; within the received list, replicated records are
            // already newer than loaded ones.
            self.tree.append_oldest_components(comps);
        }
    }

    /// Discards the pending component list (abort path). Idempotent.
    pub fn drop_pending(&mut self) {
        self.pending = None;
    }

    /// True if a pending component list exists.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    // ------------------------------------------------------------ maintenance

    /// Flushes the in-memory component.
    pub fn flush(&mut self) {
        self.tree.flush();
    }

    /// Compacts the index, physically removing obsolete entries of moved
    /// buckets and clearing the lazy-cleanup metadata.
    pub fn compact(&mut self) {
        self.tree.flush();
        // The scan already applies the per-component lazy-cleanup filters, so
        // rewriting its output is exactly the physical cleanup.
        let retained = self.tree.scan_all();
        let read_bytes = self.tree.disk_size_bytes();
        StorageMetrics::add(&self.metrics.bytes_merge_read, read_bytes as u64);
        let comp = Component::from_unsorted(retained, ComponentSource::Merge);
        StorageMetrics::add(&self.metrics.bytes_merged, comp.size_bytes() as u64);
        StorageMetrics::add(&self.metrics.merge_count, 1);
        self.tree.set_components(vec![comp]);
        self.invalid_buckets.clear();
        self.obsolete_remaining = 0;
        self.obsolete_skipped = 0;
    }

    /// Runs the regular merge policy.
    pub fn run_merges(&mut self) -> usize {
        self.tree.run_merges()
    }

    /// Number of live index entries **including** obsolete ones that lazy
    /// cleanup has not yet removed.
    pub fn raw_len(&self) -> usize {
        self.tree.live_len()
    }

    /// Storage bytes used by the index (visible plus pending).
    pub fn storage_bytes(&self) -> usize {
        self.tree.storage_bytes()
            + self
                .pending
                .as_ref()
                .map(|p| p.storage_bytes())
                .unwrap_or(0)
    }

    /// Iterates every live, valid entry (used for rebuilding and tests).
    pub fn all_valid_entries(&mut self) -> Vec<SecondaryEntry> {
        self.search_range(None, None)
    }
}

/// Builds the secondary-index entries for a record given an extractor from
/// the record payload to the secondary key. Shared by ingestion and by the
/// rebalance destination, which rebuilds secondary indexes on the fly.
pub fn index_record<F>(primary: &Key, payload: &[u8], extract: F) -> Option<SecondaryEntry>
where
    F: Fn(&[u8]) -> Option<Key>,
{
    extract(payload).map(|secondary| SecondaryEntry {
        secondary,
        primary: primary.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> SecondaryIndex {
        SecondaryIndex::new(
            "idx_test",
            LsmConfig::with_memtable_budget(1 << 14),
            StorageMetrics::new_shared(),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let se = SecondaryEntry {
            secondary: Key::from_u64(20240101),
            primary: Key::from_pair(7, 3),
        };
        let enc = se.encode();
        assert_eq!(SecondaryEntry::decode(&enc).unwrap(), se);
    }

    #[test]
    fn search_by_secondary_range() {
        let mut i = idx();
        for pk in 0..100u64 {
            // secondary key = pk / 10 (10 records per secondary value)
            i.insert(Key::from_u64(pk / 10), Key::from_u64(pk));
        }
        let lo = Key::from_u64(3);
        let hi = Key::from_u64(5);
        let hits = i.search_range(Some(&lo), Some(&hi));
        assert_eq!(hits.len(), 20);
        assert!(hits
            .iter()
            .all(|se| (3..5).contains(&se.secondary.as_u64())));
        let exact = i.search_exact(&Key::from_u64(7));
        assert_eq!(exact.len(), 10);
        assert!(exact.iter().all(|pk| pk.as_u64() / 10 == 7));
    }

    #[test]
    fn lazy_cleanup_hides_moved_bucket_entries() {
        let mut i = idx();
        for pk in 0..200u64 {
            i.insert(Key::from_u64(pk % 13), Key::from_u64(pk));
        }
        let moved = BucketId::new(1, 1);
        let before = i.all_valid_entries();
        assert_eq!(before.len(), 200);
        let moved_count = before
            .iter()
            .filter(|se| moved.contains_key(&se.primary))
            .count();
        assert!(moved_count > 0);

        i.mark_buckets_moved(&[moved]);
        let valid = i.all_valid_entries();
        assert_eq!(valid.len(), 200 - moved_count);
        assert!(valid.iter().all(|se| !moved.contains_key(&se.primary)));
        assert!(i.obsolete_entries_skipped() > 0);

        // physical cleanup
        i.compact();
        assert!(i.invalid_buckets().is_empty());
        assert_eq!(i.raw_len(), 200 - moved_count);
    }

    #[test]
    fn pending_entries_invisible_until_installed() {
        let mut i = idx();
        i.insert(Key::from_u64(1), Key::from_u64(100));
        let received: Vec<SecondaryEntry> = (0..50u64)
            .map(|pk| SecondaryEntry {
                secondary: Key::from_u64(pk % 5),
                primary: Key::from_u64(1000 + pk),
            })
            .collect();
        i.load_into_pending(received);
        i.apply_replicated(Key::from_u64(2), Key::from_u64(2000), false);
        assert_eq!(i.all_valid_entries().len(), 1);
        assert!(i.has_pending());

        i.flush_pending();
        i.install_pending();
        assert!(!i.has_pending());
        assert_eq!(i.all_valid_entries().len(), 1 + 50 + 1);
        // abort path on a fresh index: dropping nothing is fine
        i.drop_pending();
    }

    #[test]
    fn drop_pending_discards_received_data() {
        let mut i = idx();
        i.load_into_pending(vec![SecondaryEntry {
            secondary: Key::from_u64(1),
            primary: Key::from_u64(2),
        }]);
        i.drop_pending();
        i.install_pending(); // nothing to install
        assert_eq!(i.all_valid_entries().len(), 0);
    }

    /// The pre-change membership test: decode the composite (two `Vec`s per
    /// call) and hash the primary key, once per bucket.
    fn old_key_in_bucket(layout: KeyLayout, key: &Key, bucket: &BucketId) -> bool {
        match layout {
            KeyLayout::PrimaryKey => bucket.contains_key(key),
            KeyLayout::SecondaryComposite => match SecondaryEntry::decode(key) {
                Some(se) => bucket.contains_key(&se.primary),
                None => bucket.contains_key(key),
            },
        }
    }

    /// Batch ≡ sequential: marking `&[b1..bk]` at once yields the visible
    /// entries, `visible_len`, `visible_size_bytes` and obsolete count that
    /// marking one bucket at a time did under the pre-change algorithm (kept
    /// here as the oracle: per bucket a materialised reconciling merge,
    /// filtered through `decode`, then one more filter on every component),
    /// for random component sets, bucket sets and both key layouts — and
    /// marking twice changes nothing. The old code flushed before marking;
    /// the new code leaves the memory component in place and must hide the
    /// same entries there (the oracle sees it as the newest component).
    #[test]
    fn prop_batch_mark_matches_the_sequential_oracle() {
        use crate::iterator::oracle::merge_live;
        use crate::rng::SplitMix64;

        for seed in 0..48u64 {
            let mut rng = SplitMix64::seed_from_u64(0xba7c_0000 + seed);
            let layout = if seed % 2 == 0 {
                KeyLayout::PrimaryKey
            } else {
                KeyLayout::SecondaryComposite
            };
            let key_of = |k: u64| match layout {
                KeyLayout::PrimaryKey => Key::from_u64(k),
                KeyLayout::SecondaryComposite => SecondaryEntry {
                    secondary: Key::from_u64(k % 7),
                    primary: Key::from_u64(k),
                }
                .encode(),
            };
            let config = LsmConfig {
                auto_flush: false,
                auto_merge: false,
                ..LsmConfig::default()
            };
            // Primary-key trees may hold reference components of a split
            // (which flushes); otherwise the last round may stay buffered.
            let split = (layout == KeyLayout::PrimaryKey && rng.gen_ratio(1, 2))
                .then(|| BucketId::new(rng.gen_range(0..2) as u32, 1));
            let buffered = split.is_none() && rng.gen_ratio(1, 2);
            let mut tree = LsmTree::new(config.clone(), StorageMetrics::new_shared());
            let rounds = rng.gen_range(1..6);
            for round in 0..rounds {
                for _ in 0..rng.gen_range(1..80) {
                    let key = key_of(rng.gen_range(0..150));
                    if rng.gen_ratio(1, 4) {
                        tree.delete(key);
                    } else {
                        tree.put(key, crate::Bytes::from(vec![1u8; rng.gen_index(9)]));
                    }
                }
                if !(buffered && round + 1 == rounds) {
                    tree.flush();
                }
            }
            let in_memory = tree.memtable().snapshot_sorted();
            let mut raw = tree.components().to_vec();
            if let Some(b) = split {
                tree.set_components(raw.iter().map(|c| c.restrict_to_bucket(b)).collect());
            }
            if buffered {
                let flushed = Component::from_sorted(in_memory.clone(), ComponentSource::Flush);
                raw.insert(0, flushed);
            }
            // Disjoint buckets: a strict, non-empty subset of one depth.
            let depth = rng.gen_range(1..4) as u8;
            let mut buckets: Vec<BucketId> = (0..1u32 << depth)
                .filter(|_| rng.gen_ratio(1, 2))
                .map(|bits| BucketId::new(bits, depth))
                .collect();
            if buckets.is_empty() || buckets.len() == 1 << depth {
                buckets = vec![BucketId::new(0, depth)];
            }
            let ctx = format!(
                "seed {seed}: {layout:?}, split {split:?}, buffered {buffered}, marking {buckets:?}"
            );

            // Oracle: the old loop, one bucket at a time.
            let visible = |c: &Component, invalid: &[BucketId]| -> Vec<Entry> {
                c.iter()
                    .filter(|e| split.is_none_or(|b| old_key_in_bucket(layout, &e.key, &b)))
                    .filter(|e| !invalid.iter().any(|b| old_key_in_bucket(layout, &e.key, b)))
                    .cloned()
                    .collect()
            };
            let mut marked: Vec<BucketId> = Vec::new();
            let mut obsolete = 0u64;
            for b in &buckets {
                let live = merge_live(raw.iter().map(|c| visible(c, &marked)).collect());
                obsolete += live
                    .iter()
                    .filter(|e| old_key_in_bucket(layout, &e.key, b))
                    .count() as u64;
                marked.push(*b);
            }

            // One at a time through the new code, on a second handle set.
            let mut stepwise = LsmTree::new(config.clone(), StorageMetrics::new_shared());
            stepwise.set_components(tree.components().to_vec());
            for e in in_memory {
                stepwise.apply(e);
            }
            let mut stepwise_obsolete = 0;
            for b in &buckets {
                stepwise_obsolete += stepwise.count_live_in_buckets(&[*b], layout);
                stepwise.mark_buckets_invalid(&[*b], layout);
            }
            // The batch, then the batch again.
            let mut index = SecondaryIndex {
                tree,
                ..SecondaryIndex::new("prop", config, StorageMetrics::new_shared())
            };
            assert_eq!(index.tree.count_live_in_buckets(&buckets, layout), obsolete);
            assert_eq!(stepwise_obsolete, obsolete, "{ctx}");
            if layout == KeyLayout::SecondaryComposite {
                index.mark_buckets_moved(&buckets);
                index.mark_buckets_moved(&buckets);
                assert_eq!(index.obsolete_remaining, obsolete, "{ctx}");
            } else {
                index.tree.mark_buckets_invalid(&buckets, layout);
                index.tree.mark_buckets_invalid(&buckets, layout);
            }
            assert_eq!(index.tree.count_live_in_buckets(&buckets, layout), 0);
            for ((c, s), r) in index
                .tree
                .components()
                .iter()
                .zip(stepwise.components())
                .zip(&raw[usize::from(buffered)..])
            {
                let expected = visible(r, &marked);
                for got in [c, s] {
                    assert_eq!(got.iter().cloned().collect::<Vec<_>>(), expected, "{ctx}");
                    assert_eq!(got.visible_len(), expected.len(), "{ctx}");
                    assert_eq!(
                        got.visible_size_bytes(),
                        expected.iter().map(|e| e.size_bytes()).sum::<usize>(),
                        "{ctx}"
                    );
                }
            }
            let live = merge_live(raw.iter().map(|c| visible(c, &marked)).collect());
            assert_eq!(index.tree.scan_all(), live, "{ctx}");
            assert_eq!(stepwise.scan_all(), live, "{ctx}");
            // ...and the flush that follows drops what the mark hid.
            if let Some(flushed) = index.tree.flush() {
                assert_eq!(
                    flushed.iter().cloned().collect::<Vec<_>>(),
                    visible(&raw[0], &marked),
                    "{ctx}"
                );
            }
            assert_eq!(index.tree.scan_all(), live, "{ctx}");
        }
    }

    #[test]
    fn index_record_extracts_secondary_key() {
        let payload = 42u64.to_be_bytes();
        let se = index_record(&Key::from_u64(7), &payload, |p| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&p[..8]);
            Some(Key::from_u64(u64::from_be_bytes(b)))
        })
        .unwrap();
        assert_eq!(se.secondary.as_u64(), 42);
        assert_eq!(se.primary.as_u64(), 7);
    }
}
