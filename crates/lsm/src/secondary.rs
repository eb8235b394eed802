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
//! `(hash, depth)` is recorded in the index metadata — a write that reads no
//! entry — queries validate results against this list (the first query to
//! reach a component applies it there once, skipping entries whose *primary
//! key* belongs to a moved bucket), and the physical cleanup happens at the
//! next merge or flush.

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
        Key::from_parts(&[
            self.secondary.as_slice(),
            self.primary.as_slice(),
            &(self.primary.len() as u16).to_be_bytes(),
        ])
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
        Some(Self::from_slices(secondary, primary))
    }

    /// An owned entry of the two key parts a range visitor lends.
    pub fn from_slices(secondary: &[u8], primary: &[u8]) -> SecondaryEntry {
        SecondaryEntry {
            secondary: Key::from_slice(secondary),
            primary: Key::from_slice(primary),
        }
    }
}

/// A secondary index over one dataset partition.
#[derive(Debug)]
pub struct SecondaryIndex {
    /// Human-readable index name (e.g. `idx_lineitem_shipdate`).
    pub name: String,
    tree: LsmTree,
    /// Pending component list receiving rebalanced data, invisible to queries.
    pending: Option<LsmTree>,
    lsm_config: LsmConfig,
    metrics: Arc<StorageMetrics>,
    /// Cumulative obsolete-entry validation work performed by queries
    /// (quantifies the lazy-cleanup overhead).
    obsolete_skipped: u64,
}

impl SecondaryIndex {
    /// Creates an empty secondary index.
    pub fn new(name: impl Into<String>, config: LsmConfig, metrics: Arc<StorageMetrics>) -> Self {
        SecondaryIndex {
            name: name.into(),
            tree: LsmTree::new(config.clone(), Arc::clone(&metrics)),
            pending: None,
            lsm_config: config,
            metrics,
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
        let mut out = Vec::new();
        self.visit_range(lo, hi, |secondary, primary| {
            out.push(SecondaryEntry::from_slices(secondary, primary))
        });
        out
    }

    /// [`SecondaryIndex::search_range`] without the copies: every match is
    /// handed to `visit` as `(secondary, primary)` key bytes still borrowed
    /// from the component that holds them, in index order.
    pub fn visit_range(
        &mut self,
        lo: Option<&Key>,
        hi: Option<&Key>,
        mut visit: impl FnMut(&[u8], &[u8]),
    ) {
        // The composite keys are ordered by secondary key first, so prefix
        // bounds on the secondary key translate directly.
        self.tree.scan_with(lo, hi, |key, _| {
            let Some((secondary, primary)) = SecondaryEntry::split(key.as_slice()) else {
                return;
            };
            // An encoded composite >= hi can slip in when hi is a bare
            // secondary-key prefix; filter exactly on the secondary part.
            if hi.is_none_or(|h| secondary < h.as_slice())
                && lo.is_none_or(|l| secondary >= l.as_slice())
            {
                visit(secondary, primary);
            }
        });
        // Every query over an index with pending lazy cleanup has to validate
        // (and discard) the obsolete entries still physically present; account
        // that work.
        self.obsolete_skipped += self.obsolete_entries();
    }

    // ------------------------------------------------------------ rebalancing

    /// Records moved buckets for lazy cleanup: each bucket's `(hash, depth)`
    /// is added to the metadata of every **current** component (and of the
    /// memory component), so its entries disappear from queries immediately
    /// while the physical removal waits for the next merge or flush. Data
    /// added later (e.g. the same bucket received back by a future
    /// rebalance) is unaffected — which is why every call stamps the current
    /// components afresh, whatever an earlier call recorded. No entry is read
    /// and nothing is flushed; the first [`SecondaryIndex::search_range`]
    /// afterwards pays one pass per component it reaches.
    pub fn mark_buckets_moved(&mut self, buckets: &[BucketId]) {
        self.tree
            .mark_buckets_invalid(buckets, KeyLayout::SecondaryComposite);
    }

    /// The obsolete entries still physically present — what the next query
    /// will have to validate and skip. Applies every mark still unapplied, so
    /// calling it ahead of the first query pre-pays that query's passes.
    pub fn obsolete_entries(&mut self) -> u64 {
        self.tree.hidden_entries()
    }

    /// The disk components of the visible tree, newest first.
    pub fn components(&self) -> &[Component] {
        self.tree.components()
    }

    /// Number of obsolete entries that queries have had to skip (the
    /// lazy-cleanup overhead reported in the experiments).
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

    // ------------------------------------------------------------ maintenance

    /// Flushes the in-memory component.
    pub fn flush(&mut self) {
        self.tree.flush();
    }

    /// Runs the regular merge policy.
    pub fn run_merges(&mut self) -> usize {
        self.tree.run_merges()
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
        let exact = i.search_range(Some(&Key::from_u64(7)), Some(&Key::from_u64(8)));
        assert_eq!(exact.len(), 10);
        assert!(exact.iter().all(|se| se.primary.as_u64() / 10 == 7));
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
        assert!(i.pending.is_some());

        i.flush_pending();
        i.install_pending();
        assert!(i.pending.is_none());
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

    fn manual_idx(name: &str) -> SecondaryIndex {
        let config = LsmConfig {
            auto_flush: false,
            auto_merge: false,
            ..LsmConfig::default()
        };
        SecondaryIndex::new(name, config, StorageMetrics::new_shared())
    }

    /// What one `search_range(None, None)` returns and what it adds to
    /// `obsolete_entries_skipped`.
    fn query(idx: &mut SecondaryIndex) -> (Vec<SecondaryEntry>, u64) {
        let before = idx.obsolete_entries_skipped();
        let hits = idx.search_range(None, None);
        (hits, idx.obsolete_entries_skipped() - before)
    }

    /// Batch ≡ stepwise, through the public door: marking `&[b1..bk]` at
    /// once (twice over), marking one bucket at a time on handles nobody has
    /// read, and marking one bucket at a time with a query after every mark
    /// (so each mark lands on a built view) give the same `search_range`
    /// output — every live entry of no moved bucket — and charge every query
    /// the same `obsolete_entries_skipped`: the entries of the moved buckets
    /// physically present, tombstones and shadowed versions included, one
    /// per run that holds them. The last round may stay buffered; the flush
    /// that follows drops its share of the charge and nothing else.
    #[test]
    fn prop_batch_mark_matches_stepwise_marks() {
        use crate::rng::SplitMix64;
        use std::collections::BTreeSet;

        for seed in 0..48u64 {
            let mut rng = SplitMix64::seed_from_u64(0xba7c_0000 + seed);
            let entry_of = |k: u64| SecondaryEntry {
                secondary: Key::from_u64(k % 7),
                primary: Key::from_u64(k),
            };
            let mut indexes = [
                manual_idx("batch"),
                manual_idx("stepwise"),
                manual_idx("queried"),
            ];
            let rounds = rng.gen_range(1..6);
            let buffered = rng.gen_ratio(1, 2);
            let mut live = BTreeSet::new();
            // primary keys written, once per run that holds an entry for them
            let (mut sealed, mut in_memory) = (Vec::new(), Vec::new());
            for round in 0..rounds {
                let mut run = BTreeSet::new();
                for _ in 0..rng.gen_range(1..80) {
                    let (k, delete) = (rng.gen_range(0..150), rng.gen_ratio(1, 4));
                    for idx in &mut indexes {
                        let SecondaryEntry { secondary, primary } = entry_of(k);
                        if delete {
                            idx.delete(secondary, primary);
                        } else {
                            idx.insert(secondary, primary);
                        }
                    }
                    if delete {
                        live.remove(&k);
                    } else {
                        live.insert(k);
                    }
                    run.insert(k);
                }
                if buffered && round + 1 == rounds {
                    in_memory.extend(run);
                } else {
                    sealed.extend(run);
                    indexes.iter_mut().for_each(SecondaryIndex::flush);
                }
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
            let ctx = format!("seed {seed}: buffered {buffered}, marking {buckets:?}");
            let moved_by = |marked: &[BucketId], k: &u64| {
                let key = Key::from_u64(*k);
                marked.iter().any(|b| b.contains_key(&key))
            };
            let obsolete_in = |runs: &[u64], marked: &[BucketId]| {
                runs.iter().filter(|k| moved_by(marked, k)).count() as u64
            };
            let mut expected: Vec<SecondaryEntry> = live
                .iter()
                .filter(|k| !moved_by(&buckets, k))
                .map(|k| entry_of(*k))
                .collect();
            expected.sort();

            let [batch, stepwise, queried] = &mut indexes;
            batch.mark_buckets_moved(&buckets);
            batch.mark_buckets_moved(&buckets);
            for (n, b) in buckets.iter().enumerate() {
                stepwise.mark_buckets_moved(&[*b]);
                queried.mark_buckets_moved(&[*b]);
                let so_far = &buckets[..=n];
                let charge = obsolete_in(&sealed, so_far) + obsolete_in(&in_memory, so_far);
                assert_eq!(query(queried).1, charge, "{ctx}: after {so_far:?}");
            }
            let on_disk = obsolete_in(&sealed, &buckets);
            let charge = on_disk + obsolete_in(&in_memory, &buckets);
            for idx in &mut indexes {
                assert_eq!(
                    query(idx),
                    (expected.clone(), charge),
                    "{ctx}: {}",
                    idx.name
                );
                assert_eq!(query(idx).1, charge, "{ctx}: every query pays again");
                idx.flush();
                assert_eq!(query(idx), (expected.clone(), on_disk), "{ctx}: flushed");
            }
        }
    }

    /// The obsolete count is what is still physically there: once a merge has
    /// rewritten the marked components, the next query skips nothing.
    #[test]
    fn merged_away_obsolete_entries_cost_queries_nothing() {
        let mut i = manual_idx("merged");
        for run in 0..3u64 {
            for pk in run * 50..(run + 1) * 50 {
                i.insert(Key::from_u64(pk % 13), Key::from_u64(pk));
            }
            i.flush();
        }
        i.mark_buckets_moved(&[BucketId::new(1, 1)]);
        let (hits, skipped) = query(&mut i);
        assert!(skipped > 0);
        assert_eq!(skipped as usize, 150 - hits.len());
        assert_eq!(i.run_merges(), 1);
        assert_eq!(i.components().len(), 1, "all three marked runs merged");
        assert_eq!(query(&mut i), (hits, 0));
    }
}
