//! A single LSM-tree: one memory component plus a list of immutable disk
//! components ordered newest first.
//!
//! This is the building block used both for individual buckets of the
//! bucketed primary index and for secondary indexes. It follows the classic
//! out-of-place design: writes go to the memory component, flushes create
//! immutable disk components, and a merge policy periodically combines disk
//! components. A bucket's tree receives reference components from a split;
//! a secondary index's tree receives lazy-cleanup marks
//! ([`crate::secondary::SecondaryIndex::mark_buckets_moved`]), which read
//! its keys as `SecondaryEntry` composites.

use std::sync::Arc;

use crate::bucket::{hash_key, BucketId, BucketSet};
use crate::component::{Component, ComponentSource};
use crate::entry::{Entry, Key, Op, Value};
use crate::iterator::{reconcile_point, Cursor, MergeIter};
use crate::memtable::MemoryComponent;
use crate::merge_policy::SizeTieredPolicy;
use crate::metrics::StorageMetrics;
use crate::secondary::SecondaryEntry;

/// Configuration of a single LSM-tree.
#[derive(Clone, Debug)]
pub struct LsmConfig {
    /// Memory-component budget in bytes; exceeding it triggers a flush when
    /// `auto_flush` is set.
    pub memtable_budget_bytes: usize,
    /// The merge policy (AsterixDB default: size-tiered with ratio 1.2).
    pub merge_policy: SizeTieredPolicy,
    /// Automatically flush when the memory component exceeds its budget.
    pub auto_flush: bool,
    /// Automatically run merges after each flush.
    pub auto_merge: bool,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_budget_bytes: 4 * 1024 * 1024,
            merge_policy: SizeTieredPolicy::default(),
            auto_flush: true,
            auto_merge: true,
        }
    }
}

impl LsmConfig {
    /// Convenience constructor with a specific memtable budget.
    pub fn with_memtable_budget(budget: usize) -> Self {
        LsmConfig {
            memtable_budget_bytes: budget,
            ..Default::default()
        }
    }
}

/// A single LSM-tree index.
#[derive(Debug)]
pub struct LsmTree {
    config: LsmConfig,
    memtable: MemoryComponent,
    /// Disk components ordered newest first.
    components: Vec<Component>,
    metrics: Arc<StorageMetrics>,
    /// When true, new merges are not scheduled (used while a bucket is being
    /// split or moved).
    merges_paused: bool,
    /// Lazy cleanup of the memory component: moved buckets whose buffered
    /// entries are dead — hidden from reads now, dropped by the next flush
    /// (or by the first write to one of the buckets, should it come back
    /// sooner); until then they still count in the size accessors. Empty
    /// almost always.
    memtable_invalid: BucketSet,
    /// The visible bytes of every disk component, counted whenever the list
    /// changes while each component's share is known without a read (`None`
    /// while a filtered view is still unbuilt): what makes
    /// [`LsmTree::logical_size_bytes`] — the split check of every write to a
    /// bucket — O(1).
    disk_bytes: Option<usize>,
}

impl LsmTree {
    /// Creates an empty tree whose memory component is a hashed table: it
    /// answers point reads.
    pub fn new(config: LsmConfig, metrics: Arc<StorageMetrics>) -> Self {
        LsmTree::with_memory(config, metrics, MemoryComponent::hashed())
    }

    /// Creates an empty tree whose memory component is a range-only log: a
    /// write is a push, ordered reads cost what a hashed table's do, and a
    /// point read walks the unsettled writes. A secondary index's tree, which
    /// is only ever read in key order.
    pub(crate) fn range_only(config: LsmConfig, metrics: Arc<StorageMetrics>) -> Self {
        LsmTree::with_memory(config, metrics, MemoryComponent::range_only())
    }

    fn with_memory(
        config: LsmConfig,
        metrics: Arc<StorageMetrics>,
        memtable: MemoryComponent,
    ) -> Self {
        LsmTree {
            config,
            memtable,
            components: Vec::new(),
            metrics,
            merges_paused: false,
            memtable_invalid: BucketSet::default(),
            disk_bytes: Some(0),
        }
    }

    /// The tree's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    // ----------------------------------------------------------------- writes

    /// Inserts or updates a record.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.apply(Entry::put(key, value));
    }

    /// Deletes a record (writes a tombstone).
    pub fn delete(&mut self, key: impl Into<Key>) {
        self.apply(Entry::delete(key));
    }

    /// Applies an entry (used by log replay and replication). A hashed
    /// memory component hashes its key; a range-only one does not.
    pub fn apply(&mut self, entry: Entry) {
        self.write(entry, None);
    }

    /// [`LsmTree::apply`] by a writer that has hashed the key already (to
    /// route it): `hash` must be `hash_key(&entry.key)`, and a hashed memory
    /// component keeps it.
    pub fn apply_hashed(&mut self, entry: Entry, hash: u64) {
        self.write(entry, Some(hash));
    }

    fn write(&mut self, entry: Entry, hash: Option<u64>) {
        StorageMetrics::add(&self.metrics.records_written, 1);
        // A write to a bucket marked moved means the bucket is back: the dead
        // entries must go before a live one can sit among them.
        if self.buffered_dead(&entry.key) {
            self.purge_memtable();
        }
        let flush_at = (self.config.auto_flush).then_some(self.config.memtable_budget_bytes);
        if self.memtable.apply(entry, hash, flush_at) {
            self.flush();
            if self.config.auto_merge {
                self.run_merges();
            }
        }
    }

    // ------------------------------------------------------------------ reads

    /// Point lookup: searches the memory component, then disk components from
    /// newest to oldest, stopping at the first match.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.get_ref(key).cloned()
    }

    /// [`LsmTree::get`] that lends: the payload is read where it lies, in the
    /// memory component or the run that holds it, and nothing is cloned.
    pub fn get_ref(&self, key: &Key) -> Option<&Value> {
        self.get_ref_hashed(key, hash_key(key))
    }

    /// [`LsmTree::get_ref`] for a reader that has hashed its key already (to
    /// find this tree, say): `hash` must be `hash_key(key)`, and every
    /// component's filter is probed with it.
    pub fn get_ref_hashed(&self, key: &Key, hash: u64) -> Option<&Value> {
        let mem = self
            .memtable
            .get_hashed(key, hash)
            .filter(|_| !self.buffered_dead(key));
        let disk = self.components.iter().map(|c| c.get_hashed(key, hash));
        let op = reconcile_point(std::iter::once(mem).chain(disk))?;
        StorageMetrics::add(
            &self.metrics.bytes_query_read,
            Entry::size_of_parts(key, op) as u64,
        );
        op.value()
    }

    /// A lazy, reconciling merge over `[lo, hi)` of the memory component and
    /// every disk component, newest first. Tombstoned keys are skipped;
    /// nothing is materialised until the caller consumes the iterator.
    pub(crate) fn iter_live(&self, lo: Option<&Key>, hi: Option<&Key>) -> MergeIter<'_> {
        let mut cursors = Vec::with_capacity(self.components.len() + 1);
        self.push_cursors(lo, hi, &mut cursors);
        MergeIter::new(cursors, false)
    }

    /// Appends the merge sources of `[lo, hi)`, newest first: the memory
    /// component's live entries, then each disk component's visible ones.
    pub(crate) fn push_cursors<'a>(
        &'a self,
        lo: Option<&Key>,
        hi: Option<&Key>,
        cursors: &mut Vec<Cursor<'a>>,
    ) {
        let dead = (!self.memtable_invalid.is_empty()).then_some(&self.memtable_invalid);
        cursors.push(Cursor::Buffered {
            entries: self.memtable.range(lo, hi),
            dead,
        });
        cursors.extend(
            self.components
                .iter()
                .map(|c| Cursor::Run(c.cursor(lo, hi))),
        );
    }

    /// True if `key`, were it buffered, belongs to a bucket marked moved
    /// since the last flush.
    fn buffered_dead(&self, key: &Key) -> bool {
        !self.memtable_invalid.is_empty()
            && (self.memtable_invalid).contains_hash(SecondaryEntry::primary_hash(key))
    }

    /// Drops the dead entries from the memory component.
    fn purge_memtable(&mut self) {
        let dead = std::mem::take(&mut self.memtable_invalid);
        (self.memtable).retain(|key| !dead.contains_hash(SecondaryEntry::primary_hash(key)));
    }

    /// Range scan over `[lo, hi)` handing every live entry, in key order and
    /// still borrowed from its component, to `visit`. Charges the bytes
    /// visited to the query-read metric and returns them.
    pub fn scan_with(
        &self,
        lo: Option<&Key>,
        hi: Option<&Key>,
        visit: impl FnMut(&Key, &Op),
    ) -> u64 {
        let bytes = self.iter_live(lo, hi).visit_all(visit);
        StorageMetrics::add(&self.metrics.bytes_query_read, bytes);
        bytes
    }

    /// Range scan over `[lo, hi)` returning live entries in key order: one
    /// pass that materialises the reconciled output exactly once.
    pub fn scan(&self, lo: Option<&Key>, hi: Option<&Key>) -> Vec<Entry> {
        let mut out = Vec::new();
        self.scan_with(lo, hi, |key, op| out.push(Entry::from_parts(key, op)));
        out
    }

    /// Scans every live entry in key order.
    pub fn scan_all(&self) -> Vec<Entry> {
        self.scan(None, None)
    }

    /// Number of live records (reconciled). Linear in the data size.
    pub fn live_len(&self) -> usize {
        let mut live = 0;
        self.scan_with(None, None, |_, _| live += 1);
        live
    }

    // ------------------------------------------------------- flush and merge

    /// Flushes the memory component into a new disk component (no-op when the
    /// memory component is empty). Returns the new component if one was made.
    pub fn flush(&mut self) -> Option<Component> {
        if !self.memtable_invalid.is_empty() {
            self.purge_memtable();
        }
        if self.memtable.is_empty() {
            return None;
        }
        let entries = self.memtable.drain_sorted();
        let comp = Component::from_sorted(entries, ComponentSource::Flush);
        StorageMetrics::add(&self.metrics.bytes_flushed, comp.size_bytes() as u64);
        StorageMetrics::add(&self.metrics.flush_count, 1);
        self.components.insert(0, comp.clone());
        self.recount();
        Some(comp)
    }

    /// Pauses scheduling of new merges (Algorithm 1, line 3).
    pub fn pause_merges(&mut self) {
        self.merges_paused = true;
    }

    /// Resumes scheduling of merges (Algorithm 1, line 11).
    pub fn resume_merges(&mut self) {
        self.merges_paused = false;
    }

    /// True if merges are currently paused.
    pub fn merges_paused(&self) -> bool {
        self.merges_paused
    }

    /// Runs merges according to the policy until it no longer selects one.
    /// Returns the number of merge operations performed.
    pub fn run_merges(&mut self) -> usize {
        let mut merges = 0;
        while self.maybe_merge() {
            merges += 1;
        }
        merges
    }

    /// Performs one policy-selected merge if any. Returns true if a merge ran.
    pub fn maybe_merge(&mut self) -> bool {
        if self.merges_paused {
            return false;
        }
        let Some((start, end)) = self.config.merge_policy.select_merge(&self.components) else {
            return false;
        };
        self.merge_range(start, end);
        true
    }

    /// Merges every disk component into one (major compaction). No-op with
    /// fewer than two components unless a single component carries filters.
    pub fn force_merge_all(&mut self) {
        if self.components.len() >= 2 || self.components.iter().any(|c| c.needs_compaction()) {
            self.merge_range(0, self.components.len());
        }
    }

    fn merge_range(&mut self, start: usize, end: usize) {
        if start >= end || end > self.components.len() {
            return;
        }
        let merged_slice = &self.components[start..end];
        let includes_oldest = end == self.components.len();
        let read_bytes: usize = merged_slice.iter().map(|c| c.size_bytes()).sum();
        // A merge that does not include the oldest component must keep
        // tombstones so that deletes still shadow older data. Merges realise
        // reference-component filtering and lazy cleanup because they only
        // read *visible* entries.
        let mut merged_entries: Vec<Entry> =
            Vec::with_capacity(merged_slice.iter().map(Component::visible_len).sum());
        merged_entries.extend(MergeIter::over_components(merged_slice, !includes_oldest));
        let new_comp = Component::from_sorted(merged_entries, ComponentSource::Merge);
        StorageMetrics::add(&self.metrics.bytes_merge_read, read_bytes as u64);
        StorageMetrics::add(&self.metrics.bytes_merged, new_comp.size_bytes() as u64);
        StorageMetrics::add(&self.metrics.merge_count, 1);
        self.components.splice(start..end, [new_comp]);
        self.recount();
    }

    // ----------------------------------------------------- component plumbing

    /// The disk components, newest first.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Replaces the component list (used by bucket splits and tests).
    pub fn set_components(&mut self, components: Vec<Component>) {
        self.components = components;
        self.recount();
    }

    /// Registers already-built components as the **oldest** data of this tree
    /// (used to install loaded disk components during a rebalance: scanned
    /// records must be strictly older than replicated writes).
    pub fn append_oldest_components(&mut self, comps: Vec<Component>) {
        self.components.extend(comps);
        self.recount();
    }

    /// Counts the disk components' visible bytes again where each is known
    /// without a read (`disk_bytes`); reads nothing.
    fn recount(&mut self) {
        self.disk_bytes = (self.components.iter())
            .map(Component::known_visible_size_bytes)
            .sum();
    }

    /// Lazy cleanup of moved buckets: every entry the tree holds *now* for a
    /// record of `buckets` disappears from reads immediately and is dropped
    /// physically later — disk components carry the buckets in their
    /// metadata until the next merge, the memory component until the next
    /// flush. A metadata write: nothing is read, written or flushed here, and
    /// the cost is the number of components times the number of buckets —
    /// each component's first read afterwards applies the filter, in one
    /// pass. Data added later (e.g. a bucket received back by a future
    /// rebalance, installed as components) is not affected, exactly as the
    /// paper's per-component metadata behaves. The tree's keys are
    /// `SecondaryEntry` composites: the one caller is
    /// [`crate::secondary::SecondaryIndex::mark_buckets_moved`].
    pub(crate) fn mark_buckets_invalid(&mut self, buckets: &[BucketId]) {
        if !self.memtable.is_empty() {
            self.memtable_invalid.extend(buckets);
        }
        for c in self.components.iter_mut() {
            *c = c.mark_buckets_invalid(buckets);
        }
        self.recount();
    }

    /// Entries in `[lo, hi)` still physically present that a filter hides
    /// from reads: what each disk component holds there beyond what it
    /// shows, plus the dead entries of the memory component there. Builds
    /// whatever view is still unbuilt. Merges and flushes drop hidden
    /// entries, so the number shrinks as the physical cleanup proceeds.
    pub(crate) fn hidden_in(&self, lo: Option<&Key>, hi: Option<&Key>) -> u64 {
        let buffered = match self.memtable_invalid.is_empty() {
            true => 0,
            false => (self.memtable.range(lo, hi))
                .filter(|(key, _)| self.buffered_dead(key))
                .count(),
        };
        let on_disk = self.components.iter().map(|c| c.hidden_in(lo, hi));
        (buffered + on_disk.sum::<usize>()) as u64
    }

    /// Applies every lazy-cleanup mark still unapplied: builds the view of
    /// each disk component that has none yet, so no later read pays for it.
    pub(crate) fn build_views(&self) {
        for c in &self.components {
            c.visible_len();
        }
    }

    /// Direct read access to the memory component.
    pub fn memtable(&self) -> &MemoryComponent {
        &self.memtable
    }

    /// Number of disk components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Bytes of storage actually occupied (reference components count as 0).
    pub fn storage_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.storage_bytes())
            .sum::<usize>()
            + self.memtable.size_bytes()
    }

    /// Logical bytes of data reachable through this tree: visible bytes of
    /// every component (reference components count their filtered share) plus
    /// the memory component. This is the size the balancing algorithm and the
    /// dynamic-split threshold reason about. O(1) while every component's
    /// share is counted; otherwise the components are walked, building what
    /// view is unbuilt.
    pub fn logical_size_bytes(&self) -> usize {
        let disk = self.disk_bytes.unwrap_or_else(|| {
            (self.components.iter())
                .map(|c| c.visible_size_bytes())
                .sum()
        });
        disk + self.memtable.size_bytes()
    }

    /// True if the tree holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.memtable.is_empty() && self.components.iter().all(|c| c.visible_len() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;

    fn small_tree(budget: usize) -> LsmTree {
        LsmTree::new(
            LsmConfig::with_memtable_budget(budget),
            StorageMetrics::new_shared(),
        )
    }

    fn val(tag: &str) -> Bytes {
        Bytes::from(tag.as_bytes().to_vec())
    }

    /// The secondary-index key of record `k`: what a lazy-cleanup mark reads.
    fn composite(k: u64) -> Key {
        SecondaryEntry {
            secondary: Key::from_u64(k % 3),
            primary: Key::from_u64(k),
        }
        .encode()
    }

    #[test]
    fn put_get_across_flushes() {
        let mut t = small_tree(1 << 20);
        for i in 0..100u64 {
            t.put(i, val(&format!("v{i}")));
        }
        t.flush();
        for i in 100..200u64 {
            t.put(i, val(&format!("v{i}")));
        }
        for i in 0..200u64 {
            assert_eq!(t.get(&Key::from_u64(i)).unwrap(), val(&format!("v{i}")));
        }
        assert!(t.get(&Key::from_u64(999)).is_none());
    }

    #[test]
    fn updates_and_deletes_are_reconciled() {
        let mut t = small_tree(1 << 20);
        t.put(1u64, val("a"));
        t.flush();
        t.put(1u64, val("b"));
        t.flush();
        assert_eq!(t.get(&Key::from_u64(1)).unwrap(), val("b"));
        t.delete(1u64);
        assert_eq!(t.get(&Key::from_u64(1)), None);
        t.flush();
        assert_eq!(t.get(&Key::from_u64(1)), None);
        assert!(t.scan_all().is_empty());
    }

    /// Regression for the op-tag accounting: the memtable's running size,
    /// the flushed component's byte total, and the query-read metric must
    /// all agree with `Entry::size_bytes` (key + value + op tag) — including
    /// after overwrites and for tombstones, which the old hand-rolled
    /// `key + value` formulas silently under-charged.
    #[test]
    fn size_accounting_matches_component_totals() {
        let mut t = small_tree(1 << 20);
        for i in 0..50u64 {
            t.put(i, Bytes::from(vec![1u8; 10]));
        }
        // Overwrites with a different value length exercise the memtable's
        // replacement accounting; deletes leave op-tag-only tombstones.
        for i in 0..20u64 {
            t.put(i, Bytes::from(vec![2u8; 33]));
        }
        for i in 40..50u64 {
            t.delete(i);
        }
        let expected: usize = t
            .memtable()
            .range(None, None)
            .map(|(k, op)| Entry::size_of_parts(k, op))
            .sum();
        assert_eq!(t.memtable().size_bytes(), expected);
        let comp = t.flush().expect("non-empty memtable flushes");
        let from_entries: usize = comp.iter().map(|e| e.size_bytes()).sum();
        assert_eq!(comp.size_bytes(), from_entries);
        assert_eq!(comp.size_bytes(), expected);
        // A tombstone weighs key + op tag, never zero.
        let tomb = Entry::delete(Key::from_u64(40));
        assert_eq!(tomb.size_bytes(), 8 + crate::entry::OP_TAG_BYTES);
        // Point reads charge exactly size_of_parts: key + value + op tag.
        let before = t.metrics.snapshot().bytes_query_read;
        assert!(t.get(&Key::from_u64(3)).is_some());
        let after = t.metrics.snapshot().bytes_query_read;
        assert_eq!(after - before, (8 + 33 + crate::entry::OP_TAG_BYTES) as u64);
    }

    /// A flush that finds a key order kept by a scan moves the entries into
    /// it; one that finds none sorts them. Both must build the same run.
    #[test]
    fn a_flush_after_an_ordered_read_builds_the_same_run() {
        let (mut scanned, mut unscanned) = (small_tree(1 << 20), small_tree(1 << 20));
        let held: Vec<u64> = (0..300).map(|i| (i * 7919) % 1000).collect();
        for t in [&mut scanned, &mut unscanned] {
            for &k in &held {
                t.put(k, val(&format!("v{k}")));
            }
        }
        assert_eq!(scanned.scan_all().len(), 300);
        // an overwrite and a delete keep the order the scan left behind
        for t in [&mut scanned, &mut unscanned] {
            t.put(held[7], val("overwritten"));
            t.delete(held[11]);
        }
        let (a, b) = (scanned.flush().unwrap(), unscanned.flush().unwrap());
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert!(a.iter().map(|e| &e.key).is_sorted());
        assert_eq!((a.raw_len(), a.size_bytes()), (b.raw_len(), b.size_bytes()));
        for k in held.iter().copied().chain([1001, 5000]) {
            let key = Key::from_u64(k);
            assert_eq!(scanned.get(&key), unscanned.get(&key), "key {k}");
        }
        assert_eq!(
            scanned.get(&Key::from_u64(held[7])),
            Some(val("overwritten"))
        );
        assert_eq!(scanned.get(&Key::from_u64(held[11])), None);
    }

    /// What a tree's components hold: each one's entries, raw length and
    /// bytes, newest first.
    fn runs(t: &LsmTree) -> Vec<(Vec<Entry>, usize, usize)> {
        (t.components().iter())
            .map(|c| (c.iter().cloned().collect(), c.raw_len(), c.size_bytes()))
            .collect()
    }

    /// What a tree's memory component shows: its entries in key order and
    /// its byte size.
    fn buffered(t: &LsmTree) -> (Vec<Entry>, usize) {
        let m = t.memtable();
        let entries = m.iter().map(|(k, op)| Entry::from_parts(k, op)).collect();
        (entries, m.size_bytes())
    }

    /// A range-only tree and a hashed one, at a budget of a few dozen
    /// entries, fed one seeded stream: puts, deletes and rewrites of recent
    /// keys, a lazy-cleanup mark halfway (later writes to the marked bucket
    /// purge the buffer), then new keys until the next one would reach the
    /// budget and 10 000 rewrites of one key there. After every write both
    /// hold the same runs — so each flush cut at the same write — and once
    /// every `read_every` writes their memory components show the same
    /// entries and size (a read on every write makes the log build and adopt
    /// a view each time; one in 61 lets its tail settle unread).
    #[test]
    fn a_range_only_tree_flushes_where_a_hashed_one_does() {
        use crate::rng::SplitMix64;

        const BUDGET: usize = 1024;
        fn write(trees: &mut [LsmTree; 2], entry: Entry, read: bool, ctx: &str) {
            trees[0].apply(entry.clone());
            trees[1].apply(entry);
            assert_eq!(runs(&trees[0]), runs(&trees[1]), "{ctx}");
            if read {
                assert_eq!(buffered(&trees[0]), buffered(&trees[1]), "{ctx}");
            }
        }
        for read_every in [1, 61] {
            let config = LsmConfig::with_memtable_budget(BUDGET);
            let mut trees = [
                LsmTree::range_only(config.clone(), StorageMetrics::new_shared()),
                LsmTree::new(config, StorageMetrics::new_shared()),
            ];
            let flushes =
                |trees: &[LsmTree; 2]| trees.each_ref().map(|t| t.metrics.snapshot().flush_count);
            let mut rng = SplitMix64::seed_from_u64(0x5ec0_0001);
            let mut recent = std::collections::VecDeque::from([0u64]);
            for n in 0..3000usize {
                let ctx = format!("read every {read_every}, write {n}");
                if n == 1500 {
                    trees
                        .iter_mut()
                        .for_each(|t| t.mark_buckets_invalid(&[BucketId::new(0, 1)]));
                }
                let k = match rng.gen_range(0..10) {
                    0..=1 => recent[rng.gen_index(recent.len())],
                    _ => rng.gen_range(0..400),
                };
                let entry = match rng.gen_range(0..5) {
                    0 => Entry::delete(composite(k)),
                    _ => Entry::put(composite(k), Bytes::from(vec![1; rng.gen_index(12)])),
                };
                write(&mut trees, entry, n % read_every == 0, &ctx);
                recent.push_back(k);
                if recent.len() > 20 {
                    recent.pop_front();
                }
            }
            let [flushed, _] = flushes(&trees);
            assert!(flushed > 20, "the stream flushes: {flushed}");
            // fill up to one entry below the budget, then rewrite one key there
            let next = |k: u64| Entry::put(composite(k), Bytes::new());
            let mut k = 10_000;
            while trees[1].memtable().size_bytes() + next(k).size_bytes() < BUDGET {
                write(&mut trees, next(k), true, "filling");
                k += 1;
            }
            let [before, _] = flushes(&trees);
            for n in 0..10_000usize {
                let ctx = format!("read every {read_every}, rewrite {n}");
                write(&mut trees, next(k - 1), n % read_every == 0, &ctx);
            }
            assert_eq!(flushes(&trees), [before; 2]);
            write(&mut trees, next(k), true, "the next key flushes");
            assert_eq!(flushes(&trees), [before + 1; 2]);
            assert!(trees.iter().all(|t| t.memtable().is_empty()));
        }
    }

    #[test]
    fn auto_flush_triggers_on_budget() {
        let mut t = small_tree(256);
        for i in 0..100u64 {
            t.put(i, Bytes::from(vec![0u8; 16]));
        }
        assert!(t.num_components() > 0, "expected at least one auto flush");
        let snap = t.metrics.snapshot();
        assert!(snap.flush_count > 0);
        assert_eq!(snap.records_written, 100);
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let mut t = small_tree(128);
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        for &k in &keys {
            t.put(k, val("x"));
        }
        keys.sort_unstable();
        keys.dedup();
        let scanned: Vec<u64> = t.scan_all().iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(scanned, keys);
        let lo = Key::from_u64(100);
        let hi = Key::from_u64(200);
        let bounded = t.scan(Some(&lo), Some(&hi));
        assert!(bounded.iter().all(|e| {
            let k = e.key.as_u64();
            (100..200).contains(&k)
        }));
    }

    /// Crossed bounds select nothing through every scan door — a tree's, a
    /// bucketed tree's in either order and a secondary index's — while the
    /// data is buffered as well as once it is flushed (a sorted-map memory
    /// component used to panic on them).
    #[test]
    fn crossed_bounds_scan_nothing_while_data_is_buffered() {
        use crate::bucketed::{BucketedConfig, BucketedLsmTree, ScanOrder};
        use crate::secondary::SecondaryIndex;

        let config = LsmConfig::with_memtable_budget(1 << 20);
        let mut t = small_tree(1 << 20);
        let mut b = BucketedLsmTree::new(
            BucketedConfig {
                lsm: config.clone(),
                ..BucketedConfig::default()
            },
            (0..4).map(|bits| BucketId::new(bits, 2)),
            StorageMetrics::new_shared(),
        );
        let mut s = SecondaryIndex::new("idx", config, StorageMetrics::new_shared());
        for k in 0..10u64 {
            t.put(k, val("x"));
            b.insert(k, val("x")).unwrap();
            s.insert(Key::from_u64(k), Key::from_u64(100 + k));
        }
        let (three, seven) = (Key::from_u64(3), Key::from_u64(7));
        let (two, nine) = (Key::from_u64(2), Key::from_u64(9));
        for flushed in [false, true] {
            assert_eq!(t.memtable().is_empty(), flushed);
            assert!(t.scan(Some(&seven), Some(&three)).is_empty(), "{flushed}");
            assert_eq!(t.scan(Some(&three), Some(&seven)).len(), 4, "{flushed}");
            for order in [ScanOrder::Ordered, ScanOrder::Unordered] {
                let crossed = b.scan_range(Some(&seven), Some(&three), order);
                assert!(crossed.is_empty(), "{flushed} {order:?}");
                let straight = b.scan_range(Some(&three), Some(&seven), order);
                assert_eq!(straight.len(), 4, "{flushed} {order:?}");
            }
            assert!(
                s.search_range(Some(&nine), Some(&two)).is_empty(),
                "{flushed}"
            );
            assert_eq!(
                s.search_range(Some(&two), Some(&nine)).len(),
                7,
                "{flushed}"
            );
            t.flush();
            b.flush_all();
            s.flush();
        }
    }

    #[test]
    fn merges_reduce_component_count() {
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 1 << 20,
                merge_policy: SizeTieredPolicy::new(1.2),
                auto_flush: false,
                auto_merge: false,
            },
            StorageMetrics::new_shared(),
        );
        for round in 0..6u64 {
            for i in 0..50u64 {
                t.put(round * 1000 + i, val("x"));
            }
            t.flush();
        }
        assert_eq!(t.num_components(), 6);
        let merges = t.run_merges();
        assert!(merges > 0);
        assert!(t.num_components() < 6);
        assert_eq!(t.live_len(), 300);
        assert!(t.metrics.snapshot().bytes_merged > 0);
    }

    /// A flush hands the writers' payloads over as they are; a merge moves
    /// them into the new run's own slab, in key order, without changing a
    /// byte any reader sees; a load does the same.
    #[test]
    fn merged_and_loaded_runs_own_their_payloads_in_one_slab() {
        let mut t = small_tree(1 << 20);
        // 240 keys, each written once (7 is coprime to 240) with a payload
        // whose first byte names its key
        let written: Vec<Bytes> = (0..240u64)
            .map(|k| Bytes::from(vec![k as u8; 1 + (k % 13) as usize]))
            .collect();
        for round in 0..3u64 {
            for i in (round * 80)..(round * 80 + 80) {
                t.put(i * 7 % 240, written[(i * 7 % 240) as usize].clone());
            }
            t.delete(round); // tombstones carry no payload
            t.flush();
        }
        let payloads = |c: &Component| -> Vec<Bytes> {
            c.iter().filter_map(|e| e.op.value().cloned()).collect()
        };
        for c in t.components() {
            for v in payloads(c) {
                let original = &written[v[0] as usize];
                assert!(v.shares_allocation(original), "a flush copies nothing");
            }
        }
        let gets_before: Vec<Option<Bytes>> =
            (0..240u64).map(|k| t.get(&Key::from_u64(k))).collect();
        let scan_before = t.scan_all();

        t.force_merge_all();
        assert_eq!(t.num_components(), 1);
        let merged = payloads(&t.components()[0]);
        assert_eq!(merged.len(), 237);
        assert!(merged.iter().all(|v| v.shares_allocation(&merged[0])));
        assert!(!merged[0].shares_allocation(&written[merged[0][0] as usize]));
        let gets_after: Vec<Option<Bytes>> =
            (0..240u64).map(|k| t.get(&Key::from_u64(k))).collect();
        assert_eq!(gets_after, gets_before);
        assert_eq!(t.scan_all(), scan_before);

        let loaded = Component::from_unsorted(scan_before.clone(), ComponentSource::Loaded);
        let copies = payloads(&loaded);
        assert!(copies.iter().all(|v| v.shares_allocation(&copies[0])));
        assert!(!copies[0].shares_allocation(&merged[0]), "a load copies");
        assert_eq!(loaded.iter().cloned().collect::<Vec<_>>(), scan_before);
    }

    #[test]
    fn force_merge_all_collapses_to_one() {
        let mut t = small_tree(1 << 20);
        for round in 0..4u64 {
            t.put(round, val("x"));
            t.flush();
        }
        t.force_merge_all();
        assert_eq!(t.num_components(), 1);
        assert_eq!(t.live_len(), 4);
    }

    #[test]
    fn paused_merges_do_not_run() {
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 64,
                merge_policy: SizeTieredPolicy::new(0.1),
                auto_flush: true,
                auto_merge: true,
            },
            StorageMetrics::new_shared(),
        );
        t.pause_merges();
        for i in 0..200u64 {
            t.put(i, Bytes::from(vec![0u8; 32]));
        }
        assert_eq!(t.metrics.snapshot().merge_count, 0);
        t.resume_merges();
        t.run_merges();
        assert!(t.metrics.snapshot().merge_count > 0);
    }

    #[test]
    fn tombstones_survive_partial_merges() {
        // A merge that excludes the oldest component must keep the tombstone.
        let mut t = LsmTree::new(
            LsmConfig {
                memtable_budget_bytes: 1 << 20,
                auto_flush: false,
                auto_merge: false,
                ..LsmConfig::default()
            },
            StorageMetrics::new_shared(),
        );
        t.put(1u64, val("live"));
        t.flush(); // oldest component holds key 1
        t.delete(1u64);
        t.flush();
        t.put(2u64, val("x"));
        t.flush();
        assert_eq!(t.num_components(), 3);
        // merge only the two newest components
        t.merge_range(0, 2);
        assert_eq!(t.num_components(), 2);
        assert_eq!(
            t.get(&Key::from_u64(1)),
            None,
            "tombstone must still hide key 1"
        );
        // a full merge finally drops both tombstone and shadowed entry
        t.force_merge_all();
        assert_eq!(t.num_components(), 1);
        assert_eq!(t.live_len(), 1);
    }

    #[test]
    fn loaded_components_are_older_than_replicated_ones() {
        // Mirrors the rebalance data-movement rule: scanned records loaded as
        // the oldest components, replicated writes as newer data.
        let mut t = small_tree(1 << 20);
        let loaded = Component::from_unsorted(
            vec![Entry::put(Key::from_u64(1), val("scanned"))],
            ComponentSource::Loaded,
        );
        let replicated = Component::from_unsorted(
            vec![Entry::put(Key::from_u64(1), val("replicated"))],
            ComponentSource::Flush,
        );
        t.append_oldest_components(vec![replicated, loaded]);
        assert_eq!(t.get(&Key::from_u64(1)).unwrap(), val("replicated"));
    }

    /// Lazy cleanup reaches the memory component too: buffered entries of a
    /// moved bucket — tombstones included — vanish from reads at once and
    /// never reach a disk component, so the bucket's data shows through
    /// when it is received back as the oldest components; a later write to
    /// the returned bucket survives the purge of the dead ones. The keys are
    /// secondary-index composites, whose primary part names the bucket.
    #[test]
    fn marking_hides_buffered_entries_and_the_flush_drops_them() {
        let moved = BucketId::new(0, 1);
        let in_moved = |k: &u64| moved.contains_key(&Key::from_u64(*k));
        let inside: Vec<u64> = (0..40).filter(in_moved).collect();
        let outside: Vec<u64> = (0..40).filter(|k| !in_moved(k)).collect();
        let mut t = small_tree(1 << 20);
        for &k in &outside {
            t.put(composite(k), val("stays"));
        }
        for &k in &inside[1..] {
            t.put(composite(k), val("old"));
        }
        t.delete(composite(inside[0]));
        t.mark_buckets_invalid(&[moved]);
        assert!(inside.iter().all(|k| t.get(&composite(*k)).is_none()));
        assert_eq!(t.live_len(), outside.len());
        assert_eq!(t.hidden_in(None, None), inside.len() as u64);

        // the bucket comes back: its data is installed as the oldest
        // components, and the old tombstone must not shadow it
        let back: Vec<Entry> = inside
            .iter()
            .map(|k| Entry::put(composite(*k), val("back")))
            .collect();
        t.append_oldest_components(vec![Component::from_unsorted(
            back,
            ComponentSource::Loaded,
        )]);
        for k in &inside {
            assert_eq!(t.get(&composite(*k)).unwrap(), val("back"));
        }
        t.put(composite(inside[1]), val("new"));
        assert_eq!(t.get(&composite(inside[1])).unwrap(), val("new"));
        assert_eq!(t.get(&composite(inside[2])).unwrap(), val("back"));
        assert_eq!(t.memtable().len(), outside.len() + 1, "dead entries purged");
        assert_eq!(t.hidden_in(None, None), 0);

        let flushed = t.flush().unwrap();
        assert_eq!(flushed.raw_len(), outside.len() + 1);
        assert_eq!(t.live_len(), 40);
    }

    #[test]
    fn mark_bucket_invalid_hides_and_merge_removes() {
        let mut t = small_tree(1 << 20);
        for i in 0..64u64 {
            t.put(composite(i), val("x"));
        }
        t.flush();
        let moved = BucketId::new(0, 1);
        t.mark_buckets_invalid(&[moved]);
        let visible_before_merge = t.live_len();
        assert!(visible_before_merge < 64);
        t.force_merge_all();
        assert_eq!(t.live_len(), visible_before_merge);
        assert!(!t.components()[0].needs_compaction());
    }
}
