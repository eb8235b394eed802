//! Immutable disk components.
//!
//! A disk component is a sorted, immutable run of entries produced by a
//! flush or a merge. Components are shared via `Arc`, which provides the
//! reference counting the paper uses to let readers keep accessing a
//! component even after it has been replaced or its bucket dropped.
//!
//! Two wrapper-level metadata features support DynaHash, each serving one
//! index:
//!
//! * **Reference components** (bucket splits of the bucketed primary index,
//!   Algorithm 1): the wrapper holds a `visible_bucket` filter; only entries
//!   whose key hashes into that bucket are visible. The actual data rewrite
//!   is postponed to the next merge.
//! * **Invalid buckets** (lazy cleanup of secondary indexes, Section V-C):
//!   the wrapper records buckets that were moved away; entries whose
//!   *primary key* — the primary part of the `SecondaryEntry` composite —
//!   belongs to one are filtered out of reads and physically dropped at the
//!   next merge.
//!
//! A filter is applied once per handle, by one pass that sizes the filtered
//! view and records which entries it shows (one bit per entry of the run);
//! reads consult that — a scan of a reference component hashes nothing and
//! costs what it returns, not what the shared run holds. A bucket split is
//! the only maker of reference components: it builds both children's views
//! when it makes them, in one pass over the entries the parent shows, one
//! hash each (`Component::split`). A lazy-cleanup mark records the moved
//! buckets and reads nothing: its view is the only one built lazily, when
//! the handle (or a clone of it) is first read, so a handle nobody reads
//! before it is replaced or dropped (a partition emptied by a scale-in)
//! never pays the pass.
//!
//! Every run built from unordered entries — a flush that finds no key order
//! kept, a repair feed, recovery's reshipped records, the deferred index
//! rebuild — is sorted by one routine: `(prefix, position)` integer pairs,
//! whole keys compared only where prefixes tie, then each entry moved once
//! into place.
//!
//! A run that a merge or a load wrote **owns its bytes**: its put payloads
//! are [`Bytes::slice`]s of one allocation laid out in key order, so a scan
//! clones them by bumping one hot reference count and reads them
//! sequentially. The flip side: a value handed to a reader by `get` or a scan
//! keeps that whole slab alive while it is held, exactly as a reader's handle
//! keeps a replaced component alive. Nothing in the system holds values
//! beyond a call (sessions cache routing state);
//! a caller that does should copy them ([`Bytes::to_vec`]).
//!
//! A run is **searched through a dense array of key prefixes**, not through
//! its entries: beside the 40-byte entries (the key, then the op and its
//! payload handle in 16 bytes) the run keeps the first eight bytes of every
//! key as one big-endian `u64` (shorter keys zero-padded), eight to a cache
//! line. Prefix order is key order wherever two prefixes differ, so one
//! routine —
//! `DiskComponentData::first_at_or_after`, which serves point lookups and
//! both bounds of a range — takes the partition point over the prefixes and
//! compares whole keys only where a step lands on an entry that shares the
//! sought key's prefix: never for an absent 8-byte key, once for a present
//! one, a few times for an `(orderkey, linenumber)` pair, for the steps
//! inside the run when a composite secondary key's leading column repeats.
//! The loop branches on each comparison instead of selecting: the steps of a
//! cold search miss the cache, and a predicted branch lets the next load
//! start before this one has arrived (measured in PR 24: ×1.2–×1.4 point
//! reads per second over `partition_point` on the same array).
//!
//! The same array **drives every merge**. A scan, a compaction and a
//! `range` read a run through one cursor (`RunCursor`, the only walker of
//! the visibility bits) that hands out each visible entry with its prefix,
//! and the merge in [`crate::iterator`] orders its sources by that integer,
//! reading whole keys only where two prefixes tie.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::bloom::BloomFilter;
use crate::bucket::{hash_key, BucketId, BucketSet};
use crate::bytes::Bytes;
use crate::entry::{key_order, permute, Entry, Key, Op};
use crate::secondary::SecondaryEntry;

/// Monotonically increasing identifier for disk components.
pub type ComponentId = u64;

static NEXT_COMPONENT_ID: AtomicU64 = AtomicU64::new(1);

fn next_component_id() -> ComponentId {
    NEXT_COMPONENT_ID.fetch_add(1, Ordering::Relaxed)
}

/// How a disk component came into existence. Rebalancing distinguishes
/// locally written data from data received from another partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentSource {
    /// Produced by flushing a memory component.
    Flush,
    /// Produced by merging older components.
    Merge,
    /// Bulk-loaded from records scanned at a source partition during a
    /// rebalance (strictly older than any replicated write, which reaches
    /// the pending bucket's memory component and is flushed from there).
    Loaded,
}

/// The immutable payload of a disk component.
#[derive(Debug)]
pub struct DiskComponentData {
    /// Unique identifier.
    pub id: ComponentId,
    /// Entries sorted by key (unique keys).
    pub entries: Vec<Entry>,
    /// [`Key::prefix`] of every entry's key, in entry order: what a search
    /// walks instead of the entries, and what a merge compares.
    prefixes: Vec<u64>,
    /// Bloom filter over the keys.
    pub bloom: BloomFilter,
    /// Total entry bytes (key + value + header).
    pub size_bytes: usize,
    /// Provenance of the component.
    pub source: ComponentSource,
}

/// Moves every put payload of `entries` into one allocation, in entry order;
/// each old payload is released as its entry is repointed.
fn pack_payloads(entries: &mut [Entry]) {
    let mut slab = Bytes::concat(entries.iter().filter_map(|e| e.op.value()));
    if slab.is_empty() {
        return; // keys only: nothing to own
    }
    for e in entries.iter_mut() {
        if let Op::Put(v) = &mut e.op {
            *v = slab.split_to(v.len());
        }
    }
}

impl DiskComponentData {
    /// Builds a component from pre-sorted entries. Every source but a flush
    /// is rewriting the bytes already and packs them into the run's own slab.
    /// A flush hands its payloads over where they lie: what a feed wrote is
    /// slices of per-bucket slabs already (the cluster packs a batch at the
    /// door), and gathering the rest — point writes, one allocation each —
    /// would hand those small allocations back to the allocator in the middle
    /// of an ingest, which costs the writes that follow more than it saves
    /// the reads (size-tiered merging rewrites a flushed run soon anyway).
    pub fn from_sorted(mut entries: Vec<Entry>, source: ComponentSource) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        if source != ComponentSource::Flush {
            pack_payloads(&mut entries);
        }
        let mut bloom = BloomFilter::with_capacity(entries.len());
        let mut prefixes = Vec::with_capacity(entries.len());
        let mut size = 0usize;
        for e in &entries {
            bloom.insert(&e.key);
            prefixes.push(e.key.prefix());
            size += e.size_bytes();
        }
        DiskComponentData {
            id: next_component_id(),
            entries,
            prefixes,
            bloom,
            size_bytes: size,
            source,
        }
    }

    /// Index of the first entry whose key is `>= key` (the run's length if
    /// there is none): how the run is searched, by point lookups and by both
    /// bounds of a range alike. A binary search over the prefix array that
    /// looks at an entry's whole key only when its prefix equals the key's —
    /// a smaller prefix means a smaller key, a greater one a greater key.
    fn first_at_or_after(&self, key: &Key) -> usize {
        let (prefix, raw) = (key.prefix(), key.as_slice());
        let (mut lo, mut hi) = (0, self.prefixes.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let p = self.prefixes[mid];
            // On a tie the bytes decide (`Key`'s order would compare the
            // prefixes again).
            if p < prefix || (p == prefix && self.entries[mid].key.as_slice() < raw) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A walk over the entries one handle shows within a key range, in key
/// order, each with its key's prefix: the one reader of a handle's
/// visibility bits, behind [`Component::range`] and every merge.
#[derive(Debug)]
pub(crate) struct RunCursor<'a> {
    /// The run's entries and their prefixes, cut at the range's upper bound.
    entries: &'a [Entry],
    prefixes: &'a [u64],
    /// The handle's visibility bits; `None` when every entry is visible.
    visible: Option<&'a [u64]>,
    /// The next entry to look at.
    at: usize,
}

impl<'a> Iterator for RunCursor<'a> {
    type Item = (u64, &'a Entry);

    #[inline]
    fn next(&mut self) -> Option<(u64, &'a Entry)> {
        if let Some(bits) = self.visible {
            while self.at < self.entries.len() {
                let rest_of_word = bits[self.at / 64] >> (self.at % 64);
                if rest_of_word != 0 {
                    self.at += rest_of_word.trailing_zeros() as usize;
                    break;
                }
                self.at = (self.at / 64 + 1) * 64;
            }
        }
        let entry = self.entries.get(self.at)?;
        let prefix = self.prefixes[self.at];
        self.at += 1;
        Some((prefix, entry))
    }
}

/// A handle to a disk component as seen by one LSM-tree (or one bucket).
///
/// Cloning a `Component` is cheap (it clones an `Arc` and small metadata).
#[derive(Clone, Debug)]
pub struct Component {
    data: Arc<DiskComponentData>,
    /// If set, only entries whose key hashes into this bucket are visible
    /// (reference component produced by a bucket split of a primary run).
    visible_bucket: Option<BucketId>,
    /// Buckets whose entries have been moved away and must be ignored (lazy
    /// cleanup of a secondary-index run, whose keys are composites).
    invalid_buckets: Arc<BucketSet>,
    /// What the filter leaves visible; `None` while no filter applies and
    /// every entry is visible. Built by the split that makes a reference
    /// component; unbuilt when a mark makes the handle, built by the first
    /// read through it or through any clone of it.
    view: Option<Arc<OnceLock<View>>>,
    /// True if this handle was transferred whole from another partition by a
    /// component-shipping rebalance (provenance; the underlying data keeps
    /// its original flush/merge source).
    shipped: bool,
}

/// The entries a filtered handle shows, recorded by one pass over the run.
#[derive(Debug)]
struct View {
    /// Bit `i` of the map (64 entries a word) stands for `data.entries[i]`.
    /// Reads test and walk these bits and never hash a key against the
    /// filters again.
    bits: Box<[u64]>,
    /// Number of visible entries.
    count: usize,
    /// Bytes of the visible entries.
    bytes: usize,
}

impl View {
    /// A view of a run of `len` entries that shows none of them.
    fn empty(len: usize) -> View {
        View {
            bits: vec![0; len.div_ceil(64)].into(),
            count: 0,
            bytes: 0,
        }
    }

    /// Shows entry `at`, of `bytes` bytes.
    fn show(&mut self, at: usize, bytes: usize) {
        self.bits[at / 64] |= 1 << (at % 64);
        self.count += 1;
        self.bytes += bytes;
    }

    /// How many of the entries at positions `[start, end)` the view shows:
    /// the set bits of the words that cover the range, masked to it.
    fn shown_between(&self, start: usize, end: usize) -> usize {
        if start >= end {
            return 0;
        }
        let in_word = |word: usize| {
            let first = start.max(word * 64) - word * 64;
            let past = end.min(word * 64 + 64) - word * 64;
            let mask = (u64::MAX >> (64 - (past - first))) << first;
            (self.bits[word] & mask).count_ones() as usize
        };
        (start / 64..=(end - 1) / 64).map(in_word).sum()
    }

    /// The positions the view shows, in order.
    fn shown(&self) -> impl Iterator<Item = usize> + '_ {
        (self.bits.iter().enumerate()).flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(word * 64 + bit)
            })
        })
    }
}

impl Component {
    /// Builds a brand-new component from sorted entries.
    pub fn from_sorted(entries: Vec<Entry>, source: ComponentSource) -> Self {
        Component {
            data: Arc::new(DiskComponentData::from_sorted(entries, source)),
            visible_bucket: None,
            invalid_buckets: Arc::default(),
            view: None,
            shipped: false,
        }
    }

    /// Builds a component from possibly unsorted entries (sorts and
    /// deduplicates keeping the last occurrence of each key). The sort is a
    /// flush's: [`crate::entry`]'s integer-pair `key_order`, then each entry
    /// moves once into place.
    pub fn from_unsorted(mut entries: Vec<Entry>, source: ComponentSource) -> Self {
        let mut order = key_order(&entries, 0);
        permute(&mut order, |at, from| entries.swap(at, from));
        entries.dedup_by(|newer, older| {
            if newer.key == older.key {
                // keep the later element (newer): overwrite `older` in place.
                std::mem::swap(newer, older);
                true
            } else {
                false
            }
        });
        Self::from_sorted(entries, source)
    }

    /// The two children of a bucket split, `lo` and `hi` the two halves of
    /// the bucket this handle serves: reference components with their views
    /// built (Algorithm 1), the only way one is made. One pass over the
    /// entries this handle shows — one hash each — fills both views, so a
    /// split of a split walks only what its parent shows.
    pub(crate) fn split(&self, lo: BucketId, hi: BucketId) -> (Component, Component) {
        let entries = &self.data.entries;
        let mut views = [View::empty(entries.len()), View::empty(entries.len())];
        let mut place = |at: usize| {
            let e = &entries[at];
            let hash = hash_key(&e.key);
            let side = if lo.contains_hash(hash) {
                0
            } else if hi.contains_hash(hash) {
                1
            } else {
                return;
            };
            views[side].show(at, e.size_bytes());
        };
        match self.view() {
            Some(view) => view.shown().for_each(&mut place),
            None => (0..entries.len()).for_each(&mut place),
        }
        let [lo_view, hi_view] = views;
        let child = |bucket, view| Component {
            visible_bucket: Some(bucket),
            view: Some(Arc::new(OnceLock::from(view))),
            ..self.clone()
        };
        (child(lo, lo_view), child(hi, hi_view))
    }

    /// Returns a handle to the same sealed data marked as shipped from
    /// another partition (component-level bucket movement). The filters,
    /// Bloom filter, and sorted run travel with the handle — nothing is
    /// copied or rebuilt.
    pub fn clone_shipped(&self) -> Component {
        let mut c = self.clone();
        c.shipped = true;
        c
    }

    /// True if this handle was received whole from another partition.
    pub fn is_shipped(&self) -> bool {
        self.shipped
    }

    /// The filtered view; `None` when the handle has no filter. A split
    /// builds a reference component's; a marked handle's is built on first
    /// use by one pass over the whole run checking the marks.
    fn view(&self) -> Option<&View> {
        let view = self.view.as_ref()?;
        Some(view.get_or_init(|| {
            let entries = &self.data.entries;
            let mut view = View::empty(entries.len());
            for (at, e) in entries.iter().enumerate() {
                if self.entry_visible(&e.key) {
                    view.show(at, e.size_bytes());
                }
            }
            view
        }))
    }

    /// True if this handle carries a filter whose view a read has built.
    #[doc(hidden)]
    pub fn view_is_built(&self) -> bool {
        self.view.as_ref().is_some_and(|v| v.get().is_some())
    }

    /// Returns a handle to the same data with `buckets` added to the
    /// lazy-cleanup metadata: reads through it skip every entry whose record
    /// belongs to a moved bucket, judged by the primary part of the entry's
    /// `SecondaryEntry` composite. Reads nothing — the new handle carries the
    /// extended bucket list and its first read applies all of it in one
    /// pass, however many marks came before; marking buckets that are
    /// already recorded changes nothing.
    pub(crate) fn mark_buckets_invalid(&self, buckets: &[BucketId]) -> Component {
        let mut invalid = (*self.invalid_buckets).clone();
        if !invalid.extend(buckets) {
            return self.clone();
        }
        debug_assert!(self.visible_bucket.is_none(), "a reference run is marked");
        Component {
            invalid_buckets: Arc::new(invalid),
            view: Some(Arc::default()),
            ..self.clone()
        }
    }

    /// Identifier of the underlying data.
    pub fn id(&self) -> ComponentId {
        self.data.id
    }

    /// Provenance of the underlying data.
    pub fn source(&self) -> ComponentSource {
        self.data.source
    }

    /// True if this is a reference component produced by a bucket split.
    pub fn is_reference(&self) -> bool {
        self.visible_bucket.is_some()
    }

    /// True if the component carries lazy-cleanup metadata or a bucket
    /// filter, i.e. a merge would physically drop some entries.
    pub fn needs_compaction(&self) -> bool {
        self.visible_bucket.is_some() || !self.invalid_buckets.is_empty()
    }

    /// Number of reference-counted owners of the underlying data (used by
    /// tests to check that readers keep components alive).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// Checks one composite key against the marks (one hash): what a
    /// marked handle's [`Component::view`] records per entry.
    fn entry_visible(&self, key: &Key) -> bool {
        !(self.invalid_buckets).contains_hash(SecondaryEntry::primary_hash(key))
    }

    /// Point lookup by a reader that has hashed its key already (the tree
    /// hands one hash to every component): `hash` must be `hash_key(key)`.
    /// Consults the Bloom filter first; applies the bucket filter and
    /// lazy-cleanup metadata. Returns the raw operation (which may be a
    /// tombstone).
    pub fn get_hashed(&self, key: &Key, hash: u64) -> Option<&Op> {
        if !self.data.bloom.may_contain_hash(hash) {
            return None;
        }
        let at = self.data.first_at_or_after(key);
        let entry = self.data.entries.get(at).filter(|e| e.key == *key)?;
        let visible = self
            .view()
            .is_none_or(|v| v.bits[at / 64] >> (at % 64) & 1 == 1);
        visible.then_some(&entry.op)
    }

    /// The cursor over the visible entries within `[lo, hi)`: two searches,
    /// nothing walked yet.
    pub(crate) fn cursor(&self, lo: Option<&Key>, hi: Option<&Key>) -> RunCursor<'_> {
        let data = &*self.data;
        let end = hi.map_or(data.entries.len(), |key| data.first_at_or_after(key));
        RunCursor {
            entries: &data.entries[..end],
            prefixes: &data.prefixes[..end],
            visible: self.view().map(|v| &*v.bits),
            at: lo.map_or(0, |key| data.first_at_or_after(key)),
        }
    }

    /// Entries within `[lo, hi)` that the handle's filter hides — the
    /// positions [`Component::cursor`] covers, less those it shows: two
    /// searches and a count of the view's bits between them.
    pub(crate) fn hidden_in(&self, lo: Option<&Key>, hi: Option<&Key>) -> usize {
        let Some(view) = self.view() else {
            return 0;
        };
        let data = &*self.data;
        let end = hi.map_or(data.entries.len(), |key| data.first_at_or_after(key));
        let start = lo.map_or(0, |key| data.first_at_or_after(key)).min(end);
        end - start - view.shown_between(start, end)
    }

    /// Iterates visible entries within `[lo, hi)` in key order.
    pub fn range<'a>(
        &'a self,
        lo: Option<&Key>,
        hi: Option<&Key>,
    ) -> impl Iterator<Item = &'a Entry> + 'a {
        self.cursor(lo, hi).map(|(_, entry)| entry)
    }

    /// Iterates all visible entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.range(None, None)
    }

    /// Number of entries in the underlying data (ignoring filters).
    pub fn raw_len(&self) -> usize {
        self.data.entries.len()
    }

    /// Number of entries visible through this handle (applies filters). O(1)
    /// once the view is built.
    pub fn visible_len(&self) -> usize {
        self.view().map_or(self.data.entries.len(), |v| v.count)
    }

    /// Bytes of the underlying data. Reference components share the data and
    /// report the same value for read-cost purposes.
    pub fn size_bytes(&self) -> usize {
        self.data.size_bytes
    }

    /// Bytes of *visible* data: what a rebalance scan of this component would
    /// ship, or what a merge would rewrite. O(1) once the view is built.
    pub fn visible_size_bytes(&self) -> usize {
        self.view().map_or(self.data.size_bytes, |v| v.bytes)
    }

    /// [`Component::visible_size_bytes`] where it is known without a read:
    /// always for an unfiltered handle, once its view is built for a
    /// filtered one.
    pub(crate) fn known_visible_size_bytes(&self) -> Option<usize> {
        match &self.view {
            None => Some(self.data.size_bytes),
            Some(view) => view.get().map(|v| v.bytes),
        }
    }

    /// Bytes of storage newly occupied by this component. Reference
    /// components occupy no additional storage (they only point at existing
    /// data), which matches the paper's description.
    pub fn storage_bytes(&self) -> usize {
        if self.is_reference() {
            0
        } else {
            self.data.size_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::hash_key;
    use crate::bytes::Bytes;

    impl Component {
        /// Point lookup by key alone.
        fn get(&self, key: &Key) -> Option<&Op> {
            self.get_hashed(key, hash_key(key))
        }
    }

    fn comp(keys: &[u64]) -> Component {
        let entries = keys
            .iter()
            .map(|&k| Entry::put(Key::from_u64(k), Bytes::from(vec![k as u8; 4])))
            .collect();
        Component::from_unsorted(entries, ComponentSource::Flush)
    }

    #[test]
    fn point_lookup_finds_present_keys() {
        let c = comp(&[1, 5, 9]);
        assert!(c.get(&Key::from_u64(5)).is_some());
        assert!(c.get(&Key::from_u64(4)).is_none());
    }

    #[test]
    fn from_unsorted_dedups_keeping_newest() {
        let entries = vec![
            Entry::put(Key::from_u64(1), Bytes::from("old")),
            Entry::put(Key::from_u64(1), Bytes::from("new")),
        ];
        let c = Component::from_unsorted(entries, ComponentSource::Flush);
        assert_eq!(c.raw_len(), 1);
        match c.get(&Key::from_u64(1)).unwrap() {
            Op::Put(v) => assert_eq!(v.as_ref(), b"new"),
            Op::Delete => panic!("expected put"),
        }
    }

    #[test]
    fn reference_component_filters_by_bucket() {
        let c = comp(&(0..100).collect::<Vec<_>>());
        let (r0, r1) = c.split(BucketId::new(0, 1), BucketId::new(1, 1));
        assert!(r0.is_reference());
        assert_eq!(r0.storage_bytes(), 0);
        assert_eq!(r0.visible_len() + r1.visible_len(), c.raw_len());
        // every key visible in exactly one child
        for k in 0..100u64 {
            let key = Key::from_u64(k);
            let in0 = r0.get(&key).is_some();
            let in1 = r1.get(&key).is_some();
            assert!(in0 ^ in1, "key {k} must be visible in exactly one child");
        }
    }

    #[test]
    fn range_scan_respects_bounds_and_order() {
        let c = comp(&[1, 3, 5, 7, 9]);
        let lo = Key::from_u64(3);
        let hi = Key::from_u64(8);
        let got: Vec<u64> = c
            .range(Some(&lo), Some(&hi))
            .map(|e| e.key.as_u64())
            .collect();
        assert_eq!(got, vec![3, 5, 7]);
    }

    #[test]
    fn ref_count_tracks_sharing() {
        let c = comp(&[1]);
        assert_eq!(c.ref_count(), 1);
        let children = c.split(BucketId::new(0, 1), BucketId::new(1, 1));
        assert_eq!(c.ref_count(), 3);
        drop(children);
        assert_eq!(c.ref_count(), 1);
    }

    #[test]
    fn component_ids_are_unique() {
        let a = comp(&[1]);
        let b = comp(&[1]);
        assert_ne!(a.id(), b.id());
    }

    /// A split builds both children's views in one pass over what the
    /// parent shows, and each must be the view a lazy build would record —
    /// one pass over the whole shared run testing every key against the
    /// child's bucket, kept here as the oracle — the same bits, count and
    /// bytes: for a parent with no filter and for splits of splits down four
    /// levels.
    #[test]
    fn one_pass_split_views_are_the_lazily_built_views() {
        use crate::rng::SplitMix64;

        for seed in 0..48u64 {
            let mut rng = SplitMix64::seed_from_u64(0x5b11_7000 + seed);
            let entries: Vec<Entry> = (0..rng.gen_range(1..700))
                .map(|_| {
                    let key = Key::from_u64(rng.gen_range(0..900));
                    Entry::put(key, Bytes::from(vec![7u8; rng.gen_index(24)]))
                })
                .collect();
            let mut parent = Component::from_unsorted(entries, ComponentSource::Merge);
            let mut bucket = BucketId::root();
            for level in 0..4 {
                let (lo, hi) = bucket.split();
                let (lo_child, hi_child) = parent.split(lo, hi);
                for (child, half) in [(&lo_child, lo), (&hi_child, hi)] {
                    assert!(child.view_is_built(), "seed {seed}, level {level}");
                    let mut lazy = View::empty(child.raw_len());
                    for (at, e) in child.data.entries.iter().enumerate() {
                        if half.contains_key(&e.key) {
                            lazy.show(at, e.size_bytes());
                        }
                    }
                    let eager = child.view().unwrap();
                    assert_eq!(
                        (&eager.bits, eager.count, eager.bytes),
                        (&lazy.bits, lazy.count, lazy.bytes),
                        "seed {seed}, level {level}, {half:?}"
                    );
                    assert_eq!(child.known_visible_size_bytes(), Some(eager.bytes));
                }
                (parent, bucket) = match rng.gen_ratio(1, 2) {
                    true => (lo_child, lo),
                    false => (hi_child, hi),
                };
            }
        }
    }

    /// Laziness changes nothing a reader can see. Random chains over one
    /// run, in the shapes runs reach — splits of a primary run (split →
    /// split), marks of a secondary run of composite keys (handles marked
    /// twice before anyone reads them), and `clone_shipped` / `clone` of
    /// either, clones taken before and after a view is built — are read in
    /// random order, each through a random accessor first, and `get`,
    /// bounded `range`s (and the entries `hidden_in` them), `iter`,
    /// `visible_len` and `visible_size_bytes` must all agree with the oracle
    /// that decodes, hashes and filters every entry (the pre-bitmap
    /// algorithm, kept here). A split builds its children's views; no mark's
    /// view is built before a read asks for it.
    #[test]
    fn prop_lazy_views_match_the_filtering_oracle_in_any_read_order() {
        use crate::rng::SplitMix64;

        for seed in 0..64u64 {
            let mut rng = SplitMix64::seed_from_u64(0xb175_0000 + seed);
            let composite = seed % 2 == 1;
            let key_of = |k: u64| match composite {
                false => Key::from_u64(k),
                true => SecondaryEntry {
                    secondary: Key::from_u64(k % 11),
                    primary: Key::from_u64(k),
                }
                .encode(),
            };
            let primary_of = |key: &Key| match composite {
                false => key.clone(),
                true => SecondaryEntry::decode(key).unwrap().primary,
            };
            let entries: Vec<Entry> = (0..rng.gen_range(1..400))
                .map(|_| {
                    let key = key_of(rng.gen_range(0..600));
                    if rng.gen_ratio(1, 5) {
                        Entry::delete(key)
                    } else {
                        Entry::put(key, Bytes::from(vec![7u8; rng.gen_index(24)]))
                    }
                })
                .collect();
            let whole = Component::from_unsorted(entries, ComponentSource::Merge);
            // Each handle with the filter it must apply: the bucket it is
            // restricted to and the buckets marked moved.
            let mut handles = vec![(whole, None::<BucketId>, Vec::<BucketId>::new())];
            for _ in 0..rng.gen_range(1..12) {
                let (from, bucket, mut moved) = handles[rng.gen_index(handles.len())].clone();
                // a primary run is split, a secondary run marked
                let link = match composite {
                    false => [0, 4, 5][rng.gen_index(3)],
                    true => rng.gen_range(1..6),
                };
                let next = match link {
                    0 => {
                        let (lo, hi) = bucket.unwrap_or(BucketId::root()).split();
                        let (lo_child, hi_child) = from.split(lo, hi);
                        match rng.gen_ratio(1, 2) {
                            true => (lo_child, Some(lo), moved),
                            false => (hi_child, Some(hi), moved),
                        }
                    }
                    1..=3 => {
                        let mut marked = from.clone();
                        // link 3: marked twice before anyone reads it
                        for _ in 0..1 + link / 3 {
                            let depth = rng.gen_range(1..5) as u8;
                            let more: Vec<BucketId> = (0..rng.gen_range(0..4))
                                .map(|_| BucketId::new(rng.next_u64() as u32, depth))
                                .collect();
                            marked = marked.mark_buckets_invalid(&more);
                            moved.extend(more);
                        }
                        (marked, bucket, moved)
                    }
                    4 => (from.clone_shipped(), bucket, moved),
                    _ => (from.clone(), bucket, moved),
                };
                match link {
                    0 => assert!(next.0.view_is_built(), "seed {seed}: split unbuilt"),
                    _ => assert!(
                        !next.0.view_is_built() || from.view_is_built(),
                        "seed {seed}"
                    ),
                }
                if rng.gen_ratio(1, 3) {
                    next.0.visible_len(); // later links start from a built view
                }
                if link >= 4 {
                    // a clone and its origin share one view, whoever builds it
                    assert_eq!(from.view_is_built(), next.0.view_is_built(), "seed {seed}");
                }
                handles.push(next);
            }

            let mut order: Vec<usize> = (0..handles.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_index(i + 1));
            }
            for at in order {
                let (h, bucket, moved) = &handles[at];
                let oracle = |lo: Option<&Key>, hi: Option<&Key>| -> Vec<&Entry> {
                    (h.data.entries.iter())
                        .filter(|e| {
                            lo.is_none_or(|lo| e.key >= *lo) && hi.is_none_or(|hi| e.key < *hi)
                        })
                        .filter(|e| {
                            let primary = primary_of(&e.key);
                            bucket.is_none_or(|b| b.contains_key(&primary))
                                && !moved.iter().any(|b| b.contains_key(&primary))
                        })
                        .collect()
                };
                let all = oracle(None, None);
                let first = rng.gen_index(5);
                for accessor in (first..5).chain(0..first) {
                    let ctx = format!("seed {seed}, handle {at}, accessor {accessor}");
                    match accessor {
                        0 => assert_eq!(h.visible_len(), all.len(), "{ctx}"),
                        1 => assert_eq!(
                            h.visible_size_bytes(),
                            all.iter().map(|e| e.size_bytes()).sum::<usize>(),
                            "{ctx}"
                        ),
                        2 => assert_eq!(h.iter().collect::<Vec<_>>(), all, "{ctx}"),
                        3 => {
                            for _ in 0..8 {
                                // bounds on, between and beyond stored keys, in either order
                                let (a, b) =
                                    (key_of(rng.gen_range(0..640)), key_of(rng.gen_range(0..640)));
                                let lo = rng.gen_ratio(3, 4).then_some(&a);
                                let hi = rng.gen_ratio(3, 4).then_some(&b);
                                let got: Vec<_> = h.range(lo, hi).collect();
                                assert_eq!(got, oracle(lo, hi), "{ctx}, range {lo:?}..{hi:?}");
                                let raw = (h.data.entries.iter())
                                    .filter(|e| {
                                        lo.is_none_or(|lo| e.key >= *lo)
                                            && hi.is_none_or(|hi| e.key < *hi)
                                    })
                                    .count();
                                let hidden = h.hidden_in(lo, hi);
                                assert_eq!(hidden, raw - got.len(), "{ctx}, hidden {lo:?}..{hi:?}");
                            }
                        }
                        _ => {
                            // every key the run may hold, and 40 it cannot
                            for key in (0..640).map(key_of) {
                                let expected = all.iter().find(|v| v.key == key).map(|v| &v.op);
                                assert_eq!(h.get(&key), expected, "{ctx}, key {key:?}");
                            }
                        }
                    }
                    assert!(h.view.is_none() || h.view_is_built(), "{ctx}");
                }
            }
        }
    }

    /// The prefix-array search against the plain searches over the entries
    /// it replaced, kept here as the oracle: `first_at_or_after` against
    /// `partition_point`, `get` against `binary_search_by`, `range` against a
    /// filter over every entry — for keys the run holds, keys that fall
    /// between them, below the first and above the last, and bounds in
    /// either order.
    #[test]
    fn the_prefix_search_matches_the_search_over_entries() {
        use crate::entry::keys_of_every_shape;
        use crate::rng::SplitMix64;

        let universe = keys_of_every_shape();
        for seed in 0..24u64 {
            let mut rng = SplitMix64::seed_from_u64(0x5ea2_c400 + seed);
            // seeds 0 and 1: nothing held, everything held
            let mut entries = Vec::new();
            for key in &universe {
                if seed == 0 || (seed > 1 && rng.gen_ratio(1, 2)) {
                    continue;
                }
                entries.push(if rng.gen_ratio(1, 6) {
                    Entry::delete(key.clone())
                } else {
                    Entry::put(key.clone(), Bytes::from(vec![9u8; rng.gen_index(12)]))
                });
            }
            let c = Component::from_unsorted(entries, ComponentSource::Flush);
            let run = &c.data.entries;
            assert_eq!(c.data.prefixes.len(), run.len());
            for key in &universe {
                let ctx = format!("seed {seed}, key {key:?}");
                let at = run.partition_point(|e| e.key < *key);
                assert_eq!(c.data.first_at_or_after(key), at, "{ctx}");
                let found = run.binary_search_by(|e| e.key.cmp(key)).ok();
                assert_eq!(c.get(key), found.map(|at| &run[at].op), "{ctx}");
            }
            for _ in 0..200 {
                let (a, b) = (
                    &universe[rng.gen_index(universe.len())],
                    &universe[rng.gen_index(universe.len())],
                );
                let lo = rng.gen_ratio(4, 5).then_some(a);
                let hi = rng.gen_ratio(4, 5).then_some(b);
                let expected: Vec<&Entry> = run
                    .iter()
                    .filter(|e| lo.is_none_or(|lo| e.key >= *lo) && hi.is_none_or(|hi| e.key < *hi))
                    .collect();
                let got: Vec<&Entry> = c.range(lo, hi).collect();
                assert_eq!(got, expected, "seed {seed}, range {lo:?}..{hi:?}");
            }
        }
    }

    #[test]
    fn clone_shipped_shares_data_and_keeps_filters() {
        let c = comp(&(0..40).collect::<Vec<_>>());
        let restricted = c.split(BucketId::new(0, 1), BucketId::new(1, 1)).1;
        let shipped = restricted.clone_shipped();
        assert!(shipped.is_shipped());
        assert!(!restricted.is_shipped());
        assert_eq!(shipped.id(), c.id(), "shipping must not copy the data");
        assert_eq!(shipped.visible_len(), restricted.visible_len());
        assert_eq!(shipped.visible_bucket, restricted.visible_bucket);
        assert_eq!(c.ref_count(), 3, "shipped handle shares the Arc");
    }
}
