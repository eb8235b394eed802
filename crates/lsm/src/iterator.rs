//! Merging iterators over multiple LSM components.
//!
//! A range query over an LSM-tree must reconcile entries with identical keys
//! coming from several components: entries from newer components override
//! those from older components (Section II-B of the paper). The merge the
//! tree runs — for scans, component merges and installing a moved bucket
//! alike — is [`MergeIter`]: a loser tree (a tournament) over concrete
//! cursors, ordered newest first, that pulls lazily from the memory
//! component's key order and from the runs where their entries lie and clones
//! only what the caller keeps. For duplicate keys the entry from the source
//! with the smallest index wins; reconciled tombstones are dropped or kept
//! as the caller asks. [`kmerge_disjoint`] merges inputs that are already
//! reconciled and share no key, and [`reconcile_point`] is the point-lookup
//! form of the same newest-wins rule.
//!
//! The comparisons are integers. A run's cursor hands out each entry with
//! its key's prefix, read off the run's dense prefix array (the one its
//! searches use, see [`crate::component`]); the memory component's cursor
//! computes it with [`Key::prefix`]. Prefix order is key order wherever two
//! prefixes differ, so a match in the tree compares whole keys only on a
//! tie, and an output costs one leaf-to-root replay: ⌈log₂ k⌉ comparisons
//! for k sources.
//!
//! The materialising heap merge the tree once ran survives as the test-only
//! `oracle` module, the reference the loser tree is compared against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::bucket::BucketSet;
use crate::component::{Component, RunCursor};
use crate::entry::{Entry, Key, Op};
use crate::memtable;
use crate::secondary::SecondaryEntry;

/// Reconciles a point-lookup result across sources ordered newest first:
/// the first source containing the key decides.
pub fn reconcile_point<'a>(mut lookups: impl Iterator<Item = Option<&'a Op>>) -> Option<&'a Op> {
    lookups.find_map(|op| op)
}

/// One key-ordered input of a [`MergeIter`], yielding `(prefix, key, op)`
/// borrowed from where the entry lies.
pub(crate) enum Cursor<'a> {
    /// The entries one component handle shows within the merge's range.
    Run(RunCursor<'a>),
    /// A memory component's entries within the range, less those of the
    /// buckets its tree marked moved since its last flush (`dead`, set only
    /// while there are any; the keys are then secondary composites).
    Buffered {
        entries: memtable::Range<'a>,
        dead: Option<&'a BucketSet>,
    },
}

impl<'a> Cursor<'a> {
    // The per-entry steps of the merge carry `#[inline]`: each caller's
    // codegen unit instantiates the merge, and without the hint these steps
    // stay out of line there (measured on a secondary-index visit over one
    // run: 35 ns per entry without the hints, 18 with).
    #[inline]
    fn next(&mut self) -> Option<Head<'a>> {
        let (prefix, key, op) = match self {
            Cursor::Run(run) => run.next().map(|(prefix, e)| (prefix, &e.key, &e.op))?,
            Cursor::Buffered { entries, dead } => loop {
                let (key, op) = entries.next()?;
                let moved =
                    dead.is_some_and(|set| set.contains_hash(SecondaryEntry::primary_hash(key)));
                if !moved {
                    break (key.prefix(), key, op);
                }
            },
        };
        Some(Head {
            prefix,
            entry: Some((key, op)),
        })
    }
}

/// A leaf's current entry with its key's prefix. An exhausted leaf — or a
/// padding leaf, which never had a source — holds no entry and the largest
/// prefix, and loses to every leaf that holds one.
#[derive(Clone, Copy)]
struct Head<'a> {
    prefix: u64,
    entry: Option<(&'a Key, &'a Op)>,
}

impl<'a> Head<'a> {
    const EXHAUSTED: Head<'static> = Head {
        prefix: u64::MAX,
        entry: None,
    };

    /// True if this head holds `key`, whose prefix is `prefix`.
    #[inline]
    fn holds(&self, prefix: u64, key: &Key) -> bool {
        self.prefix == prefix && self.entry.is_some_and(|(k, _)| k == key)
    }
}

/// A reconciling k-way merge over borrowed sources (newest source first)
/// that clones nothing unless iterated as an [`Iterator`]: a loser tree
/// whose leaves are the sources' current heads, padded to a power of two
/// with exhausted leaves and ordered by `(prefix, key bytes, source index)`.
pub struct MergeIter<'a> {
    /// The sources that held an entry when the merge began, newest first.
    cursors: Vec<Cursor<'a>>,
    /// Leaf `i`'s head: source `i`'s next entry; the leaves past the
    /// sources are padding.
    heads: Vec<Head<'a>>,
    /// `tree[0]` is the leaf holding the smallest head, `tree[n]` (`n ≥ 1`)
    /// the leaf that lost the match at internal node `n`. Node `n`'s
    /// children are `2n` and `2n + 1`; leaf `i` is node `heads.len() + i`.
    tree: Vec<usize>,
    include_tombstones: bool,
}

impl<'a> MergeIter<'a> {
    /// Creates a merge over the given cursors, **newest source first**. With
    /// `include_tombstones` false, reconciled deletes are skipped (query
    /// behaviour); with true they are emitted (partial-merge behaviour).
    /// Sources with nothing to give are dropped here, which keeps the
    /// others in their order.
    pub(crate) fn new(mut cursors: Vec<Cursor<'a>>, include_tombstones: bool) -> Self {
        let mut heads = Vec::with_capacity(cursors.len().next_power_of_two());
        cursors.retain_mut(|cursor| {
            let head = cursor.next();
            heads.extend(head);
            head.is_some()
        });
        let leaves = heads.len().next_power_of_two();
        heads.resize(leaves, Head::EXHAUSTED);
        let mut merge = MergeIter {
            cursors,
            heads,
            tree: vec![0; leaves],
            include_tombstones,
        };
        // Play every match once, bottom-up; `winners[n]` is node n's winner.
        let mut winners: Vec<usize> = (0..leaves).chain(0..leaves).collect();
        for node in (1..leaves).rev() {
            let (a, b) = (winners[2 * node], winners[2 * node + 1]);
            let (winner, loser) = if merge.beats(a, b) { (a, b) } else { (b, a) };
            winners[node] = winner;
            merge.tree[node] = loser;
        }
        merge.tree[0] = winners[1];
        merge
    }

    /// A merge over every visible entry of `components`, newest first.
    pub fn over_components(components: &'a [Component], include_tombstones: bool) -> Self {
        let cursors = components.iter().map(|c| Cursor::Run(c.cursor(None, None)));
        MergeIter::new(cursors.collect(), include_tombstones)
    }

    /// True if leaf `a`'s head comes before leaf `b`'s: by prefix, then —
    /// only on a tie — by key bytes, then by source (the newer first).
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        let (x, y) = (&self.heads[a], &self.heads[b]);
        if x.prefix != y.prefix {
            return x.prefix < y.prefix;
        }
        match (x.entry, y.entry) {
            (Some((kx, _)), Some((ky, _))) => match kx.as_slice().cmp(ky.as_slice()) {
                Ordering::Equal => a < b,
                unequal => unequal.is_lt(),
            },
            (held, other) => held.is_some() || (other.is_none() && a < b),
        }
    }

    /// Moves the winning leaf's source on by one entry and replays the
    /// matches on the path from that leaf to the root.
    #[inline]
    fn advance_winner(&mut self) {
        let mut winner = self.tree[0];
        self.heads[winner] = self.cursors[winner].next().unwrap_or(Head::EXHAUSTED);
        let mut node = (self.heads.len() + winner) / 2;
        while node > 0 {
            let other = self.tree[node];
            if self.beats(other, winner) {
                self.tree[node] = winner;
                winner = other;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The next reconciled entry, borrowed from its source: what
    /// [`Iterator::next`] clones. Callers that only count, or need only the
    /// key, use this and copy nothing else.
    #[inline]
    pub fn next_ref(&mut self) -> Option<(&'a Key, &'a Op)> {
        loop {
            let Head { prefix, entry } = self.heads[self.tree[0]];
            let (key, op) = entry?;
            self.advance_winner();
            // Other versions of the key are older and win next, one by one.
            while self.heads[self.tree[0]].holds(prefix, key) {
                self.advance_winner();
            }
            if op.is_delete() && !self.include_tombstones {
                continue;
            }
            return Some((key, op));
        }
    }

    /// Hands every remaining entry, still borrowed, to `visit` and returns
    /// the bytes they weigh ([`Entry::size_of_parts`]): a scan's one pass.
    pub fn visit_all(mut self, mut visit: impl FnMut(&'a Key, &'a Op)) -> u64 {
        let mut bytes = 0;
        while let Some((key, op)) = self.next_ref() {
            bytes += Entry::size_of_parts(key, op) as u64;
            visit(key, op);
        }
        bytes
    }
}

impl Iterator for MergeIter<'_> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let (key, op) = self.next_ref()?;
        Some(Entry::from_parts(key, op))
    }
}

/// K-way merge of already-reconciled, key-ordered entry iterators whose key
/// sets are pairwise disjoint (per-bucket scans: every key lives in exactly
/// one bucket). The output is materialised exactly once, in key order; the
/// heap owns each source's head entry directly, so no per-entry key clone
/// is made.
pub fn kmerge_disjoint<I>(iters: Vec<I>) -> Vec<Entry>
where
    I: Iterator<Item = Entry>,
{
    struct OwnedHeapItem {
        entry: Entry,
        source: usize,
    }
    impl PartialEq for OwnedHeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.entry.key == other.entry.key && self.source == other.source
        }
    }
    impl Eq for OwnedHeapItem {}
    impl Ord for OwnedHeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .entry
                .key
                .cmp(&self.entry.key)
                .then_with(|| other.source.cmp(&self.source))
        }
    }
    impl PartialOrd for OwnedHeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut iters = iters;
    let mut heap = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some(entry) = it.next() {
            heap.push(OwnedHeapItem { entry, source: i });
        }
    }
    let mut out = Vec::new();
    while let Some(top) = heap.pop() {
        if let Some(entry) = iters[top.source].next() {
            heap.push(OwnedHeapItem {
                entry,
                source: top.source,
            });
        }
        debug_assert!(
            out.last()
                .map(|p: &Entry| p.key < top.entry.key)
                .unwrap_or(true),
            "kmerge_disjoint sources must hold pairwise-disjoint sorted keys"
        );
        out.push(top.entry);
    }
    out
}

/// The materialising reference merge: every source is collected into its own
/// `Vec<Entry>` first and the heap clones keys. Nothing in the tree calls it;
/// it is what tests check [`MergeIter`] against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// One sorted input to the merge: an already-materialised, key-ordered list
    /// of entries (memtable snapshot or visible component entries).
    pub type SortedSource = Vec<Entry>;

    struct HeapItem {
        key: Key,
        source: usize,
        pos: usize,
    }

    impl PartialEq for HeapItem {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.source == other.source
        }
    }
    impl Eq for HeapItem {}

    impl Ord for HeapItem {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse to get the smallest key first,
            // breaking ties in favour of the newest (lowest-index) source.
            other
                .key
                .cmp(&self.key)
                .then_with(|| other.source.cmp(&self.source))
        }
    }
    impl PartialOrd for HeapItem {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A reconciling k-way merge iterator.
    pub struct MergingIter {
        sources: Vec<SortedSource>,
        heap: BinaryHeap<HeapItem>,
        include_tombstones: bool,
    }

    impl MergingIter {
        /// Creates a merge over the given sources, **newest source first**.
        ///
        /// If `include_tombstones` is false, reconciled deletes are skipped
        /// (normal query behaviour); if true they are emitted (used by merges
        /// that must retain tombstones).
        pub fn new(sources: Vec<SortedSource>, include_tombstones: bool) -> Self {
            let mut heap = BinaryHeap::new();
            for (i, s) in sources.iter().enumerate() {
                if let Some(e) = s.first() {
                    heap.push(HeapItem {
                        key: e.key.clone(),
                        source: i,
                        pos: 0,
                    });
                }
            }
            MergingIter {
                sources,
                heap,
                include_tombstones,
            }
        }

        fn advance(&mut self, source: usize, pos: usize) {
            let next = pos + 1;
            if let Some(e) = self.sources[source].get(next) {
                self.heap.push(HeapItem {
                    key: e.key.clone(),
                    source,
                    pos: next,
                });
            }
        }
    }

    impl Iterator for MergingIter {
        type Item = Entry;

        fn next(&mut self) -> Option<Entry> {
            loop {
                let top = self.heap.pop()?;
                let winner = self.sources[top.source][top.pos].clone();
                self.advance(top.source, top.pos);
                // Drop all other occurrences of the same key (they are older).
                while self.heap.peek().is_some_and(|peek| peek.key == winner.key) {
                    let Some(dup) = self.heap.pop() else { break };
                    self.advance(dup.source, dup.pos);
                }
                if winner.op.is_delete() && !self.include_tombstones {
                    continue;
                }
                return Some(winner);
            }
        }
    }

    /// Merges the sources and returns only live (non-tombstone) entries.
    pub fn merge_live(sources: Vec<SortedSource>) -> Vec<Entry> {
        MergingIter::new(sources, false).collect()
    }

    /// Merges the sources keeping reconciled tombstones (used when the merge
    /// result does not include the oldest component, so deletes must survive).
    pub fn merge_keep_tombstones(sources: Vec<SortedSource>) -> Vec<Entry> {
        MergingIter::new(sources, true).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{merge_keep_tombstones, merge_live, MergingIter};
    use super::*;
    use crate::bucket::BucketId;
    use crate::bytes::Bytes;
    use crate::component::ComponentSource;
    use crate::memtable::MemTable;

    fn put(k: u64, tag: &str) -> Entry {
        Entry::put(Key::from_u64(k), Bytes::from(tag.as_bytes().to_vec()))
    }

    fn del(k: u64) -> Entry {
        Entry::delete(Key::from_u64(k))
    }

    fn values(entries: &[Entry]) -> Vec<(u64, String)> {
        entries
            .iter()
            .map(|e| {
                (
                    e.key.as_u64(),
                    match &e.op {
                        Op::Put(v) => String::from_utf8_lossy(v).to_string(),
                        Op::Delete => "<del>".to_string(),
                    },
                )
            })
            .collect()
    }

    /// The loser tree over one run per source.
    fn merged(sources: &[Vec<Entry>], include_tombstones: bool) -> Vec<Entry> {
        let runs: Vec<Component> = sources
            .iter()
            .map(|s| Component::from_sorted(s.clone(), ComponentSource::Flush))
            .collect();
        MergeIter::over_components(&runs, include_tombstones).collect()
    }

    #[test]
    fn newer_source_wins() {
        let newer = vec![put(1, "new1"), put(3, "new3")];
        let older = vec![put(1, "old1"), put(2, "old2"), put(3, "old3")];
        let merged = merge_live(vec![newer, older]);
        assert_eq!(
            values(&merged),
            vec![(1, "new1".into()), (2, "old2".into()), (3, "new3".into())]
        );
    }

    #[test]
    fn tombstones_hide_older_entries() {
        let newer = vec![del(2)];
        let older = vec![put(1, "a"), put(2, "b"), put(3, "c")];
        let merged = merge_live(vec![newer, older]);
        assert_eq!(values(&merged), vec![(1, "a".into()), (3, "c".into())]);
    }

    #[test]
    fn tombstones_kept_when_requested() {
        let newer = vec![del(2)];
        let older = vec![put(2, "b")];
        let merged = merge_keep_tombstones(vec![newer, older]);
        assert_eq!(values(&merged), vec![(2, "<del>".into())]);
    }

    #[test]
    fn output_is_sorted_and_unique() {
        let a = vec![put(1, "a1"), put(4, "a4"), put(9, "a9")];
        let b = vec![put(2, "b2"), put(4, "b4"), put(8, "b8")];
        let c = vec![put(1, "c1"), put(9, "c9"), put(10, "c10")];
        let merged = merge_live(vec![a, b, c]);
        let keys: Vec<u64> = merged.iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(keys, vec![1, 2, 4, 8, 9, 10]);
        // key 4 resolved from source a (newer than b)
        assert_eq!(values(&merged)[2], (4, "a4".into()));
    }

    #[test]
    fn empty_sources_are_fine() {
        assert!(merge_live(vec![]).is_empty());
        assert!(merge_live(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn lazy_merge_matches_materialized_merge() {
        let newer = vec![del(2), put(3, "new3")];
        let older = vec![put(1, "old1"), put(2, "old2"), put(3, "old3")];
        let sources = [newer, older];
        let expected = merge_live(sources.to_vec());
        assert_eq!(values(&merged(&sources, false)), values(&expected));
        let expected_t = merge_keep_tombstones(sources.to_vec());
        assert_eq!(values(&merged(&sources, true)), values(&expected_t));
    }

    #[test]
    fn lazy_merge_handles_empty_sources() {
        assert!(merged(&[], false).is_empty());
        let lazy = merged(&[vec![], vec![put(1, "a")], vec![]], false);
        assert_eq!(values(&lazy), vec![(1, "a".into())]);
    }

    #[test]
    fn kmerge_disjoint_orders_across_sources() {
        let a = vec![put(1, "a"), put(5, "a"), put(9, "a")];
        let b = vec![put(2, "b"), put(4, "b")];
        let c = vec![put(3, "c"), put(8, "c")];
        let merged = kmerge_disjoint(vec![a.into_iter(), b.into_iter(), c.into_iter()]);
        let keys: Vec<u64> = merged.iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 8, 9]);
        assert!(kmerge_disjoint(Vec::<std::vec::IntoIter<Entry>>::new()).is_empty());
    }

    /// A merge whose every surviving entry is a tombstone — the shape of an
    /// all-deleted bucket mid-rebalance. Live mode must produce nothing;
    /// partial-merge mode must keep every tombstone exactly once.
    #[test]
    fn all_tombstone_sources_reconcile_to_nothing_live() {
        let sources = [vec![del(1), del(3)], vec![del(1), del(2), del(3)]];
        let live = merged(&sources, false);
        assert!(live.is_empty(), "all-tombstone merge leaked {live:?}");
        assert_eq!(
            values(&merged(&sources, true)),
            vec![
                (1, "<del>".into()),
                (2, "<del>".into()),
                (3, "<del>".into())
            ]
        );
    }

    /// A single source must pass through unchanged in both modes (the
    /// degenerate merge after a bucket compacts to one component).
    #[test]
    fn lazy_merge_single_source_passes_through() {
        let only = [vec![put(1, "a"), del(2), put(3, "c")]];
        assert_eq!(
            values(&merged(&only, false)),
            vec![(1, "a".into()), (3, "c".into())]
        );
        assert_eq!(
            values(&merged(&only, true)),
            vec![(1, "a".into()), (2, "<del>".into()), (3, "c".into())]
        );
    }

    /// The same key in *every* source at once: only the newest op survives
    /// and each older head is consumed (no duplicate emission, no stall).
    #[test]
    fn lazy_merge_key_present_in_all_sources() {
        let sources = [vec![put(5, "v0")], vec![del(5)], vec![put(5, "v2")]];
        assert_eq!(values(&merged(&sources, true)), vec![(5, "v0".into())]);
    }

    /// The loser tree against the heap oracle over random sources: 0, 1 and
    /// 1–70 of them (mostly not a power of two), some empty, each a run, a
    /// split child of a run (its visibility bits) or a memory
    /// component; keys of one shape per seed — 8-byte integers, 16-byte
    /// pairs under few leading columns (prefix ties) or the keys of every
    /// shape, short and heap keys sharing prefixes; a quarter tombstones;
    /// one key in every source; random bounds; both tombstone modes.
    #[test]
    fn prop_the_loser_tree_matches_the_oracle() {
        use crate::rng::SplitMix64;

        let mut every_shape = crate::entry::keys_of_every_shape();
        every_shape.sort();
        every_shape.dedup();
        for seed in 0..240u64 {
            let mut rng = SplitMix64::seed_from_u64(0x105e_7000 + seed);
            let universe: Vec<Key> = match seed % 3 {
                0 => (0..rng.gen_range(1..300)).map(Key::from_u64).collect(),
                1 => (0..rng.gen_range(1..300))
                    .map(|k| Key::from_pair(k / 40, k % 40))
                    .collect(),
                _ => every_shape.clone(),
            };
            let everywhere = rng.gen_index(universe.len());
            let sources = match seed {
                0 => 0,
                1 => 1,
                _ => rng.gen_range(1..71) as usize,
            };
            let density = rng.gen_range(1..8) as u32;
            let mut oracle_sources = Vec::new();
            let (mut runs, mut memtables) = (Vec::new(), Vec::new());
            for s in 0..sources {
                let entries: Vec<Entry> = if rng.gen_ratio(1, 8) {
                    Vec::new()
                } else {
                    let held = universe.iter().enumerate().filter(|(at, _)| {
                        *at == everywhere || rng.gen_ratio(1, density + s as u32 % 5)
                    });
                    let held: Vec<&Key> = held.map(|(_, key)| key).collect();
                    held.into_iter()
                        .map(|key| {
                            if rng.gen_ratio(1, 4) {
                                Entry::delete(key.clone())
                            } else {
                                Entry::put(key.clone(), Bytes::from(format!("{s}").into_bytes()))
                            }
                        })
                        .collect()
                };
                match rng.gen_range(0..3) {
                    0 => {
                        let mut m = MemTable::new();
                        entries.iter().for_each(|e| m.apply(e.clone()));
                        memtables.push((s, m));
                        oracle_sources.push(entries);
                    }
                    1 => {
                        let (lo, hi) = BucketId::root().split();
                        let c = Component::from_sorted(entries.clone(), ComponentSource::Flush);
                        let (lo_child, hi_child) = c.split(lo, hi);
                        let (bucket, child) = match rng.gen_ratio(1, 2) {
                            true => (lo, lo_child),
                            false => (hi, hi_child),
                        };
                        runs.push((s, child));
                        let shown = entries.into_iter().filter(|e| bucket.contains_key(&e.key));
                        oracle_sources.push(shown.collect());
                    }
                    _ => {
                        let c = Component::from_sorted(entries.clone(), ComponentSource::Merge);
                        runs.push((s, c));
                        oracle_sources.push(entries);
                    }
                }
            }
            let bound = |rng: &mut SplitMix64| {
                rng.gen_ratio(1, 2)
                    .then(|| universe[rng.gen_index(universe.len())].clone())
            };
            let (lo, hi) = (bound(&mut rng), bound(&mut rng));
            let in_range = |key: &Key| {
                lo.as_ref().is_none_or(|lo| key >= lo) && hi.as_ref().is_none_or(|hi| key < hi)
            };
            let bounded: Vec<Vec<Entry>> = oracle_sources
                .iter()
                .map(|s| s.iter().filter(|e| in_range(&e.key)).cloned().collect())
                .collect();
            for include_tombstones in [false, true] {
                let mut cursors: Vec<(usize, Cursor<'_>)> = Vec::new();
                for (s, m) in &memtables {
                    let entries = m.range(lo.as_ref(), hi.as_ref());
                    cursors.push((
                        *s,
                        Cursor::Buffered {
                            entries,
                            dead: None,
                        },
                    ));
                }
                for (s, c) in &runs {
                    cursors.push((*s, Cursor::Run(c.cursor(lo.as_ref(), hi.as_ref()))));
                }
                cursors.sort_by_key(|(s, _)| *s);
                let merge = MergeIter::new(
                    cursors.into_iter().map(|(_, c)| c).collect(),
                    include_tombstones,
                );
                let got: Vec<Entry> = merge.collect();
                let expected: Vec<Entry> =
                    MergingIter::new(bounded.clone(), include_tombstones).collect();
                let ctx = format!("seed {seed}, {sources} sources, tombstones {include_tombstones}, {lo:?}..{hi:?}");
                assert_eq!(got, expected, "{ctx}");
            }
        }
    }

    #[test]
    fn kmerge_disjoint_single_and_empty_runs() {
        // Single run passes through verbatim (tombstones included — inputs
        // are already reconciled).
        let only = vec![put(1, "a"), del(2), put(3, "c")];
        let merged = kmerge_disjoint(vec![only.clone().into_iter()]);
        assert_eq!(values(&merged), values(&only));
        // Empty runs interleaved with live ones contribute nothing.
        let a = vec![put(4, "a")];
        let merged = kmerge_disjoint(vec![
            Vec::new().into_iter(),
            a.into_iter(),
            Vec::new().into_iter(),
        ]);
        assert_eq!(values(&merged), vec![(4, "a".into())]);
        // All-empty input produces an empty output.
        let empty: Vec<std::vec::IntoIter<Entry>> = vec![Vec::new().into_iter(); 3];
        assert!(kmerge_disjoint(empty).is_empty());
    }

    /// All-tombstone disjoint runs: kmerge is reconciliation-free, so the
    /// tombstones must come through sorted and complete (a merge of fully
    /// deleted buckets still has to ship its tombstones).
    #[test]
    fn kmerge_disjoint_all_tombstone_runs() {
        let a = vec![del(1), del(4)];
        let b = vec![del(2)];
        let merged = kmerge_disjoint(vec![a.into_iter(), b.into_iter()]);
        assert_eq!(
            values(&merged),
            vec![
                (1, "<del>".into()),
                (2, "<del>".into()),
                (4, "<del>".into())
            ]
        );
    }

    #[test]
    fn reconcile_point_takes_first_hit() {
        let newer = Op::Delete;
        let older = Op::Put(Bytes::from("x"));
        let got = reconcile_point([None, Some(&newer), Some(&older)].into_iter());
        assert!(matches!(got, Some(Op::Delete)));
        assert!(reconcile_point([None, None].into_iter()).is_none());
    }
}
