//! The in-memory (write) component of an LSM-tree.
//!
//! AsterixDB buffers all writes in a memory component and flushes it to an
//! immutable disk component when it fills up (a *no-steal* policy: a memory
//! component is only flushed once all active writers have finished). The
//! simulation keeps the same structure: the latest operation applied to
//! each key since the last flush.
//!
//! **A write is a push.** The entries sit in a vector in arrival order, one
//! per distinct key, and an open-addressing table beside it (linear
//! probing, at most half full) finds a key by its `hash_key`: each slot
//! holds an entry's position and the top half of its key's hash. A write
//! probes once and pushes the entry — or replaces the op in place when the
//! key is buffered already; a point read is the same probe. The writer hands
//! in the hash it routed the key with, a probe reads an entry only where the
//! stored half matches, and growth re-indexes from the stored halves
//! without reading a key. The home slot is cut from the hash's **high**
//! bits: every key of a bucket's tree shares the bucket's low bits, and a
//! table indexed by them would send a whole bucket down one probe chain
//! (the Bloom filter remixes the hash for the same reason).
//!
//! **Key order is paid for where it is read.** The first ordered read —
//! `range` or `iter`, behind scans, index scans and the merge's memory
//! cursor — sorts the positions by key once and keeps them (an overwrite
//! moves no key, so the order stays valid). After a write adds keys, the
//! next ordered read sorts only the added positions and gallops each into
//! the kept order: a scan that follows a put costs a search for the put's
//! key and a copy of the order, not a sort of the table. A flush takes the
//! kept order, when a read left one; a table no read has ordered since its
//! last added key (or its last purge) sorts `(prefix, position)` integer
//! pairs instead (`entry::key_order`, the sort every run built from
//! unordered entries goes through). Either way the entries then move into
//! that order in place along the permutation's cycles, and
//! the vector, trimmed to its length, becomes the new run. A reader that
//! needs no order (the count of a tree's dead entries) walks the arrival
//! order.

use std::sync::OnceLock;

use crate::bucket::hash_key;
use crate::entry::{key_order, permute, Entry, Key, Op, Value, NO_POSITION};

/// A slot of the position table that holds no entry (no position is
/// `NO_POSITION`, so no occupied slot reads as this).
const EMPTY: u64 = u64::MAX;

/// The slot of the entry at `at` whose key hashes to `hash`: the hash's top
/// half over the position.
fn slot_of(hash: u64, at: usize) -> u64 {
    hash & !u64::from(u32::MAX) | at as u64
}

/// The size of the position table a first write allocates.
const MIN_SLOTS: usize = 16;

/// The slot of a table of `slots` (a power of two, at most `2^32`) where a
/// key whose hash is `hash` — or a slot holding its top half — starts
/// probing: the hash's top bits.
fn home(hash: u64, slots: usize) -> usize {
    (hash >> (64 - slots.trailing_zeros())) as usize
}

/// An in-memory write buffer: entries in arrival order, found by hash.
#[derive(Debug, Default)]
pub struct MemTable {
    /// One entry per distinct key, in the order the keys first arrived.
    entries: Vec<Entry>,
    /// Positions in `entries`, each beside the top half of its key's hash
    /// ([`slot_of`]) and placed by [`home`] with linear probing; a power of
    /// two long and at most half full (empty until the first write).
    slots: Vec<u64>,
    size_bytes: usize,
    /// The positions in key order, built by the first ordered read since
    /// the last write that added a key.
    sorted: OnceLock<Box<[u32]>>,
    /// The key order of the positions below `stale.len()`: what `sorted`
    /// held when a write added a key, for the next build to merge the new
    /// positions into.
    stale: Box<[u32]>,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Applies an upsert.
    pub fn put(&mut self, key: Key, value: Value) {
        self.apply(Entry {
            key,
            op: Op::Put(value),
        });
    }

    /// Applies a delete (tombstone).
    pub fn delete(&mut self, key: Key) {
        self.apply(Entry {
            key,
            op: Op::Delete,
        });
    }

    /// Applies an arbitrary entry, replacing any previous operation on the key.
    pub fn apply(&mut self, entry: Entry) {
        let hash = hash_key(&entry.key);
        self.apply_hashed(entry, hash);
    }

    /// [`MemTable::apply`] by a writer that has hashed the key already (to
    /// route it): `hash` must be `hash_key(&entry.key)`. The table keeps its
    /// top half beside the entry's position.
    pub fn apply_hashed(&mut self, entry: Entry, hash: u64) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.reindex((self.slots.len() * 2).max(MIN_SLOTS), Some);
        }
        match self.find(&entry.key, hash) {
            Ok(at) => {
                let old = &mut self.entries[at];
                self.size_bytes =
                    self.size_bytes - Entry::size_of_parts(&old.key, &old.op) + entry.size_bytes();
                old.op = entry.op;
            }
            Err(slot) => {
                self.slots[slot] = slot_of(hash, self.entries.len());
                self.size_bytes += entry.size_bytes();
                self.entries.push(entry);
                if let Some(order) = self.sorted.take() {
                    self.stale = order;
                }
            }
        }
    }

    /// The position of `key` in `entries`, or the empty slot where it would
    /// go. `hash` must be `hash_key(key)`; the table must not be empty. An
    /// entry is read only where the slot's half of the hash matches.
    fn find(&self, key: &Key, hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = home(hash, self.slots.len());
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                held if (held ^ hash) >> 32 == 0
                    && self.entries[held as u32 as usize].key == *key =>
                {
                    return Ok(held as u32 as usize)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the position table at `slots` slots (a power of two, more
    /// than twice the entries) from the one it replaces: each occupied slot
    /// moves by the half of the hash it holds, its position mapped through
    /// `moved` (`None` drops it). No key is read or hashed.
    fn reindex(&mut self, slots: usize, moved: impl Fn(u32) -> Option<u32>) {
        // Fewer entries than half the slots: every position stays below
        // `NO_POSITION`, and the top half of a hash picks the home slot.
        assert!(
            slots / 2 <= NO_POSITION as usize,
            "{slots} slots outgrow u32"
        );
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for held in old.into_iter().filter(|&held| held != EMPTY) {
            let Some(at) = moved(held as u32) else {
                continue;
            };
            let mut slot = home(held, slots);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = slot_of(held, at as usize);
        }
    }

    /// Looks up the latest operation for `key`, if any, by a reader that has
    /// hashed it already: `hash` must be `hash_key(key)`.
    pub fn get_hashed(&self, key: &Key, hash: u64) -> Option<&Op> {
        if self.slots.is_empty() {
            return None;
        }
        let at = self.find(key, hash).ok()?;
        Some(&self.entries[at].op)
    }

    /// Number of distinct keys buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Iterates over all buffered entries in key order.
    pub fn iter(&self) -> Range<'_> {
        self.range(None, None)
    }

    /// Iterates over buffered entries within `[lo, hi)` in key order.
    /// `None` bounds are unbounded; crossed bounds hold nothing.
    pub fn range(&self, lo: Option<&Key>, hi: Option<&Key>) -> Range<'_> {
        let order = self.sorted.get_or_init(|| self.key_order());
        let first_at_or_after =
            |bound: &Key| order.partition_point(|&at| self.entries[at as usize].key < *bound);
        let start = lo.map_or(0, first_at_or_after);
        let end = hi.map_or(order.len(), first_at_or_after).max(start);
        Range {
            entries: &self.entries,
            order: order[start..end].iter(),
        }
    }

    /// The positions in key order. Only the positions added since `stale`
    /// was sorted are sorted; each is then placed into what is left of
    /// `stale` by a galloping search (doubling steps, then a binary search
    /// of the last step), so an ordered read after a few new keys costs their
    /// searches and one copy of the order, not a sort of every position, and
    /// many new keys cost no more than a merge.
    fn key_order(&self) -> Box<[u32]> {
        let key = |at: &u32| &self.entries[*at as usize].key;
        let added = key_order(&self.entries, self.stale.len());
        let mut order = Vec::with_capacity(self.entries.len());
        let mut rest = &self.stale[..];
        for at in added {
            let below = |old: &u32| key(old) < key(&at);
            let mut step = 1;
            while step < rest.len() && below(&rest[step]) {
                step *= 2;
            }
            let (lo, hi) = (step / 2, step.min(rest.len()));
            let (before, after) = rest.split_at(lo + rest[lo..hi].partition_point(below));
            order.extend_from_slice(before);
            order.push(at);
            rest = after;
        }
        order.extend_from_slice(rest);
        order.into()
    }

    /// Drops every buffered entry whose key `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(&Key) -> bool) {
        // Where each kept entry moves to; `NO_POSITION` for a dropped one.
        let mut moved = vec![NO_POSITION; self.entries.len()];
        let mut kept = 0;
        for (at, to) in moved.iter_mut().enumerate() {
            if keep(&self.entries[at].key) {
                self.entries.swap(kept, at);
                *to = kept as u32;
                kept += 1;
            } else {
                self.size_bytes -= self.entries[at].size_bytes();
            }
        }
        self.entries.truncate(kept);
        self.sorted.take();
        self.stale = Box::default();
        let to = |at: u32| Some(moved[at as usize]).filter(|&to| to != NO_POSITION);
        self.reindex(self.slots.len(), to);
    }

    /// Drains the memtable into a sorted entry vector (used by flushes),
    /// leaving it empty. The vector carries no spare capacity into the run.
    ///
    /// A key order kept by an ordered read is consumed; without one the
    /// positions are sorted (`entry::key_order`). Either way the entries
    /// follow the cycles of the order's permutation in place: each moves
    /// once, and nothing is compared or allocated on the way.
    pub fn drain_sorted(&mut self) -> Vec<Entry> {
        let MemTable {
            mut entries,
            sorted,
            ..
        } = std::mem::take(self);
        let mut order = sorted
            .into_inner()
            .unwrap_or_else(|| key_order(&entries, 0).into());
        permute(&mut order, |at, from| entries.swap(at, from));
        entries.shrink_to_fit();
        entries
    }
}

/// A key-ordered walk over a memory component's entries within a range.
#[derive(Debug)]
pub struct Range<'a> {
    entries: &'a [Entry],
    /// The positions left to visit, in key order.
    order: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a Key, &'a Op);

    #[inline]
    fn next(&mut self) -> Option<(&'a Key, &'a Op)> {
        let e = &self.entries[*self.order.next()? as usize];
        Some((&e.key, &e.op))
    }
}

/// The sorted-map memory component the table above replaced, kept as the
/// reference the tests compare it with (crossed bounds give an empty range).
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use crate::entry::{Entry, Key, Op};

    #[derive(Default)]
    pub struct MemTable {
        map: BTreeMap<Key, Op>,
        size_bytes: usize,
    }

    impl MemTable {
        pub fn apply(&mut self, entry: Entry) {
            let new_size = entry.size_bytes();
            if let Some(old) = self.map.insert(entry.key.clone(), entry.op) {
                self.size_bytes =
                    self.size_bytes - Entry::size_of_parts(&entry.key, &old) + new_size;
            } else {
                self.size_bytes += new_size;
            }
        }

        pub fn get(&self, key: &Key) -> Option<&Op> {
            self.map.get(key)
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        pub fn size_bytes(&self) -> usize {
            self.size_bytes
        }

        pub fn range(&self, lo: Option<&Key>, hi: Option<&Key>) -> Vec<(&Key, &Op)> {
            let in_range =
                |key: &Key| lo.is_none_or(|lo| key >= lo) && hi.is_none_or(|hi| key < hi);
            self.map.iter().filter(|(key, _)| in_range(key)).collect()
        }

        pub fn retain(&mut self, mut keep: impl FnMut(&Key) -> bool) {
            let size = &mut self.size_bytes;
            self.map.retain(|key, op| {
                let kept = keep(key);
                if !kept {
                    *size -= Entry::size_of_parts(key, op);
                }
                kept
            });
        }

        pub fn drain_sorted(&mut self) -> Vec<Entry> {
            self.size_bytes = 0;
            let map = std::mem::take(&mut self.map);
            map.into_iter().map(|(key, op)| Entry { key, op }).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketId;
    use crate::bytes::Bytes;
    use crate::rng::SplitMix64;
    use crate::secondary::SecondaryEntry;

    impl MemTable {
        /// Point lookup by key alone.
        fn get(&self, key: &Key) -> Option<&Op> {
            self.get_hashed(key, hash_key(key))
        }

        /// Drains the table, first checking that every slot holds the top
        /// half of its entry's hash.
        fn drain_checked(&mut self) -> Vec<Entry> {
            for &held in self.slots.iter().filter(|&&held| held != EMPTY) {
                let entry = &self.entries[held as u32 as usize];
                assert_eq!(held >> 32, hash_key(&entry.key) >> 32, "{entry:?}");
            }
            self.drain_sorted()
        }

        /// How many slots past its home slot the table keeps `key`.
        fn probe_distance(&self, key: &Key) -> usize {
            let slot = (0..self.slots.len())
                .find(|&s| {
                    self.slots[s] != EMPTY
                        && self.entries[self.slots[s] as u32 as usize].key == *key
                })
                .expect("buffered");
            (slot + self.slots.len() - home(hash_key(key), self.slots.len()))
                & (self.slots.len() - 1)
        }
    }

    /// 48 keys whose hashes share their low 20 bits: all of them fall into
    /// the depth-20 bucket of key 0, as the keys of one bucket's tree do.
    const ONE_DEPTH_20_BUCKET: [u64; 48] = [
        0, 294774, 450176, 1048964, 1142742, 1755920, 2855140, 3122363, 4186621, 4422903, 5523602,
        5883637, 7824793, 10165690, 10348348, 12446830, 12479858, 15561336, 17123699, 17820068,
        18193873, 22574334, 27392086, 28836513, 30200522, 30325241, 31956822, 32017656, 32083391,
        32866566, 36393119, 36622191, 38076674, 38168017, 38463360, 40304210, 40483873, 44134457,
        44424257, 44899475, 45356172, 46285140, 46342301, 47024047, 47566017, 47955145, 48359713,
        48912401,
    ];

    fn one_bucket() -> Vec<Key> {
        let keys: Vec<Key> = ONE_DEPTH_20_BUCKET.map(Key::from_u64).to_vec();
        let bucket = BucketId::of_hash(hash_key(&keys[0]), 20);
        assert!(keys.iter().all(|k| bucket.contains_key(k)));
        keys
    }

    fn val(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut m = MemTable::new();
        assert!(m.get(&Key::from_u64(1)).is_none());
        m.put(Key::from_u64(1), val(4));
        assert!(matches!(m.get(&Key::from_u64(1)), Some(Op::Put(_))));
        m.delete(Key::from_u64(1));
        assert!(matches!(m.get(&Key::from_u64(1)), Some(Op::Delete)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn size_tracks_overwrites() {
        let mut m = MemTable::new();
        m.put(Key::from_u64(1), val(100));
        let s1 = m.size_bytes();
        m.put(Key::from_u64(1), val(10));
        let s2 = m.size_bytes();
        assert!(s2 < s1);
        m.put(Key::from_u64(2), val(10));
        assert!(m.size_bytes() > s2);
    }

    #[test]
    fn drain_returns_sorted_entries_and_clears() {
        let mut m = MemTable::new();
        for k in [5u64, 1, 3, 2, 4] {
            m.put(Key::from_u64(k), val(1));
        }
        let drained = m.drain_checked();
        let keys: Vec<u64> = drained.iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        assert_eq!(drained.capacity(), drained.len());
        assert!(m.is_empty());
        assert_eq!(m.size_bytes(), 0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut m = MemTable::new();
        for k in (0..10u64).rev() {
            m.put(Key::from_u64(k), val(1));
        }
        let lo = Key::from_u64(3);
        let hi = Key::from_u64(7);
        let got: Vec<u64> = m
            .range(Some(&lo), Some(&hi))
            .map(|(k, _)| k.as_u64())
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
        assert_eq!(m.range(Some(&hi), Some(&lo)).count(), 0, "crossed bounds");
        let all: Vec<u64> = m.range(None, None).map(|(k, _)| k.as_u64()).collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    /// The keys of one bucket share the hash's low bits; the table places
    /// them by the high bits, so they do not queue behind one another.
    #[test]
    fn keys_of_one_bucket_do_not_share_a_probe_chain() {
        let keys = one_bucket();
        let mut m = MemTable::new();
        for k in &keys {
            m.put(k.clone(), val(1));
        }
        let distances: Vec<usize> = keys.iter().map(|k| m.probe_distance(k)).collect();
        let longest = *distances.iter().max().unwrap();
        assert!(longest < 8, "probe distances {distances:?}");
    }

    /// The table against the sorted map it replaced, over random sequences
    /// of puts, deletes, overwrites, purges and flushes; keys of one shape
    /// per seed — keys of one depth-20 bucket, composite secondary-index
    /// keys under few secondary values, `(orderkey, linenumber)` pairs under
    /// few orders, heap keys longer than 22 bytes behind one shared head: all
    /// but the first tie on their prefixes, which the integer-pair sort has
    /// to break by the whole keys. A step is one operation or a burst of
    /// them. After every step `get` (held and absent keys, found through a
    /// table that growth and purges re-indexed from its stored hash halves),
    /// `len`, `size_bytes`, `iter` and `range` (held, absent and crossed
    /// bounds) agree with the oracle, and a drain — after a check that every
    /// slot holds its entry's hash half — returns exactly its sorted entries.
    /// A drain that follows the step's ordered reads, or
    /// only overwrites and deletes of held keys after them, finds the kept
    /// order; one after a key-adding write or a purge sorts. Each path runs
    /// at least 50 times.
    #[test]
    fn prop_the_table_matches_the_sorted_map() {
        // drains that sorted, and drains that found a kept order
        let mut drains = [0usize; 2];
        for seed in 0..80u64 {
            let mut rng = SplitMix64::seed_from_u64(0x3e37_ab00 + seed);
            let universe: Vec<Key> = match seed % 4 {
                0 => one_bucket(),
                1 => (0..rng.gen_range(1..200))
                    .map(|k| {
                        SecondaryEntry {
                            secondary: Key::from_u64(k % 7),
                            primary: Key::from_pair(k, k % 3),
                        }
                        .encode()
                    })
                    .collect(),
                2 => (0..rng.gen_range(1..200u64))
                    .map(|k| Key::from_pair(k / 7, k % 7 * 3))
                    .collect(),
                _ => (0..rng.gen_range(1..200u64))
                    .map(|k| {
                        let tail = rng.gen_range(0..12) as usize;
                        Key::from_slice(
                            &[
                                &b"shared-head-of-a-long-key"[..],
                                &k.to_be_bytes(),
                                &vec![7; tail],
                            ]
                            .concat(),
                        )
                    })
                    .collect(),
            };
            // keys the table never holds: between, below and above the universe
            let absent = |rng: &mut SplitMix64| {
                let held = universe[rng.gen_index(universe.len())].as_slice();
                match rng.gen_range(0..3) {
                    0 => Key::from_slice(&[held, &[0]].concat()),
                    1 => Key::from_slice(&held[..held.len() - 1]),
                    _ => Key::from_u64(rng.next_u64()),
                }
            };
            let (mut m, mut o) = (MemTable::new(), oracle::MemTable::default());
            for step in 0..rng.gen_range(1..300) {
                // a burst of writes between two ordered reads makes the next
                // read merge several new keys into the kept order
                let burst = match rng.gen_range(0..4) {
                    0 => rng.gen_range(2..40),
                    _ => 1,
                };
                for _ in 0..burst {
                    let key = universe[rng.gen_index(universe.len())].clone();
                    match rng.gen_range(0..100) {
                        0..=54 => {
                            let e = Entry::put(key, val(rng.gen_index(40)));
                            m.apply(e.clone());
                            o.apply(e);
                        }
                        55..=74 => {
                            m.delete(key.clone());
                            o.apply(Entry::delete(key));
                        }
                        75..=92 if o.len() > 0 => {
                            // overwrite a held key, with a payload of a new
                            // length or a tombstone: the kept order stays
                            let (held, _) = o.range(None, None)[rng.gen_index(o.len())];
                            let e = match rng.gen_range(0..4) {
                                0 => Entry::delete(held.clone()),
                                _ => Entry::put(held.clone(), val(40 + rng.gen_index(40))),
                            };
                            m.apply(e.clone());
                            o.apply(e);
                        }
                        93..=97 => {
                            let (salt, keep_one_in) = (rng.next_u64(), rng.gen_range(1..4));
                            let keep = |k: &Key| (hash_key(k) ^ salt).is_multiple_of(keep_one_in);
                            m.retain(keep);
                            o.retain(keep);
                        }
                        _ => {
                            drains[usize::from(m.sorted.get().is_some())] += 1;
                            assert_eq!(
                                m.drain_checked(),
                                o.drain_sorted(),
                                "seed {seed}, step {step}"
                            );
                        }
                    }
                }
                let ctx = format!("seed {seed}, step {step}, burst {burst}");
                assert_eq!(
                    (m.len(), m.size_bytes()),
                    (o.len(), o.size_bytes()),
                    "{ctx}"
                );
                assert_eq!(m.is_empty(), o.len() == 0, "{ctx}");
                for _ in 0..4 {
                    let held = universe[rng.gen_index(universe.len())].clone();
                    let missing = absent(&mut rng);
                    assert_eq!(m.get(&held), o.get(&held), "{ctx}, {held:?}");
                    assert_eq!(m.get(&missing), o.get(&missing), "{ctx}, {missing:?}");
                }
                assert_eq!(m.iter().collect::<Vec<_>>(), o.range(None, None), "{ctx}");
                for _ in 0..3 {
                    let bound = |rng: &mut SplitMix64| match rng.gen_range(0..4) {
                        0 => None,
                        1 => Some(absent(rng)),
                        _ => Some(universe[rng.gen_index(universe.len())].clone()),
                    };
                    let (lo, hi) = (bound(&mut rng), bound(&mut rng));
                    let got: Vec<_> = m.range(lo.as_ref(), hi.as_ref()).collect();
                    assert_eq!(
                        got,
                        o.range(lo.as_ref(), hi.as_ref()),
                        "{ctx}, {lo:?}..{hi:?}"
                    );
                }
            }
            drains[usize::from(m.sorted.get().is_some())] += 1;
            assert_eq!(
                m.drain_checked(),
                o.drain_sorted(),
                "seed {seed}, final drain"
            );
            assert!(m.is_empty() && m.size_bytes() == 0, "seed {seed}");
        }
        let [sorting, ordered] = drains;
        assert!(
            sorting >= 50 && ordered >= 50,
            "{sorting} drains sorted, {ordered} found a kept order"
        );
    }
}
