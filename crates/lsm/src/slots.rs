//! The extendible-hashing slot array shared by every directory.
//!
//! Both a partition's bucket map ([`crate::bucketed::BucketedLsmTree`]) and
//! the Cluster Controller's `GlobalDirectory` (in `dynahash-core`) route through
//! the same structure: a `2^D`-entry table indexed by the `D` low-order bits
//! of a key's hash, where a bucket of depth `d` owns the `2^(D-d)` slots of
//! its lattice (`bits + k·2^d`). This module implements that table once,
//! generic over the slot payload — a bare [`BucketId`] locally, a
//! `(BucketId, PartitionId)` pair at the CC — so the subtle
//! doubling/halving/lattice-rewrite logic cannot diverge between the two.

use crate::bucket::{BucketId, MAX_DEPTH};

/// A `2^depth`-entry extendible-hashing slot table, maintained incrementally:
/// it doubles when an insert raises the depth, halves when the last
/// deepest bucket disappears, and inserts/removes rewrite only the affected
/// bucket's slot lattice. `None` marks hash ranges no bucket covers (a
/// partition that owns part of the hash space, or a transient mid-delta
/// state at the CC).
///
/// Correctness relies on the caller keeping its bucket set disjoint (no
/// bucket covers another) — the invariant both directories already enforce.
#[derive(Clone, Debug)]
pub struct SlotArray<T> {
    slots: Vec<Option<T>>,
    depth: u8,
    /// Number of buckets at each depth, driving doubling and shrinking
    /// without rescanning the bucket set.
    depth_counts: [u32; MAX_DEPTH as usize + 1],
}

impl<T: Copy + PartialEq + std::fmt::Debug> Default for SlotArray<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + PartialEq + std::fmt::Debug> SlotArray<T> {
    /// Creates an empty table: depth 0, one uncovered slot.
    pub fn new() -> Self {
        SlotArray {
            slots: vec![None],
            depth: 0,
            depth_counts: [0; MAX_DEPTH as usize + 1],
        }
    }

    /// The table's depth `D` (the maximum bucket depth seen).
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of slots, `2^D`.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// O(1) lookup: the slot for the hash's low-order `D` bits.
    pub fn lookup(&self, hash: u64) -> Option<T> {
        self.slots[(hash as usize) & (self.slots.len() - 1)]
    }

    /// O(1) probe by bucket bits (masked to the table depth) — resolves a
    /// bucket's covering ancestor without scanning.
    pub fn probe_bits(&self, bits: u32) -> Option<T> {
        self.slots[(bits as usize) & (self.slots.len() - 1)]
    }

    /// Read access to the raw slots (consistency checks in tests).
    pub fn slots(&self) -> &[Option<T>] {
        &self.slots
    }

    /// True if any slot a bucket would occupy is already taken. Because
    /// disjoint buckets' hash sets intersect exactly when one covers the
    /// other, this is a complete O(lattice) overlap test: a deeper (or
    /// equally deep) probe finds a covering ancestor in one slot, a
    /// shallower one finds any covered bucket in its lattice.
    pub fn lattice_occupied(&self, bucket: &BucketId) -> bool {
        if bucket.depth >= self.depth {
            return self.probe_bits(bucket.bits).is_some();
        }
        self.lattice(bucket).any(Option::is_some)
    }

    /// The slots of a bucket's lattice, `bits + k·2^d`: `2^(D-d)` of them.
    /// The bucket must be no deeper than the table.
    pub fn lattice(&self, bucket: &BucketId) -> impl Iterator<Item = &Option<T>> {
        self.slots
            .iter()
            .skip(bucket.bits as usize)
            .step_by(1usize << bucket.depth)
    }

    /// Registers a **new** bucket: bumps its depth count, doubles the table
    /// if the bucket is deeper than the current depth, and writes its slot
    /// lattice. For a bucket already registered use
    /// [`SlotArray::update`] instead.
    pub fn insert(&mut self, bucket: BucketId, value: T) {
        self.depth_counts[bucket.depth as usize] += 1;
        self.grow_to(bucket.depth);
        self.write_lattice(bucket, value);
    }

    /// Rewrites the lattice of an already-registered bucket (its payload
    /// changed — e.g. a reassignment to another partition). Depth counts are
    /// untouched.
    pub fn update(&mut self, bucket: BucketId, value: T) {
        self.write_lattice(bucket, value);
    }

    /// Unregisters a bucket: clears the slots of its lattice that still
    /// satisfy `owned_by` (a slot already overwritten by a newer covering
    /// bucket is left alone), then halves the table while no bucket of the
    /// current depth remains.
    pub fn remove(&mut self, bucket: BucketId, owned_by: impl Fn(&T) -> bool) {
        self.depth_counts[bucket.depth as usize] -= 1;
        let stride = 1usize << bucket.depth.min(self.depth);
        let mut idx = (bucket.bits as usize) & (self.slots.len() - 1);
        while idx < self.slots.len() {
            if matches!(&self.slots[idx], Some(v) if owned_by(v)) {
                self.slots[idx] = None;
            }
            idx += stride;
        }
        self.maybe_shrink();
    }

    /// Rebuilds the table from scratch (construction paths only; mutations
    /// stay incremental).
    pub fn rebuild(&mut self, entries: &[(BucketId, T)]) {
        self.depth_counts = [0; MAX_DEPTH as usize + 1];
        for (b, _) in entries {
            self.depth_counts[b.depth as usize] += 1;
        }
        self.depth = self.depth_counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u8;
        self.slots = vec![None; 1usize << self.depth];
        for (b, v) in entries {
            self.write_lattice(*b, *v);
        }
    }

    /// Debug-build check that the table agrees with the caller's cached
    /// depth (which the caller recomputes from its bucket set).
    #[inline]
    pub fn debug_validate(&self, expected_depth: u8) {
        debug_assert_eq!(
            self.depth, expected_depth,
            "slot-array depth diverged from the bucket set"
        );
        debug_assert_eq!(
            self.slots.len(),
            1usize << self.depth,
            "slot-array size diverged from its depth"
        );
    }

    /// Writes a bucket's slot lattice: the `2^(D-d)` entries at
    /// `bits + k·2^d`. The bucket's depth must not exceed the table depth.
    fn write_lattice(&mut self, bucket: BucketId, value: T) {
        let stride = 1usize << bucket.depth;
        let mut idx = bucket.bits as usize;
        while idx < self.slots.len() {
            self.slots[idx] = Some(value);
            idx += stride;
        }
    }

    /// Doubles until the table depth reaches `depth`. With low-bit indexing
    /// a doubling is a verbatim copy: slot `i` and slot `i + 2^D` cover the
    /// same hashes until a deeper bucket distinguishes them.
    fn grow_to(&mut self, depth: u8) {
        while self.depth < depth {
            let len = self.slots.len();
            self.slots.extend_from_within(0..len);
            self.depth += 1;
        }
    }

    /// Halves while no bucket of the current depth remains (the inverse of
    /// [`SlotArray::grow_to`], triggered by removals and merges).
    fn maybe_shrink(&mut self) {
        let target = self.depth_counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u8;
        while self.depth > target {
            let half = self.slots.len() / 2;
            for i in 0..half {
                let lo = self.slots[i];
                let hi = self.slots[i + half];
                debug_assert!(
                    lo.is_none() || hi.is_none() || lo == hi,
                    "slot halves diverged at depth {}: {lo:?} vs {hi:?}",
                    self.depth
                );
                self.slots[i] = lo.or(hi);
            }
            self.slots.truncate(half);
            self.depth -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip_grows_and_shrinks() {
        let mut t: SlotArray<u32> = SlotArray::new();
        assert_eq!(t.depth(), 0);
        assert_eq!(t.num_slots(), 1);
        assert_eq!(t.lookup(42), None);
        t.insert(BucketId::new(0, 1), 10);
        t.insert(BucketId::new(1, 2), 11);
        t.insert(BucketId::new(3, 2), 12);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.num_slots(), 4);
        assert_eq!(t.lookup(0b100), Some(10));
        assert_eq!(t.lookup(0b101), Some(11));
        assert_eq!(t.lookup(0b111), Some(12));
        t.update(BucketId::new(0, 1), 20);
        assert_eq!(t.lookup(0b10), Some(20));
        t.remove(BucketId::new(1, 2), |v| *v == 11);
        assert_eq!(t.depth(), 2, "a depth-2 bucket remains");
        assert_eq!(t.lookup(0b01), None);
        t.remove(BucketId::new(3, 2), |v| *v == 12);
        assert_eq!(t.depth(), 1, "table must halve");
        assert_eq!(t.num_slots(), 2);
        assert_eq!(t.lookup(0b10), Some(20));
        t.debug_validate(1);
    }

    #[test]
    fn lattice_occupied_detects_overlap_in_both_directions() {
        let mut t: SlotArray<u32> = SlotArray::new();
        t.insert(BucketId::new(0b01, 2), 1);
        // deeper than an existing bucket: covered by it
        assert!(t.lattice_occupied(&BucketId::new(0b101, 3)));
        // shallower: covers it
        assert!(t.lattice_occupied(&BucketId::new(0b1, 1)));
        assert!(t.lattice_occupied(&BucketId::new(0, 0)));
        // disjoint hash ranges are free
        assert!(!t.lattice_occupied(&BucketId::new(0b00, 2)));
        assert!(!t.lattice_occupied(&BucketId::new(0b10, 2)));
        assert!(!t.lattice_occupied(&BucketId::new(0b110, 3)));
    }

    /// Halving cascades: removing the last deepest bucket must shrink the
    /// table through *multiple* depths in one step when the remaining
    /// buckets are much shallower.
    #[test]
    fn removal_cascades_halving_to_the_shallowest_survivor() {
        let mut t: SlotArray<u32> = SlotArray::new();
        t.insert(BucketId::new(0, 1), 1); // depth 1
        t.insert(BucketId::new(0b01, 2), 2); // depth 2
        t.insert(BucketId::new(0b011, 3), 3); // depth 3
        t.insert(BucketId::new(0b111, 3), 4); // depth 3
        assert_eq!(t.num_slots(), 8);
        // Dropping one depth-3 bucket keeps the table at depth 3.
        t.remove(BucketId::new(0b111, 3), |v| *v == 4);
        assert_eq!(t.depth(), 3);
        // Dropping the other cascades 8 -> 4 slots...
        t.remove(BucketId::new(0b011, 3), |v| *v == 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.lookup(0b00), Some(1));
        assert_eq!(t.lookup(0b01), Some(2));
        // ...and dropping the depth-2 bucket cascades straight to depth 1.
        t.remove(BucketId::new(0b01, 2), |v| *v == 2);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.num_slots(), 2);
        assert_eq!(t.lookup(0), Some(1));
        t.debug_validate(1);
    }

    /// Shrinking all the way back to the empty table: depth 0, one
    /// uncovered slot — the state a directory passes through mid-delta.
    #[test]
    fn removing_every_bucket_returns_to_the_empty_table() {
        let mut t: SlotArray<u32> = SlotArray::new();
        t.insert(BucketId::new(0, 2), 1);
        t.insert(BucketId::new(1, 2), 2);
        t.insert(BucketId::new(2, 2), 3);
        t.insert(BucketId::new(3, 2), 4);
        for (bits, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 4)] {
            t.remove(BucketId::new(bits, 2), |x| *x == v);
        }
        assert_eq!(t.depth(), 0);
        assert_eq!(t.num_slots(), 1);
        assert_eq!(t.lookup(0), None);
        t.debug_validate(0);
        // The empty table accepts fresh inserts (re-grows cleanly).
        t.insert(BucketId::new(0, 1), 9);
        t.insert(BucketId::new(1, 1), 10);
        assert_eq!(t.lookup(2), Some(9));
        assert_eq!(t.lookup(3), Some(10));
    }

    /// `maybe_shrink` must NOT halve while a deepest bucket survives, even
    /// when a sibling removal leaves half the lattice empty — and repeated
    /// grow/shrink cycles must keep lookups exact.
    #[test]
    fn repeated_split_merge_cycles_keep_lookups_exact() {
        let mut t: SlotArray<u32> = SlotArray::new();
        t.insert(BucketId::new(0, 0), 100);
        for round in 0..4u32 {
            // "Split" the root: replace the depth-round bucket at bits 0 by
            // its two children, as a directory split would.
            let parent = BucketId::new(0, round as u8);
            t.remove(parent, |v| *v == 100 + round);
            let d = round as u8 + 1;
            t.insert(BucketId::new(0, d), 100 + round + 1);
            t.insert(BucketId::new(1 << round, d), 900 + round);
            assert_eq!(t.depth(), d);
            // Every hash routes somewhere after each reshape.
            for h in 0..t.num_slots() as u64 {
                assert!(t.lookup(h).is_some(), "hash {h} unrouted at depth {d}");
            }
        }
        // Merge everything back down, one level at a time.
        for round in (0..4u32).rev() {
            let d = round as u8 + 1;
            t.remove(BucketId::new(1 << round, d), |v| *v == 900 + round);
            t.remove(BucketId::new(0, d), |v| *v == 100 + round + 1);
            t.insert(BucketId::new(0, round as u8), 100 + round);
            assert_eq!(t.depth(), round as u8);
        }
        assert_eq!(t.num_slots(), 1);
        assert_eq!(t.lookup(7), Some(100));
    }

    #[test]
    fn rebuild_matches_incremental_construction() {
        let entries = [
            (BucketId::new(0, 1), 7u32),
            (BucketId::new(1, 2), 8),
            (BucketId::new(3, 2), 9),
        ];
        let mut rebuilt: SlotArray<u32> = SlotArray::new();
        rebuilt.rebuild(&entries);
        let mut incremental: SlotArray<u32> = SlotArray::new();
        for (b, v) in entries {
            incremental.insert(b, v);
        }
        assert_eq!(rebuilt.slots(), incremental.slots());
        assert_eq!(rebuilt.depth(), incremental.depth());
    }
}
