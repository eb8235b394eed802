//! The in-memory (write) component of an LSM-tree.
//!
//! AsterixDB buffers all writes in a memory component and flushes it to an
//! immutable disk component when it fills up (a *no-steal* policy: a memory
//! component is only flushed once all active writers have finished). The
//! simulation keeps the same structure: a sorted map from key to the latest
//! operation applied to it.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

use crate::entry::{Entry, Key, Op};

/// An in-memory sorted write buffer.
#[derive(Debug, Default, Clone)]
pub struct MemTable {
    map: BTreeMap<Key, Op>,
    size_bytes: usize,
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable {
            map: BTreeMap::new(),
            size_bytes: 0,
        }
    }

    /// Applies an upsert.
    pub fn put(&mut self, key: Key, value: crate::entry::Value) {
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
        let new_size = entry.size_bytes();
        if let Some(old) = self.map.insert(entry.key.clone(), entry.op) {
            let old_size = Entry::size_of_parts(&entry.key, &old);
            self.size_bytes = self.size_bytes - old_size + new_size;
        } else {
            self.size_bytes += new_size;
        }
    }

    /// Looks up the latest operation for `key`, if any.
    pub fn get(&self, key: &Key) -> Option<&Op> {
        self.map.get(key)
    }

    /// Number of distinct keys buffered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Full memory accounting over the buffered entries (records, logical
    /// bytes, inline/heap key split) for the `scale` experiments figure.
    pub fn footprint(&self) -> crate::entry::StorageFootprint {
        let mut fp = crate::entry::StorageFootprint::default();
        for (k, op) in &self.map {
            fp.add_key_op(k, op);
        }
        fp
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Iterates over all buffered entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Op)> {
        self.map.iter()
    }

    /// Iterates over buffered entries within `[lo, hi)` in key order.
    /// `None` bounds are unbounded.
    pub fn range<'a>(
        &'a self,
        lo: Option<&Key>,
        hi: Option<&Key>,
    ) -> btree_map::Range<'a, Key, Op> {
        self.map.range::<Key, _>((
            lo.map_or(Bound::Unbounded, Bound::Included),
            hi.map_or(Bound::Unbounded, Bound::Excluded),
        ))
    }

    /// Drops every buffered entry whose key `keep` rejects.
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

    /// Drains the memtable into a sorted entry vector (used by flushes),
    /// leaving it empty.
    pub fn drain_sorted(&mut self) -> Vec<Entry> {
        self.size_bytes = 0;
        std::mem::take(&mut self.map)
            .into_iter()
            .map(|(key, op)| Entry { key, op })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;

    fn val(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut m = MemTable::new();
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
        let drained = m.drain_sorted();
        let keys: Vec<u64> = drained.iter().map(|e| e.key.as_u64()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        assert!(m.is_empty());
        assert_eq!(m.size_bytes(), 0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut m = MemTable::new();
        for k in 0..10u64 {
            m.put(Key::from_u64(k), val(1));
        }
        let lo = Key::from_u64(3);
        let hi = Key::from_u64(7);
        let got: Vec<u64> = m
            .range(Some(&lo), Some(&hi))
            .map(|(k, _)| k.as_u64())
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
        let all: Vec<u64> = m.range(None, None).map(|(k, _)| k.as_u64()).collect();
        assert_eq!(all.len(), 10);
    }
}
