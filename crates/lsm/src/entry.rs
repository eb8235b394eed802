//! Keys, values and log-structured entries.
//!
//! Keys are order-preserving byte strings. Helpers are provided to encode
//! integer and composite keys in big-endian form so that the byte order
//! matches the natural key order, which the merge iterators rely on.

use crate::bytes::Bytes;
use std::fmt;

/// How many key bytes fit inline in a [`Key`] without a heap allocation.
///
/// 22 bytes keeps `size_of::<Key>()` at 24 — the same as the `Vec<u8>` it
/// replaced — while covering every key the system produces today (8-byte
/// `u64` keys, 16-byte composite keys, and the secondary-index keys derived
/// from them). Million-record soak runs allocate zero key heap.
pub const KEY_INLINE_CAP: usize = 22;

/// The two storage shapes of a [`Key`]: short keys live inline in the
/// 24-byte struct, longer keys spill to an exact-sized heap allocation
/// (`Box<[u8]>`, not `Vec`, so there is no spare capacity to account for).
#[derive(Clone)]
enum KeyRepr {
    /// Up to [`KEY_INLINE_CAP`] bytes stored inline; `len` is the used prefix.
    Inline { len: u8, buf: [u8; KEY_INLINE_CAP] },
    /// Keys longer than the inline cap, heap-allocated exactly.
    Heap(Box<[u8]>),
}

/// An order-preserving binary key.
///
/// Primary keys in the TPC-H workload are integers or pairs of integers; the
/// constructors [`Key::from_u64`] and [`Key::from_pair`] encode them
/// big-endian so that byte-wise ordering equals numeric ordering.
///
/// Keys of up to [`KEY_INLINE_CAP`] bytes are stored inline (no heap
/// allocation); equality and hashing go through [`Key::as_slice`] and
/// ordering through [`Key::prefix`] first, so the representation is
/// invisible to routing and the merge iterators.
#[derive(Clone)]
pub struct Key(KeyRepr);

impl Key {
    /// Builds a key from borrowed bytes: no allocation when they fit inline.
    pub fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= KEY_INLINE_CAP {
            let mut buf = [0u8; KEY_INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            Key(KeyRepr::Inline {
                len: bytes.len() as u8,
                buf,
            })
        } else {
            Key(KeyRepr::Heap(bytes.into()))
        }
    }

    /// Builds the key `parts[0] || parts[1] || …` in place: a composite that
    /// fits inline is assembled without touching the heap.
    pub fn from_parts(parts: &[&[u8]]) -> Self {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > KEY_INLINE_CAP {
            return Key(KeyRepr::Heap(parts.concat().into_boxed_slice()));
        }
        let mut buf = [0u8; KEY_INLINE_CAP];
        let mut at = 0;
        for p in parts {
            buf[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        Key(KeyRepr::Inline {
            len: len as u8,
            buf,
        })
    }

    /// Builds a key from owned bytes (a long key keeps the allocation).
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        let v = bytes.into();
        if v.len() <= KEY_INLINE_CAP {
            Key::from_slice(&v)
        } else {
            Key(KeyRepr::Heap(v.into_boxed_slice()))
        }
    }

    /// Encodes a single `u64` as an 8-byte big-endian key.
    pub fn from_u64(v: u64) -> Self {
        Key::from_slice(&v.to_be_bytes())
    }

    /// Encodes a pair of `u64`s (e.g. `(orderkey, linenumber)`) as a 16-byte
    /// big-endian composite key ordered lexicographically.
    pub fn from_pair(a: u64, b: u64) -> Self {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&a.to_be_bytes());
        buf[8..].copy_from_slice(&b.to_be_bytes());
        Key::from_slice(&buf)
    }

    /// Decodes the first 8 bytes as a big-endian `u64`. Returns 0 for shorter keys.
    pub fn as_u64(&self) -> u64 {
        let s = self.as_slice();
        if s.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&s[..8]);
            u64::from_be_bytes(buf)
        } else {
            let mut buf = [0u8; 8];
            buf[8 - s.len()..].copy_from_slice(s);
            u64::from_be_bytes(buf)
        }
    }

    /// Decodes the key as a pair of big-endian `u64`s.
    pub fn as_pair(&self) -> (u64, u64) {
        let s = self.as_slice();
        let a = self.as_u64();
        let b = if s.len() >= 16 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&s[8..16]);
            u64::from_be_bytes(buf)
        } else {
            0
        };
        (a, b)
    }

    /// Length of the encoded key in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            KeyRepr::Inline { len, .. } => *len as usize,
            KeyRepr::Heap(b) => b.len(),
        }
    }

    /// True if the key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw byte view.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, buf } => &buf[..*len as usize],
            KeyRepr::Heap(b) => b,
        }
    }

    /// The first eight bytes as a big-endian integer, a shorter key padded
    /// with zeros: `a < b` implies `a.prefix() <= b.prefix()`, so prefix
    /// order is key order wherever two prefixes differ. An inline key reads
    /// its buffer directly (every constructor zero-fills it past `len`); a
    /// heap key is longer than the inline cap.
    pub fn prefix(&self) -> u64 {
        let head = match &self.0 {
            KeyRepr::Inline { buf, .. } => &buf[..8],
            KeyRepr::Heap(b) => &b[..8],
        };
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(head);
        u64::from_be_bytes(bytes)
    }

    /// Copies the key out as an owned byte vector.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            KeyRepr::Inline { len, buf } => buf[..len as usize].to_vec(),
            KeyRepr::Heap(b) => b.into_vec(),
        }
    }
}

impl Default for Key {
    fn default() -> Self {
        Key::from_slice(&[])
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte-lexicographic order, decided by the [`Key::prefix`]es — one integer
/// comparison — unless they tie.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prefix()
            .cmp(&other.prefix())
            .then_with(|| self.as_slice().cmp(other.as_slice()))
    }
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() == 8 {
            write!(f, "Key({})", self.as_u64())
        } else if self.len() == 16 {
            let (a, b) = self.as_pair();
            write!(f, "Key({a},{b})")
        } else {
            write!(f, "Key({:?})", self.as_slice())
        }
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key::from_u64(v)
    }
}

impl From<(u64, u64)> for Key {
    fn from(v: (u64, u64)) -> Self {
        Key::from_pair(v.0, v.1)
    }
}

/// Record payload stored in the primary index.
pub type Value = Bytes;

/// A single mutation: either an upsert carrying a value or a delete tombstone.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Insert or update the record with the given payload.
    Put(Value),
    /// Delete the record (tombstone). Tombstones are kept until a merge that
    /// includes the oldest component drops them.
    Delete,
}

impl Op {
    /// Size in bytes charged for this operation's payload.
    pub fn value_len(&self) -> usize {
        match self {
            Op::Put(v) => v.len(),
            Op::Delete => 0,
        }
    }

    /// True if this is a tombstone.
    pub fn is_delete(&self) -> bool {
        matches!(self, Op::Delete)
    }

    /// Returns the payload for puts, `None` for deletes.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Op::Put(v) => Some(v),
            Op::Delete => None,
        }
    }
}

/// A key/operation pair as stored inside memory and disk components.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Entry {
    /// The record's key.
    pub key: Key,
    /// The mutation applied to that key.
    pub op: Op,
}

impl Entry {
    /// Creates an upsert entry.
    pub fn put(key: impl Into<Key>, value: impl Into<Value>) -> Self {
        Entry {
            key: key.into(),
            op: Op::Put(value.into()),
        }
    }

    /// Creates a tombstone entry.
    pub fn delete(key: impl Into<Key>) -> Self {
        Entry {
            key: key.into(),
            op: Op::Delete,
        }
    }

    /// An owned copy of a borrowed key/op pair, as the merge iterators hand
    /// them out. The key copies inline; a put's payload is shared, not copied.
    pub fn from_parts(key: &Key, op: &Op) -> Self {
        Entry {
            key: key.clone(),
            op: op.clone(),
        }
    }

    /// Approximate on-disk size of the entry in bytes.
    ///
    /// Every size, budget and cost-model charge in the system must use this
    /// (or [`Entry::size_of_parts`]) — component totals, memtable budgets and
    /// query-read metrics are cross-checked against each other in tests, so a
    /// call site hand-rolling `key + value` silently under-charges by the op
    /// tag.
    pub fn size_bytes(&self) -> usize {
        Entry::size_of_parts(&self.key, &self.op)
    }

    /// The size an entry with this key and op would occupy, without building
    /// the entry. The single source of truth for the `key + value + op tag`
    /// formula; use it wherever an `Entry` is not at hand (memtable
    /// replacement accounting, query-read charging).
    pub fn size_of_parts(key: &Key, op: &Op) -> usize {
        key.len() + op.value_len() + OP_TAG_BYTES
    }
}

/// Bytes charged for the put/delete discriminant of an [`Entry`]. Tombstones
/// occupy `key.len() + OP_TAG_BYTES`, never zero — a bucket full of deletes
/// still has weight for splitting, budgets and movement costs.
pub const OP_TAG_BYTES: usize = 1;

#[cfg(test)]
impl Key {
    /// True if the key is stored inline (no heap allocation).
    fn is_inline(&self) -> bool {
        matches!(self.0, KeyRepr::Inline { .. })
    }
}

/// Keys of every shape a prefix has to place: shorter than a prefix
/// (zero-padded, so `"ab"`, `"ab\0"` and `"ab\0\0"` share one), exactly one
/// prefix long, 16-byte pairs in long runs under one leading column, 22
/// bytes (the longest inline key) and longer (heap keys) behind one shared
/// head.
#[cfg(test)]
pub(crate) fn keys_of_every_shape() -> Vec<Key> {
    let mut keys: Vec<Key> = [
        &b""[..],
        b"\0",
        b"\0\0",
        b"a",
        b"ab",
        b"ab\0",
        b"ab\0\0",
        b"ab\0\x01",
        b"abc",
        b"abcdefg",
        b"abcdefg\0",
        b"abcdefgh",
        b"abcdefgh\0",
        b"abcdefgi",
        &[0xff; 7],
        &[0xff; 8],
        &[0xff; 9],
    ]
    .into_iter()
    .map(Key::from_slice)
    .collect();
    keys.extend([0, 1, 2, 255, 256, 1 << 40, u64::MAX - 1, u64::MAX].map(Key::from_u64));
    for order in [0u64, 7, 8, 1 << 33] {
        keys.extend((0..150).map(|line| Key::from_pair(order, line * 3)));
    }
    for tail in 0..120u8 {
        let long = [&b"sharedhd"[..], &[tail / 6; 13], &[tail]].concat();
        assert_eq!(long.len(), 22);
        keys.push(Key::from_slice(&long));
        keys.push(Key::from_slice(&[&long[..], &[tail % 5; 9]].concat()));
    }
    assert!(keys.iter().any(|k| !k.is_inline()));
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The prefix-first order is the byte order: `cmp` agrees with
    /// `as_slice().cmp` on every pair of keys of every shape, built inline,
    /// on the heap and through `from_parts`; and an inline key is zero past
    /// its length, which `Key::prefix` reads without looking at `len`.
    #[test]
    fn the_prefix_first_order_is_the_byte_order_for_keys_of_every_shape() {
        let mut keys = keys_of_every_shape();
        let split: Vec<Key> = keys
            .iter()
            .map(|k| {
                let (head, tail) = k.as_slice().split_at(k.len() / 2);
                Key::from_parts(&[head, tail])
            })
            .collect();
        keys.extend(split);
        for a in &keys {
            if let KeyRepr::Inline { len, buf } = &a.0 {
                assert!(buf[*len as usize..].iter().all(|b| *b == 0), "{a:?}");
            }
            let mut head = [0u8; 8];
            let n = a.len().min(8);
            head[..n].copy_from_slice(&a.as_slice()[..n]);
            assert_eq!(a.prefix(), u64::from_be_bytes(head), "{a:?}");
            for b in &keys {
                let bytes = a.as_slice().cmp(b.as_slice());
                assert_eq!(a.cmp(b), bytes, "{a:?} vs {b:?}");
                assert_eq!(a == b, bytes.is_eq(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn u64_keys_order_like_integers() {
        let ks: Vec<Key> = [0u64, 1, 255, 256, 1 << 40, u64::MAX]
            .iter()
            .map(|&v| Key::from_u64(v))
            .collect();
        for w in ks.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn pair_keys_order_lexicographically() {
        assert!(Key::from_pair(1, 99) < Key::from_pair(2, 0));
        assert!(Key::from_pair(2, 1) < Key::from_pair(2, 2));
        assert_eq!(Key::from_pair(7, 9).as_pair(), (7, 9));
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Key::from_u64(v).as_u64(), v);
        }
    }

    #[test]
    fn entry_size_accounts_for_key_and_value() {
        let e = Entry::put(Key::from_u64(1), Bytes::from(vec![0u8; 100]));
        assert_eq!(e.size_bytes(), 8 + 100 + OP_TAG_BYTES);
        let d = Entry::delete(Key::from_u64(1));
        assert_eq!(d.size_bytes(), 8 + OP_TAG_BYTES);
        assert_eq!(Entry::size_of_parts(&e.key, &e.op), e.size_bytes());
        assert_eq!(Entry::size_of_parts(&d.key, &d.op), d.size_bytes());
    }

    #[test]
    fn short_keys_are_inline_and_long_keys_spill() {
        assert!(Key::from_u64(7).is_inline());
        assert!(Key::from_pair(1, 2).is_inline());
        assert!(Key::from_bytes(vec![9u8; KEY_INLINE_CAP]).is_inline());
        let long = Key::from_bytes(vec![9u8; KEY_INLINE_CAP + 1]);
        assert!(!long.is_inline());
        assert_eq!(long.len(), KEY_INLINE_CAP + 1);
        // a composite is the concatenation of its parts, on either side of the cap
        for tail in [KEY_INLINE_CAP - 8, KEY_INLINE_CAP - 7] {
            let (a, b) = (7u64.to_be_bytes(), vec![9u8; tail]);
            let whole = Key::from_parts(&[&a, &b, &[]]);
            assert_eq!(whole, Key::from_bytes([&a[..], &b[..]].concat()));
            assert_eq!(whole.is_inline(), tail + 8 <= KEY_INLINE_CAP);
            assert_eq!(Key::from_slice(whole.as_slice()), whole);
        }
    }

    #[test]
    fn key_struct_is_no_larger_than_a_vec() {
        assert!(std::mem::size_of::<Key>() <= std::mem::size_of::<Vec<u8>>());
    }

    #[test]
    fn inline_and_heap_keys_compare_hash_and_order_identically() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Same bytes through different constructors must be one key.
        let a = Key::from_u64(0xDEAD_BEEF);
        let b = Key::from_bytes(0xDEAD_BEEFu64.to_be_bytes().to_vec());
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // Ordering across the inline/heap boundary stays byte-lexicographic.
        let short = Key::from_bytes(vec![5u8; KEY_INLINE_CAP]);
        let long = Key::from_bytes(vec![5u8; KEY_INLINE_CAP + 4]);
        assert!(short < long, "prefix orders before its extension");
        let bigger = Key::from_bytes(vec![6u8; 4]);
        assert!(long < bigger);
    }

    #[test]
    fn key_roundtrips_through_into_vec() {
        for bytes in [vec![], vec![1, 2, 3], vec![7u8; KEY_INLINE_CAP + 10]] {
            let k = Key::from_bytes(bytes.clone());
            assert_eq!(k.as_slice(), &bytes[..]);
            assert_eq!(k.into_vec(), bytes);
        }
    }

    #[test]
    fn op_helpers() {
        let p = Op::Put(Bytes::from("x"));
        assert!(!p.is_delete());
        assert_eq!(p.value().unwrap().as_ref(), b"x");
        assert!(Op::Delete.is_delete());
        assert!(Op::Delete.value().is_none());
    }
}
