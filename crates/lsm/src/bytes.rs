//! A cheaply-clonable, immutable byte buffer.
//!
//! This is an in-tree, zero-dependency stand-in for the `bytes::Bytes` type:
//! the repository must build fully offline, so the subset of the `bytes` API
//! that the codebase uses is provided here. A `Bytes` is 16 bytes: a thin
//! `Arc` of one `Vec<u8>` (the *slab*) and two `u32` offsets into it, so an
//! [`crate::entry::Op`] is 16 bytes too and an [`crate::entry::Entry`] 40.
//! Cloning is O(1) (a reference-count bump in the slab's header), and
//! [`Bytes::slice`] shares the slab instead of copying — which also means a
//! slice, however small, keeps the whole slab alive for as long as it is
//! held. A `Vec<u8>` becomes a slab as it is, and [`Bytes::concat`] fills a
//! fresh one with one allocation and one copy. A slab holds less than 4 GiB.
//! Every empty buffer views one shared empty slab, so [`Bytes::new`]
//! allocates nothing.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted byte buffer with O(1) clone and slice.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: u32,
    end: u32,
}

/// The slab every empty buffer views, allocated once per process.
static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();

impl Bytes {
    /// Creates an empty buffer. It shares the one empty slab: nothing is
    /// allocated.
    pub fn new() -> Self {
        Bytes {
            data: Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))),
            start: 0,
            end: 0,
        }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a new `Bytes` viewing the given sub-range of this buffer.
    /// The slab is shared, not copied, and lives as long as any slice of it
    /// does — a value read from a component pins that component's whole
    /// payload slab (see [`crate::component`]); copy with [`Bytes::to_vec`]
    /// to keep a value without its neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice range {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        // Both fit: they are at most `len`, which is a `u32` difference.
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start as u32,
            end: self.start + end as u32,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    /// Both share the slab.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the length.
    pub fn split_to(&mut self, at: usize) -> Self {
        let head = self.slice(..at);
        self.start = head.end;
        head
    }

    /// Copies the buffer's contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Copies the contents of `parts`, back to back and in order, into one
    /// fresh slab of exactly their total length: one allocation, one copy,
    /// no zero-fill (nothing at all when the parts hold no bytes). The
    /// caller hands the result back out as the parts' replacements
    /// ([`Bytes::split_to`]).
    ///
    /// # Panics
    ///
    /// Panics if the parts hold 4 GiB or more, as `Bytes::from` a vector
    /// does.
    pub fn concat<'a>(parts: impl Iterator<Item = &'a Bytes> + Clone) -> Bytes {
        let total = parts.clone().map(Bytes::len).sum();
        if total == 0 {
            return Bytes::new();
        }
        let mut slab = Vec::with_capacity(total);
        for part in parts {
            slab.extend_from_slice(part);
        }
        Bytes::from(slab)
    }

    /// True if both buffers are views of one slab (slices of it, or clones
    /// of each other). For this crate's unit tests, which assert where a
    /// payload is copied and where it is not.
    #[cfg(test)]
    pub(crate) fn shares_allocation(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl Default for Bytes {
    /// The empty buffer: [`Bytes::new`], which allocates nothing.
    fn default() -> Self {
        Bytes::new()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Adopts the vector as the slab, spare capacity included: its buffer
    /// is neither copied nor reallocated. An empty vector is dropped and
    /// the result views the shared empty slab.
    ///
    /// # Panics
    ///
    /// Panics if the vector holds 4 GiB or more: the offsets are `u32`.
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = slab_end(v.len());
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

/// A slab's length as the `u32` offset of its end.
///
/// # Panics
///
/// Panics if `len` is 4 GiB or more.
fn slab_end(len: usize) -> u32 {
    assert!(
        u32::try_from(len).is_ok(),
        "a Bytes holds less than 4 GiB, not {len} bytes"
    );
    len as u32
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Bytes::from(v.as_bytes().to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.as_ref();
        if b.len() <= 16 {
            write!(f, "Bytes({b:?})")
        } else {
            write!(f, "Bytes({:?}… len={})", &b[..16], b.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_ref(), &[1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn slice_shares_and_offsets() {
        let a = Bytes::from((0u8..10).collect::<Vec<u8>>());
        let s = a.slice(2..6);
        assert_eq!(s.as_ref(), &[2, 3, 4, 5]);
        let ss = s.slice(1..=2);
        assert_eq!(ss.as_ref(), &[3, 4]);
        assert_eq!(a.slice(..).len(), 10);
    }

    #[test]
    fn adopting_a_vec_copies_nothing_and_slices_share_it() {
        let vec: Vec<u8> = (0u8..8).collect();
        let (expected, buffer) = (vec.clone(), vec.as_ptr());
        let whole = Bytes::from(vec);
        assert_eq!(whole.as_ptr(), buffer, "the vector's buffer is the slab");
        let mut b = whole.clone();
        let a = b.split_to(3);
        assert_eq!((a.as_ref(), b.as_ref()), (&expected[..3], &expected[3..]));
        assert_eq!((a.as_ptr(), b.as_ptr()), (buffer, buffer.wrapping_add(3)));
        let joined = Bytes::concat([&b, &a, &b].into_iter());
        assert_eq!(joined.as_ref(), [3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]);
        // one slab of exactly the parts' total: nothing spare, nothing padded
        let total = 2 * b.len() + a.len();
        assert_eq!((joined.data.len(), joined.data.capacity()), (total, total));
        assert!(a.shares_allocation(&b) && a.shares_allocation(&whole));
        assert!(!a.shares_allocation(&Bytes::from(expected)));
        // the slab lives until the last of its three views is gone
        let slab = Arc::downgrade(&whole.data);
        assert_eq!(slab.strong_count(), 3);
        drop((whole, a));
        assert_eq!(slab.strong_count(), 1);
        drop(b);
        assert_eq!(slab.strong_count(), 0);
    }

    #[test]
    fn a_handle_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
    }

    #[test]
    fn empty_buffers_share_one_slab() {
        let (a, b) = (Bytes::new(), Bytes::default());
        assert!(a.shares_allocation(&b));
        assert!(a.shares_allocation(&Bytes::from(Vec::with_capacity(64))));
        assert!(a.shares_allocation(&Bytes::concat([&a, &b].into_iter())));
        assert!(!a.shares_allocation(&Bytes::from("x")));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
    }

    #[test]
    #[should_panic(expected = "less than 4 GiB")]
    fn a_slab_of_4_gib_is_refused() {
        assert_eq!(slab_end(u32::MAX as usize), u32::MAX);
        slab_end(u32::MAX as usize + 1);
    }

    #[test]
    fn empty_and_from_str() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from("xy").to_vec(), vec![b'x', b'y']);
    }

    #[test]
    fn ordering_and_hash_follow_contents() {
        use std::collections::BTreeSet;
        let set: BTreeSet<Bytes> = [Bytes::from("b"), Bytes::from("a"), Bytes::from(vec![b'a'])]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }
}
