//! A cheaply-clonable, immutable byte buffer.
//!
//! This is an in-tree, zero-dependency stand-in for the `bytes::Bytes` type:
//! the repository must build fully offline, so the subset of the `bytes` API
//! that the codebase uses is provided here on top of `Arc<[u8]>`. Cloning is
//! O(1) (a reference-count bump), and [`Bytes::slice`] shares the underlying
//! allocation instead of copying — which also means a slice, however small,
//! keeps the whole allocation alive for as long as it is held.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer with O(1) clone and slice.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a new `Bytes` viewing the given sub-range of this buffer.
    /// The underlying allocation is shared, not copied, and lives as long as
    /// any slice of it does — a value read from a component pins that
    /// component's whole payload slab (see [`crate::component`]); copy with
    /// [`Bytes::to_vec`] to keep a value without its neighbours.
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
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    /// Both share the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the length.
    pub fn split_to(&mut self, at: usize) -> Self {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the buffer's contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Copies the contents of `parts`, back to back and in order, into one
    /// fresh allocation: one allocation, one copy (none at all when the parts
    /// hold no bytes). The caller hands the result back out as the parts'
    /// replacements ([`Bytes::split_to`]).
    pub fn concat<'a>(parts: impl Iterator<Item = &'a Bytes> + Clone) -> Bytes {
        let total = parts.clone().map(Bytes::len).sum();
        if total == 0 {
            return Bytes::new();
        }
        let mut slab: Arc<[u8]> = std::iter::repeat_n(0u8, total).collect();
        // Not shared yet, so `make_mut` hands the slab out as it is.
        let buf = Arc::make_mut(&mut slab);
        let mut at = 0;
        for part in parts {
            buf[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Bytes::from(slab)
    }

    /// True if both buffers are views of one allocation (slices of the same
    /// slab, or clones of each other). For this crate's unit tests, which
    /// assert where a payload is copied and where it is not.
    #[cfg(test)]
    pub(crate) fn shares_allocation(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl From<Arc<[u8]>> for Bytes {
    /// Adopts the allocation as it is: nothing is copied.
    fn from(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from(Arc::<[u8]>::from(v))
    }
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
    fn adopting_an_arc_copies_nothing_and_slices_share_it() {
        let slab: Arc<[u8]> = (0u8..8).collect();
        let whole = Bytes::from(Arc::clone(&slab));
        let mut b = whole.clone();
        let a = b.split_to(3);
        assert_eq!((a.as_ref(), b.as_ref()), (&slab[..3], &slab[3..]));
        assert_eq!(
            Bytes::concat([&b, &a, &b].into_iter()).as_ref(),
            [3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]
        );
        assert!(a.shares_allocation(&b) && a.shares_allocation(&whole));
        assert!(!a.shares_allocation(&Bytes::from(slab.to_vec())));
        // three views and the original: the slab lives until the last is gone
        assert_eq!(Arc::strong_count(&slab), 4);
        drop((whole, a));
        assert_eq!(Arc::strong_count(&slab), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2]).slice(0..3);
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
