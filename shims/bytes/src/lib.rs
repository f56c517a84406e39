//! Offline shim for the [`bytes`](https://docs.rs/bytes) crate.
//!
//! Implements the slice of the API this workspace uses: [`Bytes`], a cheaply
//! clonable, immutable, reference-counted byte buffer. Cloning shares the
//! underlying allocation; all read access goes through `Deref<Target = [u8]>`.

#![warn(missing_docs)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous byte buffer.
///
/// Cloning and [`Bytes::slice`] share the underlying allocation — neither
/// copies:
///
/// ```
/// use bytes::Bytes;
///
/// let b = Bytes::copy_from_slice(b"hello world");
/// let c = b.clone();
/// // The clone points at the very same allocation — no bytes were copied.
/// assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
///
/// let word = b.slice(6..);
/// assert_eq!(&word[..], b"world");
/// // The subrange view shares the allocation too.
/// assert_eq!(word.as_slice().as_ptr(), unsafe { b.as_slice().as_ptr().add(6) });
/// ```
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
            start: 0,
            end: 0,
        }
    }

    fn from_arc(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_arc(Arc::from(data))
    }

    /// Creates a buffer from a static slice.
    ///
    /// The shim copies the bytes once (the real crate borrows them); the
    /// observable behaviour is identical.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from_arc(Arc::from(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the bytes into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Returns a view of the subrange `range` of `self`, sharing the
    /// underlying allocation (no copy, no new allocation).
    ///
    /// Accepts any range kind, like the real `bytes` crate:
    ///
    /// ```
    /// use bytes::Bytes;
    /// let b = Bytes::copy_from_slice(b"abcdef");
    /// assert_eq!(&b.slice(1..4)[..], b"bcd");
    /// assert_eq!(&b.slice(..2)[..], b"ab");
    /// assert_eq!(&b.slice(4..)[..], b"ef");
    /// assert_eq!(b.slice(..), b);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "slice range inverted: {begin} > {end}");
        assert!(end <= len, "slice range {end} out of bounds for len {len}");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_arc(Arc::from(v.into_boxed_slice()))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_sharing() {
        let b = Bytes::copy_from_slice(b"hello");
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], b"hello");
        assert_eq!(b.to_vec(), b"hello".to_vec());
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Bytes::from(vec![1u8, 2]), Bytes::copy_from_slice(&[1, 2]));
        assert_eq!(Bytes::from_static(b"s"), Bytes::copy_from_slice(b"s"));
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn debug_escapes_non_printable_bytes() {
        let d = format!("{:?}", Bytes::copy_from_slice(b"a\x01"));
        assert_eq!(d, "b\"a\\x01\"");
    }

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::copy_from_slice(b"0123456789");
        let s = b.slice(2..6);
        assert_eq!(&s[..], b"2345");
        assert_eq!(s.len(), 4);
        assert_eq!(s.as_slice().as_ptr(), unsafe {
            b.as_slice().as_ptr().add(2)
        });
        // Slicing a slice composes.
        let t = s.slice(1..=2);
        assert_eq!(&t[..], b"34");
        // Comparisons and debug respect the window.
        assert_eq!(t, Bytes::copy_from_slice(b"34"));
        assert_eq!(format!("{t:?}"), "b\"34\"");
        assert!(b.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = Bytes::copy_from_slice(b"abc").slice(1..5);
    }
}
