//! [`Text`] — the one string type of the model: an immutable UTF-8
//! slice of a shared chunk.
//!
//! A producer that holds many strings at once (the log decoder, the
//! generator, the synthetic population) writes them back to back into
//! one buffer, seals the buffer as a `Text` with [`Text::from`], and
//! cuts each string out of it with [`Text::slice`]. Thousands of tweet
//! texts then share one chunk instead of an allocation each, and
//! cloning any of them is one refcount bump, as an `Arc<str>` would be.
//!
//! The accepted cost: a `Text` keeps its whole chunk alive. A value
//! copied out of a held log — a GROUP BY key, a queued output row —
//! holds the run of texts it was cut from until it is dropped. The
//! empty string lies in no chunk: it allocates nothing and holds
//! nothing.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, cheaply cloned UTF-8 string: bytes `start..start+len`
/// of a reference-counted chunk.
///
/// It behaves as the `str` it derefs to: `Debug`, `Display`, `Hash`,
/// `Eq` and `Ord` are `str`'s, and it is `Borrow<str>`, so a set of
/// `Text`s is probed with a `&str`.
#[derive(Clone, Default)]
pub struct Text {
    /// The chunk, `None` for the empty string: a thin pointer, so the
    /// handle is 16 bytes.
    chunk: Option<Arc<Box<str>>>,
    start: u32,
    len: u32,
}

fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a text chunk is smaller than 4 GiB")
}

impl Text {
    /// The text as a `str`.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.chunk {
            Some(chunk) => {
                let start = self.start as usize;
                &chunk[start..start + self.len as usize]
            }
            None => "",
        }
    }

    /// The text's bytes: [`Text::as_str`] without its character
    /// boundary checks, for comparing bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.chunk {
            Some(chunk) => {
                let start = self.start as usize;
                &chunk.as_bytes()[start..start + self.len as usize]
            }
            None => &[],
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty string.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes `range` of this text, sharing its chunk: no copy, one
    /// refcount bump (none for an empty range).
    ///
    /// # Panics
    /// As `&str[range]` does, when the range is out of bounds or does
    /// not fall on character boundaries.
    pub fn slice(&self, range: Range<usize>) -> Text {
        // Checks bounds and boundaries as `str` indexing does.
        let _ = &self.as_str()[range.clone()];
        if range.is_empty() {
            return Text::default();
        }
        Text {
            chunk: self.chunk.clone(),
            start: self.start + offset(range.start),
            len: offset(range.len()),
        }
    }

    /// The address of the chunk this text lies in, `None` for the empty
    /// string: equal for two live texts exactly when they share one.
    /// For tests and diagnostics that count chunks.
    pub fn chunk_addr(&self) -> Option<usize> {
        self.chunk.as_ref().map(|c| Arc::as_ptr(c) as usize)
    }
}

impl From<Box<str>> for Text {
    /// The whole of `s` as one chunk.
    fn from(s: Box<str>) -> Text {
        if s.is_empty() {
            return Text::default();
        }
        let len = offset(s.len());
        Text {
            chunk: Some(Arc::new(s)),
            start: 0,
            len,
        }
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::from(s.into_boxed_str())
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::from(Box::<str>::from(s))
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq for Text {
    #[inline]
    fn eq(&self, other: &Text) -> bool {
        let same_chunk = match (&self.chunk, &other.chunk) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        let same = same_chunk && self.start == other.start && self.len == other.len;
        same || self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn an_empty_text_holds_no_chunk() {
        let chunk = Text::from("obama");
        for empty in [Text::from(""), Text::from(String::new()), chunk.slice(2..2)] {
            assert_eq!(empty.chunk_addr(), None);
            assert!(empty.is_empty() && empty.as_str() == "" && empty == Text::default());
        }
        assert!(chunk.chunk_addr().is_some());
    }

    #[test]
    fn slices_share_the_chunk_and_probe_a_set_by_str() {
        let chunk = Text::from("obama東京");
        let obama = chunk.slice(0..5);
        let tokyo = chunk.slice(5..11);
        assert_eq!((obama.as_str(), tokyo.as_str()), ("obama", "東京"));
        assert_eq!(obama.chunk_addr(), tokyo.chunk_addr());
        assert_eq!(tokyo.slice(3..6), "京");
        let set: HashSet<Text> = [obama, tokyo].into_iter().collect();
        assert!(set.contains("東京") && !set.contains("obam"));
    }

    #[test]
    #[should_panic]
    fn a_slice_inside_a_character_panics() {
        Text::from("東京").slice(1..3);
    }

    proptest! {
        /// A text cut from any position of a chunk is its standalone
        /// copy and its `str` in every trait the model relies on.
        #[test]
        fn a_slice_behaves_as_its_copy_and_its_str(
            parts in collection::vec(".{0,12}", 1..8),
            other in ".{0,12}",
        ) {
            let whole = Text::from(parts.concat());
            let mut at = 0;
            for part in &parts {
                let cut = whole.slice(at..at + part.len());
                at += part.len();
                let copy = Text::from(part.as_str());
                let s = part.as_str();
                prop_assert_eq!(&cut, &copy);
                prop_assert_eq!(cut.as_str(), s);
                prop_assert_eq!(cut.len(), s.len());
                prop_assert_eq!(cut.is_empty(), s.is_empty());
                prop_assert_eq!(hash_of(&cut), hash_of(s));
                prop_assert_eq!(hash_of(&copy), hash_of(s));
                prop_assert_eq!(format!("{cut:?}"), format!("{s:?}"));
                prop_assert_eq!(format!("{cut}"), s);
                let other = Text::from(other.as_str());
                prop_assert_eq!(cut.cmp(&other), s.cmp(other.as_str()));
                prop_assert_eq!(cut == other, s == other.as_str());
                // serde here is a marker stand-in: a `Text` serialises
                // as its `str`, which is what `Debug` renders.
                fn serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(_: &T) {}
                serde(&cut);
            }
        }
    }
}
