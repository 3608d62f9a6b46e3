//! Strings packed into shared chunks: the producers of a held log
//! (the generator, the population, the log decoder) write many strings
//! into one buffer and cut each back out as a [`Text`], so the log
//! holds a few chunks instead of an allocation per string.

use std::collections::HashMap;
use std::ops::Range;
use tweeql_model::Text;

/// Strings written back to back into one buffer, which
/// [`Packer::seal`] turns into the chunk each of them is then cut from
/// with [`Text::slice`]: one chunk for all of them.
#[derive(Default)]
pub(crate) struct Packer<'a> {
    buf: String,
    /// Where each interned value lies.
    interned: HashMap<&'a str, Range<usize>>,
}

impl<'a> Packer<'a> {
    /// A buffer with room for `bytes` before it grows.
    pub(crate) fn with_capacity(bytes: usize) -> Packer<'a> {
        Packer {
            buf: String::with_capacity(bytes),
            interned: HashMap::new(),
        }
    }

    /// Append `s`; where it lies.
    pub(crate) fn push(&mut self, s: &str) -> Range<usize> {
        let at = self.buf.len();
        self.buf.push_str(s);
        at..self.buf.len()
    }

    /// Where `s` lies, appended on first sight only.
    pub(crate) fn intern(&mut self, s: &'a str) -> Range<usize> {
        if let Some(at) = self.interned.get(s) {
            return at.clone();
        }
        let at = self.push(s);
        self.interned.insert(s, at.clone());
        at
    }

    /// The chunk, trimmed to what was written.
    pub(crate) fn seal(self) -> Text {
        Text::from(self.buf)
    }
}
