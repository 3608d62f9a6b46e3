//! Allocation-free case-folded substring search.
//!
//! The `contains` operator is the hottest instruction in every firehose
//! query, and the original implementation paid a `to_lowercase()` heap
//! allocation per record to get case-insensitivity. This module provides
//! the same match semantics with zero allocations:
//!
//! - **ASCII fast path**: when both haystack and needle are pure ASCII,
//!   a memchr-style skip loop scans raw bytes, folding `A-Z` with a
//!   single arithmetic op. No intermediate buffers.
//! - **Unicode fallback**: a char-wise scan that folds each scalar via
//!   `char::to_lowercase().next()`.
//!
//! Semantics note: the char-wise fold maps each scalar to the *first*
//! char of its lowercase expansion (e.g. `İ` folds to `i`, dropping the
//! combining dot), whereas `str::to_lowercase` expands it to two chars.
//! For the handful of expanding code points the folded match is
//! therefore slightly more permissive than a lowercased-string compare.
//! Every `contains` path shares it: the interpreter, the compiled VM
//! and the [`crate::ac::AhoCorasick`] automaton (which builds its
//! patterns through [`fold_needle`] and folds haystack scalars with
//! [`fold_char`]) accept exactly the same (haystack, needle) pairs.

use std::fmt;

/// One-char lowercase fold. Idempotent, so folding an already folded
/// needle again (as the automaton does with interned needles) is a
/// no-op.
#[inline]
pub fn fold_char(c: char) -> char {
    if c.is_ascii() {
        c.to_ascii_lowercase()
    } else {
        c.to_lowercase().next().unwrap_or(c)
    }
}

#[inline]
fn fold_byte(b: u8) -> u8 {
    b | (b.is_ascii_uppercase() as u8) << 5
}

/// Case-insensitive containment where `needle` is **already folded**
/// (every char passed through [`fold_char`]). Zero allocations.
///
/// An empty needle matches everything, mirroring `str::contains("")`.
pub fn contains_folded(hay: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return true;
    }
    if hay.is_ascii() && needle.is_ascii() {
        ascii_contains_folded(hay.as_bytes(), needle.as_bytes())
    } else {
        char_contains(hay, needle, false)
    }
}

/// Case-insensitive containment folding **both** sides on the fly —
/// for dynamic needles that arrive as runtime values and cannot be
/// pre-folded at compile time. Zero allocations.
pub fn contains_fold_both(hay: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return true;
    }
    if hay.is_ascii() && needle.is_ascii() {
        // fold_byte is idempotent, so an unfolded ASCII needle just
        // needs its bytes folded inside the compare loop.
        ascii_contains_unfolded(hay.as_bytes(), needle.as_bytes())
    } else {
        char_contains(hay, needle, true)
    }
}

/// Skip loop over raw bytes; `needle` bytes are already lowercase.
fn ascii_contains_folded(hay: &[u8], needle: &[u8]) -> bool {
    let n = needle.len();
    if n > hay.len() {
        return false;
    }
    let first = needle[0];
    let rest = &needle[1..];
    let mut i = 0;
    let last_start = hay.len() - n;
    'outer: while i <= last_start {
        // memchr-style: race through bytes that cannot start a match.
        while fold_byte(hay[i]) != first {
            i += 1;
            if i > last_start {
                return false;
            }
        }
        for (j, &nb) in rest.iter().enumerate() {
            if fold_byte(hay[i + 1 + j]) != nb {
                i += 1;
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn ascii_contains_unfolded(hay: &[u8], needle: &[u8]) -> bool {
    let n = needle.len();
    if n > hay.len() {
        return false;
    }
    let first = fold_byte(needle[0]);
    let rest = &needle[1..];
    let mut i = 0;
    let last_start = hay.len() - n;
    'outer: while i <= last_start {
        while fold_byte(hay[i]) != first {
            i += 1;
            if i > last_start {
                return false;
            }
        }
        for (j, &nb) in rest.iter().enumerate() {
            if fold_byte(hay[i + 1 + j]) != fold_byte(nb) {
                i += 1;
                continue 'outer;
            }
        }
        return true;
    }
    false
}

/// Char-wise scan for the Unicode path. When `fold_needle` is false the
/// needle chars are assumed pre-folded.
fn char_contains(hay: &str, needle: &str, fold_needle: bool) -> bool {
    let mut start = hay.char_indices();
    loop {
        let mut h = start.clone().map(|(_, c)| c);
        let matched = needle.chars().all(|nc| {
            let nc = if fold_needle { fold_char(nc) } else { nc };
            h.next().is_some_and(|hc| fold_char(hc) == nc)
        });
        if matched {
            return true;
        }
        if start.next().is_none() {
            return false;
        }
    }
}

/// A pre-built case-folded substring searcher (Boyer–Moore–Horspool).
///
/// [`contains_folded`] walks the haystack a byte at a time — fine for a
/// one-off call, and the interpreter's per-record reference path. A
/// compiled query evaluates the same needle millions of times, which
/// pays for building a 256-entry bad-character table once: the scan
/// then skips up to `needle.len()` bytes per probe instead of one.
/// Match semantics are identical to [`contains_folded`] by
/// construction (the ASCII table path is only taken when the linear
/// scan would take its ASCII path; everything else falls through to
/// the shared char-fold scan).
#[derive(Clone)]
pub struct FoldedFinder {
    needle: String,
    shift: [u8; 256],
    /// Table path valid: non-empty pure-ASCII needle of ≤ 255 bytes.
    ascii: bool,
}

impl FoldedFinder {
    /// Build from a needle whose chars are already through
    /// [`fold_char`] (see [`fold_needle`]).
    pub fn new(folded_needle: &str) -> Self {
        let nb = folded_needle.as_bytes();
        let ascii = folded_needle.is_ascii() && !nb.is_empty() && nb.len() <= u8::MAX as usize;
        let mut shift = [nb.len().min(u8::MAX as usize) as u8; 256];
        if ascii {
            let n = nb.len();
            for (j, &b) in nb[..n - 1].iter().enumerate() {
                shift[b as usize] = (n - 1 - j) as u8;
            }
        }
        FoldedFinder {
            needle: folded_needle.to_string(),
            shift,
            ascii,
        }
    }

    /// The folded needle this finder searches for.
    pub fn needle(&self) -> &str {
        &self.needle
    }

    /// Case-insensitive containment; same semantics as
    /// `contains_folded(hay, self.needle())`.
    #[inline]
    pub fn is_match(&self, hay: &str) -> bool {
        if self.ascii && hay.is_ascii() {
            self.bmh(hay.as_bytes())
        } else {
            contains_folded(hay, &self.needle)
        }
    }

    /// ASCII-haystack fast path when the caller has already verified
    /// `hay` is ASCII (e.g. once for several needles over one string).
    #[inline]
    pub fn is_match_ascii(&self, hay: &str) -> bool {
        debug_assert!(hay.is_ascii());
        if self.ascii {
            self.bmh(hay.as_bytes())
        } else {
            contains_folded(hay, &self.needle)
        }
    }

    /// Horspool scan over folded bytes; `self.needle` is lowercase
    /// ASCII and non-empty.
    fn bmh(&self, hay: &[u8]) -> bool {
        let nb = self.needle.as_bytes();
        let n = nb.len();
        if hay.len() < n {
            return false;
        }
        let last = nb[n - 1];
        let mut i = n - 1;
        while i < hay.len() {
            let b = fold_byte(hay[i]);
            if b == last {
                let start = i + 1 - n;
                if nb[..n - 1]
                    .iter()
                    .enumerate()
                    .all(|(j, &x)| fold_byte(hay[start + j]) == x)
                {
                    return true;
                }
            }
            i += self.shift[b as usize] as usize;
        }
        false
    }
}

/// A small `fmt::Write` sink that renders into a fixed stack buffer and
/// only spills to the heap for unusually long values. Lets the engine
/// run `contains` over non-string operands (ints, floats, lists)
/// without a per-record `to_string()`.
pub struct SmallBuf {
    buf: [u8; 64],
    len: usize,
    spill: Option<String>,
}

impl SmallBuf {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        SmallBuf {
            buf: [0; 64],
            len: 0,
            spill: None,
        }
    }

    pub fn clear(&mut self) {
        self.len = 0;
        if let Some(s) = &mut self.spill {
            s.clear();
        }
    }

    pub fn as_str(&self) -> &str {
        match &self.spill {
            Some(s) if !s.is_empty() => s,
            // Bytes only ever come from `write_str`, so this is UTF-8.
            _ => std::str::from_utf8(&self.buf[..self.len]).unwrap_or(""),
        }
    }
}

impl fmt::Write for SmallBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(spill) = &mut self.spill {
            if !spill.is_empty() {
                spill.push_str(s);
                return Ok(());
            }
        }
        if self.len + s.len() <= self.buf.len() {
            self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            let spill = self.spill.get_or_insert_with(String::new);
            spill.push_str(std::str::from_utf8(&self.buf[..self.len]).unwrap_or(""));
            spill.push_str(s);
            self.len = 0;
        }
        Ok(())
    }
}

/// Fold a needle for later [`contains_folded`] calls (allocates once at
/// query compile time, never per record).
pub fn fold_needle(needle: &str) -> String {
    needle.chars().map(fold_char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn ascii_basic() {
        assert!(contains_folded("Barack Obama speaks", "obama"));
        assert!(contains_folded("OBAMA", "obama"));
        assert!(!contains_folded("osama", "obama"));
        assert!(contains_folded("x", ""));
        assert!(!contains_folded("ab", "abc"));
        assert!(contains_folded("abc", "abc"));
        assert!(contains_folded("zzzabc", "abc"));
    }

    #[test]
    fn fold_byte_matches_ascii_lowercase() {
        for b in 0u8..=127 {
            assert_eq!(fold_byte(b), b.to_ascii_lowercase(), "byte {b}");
        }
    }

    #[test]
    fn unicode_fold() {
        // Kelvin sign folds to 'k'.
        assert!(contains_fold_both("temp in \u{212A}elvin", "kelvin"));
        assert!(contains_folded("STRASSE caf\u{C9}", "caf\u{E9}"));
        assert!(!contains_folded("ascii only", "caf\u{E9}"));
        // Needle unicode, haystack ascii.
        assert!(!contains_fold_both("plain", "\u{0130}stanbul"));
        assert!(contains_fold_both("istanbul", "\u{0130}stanbul"));
    }

    #[test]
    fn fold_char_is_idempotent() {
        for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
            let f = fold_char(c);
            assert_eq!(fold_char(f), f, "U+{:04X}", c as u32);
        }
    }

    #[test]
    fn agrees_with_lowercase_contains_on_ascii() {
        let hays = ["", "a", "The Quick Brown Fox", "AAAAb", "xyzzy OBAMA!"];
        let needles = ["", "a", "obama", "quick brown", "zz", "fox"];
        for h in hays {
            for n in needles {
                assert_eq!(
                    contains_fold_both(h, n),
                    h.to_lowercase().contains(&n.to_lowercase()),
                    "hay={h:?} needle={n:?}"
                );
            }
        }
    }

    #[test]
    fn finder_agrees_with_linear_scan() {
        let hays = [
            "",
            "a",
            "Barack Obama speaks",
            "OBAMA",
            "osama",
            "aaaaaab",
            "temp in \u{212A}elvin",
            "STRASSE caf\u{C9}",
            "xyzzy OBAMA!",
            "the quick brown fox jumps over the lazy dog",
        ];
        let needles = ["", "a", "obama", "aab", "kelvin", "caf\u{E9}", "zz", "dog"];
        for n in needles {
            let folded = fold_needle(n);
            let finder = FoldedFinder::new(&folded);
            assert_eq!(finder.needle(), folded);
            for h in hays {
                assert_eq!(
                    finder.is_match(h),
                    contains_folded(h, &folded),
                    "hay={h:?} needle={n:?}"
                );
            }
        }
    }

    #[test]
    fn finder_shift_table_edge_cases() {
        // Repeated-byte needle: shifts must not skip over an overlap.
        let f = FoldedFinder::new("aaa");
        assert!(f.is_match("xxAaAxx"));
        assert!(!f.is_match("xxAaxAxx"));
        // Needle equal to haystack, and longer than haystack.
        let f = FoldedFinder::new("abc");
        assert!(f.is_match("ABC"));
        assert!(!f.is_match("AB"));
        // Single-byte needle degenerates to memchr-with-fold.
        let f = FoldedFinder::new("q");
        assert!(f.is_match("the Quick fox"));
        assert!(!f.is_match("no match here"));
    }

    #[test]
    fn small_buf_renders_and_spills() {
        let mut b = SmallBuf::new();
        write!(b, "{}", 42).unwrap();
        assert_eq!(b.as_str(), "42");
        b.clear();
        let long = "x".repeat(200);
        write!(b, "{long}").unwrap();
        assert_eq!(b.as_str(), long);
        b.clear();
        write!(b, "short").unwrap();
        assert_eq!(b.as_str(), "short");
    }
}
