//! Aho–Corasick multi-pattern string matching.
//!
//! The TweeQL scan operator applies a `contains` predicate for *every
//! tracked keyword of every running query* to *every* tweet; scanning
//! once with an automaton instead of once per keyword is what makes the
//! streaming filter cheap. Matching is case-insensitive (tweets are):
//! the automaton accepts exactly the haystacks for which
//! [`contains_folded`](crate::fold::contains_folded)`(h, &`[`fold_needle`]`(p))`
//! holds for some pattern `p`.
//!
//! # Layout
//!
//! One dense DFA over the UTF-8 bytes of the folded patterns:
//!
//! - **Byte classes.** Every distinct pattern byte is a class, every
//!   other byte shares class 0, and `A-Z` map onto the class of `a-z`,
//!   so ASCII case folding is part of the class lookup. A row is as wide
//!   as the class count (a few dozen), not 256.
//! - **Premultiplied states.** A state id is its row's offset in the
//!   table, so a step is `trans[state + class]`.
//! - **Match states last.** States with any output (their own or one
//!   inherited through a failure link) get the highest ids: "did
//!   anything match here?" is `state >= first_match`.
//! - **Flat outputs.** The pattern ids of the k-th match state are
//!   `out_ids[out_start[k]..out_start[k + 1]]`.
//!
//! Non-ASCII scalars of the haystack are folded with [`fold_char`] and
//! fed to the same table as their UTF-8 bytes. UTF-8 is
//! self-synchronizing, so a byte-level match of a whole pattern always
//! starts and ends on scalar boundaries.

use crate::fold::{fold_char, fold_needle};
use std::collections::VecDeque;

/// A match of one pattern in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcMatch {
    /// Index of the pattern (in construction order).
    pub pattern: usize,
    /// Byte offset where the pattern starts.
    pub start: usize,
    /// Byte offset one past the end.
    pub end: usize,
}

/// Table entry for a trie edge that does not exist (yet); none survive
/// [`AhoCorasick::new`].
const NO_EDGE: u32 = u32::MAX;

/// Case-insensitive Aho–Corasick automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Boxed to keep the handle small: enums hold automata by value.
    classes: Box<[u8; 256]>,
    /// Row width: the number of byte classes.
    stride: usize,
    trans: Vec<u32>,
    first_match: usize,
    out_start: Vec<u32>,
    out_ids: Vec<u32>,
    patterns: Vec<String>,
}

impl Default for AhoCorasick {
    /// The automaton over no patterns: matches nothing.
    fn default() -> AhoCorasick {
        AhoCorasick::new([""; 0])
    }
}

impl AhoCorasick {
    /// Build from patterns (folded internally with [`fold_needle`]).
    /// Empty patterns are skipped.
    pub fn new<I, S>(patterns: I) -> AhoCorasick
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let patterns: Vec<String> = patterns
            .into_iter()
            .map(|p| fold_needle(p.as_ref()))
            .filter(|p| !p.is_empty())
            .collect();

        let mut classes = Box::new([0u8; 256]);
        let mut stride = 1usize;
        for &b in patterns.iter().flat_map(|p| p.as_bytes()) {
            if classes[b as usize] == 0 {
                // At most 230 distinct bytes: folded patterns hold no `A-Z`.
                classes[b as usize] = stride as u8;
                stride += 1;
            }
        }
        for upper in b'A'..=b'Z' {
            classes[upper as usize] = classes[upper.to_ascii_lowercase() as usize];
        }

        // The trie, in class-wide rows from the first node on. States
        // are row indices until the final renumbering.
        let mut trans = vec![NO_EDGE; stride];
        let mut outs: Vec<Vec<u32>> = vec![Vec::new()];
        for (i, p) in patterns.iter().enumerate() {
            let mut cur = 0usize;
            for &b in p.as_bytes() {
                let slot = cur * stride + classes[b as usize] as usize;
                if trans[slot] == NO_EDGE {
                    trans[slot] = u32::try_from(outs.len()).expect("state count fits u32");
                    trans.resize(trans.len() + stride, NO_EDGE);
                    outs.push(Vec::new());
                }
                cur = trans[slot] as usize;
            }
            outs[cur].push(i as u32);
        }
        let states = outs.len();
        assert!(
            states
                .checked_mul(stride)
                .is_some_and(|n| n < NO_EDGE as usize),
            "automaton table exceeds the u32 state space"
        );

        // Breadth-first: resolve every missing edge through the failure
        // link, whose row is complete because it is shallower.
        let mut fail = vec![0u32; states];
        let mut queue = VecDeque::new();
        for edge in &mut trans[..stride] {
            match *edge {
                NO_EDGE => *edge = 0,
                child => queue.push_back(child as usize),
            }
        }
        while let Some(u) = queue.pop_front() {
            let f = fail[u] as usize;
            for c in 0..stride {
                let via_fail = trans[f * stride + c];
                match trans[u * stride + c] {
                    NO_EDGE => trans[u * stride + c] = via_fail,
                    child => {
                        let child = child as usize;
                        fail[child] = via_fail;
                        let inherited = outs[via_fail as usize].clone();
                        outs[child].extend(inherited);
                        queue.push_back(child);
                    }
                }
            }
        }

        // Renumber: silent states first, match states last, ids
        // premultiplied by the row width.
        let silent = outs.iter().filter(|o| o.is_empty()).count();
        let (mut next_silent, mut next_match) = (0, silent);
        let mut new_id = vec![0u32; states];
        let mut out_start = vec![0u32];
        let mut out_ids = Vec::new();
        for (s, out) in outs.iter().enumerate() {
            let next = if out.is_empty() {
                &mut next_silent
            } else {
                out_ids.extend_from_slice(out);
                out_start.push(out_ids.len() as u32);
                &mut next_match
            };
            new_id[s] = (*next * stride) as u32;
            *next += 1;
        }
        let mut table = vec![0u32; trans.len()];
        for (s, row) in trans.chunks_exact(stride).enumerate() {
            let at = new_id[s] as usize;
            for (slot, &to) in table[at..at + stride].iter_mut().zip(row) {
                *slot = new_id[to as usize];
            }
        }

        AhoCorasick {
            classes,
            stride,
            trans: table,
            first_match: silent * stride,
            out_start,
            out_ids,
            patterns,
        }
    }

    /// The patterns (folded), in index order.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// Number of automaton states.
    pub fn state_count(&self) -> usize {
        self.trans.len() / self.stride
    }

    /// Heap bytes of the transition table (states x classes x 4) and
    /// the output arrays.
    pub fn table_bytes(&self) -> usize {
        4 * (self.trans.len() + self.out_start.len() + self.out_ids.len())
    }

    /// Walk `haystack`, calling `on_match(end, patterns)` wherever at
    /// least one pattern ends (`end` is a byte offset into the source
    /// text, one past the match). Stops early when it returns `true`.
    #[inline]
    fn scan(&self, haystack: &str, mut on_match: impl FnMut(usize, &[u32]) -> bool) {
        let bytes = haystack.as_bytes();
        let step = |state: usize, b: u8| self.trans[state + self.classes[b as usize] as usize];
        let mut state = 0usize;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b < 0x80 {
                state = step(state, b) as usize;
                i += 1;
            } else {
                let c = haystack[i..]
                    .chars()
                    .next()
                    .expect("a non-empty tail has a first char");
                i += c.len_utf8();
                for &fb in fold_char(c).encode_utf8(&mut [0; 4]).as_bytes() {
                    state = step(state, fb) as usize;
                }
            }
            if state >= self.first_match {
                let k = (state - self.first_match) / self.stride;
                let out = &self.out_ids[self.out_start[k] as usize..self.out_start[k + 1] as usize];
                if on_match(i, out) {
                    return;
                }
            }
        }
    }

    /// Call `sink(pattern)` for every occurrence of every pattern, in
    /// the order the occurrences end; a pattern that occurs twice is
    /// reported twice. Allocates nothing.
    #[inline]
    pub fn scan_into(&self, haystack: &str, sink: &mut impl FnMut(usize)) {
        self.scan(haystack, |_, out| {
            out.iter().for_each(|&p| sink(p as usize));
            false
        });
    }

    /// All matches (case-insensitive) in `haystack`.
    pub fn find_all(&self, haystack: &str) -> Vec<AcMatch> {
        let mut out = Vec::new();
        self.scan(haystack, |end, patterns| {
            for &p in patterns {
                // Folding maps one scalar to one scalar, so the match
                // spans as many source chars as the pattern has.
                let mut start = end;
                for _ in self.patterns[p as usize].chars() {
                    start -= 1;
                    while !haystack.is_char_boundary(start) {
                        start -= 1;
                    }
                }
                out.push(AcMatch {
                    pattern: p as usize,
                    start,
                    end,
                });
            }
            false
        });
        out
    }

    /// Indices of patterns that occur at least once (deduplicated,
    /// sorted).
    pub fn matching_patterns(&self, haystack: &str) -> Vec<usize> {
        let mut hits = Vec::new();
        self.scan_into(haystack, &mut |p| hits.push(p));
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Does any pattern occur?
    pub fn is_match(&self, haystack: &str) -> bool {
        let mut hit = false;
        self.scan(haystack, |_, _| {
            hit = true;
            true
        });
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pattern() {
        let ac = AhoCorasick::new(["obama"]);
        assert!(ac.is_match("Barack Obama speaks"));
        assert!(!ac.is_match("romney rally"));
    }

    #[test]
    fn overlapping_patterns_all_found() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        let hits = ac.matching_patterns("ushers");
        // "ushers" contains she, he, hers.
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn match_offsets() {
        let ac = AhoCorasick::new(["goal"]);
        let ms = ac.find_all("GOAL goal");
        assert_eq!(ms.len(), 2);
        assert_eq!((ms[0].start, ms[0].end), (0, 4));
        assert_eq!((ms[1].start, ms[1].end), (5, 9));
    }

    #[test]
    fn case_insensitive() {
        let ac = AhoCorasick::new(["Liverpool"]);
        assert!(ac.is_match("LIVERPOOL wins"));
        assert!(ac.is_match("liverpool"));
    }

    #[test]
    fn suffix_patterns_via_failure_links() {
        let ac = AhoCorasick::new(["abcd", "bcd", "cd", "d"]);
        let hits = ac.matching_patterns("abcd");
        assert_eq!(hits, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_patterns_and_haystack() {
        let ac = AhoCorasick::new(Vec::<&str>::new());
        assert!(!ac.is_match("anything"));
        let ac = AhoCorasick::new(["", "x"]);
        assert_eq!(ac.patterns().len(), 1);
        assert!(!ac.is_match(""));
    }

    #[test]
    fn unicode_patterns() {
        let ac = AhoCorasick::new(["地震", "津波"]);
        let ms = ac.find_all("今日地震があった、津波注意");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].pattern, 0);
        assert_eq!(ms[1].pattern, 1);
        // Byte offsets line up with the source text.
        assert_eq!(
            &"今日地震があった、津波注意"[ms[0].start..ms[0].end],
            "地震"
        );
    }

    #[test]
    fn many_keywords_one_pass() {
        let kws: Vec<String> = (0..100).map(|i| format!("kw{i}")).collect();
        let ac = AhoCorasick::new(&kws);
        assert!(ac.is_match("text with kw42 inside"));
        // kw9 is a genuine substring of "kw99", so it matches too.
        assert_eq!(ac.matching_patterns("kw1 kw99"), vec![1, 9, 99]);
    }

    #[test]
    fn repeated_pattern_instances() {
        let ac = AhoCorasick::new(["aa"]);
        // Overlapping occurrences are all reported.
        assert_eq!(ac.find_all("aaaa").len(), 3);
    }
}
