//! A small regular-expression engine built from scratch.
//!
//! TweeQL's `MATCHES` predicate and `regex_extract(text, pattern, group)`
//! UDF need streaming-safe regular expressions; the sanctioned offline
//! crate set has no regex crate, so this module implements the classic
//! pipeline:
//!
//! ```text
//! pattern ──parser──▶ AST ──compiler──▶ NFA program ──Pike VM──▶ captures
//! ```
//!
//! Supported syntax: literals, `.`, escapes (`\d \w \s \D \W \S \n \t \r`
//! and escaped metacharacters), character classes `[a-z0-9_]` /
//! `[^...]`, repetition `* + ? {m} {m,} {m,n}` (greedy and lazy `*?` etc.),
//! alternation `|`, capture groups `(...)`, non-capturing `(?:...)`,
//! anchors `^ $`, and a leading `(?i)` case-insensitivity flag.
//!
//! The Pike VM guarantees linear time in `pattern × input` — no
//! exponential backtracking, which matters for a stream processor fed
//! adversarial tweet text.
//!
//! A case-sensitive pattern that starts with a literal run (`http://`
//! in `http://[a-z./0-9-]+`) is searched by jumping to each occurrence
//! of that literal with `str::find` and running the VM anchored there;
//! everything else runs the VM over the whole input.

mod nfa;
mod parser;
mod pike;

pub use nfa::Program;
pub use parser::{Ast, ClassItem, RegexError};

use std::fmt;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
    n_groups: usize,
    /// The literal every match starts with; empty when the pattern has
    /// no such prefix or folds case.
    prefix: String,
}

/// Byte range of a match or capture group within the haystack.
pub type Span = (usize, usize);

impl Regex {
    /// Parse and compile `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let (ast, n_groups, case_insensitive) = parser::parse(pattern)?;
        let program = nfa::compile(&ast, n_groups, case_insensitive);
        let prefix = if case_insensitive {
            String::new()
        } else {
            literal_prefix(&ast)
        };
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
            n_groups,
            prefix,
        })
    }

    /// Leftmost match with capture-group spans.
    fn search(&self, text: &str) -> Option<pike::Captures> {
        if self.prefix.is_empty() {
            pike::search(&self.program, text)
        } else {
            pike::search_prefixed(&self.program, &self.prefix, text)
        }
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of capture groups (excluding group 0, the whole match).
    pub fn group_count(&self) -> usize {
        self.n_groups
    }

    /// Does the pattern match anywhere in `text`?
    pub fn is_match(&self, text: &str) -> bool {
        self.search(text).is_some()
    }

    /// Leftmost match span.
    pub fn find(&self, text: &str) -> Option<Span> {
        self.search(text).map(|caps| caps[0].unwrap())
    }

    /// Leftmost match with capture-group spans. Index 0 is the whole
    /// match; groups that did not participate are `None`.
    pub fn captures(&self, text: &str) -> Option<Vec<Option<Span>>> {
        self.search(text)
    }

    /// Text of capture group `idx` in the leftmost match.
    pub fn extract<'t>(&self, text: &'t str, idx: usize) -> Option<&'t str> {
        let caps = self.captures(text)?;
        let (s, e) = (*caps.get(idx)?)?;
        Some(&text[s..e])
    }

    /// All non-overlapping match spans (leftmost, then continuing after
    /// each match; empty matches advance one char to guarantee progress).
    pub fn find_all(&self, text: &str) -> Vec<Span> {
        let mut out = Vec::new();
        let mut at = 0;
        while at <= text.len() {
            let Some(caps) = self.search(&text[at..]) else {
                break;
            };
            let (s, e) = caps[0].unwrap();
            out.push((at + s, at + e));
            let next = at
                + if e > s {
                    e
                } else {
                    e + utf8_len_at(text, at + e)
                };
            if next == at {
                break;
            }
            at = next;
        }
        out
    }
}

/// The literal characters every match of `ast` must start with.
fn literal_prefix(ast: &Ast) -> String {
    let literal = |node: &Ast| match node {
        Ast::Literal(c) => Some(*c),
        _ => None,
    };
    match ast {
        Ast::Concat(parts) => parts.iter().map_while(literal).collect(),
        node => literal(node).into_iter().collect(),
    }
}

fn utf8_len_at(text: &str, at: usize) -> usize {
    text[at..].chars().next().map(|c| c.len_utf8()).unwrap_or(1)
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/", self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    fn cap<'t>(pat: &str, text: &'t str, g: usize) -> Option<&'t str> {
        Regex::new(pat).unwrap().extract(text, g)
    }

    #[test]
    fn literals() {
        assert!(m("obama", "barack obama speaks"));
        assert!(!m("obama", "romney"));
        assert!(m("", "anything"));
    }

    #[test]
    fn dot_and_classes() {
        assert!(m("o.ama", "obama"));
        assert!(m("[0-9]+", "magnitude 7"));
        assert!(!m("[0-9]+", "no digits"));
        assert!(m("[^aeiou]", "rhythm"));
        assert!(m("[a-c-]", "x-y"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"\d+-\d+", "final score 3-0 today"));
        assert!(m(r"\w+", "word"));
        assert!(m(r"\s", "a b"));
        assert!(m(r"\.", "end."));
        assert!(!m(r"\.", "end"));
        assert!(m(r"\D", "abc"));
        assert!(!m(r"\D", "123"));
    }

    #[test]
    fn repetition() {
        assert!(m("go+al", "goooal"));
        assert!(m("go*al", "gal"));
        assert!(m("colou?r", "color"));
        assert!(m("colou?r", "colour"));
        assert!(m("a{3}", "aaa"));
        assert!(!m("^a{3}$", "aa"));
        assert!(m("^a{2,3}$", "aa"));
        assert!(m("^a{2,}$", "aaaa"));
        assert!(!m("^a{2,3}$", "aaaa"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("(man|liver)chester", "manchester"));
        assert!(!m("^(a|b)$", "c"));
    }

    #[test]
    fn anchors() {
        assert!(m("^goal", "goal scored"));
        assert!(!m("^goal", "a goal"));
        assert!(m("scored$", "goal scored"));
        assert!(!m("scored$", "scored goal"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
    }

    #[test]
    fn captures_basic() {
        assert_eq!(cap(r"(\d+)-(\d+)", "score 3-0 now", 1), Some("3"));
        assert_eq!(cap(r"(\d+)-(\d+)", "score 3-0 now", 2), Some("0"));
        assert_eq!(cap(r"(\d+)-(\d+)", "score 3-0 now", 0), Some("3-0"));
    }

    #[test]
    fn noncapturing_groups_do_not_count() {
        let re = Regex::new(r"(?:ab)+(c)").unwrap();
        assert_eq!(re.group_count(), 1);
        assert_eq!(re.extract("ababc", 1), Some("c"));
    }

    #[test]
    fn optional_group_is_none_when_unused() {
        let caps = Regex::new(r"a(b)?c").unwrap().captures("ac").unwrap();
        assert_eq!(caps[1], None);
    }

    #[test]
    fn leftmost_greedy_semantics() {
        let re = Regex::new(r"a+").unwrap();
        assert_eq!(re.find("baaad"), Some((1, 4)));
        // Lazy variant matches minimally.
        let re = Regex::new(r"a+?").unwrap();
        assert_eq!(re.find("baaad"), Some((1, 2)));
    }

    #[test]
    fn case_insensitive_flag() {
        assert!(m("(?i)obama", "OBAMA wins"));
        assert!(m("(?i)[a-z]+", "ABC"));
        assert!(!m("obama", "OBAMA"));
    }

    #[test]
    fn find_all_non_overlapping() {
        let re = Regex::new(r"\d+").unwrap();
        assert_eq!(re.find_all("1 22 333"), vec![(0, 1), (2, 4), (5, 8)]);
    }

    #[test]
    fn find_all_with_empty_matches_terminates() {
        let re = Regex::new(r"a*").unwrap();
        let spans = re.find_all("ba");
        assert!(!spans.is_empty());
        assert!(spans.len() <= 4);
    }

    #[test]
    fn unicode_input() {
        assert!(m("地震", "日本で地震が発生"));
        let re = Regex::new("(地震)").unwrap();
        assert_eq!(re.extract("日本で地震", 1), Some("地震"));
    }

    #[test]
    fn word_boundaries() {
        assert!(m(r"\bobama\b", "barack obama speaks"));
        assert!(!m(r"\bobama\b", "obamacare passes"));
        assert!(m(r"\bcat", "a cat sat"));
        assert!(!m(r"\bcat", "tomcat ran"));
        assert!(m(r"cat\b", "tomcat ran"));
        assert!(m(r"\Bcat", "tomcat ran"));
        assert!(!m(r"\Bcat\B", "a cat sat"));
        // Boundaries at string edges.
        assert!(m(r"\bx\b", "x"));
        // Repeating a boundary is an error.
        assert!(Regex::new(r"\b+").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Regex::new("(unclosed").is_err());
        assert!(Regex::new("a{2,1}").is_err());
        assert!(Regex::new("[unclosed").is_err());
        assert!(Regex::new("*leading").is_err());
        assert!(Regex::new(r"trailing\").is_err());
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // (a+)+b against aaaa...c would be exponential under backtracking;
        // the Pike VM must finish instantly.
        let re = Regex::new("(a+)+b").unwrap();
        let haystack = "a".repeat(200) + "c";
        let t0 = std::time::Instant::now();
        assert!(!re.is_match(&haystack));
        assert!(t0.elapsed().as_millis() < 1000);
    }

    #[test]
    fn tweet_extraction_use_case() {
        // The kind of pattern a TweeQL user writes to pull scores.
        let re = Regex::new(r"(?i)(\d+)\s*-\s*(\d+)\s*(to)?\s*(\w+)?").unwrap();
        let caps = re.captures("GOAL!! 3-0 to City").unwrap();
        assert!(caps[0].is_some());
        let re2 = Regex::new(r"magnitude\s+(\d+\.?\d*)").unwrap();
        assert_eq!(re2.extract("magnitude 6.3 quake hits", 1), Some("6.3"));
    }

    #[test]
    fn match_may_start_after_a_newline() {
        assert_eq!(Regex::new("b+").unwrap().find("a\nbb"), Some((2, 4)));
        assert_eq!(Regex::new("[0-9]").unwrap().find("a\n7"), Some((2, 3)));
        // `.` itself still excludes it.
        assert!(!m("a.b", "a\nb"));
    }

    #[test]
    fn literal_prefix_is_extracted_only_where_every_match_starts_with_it() {
        let prefix = |pat: &str| Regex::new(pat).unwrap().prefix;
        assert_eq!(prefix("http://[a-z./0-9-]+"), "http://");
        assert_eq!(prefix("obama"), "obama");
        assert_eq!(prefix("ab*"), "a");
        assert_eq!(prefix(r"地震\d"), "地震");
        assert_eq!(prefix("x"), "x");
        for none in [
            "(?i)obama",
            "a|b",
            "ab|cd",
            "^ab",
            r"\bcat",
            "(ab)c",
            "a?b",
            "[ab]c",
            "",
        ] {
            assert_eq!(prefix(none), "", "{none}");
        }
    }

    #[test]
    fn prefixed_search_tries_overlapping_occurrences() {
        let re = Regex::new("aab").unwrap();
        assert_eq!(re.find("aaab"), Some((1, 4)));
        // The first `aa` cannot continue; the overlapping second can.
        let re = Regex::new("aa[bc]").unwrap();
        assert_eq!(re.find("aaab"), Some((1, 4)));
        assert_eq!(re.find_all("aaab aac"), vec![(1, 4), (5, 8)]);
    }

    mod prefixed {
        use super::*;
        use proptest::prelude::*;

        /// Pattern tails after the literal prefix: classes, repetition
        /// (greedy and lazy), alternation, groups, `\b`/`\B`, `$`, and
        /// tails that re-match the prefix's own characters.
        const TAILS: &[&str] = &[
            "", "b", "[bc]", "(b)", "[a-c]+", "a*b", "(a|b)c?", r"\b", r"\B", "$", ".", "a*?",
            "(é|a)+", r"\b ", "b{1,2}", r"[^ ]*\b",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// The prefix-accelerated search is the plain Pike search:
            /// every entry point, on patterns that start with a literal
            /// run over a tiny alphabet (so prefixes occur often and
            /// overlap) and haystacks with multibyte text and newlines.
            #[test]
            fn prefixed_search_equals_plain_search(
                prefix in "[abé]{1,2}",
                tail in 0usize..TAILS.len(),
                text in "[ab]{0,8}[abcé \n]{0,8}",
            ) {
                let fast = Regex::new(&format!("{prefix}{}", TAILS[tail])).unwrap();
                prop_assert!(fast.prefix.starts_with(&prefix));
                let plain = Regex {
                    prefix: String::new(),
                    ..fast.clone()
                };
                prop_assert_eq!(fast.is_match(&text), plain.is_match(&text));
                prop_assert_eq!(fast.find(&text), plain.find(&text));
                prop_assert_eq!(fast.captures(&text), plain.captures(&text));
                prop_assert_eq!(fast.extract(&text, 1), plain.extract(&text, 1));
                prop_assert_eq!(fast.find_all(&text), plain.find_all(&text));
            }
        }
    }
}
