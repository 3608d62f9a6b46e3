//! A small regular-expression engine built from scratch.
//!
//! TweeQL's `MATCHES` predicate and `regex_extract(text, pattern, group)`
//! UDF need streaming-safe regular expressions; the sanctioned offline
//! crate set has no regex crate, so this module implements the classic
//! pipeline, with a determinised fast path for the requests that ask
//! only *where* the pattern matched:
//!
//! ```text
//! pattern ─parser─▶ AST ─compiler─▶ NFA program ─┬────────────────────▶ Pike VM ─▶ captures,
//!                                                │                        ▲        extract(_, n ≥ 1)
//!                                                │         not covered:   │
//!                                                │  lazy quantifier, \b, \B, > 256 states
//!                                                │                        │
//!                                                └─ subset construction ─▶ DFA ──▶ is_match, find,
//!                                                   (once, in Regex::new)          extract(_, 0), find_all
//! ```
//!
//! Supported syntax: literals, `.`, escapes (`\d \w \s \D \W \S \n \t \r`
//! and escaped metacharacters), character classes `[a-z0-9_]` /
//! `[^...]`, repetition `* + ? {m} {m,} {m,n}` (greedy and lazy `*?` etc.),
//! alternation `|`, capture groups `(...)`, non-capturing `(?:...)`,
//! anchors `^ $`, and a leading `(?i)` case-insensitivity flag. A count
//! is at most 1,000, groups nest at most 64 deep, and a compiled program
//! has at most 10,000 instructions, so compiling a pattern takes bounded
//! time and stack.
//!
//! The Pike VM guarantees linear time in `pattern × input` — no
//! exponential backtracking, which matters for a stream processor fed
//! adversarial tweet text — and is the only thing that tracks capture
//! groups. A group-0 request on a covered pattern never enters it: the
//! program's thread lists are determinised once, in [`Regex::new`]
//! (`dfa.rs`), and a search is one table load per char.
//!
//! * A case-sensitive pattern that starts with a literal run (`http://`
//!   in `http://[a-z./0-9-]+`) jumps to each occurrence of that literal
//!   with `str::find` and runs the pattern's DFA *anchored* there (the
//!   VM, when the pattern is not covered).
//! * Any other covered pattern runs the unanchored DFA forwards to the
//!   end of the leftmost match, then the reversed pattern's DFA
//!   backwards from that end to its start: two linear passes.

mod dfa;
mod nfa;
mod parser;
mod pike;

pub use nfa::Program;
pub use parser::{Ast, ClassItem, RegexError};

use dfa::{Dfa, Semantics};
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
    /// The determinised program, when the pattern is covered.
    dfa: Option<Accel>,
}

/// How a group-0 request is answered without the VM.
#[derive(Debug, Clone)]
enum Accel {
    /// Every match starts with `prefix`: the pattern's DFA, entered
    /// anchored at each occurrence of it.
    Prefixed { anchored: Dfa },
    /// `forward` (unanchored) finds the end of the leftmost match;
    /// `reverse` (the reversed pattern, anchored at that end, longest
    /// match) walks back to its start.
    Scan {
        forward: Dfa,
        reverse: Dfa,
        /// Does the pattern match the empty text? There `^` and `$`
        /// hold at the same position, which no DFA state stands for.
        matches_empty: bool,
    },
}

/// Byte range of a match or capture group within the haystack.
pub type Span = (usize, usize);

impl Regex {
    /// Parse and compile `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let (ast, n_groups, case_insensitive) = parser::parse(pattern)?;
        // The skip loop and `Save(0)` before the body, `Save(1)` and
        // `Match` after it.
        if nfa::size(&ast).saturating_add(6) > nfa::MAX_INSTS {
            return Err(RegexError {
                message: format!(
                    "pattern compiles to more than {} instructions",
                    nfa::MAX_INSTS
                ),
                position: 0,
            });
        }
        let program = nfa::compile(&ast, n_groups, case_insensitive);
        let prefix = if case_insensitive {
            String::new()
        } else {
            literal_prefix(&ast)
        };
        let dfa = if !dfa_covers(&ast) {
            None
        } else if prefix.is_empty() {
            let backwards = nfa::compile(&reversed(&ast), n_groups, case_insensitive);
            Dfa::build(&program, 0, Semantics::LeftmostFirst)
                .zip(Dfa::build(
                    &backwards,
                    nfa::PATTERN_ENTRY,
                    Semantics::Longest,
                ))
                .map(|(forward, reverse)| Accel::Scan {
                    forward,
                    reverse,
                    matches_empty: pike::search(&program, "").is_some(),
                })
        } else {
            Dfa::build(&program, nfa::PATTERN_ENTRY, Semantics::LeftmostFirst)
                .map(|anchored| Accel::Prefixed { anchored })
        };
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
            n_groups,
            prefix,
            dfa,
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

    /// Span of the leftmost match: group 0 of [`Regex::search`], from
    /// the DFA when there is one. With `earliest`, any span that proves
    /// there is a match.
    fn span(&self, text: &str, earliest: bool) -> Option<Span> {
        match &self.dfa {
            None => self.search(text).map(|caps| caps[0].unwrap()),
            Some(Accel::Prefixed { anchored }) => {
                // As `pike::search_prefixed`: the first occurrence the
                // anchored run matches from is the leftmost match.
                let first = self.prefix.chars().next()?.len_utf8();
                let mut from = 0;
                while let Some(off) = text[from..].find(&self.prefix) {
                    let at = from + off;
                    if let Some(end) = anchored.forward(text, at, earliest) {
                        return Some((at, end));
                    }
                    from = at + first;
                }
                None
            }
            Some(Accel::Scan { matches_empty, .. }) if text.is_empty() => {
                matches_empty.then_some((0, 0))
            }
            Some(Accel::Scan {
                forward, reverse, ..
            }) => {
                let end = forward.forward(text, 0, earliest)?;
                if earliest {
                    return Some((end, end));
                }
                let start = reverse
                    .backward(text, end)
                    .expect("a match that ends somewhere starts somewhere");
                Some((start, end))
            }
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
        self.span(text, true).is_some()
    }

    /// Leftmost match span.
    pub fn find(&self, text: &str) -> Option<Span> {
        self.span(text, false)
    }

    /// Leftmost match with capture-group spans. Index 0 is the whole
    /// match; groups that did not participate are `None`.
    pub fn captures(&self, text: &str) -> Option<Vec<Option<Span>>> {
        self.search(text)
    }

    /// Text of capture group `idx` in the leftmost match.
    pub fn extract<'t>(&self, text: &'t str, idx: usize) -> Option<&'t str> {
        let (s, e) = self.extract_span(text, idx)?;
        Some(&text[s..e])
    }

    /// Span of capture group `idx` in the leftmost match: what
    /// [`Regex::extract`] returns, as byte offsets into `text`.
    pub fn extract_span(&self, text: &str, idx: usize) -> Option<Span> {
        if idx == 0 {
            self.find(text)
        } else {
            *self.captures(text)?.get(idx)?
        }
    }

    /// All non-overlapping match spans (leftmost, then continuing after
    /// each match; empty matches advance one char to guarantee progress).
    pub fn find_all(&self, text: &str) -> Vec<Span> {
        let mut out = Vec::new();
        let mut at = 0;
        while at <= text.len() {
            let Some((s, e)) = self.find(&text[at..]) else {
                break;
            };
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

/// Can the DFA stand in for the VM on `ast`? Not with a lazy quantifier
/// or a word boundary in it (the latter is also refused by
/// [`Dfa::build`], which sees the program, not the AST).
fn dfa_covers(ast: &Ast) -> bool {
    match ast {
        Ast::Repeat { greedy: false, .. } | Ast::WordBoundary { .. } => false,
        Ast::Concat(parts) | Ast::Alternate(parts) => parts.iter().all(dfa_covers),
        Ast::Repeat { node, .. } | Ast::Group { node, .. } => dfa_covers(node),
        _ => true,
    }
}

/// The pattern that matches exactly the reversals of what `ast`
/// matches, with `^` and `$` trading places.
fn reversed(ast: &Ast) -> Ast {
    match ast {
        Ast::Concat(parts) => Ast::Concat(parts.iter().rev().map(reversed).collect()),
        Ast::Alternate(branches) => Ast::Alternate(branches.iter().map(reversed).collect()),
        Ast::Repeat {
            node,
            min,
            max,
            greedy,
        } => Ast::Repeat {
            node: Box::new(reversed(node)),
            min: *min,
            max: *max,
            greedy: *greedy,
        },
        Ast::Group { index, node } => Ast::Group {
            index: *index,
            node: Box::new(reversed(node)),
        },
        Ast::AnchorStart => Ast::AnchorEnd,
        Ast::AnchorEnd => Ast::AnchorStart,
        other => other.clone(),
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
    fn counts_and_program_size_are_bounded() {
        assert!(Regex::new("a{1000}").unwrap().is_match(&"a".repeat(1000)));
        let nested = format!("{}a{}", "(".repeat(64), ")".repeat(64));
        assert_eq!(Regex::new(&nested).unwrap().extract("xa", 64), Some("a"));
        for pattern in ["a{1001}", "(a{1000}){1000}", "((a{1000}){1000}){1000}"] {
            assert!(Regex::new(pattern).is_err(), "{pattern}");
        }
        let err = Regex::new("(a{1000}){1000}").unwrap_err();
        assert!(err.message.contains("10000 instructions"), "{err}");
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

    mod determinised {
        use super::*;
        use proptest::prelude::*;

        /// Pattern tails after the literal head, and whether the DFA
        /// must cover them: classes, repetition, alternation, groups,
        /// anchors, nested repetition, multi-byte class members, tails
        /// that re-match the head's own characters — and the shapes
        /// that must stay on the VM (lazy, `\b`/`\B`, over the cap).
        const TAILS: &[(&str, bool)] = &[
            ("", true),
            ("b", true),
            ("[bc]", true),
            ("(b)", true),
            ("[a-c]+", true),
            ("a*b", true),
            ("(a|b)c?", true),
            ("$", true),
            (".", true),
            ("(é|a)+", true),
            ("b{1,2}", true),
            ("a|b", true),
            ("ab|a", true),
            ("a|ab", true),
            ("(a|ab)(c|bcd)?", true),
            ("b|", true),
            ("(a*)*", true),
            ("(a+)+b", true),
            ("(a|b)*a", true),
            ("(ab?)+$", true),
            ("(a{1,2}){2}", true),
            ("[aé]", true),
            ("[^é]", true),
            ("[é-ü]+", true),
            ("[^a]*", true),
            (r"\w+", true),
            (r"\s", true),
            (r"\S+", true),
            (r"[\w-]+\d?", true),
            (r"\W", true),
            ("^a", true),
            ("(^|b)a", true),
            ("a($|b)", true),
            ("^$", true),
            ("$^", true),
            ("(a|b)*a(a|b){3}", true),
            ("a*?", false),
            ("(a|b)+?c", false),
            (r"\b", false),
            (r"\B", false),
            (r"\b ", false),
            (r"[^ ]*\b", false),
            ("(a|b)*a(a|b){9}", false),
        ];

        /// The VM alone, no prefix jump: `pike::search`.
        fn plain(re: &Regex) -> Regex {
            Regex {
                prefix: String::new(),
                dfa: None,
                ..re.clone()
            }
        }

        #[test]
        fn coverage_is_what_the_table_says() {
            for head in ["", "a", "é"] {
                for flags in ["", "(?i)"] {
                    for &(tail, covered) in TAILS {
                        let re = Regex::new(&format!("{flags}{head}{tail}")).unwrap();
                        assert_eq!(re.dfa.is_some(), covered, "{}", re.pattern());
                        let prefixed = matches!(re.dfa, Some(Accel::Prefixed { .. }));
                        assert_eq!(prefixed, covered && !re.prefix.is_empty());
                    }
                }
            }
            // The benchmark's pattern: seven states past the literal.
            let re = Regex::new("http://[a-z./0-9-]+").unwrap();
            match &re.dfa {
                Some(Accel::Prefixed { anchored }) => assert!(anchored.states() <= 12),
                other => panic!("{other:?}"),
            }
        }

        /// One generated pattern tree, rendered: classes, counts,
        /// groups, alternation, anchors, lazy forms and `\b`, at most
        /// four levels deep and counts at most three, so every pattern
        /// is far inside the compiler's caps.
        struct PatternTree;

        impl PatternTree {
            fn node(rng: &mut TestRng, depth: u32) -> String {
                let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
                const LEAVES: &[&str] = &[
                    "a", "b", "é", "A", " ", ".", "[ab]", "[^a]", "[a-cé]", "[^é ]", r"\d", r"\w",
                    r"\s", r"\W", r"[\w-]", "^", "$", r"\b", r"\B", "",
                ];
                const COUNTS: &[&str] = &["*", "+", "?", "{2}", "{0,2}", "{1,3}", "{2,}"];
                let kinds = if depth == 0 { 1 } else { 5 };
                match pick(rng, kinds) {
                    0 => LEAVES[pick(rng, LEAVES.len())].to_string(),
                    1 => (0..2 + pick(rng, 2))
                        .map(|_| Self::node(rng, depth - 1))
                        .collect(),
                    2 => (0..2 + pick(rng, 2))
                        .map(|_| Self::node(rng, depth - 1))
                        .collect::<Vec<_>>()
                        .join("|"),
                    3 => {
                        let open = ["(", "(?:"][pick(rng, 2)];
                        format!("{open}{})", Self::node(rng, depth - 1))
                    }
                    _ => {
                        let lazy = ["", "?"][pick(rng, 2)];
                        let count = COUNTS[pick(rng, COUNTS.len())];
                        format!("(?:{}){count}{lazy}", Self::node(rng, depth - 1))
                    }
                }
            }
        }

        impl Strategy for PatternTree {
            type Value = String;
            fn generate(&self, rng: &mut TestRng) -> String {
                let flags = ["", "(?i)"][(0..2usize).generate(rng)];
                format!("{flags}{}", Self::node(rng, 4))
            }
        }

        /// Pieces of pattern syntax, well-formed or not: soups of them
        /// reach the parser's and compiler's error paths and caps.
        const SOUP: &[&str] = &[
            "(",
            ")",
            "(?:",
            "(?i)",
            "(?",
            "|",
            "*",
            "+",
            "?",
            "*?",
            "{",
            "}",
            "{2}",
            "{1,3}",
            "{3,1}",
            "{1000}",
            "{1001}",
            "{,2}",
            "{99999999999}",
            ",",
            "[",
            "]",
            "[^",
            "-",
            "^",
            "$",
            ".",
            r"\",
            r"\b",
            r"\B",
            r"\d",
            r"\w",
            r"\q",
            "a",
            "é",
            "0",
            "9",
        ];

        /// Compile `pattern`, then search `text` through every entry
        /// point; a panic anywhere is reported with its pattern.
        fn compiles_without_panic(pattern: &str, text: &str) -> Result<(), String> {
            let run = std::panic::catch_unwind(|| {
                if let Ok(re) = Regex::new(pattern) {
                    re.is_match(text);
                    re.find_all(text);
                    re.captures(text);
                    re.extract(text, 1);
                }
            });
            run.map_err(|_| format!("{pattern:?} panicked on {text:?}"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// `Regex::new` returns a regex or a `RegexError` on any
            /// text, and what it returns searches without a panic.
            #[test]
            fn arbitrary_text_compiles_or_errs(pattern in ".{0,24}", text in ".{0,12}") {
                compiles_without_panic(&pattern, &text)?;
            }

            /// The same on soups of metacharacters, counts and groups.
            #[test]
            fn metacharacter_soup_compiles_or_errs(
                pieces in collection::vec(0usize..SOUP.len(), 0..24),
                text in "[aé09 \n]{0,10}",
            ) {
                let pattern: String = pieces.iter().map(|&i| SOUP[i]).collect();
                compiles_without_panic(&pattern, &text)?;
            }

            /// Every entry point answers as the plain Pike search does on
            /// generated pattern trees, over arbitrary text and over
            /// text drawn from the patterns' own alphabet.
            #[test]
            fn generated_patterns_equal_plain_pike_search(
                pattern in PatternTree,
                pick in 0usize..2,
                wild in ".{0,10}",
                tame in "[abAé É_1\n]{0,12}",
            ) {
                let text = if pick == 0 { wild } else { tame };
                let fast = Regex::new(&pattern).map_err(|e| format!("{pattern:?}: {e}"))?;
                let plain = plain(&fast);
                prop_assert_eq!(fast.is_match(&text), plain.is_match(&text));
                prop_assert_eq!(fast.find(&text), plain.find(&text));
                prop_assert_eq!(fast.captures(&text), plain.captures(&text));
                prop_assert_eq!(fast.extract(&text, 0), plain.extract(&text, 0));
                prop_assert_eq!(fast.extract(&text, 1), plain.extract(&text, 1));
                prop_assert_eq!(fast.find_all(&text), plain.find_all(&text));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Every entry point answers as the plain Pike search does,
            /// DFA or prefix jump or both in front of it, on patterns
            /// over a tiny alphabet (so heads occur often and overlap)
            /// and haystacks with multibyte text, case and newlines.
            #[test]
            fn every_entry_point_equals_plain_pike_search(
                flags in 0usize..2,
                head in "[abé]{0,2}",
                tail in 0usize..TAILS.len(),
                text in "[ab]{0,6}[abcABé ÉİK\n]{0,8}",
            ) {
                let flags = ["", "(?i)"][flags];
                let fast = Regex::new(&format!("{flags}{head}{}", TAILS[tail].0)).unwrap();
                let plain = plain(&fast);
                prop_assert_eq!(fast.is_match(&text), plain.is_match(&text));
                prop_assert_eq!(fast.find(&text), plain.find(&text));
                prop_assert_eq!(fast.captures(&text), plain.captures(&text));
                prop_assert_eq!(fast.extract(&text, 0), plain.extract(&text, 0));
                prop_assert_eq!(fast.extract(&text, 1), plain.extract(&text, 1));
                prop_assert_eq!(fast.find_all(&text), plain.find_all(&text));
            }
        }
    }
}
