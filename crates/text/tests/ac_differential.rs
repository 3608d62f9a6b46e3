//! The automaton against the one-needle reference: for every pattern
//! set and haystack, `AhoCorasick` reports pattern `i` exactly when
//! `contains_folded(haystack, fold_needle(pattern_i))` holds.

use proptest::prelude::*;
use tweeql_text::fold::{contains_folded, fold_needle};
use tweeql_text::AhoCorasick;

/// A small alphabet, so that random patterns are duplicates, prefixes,
/// suffixes and substrings of one another and do occur in haystacks.
/// It holds both cases of ASCII letters, the code points whose
/// lowercase expands or leaves its block (U+0130 `İ`, U+212A Kelvin,
/// `ß`, `Σ` with both lowercase sigmas), an accented pair and CJK.
const PATTERN: &str = "[abABkKiIßΣσςéÉ地震\u{0130}\u{212A}]{0,3}";
const HAYSTACK: &str = "[abABkKiIßΣσςéÉ地震\u{0130}\u{212A} ]{0,24}";

fn check(patterns: &[String], haystack: &str) -> Result<(), String> {
    let kept: Vec<String> = patterns
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| fold_needle(p))
        .collect();
    let ac = AhoCorasick::new(patterns);
    prop_assert_eq!(ac.patterns(), kept.as_slice());

    let expected: Vec<usize> = (0..kept.len())
        .filter(|&i| contains_folded(haystack, &kept[i]))
        .collect();
    prop_assert_eq!(ac.matching_patterns(haystack), expected.clone());
    prop_assert_eq!(ac.is_match(haystack), !expected.is_empty());

    let mut sunk = Vec::new();
    ac.scan_into(haystack, &mut |p| sunk.push(p));
    let spans = ac.find_all(haystack);
    prop_assert_eq!(
        spans.iter().map(|m| m.pattern).collect::<Vec<_>>(),
        sunk.clone()
    );
    sunk.sort_unstable();
    sunk.dedup();
    prop_assert_eq!(sunk, expected);
    for m in spans {
        prop_assert!(haystack.is_char_boundary(m.start) && haystack.is_char_boundary(m.end));
        prop_assert_eq!(
            fold_needle(&haystack[m.start..m.end]),
            kept[m.pattern].clone()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn automaton_equals_contains_folded(
        patterns in proptest::collection::vec(PATTERN, 0..8),
        haystack in HAYSTACK,
    ) {
        check(&patterns, &haystack)?;
    }

    /// Arbitrary scalars on both sides, astral planes included.
    #[test]
    fn automaton_equals_contains_folded_any_scalar(
        patterns in proptest::collection::vec(".{0,3}", 0..6),
        haystack in ".{0,60}",
    ) {
        check(&patterns, &haystack)?;
    }

    /// Patterns cut out of the haystack itself always occur.
    #[test]
    fn substrings_of_the_haystack_match(haystack in HAYSTACK, a in 0usize..24, b in 0usize..24) {
        let chars: Vec<char> = haystack.chars().collect();
        let (lo, hi) = (a.min(b).min(chars.len()), a.max(b).min(chars.len()));
        let cut: String = chars[lo..hi].iter().collect();
        check(&[cut, "ab".into(), haystack.clone()], &haystack)?;
    }
}
