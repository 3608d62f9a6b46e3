//! A tweet-aware tokenizer.
//!
//! Splits tweet text into typed tokens — words, hashtags, mentions,
//! URLs, emoticons, numbers — preserving the pieces downstream features
//! care about (emoticons are the distant-supervision labels for the
//! sentiment classifier; URLs feed the Popular Links panel).

use std::fmt;

/// Category of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Plain word.
    Word,
    /// `#hashtag` (text stored without the `#`).
    Hashtag,
    /// `@mention` (text stored without the `@`).
    Mention,
    /// A URL.
    Url,
    /// Emoticon such as `:)` or `:-(`.
    Emoticon,
    /// Numeric token, including score-like `3-0`.
    Number,
    /// Punctuation run (kept for negation-scope detection).
    Punct,
}

/// One token with its kind and original text span.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// Category.
    pub kind: TokenKind,
    /// Token text. Hashtags/mentions are stored without their sigil;
    /// words are left in original case (normalization is a later pass).
    pub text: String,
    /// Byte offset in the original text.
    pub start: usize,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// One token borrowed from the text it was cut from: what the
/// per-tweet kernels (sentiment scoring, feature extraction) read, so a
/// tweet costs them no `String` per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenRef<'a> {
    /// Category.
    pub kind: TokenKind,
    /// Token text, with the rules of [`Token::text`].
    pub text: &'a str,
    /// Byte offset in the original text.
    pub start: usize,
}

const EMOTICONS: &[&str] = &[
    // Longest first so greedy matching prefers ":-))" over ":-)".
    ":-))", ":'-(", ":'-)", ":-)", ":-(", ":-D", ":-P", ":-/", ":-|", ";-)", ":)", ":(", ":D", ":P",
    ":/", ":|", ";)", ";(", "=)", "=(", "=D", "<3", "D:", "xD", "XD", ":3", "T_T", "^_^", ":,(",
];

/// True if `s` starts with an emoticon; returns its byte length. The
/// list is only walked for the nine bytes an emoticon can start with.
fn emoticon_prefix(s: &str) -> Option<usize> {
    let first = *s.as_bytes().first()?;
    if !matches!(
        first,
        b':' | b';' | b'=' | b'<' | b'D' | b'x' | b'X' | b'T' | b'^'
    ) {
        return None;
    }
    EMOTICONS
        .iter()
        .find(|e| e.as_bytes()[0] == first && s.starts_with(**e))
        .map(|e| e.len())
}

fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// The char at byte `i` of `text` (a char boundary inside the text).
#[inline]
fn char_at(text: &str, i: usize) -> char {
    let b = text.as_bytes()[i];
    if b < 0x80 {
        b as char
    } else {
        text[i..].chars().next().expect("i is inside the text")
    }
}

/// End of the run of chars satisfying `keep` that starts at byte `i`.
#[inline]
fn run_end(text: &str, mut i: usize, keep: impl Fn(char) -> bool) -> usize {
    while i < text.len() {
        let c = char_at(text, i);
        if !keep(c) {
            break;
        }
        i += c.len_utf8();
    }
    i
}

/// Borrowed-token iterator over tweet text; see [`tokens`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    text: &'a str,
    pos: usize,
}

/// Tokenize tweet text without allocating: each token borrows its text
/// from `text`.
///
/// ```
/// use tweeql_text::tokenize::{tokens, TokenKind};
/// let kinds: Vec<_> = tokens("GOAL!! 3-0 #mcfc :) http://t.co/x @fan")
///     .map(|t| t.kind)
///     .collect();
/// assert_eq!(kinds, vec![
///     TokenKind::Word, TokenKind::Punct, TokenKind::Number,
///     TokenKind::Hashtag, TokenKind::Emoticon, TokenKind::Url,
///     TokenKind::Mention,
/// ]);
/// ```
pub fn tokens(text: &str) -> Tokens<'_> {
    Tokens { text, pos: 0 }
}

impl<'a> Tokens<'a> {
    /// The token `text[from..to]` starting at the cursor; the cursor
    /// moves to `to`.
    fn emit(&mut self, kind: TokenKind, from: usize, to: usize) -> TokenRef<'a> {
        let start = self.pos;
        self.pos = to;
        TokenRef {
            kind,
            text: &self.text[from..to],
            start,
        }
    }

    /// The URL starting at `i` (which starts `http://` or `https://`),
    /// without trailing sentence punctuation; `None` when nothing
    /// follows the scheme.
    fn url_end(&self, i: usize) -> Option<usize> {
        let text = self.text;
        let mut end = run_end(text, i, |c| !c.is_whitespace());
        while let Some(last) = text[i..end].chars().next_back() {
            if matches!(last, '.' | ',' | ';' | ':' | '!' | '?' | ')') {
                end -= last.len_utf8();
            } else {
                break;
            }
        }
        (end - i > "http://".len()).then_some(end)
    }

    /// End of the numeric token starting at `i` (digits with at most
    /// one `-`/`.`/`:` that a digit follows: `3-0`, `4.5`, `90:00`);
    /// `None` when a letter follows, which makes it part of a word.
    fn number_end(&self, i: usize) -> Option<usize> {
        let bytes = self.text.as_bytes();
        let mut end = i;
        let mut seen_sep = false;
        while let Some(&b) = bytes.get(end) {
            let digit_follows = bytes.get(end + 1).is_some_and(u8::is_ascii_digit);
            if b.is_ascii_digit() {
                end += 1;
            } else if matches!(b, b'-' | b'.' | b':') && !seen_sep && digit_follows {
                seen_sep = true;
                end += 1;
            } else {
                break;
            }
        }
        let letter_follows = end < bytes.len() && char_at(self.text, end).is_alphabetic();
        (!letter_follows).then_some(end)
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = TokenRef<'a>;

    fn next(&mut self) -> Option<TokenRef<'a>> {
        let text = self.text;
        self.pos = run_end(text, self.pos, char::is_whitespace);
        let i = self.pos;
        if i >= text.len() {
            return None;
        }
        let rest = &text[i..];
        let c = char_at(text, i);

        // URLs.
        if c == 'h' && (rest.starts_with("http://") || rest.starts_with("https://")) {
            if let Some(end) = self.url_end(i) {
                return Some(self.emit(TokenKind::Url, i, end));
            }
        }

        // Emoticons (before punctuation so ":)" isn't split).
        if let Some(len) = emoticon_prefix(rest) {
            // Guard: "xD" must not fire inside a word like "xDSL".
            let standalone = !rest[len..].chars().next().is_some_and(is_word_char);
            let at_boundary = !text[..i].chars().next_back().is_some_and(is_word_char);
            if standalone && at_boundary {
                return Some(self.emit(TokenKind::Emoticon, i, i + len));
            }
        }

        // Hashtags / mentions (stored without the sigil; a hashtag of
        // digits only, `#123`, is punctuation and a number).
        if c == '#' || c == '@' {
            let end = run_end(text, i + 1, is_word_char);
            let body = &text[i + 1..end];
            if !body.is_empty() && (c == '@' || !body.bytes().all(|b| b.is_ascii_digit())) {
                let kind = if c == '#' {
                    TokenKind::Hashtag
                } else {
                    TokenKind::Mention
                };
                return Some(self.emit(kind, i + 1, end));
            }
        }

        // Numbers, including score-like 3-0 and decimals 4.5; a number
        // a letter follows ("3rd") is left to the word path.
        if c.is_ascii_digit() {
            if let Some(end) = self.number_end(i) {
                return Some(self.emit(TokenKind::Number, i, end));
            }
        }

        let (kind, end) = if is_word_char(c) {
            (TokenKind::Word, run_end(text, i, is_word_char))
        } else {
            // Punctuation run of the same character (e.g. "!!", "...").
            (TokenKind::Punct, run_end(text, i, |cc| cc == c))
        };
        Some(self.emit(kind, i, end))
    }
}

/// Tokenize tweet text into owned tokens: [`tokens`], collected.
///
/// ```
/// use tweeql_text::{tokenize, TokenKind};
/// let toks = tokenize("GOAL!! 3-0 #mcfc :) http://t.co/x @fan");
/// assert_eq!(toks[3].kind, TokenKind::Hashtag);
/// assert_eq!(toks[3].text, "mcfc");
/// ```
pub fn tokenize(text: &str) -> Vec<Token> {
    tokens(text)
        .map(|t| Token {
            kind: t.kind,
            text: t.text.to_string(),
            start: t.start,
        })
        .collect()
}

/// Just the word-like token texts (words, hashtags, numbers), lowercased —
/// the feature stream for TF-IDF and similarity.
pub fn word_tokens(text: &str) -> Vec<String> {
    tokens(text)
        .filter(|t| {
            matches!(
                t.kind,
                TokenKind::Word | TokenKind::Hashtag | TokenKind::Number
            )
        })
        .map(|t| t.text.to_lowercase())
        .collect()
}

/// The tokenizer [`tokens`] replaced — one `String` per token, every
/// emoticon tried at every token start — kept as the reference the
/// borrowed iterator is compared against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{is_word_char, Token, TokenKind, EMOTICONS};

    fn emoticon_prefix(s: &str) -> Option<usize> {
        EMOTICONS
            .iter()
            .find(|e| s.starts_with(**e))
            .map(|e| e.len())
    }

    pub fn tokenize(text: &str) -> Vec<Token> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < text.len() {
            let rest = &text[i..];
            let c = rest.chars().next().unwrap();

            if c.is_whitespace() {
                i += c.len_utf8();
                continue;
            }

            // URLs.
            if rest.starts_with("http://") || rest.starts_with("https://") {
                let mut end = i;
                for (j, cc) in rest.char_indices() {
                    if cc.is_whitespace() {
                        break;
                    }
                    end = i + j + cc.len_utf8();
                }
                // Trim trailing sentence punctuation.
                let mut url = &text[i..end];
                while let Some(last) = url.chars().last() {
                    if matches!(last, '.' | ',' | ';' | ':' | '!' | '?' | ')') {
                        url = &url[..url.len() - last.len_utf8()];
                    } else {
                        break;
                    }
                }
                if url.len() > "http://".len() {
                    out.push(Token {
                        kind: TokenKind::Url,
                        text: url.to_string(),
                        start: i,
                    });
                    i += url.len();
                    continue;
                }
            }

            // Emoticons (before punctuation so ":)" isn't split).
            if let Some(len) = emoticon_prefix(rest) {
                // Guard: "xD" must not fire inside a word like "xDSL".
                let standalone = !rest[len..]
                    .chars()
                    .next()
                    .map(is_word_char)
                    .unwrap_or(false);
                let at_boundary = i == 0 || !is_word_char(text[..i].chars().last().unwrap());
                if standalone && at_boundary {
                    out.push(Token {
                        kind: TokenKind::Emoticon,
                        text: rest[..len].to_string(),
                        start: i,
                    });
                    i += len;
                    continue;
                }
            }

            // Hashtags / mentions.
            if (c == '#' || c == '@') && rest.len() > 1 {
                let body: String = rest[1..]
                    .chars()
                    .take_while(|&cc| is_word_char(cc))
                    .collect();
                if !body.is_empty() && (c == '@' || body.chars().any(|cc| !cc.is_ascii_digit())) {
                    out.push(Token {
                        kind: if c == '#' {
                            TokenKind::Hashtag
                        } else {
                            TokenKind::Mention
                        },
                        text: body.clone(),
                        start: i,
                    });
                    i += 1 + body.len();
                    continue;
                }
            }

            // Numbers, including score-like 3-0 and decimals 4.5.
            if c.is_ascii_digit() {
                let mut end = i;
                let mut seen_sep = false;
                for (j, cc) in rest.char_indices() {
                    if cc.is_ascii_digit() {
                        end = i + j + 1;
                    } else if (cc == '-' || cc == '.' || cc == ':') && !seen_sep {
                        // Only keep the separator if a digit follows.
                        if rest[j + 1..].chars().next().map(|d| d.is_ascii_digit()) == Some(true) {
                            seen_sep = true;
                            end = i + j + 1;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                // Reject if embedded in a word (e.g. "mp3player" handled by word path).
                let tail_ok = !text[end..]
                    .chars()
                    .next()
                    .map(|cc| cc.is_alphabetic())
                    .unwrap_or(false);
                if tail_ok {
                    out.push(Token {
                        kind: TokenKind::Number,
                        text: text[i..end].to_string(),
                        start: i,
                    });
                    i = end;
                    continue;
                }
            }

            // Words.
            if is_word_char(c) {
                let mut end = i;
                for (j, cc) in rest.char_indices() {
                    if is_word_char(cc) {
                        end = i + j + cc.len_utf8();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Word,
                    text: text[i..end].to_string(),
                    start: i,
                });
                i = end;
                continue;
            }

            // Punctuation run of the same character (e.g. "!!", "...").
            let mut end = i + c.len_utf8();
            for cc in text[end..].chars() {
                if cc == c {
                    end += cc.len_utf8();
                } else {
                    break;
                }
            }
            out.push(Token {
                kind: TokenKind::Punct,
                text: text[i..end].to_string(),
                start: i,
            });
            i = end;
        }
        out
    }

    /// Tweet-shaped pieces: words in three scripts, elongations,
    /// every emoticon family glued and unglued, URL schemes at their
    /// edge lengths, digit-only hashtags, scores, sigils alone.
    pub(crate) const PIECES: &[&str] = &[
        "goal",
        "GOOOAL",
        "don't",
        "xDSL",
        "xD",
        "D:",
        "T_T",
        "^_^",
        ":-))",
        ":-)",
        ":'-(",
        ":,(",
        "<3",
        "=D",
        ";)",
        ":",
        ";",
        "=",
        "<",
        "^",
        "http://",
        "https://",
        "http://a",
        "https://t.co/x",
        "http://t.co/abc,",
        "http://.",
        "https://!)",
        "http:/",
        "h",
        "#mcfc",
        "#123",
        "#1a",
        "#",
        "@fan",
        "@",
        "@9",
        "3-0",
        "3-",
        "4.5",
        "90:00",
        "1-2-3",
        "3rd",
        "mp3player",
        "7",
        "!!",
        "...",
        "?",
        ".",
        ",",
        "(",
        ")",
        "日本",
        "#地震",
        "é",
        "İ",
        "ß",
        "_",
        "'",
        " ",
        " ",
        "\n",
        "\t",
        "\u{a0}",
        "\u{3000}",
    ];

    /// The pieces drawn, each followed by a space unless glued.
    pub(crate) fn tweet(parts: &[(usize, u8)]) -> String {
        let mut s = String::new();
        for &(i, glue) in parts {
            s.push_str(PIECES[i % PIECES.len()]);
            if glue == 0 {
                s.push(' ');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind> {
        tokenize(s).into_iter().map(|t| t.kind).collect()
    }

    fn texts(s: &str) -> Vec<String> {
        tokenize(s).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn words_and_punct() {
        assert_eq!(
            kinds("hello world!"),
            vec![TokenKind::Word, TokenKind::Word, TokenKind::Punct]
        );
        assert_eq!(texts("wow!!!"), vec!["wow", "!!!"]);
    }

    #[test]
    fn hashtags_mentions() {
        let toks = tokenize("#mcfc @marcua");
        assert_eq!(toks[0].kind, TokenKind::Hashtag);
        assert_eq!(toks[0].text, "mcfc");
        assert_eq!(toks[1].kind, TokenKind::Mention);
        assert_eq!(toks[1].text, "marcua");
    }

    #[test]
    fn urls_trim_trailing_punctuation() {
        let toks = tokenize("see http://t.co/abc, wow");
        assert_eq!(toks[1].kind, TokenKind::Url);
        assert_eq!(toks[1].text, "http://t.co/abc");
    }

    #[test]
    fn emoticons_detected() {
        let toks = tokenize("great game :) but sad :( end");
        let emos: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Emoticon)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(emos, vec![":)", ":("]);
    }

    #[test]
    fn emoticon_not_inside_word() {
        // "xD" inside "xDSL" must not be an emoticon.
        let toks = tokenize("xDSL modem");
        assert!(toks.iter().all(|t| t.kind != TokenKind::Emoticon));
        // Standalone xD is.
        let toks = tokenize("haha xD");
        assert_eq!(toks[1].kind, TokenKind::Emoticon);
    }

    #[test]
    fn scores_are_single_number_tokens() {
        let toks = tokenize("3-0 to city");
        assert_eq!(toks[0].kind, TokenKind::Number);
        assert_eq!(toks[0].text, "3-0");
    }

    #[test]
    fn decimals_and_times() {
        assert_eq!(texts("4.5 magnitude")[0], "4.5");
        assert_eq!(texts("90:00 minute")[0], "90:00");
    }

    #[test]
    fn trailing_hyphen_not_in_number() {
        let toks = tokenize("3- nope");
        assert_eq!(toks[0].text, "3");
        assert_eq!(toks[1].kind, TokenKind::Punct);
    }

    #[test]
    fn apostrophes_stay_in_words() {
        assert_eq!(texts("don't stop")[0], "don't");
    }

    #[test]
    fn unicode_words() {
        let toks = tokenize("日本 地震 #地震");
        assert_eq!(toks[0].kind, TokenKind::Word);
        assert_eq!(toks[2].kind, TokenKind::Hashtag);
        assert_eq!(toks[2].text, "地震");
    }

    #[test]
    fn word_tokens_lowercases_and_filters() {
        assert_eq!(
            word_tokens("GOAL!! Tevez #MCFC :) http://t.co/x"),
            vec!["goal", "tevez", "mcfc"]
        );
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks = tokenize("ab #cd");
        assert_eq!(toks[0].start, 0);
        assert_eq!(toks[1].start, 3);
    }

    #[test]
    fn heart_emoticon() {
        let toks = tokenize("i <3 this");
        assert_eq!(toks[1].kind, TokenKind::Emoticon);
        assert_eq!(toks[1].text, "<3");
    }

    mod borrowed {
        use super::oracle::{tweet, PIECES};
        use super::*;
        use proptest::prelude::*;

        fn check(text: &str) -> Result<(), String> {
            let owned = oracle::tokenize(text);
            let borrowed: Vec<(TokenKind, String, usize)> = tokens(text)
                .map(|t| (t.kind, t.text.to_string(), t.start))
                .collect();
            let expected: Vec<(TokenKind, String, usize)> = owned
                .iter()
                .map(|t| (t.kind, t.text.clone(), t.start))
                .collect();
            prop_assert_eq!(borrowed, expected);
            prop_assert_eq!(tokenize(text), owned);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn borrowed_tokens_equal_owned_tokens_on_tweet_shapes(
                parts in collection::vec((0usize..PIECES.len(), 0u8..2), 0..12),
            ) {
                check(&tweet(&parts))?;
            }

            #[test]
            fn borrowed_tokens_equal_owned_tokens_on_any_text(text in ".{0,80}") {
                check(&text)?;
            }
        }
    }
}
