//! Regex pattern parser: pattern string → [`Ast`].
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! alternation := concat ('|' concat)*
//! concat      := repeat*
//! repeat      := atom ('*'|'+'|'?'|'{m}'|'{m,}'|'{m,n}') '?'?
//! atom        := literal | '.' | class | '(' alternation ')'
//!              | '(?:' alternation ')' | '^' | '$' | escape
//! ```

use std::fmt;

/// The largest count a `{m,n}` repetition may give, RE2's limit: the
/// compiler emits one copy of the body per count.
pub const MAX_REPEAT: u32 = 1000;

/// The deepest groups may nest: the parser and every pass over the
/// [`Ast`] recurse once a level.
pub const MAX_NEST: usize = 64;

/// Parse error with byte position in the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the pattern.
    pub position: usize,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for RegexError {}

/// One entry in a character class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassItem {
    /// Single character.
    Char(char),
    /// Inclusive range.
    Range(char, char),
    /// `\d` inside a class, etc.
    Digit,
    /// `\w`
    Word,
    /// `\s`
    Space,
}

/// Parsed regex AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Literal(char),
    /// `.` — any character except newline.
    AnyChar,
    /// `[...]` or a `\d`-style shorthand.
    Class {
        /// True for `[^...]`.
        negated: bool,
        /// Members.
        items: Vec<ClassItem>,
    },
    /// Sequence.
    Concat(Vec<Ast>),
    /// `a|b|c`.
    Alternate(Vec<Ast>),
    /// Repetition of the inner node.
    Repeat {
        /// What repeats.
        node: Box<Ast>,
        /// Minimum count.
        min: u32,
        /// Maximum count, `None` = unbounded.
        max: Option<u32>,
        /// Greedy unless followed by `?`.
        greedy: bool,
    },
    /// Capture group `( ... )` with 1-based index, or non-capturing when
    /// `index` is `None`.
    Group {
        /// 1-based capture index (`None` = `(?:...)`).
        index: Option<u32>,
        /// Body.
        node: Box<Ast>,
    },
    /// `^`
    AnchorStart,
    /// `$`
    AnchorEnd,
    /// `\b` (or `\B` when negated) — word boundary assertion.
    WordBoundary {
        /// `\B` form.
        negated: bool,
    },
}

struct Parser<'a> {
    chars: Vec<char>,
    byte_pos: Vec<usize>,
    pos: usize,
    pattern: &'a str,
    next_group: u32,
    /// Groups open around the current position.
    open: usize,
}

/// Parse `pattern`. Returns `(ast, n_capture_groups, case_insensitive)`.
pub fn parse(pattern: &str) -> Result<(Ast, usize, bool), RegexError> {
    let mut case_insensitive = false;
    let mut body = pattern;
    if let Some(rest) = body.strip_prefix("(?i)") {
        case_insensitive = true;
        body = rest;
    }
    let mut byte_pos = Vec::new();
    let mut chars = Vec::new();
    for (i, c) in body.char_indices() {
        byte_pos.push(i + (pattern.len() - body.len()));
        chars.push(c);
    }
    let mut p = Parser {
        chars,
        byte_pos,
        pos: 0,
        pattern,
        next_group: 1,
        open: 0,
    };
    let ast = p.alternation()?;
    if !p.at_end() {
        return Err(p.err("unexpected character (unbalanced ')'?)"));
    }
    Ok((ast, (p.next_group - 1) as usize, case_insensitive))
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, msg: &str) -> RegexError {
        RegexError {
            message: format!("{msg} in pattern {:?}", self.pattern),
            position: self
                .byte_pos
                .get(self.pos)
                .copied()
                .unwrap_or(self.pattern.len()),
        }
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.concat()?];
        while self.eat('|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Ast::Alternate(branches)
        })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().unwrap(),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                // `{` not followed by a count spec is a literal brace.
                match self.try_counted() {
                    Some(r) => r?,
                    None => return Ok(atom),
                }
            }
            _ => return Ok(atom),
        };
        if matches!(
            atom,
            Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty | Ast::WordBoundary { .. }
        ) {
            return Err(self.err("repetition of empty/anchor expression"));
        }
        let greedy = !self.eat('?');
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
            greedy,
        })
    }

    /// Parse `{m}` / `{m,}` / `{m,n}` starting at the current `{`.
    /// Returns None (resetting position) when it isn't a count spec.
    #[allow(clippy::type_complexity)]
    fn try_counted(&mut self) -> Option<Result<(u32, Option<u32>), RegexError>> {
        let start = self.pos;
        self.bump(); // '{'
        let mut min_s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                min_s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if min_s.is_empty() {
            self.pos = start;
            return None;
        }
        let min = match self.count(&min_s) {
            Ok(v) => v,
            Err(e) => return Some(Err(e)),
        };
        if self.eat('}') {
            return Some(Ok((min, Some(min))));
        }
        if !self.eat(',') {
            self.pos = start;
            return None;
        }
        if self.eat('}') {
            return Some(Ok((min, None)));
        }
        let mut max_s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                max_s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if max_s.is_empty() || !self.eat('}') {
            self.pos = start;
            return None;
        }
        let max = match self.count(&max_s) {
            Ok(v) => v,
            Err(e) => return Some(Err(e)),
        };
        if max < min {
            return Some(Err(self.err("repetition {m,n} with n < m")));
        }
        Some(Ok((min, Some(max))))
    }

    /// A repetition count's digits, at most [`MAX_REPEAT`].
    fn count(&self, digits: &str) -> Result<u32, RegexError> {
        let n = digits.parse().ok().filter(|&n| n <= MAX_REPEAT);
        n.ok_or_else(|| self.err(&format!("repetition count above {MAX_REPEAT}")))
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('(') => {
                if self.open == MAX_NEST {
                    return Err(self.err(&format!("groups nest deeper than {MAX_NEST}")));
                }
                self.bump();
                let index = if self.peek() == Some('?') {
                    // Only (?:...) is supported.
                    self.bump();
                    if !self.eat(':') {
                        return Err(self.err("unsupported group flag (only (?:...) is supported)"));
                    }
                    None
                } else {
                    let idx = self.next_group;
                    self.next_group += 1;
                    Some(idx)
                };
                self.open += 1;
                let body = self.alternation()?;
                self.open -= 1;
                if !self.eat(')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(Ast::Group {
                    index,
                    node: Box::new(body),
                })
            }
            Some('[') => self.class(),
            Some('.') => {
                self.bump();
                Ok(Ast::AnyChar)
            }
            Some('^') => {
                self.bump();
                Ok(Ast::AnchorStart)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::AnchorEnd)
            }
            Some('\\') => {
                self.bump();
                self.escape()
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(self.err(&format!("dangling repetition operator '{c}'")))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    fn escape(&mut self) -> Result<Ast, RegexError> {
        let Some(c) = self.bump() else {
            return Err(self.err("trailing backslash"));
        };
        let shorthand = |items: Vec<ClassItem>, negated: bool| Ast::Class { negated, items };
        Ok(match c {
            'd' => shorthand(vec![ClassItem::Digit], false),
            'D' => shorthand(vec![ClassItem::Digit], true),
            'w' => shorthand(vec![ClassItem::Word], false),
            'W' => shorthand(vec![ClassItem::Word], true),
            's' => shorthand(vec![ClassItem::Space], false),
            'S' => shorthand(vec![ClassItem::Space], true),
            'b' => Ast::WordBoundary { negated: false },
            'B' => Ast::WordBoundary { negated: true },
            'n' => Ast::Literal('\n'),
            't' => Ast::Literal('\t'),
            'r' => Ast::Literal('\r'),
            '0' => Ast::Literal('\0'),
            // Any escaped metacharacter (or any other char) is literal.
            other => Ast::Literal(other),
        })
    }

    fn class(&mut self) -> Result<Ast, RegexError> {
        self.bump(); // '['
        let negated = self.eat('^');
        let mut items = Vec::new();
        let mut first = true;
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unclosed character class"));
            };
            if c == ']' && !first {
                self.bump();
                break;
            }
            first = false;
            self.bump();
            let lo = if c == '\\' {
                let Some(e) = self.bump() else {
                    return Err(self.err("trailing backslash in class"));
                };
                match e {
                    'd' => {
                        items.push(ClassItem::Digit);
                        continue;
                    }
                    'w' => {
                        items.push(ClassItem::Word);
                        continue;
                    }
                    's' => {
                        items.push(ClassItem::Space);
                        continue;
                    }
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                }
            } else {
                c
            };
            // Range? `a-z` — but `-` at end of class is a literal.
            if self.peek() == Some('-')
                && self
                    .chars
                    .get(self.pos + 1)
                    .copied()
                    .is_some_and(|n| n != ']')
            {
                self.bump(); // '-'
                let Some(hi_raw) = self.bump() else {
                    return Err(self.err("unclosed character class"));
                };
                let hi = if hi_raw == '\\' {
                    match self.bump() {
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some(other) => other,
                        None => return Err(self.err("trailing backslash in class")),
                    }
                } else {
                    hi_raw
                };
                if hi < lo {
                    return Err(self.err("character class range out of order"));
                }
                items.push(ClassItem::Range(lo, hi));
            } else {
                items.push(ClassItem::Char(lo));
            }
        }
        Ok(Ast::Class { negated, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_sequence() {
        let (ast, n, ci) = parse("ab").unwrap();
        assert_eq!(n, 0);
        assert!(!ci);
        assert_eq!(ast, Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('b')]));
    }

    #[test]
    fn group_numbering() {
        let (_, n, _) = parse("(a)(b(c))").unwrap();
        assert_eq!(n, 3);
        let (_, n, _) = parse("(?:a)(b)").unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn case_flag() {
        let (_, _, ci) = parse("(?i)abc").unwrap();
        assert!(ci);
    }

    #[test]
    fn counted_repetition() {
        let (ast, _, _) = parse("a{2,5}").unwrap();
        match ast {
            Ast::Repeat {
                min, max, greedy, ..
            } => {
                assert_eq!(min, 2);
                assert_eq!(max, Some(5));
                assert!(greedy);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn repetition_counts_stop_at_the_limit() {
        assert!(parse("a{1000}").is_ok());
        assert!(parse("a{0,1000}").is_ok());
        for pattern in ["a{1001}", "a{1,1001}", "a{1001,}", "a{99999999999}"] {
            let err = parse(pattern).unwrap_err();
            assert!(err.message.contains("above 1000"), "{pattern}: {err}");
        }
    }

    #[test]
    fn groups_nest_up_to_the_limit() {
        let nested = |n: usize| format!("{}a{}", "(?:".repeat(n), ")".repeat(n));
        assert!(parse(&nested(MAX_NEST)).is_ok());
        let err = parse(&nested(MAX_NEST + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper than 64"), "{err}");
        assert!(
            parse(&nested(100_000)).is_err(),
            "refused before it recurses"
        );
    }

    #[test]
    fn literal_brace_when_not_count() {
        let (ast, _, _) = parse("a{b}").unwrap();
        // `{` here is literal.
        assert_eq!(
            ast,
            Ast::Concat(vec![
                Ast::Literal('a'),
                Ast::Literal('{'),
                Ast::Literal('b'),
                Ast::Literal('}'),
            ])
        );
    }

    #[test]
    fn lazy_flag() {
        let (ast, _, _) = parse("a+?").unwrap();
        match ast {
            Ast::Repeat { greedy, .. } => assert!(!greedy),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn class_with_ranges_and_trailing_dash() {
        let (ast, _, _) = parse("[a-z0-9_-]").unwrap();
        match ast {
            Ast::Class { negated, items } => {
                assert!(!negated);
                assert_eq!(
                    items,
                    vec![
                        ClassItem::Range('a', 'z'),
                        ClassItem::Range('0', '9'),
                        ClassItem::Char('_'),
                        ClassItem::Char('-'),
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leading_close_bracket_is_literal() {
        let (ast, _, _) = parse("[]a]").unwrap();
        match ast {
            Ast::Class { items, .. } => {
                assert_eq!(items[0], ClassItem::Char(']'));
                assert_eq!(items[1], ClassItem::Char('a'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse("(").is_err());
        assert!(parse(")").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("a{3,1}").is_err());
        assert!(parse("+x").is_err());
        assert!(parse("^*").is_err());
        assert!(parse("(?P<x>a)").is_err());
        assert!(parse("[z-a]").is_err());
    }

    #[test]
    fn error_display_has_position() {
        let e = parse("ab(").unwrap_err();
        assert!(e.to_string().contains("parse error"));
    }
}
