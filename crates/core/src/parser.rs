//! Recursive-descent parser: token stream → [`SelectStmt`].
//!
//! Every expression the parser builds carries the [`Span`] of the source
//! bytes it was parsed from, so later passes (the [`crate::check`]
//! analyzer in particular) can render caret-underlined diagnostics
//! pointing at the exact fragment.
//!
//! The expression trees it builds are at most [`MAX_DEPTH`] levels
//! deep: the checker, the rewrite rules and VM lowering all recurse
//! over them, on a session thread's default stack.

use crate::ast::*;
use crate::error::QueryError;
use crate::lexer::{lex, SpannedTok, Tok};
use tweeql_geo::BoundingBox;
use tweeql_model::{Duration, Value};

/// Words that cannot be used as bare column references.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "window", "limit", "as", "and", "or", "not", "in",
    "is", "null", "join", "on",
];

/// The deepest expression the parser builds, counting one level per
/// parenthesis (a call's included), unary operator and binary
/// operator. A deeper one is a parse error at the token past the cap.
/// A query at the cap registers and runs on a 2 MiB thread in a debug
/// build, where 100 levels fit and 128 overflow the stack: nested
/// parentheses while parsing, a long operator chain in the passes
/// after.
pub const MAX_DEPTH: usize = 64;

/// Parse one TweeQL statement.
pub fn parse(input: &str) -> Result<SelectStmt, QueryError> {
    let mut p = Parser::new(lex(input)?);
    let stmt = p.select_stmt()?;
    p.eat_tok(&Tok::Semi); // optional trailing ;
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse just an expression (used by tests and the REPL's EXPLAIN).
pub fn parse_expr(input: &str) -> Result<Expr, QueryError> {
    let mut p = Parser::new(lex(input)?);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// End offset of the most recently consumed token.
    last_end: usize,
    /// Parentheses and unary operators open around the current token.
    opened: usize,
    /// Levels of the expression the last expression method returned.
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<SpannedTok>) -> Parser {
        Parser {
            toks,
            pos: 0,
            last_end: 0,
            opened: 0,
            depth: 0,
        }
    }

    /// Open a parenthesis or unary operator at `pos`: refused past
    /// [`MAX_DEPTH`], before the parser recurses any deeper.
    fn open(&mut self, pos: usize) -> Result<(), QueryError> {
        self.opened += 1;
        Self::within_cap(self.opened, pos)
    }

    /// Close what [`Parser::open`] opened at `pos` around `e`.
    fn close(&mut self, e: Expr, pos: usize) -> Result<Expr, QueryError> {
        self.opened -= 1;
        self.level(e, self.depth, pos)
    }

    /// `e` (an operator at `pos`, or a parenthesis), one level above
    /// its deepest operand, `below` levels deep.
    fn level(&mut self, e: Expr, below: usize, pos: usize) -> Result<Expr, QueryError> {
        self.depth = below + 1;
        Self::within_cap(self.depth, pos)?;
        Ok(e)
    }

    fn within_cap(depth: usize, pos: usize) -> Result<(), QueryError> {
        if depth > MAX_DEPTH {
            return Err(QueryError::parse(
                format!("expression nests deeper than {MAX_DEPTH} levels"),
                pos,
            ));
        }
        Ok(())
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_pos(&self) -> usize {
        self.toks[self.pos].pos
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span()
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        self.last_end = self.toks[self.pos].end;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Span from `start` through the last consumed token.
    fn span_from(&self, start: usize) -> Span {
        Span::new(start, self.last_end.max(start))
    }

    fn eat_tok(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consume an identifier equal to `kw` (keywords are contextual).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(QueryError::parse(
                format!("expected {}, found {}", kw.to_uppercase(), self.peek()),
                self.peek_pos(),
            ))
        }
    }

    fn expect_tok(&mut self, t: Tok) -> Result<(), QueryError> {
        if self.eat_tok(&t) {
            Ok(())
        } else {
            Err(QueryError::parse(
                format!("expected {t}, found {}", self.peek()),
                self.peek_pos(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, QueryError> {
        Ok(self.expect_ident_spanned()?.0)
    }

    fn expect_ident_spanned(&mut self) -> Result<(String, Span), QueryError> {
        let span = self.peek_span();
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok((s, span))
            }
            other => Err(QueryError::parse(
                format!("expected identifier, found {other}"),
                self.peek_pos(),
            )),
        }
    }

    fn expect_eof(&mut self) -> Result<(), QueryError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            Err(QueryError::parse(
                format!("unexpected trailing input: {}", self.peek()),
                self.peek_pos(),
            ))
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt, QueryError> {
        self.expect_kw("select")?;
        let select = self.select_list()?;
        self.expect_kw("from")?;
        let (from, from_span) = self.expect_ident_spanned()?;

        let join = if self.eat_kw("join") {
            let stream = self.expect_ident()?;
            self.expect_kw("on")?;
            let (lq, lcol) = self.qualified_name()?;
            self.expect_tok(Tok::Eq)?;
            let (rq, rcol) = self.qualified_name()?;
            // Qualifiers, when given, decide sides; else positional.
            let (left_col, right_col) = match (lq.as_deref(), rq.as_deref()) {
                (Some(q), _) if q == stream => (rcol, lcol),
                _ => (lcol, rcol),
            };
            Some(JoinClause {
                stream,
                left_col,
                right_col,
            })
        } else {
            None
        };

        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        let mut group_by_spans = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                let (name, span) = self.expect_ident_spanned()?;
                group_by.push(name);
                group_by_spans.push(span);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };

        let window_start = self.peek_pos();
        let window = if self.eat_kw("window") {
            Some(self.window_spec()?)
        } else {
            None
        };
        let window_span = if window.is_some() {
            self.span_from(window_start)
        } else {
            Span::DUMMY
        };

        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(QueryError::parse(
                        format!("LIMIT wants a nonnegative integer, found {other}"),
                        self.peek_pos(),
                    ))
                }
            }
        } else {
            None
        };

        Ok(SelectStmt {
            select,
            from,
            from_span,
            join,
            where_clause,
            group_by,
            group_by_spans,
            having,
            window,
            window_span,
            limit,
        })
    }

    fn qualified_name(&mut self) -> Result<(Option<String>, String), QueryError> {
        let first = self.expect_ident()?;
        if self.eat_tok(&Tok::Dot) {
            let second = self.expect_ident()?;
            Ok((Some(first), second))
        } else {
            Ok((None, first))
        }
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, QueryError> {
        let mut items = Vec::new();
        loop {
            if self.eat_tok(&Tok::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn window_spec(&mut self) -> Result<WindowSpec, QueryError> {
        if self.eat_kw("confidence") {
            let epsilon = match self.bump() {
                Tok::Float(f) => f,
                Tok::Int(i) => i as f64,
                other => {
                    return Err(QueryError::parse(
                        format!("WINDOW CONFIDENCE wants a number, found {other}"),
                        self.peek_pos(),
                    ))
                }
            };
            let max_age = if self.eat_kw("max") {
                Some(self.duration()?)
            } else {
                None
            };
            return Ok(WindowSpec::Confidence { epsilon, max_age });
        }
        let n = match self.bump() {
            Tok::Int(n) if n > 0 => n,
            other => {
                return Err(QueryError::parse(
                    format!("WINDOW wants a positive count, found {other}"),
                    self.peek_pos(),
                ))
            }
        };
        let unit = self.expect_ident()?;
        if unit == "tuples" || unit == "tuple" || unit == "rows" {
            return Ok(WindowSpec::Count(n as u64));
        }
        let d = Duration::parse(&format!("{n} {unit}"))
            .map_err(|e| QueryError::parse(e.to_string(), self.peek_pos()))?;
        if self.eat_kw("slide") {
            let slide = self.duration()?;
            if slide.millis() <= 0 || slide > d {
                return Err(QueryError::parse(
                    "SLIDE must be positive and no longer than the window",
                    self.peek_pos(),
                ));
            }
            return Ok(WindowSpec::Sliding { size: d, slide });
        }
        Ok(WindowSpec::Time(d))
    }

    fn duration(&mut self) -> Result<Duration, QueryError> {
        let n = match self.bump() {
            Tok::Int(n) if n > 0 => n,
            other => {
                return Err(QueryError::parse(
                    format!("expected duration count, found {other}"),
                    self.peek_pos(),
                ))
            }
        };
        let unit = self.expect_ident()?;
        Duration::parse(&format!("{n} {unit}"))
            .map_err(|e| QueryError::parse(e.to_string(), self.peek_pos()))
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, QueryError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, QueryError> {
        self.chain(Self::and_expr, |p| p.eat_kw("or").then_some(BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<Expr, QueryError> {
        self.chain(Self::not_expr, |p| p.eat_kw("and").then_some(BinOp::And))
    }

    /// A left-deep chain of `operand`s joined by the operators `op`
    /// eats, one level each.
    fn chain(
        &mut self,
        operand: fn(&mut Parser) -> Result<Expr, QueryError>,
        op: fn(&mut Parser) -> Option<BinOp>,
    ) -> Result<Expr, QueryError> {
        let mut left = operand(self)?;
        loop {
            let pos = self.peek_pos();
            let Some(op) = op(self) else {
                return Ok(left);
            };
            let below = self.depth;
            let right = operand(self)?;
            let e = Expr::binary(op, left, right);
            left = self.level(e, below.max(self.depth), pos)?;
        }
    }

    /// Eat the next token if `ops` names it, giving its operator.
    fn eat_op(&mut self, ops: &[(Tok, BinOp)]) -> Option<BinOp> {
        let &(_, op) = ops.iter().find(|(t, _)| t == self.peek())?;
        self.bump();
        Some(op)
    }

    fn not_expr(&mut self) -> Result<Expr, QueryError> {
        let start = self.peek_pos();
        if self.eat_kw("not") {
            self.open(start)?;
            let inner = self.not_expr()?;
            let span = Span::new(start, inner.span.end.max(start));
            self.close(Expr::not(inner).with_span(span), start)
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, QueryError> {
        let left = self.additive()?;
        let below = self.depth;
        let pos = self.peek_pos();
        let op = match self.peek() {
            Tok::Eq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.additive()?;
            let e = Expr::binary(op, left, right);
            return self.level(e, below.max(self.depth), pos);
        }
        if self.eat_kw("contains") {
            let pattern = self.additive()?;
            let e = Expr::contains(left, pattern);
            return self.level(e, below.max(self.depth), pos);
        }
        if self.eat_kw("matches") {
            let pat_pos = self.peek_pos();
            match self.bump() {
                Tok::Str(pat) => {
                    let span = Span::new(left.span.start, self.last_end);
                    return self.level(Expr::matches(left, pat).with_span(span), below, pos);
                }
                other => {
                    return Err(QueryError::parse(
                        format!("MATCHES wants a string pattern, found {other}"),
                        pat_pos,
                    ))
                }
            }
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let span = Span::new(left.span.start, self.last_end);
            return self.level(Expr::is_null(left, negated).with_span(span), below, pos);
        }
        let negated_in = {
            // `NOT IN` is handled by not_expr for prefix NOT; support the
            // infix form too.
            if matches!(self.peek(), Tok::Ident(s) if s == "not")
                && matches!(self.toks.get(self.pos + 1).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "in")
            {
                self.bump();
                true
            } else {
                false
            }
        };
        if self.eat_kw("in") {
            let e = self.in_rhs(left)?;
            return if negated_in {
                let span = e.span;
                self.level(Expr::not(e).with_span(span), below + 1, pos)
            } else {
                self.level(e, below, pos)
            };
        } else if negated_in {
            return Err(QueryError::parse("expected IN after NOT", self.peek_pos()));
        }
        Ok(left)
    }

    fn in_rhs(&mut self, left: Expr) -> Result<Expr, QueryError> {
        let bracket_start = self.peek_pos();
        if self.eat_tok(&Tok::LBracket) {
            // [bounding box for <name...>]
            self.expect_kw("bounding")?;
            self.expect_kw("box")?;
            self.expect_kw("for")?;
            let mut words = Vec::new();
            while let Tok::Ident(s) = self.peek() {
                words.push(s.clone());
                self.bump();
            }
            let pos = self.peek_pos();
            self.expect_tok(Tok::RBracket)?;
            let name = words.join(" ");
            let bbox = BoundingBox::named(&name)
                .ok_or_else(|| QueryError::parse(format!("unknown bounding box {name:?}"), pos))?;
            // The paper writes `location in [...]`; any left expression
            // is accepted but only the tweet's coordinates are tested.
            let span = Span::new(left.span.start.min(bracket_start), self.last_end);
            let _ = left;
            Ok(Expr::new(ExprKind::InBoundingBox { bbox, name }, span))
        } else {
            self.expect_tok(Tok::LParen)?;
            let mut list = Vec::new();
            loop {
                let pos = self.peek_pos();
                let v = match self.bump() {
                    Tok::Int(i) => Value::Int(i),
                    Tok::Float(f) => Value::Float(f),
                    Tok::Str(s) => Value::Str(s.into()),
                    Tok::Ident(s) if s == "null" => Value::Null,
                    Tok::Ident(s) if s == "true" => Value::Bool(true),
                    Tok::Ident(s) if s == "false" => Value::Bool(false),
                    Tok::Minus => match self.bump() {
                        Tok::Int(i) => Value::Int(-i),
                        Tok::Float(f) => Value::Float(-f),
                        other => {
                            return Err(QueryError::parse(
                                format!("bad literal in IN list: -{other}"),
                                pos,
                            ))
                        }
                    },
                    other => {
                        return Err(QueryError::parse(
                            format!("IN list wants literals, found {other}"),
                            pos,
                        ))
                    }
                };
                list.push(v);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(Tok::RParen)?;
            let span = Span::new(left.span.start, self.last_end);
            Ok(Expr::in_list(left, list).with_span(span))
        }
    }

    fn additive(&mut self) -> Result<Expr, QueryError> {
        let ops = |p: &mut Parser| p.eat_op(&[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)]);
        self.chain(Self::multiplicative, ops)
    }

    fn multiplicative(&mut self) -> Result<Expr, QueryError> {
        self.chain(Self::unary, |p| {
            p.eat_op(&[
                (Tok::Star, BinOp::Mul),
                (Tok::Slash, BinOp::Div),
                (Tok::Percent, BinOp::Mod),
            ])
        })
    }

    fn unary(&mut self) -> Result<Expr, QueryError> {
        let start = self.peek_pos();
        if self.eat_tok(&Tok::Minus) {
            self.open(start)?;
            let inner = self.unary()?;
            let span = Span::new(start, inner.span.end.max(start));
            self.close(Expr::neg(inner).with_span(span), start)
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, QueryError> {
        let pos = self.peek_pos();
        let tok_span = self.peek_span();
        // A leaf; a parenthesis or call sets the depth it closes at.
        self.depth = 0;
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::lit(i).with_span(tok_span))
            }
            Tok::Float(f) => {
                self.bump();
                Ok(Expr::lit(f).with_span(tok_span))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::lit(s).with_span(tok_span))
            }
            Tok::LParen => {
                self.bump();
                self.open(pos)?;
                let e = self.expr()?;
                self.expect_tok(Tok::RParen)?;
                self.close(e, pos)
            }
            Tok::Ident(name) => {
                if name == "null" {
                    self.bump();
                    return Ok(Expr::dummy(ExprKind::Literal(Value::Null)).with_span(tok_span));
                }
                if name == "true" {
                    self.bump();
                    return Ok(Expr::lit(true).with_span(tok_span));
                }
                if name == "false" {
                    self.bump();
                    return Ok(Expr::lit(false).with_span(tok_span));
                }
                if RESERVED.contains(&name.as_str()) {
                    return Err(QueryError::parse(
                        format!("expected expression, found keyword {}", name.to_uppercase()),
                        pos,
                    ));
                }
                self.bump();
                // Function call?
                if self.eat_tok(&Tok::LParen) {
                    self.open(pos)?;
                    // COUNT(*) / COUNT(DISTINCT expr) special cases.
                    if name == "count" && self.eat_tok(&Tok::Star) {
                        self.expect_tok(Tok::RParen)?;
                        let e = Expr::call("count", vec![]).with_span(self.span_from(pos));
                        return self.close(e, pos);
                    }
                    if name == "count" && self.eat_kw("distinct") {
                        let arg = self.expr()?;
                        self.expect_tok(Tok::RParen)?;
                        let e = Expr::call("count_distinct", vec![arg]);
                        return self.close(e.with_span(self.span_from(pos)), pos);
                    }
                    let mut args = Vec::new();
                    let mut below = 0;
                    if !self.eat_tok(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            below = below.max(self.depth);
                            if !self.eat_tok(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect_tok(Tok::RParen)?;
                    }
                    self.depth = below;
                    let e = Expr::new(ExprKind::Call { name, args }, self.span_from(pos));
                    return self.close(e, pos);
                }
                // Qualified column?
                if self.eat_tok(&Tok::Dot) {
                    let col = self.expect_ident()?;
                    return Ok(Expr::new(
                        ExprKind::Column {
                            qualifier: Some(name),
                            name: col,
                        },
                        self.span_from(pos),
                    ));
                }
                Ok(Expr::col(&name).with_span(tok_span))
            }
            other => Err(QueryError::parse(
                format!("expected expression, found {other}"),
                pos,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_one() {
        // SELECT sentiment(text), latitude(loc), longitude(loc)
        // FROM twitter WHERE text contains 'obama';
        let s = parse(
            "SELECT sentiment(text), latitude(loc), longitude(loc) \
             FROM twitter WHERE text contains 'obama';",
        )
        .unwrap();
        assert_eq!(s.from, "twitter");
        assert_eq!(s.select.len(), 3);
        match &s.select[0] {
            SelectItem::Expr { expr, alias } => {
                assert!(alias.is_none());
                assert_eq!(expr, &Expr::call("sentiment", vec![Expr::col("text")]));
            }
            other => panic!("{other:?}"),
        }
        match s.where_clause.unwrap().kind {
            ExprKind::Contains { expr, pattern } => {
                assert_eq!(*expr, Expr::col("text"));
                assert_eq!(*pattern, Expr::lit("obama"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_example_two_bounding_box() {
        let s = parse(
            "SELECT text FROM twitter \
             WHERE text contains 'obama' AND location in [bounding box for NYC];",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        let conjuncts = w.conjuncts();
        assert_eq!(conjuncts.len(), 2);
        match &conjuncts[1].kind {
            ExprKind::InBoundingBox { name, .. } => assert_eq!(name, "nyc"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_example_three_group_window() {
        let s = parse(
            "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, \
             floor(longitude(loc)) AS long \
             FROM twitter WHERE text contains 'obama' \
             GROUP BY lat, long WINDOW 3 hours;",
        )
        .unwrap();
        assert_eq!(s.group_by, vec!["lat", "long"]);
        assert_eq!(s.window, Some(WindowSpec::Time(Duration::from_hours(3))));
        match &s.select[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("lat")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_word_bounding_box() {
        let s = parse("SELECT text FROM twitter WHERE location in [bounding box for new york]")
            .unwrap();
        match s.where_clause.unwrap().kind {
            ExprKind::InBoundingBox { name, .. } => assert_eq!(name, "new york"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_bounding_box_is_an_error() {
        let e = parse("SELECT text FROM twitter WHERE location in [bounding box for atlantis]")
            .unwrap_err();
        assert!(e.to_string().contains("atlantis"));
    }

    #[test]
    fn window_variants() {
        assert_eq!(
            parse("SELECT count(*) FROM twitter WINDOW 100 tuples")
                .unwrap()
                .window,
            Some(WindowSpec::Count(100))
        );
        assert_eq!(
            parse("SELECT count(*) FROM twitter WINDOW 90 seconds")
                .unwrap()
                .window,
            Some(WindowSpec::Time(Duration::from_secs(90)))
        );
        assert_eq!(
            parse("SELECT avg(x) FROM twitter GROUP BY y WINDOW CONFIDENCE 0.1 MAX 3 hours")
                .unwrap()
                .window,
            Some(WindowSpec::Confidence {
                epsilon: 0.1,
                max_age: Some(Duration::from_hours(3)),
            })
        );
        assert_eq!(
            parse("SELECT avg(x) FROM twitter WINDOW CONFIDENCE 0.05")
                .unwrap()
                .window,
            Some(WindowSpec::Confidence {
                epsilon: 0.05,
                max_age: None,
            })
        );
    }

    #[test]
    fn count_star_and_limit() {
        let s = parse("SELECT count(*) FROM twitter LIMIT 10").unwrap();
        assert_eq!(s.limit, Some(10));
        match &s.select[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr, &Expr::call("count", vec![]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 AND NOT x > 4 OR y").unwrap();
        // ((1+(2*3))=7 AND NOT(x>4)) OR y
        match e.kind {
            ExprKind::Binary { op: BinOp::Or, .. } => {}
            other => panic!("top must be OR: {other:?}"),
        }
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinOp::Add,
                Expr::lit(1i64),
                Expr::binary(BinOp::Mul, Expr::lit(2i64), Expr::lit(3i64)),
            )
        );
    }

    #[test]
    fn matches_and_in_list() {
        let e = parse_expr("text matches '\\d+-\\d+'").unwrap();
        assert!(matches!(e.kind, ExprKind::Matches { .. }));
        let e = parse_expr("lang in ('en', 'ja')").unwrap();
        match e.kind {
            ExprKind::InList { list, .. } => assert_eq!(list.len(), 2),
            other => panic!("{other:?}"),
        }
        let e = parse_expr("user_id not in (1, 2, -3)").unwrap();
        assert!(matches!(e.kind, ExprKind::Not(_)));
    }

    #[test]
    fn is_null() {
        assert!(matches!(
            parse_expr("lat is null").unwrap().kind,
            ExprKind::IsNull { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("lat is not null").unwrap().kind,
            ExprKind::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn join_clause() {
        let s = parse(
            "SELECT text FROM twitter JOIN news ON twitter.screen_name = news.author \
             WINDOW 5 minutes",
        )
        .unwrap();
        let j = s.join.unwrap();
        assert_eq!(j.stream, "news");
        assert_eq!(j.left_col, "screen_name");
        assert_eq!(j.right_col, "author");
    }

    #[test]
    fn join_qualifier_order_normalized() {
        let s = parse("SELECT text FROM a JOIN b ON b.x = a.y").unwrap();
        let j = s.join.unwrap();
        assert_eq!(j.left_col, "y");
        assert_eq!(j.right_col, "x");
    }

    #[test]
    fn wildcard_select() {
        let s = parse("SELECT * FROM twitter").unwrap();
        assert_eq!(s.select, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT FROM twitter").is_err());
        assert!(parse("SELECT text twitter").is_err());
        assert!(parse("SELECT text FROM twitter WHERE").is_err());
        assert!(parse("SELECT text FROM twitter LIMIT x").is_err());
        assert!(parse("SELECT text FROM twitter WINDOW banana").is_err());
        assert!(parse("SELECT text FROM twitter GROUP lat").is_err());
        assert!(parse("SELECT text FROM twitter; extra").is_err());
        assert!(parse("SELECT text FROM twitter WHERE text matches 5").is_err());
    }

    /// One level per parenthesis, unary operator and binary operator:
    /// a tree at the cap parses, one a level deeper is refused at the
    /// token that opens the extra level.
    #[test]
    fn expressions_nest_up_to_the_cap_and_no_deeper() {
        let shapes: [fn(usize) -> String; 4] = [
            |n| format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("1{}", " + 1".repeat(n)),
            |n| format!("{}1", "- ".repeat(n)),
            |n| format!("{}true", "NOT ".repeat(n)),
        ];
        for shape in shapes {
            let sql = |n| format!("SELECT {} FROM twitter", shape(n));
            assert!(parse(&sql(MAX_DEPTH)).is_ok(), "{}", sql(MAX_DEPTH));
            let deeper = sql(MAX_DEPTH + 1);
            match parse(&deeper) {
                Err(QueryError::Parse { message, position }) => {
                    assert!(message.contains("deeper than 64 levels"), "{message}");
                    let at = &deeper[position..];
                    assert!(
                        ["(", "+", "-", "NOT"].iter().any(|t| at.starts_with(t)),
                        "points at an operator: {at:.8}"
                    );
                }
                other => panic!("{deeper:.40}: {other:?}"),
            }
        }
        // A call's parenthesis is a level; so is each operand chain.
        let calls = format!(
            "{}text{}",
            "upper(".repeat(MAX_DEPTH),
            ")".repeat(MAX_DEPTH)
        );
        assert!(parse_expr(&calls).is_ok());
        assert!(parse_expr(&format!("upper({calls})")).is_err());
        let wide = format!(
            "({}) + ({})",
            shapes[1](MAX_DEPTH - 2),
            shapes[1](MAX_DEPTH - 2)
        );
        assert!(parse_expr(&wide).is_ok(), "siblings do not add up");
        // A hostile line fails fast instead of exhausting the stack.
        assert!(parse_expr(&shapes[0](100_000)).is_err());
        assert!(parse_expr(&shapes[1](100_000)).is_err());
    }

    #[test]
    fn reserved_words_rejected_as_columns() {
        let e = parse("SELECT select FROM twitter").unwrap_err();
        assert!(e.to_string().contains("keyword"));
    }

    #[test]
    fn case_insensitivity() {
        let a = parse("select text from twitter where text contains 'x'").unwrap();
        let b = parse("SELECT TEXT FROM TWITTER WHERE TEXT CONTAINS 'x'").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn having_clause_parses() {
        let s =
            parse("SELECT lang, count(*) FROM twitter GROUP BY lang HAVING count(*) > 10").unwrap();
        assert!(s.having.is_some());
        match s.having.unwrap().kind {
            ExprKind::Binary { op: BinOp::Gt, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sliding_window_parses_and_validates() {
        let s = parse("SELECT count(*) FROM twitter WINDOW 10 minutes SLIDE 2 minutes").unwrap();
        assert_eq!(
            s.window,
            Some(WindowSpec::Sliding {
                size: Duration::from_mins(10),
                slide: Duration::from_mins(2),
            })
        );
        assert!(parse("SELECT count(*) FROM twitter WINDOW 1 minutes SLIDE 5 minutes").is_err());
    }

    #[test]
    fn count_distinct_parses() {
        let s = parse("SELECT count(distinct screen_name) FROM twitter").unwrap();
        match &s.select[0] {
            SelectItem::Expr { expr, .. } => assert_eq!(
                expr,
                &Expr::call("count_distinct", vec![Expr::col("screen_name")])
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn contains_with_non_literal_pattern() {
        // contains accepts any expression as needle.
        let e = parse_expr("text contains screen_name").unwrap();
        assert!(matches!(e.kind, ExprKind::Contains { .. }));
    }

    #[test]
    fn expression_spans_point_at_source() {
        let src = "followers > 10 AND text contains 'obama'";
        let e = parse_expr(src).unwrap();
        // Top-level AND covers the whole expression.
        assert_eq!(&src[e.span.start..e.span.end], src);
        let cs = e.conjuncts();
        assert_eq!(&src[cs[0].span.start..cs[0].span.end], "followers > 10");
        assert_eq!(
            &src[cs[1].span.start..cs[1].span.end],
            "text contains 'obama'"
        );
        // Leaf columns carry exact identifier spans.
        match &cs[0].kind {
            ExprKind::Binary { left, .. } => {
                assert_eq!(&src[left.span.start..left.span.end], "followers");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn statement_clause_spans_tracked() {
        let src = "SELECT count(*) FROM twitter GROUP BY lang WINDOW 3 hours";
        let s = parse(src).unwrap();
        assert_eq!(&src[s.from_span.start..s.from_span.end], "twitter");
        assert_eq!(s.group_by_spans.len(), 1);
        let g = s.group_by_spans[0];
        assert_eq!(&src[g.start..g.end], "lang");
        assert_eq!(
            &src[s.window_span.start..s.window_span.end],
            "WINDOW 3 hours"
        );
    }

    #[test]
    fn call_spans_include_parens() {
        let src = "sentiment(text) > 0";
        let e = parse_expr(src).unwrap();
        match &e.kind {
            ExprKind::Binary { left, .. } => {
                assert_eq!(&src[left.span.start..left.span.end], "sentiment(text)");
            }
            other => panic!("{other:?}"),
        }
    }
}
