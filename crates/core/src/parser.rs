//! Parser: token stream → [`SelectStmt`], statements by recursive
//! descent and expressions by precedence climbing (Pratt 1973): one
//! loop holds each operator on a stack until its right operand is read,
//! and a table of binding powers decides when the next one applies, so
//! only a parenthesis or a call's argument list recurses.
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
/// parenthesis (a call's included), unary operator, arithmetic or
/// comparison operator, and AND or OR chain of any length. A deeper
/// one is a parse error at the token past the cap. A query at the cap
/// registers and runs on a 2 MiB thread in a debug build, where 460
/// levels fit and 476 overflow the stack in the passes after the
/// parser; the parser takes 4 KiB a parenthesis.
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

/// Binding powers, loosest first.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const CMP: u8 = 4;
const SUM: u8 = 5;
const PRODUCT: u8 = 6;
const UNARY: u8 = 7;

/// An operator of the expression grammar.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Or,
    And,
    Not,
    Neg,
    Bin(BinOp),
    Contains,
    /// `MATCHES`, `IS [NOT] NULL` and `[NOT] IN`: no right operand.
    Postfix,
}

/// An operator waiting for its right operand.
struct Pending {
    op: Op,
    power: u8,
    /// Where the operator, or a chain's first keyword, stands.
    pos: usize,
    /// The operands before the right one: none for a prefix operator.
    operands: Vec<Expr>,
    /// The levels of the deepest of `operands`.
    below: usize,
}

impl Pending {
    fn new(op: Op, power: u8, pos: usize, operands: Vec<Expr>, below: usize) -> Pending {
        Pending {
            op,
            power,
            pos,
            operands,
            below,
        }
    }
}

/// The literal `tok` spells, if it spells one.
fn literal(tok: &Tok) -> Option<Value> {
    Some(match tok {
        Tok::Int(i) => Value::Int(*i),
        Tok::Float(f) => Value::Float(*f),
        Tok::Str(s) => Value::from(s.as_str()),
        Tok::Ident(w) if w == "null" => Value::Null,
        Tok::Ident(w) if w == "true" => Value::Bool(true),
        Tok::Ident(w) if w == "false" => Value::Bool(false),
        _ => return None,
    })
}

#[derive(Default)]
struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// End offset of the most recently consumed token.
    last_end: usize,
    /// Parentheses and unary operators open around the current token.
    opened: usize,
    /// Levels of the expression read last.
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<SpannedTok>) -> Parser {
        Parser {
            toks,
            ..Parser::default()
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
        if depth <= MAX_DEPTH {
            return Ok(());
        }
        let deep = format!("expression nests deeper than {MAX_DEPTH} levels");
        Err(QueryError::parse(deep, pos))
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_pos(&self) -> usize {
        self.toks[self.pos].pos
    }

    /// A parse error at the next token.
    fn fail<T>(&self, message: impl Into<String>) -> Result<T, QueryError> {
        Err(QueryError::parse(message, self.peek_pos()))
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
        let at = self.peek() == t;
        if at {
            self.bump();
        }
        at
    }

    /// One or more `item`s separated by commas.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, QueryError>,
    ) -> Result<Vec<T>, QueryError> {
        let mut items = vec![item(self)?];
        while self.eat_tok(&Tok::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Is the token `ahead` past the next one an identifier equal to
    /// `kw`? Keywords are contextual.
    fn at_kw(&self, ahead: usize, kw: &str) -> bool {
        matches!(self.toks.get(self.pos + ahead).map(|t| &t.tok), Some(Tok::Ident(s)) if s == kw)
    }

    /// Consume an identifier equal to `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        let at = self.at_kw(0, kw);
        if at {
            self.bump();
        }
        at
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_kw(kw) {
            return Ok(());
        }
        self.fail(format!(
            "expected {}, found {}",
            kw.to_uppercase(),
            self.peek()
        ))
    }

    fn expect_tok(&mut self, t: Tok) -> Result<(), QueryError> {
        if self.eat_tok(&t) {
            return Ok(());
        }
        self.fail(format!("expected {t}, found {}", self.peek()))
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
            other => self.fail(format!("expected identifier, found {other}")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), QueryError> {
        if matches!(self.peek(), Tok::Eof) {
            return Ok(());
        }
        self.fail(format!("unexpected trailing input: {}", self.peek()))
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

        let where_clause = self.eat_kw("where").then(|| self.expr()).transpose()?;

        let (mut group_by, mut group_by_spans) = (Vec::new(), Vec::new());
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            let names = self.list(Self::expect_ident_spanned)?;
            (group_by, group_by_spans) = names.into_iter().unzip();
        }

        let having = self.eat_kw("having").then(|| self.expr()).transpose()?;

        let window_start = self.peek_pos();
        let window = self
            .eat_kw("window")
            .then(|| self.window_spec())
            .transpose()?;
        let window_span = window
            .as_ref()
            .map_or(Span::DUMMY, |_| self.span_from(window_start));

        let limit = match self.eat_kw("limit").then(|| self.bump()) {
            None => None,
            Some(Tok::Int(n)) if n >= 0 => Some(n as u64),
            Some(other) => {
                return self.fail(format!("LIMIT wants a nonnegative integer, found {other}"))
            }
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
        self.list(|p| {
            if p.eat_tok(&Tok::Star) {
                return Ok(SelectItem::Wildcard);
            }
            let expr = p.expr()?;
            let alias = p.eat_kw("as").then(|| p.expect_ident()).transpose()?;
            Ok(SelectItem::Expr { expr, alias })
        })
    }

    fn window_spec(&mut self) -> Result<WindowSpec, QueryError> {
        if self.eat_kw("confidence") {
            let epsilon = match self.bump() {
                Tok::Float(f) => f,
                Tok::Int(i) => i as f64,
                other => {
                    return self.fail(format!("WINDOW CONFIDENCE wants a number, found {other}"))
                }
            };
            let max_age = self.eat_kw("max").then(|| self.duration()).transpose()?;
            return Ok(WindowSpec::Confidence { epsilon, max_age });
        }
        let n = match self.bump() {
            Tok::Int(n) if n > 0 => n,
            other => return self.fail(format!("WINDOW wants a positive count, found {other}")),
        };
        let unit = self.expect_ident()?;
        if unit == "tuples" || unit == "tuple" || unit == "rows" {
            return Ok(WindowSpec::Count(n as u64));
        }
        let d = Duration::parse(&format!("{n} {unit}")).or_else(|e| self.fail(e.to_string()))?;
        if self.eat_kw("slide") {
            let slide = self.duration()?;
            if slide.millis() <= 0 || slide > d {
                return self.fail("SLIDE must be positive and no longer than the window");
            }
            return Ok(WindowSpec::Sliding { size: d, slide });
        }
        Ok(WindowSpec::Time(d))
    }

    fn duration(&mut self) -> Result<Duration, QueryError> {
        let n = match self.bump() {
            Tok::Int(n) if n > 0 => n,
            other => return self.fail(format!("expected duration count, found {other}")),
        };
        let unit = self.expect_ident()?;
        Duration::parse(&format!("{n} {unit}")).or_else(|e| self.fail(e.to_string()))
    }

    // ---- expressions ----

    /// One expression, by precedence climbing: an operator waits on
    /// `ops` for its right operand, and an operand's operators are
    /// applied as soon as the next one binds no tighter, so only a
    /// parenthesis or a call's arguments recurse.
    fn expr(&mut self) -> Result<Expr, QueryError> {
        let mut ops = Vec::new();
        loop {
            self.prefixes(&mut ops)?;
            let e = self.primary()?;
            if let Some(e) = self.infix(&mut ops, e)? {
                return Ok(e);
            }
        }
    }

    /// Prefix minuses, after NOTs where a NOT may stand.
    fn prefixes(&mut self, ops: &mut Vec<Pending>) -> Result<(), QueryError> {
        loop {
            let top = ops.last().map_or(0, |p| p.power);
            let (op, power) = match self.peek() {
                Tok::Minus => (Op::Neg, UNARY),
                Tok::Ident(w) if w == "not" && top <= NOT => (Op::Not, NOT),
                _ => return Ok(()),
            };
            let pos = self.peek_pos();
            self.bump();
            self.open(pos)?;
            ops.push(Pending::new(op, power, pos, Vec::new(), 0));
        }
    }

    /// The operators after the operand `e`: `None` once one waits for
    /// its right operand, the whole expression once none is left.
    fn infix(&mut self, ops: &mut Vec<Pending>, mut e: Expr) -> Result<Option<Expr>, QueryError> {
        let mut power = UNARY;
        loop {
            let pos = self.peek_pos();
            let next = self.peek_op();
            if let (Some((op, _)), Some(top)) = (next, ops.last_mut()) {
                // The keyword of the chain on top: one more operand.
                if top.op == op && matches!(op, Op::And | Op::Or) {
                    top.below = top.below.max(self.depth);
                    top.operands.push(e);
                    self.bump();
                    return Ok(None);
                }
            }
            let top = ops.last().map_or(0, |p| p.power);
            match next {
                // Chains and comparisons take a left operand that binds
                // tighter than they do, arithmetic one that binds as
                // tightly.
                Some((op, p)) if p > top && power >= p + u8::from(p < SUM) => {
                    if op == Op::Postfix {
                        e = self.postfix(e, pos)?;
                        power = CMP;
                        continue;
                    }
                    self.bump();
                    ops.push(Pending::new(op, p, pos, vec![e], self.depth));
                    return Ok(None);
                }
                _ => {
                    let Some(done) = ops.pop() else {
                        return Ok(Some(e));
                    };
                    power = done.power;
                    e = self.reduce(done, e)?;
                }
            }
        }
    }

    /// The binding-power table: the operator the next token starts, if
    /// any, and how tightly it binds.
    fn peek_op(&self) -> Option<(Op, u8)> {
        Some(match self.peek() {
            Tok::Ident(w) => match w.as_str() {
                "or" => (Op::Or, OR),
                "and" => (Op::And, AND),
                "contains" => (Op::Contains, CMP),
                "matches" | "is" | "in" => (Op::Postfix, CMP),
                "not" if self.at_kw(1, "in") => (Op::Postfix, CMP),
                _ => return None,
            },
            Tok::Eq => (Op::Bin(BinOp::Eq), CMP),
            Tok::Ne => (Op::Bin(BinOp::Ne), CMP),
            Tok::Lt => (Op::Bin(BinOp::Lt), CMP),
            Tok::Le => (Op::Bin(BinOp::Le), CMP),
            Tok::Gt => (Op::Bin(BinOp::Gt), CMP),
            Tok::Ge => (Op::Bin(BinOp::Ge), CMP),
            Tok::Plus => (Op::Bin(BinOp::Add), SUM),
            Tok::Minus => (Op::Bin(BinOp::Sub), SUM),
            Tok::Star => (Op::Bin(BinOp::Mul), PRODUCT),
            Tok::Slash => (Op::Bin(BinOp::Div), PRODUCT),
            Tok::Percent => (Op::Bin(BinOp::Mod), PRODUCT),
            _ => return None,
        })
    }

    /// Apply `p` to its last operand `e`: one level above the deepest
    /// of its operands, checked at the operator.
    fn reduce(&mut self, mut p: Pending, e: Expr) -> Result<Expr, QueryError> {
        let below = p.below.max(self.depth);
        let node = match p.op {
            Op::Not | Op::Neg => {
                self.opened -= 1;
                let span = Span::new(p.pos, e.span.end.max(p.pos));
                let not = p.op == Op::Not;
                let node = if not { Expr::not(e) } else { Expr::neg(e) };
                node.with_span(span)
            }
            Op::And | Op::Or => {
                p.operands.push(e);
                let and = p.op == Op::And;
                Expr::chain(if and { ExprKind::And } else { ExprKind::Or }, p.operands)
            }
            Op::Bin(b) => Expr::binary(b, p.operands.remove(0), e),
            Op::Contains => Expr::contains(p.operands.remove(0), e),
            Op::Postfix => unreachable!("a postfix form is complete where it is read"),
        };
        self.level(node, below, p.pos)
    }

    /// The rest of a comparison that takes no right operand, at `pos`:
    /// `MATCHES 'pattern'`, `IS [NOT] NULL` or `[NOT] IN` a list or
    /// bounding box.
    fn postfix(&mut self, left: Expr, pos: usize) -> Result<Expr, QueryError> {
        let (start, below) = (left.span.start, self.depth);
        if self.eat_kw("matches") {
            let pat_pos = self.peek_pos();
            let pat = match self.bump() {
                Tok::Str(pat) => pat,
                other => {
                    let msg = format!("MATCHES wants a string pattern, found {other}");
                    return Err(QueryError::parse(msg, pat_pos));
                }
            };
            let e = Expr::matches(left, pat).with_span(self.span_from(start));
            return self.level(e, below, pos);
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let e = Expr::is_null(left, negated).with_span(self.span_from(start));
            return self.level(e, below, pos);
        }
        let negated = self.eat_kw("not");
        self.bump(); // IN
        let bracket_start = self.peek_pos();
        let e = if self.eat_tok(&Tok::LBracket) {
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
            let span = Span::new(start.min(bracket_start), self.last_end);
            Expr::new(ExprKind::InBoundingBox { bbox, name }, span)
        } else {
            self.expect_tok(Tok::LParen)?;
            let list = self.list(|p| {
                let pos = p.peek_pos();
                match (p.eat_tok(&Tok::Minus), p.bump()) {
                    (true, Tok::Int(i)) => Ok(Value::Int(-i)),
                    (true, Tok::Float(f)) => Ok(Value::Float(-f)),
                    (true, other) => Err(format!("bad literal in IN list: -{other}")),
                    (false, tok) => {
                        literal(&tok).ok_or_else(|| format!("IN list wants literals, found {tok}"))
                    }
                }
                .map_err(|msg| QueryError::parse(msg, pos))
            })?;
            self.expect_tok(Tok::RParen)?;
            Expr::in_list(left, list).with_span(self.span_from(start))
        };
        let e = if negated { Expr::not(e) } else { e };
        self.level(e, below + usize::from(negated), pos)
    }

    fn primary(&mut self) -> Result<Expr, QueryError> {
        let pos = self.peek_pos();
        let tok_span = self.peek_span();
        // A leaf; a parenthesis or call sets the depth it closes at.
        self.depth = 0;
        if let Some(v) = literal(self.peek()) {
            self.bump();
            return Ok(Expr::lit(v).with_span(tok_span));
        }
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                self.open(pos)?;
                let e = self.expr()?;
                self.expect_tok(Tok::RParen)?;
                self.close(e, pos)
            }
            Tok::Ident(name) => {
                if RESERVED.contains(&name.as_str()) {
                    let upper = name.to_uppercase();
                    return self.fail(format!("expected expression, found keyword {upper}"));
                }
                self.bump();
                if self.eat_tok(&Tok::LParen) {
                    return self.call(name, pos);
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
            other => self.fail(format!("expected expression, found {other}")),
        }
    }

    /// A call of `name` at `pos`, past its opening parenthesis.
    fn call(&mut self, name: String, pos: usize) -> Result<Expr, QueryError> {
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
        let (mut args, mut below) = (Vec::new(), 0);
        if !self.eat_tok(&Tok::RParen) {
            args = self.list(|p| {
                let arg = p.expr()?;
                below = below.max(p.depth);
                Ok(arg)
            })?;
            self.expect_tok(Tok::RParen)?;
        }
        self.depth = below;
        let e = Expr::new(ExprKind::Call { name, args }, self.span_from(pos));
        self.close(e, pos)
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
            ExprKind::Or(_) => {}
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

    /// One level per parenthesis, unary operator, arithmetic operator
    /// and AND or OR chain: a tree at the cap parses, one a level deeper
    /// is refused at the token that opens the extra level.
    #[test]
    fn expressions_nest_up_to_the_cap_and_no_deeper() {
        let shapes: [fn(usize) -> String; 5] = [
            |n| format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("1{}", " + 1".repeat(n)),
            |n| format!("{}1", "- ".repeat(n)),
            |n| format!("{}true", "NOT ".repeat(n)),
            // A chain one level above a parenthesised operand.
            |n| format!("{}true{} OR true", "(".repeat(n - 1), ")".repeat(n - 1)),
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
                        ["(", "+", "-", "NOT", "OR"]
                            .iter()
                            .any(|t| at.starts_with(t)),
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

    /// The shapes above, at the cap, parse on a 768 KiB thread in a
    /// debug build: three times the 256 KiB the deepest (64
    /// parentheses) takes, measured as the smallest stack in 64 KiB
    /// steps, and less than the 1,216 KiB a parser with a function per
    /// precedence level needs.
    #[cfg(debug_assertions)]
    #[test]
    fn at_cap_shapes_parse_on_a_small_stack() {
        let shapes: [fn(usize) -> String; 5] = [
            |n| format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("1{}", " + 1".repeat(n)),
            |n| format!("{}1", "- ".repeat(n)),
            |n| format!("{}true", "NOT ".repeat(n)),
            |n| format!("{}true{} OR true", "(".repeat(n - 1), ")".repeat(n - 1)),
        ];
        let parsed = std::thread::Builder::new()
            .stack_size(768 << 10)
            .spawn(move || {
                let sql = |shape: fn(usize) -> String| {
                    format!("SELECT {} FROM twitter", shape(MAX_DEPTH))
                };
                shapes.map(|shape| parse(&sql(shape)).is_ok())
            })
            .expect("a parser thread")
            .join()
            .expect("no panic");
        assert_eq!(parsed, [true; 5]);
    }

    /// An AND or OR chain is one node and one level however many
    /// operands it joins; a chain in parentheses stays an operand of its
    /// own, and every chain renders left-nested as before.
    #[test]
    fn boolean_chains_are_one_level_however_long() {
        let or = vec!["text contains 'kw'"; 1000].join(" OR ");
        let and = vec!["followers > 1"; 200].join(" AND ");
        for (src, n) in [(&or, 1000), (&and, 200)] {
            let e = parse_expr(src).unwrap();
            match &e.kind {
                ExprKind::Or(items) | ExprKind::And(items) => assert_eq!(items.len(), n),
                other => panic!("{other:?}"),
            }
            assert_eq!(&src[e.span.start..e.span.end], src.as_str());
        }
        let deep = format!("{}{and}{} OR {or}", "(".repeat(61), ")".repeat(61));
        assert!(parse_expr(&deep).is_ok(), "a chain nests like any operand");
        assert!(parse_expr(&format!("({deep})")).is_err());
        let render = |src| crate::plan::logical::render_expr(&parse_expr(src).unwrap());
        assert_eq!(render("a OR b OR c"), "((a OR b) OR c)");
        assert_eq!(render("(a OR b) OR c"), "((a OR b) OR c)");
        assert_eq!(render("a OR (b OR c)"), "(a OR (b OR c))");
        assert_eq!(render("a AND b OR c AND d"), "((a AND b) OR (c AND d))");
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

    /// Window and slide lengths past `i64` milliseconds are a parse
    /// error, not an overflow.
    #[test]
    fn overlong_durations_are_refused() {
        for sql in [
            "SELECT count(*) FROM twitter WINDOW 9223372036854775807 hours",
            "SELECT count(*) FROM twitter WINDOW 3 hours SLIDE 9223372036854775807 days",
            "SELECT avg(x) FROM twitter WINDOW CONFIDENCE 0.1 MAX 9223372036854775807 minutes",
        ] {
            match parse(sql) {
                Err(QueryError::Parse { message, .. }) => assert!(message.contains("duration")),
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    /// Seeded generators of front-end input and the properties over
    /// them. The vendored proptest seeds each test from its name, so
    /// every run draws the same cases.
    mod props {
        use super::*;
        use crate::catalog::Catalog;
        use crate::check::check_sql;
        use crate::plan::logical::render_expr;
        use crate::udf::{Registry, ServiceConfig};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tweeql_model::VirtualClock;

        /// Single tokens a soup draws from: every keyword and operator,
        /// literals at the lexer's limits, and text it refuses.
        const TOKENS: &str = "select from where group by having window limit as join on and \
            or not in is null true false contains matches distinct count ( ) [ ] , ; . * = != \
            <> < <= > >= + - / % text lang followers lat twitter t sentiment upper 0 7 42 3.25 \
            1. 9223372036854775807 99999999999999999999 'obama' 'it''s' '' 'open tuples minutes \
            hours days slide confidence max 0.1 bounding box for nyc new york atlantis -- ! ? \
            é 日本 \u{1F600}";

        /// Fragments of several tokens a soup draws from.
        const FRAGMENTS: &[&str] = &[
            "\n",
            "SELECT text FROM twitter",
            "WHERE",
            "GROUP BY lang",
            "LIMIT 5",
            "WINDOW 3 minutes",
            "WINDOW 9223372036854775807 hours",
            "SLIDE 2 minutes",
            "count(*)",
            "count(distinct",
            "[bounding box for new york]",
            "NOT IN (1, -2.5, 'x', null)",
        ];

        /// Up to 40 tokens and fragments, spaced or glued, after
        /// `SELECT` or a whole `SELECT … FROM` a third of the time each;
        /// now and then one repeated past the depth cap.
        fn soup(rng: &mut StdRng) -> String {
            let words: Vec<&str> = TOKENS
                .split_whitespace()
                .chain(FRAGMENTS.iter().copied())
                .collect();
            let mut out = pick(rng, &["", "SELECT ", "SELECT text FROM twitter "]).to_string();
            for _ in 0..rng.random_range(0..40) {
                let word = pick(rng, &words);
                let n = if rng.random_bool(0.02) {
                    rng.random_range(60..70)
                } else {
                    1
                };
                for _ in 0..n {
                    out.push_str(word);
                    out.push_str(if rng.random_bool(0.9) { " " } else { "" });
                }
            }
            out
        }

        fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
            from[rng.random_range(0..from.len())]
        }

        /// A literal the lexer can spell, negative numbers aside.
        fn literal(rng: &mut StdRng) -> Value {
            match rng.random_range(0..6) {
                0 => Value::Int(rng.random_range(0..1000)),
                1 => Value::Int(i64::MAX),
                2 => Value::Float(rng.random_range(0..80) as f64 / 8.0),
                3 => Value::from(pick(rng, &["obama", "it's", "", "a b", "select", "日本"])),
                4 => Value::Bool(rng.random_bool(0.5)),
                _ => Value::Null,
            }
        }

        /// A column, a literal, `count(*)`, a call without arguments or
        /// a bounding box: the forms without an operand.
        fn leaf(rng: &mut StdRng) -> Expr {
            let name = pick(rng, &["text", "lang", "followers", "lat", "screen_name"]);
            let call = |name: &str| Expr::call(name, vec![]);
            match rng.random_range(0..8) {
                0 => Expr::col(name),
                1 => Expr::dummy(ExprKind::Column {
                    qualifier: Some("t".into()),
                    name: name.into(),
                }),
                2 => call("count"),
                3 => call(pick(rng, &["now", "random"])),
                4 => {
                    let name = pick(rng, &["nyc", "new york city", "tokyo"]);
                    let bbox = BoundingBox::named(name).expect("a known box");
                    let name = name.into();
                    Expr::dummy(ExprKind::InBoundingBox { bbox, name })
                }
                _ => Expr::lit(literal(rng)),
            }
        }

        /// An expression tree `height` nodes tall, one operand of each
        /// node as tall as allowed and the others short, over every
        /// `ExprKind` form: `count(*)`, `count(distinct …)`, NOT and minus
        /// runs, arithmetic, every comparison form and AND and OR chains.
        fn tree(rng: &mut StdRng, height: usize) -> Expr {
            if height == 0 {
                return leaf(rng);
            }
            let mut tall = true;
            let mut sub = |rng: &mut StdRng| {
                let short = rng.random_range(0..height.min(4));
                let tall = std::mem::take(&mut tall);
                Box::new(tree(rng, if tall { height - 1 } else { short }))
            };
            let kind = match rng.random_range(0..10) {
                0 => ExprKind::Call {
                    name: pick(rng, &["upper", "abs", "count_distinct", "sentiment"]).into(),
                    args: (0..rng.random_range(1..3)).map(|_| *sub(rng)).collect(),
                },
                1 => {
                    use BinOp::*;
                    ExprKind::Binary {
                        op: pick(rng, &[Eq, Ne, Lt, Le, Gt, Ge, Add, Sub, Mul, Div, Mod]),
                        left: sub(rng),
                        right: sub(rng),
                    }
                }
                2 => {
                    let items = (0..rng.random_range(2..5)).map(|_| *sub(rng)).collect();
                    let and = rng.random_bool(0.5);
                    if and {
                        ExprKind::And(items)
                    } else {
                        ExprKind::Or(items)
                    }
                }
                3 | 4 => {
                    let mut e = *sub(rng);
                    for _ in 0..rng.random_range(1..4) {
                        e = if rng.random_bool(0.5) {
                            Expr::not(e)
                        } else {
                            Expr::neg(e)
                        };
                    }
                    return e;
                }
                5 => ExprKind::Contains {
                    expr: sub(rng),
                    pattern: sub(rng),
                },
                6 => ExprKind::Matches {
                    expr: sub(rng),
                    pattern: pick(rng, &["a+", "\\d+-\\d+", "it's", "[a-z]*"]).into(),
                },
                7 => ExprKind::InList {
                    expr: sub(rng),
                    list: (0..rng.random_range(1..4))
                        .map(|_| match (literal(rng), rng.random_bool(0.3)) {
                            (Value::Int(i), true) => Value::Int(-i),
                            (Value::Float(f), true) => Value::Float(-f),
                            (v, _) => v,
                        })
                        .collect(),
                },
                _ => ExprKind::IsNull {
                    expr: sub(rng),
                    negated: rng.random_bool(0.5),
                },
            };
            Expr::dummy(kind)
        }

        /// The levels the parser counts in `render_expr(e)`: one per
        /// parenthesis, call, operator and chain. An operand of
        /// arithmetic, a comparison form or a minus that is a NOT or a
        /// comparison form renders in parentheses, and so does a minus
        /// under a minus; a chain renders left-nested, a parenthesis per
        /// operand after the first.
        fn levels(e: &Expr) -> usize {
            let operand = |e: &Expr| {
                let parens = matches!(
                    e.kind,
                    ExprKind::Not(_)
                        | ExprKind::Contains { .. }
                        | ExprKind::Matches { .. }
                        | ExprKind::InList { .. }
                        | ExprKind::IsNull { .. }
                        | ExprKind::InBoundingBox { .. }
                );
                levels(e) + usize::from(parens)
            };
            match &e.kind {
                ExprKind::Column { .. } | ExprKind::Literal(_) => 0,
                ExprKind::Call { args, .. } => 1 + args.iter().map(levels).max().unwrap_or(0),
                ExprKind::Binary { left, right, .. } => 2 + operand(left).max(operand(right)),
                ExprKind::And(items) | ExprKind::Or(items) => items[1..]
                    .iter()
                    .fold(levels(&items[0]), |d, item| 2 + d.max(levels(item))),
                ExprKind::Not(inner) => 1 + levels(inner),
                ExprKind::Neg(inner) => {
                    1 + operand(inner) + usize::from(matches!(inner.kind, ExprKind::Neg(_)))
                }
                ExprKind::Contains { expr, pattern } => 1 + operand(expr).max(operand(pattern)),
                ExprKind::Matches { expr, .. }
                | ExprKind::InList { expr, .. }
                | ExprKind::IsNull { expr, .. } => 1 + operand(expr),
                ExprKind::InBoundingBox { .. } => 1,
            }
        }

        /// `s` nested `k` levels deeper in parentheses, NOTs or calls.
        fn wrap(s: &str, k: usize, how: usize) -> String {
            match how {
                0 => format!("{}{s}{}", "(".repeat(k), ")".repeat(k)),
                1 => format!("{}{s}", "NOT ".repeat(k)),
                _ => format!("{}{s}{}", "upper(".repeat(k), ")".repeat(k)),
            }
        }

        fn refused(s: &str) -> bool {
            matches!(parse_expr(s), Err(QueryError::Parse { message, .. })
                if message == format!("expression nests deeper than {MAX_DEPTH} levels"))
        }

        /// Lex, parse and check `s`: errors are fine and panics are not,
        /// and a parse error points at a character of `s` or its end.
        fn total(s: &str) -> Result<(), String> {
            let inside = |r: Result<(), QueryError>| match r {
                Err(QueryError::Parse { position, message })
                    if position > s.len() || !s.is_char_boundary(position) =>
                {
                    Err(format!("{message:?} at {position}, outside {s:?}"))
                }
                _ => Ok(()),
            };
            inside(lex(s).map(drop))?;
            inside(parse_expr(s).map(drop))?;
            match parse(s) {
                Ok(_) => {
                    let registry =
                        Registry::standard(&ServiceConfig::default(), VirtualClock::new());
                    check_sql(s, &Catalog::with_twitter(), &registry).map_err(|e| e.to_string())?;
                    Ok(())
                }
                Err(e) => inside(Err(e)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            #[test]
            fn the_front_end_is_total_on_token_soups(seed in 0u64..u64::MAX) {
                total(&soup(&mut StdRng::seed_from_u64(seed)))?;
            }

            #[test]
            fn the_front_end_is_total_on_arbitrary_text(s in ".{0,120}") {
                total(&s)?;
            }

            /// A tree's rendering parses back to one that renders the
            /// same; nested to exactly the cap it parses, one level past
            /// it it is refused. A rendering past the cap is refused.
            #[test]
            fn every_expression_form_reparses_from_its_rendering(
                seed in 0u64..u64::MAX,
                height in 0usize..48,
                how in 0usize..3,
            ) {
                let t = tree(&mut StdRng::seed_from_u64(seed), height);
                let (s, d) = (render_expr(&t), levels(&t));
                if d > MAX_DEPTH {
                    prop_assert!(refused(&s), "{d} levels, not refused: {s}");
                } else {
                    let back = parse_expr(&s).map_err(|e| format!("{s}: {e}"))?;
                    prop_assert_eq!(render_expr(&back), s.clone());
                    let at_cap = wrap(&s, MAX_DEPTH - d, how);
                    prop_assert!(parse_expr(&at_cap).is_ok(), "{d} levels, at the cap: {at_cap}");
                    let past = wrap(&s, MAX_DEPTH + 1 - d, how);
                    prop_assert!(refused(&past), "{d} levels, past the cap: {past}");
                }
            }
        }
    }
}
