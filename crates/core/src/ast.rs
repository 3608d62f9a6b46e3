//! The TweeQL abstract syntax tree.
//!
//! Every expression carries a [`Span`] — the byte range it occupies in
//! the original query text — so the semantic analyzer
//! ([`crate::check`]) and error rendering can point at the exact
//! offending fragment with a caret snippet. Spans are *metadata*:
//! [`Expr`] equality and hashing deliberately ignore them, so planner
//! rewrites that compare subtrees structurally (and tests that build
//! expressions by hand with dummy spans) keep working.

use tweeql_geo::BoundingBox;
use tweeql_model::{Duration, Value};

/// A half-open byte range `[start, end)` into the query source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// First byte of the spanned fragment.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// The zero span used by programmatically-built expressions (tests,
    /// planner rewrites) that have no source text.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Build a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        if self.is_dummy() {
            return other;
        }
        if other.is_dummy() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// True for the zero placeholder span.
    pub fn is_dummy(&self) -> bool {
        self.start == 0 && self.end == 0
    }
}

/// Binary operators. AND and OR are chains, [`ExprKind::And`] and
/// [`ExprKind::Or`], not binary nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl BinOp {
    /// Display form of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// True for comparison operators (`=`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// An expression: a [`kind`](ExprKind) plus the source [`Span`] it came
/// from. Equality compares kinds only (spans are diagnostics metadata).
#[derive(Debug, Clone)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Where it sits in the query text (dummy when built in code).
    pub span: Span,
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Column reference (optionally qualified: `stream.column`).
    Column {
        /// Qualifier (`twitter` in `twitter.text`), if any.
        qualifier: Option<String>,
        /// Column name, lowercased.
        name: String,
    },
    /// Constant.
    Literal(Value),
    /// Function or UDF call.
    Call {
        /// Function name, lowercased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `a AND b AND …`: a whole chain is one node, its operands in
    /// written order (at least two). A chain written in parentheses is
    /// an operand of its own.
    And(Vec<Expr>),
    /// `a OR b OR …`, shaped as [`ExprKind::And`].
    Or(Vec<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// `expr CONTAINS 'pattern'` — case-insensitive substring.
    Contains {
        /// Haystack expression.
        expr: Box<Expr>,
        /// Needle (literal in the paper's examples).
        pattern: Box<Expr>,
    },
    /// `expr MATCHES 'regex'`.
    Matches {
        /// Subject expression.
        expr: Box<Expr>,
        /// Regex pattern (must be a string literal; compiled at plan time).
        pattern: String,
    },
    /// `location IN [bounding box for NYC]` — the tweet's coordinates
    /// fall inside the named box.
    InBoundingBox {
        /// Resolved box.
        bbox: BoundingBox,
        /// Original name, for display.
        name: String,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negated form.
        negated: bool,
    },
}

impl Expr {
    /// Wrap a kind with an explicit span.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }

    /// Wrap a kind with the dummy span (programmatic construction).
    pub fn dummy(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::DUMMY,
        }
    }

    /// Replace the span, keeping the kind.
    pub fn with_span(mut self, span: Span) -> Expr {
        self.span = span;
        self
    }

    /// Convenience: unqualified column.
    pub fn col(name: &str) -> Expr {
        Expr::dummy(ExprKind::Column {
            qualifier: None,
            name: name.to_lowercase(),
        })
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::dummy(ExprKind::Literal(v.into()))
    }

    /// Convenience: function call.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::dummy(ExprKind::Call {
            name: name.to_lowercase(),
            args,
        })
    }

    /// Convenience: binary operation spanning both operands.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        let span = left.span.to(right.span);
        Expr::new(
            ExprKind::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            },
            span,
        )
    }

    /// Convenience: logical NOT (inherits the operand's span).
    // Associated constructor, not an operator on self — the name is
    // deliberate and call sites read `Expr::not(x)`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        let span = e.span;
        Expr::new(ExprKind::Not(Box::new(e)), span)
    }

    /// Convenience: numeric negation (inherits the operand's span).
    #[allow(clippy::should_implement_trait)]
    pub fn neg(e: Expr) -> Expr {
        let span = e.span;
        Expr::new(ExprKind::Neg(Box::new(e)), span)
    }

    /// Convenience: `contains`.
    pub fn contains(expr: Expr, pattern: Expr) -> Expr {
        let span = expr.span.to(pattern.span);
        Expr::new(
            ExprKind::Contains {
                expr: Box::new(expr),
                pattern: Box::new(pattern),
            },
            span,
        )
    }

    /// Convenience: `matches`.
    pub fn matches(expr: Expr, pattern: impl Into<String>) -> Expr {
        let span = expr.span;
        Expr::new(
            ExprKind::Matches {
                expr: Box::new(expr),
                pattern: pattern.into(),
            },
            span,
        )
    }

    /// Convenience: `IN (list)`.
    pub fn in_list(expr: Expr, list: Vec<Value>) -> Expr {
        let span = expr.span;
        Expr::new(
            ExprKind::InList {
                expr: Box::new(expr),
                list,
            },
            span,
        )
    }

    /// Convenience: `IS [NOT] NULL`.
    pub fn is_null(expr: Expr, negated: bool) -> Expr {
        let span = expr.span;
        Expr::new(
            ExprKind::IsNull {
                expr: Box::new(expr),
                negated,
            },
            span,
        )
    }

    /// A conjunction's conjuncts, an AND operand written in
    /// parentheses spliced in (a single non-AND expression yields
    /// itself).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match &self.kind {
            ExprKind::And(items) => items.iter().flat_map(Expr::conjuncts).collect(),
            _ => vec![self],
        }
    }

    /// A conjunction of `exprs`. Empty input yields TRUE.
    pub fn and_all(exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::lit(true),
            _ => Expr::chain(ExprKind::And, exprs),
        }
    }

    /// `AND` or `OR`, for a chain.
    pub(crate) fn chain_word(&self) -> &'static str {
        match self.kind {
            ExprKind::And(_) => "AND",
            _ => "OR",
        }
    }

    /// An AND or OR chain over `items`, spanning all of them; a single
    /// item is itself.
    pub fn chain(kind: fn(Vec<Expr>) -> ExprKind, mut items: Vec<Expr>) -> Expr {
        if items.len() == 1 {
            return items.pop().expect("one item");
        }
        let span = items.iter().fold(Span::DUMMY, |s, e| s.to(e.span));
        Expr::new(kind(items), span)
    }

    /// Does this expression (transitively) call the function `name`?
    pub fn calls_function(&self, name: &str) -> bool {
        self.any(|n| matches!(&n.kind, ExprKind::Call { name: f, .. } if f == name))
    }

    /// Does any node of the tree satisfy `f`?
    pub fn any(&self, f: impl Fn(&Expr) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |n| found |= f(n));
        found
    }

    /// Column names referenced (unqualified), in first-seen order.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |n| {
            if let ExprKind::Column { name, .. } = &n.kind {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Visit every node in the expression tree, parents before children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Call { args, .. } | ExprKind::And(args) | ExprKind::Or(args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            ExprKind::Not(e) | ExprKind::Neg(e) => e.walk(f),
            ExprKind::Contains { expr, pattern } => {
                expr.walk(f);
                pattern.walk(f);
            }
            ExprKind::Matches { expr, .. }
            | ExprKind::InList { expr, .. }
            | ExprKind::IsNull { expr, .. } => expr.walk(f),
            ExprKind::Column { .. } | ExprKind::Literal(_) | ExprKind::InBoundingBox { .. } => {}
        }
    }

    /// Rebuild this node with `f` applied to each direct child, keeping
    /// the node's own fields and span. Every planner rewrite is written
    /// on this (or on [`Expr::walk`]), so none of them lists the
    /// expression shapes again.
    pub(crate) fn map_children(self, mut f: impl FnMut(Expr) -> Expr) -> Expr {
        let mut child = |e: Box<Expr>| Box::new(f(*e));
        let kind = match self.kind {
            ExprKind::Call { name, args } => ExprKind::Call {
                name,
                args: args.into_iter().map(&mut f).collect(),
            },
            ExprKind::Binary { op, left, right } => ExprKind::Binary {
                op,
                left: child(left),
                right: child(right),
            },
            ExprKind::And(items) => ExprKind::And(items.into_iter().map(&mut f).collect()),
            ExprKind::Or(items) => ExprKind::Or(items.into_iter().map(&mut f).collect()),
            ExprKind::Not(e) => ExprKind::Not(child(e)),
            ExprKind::Neg(e) => ExprKind::Neg(child(e)),
            ExprKind::Contains { expr, pattern } => ExprKind::Contains {
                expr: child(expr),
                pattern: child(pattern),
            },
            ExprKind::Matches { expr, pattern } => ExprKind::Matches {
                expr: child(expr),
                pattern,
            },
            ExprKind::InList { expr, list } => ExprKind::InList {
                expr: child(expr),
                list,
            },
            ExprKind::IsNull { expr, negated } => ExprKind::IsNull {
                expr: child(expr),
                negated,
            },
            leaf @ (ExprKind::Column { .. }
            | ExprKind::Literal(_)
            | ExprKind::InBoundingBox { .. }) => leaf,
        };
        Expr::new(kind, self.span)
    }
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// Sample standard deviation.
    StdDev,
    /// `COUNT(DISTINCT expr)` — approximate not needed; exact set.
    CountDistinct,
    /// `TOPK(expr, k)` — SpaceSaving heavy hitters (bounded memory).
    TopK(u32),
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "stddev" => AggFunc::StdDev,
            "count_distinct" => AggFunc::CountDistinct,
            _ => return None,
        })
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::StdDev => "stddev",
            AggFunc::CountDistinct => "count_distinct",
            AggFunc::TopK(_) => "topk",
        }
    }
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with optional alias.
    Expr {
        /// The expression (may contain aggregate calls).
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// The WINDOW clause.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowSpec {
    /// `WINDOW 3 hours` — tumbling time window.
    Time(Duration),
    /// `WINDOW 100 TUPLES` — per-group count window.
    Count(u64),
    /// `WINDOW CONFIDENCE 0.1 [MAX 3 hours]` — CONTROL-style: emit a
    /// group when the 95% CI half-width of its first AVG aggregate is ≤
    /// epsilon, or when the group has waited `max_age`.
    Confidence {
        /// CI half-width target (absolute, in aggregate units).
        epsilon: f64,
        /// Deadline after which the group is emitted regardless.
        max_age: Option<Duration>,
    },
    /// `WINDOW 10 minutes SLIDE 1 minute` — overlapping (hopping)
    /// windows of `size`, advancing by `slide`.
    Sliding {
        /// Window length.
        size: Duration,
        /// Hop between window starts (must divide into sensible hops;
        /// `slide == size` degenerates to tumbling).
        slide: Duration,
    },
}

/// A join clause: `FROM left JOIN right ON left_col = right_col`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Right stream name.
    pub stream: String,
    /// Equality key on the left stream.
    pub left_col: String,
    /// Equality key on the right stream.
    pub right_col: String,
}

/// A full TweeQL SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Projection list.
    pub select: Vec<SelectItem>,
    /// Source stream name.
    pub from: String,
    /// Span of the FROM stream name (dummy when built in code).
    pub from_span: Span,
    /// Optional join.
    pub join: Option<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY column/alias names.
    pub group_by: Vec<String>,
    /// Spans of the GROUP BY names (parallel to `group_by`; empty when
    /// built in code).
    pub group_by_spans: Vec<Span>,
    /// HAVING predicate over aggregate outputs.
    pub having: Option<Expr>,
    /// WINDOW clause.
    pub window: Option<WindowSpec>,
    /// Span of the WINDOW clause (dummy when absent or built in code).
    pub window_span: Span,
    /// LIMIT n.
    pub limit: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_flattening_round_trip() {
        let e = Expr::and_all(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]);
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0], &Expr::col("a"));
        assert_eq!(cs[2], &Expr::col("c"));
        // Singleton and empty cases.
        assert_eq!(Expr::and_all(vec![Expr::col("x")]), Expr::col("x"));
        assert_eq!(Expr::and_all(vec![]), Expr::lit(true));
    }

    #[test]
    fn calls_function_walks_tree() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::call(
                "floor",
                vec![Expr::call("latitude", vec![Expr::col("loc")])],
            ),
            Expr::lit(1i64),
        );
        assert!(e.calls_function("latitude"));
        assert!(e.calls_function("floor"));
        assert!(!e.calls_function("sentiment"));
    }

    #[test]
    fn referenced_columns_deduplicated_in_order() {
        let e = Expr::and_all(vec![
            Expr::contains(Expr::col("text"), Expr::lit("obama")),
            Expr::binary(BinOp::Gt, Expr::col("followers"), Expr::col("text")),
        ]);
        assert_eq!(e.referenced_columns(), vec!["text", "followers"]);
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("nope"), None);
        assert_eq!(AggFunc::CountDistinct.name(), "count_distinct");
    }

    #[test]
    fn spans_are_ignored_by_equality() {
        let a = Expr::col("x");
        let b = Expr::col("x").with_span(Span::new(3, 4));
        assert_eq!(a, b);
        assert_ne!(a.span, b.span);
    }

    #[test]
    fn span_join_covers_both() {
        let s = Span::new(2, 5).to(Span::new(9, 12));
        assert_eq!(s, Span::new(2, 12));
        // Dummy spans do not drag ranges to zero.
        assert_eq!(Span::DUMMY.to(Span::new(4, 6)), Span::new(4, 6));
        assert_eq!(Span::new(4, 6).to(Span::DUMMY), Span::new(4, 6));
    }

    #[test]
    fn walk_visits_every_node() {
        let e = Expr::and_all(vec![
            Expr::contains(Expr::col("text"), Expr::lit("x")),
            Expr::not(Expr::col("flag")),
        ]);
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 6);
    }
}
