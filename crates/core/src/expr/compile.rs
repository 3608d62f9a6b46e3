//! Lowering [`CExpr`] trees into flat register-based [`ExprProgram`]s.
//!
//! The tree-walk interpreter in [`super`] pays a dispatch + recursion
//! cost per node per record. The compiled form is a linear instruction
//! list over virtual registers, evaluated batch-at-a-time by
//! [`super::vm::BatchVm`]: each instruction loops over the current
//! selection of row indexes, so dispatch happens once per instruction
//! per *batch* instead of once per node per *record*.
//!
//! Short-circuit `AND`/`OR` keep the interpreter's lazy-evaluation
//! semantics through *mask* instructions: `AndRhs`/`OrRhs` push a
//! sub-selection containing only the rows whose right-hand side the
//! interpreter would actually evaluate, the rhs instructions run over
//! that sub-selection, and `AndEnd`/`OrEnd` pop it and combine both
//! sides with SQL three-valued logic. Rows the interpreter would
//! short-circuit past never execute the rhs — so an expression like
//! `followers > 0 OR 1/0 > x` errors on exactly the same rows under
//! both engines.
//!
//! Stateful UDF calls lower to [`Instr::CallStateful`], which calls
//! the instance once per row of the current selection in ascending row
//! order — the order the interpreter calls it in, since the masks above
//! hand it exactly the rows the interpreter's short-circuit reaches.
//!
//! Compilation happens **after** the check pass has accepted the query
//! (the planner only lowers `checked_plan` output), so E-codes remain
//! the authoritative source of semantic errors. Every checked
//! expression lowers; the one refusal is a program too large for the
//! `u16` register and pool indexes, a [`QueryError::Plan`].

use super::CExpr;
use crate::ast::BinOp;
use crate::error::QueryError;
use crate::udf::ScalarUdf;
use std::sync::Arc;
use tweeql_geo::BoundingBox;
use tweeql_model::Value;
use tweeql_text::ac::AhoCorasick;
use tweeql_text::fold::FoldedFinder;
use tweeql_text::Regex;

/// Register index.
pub type Reg = u16;

/// One instruction of a compiled expression program. `dst` registers
/// are assigned exactly once (SSA-style), which lets the VM skip
/// clearing register columns between batches.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Load a record column.
    Col { col: usize, dst: Reg },
    /// Load a constant from the program's constant pool.
    Const { idx: u16, dst: Reg },
    /// Non-logical binary op (comparisons and arithmetic).
    Bin { op: BinOp, a: Reg, b: Reg, dst: Reg },
    /// Non-logical binary op with one literal operand, read straight
    /// from the constant pool instead of materializing a register
    /// column of clones. `const_right` distinguishes `a ∘ c` from
    /// `c ∘ a` (division and subtraction are not commutative).
    BinConst {
        op: BinOp,
        a: Reg,
        idx: u16,
        const_right: bool,
        dst: Reg,
    },
    /// Begin the rhs of an `AND`: restrict the selection to rows where
    /// the lhs is NULL or truthy (the rows whose rhs the interpreter
    /// evaluates).
    AndRhs { lhs: Reg },
    /// Combine both sides of an `AND` with 3VL and pop the mask.
    AndEnd { lhs: Reg, rhs: Reg, dst: Reg },
    /// Begin the rhs of an `OR`: restrict to rows where the lhs is not
    /// truthy.
    OrRhs { lhs: Reg },
    /// Combine both sides of an `OR` with 3VL and pop the mask.
    OrEnd { lhs: Reg, rhs: Reg, dst: Reg },
    /// Logical NOT (NULL-preserving).
    Not { a: Reg, dst: Reg },
    /// Numeric negation.
    Neg { a: Reg, dst: Reg },
    /// NULL test.
    IsNull { a: Reg, negated: bool, dst: Reg },
    /// `contains` with a pre-folded literal needle: allocation-free
    /// byte scan (ASCII) or char-fold scan (Unicode).
    ContainsLit { a: Reg, matcher: u16, dst: Reg },
    /// [`Instr::ContainsLit`] whose haystack is a plain record column:
    /// scans the original text in place — no register load, no
    /// refcount traffic, zero allocations.
    ContainsCol { col: usize, matcher: u16, dst: Reg },
    /// OR-fusion of ≥2 literal `contains` over the same column: one
    /// multi-needle matcher pass instead of k scans.
    MultiContains { col: usize, matcher: u16, dst: Reg },
    /// `contains` with a dynamic needle (both sides folded on the fly).
    ContainsDyn { a: Reg, b: Reg, dst: Reg },
    /// Regex match.
    Matches { a: Reg, regex: u16, dst: Reg },
    /// Bounding-box test against the record's lat/lon columns.
    InBBox {
        lat: usize,
        lon: usize,
        bbox: u16,
        dst: Reg,
    },
    /// Membership in a literal list.
    InList { a: Reg, list: u16, dst: Reg },
    /// Scalar UDF/builtin call; argument registers live in the
    /// program's flat `call_args` pool at `[args_at, args_at+argc)`.
    CallScalar {
        udf: u16,
        args_at: u16,
        argc: u16,
        dst: Reg,
    },
    /// Stateful UDF call on the instance in the VM's context `slot`,
    /// once per selected row in ascending row order, with that row's
    /// timestamp; arguments as for [`Instr::CallScalar`].
    CallStateful {
        slot: u16,
        args_at: u16,
        argc: u16,
        dst: Reg,
    },
}

/// A single pre-folded literal needle with a pre-built bad-character
/// table — the amortized-setup scan the per-record interpreter never
/// builds (it linear-scans via `contains_folded`).
pub struct LitMatcher {
    /// Needle with every char through the one-char lowercase fold.
    pub needle: String,
    /// Horspool searcher over the folded needle.
    finder: FoldedFinder,
}

impl LitMatcher {
    fn new(folded_needle: &str) -> LitMatcher {
        LitMatcher {
            needle: folded_needle.to_string(),
            finder: FoldedFinder::new(folded_needle),
        }
    }

    /// Allocation-free match against a haystack string.
    #[inline]
    pub fn is_match(&self, hay: &str) -> bool {
        self.finder.is_match(hay)
    }
}

/// Multi-needle matcher backing [`Instr::MultiContains`].
pub struct MultiMatcher {
    /// Pre-folded needles; the ASCII fast path tries each searcher in
    /// turn (k is small — one per `contains` in the query).
    pub needles: Vec<String>,
    /// Aho–Corasick automaton over all needles, used when the haystack
    /// leaves ASCII and for any non-ASCII needle.
    pub ac: AhoCorasick,
    finders: Vec<FoldedFinder>,
    all_ascii: bool,
}

impl MultiMatcher {
    fn new(needles: Vec<String>) -> Self {
        let ac = AhoCorasick::new(needles.iter().map(|s| s.as_str()));
        let all_ascii = needles.iter().all(|n| n.is_ascii());
        let finders = needles.iter().map(|n| FoldedFinder::new(n)).collect();
        MultiMatcher {
            needles,
            ac,
            finders,
            all_ascii,
        }
    }

    /// True when any needle occurs in `hay`, case-folded.
    #[inline]
    pub fn is_match(&self, hay: &str) -> bool {
        if self.all_ascii && hay.is_ascii() {
            self.finders.iter().any(|f| f.is_match_ascii(hay))
        } else {
            self.ac.is_match(hay)
        }
    }
}

/// A compiled, immutable expression program.
pub struct ExprProgram {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) consts: Vec<Value>,
    pub(crate) matchers: Vec<LitMatcher>,
    pub(crate) multis: Vec<MultiMatcher>,
    pub(crate) regexes: Vec<Regex>,
    pub(crate) bboxes: Vec<BoundingBox>,
    pub(crate) lists: Vec<Vec<Value>>,
    pub(crate) udfs: Vec<Arc<dyn ScalarUdf>>,
    pub(crate) call_args: Vec<Reg>,
    pub(crate) num_regs: u16,
    pub(crate) result: Reg,
}

impl std::fmt::Debug for ExprProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExprProgram({} instrs, {} regs)",
            self.instrs.len(),
            self.num_regs
        )
    }
}

struct Lowerer {
    prog: ExprProgram,
}

impl Lowerer {
    fn alloc(&mut self) -> Result<Reg, QueryError> {
        let r = self.prog.num_regs;
        self.prog.num_regs = self.prog.num_regs.checked_add(1).ok_or_else(too_large)?;
        Ok(r)
    }

    fn pool_idx(len: usize) -> Result<u16, QueryError> {
        u16::try_from(len).map_err(|_| too_large())
    }

    /// Lower `args` into the flat `call_args` pool: `(args_at, argc)`.
    fn call_args(&mut self, args: &[CExpr]) -> Result<(u16, u16), QueryError> {
        let mut arg_regs = Vec::with_capacity(args.len());
        for a in args {
            arg_regs.push(self.lower(a)?);
        }
        let args_at = Self::pool_idx(self.prog.call_args.len())?;
        let argc = Self::pool_idx(args.len())?;
        self.prog.call_args.extend(arg_regs);
        Ok((args_at, argc))
    }

    fn bin_const(
        &mut self,
        op: BinOp,
        a: Reg,
        c: &Value,
        const_right: bool,
    ) -> Result<Reg, QueryError> {
        let idx = Self::pool_idx(self.prog.consts.len())?;
        self.prog.consts.push(c.clone());
        let dst = self.alloc()?;
        self.prog.instrs.push(Instr::BinConst {
            op,
            a,
            idx,
            const_right,
            dst,
        });
        Ok(dst)
    }

    fn lower(&mut self, e: &CExpr) -> Result<Reg, QueryError> {
        match e {
            CExpr::Column(idx) => {
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::Col { col: *idx, dst });
                Ok(dst)
            }
            CExpr::Literal(v) => {
                let idx = Self::pool_idx(self.prog.consts.len())?;
                self.prog.consts.push(v.clone());
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::Const { idx, dst });
                Ok(dst)
            }
            CExpr::Scalar { udf, args } => {
                let (args_at, argc) = self.call_args(args)?;
                let udf_idx = Self::pool_idx(self.prog.udfs.len())?;
                self.prog.udfs.push(Arc::clone(udf));
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::CallScalar {
                    udf: udf_idx,
                    args_at,
                    argc,
                    dst,
                });
                Ok(dst)
            }
            CExpr::Stateful { slot, args } => {
                let (args_at, argc) = self.call_args(args)?;
                let slot = Self::pool_idx(*slot)?;
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::CallStateful {
                    slot,
                    args_at,
                    argc,
                    dst,
                });
                Ok(dst)
            }
            CExpr::Binary { op, left, right } => {
                // Literal operands read from the constant pool in place
                // of a register full of per-row clones.
                if let CExpr::Literal(v) = &**right {
                    let a = self.lower(left)?;
                    return self.bin_const(*op, a, v, true);
                }
                if let CExpr::Literal(v) = &**left {
                    let a = self.lower(right)?;
                    return self.bin_const(*op, a, v, false);
                }
                let a = self.lower(left)?;
                let b = self.lower(right)?;
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::Bin { op: *op, a, b, dst });
                Ok(dst)
            }
            CExpr::And(items) | CExpr::Or(items) => {
                // Read as `((a ∘ b) ∘ c)`: each operand after the head
                // runs under an `AndRhs`/`OrRhs` mask and joins the
                // chain so far with an `AndEnd`/`OrEnd`.
                let or = matches!(e, CExpr::Or(_));
                let (mut acc, done) = self.chain_head(items, or)?;
                for item in &items[done..] {
                    let lhs = acc;
                    self.prog.instrs.push(if or {
                        Instr::OrRhs { lhs }
                    } else {
                        Instr::AndRhs { lhs }
                    });
                    let rhs = self.lower(item)?;
                    acc = self.alloc()?;
                    let dst = acc;
                    self.prog.instrs.push(if or {
                        Instr::OrEnd { lhs, rhs, dst }
                    } else {
                        Instr::AndEnd { lhs, rhs, dst }
                    });
                }
                Ok(acc)
            }
            CExpr::Not(inner) => {
                let a = self.lower(inner)?;
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::Not { a, dst });
                Ok(dst)
            }
            CExpr::Neg(inner) => {
                let a = self.lower(inner)?;
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::Neg { a, dst });
                Ok(dst)
            }
            CExpr::ContainsLiteral { expr, needle, .. } => {
                let matcher = Self::pool_idx(self.prog.matchers.len())?;
                self.prog.matchers.push(LitMatcher::new(needle));
                let dst = self.alloc()?;
                // Haystack-is-a-column is the hot shape (`text contains
                // 'kw'`): scan the record's string directly.
                if let CExpr::Column(col) = &**expr {
                    self.prog.instrs.push(Instr::ContainsCol {
                        col: *col,
                        matcher,
                        dst,
                    });
                } else {
                    let a = self.lower(expr)?;
                    self.prog
                        .instrs
                        .push(Instr::ContainsLit { a, matcher, dst });
                }
                Ok(dst)
            }
            CExpr::ContainsDynamic { expr, pattern } => {
                let a = self.lower(expr)?;
                let b = self.lower(pattern)?;
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::ContainsDyn { a, b, dst });
                Ok(dst)
            }
            CExpr::Matches { expr, regex } => {
                let a = self.lower(expr)?;
                let idx = Self::pool_idx(self.prog.regexes.len())?;
                self.prog.regexes.push(regex.clone());
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::Matches { a, regex: idx, dst });
                Ok(dst)
            }
            CExpr::InBoundingBox {
                lat_idx,
                lon_idx,
                bbox,
            } => {
                let idx = Self::pool_idx(self.prog.bboxes.len())?;
                self.prog.bboxes.push(*bbox);
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::InBBox {
                    lat: *lat_idx,
                    lon: *lon_idx,
                    bbox: idx,
                    dst,
                });
                Ok(dst)
            }
            CExpr::InList { expr, list } => {
                let a = self.lower(expr)?;
                let idx = Self::pool_idx(self.prog.lists.len())?;
                self.prog.lists.push(list.clone());
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::InList { a, list: idx, dst });
                Ok(dst)
            }
            CExpr::IsNull { expr, negated } => {
                let a = self.lower(expr)?;
                let dst = self.alloc()?;
                self.prog.instrs.push(Instr::IsNull {
                    a,
                    negated: *negated,
                    dst,
                });
                Ok(dst)
            }
        }
    }

    /// A chain's first operand lowered, or an OR chain's longest prefix
    /// of two or more `contains` with a non-empty literal needle on one
    /// plain column (an operand in parentheses counts when all of it
    /// is) as one multi-needle scan: its register and how many operands
    /// it covers. The OR of column-contains is 3VL-equivalent to "any
    /// needle matches" (NULL column → every leaf NULL → OR is NULL;
    /// non-NULL column → plain boolean any()).
    fn chain_head(&mut self, items: &[CExpr], or: bool) -> Result<(Reg, usize), QueryError> {
        fn collect(e: &CExpr, col: &mut Option<usize>, needles: &mut Vec<String>) -> bool {
            match e {
                CExpr::Or(items) => items.iter().all(|i| collect(i, col, needles)),
                CExpr::ContainsLiteral { expr, needle, .. } if !needle.is_empty() => {
                    match (&**expr, *col) {
                        (CExpr::Column(i), c) if c.is_none_or(|c| c == *i) => {
                            *col = Some(*i);
                            needles.push(needle.clone());
                            true
                        }
                        _ => false,
                    }
                }
                _ => false,
            }
        }
        let mut col = None;
        let mut needles = Vec::new();
        let mut fused = 0;
        for item in items.iter().take_while(|_| or) {
            let had = needles.len();
            if !collect(item, &mut col, &mut needles) {
                needles.truncate(had);
                break;
            }
            fused += 1;
        }
        if fused < 2 {
            return Ok((self.lower(&items[0])?, 1));
        }
        let matcher = Self::pool_idx(self.prog.multis.len())?;
        self.prog.multis.push(MultiMatcher::new(needles));
        let dst = self.alloc()?;
        self.prog.instrs.push(Instr::MultiContains {
            col: col.expect("collect sets col"),
            matcher,
            dst,
        });
        Ok((dst, fused))
    }
}

impl ExprProgram {
    /// The input column this program does nothing but load (`SELECT
    /// text`), if that is all it does.
    pub(crate) fn column(&self) -> Option<usize> {
        match self.instrs[..] {
            [Instr::Col { col, .. }] => Some(col),
            _ => None,
        }
    }

    /// Lower a compiled expression tree into a flat program.
    pub fn lower(expr: &CExpr) -> Result<ExprProgram, QueryError> {
        let mut l = Lowerer {
            prog: ExprProgram {
                instrs: Vec::new(),
                consts: Vec::new(),
                matchers: Vec::new(),
                multis: Vec::new(),
                regexes: Vec::new(),
                bboxes: Vec::new(),
                lists: Vec::new(),
                udfs: Vec::new(),
                call_args: Vec::new(),
                num_regs: 0,
                result: 0,
            },
        };
        let result = l.lower(expr)?;
        l.prog.result = result;
        Ok(l.prog)
    }

    /// Number of instructions (used by EXPLAIN and tests).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the program is empty (never the case for a lowered
    /// expression; present for clippy's `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

fn too_large() -> QueryError {
    QueryError::Plan("expression too large to compile (over 65,535 registers or constants)".into())
}
