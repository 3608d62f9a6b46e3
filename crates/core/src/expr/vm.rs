//! Batch-at-a-time virtual machine for [`ExprProgram`]s.
//!
//! Registers are *columns*: `regs[r][i]` holds register `r`'s value for
//! row `i` of the current batch. Each instruction loops over the
//! current **selection vector** (a sorted list of live row indexes), so
//! instruction dispatch is paid once per batch instead of once per
//! record, and rows dropped by an earlier conjunct never touch later
//! instructions.
//!
//! Programs are SSA-shaped (every `dst` register written exactly once,
//! always before any read), which means register columns never need
//! clearing between batches — stale values from a previous batch are
//! unreachable. The VM only grows columns to the batch length.
//!
//! All scratch (register columns, mask stack, UDF argument buffer,
//! string render buffers) lives in the [`BatchVm`] and is reused across
//! batches: steady-state evaluation performs no heap allocation beyond
//! what the expressions themselves demand (e.g. `upper()` building its
//! output string). So do the owning operator's stateful UDF instances,
//! the [`EvalCtx`] its programs were compiled into.

use super::compile::{ExprProgram, Instr};
use super::{binary_value, value_as_str, EvalCtx};
use crate::error::QueryError;
use tweeql_model::{Record, TweetBatch, Value};
use tweeql_text::fold::{contains_fold_both, SmallBuf};

/// The batch the VM reads input columns from: either decoded rows or a
/// columnar [`TweetBatch`]. Only the four instructions that touch the
/// input (`Col`, `ContainsCol`, `MultiContains`, `InBBox`) branch on
/// this; every register-to-register instruction is shared.
#[derive(Clone, Copy)]
enum Input<'a> {
    Rows(&'a [Record]),
    Batch(&'a TweetBatch),
}

/// Reusable evaluation scratch for compiled programs. One per operator;
/// not shared across threads.
pub struct BatchVm {
    regs: Vec<Vec<Value>>,
    masks: Vec<Vec<u32>>,
    argv: Vec<Value>,
    hbuf: SmallBuf,
    nbuf: SmallBuf,
    /// Stateful UDF instances the `CallStateful` slots index.
    ctx: EvalCtx,
}

impl Default for BatchVm {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchVm {
    /// Fresh VM with no scratch allocated yet, for stateless programs.
    pub fn new() -> Self {
        Self::with_ctx(EvalCtx::default())
    }

    /// A VM for programs compiled into `ctx`: it owns their stateful
    /// UDF instances from here on.
    pub(crate) fn with_ctx(ctx: EvalCtx) -> Self {
        BatchVm {
            regs: Vec::new(),
            masks: Vec::new(),
            argv: Vec::new(),
            hbuf: SmallBuf::new(),
            nbuf: SmallBuf::new(),
            ctx,
        }
    }

    fn ensure(&mut self, num_regs: u16, rows: usize) {
        let n = num_regs as usize;
        if self.regs.len() < n {
            self.regs.resize_with(n, Vec::new);
        }
        for col in &mut self.regs[..n] {
            if col.len() < rows {
                col.resize(rows, Value::Null);
            }
        }
    }

    /// Evaluate `prog` over the rows of `recs` listed in `sel` (sorted
    /// ascending). The result value for row `i` is left in the result
    /// register column at index `i`; read it with [`Self::result`] or
    /// move it out with [`Self::take_result`].
    pub fn eval_into(
        &mut self,
        prog: &ExprProgram,
        recs: &[Record],
        sel: &[u32],
    ) -> Result<(), QueryError> {
        self.eval_input(prog, Input::Rows(recs), recs.len(), sel)
    }

    /// [`Self::eval_into`] over a columnar [`TweetBatch`] — input
    /// values are read from the batch's tweets instead of from
    /// materialized [`Record`]s.
    pub fn eval_cols(
        &mut self,
        prog: &ExprProgram,
        batch: &TweetBatch,
        sel: &[u32],
    ) -> Result<(), QueryError> {
        self.eval_input(prog, Input::Batch(batch), batch.len(), sel)
    }

    fn eval_input(
        &mut self,
        prog: &ExprProgram,
        input: Input<'_>,
        rows: usize,
        sel: &[u32],
    ) -> Result<(), QueryError> {
        self.ensure(prog.num_regs, rows);
        let mut depth = 0usize;
        for instr in &prog.instrs {
            match instr {
                Instr::AndRhs { lhs } | Instr::OrRhs { lhs } => {
                    let want_truthy_skip = matches!(instr, Instr::OrRhs { .. });
                    while self.masks.len() <= depth {
                        self.masks.push(Vec::new());
                    }
                    let (head, tail) = self.masks.split_at_mut(depth);
                    let cur: &[u32] = if depth == 0 { sel } else { &head[depth - 1] };
                    let next = &mut tail[0];
                    next.clear();
                    let lcol = &self.regs[*lhs as usize];
                    for &i in cur {
                        let v = &lcol[i as usize];
                        // AND evaluates the rhs where the lhs did not
                        // already decide `false` (NULL or truthy); OR
                        // where it did not already decide `true`.
                        let needs_rhs = if want_truthy_skip {
                            !v.is_truthy()
                        } else {
                            v.is_null() || v.is_truthy()
                        };
                        if needs_rhs {
                            next.push(i);
                        }
                    }
                    depth += 1;
                    continue;
                }
                Instr::AndEnd { lhs, rhs, dst } | Instr::OrEnd { lhs, rhs, dst } => {
                    let is_and = matches!(instr, Instr::AndEnd { .. });
                    depth -= 1;
                    let mut dstv = std::mem::take(&mut self.regs[*dst as usize]);
                    {
                        let cur: &[u32] = if depth == 0 {
                            sel
                        } else {
                            &self.masks[depth - 1]
                        };
                        let sub = &self.masks[depth];
                        let lcol = &self.regs[*lhs as usize];
                        let rcol = &self.regs[*rhs as usize];
                        let mut k = 0usize;
                        for &i in cur {
                            let row = i as usize;
                            let in_sub = k < sub.len() && sub[k] == i;
                            dstv[row] = if in_sub {
                                k += 1;
                                let (l, r) = (&lcol[row], &rcol[row]);
                                if is_and {
                                    if !r.is_null() && !r.is_truthy() {
                                        Value::Bool(false)
                                    } else if l.is_null() || r.is_null() {
                                        Value::Null
                                    } else {
                                        Value::Bool(true)
                                    }
                                } else if r.is_truthy() {
                                    Value::Bool(true)
                                } else if l.is_null() || r.is_null() {
                                    Value::Null
                                } else {
                                    Value::Bool(false)
                                }
                            } else {
                                // Short-circuited: AND saw a definite
                                // false, OR a definite true.
                                Value::Bool(!is_and)
                            };
                        }
                    }
                    self.regs[*dst as usize] = dstv;
                    continue;
                }
                _ => {}
            }

            let mut dstv = std::mem::take(&mut self.regs[dst_of(instr) as usize]);
            let res = self.step(instr, prog, input, sel, depth, &mut dstv);
            self.regs[dst_of(instr) as usize] = dstv;
            res?;
        }
        Ok(())
    }

    /// One non-mask instruction over the current selection.
    fn step(
        &mut self,
        instr: &Instr,
        prog: &ExprProgram,
        input: Input<'_>,
        sel: &[u32],
        depth: usize,
        dstv: &mut [Value],
    ) -> Result<(), QueryError> {
        let cur: &[u32] = if depth == 0 {
            sel
        } else {
            &self.masks[depth - 1]
        };
        match instr {
            Instr::Col { col, .. } => match input {
                Input::Rows(recs) => {
                    for &i in cur {
                        dstv[i as usize] = recs[i as usize].value(*col).clone();
                    }
                }
                Input::Batch(b) => {
                    for &i in cur {
                        dstv[i as usize] = b.value_at(i as usize, *col);
                    }
                }
            },
            Instr::Const { idx, .. } => {
                let c = &prog.consts[*idx as usize];
                for &i in cur {
                    dstv[i as usize] = c.clone();
                }
            }
            Instr::Bin { op, a, b, .. } => {
                let acol = &self.regs[*a as usize];
                let bcol = &self.regs[*b as usize];
                for &i in cur {
                    let row = i as usize;
                    dstv[row] = binary_value(*op, &acol[row], &bcol[row])?;
                }
            }
            Instr::BinConst {
                op,
                a,
                idx,
                const_right,
                ..
            } => {
                let c = &prog.consts[*idx as usize];
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    let (l, r) = if *const_right {
                        (&acol[row], c)
                    } else {
                        (c, &acol[row])
                    };
                    dstv[row] = binary_value(*op, l, r)?;
                }
            }
            Instr::Not { a, .. } => {
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    let v = &acol[row];
                    dstv[row] = if v.is_null() {
                        Value::Null
                    } else {
                        Value::Bool(!v.is_truthy())
                    };
                }
            }
            Instr::Neg { a, .. } => {
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    dstv[row] = acol[row].neg()?;
                }
            }
            Instr::IsNull { a, negated, .. } => {
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    dstv[row] = Value::Bool(acol[row].is_null() != *negated);
                }
            }
            Instr::ContainsLit { a, matcher, .. } => {
                let m = &prog.matchers[*matcher as usize];
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    dstv[row] = match_value(&acol[row], &mut self.hbuf, |s| m.is_match(s));
                }
            }
            Instr::ContainsCol { col, matcher, .. } => {
                let m = &prog.matchers[*matcher as usize];
                contains_col(input, *col, cur, dstv, &mut self.hbuf, |s| m.is_match(s));
            }
            Instr::MultiContains { col, matcher, .. } => {
                let m = &prog.multis[*matcher as usize];
                contains_col(input, *col, cur, dstv, &mut self.hbuf, |s| m.is_match(s));
            }
            Instr::ContainsDyn { a, b, .. } => {
                let acol = &self.regs[*a as usize];
                let bcol = &self.regs[*b as usize];
                for &i in cur {
                    let row = i as usize;
                    let (hay, nee) = (&acol[row], &bcol[row]);
                    dstv[row] = if hay.is_null() || nee.is_null() {
                        Value::Null
                    } else {
                        Value::Bool(contains_fold_both(
                            value_as_str(hay, &mut self.hbuf),
                            value_as_str(nee, &mut self.nbuf),
                        ))
                    };
                }
            }
            Instr::Matches { a, regex, .. } => {
                let re = &prog.regexes[*regex as usize];
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    dstv[row] = match_value(&acol[row], &mut self.hbuf, |s| re.is_match(s));
                }
            }
            Instr::InBBox { lat, lon, bbox, .. } => {
                let bb = &prog.bboxes[*bbox as usize];
                for &i in cur {
                    let row = i as usize;
                    let (la, lo) = match input {
                        Input::Rows(recs) => (
                            recs[row].value(*lat).as_float().ok(),
                            recs[row].value(*lon).as_float().ok(),
                        ),
                        Input::Batch(b) => (
                            b.value_at(row, *lat).as_float().ok(),
                            b.value_at(row, *lon).as_float().ok(),
                        ),
                    };
                    dstv[row] = match (la, lo) {
                        (Some(la), Some(lo)) => {
                            Value::Bool(bb.contains(&tweeql_geo::GeoPoint::new(la, lo)))
                        }
                        _ => Value::Bool(false),
                    };
                }
            }
            Instr::InList { a, list, .. } => {
                let l = &prog.lists[*list as usize];
                let acol = &self.regs[*a as usize];
                for &i in cur {
                    let row = i as usize;
                    let v = &acol[row];
                    dstv[row] = if v.is_null() {
                        Value::Null
                    } else {
                        Value::Bool(l.iter().any(|c| c == v))
                    };
                }
            }
            Instr::CallScalar { args_at, argc, .. } | Instr::CallStateful { args_at, argc, .. } => {
                let arg_regs = &prog.call_args[*args_at as usize..(*args_at + *argc) as usize];
                for &i in cur {
                    let row = i as usize;
                    self.argv.clear();
                    for &r in arg_regs {
                        self.argv.push(self.regs[r as usize][row].clone());
                    }
                    dstv[row] = match instr {
                        Instr::CallScalar { udf, .. } => {
                            prog.udfs[*udf as usize].call(&self.argv)?
                        }
                        Instr::CallStateful { slot, .. } => {
                            let ts = match input {
                                Input::Rows(recs) => recs[row].timestamp(),
                                Input::Batch(b) => b.ts(row),
                            };
                            self.ctx.stateful[*slot as usize].call(&self.argv, ts)?
                        }
                        _ => unreachable!("a call instruction"),
                    };
                }
            }
            Instr::AndRhs { .. }
            | Instr::OrRhs { .. }
            | Instr::AndEnd { .. }
            | Instr::OrEnd { .. } => unreachable!("handled in eval_into"),
        }
        Ok(())
    }

    /// Borrow the result value for `row` after [`Self::eval_into`].
    pub fn result(&self, prog: &ExprProgram, row: u32) -> &Value {
        &self.regs[prog.result as usize][row as usize]
    }

    /// Move the result value for `row` out of the register file.
    pub fn take_result(&mut self, prog: &ExprProgram, row: u32) -> Value {
        std::mem::replace(
            &mut self.regs[prog.result as usize][row as usize],
            Value::Null,
        )
    }

    /// Evaluate as a filter: write the subset of `sel_in` whose result
    /// is truthy (SQL semantics: NULL → dropped) into `sel_out`.
    pub fn filter(
        &mut self,
        prog: &ExprProgram,
        recs: &[Record],
        sel_in: &[u32],
        sel_out: &mut Vec<u32>,
    ) -> Result<(), QueryError> {
        self.eval_into(prog, recs, sel_in)?;
        self.keep_truthy(prog, sel_in, sel_out);
        Ok(())
    }

    /// [`Self::filter`] over a columnar [`TweetBatch`].
    pub fn filter_cols(
        &mut self,
        prog: &ExprProgram,
        batch: &TweetBatch,
        sel_in: &[u32],
        sel_out: &mut Vec<u32>,
    ) -> Result<(), QueryError> {
        self.eval_cols(prog, batch, sel_in)?;
        self.keep_truthy(prog, sel_in, sel_out);
        Ok(())
    }

    fn keep_truthy(&self, prog: &ExprProgram, sel_in: &[u32], sel_out: &mut Vec<u32>) {
        let res = &self.regs[prog.result as usize];
        sel_out.clear();
        for &i in sel_in {
            if res[i as usize].is_truthy() {
                sel_out.push(i);
            }
        }
    }

    /// Evaluate against a single record (differential tests).
    pub fn eval_record(&mut self, prog: &ExprProgram, rec: &Record) -> Result<Value, QueryError> {
        self.eval_into(prog, std::slice::from_ref(rec), &[0])?;
        Ok(self.take_result(prog, 0))
    }
}

/// A `contains` result for one haystack value: NULL stays NULL,
/// anything else is matched as text.
#[inline]
fn match_value(v: &Value, buf: &mut SmallBuf, is_match: impl Fn(&str) -> bool) -> Value {
    match v {
        Value::Null => Value::Null,
        other => Value::Bool(is_match(value_as_str(other, buf))),
    }
}

/// `contains` on input column `col` for the rows in `cur`. A columnar
/// batch scans the tweet's own string in place; its fallback mirrors
/// the row path exactly (a pruned-dead column reads NULL via
/// `value_at`).
#[inline]
fn contains_col(
    input: Input<'_>,
    col: usize,
    cur: &[u32],
    dstv: &mut [Value],
    buf: &mut SmallBuf,
    is_match: impl Fn(&str) -> bool,
) {
    match input {
        Input::Rows(recs) => {
            for &i in cur {
                let row = i as usize;
                dstv[row] = match_value(recs[row].value(col), buf, &is_match);
            }
        }
        Input::Batch(b) => {
            for &i in cur {
                let row = i as usize;
                dstv[row] = match b.str_at(row, col) {
                    Some(s) => Value::Bool(is_match(s)),
                    None => match_value(&b.value_at(row, col), buf, &is_match),
                };
            }
        }
    }
}

fn dst_of(instr: &Instr) -> u16 {
    match instr {
        Instr::Col { dst, .. }
        | Instr::Const { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::BinConst { dst, .. }
        | Instr::AndEnd { dst, .. }
        | Instr::OrEnd { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::IsNull { dst, .. }
        | Instr::ContainsLit { dst, .. }
        | Instr::ContainsCol { dst, .. }
        | Instr::MultiContains { dst, .. }
        | Instr::ContainsDyn { dst, .. }
        | Instr::Matches { dst, .. }
        | Instr::InBBox { dst, .. }
        | Instr::InList { dst, .. }
        | Instr::CallScalar { dst, .. }
        | Instr::CallStateful { dst, .. } => *dst,
        Instr::AndRhs { .. } | Instr::OrRhs { .. } => unreachable!("mask push has no dst"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{compile_into, EvalCtx, ExprProgram};
    use crate::parser::parse_expr;
    use crate::udf::{Registry, ServiceConfig};
    use tweeql_model::{DataType, Record, Schema, Timestamp, VirtualClock};

    fn schema() -> tweeql_model::SchemaRef {
        Schema::shared(&[
            ("text", DataType::Str),
            ("followers", DataType::Int),
            ("lat", DataType::Float),
            ("lang", DataType::Str),
        ])
    }

    fn rec(text: &str, followers: i64, lat: Option<f64>) -> Record {
        Record::new(
            schema(),
            vec![
                Value::Str(text.into()),
                Value::Int(followers),
                lat.map(Value::Float).unwrap_or(Value::Null),
                Value::Str("en".into()),
            ],
            Timestamp::ZERO,
        )
        .unwrap()
    }

    fn program(src: &str) -> ExprProgram {
        let ast = parse_expr(src).unwrap();
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        let c = compile_into(&ast, &schema(), &reg, &mut EvalCtx::default()).unwrap();
        ExprProgram::lower(&c).unwrap()
    }

    /// Batch evaluation agrees with the interpreter on a matrix of
    /// expressions × records (the proptest differential suite in
    /// tests/ covers random inputs; this pins the basics).
    #[test]
    fn matches_interpreter_on_basics() {
        let recs = vec![
            rec("Barack Obama speaks", 100, Some(40.0)),
            rec("nothing here", 0, None),
            rec("OBAMA again", -3, Some(1.0)),
        ];
        let exprs = [
            "text contains 'obama'",
            "followers + 1",
            "followers > 0 and lat > 10",
            "followers > 0 or lat > 10",
            "not (lat > 10)",
            "lat is null",
            "upper(lang)",
            "text contains lang",
            "lang in ('en', 'ja')",
        ];
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        let mut vm = BatchVm::new();
        for src in exprs {
            let ast = parse_expr(src).unwrap();
            let mut ctx = EvalCtx::default();
            let c = compile_into(&ast, &schema(), &reg, &mut ctx).unwrap();
            let prog = ExprProgram::lower(&c).unwrap();
            let sel: Vec<u32> = (0..recs.len() as u32).collect();
            vm.eval_into(&prog, &recs, &sel).unwrap();
            for (i, r) in recs.iter().enumerate() {
                let want = c.eval(r, &mut ctx).unwrap();
                assert_eq!(*vm.result(&prog, i as u32), want, "expr {src:?} row {i}");
            }
        }
    }

    /// `OR` must not evaluate its rhs for rows the lhs already decided
    /// — an erroring rhs only fails the rows that reach it.
    #[test]
    fn or_short_circuits_erroring_rhs() {
        let prog = program("followers > 0 or followers / (followers * 0) > 1");
        let mut vm = BatchVm::new();
        // Row passes the lhs: rhs (division by zero → Null, fine) is
        // skipped entirely; result is true.
        let ok = rec("x", 5, None);
        assert_eq!(vm.eval_record(&prog, &ok).unwrap(), Value::Bool(true));
        // Erroring rhs: 'a' + 1 errors only when the lhs is falsy.
        let prog = program("followers > 0 or text + 1 > 0");
        let ok = rec("x", 5, None);
        assert_eq!(vm.eval_record(&prog, &ok).unwrap(), Value::Bool(true));
        let bad = rec("x", 0, None);
        assert!(vm.eval_record(&prog, &bad).is_err());
    }

    #[test]
    fn or_of_contains_fuses_to_multi_needle() {
        let prog = program("text contains 'goal' or text contains 'score'");
        assert_eq!(prog.len(), 1, "expected single MultiContains: {prog:?}");
        let mut vm = BatchVm::new();
        assert_eq!(
            vm.eval_record(&prog, &rec("great GOAL!", 1, None)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            vm.eval_record(&prog, &rec("the score is 2-0", 1, None))
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            vm.eval_record(&prog, &rec("nothing", 1, None)).unwrap(),
            Value::Bool(false)
        );
    }

    /// A stateful call under an `AND` is called for exactly the rows
    /// the interpreter calls it for, in the same order, with the same
    /// timestamps.
    #[test]
    fn stateful_call_sees_the_interpreters_rows_in_order() {
        use crate::udf::StatefulUdf;
        use std::sync::{Arc, Mutex};
        type Log = Arc<Mutex<Vec<(i64, Timestamp)>>>;
        struct Counter(Log);
        impl StatefulUdf for Counter {
            fn call(&mut self, args: &[Value], ts: Timestamp) -> Result<Value, QueryError> {
                let mut log = self.0.lock().unwrap();
                log.push((args[0].as_int()?, ts));
                Ok(Value::Int(log.len() as i64))
            }
        }
        let run = |log: &Log, compiled: bool| {
            let mut reg = Registry::empty();
            let l = Arc::clone(log);
            reg.register_stateful("counter", Arc::new(move || Box::new(Counter(l.clone()))));
            let ast = parse_expr("followers > 0 and counter(followers) % 2 = 0").unwrap();
            let mut ctx = EvalCtx::default();
            let c = compile_into(&ast, &schema(), &reg, &mut ctx).unwrap();
            let recs: Vec<Record> = [5, 0, 7, -1, 9, 3]
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    let values = rec("x", f, None).values().to_vec();
                    Record::new(schema(), values, Timestamp::from_secs(i as i64)).unwrap()
                })
                .collect();
            if compiled {
                let prog = ExprProgram::lower(&c).unwrap();
                let mut vm = BatchVm::with_ctx(ctx);
                let sel: Vec<u32> = (0..recs.len() as u32).collect();
                vm.eval_into(&prog, &recs, &sel).unwrap();
                sel.iter().map(|&i| vm.result(&prog, i).clone()).collect()
            } else {
                recs.iter()
                    .map(|r| c.eval(r, &mut ctx).unwrap())
                    .collect::<Vec<_>>()
            }
        };
        let (interp_log, vm_log) = (Log::default(), Log::default());
        let interp = run(&interp_log, false);
        let vm = run(&vm_log, true);
        assert_eq!(vm, interp);
        let calls = vm_log.lock().unwrap().clone();
        assert_eq!(calls, *interp_log.lock().unwrap());
        let rows: Vec<i64> = calls.iter().map(|(f, _)| *f).collect();
        assert_eq!(rows, vec![5, 7, 9, 3], "only rows the AND lets through");
        assert_eq!(calls[1].1, Timestamp::from_secs(2));
    }

    /// A program past the `u16` register space is a plan error, not a
    /// fallback to the interpreter.
    #[test]
    fn oversized_program_is_a_plan_error() {
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        let wide = crate::expr::CExpr::Scalar {
            udf: reg.scalar("coalesce").unwrap(),
            args: vec![crate::expr::CExpr::Literal(Value::Int(1)); 70_000],
        };
        assert!(matches!(
            ExprProgram::lower(&wide),
            Err(QueryError::Plan(m)) if m.contains("too large")
        ));
    }

    #[test]
    fn filter_shrinks_selection() {
        let prog = program("followers > 0");
        let recs = vec![rec("a", 5, None), rec("b", 0, None), rec("c", 9, None)];
        let mut vm = BatchVm::new();
        let mut out = Vec::new();
        vm.filter(&prog, &recs, &[0, 1, 2], &mut out).unwrap();
        assert_eq!(out, vec![0, 2]);
    }

    /// The columnar input path agrees with the row path instruction by
    /// instruction, materialized or not, on the twitter schema.
    #[test]
    fn columnar_input_matches_row_input() {
        use tweeql_model::batch::all_columns;
        use tweeql_model::record::twitter_schema;
        use tweeql_model::{TweetBatch, User};

        let mut tweets = Vec::new();
        for i in 0..6u64 {
            let mut user = User::new(i, format!("u{i}"));
            user.location = "nyc".into();
            user.followers = (i * 100) as u32;
            let mut b = tweeql_model::Tweet::builder(i, format!("obama speech number {i}"))
                .user(user)
                .at(Timestamp::from_secs(i as i64))
                .lang(if i % 2 == 0 { "en" } else { "es" });
            if i % 3 == 0 {
                b = b.coordinates(40.7, -74.0);
            }
            tweets.push(b.build());
        }
        let mut batch = TweetBatch::new();
        batch.bind_log(&std::sync::Arc::new(tweets));
        batch.extend_indices(&[0, 1, 2, 3, 4, 5]);
        let recs = batch.to_records();
        let sel: Vec<u32> = (0..recs.len() as u32).collect();
        let schema = twitter_schema();
        let reg = Registry::standard(&ServiceConfig::default(), VirtualClock::new());
        let exprs = [
            "text contains 'obama'",
            "text contains 'obama' or text contains 'news'",
            "followers > 100 and lang = 'en'",
            "upper(lang)",
            "in_bbox(lat, lon, 40.0, -75.0, 41.0, -73.0)",
            "followers * 2",
            "lat is null",
        ];
        let mut vm = BatchVm::new();
        for round in 0..2 {
            if round == 1 {
                batch.materialize(&all_columns());
            }
            for src in exprs {
                let Ok(ast) = parse_expr(src) else {
                    continue; // geo predicate syntax may differ
                };
                let Ok(c) = compile_into(&ast, &schema, &reg, &mut EvalCtx::default()) else {
                    continue;
                };
                let prog = ExprProgram::lower(&c).unwrap();
                vm.eval_into(&prog, &recs, &sel).unwrap();
                let row_results: Vec<Value> =
                    sel.iter().map(|&i| vm.result(&prog, i).clone()).collect();
                vm.eval_cols(&prog, &batch, &sel).unwrap();
                for (k, &i) in sel.iter().enumerate() {
                    assert_eq!(
                        *vm.result(&prog, i),
                        row_results[k],
                        "expr {src:?} row {i} round {round}"
                    );
                }
            }
        }
        // Filter parity too.
        let ast = parse_expr("text contains 'obama' and followers >= 0").unwrap();
        let c = compile_into(&ast, &schema, &reg, &mut EvalCtx::default()).unwrap();
        let prog = ExprProgram::lower(&c).unwrap();
        let (mut rows_out, mut cols_out) = (Vec::new(), Vec::new());
        vm.filter(&prog, &recs, &sel, &mut rows_out).unwrap();
        vm.filter_cols(&prog, &batch, &sel, &mut cols_out).unwrap();
        assert_eq!(rows_out, cols_out);
        assert!(!rows_out.is_empty());
    }
}
