//! The compiled fused scan: `WHERE` conjuncts + `SELECT` projection in
//! one operator, evaluated batch-at-a-time over selection vectors.
//!
//! A `filter → project` pair from the planner becomes a single
//! [`FusedScanOp`]: each conjunct is its own [`ExprProgram`] that
//! shrinks the batch's selection vector, the projection programs run
//! only over the survivors, and output records materialize once at the
//! end — no intermediate `Record` vector between the stages. As a
//! pipeline's last stage over the `twitter` stream it builds no record
//! at all: it appends each output column straight onto the pipeline's
//! [`RowBatch`] ([`Operator::on_tweet_batch_rows`]), a bare column
//! reference copied from the tweets and a computed one through the VM.
//!
//! **Adaptive conjunct ordering** (§2's Eddies-style reordering for
//! drifting selectivities, batched): every conjunct carries a
//! [`PredicateStats`] pass-rate estimate fed batch-at-a-time, plus an
//! EWMA of its per-row evaluation cost. Every `rerank_every` batches
//! the measured conjuncts re-sort by drop-rate-per-nanosecond, so a
//! needle going viral (pass rate up) or a cheap predicate turning
//! expensive demotes itself; a conjunct no row has reached yet keeps
//! its place behind them. Because a conjunction's survivor set is
//! order-independent, re-ranking never changes *what* the operator
//! emits — only how much work it does.
//!
//! A later conjunct's pass rate is measured over the rows earlier ones
//! let through; a rank flip re-conditions it.
//!
//! A WHERE that calls a stateful UDF reaches this operator as one
//! conjunct (the planner joins it into one program), so it is never
//! re-ranked: the rows such a call sees are observable.
//!
//! The operator is every scan stage of a non-reference plan: `WHERE`,
//! the plain projection, and over an aggregate's output `HAVING` and
//! the projection back to SELECT order (on the row path there, since
//! that input is not the `twitter` schema).

use super::Operator;
use crate::error::QueryError;
use crate::expr::{BatchVm, CExpr, EvalCtx, ExprProgram};
use std::sync::Arc;
use std::time::Instant;
use tweeql_model::record::twitter_schema;
use tweeql_model::{Record, RowBatch, SchemaRef, Timestamp, TweetBatch, Value};

/// Per-conjunct runtime statistics.
#[derive(Debug, Clone, Copy)]
pub struct PredicateStats {
    /// Rows evaluated.
    pub evaluations: u64,
    /// Rows that passed.
    pub passes: u64,
    /// Exponentially-decayed pass-rate estimate.
    pub est_pass_rate: f64,
}

impl PredicateStats {
    fn new() -> PredicateStats {
        PredicateStats {
            evaluations: 0,
            passes: 0,
            // Optimistic prior; converges fast under decay.
            est_pass_rate: 0.5,
        }
    }

    /// Record a whole micro-batch of outcomes at once: one EWMA step
    /// toward the batch's pass fraction.
    fn observe_batch(&mut self, evals: u64, passes: u64, alpha: f64) {
        if evals == 0 {
            return;
        }
        self.evaluations += evals;
        self.passes += passes;
        let frac = passes as f64 / evals as f64;
        self.est_pass_rate = (1.0 - alpha) * self.est_pass_rate + alpha * frac;
    }
}

/// One compiled `WHERE` conjunct with its runtime counters.
struct Conjunct {
    prog: ExprProgram,
    stats: PredicateStats,
    /// EWMA nanos per input row.
    cost_ewma: f64,
}

/// Compiled projection: one program per output column.
struct Projection {
    cols: Vec<ExprProgram>,
    schema: SchemaRef,
}

/// Fused filter(+projection) operator over compiled programs.
pub struct FusedScanOp {
    conjuncts: Vec<Conjunct>,
    /// Current evaluation order (indexes into `conjuncts`).
    order: Vec<usize>,
    project: Option<Projection>,
    /// Output schema: the projection's, or the input schema when this
    /// is a pure filter.
    schema: SchemaRef,
    label: String,
    vm: BatchVm,
    sel_a: Vec<u32>,
    sel_b: Vec<u32>,
    /// Per-column projection results, indexed `[col][row]`.
    col_scratch: Vec<Vec<Value>>,
    batches: u64,
    rerank_every: u64,
    /// Adaptive re-orderings performed (surfaced as a metric counter).
    reranks: u64,
    alpha: f64,
    /// The input is the twitter stream: the operator takes columnar
    /// batches and reads every value from their tweets, so it builds
    /// no column. Any other input keeps it on the row path.
    twitter: bool,
}

impl FusedScanOp {
    /// Lower compiled conjuncts and an optional projection, both
    /// compiled into `ctx` (which the operator then owns). Fails only
    /// on an expression too large for the VM's indexes.
    pub fn new(
        conjuncts: &[CExpr],
        project: Option<(&[CExpr], SchemaRef)>,
        ctx: EvalCtx,
        input_schema: SchemaRef,
        label: impl Into<String>,
    ) -> Result<FusedScanOp, QueryError> {
        let lowered: Vec<Conjunct> = conjuncts
            .iter()
            .map(|c| {
                Ok(Conjunct {
                    prog: ExprProgram::lower(c)?,
                    stats: PredicateStats::new(),
                    cost_ewma: 0.0,
                })
            })
            .collect::<Result<_, QueryError>>()?;
        let project = match project {
            Some((exprs, schema)) => {
                let cols = exprs
                    .iter()
                    .map(ExprProgram::lower)
                    .collect::<Result<Vec<_>, QueryError>>()?;
                Some(Projection { cols, schema })
            }
            None => None,
        };
        let twitter = Arc::ptr_eq(&input_schema, &twitter_schema());
        let schema = project
            .as_ref()
            .map(|p| p.schema.clone())
            .unwrap_or(input_schema);
        let order = (0..lowered.len()).collect();
        Ok(FusedScanOp {
            conjuncts: lowered,
            order,
            project,
            schema,
            label: label.into(),
            vm: BatchVm::with_ctx(ctx),
            sel_a: Vec::new(),
            sel_b: Vec::new(),
            col_scratch: Vec::new(),
            batches: 0,
            rerank_every: 64,
            reranks: 0,
            alpha: 0.2,
            twitter,
        })
    }

    /// Re-rank every `every` batches (`u64::MAX` freezes plan order).
    pub fn with_rerank_every(mut self, every: u64) -> FusedScanOp {
        self.rerank_every = every.max(1);
        self
    }

    /// Per-conjunct stats, in plan order (not current evaluation order).
    pub fn conjunct_stats(&self) -> Vec<PredicateStats> {
        self.conjuncts.iter().map(|c| c.stats).collect()
    }

    /// Current evaluation order over plan-order conjunct indexes.
    #[cfg(test)]
    pub fn current_order(&self) -> &[usize] {
        &self.order
    }

    /// Re-sort conjuncts by expected cost saved per nanosecond spent:
    /// drop-rate / cost-per-row, highest first. A conjunct with no cost
    /// sample has only its prior, so it stays behind the measured ones
    /// (the sort is stable).
    fn rerank(&mut self) {
        let conj = &self.conjuncts;
        self.order.sort_by(|&a, &b| {
            let score = |i: usize| {
                let c = &conj[i];
                if c.stats.evaluations == 0 {
                    return f64::NEG_INFINITY;
                }
                let drop = 1.0 - c.stats.est_pass_rate;
                drop / c.cost_ewma.max(1.0)
            };
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// Run the conjunct chain over `recs`, leaving the surviving rows
    /// in `self.sel_a` (sorted ascending).
    fn run_filters(&mut self, recs: &[Record]) -> Result<(), QueryError> {
        self.sel_a.clear();
        self.sel_a.extend(0..recs.len() as u32);
        self.run_filter_chain(|vm, prog, sel_in, sel_out| vm.filter(prog, recs, sel_in, sel_out))
    }

    /// [`Self::run_filters`] over the rows of a columnar batch listed
    /// in `sel`. The selection is only where the chain starts: every
    /// conjunct is still evaluated, so a caller's prefilter need only
    /// over-approximate.
    fn run_filters_cols(&mut self, batch: &TweetBatch, sel: &[u32]) -> Result<(), QueryError> {
        self.sel_a.clear();
        self.sel_a.extend_from_slice(sel);
        self.run_filter_chain(|vm, prog, sel_in, sel_out| {
            vm.filter_cols(prog, batch, sel_in, sel_out)
        })
    }

    /// The adaptive conjunct chain over the rows in `self.sel_a`,
    /// generic over how one program is evaluated (row records vs
    /// columnar batch).
    fn run_filter_chain(
        &mut self,
        mut eval: impl FnMut(
            &mut BatchVm,
            &ExprProgram,
            &[u32],
            &mut Vec<u32>,
        ) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        let adaptive = self.conjuncts.len() > 1;
        for k in 0..self.order.len() {
            let ci = self.order[k];
            if self.sel_a.is_empty() {
                break;
            }
            let in_len = self.sel_a.len();
            let t0 = adaptive.then(Instant::now);
            let c = &mut self.conjuncts[ci];
            eval(&mut self.vm, &c.prog, &self.sel_a, &mut self.sel_b)?;
            if let Some(t0) = t0 {
                let per_row = t0.elapsed().as_nanos() as f64 / in_len as f64;
                c.cost_ewma = if c.cost_ewma == 0.0 {
                    per_row
                } else {
                    0.8 * c.cost_ewma + 0.2 * per_row
                };
                c.stats
                    .observe_batch(in_len as u64, self.sel_b.len() as u64, self.alpha);
            }
            std::mem::swap(&mut self.sel_a, &mut self.sel_b);
        }
        if adaptive {
            self.batches += 1;
            if self.batches.is_multiple_of(self.rerank_every) {
                self.rerank();
                self.reranks += 1;
            }
        }
        Ok(())
    }

    /// Push one projected record per row in `self.sel_a`, of an input
    /// `rows` long: each output column is evaluated over the survivors
    /// (`eval` runs one program) into `col_scratch`, and each record
    /// then takes its values from there, stamped `ts(row)`.
    fn project_rows(
        &mut self,
        rows: usize,
        mut eval: impl FnMut(&mut BatchVm, &ExprProgram, &[u32]) -> Result<(), QueryError>,
        ts: impl Fn(usize) -> Timestamp,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        let Some(p) = &self.project else {
            return Ok(());
        };
        if self.col_scratch.len() < p.cols.len() {
            self.col_scratch.resize_with(p.cols.len(), Vec::new);
        }
        for (prog, buf) in p.cols.iter().zip(&mut self.col_scratch) {
            eval(&mut self.vm, prog, &self.sel_a)?;
            if buf.len() < rows {
                buf.resize(rows, Value::Null);
            }
            for &i in &self.sel_a {
                buf[i as usize] = self.vm.take_result(prog, i);
            }
        }
        out.reserve(self.sel_a.len());
        for &i in &self.sel_a {
            let i = i as usize;
            let values = (self.col_scratch.iter_mut().take(p.cols.len()))
                .map(|col| std::mem::replace(&mut col[i], Value::Null))
                .collect();
            out.push(Record::new_unchecked(p.schema.clone(), values, ts(i)));
        }
        Ok(())
    }

    /// Append the rows in `self.sel_a` to `out`, one column at a time:
    /// a bare column reference is copied from the tweets, a computed
    /// one evaluated by the VM and moved in. A failed evaluation leaves
    /// the columns of unequal length; the caller truncates.
    fn write_rows(&mut self, batch: &TweetBatch, out: &mut RowBatch) -> Result<(), QueryError> {
        let sel = &self.sel_a;
        match &self.project {
            None => {
                for (c, col) in out.columns_mut().iter_mut().enumerate() {
                    col.extend_from(batch, c, sel);
                }
            }
            Some(p) => {
                for (prog, col) in p.cols.iter().zip(out.columns_mut()) {
                    match prog.column() {
                        Some(c) => col.extend_from(batch, c, sel),
                        None => {
                            self.vm.eval_cols(prog, batch, sel)?;
                            for &i in sel {
                                col.push_value(self.vm.take_result(prog, i));
                            }
                        }
                    }
                }
            }
        }
        out.extend_ts(batch, sel);
        Ok(())
    }
}

impl Operator for FusedScanOp {
    fn name(&self) -> &str {
        &self.label
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn on_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        self.run_filters(recs)?;
        match &self.project {
            None => {
                // Pure filter: move the surviving records through.
                out.reserve(self.sel_a.len());
                let mut keep = self.sel_a.iter().peekable();
                for (i, rec) in recs.drain(..).enumerate() {
                    if keep.peek() == Some(&&(i as u32)) {
                        keep.next();
                        out.push(rec);
                    }
                }
            }
            Some(_) => {
                let rows = &recs[..];
                self.project_rows(
                    rows.len(),
                    |vm, prog, sel| vm.eval_into(prog, rows, sel),
                    |i| rows[i].timestamp(),
                    out,
                )?;
                recs.clear();
            }
        }
        Ok(())
    }

    fn reads_tweet_batch(&self) -> bool {
        self.twitter
    }

    fn on_tweet_batch(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        // Asked only of a stage that reads the batch: a twitter scan.
        debug_assert!(self.twitter);
        self.run_filters_cols(batch, sel)?;
        match &self.project {
            None => {
                // Pure filter: materialize survivors straight from the
                // batch — non-survivors never become `Record`s at all.
                out.reserve(self.sel_a.len());
                for &i in &self.sel_a {
                    out.push(batch.record_at(i as usize));
                }
            }
            // Input rows are never materialized.
            Some(_) => self.project_rows(
                batch.len(),
                |vm, prog, sel| vm.eval_cols(prog, batch, sel),
                |i| batch.ts(i),
                out,
            )?,
        }
        Ok(())
    }

    fn on_tweet_batch_rows(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        rows: &mut Vec<Record>,
        out: &mut RowBatch,
    ) -> Result<(), QueryError> {
        // Asked only of a stage that reads the batch: a twitter scan.
        debug_assert!(self.twitter && rows.is_empty());
        self.run_filters_cols(batch, sel)?;
        let before = out.len();
        let res = self.write_rows(batch, out);
        if res.is_err() {
            out.truncate(before);
        }
        res
    }

    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        if self.conjuncts.len() > 1 {
            vec![("conjunct_reranks", self.reranks)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{compile_into, EvalCtx};
    use crate::parser::parse_expr;
    use crate::udf::Registry;
    use tweeql_model::{DataType, Schema, Timestamp, Value};

    fn schema() -> SchemaRef {
        Schema::shared(&[
            ("text", DataType::Str),
            ("followers", DataType::Int),
            ("lang", DataType::Str),
        ])
    }

    fn rec(text: &str, followers: i64) -> Record {
        Record::new(
            schema(),
            vec![
                Value::Str(text.into()),
                Value::Int(followers),
                Value::Str("en".into()),
            ],
            Timestamp::from_secs(5),
        )
        .unwrap()
    }

    fn cexprs(srcs: &[&str]) -> Vec<CExpr> {
        let mut reg = Registry::empty();
        crate::expr::functions::register_builtins(&mut reg);
        let mut ctx = EvalCtx::default();
        srcs.iter()
            .map(|s| compile_into(&parse_expr(s).unwrap(), &schema(), &reg, &mut ctx).unwrap())
            .collect()
    }

    #[test]
    fn fused_filter_project_matches_expected() {
        let conj = cexprs(&["text contains 'obama'", "followers > 10"]);
        let proj = cexprs(&["upper(lang)", "followers * 2"]);
        let out_schema = Schema::shared(&[("l", DataType::Str), ("f2", DataType::Int)]);
        let mut op = FusedScanOp::new(
            &conj,
            Some((&proj, out_schema)),
            EvalCtx::default(),
            schema(),
            "where+project",
        )
        .unwrap();
        let mut batch = vec![
            rec("Obama speaks", 100),
            rec("obama again", 5), // fails followers
            rec("unrelated", 100), // fails contains
            rec("OBAMA III", 11),
        ];
        let mut out = Vec::new();
        op.on_batch(&mut batch, &mut out).unwrap();
        assert!(batch.is_empty(), "on_batch must drain its input");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value(0), &Value::Str("EN".into()));
        assert_eq!(out[0].value(1), &Value::Int(200));
        assert_eq!(out[1].value(1), &Value::Int(22));
        assert_eq!(out[0].timestamp(), Timestamp::from_secs(5));
    }

    #[test]
    fn pure_filter_moves_records() {
        let conj = cexprs(&["followers > 10"]);
        let mut op = FusedScanOp::new(&conj, None, EvalCtx::default(), schema(), "where").unwrap();
        let mut batch = vec![rec("a", 100), rec("b", 1), rec("c", 50)];
        let mut out = Vec::new();
        op.on_batch(&mut batch, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value(1), &Value::Int(100));
        assert_eq!(out[1].value(1), &Value::Int(50));
    }

    #[test]
    fn adaptive_order_puts_selective_conjunct_first() {
        // Conjunct 0 passes everything; conjunct 1 drops everything.
        let conj = cexprs(&["followers >= 0", "followers > 1000000"]);
        let mut op = FusedScanOp::new(&conj, None, EvalCtx::default(), schema(), "where")
            .unwrap()
            .with_rerank_every(4);
        let mut out = Vec::new();
        for _ in 0..32 {
            let mut batch: Vec<Record> = (0..64).map(|i| rec("x", i)).collect();
            op.on_batch(&mut batch, &mut out).unwrap();
        }
        assert!(out.is_empty());
        assert_eq!(
            op.current_order()[0],
            1,
            "selective conjunct should be evaluated first: {:?}",
            op.conjunct_stats()
        );
        // Once the order flips, conjunct 0 stops being evaluated.
        let stats = op.conjunct_stats();
        assert!(stats[1].evaluations > stats[0].evaluations, "{stats:?}");
    }

    #[test]
    fn unmeasured_conjunct_stays_behind_measured_ones() {
        // Conjunct 0 drops everything, so conjunct 1 never sees a row
        // and keeps only its prior: re-ranking must not promote it.
        let conj = cexprs(&["followers < 0", "followers >= 0"]);
        let mut op = FusedScanOp::new(&conj, None, EvalCtx::default(), schema(), "where")
            .unwrap()
            .with_rerank_every(4);
        let mut out = Vec::new();
        for _ in 0..16 {
            let mut batch: Vec<Record> = (0..64).map(|i| rec("x", i)).collect();
            op.on_batch(&mut batch, &mut out).unwrap();
        }
        assert!(out.is_empty());
        assert_eq!(op.current_order(), &[0, 1]);
        assert_eq!(op.conjunct_stats()[1].evaluations, 0);
    }

    mod columnar {
        use super::*;
        use crate::exec::Pipeline;
        use proptest::prelude::*;
        use tweeql_model::{Tweet, TweetBatch, User};

        fn tweets() -> Vec<Tweet> {
            (0..40u64)
                .map(|i| {
                    let mut user = User::new(i * 7, format!("user{i}"));
                    user.followers = (i * 5) as u32;
                    user.location = if i % 3 == 0 { "NYC".into() } else { "".into() };
                    let text = if i % 4 == 0 {
                        format!("obama rally {i}")
                    } else {
                        format!("weather report {i}")
                    };
                    let mut b = Tweet::builder(i, text)
                        .user(user)
                        .at(Timestamp::from_secs(100 + i as i64))
                        .lang(if i % 2 == 0 { "en" } else { "ja" });
                    if i % 5 == 0 {
                        b = b.coordinates(40.0 + i as f64 * 0.01, -74.0);
                    }
                    if i % 6 == 0 && i > 0 {
                        b = b.retweet_of(i - 1);
                    }
                    b.build()
                })
                .collect()
        }

        fn tcexprs(srcs: &[&str]) -> Vec<CExpr> {
            let mut reg = Registry::empty();
            crate::expr::functions::register_builtins(&mut reg);
            let mut ctx = EvalCtx::default();
            let schema = twitter_schema();
            srcs.iter()
                .map(|s| compile_into(&parse_expr(s).unwrap(), &schema, &reg, &mut ctx).unwrap())
                .collect()
        }

        fn batch_of(src: Vec<Tweet>) -> TweetBatch {
            let log = std::sync::Arc::new(src);
            let mut batch = TweetBatch::new();
            batch.bind_log(&log);
            batch.extend_indices(&(0..log.len() as u32).collect::<Vec<_>>());
            batch
        }

        fn run_both(mut op: FusedScanOp) -> (Vec<Record>, Vec<Record>) {
            let src = tweets();
            let mut rows: Vec<Record> = src.iter().map(Record::from_tweet).collect();
            let mut row_out = Vec::new();
            op.on_batch(&mut rows, &mut row_out).unwrap();

            assert!(op.reads_tweet_batch(), "twitter input must opt in");
            let batch = batch_of(src);
            let full: Vec<u32> = (0..batch.len() as u32).collect();
            let mut col_out = Vec::new();
            op.on_tweet_batch(&batch, &full, &mut col_out).unwrap();
            (row_out, col_out)
        }

        #[test]
        fn filter_project_matches_row_path() {
            let conj = tcexprs(&["text contains 'obama'", "followers > 10"]);
            let proj = tcexprs(&["upper(lang)", "followers * 2"]);
            let out_schema = Schema::shared(&[("l", DataType::Str), ("f2", DataType::Int)]);
            let op = FusedScanOp::new(
                &conj,
                Some((&proj, out_schema)),
                EvalCtx::default(),
                twitter_schema(),
                "where+project",
            )
            .unwrap();
            let (row_out, col_out) = run_both(op);
            assert!(!row_out.is_empty(), "query must select something");
            assert_eq!(row_out, col_out);
        }

        #[test]
        fn pure_filter_matches_row_path() {
            let conj = tcexprs(&["lang = 'en'"]);
            let op = FusedScanOp::new(&conj, None, EvalCtx::default(), twitter_schema(), "where")
                .unwrap();
            let (row_out, col_out) = run_both(op);
            assert_eq!(row_out.len(), 20);
            assert_eq!(row_out, col_out);
        }

        /// A scan reads every value from the tweets, a `contains`
        /// included: its head takes the batch and views no column.
        #[test]
        fn pipeline_materializes_only_what_the_head_reads() {
            let conj = tcexprs(&["lang contains 'en'", "followers >= 0"]);
            let op = FusedScanOp::new(&conj, None, EvalCtx::default(), twitter_schema(), "where")
                .unwrap();
            assert!(op.reads_tweet_batch());
            let mut pipeline = Pipeline::new(vec![Box::new(op)]);
            let batch = batch_of(tweets());
            let full: Vec<u32> = (0..batch.len() as u32).collect();
            let mut out = RowBatch::new(twitter_schema());
            pipeline.push_tweet_batch(&batch, &full, &mut out).unwrap();
            assert_eq!(out.len(), 20);
            let stats = batch.decode_stats();
            assert_eq!(stats.columns_materialized, 0, "nothing built");
            assert_eq!(stats.columns_skipped, 0, "nothing viewed");
            assert_eq!(stats.dict_rows, 0, "no dictionary either");
        }

        #[test]
        fn non_twitter_schema_stays_on_row_path() {
            let conj = cexprs(&["followers > 10"]);
            let op = FusedScanOp::new(&conj, None, EvalCtx::default(), schema(), "where").unwrap();
            assert!(!op.reads_tweet_batch());
        }

        /// The three operator shapes the planner lowers to. The
        /// projection mixes computed columns with bare references of
        /// every type the `twitter` schema has.
        fn shape(which: usize) -> FusedScanOp {
            let conj = tcexprs(&["text contains 'obama'", "followers > 10"]);
            let proj = tcexprs(&[
                "upper(lang)",
                "followers * 2",
                "loc",
                "text",
                "created_at",
                "lat",
                "retweet_of",
            ]);
            let out_schema = Schema::shared(&[
                ("l", DataType::Str),
                ("f2", DataType::Int),
                ("loc", DataType::Str),
                ("text", DataType::Str),
                ("created_at", DataType::Time),
                ("lat", DataType::Float),
                ("retweet_of", DataType::Int),
            ]);
            match which {
                0 => FusedScanOp::new(&conj, None, EvalCtx::default(), twitter_schema(), "where"),
                1 => FusedScanOp::new(
                    &[],
                    Some((&proj, out_schema)),
                    EvalCtx::default(),
                    twitter_schema(),
                    "p",
                ),
                _ => FusedScanOp::new(
                    &conj,
                    Some((&proj, out_schema)),
                    EvalCtx::default(),
                    twitter_schema(),
                    "wp",
                ),
            }
            .unwrap()
        }

        fn counts(p: &Pipeline) -> Vec<(u64, u64, u64)> {
            p.stage_stats()
                .iter()
                .map(|(_, s)| (s.records_in, s.records_out, s.batches))
                .collect()
        }

        proptest! {
            /// A lone scan's columns written straight into the output
            /// batch are `on_batch` over the selected rows decoded one
            /// by one: same rows, same order, same stage counts — for
            /// empty, full and sparse selections.
            #[test]
            fn selection_ingest_matches_row_ingest(
                which in 0usize..3,
                // Share of rows selected, in tenths: 0 is the empty
                // selection, 10 the full one, 1 a sparse one.
                density in 0u8..=10,
                draws in collection::vec(0u8..10, 40..41),
            ) {
                let sel: Vec<u32> = (0..40u32).filter(|&i| draws[i as usize] < density).collect();
                let batch = batch_of(tweets());

                let mut rows = Pipeline::new(vec![Box::new(shape(which))]);
                let mut recs: Vec<Record> =
                    sel.iter().map(|&i| batch.record_at(i as usize)).collect();
                let schema = rows.output_schema().unwrap();
                let mut row_out = RowBatch::new(schema.clone());
                rows.push_batch(&mut recs, &mut row_out).unwrap();

                let mut cols = Pipeline::new(vec![Box::new(shape(which))]);
                let mut col_out = RowBatch::new(schema);
                cols.push_tweet_batch(&batch, &sel, &mut col_out).unwrap();

                let (row_out, col_out) = (row_out.into_records(), col_out.into_records());
                prop_assert_eq!(format!("{row_out:?}"), format!("{col_out:?}"));
                prop_assert_eq!(counts(&rows), counts(&cols));
            }
        }
    }
}
