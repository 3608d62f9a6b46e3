//! The windowed GROUP BY / aggregation operator.
//!
//! Three window policies (§2 "Uneven Aggregate Groups"):
//!
//! * **time** — aligned tumbling windows (`WINDOW 3 hours`), flushed by
//!   watermark/record progress;
//! * **count** — per-group count windows (`WINDOW 100 TUPLES`);
//! * **confidence** — CONTROL-style (`WINDOW CONFIDENCE 0.1 MAX 3
//!   hours`): each group emits as soon as its first AVG aggregate
//!   reaches the CI target, so dense groups (Tokyo) emit quickly and
//!   sparse groups (Cape Town) are not averaged over stale data.
//!
//! Output layout is canonical: group-key columns first (in GROUP BY
//! order), then one column per aggregate. The planner adds a downstream
//! projection to restore SELECT order.

use super::confidence::ConfidenceTracker;
use super::keys::{key_hash, KeyParts, KeyTable, StrSet};
use super::topk::SpaceSaving;
use super::{earlier, Operator};
use crate::ast::AggFunc;
use crate::error::QueryError;
use std::borrow::Borrow;
use std::sync::Arc;
use tweeql_model::batch::col;
use tweeql_model::record::twitter_schema;
use tweeql_model::{
    ColumnView, Duration, Record, SchemaRef, Timestamp, TweetBatch, Value, ValueRef,
};

/// Window policy (compiled form of [`crate::ast::WindowSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WindowPolicy {
    /// Aggregate the whole stream, flush at end.
    Unbounded,
    /// Aligned tumbling time windows.
    Time(Duration),
    /// Per-group count windows.
    Count(u64),
    /// CONTROL-style confidence windows on the first AVG aggregate.
    Confidence {
        /// CI half-width target.
        epsilon: f64,
        /// Emission deadline.
        max_age: Option<Duration>,
    },
    /// Overlapping (hopping) windows: length `size`, advancing `slide`.
    Sliding {
        /// Window length.
        size: Duration,
        /// Hop between window starts.
        slide: Duration,
    },
}

/// One aggregate to compute.
pub struct AggExpr {
    /// Which function.
    pub func: AggFunc,
    /// The input column holding its argument (None only for COUNT(*)).
    pub arg: Option<usize>,
}

/// Running state for one aggregate in one group.
enum AggState {
    Count(u64),
    Sum { sum: f64, seen: bool },
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
    StdDev(ConfidenceTracker),
    CountDistinct(Distinct),
    TopK { sketch: SpaceSaving, k: usize },
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::StdDev => AggState::StdDev(ConfidenceTracker::new()),
            AggFunc::CountDistinct => AggState::CountDistinct(Distinct::default()),
            AggFunc::TopK(k) => AggState::TopK {
                // 8× headroom keeps heavy hitters accurate under churn.
                sketch: SpaceSaving::new((k as usize) * 8 + 8),
                k: k as usize,
            },
        }
    }

    /// Ingest one value (None = COUNT(*) with no argument), read through
    /// a view; `own` builds the `Value` itself and is called only when
    /// the state keeps it — a new minimum, a new distinct member.
    fn update(&mut self, v: Option<ValueRef<'_>>, own: impl FnOnce() -> Value, ts: Timestamp) {
        match self {
            AggState::Count(n) => {
                // COUNT(expr) skips NULLs; COUNT(*) counts rows.
                if v.is_none_or(|x| !x.is_null()) {
                    *n += 1;
                }
            }
            AggState::Sum { sum, seen } => {
                if let Some(f) = v.and_then(|x| x.as_float()) {
                    *sum += f;
                    *seen = true;
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(f) = v.and_then(|x| x.as_float()) {
                    *sum += f;
                    *n += 1;
                }
            }
            AggState::Min(cur) => keep_if(cur, v, own, std::cmp::Ordering::Less),
            AggState::Max(cur) => keep_if(cur, v, own, std::cmp::Ordering::Greater),
            AggState::StdDev(t) => {
                if let Some(f) = v.and_then(|x| x.as_float()) {
                    t.observe(f, ts);
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(x) = v {
                    set.insert(x, own);
                }
            }
            AggState::TopK { sketch, .. } => match v {
                None | Some(ValueRef::Null) => {}
                // Lists (e.g. urls(text)) contribute each element.
                Some(ValueRef::List(items)) => {
                    for it in items.iter().filter(|it| !it.is_null()) {
                        sketch.observe(it);
                    }
                }
                Some(_) => sketch.observe(&own()),
            },
        }
    }

    fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum { sum, seen } => {
                if *seen {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::StdDev(t) => t
                .variance()
                .map(|v| Value::Float(v.sqrt()))
                .unwrap_or(Value::Null),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::TopK { sketch, k } => Value::List(
                sketch
                    .top(*k)
                    .into_iter()
                    .map(|(item, _, _)| item)
                    .collect(),
            ),
        }
    }
}

/// `count(distinct …)`'s members: strings in a set that owns their
/// bytes, every other member as a `Value` (`Int(1)` and `Float(1.0)` one
/// member). A string never equals a non-string, so the two sets never
/// share a member.
#[derive(Default)]
struct Distinct {
    strs: StrSet,
    other: KeyTable<Value, ()>,
}

impl Distinct {
    /// Add `v` unless it is NULL; `own` builds a non-string member that
    /// is new.
    fn insert(&mut self, v: ValueRef<'_>, own: impl FnOnce() -> Value) {
        match v {
            ValueRef::Null => {}
            ValueRef::Str(s) => {
                self.strs.insert(s);
            }
            x => {
                self.other.get_or_insert_with(key_hash(&x), &x, own, || ());
            }
        }
    }

    fn len(&self) -> usize {
        self.strs.len() + self.other.len()
    }
}

/// MIN/MAX step: `v` replaces `cur` when it compares strictly `better`
/// (so the first-seen value wins ties) or is the first non-NULL seen.
fn keep_if(
    cur: &mut Option<Value>,
    v: Option<ValueRef<'_>>,
    own: impl FnOnce() -> Value,
    better: std::cmp::Ordering,
) {
    if let Some(x) = v {
        if !x.is_null()
            && cur
                .as_ref()
                .is_none_or(|c| x.compare(ValueRef::from(c)) == Some(better))
        {
            *cur = Some(own());
        }
    }
}

struct Group {
    states: Vec<AggState>,
    /// Tuples in the group (count windows).
    n: u64,
    /// Confidence tracking of the target aggregate.
    confidence: ConfidenceTracker,
    /// Latest contributing tuple time (emitted record timestamp).
    last_ts: Timestamp,
}

impl Group {
    fn new(funcs: &[AggFunc], ts: Timestamp) -> Group {
        Group {
            states: funcs.iter().map(|&f| AggState::new(f)).collect(),
            n: 0,
            confidence: ConfidenceTracker::new(),
            last_ts: ts,
        }
    }

    /// Fold one tuple's aggregate arguments in.
    fn update(&mut self, t: &Tuple<'_>, ts: Timestamp) {
        self.n += 1;
        self.last_ts = ts;
        for (a, state) in self.states.iter_mut().enumerate() {
            state.update(t.arg(a), || t.arg_value(a), ts);
        }
    }
}

/// The input columns holding the group key and each aggregate's
/// argument: what a [`Tuple`] reads its row through.
#[derive(Default)]
struct Columns {
    keys: Vec<usize>,
    /// `None` for `COUNT(*)`.
    args: Vec<Option<usize>>,
    /// The columnar head, on the `twitter` stream: every column a key
    /// or an argument reads, what the head views of the batch.
    needed: Option<[bool; col::COUNT]>,
}

impl Columns {
    fn of(keys: Vec<usize>, args: Vec<Option<usize>>, input_schema: &SchemaRef) -> Columns {
        let needed = Arc::ptr_eq(input_schema, &twitter_schema()).then(|| {
            let mut needed = [false; col::COUNT];
            for &c in keys.iter().chain(args.iter().flatten()) {
                needed[c] = true;
            }
            needed
        });
        Columns { keys, args, needed }
    }
}

/// One segment's key and argument columns, each resolved once — what
/// a [`Tuple::Views`] reads its row from.
struct Views<'a> {
    batch: &'a TweetBatch,
    cols: &'a Columns,
    /// By column index; [`ColumnView::Null`] for a column no key or
    /// argument reads.
    views: [ColumnView<'a>; col::COUNT],
    /// A key that is one dictionary column: its codes, and each code's
    /// [`key_hash`].
    dict_key: Option<(&'a [u32], &'a [u64])>,
}

impl<'a> Views<'a> {
    /// Resolve `cols` over `batch`, viewing each column they read (the
    /// batch builds it if no reader has yet); `code_hashes` is filled
    /// for a dictionary key.
    fn resolve(
        batch: &'a TweetBatch,
        cols: &'a Columns,
        needed: &[bool; col::COUNT],
        code_hashes: &'a mut Vec<u64>,
    ) -> Views<'a> {
        let views = std::array::from_fn(|c| match needed[c] {
            true => batch.view(c),
            false => ColumnView::Null,
        });
        code_hashes.clear();
        let mut dict_key = None;
        if let [k] = cols.keys[..] {
            if let ColumnView::Dict { codes, dict } = views[k] {
                code_hashes.extend(dict.iter().map(|s| key_hash(&ValueRef::Str(s))));
                dict_key = Some((codes, &code_hashes[..]));
            }
        }
        Views {
            batch,
            cols,
            views,
            dict_key,
        }
    }

    /// Read the first byte of each selected row's string in every
    /// string view. A string view reaches a row's string through its
    /// tweet, dependent loads that the ingest loop, which probes its
    /// tables between reads, would wait on one at a time; a loop that
    /// does nothing else overlaps them, and the ingest finds them
    /// cached.
    fn touch_strings(&self, sel: &[u32]) {
        for view in &self.views {
            if let ColumnView::Str { batch, field } = *view {
                let first_bytes = sel.iter().map(|&i| {
                    let s = field(batch.tweet_at(i as usize));
                    s.as_bytes().first().map_or(0, |&b| usize::from(b))
                });
                std::hint::black_box(first_bytes.sum::<usize>());
            }
        }
    }
}

/// One tuple's group key and aggregate arguments, read where they are.
///
/// The operator probes its tables with this (it is a [`KeyParts`]) and
/// folds the arguments through [`ValueRef`]s; the `*_value` accessors
/// build the owned `Value`s and are called only when a table keeps one.
#[derive(Clone, Copy)]
enum Tuple<'a> {
    /// One input record, read by column.
    Values(&'a Record, &'a Columns),
    /// One row of a segment's resolved columns.
    Views { seg: &'a Views<'a>, row: usize },
}

impl Tuple<'_> {
    /// The key's [`key_hash`]: for a dictionary key, its code's.
    fn key_hash(&self) -> u64 {
        match *self {
            Tuple::Views {
                seg:
                    Views {
                        dict_key: Some((codes, hashes)),
                        ..
                    },
                row,
            } => hashes[codes[row] as usize],
            _ => key_hash(self),
        }
    }

    fn key_values(&self) -> Vec<Value> {
        match *self {
            Tuple::Values(rec, cols) => cols.keys.iter().map(|&c| rec.value(c).clone()).collect(),
            Tuple::Views { seg, row } => (seg.cols.keys.iter())
                .map(|&c| seg.batch.value_at(row, c))
                .collect(),
        }
    }

    /// Argument `a`; `None` for `COUNT(*)`.
    fn arg(&self, a: usize) -> Option<ValueRef<'_>> {
        match *self {
            Tuple::Values(rec, cols) => cols.args[a].map(|c| ValueRef::from(rec.value(c))),
            Tuple::Views { seg, row } => seg.cols.args[a].map(|c| seg.views[c].get(row)),
        }
    }

    /// Argument `a` as a `Value`; one read off the batch shares the
    /// tweet's own allocation.
    fn arg_value(&self, a: usize) -> Value {
        match *self {
            Tuple::Values(rec, cols) => cols.args[a].map_or(Value::Null, |c| rec.value(c).clone()),
            Tuple::Views { seg, row } => {
                seg.cols.args[a].map_or(Value::Null, |c| seg.batch.value_at(row, c))
            }
        }
    }
}

impl KeyParts for Tuple<'_> {
    fn len(&self) -> usize {
        match *self {
            Tuple::Values(_, cols) => cols.keys.len(),
            Tuple::Views { seg, .. } => seg.cols.keys.len(),
        }
    }

    fn part(&self, k: usize) -> ValueRef<'_> {
        match *self {
            Tuple::Values(rec, cols) => ValueRef::from(rec.value(cols.keys[k])),
            Tuple::Views { seg, row } => seg.views[seg.cols.keys[k]].get(row),
        }
    }
}

/// One window's groups.
type Groups = KeyTable<Vec<Value>, Group>;

/// Groups in emission order: by the display rendering of the key, the
/// values' types breaking ties (`'1'` and `1` render alike), each
/// rendering built once. What every flush and the state digest walk, so
/// nothing observable follows the table's own order.
fn sorted_groups<K: Borrow<Vec<Value>>, G>(
    groups: impl IntoIterator<Item = (K, G)>,
) -> Vec<(K, G)> {
    let type_tag = |v: &Value| match v {
        Value::Null => 0u8,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Time(_) => 5,
        Value::List(_) => 6,
    };
    let mut entries: Vec<(K, G)> = groups.into_iter().collect();
    entries.sort_by_cached_key(|(k, _)| {
        let key: &Vec<Value> = k.borrow();
        let rendered: Vec<String> = key.iter().map(|v| v.to_string()).collect();
        let tags: Vec<u8> = key.iter().map(type_tag).collect();
        (rendered.join("\u{1}"), tags)
    });
    entries
}

/// The aggregation operator.
pub struct AggregateOp {
    funcs: Vec<AggFunc>,
    columns: Columns,
    policy: WindowPolicy,
    schema: SchemaRef,
    groups: Groups,
    /// Exclusive end of the current time window.
    window_end: Option<Timestamp>,
    /// Sliding-window state: window start (ms) → groups.
    sliding: std::collections::BTreeMap<i64, Groups>,
    /// Index of the aggregate driving confidence emission.
    confidence_target: usize,
    /// Source coverage gaps reported by the supervisor, `[from, to)`.
    gaps: Vec<(Timestamp, Timestamp)>,
    /// Window flushes that emitted at least one group. For count and
    /// confidence windows each group emission is its own window close.
    windows_emitted: u64,
    /// Confidence-window emissions (CI target met or deadline hit).
    confidence_emits: u64,
    /// A dictionary key's per-code hashes, reused across segments.
    code_hashes: Vec<u64>,
}

impl AggregateOp {
    /// Build. `schema` must be `[keys..., aggs...]`; `keys` and the
    /// aggregate arguments are columns of `input_schema`. For
    /// `WindowPolicy::Confidence`, `confidence_target` is the index
    /// (into `aggs`) of the AVG whose CI is tracked.
    pub fn new(
        keys: Vec<usize>,
        aggs: Vec<AggExpr>,
        policy: WindowPolicy,
        input_schema: &SchemaRef,
        schema: SchemaRef,
        confidence_target: usize,
    ) -> AggregateOp {
        debug_assert_eq!(schema.len(), keys.len() + aggs.len());
        let (funcs, args) = aggs.into_iter().map(|a| (a.func, a.arg)).unzip();
        AggregateOp {
            funcs,
            columns: Columns::of(keys, args, input_schema),
            code_hashes: Vec::new(),
            policy,
            schema,
            groups: Groups::default(),
            window_end: None,
            sliding: std::collections::BTreeMap::new(),
            confidence_target,
            gaps: Vec::new(),
            windows_emitted: 0,
            confidence_emits: 0,
        }
    }

    /// Keep the columnar head (`true`), or take rows only: the
    /// reference plan's row decode.
    pub(crate) fn columnar(mut self, on: bool) -> AggregateOp {
        if !on {
            self.columns.needed = None;
        }
        self
    }

    fn emit_group(&self, key: &[Value], g: &Group, out: &mut Vec<Record>) {
        let mut values = Vec::with_capacity(self.schema.len());
        values.extend(key.iter().cloned());
        for s in &g.states {
            values.push(s.finalize());
        }
        out.push(Record::new_unchecked(
            self.schema.clone(),
            values,
            g.last_ts,
        ));
    }

    /// Emit every group of one closed window, in [`sorted_groups`] order.
    fn flush_groups(&mut self, groups: Groups, out: &mut Vec<Record>) {
        if !groups.is_empty() {
            self.windows_emitted += 1;
        }
        for (key, group) in sorted_groups(groups.into_entries()) {
            self.emit_group(&key, &group, out);
        }
    }

    fn flush_all(&mut self, out: &mut Vec<Record>) {
        let groups = std::mem::take(&mut self.groups);
        self.flush_groups(groups, out);
    }

    fn advance_time_windows(&mut self, now: Timestamp, out: &mut Vec<Record>) {
        match self.policy {
            WindowPolicy::Time(_) => {
                if let Some(end) = self.window_end {
                    if now >= end {
                        self.flush_all(out);
                        self.window_end = None;
                    }
                }
            }
            WindowPolicy::Sliding { size, .. } => {
                // Flush every window whose end has passed, oldest first.
                let due: Vec<i64> = self
                    .sliding
                    .range(..=now.millis().saturating_sub(size.millis()))
                    .map(|(&s, _)| s)
                    .collect();
                for start in due {
                    if let Some(groups) = self.sliding.remove(&start) {
                        self.flush_groups(groups, out);
                    }
                }
            }
            _ => {}
        }
    }

    /// Digest one groups table in emission order ([`sorted_groups`]).
    /// Group state is folded in as `(key, n, last_ts, finalized
    /// values)`: two groups that would render identical output rows for
    /// any future flush digest identically, which is exactly the
    /// durability contract of [`Operator::state_digest`].
    fn digest_groups(groups: &Groups, d: &mut tweeql_wal::Digest) {
        d.write_u64(groups.len() as u64);
        for (key, g) in sorted_groups(groups.iter()) {
            d.write_u64(key.len() as u64);
            for v in key.iter() {
                d.write_str(&v.to_string());
            }
            d.write_u64(g.n);
            d.write_i64(g.last_ts.millis());
            for s in &g.states {
                d.write_str(&s.finalize().to_string());
            }
        }
    }

    /// Feed one tuple into every sliding window covering its timestamp.
    fn sliding_update(
        &mut self,
        t: &Tuple<'_>,
        hash: u64,
        ts: Timestamp,
        size: Duration,
        slide: Duration,
    ) {
        let slide_ms = slide.millis().max(1);
        // Window starts are multiples of `slide`; the tuple belongs to
        // starts in (ts - size, ts].
        let last = ts.truncate(slide).millis();
        let hops = (size.millis() - 1).div_euclid(slide_ms);
        for h in 0..=hops {
            let start = last - h * slide_ms;
            // Window covers [start, start + size).
            if ts.millis() - start >= size.millis() {
                continue;
            }
            let groups = self.sliding.entry(start).or_default();
            let group = groups.get_or_insert_with(
                hash,
                t,
                || t.key_values(),
                || Group::new(&self.funcs, ts),
            );
            group.update(t, ts);
        }
    }

    /// A tuple at `ts` closes the time windows it is past and opens the
    /// tumbling window it falls in.
    fn open_window(&mut self, ts: Timestamp, out: &mut Vec<Record>) {
        self.advance_time_windows(ts, out);
        if let (WindowPolicy::Time(d), None) = (&self.policy, self.window_end) {
            self.window_end = Some(ts.truncate(*d).saturating_add(*d));
        }
    }

    /// Fold one tuple into its group and emit whatever the window
    /// policy says is due.
    fn ingest(&mut self, t: &Tuple<'_>, ts: Timestamp, out: &mut Vec<Record>) {
        let hash = t.key_hash();
        if let WindowPolicy::Sliding { size, slide } = self.policy {
            self.sliding_update(t, hash, ts, size, slide);
            return;
        }
        // A tuple of an existing group builds no `Value`: its key
        // becomes `Value`s only here, when the group is new.
        let group = (self.groups).get_or_insert_with(
            hash,
            t,
            || t.key_values(),
            || Group::new(&self.funcs, ts),
        );
        group.update(t, ts);

        let closed = match &self.policy {
            WindowPolicy::Count(n) => group.n >= *n,
            WindowPolicy::Confidence { epsilon, max_age } => {
                // Track the target aggregate's sample.
                if let Some(f) = t.arg(self.confidence_target).and_then(|v| v.as_float()) {
                    group.confidence.observe(f, ts);
                }
                let due = group.confidence.should_emit(*epsilon, *max_age, ts);
                self.confidence_emits += u64::from(due);
                due
            }
            _ => false,
        };
        if closed {
            if let Some((key, g)) = self.groups.remove(hash, t) {
                self.windows_emitted += 1;
                self.emit_group(&key, &g, out);
            }
        }
    }
}

impl Operator for AggregateOp {
    fn name(&self) -> &str {
        "aggregate"
    }

    fn time_sensitive(&self) -> bool {
        true
    }

    /// Per policy, the earliest watermark [`AggregateOp::on_watermark`]
    /// acts on, over the windows open now and the ones a row at or
    /// after `unseen` can open.
    fn next_deadline(&self, unseen: Option<Timestamp>) -> Option<Timestamp> {
        match self.policy {
            // The open window closes at its end; with none open, the
            // next row opens the one it falls in, and a row past the
            // open window's end closes it itself and opens a later one.
            WindowPolicy::Time(d) => earlier(
                self.window_end,
                unseen.map(|u| u.truncate(d).saturating_add(d)),
            ),
            // Windows close oldest first, each `size` after its start.
            // A row at `u` joins the windows starting in `(u - size, u]`
            // on the `slide` grid; the first of those ends soonest.
            WindowPolicy::Sliding { size, slide } => earlier(
                self.sliding
                    .keys()
                    .next()
                    .map(|&s| Timestamp::from_millis(s)),
                unseen.map(|u| {
                    let after = Timestamp::from_millis(u.millis().saturating_sub(size.millis()));
                    after.truncate(slide).saturating_add(slide)
                }),
            )
            .map(|start| start.saturating_add(size)),
            // A group left in the table has not met its CI target (it
            // would have been emitted by the row that met it), so only
            // age can release it: `max_age` after its first observation,
            // which for a group yet to be observed is at or after
            // `unseen`.
            WindowPolicy::Confidence {
                max_age: Some(max_age),
                ..
            } => {
                let first_seen = self
                    .groups
                    .iter()
                    .filter_map(|(_, g)| g.confidence.first_ts());
                earlier(first_seen.min(), unseen).map(|t| t.saturating_add(max_age))
            }
            // Emitted by rows or at end of stream, never by time.
            WindowPolicy::Unbounded | WindowPolicy::Count(_) | WindowPolicy::Confidence { .. } => {
                None
            }
        }
    }

    /// Window start timestamps whose input may be under-sampled because
    /// a source coverage gap overlaps them. Computed from the reported
    /// gap intervals directly — a window wholly inside a gap (which
    /// never saw a record) is still flagged.
    fn gap_windows(&self) -> Vec<Timestamp> {
        let mut starts = std::collections::BTreeSet::new();
        match self.policy {
            WindowPolicy::Time(d) if d > Duration::ZERO => {
                for &(from, to) in &self.gaps {
                    let mut w = from.truncate(d);
                    while w < to {
                        starts.insert(w);
                        w += d;
                    }
                }
            }
            WindowPolicy::Sliding { size, slide }
                if size > Duration::ZERO && slide > Duration::ZERO =>
            {
                for &(from, to) in &self.gaps {
                    // First window that could overlap `from` starts at
                    // from - size + 1ms, rounded down to a slide multiple.
                    let first = (from + Duration::from_millis(1) - size).truncate(slide);
                    let first = if first < Timestamp::ZERO {
                        Timestamp::ZERO
                    } else {
                        first
                    };
                    let mut w = first;
                    while w < to {
                        if w + size > from {
                            starts.insert(w);
                        }
                        w += slide;
                    }
                }
            }
            // Unbounded output covers the whole stream: any gap taints
            // the single result set.
            WindowPolicy::Unbounded if !self.gaps.is_empty() => {
                starts.insert(Timestamp::ZERO);
            }
            // Count/Confidence windows are data-driven, not time-aligned;
            // a gap shifts them rather than under-filling them.
            _ => {}
        }
        starts.into_iter().collect()
    }

    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        let mut counters = vec![("windows_emitted", self.windows_emitted)];
        if matches!(self.policy, WindowPolicy::Confidence { .. }) {
            counters.push(("confidence_emits", self.confidence_emits));
        }
        counters
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn state_digest(&self, d: &mut tweeql_wal::Digest) {
        match &self.policy {
            WindowPolicy::Unbounded => d.write_u32(0),
            WindowPolicy::Time(w) => {
                d.write_u32(1);
                d.write_i64(w.millis());
            }
            WindowPolicy::Count(n) => {
                d.write_u32(2);
                d.write_u64(*n);
            }
            WindowPolicy::Confidence { epsilon, max_age } => {
                d.write_u32(3);
                d.write_u64(epsilon.to_bits());
                d.write_i64(max_age.map(|a| a.millis()).unwrap_or(-1));
            }
            WindowPolicy::Sliding { size, slide } => {
                d.write_u32(4);
                d.write_i64(size.millis());
                d.write_i64(slide.millis());
            }
        }
        d.write_i64(self.window_end.map(|t| t.millis()).unwrap_or(i64::MIN));
        Self::digest_groups(&self.groups, d);
        d.write_u64(self.sliding.len() as u64);
        for (start, groups) in &self.sliding {
            d.write_i64(*start);
            Self::digest_groups(groups, d);
        }
        d.write_u64(self.gaps.len() as u64);
        for (from, to) in &self.gaps {
            d.write_i64(from.millis());
            d.write_i64(to.millis());
        }
        d.write_u64(self.windows_emitted);
        d.write_u64(self.confidence_emits);
    }

    fn on_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        let cols = std::mem::take(&mut self.columns);
        for rec in recs.drain(..) {
            let ts = rec.timestamp();
            // A record past the current window closes it first.
            self.open_window(ts, out);
            self.ingest(&Tuple::Values(&rec, &cols), ts, out);
        }
        self.columns = cols;
        Ok(())
    }

    fn reads_tweet_batch(&self) -> bool {
        self.columns.needed.is_some()
    }

    fn on_tweet_batch(
        &mut self,
        batch: &TweetBatch,
        sel: &[u32],
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        // Asked only of a stage that reads the batch, so `needed` is set.
        debug_assert!(self.reads_tweet_batch());
        let (Some(needed), false) = (self.columns.needed, sel.is_empty()) else {
            return Ok(());
        };
        // Per row exactly what `on_batch` does, minus the `Record` and
        // minus the `Value`s: key and arguments are read off columns
        // resolved once for the segment.
        let cols = std::mem::take(&mut self.columns);
        let mut code_hashes = std::mem::take(&mut self.code_hashes);
        let seg = Views::resolve(batch, &cols, &needed, &mut code_hashes);
        seg.touch_strings(sel);
        for &i in sel {
            let row = i as usize;
            let ts = batch.ts(row);
            self.open_window(ts, out);
            self.ingest(&Tuple::Views { seg: &seg, row }, ts, out);
        }
        self.code_hashes = code_hashes;
        self.columns = cols;
        Ok(())
    }

    fn on_gap(
        &mut self,
        from: Timestamp,
        to: Timestamp,
        _out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        if to > from {
            self.gaps.push((from, to));
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<Record>) -> Result<(), QueryError> {
        self.advance_time_windows(wm, out);
        if let WindowPolicy::Confidence {
            epsilon,
            max_age: Some(max_age),
        } = self.policy
        {
            // Deadline-driven emission for sparse groups.
            let due: Vec<Vec<Value>> = self
                .groups
                .iter()
                .filter(|(_, g)| g.confidence.should_emit(epsilon, Some(max_age), wm))
                .map(|(k, _)| k.clone())
                .collect();
            let removed = due
                .iter()
                .filter_map(|k| self.groups.remove(key_hash(k), k));
            let emitted = sorted_groups(removed);
            for (k, g) in emitted {
                self.windows_emitted += 1;
                self.confidence_emits += 1;
                self.emit_group(&k, &g, out);
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Record>) -> Result<(), QueryError> {
        // Flush remaining sliding windows, oldest first.
        for (_, groups) in std::mem::take(&mut self.sliding) {
            self.flush_groups(groups, out);
        }
        self.flush_all(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::{DataType, Schema};

    fn in_schema() -> SchemaRef {
        Schema::shared(&[("k", DataType::Str), ("x", DataType::Float)])
    }

    fn out_schema() -> SchemaRef {
        Schema::shared(&[("k", DataType::Str), ("a", DataType::Float)])
    }

    fn rec(k: &str, x: f64, ts_s: i64) -> Record {
        Record::new(
            in_schema(),
            vec![Value::from(k), Value::Float(x)],
            Timestamp::from_secs(ts_s),
        )
        .unwrap()
    }

    /// The columns of `input` named in `names`.
    fn cols(input: &SchemaRef, names: &[&str]) -> Vec<usize> {
        names.iter().map(|n| input.index_of(n).unwrap()).collect()
    }

    fn make_op(policy: WindowPolicy, func: AggFunc) -> AggregateOp {
        AggregateOp::new(
            cols(&in_schema(), &["k"]),
            vec![AggExpr { func, arg: Some(1) }],
            policy,
            &in_schema(),
            out_schema(),
            0,
        )
    }

    fn vals(out: &[Record]) -> Vec<(String, f64)> {
        out.iter()
            .map(|r| {
                (
                    r.value(0).to_string(),
                    r.value(1).as_float().unwrap_or(f64::NAN),
                )
            })
            .collect()
    }

    #[test]
    fn unbounded_avg_flushes_at_finish() {
        let mut op = make_op(WindowPolicy::Unbounded, AggFunc::Avg);
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec("a", 1.0, 0)], &mut out).unwrap();
        op.on_batch(&mut vec![rec("a", 3.0, 1)], &mut out).unwrap();
        op.on_batch(&mut vec![rec("b", 10.0, 2)], &mut out).unwrap();
        assert!(out.is_empty());
        op.finish(&mut out).unwrap();
        assert_eq!(vals(&out), vec![("a".into(), 2.0), ("b".into(), 10.0)]);
    }

    #[test]
    fn time_window_flushes_on_boundary() {
        let mut op = make_op(WindowPolicy::Time(Duration::from_secs(60)), AggFunc::Count);
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec("a", 1.0, 10)], &mut out).unwrap();
        op.on_batch(&mut vec![rec("a", 1.0, 30)], &mut out).unwrap();
        assert!(out.is_empty());
        // A record in the next window forces the flush first.
        op.on_batch(&mut vec![rec("a", 1.0, 70)], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(1), &Value::Int(2));
        // Watermark closes the second window.
        out.clear();
        op.on_watermark(Timestamp::from_secs(120), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(1), &Value::Int(1));
    }

    #[test]
    fn count_window_emits_per_group() {
        let mut op = make_op(WindowPolicy::Count(2), AggFunc::Sum);
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec("a", 1.0, 0)], &mut out).unwrap();
        op.on_batch(&mut vec![rec("b", 5.0, 1)], &mut out).unwrap();
        assert!(out.is_empty());
        op.on_batch(&mut vec![rec("a", 2.0, 2)], &mut out).unwrap();
        assert_eq!(vals(&out), vec![("a".into(), 3.0)]);
        // Group b still pending; a restarted.
        out.clear();
        op.on_batch(&mut vec![rec("b", 7.0, 3)], &mut out).unwrap();
        assert_eq!(vals(&out), vec![("b".into(), 12.0)]);
    }

    #[test]
    fn confidence_window_dense_group_emits_before_sparse() {
        let mut op = make_op(
            WindowPolicy::Confidence {
                epsilon: 0.5,
                max_age: None,
            },
            AggFunc::Avg,
        );
        let mut out = Vec::new();
        // Dense group "tokyo": identical values → zero variance → emits
        // at the 2nd sample. Sparse group "capetown": one sample, holds.
        op.on_batch(&mut vec![rec("capetown", 1.0, 0)], &mut out)
            .unwrap();
        op.on_batch(&mut vec![rec("tokyo", 0.5, 1)], &mut out)
            .unwrap();
        op.on_batch(&mut vec![rec("tokyo", 0.5, 2)], &mut out)
            .unwrap();
        assert_eq!(vals(&out), vec![("tokyo".into(), 0.5)]);
        out.clear();
        op.finish(&mut out).unwrap();
        assert_eq!(vals(&out), vec![("capetown".into(), 1.0)]);
    }

    #[test]
    fn confidence_deadline_emits_sparse_group_on_watermark() {
        let mut op = make_op(
            WindowPolicy::Confidence {
                epsilon: 0.0001,
                max_age: Some(Duration::from_secs(100)),
            },
            AggFunc::Avg,
        );
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec("capetown", 1.0, 0)], &mut out)
            .unwrap();
        op.on_watermark(Timestamp::from_secs(50), &mut out).unwrap();
        assert!(out.is_empty());
        op.on_watermark(Timestamp::from_secs(100), &mut out)
            .unwrap();
        assert_eq!(vals(&out), vec![("capetown".into(), 1.0)]);
    }

    #[test]
    fn min_max_stddev_count_distinct() {
        let arg = |s: &str| in_schema().index_of(s);
        let schema = Schema::shared(&[
            ("mn", DataType::Float),
            ("mx", DataType::Float),
            ("sd", DataType::Float),
            ("cd", DataType::Int),
        ]);
        let mut op = AggregateOp::new(
            vec![],
            vec![
                AggExpr {
                    func: AggFunc::Min,
                    arg: arg("x"),
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: arg("x"),
                },
                AggExpr {
                    func: AggFunc::StdDev,
                    arg: arg("x"),
                },
                AggExpr {
                    func: AggFunc::CountDistinct,
                    arg: arg("k"),
                },
            ],
            WindowPolicy::Unbounded,
            &in_schema(),
            schema,
            0,
        );
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec("a", 2.0, 0)], &mut out).unwrap();
        op.on_batch(&mut vec![rec("b", 4.0, 1)], &mut out).unwrap();
        op.on_batch(&mut vec![rec("a", 6.0, 2)], &mut out).unwrap();
        op.finish(&mut out).unwrap();
        let r = &out[0];
        assert_eq!(r.value(0), &Value::Float(2.0));
        assert_eq!(r.value(1), &Value::Float(6.0));
        assert_eq!(r.value(2), &Value::Float(2.0)); // stddev of 2,4,6
        assert_eq!(r.value(3), &Value::Int(2));
    }

    #[test]
    fn nulls_skipped_by_aggregates() {
        let mut op = make_op(WindowPolicy::Unbounded, AggFunc::Avg);
        let mut out = Vec::new();
        let null_rec = Record::new(
            in_schema(),
            vec![Value::from("a"), Value::Null],
            Timestamp::ZERO,
        )
        .unwrap();
        op.on_batch(&mut vec![null_rec], &mut out).unwrap();
        op.on_batch(&mut vec![rec("a", 4.0, 1)], &mut out).unwrap();
        op.finish(&mut out).unwrap();
        assert_eq!(vals(&out), vec![("a".into(), 4.0)]);
    }

    #[test]
    fn empty_stream_emits_nothing() {
        let mut op = make_op(WindowPolicy::Time(Duration::from_secs(60)), AggFunc::Count);
        let mut out = Vec::new();
        op.on_watermark(Timestamp::from_secs(300), &mut out)
            .unwrap();
        op.finish(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn gap_windows_cover_tumbling_windows_touched_by_the_gap() {
        let mut op = make_op(WindowPolicy::Time(Duration::from_secs(60)), AggFunc::Count);
        let mut out = Vec::new();
        // Gap spanning 90s..=200s touches minute windows 1, 2, 3.
        op.on_gap(
            Timestamp::from_secs(90),
            Timestamp::from_secs(200),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            op.gap_windows(),
            vec![
                Timestamp::from_secs(60),
                Timestamp::from_secs(120),
                Timestamp::from_secs(180)
            ]
        );
        // A window wholly inside a gap (no record ever arrives in it)
        // is still flagged: the interval itself drives enumeration.
        assert!(op.gap_windows().contains(&Timestamp::from_secs(120)));
    }

    #[test]
    fn gap_windows_flag_overlapping_sliding_windows() {
        let op = {
            let mut op = make_op(
                WindowPolicy::Sliding {
                    size: Duration::from_secs(60),
                    slide: Duration::from_secs(30),
                },
                AggFunc::Count,
            );
            let mut out = Vec::new();
            op.on_gap(
                Timestamp::from_secs(100),
                Timestamp::from_secs(110),
                &mut out,
            )
            .unwrap();
            op
        };
        // Windows [60,120) and [90,150) overlap 100..110; [30,90) and
        // [120,180) do not.
        assert_eq!(
            op.gap_windows(),
            vec![Timestamp::from_secs(60), Timestamp::from_secs(90)]
        );
    }

    #[test]
    fn gap_windows_empty_without_gaps_and_for_count_windows() {
        let op = make_op(WindowPolicy::Time(Duration::from_secs(60)), AggFunc::Count);
        assert!(op.gap_windows().is_empty());
        let mut op = make_op(WindowPolicy::Count(5), AggFunc::Count);
        let mut out = Vec::new();
        op.on_gap(Timestamp::from_secs(1), Timestamp::from_secs(2), &mut out)
            .unwrap();
        assert!(op.gap_windows().is_empty());
        let mut op = make_op(WindowPolicy::Unbounded, AggFunc::Count);
        op.on_gap(Timestamp::from_secs(1), Timestamp::from_secs(2), &mut out)
            .unwrap();
        assert_eq!(op.gap_windows(), vec![Timestamp::ZERO]);
    }

    #[test]
    fn flush_order_is_total_over_mixed_type_keys() {
        // An `Any` key column holding '1', 1, 1.5, NULL and 'NULL':
        // '1'/1 and NULL/'NULL' render alike, so the rendering alone
        // left their order to the table's iteration order. The type
        // breaks the tie (NULL < int < string), whatever order the
        // groups were created in.
        let schema = Schema::shared(&[("k", DataType::Any), ("x", DataType::Float)]);
        let out_schema = Schema::shared(&[("k", DataType::Any), ("n", DataType::Int)]);
        let keys = [
            Value::from("1"),
            Value::Int(1),
            Value::Float(1.5),
            Value::Null,
            Value::from("NULL"),
        ];
        let run = |order: &[usize]| {
            let mut op = AggregateOp::new(
                cols(&schema, &["k"]),
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                }],
                WindowPolicy::Unbounded,
                &schema,
                out_schema.clone(),
                0,
            );
            let mut out = Vec::new();
            for &i in order {
                let rec = Record::new(
                    schema.clone(),
                    vec![keys[i].clone(), Value::Float(0.0)],
                    Timestamp::ZERO,
                )
                .unwrap();
                op.on_batch(&mut vec![rec], &mut out).unwrap();
            }
            let mut d = tweeql_wal::Digest::new();
            op.state_digest(&mut d);
            op.finish(&mut out).unwrap();
            let rendered: Vec<String> = out.iter().map(|r| format!("{:?}", r.value(0))).collect();
            (rendered, d.finish())
        };
        let (forward, digest) = run(&[0, 1, 2, 3, 4]);
        assert_eq!(
            forward,
            [
                "Int(1)",
                "Str(\"1\")",
                "Float(1.5)",
                "Null",
                "Str(\"NULL\")"
            ]
        );
        for order in [[4, 3, 2, 1, 0], [1, 0, 4, 2, 3], [3, 4, 0, 2, 1]] {
            assert_eq!(run(&order), (forward.clone(), digest));
        }
    }

    /// The ingest the operator had before its keys were borrowed: key
    /// and arguments built as `Value`s for every tuple, the tables
    /// probed and the states updated with those. Everything after the
    /// fold (window bookkeeping, flush order, digest) is the
    /// operator's own.
    mod oracle {
        use super::*;

        fn update(state: &mut AggState, v: Option<&Value>, ts: Timestamp) {
            match state {
                AggState::Count(n) => {
                    if v.is_none_or(|x| !x.is_null()) {
                        *n += 1;
                    }
                }
                AggState::Sum { sum, seen } => {
                    if let Some(x) = v {
                        if let Ok(f) = x.as_float() {
                            *sum += f;
                            *seen = true;
                        }
                    }
                }
                AggState::Avg { sum, n } => {
                    if let Some(x) = v {
                        if let Ok(f) = x.as_float() {
                            *sum += f;
                            *n += 1;
                        }
                    }
                }
                AggState::Min(cur) => {
                    if let Some(x) = v {
                        if !x.is_null()
                            && cur
                                .as_ref()
                                .is_none_or(|c| x.compare(c) == Some(std::cmp::Ordering::Less))
                        {
                            *cur = Some(x.clone());
                        }
                    }
                }
                AggState::Max(cur) => {
                    if let Some(x) = v {
                        if !x.is_null()
                            && cur
                                .as_ref()
                                .is_none_or(|c| x.compare(c) == Some(std::cmp::Ordering::Greater))
                        {
                            *cur = Some(x.clone());
                        }
                    }
                }
                AggState::StdDev(t) => {
                    if let Some(x) = v {
                        if let Ok(f) = x.as_float() {
                            t.observe(f, ts);
                        }
                    }
                }
                AggState::CountDistinct(set) => {
                    if let Some(x) = v {
                        set.insert(ValueRef::from(x), || x.clone());
                    }
                }
                AggState::TopK { sketch, .. } => {
                    if let Some(x) = v {
                        match x {
                            Value::Null => {}
                            Value::List(items) => {
                                for it in items {
                                    if !it.is_null() {
                                        sketch.observe(it);
                                    }
                                }
                            }
                            other => sketch.observe(other),
                        }
                    }
                }
            }
        }

        fn update_group(g: &mut Group, arg_values: &[Option<Value>], ts: Timestamp) {
            g.n += 1;
            g.last_ts = ts;
            for (state, v) in g.states.iter_mut().zip(arg_values) {
                update(state, v.as_ref(), ts);
            }
        }

        fn ingest(
            op: &mut AggregateOp,
            key: &[Value],
            arg_values: &[Option<Value>],
            ts: Timestamp,
            out: &mut Vec<Record>,
        ) {
            let key = &key.to_vec();
            if let WindowPolicy::Sliding { size, slide } = op.policy {
                let slide_ms = slide.millis().max(1);
                let last = ts.truncate(slide).millis();
                let hops = (size.millis() - 1).div_euclid(slide_ms);
                for h in 0..=hops {
                    let start = last - h * slide_ms;
                    if ts.millis() - start >= size.millis() {
                        continue;
                    }
                    let group = op.sliding.entry(start).or_default().get_or_insert_with(
                        key_hash(key),
                        key,
                        || key.clone(),
                        || Group::new(&op.funcs, ts),
                    );
                    update_group(group, arg_values, ts);
                }
                return;
            }
            let group = (op.groups).get_or_insert_with(
                key_hash(key),
                key,
                || key.clone(),
                || Group::new(&op.funcs, ts),
            );
            update_group(group, arg_values, ts);
            match &op.policy {
                WindowPolicy::Count(n) if group.n >= *n => {
                    if let Some((_, g)) = op.groups.remove(key_hash(key), key) {
                        op.windows_emitted += 1;
                        op.emit_group(key, &g, out);
                    }
                }
                WindowPolicy::Confidence { epsilon, max_age } => {
                    if let Some(Some(v)) = arg_values.get(op.confidence_target) {
                        if let Ok(f) = v.as_float() {
                            group.confidence.observe(f, ts);
                        }
                    }
                    if group.confidence.should_emit(*epsilon, *max_age, ts) {
                        if let Some((_, g)) = op.groups.remove(key_hash(key), key) {
                            op.windows_emitted += 1;
                            op.confidence_emits += 1;
                            op.emit_group(key, &g, out);
                        }
                    }
                }
                _ => {}
            }
        }

        /// The old per-record entry: key and arguments read off the
        /// record as `Value`s.
        pub fn ingest_record(op: &mut AggregateOp, rec: &Record, out: &mut Vec<Record>) {
            let ts = rec.timestamp();
            op.open_window(ts, out);
            let cols = std::mem::take(&mut op.columns);
            let key: Vec<Value> = cols.keys.iter().map(|&c| rec.value(c).clone()).collect();
            let args: Vec<Option<Value>> = (cols.args.iter())
                .map(|a| a.map(|c| rec.value(c).clone()))
                .collect();
            op.columns = cols;
            ingest(op, &key, &args, ts, out);
        }

        /// The old `on_tweet_batch` row loop.
        pub fn on_rows(
            op: &mut AggregateOp,
            batch: &TweetBatch,
            sel: &[u32],
            out: &mut Vec<Record>,
        ) {
            let cols = std::mem::take(&mut op.columns);
            assert!(cols.needed.is_some(), "columnar head");
            for &i in sel {
                let i = i as usize;
                let ts = batch.ts(i);
                op.open_window(ts, out);
                let key: Vec<Value> = cols.keys.iter().map(|&c| batch.value_at(i, c)).collect();
                let args: Vec<Option<Value>> = (cols.args.iter())
                    .map(|a| a.map(|c| batch.value_at(i, c)))
                    .collect();
                ingest(op, &key, &args, ts, out);
            }
            op.columns = cols;
        }
    }

    mod borrowed_keys {
        use super::*;
        use proptest::prelude::*;
        use tweeql_model::{Tweet, User};

        fn policy(which: usize) -> WindowPolicy {
            match which {
                0 => WindowPolicy::Time(Duration::from_secs(20)),
                1 => WindowPolicy::Sliding {
                    size: Duration::from_secs(30),
                    slide: Duration::from_secs(10),
                },
                2 => WindowPolicy::Count(3),
                3 => WindowPolicy::Confidence {
                    epsilon: 2.0,
                    max_age: Some(Duration::from_secs(25)),
                },
                _ => WindowPolicy::Unbounded,
            }
        }

        /// `avg(<x>)` first (the confidence target), then a count, a
        /// distinct count and both extremes over `<s>`.
        fn op(which: usize, input: &SchemaRef, keys: &[&str], x: &str, s: &str) -> AggregateOp {
            let c = |name: &str| input.index_of(name).unwrap();
            let aggs: Vec<AggExpr> = [
                (AggFunc::Avg, Some(x)),
                (AggFunc::Count, None),
                (AggFunc::Count, Some(x)),
                (AggFunc::CountDistinct, Some(s)),
                (AggFunc::Min, Some(s)),
                (AggFunc::Max, Some(s)),
                (AggFunc::Min, Some(x)),
                (AggFunc::StdDev, Some(x)),
                (AggFunc::TopK(2), Some(s)),
            ]
            .into_iter()
            .map(|(func, arg)| AggExpr {
                func,
                arg: arg.map(c),
            })
            .collect();
            let fields: Vec<(String, DataType)> = (0..keys.len() + aggs.len())
                .map(|i| (format!("c{i}"), DataType::Any))
                .collect();
            let fields: Vec<(&str, DataType)> =
                fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let schema = Schema::shared(&fields);
            AggregateOp::new(cols(input, keys), aggs, policy(which), input, schema, 0)
        }

        fn digest(op: &AggregateOp) -> u64 {
            let mut d = tweeql_wal::Digest::new();
            op.state_digest(&mut d);
            d.finish()
        }

        /// 60 tweets two seconds apart: three languages, seven authors,
        /// a third geotagged, a fifth retweets, follower counts that
        /// repeat.
        fn tweets() -> Vec<Tweet> {
            (0..60u64)
                .map(|i| {
                    let mut user = User::new(i % 7, format!("user{}", i % 7));
                    user.followers = (i * 5 % 4) as u32;
                    let mut t = Tweet::builder(i, format!("tweet {i}"))
                        .user(user)
                        .at(Timestamp::from_secs(100 + 2 * i as i64))
                        .lang(["en", "ja", "es"][i as usize % 3]);
                    if i % 3 == 0 {
                        t = t.coordinates((i % 2) as f64, 1.0);
                    }
                    if i % 5 == 0 {
                        t = t.retweet_of(i % 2);
                    }
                    t.build()
                })
                .collect()
        }

        /// The key/argument column sets tried over the twitter stream:
        /// string, int, nullable float and nullable int keys.
        const SHAPES: &[(&[&str], &str, &str)] = &[
            (&["lang"], "followers", "screen_name"),
            (&["followers"], "lat", "lang"),
            (&["lat"], "followers", "screen_name"),
            (&["retweet_of", "lang"], "lat", "screen_name"),
            (&[], "followers", "lang"),
        ];

        /// The values an `Any` column is drawn from on the record path:
        /// ints and floats equal across types, NULL, strings (one that
        /// parses as a number).
        fn any_value(pick: u8) -> Value {
            match pick % 8 {
                0 => Value::Int(1),
                1 => Value::Float(1.0),
                2 => Value::Null,
                3 => Value::from("a"),
                4 => Value::from("2"),
                5 => Value::Float(0.5),
                6 => Value::Int(0),
                _ => Value::from("b"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Columnar head: borrowed-key ingest is `Value`-key ingest
            /// — rows, order, and `state_digest` after every batch and
            /// watermark — for every window policy and key shape.
            #[test]
            fn row_views_ingest_as_values_did(
                which in 0usize..5,
                shape in 0usize..SHAPES.len(),
                density in 1u8..=10,
                draws in collection::vec(0u8..10, 60..61),
            ) {
                let (keys, x, s) = SHAPES[shape];
                let input = twitter_schema();
                let mut new = op(which, &input, keys, x, s);
                let mut old = op(which, &input, keys, x, s);
                prop_assert!(new.reads_tweet_batch());
                let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
                for chunk in tweets().chunks(15) {
                    let log = std::sync::Arc::new(chunk.to_vec());
                    let mut batch = TweetBatch::new();
                    batch.bind_log(&log);
                    batch.extend_indices(&(0..log.len() as u32).collect::<Vec<_>>());
                    let first = chunk[0].id as usize;
                    let sel: Vec<u32> = (0..15u32)
                        .filter(|&i| draws[first + i as usize] < density)
                        .collect();
                    new.on_tweet_batch(&batch, &sel, &mut new_out).unwrap();
                    oracle::on_rows(&mut old, &batch, &sel, &mut old_out);
                    prop_assert_eq!(digest(&new), digest(&old));
                    let wm = batch.last_ts().unwrap();
                    new.on_watermark(wm, &mut new_out).unwrap();
                    old.on_watermark(wm, &mut old_out).unwrap();
                    prop_assert_eq!(digest(&new), digest(&old));
                    prop_assert_eq!(&new_out, &old_out);
                }
                new.finish(&mut new_out).unwrap();
                old.finish(&mut old_out).unwrap();
                prop_assert_eq!(new_out, old_out);
            }

            /// Record path: keys and arguments read off the record, of
            /// mixed type in `Any` columns — `Int(1)` and `Float(1.0)` are one group and one
            /// distinct member, NULL is a group of its own.
            #[test]
            fn evaluated_keys_ingest_as_values_did(
                which in 0usize..5,
                rows in collection::vec((0u8..8, 0u8..8, 0u8..8), 0..50),
            ) {
                let input = Schema::shared(&[
                    ("k", DataType::Any),
                    ("x", DataType::Any),
                    ("s", DataType::Any),
                ]);
                let mut new = op(which, &input, &["k"], "x", "s");
                let mut old = op(which, &input, &["k"], "x", "s");
                prop_assert!(!new.reads_tweet_batch());
                let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
                for (n, &(k, x, s)) in rows.iter().enumerate() {
                    let rec = Record::new(
                        input.clone(),
                        vec![any_value(k), any_value(x), any_value(s)],
                        Timestamp::from_secs(100 + 3 * n as i64),
                    )
                    .unwrap();
                    new.on_batch(&mut vec![rec.clone()], &mut new_out).unwrap();
                    oracle::ingest_record(&mut old, &rec, &mut old_out);
                    prop_assert_eq!(digest(&new), digest(&old));
                    prop_assert_eq!(&new_out, &old_out);
                }
                new.finish(&mut new_out).unwrap();
                old.finish(&mut old_out).unwrap();
                prop_assert_eq!(new_out, old_out);
            }
        }
    }

    mod columnar {
        use super::*;
        use crate::exec::Pipeline;
        use proptest::prelude::*;
        use tweeql_model::{RowBatch, Text, Tweet, User};

        /// How [`tweets`] builds its stream.
        #[derive(Debug, Clone, Copy)]
        struct Stream {
            /// `lang` and `loc` share one `Text` per distinct value
            /// (as the sources build them), or every tweet owns its own.
            interned: bool,
            /// Every `loc` distinct, so a 100-row batch holds more than
            /// a dictionary takes and the column reads the tweets.
            unique_loc: bool,
        }

        /// 200 tweets, two seconds apart: three languages, seven
        /// authors, followers 0–3, a third geotagged at latitude 0.0 or
        /// 1.0, a fifth retweets of tweet 0 or 1.
        fn tweets(stream: Stream) -> Vec<Tweet> {
            let langs: [Text; 3] = ["en", "ja", "es"].map(Text::from);
            let locs: [Text; 4] = ["Tokyo", "Boston", "", "earth"].map(Text::from);
            let text = |pool: &[Text], i: u64| match stream.interned {
                true => pool[i as usize % pool.len()].clone(),
                false => Text::from(pool[i as usize % pool.len()].as_str()),
            };
            (0..200u64)
                .map(|i| {
                    let mut user = User::new(i % 7, format!("user{}", i % 7));
                    user.followers = (i * 5 % 4) as u32;
                    user.location = match stream.unique_loc {
                        true => format!("place {i}").into(),
                        false => text(&locs, i % 7),
                    };
                    let mut t = Tweet::builder(i, format!("tweet {i}"))
                        .user(user)
                        .at(Timestamp::from_secs(100 + 2 * i as i64))
                        .lang(text(&langs, i));
                    if i % 3 == 0 {
                        t = t.coordinates((i % 2) as f64, 1.0);
                    }
                    if i % 5 == 0 {
                        t = t.retweet_of(i % 2);
                    }
                    t.build()
                })
                .collect()
        }

        /// Group keys tried: a dictionary string, one that may bail
        /// out to the tweets, a nullable float, two columns, none.
        const KEYS: &[&[&str]] = &[&["lang"], &["loc"], &["lat"], &["lang", "followers"], &[]];

        /// A partial prebuild: two of the head's columns (`lang`, `lat`)
        /// and one it does not read (`id`).
        const PARTIAL: [bool; col::COUNT] = {
            let mut partial = [false; col::COUNT];
            partial[col::LANG] = true;
            partial[col::LAT] = true;
            partial[col::ID] = true;
            partial
        };

        /// `avg(followers)` first (the confidence target), then a
        /// count, distinct counts over a string, an int (`1` among
        /// them), a float (`1.0` and NULL among them) and a nullable
        /// int, the extremes of a string and a float, and a top-k.
        fn op(policy: WindowPolicy, keys: &[&str], columnar: bool) -> AggregateOp {
            op_over(&twitter_schema(), policy, keys, columnar)
        }

        fn op_over(
            input: &SchemaRef,
            policy: WindowPolicy,
            keys: &[&str],
            columnar: bool,
        ) -> AggregateOp {
            let c = |name: &str| input.index_of(name).unwrap();
            let aggs: Vec<AggExpr> = [
                (AggFunc::Avg, Some("followers")),
                (AggFunc::Count, None),
                (AggFunc::CountDistinct, Some("screen_name")),
                (AggFunc::CountDistinct, Some("followers")),
                (AggFunc::CountDistinct, Some("lat")),
                (AggFunc::CountDistinct, Some("retweet_of")),
                (AggFunc::Min, Some("loc")),
                (AggFunc::Max, Some("lat")),
                (AggFunc::TopK(2), Some("lang")),
            ]
            .into_iter()
            .map(|(func, arg)| AggExpr {
                func,
                arg: arg.map(c),
            })
            .collect();
            let fields: Vec<(String, DataType)> = (0..keys.len() + aggs.len())
                .map(|i| (format!("c{i}"), DataType::Any))
                .collect();
            let fields: Vec<(&str, DataType)> =
                fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            let schema = Schema::shared(&fields);
            AggregateOp::new(cols(input, keys), aggs, policy, input, schema, 0).columnar(columnar)
        }

        fn policy(which: usize) -> WindowPolicy {
            match which {
                0 => WindowPolicy::Time(Duration::from_secs(20)),
                1 => WindowPolicy::Sliding {
                    size: Duration::from_secs(30),
                    slide: Duration::from_secs(10),
                },
                2 => WindowPolicy::Count(3),
                3 => WindowPolicy::Confidence {
                    epsilon: 0.5,
                    max_age: Some(Duration::from_secs(25)),
                },
                _ => WindowPolicy::Unbounded,
            }
        }

        #[test]
        fn only_plain_twitter_columns_take_the_columnar_head() {
            let unbounded = || WindowPolicy::Unbounded;
            let mut wants = [false; col::COUNT];
            let read = [
                col::LANG,
                col::FOLLOWERS,
                col::SCREEN_NAME,
                col::LAT,
                col::RETWEET_OF,
                col::LOC,
            ];
            for c in read {
                wants[c] = true;
            }
            let needed = |op: AggregateOp| {
                assert_eq!(op.reads_tweet_batch(), op.columns.needed.is_some());
                op.columns.needed
            };
            assert_eq!(
                needed(op(unbounded(), &["lang"], true)),
                Some(wants),
                "every key and argument column, once"
            );
            assert_eq!(needed(op(unbounded(), &["lang"], false)), None);
            // A computed key reaches the aggregate as a column of the
            // projection before it: a schema that is not the stream's.
            let projected = Arc::new(Schema::new(twitter_schema().fields().to_vec()));
            assert_eq!(
                needed(op_over(&projected, unbounded(), &["lang"], true)),
                None
            );
            assert_eq!(
                needed(make_op(unbounded(), AggFunc::Count)),
                None,
                "non-twitter input"
            );
        }

        fn digest(p: &Pipeline) -> u64 {
            let mut d = tweeql_wal::Digest::new();
            p.state_digest(&mut d);
            d.finish()
        }

        proptest! {
            /// The columnar head is the row path (`columnar(false)`:
            /// every selected row decoded and evaluated) — rows, order,
            /// stage counts and `state_digest` — across two batches
            /// (window state carries over), for all five window
            /// policies and every key shape; with none of the columns
            /// built before the head views them, some, or all;
            /// interned or per-tweet strings; a `loc`
            /// dictionary or one that bails out; empty to full
            /// selections.
            #[test]
            fn selection_ingest_matches_row_ingest(
                which in 0usize..5,
                keys in 0usize..KEYS.len(),
                interned in 0u8..2,
                unique_loc in 0u8..2,
                materialize in 0u8..3,
                density in 0u8..=10,
                draws in collection::vec(0u8..10, 200..201),
            ) {
                let keys = KEYS[keys];
                let mut rows = Pipeline::new(vec![Box::new(op(policy(which), keys, false))]);
                let mut cols = Pipeline::new(vec![Box::new(op(policy(which), keys, true))]);
                let schema = rows.output_schema().unwrap();
                let (mut row_out, mut col_out) =
                    (RowBatch::new(schema.clone()), RowBatch::new(schema));
                let stream = Stream { interned: interned == 1, unique_loc: unique_loc == 1 };
                for half in tweets(stream).chunks(100) {
                    let log = std::sync::Arc::new(half.to_vec());
                    let mut batch = TweetBatch::new();
                    batch.bind_log(&log);
                    batch.extend_indices(&(0..log.len() as u32).collect::<Vec<_>>());
                    // Prebuilt by an earlier reader: nothing, some of
                    // the head's columns, or every column.
                    match materialize {
                        0 => {}
                        1 => drop(batch.materialize(&PARTIAL)),
                        _ => drop(batch.materialize(&tweeql_model::batch::all_columns())),
                    }
                    let first = half[0].id as usize;
                    let sel: Vec<u32> = (0..100u32)
                        .filter(|&i| draws[first + i as usize] < density)
                        .collect();
                    rows.push_tweet_batch(&batch, &sel, &mut row_out).unwrap();
                    cols.push_tweet_batch(&batch, &sel, &mut col_out).unwrap();
                    prop_assert_eq!(digest(&rows), digest(&cols));
                    let wm = batch.last_ts().unwrap();
                    rows.watermark(wm, &mut row_out).unwrap();
                    cols.watermark(wm, &mut col_out).unwrap();
                    prop_assert_eq!(digest(&rows), digest(&cols));
                }
                rows.finish(&mut row_out).unwrap();
                cols.finish(&mut col_out).unwrap();
                prop_assert_eq!(row_out.into_records(), col_out.into_records());
                let counts = |p: &Pipeline| -> Vec<(u64, u64)> {
                    p.stage_stats()
                        .iter()
                        .map(|(_, s)| (s.records_in, s.records_out))
                        .collect()
                };
                prop_assert_eq!(counts(&rows), counts(&cols));
            }
        }
    }
}
