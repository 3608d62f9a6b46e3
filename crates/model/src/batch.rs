//! Columnar tweet batches: the decode format that replaces
//! row-at-a-time [`Record::from_tweet`] on the hot path.
//!
//! A [`TweetBatch`] owns the tweets of one micro-batch as a row store
//! and lazily builds per-column acceleration structures on top of it:
//!
//! * fixed-width columns (`id`, `user_id`, `followers`, `lat`, `lon`,
//!   `created_at`, `retweet_of`) as contiguous vectors with a validity
//!   [`Bitmap`] — no per-value heap traffic at all;
//! * variable-width text (`text`, `screen_name`) as an **arena**: one
//!   byte buffer per column plus `u32` offsets, so a batch of 256
//!   texts is two allocations instead of 256 `Arc` bumps;
//! * low-cardinality strings (`loc`, `lang`) **dictionary-encoded**:
//!   per-row `u32` codes into a small distinct-value table, with a
//!   pointer-identity fast path (the generator and the log decoder
//!   both share one `Arc<User>` per author, and a tweet's `lang` is
//!   its author's allocation when the two are equal, so an author's
//!   second row in a batch resolves without hashing a byte; two
//!   authors with equal strings still hash once each). The
//!   encoding is *adaptive*: if a batch proves high-cardinality (more
//!   than `DICT_MAX_ENTRIES` distinct values, e.g. `loc` over a
//!   large messy-location population), the builder bails out to the
//!   plain arena layout — readers are agnostic because both shapes are
//!   served through the same `str_at` accessor.
//!
//! Decode is *lazy per column*: [`TweetBatch::materialize`] builds only
//! the columns the optimized plan touches, composing with the
//! optimizer's liveness-based projection pruning — a column that is
//! pruned dead or never referenced is counted as skipped, not decoded.
//! Operators that still think in rows cross the boundary through
//! [`TweetBatch::to_records`] / [`TweetBatch::record_at`], which defer
//! to `Record::from_tweet{,_pruned}` so the row shim is differentially
//! identical to the row pipeline by construction.
//!
//! The schema note vs the paper: the reproduction's [`Tweet`] carries
//! no `source` (client application) field, so the low-cardinality
//! dictionary columns here are `lang` and `loc` — `loc` plays the
//! `source` role from the original design (small distinct set, heavy
//! reuse of per-author `Arc<str>` values).

use crate::record::Record;
use crate::time::{Crossing, Timestamp};
use crate::tweet::Tweet;
use crate::value::{Value, ValueRef};
use std::sync::Arc;

/// Column indexes of the `twitter` schema, in schema order.
pub mod col {
    /// `id` — tweet id.
    pub const ID: usize = 0;
    /// `text` — tweet body.
    pub const TEXT: usize = 1;
    /// `user_id` — author id.
    pub const USER_ID: usize = 2;
    /// `screen_name` — author handle.
    pub const SCREEN_NAME: usize = 3;
    /// `loc` — author profile location.
    pub const LOC: usize = 4;
    /// `lat` — geotag latitude.
    pub const LAT: usize = 5;
    /// `lon` — geotag longitude.
    pub const LON: usize = 6;
    /// `created_at` — stream timestamp.
    pub const CREATED_AT: usize = 7;
    /// `lang` — tweet language.
    pub const LANG: usize = 8;
    /// `followers` — author follower count.
    pub const FOLLOWERS: usize = 9;
    /// `retweet_of` — retweeted tweet id, if any.
    pub const RETWEET_OF: usize = 10;
    /// Total column count of the `twitter` schema.
    pub const COUNT: usize = 11;
}

/// A packed validity bitmap: bit `i` set means row `i` is non-NULL.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap with room for `n` bits.
    pub fn with_capacity(n: usize) -> Bitmap {
        Bitmap {
            words: Vec::with_capacity(n.div_ceil(64)),
            len: 0,
        }
    }

    /// Bitmap of `n` bits, all set (trailing word masked so
    /// [`count_ones`](Bitmap::count_ones) stays exact).
    pub fn all_true(n: usize) -> Bitmap {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        Bitmap { words, len: n }
    }

    /// Append one bit.
    pub fn push(&mut self, set: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if set {
            *self.words.last_mut().expect("word pushed above") |= 1 << bit;
        }
        self.len += 1;
    }

    /// Bit `i`, or `false` out of range.
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Drop all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

/// One materialized (or not-yet-materialized) column of a batch.
#[derive(Debug, Clone)]
pub enum Column {
    /// Not decoded: either the plan never touched it, liveness pruning
    /// killed it, or `materialize` has not run yet.
    Missing,
    /// Contiguous `i64`s with per-row validity.
    Int { vals: Vec<i64>, valid: Bitmap },
    /// Contiguous `f64`s with per-row validity.
    Float { vals: Vec<f64>, valid: Bitmap },
    /// Contiguous timestamps (always valid on the twitter schema).
    Time { vals: Vec<Timestamp> },
    /// Arena text: all values back-to-back in one buffer; row `i` is
    /// `arena[offsets[i]..offsets[i+1]]` (`offsets.len() == rows + 1`).
    Str { arena: String, offsets: Vec<u32> },
    /// Dictionary text: per-row codes into the distinct-value table.
    Dict {
        codes: Vec<u32>,
        dict: Vec<Arc<str>>,
    },
}

impl Column {
    /// True when the column has been materialized.
    pub fn is_built(&self) -> bool {
        !matches!(self, Column::Missing)
    }
}

/// Counters describing what a columnar decode actually did; merged per
/// query and surfaced through the metrics registry. All values are
/// deterministic for a fixed seed and worker count — batch boundaries
/// are cut in virtual stream time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Columns built by `materialize` calls.
    pub columns_materialized: u64,
    /// Columns a batch carried but never decoded (unreferenced by the
    /// plan, or pruned dead by liveness analysis).
    pub columns_skipped: u64,
    /// Rows written through dictionary-encoded columns.
    pub dict_rows: u64,
    /// Distinct dictionary entries created (summed over batches).
    pub dict_entries: u64,
    /// Dictionary rows resolved by `Arc` pointer identity, without
    /// hashing the string.
    pub dict_ptr_hits: u64,
}

impl DecodeStats {
    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.columns_materialized += other.columns_materialized;
        self.columns_skipped += other.columns_skipped;
        self.dict_rows += other.dict_rows;
        self.dict_entries += other.dict_entries;
        self.dict_ptr_hits += other.dict_ptr_hits;
    }

    /// Share of dictionary rows that *reused* an existing entry, in
    /// permille (integer, so it can be exported as a deterministic
    /// gauge). `None` when no dictionary column was decoded.
    pub fn dict_reuse_permille(&self) -> Option<u64> {
        if self.dict_rows == 0 {
            return None;
        }
        Some((self.dict_rows - self.dict_entries.min(self.dict_rows)) * 1000 / self.dict_rows)
    }
}

/// A borrowed view of a batch's rows: either a plain slice (owned row
/// store, and the public [`decode_columns`] entry point) or a
/// selection-vector view into a shared firehose log (the zero-copy
/// batched source path). Builders are written against this so both row
/// stores decode through the identical kernels.
#[derive(Clone, Copy)]
enum RowsRef<'a> {
    Slice(&'a [Tweet]),
    View { log: &'a [Tweet], sel: &'a [u32] },
}

impl<'a> RowsRef<'a> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            RowsRef::Slice(s) => s.len(),
            RowsRef::View { sel, .. } => sel.len(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &'a Tweet {
        match self {
            RowsRef::Slice(s) => &s[i],
            RowsRef::View { log, sel } => &log[sel[i] as usize],
        }
    }
}

/// Build the requested columns over a slice of tweets.
///
/// This is the core decode kernel: column-at-a-time loops over the row
/// store, no per-value allocation. `needed[i] && alive(i)` columns are
/// built; everything else stays [`Column::Missing`] and is counted as
/// skipped. `live` follows `from_tweet_pruned` semantics: a mask of
/// the wrong width decodes as if there were no mask (fail-open).
pub fn decode_columns(
    tweets: &[Tweet],
    needed: &[bool],
    live: Option<&[bool]>,
) -> (Vec<Column>, DecodeStats) {
    decode_rows(RowsRef::Slice(tweets), needed, live)
}

fn decode_rows(
    rows: RowsRef<'_>,
    needed: &[bool],
    live: Option<&[bool]>,
) -> (Vec<Column>, DecodeStats) {
    let live = live.filter(|l| l.len() == col::COUNT);
    let mut stats = DecodeStats::default();
    let cols = (0..col::COUNT)
        .map(|c| {
            let wanted = needed.get(c).copied().unwrap_or(false);
            let alive = live.is_none_or(|l| l[c]);
            if !(wanted && alive) {
                stats.columns_skipped += 1;
                return Column::Missing;
            }
            stats.columns_materialized += 1;
            build_column(c, rows, &mut stats)
        })
        .collect();
    (cols, stats)
}

fn build_column(c: usize, rows: RowsRef<'_>, stats: &mut DecodeStats) -> Column {
    match c {
        col::ID => dense_int_column(rows, |t| t.id as i64),
        col::TEXT => str_column(rows, |t| &t.text),
        col::USER_ID => dense_int_column(rows, |t| t.user.id as i64),
        col::SCREEN_NAME => str_column(rows, |t| &t.user.screen_name),
        col::LOC => dict_column(rows, |t| &t.user.location, stats),
        col::LAT => float_column(rows, |t| t.coordinates().map(|(la, _)| la)),
        col::LON => float_column(rows, |t| t.coordinates().map(|(_, lo)| lo)),
        col::CREATED_AT => Column::Time {
            vals: (0..rows.len()).map(|i| rows.get(i).created_at).collect(),
        },
        col::LANG => dict_column(rows, |t| t.lang(), stats),
        col::FOLLOWERS => dense_int_column(rows, |t| t.user.followers as i64),
        col::RETWEET_OF => int_column(rows, |t| t.retweet_of().map(|id| id as i64)),
        _ => {
            debug_assert!(false, "column index {c} out of twitter schema");
            Column::Missing
        }
    }
}

/// Always-valid integer column: straight collect, validity filled in
/// whole words instead of a per-row branch.
fn dense_int_column(rows: RowsRef<'_>, f: impl Fn(&Tweet) -> i64) -> Column {
    Column::Int {
        vals: (0..rows.len()).map(|i| f(rows.get(i))).collect(),
        valid: Bitmap::all_true(rows.len()),
    }
}

fn int_column(rows: RowsRef<'_>, f: impl Fn(&Tweet) -> Option<i64>) -> Column {
    let n = rows.len();
    let mut vals = Vec::with_capacity(n);
    let mut valid = Bitmap::with_capacity(n);
    for i in 0..n {
        match f(rows.get(i)) {
            Some(v) => {
                vals.push(v);
                valid.push(true);
            }
            None => {
                vals.push(0);
                valid.push(false);
            }
        }
    }
    Column::Int { vals, valid }
}

fn float_column(rows: RowsRef<'_>, f: impl Fn(&Tweet) -> Option<f64>) -> Column {
    let n = rows.len();
    let mut vals = Vec::with_capacity(n);
    let mut valid = Bitmap::with_capacity(n);
    for i in 0..n {
        match f(rows.get(i)) {
            Some(v) => {
                vals.push(v);
                valid.push(true);
            }
            None => {
                vals.push(0.0);
                valid.push(false);
            }
        }
    }
    Column::Float { vals, valid }
}

fn str_column<'t>(rows: RowsRef<'t>, f: impl Fn(&'t Tweet) -> &'t Arc<str>) -> Column {
    let n = rows.len();
    let total: usize = (0..n).map(|i| f(rows.get(i)).len()).sum();
    let mut arena = String::with_capacity(total);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    for i in 0..n {
        arena.push_str(f(rows.get(i)));
        offsets.push(arena.len() as u32);
    }
    Column::Str { arena, offsets }
}

/// Distinct-value cap for dictionary columns. A dictionary only pays
/// when codes repeat; past this many distinct values the column is not
/// low-cardinality in this batch and the build bails out to the arena
/// representation (readers go through [`TweetBatch::str_at`] either
/// way, so the two encodings are interchangeable).
const DICT_MAX_ENTRIES: usize = 64;

/// Direct-mapped pointer-cache slots (power of two). Collisions just
/// evict — the value table stays authoritative.
const DICT_PTR_SLOTS: usize = 256;

/// Value-table slots (power of two). The entry cap keeps load ≤ 25%,
/// so probe chains stay short without any growth logic.
const DICT_VAL_SLOTS: usize = 256;

#[inline]
fn fib(h: u64) -> usize {
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
}

/// Mix first eight bytes, last eight bytes, and length: collisions are
/// resolved by a full compare, this only has to spread probes — and it
/// must spread values that share a long common prefix (location
/// variants of one city name).
#[inline]
fn val_hash(s: &str) -> u64 {
    let b = s.as_bytes();
    let n = b.len().min(8);
    let mut first = [0u8; 8];
    first[..n].copy_from_slice(&b[..n]);
    let mut last = [0u8; 8];
    last[..n].copy_from_slice(&b[b.len() - n..]);
    u64::from_le_bytes(first) ^ u64::from_le_bytes(last).rotate_left(31) ^ (b.len() as u64)
}

/// Build a dictionary column, or bail to an arena [`Column::Str`] when
/// the batch proves high-cardinality. No string hashing on the hot
/// path: interned values share one allocation, so a direct-mapped
/// cache keyed on the data pointer resolves repeat rows in one load;
/// only first-seen pointers hash their bytes, and distinct allocations
/// with equal content still collapse to one entry.
fn dict_column<'t>(
    rows: RowsRef<'t>,
    f: impl Fn(&'t Tweet) -> &'t Arc<str>,
    stats: &mut DecodeStats,
) -> Column {
    let n = rows.len();
    let mut codes = Vec::with_capacity(n);
    let mut dict: Vec<Arc<str>> = Vec::new();
    // `(data pointer, code + 1)`; code 0 marks an empty slot.
    let mut ptr_cache = [(0usize, 0u32); DICT_PTR_SLOTS];
    // `code + 1`, linear probing; 0 marks an empty slot.
    let mut val_slots = [0u32; DICT_VAL_SLOTS];
    let mut ptr_hits = 0u64;
    for row in 0..n {
        let s = f(rows.get(row));
        let p = s.as_ptr() as usize;
        let ci = fib(p as u64) & (DICT_PTR_SLOTS - 1);
        let (cp, cc) = ptr_cache[ci];
        let code = if cp == p && cc != 0 {
            ptr_hits += 1;
            cc - 1
        } else {
            let mut i = fib(val_hash(s)) & (DICT_VAL_SLOTS - 1);
            let code = loop {
                let c = val_slots[i];
                if c == 0 {
                    if dict.len() >= DICT_MAX_ENTRIES {
                        // High cardinality: stop paying per-row lookup
                        // cost, re-encode the whole column as an arena.
                        return str_column(rows, f);
                    }
                    let code = dict.len() as u32;
                    dict.push(Arc::clone(s));
                    val_slots[i] = code + 1;
                    break code;
                }
                if *dict[(c - 1) as usize] == **s {
                    break c - 1;
                }
                i = (i + 1) & (DICT_VAL_SLOTS - 1);
            };
            ptr_cache[ci] = (p, code + 1);
            code
        };
        codes.push(code);
    }
    stats.dict_ptr_hits += ptr_hits;
    stats.dict_entries += dict.len() as u64;
    stats.dict_rows += codes.len() as u64;
    Column::Dict { codes, dict }
}

/// The batch's row storage: owned tweets (the classic per-tweet source
/// path, and anything that constructs batches by value) or a selection
/// vector into an `Arc`-shared firehose log (the zero-copy batched
/// source path — no `Tweet` is ever cloned between the generated log
/// and columnar decode).
#[derive(Debug, Clone)]
enum RowStore {
    Owned(Vec<Tweet>),
    Shared { log: Arc<Vec<Tweet>>, sel: Vec<u32> },
}

impl Default for RowStore {
    fn default() -> RowStore {
        RowStore::Owned(Vec::new())
    }
}

/// A micro-batch of tweets with lazily materialized columns.
///
/// The batch carries a row store — owned tweets, or a zero-copy
/// selection view into the shared firehose log (see
/// [`bind_log`](TweetBatch::bind_log)) — so any row can always be
/// projected to a [`Record`] (the shim for unported operators) and any
/// column can be read row-wise even before materialization. The
/// columnar accessors ([`str_at`](TweetBatch::str_at),
/// [`float_at`](TweetBatch::float_at), [`value_at`](TweetBatch::value_at))
/// serve from the materialized column when one exists and fall back to
/// the row store otherwise, so callers never branch on decode state.
///
/// A liveness mask (from the optimizer's projection pruning) attaches
/// to the whole batch: accessors treat dead columns as NULL and
/// `record_at` defers to [`Record::from_tweet_pruned`], keeping the
/// columnar path differentially identical to the row path under
/// pruning as well.
#[derive(Debug, Clone, Default)]
pub struct TweetBatch {
    rows: RowStore,
    /// Either empty (nothing materialized) or exactly [`col::COUNT`]
    /// entries.
    cols: Vec<Column>,
    live: Option<Arc<[bool]>>,
    /// Punctuation riding with the rows: the watermark boundaries
    /// stream time crossed just before row `.0` (ascending rows).
    crossings: Vec<(u32, Crossing)>,
}

impl TweetBatch {
    /// Empty batch with no liveness mask.
    pub fn new() -> TweetBatch {
        TweetBatch::default()
    }

    /// Empty batch carrying the plan's live-column mask.
    pub fn with_live(live: Option<Arc<[bool]>>) -> TweetBatch {
        TweetBatch {
            rows: RowStore::default(),
            cols: Vec::new(),
            live,
            crossings: Vec::new(),
        }
    }

    /// Replace the liveness mask (used when recycling batch buffers).
    pub fn set_live(&mut self, live: Option<Arc<[bool]>>) {
        self.live = live;
    }

    /// The liveness mask, already fail-open-normalized: `None` unless
    /// it matches the twitter schema width (mirrors
    /// [`Record::from_tweet_pruned`]).
    pub fn live(&self) -> Option<&[bool]> {
        self.live.as_deref().filter(|l| l.len() == col::COUNT)
    }

    /// Switch the batch to zero-copy mode over `log`: rows are log
    /// indices appended with [`push_index`](TweetBatch::push_index) and
    /// no `Tweet` is cloned. Rebinding to the same log (recycled batch
    /// buffers) keeps the selection allocation.
    pub fn bind_log(&mut self, log: &Arc<Vec<Tweet>>) {
        self.cols.clear();
        self.crossings.clear();
        match &mut self.rows {
            RowStore::Shared { log: bound, sel } if Arc::ptr_eq(bound, log) => sel.clear(),
            rows => {
                *rows = RowStore::Shared {
                    log: Arc::clone(log),
                    sel: Vec::new(),
                }
            }
        }
    }

    /// True when the batch is in zero-copy shared-log mode.
    pub fn is_shared(&self) -> bool {
        matches!(self.rows, RowStore::Shared { .. })
    }

    /// Append one tweet. Pushing into a batch that already has
    /// materialized columns drops them (they would go stale).
    pub fn push(&mut self, t: Tweet) {
        if !self.cols.is_empty() {
            self.cols.clear();
        }
        match &mut self.rows {
            RowStore::Owned(tweets) => tweets.push(t),
            RowStore::Shared { .. } => panic!("push of an owned Tweet into a log-bound batch"),
        }
    }

    /// Append one log row by index (shared-log mode only; see
    /// [`bind_log`](TweetBatch::bind_log)).
    pub fn push_index(&mut self, idx: u32) {
        if !self.cols.is_empty() {
            self.cols.clear();
        }
        match &mut self.rows {
            RowStore::Shared { sel, .. } => sel.push(idx),
            RowStore::Owned(_) => panic!("push_index into a batch with no bound log"),
        }
    }

    /// Append many log rows by index (shared-log mode only).
    pub fn extend_indices(&mut self, idxs: &[u32]) {
        if !self.cols.is_empty() {
            self.cols.clear();
        }
        match &mut self.rows {
            RowStore::Shared { sel, .. } => sel.extend_from_slice(idxs),
            RowStore::Owned(_) => panic!("extend_indices into a batch with no bound log"),
        }
    }

    /// Record that stream time crossed the boundaries in `c` before
    /// the next row pushed. Whoever fills the batch calls this (with
    /// what its [`Cadence`](crate::Cadence) reported) instead of cutting
    /// the batch there; whoever drains it delivers the watermarks that
    /// are due, between the right rows
    /// (`Pipeline::push_tweet_batch` in the engine crate).
    pub fn cross(&mut self, c: Crossing) {
        self.crossings.push((self.len() as u32, c));
    }

    /// The recorded crossings as `(before_row, boundaries)`, in row
    /// order. Every one is followed by at least one row.
    pub fn crossings(&self) -> &[(u32, Crossing)] {
        &self.crossings
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.rows {
            RowStore::Owned(tweets) => tweets.len(),
            RowStore::Shared { sel, .. } => sel.len(),
        }
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row store as a slice — owned mode only. Shared-log batches
    /// have no contiguous row slice; use
    /// [`tweet_at`](TweetBatch::tweet_at).
    pub fn tweets(&self) -> &[Tweet] {
        match &self.rows {
            RowStore::Owned(tweets) => tweets,
            RowStore::Shared { .. } => panic!("tweets() on a log-bound batch; use tweet_at"),
        }
    }

    /// Row `i` of the batch, whichever row store backs it.
    #[inline]
    pub fn tweet_at(&self, i: usize) -> &Tweet {
        match &self.rows {
            RowStore::Owned(tweets) => &tweets[i],
            RowStore::Shared { log, sel } => &log[sel[i] as usize],
        }
    }

    fn rows_ref(&self) -> RowsRef<'_> {
        match &self.rows {
            RowStore::Owned(tweets) => RowsRef::Slice(tweets),
            RowStore::Shared { log, sel } => RowsRef::View { log, sel },
        }
    }

    /// Stream timestamp of row `i`.
    pub fn ts(&self, i: usize) -> Timestamp {
        self.tweet_at(i).created_at
    }

    /// Stream timestamp of the last row, if any.
    pub fn last_ts(&self) -> Option<Timestamp> {
        match self.len() {
            0 => None,
            n => Some(self.ts(n - 1)),
        }
    }

    /// True when column `c` survives the liveness mask.
    fn alive(&self, c: usize) -> bool {
        self.live()
            .is_none_or(|l| l.get(c).copied().unwrap_or(true))
    }

    /// Materialize the columns marked in `needed` (intersected with
    /// the liveness mask); already-built columns are not rebuilt and
    /// not recounted. Returns what this call actually did.
    pub fn materialize(&mut self, needed: &[bool]) -> DecodeStats {
        if self.cols.is_empty() {
            let (cols, stats) = decode_rows(self.rows_ref(), needed, self.live());
            self.cols = cols;
            return stats;
        }
        // Incremental: build only still-missing requested columns.
        let mut stats = DecodeStats::default();
        for c in 0..col::COUNT {
            if self.cols[c].is_built() {
                continue;
            }
            if needed.get(c).copied().unwrap_or(false) && self.alive(c) {
                stats.columns_materialized += 1;
                let built = build_column(c, self.rows_ref(), &mut stats);
                self.cols[c] = built;
            }
        }
        stats
    }

    /// The materialized column `c`, if any.
    pub fn column(&self, c: usize) -> Option<&Column> {
        self.cols.get(c).filter(|col| col.is_built())
    }

    /// Zero-copy string access for the text-typed columns (`text`,
    /// `screen_name`, `loc`, `lang`): the arena slice or dictionary
    /// entry when materialized, the tweet's own buffer otherwise.
    /// `None` when the column is pruned dead or not string-typed —
    /// the columnar VM maps that to NULL, exactly like the pruned row
    /// decode.
    pub fn str_at(&self, i: usize, c: usize) -> Option<&str> {
        if !self.alive(c) {
            return None;
        }
        match self.column(c) {
            Some(Column::Str { arena, offsets }) => {
                Some(&arena[offsets[i] as usize..offsets[i + 1] as usize])
            }
            Some(Column::Dict { codes, dict }) => Some(&dict[codes[i] as usize]),
            _ => {
                let t = self.tweet_at(i);
                match c {
                    col::TEXT => Some(&t.text),
                    col::SCREEN_NAME => Some(&t.user.screen_name),
                    col::LOC => Some(&t.user.location),
                    col::LANG => Some(t.lang()),
                    _ => None,
                }
            }
        }
    }

    /// Float access for `lat` / `lon`: `None` when pruned dead, the
    /// row is ungeotagged, or the column is not float-typed.
    pub fn float_at(&self, i: usize, c: usize) -> Option<f64> {
        if !self.alive(c) {
            return None;
        }
        match self.column(c) {
            Some(Column::Float { vals, valid }) => valid.get(i).then(|| vals[i]),
            _ => {
                let t = self.tweet_at(i);
                match c {
                    col::LAT => t.coordinates().map(|(la, _)| la),
                    col::LON => t.coordinates().map(|(_, lo)| lo),
                    _ => None,
                }
            }
        }
    }

    /// Row `i`, column `c` as a [`Value`], with identical semantics to
    /// the corresponding `Record::from_tweet_pruned` slot (dead and
    /// out-of-range columns are NULL).
    pub fn value_at(&self, i: usize, c: usize) -> Value {
        if !self.alive(c) {
            return Value::Null;
        }
        let t = self.tweet_at(i);
        match c {
            col::ID => Value::Int(t.id as i64),
            col::TEXT => Value::Str(Arc::clone(&t.text)),
            col::USER_ID => Value::Int(t.user.id as i64),
            col::SCREEN_NAME => Value::Str(Arc::clone(&t.user.screen_name)),
            col::LOC => Value::Str(Arc::clone(&t.user.location)),
            col::LAT => t
                .coordinates()
                .map(|(la, _)| Value::Float(la))
                .unwrap_or(Value::Null),
            col::LON => t
                .coordinates()
                .map(|(_, lo)| Value::Float(lo))
                .unwrap_or(Value::Null),
            col::CREATED_AT => Value::Time(t.created_at),
            col::LANG => Value::Str(Arc::clone(t.lang())),
            col::FOLLOWERS => Value::Int(t.user.followers as i64),
            col::RETWEET_OF => t
                .retweet_of()
                .map(|id| Value::Int(id as i64))
                .unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }

    /// [`value_at`](TweetBatch::value_at) without the `Value`: the
    /// same slot borrowed from the row store, so a reader that only
    /// hashes, compares or sums it bumps no `Arc`.
    pub fn view_at(&self, i: usize, c: usize) -> ValueRef<'_> {
        if !self.alive(c) {
            return ValueRef::Null;
        }
        let t = self.tweet_at(i);
        let int = |o: Option<u64>| o.map_or(ValueRef::Null, |x| ValueRef::Int(x as i64));
        let float = |o: Option<f64>| o.map_or(ValueRef::Null, ValueRef::Float);
        match c {
            col::ID => ValueRef::Int(t.id as i64),
            col::TEXT => ValueRef::Str(&t.text),
            col::USER_ID => ValueRef::Int(t.user.id as i64),
            col::SCREEN_NAME => ValueRef::Str(&t.user.screen_name),
            col::LOC => ValueRef::Str(&t.user.location),
            col::LAT => float(t.coordinates().map(|(la, _)| la)),
            col::LON => float(t.coordinates().map(|(_, lo)| lo)),
            col::CREATED_AT => ValueRef::Time(t.created_at),
            col::LANG => ValueRef::Str(t.lang()),
            col::FOLLOWERS => ValueRef::Int(t.user.followers as i64),
            col::RETWEET_OF => int(t.retweet_of()),
            _ => ValueRef::Null,
        }
    }

    /// Row `i` as a [`Record`] — the row-shim boundary. Defers to
    /// `Record::from_tweet{,_pruned}` so shim output is identical to
    /// the row pipeline by construction.
    pub fn record_at(&self, i: usize) -> Record {
        let t = self.tweet_at(i);
        match self.live.as_deref() {
            Some(l) => Record::from_tweet_pruned(t, l),
            None => Record::from_tweet(t),
        }
    }

    /// All rows as [`Record`]s.
    pub fn to_records(&self) -> Vec<Record> {
        (0..self.len()).map(|i| self.record_at(i)).collect()
    }

    /// Drop rows, columns and crossings, keeping the row-store
    /// allocation, the log binding (in shared mode), and the liveness
    /// mask for reuse.
    pub fn reset(&mut self) {
        match &mut self.rows {
            RowStore::Owned(tweets) => tweets.clear(),
            RowStore::Shared { sel, .. } => sel.clear(),
        }
        self.cols.clear();
        self.crossings.clear();
    }
}

/// Every column marked needed — the "decode everything" mask.
pub fn all_columns() -> [bool; col::COUNT] {
    [true; col::COUNT]
}

/// A per-batch row materialization cache for multi-consumer dispatch.
///
/// When several consumers read the same [`TweetBatch`] as rows, each
/// row is decoded into a [`Record`] at most **once** — under the
/// batch's liveness mask — and later consumers get a cheap clone
/// (`Record` values are `Arc`-backed, so a clone is reference bumps,
/// not string copies).
///
/// Nothing in the engine uses this any more: the standing-query host
/// hands its queries the columnar batch itself. It stays exported
/// because the benchmark's `model.row_decode_ns_per_row` rung times it.
///
/// The cache is positional and valid for exactly one batch: call
/// [`RowCache::begin`] before each dispatch round.
#[derive(Debug, Default)]
pub struct RowCache {
    rows: Vec<Option<Record>>,
    decoded: u64,
    reused: u64,
}

impl RowCache {
    /// An empty cache.
    pub fn new() -> RowCache {
        RowCache::default()
    }

    /// Reset for a batch of `n` rows, keeping the slot allocation.
    pub fn begin(&mut self, n: usize) {
        self.rows.clear();
        self.rows.resize(n, None);
    }

    /// Row `i` of `batch` as a [`Record`], decoding on first access and
    /// cloning thereafter.
    pub fn get(&mut self, batch: &TweetBatch, i: usize) -> Record {
        match &self.rows[i] {
            Some(r) => {
                self.reused += 1;
                r.clone()
            }
            None => {
                self.decoded += 1;
                let r = batch.record_at(i);
                self.rows[i] = Some(r.clone());
                r
            }
        }
    }

    /// Already-materialized row `i`, if any. A shared (`&self`) read for
    /// fan-out phases that run after every selected row has been
    /// materialized with [`RowCache::get`]; does not count as a reuse.
    pub fn peek(&self, i: usize) -> Option<&Record> {
        self.rows.get(i).and_then(Option::as_ref)
    }

    /// Rows materialized from scratch since construction.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Rows served as clones of an already-materialized record.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::User;

    fn tweet(i: u64) -> Tweet {
        let mut user = User::new(i * 7, format!("user{i}"));
        user.location = if i.is_multiple_of(2) { "nyc" } else { "sf" }.into();
        user.followers = (i * 13) as u32;
        let mut b = Tweet::builder(i, format!("tweet number {i} about obama"))
            .user(user)
            .at(Timestamp::from_secs(i as i64))
            .lang(if i.is_multiple_of(3) { "en" } else { "es" });
        if i.is_multiple_of(4) {
            b = b.coordinates(40.0 + i as f64, -74.0 - i as f64);
        }
        if i.is_multiple_of(5) {
            b = b.retweet_of(i + 1000);
        }
        b.build()
    }

    fn batch(n: u64, live: Option<Arc<[bool]>>) -> TweetBatch {
        let mut b = TweetBatch::with_live(live);
        for i in 0..n {
            b.push(tweet(i));
        }
        b
    }

    #[test]
    fn to_records_matches_from_tweet() {
        let b = batch(17, None);
        for (i, t) in b.tweets().iter().enumerate() {
            assert_eq!(b.record_at(i), Record::from_tweet(t));
        }
        let recs = b.to_records();
        assert_eq!(recs.len(), 17);
        for (i, t) in b.tweets().iter().enumerate() {
            assert_eq!(recs[i], Record::from_tweet(t));
        }
    }

    #[test]
    fn to_records_matches_pruned_decode() {
        let mut live = vec![false; col::COUNT];
        live[col::LANG] = true;
        live[col::FOLLOWERS] = true;
        let mask: Arc<[bool]> = live.clone().into();
        let b = batch(17, Some(Arc::clone(&mask)));
        for (i, t) in b.tweets().iter().enumerate() {
            assert_eq!(b.record_at(i), Record::from_tweet_pruned(t, &live));
        }
    }

    #[test]
    fn row_cache_decodes_once_and_clones_after() {
        let b = batch(10, None);
        let mut cache = RowCache::new();
        cache.begin(b.len());
        // Three consumers read overlapping row sets.
        for sel in [vec![0usize, 2, 4], vec![2, 4, 6], vec![0, 6]] {
            for i in sel {
                assert_eq!(cache.get(&b, i), b.record_at(i));
            }
        }
        assert_eq!(cache.decoded(), 4); // rows 0, 2, 4, 6
        assert_eq!(cache.reused(), 4);
        // A new batch invalidates the slots but keeps the counters.
        cache.begin(b.len());
        assert_eq!(cache.get(&b, 0), b.record_at(0));
        assert_eq!(cache.decoded(), 5);
    }

    #[test]
    fn wrong_width_mask_fails_open() {
        let mask: Arc<[bool]> = vec![false; 3].into();
        let b = batch(5, Some(mask));
        assert!(b.live().is_none(), "short mask must normalize away");
        for (i, t) in b.tweets().iter().enumerate() {
            assert_eq!(b.record_at(i), Record::from_tweet(t));
            for c in 0..col::COUNT {
                assert_eq!(b.value_at(i, c), *Record::from_tweet(t).value(c));
            }
        }
    }

    #[test]
    fn value_at_matches_record_slots() {
        let mut b = batch(23, None);
        // Both before and after materialization.
        for round in 0..2 {
            if round == 1 {
                b.materialize(&all_columns());
            }
            for (i, t) in b.tweets().iter().enumerate() {
                let rec = Record::from_tweet(t);
                for c in 0..col::COUNT {
                    assert_eq!(b.value_at(i, c), *rec.value(c), "row {i} col {c}");
                }
            }
        }
    }

    #[test]
    fn view_at_is_value_at_borrowed() {
        // Same variant, same payload, dead columns NULL, out of range
        // NULL: `Debug` tells `Int(1)` from `Float(1.0)` where `==`
        // would not.
        let dead_text: Arc<[bool]> = (0..col::COUNT).map(|c| c != col::TEXT).collect();
        for live in [None, Some(dead_text)] {
            let b = batch(23, live);
            for i in 0..b.len() {
                for c in 0..=col::COUNT {
                    let owned = b.value_at(i, c);
                    assert_eq!(
                        format!("{:?}", b.view_at(i, c)),
                        format!("{:?}", ValueRef::from(&owned)),
                        "row {i} col {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn str_and_float_accessors_agree_with_rows() {
        let mut b = batch(23, None);
        for round in 0..2 {
            if round == 1 {
                b.materialize(&all_columns());
            }
            for i in 0..b.len() {
                let t = &b.tweets()[i];
                assert_eq!(b.str_at(i, col::TEXT), Some(&*t.text));
                assert_eq!(b.str_at(i, col::SCREEN_NAME), Some(&*t.user.screen_name));
                assert_eq!(b.str_at(i, col::LOC), Some(&*t.user.location));
                assert_eq!(b.str_at(i, col::LANG), Some(&**t.lang()));
                assert_eq!(b.str_at(i, col::ID), None, "non-string col");
                assert_eq!(b.float_at(i, col::LAT), t.coordinates().map(|(la, _)| la));
                assert_eq!(b.float_at(i, col::LON), t.coordinates().map(|(_, lo)| lo));
                assert_eq!(b.float_at(i, col::TEXT), None, "non-float col");
            }
        }
    }

    #[test]
    fn pruned_columns_read_as_null() {
        let mut live = vec![true; col::COUNT];
        live[col::TEXT] = false;
        live[col::LAT] = false;
        let b = batch(9, Some(live.clone().into()));
        for i in 0..b.len() {
            assert_eq!(b.value_at(i, col::TEXT), Value::Null);
            assert_eq!(b.str_at(i, col::TEXT), None);
            assert_eq!(b.float_at(i, col::LAT), None);
            // Live columns still read through.
            assert_eq!(b.str_at(i, col::LANG), Some(&**b.tweets()[i].lang()));
        }
    }

    #[test]
    fn materialize_respects_need_and_liveness() {
        let mut live = vec![true; col::COUNT];
        live[col::TEXT] = false;
        let mut b = batch(10, Some(live.into()));
        let mut needed = [false; col::COUNT];
        needed[col::TEXT] = true; // pruned dead: must be skipped
        needed[col::LANG] = true;
        needed[col::FOLLOWERS] = true;
        let stats = b.materialize(&needed);
        assert_eq!(stats.columns_materialized, 2);
        assert_eq!(stats.columns_skipped, (col::COUNT - 2) as u64);
        assert!(b.column(col::TEXT).is_none());
        assert!(b.column(col::LANG).is_some());
        assert!(b.column(col::FOLLOWERS).is_some());
        // Incremental second call builds only the new column.
        let mut more = [false; col::COUNT];
        more[col::SCREEN_NAME] = true;
        more[col::LANG] = true; // already built: not recounted
        let stats2 = b.materialize(&more);
        assert_eq!(stats2.columns_materialized, 1);
        assert!(b.column(col::SCREEN_NAME).is_some());
    }

    #[test]
    fn dictionary_encodes_low_cardinality_columns() {
        let mut b = batch(50, None);
        let mut needed = [false; col::COUNT];
        needed[col::LANG] = true;
        needed[col::LOC] = true;
        let stats = b.materialize(&needed);
        assert_eq!(stats.dict_rows, 100);
        // Two langs ("en"/"es") and two locs ("nyc"/"sf").
        assert_eq!(stats.dict_entries, 4);
        assert!(stats.dict_reuse_permille().unwrap() > 900);
        match b.column(col::LANG).unwrap() {
            Column::Dict { codes, dict } => {
                assert_eq!(codes.len(), 50);
                assert_eq!(dict.len(), 2);
                for (i, code) in codes.iter().enumerate() {
                    assert_eq!(&*dict[*code as usize], &**b.tweets()[i].lang());
                }
            }
            other => panic!("lang should dictionary-encode, got {other:?}"),
        }
    }

    #[test]
    fn dict_ptr_fast_path_hits_on_shared_allocations() {
        // One author: every row reads the author's `lang` allocation.
        let author = Arc::new(User::new(1, "shared"));
        let mut b = TweetBatch::new();
        for i in 0..20u64 {
            b.push(Tweet::builder(i, "x").user(Arc::clone(&author)).build());
        }
        let mut needed = [false; col::COUNT];
        needed[col::LANG] = true;
        let stats = b.materialize(&needed);
        assert_eq!(stats.dict_entries, 1);
        assert_eq!(
            stats.dict_ptr_hits, 19,
            "all but the first row hit by pointer"
        );
    }

    #[test]
    fn arena_layout_is_contiguous() {
        let mut b = batch(8, None);
        let mut needed = [false; col::COUNT];
        needed[col::TEXT] = true;
        b.materialize(&needed);
        match b.column(col::TEXT).unwrap() {
            Column::Str { arena, offsets } => {
                assert_eq!(offsets.len(), 9);
                assert_eq!(offsets[0], 0);
                assert_eq!(*offsets.last().unwrap() as usize, arena.len());
                for i in 0..8 {
                    assert_eq!(
                        &arena[offsets[i] as usize..offsets[i + 1] as usize],
                        &*b.tweets()[i].text
                    );
                }
            }
            other => panic!("text should arena-encode, got {other:?}"),
        }
    }

    #[test]
    fn push_after_materialize_invalidates_columns() {
        let mut b = batch(4, None);
        b.materialize(&all_columns());
        assert!(b.column(col::TEXT).is_some());
        b.push(tweet(99));
        assert!(b.column(col::TEXT).is_none(), "stale columns must drop");
        assert_eq!(b.len(), 5);
        assert_eq!(b.record_at(4), Record::from_tweet(&b.tweets()[4]));
    }

    #[test]
    fn reset_keeps_mask_and_clears_rows() {
        let mut live = vec![true; col::COUNT];
        live[col::TEXT] = false;
        let mut b = batch(4, Some(live.into()));
        b.materialize(&all_columns());
        b.reset();
        assert!(b.is_empty());
        assert!(b.live().is_some(), "mask survives reset");
        b.push(tweet(1));
        assert_eq!(b.value_at(0, col::TEXT), Value::Null);
    }

    #[test]
    fn stats_merge_and_reuse_permille() {
        let mut a = DecodeStats {
            columns_materialized: 2,
            columns_skipped: 9,
            dict_rows: 100,
            dict_entries: 4,
            dict_ptr_hits: 90,
        };
        let b = DecodeStats {
            columns_materialized: 1,
            columns_skipped: 10,
            dict_rows: 50,
            dict_entries: 1,
            dict_ptr_hits: 49,
        };
        a.merge(&b);
        assert_eq!(a.columns_materialized, 3);
        assert_eq!(a.columns_skipped, 19);
        assert_eq!(a.dict_rows, 150);
        assert_eq!(a.dict_reuse_permille(), Some((150 - 5) * 1000 / 150));
        assert_eq!(DecodeStats::default().dict_reuse_permille(), None);
    }

    #[test]
    fn shared_log_view_matches_owned_batch() {
        let log: Arc<Vec<Tweet>> = Arc::new((0..30).map(tweet).collect());
        let sel: Vec<u32> = (0..30u32).filter(|i| i % 3 != 0).collect();
        let mut shared = TweetBatch::new();
        shared.bind_log(&log);
        shared.extend_indices(&sel);
        assert!(shared.is_shared());
        let mut owned = TweetBatch::new();
        for &i in &sel {
            owned.push(log[i as usize].clone());
        }
        assert_eq!(shared.len(), owned.len());
        assert_eq!(shared.last_ts(), owned.last_ts());
        for round in 0..2 {
            if round == 1 {
                shared.materialize(&all_columns());
                owned.materialize(&all_columns());
            }
            for i in 0..shared.len() {
                assert_eq!(shared.record_at(i), owned.record_at(i), "row {i}");
                for c in 0..col::COUNT {
                    assert_eq!(shared.value_at(i, c), owned.value_at(i, c));
                }
                assert_eq!(shared.str_at(i, col::TEXT), owned.str_at(i, col::TEXT));
                assert_eq!(shared.float_at(i, col::LAT), owned.float_at(i, col::LAT));
            }
        }
        // Reset keeps the log binding; rebinding is a no-op clear.
        shared.reset();
        assert!(shared.is_shared() && shared.is_empty());
        shared.bind_log(&log);
        shared.push_index(5);
        assert_eq!(shared.tweet_at(0).id, log[5].id);
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut bm = Bitmap::with_capacity(130);
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert!(!bm.get(500), "out of range reads false");
        assert_eq!(bm.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
        bm.clear();
        assert!(bm.is_empty());
        assert!(!bm.get(0));
    }
}
