//! Columnar tweet batches: the decode format that replaces
//! row-at-a-time [`Record::from_tweet`] on the hot path.
//!
//! A [`TweetBatch`] owns the tweets of one micro-batch as a row store
//! and lazily builds per-column acceleration structures on top of it:
//!
//! * fixed-width columns (`id`, `user_id`, `followers`, `lat`, `lon`,
//!   `created_at`, `retweet_of`) as contiguous vectors with a validity
//!   [`Bitmap`] — no per-value heap traffic at all;
//! * variable-width text (`text`, `screen_name`) is **never copied**:
//!   each tweet holds its strings once, as [`Text`] handles into
//!   shared chunks, and a reader reads them there
//!   ([`ColumnView::Str`], [`TweetBatch::str_at`]) with no build and no
//!   buffer;
//! * low-cardinality strings (`loc`, `lang`) **dictionary-encoded**:
//!   per-row `u32` codes into a small distinct-value table, with a
//!   pointer-identity fast path (the generator and the log decoder
//!   both intern `lang` and `loc`: one [`Text`] per distinct value,
//!   shared by every author and tweet that carries it, so every row
//!   after a value's first in a batch resolves by its data pointer
//!   without hashing a byte). The encoding is *adaptive*: if a batch proves
//!   high-cardinality (more than `DICT_MAX_ENTRIES` distinct values,
//!   e.g. `loc` over a large messy-location population), the builder
//!   bails out and the column reads the tweet like `text` does —
//!   readers are agnostic because both shapes are served through
//!   [`TweetBatch::view`].
//!
//! Decode is *lazy per column*: the first reader to call
//! [`TweetBatch::view`] for a column builds it, and the batch keeps it
//! until its rows change, so a batch shared read-only among several
//! queries builds each column at most once, for whichever reads it
//! first, and a column no reader views is never built. The batch
//! counts what its readers built
//! ([`TweetBatch::decode_stats`]); nothing outside it decides which
//! columns to build. A reader that walks many rows of a column views it
//! once and reads rows off the typed [`ColumnView`].
//! Operators that still think in rows cross the boundary through
//! [`TweetBatch::to_records`] / [`TweetBatch::record_at`], which defer
//! to [`Record::from_tweet`] so the row shim is differentially
//! identical to the row pipeline by construction.
//!
//! The schema note vs the paper: the reproduction's [`Tweet`] carries
//! no `source` (client application) field, so the low-cardinality
//! dictionary columns here are `lang` and `loc` — `loc` plays the
//! `source` role from the original design (small distinct set, heavy
//! reuse of interned [`Text`] values).

use crate::record::Record;
use crate::text::Text;
use crate::time::{Crossing, Timestamp};
use crate::tweet::Tweet;
use crate::value::{Value, ValueRef};
use std::cell::{Cell, OnceCell, RefCell};
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
        let mut all = Bitmap::default();
        all.set_all(n);
        all
    }

    /// Make this `n` bits, all set, in the allocation it has.
    fn set_all(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), u64::MAX);
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        self.len = n;
    }

    /// Append `n` set bits.
    pub fn push_set(&mut self, n: usize) {
        (0..n).for_each(|_| self.push(true));
    }

    /// Append one bit.
    #[inline]
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
    #[inline]
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

    /// Keep the first `n` bits.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.words.truncate(n.div_ceil(64));
        if !n.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (n % 64)) - 1;
            }
        }
        self.len = n;
    }

    /// Heap bytes of the word buffer, at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// One built column of a batch, or none.
#[derive(Debug, Clone, Default)]
pub enum Column {
    /// No values: a column read from its tweets (`text`,
    /// `screen_name`, a dictionary that bailed out), or a spare slot
    /// that holds no buffers.
    #[default]
    Missing,
    /// Contiguous `i64`s with per-row validity.
    Int { vals: Vec<i64>, valid: Bitmap },
    /// Contiguous `f64`s with per-row validity.
    Float { vals: Vec<f64>, valid: Bitmap },
    /// Contiguous timestamps (always valid on the twitter schema).
    Time { vals: Vec<Timestamp> },
    /// Dictionary text: per-row codes into the distinct-value table.
    Dict { codes: Vec<u32>, dict: Vec<Text> },
}

impl Column {
    /// True when the column holds values.
    pub fn is_built(&self) -> bool {
        !matches!(self, Column::Missing)
    }

    /// The column's rows as a [`ColumnView`]; [`ColumnView::Null`] for
    /// [`Column::Missing`].
    pub fn view(&self) -> ColumnView<'_> {
        match self {
            Column::Missing => ColumnView::Null,
            Column::Int { vals, valid } => ColumnView::Int { vals, valid },
            Column::Float { vals, valid } => ColumnView::Float { vals, valid },
            Column::Time { vals } => ColumnView::Time { vals },
            Column::Dict { codes, dict } => ColumnView::Dict { codes, dict },
        }
    }
}

/// One column of a batch resolved for row reads: the materialized
/// vectors borrowed as they are, so reading row `i` is an index and no
/// match on the batch's decode state.
#[derive(Debug, Clone, Copy)]
pub enum ColumnView<'a> {
    /// Every row NULL: a column outside the schema.
    Null,
    /// `i64`s; a row whose validity bit is clear is NULL.
    Int { vals: &'a [i64], valid: &'a Bitmap },
    /// `f64`s; a row whose validity bit is clear is NULL.
    Float { vals: &'a [f64], valid: &'a Bitmap },
    /// Timestamps, never NULL.
    Time { vals: &'a [Timestamp] },
    /// A string column read in place: row `i` is `field` of the
    /// batch's tweet `i`.
    Str {
        batch: &'a TweetBatch,
        field: fn(&Tweet) -> &Text,
    },
    /// Dictionary text: row `i` is `dict[codes[i]]`.
    Dict { codes: &'a [u32], dict: &'a [Text] },
}

impl<'a> ColumnView<'a> {
    /// Row `i`, borrowed: the same value and variant as
    /// [`TweetBatch::value_at`] for the column viewed.
    #[inline]
    pub fn get(&self, i: usize) -> ValueRef<'a> {
        match *self {
            ColumnView::Null => ValueRef::Null,
            ColumnView::Int { vals, valid } => match valid.get(i) {
                true => ValueRef::Int(vals[i]),
                false => ValueRef::Null,
            },
            ColumnView::Float { vals, valid } => match valid.get(i) {
                true => ValueRef::Float(vals[i]),
                false => ValueRef::Null,
            },
            ColumnView::Time { vals } => ValueRef::Time(vals[i]),
            ColumnView::Str { batch, field } => ValueRef::Str(field(batch.tweet_at(i))),
            ColumnView::Dict { codes, dict } => ValueRef::Str(&dict[codes[i] as usize]),
        }
    }
}

/// Counters describing what a columnar decode actually did; summed
/// over batches and surfaced through the metrics registry. All values
/// are deterministic for a fixed seed and worker count — batch
/// boundaries are cut in virtual stream time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Columns built by the batch's readers.
    pub columns_materialized: u64,
    /// Columns left unbuilt in a batch some reader viewed a column of:
    /// unread, or read from the tweets.
    pub columns_skipped: u64,
    /// Rows written through dictionary-encoded columns.
    pub dict_rows: u64,
    /// Distinct dictionary entries created (summed over batches).
    pub dict_entries: u64,
    /// Dictionary rows resolved by data pointer identity, without
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
/// store) or a selection-vector view into a shared firehose log (the
/// zero-copy batched source path). Builders are written against this so
/// both row stores decode through the identical kernels.
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

/// The tweet field that string column `c` reads; `None` for a column
/// that is not one of the `twitter` schema's four strings.
fn str_field(c: usize) -> Option<fn(&Tweet) -> &Text> {
    match c {
        col::TEXT => Some(|t| &t.text),
        col::SCREEN_NAME => Some(|t| &t.user.screen_name),
        col::LOC => Some(|t| &t.user.location),
        col::LANG => Some(|t| t.lang()),
        _ => None,
    }
}

/// Build column `c` over `rows` — the core decode kernel: one
/// column-at-a-time loop over the row store, no per-value allocation.
/// The build takes `old`'s buffers when it is a column of the same
/// shape (the one a previous batch built), so a batch buffer that is
/// reset and refilled allocates nothing for its columns once warm.
/// [`Column::Missing`] for `text` and `screen_name`, which are read
/// from the tweet, and for a dictionary that bails out.
fn build_column(c: usize, rows: RowsRef<'_>, stats: &mut DecodeStats, old: &mut Column) -> Column {
    match c {
        col::ID => dense_int_column(rows, |t| t.id as i64, old),
        col::USER_ID => dense_int_column(rows, |t| t.user.id as i64, old),
        col::LOC => dict_column(rows, |t| &t.user.location, stats, old),
        col::LAT => float_column(rows, |t| t.coordinates().map(|(la, _)| la), old),
        col::LON => float_column(rows, |t| t.coordinates().map(|(_, lo)| lo), old),
        col::CREATED_AT => {
            let mut vals = match std::mem::take(old) {
                Column::Time { vals } => vals,
                _ => Vec::new(),
            };
            vals.clear();
            vals.extend((0..rows.len()).map(|i| rows.get(i).created_at));
            Column::Time { vals }
        }
        col::LANG => dict_column(rows, |t| t.lang(), stats, old),
        col::FOLLOWERS => dense_int_column(rows, |t| t.user.followers as i64, old),
        col::RETWEET_OF => int_column(rows, |t| t.retweet_of().map(|id| id as i64), old),
        _ => Column::Missing,
    }
}

/// `old`'s values and validity if it is an integer column, emptied;
/// new ones otherwise.
fn int_buffers(old: &mut Column) -> (Vec<i64>, Bitmap) {
    match std::mem::take(old) {
        Column::Int {
            mut vals,
            mut valid,
        } => {
            vals.clear();
            valid.clear();
            (vals, valid)
        }
        _ => Default::default(),
    }
}

/// Always-valid integer column: straight collect, validity filled in
/// whole words instead of a per-row branch.
fn dense_int_column(rows: RowsRef<'_>, f: impl Fn(&Tweet) -> i64, old: &mut Column) -> Column {
    let (mut vals, mut valid) = int_buffers(old);
    vals.extend((0..rows.len()).map(|i| f(rows.get(i))));
    valid.set_all(rows.len());
    Column::Int { vals, valid }
}

fn int_column(rows: RowsRef<'_>, f: impl Fn(&Tweet) -> Option<i64>, old: &mut Column) -> Column {
    let (mut vals, mut valid) = int_buffers(old);
    vals.reserve(rows.len());
    valid.words.reserve(rows.len().div_ceil(64));
    for i in 0..rows.len() {
        let v = f(rows.get(i));
        vals.push(v.unwrap_or(0));
        valid.push(v.is_some());
    }
    Column::Int { vals, valid }
}

fn float_column(rows: RowsRef<'_>, f: impl Fn(&Tweet) -> Option<f64>, old: &mut Column) -> Column {
    let (mut vals, mut valid) = match std::mem::take(old) {
        Column::Float {
            mut vals,
            mut valid,
        } => {
            vals.clear();
            valid.clear();
            (vals, valid)
        }
        _ => Default::default(),
    };
    vals.reserve(rows.len());
    valid.words.reserve(rows.len().div_ceil(64));
    for i in 0..rows.len() {
        let v = f(rows.get(i));
        vals.push(v.unwrap_or(0.0));
        valid.push(v.is_some());
    }
    Column::Float { vals, valid }
}

/// Distinct-value cap for dictionary columns. A dictionary only pays
/// when codes repeat; past this many distinct values the column is not
/// low-cardinality in this batch and the build bails out: the column
/// is left unbuilt and read from the tweet, like `text` (readers go
/// through [`TweetBatch::view`] either way).
const DICT_MAX_ENTRIES: usize = 64;

/// Pointer-cache slots (power of two), linear probing. At most half of
/// them are ever filled: a pointer first seen past that is resolved
/// through the value table and not cached.
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

/// Build a dictionary column, or bail out ([`Column::Missing`], with
/// `old` left holding the buffers for the next batch) when the batch
/// proves high-cardinality. No string hashing on the hot
/// path: the sources intern these values (one allocation per distinct
/// string), so a cache keyed on the data pointer resolves repeat rows
/// in one probe; only first-seen pointers hash their bytes, and
/// distinct allocations with equal content still collapse to one
/// entry. The cache never evicts, so which rows hit depends on the
/// order pointers first appear in, never on where they lie in memory:
/// over interned values every repeat row hits.
fn dict_column<'t>(
    rows: RowsRef<'t>,
    f: impl Fn(&'t Tweet) -> &'t Text,
    stats: &mut DecodeStats,
    old: &mut Column,
) -> Column {
    let (mut codes, mut dict) = match std::mem::take(old) {
        Column::Dict {
            mut codes,
            mut dict,
        } => {
            codes.clear();
            dict.clear();
            (codes, dict)
        }
        _ => Default::default(),
    };
    let n = rows.len();
    codes.reserve(n);
    // Sized for the cap once, not grown a value at a time.
    dict.reserve(DICT_MAX_ENTRIES.min(n));
    // `(data pointer, length, code + 1)`, linear probing; code 0 marks
    // an empty slot. The length is part of the key: texts cut from one
    // chunk can start at the same byte when one of them is empty.
    let mut ptr_slots = [(0usize, 0u32, 0u32); DICT_PTR_SLOTS];
    let mut ptrs_cached = 0usize;
    // `code + 1`, linear probing; 0 marks an empty slot.
    let mut val_slots = [0u32; DICT_VAL_SLOTS];
    let mut ptr_hits = 0u64;
    for row in 0..n {
        let s = f(rows.get(row));
        let (p, len) = (s.as_bytes().as_ptr() as usize, s.len() as u32);
        let mut ci = fib(p as u64) & (DICT_PTR_SLOTS - 1);
        let cached = loop {
            match ptr_slots[ci] {
                (_, _, 0) => break None,
                (cp, cl, cc) if cp == p && cl == len => break Some(cc - 1),
                _ => ci = (ci + 1) & (DICT_PTR_SLOTS - 1),
            }
        };
        let code = if let Some(code) = cached {
            ptr_hits += 1;
            code
        } else {
            let mut i = fib(val_hash(s)) & (DICT_VAL_SLOTS - 1);
            let code = loop {
                let c = val_slots[i];
                if c == 0 {
                    if dict.len() >= DICT_MAX_ENTRIES {
                        // High cardinality: stop paying per-row lookup
                        // cost and read the column from the tweets.
                        *old = Column::Dict { codes, dict };
                        return Column::Missing;
                    }
                    let code = dict.len() as u32;
                    dict.push(s.clone());
                    val_slots[i] = code + 1;
                    break code;
                }
                if *dict[(c - 1) as usize] == **s {
                    break c - 1;
                }
                i = (i + 1) & (DICT_VAL_SLOTS - 1);
            };
            // `ci` is the empty slot the probe above stopped at.
            if ptrs_cached < DICT_PTR_SLOTS / 2 {
                ptr_slots[ci] = (p, len, code + 1);
                ptrs_cached += 1;
            }
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

impl RowStore {
    fn rows(&self) -> RowsRef<'_> {
        match self {
            RowStore::Owned(tweets) => RowsRef::Slice(tweets),
            RowStore::Shared { log, sel } => RowsRef::View { log, sel },
        }
    }
}

impl Default for RowStore {
    fn default() -> RowStore {
        RowStore::Owned(Vec::new())
    }
}

/// A micro-batch of tweets with lazily built columns.
///
/// The batch carries a row store — owned tweets, or a zero-copy
/// selection view into the shared firehose log (see
/// [`bind_log`](TweetBatch::bind_log)) — so any row can always be
/// projected to a [`Record`] (the shim for unported operators) and any
/// column can be read row-wise without building it. The row
/// accessors ([`str_at`](TweetBatch::str_at),
/// [`value_at`](TweetBatch::value_at)) read the tweet, so callers
/// never branch on decode state.
#[derive(Debug, Clone, Default)]
pub struct TweetBatch {
    rows: RowStore,
    /// Column `c` as the first [`view`](TweetBatch::view) of it since
    /// the rows last changed built it ([`Column::Missing`] for one read
    /// from the tweets); empty until then.
    cols: [OnceCell<Column>; col::COUNT],
    /// The columns earlier rows built, by index, for the next build of
    /// each to reuse the buffers of.
    spare: RefCell<[Column; col::COUNT]>,
    /// Some column has been viewed since the rows last changed; while
    /// it is false a push leaves the slots alone.
    viewed: Cell<bool>,
    /// The dictionary counters of the builds since the rows last
    /// changed.
    dict_stats: Cell<DecodeStats>,
    /// Punctuation riding with the rows: the watermark boundaries
    /// stream time crossed just before row `.0` (ascending rows).
    crossings: Vec<(u32, Crossing)>,
}

impl TweetBatch {
    /// Empty batch.
    pub fn new() -> TweetBatch {
        TweetBatch::default()
    }

    // Accepted and ignored: a batch builds only the columns its readers
    // view, so no column mask is left to set. `benchmark/**` (frozen to
    // source PRs) still calls it in `ladder.rs`; it goes when a
    // `[benchmark]` PR replaces the ladder's mask rungs (ROADMAP 1(a)).
    #[doc(hidden)]
    pub fn set_live(&mut self, _: Option<Arc<[bool]>>) {}

    /// Switch the batch to zero-copy mode over `log`: rows are log
    /// indices appended with [`push_index`](TweetBatch::push_index) and
    /// no `Tweet` is cloned. Rebinding to the same log (recycled batch
    /// buffers) keeps the selection allocation.
    pub fn bind_log(&mut self, log: &Arc<Vec<Tweet>>) {
        self.drop_columns();
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

    /// Append one tweet. Pushing into a batch that already has built
    /// columns drops them (they would go stale).
    pub fn push(&mut self, t: Tweet) {
        self.drop_columns();
        match &mut self.rows {
            RowStore::Owned(tweets) => tweets.push(t),
            RowStore::Shared { .. } => panic!("push of an owned Tweet into a log-bound batch"),
        }
    }

    /// Append one log row by index (shared-log mode only; see
    /// [`bind_log`](TweetBatch::bind_log)).
    pub fn push_index(&mut self, idx: u32) {
        self.drop_columns();
        match &mut self.rows {
            RowStore::Shared { sel, .. } => sel.push(idx),
            RowStore::Owned(_) => panic!("push_index into a batch with no bound log"),
        }
    }

    /// Append many log rows by index (shared-log mode only).
    pub fn extend_indices(&mut self, idxs: &[u32]) {
        self.drop_columns();
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

    /// The row store as a slice — owned mode only.
    #[cfg(test)]
    fn tweets(&self) -> &[Tweet] {
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

    /// Stream timestamp of row `i`.
    #[inline]
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

    /// View every column marked in `needed` (see
    /// [`view`](TweetBatch::view)) and return
    /// [`decode_stats`](TweetBatch::decode_stats).
    pub fn materialize(&self, needed: &[bool]) -> DecodeStats {
        for c in (0..col::COUNT).filter(|&c| needed.get(c) == Some(&true)) {
            self.view(c);
        }
        self.decode_stats()
    }

    /// What the readers of the current rows built: the columns built,
    /// and — once any column has been viewed — every other column as
    /// skipped; the dictionary counters of the builds. A batch no
    /// reader viewed counts nothing.
    pub fn decode_stats(&self) -> DecodeStats {
        if !self.viewed.get() {
            return DecodeStats::default();
        }
        let built = self.cols.iter().filter_map(OnceCell::get);
        let built = built.filter(|c| c.is_built()).count() as u64;
        DecodeStats {
            columns_materialized: built,
            columns_skipped: col::COUNT as u64 - built,
            ..self.dict_stats.get()
        }
    }

    /// Drop the built columns, which go stale with the rows, keeping
    /// their buffers for the next build.
    fn drop_columns(&mut self) {
        if !std::mem::take(self.viewed.get_mut()) {
            return;
        }
        for (spare, cell) in self.spare.get_mut().iter_mut().zip(&mut self.cols) {
            if let Some(built) = cell.take().filter(Column::is_built) {
                *spare = built;
            }
        }
        self.dict_stats.set(DecodeStats::default());
    }

    /// The built column `c`, if a reader has built it.
    pub fn column(&self, c: usize) -> Option<&Column> {
        self.cols.get(c)?.get().filter(|built| built.is_built())
    }

    /// Column `c` resolved for row reads, built by the first call for
    /// it since the rows last changed and kept for every later reader:
    /// the built column's view; for a string column that is not a
    /// built dictionary, the strings read in place from the tweets
    /// ([`ColumnView::Str`]); [`ColumnView::Null`] when the column is
    /// not in the schema.
    pub fn view(&self, c: usize) -> ColumnView<'_> {
        if c >= col::COUNT {
            return ColumnView::Null;
        }
        self.viewed.set(true);
        let built = self.cols[c].get_or_init(|| {
            let mut stats = self.dict_stats.get();
            let old = &mut self.spare.borrow_mut()[c];
            let built = build_column(c, self.rows.rows(), &mut stats, old);
            self.dict_stats.set(stats);
            built
        });
        match (built, str_field(c)) {
            (Column::Missing, Some(field)) => ColumnView::Str { batch: self, field },
            (built, _) => built.view(),
        }
    }

    /// Zero-copy string access for the text-typed columns (`text`,
    /// `screen_name`, `loc`, `lang`): the tweet's own string, whatever
    /// the batch has built. `None` when the column is not
    /// string-typed.
    pub fn str_at(&self, i: usize, c: usize) -> Option<&str> {
        let field = str_field(c)?;
        Some(field(self.tweet_at(i)))
    }

    /// Row `i`, column `c` as a [`Value`], with identical semantics to
    /// the corresponding [`Record::from_tweet`] slot (out-of-range
    /// columns are NULL). A string shares the tweet's chunk.
    pub fn value_at(&self, i: usize, c: usize) -> Value {
        match str_field(c) {
            Some(field) => Value::Str(field(self.tweet_at(i)).clone()),
            None => self.value_ref_at(i, c).to_value(),
        }
    }

    /// [`TweetBatch::value_at`], borrowed from the tweet: no refcount
    /// bump and no allocation.
    #[inline]
    pub fn value_ref_at(&self, i: usize, c: usize) -> ValueRef<'_> {
        let t = self.tweet_at(i);
        let int = |v: u64| ValueRef::Int(v as i64);
        match c {
            col::ID => int(t.id),
            col::TEXT => ValueRef::Str(&t.text),
            col::USER_ID => int(t.user.id),
            col::SCREEN_NAME => ValueRef::Str(&t.user.screen_name),
            col::LOC => ValueRef::Str(&t.user.location),
            col::LAT => t
                .coordinates()
                .map_or(ValueRef::Null, |(la, _)| ValueRef::Float(la)),
            col::LON => t
                .coordinates()
                .map_or(ValueRef::Null, |(_, lo)| ValueRef::Float(lo)),
            col::CREATED_AT => ValueRef::Time(t.created_at),
            col::LANG => ValueRef::Str(t.lang()),
            col::FOLLOWERS => int(t.user.followers.into()),
            col::RETWEET_OF => t.retweet_of().map_or(ValueRef::Null, int),
            _ => ValueRef::Null,
        }
    }

    /// Row `i` as a [`Record`] — the row-shim boundary. Defers to
    /// [`Record::from_tweet`] so shim output is identical to the row
    /// pipeline by construction.
    pub fn record_at(&self, i: usize) -> Record {
        Record::from_tweet(self.tweet_at(i))
    }

    /// All rows as [`Record`]s.
    pub fn to_records(&self) -> Vec<Record> {
        (0..self.len()).map(|i| self.record_at(i)).collect()
    }

    /// Drop rows, columns and crossings, keeping the row-store
    /// allocation, the column buffers and the log binding (in shared
    /// mode) for reuse.
    pub fn reset(&mut self) {
        match &mut self.rows {
            RowStore::Owned(tweets) => tweets.clear(),
            RowStore::Shared { sel, .. } => sel.clear(),
        }
        self.drop_columns();
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
/// row is decoded into a [`Record`] at most **once**, and later
/// consumers get a cheap clone
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

    fn batch(n: u64) -> TweetBatch {
        let mut b = TweetBatch::new();
        for i in 0..n {
            b.push(tweet(i));
        }
        b
    }

    #[test]
    fn to_records_matches_from_tweet() {
        let b = batch(17);
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
    fn row_cache_decodes_once_and_clones_after() {
        let b = batch(10);
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
    fn value_at_matches_record_slots() {
        let b = batch(23);
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
    fn column_views_are_value_at_borrowed() {
        // Same variant, same payload, out of range NULL: `Debug` tells
        // `Int(1)` from `Float(1.0)` where `==` would not. The first
        // view of a column builds it; a later one reads what that built.
        let same = |view: ColumnView<'_>, b: &TweetBatch, c: usize| {
            for i in 0..b.len() {
                let owned = b.value_at(i, c);
                let want = ValueRef::from(&owned);
                assert_eq!(
                    format!("{:?}", view.get(i)),
                    format!("{want:?}"),
                    "row {i} col {c}"
                );
            }
        };
        let b = batch(23);
        for _ in 0..2 {
            for c in 0..=col::COUNT {
                same(b.view(c), &b, c);
            }
        }
    }

    #[test]
    fn str_and_float_accessors_agree_with_rows() {
        let b = batch(23);
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
                let coord = |f: fn((f64, f64)) -> f64| {
                    t.coordinates().map_or(Value::Null, |c| Value::Float(f(c)))
                };
                assert_eq!(b.value_at(i, col::LAT), coord(|(la, _)| la));
                assert_eq!(b.value_at(i, col::LON), coord(|(_, lo)| lo));
                assert_eq!(b.value_at(i, col::COUNT), Value::Null, "out of schema");
            }
        }
    }

    #[test]
    fn materialize_respects_need() {
        let b = batch(10);
        let mut needed = [false; col::COUNT];
        needed[col::TEXT] = true; // read in place: never built
        needed[col::LANG] = true;
        needed[col::FOLLOWERS] = true;
        let stats = b.materialize(&needed);
        assert_eq!(stats.columns_materialized, 2);
        assert_eq!(stats.columns_skipped, (col::COUNT - 2) as u64);
        assert!(b.column(col::TEXT).is_none());
        assert!(b.column(col::LANG).is_some());
        assert!(b.column(col::FOLLOWERS).is_some());
        // A second call builds only the new column; the counts are the
        // rows' so far.
        let mut more = [false; col::COUNT];
        more[col::LAT] = true;
        more[col::LANG] = true; // already built: not recounted
        let stats2 = b.materialize(&more);
        assert_eq!(stats2.columns_materialized, 3);
        assert_eq!(stats2.columns_skipped, (col::COUNT - 3) as u64);
        assert_eq!(stats2.dict_rows, stats.dict_rows, "lang built once");
        assert!(b.column(col::LAT).is_some());
    }

    #[test]
    fn dictionary_encodes_low_cardinality_columns() {
        let b = batch(50);
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
    fn string_columns_read_the_tweets_own_bytes() {
        // `text` and `screen_name` are never copied: a reader gets the
        // very bytes the tweet's `Text` holds, built mask or not.
        let b = batch(12);
        let stats = b.materialize(&all_columns());
        assert_eq!(stats.columns_materialized, col::COUNT as u64 - 2);
        assert_eq!(stats.columns_skipped, 2, "text and screen_name");
        let ptr = |v: ColumnView<'_>, i: usize| match v.get(i) {
            ValueRef::Str(s) => s.as_ptr(),
            other => panic!("a string view, got {other:?}"),
        };
        for i in 0..b.len() {
            let t = b.tweet_at(i);
            assert_eq!(
                b.str_at(i, col::TEXT).map(str::as_ptr),
                Some(t.text.as_ptr())
            );
            assert_eq!(ptr(b.view(col::TEXT), i), t.text.as_ptr());
            assert_eq!(
                ptr(b.view(col::SCREEN_NAME), i),
                t.user.screen_name.as_ptr()
            );
        }
        // A `loc` past the dictionary cap bails out and reads the tweet.
        let mut wide = TweetBatch::new();
        for i in 0..(DICT_MAX_ENTRIES as u64 + 8) {
            let mut t = tweet(i);
            Arc::make_mut(&mut t.user).location = format!("town {i}").into();
            wide.push(t);
        }
        let stats = wide.materialize(&all_columns());
        assert!(wide.column(col::LOC).is_none(), "bailed out");
        assert_eq!(stats.columns_skipped, 3, "text, screen_name and loc");
        for i in 0..wide.len() {
            let loc = &wide.tweet_at(i).user.location;
            assert_eq!(wide.view(col::LOC).get(i), ValueRef::Str(loc));
            assert_eq!(wide.str_at(i, col::LOC), Some(&**loc));
            assert_eq!(ptr(wide.view(col::LOC), i), loc.as_ptr());
        }
    }

    #[test]
    fn push_after_materialize_invalidates_columns() {
        let mut b = batch(4);
        b.materialize(&all_columns());
        assert!(b.column(col::ID).is_some());
        b.push(tweet(99));
        assert!(b.column(col::ID).is_none(), "stale columns must drop");
        assert_eq!(b.decode_stats(), DecodeStats::default(), "and their counts");
        match b.view(col::ID).get(4) {
            ValueRef::Int(id) => assert_eq!(id, 99, "rebuilt over the new rows"),
            other => panic!("an id, got {other:?}"),
        }
        assert_eq!(b.len(), 5);
        assert_eq!(b.record_at(4), Record::from_tweet(&b.tweets()[4]));
    }

    #[test]
    fn reset_clears_rows_and_columns() {
        let mut b = batch(4);
        b.materialize(&all_columns());
        b.reset();
        assert!(b.is_empty());
        assert!(b.column(col::ID).is_none(), "columns go with the rows");
        assert_eq!(b.decode_stats(), DecodeStats::default());
        b.push(tweet(1));
        assert_eq!(b.value_at(0, col::TEXT), Value::Str(tweet(1).text));
    }

    #[test]
    fn a_reset_batch_builds_its_columns_in_the_buffers_it_kept() {
        let log: Arc<Vec<Tweet>> = Arc::new((0..64).map(tweet).collect());
        let mut b = TweetBatch::new();
        b.bind_log(&log);
        let ids = |b: &TweetBatch| match b.column(col::ID) {
            Some(Column::Int { vals, .. }) => vals.as_ptr(),
            other => panic!("id should build as integers, got {other:?}"),
        };
        let mut first = None;
        // Longer rows first, so the later builds fit what was kept.
        for rows in [40..64u32, 0..20, 20..40] {
            b.reset();
            b.extend_indices(&rows.collect::<Vec<_>>());
            let stats = b.materialize(&all_columns());
            assert_eq!(stats.columns_materialized, col::COUNT as u64 - 2);
            for i in 0..b.len() {
                let want = Record::from_tweet(b.tweet_at(i));
                for c in 0..col::COUNT {
                    assert_eq!(
                        b.view(c).get(i),
                        ValueRef::from(want.value(c)),
                        "row {i} col {c}"
                    );
                }
            }
            assert_eq!(*first.get_or_insert(ids(&b)), ids(&b), "buffer reused");
        }
        // A refill no one materializes: the first reader's view builds
        // `id` in the buffer the batch kept, and nothing else.
        b.reset();
        b.extend_indices(&[3, 5, 8]);
        assert_eq!(b.view(col::ID).get(2), ValueRef::Int(log[8].id as i64));
        assert_eq!(first, Some(ids(&b)), "buffer reused by a view");
        assert_eq!(b.decode_stats().columns_materialized, 1);
    }

    #[test]
    fn readers_share_the_columns_the_first_of_them_built() {
        let b = batch(30);
        assert_eq!(b.decode_stats(), DecodeStats::default(), "none viewed");
        let followers = |b: &TweetBatch| match b.column(col::FOLLOWERS) {
            Some(Column::Int { vals, .. }) => vals.as_ptr(),
            other => panic!("followers should build as integers, got {other:?}"),
        };
        // Two readers of one shared batch, with overlapping columns.
        for c in [col::LANG, col::FOLLOWERS, col::ID] {
            b.view(c);
        }
        let first = b.decode_stats();
        assert_eq!(first.columns_materialized, 3);
        assert_eq!(first.dict_rows, 30);
        let built = followers(&b);
        for c in [col::FOLLOWERS, col::LAT, col::LANG, col::TEXT] {
            b.view(c);
        }
        let both = b.decode_stats();
        assert_eq!(both.columns_materialized, 4, "each column built once");
        assert_eq!(both.columns_skipped, (col::COUNT - 4) as u64);
        assert_eq!(both.dict_rows, 30, "lang's dictionary counted once");
        assert_eq!(followers(&b), built, "the second reader read the first's");
        // A `loc` past the dictionary cap is tried once: the bail-out is
        // kept, so a later view neither builds it again nor counts it.
        let mut wide = TweetBatch::new();
        for i in 0..(DICT_MAX_ENTRIES as u64 + 8) {
            let mut t = tweet(i);
            Arc::make_mut(&mut t.user).location = format!("town {i}").into();
            wide.push(t);
        }
        assert!(matches!(wide.view(col::LOC), ColumnView::Str { .. }));
        assert!(matches!(wide.spare.borrow()[col::LOC], Column::Dict { .. }));
        wide.spare.borrow_mut()[col::LOC] = Column::Missing;
        assert!(matches!(wide.view(col::LOC), ColumnView::Str { .. }));
        assert!(
            matches!(wide.spare.borrow()[col::LOC], Column::Missing),
            "a second build would have left its buffers here"
        );
        let stats = wide.decode_stats();
        assert_eq!(stats.columns_materialized, 0);
        assert_eq!(stats.dict_rows, 0, "a bailed dictionary counts no rows");
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
