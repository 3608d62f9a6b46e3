//! [`RowBatch`] — query output as columns: the rows a query emits, held
//! from the operator that makes them to the socket that sends them.
//!
//! A batch is a schema, one timestamp per row and one [`RowColumn`] per
//! field. A column takes its shape from the values pushed into it:
//!
//! * strings are copied into **one byte buffer** plus end offsets, so a
//!   queued row holds its bytes and nothing else, not a handle that
//!   keeps a stream chunk alive; the buffer seals into one [`Text`]
//!   chunk when rows are built from it ([`RowBatch::into_records`]);
//! * `Int`, `Float`, `Bool` and `Time` values are typed vectors with a
//!   validity [`Bitmap`] for NULLs;
//! * lists, and a column whose rows mix variants, fall back to one
//!   [`Value`] per row.
//!
//! Pushing a [`Record`] and reading it back gives the record exactly,
//! `==` and `Debug` alike: every variant keeps its variant, a float its
//! bits, a string its bytes. A column that has seen only NULLs holds a
//! count.

use crate::batch::{col, Bitmap, TweetBatch};
use crate::record::Record;
use crate::schema::SchemaRef;
use crate::text::Text;
use crate::time::Timestamp;
use crate::value::{Value, ValueRef};
use std::mem::size_of;

/// Rows of one schema, stored by column. See the [module docs](self).
///
/// A writer that appends column by column pushes one cell to each of
/// [`RowBatch::columns_mut`] and one timestamp ([`RowBatch::extend_ts`])
/// per row; [`RowBatch::truncate`] takes back a partial append.
#[derive(Debug, Clone)]
pub struct RowBatch {
    schema: SchemaRef,
    ts: Vec<Timestamp>,
    cols: Vec<RowColumn>,
}

impl RowBatch {
    /// An empty batch for rows of `schema`; it allocates nothing but
    /// its column list.
    pub fn new(schema: SchemaRef) -> RowBatch {
        let cols = vec![RowColumn::default(); schema.len()];
        RowBatch {
            schema,
            ts: Vec::new(),
            cols,
        }
    }

    /// The rows' schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[RowColumn] {
        &self.cols
    }

    /// The columns, for a writer that appends column by column.
    pub fn columns_mut(&mut self) -> &mut [RowColumn] {
        &mut self.cols
    }

    /// Close the rows of a column-by-column append from `batch`: the
    /// event times of its rows listed in `sel`.
    pub fn extend_ts(&mut self, batch: &TweetBatch, sel: &[u32]) {
        self.ts.extend(sel.iter().map(|&i| batch.ts(i as usize)));
    }

    /// Append `rec` as one row. Its values are copied: strings as
    /// bytes, lists as values.
    pub fn push_record(&mut self, rec: &Record) {
        debug_assert_eq!(rec.values().len(), self.cols.len(), "record arity");
        for (col, v) in self.cols.iter_mut().zip(rec.values()) {
            col.push(ValueRef::from(v));
        }
        self.ts.push(rec.timestamp());
    }

    /// Row `i` as a [`Record`] of the batch's schema, its strings
    /// copied out.
    pub fn record_at(&self, i: usize) -> Record {
        let values = self.cols.iter().map(|c| c.get(i).to_value()).collect();
        Record::new_unchecked(self.schema.clone(), values, self.ts[i])
    }

    /// Every row as a [`Record`]. Each string column's buffer is sealed
    /// into one [`Text`] chunk that its rows' strings share.
    pub fn into_records(mut self) -> Vec<Record> {
        let chunks: Vec<Option<Text>> = self.cols.iter_mut().map(RowColumn::seal).collect();
        (0..self.len())
            .map(|i| {
                let values = (self.cols.iter().zip(&chunks))
                    .map(|(col, chunk)| match chunk {
                        Some(chunk) => col.sealed_at(i, chunk),
                        None => col.get(i).to_value(),
                    })
                    .collect();
                Record::new_unchecked(self.schema.clone(), values, self.ts[i])
            })
            .collect()
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.ts.truncate(n);
        self.cols.iter_mut().for_each(|c| c.truncate(n));
    }

    /// Remove the first `n` rows, copying the rest into fresh buffers.
    pub fn drop_front(&mut self, n: usize) {
        let mut rest = RowBatch::new(self.schema.clone());
        for i in n..self.len() {
            for (to, from) in rest.cols.iter_mut().zip(&self.cols) {
                to.push(from.get(i));
            }
            rest.ts.push(self.ts[i]);
        }
        *self = rest;
    }

    /// Heap bytes the rows hold: the capacity of every row buffer the
    /// batch owns (timestamps, typed values, validity, string bytes and
    /// offsets), and in a fallback column each cell's list buffers and
    /// string bytes. An empty batch that never held rows counts 0.
    pub fn heap_bytes(&self) -> usize {
        let cols: usize = self.cols.iter().map(RowColumn::heap_bytes).sum();
        self.ts.capacity() * size_of::<Timestamp>() + cols
    }
}

/// One column of a [`RowBatch`]. Its shape follows the values pushed:
/// see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct RowColumn(Cells);

#[derive(Debug, Clone)]
enum Cells {
    /// Only NULLs so far: how many.
    Null(usize),
    Bool {
        bits: Bitmap,
        valid: Bitmap,
    },
    Int {
        vals: Vec<i64>,
        valid: Bitmap,
    },
    Float {
        vals: Vec<f64>,
        valid: Bitmap,
    },
    Time {
        vals: Vec<Timestamp>,
        valid: Bitmap,
    },
    /// Row `i` is `bytes[ends[i - 1]..ends[i]]` (from 0 for the first).
    Str {
        bytes: String,
        ends: Vec<u32>,
        valid: Bitmap,
    },
    Values(Vec<Value>),
}

impl Default for Cells {
    fn default() -> Cells {
        Cells::Null(0)
    }
}

/// `n` clear bits.
fn unset(n: usize) -> Bitmap {
    let mut bits = Bitmap::with_capacity(n);
    (0..n).for_each(|_| bits.push(false));
    bits
}

/// A vector of `n` placeholder values under clear validity bits.
fn filler<T: Clone + Default>(n: usize) -> Vec<T> {
    vec![T::default(); n]
}

impl Cells {
    /// The shape a column of `n` NULLs takes for its first value `v`.
    fn first(n: usize, v: &ValueRef<'_>) -> Cells {
        match v {
            ValueRef::Null => Cells::Null(n),
            ValueRef::Bool(_) => Cells::Bool {
                bits: unset(n),
                valid: unset(n),
            },
            ValueRef::Int(_) => Cells::Int {
                vals: filler(n),
                valid: unset(n),
            },
            ValueRef::Float(_) => Cells::Float {
                vals: filler(n),
                valid: unset(n),
            },
            ValueRef::Time(_) => Cells::Time {
                vals: vec![Timestamp::ZERO; n],
                valid: unset(n),
            },
            ValueRef::Str(_) => Cells::Str {
                bytes: String::new(),
                ends: filler(n),
                valid: unset(n),
            },
            ValueRef::List(_) => Cells::Values(vec![Value::Null; n]),
        }
    }
}

impl RowColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.0 {
            Cells::Null(n) => *n,
            Cells::Bool { valid, .. }
            | Cells::Int { valid, .. }
            | Cells::Float { valid, .. }
            | Cells::Time { valid, .. }
            | Cells::Str { valid, .. } => valid.len(),
            Cells::Values(vals) => vals.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`, borrowed.
    #[inline]
    pub fn get(&self, i: usize) -> ValueRef<'_> {
        match &self.0 {
            Cells::Null(_) => ValueRef::Null,
            Cells::Bool { bits, valid } => match valid.get(i) {
                true => ValueRef::Bool(bits.get(i)),
                false => ValueRef::Null,
            },
            Cells::Int { vals, valid } => match valid.get(i) {
                true => ValueRef::Int(vals[i]),
                false => ValueRef::Null,
            },
            Cells::Float { vals, valid } => match valid.get(i) {
                true => ValueRef::Float(vals[i]),
                false => ValueRef::Null,
            },
            Cells::Time { vals, valid } => match valid.get(i) {
                true => ValueRef::Time(vals[i]),
                false => ValueRef::Null,
            },
            Cells::Str { bytes, ends, valid } => match valid.get(i) {
                true => ValueRef::Str(&bytes[str_range(ends, i)]),
                false => ValueRef::Null,
            },
            Cells::Values(vals) => ValueRef::from(&vals[i]),
        }
    }

    /// Append one cell, copying a string's bytes and a list's values.
    #[inline]
    pub fn push(&mut self, v: ValueRef<'_>) {
        match (&mut self.0, v) {
            (Cells::Null(n), ValueRef::Null) => *n += 1,
            (Cells::Bool { bits, valid }, v @ (ValueRef::Bool(_) | ValueRef::Null)) => {
                bits.push(matches!(v, ValueRef::Bool(true)));
                valid.push(!v.is_null());
            }
            (Cells::Int { vals, valid }, ValueRef::Int(x)) => {
                vals.push(x);
                valid.push(true);
            }
            (Cells::Float { vals, valid }, ValueRef::Float(x)) => {
                vals.push(x);
                valid.push(true);
            }
            (Cells::Time { vals, valid }, ValueRef::Time(x)) => {
                vals.push(x);
                valid.push(true);
            }
            (Cells::Int { vals, valid }, ValueRef::Null) => {
                vals.push(0);
                valid.push(false);
            }
            (Cells::Float { vals, valid }, ValueRef::Null) => {
                vals.push(0.0);
                valid.push(false);
            }
            (Cells::Time { vals, valid }, ValueRef::Null) => {
                vals.push(Timestamp::ZERO);
                valid.push(false);
            }
            (Cells::Str { ends, valid, .. }, ValueRef::Null) => {
                ends.push(ends.last().copied().unwrap_or(0));
                valid.push(false);
            }
            // Offsets are `u32`, as a sealed chunk's are: a buffer that
            // would pass 4 GiB falls back to values instead.
            (Cells::Str { bytes, ends, valid }, ValueRef::Str(s))
                if bytes.len() + s.len() <= u32::MAX as usize =>
            {
                bytes.push_str(s);
                ends.push(bytes.len() as u32);
                valid.push(true);
            }
            (Cells::Values(vals), v) => vals.push(v.to_value()),
            (_, v) => self.reshape_and_push(v),
        }
    }

    /// [`RowColumn::push`] of a value the column's shape cannot hold:
    /// a first non-NULL value, or one of another variant.
    #[cold]
    fn reshape_and_push(&mut self, v: ValueRef<'_>) {
        match self.0 {
            Cells::Null(n) => self.0 = Cells::first(n, &v),
            _ => self.demote(),
        }
        self.push(v);
    }

    /// Append column `c` of the rows of `batch` listed in `sel`, each
    /// cell as [`TweetBatch::value_ref_at`] reads it. A column no tweet
    /// leaves NULL is copied in one typed loop.
    pub fn extend_from(&mut self, batch: &TweetBatch, c: usize, sel: &[u32]) {
        let rows = sel.iter().map(|&i| batch.tweet_at(i as usize));
        match c {
            _ if !batch.alive(c) => sel.iter().for_each(|_| self.push(ValueRef::Null)),
            col::TEXT => self.extend_strs(rows.map(|t| &t.text)),
            col::SCREEN_NAME => self.extend_strs(rows.map(|t| &t.user.screen_name)),
            col::LOC => self.extend_strs(rows.map(|t| &t.user.location)),
            col::LANG => self.extend_strs(rows.map(|t| t.lang())),
            col::ID => self.extend_valid(rows.map(|t| t.id as i64)),
            col::USER_ID => self.extend_valid(rows.map(|t| t.user.id as i64)),
            col::FOLLOWERS => self.extend_valid(rows.map(|t| i64::from(t.user.followers))),
            col::CREATED_AT => self.extend_valid(rows.map(|t| t.created_at)),
            _ => sel
                .iter()
                .for_each(|&i| self.push(batch.value_ref_at(i as usize, c))),
        }
    }

    /// Append typed values, none of them NULL.
    fn extend_valid<T: Typed>(&mut self, vals: impl Iterator<Item = T>) {
        if let Cells::Null(n) = self.0 {
            self.0 = Cells::first(n, &T::LIKE);
        }
        match T::cells(&mut self.0) {
            Some((typed, valid)) => {
                let before = typed.len();
                typed.extend(vals);
                valid.push_set(typed.len() - before);
            }
            None => vals.for_each(|v| self.push(v.cell())),
        }
    }

    /// Append strings, none of them NULL: their bytes in one pass once
    /// their total length is known to fit the offsets.
    fn extend_strs<'a>(&mut self, strs: impl Iterator<Item = &'a Text> + Clone) {
        if let Cells::Null(n) = self.0 {
            self.0 = Cells::first(n, &ValueRef::Str(""));
        }
        if let Cells::Str { bytes, ends, valid } = &mut self.0 {
            let total: usize = strs.clone().map(Text::len).sum();
            if bytes.len() + total <= u32::MAX as usize {
                bytes.reserve(total);
                let before = ends.len();
                ends.extend(strs.map(|s| {
                    bytes.push_str(s);
                    bytes.len() as u32
                }));
                valid.push_set(ends.len() - before);
                return;
            }
        }
        // Another shape, or past 4 GiB: one at a time.
        strs.for_each(|s| self.push(ValueRef::Str(s)));
    }

    /// Append one owned cell: a [`RowColumn::push`] that moves `v`
    /// into a fallback column instead of copying it.
    #[inline]
    pub fn push_value(&mut self, v: Value) {
        match &mut self.0 {
            Cells::Values(vals) => vals.push(v),
            _ => self.push(ValueRef::from(&v)),
        }
    }

    /// Turn the column into one value per row.
    fn demote(&mut self) {
        let vals = (0..self.len()).map(|i| self.get(i).to_value()).collect();
        self.0 = Cells::Values(vals);
    }

    fn truncate(&mut self, n: usize) {
        match &mut self.0 {
            Cells::Null(len) => *len = (*len).min(n),
            Cells::Bool { bits, valid } => {
                bits.truncate(n);
                valid.truncate(n);
            }
            Cells::Int { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            Cells::Float { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            Cells::Time { vals, valid } => {
                vals.truncate(n);
                valid.truncate(n);
            }
            Cells::Str { bytes, ends, valid } => {
                ends.truncate(n);
                valid.truncate(n);
                bytes.truncate(ends.last().copied().unwrap_or(0) as usize);
            }
            Cells::Values(vals) => vals.truncate(n),
        }
    }

    /// A string column's bytes as one chunk, moved out of the column;
    /// `None` for any other column.
    fn seal(&mut self) -> Option<Text> {
        match &mut self.0 {
            Cells::Str { bytes, .. } => Some(Text::from(std::mem::take(bytes))),
            _ => None,
        }
    }

    /// Row `i` of a string column [`sealed`](RowColumn::seal) into
    /// `chunk`.
    fn sealed_at(&self, i: usize, chunk: &Text) -> Value {
        match &self.0 {
            Cells::Str { ends, valid, .. } if valid.get(i) => {
                Value::Str(chunk.slice(str_range(ends, i)))
            }
            _ => Value::Null,
        }
    }

    fn heap_bytes(&self) -> usize {
        fn vec<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        fn value(v: &Value) -> usize {
            match v {
                Value::Str(s) => s.len(),
                Value::List(l) => vec(l) + l.iter().map(value).sum::<usize>(),
                _ => 0,
            }
        }
        match &self.0 {
            Cells::Null(_) => 0,
            Cells::Bool { bits, valid } => bits.heap_bytes() + valid.heap_bytes(),
            Cells::Int { vals, valid } => vec(vals) + valid.heap_bytes(),
            Cells::Float { vals, valid } => vec(vals) + valid.heap_bytes(),
            Cells::Time { vals, valid } => vec(vals) + valid.heap_bytes(),
            Cells::Str { bytes, ends, valid } => bytes.capacity() + vec(ends) + valid.heap_bytes(),
            Cells::Values(vals) => vec(vals) + vals.iter().map(value).sum::<usize>(),
        }
    }
}

/// A value type a column holds in a typed vector.
trait Typed: Sized {
    /// A cell of this type.
    const LIKE: ValueRef<'static>;
    /// The column's vector and validity, when it has this type's shape.
    fn cells(cells: &mut Cells) -> Option<(&mut Vec<Self>, &mut Bitmap)>;
    /// The value as a cell.
    fn cell(self) -> ValueRef<'static>;
}

impl Typed for i64 {
    const LIKE: ValueRef<'static> = ValueRef::Int(0);
    fn cells(cells: &mut Cells) -> Option<(&mut Vec<i64>, &mut Bitmap)> {
        match cells {
            Cells::Int { vals, valid } => Some((vals, valid)),
            _ => None,
        }
    }
    fn cell(self) -> ValueRef<'static> {
        ValueRef::Int(self)
    }
}

impl Typed for Timestamp {
    const LIKE: ValueRef<'static> = ValueRef::Time(Timestamp::ZERO);
    fn cells(cells: &mut Cells) -> Option<(&mut Vec<Timestamp>, &mut Bitmap)> {
        match cells {
            Cells::Time { vals, valid } => Some((vals, valid)),
            _ => None,
        }
    }
    fn cell(self) -> ValueRef<'static> {
        ValueRef::Time(self)
    }
}

/// The byte range of string `i` given the end offsets.
#[inline]
fn str_range(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = ends.get(i.wrapping_sub(1)).copied().unwrap_or(0);
    start as usize..ends[i] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use proptest::prelude::*;

    fn schema(n: usize) -> SchemaRef {
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        let fields: Vec<(&str, DataType)> =
            names.iter().map(|n| (n.as_str(), DataType::Any)).collect();
        Schema::shared(&fields)
    }

    /// Strings that cross the interesting lines: empty, multi-byte
    /// scalars of every width, and escapes.
    const TEXT: &str = "[a\"\\\u{0}\u{1f}é日\u{1F600}]{0,9}";

    const FLOATS: [f64; 5] = [f64::NAN, -0.0, 0.0, f64::INFINITY, 1e300];

    /// One generated cell: which variant, a number, and a text.
    type Cell = (u8, i64, String);

    fn value(cell: &Cell, depth: u8) -> Value {
        let (kind, n, text) = cell;
        match kind % 8 {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 0),
            2 => Value::Int(*n),
            3 => Value::Float(*n as f64 / 3.0),
            4 => Value::Float(FLOATS[n.unsigned_abs() as usize % FLOATS.len()]),
            5 => Value::from(text.as_str()),
            6 => Value::Time(Timestamp::from_millis(*n)),
            _ if depth == 0 => Value::List(
                (0..n.unsigned_abs() % 4)
                    .map(|k| value(&(kind / 8 + k as u8, n / 5, text.clone()), 1))
                    .collect(),
            ),
            _ => Value::List(Vec::new()),
        }
    }

    /// `width` columns over `cells`: a column whose `mixed` flag is
    /// clear holds one variant (its first cell's) and NULLs, a mixed
    /// one any cell as generated.
    fn table(mixed: &[bool], cells: &[Cell]) -> (SchemaRef, Vec<Record>) {
        let width = mixed.len().max(1);
        let schema = schema(width);
        let rows = cells
            .chunks_exact(width)
            .enumerate()
            .map(|(i, row)| {
                let values = row
                    .iter()
                    .enumerate()
                    .map(|(c, cell)| match mixed.get(c) {
                        Some(true) => value(cell, 0),
                        _ if cell.1 % 3 == 0 => Value::Null,
                        _ => value(&(cells[c].0, cell.1, cell.2.clone()), 0),
                    })
                    .collect();
                let ts = Timestamp::from_millis(i as i64 * 7 - 3);
                Record::new(schema.clone(), values, ts).unwrap()
            })
            .collect();
        (schema, rows)
    }

    fn batch_of(schema: &SchemaRef, rows: &[Record]) -> RowBatch {
        let mut batch = RowBatch::new(schema.clone());
        rows.iter().for_each(|r| batch.push_record(r));
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `push_record` then `record_at` or `into_records` gives every
        /// record back: `==` and `Debug` alike, for every variant, NULLs
        /// among one variant, mixed variants in one column, and empty
        /// and multi-byte strings.
        #[test]
        fn records_round_trip_exactly(
            mixed in collection::vec(0u8..2, 1..5),
            cells in collection::vec((0u8..=255, i64::MIN..=i64::MAX, TEXT), 0..60),
        ) {
            let mixed: Vec<bool> = mixed.iter().map(|&m| m == 1).collect();
            let (schema, rows) = table(&mixed, &cells);
            let batch = batch_of(&schema, &rows);
            prop_assert_eq!(batch.len(), rows.len());
            for (i, r) in rows.iter().enumerate() {
                let back = batch.record_at(i);
                prop_assert_eq!(&back, r);
                prop_assert_eq!(format!("{back:?}"), format!("{r:?}"));
            }
            let sealed = batch.into_records();
            prop_assert_eq!(format!("{sealed:?}"), format!("{rows:?}"));
        }

        /// `truncate` and `drop_front` keep exactly the rows they name.
        #[test]
        fn truncate_and_drop_front_keep_their_rows(
            mixed in collection::vec(0u8..2, 1..5),
            cells in collection::vec((0u8..=255, i64::MIN..=i64::MAX, TEXT), 0..60),
            cut in 0usize..30,
        ) {
            let mixed: Vec<bool> = mixed.iter().map(|&m| m == 1).collect();
            let (schema, rows) = table(&mixed, &cells);
            let cut = cut.min(rows.len());
            let mut head = batch_of(&schema, &rows);
            head.truncate(cut);
            prop_assert_eq!(format!("{:?}", head.into_records()), format!("{:?}", &rows[..cut]));
            let mut tail = batch_of(&schema, &rows);
            tail.drop_front(cut);
            prop_assert_eq!(format!("{:?}", tail.into_records()), format!("{:?}", &rows[cut..]));
        }
    }

    #[test]
    fn a_column_keeps_its_shape_until_a_variant_differs() {
        let mut col = RowColumn::default();
        col.push(ValueRef::Null);
        col.push(ValueRef::Null);
        assert!(matches!(col.0, Cells::Null(2)));
        col.push(ValueRef::Int(7));
        col.push(ValueRef::Null);
        assert!(matches!(col.0, Cells::Int { .. }));
        col.push(ValueRef::Float(7.0));
        assert!(matches!(col.0, Cells::Values(_)));
        let got: Vec<String> = (0..col.len())
            .map(|i| format!("{:?}", col.get(i)))
            .collect();
        assert_eq!(got, ["Null", "Null", "Int(7)", "Null", "Float(7.0)"]);
    }

    #[test]
    fn sealed_strings_share_one_chunk() {
        let schema = schema(2);
        let mut batch = RowBatch::new(schema.clone());
        for (i, s) in ["héllo", "", "日本"].iter().enumerate() {
            let r = Record::new(
                schema.clone(),
                vec![Value::from(*s), Value::Int(i as i64)],
                Timestamp::ZERO,
            );
            batch.push_record(&r.unwrap());
        }
        let rows = batch.into_records();
        let chunk = |i: usize| match rows[i].value(0) {
            Value::Str(t) => t.chunk_addr(),
            other => panic!("{other:?}"),
        };
        assert!(chunk(0).is_some());
        assert_eq!(chunk(0), chunk(2));
        assert_eq!(chunk(1), None, "the empty string lies in no chunk");
    }

    #[test]
    fn heap_bytes_counts_what_the_batch_owns() {
        let schema = schema(2);
        let empty = RowBatch::new(schema.clone());
        assert_eq!(empty.heap_bytes(), 0, "no rows, no bytes");
        let mut batch = empty.clone();
        let r = Record::new(
            schema.clone(),
            vec![Value::from("abc"), Value::Int(1)],
            Timestamp::ZERO,
        )
        .unwrap();
        batch.push_record(&r);
        assert!(batch.heap_bytes() >= empty.heap_bytes() + 3 + 4 + 8 + 8 + 8);
    }
}
