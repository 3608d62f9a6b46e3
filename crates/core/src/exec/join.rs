//! Windowed symmetric hash join, the head stage of a join query's
//! pipeline.
//!
//! TweeQL offers "windowed select-project-join-aggregate queries"; the
//! join is equality-keyed and time-windowed: a pair joins when the two
//! tuples' event times are within the window of each other. Both sides
//! are hashed; each arrival probes the opposite table and inserts into
//! its own (the classic symmetric hash join, which never blocks —
//! essential on unbounded streams).
//!
//! The streaming API grants one connection, so both sides read the one
//! feed: every row goes into the left side, then the right side, in
//! arrival order. A row therefore meets every earlier row in the window
//! on both sides, and itself once.

use super::Operator;
use crate::error::QueryError;
use std::collections::HashMap;
use tweeql_model::{Duration, Record, SchemaRef, Timestamp, Value};

/// Which table a record goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The FROM stream.
    Left,
    /// The JOIN stream.
    Right,
}

/// A windowed symmetric hash join.
pub struct SymmetricHashJoin {
    /// The key column of a left-side row.
    left_key: usize,
    /// The key column of a right-side row.
    right_key: usize,
    window: Duration,
    schema: SchemaRef,
    left_table: HashMap<Value, Vec<Record>>,
    right_table: HashMap<Value, Vec<Record>>,
}

impl SymmetricHashJoin {
    /// Build. `schema` must be the concatenation of the left and right
    /// schemas (see [`tweeql_model::Schema::concat`]).
    pub fn new(
        left_key: usize,
        right_key: usize,
        window: Duration,
        schema: SchemaRef,
    ) -> SymmetricHashJoin {
        SymmetricHashJoin {
            left_key,
            right_key,
            window,
            schema,
            left_table: HashMap::new(),
            right_table: HashMap::new(),
        }
    }

    /// Push one record into `side`, joined outputs into `out`.
    fn push(&mut self, side: Side, rec: Record, out: &mut Vec<Record>) {
        let ts = rec.timestamp();
        self.expire(ts);

        let key = match side {
            Side::Left => rec.value(self.left_key).clone(),
            Side::Right => rec.value(self.right_key).clone(),
        };
        if key.is_null() {
            // NULL keys never join, and are not retained.
            return;
        }

        let (opposite, own) = match side {
            Side::Left => (&self.right_table, &mut self.left_table),
            Side::Right => (&self.left_table, &mut self.right_table),
        };
        for other in opposite.get(&key).into_iter().flatten() {
            if ts.since(other.timestamp()) <= self.window
                && other.timestamp().since(ts) <= self.window
            {
                let (l, r) = match side {
                    Side::Left => (&rec, other),
                    Side::Right => (other, &rec),
                };
                let mut values = l.values().to_vec();
                values.extend(r.values().iter().cloned());
                out.push(Record::new_unchecked(
                    self.schema.clone(),
                    values,
                    ts.max(other.timestamp()),
                ));
            }
        }
        own.entry(key).or_default().push(rec);
    }

    /// Drop buffered tuples older than the window relative to `now`.
    fn expire(&mut self, now: Timestamp) {
        let horizon = self.window;
        for table in [&mut self.left_table, &mut self.right_table] {
            table.retain(|_, v| {
                v.retain(|r| now.since(r.timestamp()) <= horizon);
                !v.is_empty()
            });
        }
    }

    /// Buffered tuple count.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.left_table.values().map(Vec::len).sum::<usize>()
            + self.right_table.values().map(Vec::len).sum::<usize>()
    }

    /// One table's rows, folded independently of insertion and hash
    /// order: a sum of per-row digests over every column.
    fn digest_table(&self, table: &HashMap<Value, Vec<Record>>, d: &mut tweeql_wal::Digest) {
        let (mut rows, mut mix) = (0u64, 0u64);
        for rec in table.values().flatten() {
            let mut h = tweeql_wal::Digest::new();
            h.write_i64(rec.timestamp().millis());
            for v in rec.values() {
                h.write_str(&v.to_string());
            }
            rows += 1;
            mix = mix.wrapping_add(h.finish());
        }
        d.write_u64(rows);
        d.write_u64(mix);
    }
}

impl Operator for SymmetricHashJoin {
    fn name(&self) -> &str {
        "join"
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn on_record(&mut self, rec: Record, out: &mut Vec<Record>) -> Result<(), QueryError> {
        self.push(Side::Left, rec.clone(), out);
        self.push(Side::Right, rec, out);
        Ok(())
    }

    fn state_digest(&self, d: &mut tweeql_wal::Digest) {
        d.write_i64(self.window.millis());
        self.digest_table(&self.left_table, d);
        self.digest_table(&self.right_table, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::{DataType, Schema};

    fn setup(window_s: i64) -> (SymmetricHashJoin, SchemaRef, SchemaRef) {
        let left = Schema::shared(&[("k", DataType::Str), ("lv", DataType::Int)]);
        let right = Schema::shared(&[("k", DataType::Str), ("rv", DataType::Int)]);
        let out = std::sync::Arc::new(left.concat(&right));
        let (lk, rk) = (left.index_of("k").unwrap(), right.index_of("k").unwrap());
        (
            SymmetricHashJoin::new(lk, rk, Duration::from_secs(window_s), out),
            left,
            right,
        )
    }

    fn rec(schema: &SchemaRef, k: &str, v: i64, ts_s: i64) -> Record {
        Record::new(
            schema.clone(),
            vec![Value::from(k), Value::Int(v)],
            Timestamp::from_secs(ts_s),
        )
        .unwrap()
    }

    fn push(j: &mut SymmetricHashJoin, side: Side, rec: Record) -> Vec<Record> {
        let mut out = Vec::new();
        j.push(side, rec, &mut out);
        out
    }

    fn digest(j: &SymmetricHashJoin) -> u64 {
        let mut d = tweeql_wal::Digest::new();
        j.state_digest(&mut d);
        d.finish()
    }

    #[test]
    fn equal_keys_within_window_join() {
        let (mut j, l, r) = setup(60);
        assert!(push(&mut j, Side::Left, rec(&l, "a", 1, 0)).is_empty());
        let out = push(&mut j, Side::Right, rec(&r, "a", 2, 30));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("lv").unwrap(), &Value::Int(1));
        assert_eq!(out[0].get("rv").unwrap(), &Value::Int(2));
        // Duplicate right-side column got suffixed.
        assert_eq!(out[0].get("k_r").unwrap(), &Value::from("a"));
    }

    #[test]
    fn keys_outside_window_do_not_join() {
        let (mut j, l, r) = setup(60);
        push(&mut j, Side::Left, rec(&l, "a", 1, 0));
        assert!(push(&mut j, Side::Right, rec(&r, "a", 2, 61)).is_empty());
    }

    #[test]
    fn different_keys_do_not_join() {
        let (mut j, l, r) = setup(60);
        push(&mut j, Side::Left, rec(&l, "a", 1, 0));
        assert!(push(&mut j, Side::Right, rec(&r, "b", 2, 1)).is_empty());
    }

    #[test]
    fn many_to_many_produces_cross_matches() {
        let (mut j, l, r) = setup(60);
        push(&mut j, Side::Left, rec(&l, "a", 1, 0));
        push(&mut j, Side::Left, rec(&l, "a", 2, 1));
        assert_eq!(push(&mut j, Side::Right, rec(&r, "a", 9, 2)).len(), 2);
        assert_eq!(push(&mut j, Side::Right, rec(&r, "a", 10, 3)).len(), 2);
    }

    #[test]
    fn a_row_on_the_one_feed_meets_earlier_rows_on_both_sides_and_itself() {
        let (mut j, l, _r) = setup(60);
        let mut out = Vec::new();
        j.on_record(rec(&l, "a", 1, 0), &mut out).unwrap();
        assert_eq!(out.len(), 1, "(a1, a1)");
        out.clear();
        j.on_record(rec(&l, "a", 2, 5), &mut out).unwrap();
        let pairs: Vec<(i64, i64)> = out
            .iter()
            .map(|o| (o.value(1).as_int().unwrap(), o.value(3).as_int().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(2, 1), (1, 2), (2, 2)]);
    }

    #[test]
    fn expiry_bounds_memory() {
        let (mut j, l, _r) = setup(10);
        for i in 0..100 {
            push(&mut j, Side::Left, rec(&l, "a", i, i));
        }
        // Only tuples within the last 10s survive.
        assert!(j.buffered() <= 12, "buffered = {}", j.buffered());
    }

    #[test]
    fn null_keys_never_join() {
        let (mut j, l, r) = setup(60);
        let null_rec =
            Record::new(l.clone(), vec![Value::Null, Value::Int(1)], Timestamp::ZERO).unwrap();
        push(&mut j, Side::Left, null_rec);
        let out = push(
            &mut j,
            Side::Right,
            Record::new(r, vec![Value::Null, Value::Int(2)], Timestamp::ZERO).unwrap(),
        );
        assert!(out.is_empty());
        assert_eq!(j.buffered(), 0);
    }

    #[test]
    fn state_digest_ignores_insertion_order_and_counts_every_row() {
        let rows = [("a", 1, 0), ("b", 2, 1), ("a", 3, 2), ("c", 4, 3)];
        let (mut a, l, _) = setup(600);
        let (mut b, _, _) = setup(600);
        let mut out = Vec::new();
        for &(k, v, t) in &rows {
            a.on_record(rec(&l, k, v, t), &mut out).unwrap();
        }
        for &(k, v, t) in rows.iter().rev() {
            b.on_record(rec(&l, k, v, t), &mut out).unwrap();
        }
        assert_eq!(digest(&a), digest(&b), "same contents, other order");
        b.on_record(rec(&l, "a", 5, 4), &mut out).unwrap();
        assert_ne!(digest(&a), digest(&b), "one more row");
    }

    #[test]
    fn state_digest_covers_every_column() {
        let (mut a, l, _) = setup(600);
        let (mut b, _, _) = setup(600);
        let mut out = Vec::new();
        a.on_record(rec(&l, "a", 1, 0), &mut out).unwrap();
        b.on_record(rec(&l, "a", 2, 0), &mut out).unwrap();
        assert_ne!(digest(&a), digest(&b), "a non-key column is state");
    }
}
