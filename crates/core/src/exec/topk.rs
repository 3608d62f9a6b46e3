//! SpaceSaving top-k (Metwally et al.): the bounded-memory heavy-hitters
//! sketch behind the `topk(expr, k)` aggregate.
//!
//! TwitInfo's Popular Links panel needs "the top three URLs" over an
//! unbounded stream; an exact per-URL counter grows without bound.
//! SpaceSaving keeps `capacity` counters and guarantees any item with
//! true frequency > N/capacity is retained, with per-item overestimation
//! bounded by the minimum counter.

use std::collections::HashMap;
use tweeql_model::Value;

/// One monitored item.
#[derive(Debug, Clone)]
struct Counter {
    item: Value,
    count: u64,
    /// Overestimation bound (count the item inherited on replacement).
    error: u64,
}

/// The SpaceSaving sketch.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    /// item -> slot index.
    index: HashMap<Value, usize>,
    slots: Vec<Counter>,
    capacity: usize,
    /// Total observations.
    pub n: u64,
}

impl SpaceSaving {
    /// Sketch with `capacity` monitored items (≥ 1).
    pub fn new(capacity: usize) -> SpaceSaving {
        let capacity = capacity.max(1);
        SpaceSaving {
            index: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            capacity,
            n: 0,
        }
    }

    /// Observe one item.
    pub fn observe(&mut self, item: &Value) {
        self.n += 1;
        if let Some(&i) = self.index.get(item) {
            self.slots[i].count += 1;
            return;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Counter {
                item: item.clone(),
                count: 1,
                error: 0,
            });
            self.index.insert(item.clone(), i);
            return;
        }
        // Replace the minimum counter (the SpaceSaving step).
        let (min_i, _) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.count)
            .expect("capacity ≥ 1");
        let old = self.slots[min_i].clone();
        self.index.remove(&old.item);
        self.index.insert(item.clone(), min_i);
        self.slots[min_i] = Counter {
            item: item.clone(),
            count: old.count + 1,
            error: old.count,
        };
    }

    /// The top `k` items by estimated count, descending; ties broken by
    /// display rendering for determinism. Returns `(item, est_count,
    /// max_error)`.
    pub fn top(&self, k: usize) -> Vec<(Value, u64, u64)> {
        let mut v: Vec<&Counter> = self.slots.iter().collect();
        v.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.item.to_string().cmp(&b.item.to_string()))
        });
        v.into_iter()
            .take(k)
            .map(|c| (c.item.clone(), c.count, c.error))
            .collect()
    }

    /// Monitored item count (≤ capacity).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing observed.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(10);
        for _ in 0..5 {
            ss.observe(&v("a"));
        }
        for _ in 0..3 {
            ss.observe(&v("b"));
        }
        ss.observe(&v("c"));
        let top = ss.top(2);
        assert_eq!(top[0], (v("a"), 5, 0));
        assert_eq!(top[1], (v("b"), 3, 0));
        assert_eq!(ss.n, 9);
    }

    #[test]
    fn heavy_hitters_survive_replacement_pressure() {
        let mut ss = SpaceSaving::new(8);
        // One heavy item among a stream of 1000 distinct light items.
        for i in 0..1000u32 {
            ss.observe(&Value::Int(i as i64));
            if i % 3 == 0 {
                ss.observe(&v("heavy"));
            }
        }
        let top = ss.top(1);
        assert_eq!(top[0].0, v("heavy"));
        // Estimated count ≥ true count (SpaceSaving overestimates).
        assert!(top[0].1 >= 334, "{top:?}");
        assert!(ss.len() <= 8);
    }

    #[test]
    fn error_bound_holds() {
        let mut ss = SpaceSaving::new(4);
        for i in 0..200u32 {
            ss.observe(&Value::Int((i % 20) as i64));
        }
        for (_, count, error) in ss.top(4) {
            // est - error ≤ true ≤ est; with 20 items and uniform input
            // true = 10, and error < est.
            assert!(error < count);
            assert!(count as i64 - error as i64 <= 11);
        }
    }

    #[test]
    fn deterministic_tie_break_and_empty() {
        let mut ss = SpaceSaving::new(4);
        ss.observe(&v("b"));
        ss.observe(&v("a"));
        let top = ss.top(4);
        assert_eq!(top[0].0, v("a"));
        assert_eq!(top[1].0, v("b"));
        assert!(SpaceSaving::new(3).is_empty());
        assert!(SpaceSaving::new(0).capacity >= 1);
    }
}
