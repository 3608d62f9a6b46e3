//! The high-latency (web-service) UDF operator (§2 "High-latency
//! Operators").
//!
//! The planner hoists each async UDF call out of expressions into one
//! of these operators, which appends the call's result as a new column.
//! The operator *batches* pending tuples ("batching when an API allows
//! multiple simultaneous requests") up to a size or stream-time delay
//! bound, then invokes the UDF's batch endpoint; the UDF layer below
//! adds caching and charges modeled latency to the virtual clock.

use super::{earlier, Operator};
use crate::error::QueryError;
use crate::udf::{ArgBatch, AsyncUdf};
use tweeql_geo::batch::Batcher;
use tweeql_model::{Duration, Record, SchemaRef, Timestamp, Value};

/// Appends `udf(args…)` as the last column of each record.
pub struct AsyncUdfOp {
    udf: Box<dyn AsyncUdf>,
    /// The input columns holding the call's arguments.
    arg_cols: Vec<usize>,
    schema: SchemaRef,
    batcher: Batcher<Record>,
    /// The pending records' arguments, read as each arrived:
    /// `arg_cols.len()` values per record, in the batcher's order.
    args: Vec<Value>,
    /// The results of the batch being emitted.
    results: Vec<Value>,
    /// Earliest timestamp among the pending records (which need not be
    /// the first to arrive, on a stream delivered out of order).
    held_since: Option<Timestamp>,
    label: String,
}

impl AsyncUdfOp {
    /// Build. `arg_cols` are input columns; `schema` is the input
    /// schema plus the result column. `max_batch` of 1 disables
    /// batching (every tuple is an immediate request); `max_delay`
    /// bounds how long a tuple waits for batch peers in stream time.
    pub fn new(
        udf: Box<dyn AsyncUdf>,
        arg_cols: Vec<usize>,
        schema: SchemaRef,
        max_batch: usize,
        max_delay: Duration,
    ) -> AsyncUdfOp {
        let label = format!("async:{}", udf.name());
        AsyncUdfOp {
            udf,
            arg_cols,
            schema,
            batcher: Batcher::new(max_batch, max_delay),
            args: Vec::new(),
            results: Vec::new(),
            held_since: None,
            label,
        }
    }

    /// Read `rec`'s arguments and queue it; a batch this fills is
    /// issued at once.
    fn push(&mut self, rec: Record, out: &mut Vec<Record>) {
        (self.args).extend(self.arg_cols.iter().map(|&c| rec.value(c).clone()));
        let ts = rec.timestamp();
        self.held_since = Some(self.held_since.map_or(ts, |held| held.min(ts)));
        if let Some(batch) = self.batcher.push(rec, ts) {
            self.run_batch(batch, out);
        }
    }

    /// Issue one request for `items` — always everything pending, so
    /// `self.args` is exactly their arguments — and emit each record
    /// with its result appended in place.
    fn run_batch(&mut self, mut items: Vec<Record>, out: &mut Vec<Record>) {
        if items.is_empty() {
            return;
        }
        self.held_since = None;
        let batch = ArgBatch::new(&self.args, self.arg_cols.len(), items.len());
        self.udf.call_batch(batch, &mut self.results);
        self.args.clear();
        debug_assert_eq!(self.results.len(), items.len());
        out.reserve(items.len());
        for (rec, result) in items.drain(..).zip(self.results.drain(..)) {
            let ts = rec.timestamp();
            let mut values = rec.into_values();
            values.push(result);
            out.push(Record::new_unchecked(self.schema.clone(), values, ts));
        }
        self.batcher.recycle(items);
    }
}

impl Operator for AsyncUdfOp {
    fn name(&self) -> &str {
        &self.label
    }

    fn time_sensitive(&self) -> bool {
        true
    }

    /// A watermark releases the pending batch once it is `max_delay`
    /// past the arrival of the oldest pending record; a row at or after
    /// `unseen` that finds the batcher empty becomes that oldest. So
    /// nothing can happen before `min(oldest, unseen) + max_delay`.
    fn next_deadline(&self, unseen: Option<Timestamp>) -> Option<Timestamp> {
        let waiting_since = earlier(self.batcher.oldest(), unseen)?;
        let max_delay = self.batcher.max_delay();
        Some(if max_delay > Duration::ZERO {
            waiting_since.saturating_add(max_delay)
        } else {
            // No delay: any watermark at all releases what is pending.
            Timestamp::MIN
        })
    }

    fn holds_since(&self) -> Option<Timestamp> {
        self.held_since
    }

    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn on_batch(
        &mut self,
        recs: &mut Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<(), QueryError> {
        // Feeding the whole micro-batch before draining lets the
        // batcher form full service batches even when the engine's
        // micro-batch is larger than `max_batch`.
        for rec in recs.drain(..) {
            self.push(rec, out);
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<Record>) -> Result<(), QueryError> {
        if let Some(batch) = self.batcher.poll(wm) {
            self.run_batch(batch, out);
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<Record>) -> Result<(), QueryError> {
        let batch = self.batcher.flush();
        self.run_batch(batch, out);
        Ok(())
    }

    fn service_health(&self) -> Option<tweeql_geo::breaker::ServiceHealth> {
        self.udf.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::{Registry, ServiceConfig};
    use std::sync::Arc;
    use tweeql_geo::latency::LatencyModel;
    use tweeql_model::{Clock, DataType, Schema, VirtualClock};

    fn setup(max_batch: usize, cache: usize, clock: Arc<VirtualClock>) -> (AsyncUdfOp, SchemaRef) {
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(200)),
            cache_capacity: cache,
            max_batch,
            batch_per_item: Duration::from_millis(5),
            ..ServiceConfig::default()
        };
        let reg = Registry::standard(&cfg, clock);
        let in_schema = Schema::shared(&[("loc", DataType::Str)]);
        let out_schema = Schema::shared(&[("loc", DataType::Str), ("lat", DataType::Float)]);
        let udf = (reg.async_udf("latitude").unwrap())();
        (
            AsyncUdfOp::new(
                udf,
                vec![0],
                out_schema.clone(),
                max_batch,
                Duration::from_secs(10),
            ),
            in_schema,
        )
    }

    /// Remote requests the operator's UDF has issued.
    fn requests(op: &AsyncUdfOp) -> u64 {
        op.service_health().expect("a geocoding service").requests
    }

    fn rec(schema: &SchemaRef, loc: &str, ts_ms: i64) -> Record {
        Record::new(
            schema.clone(),
            vec![Value::from(loc)],
            Timestamp::from_millis(ts_ms),
        )
        .unwrap()
    }

    #[test]
    fn unbatched_emits_immediately_with_per_call_latency() {
        let clock = VirtualClock::new();
        let (mut op, schema) = setup(1, 0, Arc::clone(&clock));
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec(&schema, "tokyo", 0)], &mut out)
            .unwrap();
        op.on_batch(&mut vec![rec(&schema, "nyc", 1)], &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(requests(&op), 2);
        assert_eq!(clock.now().millis(), 400);
        assert!(matches!(out[0].value(1), Value::Float(v) if (v - 35.68).abs() < 0.1));
    }

    #[test]
    fn batching_amortizes_round_trips() {
        let clock = VirtualClock::new();
        let (mut op, schema) = setup(4, 0, Arc::clone(&clock));
        let mut out = Vec::new();
        for (i, loc) in ["tokyo", "nyc", "london", "boston"].iter().enumerate() {
            op.on_batch(&mut vec![rec(&schema, loc, i as i64)], &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 4, "batch released on size");
        assert_eq!(requests(&op), 1);
        // One 200ms round trip + 3×5ms marginal items = 215ms, vs 800ms.
        assert_eq!(clock.now().millis(), 215);
    }

    #[test]
    fn watermark_flushes_aged_partial_batch() {
        let clock = VirtualClock::new();
        let (mut op, schema) = setup(100, 0, clock);
        // max_delay is 10s in setup().
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec(&schema, "tokyo", 0)], &mut out)
            .unwrap();
        op.on_watermark(Timestamp::from_secs(5), &mut out).unwrap();
        assert!(out.is_empty(), "not old enough");
        op.on_watermark(Timestamp::from_secs(10), &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn finish_drains_pending() {
        let clock = VirtualClock::new();
        let (mut op, schema) = setup(100, 0, clock);
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec(&schema, "tokyo", 0)], &mut out)
            .unwrap();
        op.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn caching_eliminates_repeat_requests() {
        let clock = VirtualClock::new();
        let (mut op, schema) = setup(1, 1024, Arc::clone(&clock));
        let mut out = Vec::new();
        for i in 0..50 {
            op.on_batch(&mut vec![rec(&schema, "nyc", i)], &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 50);
        assert_eq!(requests(&op), 1, "49 cache hits");
        assert_eq!(clock.now().millis(), 200);
    }

    #[test]
    fn unresolvable_locations_append_null() {
        let clock = VirtualClock::new();
        let (mut op, schema) = setup(1, 0, clock);
        let mut out = Vec::new();
        op.on_batch(&mut vec![rec(&schema, "the moon", 0)], &mut out)
            .unwrap();
        assert_eq!(out[0].value(1), &Value::Null);
    }

    /// The operator as it was before a pending tuple stopped owning an
    /// argument `Vec`: arguments boxed per tuple, cloned per batch, and
    /// every emitted record rebuilt from a copy of its values. Runs on
    /// the old service ([`crate::udf::oracle`]).
    mod oracle {
        use super::*;
        use crate::udf::oracle::{call_batch, Service};

        pub struct OldOp {
            pub service: Service,
            pub want_lat: bool,
            pub arg_cols: Vec<usize>,
            pub schema: SchemaRef,
            pub batcher: Batcher<(Record, Vec<Value>)>,
        }

        impl OldOp {
            fn run_batch(&mut self, items: Vec<(Record, Vec<Value>)>, out: &mut Vec<Record>) {
                if items.is_empty() {
                    return;
                }
                let args: Vec<Vec<Value>> = items.iter().map(|(_, a)| a.clone()).collect();
                let results = call_batch(&self.service, self.want_lat, &args);
                for ((rec, _), result) in items.into_iter().zip(results) {
                    let mut values = rec.values().to_vec();
                    values.push(result);
                    out.push(rec.with_shape(self.schema.clone(), values));
                }
            }

            pub fn on_batch(&mut self, recs: &mut Vec<Record>, out: &mut Vec<Record>) {
                for rec in recs.drain(..) {
                    let mut args = Vec::with_capacity(self.arg_cols.len());
                    for &c in &self.arg_cols {
                        args.push(rec.value(c).clone());
                    }
                    let ts = rec.timestamp();
                    if let Some(batch) = self.batcher.push((rec, args), ts) {
                        self.run_batch(batch, out);
                    }
                }
            }

            pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<Record>) {
                if let Some(batch) = self.batcher.poll(wm) {
                    self.run_batch(batch, out);
                }
            }

            pub fn finish(&mut self, out: &mut Vec<Record>) {
                let batch = self.batcher.flush();
                self.run_batch(batch, out);
            }
        }
    }

    mod in_place {
        use super::oracle::OldOp;
        use super::*;
        use crate::udf::{GeocodeUdf, SharedGeoService};
        use proptest::prelude::*;
        use tweeql_geo::breaker::BreakerConfig;

        /// Profile locations as they come: repeats, case and padding
        /// that fold to one cache key, a non-ASCII name, junk, empty.
        const LOCS: &[&str] = &[
            "tokyo",
            "Tokyo",
            " TOKYO ",
            "nyc",
            "NYC",
            "london",
            "boston",
            "paris",
            "Zürich",
            "ZÜRICH",
            "the moon",
            "",
            "berlin",
            "São Paulo",
            "cape town",
        ];

        fn config(pick: (u8, u8, u8, u8, u8)) -> ServiceConfig {
            let (latency, failure, cache, batch, fault) = pick;
            ServiceConfig {
                latency: match latency % 3 {
                    0 => LatencyModel::Constant(Duration::from_millis(200)),
                    1 => LatencyModel::web_service_default(),
                    _ => {
                        LatencyModel::Uniform(Duration::from_millis(20), Duration::from_millis(400))
                    }
                },
                failure_rate: [0.0, 0.3, 1.0][failure as usize % 3],
                cache_capacity: [0, 3, 1024][cache as usize % 3],
                max_batch: [1, 4, 25][batch as usize % 3],
                timeout: (fault & 1 == 1).then(|| Duration::from_millis(250)),
                retries: u32::from(fault >> 1 & 1) * 2,
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_secs(5),
                    half_open_trials: 1,
                },
                ..ServiceConfig::default()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `latitude(loc)` then `longitude(loc)` over one shared
            /// service, fed micro-batches and watermarks: the operator
            /// emits the same rows at the same points, and leaves the
            /// service with the same request count, cache statistics,
            /// health and virtual clock, as the one it replaced.
            #[test]
            fn appends_in_place_what_the_copying_operator_appended(
                pick in (0u8..3, 0u8..3, 0u8..3, 0u8..3, 0u8..4),
                op_batch in 0usize..3,
                events in collection::vec((0usize..LOCS.len() + 3, 1u8..5), 0..40),
            ) {
                let cfg = config(pick);
                let max_batch = [1, 4, 25][op_batch];
                let max_delay = Duration::from_secs(2);
                let in_schema = Schema::shared(&[("loc", DataType::Any)]);
                let lat_schema =
                    Schema::shared(&[("loc", DataType::Any), ("lat", DataType::Any)]);
                let lon_schema = Schema::shared(&[
                    ("loc", DataType::Any),
                    ("lat", DataType::Any),
                    ("lon", DataType::Any),
                ]);
                let arg = |schema: &SchemaRef| schema.index_of("loc").unwrap();

                let new_clock = VirtualClock::new();
                let new_service = SharedGeoService::new(&cfg, Arc::clone(&new_clock));
                let mut new_ops: Vec<AsyncUdfOp> = [("latitude", true, &in_schema, &lat_schema),
                    ("longitude", false, &lat_schema, &lon_schema)]
                    .into_iter()
                    .map(|(name, want_lat, input, output)| {
                        let udf = GeocodeUdf::new(name, new_service.clone(), want_lat);
                        AsyncUdfOp::new(Box::new(udf), vec![arg(input)], output.clone(), max_batch, max_delay)
                    })
                    .collect();

                let old_clock = VirtualClock::new();
                let old_service = crate::udf::oracle::Service::new(&cfg, Arc::clone(&old_clock));
                let mut old_ops: Vec<OldOp> = [(true, &in_schema, &lat_schema),
                    (false, &lat_schema, &lon_schema)]
                    .into_iter()
                    .map(|(want_lat, input, output)| {
                        OldOp {
                            service: old_service.clone(),
                            want_lat,
                            arg_cols: vec![arg(input)],
                            schema: output.clone(),
                            batcher: Batcher::new(max_batch, max_delay),
                        }
                    })
                    .collect();

                let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
                let mut now = 0i64;
                let mut pending: Vec<Record> = Vec::new();
                for &(what, step) in &events {
                    now += i64::from(step) * 300;
                    let ts = Timestamp::from_millis(now);
                    match LOCS.get(what) {
                        // A tuple joins the micro-batch being formed.
                        Some(loc) => {
                            let value = if loc.is_empty() && step == 1 {
                                Value::Null
                            } else {
                                Value::from(*loc)
                            };
                            pending.push(Record::new(in_schema.clone(), vec![value], ts).unwrap());
                        }
                        // The micro-batch is pushed, then a watermark.
                        None => {
                            let mut mid = Vec::new();
                            new_ops[0].on_batch(&mut pending.clone(), &mut mid).unwrap();
                            new_ops[0].on_watermark(ts, &mut mid).unwrap();
                            new_ops[1].on_batch(&mut mid, &mut new_out).unwrap();
                            new_ops[1].on_watermark(ts, &mut new_out).unwrap();
                            let mut mid = Vec::new();
                            old_ops[0].on_batch(&mut pending, &mut mid);
                            old_ops[0].on_watermark(ts, &mut mid);
                            old_ops[1].on_batch(&mut mid, &mut old_out);
                            old_ops[1].on_watermark(ts, &mut old_out);
                            prop_assert_eq!(&new_out, &old_out);
                            prop_assert_eq!(new_clock.now(), old_clock.now());
                        }
                    }
                }
                let mut mid = Vec::new();
                new_ops[0].on_batch(&mut pending.clone(), &mut mid).unwrap();
                new_ops[0].finish(&mut mid).unwrap();
                new_ops[1].on_batch(&mut mid, &mut new_out).unwrap();
                new_ops[1].finish(&mut new_out).unwrap();
                let mut mid = Vec::new();
                old_ops[0].on_batch(&mut pending, &mut mid);
                old_ops[0].finish(&mut mid);
                old_ops[1].on_batch(&mut mid, &mut old_out);
                old_ops[1].finish(&mut old_out);

                prop_assert_eq!(new_out, old_out);
                prop_assert_eq!(new_clock.now(), old_clock.now());
                prop_assert_eq!(new_service.requests_issued(), old_service.requests_issued());
                prop_assert_eq!(new_service.cache_stats(), old_service.cache_stats());
                prop_assert_eq!(new_service.health(), old_service.health());
                for op in &new_ops {
                    prop_assert_eq!(op.service_health(), Some(old_service.health()));
                }
            }
        }
    }
}
