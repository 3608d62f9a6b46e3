//! The UDF framework: scalar, stateful, and high-latency (async) UDFs,
//! plus the registry and the built-in web-service UDFs from the paper
//! (`sentiment`, `latitude`, `longitude`, `named_entities`).

use crate::error::QueryError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use tweeql_geo::breaker::{BreakerConfig, ServiceHealth};
use tweeql_geo::cache::{CacheStats, LruCache};
use tweeql_geo::latency::LatencyModel;
use tweeql_geo::{gazetteer, GeoPoint, RemoteService};
use tweeql_model::{Duration, Timestamp, Value, VirtualClock};
use tweeql_text::sentiment::{LexiconClassifier, SentimentClassifier};

/// A pure scalar function: cheap, stateless, synchronous.
pub trait ScalarUdf: Send + Sync {
    /// Function name (lowercased).
    fn name(&self) -> &str;
    /// Evaluate.
    fn call(&self, args: &[Value]) -> Result<Value, QueryError>;
}

/// A stateful streaming function: sees tuples in order, keeps state
/// (TwitInfo's peak detector is "a stateful TweeQL UDF").
pub trait StatefulUdf: Send {
    /// Evaluate against the next tuple.
    fn call(&mut self, args: &[Value], ts: Timestamp) -> Result<Value, QueryError>;
}

/// A high-latency web-service function. Invoked in batches by the async
/// operator; implementations charge *modeled* latency to the virtual
/// clock rather than sleeping.
pub trait AsyncUdf: Send {
    /// Function name.
    fn name(&self) -> &str;
    /// Evaluate a batch of argument tuples, appending one result per
    /// tuple to `out`. Failures map to `Null` (stream processing does
    /// not abort a long-running query on one bad web-service call).
    fn call_batch(&mut self, batch: ArgBatch<'_>, out: &mut Vec<Value>);
    /// Health counters of the backing remote service, when there is one.
    fn health(&self) -> Option<ServiceHealth> {
        None
    }
}

/// The argument tuples of one async batch, row-major in one slice: the
/// operator evaluates every pending tuple's arguments into one reused
/// buffer and hands the UDF a view of it.
#[derive(Debug, Clone, Copy)]
pub struct ArgBatch<'a> {
    values: &'a [Value],
    arity: usize,
    rows: usize,
}

impl<'a> ArgBatch<'a> {
    /// `rows` tuples of `arity` values each; `values` holds them back
    /// to back.
    pub fn new(values: &'a [Value], arity: usize, rows: usize) -> ArgBatch<'a> {
        assert_eq!(values.len(), arity * rows, "row-major argument buffer");
        ArgBatch {
            values,
            arity,
            rows,
        }
    }

    /// Number of tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The arguments of tuple `r`.
    pub fn row(&self, r: usize) -> &'a [Value] {
        &self.values[r * self.arity..(r + 1) * self.arity]
    }
}

/// Factory for per-query stateful UDF instances.
pub type StatefulFactory = Arc<dyn Fn() -> Box<dyn StatefulUdf> + Send + Sync>;
/// Factory for per-query async UDF instances.
pub type AsyncFactory = Arc<dyn Fn() -> Box<dyn AsyncUdf> + Send + Sync>;

/// Knobs for the simulated web services behind async UDFs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Latency model for remote calls.
    pub latency: LatencyModel,
    /// LRU cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Max items per batched request (1 disables batching).
    pub max_batch: usize,
    /// Marginal per-item latency within a batch.
    pub batch_per_item: Duration,
    /// Transient failure probability.
    pub failure_rate: f64,
    /// RNG seed for latency/failures.
    pub seed: u64,
    /// Abort requests whose modeled latency exceeds this (None = wait
    /// forever, the pre-fault-tolerance behaviour).
    pub timeout: Option<Duration>,
    /// Retries after a failed/timed-out request (0 = degrade at once).
    pub retries: u32,
    /// Per-service circuit-breaker parameters.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            latency: LatencyModel::web_service_default(),
            cache_capacity: 4096,
            max_batch: 25,
            batch_per_item: Duration::from_millis(5),
            failure_rate: 0.0,
            seed: 0x5EED,
            timeout: None,
            retries: 0,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// The simulated remote these knobs describe, its latency and
    /// failures drawn from `seed`.
    fn remote(&self, seed: u64, clock: Arc<VirtualClock>) -> RemoteService {
        RemoteService::new(
            self.latency.clone(),
            seed,
            clock,
            self.breaker.clone(),
            self.retries,
        )
        .with_failure_rate(self.failure_rate)
        .with_batching(self.max_batch, self.batch_per_item)
        .with_timeout(self.timeout)
    }
}

/// The function registry consulted at plan time.
pub struct Registry {
    scalars: HashMap<String, Arc<dyn ScalarUdf>>,
    stateful: HashMap<String, StatefulFactory>,
    asyncs: HashMap<String, AsyncFactory>,
}

impl Registry {
    /// An empty registry.
    pub fn empty() -> Registry {
        Registry {
            scalars: HashMap::new(),
            stateful: HashMap::new(),
            asyncs: HashMap::new(),
        }
    }

    /// The standard registry: all built-in scalars
    /// ([`crate::expr::functions`]), `sentiment`, and the web-service
    /// UDFs (`latitude`, `longitude`, `named_entities`) wired to one
    /// *shared* simulated geocoding service on `clock`.
    pub fn standard(config: &ServiceConfig, clock: Arc<VirtualClock>) -> Registry {
        let geo = SharedGeoService::new(config, Arc::clone(&clock));
        Registry::standard_with_geo(config, clock, geo)
    }

    /// Like [`Registry::standard`] but reusing an existing geocoding
    /// service (the engine keeps a handle so it can report cache stats).
    pub fn standard_with_geo(
        config: &ServiceConfig,
        clock: Arc<VirtualClock>,
        geo: SharedGeoService,
    ) -> Registry {
        let mut r = Registry::empty();
        crate::expr::functions::register_builtins(&mut r);
        r.register_scalar(Arc::new(SentimentUdf::lexicon()));

        let geo_lat = geo.clone();
        r.register_async(
            "latitude",
            Arc::new(move || Box::new(GeocodeUdf::new("latitude", geo_lat.clone(), true))),
        );
        let geo_lon = geo;
        r.register_async(
            "longitude",
            Arc::new(move || Box::new(GeocodeUdf::new("longitude", geo_lon.clone(), false))),
        );

        let cfg = config.clone();
        r.register_async(
            "named_entities",
            Arc::new(move || Box::new(EntityUdf::new(&cfg, clock.clone()))),
        );
        r
    }

    /// Register a scalar UDF (replacing any previous one of that name).
    pub fn register_scalar(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.scalars.insert(udf.name().to_lowercase(), udf);
    }

    /// Register a stateful UDF factory.
    pub fn register_stateful(&mut self, name: &str, factory: StatefulFactory) {
        self.stateful.insert(name.to_lowercase(), factory);
    }

    /// Register an async UDF factory.
    pub fn register_async(&mut self, name: &str, factory: AsyncFactory) {
        self.asyncs.insert(name.to_lowercase(), factory);
    }

    /// Scalar lookup.
    pub fn scalar(&self, name: &str) -> Option<Arc<dyn ScalarUdf>> {
        self.scalars.get(name).cloned()
    }

    /// Stateful lookup.
    pub fn stateful(&self, name: &str) -> Option<&StatefulFactory> {
        self.stateful.get(name)
    }

    /// Async lookup.
    pub fn async_udf(&self, name: &str) -> Option<&AsyncFactory> {
        self.asyncs.get(name)
    }

    /// Is `name` known in any namespace?
    pub fn knows(&self, name: &str) -> bool {
        self.scalars.contains_key(name)
            || self.stateful.contains_key(name)
            || self.asyncs.contains_key(name)
    }
}

// ---------------------------------------------------------------------
// sentiment(text)

/// The `sentiment(text)` UDF: returns `1.0` / `-1.0` / `0.0`.
pub struct SentimentUdf {
    classifier: Arc<dyn SentimentClassifier>,
}

impl SentimentUdf {
    /// Lexicon-backed (the no-training default).
    pub fn lexicon() -> SentimentUdf {
        SentimentUdf {
            classifier: Arc::new(LexiconClassifier::new()),
        }
    }
}

impl ScalarUdf for SentimentUdf {
    fn name(&self) -> &str {
        "sentiment"
    }

    fn call(&self, args: &[Value]) -> Result<Value, QueryError> {
        let [text] = args else {
            return Err(QueryError::BadArguments {
                function: "sentiment".into(),
                message: format!("expected 1 argument, got {}", args.len()),
            });
        };
        match text {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Float(self.classifier.classify(s).score())),
            other => Err(QueryError::BadArguments {
                function: "sentiment".into(),
                message: format!("expected text, got {}", other.data_type_name()),
            }),
        }
    }
}

// ---------------------------------------------------------------------
// latitude(loc) / longitude(loc) over one shared geocoding service

/// Shared mutable state behind the engine's geocoding service: the
/// simulated remote (with its breaker and health counters) and the LRU
/// cache. The cache sits *outside* the failure path on purpose: a
/// timed-out or short-circuited request must never poison the cache
/// with a transient NULL.
struct GeoInner {
    remote: RemoteService,
    /// Normalized location → coordinate (negatives included).
    cache: LruCache<String, Option<GeoPoint>>,
    scratch: GeoScratch,
}

/// Per-batch working state of [`SharedGeoService::geocode_batch_by`],
/// kept across batches so a batch of cache hits allocates nothing.
#[derive(Default)]
struct GeoScratch {
    /// The batch's cache keys back to back; key `i` ends at `key_ends[i]`.
    keys: String,
    key_ends: Vec<usize>,
    /// Items the cache did not answer.
    misses: Vec<usize>,
    /// The first miss of each distinct key, and for every miss the
    /// position of its key in that list.
    distinct: Vec<usize>,
    miss_slot: Vec<usize>,
    /// Per distinct key: what the service returned (`None` = its chunk
    /// was given up on).
    fetched: Vec<Option<Option<GeoPoint>>>,
}

impl GeoScratch {
    fn key(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.key_ends[i - 1] };
        &self.keys[start..self.key_ends[i]]
    }

    /// Append the cache key of `loc` — `loc.trim().to_lowercase()`.
    fn push_key(&mut self, loc: &str) {
        let loc = loc.trim();
        if loc.is_ascii() {
            let start = self.keys.len();
            self.keys.push_str(loc);
            self.keys[start..].make_ascii_lowercase();
        } else {
            self.keys.push_str(&loc.to_lowercase());
        }
        self.key_ends.push(self.keys.len());
    }
}

/// One shared, caching, batching, latency-modeled geocoding service per
/// engine — so `latitude(loc)` and `longitude(loc)` in the same query
/// hit a common cache, exactly the §2 caching story. Requests run
/// behind a timeout, bounded retries, and a circuit breaker; when the
/// service is unavailable results degrade to cached-or-NULL.
#[derive(Clone)]
pub struct SharedGeoService {
    inner: Arc<Mutex<GeoInner>>,
    cache_disabled: bool,
}

impl SharedGeoService {
    /// Build from config.
    pub fn new(config: &ServiceConfig, clock: Arc<VirtualClock>) -> SharedGeoService {
        SharedGeoService {
            inner: Arc::new(Mutex::new(GeoInner {
                remote: config.remote(config.seed, clock),
                cache: LruCache::new(config.cache_capacity.max(1)),
                scratch: GeoScratch::default(),
            })),
            cache_disabled: config.cache_capacity == 0,
        }
    }

    /// Geocode a batch of location strings: [`geocode_batch_by`]
    /// (SharedGeoService::geocode_batch_by) over a slice.
    pub fn geocode_batch(&self, locs: &[&str]) -> Vec<Option<GeoPoint>> {
        let mut out = Vec::with_capacity(locs.len());
        self.geocode_batch_by(locs.len(), |i| locs[i], &mut out);
        out
    }

    /// Geocode the `n` location strings `loc(0..n)`, appending one
    /// result each to `out`: cache hits first, then the distinct misses
    /// in `max_batch`-sized requests to the remote, each answered by a
    /// gazetteer lookup. Unavailable chunks degrade to NULL and are NOT
    /// cached.
    pub fn geocode_batch_by<'a>(
        &self,
        n: usize,
        loc: impl Fn(usize) -> &'a str,
        out: &mut Vec<Option<GeoPoint>>,
    ) {
        let mut guard = self.inner.lock();
        let GeoInner {
            remote,
            cache,
            scratch: s,
        } = &mut *guard;
        let base = out.len();
        out.resize(base + n, None);
        s.keys.clear();
        s.key_ends.clear();
        s.misses.clear();
        for i in 0..n {
            s.push_key(loc(i));
            if self.cache_disabled {
                s.misses.push(i);
            } else {
                match cache.get(s.key(i)) {
                    Some(hit) => out[base + i] = hit,
                    None => s.misses.push(i),
                }
            }
        }
        if s.misses.is_empty() {
            return;
        }

        // With a cache, each distinct key is fetched once; without one
        // every slot is its own request item (preserving per-call
        // request counts).
        s.distinct.clear();
        s.miss_slot.clear();
        for &i in &s.misses {
            let known = if self.cache_disabled {
                None
            } else {
                s.distinct.iter().position(|&j| s.key(j) == s.key(i))
            };
            s.miss_slot.push(known.unwrap_or(s.distinct.len()));
            if known.is_none() {
                s.distinct.push(i);
            }
        }

        s.fetched.clear();
        s.fetched.resize(s.distinct.len(), None);
        for (chunk, fetched) in s
            .distinct
            .chunks(remote.max_batch())
            .zip(s.fetched.chunks_mut(remote.max_batch()))
        {
            if remote.request(chunk.len()) {
                for (&i, slot) in chunk.iter().zip(fetched) {
                    *slot = Some(gazetteer::global().resolve(loc(i)).map(|c| c.center));
                }
            }
        }

        // Write back: cache successful lookups (negatives included —
        // unresolvable repeats just as often), fill output slots. A
        // degraded row is a miss whose chunk was given up on.
        if !self.cache_disabled {
            for (slot, &i) in s.distinct.iter().enumerate() {
                if let Some(res) = s.fetched[slot] {
                    cache.put(s.key(i).to_string(), res);
                }
            }
        }
        let mut degraded = 0;
        for (&i, &slot) in s.misses.iter().zip(&s.miss_slot) {
            degraded += usize::from(s.fetched[slot].is_none());
            out[base + i] = if self.cache_disabled {
                s.fetched[slot].flatten()
            } else {
                cache.get(s.key(i)).unwrap_or(None)
            };
        }
        remote.degrade(degraded);
    }

    /// Remote requests issued.
    pub fn requests_issued(&self) -> u64 {
        self.inner.lock().remote.health().requests
    }

    /// Modeled service latency.
    pub fn modeled_service_time(&self) -> Duration {
        self.inner.lock().remote.modeled_service_time()
    }

    /// Cache stats.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.lock().cache.stats()
    }

    /// Current health counters.
    pub fn health(&self) -> ServiceHealth {
        self.inner.lock().remote.health()
    }
}

/// `latitude(loc)` / `longitude(loc)` as async UDFs over a shared
/// service.
///
/// The service (cache, breaker, counters) is shared across queries on
/// the same engine, but a UDF instance is built fresh per query by its
/// registry factory — so it snapshots the service's health at
/// construction and reports *per-query deltas*, keeping `OpStats`
/// health from leaking a previous query's traffic.
pub struct GeocodeUdf {
    name: &'static str,
    service: SharedGeoService,
    want_lat: bool,
    base_health: ServiceHealth,
    /// The service's answers for the batch in hand (reused).
    points: Vec<Option<GeoPoint>>,
}

impl GeocodeUdf {
    /// Construct, snapshotting the shared service's health as this
    /// query's zero point.
    pub fn new(name: &'static str, service: SharedGeoService, want_lat: bool) -> GeocodeUdf {
        GeocodeUdf {
            name,
            base_health: service.health(),
            service,
            want_lat,
            points: Vec::new(),
        }
    }
}

impl AsyncUdf for GeocodeUdf {
    fn name(&self) -> &str {
        self.name
    }

    fn call_batch(&mut self, batch: ArgBatch<'_>, out: &mut Vec<Value>) {
        let loc = |r: usize| match batch.row(r).first() {
            Some(Value::Str(s)) => &**s,
            _ => "",
        };
        self.points.clear();
        self.service
            .geocode_batch_by(batch.rows(), loc, &mut self.points);
        out.extend(self.points.iter().map(|p| match p {
            Some(point) => Value::Float(if self.want_lat { point.lat } else { point.lon }),
            None => Value::Null,
        }));
    }

    fn health(&self) -> Option<ServiceHealth> {
        Some(self.service.health().delta_since(&self.base_health))
    }
}

// ---------------------------------------------------------------------
// named_entities(text) — the OpenCalais stand-in

/// `named_entities(text)`: dictionary NER behind the same simulated
/// remote as geocoding (the paper's OpenCalais UDF) — one remote per
/// instance, its latency and failures seeded apart from the geocoder's.
pub struct EntityUdf {
    remote: RemoteService,
}

impl EntityUdf {
    /// Construct from service config.
    pub fn new(config: &ServiceConfig, clock: Arc<VirtualClock>) -> EntityUdf {
        EntityUdf {
            remote: config.remote(config.seed.wrapping_add(17), clock),
        }
    }
}

/// What the entity service answers for one argument tuple.
fn entities(args: &[Value]) -> Value {
    match args.first() {
        Some(Value::Str(s)) => Value::List(
            tweeql_text::entity::extract_entities(s)
                .into_iter()
                .map(|e| Value::Str(e.name.into()))
                .collect(),
        ),
        _ => Value::Null,
    }
}

impl AsyncUdf for EntityUdf {
    fn name(&self) -> &str {
        "named_entities"
    }

    fn call_batch(&mut self, batch: ArgBatch<'_>, out: &mut Vec<Value>) {
        let max_batch = self.remote.max_batch();
        for start in (0..batch.rows()).step_by(max_batch) {
            let chunk = start..(start + max_batch).min(batch.rows());
            if self.remote.request(chunk.len()) {
                out.extend(chunk.map(|r| entities(batch.row(r))));
            } else {
                self.remote.degrade(chunk.len());
                out.extend(chunk.map(|_| Value::Null));
            }
        }
    }

    fn health(&self) -> Option<ServiceHealth> {
        Some(self.remote.health())
    }
}

/// The geocoding service and UDF as they were before the batch path
/// stopped allocating per item: a `Vec` of argument `Vec`s in, a key
/// `String` per item and a location `Vec` per chunk, fresh working
/// vectors per batch, and a breaker/retry loop of its own around single
/// remote attempts. Kept as the reference the operator and service are
/// compared against (rows, request counts, cache statistics, health,
/// virtual clock).
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::collections::HashSet;
    use tweeql_geo::breaker::CircuitBreaker;
    use tweeql_geo::RemoteError;

    struct Inner {
        remote: RemoteService,
        cache: LruCache<String, Option<GeoPoint>>,
        breaker: CircuitBreaker,
        health: ServiceHealth,
    }

    #[derive(Clone)]
    pub struct Service {
        inner: Arc<Mutex<Inner>>,
        cache_disabled: bool,
        retries: u32,
    }

    impl Service {
        pub fn new(config: &ServiceConfig, clock: Arc<VirtualClock>) -> Service {
            Service {
                inner: Arc::new(Mutex::new(Inner {
                    remote: config.remote(config.seed, Arc::clone(&clock)),
                    cache: LruCache::new(config.cache_capacity.max(1)),
                    breaker: CircuitBreaker::new(config.breaker.clone(), clock),
                    health: ServiceHealth::default(),
                })),
                cache_disabled: config.cache_capacity == 0,
                retries: config.retries,
            }
        }

        pub fn geocode_batch(&self, locs: &[&str]) -> Vec<Option<GeoPoint>> {
            let mut guard = self.inner.lock();
            let g = &mut *guard;
            let keys: Vec<String> = locs.iter().map(|l| l.trim().to_lowercase()).collect();
            let mut out: Vec<Option<Option<GeoPoint>>> = vec![None; locs.len()];
            let mut misses: Vec<usize> = Vec::new();
            if self.cache_disabled {
                misses.extend(0..locs.len());
            } else {
                for (i, key) in keys.iter().enumerate() {
                    match g.cache.get(key.as_str()) {
                        Some(hit) => out[i] = Some(hit),
                        None => misses.push(i),
                    }
                }
            }
            let distinct: Vec<usize> = if self.cache_disabled {
                misses.clone()
            } else {
                let mut d: Vec<usize> = Vec::new();
                for &i in &misses {
                    if !d.iter().any(|&j| keys[j] == keys[i]) {
                        d.push(i);
                    }
                }
                d
            };

            let max_batch = g.remote.max_batch();
            let mut fetched: Vec<Option<Option<GeoPoint>>> = vec![None; distinct.len()];
            let mut degraded_keys: HashSet<&str> = HashSet::new();
            let mut pos = 0;
            while pos < distinct.len() {
                let end = (pos + max_batch).min(distinct.len());
                let chunk: Vec<&str> = distinct[pos..end].iter().map(|&i| locs[i]).collect();
                if !g.breaker.allow() {
                    g.health.short_circuits += 1;
                    if self.cache_disabled {
                        g.health.degraded_rows += (end - pos) as u64;
                    } else {
                        degraded_keys.extend(distinct[pos..end].iter().map(|&i| keys[i].as_str()));
                    }
                    pos = end;
                    continue;
                }
                let mut attempt = 0;
                loop {
                    g.health.requests += 1;
                    match g.remote.attempt(chunk.len()) {
                        Ok(()) => {
                            g.breaker.on_success();
                            for (slot, l) in (pos..end).zip(&chunk) {
                                fetched[slot] =
                                    Some(gazetteer::global().resolve(l).map(|c| c.center));
                            }
                            break;
                        }
                        Err(e) => {
                            g.health.failures += 1;
                            if e == RemoteError::Timeout {
                                g.health.timeouts += 1;
                            }
                            g.breaker.on_failure();
                            if attempt < self.retries && g.breaker.allow() {
                                attempt += 1;
                                g.health.retries += 1;
                            } else {
                                if self.cache_disabled {
                                    g.health.degraded_rows += (end - pos) as u64;
                                } else {
                                    degraded_keys.extend(
                                        distinct[pos..end].iter().map(|&i| keys[i].as_str()),
                                    );
                                }
                                break;
                            }
                        }
                    }
                }
                pos = end;
            }

            for (slot, &i) in distinct.iter().enumerate() {
                if let Some(res) = fetched[slot].take() {
                    if self.cache_disabled {
                        out[i] = Some(res);
                    } else {
                        g.cache.put(keys[i].clone(), res);
                    }
                }
            }
            if !self.cache_disabled {
                for &i in &misses {
                    if degraded_keys.contains(keys[i].as_str()) {
                        g.health.degraded_rows += 1;
                    }
                    out[i] = Some(g.cache.get(keys[i].as_str()).unwrap_or(None));
                }
            }
            g.health.state = g.breaker.state();
            g.health.breaker_opens = g.breaker.opens();
            out.into_iter().map(Option::flatten).collect()
        }

        pub fn requests_issued(&self) -> u64 {
            self.inner.lock().remote.health().requests
        }

        pub fn cache_stats(&self) -> CacheStats {
            self.inner.lock().cache.stats()
        }

        pub fn health(&self) -> ServiceHealth {
            let mut g = self.inner.lock();
            g.health.state = g.breaker.state();
            g.health.breaker_opens = g.breaker.opens();
            g.health
        }
    }

    /// The old `GeocodeUdf::call_batch`.
    pub fn call_batch(service: &Service, want_lat: bool, batch: &[Vec<Value>]) -> Vec<Value> {
        let locs: Vec<&str> = batch
            .iter()
            .map(|args| match args.first() {
                Some(Value::Str(s)) => s,
                _ => "",
            })
            .collect();
        service
            .geocode_batch(&locs)
            .into_iter()
            .map(|p| match p {
                Some(point) => Value::Float(if want_lat { point.lat } else { point.lon }),
                None => Value::Null,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::Clock;

    /// `call_batch` over one-argument tuples.
    fn call(udf: &mut dyn AsyncUdf, args: &[Value]) -> Vec<Value> {
        let mut out = Vec::new();
        udf.call_batch(ArgBatch::new(args, 1, args.len()), &mut out);
        out
    }

    #[test]
    fn registry_standard_knows_the_paper_udfs() {
        let clock = VirtualClock::new();
        let r = Registry::standard(&ServiceConfig::default(), clock);
        assert!(r.scalar("sentiment").is_some());
        assert!(r.async_udf("latitude").is_some());
        assert!(r.async_udf("longitude").is_some());
        assert!(r.async_udf("named_entities").is_some());
        assert!(r.scalar("floor").is_some());
        assert!(!r.knows("no_such_fn"));
    }

    #[test]
    fn sentiment_udf_scores() {
        let udf = SentimentUdf::lexicon();
        assert_eq!(
            udf.call(&[Value::Str("great amazing win".into())]).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            udf.call(&[Value::Str("terrible sad loss".into())]).unwrap(),
            Value::Float(-1.0)
        );
        assert_eq!(udf.call(&[Value::Null]).unwrap(), Value::Null);
        assert!(udf.call(&[]).is_err());
        assert!(udf.call(&[Value::Int(3)]).is_err());
    }

    #[test]
    fn latitude_longitude_share_one_cache() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(100)),
            ..ServiceConfig::default()
        };
        let r = Registry::standard(&cfg, Arc::clone(&clock));
        let mut lat = (r.async_udf("latitude").unwrap())();
        let mut lon = (r.async_udf("longitude").unwrap())();

        let args = [Value::Str("tokyo".into())];
        let lat_v = call(&mut *lat, &args);
        let lon_v = call(&mut *lon, &args);
        assert!(matches!(lat_v[0], Value::Float(v) if (v - 35.67).abs() < 0.1));
        assert!(matches!(lon_v[0], Value::Float(v) if (v - 139.65).abs() < 0.1));
        // The longitude call hit the latitude call's cache entry: only
        // one remote request total, 100ms of modeled time.
        assert_eq!(lat.health().unwrap().requests, 1);
        assert_eq!(lon.health().unwrap().requests, 1);
        assert_eq!(clock.now().millis(), 100);
    }

    /// A shared service with a constant 10 ms latency.
    fn service(max_batch: usize, clock: Arc<VirtualClock>) -> SharedGeoService {
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            max_batch,
            ..ServiceConfig::default()
        };
        SharedGeoService::new(&cfg, clock)
    }

    #[test]
    fn cache_folds_keys_and_caches_negatives() {
        let svc = service(25, VirtualClock::new());
        for loc in ["  Tokyo ", "tokyo", "TOKYO"] {
            assert!(svc.geocode_batch(&[loc])[0].is_some());
        }
        assert_eq!(svc.requests_issued(), 1);
        for _ in 0..2 {
            assert_eq!(svc.geocode_batch(&["unresolvable place"]), vec![None]);
        }
        assert_eq!(svc.requests_issued(), 2);
    }

    #[test]
    fn batch_forwards_only_distinct_misses() {
        let svc = service(25, VirtualClock::new());
        svc.geocode_batch(&["nyc"]);
        let res = svc.geocode_batch(&["nyc", "tokyo", "tokyo", "london", "nyc"]);
        assert!(res.iter().all(|r| r.is_some()));
        // One prior request + one batch for {tokyo, london}.
        assert_eq!(svc.requests_issued(), 2);
        assert_eq!(res[1], res[2]);
    }

    #[test]
    fn batch_splits_at_max_batch() {
        let clock = VirtualClock::new();
        let svc = service(2, Arc::clone(&clock));
        svc.geocode_batch(&["tokyo", "nyc", "london"]);
        assert_eq!(svc.requests_issued(), 2);
        // 10 + 5 for the pair, 10 for the single.
        assert_eq!(clock.now().millis(), 25);
    }

    #[test]
    fn geocode_udf_unresolvable_is_null() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(1)),
            ..ServiceConfig::default()
        };
        let svc = SharedGeoService::new(&cfg, clock);
        let mut udf = GeocodeUdf::new("latitude", svc, true);
        let out = call(
            &mut udf,
            &[
                Value::Str("the moon".into()),
                Value::Null,
                Value::Str("nyc".into()),
            ],
        );
        assert_eq!(out[0], Value::Null);
        assert_eq!(out[1], Value::Null);
        assert!(matches!(out[2], Value::Float(_)));
    }

    #[test]
    fn cache_disabled_issues_per_call_requests() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(50)),
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let svc = SharedGeoService::new(&cfg, Arc::clone(&clock));
        let mut udf = GeocodeUdf::new("latitude", svc, true);
        for _ in 0..5 {
            call(&mut udf, &[Value::Str("nyc".into())]);
        }
        assert_eq!(udf.health().unwrap().requests, 5);
        assert_eq!(clock.now().millis(), 250);
    }

    #[test]
    fn entity_udf_extracts_and_charges_latency() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(150)),
            ..ServiceConfig::default()
        };
        let mut udf = EntityUdf::new(&cfg, Arc::clone(&clock));
        let out = call(&mut udf, &[Value::Str("obama meets tevez in tokyo".into())]);
        match &out[0] {
            Value::List(names) => {
                let names: Vec<String> = names.iter().map(|v| v.to_string()).collect();
                assert!(names.contains(&"obama".to_string()), "{names:?}");
                assert!(names.contains(&"tokyo".to_string()), "{names:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(udf.health().unwrap().requests, 1);
        assert!(clock.now().millis() >= 150);
    }

    #[test]
    fn entity_udf_rolls_transient_failures() {
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            failure_rate: 1.0,
            ..ServiceConfig::default()
        };
        let mut udf = EntityUdf::new(&cfg, VirtualClock::new());
        let args: Vec<Value> = (0..5)
            .map(|i| Value::Str(format!("obama in tokyo {i}").into()))
            .collect();
        assert!(call(&mut udf, &args).iter().all(|v| *v == Value::Null));
        let h = udf.health().unwrap();
        assert!(h.requests > 0);
        assert_eq!(h.failures, h.requests);
        assert_eq!(h.degraded_rows, 5);
    }

    #[test]
    fn transient_failures_degrade_to_null_and_are_not_cached() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            failure_rate: 1.0,
            ..ServiceConfig::default()
        };
        let svc = SharedGeoService::new(&cfg, clock);
        assert_eq!(svc.geocode_batch(&["tokyo"]), vec![None]);
        // The failure was NOT cached as a negative entry: the next call
        // issues a fresh request instead of replaying a transient NULL.
        svc.geocode_batch(&["tokyo"]);
        assert_eq!(svc.requests_issued(), 2);
        let h = svc.health();
        assert_eq!(h.failures, 2);
        assert_eq!(h.degraded_rows, 2);
    }

    #[test]
    fn breaker_opens_and_short_circuits_under_total_failure() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            failure_rate: 1.0,
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_mins(60),
                half_open_trials: 1,
            },
            ..ServiceConfig::default()
        };
        let svc = SharedGeoService::new(&cfg, clock);
        for _ in 0..10 {
            assert_eq!(svc.geocode_batch(&["tokyo"]), vec![None]);
        }
        let h = svc.health();
        assert_eq!(h.state, tweeql_geo::breaker::BreakerState::Open);
        assert_eq!(h.breaker_opens, 1);
        // Three failures tripped it; the remaining seven short-circuited
        // without touching the service.
        assert_eq!(svc.requests_issued(), 3);
        assert_eq!(h.short_circuits, 7);
        assert_eq!(h.degraded_rows, 10);
    }

    #[test]
    fn breaker_recovers_after_cooldown() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            timeout: Some(Duration::from_millis(5)), // everything times out
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(30),
                half_open_trials: 1,
            },
            ..ServiceConfig::default()
        };
        let svc = SharedGeoService::new(&cfg, Arc::clone(&clock));
        svc.geocode_batch(&["tokyo"]);
        svc.geocode_batch(&["nyc"]);
        assert_eq!(svc.health().state, tweeql_geo::breaker::BreakerState::Open);
        assert!(svc.health().timeouts >= 2);
        clock.advance(Duration::from_secs(30));
        // Cooldown elapsed: the next call is allowed through (and times
        // out again, re-opening the breaker).
        let before = svc.requests_issued();
        svc.geocode_batch(&["london"]);
        assert_eq!(svc.requests_issued(), before + 1);
        assert_eq!(svc.health().breaker_opens, 2);
    }

    #[test]
    fn retries_rescue_a_flaky_service() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(10)),
            failure_rate: 0.5,
            retries: 3,
            breaker: BreakerConfig {
                failure_threshold: 100,
                ..BreakerConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = SharedGeoService::new(&cfg, clock);
        let mut resolved = 0;
        let cities = ["tokyo", "nyc", "london", "boston", "paris", "berlin"];
        for (i, city) in cities.iter().cycle().take(40).enumerate() {
            // Vary the raw string so every call is a fresh cache miss.
            let loc = format!("{} {}", " ".repeat(i % 3), city);
            if svc.geocode_batch(&[&loc, city])[1].is_some() {
                resolved += 1;
            }
        }
        assert!(resolved >= 30, "retries make success likely: {resolved}");
        assert!(svc.health().retries > 0);
    }

    #[test]
    fn entity_udf_timeout_degrades_to_null_and_trips_breaker() {
        let clock = VirtualClock::new();
        let cfg = ServiceConfig {
            latency: LatencyModel::Constant(Duration::from_millis(400)),
            timeout: Some(Duration::from_millis(200)),
            max_batch: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_mins(60),
                half_open_trials: 1,
            },
            ..ServiceConfig::default()
        };
        let mut udf = EntityUdf::new(&cfg, Arc::clone(&clock));
        let args: Vec<Value> = (0..5)
            .map(|i| Value::Str(format!("obama news {i}").into()))
            .collect();
        let out = call(&mut udf, &args);
        assert!(out.iter().all(|v| *v == Value::Null));
        let h = udf.health().unwrap();
        assert_eq!(h.timeouts, 2, "breaker opened after 2 timeouts");
        assert_eq!(h.short_circuits, 3);
        assert_eq!(h.state, tweeql_geo::breaker::BreakerState::Open);
        // Each timed-out request charged exactly the timeout.
        assert_eq!(clock.now().millis(), 400);
    }

    #[test]
    fn custom_registration_overrides() {
        struct Two;
        impl ScalarUdf for Two {
            fn name(&self) -> &str {
                "two"
            }
            fn call(&self, _: &[Value]) -> Result<Value, QueryError> {
                Ok(Value::Int(2))
            }
        }
        let mut r = Registry::empty();
        r.register_scalar(Arc::new(Two));
        assert_eq!(r.scalar("two").unwrap().call(&[]).unwrap(), Value::Int(2));
    }
}
