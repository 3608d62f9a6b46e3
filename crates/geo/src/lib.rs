//! # tweeql-geo
//!
//! The geocoding substrate behind TweeQL's `latitude(loc)` /
//! `longitude(loc)` UDFs (§2 of the paper, "High-latency Operators").
//!
//! The paper's UDFs call a *remote* geocoding web service that
//! "optimistically takes hundreds of milliseconds apiece" while costing
//! the query processor almost nothing computationally; TweeQL responds
//! with caching and batching. This crate provides:
//!
//! * [`gazetteer`] — an embedded table of world cities with aliases and
//!   fuzzy free-text lookup (`"NYC"`, `"new york, ny"`, `"Tokyo!"`);
//! * [`remote`] — [`remote::RemoteService`], one simulated web service
//!   (the paper's geocoder and entity extractor — see DESIGN.md): a
//!   configurable latency model on a virtual clock, timeouts, transient
//!   failures, and the circuit breaker and retries around them;
//! * [`latency`] — the latency models it samples;
//! * [`breaker`] — the circuit breaker and its health counters;
//! * [`cache`] — a generic LRU cache with hit/miss statistics;
//! * [`batch`] — a request batcher for APIs that accept multiple
//!   simultaneous requests;
//! * [`point`] / [`bbox`] — coordinates, haversine distance, and the
//!   bounding boxes used by `location in [bounding box for NYC]`.

pub mod batch;
pub mod bbox;
pub mod breaker;
pub mod cache;
pub mod gazetteer;
pub mod latency;
pub mod point;
pub mod remote;

pub use bbox::BoundingBox;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, ServiceHealth};
pub use cache::LruCache;
pub use gazetteer::{City, Gazetteer};
pub use latency::LatencyModel;
pub use point::GeoPoint;
pub use remote::{RemoteError, RemoteService};
