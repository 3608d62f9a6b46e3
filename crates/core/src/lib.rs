//! # tweeql
//!
//! TweeQL: "a SQL-like query interface for unstructured tweets to
//! generate structured data for downstream applications" — the primary
//! contribution of *Tweets as Data* (SIGMOD 2011), reproduced as a Rust
//! library.
//!
//! ```
//! use tweeql::engine::Engine;
//! use tweeql_firehose::{scenarios, generate, StreamingApi};
//! use tweeql_model::VirtualClock;
//!
//! let mut scenario = scenarios::soccer_match();
//! scenario.duration = tweeql_model::Duration::from_mins(5);
//! scenario.bursts.clear();
//! scenario.population_size = 200;
//! let clock = VirtualClock::new();
//! let api = StreamingApi::new(generate(&scenario, 42), clock);
//!
//! let mut engine = Engine::builder(api).build();
//! let result = engine
//!     .execute("SELECT text FROM twitter WHERE text contains 'manchester' LIMIT 5")
//!     .unwrap();
//! assert!(result.rows.len() <= 5);
//! ```
//!
//! The pipeline is the classic one: [`lexer`] → [`parser`] → [`ast`] →
//! [`check`] (type checking, semantic validation, lints) →
//! [`plan`] (logical plan, filter-pushdown choice, rewrites) → [`exec`]
//! (push-based streaming operators) driven by [`engine`] over the
//! [`tweeql_firehose::StreamingApi`].
//!
//! The four §2 mechanisms live in:
//! * unstructured records — [`expr::functions`] (string/regex builtins),
//!   [`udf`] (sentiment classification, geocoding, entity extraction);
//! * uncertain selectivities — [`selectivity`] + [`plan::optimizer`]
//!   (sample both candidate filters, push down the lowest-selectivity
//!   one), with Eddies-style adaptive conjunct reordering in
//!   [`exec::fused`];
//! * uneven aggregate groups — [`exec::confidence`] (CONTROL-style
//!   confidence-interval windows);
//! * high-latency operators — [`exec::asyncop`] (caching + batching +
//!   asynchronous iteration around web-service UDFs).

pub mod ast;
pub mod catalog;
pub mod check;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod host;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod prelude;
pub mod selectivity;
pub mod sink;
pub mod udf;

pub use engine::{Diagnostics, Engine, EngineBuilder, EngineConfig, Explanation, QueryResult};
pub use error::QueryError;
pub use host::durable::{DurabilityConfig, KillPlan};
pub use host::{HostStats, QueryHost, QueryInfo, QueryState};
pub use tweeql_obs::QueryId;
pub use tweeql_wal::WalStats;
