//! The blessed import surface: `use tweeql::prelude::*;` brings in
//! everything a typical embedding application needs — engine and host
//! construction, query handles, results, and diagnostics — without
//! reaching into internal modules.
//!
//! ```
//! use tweeql::prelude::*;
//! use tweeql_firehose::{generate, scenarios, StreamingApi};
//! use tweeql_model::VirtualClock;
//!
//! let mut scenario = scenarios::soccer_match();
//! scenario.duration = tweeql_model::Duration::from_mins(2);
//! scenario.bursts.clear();
//! scenario.population_size = 100;
//! let api = StreamingApi::new(generate(&scenario, 7), VirtualClock::new());
//!
//! let mut host: QueryHost = Engine::builder(api).build_host();
//! let id: QueryId = host
//!     .register("SELECT text FROM twitter WHERE text contains 'goal'")
//!     .unwrap();
//! host.run_to_end().unwrap();
//! let rows = host.take_output(id).unwrap();
//! drop(rows);
//! ```

pub use crate::engine::{
    Diagnostics, Engine, EngineBuilder, EngineConfig, Explanation, QueryResult, QueryStats,
};
pub use crate::error::QueryError;
pub use crate::host::durable::{DurabilityConfig, KillPlan};
pub use crate::host::{HostStats, QueryHost, QueryInfo, QueryState};
pub use tweeql_obs::QueryId;
