//! # tweeql-firehose
//!
//! A deterministic synthetic Twitter streaming API.
//!
//! The paper's systems consume the live Twitter stream; this crate is
//! the substitution documented in DESIGN.md: scenario scripts drive a
//! non-homogeneous Poisson tweet process over a synthetic user
//! population whose geography is skewed the way the paper describes
//! (Tokyo ≫ Cape Town), with *ground truth* recorded on every tweet
//! (intended sentiment, burst membership) so experiments can measure
//! precision/recall against truth — which the real firehose never
//! offered.
//!
//! * [`scenario`] — the scripting vocabulary: topics, bursts, rates;
//! * [`population`] — synthetic users: gazetteer-weighted home cities,
//!   Zipf follower counts, messy profile location strings;
//! * [`textgen`] — tweet text synthesis (topic phrases, sentiment
//!   vocabulary, hashtags, URLs, emoticons, elongations);
//! * [`generator`] — the Poisson arrival engine producing a
//!   time-ordered tweet log;
//! * [`scenarios`] — the paper's three canned demos: a soccer match, an
//!   earthquake timeline, and a month of Obama news;
//! * [`api`] — the streaming-API facade with the real API's semantics:
//!   *one filter type per connection* (keyword track / location / user
//!   follow), a sample endpoint, and drop-under-load behaviour;
//! * [`replay`] — compact binary encode/decode of tweet logs (`bytes`)
//!   so expensive scenarios can be generated once and replayed.

pub mod api;
pub mod fault;
pub mod generator;
mod pack;
pub mod population;
pub mod replay;
pub mod scenario;
pub mod scenarios;
pub mod textgen;

pub use api::{FilterSpec, SourceBatch, StreamingApi};
pub use fault::{FaultPlan, FaultStats, FaultyConnection, StreamConnection, StreamFault};
pub use generator::generate;
pub use population::Population;
pub use scenario::{Burst, Scenario, Topic};
