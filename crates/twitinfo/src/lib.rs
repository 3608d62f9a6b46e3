//! # twitinfo
//!
//! TwitInfo (§3 of the paper): "an event timeline generation and
//! exploration interface that summarizes events as they are discussed
//! on Twitter", built on top of the TweeQL stream processor.
//!
//! The heart is the timeline with streaming mean-deviation **peak
//! detection** ([`peaks`], exposed as a stateful TweeQL UDF via
//! [`udfs::register`]) and automatic **key-term labels** ([`keyterms`]).
//! Around it: relevance-ranked tweet lists ([`relevance`]),
//! recall-normalized aggregate sentiment ([`sentiment_agg`]), popular
//! links ([`links`]), and a sentiment-colored map view ([`mapview`]).
//! [`dashboard`] renders the whole Figure-1 layout as ANSI text and
//! static HTML.
//!
//! ```
//! use twitinfo::event::EventSpec;
//! use twitinfo::logger::event_tweets;
//! use twitinfo::store::analyze;
//! use tweeql_firehose::{scenarios, generate, StreamingApi};
//! use tweeql_model::{Timestamp, VirtualClock};
//!
//! let mut scenario = scenarios::soccer_match();
//! scenario.duration = tweeql_model::Duration::from_mins(45);
//! scenario
//!     .bursts
//!     .retain(|b| b.end() <= Timestamp::ZERO + scenario.duration);
//! scenario.population_size = 500;
//! let api = StreamingApi::new(generate(&scenario, 7), VirtualClock::new());
//! let spec = EventSpec::new(
//!     "Soccer: Manchester City vs. Liverpool",
//!     &["soccer", "football", "manchester", "liverpool"],
//! );
//! let tweets = event_tweets(&api, &spec).unwrap();
//! let analysis = analyze(&spec, &tweets, &Default::default());
//! assert!(!analysis.timeline.bins.is_empty());
//! ```

pub mod dashboard;
pub mod event;
pub mod html;
pub mod keyterms;
pub mod links;
pub mod live;
pub mod logger;
pub mod mapview;
pub mod peaks;
pub mod relevance;
pub mod sentiment_agg;
pub mod store;
pub mod timeline;
pub mod udfs;

pub use event::EventSpec;
pub use logger::event_tweets;
pub use peaks::{Peak, PeakDetector, PeakDetectorConfig};
pub use store::{analyze, AnalysisConfig, EventAnalysis, EventStore};
pub use timeline::Timeline;
