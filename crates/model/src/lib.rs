//! # tweeql-model
//!
//! Shared data model for the TweeQL / TwitInfo reproduction:
//!
//! * [`Tweet`], [`User`], and tweet [`entities`] — the microblog record
//!   types every other crate consumes;
//! * [`Value`], [`Schema`], and [`Record`] — the dynamically-typed tuple
//!   representation flowing through the TweeQL stream processor, and
//!   [`RowBatch`], the same rows held by column as a query's output;
//! * [`Text`] — the one string type of both: a 16-byte handle to a
//!   slice of a shared chunk, so a held log's texts are a few chunks
//!   rather than an allocation each;
//! * [`Timestamp`] / [`Duration`] and the [`Clock`] abstraction — all
//!   stream time in this workspace is *virtual* by default so hours of
//!   firehose replay in milliseconds of wall time.
//!
//! The types here deliberately have no dependency on the query engine so
//! that substrates (text, geo, firehose) and applications (TwitInfo) can
//! share them without cycles.

pub mod batch;
pub mod clock;
pub mod entities;
pub mod error;
pub mod record;
pub mod rows;
pub mod schema;
pub mod text;
pub mod time;
pub mod tweet;
pub mod user;
pub mod value;

pub use batch::{Bitmap, Column, ColumnView, DecodeStats, RowCache, TweetBatch};
pub use clock::{Clock, SharedClock, SystemClock, VirtualClock};
pub use entities::{Entities, Hashtag, Mention, UrlEntity};
pub use error::ModelError;
pub use record::Record;
pub use rows::{RowBatch, RowColumn};
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use text::Text;
pub use time::{Cadence, Crossing, Duration, Timestamp};
pub use tweet::{TruthPolarity, Tweet, TweetBuilder, TweetId};
pub use user::{User, UserId};
pub use value::{Value, ValueRef};
