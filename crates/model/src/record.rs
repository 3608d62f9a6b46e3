//! [`Record`] — a schema-tagged tuple — plus the canonical mapping from a
//! [`Tweet`] onto the `twitter` stream schema the paper's queries use
//! (`SELECT ... FROM twitter`).

use crate::error::ModelError;
use crate::schema::{DataType, Schema, SchemaRef};
use crate::time::Timestamp;
use crate::tweet::Tweet;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

/// A tuple flowing through the stream processor.
///
/// Records share their [`Schema`] via `Arc`, so projection/aggregation
/// allocate a schema once per operator, not per tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    schema: SchemaRef,
    values: Vec<Value>,
    /// Event time of the underlying tuple — drives windowing.
    timestamp: Timestamp,
}

impl Record {
    /// Build a record, checking arity against the schema.
    pub fn new(
        schema: SchemaRef,
        values: Vec<Value>,
        timestamp: Timestamp,
    ) -> Result<Record, ModelError> {
        if schema.len() != values.len() {
            return Err(ModelError::ArityMismatch {
                schema: schema.len(),
                values: values.len(),
            });
        }
        Ok(Record {
            schema,
            values,
            timestamp,
        })
    }

    /// Build without the arity check — for operators that construct both
    /// schema and values together.
    pub fn new_unchecked(schema: SchemaRef, values: Vec<Value>, timestamp: Timestamp) -> Record {
        debug_assert_eq!(schema.len(), values.len());
        Record {
            schema,
            values,
            timestamp,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Event time.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Value at position `idx` (`Null` when out of range — streaming
    /// tolerance over panics).
    pub fn value(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.values.get(idx).unwrap_or(&NULL)
    }

    /// Value by column name.
    pub fn get(&self, name: &str) -> Result<&Value, ModelError> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| ModelError::UnknownColumn(name.to_string()))?;
        Ok(self.value(idx))
    }

    /// Consume into the value vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// A new record with the same timestamp but different shape.
    pub fn with_shape(&self, schema: SchemaRef, values: Vec<Value>) -> Record {
        Record::new_unchecked(schema, values, self.timestamp)
    }

    /// Render as a pipe-separated row (REPL output).
    pub fn render_row(&self) -> String {
        self.values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} @{}]", self.render_row(), self.timestamp)
    }
}

/// The canonical `twitter` stream schema exposed to TweeQL queries.
///
/// | column       | type   | contents                                   |
/// |--------------|--------|--------------------------------------------|
/// | `id`         | INT    | tweet id                                   |
/// | `text`       | STRING | raw tweet text                             |
/// | `user_id`    | INT    | author id                                  |
/// | `screen_name`| STRING | author handle                              |
/// | `loc`        | STRING | free-text profile location (geocoder input)|
/// | `lat`        | FLOAT  | GPS latitude or NULL                       |
/// | `lon`        | FLOAT  | GPS longitude or NULL                      |
/// | `created_at` | TIME   | event time                                 |
/// | `lang`       | STRING | language code                              |
/// | `followers`  | INT    | author follower count                      |
/// | `retweet_of` | INT    | original tweet id or NULL                  |
pub fn twitter_schema() -> SchemaRef {
    static SCHEMA: OnceLock<SchemaRef> = OnceLock::new();
    Arc::clone(SCHEMA.get_or_init(|| {
        Schema::shared(&[
            ("id", DataType::Int),
            ("text", DataType::Str),
            ("user_id", DataType::Int),
            ("screen_name", DataType::Str),
            ("loc", DataType::Str),
            ("lat", DataType::Float),
            ("lon", DataType::Float),
            ("created_at", DataType::Time),
            ("lang", DataType::Str),
            ("followers", DataType::Int),
            ("retweet_of", DataType::Int),
        ])
    }))
}

impl Record {
    /// Project a [`Tweet`] onto the `twitter` schema.
    ///
    /// String columns share the tweet's [`Text`](crate::Text) chunks — decoding a
    /// tweet into a record performs no string copies, which keeps the
    /// per-record cost on the hot decode path at one `Vec` allocation.
    pub fn from_tweet(tweet: &Tweet) -> Record {
        let (lat, lon) = match tweet.coordinates() {
            Some((la, lo)) => (Value::Float(la), Value::Float(lo)),
            None => (Value::Null, Value::Null),
        };
        Record::new_unchecked(
            twitter_schema(),
            vec![
                Value::Int(tweet.id as i64),
                Value::Str(tweet.text.clone()),
                Value::Int(tweet.user.id as i64),
                Value::Str(tweet.user.screen_name.clone()),
                Value::Str(tweet.user.location.clone()),
                lat,
                lon,
                Value::Time(tweet.created_at),
                Value::Str(tweet.lang().clone()),
                Value::Int(tweet.user.followers as i64),
                tweet
                    .retweet_of()
                    .map(|id| Value::Int(id as i64))
                    .unwrap_or(Value::Null),
            ],
            tweet.created_at,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::User;

    #[test]
    fn arity_is_checked() {
        let s = Schema::shared(&[("a", DataType::Int)]);
        assert!(Record::new(Arc::clone(&s), vec![], Timestamp::ZERO).is_err());
        assert!(Record::new(s, vec![Value::Int(1)], Timestamp::ZERO).is_ok());
    }

    #[test]
    fn get_by_name_and_index() {
        let s = Schema::shared(&[("a", DataType::Int), ("b", DataType::Str)]);
        let r = Record::new(s, vec![Value::Int(1), Value::from("x")], Timestamp::ZERO).unwrap();
        assert_eq!(r.get("a").unwrap(), &Value::Int(1));
        assert_eq!(r.get("B").unwrap(), &Value::from("x"));
        assert!(r.get("zz").is_err());
        assert_eq!(r.value(0), &Value::Int(1));
        assert_eq!(r.value(99), &Value::Null);
    }

    #[test]
    fn from_tweet_maps_all_columns() {
        let mut user = User::new(77, "madden");
        user.location = "NYC".into();
        user.followers = 500;
        let t = Tweet::builder(5, "obama in town")
            .user(user)
            .at(Timestamp::from_secs(12))
            .coordinates(40.7, -74.0)
            .build();
        let r = Record::from_tweet(&t);
        assert_eq!(r.get("id").unwrap(), &Value::Int(5));
        assert_eq!(r.get("text").unwrap(), &Value::from("obama in town"));
        assert_eq!(r.get("user_id").unwrap(), &Value::Int(77));
        assert_eq!(r.get("screen_name").unwrap(), &Value::from("madden"));
        assert_eq!(r.get("loc").unwrap(), &Value::from("NYC"));
        assert_eq!(r.get("lat").unwrap(), &Value::Float(40.7));
        assert_eq!(r.get("lon").unwrap(), &Value::Float(-74.0));
        assert_eq!(r.get("followers").unwrap(), &Value::Int(500));
        assert_eq!(r.get("retweet_of").unwrap(), &Value::Null);
        assert_eq!(r.timestamp(), Timestamp::from_secs(12));
    }

    #[test]
    fn ungeotagged_tweet_has_null_coords() {
        let t = Tweet::builder(1, "hello").build();
        let r = Record::from_tweet(&t);
        assert_eq!(r.get("lat").unwrap(), &Value::Null);
        assert_eq!(r.get("lon").unwrap(), &Value::Null);
    }

    #[test]
    fn twitter_schema_is_cached() {
        assert!(Arc::ptr_eq(&twitter_schema(), &twitter_schema()));
    }

    #[test]
    fn render_row() {
        let s = Schema::shared(&[("a", DataType::Int), ("b", DataType::Str)]);
        let r = Record::new(s, vec![Value::Int(1), Value::from("hi")], Timestamp::ZERO).unwrap();
        assert_eq!(r.render_row(), "1 | hi");
    }
}
