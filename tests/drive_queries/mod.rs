//! The queries `tests/drive_golden.rs` pins, shared with the tests
//! that check every query set's plans.

/// `tests/batched_source.rs`'s three queries, LIMIT, a confidence
/// window and an async UDF.
pub const QUERIES: &[&str] = &[
    "SELECT text FROM twitter WHERE text contains 'kw'",
    "SELECT count(*) AS n, lang FROM twitter \
     WHERE text contains 'kw' GROUP BY lang WINDOW 2 minutes",
    "SELECT sentiment(text) AS s, followers FROM twitter WHERE followers > 2000",
    "SELECT text FROM twitter WHERE text contains 'kw' LIMIT 25",
    "SELECT avg(followers) AS a, lang FROM twitter GROUP BY lang \
     WINDOW CONFIDENCE 40.0 MAX 90 seconds",
    "SELECT latitude(loc) AS la, longitude(loc) AS lo \
     FROM twitter WHERE text contains 'kw'",
];
