//! Compact binary encode/decode of tweet logs.
//!
//! Expensive scenarios (hours of stream, thousands of users) can be
//! generated once, encoded with [`encode_log`], and replayed across
//! bench runs with [`decode_log`]. The format, version 2, is
//! little-endian with every string a `u32` length and its bytes:
//!
//! - the magic `0x7EE1_0002`;
//! - the author table: a `u32` count, then each distinct profile (id,
//!   screen name, location, followers, language) once, in order of
//!   first appearance;
//! - a `u64` tweet count, then one record a tweet: id, time, text, a
//!   `u32` index into the table, the tweet's language (a flag, and a
//!   string only when it is not its author's), then coordinates,
//!   `retweet_of`, polarity and burst, each optional one behind a flag.
//!
//! Version 1 repeated the author's profile in every record, which made
//! the log 1.8 times larger and its decode a hash lookup and a profile
//! compare a tweet; it is refused as [`ReplayError::BadHeader`]. The
//! log is an experiment artifact, encoded afresh from a generated
//! stream: there is one decoder and no schema evolution.

use crate::pack::Packer;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use tweeql_model::{Text, Timestamp, TruthPolarity, Tweet, TweetBuilder, User, UserId};

/// File magic: "TWEEQL log, version 2".
const MAGIC: u32 = 0x7EE1_0002;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Wrong magic / version.
    BadHeader,
    /// Buffer ended mid-record.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A record named an author past the table.
    BadAuthor,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadHeader => write!(f, "bad replay log header"),
            ReplayError::Truncated => write!(f, "truncated replay log"),
            ReplayError::BadUtf8 => write!(f, "invalid utf-8 in replay log"),
            ReplayError::BadAuthor => write!(f, "author index past the replay log's table"),
        }
    }
}

impl std::error::Error for ReplayError {}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Bytes [`put_str`] writes for `s`.
fn str_len(s: &str) -> usize {
    4 + s.len()
}

/// The tweet's language when it is not its author's.
fn own_lang(t: &Tweet) -> Option<&Text> {
    (*t.lang() != t.user.lang).then(|| t.lang())
}

/// Bytes of `t`'s record.
fn record_len(t: &Tweet) -> usize {
    let some = |present: bool, bytes: usize| if present { bytes } else { 0 };
    8 + 8
        + str_len(&t.text)
        + 4
        + 1
        + own_lang(t).map_or(0, |l| str_len(l))
        + 1
        + some(t.coordinates().is_some(), 16)
        + 1
        + some(t.retweet_of().is_some(), 8)
        + 1
        + 1
        + some(t.truth_burst().is_some(), 4)
}

/// Encode a tweet log.
pub fn encode_log(tweets: &[Tweet]) -> Bytes {
    // Each distinct profile once, compared by every field, in order of
    // first appearance; each tweet's index into the table; and the
    // bytes all of it takes. Tweets mostly share their author's `Arc`,
    // so its address is looked up first: every `Arc` lives as long as
    // `tweets`, so an address names one profile, and only the first
    // tweet of each hashes the profile's fields.
    let mut by_ptr: HashMap<*const User, u32> = HashMap::new();
    let mut index: HashMap<(UserId, &str, &str, u32, &str), u32> = HashMap::new();
    let mut table: Vec<&User> = Vec::new();
    let mut authors = Vec::with_capacity(tweets.len());
    let mut len = 4 + 4 + 8;
    for t in tweets {
        let u = &*t.user;
        let author = *by_ptr.entry(Arc::as_ptr(&t.user)).or_insert_with(|| {
            let profile = (u.id, &*u.screen_name, &*u.location, u.followers, &*u.lang);
            *index.entry(profile).or_insert_with(|| {
                table.push(u);
                len += 8 + str_len(&u.screen_name) + str_len(&u.location) + 4 + str_len(&u.lang);
                u32::try_from(table.len() - 1).expect("fewer than 2^32 profiles")
            })
        });
        authors.push(author);
        len += record_len(t);
    }
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(table.len() as u32);
    for u in table {
        buf.put_u64_le(u.id);
        put_str(&mut buf, &u.screen_name);
        put_str(&mut buf, &u.location);
        buf.put_u32_le(u.followers);
        put_str(&mut buf, &u.lang);
    }
    buf.put_u64_le(tweets.len() as u64);
    for (t, author) in tweets.iter().zip(authors) {
        buf.put_u64_le(t.id);
        buf.put_i64_le(t.created_at.millis());
        put_str(&mut buf, &t.text);
        buf.put_u32_le(author);
        match own_lang(t) {
            Some(lang) => {
                buf.put_u8(1);
                put_str(&mut buf, lang);
            }
            None => buf.put_u8(0),
        }
        match t.coordinates() {
            Some((lat, lon)) => {
                buf.put_u8(1);
                buf.put_f64_le(lat);
                buf.put_f64_le(lon);
            }
            None => buf.put_u8(0),
        }
        match t.retweet_of() {
            Some(id) => {
                buf.put_u8(1);
                buf.put_u64_le(id);
            }
            None => buf.put_u8(0),
        }
        buf.put_u8(match t.truth_polarity {
            None => 0,
            Some(TruthPolarity::Positive) => 1,
            Some(TruthPolarity::Negative) => 2,
            Some(TruthPolarity::Neutral) => 3,
        });
        match t.truth_burst() {
            Some(b) => {
                buf.put_u8(1);
                buf.put_u32_le(b as u32);
            }
            None => buf.put_u8(0),
        }
    }
    debug_assert_eq!(buf.len(), len, "the buffer is sized from what is written");
    buf.freeze()
}

/// Bytes of records [`decode_log`] builds between two releases of its
/// input: the raw and the decoded log are alive together for this much
/// of the log, not for the whole of it. A run costs two `mremap`s (the
/// output grows, the input shrinks) and one chunk for its texts; a
/// 21 MiB log is ~80 runs. The generator packs its texts in chunks of
/// this many bytes too.
pub(crate) const CHUNK_BYTES: usize = 256 << 10;

/// A cursor over the borrowed log; every read is bounds-checked and
/// answers [`ReplayError::Truncated`].
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReplayError> {
        if self.rest.len() < n {
            return Err(ReplayError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReplayError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ReplayError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, ReplayError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ReplayError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, ReplayError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, ReplayError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A length-prefixed string, checked as UTF-8 where it lies when
    /// `utf8` is set.
    fn str(&mut self, utf8: bool) -> Result<&'a [u8], ReplayError> {
        let len = self.u32()? as usize;
        let s = self.bytes(len)?;
        if utf8 {
            as_str(s)?;
        }
        Ok(s)
    }

    /// One profile of the table.
    fn profile(&mut self, utf8: bool) -> Result<Entry<'a>, ReplayError> {
        // A tuple's fields are evaluated in the order they are written.
        Ok((
            self.u64()?,
            self.str(utf8)?,
            self.str(utf8)?,
            self.u32()?,
            self.str(utf8)?,
        ))
    }
}

/// A profile as the table holds it, its strings still bytes: id,
/// screen name, location, followers, language.
type Entry<'a> = (UserId, &'a [u8], &'a [u8], u32, &'a [u8]);

fn as_str(s: &[u8]) -> Result<&str, ReplayError> {
    std::str::from_utf8(s).map_err(|_| ReplayError::BadUtf8)
}

/// One record as it lies in the log, its strings still bytes.
struct Raw<'a> {
    id: u64,
    created_at: i64,
    text: &'a [u8],
    /// Index into the table, checked against its length.
    author: usize,
    /// The tweet's language when it is not its author's.
    lang: Option<&'a [u8]>,
    coordinates: Option<(f64, f64)>,
    retweet_of: Option<u64>,
    truth_polarity: Option<TruthPolarity>,
    truth_burst: Option<u32>,
}

impl<'a> Raw<'a> {
    /// Read one record field by field, in the order of the format, for
    /// a table of `profiles` authors. With `utf8`, each string is
    /// checked as it is read, so the error is the first one a forward
    /// decoder meets.
    fn parse(r: &mut Reader<'a>, profiles: usize, utf8: bool) -> Result<Raw<'a>, ReplayError> {
        // Fields are evaluated in the order they are written.
        Ok(Raw {
            id: r.u64()?,
            created_at: r.i64()?,
            text: r.str(utf8)?,
            author: match r.u32()? as usize {
                author if author < profiles => author,
                _ => return Err(ReplayError::BadAuthor),
            },
            lang: if r.u8()? == 1 {
                Some(r.str(utf8)?)
            } else {
                None
            },
            coordinates: if r.u8()? == 1 {
                Some((r.f64()?, r.f64()?))
            } else {
                None
            },
            retweet_of: if r.u8()? == 1 { Some(r.u64()?) } else { None },
            truth_polarity: match r.u8()? {
                1 => Some(TruthPolarity::Positive),
                2 => Some(TruthPolarity::Negative),
                3 => Some(TruthPolarity::Neutral),
                _ => None,
            },
            truth_burst: if r.u8()? == 1 { Some(r.u32()?) } else { None },
        })
    }

    /// The tweet by `user` with `text` and `lang`.
    fn build(self, text: Text, user: Arc<User>, lang: Text) -> Tweet {
        let mut tweet = TweetBuilder::new(self.id, text)
            .user(user)
            .at(Timestamp::from_millis(self.created_at))
            .lang(lang);
        if let Some((lat, lon)) = self.coordinates {
            tweet = tweet.coordinates(lat, lon);
        }
        if let Some(id) = self.retweet_of {
            tweet = tweet.retweet_of(id);
        }
        if let Some(p) = self.truth_polarity {
            tweet = tweet.truth_polarity(p);
        }
        if let Some(b) = self.truth_burst {
            tweet = tweet.truth_burst(b as usize);
        }
        tweet.build()
    }
}

/// A run of about a chunk of records.
struct Run {
    /// Byte offset of its first record.
    start: usize,
    /// Index of its first record.
    first: usize,
    /// Bytes of its records' texts: what its chunk holds.
    text_bytes: usize,
}

/// Where a forward walk found the table and the records.
struct Layout {
    /// The profile count the header claims, every profile present.
    profiles: usize,
    /// The bytes the profiles lie in.
    table: Range<usize>,
    /// The record count the header claims, every record present.
    count: usize,
    runs: Vec<Run>,
    /// The byte offset just past the last record.
    end: usize,
}

/// Walk the header, the table and every record forward, starting a new
/// run once the current one holds `chunk` bytes.
fn walk(raw: &[u8], chunk: usize, utf8: bool) -> Result<Layout, ReplayError> {
    let mut r = Reader { rest: raw };
    if raw.len() < 4 || r.u32()? != MAGIC {
        return Err(ReplayError::BadHeader);
    }
    let at = |r: &Reader| raw.len() - r.rest.len();
    // Both counts are untrusted: one the bytes cannot back ends in
    // `Truncated` before anything is reserved for it.
    let profiles = r.u32()? as usize;
    let table_start = at(&r);
    for _ in 0..profiles {
        r.profile(utf8)?;
    }
    let table = table_start..at(&r);
    let count = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let mut runs: Vec<Run> = Vec::new();
    for i in 0..count {
        let start = at(&r);
        // The first run is filled from byte 0: the header and the table
        // are given back with it, last, so they count toward it.
        let filled_from = runs
            .get(1..)
            .and_then(<[Run]>::last)
            .map_or(0, |run| run.start);
        if runs.is_empty() || start - filled_from >= chunk {
            runs.push(Run {
                start,
                first: i,
                text_bytes: 0,
            });
        }
        let text = Raw::parse(&mut r, profiles, utf8)?.text;
        if let Some(run) = runs.last_mut() {
            run.text_bytes += text.len();
        }
    }
    Ok(Layout {
        profiles,
        table,
        count,
        runs,
        end: at(&r),
    })
}

/// The table's `User`s by index, their strings in one chunk: each
/// screen name, and each distinct location and language once.
fn users(table: &[u8], profiles: usize) -> Result<Vec<Arc<User>>, ReplayError> {
    let mut r = Reader { rest: table };
    let mut pack = Packer::with_capacity(table.len());
    let mut spans = Vec::with_capacity(profiles);
    for _ in 0..profiles {
        let (id, screen_name, location, followers, lang) = r.profile(false)?;
        spans.push((
            id,
            pack.push(as_str(screen_name)?),
            pack.intern(as_str(location)?),
            followers,
            pack.intern(as_str(lang)?),
        ));
    }
    let chunk = pack.seal();
    // Pushed into a `Vec` of their own: collected from `spans`, they
    // would keep its eight times larger buffer for the whole decode.
    let mut users = Vec::with_capacity(profiles);
    for (id, screen_name, location, followers, lang) in spans {
        users.push(Arc::new(User {
            id,
            screen_name: chunk.slice(screen_name),
            location: chunk.slice(location),
            followers,
            lang: chunk.slice(lang),
        }));
    }
    Ok(users)
}

/// `lang` as one string a value: the table's languages, and those of
/// tweets not in their author's language, kept for the whole decode.
fn interned(langs: &mut HashSet<Text>, lang: &str) -> Text {
    if let Some(lang) = langs.get(lang) {
        return lang.clone();
    }
    let fresh = Text::from(lang);
    langs.insert(fresh.clone());
    fresh
}

/// Decode a tweet log, giving the input back as it goes.
///
/// Pass 1 walks the log forward with every bounds check but no UTF-8
/// check, and marks where the table lies and where each 256 KiB run of
/// records starts. When it fails, a second forward walk that also
/// checks UTF-8 finds the first error, so a log answers what a one-pass
/// decoder would. The table's `User`s are then built once: their
/// strings in one chunk, each distinct location and language interned,
/// as [`crate::generate`] builds them. Pass 2 builds the runs from the
/// last to the first, and after each one truncates the input to the
/// runs not yet built and shrinks it: raw and decoded log are alive
/// together for one run, not the whole log. Once pass 1 has succeeded,
/// only `BadUtf8` is left to fail on, as for a forward decoder.
///
/// A run is built in two sweeps: the first writes its texts into one
/// chunk, the second builds the tweets, each cutting its text out of
/// the chunk and cloning its author's `Arc` from the table. Equal
/// profiles are one table entry, so they share one [`User`] wherever
/// they lie in the log; a profile that changes mid-log is a second
/// entry, so `decode(encode(x)) == x`. A tweet costs its row plus its
/// box of rare fields when one of them is present (see [`Tweet`]). Its
/// `lang` is its author's string, not stored in the row, or an interned
/// one when it differs.
pub fn decode_log(buf: Bytes) -> Result<Vec<Tweet>, ReplayError> {
    decode_log_chunked(buf, CHUNK_BYTES)
}

/// [`decode_log`] with runs of `chunk` bytes.
fn decode_log_chunked(buf: Bytes, chunk: usize) -> Result<Vec<Tweet>, ReplayError> {
    let mut raw = Vec::from(buf);
    let layout = match walk(&raw, chunk, false) {
        Ok(layout) => layout,
        // The checking walk meets the same error, or a string that is
        // not UTF-8 before it.
        Err(e) => return Err(walk(&raw, chunk, true).err().unwrap_or(e)),
    };
    let users = users(&raw[layout.table.clone()], layout.profiles)?;
    // Seeded with the table's languages when a tweet first needs it.
    let mut langs: Option<HashSet<Text>> = None;
    let mut out = Vec::new();
    // Kept across runs: where each record of the run starts in it,
    // less than a chunk past the run's first.
    let mut starts: Vec<u32> = Vec::new();
    let (mut end, mut next) = (layout.end, layout.count);
    for run in layout.runs.iter().rev() {
        // Grown a run at a time, so the rows reserved never run ahead
        // of the input given back.
        out.reserve_exact(next - run.first);
        starts.reserve_exact(next - run.first);
        let records = &raw[run.start..end];
        // Sweep 1: each text into one chunk.
        let mut pack = Packer::with_capacity(run.text_bytes);
        let mut r = Reader { rest: records };
        for _ in run.first..next {
            starts.push((records.len() - r.rest.len()) as u32);
            pack.push(as_str(Raw::parse(&mut r, users.len(), false)?.text)?);
        }
        let chunk = pack.seal();
        // Sweep 2, last record first (the whole output is reversed at
        // the end): the tweets, each cutting its text off the end of
        // what is left of the chunk.
        let mut text_end = chunk.len();
        for at in starts.drain(..).rev() {
            let rest = &records[at as usize..];
            let record = Raw::parse(&mut Reader { rest }, users.len(), false)?;
            let text_start = text_end - record.text.len();
            let text = chunk.slice(text_start..text_end);
            text_end = text_start;
            let user = Arc::clone(&users[record.author]);
            let lang = match record.lang {
                None => user.lang.clone(),
                Some(lang) => interned(
                    langs.get_or_insert_with(|| users.iter().map(|u| u.lang.clone()).collect()),
                    as_str(lang)?,
                ),
            };
            out.push(record.build(text, user, lang));
        }
        raw.truncate(run.start);
        raw.shrink_to_fit();
        (end, next) = (run.start, run.first);
    }
    out.reverse();
    Ok(out)
}

/// A plain forward decoder of the format, copying every field and
/// building a `User` per tweet: the reference the differential tests
/// below hold [`decode_log`] to.
#[cfg(test)]
mod oracle {
    use super::{ReplayError, MAGIC};
    use bytes::{Buf, Bytes};
    use tweeql_model::{Timestamp, TruthPolarity, Tweet, TweetBuilder, User};

    fn need(buf: &Bytes, n: usize) -> Result<(), ReplayError> {
        if buf.remaining() < n {
            return Err(ReplayError::Truncated);
        }
        Ok(())
    }

    fn get_str(buf: &mut Bytes) -> Result<String, ReplayError> {
        need(buf, 4)?;
        let len = buf.get_u32_le() as usize;
        need(buf, len)?;
        let raw = buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).map_err(|_| ReplayError::BadUtf8)
    }

    pub fn decode_log(mut buf: Bytes) -> Result<Vec<Tweet>, ReplayError> {
        if buf.remaining() < 4 || buf.get_u32_le() != MAGIC {
            return Err(ReplayError::BadHeader);
        }
        need(&buf, 4)?;
        let profiles = buf.get_u32_le();
        let mut table = Vec::new();
        for _ in 0..profiles {
            need(&buf, 8)?;
            let id = buf.get_u64_le();
            let screen_name = get_str(&mut buf)?;
            let location = get_str(&mut buf)?;
            need(&buf, 4)?;
            let followers = buf.get_u32_le();
            let lang = get_str(&mut buf)?;
            table.push(User {
                id,
                screen_name: screen_name.into(),
                location: location.into(),
                followers,
                lang: lang.into(),
            });
        }
        need(&buf, 8)?;
        let n = buf.get_u64_le();
        let mut out = Vec::new();
        for _ in 0..n {
            need(&buf, 16)?;
            let id = buf.get_u64_le();
            let ts = Timestamp::from_millis(buf.get_i64_le());
            let text = get_str(&mut buf)?;
            need(&buf, 4)?;
            let author = (table.get(buf.get_u32_le() as usize))
                .ok_or(ReplayError::BadAuthor)?
                .clone();
            need(&buf, 1)?;
            let lang = if buf.get_u8() == 1 {
                get_str(&mut buf)?
            } else {
                author.lang.to_string()
            };
            let mut builder = TweetBuilder::new(id, text).user(author).at(ts).lang(lang);

            need(&buf, 1)?;
            if buf.get_u8() == 1 {
                need(&buf, 16)?;
                let lat = buf.get_f64_le();
                let lon = buf.get_f64_le();
                builder = builder.coordinates(lat, lon);
            }
            need(&buf, 1)?;
            if buf.get_u8() == 1 {
                need(&buf, 8)?;
                builder = builder.retweet_of(buf.get_u64_le());
            }
            need(&buf, 1)?;
            builder = match buf.get_u8() {
                1 => builder.truth_polarity(TruthPolarity::Positive),
                2 => builder.truth_polarity(TruthPolarity::Negative),
                3 => builder.truth_polarity(TruthPolarity::Neutral),
                _ => builder,
            };
            need(&buf, 1)?;
            if buf.get_u8() == 1 {
                need(&buf, 4)?;
                builder = builder.truth_burst(buf.get_u32_le() as usize);
            }
            out.push(builder.build());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Topic};
    use proptest::prelude::*;
    use tweeql_model::{Duration, TweetBuilder};

    fn sample_log() -> Vec<Tweet> {
        let s = Scenario {
            name: "replay".into(),
            duration: Duration::from_mins(5),
            background_rate_per_min: 30.0,
            topics: vec![Topic::new("t", vec!["kw"], 20.0)],
            bursts: vec![],
            geotag_rate: 0.2,
            population_size: 100,
        };
        crate::generator::generate(&s, 5)
    }

    #[test]
    fn round_trip_is_lossless() {
        let log = sample_log();
        let encoded = encode_log(&log);
        let decoded = decode_log(encoded).unwrap();
        assert_eq!(log.len(), decoded.len());
        for (a, b) in log.iter().zip(&decoded) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = encode_log(&sample_log()).to_vec();
        raw[0] ^= 0xFF;
        assert_eq!(decode_log(Bytes::from(raw)), Err(ReplayError::BadHeader));
    }

    #[test]
    fn truncation_detected() {
        let raw = encode_log(&sample_log());
        let cut = raw.slice(0..raw.len() - 7);
        assert_eq!(decode_log(cut), Err(ReplayError::Truncated));
    }

    #[test]
    fn empty_log_round_trips() {
        let decoded = decode_log(encode_log(&[])).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn short_buffer_is_bad_header() {
        assert_eq!(
            decode_log(Bytes::from_static(b"xy")),
            Err(ReplayError::BadHeader)
        );
    }

    /// A header with an empty table and nothing else, claiming `count`
    /// records.
    fn header_only(count: u64) -> Bytes {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(0);
        buf.put_u64_le(count);
        buf.freeze()
    }

    #[test]
    fn a_count_no_vec_can_hold_is_truncated_not_a_panic() {
        assert_eq!(
            decode_log(header_only(u64::MAX)),
            Err(ReplayError::Truncated)
        );
    }

    #[test]
    fn a_count_no_allocator_can_serve_is_truncated_not_an_abort() {
        assert_eq!(
            decode_log(header_only(1 << 36)),
            Err(ReplayError::Truncated)
        );
    }

    /// Where the walk finds `raw`'s table.
    fn table_of(raw: &[u8]) -> Range<usize> {
        walk(raw, CHUNK_BYTES, false).expect("a valid log").table
    }

    #[test]
    fn a_count_one_larger_than_the_records_present_is_truncated() {
        let log = profile_log(&[(0, 0), (4, 1), (6, 2)]);
        let mut raw = encode_log(&log).to_vec();
        let count = table_of(&raw).end;
        raw[count..count + 8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(decode_log(Bytes::from(raw)), Err(ReplayError::Truncated));
    }

    #[test]
    fn a_profile_count_the_bytes_cannot_back_is_truncated_before_anything_is_reserved() {
        // A table of 2^32 - 1 `User`s would be 32 GiB of `Arc`s alone.
        let mut raw = BytesMut::with_capacity(8);
        raw.put_u32_le(MAGIC);
        raw.put_u32_le(u32::MAX);
        assert_eq!(decode_log(raw.freeze()), Err(ReplayError::Truncated));
        // One profile more than the table holds: the tweet count is
        // read as the next profile, which the records cannot back.
        let mut raw = encode_log(&profile_log(&[(0, 0), (4, 1), (6, 2)])).to_vec();
        raw[4..8].copy_from_slice(&4u32.to_le_bytes());
        let raw = Bytes::from(raw);
        assert_eq!(decode_log(raw.clone()), Err(ReplayError::Truncated));
        assert_decoders_agree(&raw);
    }

    #[test]
    fn an_author_index_past_the_table_is_bad_author() {
        let log = profile_log(&[(0, 0), (4, 1), (6, 2)]);
        let mut raw = encode_log(&log).to_vec();
        // The last record's index, past its id, time and text: the
        // table holds three profiles, so 3 is one past it.
        let index = record_offset(&log, 2) + 20 + log[2].text.len();
        assert_eq!(raw[index..index + 4], 2u32.to_le_bytes());
        for past in [3, u32::MAX] {
            raw[index..index + 4].copy_from_slice(&past.to_le_bytes());
            let bad = Bytes::from(raw.clone());
            for chunk in CHUNKS {
                assert_eq!(
                    decode_log_chunked(bad.clone(), chunk),
                    Err(ReplayError::BadAuthor),
                    "index {past}, runs of {chunk} bytes"
                );
            }
            assert_decoders_agree(&bad);
        }
    }

    #[test]
    fn bad_utf8_in_a_table_string_is_bad_utf8() {
        let log = profile_log(&[(0, 0), (6, 1), (4, 2)]);
        let raw = encode_log(&log).to_vec();
        let table = table_of(&raw);
        // The first profile's screen name, past its id and the name's
        // length prefix; the last byte of the table, in the last
        // profile's language.
        for at in [table.start + 12, table.end - 1] {
            let mut bad = raw.clone();
            bad[at] = 0xFF;
            let bad = Bytes::from(bad);
            for chunk in CHUNKS {
                assert_eq!(
                    decode_log_chunked(bad.clone(), chunk),
                    Err(ReplayError::BadUtf8),
                    "byte {at}, runs of {chunk} bytes"
                );
            }
            assert_decoders_agree(&bad);
        }
    }

    #[test]
    fn a_truncation_inside_the_table_is_truncated() {
        let raw = encode_log(&profile_log(&[(0, 0), (6, 1), (4, 2)]));
        let table = table_of(&raw);
        for cut in [table.start, (table.start + table.end) / 2, table.end - 1] {
            let short = raw.slice(0..cut);
            for chunk in CHUNKS {
                assert_eq!(
                    decode_log_chunked(short.clone(), chunk),
                    Err(ReplayError::Truncated),
                    "cut at {cut}, runs of {chunk} bytes"
                );
            }
            assert_decoders_agree(&short);
        }
    }

    /// The profiles the differential logs draw authors from: id 1 under
    /// four profiles that differ in one field each, ids 2 and 3 with
    /// one profile between them (and an empty location), id 4 in
    /// multi-byte text.
    fn profile(k: u8) -> User {
        let (id, screen_name, location, followers, lang) = match k % 7 {
            0 => (1, "alice", "NYC", 10, "en"),
            1 => (1, "alice", "Boston", 10, "en"),
            2 => (1, "alice", "NYC", 11, "en"),
            3 => (1, "alice", "NYC", 10, "ja"),
            4 => (2, "bob", "", 5, "en"),
            5 => (3, "bob", "", 5, "en"),
            _ => (4, "ユキ", "東京 ✈", 0, "ja"),
        };
        User {
            id,
            screen_name: screen_name.into(),
            location: location.into(),
            followers,
            lang: lang.into(),
        }
    }

    /// One tweet by `profile(k)`; the low six bits of `flags` choose
    /// every optional field: coordinates, retweet, the four polarity
    /// codes, burst, and a tweet language that is not the author's.
    fn tweet(i: usize, k: u8, flags: u8, text: &str) -> Tweet {
        let user = profile(k);
        let lang = if flags & 32 != 0 {
            Text::from("pt")
        } else {
            user.lang.clone()
        };
        let mut b = TweetBuilder::new(i as u64, text)
            .user(user)
            .at(Timestamp::from_millis(i as i64 * 250))
            .lang(lang);
        if flags & 1 != 0 {
            b = b.coordinates(f64::from(flags) - 40.5, 139.7);
        }
        if flags & 2 != 0 {
            b = b.retweet_of(u64::from(flags));
        }
        b = match (flags >> 2) & 3 {
            1 => b.truth_polarity(TruthPolarity::Positive),
            2 => b.truth_polarity(TruthPolarity::Negative),
            3 => b.truth_polarity(TruthPolarity::Neutral),
            _ => b,
        };
        if flags & 16 != 0 {
            b = b.truth_burst(usize::from(flags));
        }
        b.build()
    }

    fn profile_log(rows: &[(u8, u8)]) -> Vec<Tweet> {
        rows.iter()
            .enumerate()
            .map(|(i, &(k, flags))| tweet(i, k, flags, "obama 地震 http://t.co/x"))
            .collect()
    }

    /// The run sizes the differential tests decode at: one record a
    /// run, a few records a run, and the default, which holds every log
    /// these tests write in one run.
    const CHUNKS: [usize; 3] = [1, 64, CHUNK_BYTES];

    /// New at every run size against old on the same bytes: equal
    /// tweets or equal error, and equal bytes once encoded again.
    fn assert_decoders_agree(raw: &Bytes) {
        let old = oracle::decode_log(raw.clone());
        for chunk in CHUNKS {
            let new = decode_log_chunked(raw.clone(), chunk);
            assert_eq!(new, old, "runs of {chunk} bytes");
            assert_eq!(
                new.map(|t| encode_log(&t)),
                old.clone().map(|t| encode_log(&t)),
                "runs of {chunk} bytes"
            );
        }
    }

    /// The oracle's answer and each run size's, encoded again: a
    /// corrupted coordinate may be a NaN, which is not equal to itself.
    fn encoded_answers(
        raw: &Bytes,
    ) -> (Result<Bytes, ReplayError>, Vec<Result<Bytes, ReplayError>>) {
        let old = oracle::decode_log(raw.clone()).map(|t| encode_log(&t));
        let new = CHUNKS
            .iter()
            .map(|&chunk| decode_log_chunked(raw.clone(), chunk).map(|t| encode_log(&t)))
            .collect();
        (old, new)
    }

    /// The byte offset of record `i` in `log`'s encoding: with runs of
    /// one byte, each record starts a run of its own.
    fn record_offset(log: &[Tweet], i: usize) -> usize {
        walk(&encode_log(log), 1, false).expect("a valid log").runs[i].start
    }

    /// The first byte of record `i`'s text in `log`'s encoding: past
    /// its id, time and the text's length prefix.
    fn text_offset(log: &[Tweet], i: usize) -> usize {
        record_offset(log, i) + 20
    }

    #[test]
    fn bad_utf8_before_a_truncated_record_is_bad_utf8_at_every_run_size() {
        let log = profile_log(&[(0, 0), (6, 0b01_0110), (4, 0), (2, 1)]);
        let mut raw = encode_log(&log).to_vec();
        raw[text_offset(&log, 0)] = 0xFF;
        raw.truncate(raw.len() - 3);
        let raw = Bytes::from(raw);
        for chunk in CHUNKS {
            assert_eq!(
                decode_log_chunked(raw.clone(), chunk),
                Err(ReplayError::BadUtf8),
                "runs of {chunk} bytes"
            );
        }
        assert_decoders_agree(&raw);
    }

    #[test]
    fn bad_utf8_in_the_last_run_only_is_bad_utf8() {
        // The last tweet is not in its author's language.
        let rows: Vec<(u8, u8)> = (0..12u8).map(|k| (k % 7, k | (k / 11) << 5)).collect();
        let log = profile_log(&rows);
        let raw = encode_log(&log).to_vec();
        // The last record's text, and then its language, past the
        // text, the author index, the flag and the length prefix.
        let text = text_offset(&log, 11);
        assert_eq!(&**log[11].lang(), "pt");
        for at in [text, text + log[11].text.len() + 9] {
            let mut bad = raw.clone();
            bad[at] = 0xC0;
            let bad = Bytes::from(bad);
            for chunk in CHUNKS {
                assert_eq!(
                    decode_log_chunked(bad.clone(), chunk),
                    Err(ReplayError::BadUtf8),
                    "byte {at}, runs of {chunk} bytes"
                );
            }
            assert_decoders_agree(&bad);
        }
    }

    #[test]
    fn every_flag_combination_decodes_as_the_oracle_does() {
        let rows: Vec<(u8, u8)> = (0..64u8).map(|flags| (flags % 7, flags)).collect();
        let log = profile_log(&rows);
        let raw = encode_log(&log);
        assert_decoders_agree(&raw);
        assert_eq!(decode_log(raw).unwrap(), log);
    }

    #[test]
    fn every_truncation_point_is_an_error_never_a_panic() {
        let raw = encode_log(&profile_log(&[(0, 0b11_1111), (6, 0b01_0110), (4, 0)]));
        for cut in 0..raw.len() {
            let short = raw.slice(0..cut);
            let want = if cut < 4 {
                ReplayError::BadHeader
            } else {
                ReplayError::Truncated
            };
            assert_eq!(decode_log(short.clone()), Err(want), "cut at {cut}");
            assert_decoders_agree(&short);
        }
    }

    #[test]
    fn an_unchanged_author_is_one_allocation_and_a_changed_one_is_not_merged() {
        // alice, alice, alice with 11 followers, alice as before; then
        // bob under two ids.
        let log = profile_log(&[(0, 0), (0, 32), (2, 0), (0, 0), (4, 0), (5, 0)]);
        let raw = encode_log(&log);
        let got = decode_log(raw.clone()).unwrap();
        assert_eq!(got, log);
        assert!(Arc::ptr_eq(&got[0].user, &got[1].user));
        assert_eq!(copy(got[0].lang()), copy(&got[0].user.lang));
        assert_eq!(&**got[1].lang(), "pt");
        assert!(!Arc::ptr_eq(&got[1].user, &got[2].user));
        assert_eq!(got[2].user.followers, 11);
        assert!(!Arc::ptr_eq(&got[2].user, &got[3].user));
        assert_eq!(got[3].user.followers, 10);
        // Back to the first profile after another: one table entry, so
        // one `User`, at every run size.
        assert!(Arc::ptr_eq(&got[0].user, &got[3].user));
        assert!(!Arc::ptr_eq(&got[4].user, &got[5].user));
        assert_eq!(walk(&raw, CHUNK_BYTES, false).unwrap().profiles, 4);
        for chunk in CHUNKS {
            let got = decode_log_chunked(raw.clone(), chunk).unwrap();
            assert!(
                Arc::ptr_eq(&got[0].user, &got[3].user),
                "runs of {chunk} bytes"
            );
        }
    }

    /// Which bytes a string is: two texts with equal ones share them.
    fn copy(s: &Text) -> (*const u8, usize) {
        (s.as_ptr(), s.len())
    }

    /// Copies and distinct values of one string field over `log`.
    fn copies_and_values(log: &[Tweet], field: fn(&Tweet) -> &Text) -> (usize, usize) {
        let copies: HashSet<_> = log.iter().map(|t| copy(field(t))).collect();
        let values: HashSet<&str> = log.iter().map(|t| field(t).as_str()).collect();
        (copies.len(), values.len())
    }

    #[test]
    fn generated_and_decoded_logs_hold_one_string_per_location_and_language() {
        let generated = sample_log();
        let decoded = decode_log(encode_log(&generated)).unwrap();
        // A tweet whose `lang` is not its author's, but another
        // author's, is interned too.
        let mut mixed = generated.clone();
        let author = Arc::clone(&mixed[1].user);
        let other = (mixed.iter().map(|t| &t.user.lang))
            .find(|l| **l != author.lang)
            .expect("two languages")
            .to_string();
        mixed[0] = TweetBuilder::new(0, "x").user(author).lang(other).build();
        let mixed = decode_log(encode_log(&mixed)).unwrap();
        let fields: [fn(&Tweet) -> &Text; 3] =
            [|t| &t.user.location, |t| &t.user.lang, |t| t.lang()];
        for log in [&generated, &decoded, &mixed] {
            for field in fields {
                let (copies, values) = copies_and_values(log, field);
                assert!(values > 1, "a field with one value shows nothing");
                assert_eq!(copies, values, "one copy per distinct value");
            }
            let langs = log.iter().flat_map(|t| [t.lang(), &t.user.lang]);
            let copies: HashSet<_> = langs.clone().map(copy).collect();
            let values: HashSet<&str> = langs.map(|l| l.as_str()).collect();
            assert_eq!(
                copies.len(),
                values.len(),
                "tweet and author languages share"
            );
        }
    }

    #[test]
    fn a_run_of_records_holds_its_strings_in_one_chunk() {
        let log = sample_log();
        let raw = encode_log(&log);
        for chunk in CHUNKS {
            let runs = walk(&raw, chunk, false).unwrap().runs.len();
            let decoded = decode_log_chunked(raw.clone(), chunk).unwrap();
            assert_eq!(decoded, log, "runs of {chunk} bytes");
            let chunks: HashSet<usize> =
                decoded.iter().filter_map(|t| t.text.chunk_addr()).collect();
            assert!(
                chunks.len() <= runs,
                "runs of {chunk} bytes: {} chunks for {runs} runs",
                chunks.len()
            );
            let authors: HashSet<usize> = (decoded.iter())
                .flat_map(|t| [&t.user.screen_name, &t.user.location, &t.user.lang])
                .filter_map(Text::chunk_addr)
                .collect();
            assert_eq!(
                authors.len(),
                1,
                "runs of {chunk} bytes: the authors' strings lie in the table's chunk"
            );
            assert!(
                authors.is_disjoint(&chunks),
                "runs of {chunk} bytes: the table's chunk holds no text"
            );
        }
    }

    #[test]
    fn a_version_1_log_is_bad_header() {
        let fixture: &[u8] = include_bytes!("../tests/fixtures/parent_log_3_tweets.bin");
        assert_eq!(fixture[..4], 0x7EE1_0001u32.to_le_bytes());
        assert_eq!(
            decode_log(Bytes::from(fixture.to_vec())),
            Err(ReplayError::BadHeader)
        );
        assert_decoders_agree(&Bytes::from(fixture.to_vec()));
    }

    #[test]
    fn a_pinned_log_decodes_to_its_tweets_and_encodes_to_its_bytes() {
        let fixture: &[u8] = include_bytes!("../tests/fixtures/log_v2_3_tweets.bin");
        let alice = User {
            id: 7,
            screen_name: "alice".into(),
            location: "Cambridge, MA".into(),
            followers: 1234,
            lang: "en".into(),
        };
        let yuki = User {
            id: 8,
            screen_name: "ユキ".into(),
            location: "".into(),
            followers: 0,
            lang: "ja".into(),
        };
        let want = vec![
            TweetBuilder::new(1, "obama speaks http://t.co/x #news")
                .user(alice.clone())
                .at(Timestamp::from_millis(1_000))
                .coordinates(42.36, -71.09)
                .truth_polarity(TruthPolarity::Positive)
                .build(),
            TweetBuilder::new(2, "地震だ ✈ @alice")
                .user(yuki)
                .at(Timestamp::from_millis(2_500))
                .lang("ja")
                .retweet_of(1)
                .truth_polarity(TruthPolarity::Negative)
                .truth_burst(3)
                .build(),
            TweetBuilder::new(3, "")
                .user(alice)
                .at(Timestamp::from_millis(2_500))
                .lang("pt")
                .build(),
        ];
        assert_eq!(decode_log(Bytes::from(fixture.to_vec())).unwrap(), want);
        assert_eq!(encode_log(&want).to_vec(), fixture);
    }

    /// Coordinates no scenario writes: NaN, both infinities, signed
    /// zero and the ends of `f64`.
    const EDGE_COORDS: [f64; 6] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];

    /// One tweet by `profile(k)` whose boxed fields take edge values.
    /// The low four bits of `flags` choose coordinates, retweet, burst
    /// and a tweet language that is not the author's; `coords` picks
    /// two of [`EDGE_COORDS`]; `ends` picks 0, the type's maximum or
    /// the drawn value for the retweet id and for the burst.
    fn edge_tweet(i: usize, k: u8, flags: u8, coords: usize, ends: u8, drawn: (u64, u32)) -> Tweet {
        let user = profile(k);
        let mut b = TweetBuilder::new(i as u64, "edge")
            .lang(if flags & 8 != 0 { "pt" } else { &*user.lang }.to_string())
            .user(user);
        if flags & 1 != 0 {
            b = b.coordinates(EDGE_COORDS[coords % 6], EDGE_COORDS[coords / 6 % 6]);
        }
        if flags & 2 != 0 {
            b = b.retweet_of([0, u64::MAX, drawn.0][usize::from(ends % 3)]);
        }
        if flags & 4 != 0 {
            b = b.truth_burst([0, u32::MAX, drawn.1][usize::from(ends / 3 % 3)] as usize);
        }
        b.build()
    }

    /// The boxed fields with coordinates as their bits, so a NaN
    /// compares equal to itself.
    fn boxed_fields(t: &Tweet) -> String {
        format!(
            "{:?} {:?} {:?} {}",
            t.coordinates().map(|(la, lo)| (la.to_bits(), lo.to_bits())),
            t.retweet_of(),
            t.truth_burst(),
            t.lang(),
        )
    }

    /// One field of a hostile log: a string of one repeated byte up to
    /// 7 long, not UTF-8 one time in 32.
    fn hostile_str(raw: &mut Vec<u8>, a: u8, b: u8) {
        raw.extend(u32::from(a % 8).to_le_bytes());
        let byte = if b < 0xF8 { b & 0x7F } else { b };
        raw.extend(std::iter::repeat_n(byte, usize::from(a % 8)));
    }

    /// A flag of 0 or 1 and, when it is set, `payload` bytes of `b`.
    fn hostile_flag(raw: &mut Vec<u8>, a: u8, b: u8, payload: usize) {
        raw.push(a & 1);
        if a & 1 == 1 {
            raw.extend(std::iter::repeat_n(b, payload));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decoder_equals_the_oracle(
            rows in collection::vec((0u8..7, 0u8..64, ".{0,24}"), 0..24),
        ) {
            let log: Vec<Tweet> = rows
                .iter()
                .enumerate()
                .map(|(i, (k, flags, text))| tweet(i, *k, *flags, text))
                .collect();
            let raw = encode_log(&log);
            assert_decoders_agree(&raw);
            prop_assert_eq!(decode_log(raw).unwrap(), log);
        }

        #[test]
        fn edge_values_of_the_boxed_fields_round_trip(
            rows in collection::vec(
                (0u8..7, 0u8..16, 0usize..36, 0u8..9, (0u64..=u64::MAX, 0u32..=u32::MAX)),
                1..12,
            ),
        ) {
            let log: Vec<Tweet> = rows
                .iter()
                .enumerate()
                .map(|(i, &(k, flags, coords, ends, drawn))| edge_tweet(i, k, flags, coords, ends, drawn))
                .collect();
            let raw = encode_log(&log);
            let decoded = decode_log(raw.clone()).unwrap();
            // Compared encoded: a NaN coordinate is not equal to itself.
            prop_assert_eq!(encode_log(&decoded), raw.clone());
            prop_assert_eq!(oracle::decode_log(raw.clone()).map(|t| encode_log(&t)), Ok(raw));
            prop_assert_eq!(
                decoded.iter().map(boxed_fields).collect::<Vec<_>>(),
                log.iter().map(boxed_fields).collect::<Vec<_>>()
            );
        }

        /// Any byte after the magic may be anything: a count the bytes
        /// cannot back, a flag that is neither 0 nor 1, a length past
        /// the end, an author index past the table, a string that is
        /// not UTF-8.
        #[test]
        fn decoder_equals_the_oracle_on_corrupted_logs(
            rows in collection::vec((0u8..7, 0u8..64), 1..6),
            at in 0usize..4096,
            byte in 0u8..=255,
        ) {
            let mut raw = encode_log(&profile_log(&rows)).to_vec();
            let at = 4 + at % (raw.len() - 4);
            raw[at] = byte;
            let (old, new) = encoded_answers(&Bytes::from(raw));
            prop_assert_eq!(new, vec![old; CHUNKS.len()]);
        }

        /// A valid magic and then anything at all, written field by
        /// field in the format's order so that the table and the
        /// records parse deep before they break: `profiles` table
        /// entries, the tweet `count`, then records. A field is a
        /// string (see [`hostile_str`]), a flag with its payload, an
        /// author index up to two past the table, a polarity code up to
        /// 4, or fixed-width bytes; one token in 16 is instead one
        /// arbitrary byte, which shifts every field after it.
        #[test]
        fn decoder_equals_the_oracle_on_hostile_bytes(
            profiles in 0u32..=4,
            count in 0u64..=64,
            tokens in collection::vec((0u8..16, 0u8..=255, 0u8..=255), 0..512),
        ) {
            let mut raw = MAGIC.to_le_bytes().to_vec();
            raw.extend(profiles.to_le_bytes());
            let table_fields = 5 * profiles as usize;
            let mut field = 0;
            for (kind, a, b) in tokens {
                if kind == 15 {
                    raw.push(a);
                    continue;
                }
                if field < table_fields {
                    match field % 5 {
                        // id
                        0 => raw.extend([a; 8]),
                        // followers
                        3 => raw.extend([a; 4]),
                        // screen_name, location, lang
                        _ => hostile_str(&mut raw, a, b),
                    }
                } else if field == table_fields {
                    raw.extend(count.to_le_bytes());
                } else {
                    match (field - table_fields - 1) % 9 {
                        // id, created_at
                        0 | 1 => raw.extend([a; 8]),
                        2 => hostile_str(&mut raw, a, b),
                        // author
                        3 => raw.extend((u32::from(a) % (profiles + 2)).to_le_bytes()),
                        // lang, when it is not the author's
                        4 => {
                            raw.push(a & 1);
                            if a & 1 == 1 {
                                hostile_str(&mut raw, b, a);
                            }
                        }
                        5 => hostile_flag(&mut raw, a, b, 16),
                        6 => hostile_flag(&mut raw, a, b, 8),
                        7 => raw.push(a % 5),
                        _ => hostile_flag(&mut raw, a, b, 4),
                    }
                }
                field += 1;
            }
            let (old, new) = encoded_answers(&Bytes::from(raw));
            prop_assert_eq!(new, vec![old; CHUNKS.len()]);
        }
    }
}
