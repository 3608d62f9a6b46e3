//! Compact binary encode/decode of tweet logs.
//!
//! Expensive scenarios (hours of stream, thousands of users) can be
//! generated once, encoded with [`encode_log`], and replayed across
//! bench runs with [`decode_log`]. The format is a simple length-
//! prefixed record layout over [`bytes`] — no schema evolution needed
//! for an experiment artifact.

use crate::pack::Packer;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use tweeql_model::{Text, Timestamp, TruthPolarity, Tweet, TweetBuilder, User, UserId};

/// File magic: "TWEEQL log, version 1".
const MAGIC: u32 = 0x7EE1_0001;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Wrong magic / version.
    BadHeader,
    /// Buffer ended mid-record.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadHeader => write!(f, "bad replay log header"),
            ReplayError::Truncated => write!(f, "truncated replay log"),
            ReplayError::BadUtf8 => write!(f, "invalid utf-8 in replay log"),
        }
    }
}

impl std::error::Error for ReplayError {}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Encode a tweet log.
pub fn encode_log(tweets: &[Tweet]) -> Bytes {
    let mut buf = BytesMut::with_capacity(tweets.len() * 160 + 16);
    buf.put_u32_le(MAGIC);
    buf.put_u64_le(tweets.len() as u64);
    for t in tweets {
        buf.put_u64_le(t.id);
        buf.put_i64_le(t.created_at.millis());
        put_str(&mut buf, &t.text);
        buf.put_u64_le(t.user.id);
        put_str(&mut buf, &t.user.screen_name);
        put_str(&mut buf, &t.user.location);
        buf.put_u32_le(t.user.followers);
        put_str(&mut buf, &t.user.lang);
        put_str(&mut buf, t.lang());
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
    buf.freeze()
}

/// Bytes of records [`decode_log`] builds between two releases of its
/// input: the raw and the decoded log are alive together for this much
/// of the log, not for the whole of it. A run costs two `mremap`s (the
/// output grows, the input shrinks) and one chunk for its texts; a
/// 37 MiB log is ~150 runs. The generator packs its texts in chunks of
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
}

fn as_str(s: &[u8]) -> Result<&str, ReplayError> {
    std::str::from_utf8(s).map_err(|_| ReplayError::BadUtf8)
}

/// An author as a record carries it, its strings still bytes.
#[derive(Clone, Copy, PartialEq)]
struct Profile<'a> {
    id: UserId,
    screen_name: &'a [u8],
    location: &'a [u8],
    followers: u32,
    lang: &'a [u8],
}

impl Profile<'_> {
    /// True when `user` has every field of this profile.
    fn is(&self, user: &User) -> bool {
        user.id == self.id
            && user.screen_name.as_bytes() == self.screen_name
            && user.location.as_bytes() == self.location
            && user.followers == self.followers
            && user.lang.as_bytes() == self.lang
    }
}

/// One record as it lies in the log, its strings still bytes.
struct Raw<'a> {
    id: u64,
    created_at: i64,
    text: &'a [u8],
    author: Profile<'a>,
    lang: &'a [u8],
    coordinates: Option<(f64, f64)>,
    retweet_of: Option<u64>,
    truth_polarity: Option<TruthPolarity>,
    truth_burst: Option<u32>,
}

impl<'a> Raw<'a> {
    /// Read one record field by field, in the order of the format. With
    /// `utf8`, each string is checked as it is read, so the error is the
    /// first one a forward decoder meets.
    fn parse(r: &mut Reader<'a>, utf8: bool) -> Result<Raw<'a>, ReplayError> {
        // Fields are evaluated in the order they are written.
        Ok(Raw {
            id: r.u64()?,
            created_at: r.i64()?,
            text: r.str(utf8)?,
            author: Profile {
                id: r.u64()?,
                screen_name: r.str(utf8)?,
                location: r.str(utf8)?,
                followers: r.u32()?,
                lang: r.str(utf8)?,
            },
            lang: r.str(utf8)?,
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

    /// The tweet by `user` with `text`. A `lang` that is not the
    /// author's is interned through `pool`, the `location` and `lang`
    /// values decoded so far.
    fn build(
        self,
        text: Text,
        user: Arc<User>,
        pool: &mut HashSet<Text>,
    ) -> Result<Tweet, ReplayError> {
        // The profile matched `user`, so its language is the user's.
        let lang = if self.lang == self.author.lang {
            user.lang.clone()
        } else {
            let lang = as_str(self.lang)?;
            pool.get(lang).cloned().unwrap_or_else(|| {
                let fresh = Text::from(lang);
                pool.insert(fresh.clone());
                fresh
            })
        };
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
        Ok(tweet.build())
    }
}

/// What the decoder holds for a `user_id`: the `User` of its last
/// profile, or that profile first met in the run being built, as an
/// index into the run's fresh profiles.
enum Author {
    Built(Arc<User>),
    Fresh(usize),
}

/// A run of about a chunk of records.
struct Run {
    /// Byte offset of its first record.
    start: usize,
    /// Index of its first record.
    first: usize,
    /// Bytes of its records' texts and author strings: the most its
    /// chunk can hold.
    string_bytes: usize,
}

/// Where a forward walk found the records.
struct Layout {
    /// The record count the header claims, every record present.
    count: usize,
    runs: Vec<Run>,
    /// The byte offset just past the last record.
    end: usize,
}

/// Walk the header and every record forward, starting a new run once
/// the current one holds `chunk` bytes.
fn walk(raw: &[u8], chunk: usize, utf8: bool) -> Result<Layout, ReplayError> {
    let mut r = Reader { rest: raw };
    if raw.len() < 12 || r.u32()? != MAGIC {
        return Err(ReplayError::BadHeader);
    }
    // The count is untrusted: a count the bytes cannot back ends in
    // `Truncated` before anything is reserved for it.
    let count = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let mut runs: Vec<Run> = Vec::new();
    for i in 0..count {
        let at = raw.len() - r.rest.len();
        if runs.last().is_none_or(|run| at - run.start >= chunk) {
            runs.push(Run {
                start: at,
                first: i,
                string_bytes: 0,
            });
        }
        let Raw { text, author, .. } = Raw::parse(&mut r, utf8)?;
        if let Some(run) = runs.last_mut() {
            run.string_bytes +=
                text.len() + author.screen_name.len() + author.location.len() + author.lang.len();
        }
    }
    Ok(Layout {
        count,
        runs,
        end: raw.len() - r.rest.len(),
    })
}

/// Decode a tweet log, giving the input back as it goes.
///
/// Pass 1 walks the log forward with every bounds check but no UTF-8
/// check, and marks where each 256 KiB run of records starts. When it
/// fails, a second forward walk that also checks UTF-8 finds the first
/// error, so a log answers what a one-pass decoder would. Pass 2 builds
/// the runs from the last to the first, and after each one truncates
/// the input to the runs not yet built and shrinks it: raw and decoded
/// log are alive together for one run, not the whole log. Once pass 1
/// has succeeded, pass 2 can only fail on UTF-8, as a forward decoder
/// would.
///
/// Strings are packed, not allocated one by one (see [`Text`]): a run
/// is built in two sweeps. The first writes its texts into one chunk,
/// and with them the strings of each author it meets first; the second
/// builds the tweets, each cutting its text out of the chunk. A tweet
/// costs its row plus its box of rare fields when one of them is
/// present (see [`Tweet`]). Authors are shared: the first tweet built
/// for a `user_id` makes the [`User`], later ones clone the `Arc` — but
/// only after comparing every profile field, so an author whose
/// followers, location or language change mid-log gets a fresh `User`
/// for the tweets that differ. Profile locations and languages are
/// interned, as [`crate::generate`] builds them: one string per
/// distinct value in the whole log, whichever authors carry it. A
/// tweet's `lang` is its author's string when the two are equal, and is
/// then not stored in the row at all; otherwise it is the interned one.
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
    let mut out = Vec::new();
    let mut authors: HashMap<UserId, Author> = HashMap::new();
    // The `location` and `lang` values decoded so far, one string each.
    let mut pool: HashSet<Text> = HashSet::new();
    // Kept across runs: where each record of the run starts, where its
    // text starts in the run's chunk, and its author: a `User` built
    // before the run, or one of the run's fresh profiles.
    let mut sweep: Vec<(usize, usize, Result<Arc<User>, usize>)> = Vec::new();
    let (mut end, mut next) = (layout.end, layout.count);
    for run in layout.runs.iter().rev() {
        // Grown a run at a time, so the rows reserved never run ahead
        // of the input given back.
        out.reserve_exact(next - run.first);
        sweep.reserve_exact(next - run.first);
        let records = &raw[run.start..end];
        // Sweep 1: each text into one chunk, and with them the strings
        // of each profile first met here (those not pooled yet).
        let mut pack = Packer::with_capacity(run.string_bytes);
        // Each fresh profile: where the record that carries it first
        // starts, and where its screen name lies.
        let mut fresh: Vec<(usize, Range<usize>)> = Vec::new();
        let record_at = |at: usize| {
            Raw::parse(
                &mut Reader {
                    rest: &records[at..],
                },
                false,
            )
        };
        let mut r = Reader { rest: records };
        for _ in run.first..next {
            let at = records.len() - r.rest.len();
            let record = Raw::parse(&mut r, false)?;
            let text = pack.push(as_str(record.text)?);
            let p = record.author;
            let author = match authors.get(&p.id) {
                Some(Author::Built(user)) if p.is(user) => Ok(Arc::clone(user)),
                Some(&Author::Fresh(k)) if record_at(fresh[k].0)?.author == p => Err(k),
                _ => {
                    for s in [p.location, p.lang] {
                        let s = as_str(s)?;
                        if !pool.contains(s) {
                            pack.intern(s);
                        }
                    }
                    fresh.push((at, pack.push(as_str(p.screen_name)?)));
                    authors.insert(p.id, Author::Fresh(fresh.len() - 1));
                    Err(fresh.len() - 1)
                }
            };
            sweep.push((at, text.start, author));
        }
        let (chunk, interned) = pack.seal_interned();
        for at in interned.into_values() {
            pool.insert(chunk.slice(at));
        }
        let pooled = |s: &[u8]| -> Result<Text, ReplayError> {
            Ok(pool
                .get(as_str(s)?)
                .cloned()
                .expect("pooled when its profile was met"))
        };
        let mut users = Vec::with_capacity(fresh.len());
        for (k, (at, name)) in fresh.into_iter().enumerate() {
            let p = record_at(at)?.author;
            let user = Arc::new(User {
                id: p.id,
                screen_name: chunk.slice(name),
                location: pooled(p.location)?,
                followers: p.followers,
                lang: pooled(p.lang)?,
            });
            if matches!(authors.get(&p.id), Some(&Author::Fresh(last)) if last == k) {
                authors.insert(p.id, Author::Built(Arc::clone(&user)));
            }
            users.push(user);
        }
        // Sweep 2, last record first (the whole output is reversed at
        // the end): the tweets, each cutting its text out of the chunk.
        for (at, text_at, author) in sweep.drain(..).rev() {
            let record = record_at(at)?;
            let text = chunk.slice(text_at..text_at + record.text.len());
            let user = author.unwrap_or_else(|k| Arc::clone(&users[k]));
            out.push(record.build(text, user, &mut pool)?);
        }
        raw.truncate(run.start);
        raw.shrink_to_fit();
        (end, next) = (run.start, run.first);
    }
    out.reverse();
    Ok(out)
}

/// The decoder this module shipped before [`decode_log`] borrowed its
/// input: the reference the differential tests below hold it to.
#[cfg(test)]
mod oracle {
    use super::{ReplayError, MAGIC};
    use bytes::{Buf, Bytes};
    use tweeql_model::{Timestamp, TruthPolarity, Tweet, TweetBuilder, User};

    fn get_str(buf: &mut Bytes) -> Result<String, ReplayError> {
        if buf.remaining() < 4 {
            return Err(ReplayError::Truncated);
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(ReplayError::Truncated);
        }
        let raw = buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).map_err(|_| ReplayError::BadUtf8)
    }

    pub fn decode_log(mut buf: Bytes) -> Result<Vec<Tweet>, ReplayError> {
        if buf.remaining() < 12 {
            return Err(ReplayError::BadHeader);
        }
        if buf.get_u32_le() != MAGIC {
            return Err(ReplayError::BadHeader);
        }
        let n = buf.get_u64_le() as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if buf.remaining() < 16 {
                return Err(ReplayError::Truncated);
            }
            let id = buf.get_u64_le();
            let ts = Timestamp::from_millis(buf.get_i64_le());
            let text = get_str(&mut buf)?;
            if buf.remaining() < 8 {
                return Err(ReplayError::Truncated);
            }
            let user_id = buf.get_u64_le();
            let screen_name = get_str(&mut buf)?;
            let location = get_str(&mut buf)?;
            if buf.remaining() < 4 {
                return Err(ReplayError::Truncated);
            }
            let followers = buf.get_u32_le();
            let user_lang = get_str(&mut buf)?;
            let lang = get_str(&mut buf)?;

            let mut builder = TweetBuilder::new(id, text)
                .user(User {
                    id: user_id,
                    screen_name: screen_name.into(),
                    location: location.into(),
                    followers,
                    lang: user_lang.into(),
                })
                .at(ts)
                .lang(lang);

            if buf.remaining() < 1 {
                return Err(ReplayError::Truncated);
            }
            if buf.get_u8() == 1 {
                if buf.remaining() < 16 {
                    return Err(ReplayError::Truncated);
                }
                let lat = buf.get_f64_le();
                let lon = buf.get_f64_le();
                builder = builder.coordinates(lat, lon);
            }
            if buf.remaining() < 1 {
                return Err(ReplayError::Truncated);
            }
            if buf.get_u8() == 1 {
                if buf.remaining() < 8 {
                    return Err(ReplayError::Truncated);
                }
                builder = builder.retweet_of(buf.get_u64_le());
            }
            if buf.remaining() < 1 {
                return Err(ReplayError::Truncated);
            }
            builder = match buf.get_u8() {
                1 => builder.truth_polarity(TruthPolarity::Positive),
                2 => builder.truth_polarity(TruthPolarity::Negative),
                3 => builder.truth_polarity(TruthPolarity::Neutral),
                _ => builder,
            };
            if buf.remaining() < 1 {
                return Err(ReplayError::Truncated);
            }
            if buf.get_u8() == 1 {
                if buf.remaining() < 4 {
                    return Err(ReplayError::Truncated);
                }
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

    /// A header and nothing else, claiming `count` records.
    fn header_only(count: u64) -> Bytes {
        let mut buf = BytesMut::with_capacity(12);
        buf.put_u32_le(MAGIC);
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

    #[test]
    fn a_count_one_larger_than_the_records_present_is_truncated() {
        let log = profile_log(&[(0, 0), (4, 1), (6, 2)]);
        let mut raw = encode_log(&log).to_vec();
        raw[4..12].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(decode_log(Bytes::from(raw)), Err(ReplayError::Truncated));
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

    /// The first byte of record `i`'s text in `log`'s encoding: past
    /// the records before it, its id, time and the text's length prefix.
    fn text_offset(log: &[Tweet], i: usize) -> usize {
        encode_log(&log[..i]).len() + 20
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
        let rows: Vec<(u8, u8)> = (0..12u8).map(|k| (k % 7, k)).collect();
        let log = profile_log(&rows);
        let raw = encode_log(&log).to_vec();
        // The last record's text, and then its author's screen name,
        // past the text, the user id and the name's length prefix.
        let text = text_offset(&log, 11);
        for at in [text, text + log[11].text.len() + 12] {
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
            let want = if cut < 12 {
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
        let got = decode_log(encode_log(&log)).unwrap();
        assert_eq!(got, log);
        assert!(Arc::ptr_eq(&got[0].user, &got[1].user));
        assert_eq!(copy(got[0].lang()), copy(&got[0].user.lang));
        assert_eq!(&**got[1].lang(), "pt");
        assert!(!Arc::ptr_eq(&got[1].user, &got[2].user));
        assert_eq!(got[2].user.followers, 11);
        assert!(!Arc::ptr_eq(&got[2].user, &got[3].user));
        assert_eq!(got[3].user.followers, 10);
        assert!(!Arc::ptr_eq(&got[4].user, &got[5].user));
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
            assert!(
                authors.is_subset(&chunks),
                "runs of {chunk} bytes: an author's strings lie in a chunk of texts"
            );
        }
    }

    #[test]
    fn a_log_the_previous_encoder_wrote_decodes_to_the_same_tweets() {
        let fixture: &[u8] = include_bytes!("../tests/fixtures/parent_log_3_tweets.bin");
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

        /// Any byte after the header may be anything: a flag that is
        /// neither 0 nor 1, a length past the end, text that is not
        /// UTF-8. (The count is left alone: the oracle reserves for it
        /// unchecked, which is the defect the header tests pin.)
        #[test]
        fn decoder_equals_the_oracle_on_corrupted_logs(
            rows in collection::vec((0u8..7, 0u8..64), 1..6),
            at in 0usize..4096,
            byte in 0u8..=255,
        ) {
            let mut raw = encode_log(&profile_log(&rows)).to_vec();
            let at = 12 + at % (raw.len() - 12);
            raw[at] = byte;
            let (old, new) = encoded_answers(&Bytes::from(raw));
            prop_assert_eq!(new, vec![old; CHUNKS.len()]);
        }

        /// A valid header and then anything at all, written field by
        /// field in the format's order so that records parse deep
        /// before they break. A field is a string of one repeated byte
        /// up to 7 long (not UTF-8 one time in 32), a flag of 0 or 1
        /// with its payload, a polarity code up to 4, or fixed-width
        /// bytes; one token in 16 is instead one arbitrary byte, which
        /// shifts every field after it. (The count is at most 64:
        /// the oracle reserves for it unchecked.)
        #[test]
        fn decoder_equals_the_oracle_on_hostile_bytes(
            count in 0u64..=64,
            tokens in collection::vec((0u8..16, 0u8..=255, 0u8..=255), 0..512),
        ) {
            let mut raw = header_only(count).to_vec();
            let mut field = 0;
            for (kind, a, b) in tokens {
                if kind == 15 {
                    raw.push(a);
                    continue;
                }
                match field {
                    // id, created_at, user_id
                    0 | 1 | 3 => raw.extend([a; 8]),
                    // text, screen_name, location, user lang, lang
                    2 | 4 | 5 | 7 | 8 => {
                        raw.extend(u32::from(a % 8).to_le_bytes());
                        let byte = if b < 0xF8 { b & 0x7F } else { b };
                        raw.extend(std::iter::repeat_n(byte, usize::from(a % 8)));
                    }
                    // followers
                    6 => raw.extend([a; 4]),
                    // coordinates, retweet_of, truth_burst: a flag
                    // and, when it is set, the payload
                    9 | 10 | 12 => {
                        raw.push(a & 1);
                        let payload = match field {
                            9 => 16,
                            10 => 8,
                            _ => 4,
                        };
                        if a & 1 == 1 {
                            raw.extend(std::iter::repeat_n(b, payload));
                        }
                    }
                    // truth_polarity
                    _ => raw.push(a % 5),
                }
                field = (field + 1) % 13;
            }
            let (old, new) = encoded_answers(&Bytes::from(raw));
            prop_assert_eq!(new, vec![old; CHUNKS.len()]);
        }
    }
}
