//! Stream time: millisecond [`Timestamp`]s and human-friendly [`Duration`]s.
//!
//! TweeQL queries say things like `WINDOW 3 hours`; all window arithmetic
//! in the engine is done in integer milliseconds to keep replay
//! deterministic.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in stream time, in milliseconds since an arbitrary epoch.
///
/// The synthetic firehose starts scenarios at `Timestamp::ZERO`, so
/// timestamps double as "milliseconds into the scenario".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The scenario epoch.
    pub const ZERO: Timestamp = Timestamp(0);
    /// Largest representable timestamp; used as an "infinite" watermark.
    pub const MAX: Timestamp = Timestamp(i64::MAX);
    /// Smallest representable timestamp: "before every row".
    pub const MIN: Timestamp = Timestamp(i64::MIN);

    /// Build from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// Build from whole seconds, saturating at [`Timestamp::MIN`] and
    /// [`Timestamp::MAX`].
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s.saturating_mul(1000))
    }

    /// Build from whole minutes, saturating like
    /// [`from_secs`](Timestamp::from_secs).
    pub const fn from_mins(m: i64) -> Self {
        Timestamp(m.saturating_mul(60_000))
    }

    /// Milliseconds since the epoch.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Truncate this timestamp down to a multiple of `bucket` — used for
    /// tumbling-window and timeline-bin assignment.
    ///
    /// `bucket` must be positive; negative timestamps floor toward
    /// negative infinity so bins are consistent across the epoch (and
    /// clamp at [`Timestamp::MIN`] instead of overflowing).
    pub fn truncate(self, bucket: Duration) -> Timestamp {
        let b = bucket.millis().max(1);
        Timestamp(self.0.div_euclid(b).saturating_mul(b))
    }

    /// `self + d`, clamped to the representable range: deadline
    /// arithmetic on timestamps nobody vetted (`decode_log` accepts any
    /// `i64`) must not overflow.
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Elapsed time from `earlier` to `self` (saturating at zero).
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_millis(self.0.saturating_sub(earlier.0).max(0))
    }

    /// Render as `HH:MM:SS` into the scenario (negative times prefixed `-`).
    pub fn hms(self) -> String {
        let neg = self.0 < 0;
        let total_s = self.0.unsigned_abs() / 1000;
        let (h, m, s) = (total_s / 3600, (total_s / 60) % 60, total_s % 60);
        format!("{}{:02}:{:02}:{:02}", if neg { "-" } else { "" }, h, m, s)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.hms())
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

/// The watermark boundaries `first, first + interval, …, last` that
/// stream time stepped over between one row and the next — one value
/// however many there are, so a ten-year jump costs what a one-second
/// step does until somebody asks for a boundary by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    /// The earliest boundary crossed.
    pub first: Timestamp,
    /// The latest boundary crossed (`>= first`, on the same grid).
    pub last: Timestamp,
    interval: Duration,
}

impl Crossing {
    /// `at - first` for an `at` inside the crossing: non-negative, but
    /// wider than an `i64` when the crossing spans most of time.
    fn offset(&self, at: Timestamp) -> u64 {
        at.0.wrapping_sub(self.first.0) as u64
    }

    /// How many boundaries were crossed.
    pub fn count(&self) -> u64 {
        self.offset(self.last) / self.interval.0 as u64 + 1
    }

    /// The earliest crossed boundary at or after `at`; `None` when the
    /// crossing ends before it.
    pub fn at_or_after(&self, at: Timestamp) -> Option<Timestamp> {
        if at <= self.first {
            return Some(self.first);
        }
        if at > self.last {
            return None;
        }
        // Rounded up on the grid; at most `last`, which is on it.
        let steps = self.offset(at).div_ceil(self.interval.0 as u64);
        let offset = steps * self.interval.0 as u64;
        Some(Timestamp(self.first.0.wrapping_add(offset as i64)))
    }

    /// Every crossed boundary in order — O(count), for the paths that
    /// still deliver each one.
    pub fn boundaries(self) -> impl Iterator<Item = Timestamp> {
        let mut next = Some(self.first);
        std::iter::from_fn(move || {
            let at = next?;
            next = (at < self.last).then(|| at + self.interval);
            Some(at)
        })
    }
}

/// The stream-time cursor of whoever fills a batch: which watermark
/// boundary comes next, and how far the rows seen so far reach.
///
/// Boundaries are the multiples of `interval`. A row at `ts` crosses
/// every boundary in `[next, ts]`; afterwards the next boundary is the
/// one just past `ts` — also when `ts` went *backwards* (a reordered row
/// the supervisor could not heal), so a boundary can be crossed twice,
/// exactly as the per-row loops always did. `next` is always on the
/// grid: where the grid runs off either end of the `i64` range
/// (`decode_log` accepts any timestamp) there is simply no boundary.
#[derive(Debug, Clone)]
pub struct Cadence {
    interval: Duration,
    next: Option<Timestamp>,
    high: Timestamp,
}

impl Cadence {
    /// A cursor before the first row (`interval` is at least 1 ms).
    pub fn new(interval: Duration) -> Cadence {
        Cadence {
            interval: Duration(interval.0.max(1)),
            next: None,
            high: Timestamp::MIN,
        }
    }

    /// A row at `ts` arrives: the boundaries stream time crossed to
    /// reach it, if any. The first row crosses nothing.
    pub fn advance(&mut self, ts: Timestamp) -> Option<Crossing> {
        self.high = self.high.max(ts);
        let iv = self.interval.0;
        let floor = ts.0.div_euclid(iv);
        // The boundary at or below `ts`, unless it lies below `i64::MIN`.
        let last = floor.checked_mul(iv);
        let crossed = match (self.next, last) {
            (Some(first), Some(last)) if ts >= first => Some(Crossing {
                first,
                last: Timestamp(last),
                interval: self.interval,
            }),
            _ => None,
        };
        // The boundary just above `ts`, unless it lies above `i64::MAX`.
        self.next = match last {
            Some(last) => last.checked_add(iv),
            None => (floor + 1).checked_mul(iv),
        }
        .map(Timestamp);
        crossed
    }

    /// The boundary the next crossing starts at: `None` before the
    /// first row (and past the last boundary an `i64` can name).
    pub fn next(&self) -> Option<Timestamp> {
        self.next
    }

    /// The latest row timestamp seen ([`Timestamp::MIN`] before the
    /// first): where a flush puts the virtual clock.
    pub fn high(&self) -> Timestamp {
        self.high
    }
}

/// A span of stream time in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub i64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Build from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms)
    }

    /// Build from seconds, saturating at the ends of `i64`
    /// milliseconds: a span read off the wire may be any `i64`.
    pub const fn from_secs(s: i64) -> Self {
        Duration(s.saturating_mul(1000))
    }

    /// Build from minutes, saturating like
    /// [`from_secs`](Duration::from_secs).
    pub const fn from_mins(m: i64) -> Self {
        Duration(m.saturating_mul(60_000))
    }

    /// Build from hours, saturating like
    /// [`from_secs`](Duration::from_secs).
    pub const fn from_hours(h: i64) -> Self {
        Duration(h.saturating_mul(3_600_000))
    }

    /// Span length in milliseconds.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Span length in (floating-point) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Parse the `WINDOW` clause vocabulary: `"<n> <unit>"` where unit is
    /// one of `ms|millisecond(s)|s|sec(s)|second(s)|min(s)|minute(s)|h|hour(s)|day(s)`.
    ///
    /// ```
    /// use tweeql_model::Duration;
    /// assert_eq!(Duration::parse("3 hours").unwrap(), Duration::from_hours(3));
    /// assert_eq!(Duration::parse("90 s").unwrap(), Duration::from_secs(90));
    /// ```
    pub fn parse(s: &str) -> Result<Duration, ModelError> {
        let s = s.trim();
        // Split number prefix from unit suffix, tolerating "5min" and "5 min".
        let digits_end = s
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map(|(i, _)| i)
            .unwrap_or(s.len());
        if digits_end == 0 {
            return Err(ModelError::BadDuration(s.to_string()));
        }
        let n: i64 = s[..digits_end]
            .parse()
            .map_err(|_| ModelError::BadDuration(s.to_string()))?;
        let unit = s[digits_end..].trim().to_ascii_lowercase();
        let ms_per = match unit.as_str() {
            "ms" | "millisecond" | "milliseconds" => 1,
            "s" | "sec" | "secs" | "second" | "seconds" => 1000,
            "min" | "mins" | "minute" | "minutes" | "m" => 60_000,
            "h" | "hr" | "hrs" | "hour" | "hours" => 3_600_000,
            "d" | "day" | "days" => 86_400_000,
            _ => return Err(ModelError::BadDuration(s.to_string())),
        };
        // Past `i64` milliseconds is no duration either.
        n.checked_mul(ms_per)
            .map(Duration)
            .ok_or_else(|| ModelError::BadDuration(s.to_string()))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms % 3_600_000 == 0 && ms != 0 {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms % 60_000 == 0 && ms != 0 {
            write!(f, "{}min", ms / 60_000)
        } else if ms % 1000 == 0 && ms != 0 {
            write!(f, "{}s", ms / 1000)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl std::ops::Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl std::ops::Div<i64> for Duration {
    type Output = Duration;
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_common_units() {
        assert_eq!(Duration::parse("3 hours").unwrap(), Duration::from_hours(3));
        assert_eq!(Duration::parse("1 hour").unwrap(), Duration::from_hours(1));
        assert_eq!(
            Duration::parse("90 seconds").unwrap(),
            Duration::from_secs(90)
        );
        assert_eq!(Duration::parse("5min").unwrap(), Duration::from_mins(5));
        assert_eq!(
            Duration::parse("250 ms").unwrap(),
            Duration::from_millis(250)
        );
        assert_eq!(Duration::parse("2 days").unwrap(), Duration::from_hours(48));
        assert_eq!(
            Duration::parse("  10 s  ").unwrap(),
            Duration::from_secs(10)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Duration::parse("").is_err());
        assert!(Duration::parse("hours").is_err());
        assert!(Duration::parse("3 fortnights").is_err());
        assert!(Duration::parse("x3 hours").is_err());
        // Past i64 milliseconds: refused, not overflowed.
        assert!(Duration::parse("9223372036854775807 hours").is_err());
        assert!(Duration::parse("9223372036854775807 ms").is_ok());
    }

    #[test]
    fn unit_constructors_saturate() {
        assert_eq!(Duration::from_secs(i64::MAX), Duration(i64::MAX));
        assert_eq!(Duration::from_hours(i64::MIN), Duration(i64::MIN));
        assert_eq!(Timestamp::from_secs(i64::MAX), Timestamp::MAX);
        assert_eq!(Timestamp::from_mins(i64::MIN), Timestamp::MIN);
        assert_eq!(Duration::from_mins(-2), Duration(-120_000));
    }

    #[test]
    fn truncate_buckets_timestamps() {
        let m = Duration::from_mins(1);
        assert_eq!(Timestamp::from_secs(0).truncate(m), Timestamp::from_secs(0));
        assert_eq!(
            Timestamp::from_secs(59).truncate(m),
            Timestamp::from_secs(0)
        );
        assert_eq!(
            Timestamp::from_secs(60).truncate(m),
            Timestamp::from_secs(60)
        );
        assert_eq!(
            Timestamp::from_secs(61).truncate(m),
            Timestamp::from_secs(60)
        );
        // Negative timestamps floor toward -inf, not toward zero.
        assert_eq!(
            Timestamp::from_secs(-1).truncate(m),
            Timestamp::from_secs(-60)
        );
    }

    #[test]
    fn cadence_reports_each_crossing_once_as_a_range() {
        let mut c = Cadence::new(Duration::from_secs(1));
        assert_eq!(c.advance(Timestamp::from_millis(200)), None, "first row");
        assert_eq!(c.next(), Some(Timestamp::from_secs(1)));
        assert_eq!(c.advance(Timestamp::from_millis(900)), None);
        let one = c.advance(Timestamp::from_millis(1000)).unwrap();
        assert_eq!(
            (one.first, one.last, one.count()),
            (Timestamp::from_secs(1), Timestamp::from_secs(1), 1)
        );
        let jump = c.advance(Timestamp::from_millis(6500)).unwrap();
        assert_eq!(
            (jump.first, jump.last, jump.count()),
            (Timestamp::from_secs(2), Timestamp::from_secs(6), 5)
        );
        assert_eq!(
            jump.boundaries().collect::<Vec<_>>(),
            (2..=6).map(Timestamp::from_secs).collect::<Vec<_>>()
        );
        assert_eq!(
            jump.at_or_after(Timestamp::MIN),
            Some(Timestamp::from_secs(2))
        );
        assert_eq!(
            jump.at_or_after(Timestamp::from_millis(3001)),
            Some(Timestamp::from_secs(4))
        );
        assert_eq!(
            jump.at_or_after(Timestamp::from_secs(6)),
            Some(Timestamp::from_secs(6))
        );
        assert_eq!(jump.at_or_after(Timestamp::from_millis(6001)), None);
        // A row that went backwards re-arms the boundary behind it.
        assert_eq!(c.advance(Timestamp::from_millis(5200)), None);
        let again = c.advance(Timestamp::from_millis(6100)).unwrap();
        assert_eq!(
            (again.first, again.last),
            (Timestamp::from_secs(6), Timestamp::from_secs(6))
        );
        assert_eq!(c.high(), Timestamp::from_millis(6500));
    }

    /// `decode_log` accepts any `i64` as `created_at`; where the grid
    /// runs off the `i64` range there is no boundary, and nothing
    /// overflows on the way (`ts.truncate(iv) + iv` used to).
    #[test]
    fn cadence_runs_off_the_ends_of_time_quietly() {
        for iv in [1, 1000, 60_000, i64::MAX] {
            let mut c = Cadence::new(Duration::from_millis(iv));
            assert_eq!(c.advance(Timestamp::MIN), None);
            let all = c.advance(Timestamp::MAX).expect("crosses everything");
            assert!(all.first <= all.last, "{all:?}");
            assert_eq!((all.first.0 % iv, all.last.0 % iv), (0, 0), "on the grid");
            assert_eq!(all.at_or_after(Timestamp::MIN), Some(all.first));
            assert_eq!(all.at_or_after(all.last), Some(all.last));
            assert_eq!(
                all.at_or_after(Timestamp(all.first.0 + 1))
                    .map(|b| b.0 % iv),
                Some(0)
            );
            assert_eq!(all.boundaries().next(), Some(all.first));
            assert_eq!(
                all.count(),
                ((all.last.0 as i128 - all.first.0 as i128) / iv as i128 + 1) as u64
            );
            assert_eq!(c.next(), None, "no boundary above i64::MAX");
            assert_eq!(c.advance(Timestamp::MAX), None);
            assert_eq!(c.advance(Timestamp::MIN), None);
            assert_eq!(c.high(), Timestamp::MAX);
        }
        // Ten virtual years in one step: one value, counted not walked.
        let mut c = Cadence::new(Duration::from_secs(1));
        c.advance(Timestamp::ZERO);
        let ten_years = c.advance(Timestamp::from_secs(315_360_000)).unwrap();
        assert_eq!(ten_years.count(), 315_360_000);
    }

    #[test]
    fn since_saturates() {
        let a = Timestamp::from_secs(10);
        let b = Timestamp::from_secs(4);
        assert_eq!(a.since(b), Duration::from_secs(6));
        assert_eq!(b.since(a), Duration::ZERO);
    }

    #[test]
    fn hms_formats() {
        assert_eq!(Timestamp::from_secs(0).hms(), "00:00:00");
        assert_eq!(Timestamp::from_secs(3661).hms(), "01:01:01");
        assert_eq!(Timestamp::from_millis(-1500).hms(), "-00:00:01");
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(Duration::from_hours(3).to_string(), "3h");
        assert_eq!(Duration::from_mins(5).to_string(), "5min");
        assert_eq!(Duration::from_secs(90).to_string(), "90s");
        assert_eq!(Duration::from_millis(250).to_string(), "250ms");
        assert_eq!(Duration::ZERO.to_string(), "0ms");
    }

    #[test]
    fn arithmetic_ops() {
        let t = Timestamp::from_secs(10) + Duration::from_secs(5);
        assert_eq!(t, Timestamp::from_secs(15));
        assert_eq!(t - Duration::from_secs(15), Timestamp::ZERO);
        assert_eq!(Duration::from_secs(2) * 3, Duration::from_secs(6));
        assert_eq!(Duration::from_secs(6) / 2, Duration::from_secs(3));
    }
}
