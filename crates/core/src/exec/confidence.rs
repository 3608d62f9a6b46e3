//! CONTROL-style confidence tracking for aggregate groups
//! (§2 "Uneven Aggregate Groups").
//!
//! A fixed time window over-samples Tokyo and under-samples Cape Town;
//! TweeQL instead "uses a construct for windowing that measures
//! confidence in the aggregated result ... Once a bucket falls within a
//! certain confidence interval for an aggregate, its record is emitted
//! by the grouping operator." [`ConfidenceTracker`] maintains a running
//! mean/variance (Welford) and reports when the CI half-width reaches
//! the target.

use tweeql_model::{Duration, Timestamp};

/// z for a 95% normal confidence interval.
pub const Z_95: f64 = 1.959964;

/// Streaming mean/variance with CI-based emission decision.
#[derive(Debug, Clone)]
pub struct ConfidenceTracker {
    n: u64,
    mean: f64,
    m2: f64,
    /// First sample's stream time (age basis).
    first_ts: Option<Timestamp>,
    /// Last sample's stream time.
    last_ts: Option<Timestamp>,
}

impl ConfidenceTracker {
    /// Empty tracker.
    pub fn new() -> ConfidenceTracker {
        ConfidenceTracker {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            first_ts: None,
            last_ts: None,
        }
    }

    /// Ingest one observation at stream time `ts`.
    pub fn observe(&mut self, x: f64, ts: Timestamp) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if self.first_ts.is_none() {
            self.first_ts = Some(ts);
        }
        self.last_ts = Some(ts);
    }

    /// Running mean (0 when empty).
    #[cfg(test)]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (None below 2 observations).
    pub fn variance(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some(self.m2 / (self.n - 1) as f64)
        }
    }

    /// Half-width of the 95% CI on the mean (None below 2 observations).
    pub fn ci_half_width(&self) -> Option<f64> {
        self.variance().map(|v| Z_95 * (v / self.n as f64).sqrt())
    }

    /// Stream time of the first observation (the age basis); `None`
    /// while empty.
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.first_ts
    }

    /// Age of the bucket at `now` (zero when empty).
    pub fn age(&self, now: Timestamp) -> Duration {
        match self.first_ts {
            Some(t0) => now.since(t0),
            None => Duration::ZERO,
        }
    }

    /// Should the bucket be emitted?
    ///
    /// * `epsilon` — target CI half-width; met ⇒ emit (needs ≥ 2 obs);
    /// * `max_age` — deadline: any non-empty bucket older than this at
    ///   `now` is emitted regardless of confidence, so low-volume groups
    ///   (Cape Town) aren't starved forever.
    pub fn should_emit(&self, epsilon: f64, max_age: Option<Duration>, now: Timestamp) -> bool {
        if self.n == 0 {
            return false;
        }
        if let Some(hw) = self.ci_half_width() {
            if hw <= epsilon {
                return true;
            }
        }
        if let Some(max) = max_age {
            if self.age(now) >= max {
                return true;
            }
        }
        false
    }
}

impl Default for ConfidenceTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut t = ConfidenceTracker::new();
        for (i, &x) in xs.iter().enumerate() {
            t.observe(x, ts(i as i64));
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((t.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut t = ConfidenceTracker::new();
        let mut last_hw = f64::INFINITY;
        // Alternating ±1 keeps variance fixed; CI must shrink as 1/√n.
        for i in 0..1000 {
            t.observe(if i % 2 == 0 { 1.0 } else { -1.0 }, ts(i));
            if i % 100 == 99 {
                let hw = t.ci_half_width().unwrap();
                assert!(hw < last_hw, "hw {hw} ≥ {last_hw} at n={}", i + 1);
                last_hw = hw;
            }
        }
        // σ = 1.0005…, n = 1000: hw ≈ 1.96/√1000 ≈ 0.062.
        assert!((last_hw - 0.062).abs() < 0.01, "hw = {last_hw}");
    }

    #[test]
    fn emission_on_confidence() {
        let mut t = ConfidenceTracker::new();
        t.observe(1.0, ts(0));
        assert!(!t.should_emit(10.0, None, ts(1)), "one sample has no CI");
        t.observe(1.0, ts(1));
        // Zero variance: CI width 0 ≤ any epsilon.
        assert!(t.should_emit(0.001, None, ts(2)));
    }

    #[test]
    fn emission_on_deadline() {
        let mut t = ConfidenceTracker::new();
        t.observe(0.0, ts(0));
        t.observe(100.0, ts(1)); // huge variance: never confident
        assert!(!t.should_emit(0.1, Some(Duration::from_secs(60)), ts(30)));
        assert!(t.should_emit(0.1, Some(Duration::from_secs(60)), ts(60)));
    }

    #[test]
    fn empty_bucket_never_emits() {
        let t = ConfidenceTracker::new();
        assert!(!t.should_emit(100.0, Some(Duration::ZERO), ts(1000)));
        assert_eq!(t.age(ts(5)), Duration::ZERO);
    }
}
