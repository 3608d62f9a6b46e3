//! One simulated remote web service: what a request to a geocoder or an
//! entity extractor costs, and how a caller survives it failing.
//!
//! A request samples a latency and charges it to the shared virtual
//! clock (the caller "waits" in model time, never on the wall), gives
//! up at the timeout, and may transiently fail. A batch request costs
//! one round trip plus a small marginal latency per item. Around that
//! model sit the per-service circuit breaker and bounded retries, and
//! [`ServiceHealth`] counts all of it. What the service computes —
//! a gazetteer lookup, dictionary entity extraction — is the caller's:
//! it is deterministic and costs nothing the model does not charge.

use crate::breaker::{BreakerConfig, CircuitBreaker, ServiceHealth};
use crate::latency::{LatencyModel, LatencySampler};
use std::sync::Arc;
use tweeql_model::{Duration, VirtualClock};

/// Why a remote request failed (as opposed to resolving to nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteError {
    /// The request exceeded the configured timeout; the caller was
    /// charged the timeout duration, not the (longer) modeled latency.
    Timeout,
    /// The service transiently failed the request.
    Unavailable,
}

/// A latency-modeled web service behind a circuit breaker.
pub struct RemoteService {
    sampler: LatencySampler,
    clock: Arc<VirtualClock>,
    /// Probability a request transiently fails.
    failure_rate: f64,
    /// Marginal per-item latency inside a batch request.
    per_item: Duration,
    /// Max items per batch request.
    max_batch: usize,
    /// Abort a request whose sampled latency exceeds this; the caller
    /// is charged the timeout instead of the full latency.
    timeout: Option<Duration>,
    /// Retries after a failed or timed-out attempt.
    retries: u32,
    breaker: CircuitBreaker,
    health: ServiceHealth,
    service_time: Duration,
    fail_seq: u64,
}

impl RemoteService {
    /// A service with `model` latency drawn from `seed`, charging
    /// `clock`, behind a breaker configured by `breaker` and retrying a
    /// failed attempt up to `retries` times. It never times out or
    /// fails, and batches up to 25 items at 5 ms each, until told
    /// otherwise.
    pub fn new(
        model: LatencyModel,
        seed: u64,
        clock: Arc<VirtualClock>,
        breaker: BreakerConfig,
        retries: u32,
    ) -> RemoteService {
        RemoteService {
            sampler: LatencySampler::new(model, seed),
            breaker: CircuitBreaker::new(breaker, Arc::clone(&clock)),
            clock,
            failure_rate: 0.0,
            per_item: Duration::from_millis(5),
            max_batch: 25,
            timeout: None,
            retries,
            health: ServiceHealth::default(),
            service_time: Duration::ZERO,
            fail_seq: seed.wrapping_mul(0x9E3779B97F4A7C15),
        }
    }

    /// Abort requests whose modeled latency exceeds `timeout`.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Set transient failure probability.
    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        self.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Set batch parameters.
    pub fn with_batching(mut self, max_batch: usize, per_item: Duration) -> Self {
        self.max_batch = max_batch.max(1);
        self.per_item = per_item;
        self
    }

    /// Batch size limit of the simulated API: callers chunk by it.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Total modeled latency charged so far.
    pub fn modeled_service_time(&self) -> Duration {
        self.service_time
    }

    /// The health counters, with the breaker's current state.
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth {
            state: self.breaker.state(),
            breaker_opens: self.breaker.opens(),
            ..self.health
        }
    }

    /// Count `rows` output rows the caller degraded to NULL because a
    /// request for them was not answered.
    pub fn degrade(&mut self, rows: usize) {
        self.health.degraded_rows += rows as u64;
    }

    /// One chunk of `items` through the breaker: short-circuited while
    /// it is open, otherwise attempted and, on failure, retried up to
    /// `retries` times while the breaker allows. True when an attempt
    /// was answered; on false the caller degrades the chunk.
    pub fn request(&mut self, items: usize) -> bool {
        if !self.breaker.allow() {
            self.health.short_circuits += 1;
            return false;
        }
        let mut attempt = 0;
        while self.attempt(items).is_err() {
            self.breaker.on_failure();
            if attempt == self.retries || !self.breaker.allow() {
                return false;
            }
            attempt += 1;
            self.health.retries += 1;
        }
        self.breaker.on_success();
        true
    }

    /// One attempt at a request for `items` items, bypassing the
    /// breaker: sample the latency, give up at the timeout, charge the
    /// clock what was waited, then roll a transient failure.
    pub fn attempt(&mut self, items: usize) -> Result<(), RemoteError> {
        self.health.requests += 1;
        let latency = self.sampler.sample() + self.per_item * (items as i64 - 1).max(0);
        let waited = match self.timeout {
            Some(timeout) if latency > timeout => timeout,
            _ => latency,
        };
        self.clock.advance(waited);
        self.service_time = self.service_time + waited;
        if waited < latency {
            self.health.timeouts += 1;
            self.health.failures += 1;
            return Err(RemoteError::Timeout);
        }
        if self.roll_failure() {
            self.health.failures += 1;
            return Err(RemoteError::Unavailable);
        }
        Ok(())
    }

    /// Does this attempt fail? Draws only when failures are possible.
    fn roll_failure(&mut self) -> bool {
        if self.failure_rate <= 0.0 {
            return false;
        }
        // Deterministic splitmix over a sequence counter.
        self.fail_seq = self.fail_seq.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.fail_seq;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.failure_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweeql_model::Clock;

    fn remote(clock: &Arc<VirtualClock>, latency_ms: i64, seed: u64) -> RemoteService {
        RemoteService::new(
            LatencyModel::Constant(Duration::from_millis(latency_ms)),
            seed,
            Arc::clone(clock),
            BreakerConfig::default(),
            0,
        )
    }

    #[test]
    fn remote_charges_virtual_time_not_wall_time() {
        let clock = VirtualClock::new();
        let mut g = remote(&clock, 200, 1);
        let wall = std::time::Instant::now();
        for _ in 0..10 {
            assert_eq!(g.attempt(1), Ok(()));
        }
        assert!(wall.elapsed().as_millis() < 500, "must not sleep");
        assert_eq!(clock.now().millis(), 2000);
        assert_eq!(g.modeled_service_time(), Duration::from_secs(2));
        assert_eq!(g.health().requests, 10);
    }

    #[test]
    fn batch_charges_one_round_trip() {
        let clock = VirtualClock::new();
        let mut g = remote(&clock, 200, 1).with_batching(25, Duration::from_millis(5));
        assert_eq!(g.attempt(4), Ok(()));
        assert_eq!(g.health().requests, 1);
        // 200 + 3×5 = 215ms, vs 800ms unbatched.
        assert_eq!(clock.now().millis(), 215);
    }

    #[test]
    fn failures_are_transient_and_counted() {
        let clock = VirtualClock::new();
        let mut g = remote(&clock, 1, 7).with_failure_rate(0.5);
        let fails = (0..200).filter(|_| g.attempt(1).is_err()).count() as u64;
        assert_eq!(g.health().failures, fails);
        assert!((60..=140).contains(&fails), "fails = {fails}");
    }

    #[test]
    fn attempt_times_out_and_charges_only_the_timeout() {
        let clock = VirtualClock::new();
        let mut g = remote(&clock, 500, 1).with_timeout(Some(Duration::from_millis(300)));
        assert_eq!(g.attempt(1), Err(RemoteError::Timeout));
        assert_eq!(clock.now().millis(), 300);
        let h = g.health();
        assert_eq!((h.timeouts, h.failures, h.requests), (1, 1, 1));
    }

    #[test]
    fn attempt_succeeds_under_timeout() {
        let clock = VirtualClock::new();
        let mut g = remote(&clock, 100, 1)
            .with_timeout(Some(Duration::from_millis(300)))
            .with_batching(25, Duration::from_millis(5));
        assert_eq!(g.attempt(3), Ok(()));
        // 100 + 2×5 per-item.
        assert_eq!(clock.now().millis(), 110);
        assert_eq!(g.health().timeouts, 0);
    }

    #[test]
    fn attempt_reports_transient_failure() {
        let clock = VirtualClock::new();
        let mut g = remote(&clock, 1, 7).with_failure_rate(1.0);
        assert_eq!(g.attempt(1), Err(RemoteError::Unavailable));
        let h = g.health();
        assert_eq!((h.failures, h.timeouts), (1, 0));
    }
}
