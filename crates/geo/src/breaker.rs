//! Per-service circuit breaker and health counters.
//!
//! High-latency web-service UDFs (geocoding, entity extraction) can fail
//! or time out. Retrying a dead service on every tuple wastes the stream
//! budget and inflates the virtual clock; the classic remedy is a
//! circuit breaker: after `failure_threshold` consecutive failures the
//! breaker *opens* and calls short-circuit to a degraded result
//! (cached-or-NULL) without touching the service. After a cooldown on
//! the [`VirtualClock`] the breaker lets a few *half-open* trial
//! requests through; if they succeed it closes, otherwise it re-opens.
//!
//! Everything here is deterministic: state transitions are driven by the
//! virtual clock, never wall time.

use std::sync::Arc;
use tweeql_model::{Clock, Duration, Timestamp, VirtualClock};

/// Breaker state machine: `Closed → Open → HalfOpen → {Closed, Open}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation; requests flow to the service.
    #[default]
    Closed,
    /// Too many consecutive failures; requests short-circuit.
    Open,
    /// Cooldown elapsed; a bounded number of trial requests probe the
    /// service.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Tunable breaker parameters.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures before the breaker trips open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing (virtual time).
    pub cooldown: Duration,
    /// Successful half-open trials required to close again.
    pub half_open_trials: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(30),
            half_open_trials: 2,
        }
    }
}

/// A single service's circuit breaker, driven by the virtual clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    clock: Arc<VirtualClock>,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Timestamp,
    trial_successes: u32,
    opens: u64,
}

impl CircuitBreaker {
    /// New breaker in the `Closed` state.
    pub fn new(config: BreakerConfig, clock: Arc<VirtualClock>) -> CircuitBreaker {
        CircuitBreaker {
            config,
            clock,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: Timestamp::ZERO,
            trial_successes: 0,
            opens: 0,
        }
    }

    /// Current state (after accounting for cooldown expiry on `allow`).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// May a request be issued right now? Transitions `Open → HalfOpen`
    /// once the cooldown has elapsed on the virtual clock.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if self.clock.now() >= self.opened_at + self.config.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.trial_successes = 0;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => true,
        }
    }

    /// Record a successful request.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.trial_successes += 1;
                if self.trial_successes >= self.config.half_open_trials {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Record a failed (or timed-out) request.
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip();
                }
            }
            // A half-open trial failing re-opens immediately.
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.opened_at = self.clock.now();
        self.consecutive_failures = 0;
        self.trial_successes = 0;
        self.opens += 1;
    }
}

/// Health counters for one remote service, surfaced through `OpStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceHealth {
    /// Requests attempted against the service (including retries).
    pub requests: u64,
    /// Requests that failed outright.
    pub failures: u64,
    /// Requests that exceeded the configured timeout.
    pub timeouts: u64,
    /// Retries issued after a failure/timeout.
    pub retries: u64,
    /// Calls short-circuited by an open breaker (no request issued).
    pub short_circuits: u64,
    /// Output rows degraded to NULL because the service was unavailable.
    pub degraded_rows: u64,
    /// Times the breaker tripped open.
    pub breaker_opens: u64,
    /// Breaker state at the time the snapshot was taken.
    pub state: BreakerState,
}

impl ServiceHealth {
    /// Counters accumulated since `base` was snapshotted, keeping this
    /// snapshot's (more recent) breaker state. Lets a per-query view be
    /// carved out of a service that is shared across queries.
    pub fn delta_since(&self, base: &ServiceHealth) -> ServiceHealth {
        ServiceHealth {
            requests: self.requests.saturating_sub(base.requests),
            failures: self.failures.saturating_sub(base.failures),
            timeouts: self.timeouts.saturating_sub(base.timeouts),
            retries: self.retries.saturating_sub(base.retries),
            short_circuits: self.short_circuits.saturating_sub(base.short_circuits),
            degraded_rows: self.degraded_rows.saturating_sub(base.degraded_rows),
            breaker_opens: self.breaker_opens.saturating_sub(base.breaker_opens),
            state: self.state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(clock: &Arc<VirtualClock>) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(10),
                half_open_trials: 2,
            },
            Arc::clone(clock),
        )
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let clock = VirtualClock::new();
        let mut b = breaker(&clock);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let clock = VirtualClock::new();
        let mut b = breaker(&clock);
        b.on_failure();
        b.on_failure();
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_moves_open_to_half_open_then_closed() {
        let clock = VirtualClock::new();
        let mut b = breaker(&clock);
        for _ in 0..3 {
            b.on_failure();
        }
        assert!(!b.allow());
        clock.advance(Duration::from_secs(10));
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn half_open_failure_reopens() {
        let clock = VirtualClock::new();
        let mut b = breaker(&clock);
        for _ in 0..3 {
            b.on_failure();
        }
        clock.advance(Duration::from_secs(10));
        assert!(b.allow());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert!(!b.allow());
        // Re-opened breaker needs a fresh cooldown.
        clock.advance(Duration::from_secs(10));
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn health_delta_subtracts_baseline_and_keeps_current_state() {
        let base = ServiceHealth {
            requests: 10,
            failures: 2,
            timeouts: 1,
            retries: 1,
            short_circuits: 0,
            degraded_rows: 3,
            breaker_opens: 1,
            state: BreakerState::Open,
        };
        let now = ServiceHealth {
            requests: 14,
            failures: 2,
            timeouts: 2,
            retries: 1,
            short_circuits: 6,
            degraded_rows: 9,
            breaker_opens: 2,
            state: BreakerState::HalfOpen,
        };
        let d = now.delta_since(&base);
        assert_eq!(d.requests, 4);
        assert_eq!(d.failures, 0);
        assert_eq!(d.timeouts, 1);
        assert_eq!(d.short_circuits, 6);
        assert_eq!(d.degraded_rows, 6);
        assert_eq!(d.breaker_opens, 1);
        assert_eq!(d.state, BreakerState::HalfOpen);
    }
}
