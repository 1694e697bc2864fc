//! Deterministic retry/backoff policies.
//!
//! A [`RetryPolicy`] describes how a request path reacts to a timeout:
//! how many attempts it may spend, the bounds of the decorrelated-jitter
//! backoff between them, and whether a hedged second request is raced
//! against a slow first one. A [`Retrier`] is the per-operation cursor
//! through that policy.
//!
//! Retry lives where an experiment retries (DESIGN.md §12): E15's `comm`
//! clients and E16p's admission-control backoff. DHT lookups, storage
//! puts/gets and swarm visits have no policy; they fail on a timeout or
//! re-request every tick.
//!
//! Determinism contract: every delay is drawn from the [`SimRng`] the
//! caller passes in, and [`RetryPolicy::none`] (the default `comm`
//! client) makes **zero** RNG draws and never changes observable
//! behaviour.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Counter key: attempts beyond the first (i.e. actual retries) issued.
pub const CTR_RETRY_ATTEMPTS: &str = "retry.attempts";
/// Counter key: operations that exhausted their attempt budget.
pub const CTR_RETRY_GAVE_UP: &str = "retry.gave_up";
/// Counter key: hedged duplicate requests issued.
pub const CTR_HEDGE_SENT: &str = "hedge.sent";
/// Counter key: operations completed by the hedged request, not the primary.
pub const CTR_HEDGE_WON: &str = "hedge.won";

/// A deterministic retry/backoff policy. Backoff is AWS-style
/// decorrelated jitter: each delay is uniform in
/// `[base, min(cap, 3 · previous)]`, the first `previous` being `base`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First backoff delay and the floor of every later one.
    pub base: SimDuration,
    /// Upper bound on any single backoff delay.
    pub cap: SimDuration,
    /// Total attempts allowed, including the first (1 = never retry).
    pub max_attempts: u32,
    /// If set, a read may issue one hedged duplicate request after this
    /// delay if the primary has not answered yet.
    pub hedge_after: Option<SimDuration>,
}

impl RetryPolicy {
    /// The dormant policy: one attempt, no hedging, no RNG draws.
    /// Behaviourally identical to the pre-hardening protocols.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::ZERO,
            cap: SimDuration::ZERO,
            max_attempts: 1,
            hedge_after: None,
        }
    }

    /// A sensible hardened default: 4 attempts, delays between 500ms and a
    /// 10s cap, no hedging.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            base: SimDuration::from_millis(500),
            cap: SimDuration::from_secs(10),
            max_attempts: 4,
            hedge_after: None,
        }
    }

    /// Whether this policy ever retries or hedges.
    pub fn is_active(&self) -> bool {
        self.max_attempts > 1 || self.hedge_after.is_some()
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Per-operation cursor through a [`RetryPolicy`].
#[derive(Clone, Debug)]
pub struct Retrier {
    policy: RetryPolicy,
    attempt: u32,
    prev_secs: f64,
}

impl Retrier {
    /// Start an operation under `policy`; the first attempt is implicit.
    pub fn new(policy: RetryPolicy) -> Retrier {
        Retrier {
            policy,
            attempt: 0,
            prev_secs: policy.base.secs_f64(),
        }
    }

    /// Retries consumed so far (not counting the initial attempt).
    pub fn attempts_used(&self) -> u32 {
        self.attempt
    }

    /// Ask for the next backoff delay. Returns `None` when the attempt
    /// budget is exhausted (the caller should give up and count
    /// [`CTR_RETRY_GAVE_UP`]). The budget check happens **before** any
    /// RNG draw, so a dormant policy never perturbs the caller's RNG
    /// stream.
    pub fn next_backoff(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        if self.attempt + 1 >= self.policy.max_attempts {
            return None;
        }
        self.attempt += 1;
        let base = self.policy.base.secs_f64();
        let cap = self.policy.cap.secs_f64();
        let hi = (self.prev_secs * 3.0).clamp(base, cap.max(base));
        let lo = base.min(hi);
        let drawn = lo + rng.f64() * (hi - lo);
        self.prev_secs = drawn;
        Some(SimDuration::from_secs_f64(drawn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_policy_never_retries_and_never_draws() {
        let mut rng = SimRng::new(7);
        let before = rng.next_u64();
        let mut rng = SimRng::new(7);
        let _ = rng.next_u64();
        let mut r = Retrier::new(RetryPolicy::none());
        assert_eq!(r.next_backoff(&mut rng), None);
        assert_eq!(r.next_backoff(&mut rng), None);
        // RNG untouched by the exhausted retrier.
        let mut fresh = SimRng::new(7);
        assert_eq!(before, fresh.next_u64());
        assert!(!RetryPolicy::none().is_active());
    }

    #[test]
    fn budget_is_respected() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::standard()
        };
        let mut rng = SimRng::new(1);
        let mut r = Retrier::new(p);
        assert!(r.next_backoff(&mut rng).is_some());
        assert!(r.next_backoff(&mut rng).is_some());
        assert_eq!(r.next_backoff(&mut rng), None);
        assert_eq!(r.attempts_used(), 2);
    }

    #[test]
    fn decorrelated_jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::standard();
        let seq = |seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut r = Retrier::new(p);
            let mut out = Vec::new();
            while let Some(d) = r.next_backoff(&mut rng) {
                assert!(d >= p.base && d <= p.cap);
                out.push(d.micros());
            }
            out
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }
}
