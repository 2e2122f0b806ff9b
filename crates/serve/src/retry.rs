//! Bounded retry with decorrelated-jitter backoff.
//!
//! The delay sequence follows the classic decorrelated-jitter recipe
//! (`sleep = min(cap, uniform(base, prev_sleep * 3))`) but is driven by
//! a seeded PRNG keyed on `(policy seed, job seq)` — no wall-clock
//! randomness — so a retried batch backs off identically on every run
//! and the chaos suite's determinism property holds.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Retry budget and backoff shape for one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job for transient
    /// ([`crate::error::ServeError::Retryable`]) failures, including the
    /// first (minimum 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff delay.
    pub backoff_base: Duration,
    /// Upper bound of every backoff delay.
    pub backoff_cap: Duration,
    /// Seed of the jitter PRNG.
    pub backoff_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            backoff_seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// A policy with no backoff delay — for tests where wall time
    /// matters and jitter does not.
    pub fn immediate(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            ..Self::default()
        }
    }

    /// The delay to sleep before re-running job `seq` after failed
    /// attempt `attempt` (0-based). Deterministic in `(policy, seq,
    /// attempt)`; the jitter chain is replayed from attempt 0 so the
    /// value does not depend on who computes it.
    pub fn backoff_delay(&self, seq: u64, attempt: u32) -> Duration {
        let base = self.backoff_base.as_micros() as u64;
        let cap = self.backoff_cap.as_micros() as u64;
        if cap == 0 || base > cap {
            return Duration::ZERO;
        }
        let mut rng = StdRng::seed_from_u64(
            self.backoff_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
        );
        // Decorrelated jitter: each step draws uniformly from
        // [base, prev * 3], clamped to the cap.
        let mut sleep = base.max(1);
        for _ in 0..=attempt {
            let hi = sleep.saturating_mul(3).clamp(base.max(1), cap.max(1));
            sleep = if hi > base {
                base + rng.gen_range(0..=(hi - base))
            } else {
                base
            };
        }
        Duration::from_micros(sleep.min(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for seq in 0..20u64 {
            for attempt in 0..4u32 {
                let a = p.backoff_delay(seq, attempt);
                let b = p.backoff_delay(seq, attempt);
                assert_eq!(a, b, "jitter must be reproducible");
                assert!(a >= p.backoff_base, "delay below base: {a:?}");
                assert!(a <= p.backoff_cap, "delay above cap: {a:?}");
            }
        }
    }

    #[test]
    fn delays_vary_across_jobs() {
        let p = RetryPolicy::default();
        let delays: Vec<Duration> = (0..32).map(|seq| p.backoff_delay(seq, 1)).collect();
        let first = delays[0];
        assert!(
            delays.iter().any(|d| *d != first),
            "jitter should decorrelate different jobs"
        );
    }

    #[test]
    fn zero_cap_means_no_sleep() {
        let p = RetryPolicy::immediate(3);
        assert_eq!(p.backoff_delay(9, 2), Duration::ZERO);
    }
}
