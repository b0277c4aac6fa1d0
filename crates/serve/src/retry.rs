//! The retry taxonomy and jittered exponential backoff.
//!
//! Only *transient* faults retry — a contained worker panic or an
//! injected test fault, where a second attempt can genuinely succeed.
//! Resource verdicts (`Cancelled`, `DeadlineExceeded`, `BudgetExceeded`:
//! [`audb_core::ExecError::is_resource_limit`], which the engine asks)
//! are final: retrying one would only re-spend the exhausted resource.
//! Deterministic evaluation errors (type errors, unknown tables, …) are
//! equally final — the same query fails the same way every time.
//!
//! Backoff is full-jitter exponential: attempt `k` sleeps a uniform
//! duration in `[0, min(cap, base·2^k))`, so synchronized clients
//! retrying a shared fault spread out instead of stampeding.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;

/// Bounded-retry knobs for transient faults.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: usize,
    /// Backoff scale for the first retry.
    pub base_backoff: Duration,
    /// Ceiling the exponential curve saturates at.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (1-based).
    pub fn backoff(&self, attempt: usize, rng: &mut StdRng) -> Duration {
        let exp = attempt.saturating_sub(1).min(16) as u32;
        let ceiling = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(exp))
            .min(self.max_backoff)
            .as_nanos() as u64;
        if ceiling == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.gen_range(0..ceiling))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_grows() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
        };
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 1..=10 {
            let ceiling = Duration::from_millis(1)
                .saturating_mul(2u32.saturating_pow(attempt as u32 - 1))
                .min(Duration::from_millis(8));
            for _ in 0..50 {
                assert!(policy.backoff(attempt, &mut rng) < ceiling.max(Duration::from_nanos(1)));
            }
        }
    }

    #[test]
    fn zero_base_means_no_sleep() {
        let policy = RetryPolicy {
            max_retries: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff(1, &mut rng), Duration::ZERO);
    }
}
