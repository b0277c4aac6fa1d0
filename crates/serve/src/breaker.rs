//! Per-prepared-plan circuit breaker over the compiled execution path.
//!
//! The compiled lane pipelines and the operator-at-a-time `Expr`-tree
//! oracle (`AuPlan::oracle`) compute identical results, so a plan
//! whose compiled path keeps faulting can be served from the oracle
//! instead of retrying its way through the same fault on every call.
//! The breaker is the classic three-state machine, scoped to one
//! prepared plan:
//!
//! * **Closed** — compiled execution allowed; consecutive transient
//!   faults on the compiled path are counted, a success resets the
//!   count, and the K-th fault trips the breaker;
//! * **Open** — every call runs on the oracle until the cooldown passes;
//! * **Half-open** — after the cooldown, exactly one call probes the
//!   compiled path again: success closes the breaker, a fault re-opens
//!   it for another cooldown. Calls arriving during the probe stay on
//!   the oracle, and a probe that ends without a verdict (a resource
//!   limit tripped mid-flight) re-arms the probe instead of wedging
//!   the breaker.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Trip threshold and cooldown of one [`Breaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive compiled-path faults that trip the breaker.
    pub trip_after: usize,
    /// How long a tripped breaker routes to the oracle before
    /// half-opening.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy { trip_after: 3, cooldown: Duration::from_millis(100) }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { consecutive_faults: usize },
    Open { until: Instant },
    HalfOpen,
}

/// The breaker itself; see the module docs for the state machine.
#[derive(Debug)]
pub struct Breaker {
    policy: BreakerPolicy,
    state: Mutex<State>,
}

impl Breaker {
    pub fn new(policy: BreakerPolicy) -> Self {
        Breaker { policy, state: Mutex::new(State::Closed { consecutive_faults: 0 }) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// May this call take the compiled path? Transitions an expired
    /// cooldown to half-open, granting the probe to exactly one caller.
    pub fn allow_compiled(&self) -> bool {
        let mut state = self.lock();
        match *state {
            State::Closed { .. } => true,
            State::Open { until } if Instant::now() >= until => {
                *state = State::HalfOpen;
                true
            }
            State::Open { .. } | State::HalfOpen => false,
        }
    }

    /// A compiled attempt completed: the half-open probe (or a closed-
    /// state call) succeeded.
    pub fn record_success(&self) {
        *self.lock() = State::Closed { consecutive_faults: 0 };
    }

    /// A compiled attempt hit a transient fault. Returns `true` when
    /// this fault tripped the breaker open (the caller records the
    /// trip event exactly once).
    pub fn record_fault(&self) -> bool {
        let mut state = self.lock();
        match *state {
            State::Closed { consecutive_faults } => {
                let faults = consecutive_faults + 1;
                if faults >= self.policy.trip_after.max(1) {
                    *state = State::Open { until: Instant::now() + self.policy.cooldown };
                    true
                } else {
                    *state = State::Closed { consecutive_faults: faults };
                    false
                }
            }
            State::HalfOpen => {
                *state = State::Open { until: Instant::now() + self.policy.cooldown };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// A compiled attempt ended without a compiled-path verdict (a
    /// resource limit tripped mid-flight): a half-open probe re-arms
    /// so the next call probes again.
    pub fn record_inconclusive(&self) {
        let mut state = self.lock();
        if matches!(*state, State::HalfOpen) {
            *state = State::Open { until: Instant::now() };
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn fast() -> Breaker {
        Breaker::new(BreakerPolicy { trip_after: 2, cooldown: Duration::from_millis(10) })
    }

    #[test]
    fn trips_after_consecutive_faults_and_success_resets() {
        let b = fast();
        assert!(!b.record_fault());
        b.record_success();
        assert!(!b.record_fault(), "success reset the consecutive count");
        assert!(b.record_fault(), "second consecutive fault trips");
        assert!(!b.allow_compiled(), "open breaker routes to the oracle");
    }

    #[test]
    fn cooldown_half_opens_for_one_probe() {
        let b = fast();
        b.record_fault();
        b.record_fault();
        std::thread::sleep(Duration::from_millis(12));
        assert!(b.allow_compiled(), "expired cooldown grants the probe");
        assert!(!b.allow_compiled(), "second caller stays on the oracle during the probe");
        b.record_success();
        assert!(b.allow_compiled() && b.allow_compiled(), "closed: every call compiles");
    }

    #[test]
    fn failed_probe_reopens() {
        let b = fast();
        b.record_fault();
        b.record_fault();
        std::thread::sleep(Duration::from_millis(12));
        assert!(b.allow_compiled());
        assert!(b.record_fault(), "failed probe re-trips");
        assert!(!b.allow_compiled(), "cooldown restarted");
    }

    #[test]
    fn inconclusive_probe_rearms() {
        let b = fast();
        b.record_fault();
        b.record_fault();
        std::thread::sleep(Duration::from_millis(12));
        assert!(b.allow_compiled());
        b.record_inconclusive();
        assert!(b.allow_compiled(), "next call probes again immediately");
    }
}
