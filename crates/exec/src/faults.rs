//! Deterministic fault injection for robustness tests (feature
//! `faults`).
//!
//! A [`FaultPlan`] names checkpoints as **"morsel N of driver D"**:
//! every [`Executor::run`](crate::Executor::run) entry on the
//! installing thread increments the plan's driver sequence number, and
//! every morsel of that entry — regardless of which worker claims it —
//! passes a checkpoint addressed `(D, N)` before its producer runs.
//! Driver entries happen sequentially on the query thread, so the
//! addressing is deterministic for a fixed configuration (workers,
//! partitioner): re-running the same query under the same plan
//! fires the same faults at the same points.
//!
//! Plans are installed **thread-locally** ([`with_plan`]) so parallel
//! test cases cannot contaminate each other; worker threads see the
//! plan through the checkpoint closure, not the thread-local.
//!
//! Four fault kinds:
//!
//! * [`FaultKind::Panic`] — `panic!` inside the producer's
//!   `catch_unwind` boundary, exercising panic containment;
//! * [`FaultKind::Error`] — return [`ExecError::Injected`], exercising
//!   the structured error path;
//! * [`FaultKind::Delay`] — sleep, exercising deadlines and straggler
//!   behavior (alone, it must not change results);
//! * [`FaultKind::Cancel`] — trip the run's [`CancelToken`]
//!   (if one is attached), exercising cooperative cancellation from
//!   *inside* a query.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use audb_core::{CancelToken, ExecError};

/// What an armed checkpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the morsel's `catch_unwind` boundary.
    Panic,
    /// Return [`ExecError::Injected`] from the producer.
    Error,
    /// Sleep before running the producer (results must be unchanged).
    Delay(Duration),
    /// Cancel the run's [`CancelToken`], if one is attached.
    Cancel,
}

/// One armed checkpoint: fire `kind` at morsel `morsel` of driver
/// `driver` (`None` = any driver), at most `remaining` times.
#[derive(Debug)]
pub struct FaultRule {
    driver: Option<usize>,
    morsel: usize,
    kind: FaultKind,
    /// Fires left; `u64::MAX` means unlimited (persistent rule).
    remaining: AtomicU64,
}

impl FaultRule {
    /// Fire once, at morsel `morsel` of exactly driver `driver`.
    pub fn once(driver: usize, morsel: usize, kind: FaultKind) -> Self {
        FaultRule { driver: Some(driver), morsel, kind, remaining: AtomicU64::new(1) }
    }

    /// Fire every time any driver reaches morsel `morsel`.
    pub fn persistent(morsel: usize, kind: FaultKind) -> Self {
        FaultRule { driver: None, morsel, kind, remaining: AtomicU64::new(u64::MAX) }
    }

    /// Claim one firing; `false` when the rule is spent. Unlimited
    /// rules never decrement (always claimable).
    fn try_claim(&self) -> bool {
        let mut left = self.remaining.load(Ordering::Relaxed);
        loop {
            if left == u64::MAX {
                return true;
            }
            if left == 0 {
                return false;
            }
            match self.remaining.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => left = observed,
            }
        }
    }
}

/// A set of armed fault rules plus the driver sequence counter.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    drivers: AtomicUsize,
    fired: AtomicU64,
}

impl FaultPlan {
    pub fn new(rules: Vec<FaultRule>) -> Arc<Self> {
        Arc::new(FaultPlan { rules, drivers: AtomicUsize::new(0), fired: AtomicU64::new(0) })
    }

    /// How many executor entries this plan has observed.
    pub fn drivers_entered(&self) -> usize {
        self.drivers.load(Ordering::Relaxed)
    }

    /// How many faults have fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Called once per [`Executor::run`](crate::Executor::run) entry on
    /// the installing thread: the returned sequence number addresses
    /// this entry's morsels.
    pub(crate) fn enter_driver(&self) -> usize {
        self.drivers.fetch_add(1, Ordering::Relaxed)
    }

    /// The per-morsel checkpoint, run inside the morsel's
    /// `catch_unwind` boundary before its producer.
    pub(crate) fn checkpoint(
        &self,
        driver: usize,
        morsel: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<(), ExecError> {
        for rule in &self.rules {
            let hit = rule.morsel == morsel && rule.driver.is_none_or(|d| d == driver);
            if !hit || !rule.try_claim() {
                continue;
            }
            self.fired.fetch_add(1, Ordering::Relaxed);
            match rule.kind {
                FaultKind::Panic => panic!("injected panic at driver {driver} morsel {morsel}"),
                FaultKind::Error => return Err(ExecError::Injected { driver, morsel }),
                FaultKind::Delay(d) => std::thread::sleep(d),
                FaultKind::Cancel => {
                    if let Some(token) = cancel {
                        token.cancel();
                    }
                }
            }
        }
        Ok(())
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// Install `plan` for the duration of `f` on the current thread.
/// Nested installs shadow and restore; the previous plan is restored
/// even if `f` panics.
pub fn with_plan<R>(plan: Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<FaultPlan>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(plan));
    let _restore = Restore(prev);
    f()
}

/// The pool's hook: the installed plan (if any) with a freshly claimed
/// driver sequence number.
pub(crate) fn driver_context() -> Option<(Arc<FaultPlan>, usize)> {
    let plan = CURRENT.with(|c| c.borrow().clone())?;
    let driver = plan.enter_driver();
    Some((plan, driver))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::pool::Executor;
    use std::ops::Range;

    fn produce(r: Range<usize>, out: &mut Vec<usize>) -> Result<(), String> {
        out.extend(r);
        Ok(())
    }

    fn forced(workers: usize) -> Executor {
        Executor::new(workers).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 3,
            min_rows_per_worker: 0,
        })
    }

    #[test]
    fn injected_error_is_structured_and_scoped() {
        let plan = FaultPlan::new(vec![FaultRule::once(0, 2, FaultKind::Error)]);
        let err = with_plan(plan.clone(), || forced(4).run(100, produce)).unwrap_err();
        assert_eq!(err, String::from(ExecError::Injected { driver: 0, morsel: 2 }));
        assert_eq!(plan.fired(), 1);
        // outside with_plan, the same run succeeds (plan uninstalled)
        assert_eq!(forced(4).run(100, produce).unwrap().len(), 100);
    }

    #[test]
    fn injected_panic_is_contained() {
        let plan = FaultPlan::new(vec![FaultRule::once(0, 1, FaultKind::Panic)]);
        let exec = forced(2);
        let err = with_plan(plan, || exec.run(100, produce)).unwrap_err();
        assert!(err.contains("worker panicked"), "got: {err}");
        assert!(err.contains("injected panic at driver 0 morsel 1"), "got: {err}");
        // pool reusable
        assert_eq!(exec.run(100, produce).unwrap().len(), 100);
    }

    #[test]
    fn miss_addressed_fault_never_fires() {
        let plan = FaultPlan::new(vec![FaultRule::once(99, 0, FaultKind::Panic)]);
        let out = with_plan(plan.clone(), || forced(4).run(100, produce)).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(plan.fired(), 0);
        assert!(plan.drivers_entered() >= 1);
    }

    #[test]
    fn cancel_fault_trips_the_attached_token() {
        let plan = FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Cancel)]);
        let exec = forced(1).with_cancel(CancelToken::new());
        // morsel 0's checkpoint cancels; morsel 1's boundary check trips
        let err = with_plan(plan, || exec.run(100, produce)).unwrap_err();
        assert_eq!(err, String::from(ExecError::Cancelled));
    }

    #[test]
    fn once_rules_are_spent_after_one_fire() {
        let rule = FaultRule::once(0, 0, FaultKind::Error);
        assert!(rule.try_claim());
        assert!(!rule.try_claim());
        let persistent = FaultRule::persistent(0, FaultKind::Error);
        assert!(persistent.try_claim());
        assert!(persistent.try_claim());
    }
}
