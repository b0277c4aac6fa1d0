//! Execution governance: structured runtime faults, cooperative
//! cancellation, and resource budgets.
//!
//! The execution runtime (`audb_exec`) guarantees that any query either
//! completes, returns a structured error, or is cancelled — never
//! wedging the worker pool. The three primitives that carry that
//! contract live here (in `audb_core`, below the runtime) so the
//! query layer's error type can embed them without a dependency cycle:
//!
//! * [`ExecError`] — the structured runtime fault: a contained worker
//!   panic, a cancellation/deadline, or an exhausted resource budget;
//! * [`CancelToken`] — a shared run/cancelled/deadline flag checked
//!   cooperatively at morsel boundaries and inside batch row loops;
//! * [`Budget`] / [`BudgetSpec`] — a per-query cap on materialized rows
//!   and estimated bytes, charged by the operators that can expand an
//!   intermediate (join probes, pipeline breakers, reduce scatter).

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Structured runtime faults
// ---------------------------------------------------------------------------

/// A structured execution-runtime fault. Every variant is a *contained*
/// failure: the pool's sibling workers drain cleanly, no mutex is
/// poisoned, and the same [`Executor`](../audb_exec) runs the next
/// query untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker panicked while producing `morsel`; the panic was caught
    /// at the morsel boundary and its payload captured.
    WorkerPanic {
        /// Index of the morsel whose producer panicked.
        morsel: usize,
        /// The panic payload, stringified (`&str`/`String` payloads are
        /// carried verbatim).
        payload: String,
    },
    /// The query's [`CancelToken`] was cancelled.
    Cancelled,
    /// The query's wall-clock deadline passed (`AuConfig::timeout`).
    DeadlineExceeded,
    /// A resource budget was exhausted.
    BudgetExceeded {
        /// The charging site that tripped (e.g. `"join-probe"`,
        /// `"pipeline-chain"`, `"sharded-reduce"`, `"compress"`).
        operator: &'static str,
        /// Which meter tripped: `"rows"` or `"bytes"`.
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The total that the failed charge would have reached.
        attempted: u64,
    },
    /// A fault injected by the deterministic test harness
    /// (`audb_exec::faults`, feature `faults`).
    Injected {
        /// Sequence number of the executor entry the fault fired in.
        driver: usize,
        /// Morsel index the fault fired at.
        morsel: usize,
    },
}

impl ExecError {
    /// Is this a resource-governance verdict (cancellation, deadline,
    /// budget) rather than a producer failure? Governance verdicts are
    /// final: retrying (e.g. the compiled → interpreted degradation
    /// path) would only re-spend the exhausted resource.
    pub fn is_resource_limit(&self) -> bool {
        matches!(
            self,
            ExecError::Cancelled | ExecError::DeadlineExceeded | ExecError::BudgetExceeded { .. }
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic { morsel, payload } => {
                write!(f, "worker panicked in morsel {morsel}: {payload}")
            }
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ExecError::BudgetExceeded { operator, resource, limit, attempted } => {
                write!(
                    f,
                    "resource budget exceeded in {operator}: {attempted} {resource} > limit {limit}"
                )
            }
            ExecError::Injected { driver, morsel } => {
                write!(f, "injected fault at driver {driver} morsel {morsel}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Lets infallible-looking `String`-error producers (the runtime's own
/// unit tests) absorb runtime faults.
impl From<ExecError> for String {
    fn from(e: ExecError) -> String {
        e.to_string()
    }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

const STATE_RUN: u8 = 0;
const STATE_CANCELLED: u8 = 1;
const STATE_DEADLINE: u8 = 2;

#[derive(Debug)]
struct CancelInner {
    /// run / cancelled / deadline-exceeded. Monotonic: once non-zero it
    /// never returns to run, so a relaxed load suffices at check sites.
    state: AtomicU8,
    /// Wall-clock deadline; checked lazily at [`CancelToken::check`]
    /// sites and latched into `state` so later checks are one load.
    deadline: Option<Instant>,
}

/// A shared cancellation flag, checked cooperatively at morsel
/// boundaries and batch row loops. Cloning shares the flag.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; trips only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner { state: AtomicU8::new(STATE_RUN), deadline: None }),
        }
    }

    /// A token that additionally trips once `timeout` has elapsed.
    pub fn with_deadline_in(timeout: Duration) -> Self {
        // an unreachable deadline (overflowing Instant) means "no deadline"
        let deadline = Instant::now().checked_add(timeout);
        CancelToken { inner: Arc::new(CancelInner { state: AtomicU8::new(STATE_RUN), deadline }) }
    }

    /// Request cancellation. Idempotent; a deadline verdict that already
    /// latched wins (cancellation after the deadline changes nothing).
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            STATE_RUN,
            STATE_CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The cooperative checkpoint: `Ok(())` while running, the
    /// structured verdict once tripped. Deadline expiry is detected
    /// here and latched, so the verdict is stable across checks.
    pub fn check(&self) -> Result<(), ExecError> {
        match self.inner.state.load(Ordering::Relaxed) {
            STATE_CANCELLED => return Err(ExecError::Cancelled),
            STATE_DEADLINE => return Err(ExecError::DeadlineExceeded),
            _ => {}
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                let _ = self.inner.state.compare_exchange(
                    STATE_RUN,
                    STATE_DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // re-read: a concurrent cancel() may have won the latch
                return match self.inner.state.load(Ordering::Relaxed) {
                    STATE_CANCELLED => Err(ExecError::Cancelled),
                    _ => Err(ExecError::DeadlineExceeded),
                };
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Resource budgets
// ---------------------------------------------------------------------------

/// The per-query resource limits: materialized rows and estimated bytes
/// across all charging operators. `u64::MAX` disables a meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Maximum rows materialized across all charging sites.
    pub max_rows: u64,
    /// Maximum estimated bytes materialized across all charging sites.
    pub max_bytes: u64,
}

impl BudgetSpec {
    /// Cap rows only.
    pub fn rows(max_rows: u64) -> Self {
        BudgetSpec { max_rows, max_bytes: u64::MAX }
    }

    /// Cap estimated bytes only.
    pub fn bytes(max_bytes: u64) -> Self {
        BudgetSpec { max_rows: u64::MAX, max_bytes }
    }

    /// No limits (meters still run; useful for overhead measurement).
    pub fn unlimited() -> Self {
        BudgetSpec { max_rows: u64::MAX, max_bytes: u64::MAX }
    }
}

#[derive(Debug)]
struct BudgetInner {
    spec: BudgetSpec,
    rows: AtomicU64,
    bytes: AtomicU64,
}

/// A live budget: the spec plus shared meters. Cloning shares the
/// meters, so every charging site of one query draws from one pool.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Budget {
    pub fn new(spec: BudgetSpec) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                spec,
                rows: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }),
        }
    }

    pub fn spec(&self) -> BudgetSpec {
        self.inner.spec
    }

    /// Charge `rows` materialized rows / `bytes` estimated bytes against
    /// the budget on behalf of `operator`. The first charge that pushes
    /// a meter past its limit reports [`ExecError::BudgetExceeded`]
    /// naming that operator. The verdict is stable: once exceeded, every
    /// later charge fails too.
    pub fn charge(&self, operator: &'static str, rows: u64, bytes: u64) -> Result<(), ExecError> {
        let spec = self.inner.spec;
        let exceeded = |resource, limit| {
            move |attempted| ExecError::BudgetExceeded { operator, resource, limit, attempted }
        };
        draw(&self.inner.rows, rows, spec.max_rows).map_err(exceeded("rows", spec.max_rows))?;
        draw(&self.inner.bytes, bytes, spec.max_bytes).map_err(exceeded("bytes", spec.max_bytes))
    }
}

/// Add `delta` to `meter` unless the meter is already past `max`; `Err`
/// with the total the charge reaches when that is past `max`. The add
/// saturates at `u64::MAX` instead of wrapping (a wrapped meter would
/// silently re-admit an over-budget query), and a meter past its limit
/// stops counting: every later charge fails against the total that
/// tripped it, so what concurrent morsels report stays within one charge
/// of that total however many of them run on.
fn draw(meter: &AtomicU64, delta: u64, max: u64) -> Result<(), u64> {
    let mut current = meter.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(delta);
        if current > max {
            return Err(next);
        }
        match meter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) if next > max => return Err(next),
            Ok(_) => return Ok(()),
            Err(observed) => current = observed,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_trips_once() {
        let t = CancelToken::new();
        assert_eq!(t.check(), Ok(()));
        t.cancel();
        assert_eq!(t.check(), Err(ExecError::Cancelled));
        // idempotent
        t.cancel();
        assert_eq!(t.check(), Err(ExecError::Cancelled));
    }

    #[test]
    fn deadline_token_latches_deadline_exceeded() {
        let t = CancelToken::with_deadline_in(Duration::ZERO);
        assert_eq!(t.check(), Err(ExecError::DeadlineExceeded));
        // cancel after the deadline latched does not change the verdict
        t.cancel();
        assert_eq!(t.check(), Err(ExecError::DeadlineExceeded));
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let t = CancelToken::with_deadline_in(Duration::from_secs(3600));
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn budget_rows_trip_names_operator() {
        let b = Budget::new(BudgetSpec::rows(10));
        assert_eq!(b.charge("join-probe", 6, 100), Ok(()));
        assert_eq!(b.charge("join-probe", 4, 100), Ok(()));
        let err = b.charge("sharded-reduce", 1, 0).unwrap_err();
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                operator: "sharded-reduce",
                resource: "rows",
                limit: 10,
                attempted: 11
            }
        );
        // verdict is stable: the meter stays past the limit
        assert!(b.charge("join-probe", 0, 0).is_err());
    }

    #[test]
    fn budget_bytes_trip() {
        let b = Budget::new(BudgetSpec::bytes(1000));
        assert_eq!(b.charge("pipeline-chain", 5, 999), Ok(()));
        let err = b.charge("pipeline-chain", 5, 2).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { resource: "bytes", .. }));
    }

    #[test]
    fn budget_meters_saturate() {
        let b = Budget::new(BudgetSpec::unlimited());
        assert_eq!(b.charge("x", u64::MAX, u64::MAX), Ok(()));
        assert_eq!(b.charge("x", u64::MAX, 1), Ok(()));
        // one below the top, a charge of two saturates (a wrapped meter
        // would read 0 and admit it)
        let b = Budget::new(BudgetSpec::rows(u64::MAX - 1));
        assert_eq!(b.charge("x", u64::MAX - 1, 0), Ok(()));
        let err = b.charge("x", 2, 0).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { attempted: u64::MAX, .. }), "{err}");
    }

    /// A tripped meter stops counting: every later charge fails against
    /// the total that tripped it, not against the sum of every refused
    /// charge before it.
    #[test]
    fn tripped_meter_stops_counting() {
        let b = Budget::new(BudgetSpec::rows(64));
        let attempted = |charge: Result<(), ExecError>| match charge {
            Err(ExecError::BudgetExceeded { attempted, .. }) => attempted,
            other => panic!("expected BudgetExceeded, got {other:?}"),
        };
        assert_eq!(attempted(b.charge("join-probe", 1024, 0)), 1024);
        for _ in 0..3 {
            assert_eq!(attempted(b.charge("join-probe", 1024, 0)), 2048);
        }
        assert_eq!(attempted(b.charge("join-probe", 0, 0)), 1024);
    }

    #[test]
    fn resource_limit_classification() {
        assert!(ExecError::Cancelled.is_resource_limit());
        assert!(ExecError::DeadlineExceeded.is_resource_limit());
        assert!(ExecError::BudgetExceeded {
            operator: "x",
            resource: "rows",
            limit: 0,
            attempted: 1
        }
        .is_resource_limit());
        assert!(!ExecError::WorkerPanic { morsel: 0, payload: String::new() }.is_resource_limit());
        assert!(!ExecError::Injected { driver: 0, morsel: 0 }.is_resource_limit());
    }
}
