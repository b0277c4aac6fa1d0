//! The scoped thread pool and its deterministic ordered-merge collector.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};
use std::thread;
use std::time::Instant;

use audb_core::obs::{Counter, Metrics, Site};
use audb_core::{Budget, CancelToken, ExecError};

use crate::gate::{GateLease, WorkerGate};
use crate::partition::Partitioner;

/// One morsel's pending output: a poison-tolerant one-shot slot, filled
/// exactly once by the worker that claims the morsel. Producer panics
/// are already caught at the morsel boundary (so no user code can
/// unwind while the lock is held), and both accessors recover from a
/// poisoned lock anyway — a panicking worker can never wedge the merge
/// phase.
#[derive(Debug)]
struct Slot<V>(Mutex<Option<V>>);

impl<V> Slot<V> {
    fn empty() -> Self {
        Slot(Mutex::new(None))
    }

    /// Store the claimed morsel's result (first write wins; the claim
    /// cursor hands each index to exactly one worker).
    fn set(&self, value: V) {
        let mut guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        guard.get_or_insert(value);
    }

    fn into_inner(self) -> Option<V> {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Hardware parallelism, probed once. Falls back to 1 when the platform
/// cannot report it.
pub fn available_workers() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// The largest block the allocator should hand back to its free lists,
/// not to the kernel: [`keep_freed_blocks`] reserves and releases one
/// block of this size. Half of glibc's cap on the threshold it learns
/// (`DEFAULT_MMAP_THRESHOLD_MAX`, 32 MiB).
const KEPT_BLOCK_BYTES: usize = 16 << 20;

/// Teach the allocator, once per process, that this program frees
/// blocks of megabytes and wants them again a moment later.
///
/// A query's working set — probe indexes, lane buffers, the result its
/// caller drops — is allocated and freed whole, query after query.
/// glibc returns the top of the heap to the kernel whenever a free
/// leaves more than its trim threshold there, and learns that threshold
/// from the program: twice the largest `mmap`ed block freed so far
/// (mallopt(3), `M_MMAP_THRESHOLD`). The typed chain's largest block is
/// 2 MiB — threshold 4.0 MiB — and a `join_spine` query leaves 3.96 MiB
/// at the top of the heap in one heap layout and 8.1 MiB in another:
/// two more `argv` strings decided whether every query gave that back
/// and page-faulted it in again (1 900 faults, 13 % of the op in the
/// kernel, `au_rel_p50` 3.9 against 3.3). One untouched reservation,
/// released at once, puts the threshold where no query's leftovers
/// reach it: blocks up to this size then come from the free lists and
/// the heap is trimmed above twice it. Two system calls, no page
/// touched; under another allocator it is just that.
fn keep_freed_blocks() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let mut block = Vec::<u8>::new();
        // a refused reservation (strict overcommit) leaves the defaults
        if block.try_reserve_exact(KEPT_BLOCK_BYTES).is_ok() {
            // the optimizer may not pair the allocation with its free
            // and delete both
            black_box(&mut block);
        }
    });
}

/// Render a caught panic payload for [`ExecError::WorkerPanic`].
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A partition-parallel executor: worker count + partitioning rules,
/// plus the per-query governance context (cancellation token, resource
/// budget) every driver checks.
///
/// [`Executor::run`] is the single primitive every driver uses. It maps
/// a fallible producer over the morsels of `0..n` and concatenates the
/// per-morsel outputs **in morsel order**, which makes the merged output
/// byte-identical to the sequential evaluation of the same producer —
/// the guarantee the query layer's property tests pin down for every
/// worker count.
///
/// ## Fault containment
///
/// A panic inside a producer is caught at the morsel boundary
/// ([`std::panic::catch_unwind`]) and surfaces as a structured
/// [`ExecError::WorkerPanic`] through the normal error path: sibling
/// workers drain their remaining morsels, the scope joins cleanly, and
/// the executor is immediately reusable — there is no pool state to
/// poison (result slots are poison-tolerant one-shot cells and the only
/// shared mutable state is the atomic claim cursor).
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
    partitioner: Partitioner,
    cancel: Option<CancelToken>,
    budget: Option<Budget>,
    metrics: Metrics,
    gate: Option<WorkerGate>,
}

impl Default for Executor {
    /// Use all available hardware threads.
    fn default() -> Self {
        Executor::new(available_workers())
    }
}

impl Executor {
    /// An executor with exactly `workers` threads (0 is treated as 1).
    /// The first one of a process also sets the allocator up for
    /// queries (`keep_freed_blocks`).
    pub fn new(workers: usize) -> Self {
        keep_freed_blocks();
        Executor {
            workers: workers.max(1),
            partitioner: Partitioner::default(),
            cancel: None,
            budget: None,
            metrics: Metrics::disabled(),
            gate: None,
        }
    }

    /// The exact-current-behavior executor: everything runs inline on
    /// the caller's thread.
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// Resolve an optional worker count: `None` means all available
    /// hardware threads, `Some(w)` means exactly `w`.
    pub fn from_option(workers: Option<usize>) -> Self {
        match workers {
            Some(w) => Executor::new(w),
            None => Executor::default(),
        }
    }

    /// Override the partitioning rules.
    pub fn with_partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Tune the adaptive parallelism floor
    /// ([`Partitioner::min_rows_per_worker`]) for drivers whose
    /// per-item cost differs from the default row-loop profile —
    /// aggregation's group partitions or difference's per-left-tuple
    /// reductions do far more work per item than a probe or a
    /// normalization scatter, so they stay parallel at lower counts.
    pub fn with_min_rows_per_worker(mut self, min_rows_per_worker: usize) -> Self {
        self.partitioner.min_rows_per_worker = min_rows_per_worker;
        self
    }

    /// Attach a cooperative cancellation token: every driver checks it
    /// at morsel boundaries (and batch evaluation between op sweeps),
    /// surfacing [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`].
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a resource budget, charged by the operators that can
    /// expand an intermediate (join probes, pipeline chains,
    /// normalization's input).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attach a metrics sink. Cloned executors (a driver's own grain, the
    /// reduce meta-driver) share it, so one query's drivers all report into
    /// the same meters. The default, [`Metrics::disabled`], costs one
    /// branch per instrumentation site.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Share a [`WorkerGate`]: before spawning worker threads, the
    /// driver claims a share of the gate's engine-wide thread budget
    /// (non-blocking) and spawns only what it is granted. A query that
    /// gets nothing runs inline — results are worker-count-invariant,
    /// so contention degrades latency, never answers. Cloned executors
    /// (a driver's own grain, the reduce meta-driver) share the gate, so one
    /// engine's concurrent queries draw from a single pool.
    pub fn with_worker_gate(mut self, gate: WorkerGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// The attached metrics sink (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The attached resource budget, if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// Cooperative cancellation checkpoint: `Ok(())` when no token is
    /// attached or the token is still running.
    pub fn check_cancel(&self) -> Result<(), ExecError> {
        match &self.cancel {
            Some(token) => {
                self.metrics.add(Counter::CancelChecks, 1);
                token.check()
            }
            None => Ok(()),
        }
    }

    /// Charge the attached budget (no-op without one). A tripped budget
    /// lands in the metrics event log with the charging operator.
    pub fn charge(&self, operator: &'static str, rows: u64, bytes: u64) -> Result<(), ExecError> {
        match &self.budget {
            Some(budget) => {
                self.metrics.add(Counter::BudgetCharges, 1);
                self.metrics.add(Counter::BudgetRowsCharged, rows);
                self.metrics.add(Counter::BudgetBytesCharged, bytes);
                let verdict = budget.charge(operator, rows, bytes);
                if let Err(e) = &verdict {
                    self.metrics.record_exec_error(e, None, None);
                }
                verdict
            }
            None => Ok(()),
        }
    }

    /// Run `produce` over every morsel of `0..n` and return the
    /// concatenation of the per-morsel outputs in morsel order.
    ///
    /// `produce(range, out)` must append the output rows for the items
    /// in `range` to `out` — exactly what the body of the corresponding
    /// sequential loop would push, in the same order. Append only: on
    /// the inline path every morsel is handed the *same* vector (nothing
    /// is concatenated, and a producer that keeps one buffer in `out[0]`
    /// fills a single one), on the pool each morsel gets an empty one of
    /// its own. Errors are reported deterministically: the error of the
    /// *earliest* failing morsel wins, matching what the sequential loop
    /// would have hit first (later morsels may still be computed;
    /// producers are pure, so the extra work is discarded, not
    /// observable).
    ///
    /// Runtime faults — a caught producer panic, a tripped cancellation
    /// token, an injected test fault — surface through the same error
    /// path, which is why `E` must absorb [`ExecError`].
    pub fn run<T, E, F>(&self, n: usize, produce: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<ExecError>,
        F: Fn(Range<usize>, &mut Vec<T>) -> Result<(), E> + Sync,
    {
        let morsels = self.partitioner.morsels(n, self.workers);

        // Deterministic fault addressing: drivers enter sequentially on
        // the query thread, so (driver sequence number, morsel index)
        // names one checkpoint regardless of worker interleaving. The
        // metrics sink numbers drivers the same way, so observed events
        // carry the same coordinates the fault harness arms.
        #[cfg(feature = "faults")]
        let fault_ctx = crate::faults::driver_context();

        let driver = self.metrics.is_enabled().then(|| {
            self.metrics.add(Counter::DriversEntered, 1);
            self.metrics.add(Counter::MorselsDispatched, morsels.len() as u64);
            self.metrics.enter_driver()
        });
        let started = self.metrics.is_enabled().then(Instant::now);
        let finish = |result: Result<Vec<T>, E>| {
            if let Some(t) = started {
                self.metrics.record_ns(Site::Driver, t.elapsed().as_nanos() as u64);
            }
            result
        };

        // One morsel, fully contained: cancellation checkpoint at the
        // boundary, then fault checkpoint + producer under catch_unwind.
        let run_morsel = |index: usize, morsel: Range<usize>, out: &mut Vec<T>| -> Result<(), E> {
            if let Err(e) = self.check_cancel() {
                self.metrics.record_exec_error(&e, driver, Some(index));
                return Err(E::from(e));
            }
            let caught = catch_unwind(AssertUnwindSafe(|| -> Result<(), E> {
                #[cfg(feature = "faults")]
                if let Some((plan, fault_driver)) = &fault_ctx {
                    if let Err(e) = plan.checkpoint(*fault_driver, index, self.cancel.as_ref()) {
                        self.metrics.record_exec_error(&e, driver, Some(index));
                        return Err(E::from(e));
                    }
                }
                produce(morsel, out)
            }));
            caught.unwrap_or_else(|payload| {
                let e = ExecError::WorkerPanic { morsel: index, payload: panic_text(payload) };
                self.metrics.record_exec_error(&e, driver, Some(index));
                Err(E::from(e))
            })
        };

        // Shared-gate claim: with a gate attached, spawn only the
        // granted share of the engine-wide thread budget (non-blocking
        // partial acquisition). A starved claim degrades to the inline
        // path — same bytes out, the caller's thread does all the work.
        // The lease lives until this call returns, covering the scope.
        let wanted = self.workers.min(morsels.len().max(1));
        let lease = match &self.gate {
            Some(gate) if wanted > 1 => Some(gate.try_acquire(wanted)),
            _ => None,
        };
        let threads = lease.as_ref().map_or(wanted, GateLease::granted);

        // Inline fast path: sequential executor, a single morsel, or a
        // starved gate. The morsels share one output vector.
        if threads <= 1 || morsels.len() <= 1 {
            let mut merged = Vec::new();
            for (i, m) in morsels.into_iter().enumerate() {
                if let Err(e) = run_morsel(i, m, &mut merged) {
                    return finish(Err(e));
                }
            }
            return finish(Ok(merged));
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Slot<Result<Vec<T>, E>>> = morsels.iter().map(|_| Slot::empty()).collect();
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(m) = morsels.get(i) else { break };
                    let mut rows = Vec::new();
                    slots[i].set(run_morsel(i, m.clone(), &mut rows).map(|()| rows));
                });
            }
        });

        // Ordered merge: slot i holds morsel i's rows; every claimed
        // morsel stored a result before the scope joined, and the
        // monotonic cursor claims every index, so every slot is filled.
        let mut merged = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.into_inner() {
                Some(Ok(rows)) => merged.extend(rows),
                Some(Err(e)) => return finish(Err(e)),
                None => {
                    // defensively structured — unreachable per the claim
                    // argument above
                    return finish(Err(E::from(ExecError::WorkerPanic {
                        morsel: i,
                        payload: "result slot never filled".to_string(),
                    })));
                }
            }
        }
        finish(Ok(merged))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::BudgetSpec;

    /// A producer with per-item output count depending on the item, to
    /// exercise the ordered merge with ragged morsels.
    fn produce(r: Range<usize>, out: &mut Vec<usize>) -> Result<(), String> {
        for i in r {
            for rep in 0..(i % 3) + 1 {
                out.push(i * 10 + rep);
            }
        }
        Ok(())
    }

    #[test]
    fn parallel_output_identical_to_sequential() {
        let n = 5000;
        let seq = Executor::sequential().run(n, produce).unwrap();
        for w in [2usize, 3, 4, 7, 16] {
            let par = Executor::new(w).run(n, produce).unwrap();
            assert_eq!(par, seq, "workers = {w}");
        }
    }

    #[test]
    fn small_partitioner_forces_many_morsels() {
        let exec = Executor::new(4).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 8,
            min_rows_per_worker: 0,
        });
        let seq = Executor::sequential().run(100, produce).unwrap();
        assert_eq!(exec.run(100, produce).unwrap(), seq);
    }

    /// Inline, every morsel is handed the one output vector (a producer
    /// that keeps a buffer in `out[0]` fills a single one, nothing is
    /// concatenated); on the pool each morsel starts from an empty one.
    #[test]
    fn inline_morsels_share_the_output_vector() {
        let fine = Partitioner { min_morsel: 1, morsels_per_worker: 8, min_rows_per_worker: 0 };
        let seen_at_entry = |r: Range<usize>, out: &mut Vec<usize>| -> Result<(), String> {
            out.push(out.len());
            out.extend(r.skip(1));
            Ok(())
        };
        let inline = Executor::sequential().with_partitioner(fine).run(80, seen_at_entry).unwrap();
        let firsts = |rows: &[usize]| rows.iter().step_by(10).copied().collect::<Vec<_>>();
        assert_eq!(firsts(&inline), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        // the same eight morsels of ten on two threads
        let four = Partitioner { morsels_per_worker: 4, ..fine };
        let pooled = Executor::new(2).with_partitioner(four).run(80, seen_at_entry).unwrap();
        assert_eq!(firsts(&pooled), vec![0; 8]);
    }

    #[test]
    fn empty_input() {
        let out = Executor::new(4).run(0, produce).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn earliest_morsel_error_wins() {
        let exec = Executor::new(4).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 4,
            min_rows_per_worker: 0,
        });
        let fail_at = |bad: usize| {
            move |r: Range<usize>, out: &mut Vec<usize>| -> Result<(), String> {
                for i in r {
                    if i >= bad {
                        return Err(format!("item {i}"));
                    }
                    out.push(i);
                }
                Ok(())
            }
        };
        // every item from 40 on errors; the earliest morsel containing
        // one reports 40, same as the sequential loop
        assert_eq!(exec.run(100, fail_at(40)), Err("item 40".to_string()));
        assert_eq!(Executor::sequential().run(100, fail_at(40)), Err("item 40".to_string()));
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Executor::new(0).workers(), 1);
        assert_eq!(Executor::from_option(Some(3)).workers(), 3);
        assert_eq!(Executor::from_option(None).workers(), available_workers());
    }

    /// A panicking producer surfaces as `WorkerPanic` — and the same
    /// executor value immediately runs the next query (no poisoned
    /// state, pool fully reusable).
    #[test]
    fn producer_panic_is_contained_and_pool_reusable() {
        let exec = Executor::new(4).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 4,
            min_rows_per_worker: 0,
        });
        let panicky = |r: Range<usize>, out: &mut Vec<usize>| -> Result<(), String> {
            for i in r {
                assert!(i != 37, "injected panic at item 37");
                out.push(i);
            }
            Ok(())
        };
        for _ in 0..2 {
            let err = exec.run(100, panicky).unwrap_err();
            assert!(err.contains("worker panicked"), "structured panic error, got: {err}");
            assert!(err.contains("injected panic at item 37"), "payload preserved, got: {err}");
            // follow-up query on the same executor works
            let seq = Executor::sequential().run(100, produce).unwrap();
            assert_eq!(exec.run(100, produce).unwrap(), seq);
        }
    }

    /// Sequential (inline-path) panics are contained identically.
    #[test]
    fn inline_path_panic_is_contained() {
        let exec = Executor::sequential();
        let panicky = |_r: Range<usize>, _out: &mut Vec<usize>| -> Result<(), String> {
            panic!("inline boom");
        };
        let err = exec.run(10, panicky).unwrap_err();
        assert!(err.contains("inline boom"));
        assert_eq!(exec.run(10, produce).unwrap(), Executor::new(1).run(10, produce).unwrap());
    }

    #[test]
    fn cancelled_token_stops_at_morsel_boundary() {
        let token = CancelToken::new();
        token.cancel();
        let exec = Executor::new(4).with_cancel(token);
        let err = exec.run(10_000, produce).unwrap_err();
        assert_eq!(err, String::from(ExecError::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let token = CancelToken::with_deadline_in(std::time::Duration::ZERO);
        let exec = Executor::new(2).with_cancel(token);
        let err = exec.run(10_000, produce).unwrap_err();
        assert_eq!(err, String::from(ExecError::DeadlineExceeded));
    }

    #[test]
    fn gated_executor_matches_sequential_at_any_grant() {
        let seq = Executor::sequential().run(5000, produce).unwrap();
        // plenty of budget, a starved gate, and a partial grant all
        // produce identical bytes
        for total in [0usize, 1, 2, 16] {
            let exec = Executor::new(4).with_worker_gate(WorkerGate::new(total));
            assert_eq!(exec.run(5000, produce).unwrap(), seq, "gate total = {total}");
        }
    }

    #[test]
    fn gate_releases_after_each_run() {
        let gate = WorkerGate::new(4);
        let exec = Executor::new(4).with_worker_gate(gate.clone());
        for _ in 0..3 {
            let seq = Executor::sequential().run(1000, produce).unwrap();
            assert_eq!(exec.run(1000, produce).unwrap(), seq);
            assert_eq!(gate.leased(), 0, "lease returned when the driver exits");
        }
    }

    #[test]
    fn budget_charge_helper_trips() {
        let exec = Executor::new(2).with_budget(Budget::new(BudgetSpec::rows(5)));
        assert!(exec.charge("join-probe", 5, 0).is_ok());
        let err = exec.charge("join-probe", 1, 0).unwrap_err();
        assert!(matches!(err, ExecError::BudgetExceeded { operator: "join-probe", .. }));
        // no budget attached → no-op
        assert!(Executor::new(2).charge("join-probe", u64::MAX, u64::MAX).is_ok());
    }

    /// glibc only (the allocator [`keep_freed_blocks`] is written for):
    /// once an executor exists, a freed 4 MiB block is handed out again
    /// with its pages still mapped. Without the reservation the second
    /// round maps 1 024 fresh pages — the first block was `mmap`ed and
    /// unmapped, the second comes from a heap that has to grow.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn freed_blocks_are_reused_without_page_faults() {
        const PAGE: usize = 4096;
        // this thread's minor faults: field 10 of its stat line
        fn minor_faults() -> u64 {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            let after_name = stat.rsplit(')').next().unwrap();
            after_name.split_whitespace().nth(7).unwrap().parse().unwrap()
        }
        fn touch_a_block() {
            let mut block = Vec::<u8>::with_capacity(1024 * PAGE);
            block.resize(1024 * PAGE, 1);
            black_box(&mut block);
        }
        let _first = Executor::sequential();
        touch_a_block();
        let before = minor_faults();
        touch_a_block();
        let faults = minor_faults() - before;
        assert!(faults < 64, "{faults} page faults to reuse a freed block");
    }
}
