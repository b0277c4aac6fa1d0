//! The long-lived serving [`Engine`]: epochs, prepared plans, and the
//! per-query verdict.
//!
//! ## Epochs
//!
//! The engine holds the database as an `Arc`'d immutable [`Snapshot`].
//! A query pins the current snapshot once, at admission, and evaluates
//! against it for its whole evaluation — the `Cow`-based evaluators
//! never clone the pinned data. [`Engine::publish`] swaps in a new
//! snapshot under the next epoch number; in-flight queries keep their
//! pinned epoch alive through the `Arc` and finish against the world
//! they started in.
//!
//! ## Prepared plans
//!
//! Parse → plan → compile → verify is paid once per (query text,
//! epoch): the prepared table maps query text to a [`PreparedPlan`]
//! holding the query's physical plan ([`AuPlan`]: every chain stage
//! compiled and vetted) and the parsed query, from which a lane fault
//! lays out the oracle plan. A hit is lookup → [`AuPlan::run`]: nothing is
//! parsed, planned, compiled or rendered, and the plan's programs pass
//! Tier A again before they execute. Publish drops the whole table —
//! the coherence property test pins that a warm re-execution against a
//! new epoch is byte-identical to a cold one — and so does reaching
//! [`PREPARED_CAP`] entries.
//!
//! ## One answer per fault
//!
//! Per query: admission (bounded queue, structured shed) → one governed
//! evaluation, which answers a non-resource lane fault from the oracle
//! plan the way `eval_au` does ([`degrade_once`]). Its outcome is the
//! verdict, given once: a resource verdict is [`ServeError::Rejected`],
//! an oracle that faults too is [`ServeError::Failed`], a query error is
//! [`ServeError::Query`]. Every submission resolves — to a result or a
//! structured [`ServeError`] — and no outcome can poison the engine.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use audb_core::obs::{Counter, ExecEvent, ExecEventKind, Metrics, MetricsSnapshot, TraceBuilder};
use audb_core::EvalError;
use audb_exec::WorkerGate;
use audb_query::au::AuConfig;
use audb_query::{degrade_once, parse_sql, AuPlan, Query};
use audb_storage::{AuDatabase, AuRelation};

use crate::admission::{Admission, Class, ClassPolicy};
use crate::stats::{ClassStats, ClassStatsSnapshot};

/// One immutable published world: the database plus its epoch number.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    db: AuDatabase,
}

impl Snapshot {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn db(&self) -> &AuDatabase {
        &self.db
    }
}

/// Everything the engine is configured with.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Base evaluation knobs; per-class `timeout`/`budget` are layered
    /// on top.
    pub eval: AuConfig,
    /// Engine-wide worker-thread budget shared by every concurrent
    /// query (the [`WorkerGate`] total). 0 runs everything inline.
    pub worker_threads: usize,
    /// Admission knobs, indexed by [`Class`] discriminant order.
    pub classes: [ClassPolicy; 3],
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            eval: AuConfig::default(),
            worker_threads: audb_exec::pool::available_workers(),
            classes: Class::ALL.map(ClassPolicy::default_for),
        }
    }
}

/// Entries the prepared table holds before it is dropped whole — what
/// [`Engine::publish`] does to it anyway, so no recency bookkeeping. A
/// constant, not a knob: it only has to bound memory under unbounded
/// distinct query texts between two publishes (a plan is a few KB), an
/// order of magnitude above what a workload with a working set reaches
/// (`serve_mix`: 26 recurring texts + ~50 fresh ones per round, a
/// publish every round — under 80 entries, 13× below the cap).
pub const PREPARED_CAP: usize = 1024;

/// A query planned against one epoch's catalog, shared by every
/// execution of its text on that epoch.
#[derive(Debug)]
struct PreparedPlan {
    epoch: u64,
    /// The plan under the engine's evaluation knobs …
    plan: AuPlan,
    /// … and the query it was laid out from, whose oracle plan a lane
    /// fault lays out ([`degrade_once`]).
    query: Query,
}

/// One successful serve: the result plus how it was produced.
#[derive(Debug)]
pub struct Response {
    pub relation: AuRelation,
    /// The epoch the query was evaluated against.
    pub epoch: u64,
    pub class: Class,
    /// Whether the prepared-plan table already held this plan.
    pub prepared_hit: bool,
    /// Whether the oracle plan answered: the lane run faulted and the
    /// engine degraded once ([`degrade_once`]). The
    /// name dates from a per-plan circuit breaker that no longer exists;
    /// it stays because the benchmark's serving report reads the field
    /// by that name.
    pub breaker_degraded: bool,
    /// Time spent waiting for admission.
    pub queued: Duration,
    /// Admission wait + the evaluation.
    pub total: Duration,
}

/// Structured serving verdicts: every failed submission resolves to
/// exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Load shed: the class queue was full or the queue wait timed out.
    Overloaded { class: Class, queue_depth: usize, retry_after: Duration },
    /// A governance verdict (cancelled / deadline / budget).
    Rejected(EvalError),
    /// The lane run faulted and the oracle plan that answers it faulted
    /// too.
    Failed(EvalError),
    /// A deterministic query error (parse, type, unknown table).
    Query(EvalError),
    /// The engine is shutting down.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { class, queue_depth, retry_after } => write!(
                f,
                "overloaded: class {} queue depth {queue_depth}, retry after {retry_after:?}",
                class.name()
            ),
            ServeError::Rejected(e) => write!(f, "rejected by governance: {e}"),
            ServeError::Failed(e) => write!(f, "failed: the oracle plan faulted too: {e}"),
            ServeError::Query(e) => write!(f, "query error: {e}"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A point-in-time view of the engine's meters.
#[derive(Debug, Clone)]
pub struct EngineStats {
    pub epoch: u64,
    /// Prepared plans currently cached.
    pub prepared_plans: usize,
    /// Per-class meters, indexed by [`Class`] discriminant order.
    pub classes: [ClassStatsSnapshot; 3],
    /// The engine-lifetime metrics sink (admission counters, runtime
    /// events, drop accounting).
    pub metrics: MetricsSnapshot,
}

#[derive(Debug)]
struct EngineInner {
    config: EngineConfig,
    snapshot: Mutex<Arc<Snapshot>>,
    prepared: Mutex<HashMap<String, Arc<PreparedPlan>>>,
    admission: Admission,
    gate: WorkerGate,
    metrics: Metrics,
    stats: [ClassStats; 3],
    closed: AtomicBool,
}

/// The long-lived concurrent serving engine. Cheap to clone (handles
/// share one engine); see the module docs for the architecture.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine serving `db` as epoch 0. Column sets are warmed up
    /// front, like [`Engine::publish`] does for later epochs.
    pub fn new(db: AuDatabase, config: EngineConfig) -> Self {
        db.warm_columns();
        Engine {
            inner: Arc::new(EngineInner {
                admission: Admission::new(config.classes),
                gate: WorkerGate::new(config.worker_threads),
                config,
                snapshot: Mutex::new(Arc::new(Snapshot { epoch: 0, db })),
                prepared: Mutex::new(HashMap::new()),
                metrics: Metrics::enabled(),
                stats: [ClassStats::default(), ClassStats::default(), ClassStats::default()],
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Publish a new world: the database becomes the next epoch and
    /// every prepared plan is evicted (plans are compiled against one
    /// epoch's catalog). In-flight queries finish on their pinned
    /// snapshots. Returns the new epoch number.
    ///
    /// Column sets are warmed before the epoch swap: the snapshot is
    /// immutable once published, so every query against it shares the
    /// `Arc`'d columnar lanes instead of racing to build them on first
    /// touch — the build cost is paid once, off the query path.
    pub fn publish(&self, db: AuDatabase) -> u64 {
        db.warm_columns();
        let mut current = self.inner.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = current.epoch + 1;
        *current = Arc::new(Snapshot { epoch, db });
        drop(current);
        self.evict(&mut self.inner.prepared.lock().unwrap_or_else(PoisonError::into_inner));
        epoch
    }

    /// Drop every prepared plan, counting them.
    fn evict(&self, table: &mut HashMap<String, Arc<PreparedPlan>>) {
        self.inner.metrics.add(Counter::PreparedEvictions, table.len() as u64);
        table.clear();
    }

    /// Pin the current snapshot (readers hold it as long as they like).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.inner.snapshot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Stop admitting new queries; in-flight queries finish normally.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
    }

    /// The engine-lifetime metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Per-class and engine-wide meters at this instant.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            epoch: self.snapshot().epoch,
            prepared_plans: self
                .inner
                .prepared
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            classes: [
                self.inner.stats[0].snapshot(),
                self.inner.stats[1].snapshot(),
                self.inner.stats[2].snapshot(),
            ],
            metrics: self.inner.metrics.snapshot(),
        }
    }

    /// Serve one SQL query under `class`, through the prepared-plan
    /// cache.
    pub fn execute_sql(&self, sql: &str, class: Class) -> Result<Response, ServeError> {
        self.serve(sql, class, true)
    }

    /// Serve one algebra plan under `class`, through the prepared-plan
    /// cache (keyed on the plan's `Debug` rendering: `Display` prints
    /// `Str("5")`, `Int(5)` and `Float(5.0)` all as `5`).
    pub fn execute(&self, q: &Query, class: Class) -> Result<Response, ServeError> {
        self.serve_parsed(&format!("{q:?}"), Some(q), class, true)
    }

    /// The cold path: serve one SQL query bypassing the prepared-plan
    /// table (a fresh parse + compile + verify every call). The
    /// coherence tests and the warm-vs-cold bench diff against this.
    pub fn execute_sql_cold(&self, sql: &str, class: Class) -> Result<Response, ServeError> {
        self.serve(sql, class, false)
    }

    fn serve(&self, sql: &str, class: Class, reuse: bool) -> Result<Response, ServeError> {
        self.serve_parsed(sql, None, class, reuse)
    }

    /// The full per-query path; see the module docs for the verdicts.
    /// `key` is the prepared-table key; `plan` short-circuits parsing
    /// when the caller already holds the algebra.
    fn serve_parsed(
        &self,
        key: &str,
        plan: Option<&Query>,
        class: Class,
        reuse: bool,
    ) -> Result<Response, ServeError> {
        let inner = &self.inner;
        let stats = &inner.stats[class as usize];
        // a query refused at shutdown was never submitted
        if inner.closed.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        stats.submit();

        let started = Instant::now();
        let ticket = match inner.admission.admit(class) {
            Ok(t) => t,
            Err(shed) => {
                stats.shed();
                inner.metrics.add(Counter::Shed, 1);
                inner.metrics.record_event(ExecEvent {
                    kind: ExecEventKind::Shed,
                    driver: None,
                    morsel: None,
                    detail: format!("class {} queue depth {}", class.name(), shed.queue_depth),
                });
                return Err(ServeError::Overloaded {
                    class,
                    queue_depth: shed.queue_depth,
                    retry_after: shed.retry_after,
                });
            }
        };
        let queued = started.elapsed();
        stats.admit();
        inner.metrics.add(Counter::Admitted, 1);
        inner.metrics.record_event(ExecEvent {
            kind: ExecEventKind::Admitted,
            driver: None,
            morsel: None,
            detail: format!("class {}", class.name()),
        });

        // Pin the epoch after admission: queued queries evaluate
        // against the freshest world at the moment they start running.
        let snap = self.snapshot();
        let (plan, prepared_hit) = match self.prepare(key, plan, &snap, reuse) {
            Ok(prepared) => prepared,
            Err(e) => {
                // a query error, as one raised while evaluating is
                stats.fail();
                return Err(ServeError::Query(e));
            }
        };

        let policy = inner.admission.policy(class);
        let result = self.evaluate(&plan, &snap, policy);
        drop(ticket);

        match result {
            Ok((relation, breaker_degraded)) => {
                let total = started.elapsed();
                stats.complete(total);
                Ok(Response {
                    relation,
                    epoch: snap.epoch,
                    class,
                    prepared_hit,
                    breaker_degraded,
                    queued,
                    total,
                })
            }
            Err(e) => {
                match &e {
                    ServeError::Rejected(_) => stats.reject(),
                    ServeError::Failed(_) | ServeError::Query(_) => stats.fail(),
                    _ => {}
                }
                Err(e)
            }
        }
    }

    /// Look up (or build) the prepared plan for `key` on `snap`'s
    /// epoch. `reuse: false` always builds fresh and never stores —
    /// the cold path.
    fn prepare(
        &self,
        key: &str,
        plan: Option<&Query>,
        snap: &Snapshot,
        reuse: bool,
    ) -> Result<(Arc<PreparedPlan>, bool), EvalError> {
        let inner = &self.inner;
        if reuse {
            let table = inner.prepared.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(p) = table.get(key).filter(|p| p.epoch == snap.epoch) {
                inner.metrics.add(Counter::PreparedHits, 1);
                return Ok((Arc::clone(p), true));
            }
            inner.metrics.add(Counter::PreparedMisses, 1);
        }
        let query = match plan {
            Some(q) => q.clone(),
            None => parse_sql(key, snap.db())?,
        };
        let plan =
            AuPlan::new(&query, &inner.config.eval, &inner.metrics, &TraceBuilder::disabled());
        let fresh = Arc::new(PreparedPlan { epoch: snap.epoch, plan, query });
        if reuse {
            // Last insert wins on a race; both candidates were built
            // against the same (key, epoch) pair, so either is valid.
            let mut table = inner.prepared.lock().unwrap_or_else(PoisonError::into_inner);
            if table.len() >= PREPARED_CAP {
                self.evict(&mut table);
            }
            table.insert(key.to_string(), Arc::clone(&fresh));
        }
        Ok((fresh, false))
    }

    /// One governed evaluation under `policy`, inside the caller's
    /// admission slot: the relation, and whether the oracle plan
    /// answered it.
    fn evaluate(
        &self,
        plan: &PreparedPlan,
        snap: &Snapshot,
        policy: &ClassPolicy,
    ) -> Result<(AuRelation, bool), ServeError> {
        let inner = &self.inner;
        let untraced = TraceBuilder::disabled();
        // the class's governance over the engine's resource knobs; the
        // derived executor then takes the engine's gate and meters
        let resources = AuConfig {
            timeout: policy.timeout.or(inner.config.eval.timeout),
            budget: policy.budget.or(inner.config.eval.budget),
            ..inner.config.eval
        };
        let exec = resources
            .executor()
            .with_worker_gate(inner.gate.clone())
            .with_metrics(inner.metrics.clone());
        let lanes = &|| plan.plan.run(snap.db(), &exec, &untraced);
        degrade_once(lanes, snap.db(), &plan.query, &resources, &exec, &untraced).map_err(|e| {
            match &e {
                EvalError::Exec(x) if x.is_resource_limit() => ServeError::Rejected(e),
                // the oracle faulted too
                EvalError::Exec(_) => ServeError::Failed(e),
                _ => ServeError::Query(e),
            }
        })
    }
}
