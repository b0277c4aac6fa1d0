//! Query-engine observability: the shard-safe [`Metrics`] sink, the
//! structured [`QueryTrace`] span tree, and the EXPLAIN ANALYZE
//! renderers.
//!
//! Everything here is std-only and designed around one invariant:
//! **observing a query never changes its result**. Metrics are atomic
//! counters and bucketed duration histograms behind an
//! `Option<Arc<..>>` — the disabled default ([`Metrics::disabled`])
//! costs the hot path a single branch per instrumentation site, and
//! enabling them adds only relaxed atomic traffic off the row loops
//! (drivers, checkpoints, and phase boundaries; never per row).
//! Tracing ([`TraceBuilder`]) lives on the query thread alone, so span
//! bookkeeping is plain `RefCell` state with no synchronization at all.
//!
//! Layering: this module sits in `audb_core` below the execution
//! runtime so both `audb_exec` (morsel dispatch, sharded reduce,
//! governance checkpoints) and `audb_query` (planner decisions,
//! operator spans) can report into the same sink without a dependency
//! cycle. The query layer assembles the final [`QueryTrace`] from a
//! finished [`TraceBuilder`] plus a [`MetricsSnapshot`].
//!
//! The JSON shape emitted by [`QueryTrace::to_json`] is versioned
//! ([`TRACE_SCHEMA_VERSION`]) and documented in `docs/observability.md`;
//! CI validates a sample artifact against that schema.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::govern::ExecError;

/// Version stamped into every serialized trace; bump when the JSON
/// shape changes incompatibly.
pub const TRACE_SCHEMA_VERSION: u32 = 7;

// ---------------------------------------------------------------------------
// Counters and timed sites
// ---------------------------------------------------------------------------

/// The fixed counter inventory. Names are stable (they appear in the
/// serialized trace); see `docs/observability.md` for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Executor entries ([`Executor::run`] calls, including the inline
    /// fast path and the meta-runs of the reduce driver).
    DriversEntered,
    /// Morsels produced across all driver entries.
    MorselsDispatched,
    /// Cooperative cancellation checkpoints taken (token attached).
    CancelChecks,
    /// Budget charge calls (budget attached).
    BudgetCharges,
    /// Rows charged to the budget.
    BudgetRowsCharged,
    /// Estimated bytes charged to the budget.
    BudgetBytesCharged,
    /// Worker panics contained at a morsel boundary.
    WorkerPanics,
    /// Test-harness faults injected (feature `faults`).
    InjectedFaults,
    /// Lanes → oracle degradations taken: a lane attempt's non-resource
    /// fault answered from the oracle plan, by `eval_au` or the serving
    /// engine.
    Degradations,
    /// Sharded-reduce (normalization) invocations.
    NormalizeRuns,
    /// Rows entering normalization.
    NormalizeRowsIn,
    /// Rows surviving normalization (in − out = merges + zero-drops).
    NormalizeRowsOut,
    /// Compiled programs rejected by the static verifier (Tier B); the
    /// rejected program's chain ran on the oracle instead.
    VerifyRejects,
    /// Queries admitted by the serving layer (granted an execution slot).
    Admitted,
    /// Queries shed by the serving layer (queue full or wait timed out).
    Shed,
    /// Events dropped because the event log hit its retention cap.
    EventsDropped,
    /// Aggregation demotions from typed `i64`/`f64` lanes to boxed
    /// `Value`s: one per term whose `⊛` contributions left the lanes
    /// (mixed/sentinel column, poisoned row, overflow, multiplicity
    /// beyond `i64`) or whose sum fold overflowed in some group.
    AggTermsBoxed,
    /// Fused-chain lane stages (one per stage per chunk or pair batch)
    /// in which some typed kernel demoted to the boxed per-row
    /// combinators (string/mixed operands, `i64` overflow, NaN, `/`).
    ChainStagesBoxed,
    /// Fused probes whose key columns were not one typed (`Int` or
    /// `Float`) lane pair each, so that the build's hash and interval
    /// indexes read boxed values.
    ProbeKeysBoxed,
    /// Aggregations some group-by column of which is a `Boxed` lane, so
    /// that grouping confirmed `Value`s and the membership sweep ran on
    /// boxed endpoints.
    AggKeysBoxed,
    /// Operators that had to build column lanes from tuples: a cold
    /// base table, a row-born intermediate (a breaker's output under a
    /// chain, any input on the oracle).
    LaneBuilds,
    /// Operators that asked a columnar-born relation for its tuples.
    RowsBuilt,
    /// Serving-layer executions that found their plan in the prepared
    /// table (same text, same epoch): nothing parsed, planned or compiled.
    PreparedHits,
    /// Serving-layer executions that consulted the prepared table and
    /// had to plan (a new text, or the first one after a publish).
    PreparedMisses,
    /// Prepared plans dropped: by a publish, or with the whole table when
    /// it reached its cap.
    PreparedEvictions,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 25] = [
        Counter::DriversEntered,
        Counter::MorselsDispatched,
        Counter::CancelChecks,
        Counter::BudgetCharges,
        Counter::BudgetRowsCharged,
        Counter::BudgetBytesCharged,
        Counter::WorkerPanics,
        Counter::InjectedFaults,
        Counter::Degradations,
        Counter::NormalizeRuns,
        Counter::NormalizeRowsIn,
        Counter::NormalizeRowsOut,
        Counter::VerifyRejects,
        Counter::Admitted,
        Counter::Shed,
        Counter::EventsDropped,
        Counter::AggTermsBoxed,
        Counter::ChainStagesBoxed,
        Counter::ProbeKeysBoxed,
        Counter::AggKeysBoxed,
        Counter::LaneBuilds,
        Counter::RowsBuilt,
        Counter::PreparedHits,
        Counter::PreparedMisses,
        Counter::PreparedEvictions,
    ];

    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DriversEntered => "drivers_entered",
            Counter::MorselsDispatched => "morsels_dispatched",
            Counter::CancelChecks => "cancel_checks",
            Counter::BudgetCharges => "budget_charges",
            Counter::BudgetRowsCharged => "budget_rows_charged",
            Counter::BudgetBytesCharged => "budget_bytes_charged",
            Counter::WorkerPanics => "worker_panics",
            Counter::InjectedFaults => "injected_faults",
            Counter::Degradations => "degradations",
            Counter::NormalizeRuns => "normalize_runs",
            Counter::NormalizeRowsIn => "normalize_rows_in",
            Counter::NormalizeRowsOut => "normalize_rows_out",
            Counter::VerifyRejects => "verify_rejects",
            Counter::Admitted => "admitted",
            Counter::Shed => "shed",
            Counter::EventsDropped => "events_dropped",
            Counter::AggTermsBoxed => "agg_terms_boxed",
            Counter::ChainStagesBoxed => "chain_stages_boxed",
            Counter::ProbeKeysBoxed => "probe_keys_boxed",
            Counter::AggKeysBoxed => "agg_keys_boxed",
            Counter::LaneBuilds => "lane_builds",
            Counter::RowsBuilt => "rows_built",
            Counter::PreparedHits => "prepared_hits",
            Counter::PreparedMisses => "prepared_misses",
            Counter::PreparedEvictions => "prepared_evictions",
        }
    }
}

/// Timed instrumentation sites (duration histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One executor entry, dispatch to ordered merge.
    Driver,
    /// Sharded-reduce phase 1: scatter rows into key-hash shards.
    ReduceScatter,
    /// Sharded-reduce phase 2: per-shard hash-merge + sort.
    ReduceMergeSort,
    /// Sharded-reduce phase 3: sequential k-way merge.
    ReduceKway,
    /// Aggregation membership: grouping index, possible-member source
    /// (compression), group-box sweep and CSR build.
    AggIndex,
    /// Aggregation phase 1: input evaluation over lanes + per-row `⊛`.
    AggContrib,
    /// Aggregation phase 2: the per-group bound folds (driver time).
    AggFold,
    /// Fused-chain probe build: key-certainty partition, hash buckets,
    /// interval sweeps, candidate CSR.
    ChainBuild,
    /// Fused-chain pair batches: one entry per flush — gather, lane
    /// stages, and the delivery of the surviving pairs' row ids or lanes.
    ChainProbe,
    /// Fused-chain tuple building: one entry per chain, the single pass
    /// that builds the delivered rows — tuples for a consumer that reads
    /// tuples, gathered lanes otherwise — in their final order.
    ChainMaterialize,
    /// An operator building a relation's column lanes from its tuples
    /// (one entry per [`Counter::LaneBuilds`] tick).
    LaneBuild,
}

impl Site {
    /// Every site, in serialization order.
    pub const ALL: [Site; 11] = [
        Site::Driver,
        Site::ReduceScatter,
        Site::ReduceMergeSort,
        Site::ReduceKway,
        Site::AggIndex,
        Site::AggContrib,
        Site::AggFold,
        Site::ChainBuild,
        Site::ChainProbe,
        Site::ChainMaterialize,
        Site::LaneBuild,
    ];

    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            Site::Driver => "driver",
            Site::ReduceScatter => "reduce_scatter",
            Site::ReduceMergeSort => "reduce_merge_sort",
            Site::ReduceKway => "reduce_kway",
            Site::AggIndex => "agg_index",
            Site::AggContrib => "agg_contrib",
            Site::AggFold => "agg_fold",
            Site::ChainBuild => "chain_build",
            Site::ChainProbe => "chain_probe",
            Site::ChainMaterialize => "chain_materialize",
            Site::LaneBuild => "lane_build",
        }
    }
}

const BUCKETS: usize = 40;

/// A power-of-two-bucketed duration histogram: bucket `i` counts
/// durations in `[2^i, 2^(i+1))` ns (bucket 0 also takes 0 ns).
#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
    entries: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn record(&self, ns: u64) {
        let b = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Structured runtime events
// ---------------------------------------------------------------------------

/// What kind of runtime event was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEventKind {
    /// A producer panic contained at a morsel boundary.
    WorkerPanic,
    /// A deterministic test-harness fault (feature `faults`).
    Injected,
    /// The query's cancel token tripped (observed at a checkpoint).
    Cancelled,
    /// The query's wall-clock deadline passed.
    DeadlineExceeded,
    /// A resource budget was exhausted.
    BudgetExceeded,
    /// A lane run faulted and evaluation degraded to the oracle plan,
    /// once.
    Degraded,
    /// The static verifier rejected a freshly compiled program and its
    /// chain fell back to the oracle.
    VerifierRejected,
    /// The serving layer granted a query an execution slot.
    Admitted,
    /// The serving layer shed a query (queue full or wait timed out).
    Shed,
}

impl ExecEventKind {
    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            ExecEventKind::WorkerPanic => "worker_panic",
            ExecEventKind::Injected => "injected_fault",
            ExecEventKind::Cancelled => "cancelled",
            ExecEventKind::DeadlineExceeded => "deadline_exceeded",
            ExecEventKind::BudgetExceeded => "budget_exceeded",
            ExecEventKind::Degraded => "degraded_to_interpreter",
            ExecEventKind::VerifierRejected => "verifier_rejected",
            ExecEventKind::Admitted => "admitted",
            ExecEventKind::Shed => "shed",
        }
    }

    /// Governance verdicts are query-global and final (a tripped token
    /// or exhausted budget re-reports at every later checkpoint): only
    /// the *first* observation is kept in the event log.
    fn first_only(self) -> bool {
        matches!(
            self,
            ExecEventKind::Cancelled
                | ExecEventKind::DeadlineExceeded
                | ExecEventKind::BudgetExceeded
        )
    }
}

/// One observed runtime event, addressed (when known) by the driver
/// sequence number and morsel index where it was observed — the same
/// coordinate system the fault-injection harness uses, so injected
/// faults can be asserted to land exactly where they were armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecEvent {
    pub kind: ExecEventKind,
    /// Sequence number of the executor entry (drivers enter sequentially
    /// on the query thread).
    pub driver: Option<usize>,
    /// Morsel index within that entry.
    pub morsel: Option<usize>,
    /// Human-readable specifics (panic payload, tripping operator, …).
    pub detail: String,
}

/// Cap on retained events: enough for every fault-matrix scenario,
/// bounded so a pathological query cannot grow the log unboundedly.
const MAX_EVENTS: usize = 256;

// ---------------------------------------------------------------------------
// The metrics sink
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MetricsInner {
    counters: [AtomicU64; Counter::ALL.len()],
    sites: [Histogram; Site::ALL.len()],
    events: Mutex<Vec<ExecEvent>>,
    drivers: AtomicUsize,
}

/// The cheap, shard-safe metrics sink. The disabled default is a
/// `None` — every instrumentation site pays one branch and nothing
/// else. Cloning shares the sink (all of a query's executors and
/// drivers report into one set of meters).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
}

impl Metrics {
    /// The no-op sink (the default): every record is a single branch.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// A live sink with zeroed meters.
    pub fn enabled() -> Self {
        Metrics { inner: Some(Arc::new(MetricsInner::default())) }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one duration at a timed site.
    #[inline]
    pub fn record_ns(&self, s: Site, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.sites[s as usize].record(ns);
        }
    }

    /// Claim the next driver sequence number. Driver entries happen
    /// sequentially on the query thread, so this numbering matches the
    /// fault harness's (`audb_exec::faults::FaultPlan`) when both are
    /// active for the same query.
    pub fn enter_driver(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.drivers.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Append a structured event (first-only kinds dedup; the log caps
    /// at [`MAX_EVENTS`]). Long-lived sinks (a serving engine) outgrow
    /// the cap quickly, so drops are counted ([`Counter::EventsDropped`])
    /// rather than silent — dashboards can detect truncation.
    pub fn record_event(&self, ev: ExecEvent) {
        let Some(inner) = &self.inner else { return };
        let mut log = inner.events.lock().unwrap_or_else(PoisonError::into_inner);
        if log.len() >= MAX_EVENTS {
            drop(log);
            self.add(Counter::EventsDropped, 1);
            return;
        }
        if ev.kind.first_only() && log.iter().any(|e| e.kind == ev.kind) {
            return;
        }
        log.push(ev);
    }

    /// Record a structured runtime fault as an event (and bump the
    /// matching counter). `driver`/`morsel` name the checkpoint that
    /// *observed* the fault; [`ExecError::Injected`] carries its own
    /// exact firing coordinates, which win.
    pub fn record_exec_error(&self, e: &ExecError, driver: Option<usize>, morsel: Option<usize>) {
        if self.inner.is_none() {
            return;
        }
        let (kind, driver, morsel) = match e {
            ExecError::WorkerPanic { morsel: m, .. } => {
                self.add(Counter::WorkerPanics, 1);
                (ExecEventKind::WorkerPanic, driver, Some(*m))
            }
            ExecError::Injected { driver: d, morsel: m } => {
                self.add(Counter::InjectedFaults, 1);
                (ExecEventKind::Injected, Some(*d), Some(*m))
            }
            ExecError::Cancelled => (ExecEventKind::Cancelled, driver, morsel),
            ExecError::DeadlineExceeded => (ExecEventKind::DeadlineExceeded, driver, morsel),
            ExecError::BudgetExceeded { .. } => (ExecEventKind::BudgetExceeded, driver, morsel),
        };
        self.record_event(ExecEvent { kind, driver, morsel, detail: e.to_string() });
    }

    /// Drain the event log.
    pub fn take_events(&self) -> Vec<ExecEvent> {
        match &self.inner {
            Some(inner) => {
                std::mem::take(&mut *inner.events.lock().unwrap_or_else(PoisonError::into_inner))
            }
            None => Vec::new(),
        }
    }

    /// A plain-data copy of every meter, for trace embedding.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = Counter::ALL
            .iter()
            .map(|c| (c.name(), inner.counters[*c as usize].load(Ordering::Relaxed)))
            .collect();
        let sites = Site::ALL
            .iter()
            .map(|s| {
                let h = &inner.sites[*s as usize];
                SiteStats {
                    site: s.name(),
                    entries: h.entries.load(Ordering::Relaxed),
                    total_ns: h.total_ns.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then(|| (1u64 << i, n))
                        })
                        .collect(),
                }
            })
            .collect();
        MetricsSnapshot { counters, sites }
    }
}

/// Duration statistics for one timed [`Site`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteStats {
    pub site: &'static str,
    pub entries: u64,
    pub total_ns: u64,
    /// Non-empty histogram buckets as `(bucket lower bound in ns, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Plain-data copy of a [`Metrics`] sink at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(counter name, value)` for every counter, in inventory order.
    pub counters: Vec<(&'static str, u64)>,
    pub sites: Vec<SiteStats>,
}

impl MetricsSnapshot {
    /// Look up one counter by name (`None` on an empty snapshot).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// One node of the execution trace: an operator (or phase) with its
/// planner/runtime annotations and actual row/byte/time measurements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span kind: `query`, `attempt`, `scan`, `select`, `project`,
    /// `join`, `fused-chain`, `union`, `difference`, `distinct`,
    /// `aggregate`.
    pub op: String,
    /// Operator-specific description (predicate, table name, …).
    pub detail: String,
    /// Key/value annotations: planner strategy, fuse/fallback reasons,
    /// lanes-vs-oracle, morsel/worker counts, …
    pub attrs: Vec<(&'static str, String)>,
    pub rows_in: Option<u64>,
    pub rows_out: Option<u64>,
    pub bytes_out: Option<u64>,
    pub elapsed_ns: u64,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// The value of an attribute, if set.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    /// Depth-first iteration over this span and all descendants.
    pub fn walk(&self, f: &mut impl FnMut(&TraceSpan)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// The first descendant (or self) with the given op kind.
    pub fn find(&self, op: &str) -> Option<&TraceSpan> {
        if self.op == op {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(op))
    }
}

/// A finished execution trace: the span tree plus the runtime's event
/// log and metric meters, serializable as EXPLAIN ANALYZE text
/// ([`QueryTrace::render_text`], also the `Display` impl) or versioned
/// JSON ([`QueryTrace::to_json`]).
#[must_use = "a trace is the whole point of a traced evaluation; render or inspect it"]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// [`TRACE_SCHEMA_VERSION`] at serialization time.
    pub version: u32,
    /// Engine-configuration echo: `(knob, value)` pairs.
    pub engine: Vec<(&'static str, String)>,
    pub root: TraceSpan,
    pub events: Vec<ExecEvent>,
    pub metrics: MetricsSnapshot,
    /// Wall-clock for the whole evaluation, including trace assembly.
    pub total_ns: u64,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

fn span_json(s: &TraceSpan, out: &mut String) {
    out.push_str(&format!(
        "{{\"op\":\"{}\",\"detail\":\"{}\",\"attrs\":{{",
        json_escape(&s.op),
        json_escape(&s.detail)
    ));
    for (i, (k, v)) in s.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    out.push_str(&format!(
        "}},\"rows_in\":{},\"rows_out\":{},\"bytes_out\":{},\"elapsed_ns\":{},\"children\":[",
        json_opt(s.rows_in),
        json_opt(s.rows_out),
        json_opt(s.bytes_out),
        s.elapsed_ns
    ));
    for (i, c) in s.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(c, out);
    }
    out.push_str("]}");
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn span_text(s: &TraceSpan, prefix: &str, last: bool, top: bool, out: &mut String) {
    let branch = if top {
        String::new()
    } else {
        format!("{prefix}{}", if last { "└─ " } else { "├─ " })
    };
    let mut line = format!("{branch}{}", s.op);
    if !s.detail.is_empty() {
        line.push_str(&format!(" {}", s.detail));
    }
    for (k, v) in &s.attrs {
        line.push_str(&format!(" {k}={v}"));
    }
    let mut meas: Vec<String> = Vec::new();
    if let Some(n) = s.rows_in {
        meas.push(format!("rows_in={n}"));
    }
    if let Some(n) = s.rows_out {
        meas.push(format!("rows={n}"));
    }
    if let Some(n) = s.bytes_out {
        meas.push(format!("bytes={n}"));
    }
    meas.push(format!("time={}", fmt_ns(s.elapsed_ns)));
    line.push_str(&format!("  ({})", meas.join(" ")));
    out.push_str(&line);
    out.push('\n');
    let child_prefix =
        if top { String::new() } else { format!("{prefix}{}", if last { "   " } else { "│  " }) };
    for (i, c) in s.children.iter().enumerate() {
        span_text(c, &child_prefix, i + 1 == s.children.len(), false, out);
    }
}

impl QueryTrace {
    /// Serialize as versioned JSON (schema in `docs/observability.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"version\":{},\"engine\":{{", self.version));
        for (i, (k, v)) in self.engine.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
        }
        out.push_str(&format!("}},\"total_ns\":{},\"root\":", self.total_ns));
        span_json(&self.root, &mut out);
        out.push_str(",\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"driver\":{},\"morsel\":{},\"detail\":\"{}\"}}",
                e.kind.name(),
                json_opt(e.driver.map(|d| d as u64)),
                json_opt(e.morsel.map(|m| m as u64)),
                json_escape(&e.detail)
            ));
        }
        out.push_str("],\"metrics\":{\"counters\":{");
        for (i, (k, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"sites\":[");
        for (i, s) in self.metrics.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"site\":\"{}\",\"entries\":{},\"total_ns\":{},\"buckets\":[",
                s.site, s.entries, s.total_ns
            ));
            for (j, (lo, n)) in s.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{lo},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("]}}");
        out
    }

    /// The EXPLAIN ANALYZE rendering: the annotated plan tree followed
    /// by runtime events and non-zero meters.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let engine: Vec<String> = self.engine.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!("engine: {}\n", engine.join(" ")));
        span_text(&self.root, "", true, true, &mut out);
        if !self.events.is_empty() {
            out.push_str("events:\n");
            for e in &self.events {
                let at = match (e.driver, e.morsel) {
                    (Some(d), Some(m)) => format!(" @ driver {d} morsel {m}"),
                    (None, Some(m)) => format!(" @ morsel {m}"),
                    _ => String::new(),
                };
                out.push_str(&format!("  {}{}: {}\n", e.kind.name(), at, e.detail));
            }
        }
        let nonzero: Vec<String> = self
            .metrics
            .counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if !nonzero.is_empty() {
            out.push_str(&format!("counters: {}\n", nonzero.join(" ")));
        }
        for s in &self.metrics.sites {
            if s.entries > 0 {
                out.push_str(&format!(
                    "site {}: entries={} total={}\n",
                    s.site,
                    s.entries,
                    fmt_ns(s.total_ns)
                ));
            }
        }
        out.push_str(&format!("total: {}\n", fmt_ns(self.total_ns)));
        out
    }
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

// ---------------------------------------------------------------------------
// The span builder
// ---------------------------------------------------------------------------

struct SpanNode {
    span: TraceSpan,
    parent: Option<usize>,
    started: Instant,
    open: bool,
}

struct TraceInner {
    arena: Vec<SpanNode>,
    stack: Vec<usize>,
}

/// Builds the span tree during evaluation. Lives on the query thread
/// only (operators parallelize internally, but the plan tree is walked
/// sequentially), so this is plain `RefCell` state — deliberately NOT
/// `Sync`, which is why it is passed alongside the executor rather than
/// stored inside it.
///
/// Handles are arena indices; the disabled builder hands out a sentinel
/// and ignores every call, so untraced evaluation pays one branch per
/// span site.
#[derive(Default)]
pub struct TraceBuilder {
    inner: Option<RefCell<TraceInner>>,
}

/// Sentinel handle of the disabled builder.
const NO_SPAN: usize = usize::MAX;

impl TraceBuilder {
    /// The no-op builder (the default).
    pub fn disabled() -> Self {
        TraceBuilder { inner: None }
    }

    /// A live builder with an empty arena.
    pub fn enabled() -> Self {
        TraceBuilder {
            inner: Some(RefCell::new(TraceInner { arena: Vec::new(), stack: Vec::new() })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span as a child of the innermost open span. `detail` is
    /// lazy so the disabled path never formats anything.
    pub fn open(&self, op: &'static str, detail: impl FnOnce() -> String) -> usize {
        let Some(inner) = &self.inner else { return NO_SPAN };
        let mut t = inner.borrow_mut();
        let parent = t.stack.last().copied();
        let id = t.arena.len();
        t.arena.push(SpanNode {
            span: TraceSpan { op: op.to_string(), detail: detail(), ..TraceSpan::default() },
            parent,
            started: Instant::now(),
            open: true,
        });
        t.stack.push(id);
        id
    }

    /// Attach a key/value annotation to an open span.
    pub fn attr(&self, h: usize, key: &'static str, value: impl FnOnce() -> String) {
        let Some(inner) = &self.inner else { return };
        let mut t = inner.borrow_mut();
        if let Some(node) = t.arena.get_mut(h) {
            node.span.attrs.push((key, value()));
        }
    }

    /// Record the span's input cardinality.
    pub fn rows_in(&self, h: usize, rows: u64) {
        let Some(inner) = &self.inner else { return };
        let mut t = inner.borrow_mut();
        if let Some(node) = t.arena.get_mut(h) {
            node.span.rows_in = Some(rows);
        }
    }

    /// Close a span, recording output measurements and elapsed time.
    /// Any inner spans still open (error unwinds) close with it.
    pub fn close(&self, h: usize, rows_out: Option<u64>, bytes_out: Option<u64>) {
        let Some(inner) = &self.inner else { return };
        let mut t = inner.borrow_mut();
        while let Some(&top) = t.stack.last() {
            t.stack.pop();
            let node = &mut t.arena[top];
            node.open = false;
            node.span.elapsed_ns = node.started.elapsed().as_nanos() as u64;
            if top == h {
                node.span.rows_out = rows_out;
                node.span.bytes_out = bytes_out;
                break;
            }
        }
    }

    /// Close every open span above stack depth `keep`, tagging each
    /// with the error — the failed-attempt unwind before a degradation
    /// retry opens its spans at the right depth.
    pub fn unwind(&self, keep: usize, error: &str) {
        let Some(inner) = &self.inner else { return };
        let mut t = inner.borrow_mut();
        while t.stack.len() > keep {
            let Some(top) = t.stack.pop() else { break };
            let node = &mut t.arena[top];
            node.open = false;
            node.span.elapsed_ns = node.started.elapsed().as_nanos() as u64;
            node.span.attrs.push(("error", error.to_string()));
        }
    }

    /// Current open-span depth (for [`TraceBuilder::unwind`] anchors).
    pub fn depth(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.borrow().stack.len(),
            None => 0,
        }
    }

    /// Finish the trace: close any spans still open and assemble the
    /// tree. Multiple roots (shouldn't happen when the caller opened a
    /// top-level span first) are wrapped in a synthetic `query` root.
    /// Returns `None` for the disabled builder.
    pub fn finish(self) -> Option<TraceSpan> {
        let inner = self.inner?;
        let mut t = inner.into_inner();
        while let Some(top) = t.stack.pop() {
            let node = &mut t.arena[top];
            node.open = false;
            node.span.elapsed_ns = node.started.elapsed().as_nanos() as u64;
        }
        // Assemble bottom-up: children were pushed after their parents,
        // so a reverse sweep moves each span into its parent with
        // sibling order preserved (each parent's children are collected
        // in reverse, then reversed once).
        let n = t.arena.len();
        let mut spans: Vec<Option<TraceSpan>> = Vec::with_capacity(n);
        let mut parents: Vec<Option<usize>> = Vec::with_capacity(n);
        for node in t.arena {
            spans.push(Some(node.span));
            parents.push(node.parent);
        }
        for i in (0..n).rev() {
            if let Some(p) = parents[i] {
                if let Some(child) = spans[i].take() {
                    if let Some(parent) = spans[p].as_mut() {
                        parent.children.push(child);
                    }
                }
            }
        }
        let mut roots: Vec<TraceSpan> = spans
            .into_iter()
            .flatten()
            .map(|mut s| {
                fix_child_order(&mut s);
                s
            })
            .collect();
        match roots.len() {
            0 => Some(TraceSpan::default()),
            1 => roots.pop(),
            _ => {
                Some(TraceSpan { op: "query".to_string(), children: roots, ..TraceSpan::default() })
            }
        }
    }
}

/// The reverse assembly sweep pushes children in reverse sibling order;
/// restore arena (= execution) order throughout the tree.
fn fix_child_order(s: &mut TraceSpan) {
    s.children.reverse();
    for c in &mut s.children {
        fix_child_order(c);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_are_noops() {
        let m = Metrics::disabled();
        m.add(Counter::MorselsDispatched, 5);
        m.record_ns(Site::Driver, 100);
        m.record_event(ExecEvent {
            kind: ExecEventKind::Cancelled,
            driver: None,
            morsel: None,
            detail: String::new(),
        });
        assert!(!m.is_enabled());
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert!(m.take_events().is_empty());
    }

    #[test]
    fn counters_and_sites_accumulate() {
        let m = Metrics::enabled();
        m.add(Counter::MorselsDispatched, 3);
        m.add(Counter::MorselsDispatched, 2);
        m.record_ns(Site::Driver, 1000);
        m.record_ns(Site::Driver, 3000);
        let snap = m.snapshot();
        assert_eq!(snap.counter("morsels_dispatched"), Some(5));
        assert_eq!(snap.counter("cancel_checks"), Some(0));
        let driver = &snap.sites[Site::Driver as usize];
        assert_eq!(driver.entries, 2);
        assert_eq!(driver.total_ns, 4000);
        assert!(!driver.buckets.is_empty());
    }

    #[test]
    fn clone_shares_meters() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m2.add(Counter::NormalizeRuns, 1);
        assert_eq!(m.snapshot().counter("normalize_runs"), Some(1));
    }

    #[test]
    fn governance_verdicts_dedup_to_first() {
        let m = Metrics::enabled();
        for i in 0..3 {
            m.record_exec_error(&ExecError::Cancelled, Some(0), Some(i));
        }
        m.record_exec_error(
            &ExecError::WorkerPanic { morsel: 7, payload: "x".into() },
            Some(1),
            Some(7),
        );
        m.record_exec_error(
            &ExecError::WorkerPanic { morsel: 8, payload: "y".into() },
            Some(1),
            Some(8),
        );
        let events = m.take_events();
        assert_eq!(events.len(), 3, "{events:?}");
        assert_eq!(events[0].kind, ExecEventKind::Cancelled);
        assert_eq!(events[0].morsel, Some(0), "first cancel observation wins");
        assert_eq!(m.snapshot().counter("worker_panics"), Some(2));
    }

    #[test]
    fn injected_coordinates_come_from_the_error() {
        let m = Metrics::enabled();
        m.record_exec_error(&ExecError::Injected { driver: 3, morsel: 9 }, Some(0), Some(0));
        let ev = &m.take_events()[0];
        assert_eq!((ev.driver, ev.morsel), (Some(3), Some(9)));
    }

    #[test]
    fn event_log_saturation_counts_drops() {
        let m = Metrics::enabled();
        for i in 0..MAX_EVENTS + 10 {
            m.record_event(ExecEvent {
                kind: ExecEventKind::WorkerPanic,
                driver: Some(0),
                morsel: Some(i),
                detail: String::new(),
            });
        }
        assert_eq!(m.snapshot().counter("events_dropped"), Some(10));
        assert_eq!(m.take_events().len(), MAX_EVENTS);
        // the drained log frees capacity: appends count drops no more
        m.record_event(ExecEvent {
            kind: ExecEventKind::WorkerPanic,
            driver: None,
            morsel: None,
            detail: String::new(),
        });
        assert_eq!(m.snapshot().counter("events_dropped"), Some(10));
    }

    #[test]
    fn driver_numbering_is_sequential() {
        let m = Metrics::enabled();
        assert_eq!(m.enter_driver(), 0);
        assert_eq!(m.enter_driver(), 1);
        assert_eq!(Metrics::disabled().enter_driver(), 0);
    }

    #[test]
    fn trace_builder_nests_and_orders_children() {
        let tr = TraceBuilder::enabled();
        let root = tr.open("query", || "q".into());
        let a = tr.open("select", || "p1".into());
        tr.close(a, Some(10), None);
        let b = tr.open("join", || "p2".into());
        let c = tr.open("scan", || "t".into());
        tr.close(c, Some(5), Some(100));
        tr.close(b, Some(20), None);
        tr.rows_in(root, 30);
        tr.close(root, Some(20), Some(400));
        let span = tr.finish().unwrap_or_default();
        assert_eq!(span.op, "query");
        assert_eq!(span.rows_in, Some(30));
        assert_eq!(span.children.len(), 2);
        assert_eq!(span.children[0].op, "select");
        assert_eq!(span.children[1].op, "join");
        assert_eq!(span.children[1].children[0].op, "scan");
        assert_eq!(span.children[1].children[0].bytes_out, Some(100));
    }

    #[test]
    fn unwind_closes_and_tags_open_spans() {
        let tr = TraceBuilder::enabled();
        let root = tr.open("query", String::new);
        let _a = tr.open("attempt", String::new);
        let _b = tr.open("join", String::new);
        assert_eq!(tr.depth(), 3);
        tr.unwind(1, "boom");
        assert_eq!(tr.depth(), 1);
        let retry = tr.open("attempt", || "retry".into());
        tr.close(retry, Some(1), None);
        tr.close(root, Some(1), None);
        let span = tr.finish().unwrap_or_default();
        assert_eq!(span.children.len(), 2, "failed + retry attempts side by side");
        assert_eq!(span.children[0].attr("error"), Some("boom"));
        assert_eq!(span.children[0].children[0].attr("error"), Some("boom"));
        assert_eq!(span.children[1].detail, "retry");
    }

    #[test]
    fn disabled_builder_is_inert() {
        let tr = TraceBuilder::disabled();
        let h = tr.open("query", || unreachable!("detail must stay lazy"));
        tr.attr(h, "k", || unreachable!());
        tr.close(h, Some(1), None);
        assert!(tr.finish().is_none());
    }

    #[test]
    fn trace_serializes_to_json_and_text() {
        let tr = TraceBuilder::enabled();
        let root = tr.open("query", || "σ[x](\"t\")".into());
        let s = tr.open("select", || "x > 1".into());
        tr.attr(s, "compiled", || "true".into());
        tr.close(s, Some(3), None);
        tr.close(root, Some(3), Some(42));
        let m = Metrics::enabled();
        m.add(Counter::MorselsDispatched, 2);
        m.record_exec_error(&ExecError::Injected { driver: 0, morsel: 1 }, None, None);
        let trace = QueryTrace {
            version: TRACE_SCHEMA_VERSION,
            engine: vec![("workers", "4".to_string())],
            root: tr.finish().unwrap_or_default(),
            events: m.take_events(),
            metrics: m.snapshot(),
            total_ns: 12345,
        };
        let json = trace.to_json();
        assert!(json.starts_with("{\"version\":7,"), "{json}");
        assert!(json.contains("\"engine\":{\"workers\":\"4\"}"), "{json}");
        assert!(json.contains("\"op\":\"select\""), "{json}");
        assert!(json.contains("\"compiled\":\"true\""), "{json}");
        assert!(json.contains("\"kind\":\"injected_fault\""), "{json}");
        assert!(json.contains("\"morsels_dispatched\":2"), "{json}");
        // escaping: the quote inside the query detail is escaped
        assert!(json.contains("σ[x](\\\"t\\\")"), "{json}");
        let text = trace.render_text();
        assert!(text.contains("query"), "{text}");
        assert!(text.contains("└─ select"), "{text}");
        assert!(text.contains("rows=3"), "{text}");
        assert!(text.contains("injected_fault"), "{text}");
        assert!(text.contains("morsels_dispatched=2"), "{text}");
        assert_eq!(format!("{trace}"), text);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let m = Metrics::enabled();
        m.record_ns(Site::ReduceKway, 0);
        m.record_ns(Site::ReduceKway, 1);
        m.record_ns(Site::ReduceKway, 1024);
        m.record_ns(Site::ReduceKway, 1500);
        let snap = m.snapshot();
        let k = &snap.sites[Site::ReduceKway as usize];
        assert_eq!(k.entries, 4);
        // 0 and 1 land in bucket 2^0; 1024 and 1500 in bucket 2^10
        assert_eq!(k.buckets, vec![(1, 2), (1024, 2)]);
    }
}
