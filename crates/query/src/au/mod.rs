//! Native AU-DB query semantics (Sections 7–9): bound-preserving
//! evaluation of `RA^agg` directly over [`AuRelation`]s.
//!
//! * `RA+` (Section 7): standard `K_AU`-relational semantics where
//!   selection conditions evaluate to boolean triples mapped into
//!   annotations by `M_K` (Definition 19);
//! * set difference (Section 8) via the SG-combiner `Ψ`;
//! * grouping/aggregation (Section 9) with the default grouping
//!   strategy;
//! * optional compaction (Section 10.4/10.5) configured per query.

pub mod aggregate;
pub mod combine;
pub mod difference;
pub(crate) mod pipeline;

use pipeline::run_governed;
pub use pipeline::AuPlan;

use std::sync::Arc;
use std::time::{Duration, Instant};

use audb_core::obs::{
    Counter, ExecEvent, ExecEventKind, Metrics, QueryTrace, Site, TraceBuilder,
    TRACE_SCHEMA_VERSION,
};
use audb_core::{AuAnnot, Budget, BudgetSpec, CancelToken, EvalError, Expr, Semiring};
use audb_exec::Executor;
use audb_storage::{AuDatabase, AuRelation, ColumnSet, GatherView, RangeTuple, Schema};

use crate::algebra::Query;
use crate::opt;
use crate::planner;

/// Evaluation options: `None` disables an optimization, `Some(ct)` bounds
/// the compressed possible-side of joins/aggregation to `ct` tuples
/// (the paper's "CT" knob in Figures 13–16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuConfig {
    /// Apply the split/compress join optimization (Section 10.4).
    pub join_compress: Option<usize>,
    /// Apply the compressed-possible-side aggregation optimization
    /// (Section 10.5).
    pub agg_compress: Option<usize>,
    /// Skip split/compress on inputs too small or too certain for the
    /// compression to pay for itself (see [`opt::join_compression_pays_off`]
    /// and [`opt::agg_compression_pays_off`]). Off by default so explicit
    /// `join_compress`/`agg_compress` settings keep their forced meaning;
    /// [`AuConfig::compressed`] turns it on.
    pub adaptive: bool,
    /// Worker threads for the partition-parallel operator drivers:
    /// `None` uses all available hardware threads, `Some(1)` is the
    /// exact sequential behavior. Any value produces identical results
    /// (`tests/exec_equivalence.rs`).
    pub workers: Option<usize>,
    /// Wall-clock deadline for the whole query: [`AuConfig::executor`]
    /// arms a [`CancelToken`] with this timeout and every operator
    /// driver checks it at morsel boundaries and inside
    /// compiled-chain row sweeps. An expired deadline surfaces as
    /// [`audb_core::ExecError::DeadlineExceeded`] within one morsel of
    /// work. `None` (the default) runs ungoverned.
    pub timeout: Option<Duration>,
    /// Resource budget for the query: a per-query [`Budget`] charged by
    /// the expanding operators (join probe output, pipeline-breaker
    /// buffers, normalization's input). Exceeding it surfaces as
    /// [`audb_core::ExecError::BudgetExceeded`] naming the tripping
    /// operator. `None` (the default) is unlimited.
    pub budget: Option<BudgetSpec>,
}

impl AuConfig {
    /// Fully precise evaluation (the formal semantics, no compaction):
    /// the same configuration as [`AuConfig::default`], so a check over
    /// `{precise, compressed(ct), default}` runs the precise one twice —
    /// a forced compressed configuration needs `adaptive: false`.
    pub fn precise() -> Self {
        AuConfig::default()
    }

    /// Compact intermediate results to at most `ct` possible tuples —
    /// adaptively: inputs below the compression thresholds evaluate
    /// precisely instead (tighter bounds *and* faster at small scale:
    /// on TPC-H at 2 % uncertain cells forced compression reads 2–3×
    /// the adaptive time, ROADMAP item 1).
    pub fn compressed(ct: usize) -> Self {
        AuConfig {
            join_compress: Some(ct),
            agg_compress: Some(ct),
            adaptive: true,
            ..AuConfig::default()
        }
    }

    /// Set an explicit worker count (1 = sequential).
    #[must_use = "builder methods return the modified config; dropping it leaves the original unchanged"]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Set a wall-clock deadline for the query.
    #[must_use = "builder methods return the modified config; dropping it leaves the query ungoverned"]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Set a resource budget for the query.
    #[must_use = "builder methods return the modified config; dropping it leaves the query ungoverned"]
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The executor this configuration's three resource knobs ask for —
    /// [`AuConfig::workers`] threads, a [`CancelToken`] whose deadline
    /// ([`AuConfig::timeout`]) starts now, a fresh [`Budget`]
    /// ([`AuConfig::budget`]) — and the one place that builds one.
    /// Everything else a caller wants on it (a metrics sink, a shared
    /// [`audb_exec::WorkerGate`], its own token, a test's
    /// [`audb_exec::Partitioner`]) it adds with the executor's own
    /// builders before handing it to [`eval_au_attempt`].
    pub fn executor(&self) -> Executor {
        let mut exec = Executor::from_option(self.workers);
        if let Some(timeout) = self.timeout {
            exec = exec.with_cancel(CancelToken::with_deadline_in(timeout));
        }
        if let Some(spec) = self.budget {
            exec = exec.with_budget(Budget::new(spec));
        }
        exec
    }
}

/// Evaluate a query over an AU-database.
///
/// Maximal chains of row-local operators run morsel-at-a-time through
/// [`pipeline`], paying one normalization per pipeline breaker instead
/// of one per operator — under every configuration: a join that
/// compresses ([`AuConfig::join_compress`]) is a breaker inside that
/// planner, not a reason to leave it. The result is byte-identical to
/// the operator-at-a-time oracle's ([`AuPlan::oracle`]), for any worker
/// count and any split.
///
/// Derive, attempt, degrade once: the executor is
/// [`AuConfig::executor`] (deadline, fresh budget; faults surface as
/// [`EvalError::Exec`]), the attempt is [`eval_au_attempt`], and a
/// *non-resource* fault of it (a worker panic or injected error — not
/// cancellation, deadline, or budget exhaustion) is answered once from
/// the oracle plan with a fresh budget ([`degrade_once`], the rule the
/// serving engine follows too). A fault of the oracle surfaces.
pub fn eval_au(db: &AuDatabase, q: &Query, cfg: &AuConfig) -> Result<AuRelation, EvalError> {
    eval_au_governed(db, q, cfg, &Metrics::disabled(), &TraceBuilder::disabled())
}

/// [`eval_au`] with full observability: a fresh [`Metrics`] sink and
/// span builder are enabled for this query and the result is returned
/// together with its [`QueryTrace`]. Enabling them never changes the
/// result — the traced relation is byte-identical to [`eval_au`]'s
/// (`tests/observability.rs` pins this across workers × splits).
pub fn eval_au_traced(
    db: &AuDatabase,
    q: &Query,
    cfg: &AuConfig,
) -> Result<(AuRelation, QueryTrace), EvalError> {
    let (result, trace) = eval_au_traced_full(db, q, cfg);
    result.map(|rel| (rel, trace))
}

/// [`eval_au_traced`], but the trace survives failure: the result and
/// the trace come back side by side, so a failed query can still be
/// post-mortemed — its events carry the fault's driver/morsel
/// coordinates and every span closed by the unwind is tagged with the
/// error.
#[must_use = "the result carries the query outcome and the trace carries its post-mortem"]
pub fn eval_au_traced_full(
    db: &AuDatabase,
    q: &Query,
    cfg: &AuConfig,
) -> (Result<AuRelation, EvalError>, QueryTrace) {
    let metrics = Metrics::enabled();
    let tr = TraceBuilder::enabled();
    let started = Instant::now();
    let root = tr.open("query", || q.to_string());
    let result = eval_au_governed(db, q, cfg, &metrics, &tr);
    match &result {
        Ok(rel) => tr.close(root, Some(rel.len() as u64), Some(rel.estimated_bytes())),
        Err(e) => {
            // Governance verdicts can surface outside a driver (batch
            // sweeps check the token directly); the event log dedups to
            // the first observation, so re-reporting here only fills the
            // gap. Panics/injected faults always pass a driver, which
            // already recorded them with exact coordinates.
            if let EvalError::Exec(xe) = e {
                if xe.is_resource_limit() {
                    metrics.record_exec_error(xe, None, None);
                }
            }
            tr.unwind(0, &e.to_string());
        }
    }
    let trace = QueryTrace {
        version: TRACE_SCHEMA_VERSION,
        engine: engine_config(cfg),
        root: tr.finish().unwrap_or_default(),
        events: metrics.take_events(),
        metrics: metrics.snapshot(),
        total_ns: started.elapsed().as_nanos() as u64,
    };
    (result, trace)
}

/// EXPLAIN ANALYZE: evaluate the query with full observability and
/// return the annotated plan (the result relation is discarded). Its
/// `Display` rendering is the human-readable plan tree with actual
/// rows/bytes/timings; [`QueryTrace::to_json`] is the versioned machine
/// form.
pub fn explain(db: &AuDatabase, q: &Query, cfg: &AuConfig) -> Result<QueryTrace, EvalError> {
    Ok(eval_au_traced(db, q, cfg)?.1)
}

/// The engine-configuration echo embedded in every trace: resolved
/// worker count and the knobs that decide which execution paths fire.
fn engine_config(cfg: &AuConfig) -> Vec<(&'static str, String)> {
    let opt = |v: Option<usize>| v.map_or_else(|| "none".to_string(), |x| x.to_string());
    vec![
        (
            "workers",
            cfg.workers
                .map_or_else(|| Executor::default().workers().to_string(), |w| w.to_string()),
        ),
        ("adaptive", cfg.adaptive.to_string()),
        ("join_compress", opt(cfg.join_compress)),
        ("agg_compress", opt(cfg.agg_compress)),
        ("timeout", cfg.timeout.map_or_else(|| "none".to_string(), |t| format!("{t:?}"))),
        ("budget", if cfg.budget.is_some() { "set" } else { "none" }.to_string()),
    ]
}

fn eval_au_governed(
    db: &AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    metrics: &Metrics,
    tr: &TraceBuilder,
) -> Result<AuRelation, EvalError> {
    let exec = cfg.executor().with_metrics(metrics.clone());
    degrade_once(&|| eval_au_attempt(db, q, cfg, &exec, tr), db, q, cfg, &exec, tr)
        .map(|(rel, _)| rel)
}

/// The engine's one lane → oracle fallback, which [`eval_au`] and the
/// serving engine both take: run the lane attempt `lanes`, and when it
/// fails with a *non-resource* fault (a contained worker panic, a kept
/// plan failing its Tier A re-check, an injected fault) tick
/// [`Counter::Degradations`], record a `Degraded` event and answer from
/// `q`'s oracle plan ([`AuPlan::oracle`]) — once, on `exec` with a fresh
/// [`AuConfig::budget`]. Resource verdicts (cancelled / deadline /
/// budget) are not retried: a second attempt would only burn more of the
/// exhausted resource, and the cancel token stays the first attempt's, so
/// an expired deadline cuts the oracle short too. A query error, a
/// resource verdict and a fault of the oracle surface. The flag says
/// whether the oracle answered.
///
/// `lanes` is a `&dyn Fn`, not a generic: one instance, not one per
/// caller, keeps `audb_query`'s code layout — a generic version read
/// `au_rel_p50 @ join_spine` 5 % slower in every pair measured, with no
/// change on the path that query runs.
pub fn degrade_once(
    lanes: &dyn Fn() -> Result<AuRelation, EvalError>,
    db: &AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    exec: &Executor,
    tr: &TraceBuilder,
) -> Result<(AuRelation, bool), EvalError> {
    let depth = tr.depth();
    match lanes() {
        Err(EvalError::Exec(e)) if !e.is_resource_limit() => {
            exec.metrics().add(Counter::Degradations, 1);
            exec.metrics().record_event(ExecEvent {
                kind: ExecEventKind::Degraded,
                driver: None,
                morsel: None,
                detail: e.to_string(),
            });
            tr.unwind(depth, &e.to_string());
            let retry = match cfg.budget {
                Some(spec) => exec.clone().with_budget(Budget::new(spec)),
                None => exec.clone(),
            };
            let rel = AuPlan::oracle(q, cfg, tr).attempt(false, db, &retry, tr)?;
            Ok((rel, true))
        }
        other => other.map(|rel| (rel, false)),
    }
}

/// One evaluation attempt on the caller's executor — plan
/// ([`AuPlan::new`]), then run — single, and never degrading: a
/// lane-path fault surfaces to the caller: [`degrade_once`], which
/// [`eval_au`] and the serving engine wrap around a lane run, or a
/// differential test, which must not compare the oracle with itself. A
/// caller that keeps the plan runs it with [`AuPlan::run`] instead.
///
/// `cfg`'s result knobs (compression, `adaptive`) stop at the
/// planner; workers, deadline, budget and everything else about *how*
/// the query runs is `exec` — [`AuConfig::executor`], plus whatever the
/// caller added to it. `tr` is the caller's trace builder
/// ([`TraceBuilder::disabled`] for none).
pub fn eval_au_attempt(
    db: &AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    exec: &Executor,
    tr: &TraceBuilder,
) -> Result<AuRelation, EvalError> {
    AuPlan::new(q, cfg, exec.metrics(), tr).attempt(false, db, exec, tr)
}

/// The lanes of `rel` for an operator that reads lanes. A relation that
/// has none yet — a cold base table, an intermediate born of rows —
/// builds them from its tuples here: the hand-over the `lane_build` site
/// times and the `lane_builds` counter counts.
pub(crate) fn lanes_of(rel: &AuRelation, exec: &Executor) -> Arc<ColumnSet> {
    if rel.has_columns() {
        return rel.columns();
    }
    let metrics = exec.metrics();
    let started = metrics.is_enabled().then(Instant::now);
    let lanes = rel.columns();
    if let Some(t) = started {
        metrics.record_ns(Site::LaneBuild, t.elapsed().as_nanos() as u64);
    }
    metrics.add(Counter::LaneBuilds, 1);
    lanes
}

/// The first `annots.len()` rows of `cs`, row `i` annotated `annots[i]`,
/// normalized on the lanes into a relation born columnar — the tail of
/// `−` and `∪`.
pub(crate) fn normalized_lanes(
    schema: Schema,
    cs: &ColumnSet,
    annots: &[AuAnnot],
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let view = GatherView::new(cs.lane_slices().into_iter().map(|c| (c, None)).collect());
    let kept = AuRelation::normalized_view_rows(&view, annots, exec)?;
    Ok(AuRelation::from_columns(schema, Arc::new(view.lanes(kept.into_iter())), true))
}

/// Close an operator span with the relation's actual cardinality and
/// estimated byte size (sizes are only computed when tracing is live).
pub(crate) fn close_rel(tr: &TraceBuilder, h: usize, rel: &AuRelation) {
    if tr.is_enabled() {
        tr.close(h, Some(rel.len() as u64), Some(rel.estimated_bytes()));
    }
}

/// A `join` span's detail: the predicate.
pub(crate) fn join_detail(predicate: Option<&Expr>) -> String {
    predicate.map_or_else(|| "cross".to_string(), ToString::to_string)
}

/// The join-compression setting after the adaptive check — taken on the
/// evaluated inputs, by the oracle and the chain planner alike.
pub(crate) fn effective_join_compress(
    cfg: &AuConfig,
    l: &AuRelation,
    r: &AuRelation,
) -> Option<usize> {
    cfg.join_compress.filter(|_| !cfg.adaptive || opt::join_compression_pays_off(l, r))
}

/// Partition-parallel selection (Definition 20): multiply each tuple's
/// annotation with `M_N(⟦θ⟧)` of the range-annotated condition result.
/// Selection *preserves normal form*: kept rows keep their tuples and
/// relative order, and the `M_N(⟦θ⟧)` factor has `ub = 1` whenever a
/// row survives, so annotations stay
/// nonzero — a normalized input therefore yields a normalized output
/// (sorted, distinct, zero-free) and the pipeline's final
/// normalization is free instead of a full sort-merge.
pub fn select_au_exec(
    rel: &AuRelation,
    predicate: &Expr,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let rows = exec.run(rel.len(), |morsel, out| {
        for i in morsel {
            let (t, k) = &rel.rows()[i];
            let (lb, sg, ub) = predicate.eval_range_bool3(t.values())?;
            if !ub {
                continue; // certainly false in all worlds
            }
            let m = AuAnnot::from_bool3(lb, sg, ub);
            out.push((t.clone(), k.times(&m)));
        }
        Ok::<(), EvalError>(())
    })?;
    if rel.is_normalized() {
        Ok(AuRelation::from_normalized_rows(rel.schema.clone(), rows))
    } else {
        let mut out = AuRelation::empty(rel.schema.clone());
        out.append_rows(rows);
        Ok(out)
    }
}

/// Partition-parallel generalized projection: evaluate each projection
/// expression with the range-annotated semantics; identical range tuples
/// merge on the sort-merge driver.
pub fn project_au_exec(
    rel: &AuRelation,
    exprs: &[(Expr, String)],
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let schema = Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect());
    let rows = exec.run(rel.len(), |morsel, out| {
        for i in morsel {
            let (t, k) = &rel.rows()[i];
            let vals: Result<Vec<_>, _> =
                exprs.iter().map(|(e, _)| e.eval_range(t.values())).collect();
            out.push((audb_storage::RangeTuple::new(vals?), *k));
        }
        Ok::<(), EvalError>(())
    })?;
    let mut out = AuRelation::empty(schema);
    out.append_rows(rows);
    out.normalize_with(exec)?;
    Ok(out)
}

/// Theta-join with the formal semantics: routed through the join
/// planner, which picks a hash / interval-sweep strategy when the
/// predicate admits one and falls back to [`nested_loop_join_au`]
/// otherwise. All strategies produce the nested-loop rows exactly (up to
/// normalization).
pub fn join_au(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
) -> Result<AuRelation, EvalError> {
    planner::join_au_planned_exec(l, r, predicate, &Executor::default())
}

/// The unoptimized reference join: cross product with annotation
/// multiplication, filtered by the range-annotated predicate — range
/// predicates degenerate to interval-overlap tests, hence nested loops
/// (the bottleneck Section 10.4 addresses). Kept as the planner's
/// fallback and as the oracle for join equivalence tests.
pub fn nested_loop_join_au(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
) -> Result<AuRelation, EvalError> {
    nested_loop_join_au_exec(l, r, predicate, &Executor::sequential())
}

/// [`nested_loop_join_au`] on the executor runtime: left rows partition
/// into morsels (the ordered merge keeps the row list byte-identical to
/// the sequential loop), producer panics are contained, and the
/// cross-product expansion is *governed* — the cancel token is
/// re-checked and the accumulated output charged to the budget
/// (operator `"join-probe"`) every 1024 emitted rows, so even a
/// predicate-less cross join overshoots its limits by at most that
/// many rows per morsel in flight.
pub fn nested_loop_join_au_exec(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let schema = l.schema.concat(&r.schema);
    let rows = run_governed(exec, "join-probe", l.len(), Vec::new, |buf, i, out| {
        let (tl, kl) = &l.rows()[i];
        for (tr, kr) in r.rows() {
            tl.concat_into(tr, buf);
            let mut k = kl.times(kr);
            if let Some(p) = predicate {
                let (plb, psg, pub_) = p.eval_range_bool3(buf)?;
                if !pub_ {
                    continue;
                }
                k = k.times(&AuAnnot::from_bool3(plb, psg, pub_));
            }
            out.push((RangeTuple::new(buf.clone()), k))?;
        }
        Ok(())
    })?;
    let mut out = AuRelation::empty(schema);
    out.append_rows(rows);
    Ok(out)
}

/// Bag union: annotation addition in `N_AU`. The two sides' lanes are
/// appended and the merge runs on the sort-merge driver over them;
/// the result is born columnar, under the left schema.
pub fn union_au_exec(
    l: &AuRelation,
    r: &AuRelation,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    l.schema.check_union_compatible(&r.schema)?;
    let mut all = ColumnSet::clone(&lanes_of(l, exec));
    all.append(&lanes_of(r, exec));
    let annots: Vec<AuAnnot> = (0..all.nrows()).map(|i| all.annots().get(i)).collect();
    normalized_lanes(l.schema.clone(), &all, &annots, exec)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::{col, lit, RangeValue, Value};
    use audb_storage::{au_row, certain_row, RangeTuple};

    fn schema_a() -> Schema {
        Schema::named(&["A"])
    }

    /// Example 9: σ_{A=2} over ([1/2/3]) annotated (1,2,3) yields (0,2,3).
    #[test]
    fn selection_example_9() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            vec![au_row(
                vec![RangeValue::range(1i64, 2i64, 3i64), RangeValue::certain(Value::Int(2))],
                1,
                2,
                3,
            )],
        );
        let out = select_au_exec(&rel, &col(0).eq(lit(2i64)), &Executor::sequential()).unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].1, AuAnnot::triple(0, 2, 3));
    }

    #[test]
    fn selection_drops_certainly_false() {
        let rel = AuRelation::from_rows(
            schema_a(),
            vec![au_row(vec![RangeValue::range(1i64, 2i64, 3i64)], 1, 1, 1)],
        );
        let out = select_au_exec(&rel, &col(0).gt(lit(10i64)), &Executor::sequential()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn projection_merges_tuples() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            vec![certain_row(&[1, 10], 1, 1, 1), certain_row(&[1, 20], 0, 1, 2)],
        );
        let out =
            project_au_exec(&rel, &[(col(0), "A".to_string())], &Executor::sequential()).unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].1, AuAnnot::triple(1, 2, 3));
    }

    #[test]
    fn projection_computes_ranges() {
        let rel = AuRelation::from_rows(
            schema_a(),
            vec![au_row(vec![RangeValue::range(1i64, 2i64, 3i64)], 1, 1, 1)],
        );
        let out = project_au_exec(
            &rel,
            &[(col(0).add(lit(10i64)), "x".to_string())],
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(out.rows()[0].0, RangeTuple::new(vec![RangeValue::range(11i64, 12i64, 13i64)]));
    }

    /// Figure 8: the unoptimized join of uncertain-attribute relations
    /// degenerates to (near) cross product.
    #[test]
    fn join_figure_8() {
        let r = AuRelation::from_rows(
            schema_a(),
            vec![
                au_row(vec![RangeValue::range(1i64, 1i64, 2i64)], 2, 2, 3),
                au_row(vec![RangeValue::range(1i64, 2i64, 2i64)], 1, 1, 2),
            ],
        );
        let s = AuRelation::from_rows(
            Schema::named(&["C"]),
            vec![
                au_row(vec![RangeValue::range(1i64, 3i64, 3i64)], 1, 1, 1),
                au_row(vec![RangeValue::range(1i64, 2i64, 2i64)], 1, 2, 2),
            ],
        );
        let out = join_au(&r, &s, Some(&col(0).eq(col(1)))).unwrap().normalized();
        assert_eq!(out.len(), 4, "all interval pairs overlap");
        // The SG-matching pair keeps its SG multiplicity:
        // ([1/2/2],[1/2/2]) ↦ (0,2,4). (Figure 8d prints lb = 1, but the
        // pair is not *certainly* equal under Definition 9 — a world may
        // assign 1 to one side and 2 to the other — so the certain
        // multiplicity is 0.)
        let sg_pair = RangeTuple::new(vec![
            RangeValue::range(1i64, 2i64, 2i64),
            RangeValue::range(1i64, 2i64, 2i64),
        ]);
        assert_eq!(out.annotation(&sg_pair), AuAnnot::triple(0, 2, 4));
        // SGW of the join result equals the join of the SGWs:
        // R^sg = {1↦2, 2↦1}, S^sg = {3↦1, 2↦2} → only 2=2 joins, 1·2 = 2.
        let sgw = out.sg_world();
        assert_eq!(sgw.total_count(), 2);
    }

    #[test]
    fn union_adds_annotations() {
        let rel = AuRelation::from_rows(schema_a(), vec![certain_row(&[1], 1, 1, 1)]);
        let out = union_au_exec(&rel, &rel, &Executor::sequential()).unwrap();
        assert_eq!(out.rows()[0].1, AuAnnot::triple(2, 2, 2));
    }

    #[test]
    fn eval_table_and_select() {
        let mut db = AuDatabase::new();
        db.insert("r", AuRelation::from_rows(schema_a(), vec![certain_row(&[5], 1, 1, 1)]));
        let q = crate::algebra::table("r").select(col(0).geq(lit(5i64)));
        let out = eval_au(&db, &q, &AuConfig::precise()).unwrap();
        assert_eq!(out.len(), 1);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod lens_tests {
    use super::*;
    use crate::algebra::table;
    use audb_core::{col, lit, Expr, RangeValue, Value};
    use audb_storage::certain_row;

    /// Example 16: a key-repair lens implemented *inside a query* via
    /// `MakeUncertain(min, sg, max)` — projecting pre-aggregated
    /// (key, numB, minB, maxB) rows into range-annotated values.
    #[test]
    fn make_uncertain_lens_example_16() {
        let mut db = AuDatabase::new();
        db.insert(
            "keys",
            AuRelation::from_rows(
                Schema::named(&["a", "numB", "minB", "maxB"]),
                vec![certain_row(&[1, 1, 10, 10], 1, 1, 1), certain_row(&[2, 3, 5, 9], 1, 1, 1)],
            ),
        );
        let b = Expr::if_then_else(
            col(1).gt(lit(1i64)),
            Expr::make_uncertain(col(2), col(2), col(3)),
            col(2),
        );
        let q = table("keys").project(vec![(col(0), "a"), (b, "b")]);
        let out = eval_au(&db, &q, &AuConfig::precise()).unwrap();
        let row1 = out.rows().iter().find(|(t, _)| t.0[0].sg == Value::Int(1)).unwrap();
        assert_eq!(row1.0 .0[1], RangeValue::certain(Value::Int(10)));
        let row2 = out.rows().iter().find(|(t, _)| t.0[0].sg == Value::Int(2)).unwrap();
        assert_eq!(row2.0 .0[1], RangeValue::range(5i64, 5i64, 9i64));
    }

    /// Deterministic engines see only the selected guess.
    #[test]
    fn make_uncertain_invisible_to_det() {
        let e = Expr::make_uncertain(lit(0i64), lit(5i64), lit(9i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
        assert_eq!(e.eval_range(&[]).unwrap(), RangeValue::range(0i64, 5i64, 9i64));
    }

    /// Disagreeing sub-expressions are widened, never invalid.
    #[test]
    fn make_uncertain_widens_to_stay_ordered() {
        let e = Expr::make_uncertain(lit(7i64), lit(5i64), lit(2i64));
        let r = e.eval_range(&[]).unwrap();
        assert_eq!(r.sg, Value::Int(5));
        assert!(r.lb <= r.sg && r.sg <= r.ub);
    }

    /// The rewrite middleware supports the construct too.
    #[test]
    fn make_uncertain_through_rewrite() {
        let mut db = AuDatabase::new();
        db.insert(
            "r",
            AuRelation::from_rows(
                Schema::named(&["a", "b"]),
                vec![certain_row(&[1, 4], 1, 1, 1), certain_row(&[2, 8], 0, 1, 2)],
            ),
        );
        let q = table("r").project(vec![
            (col(0), "a"),
            (Expr::make_uncertain(lit(0i64), col(1), col(1).mul(lit(2i64))), "b"),
        ]);
        let native = eval_au(&db, &q, &AuConfig::precise()).unwrap();
        let via = crate::rewrite::eval_via_rewrite(&db, &q).unwrap();
        assert_eq!(native, via);
    }
}
