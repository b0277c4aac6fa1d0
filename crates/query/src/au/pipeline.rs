//! Shard-at-a-time pipeline evaluation: run whole chains of row-local
//! operators per base-table shard, with **one** normalization at the
//! pipeline breaker instead of one per operator.
//!
//! The operator-at-a-time evaluator ([`super::eval_inner`])
//! materializes a full intermediate relation between every pair of
//! operators, and most operator tails pay a hash-merge + sort over that
//! whole intermediate. But `RA+`'s row-local operators — selection,
//! generalized projection, and the probe side of a planned join against
//! a shared build-side index — compose into purely tuple-local
//! functions (the U-relations observation of Antova et al., applied to
//! AU-annotations: the annotation algebra is row-local, so the
//! operators are too). This module fuses maximal chains of them and
//! drives the fused chain shard-by-shard on
//! [`Executor::run_shards`]: per shard, a chunk of source rows flows
//! through the entire chain (one lane stage at a time, a probe's matches
//! as batches of row ids — see [`LanePlan`]) before the next is touched;
//! no relation between the base table and the breaker is materialized.
//!
//! ## Fusion rules
//!
//! A *chain* is `σ* [⋈-probe] (σ|π)*` anchored on a base table or on a
//! materialized sub-result:
//!
//! * `Select` and `Project` extend a chain unconditionally;
//! * a precise `Join` fuses as a **probe**: its right side is evaluated
//!   and indexed up front (hash buckets for certain equi-keys, interval
//!   sweeps for the uncertain bands — the exact structures the
//!   operator-at-a-time planner uses), and left rows enumerate their
//!   matches through the probe. Only selections may sit between the source and the probe
//!   (they do not change tuples, so the sweep candidates precomputed on
//!   source row ids stay valid); a left subtree that already contains a
//!   probe or a projection is materialized first and becomes the new
//!   chain source;
//! * everything else — aggregation, distinct, union, difference,
//!   compressed joins — is a **pipeline breaker**: the chain ends, the
//!   breaker runs operator-at-a-time, and its inputs recurse through
//!   the pipeline extractor.
//!
//! ## Determinism (byte-identical to operator-at-a-time)
//!
//! The final result of [`eval_pipelined`] is byte-identical to the
//! operator-at-a-time sequential path for any (workers × shards)
//! combination. Two delivery contracts make this compositional:
//!
//! * **Canonical** — the consumer only depends on the *multiset* of
//!   rows (it normalizes, or folds commutatively, before anything
//!   order-sensitive happens). A fused chain delivers
//!   `normalize(rows)`; since `N_AU` addition is commutative and exact
//!   and annotation multiplication distributes over it, merging or
//!   reordering intermediate duplicates cannot change the normalized
//!   result. The query root, union/difference/distinct inputs, and
//!   join build sides are Canonical.
//! * **Faithful** — the consumer's output depends on the exact row
//!   *list* (aggregation folds bounds in member order, which is not
//!   associative for floats). A chain is used here only when its
//!   operator-at-a-time delivery is reproducible exactly: select-only
//!   chains preserve the source list (and its normal form), and chains
//!   whose last probe is followed by a projection end normalized in
//!   both paths. Anything else falls back to operator-at-a-time with
//!   Faithful inputs.
//!
//! Within one contract, shard boundaries never matter: shards are
//! contiguous and merged in shard order ([`Executor::run_shards`]), so
//! the produced row list equals the sequential single-shard list.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use audb_core::obs::{Counter, Site, TraceBuilder};
use audb_core::{
    AuAnnot, CancelToken, EvalError, ExecError, Expr, LaneBatch, LaneSlice, Program, RangeBatch,
    RangeValue, Semiring, Value, ValueLane,
};
use audb_exec::{Executor, ShardSource};
use audb_storage::{
    AuDatabase, AuRelation, ColumnSet, HashKeyIndex, IntervalIndex, RangeTuple, Schema,
};

use super::{
    aggregate_in_span, close_rel, difference, effective_agg_compress, open_op_span, opt_usize_attr,
    select_au_exec, union_cow, AuConfig,
};
use crate::algebra::Query;
use crate::planner;
use crate::vcheck::Vet;

/// Minimum source rows per shard when the shard count is not forced
/// ([`AuConfig::shards`] = `None`): below this, extra shards only add
/// per-shard setup cost. Shared with the deterministic mirror in
/// [`crate::det`].
pub(crate) const MIN_ROWS_PER_SHARD: usize = 1024;

/// Governance stride inside a shard: every `GOVERN_ROWS` source rows
/// the chain re-checks the cancel token and charges the rows it
/// produced since the last checkpoint to the budget. Bounds how much
/// work a cancelled query can still do inside one shard, and how far an
/// expanding probe can overshoot its budget.
const GOVERN_ROWS: usize = 1024;

/// Charge output-buffer growth since `last` to the executor's budget
/// under `operator`, advancing the watermark.
fn charge_out(
    exec: &Executor,
    operator: &'static str,
    out: &[(RangeTuple, AuAnnot)],
    last: &mut usize,
) -> Result<(), ExecError> {
    let added = out.len().saturating_sub(*last);
    if added > 0 {
        let bytes = added * std::mem::size_of::<(RangeTuple, AuAnnot)>();
        exec.charge(operator, added as u64, bytes as u64)?;
        *last = out.len();
    }
    Ok(())
}

/// What the consumer of an evaluation result depends on — see the
/// module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Multiset-determined consumer: fused chains deliver normalized.
    Canonical,
    /// List-determined consumer: only exactly-reproducible chains fuse.
    Faithful,
}

/// Evaluate a query with shard-at-a-time pipelining (the
/// `cfg.pipeline` path of [`super::eval_au`]). The returned relation is
/// the unnormalized-evaluation analog of [`super::eval_inner`]'s
/// result: the caller applies the final normalization.
pub(crate) fn eval_pipelined<'a>(
    db: &'a AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    exec: &Executor,
    tr: &TraceBuilder,
) -> Result<Cow<'a, AuRelation>, EvalError> {
    eval_pl(db, q, cfg, exec, Delivery::Canonical, tr)
}

// ---------------------------------------------------------------------------
// Chain shape analysis (no evaluation)
// ---------------------------------------------------------------------------

/// Is `q` a fusable chain (`σ/π/⋈` tree in chain form)? Joins anchor a
/// chain regardless of their subtrees (a non-chainable left side is
/// materialized into the chain source).
fn fusable(q: &Query, cfg: &AuConfig) -> bool {
    match q {
        Query::Table(_) => true,
        Query::Select { input, .. } | Query::Project { input, .. } => fusable(input, cfg),
        // Compressed joins run split/compress — a breaker, not a probe.
        Query::Join { .. } => cfg.join_compress.is_none(),
        _ => false,
    }
}

/// Is the chain's operator-at-a-time delivery exactly reproducible by
/// the fused evaluation (see `Delivery::Faithful`)?
fn faithful_ok(q: &Query) -> bool {
    match q {
        Query::Table(_) | Query::Project { .. } => true,
        Query::Select { input, .. } => faithful_ok(input),
        // A probe tail delivers unnormalized rows in planner phase
        // order, which per-row probing does not reproduce.
        _ => false,
    }
}

/// Is the subtree a select-only chain over its anchor (so a probe can
/// fuse onto it with source row ids intact)?
fn select_only(q: &Query) -> bool {
    match q {
        Query::Table(_) => true,
        Query::Select { input, .. } => select_only(input),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// The fused chain
// ---------------------------------------------------------------------------

/// A compiled chain stage as the batch runners see it: the program,
/// the columns it reads (a pair batch gathers only those), and whether
/// it rewrites tuples (projection) or filters them (selection).
#[derive(Clone, Copy)]
struct Stage<'p> {
    prog: &'p Program,
    reads: &'p [usize],
    project: bool,
}

/// A chain predicate: compiled to a flat register program (the
/// default) or kept as the interpreted `Expr` tree (the oracle,
/// `AuConfig::compiled = false`). Compilation happens once per chain —
/// the program is shared by every worker and shard, each with its own
/// register file in its [`Buf`].
enum RangePred {
    Interp(Expr),
    /// The program and the columns it reads.
    Compiled(Program, Vec<usize>),
}

impl RangePred {
    fn new(e: &Expr, vet: Vet<'_>) -> RangePred {
        match vet.range(e) {
            Some(p) => RangePred::Compiled(p, e.columns().into_iter().collect()),
            None => RangePred::Interp(e.clone()),
        }
    }

    fn eval_bool3(
        &self,
        vals: &[RangeValue],
        regs: &mut Vec<RangeValue>,
    ) -> Result<(bool, bool, bool), EvalError> {
        match self {
            RangePred::Interp(e) => e.eval_range_bool3(vals),
            RangePred::Compiled(p, _) => p.eval_range_bool3(vals, regs),
        }
    }

    fn compiled(&self) -> Option<Stage<'_>> {
        match self {
            RangePred::Compiled(prog, reads) => Some(Stage { prog, reads, project: false }),
            RangePred::Interp(_) => None,
        }
    }
}

/// A chain projection list, compiled into one multi-output program.
enum RangeProj {
    Interp(Vec<Expr>),
    /// The program and the columns it reads.
    Compiled(Program, Vec<usize>),
}

impl RangeProj {
    fn new(exprs: &[(Expr, String)], vet: Vet<'_>) -> RangeProj {
        let es: Vec<Expr> = exprs.iter().map(|(e, _)| e.clone()).collect();
        match vet.range_many(&es) {
            Some(p) => {
                let reads: BTreeSet<usize> = es.iter().flat_map(Expr::columns).collect();
                RangeProj::Compiled(p, reads.into_iter().collect())
            }
            None => RangeProj::Interp(es),
        }
    }

    /// Evaluate every projection expression over `vals`, appending the
    /// results to `out` (expressions run in list order; first error
    /// wins, like per-expression interpretation).
    fn eval_into(
        &self,
        vals: &[RangeValue],
        regs: &mut Vec<RangeValue>,
        out: &mut Vec<RangeValue>,
    ) -> Result<(), EvalError> {
        match self {
            RangeProj::Interp(es) => {
                for e in es {
                    out.push(e.eval_range(vals)?);
                }
                Ok(())
            }
            RangeProj::Compiled(p, _) => {
                p.prepare_range_regs(regs);
                p.eval_range_into(vals, regs)?;
                for i in 0..p.arity() {
                    out.push(p.range_output(i, vals, regs).clone());
                }
                Ok(())
            }
        }
    }

    fn compiled(&self) -> Option<Stage<'_>> {
        match self {
            RangeProj::Compiled(prog, reads) => Some(Stage { prog, reads, project: true }),
            RangeProj::Interp(_) => None,
        }
    }
}

enum PipeOp<'a> {
    Select(RangePred),
    Project(RangeProj),
    Probe(Box<ProbeOp<'a>>),
}

enum ProbePlan {
    /// Conjunctive equality: hash probes for certain keys, precomputed
    /// sweep candidates for the uncertain bands.
    HashEqui { lcols: Vec<usize>, index: HashKeyIndex },
    /// Order comparison: all candidates precomputed by the endpoint
    /// sweep, re-checked per pair.
    Comparison,
    /// Cross products and unindexable predicates: every right row.
    NestedLoop,
}

/// The build side of a fused join: the evaluated right relation, its
/// indexes, and per-source-row sweep candidates.
struct ProbeOp<'a> {
    right: Cow<'a, AuRelation>,
    predicate: Option<RangePred>,
    plan: ProbePlan,
    /// Per *source* row id, as a flat CSR ([`planner::csr_by_left`]):
    /// right-row candidates from the interval sweeps (uncertain-key
    /// bands for equi plans, all candidates for comparison plans; empty
    /// for nested loops).
    cand_offsets: Vec<usize>,
    cand_ids: Vec<u32>,
}

impl<'a> ProbeOp<'a> {
    /// Build the probe for `source ⋈ right`, mirroring the
    /// operator-at-a-time planner's strategy choice and index shapes.
    /// Candidates are computed over *all* source rows — selections
    /// between the source and the probe only drop rows, never change
    /// them, so candidates of dropped rows are simply never probed. The
    /// re-check predicate compiles once here, like the chain stages.
    ///
    /// With `columnar`, key certainty and the full-relation interval
    /// indexes are read straight off the relations' column lanes
    /// ([`IntervalIndex::from_lane`]) — identical contents, no
    /// row-tuple walk; `false` keeps the row-major oracle everywhere.
    fn build(
        source: &AuRelation,
        right: Cow<'a, AuRelation>,
        predicate: Option<&Expr>,
        vet: Vet<'_>,
        columnar: bool,
    ) -> ProbeOp<'a> {
        let full_index = |rel: &AuRelation, c: usize| {
            if columnar {
                IntervalIndex::from_lane(rel.columns().lane(c).as_slice())
            } else {
                IntervalIndex::from_au(rel.rows(), c)
            }
        };
        let partition = |rel: &AuRelation, cols: &[usize]| {
            if columnar {
                planner::partition_lanes_by_key_certainty(&rel.columns(), cols)
            } else {
                planner::partition_by_key_certainty(rel.rows(), cols)
            }
        };
        // sweep pairs in emission order; the CSR keeps each row's order
        let mut cand: Vec<(u32, u32)> = Vec::new();
        let plan = match planner::classify(predicate, source.schema.arity()) {
            planner::JoinStrategy::HashEqui(pairs) => {
                let lcols: Vec<usize> = pairs.iter().map(|(a, _)| *a).collect();
                let rcols: Vec<usize> = pairs.iter().map(|(_, b)| *b).collect();
                let (lc, lu) = partition(source, &lcols);
                let (rc, ru) = partition(right.as_ref(), &rcols);
                // no certain probe can ever hit the bucket index when
                // either certain side is empty — mirror the planner's
                // guard and skip the build
                let index = if !lc.is_empty() && !rc.is_empty() {
                    HashKeyIndex::from_au_sg(right.rows(), &rcols, rc.iter().copied())
                } else {
                    HashKeyIndex::default()
                };
                let (c0l, c0r) = pairs[0];
                if !lu.is_empty() {
                    let li = IntervalIndex::from_au_subset(source.rows(), c0l, &lu);
                    let ri = full_index(right.as_ref(), c0r);
                    IntervalIndex::sweep_overlapping(&li, &ri, |a, b| cand.push((a, b)));
                }
                if !ru.is_empty() && !lc.is_empty() {
                    let li = IntervalIndex::from_au_subset(source.rows(), c0l, &lc);
                    let ri = IntervalIndex::from_au_subset(right.rows(), c0r, &ru);
                    IntervalIndex::sweep_overlapping(&li, &ri, |a, b| cand.push((a, b)));
                }
                ProbePlan::HashEqui { lcols, index }
            }
            planner::JoinStrategy::IntervalComparison { lo, hi } => {
                cand = planner::comparison_candidates(
                    lo,
                    hi,
                    |c| full_index(source, c),
                    |c| full_index(right.as_ref(), c),
                );
                ProbePlan::Comparison
            }
            planner::JoinStrategy::NestedLoop => ProbePlan::NestedLoop,
        };
        let (cand_offsets, cand_ids) = planner::csr_by_left(source.len(), &cand);
        let predicate = predicate.map(|p| RangePred::new(p, vet));
        ProbeOp { right, predicate, plan, cand_offsets, cand_ids }
    }

    /// Sweep candidates of source row `src`.
    fn cand(&self, src: usize) -> &[u32] {
        &self.cand_ids[self.cand_offsets[src]..self.cand_offsets[src + 1]]
    }

    /// Stream one in-flight left row through the probe, emitting each
    /// joined row into the rest of the chain — the row-at-a-time oracle
    /// of [`PairSink`]'s enumeration (same matches, same order).
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        rest: &[PipeOp<'_>],
        rest_bufs: &mut [Buf],
        buf: &mut Buf,
        src: usize,
        vals: &[RangeValue],
        k: AuAnnot,
        out: &mut Vec<(RangeTuple, AuAnnot)>,
    ) -> Result<(), EvalError> {
        let Buf { vals: concat, key, regs } = buf;
        let mut emit = |ri: u32| self.emit(rest, rest_bufs, concat, regs, vals, k, ri, out);
        match &self.plan {
            ProbePlan::HashEqui { lcols, index } => {
                if lcols.iter().all(|c| vals[*c].is_certain()) {
                    key.clear();
                    key.extend(lcols.iter().map(|c| vals[*c].sg.join_key()));
                    index.get(key).iter().try_for_each(|&ri| emit(ri))?;
                }
                self.cand(src).iter().try_for_each(|&ri| emit(ri))
            }
            ProbePlan::Comparison => self.cand(src).iter().try_for_each(|&ri| emit(ri)),
            ProbePlan::NestedLoop => (0..self.right.len() as u32).try_for_each(emit),
        }
    }

    /// Pair emission: precise predicate check per candidate (cross
    /// product when there is no predicate). An equi-plan pair whose key
    /// attributes are structurally equal and certain needs no fast
    /// path: its predicate triple is (T, T, T), which multiplies as one.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        rest: &[PipeOp<'_>],
        rest_bufs: &mut [Buf],
        concat: &mut Vec<RangeValue>,
        regs: &mut Vec<RangeValue>,
        vals: &[RangeValue],
        k: AuAnnot,
        ri: u32,
        out: &mut Vec<(RangeTuple, AuAnnot)>,
    ) -> Result<(), EvalError> {
        let (tr, kr) = &self.right.rows()[ri as usize];
        concat.clear();
        concat.extend_from_slice(vals);
        concat.extend_from_slice(&tr.0);
        let mut k2 = k.times(kr);
        if let Some(p) = &self.predicate {
            let (plb, psg, pub_) = p.eval_bool3(concat, regs)?;
            if !pub_ {
                return Ok(());
            }
            k2 = k2.times(&AuAnnot::from_bool3(plb, psg, pub_));
        }
        apply(rest, rest_bufs, usize::MAX, concat, k2, out)
    }
}

/// Per-op scratch reused across a shard's rows: the concatenation /
/// projection value buffer, the equi-probe key buffer, and the
/// compiled-program register file.
#[derive(Default)]
struct Buf {
    vals: Vec<RangeValue>,
    key: Vec<Value>,
    regs: Vec<RangeValue>,
}

/// One in-flight row through the remaining ops. `src` is the source row
/// id (valid until the first probe/projection rewrites the tuple; only
/// the single probe, which sits before any projection, consumes it).
fn apply(
    ops: &[PipeOp<'_>],
    bufs: &mut [Buf],
    src: usize,
    vals: &[RangeValue],
    k: AuAnnot,
    out: &mut Vec<(RangeTuple, AuAnnot)>,
) -> Result<(), EvalError> {
    let Some((op, rest)) = ops.split_first() else {
        out.push((RangeTuple::new(vals.to_vec()), k));
        return Ok(());
    };
    #[allow(clippy::expect_used)] // bufs was sized to ops.len() by the caller
    let (buf, rest_bufs) = bufs.split_first_mut().expect("one buffer per op");
    match op {
        PipeOp::Select(p) => {
            let (lb, sg, ub) = p.eval_bool3(vals, &mut buf.regs)?;
            if !ub {
                return Ok(()); // certainly false in all worlds
            }
            apply(rest, rest_bufs, src, vals, k.times(&AuAnnot::from_bool3(lb, sg, ub)), out)
        }
        PipeOp::Project(proj) => {
            if rest.is_empty() {
                // terminal projection: evaluate straight into the output
                let mut vs = Vec::new();
                proj.eval_into(vals, &mut buf.regs, &mut vs)?;
                out.push((RangeTuple::new(vs), k));
                Ok(())
            } else {
                let Buf { vals: pvals, regs, .. } = buf;
                pvals.clear();
                proj.eval_into(vals, regs, pvals)?;
                apply(rest, rest_bufs, usize::MAX, pvals, k, out)
            }
        }
        PipeOp::Probe(probe) => probe.probe(rest, rest_bufs, buf, src, vals, k, out),
    }
}

/// Run a compiled chain over one shard **one op at a time**: every
/// stage evaluates over a whole batch of rows before the next stage
/// runs — lane kernels over the column set with a [`LanePlan`], the
/// row-major batch oracle ([`Program::eval_range_batch_lenient`],
/// probe-less chains only) without.
///
/// The shard is processed in [`GOVERN_ROWS`]-row chunks so cancellation
/// is observed and produced rows are charged to the budget (`operator`)
/// with bounded overshoot; chunking cannot change results because every
/// op is row-local and chunks run in source order.
fn run_shard_batched(
    ops: &[PipeOp<'_>],
    source: &AuRelation,
    lanes: Option<&LanePlan<'_>>,
    range: std::ops::Range<usize>,
    out: &mut Vec<(RangeTuple, AuAnnot)>,
    exec: &Executor,
    operator: &'static str,
) -> Result<(), EvalError> {
    let mut watermark = out.len();
    let mut start = range.start;
    while start < range.end {
        let end = range.end.min(start + GOVERN_ROWS);
        exec.check_cancel()?;
        match lanes {
            Some(plan) => plan.run_chunk(start..end, out, &mut watermark, exec)?,
            None => run_chunk_batched(ops, source, start..end, out, exec.cancel_token())?,
        }
        charge_out(exec, operator, out, &mut watermark)?;
        start = end;
    }
    Ok(())
}

/// One chunk of [`run_shard_batched`].
///
/// Byte-identity with the row-streaming path: the per-row math is the
/// same combinators in the same order, rows keep their source order
/// (no probe means one output per surviving input), and errors are
/// row-major — an erroring row is *poisoned* (it stops flowing but is
/// never dropped) and after the chain the earliest poisoned source row
/// reports its error, exactly what streaming row-by-row would have
/// surfaced first.
fn run_chunk_batched(
    ops: &[PipeOp<'_>],
    source: &AuRelation,
    range: std::ops::Range<usize>,
    out: &mut Vec<(RangeTuple, AuAnnot)>,
    cancel: Option<&CancelToken>,
) -> Result<(), EvalError> {
    enum RowState {
        Clean(AuAnnot),
        Poisoned(EvalError),
    }
    let mut live: Vec<(Cow<'_, RangeTuple>, RowState)> =
        source.rows()[range].iter().map(|(t, k)| (Cow::Borrowed(t), RowState::Clean(*k))).collect();
    let mut batch = RangeBatch::default();

    for op in ops {
        // The rows still flowing: everything not yet poisoned.
        let clean_idx: Vec<usize> = live
            .iter()
            .enumerate()
            .filter(|(_, (_, st))| matches!(st, RowState::Clean(_)))
            .map(|(i, _)| i)
            .collect();
        if clean_idx.is_empty() {
            break;
        }
        {
            let refs: Vec<&[RangeValue]> = clean_idx.iter().map(|&i| live[i].0.values()).collect();
            #[allow(clippy::expect_used)] // the batchable gate checked compiled() per stage
            match op {
                PipeOp::Select(p) => p
                    .compiled()
                    .expect("batched chains are compiled")
                    .prog
                    .eval_range_batch_lenient(&refs, &mut batch, cancel)?,
                PipeOp::Project(p) => p
                    .compiled()
                    .expect("batched chains are compiled")
                    .prog
                    .eval_range_batch_lenient(&refs, &mut batch, cancel)?,
                PipeOp::Probe(_) => unreachable!("row-major batches are probe-less"),
            }
        }
        match op {
            PipeOp::Select(p) => {
                #[allow(clippy::expect_used)] // the batchable gate checked compiled() per stage
                let prog = p.compiled().expect("compiled").prog;
                // Decide per clean row: poison, drop, or keep with the
                // multiplied annotation — then compact the drops.
                let mut drop_flags = vec![false; live.len()];
                for (j, &i) in clean_idx.iter().enumerate() {
                    let decision = match batch.row_error(j) {
                        Some(e) => Err(e.clone()),
                        None => batch.output(prog, 0, j, live[i].0.values()).as_bool3(),
                    };
                    match decision {
                        Err(e) => live[i].1 = RowState::Poisoned(e),
                        Ok((_, _, false)) => drop_flags[i] = true,
                        Ok((lb, sg, ub)) => {
                            let RowState::Clean(k) = &mut live[i].1 else { unreachable!() };
                            *k = k.times(&AuAnnot::from_bool3(lb, sg, ub));
                        }
                    }
                }
                let mut i = 0;
                live.retain(|_| {
                    let keep = !drop_flags[i];
                    i += 1;
                    keep
                });
            }
            PipeOp::Project(p) => {
                #[allow(clippy::expect_used)] // the batchable gate checked compiled() per stage
                let prog = p.compiled().expect("compiled").prog;
                for (j, &i) in clean_idx.iter().enumerate() {
                    let projected = match batch.row_error(j) {
                        Some(e) => Err(e.clone()),
                        None => Ok((0..prog.arity())
                            .map(|oi| batch.output(prog, oi, j, live[i].0.values()).clone())
                            .collect::<Vec<RangeValue>>()),
                    };
                    match projected {
                        Err(e) => live[i].1 = RowState::Poisoned(e),
                        Ok(vals) => live[i].0 = Cow::Owned(RangeTuple::new(vals)),
                    }
                }
            }
            PipeOp::Probe(_) => unreachable!("row-major batches are probe-less"),
        }
    }

    for (t, st) in live {
        match st {
            RowState::Poisoned(e) => return Err(e),
            RowState::Clean(k) => out.push((t.into_owned(), k)),
        }
    }
    Ok(())
}

/// Pairs per lane batch of a probe chain — a constant picked by
/// measurement, not a knob: at 2 048 the id vectors, the gathered lanes
/// and the kernels' registers of one batch stay cache-resident (512 and
/// 16 384 both ran the 10k × 10k spine 5–10% slower). It also bounds how
/// far an expanding probe overshoots its budget: a nested-loop plan
/// flushes in the middle of a source row.
const PAIR_BATCH: usize = 2048;

/// The rows in flight between two lane stages.
enum Lanes<'a> {
    /// A source chunk: slices borrowed straight from the relation's
    /// [`ColumnSet`], until the first op that rewrites or compacts them.
    Borrowed(Vec<LaneSlice<'a>>),
    /// A pair batch before its first projection: row ids into the two
    /// sides' column sets. A stage gathers the columns it reads; a
    /// selection compacts the ids, not lanes.
    Pairs {
        right: &'a ColumnSet,
        lids: Vec<u32>,
        rids: Vec<u32>,
    },
    Owned(Vec<ValueLane>),
}

/// A batch between stages: lanes hold exactly the still-clean rows,
/// `live[j]` is lane row `j`'s position in its chunk or pair batch
/// (ascending) and `annots[j]` its annotation. Erroring rows are
/// *poisoned*: they stop flowing, and only the earliest position's
/// error is kept — the one row-at-a-time streaming would have hit first.
struct InFlight<'a> {
    lanes: Lanes<'a>,
    live: Vec<u32>,
    annots: Vec<AuAnnot>,
    poison: Option<(u32, EvalError)>,
}

/// The row at position `pos` failed with `error()`: keep it if it is
/// the earliest poisoned position.
fn poison_at(slot: &mut Option<(u32, EvalError)>, pos: u32, error: impl FnOnce() -> EvalError) {
    if slot.as_ref().is_none_or(|(p, _)| pos < *p) {
        *slot = Some((pos, error()));
    }
}

/// What a chain did on the lanes, summed over shards for its span.
#[derive(Default)]
struct ChainStats {
    pairs: AtomicU64,
    pair_batches: AtomicU64,
    stages_boxed: AtomicU64,
}

/// A fully compiled chain laid out for lane execution: the stages
/// before the probe run over borrowed source lanes, the probe
/// enumerates matches as row ids, and the stages after it — the join's
/// re-check predicate first — run over pair batches. A probe-less chain
/// is all `pre`.
struct LanePlan<'p> {
    left: Arc<ColumnSet>,
    pre: Vec<Stage<'p>>,
    probe: Option<(&'p ProbeOp<'p>, Arc<ColumnSet>)>,
    post: Vec<Stage<'p>>,
    stats: ChainStats,
}

impl<'p> LanePlan<'p> {
    /// `None` when some stage is interpreted (`compiled = false`, or a
    /// Tier B rejection): that chain streams row by row.
    fn of(ops: &'p [PipeOp<'p>], source: &AuRelation) -> Option<LanePlan<'p>> {
        let (mut pre, mut post, mut probe) = (Vec::new(), Vec::new(), None);
        for op in ops {
            let stage = match op {
                PipeOp::Select(p) => p.compiled()?,
                PipeOp::Project(p) => p.compiled()?,
                PipeOp::Probe(p) => {
                    probe = Some((&**p, p.right.columns()));
                    match &p.predicate {
                        Some(pred) => pred.compiled()?,
                        None => continue,
                    }
                }
            };
            if probe.is_some() { &mut post } else { &mut pre }.push(stage);
        }
        Some(LanePlan { left: source.columns(), pre, probe, post, stats: ChainStats::default() })
    }

    /// The one lane-stage loop: run `stages` over the batch in flight,
    /// each as typed vector kernels ([`Program::eval_range_lanes`]) over
    /// the lanes it reads; multiply a selection's bool3 into the
    /// annotations and compact, replace the lanes by a projection's
    /// outputs.
    ///
    /// Byte-identity with the row paths holds because the kernels are
    /// exact refinements of the scalar combinators — an op whose kernel
    /// cannot reproduce a row bit-identically (Int overflow, NaN)
    /// demotes wholesale to the generic per-row evaluation — and the row
    /// protocol is the same: surviving rows keep their order, erroring
    /// rows are poisoned, never dropped.
    fn run_stages(
        &self,
        stages: &[Stage<'_>],
        fl: &mut InFlight<'_>,
        batch: &mut LaneBatch,
        cancel: Option<&CancelToken>,
    ) -> Result<(), ExecError> {
        for st in stages {
            let nrows = fl.live.len();
            if nrows == 0 {
                break;
            }
            let (next, keep) = {
                let gathered: Vec<ValueLane>;
                let slices: Vec<LaneSlice<'_>> = match &fl.lanes {
                    Lanes::Pairs { right, lids, rids } => {
                        let (la, arity) = (self.left.arity(), self.left.arity() + right.arity());
                        let reads = &st.reads[..st.reads.partition_point(|&c| c < arity)];
                        let gather = |&c: &usize| match c.checked_sub(la) {
                            None => self.left.lane(c).as_slice().gather(lids),
                            Some(rc) => right.lane(rc).as_slice().gather(rids),
                        };
                        gathered = reads.iter().map(gather).collect();
                        // Unread columns alias a read one (right length,
                        // never touched); nothing read means no lanes.
                        let mut cols = match gathered.first() {
                            Some(any) => vec![any.as_slice(); arity],
                            None => Vec::new(),
                        };
                        reads.iter().zip(&gathered).for_each(|(&c, g)| cols[c] = g.as_slice());
                        cols
                    }
                    Lanes::Owned(v) => v.iter().map(ValueLane::as_slice).collect(),
                    Lanes::Borrowed(s) => s.clone(),
                };
                st.prog.eval_range_lanes(&slices, nrows, batch, cancel)?;
                if batch.demotions() > 0 {
                    self.stats.stages_boxed.fetch_add(1, Ordering::Relaxed);
                }
                // Reading an output lane is only safe when some row
                // survived: with every row poisoned (e.g. an out-of-arity
                // column probe) the output source may reference a column
                // that does not exist.
                let any_clean = (0..nrows).any(|j| batch.row_error(j).is_none());
                let filter =
                    (!st.project && any_clean).then(|| batch.output_lane(st.prog, 0, &slices));
                let mut keep: Vec<u32> = Vec::with_capacity(nrows);
                for j in 0..nrows {
                    match (batch.row_error(j), &filter) {
                        (Some(e), _) => poison_at(&mut fl.poison, fl.live[j], || e.clone()),
                        (None, None) => keep.push(j as u32),
                        (None, Some(lane)) => match lane.bool3(j) {
                            Err(e) => poison_at(&mut fl.poison, fl.live[j], || e),
                            Ok((_, _, false)) => {} // false in all worlds
                            Ok((lb, sg, ub)) => {
                                fl.annots[j] = fl.annots[j].times(&AuAnnot::from_bool3(lb, sg, ub));
                                keep.push(j as u32);
                            }
                        },
                    }
                }
                let all = keep.len() == nrows;
                let pick = |ids: &[u32]| keep.iter().map(|&j| ids[j as usize]).collect();
                let next = if st.project {
                    let outs = (0..st.prog.arity()).map(|o| batch.output_lane(st.prog, o, &slices));
                    Some(Lanes::Owned(match (any_clean, all) {
                        (false, _) => Vec::new(),
                        (true, true) => outs.map(|s| s.to_lane()).collect(),
                        (true, false) => outs.map(|s| s.gather(&keep)).collect(),
                    }))
                } else if all {
                    None
                } else if let Lanes::Pairs { right, lids, rids } = &fl.lanes {
                    Some(Lanes::Pairs { right, lids: pick(lids), rids: pick(rids) })
                } else {
                    Some(Lanes::Owned(slices.iter().map(|s| s.gather(&keep)).collect()))
                };
                (next, (!all).then_some(keep))
            };
            if let Some(lanes) = next {
                fl.lanes = lanes;
            }
            if let Some(keep) = keep {
                fl.live = keep.iter().map(|&j| fl.live[j as usize]).collect();
                fl.annots = keep.iter().map(|&j| fl.annots[j as usize]).collect();
            }
        }
        Ok(())
    }

    /// Build the row tuples of the batch in flight — once, for the rows
    /// that survived every stage.
    fn materialize(&self, fl: InFlight<'_>, out: &mut Vec<(RangeTuple, AuAnnot)>) {
        let owned;
        let slices: &[LaneSlice<'_>] = match &fl.lanes {
            Lanes::Pairs { right, lids, rids } => {
                for ((&l, &r), k) in lids.iter().zip(rids).zip(&fl.annots) {
                    let cells = (self.left.lanes().iter().map(|c| c.get(l as usize)))
                        .chain(right.lanes().iter().map(|c| c.get(r as usize)));
                    out.push((RangeTuple::new(cells.collect()), *k));
                }
                return;
            }
            Lanes::Borrowed(s) => s,
            Lanes::Owned(v) => {
                owned = v.iter().map(ValueLane::as_slice).collect::<Vec<_>>();
                &owned
            }
        };
        for (j, k) in fl.annots.iter().enumerate() {
            out.push((RangeTuple::new(slices.iter().map(|s| s.get(j)).collect()), *k));
        }
    }

    /// One source chunk of [`run_shard_batched`]: the pre-probe stages
    /// over the borrowed source lanes, then — on a probe chain — the
    /// surviving rows' matches, enumerated as `(left id, right id,
    /// k_l ⊗ k_r)` in the streaming order (hash bucket, then sweep
    /// candidates) into [`PAIR_BATCH`]-sized batches that run the
    /// remaining stages.
    ///
    /// Errors surface in the streaming order: the earliest erroring
    /// source row wins, a row that passed the pre-probe stages errs at
    /// its earliest erroring pair, and rows past the first poisoned
    /// source row are never probed.
    fn run_chunk(
        &self,
        range: std::ops::Range<usize>,
        out: &mut Vec<(RangeTuple, AuAnnot)>,
        watermark: &mut usize,
        exec: &Executor,
    ) -> Result<(), EvalError> {
        let mut batch = LaneBatch::default();
        let mut fl = InFlight {
            lanes: Lanes::Borrowed(
                self.left.lanes().iter().map(|l| l.slice(range.clone())).collect(),
            ),
            live: (0..range.len() as u32).collect(),
            annots: range.clone().map(|i| self.left.annots().get(i)).collect(),
            poison: None,
        };
        self.run_stages(&self.pre, &mut fl, &mut batch, exec.cancel_token())?;
        let poison = fl.poison.take();
        let Some((probe, right)) = &self.probe else {
            return match poison {
                Some((_, e)) => Err(e),
                None => {
                    self.materialize(fl, out);
                    Ok(())
                }
            };
        };
        let limit = poison.as_ref().map_or(u32::MAX, |(p, _)| *p);
        let (lids, rids, annots) = (Vec::new(), Vec::new(), Vec::new());
        let mut sink = PairSink {
            plan: self,
            right,
            lids,
            rids,
            annots,
            batch: &mut batch,
            out,
            watermark,
            exec,
        };
        let mut key: Vec<Value> = Vec::new();
        for (&pos, &k) in fl.live.iter().zip(&fl.annots).take_while(|(&p, _)| p < limit) {
            let src = range.start + pos as usize;
            match &probe.plan {
                ProbePlan::HashEqui { lcols, index } => {
                    let cells = lcols.iter().map(|&c| self.left.lane(c).as_slice());
                    if cells.clone().all(|l| l.is_certain(src)) {
                        key.clear();
                        key.extend(cells.map(|l| l.get(src).sg.join_key()));
                        sink.feed(src, k, index.get(&key).iter().copied())?;
                    }
                    sink.feed(src, k, probe.cand(src).iter().copied())?;
                }
                ProbePlan::Comparison => sink.feed(src, k, probe.cand(src).iter().copied())?,
                ProbePlan::NestedLoop => sink.feed(src, k, 0..right.nrows() as u32)?,
            }
        }
        sink.flush()?;
        poison.map_or(Ok(()), |(_, e)| Err(e))
    }
}

/// The pair batch a probe chain's enumeration fills and flushes.
struct PairSink<'r, 'p> {
    plan: &'r LanePlan<'p>,
    right: &'r ColumnSet,
    lids: Vec<u32>,
    rids: Vec<u32>,
    annots: Vec<AuAnnot>,
    batch: &'r mut LaneBatch,
    out: &'r mut Vec<(RangeTuple, AuAnnot)>,
    watermark: &'r mut usize,
    exec: &'r Executor,
}

impl<'r, 'p> PairSink<'r, 'p> {
    /// Append source row `src`'s matches `rids`, flushing full batches.
    fn feed(
        &mut self,
        src: usize,
        k: AuAnnot,
        rids: impl Iterator<Item = u32>,
    ) -> Result<(), EvalError> {
        for ri in rids {
            self.lids.push(src as u32);
            self.rids.push(ri);
            self.annots.push(k.times(&self.right.annots().get(ri as usize)));
            if self.lids.len() == PAIR_BATCH {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Run the post-probe stages over the pending pairs and materialize
    /// the survivors; charge them (`"join-probe"`) and observe
    /// cancellation before the next batch is enumerated.
    fn flush(&mut self) -> Result<(), EvalError> {
        let n = self.lids.len();
        if n == 0 {
            return Ok(());
        }
        let (plan, metrics) = (self.plan, self.exec.metrics());
        let started = metrics.is_enabled().then(Instant::now);
        let (lids, rids) = (std::mem::take(&mut self.lids), std::mem::take(&mut self.rids));
        let mut fl = InFlight {
            lanes: Lanes::Pairs { right: self.right, lids, rids },
            live: (0..n as u32).collect(),
            annots: std::mem::take(&mut self.annots),
            poison: None,
        };
        plan.run_stages(&plan.post, &mut fl, self.batch, self.exec.cancel_token())?;
        if let Some((_, e)) = fl.poison.take() {
            return Err(e);
        }
        plan.materialize(fl, self.out);
        if let Some(t) = started {
            metrics.record_ns(Site::ChainProbe, t.elapsed().as_nanos() as u64);
        }
        plan.stats.pairs.fetch_add(n as u64, Ordering::Relaxed);
        plan.stats.pair_batches.fetch_add(1, Ordering::Relaxed);
        self.exec.check_cancel()?;
        Ok(charge_out(self.exec, "join-probe", self.out, self.watermark)?)
    }
}

/// A fused chain ready to run: the source relation, the op list, and
/// the output schema.
struct AuPipeline<'a> {
    source: Cow<'a, AuRelation>,
    ops: Vec<PipeOp<'a>>,
    schema: Schema,
}

impl<'a> AuPipeline<'a> {
    /// Run the whole chain shard-by-shard and deliver per the chain's
    /// shape: a single breaker normalization when anything merged or
    /// rewrote tuples, the exact source-order row list for select-only
    /// chains (mirroring [`select_au_exec`]'s normal-form preservation).
    ///
    /// A fully compiled chain runs on the lanes ([`LanePlan`]): every
    /// stage evaluates over a whole source chunk or pair batch at a
    /// time. Without `columnar`, probe-less compiled chains take the
    /// row-major batch oracle; everything else — an interpreted stage,
    /// a probe without lanes — streams each row through the ops with a
    /// per-worker register file.
    ///
    /// `h` is the open `fused-chain` span: the chain records its op
    /// summary, execution shape, and shard count there, and closes it
    /// with the delivered relation's actual sizes.
    fn run(
        self,
        cfg: &AuConfig,
        exec: &Executor,
        tr: &TraceBuilder,
        h: usize,
    ) -> Result<Cow<'a, AuRelation>, EvalError> {
        tr.rows_in(h, self.source.len() as u64);
        if self.ops.is_empty() {
            close_rel(tr, h, &self.source);
            return Ok(self.source);
        }
        let n = self.source.len();
        let sharding = match cfg.shards {
            Some(s) => ShardSource::new(s),
            None => ShardSource::auto(exec.workers(), n, MIN_ROWS_PER_SHARD),
        };
        let ops = &self.ops;
        let source = self.source.as_ref();
        // Probe chains can expand (join output): their production is
        // charged as "join-probe", plain chains' as "pipeline-chain".
        let has_probe = ops.iter().any(|op| matches!(op, PipeOp::Probe(_)));
        let operator = if has_probe { "join-probe" } else { "pipeline-chain" };
        // Built (or fetched from the relations' caches) once, shared by
        // every shard.
        let lanes = if cfg.columnar { LanePlan::of(ops, source) } else { None };
        let batchable = lanes.is_some()
            || ops.iter().all(|op| match op {
                PipeOp::Select(p) => p.compiled().is_some(),
                PipeOp::Project(p) => p.compiled().is_some(),
                PipeOp::Probe(_) => false,
            });
        tr.attr(h, "ops", || {
            let names: Vec<&'static str> = ops
                .iter()
                .map(|op| match op {
                    PipeOp::Select(_) => "σ",
                    PipeOp::Project(_) => "π",
                    PipeOp::Probe(p) => match p.plan {
                        ProbePlan::HashEqui { .. } => "⋈(hash-equi)",
                        ProbePlan::Comparison => "⋈(interval-comparison)",
                        ProbePlan::NestedLoop => "⋈(nested-loop)",
                    },
                })
                .collect();
            names.join("·")
        });
        tr.attr(h, "exprs", || (if cfg.compiled { "compiled" } else { "interpreted" }).to_string());
        tr.attr(h, "batched", || batchable.to_string());
        tr.attr(h, "columnar", || lanes.is_some().to_string());
        tr.attr(h, "shards", || sharding.slices(n).len().to_string());
        let rows = if batchable {
            exec.run_shards(n, &sharding, |range, out| {
                run_shard_batched(ops, source, lanes.as_ref(), range, out, exec, operator)
            })?
        } else {
            // Streamed row by row, re-checking cancellation and charging
            // the produced rows every GOVERN_ROWS source rows.
            exec.run_shards(n, &sharding, |range, out| {
                let mut bufs: Vec<Buf> = Vec::new();
                bufs.resize_with(ops.len(), Buf::default);
                let mut watermark = out.len();
                for (off, i) in range.enumerate() {
                    if off % GOVERN_ROWS == 0 {
                        exec.check_cancel()?;
                        charge_out(exec, operator, out, &mut watermark)?;
                    }
                    let (t, k) = &source.rows()[i];
                    apply(ops, &mut bufs, i, t.values(), *k, out)?;
                }
                charge_out(exec, operator, out, &mut watermark)?;
                Ok::<(), EvalError>(())
            })?
        };
        if let Some(plan) = &lanes {
            let stat = |a: &AtomicU64| a.load(Ordering::Relaxed);
            tr.attr(h, "pairs", || stat(&plan.stats.pairs).to_string());
            tr.attr(h, "pair_batches", || stat(&plan.stats.pair_batches).to_string());
            tr.attr(h, "stages_boxed", || stat(&plan.stats.stages_boxed).to_string());
            if stat(&plan.stats.stages_boxed) > 0 {
                exec.metrics().add(Counter::ChainStagesBoxed, stat(&plan.stats.stages_boxed));
            }
        }
        let select_only = self.ops.iter().all(|op| matches!(op, PipeOp::Select(_)));
        let out = if !select_only {
            // the one pipeline-breaker normalization (sharded-reduce)
            let mut out = AuRelation::empty(self.schema);
            out.append_rows(rows);
            out.into_normalized_with(exec)?
        } else if self.source.is_normalized() {
            // selection preserves normal form: kept rows stay sorted,
            // distinct, and nonzero-annotated
            AuRelation::from_normalized_rows(self.schema, rows)
        } else {
            let mut out = AuRelation::empty(self.schema);
            out.append_rows(rows);
            out
        };
        close_rel(tr, h, &out);
        Ok(Cow::Owned(out))
    }
}

/// Build the fused chain for a query `fusable()` said is in chain form.
fn build_chain<'a>(
    db: &'a AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    exec: &Executor,
    tr: &TraceBuilder,
) -> Result<AuPipeline<'a>, EvalError> {
    match q {
        Query::Table(name) => {
            let rel = db.get(name)?;
            Ok(AuPipeline {
                source: Cow::Borrowed(rel),
                ops: Vec::new(),
                schema: rel.schema.clone(),
            })
        }
        Query::Select { input, predicate } => {
            let mut c = build_chain(db, input, cfg, exec, tr)?;
            let vet = Vet::new(cfg.compiled, cfg.verify, exec, tr);
            c.ops.push(PipeOp::Select(RangePred::new(predicate, vet)));
            Ok(c)
        }
        Query::Project { input, exprs } => {
            let mut c = build_chain(db, input, cfg, exec, tr)?;
            c.schema = Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect());
            let vet = Vet::new(cfg.compiled, cfg.verify, exec, tr);
            c.ops.push(PipeOp::Project(RangeProj::new(exprs, vet)));
            Ok(c)
        }
        Query::Join { left, right, predicate } => {
            // Left side: continue a select-only chain in place (source
            // row ids stay valid for the sweep candidates); anything
            // else is materialized and becomes the new chain source.
            let mut chain = if fusable(left, cfg) && select_only(left) {
                build_chain(db, left, cfg, exec, tr)?
            } else {
                let rel = eval_pl(db, left, cfg, exec, Delivery::Canonical, tr)?;
                let schema = rel.schema.clone();
                AuPipeline { source: rel, ops: Vec::new(), schema }
            };
            let r = eval_pl(db, right, cfg, exec, Delivery::Canonical, tr)?;
            chain.schema = chain.schema.concat(&r.schema);
            let vet = Vet::new(cfg.compiled, cfg.verify, exec, tr);
            let started = exec.metrics().is_enabled().then(Instant::now);
            let probe =
                ProbeOp::build(chain.source.as_ref(), r, predicate.as_ref(), vet, cfg.columnar);
            if let Some(t) = started {
                exec.metrics().record_ns(Site::ChainBuild, t.elapsed().as_nanos() as u64);
            }
            chain.ops.push(PipeOp::Probe(Box::new(probe)));
            Ok(chain)
        }
        _ => unreachable!("build_chain called on a non-chain query"),
    }
}

// ---------------------------------------------------------------------------
// The pipelined evaluator: fused chains + operator-at-a-time fallback
// ---------------------------------------------------------------------------

fn eval_pl<'a>(
    db: &'a AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    exec: &Executor,
    delivery: Delivery,
    tr: &TraceBuilder,
) -> Result<Cow<'a, AuRelation>, EvalError> {
    // Fused path: maximal row-local chains, one breaker normalization.
    if fusable(q, cfg) && (delivery == Delivery::Canonical || faithful_ok(q)) {
        let h = tr.open("fused-chain", || q.to_string());
        tr.attr(h, "delivery", || {
            (match delivery {
                Delivery::Canonical => "canonical",
                Delivery::Faithful => "faithful",
            })
            .to_string()
        });
        return build_chain(db, q, cfg, exec, tr)?.run(cfg, exec, tr, h);
    }
    // Why this operator did not fuse — the delivery contract that
    // blocked it, or the breaker kind. Recorded on the operator's span.
    let fallback: &'static str = if fusable(q, cfg) {
        // fusable shape, but the consumer needs the exact operator-path
        // row list and this chain cannot reproduce it
        "faithful-delivery-unreproducible"
    } else {
        match q {
            Query::Table(_) | Query::Select { .. } | Query::Project { .. } => "input-not-fusable",
            Query::Join { .. } => "compressed-join-breaker",
            Query::Union { .. }
            | Query::Difference { .. }
            | Query::Distinct { .. }
            | Query::Aggregate { .. } => "pipeline-breaker",
        }
    };
    let h = open_op_span(tr, q);
    tr.attr(h, "fallback", || fallback.to_string());
    // Operator-at-a-time fallback; inputs recurse through the pipeline
    // with the delivery each operator requires (see module docs).
    Ok(match q {
        Query::Table(name) => {
            let rel = db.get(name)?;
            close_rel(tr, h, rel);
            Cow::Borrowed(rel)
        }
        Query::Select { input, predicate } => {
            // select preserves its input list one-to-one → propagate
            let rel = eval_pl(db, input, cfg, exec, delivery, tr)?;
            tr.rows_in(h, rel.len() as u64);
            let out = select_au_exec(&rel, predicate, exec)?;
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
        Query::Project { input, exprs } => {
            // projection normalizes: multiset-determined output
            let rel = eval_pl(db, input, cfg, exec, Delivery::Canonical, tr)?;
            tr.rows_in(h, rel.len() as u64);
            let out = super::project_au_exec(&rel, exprs, exec)?;
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
        Query::Join { left, right, predicate } => {
            // a compressed (or Faithful-context) join reproduces the
            // operator path, so its inputs inherit the stricter need
            let d = if cfg.join_compress.is_some() { Delivery::Faithful } else { delivery };
            let l = eval_pl(db, left, cfg, exec, d, tr)?;
            let r = eval_pl(db, right, cfg, exec, d, tr)?;
            tr.rows_in(h, (l.len() + r.len()) as u64);
            let out = match cfg.join_compress {
                Some(ct) if !cfg.adaptive || crate::opt::join_compression_pays_off(&l, &r) => {
                    tr.attr(h, "strategy", || "split-compress".to_string());
                    crate::opt::optimized_join_exec(&l, &r, predicate.as_ref(), ct, exec)?
                }
                _ => {
                    tr.attr(h, "strategy", || {
                        planner::classify(predicate.as_ref(), l.schema.arity()).name().to_string()
                    });
                    planner::join_au_planned_exec(&l, &r, predicate.as_ref(), exec)?
                }
            };
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
        Query::Union { left, right } => {
            let l = eval_pl(db, left, cfg, exec, Delivery::Canonical, tr)?;
            let r = eval_pl(db, right, cfg, exec, Delivery::Canonical, tr)?;
            tr.rows_in(h, (l.len() + r.len()) as u64);
            let out = union_cow(l, r, exec)?;
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
        Query::Difference { left, right } => {
            let l = eval_pl(db, left, cfg, exec, Delivery::Canonical, tr)?;
            let r = eval_pl(db, right, cfg, exec, Delivery::Canonical, tr)?;
            tr.rows_in(h, (l.len() + r.len()) as u64);
            let out = difference::difference_au_exec(&l, &r, exec)?;
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
        Query::Distinct { input } => {
            // grouping on all columns, no aggregates: bounding boxes and
            // annotation sums are commutative folds → multiset-determined
            let rel = eval_pl(db, input, cfg, exec, Delivery::Canonical, tr)?;
            tr.rows_in(h, rel.len() as u64);
            let all: Vec<usize> = (0..rel.schema.arity()).collect();
            let compress = effective_agg_compress(cfg, &rel, &all);
            tr.attr(h, "compress", || opt_usize_attr(compress));
            let out = aggregate_in_span(tr, h, &rel, &all, &[], compress, exec)?;
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
        Query::Aggregate { input, group_by, aggs } => {
            // bound folds run in member order (floats!) → exact list
            let rel = eval_pl(db, input, cfg, exec, Delivery::Faithful, tr)?;
            tr.rows_in(h, rel.len() as u64);
            let compress = effective_agg_compress(cfg, &rel, group_by);
            tr.attr(h, "compress", || opt_usize_attr(compress));
            let out = aggregate_in_span(tr, h, &rel, group_by, aggs, compress, exec)?;
            close_rel(tr, h, &out);
            Cow::Owned(out)
        }
    })
}
