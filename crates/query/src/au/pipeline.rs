//! Morsel-at-a-time pipeline evaluation: run whole chains of row-local
//! operators per morsel of the base table, with **one** normalization
//! at the pipeline breaker instead of one per operator.
//!
//! The AU engine runs a query one of two ways. The operator-at-a-time
//! oracle ([`AuPlan::oracle`]: the paper's definitions one operator at a
//! time over interpreted `Expr` trees — the differential reference)
//! materializes a full intermediate relation between every pair of
//! operators, and most operator tails pay a hash-merge + sort over that
//! whole intermediate.
//! But `RA+`'s row-local operators — selection, generalized projection,
//! and the probe side of a planned join against a shared build-side
//! index — compose into purely tuple-local functions (the U-relations
//! observation of Antova et al., applied to AU-annotations: the
//! annotation algebra is row-local, so the operators are too). This
//! module fuses maximal chains of them and drives the fused chain
//! morsel by morsel on [`Executor::run`] at the chain driver's grain
//! ([`chain_exec`]): per morsel, a chunk of
//! source rows flows through the entire chain (one lane stage at a
//! time, a probe's matches as batches of row ids — see [`LanePlan`])
//! before the next is touched; no relation between the base table and
//! the breaker is materialized.
//!
//! This is the production path of every configuration, compressed ones
//! included, and the only fused one: every stage of a chain is a
//! compiled register program ([`Program`]) evaluated as typed vector
//! kernels over column lanes. A chain one of whose programs the Tier B
//! verifier rejects ([`crate::vcheck`]) does not run fused at all — the
//! plan holds the oracle's σ/π/⋈ operators in its place. Their
//! `select` / `project` spans appear under a `lanes` attempt for no other
//! reason.
//!
//! ## Plan, then run
//!
//! A query is planned once, by one walk. [`AuPlan::new`] yields a tree
//! of [`Node`]s, one per operator: chains (every [`Stage`] compiled and
//! vetted — outermost chain first, then its source's, then its build
//! side's), breakers, and oracle operators where a Tier B rejection sends
//! a sub-query to the oracle; a chain holds its consumer's [`Contract`]
//! (below), γ its read set and re-slotted specs. [`AuPlan::oracle`] is
//! the same walk with no verifier: σ/π/⋈/scan become operator nodes.
//! Planning is one `match` ([`Node::plan`]), running one `match` whose
//! arms open their own spans ([`Node::run`]). Nothing in a plan depends
//! on data or resources, so the serving engine keeps it as its prepared
//! plan. A run takes the data-dependent verdicts — compression on the
//! evaluated inputs, a probe's strategy, breaker-narrow delivery — and a
//! chain is one function, [`Chain::run`]: Tier A again over a kept plan's
//! stages, the inputs, the join verdict, the probe and a [`LanePlan`]
//! over stages *borrowed* from the plan — no program is compiled, keyed
//! or cloned per execution. `docs/exec-runtime.md` ("Plan → run")
//! tabulates which decision is taken when.
//!
//! ## Fusion rules
//!
//! A *chain* is `σ* [⋈-probe] (σ|π)*` anchored on a base table or on a
//! materialized sub-result; every `σ/π/⋈` tree decomposes into chains:
//!
//! * `Select` and `Project` extend a chain unconditionally;
//! * a `Join` that does not compress fuses as a **probe**: its right
//!   side is evaluated and indexed up front (hash buckets for certain
//!   equi-keys, interval sweeps for the uncertain bands — one
//!   [`ProbeOp`], the same build side the operator-at-a-time planner's
//!   join walks), and left rows enumerate their matches through the
//!   probe. Only selections may
//!   sit between the source and the probe (they do not change tuples,
//!   so the sweep candidates precomputed on source row ids stay valid);
//!   a left subtree that already contains a probe or a projection is
//!   materialized first and becomes the new chain source;
//! * a `Join` that **compresses** (Section 10.4: [`AuConfig::join_compress`]
//!   set and, when adaptive, [`crate::opt::join_compression_pays_off`]
//!   on the evaluated inputs — the oracle's verdict over the oracle's
//!   lists, hence the same buckets) is a breaker that becomes the chain
//!   **source**: split/compress runs once, and the `σ/π` above it run as
//!   a probe-less chain over its output. Under a join-compression knob
//!   pre-probe selections are materialized with the left input, so the
//!   verdict sees `σ(l)` as the oracle does;
//! * aggregation, distinct, union and difference are **pipeline
//!   breakers**: the chain ends, the breaker runs its own kernel, and
//!   its inputs recurse through the pipeline extractor.
//!
//! ## Determinism (byte-identical to the oracle)
//!
//! The final result of a plan's run is byte-identical to the
//! sequential oracle's for any worker count and any split. A probe
//! chain enumerates its pairs source row by source row — a row's hash
//! bucket (or, on a nested-loop plan, every right row), then its sweep
//! candidates, each carrying its *rank*: its position in the sweeps'
//! emission order, the list the planner's operator path evaluates. The
//! two delivery contracts are that one enumeration, normalized or put
//! in planner order:
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
//!   associative for floats; the adaptive compression verdicts count
//!   rows). A chain delivers the very list the operator path builds:
//!   select-only chains preserve the source list (and its normal form);
//!   a chain ending `⋈ σ*` delivers, un-normalized, the unranked pairs
//!   as enumerated (certain-key source rows in row order × bucket order
//!   — the planner's hash phase; a nested loop's row order) followed by
//!   the sweep candidates by rank (the planner's emission order: the
//!   interval indexes sort by `(lb, row id)` and the sweeps prune
//!   order-preservingly, so restricting it to the rows the pre-probe
//!   selections kept *is* the emission order over the filtered
//!   relation), with the surrounding selections applied in place; and a
//!   chain with a projection ends normalized in both paths. A Faithful
//!   probe chain takes its own inputs Faithful. When the consumer is an
//!   aggregate, an un-normalized list carries only the columns the
//!   aggregate reads (**breaker-narrow** delivery: rows stay one-to-one,
//!   so member lists and fold order are untouched); Canonical
//!   intermediates are never narrowed — merging on fewer columns would
//!   change row counts, verdicts and buckets.
//!
//! Within one contract, morsel boundaries never matter: morsels are
//! contiguous and merged in morsel order ([`Executor::run`]), so the
//! produced row list equals the sequential single-morsel list.
//!
//! No row tuple exists while the chain runs. A batch's survivors are
//! appended as what they already are ([`ChainOut`]): `(left id, right id)`
//! pairs, source row ids, or — after a projection — typed output lanes.
//! At the end the deliveries differ only in an **order of row ids** over
//! one [`GatherView`] of that output: as enumerated, unranked-then-by-rank
//! ([`in_planner_order`]), or the normal form
//! ([`AuRelation::normalized_view_rows`]: the sharded-reduce driver over
//! 16-byte row handles that compare, hash and key lane cells exactly as
//! the tuples would). Then the delivered rows are built, once, in final
//! order — only survivors, only kept columns — as what the consumer
//! reads.
//!
//! ## Hand-over: a chain builds what its consumer reads
//!
//! Next to the delivery contract every node's [`Contract`] carries the
//! [`Form`] its consumer reads the result in. Tuples are read by the
//! query root and by the oracle's σ/π/⋈: a chain under the root takes
//! the one [`GatherView::tuples`] pass. Everything else reads column
//! lanes — a chain's source, a join's build side, a compressing join's
//! inputs and every breaker (∪, −, δ, γ): their chains gather the same
//! view in the same order into owned lanes ([`GatherView::lanes`]) and
//! hand over a relation born columnar ([`AuRelation::from_columns`]) —
//! no tuple is built that the consumer would only take apart again, and
//! its `columns()` is a pointer copy. ∪ and − are such consumers and
//! producers: they append their inputs' lanes, normalize on them and
//! return lanes; so is the split/compress join ([`crate::opt`]), which
//! runs as two probe chains ([`probe_join_pairs`]). So between the base
//! tables and the root no production operator asks an intermediate for
//! tuples (counter `rows_built` ticks only for a root born columnar), and
//! only a relation that has no lanes yet — a cold base table, γ's
//! row-born output under a chain — is columnarized by its reader (site
//! `lane_build`, counter `lane_builds`). A relation builds its other
//! side lazily either way, so the form is about cost only: results never
//! depend on it.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use audb_core::obs::{Counter, Metrics, Site, TraceBuilder};
use audb_core::{
    AuAnnot, CancelToken, EvalError, ExecError, Expr, LaneBatch, LaneSlice, OpKinds, Program,
    Semiring, ValueLane,
};
use audb_exec::{Executor, Partitioner};
use audb_storage::{
    lane_key, shared_codes, AuDatabase, AuRelation, ColumnSet, GatherView, HashKeyIndex,
    IntervalIndex, RangeTuple, Schema,
};

use super::{
    aggregate, close_rel, difference, effective_join_compress, join_detail, lanes_of,
    project_au_exec, select_au_exec, union_au_exec, AuConfig,
};
use crate::algebra::{check_group_by, AggSpec, Query};
use crate::vcheck::Vet;
use crate::{opt, planner};

/// The chain driver's grain, in source rows per morsel: a morsel sets
/// up a scratch batch and runs the whole chain over its rows, so below
/// this more morsels only add setup cost.
const MIN_ROWS_PER_MORSEL: usize = 1024;

/// `exec` at the chain driver's grain (the deterministic engine's
/// chains, [`crate::det`], share it): the executor's per-worker floor,
/// capped at [`MIN_ROWS_PER_MORSEL`], is read as rows per *morsel* and
/// the floor itself is dropped — 3 328 source rows are three morsels at
/// any worker count, one worker included. Stated relative to the
/// executor's partitioner like γ's and −'s grains, never raising what a
/// caller lowered: a zeroed floor leaves the caller's `min_morsel`.
pub(crate) fn chain_exec(exec: &Executor) -> Executor {
    let p = *exec.partitioner();
    let grain = p.min_rows_per_worker.min(MIN_ROWS_PER_MORSEL);
    exec.clone().with_partitioner(Partitioner {
        min_morsel: p.min_morsel.max(grain),
        min_rows_per_worker: 0,
        ..p
    })
}

/// Governance stride: every `GOVERN_ROWS` rows (a chain's source rows, a
/// governed loop's emitted rows — [`Governed::push`], so also inside one
/// left row's matches) a loop passes a [`checkpoint`]. Bounds how much
/// work a cancelled query can still do inside one morsel, and how far an
/// expanding join can overshoot its budget: by one stride per morsel in
/// flight, however many partners one left row has.
pub(crate) const GOVERN_ROWS: usize = 1024;

/// A row of an AU relation: what a chain's survivor is charged as.
pub(crate) type AuRow = (RangeTuple, AuAnnot);

/// The governance checkpoint of a loop that appends `T` rows (`rows` so
/// far): once `stride` rows were appended since the watermark `last`,
/// observe cancellation and charge them to the budget under `operator`,
/// each as a `T` (a chain's survivor as the [`AuRow`] it will become).
/// Loops pass [`GOVERN_ROWS`], the checkpoint that closes one 0.
pub(crate) fn checkpoint<T>(
    exec: &Executor,
    operator: &'static str,
    rows: usize,
    last: &mut usize,
    stride: usize,
) -> Result<(), ExecError> {
    let added = rows.saturating_sub(*last);
    if added < stride {
        return Ok(());
    }
    exec.check_cancel()?;
    if added > 0 {
        let bytes = added * std::mem::size_of::<T>();
        exec.charge(operator, added as u64, bytes as u64)?;
        *last = rows;
    }
    Ok(())
}

/// One morsel's output in a [`run_governed`] loop.
pub(crate) struct Governed<'m, R> {
    rows: &'m mut Vec<R>,
    /// The row count at the last charge.
    last: usize,
    exec: &'m Executor,
    operator: &'static str,
}

impl<R> Governed<'_, R> {
    /// Append `row`; every [`GOVERN_ROWS`] rows observe cancellation and
    /// charge them to the budget.
    pub(crate) fn push(&mut self, row: R) -> Result<(), ExecError> {
        self.rows.push(row);
        checkpoint::<R>(self.exec, self.operator, self.rows.len(), &mut self.last, GOVERN_ROWS)
    }
}

/// [`Executor::run`] over `0..n`, every row `f` emits governed: pushed
/// through [`Governed::push`] and charged to `operator`, the remainder at
/// each morsel's end. `scratch` is made once per morsel. The loop of both
/// engines' join operators, the det engine's chains and the AU
/// nested loop.
pub(crate) fn run_governed<R: Send, S>(
    exec: &Executor,
    operator: &'static str,
    n: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut Governed<'_, R>) -> Result<(), EvalError> + Sync,
) -> Result<Vec<R>, EvalError> {
    exec.run(n, |morsel, rows: &mut Vec<R>| {
        let (mut s, last) = (scratch(), rows.len());
        let mut out = Governed { rows, last, exec, operator };
        for i in morsel {
            f(&mut s, i, &mut out)?;
        }
        Ok(checkpoint::<R>(exec, operator, out.rows.len(), &mut out.last, 0)?)
    })
}

/// What the consumer of an evaluation result depends on — see the
/// module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Multiset-determined consumer: fused chains deliver normalized.
    Canonical,
    /// List-determined consumer: fused chains deliver the operator
    /// path's exact row list.
    Faithful,
}

/// What the consumer of an evaluation result reads it as — which side
/// of the relation a fused chain builds (module docs, "Hand-over").
/// Breakers return what their kernels build whatever is asked.
#[derive(Debug, PartialEq, Eq)]
enum Form {
    /// Tuples: read by the query root and the oracle's σ/π/⋈.
    Rows,
    /// Column lanes: a chain's source, a join's build side, a
    /// compressing join's inputs, ∪, −, δ and a γ over a breaker.
    Lanes,
    /// Column lanes of which an aggregate reads only these columns
    /// (sorted): a chain that delivers an un-normalized list gathers
    /// just them, in this order (breaker-narrow delivery).
    LanesOf(Vec<usize>),
}

/// A node's consumer contract: the planner fixes it when it lays the
/// node out and the node keeps it — nothing about the consumer is
/// threaded through a run.
#[derive(Debug)]
struct Contract {
    delivery: Delivery,
    form: Form,
}

// ---------------------------------------------------------------------------
// Chain shape analysis (no evaluation)
// ---------------------------------------------------------------------------

/// Is the subtree a select-only chain over its anchor (so a probe can
/// fuse onto it with source row ids intact)? The deterministic engine's
/// chains ([`crate::det`]) ask the same.
pub(crate) fn select_only(q: &Query) -> bool {
    match q {
        Query::Table(_) => true,
        Query::Select { input, .. } => select_only(input),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// The fused chain
// ---------------------------------------------------------------------------

/// A compiled chain stage: the register program, the columns it reads
/// (a pair batch gathers only those), and whether it rewrites tuples
/// (projection) or filters them (selection). Compiled once per chain
/// plan and borrowed by every run, worker and morsel.
#[derive(Debug)]
pub(crate) struct Stage {
    prog: Program,
    reads: Vec<usize>,
    project: bool,
}

impl Stage {
    /// `None` when Tier B rejected the program ([`Vet`]).
    pub(crate) fn filter(predicate: &Expr, vet: Vet<'_>) -> Option<Stage> {
        let reads = predicate.columns().into_iter().collect();
        Some(Stage { prog: vet.range(predicate)?, reads, project: false })
    }

    /// The whole projection list as one multi-output program.
    fn project(exprs: &[(Expr, String)], vet: Vet<'_>) -> Option<Stage> {
        let es: Vec<Expr> = exprs.iter().map(|(e, _)| e.clone()).collect();
        let reads: BTreeSet<usize> = es.iter().flat_map(Expr::columns).collect();
        Some(Stage {
            prog: vet.range_many(&es)?,
            reads: reads.into_iter().collect(),
            project: true,
        })
    }

    /// The predicate a [`Stage::filter`] was compiled from — what a join
    /// classifies its strategy and picks its bucket attributes on.
    pub(crate) fn predicate(&self) -> &Expr {
        &self.prog.sources()[0]
    }
}

/// A chain, every stage compiled and vetted, over inputs `I`: the
/// sub-queries as [`plan_chain`] lays it out (`&Query`), their plans in
/// an [`AuPlan`] (`Box<Node>`).
#[derive(Debug)]
struct Chain<I> {
    /// What the chain runs over: a base table, a breaker, or what a join
    /// materializes as its left side.
    source: I,
    /// Stages over the source rows; all selections when a probe follows.
    pre: Vec<Stage>,
    /// The join: its right input and the compiled re-check of its
    /// predicate (`None`: a cross product).
    probe: Option<(I, Option<Stage>)>,
    /// Stages over the probe's pairs.
    post: Vec<Stage>,
    /// Output column names of the outermost projection, if any.
    names: Option<Schema>,
}

enum ProbePlan {
    /// Conjunctive equality: hash probes for certain keys, precomputed
    /// sweep candidates for the uncertain bands.
    /// `codes`: the key lanes share their `Str` dictionaries
    /// ([`shared_codes`]), so keys carry codes, not strings.
    HashEqui { lcols: Vec<usize>, rcols: Vec<usize>, index: HashKeyIndex, codes: bool },
    /// Order comparison: all candidates precomputed by the endpoint
    /// sweep, re-checked per pair.
    Comparison,
    /// Cross products and unindexable predicates: every right row.
    NestedLoop,
}

/// An AU join's build side over the right relation's lanes, and the one
/// place an AU join classifies its predicate, partitions its keys by
/// certainty, builds its hash index and runs its interval sweeps. The
/// fused chain's probe and [`planner::join_au_planned_exec`] both read
/// it, each re-checking every pair in its own form (the compiled
/// [`Stage`], the interpreted `Expr`).
pub(crate) struct ProbeOp {
    right: Arc<ColumnSet>,
    plan: ProbePlan,
    /// Did the indexes run on typed cells — every key column pair read
    /// off two `Int`, two `Float` or two `Str` lanes of one dictionary —
    /// or fall back to boxed values? `None`: a nested loop reads no key.
    keys_typed: Option<bool>,
    /// The interval sweeps' pairs (uncertain-key bands for equi plans,
    /// all candidates for comparison plans; none for nested loops) per
    /// left row, as a flat CSR ([`planner::csr_by_left`]): its `(right
    /// row, rank)` candidates, `rank` being the pair's position in the
    /// sweeps' emission order. Only the CSR is kept: the chain probes it,
    /// and the ranks give the operator its list back ([`ProbeOp::pairs`]).
    cand_offsets: Vec<usize>,
    cand: Vec<(u32, u32)>,
}

/// The rank of a pair that is no sweep candidate: a hash-bucket or
/// nested-loop match, which the planner emits in source-row order before
/// any candidate.
const NO_RANK: u32 = u32::MAX;

impl ProbeOp {
    /// Build the probe of `left ⋈_on right` from the two sides' lanes.
    /// Pairs are computed over *all* left rows — selections between a
    /// chain's source and its probe only drop rows, never change them, so
    /// candidates of dropped rows are simply never probed. The interval
    /// indexes sort by `(lb, row id)` and the sweeps prune their active
    /// lists order-preservingly, so the emission order restricted to the
    /// surviving rows — what the ranks preserve — is the emission order
    /// over the filtered relation.
    ///
    /// Key certainty, the hash index and the interval indexes are all
    /// read straight off the column lanes ([`lane_key`],
    /// [`IntervalIndex::from_lane`]) — no row-tuple walk, and on typed
    /// key lanes no boxed value.
    pub(crate) fn build(lcs: &ColumnSet, rcs: Arc<ColumnSet>, on: Option<&Expr>) -> ProbeOp {
        let full_index = |cs: &ColumnSet, c: usize| IntervalIndex::from_lane(cs.lane(c).as_slice());
        let typed =
            |&(l, r): &(usize, usize)| lcs.lane(l).as_slice().typed_alike(&rcs.lane(r).as_slice());
        let certain = |keys: &[LaneSlice<'_>], n: usize| -> (Vec<u32>, Vec<u32>) {
            (0..n as u32).partition(|&i| keys.iter().all(|l| l.is_certain(i as usize)))
        };
        let mut keys_typed = None;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let plan = match planner::classify_within(on, lcs.arity(), rcs.arity()) {
            planner::JoinStrategy::HashEqui(keys) => {
                keys_typed = Some(keys.iter().all(typed));
                let (lcols, rcols): (Vec<usize>, Vec<usize>) = keys.into_iter().unzip();
                let (lkeys, rkeys) = (key_lanes(lcs, &lcols), key_lanes(&rcs, &rcols));
                let (lc, lu) = certain(&lkeys, lcs.nrows());
                let (rc, ru) = certain(&rkeys, rcs.nrows());
                // no certain left key, no bucket to probe: index nothing
                let built = if lc.is_empty() { &[][..] } else { &rc[..] };
                let codes = shared_codes(&lkeys, &rkeys);
                let index =
                    HashKeyIndex::build(built.iter().copied(), |ri| lane_key(&rkeys, codes, ri));
                // the uncertain bands, on the first key pair: uncertain
                // left keys × every right row, then certain × uncertain
                let (ll, rl) = (lkeys[0], rkeys[0]);
                if !lu.is_empty() {
                    let li = IntervalIndex::from_lane_subset(ll, &lu);
                    let ri = IntervalIndex::from_lane(rl);
                    IntervalIndex::sweep_overlapping(&li, &ri, |a, b| pairs.push((a, b)));
                }
                if !ru.is_empty() && !lc.is_empty() {
                    let li = IntervalIndex::from_lane_subset(ll, &lc);
                    let ri = IntervalIndex::from_lane_subset(rl, &ru);
                    IntervalIndex::sweep_overlapping(&li, &ri, |a, b| pairs.push((a, b)));
                }
                ProbePlan::HashEqui { lcols, rcols, index, codes }
            }
            planner::JoinStrategy::IntervalComparison { lo, hi } => {
                keys_typed = Some(typed(&match lo.0 {
                    planner::Side::Left => (lo.1, hi.1),
                    planner::Side::Right => (hi.1, lo.1),
                }));
                pairs = planner::comparison_candidates(
                    lo,
                    hi,
                    |c| full_index(lcs, c),
                    |c| full_index(&rcs, c),
                );
                ProbePlan::Comparison
            }
            planner::JoinStrategy::NestedLoop => ProbePlan::NestedLoop,
        };
        let (cand_offsets, cand) = planner::csr_by_left(lcs.nrows(), &pairs);
        ProbeOp { right: rcs, plan, keys_typed, cand_offsets, cand }
    }

    /// The sweep pairs `(left row, right row)` in emission order, put
    /// back from the CSR by rank; `None` on a nested-loop plan, where
    /// every pair is one.
    pub(crate) fn pairs(&self) -> Option<Vec<(u32, u32)>> {
        let mut pairs = vec![(0, 0); self.cand.len()];
        for (l, w) in self.cand_offsets.windows(2).enumerate() {
            for &(r, rank) in &self.cand[w[0]..w[1]] {
                pairs[rank as usize] = (l as u32, r);
            }
        }
        (!matches!(self.plan, ProbePlan::NestedLoop)).then_some(pairs)
    }

    /// A hash plan's buckets, keyed off the left lanes `lcs` and the
    /// right side's; `None` without a hash index.
    #[inline]
    pub(crate) fn buckets<'c>(&'c self, lcs: &'c ColumnSet) -> Option<Buckets<'c>> {
        match &self.plan {
            ProbePlan::HashEqui { lcols, rcols, index, codes } => Some(Buckets {
                index,
                codes: *codes,
                left: key_lanes(lcs, lcols),
                right: key_lanes(&self.right, rcols),
            }),
            _ => None,
        }
    }
}

/// A hash plan's buckets over the key lanes of both sides.
pub(crate) struct Buckets<'c> {
    index: &'c HashKeyIndex,
    /// Keys carry `Str` codes: the key lanes share their dictionaries
    /// ([`shared_codes`]).
    codes: bool,
    left: Vec<LaneSlice<'c>>,
    right: Vec<LaneSlice<'c>>,
}

impl Buckets<'_> {
    /// Left row `li`'s bucket: the right rows with a certain key equal to
    /// its own, in build order — `None` when its key is uncertain (its
    /// partners are sweep pairs). Inlined: the fused probe calls it per
    /// source row, and without the hint the 10k × 10k join spine ran
    /// ~2 % slower (one codegen unit, 2-core x86-64 box).
    #[inline]
    pub(crate) fn of(&self, li: u32) -> Option<impl Iterator<Item = u32> + '_> {
        let key = move |lanes, row| lane_key(lanes, self.codes, row);
        let certain = self.left.iter().all(|l| l.is_certain(li as usize));
        certain.then(|| self.index.matches(key(&self.left, li), move |ri| key(&self.right, ri)))
    }
}

/// The lanes of the key columns `cols`, in key order.
fn key_lanes<'c>(cs: &'c ColumnSet, cols: &[usize]) -> Vec<LaneSlice<'c>> {
    cols.iter().map(|&c| cs.lane(c).as_slice()).collect()
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
/// error is kept — the one running the rows one at a time would hit
/// first.
///
/// The exception to "exactly": after the *last* stage of a run filtered
/// borrowed or owned lanes, nothing but [`LanePlan::deliver`] reads them
/// again, so they stay uncompacted and `picked[j]` names row `j`'s lane
/// row.
struct InFlight<'a> {
    lanes: Lanes<'a>,
    live: Vec<u32>,
    annots: Vec<AuAnnot>,
    picked: Option<Vec<u32>>,
    poison: Option<(u32, EvalError)>,
}

/// The row at position `pos` failed with `error()`: keep it if it is
/// the earliest poisoned position.
fn poison_at(slot: &mut Option<(u32, EvalError)>, pos: u32, error: impl FnOnce() -> EvalError) {
    if slot.as_ref().is_none_or(|(p, _)| pos < *p) {
        *slot = Some((pos, error()));
    }
}

/// What the morsels sharing one buffer produced, in enumeration order — not
/// rows yet, but what the survivors already are. Which it is follows
/// from the chain's shape: before any projection, a probe chain's `(left
/// id, right id)` pairs or a probe-less chain's source row ids (`lids`
/// alone); after one ([`LanePlan::projects`]), the output `lanes`.
/// [`LanePlan::view`] reads either as one row list.
#[derive(Default)]
pub(crate) struct ChainOut {
    pub(crate) lids: Vec<u32>,
    pub(crate) rids: Vec<u32>,
    lanes: Vec<ValueLane>,
    pub(crate) annots: Vec<AuAnnot>,
    /// On a [`LanePlan::ranked`] chain: each row's rank.
    ranks: Vec<u32>,
}

impl ChainOut {
    /// Append the buffer that was filled after this one.
    fn extend(&mut self, next: ChainOut) {
        if self.annots.is_empty() {
            *self = next;
            return;
        }
        self.lids.extend(next.lids);
        self.rids.extend(next.rids);
        for (lane, more) in self.lanes.iter_mut().zip(&next.lanes) {
            lane.append(&more.as_slice(), None);
        }
        self.annots.extend(next.annots);
        self.ranks.extend(next.ranks);
    }
}

/// What a chain did on the lanes, summed over morsels for its span.
#[derive(Default)]
struct ChainStats {
    pairs: AtomicU64,
    pair_batches: AtomicU64,
    stages_boxed: AtomicU64,
    /// The kinds of op whose kernel demoted ([`OpKinds`] bits).
    demoted: AtomicU16,
}

/// A chain laid out for lane execution: the stages
/// before the probe run over borrowed source lanes, the probe
/// enumerates matches as row ids, and the stages after it — the join's
/// re-check predicate first — run over pair batches. A probe-less chain
/// is all `pre`.
struct LanePlan<'p> {
    left: Arc<ColumnSet>,
    pre: Vec<&'p Stage>,
    probe: Option<ProbeOp>,
    post: Vec<&'p Stage>,
    /// Some stage rewrites tuples: the chain delivers output lanes, not
    /// row ids.
    projects: bool,
    /// The output columns to materialize (breaker-narrow delivery);
    /// `None` builds whole tuples.
    keep: Option<&'p [usize]>,
    /// Record every surviving pair's rank ([`ChainOut::ranks`]): the
    /// chain delivers its pairs as a list, in the planner's order.
    ranked: bool,
    stats: ChainStats,
}

impl<'p> LanePlan<'p> {
    /// `pre`, then a probe of `right` with its compiled re-check, then
    /// `post` over `source`. The column sets are built (or fetched from
    /// the relations' caches) once and shared by every morsel; the
    /// probe's build is the chain's `chain_build` site.
    fn new(
        source: &AuRelation,
        pre: &'p [Stage],
        right: Option<(&AuRelation, Option<&'p Stage>)>,
        post: &'p [Stage],
        keep: Option<&'p [usize]>,
        ranked: bool,
        exec: &Executor,
    ) -> LanePlan<'p> {
        let left = lanes_of(source, exec);
        let (mut probe, mut recheck) = (None, None);
        if let Some((r, stage)) = right {
            let rcs = lanes_of(r, exec);
            let started = exec.metrics().is_enabled().then(Instant::now);
            (probe, recheck) =
                (Some(ProbeOp::build(&left, rcs, stage.map(Stage::predicate))), stage);
            if let Some(t) = started {
                exec.metrics().record_ns(Site::ChainBuild, t.elapsed().as_nanos() as u64);
            }
        }
        LanePlan {
            left,
            pre: pre.iter().collect(),
            post: recheck.into_iter().chain(post).collect(),
            probe,
            projects: pre.iter().chain(post).any(|st| st.project),
            keep,
            ranked,
            stats: ChainStats::default(),
        }
    }

    /// The one lane-stage loop: run `stages` over the batch in flight,
    /// each as typed vector kernels ([`Program::eval_range_lanes`]) over
    /// the lanes it reads; multiply a selection's bool3 into the
    /// annotations and compact, replace the lanes by a projection's
    /// outputs.
    ///
    /// Byte-identity with the operator-at-a-time oracle holds because
    /// the kernels are exact refinements of the scalar combinators — an
    /// op whose kernel cannot reproduce a row bit-identically (Int
    /// overflow, NaN) demotes wholesale to the generic per-row
    /// evaluation — and surviving rows keep their order; erroring rows
    /// are poisoned, never dropped.
    fn run_stages(
        &self,
        stages: &[&Stage],
        fl: &mut InFlight<'_>,
        batch: &mut LaneBatch,
        cancel: Option<&CancelToken>,
    ) -> Result<(), ExecError> {
        for (i, st) in stages.iter().enumerate() {
            let nrows = fl.live.len();
            if nrows == 0 {
                break;
            }
            let mut compact = true;
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
                    self.stats.demoted.fetch_or(batch.demoted_kinds().bits(), Ordering::Relaxed);
                }
                // Reading an output lane is only safe when some row
                // survived: with every row poisoned (e.g. an out-of-arity
                // column probe) the output source may reference a column
                // that does not exist.
                let any_clean = batch.poisoned() < nrows;
                let filter =
                    (!st.project && any_clean).then(|| batch.output_lane(&st.prog, 0, &slices));
                let mut keep: Vec<u32> = Vec::with_capacity(nrows);
                let annots = &mut fl.annots;
                let mut pass = |keep: &mut Vec<u32>, j: usize, (lb, sg, ub): (bool, bool, bool)| {
                    // `ub` false: false in all worlds
                    if ub {
                        annots[j] = annots[j].times(&AuAnnot::from_bool3(lb, sg, ub));
                        keep.push(j as u32);
                    }
                };
                match (batch.poisoned(), &filter) {
                    // almost every batch: nothing poisoned, and a typed
                    // predicate — no per-row error checks
                    (0, None) => keep.extend(0..nrows as u32),
                    (0, Some(LaneSlice::Bool { lb, sg, ub })) => {
                        (0..nrows).for_each(|j| pass(&mut keep, j, (lb[j], sg[j], ub[j])));
                    }
                    _ => {
                        for j in 0..nrows {
                            match (batch.row_error(j), &filter) {
                                (Some(e), _) => poison_at(&mut fl.poison, fl.live[j], || e.clone()),
                                (None, None) => keep.push(j as u32),
                                (None, Some(lane)) => match lane.bool3(j) {
                                    Err(e) => poison_at(&mut fl.poison, fl.live[j], || e),
                                    Ok(triple) => pass(&mut keep, j, triple),
                                },
                            }
                        }
                    }
                }
                let all = keep.len() == nrows;
                let pick = |ids: &[u32]| keep.iter().map(|&j| ids[j as usize]).collect();
                let next = if st.project {
                    let outs =
                        (0..st.prog.arity()).map(|o| batch.output_lane(&st.prog, o, &slices));
                    Some(Lanes::Owned(match (any_clean, all) {
                        (false, _) => Vec::new(),
                        (true, true) => outs.map(|s| s.to_lane()).collect(),
                        (true, false) => outs.map(|s| s.gather(&keep)).collect(),
                    }))
                } else if all {
                    None
                } else if let Lanes::Pairs { right, lids, rids } = &fl.lanes {
                    Some(Lanes::Pairs { right, lids: pick(lids), rids: pick(rids) })
                } else if i + 1 == stages.len() {
                    compact = false;
                    None
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
                fl.picked = (!compact).then_some(keep);
            }
        }
        Ok(())
    }

    /// Append the batch in flight to the morsel's output as what its
    /// survivors already are (see [`ChainOut`]) — no tuple is built here.
    /// `base` is the source row of chunk position 0; `ranks` are a pair
    /// batch's, by batch position.
    fn deliver(&self, fl: InFlight<'_>, base: usize, ranks: &[u32], out: &mut ChainOut) {
        if fl.annots.is_empty() {
            return;
        }
        match &fl.lanes {
            Lanes::Pairs { lids, rids, .. } => {
                out.lids.extend_from_slice(lids);
                out.rids.extend_from_slice(rids);
                if self.ranked {
                    out.ranks.extend(fl.live.iter().map(|&pos| ranks[pos as usize]));
                }
            }
            Lanes::Owned(lanes) if self.projects => {
                out.lanes.resize_with(lanes.len(), ValueLane::default);
                for (all, lane) in out.lanes.iter_mut().zip(lanes) {
                    all.append(&lane.as_slice(), fl.picked.as_deref());
                }
            }
            // a select-only run: chunk positions are source rows
            _ => out.lids.extend(fl.live.iter().map(|&pos| (base + pos as usize) as u32)),
        }
        out.annots.extend(fl.annots);
    }

    /// The chain's whole output as one row list over lanes: the
    /// [`LanePlan::keep`] columns of the two sides' column sets gathered
    /// by row id, or the projection's output lanes.
    fn view<'v>(&'v self, out: &'v ChainOut) -> GatherView<'v> {
        if self.projects {
            return GatherView::new(out.lanes.iter().map(|l| (l.as_slice(), None)).collect());
        }
        let la = self.left.arity();
        let arity = la + self.probe.as_ref().map_or(0, |p| p.right.arity());
        let col = |c: usize| match (c.checked_sub(la), &self.probe) {
            (Some(rc), Some(p)) => (p.right.lane(rc).as_slice(), Some(&out.rids[..])),
            _ => (self.left.lane(c).as_slice(), Some(&out.lids[..])),
        };
        GatherView::new(match self.keep {
            Some(keep) => keep.iter().map(|&c| col(c)).collect(),
            None => (0..arity).map(col).collect(),
        })
    }

    /// Run the chain over all `n` source rows, morsel by morsel on the
    /// executor's workers at the chain driver's grain ([`chain_exec`]),
    /// and concatenate the morsels' outputs in morsel order: the chain's
    /// whole output, as enumerated.
    fn run_all(
        &self,
        n: usize,
        exec: &Executor,
        operator: &'static str,
    ) -> Result<ChainOut, EvalError> {
        // the morsels one thread is handed the same vector for (inline:
        // all of them) share one buffer
        let jobs: Vec<ChainOut> = chain_exec(exec).run(n, |range, out| {
            if out.is_empty() {
                out.push(ChainOut::default());
            }
            self.run_morsel(range, &mut out[0], exec, operator)
        })?;
        let mut all = ChainOut::default();
        jobs.into_iter().for_each(|job| all.extend(job));
        Ok(all)
    }

    /// Run the chain over one morsel in [`GOVERN_ROWS`]-row chunks, so
    /// cancellation is observed and produced rows are charged to the
    /// budget (`operator`) with bounded overshoot; chunking cannot
    /// change results because every op is row-local and chunks run in
    /// source order.
    fn run_morsel(
        &self,
        range: std::ops::Range<usize>,
        out: &mut ChainOut,
        exec: &Executor,
        operator: &'static str,
    ) -> Result<(), EvalError> {
        // one scratch batch per morsel: its poison slots for a full pair
        // batch are a large allocation, not to be repeated per chunk
        let (mut batch, mut watermark) = (LaneBatch::default(), out.annots.len());
        for start in range.clone().step_by(GOVERN_ROWS) {
            checkpoint::<AuRow>(exec, operator, out.annots.len(), &mut watermark, 0)?;
            let end = range.end.min(start + GOVERN_ROWS);
            self.run_chunk(start..end, &mut batch, out, &mut watermark, exec)?;
        }
        Ok(checkpoint::<AuRow>(exec, operator, out.annots.len(), &mut watermark, 0)?)
    }

    /// One source chunk of [`LanePlan::run_morsel`]: the pre-probe stages
    /// over the borrowed source lanes, then — on a probe chain — the
    /// surviving rows' matches, enumerated as `(left id, right id,
    /// k_l ⊗ k_r)` row by row (hash bucket, then sweep candidates with
    /// their ranks) into [`PAIR_BATCH`]-sized batches that run the
    /// remaining stages.
    ///
    /// Errors surface in row-at-a-time order, as if each source row ran
    /// the whole chain before the next was touched: the earliest
    /// erroring source row wins, a row that passed the pre-probe stages
    /// errs at its earliest erroring pair, and rows past the first
    /// poisoned source row are never probed.
    fn run_chunk(
        &self,
        range: std::ops::Range<usize>,
        batch: &mut LaneBatch,
        out: &mut ChainOut,
        watermark: &mut usize,
        exec: &Executor,
    ) -> Result<(), EvalError> {
        let mut fl = InFlight {
            lanes: Lanes::Borrowed(
                self.left.lanes().iter().map(|l| l.slice(range.clone())).collect(),
            ),
            live: (0..range.len() as u32).collect(),
            annots: range.clone().map(|i| self.left.annots().get(i)).collect(),
            picked: None,
            poison: None,
        };
        self.run_stages(&self.pre, &mut fl, batch, exec.cancel_token())?;
        let poison = fl.poison.take();
        let Some(probe) = &self.probe else {
            return match poison {
                Some((_, e)) => Err(e),
                None => {
                    self.deliver(fl, range.start, &[], out);
                    Ok(())
                }
            };
        };
        let right = &*probe.right;
        let limit = poison.as_ref().map_or(u32::MAX, |(p, _)| *p);
        let (lids, rids, ranks, annots) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut sink =
            PairSink { plan: self, right, lids, rids, ranks, annots, batch, out, watermark, exec };
        let unranked = |ri: u32| (ri, NO_RANK);
        let buckets = probe.buckets(&self.left);
        for (&pos, &k) in fl.live.iter().zip(&fl.annots).take_while(|(&p, _)| p < limit) {
            let src = range.start + pos as usize;
            if let ProbePlan::NestedLoop = probe.plan {
                sink.feed(src, k, (0..right.nrows() as u32).map(unranked))?;
                continue;
            }
            if let Some(hits) = buckets.as_ref().and_then(|b| b.of(src as u32)) {
                sink.feed(src, k, hits.map(unranked))?;
            }
            let cand = &probe.cand[probe.cand_offsets[src]..probe.cand_offsets[src + 1]];
            sink.feed(src, k, cand.iter().copied())?;
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
    /// Per pending pair its rank — only on a [`LanePlan::ranked`] chain.
    ranks: Vec<u32>,
    annots: Vec<AuAnnot>,
    batch: &'r mut LaneBatch,
    out: &'r mut ChainOut,
    watermark: &'r mut usize,
    exec: &'r Executor,
}

impl<'r, 'p> PairSink<'r, 'p> {
    /// Append source row `src`'s matches — `(right row, rank)` —
    /// flushing full batches.
    fn feed(
        &mut self,
        src: usize,
        k: AuAnnot,
        matches: impl Iterator<Item = (u32, u32)>,
    ) -> Result<(), EvalError> {
        for (ri, rank) in matches {
            self.lids.push(src as u32);
            self.rids.push(ri);
            if self.plan.ranked {
                self.ranks.push(rank);
            }
            self.annots.push(k.times(&self.right.annots().get(ri as usize)));
            if self.lids.len() == PAIR_BATCH {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Run the post-probe stages over the pending pairs and deliver the
    /// survivors; charge them (`"join-probe"`) and observe cancellation
    /// before the next batch is enumerated.
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
            picked: None,
            poison: None,
        };
        plan.run_stages(&plan.post, &mut fl, self.batch, self.exec.cancel_token())?;
        if let Some((_, e)) = fl.poison.take() {
            return Err(e);
        }
        plan.deliver(fl, 0, &self.ranks, self.out);
        self.ranks.clear();
        if let Some(t) = started {
            metrics.record_ns(Site::ChainProbe, t.elapsed().as_nanos() as u64);
        }
        plan.stats.pairs.fetch_add(n as u64, Ordering::Relaxed);
        plan.stats.pair_batches.fetch_add(1, Ordering::Relaxed);
        let rows = self.out.annots.len();
        Ok(checkpoint::<AuRow>(self.exec, "join-probe", rows, self.watermark, 0)?)
    }
}

/// The positions of a probe chain's rows — enumerated source row by
/// source row, each row's hash-bucket (or nested-loop) pairs before its
/// sweep candidates — in the order the operator-at-a-time planner emits
/// them: the unranked rows as enumerated, then the sweep candidates by
/// rank.
fn in_planner_order(ranks: &[u32]) -> Vec<u32> {
    let (mut order, mut swept): (Vec<u32>, Vec<u32>) =
        (0..ranks.len() as u32).partition(|&i| ranks[i as usize] == NO_RANK);
    swept.sort_unstable_by_key(|&i| ranks[i as usize]);
    order.extend(swept);
    order
}

/// `l ⋈_θ r` as one ordinary probe chain with nothing around it — each
/// half of a split/compress join ([`crate::opt`]): the probe is built on
/// `r`'s lanes, `l` splits into morsels over the executor's workers, and the pairs
/// that pass the re-check come back as enumerated (`lids`, `rids`,
/// `annots`), with the probe's `keys_typed`.
pub(crate) fn probe_join_pairs(
    l: &AuRelation,
    r: &AuRelation,
    recheck: Option<&Stage>,
    exec: &Executor,
) -> Result<(ChainOut, Option<bool>), EvalError> {
    let plan = LanePlan::new(l, &[], Some((r, recheck)), &[], None, false, exec);
    let keys_typed = plan.probe.as_ref().and_then(|p| p.keys_typed);
    Ok((plan.run_all(l.len(), exec, "join-probe")?, keys_typed))
}

/// Lay out the chain rooted at `q` (a `σ/π/⋈` tree) and compile
/// **every** stage of it — before any input is planned, so a rejection
/// costs nothing below it. `None` when Tier B rejected a stage.
fn plan_chain<'q>(q: &'q Query, cfg: &AuConfig, vet: Vet<'_>) -> Option<Chain<&'q Query>> {
    let anchor =
        |source: &'q Query| Chain { source, pre: vec![], probe: None, post: vec![], names: None };
    let (mut chain, stage) = match q {
        Query::Select { input, predicate } => {
            (plan_chain(input, cfg, vet)?, Stage::filter(predicate, vet)?)
        }
        Query::Project { input, exprs } => {
            let mut chain = plan_chain(input, cfg, vet)?;
            chain.names = Some(Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect()));
            (chain, Stage::project(exprs, vet)?)
        }
        Query::Join { left, right, predicate } => {
            // Left side: continue a select-only chain in place (source
            // row ids stay valid for the sweep candidates); anything
            // else — and, under a join-compression knob, any selection,
            // so that the verdict sees σ(l) — is materialized and
            // becomes the new chain source.
            let in_place = select_only(left) && cfg.join_compress.is_none();
            let mut chain = if in_place { plan_chain(left, cfg, vet)? } else { anchor(left) };
            let recheck = match predicate {
                Some(p) => Some(Stage::filter(p, vet)?),
                None => None,
            };
            chain.probe = Some((right, recheck));
            return Some(chain);
        }
        // a base table, or a breaker whose output the chain runs over
        _ => return Some(anchor(q)),
    };
    if chain.probe.is_some() { &mut chain.post } else { &mut chain.pre }.push(stage);
    Some(chain)
}

// ---------------------------------------------------------------------------
// The physical plan: fused chains between pipeline breakers
// ---------------------------------------------------------------------------

/// A query's physical plan under one configuration's result knobs: a
/// tree of fused chains (every [`Stage`] compiled and vetted), pipeline
/// breakers and oracle nodes, each holding its consumer's [`Contract`].
/// [`AuPlan::new`] takes every decision that depends on the query and
/// the configuration alone — the chain decomposition, Tier A/B, the
/// contracts, the columns γ reads — once; a run takes the ones that
/// depend on the data (the compression verdicts over the evaluated
/// inputs, a probe's strategy and indexes, breaker-narrow delivery) and
/// borrows everything else. A plan holds no data and no resources: it
/// runs any number of times, from any number of threads, against any
/// database with the tables it names.
#[derive(Debug)]
pub struct AuPlan {
    /// The knobs the plan was laid out under; of them a run reads the
    /// compression settings, for its verdicts.
    cfg: AuConfig,
    /// Laid out by [`AuPlan::oracle`].
    oracle: bool,
    root: Node,
}

/// One operator of a plan, run under a span of its own. `Table` is a
/// base table under a chain. A `Chain`'s `detail` is its span's, kept
/// only by a traced planning call. `Scan`, `Select`, `Project` and
/// `Join` are the oracle's: the paper's operators over interpreted `Expr`
/// trees, one materialization each — and a lane plan's in the place of a
/// chain one of whose stages Tier B rejected, inputs included (which
/// reproduces either delivery exactly). The breakers run their own kernels
/// in either plan; δ is γ on every column with no aggregates, and γ's
/// `specs[1]` is `specs[0]` (as written) re-slotted onto the sorted
/// columns γ reads, for an input that delivered just those.
#[derive(Debug)]
enum Node {
    Table(String),
    Chain { chain: Box<Chain<Box<Node>>>, consumer: Contract, detail: String },
    Scan(String),
    Select(Box<Node>, Expr),
    Project(Box<Node>, Vec<(Expr, String)>),
    Join(Box<Node>, Box<Node>, Option<Expr>),
    Union(Box<Node>, Box<Node>),
    Difference(Box<Node>, Box<Node>),
    Distinct(Box<Node>),
    Aggregate { input: Box<Node>, specs: [(Vec<usize>, Vec<AggSpec>); 2] },
}

/// What a run hands every node: the data, the plan's result knobs, the
/// resources, the trace — and whether the plan was `kept` from an
/// earlier execution.
#[derive(Clone, Copy)]
struct Run<'a> {
    db: &'a AuDatabase,
    cfg: &'a AuConfig,
    exec: &'a Executor,
    tr: &'a TraceBuilder,
    kept: bool,
}

impl AuPlan {
    /// Plan `q` under `cfg`: one walk, compiling and vetting every chain
    /// stage (rejections tick `metrics`; under a live `tr` the `verify`
    /// spans sit under one `plan` span, and the plan keeps its chains'
    /// span details — an untraced call renders none).
    pub fn new(q: &Query, cfg: &AuConfig, metrics: &Metrics, tr: &TraceBuilder) -> AuPlan {
        AuPlan::lay_out(q, cfg, Some(Vet::new(metrics, tr)), tr)
    }

    /// The differential reference: `q` planned operator at a time, every
    /// σ/π/⋈/scan on its row function over interpreted `Expr` trees and
    /// the breakers on their kernels — nothing compiled. Byte-identical to
    /// [`AuPlan::new`]'s result under the same `cfg`, for any executor;
    /// a lane fault degrades to it ([`super::degrade_once`]).
    pub fn oracle(q: &Query, cfg: &AuConfig, tr: &TraceBuilder) -> AuPlan {
        AuPlan::lay_out(q, cfg, None, tr)
    }

    fn lay_out(q: &Query, cfg: &AuConfig, vet: Option<Vet<'_>>, tr: &TraceBuilder) -> AuPlan {
        let h = tr.open("plan", String::new);
        let root = Contract { delivery: Delivery::Canonical, form: Form::Rows };
        let root = Node::plan(q, cfg, root, vet);
        tr.close(h, None, None);
        AuPlan { cfg: *cfg, oracle: vet.is_none(), root }
    }

    /// One attempt of a plan that was kept, on the caller's executor —
    /// [`super::eval_au_attempt`] without the planning. A program that
    /// crosses from one execution to the next passes Tier A again before
    /// it runs: every chain re-checks its own stages as it is built
    /// (structural, `O(ops · depth)`; no key, no clone). One that fails
    /// surfaces as a producer fault, which a caller that retries answers
    /// from an oracle plan.
    pub fn run(
        &self,
        db: &AuDatabase,
        exec: &Executor,
        tr: &TraceBuilder,
    ) -> Result<AuRelation, EvalError> {
        self.attempt(true, db, exec, tr)
    }

    /// Run the plan under an `attempt` span and normalize the result.
    pub(super) fn attempt(
        &self,
        kept: bool,
        db: &AuDatabase,
        exec: &Executor,
        tr: &TraceBuilder,
    ) -> Result<AuRelation, EvalError> {
        let h = tr.open("attempt", String::new);
        let mode = if self.oracle { "oracle" } else { "lanes" };
        tr.attr(h, "mode", || mode.to_string());
        tr.attr(h, "workers", || exec.workers().to_string());
        let (rel, _) = self.root.run(Run { db, cfg: &self.cfg, exec, tr, kept })?;
        let rel = rel.into_owned().into_normalized_with(exec)?;
        // the caller reads tuples: a root born columnar builds them here,
        // inside the query's span (counter `rows_built`)
        if !rel.has_rows() {
            exec.metrics().add(Counter::RowsBuilt, 1);
            rel.rows();
        }
        close_rel(tr, h, &rel);
        Ok(rel)
    }
}

impl Node {
    /// Plan the sub-query `q` for a consumer with contract `consumer`;
    /// `vet: None` plans it for the oracle. Stages compile chain by chain,
    /// outermost chain first, then its source's, then its join's right
    /// side's — the order a run evaluates them in.
    fn plan(q: &Query, cfg: &AuConfig, consumer: Contract, vet: Option<Vet<'_>>) -> Node {
        let below = |q: &Query, delivery, form| {
            Box::new(Node::plan(q, cfg, Contract { delivery, form }, vet))
        };
        let tuples = |q: &Query| below(q, Delivery::Canonical, Form::Rows);
        let lanes = |q: &Query| below(q, Delivery::Canonical, Form::Lanes);
        match (q, vet) {
            // A pipeline breaker runs its own kernel; its inputs are planned
            // with the delivery and in the form it requires (module docs).
            // What it returns is what its kernel builds, whatever is asked.
            // ∪, − and δ read multisets (merges, annotation sums and
            // bounding boxes are commutative folds), as lanes.
            (Query::Union { left, right }, _) => Node::Union(lanes(left), lanes(right)),
            (Query::Difference { left, right }, _) => Node::Difference(lanes(left), lanes(right)),
            (Query::Distinct { input }, _) => Node::Distinct(lanes(input)),
            (Query::Aggregate { input, group_by, aggs }, _) => {
                // bound folds run in member order (floats!) → exact list, of
                // which only the columns `reads` are ever looked at
                let reads: Vec<usize> = (group_by.iter().copied())
                    .chain(aggs.iter().flat_map(|a| a.input.columns()))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                // `reads` is sorted: a read column's slot is its rank
                let slot = |c: usize| reads.partition_point(|&r| r < c);
                let respec = |a: &AggSpec| {
                    AggSpec::new(a.func, a.input.remap_columns(&slot), a.name.clone())
                };
                let narrow: Vec<usize> = group_by.iter().map(|&c| slot(c)).collect();
                let specs =
                    [(group_by.clone(), aggs.clone()), (narrow, aggs.iter().map(respec).collect())];
                let form = if is_chain(input) { Form::LanesOf(reads) } else { Form::Lanes };
                Node::Aggregate { input: below(input, Delivery::Faithful, form), specs }
            }
            // an oracle operator reads whatever its inputs return
            (Query::Table(name), None) => Node::Scan(name.clone()),
            (Query::Select { input, predicate }, None) => {
                Node::Select(tuples(input), predicate.clone())
            }
            (Query::Project { input, exprs }, None) => Node::Project(tuples(input), exprs.clone()),
            (Query::Join { left, right, predicate }, None) => {
                Node::Join(tuples(left), tuples(right), predicate.clone())
            }
            // a σ/π/⋈ tree of the lane plan: a chain, or — a stage
            // rejected — the oracle's operators in its place
            (_, Some(vet)) => {
                let Some(laid) = plan_chain(q, cfg, vet) else {
                    return Node::plan(q, cfg, consumer, None);
                };
                // A join's inputs are lists whenever its own pairs are
                // delivered as one, and under a join-compression knob (the
                // verdict counts rows).
                let faithful = cfg.join_compress.is_some();
                let inputs = if faithful { Delivery::Faithful } else { consumer.delivery };
                let source = match laid.source {
                    Query::Table(name) => Box::new(Node::Table(name.clone())),
                    materialized => below(materialized, inputs, Form::Lanes),
                };
                let probe =
                    laid.probe.map(|(right, recheck)| (below(right, inputs, Form::Lanes), recheck));
                let chain =
                    Chain { source, probe, pre: laid.pre, post: laid.post, names: laid.names };
                let detail = vet.detail(|| q.to_string());
                Node::Chain { chain: Box::new(chain), consumer, detail }
            }
        }
    }

    /// Evaluate the node under its span, opened before its inputs run so
    /// theirs nest under it: its relation, and whether it holds just the
    /// columns a [`Form::LanesOf`] consumer reads. A base table or a scan
    /// is borrowed; every other node owns its output.
    fn run<'a>(&'a self, on: Run<'a>) -> Result<(Cow<'a, AuRelation>, bool), EvalError> {
        let Run { db, cfg, exec, tr, .. } = on;
        let input = |node: &'a Node, h| {
            let (rel, _) = node.run(on)?;
            tr.rows_in(h, rel.len() as u64);
            Ok::<_, EvalError>(rel)
        };
        let breaker = |op, detail: &dyn Fn() -> String| {
            let h = tr.open(op, detail);
            tr.attr(h, "fallback", || "pipeline-breaker".to_string());
            h
        };
        let (h, out) = match self {
            Node::Table(name) => return Ok((Cow::Borrowed(db.get(name)?), false)),
            Node::Chain { chain, consumer, detail } => {
                let h = tr.open("fused-chain", || detail.clone());
                let canonical = consumer.delivery == Delivery::Canonical;
                tr.attr(h, "delivery", || if canonical { "canonical" } else { "faithful" }.into());
                let rows = consumer.form == Form::Rows;
                tr.attr(h, "form", || if rows { "rows" } else { "lanes" }.into());
                return chain.run(on, consumer, h);
            }
            Node::Scan(name) => {
                let h = tr.open("scan", || name.clone());
                let rel = db.get(name)?;
                close_rel(tr, h, rel);
                return Ok((Cow::Borrowed(rel), false));
            }
            Node::Select(of, predicate) => {
                let h = tr.open("select", || predicate.to_string());
                (h, select_au_exec(&*input(of, h)?, predicate, exec)?)
            }
            Node::Project(of, exprs) => {
                let h = tr.open("project", || {
                    let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e}→{n}")).collect();
                    cols.join(", ")
                });
                (h, project_au_exec(&*input(of, h)?, exprs, exec)?)
            }
            Node::Join(left, right, predicate) => {
                let h = tr.open("join", || join_detail(predicate.as_ref()));
                let (l, r) = (left.run(on)?.0, right.run(on)?.0);
                tr.rows_in(h, (l.len() + r.len()) as u64);
                let out = match effective_join_compress(cfg, &l, &r) {
                    Some(ct) => {
                        // Section 10.4 as written, not the lane kernel
                        tr.attr(h, "strategy", || "split-compress".to_string());
                        opt::optimized_join_literal(&l, &r, predicate.as_ref(), ct, exec)?
                    }
                    None => {
                        tr.attr(h, "strategy", || {
                            let (la, ra) = (l.schema.arity(), r.schema.arity());
                            planner::classify_within(predicate.as_ref(), la, ra).name().into()
                        });
                        planner::join_au_planned_exec(&l, &r, predicate.as_ref(), exec)?
                    }
                };
                (h, out)
            }
            Node::Union(left, right) | Node::Difference(left, right) => {
                let union = matches!(self, Node::Union(..));
                let h = breaker(if union { "union" } else { "difference" }, &String::new);
                let (l, r) = (left.run(on)?.0, right.run(on)?.0);
                tr.rows_in(h, (l.len() + r.len()) as u64);
                let set_op = if union { union_au_exec } else { difference::difference_au_exec };
                (h, set_op(&l, &r, exec)?)
            }
            Node::Distinct(of) | Node::Aggregate { input: of, .. } => {
                let specs =
                    if let Node::Aggregate { specs, .. } = self { Some(specs) } else { None };
                let h = match specs {
                    Some([(group_by, aggs), _]) => breaker("aggregate", &|| {
                        format!("group_by={group_by:?} aggs={}", aggs.len())
                    }),
                    None => breaker("distinct", &String::new),
                };
                let (rel, narrowed) = of.run(on)?;
                let all: Vec<usize> = (0..rel.schema.arity()).collect();
                let (group_by, aggs): (&[usize], &[AggSpec]) =
                    match specs.map(|specs| &specs[usize::from(narrowed)]) {
                        Some((group_by, aggs)) => (group_by, aggs),
                        None => (&all, &[]),
                    };
                check_group_by(group_by, rel.schema.arity())?;
                tr.rows_in(h, rel.len() as u64);
                // the compression verdict, taken on the evaluated input
                let pays_off = |ct| opt::agg_compression_pays_off(&rel, group_by, ct);
                let compress = cfg.agg_compress.filter(|&ct| !cfg.adaptive || pays_off(ct));
                tr.attr(h, "compress", || {
                    compress.map_or_else(|| "none".into(), |c| c.to_string())
                });
                let (out, st) =
                    aggregate::aggregate_au_stats(&rel, group_by, aggs, compress, exec)?;
                let attrs = [
                    ("groups", st.groups),
                    ("sources", st.sources),
                    ("pairs", st.pairs),
                    ("members", st.members),
                    ("terms", st.terms),
                    ("terms_boxed", st.terms_boxed),
                ];
                for (key, v) in attrs {
                    tr.attr(h, key, || v.to_string());
                }
                let kinds = [
                    ("keys", if st.keys_boxed { "boxed" } else { "typed" }),
                    ("membership", if st.prefix { "prefix" } else { "sweep" }),
                ];
                for (key, v) in kinds {
                    tr.attr(h, key, || v.to_string());
                }
                (h, out)
            }
        };
        close_rel(tr, h, &out);
        Ok((Cow::Owned(out), false))
    }
}

impl Chain<Box<Node>> {
    /// Run the chain under its open `fused-chain` span `h`. A kept plan's
    /// programs pass Tier A first. The inputs — source, a join's right
    /// side — are evaluated once each and the join's compression verdict
    /// taken on them: a join that compresses runs here, under a `join`
    /// span, as the source of a probe-less chain; else it is the probe.
    /// The chain then runs morsel by morsel on the lanes ([`LanePlan`])
    /// and delivers per its shape and `consumer`: one breaker
    /// normalization when a projection rewrote tuples or a Canonical
    /// consumer takes a probe's pairs, else the enumerated list (a
    /// select-only chain's preserves the source's normal form, as
    /// [`super::select_au_exec`] does). A [`Form::LanesOf`] consumer gets
    /// just the columns it reads when the list is un-normalized, and the
    /// returned flag says so.
    fn run<'a>(
        &'a self,
        on: Run<'a>,
        consumer: &'a Contract,
        h: usize,
    ) -> Result<(Cow<'a, AuRelation>, bool), EvalError> {
        let Run { cfg, exec, tr, kept, .. } = on;
        let recheck = self.probe.as_ref().and_then(|(_, recheck)| recheck.as_ref());
        if kept {
            for st in self.pre.iter().chain(recheck).chain(&self.post) {
                st.prog.verify().map_err(|e| ExecError::WorkerPanic {
                    morsel: 0,
                    payload: format!("kept plan failed Tier A: {e}"),
                })?;
            }
        }
        let (mut source, _) = self.source.run(on)?;
        let right = match &self.probe {
            Some((right, _)) => Some(right.run(on)?.0),
            None => None,
        };
        let schema = match (&self.names, &right) {
            (Some(names), _) => names.clone(),
            (None, Some(r)) => source.schema.concat(&r.schema),
            (None, None) => source.schema.clone(),
        };
        // the right side a probe is built over, unless its join compresses
        let (mut pre, mut post, mut probe) = (&self.pre[..], &self.post[..], None);
        if let Some(r) = right {
            if let Some(ct) = effective_join_compress(cfg, &source, &r) {
                let j = tr.open("join", || join_detail(recheck.map(Stage::predicate)));
                tr.rows_in(j, (source.len() + r.len()) as u64);
                tr.attr(j, "strategy", || "split-compress".to_string());
                let (out, st) = opt::optimized_join_stats(&source, &r, recheck, ct, exec)?;
                let attrs = [
                    ("sg_rows", st.sg_rows),
                    ("buckets_l", st.buckets_l),
                    ("buckets_r", st.buckets_r),
                    ("possible_rows", st.possible_rows),
                ];
                for (key, v) in attrs {
                    tr.attr(j, key, || v.to_string());
                }
                if let Some(typed) = st.keys_typed {
                    tr.attr(j, "keys", || (if typed { "typed" } else { "boxed" }).to_string());
                }
                close_rel(tr, j, &out);
                source = Cow::Owned(out);
                debug_assert!(pre.is_empty(), "a compressing join anchors its chain");
                (pre, post) = (post, &[]);
            } else {
                probe = Some(r);
            }
        }
        tr.rows_in(h, source.len() as u64);
        if pre.is_empty() && probe.is_none() {
            close_rel(tr, h, &source);
            return Ok((source, false));
        }
        let n = source.len();
        let normalizes = pre.iter().chain(post).any(|st| st.project)
            || (probe.is_some() && consumer.delivery == Delivery::Canonical);
        let arity = schema.arity();
        let keep = match &consumer.form {
            Form::LanesOf(reads) => Some(&reads[..]),
            _ => None,
        }
        .filter(|r| !normalizes && r.len() < arity && r.iter().all(|&c| c < arity));
        // a probe's pairs delivered as a list go out in the planner's order
        let ranked = probe.is_some() && !normalizes;
        // Probe chains can expand (join output): their production is
        // charged as "join-probe", plain chains' as "pipeline-chain".
        let operator = if probe.is_some() { "join-probe" } else { "pipeline-chain" };
        let right = probe.as_deref().map(|r| (r, recheck));
        let plan = LanePlan::new(&source, pre, right, post, keep, ranked, exec);
        drop(probe);
        tr.attr(h, "ops", || {
            let stage = |st: &Stage| if st.project { "π" } else { "σ" };
            let probe = plan.probe.iter().map(|p| match p.plan {
                ProbePlan::HashEqui { .. } => "⋈(hash-equi)",
                ProbePlan::Comparison => "⋈(interval-comparison)",
                ProbePlan::NestedLoop => "⋈(nested-loop)",
            });
            let pre = pre.iter().map(stage);
            pre.chain(probe).chain(post.iter().map(stage)).collect::<Vec<_>>().join("·")
        });
        tr.attr(h, "morsels", || {
            let cexec = chain_exec(exec);
            cexec.partitioner().morsels(n, cexec.workers()).len().to_string()
        });
        if let Some(typed) = plan.probe.as_ref().and_then(|p| p.keys_typed) {
            tr.attr(h, "keys", || (if typed { "typed" } else { "boxed" }).to_string());
            if !typed {
                exec.metrics().add(Counter::ProbeKeysBoxed, 1);
            }
        }
        if let Some(keep) = keep {
            tr.attr(h, "narrow", || format!("{}/{arity}", keep.len()));
        }
        let mut all = plan.run_all(n, exec, operator)?;
        if plan.projects {
            // a projection no row reached delivered no lane
            all.lanes.resize_with(arity, ValueLane::default);
        }
        let stat = |a: &AtomicU64| a.load(Ordering::Relaxed);
        tr.attr(h, "pairs", || stat(&plan.stats.pairs).to_string());
        tr.attr(h, "pair_batches", || stat(&plan.stats.pair_batches).to_string());
        tr.attr(h, "stages_boxed", || stat(&plan.stats.stages_boxed).to_string());
        let demoted = OpKinds::from_bits(plan.stats.demoted.load(Ordering::Relaxed));
        if !demoted.is_empty() {
            tr.attr(h, "demoted", || demoted.to_string());
        }
        if stat(&plan.stats.stages_boxed) > 0 {
            exec.metrics().add(Counter::ChainStagesBoxed, stat(&plan.stats.stages_boxed));
        }

        // The three deliveries are three orders of row ids over one view
        // of the output; the side the consumer reads is built once, in
        // the final order.
        let view = plan.view(&all);
        let listed = |i: u32| (i, all.annots[i as usize]);
        let order: Box<dyn Iterator<Item = (u32, AuAnnot)> + '_> = if normalizes {
            // the one pipeline-breaker normalization (sharded-reduce)
            tr.attr(h, "keyed", || {
                let (typed, arity) = view.typed_cols();
                format!("{typed}/{arity}")
            });
            Box::new(AuRelation::normalized_view_rows(&view, &all.annots, exec)?.into_iter())
        } else if ranked {
            Box::new(in_planner_order(&all.ranks).into_iter().map(listed))
        } else {
            Box::new((0..all.annots.len() as u32).map(listed))
        };
        let source_list = plan.probe.is_none() && !normalizes && keep.is_none();
        // just normalized — or a selection, which preserves normal form:
        // kept rows stay sorted, distinct, nonzero-annotated
        let normal = normalizes || (source_list && source.is_normalized());
        let schema = match keep {
            Some(keep) => schema.select(keep),
            None => schema,
        };
        let started = exec.metrics().is_enabled().then(Instant::now);
        let out = match consumer.form {
            Form::Rows if normal => AuRelation::from_normalized_rows(schema, view.tuples(order)),
            Form::Rows => {
                let mut out = AuRelation::empty(schema);
                out.append_rows(view.tuples(order));
                out
            }
            _ => AuRelation::from_columns(schema, Arc::new(view.lanes(order)), normal),
        };
        if let Some(t) = started {
            exec.metrics().record_ns(Site::ChainMaterialize, t.elapsed().as_nanos() as u64);
        }
        // freeing the probe's indexes and the chain's output buffers is
        // this chain's time: do it inside its span
        drop(view);
        drop((plan, all, source));
        close_rel(tr, h, &out);
        Ok((Cow::Owned(out), keep.is_some()))
    }
}

/// Does `q` root a `σ/π/⋈` tree — the shapes that plan as chains?
fn is_chain(q: &Query) -> bool {
    matches!(q, Query::Table(_) | Query::Select { .. } | Query::Project { .. } | Query::Join { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The chain driver's grain, read off the executor: the default
    /// partitioner becomes the split `audb_exec`'s `pipeline::tests`
    /// pin slice by slice, at any worker count; a caller's finer split
    /// stays as fine; a raised floor does not raise the grain.
    #[test]
    fn chain_grain_is_relative_to_the_executors_partitioner() {
        let chain = Partitioner { min_morsel: 1024, morsels_per_worker: 4, min_rows_per_worker: 0 };
        for w in [1, 2, 4] {
            assert_eq!(*chain_exec(&Executor::new(w)).partitioner(), chain);
        }
        let finest = Partitioner { min_morsel: 1, morsels_per_worker: 64, min_rows_per_worker: 0 };
        let lowered = Executor::new(2).with_partitioner(finest);
        assert_eq!(*chain_exec(&lowered).partitioner(), finest);
        let raised = Executor::new(2).with_min_rows_per_worker(1 << 20);
        assert_eq!(*chain_exec(&raised).partitioner(), chain);
    }
}
