//! Bound-preserving aggregation over AU-relations (Section 9).
//!
//! Aggregation functions are monoids (`SUM`, `MIN`, `MAX`; `COUNT` is
//! `SUM` over 1, `AVG` derives from `SUM`/`COUNT`). Tuple annotations are
//! folded into aggregate values with the bound-preserving operation
//! `⊛_M` (Definition 23) — a true `N_AU`-semimodule cannot be bound
//! preserving (Lemma 3), so `⊛_M` takes min/max over the pairwise
//! combinations of value and multiplicity bounds instead.
//!
//! Grouping follows the *default grouping strategy* (Definition 24): one
//! output tuple per selected-guess group; every input tuple is assigned
//! (`α`) to the output of its SG group; group-by bounds are the bounding
//! box over assigned tuples (Definition 25); aggregate bounds range over
//! the tuples that may fall into the output's box (Definition 26).
//!
//! Execution has exactly two paths. The **row-once kernel**
//! ([`aggregate_au_exec`], production) evaluates every distinct
//! aggregate input once per row over column lanes (compiled, verified
//! [`Program`](audb_core::Program)s), applies `⊛_M` per row into typed `i64`/`f64`
//! contribution lanes, and then folds those lanes per group. Grouping
//! reads the input's column lanes ([`AuRelation::columns`]) and nothing
//! else: `SgGroups` assigns every row to its SG group through the one
//! [`HashKeyIndex`] over [`lane_key`] cells, `α` and its certain subset
//! are flat CSRs, the group boxes are one lane per group-by column
//! (`i64`/`f64` min/max on a typed lane), and membership is a third CSR
//! filled from an interval sweep between those box lanes and the
//! (optionally compressed: [`opt::compress_lanes`], buckets as lanes
//! appended behind the rows') uncertain rows — typed endpoints whenever
//! the column is. No tuple of the input is read: an input born columnar
//! (a chain's hand-over) stays columnar. Groups are partitioned across the [`Executor`]'s workers
//! with a deterministic ordered merge (`docs/exec-runtime.md`).
//! A term that leaves the typed lattice (mixed/sentinel column, poisoned
//! row, overflow, multiplicity beyond `i64`) is *demoted* to boxed
//! `Value` contributions computed by [`boxtimes`] — the rule the lane
//! kernels follow — so results are bit-identical either way. The
//! **oracle** ([`aggregate_au_scan`], tests and benches only) is the
//! literal evaluator of Definitions 24–26: its own grouping over SG-key
//! [`Tuple`]s, the row-at-a-time `Cpr` ([`opt::compress_rows`]),
//! all-pairs membership and an interpreted `eval_range` + `⊛_M` per
//! (group, member, term) — so kernel ≡ oracle checks the grouping and
//! the buckets too.
//!
//! ### Deviations from the paper's literal Definition 26 (soundness fixes)
//!
//! Two adjustments, both matching the paper's own rewrite implementation
//! (Section 10.2) and its Section 9.6 discussion rather than the literal
//! definition — the literal definition (and its Example 10) produces
//! bounds that violate Definition 16 when an output's group-by box spans
//! several groups:
//!
//! 1. a tuple contributes *unguarded* (without the `min(0_M,·)` /
//!    `max(0_M,·)` neutral-element guard) only when its group-by values
//!    are certain, it certainly exists, **and the output's group-by box
//!    is exactly that certain group** (the rewrite's `θ_c` predicate).
//!    Otherwise the output may be matched to a different group that the
//!    tuple does not belong to, and its unguarded contribution would
//!    corrupt the bound.
//! 2. tuples whose group-by values are certain but differ from the
//!    output's SG group are excluded from the membership set `ð(g)`:
//!    a tuple-matching cover can always route the groups they pin down
//!    to their own output (they justify it), so they never constrain
//!    this output. This tightens bounds and matches Figure 7's values.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use audb_core::obs::{Counter, Site, TraceBuilder};
use audb_core::{
    AuAnnot, EvalError, Expr, LaneBatch, LaneSlice, LaneTag, RangeValue, Value, ValueLane, F64,
};
use audb_exec::Executor;
use audb_storage::{
    lane_key, AuRelation, ColumnSet, HashKeyIndex, IntervalIndex, RangeTuple, Schema, Tuple,
};

use super::lanes_of;
use crate::algebra::{check_group_by, AggFunc, AggSpec};
use crate::opt;
use crate::vcheck::Vet;

/// Aggregation monoids (Section 9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monoid {
    Sum,
    Min,
    Max,
}

impl Monoid {
    /// The neutral element `0_M`, embedded into the value domain
    /// (`MIN`'s `∞` is the domain-top sentinel, `MAX`'s `-∞` the bottom).
    pub fn neutral(&self) -> Value {
        match self {
            Monoid::Sum => Value::Int(0),
            Monoid::Min => Value::MaxVal,
            Monoid::Max => Value::MinVal,
        }
    }

    /// Monoid addition `+_M`.
    pub fn combine(&self, a: &Value, b: &Value) -> Result<Value, EvalError> {
        match self {
            Monoid::Sum => a.add(b),
            Monoid::Min => Ok(Value::min_of(a.clone(), b.clone())),
            Monoid::Max => Ok(Value::max_of(a.clone(), b.clone())),
        }
    }

    /// The semimodule action `k ∗_{N,M} m` (Section 9.2): `SUM` scales by
    /// the multiplicity; `MIN`/`MAX` are the identity unless `k = 0`, in
    /// which case the tuple contributes the neutral element.
    pub fn star(&self, k: u64, m: &Value) -> Result<Value, EvalError> {
        match self {
            Monoid::Sum => m.mul_count(k),
            Monoid::Min | Monoid::Max => Ok(if k == 0 { self.neutral() } else { m.clone() }),
        }
    }
}

/// `⊛_M` (Definition 23): combine an `N_AU` annotation with a
/// range-annotated value, taking min/max over all pairwise combinations
/// of bounds. Returns `(lower, sg, upper)`.
pub fn boxtimes(
    monoid: Monoid,
    k: &AuAnnot,
    m: &RangeValue,
) -> Result<(Value, Value, Value), EvalError> {
    // Fold the four corner candidates by destructuring — the candidate
    // set is a fixed-size array, so the fold cannot see an empty set
    // (no `reduce().unwrap()` to panic on).
    let [c0, c1, c2, c3] = [
        monoid.star(k.lb, &m.lb)?,
        monoid.star(k.lb, &m.ub)?,
        monoid.star(k.ub, &m.lb)?,
        monoid.star(k.ub, &m.ub)?,
    ];
    let lo =
        Value::min_of(Value::min_of(c0.clone(), c1.clone()), Value::min_of(c2.clone(), c3.clone()));
    let hi = Value::max_of(Value::max_of(c0, c1), Value::max_of(c2, c3));
    let sg = monoid.star(k.sg, &m.sg)?;
    Ok((lo, sg, hi))
}

fn clamp(v: Value, lb: &Value, ub: &Value) -> Value {
    Value::max_of(lb.clone(), Value::min_of(v, ub.clone()))
}

/// Derived `avg` over range triples: `sum / count` with the denominator
/// clamped to at least 1. The same formula is generated as scalar
/// expressions by the rewrite middleware, keeping the two evaluators in
/// lockstep.
///
/// ### Zero-spanning counts (`cnt.lb = 0, cnt.ub > 0`)
///
/// The clamp is *not* a division-by-zero dodge — it pins the intended
/// semantics: an output row only has an average in worlds where its
/// group is non-empty, i.e. where the realized count is ≥ 1. Worlds
/// with count 0 contribute no row at all (with group-by the row simply
/// does not exist there; without group-by
/// [`adjust_for_possible_empty`] separately widens the bounds to the
/// `Null` that deterministic evaluation produces). So the denominator
/// legitimately ranges over `[max(1, cnt.lb), max(1, cnt.ub)]`, and
/// because `sum / c` is monotone in `c` for either sign of `sum`, the
/// four corner combos below bound every achievable average
/// (`avg_zero_spanning_count_*` tests).
///
/// The sg component: with `cnt.sg ≥ 1` it is exactly the SG-world
/// average (`sum.sg / cnt.sg`, matching [`crate::det::avg_value`]).
/// With `cnt.sg = 0` the row is absent from the SG world (its
/// annotation sg is 0), so the component is immaterial — the final
/// clamp into `[lo, hi]` only keeps the triple ordered; it cannot make
/// a *meaningful* sg unsound because `sum.sg / cnt.sg` of a realizable
/// SG world always lies inside the corner bounds already.
pub fn avg_range(sum: &RangeValue, cnt: &RangeValue) -> Result<RangeValue, EvalError> {
    let one = Value::Int(1);
    let cl = Value::max_of(one.clone(), cnt.lb.clone());
    let cu = Value::max_of(one.clone(), cnt.ub.clone());
    let cs = Value::max_of(one, cnt.sg.clone());
    // fixed-size candidate fold: no empty-set panic possible
    let [c0, c1, c2, c3] = [sum.lb.div(&cl)?, sum.lb.div(&cu)?, sum.ub.div(&cl)?, sum.ub.div(&cu)?];
    let lo =
        Value::min_of(Value::min_of(c0.clone(), c1.clone()), Value::min_of(c2.clone(), c3.clone()));
    let hi = Value::max_of(Value::max_of(c0, c1), Value::max_of(c2, c3));
    let sg = clamp(sum.sg.div(&cs)?, &lo, &hi);
    RangeValue::new(lo, sg, hi)
}

/// Aggregate an AU-relation (Definitions 24–28) on an explicit executor
/// — the row-once kernel (see the module docs). With `compress =
/// Some(ct)`, possible-side contributions are drawn from a `ct`-tuple
/// compression of the input (Section 10.5) instead of the input itself —
/// faster, with looser (but still sound) bounds. Group folds are
/// partitioned into morsels on the scoped pool and merge in group order,
/// so the result is identical for every worker count.
pub fn aggregate_au_exec(
    rel: &AuRelation,
    group_by: &[usize],
    aggs: &[AggSpec],
    compress: Option<usize>,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    aggregate_au_stats(rel, group_by, aggs, compress, exec).map(|(out, _)| out)
}

/// What one kernel run did — the `aggregate` span's attributes
/// (`docs/observability.md`): output `groups`; possible-member `sources`
/// swept against the group boxes; candidate (group, source) `pairs` of
/// the sweep; (group, member) contributions each term folds; distinct
/// `(monoid, input)` `terms`; the terms folded over boxed `Value`s
/// (demoted at `⊛` time or by a fold that left the type) — the
/// `agg_terms_boxed` counter ticks by the same number; and whether some
/// group-by lane is `Boxed` (`keys = boxed`, one `agg_keys_boxed` tick):
/// grouping confirmed `Value`s and the sweep ran on boxed endpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggStats {
    pub groups: usize,
    pub sources: usize,
    pub pairs: usize,
    pub members: usize,
    pub terms: usize,
    pub terms_boxed: usize,
    pub keys_boxed: bool,
}

/// The aggregate list as distinct monoid folds: `Avg` is `Sum` +
/// `Count`, `Count` is `Sum` over the constant 1, and equal
/// `(monoid, input)` pairs share one term.
struct Terms {
    inputs: Vec<Expr>,
    /// `(monoid, index into inputs)`, in first-use order.
    terms: Vec<(Monoid, usize)>,
    /// Per spec: its function, its term and, for `Avg`, the count term.
    of_spec: Vec<(AggFunc, usize, Option<usize>)>,
}

impl Terms {
    fn new(aggs: &[AggSpec]) -> Terms {
        let mut t = Terms { inputs: Vec::new(), terms: Vec::new(), of_spec: Vec::new() };
        let one = audb_core::lit(1i64);
        for spec in aggs {
            let of = match spec.func {
                AggFunc::Sum => (t.term(Monoid::Sum, &spec.input), None),
                AggFunc::Count => (t.term(Monoid::Sum, &one), None),
                AggFunc::Min => (t.term(Monoid::Min, &spec.input), None),
                AggFunc::Max => (t.term(Monoid::Max, &spec.input), None),
                AggFunc::Avg => (t.term(Monoid::Sum, &spec.input), Some(t.term(Monoid::Sum, &one))),
            };
            t.of_spec.push((spec.func, of.0, of.1));
        }
        t
    }

    fn term(&mut self, monoid: Monoid, input: &Expr) -> usize {
        let i = self.inputs.iter().position(|e| e == input).unwrap_or_else(|| {
            self.inputs.push(input.clone());
            self.inputs.len() - 1
        });
        self.terms.iter().position(|t| *t == (monoid, i)).unwrap_or_else(|| {
            self.terms.push((monoid, i));
            self.terms.len() - 1
        })
    }
}

/// What both evaluators share: per output group (partitioned over
/// `exec`) the `(lb, sg, ub)` accumulators `bounds(g, term)` of every
/// term, closed into a range — in first-use order,
/// which is spec order, so the first error is the same whoever computes
/// them (the `avg`/possible-empty steps cannot fail on `Sum` bounds) —
/// assembled behind `head(g)`: the group-by box and the row annotation.
/// `ks` are the input rows' annotations. The caller normalizes.
fn aggregate_with(
    schema: Schema,
    plan: &Terms,
    ks: &[AuAnnot],
    ngroups: usize,
    exec: &Executor,
    head: impl Fn(usize) -> (Vec<RangeValue>, AuAnnot) + Sync,
    bounds: impl Fn(usize, usize) -> Result<(Value, Value, Value), EvalError> + Sync,
) -> Result<AuRelation, EvalError> {
    // For aggregation without group-by (the output is the aggregates
    // alone), the single output row exists in *every* world — including
    // worlds where the input is empty, where the deterministic
    // MIN/MAX/AVG is Null. Track whether the input may be empty (no
    // certainly-existing row) and whether the SG world is empty, to
    // extend bounds / set the SG component accordingly.
    let ungrouped = schema.arity() == plan.of_spec.len();
    let possibly_empty = ungrouped && ks.iter().all(|k| k.lb == 0);
    let sg_world_empty = ungrouped && ks.iter().all(|k| k.sg == 0);

    // One work item here is a whole *group* (a bound fold over all its
    // members, per term) — far heavier than a row, so the adaptive
    // parallelism floor is lowered accordingly (never raised: a
    // caller-forced zero floor stays zero).
    let gexec =
        exec.clone().with_min_rows_per_worker(exec.partitioner().min_rows_per_worker.min(32));
    let rows = gexec.run(ngroups, |morsel, rows: &mut Vec<(RangeTuple, AuAnnot)>| {
        for g in morsel {
            let terms = (0..plan.terms.len()).map(|t| {
                let (lb, sg, ub) = bounds(g, t)?;
                let sg = clamp(sg, &lb, &ub);
                RangeValue::new(lb, sg, ub)
            });
            let terms = terms.collect::<Result<Vec<RangeValue>, EvalError>>()?;
            let (mut tvals, annot) = head(g);
            for &(func, t, cnt) in &plan.of_spec {
                let v = match cnt {
                    Some(c) => avg_range(&terms[t], &terms[c])?,
                    None => terms[t].clone(),
                };
                tvals.push(if ungrouped {
                    adjust_for_possible_empty(v, func, possibly_empty, sg_world_empty)?
                } else {
                    v
                });
            }
            rows.push((RangeTuple::new(tvals), annot));
        }
        Ok::<(), EvalError>(())
    })?;

    let mut out = AuRelation::empty(schema);
    out.append_rows(rows);
    Ok(out)
}

fn out_schema(rel: &AuRelation, group_by: &[usize], aggs: &[AggSpec]) -> Schema {
    let mut names: Vec<String> =
        group_by.iter().map(|c| rel.schema.column_name(*c).to_string()).collect();
    names.extend(aggs.iter().map(|a| a.name.clone()));
    Schema::new(names)
}

/// Aggregation over an empty input: no rows with group-by, the
/// deterministic neutral row (with certainty) without.
fn aggregate_empty(rel: &AuRelation, group_by: &[usize], aggs: &[AggSpec]) -> AuRelation {
    let schema = out_schema(rel, group_by, aggs);
    if !group_by.is_empty() {
        return AuRelation::empty(schema);
    }
    let vals = aggs.iter().map(|spec| match spec.func {
        AggFunc::Sum | AggFunc::Count => RangeValue::certain(Value::Int(0)),
        AggFunc::Min | AggFunc::Max | AggFunc::Avg => RangeValue::certain(Value::Null),
    });
    AuRelation::from_rows(schema, vec![(RangeTuple::new(vals.collect()), AuAnnot::certain_one())])
}

/// Row annotation of output group `g` (Definition 28 + the Section 9.6
/// improved group-count bound: α-assigned tuples with *certain*
/// group-by values can only ever form the single group `g`, so they
/// contribute one possible group in total; each uncertain tuple may
/// spawn up to `ub` distinct groups of its own). Without group-by the
/// single output row exists in every world (Definition 27). `alpha` are
/// the group's assigned rows and `certain` those of them with certain
/// group-by values, both in row order.
fn group_annot(ks: &[AuAnnot], alpha: &[u32], certain: &[u32], ungrouped: bool) -> AuAnnot {
    if ungrouped {
        return AuAnnot::certain_one();
    }
    let any_certain_group = !certain.is_empty();
    let (mut lb_any_certain, mut sg_any, mut uncertain_ub_sum) = (false, false, 0u64);
    // `certain` is a subset of `alpha`, both sorted by row id — walk
    // them in lockstep.
    let mut certain = certain.iter().peekable();
    for i in alpha {
        let k = &ks[*i as usize];
        if certain.next_if_eq(&i).is_some() {
            lb_any_certain |= k.lb > 0;
        } else {
            // Saturating, not wrapping: adversarial `ub` multiplicities
            // (u64::MAX-adjacent) must clamp the possible-group-count
            // bound at the domain top (u64::MAX stays a sound bound).
            uncertain_ub_sum = uncertain_ub_sum.saturating_add(k.ub);
        }
        sg_any |= k.sg > 0;
    }
    AuAnnot::triple(
        lb_any_certain as u64,
        sg_any as u64,
        (any_certain_group as u64).saturating_add(uncertain_ub_sum).max(sg_any as u64),
    )
}

/// Widen a no-group-by aggregate for worlds with an empty input:
/// `MIN`/`MAX`/`AVG` over an empty relation is `Null`, so when the
/// input may be empty the lower bound must extend down to `Null`, and
/// when the SG world is empty the SG component *is* `Null` (matching
/// deterministic evaluation). `SUM`/`COUNT` need no widening — their
/// empty value 0 is already inside the guarded bounds.
fn adjust_for_possible_empty(
    v: RangeValue,
    func: AggFunc,
    possibly_empty: bool,
    sg_world_empty: bool,
) -> Result<RangeValue, EvalError> {
    match func {
        AggFunc::Sum | AggFunc::Count => Ok(v),
        AggFunc::Min | AggFunc::Max | AggFunc::Avg => {
            let lb = if possibly_empty { Value::min_of(v.lb, Value::Null) } else { v.lb };
            let sg = if sg_world_empty { Value::Null } else { v.sg };
            RangeValue::new(lb, sg, v.ub)
        }
    }
}

// ---------------------------------------------------------------------------
// The row-once kernel
// ---------------------------------------------------------------------------

/// [`aggregate_au_exec`] plus what the run did. Its three phases also
/// report to the `agg_index` / `agg_contrib` / `agg_fold` duration
/// sites of the executor's metrics sink.
pub fn aggregate_au_stats(
    rel: &AuRelation,
    group_by: &[usize],
    aggs: &[AggSpec],
    compress: Option<usize>,
    exec: &Executor,
) -> Result<(AuRelation, AggStats), EvalError> {
    check_group_by(group_by, rel.schema.arity())?;
    if rel.is_empty() {
        return Ok((aggregate_empty(rel, group_by, aggs), AggStats::default()));
    }
    let metrics = exec.metrics();
    let mut clock = metrics.is_enabled().then(Instant::now);
    let mut lap = |site: Site| {
        if let Some(t) = clock.as_mut() {
            metrics.record_ns(site, t.elapsed().as_nanos() as u64);
            *t = Instant::now();
        }
    };
    let (arity, n, ungrouped) = (rel.schema.arity(), rel.len(), group_by.is_empty());
    let (cset, plan) = (lanes_of(rel, exec), Terms::new(aggs));

    // ---- membership ------------------------------------------------------
    // Default grouping strategy (Definition 24) on the group-by lanes:
    // every row is assigned to its SG group (α), the group boxes
    // (Definition 25) are accumulated, and certain-group rows (members
    // of their own group only) are split from the uncertain possible
    // side.
    let keys: Vec<LaneSlice<'_>> = group_by.iter().map(|&c| cset.lane(c).as_slice()).collect();
    let gx = LaneGroups::build(&keys, n);
    // The possible-member sources (the aggregation analog of the join's
    // split, Section 10.5): the uncertain rows themselves — a source's
    // contribution is then its row's — or, with `compress = Some(ct)`,
    // at most `ct` bounding-box buckets over just the columns `read`,
    // which follow the rows in every per-row array. Without terms (δ)
    // nothing is folded, so no membership is built.
    let refd: BTreeSet<usize> =
        plan.inputs.iter().flat_map(Expr::columns).filter(|c| *c < arity).collect();
    let read: Vec<usize> =
        refd.iter().chain(group_by).copied().collect::<BTreeSet<_>>().into_iter().collect();
    // a column's slot in a bucket; an unread one is a bug, not slot 0
    let at = |c: usize| read.binary_search(&c).unwrap_or(usize::MAX);
    let uncertain: &[u32] = if plan.terms.is_empty() || ungrouped { &[] } else { &gx.uncertain };
    let buckets = compress
        .filter(|_| !uncertain.is_empty())
        .map(|ct| opt::compress_lanes(&cset, uncertain, &read, group_by[0], ct, false));
    let nbuckets = buckets.as_ref().map_or(0, ColumnSet::nrows);
    // Compressed sources follow the rows in every lane read, so a source
    // is a lane row either way. Unread columns alias a read one (right
    // length, never touched).
    let appended = |b: &ColumnSet| {
        let with_boxes = |(slot, &c): (usize, &usize)| {
            let mut lane = cset.lane(c).clone();
            lane.append(&b.lane(slot).as_slice(), None);
            lane
        };
        read.iter().enumerate().map(with_boxes).collect::<Vec<ValueLane>>()
    };
    let lanes: Vec<ValueLane> = buckets.as_ref().map(appended).unwrap_or_default();
    let cols: Vec<LaneSlice<'_>> = match lanes.first() {
        Some(any) => (0..arity).map(|c| lanes.get(at(c)).unwrap_or(any).as_slice()).collect(),
        None => cset.lane_slices(),
    };
    let src_ids: Cow<'_, [u32]> = match &buckets {
        Some(_) => (n as u32..(n + nbuckets) as u32).collect(),
        None => uncertain.into(),
    };
    // Candidates come from an endpoint sweep between the group boxes
    // and the sources on the first group-by attribute —
    // `O((G + U) log(G + U) + pairs)`, on typed endpoints when the lanes
    // are; the precise multi-attribute overlap is tested once per
    // candidate on the lane cells, and the survivors land in one flat
    // CSR, per group in source order (folds are order-sensitive).
    let mut stats = AggStats {
        groups: gx.alpha.len(),
        sources: src_ids.len(),
        terms: plan.terms.len(),
        keys_boxed: keys.iter().any(|l| l.tag() == LaneTag::Boxed),
        ..AggStats::default()
    };
    if stats.keys_boxed {
        metrics.add(Counter::AggKeysBoxed, 1);
    }
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    if stats.sources > 0 {
        let boxes: Vec<LaneSlice<'_>> = gx.boxes.iter().map(ValueLane::as_slice).collect();
        let src: Vec<LaneSlice<'_>> = group_by.iter().map(|&c| cols[c]).collect();
        let gi = IntervalIndex::from_lane(boxes[0]);
        let si = IntervalIndex::from_lane_subset(src[0], &src_ids);
        // A sweep on typed endpoints emits exactly the pairs overlapping
        // on the first attribute (`sweep_overlapping`'s contract; only
        // boxed endpoints make it a superset: `value_eq` ties), which
        // is then not tested again.
        let decided = usize::from(boxes[0].typed_alike(&src[0]));
        IntervalIndex::sweep_overlapping(&gi, &si, |g, s| {
            stats.pairs += 1;
            let mut cells = boxes[decided..].iter().zip(&src[decided..]);
            if cells.all(|(b, l)| b.overlaps(g as usize, l, s as usize)) {
                pairs.push((g, s));
            }
        });
    }
    let sources = Csr::of_pairs(stats.groups, n + nbuckets, pairs);
    stats.members = gx.certain.ids.len() + sources.ids.len();
    lap(Site::AggIndex);

    // ---- phase 1: each input once per row, `⊛_M` into lanes --------------
    let annots = cset.annots();
    let bucket_ks = buckets.iter().flat_map(|b| (0..nbuckets).map(|i| b.annots().get(i)));
    let ks: Vec<AuAnnot> = (0..n).map(|i| annots.get(i)).chain(bucket_ks).collect();
    // One program for all inputs, vetted like every chain stage (Tier
    // A+B; untraced: γ compiles at run time, outside the `plan` span). A
    // poisoned row does not say which input poisoned it, so then (rare)
    // — or when the verifier rejects the program — every term takes the
    // oracle's per-row closure, interpreted `eval_range` + `boxtimes`,
    // which keeps every row's own first error in place.
    let prog = Vet::new(metrics, &TraceBuilder::disabled()).range_many(&plan.inputs);
    let mut batch = LaneBatch::default();
    if let Some(prog) = &prog {
        prog.eval_range_lanes(&cols, ks.len(), &mut batch, exec.cancel_token())?;
    }
    let prog = prog.filter(|_| (0..ks.len()).all(|i| batch.row_error(i).is_none()));
    let row = |i: usize| cols.iter().map(|c| c.get(i)).collect::<Vec<RangeValue>>();
    let contribs: Vec<Contrib<'_>> = (plan.terms.iter())
        .map(|&(m, i)| {
            if let Some(prog) = &prog {
                return Contrib::of(m, batch.output_lane(prog, i, &cols), &ks);
            }
            let one = |r| boxtimes(m, &ks[r], &plan.inputs[i].eval_range(&row(r))?);
            Contrib::Boxed((0..ks.len()).map(one).collect())
        })
        .collect();
    lap(Site::AggContrib);

    // ---- phase 2: per-group folds over the lanes -------------------------
    // A term counts as boxed (once) when any of its folds ran on boxed
    // values: demoted at `⊛` time, or a typed `Sum` fold left its type.
    let boxed: Vec<AtomicBool> = plan.terms.iter().map(|_| AtomicBool::new(false)).collect();
    let schema = out_schema(rel, group_by, aggs);
    let head = |g: usize| {
        let annot = group_annot(&ks, gx.alpha.of(g), gx.certain.of(g), ungrouped);
        (gx.boxes.iter().map(|b| b.get(g)).collect(), annot)
    };
    let out = aggregate_with(schema, &plan, &ks[..n], stats.groups, exec, head, |g, t| {
        let grp = Group {
            certain: gx.certain.of(g),
            sources: sources.of(g),
            alpha: gx.alpha.of(g),
            exact: gx.boxes.iter().all(|b| b.as_slice().is_certain(g)),
        };
        let monoid = plan.terms[t].0;
        let typed = match &contribs[t] {
            Contrib::Int(l) => l.fold(monoid, &ks, &grp),
            Contrib::Float(l) => l.fold(monoid, &ks, &grp),
            Contrib::Boxed(_) => None,
        };
        typed.map_or_else(
            || {
                boxed[t].store(true, Ordering::Relaxed);
                let alpha = grp.alpha.iter().map(|&i| i as usize);
                agg_bounds(monoid, grp.members(&ks), alpha, |i| contribs[t].boxed(i))
            },
            Ok,
        )
    });
    stats.terms_boxed = boxed.iter().filter(|p| p.load(Ordering::Relaxed)).count();
    if stats.terms_boxed > 0 {
        metrics.add(Counter::AggTermsBoxed, stats.terms_boxed as u64);
    }
    let out = out?;
    lap(Site::AggFold);
    Ok((out.into_normalized_with(exec)?, stats))
}

/// Per-group id lists, flat: group `g`'s are
/// `ids[offsets[g]..offsets[g + 1]]`, ascending.
struct Csr {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Csr {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn of(&self, g: usize) -> &[u32] {
        &self.ids[self.offsets[g]..self.offsets[g + 1]]
    }

    /// The rows `keep` holds, each under its group `of_row`, in row order.
    fn by_group(ngroups: usize, of_row: &[u32], keep: impl Fn(usize) -> bool) -> Csr {
        let kept = || of_row.iter().enumerate().filter(|(i, _)| keep(*i));
        let mut offsets = vec![0usize; ngroups + 1];
        kept().for_each(|(_, &g)| offsets[g as usize + 1] += 1);
        (0..ngroups).for_each(|g| offsets[g + 1] += offsets[g]);
        let (mut ids, mut next) = (vec![0u32; offsets[ngroups]], offsets.clone());
        for (i, &g) in kept() {
            ids[next[g as usize]] = i as u32;
            next[g as usize] += 1;
        }
        Csr { offsets, ids }
    }

    /// Of `(group, id)` pairs in any order (`id < nids`) — two stable
    /// counting passes, no per-group lists or sorts.
    fn of_pairs(ngroups: usize, nids: usize, pairs: Vec<(u32, u32)>) -> Csr {
        let (mut by_id, mut offsets) = (vec![0usize; nids + 1], vec![0usize; ngroups + 1]);
        for &(g, id) in &pairs {
            by_id[id as usize + 1] += 1;
            offsets[g as usize + 1] += 1;
        }
        (0..nids).for_each(|i| by_id[i + 1] += by_id[i]);
        (0..ngroups).for_each(|g| offsets[g + 1] += offsets[g]);
        let (mut groups, mut next) = (vec![0u32; pairs.len()], by_id.clone());
        for (g, id) in pairs {
            groups[next[id as usize]] = g;
            next[id as usize] += 1;
        }
        let (mut ids, mut next) = (vec![0u32; groups.len()], offsets.clone());
        for id in 0..nids {
            for &g in &groups[by_id[id]..by_id[id + 1]] {
                ids[next[g as usize]] = id as u32;
                next[g as usize] += 1;
            }
        }
        Csr { offsets, ids }
    }
}

/// The default grouping strategy's assignment (Definition 24) of the
/// rows of `keys`, one lane per grouped column: one group per distinct
/// selected-guess key, numbered in first-appearance order — the one SG
/// grouping behind γ, δ, `Ψ` and `−`. The [`HashKeyIndex`] proposes by
/// the hash of the canonical [`lane_key`] cells (`Int 2` and `Float 2.0`
/// share one) and [`LaneSlice::sg_eq`] confirms *exactly*: SG identity
/// is `Value`'s structural equality, not `value_eq`.
pub(super) struct SgGroups {
    /// Per row: its group.
    pub of_row: Vec<u32>,
    /// Per group: its first row.
    pub reps: Vec<u32>,
}

impl SgGroups {
    /// Group the `n` rows of `keys` (`n` names the row count when there
    /// is no key lane: nullary rows form one group).
    pub fn assign(keys: &[LaneSlice<'_>], n: usize) -> SgGroups {
        let same = |a: u32, b: u32| keys.iter().all(|l| l.sg_eq(a as usize, b as usize));
        let of_row = HashKeyIndex::build_distinct(n, |i| lane_key(keys, true, i), same);
        let mut reps = Vec::new();
        for (&g, i) in of_row.iter().zip(0..) {
            if g as usize == reps.len() {
                reps.push(i);
            }
        }
        SgGroups { of_row, reps }
    }

    /// Per lane of `keys`, every group's bounding box (Definition 25),
    /// widened in member order by [`LaneSlice::group_boxes`].
    pub fn boxes(&self, keys: &[LaneSlice<'_>]) -> Vec<ValueLane> {
        let members = (0..self.of_row.len()).zip(self.of_row.iter().copied());
        keys.iter().map(|l| l.group_boxes(&self.reps, members.clone())).collect()
    }
}

/// The kernel's grouping index over the group-by lanes.
struct LaneGroups {
    /// Per group its `α`-assigned rows, and their certain-group-by subset.
    alpha: Csr,
    certain: Csr,
    /// Rows whose group-by projection is uncertain, in row order.
    uncertain: Vec<u32>,
    /// Per group-by column the group boxes (Definition 25), a lane
    /// indexed by group: `IntervalIndex::from_lane` is the group side of
    /// the membership sweep.
    boxes: Vec<ValueLane>,
}

impl LaneGroups {
    fn build(keys: &[LaneSlice<'_>], n: usize) -> LaneGroups {
        let groups = SgGroups::assign(keys, n);
        let (ngroups, of_row) = (groups.reps.len(), &groups.of_row);
        let is_certain: Vec<bool> = (0..n).map(|i| keys.iter().all(|l| l.is_certain(i))).collect();
        LaneGroups {
            alpha: Csr::by_group(ngroups, of_row, |_| true),
            certain: Csr::by_group(ngroups, of_row, |i| is_certain[i]),
            uncertain: (0..n as u32).filter(|&i| !is_certain[i as usize]).collect(),
            boxes: groups.boxes(keys),
        }
    }
}

/// One term's per-row `⊛_M` results `(lo, sg, hi)`, indexed by row
/// (compressed sources follow the rows).
enum Contrib<'a> {
    Int(Lanes<'a, i64>),
    Float(Lanes<'a, f64>),
    Boxed(Vec<Result<(Value, Value, Value), EvalError>>),
}

impl<'a> Contrib<'a> {
    /// `⊛_M` of every row's annotation with its value in `lane`: typed
    /// when the lane is homogeneous `Int`/`Float` and nothing overflows,
    /// boxed [`boxtimes`] results otherwise.
    fn of(monoid: Monoid, lane: LaneSlice<'a>, ks: &[AuAnnot]) -> Contrib<'a> {
        let typed = match lane {
            LaneSlice::Int { lb, sg, ub } => Lanes::of(monoid, lb, sg, ub, ks).map(Contrib::Int),
            LaneSlice::Float { lb, sg, ub } => {
                Lanes::of(monoid, lb, sg, ub, ks).map(Contrib::Float)
            }
            _ => None,
        };
        typed.unwrap_or_else(|| {
            Contrib::Boxed((0..ks.len()).map(|i| boxtimes(monoid, &ks[i], &lane.get(i))).collect())
        })
    }

    /// Row `i`'s contribution as boxed values. Typed lanes get here
    /// only when a `Sum` fold left the type, so they hold products.
    fn boxed(&self, i: usize) -> Result<(Value, Value, Value), EvalError> {
        match self {
            Contrib::Int(l) => Ok((l.lo[i].value(), l.sg[i].value(), l.hi[i].value())),
            Contrib::Float(l) => Ok((l.lo[i].value(), l.sg[i].value(), l.hi[i].value())),
            Contrib::Boxed(v) => v[i].clone(),
        }
    }
}

/// Typed contribution lanes: `Sum` owns its `⊛` products; for `Min`/
/// `Max` `⊛` is the identity up to the `k = 0` sentinel, which the fold
/// reads off the annotation, so they borrow the input lane.
struct Lanes<'a, T: Num> {
    lo: Cow<'a, [T]>,
    sg: Cow<'a, [T]>,
    hi: Cow<'a, [T]>,
}

/// Element of a typed lane. `None` means the result left the type —
/// `i64` overflow (where `Value` arithmetic promotes to float) or NaN
/// (where it errors) — and the caller redoes the work on boxed
/// `Value`s, which define the result.
trait Num: Copy + PartialOrd + 'static {
    const ZERO: Self;
    fn times(self, k: i64) -> Option<Self>;
    fn plus(self, other: Self) -> Option<Self>;
    fn value(self) -> Value;
}

impl Num for i64 {
    const ZERO: i64 = 0;
    fn times(self, k: i64) -> Option<i64> {
        self.checked_mul(k)
    }
    fn plus(self, other: i64) -> Option<i64> {
        self.checked_add(other)
    }
    fn value(self) -> Value {
        Value::Int(self)
    }
}

impl Num for f64 {
    const ZERO: f64 = 0.0;
    fn times(self, k: i64) -> Option<f64> {
        F64::try_new(self * k as f64).ok().map(F64::get)
    }
    fn plus(self, other: f64) -> Option<f64> {
        F64::try_new(self + other).ok().map(F64::get)
    }
    fn value(self) -> Value {
        Value::float(self)
    }
}

/// Minimum (`min`) or maximum of two, keeping the left on ties — the
/// rule of `Value::min_of`/`max_of`.
fn pick<T: PartialOrd>(min: bool, a: T, b: T) -> T {
    if if min { b < a } else { b > a } {
        b
    } else {
        a
    }
}

/// One output group's fold inputs, as contribution indices: its own
/// certain-group rows (row order), the sources overlapping its box
/// (source order), its α-assigned rows (the SG fold), and whether its
/// box is one certain group (the rewrite's `θ_c`).
struct Group<'a> {
    certain: &'a [u32],
    sources: &'a [u32],
    alpha: &'a [u32],
    exact: bool,
}

impl Group<'_> {
    /// `(contribution, unguarded)` in fold order. Only a certainly
    /// existing row of an exact group contributes unguarded (deviation
    /// 1); sources have uncertain group-by values or `lb = 0`.
    fn members<'k>(&'k self, ks: &'k [AuAnnot]) -> impl Iterator<Item = (usize, bool)> + 'k {
        let own =
            self.certain.iter().map(move |&i| (i as usize, self.exact && ks[i as usize].lb > 0));
        own.chain(self.sources.iter().map(|&i| (i as usize, false)))
    }
}

impl<'a, T: Num> Lanes<'a, T> {
    /// The contribution lanes of `monoid` over one input lane; for
    /// `Sum`, `⊛` per row: the four `bound × multiplicity` corners,
    /// their min/max, and `sg × k.sg`.
    fn of(monoid: Monoid, lb: &'a [T], sg: &'a [T], ub: &'a [T], ks: &[AuAnnot]) -> Option<Self> {
        if monoid != Monoid::Sum {
            return Some(Lanes { lo: lb.into(), sg: sg.into(), hi: ub.into() });
        }
        let mut out = [(); 3].map(|()| Vec::with_capacity(ks.len()));
        for (i, k) in ks.iter().enumerate() {
            let [kl, kg, ku] = [k.lb, k.sg, k.ub].map(|m| i64::try_from(m).ok());
            let (kl, ku) = (kl?, ku?);
            let c = [lb[i].times(kl)?, ub[i].times(kl)?, lb[i].times(ku)?, ub[i].times(ku)?];
            out[0].push(pick(true, pick(true, c[0], c[1]), pick(true, c[2], c[3])));
            out[1].push(sg[i].times(kg?)?);
            out[2].push(pick(false, pick(false, c[0], c[1]), pick(false, c[2], c[3])));
        }
        let [lo, sg, hi] = out.map(Cow::from);
        Some(Lanes { lo, sg, hi })
    }

    /// The `(lb, sg, ub)` accumulators of one group, exactly as
    /// [`agg_bounds`] would leave them — or `None` when a `Sum` leaves
    /// the type (`Min`/`Max` cannot).
    fn fold(
        &self,
        monoid: Monoid,
        ks: &[AuAnnot],
        grp: &Group<'_>,
    ) -> Option<(Value, Value, Value)> {
        let (lo, sg, hi) = (&*self.lo, &*self.sg, &*self.hi);
        if monoid == Monoid::Sum {
            // The guard is `min(0_M, lo)` / `max(0_M, hi)` on the fly.
            // `0_M` is `Int(0)` and the `Value` order keeps the left
            // operand on ties, so a guarded `hi = 0.0` is a (float)
            // summand but a guarded `lo = 0.0` is not — and a bound no
            // summand reached stays `Int(0)`, whatever the lane's type.
            let (mut lb, mut s, mut ub) = (T::ZERO, T::ZERO, T::ZERO);
            let (mut lb_hit, mut ub_hit) = (false, false);
            for (i, unguarded) in grp.members(ks) {
                if unguarded || lo[i] < T::ZERO {
                    (lb, lb_hit) = (lb.plus(lo[i])?, true);
                }
                if unguarded || hi[i] >= T::ZERO {
                    (ub, ub_hit) = (ub.plus(hi[i])?, true);
                }
            }
            for &i in grp.alpha {
                s = s.plus(sg[i as usize])?;
            }
            let total = |hit: bool, v: T| if hit { v.value() } else { Value::Int(0) };
            return Some((total(lb_hit, lb), total(!grp.alpha.is_empty(), s), total(ub_hit, ub)));
        }
        // Min/Max: a possible member (`k.ub > 0`) contributes its near
        // bound, the guard replaces the far bound by the neutral
        // sentinel, and `k.sg = 0` drops the row from the SG fold.
        let min = monoid == Monoid::Min;
        let fold = |acc: Option<T>, v: T| Some(acc.map_or(v, |a| pick(min, a, v)));
        let (mut lb, mut s, mut ub) = (None, None, None);
        for (i, unguarded) in grp.members(ks) {
            let possible = ks[i].ub > 0;
            if if min { possible } else { unguarded } {
                lb = fold(lb, lo[i]);
            }
            if if min { unguarded } else { possible } {
                ub = fold(ub, hi[i]);
            }
        }
        for &i in grp.alpha.iter().filter(|i| ks[**i as usize].sg > 0) {
            s = fold(s, sg[i as usize]);
        }
        let total = |v: Option<T>| v.map_or_else(|| monoid.neutral(), Num::value);
        Some((total(lb), total(s), total(ub)))
    }
}

/// The `(lb, sg, ub)` accumulators of one monoid aggregate for one
/// output group — the per-member fold of Definition 26 (with the
/// rewrite-consistent `ug` predicate, see module docs) over boxed `⊛_M`
/// contributions: `members` in fold order, each flagged unguarded or
/// not, then the `alpha`-assigned rows of the SG component
/// (deterministic aggregation over the SG world, the rewrite's `θ_sg`
/// guard). The first error in that order is the error returned.
fn agg_bounds<M>(
    monoid: Monoid,
    members: impl Iterator<Item = (M, bool)>,
    alpha: impl Iterator<Item = M>,
    contrib: impl Fn(M) -> Result<(Value, Value, Value), EvalError>,
) -> Result<(Value, Value, Value), EvalError> {
    let neutral = monoid.neutral();
    let (mut lb, mut sg, mut ub) = (neutral.clone(), neutral.clone(), neutral.clone());
    for (m, unguarded) in members {
        let (lo, _, hi) = contrib(m)?;
        let (lo, hi) = if unguarded {
            (lo, hi)
        } else {
            (Value::min_of(neutral.clone(), lo), Value::max_of(neutral.clone(), hi))
        };
        lb = monoid.combine(&lb, &lo)?;
        ub = monoid.combine(&ub, &hi)?;
    }
    for m in alpha {
        sg = monoid.combine(&sg, &contrib(m)?.1)?;
    }
    Ok((lb, sg, ub))
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// The literal evaluator of Definitions 24–26 — **oracle only**: called
/// by nothing outside `tests/` and `benches/agg_engine.rs`. Sequentially,
/// every row is grouped by its SG-key tuple ([`ScanGroup`]), every
/// output group tests every source for overlap and every (group, member,
/// term) re-evaluates the interpreted input and `⊛_M` inside
/// [`agg_bounds`]; with the kernel it shares [`aggregate_with`]'s
/// assembly only, and it must produce exactly the kernel's result (or
/// error).
pub fn aggregate_au_scan(
    rel: &AuRelation,
    group_by: &[usize],
    aggs: &[AggSpec],
    compress: Option<usize>,
) -> Result<AuRelation, EvalError> {
    check_group_by(group_by, rel.schema.arity())?;
    if rel.is_empty() {
        return Ok(aggregate_empty(rel, group_by, aggs));
    }
    type Row = (RangeTuple, AuAnnot);
    let (plan, rows) = (Terms::new(aggs), rel.rows());
    let (groups, uncertain) = ScanGroup::of_rows(rows, group_by);
    let all: Vec<usize> = (0..rel.schema.arity()).collect();
    let sources: Vec<Row> = match compress {
        _ if group_by.is_empty() => Vec::new(),
        Some(ct) => opt::compress_rows(rows, &uncertain, &all, group_by[0], ct),
        None => uncertain.iter().map(|&i| rows[i as usize].clone()).collect(),
    };
    let ks: Vec<AuAnnot> = rows.iter().map(|(_, k)| *k).collect();
    let (schema, exec) = (out_schema(rel, group_by, aggs), Executor::sequential());
    let head = |g: usize| {
        let ScanGroup { bbox, alpha, certain, .. } = &groups[g];
        (bbox.0.clone(), group_annot(&ks, alpha, certain, group_by.is_empty()))
    };
    let out = aggregate_with(schema, &plan, &ks, groups.len(), &exec, head, |g, t| {
        let (monoid, input) = (plan.terms[t].0, &plan.inputs[plan.terms[t].1]);
        let ScanGroup { bbox, alpha, certain } = &groups[g];
        // ð(g): possible members — this group's own certain rows plus
        // every source whose group-by ranges overlap the output's box.
        // (Tuples pinned to another certain group are excluded by
        // construction — deviation 2 in the module docs.)
        let overlaps =
            |(t, _): &&Row| group_by.iter().zip(&bbox.0).all(|(c, b)| t.0[*c].overlaps(b));
        let members: Vec<&Row> = if group_by.is_empty() {
            rows.iter().collect()
        } else {
            let own = certain.iter().map(|&i| &rows[i as usize]);
            own.chain(sources.iter().filter(overlaps)).collect()
        };
        // `gproj.is_certain() && gproj.sg() == key`, column-wise (a box
        // keeps its group's SG key)
        let non_ug = |(t, k): &Row| {
            let pinned = |(c, b): (&usize, &RangeValue)| t.0[*c].is_certain() && t.0[*c].sg == b.sg;
            k.lb > 0 && bbox.is_certain() && group_by.iter().zip(&bbox.0).all(pinned)
        };
        let alpha = alpha.iter().map(|&i| &rows[i as usize]);
        agg_bounds(monoid, members.iter().map(|m| (*m, non_ug(m))), alpha, |(t, k)| {
            boxtimes(monoid, k, &input.eval_range(t.values())?)
        })
    })?;
    Ok(out.into_normalized())
}

/// One group of the default grouping strategy, as Definitions 24/25
/// state it: the bounding box of the group-by projections of the
/// `α`-assigned rows — its selected guesses are the group's SG key — and
/// those of them with a certain projection.
struct ScanGroup {
    bbox: RangeTuple,
    alpha: Vec<u32>,
    certain: Vec<u32>,
}

impl ScanGroup {
    /// The groups in first-appearance order, and the rows whose group-by
    /// projection is uncertain.
    fn of_rows(rows: &[(RangeTuple, AuAnnot)], group_by: &[usize]) -> (Vec<Self>, Vec<u32>) {
        let (mut groups, mut uncertain) = (Vec::<ScanGroup>::new(), Vec::new());
        let mut of_key: BTreeMap<Tuple, usize> = BTreeMap::new();
        for (i, (t, _)) in rows.iter().enumerate() {
            let proj = t.project(group_by);
            let g = *of_key.entry(proj.sg()).or_insert(groups.len());
            if g == groups.len() {
                groups.push(ScanGroup {
                    bbox: proj.clone(),
                    alpha: Vec::new(),
                    certain: Vec::new(),
                });
            }
            groups[g].bbox = groups[g].bbox.merge_keep_sg(&proj);
            groups[g].alpha.push(i as u32);
            let list = if proj.is_certain() { &mut groups[g].certain } else { &mut uncertain };
            list.push(i as u32);
        }
        (groups, uncertain)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::col;
    use audb_storage::au_row;

    fn r2(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::range(lb, sg, ub)
    }

    /// Example 10 (with the soundness fix): sum of A grouped by B over
    /// ⟨[3/5/10], 3⟩ and ⟨[-4/-3/-3], [2/3/4]⟩, both annotated (1,2,2).
    /// The output group's box is [2/3/4] — not certain — so *both* rows
    /// are guarded: lb = min(0,3) + min(0,-8) = -8. (The paper's example
    /// computes -5 by leaving the first row unguarded, which is unsound
    /// when the output may be matched to group 2 or 4: a world where the
    /// second tuple lands in group 2 with sum -8 must be bounded.)
    #[test]
    fn example_10_sum_lower_bound_sound() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            vec![
                au_row(vec![r2(3, 5, 10), RangeValue::certain(Value::Int(3))], 1, 2, 2),
                au_row(vec![r2(-4, -3, -3), r2(2, 3, 4)], 1, 2, 2),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[1],
            &[AggSpec::new(AggFunc::Sum, col(0), "s")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let (t, _) = &out.rows()[0];
        let sum = &t.0[1];
        assert_eq!(sum.lb, Value::Int(-8));
        // SG: both tuples in SGW group 3: 5·2 + (-3)·2 = 4
        assert_eq!(sum.sg, Value::Int(4));
        // upper bound: max(0, 20) + max(0, -3) = 20
        assert_eq!(sum.ub, Value::Int(20));
    }

    /// When every group-by value is certain, bounds are exact per group
    /// (matching Example 10's intent for fully certain grouping).
    #[test]
    fn certain_groups_exact_contributions() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            vec![
                au_row(vec![r2(3, 5, 10), RangeValue::certain(Value::Int(3))], 1, 2, 2),
                au_row(vec![r2(-4, -3, -3), RangeValue::certain(Value::Int(3))], 1, 2, 2),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[1],
            &[AggSpec::new(AggFunc::Sum, col(0), "s")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let sum = &out.rows()[0].0 .0[1];
        // lb: 3·1 + (-4)·2 = -5; sg: 10 − 6 = 4; ub: 10·2 + (-3)·1 = 17
        assert_eq!(sum.lb, Value::Int(-5));
        assert_eq!(sum.sg, Value::Int(4));
        assert_eq!(sum.ub, Value::Int(17));
    }

    /// Figure 7(c): count(*) grouped by street (street of the second
    /// address is unknown). Values match the figure except where the
    /// figure's bounds are unsound/conditional (see module docs):
    /// Canal's count lower bound and Monroe's conditional bounds.
    #[test]
    fn figure_7_count_by_street() {
        let street = |s: &str| RangeValue::certain(Value::str(s));
        let unknown_street = |sg: &str| RangeValue::unknown(Value::str(sg));
        let rel = AuRelation::from_rows(
            Schema::named(&["street", "number"]),
            vec![
                au_row(vec![street("Canal"), r2(165, 165, 165)], 1, 1, 2),
                au_row(vec![unknown_street("Canal"), r2(153, 153, 156)], 1, 1, 1),
                au_row(vec![street("State"), r2(623, 623, 629)], 2, 2, 3),
                au_row(vec![street("Monroe"), r2(3550, 3574, 3585)], 0, 0, 1),
            ],
        );
        let out =
            aggregate_au_exec(&rel, &[0], &[AggSpec::count("cnt")], None, &Executor::sequential())
                .unwrap();
        let mut by_street = std::collections::HashMap::new();
        for (t, k) in out.rows() {
            by_street.insert(format!("{}", t.0[0].sg), (t.0[1].clone(), *k));
        }
        // Canal: its box covers the whole domain (unknown street merged
        // in), so both member rows are guarded: [0/2/3], annot (1,1,2).
        let (canal_cnt, canal_annot) = &by_street["Canal"];
        assert_eq!(canal_cnt.lb, Value::Int(0));
        assert_eq!(canal_cnt.sg, Value::Int(2));
        assert_eq!(canal_cnt.ub, Value::Int(3));
        assert_eq!(*canal_annot, AuAnnot::triple(1, 1, 2));
        // State: certain box; the unknown-street row may join: [2/2/4],
        // annot (1,1,1) — exactly the figure.
        let (state_cnt, state_annot) = &by_street["State"];
        assert_eq!(state_cnt.lb, Value::Int(2));
        assert_eq!(state_cnt.sg, Value::Int(2));
        assert_eq!(state_cnt.ub, Value::Int(4));
        assert_eq!(*state_annot, AuAnnot::triple(1, 1, 1));
        // Monroe: possible-only row → row annotation (0,0,1); count is
        // [0/0/2] (the figure reports the conditional bound [1/1/2]).
        let (monroe_cnt, monroe_annot) = &by_street["Monroe"];
        assert_eq!(monroe_cnt.lb, Value::Int(0));
        assert_eq!(monroe_cnt.ub, Value::Int(2));
        assert_eq!(*monroe_annot, AuAnnot::triple(0, 0, 1));
    }

    /// Figure 7(b): aggregation without group-by sums everything,
    /// guarding possible-only tuples with the neutral element.
    #[test]
    fn figure_7_sum_no_groupby() {
        let rel = AuRelation::from_rows(
            Schema::named(&["inhab"]),
            vec![
                au_row(vec![r2(1, 1, 1)], 1, 1, 2),
                au_row(vec![r2(1, 2, 2)], 1, 1, 1),
                au_row(vec![r2(2, 2, 2)], 2, 2, 3),
                au_row(vec![r2(2, 3, 4)], 0, 0, 1),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[],
            &[AggSpec::new(AggFunc::Sum, col(0), "pop")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let (t, k) = &out.rows()[0];
        // lb: 1 + 1 + 4 + min(0,2·0) = 6; sg: 1 + 2 + 4 + 0 = 7
        // ub: 2 + 2 + 6 + max(0,4) = 14 — matches Figure 7(b) [6/7/14].
        assert_eq!(t.0[0], r2(6, 7, 14));
        assert_eq!(*k, AuAnnot::certain_one());
    }

    #[test]
    fn min_max_bounds() {
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                au_row(vec![RangeValue::certain(Value::Int(1)), r2(5, 6, 7)], 1, 1, 1),
                au_row(vec![r2(1, 1, 2), r2(2, 3, 4)], 0, 1, 1),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[0],
            &[AggSpec::new(AggFunc::Min, col(1), "lo"), AggSpec::new(AggFunc::Max, col(1), "hi")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let (t, _) = &out.rows()[0];
        let (lo, hi) = (&t.0[1], &t.0[2]);
        // The output box [1/1/2] is uncertain: the output may represent
        // group 2 (second row only), so the first row's values cannot
        // tighten the aggregate's outer bounds.
        assert_eq!(lo.lb, Value::Int(2));
        assert_eq!(lo.sg, Value::Int(3)); // SGW: min(6, 3) = 3
        assert_eq!(lo.ub, Value::MaxVal);
        assert_eq!(hi.lb, Value::MinVal);
        assert_eq!(hi.sg, Value::Int(6));
        assert_eq!(hi.ub, Value::Int(7));
    }

    #[test]
    fn min_max_certain_group_tight() {
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                au_row(vec![RangeValue::certain(Value::Int(1)), r2(5, 6, 7)], 1, 1, 1),
                au_row(vec![RangeValue::certain(Value::Int(1)), r2(2, 3, 4)], 0, 1, 1),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[0],
            &[AggSpec::new(AggFunc::Min, col(1), "lo"), AggSpec::new(AggFunc::Max, col(1), "hi")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let (t, k) = &out.rows()[0];
        let (lo, hi) = (&t.0[1], &t.0[2]);
        // group is certain: row 1 contributes exactly; row 2 might not
        // exist (lb 0) so it cannot raise the min's lower bound above 2
        // nor guarantee the max exceeds 7.
        assert_eq!(*lo, r2(2, 3, 7));
        assert_eq!(*hi, r2(5, 6, 7));
        assert_eq!(*k, AuAnnot::triple(1, 1, 1));
    }

    #[test]
    fn avg_derived_from_sum_count() {
        let rel = AuRelation::from_rows(
            Schema::named(&["v"]),
            vec![au_row(vec![r2(10, 10, 10)], 1, 1, 1), au_row(vec![r2(20, 20, 20)], 0, 1, 1)],
        );
        let out = aggregate_au_exec(
            &rel,
            &[],
            &[AggSpec::new(AggFunc::Avg, col(0), "a")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let (t, _) = &out.rows()[0];
        let avg = &t.0[0];
        // sum ∈ [10, 30], count ∈ [1, 2] → avg ∈ [5, 30]; SG: 30/2 = 15
        assert_eq!(avg.lb, Value::float(5.0));
        assert_eq!(avg.sg, Value::float(15.0));
        assert_eq!(avg.ub, Value::float(30.0));
    }

    #[test]
    fn empty_input_no_groupby_neutral_row() {
        let rel = AuRelation::empty(Schema::named(&["v"]));
        let out = aggregate_au_exec(
            &rel,
            &[],
            &[AggSpec::new(AggFunc::Sum, col(0), "s"), AggSpec::new(AggFunc::Min, col(0), "m")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let (t, k) = &out.rows()[0];
        assert_eq!(t.0[0], RangeValue::certain(Value::Int(0)));
        assert_eq!(t.0[1], RangeValue::certain(Value::Null));
        assert_eq!(*k, AuAnnot::certain_one());
    }

    #[test]
    fn empty_input_with_groupby_empty_result() {
        let rel = AuRelation::empty(Schema::named(&["g", "v"]));
        let out = aggregate_au_exec(
            &rel,
            &[0],
            &[AggSpec::new(AggFunc::Sum, col(1), "s")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    /// SGW extraction commutes with aggregation: the SG components of the
    /// AU aggregate equal deterministic aggregation over the SG world.
    #[test]
    fn sg_commutes_with_aggregation() {
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                au_row(vec![r2(1, 1, 3), r2(5, 10, 20)], 1, 2, 2),
                au_row(vec![r2(1, 2, 2), r2(0, 4, 8)], 0, 1, 3),
                au_row(vec![RangeValue::certain(Value::Int(2)), r2(-5, -1, 0)], 1, 1, 1),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[0],
            &[AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::count("c")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let sgw_agg = out.sg_world();
        let det = crate::det::aggregate_det(
            &rel.sg_world(),
            &[0],
            &[AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::count("c")],
        )
        .unwrap();
        assert_eq!(sgw_agg, det.normalized());
    }

    /// Compression keeps bounds sound but looser (Lemma 10.2 shape).
    #[test]
    fn compressed_aggregation_subsumes_precise() {
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                au_row(vec![r2(1, 1, 2), r2(5, 10, 20)], 1, 1, 1),
                au_row(vec![r2(1, 2, 3), r2(0, 4, 8)], 0, 1, 2),
                au_row(vec![r2(2, 3, 3), r2(-5, -1, 0)], 1, 1, 1),
                au_row(vec![r2(3, 3, 4), r2(2, 2, 2)], 1, 1, 1),
            ],
        );
        let aggs = [AggSpec::new(AggFunc::Sum, col(1), "s")];
        let precise = aggregate_au_exec(&rel, &[0], &aggs, None, &Executor::sequential()).unwrap();
        let compressed =
            aggregate_au_exec(&rel, &[0], &aggs, Some(2), &Executor::sequential()).unwrap();
        assert_eq!(precise.sg_world(), compressed.sg_world());
        // every precise tuple's bounds are inside the compressed ones
        for (tp, kp) in precise.rows() {
            let (tc, kc) = compressed
                .rows()
                .iter()
                .find(|(tc, _)| tc.sg() == tp.sg())
                .expect("group preserved");
            for (rp, rc) in tp.0.iter().zip(&tc.0) {
                assert!(rc.lb <= rp.lb && rp.ub <= rc.ub, "{rc} should contain {rp}");
            }
            assert!(kc.lb <= kp.lb && kp.ub <= kc.ub);
        }
    }

    /// Regression (PR 5): the possible-group-count fold saturates
    /// instead of wrapping when adversarial multiplicities sit next to
    /// `u64::MAX` — two uncertain-group rows with `ub = u64::MAX`
    /// previously overflowed `uncertain_ub_sum += k.ub` (a debug-build
    /// panic, silent wraparound in release), collapsing the row
    /// annotation's upper bound to a tiny — unsound — value.
    #[test]
    fn count_annotation_ub_saturates_at_adversarial_multiplicities() {
        let huge = u64::MAX - 1;
        // two uncertain-group rows assigned to the SAME SG group so the
        // per-group fold really adds huge + huge
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                au_row(vec![r2(1, 1, 2), r2(5, 5, 5)], 0, 0, huge),
                au_row(vec![r2(0, 1, 3), r2(7, 7, 7)], 0, 0, huge),
            ],
        );
        let out =
            aggregate_au_exec(&rel, &[0], &[AggSpec::count("c")], None, &Executor::sequential())
                .unwrap();
        assert_eq!(out.len(), 1);
        let (t, k) = &out.rows()[0];
        // saturated at the domain top — still a sound upper bound
        // (previously: wraparound to huge + huge mod 2^64 = u64::MAX - 3,
        // a debug-build panic and a silent release-mode near-miss; a
        // third row would have wrapped to a tiny, *unsound* bound)
        assert_eq!(k.ub, u64::MAX);
        assert_eq!((k.lb, k.sg), (0, 0));
        // the count *value* bound must not wrap either: u64::MAX-sized
        // multiplicities promote to float in `mul_count` instead of
        // flipping negative through `as i64` (u64::MAX as i64 == -1)
        let cnt = &t.0[1];
        assert_eq!(cnt.lb, Value::Int(0));
        assert!(
            cnt.ub >= Value::float(huge as f64),
            "count ub {} wrapped below the multiplicity sum",
            cnt.ub
        );
    }

    /// Aggregation over an all-zero-multiplicity group: zero
    /// annotations `(0, 0, 0)` cannot enter an [`AuRelation`] at all —
    /// construction normalizes and `push` drops them — so the group is
    /// *empty* by the time aggregation runs, and the candidate folds
    /// (fixed-size corner arrays, no `reduce().unwrap()`) stay total on
    /// the resulting empty relation instead of panicking. Both the
    /// grouped (empty output) and ungrouped (neutral row) shapes agree
    /// with the rewrite middleware.
    #[test]
    fn aggregation_over_all_zero_multiplicity_group() {
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                au_row(vec![RangeValue::certain(Value::Int(1)), r2(5, 6, 7)], 0, 0, 0),
                au_row(vec![RangeValue::certain(Value::Int(1)), r2(2, 3, 4)], 0, 0, 0),
            ],
        );
        assert!(rel.is_empty(), "zero annotations never enter a relation");
        let aggs = [AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::count("c")];
        let out = aggregate_au_exec(&rel, &[0], &aggs, None, &Executor::sequential()).unwrap();
        assert!(out.is_empty(), "a group of never-existing rows produces no output");
        // without group-by the single output row is the deterministic
        // neutral row, with certainty
        let out = aggregate_au_exec(&rel, &[], &aggs, None, &Executor::sequential()).unwrap();
        assert_eq!(out.len(), 1);
        let (t, k) = &out.rows()[0];
        assert_eq!(t.0[0], RangeValue::certain(Value::Int(0)));
        assert_eq!(t.0[1], RangeValue::certain(Value::Int(0)));
        assert_eq!(*k, AuAnnot::certain_one());
        // the rewrite middleware agrees exactly on the grouped shape
        let mut db = audb_storage::AuDatabase::new();
        db.insert("r", rel);
        let q = crate::algebra::table("r").aggregate(vec![0], aggs.to_vec());
        let native = crate::au::eval_au(&db, &q, &crate::au::AuConfig::precise()).unwrap();
        let via = crate::rewrite::eval_via_rewrite(&db, &q).unwrap();
        assert_eq!(native, via);
    }

    /// The `⊛_M` corner folds themselves are total on the zero
    /// annotation (the shape the old `reduce().unwrap()` made look
    /// partial): every monoid yields its guarded neutral.
    #[test]
    fn boxtimes_total_on_zero_annotation() {
        let k = AuAnnot::triple(0, 0, 0);
        let m = r2(-5, 1, 7);
        let (lo, sg, hi) = boxtimes(Monoid::Sum, &k, &m).unwrap();
        assert_eq!((lo, sg, hi), (Value::Int(0), Value::Int(0), Value::Int(0)));
        let (lo, sg, hi) = boxtimes(Monoid::Min, &k, &m).unwrap();
        assert_eq!((lo, sg, hi), (Value::MaxVal, Value::MaxVal, Value::MaxVal));
        let (lo, sg, hi) = boxtimes(Monoid::Max, &k, &m).unwrap();
        assert_eq!((lo, sg, hi), (Value::MinVal, Value::MinVal, Value::MinVal));
    }

    /// `avg` with a zero-spanning count (`cnt.lb = 0, cnt.ub > 0`): the
    /// denominator clamp to ≥ 1 encodes "the row only exists in worlds
    /// with a non-empty group" — every achievable world average must be
    /// inside the bounds, and the sg must equal the SG-world average
    /// when the SG world has members.
    #[test]
    fn avg_zero_spanning_count_bounds_every_world() {
        // one certain member (v = 10) + one possible member (v = 40):
        // count [1/1/2], sum [10/10/50]
        let rel = AuRelation::from_rows(
            Schema::named(&["v"]),
            vec![au_row(vec![r2(10, 10, 10)], 1, 1, 1), au_row(vec![r2(40, 40, 40)], 0, 0, 1)],
        );
        let out = aggregate_au_exec(
            &rel,
            &[],
            &[AggSpec::new(AggFunc::Avg, col(0), "a")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let avg = &out.rows()[0].0 .0[0];
        // achievable averages: {10} → 10, {10, 40} → 25
        for world in [10.0, 25.0] {
            assert!(
                avg.bounds(&Value::float(world)),
                "achievable world average {world} escapes {avg}"
            );
        }
        assert_eq!(avg.sg, Value::float(10.0), "SG world = {{10}}");

        // possible-only group: count [0/0/2] — the average in worlds
        // where the group exists is 30 for either realized count; the
        // lower bound may not be dragged below by the empty world's
        // (nonexistent) row. SG world is empty → sg widens to Null via
        // the possible-empty adjustment, matching det evaluation.
        let rel = AuRelation::from_rows(
            Schema::named(&["v"]),
            vec![au_row(vec![r2(30, 30, 30)], 0, 0, 2)],
        );
        let out = aggregate_au_exec(
            &rel,
            &[],
            &[AggSpec::new(AggFunc::Avg, col(0), "a")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let avg = &out.rows()[0].0 .0[0];
        assert!(avg.bounds(&Value::float(30.0)), "world average 30 escapes {avg}");
        assert_eq!(avg.sg, Value::Null, "empty SG world averages to Null");
        assert!(avg.lb <= avg.sg && avg.sg <= avg.ub);
    }

    /// `Sum`'s neutral element is `Int(0)` and `Value::min_of`/`max_of`
    /// keep the left operand on cross-type ties, so over a Float column
    /// a bound that only guarded-to-neutral contributions reach is
    /// `Int(0)` — not `Float(0.0)` — while a guarded `hi = 0.0` *is* a
    /// float summand. The typed `f64` fold must reproduce both, i.e.
    /// agree with the oracle.
    #[test]
    fn float_sum_neutral_bound_is_int_zero() {
        let f = |lb: f64, sg: f64, ub: f64| RangeValue::range(lb, sg, ub);
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                // uncertain group box: every contribution is guarded
                au_row(vec![r2(1, 1, 2), f(1.5, 2.0, 2.5)], 1, 1, 1),
                au_row(vec![r2(1, 1, 2), f(0.0, 0.0, 3.0)], 1, 1, 2),
                // all-negative values: the upper bound stays neutral
                au_row(vec![r2(5, 5, 6), f(-2.5, -2.0, -1.5)], 1, 1, 1),
                // a guarded `hi = 0.0` enters the sum as a float
                au_row(vec![r2(8, 8, 9), f(-1.0, 0.0, 0.0)], 1, 1, 1),
            ],
        );
        let aggs = [AggSpec::new(AggFunc::Sum, col(1), "s")];
        let (out, stats) =
            aggregate_au_stats(&rel, &[0], &aggs, None, &Executor::sequential()).unwrap();
        assert_eq!(stats.terms_boxed, 0, "a homogeneous Float column rides the typed lanes");
        assert_eq!(out, aggregate_au_scan(&rel, &[0], &aggs, None).unwrap());
        let sum_of = |g: i64| {
            let row = out.rows().iter().find(|(t, _)| t.0[0].sg == Value::Int(g)).unwrap();
            row.0 .0[1].clone()
        };
        assert_eq!(sum_of(1).lb, Value::Int(0));
        assert_eq!(sum_of(1).ub, Value::float(8.5));
        assert_eq!(sum_of(5).lb, Value::float(-2.5));
        assert_eq!(sum_of(5).ub, Value::Int(0));
        assert_eq!(sum_of(8).ub, Value::float(0.0));
    }

    fn lane_groups(rows: &[(RangeTuple, AuAnnot)], group_by: &[usize]) -> LaneGroups {
        let lanes: Vec<ValueLane> = (group_by.iter())
            .map(|&c| ValueLane::from_cells(rows.iter().map(move |(t, _)| &t.0[c])))
            .collect();
        let keys: Vec<LaneSlice<'_>> = lanes.iter().map(ValueLane::as_slice).collect();
        LaneGroups::build(&keys, rows.len())
    }

    /// α partitions the rows by SG key in first-appearance order, the
    /// certain subset and the uncertain rows split them, and the group
    /// boxes (one lane per group-by column) feed the membership sweep.
    #[test]
    fn lane_groups_partition_membership() {
        let c = |v: i64| RangeValue::certain(Value::Int(v));
        let rows = vec![
            au_row(vec![c(1), r2(0, 0, 9)], 1, 1, 1), // group 1, certain group-by
            au_row(vec![r2(0, 1, 4), c(7)], 1, 1, 1), // group 1 again, widening the box
            au_row(vec![c(2), c(5)], 1, 1, 1),        // group 2, certain
        ];
        let gx = lane_groups(&rows, &[0]);
        assert_eq!(gx.alpha.offsets, [0, 2, 3]);
        assert_eq!((gx.alpha.of(0), gx.alpha.of(1)), (&[0, 1][..], &[2][..]));
        assert_eq!((gx.certain.of(0), gx.certain.of(1)), (&[0][..], &[2][..]));
        assert_eq!(gx.uncertain, [1]);
        // group 1's box merged the uncertain member; the lane stays typed
        assert_eq!(gx.boxes[0], ValueLane::Int { lb: vec![0, 2], sg: vec![1, 2], ub: vec![4, 2] });
        // row 1 overlaps both group boxes on attribute 0
        let key = ValueLane::from_cells(rows.iter().map(|(t, _)| &t.0[0]));
        let gi = IntervalIndex::from_lane(gx.boxes[0].as_slice());
        let si = IntervalIndex::from_lane_subset(key.as_slice(), &gx.uncertain);
        let mut pairs = Vec::new();
        IntervalIndex::sweep_overlapping(&gi, &si, |g, s| pairs.push((g, s)));
        pairs.sort_unstable();
        assert_eq!(pairs, [(0, 1), (1, 1)]);
    }

    /// SG keys are exact, not canonical: `Int 2` and `Float 2.0` share a
    /// hash and are two groups (a `Boxed` lane, confirmed on the `sg`
    /// values), and so are two integers whose `f64` casts collide (an
    /// `Int` lane, confirmed on the `i64`s).
    #[test]
    fn lane_groups_keys_are_exact_not_canonicalized() {
        let c = |v: Value| au_row(vec![RangeValue::certain(v)], 1, 1, 1);
        let mixed = [c(Value::Int(2)), c(Value::float(2.0)), c(Value::Int(2))];
        let gx = lane_groups(&mixed, &[0]);
        assert_eq!(gx.alpha.offsets, [0, 2, 3], "Int 2 and Float 2.0 are distinct SG groups");
        assert_eq!(gx.alpha.of(0), [0, 2]);
        let big = 1i64 << 53;
        let gx =
            lane_groups(&[c(Value::Int(big)), c(Value::Int(big + 1)), c(Value::Int(big))], &[0]);
        assert_eq!((gx.alpha.of(0), gx.alpha.of(1)), (&[0, 2][..], &[1][..]));
        // and through the whole kernel, against the oracle's own grouping
        let rel = AuRelation::from_rows(Schema::named(&["g"]), mixed.to_vec());
        let aggs = [AggSpec::count("c")];
        let (out, stats) =
            aggregate_au_stats(&rel, &[0], &aggs, None, &Executor::sequential()).unwrap();
        assert_eq!((out.len(), stats.groups, stats.keys_boxed), (2, 2, true));
        assert_eq!(out, aggregate_au_scan(&rel, &[0], &aggs, None).unwrap());
    }

    /// Tuples pinned to a different certain group do not pollute this
    /// group's bounds (deviation 2 / Figure 7's State row).
    #[test]
    fn foreign_certain_tuples_excluded() {
        let rel = AuRelation::from_rows(
            Schema::named(&["g", "v"]),
            vec![
                // group 1 with a wide box due to an uncertain member
                au_row(vec![r2(1, 1, 9), r2(0, 1, 1)], 1, 1, 1),
                // certainly group 5 — inside group 1's box but pinned
                au_row(vec![RangeValue::certain(Value::Int(5)), r2(100, 100, 100)], 1, 1, 1),
            ],
        );
        let out = aggregate_au_exec(
            &rel,
            &[0],
            &[AggSpec::new(AggFunc::Sum, col(1), "s")],
            None,
            &Executor::sequential(),
        )
        .unwrap();
        let g1 = out.rows().iter().find(|(t, _)| t.0[0].sg == Value::Int(1)).unwrap();
        let sum = &g1.0 .0[1];
        // without the exclusion the foreign row's +100 would leak in
        assert_eq!(sum.ub, Value::Int(1));
        assert_eq!(sum.lb, Value::Int(0));
    }
}
