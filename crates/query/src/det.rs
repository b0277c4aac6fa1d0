//! Deterministic bag-semantics evaluation of `RA^agg` — the
//! conventional-DBMS substrate (selected-guess query processing runs
//! here, and the rewrite middleware of Section 10 executes its rewritten
//! plans on this engine).
//!
//! The engine rides the same partition-parallel [`Executor`] as the AU
//! evaluator and runs a query exactly two ways:
//!
//! * **production** ([`eval_det`] / [`eval_det_exec`]): row-local
//!   operator chains (select / project / the probe side of a planned
//!   join) fuse into a single pass per base-table morsel
//!   ([`run_chain`]) over compiled det [`Program`]s; everything else
//!   runs operator-at-a-time on the pool. A chain one of whose stages
//!   Tier B rejects is not fused at all — its subtree runs on the
//!   operator functions (the AU engine's "degrade the chain, not the
//!   stage" rule).
//! * **oracle** ([`eval_det_oracle`]): never fuses, evaluates every
//!   expression on the `Expr`-tree interpreter — the differential
//!   reference of `tests/exec_equivalence.rs`.
//!
//! Both are one tree walk ([`eval_walk`]) and return the same relation,
//! byte for byte, for any worker count.
//!
//! A join has one build side on either path, `DetProbe`: the fused
//! chain's probe and the join operator
//! ([`planner::join_det_planned_exec`]) read the same hash index or
//! sweep pairs, and both run on `run_governed`, which charges the rows
//! a probe emits to the budget as `join-probe` every `GOVERN_ROWS` —
//! inside one left row's matches too — and observes cancellation inside
//! a morsel.

use std::borrow::Cow;
use std::collections::HashMap;

use audb_core::obs::TraceBuilder;
use audb_core::{EvalError, Expr, Program, Semiring, Value};
use audb_exec::Executor;
use audb_storage::{det_key, Database, HashKeyIndex, IntervalIndex, Relation, Schema, Tuple};

use crate::algebra::{check_group_by, AggFunc, AggSpec, Query};
use crate::au::pipeline::{chain_exec, run_governed, select_only, Delivery, Governed};
use crate::planner::{self, JoinStrategy};
use crate::vcheck::Vet;

/// Evaluate a query over a deterministic database on the default
/// executor (all available hardware threads).
pub fn eval_det(db: &Database, q: &Query) -> Result<Relation, EvalError> {
    eval_det_exec(db, q, &Executor::default())
}

/// [`eval_det`] on an explicit executor, with morsel-at-a-time
/// pipelining of fusable operator chains. `Executor::sequential()`
/// reproduces the serial behavior exactly; any worker count produces a
/// byte-identical result.
pub fn eval_det_exec(db: &Database, q: &Query, exec: &Executor) -> Result<Relation, EvalError> {
    let tr = TraceBuilder::disabled();
    let rel = eval_walk(db, q, exec, Delivery::Canonical, Some(Vet::new(exec.metrics(), &tr)))?;
    Ok(rel.into_owned().into_normalized_with(exec)?)
}

/// The differential oracle: operator-at-a-time evaluation that never
/// fuses a chain and never compiles an expression. Returns
/// [`eval_det_exec`]'s relation byte for byte
/// (`tests/exec_equivalence.rs`); where several rows fail, a fused chain
/// meets their errors row by row, the oracle operator by operator.
pub fn eval_det_oracle(db: &Database, q: &Query, exec: &Executor) -> Result<Relation, EvalError> {
    let rel = eval_walk(db, q, exec, Delivery::Canonical, None)?;
    Ok(rel.into_owned().into_normalized_with(exec)?)
}

/// Partition-parallel selection. Like the AU evaluator's selection it
/// preserves normal form: kept rows keep their tuples, multiplicities,
/// and relative order, so a normalized input yields a normalized output
/// and downstream merges are free.
pub fn select_det_exec(
    rel: &Relation,
    predicate: &Expr,
    exec: &Executor,
) -> Result<Relation, EvalError> {
    let rows = exec.run(rel.rows().len(), |morsel, out| {
        for (t, k) in &rel.rows()[morsel] {
            if predicate.eval_bool(t.values())? {
                out.push((t.clone(), *k));
            }
        }
        Ok::<(), EvalError>(())
    })?;
    if rel.is_normalized() {
        Ok(Relation::from_normalized_rows(rel.schema.clone(), rows))
    } else {
        let mut out = Relation::empty(rel.schema.clone());
        out.append_rows(rows);
        Ok(out)
    }
}

/// Partition-parallel generalized projection (output left unnormalized,
/// exactly like the serial loop — deterministic bag semantics merge
/// duplicates only where an operator requires it).
pub fn project_det_exec(
    rel: &Relation,
    exprs: &[(Expr, String)],
    exec: &Executor,
) -> Result<Relation, EvalError> {
    let schema = Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect());
    let rows = exec.run(rel.rows().len(), |morsel, out| {
        for (t, k) in &rel.rows()[morsel] {
            let vals: Result<Vec<Value>, EvalError> =
                exprs.iter().map(|(e, _)| e.eval(t.values())).collect();
            out.push((Tuple::new(vals?), *k));
        }
        Ok::<(), EvalError>(())
    })?;
    let mut out = Relation::empty(schema);
    out.append_rows(rows);
    Ok(out)
}

/// Bag difference (monus): the left side needs normal form (one row per
/// distinct tuple) and gets it from the sharded-reduce driver; the
/// right side only feeds a commutative multiplicity sum.
fn difference_det(
    l: Cow<'_, Relation>,
    r: &Relation,
    exec: &Executor,
) -> Result<Relation, EvalError> {
    l.schema.check_union_compatible(&r.schema)?;
    let mut rmap: HashMap<&Tuple, u64> = HashMap::new();
    for (t, k) in r.rows() {
        let sum = rmap.entry(t).or_insert(0);
        *sum = sum.plus(k);
    }
    let l = l.into_owned().into_normalized_with(exec)?;
    let mut out = Relation::empty(l.schema.clone());
    for (t, k) in l.rows() {
        let sub = rmap.get(t).copied().unwrap_or(0);
        out.push(t.clone(), k.saturating_sub(sub));
    }
    Ok(out)
}

/// Duplicate elimination: requires normal form, then resets
/// multiplicities.
fn distinct_det(rel: Cow<'_, Relation>, exec: &Executor) -> Result<Relation, EvalError> {
    let rel = rel.into_owned().into_normalized_with(exec)?;
    let mut out = Relation::empty(rel.schema.clone());
    for (t, _) in rel.rows() {
        out.push(t.clone(), 1);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Shard-at-a-time pipelining (the deterministic counterpart of
// `crate::au::pipeline`; see that module for the delivery contracts)
// ---------------------------------------------------------------------------

/// The row a det join or chain appends.
pub(crate) type DetRow = (Tuple, u64);

/// How a det join finds a left row's partners, one arm per
/// [`JoinStrategy`].
enum DetMatch {
    /// Conjunctive equality on canonical keys: the key match *is* the
    /// predicate, so no pair is re-checked.
    Hash { lcols: Vec<usize>, rcols: Vec<usize>, index: HashKeyIndex },
    /// Order comparison: the sweep's candidate `(left, right)` pairs in
    /// emission order, and the same pairs by left row
    /// ([`planner::csr_by_left`]); each pair is re-checked.
    Comparison { pairs: Vec<(u32, u32)>, offsets: Vec<usize>, entries: Vec<(u32, u32)> },
    /// Cross products and unindexable predicates: every right row,
    /// re-checked.
    NestedLoop,
}

/// A det join's build side, and the one place a det join classifies its
/// predicate, builds its hash index or runs its sweep. The fused
/// chain's probe and [`planner::join_det_planned_exec`] both read it,
/// each re-checking [`DetProbe::recheck`] in its own form (compiled or
/// interpreted). It borrows its right relation.
pub(crate) struct DetProbe<'r> {
    right: &'r Relation,
    on: Option<&'r Expr>,
    plan: DetMatch,
}

impl<'r> DetProbe<'r> {
    pub(crate) fn build(left: &Relation, right: &'r Relation, on: Option<&'r Expr>) -> Self {
        let plan = match planner::classify_within(on, left.schema.arity(), right.schema.arity()) {
            JoinStrategy::HashEqui(pairs) => {
                let (lcols, rcols): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
                let rkey = |ri: u32| det_key(right.rows()[ri as usize].0.values(), &rcols);
                let index = HashKeyIndex::build(0..right.len() as u32, rkey);
                DetMatch::Hash { lcols, rcols, index }
            }
            JoinStrategy::IntervalComparison { lo, hi } => {
                let pairs = planner::comparison_candidates(
                    lo,
                    hi,
                    |c| IntervalIndex::from_det(left.rows(), c),
                    |c| IntervalIndex::from_det(right.rows(), c),
                );
                let (offsets, entries) = planner::csr_by_left(left.len(), &pairs);
                DetMatch::Comparison { pairs, offsets, entries }
            }
            JoinStrategy::NestedLoop => DetMatch::NestedLoop,
        };
        DetProbe { right, on, plan }
    }

    /// The predicate a candidate pair must still pass: none where the
    /// key match is the predicate.
    pub(crate) fn recheck(&self) -> Option<&'r Expr> {
        self.on.filter(|_| !matches!(self.plan, DetMatch::Hash { .. }))
    }

    /// A comparison plan's candidate pairs, in the planner's emission
    /// order.
    pub(crate) fn pairs(&self) -> Option<&[(u32, u32)]> {
        match &self.plan {
            DetMatch::Comparison { pairs, .. } => Some(pairs),
            _ => None,
        }
    }

    /// Call `f` on the candidate right rows of left row `li` (values
    /// `vals`), in order: its hash bucket, its sweep candidates, or every
    /// right row.
    pub(crate) fn for_each(
        &self,
        li: usize,
        vals: &[Value],
        mut f: impl FnMut(&'r DetRow) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let rows = self.right.rows();
        match &self.plan {
            DetMatch::Hash { lcols, rcols, index } => {
                let rkey = |ri: u32| det_key(rows[ri as usize].0.values(), rcols);
                index.matches(det_key(vals, lcols), rkey).try_for_each(|ri| f(&rows[ri as usize]))
            }
            DetMatch::Comparison { offsets, entries, .. } => entries[offsets[li]..offsets[li + 1]]
                .iter()
                .try_for_each(|&(ri, _)| f(&rows[ri as usize])),
            DetMatch::NestedLoop => rows.iter().try_for_each(f),
        }
    }
}

/// A fused chain's stage: a compiled det [`Program`] (det lowering keeps
/// `And`/`Or`/`If` short-circuit via jump ops) — a predicate, or a whole
/// projection list as one multi-output program — or a join's probe with
/// its compiled re-check.
enum DetPipeOp<'r> {
    Select(Program),
    Project(Program),
    Probe(Box<(DetProbe<'r>, Option<Program>)>),
}

/// Per-op scratch reused across a morsel's rows: the value buffer plus
/// the compiled-program register file.
#[derive(Default)]
struct DetBuf {
    vals: Vec<Value>,
    regs: Vec<Value>,
}

fn apply_det(
    ops: &[DetPipeOp<'_>],
    bufs: &mut [DetBuf],
    src: usize,
    vals: &[Value],
    k: u64,
    out: &mut Governed<'_, DetRow>,
) -> Result<(), EvalError> {
    debug_assert_eq!(bufs.len(), ops.len(), "one buffer per op");
    let (Some((op, rest)), Some((buf, rest_bufs))) = (ops.split_first(), bufs.split_first_mut())
    else {
        return Ok(out.push((Tuple::new(vals.to_vec()), k))?);
    };
    match op {
        DetPipeOp::Select(p) => {
            if !p.eval_det_bool(vals, &mut buf.regs)? {
                return Ok(());
            }
            apply_det(rest, rest_bufs, src, vals, k, out)
        }
        DetPipeOp::Project(p) => {
            let DetBuf { vals: pvals, regs } = buf;
            pvals.clear();
            p.prepare_det_regs(regs);
            p.eval_det_into(vals, regs)?;
            for i in 0..p.arity() {
                pvals.push(p.det_output(i, vals, regs).clone());
            }
            apply_det(rest, rest_bufs, usize::MAX, pvals, k, out)
        }
        DetPipeOp::Probe(probe) => {
            let (probe, recheck) = probe.as_ref();
            let DetBuf { vals: concat, regs } = buf;
            probe.for_each(src, vals, |(tr, kr)| {
                concat.clear();
                concat.extend_from_slice(vals);
                concat.extend_from_slice(&tr.0);
                if let Some(p) = recheck {
                    if !p.eval_det_bool(concat, regs)? {
                        return Ok(());
                    }
                }
                apply_det(rest, rest_bufs, usize::MAX, concat, k.times(kr), out)
            })
        }
    }
}

/// The anchor of the select/project tower `q`, if a chain can fuse onto
/// it: a base table, or a join (regardless of its subtrees).
fn chain_anchor(q: &Query) -> Option<&Query> {
    match q {
        Query::Table(_) | Query::Join { .. } => Some(q),
        Query::Select { input, .. } | Query::Project { input, .. } => chain_anchor(input),
        _ => None,
    }
}

/// Run the fused chain rooted at `q` (a tower over a [`chain_anchor`]),
/// or `None` when Tier B rejected one of its programs ([`Vet`] has
/// counted it). Every stage compiles before any input is touched, so
/// declining a chain costs no evaluation. A chain holds at most one
/// join, at its anchor: the stages below its probe are the select-only
/// chain over its left side, and the probe borrows the right side the
/// walk returns.
///
/// The chain runs morsel by morsel with the delivery its shape admits:
/// probe chains pay the single breaker normalization; select/project
/// chains reproduce the serial row list exactly (selection preserving
/// normal form). Row order is the sequential chain-emission order for
/// any worker count.
fn run_chain<'a>(
    db: &'a Database,
    q: &Query,
    exec: &Executor,
    vet: Vet<'_>,
) -> Result<Option<Cow<'a, Relation>>, EvalError> {
    // compiled top-down: the stages above the join, then those below it
    let (mut above, mut below, mut join, mut names) = (Vec::new(), Vec::new(), None, None);
    let mut node = q;
    let anchor = loop {
        let stages = if join.is_some() { &mut below } else { &mut above };
        node = match node {
            Query::Select { input, predicate } => {
                let Some(p) = vet.det(predicate) else { return Ok(None) };
                stages.push(DetPipeOp::Select(p));
                input
            }
            Query::Project { input, exprs } => {
                let es: Vec<Expr> = exprs.iter().map(|(e, _)| e.clone()).collect();
                let Some(p) = vet.det_many(&es) else { return Ok(None) };
                names.get_or_insert_with(|| exprs.iter().map(|(_, n)| n.clone()).collect());
                stages.push(DetPipeOp::Project(p));
                input
            }
            Query::Join { left, right, predicate } if join.is_none() => {
                let recheck = match predicate.as_ref().map(|e| vet.det(e)) {
                    Some(None) => return Ok(None),
                    compiled => compiled.flatten(),
                };
                join = Some((right, predicate.as_ref(), recheck));
                if !select_only(left) {
                    break &**left;
                }
                left
            }
            _ => break node,
        };
    };
    let input = |q: &Query| eval_walk(db, q, exec, Delivery::Canonical, Some(vet));
    let source = match anchor {
        Query::Table(name) => Cow::Borrowed(db.get(name)?),
        _ => input(anchor)?,
    };
    let right = match &join {
        Some((r, ..)) => Some(input(r)?),
        None => None,
    };
    let mut schema = source.schema.clone();
    let mut ops: Vec<DetPipeOp<'_>> = below.into_iter().rev().collect();
    if let (Some((_, on, recheck)), Some(r)) = (join, &right) {
        let probe = DetProbe::build(&source, r, on);
        let recheck = recheck.filter(|_| probe.recheck().is_some());
        schema = schema.concat(&r.schema);
        ops.push(DetPipeOp::Probe(Box::new((probe, recheck))));
    }
    ops.extend(above.into_iter().rev());
    if ops.is_empty() {
        return Ok(Some(source));
    }
    let schema = names.map_or(schema, Schema::new);
    let operator = if right.is_some() { "join-probe" } else { "pipeline-chain" };
    let scratch = || (0..ops.len()).map(|_| DetBuf::default()).collect::<Vec<_>>();
    let rows = run_governed(&chain_exec(exec), operator, source.len(), scratch, |bufs, i, out| {
        let (t, k) = &source.rows()[i];
        apply_det(&ops, bufs, i, t.values(), *k, out)
    })?;
    if source.is_normalized() && ops.iter().all(|op| matches!(op, DetPipeOp::Select(_))) {
        return Ok(Some(Cow::Owned(Relation::from_normalized_rows(schema, rows))));
    }
    let mut out = Relation::empty(schema);
    out.append_rows(rows);
    Ok(Some(Cow::Owned(if right.is_some() { out.into_normalized_with(exec)? } else { out })))
}

/// The one tree walk. With `fuse` (production) a fusable chain whose
/// every stage vets runs fused ([`run_chain`]); everything else — a
/// breaker, a chain Tier B declined, and every operator of the oracle
/// (`fuse = None`) — runs on the operator functions over interpreted
/// `Expr` trees. Base tables are borrowed from the database, only
/// operator outputs are owned, and normal form is produced only where
/// an operator requires it (difference's and distinct's left-side
/// merges, on the sharded-reduce driver).
fn eval_walk<'a>(
    db: &'a Database,
    q: &Query,
    exec: &Executor,
    delivery: Delivery,
    fuse: Option<Vet<'_>>,
) -> Result<Cow<'a, Relation>, EvalError> {
    // Det select/project chains reproduce the serial list exactly —
    // projection does not normalize on this engine — so only a probe
    // restricts a chain to Canonical delivery.
    let fits =
        |anchor: &Query| delivery == Delivery::Canonical || matches!(anchor, Query::Table(_));
    if let Some(vet) = fuse {
        if chain_anchor(q).is_some_and(fits) {
            return match run_chain(db, q, exec, vet)? {
                Some(rel) => Ok(rel),
                // degrade the chain, not the stage: inputs included
                None => eval_walk(db, q, exec, delivery, None),
            };
        }
    }
    let input = |q: &Query, delivery| eval_walk(db, q, exec, delivery, fuse);
    Ok(Cow::Owned(match q {
        Query::Table(name) => return Ok(Cow::Borrowed(db.get(name)?)),
        Query::Select { input: of, predicate } => {
            let rel = input(of, delivery)?;
            select_det_exec(&rel, predicate, exec)?
        }
        Query::Project { input: of, exprs } => {
            let rel = input(of, delivery)?;
            project_det_exec(&rel, exprs, exec)?
        }
        Query::Join { left, right, predicate } => {
            // multiset-determined: the strictness of the context carries
            let (l, r) = (input(left, delivery)?, input(right, delivery)?);
            planner::join_det_planned_exec(&l, &r, predicate.as_ref(), exec)?
        }
        Query::Union { left, right } => {
            // the union list is left ++ right: the context's strictness
            // carries to both sides
            let (l, r) = (input(left, delivery)?, input(right, delivery)?);
            l.schema.check_union_compatible(&r.schema)?;
            let mut out = l.into_owned();
            out.extend_from(&r);
            out
        }
        Query::Difference { left, right } => {
            // left is normalized internally, the right feeds commutative
            // sums: multiset-determined on both sides
            let l = input(left, Delivery::Canonical)?;
            let r = input(right, Delivery::Canonical)?;
            difference_det(l, &r, exec)?
        }
        Query::Distinct { input: of } => distinct_det(input(of, Delivery::Canonical)?, exec)?,
        Query::Aggregate { input: of, group_by, aggs } => {
            // group first-appearance order and float folds depend on the
            // exact input list
            let rel = input(of, Delivery::Faithful)?;
            aggregate_det(&rel, group_by, aggs)?
        }
    }))
}

/// Shared scalar `avg` from sum and count (Section 10.2 derivation).
pub fn avg_value(sum: &Value, count: u64) -> Result<Value, EvalError> {
    if count == 0 {
        return Ok(Value::Null);
    }
    sum.div(&Value::Int(count as i64))
}

struct AggAcc {
    sum: Value,
    count: u64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggAcc {
    fn new() -> Self {
        AggAcc { sum: Value::Int(0), count: 0, min: None, max: None }
    }

    fn add(&mut self, v: &Value, mult: u64) -> Result<(), EvalError> {
        if mult == 0 {
            return Ok(());
        }
        self.sum = self.sum.add(&v.mul_count(mult)?)?;
        self.count = self.count.plus(&mult);
        self.min = Some(match self.min.take() {
            None => v.clone(),
            Some(m) => Value::min_of(m, v.clone()),
        });
        self.max = Some(match self.max.take() {
            None => v.clone(),
            Some(m) => Value::max_of(m, v.clone()),
        });
        Ok(())
    }

    fn extract(&self, f: AggFunc) -> Result<Value, EvalError> {
        Ok(match f {
            AggFunc::Sum => self.sum.clone(),
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Avg => avg_value(&self.sum, self.count)?,
        })
    }
}

pub(crate) fn aggregate_det(
    rel: &Relation,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> Result<Relation, EvalError> {
    check_group_by(group_by, rel.schema.arity())?;
    let mut names: Vec<String> =
        group_by.iter().map(|c| rel.schema.column_name(*c).to_string()).collect();
    names.extend(aggs.iter().map(|a| a.name.clone()));
    let schema = Schema::new(names);

    // group key → one accumulator per aggregate
    let mut groups: HashMap<Tuple, Vec<AggAcc>> = HashMap::new();
    let mut order: Vec<Tuple> = Vec::new();
    for (t, k) in rel.rows() {
        if *k == 0 {
            continue;
        }
        let key = t.project(group_by);
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            aggs.iter().map(|_| AggAcc::new()).collect()
        });
        for (spec, acc) in aggs.iter().zip(accs.iter_mut()) {
            let v = spec.input.eval(t.values())?;
            acc.add(&v, *k)?;
        }
    }

    // Aggregation without group-by always yields exactly one row.
    if group_by.is_empty() && groups.is_empty() {
        let empty: Vec<Value> =
            aggs.iter().map(|a| AggAcc::new().extract(a.func)).collect::<Result<_, _>>()?;
        return Ok(Relation::from_rows(schema, vec![(Tuple::new(empty), 1)]));
    }

    let mut out = Relation::empty(schema);
    for key in order {
        let accs = &groups[&key];
        let mut vals = key.0.clone();
        for (spec, acc) in aggs.iter().zip(accs) {
            vals.push(acc.extract(spec.func)?);
        }
        out.push(Tuple::new(vals), 1);
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::algebra::table;
    use audb_core::{col, lit};

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(
            "r",
            Relation::from_rows(
                Schema::named(&["a", "b"]),
                vec![(it(&[1, 10]), 2), (it(&[2, 20]), 1), (it(&[3, 20]), 3)],
            ),
        );
        db.insert(
            "s",
            Relation::from_rows(Schema::named(&["c"]), vec![(it(&[1]), 1), (it(&[3]), 2)]),
        );
        db
    }

    #[test]
    fn select_filters_bag() {
        let db = db();
        let q = table("r").select(col(1).eq(lit(20i64)));
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.total_count(), 4);
        assert_eq!(out.multiplicity(&it(&[3, 20])), 3);
    }

    #[test]
    fn project_sums_multiplicities() {
        let db = db();
        let q = table("r").project(vec![(col(1), "b")]);
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[20])), 4);
        assert_eq!(out.multiplicity(&it(&[10])), 2);
    }

    #[test]
    fn equi_join_hash_path() {
        let db = db();
        let q = table("r").join_on(table("s"), col(0).eq(col(2)));
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[1, 10, 1])), 2);
        assert_eq!(out.multiplicity(&it(&[3, 20, 3])), 6);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn theta_join_nested_loop_matches_hash() {
        let db = db();
        // same predicate but written so the equi detector cannot fire
        let q1 = table("r").join_on(table("s"), col(0).eq(col(2)));
        let q2 = table("r").join_on(table("s"), col(0).leq(col(2)).and(col(2).leq(col(0))));
        assert_eq!(eval_det(&db, &q1).unwrap(), eval_det(&db, &q2).unwrap());
    }

    #[test]
    fn union_and_difference() {
        let db = db();
        let q = table("s").union(table("s"));
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[3])), 4);

        let q = table("s").union(table("s")).difference(table("s"));
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[3])), 2);
        assert_eq!(out.multiplicity(&it(&[1])), 1);

        // monus truncates at zero
        let q = table("s").difference(table("s").union(table("s")));
        let out = eval_det(&db, &q).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn distinct_resets_multiplicities() {
        let db = db();
        let q = table("r").project(vec![(col(1), "b")]).distinct();
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[20])), 1);
        assert_eq!(out.total_count(), 2);
    }

    #[test]
    fn aggregate_with_groups() {
        let db = db();
        let q = table("r").aggregate(
            vec![1],
            vec![
                AggSpec::new(AggFunc::Sum, col(0), "s"),
                AggSpec::count("c"),
                AggSpec::new(AggFunc::Min, col(0), "lo"),
                AggSpec::new(AggFunc::Max, col(0), "hi"),
            ],
        );
        let out = eval_det(&db, &q).unwrap();
        // group 20: rows (2,20)x1, (3,20)x3 → sum 2+9=11, count 4, min 2, max 3
        assert_eq!(out.multiplicity(&it(&[20, 11, 4, 2, 3])), 1);
        assert_eq!(out.multiplicity(&it(&[10, 2, 2, 1, 1])), 1);
    }

    #[test]
    fn aggregate_multiplicity_weights_sum() {
        // sum over A with multiplicities: 30↦2, 40↦3 → 180 (Section 9.2)
        let rel = Relation::from_rows(Schema::named(&["a"]), vec![(it(&[30]), 2), (it(&[40]), 3)]);
        let mut db = Database::new();
        db.insert("t", rel);
        let q = table("t").aggregate(vec![], vec![AggSpec::new(AggFunc::Sum, col(0), "s")]);
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[180])), 1);
    }

    #[test]
    fn aggregate_empty_no_groupby() {
        let mut db = Database::new();
        db.insert("t", Relation::empty(Schema::named(&["a"])));
        let q = table("t").aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, col(0), "s"),
                AggSpec::count("c"),
                AggSpec::new(AggFunc::Min, col(0), "m"),
                AggSpec::new(AggFunc::Avg, col(0), "avg"),
            ],
        );
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.rows().len(), 1);
        let t = &out.rows()[0].0;
        assert_eq!(t.0, vec![Value::Int(0), Value::Int(0), Value::Null, Value::Null]);
    }

    #[test]
    fn aggregate_avg() {
        let db = db();
        let q = table("r").aggregate(vec![], vec![AggSpec::new(AggFunc::Avg, col(1), "avg")]);
        let out = eval_det(&db, &q).unwrap();
        // values: 10×2, 20×1, 20×3 → (20+20+60)/6 ≈ 16.666...
        let expect = (10.0 * 2.0 + 20.0 + 20.0 * 3.0) / 6.0;
        assert_eq!(out.rows()[0].0 .0[0], Value::float(expect));
    }

    #[test]
    fn empty_group_by_on_nonempty_single_row() {
        let db = db();
        let q = table("r").aggregate(vec![], vec![AggSpec::count("c")]);
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.multiplicity(&it(&[6])), 1);
    }
}
