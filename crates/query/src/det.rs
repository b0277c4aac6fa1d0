//! Deterministic bag-semantics evaluation of `RA^agg` — the
//! conventional-DBMS substrate (selected-guess query processing runs
//! here, and the rewrite middleware of Section 10 executes its rewritten
//! plans on this engine).
//!
//! This engine is the reference: world enumeration, the rewrite
//! middleware, the baselines and the benchmark gate check the AU engine
//! against it, so it compiles nothing and shares no `Program` with the
//! AU engine. It is one interpreted tree walk ([`eval_walk`]) on the same
//! partition-parallel [`Executor`] as the AU evaluator, and it returns
//! the same relation, byte for byte, for any worker count.
//!
//! Every select/project tower runs as one streaming chain
//! ([`run_chain`]) over its anchor's output: each source row passes
//! through the stages' [`Expr`]s (`eval_bool` / `eval`, so `And`, `Or`
//! and `If` short-circuit) and only survivors of the whole tower are
//! materialized. Under a multiset-determined consumer a join at the
//! anchor fuses as the chain's probe; otherwise it runs as its operator
//! ([`planner::join_det_planned_exec`]) and the tower runs over its
//! output. Breakers (∪, −, δ, γ) run operator-at-a-time on the pool.
//!
//! A join has one build side, `DetProbe`: the chain's probe and the join
//! operator read the same hash index or sweep pairs, and both run on
//! `run_governed`, which charges the rows a probe emits to the budget as
//! `join-probe` every `GOVERN_ROWS` — inside one left row's matches too
//! — and observes cancellation inside a morsel.

use std::borrow::Cow;
use std::collections::HashMap;

use audb_core::{EvalError, Expr, Semiring, Value};
use audb_exec::Executor;
use audb_storage::{det_key, Database, HashKeyIndex, IntervalIndex, Relation, Schema, Tuple};

use crate::algebra::{check_group_by, AggFunc, AggSpec, Query};
use crate::au::pipeline::{chain_exec, run_governed, select_only, Delivery, Governed};
use crate::planner::{self, JoinStrategy};

/// Evaluate a query over a deterministic database on the default
/// executor (all available hardware threads).
pub fn eval_det(db: &Database, q: &Query) -> Result<Relation, EvalError> {
    eval_det_exec(db, q, &Executor::default())
}

/// [`eval_det`] on an explicit executor, with morsel-at-a-time
/// streaming of select/project chains. `Executor::sequential()`
/// reproduces the serial behavior exactly; any worker count produces a
/// byte-identical result.
pub fn eval_det_exec(db: &Database, q: &Query, exec: &Executor) -> Result<Relation, EvalError> {
    let rel = eval_walk(db, q, exec, Delivery::Canonical)?;
    Ok(rel.into_owned().into_normalized_with(exec)?)
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
/// predicate, builds its hash index or runs its sweep. The chain's probe
/// and [`planner::join_det_planned_exec`] both read it and re-check
/// [`DetProbe::recheck`] on every candidate pair. It borrows its right
/// relation.
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

/// A chain stage, borrowed from the query: a predicate, a projection
/// list, or a join's probe.
enum DetPipeOp<'q> {
    Select(&'q Expr),
    Project(&'q [(Expr, String)]),
    Probe(DetProbe<'q>),
}

/// Run one source row (`vals`, multiplicity `k`, at source position
/// `src`) through `ops`, appending the tower's survivors to `out`. Each
/// stage that builds a row (a projection, a probe's concatenation) owns
/// one buffer of `bufs`, reused across the morsel's rows.
fn apply_det(
    ops: &[DetPipeOp<'_>],
    bufs: &mut [Vec<Value>],
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
            if !p.eval_bool(vals)? {
                return Ok(());
            }
            apply_det(rest, rest_bufs, src, vals, k, out)
        }
        DetPipeOp::Project(exprs) => {
            buf.clear();
            for (e, _) in exprs.iter() {
                buf.push(e.eval(vals)?);
            }
            apply_det(rest, rest_bufs, usize::MAX, buf, k, out)
        }
        DetPipeOp::Probe(probe) => probe.for_each(src, vals, |(tr, kr)| {
            buf.clear();
            buf.extend_from_slice(vals);
            buf.extend_from_slice(&tr.0);
            if let Some(p) = probe.recheck() {
                if !p.eval_bool(buf)? {
                    return Ok(());
                }
            }
            apply_det(rest, rest_bufs, usize::MAX, buf, k.times(kr), out)
        }),
    }
}

/// Run the select/project tower rooted at `q` as one chain over its
/// anchor, the first node below it that is neither a selection nor a
/// projection. Under a `Canonical` consumer a join at the anchor fuses
/// as the chain's probe (a bare join is a probe-only chain): the stages
/// below it are the select-only chain over its left side, and the probe
/// borrows the right side the walk returns. Any other anchor — a join
/// under a `Faithful` consumer included — is evaluated by the walk, and
/// the tower runs over its output.
///
/// The chain runs morsel by morsel: a probe chain pays the single
/// breaker normalization; a select/project chain reproduces the row
/// list of its operators exactly (selection preserving normal form), so
/// its anchor is asked for the chain's own delivery. Row order is the
/// sequential chain-emission order for any worker count.
fn run_chain<'a>(
    db: &'a Database,
    q: &Query,
    exec: &Executor,
    delivery: Delivery,
) -> Result<Cow<'a, Relation>, EvalError> {
    // collected top-down: the stages above the join, then those below it
    let (mut above, mut below, mut join, mut names) = (Vec::new(), Vec::new(), None, None);
    let mut node = q;
    let anchor = loop {
        let stages = if join.is_some() { &mut below } else { &mut above };
        node = match node {
            Query::Select { input, predicate } => {
                stages.push(DetPipeOp::Select(predicate));
                input
            }
            Query::Project { input, exprs } => {
                names.get_or_insert_with(|| exprs.iter().map(|(_, n)| n.clone()).collect());
                stages.push(DetPipeOp::Project(exprs));
                input
            }
            Query::Join { left, right, predicate }
                if join.is_none() && delivery == Delivery::Canonical =>
            {
                join = Some((right, predicate.as_ref()));
                if !select_only(left) {
                    break &**left;
                }
                left
            }
            _ => break node,
        };
    };
    let source = eval_walk(db, anchor, exec, delivery)?;
    let right = match &join {
        Some((r, _)) => Some(eval_walk(db, r, exec, delivery)?),
        None => None,
    };
    let mut schema = source.schema.clone();
    let mut ops: Vec<DetPipeOp<'_>> = below.into_iter().rev().collect();
    if let (Some((_, on)), Some(r)) = (join, &right) {
        schema = schema.concat(&r.schema);
        ops.push(DetPipeOp::Probe(DetProbe::build(&source, r, on)));
    }
    ops.extend(above.into_iter().rev());
    let schema = names.map_or(schema, Schema::new);
    let operator = if right.is_some() { "join-probe" } else { "pipeline-chain" };
    let scratch = || vec![Vec::new(); ops.len()];
    let rows = run_governed(&chain_exec(exec), operator, source.len(), scratch, |bufs, i, out| {
        let (t, k) = &source.rows()[i];
        apply_det(&ops, bufs, i, t.values(), *k, out)
    })?;
    if source.is_normalized() && ops.iter().all(|op| matches!(op, DetPipeOp::Select(_))) {
        return Ok(Cow::Owned(Relation::from_normalized_rows(schema, rows)));
    }
    let mut out = Relation::empty(schema);
    out.append_rows(rows);
    Ok(Cow::Owned(if right.is_some() { out.into_normalized_with(exec)? } else { out }))
}

/// The one tree walk: a select/project tower, or a join under a
/// multiset-determined consumer, runs as a chain ([`run_chain`]); every
/// other node runs its operator. Base tables are borrowed from the
/// database, only operator outputs are owned, and normal form is
/// produced only where an operator requires it (difference's and
/// distinct's left-side merges, on the sharded-reduce driver).
fn eval_walk<'a>(
    db: &'a Database,
    q: &Query,
    exec: &Executor,
    delivery: Delivery,
) -> Result<Cow<'a, Relation>, EvalError> {
    let input = |q: &Query, delivery| eval_walk(db, q, exec, delivery);
    Ok(Cow::Owned(match q {
        Query::Table(name) => return Ok(Cow::Borrowed(db.get(name)?)),
        Query::Select { .. } | Query::Project { .. } => return run_chain(db, q, exec, delivery),
        Query::Join { .. } if delivery == Delivery::Canonical => {
            return run_chain(db, q, exec, delivery)
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

    /// A chain stage short-circuits like `Expr::eval`: a skipped operand's
    /// error never surfaces, in a predicate or a projection, and an `If`
    /// errors only when the erroring branch is taken.
    #[test]
    fn chain_short_circuit_skips_errors() {
        let db = db();
        let boom = || lit(1i64).div(lit(0i64)).gt(lit(0i64));
        let q = table("r").select(lit(false).and(boom()));
        assert!(eval_det(&db, &q).unwrap().is_empty());
        let q = table("r").select(lit(true).or(boom()));
        assert_eq!(eval_det(&db, &q).unwrap().total_count(), 6);
        let pick = |c: bool| Expr::if_then_else(lit(c), col(1), lit(1i64).div(lit(0i64)));
        let q = table("r").project(vec![(pick(true), "b")]).select(col(0).eq(lit(20i64)));
        assert_eq!(eval_det(&db, &q).unwrap().multiplicity(&it(&[20])), 4);
        let q = table("r").project(vec![(pick(false), "b")]);
        assert_eq!(eval_det(&db, &q).unwrap_err(), EvalError::DivisionByZero);
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
