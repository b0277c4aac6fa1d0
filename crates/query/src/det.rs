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
//! ([`run_chain`]) over its anchor's output — a base table, a join or a
//! breaker: each source row passes through the stages' [`Expr`]s
//! (`eval_bool` / `eval`, so `And`, `Or` and `If` short-circuit) and
//! only survivors of the whole tower are materialized. Every other node
//! runs operator-at-a-time on the pool: a join as its operator
//! ([`planner::join_det_planned_exec`], one hash index, one comparison
//! sweep or one nested loop, governed per emitted row as `join-probe`),
//! and the breakers ∪, −, δ and γ.

use std::borrow::Cow;
use std::collections::HashMap;

use audb_core::{EvalError, Expr, Semiring, Value};
use audb_exec::Executor;
use audb_storage::{Database, Relation, Schema, Tuple};

use crate::algebra::{check_group_by, AggFunc, AggSpec, Query};
use crate::au::pipeline::{chain_exec, run_governed, Governed};
use crate::planner;

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
    let rel = eval_walk(db, q, exec)?;
    Ok(rel.into_owned().into_normalized_with(exec)?)
}

/// Bag difference (monus): the left side needs normal form (one row per
/// distinct tuple) and gets it from the sort-merge driver; the
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
// Streaming select/project chains
// ---------------------------------------------------------------------------

/// The row a det join or chain appends.
pub(crate) type DetRow = (Tuple, u64);

/// A chain stage, borrowed from the query: a predicate or a projection
/// list.
enum DetPipeOp<'q> {
    Select(&'q Expr),
    Project(&'q [(Expr, String)]),
}

/// Run one source row (`vals`, multiplicity `k`) through `ops`,
/// appending the tower's survivors to `out`. Each projection owns one
/// buffer of `bufs`, reused across the morsel's rows.
fn apply_det(
    ops: &[DetPipeOp<'_>],
    bufs: &mut [Vec<Value>],
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
            apply_det(rest, rest_bufs, vals, k, out)
        }
        DetPipeOp::Project(exprs) => {
            buf.clear();
            for (e, _) in exprs.iter() {
                buf.push(e.eval(vals)?);
            }
            apply_det(rest, rest_bufs, buf, k, out)
        }
    }
}

/// Run the select/project tower rooted at `q` as one chain over its
/// anchor, the first node below it that is neither a selection nor a
/// projection — a base table, a join or a breaker, which the walk
/// evaluates. The chain runs morsel by morsel and reproduces the row
/// list of its operators exactly (selection preserving normal form);
/// row order is the sequential chain-emission order for any worker
/// count.
fn run_chain<'a>(
    db: &'a Database,
    q: &Query,
    exec: &Executor,
) -> Result<Cow<'a, Relation>, EvalError> {
    // collected top-down
    let (mut ops, mut names) = (Vec::new(), None);
    let mut node = q;
    let anchor = loop {
        node = match node {
            Query::Select { input, predicate } => {
                ops.push(DetPipeOp::Select(predicate));
                input
            }
            Query::Project { input, exprs } => {
                names.get_or_insert_with(|| exprs.iter().map(|(_, n)| n.clone()).collect());
                ops.push(DetPipeOp::Project(exprs));
                input
            }
            _ => break node,
        };
    };
    ops.reverse();
    let source = eval_walk(db, anchor, exec)?;
    let schema = names.map_or_else(|| source.schema.clone(), Schema::new);
    let scratch = || vec![Vec::new(); ops.len()];
    let rows = run_governed(
        &chain_exec(exec),
        "pipeline-chain",
        source.len(),
        scratch,
        |bufs, i, out| {
            let (t, k) = &source.rows()[i];
            apply_det(&ops, bufs, t.values(), *k, out)
        },
    )?;
    if source.is_normalized() && ops.iter().all(|op| matches!(op, DetPipeOp::Select(_))) {
        return Ok(Cow::Owned(Relation::from_normalized_rows(schema, rows)));
    }
    let mut out = Relation::empty(schema);
    out.append_rows(rows);
    Ok(Cow::Owned(out))
}

/// The one tree walk: a select/project tower runs as a chain
/// ([`run_chain`]); every other node runs its operator. Base tables are
/// borrowed from the database, only operator outputs are owned, and
/// normal form is produced only where an operator requires it
/// (difference's and distinct's left-side merges, on the sort-merge
/// driver).
fn eval_walk<'a>(
    db: &'a Database,
    q: &Query,
    exec: &Executor,
) -> Result<Cow<'a, Relation>, EvalError> {
    let input = |q: &Query| eval_walk(db, q, exec);
    Ok(Cow::Owned(match q {
        Query::Table(name) => return Ok(Cow::Borrowed(db.get(name)?)),
        Query::Select { .. } | Query::Project { .. } => return run_chain(db, q, exec),
        Query::Join { left, right, predicate } => {
            let (l, r) = (input(left)?, input(right)?);
            planner::join_det_planned_exec(&l, &r, predicate.as_ref(), exec)?
        }
        Query::Union { left, right } => {
            let (l, r) = (input(left)?, input(right)?);
            l.schema.check_union_compatible(&r.schema)?;
            let mut out = l.into_owned();
            out.extend_from(&r);
            out
        }
        Query::Difference { left, right } => {
            let (l, r) = (input(left)?, input(right)?);
            difference_det(l, &r, exec)?
        }
        Query::Distinct { input: of } => distinct_det(input(of)?, exec)?,
        Query::Aggregate { input: of, group_by, aggs } => {
            let rel = input(of)?;
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
