//! Shared by the differential suites: the two ways the AU engine runs a
//! query, and the one way they are compared.

#![allow(dead_code)] // every suite uses its own subset

use audb::core::{col, lit, Expr};
use audb::incomplete::relation_bounds_world;
use audb::prelude::*;
use proptest::prelude::*;

/// Worker counts the suites pin down; 7 exceeds most CI machines.
pub const WORKERS: [usize; 4] = [1, 2, 4, 7];

/// The finest split: every driver — operator loops, breaker
/// normalizations, fused chains — cuts its input into morsels of one
/// row, so tiny proptest inputs really run multi-worker and
/// multi-morsel instead of degrading to the inline path.
pub const FINEST: Partitioner =
    Partitioner { min_morsel: 1, morsels_per_worker: 1 << 16, min_rows_per_worker: 0 };

/// The two splits of the differential matrix: the one production runs,
/// and [`FINEST`].
pub fn splits() -> [Partitioner; 2] {
    [Partitioner::default(), FINEST]
}

/// The production path — fused chains on the lanes — at a forced worker
/// count, for the entry points that derive their own executor.
pub fn cfg_lanes(workers: usize) -> AuConfig {
    AuConfig::default().with_workers(workers)
}

/// The production path under `base`'s knobs at a forced worker count
/// and split.
pub fn lanes_exec(base: &AuConfig, workers: usize, split: Partitioner) -> Executor {
    base.with_workers(workers).executor().with_partitioner(split)
}

/// One attempt of `q` on the lanes — plan, then run the plan the way a
/// kept one is run — **never degrading**: a lane fault surfaces as the
/// structured error instead of being answered by the oracle, which would
/// compare the oracle with itself.
pub fn eval_lanes(
    db: &AuDatabase,
    q: &Query,
    base: &AuConfig,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    plan_and_run(db, q, base, exec, &TraceBuilder::disabled())
}

/// [`eval_lanes`] with its trace: the `attempt` span tree, and the
/// executor's meters when `exec` carries enabled ones.
pub fn eval_lanes_traced(
    db: &AuDatabase,
    q: &Query,
    base: &AuConfig,
    exec: &Executor,
) -> (Result<AuRelation, EvalError>, TraceSpan) {
    let tr = TraceBuilder::enabled();
    let out = plan_and_run(db, q, base, exec, &tr);
    (out, tr.finish().expect("an enabled builder has a root span"))
}

/// The plan is laid out untraced, so `tr` holds the run alone: one
/// `attempt` root (and no span details — a plan keeps those only when
/// its planning call was traced).
fn plan_and_run(
    db: &AuDatabase,
    q: &Query,
    base: &AuConfig,
    exec: &Executor,
    tr: &TraceBuilder,
) -> Result<AuRelation, EvalError> {
    AuPlan::new(q, base, exec.metrics(), &TraceBuilder::disabled()).run(db, exec, tr)
}

/// The one differential oracle: `q` under `base`'s result knobs on the
/// oracle plan — sequential operator-at-a-time evaluation over the
/// interpreted `Expr` trees — planned and run the way [`eval_lanes`]
/// plans and runs, at one worker.
pub fn eval_oracle(db: &AuDatabase, q: &Query, base: &AuConfig) -> Result<AuRelation, EvalError> {
    oracle_plan_and_run(db, q, base, &TraceBuilder::disabled())
}

/// [`eval_oracle`] with its trace: the `attempt` span tree.
pub fn eval_oracle_traced(
    db: &AuDatabase,
    q: &Query,
    base: &AuConfig,
) -> (Result<AuRelation, EvalError>, TraceSpan) {
    let tr = TraceBuilder::enabled();
    let out = oracle_plan_and_run(db, q, base, &tr);
    (out, tr.finish().expect("an enabled builder has a root span"))
}

fn oracle_plan_and_run(
    db: &AuDatabase,
    q: &Query,
    base: &AuConfig,
    tr: &TraceBuilder,
) -> Result<AuRelation, EvalError> {
    let cfg = base.with_workers(1);
    AuPlan::oracle(q, &cfg, &TraceBuilder::disabled()).run(db, &cfg.executor(), tr)
}

/// The base configurations of the differential matrix: precise, the
/// paper's adaptive `compressed(ct)` (tiny inputs: every verdict says
/// no), forced compression of joins and aggregates (`ct = 2`: real
/// buckets on any input of three rows), and each knob alone.
pub fn base_configs() -> [(&'static str, AuConfig); 5] {
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
    [
        ("default", AuConfig::default()),
        ("compressed(2)", AuConfig::compressed(2)),
        ("forced compressed(2)", forced),
        ("join-only", AuConfig { agg_compress: None, ..forced }),
        ("agg-only", AuConfig { join_compress: None, ..forced }),
    ]
}

/// Under `base`, the lanes return **exactly** the same outcome —
/// relation or error, the error being the one the chain's enumeration
/// order meets first — for every workers × splits shape, and agree with
/// the oracle on the relation (the oracle meets errors in its own
/// operator order, so there only success/failure is compared).
pub fn assert_lanes_match_oracle(base: &AuConfig, db: &AuDatabase, q: &Query, ctx: &str) {
    let reference = eval_lanes(db, q, base, &lanes_exec(base, 1, Partitioner::default()));
    match (&reference, eval_oracle(db, q, base)) {
        (Ok(r), Ok(o)) => assert_eq!(*r, o, "lanes vs oracle: {ctx}, base = {base:?}, q = {q}"),
        (Err(_), Err(_)) => {}
        (r, o) => panic!("lanes {r:?} vs oracle {o:?}: {ctx}, base = {base:?}, q = {q}"),
    }
    for w in WORKERS {
        for split in splits() {
            let got = eval_lanes(db, q, base, &lanes_exec(base, w, split));
            assert_eq!(
                got, reference,
                "lanes: {ctx}, base = {base:?}, workers = {w}, {split:?}, q = {q}"
            );
        }
    }
}

/// [`assert_lanes_match_oracle`] under every [`base_configs`] entry.
pub fn assert_lanes_match_oracle_all(db: &AuDatabase, q: &Query, ctx: &str) {
    for (name, base) in base_configs() {
        assert_lanes_match_oracle(&base, db, q, &format!("{ctx}, {name}"));
    }
}

/// World enumeration: the AU result of `q` under `cfg` over `db`'s
/// translation — on the lanes ([`eval_au`]) and on the oracle
/// ([`eval_oracle`]) — bounds `q`'s result in every possible world of
/// `db` (Definition 17 condition (5), decided by the max-flow tuple
/// matcher) and encodes the SG world's result exactly (condition (6)).
/// Databases with more than 512 worlds are skipped.
pub fn check_bounds(db: &XDb, q: &Query, cfg: &AuConfig) -> Result<(), TestCaseError> {
    let Some(inc) = db.to_incomplete(512) else {
        return Ok(()); // too many worlds; skip
    };
    let au_in = db.to_au();
    let exact = inc.eval(q).expect("possible-worlds evaluation");
    for eval in [eval_au, eval_oracle] {
        let out = eval(&au_in, q, cfg).expect("AU evaluation");
        for (i, w) in exact.worlds.iter().enumerate() {
            prop_assert!(
                relation_bounds_world(&out, w),
                "world {i} not bounded:\nworld: {w}\nAU result: {out}"
            );
        }
        prop_assert_eq!(
            out.sg_world().normalized(),
            exact.sg_world().normalized(),
            "SGW not preserved"
        );
    }
    Ok(())
}

/// An x-tuple of equally likely alternatives with total probability
/// `total` (`< 1`: optional), the first one a hair likelier so that the
/// selected guess is unambiguous.
pub fn weighted_xtuple(alts: Vec<Tuple>, total: f64) -> XTuple {
    let p = total / alts.len() as f64;
    let mut weighted: Vec<(Tuple, f64)> = alts.into_iter().map(|t| (t, p)).collect();
    weighted[0].1 += 1e-9;
    let norm: f64 = weighted.iter().map(|(_, q)| q).sum::<f64>() / total;
    weighted.iter_mut().for_each(|w| w.1 /= norm);
    XTuple::new(weighted)
}

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// Force real partitioning of the operator drivers even on tiny inputs:
/// without this the default 128-row morsel floor would keep small
/// proptest cases on the inline path and test nothing.
pub fn exec(workers: usize) -> Executor {
    Executor::new(workers).with_partitioner(Partitioner {
        min_morsel: 1,
        morsels_per_worker: 3,
        min_rows_per_worker: 0,
    })
}

pub fn annot_strategy() -> impl Strategy<Value = AuAnnot> {
    (0u64..2, 0u64..3, 0u64..3).prop_map(|(a, b, c)| AuAnnot::triple(a, a + b, a + b + c))
}

/// Small `Int` cells: certain, proper ranges, and domain-wide unknowns.
pub fn range_value_strategy() -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        (-4i64..5).prop_map(|v| RangeValue::certain(Value::Int(v))),
        (-4i64..5, 0i64..3, 0i64..3).prop_map(|(a, d1, d2)| RangeValue::range(a - d1, a, a + d2)),
        (-4i64..5).prop_map(|v| RangeValue::unknown(Value::Int(v))),
    ]
}

/// An arity-2 AU-relation of `cells` with fewer than `max_rows` rows.
pub fn relation_strategy<S: Strategy<Value = RangeValue>>(
    cells: fn() -> S,
    names: [&'static str; 2],
    max_rows: usize,
) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec((cells(), cells(), annot_strategy()), 0..max_rows).prop_map(
        move |rows| {
            AuRelation::from_rows(
                Schema::named(&names),
                rows.into_iter().map(|(a, b, k)| (RangeTuple::new(vec![a, b]), k)).collect(),
            )
        },
    )
}

/// [`relation_strategy`] over [`range_value_strategy`] cells.
pub fn au_relation_strategy(
    name0: &'static str,
    name1: &'static str,
    max_rows: usize,
) -> impl Strategy<Value = AuRelation> {
    relation_strategy(range_value_strategy, [name0, name1], max_rows)
}

/// Mixed-representation numeric values: `Int` and quarter-step `Float`,
/// overlapping so cross-type numeric ties (the sg-widening cases) are
/// common.
pub fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..6).prop_map(Value::Int),
        (-20i64..21).prop_map(|q| Value::float(q as f64 / 4.0)),
    ]
}

/// Any three mixed values, sorted, make a valid range (sg = median).
pub fn mixed_range() -> impl Strategy<Value = RangeValue> {
    (mixed_value(), mixed_value(), mixed_value()).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort();
        let [lb, sg, ub] = v;
        RangeValue::new(lb, sg, ub).expect("sorted triple is a valid range")
    })
}

/// A two-column `(A, B)` AU relation over mixed Int/Float ranges.
pub fn mixed_relation_strategy(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    relation_strategy(mixed_range, ["A", "B"], max_rows)
}

/// Random numeric expression trees over columns 0..2 with Int/Float
/// literals: arithmetic (including `Div`, whose spans-zero guard
/// exercises the error paths), `If` over comparisons, and the
/// `MakeUncertain` lens.
pub fn num_expr_strategy() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0usize..2).prop_map(col),
        (-5i64..6).prop_map(lit),
        (-12i64..13).prop_map(|q| lit(q as f64 / 4.0)),
    ]
    .boxed();
    recurse_numeric(leaf)
}

pub fn recurse_numeric(leaf: BoxedStrategy<Expr>) -> BoxedStrategy<Expr> {
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.div(b)),
            inner.clone().prop_map(Expr::neg),
            (inner.clone(), inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(a, b, t, e)| Expr::if_then_else(a.leq(b), t, e)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(l, s, u)| Expr::make_uncertain(l, s, u)),
        ]
    })
}

/// Random predicates: every comparison operator over numeric subtrees
/// drawn from `e`, composed with `And`/`Or`/`Not`.
pub fn pred_over(e: BoxedStrategy<Expr>) -> BoxedStrategy<Expr> {
    let cmp = prop_oneof![
        (e.clone(), e.clone()).prop_map(|(a, b)| a.leq(b)),
        (e.clone(), e.clone()).prop_map(|(a, b)| a.lt(b)),
        (e.clone(), e.clone()).prop_map(|(a, b)| a.geq(b)),
        (e.clone(), e.clone()).prop_map(|(a, b)| a.gt(b)),
        (e.clone(), e.clone()).prop_map(|(a, b)| a.eq(b)),
        (e.clone(), e.clone()).prop_map(|(a, b)| a.neq(b)),
    ]
    .boxed();
    cmp.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Expr::not),
        ]
    })
}
