//! Differential property suite for the compiled expression backend
//! (`audb_core::Program`): random `Expr` trees over mixed `Int`/`Float`
//! columns must evaluate **identically** to the tree-walking
//! interpreters — same values, same `EvalError` classification — at
//! every level the programs are wired in:
//!
//! * direct row evaluation (`eval_range` / `eval`) and the op-at-a-time
//!   lane entry point, position for position (every row's value or
//!   error is that row's own);
//! * the AU fused chains on the lanes vs the operator-at-a-time oracle
//!   (`AuConfig::oracle`): the oracle's relation, failure exactly when
//!   the oracle fails, and one outcome — error included — across
//!   workers {1, 2, 4, 7} × shards {1, 3, 8};
//! * the deterministic engine's fused chains vs its operator-at-a-time
//!   oracle, and the rewrite middleware's round trip vs native AU
//!   evaluation.

mod common;

use proptest::prelude::*;

use audb::core::program::Program;
use audb::core::{LaneBatch, LaneSlice, ValueLane};
use audb::prelude::*;
use audb::query::table;
use common::{assert_lanes_match_oracle, cfg_oracle};

/// Worker counts of the det engine.
const WORKERS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// Mixed-representation numeric values: `Int` and quarter-step `Float`,
/// overlapping so cross-type numeric ties (the sg-widening cases) are
/// common.
fn mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..6).prop_map(Value::Int),
        (-20i64..21).prop_map(|q| Value::float(q as f64 / 4.0)),
    ]
}

/// Any three mixed values, sorted, make a valid range (sg = median).
fn mixed_range() -> impl Strategy<Value = RangeValue> {
    (mixed_value(), mixed_value(), mixed_value()).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort();
        let [lb, sg, ub] = v;
        RangeValue::new(lb, sg, ub).expect("sorted triple is a valid range")
    })
}

fn annot_strategy() -> impl Strategy<Value = AuAnnot> {
    (0u64..2, 0u64..3, 0u64..3).prop_map(|(a, b, c)| AuAnnot::triple(a, a + b, a + b + c))
}

/// A two-column AU relation over mixed Int/Float ranges.
fn au_relation_strategy(max_rows: usize) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec((mixed_range(), mixed_range(), annot_strategy()), 0..max_rows)
        .prop_map(|rows| {
            AuRelation::from_rows(
                Schema::named(&["A", "B"]),
                rows.into_iter().map(|(a, b, k)| (RangeTuple::new(vec![a, b]), k)).collect(),
            )
        })
}

/// Random numeric expression trees over columns 0..2: arithmetic
/// (including `Div`, whose spans-zero guard exercises the error paths),
/// `If` over comparisons, and the `MakeUncertain` lens.
fn num_expr_strategy() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0usize..2).prop_map(col),
        (-5i64..6).prop_map(lit),
        (-12i64..13).prop_map(|q| lit(q as f64 / 4.0)),
    ]
    .boxed();
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

/// Random predicates: every comparison operator over random numeric
/// subtrees, composed with `And`/`Or`/`Not`.
fn pred_strategy() -> BoxedStrategy<Expr> {
    let e = num_expr_strategy();
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

// ---------------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Direct evaluation: the compiled range and det programs agree
    /// with the interpreters on every row — `Ok` values and `Err`
    /// classifications alike — and the lane entry point returns, at
    /// every row position, that row's value or that row's error (so the
    /// earliest poisoned row carries what row-at-a-time evaluation
    /// surfaces first).
    #[test]
    fn compiled_matches_interpreter_rowwise_and_batched(
        e in num_expr_strategy(),
        rows in proptest::collection::vec((mixed_range(), mixed_range()), 1..6),
    ) {
        let tuples: Vec<Vec<RangeValue>> =
            rows.into_iter().map(|(a, b)| vec![a, b]).collect();
        let prog = Program::compile_range(&e);
        let mut regs = Vec::new();
        for t in &tuples {
            let interp = e.eval_range(t);
            let compiled = prog.eval_range(t, &mut regs);
            prop_assert_eq!(&compiled, &interp, "row mismatch for {} on {:?}", &e, t);
        }

        // lanes = row-at-a-time, position for position
        let lanes: Vec<ValueLane> =
            (0..2).map(|c| ValueLane::from_cells(tuples.iter().map(|t| &t[c]))).collect();
        let slices: Vec<LaneSlice<'_>> = lanes.iter().map(ValueLane::as_slice).collect();
        let mut batch = LaneBatch::default();
        prog.eval_range_lanes(&slices, tuples.len(), &mut batch, None).unwrap();
        prog.prepare_range_regs(&mut regs);
        for (i, t) in tuples.iter().enumerate() {
            let lane = match batch.row_error(i) {
                Some(err) => Err(err.clone()),
                None => Ok(batch.output_lane(&prog, 0, &slices).get(i)),
            };
            let scalar = prog.eval_range_into(t, &mut regs).map(|()| prog.range_output(0, t, &regs));
            prop_assert_eq!(&lane, &scalar.cloned(), "lanes vs scalar for {} at row {}", &e, i);
            prop_assert_eq!(&lane, &e.eval_range(t), "lanes vs interpreter for {} at row {}", &e, i);
        }

        // deterministic lowering agrees on the sg world
        let dprog = Program::compile_det(&e);
        let mut dregs = Vec::new();
        for t in &tuples {
            let sg: Vec<Value> = t.iter().map(|r| r.sg.clone()).collect();
            let interp = e.eval(&sg);
            let compiled = dprog.eval_det(&sg, &mut dregs);
            prop_assert_eq!(&compiled, &interp, "det mismatch for {} on {:?}", &e, &sg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Fused AU chains: the compiled lane stages produce the oracle's
    /// relation (and fail exactly when it fails), with one outcome for
    /// every workers × shards point, across select-only, project-only,
    /// and mixed chains.
    #[test]
    fn au_chains_compiled_identical_to_interpreted(
        rel in au_relation_strategy(14),
        pred in pred_strategy(),
        proj in num_expr_strategy(),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t", rel);
        let queries = [
            table("t").select(pred.clone()),
            table("t").project(vec![(proj.clone(), "p"), (col(0), "a")]),
            table("t")
                .select(pred.clone())
                .project(vec![(proj.clone(), "p"), (col(1), "b")])
                .select(col(0).leq(lit(100i64))),
        ];
        for q in &queries {
            assert_lanes_match_oracle(&AuConfig::default(), &db, q, "chain");
        }
    }

    /// Probe chains: a fused join's compiled re-check predicate and
    /// post-join compiled stages equal the oracle's join and operators.
    #[test]
    fn au_probe_chains_compiled_identical(
        l in au_relation_strategy(10),
        r in au_relation_strategy(10),
        proj in num_expr_strategy(),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t1", l);
        db.insert("t2", r);
        let q = table("t1")
            .select(col(1).geq(lit(-3i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .select(col(1).leq(col(3)))
            .project(vec![(proj, "p"), (col(2), "c")]);
        assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "probe chain");
    }

    /// The deterministic engine and the rewrite middleware on one
    /// spine: compiled fused chains equal the interpreted oracle for
    /// every worker count, and `Dec(rewr(Q)(Enc(D)))` equals native AU
    /// evaluation (`compiled_matches_interpreter_rowwise_and_batched`
    /// pins det program ≡ `Expr::eval` row by row, values and error
    /// classes).
    #[test]
    fn det_and_rewrite_spine_compiled_identical(
        rel1 in au_relation_strategy(10),
        rel2 in au_relation_strategy(10),
    ) {
        use audb::query::det::{eval_det_exec, eval_det_oracle};

        let q = table("t1")
            .select(col(1).geq(lit(-2i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0), "x"), (col(1).add(col(3)), "y")]);

        // det engine over the SG worlds
        let mut det_db = Database::new();
        det_db.insert("t1", rel1.sg_world());
        det_db.insert("t2", rel2.sg_world());
        let interp = eval_det_oracle(&det_db, &q, &Executor::sequential());
        for w in WORKERS {
            let compiled = eval_det_exec(&det_db, &q, &Executor::new(w));
            prop_assert_eq!(&compiled, &interp, "det, workers = {}", w);
        }

        // rewrite spine over the AU relations
        let mut db = AuDatabase::new();
        db.insert("t1", rel1);
        db.insert("t2", rel2);
        prop_assert_eq!(eval_via_rewrite(&db, &q), eval_au(&db, &q, &cfg_oracle()), "rewrite spine");
    }
}
