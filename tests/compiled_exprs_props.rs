//! Differential property suite for the compiled expression backend
//! (`audb_core::Program`): random `Expr` trees over mixed `Int`/`Float`
//! columns must evaluate **identically** to the tree-walking
//! interpreter — same values, same `EvalError` classification — at
//! every level the programs are wired in:
//!
//! * direct row evaluation (`eval_range`) and the op-at-a-time
//!   lane entry point, position for position (every row's value or
//!   error is that row's own);
//! * the AU fused chains on the lanes vs the operator-at-a-time oracle
//!   (`AuPlan::oracle`): the oracle's relation, failure exactly when
//!   the oracle fails, and one outcome — error included — across
//!   workers {1, 2, 4, 7} × {default split, finest split};
//! * the deterministic engine's chains for every worker count, and the
//!   rewrite middleware's round trip vs native AU evaluation.

mod common;

use proptest::prelude::*;

use audb::core::program::Program;
use audb::core::{LaneBatch, LaneSlice, ValueLane};
use audb::prelude::*;
use audb::query::table;
use common::{
    assert_lanes_match_oracle, eval_oracle, mixed_range, mixed_relation_strategy,
    num_expr_strategy, pred_over,
};

/// Worker counts of the det engine.
const WORKERS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Direct evaluation: the compiled program agrees with the
    /// interpreter on every row — `Ok` values and `Err`
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Fused AU chains: the compiled lane stages produce the oracle's
    /// relation (and fail exactly when it fails), with one outcome for
    /// every workers × splits point, across select-only, project-only,
    /// and mixed chains.
    #[test]
    fn au_chains_compiled_identical_to_interpreted(
        rel in mixed_relation_strategy(14),
        pred in pred_over(num_expr_strategy()),
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
        l in mixed_relation_strategy(10),
        r in mixed_relation_strategy(10),
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
    /// spine: the det chains return one outcome — error included — for
    /// every worker count at the finest split, and `Dec(rewr(Q)(Enc(D)))`
    /// equals native AU evaluation.
    #[test]
    fn det_and_rewrite_spine_compiled_identical(
        rel1 in mixed_relation_strategy(10),
        rel2 in mixed_relation_strategy(10),
    ) {
        use audb::query::det::eval_det_exec;

        let q = table("t1")
            .select(col(1).geq(lit(-2i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0), "x"), (col(1).add(col(3)), "y")]);

        // det engine over the SG worlds
        let mut det_db = Database::new();
        det_db.insert("t1", rel1.sg_world());
        det_db.insert("t2", rel2.sg_world());
        let sequential = eval_det_exec(&det_db, &q, &Executor::sequential());
        for w in WORKERS {
            let exec = Executor::new(w).with_partitioner(common::FINEST);
            let got = eval_det_exec(&det_db, &q, &exec);
            prop_assert_eq!(&got, &sequential, "det, workers = {}", w);
        }

        // rewrite spine over the AU relations
        let mut db = AuDatabase::new();
        db.insert("t1", rel1);
        db.insert("t2", rel2);
        prop_assert_eq!(eval_via_rewrite(&db, &q), eval_oracle(&db, &q, &AuConfig::default()), "rewrite spine");
    }
}
