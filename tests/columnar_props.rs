//! Differential properties of columnar execution: for every query in
//! the corpus, evaluation on the lanes (typed vector kernels over
//! column lanes, the default) must be **byte-identical** at every
//! worker × split combination — same rows, same order, same
//! annotations, and for a query that fails the identical error (the
//! earliest poisoned row's) — and must return the oracle's relation
//! (operator-at-a-time interpretation, `AuPlan::oracle`), failing
//! exactly when the oracle fails.
//!
//! Corpus: fig13/fig14/fig16-shaped query spines over proptest-generated
//! mixed-type relations (strings and floats force the boxed lane,
//! sentinels force `Null`-carrying cells), the paper's microbenchmark
//! join tables at 10k rows, and the TPC-H workload with PDBench-style
//! injected uncertainty.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use proptest::prelude::*;

use audb::core::col;
use audb::prelude::*;
use audb::query::table;
use audb::workloads::{
    gen_tpch, inject_uncertainty, micro_join_db, tpch_queries, MicroConfig, TpchConfig,
};
use common::{assert_lanes_match_oracle, relation_strategy};

/// Columnar evaluation is the default: the oracle is a plan of its own
/// (`AuPlan::oracle`), not a setting of any configuration.
#[test]
fn columnar_is_the_default() {
    let (db, _) = micro_join_db(&MicroConfig::new(20, 3));
    let q = table("t1").select(col(0).geq(lit(0i64)));
    let (_, trace) = eval_au_traced(&db, &q, &AuConfig::default()).unwrap();
    assert_eq!(trace.root.find("attempt").and_then(|a| a.attr("mode")), Some("lanes"));
}

// ---------------------------------------------------------------------------
// fig-shaped query corpus over mixed-type relations (proptest)
// ---------------------------------------------------------------------------

/// Values spanning every lane class: homogeneous Int cells (typed
/// lane), floats (typed Float lane / mixed Int⊗Float boxing), strings
/// and `unknown` sentinels (boxed lane with `Null`/`MinVal`/`MaxVal`
/// components).
fn mixed_value_strategy() -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        (-4i64..5).prop_map(|v| RangeValue::certain(Value::Int(v))),
        (-4i64..5, 0i64..3, 0i64..3).prop_map(|(a, d1, d2)| RangeValue::range(a - d1, a, a + d2)),
        (-8i64..9).prop_map(|v| RangeValue::certain(Value::float(v as f64 * 0.5))),
        (0i64..3).prop_map(|v| RangeValue::certain(Value::str(format!("s{v}")))),
        (-4i64..5).prop_map(|v| RangeValue::unknown(Value::Int(v))),
    ]
}

/// Homogeneous-Int values: both columns classify as typed lanes, so the
/// vector kernels (not the boxed fallback) carry the whole query.
fn int_value_strategy() -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        (-4i64..5).prop_map(|v| RangeValue::certain(Value::Int(v))),
        (-4i64..5, 0i64..3, 0i64..3).prop_map(|(a, d1, d2)| RangeValue::range(a - d1, a, a + d2)),
    ]
}

/// The fig13/fig14/fig16 query shapes: batchable select/project chains
/// (the columnar kernels' home turf), probe chains with every planner
/// strategy (columnar interval indexes), and breakers around fused
/// chains.
fn fig_queries() -> Vec<Query> {
    let spine = table("t1")
        .select(col(1).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(2)))
        .project(vec![(col(0).add(col(3)), "x"), (col(1), "y")]);
    vec![
        spine,
        // batchable chain: arithmetic + comparison kernels end to end
        table("t1")
            .project(vec![(col(0), "a"), (col(1).mul(lit(2i64)), "b")])
            .select(col(1).gt(lit(-2i64)))
            .project(vec![(col(0).add(col(1)), "s")]),
        // select-only chain (normal-form-preserving delivery)
        table("t1").select(col(0).leq(col(1)).and(col(1).neq(lit(3i64)))),
        // comparison-predicate and cross joins under a projection
        table("t1")
            .join_on(table("t2"), col(0).leq(col(2)))
            .project(vec![(col(1), "a"), (col(3), "b")]),
        table("t1").cross(table("t2")).select(col(0).neq(col(3))),
        // fig13-shaped aggregate over a fused chain
        table("t1")
            .select(col(0).leq(lit(3i64)))
            .project(vec![(col(0), "g"), (col(1).add(col(0)), "v")])
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::count("c")]),
        // set operators with fused chains on both sides
        table("t1")
            .select(col(0).gt(lit(0i64)))
            .union(table("t1").project(vec![(col(0), "A"), (col(1), "B")])),
        table("t1").difference(table("t2").project(vec![(col(0), "A"), (col(1), "B")])),
        table("t1").project(vec![(col(0), "a")]).distinct(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Mixed-type columns: strings, floats, and sentinels force the
    /// boxed lane (and mixed Int⊗Float comparisons inside kernels), and
    /// arithmetic over non-numeric cells poisons rows — results must
    /// match the oracle, errors every other split shape.
    #[test]
    fn columnar_identical_on_mixed_type_corpus(
        t1 in relation_strategy(mixed_value_strategy, ["A", "B"], 14),
        t2 in relation_strategy(mixed_value_strategy, ["C", "D"], 14),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t1", t1);
        db.insert("t2", t2);
        for q in fig_queries() {
            assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "mixed");
        }
    }

    /// Homogeneous Int columns: the typed kernels carry every op.
    #[test]
    fn columnar_identical_on_int_corpus(
        t1 in relation_strategy(int_value_strategy, ["A", "B"], 14),
        t2 in relation_strategy(int_value_strategy, ["C", "D"], 14),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t1", t1);
        db.insert("t2", t2);
        for q in fig_queries() {
            assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "int");
        }
    }

    /// Kernel demotion boundary: values near `i64::MAX` overflow the
    /// checked Int kernels (which must demote the op and float-promote
    /// exactly like the scalar combinators), and division columns
    /// spanning zero poison rows — the reported error must be the same
    /// at every split shape.
    #[test]
    fn columnar_identical_at_demotion_and_poison_boundaries(
        rows in proptest::collection::vec((-3i64..4, 0u8..4), 1..12),
    ) {
        let t1 = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            rows.iter()
                .map(|(v, kind)| {
                    let a = match kind {
                        0 => RangeValue::certain(Value::Int(i64::MAX - 1)),
                        1 => RangeValue::range(i64::MIN, i64::MIN + 1, 0),
                        2 => RangeValue::range(*v - 1, *v, *v + 1),
                        _ => RangeValue::certain(Value::Int(*v)),
                    };
                    (RangeTuple::new(vec![a, RangeValue::certain(Value::Int(*v))]), AuAnnot::certain_one())
                })
                .collect(),
        );
        let mut db = AuDatabase::new();
        db.insert("t1", t1.clone());
        db.insert("t2", t1);
        // overflow-demoting arithmetic; division whose divisor may span
        // or hit zero (poisoned rows)
        for q in [
            table("t1").project(vec![(col(0).add(lit(2i64)), "x"), (col(0).mul(col(1)), "y")]),
            table("t1").project(vec![(col(1).div(col(0)), "q")]),
            table("t1").select(col(0).sub(lit(1i64)).leq(col(1))),
        ] {
            assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "boundary");
        }
    }
}

// ---------------------------------------------------------------------------
// the paper's workloads at scale: microbenchmark tables and TPC-H
// ---------------------------------------------------------------------------

/// fig14/fig16-shaped join tables at 10k rows: the microbenchmark
/// generator's homogeneous-Int spine with 3% attribute uncertainty.
#[test]
fn columnar_identical_on_micro_join_corpus() {
    let (db, _) =
        micro_join_db(&MicroConfig::new(10_000, 3).uncertainty(0.03).range_frac(0.02).seed(71));
    let queries = [
        // batchable arithmetic chain over t1 (pure kernel path)
        table("t1")
            .select(col(1).lt(lit(800i64)))
            .project(vec![(col(0), "k"), (col(1).add(col(2)), "s"), (col(2).mul(lit(3i64)), "m")])
            .select(col(1).geq(lit(0i64))),
        // selective spine through an equi-join probe
        table("t1")
            .select(col(1).lt(lit(100i64)))
            .join_on(table("t2"), col(0).eq(col(3)))
            .project(vec![(col(0), "k"), (col(1).add(col(4)), "v")]),
    ];
    for q in &queries {
        assert_lanes_match_oracle(&AuConfig::default(), &db, q, "micro");
    }
}

/// TPC-H with PDBench-style injected uncertainty: the realistic-schema
/// end of the corpus (strings, floats, and Int keys in one database).
#[test]
fn columnar_identical_on_tpch_corpus() {
    let det = gen_tpch(TpchConfig::new(0.1, 21));
    let xdb = inject_uncertainty(&det, 0.02, 6, 22);
    let db = xdb.to_au();
    for (name, q) in tpch_queries().into_iter().take(2) {
        assert_lanes_match_oracle(&AuConfig::default(), &db, &q, name);
    }
}
