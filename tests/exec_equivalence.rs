//! Determinism of the partition-parallel execution runtime: for every
//! driver wired through `audb_exec` — the planner's join paths,
//! aggregation, and set difference — the output must be *identical*
//! (same row list, not just equal after normalization) for every worker
//! count, including pools far wider than the machine, and for
//! adversarial partition shapes (empty inputs, single rows, one giant
//! all-same-key bucket). The aggregation kernel is additionally checked
//! against the literal Definition 26 oracle (`aggregate_au_scan`).

mod common;

use proptest::prelude::*;

use audb::core::{col, lit, Expr};
use audb::prelude::*;
use audb::query::au::aggregate::{aggregate_au_exec, aggregate_au_scan};
use audb::query::au::difference::{difference_au_exec, difference_au_scan};
use audb::query::au::{project_au_exec, select_au_exec};
use audb::query::det::{eval_det, eval_det_exec};
use audb::query::planner::{join_au_planned_exec, join_det_planned_exec};
use audb::query::rewrite::{dec_relation, enc_relation};
use common::{
    assert_lanes_match_oracle, assert_lanes_match_oracle_all, au_relation_strategy, cfg_lanes,
    eval_lanes, eval_oracle, exec, lanes_exec, splits, WORKERS,
};

fn join_predicate_strategy() -> impl Strategy<Value = Option<Expr>> {
    prop_oneof![
        Just(Some(col(0).eq(col(2)))),
        Just(Some(col(0).eq(col(2)).and(col(1).eq(col(3))))),
        Just(Some(col(0).leq(col(2)))),
        Just(Some(col(3).gt(col(1)))),
        Just(None),
    ]
}

// ---------------------------------------------------------------------------
// property tests: parallel output is byte-identical to sequential
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn join_identical_across_worker_counts(
        l in au_relation_strategy("A", "B", 12),
        r in au_relation_strategy("C", "D", 12),
        pred in join_predicate_strategy(),
    ) {
        let seq = join_au_planned_exec(&l, &r, pred.as_ref(), &exec(1)).unwrap();
        for w in WORKERS {
            let par = join_au_planned_exec(&l, &r, pred.as_ref(), &exec(w)).unwrap();
            prop_assert_eq!(&par, &seq, "workers = {}", w);
        }
    }

    #[test]
    fn aggregate_identical_across_worker_counts_and_vs_scan(
        rel in au_relation_strategy("g", "v", 16),
        compress in prop_oneof![Just(None), Just(Some(2usize))],
    ) {
        let aggs = [
            AggSpec::new(AggFunc::Sum, col(1), "s"),
            AggSpec::count("c"),
            AggSpec::new(AggFunc::Min, col(1), "lo"),
            AggSpec::new(AggFunc::Max, col(1), "hi"),
            AggSpec::new(AggFunc::Avg, col(1), "a"),
        ];
        for group_by in [vec![0usize], vec![0, 1], vec![]] {
            let seq = aggregate_au_exec(&rel, &group_by, &aggs, compress, &exec(1)).unwrap();
            // the row-once kernel equals the literal oracle
            let scan = aggregate_au_scan(&rel, &group_by, &aggs, compress).unwrap();
            prop_assert_eq!(&scan, &seq, "oracle vs kernel, group_by = {:?}", &group_by);
            for w in WORKERS {
                let par = aggregate_au_exec(&rel, &group_by, &aggs, compress, &exec(w)).unwrap();
                prop_assert_eq!(&par, &seq, "workers = {}, group_by = {:?}", w, &group_by);
            }
        }
    }

    #[test]
    fn select_identical_across_worker_counts(
        rel in au_relation_strategy("A", "B", 16),
    ) {
        for pred in [
            col(0).eq(lit(1i64)),
            col(0).leq(col(1)),
            col(1).gt(lit(0i64)).and(col(0).neq(lit(2i64))),
        ] {
            let seq = select_au_exec(&rel, &pred, &exec(1)).unwrap();
            // selection preserves normal form — no hash-merge downstream
            prop_assert!(seq.is_normalized(), "select lost the normalized flag");
            for w in WORKERS {
                let par = select_au_exec(&rel, &pred, &exec(w)).unwrap();
                prop_assert!(par.is_normalized());
                prop_assert_eq!(&par, &seq, "workers = {}, pred = {}", w, &pred);
            }
        }
    }

    #[test]
    fn project_identical_across_worker_counts(
        rel in au_relation_strategy("A", "B", 16),
    ) {
        for exprs in [
            vec![(col(0), "a".to_string())],
            vec![(col(0).add(col(1)), "s".to_string()), (lit(1i64), "one".to_string())],
            vec![(col(1), "b".to_string()), (col(0), "a".to_string())],
        ] {
            let seq = project_au_exec(&rel, &exprs, &exec(1)).unwrap();
            for w in WORKERS {
                let par = project_au_exec(&rel, &exprs, &exec(w)).unwrap();
                prop_assert_eq!(&par, &seq, "workers = {}", w);
            }
        }
    }

    #[test]
    fn enc_dec_round_trip(
        rel in au_relation_strategy("A", "B", 16),
    ) {
        let dec = dec_relation(&enc_relation(&rel), &rel.schema).unwrap();
        prop_assert_eq!(&dec, &rel, "Enc/Dec round trip");
    }

    #[test]
    fn normalize_identical_across_worker_counts(
        rel in au_relation_strategy("A", "B", 16),
        copies in 1usize..4,
    ) {
        // a deliberately non-normalized row list: several copies, reversed
        let mut messy = AuRelation::empty(rel.schema.clone());
        for c in 0..copies {
            for (t, k) in rel.rows().iter().rev() {
                messy.push(t.clone(), *k);
                if c == 0 {
                    messy.push(t.clone(), *k);
                }
            }
        }
        let seq = messy.clone().into_normalized();
        for w in WORKERS {
            let mut par = messy.clone();
            par.normalize_with(&exec(w)).unwrap();
            prop_assert_eq!(&par, &seq, "AU normalize, workers = {}", w);
        }
        // the deterministic relation's normalize shares the driver
        let mut det = Relation::empty(rel.schema.clone());
        for _ in 0..copies + 1 {
            for (t, k) in rel.sg_world().rows().iter().rev() {
                det.push(t.clone(), *k);
            }
        }
        let det_seq = det.clone().into_normalized();
        for w in WORKERS {
            let mut par = det.clone();
            par.normalize_with(&exec(w)).unwrap();
            prop_assert_eq!(&par, &det_seq, "det normalize, workers = {}", w);
        }
    }

    #[test]
    fn difference_identical_across_worker_counts_and_vs_scan(
        l in au_relation_strategy("A", "B", 12),
        r in au_relation_strategy("A", "B", 12),
    ) {
        let seq = difference_au_exec(&l, &r, &exec(1)).unwrap();
        // the sweep + SG-key-hash reductions equal the right-side scan
        let scan = difference_au_scan(&l, &r).unwrap();
        prop_assert_eq!(&scan, &seq, "scan vs indexed");
        for w in WORKERS {
            let par = difference_au_exec(&l, &r, &exec(w)).unwrap();
            prop_assert_eq!(&par, &seq, "workers = {}", w);
        }
    }
}

// ---------------------------------------------------------------------------
// aggregation kernel vs the literal oracle, beyond the Int-only corpus
// ---------------------------------------------------------------------------

/// What a generated column holds. Homogeneous kinds ride the typed
/// `i64`/`f64` lanes; `HugeInt` sits within 2 of `i64::MAX`/`MIN`, where
/// `⊛` and the sum folds overflow into the boxed demotion; `Mixed`
/// (Int/Float/Null/Str cells) forces the boxed lane and type errors.
#[derive(Debug, Clone, Copy)]
enum ColKind {
    SmallInt,
    HugeInt,
    Float,
    Mixed,
}

const KINDS: [ColKind; 4] = [ColKind::SmallInt, ColKind::HugeInt, ColKind::Float, ColKind::Mixed];

fn value_of(kind: ColKind) -> BoxedStrategy<Value> {
    let small = || (-4i64..5).prop_map(Value::Int);
    let float = || (-16i64..17).prop_map(|q| Value::float(q as f64 * 0.3));
    match kind {
        ColKind::SmallInt => small().boxed(),
        ColKind::HugeInt => prop_oneof![
            (0i64..3).prop_map(|d| Value::Int(i64::MAX - d)),
            (0i64..3).prop_map(|d| Value::Int(i64::MIN + d)),
            (-2i64..3).prop_map(Value::Int),
        ]
        .boxed(),
        ColKind::Float => float().boxed(),
        ColKind::Mixed => prop_oneof![
            small(),
            small(),
            float(),
            float(),
            Just(Value::Null),
            Just(Value::str("s")),
            Just(Value::MinVal),
            Just(Value::MaxVal),
        ]
        .boxed(),
    }
}

/// A range cell of one kind: three values in domain order.
fn cell_of(kind: ColKind) -> impl Strategy<Value = RangeValue> {
    (value_of(kind), value_of(kind), value_of(kind), 0u8..3).prop_map(|(a, b, c, certain)| {
        let mut v = [a, b, c];
        v.sort();
        let [lb, sg, ub] = v;
        if certain == 0 {
            RangeValue::certain(sg)
        } else {
            RangeValue::new(lb, sg, ub).expect("sorted triple")
        }
    })
}

/// One candidate cell per kind; the relation picks a kind per column.
fn cell_per_kind() -> impl Strategy<Value = [RangeValue; 4]> {
    (cell_of(KINDS[0]), cell_of(KINDS[1]), cell_of(KINDS[2]), cell_of(KINDS[3]))
        .prop_map(|(a, b, c, d)| [a, b, c, d])
}

/// One candidate multiplicity per mode; the relation picks one mode:
/// small counts with zero lower/SG components; at most one copy (so
/// `⊛` stays typed and the *fold* is what overflows on huge values);
/// or a mix with upper bounds within 2 of `u64::MAX` (beyond `i64`: the
/// typed `⊛` demotes).
fn annot_per_mode() -> impl Strategy<Value = [AuAnnot; 3]> {
    let small =
        || (0u64..2, 0u64..3, 0u64..3).prop_map(|(a, b, c)| AuAnnot::triple(a, a + b, a + b + c));
    let unit = (0u64..2, 0u64..2).prop_map(|(a, b)| AuAnnot::triple(a * b, b, 1));
    let mixed = prop_oneof![
        small(),
        small(),
        (0u64..3, 0u64..3).prop_map(|(a, d)| AuAnnot::triple(a, a, u64::MAX - d)),
        (0u64..3).prop_map(|d| AuAnnot::triple(u64::MAX - 2, u64::MAX - 2, u64::MAX - d)),
    ];
    (small(), unit, mixed).prop_map(|(a, b, c)| [a, b, c])
}

/// `(g, a, b)` rows: the group column is small ints (or, one time in
/// four, mixed); `a`, `b` and the multiplicities each draw one kind for
/// the whole relation.
fn wide_relation_strategy() -> impl Strategy<Value = AuRelation> {
    let row = (cell_per_kind(), cell_per_kind(), cell_per_kind(), annot_per_mode());
    let kinds = (0usize..4, 0usize..4, 0usize..4, 0usize..3);
    (proptest::collection::vec(row, 0..14), kinds).prop_map(|(rows, (gk, ak, bk, km))| {
        let gk = if gk == 3 { 3 } else { 0 };
        let rows = rows.into_iter().map(|(g, a, b, k)| {
            (RangeTuple::new(vec![g[gk].clone(), a[ak].clone(), b[bk].clone()]), k[km])
        });
        AuRelation::from_rows(Schema::named(&["g", "a", "b"]), rows.collect())
    })
}

/// Same result, or an error of the same class.
fn same_outcome(
    kernel: &Result<AuRelation, EvalError>,
    oracle: &Result<AuRelation, EvalError>,
) -> bool {
    match (kernel, oracle) {
        (Ok(k), Ok(o)) => k == o,
        (Err(k), Err(o)) => std::mem::discriminant(k) == std::mem::discriminant(o),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The row-once kernel is byte-identical to the literal Definition
    /// 26 oracle — same relation or same error class — on Float and
    /// mixed-type columns, arithmetic inputs, the typed → boxed
    /// demotion boundaries (values at the `i64` edges, multiplicities
    /// at the `u64` edge), zero multiplicities, every grouping shape,
    /// compressed sources, and every worker count.
    #[test]
    fn aggregate_kernel_matches_oracle_on_wide_corpus(
        rel in wide_relation_strategy(),
        compress in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(4usize))],
    ) {
        let aggs = [
            AggSpec::new(AggFunc::Sum, col(1), "s"),
            AggSpec::count("c"),
            AggSpec::new(AggFunc::Min, col(2), "lo"),
            AggSpec::new(AggFunc::Max, col(2), "hi"),
            AggSpec::new(AggFunc::Avg, col(1), "a"),
            AggSpec::new(AggFunc::Sum, col(1).mul(col(2)).add(lit(3i64)), "p"),
            AggSpec::new(AggFunc::Max, col(1).sub(lit(0.5f64)), "m"),
        ];
        for group_by in [vec![], vec![0usize], vec![0, 1]] {
            let oracle = aggregate_au_scan(&rel, &group_by, &aggs, compress);
            for w in WORKERS {
                let kernel = aggregate_au_exec(&rel, &group_by, &aggs, compress, &exec(w));
                prop_assert!(
                    same_outcome(&kernel, &oracle),
                    "workers = {}, group_by = {:?}, compress = {:?}\nkernel: {:?}\noracle: {:?}",
                    w, &group_by, compress, &kernel, &oracle
                );
            }
        }
    }

    /// A column reference past the arity is the oracle's
    /// `UnknownColumn`, not a panic: a bare column alone (no lane is
    /// read at all), behind `count` (whose lane is a constant), next to
    /// terms that do read lanes, and inside an arithmetic input.
    #[test]
    fn aggregate_kernel_reports_unknown_columns_like_the_oracle(
        rel in wide_relation_strategy(),
        compress in prop_oneof![Just(None), Just(Some(2usize))],
    ) {
        let lists = [
            vec![AggSpec::new(AggFunc::Sum, col(9), "s")],
            vec![AggSpec::count("c"), AggSpec::new(AggFunc::Min, col(9), "lo")],
            vec![AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::new(AggFunc::Max, col(3), "hi")],
            vec![AggSpec::new(AggFunc::Avg, col(2).add(col(7)), "a"), AggSpec::count("c")],
        ];
        for (aggs, group_by) in lists.iter().zip([vec![], vec![0usize], vec![0, 1], vec![0]]) {
            let oracle = aggregate_au_scan(&rel, &group_by, aggs, compress);
            // (a mixed-type column may fail first in the later lists)
            prop_assert!(rel.is_empty() || oracle.is_err(), "{:?}", &oracle);
            if !rel.is_empty() && group_by.is_empty() {
                prop_assert_eq!(&oracle, &Err(EvalError::UnknownColumn(9)));
            }
            for w in [1, 4] {
                let kernel = aggregate_au_exec(&rel, &group_by, aggs, compress, &exec(w));
                prop_assert_eq!(&kernel, &oracle, "workers = {}, aggs = {:?}", w, aggs);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// morsel-at-a-time lane pipelines vs the operator-at-a-time oracle (workers × splits)
// ---------------------------------------------------------------------------

/// Queries covering the fusion rules end-to-end: full
/// select→join→project spines (one fused chain), select/project-only
/// chains, pipeline breakers mid-query (aggregate — both with a
/// projection tail, which ends the input chain normalized, and directly
/// over a join, which the chain delivers as the planner's exact row
/// list), and the set operators around fused chains.
fn pipeline_queries() -> Vec<Query> {
    let spine = table("t1")
        .select(col(1).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(2)))
        .project(vec![(col(0).add(col(3)), "x"), (col(1), "y")]);
    vec![
        spine.clone(),
        // row-local chain without a join
        table("t1")
            .project(vec![(col(0), "a"), (col(1).mul(lit(2i64)), "b")])
            .select(col(1).gt(lit(-2i64)))
            .project(vec![(col(0).add(col(1)), "s")]),
        // comparison-predicate and cross joins under a projection
        table("t1")
            .join_on(table("t2"), col(0).leq(col(2)))
            .project(vec![(col(1), "a"), (col(3), "b")]),
        table("t1").cross(table("t2")).select(col(0).neq(col(3))),
        // aggregate mid-query over a fused (project-tailed) chain, with
        // a row-local tail above the breaker
        table("t1")
            .select(col(0).leq(lit(3i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0), "g"), (col(1).add(col(3)), "v")])
            .aggregate(
                vec![0],
                vec![
                    AggSpec::new(AggFunc::Sum, col(1), "s"),
                    AggSpec::new(AggFunc::Avg, col(1), "a"),
                    AggSpec::new(AggFunc::Min, col(1), "lo"),
                ],
            )
            .select(col(1).geq(lit(-50i64))),
        // aggregate directly over a join: an order-faithful probe chain
        // (see `aggregate_over_join_is_a_faithful_chain`)
        table("t1")
            .join_on(table("t2"), col(0).eq(col(2)))
            .aggregate(vec![1], vec![AggSpec::new(AggFunc::Sum, col(3), "s"), AggSpec::count("c")]),
        // set operators with fused chains on both sides
        table("t1")
            .select(col(0).gt(lit(0i64)))
            .union(table("t1").project(vec![(col(0), "A"), (col(1), "B")])),
        table("t1").difference(table("t2").project(vec![(col(0), "A"), (col(1), "B")])),
        table("t1").project(vec![(col(0), "a")]).distinct(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole guarantee: the fused pipeline's final result is
    /// byte-identical to the operator-at-a-time sequential path for
    /// every workers × splits combination — under every base
    /// configuration, the compressed ones included (`ct = 2`: a forced
    /// join or aggregate of three rows already forms real buckets).
    #[test]
    fn pipeline_identical_to_operator_at_a_time(
        t1 in au_relation_strategy("A", "B", 14),
        t2 in au_relation_strategy("C", "D", 14),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t1", t1);
        db.insert("t2", t2);
        for q in pipeline_queries() {
            prop_assert!(eval_oracle(&db, &q, &AuConfig::default()).is_ok(), "q = {}", &q);
            assert_lanes_match_oracle_all(&db, &q, "pipeline queries");
        }
    }

    /// Float aggregation payloads: bound folds are order-sensitive
    /// (float addition is not associative), so this pins down the
    /// pipeline's order-faithful delivery into aggregation.
    #[test]
    fn pipeline_identical_with_float_folds(
        rows in proptest::collection::vec((-40i64..40, -40i64..40, 0u64..3), 1..14),
    ) {
            let t1 = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            rows.iter()
                .map(|(a, b, k)| {
                    // 0.1 steps are not dyadic: float sums depend on order
                    (
                        RangeTuple::new(vec![
                            RangeValue::certain(Value::Int(a % 4)),
                            RangeValue::certain(Value::float(*b as f64 * 0.1)),
                        ]),
                        AuAnnot::triple(*k, *k, k + 1),
                    )
                })
                .collect(),
        );
        let mut db = AuDatabase::new();
        db.insert("t1", t1.clone());
        db.insert("t2", t1);
        let q = table("t1")
            .select(col(1).geq(lit(-100i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0), "g"), (col(1).add(col(3)), "v")])
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
        // the same fold without the projection tail: the probe chain
        // itself delivers the member order, four columns narrowed to three
        let direct = table("t1")
            .select(col(1).geq(lit(-100i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1).add(col(3)), "s")]);
        for q in [q, direct] {
            prop_assert!(eval_oracle(&db, &q, &AuConfig::default()).is_ok());
            assert_lanes_match_oracle_all(&db, &q, "float folds");
        }
    }

    /// The deterministic engine's chains (streaming, interpreted) are
    /// worker-invariant: on any worker count they equal the same
    /// engine's sequential run, on the same query shapes. The det engine
    /// has no second path to compare with.
    #[test]
    fn det_chains_are_worker_invariant(
        t1 in au_relation_strategy("A", "B", 14),
        t2 in au_relation_strategy("C", "D", 14),
    ) {
        let mut db = Database::new();
        db.insert("t1", t1.sg_world());
        db.insert("t2", t2.sg_world());
        for q in pipeline_queries() {
            let reference = eval_det_exec(&db, &q, &exec(1)).unwrap();
            for w in WORKERS {
                let got = eval_det_exec(&db, &q, &exec(w)).unwrap();
                prop_assert_eq!(&got, &reference, "workers = {}, q = {}", w, &q);
            }
        }
    }

    /// Theorem 8 on a fused spine: `Dec(rewr(Q)(Enc(D)))` on the plain
    /// deterministic engine equals native AU evaluation.
    #[test]
    fn rewrite_spine_equals_native_au(
        t1 in au_relation_strategy("A", "B", 10),
        t2 in au_relation_strategy("C", "D", 10),
    ) {
            let mut db = AuDatabase::new();
        db.insert("t1", t1);
        db.insert("t2", t2);
        let q = table("t1")
            .select(col(1).geq(lit(-2i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0), "x"), (col(1).add(col(3)), "y")]);
        prop_assert_eq!(
            &eval_via_rewrite(&db, &q).unwrap(),
            &eval_oracle(&db, &q, &AuConfig::default()).unwrap(),
            "rewrite vs native"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A plan is a value: one `AuPlan` per query and base configuration,
    /// and its oracle plan — each run three times over, from four threads
    /// at once, and against a second database of the same schema —
    /// returns each time exactly what a fresh `eval_au` returns there,
    /// rows or error, at every worker count and split. It holds no data,
    /// no resources and nothing a run writes to.
    #[test]
    fn a_kept_plan_runs_like_a_fresh_evaluation(
        t1 in au_relation_strategy("A", "B", 10),
        t2 in au_relation_strategy("C", "D", 10),
        u1 in au_relation_strategy("A", "B", 10),
        u2 in au_relation_strategy("C", "D", 10),
    ) {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AuPlan>();
        let dbs = [(t1, t2), (u1, u2)].map(|(t1, t2)| {
            let mut db = AuDatabase::new();
            db.insert("t1", t1);
            db.insert("t2", t2);
            db
        });
        let mut queries = pipeline_queries();
        // errs wherever a range of `A` spans zero
        queries.push(table("t1").select(lit(8i64).div(col(0)).gt(col(1))));
        let untraced = TraceBuilder::disabled;
        for q in &queries {
            for (name, base) in common::base_configs() {
                let plans = [
                    AuPlan::new(q, &base, &Metrics::disabled(), &untraced()),
                    AuPlan::oracle(q, &base, &untraced()),
                ];
                for (plan, db) in plans.iter().flat_map(|p| dbs.iter().map(move |db| (p, db))) {
                    let fresh = eval_au(db, q, &base);
                    let shapes: Vec<Executor> = [1, 2, 4]
                        .into_iter()
                        .flat_map(|w| splits().map(|split| lanes_exec(&base, w, split)))
                        .collect();
                    for exec in &shapes {
                        for _ in 0..3 {
                            let got = plan.run(db, exec, &untraced());
                            prop_assert_eq!(&got, &fresh, "{}, {:?}, q = {}", name, exec, q);
                        }
                    }
                    std::thread::scope(|s| {
                        for exec in &shapes[2..] {
                            let fresh = &fresh;
                            s.spawn(move || assert_eq!(&plan.run(db, exec, &untraced()), fresh));
                        }
                    });
                }
            }
        }
    }
}

/// The spines of the two real-size tests below, over `t1(A, B)` of
/// 3 584 rows — 3 328 of which survive the selection: three chain
/// morsels on the default split at any worker count — and a 40-row
/// `t2(C, D)`: every probe plan, over a select-only left side continued
/// in place (sweep candidates keyed by source row id across morsel
/// seams) and over a projected one (a chain of its own under the probe
/// chain). Each with the number of staged chains it runs as.
fn seam_spines() -> Vec<(Query, u64)> {
    let kept = table("t1").select(col(1).geq(lit(256i64)));
    let lefts =
        [(kept.clone(), 1), (kept.project(vec![(col(0).add(lit(1i64)), "A"), (col(1), "B")]), 2)];
    let probes = [
        col(0).eq(col(2)),                  // hash (+ sweeps over uncertain keys)
        col(1).lt(col(3)),                  // interval comparison
        col(0).add(col(2)).gt(lit(150i64)), // nested loop
    ];
    let spine = |(left, chains): &(Query, u64), on: &Expr| {
        let q = left.clone().join_on(table("t2"), on.clone()).select(col(1).neq(col(3)));
        (q.project(vec![(col(0).add(col(2)), "x"), (col(1).sub(col(3)), "y")]), *chains)
    };
    lefts.iter().flat_map(|l| probes.iter().map(move |on| spine(l, on))).collect()
}

/// The deterministic engine's chains across the default split's seams
/// are worker-invariant: at one, two and four workers they equal the
/// same engine's sequential run, three morsels a chain.
#[test]
fn det_seam_chains_are_worker_invariant() {
    let it = |vs: &[i64]| -> Tuple { vs.iter().copied().collect() };
    let t1 = (0..3584i64).map(|i| (it(&[i % 97, i]), 1 + i as u64 % 3));
    let t2 = (0..40i64).map(|i| (it(&[i * 3 % 97, i * 100]), 1 + i as u64 % 2));
    let mut db = Database::new();
    db.insert("t1", Relation::from_rows(Schema::named(&["A", "B"]), t1.collect()));
    db.insert("t2", Relation::from_rows(Schema::named(&["C", "D"]), t2.collect()));
    for (q, chains) in seam_spines() {
        let reference = eval_det_exec(&db, &q, &Executor::sequential()).unwrap();
        assert!(!reference.is_empty(), "q = {q}");
        for w in [1, 2, 4] {
            let exec = Executor::new(w).with_metrics(Metrics::enabled());
            assert_eq!(eval_det_exec(&db, &q, &exec).unwrap(), reference, "w = {w}, q = {q}");
            let m = exec.metrics().snapshot();
            let count = |c| m.counter(c).unwrap();
            // three morsels a chain, where any other driver is at least
            // one — at one worker exactly one: the breaker's normalization
            let (drivers, morsels) = (count("drivers_entered"), count("morsels_dispatched"));
            assert!(morsels >= drivers + 2 * chains, "w = {w}, q = {q}: {morsels}/{drivers}");
            assert!(w > 1 || morsels == 3 * chains + 1, "q = {q}: {morsels} morsels");
        }
    }
}

/// The AU twin: keys and payloads mix certain and uncertain cells (hash
/// pairs and sweep candidates on both sides of every morsel seam and of
/// the 1 024-row chunk seams inside a morsel) — byte for byte the
/// sequential oracle's relation at one, two and four workers.
#[test]
fn au_chains_identical_to_oracle_across_default_split_seams() {
    let cell = |v: i64, wide: bool| match wide {
        true => RangeValue::range(v - 1, v, v + 2),
        false => RangeValue::certain(Value::Int(v)),
    };
    let t1 = (0..3584i64).map(|i| {
        let cells = vec![cell(i % 97, i % 50 == 7), cell(i, i % 211 == 0)];
        au_row(cells, i as u64 % 2, 1, 1 + i as u64 % 3)
    });
    let t2 = (0..40i64)
        .map(|i| au_row(vec![cell(i * 3 % 97, i % 9 == 0), cell(i * 100, false)], 1, 1, 2));
    let mut db = AuDatabase::new();
    db.insert("t1", AuRelation::from_rows(Schema::named(&["A", "B"]), t1.collect()));
    db.insert("t2", AuRelation::from_rows(Schema::named(&["C", "D"]), t2.collect()));
    let base = AuConfig::default();
    for (q, chains) in seam_spines() {
        let reference = eval_oracle(&db, &q, &AuConfig::default()).unwrap();
        assert!(reference.len() > 1000, "q = {q}");
        for w in [1, 2, 4] {
            let exec = lanes_exec(&base, w, Partitioner::default());
            let (got, trace) = common::eval_lanes_traced(&db, &q, &base, &exec);
            assert_eq!(got.unwrap(), reference, "w = {w}, q = {q}");
            let mut staged = 0;
            trace.walk(&mut |s| {
                // (the bare build-side table is a chain of no stage)
                if s.op == "fused-chain" && s.attr("ops").is_some() {
                    assert_eq!(s.attr("morsels"), Some("3"), "w = {w}, {}", s.detail);
                    staged += 1;
                }
            });
            assert_eq!(staged, chains, "w = {w}, q = {q}");
        }
    }
}

/// At one worker a chain's morsels are handed one output vector: a
/// 5 000-row source runs as four morsels and still fills a single
/// buffer — the rows are byte for byte those of a one-morsel run (and
/// the oracle's), gathered by one `chain_materialize` pass.
#[test]
fn one_worker_multi_morsel_chain_fills_one_buffer() {
    let rows = (0..5000i64).map(|i| certain_row(&[i % 89, i], 1, 1, 1 + i as u64 % 2));
    let mut db = AuDatabase::new();
    db.insert("t", AuRelation::from_rows(Schema::named(&["a", "b"]), rows.collect()));
    let q = table("t")
        .select(col(1).geq(lit(100i64)))
        .project(vec![(col(0), "a"), (col(1).add(col(0)), "s")]);
    let base = AuConfig::default();
    let whole = Partitioner { min_morsel: usize::MAX, ..Partitioner::default() };
    let run = |split: Partitioner| {
        let exec = lanes_exec(&base, 1, split).with_metrics(Metrics::enabled());
        let (out, trace) = common::eval_lanes_traced(&db, &q, &base, &exec);
        let chain = trace.find("fused-chain").expect("fused chain span");
        let morsels = chain.attr("morsels").map(str::to_string);
        let m = exec.metrics().snapshot();
        let gathers = m.sites.iter().find(|s| s.site == "chain_materialize").map(|s| s.entries);
        (out.unwrap(), morsels, gathers)
    };
    let (four, morsels, gathers) = run(Partitioner::default());
    assert_eq!((morsels.as_deref(), gathers), (Some("4"), Some(1)));
    let (one, morsels, gathers) = run(whole);
    assert_eq!((morsels.as_deref(), gathers), (Some("1"), Some(1)));
    assert_eq!(four, one);
    assert_eq!(four, eval_oracle(&db, &q, &AuConfig::default()).unwrap());
}

// ---------------------------------------------------------------------------
// probe chains on the lanes vs the oracle
// ---------------------------------------------------------------------------

/// σ → ⋈ → σ → π spines over `(g, a, b) ⋈ (g, a, b)`, one per probe plan:
/// hash-equi on one and on two key pairs, interval comparison, and the
/// nested loop (cross product, and a predicate no index serves). Over
/// mixed columns the arithmetic stages raise type errors on some pairs.
fn probe_spines() -> Vec<Query> {
    let tail = |q: Query| {
        q.select(col(1).add(col(4)).lt(lit(3i64))).project(vec![
            (col(0), "k"),
            (col(1).add(col(4)), "v"),
            (col(5), "w"),
        ])
    };
    let left = || table("t1").select(col(2).geq(lit(-3i64)));
    vec![
        tail(left().join_on(table("t2"), col(0).eq(col(3)))),
        tail(left().join_on(table("t2"), col(0).eq(col(3)).and(col(1).eq(col(4))))),
        tail(left().join_on(table("t2"), col(0).leq(col(3)))),
        tail(left().cross(table("t2"))),
        tail(left().join_on(table("t2"), col(0).add(col(3)).gt(lit(0i64)))),
        // no projection: the pair batch materializes from both sides' lanes
        left().join_on(table("t2"), col(0).eq(col(3))).select(col(2).leq(col(5))),
        // a stage that reads past the arity poisons every pair
        left().join_on(table("t2"), col(0).eq(col(3))).project(vec![(col(9), "x")]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The pair-batch runner on the wide corpus: Int, huge Int
    /// (overflow demotions), Float, and mixed Int/Float/Str/Null/
    /// sentinel key and payload columns, all probe plans.
    #[test]
    fn probe_chain_paths_agree_on_wide_corpus(
        t1 in wide_relation_strategy(),
        t2 in wide_relation_strategy(),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t1", t1);
        db.insert("t2", t2);
        for q in probe_spines() {
            assert_lanes_match_oracle_all(&db, &q, "wide corpus");
        }
    }
}

fn cells(vals: &[Value]) -> RangeTuple {
    RangeTuple::new(vals.iter().cloned().map(RangeValue::certain).collect())
}

/// `Int(1)` joins `Float(1.0)` (database equality), strings and nulls
/// join themselves, and an uncertain key band reaches all of them.
#[test]
fn probe_chain_paths_agree_on_mixed_keys() {
    let keys = [
        Value::Int(1),
        Value::float(1.0),
        Value::Int(2),
        Value::float(2.5),
        Value::str("k"),
        Value::str("a key that is longer than the packed prefix"),
        Value::Null,
    ];
    let rel = |payload: fn(usize) -> Value| {
        let mut rows: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (cells(&[k.clone(), payload(i)]), AuAnnot::triple(1, 1, 2)))
            .collect();
        rows.push(au_row(
            vec![RangeValue::range(0i64, 1i64, 3i64), RangeValue::certain(payload(0))],
            0,
            1,
            1,
        ));
        AuRelation::from_rows(Schema::named(&["k", "v"]), rows)
    };
    let mut db = AuDatabase::new();
    db.insert("t1", rel(|i| Value::Int(i as i64)));
    db.insert("t2", rel(|i| Value::float(i as f64 * 0.5)));
    let on = [col(0).eq(col(2)), col(0).eq(col(2)).and(col(1).leq(col(3))), col(0).leq(col(2))];
    for on in on {
        let q = table("t1")
            .join_on(table("t2"), on)
            .select(col(1).add(col(3)).lt(lit(8i64)))
            .project(vec![(col(0), "k"), (col(1).mul(col(3)), "p"), (col(2), "rk")]);
        assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "mixed keys");
        let got = eval_au(&db, &q, &cfg_lanes(1)).unwrap();
        assert!(!got.is_empty(), "q = {q}");
    }
}

/// Error order. Source row 2 passes the pre-probe selection and has a
/// pair whose post-probe stage fails; source row 5 fails the pre-probe
/// selection itself. Streaming each source row through the whole chain
/// before the next is touched meets row 2's pair first — and that is
/// the error the lanes must report, although they run the selection
/// over the whole chunk before the first pair is enumerated.
#[test]
fn probe_chain_reports_the_streaming_order_error() {
    let left: Vec<_> = (0..8i64)
        .map(|i| {
            let payload = if i == 5 { Value::str("late") } else { Value::Int(i) };
            (cells(&[Value::Int(i), payload]), AuAnnot::triple(1, 1, 1))
        })
        .collect();
    let right: Vec<_> = (0..8i64)
        .map(|i| {
            let payload = if i == 2 { Value::str("pair") } else { Value::Int(10 * i) };
            (cells(&[Value::Int(i), payload]), AuAnnot::triple(1, 1, 1))
        })
        .collect();
    let mut db = AuDatabase::new();
    db.insert("t1", AuRelation::from_rows(Schema::named(&["k", "v"]), left));
    db.insert("t2", AuRelation::from_rows(Schema::named(&["k", "v"]), right));
    let q = table("t1")
        .select(col(1).add(lit(1i64)).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(2)))
        .select(col(1).add(col(3)).geq(lit(0i64)));
    assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "error order");
    match eval_au(&db, &q, &cfg_lanes(1)).unwrap_err() {
        EvalError::BinOpTypeError { right, .. } => assert!(right.contains("pair"), "{right}"),
        other => panic!("expected the pair's type error, got {other:?}"),
    }
}

/// Error order when the culprit is a *sweep* candidate. Source row 1 has
/// an uncertain key, so its pairs are sweep candidates, and `(1, 1)`
/// fails the post-probe stage; so does the hash-bucket pair `(6, 6)` of a
/// later row. The planner's operator path would meet `(6, 6)` first (all
/// hash-phase pairs precede the sweeps), but a probe chain *enumerates*
/// source row by source row — hash bucket, then that row's candidates —
/// and only the delivered list is put in planner order: streaming order
/// meets row 1's candidate first. Identical for every workers × splits
/// shape.
#[test]
fn probe_chain_reports_a_sweep_candidates_error_in_streaming_order() {
    let left: Vec<_> = (0..8i64)
        .map(|i| {
            let key = if i == 1 {
                RangeValue::range(1i64, 1i64, 2i64)
            } else {
                RangeValue::certain(Value::Int(i))
            };
            au_row(vec![key, RangeValue::certain(Value::Int(i))], 1, 1, 1)
        })
        .collect();
    let right: Vec<_> = (0..8i64)
        .map(|i| {
            let payload = match i {
                1 => Value::str("sweep"),
                6 => Value::str("hash"),
                _ => Value::Int(10 * i),
            };
            (cells(&[Value::Int(i), payload]), AuAnnot::triple(1, 1, 1))
        })
        .collect();
    let mut db = AuDatabase::new();
    db.insert("t1", AuRelation::from_rows(Schema::named(&["k", "v"]), left));
    db.insert("t2", AuRelation::from_rows(Schema::named(&["k", "v"]), right));
    let q = table("t1")
        .join_on(table("t2"), col(0).eq(col(2)))
        .select(col(1).add(col(3)).geq(lit(0i64)));
    // under an aggregate the same chain delivers a planner-ordered list:
    // the error is still the enumeration's
    let under_sum = q.clone().aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(3), "s")]);
    for q in [q, under_sum] {
        assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "sweep error order");
        match eval_au(&db, &q, &cfg_lanes(1)).unwrap_err() {
            EvalError::BinOpTypeError { right, .. } => assert!(right.contains("sweep"), "{right}"),
            other => panic!("expected the sweep pair's type error, got {other:?}"),
        }
    }
}

/// The probe-less twin: row 2 passes the selection and fails the
/// projection (the late stage), row 5 fails the selection (the early
/// stage, which the lanes run over the whole chunk first). Row by row,
/// row 2's projection error comes first.
#[test]
fn select_project_chain_reports_the_streaming_order_error() {
    let rows: Vec<_> = (0..8i64)
        .map(|i| {
            let a = if i == 5 { Value::str("early") } else { Value::Int(i) };
            let b = if i == 2 { Value::str("late") } else { Value::Int(10 * i) };
            (cells(&[a, b]), AuAnnot::triple(1, 1, 1))
        })
        .collect();
    let mut db = AuDatabase::new();
    db.insert("t", AuRelation::from_rows(Schema::named(&["a", "b"]), rows));
    let q = table("t")
        .select(col(0).add(lit(1i64)).geq(lit(0i64)))
        .project(vec![(col(0), "a"), (col(1).add(lit(1i64)), "s")]);
    assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "error order");
    match eval_au(&db, &q, &cfg_lanes(1)).unwrap_err() {
        EvalError::BinOpTypeError { left, .. } => assert!(left.contains("late"), "{left}"),
        other => panic!("expected row 2's projection error, got {other:?}"),
    }
}

/// Batch and chunk seams: a source of 1 030 rows crosses the 1 024-row
/// chunk boundary, and its row with key 7 meets 2 100 right rows — more
/// than one pair batch, so that one source row spans flushes; the cross
/// product of a few rows with the same right side flushes mid-row on
/// the nested-loop plan.
#[test]
fn probe_chain_paths_agree_across_batch_and_chunk_seams() {
    let left: Vec<_> = (0..1030i64)
        .map(|i| {
            let key = if i % 97 == 0 {
                RangeValue::range(i - 1, i, i + 1)
            } else {
                RangeValue::certain(Value::Int(i))
            };
            au_row(vec![key, RangeValue::certain(Value::Int(i % 13))], 1, 1, 1 + (i as u64 % 2))
        })
        .collect();
    let mut db = AuDatabase::new();
    db.insert("t1", AuRelation::from_rows(Schema::named(&["k", "v"]), left));
    db.insert("t2", all_same_key(2100));
    db.insert("few", all_same_key(3));
    let tail = |q: Query| {
        q.select(col(1).add(col(3)).lt(lit(1500i64)))
            .project(vec![(col(0), "k"), (col(1).add(col(3)), "s")])
    };
    let spine = tail(table("t1").join_on(table("t2"), col(0).eq(col(2))));
    let cross = tail(table("few").cross(table("t2")));
    for q in [spine, cross] {
        assert_lanes_match_oracle(&AuConfig::default(), &db, &q, "seams");
        assert!(eval_au(&db, &q, &cfg_lanes(1)).unwrap().len() > 1000, "q = {q}");
    }
}

/// The aggregate-directly-over-a-join entry of [`pipeline_queries`] used
/// to fall back operator-at-a-time; it is a fused chain now, delivering
/// the planner's exact row list.
#[test]
fn aggregate_over_join_is_a_faithful_chain() {
    let q = pipeline_queries().remove(5);
    assert!(matches!(&q, Query::Aggregate { input, .. } if matches!(**input, Query::Join { .. })));
    let mut db = AuDatabase::new();
    db.insert("t1", all_same_key(6));
    db.insert("t2", all_same_key(5));
    for (name, base) in common::base_configs() {
        let (_, trace) = eval_au_traced(&db, &q, &base.with_workers(2)).unwrap();
        let chain = trace.root.find("fused-chain").expect("fused chain span");
        assert_eq!(chain.attr("delivery"), Some("faithful"), "{name}");
        assert_eq!(chain.attr("fallback"), None, "{name}");
    }
}

/// The Q7 shape — `((a ⋈ b) ⋈ c) σ(≠, range) γ[sum(Float · (1 − Float))]`
/// — where every seam shows: join keys mix certain and uncertain cells
/// on **both** sides of both joins (hash-phase pairs and both sweeps emit
/// and interleave), the measure is non-dyadic Floats (the fold order is
/// visible in the sum), `a` is un-normalized with a duplicate tuple,
/// every input exceeds `ct = 2` (forced compression forms real buckets)
/// and the adaptive verdict splits — `a ⋈ b` joins precisely, `⋈ c`
/// clears `JOIN_COMPRESS_MIN_WORK` — the second chain's source crosses
/// the 1 024-row chunk, and `a`'s key-2 rows each meet 2 100 rows of `b`,
/// more than one pair batch.
#[test]
fn q7_shaped_plan_identical_across_configs() {
    let int = |v: i64| RangeValue::certain(Value::Int(v));
    let around = |v: i64| RangeValue::range(v - 1, v, v + 1);
    let float = |v: f64| RangeValue::certain(Value::float(v));
    let mut a = AuRelation::empty(Schema::named(&["ak", "an", "af"]));
    for i in (0..13i64).chain([3, 3]) {
        let key = if i % 4 == 0 { around(i % 5) } else { int(i % 5) };
        a.push(
            RangeTuple::new(vec![key, int(i % 3), float(i as f64 * 0.1)]),
            AuAnnot::triple(1, 1, 2),
        );
    }
    assert!(!a.is_normalized());
    let b: Vec<_> = (0..2150i64)
        .map(|j| {
            let key = match j {
                0..2100 => int(2),
                _ if j % 3 == 0 => around(j % 5),
                _ => int(j % 5),
            };
            let cust = if j % 97 == 0 { around(j % 260) } else { int(j % 260) };
            let price = Value::float(j as f64 * 0.1);
            let price = RangeValue::range(price.clone(), price, Value::float(j as f64 * 0.1 + 0.3));
            au_row(vec![key, cust, price, float((j % 10) as f64 * 0.01)], j as u64 % 2, 1, 1)
        })
        .collect();
    let c: Vec<_> = (0..260i64)
        .map(|j| au_row(vec![if j % 50 == 0 { around(j) } else { int(j) }, int(j % 4)], 1, 1, 1))
        .collect();
    let mut db = AuDatabase::new();
    db.insert("a", a);
    db.insert("b", AuRelation::from_rows(Schema::named(&["bk", "bc", "price", "disc"]), b));
    db.insert("c", AuRelation::from_rows(Schema::named(&["ck", "cn"]), c));
    let revenue = col(5).mul(lit(1.0).sub(col(6)));
    let q = table("a")
        .join_on(table("b"), col(0).eq(col(3)))
        .join_on(table("c"), col(4).eq(col(7)))
        .select(col(1).neq(col(8)).and(col(5).geq(lit(0.5))).and(col(5).leq(lit(190.0))))
        .aggregate(vec![1, 8], vec![AggSpec::new(AggFunc::Sum, revenue, "revenue")]);
    assert_lanes_match_oracle_all(&db, &q, "q7 shape");

    // what the plan looked like: under the adaptive config only `⋈ c`
    // compresses and the σ rides its output; precisely, the tail is one
    // order-faithful chain building 4 of 9 columns
    let strategies = |cfg: &AuConfig| {
        let (out, trace) = eval_au_traced(&db, &q, cfg).unwrap();
        assert!(out.len() > 4, "a real grouping");
        let (mut joins, mut narrow) = (Vec::new(), Vec::new());
        trace.root.walk(&mut |s| {
            joins.extend((s.op == "join").then(|| s.attr("strategy").map(str::to_string)));
            narrow.extend(s.attr("narrow").map(str::to_string));
        });
        (joins, narrow)
    };
    let split = Some("split-compress".to_string());
    assert_eq!(strategies(&AuConfig::compressed(2)), (vec![split], vec!["4/9".to_string()]));
    assert_eq!(strategies(&AuConfig::default()), (vec![], vec!["4/9".to_string()]));
}

/// The corpora of the typed build side and the gather-view delivery —
/// every case under all five base configurations and every workers ×
/// splits shape:
///
/// * join keys whose lanes differ by side — `Int` ⋈ `Float` (two typed
///   indexes of different endpoint types), `Int` ⋈ a mixed `Int`/`Float`
///   column (typed × boxed), as equality and as comparison — `Str` keys,
///   certain and uncertain, and a two-column key with one uncertain
///   column: hash buckets and both sweeps emit, and `keys` says which
///   probes read boxed cells;
/// * a projection whose output column is `Int` in most batches and holds
///   an `i64`-overflow-promoted `Float` in one — at the first, a middle
///   and the last source row, so the typed lane meets the boxed one in
///   either order: the concatenation demotes, the result does not move;
/// * an output of > 90 % duplicates, one whose rows are only possibly
///   there (`(0, 0, ub)` annotations), and one no row survives into (the
///   breaker normalization is never entered);
/// * a ranked Faithful chain under γ — hash pairs, both sweeps, one
///   source row's matches across a 2 048-pair batch.
#[test]
fn typed_indexes_and_gather_views_match_the_oracle() {
    let int = |v: i64| RangeValue::certain(Value::Int(v));
    let float = |v: f64| RangeValue::certain(Value::float(v));
    let around = |v: i64| RangeValue::range(v - 1, v, v + 1);
    let text = |v: &str| RangeValue::certain(Value::str(v));
    let rel = |names: &[&str], rows: Vec<Vec<RangeValue>>| {
        let rows = rows.into_iter().enumerate();
        let annotated = rows.map(|(i, r)| au_row(r, i as u64 % 2, 1, 1 + i as u64 % 3));
        AuRelation::from_rows(Schema::named(names), annotated.collect())
    };
    let keys = |db: &AuDatabase, q: &Query| {
        let (_, trace) = eval_au_traced(db, q, &cfg_lanes(1)).unwrap();
        let chain = trace.root.find("fused-chain").expect("fused chain span");
        (chain.attr("keys").map(str::to_string), trace.metrics.counter("probe_keys_boxed"))
    };
    let (typed, boxed) =
        ((Some("typed".to_string()), Some(0)), (Some("boxed".to_string()), Some(1)));
    let spine = |l: &str, r: &str, on: Expr| {
        table(l)
            .select(col(1).geq(lit(-1i64)))
            .join_on(table(r), on)
            .select(col(1).add(col(3)).lt(lit(40i64)))
            .project(vec![(col(0), "k"), (col(1).add(col(3)), "s"), (col(2), "rk")])
    };

    // ---- key lanes that differ by side ---------------------------------
    let mut db = AuDatabase::new();
    let ints =
        (0..40i64).map(|i| vec![if i % 6 == 0 { around(i % 7) } else { int(i % 7) }, int(i)]);
    db.insert("ints", rel(&["k", "v"], ints.collect()));
    let floats = (0..30i64).map(|i| {
        let k = (i % 14) as f64 * 0.5;
        let key = if i % 5 == 0 {
            RangeValue::range(Value::float(k - 0.5), Value::float(k), Value::float(k + 1.0))
        } else {
            float(k)
        };
        vec![key, int(i % 4)]
    });
    db.insert("floats", rel(&["k", "v"], floats.collect()));
    let mixed = (0..30i64).map(|i| {
        let k = i % 7;
        vec![if i % 2 == 0 { int(k) } else { float(k as f64) }, int(i % 4)]
    });
    db.insert("mixed", rel(&["k", "v"], mixed.collect()));
    for (right, lane) in [("ints", "Int"), ("floats", "Float"), ("mixed", "mixed")] {
        for on in [col(0).eq(col(2)), col(0).leq(col(2)), col(2).lt(col(0))] {
            let q = spine("ints", right, on);
            assert_lanes_match_oracle_all(&db, &q, &format!("Int ⋈ {lane}"));
            assert!(!eval_au(&db, &q, &cfg_lanes(1)).unwrap().is_empty(), "q = {q}");
            assert_eq!(keys(&db, &q), if right == "ints" { typed.clone() } else { boxed.clone() });
        }
    }

    // ---- Str keys; a two-column key with one uncertain column -----------
    let names = ["ann", "bob", "a name longer than the packed prefix", "cy", "dee"];
    let strs = |n: usize, step: usize| {
        (0..n).map(move |i| {
            let name = names[i * step % names.len()];
            let key = if i % 7 == 3 {
                let guess = if ("b"..="d").contains(&name) { name } else { "c" };
                RangeValue::range(Value::str("b"), Value::str(guess), Value::str("d"))
            } else {
                text(name)
            };
            vec![key, int(i as i64 % 5)]
        })
    };
    db.insert("s1", rel(&["k", "v"], strs(25, 1).collect()));
    db.insert("s2", rel(&["k", "v"], strs(20, 3).collect()));
    let q = spine("s1", "s2", col(0).eq(col(2)));
    assert_lanes_match_oracle_all(&db, &q, "Str keys");
    assert!(eval_au(&db, &q, &cfg_lanes(1)).unwrap().len() > 5);
    assert_eq!(keys(&db, &q), boxed);

    let two = |n: i64, m: i64| {
        (0..n).map(move |i| {
            vec![int(i % 3), if i % m == 0 { around(i % 4) } else { int(i % 4) }, int(i)]
        })
    };
    db.insert("p1", rel(&["a", "b", "v"], two(30, 4).collect()));
    db.insert("p2", rel(&["a", "b", "v"], two(24, 5).collect()));
    let q = table("p1")
        .join_on(table("p2"), col(0).eq(col(3)).and(col(1).eq(col(4))))
        .select(col(2).add(col(5)).lt(lit(45i64)))
        .project(vec![(col(0), "a"), (col(1), "b"), (col(2).add(col(5)), "s")]);
    assert_lanes_match_oracle_all(&db, &q, "two-column key");
    assert!(eval_au(&db, &q, &cfg_lanes(1)).unwrap().len() > 20);
    assert_eq!(keys(&db, &q), typed);

    // ---- a batch whose output column leaves the Int lane -----------------
    for at in [0usize, 17, 39] {
        let rows = (0..40usize)
            .map(|i| vec![int(if i == at { i64::MAX } else { i as i64 % 9 }), int(i as i64 % 2)]);
        db.insert("big", rel(&["a", "b"], rows.collect()));
        let q = table("big")
            .select(col(1).geq(lit(0i64)))
            .project(vec![(col(0).add(lit(1i64)), "a1"), (col(1), "b")]);
        assert_lanes_match_oracle_all(&db, &q, &format!("overflow at row {at}"));
        let out = eval_au(&db, &q, &cfg_lanes(2)).unwrap();
        let promoted = |t: &RangeTuple| matches!(t.0[0].sg, Value::Float(_));
        assert_eq!(out.rows().iter().filter(|(t, _)| promoted(t)).count(), 1);
        let (_, trace) = eval_au_traced(&db, &q, &cfg_lanes(1)).unwrap();
        let chain = trace.root.find("fused-chain").expect("fused chain span");
        assert_eq!(chain.attr("keyed"), Some("1/2"), "the concatenated column is boxed");
    }

    // ---- duplicates, possible-only rows, nothing at all ------------------
    let dup = spine("ints", "ints", col(0).eq(col(2))).project(vec![(col(0), "k")]);
    assert_lanes_match_oracle_all(&db, &dup, "duplicates");
    let (out, trace) = eval_au_traced(&db, &dup, &cfg_lanes(1)).unwrap();
    let rows_in = trace.metrics.counter("normalize_rows_in").unwrap();
    assert!(out.len() as u64 * 10 < rows_in, "{} rows of {rows_in}", out.len());
    // `k = 3` is possible but not the guess of `around(2)` and `around(4)`
    let possible = table("ints")
        .select(col(0).eq(lit(3i64)).and(col(1).lt(lit(35i64))))
        .project(vec![(col(0), "k"), (lit(1i64), "one")]);
    assert_lanes_match_oracle_all(&db, &possible, "possible-only rows");
    let out = eval_au(&db, &possible, &cfg_lanes(1)).unwrap();
    assert!(out.rows().iter().any(|(_, k)| (k.lb, k.sg) == (0, 0) && k.ub > 0), "{out}");
    let none = spine("ints", "floats", col(0).eq(col(2))).select(col(1).gt(lit(1000i64)));
    assert_lanes_match_oracle_all(&db, &none, "no survivor");
    let (out, trace) = eval_au_traced(&db, &none, &cfg_lanes(2)).unwrap();
    assert!(out.is_empty() && out.is_normalized());
    assert_eq!(trace.metrics.counter("normalize_runs"), Some(0));

    // ---- a ranked list under γ, across a pair batch ------------------------
    let left = (0..60i64).map(|i| {
        vec![if i % 9 == 0 { around(7) } else { int(if i % 2 == 0 { 7 } else { i }) }, int(i % 5)]
    });
    db.insert("l", rel(&["k", "v"], left.collect()));
    let mut wide = all_same_key(2100);
    wide.push(RangeTuple::new(vec![around(7), int(-1)]), AuAnnot::triple(0, 1, 1));
    db.insert("wide", wide);
    let q = table("l")
        .join_on(table("wide"), col(0).eq(col(2)))
        .select(col(1).add(col(3)).lt(lit(2000i64)))
        .aggregate(
            vec![1],
            vec![AggSpec::new(AggFunc::Sum, col(3), "s"), AggSpec::new(AggFunc::Max, col(2), "k")],
        );
    assert_lanes_match_oracle_all(&db, &q, "ranked list under γ");
    let (_, trace) = eval_au_traced(&db, &q, &cfg_lanes(1)).unwrap();
    let chain = trace.root.find("fused-chain").expect("fused chain span");
    assert_eq!(chain.attr("delivery"), Some("faithful"));
    assert_eq!(chain.attr("keyed"), None, "a list delivery is not keyed");
    let attr = |k: &str| chain.attr(k).and_then(|v| v.parse::<u64>().ok()).unwrap();
    assert!(attr("pairs") > 20_000 && attr("pair_batches") > 10, "{:?}", chain.attrs);
}

// ---------------------------------------------------------------------------
// adversarial partition shapes
// ---------------------------------------------------------------------------

/// `n` rows that all share one join/group key (one giant hash bucket /
/// one group), mixing certain and uncertain payloads.
fn all_same_key(n: usize) -> AuRelation {
    let rows = (0..n)
        .map(|i| {
            let payload = if i % 3 == 0 {
                RangeValue::range(i as i64 - 1, i as i64, i as i64 + 2)
            } else {
                RangeValue::certain(Value::Int(i as i64))
            };
            (
                RangeTuple::new(vec![RangeValue::certain(Value::Int(7)), payload]),
                AuAnnot::triple(1, 1, 1 + (i as u64 % 2)),
            )
        })
        .collect();
    AuRelation::from_rows(Schema::named(&["k", "v"]), rows)
}

#[test]
fn adversarial_shapes_identical_across_worker_counts() {
    let empty = AuRelation::empty(Schema::named(&["k", "v"]));
    let single = AuRelation::from_rows(
        Schema::named(&["k", "v"]),
        vec![au_row(
            vec![RangeValue::certain(Value::Int(7)), RangeValue::range(0i64, 1i64, 2i64)],
            1,
            1,
            2,
        )],
    );
    let bucket = all_same_key(300);
    let pred = col(0).eq(col(2));
    let aggs = [AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::count("c")];

    for l in [&empty, &single, &bucket] {
        for r in [&empty, &single, &bucket] {
            let seq_join = join_au_planned_exec(l, r, Some(&pred), &exec(1)).unwrap();
            let seq_diff = difference_au_exec(l, r, &exec(1)).unwrap();
            assert_eq!(difference_au_scan(l, r).unwrap(), seq_diff, "scan vs indexed difference");
            for w in WORKERS {
                let join = join_au_planned_exec(l, r, Some(&pred), &exec(w)).unwrap();
                assert_eq!(join, seq_join, "join, workers = {w}");
                let diff = difference_au_exec(l, r, &exec(w)).unwrap();
                assert_eq!(diff, seq_diff, "difference, workers = {w}");
            }
        }
        let seq_agg = aggregate_au_exec(l, &[0], &aggs, None, &exec(1)).unwrap();
        assert_eq!(aggregate_au_scan(l, &[0], &aggs, None).unwrap(), seq_agg);
        for w in WORKERS {
            let agg = aggregate_au_exec(l, &[0], &aggs, None, &exec(w)).unwrap();
            assert_eq!(agg, seq_agg, "aggregate, workers = {w}");
        }

        // the row-local tail on the same shapes
        let pred = col(1).geq(lit(3i64));
        let proj = [(col(1), "v".to_string()), (col(0).add(col(1)), "s".to_string())];
        let seq_sel = select_au_exec(l, &pred, &exec(1)).unwrap();
        let seq_proj = project_au_exec(l, &proj, &exec(1)).unwrap();
        assert_eq!(&dec_relation(&enc_relation(l), &l.schema).unwrap(), l, "Enc/Dec round trip");
        for w in WORKERS {
            assert_eq!(select_au_exec(l, &pred, &exec(w)).unwrap(), seq_sel, "select, w = {w}");
            assert_eq!(project_au_exec(l, &proj, &exec(w)).unwrap(), seq_proj, "project, w = {w}");
        }
    }

    // normalizing one giant duplicated bucket (every tuple hashes into
    // a handful of shards, morsels heavily skewed)
    let mut messy = AuRelation::empty(bucket.schema.clone());
    for _ in 0..3 {
        messy.extend_from(&bucket);
    }
    let seq = messy.clone().into_normalized();
    for w in WORKERS {
        let mut par = messy.clone();
        par.normalize_with(&exec(w)).unwrap();
        assert_eq!(par, seq, "normalize, workers = {w}");
    }
}

#[test]
fn det_join_identical_across_worker_counts() {
    let l = all_same_key(200).sg_world();
    let r = all_same_key(150).sg_world();
    for pred in [Some(col(0).eq(col(2))), Some(col(1).lt(col(3))), None] {
        let seq = join_det_planned_exec(&l, &r, pred.as_ref(), &exec(1)).unwrap();
        for w in WORKERS {
            let par = join_det_planned_exec(&l, &r, pred.as_ref(), &exec(w)).unwrap();
            assert_eq!(par, seq, "workers = {w}, pred = {pred:?}");
        }
    }
}

/// γ's float folds read its input's row list, so a det join under γ
/// must emit the planner's order: a comparison join its sweep's pair
/// order, an equi join left row by left row. Non-dyadic sums over
/// duplicated keys round differently in any other order; the det
/// engine, its oracle and the AU engine's selected-guess world agree
/// bit for bit at every worker count.
#[test]
fn det_join_under_float_aggregate_keeps_emission_order() {
    let certain =
        |vs: Vec<Value>| RangeTuple::new(vs.into_iter().map(RangeValue::certain).collect());
    let rel = |n: usize, keys: i64, step: f64| {
        let rows = (0..n)
            .map(|i| {
                let x = Value::float(0.1 + step * (i % 17) as f64);
                (certain(vec![Value::Int(i as i64 % keys), x]), AuAnnot::triple(1, 1, 1))
            })
            .collect();
        AuRelation::from_rows(Schema::named(&["k", "x"]), rows)
    };
    let mut au = AuDatabase::new();
    au.insert("l", rel(1100, 37, 0.3));
    au.insert("r", rel(60, 23, 0.7));
    let det = au.sg_world();
    let aggs = || {
        vec![
            AggSpec::new(AggFunc::Sum, col(1), "sl"),
            AggSpec::new(AggFunc::Min, col(1), "ml"),
            AggSpec::new(AggFunc::Sum, col(3), "sr"),
            AggSpec::new(AggFunc::Min, col(3), "mr"),
        ]
    };
    for pred in [col(0).leq(col(2)), col(0).eq(col(2))] {
        let q = table("l").join_on(table("r"), pred.clone()).aggregate(vec![], aggs());
        let want = eval_det(&det, &q).unwrap();
        for w in WORKERS {
            let cfg = cfg_lanes(w);
            assert_eq!(
                eval_det_exec(&det, &q, &cfg.executor()).unwrap(),
                want,
                "{pred:?}, w = {w}"
            );
            assert_eq!(eval_det_exec(&det, &q, &exec(w)).unwrap(), want, "{pred:?}, w = {w}");
            assert_eq!(eval_au(&au, &q, &cfg).unwrap().sg_world(), want, "{pred:?}, w = {w}");
        }
    }
}

// ---------------------------------------------------------------------------
// resource governance: deadlines, cancellation, budgets
// ---------------------------------------------------------------------------

use std::time::Duration;

/// `t1`/`t2` sized so joins really expand: every key collides, so the
/// equi-join produces n × n output rows from 2n input rows.
fn expanding_db(n: usize) -> AuDatabase {
    let mut db = AuDatabase::new();
    db.insert("t1", all_same_key(n));
    db.insert("t2", all_same_key(n));
    db
}

fn expanding_join() -> Query {
    table("t1").join_on(table("t2"), col(0).eq(col(2)))
}

/// Acceptance: `AuConfig::timeout` surfaces `DeadlineExceeded` — the
/// token is armed before the first driver entry, so an already-expired
/// deadline trips at the very first morsel boundary, on both the
/// oracle and the lanes.
#[test]
fn zero_timeout_reports_deadline_exceeded() {
    let db = expanding_db(64);
    let q = expanding_join();
    let cfg = cfg_lanes(4).with_timeout(Duration::ZERO);
    for eval in [eval_oracle, eval_au] {
        let err = eval(&db, &q, &cfg).unwrap_err();
        assert_eq!(err, EvalError::Exec(ExecError::DeadlineExceeded));
    }
}

/// A generous deadline never trips: the governed run completes and is
/// byte-identical to the ungoverned reference.
#[test]
fn far_deadline_does_not_perturb_results() {
    let db = expanding_db(24);
    let q = expanding_join();
    let reference = eval_oracle(&db, &q, &AuConfig::default()).unwrap();
    for w in WORKERS {
        for split in splits() {
            let cfg = cfg_lanes(w)
                .with_timeout(Duration::from_secs(3600))
                .with_budget(BudgetSpec::unlimited());
            let got = eval_lanes(&db, &q, &cfg, &lanes_exec(&cfg, w, split)).unwrap();
            assert_eq!(got, reference, "workers = {w}, {split:?}");
        }
    }
}

/// External cancellation: the caller's own token on the derived
/// executor, tripped, stops the query with the structured `Cancelled`
/// verdict.
#[test]
fn cancelled_token_reports_cancelled() {
    let db = expanding_db(64);
    let q = expanding_join();
    let token = CancelToken::new();
    token.cancel();
    let (cfg, tr) = (cfg_lanes(4), TraceBuilder::disabled());
    let exec = cfg.executor().with_cancel(token);
    let oracle = AuPlan::oracle(&q, &cfg, &tr).run(&db, &exec, &tr);
    for out in [oracle, eval_au_attempt(&db, &q, &cfg, &exec, &tr)] {
        assert_eq!(out.unwrap_err(), EvalError::Exec(ExecError::Cancelled));
    }
}

/// Acceptance: a join whose probe expansion exceeds the row budget
/// reports `BudgetExceeded` naming the `join-probe` charging site, on
/// both engines — and the budget is per-query, so the same config
/// immediately evaluates a small query afterwards.
#[test]
fn row_budget_trips_naming_join_probe() {
    // 96 × 96 colliding keys → 9216 probe output rows, far past the cap
    let db = expanding_db(96);
    let q = expanding_join();
    let cfg = cfg_lanes(4).with_budget(BudgetSpec::rows(64));
    for eval in [eval_oracle, eval_au] {
        match eval(&db, &q, &cfg).unwrap_err() {
            EvalError::Exec(ExecError::BudgetExceeded { operator, resource, limit, attempted }) => {
                assert_eq!(operator, "join-probe");
                assert_eq!(resource, "rows");
                assert_eq!(limit, 64);
                assert!(attempted > limit, "attempted {attempted} must exceed limit {limit}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // fresh meters per query: a non-expanding query under the same
        // budgeted config still runs to completion
        let small = table("t1").select(col(1).geq(lit(10_000i64)));
        let out = eval(&db, &small, &cfg).unwrap();
        assert!(out.rows().is_empty());
    }
}

/// A byte budget trips too, through the same charge sites.
#[test]
fn byte_budget_trips() {
    let db = expanding_db(96);
    let q = expanding_join();
    let cfg = cfg_lanes(2).with_budget(BudgetSpec::bytes(512));
    match eval_au(&db, &q, &cfg).unwrap_err() {
        EvalError::Exec(ExecError::BudgetExceeded { resource, .. }) => {
            assert_eq!(resource, "bytes");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

/// The det engine's two paths govern a join alike: the chain's probe
/// (a join under a multiset-determined consumer) and the join operator
/// (under γ, which reads the exact row list) both charge the rows a
/// probe emits to `join-probe` as it emits them, so the budget trips
/// long before the 9 216-row expansion is built, and both observe the
/// deadline and cancellation.
#[test]
fn det_join_governance_matches_across_paths() {
    let db = expanding_db(96).sg_world();
    let counted = expanding_join().aggregate(vec![], vec![AggSpec::count("n")]);
    for w in [1, 4] {
        let cfg = cfg_lanes(w);
        let cancelled = || {
            let token = CancelToken::new();
            token.cancel();
            cfg.executor().with_cancel(token)
        };
        for q in [expanding_join(), counted.clone()] {
            let fail = |exec: Executor| match eval_det_exec(&db, &q, &exec).unwrap_err() {
                EvalError::Exec(e) => e,
                other => panic!("expected an exec verdict, got {other:?}, workers = {w}"),
            };
            match fail(cfg.with_budget(BudgetSpec::rows(64)).executor()) {
                ExecError::BudgetExceeded { operator, resource, attempted, .. } => {
                    assert_eq!((operator, resource), ("join-probe", "rows"), "workers = {w}");
                    assert!(attempted < 96 * 96, "attempted {attempted}, workers = {w}");
                }
                other => panic!("expected BudgetExceeded, got {other:?}, workers = {w}"),
            }
            match fail(cfg.with_budget(BudgetSpec::bytes(512)).executor()) {
                ExecError::BudgetExceeded { resource, .. } => assert_eq!(resource, "bytes"),
                other => panic!("expected BudgetExceeded, got {other:?}, workers = {w}"),
            }
            let deadline = fail(cfg.with_timeout(Duration::ZERO).executor());
            assert_eq!(deadline, ExecError::DeadlineExceeded, "workers = {w}");
            assert_eq!(fail(cancelled()), ExecError::Cancelled, "workers = {w}");
        }
    }
}

/// One left row's expansion is governed too. `t1`'s one row meets all
/// 10 000 rows of `t2` — as one hash bucket, or as one row's sweep
/// candidates — and every entry point of both engines (fused chain,
/// oracle plan, join operator) trips a 64-row budget at `join-probe`
/// within one pair batch, not after the row's whole expansion.
#[test]
fn one_left_rows_expansion_is_governed_on_every_path() {
    let mut au = AuDatabase::new();
    au.insert("t1", all_same_key(1));
    au.insert("t2", all_same_key(10_000));
    let det = au.sg_world();
    let (l, r) = (au.get("t1").unwrap(), au.get("t2").unwrap());
    let (dl, dr) = (det.get("t1").unwrap(), det.get("t2").unwrap());
    let tr = TraceBuilder::disabled();
    for pred in [col(0).eq(col(2)), col(0).leq(col(2))] {
        let q = table("t1").join_on(table("t2"), pred.clone());
        for w in [1, 4] {
            let cfg = cfg_lanes(w).with_budget(BudgetSpec::rows(64));
            let oracle = AuPlan::oracle(&q, &cfg, &tr);
            let verdicts = [
                ("eval_au", eval_au(&au, &q, &cfg).map(drop)),
                ("AuPlan::oracle", oracle.run(&au, &cfg.executor(), &tr).map(drop)),
                (
                    "join_au_planned_exec",
                    join_au_planned_exec(l, r, Some(&pred), &cfg.executor()).map(drop),
                ),
                ("eval_det_exec", eval_det_exec(&det, &q, &cfg.executor()).map(drop)),
                (
                    "join_det_planned_exec",
                    join_det_planned_exec(dl, dr, Some(&pred), &cfg.executor()).map(drop),
                ),
            ];
            for (path, verdict) in verdicts {
                let ctx = format!("{path}, {pred}, workers = {w}");
                match verdict {
                    Err(EvalError::Exec(ExecError::BudgetExceeded {
                        operator,
                        resource,
                        attempted,
                        ..
                    })) => {
                        assert_eq!((operator, resource), ("join-probe", "rows"), "{ctx}");
                        assert!(attempted <= 2048, "attempted {attempted}: {ctx}");
                    }
                    other => panic!("expected BudgetExceeded, got {other:?}: {ctx}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// deterministic fault injection (feature `faults`)
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
mod fault_matrix {
    use super::*;
    use audb::exec::faults::{with_plan, FaultKind, FaultPlan, FaultRule};
    use std::time::Duration;

    fn small_db() -> AuDatabase {
        let mut db = AuDatabase::new();
        db.insert("t1", all_same_key(40));
        db.insert("t2", all_same_key(30));
        db
    }

    /// Acceptance: an injected worker panic surfaces as the structured
    /// `WorkerPanic` (payload preserved), and the engine — same config,
    /// same process — runs the next query untouched. The rule is
    /// persistent so the lanes → oracle degradation retry hits
    /// it too and cannot silently recover.
    #[test]
    fn injected_panic_surfaces_structured_and_engine_recovers() {
        let db = small_db();
        let q = expanding_join();
        let cfg = cfg_lanes(4);
        let reference = eval_oracle(&db, &q, &AuConfig::default()).unwrap();

        let plan = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Panic)]);
        let err = with_plan(plan.clone(), || eval_au(&db, &q, &cfg)).unwrap_err();
        match err {
            EvalError::Exec(ExecError::WorkerPanic { payload, .. }) => {
                assert!(payload.contains("injected panic"), "payload preserved, got: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(plan.fired() >= 1, "the armed fault must actually fire");

        // recovery: the plan is uninstalled, the same config evaluates
        // the same query to the byte-identical result
        assert_eq!(eval_au(&db, &q, &cfg).unwrap(), reference);
    }

    /// Persistent injected *errors* surface as `ExecError::Injected`
    /// with the firing coordinates.
    #[test]
    fn injected_error_surfaces_structured() {
        let db = small_db();
        let q = expanding_join();
        let plan = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Error)]);
        let err = with_plan(plan, || eval_au(&db, &q, &cfg_lanes(2))).unwrap_err();
        match err {
            EvalError::Exec(ExecError::Injected { morsel, .. }) => assert_eq!(morsel, 0),
            other => panic!("expected Injected, got {other:?}"),
        }
    }

    /// A lane fault may not hide behind the oracle retry. A panic in a
    /// chain morsel fails the never-degrading attempt — the lanes side
    /// of every differential comparison — with the structured error,
    /// where `eval_au` under such a plan answers from the oracle (the
    /// next test) and would compare the oracle with itself.
    #[test]
    fn lane_fault_fails_the_lanes_side_of_the_comparison() {
        let (db, q, base) = (small_db(), expanding_join(), AuConfig::default());
        // driver 0 is the probe chain over t1: 40 morsels of one row
        let plan = FaultPlan::new(vec![FaultRule::once(0, 1, FaultKind::Panic)]);
        let exec = lanes_exec(&base, 2, common::FINEST);
        let err = with_plan(plan.clone(), || eval_lanes(&db, &q, &base, &exec)).unwrap_err();
        let panicked = matches!(&err, EvalError::Exec(ExecError::WorkerPanic { morsel: 1, .. }));
        assert!(panicked && plan.fired() == 1, "{err:?}");
    }

    /// Graceful degradation: a *one-shot* fault during the lane attempt
    /// is absorbed by the oracle retry — the query still returns
    /// the byte-identical result.
    #[test]
    fn one_shot_fault_is_absorbed_by_degradation() {
        let db = small_db();
        let q = expanding_join();
        let reference = eval_oracle(&db, &q, &AuConfig::default()).unwrap();
        let cfg = cfg_lanes(4);
        let plan = FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Error)]);
        let got = with_plan(plan.clone(), || eval_au(&db, &q, &cfg)).unwrap();
        assert_eq!(got, reference, "degraded run must be byte-identical");
        assert_eq!(plan.fired(), 1, "the fault fired and was absorbed");
    }

    /// A miss-addressed plan (a driver sequence number the query never
    /// reaches) fires nothing and perturbs nothing.
    #[test]
    fn zero_fault_run_is_byte_identical() {
        let db = small_db();
        let q = expanding_join();
        let reference = eval_oracle(&db, &q, &AuConfig::default()).unwrap();
        let plan = FaultPlan::new(vec![FaultRule::once(usize::MAX, 0, FaultKind::Panic)]);
        let got = with_plan(plan.clone(), || eval_au(&db, &q, &cfg_lanes(4))).unwrap();
        assert_eq!(got, reference);
        assert_eq!(plan.fired(), 0);
    }

    /// Regression: the split/compress join's first driver is governed.
    /// Its split normalizations used to run on an ungoverned sequential
    /// executor documented as infallible — which the fault harness
    /// reaches all the same, so a plan addressing driver 0 of a forced
    /// compression join panicked the query thread instead of failing the
    /// query.
    #[test]
    fn forced_compression_join_reports_a_driver_0_fault() {
        use audb::query::opt::optimized_join_exec;
        let (l, r) = (all_same_key(40), all_same_key(30));
        let pred = col(0).eq(col(2));
        let plan = FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Error)]);
        let got = with_plan(plan, || optimized_join_exec(&l, &r, Some(&pred), 2, &exec(1)));
        let injected = ExecError::Injected { driver: 0, morsel: 0 };
        assert_eq!(got.unwrap_err(), EvalError::Exec(injected));

        // end to end, on the lanes and on the oracle, with the rule
        // persistent so the degradation retry cannot absorb it
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        let (db, q) = (small_db(), expanding_join());
        for eval in [eval_au, eval_oracle] {
            let plan = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Panic)]);
            let err = with_plan(plan, || eval(&db, &q, &forced.with_workers(2)));
            assert!(matches!(err, Err(EvalError::Exec(ExecError::WorkerPanic { .. }))), "{err:?}");
        }
    }

    /// A probe whose one source row meets more matches than a pair batch
    /// holds: the budget trips at a flush in the middle of that row
    /// (`"join-probe"`), and a cancellation injected at the chain's
    /// morsel checkpoint stops it before the first batch.
    #[test]
    fn pair_batches_observe_budget_and_cancellation() {
        let mut db = AuDatabase::new();
        db.insert("t1", all_same_key(2));
        db.insert("t2", all_same_key(5000));
        let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
        let budgeted = cfg_lanes(1).with_budget(BudgetSpec::rows(3000));
        match eval_au(&db, &q, &budgeted).unwrap_err() {
            EvalError::Exec(ExecError::BudgetExceeded { operator, attempted, .. }) => {
                assert_eq!(operator, "join-probe");
                // charged per flush: the overshoot is bounded by one
                // pair batch, not by a source row
                assert!(attempted <= 3000 + 2048, "attempted {attempted}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        let cancellable = cfg_lanes(1).with_timeout(Duration::from_secs(3600));
        let plan = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Cancel)]);
        let err = with_plan(plan.clone(), || eval_au(&db, &q, &cancellable)).unwrap_err();
        assert_eq!(err, EvalError::Exec(ExecError::Cancelled));
        assert!(plan.fired() >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The fault matrix the ISSUE pins down: {panic, error, delay}
        /// injected at a random (driver, morsel) checkpoint, across the
        /// workers × splits grid, over the select/join/aggregate query
        /// corpus, on the never-degrading attempt. The contract:
        ///
        /// * a **delay** alone never changes the outcome — the run
        ///   completes byte-identical to the sequential reference;
        /// * a panic or error that fires surfaces as a *structured*
        ///   [`ExecError`] (never a wedge, never a garbled result, and
        ///   — no retry hiding it — never a silent success);
        /// * runs whose plan never fires are always byte-identical.
        #[test]
        fn fault_matrix_structured_error_or_identical(
            t1 in au_relation_strategy("A", "B", 10),
            t2 in au_relation_strategy("C", "D", 10),
            qi in 0usize..64,
            driver in 0usize..8,
            morsel in 0usize..6,
            kind_pick in 0usize..3,
            wi in 0usize..WORKERS.len(),
            si in 0usize..2,
        ) {
            let kind = [
                FaultKind::Panic,
                FaultKind::Error,
                FaultKind::Delay(Duration::from_millis(1)),
            ][kind_pick];
            let queries = pipeline_queries();
            let q = &queries[qi % queries.len()];
            let mut db = AuDatabase::new();
            db.insert("t1", t1);
            db.insert("t2", t2);

            let reference = eval_oracle(&db, q, &AuConfig::default()).unwrap();
            let base = AuConfig::default();
            let exec = lanes_exec(&base, WORKERS[wi], splits()[si]);
            let plan = FaultPlan::new(vec![FaultRule::once(driver, morsel, kind)]);
            let got = with_plan(plan.clone(), || eval_lanes(&db, q, &base, &exec));

            match got {
                Ok(out) => {
                    prop_assert!(
                        plan.fired() == 0 || matches!(kind, FaultKind::Delay(_)),
                        "a fired {:?} at ({}, {}) must fail the attempt, q = {}",
                        kind, driver, morsel, q
                    );
                    // completed runs are byte-identical, delay or not
                    prop_assert_eq!(
                        &out, &reference,
                        "kind = {:?}, driver = {}, morsel = {}, fired = {}, q = {}",
                        kind, driver, morsel, plan.fired(), q
                    );
                }
                Err(EvalError::Exec(e)) => {
                    prop_assert!(
                        plan.fired() >= 1,
                        "a run without a fired fault must not fail: {:?}", e
                    );
                    prop_assert!(
                        !matches!(kind, FaultKind::Delay(_)),
                        "a delay alone must never fail a query: {:?}", e
                    );
                    match e {
                        ExecError::WorkerPanic { ref payload, .. } => prop_assert!(
                            payload.contains("injected panic"),
                            "panic payload preserved, got: {}", payload
                        ),
                        ExecError::Injected { .. } => {}
                        ref other => prop_assert!(
                            false,
                            "unexpected structured fault {:?} for injected {:?}", other, kind
                        ),
                    }
                }
                Err(other) => prop_assert!(false, "non-structured failure: {:?}", other),
            }

            // whatever the fault did, the same executor evaluates the
            // same query again (plan uninstalled) to the identical result
            prop_assert_eq!(&eval_lanes(&db, q, &base, &exec).unwrap(), &reference);
        }
    }
}
