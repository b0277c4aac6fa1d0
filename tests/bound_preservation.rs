//! Property-based validation of the paper's central results: for random
//! incomplete databases and random `RA^agg` queries, the AU-DB query
//! result *bounds* the query result in every possible world
//! (Theorems 3, 4, 6; Corollary 2) — decided exactly by the max-flow
//! tuple-matching checker (Definitions 15–17). The same properties are
//! asserted for the compressed evaluation paths (Lemmas 10.1, 10.2).

mod common;

use proptest::prelude::*;

use audb::core::LaneTag;
use audb::prelude::*;
use common::{check_bounds, check_bounds_under, weighted_xtuple};

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// A small x-tuple over (group, value) pairs with tiny domains so worlds
/// stay enumerable and collisions are common. A total below 0.5 leaves
/// the x-tuple out of the SG world: with one alternative it is a TI-DB
/// tuple of `p < 0.5` (Theorem 9).
fn xtuple_strategy() -> impl Strategy<Value = XTuple> {
    let alt = (0i64..4, -3i64..6)
        .prop_map(|(g, v)| [Value::Int(g), Value::Int(v)].into_iter().collect::<Tuple>());
    let total = prop_oneof![Just(1.0f64), Just(0.5f64), Just(0.3f64)];
    (proptest::collection::vec(alt, 1..3), total)
        .prop_map(|(alts, total)| weighted_xtuple(alts, total))
}

fn xdb_strategy() -> impl Strategy<Value = XDb> {
    (
        proptest::collection::vec(xtuple_strategy(), 0..4),
        proptest::collection::vec(xtuple_strategy(), 0..3),
    )
        .prop_map(|(r, s)| {
            let mut db = XDb::default();
            db.insert("r", XRelation::new(Schema::named(&["g", "v"]), r));
            db.insert("s", XRelation::new(Schema::named(&["g", "v"]), s));
            db
        })
}

/// Random `RA^agg` plans, all of output arity 2 so they compose freely.
fn query_strategy() -> impl Strategy<Value = Query> {
    let leaf = prop_oneof![Just(table("r")), Just(table("s"))];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            // selection on either column
            (inner.clone(), 0usize..2, -2i64..5, 0u8..4).prop_map(|(q, c, k, op)| {
                let pred = match op {
                    0 => col(c).leq(lit(k)),
                    1 => col(c).eq(lit(k)),
                    2 => col(c).gt(lit(k)),
                    _ => col(0).leq(col(1)),
                };
                q.select(pred)
            }),
            // projections keeping arity 2
            inner.clone().prop_map(|q| q.project(vec![(col(1), "a"), (col(0), "b")])),
            inner.clone().prop_map(|q| q.project(vec![(col(0), "a"), (col(0).add(col(1)), "b")])),
            // join on the first column, projected back to arity 2
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                a.join_on(b, col(0).eq(col(2)))
                    .project(vec![(col(0), "g"), (col(1).add(col(3)), "v")])
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
            inner.clone().prop_map(|q| q.distinct()),
            // aggregation: group by g, sum + count
            inner.clone().prop_map(|q| {
                q.aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")])
            }),
            inner.clone().prop_map(|q| {
                q.aggregate(vec![0], vec![AggSpec::new(AggFunc::Min, col(1), "m")])
                    .project(vec![(col(0), "g"), (col(1), "m")])
            }),
            // aggregation without group-by (padded back to arity 2)
            inner.prop_map(|q| {
                q.aggregate(
                    vec![],
                    vec![
                        AggSpec::new(AggFunc::Sum, col(1), "s"),
                        AggSpec::new(AggFunc::Max, col(0), "m"),
                    ],
                )
            }),
        ]
    })
}

// ---------------------------------------------------------------------------
// the property (`common::check_bounds`)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Corollary 2 (precise evaluation).
    #[test]
    fn ra_agg_preserves_bounds_precise(db in xdb_strategy(), q in query_strategy()) {
        check_bounds(&db, &q, &AuConfig::precise())?;
    }

    /// Lemmas 10.1 / 10.2: the compressed paths still preserve bounds —
    /// on the lanes, where compressed configurations run, and on the
    /// oracle they are differentially tested against.
    #[test]
    fn ra_agg_preserves_bounds_compressed(db in xdb_strategy(), q in query_strategy()) {
        check_bounds(&db, &q, &AuConfig::compressed(2))?;
    }

    /// The translations bound their inputs (Theorem 10) even before any
    /// query runs.
    #[test]
    fn translation_bounds_input(db in xdb_strategy()) {
        if let Some(inc) = db.to_incomplete(512) {
            let au = db.to_au();
            prop_assert!(database_bounds_incomplete(&au, &inc));
        }
    }
}

// ---------------------------------------------------------------------------
// aggregation ground truth on the default path: Float column, + × inputs
// ---------------------------------------------------------------------------

/// x-tuples over `(g: Int, v: Float, w: Int)`. `v` takes multiples of
/// 0.25, so every sum and product below is exact in `f64` and the
/// world-by-world results do not depend on summation order — any value
/// outside the AU bounds is a soundness bug, not rounding.
fn float_xtuple_strategy() -> impl Strategy<Value = XTuple> {
    let alt = (0i64..3, -8i64..9, -2i64..4).prop_map(|(g, v, w)| {
        Tuple::new(vec![Value::Int(g), Value::float(v as f64 * 0.25), Value::Int(w)])
    });
    (proptest::collection::vec(alt, 1..3), prop_oneof![Just(1.0f64), Just(0.5f64)])
        .prop_map(|(alts, total)| weighted_xtuple(alts, total))
}

/// Every database holds one certain tuple, so the SG world is never
/// empty: over an empty SG world the ungrouped Float `sum` has the SG
/// component `Float(0.0)` (`0.0 × 0` copies) where deterministic
/// evaluation says `Int(0)` — numerically equal, a different domain
/// value. That mismatch predates the typed kernel (which reproduces the
/// boxed fold bit for bit); it is recorded in ROADMAP item 5.
fn float_xdb_strategy() -> impl Strategy<Value = XDb> {
    proptest::collection::vec(float_xtuple_strategy(), 0..5).prop_map(|mut r| {
        let anchor = vec![Value::Int(0), Value::float(0.25), Value::Int(1)];
        r.push(XTuple::certain(Tuple::new(anchor)));
        let mut db = XDb::default();
        db.insert("r", XRelation::new(Schema::named(&["g", "v", "w"]), r));
        db
    })
}

/// All five aggregate functions, over the Float column and over
/// arithmetic (`+`, `×`) inputs mixing Float and Int columns.
fn float_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, col(1), "s"),
        AggSpec::count("c"),
        AggSpec::new(AggFunc::Min, col(1), "lo"),
        AggSpec::new(AggFunc::Max, col(1).mul(col(2)).add(lit(1i64)), "hi"),
        AggSpec::new(AggFunc::Avg, col(1).add(col(2)), "a"),
        AggSpec::new(AggFunc::Sum, col(1).mul(lit(2i64)).add(col(2)), "p"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// World enumeration through `eval_au` on the default (typed-lane)
    /// aggregation path, grouped and ungrouped, under the precise, the
    /// adaptive-compressed and the forced-compressed configurations
    /// (tiny inputs never reach the adaptive threshold, so the last one
    /// is what actually compresses the possible side) — each on the
    /// lanes and on the oracle.
    #[test]
    fn float_arith_aggregates_preserve_bounds(db in float_xdb_strategy(), grouped in 0u8..2) {
        let group_by = if grouped == 1 { vec![0] } else { vec![] };
        let q = table("r").aggregate(group_by, float_aggs());
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        for cfg in [AuConfig::default(), AuConfig::compressed(2), forced] {
            check_bounds(&db, &q, &cfg)?;
        }
    }
}

// ---------------------------------------------------------------------------
// join ground truth on the default path: σ → ⋈ → σ → π over a Float column
// ---------------------------------------------------------------------------

/// Two relations of `(g: Int, v: Float, w: Int)` x-tuples, each with a
/// certain anchor tuple (see [`float_xdb_strategy`]); few enough
/// x-tuples that the worlds stay enumerable.
fn float_join_xdb_strategy() -> impl Strategy<Value = XDb> {
    let side = || proptest::collection::vec(float_xtuple_strategy(), 0..3);
    (side(), side()).prop_map(|(mut r, mut s)| {
        r.push(XTuple::certain(Tuple::new(vec![Value::Int(0), Value::float(0.25), Value::Int(1)])));
        s.push(XTuple::certain(Tuple::new(vec![Value::Int(0), Value::float(-0.5), Value::Int(2)])));
        let mut db = XDb::default();
        db.insert("r", XRelation::new(Schema::named(&["g", "v", "w"]), r));
        db.insert("s", XRelation::new(Schema::named(&["g", "v", "w"]), s));
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// World enumeration through `eval_au` on the default config — the
    /// fused chain's pair batches over the lanes — and on the oracle the
    /// lanes are differentially tested against: a pre-probe selection,
    /// a hash-equi (Int key; or an Int key against a Float one — typed
    /// indexes of two endpoint types) or interval-comparison (Float key)
    /// probe, an arithmetic post-selection over Float columns of both
    /// sides and an arithmetic projection. Multiples of 0.25 keep every
    /// sum and product exact, so a world outside the bounds is a
    /// soundness bug.
    #[test]
    fn float_join_spine_preserves_bounds(
        db in float_join_xdb_strategy(),
        probe in 0usize..3,
        pre in -2i64..3,
        post in -8i64..9,
    ) {
        let on = [col(0).eq(col(3)), col(1).leq(col(4)), col(2).eq(col(4))][probe].clone();
        let q = table("r")
            .select(col(2).geq(lit(pre)))
            .join_on(table("s"), on)
            .select(col(1).add(col(4)).lt(lit(post as f64 * 0.25)))
            .project(vec![
                (col(0), "g"),
                (col(1).mul(col(5)).add(col(4)), "p"),
                (col(2).sub(col(5)), "d"),
            ]);
        check_bounds(&db, &q, &AuConfig::default())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// γ directly over ⋈: the aggregate folds the probe chain's own row
    /// list — order-faithful delivery, only the read columns built —
    /// and, under forced compression, the split/compress join's output.
    /// A Float measure over both sides' columns; an Int or a Float join
    /// key; grouped by an Int column of either side or by the Float key.
    /// (Grouped only: an ungrouped Float `sum` over an empty SG world has
    /// the SG component `Float(0.0)` where deterministic evaluation says
    /// `Int(0)` — see [`float_xdb_strategy`].)
    #[test]
    fn float_join_aggregate_preserves_bounds(
        db in float_join_xdb_strategy(),
        float_key in 0u8..2,
        group in 0usize..3,
        post in -8i64..9,
    ) {
        let on = if float_key == 1 { col(1).eq(col(4)) } else { col(0).eq(col(3)) };
        let q = table("r")
            .join_on(table("s"), on)
            .select(col(1).add(col(4)).lt(lit(post as f64 * 0.25)))
            .aggregate(
                vec![[0, 5, 4][group]],
                vec![
                    AggSpec::new(AggFunc::Sum, col(1).mul(col(5)).add(col(4)), "s"),
                    AggSpec::count("c"),
                    AggSpec::new(AggFunc::Min, col(4), "lo"),
                ],
            );
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        for cfg in [AuConfig::default(), AuConfig::compressed(2), forced] {
            check_bounds(&db, &q, &cfg)?;
        }
    }
}

/// Deterministic regression of the classic difference pitfall
/// (Section 8.2): pointwise monus would under-report; ours must bound.
#[test]
fn difference_bounds_regression() {
    let mut db = XDb::default();
    db.insert(
        "r",
        XRelation::new(
            Schema::named(&["g", "v"]),
            vec![XTuple::certain([1i64, 0].into_iter().collect())],
        ),
    );
    db.insert(
        "s",
        XRelation::new(
            Schema::named(&["g", "v"]),
            vec![XTuple::new(vec![
                ([1i64, 0].into_iter().collect(), 0.5),
                ([2i64, 0].into_iter().collect(), 0.5),
            ])],
        ),
    );
    let q = table("r").difference(table("s"));
    check_bounds(&db, &q, &AuConfig::precise()).unwrap();
}

/// Ground truth across the 1 024-row chunk seam on `Str` lanes: 3 000
/// distinct certain rows `(k, v, s)` plus six x-tuples whose alternatives differ
/// in a string (two of them optional: 144 worlds), sorted so that the
/// uncertain rows sit on both sides of row 1 024. A `Str` σ literal —
/// present in the column, or absent from it — and `Str` γ keys, on the
/// lanes and on the oracle plan, precise and with aggregation buckets,
/// bound every world's answer (Theorems 3/4) and encode its SG world.
#[test]
fn str_lanes_bound_every_world_across_the_chunk_seam() {
    let key = |i: i64| Value::str(format!("k{:02}", i % 13));
    let row = |k: Value, v: i64, s: &str| Tuple::new(vec![k, Value::Int(v), Value::str(s)]);
    let mut rows: Vec<XTuple> =
        (0..3000).map(|i| XTuple::certain(row(key(i), i, ["x", "y"][i as usize % 2]))).collect();
    for (j, (a, b, total)) in
        [(3, 4, 1.0), (4, 5, 1.0), (5, 4, 0.5), (4, 6, 1.0), (5, 3, 0.5), (4, 4, 1.0)]
            .into_iter()
            .enumerate()
    {
        let s = if j == 5 { ["x", "z"] } else { ["y", "y"] };
        let alts = vec![row(key(a), j as i64, s[0]), row(key(b), 10 + j as i64, s[1])];
        rows.push(weighted_xtuple(alts, total));
    }
    let mut db = XDb::default();
    db.insert("t", XRelation::new(Schema::named(&["k", "v", "s"]), rows));
    let t = db.to_au().get("t").unwrap().clone();
    let uncertain: Vec<usize> =
        (0..t.len()).filter(|&i| !t.rows()[i].0 .0.iter().all(RangeValue::is_certain)).collect();
    assert!(uncertain.len() == 6 && uncertain[0] < 1024 && uncertain[5] >= 1024, "{uncertain:?}");
    assert_eq!(t.columns().lane(0).tag(), LaneTag::Str);

    let sums = || vec![AggSpec::new(AggFunc::Sum, col(1), "v"), AggSpec::count("n")];
    let queries = [
        table("t").select(col(0).eq(lit("k04"))).aggregate(vec![], sums()),
        table("t").select(col(0).leq(lit("k04x"))).aggregate(vec![0], sums()),
        table("t").select(col(2).neq(lit("y"))).aggregate(vec![0, 2], sums()),
        table("t").aggregate(vec![2, 0], sums()),
    ];
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(4) };
    for q in &queries {
        for cfg in [AuConfig::default(), forced] {
            check_bounds(&db, q, &cfg.with_workers(1))
                .unwrap_or_else(|e| panic!("{q}, {cfg:?}: {e}"));
        }
    }
}

/// Ground truth for `−`, `∪` and δ across the 1 024-row chunk seam on
/// typed lanes: two tables of 3 000 certain `(i, f, s)` rows (`Int`,
/// `Float`, `Str`) that agree but for every hundredth row, whose `r`
/// string is one `l` does not hold (each table's strings a dictionary of
/// its own), plus six x-tuples around row 1 024: one optional, six
/// uncertain cells, 64 worlds. A difference against a `Str` selection, a
/// grouped count and sum over the union (the checker is quadratic in the
/// output, so the 6 000-row union is read through γ) and a distinct
/// projection — on the lanes and on the oracle plan, precise and
/// `compressed(64)`, at one and four workers — bound every world's
/// answer (Theorems 4 and 6) and encode its SG world.
#[test]
fn set_operators_bound_every_world_across_the_chunk_seam() {
    let row = |i: i64, f: f64, s: &str| Tuple::new(vec![Value::Int(i), Value::float(f), s.into()]);
    let xrel = |odd_one: &str, uncertain: Vec<XTuple>| {
        let s = |i: i64| if i % 100 == 7 { odd_one } else { ["x", "y"][i as usize % 2] };
        let certain = (0..3000).map(|i| XTuple::certain(row(i, i as f64 * 0.5, s(i))));
        XRelation::new(Schema::named(&["i", "f", "s"]), certain.chain(uncertain).collect())
    };
    let alts = |a: Tuple, b: Tuple| weighted_xtuple(vec![a, b], 1.0);
    let l = vec![
        alts(row(1020, 510.0, "x"), row(1022, 510.0, "x")),
        alts(row(1024, 512.0, "x"), row(1024, 512.0, "q")),
        weighted_xtuple(vec![row(1026, 513.0, "x")], 0.5),
        alts(row(1028, 514.0, "y"), row(1030, 515.5, "y")),
    ];
    let r = vec![
        alts(row(1021, 510.5, "y"), row(1021, 511.0, "y")),
        alts(row(1032, 516.0, "w"), row(1032, 516.0, "x")),
    ];
    let mut db = XDb::default();
    db.insert("l", xrel("y", l));
    db.insert("r", xrel("w", r));
    let au = db.to_au();
    for name in ["l", "r"] {
        let t = au.get(name).unwrap();
        let uncertain: Vec<usize> = (0..t.len())
            .filter(|&i| !t.rows()[i].0 .0.iter().all(RangeValue::is_certain))
            .collect();
        assert!(uncertain[0] < 1024 && uncertain[uncertain.len() - 1] >= 1024, "{uncertain:?}");
        let tags: Vec<LaneTag> = (0..3).map(|c| t.columns().lane(c).tag()).collect();
        assert_eq!(tags, [LaneTag::Int, LaneTag::Float, LaneTag::Str], "{name}");
    }

    let sums = || vec![AggSpec::count("n"), AggSpec::new(AggFunc::Sum, col(1), "f")];
    let queries = [
        table("l").difference(table("r").select(col(2).neq(lit("w")))),
        table("l").union(table("r")).aggregate(vec![2], sums()),
        table("l").project(vec![(col(2), "s"), (col(0).geq(lit(1021i64)), "late")]).distinct(),
    ];
    let cfgs: Vec<AuConfig> = [AuConfig::default(), AuConfig::compressed(64)]
        .into_iter()
        .flat_map(|cfg| [1, 4].map(|workers| cfg.with_workers(workers)))
        .collect();
    for q in &queries {
        check_bounds_under(&db, q, &cfgs).unwrap_or_else(|e| panic!("{q}: {e}"));
    }
}

/// Ground truth across the 1 024-row chunk seam for the two projections
/// that always leave the typed kernels for the per-row sweep: `÷`
/// (its spans-zero guard is scalar) and `If` (branches merge row by
/// row). 3 000 certain `(i, a, d)` rows (`Int`, `Int`, `Float`) plus
/// eight binary x-tuples at rows 1 018–1 032 whose numerator straddles
/// the `If` threshold and whose denominator stays in {1, 2, 4} in every
/// world (256 worlds). Quotients are multiples of 0.25, so every sum is
/// exact in `f64`. The checker is quadratic in the output, so each
/// projection is read through an ungrouped `sum` / `min` / `max` — on
/// the lanes and on the oracle plan, precise and `compressed(64)`, at
/// one and four workers — which must bound every world's answer and
/// encode its SG world.
#[test]
fn division_and_if_bound_every_world_across_the_chunk_seam() {
    let denom = |j: i64| Value::float([1.0, 2.0, 4.0][j.rem_euclid(3) as usize]);
    let row = |i: i64, a: i64, d: Value| Tuple::new(vec![Value::Int(i), Value::Int(a), d]);
    let mut rows: Vec<XTuple> =
        (0..3000).map(|i| XTuple::certain(row(i, i % 41 - 8, denom(i)))).collect();
    for j in 0..8 {
        let i = 1018 + 2 * j;
        let alts = vec![row(i, 15 + j, denom(j)), row(i, 25 - j, denom(j + 1))];
        rows.push(weighted_xtuple(alts, 1.0));
    }
    let mut db = XDb::default();
    db.insert("t", XRelation::new(Schema::named(&["i", "a", "d"]), rows));
    assert!(db.to_incomplete(512).is_some(), "the worlds must be enumerated, not skipped");
    let t = db.to_au().get("t").unwrap().clone();
    let uncertain: Vec<usize> =
        (0..t.len()).filter(|&i| !t.rows()[i].0 .0.iter().all(RangeValue::is_certain)).collect();
    assert!(uncertain.len() == 8 && uncertain[0] < 1024 && uncertain[7] >= 1024, "{uncertain:?}");
    let tags: Vec<LaneTag> = (0..3).map(|c| t.columns().lane(c).tag()).collect();
    assert_eq!(tags, [LaneTag::Int, LaneTag::Int, LaneTag::Float]);

    let read = |e: Expr| {
        let aggs = [(AggFunc::Sum, "s"), (AggFunc::Min, "lo"), (AggFunc::Max, "hi")];
        table("t")
            .project(vec![(e, "x")])
            .aggregate(vec![], aggs.map(|(f, name)| AggSpec::new(f, col(0), name)).to_vec())
    };
    let queries = [
        read(col(1).div(col(2))),
        read(Expr::if_then_else(col(1).leq(lit(20i64)), col(1), col(2))),
    ];
    let cfgs: Vec<AuConfig> = [AuConfig::default(), AuConfig::compressed(64)]
        .into_iter()
        .flat_map(|cfg| [1, 4].map(|workers| cfg.with_workers(workers)))
        .collect();
    for q in &queries {
        check_bounds_under(&db, q, &cfgs).unwrap_or_else(|e| panic!("{q}: {e}"));
    }
}
