//! Equivalence of the interval-indexed join engine with the nested-loop
//! reference semantics: for randomized range-annotated inputs and every
//! predicate class the planner distinguishes (hash equi-join,
//! interval-comparison sweep, nested-loop fallback), the planned join
//! must produce — after `normalize()` — exactly the same `AuRelation`
//! as `nested_loop_join_au`.

mod common;

use proptest::prelude::*;

use audb::core::{col, Expr, LaneTag};
use audb::prelude::*;
use audb::query::au::join_au;
use audb::query::au::nested_loop_join_au;
use audb::query::planner::{classify, JoinStrategy};
use common::relation_strategy;

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// Range values mixing certain ints, proper ranges, domain-wide
/// unknowns, and floats (whose `value_eq`/total-order mismatch is the
/// nastiest equivalence edge case).
fn range_value_strategy() -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        (-4i64..5).prop_map(|v| RangeValue::certain(Value::Int(v))),
        (-4i64..5, 0i64..3, 0i64..3).prop_map(|(a, d1, d2)| RangeValue::range(a - d1, a, a + d2)),
        (-4i64..5).prop_map(|v| RangeValue::unknown(Value::Int(v))),
        (-4i64..5).prop_map(|v| RangeValue::certain(Value::float(v as f64))),
    ]
}

/// One predicate from each planner class (and the cross product).
fn predicate_strategy() -> impl Strategy<Value = Option<Expr>> {
    prop_oneof![
        // hash equi-join class
        Just(Some(col(0).eq(col(2)))),
        Just(Some(col(1).eq(col(3)))),
        Just(Some(col(0).eq(col(2)).and(col(1).eq(col(3))))),
        // interval comparison class, all four operators and both
        // operand orders
        Just(Some(col(0).leq(col(2)))),
        Just(Some(col(0).lt(col(3)))),
        Just(Some(col(1).geq(col(2)))),
        Just(Some(col(3).gt(col(0)))),
        Just(Some(col(2).leq(col(1)))),
        // nested-loop fallback class
        Just(Some(col(0).add(col(1)).leq(col(2)))),
        Just(Some(col(0).eq(col(2)).or(col(1).eq(col(3))))),
        Just(None),
    ]
}

// ---------------------------------------------------------------------------
// the property
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The planner-selected strategy is undetectable from the result.
    #[test]
    fn planned_join_equals_nested_loop(
        l in relation_strategy(range_value_strategy, ["a", "b"], 8),
        r in relation_strategy(range_value_strategy, ["c", "d"], 8),
        pred in predicate_strategy()
    ) {
        let planned = join_au(&l, &r, pred.as_ref()).expect("planned join");
        let reference = nested_loop_join_au(&l, &r, pred.as_ref()).expect("nested loop");
        prop_assert_eq!(
            planned.normalized(),
            reference.normalized(),
            "strategy {:?} diverged for predicate {:?}",
            classify(pred.as_ref(), 2),
            pred
        );
    }
}

// ---------------------------------------------------------------------------
// every key path of the one build side
// ---------------------------------------------------------------------------

/// A column kind whose cells all share one type, so its lane is typed:
/// `Int` and `Float` lanes, or a `Str` lane of codes into the relation's
/// own dictionary.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Str,
}

const WORDS: [&str; 6] = ["ant", "bee", "cat", "dog", "eel", "fox"];

/// A cell of `kind` on rung `i` (0..6) of a small ordered domain, so keys
/// collide and ranges overlap across kinds alike.
fn rung(kind: Kind, i: i64) -> Value {
    match kind {
        Kind::Int => Value::Int(i - 2),
        Kind::Float => Value::float((i - 2) as f64 * 0.5),
        Kind::Str => Value::str(WORDS[i as usize]),
    }
}

/// A certain cell of `kind`, or a proper range (`lb < ub`) of it.
fn typed_cell(kind: Kind, certain: bool) -> BoxedStrategy<RangeValue> {
    if certain {
        (0i64..6).prop_map(move |i| RangeValue::certain(rung(kind, i))).boxed()
    } else {
        (0i64..3, 0i64..2, 1i64..3)
            .prop_map(move |(i, d1, d2)| {
                RangeValue::range(rung(kind, i), rung(kind, i + d1), rung(kind, i + d1 + d2))
            })
            .boxed()
    }
}

/// Two-column relations of one `kind`, holding at least one row with a
/// certain first column and one with an uncertain one.
fn typed_relation(kind: Kind, names: [&'static str; 2]) -> impl Strategy<Value = AuRelation> {
    let cell = move || prop_oneof![typed_cell(kind, true), typed_cell(kind, false)];
    let annot =
        (0u64..2, 0u64..2, 1u64..3).prop_map(|(a, b, c)| AuAnnot::triple(a, a + b, a + b + c));
    let row = move |key: BoxedStrategy<RangeValue>| (key, cell(), annot.clone());
    let forced = (row(typed_cell(kind, true)), row(typed_cell(kind, false)));
    (forced, proptest::collection::vec(row(cell().boxed()), 0..6)).prop_map(
        move |(forced, more)| {
            let rows = [forced.0, forced.1].into_iter().chain(more);
            let rows = rows.map(|(a, b, k)| (RangeTuple::new(vec![a, b]), k)).collect();
            AuRelation::from_rows(Schema::named(&names), rows)
        },
    )
}

/// The hash and comparison predicates over two two-column relations.
fn keyed_predicate_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(col(0).eq(col(2))),
        Just(col(0).eq(col(2)).and(col(1).eq(col(3)))),
        Just(col(0).leq(col(2))),
        Just(col(1).gt(col(2))),
        Just(col(3).lt(col(0))),
    ]
}

/// Two relations of one kind.
fn typed_pair_strategy() -> impl Strategy<Value = (Kind, AuRelation, AuRelation)> {
    let pair = |kind| {
        (typed_relation(kind, ["a", "b"]), typed_relation(kind, ["c", "d"]))
            .prop_map(move |(l, r)| (kind, l, r))
            .boxed()
    };
    prop_oneof![pair(Kind::Int), pair(Kind::Float), pair(Kind::Str)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The nested loop checks every key path of the one AU build side:
    /// typed `Int` and `Float` key lanes, `Str` keys across two tables
    /// (two dictionaries: the index keys and sweeps on strings) and in a
    /// self-join (one dictionary: on codes), certain and uncertain keys
    /// on both sides, hash and comparison plans.
    #[test]
    fn planned_join_equals_nested_loop_on_typed_and_string_keys(
        inputs in typed_pair_strategy(),
        pred in keyed_predicate_strategy()
    ) {
        let (kind, l, r) = inputs;
        let tag = match kind {
            Kind::Int => LaneTag::Int,
            Kind::Float => LaneTag::Float,
            Kind::Str => LaneTag::Str,
        };
        for rel in [&l, &r] {
            let lanes = rel.columns();
            prop_assert!(lanes.lanes().iter().all(|lane| lane.tag() == tag), "{:?} lanes", kind);
        }
        for (left, right) in [(&l, &r), (&l, &l)] {
            let planned = join_au(left, right, Some(&pred)).expect("planned join");
            let reference = nested_loop_join_au(left, right, Some(&pred)).expect("nested loop");
            prop_assert_eq!(
                planned.normalized(),
                reference.normalized(),
                "{:?} keys, strategy {:?}, predicate {}",
                kind,
                classify(Some(&pred), 2),
                pred
            );
        }
    }
}

// ---------------------------------------------------------------------------
// targeted deterministic cases
// ---------------------------------------------------------------------------

/// Every predicate class the property above exercises really maps to the
/// intended strategy (guards against the property silently testing
/// nested-loop against itself).
#[test]
fn predicate_classes_cover_all_strategies() {
    assert_eq!(classify(Some(&col(0).eq(col(2))), 2), JoinStrategy::HashEqui(vec![(0, 0)]));
    assert!(matches!(
        classify(Some(&col(0).leq(col(2))), 2),
        JoinStrategy::IntervalComparison { .. }
    ));
    assert_eq!(classify(Some(&col(0).add(col(1)).leq(col(2))), 2), JoinStrategy::NestedLoop);
    assert_eq!(classify(None, 2), JoinStrategy::NestedLoop);
}

/// Int/Float keys: `value_eq`-equal but distinct in the total order —
/// the hash path must agree with the nested loop's range semantics.
#[test]
fn mixed_numeric_keys_match_nested_loop() {
    let l = AuRelation::from_rows(
        Schema::named(&["a"]),
        vec![
            (RangeTuple::new(vec![RangeValue::certain(Value::Int(2))]), AuAnnot::certain_one()),
            (RangeTuple::new(vec![RangeValue::certain(Value::float(3.0))]), AuAnnot::certain_one()),
        ],
    );
    let r = AuRelation::from_rows(
        Schema::named(&["b"]),
        vec![
            (RangeTuple::new(vec![RangeValue::certain(Value::float(2.0))]), AuAnnot::certain_one()),
            (RangeTuple::new(vec![RangeValue::certain(Value::Int(3))]), AuAnnot::certain_one()),
        ],
    );
    let pred = col(0).eq(col(1));
    let planned = join_au(&l, &r, Some(&pred)).unwrap().normalized();
    let reference = nested_loop_join_au(&l, &r, Some(&pred)).unwrap().normalized();
    assert_eq!(planned, reference);
}

/// The deterministic engine's planner paths agree with predicates
/// written so the classifier cannot fire (forcing the nested loop).
#[test]
fn det_planned_paths_match_obfuscated_fallback() {
    let mut db = Database::new();
    let rows = |vals: &[(i64, i64)]| -> Vec<(Tuple, u64)> {
        vals.iter().map(|(a, b)| ([*a, *b].into_iter().collect(), 1)).collect()
    };
    db.insert(
        "r",
        Relation::from_rows(
            Schema::named(&["a", "b"]),
            rows(&[(1, 10), (2, 20), (3, 30), (2, 21)]),
        ),
    );
    db.insert(
        "s",
        Relation::from_rows(Schema::named(&["c", "d"]), rows(&[(2, 5), (3, 7), (9, 1)])),
    );

    // equality: hash path vs leq∧geq (undetectable)
    let q_hash = table("r").join_on(table("s"), col(0).eq(col(2)));
    let q_slow = table("r").join_on(table("s"), col(0).leq(col(2)).and(col(0).geq(col(2))));
    assert_eq!(eval_det(&db, &q_hash).unwrap(), eval_det(&db, &q_slow).unwrap());

    // comparison: sweep path vs ¬(>) (undetectable)
    let q_sweep = table("r").join_on(table("s"), col(0).leq(col(2)));
    let q_slow = table("r").join_on(table("s"), col(0).gt(col(2)).not());
    assert_eq!(eval_det(&db, &q_sweep).unwrap(), eval_det(&db, &q_slow).unwrap());
}

/// `Int` join keys compare as integers, never as their `f64` casts:
/// `2^53` and `2^53 + 1` share a cast (and a hash bucket) but no value,
/// so their equi-join is empty on the deterministic engine (as the
/// chain's probe and as the join operator under γ) and in the AU
/// engine's SG world — what the `≤ ∧ ≥` form of the same join, which no
/// hash index serves, returns. `Int 2` still meets `Float 2.0`.
#[test]
fn int_keys_beyond_f64_precision_join_exactly() {
    let big = 1i64 << 53;
    let one = |name: &str, v: Value| {
        Relation::from_rows(Schema::named(&[name]), vec![(Tuple::new(vec![v]), 1)])
    };
    for (l, r, rows) in [
        (Value::Int(big), Value::Int(big + 1), 0),
        (Value::Int(big + 1), Value::Int(big), 0),
        (Value::Int(big), Value::Int(big), 1),
        (Value::Int(2), Value::float(2.0), 1),
    ] {
        let mut db = Database::new();
        db.insert("l", one("a", l.clone()));
        db.insert("r", one("b", r.clone()));
        let au = AuDatabase::from_certain(&db);
        let hash = table("l").join_on(table("r"), col(0).eq(col(1)));
        let slow = table("l").join_on(table("r"), col(0).leq(col(1)).and(col(0).geq(col(1))));
        let ctx = format!("{l} = {r}");
        for q in [&hash, &slow] {
            let det = eval_det(&db, q).unwrap();
            assert_eq!(det.rows().len(), rows, "eval_det: {ctx}, {q}");
            let counted = q.clone().aggregate(vec![], vec![AggSpec::count("n")]);
            let n = eval_det(&db, &counted).unwrap().rows()[0].0 .0[0].clone();
            assert_eq!(n, Value::Int(rows as i64), "join operator: {ctx}, {q}");
            let sg = eval_au(&au, q, &AuConfig::default()).unwrap().sg_world();
            assert_eq!(sg, det, "eval_au's SG world: {ctx}, {q}");
        }
    }
}
