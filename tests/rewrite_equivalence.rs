//! Theorem 8 as a property: evaluating a query natively over an AU-DB
//! equals encoding the database relationally, running the rewritten
//! query on the deterministic engine, and decoding —
//! `Q(D) = Dec(Q_merge(rewr(Q))(Enc(D)))` — on randomized inputs and
//! plans.

use proptest::prelude::*;

use audb::prelude::*;

fn range_strategy() -> impl Strategy<Value = RangeValue> {
    proptest::collection::vec(-4i64..8, 3).prop_map(|mut v| {
        v.sort_unstable();
        RangeValue::range(v[0], v[1], v[2])
    })
}

fn annot_strategy() -> impl Strategy<Value = AuAnnot> {
    proptest::collection::vec(0u64..3, 3).prop_map(|mut v| {
        v.sort_unstable();
        AuAnnot::triple(v[0], v[1], (v[2]).max(1))
    })
}

fn au_relation_strategy(arity: usize) -> impl Strategy<Value = AuRelation> {
    proptest::collection::vec(
        (proptest::collection::vec(range_strategy(), arity), annot_strategy()),
        0..5,
    )
    .prop_map(move |rows| {
        let schema = Schema::new((0..arity).map(|i| format!("c{i}")).collect());
        AuRelation::from_rows(
            schema,
            rows.into_iter().map(|(rs, k)| (RangeTuple::new(rs), k)).collect(),
        )
    })
}

fn au_db_strategy() -> impl Strategy<Value = AuDatabase> {
    (au_relation_strategy(2), au_relation_strategy(2)).prop_map(|(r, s)| {
        let mut db = AuDatabase::new();
        db.insert("r", r);
        db.insert("s", s);
        db
    })
}

fn select_leq(q: Query, k: i64) -> Query {
    q.select(col(0).leq(lit(k)))
}

fn project_diff(q: Query) -> Query {
    q.project(vec![(col(1), "a"), (col(0).sub(col(1)), "b")])
}

fn join_project(a: Query, b: Query) -> Query {
    a.join_on(b, col(0).eq(col(2))).project(vec![(col(0), "a"), (col(3), "b")])
}

fn sum_count(q: Query) -> Query {
    q.aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::count("c")])
}

fn query_strategy() -> impl Strategy<Value = Query> {
    let leaf = prop_oneof![Just(table("r")), Just(table("s"))];
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), -2i64..6).prop_map(|(q, k)| select_leq(q, k)),
            (inner.clone(), -2i64..6).prop_map(|(q, k)| q.select(col(1).eq(lit(k)))),
            inner.clone().prop_map(project_diff),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| join_project(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
            inner.clone().prop_map(|q| q.distinct()),
            inner.clone().prop_map(|q| sum_count(q).project(vec![(col(0), "a"), (col(1), "b")])),
            inner.clone().prop_map(|q| {
                q.aggregate(
                    vec![1],
                    vec![
                        AggSpec::new(AggFunc::Min, col(0), "lo"),
                        AggSpec::new(AggFunc::Max, col(0), "hi"),
                    ],
                )
                .project(vec![(col(1), "a"), (col(2), "b")])
            }),
            inner.prop_map(|q| {
                q.aggregate(
                    vec![],
                    vec![
                        AggSpec::new(AggFunc::Avg, col(1), "a"),
                        AggSpec::new(AggFunc::Sum, col(0), "s"),
                    ],
                )
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn native_equals_rewrite(db in au_db_strategy(), q in query_strategy()) {
        let native = eval_au(&db, &q, &AuConfig::precise()).expect("native");
        let via = eval_via_rewrite(&db, &q).expect("rewrite");
        prop_assert_eq!(&native, &via, "mismatch for {}", q);
    }

    /// Enc/Dec is lossless on arbitrary AU-relations (Theorem 8's
    /// invertibility part).
    #[test]
    fn enc_dec_roundtrip(rel in au_relation_strategy(3)) {
        use audb::query::rewrite::{dec_relation, enc_relation};
        let enc = enc_relation(&rel);
        let dec = dec_relation(&enc, &rel.schema).unwrap();
        prop_assert_eq!(dec, rel);
    }
}

/// Theorem 8 past the 1 024-row chunk seam: `r` holds 1 100 rows
/// `(i mod 50, i)` and `s` 60 of them (`i = 17j + 3`), every 97th row of
/// each with a width-2 range on its join key and the annotation
/// `(0, 1, 2)`. σ, the projected equi-join, γ `sum` / `count` over it,
/// `r − s` and `δ(π(r))` agree between native precise evaluation and the
/// rewrite on the deterministic engine.
#[test]
fn native_equals_rewrite_across_the_chunk_seam() {
    let rel = |is: Vec<i64>| {
        let rows = is.iter().enumerate().map(|(n, &i)| {
            let (key, annot) = if n % 97 == 0 {
                (RangeValue::range(i % 50 - 1, i % 50, i % 50 + 1), AuAnnot::triple(0, 1, 2))
            } else {
                (RangeValue::certain(Value::Int(i % 50)), AuAnnot::certain_one())
            };
            (RangeTuple::new(vec![key, RangeValue::certain(Value::Int(i))]), annot)
        });
        AuRelation::from_rows(Schema::named(&["k", "v"]), rows.collect())
    };
    let mut db = AuDatabase::new();
    db.insert("r", rel((0..1100).collect()));
    db.insert("s", rel((0..60).map(|j| 17 * j + 3).collect()));
    assert_eq!((db.get("r").unwrap().len(), db.get("s").unwrap().len()), (1100, 60));

    let (r, s) = (table("r"), table("s"));
    let queries = [
        select_leq(r.clone(), 20),
        join_project(r.clone(), s.clone()),
        sum_count(join_project(r.clone(), s.clone())),
        r.clone().difference(s),
        project_diff(r).distinct(),
    ];
    for q in &queries {
        let native = eval_au(&db, q, &AuConfig::precise()).expect("native");
        let via = eval_via_rewrite(&db, q).expect("rewrite");
        assert_eq!(native, via, "mismatch for {q}");
    }
}
