//! Cross-crate semantic checks: the paper's running examples end to end,
//! and the relationships between AU-DBs and every baseline
//! (under-approximation, over-approximation, exactness) on shared inputs.

mod common;

use proptest::prelude::*;

use audb::baselines::{
    eval_libkin, run_maybms, run_symb, trio::eval_trio, xrelation_to_vtable, VDatabase,
};
use audb::core::Semiring;
use audb::incomplete::relation_bounds_world;
use audb::prelude::*;
use audb::query::au::difference::{difference_au_exec, difference_au_scan};
use audb::query::planner::join_det_planned_exec;
use audb::workloads::{exact_spj, over_grouping_pct};
use common::{eval_oracle, weighted_xtuple};

// ---------------------------------------------------------------------------
// the paper's Figure 1 example, end to end
// ---------------------------------------------------------------------------

/// Figure 1: the COVID example — group-average over data with uncertain
/// attributes, verified against full world enumeration.
#[test]
fn figure_1_covid_example() {
    // model sizes ordinally: 0=village, 1=town, 2=city, 3=metro;
    // rates in tenths of a percent. Small domains keep the worlds
    // enumerable; this is a faithful scaled-down Figure 1.
    let mk = |rates: &[i64], sizes: &[i64]| -> XTuple {
        let mut alts = Vec::new();
        for r in rates {
            for s in sizes {
                alts.push([Value::Int(*r), Value::Int(*s)].into_iter().collect::<Tuple>());
            }
        }
        let p = 1.0 / alts.len() as f64;
        let mut weighted: Vec<(Tuple, f64)> = alts.into_iter().map(|t| (t, p)).collect();
        weighted[0].1 += 1e-9;
        let norm: f64 = weighted.iter().map(|(_, q)| q).sum();
        for w in weighted.iter_mut() {
            w.1 /= norm;
        }
        XTuple::new(weighted)
    };
    let mut xdb = XDb::default();
    xdb.insert(
        "locales",
        XRelation::new(
            Schema::named(&["rate", "size"]),
            vec![
                mk(&[30, 40], &[3]),     // Los Angeles: rate in {3%, 4%}
                mk(&[180], &[2, 3]),     // Austin: city or metro
                mk(&[140], &[3]),        // Houston
                mk(&[10, 30], &[1, 2]),  // Berlin
                mk(&[10], &[0, 1, 3]),   // Sacramento: size unknown
                mk(&[0, 50, 100], &[1]), // Springfield: rate unknown
            ],
        ),
    );
    let q = table("locales")
        .aggregate(vec![1], vec![AggSpec::new(AggFunc::Avg, audb::core::col(0), "rate")]);
    let au = eval_au(&xdb.to_au(), &q, &AuConfig::precise()).unwrap();
    let inc = xdb.to_incomplete(1 << 12).expect("enumerable");
    let exact = inc.eval(&q).unwrap();
    for w in &exact.worlds {
        assert!(relation_bounds_world(&au, w));
    }
    assert_eq!(au.sg_world().normalized(), exact.sg_world().normalized());
    // the metro group certainly exists (Houston is certainly a metro)
    let metro = au.rows().iter().find(|(t, _)| t.0[0].sg == Value::Int(3)).expect("metro group");
    assert!(metro.1.lb >= 1);
}

// ---------------------------------------------------------------------------
// baseline relationships on random inputs
// ---------------------------------------------------------------------------

fn xtuple_strategy() -> impl Strategy<Value = XTuple> {
    let alt = (0i64..3, 0i64..5)
        .prop_map(|(g, v)| [Value::Int(g), Value::Int(v)].into_iter().collect::<Tuple>());
    (proptest::collection::vec(alt, 1..3), prop_oneof![Just(1.0f64), Just(0.5f64)])
        .prop_map(|(alts, total)| weighted_xtuple(alts, total))
}

fn xdb_strategy() -> impl Strategy<Value = XDb> {
    proptest::collection::vec(xtuple_strategy(), 0..4).prop_map(|r| {
        let mut db = XDb::default();
        db.insert("r", XRelation::new(Schema::named(&["g", "v"]), r));
        db
    })
}

fn spj_query_strategy() -> impl Strategy<Value = Query> {
    prop_oneof![
        Just(table("r")),
        (-1i64..5).prop_map(|k| table("r").select(audb::core::col(0).leq(audb::core::lit(k)))),
        (-1i64..5).prop_map(|k| {
            table("r")
                .select(audb::core::col(1).gt(audb::core::lit(k)))
                .project(vec![(audb::core::col(0), "g"), (audb::core::col(1), "v")])
        }),
        Just(
            table("r")
                .join_on(table("r"), audb::core::col(0).eq(audb::core::col(2)))
                .project(vec![(audb::core::col(0), "g"), (audb::core::col(3), "v")])
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Libkin's certain-answer under-approximation really is an
    /// under-approximation: every null-free answer it returns is a
    /// certain answer under possible-worlds semantics.
    #[test]
    fn libkin_under_approximates(db in xdb_strategy(), q in spj_query_strategy()) {
        let Some(inc) = db.to_incomplete(512) else { return Ok(()) };
        let mut vdb = VDatabase::default();
        // V-tables cannot express optionality: restrict to databases
        // where every x-tuple certainly exists.
        if db.relations.iter().any(|(_, r)| r.xtuples.iter().any(|x| x.is_optional())) {
            return Ok(());
        }
        vdb.insert("r", xrelation_to_vtable(db.get("r").unwrap(), vec![Value::Int(0)]));
        let (_, rows) = eval_libkin(&vdb, &q).expect("libkin");
        let exact = inc.eval(&q).unwrap();
        let certain = exact.certain_tuples();
        for row in &rows {
            let consts: Option<Tuple> = row
                .iter()
                .map(|c| match c {
                    audb::incomplete::VCell::Const(v) => Some(v.clone()),
                    _ => None,
                })
                .collect::<Option<Vec<_>>>()
                .map(Tuple::new);
            if let Some(t) = consts {
                prop_assert!(certain.contains(&t), "{t} returned but not certain");
            }
        }
    }

    /// MayBMS-style expansion over-approximates the possible answers.
    #[test]
    fn maybms_over_approximates(db in xdb_strategy(), q in spj_query_strategy()) {
        let Some(inc) = db.to_incomplete(512) else { return Ok(()) };
        let poss = run_maybms(&db, &q).expect("maybms");
        let exact = inc.eval(&q).unwrap();
        for t in exact.all_tuples() {
            prop_assert!(poss.multiplicity(&t) > 0, "possible {t} missed");
        }
    }

    /// Trio's lineage evaluation is *exact* for SPJ: its distinct tuples
    /// are precisely the possible answers, and its certainty test agrees
    /// with world enumeration.
    #[test]
    fn trio_is_exact_for_spj(db in xdb_strategy(), q in spj_query_strategy()) {
        let Some(inc) = db.to_incomplete(512) else { return Ok(()) };
        let trio = eval_trio(&db, &q).expect("trio");
        let exact = inc.eval(&q).unwrap();
        let possible = exact.all_tuples();
        let trio_tuples: std::collections::BTreeSet<Tuple> =
            trio.distinct_tuples().into_iter().collect();
        prop_assert_eq!(&trio_tuples, &possible);
        let certain = exact.certain_tuples();
        for t in &possible {
            if let Some(c) = trio.is_certain(&db, t, 4096) {
                prop_assert_eq!(c, certain.contains(t), "certainty of {}", t);
            }
        }
    }

    /// Symb (exhaustive enumeration) produces exactly the per-key bounds
    /// of the true possible worlds for an aggregate query.
    #[test]
    fn symb_is_exact(db in xdb_strategy()) {
        let Some(inc) = db.to_incomplete(512) else { return Ok(()) };
        let q = table("r").aggregate(
            vec![0],
            vec![AggSpec::new(AggFunc::Sum, audb::core::col(1), "s")],
        );
        let Some(bounds) = run_symb(&db, &q, &[0], 1, 4096).expect("symb") else {
            return Ok(());
        };
        let exact = inc.eval(&q).unwrap();
        for (key, (lo, hi, _)) in &bounds.per_key {
            let mut wmin: Option<Value> = None;
            let mut wmax: Option<Value> = None;
            for w in &exact.worlds {
                for (t, _) in w.rows() {
                    if &t.project(&[0]) == key {
                        let v = t.0[1].clone();
                        wmin = Some(wmin.map_or(v.clone(), |m| Value::min_of(m, v.clone())));
                        wmax = Some(wmax.map_or(v.clone(), |m| Value::max_of(m, v)));
                    }
                }
            }
            prop_assert_eq!(Some(lo.clone()), wmin);
            prop_assert_eq!(Some(hi.clone()), wmax);
        }
    }

    /// `exact_spj`'s ground truth agrees with world enumeration (it is
    /// what Figure 17's accuracy metrics are computed against).
    #[test]
    fn exact_spj_agrees_with_enumeration(db in xdb_strategy(), q in spj_query_strategy()) {
        let Some(inc) = db.to_incomplete(512) else { return Ok(()) };
        let (possible, certain) = exact_spj(&db, &q, 4096).expect("exact");
        let exact = inc.eval(&q).unwrap();
        prop_assert_eq!(possible, exact.all_tuples());
        prop_assert_eq!(certain, exact.certain_tuples());
    }

    /// UA-DB evaluation under-approximates certain multiplicities for
    /// RA+ (the Feng et al. 2019 guarantee our baseline relies on).
    #[test]
    fn uadb_certain_under_approximates(db in xdb_strategy(), q in spj_query_strategy()) {
        let Some(inc) = db.to_incomplete(512) else { return Ok(()) };
        // build the UA-DB: SG tuples, certain iff the x-tuple is certain
        let mut ua = UaDatabase::new();
        for (name, rel) in &db.relations {
            let mut r = UaRelation::empty(rel.schema.clone());
            for xt in &rel.xtuples {
                if xt.sg_present() {
                    r.push(
                        xt.pick_max().clone(),
                        UaAnnot::new((!xt.is_uncertain()) as u64, 1),
                    );
                }
            }
            r.normalize();
            ua.insert(name.clone(), r);
        }
        let out = eval_ua(&ua, &q).expect("ua");
        let exact = inc.eval(&q).unwrap();
        for (t, k) in out.rows() {
            prop_assert!(
                k.certain <= exact.certain_multiplicity(t),
                "UA certain {} exceeds true certain {} for {}",
                k.certain,
                exact.certain_multiplicity(t),
                t
            );
        }
    }

    /// Over-grouping is zero exactly when all group-by values are
    /// certain.
    #[test]
    fn over_grouping_sanity(db in xdb_strategy()) {
        let au = db.to_au();
        let rel = au.get("r").unwrap();
        let pct = over_grouping_pct(rel, &[0]);
        prop_assert!(pct >= 0.0);
        let all_certain = rel.rows().iter().all(|(t, _)| t.0[0].is_certain());
        if all_certain {
            prop_assert_eq!(pct, 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// SGW preservation at the multiplicity boundary: `N` saturates
// ---------------------------------------------------------------------------

/// One certain row `1` at multiplicity `k` under each name.
fn big_db(tables: &[(&str, u64)]) -> AuDatabase {
    let mut db = AuDatabase::new();
    for (name, k) in tables {
        let row = au_row(vec![RangeValue::certain(Value::Int(1))], *k, *k, *k);
        db.insert(*name, AuRelation::from_rows(Schema::named(&["a"]), vec![row]));
    }
    db
}

/// The AU result's selected-guess world equals SGQP, and its rows
/// carry the multiplicities `expect`.
fn assert_sgw_preserved(db: &AuDatabase, q: &Query, expect: &[u64]) {
    let sg = eval_au(db, q, &AuConfig::default()).expect("au").sg_world();
    let sgdb = db.sg_world();
    assert_eq!(eval_det(&sgdb, q).expect("det"), sg, "det, q = {q}");
    let mults: Vec<u64> = sg.rows().iter().map(|(_, k)| *k).collect();
    assert_eq!(mults, expect, "q = {q}");
}

/// Regression: det multiplied and summed multiplicities unchecked — a
/// product of 2^80 wrapped to 0 in release (SGQP answered the empty
/// relation) and panicked under the `checked` profile — where the AU
/// engine's `N` saturates.
#[test]
fn sgqp_saturates_multiplicities_like_the_au_engine() {
    let db = big_db(&[("l", 1 << 40), ("r", 1 << 40), ("h", 1 << 63), ("s", 5)]);
    // products: the join operator on each plan, alone and at the root
    let hash = col(0).eq(col(1));
    let comparison = col(0).leq(col(1));
    let nested_loop = col(0).add(col(1)).eq(lit(2i64));
    let sgdb = db.sg_world();
    let (l, r) = (sgdb.get("l").expect("l"), sgdb.get("r").expect("r"));
    for on in [hash, comparison, nested_loop] {
        let joined = join_det_planned_exec(l, r, Some(&on), &Executor::sequential()).expect("join");
        let mults: Vec<u64> = joined.rows().iter().map(|(_, k)| *k).collect();
        assert_eq!(mults, [u64::MAX], "join operator, on {on}");
        assert_sgw_preserved(&db, &table("l").join_on(table("r"), on), &[u64::MAX]);
    }
    // sums: duplicates merged by normalization, on either side of a monus
    let doubled = table("h").union(table("h"));
    assert_sgw_preserved(&db, &doubled, &[u64::MAX]);
    assert_sgw_preserved(&db, &doubled.clone().difference(table("s")), &[u64::MAX - 5]);
    assert_sgw_preserved(&db, &table("s").difference(doubled.clone()), &[]);

    // a count past `i64::MAX` has no agreed `Value`: only "no panic"
    let count = doubled.aggregate(vec![], vec![AggSpec::count("c")]);
    let _ = eval_det(&db.sg_world(), &count);
    let _ = UaAnnot::new(u64::MAX, u64::MAX).plus(&UaAnnot::new(1, 1));
}

/// Regression (Theorem 4): set difference summed the subtrahend's
/// multiplicities unchecked. Two tuples that may equal `(1)` with
/// `ub = 2^63` each made `Σ ub` wrap to 0, and the result claimed that
/// `(1)` *certainly* survives a subtrahend that may hold 2^64 copies of
/// it (`lb = 1`; a panic under the `checked` profile). All three sums —
/// `Σ ub` over the overlapping tuples, `Σ sg` per SG tuple, `Σ lb` over
/// the certain ones — saturate like `N`'s `+`, in the indexed operator
/// and in its scan.
#[test]
fn difference_saturates_the_subtrahend_sums() {
    let half = 1u64 << 63;
    let cell = |lb: i64, sg: i64, ub: i64| RangeTuple::new(vec![RangeValue::range(lb, sg, ub)]);
    let rel = |rows| AuRelation::from_rows(Schema::named(&["a"]), rows);
    let l = rel(vec![(cell(1, 1, 1), AuAnnot::certain_one())]);
    let possible = AuAnnot::triple(0, 0, half);
    let r = rel(vec![(cell(0, 1, 2), possible), (cell(0, 1, 3), possible)]);
    let guessed = AuAnnot::triple(0, half, half);
    let s = rel(vec![(cell(1, 1, 2), guessed), (cell(1, 1, 3), guessed)]);
    // only an un-normalized subtrahend lists one certain tuple twice
    let mut c = AuRelation::empty(Schema::named(&["a"]));
    c.push(cell(1, 1, 1), AuAnnot::triple(half, half, half));
    c.push(cell(1, 1, 1), AuAnnot::triple(half, half, half));

    let mut db = AuDatabase::new();
    for (name, rel) in [("l", &l), ("r", &r), ("s", &s)] {
        db.insert(name, rel.clone());
    }
    let annots = |out: AuRelation| out.rows().iter().map(|(_, k)| *k).collect::<Vec<_>>();
    for (sub, name, expect) in [
        (&r, "r", vec![AuAnnot::triple(0, 1, 1)]), // Σ ub = 2^64: nothing is certain
        (&s, "s", vec![AuAnnot::triple(0, 0, 1)]), // Σ sg = 2^64: gone from the SG world
        (&c, "c", vec![]),                         // Σ lb = 2^64: certainly gone
    ] {
        let exec = difference_au_exec(&l, sub, &Executor::sequential()).expect("indexed");
        assert_eq!(annots(exec), expect, "l − {name}, indexed");
        assert_eq!(annots(difference_au_scan(&l, sub).expect("scan")), expect, "l − {name}, scan");
        if name != "c" {
            let q = table("l").difference(table(name));
            for eval in [eval_au, eval_oracle] {
                let out = eval(&db, &q, &AuConfig::default()).expect("eval");
                assert_eq!(annots(out), expect, "{q}");
            }
        }
    }
}

/// Regression (wrapped at the parent: 0 in release, an overflow panic
/// under `--profile checked`): `possible_size` and `total_count` are sums
/// in `N` and saturate — whichever side of the relation they read.
#[test]
fn possible_size_and_total_count_saturate() {
    let half = 1u64 << 63;
    let cell = |ub: i64| RangeTuple::new(vec![RangeValue::range(0i64, 1i64, ub)]);
    let rows = vec![(cell(2), AuAnnot::triple(0, 0, half)), (cell(3), AuAnnot::triple(0, 0, half))];
    let rel = AuRelation::from_rows(Schema::named(&["a"]), rows);
    assert_eq!(rel.possible_size(), u64::MAX);
    rel.warm_columns();
    assert_eq!(rel.possible_size(), u64::MAX, "read off the lanes");

    let det = Relation::from_rows(
        Schema::named(&["a"]),
        vec![([1i64].into_iter().collect(), half), ([2i64].into_iter().collect(), half)],
    );
    assert_eq!(det.total_count(), u64::MAX);
}

/// Saturated upper bounds are what joins of joins produce: a two-join
/// result over `ub = 2^40` inputs carries `ub = u64::MAX` on every row
/// (precise) or on its one possible row next to the SG rows (compressed),
/// and its possible size is `u64::MAX` — not the sum's low bits (2, for
/// the compressed result).
#[test]
fn possible_size_of_a_two_join_result_saturates() {
    let mut db = AuDatabase::new();
    for name in ["t1", "t2", "t3"] {
        let rows = (1..=3).map(|k| certain_row(&[k], 1, 1, 1 << 40)).collect();
        db.insert(name, AuRelation::from_rows(Schema::named(&["k"]), rows));
    }
    let q =
        table("t1").join_on(table("t2"), col(0).eq(col(1))).join_on(table("t3"), col(1).eq(col(2)));
    for cfg in [AuConfig::compressed(1), AuConfig { adaptive: false, ..AuConfig::compressed(1) }] {
        let out = eval_au(&db, &q, &cfg).expect("eval");
        assert!(out.len() >= 2, "{cfg:?}");
        assert!(out.rows().iter().any(|(_, k)| k.ub == u64::MAX), "{cfg:?}");
        assert_eq!(out.possible_size(), u64::MAX, "{cfg:?}");
        assert_eq!(out.sg_world().total_count(), 3, "{cfg:?}");
    }
}
