//! Bounds in sampled worlds (Theorems 3/4/6 at scale, without world
//! enumeration): for an AU input `D` and a world `W` that `D` bounds
//! (`sample_bounded_world`), `{SG(D), W}` is an incomplete database `D`
//! bounds, so `Q(D)` must bound `Q(W)` — checked exactly with
//! `relation_bounds_world` against the deterministic engine's `Q(W)`.
//!
//! The inputs are `Int`-valued AU relations of 600–3 000 rows, about
//! 5 % of them uncertain (a widened cell, a multiplicity range or both),
//! and the rows around the 1 024-row chunk seam are always uncertain.
//! Each case runs under `precise`, `compressed(8)` and `compressed(8)`
//! with `adaptive` off (compression forced at every join and γ —
//! `AuConfig::default()` is `precise`), against the same fixed-seed
//! worlds. The serving engine is checked the same way: a few cases served
//! cold, warm and after a mid-run `publish`. A third suite runs over a
//! `Float` / `Str` / `Int` relation, so that chains, probes, breakers and
//! γ read typed `Float`, dictionary-coded `Str` and `Bool` lanes. A
//! fourth runs TPC-H Q1/Q3/Q5/Q7/Q10 over an uncertain x-DB, against
//! worlds of the x-DB itself. A fifth mixes `Int` and `Float` cells in
//! one column, so the AU engine reads boxed lanes and its join meets
//! `Int` keys with `Float` keys. One case runs a join spine over stored
//! tables twice, so the second run probes the build the first one kept.
//!
//! Float `sum`s are left out: the AU engine and the det engine add a
//! float column up in different orders, and a bound can miss the world's
//! sum by 1–2 ULP. That waits for a declared float semantics; every
//! column here is compared exactly.

use audb::incomplete::{relation_bounds_world, sample_bounded_world};
use audb::prelude::*;
use audb::serve::{Class, Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worlds drawn per case.
const WORLDS: usize = 12;

/// An `Int` AU relation of `n` rows: `cols(i)` is row `i`'s tuple. Rows
/// 1 020..1 030, and every other row with probability 1/20, are
/// uncertain: each cell is widened by up to 2 on either side with
/// probability 1/2, and the multiplicity becomes a range.
fn au_table(names: &[&str], n: usize, seed: u64, cols: impl Fn(i64) -> Vec<i64>) -> AuRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|i| {
            let uncertain = (1020..1030).contains(&i) || rng.gen_range(0..20) == 0;
            let cells = cols(i as i64)
                .into_iter()
                .map(|v| match uncertain && rng.gen_bool(0.5) {
                    true => {
                        RangeValue::range(v - rng.gen_range(0..3i64), v, v + rng.gen_range(0..3i64))
                    }
                    false => RangeValue::certain(Value::Int(v)),
                })
                .collect();
            let (lb, ub) =
                if uncertain { (rng.gen_range(0..2), rng.gen_range(1..3)) } else { (1, 1) };
            au_row(cells, lb, 1, ub.max(1))
        })
        .collect();
    AuRelation::from_rows(Schema::named(names), rows)
}

/// `t1`: 3 000 rows `(k, v) = (i % 300, i)`; `t2`: 600 rows
/// `(c, w) = (i, 7i % 100)`.
fn db() -> AuDatabase {
    db_seeded(11)
}

/// [`db`]'s tables, their uncertainty drawn from `seed` and `seed + 1`.
fn db_seeded(seed: u64) -> AuDatabase {
    let mut db = AuDatabase::new();
    db.insert("t1", au_table(&["k", "v"], 3000, seed, |i| vec![i % 300, i]));
    db.insert("t2", au_table(&["c", "w"], 600, seed + 1, |i| vec![i, i * 7 % 100]));
    db
}

fn aggs(input: usize) -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, col(input), "s"),
        AggSpec::count("n"),
        AggSpec::new(AggFunc::Min, col(input), "lo"),
        AggSpec::new(AggFunc::Max, col(input), "hi"),
    ]
}

/// The query shapes, each a few hundred rows out at most:
/// `relation_bounds_world` is quadratic in the result, not the inputs.
fn cases() -> Vec<(&'static str, Query)> {
    let kept = || table("t1").select(col(1).lt(lit(300i64)));
    let spine = || kept().join_on(table("t2"), col(0).eq(col(2)));
    let keys = |q: Query| q.project(vec![(col(0), "k")]);
    vec![
        (
            "join spine",
            spine()
                .select(col(1).add(col(3)).geq(lit(10i64)))
                .project(vec![(col(0), "k"), (col(1).add(col(3)), "vw")]),
        ),
        (
            "range-join count",
            table("t1")
                .join_on(table("t2"), col(1).leq(col(3)))
                .aggregate(vec![], vec![AggSpec::count("n")]),
        ),
        ("one-key γ", table("t1").select(col(0).lt(lit(25i64))).aggregate(vec![0], aggs(1))),
        ("ungrouped γ", table("t1").aggregate(vec![], aggs(1))),
        (
            "difference",
            keys(table("t1").select(col(0).lt(lit(60i64)))).difference(keys(table("t2"))),
        ),
        ("distinct", keys(table("t1").select(col(1).lt(lit(900i64)))).distinct()),
        (
            "join + γ",
            spine().aggregate(
                vec![0],
                vec![AggSpec::new(AggFunc::Sum, col(3), "s"), AggSpec::count("n")],
            ),
        ),
    ]
}

#[test]
fn results_bound_sampled_worlds() {
    let db = db();
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [
        ("precise", AuConfig::precise()),
        ("compressed(8)", AuConfig::compressed(8)),
        ("forced compressed(8)", forced),
    ];
    for (name, q) in cases() {
        let results: Vec<(&str, AuRelation)> = configs
            .iter()
            .map(|(c, cfg)| {
                (*c, eval_au(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}")))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for w in 0..WORLDS {
            let world = sample_bounded_world(&db, &mut rng);
            let want = eval_det(&world, &q).unwrap_or_else(|e| panic!("{name}, world {w}: {e}"));
            for (c, au) in &results {
                assert!(
                    relation_bounds_world(au, &want),
                    "{name} under {c}: world {w} not bounded\nQ(W) = {want}\nQ(D) = {au}"
                );
            }
        }
    }
}

/// The serving engine bounds sampled worlds too: the join spine, one-key
/// γ and − served through `Engine::execute` cold (a prepared-plan miss),
/// warm (a hit) and once more after a `publish` of a second database,
/// each response checked against 4 worlds drawn from the database of its
/// own epoch.
#[test]
fn served_results_bound_sampled_worlds() {
    const SERVED_WORLDS: usize = 4;
    let dbs = [db(), db_seeded(21)];
    let mut rng = StdRng::seed_from_u64(0x5e4e);
    let worlds: Vec<Vec<Database>> = dbs
        .iter()
        .map(|db| (0..SERVED_WORLDS).map(|_| sample_bounded_world(db, &mut rng)).collect())
        .collect();
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [("precise", AuConfig::precise()), ("forced compressed(8)", forced)];
    let served = ["join spine", "one-key γ", "difference"];
    for (name, q) in cases().into_iter().filter(|(name, _)| served.contains(name)) {
        let wants: Vec<Vec<Relation>> =
            worlds.iter().map(|ws| ws.iter().map(|w| eval_det(w, &q).unwrap()).collect()).collect();
        for (c, cfg) in &configs {
            let config = EngineConfig { eval: *cfg, worker_threads: 0, ..EngineConfig::default() };
            let engine = Engine::new(dbs[0].clone(), config);
            let serve = |step: &str, epoch: u64, hit: bool| {
                let resp = engine
                    .execute(&q, Class::Interactive)
                    .unwrap_or_else(|e| panic!("{name} under {c}, {step}: {e}"));
                assert_eq!(
                    (resp.epoch, resp.prepared_hit),
                    (epoch, hit),
                    "{name} under {c}, {step}"
                );
                for (w, want) in wants[epoch as usize].iter().enumerate() {
                    assert!(
                        relation_bounds_world(&resp.relation, want),
                        "{name} under {c}, {step}: world {w} of epoch {epoch} not bounded\n\
                         Q(W) = {want}\nQ(D) = {}",
                        resp.relation
                    );
                }
            };
            serve("cold", 0, false);
            serve("warm", 0, true);
            assert_eq!(engine.publish(dbs[1].clone()), 1);
            serve("after publish", 1, false);
        }
    }
}

/// A stored join spine run twice bounds sampled worlds: the second run
/// reuses the probe build the first kept beside `t1`'s lanes
/// (`build=kept` under `precise`), agrees with the first, and has no
/// violation under any config.
#[test]
fn stored_spine_run_twice_bounds_sampled_worlds() {
    let db = db();
    let (name, q) = cases().into_iter().next().expect("the join spine");
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [
        ("precise", AuConfig::precise()),
        ("compressed(8)", AuConfig::compressed(8)),
        ("forced compressed(8)", forced),
    ];
    let mut rng = StdRng::seed_from_u64(0x6b65);
    let wants: Vec<Relation> =
        (0..WORLDS).map(|_| eval_det(&sample_bounded_world(&db, &mut rng), &q).unwrap()).collect();
    for (c, cfg) in &configs {
        let first = eval_au(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}"));
        let (second, trace) = eval_au_traced(&db, &q, cfg).unwrap();
        assert_eq!(second, first, "{name} under {c}: the second run");
        if *c == "precise" {
            let fused = trace.root.find("fused-chain").expect("fused chain span");
            assert_eq!(fused.attr("build"), Some("kept"), "{name} under {c}");
        }
        let violations = wants.iter().filter(|want| !relation_bounds_world(&second, want)).count();
        assert_eq!(violations, 0, "{name} under {c}: worlds not bounded");
    }
}

/// The dictionary of [`typed_db`]'s `Str` column, in sorted order.
const WORDS: [&str; 7] = ["amber", "birch", "cedar", "dune", "elm", "fern", "gale"];

/// `t3`: 3 000 rows `(f, s, k) = (i % 500 / 2, WORDS[i % 7], i % 100)`
/// — `Float`, `Str`, `Int` — all distinct; `t4`: 200 rows
/// `(c, w) = (i % 50, i)`. Rows 1 020..1 030 of `t3`, and every other
/// row of either with probability 1/20, are uncertain: `f` widens by up
/// to 1.5 either side, `s` to its dictionary neighbours, an `Int` by up
/// to 2, each with probability 1/2, and the multiplicity becomes a range.
fn typed_db() -> AuDatabase {
    let mut rng = StdRng::seed_from_u64(31);
    let rows = (0..3000usize)
        .map(|i| {
            let uncertain = (1020..1030).contains(&i) || rng.gen_range(0..20) == 0;
            let mut cell = |wide: RangeValue, sure: Value| match uncertain && rng.gen_bool(0.5) {
                true => wide,
                false => RangeValue::certain(sure),
            };
            let (f, w, k) = ((i % 500) as f64 / 2.0, i % 7, (i % 100) as i64);
            let (lo, hi) = (WORDS[w.saturating_sub(1)], WORDS[(w + 1).min(WORDS.len() - 1)]);
            let cells = vec![
                cell(RangeValue::range(f - 1.5, f, f + 1.5), Value::float(f)),
                cell(RangeValue::range(lo, WORDS[w], hi), Value::str(WORDS[w])),
                cell(RangeValue::range(k - 2, k, k + 2), Value::Int(k)),
            ];
            let (lb, ub) =
                if uncertain { (rng.gen_range(0..2), rng.gen_range(1..3)) } else { (1, 1) };
            au_row(cells, lb, 1, ub)
        })
        .collect();
    let mut db = AuDatabase::new();
    db.insert("t3", AuRelation::from_rows(Schema::named(&["f", "s", "k"]), rows));
    db.insert("t4", au_table(&["c", "w"], 200, 33, |i| vec![i % 50, i]));
    db
}

/// The typed-lane shapes, each a few hundred rows out at most. Both σs
/// cut through the seam rows: `f` 10..14.5 and `k` 20..29 there.
fn typed_cases() -> Vec<(&'static str, Query)> {
    let t3 = || table("t3");
    vec![
        ("σ on Float", t3().select(col(0).lt(lit(12.0)))),
        (
            "σ on Str",
            t3().select(
                col(1).leq(lit("birch")).and(col(2).geq(lit(20i64))).and(col(2).lt(lit(35i64))),
            ),
        ),
        (
            "π to Bool, δ",
            t3().project(vec![(col(0).lt(lit(100.0)), "low"), (col(1).eq(lit("elm")), "elm")])
                .distinct(),
        ),
        (
            "one-key γ on Float by Str",
            t3().aggregate(
                vec![1],
                vec![
                    AggSpec::count("n"),
                    AggSpec::new(AggFunc::Min, col(0), "lo"),
                    AggSpec::new(AggFunc::Max, col(0), "hi"),
                ],
            ),
        ),
        (
            "typed join spine",
            typed_spine().select(col(1).eq(lit("cedar"))).project(vec![
                (col(2), "k"),
                (col(0), "f"),
                (col(4), "w"),
            ]),
        ),
    ]
}

/// `σ(t3) ⋈ t4` on the `Int` key: 600 rows of `t3`, each matching 4 of
/// `t4` — 2 400 pairs in the SG world, more with the uncertain keys.
/// Under `compressed(8)` the σ is the probe's materialized source, one
/// morsel whose pairs cross the 2 048-pair batch.
fn typed_spine() -> Query {
    table("t3").select(col(2).lt(lit(20i64))).join_on(table("t4"), col(2).eq(col(3)))
}

#[test]
fn typed_lane_results_bound_sampled_worlds() {
    const TYPED_WORLDS: usize = 4;
    let db = typed_db();
    let pairs = eval_det(&db.sg_world(), &typed_spine()).unwrap().len();
    assert!(pairs >= 2048, "the spine probes {pairs} pairs");
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [
        ("precise", AuConfig::precise()),
        ("compressed(8)", AuConfig::compressed(8)),
        ("forced compressed(8)", forced),
    ];
    let mut rng = StdRng::seed_from_u64(0x7e5d);
    let worlds: Vec<Database> =
        (0..TYPED_WORLDS).map(|_| sample_bounded_world(&db, &mut rng)).collect();
    for (name, q) in typed_cases() {
        let wants: Vec<Relation> = worlds.iter().map(|w| eval_det(w, &q).unwrap()).collect();
        for (c, cfg) in &configs {
            let au = eval_au(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}"));
            for (w, want) in wants.iter().enumerate() {
                assert!(
                    relation_bounds_world(&au, want),
                    "{name} under {c}: world {w} not bounded\nQ(W) = {want}\nQ(D) = {au}"
                );
            }
        }
    }
}

/// TPC-H Q1/Q3/Q5/Q7/Q10, each under a projection that keeps every
/// output column but the `sum`s and `avg`s over a `Float` input
/// (`l_extendedprice`, `l_discount`): those miss sampled worlds by an
/// ULP until float sums are rounded once (ROADMAP item 21), which adds
/// them back. Q1 keeps its `Int` `sum` / `avg` and its count.
fn tpch_exact_columns() -> Vec<(&'static str, Query)> {
    use audb::workloads::tpch::{q1, q10, q3, q5, q7};
    let keep = |q: Query, cols: &[(usize, &str)]| {
        q.project(cols.iter().map(|&(c, name)| (col(c), name)).collect())
    };
    vec![
        (
            "Q1",
            keep(q1(), &[(0, "rf"), (1, "ls"), (2, "sum_qty"), (5, "avg_qty"), (7, "count_order")]),
        ),
        ("Q3", keep(q3(), &[(0, "o_key"), (1, "o_orderdate"), (2, "o_shippriority")])),
        ("Q5", keep(q5(), &[(0, "n_name")])),
        ("Q7", keep(q7(), &[(0, "supp_nation"), (1, "cust_nation")])),
        ("Q10", keep(q10(), &[(0, "c_key")])),
    ]
}

/// The TPC-H queries bound worlds of the x-DB they run over: `gen_tpch`
/// at test scale with 2 % of the fact tables' cells uncertain
/// (`inject_uncertainty`), its AU-DB (`XDb::to_au`) evaluated under
/// `precise`, `compressed(8)` and forced `compressed(8)`, and worlds
/// drawn from the x-DB itself (`XDb::sample_world`), so the translation
/// into an AU-DB is checked too. Each world's `Q(W)` is the det engine's,
/// whose joins (up to six per query) run as its join operator.
#[test]
fn tpch_results_bound_sampled_worlds() {
    use audb::workloads::{gen_tpch, inject_uncertainty, TpchConfig};
    const TPCH_WORLDS: usize = 12;
    let xdb = inject_uncertainty(&gen_tpch(TpchConfig::new(0.5, 7)), 0.02, 3, 8);
    let db = xdb.to_au();
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [
        ("precise", AuConfig::precise()),
        ("compressed(8)", AuConfig::compressed(8)),
        ("forced compressed(8)", forced),
    ];
    let mut rng = StdRng::seed_from_u64(0x7c4);
    let worlds: Vec<Database> = (0..TPCH_WORLDS).map(|_| xdb.sample_world(&mut rng)).collect();
    for (name, q) in tpch_exact_columns() {
        let wants: Vec<Relation> = worlds.iter().map(|w| eval_det(w, &q).unwrap()).collect();
        assert!(wants.iter().any(|w| !w.is_empty()), "{name} is empty in every world");
        for (c, cfg) in &configs {
            let au = eval_au(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}"));
            for (w, want) in wants.iter().enumerate() {
                assert!(
                    relation_bounds_world(&au, want),
                    "{name} under {c}: world {w} not bounded\nQ(W) = {want}\nQ(D) = {au}"
                );
            }
        }
    }
}

/// `u1`: 40 rows `(ki, kf, v) = (i % 30, (i % 30) / 2, i)`; `u2`: 30 rows
/// `(ci, cf, w) = (7i % 30, (7i % 30) / 2, i)`. Every key cell on both
/// sides is a proper range (`lb < ub`) around its value, so every pair of
/// a join on them is a sweep candidate whose key equality the probe
/// decides; one row in four has a multiplicity range too.
fn uncertain_keys_db() -> AuDatabase {
    let mut rng = StdRng::seed_from_u64(41);
    let mut table = |names: &[&str], n: i64, key: fn(i64) -> i64| {
        let rows = (0..n).map(|i| {
            let (k, lo, hi) = (key(i), rng.gen_range(0..3i64), rng.gen_range(1..3i64));
            let (f, flo, fhi) = (k as f64 / 2.0, rng.gen_range(0..3) as f64 / 4.0, hi as f64 / 4.0);
            let cells = vec![
                RangeValue::range(k - lo, k, k + hi),
                RangeValue::range(f - flo, f, f + fhi),
                RangeValue::certain(Value::Int(i)),
            ];
            let (lb, ub) = if i % 4 == 0 { (0, 2) } else { (1, 1) };
            au_row(cells, lb, 1, ub)
        });
        AuRelation::from_rows(Schema::named(names), rows.collect())
    };
    let mut db = AuDatabase::new();
    db.insert("u1", table(&["ki", "kf", "v"], 40, |i| i % 30));
    db.insert("u2", table(&["ci", "cf", "w"], 30, |i| 7 * i % 30));
    db
}

/// Joins whose every key is uncertain on both sides — on the `Int` key,
/// the `Float` key and both — bound sampled worlds under `precise`,
/// `compressed(8)` and forced `compressed(8)`. Under `precise` each runs
/// as a fused chain whose probe decides its typed keys (`keys=typed`).
#[test]
fn uncertain_join_keys_bound_sampled_worlds() {
    let db = uncertain_keys_db();
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [
        ("precise", AuConfig::precise()),
        ("compressed(8)", AuConfig::compressed(8)),
        ("forced compressed(8)", forced),
    ];
    let mut rng = StdRng::seed_from_u64(0x4b45);
    let worlds: Vec<Database> = (0..WORLDS).map(|_| sample_bounded_world(&db, &mut rng)).collect();
    let (int_key, float_key) = (col(0).eq(col(3)), col(1).eq(col(4)));
    let cases = [
        ("Int keys", int_key.clone()),
        ("Float keys", float_key.clone()),
        ("both keys", int_key.and(float_key)),
    ];
    for (name, pred) in cases {
        let q = table("u1").join_on(table("u2"), pred).project(vec![(col(2), "v"), (col(5), "w")]);
        let (_, trace) = eval_au_traced(&db, &q, &AuConfig::precise()).unwrap();
        let fused = trace.root.find("fused-chain").expect("fused chain span");
        assert_eq!(fused.attr("keys"), Some("typed"), "{name}");
        let wants: Vec<Relation> = worlds.iter().map(|w| eval_det(w, &q).unwrap()).collect();
        for (c, cfg) in &configs {
            let au = eval_au(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}"));
            for (w, want) in wants.iter().enumerate() {
                assert!(
                    relation_bounds_world(&au, want),
                    "{name} under {c}: world {w} not bounded\nQ(W) = {want}\nQ(D) = {au}"
                );
            }
        }
    }
}

/// A number cell that is an `Int` or, when `float`, the `Float` of the
/// same value; uncertain cells widen by up to 2 either side in that type.
fn number(v: i64, float: bool, wide: Option<(i64, i64)>) -> RangeValue {
    match (wide, float) {
        (None, false) => RangeValue::certain(Value::Int(v)),
        (None, true) => RangeValue::certain(Value::float(v as f64)),
        (Some((lo, hi)), false) => RangeValue::range(v - lo, v, v + hi),
        (Some((lo, hi)), true) => RangeValue::range((v - lo) as f64, v as f64, (v + hi) as f64),
    }
}

/// `m1`: 1 200 rows `(k, x, n) = (i % 40, i, i % 17)`; `m2`: 80 rows
/// `(c, w) = (i % 40, i)`. `k` and `c` are `Int` in one block of 40 rows
/// and `Float` in the next, so every key value occurs as both kinds on
/// both sides; `x` is `Float` in two rows of three; `n` is `Int`. Rows
/// 1 020..1 030 of `m1`, and every other row of either with probability
/// 1/20, are uncertain as in [`au_table`].
fn mixed_db() -> AuDatabase {
    let mut rng = StdRng::seed_from_u64(51);
    let mut table = |names: &[&str], n: i64, seam: bool, cols: fn(i64) -> Vec<(i64, bool)>| {
        let rows = (0..n).map(|i| {
            let uncertain = (seam && (1020..1030).contains(&i)) || rng.gen_range(0..20) == 0;
            let cells = (cols(i).into_iter())
                .map(|(v, float)| {
                    let wide = uncertain && rng.gen_bool(0.5);
                    number(v, float, wide.then(|| (rng.gen_range(0..3), rng.gen_range(0..3))))
                })
                .collect();
            let (lb, ub) =
                if uncertain { (rng.gen_range(0..2), rng.gen_range(1..3)) } else { (1, 1) };
            au_row(cells, lb, 1, ub)
        });
        AuRelation::from_rows(Schema::named(names), rows.collect())
    };
    let mut db = AuDatabase::new();
    db.insert(
        "m1",
        table(&["k", "x", "n"], 1200, true, |i| {
            vec![(i % 40, i / 40 % 2 == 1), (i, i % 3 != 0), (i % 17, false)]
        }),
    );
    db.insert("m2", table(&["c", "w"], 80, false, |i| vec![(i % 40, i / 40 % 2 == 0), (i, false)]));
    db
}

/// `σ(m1) ⋈ m2` on the mixed key: 213 rows of `m1`, each meeting the two
/// rows of `m2` with its key's value — an `Int` and a `Float` one.
fn mixed_spine() -> Query {
    table("m1").select(col(2).lt(lit(3i64))).join_on(table("m2"), col(0).eq(col(3)))
}

/// σ, ⋈ and γ over columns whose cells mix `Int` and `Float`, so the AU
/// engine reads them as boxed lanes — the join on `Int` keys meeting
/// `Float` keys included (`keys=boxed`) — bound sampled worlds under
/// `precise`, `compressed(8)` and forced `compressed(8)`. γ runs
/// `count`, `min`, `max` and an `Int` `sum`: a `Float` `sum` or `avg`
/// misses sampled worlds by an ULP until float sums are rounded once
/// (ROADMAP item 21), as in [`tpch_results_bound_sampled_worlds`].
#[test]
fn mixed_number_lanes_bound_sampled_worlds() {
    let db = mixed_db();
    let pairs = eval_det(&db.sg_world(), &mixed_spine()).unwrap();
    let kinds = |t: &Tuple| (matches!(t.0[0], Value::Int(_)), matches!(t.0[3], Value::Int(_)));
    let mixed = pairs.rows().iter().filter(|(t, _)| kinds(t).0 != kinds(t).1).count();
    assert!(mixed * 3 >= pairs.len(), "{mixed} of {} pairs meet an Int and a Float", pairs.len());
    let aggs = || {
        vec![
            AggSpec::count("cnt"),
            AggSpec::new(AggFunc::Min, col(1), "lo"),
            AggSpec::new(AggFunc::Max, col(1), "hi"),
            AggSpec::new(AggFunc::Sum, col(2), "s"),
        ]
    };
    let cases = [
        (
            "σ on mixed numbers",
            table("m1").select(col(1).geq(lit(960.5)).and(col(1).lt(lit(1100i64)))),
        ),
        (
            "mixed-key join",
            mixed_spine().project(vec![(col(0), "k"), (col(1), "x"), (col(4), "w")]),
        ),
        ("γ by a mixed key", table("m1").aggregate(vec![0], aggs())),
        ("ungrouped γ", table("m1").aggregate(vec![], aggs())),
        (
            "mixed-key join + γ",
            mixed_spine().aggregate(
                vec![3],
                vec![AggSpec::count("cnt"), AggSpec::new(AggFunc::Sum, col(2), "s")],
            ),
        ),
    ];
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [
        ("precise", AuConfig::precise()),
        ("compressed(8)", AuConfig::compressed(8)),
        ("forced compressed(8)", forced),
    ];
    let mut rng = StdRng::seed_from_u64(0x313d);
    let worlds: Vec<Database> = (0..WORLDS).map(|_| sample_bounded_world(&db, &mut rng)).collect();
    let (_, trace) = eval_au_traced(&db, &cases[1].1, &AuConfig::precise()).unwrap();
    let fused = trace.root.find("fused-chain").expect("fused chain span");
    assert_eq!(fused.attr("keys"), Some("boxed"));
    for (name, q) in cases {
        let wants: Vec<Relation> = worlds.iter().map(|w| eval_det(w, &q).unwrap()).collect();
        for (c, cfg) in &configs {
            let au = eval_au(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}"));
            for (w, want) in wants.iter().enumerate() {
                assert!(
                    relation_bounds_world(&au, want),
                    "{name} under {c}: world {w} not bounded\nQ(W) = {want}\nQ(D) = {au}"
                );
            }
        }
    }
}

/// `l1`: 2 400 rows `(k, a, v) = (i % 5, i % 800, i)`; `l2`: 1 600 rows
/// `(c, b, w) = (i % 5, i % 800, i % 97)`. One row in four is uncertain:
/// its `k` / `c` cell is a range around its selected guess, each other
/// cell is widened with probability 1/2, and the multiplicity becomes a
/// range. The bucket attribute of every `Cpr` below — `k`, `c` — has 5
/// selected guesses, so each run of one holds hundreds of rows.
fn low_cardinality_db() -> AuDatabase {
    let mut rng = StdRng::seed_from_u64(61);
    let mut table = |names: &[&str], n: i64, cols: fn(i64) -> [i64; 3]| {
        let rows = (0..n).map(|i| {
            let uncertain = rng.gen_range(0..4) == 0;
            let cells = (cols(i).into_iter().enumerate())
                .map(|(c, v)| match uncertain && (c == 0 || rng.gen_bool(0.5)) {
                    true => {
                        RangeValue::range(v - rng.gen_range(1..3i64), v, v + rng.gen_range(1..3i64))
                    }
                    false => RangeValue::certain(Value::Int(v)),
                })
                .collect();
            let (lb, ub) = if uncertain { (rng.gen_range(0..2), 2) } else { (1, 1) };
            au_row(cells, lb, 1, ub)
        });
        AuRelation::from_rows(Schema::named(names), rows.collect())
    };
    let mut db = AuDatabase::new();
    db.insert("l1", table(&["k", "a", "v"], 2400, |i| [i % 5, i % 800, i]));
    db.insert("l2", table(&["c", "b", "w"], 1600, |i| [i % 5, i % 800, i % 97]));
    db
}

/// `Cpr` over a bucket attribute of 5 selected guesses — every run of
/// equal selected guess far longer than a bucket, so buckets start
/// inside runs — bounds sampled worlds: a split/compress join bucketed
/// on `k = c` (the second key, `a = b`, keeps its result small) under γ,
/// and a compressing γ grouped by `k`, under `compressed(8)` (the trace
/// shows both compress) and forced `compressed(8)`.
#[test]
fn low_cardinality_buckets_bound_sampled_worlds() {
    let db = low_cardinality_db();
    let sgs: std::collections::BTreeSet<Value> =
        db.get("l1").unwrap().rows().iter().map(|(t, _)| t.0[0].sg.clone()).collect();
    assert!(sgs.len() <= 5, "{sgs:?}");
    let aggs = |v: usize, w: usize| {
        vec![
            AggSpec::count("n"),
            AggSpec::new(AggFunc::Sum, col(v), "s"),
            AggSpec::new(AggFunc::Min, col(v), "lo"),
            AggSpec::new(AggFunc::Max, col(w), "hi"),
        ]
    };
    let join = table("l1").join_on(table("l2"), col(0).eq(col(3)).and(col(1).eq(col(4))));
    let cases = [
        ("split/compress join + γ", join.aggregate(vec![0], aggs(2, 5))),
        ("compressing γ", table("l1").aggregate(vec![0], aggs(2, 1))),
    ];
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let configs = [("compressed(8)", AuConfig::compressed(8)), ("forced compressed(8)", forced)];
    let mut rng = StdRng::seed_from_u64(0x10ca);
    let worlds: Vec<Database> = (0..WORLDS).map(|_| sample_bounded_world(&db, &mut rng)).collect();
    for (name, q) in cases {
        let wants: Vec<Relation> = worlds.iter().map(|w| eval_det(w, &q).unwrap()).collect();
        for (c, cfg) in &configs {
            let (au, trace) =
                eval_au_traced(&db, &q, cfg).unwrap_or_else(|e| panic!("{name} under {c}: {e}"));
            let (mut joins, mut compressing) = (0, 0);
            trace.root.walk(&mut |s| match s.op.as_str() {
                "join" => {
                    assert_eq!(s.attr("strategy"), Some("split-compress"), "{name} under {c}");
                    joins += 1;
                }
                "aggregate" => compressing += usize::from(s.attr("compress") == Some("8")),
                _ => {}
            });
            let want_joins = usize::from(name.contains("join"));
            assert_eq!(joins, want_joins, "{name} under {c}");
            assert!(compressing >= usize::from(want_joins == 0), "{name} under {c}");
            for (w, want) in wants.iter().enumerate() {
                assert!(
                    relation_bounds_world(&au, want),
                    "{name} under {c}: world {w} not bounded\nQ(W) = {want}\nQ(D) = {au}"
                );
            }
        }
    }
}
