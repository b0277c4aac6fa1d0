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
//! γ read typed `Float`, dictionary-coded `Str` and `Bool` lanes.
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
