//! A join between two stored relations keeps its build side: the fused
//! chain's probe index is kept beside the left table's lanes, keyed by
//! the right table's lanes and the classified predicate, and a later run
//! over the same tables reuses it (`build=kept`, counter
//! `probe_builds_kept`, no `chain_build` entry). Every check here compares
//! a kept build with a fresh one: the oracle plan, and the split/compress
//! halves and intermediate inputs, always build.
//!
//! A new table — published to the serving engine, or a row pushed onto a
//! stored one — has new lanes, so the next query builds again; an entry
//! names its other table weakly, so a self-join forms no cycle and a
//! dropped database frees its lanes.

mod common;

use std::sync::Arc;

use audb::prelude::*;
use common::{eval_lanes_traced, eval_oracle, lanes_exec, splits, WORKERS};

/// `t1`: `n1` rows `(k, v) = (i % 100, i)`; `t2`: 300 rows
/// `(c, w) = (i % 100, 3i % 97)`. Every 7th key of `t1` and every 9th of
/// `t2` is a range, so the probe has hash buckets and sweep candidates;
/// `salt` moves `t2`'s payload.
fn db_of(n1: i64, salt: i64) -> AuDatabase {
    let key = |k: i64, wide: bool| match wide {
        true => RangeValue::range(k - 1, k, k + 2),
        false => RangeValue::certain(Value::Int(k)),
    };
    let int = |v: i64| RangeValue::certain(Value::Int(v));
    let t1 =
        (0..n1).map(|i| au_row(vec![key(i % 100, i % 7 == 0), int(i)], 1, 1, 1 + i as u64 % 2));
    let t2 =
        (0..300).map(|i| au_row(vec![key(i % 100, i % 9 == 0), int((3 * i + salt) % 97)], 1, 1, 1));
    let mut db = AuDatabase::new();
    db.insert("t1", AuRelation::from_rows(Schema::named(&["k", "v"]), t1.collect()));
    db.insert("t2", AuRelation::from_rows(Schema::named(&["c", "w"]), t2.collect()));
    db
}

fn db() -> AuDatabase {
    db_of(1500, 0)
}

/// σ → ⋈ → σ → π over the two stored tables.
fn spine() -> Query {
    table("t1")
        .select(col(1).geq(lit(10i64)))
        .join_on(table("t2"), col(0).eq(col(2)))
        .select(col(1).add(col(3)).lt(lit(1200i64)))
        .project(vec![(col(0), "k"), (col(1).add(col(3)), "s")])
}

/// What one lane run did with its probes.
#[derive(Debug, PartialEq)]
struct Builds {
    /// Every fused chain's `build` attribute, in span order.
    spans: Vec<String>,
    /// `chain_build` entries: the builds that ran.
    built: u64,
    /// `probe_builds_kept`: the builds reused.
    kept: u64,
}

fn builds(spans: &[&str], built: u64, kept: u64) -> Builds {
    Builds { spans: spans.iter().map(|s| s.to_string()).collect(), built, kept }
}

/// One lane run of `q` (never degrading) on its own meters.
fn run(
    db: &AuDatabase,
    q: &Query,
    cfg: &AuConfig,
    workers: usize,
    split: Partitioner,
) -> (AuRelation, Builds) {
    let exec = lanes_exec(cfg, workers, split).with_metrics(Metrics::enabled());
    let (out, span) = eval_lanes_traced(db, q, cfg, &exec);
    let mut spans = Vec::new();
    span.walk(&mut |s| {
        if let (true, Some(b)) = (s.op == "fused-chain", s.attr("build")) {
            spans.push(b.to_string());
        }
    });
    let m = exec.metrics().snapshot();
    let built = m.sites.iter().find(|s| s.site == "chain_build").map_or(0, |s| s.entries);
    let kept = m.counter("probe_builds_kept").expect("counter");
    (out.expect("lane run"), Builds { spans, built, kept })
}

/// The spine run twice over one database: the first run builds, the
/// second reuses that build, and both equal the oracle plan — at every
/// worker count, on the production split and the finest.
#[test]
fn a_stored_spine_keeps_its_build() {
    let (q, cfg) = (spine(), AuConfig::default());
    for workers in WORKERS {
        for split in splits() {
            let db = db();
            let want = eval_oracle(&db, &q, &cfg).expect("oracle");
            let (first, b) = run(&db, &q, &cfg, workers, split);
            assert_eq!(b, builds(&["built"], 1, 0), "w{workers} {split:?}");
            let (second, b) = run(&db, &q, &cfg, workers, split);
            assert_eq!(b, builds(&["kept"], 0, 1), "w{workers} {split:?}");
            assert_eq!(first, want, "w{workers} {split:?}: built");
            assert_eq!(second, want, "w{workers} {split:?}: kept");
        }
    }
}

/// One stored pair joined under every predicate class keeps one build
/// per classified predicate: each first run builds, each later run finds
/// its own (never another predicate's) and equals the oracle.
#[test]
fn each_predicate_keeps_its_own_build() {
    let (cfg, split) = (AuConfig::default(), Partitioner::default());
    let db = db();
    let preds = [
        col(0).eq(col(2)),
        col(0).eq(col(2)).and(col(1).eq(col(3))),
        col(1).leq(col(3)),
        col(0).add(col(1)).leq(col(2)),
    ];
    for round in ["built", "kept"] {
        for p in &preds {
            let q = table("t1").join_on(table("t2"), p.clone());
            let (out, b) = run(&db, &q, &cfg, 2, split);
            let want =
                if round == "built" { builds(&["built"], 1, 0) } else { builds(&["kept"], 0, 1) };
            assert_eq!(b, want, "{p}");
            assert_eq!(out, eval_oracle(&db, &q, &cfg).expect("oracle"), "{p}, {round}");
        }
    }
}

/// The serving engine's snapshot tables are stored relations: the second
/// execution of a join reuses the first one's build. A `publish` of a new
/// `t2` gives the next execution a fresh build, whose result is
/// `eval_au`'s over a fresh copy of the new data.
#[test]
fn a_published_table_gets_a_fresh_build() {
    let config = EngineConfig {
        eval: AuConfig::default().with_workers(2),
        worker_threads: 2,
        ..EngineConfig::default()
    };
    let engine = Engine::new(db(), config.clone());
    let q = spine();
    let meters = || {
        let m = engine.stats().metrics;
        let built = m.sites.iter().find(|s| s.site == "chain_build").map_or(0, |s| s.entries);
        (built, m.counter("probe_builds_kept").expect("counter"))
    };
    let first = engine.execute(&q, Class::Interactive).expect("first");
    assert_eq!(meters(), (1, 0));
    let second = engine.execute(&q, Class::Interactive).expect("second");
    assert_eq!(meters(), (1, 1));
    assert_eq!(second.relation, first.relation);
    assert_eq!(first.relation, eval_au(&db(), &q, &config.eval).expect("direct"));

    engine.publish(db_of(1500, 5));
    let third = engine.execute(&q, Class::Interactive).expect("after publish");
    assert_eq!((third.epoch, meters()), (1, (2, 1)), "the new t2 builds");
    assert_eq!(third.relation, eval_au(&db_of(1500, 5), &q, &config.eval).expect("direct"));
    assert_ne!(third.relation, first.relation, "the publish changed the data");
    let fourth = engine.execute(&q, Class::Interactive).expect("kept again");
    assert_eq!(meters(), (2, 2));
    assert_eq!(fourth.relation, third.relation);
}

/// A row pushed onto a stored table — the probe's left side or its right
/// — drops that table's lanes: the next run builds over the new ones and
/// equals `eval_au` over a fresh copy of the new data (and the oracle).
#[test]
fn a_pushed_row_gets_a_fresh_build() {
    let (q, cfg) = (spine(), AuConfig::default());
    let split = Partitioner::default();
    let mut db = db();
    run(&db, &q, &cfg, 2, split);
    assert_eq!(run(&db, &q, &cfg, 2, split).1, builds(&["kept"], 0, 1));
    let row =
        || au_row(vec![RangeValue::range(4, 5, 6), RangeValue::certain(Value::Int(20))], 1, 1, 1);
    for name in ["t2", "t1"] {
        let mut rel = db.get(name).expect("stored").clone();
        rel.push(row().0, row().1);
        db.insert(name, rel);
        let (out, b) = run(&db, &q, &cfg, 2, split);
        assert_eq!(b, builds(&["built"], 1, 0), "after a push onto {name}");
        let mut fresh = AuDatabase::new();
        for (n, rel) in db.iter() {
            fresh.insert(n.clone(), AuRelation::from_rows(rel.schema.clone(), rel.rows().to_vec()));
        }
        assert_eq!(out, eval_au(&fresh, &q, &cfg).expect("fresh"), "after a push onto {name}");
        assert_eq!(out, eval_oracle(&db, &q, &cfg).expect("oracle"), "after a push onto {name}");
        assert_eq!(run(&db, &q, &cfg, 2, split).1, builds(&["kept"], 0, 1));
    }
}

/// An entry holds its other table weakly: after `t ⋈ t` kept its build
/// in `t`'s own lanes, dropping the database frees them; and a stored
/// right side replaced in the database is freed although the left table
/// that kept the entry lives on.
#[test]
fn a_kept_build_holds_its_tables_weakly() {
    let (cfg, split) = (AuConfig::default(), Partitioner::default());
    let mut db = db();
    let selfjoin = table("t1").join_on(table("t1"), col(0).eq(col(2)));
    let (first, _) = run(&db, &selfjoin, &cfg, 1, split);
    let (second, b) = run(&db, &selfjoin, &cfg, 1, split);
    assert_eq!((second, b), (first, builds(&["kept"], 0, 1)));

    let (_, b) = run(&db, &spine(), &cfg, 1, split);
    assert_eq!(b, builds(&["built"], 1, 0));
    let t2 = Arc::downgrade(&db.get("t2").expect("stored").columns());
    db.insert("t2", db_of(1500, 5).get("t2").expect("stored").clone());
    assert!(t2.upgrade().is_none(), "t1's kept build keeps the old t2 alive");

    let t1 = Arc::downgrade(&db.get("t1").expect("stored").columns());
    drop(db);
    assert!(t1.upgrade().is_none(), "t1 ⋈ t1's kept build keeps t1 alive");
}

/// Only a join of two stored relations keeps its build. The halves of a
/// split/compress join (over derived lanes) and a join whose input is an
/// intermediate build on every run; the stored join inside the same query
/// reuses its build.
#[test]
fn halves_and_intermediates_always_build() {
    let split = Partitioner::default();
    let db = db();
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(8) };
    let compressing = table("t1").join_on(table("t2"), col(0).eq(col(2)));
    for _ in 0..2 {
        let (out, b) = run(&db, &compressing, &forced, 2, split);
        assert_eq!(b, builds(&[], 2, 0), "the SG half and the possible half");
        assert_eq!(out, eval_oracle(&db, &compressing, &forced).expect("oracle"));
    }

    let cfg = AuConfig::default();
    let nested = table("t1")
        .join_on(table("t2"), col(0).eq(col(2)))
        .join_on(table("t2").select(col(1).lt(lit(20i64))), col(0).eq(col(4)));
    let (first, b) = run(&db, &nested, &cfg, 2, split);
    assert_eq!(b, builds(&["built", "built"], 2, 0));
    let (second, b) = run(&db, &nested, &cfg, 2, split);
    assert_eq!(b, builds(&["built", "kept"], 1, 1), "only the stored inner join keeps");
    assert_eq!(first, second);
    assert_eq!(second, eval_oracle(&db, &nested, &cfg).expect("oracle"));
}
