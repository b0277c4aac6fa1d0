//! The serving engine's tier-1 contract: concurrent execution through
//! the `Engine` returns exactly what a direct evaluation on the pinned
//! snapshot returns; prepared-plan reuse is invisible in the bytes
//! (the coherence property test); admission saturation sheds
//! structurally instead of hanging; epochs pin mid-flight publishes;
//! and per-class governance knobs map onto real verdicts.

use proptest::prelude::*;
use std::time::Duration;

use audb::core::{col, lit, BudgetSpec, EvalError, ExecError};
use audb::prelude::*;
use audb::serve::{Class, ClassPolicy, Engine, EngineConfig, ServeError};
use audb::workloads::{micro_join_db, MicroConfig};

fn micro(rows: usize, seed: u64) -> AuDatabase {
    let cfg = MicroConfig {
        domain: rows.max(4) as i64,
        ..MicroConfig::new(rows, 3).uncertainty(0.2).range_frac(0.2).seed(seed)
    };
    micro_join_db(&cfg).0
}

/// select → join → project: the fused-chain shape the engine serves
/// most, touching the compiled-program cache at several stages.
fn join_query() -> Query {
    table("t1")
        .select(col(1).geq(lit(1i64)))
        .join_on(table("t2"), col(0).eq(col(3)))
        .project(vec![(col(0), "k"), (col(1).add(col(4)), "v")])
}

fn agg_query() -> Query {
    table("t1").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")])
}

fn small_config() -> EngineConfig {
    EngineConfig {
        eval: AuConfig { workers: Some(2), ..AuConfig::default() },
        worker_threads: 2,
        ..EngineConfig::default()
    }
}

#[test]
fn concurrent_results_match_direct_evaluation() {
    let db = micro(300, 11);
    let engine = Engine::new(db.clone(), small_config());
    let queries = [join_query(), agg_query(), table("t2").select(col(2).lt(lit(150i64)))];
    let direct: Vec<AuRelation> =
        queries.iter().map(|q| eval_au(&db, q, &small_config().eval).unwrap()).collect();
    std::thread::scope(|s| {
        for _client in 0..6 {
            s.spawn(|| {
                for (q, want) in queries.iter().zip(&direct) {
                    let resp = engine.execute(q, Class::Interactive).unwrap();
                    assert_eq!(&resp.relation, want);
                    assert_eq!(resp.epoch, 0);
                }
            });
        }
    });
    let stats = engine.stats();
    let interactive = &stats.classes[Class::Interactive as usize];
    assert_eq!(interactive.submitted, 18);
    assert_eq!(interactive.completed, 18);
    assert_eq!(interactive.shed, 0);
    assert_eq!(stats.metrics.counter("admitted"), Some(18));
}

#[test]
fn sql_and_algebra_share_the_prepared_table_keyspace() {
    let db = micro(50, 3);
    let engine = Engine::new(db.clone(), small_config());
    let sql = "SELECT a0, a1 FROM t1 WHERE a1 >= 1";
    let first = engine.execute_sql(sql, Class::Interactive).unwrap();
    assert!(!first.prepared_hit);
    let second = engine.execute_sql(sql, Class::Interactive).unwrap();
    assert!(second.prepared_hit, "same text, same epoch: warm");
    assert_eq!(first.relation, second.relation);
    let direct = eval_au(&db, &parse_sql(sql, &db).unwrap(), &small_config().eval).unwrap();
    assert_eq!(second.relation, direct);
    assert_eq!(engine.stats().prepared_plans, 1);
}

/// Algebra plans that differ only in a constant's type are different
/// prepared plans: `Str("5")`, `Int(5)` and `Float(5.0)` all *display*
/// as `5`, so the table must key on an unambiguous rendering.
#[test]
fn algebra_constants_of_different_types_are_different_plans() {
    let db = micro(50, 3);
    let engine = Engine::new(db.clone(), small_config());
    let pairs = [
        (table("t1").select(col(0).eq(lit("5"))), table("t1").select(col(0).eq(lit(5i64)))),
        (
            table("t1").project(vec![(lit(5i64), "c")]),
            table("t1").project(vec![(lit(5.0f64), "c")]),
        ),
    ];
    for (first, second) in &pairs {
        let served: Vec<AuRelation> = [first, second]
            .map(|q| {
                let resp = engine.execute(q, Class::Interactive).unwrap();
                assert!(!resp.prepared_hit, "{q:?} was served another plan");
                assert_eq!(resp.relation, eval_au(&db, q, &small_config().eval).unwrap(), "{q:?}");
                resp.relation
            })
            .into();
        assert_ne!(served[0], served[1], "the pair must tell the plans apart");
        assert!(engine.execute(second, Class::Interactive).unwrap().prepared_hit);
    }
}

/// A warm execution is lookup → run: the second execution of a text
/// compiles nothing (the tamper seam sees every program lowered on the
/// calling thread — none), consults the table once more and misses
/// nothing, and returns the first one's bytes.
#[test]
fn a_warm_execution_compiles_nothing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let engine = Engine::new(micro(60, 4), small_config());
    let sql = "SELECT t1.a0, t1.a1 + t2.a1 AS v FROM t1 JOIN t2 ON t1.a0 = t2.a0 WHERE t1.a1 >= 1";
    let compiled = std::sync::Arc::new(AtomicUsize::new(0));
    let execute = || {
        let seen = std::sync::Arc::clone(&compiled);
        let counting = move |p| {
            seen.fetch_add(1, Ordering::Relaxed);
            p
        };
        audb::query::with_tampered_programs(counting, || {
            engine.execute_sql(sql, Class::Interactive).unwrap()
        })
    };
    let counters = || {
        let m = engine.stats().metrics;
        ["prepared_hits", "prepared_misses", "prepared_evictions"].map(|c| m.counter(c).unwrap())
    };
    let cold = execute();
    assert!(!cold.prepared_hit);
    let planned = compiled.load(Ordering::Relaxed);
    assert!(planned >= 3, "σ, ⋈ re-check and π compile on the miss: {planned}");
    assert_eq!(counters(), [0, 1, 0]);
    let warm = execute();
    assert!(warm.prepared_hit);
    assert_eq!(compiled.load(Ordering::Relaxed), planned, "the hit compiled a program");
    assert_eq!(counters(), [1, 1, 0]);
    assert_eq!(warm.relation, cold.relation);
    // the cold path bypasses the table: it plans, and counts as neither
    assert!(!engine.execute_sql_cold(sql, Class::Interactive).unwrap().prepared_hit);
    assert_eq!(counters(), [1, 1, 0]);
    engine.publish(micro(60, 5));
    assert_eq!(counters(), [1, 1, 1]);
}

/// Unbounded distinct texts between two publishes do not grow the
/// prepared table without bound: at `PREPARED_CAP` entries it is dropped
/// whole, as a publish drops it, and the drop is counted.
#[test]
fn prepared_table_is_capped() {
    use audb::serve::PREPARED_CAP;
    let engine = Engine::new(micro(8, 2), small_config());
    for i in 0..PREPARED_CAP + 10 {
        let sql = format!("SELECT a0 FROM t1 WHERE a1 >= {i}");
        assert!(!engine.execute_sql(&sql, Class::Batch).unwrap().prepared_hit);
        assert!(engine.stats().prepared_plans <= PREPARED_CAP, "after {i} texts");
    }
    let stats = engine.stats();
    assert_eq!(stats.prepared_plans, 10);
    assert_eq!(stats.metrics.counter("prepared_evictions"), Some(PREPARED_CAP as u64));
    assert_eq!(stats.metrics.counter("prepared_misses"), Some(PREPARED_CAP as u64 + 10));
    // texts planned since the drop are still warm
    let sql = format!("SELECT a0 FROM t1 WHERE a1 >= {}", PREPARED_CAP + 9);
    assert!(engine.execute_sql(&sql, Class::Batch).unwrap().prepared_hit);
}

#[test]
fn parse_errors_are_final_query_verdicts() {
    let engine = Engine::new(micro(10, 1), small_config());
    let err = engine.execute_sql("SELECT nope FROM missing", Class::Interactive).unwrap_err();
    assert!(matches!(err, ServeError::Query(_)), "{err}");
    // the engine stays live
    engine.execute(&join_query(), Class::Interactive).unwrap();
}

/// Every submission ticks exactly one outcome: a query error raised
/// while preparing (an unknown table) is `failed`, as one raised while
/// evaluating is, and a query refused at shutdown is not submitted.
#[test]
fn every_submission_has_one_outcome() {
    let engine = Engine::new(micro(10, 1), small_config());
    let balanced = |engine: &Engine| {
        for c in engine.stats().classes {
            assert_eq!(c.submitted, c.completed + c.shed + c.failed + c.rejected, "{c:?}");
        }
    };
    let err = engine.execute_sql("SELECT a FROM nosuch", Class::Interactive).unwrap_err();
    assert!(matches!(err, ServeError::Query(_)), "{err}");
    let interactive = &engine.stats().classes[Class::Interactive as usize];
    assert_eq!((interactive.submitted, interactive.failed), (1, 1), "{interactive:?}");
    balanced(&engine);
    engine.execute(&agg_query(), Class::Interactive).unwrap();
    balanced(&engine);
    engine.close();
    let refused = engine.execute(&agg_query(), Class::Interactive);
    assert!(matches!(refused, Err(ServeError::ShuttingDown)), "{refused:?}");
    assert_eq!(engine.stats().classes[Class::Interactive as usize].submitted, 2);
    balanced(&engine);
}

#[test]
fn saturated_class_sheds_structurally() {
    let mut config = small_config();
    config.classes[Class::Batch as usize] = ClassPolicy {
        max_concurrent: 1,
        queue_cap: 0,
        queue_timeout: Duration::from_millis(10),
        timeout: None,
        budget: None,
    };
    let engine = Engine::new(micro(40, 5), config);
    // two threads fight over the single batch slot; with zero queue
    // capacity, whichever finds it busy is shed immediately — either
    // side may win any given round, so both count their verdicts
    let flood = |attempts: usize| {
        let (mut ok, mut shed) = (0u64, 0u64);
        for _ in 0..attempts {
            match engine.execute(&join_query(), Class::Batch) {
                Ok(_) => ok += 1,
                Err(ServeError::Overloaded { class, retry_after, .. }) => {
                    assert_eq!(class, Class::Batch);
                    assert_eq!(retry_after, Duration::from_millis(10));
                    shed += 1;
                }
                Err(other) => panic!("unexpected verdict: {other}"),
            }
        }
        (ok, shed)
    };
    let barrier = std::sync::Barrier::new(2);
    let ((ok_a, shed_a), (ok_b, shed_b)) = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            barrier.wait();
            flood(200)
        });
        barrier.wait();
        let mine = flood(200);
        (handle.join().unwrap(), mine)
    });
    assert!(shed_a + shed_b > 0, "zero queue capacity must shed under contention");
    assert!(ok_a + ok_b > 0, "the slot holder keeps completing");
    let stats = engine.stats();
    let batch = &stats.classes[Class::Batch as usize];
    assert_eq!(batch.completed, ok_a + ok_b);
    assert_eq!(batch.shed, shed_a + shed_b);
    assert_eq!(batch.shed + batch.completed, batch.submitted);
    assert_eq!(stats.metrics.counter("shed"), Some(batch.shed));
}

#[test]
fn class_budget_maps_to_final_rejection() {
    let mut config = small_config();
    config.classes[Class::BestEffort as usize].budget = Some(BudgetSpec::rows(1));
    let engine = Engine::new(micro(200, 7), config);
    let err = engine.execute(&join_query(), Class::BestEffort).unwrap_err();
    match err {
        ServeError::Rejected(EvalError::Exec(e)) => {
            assert!(matches!(e, ExecError::BudgetExceeded { .. }), "{e}");
        }
        other => panic!("expected a budget rejection, got {other}"),
    }
    // never retried: resource verdicts are final
    let stats = engine.stats();
    let be = &stats.classes[Class::BestEffort as usize];
    assert_eq!(be.retried, 0);
    assert_eq!(be.rejected, 1);
    // interactive (no budget) still serves the same query
    engine.execute(&join_query(), Class::Interactive).unwrap();
}

#[test]
fn publish_pins_epochs_and_evicts_prepared_plans() {
    let db0 = micro(120, 21);
    let db1 = micro(120, 22);
    let engine = Engine::new(db0.clone(), small_config());
    let q = join_query();

    let warm0 = {
        engine.execute(&q, Class::Interactive).unwrap();
        engine.execute(&q, Class::Interactive).unwrap()
    };
    assert!(warm0.prepared_hit);
    assert_eq!(warm0.epoch, 0);
    assert_eq!(warm0.relation, eval_au(&db0, &q, &small_config().eval).unwrap());

    // a reader pins epoch 0 across the publish
    let pinned = engine.snapshot();
    let epoch1 = engine.publish(db1.clone());
    assert_eq!(epoch1, 1);
    assert_eq!(engine.stats().prepared_plans, 0, "publish evicts the prepared table");
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(eval_au(pinned.db(), &q, &small_config().eval).unwrap(), warm0.relation);

    let cold1 = engine.execute(&q, Class::Interactive).unwrap();
    assert!(!cold1.prepared_hit, "new epoch: the cached plan is gone");
    assert_eq!(cold1.epoch, 1);
    assert_eq!(cold1.relation, eval_au(&db1, &q, &small_config().eval).unwrap());
}

#[test]
fn shutdown_refuses_new_work() {
    let engine = Engine::new(micro(10, 9), small_config());
    engine.execute(&agg_query(), Class::Interactive).unwrap();
    engine.close();
    assert!(matches!(
        engine.execute(&agg_query(), Class::Interactive),
        Err(ServeError::ShuttingDown)
    ));
}

/// 200 KB of parentheses used to overflow the parser's stack — an
/// abort, not a panic, so nothing could contain it and the whole server
/// went down with the request. So did a *flat* chain of 100 000 operands:
/// the parser builds it by iteration, and whoever walks the left-deep
/// tree next — the lowerer, the verifier, `Drop` — recurses once per
/// operator. So did a `FROM` list of 100 000 tables, one join level each,
/// in the planner. All are query errors now, on the 2 MiB stack of a
/// spawned thread, and the engine serves the next request — the tallest
/// expression the parser admits included, end to end.
#[test]
fn deeply_nested_sql_is_a_query_error_not_an_abort() {
    let serve = || {
        let engine = Engine::new(micro(40, 5), small_config());
        let query = |pred: String| format!("SELECT a0 FROM t1 WHERE {pred}");
        let parens = format!("{}a1 = 1{}", "(".repeat(100_000), ")".repeat(100_000));
        let sum = |n: usize| format!("{} >= 0", vec!["a1"; n].join(" + "));
        let tables: Vec<String> = (0..100_000).map(|i| format!("t1 x{i}")).collect();
        for (sql, limit) in [
            (query(parens), "nesting deeper"),
            (query(sum(100_000)), "expression deeper"),
            (query(vec!["a1 >= 0"; 100_000].join(" AND ")), "expression deeper"),
            (query(vec!["a1 < 0"; 100_000].join(" OR ")), "expression deeper"),
            (format!("SELECT x0.a0 FROM {}", tables.join(", ")), "FROM list longer"),
        ] {
            match engine.execute_sql(&sql, Class::Interactive) {
                Err(ServeError::Query(e)) => assert!(e.to_string().contains(limit), "{e}"),
                other => panic!("expected a query error, got {other:?}"),
            }
        }
        for pred in ["(a1 >= 1)".to_string(), sum(399)] {
            let next = engine.execute_sql(&query(pred), Class::Interactive);
            assert!(next.is_ok(), "{next:?}");
        }
    };
    std::thread::Builder::new().stack_size(2 << 20).spawn(serve).unwrap().join().unwrap();
}

/// A column number past its input's arity used to panic ("index out of
/// bounds") on every path — γ's `group_by` in the kernels, the
/// compression verdict and the output schema; a join key past the right
/// side in the probe's index build — and `Engine::execute` runs a plan on
/// the caller's thread. Now each is `UnknownColumn`, as it already was
/// for σ and π: a key past either side makes the join a nested loop,
/// whose re-check reports it, and γ checks `group_by` before anything
/// reads it.
#[test]
fn out_of_range_columns_are_query_errors_not_panics() {
    let cfg = MicroConfig { domain: 50, ..MicroConfig::new(50, 3).uncertainty(0.2).seed(3) };
    let (db, det_db) = micro_join_db(&cfg);
    let sum = || vec![AggSpec::new(AggFunc::Sum, col(1), "s")];
    let grouped = [
        (table("t1").aggregate(vec![7], sum()), 7),
        (table("t1").select(lit(false)).aggregate(vec![7], sum()), 7),
        (table("t1").join_on(table("t2"), col(0).eq(col(3))).aggregate(vec![17], sum()), 17),
    ];
    let joins = [
        (table("t1").join_on(table("t2"), col(0).eq(col(40))), 40),
        (table("t1").join_on(table("t2"), col(0).lt(col(40))), 40),
    ];
    let engine = Engine::new(db.clone(), small_config());
    let untraced = TraceBuilder::disabled();
    for (q, c) in grouped.iter().chain(&joins) {
        let unknown = |got: Result<AuRelation, EvalError>, path: &str| {
            assert!(
                matches!(got, Err(EvalError::UnknownColumn(u)) if u == *c),
                "{path}: {got:?}, q = {q}"
            );
        };
        for cfg in [small_config().eval, AuConfig::compressed(4)] {
            unknown(eval_au(&db, q, &cfg), "eval_au");
            let oracle = AuPlan::oracle(q, &cfg, &untraced);
            unknown(oracle.run(&db, &cfg.executor(), &untraced), "oracle");
        }
        let det = eval_det(&det_db, q);
        assert!(
            matches!(det, Err(EvalError::UnknownColumn(u)) if u == *c),
            "det: {det:?}, q = {q}"
        );
        match engine.execute(q, Class::Interactive) {
            Err(ServeError::Query(EvalError::UnknownColumn(u))) if u == *c => {}
            other => panic!("expected a query error, got {other:?}, q = {q}"),
        }
    }
    for (q, c) in &grouped {
        assert_eq!(q.schema(&db), Err(EvalError::UnknownColumn(*c)), "q = {q}");
    }
    // an empty side still joins to nothing: no row reaches the re-check
    let empty = table("t1").select(lit(false)).join_on(table("t2"), col(0).eq(col(40)));
    assert!(eval_au(&db, &empty, &small_config().eval).unwrap().is_empty());
    assert!(eval_det(&det_db, &empty).unwrap().is_empty());
}

// ---------------------------------------------------------------------------
// Prepared-cache coherence (satellite): warm ≡ cold, on every epoch
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A cached plan re-executed against a newly published epoch is
    /// byte-identical to a cold parse + plan + compile on that epoch,
    /// and the prepared table really is evicted on publish.
    #[test]
    fn prepared_cache_coherence(
        rows in 5usize..80,
        seed in 0u64..1000,
        uncert_pct in 0u64..50,
        pick in 0usize..3,
    ) {
        let cfg = MicroConfig {
            domain: rows.max(4) as i64,
            ..MicroConfig::new(rows, 3)
                .uncertainty(uncert_pct as f64 / 100.0)
                .range_frac(0.3)
                .seed(seed)
        };
        let db0 = micro_join_db(&cfg).0;
        let db1 = micro_join_db(&MicroConfig { seed: seed + 7, ..cfg }).0;
        let sql = [
            "SELECT a0, a1 FROM t1 WHERE a1 >= 1",
            "SELECT a0 FROM t2 WHERE a2 < 40",
            "SELECT a0, a1, a2 FROM t1 WHERE a0 >= 0 AND a2 >= 1",
        ][pick];
        let engine = Engine::new(db0.clone(), small_config());

        // epoch 0: cold fill, then warm hit — byte-identical to the
        // cache-bypassing cold path and to direct evaluation
        let fill = engine.execute_sql(sql, Class::Interactive).unwrap();
        prop_assert!(!fill.prepared_hit);
        let warm = engine.execute_sql(sql, Class::Interactive).unwrap();
        prop_assert!(warm.prepared_hit);
        let cold = engine.execute_sql_cold(sql, Class::Interactive).unwrap();
        prop_assert!(!cold.prepared_hit);
        prop_assert_eq!(&warm.relation, &cold.relation);
        let direct0 = eval_au(&db0, &parse_sql(sql, &db0).unwrap(), &small_config().eval).unwrap();
        prop_assert_eq!(&warm.relation, &direct0);

        // publish: eviction observable, then warm-after-publish equals
        // a cold compile on the new epoch
        engine.publish(db1.clone());
        prop_assert_eq!(engine.stats().prepared_plans, 0);
        let refill = engine.execute_sql(sql, Class::Interactive).unwrap();
        prop_assert!(!refill.prepared_hit, "publish evicted the plan");
        prop_assert_eq!(refill.epoch, 1);
        let warm1 = engine.execute_sql(sql, Class::Interactive).unwrap();
        prop_assert!(warm1.prepared_hit);
        let cold1 = engine.execute_sql_cold(sql, Class::Interactive).unwrap();
        prop_assert_eq!(&warm1.relation, &cold1.relation);
        let direct1 = eval_au(&db1, &parse_sql(sql, &db1).unwrap(), &small_config().eval).unwrap();
        prop_assert_eq!(&warm1.relation, &direct1);
    }
}
