//! Concurrent fault-storm stress for the serving engine (feature
//! `faults`): N client threads hammer the engine with injected panics,
//! injected errors, and delays while a publisher swaps epochs
//! mid-flight. The load-bearing assertion: **every submission
//! resolves** — to a result byte-identical to direct evaluation on the
//! response's pinned epoch, or to a structured verdict — and the
//! engine serves correctly afterwards (no hang, no poisoned pool).

#![cfg(feature = "faults")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use audb::exec::faults::{with_plan, FaultKind, FaultPlan, FaultRule};
use audb::prelude::*;
use audb::serve::{
    BreakerPolicy, Class, ClassPolicy, Engine, EngineConfig, RetryPolicy, ServeError,
};
use audb::workloads::{micro_join_db, MicroConfig};

fn micro(rows: usize, seed: u64) -> AuDatabase {
    let cfg = MicroConfig {
        domain: rows.max(4) as i64,
        ..MicroConfig::new(rows, 3).uncertainty(0.2).range_frac(0.2).seed(seed)
    };
    micro_join_db(&cfg).0
}

fn queries() -> Vec<Query> {
    vec![
        table("t1")
            .select(col(1).geq(lit(1i64)))
            .join_on(table("t2"), col(0).eq(col(3)))
            .project(vec![(col(0), "k"), (col(1).add(col(4)), "v")]),
        table("t1").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]),
        table("t2").select(col(2).lt(lit(100i64))),
    ]
}

fn stress_config() -> EngineConfig {
    EngineConfig {
        eval: AuConfig { workers: Some(2), ..AuConfig::default() },
        worker_threads: 4,
        classes: [
            ClassPolicy {
                max_concurrent: 4,
                queue_cap: 8,
                queue_timeout: Duration::from_millis(50),
                timeout: None,
                budget: None,
            },
            ClassPolicy {
                max_concurrent: 2,
                queue_cap: 4,
                queue_timeout: Duration::from_millis(50),
                timeout: None,
                budget: None,
            },
            ClassPolicy {
                max_concurrent: 1,
                queue_cap: 2,
                queue_timeout: Duration::from_millis(20),
                timeout: None,
                budget: None,
            },
        ],
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
        },
        breaker: BreakerPolicy::default(),
    }
}

#[test]
fn fault_storm_with_mid_flight_publishes_never_loses_a_query() {
    const CLIENTS: usize = 8;
    const ITERS: usize = 40;
    const PUBLISHES: usize = 20;

    let worlds: Vec<AuDatabase> = (0..4).map(|i| micro(150, 31 + i)).collect();
    let qs = queries();
    // expected result per (world, query), for pinned-epoch correctness
    let eval_cfg = stress_config().eval;
    let expected: Vec<Vec<AuRelation>> = worlds
        .iter()
        .map(|db| qs.iter().map(|q| eval_au(db, q, &eval_cfg).unwrap()).collect())
        .collect();

    let engine = Engine::new(worlds[0].clone(), stress_config());
    let done_publishing = AtomicBool::new(false);

    std::thread::scope(|s| {
        // the publisher swaps epochs mid-flight; epoch k serves worlds[k % 4]
        s.spawn(|| {
            for k in 1..=PUBLISHES {
                engine.publish(worlds[k % worlds.len()].clone());
                std::thread::sleep(Duration::from_millis(1));
            }
            done_publishing.store(true, Ordering::SeqCst);
        });

        for client in 0..CLIENTS {
            let engine = &engine;
            let qs = &qs;
            let expected = &expected;
            let n_worlds = worlds.len();
            s.spawn(move || {
                for i in 0..ITERS {
                    let q = &qs[(client + i) % qs.len()];
                    let class = Class::ALL[i % Class::ALL.len()];
                    let run = || engine.execute(q, class);
                    let verdict = match i % 5 {
                        // one panic, then the retry succeeds
                        0 => with_plan(
                            FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Panic)]),
                            run,
                        ),
                        // one injected error, then the retry succeeds
                        1 => with_plan(
                            FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Error)]),
                            run,
                        ),
                        // every attempt panics: retries exhaust, breakers trip
                        2 => with_plan(
                            FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Panic)]),
                            run,
                        ),
                        // a straggler delay: results must be unchanged
                        3 => with_plan(
                            FaultPlan::new(vec![FaultRule::once(
                                0,
                                0,
                                FaultKind::Delay(Duration::from_millis(2)),
                            )]),
                            run,
                        ),
                        _ => run(),
                    };
                    match verdict {
                        Ok(resp) => {
                            let world = &expected[resp.epoch as usize % n_worlds];
                            let want = &world[(client + i) % qs.len()];
                            assert_eq!(
                                &resp.relation, want,
                                "client {client} iter {i}: wrong bytes for epoch {}",
                                resp.epoch
                            );
                        }
                        Err(ServeError::Overloaded { .. }) => {}
                        Err(ServeError::Failed(EvalError::Exec(e))) => {
                            assert!(!e.is_resource_limit(), "only transient faults exhaust retries")
                        }
                        Err(other) => panic!("client {client} iter {i}: unexpected {other}"),
                    }
                }
            });
        }
    });
    assert!(done_publishing.load(Ordering::SeqCst));

    // accounting: every submission resolved to exactly one outcome
    let stats = engine.stats();
    for class in Class::ALL {
        let c = &stats.classes[class as usize];
        assert_eq!(
            c.submitted,
            c.completed + c.shed + c.failed + c.rejected,
            "class {}: {c:?}",
            class.name()
        );
    }
    let total: u64 = stats.classes.iter().map(|c| c.submitted).sum();
    assert_eq!(total, (CLIENTS * ITERS) as u64, "no submission vanished");
    // the storm really exercised the machinery
    assert!(stats.metrics.counter("worker_panics").unwrap_or(0) > 0);
    assert!(stats.metrics.counter("retries").unwrap_or(0) > 0);
    assert!(stats.metrics.counter("admitted").unwrap_or(0) > 0);

    // the engine stays live and correct after the storm
    let snap = engine.snapshot();
    let resp = engine.execute(&qs[0], Class::Interactive).unwrap();
    assert_eq!(resp.relation, eval_au(snap.db(), &qs[0], &eval_cfg).unwrap());
}

/// Deterministic breaker walk-through: persistent lane-path faults
/// trip the plan's breaker; with the fault gone but the breaker open,
/// the plan serves correctly from its oracle plan (`AuPlan::oracle`); the
/// cooldown probe closes it again. A compressed `EngineConfig::eval` runs
/// on the lanes like any other, so its plans consult the breaker the same
/// way.
#[test]
fn breaker_trips_degrades_and_recovers() {
    let forced = AuConfig { adaptive: false, workers: Some(2), ..AuConfig::compressed(2) };
    for eval in [stress_config().eval, forced] {
        breaker_walk_through(eval);
    }
}

fn breaker_walk_through(eval: AuConfig) {
    let db = micro(80, 77);
    let mut config = EngineConfig { eval, ..stress_config() };
    config.retry =
        RetryPolicy { max_retries: 0, base_backoff: Duration::ZERO, max_backoff: Duration::ZERO };
    config.breaker = BreakerPolicy { trip_after: 2, cooldown: Duration::from_millis(20) };
    let engine = Engine::new(db.clone(), config);
    let q = queries().remove(0);
    let want = eval_au(&db, &q, &eval).unwrap();

    // two consecutive lane-path faults trip the breaker
    for _ in 0..2 {
        let err =
            with_plan(FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Panic)]), || {
                engine.execute(&q, Class::Interactive)
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Failed(_)), "{err}");
    }
    let stats = engine.stats();
    assert_eq!(stats.metrics.counter("breaker_trips"), Some(1));

    // fault gone, breaker open: served correctly from the oracle
    let resp = engine.execute(&q, Class::Interactive).unwrap();
    assert!(resp.breaker_degraded, "open breaker routes to the oracle");
    assert_eq!(resp.relation, want);

    // cooldown passes: the half-open probe succeeds and closes the breaker
    std::thread::sleep(Duration::from_millis(25));
    let resp = engine.execute(&q, Class::Interactive).unwrap();
    assert!(!resp.breaker_degraded, "successful probe closes the breaker");
    assert_eq!(resp.relation, want);
    let resp = engine.execute(&q, Class::Interactive).unwrap();
    assert!(!resp.breaker_degraded);
    assert_eq!(resp.relation, want);
}
