//! Concurrent fault-storm stress for the serving engine (feature
//! `faults`): N client threads hammer the engine with injected panics,
//! injected errors, and delays while a publisher swaps epochs
//! mid-flight. The load-bearing assertion: **every submission
//! resolves** — to a result byte-identical to direct evaluation on the
//! response's pinned epoch, or to a structured verdict — and the
//! engine serves correctly afterwards (no hang, no poisoned pool). A
//! fault has one answer, given once: the oracle plan answers a lane
//! fault, and an oracle that faults too fails the query.

#![cfg(feature = "faults")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use audb::exec::faults::{with_plan, FaultKind, FaultPlan, FaultRule};
use audb::prelude::*;
use audb::serve::{Class, ClassPolicy, Engine, EngineConfig, EngineStats, ServeError};
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
                        // one panic: the oracle plan answers it
                        0 => with_plan(
                            FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Panic)]),
                            run,
                        ),
                        // one injected error: the oracle plan answers it
                        1 => with_plan(
                            FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Error)]),
                            run,
                        ),
                        // the lanes panic, the oracle too: `Failed`
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
                            assert!(!e.is_resource_limit(), "only a faulting oracle fails a query")
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
    assert!(stats.metrics.counter("degradations").unwrap_or(0) > 0);
    assert!(stats.classes.iter().any(|c| c.failed > 0), "the persistent fault fails: {stats:?}");
    assert!(stats.metrics.counter("admitted").unwrap_or(0) > 0);

    // the engine stays live and correct after the storm
    let snap = engine.snapshot();
    let resp = engine.execute(&qs[0], Class::Interactive).unwrap();
    assert_eq!(resp.relation, eval_au(snap.db(), &qs[0], &eval_cfg).unwrap());
}

/// Deterministic degradation walk-through: a one-shot lane fault (a
/// contained panic, then an injected error) is answered at once from the
/// oracle plan (`AuPlan::oracle`) the way `eval_au` answers it — the
/// fault fires once, one `degradations` tick — and the next query runs
/// on the lanes again: no state carries over. A compressed
/// `EngineConfig::eval` runs on the lanes like any other, so its plans
/// degrade the same way.
#[test]
fn lane_fault_degrades_once_to_the_oracle() {
    let forced = AuConfig { adaptive: false, workers: Some(2), ..AuConfig::compressed(2) };
    for eval in [stress_config().eval, forced] {
        degradation_walk_through(eval);
    }
}

fn degradation_walk_through(eval: AuConfig) {
    let db = micro(80, 77);
    let engine = Engine::new(db.clone(), EngineConfig { eval, ..stress_config() });
    let q = queries().remove(0);
    let want = eval_au(&db, &q, &eval).unwrap();

    for kind in [FaultKind::Panic, FaultKind::Error] {
        let degradations = engine.stats().metrics.counter("degradations").unwrap_or(0);
        let faults = FaultPlan::new(vec![FaultRule::once(0, 0, kind)]);
        let resp = with_plan(faults.clone(), || engine.execute(&q, Class::Interactive))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(resp.breaker_degraded, "{kind:?}: the oracle answers the lane fault");
        assert_eq!(faults.fired(), 1, "{kind:?}: one lane run faulted, nothing ran it again");
        assert_eq!(resp.relation, want, "{kind:?}");
        let stats = engine.stats();
        assert_eq!(stats.metrics.counter("degradations"), Some(degradations + 1), "{kind:?}");

        // fault gone: the next query runs on the lanes
        let resp = engine.execute(&q, Class::Interactive).unwrap();
        assert!(!resp.breaker_degraded, "{kind:?}: no state carries over");
        assert_eq!(resp.relation, want);
        assert_eq!(engine.stats().metrics.counter("degradations"), Some(degradations + 1));
    }
}

/// An oracle that faults too is the query's verdict, given once: the
/// engine runs no second evaluation. A persistent panic fires in the
/// lane run and once more in the oracle run that answers it — two fires,
/// one `degradations` tick, `Failed` — and two one-shot faults, one in
/// each run, fail the query as well.
#[test]
fn a_faulting_oracle_fails_in_one_attempt() {
    let forced = AuConfig { adaptive: false, workers: Some(2), ..AuConfig::compressed(2) };
    for eval in [stress_config().eval, forced] {
        oracle_fault_walk_through(eval);
    }
}

fn oracle_fault_walk_through(eval: AuConfig) {
    let db = micro(80, 77);
    let engine = Engine::new(db, EngineConfig { eval, ..stress_config() });
    let qs = queries();
    let class = Class::Interactive;
    let failed = |s: &EngineStats| s.classes[class as usize].failed;
    let degradations = |s: &EngineStats| s.metrics.counter("degradations").unwrap_or(0);
    let fails = |faults: &Arc<FaultPlan>, q: &Query| {
        let before = engine.stats();
        let verdict = with_plan(faults.clone(), || engine.execute(q, class));
        let Err(e @ ServeError::Failed(_)) = verdict else {
            panic!("{eval:?} {q}: {verdict:?}");
        };
        assert!(e.to_string().contains("the oracle plan faulted too"), "{e}");
        let after = engine.stats();
        assert_eq!(failed(&after), failed(&before) + 1, "{eval:?} {q}");
        assert_eq!(degradations(&after), degradations(&before) + 1, "{eval:?} {q}");
    };

    let persistent = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Panic)]);
    fails(&persistent, &qs[0]);
    assert_eq!(persistent.fired(), 2, "{eval:?}: the lane run and the oracle run, once each");

    let twice = FaultPlan::new(vec![
        FaultRule::once(0, 0, FaultKind::Panic),
        FaultRule::once(1, 0, FaultKind::Panic),
    ]);
    fails(&twice, &qs[2]);
    assert_eq!(twice.fired(), 2, "{eval:?}");
}
