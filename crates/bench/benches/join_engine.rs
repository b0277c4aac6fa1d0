//! Interval-indexed join engine vs the nested-loop baseline, plus the
//! partition-parallel worker scaling of the planned join: the
//! acceptance benchmarks for the join planner (1k x 1k equality join on
//! a certain attribute must beat nested loops by >= 5x) and the exec
//! runtime (w4 must beat w1 by >= 2x on a machine with >= 4 cores;
//! on fewer cores the two collapse to the same wall clock because the
//! pool never oversubscribes meaningfully).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use audb_bench::{config_fingerprint, print_trace_breakdown};
use audb_core::col;
use audb_core::obs::{QueryTrace, TraceBuilder};
use audb_query::au::{join_au, nested_loop_join_au, AuConfig};
use audb_query::planner::join_au_planned_exec;
use audb_query::{table, AuPlan, Executor};
use audb_workloads::{micro_join_db, MicroConfig};

fn bench(c: &mut Criterion) {
    let cfg = MicroConfig::new(1000, 3).uncertainty(0.03).range_frac(0.02).seed(41);
    let (audb, _) = micro_join_db(&cfg);
    let l = audb.get("t1").unwrap();
    let r = audb.get("t2").unwrap();
    let pred = col(0).eq(col(3));

    let mut g = c.benchmark_group("join_engine");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1500));
    g.bench_function("nested_loop_1k", |b| {
        b.iter(|| black_box(nested_loop_join_au(l, r, Some(&pred)).unwrap()))
    });
    g.bench_function("planned_1k", |b| b.iter(|| black_box(join_au(l, r, Some(&pred)).unwrap())));

    // worker scaling of the same planned join (probe + candidate loops
    // partitioned into morsels, ordered merge)
    for w in [1usize, 2, 4] {
        let exec = Executor::new(w);
        g.bench_function(format!("planned_1k_w{w}"), |b| {
            b.iter(|| black_box(join_au_planned_exec(l, r, Some(&pred), &exec).unwrap()))
        });
    }

    // comparison predicate: interval sweep vs nested loop on a smaller
    // input (the nested loop is quadratic in candidates here)
    let cfg = MicroConfig::new(300, 3).uncertainty(0.05).range_frac(0.02).seed(43);
    let (audb, _) = micro_join_db(&cfg);
    let l = audb.get("t1").unwrap();
    let r = audb.get("t2").unwrap();
    let lt = col(0).lt(col(3));
    g.bench_function("nested_loop_lt_300", |b| {
        b.iter(|| black_box(nested_loop_join_au(l, r, Some(&lt)).unwrap()))
    });
    g.bench_function("planned_lt_300", |b| b.iter(|| black_box(join_au(l, r, Some(&lt)).unwrap())));
    for w in [1usize, 4] {
        let exec = Executor::new(w);
        g.bench_function(format!("planned_lt_300_w{w}"), |b| {
            b.iter(|| black_box(join_au_planned_exec(l, r, Some(&lt), &exec).unwrap()))
        });
    }
    g.finish();

    // trace-derived breakdown of the benched equi-join as a full query
    // (operator-at-a-time, so the join span reports its strategy)
    let cfg = MicroConfig::new(1000, 3).uncertainty(0.03).range_frac(0.02).seed(41);
    let (audb, _) = micro_join_db(&cfg);
    let q = table("t1").join_on(table("t2"), col(0).eq(col(3)));
    let traced_cfg = AuConfig { workers: Some(1), ..AuConfig::default() };
    let tr = TraceBuilder::enabled();
    AuPlan::oracle(&q, &traced_cfg, &tr).run(&audb, &traced_cfg.executor(), &tr).unwrap();
    let trace = QueryTrace { root: tr.finish().unwrap(), ..QueryTrace::default() };
    print_trace_breakdown("planned_1k", &trace);
    println!("engine fingerprint: {}", config_fingerprint(&traced_cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
