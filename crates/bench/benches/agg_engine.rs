//! The row-once aggregation kernel vs the literal Definition 26 oracle
//! (`aggregate_au_scan`: all-pairs membership, one interpreted
//! evaluation per (group, member, term)), plus worker scaling for
//! aggregation and set difference. Acceptance: the kernel must beat the
//! oracle even at 1 worker.
//!
//! The former second criterion — "w4 must beat w1 by >= 2x on a machine
//! with >= 4 cores" — is **withdrawn for aggregation**, not met: the
//! per-pair fold that used to be ~95 % of the operator (and the only
//! partitioned part) is now ~1/4 of an operator that is ~7x faster at
//! one worker; the membership build (grouping index, sweep, CSR) and
//! the per-row `⊛` run on the calling thread, so Amdahl caps w4/w1 near
//! 1.3x. Measured on 2 cores: w1 6.9 / w2 7.1 / w4 7.2 ms (parent 49.2 /
//! 28.0 / 27.6 ms). The `w*` variants stay as a readback; parallel
//! membership is an open ROADMAP item.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use audb_core::col;
use audb_query::au::aggregate::{aggregate_au_exec, aggregate_au_scan};
use audb_query::au::difference::{difference_au_exec, difference_au_scan};
use audb_query::{AggFunc, AggSpec, Executor};
use audb_storage::AuRelation;
use audb_workloads::{gen_micro_au, micro_join_db, MicroConfig};

fn bench(c: &mut Criterion) {
    // 10k rows, ~1k SG groups on col 0, 20% of rows with uncertain
    // attributes: the oracle tests every group box against every
    // uncertain row; the kernel's sweep touches only overlapping pairs.
    let cfg = MicroConfig::new(10_000, 3).uncertainty(0.2).range_frac(0.02).seed(47);
    let rel = gen_micro_au(&cfg);
    let aggs = [
        AggSpec::new(AggFunc::Sum, col(1), "s"),
        AggSpec::count("c"),
        AggSpec::new(AggFunc::Min, col(2), "lo"),
        AggSpec::new(AggFunc::Max, col(2), "hi"),
    ];

    let mut g = c.benchmark_group("agg_engine");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1500));
    g.bench_function("agg_scan_10k", |b| {
        b.iter(|| black_box(aggregate_au_scan(&rel, &[0], &aggs, None).unwrap()))
    });
    for w in [1usize, 2, 4] {
        let exec = Executor::new(w);
        g.bench_function(format!("agg_indexed_10k_w{w}"), |b| {
            b.iter(|| black_box(aggregate_au_exec(&rel, &[0], &aggs, None, &exec).unwrap()))
        });
    }

    // indexed set difference under the same runtime (5k − 5k over a
    // shared key domain)
    let cfg = MicroConfig::new(5_000, 3).uncertainty(0.05).range_frac(0.02).seed(53);
    let (audb, _) = micro_join_db(&cfg);
    let l = audb.get("t1").unwrap();
    let r = audb.get("t2").unwrap();
    g.bench_function("diff_scan_5k", |b| b.iter(|| black_box(difference_au_scan(l, r).unwrap())));
    for w in [1usize, 4] {
        let exec = Executor::new(w);
        g.bench_function(format!("diff_indexed_5k_w{w}"), |b| {
            b.iter(|| black_box(difference_au_exec(l, r, &exec).unwrap()))
        });
    }

    // parallel normalization: the sort-merge tail, one sorted run per
    // worker (40k raw rows with 4x duplication onto 10k tuples).
    // Each iteration must clone the non-normalized input (normalize
    // consumes it; the criterion shim has no iter_batched), so the
    // clone-only baseline is benched too — subtract it to read the
    // driver's own w4/w1 scaling.
    let cfg = MicroConfig::new(10_000, 3).uncertainty(0.2).range_frac(0.02).seed(61);
    let base = gen_micro_au(&cfg);
    let mut messy = AuRelation::empty(base.schema.clone());
    for _ in 0..4 {
        messy.extend_from(&base);
    }
    g.bench_function("normalize_40k_clone", |b| b.iter(|| black_box(messy.clone())));
    for w in [1usize, 2, 4] {
        let exec = Executor::new(w);
        g.bench_function(format!("normalize_40k_w{w}"), |b| {
            b.iter(|| {
                let mut r = messy.clone();
                r.normalize_with(&exec).unwrap();
                black_box(r)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
