//! Sharded lane pipelines vs the operator-at-a-time oracle
//! (`AuPlan::oracle`): the acceptance benchmark for the pipeline
//! driver. The fused select→join→project spine over 10k rows must beat
//! the oracle by >= 1.5x at **one worker** (criterion_4) — the win is
//! algorithmic (intermediate materializations, per-operator merge
//! barriers and per-row `Expr`-tree interpretation eliminated), not
//! core count. The w4 variants additionally feed the multi-core CI
//! readback (w4/w1 wall-clock scaling on the same fused pass).
//!
//! The `pipeline_10k_guarded_w1` variant runs the same fused chain with
//! the full governance apparatus armed but never tripping — a far-away
//! deadline (every cancellation checkpoint takes the `Instant::now()`
//! branch) and an unlimited budget (every charge site runs its atomic
//! meter). Guarded vs unguarded at one worker is the cancellation-check
//! overhead gate: the ratio must stay <= 1.03 (criterion_7, measured
//! within one run so machine speed cancels out).
//!
//! The `pipeline_10k_metrics_w1` variant runs the same fused chain
//! through `eval_au_traced` — live atomic counters, duration
//! histograms, and span assembly. Traced vs untraced at one worker is
//! the observability overhead gate: the ratio must stay <= 1.03
//! (criterion_8, intra-run like criterion_7). The run also prints the
//! trace-derived per-operator breakdown and the engine-config
//! fingerprint the wall-clock numbers were measured under.
//!
//! Tier B static verification is unconditional (once per compiled
//! stage per query, never per row); its price is read off the
//! benchmark's own trace (`trace.verify_us` over `query.au_ms_p50`,
//! criterion 9 in `docs/static-analysis.md`), not off a second config.
//!
//! The `pipeline_10k_columnar_w1` / `operator_10k_batchable_w1` pair
//! runs an arithmetic-heavy probe-free chain (select/project only) over
//! the same homogeneous-Int 10k table on the lanes and on the oracle:
//! op-at-a-time vector kernels over contiguous typed lanes against
//! per-row interpretation of boxed `RangeValue`s (informational,
//! intra-run). Byte-identity of the two is property-tested in
//! tests/columnar_props.rs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use audb_bench::{config_fingerprint, print_trace_breakdown};
use audb_core::obs::TraceBuilder;
use audb_core::{col, lit, BudgetSpec};
use audb_query::au::AuConfig;
use audb_query::{eval_au, eval_au_traced, table, AuPlan, Query};
use audb_workloads::{micro_join_db, MicroConfig};

fn spine() -> Query {
    // select → equi-join → select → project: one maximal row-local
    // chain, fused into a single pass per shard with one breaker
    // normalization. The post-join selection is where pipelining pays:
    // the operator-at-a-time path materializes every possible join
    // match (~130k rows — uncertain key bands keep *possible* matches)
    // before filtering, the fused chain never does.
    table("t1")
        .select(col(1).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(3)))
        .select(col(1).add(col(4)).lt(lit(5000i64)))
        .project(vec![(col(0), "k"), (col(1).add(col(4)), "v"), (col(2), "w")])
}

fn batchable_chain() -> Query {
    // select → project → select → project with no probe stage: the
    // whole chain runs vector kernels over the borrowed t1 lanes. Arithmetic-heavy on
    // purpose — every op is a typed i64 kernel (checked adds/muls that
    // never overflow on this domain, comparison kernels for the
    // selections).
    table("t1")
        .select(col(1).geq(lit(0i64)))
        .project(vec![
            (col(0), "k"),
            (col(1).add(col(2)), "s"),
            (col(2).mul(lit(3i64)), "m"),
            (col(1).sub(col(2)), "d"),
        ])
        .select(col(1).lt(lit(20_000i64)).and(col(3).geq(lit(-10_000i64))))
        .project(vec![(col(0), "k"), (col(1).add(col(2)).add(col(3)), "v")])
}

fn bench(c: &mut Criterion) {
    // fig14-style shape scaled to 10k: key domain = row count (~1 match
    // per key), 3% uncertain rows
    let cfg = MicroConfig {
        domain: 10_000,
        ..MicroConfig::new(10_000, 3).uncertainty(0.03).range_frac(0.02).seed(71)
    };
    let (audb, _) = micro_join_db(&cfg);
    let q = spine();

    let mut g = c.benchmark_group("pipeline_engine");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(1500));

    // the oracle side as `eval_au` runs its side: plan, derive the
    // executor, run
    let untraced = TraceBuilder::disabled();
    let oracle = |q: &Query, cfg: &AuConfig| {
        AuPlan::oracle(q, cfg, &untraced).run(&audb, &cfg.executor(), &untraced).unwrap()
    };
    for w in [1usize, 4] {
        let operator = AuConfig { workers: Some(w), ..AuConfig::default() };
        g.bench_function(format!("operator_10k_w{w}"), |b| {
            b.iter(|| black_box(oracle(&q, &operator)))
        });
        let pipeline = AuConfig { workers: Some(w), ..AuConfig::default() };
        g.bench_function(format!("pipeline_10k_w{w}"), |b| {
            b.iter(|| black_box(eval_au(&audb, &q, &pipeline).unwrap()))
        });
    }

    // governance overhead: deadline armed (never expires) + budget
    // meters running (never trip) on the same fused chain
    let guarded = AuConfig { workers: Some(1), ..AuConfig::default() }
        .with_timeout(std::time::Duration::from_secs(3600))
        .with_budget(BudgetSpec::unlimited());
    g.bench_function("pipeline_10k_guarded_w1", |b| {
        b.iter(|| black_box(eval_au(&audb, &q, &guarded).unwrap()))
    });

    // observability overhead: live metrics + trace assembly on the
    // same fused chain (criterion_8, vs pipeline_10k_w1 within this run)
    let traced_cfg = AuConfig { workers: Some(1), ..AuConfig::default() };
    g.bench_function("pipeline_10k_metrics_w1", |b| {
        b.iter(|| black_box(eval_au_traced(&audb, &q, &traced_cfg).unwrap()))
    });

    // lanes vs oracle on a probe-free arithmetic chain (intra-run
    // ratio): typed lane kernels vs per-row interpretation
    let bq = batchable_chain();
    let columnar = AuConfig { workers: Some(1), ..AuConfig::default() };
    g.bench_function("operator_10k_batchable_w1", |b| b.iter(|| black_box(oracle(&bq, &columnar))));
    g.bench_function("pipeline_10k_columnar_w1", |b| {
        b.iter(|| black_box(eval_au(&audb, &bq, &columnar).unwrap()))
    });
    g.finish();

    // one traced run outside the timing loop: where the spine spends
    // its time, per operator, straight off the execution trace
    let (_, trace) = eval_au_traced(&audb, &q, &traced_cfg).unwrap();
    print_trace_breakdown("pipeline_10k_w1", &trace);
    println!("engine fingerprint: {}", config_fingerprint(&traced_cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
