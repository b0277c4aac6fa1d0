//! Emit a sample `QueryTrace` as versioned JSON on stdout.
//!
//! CI (`bench-perf-history`) runs this against the 10k fused spine,
//! validates the output against the schema documented in
//! `docs/observability.md`, and uploads it with the perf-history
//! artifact — so every commit ships a machine-readable example of what
//! the engine's EXPLAIN ANALYZE actually produced at that revision.
//!
//! Usage: `trace_sample [lanes|compressed|agg|serve-join]` (default:
//! `lanes`). `agg` traces a `group_agg`-shaped γ instead of the spine — a
//! 10k-row table, a fifth of it with an uncertain group-by value, ~1000
//! groups, sum/count/min/max, one worker — for its `agg_*` sites.
//! `serve-join` replays the serving mix's join class — its SQL over two
//! 2 000-row tables with 5 % of the rows uncertain, one worker — as a
//! warm served query runs it: after `WARM_RUNS` untraced runs the probe
//! build is kept and the allocator has settled, so the trace shows what
//! a warm run spends in `chain_*` and `reduce_merge_sort`. One run is
//! one op and swings between runs: compare medians of many.
//! `compressed`, `agg` and `serve-join` warm their tables first, as a
//! serving snapshot is: CI pins the first two's `lane_builds` and
//! `rows_built` at 0.

use audb_core::{col, lit};
use audb_query::au::AuConfig;
use audb_query::{eval_au, eval_au_traced, parse_sql, table, AggFunc, AggSpec, Query};
use audb_storage::AuDatabase;
use audb_workloads::{gen_micro_au, micro_join_db, MicroConfig};

/// Untraced runs of the `serve-join` query before the traced one.
const WARM_RUNS: usize = 20;

fn main() {
    let flavor = std::env::args().nth(1).unwrap_or_else(|| "lanes".to_string());
    let cfg = match flavor.as_str() {
        "lanes" => AuConfig { workers: Some(2), ..AuConfig::default() },
        "compressed" => AuConfig {
            join_compress: Some(64),
            agg_compress: Some(25),
            workers: Some(2),
            ..AuConfig::default()
        },
        "agg" | "serve-join" => AuConfig { workers: Some(1), ..AuConfig::default() },
        other => {
            eprintln!("unknown flavor {other:?}; use lanes|compressed|agg|serve-join");
            std::process::exit(2);
        }
    };
    let (audb, q) = match flavor.as_str() {
        "agg" => group_agg(),
        "serve-join" => serve_join(),
        _ => spine(),
    };
    if flavor == "compressed" {
        audb.warm_columns();
    }
    // a warm served query: kept build, allocator past its first runs
    for _ in 0..if flavor == "serve-join" { WARM_RUNS } else { 0 } {
        if let Err(e) = eval_au(&audb, &q, &cfg) {
            eprintln!("trace sample warm-up failed: {e}");
            std::process::exit(1);
        }
    }
    match eval_au_traced(&audb, &q, &cfg) {
        Ok((_, trace)) => {
            println!("{}", trace.to_json());
            eprintln!("{trace}");
        }
        Err(e) => {
            eprintln!("trace sample query failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The 10k fused spine under an aggregate.
fn spine() -> (AuDatabase, Query) {
    let micro = MicroConfig {
        domain: 10_000,
        ..MicroConfig::new(10_000, 3).uncertainty(0.03).range_frac(0.02).seed(71)
    };
    let (audb, _) = micro_join_db(&micro);
    let q = table("t1")
        .select(col(1).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(3)))
        .select(col(1).add(col(4)).lt(lit(5000i64)))
        .project(vec![(col(0), "k"), (col(1).add(col(4)), "v"), (col(2), "w")])
        .aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "total")]);
    (audb, q)
}

/// A `group_agg`-shaped γ over a warmed base table.
fn group_agg() -> (AuDatabase, Query) {
    let micro = MicroConfig::new(10_000, 3).uncertainty(0.2).range_frac(0.05).seed(71);
    let mut audb = AuDatabase::new();
    audb.insert("t", gen_micro_au(&micro));
    audb.warm_columns();
    let measure = |func, name: &str| AggSpec::new(func, col(1), name);
    let aggs = vec![
        measure(AggFunc::Sum, "s"),
        AggSpec::count("c"),
        measure(AggFunc::Min, "mn"),
        measure(AggFunc::Max, "mx"),
    ];
    (audb, table("t").aggregate(vec![0], aggs))
}

/// The serving mix's join class over two warmed 2 000-row tables, 5 % of
/// the rows uncertain.
fn serve_join() -> (AuDatabase, Query) {
    let micro =
        MicroConfig::new(2_000, 3).domain(2_000).uncertainty(0.05).range_frac(0.02).seed(71);
    let (audb, _) = micro_join_db(&micro);
    audb.warm_columns();
    let sql = "SELECT t1.a0, t1.a1 + t2.a1 AS v FROM t1 JOIN t2 ON t1.a0 = t2.a0 WHERE t1.a1 >= 0";
    match parse_sql(sql, &audb) {
        Ok(q) => (audb, q),
        Err(e) => {
            eprintln!("trace sample query does not parse: {e}");
            std::process::exit(1);
        }
    }
}
