//! Emit a sample `QueryTrace` as versioned JSON on stdout.
//!
//! CI (`bench-perf-history`) runs this against the 10k fused spine,
//! validates the output against the schema documented in
//! `docs/observability.md`, and uploads it with the perf-history
//! artifact — so every commit ships a machine-readable example of what
//! the engine's EXPLAIN ANALYZE actually produced at that revision.
//!
//! Usage: `trace_sample [lanes|compressed|agg]` (default: `lanes`).
//! `agg` traces a `group_agg`-shaped γ instead of the spine — a 10k-row
//! table, a fifth of it with an uncertain group-by value, ~1000 groups,
//! sum/count/min/max, one worker — for its `agg_*` sites.
//! `compressed` (and `agg`) warm their tables first, as a serving
//! snapshot is: CI pins their `lane_builds` and `rows_built` at 0.

use audb_core::{col, lit};
use audb_query::au::AuConfig;
use audb_query::{eval_au_traced, table, AggFunc, AggSpec, Query};
use audb_storage::AuDatabase;
use audb_workloads::{gen_micro_au, micro_join_db, MicroConfig};

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
        "agg" => AuConfig { workers: Some(1), ..AuConfig::default() },
        other => {
            eprintln!("unknown flavor {other:?}; use lanes|compressed|agg");
            std::process::exit(2);
        }
    };
    let (audb, q) = if flavor == "agg" { group_agg() } else { spine() };
    if flavor == "compressed" {
        audb.warm_columns();
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
