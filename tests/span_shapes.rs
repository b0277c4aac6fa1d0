//! The span shape of every plan node kind, pinned: a corpus that plans
//! and runs a base table under a chain (the oracle's scan), σ, π, the
//! three probe strategies, a compressing join, ∪, −, δ, γ with and
//! without breaker-narrow delivery, and a verifier-rejected chain — on
//! `AuPlan::new` and `AuPlan::oracle`, under `precise` and
//! `compressed(64)`, at one worker. Each trace is rendered as its span
//! tree: op, detail, sorted attribute keys, rows in / rows out — no
//! timings, no attribute values — and compared with
//! `tests/golden/span_shapes.txt`.
//!
//! A change that adds, drops, renames or re-parents a span or an
//! attribute fails here. To accept such a change on purpose, regenerate
//! the file (`cargo test --test span_shapes -- --ignored`) and review
//! its diff.

use audb::core::program::Program;
use audb::core::verify::mutate;
use audb::prelude::*;
use audb::query::with_tampered_programs;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/span_shapes.txt");

/// `n` rows `(i mod key_mod, v, i)`: `v` is a range on every row whose
/// index is a multiple of `every`, `i` otherwise.
fn rel(names: [&str; 3], n: i64, key_mod: i64, every: i64) -> AuRelation {
    let rows = (0..n).map(|i| {
        let v = match i % every {
            0 => RangeValue::range(i - 1, i, i + 2),
            _ => RangeValue::certain(Value::Int(i)),
        };
        let cells = vec![
            RangeValue::certain(Value::Int(i % key_mod)),
            v,
            RangeValue::certain(Value::Int(i)),
        ];
        au_row(cells, 1, 1, 1 + (i % 3) as u64)
    });
    AuRelation::from_rows(Schema::named(&names), rows.collect())
}

/// `t1` / `t2` for the small shapes; `b1` / `b2` hold an uncertain cell
/// on every row, enough that `compressed(64)`'s adaptive verdict
/// compresses their join (and a γ grouping on the uncertain column).
fn db() -> AuDatabase {
    let mut db = AuDatabase::new();
    db.insert("t1", rel(["k", "v", "w"], 40, 8, 5));
    db.insert("t2", rel(["k2", "v2", "w2"], 30, 8, 4));
    db.insert("b1", rel(["k", "v", "w"], 800, 100, 1));
    db.insert("b2", rel(["k2", "v2", "w2"], 800, 100, 1));
    db
}

fn sum(c: usize) -> AggSpec {
    AggSpec::new(AggFunc::Sum, col(c), "s")
}

fn corpus() -> Vec<(&'static str, Query)> {
    let t = table;
    vec![
        ("table", t("t1")),
        (
            "select-project",
            t("t1")
                .select(col(1).geq(lit(5i64)))
                .project(vec![(col(0), "k"), (col(1).add(col(2)), "s")]),
        ),
        (
            "probe-hash",
            t("t1")
                .select(col(2).geq(lit(3i64)))
                .join_on(t("t2"), col(0).eq(col(3)))
                .select(col(1).leq(col(4).add(lit(30i64))))
                .project(vec![(col(0), "k"), (col(1).add(col(4)), "s")]),
        ),
        ("probe-comparison", t("t1").join_on(t("t2"), col(2).lt(col(5)))),
        ("probe-nested-loop", t("t1").join_on(t("t2"), col(0).add(col(3)).leq(lit(3i64)))),
        (
            "compressing-join",
            t("b1")
                .join_on(t("b2"), col(0).eq(col(3)))
                .project(vec![(col(0), "k"), (col(1).add(col(4)), "s")]),
        ),
        (
            "compressing-join-under-aggregate",
            t("b1").join_on(t("b2"), col(0).eq(col(3))).aggregate(vec![0], vec![sum(4)]),
        ),
        ("union", t("t1").union(t("t2"))),
        ("difference", t("t1").difference(t("t2").select(col(0).geq(lit(4i64))))),
        ("distinct", t("t1").project(vec![(col(0), "k")]).distinct()),
        (
            "aggregate-narrow",
            t("t1")
                .join_on(t("t2"), col(0).eq(col(3)))
                .aggregate(vec![0], vec![sum(4), AggSpec::count("c")]),
        ),
        (
            "aggregate-table",
            t("t1").aggregate(vec![0], vec![sum(1), AggSpec::new(AggFunc::Max, col(2), "m")]),
        ),
        (
            "aggregate-over-breaker",
            t("t1")
                .union(t("t2"))
                .aggregate(vec![0], vec![AggSpec::new(AggFunc::Min, col(1), "m")]),
        ),
        ("aggregate-compressed", t("b1").aggregate(vec![1], vec![sum(2)])),
    ]
}

/// Replace a program with its first verifier-rejectable mutant.
fn corrupt_if_possible(p: Program) -> Program {
    let mut rejectable = mutate::mutants(&p).into_iter().map(|m| m.program);
    rejectable.find(|m| m.verify_full().is_err()).unwrap_or(p)
}

fn render(span: &TraceSpan, depth: usize, out: &mut String) {
    let mut keys: Vec<&str> = span.attrs.iter().map(|(k, _)| *k).collect();
    keys.sort_unstable();
    let rows = |r: Option<u64>| r.map_or_else(|| "-".to_string(), |r| r.to_string());
    out.push_str(&format!(
        "{}{} [{}] {{{}}} in={} out={}\n",
        "  ".repeat(depth),
        span.op,
        span.detail,
        keys.join(","),
        rows(span.rows_in),
        rows(span.rows_out),
    ));
    for child in &span.children {
        render(child, depth + 1, out);
    }
}

/// Plan (traced, so chains keep their details) and run `q` under one
/// `query` span.
fn trace(db: &AuDatabase, q: &Query, cfg: &AuConfig, oracle: bool) -> TraceSpan {
    let (tr, metrics) = (TraceBuilder::enabled(), Metrics::enabled());
    let exec = cfg.executor().with_metrics(metrics.clone());
    let root = tr.open("query", String::new);
    let plan =
        if oracle { AuPlan::oracle(q, cfg, &tr) } else { AuPlan::new(q, cfg, &metrics, &tr) };
    plan.run(db, &exec, &tr).expect("the corpus evaluates");
    tr.close(root, None, None);
    tr.finish().expect("an enabled builder has a root span")
}

fn render_corpus() -> String {
    let db = db();
    let configs = [("precise", AuConfig::precise()), ("compressed(64)", AuConfig::compressed(64))];
    let mut out = String::new();
    for (cname, cfg) in configs {
        let cfg = cfg.with_workers(1);
        for (qname, q) in corpus() {
            for (pname, oracle) in [("new", false), ("oracle", true)] {
                out.push_str(&format!("## {qname} | {cname} | {pname}\n"));
                render(&trace(&db, &q, &cfg, oracle), 0, &mut out);
            }
        }
        let q = table("t1").select(col(0).leq(col(1))).project(vec![(col(0).add(col(1)), "s")]);
        out.push_str(&format!("## verifier-rejected | {cname} | new\n"));
        let span = with_tampered_programs(corrupt_if_possible, || trace(&db, &q, &cfg, false));
        render(&span, 0, &mut out);
    }
    out
}

#[test]
fn every_node_kind_keeps_its_span_shape() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/span_shapes.txt");
    let got = render_corpus();
    let mut case = "";
    for (i, (want, have)) in golden.lines().zip(got.lines()).enumerate() {
        if want.starts_with("## ") {
            case = want;
        }
        assert_eq!(have, want, "line {}, in {case}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "line count");
}

/// Rewrite the golden file from this build — on purpose only.
#[test]
#[ignore = "regenerates tests/golden/span_shapes.txt"]
fn regenerate_span_shapes_golden() {
    std::fs::write(GOLDEN, render_corpus()).expect("write the golden file");
}
