//! The observability layer's core contract: *watching a query must not
//! change it*. A traced evaluation has to return byte-identical results
//! to an untraced one for every workers × splits combination, while the trace
//! it produces has to tell the truth — root-span cardinalities equal to
//! the materialized relation, planner strategies matching what the
//! planner would classify, fusion/fallback decisions with their
//! blocking reasons, and (under `--features faults`) injected faults
//! landing in the event log with the exact driver/morsel coordinates
//! the fault plan fired at.

mod common;

use proptest::prelude::*;

use audb::core::{col, lit, Expr};
use audb::prelude::*;
use audb::query::table;
use common::{
    au_relation_strategy, cfg_lanes, eval_lanes, eval_lanes_traced, eval_oracle,
    eval_oracle_traced, lanes_exec, splits, WORKERS,
};

/// Query shapes covering fused chains, breakers, and set operators.
fn trace_queries() -> Vec<Query> {
    vec![
        table("t1")
            .select(col(1).geq(lit(0i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0).add(col(3)), "x"), (col(1), "y")]),
        table("t1")
            .select(col(0).leq(lit(3i64)))
            .join_on(table("t2"), col(0).eq(col(2)))
            .project(vec![(col(0), "g"), (col(1).add(col(3)), "v")])
            .aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]),
        table("t1").difference(table("t2").project(vec![(col(0), "A"), (col(1), "B")])),
        table("t1").project(vec![(col(0), "a")]).distinct(),
    ]
}

// ---------------------------------------------------------------------------
// satellite: traced evaluation is observation-free
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A traced attempt (live span builder, live meters) returns a
    /// byte-identical relation to an untraced one for every workers ×
    /// splits shape, and the root span's rows_out/bytes_out equal the
    /// materialized relation's actual cardinality and estimated
    /// footprint.
    #[test]
    fn traced_result_identical_and_root_counters_exact(
        t1 in au_relation_strategy("A", "B", 12),
        t2 in au_relation_strategy("C", "D", 12),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t1", t1);
        db.insert("t2", t2);
        let base = AuConfig::default();
        for q in trace_queries() {
            for w in WORKERS {
                for split in splits() {
                    let exec = lanes_exec(&base, w, split);
                    let reference = eval_lanes(&db, &q, &base, &exec).unwrap();
                    let metered = exec.with_metrics(Metrics::enabled());
                    let (traced, root) = eval_lanes_traced(&db, &q, &base, &metered);
                    prop_assert_eq!(
                        &traced.unwrap(), &reference,
                        "traced != untraced: workers = {}, {:?}, q = {}", w, split, &q
                    );
                    prop_assert_eq!(
                        (root.rows_out, root.bytes_out),
                        (Some(reference.len() as u64), Some(reference.estimated_bytes())),
                        "root rows/bytes out, workers = {}, {:?}, q = {}", w, split, &q
                    );
                    // a clean run records no governance/fault events
                    let events = metered.metrics().take_events();
                    prop_assert!(events.is_empty(), "events = {:?}", &events);
                }
            }
        }
    }
}

/// The same property at real size, through the public entry points on
/// the default split: `eval_au_traced` ≡ `eval_au` over a 3 584-row
/// source whose chains run as three morsels and whose breakers leave
/// the inline path at two and four workers.
#[test]
fn traced_result_identical_at_real_size() {
    let mut db = corpus_db();
    db.insert("t1", corpus_rel(3584, 61));
    for q in trace_queries() {
        let reference = eval_oracle(&db, &q, &AuConfig::default()).unwrap();
        for w in [1, 2, 4] {
            let (traced, trace) = eval_au_traced(&db, &q, &cfg_lanes(w)).unwrap();
            assert_eq!(traced, eval_au(&db, &q, &cfg_lanes(w)).unwrap(), "w = {w}, q = {q}");
            assert_eq!(traced, reference, "lanes vs oracle: w = {w}, q = {q}");
            assert_eq!(trace.version, TRACE_SCHEMA_VERSION);
            assert_eq!(trace.root.rows_out, Some(reference.len() as u64), "w = {w}, q = {q}");
            assert!(trace.events.is_empty(), "events = {:?}", &trace.events);
        }
    }
}

// ---------------------------------------------------------------------------
// explain content: strategy, fusion, lanes-vs-oracle
// ---------------------------------------------------------------------------

/// Three tables shaped like the paper's experiment corpus: `t`
/// (fig13-style aggregation input), `t1`/`t2` (fig14-style join pair).
fn corpus_db() -> AuDatabase {
    let mut db = AuDatabase::new();
    db.insert("t", corpus_rel(200, 8));
    db.insert("t1", corpus_rel(120, 10));
    db.insert("t2", corpus_rel(90, 10));
    db
}

/// `n` rows `(i mod key_mod, i)`, every fifth value a range.
fn corpus_rel(n: i64, key_mod: i64) -> AuRelation {
    let value = |i: i64| match i % 5 {
        0 => RangeValue::range(i - 1, i, i + 2),
        _ => RangeValue::certain(Value::Int(i)),
    };
    let rows = (0..n)
        .map(|i| au_row(vec![RangeValue::certain(Value::Int(i % key_mod)), value(i)], 1, 1, 1));
    AuRelation::from_rows(Schema::named(&["k", "v"]), rows.collect())
}

/// fig13-shaped aggregation: the trace reports the aggregate operator
/// with its group/agg detail and the compression knob.
#[test]
fn explain_reports_aggregate_breakdown() {
    let db = corpus_db();
    let q = table("t").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
    let cfg = AuConfig { agg_compress: Some(25), ..AuConfig::default() };
    let ex = explain(&db, &q, &cfg).unwrap();
    let agg = ex.root.find("aggregate").expect("aggregate span");
    assert_eq!(agg.attr("compress"), Some("25"));
    assert_eq!(agg.rows_in, Some(200));
    assert!(agg.rows_out.is_some() && agg.bytes_out.is_some());
    // what the row-once kernel did: 8 certain groups, so no possible-
    // member sources to sweep; every row is a member of its own group;
    // one typed (Sum, col 1) term
    for (key, want) in [
        ("groups", "8"),
        ("sources", "0"),
        ("pairs", "0"),
        ("members", "200"),
        ("terms", "1"),
        ("terms_boxed", "0"),
    ] {
        assert_eq!(agg.attr(key), Some(want), "aggregate attr {key}");
    }
    // phase timings are sites, not child spans: the only child is the
    // input — a (stage-less) chain, since compressed configs fuse too
    assert_eq!(agg.children.iter().map(|c| c.op.as_str()).collect::<Vec<_>>(), ["fused-chain"]);
    let m = &ex.metrics;
    assert_eq!(m.counter("agg_terms_boxed"), Some(0));
    for site in ["agg_index", "agg_contrib", "agg_fold"] {
        let s = m.sites.iter().find(|s| s.site == site).expect("aggregation site");
        assert_eq!(s.entries, 1, "one aggregate → one {site} entry");
    }
    // the text renderer mentions the operator and the engine echo
    let text = ex.to_string();
    assert!(text.contains("aggregate"), "text:\n{text}");
    assert!(text.contains("engine:"), "text:\n{text}");
}

/// No silent demotion: a column the typed lanes cannot hold (here a
/// `null`-style `[MinVal / sg / MaxVal]` cell) sends its terms down the
/// boxed path, and both the span and the counter say so; uncertain
/// group-by values show up as swept sources and candidate pairs.
#[test]
fn explain_reports_boxed_aggregation_terms() {
    let rows = (0..40i64).map(|i| {
        let g = match i % 4 {
            0 => RangeValue::range(i % 5, i % 5, i % 5 + 1),
            _ => RangeValue::certain(Value::Int(i % 5)),
        };
        let v = match i {
            7 => RangeValue::unknown(Value::Int(7)),
            _ => RangeValue::certain(Value::Int(i)),
        };
        (RangeTuple::new(vec![g, v, RangeValue::certain(Value::Int(i))]), AuAnnot::triple(1, 1, 1))
    });
    let mut db = AuDatabase::new();
    db.insert("t", AuRelation::from_rows(Schema::named(&["g", "v", "w"]), rows.collect()));
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, col(1), "s"),
        AggSpec::new(AggFunc::Min, col(1), "lo"),
        AggSpec::new(AggFunc::Avg, col(2), "a"),
    ];
    let q = table("t").aggregate(vec![0], aggs);
    let (out, trace) = eval_au_traced(&db, &q, &AuConfig::default()).unwrap();
    assert_eq!(out, eval_au(&db, &q, &AuConfig::default()).unwrap());
    let agg = trace.root.find("aggregate").expect("aggregate span");
    // terms: (Sum, v), (Min, v), (Sum, w), (Sum, 1) — the two over `v` box
    assert_eq!(agg.attr("terms"), Some("4"));
    assert_eq!(agg.attr("terms_boxed"), Some("2"));
    assert_eq!(trace.metrics.counter("agg_terms_boxed"), Some(2));
    assert_eq!(agg.attr("sources"), Some("10"));
    let pairs: usize = agg.attr("pairs").unwrap().parse().unwrap();
    let members: usize = agg.attr("members").unwrap().parse().unwrap();
    assert!(pairs >= 10, "every uncertain row overlaps at least its own group: {pairs}");
    assert!((30 + 10..=30 + pairs).contains(&members), "members = {members}, pairs = {pairs}");
}

/// A typed `sum` whose *fold* overflows `i64` (the `⊛` products still
/// fit) is redone boxed in every group it overflows in, but it is one
/// demoted term: counter and span attribute agree on 1, not on the
/// number of groups.
#[test]
fn fold_promoted_term_counts_once() {
    let rows = (0..6i64).map(|i| {
        let cells = [Value::Int(i % 3), Value::Int(i64::MAX - 1), Value::Int(i)];
        (RangeTuple::new(cells.map(RangeValue::certain).to_vec()), AuAnnot::triple(1, 1, 1))
    });
    let mut db = AuDatabase::new();
    db.insert("t", AuRelation::from_rows(Schema::named(&["g", "v", "w"]), rows.collect()));
    let aggs =
        vec![AggSpec::new(AggFunc::Sum, col(1), "s"), AggSpec::new(AggFunc::Sum, col(2), "t")];
    let q = table("t").aggregate(vec![0], aggs);
    let (out, trace) = eval_au_traced(&db, &q, &AuConfig::default()).unwrap();
    // three groups, each summing two values next to `i64::MAX`: the
    // result left the integers (`Value` arithmetic promotes to float)
    assert_eq!(out.len(), 3);
    assert!(out.rows().iter().all(|(t, _)| t.0[1].sg > Value::Int(i64::MAX)));
    let agg = trace.root.find("aggregate").expect("aggregate span");
    assert_eq!(agg.attr("terms"), Some("2"));
    assert_eq!(agg.attr("terms_boxed"), Some("1"));
    assert_eq!(trace.metrics.counter("agg_terms_boxed"), Some(1));
}

/// No silent demotion of the group-by lanes either: every key lane
/// typed (`Int`/`Float`/`Bool`/`Str`) reads `keys = typed`; one `Boxed`
/// key lane (a column mixing strings and integers here, next to an
/// `Int` one) reads `keys = boxed` and ticks `agg_keys_boxed` once for
/// the run — grouping confirmed `Value`s and the membership sweep ran on
/// boxed endpoints.
#[test]
fn aggregate_span_names_the_key_lanes() {
    let rows = (0..40i64).map(|i| {
        let g = match i % 4 {
            0 => RangeValue::range(i % 5, i % 5, i % 5 + 1),
            _ => RangeValue::certain(Value::Int(i % 5)),
        };
        let name = RangeValue::certain(Value::str(["x", "y", "z"][i as usize % 3]));
        let mixed = match i % 3 {
            0 => RangeValue::certain(Value::Int(i % 2)),
            _ => name.clone(),
        };
        let cells = vec![g, name, RangeValue::certain(Value::Int(i)), mixed];
        (RangeTuple::new(cells), AuAnnot::triple(1, 1, 1))
    });
    let mut db = AuDatabase::new();
    let schema = Schema::named(&["g", "name", "v", "mixed"]);
    db.insert("t", AuRelation::from_rows(schema, rows.collect()));
    let aggs = vec![AggSpec::new(AggFunc::Sum, col(2), "s"), AggSpec::count("c")];
    for (group_by, keys, ticks) in [
        (vec![0], "typed", 0),
        (vec![1], "typed", 0),
        (vec![0, 1], "typed", 0),
        (vec![3], "boxed", 1),
        (vec![0, 3], "boxed", 1),
        (vec![], "typed", 0),
    ] {
        let q = table("t").aggregate(group_by.clone(), aggs.clone());
        let (out, trace) = eval_au_traced(&db, &q, &AuConfig::default()).unwrap();
        assert_eq!(out, eval_au(&db, &q, &AuConfig::default()).unwrap());
        let agg = trace.root.find("aggregate").expect("aggregate span");
        assert_eq!(agg.attr("keys"), Some(keys), "group by {group_by:?}");
        assert_eq!(trace.metrics.counter("agg_keys_boxed"), Some(ticks), "group by {group_by:?}");
        // the typed measure stays typed whatever the keys are
        assert_eq!(agg.attr("terms_boxed"), Some("0"));
    }
}

/// Nor which membership ran: a γ grouped by one `Int` column whose
/// terms fold in any order (`Int` sum and count, `Float` min, `Int` max)
/// reads `membership = prefix`; the same γ with a `Float` sum, and a
/// Q1-shaped one (two key columns, a `Float` sum), read `sweep`. Both
/// memberships count the same pairs and members.
#[test]
fn aggregate_span_names_its_membership() {
    let rows = (0..60i64).map(|i| {
        let g = match i % 4 {
            0 => RangeValue::range(i % 7 - 1, i % 7, i % 7 + 1),
            _ => RangeValue::certain(Value::Int(i % 7)),
        };
        let flag = RangeValue::certain(Value::str(["A", "N", "R"][i as usize % 3]));
        let f = RangeValue::range(i as f64 * 0.5 - 1.0, i as f64 * 0.5, i as f64 * 0.5);
        let cells = vec![g, flag, RangeValue::range(i - 2, i, i + 1), f];
        (RangeTuple::new(cells), AuAnnot::triple(i as u64 % 2, 1, 2))
    });
    let mut db = AuDatabase::new();
    let schema = Schema::named(&["g", "flag", "v", "f"]);
    db.insert("t", AuRelation::from_rows(schema, rows.collect()));
    let order_free = vec![
        AggSpec::new(AggFunc::Sum, col(2), "s"),
        AggSpec::count("c"),
        AggSpec::new(AggFunc::Min, col(3), "lo"),
        AggSpec::new(AggFunc::Max, col(2), "hi"),
    ];
    let mut float_sum = order_free.clone();
    float_sum.push(AggSpec::new(AggFunc::Sum, col(3), "fs"));
    let mut counted = Vec::new();
    for (group_by, aggs, membership) in [
        (vec![0], order_free, "prefix"),
        (vec![0], float_sum.clone(), "sweep"),
        (vec![1, 0], float_sum, "sweep"),
    ] {
        let q = table("t").aggregate(group_by.clone(), aggs);
        let (out, trace) = eval_au_traced(&db, &q, &AuConfig::default()).unwrap();
        assert_eq!(out, eval_oracle(&db, &q, &AuConfig::default()).unwrap());
        let agg = trace.root.find("aggregate").expect("aggregate span");
        assert_eq!(agg.attr("membership"), Some(membership), "group by {group_by:?}");
        assert!(agg.attr("pairs").is_some_and(|p| p != "0"), "group by {group_by:?}");
        counted
            .push((agg.attr("pairs").map(str::to_owned), agg.attr("members").map(str::to_owned)));
    }
    assert_eq!(counted[0], counted[1], "one key: both memberships count alike");
}

/// fig14-shaped joins: the planner strategy lands on the join span —
/// hash-equi for an equality predicate, interval-comparison for an
/// inequality, split-compress when the compressed path is forced.
#[test]
fn explain_reports_join_strategy() {
    let db = corpus_db();
    let base = AuConfig::default();
    let cases: [(Option<Expr>, AuConfig, &str); 3] = [
        (Some(col(0).eq(col(2))), base, "hash-equi"),
        (Some(col(0).leq(col(2))), base, "interval-comparison"),
        (Some(col(0).eq(col(2))), AuConfig { join_compress: Some(32), ..base }, "split-compress"),
    ];
    for (pred, cfg, want) in cases {
        let q = match &pred {
            Some(p) => table("t1").join_on(table("t2"), p.clone()),
            None => table("t1").cross(table("t2")),
        };
        // the oracle, so the join gets its own span (the lanes fuse a
        // bare join into a chain, covered separately below)
        let (_, root) = eval_oracle_traced(&db, &q, &cfg);
        let join = root.find("join").expect("join span");
        assert_eq!(join.attr("strategy"), Some(want), "pred = {pred:?}");
        assert_eq!(join.rows_in, Some(120 + 90));
    }
}

/// A multi-join chain (fig16 shape): every join span carries a
/// strategy, and the default run reports the fused chain with its
/// operator summary and morsel count under a `lanes` attempt.
#[test]
fn explain_reports_multi_join_and_fusion() {
    let db = corpus_db();
    let q = table("t")
        .join_on(table("t1"), col(0).eq(col(2)))
        .join_on(table("t2"), col(1).eq(col(4)))
        .select(col(0).geq(lit(0i64)))
        .project(vec![(col(0), "a"), (col(5), "b")]);

    // the oracle: two join spans, each classified
    let (_, root) = eval_oracle_traced(&db, &q, &AuConfig::default());
    assert_eq!(root.find("attempt").and_then(|a| a.attr("mode")), Some("oracle"));
    let mut joins = 0;
    root.walk(&mut |s| {
        if s.op == "join" {
            joins += 1;
            assert_eq!(s.attr("strategy"), Some("hash-equi"));
        }
    });
    assert_eq!(joins, 2, "both joins must be traced:\n{root:?}");

    // the lanes: the spine fuses into one chain; attrs name the mode
    let ex = explain(&db, &q, &cfg_lanes(2)).unwrap();
    let attempt = ex.root.find("attempt").expect("attempt span");
    assert_eq!(attempt.attr("mode"), Some("lanes"));
    let fused = ex.root.find("fused-chain").expect("fused chain span");
    let ops = fused.attr("ops").expect("ops summary");
    assert!(ops.contains("⋈(hash-equi)") && ops.contains("σ") && ops.contains("π"), "{ops}");
    // its source is the materialized `t ⋈ t1`: 2 400 rows, two morsels
    assert_eq!(fused.attr("morsels"), Some("2"));
    assert_eq!(fused.attr("shards"), None);
    // one path: nothing left to say about how a chain's exprs ran
    for gone in ["exprs", "batched", "columnar"] {
        assert_eq!(fused.attr(gone), None, "{gone}");
        assert_eq!(attempt.attr(gone), None, "{gone}");
    }
    for (key, _) in &ex.engine {
        let gone = ["pipeline", "compiled", "columnar", "shards", "verify", "oracle"];
        assert!(!gone.contains(key), "engine echo has {key}");
    }
}

/// A probe chain on the lanes says what it did: the candidate pairs it
/// enumerated, the batches it ran them in, the lane stages that fell
/// back to boxed evaluation, whether its indexes read typed key cells
/// and how many output columns its normalization keyed typed — and its
/// build, its pair batches, the (one-worker) breaker normalization and
/// the one tuple-building pass land in duration sites.
#[test]
fn probe_chain_span_reports_pairs_batches_and_demotions() {
    let db = corpus_db();
    let cfg = AuConfig { workers: Some(1), ..AuConfig::default() };
    // t1 has 120 rows over 10 certain keys, t2 holds 9 rows per key
    let spine = table("t1")
        .select(col(1).geq(lit(0i64)))
        .join_on(table("t2"), col(0).eq(col(2)))
        .select(col(1).add(col(3)).lt(lit(150i64)))
        .project(vec![(col(0), "k"), (col(1).add(col(3)), "s")]);
    let (rel, trace) = eval_au_traced(&db, &spine, &cfg).unwrap();
    assert_eq!(rel, eval_au(&db, &spine, &cfg).unwrap(), "traced != untraced");
    let fused = trace.root.find("fused-chain").expect("fused chain span");
    assert_eq!(fused.attr("pairs"), Some("1080"));
    assert_eq!(fused.attr("pair_batches"), Some("1"));
    assert_eq!(fused.attr("stages_boxed"), Some("0"));
    assert_eq!(trace.metrics.counter("chain_stages_boxed"), Some(0));
    assert_eq!(fused.attr("keys"), Some("typed"));
    assert_eq!(fused.attr("keyed"), Some("2/2"));
    assert_eq!(trace.metrics.counter("probe_keys_boxed"), Some(0));
    let site = |name: &str| {
        let s = trace.metrics.sites.iter().find(|s| s.site == name);
        s.unwrap_or_else(|| panic!("site {name}")).entries
    };
    assert_eq!(site("chain_build"), 1);
    assert_eq!(site("chain_probe"), 1);
    assert_eq!(site("chain_materialize"), 1);
    assert!(site("reduce_merge_sort") >= 1, "sequential normalization is timed");

    // string keys ride `Str` lanes, one dictionary per table: across
    // two tables the index keys and sweeps on the strings (visibly), and
    // the re-check stage places one dictionary in the other and stays
    // typed; a self-join shares one dictionary and keys on its codes
    // (`m`'s key column mixes in integers)
    let names = |n: usize, mixed: bool| {
        let rows = (0..n).map(|i| {
            let key = match i % 3 {
                0 if mixed => RangeValue::certain(Value::Int((i % 4) as i64)),
                _ => RangeValue::certain(Value::str(format!("k{}", i % 4))),
            };
            (
                RangeTuple::new(vec![key, RangeValue::certain(Value::Int(i as i64))]),
                AuAnnot::certain_one(),
            )
        });
        AuRelation::from_rows(Schema::named(&["k", "v"]), rows.collect())
    };
    let mut sdb = AuDatabase::new();
    sdb.insert("l", names(12, false));
    sdb.insert("r", names(8, false));
    sdb.insert("m", names(8, true));
    for (right, pairs, keys, ticks) in [("r", "24", "boxed", 1), ("l", "36", "typed", 0)] {
        let q = table("l").join_on(table(right), col(0).eq(col(2)));
        let (rel, trace) = eval_au_traced(&sdb, &q, &cfg).unwrap();
        assert_eq!(rel, eval_au(&sdb, &q, &cfg).unwrap(), "traced != untraced");
        let fused = trace.root.find("fused-chain").expect("fused chain span");
        assert_eq!(fused.attr("pairs"), Some(pairs));
        assert_eq!(fused.attr("stages_boxed"), Some("0"), "l ⋈ {right}");
        assert_eq!(trace.metrics.counter("chain_stages_boxed"), Some(0));
        assert_eq!(fused.attr("keys"), Some(keys), "l ⋈ {right}");
        assert_eq!(trace.metrics.counter("probe_keys_boxed"), Some(ticks), "l ⋈ {right}");
        assert_eq!(fused.attr("keyed"), Some("4/4"), "k, v, k, v: every column keys typed");
    }
    // a key column mixing strings and integers is a boxed lane: the
    // re-check stage demotes, visibly, and so does the build — its hash
    // index confirmed boxed cells
    let q = table("l").join_on(table("m"), col(0).eq(col(2)));
    let (rel, trace) = eval_au_traced(&sdb, &q, &cfg).unwrap();
    assert_eq!(rel, eval_au(&sdb, &q, &cfg).unwrap(), "traced != untraced");
    let fused = trace.root.find("fused-chain").expect("fused chain span");
    assert_eq!(fused.attr("pairs"), Some("15"));
    assert_eq!(fused.attr("stages_boxed"), Some("1"));
    assert_eq!(fused.attr("demoted"), Some("eq"));
    assert_eq!(trace.metrics.counter("chain_stages_boxed"), Some(1));
    assert_eq!(fused.attr("keys"), Some("boxed"));
    assert_eq!(trace.metrics.counter("probe_keys_boxed"), Some(1));
    assert_eq!(fused.attr("keyed"), Some("3/4"), "k, v, k, v: the mixed key column is boxed");

    // the oracle fuses nothing: no chain span, no pair accounting
    let (_, root) = eval_oracle_traced(&db, &spine, &cfg);
    assert!(root.find("fused-chain").is_none());
    assert!(root.find("join").is_some());
}

/// A chain whose lane stage demoted names the op kind that did:
/// `i64::MAX + v` overflows, so the add reruns row by row (promoting to
/// float). A chain that stayed typed carries no `demoted` attribute.
#[test]
fn chain_span_names_the_demoted_op_kind() {
    let db = corpus_db();
    let cfg = AuConfig { workers: Some(1), ..AuConfig::default() };
    let span = |q: &Query| {
        let (rel, trace) = eval_au_traced(&db, q, &cfg).unwrap();
        assert_eq!(rel, eval_au(&db, q, &cfg).unwrap(), "traced != untraced");
        let fused = trace.root.find("fused-chain").expect("fused chain span").clone();
        (fused, trace.metrics.counter("chain_stages_boxed"))
    };
    let (fused, ticks) = span(&table("t").project(vec![(lit(i64::MAX).add(col(1)), "x")]));
    assert_eq!(fused.attr("demoted"), Some("add"));
    assert_eq!(fused.attr("stages_boxed"), Some("1"));
    assert_eq!(ticks, Some(1));
    let (fused, ticks) = span(&table("t").project(vec![(lit(1i64).add(col(1)), "x")]));
    assert_eq!(fused.attr("demoted"), None);
    assert_eq!(fused.attr("stages_boxed"), Some("0"));
    assert_eq!(ticks, Some(0));
}

/// The only fallback left on a `σ/π/⋈/γ` plan is the breaker's own: a
/// join consumed under the Faithful delivery contract is a fused chain
/// (it used to fall back operator-at-a-time), and it says which
/// delivery it ran under and how many columns it built for the
/// aggregate.
#[test]
fn explain_reports_fusion_fallback_reason() {
    let db = corpus_db();
    let q = table("t1")
        .join_on(table("t2"), col(0).eq(col(2)))
        .aggregate(vec![1], vec![AggSpec::new(AggFunc::Sum, col(3), "s")]);
    for cfg in [cfg_lanes(2), AuConfig::compressed(2)] {
        let ex = explain(&db, &q, &cfg).unwrap();
        assert_eq!(ex.root.find("attempt").unwrap().attr("mode"), Some("lanes"));
        let agg = ex.root.find("aggregate").expect("aggregate span");
        assert_eq!(agg.attr("fallback"), Some("pipeline-breaker"));
        let chain = agg.find("fused-chain").expect("the join fuses under the aggregate");
        assert_eq!(chain.attr("delivery"), Some("faithful"));
        assert_eq!(chain.attr("narrow"), Some("2/4"));
        assert_eq!(chain.attr("ops"), Some("⋈(hash-equi)"));
        let mut fallbacks = Vec::new();
        ex.root.walk(&mut |s| fallbacks.extend(s.attr("fallback").map(str::to_string)));
        assert_eq!(fallbacks, ["pipeline-breaker"], "{ex}");
        assert!(ex.root.find("join").is_none(), "{ex}");
    }
}

fn join_count(q: &Query) -> usize {
    match q {
        Query::Table(_) => 0,
        Query::Select { input, .. }
        | Query::Project { input, .. }
        | Query::Distinct { input }
        | Query::Aggregate { input, .. } => join_count(input),
        Query::Join { left, right, .. } => 1 + join_count(left) + join_count(right),
        Query::Union { left, right } | Query::Difference { left, right } => {
            join_count(left) + join_count(right)
        }
    }
}

/// One path, no knob: on the TPC-H corpus — every query a join tree
/// under an aggregate — no configuration leaves the chain planner. A
/// `lanes` attempt has no `select`/`project` span, its only `join` spans
/// are compressing joins (the chain sources), and its result is the
/// oracle's under the same knobs.
#[test]
fn tpch_plans_run_as_chains_under_every_config() {
    use audb::workloads::{gen_tpch, inject_uncertainty, tpch_queries, TpchConfig};
    let db = inject_uncertainty(&gen_tpch(TpchConfig::new(0.1, 21)), 0.02, 6, 22).to_au();
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(64) };
    for base in [AuConfig::default(), AuConfig::compressed(64), forced] {
        for (name, q) in tpch_queries() {
            let (out, trace) = eval_au_traced(&db, &q, &base.with_workers(1)).unwrap();
            assert_eq!(out, eval_oracle(&db, &q, &base).unwrap(), "{name}");
            assert_eq!(trace.root.find("attempt").unwrap().attr("mode"), Some("lanes"));
            let mut joins = 0;
            trace.root.walk(&mut |s| {
                assert!(s.op != "select" && s.op != "project", "{name}: {} span", s.op);
                if s.op == "join" {
                    assert_eq!(s.attr("strategy"), Some("split-compress"), "{name}");
                    joins += 1;
                }
                let fallback = s.attr("fallback");
                assert!(fallback.is_none_or(|f| f == "pipeline-breaker"), "{name}: {fallback:?}");
            });
            // precise: no join has a span; forced: every one compresses
            // (adaptive: whichever the verdict picked)
            match (base.join_compress, base.adaptive) {
                (None, _) => assert_eq!(joins, 0, "{name}"),
                (Some(_), false) => assert_eq!(joins, join_count(&q), "{name}"),
                (Some(_), true) => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// metrics truthfulness and JSON surface
// ---------------------------------------------------------------------------

/// Counters reflect real work: drivers entered, normalization row
/// tallies matching the final result, and cancel checks only when a
/// token is armed.
#[test]
fn metrics_counters_reflect_real_work() {
    let db = corpus_db();
    let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
    let (out, trace) = eval_au_traced(&db, &q, &cfg_lanes(2)).unwrap();
    let m = &trace.metrics;
    assert!(m.counter("drivers_entered").unwrap() >= 1);
    assert!(m.counter("morsels_dispatched").unwrap() >= 1);
    assert!(m.counter("normalize_runs").unwrap() >= 1);
    // the last normalization's output is the final relation
    assert!(m.counter("normalize_rows_out").unwrap() >= out.len() as u64);
    assert_eq!(m.counter("cancel_checks"), Some(0), "no token armed");

    let cfg = cfg_lanes(2).with_timeout(std::time::Duration::from_secs(3600));
    let (_, trace) = eval_au_traced(&db, &q, &cfg).unwrap();
    assert!(trace.metrics.counter("cancel_checks").unwrap() >= 1, "token armed");

    let cfg = cfg_lanes(2).with_budget(BudgetSpec::rows(1_000_000));
    let (_, trace) = eval_au_traced(&db, &q, &cfg).unwrap();
    assert!(trace.metrics.counter("budget_charges").unwrap() >= 1);
    assert!(trace.metrics.counter("budget_rows_charged").unwrap() >= 1);
}

/// The JSON form is versioned and carries every documented top-level
/// key; a governed failure still yields a full trace via
/// `eval_au_traced_full`, with the error tagged on the unwound spans.
#[test]
fn trace_json_is_versioned_and_failure_preserves_trace() {
    let db = corpus_db();
    let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
    let (_, trace) = eval_au_traced(&db, &q, &AuConfig::default()).unwrap();
    let json = trace.to_json();
    for key in [
        "\"version\":7",
        "\"engine\":",
        "\"root\":",
        "\"events\":",
        "\"metrics\":",
        "\"total_ns\":",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }

    // zero timeout: the query fails, the trace survives
    let (result, trace) =
        eval_au_traced_full(&db, &q, &AuConfig::default().with_timeout(std::time::Duration::ZERO));
    assert_eq!(result.unwrap_err(), EvalError::Exec(ExecError::DeadlineExceeded));
    assert!(
        trace.events.iter().any(|e| e.kind.name() == "deadline_exceeded"),
        "events = {:?}",
        &trace.events
    );
    let err_attr = trace.root.attr("error").expect("root tagged with the error");
    assert!(err_attr.contains("deadline exceeded"), "{err_attr}");
}

// ---------------------------------------------------------------------------
// fault injection lands in the trace (feature `faults`)
// ---------------------------------------------------------------------------

#[cfg(feature = "faults")]
mod fault_trace {
    use super::*;
    use audb::exec::faults::{with_plan, FaultKind, FaultPlan, FaultRule};

    /// A one-shot injected *error* during the lane attempt is
    /// absorbed by degradation — and the trace records the injected
    /// fault at exactly the plan's (driver, morsel) coordinates plus
    /// exactly one degradation event.
    #[test]
    fn injected_error_lands_with_exact_coordinates_and_one_degradation() {
        let db = corpus_db();
        let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
        let cfg = cfg_lanes(2);
        let reference = eval_au(&db, &q, &cfg).unwrap();
        let (driver, morsel) = (0usize, 0usize);
        let plan = FaultPlan::new(vec![FaultRule::once(driver, morsel, FaultKind::Error)]);
        let (out, trace) = with_plan(plan.clone(), || eval_au_traced(&db, &q, &cfg)).unwrap();
        assert_eq!(out, reference, "degraded run must be byte-identical");
        assert_eq!(plan.fired(), 1);

        let injected: Vec<_> =
            trace.events.iter().filter(|e| e.kind.name() == "injected_fault").collect();
        assert_eq!(injected.len(), 1, "events = {:?}", &trace.events);
        assert_eq!(injected[0].driver, Some(driver), "driver coordinate");
        assert_eq!(injected[0].morsel, Some(morsel), "morsel coordinate");
        assert_eq!(trace.metrics.counter("injected_faults"), Some(1));

        let degraded: Vec<_> =
            trace.events.iter().filter(|e| e.kind.name() == "degraded_to_interpreter").collect();
        assert_eq!(degraded.len(), 1, "degradation recorded exactly once");
        assert_eq!(trace.metrics.counter("degradations"), Some(1));
    }

    /// Same for an injected worker *panic*: the panic is contained,
    /// degradation absorbs it, and the event carries the morsel the
    /// panic fired at.
    #[test]
    fn injected_panic_lands_in_trace() {
        let db = corpus_db();
        let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
        let cfg = cfg_lanes(2);
        let reference = eval_au(&db, &q, &cfg).unwrap();
        let plan = FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Panic)]);
        let (out, trace) = with_plan(plan.clone(), || eval_au_traced(&db, &q, &cfg)).unwrap();
        assert_eq!(out, reference);
        assert_eq!(plan.fired(), 1);
        let panics: Vec<_> =
            trace.events.iter().filter(|e| e.kind.name() == "worker_panic").collect();
        assert_eq!(panics.len(), 1, "events = {:?}", &trace.events);
        assert_eq!(panics[0].morsel, Some(0));
        assert!(panics[0].detail.contains("injected panic"), "{}", panics[0].detail);
        assert_eq!(trace.metrics.counter("worker_panics"), Some(1));
        assert_eq!(trace.metrics.counter("degradations"), Some(1));
    }

    /// An attempt that already runs on the oracle has nothing to degrade
    /// to: its fault surfaces, and no degradation is recorded for a retry
    /// that would only have re-run the identical path. Driver 0 of the
    /// forced-compression oracle is the split/compress join's SG probe —
    /// a governed driver that reports the fault (the ungoverned split
    /// normalization it used to be panicked on it).
    #[test]
    fn oracle_attempts_surface_faults_without_a_phantom_degradation() {
        let db = corpus_db();
        let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        for cfg in [AuConfig::default(), forced] {
            let plan = FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Error)]);
            let metrics = Metrics::enabled();
            let tr = TraceBuilder::enabled();
            let exec = cfg.executor().with_metrics(metrics.clone());
            let result = with_plan(plan.clone(), || {
                let root = tr.open("query", || q.to_string());
                let out = AuPlan::oracle(&q, &cfg, &tr).run(&db, &exec, &tr);
                tr.close(root, None, None);
                out
            });
            let injected = ExecError::Injected { driver: 0, morsel: 0 };
            assert_eq!(result.unwrap_err(), EvalError::Exec(injected), "cfg = {cfg:?}");
            assert_eq!(plan.fired(), 1);
            assert_eq!(metrics.snapshot().counter("degradations"), Some(0), "cfg = {cfg:?}");
            assert!(metrics
                .take_events()
                .iter()
                .all(|e| e.kind.name() != "degraded_to_interpreter"));
            let root = tr.finish().expect("an enabled builder has a root span");
            let mut attempts = 0;
            root.walk(&mut |s| attempts += usize::from(s.op == "attempt"));
            assert_eq!(attempts, 1, "no second attempt:\n{root:?}");
        }
    }

    /// When the degradation retry's oracle attempt faults as well, the
    /// oracle's fault surfaces after exactly one degradation: two
    /// `attempt` spans (lanes, then oracle), and no third.
    #[test]
    fn a_faulting_degradation_retry_surfaces_its_fault_without_a_second_retry() {
        let db = corpus_db();
        let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        for cfg in [AuConfig::default(), forced] {
            // every driver's first morsel: the lanes attempt's, then the oracle's
            let plan = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Error)]);
            let (result, trace) = with_plan(plan.clone(), || eval_au_traced_full(&db, &q, &cfg));
            let err = result.unwrap_err();
            let injected = matches!(err, EvalError::Exec(ExecError::Injected { morsel: 0, .. }));
            assert!(injected, "cfg = {cfg:?}: {err:?}");
            assert_eq!(plan.fired(), 2, "cfg = {cfg:?}");
            assert_eq!(trace.metrics.counter("degradations"), Some(1), "cfg = {cfg:?}");
            let degraded =
                trace.events.iter().filter(|e| e.kind.name() == "degraded_to_interpreter");
            assert_eq!(degraded.count(), 1);
            let mut modes = Vec::new();
            trace.root.walk(&mut |s| {
                modes.extend((s.op == "attempt").then(|| s.attr("mode").map(str::to_string)));
            });
            let modes: Vec<_> = modes.iter().flatten().map(String::as_str).collect();
            assert_eq!(modes, ["lanes", "oracle"], "{}", trace.render_text());
        }
    }

    /// A compressed attempt fuses chains like any other, so it degrades
    /// like any other: one retry on the oracle under the same knobs — two
    /// `attempt` spans, one degradation, and the fault-free result.
    #[test]
    fn compressed_attempts_degrade_to_the_oracle_once() {
        let db = corpus_db();
        let q = table("t1")
            .join_on(table("t2"), col(0).eq(col(2)))
            .aggregate(vec![1], vec![AggSpec::new(AggFunc::Sum, col(3), "s")]);
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        for base in [AuConfig::compressed(2), forced] {
            let cfg = base.with_workers(2);
            let reference = eval_au(&db, &q, &cfg).unwrap();
            let plan = FaultPlan::new(vec![FaultRule::once(0, 0, FaultKind::Error)]);
            let (out, trace) = with_plan(plan.clone(), || eval_au_traced(&db, &q, &cfg)).unwrap();
            assert_eq!(out, reference, "degraded run must be byte-identical");
            assert_eq!(plan.fired(), 1);
            assert_eq!(trace.metrics.counter("degradations"), Some(1), "base = {base:?}");
            let mut modes = Vec::new();
            trace.root.walk(&mut |s| {
                modes.extend((s.op == "attempt").then(|| s.attr("mode").map(str::to_string)));
            });
            let modes: Vec<_> = modes.iter().flatten().map(String::as_str).collect();
            assert_eq!(modes, ["lanes", "oracle"], "{}", trace.render_text());
        }
    }

    /// An injected cancellation (the fault trips the armed token)
    /// surfaces as a failed query whose trace still carries the
    /// cancelled event — no retry, since cancellation is a resource
    /// verdict.
    #[test]
    fn injected_cancel_lands_in_trace() {
        let db = corpus_db();
        let q = table("t1").join_on(table("t2"), col(0).eq(col(2)));
        let cfg = cfg_lanes(2).with_timeout(std::time::Duration::from_secs(3600));
        let plan = FaultPlan::new(vec![FaultRule::persistent(0, FaultKind::Cancel)]);
        let (result, trace) = with_plan(plan, || eval_au_traced_full(&db, &q, &cfg));
        assert_eq!(result.unwrap_err(), EvalError::Exec(ExecError::Cancelled));
        assert!(
            trace.events.iter().any(|e| e.kind.name() == "cancelled"),
            "events = {:?}",
            &trace.events
        );
        assert_eq!(trace.metrics.counter("degradations"), Some(0), "no retry on cancellation");
        let err_attr = trace.root.attr("error").expect("root tagged with the error");
        assert!(err_attr.contains("cancelled"), "{err_attr}");
    }
}

/// The hand-over is visible. On warmed tables TPC-H Q7 under
/// `compressed(64)` builds no lane from tuples and no tuple from lanes
/// between its base tables and its root: every chain hands lanes to its
/// consumer (`form = lanes`), the split/compress join reads and returns
/// them and says how its probes keyed. A table nobody warmed is
/// columnarized by its first reader — once, timed — and a root chain is
/// the one that builds tuples.
#[test]
fn lane_hand_over_is_counted_and_timed() {
    use audb::workloads::tpch::{q1, q7};
    use audb::workloads::{gen_tpch, inject_uncertainty, pdbench_queries, TpchConfig};
    let cold = || inject_uncertainty(&gen_tpch(TpchConfig::new(0.55, 31)), 0.02, 8, 32).to_au();
    let cfg = AuConfig::compressed(64).with_workers(1);
    let site = |trace: &QueryTrace, name: &str| {
        trace.metrics.sites.iter().find(|s| s.site == name).map_or(0, |s| s.entries)
    };

    let db = cold();
    db.warm_columns();
    let (out, trace) = eval_au_traced(&db, &q7(), &cfg).unwrap();
    eprintln!("{trace}"); // `-- --nocapture` prints Q7's plan (verify skill)
    assert_eq!(out, eval_oracle(&db, &q7(), &cfg).unwrap());
    assert_eq!(trace.metrics.counter("lane_builds"), Some(0));
    assert_eq!(trace.metrics.counter("rows_built"), Some(0));
    assert_eq!(site(&trace, "lane_build"), 0);
    let (mut chains, mut compressing) = (0, 0);
    trace.root.walk(&mut |s| {
        if s.op == "fused-chain" {
            assert_eq!(s.attr("form"), Some("lanes"), "{}", s.detail);
            chains += 1;
        }
        if s.op == "join" {
            assert_eq!(s.attr("strategy"), Some("split-compress"));
            assert_eq!(s.attr("keys"), Some("typed"));
            for counted in ["sg_rows", "buckets_l", "buckets_r", "possible_rows"] {
                assert!(s.attr(counted).is_some_and(|v| v.parse::<u64>().is_ok()), "{counted}");
            }
            compressing += 1;
        }
    });
    assert!(chains >= 4 && compressing >= 1, "{chains} chains, {compressing} compressing joins");

    // nobody warmed `lineitem`: Q1's chain builds its lanes
    let (_, trace) = eval_au_traced(&cold(), &q1(), &cfg).unwrap();
    assert_eq!(trace.metrics.counter("lane_builds"), Some(1));
    assert_eq!(site(&trace, "lane_build"), 1);
    assert_eq!(trace.metrics.counter("rows_built"), Some(0));

    // a chain at the root hands over tuples
    let (_, trace) = eval_au_traced(&db, &pdbench_queries()[0].1, &cfg).unwrap();
    let root = trace.root.find("fused-chain").expect("root chain");
    assert_eq!(root.attr("form"), Some("rows"));
    assert_eq!(trace.metrics.counter("rows_built"), Some(0));
}
