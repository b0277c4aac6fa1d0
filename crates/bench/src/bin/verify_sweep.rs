//! Static-verifier sweep over the in-repo query corpus.
//!
//! CI (`static-analysis`) runs this binary, which:
//!
//! 1. walks every expression of the fig13 / fig14 (pipeline spine) /
//!    fig16 multi-join / TPC-H / PDBench / real-world query corpus,
//!    lowers each (projection lists in the multi-output form), and runs
//!    Tier A + Tier B
//!    (`Program::verify_full`) on every program — the corpus must
//!    produce **zero diagnostics** (no errors, no lints);
//! 2. runs the mutation harness over every lowered program: each
//!    single-op corruption must be caught (Tier A, Tier B, or a fresh
//!    lint) or be behavior-preserving on the differential oracle rows —
//!    the detection rate (caught / non-equivalent) is gated at >= 95 %
//!    and `missed` at zero.
//!
//! Output: a JSON report on stdout (programs verified, lint/error
//! counts, per-verdict mutation tallies, a fingerprint of every
//! mutant's verdict, detection rate), uploaded with
//! the perf-history artifact. See `docs/static-analysis.md`.

use audb_core::program::Program;
use audb_core::verify::mutate;
use audb_core::{col, Expr};
use audb_query::{AggSpec, Query};
use audb_workloads::{pdbench_queries, realworld, tpch_queries};

/// Every scalar expression a query evaluates, with projection /
/// aggregate lists kept together so the multi-output lowering is swept
/// in the form the chain compiler actually uses.
fn collect_exprs(q: &Query, singles: &mut Vec<Expr>, lists: &mut Vec<Vec<Expr>>) {
    match q {
        Query::Table(_) => {}
        Query::Select { input, predicate } => {
            singles.push(predicate.clone());
            collect_exprs(input, singles, lists);
        }
        Query::Project { input, exprs } => {
            lists.push(exprs.iter().map(|(e, _)| e.clone()).collect());
            collect_exprs(input, singles, lists);
        }
        Query::Join { left, right, predicate } => {
            if let Some(p) = predicate {
                singles.push(p.clone());
            }
            collect_exprs(left, singles, lists);
            collect_exprs(right, singles, lists);
        }
        Query::Union { left, right } | Query::Difference { left, right } => {
            collect_exprs(left, singles, lists);
            collect_exprs(right, singles, lists);
        }
        Query::Distinct { input } => collect_exprs(input, singles, lists),
        Query::Aggregate { input, aggs, .. } => {
            for AggSpec { input: e, .. } in aggs {
                singles.push(e.clone());
            }
            collect_exprs(input, singles, lists);
        }
    }
}

/// Widest column index an expression reads (the oracle rows must cover
/// it).
fn max_col(e: &Expr) -> usize {
    match e {
        Expr::Col(i) => *i + 1,
        Expr::Const(_) => 0,
        Expr::And(a, b)
        | Expr::Or(a, b)
        | Expr::Eq(a, b)
        | Expr::Neq(a, b)
        | Expr::Leq(a, b)
        | Expr::Lt(a, b)
        | Expr::Geq(a, b)
        | Expr::Gt(a, b)
        | Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b) => max_col(a).max(max_col(b)),
        Expr::Not(a) | Expr::Neg(a) => max_col(a),
        Expr::If(c, t, e) => max_col(c).max(max_col(t)).max(max_col(e)),
        Expr::Uncertain(l, s, u) => max_col(l).max(max_col(s)).max(max_col(u)),
    }
}

/// The corpus: every named query shape the benches and figure
/// experiments evaluate.
fn corpus() -> Vec<(String, Query)> {
    use audb_core::lit;
    use audb_query::{table, AggFunc};

    let mut qs: Vec<(String, Query)> = Vec::new();

    // fig13: aggregation micro-benchmarks (group-by width sweep)
    for nb in [1usize, 5, 10] {
        qs.push((
            format!("fig13_groupby{nb}"),
            table("t").aggregate((0..nb).collect(), vec![AggSpec::new(AggFunc::Sum, col(19), "s")]),
        ));
    }

    // fig14 / pipeline_engine: the fused select→join→select→project
    // 10k spine
    qs.push((
        "fig14_pipeline_spine".to_string(),
        table("t1")
            .select(col(1).geq(lit(0i64)))
            .join_on(table("t2"), col(0).eq(col(3)))
            .select(col(1).add(col(4)).lt(lit(5000i64)))
            .project(vec![(col(0), "k"), (col(1).add(col(4)), "v"), (col(2), "w")]),
    ));

    // fig16: the n-way equi-join chain
    for n in [2usize, 4, 6] {
        let arity = 3;
        let mut q: Query = table("t0");
        for i in 1..n {
            q = q.join_on(table(format!("t{i}")), col(0).eq(col(arity * i)));
        }
        qs.push((format!("fig16_join{n}"), q));
    }

    // fig12: TPC-H Q1/Q3/Q5/Q7/Q10; fig10: the PDBench SPJ workload
    for (name, q) in tpch_queries() {
        qs.push((format!("tpch_{name}"), q));
    }
    for (name, q) in pdbench_queries() {
        qs.push((format!("pdbench_{name}"), q));
    }

    // fig17: the real-world SPJ + group-by cases
    for (name, q) in [
        ("Qn1", realworld::qn1()),
        ("Qn2", realworld::qn2()),
        ("Qc1", realworld::qc1()),
        ("Qc2", realworld::qc2()),
        ("Qh1", realworld::qh1()),
        ("Qh2", realworld::qh2()),
    ] {
        qs.push((format!("realworld_{name}"), q));
    }

    qs
}

fn main() {
    let mut programs: Vec<(String, Program)> = Vec::new();
    let mut queries = 0usize;
    let mut width = 0usize;

    for (name, q) in corpus() {
        queries += 1;
        let mut singles = Vec::new();
        let mut lists = Vec::new();
        collect_exprs(&q, &mut singles, &mut lists);
        for e in singles.iter().chain(lists.iter().flatten()) {
            width = width.max(max_col(e));
        }
        for (i, e) in singles.iter().enumerate() {
            programs.push((format!("{name}/expr{i}/range"), Program::compile_range(e)));
        }
        for (i, es) in lists.iter().enumerate() {
            programs.push((format!("{name}/proj{i}/range"), Program::compile_range_many(es)));
        }
    }

    // --- sweep: Tier A + Tier B, zero diagnostics expected ---------------
    let mut errors: Vec<String> = Vec::new();
    let mut lints: Vec<String> = Vec::new();
    for (name, p) in &programs {
        match p.verify_full() {
            Ok(ls) => {
                for l in ls {
                    lints.push(format!("{name}: {l}"));
                }
            }
            Err(e) => errors.push(format!("{name}: {e}")),
        }
    }

    // --- mutation harness -------------------------------------------------
    let rows = mutate::oracle_rows(width);
    let mut tallies = std::collections::BTreeMap::new();
    let mut missed: Vec<String> = Vec::new();
    // FNV-1a over (program, class, detail, verdict) of every mutant in
    // order: equal fingerprints mean the harness drew the same mutants
    // and the verifier judged each one the same way.
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for (name, p) in &programs {
        for m in mutate::mutants(p) {
            let v = mutate::classify(p, &m.program, &rows);
            for field in [name.as_str(), m.class, &m.detail, v.name()] {
                for b in field.bytes().chain([0]) {
                    fingerprint = (fingerprint ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            *tallies.entry(v.name()).or_insert(0u64) += 1;
            if v == mutate::Verdict::Missed {
                missed.push(format!("{name}: {} ({})", m.class, m.detail));
            }
        }
    }
    let caught: u64 = ["tier_a", "tier_b", "new_lint"]
        .iter()
        .map(|k| tallies.get(*k).copied().unwrap_or(0))
        .sum();
    let missed_n = tallies.get("missed").copied().unwrap_or(0);
    let equivalent = tallies.get("oracle_equivalent").copied().unwrap_or(0);
    let judged = caught + missed_n;
    let detection_rate = if judged == 0 { 1.0 } else { caught as f64 / judged as f64 };

    // --- report (hand-rolled JSON: no serde in the workspace) -------------
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let strlist =
        |xs: &[String]| xs.iter().map(|x| format!("\"{}\"", esc(x))).collect::<Vec<_>>().join(", ");
    println!("{{");
    println!("  \"queries\": {queries},");
    println!("  \"programs_verified\": {},", programs.len());
    println!("  \"verify_errors\": [{}],", strlist(&errors));
    println!("  \"lints\": [{}],", strlist(&lints));
    println!("  \"mutants_total\": {},", caught + missed_n + equivalent);
    let verdicts =
        tallies.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", ");
    println!("  \"mutant_verdicts\": {{{verdicts}}},");
    println!("  \"missed\": [{}],", strlist(&missed));
    println!("  \"mutant_fingerprint\": \"{fingerprint:016x}\",");
    println!("  \"detection_rate\": {detection_rate:.4},");
    let clean = errors.is_empty() && lints.is_empty();
    let detected = missed.is_empty() && detection_rate >= 0.95;
    println!("  \"zero_diagnostics\": {clean},");
    println!("  \"detection_gate_passed\": {detected}");
    println!("}}");

    if !clean || !detected {
        std::process::exit(1);
    }
}
