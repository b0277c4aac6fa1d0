//! Experiment harness regenerating every table and figure of the
//! paper's evaluation (Section 12). Each subcommand prints rows/series
//! shaped like the corresponding paper artifact; EXPERIMENTS.md records
//! paper-vs-measured values.
//!
//! Usage:
//!   experiments <fig10a|fig10b|fig11|fig12|fig13a|fig13b|fig13c|fig13d|
//!                fig14|fig15|fig16|fig17|ablation|all> [--quick] [--full]
//!
//! `--quick` shrinks workloads ~5-10x for smoke runs; `--full` grows
//! them toward paper scale (slower). Default sizes complete each
//! experiment in roughly a minute on a laptop.

use audb_baselines::{
    eval_libkin, eval_trio, run_maybms, run_mcdb, run_symb, trio_aggregate, trio_aggregate_chain,
    xrelation_to_vtable, VDatabase,
};
use audb_bench::{fmt_ms, fmt_ratio, header, print_row, time, time_median, xdb_to_ua};
use audb_core::{col, Value};
use audb_incomplete::XDb;
use audb_query::{eval_au, eval_ua, opt, table, AggFunc, AggSpec, AuConfig, Query};
use audb_storage::AuDatabase;
use audb_workloads::{
    exact_group_agg, gen_micro_xdb, gen_tpch, inject_uncertainty, micro_au_db, micro_join_db,
    over_grouping_pct, pdbench_queries, range_overestimation_factor, spj_accuracy, tpch_queries,
    MicroConfig, TpchConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy)]
struct Opts {
    /// workload multiplier: 0 = quick, 1 = default, 2 = full
    size: u8,
    seed: u64,
}

impl Opts {
    fn pick<T: Copy>(&self, quick: T, normal: T, full: T) -> T {
        match self.size {
            0 => quick,
            2 => full,
            _ => normal,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts { size: 1, seed: 20260611 };
    let mut cmd = String::from("all");
    for a in &args {
        match a.as_str() {
            "--quick" => opts.size = 0,
            "--full" => opts.size = 2,
            s if s.starts_with("--seed=") => {
                opts.seed = s.trim_start_matches("--seed=").parse().expect("seed");
            }
            s if !s.starts_with("--") => cmd = s.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    match cmd.as_str() {
        "fig10a" => fig10a(opts),
        "fig10b" => fig10b(opts),
        "fig11" => fig11(opts),
        "fig12" => fig12(opts),
        "fig13a" => fig13a(opts),
        "fig13b" => fig13b(opts),
        "fig13c" => fig13c(opts),
        "fig13d" => fig13d(opts),
        "fig14" => fig14(opts),
        "fig15" => fig15(opts),
        "fig16" => fig16(opts),
        "fig17" => fig17(opts),
        "ablation" => ablation(opts),
        "all" => {
            fig10a(opts);
            fig10b(opts);
            fig11(opts);
            fig12(opts);
            fig13a(opts);
            fig13b(opts);
            fig13c(opts);
            fig13d(opts);
            fig14(opts);
            fig15(opts);
            fig16(opts);
            fig17(opts);
            ablation(opts);
        }
        other => {
            eprintln!("unknown experiment {other}");
            std::process::exit(2);
        }
    }
}

fn vdb_of(xdb: &XDb) -> VDatabase {
    let mut vdb = VDatabase::default();
    for (name, rel) in &xdb.relations {
        vdb.insert(name.clone(), xrelation_to_vtable(rel, vec![Value::Int(0), Value::Int(1)]));
    }
    vdb
}

/// One PDBench measurement row: average runtime over the SPJ queries
/// for each system, reported as a ratio over Det (Figure 10's y-axis).
///
/// "Det" is selected-guess query processing on the engine AU-DB runs
/// on (the paper's AU-DB is a rewriting the same DBMS executes): the AU
/// engine over the SG world as a certain database, here and in every
/// figure below. The det engine is the correctness reference, not a
/// yardstick.
fn pdbench_ratios(xdb: &XDb, opts: Opts) -> [f64; 6] {
    let sg = AuDatabase::from_certain(&xdb.sg_world());
    let audb = xdb.to_au();
    let uadb = xdb_to_ua(xdb);
    let vdb = vdb_of(xdb);
    let cfg = AuConfig::compressed(64);
    let queries = pdbench_queries();
    let mut sums = [0.0f64; 6];
    for (_, q) in &queries {
        let (_, det) = time_median(3, || eval_au(&sg, q, &cfg).unwrap());
        let (_, ua) = time_median(3, || eval_ua(&uadb, q).unwrap());
        let (_, au) = time_median(3, || eval_au(&audb, q, &cfg).unwrap());
        let (_, libkin) = time(|| eval_libkin(&vdb, q).unwrap());
        let (_, maybms) = time(|| run_maybms(xdb, q).unwrap());
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let (_, mcdb) = time(|| run_mcdb(xdb, q, 10, &mut rng).unwrap());
        sums[0] += det;
        sums[1] += ua / det;
        sums[2] += au / det;
        sums[3] += libkin / det;
        sums[4] += maybms / det;
        sums[5] += mcdb / det;
    }
    let n = queries.len() as f64;
    [sums[0] / n, sums[1] / n, sums[2] / n, sums[3] / n, sums[4] / n, sums[5] / n]
}

/// Figure 10a: PDBench SPJ queries, varying the amount of uncertainty.
fn fig10a(opts: Opts) {
    header("Figure 10a — PDBench queries, runtime / Det-runtime, varying uncertainty");
    let scale = opts.pick(0.2, 0.5, 1.0);
    let base = gen_tpch(TpchConfig::new(scale, opts.seed));
    let widths = [8, 10, 8, 8, 8, 8, 8];
    print_row(
        &["uncert", "Det(ms)", "UA-DB", "AU-DB", "Libkin", "MayBMS", "MCDB"].map(str::to_string),
        &widths,
    );
    for pct in [0.02, 0.05, 0.10, 0.30] {
        let xdb = inject_uncertainty(&base, pct, 8, opts.seed + (pct * 100.0) as u64);
        let r = pdbench_ratios(&xdb, opts);
        print_row(
            &[
                format!("{:.0}%", pct * 100.0),
                fmt_ms(r[0]),
                fmt_ratio(r[1]),
                fmt_ratio(r[2]),
                fmt_ratio(r[3]),
                fmt_ratio(r[4]),
                fmt_ratio(r[5]),
            ],
            &widths,
        );
    }
}

/// Figure 10b: PDBench SPJ queries, varying database size (2% unc).
fn fig10b(opts: Opts) {
    header("Figure 10b — PDBench queries, runtime / Det-runtime, varying DB size");
    let base_scale = opts.pick(0.15, 0.3, 1.0);
    let widths = [8, 10, 8, 8, 8, 8, 8];
    print_row(
        &["size", "Det(ms)", "UA-DB", "AU-DB", "Libkin", "MayBMS", "MCDB"].map(str::to_string),
        &widths,
    );
    for (label, mult) in [("0.1x", 0.1), ("1x", 1.0), ("10x", 10.0)] {
        let db = gen_tpch(TpchConfig::new(base_scale * mult, opts.seed));
        let xdb = inject_uncertainty(&db, 0.02, 8, opts.seed + 1);
        let r = pdbench_ratios(&xdb, opts);
        print_row(
            &[
                label.to_string(),
                fmt_ms(r[0]),
                fmt_ratio(r[1]),
                fmt_ratio(r[2]),
                fmt_ratio(r[3]),
                fmt_ratio(r[4]),
                fmt_ratio(r[5]),
            ],
            &widths,
        );
    }
}

/// Build the chained-aggregation workload of Figure 11: a hierarchy
/// table h0..h{H-1} (h_j = leaf >> j) plus a value column, with
/// `uncertain` rows carrying a two-alternative value.
fn chain_data(rows: usize, hier: usize, uncertain: usize, seed: u64) -> XDb {
    use audb_incomplete::{XRelation, XTuple};
    use audb_storage::{Schema, Tuple};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names: Vec<String> = (0..hier).map(|j| format!("h{j}")).collect();
    names.push("v".into());
    let mut xtuples = Vec::with_capacity(rows);
    for i in 0..rows {
        let leaf: i64 = rng.gen_range(0..1024);
        let mut vals: Vec<Value> = (0..hier).map(|j| Value::Int(leaf >> j)).collect();
        let v = rng.gen_range(0..1000i64);
        vals.push(Value::Int(v));
        let t = Tuple::new(vals.clone());
        if i < uncertain {
            let mut alt = vals;
            alt[hier] = Value::Int(rng.gen_range(0..1000));
            xtuples.push(XTuple::new(vec![(t, 0.5 + 1e-9), (Tuple::new(alt), 0.5 - 1e-9)]));
        } else {
            xtuples.push(XTuple::certain(t));
        }
    }
    let mut out = XDb::default();
    out.insert("t", XRelation::new(Schema::new(names), xtuples));
    out
}

fn chain_query(levels: usize, hier: usize) -> Query {
    assert!(levels >= 1 && levels <= hier);
    let mut q =
        table("t").aggregate((0..hier).collect(), vec![AggSpec::new(AggFunc::Sum, col(hier), "s")]);
    let mut arity = hier + 1; // group cols + s
    for _ in 1..levels {
        q = q.aggregate(
            (1..arity - 1).collect(),
            vec![AggSpec::new(AggFunc::Sum, col(arity - 1), "s")],
        );
        arity -= 1;
    }
    q
}

/// Figure 11: simple (chained) aggregation, absolute runtimes.
fn fig11(opts: Opts) {
    header("Figure 11 — chained aggregation, absolute runtime (ms)");
    let rows = opts.pick(300, 1000, 3000);
    let uncertain = opts.pick(8, 10, 12);
    let hier = 10;
    let xdb = chain_data(rows, hier, uncertain, opts.seed);
    let audb = xdb.to_au();
    let sg = AuDatabase::from_certain(&xdb.sg_world());
    let cfg = AuConfig::compressed(32);
    let widths = [8, 10, 10, 10, 10, 10];
    print_row(&["#aggops", "Det", "AUDB", "Trio", "Symb", "MCDB"].map(str::to_string), &widths);
    for k in 1..=opts.pick(5, 10, 10) {
        let q = chain_query(k, hier);
        let (_, det) = time_median(3, || eval_au(&sg, &q, &cfg).unwrap());
        let (_, au) = time_median(3, || eval_au(&audb, &q, &cfg).unwrap());
        let x = xdb.get("t").unwrap();
        let (_, trio) = time(|| {
            let mut cur = trio_aggregate_chain(x, Some(hier - 1), AggFunc::Sum, hier).unwrap();
            for _ in 1..k {
                cur = trio_aggregate_chain(&cur, Some(0), AggFunc::Sum, 1).unwrap();
            }
            cur
        });
        let final_arity = hier + 1 - (k - 1);
        let keys: Vec<usize> = (0..final_arity - 1).collect();
        let (_, symb) = time(|| run_symb(&xdb, &q, &keys, final_arity - 1, 1 << 14).unwrap());
        let mut rng = StdRng::seed_from_u64(opts.seed + k as u64);
        let (_, mcdb) = time(|| run_mcdb(&xdb, &q, 10, &mut rng).unwrap());
        print_row(
            &[k.to_string(), fmt_ms(det), fmt_ms(au), fmt_ms(trio), fmt_ms(symb), fmt_ms(mcdb)],
            &widths,
        );
    }
}

/// Figure 12 (table): TPC-H queries across uncertainty/scale configs.
fn fig12(opts: Opts) {
    header("Figure 12 — TPC-H query performance (runtime in ms)");
    let mult = opts.pick(0.3, 1.0, 1.0);
    let configs = [
        ("2%/SF0.1", 0.1 * mult, 0.02),
        ("2%/SF1", 1.0 * mult, 0.02),
        ("5%/SF1", 1.0 * mult, 0.05),
        ("10%/SF1", 1.0 * mult, 0.10),
        ("30%/SF1", 1.0 * mult, 0.30),
    ];
    let widths = [6, 8, 12, 12, 12, 12, 12];
    let mut head = vec!["query".to_string(), "system".to_string()];
    head.extend(configs.iter().map(|(n, _, _)| n.to_string()));
    print_row(&head, &widths);
    let queries = tpch_queries();
    let mut results: Vec<Vec<(f64, f64, f64)>> = Vec::new();
    for (ci, (_, scale, pct)) in configs.iter().enumerate() {
        let db = gen_tpch(TpchConfig::new(*scale, opts.seed));
        let xdb = inject_uncertainty(&db, *pct, 8, opts.seed + ci as u64);
        let audb = xdb.to_au();
        let sg = AuDatabase::from_certain(&xdb.sg_world());
        let cfg = AuConfig::compressed(64);
        for (qi, (_, q)) in queries.iter().enumerate() {
            let (_, au) = time(|| eval_au(&audb, q, &cfg).unwrap());
            let (_, det) = time(|| eval_au(&sg, q, &cfg).unwrap());
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let (_, mcdb) = time(|| run_mcdb(&xdb, q, 10, &mut rng).unwrap());
            if results.len() <= qi {
                results.push(Vec::new());
            }
            results[qi].push((au, det, mcdb));
        }
    }
    for (qi, (name, _)) in queries.iter().enumerate() {
        for (sys, pickf) in [("AU-DB", 0usize), ("Det", 1), ("MCDB", 2)] {
            let mut rowv = vec![name.to_string(), sys.to_string()];
            for (au, det, mcdb) in &results[qi] {
                let v = match pickf {
                    0 => *au,
                    1 => *det,
                    _ => *mcdb,
                };
                rowv.push(fmt_ms(v));
            }
            print_row(&rowv, &widths);
        }
    }
}

/// Figure 13a: varying the number of group-by attributes.
fn fig13a(opts: Opts) {
    header("Figure 13a — aggregation, varying #group-by attributes (ms)");
    let rows = opts.pick(3_000, 20_000, 35_000);
    let cfg = MicroConfig::new(rows, 100).uncertainty(0.05).range_frac(0.05).seed(opts.seed);
    let (audb, db) = micro_au_db(&cfg);
    let sg = AuDatabase::from_certain(&db);
    let aucfg = AuConfig { join_compress: Some(64), agg_compress: Some(25), ..AuConfig::default() };
    let widths = [10, 10, 10, 8];
    print_row(&["#groupby", "AUDB", "Det", "ratio"].map(str::to_string), &widths);
    for g in [1usize, 5, 10, 20, 40, 60, 80, 99] {
        let q =
            table("t").aggregate((0..g).collect(), vec![AggSpec::new(AggFunc::Sum, col(99), "s")]);
        let (_, au) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
        let (_, det) = time(|| eval_au(&sg, &q, &aucfg).unwrap());
        print_row(&[g.to_string(), fmt_ms(au), fmt_ms(det), fmt_ratio(au / det)], &widths);
    }
}

/// Figure 13b: varying the number of aggregation functions.
fn fig13b(opts: Opts) {
    header("Figure 13b — aggregation, varying #aggregation functions (ms)");
    let rows = opts.pick(3_000, 20_000, 35_000);
    let cfg = MicroConfig::new(rows, 100).uncertainty(0.05).range_frac(0.05).seed(opts.seed);
    let (audb, db) = micro_au_db(&cfg);
    let sg = AuDatabase::from_certain(&db);
    let aucfg = AuConfig { join_compress: Some(64), agg_compress: Some(25), ..AuConfig::default() };
    let widths = [8, 10, 10, 8];
    print_row(&["#aggs", "AUDB", "Det", "ratio"].map(str::to_string), &widths);
    for n in [1usize, 5, 10, 20, 40, 60, 80, 99] {
        let aggs: Vec<AggSpec> = (0..n)
            .map(|i| AggSpec::new(AggFunc::Sum, col(1 + (i % 99)), format!("s{i}")))
            .collect();
        let q = table("t").aggregate(vec![0], aggs);
        let (_, au) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
        let (_, det) = time(|| eval_au(&sg, &q, &aucfg).unwrap());
        print_row(&[n.to_string(), fmt_ms(au), fmt_ms(det), fmt_ratio(au / det)], &widths);
    }
}

/// Figure 13c: varying attribute-range width under several compression
/// budgets (CT).
fn fig13c(opts: Opts) {
    header("Figure 13c — aggregation runtime vs attribute range (ms)");
    let rows = opts.pick(3_000, 20_000, 35_000);
    let widths = [8, 10, 10, 10, 10];
    print_row(&["range", "CT=4", "CT=32", "CT=256", "CT=512"].map(str::to_string), &widths);
    for frac in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let cfg = MicroConfig::new(rows, 10)
            .uncertainty(0.05)
            .range_frac(frac)
            .domain(100_000)
            .seed(opts.seed);
        let (audb, _) = micro_au_db(&cfg);
        let q = table("t").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
        let mut cells = vec![format!("{:.0}%", frac * 100.0)];
        for ct in [4usize, 32, 256, 512] {
            let aucfg =
                AuConfig { join_compress: Some(ct), agg_compress: Some(ct), ..AuConfig::default() };
            let (_, au) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
            cells.push(fmt_ms(au));
        }
        print_row(&cells, &widths);
    }
}

/// Figure 13d: compression/accuracy trade-off — runtime and mean result
/// range vs compression size.
fn fig13d(opts: Opts) {
    header("Figure 13d — compression trade-off: runtime and mean range");
    let rows = opts.pick(2_000, 10_000, 10_000);
    let cfg = MicroConfig::new(rows, 10)
        .uncertainty(0.10)
        .range_frac(0.02)
        .domain(10_000)
        .seed(opts.seed);
    let (audb, _) = micro_au_db(&cfg);
    let q = table("t").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
    let widths = [8, 10, 16];
    print_row(&["CT", "time(ms)", "mean range"].map(str::to_string), &widths);
    for ct in [4usize, 32, 256, 4096, 65536] {
        let aucfg =
            AuConfig { join_compress: Some(ct), agg_compress: Some(ct), ..AuConfig::default() };
        let (out, secs) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
        // mean width of the aggregate column
        let mut total = 0.0;
        let mut n = 0usize;
        for (t, _) in out.rows() {
            total += t.0[1].width(1e9);
            n += 1;
        }
        let mean = if n == 0 { 0.0 } else { total / n as f64 };
        print_row(&[ct.to_string(), fmt_ms(secs), format!("{mean:.0}")], &widths);
    }
}

/// Figures 14a/14b: join optimization — runtime and possible-tuple
/// count vs input size, unoptimized vs compressed.
fn fig14(opts: Opts) {
    header("Figure 14a/14b — join optimization: runtime (ms) / possible size");
    let sizes: &[usize] = match opts.size {
        0 => &[250, 500, 1000],
        2 => &[1000, 2000, 4000, 8000],
        _ => &[500, 1000, 2000, 4000],
    };
    let widths = [8, 14, 14, 14, 14, 14];
    print_row(
        &["size", "Non-Op", "CT=4", "CT=32", "CT=256", "CT=1024"].map(str::to_string),
        &widths,
    );
    for &n in sizes {
        let cfg =
            MicroConfig::new(n, 3).uncertainty(0.03).range_frac(0.02).domain(1000).seed(opts.seed);
        let (audb, _) = micro_join_db(&cfg);
        let q = table("t1").join_on(table("t2"), col(0).eq(col(3)));
        let mut cells = vec![n.to_string()];
        let (naive, tn) = time(|| eval_au(&audb, &q, &AuConfig::precise()).unwrap());
        cells.push(format!("{}/{}", fmt_ms(tn), naive.possible_size()));
        for ct in [4usize, 32, 256, 1024] {
            let aucfg =
                AuConfig { join_compress: Some(ct), agg_compress: Some(ct), ..AuConfig::default() };
            let (out, secs) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
            cells.push(format!("{}/{}", fmt_ms(secs), out.possible_size()));
        }
        print_row(&cells, &widths);
    }
    println!("(cells are runtime/possible-size; Non-Op is the nested-loop interval join)");
}

/// Figures 15a/15b: accuracy of aggregation — over-grouping and range
/// over-estimation vs attribute range width.
fn fig15(opts: Opts) {
    header("Figure 15a/15b — over-grouping % and range over-estimation factor");
    let rows = opts.pick(500, 2000, 5000);
    let widths = [8, 8, 12, 12];
    print_row(&["unc", "range", "overgroup%", "range-factor"].map(str::to_string), &widths);
    for unc in [0.02, 0.03, 0.05] {
        for frac in [0.01, 0.02, 0.04, 0.06, 0.08, 0.10] {
            let cfg = MicroConfig::new(rows, 3)
                .uncertainty(unc)
                .range_frac(frac)
                .domain(1000)
                .seed(opts.seed);
            let xdb = gen_micro_xdb(&cfg, 10);
            let audb = xdb.to_au();
            let x = xdb.get("t").unwrap();
            let q = table("t").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
            let out = eval_au(&audb, &q, &AuConfig::precise()).unwrap();
            let og = over_grouping_pct(audb.get("t").unwrap(), &[0]);
            let exact = exact_group_agg(x, None, 0, AggFunc::Sum, 1).unwrap();
            let factor = range_overestimation_factor(&out, 0, 1, &exact);
            print_row(
                &[
                    format!("{:.0}%", unc * 100.0),
                    format!("{:.0}%", frac * 100.0),
                    format!("{og:.1}"),
                    format!("{factor:.2}"),
                ],
                &widths,
            );
        }
    }
}

/// Figure 16 (table): chained joins under different compression sizes.
fn fig16(opts: Opts) {
    header("Figure 16 — multi-join performance (runtime in ms)");
    let rows = opts.pick(200, 1000, 4000);
    let widths = [10, 6, 10, 10, 10, 10];
    print_row(
        &["comp", "unc", "1 join", "2 joins", "3 joins", "4 joins"].map(str::to_string),
        &widths,
    );
    let comp_list: [(String, Option<usize>); 5] = [
        ("4".into(), Some(4)),
        ("16".into(), Some(16)),
        ("64".into(), Some(64)),
        ("256".into(), Some(256)),
        ("none".into(), None),
    ];
    // The uncompressed chain's intermediate results explode (that is the
    // point of Figure 16 — the paper measures 333s on Postgres); to keep
    // the harness within laptop memory the no-compression arm runs on a
    // smaller instance, reported in its row label.
    let rows_none = opts.pick(100, 300, 600);
    for (label, comp) in &comp_list {
        let rows = if comp.is_none() { rows_none } else { rows };
        for unc in [0.03, 0.10] {
            let mut audb = AuDatabase::new();
            for i in 0..5 {
                let cfg = MicroConfig::new(rows, 2)
                    .uncertainty(unc)
                    .range_frac(0.02)
                    .domain(rows as i64)
                    .seed(opts.seed + i);
                let (au, _) = audb_workloads::micro::gen_micro_pair(&cfg);
                audb.insert(format!("t{i}"), au);
            }
            let mut cells = vec![format!("{label}@{rows}"), format!("{:.0}%", unc * 100.0)];
            for joins in 1..=4usize {
                let mut q = table("t0");
                let mut arity = 2;
                for i in 1..=joins {
                    q = q.join_on(table(format!("t{i}")), col(0).eq(col(arity)));
                    arity += 2;
                }
                let aucfg =
                    AuConfig { join_compress: *comp, agg_compress: *comp, ..AuConfig::default() };
                let (_, secs) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
                cells.push(fmt_ms(secs));
            }
            print_row(&cells, &widths);
        }
    }
}

/// Figure 17 (table): real-world key-repair datasets — performance and
/// accuracy for AU-DB, Trio, MCDB and UA-DB.
fn fig17(opts: Opts) {
    header("Figure 17 — real-world data: performance and accuracy");
    let rows = opts.pick(500, 2000, 4000);
    let widths = [12, 7, 8, 9, 9, 9, 9, 9];
    print_row(
        &["dataset", "query", "system", "time(ms)", "cert.tup", "tight", "pos.id", "pos.val"]
            .map(str::to_string),
        &widths,
    );
    for case in audb_workloads::all_cases(rows, opts.seed) {
        let xdb = &case.xdb;
        let audb = xdb.to_au();
        let uadb = xdb_to_ua(xdb);
        let aucfg = AuConfig::compressed(64);

        // ---- SPJ query -----------------------------------------------------
        let (qname, q) = &case.spj;
        let (auout, au_t) = time(|| eval_au(&audb, q, &aucfg).unwrap());
        let acc = spj_accuracy(xdb, q, &auout, &[0]).unwrap();
        print_row(
            &[
                case.name.to_string(),
                qname.to_string(),
                "AU-DB".into(),
                fmt_ms(au_t),
                format!("{:.0}%", acc.certain_recall * 100.0),
                format!("{:.2}", acc.tightness_max),
                format!("{:.1}%", acc.possible_recall_by_id * 100.0),
                format!("{:.1}%", acc.possible_recall_by_value * 100.0),
            ],
            &widths,
        );
        let (_, trio_t) = time(|| eval_trio(xdb, q).unwrap());
        print_row(
            &[
                "".into(),
                "".into(),
                "Trio".into(),
                fmt_ms(trio_t),
                "100%".into(),
                "1.00".into(),
                "100%".into(),
                "100%".into(),
            ],
            &widths,
        );
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let (mres, mcdb_t) = time(|| run_mcdb(xdb, q, 10, &mut rng).unwrap());
        let (possible, _) = audb_workloads::exact_spj(xdb, q, 4096).unwrap();
        let seen = mres.seen_tuples();
        let pv = if possible.is_empty() {
            1.0
        } else {
            possible.iter().filter(|t| seen.contains_key(*t)).count() as f64 / possible.len() as f64
        };
        print_row(
            &[
                "".into(),
                "".into(),
                "MCDB".into(),
                fmt_ms(mcdb_t),
                "N.A.".into(),
                "<1".into(),
                "-".into(),
                format!("{:.1}%", pv * 100.0),
            ],
            &widths,
        );
        let (uaout, ua_t) = time(|| eval_ua(&uadb, q).unwrap());
        let ua_tuples: std::collections::BTreeSet<_> =
            uaout.rows().iter().map(|(t, _)| t.clone()).collect();
        let ua_pv = if possible.is_empty() {
            1.0
        } else {
            possible.iter().filter(|t| ua_tuples.contains(*t)).count() as f64
                / possible.len() as f64
        };
        print_row(
            &[
                "".into(),
                "".into(),
                "UA-DB".into(),
                fmt_ms(ua_t),
                "100%".into(),
                "N.A.".into(),
                "-".into(),
                format!("{:.1}%", ua_pv * 100.0),
            ],
            &widths,
        );

        // ---- group-by query -------------------------------------------------
        let (qname, q) = &case.groupby;
        let (auout, au_t) = time(|| eval_au(&audb, q, &aucfg).unwrap());
        // exact group bounds for the aggregate
        let x = xdb.get(case.table).unwrap();
        let (gcol, func, vcol) = match *qname {
            "Qn2" => (2usize, AggFunc::Max, 3usize),
            "Qc2" => (1, AggFunc::Count, 1),
            _ => (1, AggFunc::Sum, 4),
        };
        let exact = exact_group_agg(x, None, gcol, func, vcol).unwrap();
        let certain_groups: std::collections::BTreeSet<&Value> =
            exact.iter().filter(|(_, i)| i.certain).map(|(g, _)| g).collect();
        let found_certain = auout
            .rows()
            .iter()
            .filter(|(t, k)| k.lb > 0 && t.0[0].is_certain())
            .map(|(t, _)| &t.0[0].sg)
            .collect::<std::collections::BTreeSet<_>>();
        let crecall = if certain_groups.is_empty() {
            1.0
        } else {
            certain_groups.iter().filter(|g| found_certain.contains(*g)).count() as f64
                / certain_groups.len() as f64
        };
        let covered_groups =
            exact.keys().filter(|g| auout.rows().iter().any(|(t, _)| t.0[0].bounds(g))).count()
                as f64;
        let factor = range_overestimation_factor(&auout, 0, 1, &exact);
        print_row(
            &[
                case.name.to_string(),
                qname.to_string(),
                "AU-DB".into(),
                fmt_ms(au_t),
                format!("{:.0}%", crecall * 100.0),
                format!("{factor:.2}"),
                "-".into(),
                format!("{:.1}%", covered_groups / exact.len().max(1) as f64 * 100.0),
            ],
            &widths,
        );
        let (_, trio_t) = time(|| trio_aggregate(x, Some(gcol), func, vcol).unwrap());
        let trio_groups = trio_aggregate(x, Some(gcol), func, vcol).unwrap();
        let trio_cover = exact
            .keys()
            .filter(|g| trio_groups.iter().any(|(tg, _, _)| tg.as_ref() == Some(*g)))
            .count() as f64
            / exact.len().max(1) as f64;
        print_row(
            &[
                "".into(),
                "".into(),
                "Trio".into(),
                fmt_ms(trio_t),
                "100%".into(),
                "1.00".into(),
                "-".into(),
                format!("{:.1}%", trio_cover * 100.0),
            ],
            &widths,
        );
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let (mres, mcdb_t) = time(|| run_mcdb(xdb, q, 10, &mut rng).unwrap());
        let mcdb_groups: std::collections::BTreeSet<Value> = mres
            .samples
            .iter()
            .flat_map(|s| s.rows().iter().map(|(t, _)| t.0[0].clone()))
            .collect();
        let mcov = exact.keys().filter(|g| mcdb_groups.contains(*g)).count() as f64
            / exact.len().max(1) as f64;
        print_row(
            &[
                "".into(),
                "".into(),
                "MCDB".into(),
                fmt_ms(mcdb_t),
                "N.A.".into(),
                "<1".into(),
                "-".into(),
                format!("{:.1}%", mcov * 100.0),
            ],
            &widths,
        );
        let (uaout, ua_t) = time(|| eval_ua(&uadb, q).unwrap());
        let ua_groups: std::collections::BTreeSet<Value> =
            uaout.rows().iter().map(|(t, _)| t.0[0].clone()).collect();
        let ucov = exact.keys().filter(|g| ua_groups.contains(*g)).count() as f64
            / exact.len().max(1) as f64;
        print_row(
            &[
                "".into(),
                "".into(),
                "UA-DB".into(),
                fmt_ms(ua_t),
                "0%".into(),
                "N.A.".into(),
                "-".into(),
                format!("{:.1}%", ucov * 100.0),
            ],
            &widths,
        );
    }
    println!(
        "(tight: attribute-bound width relative to exact; pos.id/pos.val: possible-answer recall)"
    );
}

/// Ablations called out in DESIGN.md: split-only vs split+compress for
/// joins, and precise vs compressed aggregation tightness.
fn ablation(opts: Opts) {
    header("Ablation — split vs split+compress (join), precise vs compressed (aggregation)");
    let rows = opts.pick(300, 1500, 4000);
    let cfg =
        MicroConfig::new(rows, 3).uncertainty(0.05).range_frac(0.02).domain(1000).seed(opts.seed);
    let (audb, _) = micro_join_db(&cfg);
    let q = table("t1").join_on(table("t2"), col(0).eq(col(3)));
    let widths = [22, 10, 14];
    print_row(&["variant", "time(ms)", "possible size"].map(str::to_string), &widths);
    let (out, secs) = time(|| eval_au(&audb, &q, &AuConfig::precise()).unwrap());
    print_row(&["naive".into(), fmt_ms(secs), out.possible_size().to_string()], &widths);
    // split-only: compression budget so large that no buckets merge
    let (out, secs) = time(|| {
        let l = audb.get("t1").unwrap();
        let r = audb.get("t2").unwrap();
        opt::optimized_join(l, r, Some(&col(0).eq(col(3))), usize::MAX / 2).unwrap()
    });
    print_row(&["split only".into(), fmt_ms(secs), out.possible_size().to_string()], &widths);
    for ct in [16usize, 128] {
        let aucfg =
            AuConfig { join_compress: Some(ct), agg_compress: Some(ct), ..AuConfig::default() };
        let (out, secs) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
        print_row(
            &[format!("split+compress CT={ct}"), fmt_ms(secs), out.possible_size().to_string()],
            &widths,
        );
    }

    // aggregation tightness ablation
    let q = table("t1").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
    println!();
    print_row(&["agg variant", "time(ms)", "mean range"].map(str::to_string), &widths);
    for (label, c) in [("precise", None), ("CT=16", Some(16usize)), ("CT=256", Some(256))] {
        let aucfg = AuConfig { join_compress: c, agg_compress: c, ..AuConfig::default() };
        let (out, secs) = time(|| eval_au(&audb, &q, &aucfg).unwrap());
        let mut total = 0.0;
        let mut n = 0;
        for (t, _) in out.rows() {
            total += t.0[1].width(1e9);
            n += 1;
        }
        print_row(
            &[
                label.to_string(),
                fmt_ms(secs),
                format!("{:.1}", if n == 0 { 0.0 } else { total / n as f64 }),
            ],
            &widths,
        );
    }
}
