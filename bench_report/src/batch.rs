//! The four batch workloads: inputs, the round loop behind the
//! end-to-end metrics, and the traced replay behind the per-layer ones.
//!
//! A *round* runs the calibration kernel, then the *op*: one pass over
//! the workload's query list through `eval_au`. The traced replay adds
//! to each round the same pass through `run_sgqp` on the selected-guess
//! world, through `eval_au_traced`, and one layer at a time. Everything
//! runs on one thread (`with_workers(1)`), so a reading never depends on
//! what the second vCPU happens to be doing.

use std::hint::black_box;
use std::time::Instant;

use audb_baselines::{run_mcdb, run_sgqp};
use audb_core::obs::QueryTrace;
use audb_core::{col, lit, EvalError, Expr, LaneBatch, Program, RangeValue};
use audb_incomplete::XDb;
use audb_query::au::aggregate::aggregate_au_exec;
use audb_query::au::{project_au_exec, select_au_exec};
use audb_query::opt::optimized_join_exec;
use audb_query::planner::join_au_planned_exec;
use audb_query::{eval_au, eval_au_traced, table, AggFunc, AggSpec, AuConfig, Executor, Query};
use audb_storage::{AuDatabase, AuRelation, ColumnSet, Database, IntervalIndex};
use audb_workloads::{
    gen_micro_au, gen_micro_xdb, gen_tpch, inject_uncertainty, over_grouping_pct,
    range_overestimation_factor, tpch_queries, MicroConfig, TpchConfig,
};
use rand::SeedableRng;

use crate::calib::{Calib, NOMINAL_NS};
use crate::catalog::Readings;
use crate::gate::{self, GateReport};
use crate::spans::Recorder;
use crate::stats::{median, paired_ratios, pct, XorShift};
use crate::{alloc, reference, sys, Ops, Outcome, RunArgs, Samples, SETUP_REPS, WARMUP_ROUNDS};

/// Fewest timed rounds of a run: leaves 10 samples beyond the p90.
/// `tpch_ct64`, the slowest op (~145 ms with its kernel), reaches it in
/// 15 of `RUN_SECONDS`' 20 seconds and measures ~140 rounds in all; the
/// micro workloads measure 300 to 900.
const MIN_ROUNDS: usize = 100;
/// Rounds of the traced replay.
const TRACED_ROUNDS: usize = 30;
/// Repo scale of `tpch_ct64` (0.55 = 82 customers, 820 orders, 3280
/// lineitems). At 0.5 the work estimate of Q7's widest join sits within
/// 15% of `JOIN_COMPRESS_MIN_WORK`, so one seed in ten takes the
/// uncompressed path and reads a third of the time and a twelfth of the
/// width of the others; at 0.55 every seed seen is 35% clear of the
/// threshold.
const TPCH_SCALE: f64 = 0.55;
/// Rows the per-row probes (compiled and interpreted) sweep.
const ROW_PROBE_ROWS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanChain,
    JoinSpine,
    GroupAgg,
    TpchCt64,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanChain => "scan_chain",
            Kind::JoinSpine => "join_spine",
            Kind::GroupAgg => "group_agg",
            Kind::TpchCt64 => "tpch_ct64",
        }
    }
}

pub struct Batch {
    kind: Kind,
    audb: AuDatabase,
    sgdb: Database,
    /// The x-DB the AU database was translated from, where there is one.
    xdb: Option<XDb>,
    queries: Vec<(&'static str, Query)>,
    cfg: AuConfig,
}

/// Independent generator seeds from the one `--seed` (kept below 2^62:
/// the micro generators add small offsets to theirs).
fn derive_seed(seed: u64, stream: u64) -> u64 {
    XorShift::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64() >> 2
}

// ---- the workloads' queries -------------------------------------------------

/// `pipeline_engine.rs`'s batchable chain: select → project → select →
/// project with no probe stage, every op a typed lane kernel. `three`
/// is the multiplier literal (an `i64`, or an `f64` to force the float
/// kernels and the Int→Float promotion).
fn batchable_chain(source: &str, three: Expr) -> Query {
    table(source)
        .select(col(1).geq(lit(0i64)))
        .project(vec![
            (col(0), "k"),
            (col(1).add(col(2)), "s"),
            (col(2).mul(three), "m"),
            (col(1).sub(col(2)), "d"),
        ])
        .select(col(1).lt(lit(20_000i64)).and(col(3).geq(lit(-10_000i64))))
        .project(vec![(col(0), "k"), (col(1).add(col(2)).add(col(3)), "v")])
}

struct SpineParts {
    pre: Expr,
    on: Expr,
    post: Expr,
    out: Vec<(Expr, &'static str)>,
}

fn spine_parts() -> SpineParts {
    SpineParts {
        pre: col(1).geq(lit(0i64)),
        on: col(0).eq(col(3)),
        post: col(1).add(col(4)).lt(lit(5000i64)),
        out: vec![(col(0), "k"), (col(1).add(col(4)), "v"), (col(2), "w")],
    }
}

/// The repo's canonical `pipeline_10k` spine: σ → ⋈ → σ → π.
fn spine() -> Query {
    let p = spine_parts();
    table("t1").select(p.pre).join_on(table("t2"), p.on).select(p.post).project(p.out)
}

fn group_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, col(1), "s"),
        AggSpec::count("c"),
        AggSpec::new(AggFunc::Min, col(1), "mn"),
        AggSpec::new(AggFunc::Max, col(1), "mx"),
    ]
}

pub fn build(kind: Kind, seed: u64) -> Batch {
    let w1 = AuConfig::default().with_workers(1);
    let (audb, xdb, queries, cfg) = match kind {
        Kind::ScanChain => {
            // domain < rows so that a fifth of the rows survive both
            // selections: the accuracy readings rest on ~300 uncertain
            // result rows, not ~100. (A smaller domain lets more
            // through, but then SGQP's hash-merge of the output falls
            // out of cache and its time splits into two modes from
            // process to process, 35% apart.)
            let audb = micro_join_exact(50_000, 30_000, 3, derive_seed(seed, 10));
            let queries = vec![
                // one chain per table: the two results thin two
                // independent sets of uncertain rows, which halves the
                // seed-to-seed variance of the accuracy readings
                ("chain_i64", batchable_chain("t1", lit(3i64))),
                ("chain_f64", batchable_chain("t2", lit(3.0f64))),
            ];
            (audb, None, queries, w1)
        }
        Kind::JoinSpine => {
            // 4% uncertain rows, not the 3% of the other micro inputs:
            // at 3% the spine's ~130 000 possible matches straddle 2^17,
            // where a buffer of the join doubles, and peak RSS fell into
            // two modes 3 MB (10%) apart from seed to seed
            let audb = micro_join_exact(10_000, 10_000, 4, derive_seed(seed, 20));
            (audb, None, vec![("spine", spine())], w1)
        }
        Kind::GroupAgg => {
            // exactly a fifth of the x-tuples uncertain: see `micro_table_exact`
            const ROWS: usize = 10_000;
            let part = |rows, share, stream| {
                let cfg = MicroConfig::new(rows, 3)
                    .domain(1000)
                    .uncertainty(share)
                    .range_frac(0.05)
                    .seed(derive_seed(seed, stream));
                let (_, rel) = gen_micro_xdb(&cfg, 4)
                    .relations
                    .pop()
                    .expect("gen_micro_xdb makes one relation");
                rel
            };
            let mut rel = part(ROWS - ROWS / 5, 0.0, 30);
            rel.xtuples.extend(part(ROWS / 5, 1.0, 31).xtuples);
            let mut xdb = XDb::default();
            xdb.insert("t", rel);
            let q = table("t").aggregate(vec![0], group_aggs());
            (xdb.to_au(), Some(xdb), vec![("group_agg", q)], w1)
        }
        Kind::TpchCt64 => {
            // the certain base lives for this statement only
            let xdb = inject_uncertainty(
                &gen_tpch(TpchConfig::new(TPCH_SCALE, derive_seed(seed, 40))),
                0.02,
                8,
                derive_seed(seed, 41),
            );
            let labels = ["q1", "q3", "q5", "q7", "q10"];
            let queries =
                labels.into_iter().zip(tpch_queries().into_iter().map(|(_, q)| q)).collect();
            (xdb.to_au(), Some(xdb), queries, AuConfig::compressed(64).with_workers(1))
        }
    };
    // to_au / the generators normalize; warming builds every lane once,
    // as the serving engine does before it publishes a snapshot
    audb.warm_columns();
    let sgdb = audb.sg_world();
    Batch { kind, audb, sgdb, xdb, queries, cfg }
}

// ---- the gate ----------------------------------------------------------------

fn gate_batch(b: &Batch, reference: Option<&gate::Reference>) -> Result<GateReport, EvalError> {
    let mut results = Vec::new();
    for (label, q) in &b.queries {
        results.push((*label, eval_au(&b.audb, q, &b.cfg)?, run_sgqp(&b.sgdb, q)?));
    }
    let inputs = gate::digest_inputs(&b.audb, &b.sgdb);
    let mut report = gate::run(inputs, &results, reference);
    if b.kind == Kind::GroupAgg {
        if let Err(why) = group_truth(b, &results[0].1) {
            report.failures.push(format!("bound preservation: {why}"));
        }
    }
    Ok(report)
}

/// Exact per-group ranges of `group_agg`'s four aggregates, checked to
/// lie inside the AU result; returns the exact `sum` ranges.
fn group_truth(
    b: &Batch,
    au: &AuRelation,
) -> Result<std::collections::BTreeMap<audb_core::Value, audb_workloads::GroupInfo>, String> {
    let x = b.xdb.as_ref().and_then(|x| x.get("t")).ok_or("group_agg has no x-relation")?;
    let aggs =
        [(1, AggFunc::Sum, 1), (2, AggFunc::Count, 1), (3, AggFunc::Min, 1), (4, AggFunc::Max, 1)];
    gate::check_group_bounds(x, 0, au, &aggs)
}

// ---- rounds ------------------------------------------------------------------

struct RoundTimes {
    calib_ns: f64,
    au_ns: f64,
    failed: u64,
}

/// One timed round: the calibration kernel, then the op — one pass over
/// the workload's queries through `eval_au`. A reply with another row
/// count than the gated run's counts as failed.
fn round(b: &Batch, calib: &Calib, expect_rows: &[u64]) -> RoundTimes {
    let calib_ns = calib.time_ns();
    let mut failed = 0;
    let t = Instant::now();
    for (i, (_, q)) in b.queries.iter().enumerate() {
        match eval_au(&b.audb, q, &b.cfg) {
            Ok(rel) if expect_rows.get(i).is_none_or(|n| *n == rel.len() as u64) => {
                black_box(rel);
            }
            _ => failed += 1,
        }
    }
    RoundTimes { calib_ns, au_ns: t.elapsed().as_nanos() as f64, failed }
}

/// A set-up's wall seconds at the calibration kernel's nominal speed:
/// `wall / (kernel time measured during the set-up) * NOMINAL`. The
/// raw wall of one set-up moved 20% between processes minutes apart;
/// in kernel units it moved 5%.
pub fn at_nominal_speed(wall_s: f64, kernel_ns: &[f64]) -> f64 {
    wall_s / median(kernel_ns) * NOMINAL_NS
}

// ---- the untraced run: end-to-end metrics -------------------------------------

pub fn run_untraced(kind: Kind, args: &RunArgs) -> Outcome {
    let calib = Calib::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // one resident copy at a time: peak RSS is one workload's
        let t = Instant::now();
        let b = build(kind, args.seed);
        let units: Vec<f64> = (0..WARMUP_ROUNDS).map(|_| round(&b, &calib, &[]).calib_ns).collect();
        setup_s.push(at_nominal_speed(t.elapsed().as_secs_f64(), &units));
        built = Some(b);
    }
    let b = built.expect("SETUP_REPS >= 1");

    let report = match gate_batch(&b, reference::lookup(kind.name(), args.seed)) {
        Ok(r) => r,
        Err(e) => {
            return Outcome::aborted(format!("{}: query failed in the gate: {e}", kind.name()))
        }
    };
    let expect_rows = report.expected_rows();

    let (mut calib_ns, mut au_ns) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let started = Instant::now();
    while !args.rounds_done(calib_ns.len(), MIN_ROUNDS, started) {
        let r = round(&b, &calib, &expect_rows);
        calib_ns.push(r.calib_ns);
        au_ns.push(r.au_ns);
        failed += r.failed;
    }
    let rounds = calib_ns.len() as u64;
    let attempted = rounds * b.queries.len() as u64;
    // a query that failed the gate fails every one of its ops
    let gate_failed_queries =
        b.queries.iter().filter(|(label, _)| !report.query_ok(label)).count() as u64;
    failed = (failed + rounds * gate_failed_queries).min(attempted);

    let au_rel = paired_ratios(&au_ns, &calib_ns);
    let nq = b.queries.len() as f64;
    let throughput: Vec<f64> = au_rel.iter().map(|r| nq / r).collect();
    let mut readings = Readings::new();
    readings.insert("setup_s", median(&setup_s));
    readings.insert("au_rel_p50", median(&au_rel));
    readings.insert("au_rel_p90", pct(&au_rel, 0.9));
    readings.insert("throughput_rel", median(&throughput));
    // absent where it cannot be read, which fails the run: 0 would read
    // as the best memory use there is
    if let Some(mb) = sys::peak_rss_mb() {
        readings.insert("peak_rss_mb", mb);
    }
    readings.insert("uncertain_frac", report.uncertain_frac());
    readings.insert("rel_width", report.rel_width());
    Outcome {
        correct: report.passed() && failed == 0,
        attempted,
        failed,
        readings,
        notes: report.failure_lines(),
        samples: rounds,
    }
}

// ---- the traced run: per-layer metrics ------------------------------------------

/// Expression lists of a plan, one per operator that evaluates any: what
/// a chain compile site lowers into one `Program`.
pub fn expr_lists(q: &Query, out: &mut Vec<Vec<Expr>>) {
    match q {
        Query::Table(_) => {}
        Query::Select { input, predicate } => {
            expr_lists(input, out);
            out.push(vec![predicate.clone()]);
        }
        Query::Project { input, exprs } => {
            expr_lists(input, out);
            out.push(exprs.iter().map(|(e, _)| e.clone()).collect());
        }
        Query::Join { left, right, predicate } => {
            expr_lists(left, out);
            expr_lists(right, out);
            out.extend(predicate.iter().map(|p| vec![p.clone()]));
        }
        Query::Union { left, right } | Query::Difference { left, right } => {
            expr_lists(left, out);
            expr_lists(right, out);
        }
        Query::Distinct { input } => expr_lists(input, out),
        Query::Aggregate { input, aggs, .. } => {
            expr_lists(input, out);
            out.push(aggs.iter().map(|a| a.input.clone()).collect());
        }
    }
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// `core.compile_us` / `core.verify_us` over a workload's expressions.
pub fn probe_compile_verify(lists: &[Vec<Expr>], samples: &mut Samples) {
    let (programs, compile_ns) =
        time_ns(|| lists.iter().map(|l| Program::compile_range_many(l)).collect::<Vec<Program>>());
    let (verdicts, verify_ns) =
        time_ns(|| programs.iter().filter(|p| p.verify_full().is_ok()).count());
    black_box(verdicts);
    samples.push("core.compile_us", compile_ns / 1e3);
    samples.push("core.verify_us", verify_ns / 1e3);
}

/// `exec.morsel_overhead_us`: one driver entry whose morsels do nothing.
pub fn probe_morsel_overhead(samples: &mut Samples) {
    const CALLS: usize = 200;
    let exec = Executor::sequential();
    let (_, ns) = time_ns(|| {
        for _ in 0..CALLS {
            let out: Result<Vec<()>, EvalError> = exec.run(65_536, |_morsel, _out| Ok(()));
            black_box(out.map(|v| v.len()).unwrap_or(0));
        }
    });
    samples.push("exec.morsel_overhead_us", ns / 1e3 / CALLS as f64);
}

/// `storage.lane_build_ms` on the largest base table.
pub fn probe_lane_build(audb: &AuDatabase, samples: &mut Samples) {
    if let Some(rel) = audb.iter().map(|(_, r)| r).max_by_key(|r| r.len()) {
        let (cs, ns) = time_ns(|| ColumnSet::from_rows(rel.schema.arity(), rel.rows()));
        black_box(cs.nrows());
        samples.push("storage.lane_build_ms", ns / 1e6);
    }
}

/// `storage.bytes_per_row` (the engine's own estimate) and
/// `storage.resident_bytes_per_row`: live bytes of a cold copy of every
/// base table once its lanes are warm — rows plus their columnar twin.
pub fn probe_bytes(audb: &AuDatabase, readings: &mut Readings) {
    let rows: usize = audb.iter().map(|(_, r)| r.len()).sum();
    let estimated: u64 = audb.iter().map(|(_, r)| r.estimated_bytes()).sum();
    let (copy, resident) = alloc::live_bytes_of(|| {
        let copy: Vec<AuRelation> = audb
            .iter()
            .map(|(_, r)| AuRelation::from_normalized_rows(r.schema.clone(), r.rows().to_vec()))
            .collect();
        copy.iter().for_each(AuRelation::warm_columns);
        copy
    });
    drop(copy);
    readings.insert("storage.bytes_per_row", estimated as f64 / rows.max(1) as f64);
    readings.insert("storage.resident_bytes_per_row", resident.end as f64 / rows.max(1) as f64);
}

/// `bench.loaded_mb` and `bench.setup_peak_x` of a set-up built under
/// counting: what `peak_rss_mb` starts from, and whether the set-up ever
/// held more than that (then the generator, not the engine, would set
/// the gated peak).
pub fn probe_setup_memory(setup: alloc::LiveBytes, readings: &mut Readings) {
    readings.insert("bench.loaded_mb", setup.end as f64 / (1024.0 * 1024.0));
    readings.insert("bench.setup_peak_x", setup.peak as f64 / setup.end.max(1) as f64);
}

/// Rollup of one engine trace into the `trace.*` accumulators of a round.
#[derive(Default)]
struct TraceRollup {
    chain_ns: u64,
    aggregate_ns: u64,
    verify_ns: u64,
    reduce_ns: u64,
    normalize_rows_in: u64,
    morsels: u64,
    attributed_ns: u64,
    total_ns: u64,
}

impl TraceRollup {
    fn add(&mut self, trace: &QueryTrace) {
        trace.root.walk(&mut |s| {
            let children: u64 = s.children.iter().map(|c| c.elapsed_ns).sum();
            let own = s.elapsed_ns.saturating_sub(children);
            match s.op.as_str() {
                "query" | "attempt" => return,
                "aggregate" => self.aggregate_ns += own,
                "verify" => self.verify_ns += own,
                _ => self.chain_ns += own,
            }
            self.attributed_ns += own;
        });
        for site in &trace.metrics.sites {
            if site.site.starts_with("reduce_") {
                self.reduce_ns += site.total_ns;
            }
        }
        self.normalize_rows_in += trace.metrics.counter("normalize_rows_in").unwrap_or(0);
        self.morsels += trace.metrics.counter("morsels_dispatched").unwrap_or(0);
        self.total_ns += trace.total_ns;
    }

    fn push(&self, samples: &mut Samples) {
        samples.push("trace.chain_ms", self.chain_ns as f64 / 1e6);
        samples.push("trace.aggregate_ms", self.aggregate_ns as f64 / 1e6);
        samples.push("trace.verify_us", self.verify_ns as f64 / 1e3);
        samples.push("trace.reduce_ms", self.reduce_ns as f64 / 1e6);
        samples.push("trace.normalize_rows_in", self.normalize_rows_in as f64);
        samples.push("trace.morsels", self.morsels as f64);
        let gap = self.total_ns.saturating_sub(self.attributed_ns);
        samples.push("trace.unattributed_frac", gap as f64 / self.total_ns.max(1) as f64);
    }
}

const TPCH_METRICS: [(&str, &str, &str); 5] = [
    ("q1", "query.q1_ms", "query.q1_overhead_x"),
    ("q3", "query.q3_ms", "query.q3_overhead_x"),
    ("q5", "query.q5_ms", "query.q5_overhead_x"),
    ("q7", "query.q7_ms", "query.q7_overhead_x"),
    ("q10", "query.q10_ms", "query.q10_overhead_x"),
];

/// Deterministic Fisher-Yates shuffle.
fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let mut g = XorShift::new(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, g.below(i as u64 + 1) as usize);
    }
    v
}

/// One micro table of `cfg.rows` rows, exactly `uncertain_pct` percent
/// of them uncertain.
///
/// The repo's generator flips one coin per row, so the *number* of
/// uncertain rows — which the cost of every uncertain-aware operator is
/// proportional to — wanders by several percent from seed to seed. A
/// workload states its uncertainty as a parameter: asked for a share of
/// 0 and of 1 the same generator makes an all-certain and an
/// all-uncertain table of any size, and the two are put together here.
/// Nothing is generated that is not kept, so the memory high-water mark
/// of a set-up is the database it ends with (`peak_rss_mb` is gated).
fn micro_table_exact(cfg: &MicroConfig, uncertain_pct: usize, seed: u64) -> AuRelation {
    let uncertain = cfg.rows * uncertain_pct / 100;
    let part = |rows, share, stream| {
        gen_micro_au(&MicroConfig {
            rows,
            uncert_pct: share,
            seed: derive_seed(seed, stream),
            ..*cfg
        })
    };
    let mut rel = part(cfg.rows - uncertain, 0.0, 1);
    rel.extend_from(&part(uncertain, 1.0, 2));
    rel.normalize();
    rel
}

/// The micro join database: `t1` and `t2` of `rows` rows each over a
/// shared key domain, exactly `uncertain_pct` percent of the rows of
/// each uncertain, ranges 2 % of the domain wide.
pub fn micro_join_exact(rows: usize, domain: i64, uncertain_pct: usize, seed: u64) -> AuDatabase {
    let cfg = MicroConfig::new(rows, 3).domain(domain).range_frac(0.02);
    let mut audb = AuDatabase::new();
    for (i, name) in ["t1", "t2"].into_iter().enumerate() {
        audb.insert(name, micro_table_exact(&cfg, uncertain_pct, derive_seed(seed, 10 + i as u64)));
    }
    audb
}

/// One predicate and two arithmetic projections over a micro table: what
/// the lane, row and interpreter probes all evaluate.
fn probe_exprs() -> Vec<Expr> {
    vec![col(1).geq(lit(0i64)), col(1).add(col(2)), col(2).mul(lit(3i64))]
}

/// The staged layer calls of one round, each under its own span below
/// `parent`; what the workload's op is made of, called one layer at a
/// time on the workload's real inputs.
fn staged_layers(
    b: &Batch,
    rec: &mut Recorder,
    op: u32,
    parent: u32,
    samples: &mut Samples,
) -> Result<(), EvalError> {
    let exec = Executor::sequential();
    let p = Some(parent);
    match b.kind {
        Kind::ScanChain => {
            let t1 = b.audb.get("t1")?;
            let exprs = probe_exprs();
            let prog = Program::compile_range_many(&exprs);
            let cs = t1.columns();
            let mut batch = LaneBatch::default();
            let (res, ns) = rec.span("core.eval_range_lanes", op, p, || {
                prog.eval_range_lanes(&cs.lane_slices(), cs.nrows(), &mut batch, None)
            });
            res?;
            samples.push("core.lanes_ns_row", ns / cs.nrows().max(1) as f64);
            probe_interp(t1, &exprs, rec, op, p, samples)?;
        }
        Kind::JoinSpine => {
            let (t1, t2) = (b.audb.get("t1")?, b.audb.get("t2")?);
            let parts = spine_parts();
            let exprs = probe_exprs();
            let prog = Program::compile_range_many(&exprs);
            let n = t1.len().min(ROW_PROBE_ROWS);
            let mut regs: Vec<RangeValue> = Vec::new();
            prog.prepare_range_regs(&mut regs);
            let (res, ns) = rec.span("core.eval_range_row", op, p, || {
                t1.rows()[..n]
                    .iter()
                    .try_for_each(|(t, _)| prog.eval_range_into(t.values(), &mut regs))
            });
            res?;
            samples.push("core.row_ns_row", ns / n.max(1) as f64);
            probe_interp(t1, &exprs, rec, op, p, samples)?;

            let (idx, ns) = rec.span("storage.index_build", op, p, || {
                IntervalIndex::from_lane(t2.columns().lane(0).as_slice())
            });
            black_box(idx.len());
            samples.push("storage.index_build_ms", ns / 1e6);

            let (s1, ns) =
                rec.span("query.select", op, p, || select_au_exec(t1, &parts.pre, &exec));
            let s1 = s1?;
            let (joined, join_ns) = rec.span("query.join", op, p, || {
                join_au_planned_exec(&s1, t2, Some(&parts.on), &exec)
            });
            let joined = joined?;
            let (s2, ns2) =
                rec.span("query.select", op, p, || select_au_exec(&joined, &parts.post, &exec));
            let s2 = s2?;
            let out: Vec<(Expr, String)> =
                parts.out.iter().map(|(e, n)| (e.clone(), n.to_string())).collect();
            let (projected, proj_ns) =
                rec.span("query.project", op, p, || project_au_exec(&s2, &out, &exec));
            let projected = projected?;
            samples.push("query.select_ms", (ns + ns2) / 1e6);
            samples.push("query.join_ms", join_ns / 1e6);
            samples.push("query.project_ms", proj_ns / 1e6);

            // the breaker's input: the spine's output rows before they
            // are merged and sorted
            let mut raw = AuRelation::empty(projected.schema.clone());
            raw.append_rows(shuffled(projected.rows().to_vec(), 0x5AFF1E));
            let (res, ns) = rec.span("storage.normalize", op, p, || raw.normalize_with(&exec));
            res.map_err(EvalError::from)?;
            samples.push("storage.normalize_ms", ns / 1e6);
        }
        Kind::GroupAgg => {
            let t = b.audb.get("t")?;
            let (agg, ns) = rec.span("query.aggregate", op, p, || {
                aggregate_au_exec(t, &[0], &group_aggs(), None, &exec)
            });
            black_box(agg?.len());
            samples.push("query.agg_ms", ns / 1e6);
        }
        Kind::TpchCt64 => {
            // Q7's widest join: (supplier ⋈ lineitem) ⋈ orders, through
            // the split/compress join at the workload's CT
            let (supplier, lineitem, orders) =
                (b.audb.get("supplier")?, b.audb.get("lineitem")?, b.audb.get("orders")?);
            let (sl, _) = rec.span("query.join", op, p, || {
                join_au_planned_exec(supplier, lineitem, Some(&col(0).eq(col(10))), &exec)
            });
            let sl = sl?;
            let (wide, ns) = rec.span("query.compress", op, p, || {
                optimized_join_exec(&sl, orders, Some(&col(2).eq(col(11))), 64, &exec)
            });
            black_box(wide?.len());
            samples.push("query.compress_ms", ns / 1e6);
        }
    }
    Ok(())
}

/// `core.interp_ns_row`: the `Expr`-tree oracle over the same
/// expressions and rows the compiled probes sweep.
fn probe_interp(
    rel: &AuRelation,
    exprs: &[Expr],
    rec: &mut Recorder,
    op: u32,
    parent: Option<u32>,
    samples: &mut Samples,
) -> Result<(), EvalError> {
    let n = rel.len().min(ROW_PROBE_ROWS);
    let (res, ns) = rec.span("core.eval_range_interp", op, parent, || {
        rel.rows()[..n].iter().try_for_each(|(t, _)| {
            exprs.iter().try_for_each(|e| e.eval_range(t.values()).map(|v| drop(black_box(v))))
        })
    });
    res?;
    samples.push("core.interp_ns_row", ns / n.max(1) as f64);
    Ok(())
}

pub fn run_traced(kind: Kind, args: &RunArgs) -> Outcome {
    let calib = Calib::new();
    let mut rec = Recorder::new();
    let setup_started = Instant::now();
    let (b, setup_memory) = alloc::live_bytes_of(|| build(kind, args.seed));
    for _ in 0..WARMUP_ROUNDS {
        round(&b, &calib, &[]);
    }
    let setup_wall_s = setup_started.elapsed().as_secs_f64();
    let report = match gate_batch(&b, reference::lookup(kind.name(), args.seed)) {
        Ok(r) => r,
        Err(e) => {
            return Outcome::aborted(format!("{}: query failed in the gate: {e}", kind.name()))
        }
    };
    let expect_rows = report.expected_rows();
    let mut readings = Readings::new();
    let mut samples = Samples::default();

    // ---- one-off readings ------------------------------------------------
    probe_bytes(&b.audb, &mut readings);
    probe_setup_memory(setup_memory, &mut readings);
    readings.insert("bench.setup_wall_s", setup_wall_s);
    readings.insert("query.certain_frac", 1.0 - report.uncertain_frac());
    readings.insert("query.possible_over_sg_x", report.possible_over_sg());
    if kind == Kind::GroupAgg {
        if let (Ok(t), Ok(au)) = (b.audb.get("t"), eval_au(&b.audb, &b.queries[0].1, &b.cfg)) {
            if let Ok(exact_sum) = group_truth(&b, &au) {
                let factor = range_overestimation_factor(&au, 0, 1, &exact_sum);
                readings.insert("query.agg_range_factor", factor);
            }
            readings.insert("query.over_grouping_pct", over_grouping_pct(t, &[0]));
        }
    }
    let mut lists = Vec::new();
    b.queries.iter().for_each(|(_, q)| expr_lists(q, &mut lists));

    // ---- replay ----------------------------------------------------------
    let sched_before = sys::schedstat();
    let mut ops = Ops::default();
    let mut rounds = 0usize;
    let started = Instant::now();
    while !args.rounds_done(rounds, 5, started) && rounds < TRACED_ROUNDS {
        let op = rec.new_op();
        let round_span = rec.open("round", op, None);
        let (_, calib_ns) = rec.span("calib", op, Some(round_span), || calib.run());
        samples.push("bench.calib_ms_p50", calib_ns / 1e6);

        // the op as users run it, one span per query
        let au_span = rec.open("au_op", op, Some(round_span));
        let mut au_query_ns = Vec::new();
        for (i, (label, q)) in b.queries.iter().enumerate() {
            let (res, ns) = rec.span(label, op, Some(au_span), || eval_au(&b.audb, q, &b.cfg));
            ops.record(res.is_ok_and(|rel| rel.len() as u64 == expect_rows[i]));
            au_query_ns.push(ns);
        }
        let au_ns = rec.close(au_span);

        let sg_span = rec.open("sgqp_op", op, Some(round_span));
        let mut sg_query_ns = Vec::new();
        for (label, q) in &b.queries {
            let (res, ns) = rec.span(label, op, Some(sg_span), || run_sgqp(&b.sgdb, q));
            ops.record(res.is_ok());
            sg_query_ns.push(ns);
        }
        let sgqp_ns = rec.close(sg_span);

        samples.push("query.au_ms_p50", au_ns / 1e6);
        samples.push("query.sgqp_ms_p50", sgqp_ns / 1e6);
        samples.push("query.sgqp_rel_p50", sgqp_ns / calib_ns);
        samples.push("query.overhead_x", au_ns / sgqp_ns);
        if kind == Kind::TpchCt64 {
            for (i, (label, _)) in b.queries.iter().enumerate() {
                if let Some((_, ms, x)) = TPCH_METRICS.iter().find(|(l, ..)| l == label) {
                    samples.push(ms, au_query_ns[i] / 1e6);
                    samples.push(x, au_query_ns[i] / sg_query_ns[i]);
                }
            }
        }

        // the same op under the engine's own tracing: rollups + overhead
        let mut rollup = TraceRollup::default();
        let (_, traced_ns) = rec.span("au_op_traced", op, Some(round_span), || {
            for (_, q) in &b.queries {
                let res = eval_au_traced(&b.audb, q, &b.cfg);
                ops.record(res.is_ok());
                if let Ok((rel, trace)) = res {
                    black_box(rel.len());
                    rollup.add(&trace);
                }
            }
        });
        rollup.push(&mut samples);
        samples.push("bench.trace_overhead_x", traced_ns / au_ns);

        // the op one layer at a time
        let staged = rec.open("staged_op", op, Some(round_span));
        ops.record(staged_layers(&b, &mut rec, op, staged, &mut samples).is_ok());
        rec.close(staged);

        if kind == Kind::JoinSpine {
            let w2 = b.cfg.with_workers(2);
            let (res, w2_ns) = rec
                .span("au_op_w2", op, Some(round_span), || eval_au(&b.audb, &b.queries[0].1, &w2));
            ops.record(res.is_ok());
            samples.push("exec.w2_speedup_x", au_ns / w2_ns);
        }
        if kind == Kind::TpchCt64 && rounds.is_multiple_of(3) {
            if let Some(xdb) = &b.xdb {
                let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed ^ rounds as u64);
                let (_, ns) = rec.span("baselines.mcdb10", op, Some(round_span), || {
                    for (_, q) in &b.queries {
                        ops.record(run_mcdb(xdb, q, 10, &mut rng).is_ok());
                    }
                });
                samples.push("baselines.mcdb10_rel_p50", ns / calib_ns);
                samples.push("baselines.au_over_mcdb10_x", au_ns / ns);
            }
        }
        if let Some(xdb) = &b.xdb {
            let (au, ns) = rec.span("incomplete.to_au", op, Some(round_span), || xdb.to_au());
            black_box(au.iter().count());
            samples.push("incomplete.to_au_ms", ns / 1e6);
        }
        probe_compile_verify(&lists, &mut samples);
        probe_morsel_overhead(&mut samples);
        probe_lane_build(&b.audb, &mut samples);
        rec.close(round_span);
        rounds += 1;
    }
    if let Some(frac) = sys::runq_wait_frac(sched_before, sys::schedstat()) {
        readings.insert("bench.runq_wait_frac", frac);
    }

    crate::finish_traced(kind.name(), &rec, samples, &mut readings, rounds);
    readings.insert("bench.failed_frac", ops.failed as f64 / ops.attempted.max(1) as f64);
    Outcome {
        correct: report.passed() && ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        readings,
        notes: report.failure_lines(),
        samples: rounds as u64,
    }
}

/// `--emit-reference`: the reference block of one batch workload.
pub fn reference_block(kind: Kind, seed: u64) -> Result<String, String> {
    let report = gate_batch(&build(kind, seed), None).map_err(|e| e.to_string())?;
    Ok(gate::reference_source(kind.name(), &report.inputs, &report.checks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_derive_independently_and_repeatably() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
        assert!(derive_seed(u64::MAX, 5) < 1 << 62);
    }

    #[test]
    fn expression_lists_follow_the_plan() {
        let mut lists = Vec::new();
        expr_lists(&spine(), &mut lists);
        // σ, ⋈, σ, π — in evaluation order
        assert_eq!(lists.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1, 1, 3]);
        let mut agg = Vec::new();
        expr_lists(&table("t").aggregate(vec![0], group_aggs()), &mut agg);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].len(), 4);
    }

    #[test]
    fn micro_tables_hold_exactly_the_stated_uncertain_rows() {
        let db = micro_join_exact(400, 400, 5, 3);
        let uncertain = |r: &AuRelation| r.rows().iter().filter(|(t, _)| !t.is_certain()).count();
        for (_, rel) in db.iter() {
            assert_eq!((rel.len(), uncertain(rel)), (400, 20));
            assert!(rel.is_normalized());
        }
        assert_ne!(db.get("t1").unwrap(), db.get("t2").unwrap());
        assert_eq!(db.get("t1").unwrap(), micro_join_exact(400, 400, 5, 3).get("t1").unwrap());
        assert_ne!(db.get("t1").unwrap(), micro_join_exact(400, 400, 5, 4).get("t1").unwrap());
        let b = build(Kind::GroupAgg, 3);
        let x = b.xdb.as_ref().unwrap().get("t").unwrap();
        assert_eq!(x.xtuples.len(), 10_000);
        assert_eq!(x.xtuples.iter().filter(|x| x.is_uncertain()).count(), 2_000);
    }

    #[test]
    fn a_set_up_peaks_at_the_database_it_ends_with() {
        // `peak_rss_mb` is gated. It can only follow the engine's
        // footprint — the loaded database, then what queries hold on top
        // — if no set-up ever holds more than it ends with. (The slack
        // is the engine's own: building lanes and the SG world peaks
        // 7 to 10 % above what stays.)
        for kind in [Kind::ScanChain, Kind::JoinSpine, Kind::GroupAgg, Kind::TpchCt64] {
            let (b, mem) = alloc::live_bytes_of(|| build(kind, 3));
            assert!(mem.end > 0 && !b.queries.is_empty());
            assert!(
                mem.peak as f64 <= 1.15 * mem.end as f64,
                "{}: set-up peaked at {} bytes and kept {}",
                kind.name(),
                mem.peak,
                mem.end
            );
        }
    }

    #[test]
    fn shuffle_is_a_fixed_permutation() {
        let v: Vec<u32> = (0..100).collect();
        let s = shuffled(v.clone(), 9);
        assert_ne!(s, v);
        assert_eq!(s, shuffled(v.clone(), 9));
        assert_ne!(s, shuffled(v.clone(), 10));
        let mut back = s;
        back.sort_unstable();
        assert_eq!(back, v);
    }

    #[test]
    fn same_seed_same_inputs_and_the_gate_passes() {
        // a scaled-down spine keeps the test quick; the full workloads
        // run under `--workload`
        let a = build(Kind::GroupAgg, 11);
        let b = build(Kind::GroupAgg, 11);
        assert_eq!(gate::digest_inputs(&a.audb, &a.sgdb), gate::digest_inputs(&b.audb, &b.sgdb));
        let c = build(Kind::GroupAgg, 12);
        assert_ne!(gate::digest_inputs(&a.audb, &a.sgdb), gate::digest_inputs(&c.audb, &c.sgdb));
        let report = gate_batch(&a, None).unwrap();
        assert!(report.passed(), "{:?}", report.failure_lines());
        assert!(report.rel_width() > 0.0 && report.uncertain_frac() > 0.0);
        assert!(report.query_ok("group_agg") && !report.query_ok("nope"));
    }
}
