//! `serve_mix`: the serving engine under a closed loop of two clients.
//!
//! Each client sends its next SQL text only after the previous reply
//! (callers that wait make a closed loop), so the load adapts to the
//! engine; latency is submission → response of `Engine::execute_sql`.
//! A round is the calibration kernel (timed by both clients at once)
//! and 500 texts per client drawn from five classes; client 0
//! publishes a new epoch half way through every round while client 1
//! keeps reading — publish evicts the prepared-plan table and rebuilds
//! the lanes, the *write* use of the code the batch workloads only read.
//!
//! Class shares are chosen so that the p50 and the p90 of the latency
//! mix fall in the middle of a class (point, join), not on a boundary
//! between two, where a small shift would flip the percentile between
//! populations.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use audb_baselines::run_sgqp;
use audb_core::EvalError;
use audb_query::au::difference::difference_au_exec;
use audb_query::{eval_au, parse_sql, AuConfig, Executor, Query};
use audb_serve::{Class, Engine, EngineConfig, ServeError};
use audb_storage::{AuDatabase, AuRelation, Database};

use crate::batch::{
    at_nominal_speed, expr_lists, micro_join_exact, probe_bytes, probe_compile_verify,
    probe_lane_build, probe_morsel_overhead, probe_setup_memory,
};
use crate::calib::Calib;
use crate::catalog::Readings;
use crate::gate::{self, GateReport};
use crate::spans::Recorder;
use crate::stats::{mean, median, pct, XorShift};
use crate::{alloc, reference, sys, Ops, Outcome, RunArgs, Samples, SETUP_REPS, WARMUP_ROUNDS};

const NAME: &str = "serve_mix";
const ROWS: usize = 2_000;
/// Share of the rows of `t1`/`t2` that are uncertain, exactly.
const UNCERTAIN_PCT: usize = 5;
const CLIENTS: usize = 2;
const TEXTS_PER_CLIENT: usize = 500;
/// Fewest timed rounds: 10 × 2 × 500 = 10 000 queries, reached in about
/// 11 of `RUN_SECONDS`' 20 seconds; a run measures ~19 000.
const MIN_ROUNDS: usize = 10;
const TRACED_ROUNDS: usize = 3;
/// Calibration runs per round (their median is the round's unit).
const CALIB_REPS: usize = 5;
/// Client 0 publishes after this many of its texts.
const PUBLISH_AT: usize = TEXTS_PER_CLIENT / 2;
/// One in this many point queries carries a literal no earlier text had.
const FRESH_ONE_IN: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Proj,
    Point,
    Except,
    Agg,
    Join,
}

impl Kind {
    const ALL: [Kind; 5] = [Kind::Proj, Kind::Point, Kind::Except, Kind::Agg, Kind::Join];

    /// Cumulative share, in percent, up to and including this class:
    /// 20 % proj, 50 % point, 6 % except, 8 % agg, 16 % join.
    fn cumulative_pct(self) -> u64 {
        match self {
            Kind::Proj => 20,
            Kind::Point => 70,
            Kind::Except => 76,
            Kind::Agg => 84,
            Kind::Join => 100,
        }
    }

    fn variants(self) -> usize {
        match self {
            Kind::Proj => 4,
            Kind::Point => 16,
            Kind::Except | Kind::Agg | Kind::Join => 2,
        }
    }

    /// Admission class: small reads are interactive, the heavy plans
    /// batch, set difference best-effort.
    fn class(self) -> Class {
        match self {
            Kind::Proj | Kind::Point => Class::Interactive,
            Kind::Agg | Kind::Join => Class::Batch,
            Kind::Except => Class::BestEffort,
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Kind::Proj => "serve.proj_ms_p50",
            Kind::Point => "serve.point_ms_p50",
            Kind::Except => "serve.except_ms_p50",
            Kind::Agg => "serve.agg_ms_p50",
            Kind::Join => "serve.join_ms_p50",
        }
    }

    fn label(self, variant: usize) -> String {
        format!("{self:?}{variant}").to_lowercase()
    }

    /// The SQL text of one variant. `fresh`, on a point query, adds a
    /// conjunct that is always true and was never sent before: the same
    /// answer through a plan the prepared table does not hold.
    fn sql(self, variant: usize, fresh: Option<u64>) -> String {
        let v = variant as i64;
        match self {
            Kind::Proj => {
                format!("SELECT a0, a1 + a2 AS s FROM t1 WHERE a0 < {}", 24 + 8 * v)
            }
            Kind::Point => {
                let key = v * 131 % (ROWS as i64 - 40);
                let base = format!("SELECT a0, a1, a2 FROM t1 WHERE a0 >= {key} AND a0 < {}", key + 40);
                match fresh {
                    Some(n) => format!("{base} AND a2 > -{n}"),
                    None => base,
                }
            }
            Kind::Except => format!(
                "SELECT a0, a1 FROM t1 WHERE a0 < {0} EXCEPT SELECT a0, a1 FROM t2 WHERE a0 < {0}",
                300 + 40 * v
            ),
            // the whole table, so that every seed aggregates the same
            // number of uncertain rows (a narrow key window holds 8 +- 3
            // of them and the width of its sums swings tenfold)
            Kind::Agg => format!(
                "SELECT a0, sum(a{0}) AS s, count(*) AS c FROM t1 WHERE a{0} >= 0 GROUP BY a0",
                1 + v
            ),
            Kind::Join => format!(
                "SELECT t1.a0, t1.a1 + t2.a1 AS v FROM t1 JOIN t2 ON t1.a0 = t2.a0 WHERE t1.a1 >= {}",
                10 * v
            ),
        }
    }
}

/// One text a client sends.
struct Request {
    kind: Kind,
    variant: usize,
    sql: String,
}

/// The texts of one client in one round, from `--seed` alone.
fn requests(seed: u64, round: usize, client: usize) -> Vec<Request> {
    let mut g = XorShift::new(seed ^ ((round as u64) << 20) ^ ((client as u64 + 1) << 44));
    (0..TEXTS_PER_CLIENT)
        .map(|i| {
            let draw = g.below(100);
            let kind =
                Kind::ALL.into_iter().find(|k| draw < k.cumulative_pct()).unwrap_or(Kind::Join);
            let variant = g.below(kind.variants() as u64) as usize;
            let fresh = (kind == Kind::Point && g.below(FRESH_ONE_IN) == 0).then(|| {
                // unique across rounds, clients and positions
                1 + ((round * CLIENTS + client) * TEXTS_PER_CLIENT + i) as u64
            });
            Request { kind, variant, sql: kind.sql(variant, fresh) }
        })
        .collect()
}

struct Serve {
    engine: Engine,
    audb: AuDatabase,
    sgdb: Database,
    cfg: AuConfig,
    /// One parsed plan per class (variant 0), for the one-client probes.
    class_plans: Vec<Query>,
}

fn build(seed: u64) -> Result<Serve, EvalError> {
    let audb = micro_join_exact(ROWS, ROWS as i64, UNCERTAIN_PCT, seed ^ 0x5E12_FE00);
    let sgdb = audb.sg_world();
    let cfg = AuConfig::default().with_workers(1);
    let engine = Engine::new(
        audb.clone(),
        EngineConfig { eval: cfg, worker_threads: 0, ..EngineConfig::default() },
    );
    let class_plans =
        Kind::ALL.iter().map(|k| parse_sql(&k.sql(0, None), &audb)).collect::<Result<_, _>>()?;
    Ok(Serve { engine, audb, sgdb, cfg, class_plans })
}

impl Serve {
    /// A copy of the database with no lanes built: what `publish` is
    /// handed by a writer.
    fn cold_copy(&self) -> AuDatabase {
        let mut db = AuDatabase::new();
        for (name, r) in self.audb.iter() {
            db.insert(
                name.clone(),
                AuRelation::from_normalized_rows(r.schema.clone(), r.rows().to_vec()),
            );
        }
        db
    }
}

/// Gate every variant of every class: theorems against SGQP, and the
/// engine's reply byte-identical to direct evaluation.
fn gate_serve(
    s: &Serve,
    reference: Option<&gate::Reference>,
) -> Result<(GateReport, Vec<Vec<u64>>), EvalError> {
    let mut results = Vec::new();
    let mut mismatches = Vec::new();
    for kind in Kind::ALL {
        for variant in 0..kind.variants() {
            let sql = kind.sql(variant, None);
            let q = parse_sql(&sql, &s.audb)?;
            let au = eval_au(&s.audb, &q, &s.cfg)?;
            let sg = run_sgqp(&s.sgdb, &q)?;
            match s.engine.execute_sql(&sql, kind.class()) {
                Ok(resp) if resp.relation == au => {}
                Ok(_) => mismatches
                    .push(format!("{}: engine reply differs from eval_au", kind.label(variant))),
                Err(e) => mismatches.push(format!("{}: {e}", kind.label(variant))),
            }
            results.push((kind.label(variant), au, sg));
        }
    }
    let inputs = gate::digest_inputs(&s.audb, &s.sgdb);
    let mut report = gate::run(inputs, &results, reference);
    report.failures.extend(mismatches);
    // expected reply rows per (class, variant)
    let mut rows = Vec::new();
    let mut checks = report.checks.iter();
    for kind in Kind::ALL {
        rows.push(checks.by_ref().take(kind.variants()).map(|c| c.rows).collect());
    }
    Ok((report, rows))
}

/// What one client saw of one request.
struct Reply {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
    shed: bool,
    prepared_hit: bool,
    breaker_degraded: bool,
    queued_ns: f64,
}

struct RoundResult {
    /// The clients' unit: the kernel timed by both clients at once,
    /// i.e. under the same two-thread contention as the requests.
    calib_ns: f64,
    wall_ns: f64,
    publish_ns: f64,
    /// Run-queue wait share of each client thread over its requests.
    runq_wait: Vec<f64>,
    replies: Vec<Vec<Reply>>,
}

fn client_loop(
    s: &Serve,
    origin: Instant,
    requests: &[Request],
    expect_rows: &[Vec<u64>],
    mut publish: Option<AuDatabase>,
) -> (Vec<Reply>, f64) {
    let mut replies = Vec::with_capacity(requests.len());
    let mut publish_ns = 0.0;
    for (i, r) in requests.iter().enumerate() {
        if i == PUBLISH_AT {
            if let Some(db) = publish.take() {
                let t = Instant::now();
                black_box(s.engine.publish(db));
                publish_ns = t.elapsed().as_nanos() as f64;
            }
        }
        let start = Instant::now();
        let result = s.engine.execute_sql(&r.sql, r.kind.class());
        let end = Instant::now();
        let want = expect_rows.get(r.kind as usize).and_then(|v| v.get(r.variant));
        let (ok, shed, prepared_hit, breaker_degraded, queued_ns) = match &result {
            Ok(resp) => (
                want.is_none_or(|n| *n == resp.relation.len() as u64),
                false,
                resp.prepared_hit,
                resp.breaker_degraded,
                resp.queued.as_nanos() as f64,
            ),
            Err(e) => (false, matches!(e, ServeError::Overloaded { .. }), false, false, 0.0),
        };
        replies.push(Reply {
            kind: r.kind,
            start_ns: (start - origin).as_nanos() as u64,
            end_ns: (end - origin).as_nanos() as u64,
            ok,
            shed,
            prepared_hit,
            breaker_degraded,
            queued_ns,
        });
    }
    (replies, publish_ns)
}

fn round(
    s: &Serve,
    calib: &Calib,
    origin: Instant,
    seed: u64,
    index: usize,
    expect_rows: &[Vec<u64>],
) -> RoundResult {
    // untimed: this round's texts and the database client 0 will publish
    let texts: Vec<Vec<Request>> = (0..CLIENTS).map(|c| requests(seed, index, c)).collect();
    let mut to_publish = Some(s.cold_copy());

    let barrier = Barrier::new(CLIENTS);
    let per_client: Vec<(Vec<Reply>, f64, f64, Option<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = texts
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let publish = if c == 0 { to_publish.take() } else { None };
                let barrier = &barrier;
                scope.spawn(move || {
                    // a round lasts ~100 units: each client takes the
                    // median of several runs, all clients at once
                    barrier.wait();
                    let unit: Vec<f64> = (0..CALIB_REPS).map(|_| calib.time_ns()).collect();
                    barrier.wait();
                    let sched = sys::schedstat();
                    let (replies, publish_ns) = client_loop(s, origin, reqs, expect_rows, publish);
                    let runq_wait = sys::runq_wait_frac(sched, sys::schedstat());
                    (replies, publish_ns, median(&unit), runq_wait)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let calib_ns = mean(&per_client.iter().map(|c| c.2).collect::<Vec<_>>());
    let first_start = per_client.iter().filter_map(|c| c.0.first()).map(|r| r.start_ns).min();
    let last_end = per_client.iter().filter_map(|c| c.0.last()).map(|r| r.end_ns).max();
    let wall_ns = last_end.unwrap_or(0).saturating_sub(first_start.unwrap_or(0)) as f64;

    let publish_ns = per_client[0].1;
    RoundResult {
        calib_ns,
        wall_ns,
        publish_ns,
        runq_wait: per_client.iter().filter_map(|c| c.3).collect(),
        replies: per_client.into_iter().map(|(r, ..)| r).collect(),
    }
}

/// Latencies and failures accumulated over rounds.
#[derive(Default)]
struct Tally {
    au_rel: Vec<f64>,
    au_ms: Vec<f64>,
    by_kind_ms: [Vec<f64>; 5],
    throughput_rel: Vec<f64>,
    publish_ms: Vec<f64>,
    queued_us: Vec<f64>,
    runq_wait: Vec<f64>,
    attempted: u64,
    failed: u64,
    shed: u64,
    hits: u64,
    degraded: u64,
}

impl Tally {
    fn add(&mut self, r: &RoundResult) {
        let mut done = 0u64;
        for reply in r.replies.iter().flatten() {
            let ns = (reply.end_ns - reply.start_ns) as f64;
            self.au_rel.push(ns / r.calib_ns);
            self.au_ms.push(ns / 1e6);
            self.by_kind_ms[reply.kind as usize].push(ns / 1e6);
            self.queued_us.push(reply.queued_ns / 1e3);
            self.attempted += 1;
            self.failed += u64::from(!reply.ok);
            self.shed += u64::from(reply.shed);
            self.hits += u64::from(reply.prepared_hit);
            self.degraded += u64::from(reply.breaker_degraded);
            done += u64::from(reply.ok);
        }
        self.throughput_rel.push(done as f64 / (r.wall_ns / r.calib_ns));
        self.publish_ms.push(r.publish_ns / 1e6);
        self.runq_wait.extend(&r.runq_wait);
    }
}

/// Build and warm up; returns the engine with the set-up's seconds at
/// the calibration kernel's nominal speed and its raw wall seconds.
fn setup(seed: u64, calib: &Calib) -> Result<(Serve, f64, f64), EvalError> {
    let started = Instant::now();
    let s = build(seed)?;
    let mut units = Vec::new();
    for i in 0..WARMUP_ROUNDS {
        // the same loop as a timed round, a tenth as long: plans get
        // prepared, allocator and branch predictors see the real mix
        let origin = Instant::now();
        let texts = requests(seed ^ 0xAA, i, 0);
        client_loop(&s, origin, &texts[..TEXTS_PER_CLIENT / 10], &[], None);
        units.push(calib.time_ns());
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok((s, at_nominal_speed(wall_s, &units), wall_s))
}

pub fn run_untraced(args: &RunArgs) -> Outcome {
    let calib = Calib::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        match setup(args.seed, &calib) {
            Ok((s, nominal_s, _)) => {
                built = Some(s);
                setup_s.push(nominal_s);
            }
            Err(e) => return Outcome::aborted(format!("{NAME}: set-up failed: {e}")),
        }
    }
    let s = built.expect("SETUP_REPS >= 1");
    let (report, expect_rows) = match gate_serve(&s, reference::lookup(NAME, args.seed)) {
        Ok(r) => r,
        Err(e) => return Outcome::aborted(format!("{NAME}: query failed in the gate: {e}")),
    };

    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut rounds = 0;
    while !args.rounds_done(rounds, MIN_ROUNDS, origin) {
        tally.add(&round(&s, &calib, origin, args.seed, rounds, &expect_rows));
        rounds += 1;
    }
    if !report.passed() {
        tally.failed = tally.attempted; // results are not trustworthy: every op counts
    }

    let mut readings = Readings::new();
    readings.insert("setup_s", median(&setup_s));
    readings.insert("au_rel_p50", median(&tally.au_rel));
    readings.insert("au_rel_p90", pct(&tally.au_rel, 0.9));
    readings.insert("throughput_rel", median(&tally.throughput_rel));
    // absent where it cannot be read, which fails the run: 0 would read
    // as the best memory use there is
    if let Some(mb) = sys::peak_rss_mb() {
        readings.insert("peak_rss_mb", mb);
    }
    readings.insert("uncertain_frac", report.uncertain_frac());
    readings.insert("rel_width", report.rel_width());
    Outcome {
        correct: report.passed() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        readings,
        notes: report.failure_lines(),
        samples: tally.au_rel.len() as u64,
    }
}

pub fn run_traced(args: &RunArgs) -> Outcome {
    let calib = Calib::new();
    let mut rec = Recorder::new();
    let (s, _, setup_wall_s) = match setup(args.seed, &calib) {
        Ok(s) => s,
        Err(e) => return Outcome::aborted(format!("{NAME}: set-up failed: {e}")),
    };
    let (report, expect_rows) = match gate_serve(&s, reference::lookup(NAME, args.seed)) {
        Ok(r) => r,
        Err(e) => return Outcome::aborted(format!("{NAME}: query failed in the gate: {e}")),
    };
    let mut readings = Readings::new();
    let mut samples = Samples::default();
    probe_bytes(&s.audb, &mut readings);
    match alloc::live_bytes_of(|| build(args.seed)) {
        (Ok(_), setup_memory) => probe_setup_memory(setup_memory, &mut readings),
        (Err(e), _) => return Outcome::aborted(format!("{NAME}: set-up failed: {e}")),
    }
    readings.insert("bench.setup_wall_s", setup_wall_s);
    readings.insert("query.certain_frac", 1.0 - report.uncertain_frac());
    readings.insert("query.possible_over_sg_x", report.possible_over_sg());

    // ---- replay: the closed loop, every request an op span --------------------
    let origin = rec.origin();
    let mut tally = Tally::default();
    let mut rounds = 0;
    let started = Instant::now();
    while !args.rounds_done(rounds, 1, started) && rounds < TRACED_ROUNDS {
        let r = round(&s, &calib, origin, args.seed, rounds, &expect_rows);
        let round_op = rec.new_op();
        let lo = r.replies.iter().flatten().map(|x| x.start_ns).min().unwrap_or(0);
        let hi = r.replies.iter().flatten().map(|x| x.end_ns).max().unwrap_or(lo);
        let round_span = rec.record("round", round_op, None, lo, hi);
        for reply in r.replies.iter().flatten() {
            let op = rec.new_op();
            rec.record("execute_sql", op, Some(round_span), reply.start_ns, reply.end_ns);
        }
        tally.add(&r);
        rounds += 1;
    }
    // the clients' threads, not this one, which sleeps while they work
    if !tally.runq_wait.is_empty() {
        readings.insert("bench.runq_wait_frac", mean(&tally.runq_wait));
    }

    // ---- one client, one layer at a time ----------------------------------------
    let texts: Vec<(Kind, String)> =
        Kind::ALL.iter().flat_map(|k| (0..k.variants()).map(|v| (*k, k.sql(v, None)))).collect();
    let mut probe_ops = Ops::default();
    let point = Kind::Point.sql(0, None);
    let join_plan = &s.class_plans[Kind::Join as usize];
    let (left, right) = match &s.class_plans[Kind::Except as usize] {
        Query::Difference { left, right } => (left.as_ref().clone(), right.as_ref().clone()),
        other => (other.clone(), other.clone()),
    };
    let mut lists = Vec::new();
    s.class_plans.iter().for_each(|q| expr_lists(q, &mut lists));
    for _ in 0..crate::PROBE_REPS {
        let op = rec.new_op();
        let probes = rec.open("probes", op, None);
        let p = Some(probes);
        let (_, ns) = rec.span("query.parse_sql", op, p, || {
            for (_, sql) in &texts {
                probe_ops.record(parse_sql(sql, &s.audb).is_ok());
            }
        });
        samples.push("query.parse_us", ns / 1e3 / texts.len() as f64);

        let (r, ns) = rec.span("serve.execute_sql_cold", op, p, || {
            s.engine.execute_sql_cold(&point, Class::Interactive)
        });
        probe_ops.record(r.is_ok());
        samples.push("serve.cold_us_p50", ns / 1e3);
        let (r, ns) = rec.span("serve.execute_sql_warm", op, p, || {
            s.engine.execute_sql(&point, Class::Interactive)
        });
        probe_ops.record(r.is_ok());
        samples.push("serve.warm_us_p50", ns / 1e3);

        // the five class plans through both engines, one thread, against
        // a one-thread unit: the paper's overhead on this workload's plans
        let (_, calib_ns) = rec.span("calib", op, p, || calib.run());
        let (_, au_ns) = rec.span("query.eval_au_classes", op, p, || {
            for q in &s.class_plans {
                probe_ops.record(eval_au(&s.audb, q, &s.cfg).is_ok());
            }
        });
        let (_, sgqp_ns) = rec.span("query.sgqp_classes", op, p, || {
            for q in &s.class_plans {
                probe_ops.record(run_sgqp(&s.sgdb, q).is_ok());
            }
        });
        samples.push("bench.calib_ms_p50", calib_ns / 1e6);
        samples.push("query.sgqp_ms_p50", sgqp_ns / 1e6);
        samples.push("query.sgqp_rel_p50", sgqp_ns / calib_ns);
        samples.push("query.overhead_x", au_ns / sgqp_ns);

        let (r, direct_ns) =
            rec.span("query.eval_au", op, p, || eval_au(&s.audb, join_plan, &s.cfg));
        probe_ops.record(r.is_ok());
        let (r, engine_ns) =
            rec.span("serve.execute", op, p, || s.engine.execute(join_plan, Class::Batch));
        probe_ops.record(r.is_ok());
        samples.push("serve.engine_overhead_x", engine_ns / direct_ns);

        let sides = (eval_au(&s.audb, &left, &s.cfg), eval_au(&s.audb, &right, &s.cfg));
        probe_ops.record(sides.0.is_ok() && sides.1.is_ok());
        if let (Ok(l), Ok(r)) = sides {
            let exec = Executor::sequential();
            let (d, ns) = rec.span("query.difference", op, p, || difference_au_exec(&l, &r, &exec));
            probe_ops.record(d.is_ok());
            samples.push("query.diff_ms", ns / 1e6);
        }
        probe_compile_verify(&lists, &mut samples);
        probe_morsel_overhead(&mut samples);
        probe_lane_build(&s.audb, &mut samples);
        rec.close(probes);
    }

    // ---- readings of the replay ----------------------------------------------------
    for kind in Kind::ALL {
        let ms = &tally.by_kind_ms[kind as usize];
        if !ms.is_empty() {
            readings.insert(kind.metric(), median(ms));
        }
    }
    let n = tally.au_ms.len().max(1) as f64;
    readings.insert("query.au_ms_p50", median(&tally.au_ms));
    readings.insert("query.au_ms_p90", pct(&tally.au_ms, 0.9));
    readings.insert("serve.publish_ms_p50", median(&tally.publish_ms));
    readings.insert("serve.prepared_hit_rate", tally.hits as f64 / n);
    readings.insert("serve.queued_us_p90", pct(&tally.queued_us, 0.9));
    readings.insert("serve.shed_frac", tally.shed as f64 / n);
    readings.insert("serve.breaker_degraded", tally.degraded as f64);
    let stats = s.engine.stats();
    readings.insert("serve.retried", stats.classes.iter().map(|c| c.retried).sum::<u64>() as f64);

    crate::finish_traced(NAME, &rec, samples, &mut readings, rounds);
    let attempted = tally.attempted + probe_ops.attempted;
    let failed = if report.passed() { tally.failed + probe_ops.failed } else { attempted };
    readings.insert("bench.failed_frac", failed as f64 / attempted.max(1) as f64);
    Outcome {
        correct: report.passed() && failed == 0,
        attempted,
        failed,
        readings,
        notes: report.failure_lines(),
        samples: tally.au_ms.len() as u64,
    }
}

/// `--emit-reference`: the reference block of `serve_mix`.
pub fn reference_block(seed: u64) -> Result<String, String> {
    let s = build(seed).map_err(|e| e.to_string())?;
    let (report, _) = gate_serve(&s, None).map_err(|e| e.to_string())?;
    Ok(gate::reference_source(NAME, &report.inputs, &report.checks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_the_stated_shares() {
        let mut counts = [0usize; 5];
        let mut fresh = 0;
        for round in 0..20 {
            for client in 0..CLIENTS {
                for r in requests(7, round, client) {
                    counts[r.kind as usize] += 1;
                    fresh += usize::from(r.sql.contains("a2 > -"));
                    assert!(r.variant < r.kind.variants());
                }
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 20 * CLIENTS * TEXTS_PER_CLIENT);
        let share = |k: Kind| counts[k as usize] as f64 / total as f64;
        assert!((share(Kind::Proj) - 0.20).abs() < 0.02);
        assert!((share(Kind::Point) - 0.50).abs() < 0.02);
        assert!((share(Kind::Except) - 0.06).abs() < 0.01);
        assert!((share(Kind::Agg) - 0.08).abs() < 0.01);
        assert!((share(Kind::Join) - 0.16).abs() < 0.02);
        // a tenth of the point queries miss the prepared table
        let point = counts[Kind::Point as usize] as f64;
        assert!((fresh as f64 / point - 0.1).abs() < 0.02);
    }

    #[test]
    fn same_seed_same_texts_and_fresh_literals_never_repeat() {
        let a: Vec<String> = requests(3, 1, 0).into_iter().map(|r| r.sql).collect();
        let b: Vec<String> = requests(3, 1, 0).into_iter().map(|r| r.sql).collect();
        assert_eq!(a, b);
        assert_ne!(a, requests(4, 1, 0).into_iter().map(|r| r.sql).collect::<Vec<_>>());
        let mut fresh: Vec<String> = (0..4)
            .flat_map(|round| (0..CLIENTS).flat_map(move |c| requests(3, round, c)))
            .filter(|r| r.sql.contains("a2 > -"))
            .map(|r| r.sql)
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
    }

    #[test]
    fn every_text_parses_and_the_gate_passes() {
        let s = build(5).unwrap();
        let (report, rows) = gate_serve(&s, None).unwrap();
        assert!(report.passed(), "{:?}", report.failure_lines());
        assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), 26);
        // the fresh conjunct does not change the answer
        let q = Kind::Point.sql(3, Some(99));
        let resp = s.engine.execute_sql(&q, Class::Interactive).unwrap();
        assert_eq!(resp.relation.len() as u64, rows[Kind::Point as usize][3]);
        assert!(!resp.prepared_hit);
        assert!(rows.iter().flatten().all(|n| *n > 0), "no variant has an empty answer: {rows:?}");
    }
}
