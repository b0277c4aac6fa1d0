//! The benchmark's inventory: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` is printed from these
//! tables (`--emit-benchmark-json`) and a unit test pins the file to
//! them, so the contract and the emitter cannot drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seed used when `--seed` is absent; the input digests and reference
/// fingerprints in `reference.rs` are recorded at this seed.
pub const DEFAULT_SEED: u64 = 20_260_928;
/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public call the probe times (or the source of the count).
    pub call: &'static str,
    /// Workloads whose inputs the probe runs on (`all`, or names
    /// separated by spaces); it reads 0 elsewhere.
    pub on: &'static str,
    /// End-to-end metric @ workload this layer metric should move.
    pub moves: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan_chain",
        why: "50k-row probe-free select/project chains: core lane kernels and storage column lanes do the work; join, aggregate and serve do none",
    },
    Workload {
        name: "join_spine",
        why: "10k x 10k select-join-select-project spine: query probe streaming, storage interval index and breaker normalization dominate; lane kernels idle",
    },
    Workload {
        name: "group_agg",
        why: "x-DB origin 10k rows, ~1000 groups, sum/count/min/max: query aggregation dominates and exact ground truth checks bound soundness",
    },
    Workload {
        name: "tpch_ct64",
        why: "uncertain TPC-H Q1/Q3/Q5/Q7/Q10 under compressed(64): multi-way joins, aggregation and split/compress compaction no micro workload touches",
    },
    Workload {
        name: "serve_mix",
        why: "closed loop, 2 clients, 5 SQL classes with prepared-plan misses and mid-round publish: parse/plan/compile/verify, admission and plan cache",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "median of 5 set-ups (generate inputs, x-DB to AU, normalize, warm lanes, build Engine, 5 warm-up rounds), in seconds at the calibration kernel's nominal 4.5 ms",
    },
    EndToEnd {
        name: "au_rel_p50",
        unit: "calib",
        better: Lower,
        bound: 0.25,
        what: "median over rounds of one AU op / calibration kernel of the same round (batch: one pass over the query list; serve_mix: one execute_sql)",
    },
    EndToEnd {
        name: "au_rel_p90",
        unit: "calib",
        better: Lower,
        bound: 0.25,
        what: "90th percentile of the same ratios (every run has >= 100 samples, so >= 10 lie beyond)",
    },
    EndToEnd {
        name: "throughput_rel",
        unit: "ops/calib",
        better: Higher,
        bound: 0.25,
        what: "queries completed in a round / (AU wall of the round / calibration), all clients; measured on serve_mix, on the one-caller batch workloads derived: queries per pass / au_rel_p50",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at exit: the loaded database plus the most any query held on top (set-ups generate nothing they do not keep)",
    },
    EndToEnd {
        name: "uncertain_frac",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        what: "share of AU result rows that are not certain (some attribute or the annotation has lb < ub, or lb = 0): 1 - certain-answer share",
    },
    EndToEnd {
        name: "rel_width",
        unit: "ln",
        better: Lower,
        bound: 0.25,
        what: "per result column ln(1 + sum(ub - lb) / sum(|sg| + 1)), cell-weighted mean over all result columns: what a trade-accuracy-for-speed change pays",
    },
];

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    call: &'static str,
    on: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, call, on, moves }
}

const BATCH: &str = "scan_chain join_spine group_agg tpch_ct64";
const ALL: &str = "all";

pub const PER_LAYER: [PerLayer; 72] = [
    // ---- core ------------------------------------------------------------
    pl(
        "core.lanes_ns_row",
        "ns/row",
        Lower,
        "Program::eval_range_lanes over the table's ColumnSet",
        "scan_chain",
        "au_rel_p50 @ scan_chain",
    ),
    pl(
        "core.row_ns_row",
        "ns/row",
        Lower,
        "Program::eval_range per RangeTuple",
        "join_spine",
        "au_rel_p50 @ join_spine",
    ),
    pl(
        "core.interp_ns_row",
        "ns/row",
        Lower,
        "Expr::eval_range (the oracle)",
        "scan_chain join_spine",
        "nothing (control)",
    ),
    pl(
        "core.compile_us",
        "us",
        Lower,
        "Program::compile_range_many over the workload's expressions",
        ALL,
        "au_rel_p90 @ serve_mix (plan misses)",
    ),
    pl(
        "core.verify_us",
        "us",
        Lower,
        "Program::verify_full over the same programs",
        ALL,
        "au_rel_p90 @ serve_mix (plan misses)",
    ),
    // ---- exec ------------------------------------------------------------
    pl(
        "exec.morsel_overhead_us",
        "us",
        Lower,
        "Executor::run over empty morsels",
        ALL,
        "au_rel_p50 @ serve_mix",
    ),
    pl(
        "exec.w2_speedup_x",
        "x",
        Higher,
        "join_spine op at 1 vs 2 workers, interleaved",
        "join_spine",
        "nothing at 1 worker (scaling record)",
    ),
    // ---- storage ---------------------------------------------------------
    pl(
        "storage.normalize_ms",
        "ms",
        Lower,
        "AuRelation::normalize_with on the spine's raw output",
        "join_spine",
        "au_rel_p50 @ join_spine, tpch_ct64",
    ),
    pl(
        "storage.lane_build_ms",
        "ms",
        Lower,
        "ColumnSet::from_rows on the largest base table",
        ALL,
        "setup_s everywhere; au_rel_p90 + serve.publish_ms_p50 @ serve_mix",
    ),
    pl(
        "storage.index_build_ms",
        "ms",
        Lower,
        "IntervalIndex::from_lane on the join key",
        "join_spine",
        "au_rel_p50 @ join_spine",
    ),
    pl(
        "storage.bytes_per_row",
        "B/row",
        Lower,
        "AuRelation::estimated_bytes / len",
        ALL,
        "peak_rss_mb everywhere",
    ),
    pl(
        "storage.resident_bytes_per_row",
        "B/row",
        Lower,
        "live bytes of a cold copy after load + warm_columns (counting allocator)",
        ALL,
        "peak_rss_mb everywhere",
    ),
    // ---- incomplete ------------------------------------------------------
    pl(
        "incomplete.to_au_ms",
        "ms",
        Lower,
        "XDb::to_au",
        "group_agg tpch_ct64",
        "setup_s @ group_agg, tpch_ct64",
    ),
    // ---- query -----------------------------------------------------------
    pl(
        "query.parse_us",
        "us",
        Lower,
        "parse_sql per serve_mix text",
        "serve_mix",
        "au_rel_p90 @ serve_mix",
    ),
    pl(
        "query.select_ms",
        "ms",
        Lower,
        "select_au_exec staged on join_spine inputs",
        "join_spine",
        "au_rel_p50 @ join_spine, tpch_ct64",
    ),
    pl(
        "query.project_ms",
        "ms",
        Lower,
        "project_au_exec staged on join_spine inputs",
        "join_spine",
        "au_rel_p50 @ join_spine, tpch_ct64",
    ),
    pl(
        "query.join_ms",
        "ms",
        Lower,
        "join_au_planned_exec staged on join_spine inputs",
        "join_spine",
        "au_rel_p50 @ join_spine, tpch_ct64",
    ),
    pl(
        "query.agg_ms",
        "ms",
        Lower,
        "aggregate_au_exec",
        "group_agg",
        "au_rel_p50 @ group_agg, tpch_ct64",
    ),
    pl(
        "query.diff_ms",
        "ms",
        Lower,
        "difference_au_exec",
        "serve_mix",
        "serve.except_ms_p50 @ serve_mix",
    ),
    pl(
        "query.compress_ms",
        "ms",
        Lower,
        "opt::optimized_join_exec (CT = 64) on Q7's widest join",
        "tpch_ct64",
        "au_rel_p50 @ tpch_ct64",
    ),
    pl("query.au_ms_p50", "ms", Lower, "raw wall of one AU op", ALL, "derived (au_rel_p50 in ms)"),
    pl("query.au_ms_p90", "ms", Lower, "raw wall of one AU op", ALL, "derived (au_rel_p90 in ms)"),
    pl(
        "query.sgqp_ms_p50",
        "ms",
        Lower,
        "raw wall of one SGQP op",
        ALL,
        "derived (query.sgqp_rel_p50 in ms)",
    ),
    pl(
        "query.sgqp_rel_p50",
        "calib",
        Lower,
        "one SGQP op / calibration of the same round (demoted from end-to-end, see README)",
        ALL,
        "the deterministic engine seen as itself",
    ),
    pl(
        "query.overhead_x",
        "x",
        Lower,
        "AU / SGQP of the same round (the paper's y-axis)",
        ALL,
        "derived",
    ),
    pl("query.q1_ms", "ms", Lower, "eval_au on TPC-H Q1", "tpch_ct64", "au_rel_p50 @ tpch_ct64"),
    pl("query.q3_ms", "ms", Lower, "eval_au on TPC-H Q3", "tpch_ct64", "au_rel_p50 @ tpch_ct64"),
    pl("query.q5_ms", "ms", Lower, "eval_au on TPC-H Q5", "tpch_ct64", "au_rel_p50 @ tpch_ct64"),
    pl("query.q7_ms", "ms", Lower, "eval_au on TPC-H Q7", "tpch_ct64", "au_rel_p50 @ tpch_ct64"),
    pl("query.q10_ms", "ms", Lower, "eval_au on TPC-H Q10", "tpch_ct64", "au_rel_p50 @ tpch_ct64"),
    pl("query.q1_overhead_x", "x", Lower, "Q1 AU / SGQP of the same round", "tpch_ct64", "derived"),
    pl("query.q3_overhead_x", "x", Lower, "Q3 AU / SGQP of the same round", "tpch_ct64", "derived"),
    pl("query.q5_overhead_x", "x", Lower, "Q5 AU / SGQP of the same round", "tpch_ct64", "derived"),
    pl("query.q7_overhead_x", "x", Lower, "Q7 AU / SGQP of the same round", "tpch_ct64", "derived"),
    pl(
        "query.q10_overhead_x",
        "x",
        Lower,
        "Q10 AU / SGQP of the same round",
        "tpch_ct64",
        "derived",
    ),
    pl(
        "query.agg_range_factor",
        "x",
        Lower,
        "range_overestimation_factor vs exact_group_agg (sum)",
        "group_agg",
        "rel_width @ group_agg",
    ),
    pl(
        "query.over_grouping_pct",
        "%",
        Lower,
        "over_grouping_pct of the input on the group column",
        "group_agg",
        "uncertain_frac @ group_agg",
    ),
    pl(
        "query.possible_over_sg_x",
        "x",
        Lower,
        "AuRelation::possible_size / selected-guess rows, over the results",
        ALL,
        "rel_width, uncertain_frac",
    ),
    pl(
        "query.certain_frac",
        "ratio",
        Higher,
        "share of result rows that are certain (1 - uncertain_frac)",
        ALL,
        "uncertain_frac",
    ),
    // ---- engine trace rollups (eval_au_traced, read not added to) --------
    pl(
        "trace.chain_ms",
        "ms",
        Lower,
        "self time of fused-chain/scan/select/project/join spans",
        BATCH,
        "attribution of au_rel_p50",
    ),
    pl(
        "trace.aggregate_ms",
        "ms",
        Lower,
        "self time of aggregate spans",
        BATCH,
        "attribution of au_rel_p50",
    ),
    pl(
        "trace.reduce_ms",
        "ms",
        Lower,
        "reduce_scatter + reduce_merge_sort + reduce_kway sites (normalization)",
        BATCH,
        "attribution of au_rel_p50",
    ),
    pl(
        "trace.verify_us",
        "us",
        Lower,
        "verify spans (Tier A+B)",
        BATCH,
        "attribution of au_rel_p50",
    ),
    pl(
        "trace.normalize_rows_in",
        "count",
        Lower,
        "counter normalize_rows_in per op",
        BATCH,
        "storage.normalize_ms",
    ),
    pl(
        "trace.morsels",
        "count",
        Lower,
        "counter morsels_dispatched per op",
        BATCH,
        "exec.morsel_overhead_us",
    ),
    pl(
        "trace.unattributed_frac",
        "ratio",
        Lower,
        "1 - attributed operator self time / traced wall",
        BATCH,
        "the gap ROADMAP item 6 must close",
    ),
    // ---- serve -----------------------------------------------------------
    pl(
        "serve.warm_us_p50",
        "us",
        Lower,
        "Engine::execute_sql, 1 client, prepared",
        "serve_mix",
        "au_rel_p50 @ serve_mix",
    ),
    pl(
        "serve.cold_us_p50",
        "us",
        Lower,
        "Engine::execute_sql_cold, 1 client",
        "serve_mix",
        "au_rel_p90 @ serve_mix",
    ),
    pl(
        "serve.engine_overhead_x",
        "x",
        Lower,
        "Engine::execute / eval_au, 1 client",
        "serve_mix",
        "au_rel_p50 @ serve_mix",
    ),
    pl(
        "serve.prepared_hit_rate",
        "ratio",
        Higher,
        "Response::prepared_hit",
        "serve_mix",
        "au_rel_p90 @ serve_mix",
    ),
    pl(
        "serve.queued_us_p90",
        "us",
        Lower,
        "Response::queued",
        "serve_mix",
        "au_rel_p90, throughput_rel @ serve_mix",
    ),
    pl(
        "serve.shed_frac",
        "ratio",
        Lower,
        "ServeError::Overloaded / submitted",
        "serve_mix",
        "failed @ serve_mix",
    ),
    pl(
        "serve.retried",
        "count",
        Lower,
        "Engine::stats() retried",
        "serve_mix",
        "au_rel_p90 @ serve_mix",
    ),
    pl(
        "serve.breaker_degraded",
        "count",
        Lower,
        "Response::breaker_degraded",
        "serve_mix",
        "au_rel_p90 @ serve_mix",
    ),
    pl(
        "serve.publish_ms_p50",
        "ms",
        Lower,
        "Engine::publish",
        "serve_mix",
        "au_rel_p90 @ serve_mix",
    ),
    pl(
        "serve.proj_ms_p50",
        "ms",
        Lower,
        "execute_sql, class proj",
        "serve_mix",
        "which class a serve_mix move came from",
    ),
    pl(
        "serve.point_ms_p50",
        "ms",
        Lower,
        "execute_sql, class point",
        "serve_mix",
        "which class a serve_mix move came from",
    ),
    pl(
        "serve.except_ms_p50",
        "ms",
        Lower,
        "execute_sql, class except",
        "serve_mix",
        "which class a serve_mix move came from",
    ),
    pl(
        "serve.agg_ms_p50",
        "ms",
        Lower,
        "execute_sql, class agg",
        "serve_mix",
        "which class a serve_mix move came from",
    ),
    pl(
        "serve.join_ms_p50",
        "ms",
        Lower,
        "execute_sql, class join",
        "serve_mix",
        "which class a serve_mix move came from",
    ),
    // ---- baselines -------------------------------------------------------
    pl(
        "baselines.mcdb10_rel_p50",
        "calib",
        Lower,
        "run_mcdb (10 samples) on the tpch_ct64 pass",
        "tpch_ct64",
        "nothing an engine PR does (control)",
    ),
    pl(
        "baselines.au_over_mcdb10_x",
        "x",
        Lower,
        "AU pass / MCDB-10 pass of the same round (Fig. 12)",
        "tpch_ct64",
        "nothing an engine PR does (control)",
    ),
    // ---- the benchmark itself --------------------------------------------
    pl(
        "bench.calib_ms_p50",
        "ms",
        Lower,
        "calibration kernel",
        ALL,
        "tells a slow box from a slow program",
    ),
    pl(
        "bench.calib_iqr_frac",
        "ratio",
        Lower,
        "calibration kernel IQR / median",
        ALL,
        "tells a noisy box from a slow program",
    ),
    pl(
        "bench.runq_wait_frac",
        "ratio",
        Lower,
        "/proc/thread-self/schedstat run-queue share of the measuring thread (serve_mix: mean over its clients)",
        ALL,
        "tells a shared box from a slow program",
    ),
    pl(
        "bench.trace_overhead_x",
        "x",
        Lower,
        "eval_au_traced / eval_au of the same round",
        BATCH,
        "cost of the engine's own tracing",
    ),
    pl(
        "bench.staged_self_frac",
        "ratio",
        Lower,
        "self time of the staged op span / its duration",
        BATCH,
        "what staging cannot attribute",
    ),
    pl(
        "bench.setup_wall_s",
        "s",
        Lower,
        "raw wall of the traced run's one set-up (setup_s is this at the kernel's nominal speed)",
        ALL,
        "setup_s",
    ),
    pl(
        "bench.loaded_mb",
        "MB",
        Lower,
        "live bytes when the set-up returns: tables, lanes, SG world (and x-DB or Engine), counting allocator",
        ALL,
        "peak_rss_mb everywhere (the rest of it is what queries hold on top)",
    ),
    pl(
        "bench.setup_peak_x",
        "x",
        Lower,
        "most live bytes at any moment of the set-up / live bytes when it returns",
        ALL,
        "nothing; near 1 means the loaded database, not discarded input, sets peak_rss_mb",
    ),
    pl(
        "bench.rounds",
        "count",
        Higher,
        "replay rounds in this traced run",
        ALL,
        "sample count behind the per-layer medians",
    ),
    pl(
        "bench.failed_frac",
        "ratio",
        Lower,
        "ops failed / ops attempted",
        ALL,
        "always 0 on a correct engine",
    ),
];

/// Metric readings of one run, by name.
pub type Readings = BTreeMap<&'static str, f64>;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Check the inventory against the benchmark contract's limits.
pub fn validate() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for n in names {
        if !valid_name(n) {
            return Err(format!("bad name {n:?}"));
        }
        if !seen.insert(n) {
            return Err(format!("duplicate name {n:?}"));
        }
    }
    for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
        if !valid_unit(u) {
            return Err(format!("bad unit {u:?}"));
        }
    }
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err("2 to 8 workloads".into());
    }
    if !(1..=16).contains(&END_TO_END.len()) || !(1..=128).contains(&PER_LAYER.len()) {
        return Err("1 to 16 end-to-end and 1 to 128 per-layer metrics".into());
    }
    if let Some(w) = WORKLOADS.iter().find(|w| w.why.len() > 200 || w.why.contains('\n')) {
        return Err(format!("why of {} is not one line of <= 200 characters", w.name));
    }
    if let Some(m) = END_TO_END.iter().find(|m| !(m.bound > 0.0 && m.bound <= 0.25)) {
        return Err(format!("bound of {} outside (0, 0.25]", m.name));
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Lower) {
        return Err("setup_s (s, lower) must be an end-to-end metric".into());
    }
    Ok(())
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"bench_report/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"bench_report\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// `--list`: everything the benchmark measures, without running it.
pub fn list() -> String {
    let mut s = String::from("WORKLOADS\n");
    for w in &WORKLOADS {
        let _ = writeln!(s, "  {:<12} {}", w.name, w.why);
    }
    s.push_str("\nEND-TO-END METRICS (gated; every workload reports every one)\n");
    for m in &END_TO_END {
        let _ = writeln!(
            s,
            "  {:<16} {:<10} {:<7} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.what
        );
    }
    s.push_str(
        "\nPER-LAYER METRICS (ungated; --trace 1; 0 on a workload the probe does not run on)\n",
    );
    for m in &PER_LAYER {
        let layer = m.name.split('.').next().unwrap_or(m.name);
        let _ = writeln!(
            s,
            "  {:<32} {:<7} {:<7} layer {:<10} on [{}]\n      call:  {}\n      moves: {}",
            m.name,
            m.unit,
            m.better.name(),
            layer,
            m.on,
            m.call,
            m.moves
        );
    }
    s
}

/// Names and units of the metrics a run of this kind reports, in
/// inventory order.
pub fn reported(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The metrics a run of `workload` had to measure and has no finite
/// reading of: every end-to-end metric, and each per-layer metric whose
/// probe runs on this workload.
pub fn unmeasured(workload: &str, traced: bool, readings: &Readings) -> Vec<&'static str> {
    let due: Vec<&'static str> = if traced {
        PER_LAYER
            .iter()
            .filter(|m| m.on == ALL || m.on.split(' ').any(|w| w == workload))
            .map(|m| m.name)
            .collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    due.into_iter().filter(|name| !readings.get(name).is_some_and(|v| v.is_finite())).collect()
}

/// The result line the driver reads: one JSON object, the last line of
/// standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    traced: bool,
    readings: &Readings,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in reported(traced).iter().enumerate() {
        // a per-layer probe that does not run on this workload reads 0;
        // what had to be measured is there (`unmeasured`, checked by the caller)
        let v = readings.get(name).copied().unwrap_or(0.0);
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v));
    }
    s.push_str("}}");
    s
}

/// A JSON number with all the digits measured. Readings are checked to
/// be finite before any is printed (`unmeasured`).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "a reading that is not a number was about to be printed");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_meets_the_contract() {
        validate().unwrap();
        assert_eq!(WORKLOADS.len(), 5);
        assert!(
            valid_name("a.b-c_1") && !valid_name("") && !valid_name(".a") && !valid_name("a b")
        );
        assert!(valid_unit("ops/calib") && valid_unit("%") && !valid_unit("per second"));
        assert!(!valid_name(&"x".repeat(65)) && !valid_unit(&"x".repeat(17)));
    }

    #[test]
    fn per_layer_probes_name_real_workloads_and_layers() {
        for m in &PER_LAYER {
            for w in m.on.split(' ') {
                assert!(w == "all" || workload(w).is_some(), "{}: unknown workload {w}", m.name);
            }
            let layer = m.name.split('.').next().unwrap();
            assert!(
                [
                    "core",
                    "exec",
                    "storage",
                    "incomplete",
                    "query",
                    "trace",
                    "serve",
                    "baselines",
                    "bench"
                ]
                .contains(&layer),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_inventory() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --emit-benchmark-json");
        assert!(on_disk.len() < 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Readings::new();
        for m in &END_TO_END {
            r.insert(m.name, 1.25);
        }
        let line = result_line(true, 10, 0, false, &r);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for m in &END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
        assert!(!line.contains('\n') && !line.contains("core."));
        let traced = result_line(false, 1, 1, true, &Readings::new());
        assert_eq!(traced.matches("\"value\": 0,").count(), PER_LAYER.len());
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn a_missing_or_broken_reading_is_not_a_zero() {
        let mut r = Readings::new();
        for m in &END_TO_END {
            r.insert(m.name, 1.0);
        }
        assert!(unmeasured("scan_chain", false, &r).is_empty());
        r.insert("au_rel_p50", f64::NAN);
        r.remove("peak_rss_mb");
        assert_eq!(unmeasured("scan_chain", false, &r), ["au_rel_p50", "peak_rss_mb"]);
        // per layer, only the probes that run on the workload are due
        let due = unmeasured("group_agg", true, &Readings::new());
        assert!(due.contains(&"query.agg_ms") && due.contains(&"bench.calib_ms_p50"));
        assert!(!due.contains(&"query.join_ms") && !due.contains(&"serve.publish_ms_p50"));
        let all = |w| unmeasured(w, true, &Readings::new()).len();
        assert!(all("serve_mix") < PER_LAYER.len() && all("join_spine") < PER_LAYER.len());
    }
}
