//! `bench_report` — the repository's benchmark.
//!
//! One binary, five workloads, two kinds of run:
//!
//! * `--workload <name> --trace 0` measures the end-to-end metrics of
//!   one workload and prints them, the last line of standard output
//!   being the JSON result object the driver reads;
//! * `--workload <name> --trace 1` replays the workload with
//!   benchmark-side spans around every layer call and prints the
//!   per-layer metrics the same way.
//!
//! `--workload` always measures in this process. Without it the binary
//! re-executes itself once per workload (so heap state and `VmHWM` are
//! per workload), prints every metric by name with its unit, and writes
//! the numbers to `<target>/bench_report/report[_traced].json`. See
//! `README.md`.

mod alloc;
mod batch;
mod calib;
mod catalog;
mod gate;
mod reference;
mod serve;
mod spans;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use catalog::{Better, Readings, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Untimed rounds at the end of every set-up, charged to `setup_s`.
pub const WARMUP_ROUNDS: usize = 5;
/// Repetitions of the one-client serve probes in a traced run.
pub const PROBE_REPS: usize = 30;

/// What one run was asked to do.
#[derive(Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
}

impl RunArgs {
    /// Has the round loop measured long enough? It runs for `--seconds`
    /// and never fewer than `min_rounds` rounds.
    pub fn rounds_done(&self, done: usize, min_rounds: usize, started: Instant) -> bool {
        done >= min_rounds && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Operations of one run that can fail, and those that did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Per-round samples of the per-layer metrics, by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Readings,
    /// Why the run is not correct, one line each.
    pub notes: Vec<String>,
    /// Timed samples behind the percentiles.
    pub samples: u64,
}

impl Outcome {
    /// A run that could not measure anything.
    pub fn aborted(why: String) -> Outcome {
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            readings: Readings::new(),
            notes: vec![why],
            samples: 0,
        }
    }
}

/// Where the benchmark writes: `<target dir>/bench_report`, inside the
/// checkout it was started from.
fn out_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("bench_report")
}

fn write_out(file: &str, text: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), text));
    match written {
        Ok(()) => eprintln!("wrote {}", dir.join(file).display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", dir.join(file).display()),
    }
}

/// Close a traced run: per-layer readings are the medians of their
/// per-round samples; the spans go to `trace_<workload>.json`.
pub fn finish_traced(
    workload: &str,
    rec: &spans::Recorder,
    samples: Samples,
    readings: &mut Readings,
    rounds: usize,
) {
    if let Some(au_ms) = samples.0.get("query.au_ms_p50") {
        readings.insert("query.au_ms_p90", stats::pct(au_ms, 0.9));
    }
    if let Some(calib_ms) = samples.0.get("bench.calib_ms_p50") {
        readings.insert("bench.calib_iqr_frac", stats::iqr_frac(calib_ms));
    }
    for (name, values) in &samples.0 {
        readings.insert(name, stats::median(values));
    }
    let rollup = rec.rollup();
    if let Some((_, _, total, own)) = rollup.iter().find(|(n, ..)| *n == "staged_op") {
        readings.insert("bench.staged_self_frac", *own as f64 / (*total).max(1) as f64);
    }
    readings.insert("bench.rounds", rounds as f64);
    write_out(&format!("trace_{workload}.json"), &rec.to_json(workload));

    eprintln!("span rollup of {workload} (all rounds):");
    eprintln!("  {:<28} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, count, total, own) in rollup {
        eprintln!(
            "  {name:<28} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn run_workload(name: &str, traced: bool, args: &RunArgs) -> Outcome {
    let kind = match name {
        "scan_chain" => batch::Kind::ScanChain,
        "join_spine" => batch::Kind::JoinSpine,
        "group_agg" => batch::Kind::GroupAgg,
        "tpch_ct64" => batch::Kind::TpchCt64,
        _ => return if traced { serve::run_traced(args) } else { serve::run_untraced(args) },
    };
    if traced {
        batch::run_traced(kind, args)
    } else {
        batch::run_untraced(kind, args)
    }
}

/// Run one workload in this process and print its result.
fn single(name: &str, traced: bool, args: &RunArgs) -> ExitCode {
    let outcome = run_workload(name, traced, args);
    for note in &outcome.notes {
        eprintln!("FAILED {name}: {note}");
    }
    // a reading that is missing must not print as 0, the best value a
    // lower-is-better metric can take: no result at all
    let unmeasured = catalog::unmeasured(name, traced, &outcome.readings);
    if !unmeasured.is_empty() {
        eprintln!("FAILED {name}: not measured: {}", unmeasured.join(", "));
        return ExitCode::FAILURE;
    }
    println!("workload {name} seed {} traced {traced} samples {}", args.seed, outcome.samples);
    for (metric, unit) in catalog::reported(traced) {
        let v = outcome.readings.get(metric).copied().unwrap_or(0.0);
        println!("  {metric:<34} {:>16} {unit}", catalog::json_num(v));
    }
    println!(
        "{}",
        catalog::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            traced,
            &outcome.readings
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- the all-workloads report --------------------------------------------------

/// One child run, as parsed back from its standard output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    samples: u64,
    values: BTreeMap<String, f64>,
}

fn parse_child(stdout: &str) -> Option<ChildRun> {
    let mut values = BTreeMap::new();
    let mut samples = 0;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.first() == Some(&"workload") {
            samples = f.last()?.parse().ok()?;
        } else if line.starts_with("  ") && f.len() == 3 {
            values.insert(f[0].to_string(), f[1].parse().ok()?);
        }
    }
    let last = stdout.lines().last()?;
    let field = |key: &str| -> Option<&str> {
        let rest = &last[last.find(key)? + key.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    Some(ChildRun {
        correct: field("\"correct\":")? == "true",
        attempted: field("\"attempted\":")?.parse().ok()?,
        failed: field("\"failed\":")?.parse().ok()?,
        samples,
        values,
    })
}

fn spawn_child(workload: &str, traced: bool, args: &RunArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child: no process outlives this call
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let run = parse_child(&stdout).ok_or_else(|| format!("{workload}: unreadable result"))?;
    if !out.status.success() && run.correct {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    Ok(run)
}

/// Short revision of the checkout, `+dirty` when the working tree has
/// changes; `unknown` outside a git repository. Report mode only: the
/// one-workload runs a driver makes start no process.
fn git_revision() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) {
        Some(rev) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{rev}+dirty")
        }
        Some(rev) => rev,
        None => "unknown".to_string(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn report_json(traced: bool, args: &RunArgs, runs: &[(&str, ChildRun)]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"benchmark\": \"bench_report\",");
    let _ = writeln!(s, "  \"traced\": {traced},");
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(s, "  \"nproc\": {},", nproc());
    let _ = writeln!(s, "  \"revision\": \"{}\",", git_revision());
    s.push_str("  \"workloads\": {\n");
    for (i, (name, run)) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{name}\": {{\n      \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"samples\": {},\n      \"metrics\": {{",
            run.correct, run.attempted, run.failed, run.samples
        );
        let metrics = catalog::reported(traced);
        for (j, (metric, unit)) in metrics.iter().enumerate() {
            let v = run.values.get(*metric).copied().unwrap_or(0.0);
            let sep = if j + 1 < metrics.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        \"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}{sep}",
                catalog::json_num(v)
            );
        }
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(s, "      }}\n    }}{sep}");
    }
    s.push_str("  }\n}\n");
    s
}

fn print_table(traced: bool, runs: &[(&str, ChildRun)]) {
    print!("{:<34} {:<10}", "metric", "unit");
    for (name, _) in runs {
        print!(" {name:>12}");
    }
    println!();
    for (metric, unit) in catalog::reported(traced) {
        print!("{metric:<34} {unit:<10}");
        for (_, run) in runs {
            print!(" {:>12.5}", run.values.get(metric).copied().unwrap_or(0.0));
        }
        println!();
    }
    for (label, get) in [
        ("attempted", (|r: &ChildRun| r.attempted) as fn(&ChildRun) -> u64),
        ("failed", |r| r.failed),
        ("samples", |r| r.samples),
    ] {
        print!("{label:<34} {:<10}", "count");
        for (_, run) in runs {
            print!(" {:>12}", get(run));
        }
        println!();
    }
}

/// Every workload, each in its own process.
fn report(traced: bool, args: &RunArgs) -> ExitCode {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        eprintln!("== {} ({}) ==", w.name, if traced { "traced" } else { "untraced" });
        match spawn_child(w.name, traced, args) {
            Ok(run) => runs.push((w.name, run)),
            Err(e) => {
                eprintln!("FAILED {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print_table(traced, &runs);
    let file = if traced { "report_traced.json" } else { "report.json" };
    write_out(file, &report_json(traced, args, &runs));
    if runs.iter().all(|(_, r)| r.correct && r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run the untraced set twice, A and B back to back per workload, and
/// hold every end-to-end metric's disagreement against its own bound.
fn selfcheck(only: Option<&str>, args: &RunArgs) -> ExitCode {
    let mut worst_ok = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == w.name)) {
        let pair = spawn_child(w.name, false, args)
            .and_then(|a| Ok((a, spawn_child(w.name, false, args)?)));
        let (a, b) = match pair {
            Ok(p) => p,
            Err(e) => {
                eprintln!("FAILED {e}");
                return ExitCode::FAILURE;
            }
        };
        worst_ok &= a.correct && b.correct;
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.values.get(m.name), b.values.get(m.name)) else {
                eprintln!("FAILED {}: {} missing", w.name, m.name);
                return ExitCode::FAILURE;
            };
            // whichever run is taken as the parent, the other must not
            // look like a regression
            let lower = m.better == Better::Lower;
            let diff = stats::worse_by(*x, *y, lower).max(stats::worse_by(*y, *x, lower));
            let ok = diff <= m.bound;
            worst_ok &= ok;
            println!(
                "{:<12} {:<16} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    if worst_ok {
        println!("selfcheck passed: two runs of the same code agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED");
        ExitCode::FAILURE
    }
}

fn emit_reference(seed: u64) -> ExitCode {
    let mut src = String::new();
    for w in &WORKLOADS {
        let block = match w.name {
            "scan_chain" => batch::reference_block(batch::Kind::ScanChain, seed),
            "join_spine" => batch::reference_block(batch::Kind::JoinSpine, seed),
            "group_agg" => batch::reference_block(batch::Kind::GroupAgg, seed),
            "tpch_ct64" => batch::reference_block(batch::Kind::TpchCt64, seed),
            _ => serve::reference_block(seed),
        };
        match block {
            Ok(b) => src.push_str(&b),
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("pub static REFERENCES: &[Reference] = &[\n{src}];");
    ExitCode::SUCCESS
}

// ---- command line ------------------------------------------------------------------

const USAGE: &str = "\
usage: bench_report [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]
       bench_report --selfcheck [--workload <name>] [--seed <n>] [--seconds <n>]
       bench_report --list | --emit-benchmark-json | --emit-reference [--seed <n>]

  --workload <name>   measure this workload, in this process; omitted: every
                      workload in a process of its own, and a report file
  --seed <n>          every generator seed derives from it (default 20260928)
  --seconds <n>       how long the round loop measures (default 20)
  --trace <0|1>       0: end-to-end metrics (default); 1: the traced run, per-layer
                      metrics and spans to trace_<workload>.json
  --selfcheck         run the untraced set twice and compare against the bounds
  --list              print every workload and metric, run nothing
";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    traced: bool,
    mode: Mode,
    args: RunArgs,
}

#[derive(Debug, PartialEq)]
enum Mode {
    Run,
    List,
    Selfcheck,
    EmitBenchmarkJson,
    EmitReference,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        traced: false,
        mode: Mode::Run,
        args: RunArgs { seed: DEFAULT_SEED, seconds: RUN_SECONDS as f64 },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if catalog::workload(name).is_none() {
                    return Err(format!("unknown workload {name:?}; --list names them"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => {
                cli.args.seed =
                    value("a number")?.parse().map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds needs a non-negative number".into());
                }
                cli.args.seconds = s;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--list" => cli.mode = Mode::List,
            "--selfcheck" => cli.mode = Mode::Selfcheck,
            "--emit-benchmark-json" => cli.mode = Mode::EmitBenchmarkJson,
            "--emit-reference" => cli.mode = Mode::EmitReference,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("bench_report: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(why) = catalog::validate() {
        eprintln!("bench_report: inventory breaks the contract: {why}");
        return ExitCode::FAILURE;
    }
    match cli.mode {
        Mode::List => {
            print!("{}", catalog::list());
            ExitCode::SUCCESS
        }
        Mode::EmitBenchmarkJson => {
            print!("{}", catalog::benchmark_json());
            ExitCode::SUCCESS
        }
        Mode::EmitReference => emit_reference(cli.args.seed),
        Mode::Selfcheck => selfcheck(cli.workload.as_deref(), &cli.args),
        Mode::Run => match &cli.workload {
            Some(name) => single(name, cli.traced, &cli.args),
            None => report(cli.traced, &cli.args),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_protocol_parses() {
        let c =
            cli(&["--workload", "join_spine", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(c.workload.as_deref(), Some("join_spine"));
        assert!(c.traced);
        assert_eq!((c.args.seed, c.args.seconds), (7, 10.0));
        let d = cli(&[]).unwrap();
        assert_eq!((d.args.seed, d.args.seconds), (DEFAULT_SEED, RUN_SECONDS as f64));
        assert!(!d.traced && d.mode == Mode::Run && d.workload.is_none());
    }

    #[test]
    fn typos_are_errors_not_defaults() {
        assert!(cli(&["--workload", "join_spin"]).unwrap_err().contains("unknown workload"));
        assert!(cli(&["--wrkload", "x"]).unwrap_err().contains("unknown argument"));
        assert!(cli(&["fig14"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "-1"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "nan"]).is_err());
        // one spelling per switch, and no way below the sample floor
        assert!(cli(&["--traced"]).is_err());
        assert!(cli(&["--rounds", "3"]).is_err());
        assert!(cli(&["--in-process"]).is_err());
    }

    #[test]
    fn round_loop_ends_on_time_and_floor() {
        let long_ago = Instant::now() - std::time::Duration::from_secs(60);
        let timed = RunArgs { seed: 1, seconds: 10.0 };
        assert!(!timed.rounds_done(99, 100, long_ago), "never fewer than the floor");
        assert!(timed.rounds_done(100, 100, long_ago));
        assert!(!timed.rounds_done(1000, 100, Instant::now()), "never shorter than --seconds");
    }

    #[test]
    fn every_op_that_can_fail_is_an_attempt() {
        let mut ops = Ops::default();
        [true, false, true].into_iter().for_each(|ok| ops.record(ok));
        assert_eq!((ops.attempted, ops.failed), (3, 1));
    }

    #[test]
    fn child_output_round_trips() {
        let mut readings = Readings::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            readings.insert(m.name, 1.5 + i as f64);
        }
        let mut out = String::from("workload scan_chain seed 1 traced false samples 321\n");
        for (metric, unit) in catalog::reported(false) {
            let _ =
                writeln!(out, "  {metric:<34} {:>16} {unit}", catalog::json_num(readings[metric]));
        }
        let _ = writeln!(out, "{}", catalog::result_line(true, 40, 0, false, &readings));
        let run = parse_child(&out).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed, run.samples), (40, 0, 321));
        assert_eq!(run.values.len(), END_TO_END.len());
        assert_eq!(run.values["au_rel_p50"], 2.5);
        assert!(parse_child("garbage").is_none());
        let json = report_json(false, &RunArgs { seed: 1, seconds: 2.0 }, &[("scan_chain", run)]);
        assert!(json.contains("\"au_rel_p50\": {\"value\": 2.5, \"unit\": \"calib\"}"));
    }
}
