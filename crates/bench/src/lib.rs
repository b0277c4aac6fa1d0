//! # audb-bench
//!
//! Shared helpers for the experiment harness (`src/bin/experiments.rs`)
//! that regenerates every table and figure of the paper's Section 12,
//! and for the criterion micro-benchmarks under `benches/`.

use std::time::Instant;

use audb_core::obs::QueryTrace;
use audb_core::UaAnnot;
use audb_incomplete::XDb;
use audb_query::au::AuConfig;
use audb_storage::{UaDatabase, UaRelation};

/// Wall-clock one invocation.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median wall-clock over `runs` invocations (first result returned).
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(runs >= 1);
    let (out, first) = time(&mut f);
    let mut samples = vec![first];
    for _ in 1..runs {
        samples.push(time(&mut f).1);
    }
    samples.sort_by(f64::total_cmp);
    (out, samples[samples.len() / 2])
}

/// Convert an x-database into a UA-database: tuples take their
/// selected-guess values; a tuple is marked certain only when the whole
/// x-tuple is certain (single alternative, non-optional) — the setup of
/// Section 12.1 ("mark all tuples with at least one uncertain value as
/// uncertain").
pub fn xdb_to_ua(xdb: &XDb) -> UaDatabase {
    let mut out = UaDatabase::new();
    for (name, rel) in &xdb.relations {
        let mut ua = UaRelation::empty(rel.schema.clone());
        for xt in &rel.xtuples {
            if !xt.sg_present() {
                continue;
            }
            let certain = !xt.is_uncertain();
            ua.push(xt.pick_max().clone(), UaAnnot::new(certain as u64, 1));
        }
        ua.normalize();
        out.insert(name.clone(), ua);
    }
    out
}

/// The current git revision (short), for stamping bench records. Falls
/// back to `GITHUB_SHA` (CI detached checkouts), then `"unknown"`.
pub fn git_rev() -> String {
    let from_git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    from_git
        .or_else(|| std::env::var("GITHUB_SHA").ok().map(|s| s.chars().take(12).collect()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One-line engine-configuration fingerprint for `BENCH_*.json` stamps:
/// every knob that changes what a wall-clock number means (worker
/// count, compression budgets) plus the git
/// revision the binary was built from.
pub fn config_fingerprint(cfg: &AuConfig) -> String {
    let opt = |v: Option<usize>| v.map_or_else(|| "auto".to_string(), |n| n.to_string());
    format!(
        "workers={} adaptive={} join_compress={} agg_compress={} rev={}",
        opt(cfg.workers),
        cfg.adaptive,
        cfg.join_compress.map_or_else(|| "off".to_string(), |n| n.to_string()),
        cfg.agg_compress.map_or_else(|| "off".to_string(), |n| n.to_string()),
        git_rev(),
    )
}

/// Per-operator rollup of a [`QueryTrace`]: `(op, spans, rows_out,
/// elapsed_ns)` per distinct operator kind, in first-seen (pre-order)
/// order. Rows and time sum over every span of that kind, so a fused
/// chain shows up as one `fused-chain` line and an operator-at-a-time
/// plan as one line per operator.
pub fn operator_breakdown(trace: &QueryTrace) -> Vec<(String, u64, u64, u64)> {
    let mut out: Vec<(String, u64, u64, u64)> = Vec::new();
    trace.root.walk(&mut |s| {
        if s.op == "query" || s.op == "attempt" {
            return;
        }
        let rows = s.rows_out.unwrap_or(0);
        match out.iter_mut().find(|(op, ..)| *op == s.op) {
            Some((_, n, r, ns)) => {
                *n += 1;
                *r += rows;
                *ns += s.elapsed_ns;
            }
            None => out.push((s.op.clone(), 1, rows, s.elapsed_ns)),
        }
    });
    out
}

/// Print the trace-derived operator breakdown for a bench workload.
pub fn print_trace_breakdown(label: &str, trace: &QueryTrace) {
    println!("--- {label}: trace-derived operator breakdown ---");
    let widths = [14usize, 6, 10, 12];
    print_row(&["operator", "spans", "rows_out", "time_ms"].map(str::to_string), &widths);
    for (op, spans, rows, ns) in operator_breakdown(trace) {
        print_row(
            &[op, spans.to_string(), rows.to_string(), format!("{:.3}", ns as f64 / 1e6)],
            &widths,
        );
    }
}

/// Fixed-width row printer for paper-shaped tables.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = *w));
    }
    println!("{}", line.trim_end());
}

pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Format a duration given in seconds as milliseconds to three
/// significant digits (`0.0456`, `7.89`, `456`, `1230`), so that a
/// sub-millisecond cell still tells two timings apart.
pub fn fmt_ms(secs: f64) -> String {
    let ms = secs * 1000.0;
    if ms <= 0.0 || !ms.is_finite() {
        return format!("{ms}");
    }
    // `exp` is the power of ten of the third significant digit; fix it
    // up when `log10` or the rounding lands one decade off.
    let mut exp = ms.log10().floor() as i32 - 2;
    let mut digits = (ms / 10f64.powi(exp)).round();
    if digits >= 1000.0 {
        exp += 1;
        digits = (ms / 10f64.powi(exp)).round();
    } else if digits < 100.0 {
        exp -= 1;
        digits = (ms / 10f64.powi(exp)).round();
    }
    format!("{:.*}", (-exp).max(0) as usize, digits * 10f64.powi(exp))
}

/// Format a ratio like the paper's "runtime / Det-runtime" plots.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_incomplete::{XRelation, XTuple};
    use audb_storage::{Schema, Tuple};

    #[test]
    fn fmt_ms_keeps_three_significant_digits() {
        let cells = [4.56e-5, 7.89e-4, 7.89e-3, 1.23e-2, 0.456, 1.23].map(fmt_ms);
        assert_eq!(cells, ["0.0456", "0.789", "7.89", "12.3", "456", "1230"]);
        assert_eq!([9.9996e-3, 0.99996].map(fmt_ms), ["10.0", "1000"]);
    }

    #[test]
    fn ua_conversion_marks_uncertain() {
        let t1: Tuple = [1i64].into_iter().collect();
        let t2a: Tuple = [2i64].into_iter().collect();
        let t2b: Tuple = [3i64].into_iter().collect();
        let mut xdb = XDb::default();
        xdb.insert(
            "r",
            XRelation::new(
                Schema::named(&["a"]),
                vec![
                    XTuple::certain(t1.clone()),
                    XTuple::new(vec![(t2a.clone(), 0.6), (t2b, 0.4)]),
                ],
            ),
        );
        let ua = xdb_to_ua(&xdb);
        let rel = ua.get("r").unwrap();
        assert_eq!(rel.annotation(&t1), UaAnnot::new(1, 1));
        assert_eq!(rel.annotation(&t2a), UaAnnot::new(0, 1));
    }

    #[test]
    fn fingerprint_names_every_knob() {
        let cfg = AuConfig { workers: Some(4), join_compress: Some(64), ..AuConfig::default() };
        let fp = config_fingerprint(&cfg);
        for part in ["workers=4", "adaptive=false", "join_compress=64", "rev="] {
            assert!(fp.contains(part), "missing {part} in {fp}");
        }
        assert!(!fp.contains("shards") && !fp.contains("oracle"), "{fp}");
    }

    #[test]
    fn timing_helpers_run() {
        let (v, s) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
        let (v, s) = time_median(3, || 1 + 1);
        assert_eq!(v, 2);
        assert!(s >= 0.0);
    }
}
