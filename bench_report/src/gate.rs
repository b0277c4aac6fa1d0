//! The correctness gate and the accuracy readings.
//!
//! Run once per query before timing. A result passes when
//!
//! * its selected-guess world equals what SGQP computes on the SG
//!   world (SGW preservation; floats to 1e-9 relative — the two engines
//!   sum in different canonical orders);
//! * every cell and every annotation has `lb <= sg <= ub`;
//! * on `group_agg`, every exact group range from `exact_group_agg`
//!   lies inside the AU range of that group (bound preservation);
//! * at the default seed, row count and per-column sums match the
//!   fingerprints recorded in `reference.rs`.
//!
//! The same pass yields the accuracy metrics (certain rows, relative
//! range width, possible size), so they describe exactly the results
//! that were checked.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use audb_core::{AuAnnot, RangeValue, Value};
use audb_incomplete::XRelation;
use audb_query::AggFunc;
use audb_storage::{AuDatabase, AuRelation, Database, Relation};
use audb_workloads::{exact_group_agg, GroupInfo};

use crate::stats::{close, Fnv};

pub const TOL: f64 = 1e-9;

// ---- input digests ---------------------------------------------------------

fn write_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::MinVal => h.write(b"<"),
        Value::Null => h.write(b"n"),
        Value::Bool(b) => h.write(&[b'b', u8::from(*b)]),
        Value::Int(i) => {
            h.write(b"i");
            h.write(&i.to_le_bytes());
        }
        Value::Float(f) => {
            h.write(b"f");
            h.write(&f.get().to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            h.write(b"s");
            h.write(&(s.len() as u64).to_le_bytes());
            h.write(s.as_bytes());
        }
        Value::MaxVal => h.write(b">"),
    }
}

/// Row count and FNV-1a digest of one generated relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputDigest {
    pub relation: String,
    pub rows: u64,
    pub digest: u64,
}

fn digest_au(name: &str, rel: &AuRelation) -> InputDigest {
    let mut h = Fnv::default();
    for c in rel.schema.columns() {
        h.write(c.as_bytes());
        h.write(b",");
    }
    for (t, k) in rel.rows() {
        for r in t.values() {
            write_value(&mut h, &r.lb);
            write_value(&mut h, &r.sg);
            write_value(&mut h, &r.ub);
        }
        for m in [k.lb, k.sg, k.ub] {
            h.write(&m.to_le_bytes());
        }
    }
    InputDigest { relation: format!("au:{name}"), rows: rel.len() as u64, digest: h.finish() }
}

fn digest_det(name: &str, rel: &Relation) -> InputDigest {
    let mut h = Fnv::default();
    for c in rel.schema.columns() {
        h.write(c.as_bytes());
        h.write(b",");
    }
    for (t, k) in rel.rows() {
        for v in t.values() {
            write_value(&mut h, v);
        }
        h.write(&k.to_le_bytes());
    }
    InputDigest { relation: format!("sg:{name}"), rows: rel.len() as u64, digest: h.finish() }
}

/// Digests of every generated relation (AU side and SG world), in name
/// order.
pub fn digest_inputs(audb: &AuDatabase, sgdb: &Database) -> Vec<InputDigest> {
    let mut au: Vec<_> = audb.iter().map(|(n, r)| digest_au(n, r)).collect();
    au.sort_by(|a, b| a.relation.cmp(&b.relation));
    let mut sg: Vec<_> = sgdb.iter().map(|(n, r)| digest_det(n, r)).collect();
    sg.sort_by(|a, b| a.relation.cmp(&b.relation));
    au.extend(sg);
    au
}

// ---- per-result checks -----------------------------------------------------

/// Total range width of one result column against its total magnitude,
/// over the numeric cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColumnWidth {
    /// Σ (ub - lb)
    pub width: f64,
    /// Σ (|sg| + 1)
    pub magnitude: f64,
    pub cells: u64,
}

/// What the gate learned about one query's AU result.
#[derive(Debug, Clone)]
pub struct QueryCheck {
    pub label: String,
    /// `None` when every check passed.
    pub failure: Option<String>,
    pub rows: u64,
    pub sg_rows: u64,
    pub certain_rows: u64,
    pub possible: u64,
    /// Range width against magnitude, per column.
    pub col_widths: Vec<ColumnWidth>,
    /// Σlb, Σsg, Σub over the numeric cells of each column.
    pub col_sums: Vec<[f64; 3]>,
    pub annot_sums: [f64; 3],
}

impl QueryCheck {
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

fn value_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => close(x, y, TOL),
        _ => a == b,
    }
}

/// Do two deterministic relations hold the same bag, floats compared to
/// [`TOL`]? Both sides are put in normal form first, so equal keys line
/// up row by row.
pub fn relations_close(a: &Relation, b: &Relation) -> Result<(), String> {
    let (a, b) = (a.normalized(), b.normalized());
    if a.len() != b.len() {
        return Err(format!("{} rows vs {}", a.len(), b.len()));
    }
    for (i, ((ta, ka), (tb, kb))) in a.rows().iter().zip(b.rows()).enumerate() {
        let same = ka == kb
            && ta.arity() == tb.arity()
            && ta.values().iter().zip(tb.values()).all(|(x, y)| value_close(x, y));
        if !same {
            return Err(format!("row {i}: {ta} x{ka} vs {tb} x{kb}"));
        }
    }
    Ok(())
}

fn ordered(r: &RangeValue) -> bool {
    r.lb.total_cmp(&r.sg) != Ordering::Greater && r.sg.total_cmp(&r.ub) != Ordering::Greater
}

pub fn is_certain_row(t: &audb_storage::RangeTuple, k: &AuAnnot) -> bool {
    t.is_certain() && k.lb == k.sg && k.sg == k.ub && k.lb > 0
}

/// Check one AU result against SGQP's answer and take its accuracy
/// readings.
pub fn check_result(label: &str, au: &AuRelation, sgqp: &Relation) -> QueryCheck {
    let arity = au.schema.arity();
    let mut c = QueryCheck {
        label: label.to_string(),
        failure: None,
        rows: au.len() as u64,
        sg_rows: sgqp.total_count(),
        certain_rows: 0,
        possible: au.possible_size(),
        col_widths: vec![ColumnWidth::default(); arity],
        col_sums: vec![[0.0; 3]; arity],
        annot_sums: [0.0; 3],
    };
    for (i, (t, k)) in au.rows().iter().enumerate() {
        if !(k.lb <= k.sg && k.sg <= k.ub) {
            c.failure.get_or_insert(format!("row {i}: annotation {k:?} not ordered"));
        }
        if let Some(bad) = t.values().iter().position(|r| !ordered(r)) {
            c.failure.get_or_insert(format!("row {i} col {bad}: lb <= sg <= ub violated in {t}"));
        }
        c.certain_rows += u64::from(is_certain_row(t, k));
        for (m, s) in [k.lb, k.sg, k.ub].iter().zip(c.annot_sums.iter_mut()) {
            *s += *m as f64;
        }
        for ((r, sums), w) in
            t.values().iter().zip(c.col_sums.iter_mut()).zip(c.col_widths.iter_mut())
        {
            if let (Some(lb), Some(sg), Some(ub)) = (r.lb.as_f64(), r.sg.as_f64(), r.ub.as_f64()) {
                sums[0] += lb;
                sums[1] += sg;
                sums[2] += ub;
                w.width += ub - lb;
                w.magnitude += sg.abs() + 1.0;
                w.cells += 1;
            }
        }
    }
    if let Err(why) = relations_close(&au.sg_world(), sgqp) {
        c.failure.get_or_insert(format!("SG world differs from SGQP: {why}"));
    }
    c
}

/// Bound preservation against exact ground truth: for every AU result
/// row whose SG group value is a possible group, the exact range of
/// each aggregate lies inside the AU range. `aggs` pairs the output
/// column of the AU result with the function and its input column.
pub fn check_group_bounds(
    x: &XRelation,
    group_col: usize,
    au: &AuRelation,
    aggs: &[(usize, AggFunc, usize)],
) -> Result<BTreeMap<Value, GroupInfo>, String> {
    let mut first: Option<BTreeMap<Value, GroupInfo>> = None;
    for (out_col, func, val_col) in aggs {
        let exact =
            exact_group_agg(x, None, group_col, *func, *val_col).map_err(|e| e.to_string())?;
        for (t, _) in au.rows() {
            let Some(info) = exact.get(&t.0[0].sg) else { continue };
            let r = &t.0[*out_col];
            let (Some(lb), Some(ub)) = (r.lb.as_f64(), r.ub.as_f64()) else {
                continue; // an unbounded side bounds everything
            };
            if !(lb <= info.lo + TOL * info.lo.abs().max(1.0)
                && info.hi <= ub + TOL * ub.abs().max(1.0))
            {
                return Err(format!(
                    "group {}: exact {} range [{}, {}] escapes AU range {r:?}",
                    t.0[0].sg,
                    func.name(),
                    info.lo,
                    info.hi
                ));
            }
        }
        first.get_or_insert(exact);
    }
    first.ok_or_else(|| "no aggregate to check".to_string())
}

// ---- reference fingerprints ------------------------------------------------

/// Fingerprint of one query's AU result as recorded in `reference.rs`.
#[derive(Debug, Clone, Copy)]
pub struct RefQuery {
    pub label: &'static str,
    pub rows: u64,
    pub annot_sums: [f64; 3],
    pub col_sums: &'static [[f64; 3]],
}

#[derive(Debug, Clone, Copy)]
pub struct RefInput {
    pub relation: &'static str,
    pub rows: u64,
    pub digest: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub workload: &'static str,
    pub inputs: &'static [RefInput],
    pub queries: &'static [RefQuery],
}

/// Generated inputs must be byte-for-byte what they were when the
/// reference was recorded; this is what freezes the generators.
pub fn check_inputs(reference: &Reference, got: &[InputDigest]) -> Result<(), String> {
    if reference.inputs.len() != got.len() {
        return Err(format!(
            "generator drift: {} relations, reference has {}",
            got.len(),
            reference.inputs.len()
        ));
    }
    for (r, g) in reference.inputs.iter().zip(got) {
        if r.relation != g.relation || r.rows != g.rows || r.digest != g.digest {
            return Err(format!(
                "generator drift: {} has {} rows, digest {:#018x}; reference {} has {} rows, digest {:#018x}",
                g.relation, g.rows, g.digest, r.relation, r.rows, r.digest
            ));
        }
    }
    Ok(())
}

pub fn check_reference(r: &RefQuery, c: &QueryCheck) -> Result<(), String> {
    if r.label != c.label {
        return Err(format!("query is {:?}, reference has {:?} here", c.label, r.label));
    }
    if r.rows != c.rows {
        return Err(format!("{} rows, reference has {}", c.rows, r.rows));
    }
    let sums_close = |a: &[f64; 3], b: &[f64; 3]| a.iter().zip(b).all(|(x, y)| close(*x, *y, TOL));
    if !sums_close(&r.annot_sums, &c.annot_sums) {
        return Err(format!("annotation sums {:?}, reference {:?}", c.annot_sums, r.annot_sums));
    }
    if r.col_sums.len() != c.col_sums.len() {
        return Err(format!("{} columns, reference has {}", c.col_sums.len(), r.col_sums.len()));
    }
    for (i, (a, b)) in r.col_sums.iter().zip(&c.col_sums).enumerate() {
        if !sums_close(a, b) {
            return Err(format!("column {i} sums {b:?}, reference {a:?}"));
        }
    }
    Ok(())
}

/// Everything the gate found for one workload.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    pub inputs: Vec<InputDigest>,
    pub checks: Vec<QueryCheck>,
    /// Failures that are not tied to one query (generator drift,
    /// bound-preservation on the exact ground truth).
    pub failures: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.checks.iter().all(QueryCheck::ok)
    }

    pub fn query_ok(&self, label: &str) -> bool {
        self.failures.is_empty() && self.checks.iter().any(|c| c.label == label && c.ok())
    }

    pub fn expected_rows(&self) -> Vec<u64> {
        self.checks.iter().map(|c| c.rows).collect()
    }

    /// Every failure, one line each.
    pub fn failure_lines(&self) -> Vec<String> {
        let per_query = self
            .checks
            .iter()
            .filter_map(|c| c.failure.as_ref().map(|f| format!("{}: {f}", c.label)));
        self.failures.iter().cloned().chain(per_query).collect()
    }

    fn pooled(&self, f: impl Fn(&QueryCheck) -> f64) -> f64 {
        self.checks.iter().map(f).sum()
    }

    /// Share of result rows that are not certain, pooled over the
    /// workload's queries.
    pub fn uncertain_frac(&self) -> f64 {
        1.0 - self.pooled(|c| c.certain_rows as f64) / self.pooled(|c| c.rows as f64).max(1.0)
    }

    /// Relative range width: per result column `ln(1 + Σ(ub - lb) /
    /// Σ(|sg| + 1))`, averaged over the columns of every result with
    /// each column weighted by its numeric cells.
    ///
    /// A ratio of sums per column, not a mean of per-cell ratios: a
    /// width of 40 beside a guess of 3 would count a thousand times one
    /// beside 3000, and the reading would be a handful of small guesses.
    /// The logarithm does the same between columns: under compression
    /// one of `tpch_ct64`'s sums spans `[0, 6e11]` beside guesses of
    /// 1e5 and would otherwise be the whole metric.
    pub fn rel_width(&self) -> f64 {
        let columns = || self.checks.iter().flat_map(|c| &c.col_widths).filter(|w| w.cells > 0);
        let weighted: f64 =
            columns().map(|w| w.cells as f64 * (w.width / w.magnitude).ln_1p()).sum();
        weighted / columns().map(|w| w.cells as f64).sum::<f64>().max(1.0)
    }

    /// Possible result size over selected-guess result size.
    pub fn possible_over_sg(&self) -> f64 {
        self.pooled(|c| c.possible as f64) / self.pooled(|c| c.sg_rows as f64).max(1.0)
    }
}

/// Gate one workload: `results` pairs each query's AU result with
/// SGQP's answer. With `reference` (the default seed) inputs and
/// results are also compared to the recorded fingerprints.
pub fn run(
    inputs: Vec<InputDigest>,
    results: &[(impl AsRef<str>, AuRelation, Relation)],
    reference: Option<&Reference>,
) -> GateReport {
    let mut report = GateReport { inputs, ..GateReport::default() };
    for (label, au, sgqp) in results {
        report.checks.push(check_result(label.as_ref(), au, sgqp));
    }
    if let Some(reference) = reference {
        if let Err(why) = check_inputs(reference, &report.inputs) {
            report.failures.push(why);
        }
        if reference.queries.len() != report.checks.len() {
            report.failures.push(format!(
                "{} queries, reference has {}",
                report.checks.len(),
                reference.queries.len()
            ));
        }
        for (r, c) in reference.queries.iter().zip(report.checks.iter_mut()) {
            if let Err(why) = check_reference(r, c) {
                c.failure.get_or_insert(format!("result drift: {why}"));
            }
        }
    }
    report
}

/// Rust source of one workload's reference block (`--emit-reference`).
pub fn reference_source(workload: &str, inputs: &[InputDigest], checks: &[QueryCheck]) -> String {
    use std::fmt::Write as _;
    let mut s =
        format!("    Reference {{\n        workload: \"{workload}\",\n        inputs: &[\n");
    for d in inputs {
        let _ = writeln!(
            s,
            "            RefInput {{ relation: \"{}\", rows: {}, digest: {:#018x} }},",
            d.relation, d.rows, d.digest
        );
    }
    s.push_str("        ],\n        queries: &[\n");
    let triple = |t: &[f64; 3]| format!("[{:?}, {:?}, {:?}]", t[0], t[1], t[2]);
    for c in checks {
        let cols: Vec<String> = c.col_sums.iter().map(triple).collect();
        let _ = writeln!(
            s,
            "            RefQuery {{\n                label: \"{}\",\n                rows: {},\n                annot_sums: {},\n                col_sums: &[{}],\n            }},",
            c.label,
            c.rows,
            triple(&c.annot_sums),
            cols.join(", ")
        );
    }
    s.push_str("        ],\n    },\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_storage::{au_row, certain_row, Schema, Tuple};

    fn rel(rows: Vec<(Vec<Value>, u64)>) -> Relation {
        Relation::from_rows(
            Schema::named(&["g", "v"]),
            rows.into_iter().map(|(v, k)| (Tuple::new(v), k)).collect(),
        )
    }

    #[test]
    fn relation_compare_tolerates_ulps_not_values() {
        let a = rel(vec![(vec![Value::Int(1), Value::float(0.1 + 0.2)], 2)]);
        let b = rel(vec![(vec![Value::Int(1), Value::float(0.3)], 2)]);
        assert!(relations_close(&a, &b).is_ok());
        let c = rel(vec![(vec![Value::Int(1), Value::float(0.3001)], 2)]);
        assert!(relations_close(&a, &c).is_err());
        let d = rel(vec![(vec![Value::Int(1), Value::float(0.3)], 3)]);
        assert!(relations_close(&a, &d).unwrap_err().contains("row 0"));
        assert!(relations_close(&a, &rel(vec![])).unwrap_err().contains("rows"));
    }

    #[test]
    fn check_result_reads_accuracy_and_catches_sgw_drift() {
        let schema = Schema::named(&["g", "v"]);
        let rows = vec![
            certain_row(&[1, 10], 1, 1, 1),
            au_row(
                vec![RangeValue::certain(Value::Int(2)), RangeValue::range(0i64, 9i64, 18i64)],
                0,
                1,
                2,
            ),
        ];
        let au = AuRelation::from_rows(schema, rows);
        let sg = rel(vec![
            (vec![Value::Int(1), Value::Int(10)], 1),
            (vec![Value::Int(2), Value::Int(9)], 1),
        ]);
        let c = check_result("q", &au, &sg);
        assert!(c.ok(), "{:?}", c.failure);
        assert_eq!((c.rows, c.sg_rows, c.certain_rows, c.possible), (2, 2, 1, 3));
        // only [0/9/18] is wide: 18 against (10 + 1) + (9 + 1)
        assert_eq!(c.col_widths[0], ColumnWidth { width: 0.0, magnitude: 5.0, cells: 2 });
        assert_eq!(c.col_widths[1], ColumnWidth { width: 18.0, magnitude: 21.0, cells: 2 });
        let report = GateReport { checks: vec![c.clone()], ..GateReport::default() };
        assert!((report.rel_width() - 0.5 * (1.0 + 18.0 / 21.0f64).ln()).abs() < 1e-12);
        assert!((report.uncertain_frac() - 0.5).abs() < 1e-12);
        assert!((report.possible_over_sg() - 1.5).abs() < 1e-12);
        assert_eq!(c.col_sums[1], [10.0, 19.0, 28.0]);
        assert_eq!(c.annot_sums, [1.0, 2.0, 3.0]);
        let wrong = rel(vec![(vec![Value::Int(1), Value::Int(10)], 1)]);
        assert!(check_result("q", &au, &wrong).failure.unwrap().contains("SG world"));
    }

    #[test]
    fn reference_compare_and_digest_stability() {
        let au = AuRelation::from_rows(Schema::named(&["a"]), vec![certain_row(&[7], 1, 1, 1)]);
        let mut audb = AuDatabase::new();
        audb.insert("t", au.clone());
        let sgdb = audb.sg_world();
        let d1 = digest_inputs(&audb, &sgdb);
        assert_eq!(d1, digest_inputs(&audb, &sgdb));
        assert_eq!(d1.len(), 2);
        assert_eq!((d1[0].relation.as_str(), d1[0].rows), ("au:t", 1));
        // pinned: the canonical rendering is part of the frozen surface
        assert_eq!(d1[0].digest, 0x4f9c_c94e_6677_b105, "{:#018x}", d1[0].digest);
        let mut other = AuDatabase::new();
        other.insert(
            "t",
            AuRelation::from_rows(Schema::named(&["a"]), vec![certain_row(&[8], 1, 1, 1)]),
        );
        assert_ne!(digest_inputs(&other, &sgdb)[0].digest, d1[0].digest);

        let c = check_result("q", &au, &sgdb.get("t").unwrap().clone());
        static COLS: [[f64; 3]; 1] = [[7.0, 7.0, 7.0]];
        let r = RefQuery { label: "q", rows: 1, annot_sums: [1.0; 3], col_sums: &COLS };
        assert!(check_reference(&r, &c).is_ok());
        let off = RefQuery { rows: 2, ..r };
        assert!(check_reference(&off, &c).unwrap_err().contains("rows"));
        static WIDER: [[f64; 3]; 1] = [[7.0, 7.0, 7.5]];
        assert!(check_reference(&RefQuery { col_sums: &WIDER, ..r }, &c).is_err());

        static INPUTS: [RefInput; 1] = [RefInput { relation: "au:t", rows: 1, digest: 1 }];
        let reference = Reference { workload: "w", inputs: &INPUTS, queries: &[] };
        assert!(check_inputs(&reference, &d1[..1]).unwrap_err().starts_with("generator drift"));
        let src = reference_source("w", &d1, std::slice::from_ref(&c));
        assert!(src.contains("relation: \"au:t\"") && src.contains("[7.0, 7.0, 7.0]"));
    }
}
