//! Intermediates on the lanes: ground truth and differentials for the
//! lane hand-over (a relation born columnar, `GatherView::lanes`), the
//! lane `Cpr` and the split/compress join that runs as two lane probes.

mod common;

use std::sync::Arc;

use audb::core::{LaneTag, ValueLane};
use audb::prelude::*;
use audb::query::opt::{
    compress, compress_bag, compress_lanes, compress_rows, optimized_join_exec,
    optimized_join_literal, split_up,
};
use audb::storage::{ColumnSet, GatherView};
use common::{check_bounds, weighted_xtuple};

// ---------------------------------------------------------------------------
// (i) lanes in order ≡ columnarized tuples in order; the either-or-both relation
// ---------------------------------------------------------------------------

fn int(v: i64) -> RangeValue {
    RangeValue::certain(Value::Int(v))
}

/// `n` cells per column: `Int` and `Float` (incl. `-0.0` inputs) with
/// uncertain cells, `Bool`, `Str`, and a mixed column with sentinels and
/// `Null`.
fn corpus_columns(n: usize) -> Vec<Vec<RangeValue>> {
    let i = |k: usize| k as i64;
    let floats = [-0.0f64, 0.0, -2.5, 1.25, 1e300];
    let mixed = |k: usize| match k % 5 {
        0 => RangeValue::unknown(Value::Int(i(k))),
        1 => RangeValue::certain(Value::Null),
        2 => RangeValue::new(Value::Int(1), Value::float(1.5), Value::MaxVal).unwrap(),
        3 => RangeValue::certain(Value::str(format!("mixed {k}"))),
        _ => int(i(k) % 3),
    };
    vec![
        (0..n).map(|k| RangeValue::range(i(k) % 7 - 3, i(k) % 7, i(k) % 7 + i(k) % 2)).collect(),
        (0..n).map(|k| RangeValue::range(-0.0f64, floats[k % 5].max(0.0), 2e300)).collect(),
        (0..n).map(|k| RangeValue::certain(Value::float(floats[k % 5]))).collect(),
        (0..n).map(|k| RangeValue::range(false, k % 3 == 0, true)).collect(),
        (0..n).map(|k| RangeValue::certain(Value::str(format!("s{}", k % 4)))).collect(),
        (0..n).map(mixed).collect(),
    ]
}

fn assert_same_cells(got: &ColumnSet, want: &ColumnSet, ctx: &str) {
    assert_eq!((got.nrows(), got.arity()), (want.nrows(), want.arity()), "{ctx}");
    for i in 0..want.nrows() {
        assert_eq!(got.row(i), want.row(i), "{ctx}: row {i}");
        assert_eq!(got.annots().get(i), want.annots().get(i), "{ctx}: annotation {i}");
    }
}

/// `GatherView::lanes(order)` is `ColumnSet::from_rows(tuples(order))`
/// cell for cell — direct and indexed columns, identity and
/// permuted-with-repeats orders, the empty order.
#[test]
fn gathered_lanes_are_the_columnarized_tuples() {
    let n = 37usize;
    let columns = corpus_columns(n);
    let lanes: Vec<ValueLane> = columns.iter().map(|c| ValueLane::from_cells(c.iter())).collect();
    // every other column through an index (into a lane twice as long
    // would do; here: a rotation)
    let rotate: Vec<u32> = (0..n as u32).map(|k| (k * 5 + 3) % n as u32).collect();
    let cols =
        lanes.iter().enumerate().map(|(c, l)| (l.as_slice(), (c % 2 == 1).then_some(&rotate[..])));
    let view = GatherView::new(cols.collect());
    let annot = |k: u32| AuAnnot::triple(u64::from(k % 2), 1, 1 + u64::from(k % 3));
    let orders: [Vec<u32>; 3] = [
        (0..n as u32).collect(),
        (0..2 * n as u32).map(|k| (k * k + 1) % n as u32).collect(),
        Vec::new(),
    ];
    for order in &orders {
        let listed = || order.iter().map(|&k| (k, annot(k)));
        let want = ColumnSet::from_rows(columns.len(), &view.tuples(listed()));
        assert_same_cells(&view.lanes(listed()), &want, &format!("{} rows", order.len()));
    }
}

/// A relation born columnar is its row-born twin: same sizes before a
/// tuple exists, `rows()` builds the tuples once, `==` holds either way,
/// and a mutation goes through the tuples and drops the lanes.
#[test]
fn columnar_born_relation_round_trips() {
    let columns = corpus_columns(23);
    let rows: Vec<(RangeTuple, AuAnnot)> = (0..23)
        .map(|k| {
            let cells = columns.iter().map(|c| c[k].clone()).collect();
            (RangeTuple::new(cells), AuAnnot::triple(0, 1, 1 + k as u64 % 2))
        })
        .collect();
    let schema = Schema::named(&["i", "f", "g", "b", "s", "m"]);
    let mut twin = AuRelation::empty(schema.clone());
    twin.append_rows(rows.clone());
    let lanes = Arc::new(ColumnSet::from_rows(schema.arity(), &rows));
    let mut born = AuRelation::from_columns(schema, Arc::clone(&lanes), false);
    assert!(born.has_columns() && !born.has_rows() && !born.is_normalized());
    assert_eq!((born.len(), born.is_empty()), (23, false));
    assert_eq!(born.estimated_bytes(), twin.estimated_bytes());
    assert_eq!(born.possible_size(), twin.possible_size());
    assert!(Arc::ptr_eq(&born.columns(), &lanes), "columns() is a pointer copy");
    assert!(!born.has_rows(), "nothing so far needed a tuple");
    assert_eq!(born.rows(), &rows[..]);
    assert!(born.has_rows() && born.has_columns());
    assert_eq!(born, twin);
    assert_eq!(born.clone().into_normalized(), twin.clone().into_normalized());

    let extra =
        (RangeTuple::new(columns.iter().map(|c| c[0].clone()).collect()), AuAnnot::certain_one());
    born.push(extra.0.clone(), extra.1);
    twin.push(extra.0, extra.1);
    assert!(!born.has_columns(), "a mutation drops the lanes");
    assert_eq!(born, twin);
    assert_same_cells(&born.columns(), &twin.columns(), "rebuilt lanes");

    // a fresh one, mutated before anyone asked for rows
    let mut born = AuRelation::from_columns(twin.schema.clone(), lanes, false);
    born.normalize();
    let mut want = AuRelation::empty(twin.schema.clone());
    want.append_rows(rows);
    assert_eq!(born, want.into_normalized());
}

// ---------------------------------------------------------------------------
// (ii) lane Cpr ≡ the row Cpr
// ---------------------------------------------------------------------------

/// `n` un-normalized rows over `(key, payload, tag)` with duplicate
/// tuples, ties on the key's selected guess (certain and uncertain cells
/// sharing one), in no order. `key` maps a small integer to the key cell:
/// every other row's is one of three (runs of many rows), the rest one
/// of 97 (runs of a few).
fn unordered_rows(n: i64, key: impl Fn(i64, bool) -> RangeValue) -> AuRelation {
    let mut out = AuRelation::empty(Schema::named(&["k", "p", "t"]));
    let repeats = (0..n / 3).chain((0..n).step_by(4)).chain((1..n).step_by(6));
    for i in (0..n).rev().chain(repeats) {
        let k = if i % 2 == 0 { i % 3 } else { 3 + i % 97 };
        let cells = vec![
            key(k, i % 4 == 1),
            RangeValue::range(i % 3, i % 3, i % 3 + i % 2),
            RangeValue::certain(Value::str(format!("t{}", i % 5))),
        ];
        out.push(RangeTuple::new(cells), AuAnnot::triple(0, 1 + i as u64 % 2, 2 + i as u64 % 3));
    }
    assert!(!out.is_normalized());
    out
}

/// A key cell of a small integer, certain or a range around it.
type KeyFn<'f> = &'f dyn Fn(i64, bool) -> RangeValue;

fn int_key(k: i64, uncertain: bool) -> RangeValue {
    if uncertain {
        RangeValue::range(k - 1, k, k + 2)
    } else {
        int(k)
    }
}

fn float_key(k: i64, uncertain: bool) -> RangeValue {
    let k = k as f64 * 0.5;
    if uncertain {
        RangeValue::range(k - 0.5, k, k + 1.0)
    } else {
        RangeValue::certain(Value::float(k))
    }
}

fn bool_key(k: i64, uncertain: bool) -> RangeValue {
    RangeValue::range(!uncertain && k % 2 == 0, k % 2 == 0, uncertain || k % 2 == 0)
}

/// An `Int` or the `Float` of a half, by parity: a `Boxed` lane.
fn mixed_key(k: i64, uncertain: bool) -> RangeValue {
    let sg = if k % 2 == 0 { Value::Int(k) } else { Value::float(k as f64 + 0.5) };
    match uncertain {
        true => RangeValue::new(Value::Int(k - 1), sg, Value::float(k as f64 + 2.5)).unwrap(),
        false => RangeValue::certain(sg),
    }
}

fn str_key(k: i64, uncertain: bool) -> RangeValue {
    let s = |k: i64| Value::str(format!("key {k}"));
    if uncertain {
        RangeValue::new(s(k - 1).min(s(k)), s(k), s(k + 2).max(s(k))).unwrap()
    } else {
        RangeValue::certain(s(k))
    }
}

fn born_of(schema: &Schema, lanes: ColumnSet) -> AuRelation {
    AuRelation::from_columns(schema.clone(), Arc::new(lanes), false)
}

/// The bag form is `Cpr(split↑(R))` over the materialized normal form;
/// the list form is `compress_rows` over the same ids, bucket for bucket
/// and in list order on ties — with an `Int`, `Float`, one-dictionary
/// `Str`, `Bool` or `Boxed` bucket attribute, runs of one selected guess
/// of one to dozens of rows with duplicates inside them, a few hundred
/// rows (the radix path of the typed sort), `n` from one bucket to one
/// per row, at 1, 2 and 4 workers.
#[test]
fn lane_cpr_is_the_row_cpr() {
    let keys: [(LaneTag, KeyFn<'_>); 5] = [
        (LaneTag::Int, &int_key),
        (LaneTag::Float, &float_key),
        (LaneTag::Str, &str_key),
        (LaneTag::Bool, &bool_key),
        (LaneTag::Boxed, &mixed_key),
    ];
    for (tag, key) in keys {
        let rel = unordered_rows(300, key);
        let (cs, len) = (rel.columns(), rel.len());
        assert_eq!(cs.lane(0).tag(), tag);
        let list: Vec<u32> = (0..len as u32).rev().filter(|i| i % 3 != 1).collect();
        for attr in [0usize, 1] {
            for n in [1usize, 5, 7, 64, len + 1] {
                let ctx = format!("key {tag:?}, attr {attr}, n = {n}");
                let want = compress(&split_up(&rel), attr, n);
                for workers in [1, 2, 4] {
                    let bag = compress_bag(&cs, attr, n, &executor(workers)).unwrap();
                    assert!(bag.nrows() <= n, "{ctx}");
                    let got = born_of(&rel.schema, bag).into_normalized();
                    assert_eq!(got, want, "{ctx}, workers = {workers}");
                }

                // a list: a subset of the rows, projected, in list order
                let cols = [2usize, 0];
                let got = compress_lanes(&cs, &list, &cols, attr, n, &Metrics::disabled());
                let want = compress_rows(rel.rows(), &list, &cols, attr, n);
                assert_eq!(born_of(&rel.schema.select(&cols), got).rows(), &want[..], "{ctx}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (iii) the kernel ≡ the literal formula
// ---------------------------------------------------------------------------

/// `n` un-normalized rows `(key, payload)`; `uncertain` picks the rows
/// whose key is a range.
fn join_side(
    names: [&str; 2],
    n: i64,
    key: KeyFn<'_>,
    uncertain: impl Fn(i64) -> bool,
) -> AuRelation {
    let mut out = AuRelation::empty(Schema::named(&names));
    for i in (0..n).rev().chain(0..n / 7) {
        let cells = vec![key(i % 23, uncertain(i)), RangeValue::range(i % 3, i % 3, i % 3 + i % 2)];
        let sg = u64::from(i % 5 != 0);
        out.push(
            RangeTuple::new(cells),
            AuAnnot::triple(sg * (i as u64 % 2), sg, 1 + i as u64 % 3),
        );
    }
    out
}

fn executor(workers: usize) -> Executor {
    Executor::new(workers).with_min_rows_per_worker(0)
}

/// Equality, comparison and cross predicates over `Int`, `Float`, `Str`
/// and `Int`-vs-`Float` keys, a left input crossing 1 024 rows, for
/// `ct ∈ {1, 5, 64}` and 1, 2 and 4 workers: the same relation, row for
/// row — and born columnar.
#[test]
fn optimized_join_is_the_literal_formula() {
    let key_types: [(&str, KeyFn<'_>, KeyFn<'_>); 4] = [
        ("int", &int_key, &int_key),
        ("float", &float_key, &float_key),
        ("str", &str_key, &str_key),
        ("int vs float", &int_key, &|k, u| float_key(2 * k, u)),
    ];
    let preds = [Some(col(0).eq(col(2))), Some(col(0).leq(col(2))), None];
    for (name, lkey, rkey) in key_types {
        let l = join_side(["a", "p"], 1100, lkey, |i| i % 11 == 0);
        let r = join_side(["b", "q"], 45, rkey, |i| i % 6 == 0);
        for pred in &preds {
            for ct in [1usize, 5, 64] {
                let want = optimized_join_literal(&l, &r, pred.as_ref(), ct, &executor(1)).unwrap();
                assert!(want.len() > ct, "{name}, {pred:?}: a real SG part");
                for workers in [1usize, 2, 4] {
                    let got = optimized_join_exec(&l, &r, pred.as_ref(), ct, &executor(workers));
                    let got = got.unwrap();
                    assert!(got.has_columns() && !got.has_rows() && got.is_normalized());
                    assert_eq!(got, want, "{name}, {pred:?}, ct = {ct}, workers = {workers}");
                }
            }
        }
    }
}

/// A predicate that fails on some pair fails the join with that error,
/// on the kernel as in the formula; and one no SG pair trips over fails
/// in the possible part.
#[test]
fn optimized_join_reports_the_formulas_error() {
    let l = join_side(["a", "p"], 1100, &int_key, |i| i % 11 == 0);
    let r = join_side(["b", "q"], 45, &int_key, |i| i % 6 == 0);
    // `q` spans zero in some row: a range division error in both parts
    let by_q = col(0).div(col(3)).leq(lit(1i64));
    // certain keys never are 24: only a bucket's box spans the zero
    let by_box = col(2).div(col(0).sub(lit(24i64))).leq(lit(1i64));
    for pred in [by_q, by_box] {
        for ct in [1usize, 5] {
            let want = optimized_join_literal(&l, &r, Some(&pred), ct, &executor(1)).unwrap_err();
            for workers in [1usize, 2, 4] {
                let got = optimized_join_exec(&l, &r, Some(&pred), ct, &executor(workers));
                assert_eq!(got.unwrap_err(), want, "{pred}, ct = {ct}, workers = {workers}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (iv) ground truth: a three-join chain bounds every world
// ---------------------------------------------------------------------------

/// Four tables chained by three keys, ~2 000 certain rows in all, and on
/// every side of every join key one x-tuple whose alternatives differ in
/// that key (one of them optional): 128 worlds.
fn chain_xdb() -> XDb {
    let row = |vals: [i64; 2]| vals.into_iter().collect::<Tuple>();
    let certain = |n: i64, f: &dyn Fn(i64) -> [i64; 2]| -> Vec<XTuple> {
        (0..n).map(|i| XTuple::certain(row(f(i)))).collect()
    };
    let either =
        |a: [i64; 2], b: [i64; 2], total: f64| weighted_xtuple(vec![row(a), row(b)], total);
    let mut db = XDb::default();
    let mut table = |name: &str, cols: [&str; 2], mut rows: Vec<XTuple>, extra: Vec<XTuple>| {
        rows.extend(extra);
        db.insert(name, XRelation::new(Schema::named(&cols), rows));
    };
    // t0(k0, x) — t1(k0, k1) — t2(k1, k2) — t3(k2, y)
    table("t0", ["k0", "x"], certain(500, &|i| [i % 50, i % 4]), vec![either([3, 1], [7, 2], 1.0)]);
    table(
        "t1",
        ["k0", "k1"],
        certain(500, &|i| [i % 50, i % 40]),
        vec![either([5, 2], [9, 2], 1.0), either([4, 11], [4, 17], 0.5)],
    );
    table(
        "t2",
        ["k1", "k2"],
        certain(500, &|i| [i % 40, i % 30]),
        vec![either([2, 6], [12, 6], 1.0), either([8, 1], [8, 21], 1.0)],
    );
    table(
        "t3",
        ["k2", "y"],
        certain(500, &|i| [i % 30, i % 6]),
        vec![either([6, 9], [13, 9], 1.0)],
    );
    db
}

/// The AU result of a three-join chain under γ bounds the result in
/// every world — on the default (lanes) path, whatever compresses:
/// `compressed(2)` / `compressed(64)` as configured (adaptive) and with
/// the verdicts forced, so that every join runs split/compress over
/// thousands of rows.
#[test]
fn three_join_chain_bounds_every_world_when_compressed() {
    let db = chain_xdb();
    assert!(db.to_incomplete(512).is_some(), "few enough worlds to enumerate");
    let q = table("t0")
        .join_on(table("t1"), col(0).eq(col(2)))
        .join_on(table("t2"), col(3).eq(col(4)))
        .join_on(table("t3"), col(5).eq(col(6)))
        .select(col(7).lt(lit(5i64)))
        .aggregate(vec![1], vec![AggSpec::new(AggFunc::Sum, col(7), "s"), AggSpec::count("c")]);
    for ct in [2usize, 64] {
        let adaptive = AuConfig::compressed(ct);
        for cfg in [adaptive, AuConfig { adaptive: false, ..adaptive }] {
            check_bounds(&db, &q, &cfg.with_workers(2)).unwrap();
        }
    }
}
