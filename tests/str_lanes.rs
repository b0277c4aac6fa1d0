//! `Str` lanes against the cells they hold. A string column is a lane of
//! `u32` codes into a sorted dictionary, and every operation on it is
//! checked here against the `RangeValue` semantics of the materialized
//! cells: the comparison kernels against the `range_*` combinators (the
//! interpreter, `Expr::eval_range`) — lane against lane over one
//! dictionary and over two, lane against a literal present in the
//! dictionary, absent from it, below or above every string, or empty —
//! and the per-cell operations (`sg_cmp`, `cells_cmp`, `cells_eq`,
//! `overlaps`, `group_boxes`, `gather_sg`), `append` across
//! two dictionaries and the packed sort keys of normalization against
//! `RangeValue`'s own order, equality and `extend_keep_sg`.

use std::sync::Arc;

use proptest::prelude::*;

use audb::core::{LaneBatch, LaneSlice, LaneTag, Program, StrDict, ValueLane};
use audb::prelude::*;
use audb::storage::{GatherView, IntervalIndex};

/// Lower-case words in sorted order, two of them past a 16-byte shared
/// prefix (where a boxed packed key stops ordering) and one a prefix of
/// another.
const WORDS: [&str; 9] = [
    "a",
    "ab",
    "abc",
    "b",
    "m",
    "one shared prefix, then a",
    "one shared prefix, then b",
    "one shared prefix, then b!",
    "zz",
];

/// Strings no column holds: one between two words, one below and one
/// above all of them, and the empty string (below everything).
const ABSENT: [&str; 4] = ["abb", "A", "~~", ""];

fn word() -> impl Strategy<Value = Value> {
    (0..WORDS.len()).prop_map(|i| Value::str(WORDS[i]))
}

/// A certain string, or a sorted triple of words.
fn str_cell() -> impl Strategy<Value = RangeValue> {
    prop_oneof![
        word().prop_map(RangeValue::certain),
        (word(), word(), word()).prop_map(|(a, b, c)| {
            let mut v = [a, b, c];
            v.sort();
            let [lb, sg, ub] = v;
            RangeValue::new(lb, sg, ub).expect("a sorted triple is a range")
        }),
    ]
}

fn str_column(max: usize) -> impl Strategy<Value = Vec<RangeValue>> {
    proptest::collection::vec(str_cell(), 1..max)
}

fn str_lane(cells: &[RangeValue]) -> ValueLane {
    let lane = ValueLane::from_cells(cells.iter());
    assert_eq!(lane.tag(), LaneTag::Str, "a column of strings is a Str lane");
    lane
}

fn dict<'a>(lane: &LaneSlice<'a>) -> &'a Arc<StrDict> {
    match *lane {
        LaneSlice::Str { dict, .. } => dict,
        other => panic!("{:?} is not a Str lane", other.tag()),
    }
}

fn cells(lane: &ValueLane) -> Vec<RangeValue> {
    (0..lane.len()).map(|i| lane.get(i)).collect()
}

/// Run `e` over the lanes `cols` and compare every row with the
/// interpreter on the materialized cells; no op may demote.
fn check_kernel(e: &Expr, cols: &[LaneSlice<'_>], ctx: &str) -> Result<(), TestCaseError> {
    let n = cols[0].len();
    let prog = Program::compile_range(e);
    let mut batch = LaneBatch::default();
    prog.eval_range_lanes(cols, n, &mut batch, None).expect("no cancellation");
    prop_assert_eq!(batch.demotions(), 0, "{} demoted: {}", e, ctx);
    prop_assert_eq!(batch.poisoned(), 0, "{}: {}", e, ctx);
    let out = batch.output_lane(&prog, 0, cols);
    prop_assert_eq!(out.tag(), LaneTag::Bool, "{}: {}", e, ctx);
    for i in 0..n {
        let row: Vec<RangeValue> = cols.iter().map(|c| c.get(i)).collect();
        let want = e.eval_range(&row).expect("strings compare");
        prop_assert_eq!(out.get(i), want, "{} at row {:?}: {}", e, row, ctx);
    }
    Ok(())
}

/// Every comparison of the two columns, both ways round.
fn comparisons(a: Expr, b: Expr) -> Vec<Expr> {
    vec![
        a.clone().eq(b.clone()),
        a.clone().neq(b.clone()),
        a.clone().leq(b.clone()),
        a.clone().lt(b.clone()),
        a.clone().geq(b.clone()),
        a.gt(b.clone()),
        b.clone().lt(col(0)),
        b.leq(col(0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `k_eq` / `k_leq` / `k_lt` of two `Str` lanes — two dictionaries
    /// (each column its own), and one (both columns in one lane) — are
    /// the combinators on the cells, and never demote.
    #[test]
    fn lane_against_lane_is_the_combinator(a in str_column(24), b in str_column(24)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let (la, lb) = (str_lane(a), str_lane(b));
        let both = str_lane(&[a, b].concat());
        let shared = [both.slice(0..n), both.slice(n..2 * n)];
        prop_assert!(shared[0].typed_alike(&shared[1]));
        prop_assert_eq!(la.as_slice().typed_alike(&lb.as_slice()), false);
        for e in comparisons(col(0), col(1)) {
            check_kernel(&e, &[la.as_slice(), lb.as_slice()], "two dictionaries")?;
            check_kernel(&e, &shared, "one dictionary")?;
        }
    }

    /// A `Str` lane against a literal — a string of the column, one
    /// between two of its strings, one below and one above all of them,
    /// the empty string — is the combinator: the literal is a one-entry
    /// dictionary placed among the lane's codes.
    #[test]
    fn lane_against_literal_is_the_combinator(a in str_column(24), pick in 0usize..24) {
        let lane = str_lane(&a);
        let present = a[pick % a.len()].sg.clone();
        let literals = std::iter::once(present).chain(ABSENT.into_iter().map(Value::str));
        for s in literals {
            for e in comparisons(col(0), lit(s.clone())) {
                check_kernel(&e, &[lane.as_slice()], &format!("literal {s:?}"))?;
            }
        }
    }

    /// Per-cell order, equality, certainty and overlap on one lane
    /// (and overlap across two dictionaries) are `RangeValue`'s.
    #[test]
    fn cell_operations_are_the_range_values(a in str_column(20), b in str_column(20)) {
        let (la, lb) = (str_lane(&a), str_lane(&b));
        let (s, t) = (la.as_slice(), lb.as_slice());
        for (i, x) in a.iter().enumerate() {
            prop_assert_eq!(s.get(i), x.clone());
            prop_assert_eq!(s.is_certain(i), x.is_certain());
            for (j, y) in a.iter().enumerate() {
                prop_assert_eq!(s.sg_cmp(i, j), x.sg.cmp(&y.sg), "{} vs {}", x, y);
                prop_assert_eq!(s.sg_eq(i, j), x.sg == y.sg, "{} vs {}", x, y);
                prop_assert_eq!(s.cells_cmp(i, j), x.cmp(y), "{} vs {}", x, y);
                prop_assert_eq!(s.cells_eq(i, j), x == y, "{} vs {}", x, y);
                prop_assert_eq!(s.overlaps(i, &s, j), x.overlaps(y), "{} vs {}", x, y);
            }
            for (j, y) in b.iter().enumerate() {
                prop_assert_eq!(s.overlaps(i, &t, j), x.overlaps(y), "{} vs {}", x, y);
            }
        }
    }

    /// Group boxes widen by `extend_keep_sg` in member order, and
    /// `split_sg`'s gather is the certain cells of the selected guesses;
    /// both keep the dictionary.
    #[test]
    fn group_boxes_and_gather_sg_are_the_range_values(
        a in str_column(30),
        groups in proptest::collection::vec(0u32..5, 30),
        picks in proptest::collection::vec(0usize..30, 0..12),
    ) {
        let lane = str_lane(&a);
        let s = lane.as_slice();
        // renumber the groups in first-appearance order, as grouping does
        let (mut of_row, mut firsts) = (Vec::new(), Vec::<u32>::new());
        let mut seen: Vec<Option<u32>> = vec![None; 5];
        for (i, &g) in groups.iter().take(a.len()).enumerate() {
            let id = *seen[g as usize].get_or_insert_with(|| {
                firsts.push(i as u32);
                firsts.len() as u32 - 1
            });
            of_row.push(id);
        }
        let members = (0..a.len()).zip(of_row.iter().copied());
        let boxes = s.group_boxes(&firsts, members.clone());
        prop_assert!(Arc::ptr_eq(dict(&boxes.as_slice()), dict(&s)));
        let mut want: Vec<RangeValue> = firsts.iter().map(|&i| a[i as usize].clone()).collect();
        members.for_each(|(i, g)| want[g as usize].extend_keep_sg(&a[i]));
        prop_assert_eq!(cells(&boxes), want);

        let idx: Vec<u32> = picks.iter().map(|&p| (p % a.len()) as u32).collect();
        let sg = s.gather_sg(&idx);
        prop_assert!(Arc::ptr_eq(dict(&sg.as_slice()), dict(&s)));
        let want: Vec<RangeValue> =
            idx.iter().map(|&i| RangeValue::certain(a[i as usize].sg.clone())).collect();
        prop_assert_eq!(cells(&sg), want);
    }

    /// `append` of a lane of another dictionary stays `Str`, over the
    /// union of the two, and holds the cells of both in order; one whose
    /// strings the lane's dictionary already holds keeps that dictionary.
    #[test]
    fn append_across_dictionaries_is_concatenation(
        a in str_column(20),
        b in str_column(20),
        picks in proptest::collection::vec(0usize..20, 0..10),
    ) {
        let (la, lb) = (str_lane(&a), str_lane(&b));
        let rows: Vec<u32> = picks.iter().map(|&p| (p % b.len()) as u32).collect();
        let mut lane = la.clone();
        lane.append(&lb.as_slice(), Some(&rows));
        lane.append(&lb.as_slice(), None);
        prop_assert_eq!(lane.tag(), LaneTag::Str);
        let mut want = a.clone();
        want.extend(rows.iter().map(|&i| b[i as usize].clone()));
        want.extend(b.iter().cloned());
        prop_assert_eq!(cells(&lane), want);

        let before = Arc::clone(dict(&lane.as_slice()));
        let sub = str_lane(&a[..1]);
        lane.append(&sub.as_slice(), None);
        prop_assert!(Arc::ptr_eq(dict(&lane.as_slice()), &before), "a subset keeps the dictionary");
    }

    /// Normalizing rows that are still a gather view over a `Str` lane
    /// and an `Int` one — strings sharing a ≥ 16-byte prefix, duplicates,
    /// an index on the string column — is normalizing the materialized
    /// rows: the packed key of a `Str` component orders it exactly.
    #[test]
    fn packed_keys_order_str_lanes_like_the_tuples(
        a in str_column(40),
        ints in proptest::collection::vec(0i64..3, 40),
        back in proptest::collection::vec(0usize..40, 40),
    ) {
        let n = a.len();
        let strs = str_lane(&a);
        let ints: Vec<RangeValue> = ints[..n].iter().map(|&v| RangeValue::certain(v)).collect();
        let ints = ValueLane::from_cells(ints.iter());
        let idx: Vec<u32> = back[..n].iter().map(|&i| (i % n) as u32).collect();
        let view = GatherView::new(vec![(strs.as_slice(), Some(&idx)), (ints.as_slice(), None)]);
        prop_assert_eq!(view.typed_cols(), (2, 2));
        let annots = vec![AuAnnot::triple(0, 1, 1); n];
        let listed = || (0..n as u32).map(|i| (i, AuAnnot::triple(0, 1, 1)));
        let kept = AuRelation::normalized_view_rows(&view, &annots, &Executor::sequential())
            .expect("an ungoverned normalization");
        let mut want = AuRelation::empty(Schema::named(&["s", "i"]));
        want.append_rows(view.tuples(listed()));
        prop_assert_eq!(view.tuples(kept.into_iter()), want.into_normalized().rows().to_vec());
    }
}

/// Interval sweeps over `Str` endpoints — one dictionary (typed codes)
/// or two (boxed strings) — pair exactly the overlapping cells.
fn check_sweeps(l: LaneSlice<'_>, r: LaneSlice<'_>) -> Result<(), TestCaseError> {
    let (li, ri) = (IntervalIndex::from_lane(l), IntervalIndex::from_lane(r));
    let mut got = Vec::new();
    IntervalIndex::sweep_overlapping(&li, &ri, |a, b| got.push((a, b)));
    got.sort_unstable();
    let mut want = Vec::new();
    for i in 0..l.len() {
        for j in 0..r.len() {
            if l.get(i).overlaps(&r.get(j)) {
                want.push((i as u32, j as u32));
            }
        }
    }
    prop_assert_eq!(got, want, "typed codes: {}", l.typed_alike(&r));
    let mut got = Vec::new();
    IntervalIndex::sweep_lb_below_ub(&li, &ri, |a, b| got.push((a, b)));
    got.sort_unstable();
    let mut want = Vec::new();
    for i in 0..l.len() {
        for j in 0..r.len() {
            if l.get(i).lb <= r.get(j).ub {
                want.push((i as u32, j as u32));
            }
        }
    }
    prop_assert_eq!(got, want, "typed codes: {}", l.typed_alike(&r));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Sweeps between two columns drawn from different word subsets, so
    /// that their dictionaries number the strings differently.
    #[test]
    fn sweeps_pair_overlapping_str_cells(
        a in str_column(16),
        b in str_column(16),
        skip in 0usize..WORDS.len(),
    ) {
        let not_skipped = |c: &&RangeValue| c.lb != Value::str(WORDS[skip]);
        let b: Vec<RangeValue> = b.iter().filter(not_skipped).cloned().collect();
        if b.is_empty() {
            return Ok(());
        }
        let (la, lb) = (str_lane(&a), str_lane(&b));
        check_sweeps(la.as_slice(), lb.as_slice())?;
        let both = str_lane(&[&a[..], &b[..]].concat());
        check_sweeps(both.slice(0..a.len()), both.slice(a.len()..a.len() + b.len()))?;
    }
}

/// A dictionary past 256 strings: codes need more than their low byte,
/// and normalization over the packed keys still orders them.
#[test]
fn packed_keys_order_codes_past_one_byte() {
    let text = |i: usize| RangeValue::certain(Value::str(format!("s{i:03}")));
    let cells: Vec<RangeValue> = (0..300).rev().map(text).collect();
    let lane = str_lane(&cells);
    let view = GatherView::new(vec![(lane.as_slice(), None)]);
    let annots = vec![AuAnnot::certain_one(); cells.len()];
    let kept = AuRelation::normalized_view_rows(&view, &annots, &Executor::sequential()).unwrap();
    let got: Vec<RangeValue> = kept.iter().map(|&(i, _)| cells[i as usize].clone()).collect();
    let mut want = cells.clone();
    want.sort();
    assert_eq!(got, want);
}

/// The placement a cross-dictionary comparison reads: a present string
/// lands on its doubled code, an absent one on the odd code between its
/// neighbours.
#[test]
fn place_doubles_present_codes_and_splits_the_gap_for_absent_ones() {
    let cells: Vec<RangeValue> = ["b", "d"].map(|s| RangeValue::certain(Value::str(s))).to_vec();
    let lane = str_lane(&cells);
    let d = dict(&lane.as_slice());
    let placed = ["a", "b", "c", "d", "e", ""].map(|s| d.place(&Value::str(s)));
    assert_eq!(placed, [-1, 0, 1, 2, 3, -1]);
}

/// Two columns of thousands of distinct strings each — two dictionaries
/// far larger than a chunk, numbering the strings differently — compared
/// chunk by chunk, as a chain runs them: a chunk compares its own cells
/// string against string instead of placing a whole dictionary, and each
/// comparison is still the combinator's. A σ comparing
/// the two columns of one relation, across the 1 024-row seams, is the
/// oracle plan's.
#[test]
fn large_dictionaries_compare_chunk_by_chunk() {
    let n = 5000;
    let text = |i: usize| Value::str(format!("s{:05}", (i * 7919) % 9973));
    let a: Vec<RangeValue> = (0..n).map(|i| RangeValue::certain(text(2 * i))).collect();
    let b: Vec<RangeValue> = (0..n)
        .map(|i| match i % 5 {
            0 => RangeValue::new(text(2 * i), text(2 * i + 1), text(2 * i + 1)).unwrap_or_else(
                |_| RangeValue::new(text(2 * i + 1), text(2 * i + 1), text(2 * i)).unwrap(),
            ),
            _ => RangeValue::certain(text(2 * i + 1)),
        })
        .collect();
    let (la, lb) = (str_lane(&a), str_lane(&b));
    assert!(dict(&lb.as_slice()).values().len() > 3 * 1024, "the dictionary outgrows a chunk");
    for start in (0..n).step_by(1024) {
        let r = start..(start + 1024).min(n);
        for e in comparisons(col(0), col(1)) {
            let ctx = format!("chunk {r:?}");
            check_kernel(&e, &[la.slice(r.clone()), lb.slice(r.clone())], &ctx).unwrap();
        }
    }

    let rows =
        a.into_iter().zip(b).map(|(x, y)| (RangeTuple::new(vec![x, y]), AuAnnot::certain_one()));
    let mut db = AuDatabase::new();
    db.insert("t", AuRelation::from_rows(Schema::named(&["a", "b"]), rows.collect()));
    let cfg = AuConfig::compressed(64).with_workers(1);
    for q in [table("t").select(col(0).lt(col(1))), table("t").select(col(1).leq(col(0)))] {
        let (out, trace) = eval_au_traced(&db, &q, &cfg).unwrap();
        assert_eq!(trace.metrics.counter("chain_stages_boxed"), Some(0));
        let oracle = AuPlan::oracle(&q, &cfg, &TraceBuilder::disabled());
        let want = oracle.run(&db, &cfg.executor(), &TraceBuilder::disabled()).unwrap();
        assert!(!want.is_empty() && want.len() < n, "{} of {n} rows pass", want.len());
        assert_eq!(out, want);
    }
}

/// The five TPC-H queries of `tpch_ct64` — its scale, its uncertainty,
/// `compressed(64)` at one worker — never leave the typed lanes for a
/// string: Q1 groups on two `Str` keys, Q3/Q5/Q10 select on `Str`
/// literals, Q7 normalizes a union that carries three string columns,
/// and no group key, stage or probe key is boxed. Each result is the
/// oracle plan's (operator-at-a-time on rows).
#[test]
fn tpch_strings_stay_on_typed_lanes() {
    use audb::workloads::{gen_tpch, inject_uncertainty, tpch_queries, TpchConfig};
    let db = inject_uncertainty(&gen_tpch(TpchConfig::new(0.55, 40)), 0.02, 8, 41).to_au();
    db.warm_columns();
    let cfg = AuConfig::compressed(64).with_workers(1);
    for (name, q) in tpch_queries() {
        let (out, trace) = eval_au_traced(&db, &q, &cfg).unwrap();
        for counter in ["agg_keys_boxed", "chain_stages_boxed", "probe_keys_boxed"] {
            assert_eq!(trace.metrics.counter(counter), Some(0), "{name}: {counter}");
        }
        let oracle = AuPlan::oracle(&q, &cfg, &TraceBuilder::disabled());
        let want = oracle.run(&db, &cfg.executor(), &TraceBuilder::disabled()).unwrap();
        assert_eq!(out, want, "{name}: lanes vs oracle");
    }
}
