//! Compaction optimizations (Sections 10.4–10.5): `split` and `Cpr`.
//!
//! Joins over AU-relations degenerate to interval-overlap joins (nested
//! loops, potentially quadratic output). The optimized join splits each
//! input into
//!
//! * `split_sg(R)` — the SGW content with attribute-level uncertainty
//!   removed (certain attribute values, no possible over-approximation),
//!   which equi-joins efficiently, and
//! * `split↑(R)` — the possible over-approximation only (annotations
//!   `(0, 0, ub)`), which is *compressed* to at most `ct` tuples by
//!   bucketing on a join attribute before the quadratic overlap join.
//!
//! `split_sg(R) ∪ split↑(R)` bounds everything `R` bounds (Lemma 6);
//! `Cpr` preserves bounds (Lemma 7); hence the optimized join preserves
//! bounds with precision traded for performance (Lemma 10.1).
//!
//! The formula exists twice. [`split_sg`], [`split_up`], [`compress`] and
//! [`optimized_join_literal`] are Section 10.4 as written, over
//! materialized, normalized row relations — the differential oracle.
//! [`optimized_join_exec`] is the kernel, and never builds a tuple: both
//! splits are derived lanes of the inputs' column sets
//! (`split_sg_lanes`, [`compress_bag`] over an un-normalized input,
//! [`compress_lanes`] — the one `Cpr` aggregation's possible side
//! compresses with, too), the two joins are two ordinary
//! fused probe chains (`au::pipeline::probe_join_pairs`) whose pairs are
//! concatenated as row ids, and the one normalization — of the union —
//! runs on row handles over those lanes. Neither split is normalized on the
//! way: `⊗` distributes over `⊕` in `N_AU`, so merging duplicates before
//! or after the SG join sums to the same annotation, and `Cpr` merges
//! `split↑`'s duplicates in the normalization sort, then orders the
//! survivors into buckets.

use std::sync::Arc;

use audb_core::obs::{Counter, TraceBuilder};
use audb_core::{AuAnnot, EvalError, ExecError, Expr, RangeValue, Semiring};
use audb_exec::Executor;
use audb_storage::{AnnotColumn, AuRelation, ColumnSet, GatherView, RangeTuple};

use crate::au::lanes_of;
use crate::au::pipeline::{probe_join_pairs, Stage};
use crate::planner::{classify_within, join_au_planned_exec, JoinStrategy};
use crate::vcheck::Vet;

/// `split_sg(R)` (Section 10.4), in normal form: one certain-attribute
/// tuple per SGW tuple. The lower bound survives only for tuples without
/// attribute uncertainty; the upper bound collapses to the SG
/// multiplicity.
pub fn split_sg(rel: &AuRelation) -> AuRelation {
    sg_rows(rel).into_normalized()
}

/// The rows of [`split_sg`] before the merge.
fn sg_rows(rel: &AuRelation) -> AuRelation {
    let mut out = AuRelation::empty(rel.schema.clone());
    for (t, k) in rel.rows().iter().filter(|(_, k)| k.sg > 0) {
        let lb = if t.is_certain() { k.lb } else { 0 };
        let sg = t.0.iter().map(|cell| RangeValue::certain(cell.sg.clone())).collect();
        out.push(RangeTuple::new(sg), AuAnnot::triple(lb.min(k.sg), k.sg, k.sg));
    }
    out
}

/// The rows of [`split_sg`] before any merge, on lanes: the rows with
/// `sg > 0`, every lane collapsed to its selected guess (a typed lane
/// stays typed), annotated `(lb if the row is certain else 0, sg, sg)`.
fn split_sg_lanes(cs: &ColumnSet) -> ColumnSet {
    let (cells, k) = (cs.lane_slices(), cs.annots());
    let keep: Vec<u32> = (0..cs.nrows() as u32).filter(|&i| k.sg[i as usize] > 0).collect();
    let collapsed = cells.iter().map(|lane| lane.gather_sg(&keep));
    let mut annots = AnnotColumn::default();
    for i in keep.iter().map(|&i| i as usize) {
        let lb = if cells.iter().all(|lane| lane.is_certain(i)) { k.lb[i] } else { 0 };
        annots.push(AuAnnot::triple(lb.min(k.sg[i]), k.sg[i], k.sg[i]));
    }
    ColumnSet::new(collapsed.collect(), annots)
}

/// `split↑(R)` (Section 10.4): the possible over-approximation —
/// original ranges, annotations `(0, 0, ub)`.
pub fn split_up(rel: &AuRelation) -> AuRelation {
    up_rows(rel).into_normalized()
}

/// The rows of [`split_up`] before the merge.
fn up_rows(rel: &AuRelation) -> AuRelation {
    let mut out = AuRelation::empty(rel.schema.clone());
    for (t, k) in rel.rows() {
        out.push(t.clone(), AuAnnot::triple(0, 0, k.ub));
    }
    out
}

/// `Cpr_{A,n}` (Section 10.4) over the rows named by `ids`, projected
/// onto `cols`: partition into at most `n` buckets by the selected-guess
/// value of attribute `attr` (equi-depth; ties keep the order of `ids`),
/// merging each bucket into a single tuple with the bucket's bounding box
/// and the sum of upper-bound multiplicities. The row-at-a-time form —
/// the oracle of [`compress_lanes`].
pub fn compress_rows(
    rows: &[(RangeTuple, AuAnnot)],
    ids: &[u32],
    cols: &[usize],
    attr: usize,
    n: usize,
) -> Vec<(RangeTuple, AuAnnot)> {
    let tuple = |i: u32| &rows[i as usize].0;
    let n = n.max(1);
    let mut ids = ids.to_vec();
    if ids.len() > n {
        ids.sort_by(|a, b| tuple(*a).0[attr].sg.cmp(&tuple(*b).0[attr].sg));
    }
    let bucket = |members: &[u32]| {
        let mut bbox = tuple(members[0]).project(cols);
        let mut ub = 0u64;
        for &i in members {
            for (b, c) in bbox.0.iter_mut().zip(cols) {
                b.extend_keep_sg(&tuple(i).0[*c]);
            }
            ub = ub.plus(&rows[i as usize].1.ub);
        }
        (bbox, AuAnnot::triple(0, 0, ub))
    };
    ids.chunks(ids.len().div_ceil(n).max(1)).map(bucket).collect()
}

/// `Cpr_{A,n}` as a relation-level operator.
pub fn compress(rel: &AuRelation, attr: usize, n: usize) -> AuRelation {
    bucket_rows(rel, attr, n).into_normalized()
}

/// The rows of [`compress`] before the merge.
fn bucket_rows(rel: &AuRelation, attr: usize, n: usize) -> AuRelation {
    let ids: Vec<u32> = (0..rel.len() as u32).collect();
    let cols: Vec<usize> = (0..rel.schema.arity()).collect();
    let mut out = AuRelation::empty(rel.schema.clone());
    out.append_rows(compress_rows(rel.rows(), &ids, &cols, attr, n));
    out
}

/// `Cpr_{attr,n}` on lanes — the one `Cpr` of ⋈ and γ: rows `ids` of
/// `cs`, a *list* in that order, projected onto `cols`, as at most `n`
/// bucket rows annotated `(0, 0, Σ ub)`. The members are ordered by the
/// selected guess of `attr` — ties keep the list's order, a list of at
/// most `n` rows is left as it is (aggregation folds in member order; a
/// normalized relation's rows) — chunked equi-depth, and every bucket's
/// box is taken per column ([`LaneSlice::group_boxes`]:
/// `extend_keep_sg`'s rule, in member order) — cell for cell the
/// buckets of [`compress_rows`].
///
/// [`LaneSlice::group_boxes`]: audb_core::LaneSlice::group_boxes
pub fn compress_lanes(
    cs: &ColumnSet,
    ids: &[u32],
    cols: &[usize],
    attr: usize,
    n: usize,
) -> ColumnSet {
    let ub = &cs.annots().ub;
    let mut srcs: Vec<(u32, u64)> = ids.iter().map(|&i| (i, ub[i as usize])).collect();
    if srcs.len() > n.max(1) {
        sort_by_sg(cs, attr, &mut srcs);
    }
    buckets(cs, &srcs, cols, n)
}

/// `Cpr_{attr,n}(split↑(R))` on `R`'s lanes `cs`, a *bag* in no order:
/// its rows annotated `(0, 0, ub)`, normalized on `exec` (equal rows
/// merge into one member, their `ub`s add), then stably sorted by the
/// selected guess of `attr` — the stable sort by `attr` of the
/// tuple-sorted, duplicate-merged list — and bucketed as
/// [`compress_lanes`] does, over every column.
pub fn compress_bag(
    cs: &ColumnSet,
    attr: usize,
    n: usize,
    exec: &Executor,
) -> Result<ColumnSet, ExecError> {
    let view = GatherView::new(cs.lane_slices().into_iter().map(|l| (l, None)).collect());
    let up: Vec<AuAnnot> = cs.annots().ub.iter().map(|&ub| AuAnnot::triple(0, 0, ub)).collect();
    let merged = AuRelation::normalized_view_rows(&view, &up, exec)?;
    let mut srcs: Vec<(u32, u64)> = merged.into_iter().map(|(i, k)| (i, k.ub)).collect();
    sort_by_sg(cs, attr, &mut srcs);
    Ok(buckets(cs, &srcs, &(0..cs.arity()).collect::<Vec<_>>(), n))
}

/// Stable sort of bucket members by the selected guess of `attr`.
fn sort_by_sg(cs: &ColumnSet, attr: usize, srcs: &mut [(u32, u64)]) {
    let key = cs.lane(attr).as_slice();
    srcs.sort_by(|a, b| key.sg_cmp(a.0 as usize, b.0 as usize));
}

/// The members `srcs` (row, `ub`), in order, chunked equi-depth into at
/// most `n` buckets over `cols`.
fn buckets(cs: &ColumnSet, srcs: &[(u32, u64)], cols: &[usize], n: usize) -> ColumnSet {
    let depth = srcs.len().div_ceil(n.max(1)).max(1);
    let firsts: Vec<u32> = srcs.iter().step_by(depth).map(|s| s.0).collect();
    let members = srcs.iter().enumerate().map(|(m, s)| (s.0 as usize, (m / depth) as u32));
    let boxes = cols.iter().map(|&c| cs.lane(c).as_slice().group_boxes(&firsts, members.clone()));
    let mut annots = AnnotColumn::default();
    for bucket in srcs.chunks(depth) {
        annots.push(AuAnnot::triple(0, 0, bucket.iter().fold(0, |ub, s| ub.plus(&s.1))));
    }
    ColumnSet::new(boxes.collect(), annots)
}

/// The bucket attribute of each side: the first equality pair of the
/// predicate, else the first column — else also when a key is past the
/// right side (the join then re-checks every pair and reports it).
fn bucket_attrs(predicate: Option<&Expr>, l: &AuRelation, r: &AuRelation) -> (usize, usize) {
    match classify_within(predicate, l.schema.arity(), r.schema.arity()) {
        JoinStrategy::HashEqui(pairs) => pairs[0],
        _ => (0, 0),
    }
}

/// The optimized join `opt(Q1 ⋈_θ Q2)` (Section 10.4):
/// `(split_sg(L) ⋈_θsg split_sg(R)) ∪ (Cpr(split↑(L)) ⋈_θ Cpr(split↑(R)))`.
///
/// Both parts run as probe chains: the SG part consists of fully certain
/// tuples, so an equality predicate takes the hash equi-join path and a
/// comparison takes the endpoint sweep; the compressed possible part has
/// at most `ct` tuples per side.
pub fn optimized_join(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    ct: usize,
) -> Result<AuRelation, EvalError> {
    optimized_join_exec(l, r, predicate, ct, &Executor::default())
}

/// [`optimized_join`] on an explicit executor (both probes shard over
/// its workers, and the one normalization — of the union — is governed
/// by it). The result is born columnar. A predicate program the Tier B
/// verifier rejects runs nowhere: the join evaluates on
/// [`optimized_join_literal`].
pub fn optimized_join_exec(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    ct: usize,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let tr = TraceBuilder::disabled();
    let recheck = match predicate.map(|p| Stage::filter(p, Vet::new(exec.metrics(), &tr))) {
        Some(None) => return optimized_join_literal(l, r, predicate, ct, exec),
        Some(Some(stage)) => Some(stage),
        None => None,
    };
    optimized_join_stats(l, r, recheck.as_ref(), ct, exec).map(|(out, _)| out)
}

/// Section 10.4 as written — [`split_sg`], [`split_up`] and [`compress`]
/// over materialized relations, each normalized (on `exec`: the oracle's
/// merges are governed like everything else it runs), and the planned
/// row join: what [`optimized_join_exec`] must equal, and the
/// operator-at-a-time oracle's compressing join.
pub fn optimized_join_literal(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    ct: usize,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let normal = |rel: AuRelation| rel.into_normalized_with(exec);
    let (la, ra) = bucket_attrs(predicate, l, r);
    let (sgl, sgr) = (normal(sg_rows(l))?, normal(sg_rows(r))?);
    let mut out = join_au_planned_exec(&sgl, &sgr, predicate, exec)?;
    let lup = normal(bucket_rows(&normal(up_rows(l))?, la, ct))?;
    let rup = normal(bucket_rows(&normal(up_rows(r))?, ra, ct))?;
    out.append_rows(join_au_planned_exec(&lup, &rup, predicate, exec)?.into_rows());
    Ok(normal(out)?)
}

/// What one split/compress join did — the `join` span's attributes
/// under `strategy = split-compress` (`docs/observability.md`): rows of
/// the SG⋈SG part, buckets each possible side compressed to, rows of the
/// possible⋈possible part (all before the final merge), and whether the
/// probes' indexes ran on typed key cells (`None`: a nested loop).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitJoinStats {
    pub(crate) sg_rows: usize,
    pub(crate) buckets_l: usize,
    pub(crate) buckets_r: usize,
    pub(crate) possible_rows: usize,
    pub(crate) keys_typed: Option<bool>,
}

/// [`optimized_join_exec`] with the predicate's re-check already
/// compiled, plus what the run did.
pub(crate) fn optimized_join_stats(
    l: &AuRelation,
    r: &AuRelation,
    recheck: Option<&Stage>,
    ct: usize,
    exec: &Executor,
) -> Result<(AuRelation, SplitJoinStats), EvalError> {
    let (la, ra) = bucket_attrs(recheck.map(Stage::predicate), l, r);
    // Per side: its two splits, each a relation born of its lanes (what
    // a probe chain runs over).
    let split = |rel: &AuRelation, attr: usize| {
        let cs = lanes_of(rel, exec);
        let up = if rel.is_normalized() {
            let all: Vec<u32> = (0..cs.nrows() as u32).collect();
            compress_lanes(&cs, &all, &(0..cs.arity()).collect::<Vec<_>>(), attr, ct)
        } else {
            compress_bag(&cs, attr, ct, exec)?
        };
        Ok::<_, ExecError>(
            [split_sg_lanes(&cs), up]
                .map(|cs| AuRelation::from_columns(rel.schema.clone(), Arc::new(cs), false)),
        )
    };
    let ([sgl, lup], [sgr, rup]) = (split(l, la)?, split(r, ra)?);

    // ---- SG part: certain tuples; possible part: compressed overlap join ---
    let (mut pairs, keys_typed) = probe_join_pairs(&sgl, &sgr, recheck, exec)?;
    let (more, _) = probe_join_pairs(&lup, &rup, recheck, exec)?;
    let stats = SplitJoinStats {
        sg_rows: pairs.annots.len(),
        buckets_l: lup.len(),
        buckets_r: rup.len(),
        possible_rows: more.annots.len(),
        keys_typed,
    };
    if keys_typed == Some(false) {
        exec.metrics().add(Counter::ProbeKeysBoxed, 1);
    }

    // ---- the union, normalized once on row handles -------------------------
    // One row list over one pair of column sets: each side's buckets
    // follow its SG rows, the possible pairs' ids shift accordingly.
    pairs.lids.extend(more.lids.iter().map(|i| i + sgl.len() as u32));
    pairs.rids.extend(more.rids.iter().map(|i| i + sgr.len() as u32));
    pairs.annots.extend(more.annots);
    let with_buckets = |sg: AuRelation, up: AuRelation| {
        let lanes = sg.columns();
        drop(sg);
        let mut lanes = Arc::unwrap_or_clone(lanes);
        lanes.append(&up.columns());
        lanes
    };
    let (left, right) = (with_buckets(sgl, lup), with_buckets(sgr, rup));
    let of_left = left.lanes().iter().map(|lane| (lane.as_slice(), Some(&pairs.lids[..])));
    let of_right = right.lanes().iter().map(|lane| (lane.as_slice(), Some(&pairs.rids[..])));
    let view = GatherView::new(of_left.chain(of_right).collect());
    let merged = AuRelation::normalized_view_rows(&view, &pairs.annots, exec)?;
    let out = Arc::new(view.lanes(merged.into_iter()));
    Ok((AuRelation::from_columns(l.schema.concat(&r.schema), out, true), stats))
}

// ---------------------------------------------------------------------------
// Adaptive compression thresholds
// ---------------------------------------------------------------------------

/// Estimated uncertain-candidate work above which the join's
/// split/compress optimization pays for itself. Below it the precise
/// planned join is both faster (`BENCH_join_engine.json` records the
/// small-scale regression: the index-backed precise join beat every CT
/// variant at 500 × 500 with 5% uncertainty) and tighter.
pub const JOIN_COMPRESS_MIN_WORK: u64 = 1 << 20;

/// Should [`optimized_join`] be used over the precise planned join?
/// The cost the compression avoids is the band-filter work of the
/// uncertain rows: roughly (uncertain left × right) + (uncertain right
/// × left) candidate checks in the worst case.
pub fn join_compression_pays_off(l: &AuRelation, r: &AuRelation) -> bool {
    let lu = uncertain_row_count(l) as u64;
    let ru = uncertain_row_count(r) as u64;
    lu.saturating_mul(r.len() as u64).saturating_add(ru.saturating_mul(l.len() as u64))
        >= JOIN_COMPRESS_MIN_WORK
}

/// Uncertain rows below which aggregation compression is skipped even
/// when the count exceeds `ct` (the sweep-indexed membership makes
/// small possible sides cheap, and skipping keeps bounds tight).
pub const AGG_COMPRESS_MIN_UNCERTAIN: usize = 256;

/// Should aggregation compress its possible side to `ct` buckets?
/// Compression cannot shrink an input of at most `ct` uncertain rows
/// but *does* discard their lower/SG annotation components, so below
/// the threshold it is strictly worse.
pub fn agg_compression_pays_off(rel: &AuRelation, group_by: &[usize], ct: usize) -> bool {
    let threshold = AGG_COMPRESS_MIN_UNCERTAIN.max(ct.saturating_mul(4));
    !group_by.is_empty() && uncertain_rows(rel, group_by, threshold.saturating_add(1)) > threshold
}

fn uncertain_row_count(rel: &AuRelation) -> usize {
    let all: Vec<usize> = (0..rel.schema.arity()).collect();
    uncertain_rows(rel, &all, usize::MAX)
}

/// How many rows (counting up to `cap`) have an uncertain cell in some
/// column of `cols` — read off the lanes of a relation that has them (an
/// intermediate born columnar, a warmed table), off the tuples
/// otherwise: neither side is built to be counted.
fn uncertain_rows(rel: &AuRelation, cols: &[usize], cap: usize) -> usize {
    let cs = rel.has_columns().then(|| rel.columns());
    let lanes = cs.as_ref().map(|cs| cs.lane_slices());
    let certain = |i: usize, c: usize| match &lanes {
        Some(lanes) => lanes[c].is_certain(i),
        None => rel.rows()[i].0 .0[c].is_certain(),
    };
    (0..rel.len()).filter(|&i| !cols.iter().all(|&c| certain(i, c))).take(cap).count()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::au::join_au;
    use audb_core::{col, RangeValue, Value};
    use audb_storage::{au_row, Schema, Tuple};

    fn r2(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::range(lb, sg, ub)
    }

    fn figure_9_inputs() -> (AuRelation, AuRelation) {
        let r = AuRelation::from_rows(
            Schema::named(&["A"]),
            vec![au_row(vec![r2(1, 1, 2)], 2, 2, 3), au_row(vec![r2(1, 2, 2)], 1, 1, 2)],
        );
        let s = AuRelation::from_rows(
            Schema::named(&["C"]),
            vec![au_row(vec![r2(1, 3, 3)], 1, 1, 1), au_row(vec![r2(1, 2, 2)], 1, 2, 2)],
        );
        (r, s)
    }

    /// Figure 9: split_sg removes attribute uncertainty and possible
    /// over-approximation.
    #[test]
    fn split_sg_figure_9() {
        let (r, _) = figure_9_inputs();
        let out = split_sg(&r);
        assert_eq!(out.len(), 2);
        let one = RangeTuple::certain(&[1i64].into_iter().collect::<Tuple>());
        let two = RangeTuple::certain(&[2i64].into_iter().collect::<Tuple>());
        assert_eq!(out.annotation(&one), AuAnnot::triple(0, 2, 2));
        assert_eq!(out.annotation(&two), AuAnnot::triple(0, 1, 1));
    }

    #[test]
    fn split_up_figure_9() {
        let (r, _) = figure_9_inputs();
        let out = split_up(&r);
        assert_eq!(out.len(), 2);
        for (_, k) in out.rows() {
            assert_eq!((k.lb, k.sg), (0, 0));
        }
        assert_eq!(out.possible_size(), 5);
    }

    #[test]
    fn split_union_preserves_sgw() {
        let (r, _) = figure_9_inputs();
        let both = crate::au::union_au_exec(&split_sg(&r), &split_up(&r), &Executor::sequential())
            .unwrap();
        assert_eq!(both.sg_world(), r.sg_world());
    }

    /// Cpr_{A,1} merges everything into one bucket (Figure 9e/9f).
    #[test]
    fn compress_to_single_bucket() {
        let (r, _) = figure_9_inputs();
        let out = compress(&split_up(&r), 0, 1);
        assert_eq!(out.len(), 1);
        let (t, k) = &out.rows()[0];
        assert_eq!(t.0[0].lb, Value::Int(1));
        assert_eq!(t.0[0].ub, Value::Int(2));
        assert_eq!(*k, AuAnnot::triple(0, 0, 5));
    }

    /// `Cpr(split↑(R))` over an un-normalized bag is `compress_rows` over
    /// `split↑(R)`'s normal form — here a `BTreeMap` fold, which shares no
    /// sort key with the driver — bucket for bucket: rows repeated and
    /// equal rows from different sources, ties on the bucket attribute,
    /// and a boxed column whose long strings cut the packed keys short,
    /// at every worker count. A merge that trusts equal inexact keys
    /// without checking the rows fails here.
    #[test]
    fn compress_bag_is_compress_rows_over_split_up() {
        use audb_exec::Partitioner;
        use std::collections::BTreeMap;
        let long = |tail: usize| Value::str(format!("a prefix longer than any key, {tail}"));
        let rows: Vec<(RangeTuple, AuAnnot)> = (0..90usize)
            .map(|i| {
                let j = i % 30;
                let b = if j % 7 == 0 { Value::Int(j as i64) } else { long(j % 4) };
                let a = (j % 3) as i64;
                let t = RangeTuple::new(vec![
                    r2(a, a, 5),
                    RangeValue::certain(b),
                    r2(0, (j % 2) as i64, 1),
                ]);
                (t, AuAnnot::triple(0, 1, 1 + (i % 4) as u64))
            })
            .collect();
        let mut bag = AuRelation::empty(Schema::named(&["A", "B", "C"]));
        bag.append_rows(rows.clone());
        assert!(!bag.is_normalized());
        let mut fold: BTreeMap<RangeTuple, AuAnnot> = BTreeMap::new();
        for (t, k) in &rows {
            let acc = fold.entry(t.clone()).or_insert_with(AuAnnot::zero);
            *acc = acc.plus(&AuAnnot::triple(0, 0, k.ub));
        }
        let up: Vec<(RangeTuple, AuAnnot)> = fold.into_iter().collect();
        assert_eq!(split_up(&bag).rows(), &up[..]);
        let ids: Vec<u32> = (0..up.len() as u32).collect();
        let cs = bag.columns();
        for attr in [0, 2] {
            for n in [1, 4, 7] {
                let want = compress_rows(&up, &ids, &[0, 1, 2], attr, n);
                for w in [1, 2, 4] {
                    let exec = Executor::new(w).with_partitioner(Partitioner {
                        min_morsel: 1,
                        morsels_per_worker: 2,
                        min_rows_per_worker: 0,
                    });
                    let got = compress_bag(&cs, attr, n, &exec).unwrap();
                    assert_eq!(got.rows(), want, "attr {attr}, n = {n}, workers = {w}");
                }
            }
        }
    }

    #[test]
    fn compress_respects_bucket_count() {
        let rows: Vec<_> = (0..100i64).map(|i| au_row(vec![r2(i, i, i + 1)], 0, 1, 2)).collect();
        let rel = AuRelation::from_rows(Schema::named(&["A"]), rows);
        for ct in [1usize, 4, 16, 64, 128] {
            let c = compress(&rel, 0, ct);
            assert!(c.len() <= ct.clamp(1, 100));
            assert_eq!(c.possible_size(), rel.possible_size());
        }
    }

    /// Figure 9g: the optimized join keeps the SGW exact while bounding
    /// the possible results with (at most) CT² compressed tuples.
    #[test]
    fn optimized_join_figure_9() {
        let (r, s) = figure_9_inputs();
        let pred = col(0).eq(col(1));
        let naive = join_au(&r, &s, Some(&pred)).unwrap();
        let opt = optimized_join(&r, &s, Some(&pred), 1).unwrap();
        // SGW preserved exactly
        assert_eq!(opt.sg_world(), naive.sg_world());
        // possible size bounded by the compression: sg-part + 1 bucket pair
        assert!(opt.len() <= naive.len() + 1);
        // the compressed possible tuple covers the cross of bounding boxes
        let pos: Vec<_> = opt.rows().iter().filter(|(_, k)| k.lb == 0 && k.sg == 0).collect();
        assert_eq!(pos.len(), 1);
        assert_eq!(pos[0].1.ub, 5 * 3);
    }

    /// The copy-free form equals the literal Section 10.4 formula over
    /// the materialized, normalized splits — on un-normalized inputs with
    /// duplicate tuples, more rows than `ct` (real buckets) and fewer,
    /// for equality, comparison and cross joins.
    #[test]
    fn optimized_join_equals_the_literal_formula() {
        let rel = |n: i64, name: &str| {
            let mut out = AuRelation::empty(Schema::named(&[name, "p"]));
            for i in (0..n).rev().chain(0..n / 3) {
                let key = if i % 4 == 0 { r2(i - 1, i, i + 2) } else { r2(i % 7, i % 7, i % 7) };
                let row =
                    au_row(vec![key, r2(i % 3, i % 3, i % 3 + i % 2)], 0, 1 + i as u64 % 2, 2);
                out.push(row.0, row.1);
            }
            assert!(!out.is_normalized());
            out
        };
        let (l, r) = (rel(40, "A"), rel(23, "B"));
        let preds = [Some(col(0).eq(col(2))), Some(col(0).leq(col(2))), None];
        for pred in &preds {
            for ct in [1usize, 5, 64] {
                let split = l.schema.arity();
                let (la, ra) = pred
                    .as_ref()
                    .and_then(|p| p.equi_join_columns(split))
                    .map_or((0, 0), |pairs| pairs[0]);
                let mut want = join_au(&split_sg(&l), &split_sg(&r), pred.as_ref()).unwrap();
                let lup = compress(&split_up(&l), la, ct);
                let rup = compress(&split_up(&r), ra, ct);
                want.append_rows(join_au(&lup, &rup, pred.as_ref()).unwrap().into_rows());
                let got = optimized_join(&l, &r, pred.as_ref(), ct).unwrap();
                assert_eq!(got, want.into_normalized(), "pred = {pred:?}, ct = {ct}");
            }
        }
    }

    #[test]
    fn optimized_join_certain_data_equals_naive() {
        // with fully certain inputs the optimization is lossless
        let r = AuRelation::from_rows(
            Schema::named(&["A"]),
            vec![au_row(vec![r2(1, 1, 1)], 1, 1, 1), au_row(vec![r2(2, 2, 2)], 2, 2, 2)],
        );
        let s =
            AuRelation::from_rows(Schema::named(&["B"]), vec![au_row(vec![r2(1, 1, 1)], 3, 3, 3)]);
        let pred = col(0).eq(col(1));
        let naive = join_au(&r, &s, Some(&pred)).unwrap();
        let opt = optimized_join(&r, &s, Some(&pred), 4).unwrap();
        assert_eq!(naive.sg_world(), opt.sg_world());
        // same certain content: the optimized result's sg part matches
        for (t, k) in naive.rows() {
            let ko = opt.annotation(t);
            assert!(ko.ub >= k.ub || ko.sg == k.sg);
        }
    }

    #[test]
    fn optimized_join_theta_fallback() {
        let (r, s) = figure_9_inputs();
        let pred = col(0).leq(col(1));
        let naive = join_au(&r, &s, Some(&pred)).unwrap();
        let opt = optimized_join(&r, &s, Some(&pred), 2).unwrap();
        assert_eq!(opt.sg_world(), naive.sg_world());
    }
}
