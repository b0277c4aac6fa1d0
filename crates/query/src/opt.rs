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
//! or after the SG join sums to the same annotation. Every `Cpr` orders
//! its members with a stable typed sort on the bucket attribute's
//! selected-guess lane; over `split↑` it then puts each run of equal
//! selected guess in tuple order and merges equal neighbours (duplicates
//! share the selected guess) — the normal form stably sorted by selected
//! guess, with no full-width key. `split_sg_lanes` and each `Cpr` are
//! timed at the `split` and `compress` sites.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

use audb_core::obs::{Counter, Metrics, Site, TraceBuilder};
use audb_core::{AuAnnot, EvalError, ExecError, Expr, LaneSlice, RangeValue, Semiring};
use audb_exec::reduce::sort_by_word;
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
/// A row's certainty is and-ed together lane by lane, each in one typed
/// loop.
fn split_sg_lanes(cs: &ColumnSet) -> ColumnSet {
    let (cells, k) = (cs.lane_slices(), cs.annots());
    let keep: Vec<u32> = (0..cs.nrows() as u32).filter(|&i| k.sg[i as usize] > 0).collect();
    let collapsed = cells.iter().map(|lane| lane.gather_sg(&keep));
    let mut certain = vec![true; keep.len()];
    cells.iter().for_each(|lane| lane.and_certain_cells(&keep, &mut certain));
    let mut annots = AnnotColumn::with_capacity(keep.len());
    for (&i, certain) in keep.iter().zip(certain) {
        let (lb, sg) = (k.lb[i as usize], k.sg[i as usize]);
        annots.push(AuAnnot::triple(if certain { lb.min(sg) } else { 0 }, sg, sg));
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
/// selected guess of `attr` (a typed lane's by a radix sort of its
/// order-preserving words, `sort_by_sg`) — ties keep the list's order, a
/// list of at most `n` rows is left as it is (aggregation folds in
/// member order; a normalized relation's rows) — chunked equi-depth,
/// and every bucket's box is taken per column
/// ([`LaneSlice::group_boxes`]: `extend_keep_sg`'s rule, in member
/// order) — cell for cell the buckets of [`compress_rows`]. One entry of
/// `metrics`' `compress` site. Never inlined: γ's operator
/// (`aggregate_au_stats`) calls it, and timing code inlined there cost
/// an uncompressed γ, which never runs it, 2–3 % (`docs/perf-pr43.md`).
#[inline(never)]
pub fn compress_lanes(
    cs: &ColumnSet,
    ids: &[u32],
    cols: &[usize],
    attr: usize,
    n: usize,
    metrics: &Metrics,
) -> ColumnSet {
    let started = metrics.is_enabled().then(Instant::now);
    let ub = &cs.annots().ub;
    let mut srcs: Vec<(u32, u64)> = ids.iter().map(|&i| (i, ub[i as usize])).collect();
    if srcs.len() > n.max(1) {
        sort_by_sg(cs.lane(attr).as_slice(), &mut srcs);
    }
    let out = buckets(cs, &srcs, cols, n);
    if let Some(t) = started {
        metrics.record_ns(Site::Compress, t.elapsed().as_nanos() as u64);
    }
    out
}

/// `Cpr_{attr,n}(split↑(R))` on `R`'s lanes `cs`, a *bag* in no order:
/// the buckets of [`compress_lanes`] over every column of `split↑(R)`'s
/// normal form stably sorted by the selected guess of `attr` — without
/// normalizing at full width. Equal rows share that selected guess, so
/// the rows with `ub > 0` are sorted by it alone, each run of one
/// selected guess is put in tuple order, and equal neighbours merge (the
/// `ub`s add). The input is charged to `exec`'s budget up front
/// (`"compress"`, what the members' buffers hold at their peak), and the
/// members are ordered as one job on `exec` (cancellation, panic
/// containment); the result does not depend on the worker count. One
/// entry of the `compress` site.
pub fn compress_bag(
    cs: &ColumnSet,
    attr: usize,
    n: usize,
    exec: &Executor,
) -> Result<ColumnSet, ExecError> {
    let metrics = exec.metrics();
    let started = metrics.is_enabled().then(Instant::now);
    let live = cs.annots().ub.iter().filter(|&&ub| ub > 0).count();
    exec.charge("compress", live as u64, (live * BAG_BYTES_PER_ROW) as u64)?;
    let srcs = exec.run(1, |_, out| {
        out.extend(bag_members(cs, attr));
        Ok::<(), ExecError>(())
    })?;
    let out = buckets(cs, &srcs, &(0..cs.arity()).collect::<Vec<_>>(), n);
    if let Some(t) = started {
        metrics.record_ns(Site::Compress, t.elapsed().as_nanos() as u64);
    }
    Ok(out)
}

/// What [`compress_bag`] is charged per live row: at its peak it holds
/// three 16-byte buffers at once (the members, `sort_by_sg`'s
/// permutation, and its radix sort's scratch or the sorted copy), plus
/// a run's sort scratch and the buckets' member ids after it.
const BAG_BYTES_PER_ROW: usize = 4 * std::mem::size_of::<(u32, u64)>();

/// The members (row, `ub`) of [`compress_bag`]'s buckets, in bucket
/// order: `split↑(R)`'s normal form stably sorted by the selected guess
/// of `attr`.
fn bag_members(cs: &ColumnSet, attr: usize) -> Vec<(u32, u64)> {
    let ub = &cs.annots().ub;
    let mut srcs: Vec<(u32, u64)> =
        (0..cs.nrows() as u32).map(|i| (i, ub[i as usize])).filter(|s| s.1 > 0).collect();
    let key = cs.lane(attr).as_slice();
    sort_by_sg(key, &mut srcs);
    let lanes = cs.lane_slices();
    let same_sg = |a: &(u32, u64), b: &(u32, u64)| key.sg_cmp(a.0 as usize, b.0 as usize).is_eq();
    for run in srcs.chunk_by_mut(same_sg).filter(|run| run.len() > 1) {
        run.sort_by(|a, b| {
            let mut by_cell = lanes.iter().map(|l| l.cells_cmp(a.0 as usize, b.0 as usize));
            by_cell.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
    }
    srcs.dedup_by(|s, kept| {
        let twin = lanes.iter().all(|l| l.cells_eq(s.0 as usize, kept.0 as usize));
        if twin {
            kept.1 = kept.1.plus(&s.1);
        }
        twin
    });
    srcs
}

/// Stable sort of bucket members (row, `ub`) by the selected guess of
/// the row's cell of `key`: on a typed lane, of the selected guesses'
/// order-preserving words ([`sort_by_word`]: a counting or radix sort
/// where their range is narrow), on a `Boxed` one by comparison.
fn sort_by_sg(key: LaneSlice<'_>, srcs: &mut Vec<(u32, u64)>) {
    fn words(srcs: &[(u32, u64)], word: impl Fn(usize) -> u64) -> Vec<(u64, u32)> {
        srcs.iter().zip(0..).map(|(s, at)| (word(s.0 as usize), at)).collect()
    }
    let mut perm = match key {
        LaneSlice::Int { sg, .. } => words(srcs, |i| sg[i] as u64 ^ 1 << 63),
        // `f64::total_cmp`'s order: negative floats flip entirely
        LaneSlice::Float { sg, .. } => words(srcs, |i| {
            let b = sg[i].to_bits();
            if (b as i64) < 0 {
                !b
            } else {
                b ^ 1 << 63
            }
        }),
        LaneSlice::Bool { sg, .. } => words(srcs, |i| u64::from(sg[i])),
        LaneSlice::Str { sg, .. } => words(srcs, |i| u64::from(sg[i])),
        LaneSlice::Boxed(_) => {
            srcs.sort_by(|a, b| key.sg_cmp(a.0 as usize, b.0 as usize));
            return;
        }
    };
    sort_by_word(&mut perm);
    *srcs = perm.into_iter().map(|(_, at)| srcs[at as usize]).collect();
}

/// The members `srcs` (row, `ub`), in order, chunked equi-depth into at
/// most `n` buckets over `cols`.
fn buckets(cs: &ColumnSet, srcs: &[(u32, u64)], cols: &[usize], n: usize) -> ColumnSet {
    let depth = srcs.len().div_ceil(n.max(1)).max(1);
    let firsts: Vec<u32> = srcs.iter().step_by(depth).map(|s| s.0).collect();
    let members: Vec<(usize, u32)> =
        srcs.iter().enumerate().map(|(m, s)| (s.0 as usize, (m / depth) as u32)).collect();
    let boxes =
        cols.iter().map(|&c| cs.lane(c).as_slice().group_boxes(&firsts, members.iter().copied()));
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
    let metrics = exec.metrics();
    let split = |rel: &AuRelation, attr: usize| {
        let cs = lanes_of(rel, exec);
        let up = if rel.is_normalized() {
            let all: Vec<u32> = (0..cs.nrows() as u32).collect();
            compress_lanes(&cs, &all, &(0..cs.arity()).collect::<Vec<_>>(), attr, ct, metrics)
        } else {
            compress_bag(&cs, attr, ct, exec)?
        };
        let started = metrics.is_enabled().then(Instant::now);
        let sg = split_sg_lanes(&cs);
        if let Some(t) = started {
            metrics.record_ns(Site::Split, t.elapsed().as_nanos() as u64);
        }
        Ok::<_, ExecError>(
            [sg, up].map(|cs| AuRelation::from_columns(rel.schema.clone(), Arc::new(cs), false)),
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
        metrics.add(Counter::ProbeKeysBoxed, 1);
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
    use audb_core::{col, LaneTag, RangeValue, Value};
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

    /// Row `i` of [`compress_bag_is_compress_rows_over_split_up`]'s bag,
    /// one cell per lane type: `Int`, `Float` (`-0.0` and `0.0`
    /// selected guesses), one-dictionary `Str`, `Bool`, and a `Boxed`
    /// column of `Int`s and strings longer than a packed key, then an
    /// `Int` payload that tells the tuples apart. Every
    /// tuple comes twice (`i % 150`); three selected guesses are shared
    /// by ~25 tuples each (runs longer than 8), the other forty by ~2,
    /// and every fifth cell is a range around its selected guess.
    fn typed_bag_row(i: usize) -> (RangeTuple, AuAnnot) {
        let j = (i % 150) as i64;
        let v = if j % 2 == 0 { j % 3 } else { 3 + j % 40 };
        let u = if j % 5 == 0 { 1 + j % 2 } else { 0 };
        let f = match v as f64 * 0.5 - 1.0 {
            0.0 if j % 4 == 0 => -0.0,
            f => f,
        };
        let s = |k: i64| Value::str(format!("key {k:02}"));
        let long = Value::str(format!("a prefix longer than any key, {}", v % 4));
        let cells = vec![
            r2(v - u, v, v + u),
            RangeValue::range(f - 0.25 * u as f64, f, f + 0.5 * u as f64),
            RangeValue::new(s(v - u), s(v), s(v + u)).unwrap(),
            RangeValue::range(u == 0 && v % 2 == 0, v % 2 == 0, u != 0 || v % 2 == 0),
            RangeValue::certain(if j % 7 == 0 { Value::Int(v) } else { long }),
            r2(j / 2, j / 2, j / 2 + j % 2),
        ];
        (RangeTuple::new(cells), AuAnnot::triple(0, 1, 1 + (i % 4) as u64))
    }

    /// `split_sg_lanes` is `sg_rows` row for row over an un-normalized
    /// list: `Int`, `Float`, `Str`, `Bool` and `Boxed` lanes, each with
    /// certain and uncertain cells (the `Boxed` one's in rows where every
    /// typed cell is certain), rows with `sg = 0` dropped, and the lower
    /// bound kept exactly where the whole row is certain.
    #[test]
    fn split_sg_lanes_is_sg_rows_row_for_row() {
        let rows: Vec<(RangeTuple, AuAnnot)> = (0..300)
            .map(|i| {
                let (mut t, _) = typed_bag_row(i);
                if i % 7 == 3 {
                    t.0[4] = r2(0, 1, 2);
                }
                let sg = (i % 3) as u64;
                let lb = if i % 2 == 0 { sg } else { 0 };
                (t, AuAnnot::triple(lb, sg, sg + 1 + (i % 2) as u64))
            })
            .collect();
        let mut rel = AuRelation::empty(Schema::named(&["i", "f", "s", "b", "x", "p"]));
        rel.append_rows(rows.clone());
        let cs = rel.columns();
        let tags: Vec<LaneTag> = cs.lanes().iter().map(|l| l.tag()).collect();
        use LaneTag::{Bool, Boxed, Float, Int, Str};
        assert_eq!(tags, [Int, Float, Str, Bool, Boxed, Int]);
        for c in 0..cs.arity() {
            let lane = cs.lane(c).as_slice();
            let certain = (0..cs.nrows()).filter(|&i| lane.is_certain(i)).count();
            assert!(0 < certain && certain < cs.nrows(), "lane {c}: certain and uncertain cells");
        }
        let (sg, lanes) = (sg_rows(&rel), split_sg_lanes(&cs));
        assert_eq!(lanes.rows(), sg.rows());
        assert!(sg.len() < rows.len(), "rows with sg = 0 are dropped");
        let kept_lb = sg.rows().iter().filter(|(_, k)| k.lb > 0).count();
        let lost_lb = rows.iter().filter(|(t, k)| k.sg > 0 && k.lb > 0 && !t.is_certain()).count();
        assert!(kept_lb > 0 && lost_lb > 0, "{kept_lb} certain rows keep lb, {lost_lb} lose it");
    }

    /// `Cpr(split↑(R))` over an un-normalized bag is `compress_rows` over
    /// `split↑(R)`'s normal form — here a `BTreeMap` fold, which shares no
    /// sort key with the driver — bucket for bucket, on every lane type
    /// as the bucket attribute, typed columns only and with a `Boxed`
    /// one: rows repeated, runs of one selected guess longer than 8 with
    /// duplicates inside them, `n` such that buckets start at a run's
    /// first row, inside a run, and some runs hold no start, at every
    /// worker count. A merge that trusts equal inexact keys without
    /// checking the rows, or a run left out of tuple order (short runs
    /// or all), fails here. The list form (`compress_lanes`, γ's
    /// `Cpr`) keeps the list's order on ties, as `compress_rows` does.
    #[test]
    fn compress_bag_is_compress_rows_over_split_up() {
        use audb_exec::Partitioner;
        use std::collections::BTreeMap;
        let all: Vec<(RangeTuple, AuAnnot)> = (0..300).map(typed_bag_row).collect();
        let (mut starts_a_run, mut starts_inside, mut holds_no_start) = (false, false, false);
        let mut short_runs = false;
        for cols in [vec![0, 1, 2, 3, 5], vec![0, 1, 2, 3, 4, 5]] {
            let rows: Vec<(RangeTuple, AuAnnot)> =
                all.iter().map(|(t, k)| (t.project(&cols), *k)).collect();
            let names: Vec<String> = cols.iter().map(|c| format!("c{c}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut bag = AuRelation::empty(Schema::named(&names));
            bag.append_rows(rows.clone());
            assert!(!bag.is_normalized());
            let mut fold: BTreeMap<RangeTuple, AuAnnot> = BTreeMap::new();
            for (t, k) in &rows {
                let acc = fold.entry(t.clone()).or_insert_with(AuAnnot::zero);
                *acc = acc.plus(&AuAnnot::triple(0, 0, k.ub));
            }
            let up: Vec<(RangeTuple, AuAnnot)> = fold.into_iter().collect();
            assert_eq!(split_up(&bag).rows(), &up[..]);
            assert!(up.len() < rows.len(), "duplicates");
            let cs = bag.columns();
            let typed = cs.lanes().iter().filter(|l| l.tag() != LaneTag::Boxed).count();
            assert_eq!(typed, 5, "Int, Float, Str, Bool and Int lanes");
            let every: Vec<usize> = (0..cols.len()).collect();
            // the γ list: un-normalized rows, in an order of their own
            let list: Vec<u32> = (0..rows.len() as u32).rev().filter(|i| i % 3 != 1).collect();
            // every column but the payload is a bucket attribute
            for attr in 0..cols.len() - 1 {
                // `split↑`'s normal form stably sorted by selected guess,
                // and its runs
                let sg = |i: &u32| &up[*i as usize].0 .0[attr].sg;
                let mut ids: Vec<u32> = (0..up.len() as u32).collect();
                ids.sort_by(|a, b| sg(a).cmp(sg(b)));
                let runs: Vec<usize> =
                    ids.chunk_by(|a, b| sg(a) == sg(b)).map(<[_]>::len).collect();
                assert!(runs.iter().any(|&r| r > 8), "a long run");
                short_runs |= runs.iter().any(|&r| r <= 8);
                for n in [1, 2, 3, 5, 7, 16, 64, up.len(), up.len() + 1] {
                    let depth = up.len().div_ceil(n);
                    let mut first = 0;
                    for run in &runs {
                        let starts = (first..first + run).filter(|m| m % depth == 0);
                        match starts.map(|m| m == first).max() {
                            Some(true) => starts_a_run = true,
                            Some(false) => starts_inside = true,
                            None => holds_no_start = true,
                        }
                        first += run;
                    }
                    let want = compress_rows(&up, &ids, &every, attr, n);
                    for w in [1, 2, 4] {
                        let exec = Executor::new(w).with_partitioner(Partitioner {
                            min_morsel: 1,
                            morsels_per_worker: 2,
                            min_rows_per_worker: 0,
                        });
                        let got = compress_bag(&cs, attr, n, &exec).unwrap();
                        assert_eq!(
                            got.rows(),
                            want,
                            "cols {cols:?}, attr {attr}, n = {n}, w = {w}"
                        );
                    }
                    let want = compress_rows(&rows, &list, &every, attr, n);
                    let got = compress_lanes(&cs, &list, &every, attr, n, &Metrics::disabled());
                    assert_eq!(got.rows(), want, "list: cols {cols:?}, attr {attr}, n = {n}");
                }
            }
        }
        assert!(short_runs && starts_a_run && starts_inside && holds_no_start);
    }

    /// `compress_bag` charges its live rows up front, at what its
    /// buffers hold at their peak: a budget one row or one byte short
    /// trips on `"compress"`, one that fits does not.
    #[test]
    fn compress_bag_charges_its_peak() {
        use audb_core::{Budget, BudgetSpec};
        let mut bag = AuRelation::empty(Schema::named(&["a", "b", "c", "d", "e", "f"]));
        bag.append_rows((0..300).map(typed_bag_row).collect());
        let (cs, peak) = (bag.columns(), 300 * BAG_BYTES_PER_ROW as u64);
        let specs = [
            (BudgetSpec::rows(299), Some("rows")),
            (BudgetSpec::bytes(peak - 1), Some("bytes")),
            (BudgetSpec { max_rows: 300, max_bytes: peak }, None),
        ];
        for (spec, trips) in specs {
            let exec = Executor::new(2).with_budget(Budget::new(spec));
            match (compress_bag(&cs, 0, 8, &exec), trips) {
                (Err(ExecError::BudgetExceeded { operator, resource, .. }), Some(r)) => {
                    assert_eq!((operator, resource), ("compress", r));
                }
                (Ok(got), None) => assert_eq!(got.nrows(), 8),
                (got, _) => panic!("{spec:?}: {:?}", got.map(|cs| cs.nrows())),
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
    /// for equality, comparison and cross joins, on a key of many values
    /// and on one of three (runs of a dozen rows and more, duplicates
    /// inside them).
    #[test]
    fn optimized_join_equals_the_literal_formula() {
        let rel = |n: i64, name: &str, keys: i64| {
            let mut out = AuRelation::empty(Schema::named(&[name, "p"]));
            for i in (0..n).rev().chain(0..n / 3) {
                let k = i % keys;
                let key = if i % 4 == 0 { r2(k - 1, k, k + 2) } else { r2(k % 7, k % 7, k % 7) };
                let row =
                    au_row(vec![key, r2(i % 3, i % 3, i % 3 + i % 2)], 0, 1 + i as u64 % 2, 2);
                out.push(row.0, row.1);
            }
            assert!(!out.is_normalized());
            out
        };
        let preds = [Some(col(0).eq(col(2))), Some(col(0).leq(col(2))), None];
        for keys in [i64::MAX, 3] {
            let (l, r) = (rel(40, "A", keys), rel(23, "B", keys));
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
                    let ctx = format!("{keys} keys, pred = {pred:?}, ct = {ct}");
                    assert_eq!(got, want.into_normalized(), "{ctx}");
                }
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
