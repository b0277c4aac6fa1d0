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
//! [`optimized_join_exec`] runs the copy-free form: neither split is
//! materialized in normal form on the way. The SG side joins the
//! un-normalized certain tuples (`⊗` distributes over `⊕` in `N_AU`, so
//! merging duplicates before or after the join sums to the same
//! annotation, and the result is normalized once at the end); `split↑`
//! keeps every tuple, so `Cpr` buckets straight over the input's row ids
//! in normal-form order and takes `(0, 0, ub)` at bucket time — no tuple
//! is cloned before its bucket's box.

use audb_core::{AuAnnot, EvalError, Expr, Semiring};
use audb_exec::Executor;
use audb_storage::{AuRelation, RangeTuple};

use crate::planner::join_au_planned_exec;

/// The rows of `split_sg(R)` before any merge: one certain-attribute
/// tuple per SGW tuple. The lower bound survives only for tuples without
/// attribute uncertainty; the upper bound collapses to the SG
/// multiplicity.
fn sg_side(rel: &AuRelation) -> AuRelation {
    let mut out = AuRelation::empty(rel.schema.clone());
    for (t, k) in rel.rows() {
        if k.sg == 0 {
            continue;
        }
        let lb = if t.is_certain() { k.lb } else { 0 };
        out.push(RangeTuple::certain(&t.sg()), AuAnnot::triple(lb.min(k.sg), k.sg, k.sg));
    }
    out
}

/// `split_sg(R)` (Section 10.4), in normal form.
pub fn split_sg(rel: &AuRelation) -> AuRelation {
    sg_side(rel).into_normalized()
}

/// `split↑(R)` (Section 10.4): the possible over-approximation —
/// original ranges, annotations `(0, 0, ub)`.
pub fn split_up(rel: &AuRelation) -> AuRelation {
    let mut out = AuRelation::empty(rel.schema.clone());
    for (t, k) in rel.rows() {
        out.push(t.clone(), AuAnnot::triple(0, 0, k.ub));
    }
    out.into_normalized()
}

/// `Cpr_{A,n}` (Section 10.4) over the rows named by `ids`, projected
/// onto `cols`: partition into at most `n` buckets by the selected-guess
/// value of attribute `attr` (equi-depth), merging each bucket into a
/// single tuple with the bucket's bounding box and the sum of
/// upper-bound multiplicities. Only the `cols` cells are ever cloned —
/// callers pass the columns they will read (aggregation: group-by plus
/// aggregate inputs), and each bucket's box widens in place.
pub fn compress_rows(
    rows: &[(RangeTuple, AuAnnot)],
    ids: &[u32],
    cols: &[usize],
    attr: usize,
    n: usize,
) -> Vec<(RangeTuple, AuAnnot)> {
    let srcs = ids.iter().map(|&i| (i, rows[i as usize].1.ub)).collect();
    compress_weighted(rows, srcs, cols, attr, n)
}

/// [`compress_rows`] over `(row id, upper-bound multiplicity)` sources —
/// the multiplicity is read here, at bucket time, so a caller that
/// merged duplicate tuples passes their sum without building the merged
/// rows.
fn compress_weighted(
    rows: &[(RangeTuple, AuAnnot)],
    mut srcs: Vec<(u32, u64)>,
    cols: &[usize],
    attr: usize,
    n: usize,
) -> Vec<(RangeTuple, AuAnnot)> {
    let tuple = |i: u32| &rows[i as usize].0;
    let n = n.max(1);
    if srcs.len() <= n {
        return srcs
            .iter()
            .map(|&(i, ub)| (tuple(i).project(cols), AuAnnot::triple(0, 0, ub)))
            .collect();
    }
    let depth = srcs.len().div_ceil(n);
    srcs.sort_by(|a, b| tuple(a.0).0[attr].sg.cmp(&tuple(b.0).0[attr].sg));

    let mut out = Vec::with_capacity(n);
    for bucket in srcs.chunks(depth) {
        let mut bbox = tuple(bucket[0].0).project(cols);
        let mut ub = 0u64;
        for &(i, k) in bucket {
            for (b, c) in bbox.0.iter_mut().zip(cols) {
                b.extend_keep_sg(&tuple(i).0[*c]);
            }
            ub = ub.saturating_add(k);
        }
        out.push((bbox, AuAnnot::triple(0, 0, ub)));
    }
    out
}

/// `Cpr_{A,n}` as a relation-level operator.
pub fn compress(rel: &AuRelation, attr: usize, n: usize) -> AuRelation {
    let ids: Vec<u32> = (0..rel.len() as u32).collect();
    let cols: Vec<usize> = (0..rel.schema.arity()).collect();
    AuRelation::from_rows(rel.schema.clone(), compress_rows(rel.rows(), &ids, &cols, attr, n))
}

/// The rows of `Cpr_{attr,n}(split↑(R))` without materializing
/// `split↑(R)`: its normal form is `R`'s own tuples in tuple order with
/// duplicates merged — the identity on a normalized `R`, one id
/// permutation otherwise — so the buckets form over row ids.
fn compress_up(rel: &AuRelation, attr: usize, n: usize) -> AuRelation {
    let rows = rel.rows();
    let tuple = |s: &(u32, u64)| &rows[s.0 as usize].0;
    let mut srcs: Vec<(u32, u64)> = (0u32..).zip(rows.iter().map(|(_, k)| k.ub)).collect();
    if !rel.is_normalized() {
        srcs.sort_by(|a, b| tuple(a).cmp(tuple(b)));
        srcs.dedup_by(|dup, first| {
            let same = tuple(dup) == tuple(first);
            if same {
                first.1 = first.1.plus(&dup.1);
            }
            same
        });
    }
    let cols: Vec<usize> = (0..rel.schema.arity()).collect();
    let mut out = AuRelation::empty(rel.schema.clone());
    out.append_rows(compress_weighted(rows, srcs, &cols, attr, n));
    out
}

/// The optimized join `opt(Q1 ⋈_θ Q2)` (Section 10.4):
/// `(split_sg(L) ⋈_θsg split_sg(R)) ∪ (Cpr(split↑(L)) ⋈_θ Cpr(split↑(R)))`.
///
/// Both parts go through the join planner: the SG part consists of
/// fully certain tuples, so an equality predicate takes the hash
/// equi-join path and a comparison takes the endpoint sweep; the
/// compressed possible part has at most `ct` tuples per side.
pub fn optimized_join(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    ct: usize,
) -> Result<AuRelation, EvalError> {
    optimized_join_exec(l, r, predicate, ct, &Executor::default())
}

/// [`optimized_join`] on an explicit executor (both planned sub-joins
/// run their probe/candidate loops on its workers, and the one
/// normalization — of the union — is governed by it).
pub fn optimized_join_exec(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    ct: usize,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    optimized_join_stats(l, r, predicate, ct, exec).map(|(out, _)| out)
}

/// What one split/compress join did — the `join` span's attributes
/// under `strategy = split-compress` (`docs/observability.md`): rows of
/// the SG⋈SG part, buckets each possible side compressed to, and rows of
/// the possible⋈possible part (all before the final merge).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitJoinStats {
    pub(crate) sg_rows: usize,
    pub(crate) buckets_l: usize,
    pub(crate) buckets_r: usize,
    pub(crate) possible_rows: usize,
}

/// [`optimized_join_exec`] plus what the run did.
pub(crate) fn optimized_join_stats(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    ct: usize,
    exec: &Executor,
) -> Result<(AuRelation, SplitJoinStats), EvalError> {
    let split = l.schema.arity();

    // ---- SG part: certain tuples, planner-selected strategy -------------
    let mut out = join_au_planned_exec(&sg_side(l), &sg_side(r), predicate, exec)?;
    let sg_rows = out.len();

    // ---- possible part: compressed overlap join --------------------------
    let (la, ra) = predicate
        .and_then(|p| p.equi_join_columns(split))
        .and_then(|pairs| pairs.first().copied())
        .unwrap_or((0, 0));
    let (lup, rup) = (compress_up(l, la, ct), compress_up(r, ra, ct));
    let pos = join_au_planned_exec(&lup, &rup, predicate, exec)?;
    let stats = SplitJoinStats {
        sg_rows,
        buckets_l: lup.len(),
        buckets_r: rup.len(),
        possible_rows: pos.len(),
    };
    out.append_rows(pos.into_rows());

    Ok((out.into_normalized_with(exec)?, stats))
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
    if group_by.is_empty() {
        return false;
    }
    let threshold = AGG_COMPRESS_MIN_UNCERTAIN.max(ct.saturating_mul(4));
    let mut uncertain = 0usize;
    for (t, _) in rel.rows() {
        if !group_by.iter().all(|c| t.0[*c].is_certain()) {
            uncertain += 1;
            if uncertain > threshold {
                return true;
            }
        }
    }
    false
}

fn uncertain_row_count(rel: &AuRelation) -> usize {
    rel.rows().iter().filter(|(t, _)| !t.is_certain()).count()
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
        let both = crate::au::union_au(&split_sg(&r), &split_up(&r)).unwrap();
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
