//! Bound-preserving set difference over AU-relations (Section 8,
//! Definition 22, Theorem 4).
//!
//! The naive pointwise monus does not preserve bounds: because of the
//! negation, a lower bound on the left must be reduced by an *upper*
//! bound of everything on the right that may coincide with it (`≃`,
//! attribute ranges overlap), while the upper bound is only reduced by
//! right tuples that are *certainly* equal (`≡`).
//!
//! The operator reads column lanes and builds them. `Ψ(l)`'s rows and
//! `r`'s are appended into one [`ColumnSet`](audb_storage::ColumnSet) —
//! one lane, and so one string dictionary, per column — and grouped
//! once by γ's SG grouping ([`SgGroups`]): `Ψ` leaves one left row per
//! SG tuple, so a left row's group holds exactly the right rows with its
//! SG, which the `t^sg = t'^sg` and `≡` reductions sum. The
//! `≃`-candidates come from an [`IntervalIndex`] endpoint sweep on the
//! first column (typed endpoints where the lane is), re-checked on every
//! column with [`LaneSlice::overlaps`](audb_core::LaneSlice::overlaps) —
//! `O((|L| + |R|) log + candidates)` in place of an `O(|L| · |R|)` scan.
//! The result is normalized on the lanes
//! ([`AuRelation::normalized_view_rows`]) and born columnar.

use std::ops::Range;

use audb_core::{AuAnnot, EvalError, Semiring};
use audb_exec::Executor;
use audb_storage::{AuRelation, IntervalIndex};

use super::aggregate::SgGroups;
use super::combine::{sg_combine, sg_combine_lanes};
use super::{lanes_of, normalized_lanes};

/// `R1 − R2` (Definition 22) on an explicit executor; every worker count
/// produces an identical result. The left input is first `Ψ`-combined
/// so each SGW tuple is represented once.
pub fn difference_au_exec(
    l: &AuRelation,
    r: &AuRelation,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    l.schema.check_union_compatible(&r.schema)?;
    let mut all = sg_combine_lanes(&lanes_of(l, exec));
    let nl = all.nrows();
    all.append(&lanes_of(r, exec));
    let (n, cols, ks) = (all.nrows(), all.lane_slices(), all.annots());
    let certain = |i: usize| cols.iter().all(|c| c.is_certain(i));

    // Per left row its three reductions: Σ R2(t')↑ over the right rows
    // it overlaps (`≃`), Σ R2(t')^sg over those with its SG, and Σ R2(t')↓
    // over the certain ones among them (`≡`, which only a certain left
    // row takes). Multiplicity sums saturate, like `N`'s `+`. `Ψ` left
    // one row per SG tuple, so left row `g` is group `g`.
    let mut subs = vec![[0u64; 3]; nl];
    let groups = SgGroups::assign(&cols, n);
    for j in nl..n {
        if let Some([_, sg, cert_lb]) = subs.get_mut(groups.of_row[j] as usize) {
            *sg = sg.plus(&ks.sg[j]);
            if certain(j) {
                *cert_lb = cert_lb.plus(&ks.lb[j]);
            }
        }
    }
    let mut overlapping = |a: u32, b: u32| {
        let (a, b) = (a as usize, b as usize);
        if cols.iter().all(|c| c.overlaps(a, c, b)) {
            subs[a][0] = subs[a][0].plus(&ks.ub[b]);
        }
    };
    match cols.first() {
        // nullary tuples always overlap
        None => (0..nl as u32).for_each(|a| (nl as u32..n as u32).for_each(|b| overlapping(a, b))),
        Some(&first) => {
            let ids = |rows: Range<usize>| rows.map(|i| i as u32).collect::<Vec<_>>();
            let li = IntervalIndex::from_lane_subset(first, &ids(0..nl));
            let ri = IntervalIndex::from_lane_subset(first, &ids(nl..n));
            IntervalIndex::sweep_overlapping(&li, &ri, overlapping);
        }
    }

    let annots: Vec<AuAnnot> = (0..nl)
        .map(|i| {
            let [ub, sg, cert_lb] = subs[i];
            ks.get(i).monus_bounds(ub, sg, if certain(i) { cert_lb } else { 0 })
        })
        .collect();
    normalized_lanes(l.schema.clone(), &all, &annots, exec)
}

/// The pre-index implementation — a full right-side scan per left tuple.
/// Retained as the differential-testing oracle and the bench baseline
/// the indexed version is measured against; produces exactly the same
/// result as [`difference_au_exec`].
pub fn difference_au_scan(l: &AuRelation, r: &AuRelation) -> Result<AuRelation, EvalError> {
    l.schema.check_union_compatible(&r.schema)?;
    let left = sg_combine(l);
    let mut out = AuRelation::empty(left.schema.clone());
    for (t, k) in left.rows() {
        let t_sg = t.sg();
        let mut sub_overlap_ub = 0u64;
        let mut sub_sg = 0u64;
        let mut sub_cert_lb = 0u64;
        for (t2, k2) in r.rows() {
            if t.overlaps(t2) {
                sub_overlap_ub = sub_overlap_ub.plus(&k2.ub);
            }
            if t_sg == t2.sg() {
                sub_sg = sub_sg.plus(&k2.sg);
            }
            if t.certainly_equal(t2) {
                sub_cert_lb = sub_cert_lb.plus(&k2.lb);
            }
        }
        out.push(t.clone(), k.monus_bounds(sub_overlap_ub, sub_sg, sub_cert_lb));
    }
    Ok(out.normalized())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::{AuAnnot, RangeValue};
    use audb_storage::{au_row, certain_row, RangeTuple, Schema};

    fn schema() -> Schema {
        Schema::named(&["A"])
    }

    /// The Section 8.2 running example (without attribute uncertainty):
    /// R(1) ↦ (1,2,2), S(1) ↦ (0,0,3): lower bound must drop to 0.
    #[test]
    fn bounds_cross_when_subtracting() {
        let r = AuRelation::from_rows(schema(), vec![certain_row(&[1], 1, 2, 2)]);
        let s = AuRelation::from_rows(schema(), vec![certain_row(&[1], 0, 0, 3)]);
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].1, AuAnnot::triple(0, 2, 2));
    }

    /// The D2 example of Section 8.2: the SGW tuple (1) is encoded by two
    /// AU tuples; Ψ must merge them before subtracting.
    #[test]
    fn combiner_prevents_over_reduction() {
        let r = AuRelation::from_rows(
            schema(),
            vec![
                certain_row(&[1], 1, 1, 1),
                au_row(vec![RangeValue::range(1i64, 1i64, 2i64)], 1, 1, 1),
            ],
        );
        let s = AuRelation::from_rows(
            schema(),
            vec![au_row(vec![RangeValue::range(1i64, 1i64, 2i64)], 1, 1, 3)],
        );
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        // Ψ(R) = ([1/1/2]) ↦ (2,2,2); subtract: lb: 2 − 3 = 0,
        // sg: 2 − 1 = 1, ub: 2 − 0 = 2 (S tuple is not certain, so no
        // certain reduction of the upper bound).
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].1, AuAnnot::triple(0, 1, 2));
    }

    #[test]
    fn certain_equal_reduces_upper_bound() {
        let r = AuRelation::from_rows(schema(), vec![certain_row(&[5], 2, 3, 4)]);
        let s = AuRelation::from_rows(schema(), vec![certain_row(&[5], 1, 1, 1)]);
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        assert_eq!(out.rows()[0].1, AuAnnot::triple(1, 2, 3));
    }

    #[test]
    fn non_overlapping_right_is_ignored() {
        let r = AuRelation::from_rows(schema(), vec![certain_row(&[5], 2, 2, 2)]);
        let s = AuRelation::from_rows(schema(), vec![certain_row(&[9], 5, 5, 5)]);
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        assert_eq!(out.rows()[0].1, AuAnnot::triple(2, 2, 2));
    }

    #[test]
    fn overlap_only_reduces_lower_bound() {
        let r = AuRelation::from_rows(schema(), vec![certain_row(&[5], 2, 2, 2)]);
        let s = AuRelation::from_rows(
            schema(),
            vec![au_row(vec![RangeValue::range(4i64, 6i64, 7i64)], 1, 1, 1)],
        );
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        // S's tuple may be 5 (overlap) but is not certainly 5 and its SG
        // is 6 ≠ 5: lb 2−1=1, sg 2−0=2, ub 2−0=2.
        assert_eq!(out.rows()[0].1, AuAnnot::triple(1, 2, 2));
    }

    #[test]
    fn fully_subtracted_tuples_vanish() {
        let r = AuRelation::from_rows(schema(), vec![certain_row(&[5], 1, 1, 1)]);
        let s = AuRelation::from_rows(schema(), vec![certain_row(&[5], 2, 2, 2)]);
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sgw_commutes_with_difference() {
        use audb_core::Value;
        let r = AuRelation::from_rows(
            schema(),
            vec![
                au_row(vec![RangeValue::range(1i64, 2i64, 3i64)], 0, 2, 4),
                certain_row(&[7], 1, 1, 1),
            ],
        );
        let s = AuRelation::from_rows(
            schema(),
            vec![au_row(vec![RangeValue::range(2i64, 2i64, 9i64)], 0, 1, 2)],
        );
        let out = difference_au_exec(&r, &s, &Executor::sequential()).unwrap();
        // SG worlds: R^sg = {2↦2, 7↦1}, S^sg = {2↦1} → {2↦1, 7↦1}
        let sgw = out.sg_world();
        assert_eq!(sgw.multiplicity(&[Value::Int(2)].into_iter().collect()), 1);
        assert_eq!(sgw.multiplicity(&[Value::Int(7)].into_iter().collect()), 1);
        let _ = RangeTuple::certain; // silence potential unused warnings in cfg combos
    }
}
