//! Bound-preserving set difference over AU-relations (Section 8,
//! Definition 22, Theorem 4).
//!
//! The naive pointwise monus does not preserve bounds: because of the
//! negation, a lower bound on the left must be reduced by an *upper*
//! bound of everything on the right that may coincide with it (`≃`,
//! attribute ranges overlap), while the upper bound is only reduced by
//! right tuples that are *certainly* equal (`≡`).
//!
//! The right side is indexed instead of scanned per left tuple: the
//! `≃`-candidates come from an [`IntervalIndex`] endpoint sweep on the
//! first attribute (precise multi-attribute overlap re-checked per
//! candidate), while the `t^sg = t'^sg` and `≡` reductions are one probe
//! of the right side's SG grouping (`aggregate::SgGroups`) —
//! `O((|L| + |R|) log + candidates)` in place of the old `O(|L| · |R|)`
//! loop. Left tuples are then partitioned across the
//! [`Executor`]'s workers (the reductions are independent per left
//! tuple) with a deterministic ordered merge.

use audb_core::{EvalError, Semiring};
use audb_exec::Executor;
use audb_storage::{AuRelation, IntervalIndex};

use super::aggregate::SgGroups;
use super::combine::sg_combine;

/// `R1 − R2` (Definition 22) on an explicit executor; every worker count
/// produces an identical result. The left input is first `Ψ`-combined
/// so each SGW tuple is represented once.
pub fn difference_au_exec(
    l: &AuRelation,
    r: &AuRelation,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    l.schema.check_union_compatible(&r.schema)?;
    let left = sg_combine(l);
    let arity = left.schema.arity();

    // The right side grouped by SG tuple, once: per group Σ R2(t')^sg,
    // and Σ R2(t')↓ over its *certain* tuples (the `≡` reduction
    // additionally requires the left tuple to be certain — checked per
    // left tuple). Multiplicity sums saturate, like `N`'s `+`.
    let groups = SgGroups::of_rows(r.rows());
    let mut sums = vec![(0u64, 0u64); groups.reps.len()];
    for ((t2, k2), &g) in r.rows().iter().zip(&groups.of_row) {
        let (sg, cert_lb) = &mut sums[g as usize];
        *sg = sg.plus(&k2.sg);
        if t2.is_certain() {
            *cert_lb = cert_lb.plus(&k2.lb);
        }
    }

    // `≃`-candidates per left tuple from a first-attribute endpoint
    // sweep (a superset of the fully-overlapping pairs; the precise
    // check runs below). Nullary tuples always overlap.
    let mut cand: Vec<Vec<u32>> = vec![Vec::new(); left.len()];
    if arity == 0 {
        for c in &mut cand {
            c.extend(0..r.len() as u32);
        }
    } else if !r.is_empty() {
        let li = IntervalIndex::from_au(left.rows(), 0);
        let ri = IntervalIndex::from_au(r.rows(), 0);
        IntervalIndex::sweep_overlapping(&li, &ri, |a, b| cand[a as usize].push(b));
    }

    // One work item is a left tuple's full reduction (candidate loop +
    // hash lookups) — heavier than a plain row op, so the adaptive
    // parallelism floor is lowered accordingly (never raised: a
    // caller-forced zero floor stays zero).
    let dexec =
        exec.clone().with_min_rows_per_worker(exec.partitioner().min_rows_per_worker.min(256));
    let rows = dexec.run(left.len(), |morsel, rows| {
        for i in morsel {
            let (t, k) = &left.rows()[i];
            let mut sub_overlap_ub = 0u64; // Σ_{t ≃ t'} R2(t')↑
            for &j in &cand[i] {
                let (t2, k2) = &r.rows()[j as usize];
                if t.overlaps(t2) {
                    sub_overlap_ub = sub_overlap_ub.plus(&k2.ub);
                }
            }
            let (sub_sg, cert_lb) = groups.find(r.rows(), t).map_or((0, 0), |g| sums[g]);
            let sub_cert_lb = if t.is_certain() { cert_lb } else { 0 };
            let annot = k.monus_bounds(sub_overlap_ub, sub_sg, sub_cert_lb);
            rows.push((t.clone(), annot));
        }
        Ok::<(), EvalError>(())
    })?;
    let mut out = AuRelation::empty(left.schema.clone());
    out.append_rows(rows);
    Ok(out.into_normalized_with(exec)?)
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
