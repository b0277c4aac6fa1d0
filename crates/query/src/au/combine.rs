//! The SG-combiner `Ψ` (Definition 21): merge all tuples that share the
//! same selected-guess attribute values into a single tuple whose ranges
//! are the minimum bounding box and whose annotation is the sum.
//!
//! Ensures every SGW tuple is encoded by exactly one AU-DB tuple, which
//! set difference and aggregation rely on to avoid over-reduction and
//! double counting.

use audb_core::{AuAnnot, Semiring};
use audb_storage::AuRelation;

use super::aggregate::SgGroups;

/// Apply `Ψ` to a relation: the SG grouping on all columns, each group
/// merged into its first row in row order — output in first-appearance
/// order. (No row of a relation carries the zero annotation.)
pub fn sg_combine(rel: &AuRelation) -> AuRelation {
    let rows = rel.rows();
    let groups = SgGroups::of_rows(rows);
    let rep = |&r: &u32| (rows[r as usize].0.clone(), AuAnnot::zero());
    let mut merged: Vec<_> = groups.reps.iter().map(rep).collect();
    for ((t, k), &g) in rows.iter().zip(&groups.of_row) {
        let (bbox, annot) = &mut merged[g as usize];
        bbox.0.iter_mut().zip(&t.0).for_each(|(b, c)| b.extend_keep_sg(c));
        *annot = annot.plus(k);
    }
    let mut out = AuRelation::empty(rel.schema.clone());
    out.append_rows(merged);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::RangeValue;
    use audb_storage::{au_row, RangeTuple, Schema};

    /// The example from Section 8.1: ([1/2/2],[1/3/5]) ↦ (1,2,2) and
    /// ([2/2/4],[3/3/4]) ↦ (3,3,4) combine into ([1/2/4],[1/3/5]) ↦ (4,5,6).
    #[test]
    fn combiner_example() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            vec![
                au_row(
                    vec![RangeValue::range(1i64, 2i64, 2i64), RangeValue::range(1i64, 3i64, 5i64)],
                    1,
                    2,
                    2,
                ),
                au_row(
                    vec![RangeValue::range(2i64, 2i64, 4i64), RangeValue::range(3i64, 3i64, 4i64)],
                    3,
                    3,
                    4,
                ),
            ],
        );
        let out = sg_combine(&rel);
        assert_eq!(out.len(), 1);
        let (t, k) = &out.rows()[0];
        assert_eq!(
            *t,
            RangeTuple::new(vec![
                RangeValue::range(1i64, 2i64, 4i64),
                RangeValue::range(1i64, 3i64, 5i64)
            ])
        );
        assert_eq!(*k, AuAnnot::triple(4, 5, 6));
    }

    #[test]
    fn combiner_preserves_sgw() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A"]),
            vec![
                au_row(vec![RangeValue::range(0i64, 1i64, 5i64)], 0, 2, 3),
                au_row(vec![RangeValue::range(1i64, 1i64, 9i64)], 1, 1, 1),
                au_row(vec![RangeValue::range(0i64, 3i64, 4i64)], 1, 1, 2),
            ],
        );
        let out = sg_combine(&rel);
        assert_eq!(out.len(), 2);
        assert_eq!(out.sg_world(), rel.sg_world());
    }

    #[test]
    fn distinct_sg_values_untouched() {
        let rel = AuRelation::from_rows(
            Schema::named(&["A"]),
            vec![
                au_row(vec![RangeValue::range(0i64, 1i64, 2i64)], 1, 1, 1),
                au_row(vec![RangeValue::range(0i64, 2i64, 2i64)], 1, 1, 1),
            ],
        );
        assert_eq!(sg_combine(&rel).len(), 2);
    }
}
