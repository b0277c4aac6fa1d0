//! The SG-combiner `Ψ` (Definition 21): merge all tuples that share the
//! same selected-guess attribute values into a single tuple whose ranges
//! are the minimum bounding box and whose annotation is the sum.
//!
//! Ensures every SGW tuple is encoded by exactly one AU-DB tuple, which
//! set difference and aggregation rely on to avoid over-reduction and
//! double counting. `Ψ` reads and builds column lanes only: the SG
//! grouping on all columns is γ's ([`SgGroups`]), and each group's box
//! is [`LaneSlice::group_boxes`](audb_core::LaneSlice::group_boxes)'s.

use std::sync::Arc;

use audb_core::{AuAnnot, Semiring};
use audb_storage::{AnnotColumn, AuRelation, ColumnSet};

use super::aggregate::SgGroups;

/// Apply `Ψ` to a relation: the SG grouping on all columns, each group
/// merged into its first row in row order — output in first-appearance
/// order, born columnar. (No row of a relation carries the zero
/// annotation.)
pub fn sg_combine(rel: &AuRelation) -> AuRelation {
    AuRelation::from_columns(rel.schema.clone(), Arc::new(sg_combine_lanes(&rel.columns())), false)
}

/// [`sg_combine`] of a column set: per group its box, widened in row
/// order by [`audb_core::RangeValue::extend_keep_sg`]'s rule, and its
/// annotation sum.
pub(super) fn sg_combine_lanes(cs: &ColumnSet) -> ColumnSet {
    let keys = cs.lane_slices();
    let groups = SgGroups::assign(&keys, cs.nrows());
    let mut sums = vec![AuAnnot::zero(); groups.reps.len()];
    for (i, &g) in groups.of_row.iter().enumerate() {
        sums[g as usize] = sums[g as usize].plus(&cs.annots().get(i));
    }
    let mut annots = AnnotColumn::default();
    sums.into_iter().for_each(|k| annots.push(k));
    ColumnSet::new(groups.boxes(&keys), annots)
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
