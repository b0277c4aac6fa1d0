//! Secondary index structures over relation rows, consulted by the join
//! planner and the aggregation/difference operators in `audb_query`.
//!
//! Three structures cover the paper's operator classes:
//!
//! * [`IntervalIndex`] — per-attribute `[lb, ub]` endpoint lists, sorted
//!   by both endpoints. Plane sweeps over two indexes enumerate exactly
//!   the row pairs whose ranges may satisfy an equality
//!   ([`IntervalIndex::sweep_overlapping`]) or order comparison
//!   ([`IntervalIndex::sweep_lb_below_ub`]) predicate, replacing the
//!   quadratic nested-loop candidate generation with
//!   `O(n log n + candidates)`.
//! * [`HashKeyIndex`] — canonical-value hash buckets for equi-joins on
//!   certain attributes (selected-guess values for AU rows,
//!   deterministic values for bag rows).
//! * [`SgGroupIndex`] — the grouping index behind aggregation's default
//!   grouping strategy: exact SG-key buckets assigning every row to its
//!   selected-guess group, per-group bounding boxes, and the
//!   certain/uncertain membership split whose interval sweep replaces
//!   the old all-groups × all-uncertain-tuples membership scan.
//!
//! All comparisons use the domain's total order ([`Value::total_cmp`]);
//! candidate sets are deliberately *supersets* of the
//! possibly-satisfying pairs where `value_eq` (Int/Float numeric
//! equality) is broader than the total order, because the planner
//! re-evaluates the predicate precisely on every candidate.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use audb_core::{AuAnnot, RangeValue, Value};

use crate::tuple::{RangeTuple, Tuple};

/// Sorted-endpoint index over the `[lb, ub]` bounds of one attribute of
/// a set of rows.
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    /// `(lb, ub, row_id)` sorted by `lb` (ties by row id).
    by_lb: Vec<(Value, Value, u32)>,
    /// Positions into `by_lb`, sorted by `ub`.
    ub_order: Vec<u32>,
}

impl IntervalIndex {
    /// Build from `(lb, ub, row_id)` triples: sort by `lb`, then order
    /// the positions by `ub`.
    fn from_bounds(bounds: impl Iterator<Item = (Value, Value, u32)>) -> Self {
        let mut by_lb: Vec<(Value, Value, u32)> = bounds.collect();
        by_lb.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut ub_order: Vec<u32> = (0..by_lb.len() as u32).collect();
        ub_order
            .sort_by(|&a, &b| by_lb[a as usize].1.total_cmp(&by_lb[b as usize].1).then(a.cmp(&b)));
        IntervalIndex { by_lb, ub_order }
    }

    /// Build from `(row_id, range)` pairs.
    pub fn from_entries<'a>(entries: impl Iterator<Item = (u32, &'a RangeValue)>) -> Self {
        Self::from_bounds(entries.map(|(id, r)| (r.lb.clone(), r.ub.clone(), id)))
    }

    /// Index attribute `col` of all AU rows.
    pub fn from_au(rows: &[(RangeTuple, AuAnnot)], col: usize) -> Self {
        Self::from_entries(rows.iter().enumerate().map(|(i, (t, _))| (i as u32, &t.0[col])))
    }

    /// Index one attribute directly from its column lane (the columnar
    /// path — see [`crate::ColumnSet::lane_slices`]): produces `by_lb`
    /// and `ub_order` identical to [`IntervalIndex::from_entries`] over
    /// the materialized rows, without touching row tuples.
    pub fn from_lane(lane: audb_core::LaneSlice<'_>) -> Self {
        Self::from_bounds((0..lane.len()).map(|i| {
            let rv = lane.get(i);
            (rv.lb, rv.ub, i as u32)
        }))
    }

    /// Index attribute `col` of the AU rows with the given ids.
    pub fn from_au_subset(rows: &[(RangeTuple, AuAnnot)], col: usize, ids: &[u32]) -> Self {
        Self::from_entries(ids.iter().map(|&i| (i, &rows[i as usize].0 .0[col])))
    }

    /// Index attribute `col` of deterministic rows (degenerate
    /// single-point intervals).
    pub fn from_det(rows: &[(Tuple, u64)], col: usize) -> Self {
        let mut by_lb: Vec<(Value, Value, u32)> = rows
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (t.0[col].clone(), t.0[col].clone(), i as u32))
            .collect();
        by_lb.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let ub_order: Vec<u32> = (0..by_lb.len() as u32).collect();
        IntervalIndex { by_lb, ub_order }
    }

    pub fn len(&self) -> usize {
        self.by_lb.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_lb.is_empty()
    }

    /// `a` is at-or-after `b`: not strictly before in the total order, or
    /// `value_eq`-equal (Int/Float numeric ties).
    fn at_least(a: &Value, b: &Value) -> bool {
        a.total_cmp(b) != Ordering::Less || a.value_eq(b)
    }

    /// Plane sweep enumerating every pair of overlapping intervals
    /// between two indexes, in `O(n log n + pairs)`; `value_eq`-aware,
    /// matching the possibly-equal semantics of `Expr::Eq`. Calls
    /// `on_pair(left_row, right_row)` exactly once per overlapping pair.
    pub fn sweep_overlapping(left: &Self, right: &Self, mut on_pair: impl FnMut(u32, u32)) {
        let (nl, nr) = (left.by_lb.len(), right.by_lb.len());
        let (mut i, mut j) = (0usize, 0usize);
        // Active lists hold positions whose interval may still overlap
        // upcoming events; pruned lazily at each event.
        let mut active_l: Vec<usize> = Vec::new();
        let mut active_r: Vec<usize> = Vec::new();
        while i < nl || j < nr {
            let take_left = j >= nr
                || (i < nl && left.by_lb[i].0.total_cmp(&right.by_lb[j].0) != Ordering::Greater);
            if take_left {
                let (lb, _, row) = &left.by_lb[i];
                active_r.retain(|&rj| Self::at_least(&right.by_lb[rj].1, lb));
                for &rj in &active_r {
                    on_pair(*row, right.by_lb[rj].2);
                }
                active_l.push(i);
                i += 1;
            } else {
                let (lb, _, row) = &right.by_lb[j];
                active_l.retain(|&li| Self::at_least(&left.by_lb[li].1, lb));
                for &li in &active_l {
                    on_pair(left.by_lb[li].2, *row);
                }
                active_r.push(j);
                j += 1;
            }
        }
    }

    /// Sweep enumerating every pair where `left.lb` may be `≤ right.ub`
    /// — the possibly-true candidates of `left_col ≤ right_col` (and,
    /// as a superset, `<`) predicates. `value_eq`-equal endpoints are
    /// included even when the total order breaks the tie the other way.
    pub fn sweep_lb_below_ub(left: &Self, right: &Self, mut on_pair: impl FnMut(u32, u32)) {
        let mut p = 0usize;
        for &rj in &right.ub_order {
            let (_, bound, rrow) = &right.by_lb[rj as usize];
            while p < left.by_lb.len() {
                let lb = &left.by_lb[p].0;
                if lb.total_cmp(bound) != Ordering::Greater || lb.value_eq(bound) {
                    p += 1;
                } else {
                    break;
                }
            }
            for e in &left.by_lb[..p] {
                on_pair(e.2, *rrow);
            }
        }
    }
}

/// Hash buckets over canonical join-key values of certain attributes.
#[derive(Debug, Clone, Default)]
pub struct HashKeyIndex {
    map: HashMap<Vec<Value>, Vec<u32>>,
}

impl HashKeyIndex {
    /// Index the selected-guess key of the AU rows with the given ids
    /// (callers pass only rows whose key attributes are certain).
    pub fn from_au_sg(
        rows: &[(RangeTuple, AuAnnot)],
        cols: &[usize],
        ids: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for i in ids {
            let t = &rows[i as usize].0;
            let key: Vec<Value> = cols.iter().map(|c| t.0[*c].sg.join_key()).collect();
            map.entry(key).or_default().push(i);
        }
        HashKeyIndex { map }
    }

    /// Index deterministic rows by the canonical key of `cols`.
    pub fn from_det(rows: &[(Tuple, u64)], cols: &[usize]) -> Self {
        let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
        for (i, (t, _)) in rows.iter().enumerate() {
            let key: Vec<Value> = cols.iter().map(|c| t.0[*c].join_key()).collect();
            map.entry(key).or_default().push(i as u32);
        }
        HashKeyIndex { map }
    }

    /// Matching row ids for a canonical key.
    pub fn get(&self, key: &[Value]) -> &[u32] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Grouping index for AU-aggregation (Definition 24's default grouping
/// strategy): one group per distinct selected-guess value of the
/// group-by projection, in first-appearance order.
///
/// Unlike [`HashKeyIndex`] the SG keys are *exact* tuples (no
/// `join_key` canonicalization): grouping identity follows SG-world
/// semantics, where `Int 2` and `Float 2.0` are distinct group values.
///
/// Per group the index records the α-assigned row ids, the bounding box
/// over their group-by attributes (Definition 25), and the subset of
/// rows whose group-by attributes are certain (which can only ever
/// belong to their own group). Rows with uncertain group-by attributes
/// — the *possible members* of every overlapping group — are listed
/// separately, and [`SgGroupIndex::bbox_interval_index`] exposes the
/// group boxes as an [`IntervalIndex`] so membership candidates come
/// from a plane sweep instead of a groups × tuples scan.
#[derive(Debug, Clone)]
pub struct SgGroupIndex {
    /// Distinct SG group keys in first-appearance order.
    keys: Vec<Tuple>,
    /// Per group: bounding box over assigned rows' group-by attributes.
    bboxes: Vec<RangeTuple>,
    /// Per group: α-assigned row ids, in row order.
    alpha: Vec<Vec<u32>>,
    /// Per group: the certain-group-by subset of `alpha`, in row order.
    certain: Vec<Vec<u32>>,
    /// Row ids whose group-by projection is uncertain, in row order.
    uncertain: Vec<u32>,
}

impl SgGroupIndex {
    /// Build from AU rows and the group-by column set. One pass, no
    /// per-row allocation: the SG key is hashed in place (buckets hold
    /// the group ids sharing a hash, keys compare column-wise against
    /// the row) and group boxes widen in place.
    pub fn from_au(rows: &[(RangeTuple, AuAnnot)], group_by: &[usize]) -> Self {
        let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut idx = SgGroupIndex {
            keys: Vec::new(),
            bboxes: Vec::new(),
            alpha: Vec::new(),
            certain: Vec::new(),
            uncertain: Vec::new(),
        };
        for (i, (t, _)) in rows.iter().enumerate() {
            let mut h = DefaultHasher::new();
            for c in group_by {
                t.0[*c].sg.hash(&mut h);
            }
            let bucket = by_hash.entry(h.finish()).or_default();
            let same_key = |g: &&u32| {
                group_by.iter().zip(&idx.keys[**g as usize].0).all(|(c, k)| t.0[*c].sg == *k)
            };
            let g = match bucket.iter().find(same_key) {
                Some(&g) => {
                    for (b, c) in idx.bboxes[g as usize].0.iter_mut().zip(group_by) {
                        b.extend_keep_sg(&t.0[*c]);
                    }
                    g as usize
                }
                None => {
                    let g = idx.keys.len();
                    bucket.push(g as u32);
                    idx.keys.push(Tuple(group_by.iter().map(|c| t.0[*c].sg.clone()).collect()));
                    idx.bboxes.push(t.project(group_by));
                    idx.alpha.push(Vec::new());
                    idx.certain.push(Vec::new());
                    g
                }
            };
            idx.alpha[g].push(i as u32);
            if group_by.iter().all(|c| t.0[*c].is_certain()) {
                idx.certain[g].push(i as u32);
            } else {
                idx.uncertain.push(i as u32);
            }
        }
        idx
    }

    /// Number of distinct SG groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// SG key of group `g`.
    pub fn key(&self, g: usize) -> &Tuple {
        &self.keys[g]
    }

    /// Bounding box of group `g` over the group-by attributes.
    pub fn bbox(&self, g: usize) -> &RangeTuple {
        &self.bboxes[g]
    }

    /// α-assigned row ids of group `g`.
    pub fn alpha(&self, g: usize) -> &[u32] {
        &self.alpha[g]
    }

    /// Row ids of group `g` whose group-by attributes are all certain.
    pub fn certain(&self, g: usize) -> &[u32] {
        &self.certain[g]
    }

    /// Row ids whose group-by projection carries attribute uncertainty.
    pub fn uncertain(&self) -> &[u32] {
        &self.uncertain
    }

    /// The group bounding boxes as an interval index on attribute `k`
    /// *of the group-by projection*; entry ids are group ids. Sweep
    /// against an index over candidate rows' matching attribute to
    /// enumerate the (group, row) pairs that may overlap.
    pub fn bbox_interval_index(&self, k: usize) -> IntervalIndex {
        IntervalIndex::from_entries(
            self.bboxes.iter().enumerate().map(|(g, b)| (g as u32, &b.0[k])),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::au::au_row;

    fn idx(ranges: &[(i64, i64)]) -> IntervalIndex {
        let rvs: Vec<RangeValue> =
            ranges.iter().map(|(lo, hi)| RangeValue::range(*lo, *lo, *hi)).collect();
        IntervalIndex::from_entries(rvs.iter().enumerate().map(|(i, r)| (i as u32, r)))
    }

    /// Brute-force oracle for overlap pairs.
    fn overlap_pairs(l: &[(i64, i64)], r: &[(i64, i64)]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, (ll, lu)) in l.iter().enumerate() {
            for (j, (rl, ru)) in r.iter().enumerate() {
                if ll <= ru && rl <= lu {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn sweep_overlapping_matches_bruteforce() {
        let l = [(0, 5), (3, 4), (10, 12), (6, 20), (7, 7)];
        let r = [(4, 6), (5, 5), (13, 30), (0, 1), (8, 9)];
        let mut got = Vec::new();
        IntervalIndex::sweep_overlapping(&idx(&l), &idx(&r), |a, b| got.push((a, b)));
        got.sort_unstable();
        assert_eq!(got, overlap_pairs(&l, &r));
    }

    #[test]
    fn sweep_overlapping_handles_duplicates_and_ties() {
        let l = [(1, 1), (1, 1), (1, 2)];
        let r = [(1, 1), (2, 2)];
        let mut got = Vec::new();
        IntervalIndex::sweep_overlapping(&idx(&l), &idx(&r), |a, b| got.push((a, b)));
        got.sort_unstable();
        assert_eq!(got, overlap_pairs(&l, &r));
    }

    #[test]
    fn sweep_lb_below_ub_matches_bruteforce() {
        let l = [(0, 5), (3, 4), (10, 12), (7, 7)];
        let r = [(4, 6), (13, 30), (0, 1)];
        let mut got = Vec::new();
        IntervalIndex::sweep_lb_below_ub(&idx(&l), &idx(&r), |a, b| got.push((a, b)));
        got.sort_unstable();
        let mut expect = Vec::new();
        for (i, (ll, _)) in l.iter().enumerate() {
            for (j, (_, ru)) in r.iter().enumerate() {
                if ll <= ru {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn from_lane_matches_from_entries() {
        use audb_core::ValueLane;
        // Mixed column (boxed lane) with ties on lb, distinct ub order,
        // plus a homogeneous Int column (typed lane).
        let mixed = vec![
            RangeValue::range(1i64, 2i64, 9i64),
            RangeValue::range(1i64, 1i64, 3i64),
            RangeValue::certain(Value::str("q")),
            RangeValue::range(Value::float(0.5), Value::float(1.0), Value::float(8.0)),
            RangeValue::certain(Value::Null),
        ];
        let ints: Vec<RangeValue> = [(5i64, 7i64), (1, 2), (5, 6), (-3, 12)]
            .iter()
            .map(|(lo, hi)| RangeValue::range(*lo, *lo, *hi))
            .collect();
        for cells in [&mixed, &ints] {
            let lane = ValueLane::from_cells(cells.iter());
            let a = IntervalIndex::from_lane(lane.as_slice());
            let b =
                IntervalIndex::from_entries(cells.iter().enumerate().map(|(i, r)| (i as u32, r)));
            assert_eq!(a.by_lb, b.by_lb);
            assert_eq!(a.ub_order, b.ub_order);
        }
    }

    #[test]
    fn mixed_numeric_endpoints_are_superset_safe() {
        // Int 2 vs Float 2.0: value_eq-equal but total_cmp orders them;
        // the comparison sweep must still pair them.
        let l = [RangeValue::certain(Value::float(2.0))];
        let r = [RangeValue::certain(Value::Int(2))];
        let li = IntervalIndex::from_entries(l.iter().enumerate().map(|(i, r)| (i as u32, r)));
        let ri = IntervalIndex::from_entries(r.iter().enumerate().map(|(i, r)| (i as u32, r)));
        let mut got = Vec::new();
        IntervalIndex::sweep_lb_below_ub(&li, &ri, |a, b| got.push((a, b)));
        assert_eq!(got, vec![(0, 0)]);
    }

    #[test]
    fn hash_key_index_canonicalizes() {
        let rows = vec![
            au_row(vec![RangeValue::certain(Value::Int(2))], 1, 1, 1),
            au_row(vec![RangeValue::certain(Value::float(2.0))], 1, 1, 1),
            au_row(vec![RangeValue::certain(Value::Int(3))], 1, 1, 1),
        ];
        let idx = HashKeyIndex::from_au_sg(&rows, &[0], 0..3u32);
        assert_eq!(idx.get(&[Value::float(2.0)]), &[0, 1]);
        assert_eq!(idx.get(&[Value::float(3.0)]), &[2]);
        assert!(idx.get(&[Value::float(9.0)]).is_empty());
    }

    #[test]
    fn sg_group_index_partitions_membership() {
        let rows = vec![
            // group 1, certain group-by
            au_row(
                vec![RangeValue::certain(Value::Int(1)), RangeValue::range(0i64, 0i64, 9i64)],
                1,
                1,
                1,
            ),
            // group 1 again, uncertain group-by value widening the box
            au_row(
                vec![RangeValue::range(0i64, 1i64, 4i64), RangeValue::certain(Value::Int(7))],
                1,
                1,
                1,
            ),
            // group 2, certain
            au_row(
                vec![RangeValue::certain(Value::Int(2)), RangeValue::certain(Value::Int(5))],
                1,
                1,
                1,
            ),
        ];
        let idx = SgGroupIndex::from_au(&rows, &[0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.key(0), &Tuple::new(vec![Value::Int(1)]));
        assert_eq!(idx.alpha(0), &[0, 1]);
        assert_eq!(idx.certain(0), &[0]);
        assert_eq!(idx.uncertain(), &[1]);
        // group 1's box merged the uncertain member: [0, 4]
        assert_eq!(idx.bbox(0).0[0], RangeValue::range(0i64, 1i64, 4i64));
        assert_eq!(idx.alpha(1), &[2]);

        // sweep group boxes against the uncertain rows: row 1 overlaps
        // both group boxes on attribute 0
        let gi = idx.bbox_interval_index(0);
        let ri = IntervalIndex::from_entries(
            idx.uncertain().iter().map(|&i| (i, &rows[i as usize].0 .0[0])),
        );
        let mut pairs = Vec::new();
        IntervalIndex::sweep_overlapping(&gi, &ri, |g, r| pairs.push((g, r)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn sg_group_index_keys_are_exact_not_canonicalized() {
        let rows = vec![
            au_row(vec![RangeValue::certain(Value::Int(2))], 1, 1, 1),
            au_row(vec![RangeValue::certain(Value::float(2.0))], 1, 1, 1),
        ];
        let idx = SgGroupIndex::from_au(&rows, &[0]);
        assert_eq!(idx.len(), 2, "Int 2 and Float 2.0 are distinct SG groups");
    }
}
