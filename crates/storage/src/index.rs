//! Secondary index structures over relation rows, consulted by the join
//! planner and the aggregation/difference operators in `audb_query`.
//!
//! Two structures cover the paper's operator classes:
//!
//! * [`IntervalIndex`] — per-attribute `[lb, ub]` endpoint lists, sorted
//!   by both endpoints. Plane sweeps over two indexes enumerate exactly
//!   the row pairs whose ranges may satisfy an equality
//!   ([`IntervalIndex::sweep_overlapping`]) or order comparison
//!   ([`IntervalIndex::sweep_lb_below_ub`]) predicate, replacing the
//!   quadratic nested-loop candidate generation with
//!   `O(n log n + candidates)`. An AU index is built from a column lane
//!   ([`IntervalIndex::from_lane`]) — the joins', γ's and set
//!   difference's alike — and on an `Int`/`Float`/`Str` lane its
//!   endpoints stay `i64`/`f64`/dictionary codes; each sweep is one
//!   body, generic over the endpoint type, and emits the same pair
//!   sequence either way.
//! * [`HashKeyIndex`] — the one hash table for equi-joins on certain
//!   attributes (selected-guess values for AU rows, deterministic
//!   values for bag rows): row ids grouped per hash of their canonical
//!   [`KeyCell`]s; a probe proposes by hash and confirms against the
//!   build side's cells. Two thin key adapters feed it — column lanes
//!   ([`lane_key`]: AU selected guesses, typed where the lane is) and
//!   deterministic values ([`det_key`]). [`HashKeyIndex::build_distinct`] is the same table
//!   over the *distinct* keys of a row range: the SG grouping behind
//!   aggregation, `Ψ` and set difference.
//!
//! All comparisons use the domain's total order ([`Value::total_cmp`]);
//! candidate sets are deliberately *supersets* of the
//! possibly-satisfying pairs where `value_eq` (Int/Float numeric
//! equality) is broader than the total order, because the planner
//! re-evaluates the predicate precisely on every candidate.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use audb_core::hash::{call_seed, keyed_hash_with};
use audb_core::{LaneSlice, LaneTag, StrDict, Value};

use crate::tuple::Tuple;

/// An interval endpoint the index sorts and sweeps on: the domain's
/// total order plus database equality. `i64`, `f64` and `u32` are the
/// cells of `Int`/`Float`/`Str` lanes (a `u32` a code of one dictionary),
/// for which both are the machine comparisons.
trait Endpoint: Clone {
    fn total_cmp(&self, other: &Self) -> Ordering;
    /// Database equality; only `Value`s have any (`Int 2` = `Float 2.0`)
    /// beyond the ties of the total order.
    fn value_eq(&self, other: &Self) -> bool {
        self.total_cmp(other).is_eq()
    }
}

impl Endpoint for i64 {
    fn total_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

impl Endpoint for f64 {
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }
}

impl Endpoint for u32 {
    fn total_cmp(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

impl Endpoint for Value {
    fn total_cmp(&self, other: &Self) -> Ordering {
        Value::total_cmp(self, other)
    }
    fn value_eq(&self, other: &Self) -> bool {
        Value::value_eq(self, other)
    }
}

/// `(lb, ub, row_id)` sorted by `lb` (ties by row id).
type Bounds<E> = Vec<(E, E, u32)>;

/// The endpoint list, typed when the index was built from an
/// `Int`/`Float`/`Str` lane (codes with their dictionary).
#[derive(Debug, Clone)]
enum Endpoints {
    Int(Bounds<i64>),
    Float(Bounds<f64>),
    Str(Bounds<u32>, Arc<StrDict>),
    Boxed(Bounds<Value>),
}

impl Endpoints {
    /// The list over boxed endpoints, in the same order (boxing
    /// preserves the total order) — what a sweep against an index of
    /// another endpoint type, or of another dictionary, runs on.
    fn boxed(&self) -> Cow<'_, [(Value, Value, u32)]> {
        fn lift<E: Copy>(b: &Bounds<E>, v: impl Fn(E) -> Value) -> Cow<'_, [(Value, Value, u32)]> {
            Cow::Owned(b.iter().map(|&(lb, ub, id)| (v(lb), v(ub), id)).collect())
        }
        match self {
            Endpoints::Int(b) => lift(b, Value::Int),
            Endpoints::Float(b) => lift(b, Value::float),
            Endpoints::Str(b, dict) => lift(b, |c| dict.values()[c as usize].clone()),
            Endpoints::Boxed(b) => Cow::Borrowed(b),
        }
    }
}

/// Sorted-endpoint index over the `[lb, ub]` bounds of one attribute of
/// a set of rows.
#[derive(Debug, Clone)]
pub struct IntervalIndex {
    by_lb: Endpoints,
    /// Positions into `by_lb`, sorted by `ub`.
    ub_order: Vec<u32>,
}

impl IntervalIndex {
    /// Build from `(lb, ub, row_id)` triples: sort by `lb`, then order
    /// the positions by `ub`.
    fn from_bounds<E: Endpoint>(
        mut by_lb: Bounds<E>,
        wrap: impl FnOnce(Bounds<E>) -> Endpoints,
    ) -> Self {
        by_lb.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut ub_order: Vec<u32> = (0..by_lb.len() as u32).collect();
        ub_order
            .sort_by(|&a, &b| by_lb[a as usize].1.total_cmp(&by_lb[b as usize].1).then(a.cmp(&b)));
        IntervalIndex { by_lb: wrap(by_lb), ub_order }
    }

    /// Index one attribute from its column lane (see
    /// [`crate::ColumnSet::lane_slices`]): an `Int`/`Float`/`Str` lane
    /// keeps its endpoints typed, any other lane boxes them. Sweeps emit
    /// the pairs an index over the lane's boxed cells emits.
    pub fn from_lane(lane: LaneSlice<'_>) -> Self {
        Self::from_lane_rows(lane, 0..lane.len() as u32)
    }

    /// [`IntervalIndex::from_lane`] over the lane rows `ids` only.
    pub fn from_lane_subset(lane: LaneSlice<'_>, ids: &[u32]) -> Self {
        Self::from_lane_rows(lane, ids.iter().copied())
    }

    fn from_lane_rows(lane: LaneSlice<'_>, ids: impl Iterator<Item = u32>) -> Self {
        match lane {
            LaneSlice::Int { lb, ub, .. } => Self::from_bounds(
                ids.map(|i| (lb[i as usize], ub[i as usize], i)).collect(),
                Endpoints::Int,
            ),
            LaneSlice::Float { lb, ub, .. } => Self::from_bounds(
                ids.map(|i| (lb[i as usize], ub[i as usize], i)).collect(),
                Endpoints::Float,
            ),
            LaneSlice::Str { dict, lb, ub, .. } => {
                Self::from_bounds(ids.map(|i| (lb[i as usize], ub[i as usize], i)).collect(), |b| {
                    Endpoints::Str(b, Arc::clone(dict))
                })
            }
            other => {
                let cell = |i: u32| {
                    let rv = other.get(i as usize);
                    (rv.lb, rv.ub, i)
                };
                Self::from_bounds(ids.map(cell).collect(), Endpoints::Boxed)
            }
        }
    }

    /// Index attribute `col` of deterministic rows (degenerate
    /// single-point intervals).
    pub fn from_det(rows: &[(Tuple, u64)], col: usize) -> Self {
        let point =
            |(i, (t, _)): (usize, &(Tuple, u64))| (t.0[col].clone(), t.0[col].clone(), i as u32);
        Self::from_bounds(rows.iter().enumerate().map(point).collect(), Endpoints::Boxed)
    }

    pub fn len(&self) -> usize {
        self.ub_order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ub_order.is_empty()
    }

    /// Plane sweep enumerating every pair of overlapping intervals
    /// between two indexes, in `O(n log n + pairs)`; `value_eq`-aware,
    /// matching the possibly-equal semantics of `Expr::Eq`. Calls
    /// `on_pair(left_row, right_row)` exactly once per overlapping pair.
    ///
    /// Runs on typed endpoints when both indexes hold the same type (and,
    /// for codes, one dictionary); otherwise the typed side is boxed
    /// once. The pair sequence is the same either way. On typed endpoints the pairs are exactly those
    /// [`RangeValue::overlaps`] holds for; boxed `Int`/`Float` endpoints
    /// add the `value_eq` ties the total order separates.
    pub fn sweep_overlapping(left: &Self, right: &Self, on_pair: impl FnMut(u32, u32)) {
        match (&left.by_lb, &right.by_lb) {
            (Endpoints::Int(l), Endpoints::Int(r)) => overlapping(l, r, on_pair),
            (Endpoints::Float(l), Endpoints::Float(r)) => overlapping(l, r, on_pair),
            (Endpoints::Str(l, a), Endpoints::Str(r, b)) if Arc::ptr_eq(a, b) => {
                overlapping(l, r, on_pair)
            }
            (l, r) => overlapping(&l.boxed(), &r.boxed(), on_pair),
        }
    }

    /// Sweep enumerating every pair where `left.lb` may be `≤ right.ub`
    /// — the possibly-true candidates of `left_col ≤ right_col` (and,
    /// as a superset, `<`) predicates. `value_eq`-equal endpoints are
    /// included even when the total order breaks the tie the other way.
    /// Typed like [`IntervalIndex::sweep_overlapping`].
    pub fn sweep_lb_below_ub(left: &Self, right: &Self, on_pair: impl FnMut(u32, u32)) {
        let order = &right.ub_order;
        match (&left.by_lb, &right.by_lb) {
            (Endpoints::Int(l), Endpoints::Int(r)) => lb_below_ub(l, r, order, on_pair),
            (Endpoints::Float(l), Endpoints::Float(r)) => lb_below_ub(l, r, order, on_pair),
            (Endpoints::Str(l, a), Endpoints::Str(r, b)) if Arc::ptr_eq(a, b) => {
                lb_below_ub(l, r, order, on_pair)
            }
            (l, r) => lb_below_ub(&l.boxed(), &r.boxed(), order, on_pair),
        }
    }
}

/// `a` is at-or-after `b`: not strictly before in the total order, or
/// `value_eq`-equal (Int/Float numeric ties).
fn at_least<E: Endpoint>(a: &E, b: &E) -> bool {
    a.total_cmp(b) != Ordering::Less || a.value_eq(b)
}

/// The body of [`IntervalIndex::sweep_overlapping`].
fn overlapping<E: Endpoint>(
    left: &[(E, E, u32)],
    right: &[(E, E, u32)],
    mut on_pair: impl FnMut(u32, u32),
) {
    let (nl, nr) = (left.len(), right.len());
    let (mut i, mut j) = (0usize, 0usize);
    // Active lists hold positions whose interval may still overlap
    // upcoming events; pruned lazily at each event.
    let mut active_l: Vec<usize> = Vec::new();
    let mut active_r: Vec<usize> = Vec::new();
    while i < nl || j < nr {
        let take_left =
            j >= nr || (i < nl && left[i].0.total_cmp(&right[j].0) != Ordering::Greater);
        if take_left {
            let (lb, _, row) = &left[i];
            active_r.retain(|&rj| at_least(&right[rj].1, lb));
            for &rj in &active_r {
                on_pair(*row, right[rj].2);
            }
            active_l.push(i);
            i += 1;
        } else {
            let (lb, _, row) = &right[j];
            active_l.retain(|&li| at_least(&left[li].1, lb));
            for &li in &active_l {
                on_pair(left[li].2, *row);
            }
            active_r.push(j);
            j += 1;
        }
    }
}

/// The body of [`IntervalIndex::sweep_lb_below_ub`]; `ub_order` is the
/// right index's.
fn lb_below_ub<E: Endpoint>(
    left: &[(E, E, u32)],
    right: &[(E, E, u32)],
    ub_order: &[u32],
    mut on_pair: impl FnMut(u32, u32),
) {
    let mut p = 0usize;
    for &rj in ub_order {
        let (_, bound, rrow) = &right[rj as usize];
        while p < left.len() && at_least(bound, &left[p].0) {
            p += 1;
        }
        for e in &left[..p] {
            on_pair(e.2, *rrow);
        }
    }
}

/// One cell of a canonical join key. `Int` and `Float` cells hash by the
/// bit pattern of their `f64` cast, so `value_eq`-equal numbers (`Int 2`,
/// `Float 2.0`) meet in one bucket, and compare as [`Value::value_eq`]
/// has it: two `Int`s exactly, an `Int` and a `Float` by the cast — so
/// integers one cast collapses (beyond 2^53) share a bucket but never
/// match. A `Code` is a `Str` lane's dictionary code, hashed and compared
/// as itself: it meets only codes of the same dictionary. Anything else
/// is the value itself.
#[derive(Debug, Clone, Copy)]
pub enum KeyCell<'a> {
    Int(i64),
    Float(f64),
    Bool(bool),
    Code(u32),
    Other(&'a Value),
}

/// `value_eq` — across the two sides' borrows.
impl<'b> PartialEq<KeyCell<'b>> for KeyCell<'_> {
    fn eq(&self, other: &KeyCell<'b>) -> bool {
        match (self, other) {
            (KeyCell::Int(a), KeyCell::Int(b)) => a == b,
            (KeyCell::Float(a), KeyCell::Float(b)) => a.to_bits() == b.to_bits(),
            (KeyCell::Int(i), KeyCell::Float(f)) | (KeyCell::Float(f), KeyCell::Int(i)) => {
                *i as f64 == *f
            }
            (KeyCell::Bool(a), KeyCell::Bool(b)) => a == b,
            (KeyCell::Code(a), KeyCell::Code(b)) => a == b,
            (KeyCell::Other(a), KeyCell::Other(b)) => a == b,
            _ => false,
        }
    }
}

impl<'a> KeyCell<'a> {
    pub fn of(v: &'a Value) -> Self {
        match v {
            Value::Int(i) => KeyCell::Int(*i),
            Value::Float(f) => KeyCell::Float(f.get()),
            Value::Bool(b) => KeyCell::Bool(*b),
            other => KeyCell::Other(other),
        }
    }
}

/// The selected-guess join key of lane row `row`, one lane per key
/// column — no `Value` is built on a typed lane. `codes`: a `Str` cell is
/// its dictionary code ([`KeyCell::Code`]), which is right when every key
/// matched against this one is read off lanes of the same dictionaries
/// (one relation's grouping; a join whose key lanes are
/// [`LaneSlice::typed_alike`]); else it is the dictionary's `&Value`.
pub fn lane_key<'a>(
    lanes: &'a [LaneSlice<'a>],
    codes: bool,
    row: u32,
) -> impl Iterator<Item = KeyCell<'a>> + Clone {
    let row = row as usize;
    lanes.iter().map(move |lane| match lane {
        LaneSlice::Int { sg, .. } => KeyCell::Int(sg[row]),
        LaneSlice::Float { sg, .. } => KeyCell::Float(sg[row]),
        LaneSlice::Bool { sg, .. } => KeyCell::Bool(sg[row]),
        LaneSlice::Str { sg, .. } if codes => KeyCell::Code(sg[row]),
        LaneSlice::Str { dict, sg, .. } => KeyCell::Other(&dict.values()[sg[row] as usize]),
        LaneSlice::Boxed(cells) => KeyCell::of(&cells[row].sg),
    })
}

/// May keys off the lanes `a` and keys off the lanes `b` (key column by
/// key column) be matched with `codes` ([`lane_key`])? Only when every
/// pair that reads a `Str` lane reads two of one dictionary.
pub fn shared_codes(a: &[LaneSlice<'_>], b: &[LaneSlice<'_>]) -> bool {
    let no_str = |l: &LaneSlice<'_>| l.tag() != LaneTag::Str;
    a.iter().zip(b).all(|(x, y)| x.typed_alike(y) || (no_str(x) && no_str(y)))
}

/// The join key of deterministic values over `cols`.
pub fn det_key<'a>(
    vals: &'a [Value],
    cols: &'a [usize],
) -> impl Iterator<Item = KeyCell<'a>> + Clone {
    cols.iter().map(move |c| KeyCell::of(&vals[*c]))
}

/// Hash table over canonical join keys of certain attributes: per build
/// row one hash of its [`KeyCell`]s under a per-build seed, rows chained
/// per table slot in build order. A probe *proposes* the rows of its
/// key's hash and *confirms* each against the build side's own cells, so
/// no key is ever stored.
#[derive(Debug, Clone)]
pub struct HashKeyIndex {
    seed: u64,
    /// Per slot (low hash bits): its first build position, or [`END`].
    heads: Vec<u32>,
    /// Per build position: the next one of its slot, its hash, its row.
    chain: Vec<(u32, u64, u32)>,
}

const END: u32 = u32::MAX;

impl HashKeyIndex {
    /// Index the build rows `ids` (callers pass only rows whose key
    /// attributes are certain); `key(id)` yields a row's key cells.
    pub fn build<'a, K: Iterator<Item = KeyCell<'a>>>(
        ids: impl IntoIterator<Item = u32>,
        key: impl Fn(u32) -> K,
    ) -> Self {
        let seed = call_seed();
        let mut chain: Vec<_> =
            ids.into_iter().map(|id| (END, hash_key(seed, key(id)), id)).collect();
        let mut heads = vec![END; (2 * chain.len()).next_power_of_two()];
        // back to front, each row in front of its slot's chain: a chain
        // lists its rows in build order
        let mask = heads.len() - 1;
        for pos in (0..chain.len()).rev() {
            let head = &mut heads[chain[pos].1 as usize & mask];
            chain[pos].0 = std::mem::replace(head, pos as u32);
        }
        HashKeyIndex { seed, heads, chain }
    }

    /// Group rows `0..n` by their *distinct* keys — grouping, not joining,
    /// through the table [`HashKeyIndex::build`] builds: per row the rank
    /// `g` of its key in first-appearance order. A row proposes the
    /// earlier keys of its hash and `same(first, row)` alone confirms, so
    /// the caller decides what "equal" is beyond the canonical cells (SG
    /// groups: exact `Value`s).
    pub fn build_distinct<'a, K: Iterator<Item = KeyCell<'a>>>(
        n: usize,
        key: impl Fn(u32) -> K,
        same: impl Fn(u32, u32) -> bool,
    ) -> Vec<u32> {
        let seed = call_seed();
        let mut heads = vec![END; (2 * n).next_power_of_two()];
        let (mask, mut chain) = (heads.len() - 1, Vec::<(u32, u64, u32)>::new());
        let mut positions = Vec::with_capacity(n);
        for id in 0..n as u32 {
            let h = hash_key(seed, key(id));
            let head = &mut heads[h as usize & mask];
            let mut pos = *head;
            while pos != END {
                let (next, hash, first) = chain[pos as usize];
                if hash == h && same(first, id) {
                    break;
                }
                pos = next;
            }
            if pos == END {
                // a new key, in front of its slot's chain
                pos = chain.len() as u32;
                chain.push((std::mem::replace(head, pos), h, id));
            }
            positions.push(pos);
        }
        positions
    }

    /// The build rows whose key equals `key`, in build order; `built(id)`
    /// yields a build row's key cells, as in [`HashKeyIndex::build`].
    pub fn matches<'s, 'p, 'b, P, B>(
        &'s self,
        key: P,
        built: impl Fn(u32) -> B + 's,
    ) -> impl Iterator<Item = u32> + 's
    where
        P: Iterator<Item = KeyCell<'p>> + Clone + 's,
        B: Iterator<Item = KeyCell<'b>>,
    {
        let h = hash_key(self.seed, key.clone());
        let link = move |&pos: &u32| (pos != END).then(|| self.chain[pos as usize]);
        let slot = link(&self.heads[h as usize & (self.heads.len() - 1)]);
        std::iter::successors(slot, move |(next, ..)| link(next))
            .filter(move |&(_, hash, id)| hash == h && key.clone().eq(built(id)))
            .map(|(.., id)| id)
    }
}

fn hash_key<'a>(seed: u64, key: impl Iterator<Item = KeyCell<'a>>) -> u64 {
    keyed_hash_with(seed, |h| {
        key.for_each(|cell| match cell {
            KeyCell::Int(i) => h.write_u64((i as f64).to_bits()),
            KeyCell::Float(f) => h.write_u64(f.to_bits()),
            KeyCell::Bool(b) => h.write_u8(u8::from(b)),
            KeyCell::Code(c) => h.write_u32(c),
            KeyCell::Other(v) => v.hash(h),
        })
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::au::au_row;
    use crate::tuple::RangeTuple;
    use audb_core::{AuAnnot, RangeValue};

    /// The selected-guess key of AU row `row` over `cols`, boxed cell by
    /// cell — the reference the lane keys are checked against.
    fn au_sg_key<'a>(
        rows: &'a [(RangeTuple, AuAnnot)],
        cols: &'a [usize],
        row: u32,
    ) -> impl Iterator<Item = KeyCell<'a>> + Clone {
        let t = &rows[row as usize].0;
        cols.iter().map(move |c| KeyCell::of(&t.0[*c].sg))
    }

    impl IntervalIndex {
        /// Build from `(row_id, range)` pairs: the boxed reference the
        /// lane-built indexes are checked against.
        fn from_entries<'a>(entries: impl Iterator<Item = (u32, &'a RangeValue)>) -> Self {
            let bounds = entries.map(|(id, r)| (r.lb.clone(), r.ub.clone(), id)).collect();
            Self::from_bounds(bounds, Endpoints::Boxed)
        }
    }

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
        for (cells, typed) in [(&mixed, false), (&ints, true)] {
            let lane = ValueLane::from_cells(cells.iter());
            let a = IntervalIndex::from_lane(lane.as_slice());
            let b =
                IntervalIndex::from_entries(cells.iter().enumerate().map(|(i, r)| (i as u32, r)));
            assert_eq!(matches!(a.by_lb, Endpoints::Int(_)), typed);
            assert_eq!(a.by_lb.boxed(), b.by_lb.boxed());
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
        let key = |i| au_sg_key(&rows, &[0], i);
        let idx = HashKeyIndex::build(0..3u32, key);
        let get = |v: Value| idx.matches([KeyCell::of(&v)].into_iter(), key).collect::<Vec<_>>();
        assert_eq!(get(Value::float(2.0)), [0, 1]);
        assert_eq!(get(Value::Int(3)), [2]);
        assert!(get(Value::float(9.0)).is_empty());
    }

    /// Propose, then confirm: rows that share a hash without sharing a
    /// key are proposed and rejected against the build side's cells. (A
    /// build whose key function lies — one hash for every row — stands
    /// in for a collision.)
    #[test]
    fn hash_key_index_confirms_what_the_hash_proposes() {
        let rows: Vec<_> = [4i64, 5, 4, 6, 5, 4]
            .iter()
            .map(|k| au_row(vec![RangeValue::certain(Value::Int(*k))], 1, 1, 1))
            .collect();
        let key = |i| au_sg_key(&rows, &[0], i);
        let colliding = HashKeyIndex::build(0..6u32, |_| key(0));
        // probing with row 0's cells reaches the one group; its own key decides
        let confirmed = |i: u32| {
            let shifted = |id| key((id + i) % 6);
            colliding.matches(key(0), shifted).collect::<Vec<_>>()
        };
        assert_eq!(confirmed(0), [0, 2, 5]);
        assert_eq!(confirmed(1), [1, 4, 5], "rows whose successor holds key 4");
    }

    /// The distinct-key table numbers keys in first-appearance order, and
    /// `same` alone decides what a key is (exact SG values split what
    /// the canonical cells collapse).
    #[test]
    fn build_distinct_numbers_keys_in_first_appearance_order() {
        let vals = [Value::Int(4), Value::Int(5), Value::Int(4), Value::float(4.0), Value::Int(6)];
        let rows: Vec<_> =
            vals.iter().map(|v| au_row(vec![RangeValue::certain(v.clone())], 1, 1, 1)).collect();
        let key = |i| au_sg_key(&rows, &[0], i);
        let sg = |i: u32| &rows[i as usize].0 .0[0].sg;
        let positions = HashKeyIndex::build_distinct(5, key, |a, b| sg(a) == sg(b));
        assert_eq!(positions, [0, 1, 0, 2, 3], "`Int 4` and `Float 4.0`: one cell, two keys");
        let positions = HashKeyIndex::build_distinct(5, key, |a, b| sg(a).value_eq(sg(b)));
        assert_eq!(positions, [0, 1, 0, 0, 2]);
        assert!(HashKeyIndex::build_distinct(0, key, |_, _| true).is_empty());
    }

    // -----------------------------------------------------------------
    // typed ≡ boxed, order included
    // -----------------------------------------------------------------

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Value pools per column kind: `Int` and `Float` build typed lanes,
    /// the rest boxed ones; small domains force ties on `lb` and
    /// duplicate cells.
    fn pools() -> Vec<(&'static str, Vec<Value>)> {
        let ints: Vec<Value> = (-2..5).map(Value::Int).collect();
        let floats: Vec<Value> = (-3..8).map(|i| Value::float(i as f64 * 0.5)).collect();
        let big = 1i64 << 53;
        let mixed = [ints.clone(), floats.clone()].concat();
        let huge = vec![Value::Int(big), Value::Int(big + 1), Value::float(big as f64)];
        let strs =
            ["", "a", "ab", "b", "a shared prefix of 25 bytes!", "a shared prefix of 25 bytes?"];
        let sentinels = vec![
            Value::MinVal,
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(1),
            Value::float(1.0),
            Value::str("s"),
            Value::MaxVal,
        ];
        vec![
            ("int", ints),
            ("float", floats),
            ("mixed", mixed),
            ("huge", huge),
            ("str", strs.into_iter().map(Value::str).collect()),
            ("sentinel", sentinels),
            ("bool", vec![Value::Bool(false), Value::Bool(true)]),
        ]
    }

    fn column(pool: &[Value], n: usize, rng: &mut XorShift) -> Vec<RangeValue> {
        (0..n)
            .map(|_| {
                let mut v = [(); 3].map(|()| pool[rng.below(pool.len())].clone());
                v.sort();
                let [lb, sg, ub] = v;
                RangeValue::new(lb, sg, ub).unwrap()
            })
            .collect()
    }

    /// Every other row, or every row.
    fn subset(n: usize, sparse: bool) -> Vec<u32> {
        (0..n as u32).filter(|i| !sparse || i % 2 == 1).collect()
    }

    /// `from_lane` / `from_lane_subset` against `from_entries` over the
    /// materialized cells: both sweeps call `on_pair` with the same
    /// sequence — typed × typed, typed × boxed and boxed × boxed, ties on
    /// `lb`, duplicates, empty sides and subsets included.
    #[test]
    fn typed_and_boxed_sweeps_emit_the_same_sequence() {
        use audb_core::ValueLane;
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let pools = pools();
        let (mut typed_sides, mut pairs_seen) = (0usize, 0usize);
        for (lname, lpool) in &pools {
            for (rname, rpool) in &pools {
                for (nl, nr, sparse) in
                    [(0, 5, false), (6, 0, true), (1, 1, false), (9, 7, true), (40, 33, false)]
                {
                    let (lc, rc) = (column(lpool, nl, &mut rng), column(rpool, nr, &mut rng));
                    let (lids, rids) = (subset(nl, sparse), subset(nr, !sparse));
                    let lanes =
                        [ValueLane::from_cells(lc.iter()), ValueLane::from_cells(rc.iter())];
                    let of_lane = |side: usize, ids: &[u32], n: usize| {
                        let lane = lanes[side].as_slice();
                        if ids.len() == n {
                            IntervalIndex::from_lane(lane)
                        } else {
                            IntervalIndex::from_lane_subset(lane, ids)
                        }
                    };
                    let of_cells = |cells: &[RangeValue], ids: &[u32]| {
                        IntervalIndex::from_entries(ids.iter().map(|&i| (i, &cells[i as usize])))
                    };
                    let (tl, tr) = (of_lane(0, &lids, nl), of_lane(1, &rids, nr));
                    let (bl, br) = (of_cells(&lc, &lids), of_cells(&rc, &rids));
                    typed_sides += [&tl, &tr]
                        .iter()
                        .filter(|i| !matches!(i.by_lb, Endpoints::Boxed(_)))
                        .count();
                    let ctx = format!("{lname} × {rname}, {nl} × {nr}");
                    for (l, r) in [(&tl, &tr), (&tl, &br), (&bl, &tr)] {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        IntervalIndex::sweep_overlapping(l, r, |a, b| got.push((a, b)));
                        IntervalIndex::sweep_overlapping(&bl, &br, |a, b| want.push((a, b)));
                        assert_eq!(got, want, "overlapping: {ctx}");
                        pairs_seen += want.len();
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        IntervalIndex::sweep_lb_below_ub(l, r, |a, b| got.push((a, b)));
                        IntervalIndex::sweep_lb_below_ub(&bl, &br, |a, b| want.push((a, b)));
                        assert_eq!(got, want, "lb_below_ub: {ctx}");
                    }
                }
            }
        }
        assert!(typed_sides > 50 && pairs_seen > 10_000, "{typed_sides} typed, {pairs_seen} pairs");
    }

    /// The hash index through each key adapter returns, per probe, the
    /// build ids whose key cells are `value_eq` to the probe's, in build
    /// order — what the map from canonical key to row list it replaced
    /// held, except that integers one `f64` cast collapses no longer
    /// share an entry: `Int 2` ≡ `Float 2.0`, integers at 2^53 and 2^53 + 1 apart
    /// (one bucket, no match), multi-column keys, `Str` keys — as codes of
    /// one dictionary and as strings across two — and `Null`.
    #[test]
    fn hash_key_index_matches_the_map_it_replaced_through_every_adapter() {
        use audb_core::ValueLane;
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let pools = pools();
        for (name, pool) in &pools {
            for (other, pool2) in pools.iter().take(4) {
                // certain key cells: (this pool, one of int/float/mixed/huge)
                let mut side = |n: usize| -> Vec<(RangeTuple, AuAnnot)> {
                    (0..n)
                        .map(|_| {
                            let a = pool[rng.below(pool.len())].clone();
                            let b = pool2[rng.below(pool2.len())].clone();
                            au_row(vec![RangeValue::certain(a), RangeValue::certain(b)], 1, 1, 1)
                        })
                        .collect()
                };
                let (build, probe) = (side(60), side(40));
                let cols = [0usize, 1];
                let ids = subset(build.len(), true);
                let matching = |t: &RangeTuple| -> Vec<u32> {
                    let eq = |i: u32| {
                        let b = &build[i as usize].0;
                        cols.iter().all(|&c| b.0[c].sg.value_eq(&t.0[c].sg))
                    };
                    ids.iter().copied().filter(|&i| eq(i)).collect()
                };

                let lanes = |rows: &[(RangeTuple, AuAnnot)]| -> Vec<ValueLane> {
                    cols.iter()
                        .map(|c| ValueLane::from_cells(rows.iter().map(|(t, _)| &t.0[*c])))
                        .collect()
                };
                // two dictionaries (one per side), and one lane over both
                let (blanes, planes) = (lanes(&build), lanes(&probe));
                let both = lanes(&[build.clone(), probe.clone()].concat());
                let bslices: Vec<_> = blanes.iter().map(ValueLane::as_slice).collect();
                let pslices: Vec<_> = planes.iter().map(ValueLane::as_slice).collect();
                let (nb, np) = (build.len(), probe.len());
                let bshared: Vec<_> = both.iter().map(|l| l.slice(0..nb)).collect();
                let pshared: Vec<_> = both.iter().map(|l| l.slice(nb..nb + np)).collect();
                let str_pool = blanes[0].tag() == LaneTag::Str;
                assert_eq!(shared_codes(&bslices, &pslices), !str_pool, "{name}");
                assert!(shared_codes(&bshared, &pshared), "{name}");
                let across = shared_codes(&bslices, &pslices);
                let by_lane =
                    HashKeyIndex::build(ids.iter().copied(), |i| lane_key(&bslices, across, i));
                let by_code =
                    HashKeyIndex::build(ids.iter().copied(), |i| lane_key(&bshared, true, i));
                let by_au =
                    HashKeyIndex::build(ids.iter().copied(), |i| au_sg_key(&build, &cols, i));
                let det: Vec<Tuple> = build.iter().map(|(t, _)| t.sg()).collect();
                let by_det = HashKeyIndex::build(ids.iter().copied(), |i| {
                    det_key(det[i as usize].values(), &cols)
                });
                assert_ne!(by_lane.seed, by_au.seed, "two builds do not share a hash seed");

                for (p, (t, _)) in probe.iter().enumerate() {
                    let want = matching(t);
                    let ctx = format!("{name} × {other}, probe {t}");
                    let got: Vec<u32> = by_lane
                        .matches(lane_key(&pslices, across, p as u32), |i| {
                            lane_key(&bslices, across, i)
                        })
                        .collect();
                    assert_eq!(got, want, "lanes: {ctx}");
                    let got: Vec<u32> = by_code
                        .matches(lane_key(&pshared, true, p as u32), |i| {
                            lane_key(&bshared, true, i)
                        })
                        .collect();
                    assert_eq!(got, want, "lanes of one dictionary: {ctx}");
                    let got: Vec<u32> = by_au
                        .matches(au_sg_key(&probe, &cols, p as u32), |i| {
                            au_sg_key(&build, &cols, i)
                        })
                        .collect();
                    assert_eq!(got, want, "AU rows: {ctx}");
                    let sg = t.sg();
                    let got: Vec<u32> = by_det
                        .matches(det_key(sg.values(), &cols), |i| {
                            det_key(det[i as usize].values(), &cols)
                        })
                        .collect();
                    assert_eq!(got, want, "det rows: {ctx}");
                }
            }
        }
        // the empty index proposes nothing
        let v = Value::Int(1);
        let none = |_: u32| std::iter::empty();
        let empty = HashKeyIndex::build([], none);
        assert_eq!(empty.matches([KeyCell::of(&v)].into_iter(), none).count(), 0);
    }
}
