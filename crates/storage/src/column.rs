//! Column-major AU storage: per-attribute [`ValueLane`]s plus a
//! columnar annotation vector, and the packed order-preserving byte
//! keys normalization sorts on.
//!
//! A [`ColumnSet`] is the columnar twin of an [`crate::AuRelation`]'s
//! row list: attribute `c` of every row lives in `lanes[c]` (contiguous
//! `lb`/`sg`/`ub` component arrays when the column is homogeneously
//! typed, boxed `RangeValue`s otherwise — see [`audb_core::lane`]), and
//! the `N_AU` row annotations live in three contiguous `u64` arrays
//! ([`AnnotColumn`]). The row [`RangeTuple`] API stays available as a
//! materialized view ([`ColumnSet::row`]); fallback operators and
//! indexes that want rows never notice the layout underneath.
//!
//! Column sets are immutable once built and shared as `Arc`s: the
//! relation caches one per row list (invalidated on mutation), the
//! serving layer's snapshots publish the same `Arc`s to every reader,
//! and pipeline chunks borrow lane slices straight out of them without
//! copying.
//!
//! # Packed sort keys
//!
//! [`packed_range_key`] flattens a [`RangeTuple`] into a byte string
//! whose lexicographic order *refines* the tuple order: if
//! `key(a) < key(b)` then `a < b`, and key equality only happens on
//! one deliberate coarsening (long strings sharing a prefix — the key
//! says nothing past the first such value) that a full-comparison
//! tie-break resolves. Sharded-reduce normalization writes the keys of the
//! *distinct* tuples into one contiguous arena (fixed width per arity,
//! no allocation per row) and sorts a permutation on
//! `(arena bytes, tuple)` — a memcmp fast path in front of the exact
//! comparator — and stays byte-identical to sorting on the tuples
//! alone.
//!
//! Per [`Value`], the key is 18 bytes: a leading
//! [`Value::order_rank`] byte, then a 17-byte body —
//!
//! * `Int`/`Float`: the big-endian order-preserving transform of the
//!   value *as an f64* (so mixed numeric columns interleave exactly
//!   like [`Value::total_cmp`]), a tie byte (`Int` before `Float` on
//!   numeric ties, the total order's rule), then for `Int` the exact
//!   sign-flipped `i64` (cast collisions beyond 2^53 stay ordered);
//! * `Str`: the first 16 bytes, zero-padded, then `min(len, 17)` — the
//!   length orders strings that differ in trailing NULs, and 17 marks a
//!   truncated string: two of those with one prefix are equal here, so
//!   the rest of the tuple's key is zeroed and the pair falls back to
//!   the full comparison instead of being ordered by a later column;
//! * `Bool`: one `0`/`1` byte; `MinVal`/`Null`/`MaxVal`: rank only.

use audb_core::{AuAnnot, LaneSlice, RangeValue, Value, ValueLane};

use crate::tuple::RangeTuple;

/// The `N_AU` annotations of a row list, column-major: three contiguous
/// `u64` arrays instead of a struct per row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnnotColumn {
    pub lb: Vec<u64>,
    pub sg: Vec<u64>,
    pub ub: Vec<u64>,
}

impl AnnotColumn {
    pub fn len(&self) -> usize {
        self.lb.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lb.is_empty()
    }

    /// Materialize row `i`'s annotation. The stored components came
    /// from valid annotations, so the `lb ≤ sg ≤ ub` invariant holds.
    pub fn get(&self, i: usize) -> AuAnnot {
        AuAnnot { lb: self.lb[i], sg: self.sg[i], ub: self.ub[i] }
    }

    pub fn push(&mut self, a: AuAnnot) {
        self.lb.push(a.lb);
        self.sg.push(a.sg);
        self.ub.push(a.ub);
    }

    /// Exact storage footprint of the three component arrays.
    pub fn bytes(&self) -> u64 {
        (3 * self.lb.len() * std::mem::size_of::<u64>()) as u64
    }
}

/// The column-major layout of an AU row list: one [`ValueLane`] per
/// attribute plus the annotation column. Built from rows, immutable.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSet {
    lanes: Vec<ValueLane>,
    annots: AnnotColumn,
}

impl ColumnSet {
    /// Columnarize a row list of the given arity (the arity parameter
    /// covers the zero-row case, where the rows alone can't name it).
    pub fn from_rows(arity: usize, rows: &[(RangeTuple, AuAnnot)]) -> ColumnSet {
        let lanes =
            (0..arity).map(|c| ValueLane::from_cells(rows.iter().map(|(t, _)| &t.0[c]))).collect();
        let mut annots = AnnotColumn::default();
        annots.lb.reserve(rows.len());
        annots.sg.reserve(rows.len());
        annots.ub.reserve(rows.len());
        for (_, a) in rows {
            annots.push(*a);
        }
        ColumnSet { lanes, annots }
    }

    pub fn nrows(&self) -> usize {
        self.annots.len()
    }

    pub fn arity(&self) -> usize {
        self.lanes.len()
    }

    pub fn lane(&self, c: usize) -> &ValueLane {
        &self.lanes[c]
    }

    pub fn lanes(&self) -> &[ValueLane] {
        &self.lanes
    }

    /// Borrowed lane views for all attributes — the input shape of
    /// [`audb_core::Program::eval_range_lanes`].
    pub fn lane_slices(&self) -> Vec<LaneSlice<'_>> {
        self.lanes.iter().map(ValueLane::as_slice).collect()
    }

    pub fn annots(&self) -> &AnnotColumn {
        &self.annots
    }

    /// Materialize row `i` as a range tuple (the borrowed row view's
    /// owned form — fallback operators and tests want whole rows).
    pub fn row(&self, i: usize) -> RangeTuple {
        RangeTuple(self.lanes.iter().map(|l| l.get(i)).collect())
    }

    /// Exact storage footprint: every lane's component arrays (and
    /// boxed cells' string heap) plus the annotation column.
    pub fn estimated_bytes(&self) -> u64 {
        self.lanes.iter().map(ValueLane::lane_bytes).sum::<u64>() + self.annots.bytes()
    }

    /// [`ColumnSet::estimated_bytes`] computed straight from rows —
    /// same classification, same numbers, no lane allocation. This is
    /// what [`crate::AuRelation::estimated_bytes`] charges when the
    /// columnar cache hasn't been built.
    pub fn byte_size_of_rows(arity: usize, rows: &[(RangeTuple, AuAnnot)]) -> u64 {
        let n = rows.len();
        let mut total = (3 * n * std::mem::size_of::<u64>()) as u64; // annots
        for c in 0..arity {
            let (mut all_int, mut all_float, mut all_bool) = (true, true, true);
            let mut boxed = 0u64;
            for (t, _) in rows {
                let cell = &t.0[c];
                all_int &= matches!(
                    (&cell.lb, &cell.sg, &cell.ub),
                    (Value::Int(_), Value::Int(_), Value::Int(_))
                );
                all_float &= matches!(
                    (&cell.lb, &cell.sg, &cell.ub),
                    (Value::Float(_), Value::Float(_), Value::Float(_))
                );
                all_bool &= matches!(
                    (&cell.lb, &cell.sg, &cell.ub),
                    (Value::Bool(_), Value::Bool(_), Value::Bool(_))
                );
                for v in [&cell.lb, &cell.sg, &cell.ub] {
                    if let Value::Str(s) = v {
                        boxed += s.len() as u64;
                    }
                }
            }
            total += if all_int || all_float {
                (3 * n * 8) as u64
            } else if all_bool {
                (3 * n) as u64
            } else {
                (n * std::mem::size_of::<RangeValue>()) as u64 + boxed
            };
        }
        total
    }
}

// ---------------------------------------------------------------------------
// Packed order-preserving sort keys
// ---------------------------------------------------------------------------

/// Bytes per [`Value`] in a packed key.
pub const VALUE_KEY_BYTES: usize = 18;

/// Order-preserving transform of an `i64` into big-endian bytes
/// (flip the sign bit: unsigned byte order then matches signed order).
#[inline]
fn i64_key(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Order-preserving transform of a (non-NaN) `f64`: negative floats
/// flip entirely, non-negative flip the sign bit — unsigned byte order
/// then matches `total_cmp`.
#[inline]
fn f64_key(v: f64) -> [u8; 8] {
    let b = v.to_bits() as i64;
    let u = if b < 0 { !(b as u64) } else { (b as u64) ^ (1u64 << 63) };
    u.to_be_bytes()
}

/// Write the packed key of one [`Value`] into `out` (fully overwritten).
/// `false` when the key does not pin the value down (a string longer
/// than its prefix): keys equal here may hide either order.
pub fn packed_value_key(v: &Value, out: &mut [u8; VALUE_KEY_BYTES]) -> bool {
    let mut key = [0u8; VALUE_KEY_BYTES];
    key[0] = v.order_rank();
    match v {
        Value::MinVal | Value::Null | Value::MaxVal => {}
        Value::Bool(b) => key[1] = u8::from(*b),
        Value::Int(i) => {
            key[1..9].copy_from_slice(&f64_key(*i as f64));
            // key[9] = 0 — numeric tie: Int sorts before Float
            key[10..].copy_from_slice(&i64_key(*i));
        }
        Value::Float(f) => {
            key[1..9].copy_from_slice(&f64_key(f.get()));
            key[9] = 1;
        }
        Value::Str(s) => {
            let take = s.len().min(VALUE_KEY_BYTES - 2);
            key[1..1 + take].copy_from_slice(&s.as_bytes()[..take]);
            key[VALUE_KEY_BYTES - 1] = s.len().min(VALUE_KEY_BYTES - 1) as u8;
        }
    }
    *out = key;
    !matches!(v, Value::Str(s) if s.len() > VALUE_KEY_BYTES - 2)
}

/// The packed sort key of a whole range tuple, written into `out` (one
/// row of the normalization key arena, `arity × 3 ×`
/// [`VALUE_KEY_BYTES`] wide): the fixed-width value keys of every
/// attribute's `(lb, sg, ub)` in tuple order, so the byte-lexicographic
/// order refines the tuple's derived `Ord`. The key ends (zeros from
/// there on) after the first value it does not pin down; a tuple
/// narrower than `out` is zero-padded and a wider one truncated — all
/// of which only coarsen the key, which the full-comparison tie-break
/// resolves.
pub fn packed_range_key(t: &RangeTuple, out: &mut [u8]) {
    let mut cells = t.0.iter().flat_map(|rv| [&rv.lb, &rv.sg, &rv.ub]);
    let mut exact = true;
    for chunk in out.chunks_mut(VALUE_KEY_BYTES) {
        match (cells.next(), <&mut [u8; VALUE_KEY_BYTES]>::try_from(&mut *chunk)) {
            (Some(v), Ok(key)) if exact => exact = packed_value_key(v, key),
            _ => chunk.fill(0),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::LaneTag;

    fn rt(vals: Vec<RangeValue>) -> RangeTuple {
        RangeTuple(vals)
    }

    fn iv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::range(lb, sg, ub)
    }

    #[test]
    fn column_set_roundtrips_rows() {
        let rows = vec![
            (rt(vec![iv(1, 2, 3), RangeValue::certain(Value::str("a"))]), AuAnnot::triple(1, 1, 2)),
            (rt(vec![iv(-1, 0, 1), RangeValue::certain(Value::Int(7))]), AuAnnot::triple(0, 1, 1)),
        ];
        let cs = ColumnSet::from_rows(2, &rows);
        assert_eq!(cs.nrows(), 2);
        assert_eq!(cs.arity(), 2);
        assert_eq!(cs.lane(0).tag(), LaneTag::Int);
        assert_eq!(cs.lane(1).tag(), LaneTag::Boxed);
        for (i, (t, a)) in rows.iter().enumerate() {
            assert_eq!(cs.row(i), *t);
            assert_eq!(cs.annots().get(i), *a);
        }
    }

    #[test]
    fn empty_relation_keeps_arity() {
        let cs = ColumnSet::from_rows(3, &[]);
        assert_eq!(cs.arity(), 3);
        assert_eq!(cs.nrows(), 0);
        assert_eq!(cs.estimated_bytes(), 0);
    }

    #[test]
    fn byte_size_matches_built_lanes() {
        let rows = vec![
            (
                rt(vec![
                    iv(1, 2, 3),
                    RangeValue::certain(Value::float(1.5)),
                    RangeValue::certain(Value::str("hello")),
                    RangeValue::certain(Value::Bool(true)),
                ]),
                AuAnnot::triple(1, 1, 1),
            ),
            (
                rt(vec![
                    iv(4, 5, 6),
                    RangeValue::certain(Value::float(-2.0)),
                    RangeValue::certain(Value::Int(9)),
                    RangeValue::range(false, true, true),
                ]),
                AuAnnot::triple(2, 2, 3),
            ),
        ];
        let cs = ColumnSet::from_rows(4, &rows);
        assert_eq!(cs.estimated_bytes(), ColumnSet::byte_size_of_rows(4, &rows));
    }

    /// Packed keys order exactly like the values: strictly smaller key
    /// ⇒ strictly smaller value, and key equality only on coarsenings
    /// the tie-break comparison resolves.
    #[test]
    fn packed_key_order_refines_value_order() {
        use std::cmp::Ordering;
        let vals = vec![
            Value::MinVal,
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::float(-0.5),
            Value::Int(0),
            Value::float(0.0),
            Value::Int(2),
            Value::float(2.0),
            Value::float(2.5),
            Value::Int(1 << 60),
            Value::Int((1 << 60) + 1),
            Value::float(f64::INFINITY),
            Value::float(f64::NEG_INFINITY),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("a"),
            Value::str("a\0b"),
            Value::str("ab"),
            Value::str("b"),
            Value::str("a very long string that exceeds the prefix width"),
            Value::str("a very long string that exceeds the prefix width!"),
            Value::MaxVal,
        ];
        let keys: Vec<Vec<u8>> = vals
            .iter()
            .map(|v| {
                let mut k = [0xAAu8; VALUE_KEY_BYTES];
                packed_value_key(v, &mut k);
                k.to_vec()
            })
            .collect();
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                let vord = a.total_cmp(b);
                let kord = keys[i].cmp(&keys[j]);
                match kord {
                    Ordering::Less => assert_eq!(vord, Ordering::Less, "{a} vs {b}"),
                    Ordering::Greater => assert_eq!(vord, Ordering::Greater, "{a} vs {b}"),
                    Ordering::Equal => {} // coarsening; tie-break handles
                }
            }
        }
    }

    /// Sorting tuples by `(packed key, tuple)` is the tuple order.
    #[test]
    fn packed_tuple_sort_matches_tuple_sort() {
        let mut tuples = vec![
            rt(vec![iv(3, 3, 3), RangeValue::certain(Value::str("zz"))]),
            rt(vec![iv(1, 2, 3), RangeValue::certain(Value::str("a"))]),
            rt(vec![iv(1, 2, 3), RangeValue::certain(Value::str("ab"))]),
            rt(vec![iv(-5, 0, 5), RangeValue::certain(Value::float(0.5))]),
            rt(vec![
                RangeValue::new(Value::Int(1), Value::float(1.5), Value::Int(2)).unwrap(),
                RangeValue::certain(Value::Null),
            ]),
            rt(vec![iv(1, 1, 1), RangeValue::unknown(Value::Int(0))]),
            // a truncated string must not hand the order to the next
            // column: the longer string sorts last whatever follows it
            rt(vec![RangeValue::certain(Value::str("one prefix, 17+ bytes, tail b")), iv(0, 0, 0)]),
            rt(vec![RangeValue::certain(Value::str("one prefix, 17+ bytes, tail a")), iv(9, 9, 9)]),
            rt(vec![RangeValue::certain(Value::str("nul\0")), iv(0, 0, 0)]),
            rt(vec![RangeValue::certain(Value::str("nul")), iv(9, 9, 9)]),
        ];
        let key = |t: &RangeTuple| {
            let mut k = vec![0xAAu8; 2 * 3 * VALUE_KEY_BYTES];
            packed_range_key(t, &mut k);
            k
        };
        let mut by_key: Vec<(Vec<u8>, RangeTuple)> =
            tuples.iter().map(|t| (key(t), t.clone())).collect();
        by_key.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        tuples.sort();
        assert_eq!(by_key.into_iter().map(|(_, t)| t).collect::<Vec<_>>(), tuples);
    }
}
