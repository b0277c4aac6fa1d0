//! Column-major AU storage: per-attribute [`ValueLane`]s plus a
//! columnar annotation vector, and the packed order-preserving byte
//! keys normalization sorts on.
//!
//! A [`ColumnSet`] is the columnar twin of an [`crate::AuRelation`]'s
//! row list: attribute `c` of every row lives in `lanes[c]` (contiguous
//! `lb`/`sg`/`ub` component arrays when the column is homogeneously
//! typed — strings as dictionary codes — boxed `RangeValue`s otherwise;
//! see [`audb_core::lane`]), and the `N_AU` row annotations live in
//! three contiguous `u64` arrays ([`AnnotColumn`]). The row
//! [`RangeTuple`] API stays available as a materialized view
//! ([`ColumnSet::row`]); fallback operators and indexes that want rows
//! never notice the layout underneath.
//!
//! Column sets are immutable once built and shared as `Arc`s: the
//! relation caches one per row list (invalidated on mutation), the
//! serving layer's snapshots publish the same `Arc`s to every reader,
//! and pipeline chunks borrow lane slices straight out of them without
//! copying. A set may also keep values derived from its lanes and another
//! set's — a join's probe index between two stored relations
//! ([`ColumnSet::derived`]) — which live as long as both sets do.
//!
//! # Packed sort keys
//!
//! [`packed_range_key`] flattens a [`RangeTuple`] into a byte string
//! whose lexicographic order *refines* the tuple order: if
//! `key(a) < key(b)` then `a < b`, and key equality only happens on
//! one deliberate coarsening (long strings sharing a prefix — the key
//! says nothing past the first such value) that a full-comparison
//! tie-break resolves. A key that says nothing past such a value is
//! *inexact*; an exact key pins its tuple down — equal exact keys are
//! equal tuples. Normalization (`audb_exec::reduce`) writes the keys of
//! every row into one contiguous arena (fixed width per arity, no
//! allocation per row) and sorts a permutation on `(arena bytes,
//! tuple)` — the bytes a big-endian `u64` word at a time, the tuples
//! only where equal keys are not all exact — and stays byte-identical
//! to sorting on the tuples alone.
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

use std::any::Any;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

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
    /// An empty column with room for `n` annotations.
    pub fn with_capacity(n: usize) -> AnnotColumn {
        AnnotColumn {
            lb: Vec::with_capacity(n),
            sg: Vec::with_capacity(n),
            ub: Vec::with_capacity(n),
        }
    }

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
/// attribute plus the annotation column. Built from rows, immutable —
/// [`ColumnSet::append`] aside, which only a sole owner can call.
#[derive(Clone, PartialEq)]
pub struct ColumnSet {
    lanes: Vec<ValueLane>,
    annots: AnnotColumn,
    /// What was derived from these lanes and another set's
    /// ([`ColumnSet::derived`]).
    derived: Derived,
}

impl fmt::Debug for ColumnSet {
    /// The rows' data only: what was derived from them is not part of it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnSet")
            .field("lanes", &self.lanes)
            .field("annots", &self.annots)
            .finish()
    }
}

/// One value derived from two column sets under a key: kept by the
/// first set, naming the second by a [`Weak`] (a self-derived entry
/// forms no cycle).
struct DerivedEntry {
    other: Weak<ColumnSet>,
    key: Box<dyn Any + Send + Sync>,
    value: Arc<dyn Any + Send + Sync>,
}

/// The values kept beside a column set's lanes — a stored relation's
/// join indexes — each derived from its lanes and another set's. Not
/// part of the data: a clone starts empty, equality ignores it, and an
/// entry whose other set is gone is pruned on the next access.
#[derive(Default)]
struct Derived(Mutex<Vec<DerivedEntry>>);

impl Derived {
    /// The live entries, the dead ones pruned.
    fn entries(&self) -> MutexGuard<'_, Vec<DerivedEntry>> {
        let mut entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|e| e.other.strong_count() > 0);
        entries
    }

    fn find<K: PartialEq + 'static, V: Send + Sync + 'static>(
        entries: &[DerivedEntry],
        other: &Arc<ColumnSet>,
        key: &K,
    ) -> Option<Arc<V>> {
        let same = |e: &&DerivedEntry| {
            e.other.upgrade().is_some_and(|o| Arc::ptr_eq(&o, other))
                && e.key.downcast_ref::<K>() == Some(key)
        };
        entries.iter().find(same).and_then(|e| Arc::clone(&e.value).downcast::<V>().ok())
    }
}

impl Clone for Derived {
    fn clone(&self) -> Derived {
        Derived::default()
    }
}

impl PartialEq for Derived {
    fn eq(&self, _: &Derived) -> bool {
        true
    }
}

impl ColumnSet {
    /// Columnarize a row list of the given arity (the arity parameter
    /// covers the zero-row case, where the rows alone can't name it).
    pub fn from_rows(arity: usize, rows: &[(RangeTuple, AuAnnot)]) -> ColumnSet {
        let lanes =
            (0..arity).map(|c| ValueLane::from_cells(rows.iter().map(|(t, _)| &t.0[c]))).collect();
        let mut annots = AnnotColumn::with_capacity(rows.len());
        for (_, a) in rows {
            annots.push(*a);
        }
        ColumnSet { lanes, annots, derived: Derived::default() }
    }

    /// A column set of lanes an operator built: `lanes[c]` is attribute
    /// `c` of every row, `annots[i]` row `i`'s annotation.
    pub fn new(lanes: Vec<ValueLane>, annots: AnnotColumn) -> ColumnSet {
        assert!(lanes.iter().all(|l| l.len() == annots.len()), "one cell per row in every lane");
        ColumnSet { lanes, annots, derived: Derived::default() }
    }

    /// Append `more`'s rows (same arity) behind this set's. Whatever was
    /// derived from the old rows goes.
    pub fn append(&mut self, more: &ColumnSet) {
        assert_eq!(self.arity(), more.arity(), "one lane per attribute");
        self.derived.0.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
        self.lanes.iter_mut().zip(&more.lanes).for_each(|(l, m)| l.append(&m.as_slice(), None));
        self.annots.lb.extend_from_slice(&more.annots.lb);
        self.annots.sg.extend_from_slice(&more.annots.sg);
        self.annots.ub.extend_from_slice(&more.annots.ub);
    }

    /// The value derived from this set's lanes and `other`'s under `key`
    /// that [`ColumnSet::keep_derived`] kept, if any. `other` is matched
    /// by identity ([`Arc::ptr_eq`]), `key` by `==`.
    pub fn derived<K, V>(&self, other: &Arc<ColumnSet>, key: &K) -> Option<Arc<V>>
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        Derived::find(&self.derived.entries(), other, key)
    }

    /// Keep `value`, derived from this set's lanes and `other`'s under
    /// `key`, for as long as both sets live — unless an entry for them
    /// was kept meanwhile. The entry holds `other` weakly, so a set may
    /// derive from itself.
    pub fn keep_derived<K, V>(&self, other: &Arc<ColumnSet>, key: K, value: Arc<V>)
    where
        K: PartialEq + Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let mut entries = self.derived.entries();
        if Derived::find::<K, V>(&entries, other, &key).is_none() {
            let other = Arc::downgrade(other);
            entries.push(DerivedEntry { other, key: Box::new(key), value });
        }
    }

    /// The row list this column set is the twin of, built cell by cell.
    pub fn rows(&self) -> Vec<(RangeTuple, AuAnnot)> {
        let lanes = self.lanes.iter().map(|lane| (lane.as_slice(), None));
        let listed = (0..self.nrows()).map(|i| (i as u32, self.annots.get(i)));
        GatherView::new(lanes.collect()).tuples(listed)
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

    /// Storage footprint: every lane's component arrays and text (a `Str`
    /// lane's dictionary once, boxed cells' text lengths — an upper bound
    /// on shared text; see [`ValueLane::lane_bytes`]) plus the annotation
    /// column.
    pub fn estimated_bytes(&self) -> u64 {
        self.lanes.iter().map(ValueLane::lane_bytes).sum::<u64>() + self.annots.bytes()
    }

    /// [`ColumnSet::estimated_bytes`] computed straight from rows —
    /// same classification, same numbers (a `Str` lane charged its
    /// distinct texts once, a boxed lane every `Str` cell's text), no
    /// lane allocation. This is what [`crate::AuRelation::estimated_bytes`]
    /// charges when the columnar cache hasn't been built.
    pub fn byte_size_of_rows(arity: usize, rows: &[(RangeTuple, AuAnnot)]) -> u64 {
        const INT: u8 = 1;
        const FLOAT: u8 = 2;
        const BOOL: u8 = 4;
        const STR: u8 = 8;
        // per column: the lane tags every component so far fits (a bit
        // each), its string heap, and its distinct strings while it may
        // still be a `Str` lane — one pass over the rows, one match per
        // component
        let mut cols = vec![(INT | FLOAT | BOOL | STR, 0u64, HashSet::new()); arity];
        for (t, _) in rows {
            for (cell, (tags, heap, dict)) in t.0[..arity].iter().zip(&mut cols) {
                for v in [&cell.lb, &cell.sg, &cell.ub] {
                    *tags &= match v {
                        Value::Int(_) => INT,
                        Value::Float(_) => FLOAT,
                        Value::Bool(_) => BOOL,
                        Value::Str(s) => {
                            *heap += s.len() as u64;
                            if *tags & STR != 0 {
                                dict.insert(&**s);
                            }
                            STR
                        }
                        _ => 0,
                    };
                }
            }
        }
        let n = rows.len();
        let lane = |(tags, heap, dict): &(u8, u64, HashSet<&str>)| {
            if tags & (INT | FLOAT) != 0 {
                (3 * n * 8) as u64
            } else if tags & BOOL != 0 {
                (3 * n) as u64
            } else if tags & STR != 0 {
                (3 * n * 4) as u64 + dict.iter().map(|s| s.len() as u64).sum::<u64>()
            } else {
                (n * std::mem::size_of::<RangeValue>()) as u64 + heap
            }
        };
        (3 * n * std::mem::size_of::<u64>()) as u64 + cols.iter().map(lane).sum::<u64>()
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
/// resolves. `true` when the key is exact: every value pinned down and
/// the tuple exactly `out`'s width.
pub fn packed_range_key(t: &RangeTuple, out: &mut [u8]) -> bool {
    let vals = t.0.iter().flat_map(|rv| [&rv.lb, &rv.sg, &rv.ub]);
    packed_value_keys(vals, out) && t.0.len() * 3 * VALUE_KEY_BYTES == out.len()
}

/// The packed sort keys of a morsel of tuples of `arity` attributes,
/// written into the empty `keys` in the layout their values admit; the
/// width returned. A value position — an attribute's `lb`, `sg` or `ub`
/// — that holds an `Int` in every tuple keys as the 8-byte sign-flipped
/// `i64`, one that holds a `Float` in every tuple as its 8
/// order-preserving bytes (the typed lanes' keys), any other as its
/// [`VALUE_KEY_BYTES`] unit ([`packed_value_key`]), whose
/// truncated-string rule ends the key (zeros from there on) and leaves
/// it inexact. One morsel's keys share one layout, so their byte order
/// refines the tuple order; `exact[i]` is set where tuple `i`'s key
/// pins it down. A tuple of another arity keys the morsel in
/// [`packed_range_key`]'s layout.
pub(crate) fn packed_tuple_keys<'t>(
    tuples: impl Iterator<Item = &'t RangeTuple> + Clone,
    arity: usize,
    keys: &mut Vec<u8>,
    exact: &mut [bool],
) -> usize {
    let values = |t: &'t RangeTuple| t.0.iter().flat_map(|rv| [&rv.lb, &rv.sg, &rv.ub]);
    const INT: u8 = 1;
    const FLOAT: u8 = 2;
    let mut kinds = vec![INT | FLOAT; 3 * arity];
    for t in tuples.clone() {
        if t.0.len() != arity {
            let width = 3 * arity * VALUE_KEY_BYTES;
            keys.resize(exact.len() * width, 0);
            for ((t, key), exact) in tuples.zip(keys.chunks_exact_mut(width.max(1))).zip(exact) {
                *exact = packed_range_key(t, key);
            }
            return width;
        }
        for (kind, v) in kinds.iter_mut().zip(values(t)) {
            *kind &= match v {
                Value::Int(_) => INT,
                Value::Float(_) => FLOAT,
                _ => 0,
            };
        }
    }
    let size = |kind: u8| if kind == 0 { VALUE_KEY_BYTES } else { 8 };
    let width: usize = kinds.iter().map(|&k| size(k)).sum();
    keys.resize(exact.len() * width, 0);
    for ((t, key), exact) in tuples.zip(keys.chunks_exact_mut(width.max(1))).zip(exact) {
        *exact = true;
        let mut at = 0;
        for (&kind, v) in kinds.iter().zip(values(t)) {
            let unit = &mut key[at..at + size(kind)];
            at += unit.len();
            match v {
                Value::Int(i) if kind != 0 => unit.copy_from_slice(&i64_key(*i)),
                Value::Float(f) if kind != 0 => unit.copy_from_slice(&f64_key(f.get())),
                v if !packed_value_keys([v].into_iter(), unit) => {
                    // the rest of the key stays zero
                    *exact = false;
                    break;
                }
                _ => {}
            }
        }
    }
    width
}

/// Fill `out`'s [`VALUE_KEY_BYTES`] units with the keys of `vals`, in
/// order: zeros from the first value a key does not pin down, and past
/// the last value. `false` when some value was not pinned down.
fn packed_value_keys<'v>(mut vals: impl Iterator<Item = &'v Value>, out: &mut [u8]) -> bool {
    let mut exact = true;
    for chunk in out.chunks_mut(VALUE_KEY_BYTES) {
        match (vals.next(), <&mut [u8; VALUE_KEY_BYTES]>::try_from(&mut *chunk)) {
            (Some(v), Ok(key)) if exact => exact = packed_value_key(v, key),
            _ => chunk.fill(0),
        }
    }
    exact
}

// ---------------------------------------------------------------------------
// Row lists as gathers over lanes
// ---------------------------------------------------------------------------

/// A row list that is not materialized: attribute `c` of row `i` is cell
/// `index[i]` (cell `i` without an index) of lane `c`. What a fused chain
/// delivers — pair ids into the two sides' column sets, source row ids,
/// or its projection's output lanes — and what normalization dedupes and
/// sorts ([`crate::AuRelation::normalized_view_rows`]) before
/// [`GatherView::tuples`] builds the surviving rows, once.
pub struct GatherView<'a> {
    cols: Vec<(LaneSlice<'a>, Option<&'a [u32]>)>,
}

impl<'a> GatherView<'a> {
    /// One `(lane, row index)` per attribute.
    pub fn new(cols: Vec<(LaneSlice<'a>, Option<&'a [u32]>)>) -> Self {
        GatherView { cols }
    }

    /// `(typed, arity)`: the attributes read off a typed (`Int`/`Float`/
    /// `Bool`/`Str`) lane, of all attributes.
    pub fn typed_cols(&self) -> (usize, usize) {
        let typed = |(l, _): &&(LaneSlice<'a>, _)| !matches!(l, LaneSlice::Boxed(_));
        (self.cols.iter().filter(typed).count(), self.cols.len())
    }

    /// A handle on row `row`: its `Eq`/`Ord` are the materialized
    /// [`RangeTuple`]'s, read off the lane cells.
    pub(crate) fn row(&self, row: u32) -> RowRef<'_> {
        RowRef { view: self, row }
    }

    /// Per attribute of row `i`: its lane and its cell.
    fn cells(&self, i: u32) -> impl Iterator<Item = (&LaneSlice<'a>, usize)> {
        self.cols.iter().map(move |(l, ix)| (l, ix.map_or(i, |ix| ix[i as usize]) as usize))
    }

    /// Build the rows `order` names, in that order, with their
    /// annotations.
    pub fn tuples(
        &self,
        order: impl Iterator<Item = (u32, AuAnnot)>,
    ) -> Vec<(RangeTuple, AuAnnot)> {
        let tuple = |i| RangeTuple(self.cells(i).map(|(l, cell)| l.get(cell)).collect());
        order.map(|(i, k)| (tuple(i), k)).collect()
    }

    /// The lane-side sibling of [`GatherView::tuples`]: the rows `order`
    /// names, in that order, gathered into owned lanes. Cell for cell
    /// [`ColumnSet::from_rows`] of those tuples; a lane keeps its tag
    /// where columnarizing the tuples might find a tighter one (a gathered
    /// `Boxed` lane stays `Boxed`).
    pub fn lanes(&self, order: impl Iterator<Item = (u32, AuAnnot)>) -> ColumnSet {
        let (mut rows, mut annots) = (Vec::new(), AnnotColumn::default());
        for (i, k) in order {
            rows.push(i);
            annots.push(k);
        }
        let lanes = self.cols.iter().map(|(lane, index)| match index {
            None => lane.gather(&rows),
            Some(ix) => lane.gather(&rows.iter().map(|&i| ix[i as usize]).collect::<Vec<_>>()),
        });
        ColumnSet { lanes: lanes.collect(), annots, derived: Derived::default() }
    }

    /// Bytes of a row's packed sort key ([`GatherView::write_keys`]).
    pub(crate) fn key_width(&self) -> usize {
        self.cols.iter().map(|(l, _)| cell_key_bytes(l)).sum()
    }

    /// Write the packed sort keys of `rows` into the empty `keys`, one
    /// [`GatherView::key_width`]-byte row each (the width returned), a
    /// column at a time (per block of rows): one typed loop per lane.
    /// Within one lane every cell has one type, so a typed component
    /// needs no rank byte, tie byte or cast — its order-preserving
    /// transform alone orders it exactly. A `Str`
    /// component is its big-endian code: a view column is one lane, of
    /// one dictionary, whose code order is string order — exact, however
    /// long the strings. Boxed cells keep [`packed_value_key`] and its
    /// truncated-string rule: a row's key ends (zeros) after the first
    /// value it does not pin down, and `exact[i]` turns `false` for it;
    /// every other row's key is exact. The byte order refines the
    /// [`RangeTuple`] order (`packed_range_key`'s, per lane tag).
    pub(crate) fn write_keys(
        &self,
        rows: impl Iterator<Item = u32>,
        keys: &mut Vec<u8>,
        exact: &mut [bool],
    ) -> usize {
        exact.fill(true);
        let width = self.key_width();
        if width == 0 {
            return 0;
        }
        /// `key(cell)` at byte `at` of every row's key.
        fn put<const W: usize>(
            keys: &mut [u8],
            (width, at): (usize, usize),
            cells: &[u32],
            key: impl Fn(usize) -> [[u8; W]; 3],
        ) {
            for (row, &i) in keys.chunks_exact_mut(width).zip(cells) {
                row[at..at + 3 * W].copy_from_slice(key(i as usize).as_flattened());
            }
        }
        let rows: Vec<u32> = rows.collect();
        keys.resize(rows.len() * width, 0);
        let mut gathered = Vec::with_capacity(KEY_BLOCK);
        // rows whose key a boxed value cut short, and the byte it ends at
        let mut cuts: Vec<(usize, usize)> = Vec::new();
        // a block of rows at a time: its keys stay cached across columns
        for (b, block) in rows.chunks(KEY_BLOCK).enumerate() {
            let first = b * KEY_BLOCK;
            let keys = &mut keys[first * width..(first + block.len()) * width];
            let exact = &mut exact[first..first + block.len()];
            let mut at = 0;
            for (lane, index) in &self.cols {
                let cells = match index {
                    None => block,
                    Some(ix) => {
                        gathered.clear();
                        gathered.extend(block.iter().map(|&r| ix[r as usize]));
                        &gathered[..]
                    }
                };
                let end = at + cell_key_bytes(lane);
                match *lane {
                    LaneSlice::Int { lb, sg, ub } => {
                        put(keys, (width, at), cells, |i| [lb[i], sg[i], ub[i]].map(i64_key));
                    }
                    LaneSlice::Float { lb, sg, ub } => {
                        put(keys, (width, at), cells, |i| [lb[i], sg[i], ub[i]].map(f64_key));
                    }
                    LaneSlice::Bool { lb, sg, ub } => {
                        let key = |i: usize| [lb[i], sg[i], ub[i]].map(|b| [u8::from(b)]);
                        put(keys, (width, at), cells, key);
                    }
                    LaneSlice::Str { lb, sg, ub, .. } => {
                        let key = |i: usize| [lb[i], sg[i], ub[i]].map(u32::to_be_bytes);
                        put(keys, (width, at), cells, key);
                    }
                    LaneSlice::Boxed(boxed) => {
                        let rows = keys.chunks_exact_mut(width).zip(cells).zip(exact.iter_mut());
                        for (j, ((row, &i), exact)) in rows.enumerate().filter(|(_, (_, e))| **e) {
                            let cell = &boxed[i as usize];
                            let vals = [&cell.lb, &cell.sg, &cell.ub].into_iter();
                            if !packed_value_keys(vals, &mut row[at..end]) {
                                *exact = false;
                                cuts.push((first + j, end));
                            }
                        }
                    }
                }
                at = end;
            }
        }
        for (j, end) in cuts {
            keys[j * width + end..(j + 1) * width].fill(0);
        }
        width
    }
}

/// One row of a [`GatherView`], 16 bytes. Rows of *one* view compare.
#[derive(Clone, Copy)]
pub(crate) struct RowRef<'v> {
    view: &'v GatherView<'v>,
    pub(crate) row: u32,
}

impl RowRef<'_> {
    /// Per attribute: its lane, and this row's and `other`'s cell.
    fn zip(&self, other: &Self) -> impl Iterator<Item = (&LaneSlice<'_>, usize, usize)> {
        debug_assert!(std::ptr::eq(self.view, other.view), "rows of two views");
        self.view.cells(self.row).zip(self.view.cells(other.row)).map(|((l, a), (_, b))| (l, a, b))
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.zip(other).all(|(l, a, b)| l.cells_eq(a, b))
    }
}

impl Eq for RowRef<'_> {}

impl PartialOrd for RowRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_cell = self.zip(other).map(|(l, a, b)| l.cells_cmp(a, b));
        by_cell.into_iter().find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    }
}

/// Rows [`GatherView::write_keys`] keys a column at a time before the
/// next block: a block's keys (a few KB) stay cached across its columns.
const KEY_BLOCK: usize = 256;

/// Key bytes of one cell of a lane: 8 per `Int`/`Float` component, 4 per
/// `Str` code, 1 per `Bool` component, [`VALUE_KEY_BYTES`] per boxed
/// component.
fn cell_key_bytes(lane: &LaneSlice<'_>) -> usize {
    3 * match lane {
        LaneSlice::Int { .. } | LaneSlice::Float { .. } => 8,
        LaneSlice::Str { .. } => 4,
        LaneSlice::Bool { .. } => 1,
        LaneSlice::Boxed(_) => VALUE_KEY_BYTES,
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

    /// A derived value is found under its other set (by identity) and
    /// its key (by `==`) only; it goes with its other set, and neither a
    /// clone nor an appended set carries it. Equality and `Debug` do not
    /// see it.
    #[test]
    fn derived_values_live_with_both_sets() {
        let rows = vec![(rt(vec![iv(1, 2, 3)]), AuAnnot::triple(1, 1, 1))];
        let set = || Arc::new(ColumnSet::from_rows(1, &rows));
        let (left, right, twin) = (set(), set(), set());
        let debug = format!("{left:?}");
        left.keep_derived(&right, 7u32, Arc::new("index"));
        left.keep_derived(&right, 7u32, Arc::new("a second build"));
        left.keep_derived(&left, 7u32, Arc::new("self"));
        assert_eq!(left.derived::<u32, &str>(&right, &7).as_deref(), Some(&"index"));
        assert_eq!(left.derived::<u32, &str>(&left, &7).as_deref(), Some(&"self"));
        assert!(left.derived::<u32, &str>(&twin, &7).is_none(), "an equal set is another set");
        assert!(left.derived::<u32, &str>(&right, &8).is_none(), "another key");
        assert!(left.derived::<u64, &str>(&right, &7).is_none(), "another key type");
        assert_eq!(format!("{left:?}"), debug);
        assert_eq!(*left, *twin);

        let (clone, weak) = ((*left).clone(), Arc::downgrade(&right));
        assert!(clone.derived::<u32, &str>(&right, &7).is_none(), "a clone starts empty");
        drop(right);
        assert!(weak.upgrade().is_none(), "the entry holds its other set weakly");
        assert_eq!(left.derived.entries().len(), 1, "the dead entry is pruned");

        let mut grown = Arc::unwrap_or_clone(left);
        assert!(grown.derived::<u32, &str>(&twin, &7).is_none());
        let grown_arc = Arc::new(grown.clone());
        grown.keep_derived(&grown_arc, 7u32, Arc::new("before"));
        grown.append(&twin);
        assert!(grown.derived::<u32, &str>(&grown_arc, &7).is_none(), "append clears");
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
                    RangeValue::certain(Value::str("hello")),
                ]),
                AuAnnot::triple(1, 1, 1),
            ),
            (
                rt(vec![
                    iv(4, 5, 6),
                    RangeValue::certain(Value::float(-2.0)),
                    RangeValue::certain(Value::Int(9)),
                    RangeValue::range(false, true, true),
                    RangeValue::range(Value::str("a"), Value::str("hello"), Value::str("hello")),
                ]),
                AuAnnot::triple(2, 2, 3),
            ),
        ];
        let cs = ColumnSet::from_rows(5, &rows);
        assert_eq!(cs.lane(4).tag(), LaneTag::Str);
        // 2 rows × 3 codes × 4 bytes, and "a" + "hello" once
        assert_eq!(cs.lane(4).lane_bytes(), 2 * 3 * 4 + 1 + 5);
        assert_eq!(cs.estimated_bytes(), ColumnSet::byte_size_of_rows(5, &rows));
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

    /// One-column view over `cells`' lane, its rows in cell order.
    fn with_view<R>(cells: &[RangeValue], f: impl FnOnce(&GatherView<'_>) -> R) -> R {
        let lane = ValueLane::from_cells(cells.iter());
        f(&GatherView::new(vec![(lane.as_slice(), None)]))
    }

    fn row_key(view: &GatherView<'_>, i: u32) -> Vec<u8> {
        let mut k = Vec::new();
        assert_eq!(view.write_keys(std::iter::once(i), &mut k, &mut [false]), view.key_width());
        k
    }

    /// The lane-written key, per lane tag: its byte order refines the
    /// cells' order, exactly on typed lanes (no coarsening at all — a
    /// `Str` lane's codes past any shared prefix included) and up to the
    /// truncated-string rule on boxed ones; widths are per tag.
    #[test]
    fn packed_row_key_order_refines_cell_order_per_lane_tag() {
        use std::cmp::Ordering;
        let triples = |vals: &[Value]| -> Vec<RangeValue> {
            let mut cells = Vec::new();
            for (i, a) in vals.iter().enumerate() {
                for b in &vals[i..] {
                    cells.push(RangeValue::new(a.clone(), a.clone(), b.clone()).unwrap());
                    cells.push(RangeValue::new(a.clone(), b.clone(), b.clone()).unwrap());
                }
            }
            cells
        };
        let ints = [i64::MIN, -1, 0, 2, 1 << 53, (1 << 53) + 1, i64::MAX].map(Value::Int);
        let floats = [f64::NEG_INFINITY, -0.5, 0.0, 2.0, 2.5, (1u64 << 53) as f64, f64::INFINITY]
            .map(Value::float);
        let bools = [false, true].map(Value::Bool);
        let strs = [
            Value::str(""),
            Value::str("a"),
            Value::str("a very long string that exceeds the prefix width"),
            Value::str("a very long string that exceeds the prefix width!"),
            Value::str("b"),
        ];
        let boxed = [
            Value::MinVal,
            Value::Null,
            Value::Int(2),
            Value::float(2.0),
            Value::str("a"),
            Value::str("a very long string that exceeds the prefix width"),
            Value::str("a very long string that exceeds the prefix width!"),
            Value::MaxVal,
        ];
        for (vals, tag, width) in [
            (&ints[..], LaneTag::Int, 24),
            (&floats[..], LaneTag::Float, 24),
            (&bools[..], LaneTag::Bool, 3),
            (&strs[..], LaneTag::Str, 12),
            (&boxed[..], LaneTag::Boxed, 3 * VALUE_KEY_BYTES),
        ] {
            let cells = triples(vals);
            with_view(&cells, |view| {
                assert_eq!(view.typed_cols(), (usize::from(tag != LaneTag::Boxed), 1));
                assert_eq!(view.key_width(), width, "{tag:?}");
                let keys: Vec<Vec<u8>> =
                    (0..cells.len() as u32).map(|i| row_key(view, i)).collect();
                for (i, a) in cells.iter().enumerate() {
                    for (j, b) in cells.iter().enumerate() {
                        match keys[i].cmp(&keys[j]) {
                            Ordering::Equal if tag != LaneTag::Boxed => assert_eq!(a, b),
                            Ordering::Equal => {} // coarsening; tie-break handles
                            by_key => assert_eq!(by_key, a.cmp(b), "{a} vs {b}"),
                        }
                    }
                }
            });
        }
    }

    /// A view row is its tuple: `Eq` and `Ord` read off the lanes, the
    /// key of a row after a truncated string zeroed and inexact — every
    /// other row's exact — and sorting rows by `(lane-written key, row)`
    /// is the tuple order.
    #[test]
    fn view_rows_compare_key_and_build_like_their_tuples() {
        let long = "one prefix, 17+ bytes, tail ";
        let rows: Vec<Vec<RangeValue>> = vec![
            vec![iv(3, 3, 3), RangeValue::certain(Value::str("zz")), iv(0, 0, 0)],
            vec![iv(1, 2, 3), RangeValue::certain(Value::str("a")), iv(0, 0, 0)],
            vec![iv(1, 2, 3), RangeValue::certain(Value::str("a")), iv(0, 0, 0)],
            vec![iv(1, 2, 3), RangeValue::certain(Value::float(0.5)), iv(-1, 0, 0)],
            vec![iv(1, 1, 3), RangeValue::unknown(Value::Int(0)), iv(5, 5, 5)],
            // a truncated string must not hand the order to the next column
            vec![iv(1, 2, 3), RangeValue::certain(Value::str(format!("{long}b"))), iv(0, 0, 0)],
            vec![iv(1, 2, 3), RangeValue::certain(Value::str(format!("{long}a"))), iv(9, 9, 9)],
        ];
        let lanes: Vec<ValueLane> =
            (0..3).map(|c| ValueLane::from_cells(rows.iter().map(|r| &r[c]))).collect();
        // the middle column through an index, reversed
        let n = rows.len() as u32;
        let back: Vec<u32> = (0..n).rev().collect();
        let view = GatherView::new(vec![
            (lanes[0].as_slice(), None),
            (lanes[1].as_slice(), Some(&back)),
            (lanes[2].as_slice(), None),
        ]);
        assert_eq!(view.typed_cols(), (2, 3));
        assert_eq!(view.key_width(), 24 + 3 * VALUE_KEY_BYTES + 24);
        let built = view.tuples((0..n).map(|i| (i, AuAnnot::triple(1, 1, 1))));
        let tuples: Vec<RangeTuple> = built.into_iter().map(|(t, _)| t).collect();
        for (i, t) in tuples.iter().enumerate() {
            let want =
                vec![rows[i][0].clone(), rows[n as usize - 1 - i][1].clone(), rows[i][2].clone()];
            assert_eq!(t.0, want);
        }
        for a in 0..n {
            for b in 0..n {
                let (ta, tb) = (&tuples[a as usize], &tuples[b as usize]);
                assert_eq!(view.row(a) == view.row(b), ta == tb);
                assert_eq!(view.row(a).cmp(&view.row(b)), ta.cmp(tb));
            }
        }
        // past the truncated string the key says nothing
        let truncated =
            (0..n).find(|&i| tuples[i as usize].0[1].sg == Value::str(format!("{long}a")));
        let key = row_key(&view, truncated.unwrap());
        assert!(key[24 + VALUE_KEY_BYTES..].iter().all(|&b| b == 0), "{key:?}");
        // written a column at a time, all rows at once: the same keys,
        // exact but for the two truncated strings
        let (mut keys, mut exact) = (Vec::new(), vec![false; n as usize]);
        view.write_keys(0..n, &mut keys, &mut exact);
        for (i, key) in keys.chunks_exact(view.key_width()).enumerate() {
            assert_eq!(key, row_key(&view, i as u32), "row {i}");
            let long_str = matches!(&tuples[i].0[1].sg, Value::Str(s) if s.starts_with(long));
            assert_eq!(exact[i], !long_str, "row {i}");
        }

        let mut by_key: Vec<u32> = (0..n).collect();
        by_key.sort_by(|&a, &b| {
            row_key(&view, a).cmp(&row_key(&view, b)).then_with(|| view.row(a).cmp(&view.row(b)))
        });
        let mut sorted = tuples.clone();
        sorted.sort();
        assert_eq!(by_key.iter().map(|&i| tuples[i as usize].clone()).collect::<Vec<_>>(), sorted);
    }

    /// Sorting tuples by `(packed key, tuple)` is the tuple order — per
    /// tuple (`packed_range_key`) and per morsel in the layout its
    /// values admit (`packed_tuple_keys`: typed `Int`/`Float` positions,
    /// the rest in value units), where two equal exact keys are two
    /// equal tuples and only a truncated string leaves a key inexact; a
    /// tuple of another arity keys the morsel per tuple.
    #[test]
    fn packed_tuple_sort_matches_tuple_sort() {
        let mixed = vec![
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
            rt(vec![RangeValue::certain(Value::str("nul")), iv(9, 9, 9)]),
        ];
        let fl = |v: f64| RangeValue::certain(Value::float(v));
        // every `lb`/`sg`/`ub` position typed but the last column's `ub`
        let typed = vec![
            rt(vec![iv(i64::MIN, 0, 1 << 60), fl(-0.5), iv(0, 0, 0)]),
            rt(vec![iv(-1, 0, (1 << 53) + 1), fl(-0.5), iv(0, 0, 0)]),
            rt(vec![iv(-1, 0, 1 << 53), fl(2.5), iv(0, 0, 0)]),
            rt(vec![iv(-1, 0, 1 << 53), fl(2.5), iv(0, 0, 0)]),
            rt(vec![iv(7, 7, 7), fl(f64::NEG_INFINITY), iv(0, 0, 0)]),
            rt(vec![iv(7, 7, 7), fl(f64::INFINITY), iv(0, 0, 0)]),
            rt(vec![
                iv(7, 7, 7),
                fl(0.0),
                RangeValue::new(Value::Int(0), Value::Int(0), Value::str("a")).unwrap(),
            ]),
        ];
        let per_tuple = |t: &RangeTuple| {
            let mut k = vec![0xAAu8; t.0.len() * 3 * VALUE_KEY_BYTES];
            packed_range_key(t, &mut k);
            k
        };
        let sorted_by = |tuples: &[RangeTuple], keys: &[Vec<u8>]| {
            let mut by_key: Vec<(&Vec<u8>, &RangeTuple)> = keys.iter().zip(tuples).collect();
            by_key.sort_by(|a, b| a.0.cmp(b.0).then_with(|| a.1.cmp(b.1)));
            by_key.into_iter().map(|(_, t)| t.clone()).collect::<Vec<_>>()
        };
        for (tuples, arity, width) in [(mixed, 2, 6 * VALUE_KEY_BYTES), (typed, 3, 8 * 8 + 18)] {
            let mut want = tuples.clone();
            want.sort();
            let keys: Vec<Vec<u8>> = tuples.iter().map(per_tuple).collect();
            assert_eq!(sorted_by(&tuples, &keys), want);

            let (mut arena, mut exact) = (Vec::new(), vec![false; tuples.len()]);
            assert_eq!(packed_tuple_keys(tuples.iter(), arity, &mut arena, &mut exact), width);
            let keys: Vec<Vec<u8>> = arena.chunks_exact(width).map(<[u8]>::to_vec).collect();
            assert_eq!(sorted_by(&tuples, &keys), want);
            for (i, t) in tuples.iter().enumerate() {
                let long = |v: &Value| matches!(v, Value::Str(s) if s.len() > 16);
                assert_eq!(exact[i], !t.0.iter().any(|c| long(&c.lb)), "{t}");
                for (j, u) in tuples.iter().enumerate() {
                    if exact[i] && exact[j] {
                        assert_eq!(keys[i] == keys[j], t == u, "{t} vs {u}");
                    }
                }
            }
        }
        // a tuple of another arity: the morsel keys per tuple
        let ragged = [rt(vec![iv(1, 1, 1)]), rt(vec![iv(1, 1, 1), iv(2, 2, 2)])];
        let (mut arena, mut exact) = (Vec::new(), vec![false; 2]);
        assert_eq!(
            packed_tuple_keys(ragged.iter(), 2, &mut arena, &mut exact),
            6 * VALUE_KEY_BYTES
        );
        assert_eq!(exact, [false, true]);
        assert_eq!(arena[6 * VALUE_KEY_BYTES..], per_tuple(&ragged[1])[..]);
    }
}
