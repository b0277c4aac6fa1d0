//! Columnar value lanes: the column-major representation of one
//! attribute of range-annotated rows, and the typed vector kernels the
//! compiled backend runs over them.
//!
//! A [`ValueLane`] stores a column of [`RangeValue`]s as three
//! contiguous component arrays (`lb`/`sg`/`ub`) when every cell of the
//! column is homogeneously typed — `Int`, `Float`, `Bool` or `Str` in
//! all three components of every row — and falls back to a boxed row of
//! `RangeValue`s otherwise (mixed columns, sentinels, `Null`). This is
//! the flat succinct encoding that made U-relations fast: homogeneous
//! inner loops touch raw `i64`/`f64`/`bool`/`u32` arrays with no
//! per-cell enum dispatch, so the compiler can unroll and auto-vectorize
//! them.
//!
//! A `Str` lane holds `u32` codes into its own [`StrDict`]: the lane's
//! distinct strings, sorted, so code order *is* `Value`'s order on
//! strings and equal codes are equal strings. The dictionary holds the
//! cells' own `Arc<str>`s (materializing a cell bumps a refcount), and
//! every lane gathered, sliced, boxed or splatted from a `Str` lane keeps
//! the dictionary's `Arc`; two lanes *share* a dictionary when those
//! `Arc`s are one ([`LaneSlice::typed_alike`]).
//!
//! # Exactness contract
//!
//! The typed kernels in this module are *refinements* of the shared
//! `range_*` combinators (`crate::expr`), never reinterpretations:
//! for every input they either produce the bit-identical result the
//! combinator would, or they **demote** — return `None`, telling the
//! caller to rerun the whole op through the generic per-cell combinator
//! into a boxed lane. Demotion triggers exactly where the scalar
//! semantics leave the homogeneous type lattice:
//!
//! * an `i64` operation overflowing — the scalar path *promotes that
//!   component to float* (`Value::add` et al.), so the result column is
//!   no longer homogeneous `Int`;
//! * an `f64` kernel producing NaN — the scalar path raises
//!   [`EvalError::NotANumber`] for that row, which only the generic
//!   path can report per-row.
//!
//! A numeric kernel detects both in one pass over its rows: it computes
//! every row with `overflowing_*` arithmetic (or plain `f64` arithmetic)
//! into preallocated outputs and folds each row's overflow or NaN test
//! into one flag, with no branch and no early exit in the loop; a set
//! flag demotes the whole op after the pass. An operand is a lane or a
//! *broadcast* constant of the program's pool, read as one scalar by
//! every row and never splatted to a lane (only the `Str` and `Bool`
//! kernels, which read whole lanes, splat one for the op).
//!
//! The `f64` kernels canonicalize `-0.0` to `0.0` after every
//! operation, mirroring `F64::try_new` (e.g. `-1.0 * 0.0` is `-0.0` in
//! IEEE arithmetic but `0.0` in the value domain). Mixed `Int`/`Float`
//! operand pairs may use the `f64` kernels, reading the `Int` side as
//! `f64` inside the loop, because the scalar mixed semantics are
//! themselves f64-cast based: `Value::add` computes
//! `a as f64 + b`, and the comparison tie rules (`Int` sorts before
//! `Float` on numeric ties, `value_eq` casts) reduce `leq`/`lt`/
//! `value_eq` to plain `<=`/`</`==` on the casts. `Int ⊗ Int`
//! comparisons use exact `i64` compares — beyond 2^53 the cast is
//! lossy, the integers are not.
//!
//! `Str ⊗ Str` comparisons never demote. Over one shared dictionary they
//! compare codes. Over two, they first place the right side's strings in
//! the left's code space with every code doubled: the left's code `c`
//! becomes `2c`, a right string present in the left dictionary at rank
//! `r` becomes `2r`, and an absent one `2p − 1`, where `p` is its
//! insertion point ([`StrDict::place`]). An absent string then sits
//! strictly between its two neighbours and equals no left string, so
//! `<`, `≤` and `=` on the placed codes are exactly those on the strings.
//! When the right side's dictionary holds more strings than the slice
//! compared holds cells, each component is instead compared with its
//! partner string by string (`str_codes`), so a call never costs more
//! than its slice. A broadcast
//! literal is the one-entry dictionary of the placement rule. Every
//! other cell-level operation on a `Str` lane (order, equality, hash,
//! group boxes, packed keys) reads codes of *one* lane, where code order
//! is string order by construction.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::error::EvalError;
use crate::range::RangeValue;
use crate::value::{Value, F64};

/// The type tag of a lane: which component representation it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneTag {
    /// Every cell is `[Int / Int / Int]`.
    Int,
    /// Every cell is `[Float / Float / Float]`.
    Float,
    /// Every cell is `[Bool / Bool / Bool]`.
    Bool,
    /// Every cell is `[Str / Str / Str]`: codes into a [`StrDict`].
    Str,
    /// Anything else: per-cell `RangeValue`s (the fallback lane).
    Boxed,
}

/// The lane a cell alone would take: its type when all three components
/// share one, `Boxed` otherwise.
fn cell_tag(c: &RangeValue) -> LaneTag {
    match (&c.lb, &c.sg, &c.ub) {
        (Value::Int(_), Value::Int(_), Value::Int(_)) => LaneTag::Int,
        (Value::Float(_), Value::Float(_), Value::Float(_)) => LaneTag::Float,
        (Value::Bool(_), Value::Bool(_), Value::Bool(_)) => LaneTag::Bool,
        (Value::Str(_), Value::Str(_), Value::Str(_)) => LaneTag::Str,
        _ => LaneTag::Boxed,
    }
}

/// The dictionary of a `Str` lane: its distinct strings, sorted by
/// `Value`'s order, so code `c` is `values()[c]` and code order is string
/// order. Holds the cells' own `Value::Str`s — a refcount each, no text
/// is copied.
#[derive(Debug, PartialEq, Eq)]
pub struct StrDict {
    values: Vec<Value>,
}

impl StrDict {
    /// The dictionary of `strs` — `Value::Str`s in any order, repeats
    /// allowed. Of equal strings one is kept.
    fn of<'a>(strs: impl Iterator<Item = &'a Value>) -> StrDict {
        let mut refs: Vec<&Value> = strs.collect();
        refs.sort_unstable();
        refs.dedup();
        StrDict { values: refs.into_iter().cloned().collect() }
    }

    /// The strings, in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The code of `v`, a string of this dictionary.
    fn code(&self, v: &Value) -> u32 {
        let found = self.values.binary_search(v);
        debug_assert!(found.is_ok(), "{v} is not in the dictionary");
        found.unwrap_or_else(|i| i) as u32
    }

    /// Where `v` falls in this dictionary's doubled code space: `2·rank`
    /// when it is present, `2·insertion_point − 1` when it is not — an
    /// order-preserving placement that equals a doubled code exactly when
    /// the strings are equal.
    pub fn place(&self, v: &Value) -> i64 {
        match self.values.binary_search(v) {
            Ok(r) => 2 * r as i64,
            Err(p) => 2 * p as i64 - 1,
        }
    }

    /// Bytes of text the dictionary holds, each string once.
    fn text_bytes(&self) -> u64 {
        self.values.iter().map(|v| if let Value::Str(s) = v { s.len() as u64 } else { 0 }).sum()
    }

    /// The union of two dictionaries, and the code map of each into it
    /// (`None`: the union is that dictionary, codes unchanged).
    fn merge(a: &Arc<StrDict>, b: &Arc<StrDict>) -> (Arc<StrDict>, Option<Vec<u32>>, Vec<u32>) {
        let union = StrDict::of(a.values.iter().chain(&b.values));
        if union.values.len() == a.values.len() {
            return (Arc::clone(a), None, b.values.iter().map(|v| a.code(v)).collect());
        }
        let into = |d: &StrDict| d.values.iter().map(|v| union.code(v)).collect();
        let (ma, mb) = (into(a), into(b));
        (Arc::new(union), Some(ma), mb)
    }
}

/// One attribute column of range-annotated values, column-major.
///
/// Typed variants hold the `lb`/`sg`/`ub` components in three parallel
/// arrays; [`ValueLane::Boxed`] is the row-shaped fallback for columns
/// that are not homogeneously typed. Every variant materializes cells
/// back into [`RangeValue`]s on demand ([`ValueLane::get`]), so the row
/// `Tuple` view is always recoverable.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueLane {
    Int { lb: Vec<i64>, sg: Vec<i64>, ub: Vec<i64> },
    Float { lb: Vec<f64>, sg: Vec<f64>, ub: Vec<f64> },
    Bool { lb: Vec<bool>, sg: Vec<bool>, ub: Vec<bool> },
    Str { dict: Arc<StrDict>, lb: Vec<u32>, sg: Vec<u32>, ub: Vec<u32> },
    Boxed(Vec<RangeValue>),
}

impl Default for ValueLane {
    fn default() -> Self {
        ValueLane::Boxed(Vec::new())
    }
}

/// Borrowed view of (part of) a [`ValueLane`] — what kernels and
/// chunked executors actually operate on.
#[derive(Debug, Clone, Copy)]
pub enum LaneSlice<'a> {
    Int { lb: &'a [i64], sg: &'a [i64], ub: &'a [i64] },
    Float { lb: &'a [f64], sg: &'a [f64], ub: &'a [f64] },
    Bool { lb: &'a [bool], sg: &'a [bool], ub: &'a [bool] },
    Str { dict: &'a Arc<StrDict>, lb: &'a [u32], sg: &'a [u32], ub: &'a [u32] },
    Boxed(&'a [RangeValue]),
}

impl ValueLane {
    pub fn len(&self) -> usize {
        match self {
            ValueLane::Int { lb, .. } => lb.len(),
            ValueLane::Float { lb, .. } => lb.len(),
            ValueLane::Bool { lb, .. } => lb.len(),
            ValueLane::Str { lb, .. } => lb.len(),
            ValueLane::Boxed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn tag(&self) -> LaneTag {
        self.as_slice().tag()
    }

    /// Materialize cell `i` as a [`RangeValue`].
    pub fn get(&self, i: usize) -> RangeValue {
        self.as_slice().get(i)
    }

    /// Borrow the whole lane.
    pub fn as_slice(&self) -> LaneSlice<'_> {
        self.slice(0..self.len())
    }

    /// Borrow a sub-range of the lane.
    pub fn slice(&self, r: Range<usize>) -> LaneSlice<'_> {
        match self {
            ValueLane::Int { lb, sg, ub } => {
                LaneSlice::Int { lb: &lb[r.clone()], sg: &sg[r.clone()], ub: &ub[r] }
            }
            ValueLane::Float { lb, sg, ub } => {
                LaneSlice::Float { lb: &lb[r.clone()], sg: &sg[r.clone()], ub: &ub[r] }
            }
            ValueLane::Bool { lb, sg, ub } => {
                LaneSlice::Bool { lb: &lb[r.clone()], sg: &sg[r.clone()], ub: &ub[r] }
            }
            ValueLane::Str { dict, lb, sg, ub } => {
                LaneSlice::Str { dict, lb: &lb[r.clone()], sg: &sg[r.clone()], ub: &ub[r] }
            }
            ValueLane::Boxed(v) => LaneSlice::Boxed(&v[r]),
        }
    }

    /// Build a lane from a column of cells, choosing the tightest
    /// representation: a typed lane iff *every* cell is homogeneously
    /// `Int`/`Float`/`Bool`/`Str` in all three components, boxed
    /// otherwise (so mixed-type columns and sentinel-carrying cells —
    /// e.g. the `[MinVal / sg / MaxVal]` encoding of `null` — take the
    /// fallback lane and keep exact scalar semantics).
    pub fn from_cells<'a>(cells: impl Iterator<Item = &'a RangeValue> + Clone) -> ValueLane {
        // every cell's tag, or `Boxed` at the first that differs (an empty
        // column is an empty `Int` lane)
        let mut tags = cells.clone().map(cell_tag);
        let first = tags.next().unwrap_or(LaneTag::Int);
        let lane = if tags.all(|t| t == first) { first } else { LaneTag::Boxed };
        match lane {
            LaneTag::Int => {
                let (mut lb, mut sg, mut ub) = (Vec::new(), Vec::new(), Vec::new());
                for c in cells {
                    if let (Value::Int(l), Value::Int(s), Value::Int(u)) = (&c.lb, &c.sg, &c.ub) {
                        lb.push(*l);
                        sg.push(*s);
                        ub.push(*u);
                    }
                }
                ValueLane::Int { lb, sg, ub }
            }
            LaneTag::Float => {
                let (mut lb, mut sg, mut ub) = (Vec::new(), Vec::new(), Vec::new());
                for c in cells {
                    if let (Value::Float(l), Value::Float(s), Value::Float(u)) =
                        (&c.lb, &c.sg, &c.ub)
                    {
                        lb.push(l.get());
                        sg.push(s.get());
                        ub.push(u.get());
                    }
                }
                ValueLane::Float { lb, sg, ub }
            }
            LaneTag::Bool => {
                let (mut lb, mut sg, mut ub) = (Vec::new(), Vec::new(), Vec::new());
                for c in cells {
                    if let (Value::Bool(l), Value::Bool(s), Value::Bool(u)) = (&c.lb, &c.sg, &c.ub)
                    {
                        lb.push(*l);
                        sg.push(*s);
                        ub.push(*u);
                    }
                }
                ValueLane::Bool { lb, sg, ub }
            }
            LaneTag::Str => {
                // number the strings as they come (a certain cell is one
                // lookup, not three), then renumber them in string order
                let (mut firsts, mut ids) = (Vec::new(), HashMap::new());
                let mut id = |v: &'a Value| {
                    *ids.entry(v).or_insert_with(|| {
                        firsts.push(v);
                        firsts.len() as u32 - 1
                    })
                };
                let (mut lb, mut sg, mut ub) = (Vec::new(), Vec::new(), Vec::new());
                for c in cells {
                    let s = id(&c.sg);
                    lb.push(if c.lb == c.sg { s } else { id(&c.lb) });
                    ub.push(if c.ub == c.sg { s } else { id(&c.ub) });
                    sg.push(s);
                }
                let mut by_rank: Vec<u32> = (0..firsts.len() as u32).collect();
                by_rank.sort_unstable_by_key(|&i| firsts[i as usize]);
                let mut rank = vec![0; by_rank.len()];
                by_rank.iter().zip(0..).for_each(|(&i, r)| rank[i as usize] = r);
                for codes in [&mut lb, &mut sg, &mut ub] {
                    codes.iter_mut().for_each(|c| *c = rank[*c as usize]);
                }
                let values = by_rank.iter().map(|&i| firsts[i as usize].clone()).collect();
                ValueLane::Str { dict: Arc::new(StrDict { values }), lb, sg, ub }
            }
            LaneTag::Boxed => ValueLane::Boxed(cells.cloned().collect()),
        }
    }

    /// A lane of `n` copies of one cell (constants broadcast to a
    /// chunk's length so kernels see uniform operands; a string cell's
    /// lane has a dictionary of its own).
    pub fn splat(cell: &RangeValue, n: usize) -> ValueLane {
        match (&cell.lb, &cell.sg, &cell.ub) {
            (Value::Int(l), Value::Int(s), Value::Int(u)) => {
                ValueLane::Int { lb: vec![*l; n], sg: vec![*s; n], ub: vec![*u; n] }
            }
            (Value::Float(l), Value::Float(s), Value::Float(u)) => ValueLane::Float {
                lb: vec![l.get(); n],
                sg: vec![s.get(); n],
                ub: vec![u.get(); n],
            },
            (Value::Bool(l), Value::Bool(s), Value::Bool(u)) => {
                ValueLane::Bool { lb: vec![*l; n], sg: vec![*s; n], ub: vec![*u; n] }
            }
            (Value::Str(_), Value::Str(_), Value::Str(_)) => {
                ValueLane::from_cells(std::iter::once(cell)).as_slice().gather(&vec![0; n])
            }
            _ => ValueLane::Boxed(vec![cell.clone(); n]),
        }
    }

    /// Append `src`'s cells — all of them, or those at `rows`, in that
    /// order. The lane stays typed while the tags agree (an empty lane
    /// takes the incoming tag) and demotes itself to `Boxed` when they
    /// do not: concatenating an `Int` batch and one an `i64` overflow
    /// promoted to `Float` yields the boxed column of the same cells.
    /// Two `Str` lanes of different dictionaries stay `Str`, over the
    /// union of the two, every code remapped.
    pub fn append(&mut self, src: &LaneSlice<'_>, rows: Option<&[u32]>) {
        fn ext<T: Copy>(dst: [&mut Vec<T>; 3], src: [&[T]; 3], rows: Option<&[u32]>) {
            for (dst, src) in dst.into_iter().zip(src) {
                match rows {
                    None => dst.extend_from_slice(src),
                    Some(rows) => dst.extend(rows.iter().map(|&i| src[i as usize])),
                }
            }
        }
        if self.is_empty() {
            *self = rows.map_or_else(|| src.to_lane(), |rows| src.gather(rows));
            return;
        }
        match (&mut *self, src) {
            (ValueLane::Int { lb, sg, ub }, LaneSlice::Int { lb: l, sg: s, ub: u }) => {
                ext([lb, sg, ub], [l, s, u], rows);
            }
            (ValueLane::Float { lb, sg, ub }, LaneSlice::Float { lb: l, sg: s, ub: u }) => {
                ext([lb, sg, ub], [l, s, u], rows);
            }
            (ValueLane::Bool { lb, sg, ub }, LaneSlice::Bool { lb: l, sg: s, ub: u }) => {
                ext([lb, sg, ub], [l, s, u], rows);
            }
            (
                ValueLane::Str { dict, lb, sg, ub },
                LaneSlice::Str { dict: d, lb: l, sg: s, ub: u },
            ) => {
                if Arc::ptr_eq(dict, d) {
                    ext([lb, sg, ub], [l, s, u], rows);
                    return;
                }
                let (union, mine, theirs) = StrDict::merge(dict, d);
                *dict = union;
                if let Some(mine) = mine {
                    for codes in [&mut *lb, &mut *sg, &mut *ub] {
                        codes.iter_mut().for_each(|c| *c = mine[*c as usize]);
                    }
                }
                let [l, s, u]: [Vec<u32>; 3] =
                    [l, s, u].map(|c| c.iter().map(|&c| theirs[c as usize]).collect());
                ext([lb, sg, ub], [&l, &s, &u], rows);
            }
            (ValueLane::Boxed(cells), src) => match rows {
                None => cells.extend((0..src.len()).map(|i| src.get(i))),
                Some(rows) => cells.extend(rows.iter().map(|&i| src.get(i as usize))),
            },
            (typed, src) => {
                *typed = ValueLane::Boxed((0..typed.len()).map(|i| typed.get(i)).collect());
                typed.append(src, rows);
            }
        }
    }

    /// Heap footprint of this lane's component storage in bytes: element
    /// payloads plus the text of its strings — a `Str` lane's dictionary
    /// once, and each `Str` of a boxed cell its text length. The boxed
    /// term is an upper bound on the text bytes held: a `Str` shares one
    /// allocation with every clone of it, yet each cell is charged.
    pub fn lane_bytes(&self) -> u64 {
        match self {
            ValueLane::Int { lb, .. } => (3 * lb.len() * std::mem::size_of::<i64>()) as u64,
            ValueLane::Float { lb, .. } => (3 * lb.len() * std::mem::size_of::<f64>()) as u64,
            ValueLane::Bool { lb, .. } => (3 * lb.len()) as u64,
            ValueLane::Str { dict, lb, .. } => {
                (3 * lb.len() * std::mem::size_of::<u32>()) as u64 + dict.text_bytes()
            }
            ValueLane::Boxed(cells) => {
                let mut total = (cells.len() * std::mem::size_of::<RangeValue>()) as u64;
                for c in cells {
                    for v in [&c.lb, &c.sg, &c.ub] {
                        if let Value::Str(s) = v {
                            total += s.len() as u64;
                        }
                    }
                }
                total
            }
        }
    }
}

impl<'a> LaneSlice<'a> {
    pub fn len(&self) -> usize {
        match self {
            LaneSlice::Int { lb, .. } => lb.len(),
            LaneSlice::Float { lb, .. } => lb.len(),
            LaneSlice::Bool { lb, .. } => lb.len(),
            LaneSlice::Str { lb, .. } => lb.len(),
            LaneSlice::Boxed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn tag(&self) -> LaneTag {
        match self {
            LaneSlice::Int { .. } => LaneTag::Int,
            LaneSlice::Float { .. } => LaneTag::Float,
            LaneSlice::Bool { .. } => LaneTag::Bool,
            LaneSlice::Str { .. } => LaneTag::Str,
            LaneSlice::Boxed(_) => LaneTag::Boxed,
        }
    }

    /// Do `self` and `other` hold one representation whose cells compare
    /// as stored — both `Int`, both `Float`, or both `Str` over one shared
    /// dictionary? Indexes over two such lanes key and sweep on the
    /// stored components.
    pub fn typed_alike(&self, other: &LaneSlice<'_>) -> bool {
        match (self, other) {
            (LaneSlice::Int { .. }, LaneSlice::Int { .. })
            | (LaneSlice::Float { .. }, LaneSlice::Float { .. }) => true,
            (LaneSlice::Str { dict: a, .. }, LaneSlice::Str { dict: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Materialize cell `i` as a [`RangeValue`].
    pub fn get(&self, i: usize) -> RangeValue {
        match self {
            LaneSlice::Int { lb, sg, ub } => {
                RangeValue { lb: Value::Int(lb[i]), sg: Value::Int(sg[i]), ub: Value::Int(ub[i]) }
            }
            LaneSlice::Float { lb, sg, ub } => RangeValue {
                lb: Value::Float(F64::new(lb[i])),
                sg: Value::Float(F64::new(sg[i])),
                ub: Value::Float(F64::new(ub[i])),
            },
            LaneSlice::Bool { lb, sg, ub } => RangeValue {
                lb: Value::Bool(lb[i]),
                sg: Value::Bool(sg[i]),
                ub: Value::Bool(ub[i]),
            },
            LaneSlice::Str { dict, lb, sg, ub } => {
                let v = |c: u32| dict.values[c as usize].clone();
                RangeValue { lb: v(lb[i]), sg: v(sg[i]), ub: v(ub[i]) }
            }
            LaneSlice::Boxed(v) => v[i].clone(),
        }
    }

    /// Is cell `i` certain (`lb = sg = ub`)? Component compares on a
    /// typed lane (float bits, like `F64`'s `Eq`), the cell's own test
    /// on a boxed one.
    pub fn is_certain(&self, i: usize) -> bool {
        match self {
            LaneSlice::Int { lb, sg, ub } => lb[i] == sg[i] && sg[i] == ub[i],
            LaneSlice::Float { lb, sg, ub } => {
                lb[i].to_bits() == sg[i].to_bits() && sg[i].to_bits() == ub[i].to_bits()
            }
            LaneSlice::Bool { lb, sg, ub } => lb[i] == sg[i] && sg[i] == ub[i],
            LaneSlice::Str { lb, sg, ub, .. } => lb[i] == sg[i] && sg[i] == ub[i],
            LaneSlice::Boxed(v) => v[i].is_certain(),
        }
    }

    /// And [`LaneSlice::is_certain`] of cell `is[k]` into `acc[k]`, for
    /// every `k`: one typed loop over the lane, no match per cell.
    pub fn and_certain_cells(&self, is: &[u32], acc: &mut [bool]) {
        fn fold<T: Copy>(c: [&[T]; 3], is: &[u32], acc: &mut [bool], eq: impl Fn(T, T) -> bool) {
            for (a, &i) in acc.iter_mut().zip(is) {
                let i = i as usize;
                *a &= eq(c[0][i], c[1][i]) & eq(c[1][i], c[2][i]);
            }
        }
        match self {
            LaneSlice::Int { lb, sg, ub } => fold([lb, sg, ub], is, acc, |x, y| x == y),
            LaneSlice::Float { lb, sg, ub } => {
                fold([lb, sg, ub], is, acc, |x: f64, y: f64| x.to_bits() == y.to_bits())
            }
            LaneSlice::Bool { lb, sg, ub } => fold([lb, sg, ub], is, acc, |x, y| x == y),
            LaneSlice::Str { lb, sg, ub, .. } => fold([lb, sg, ub], is, acc, |x, y| x == y),
            LaneSlice::Boxed(v) => {
                acc.iter_mut().zip(is).for_each(|(a, &i)| *a &= v[i as usize].is_certain());
            }
        }
    }

    /// Do cells `a` and `b` hold the same selected guess — `Value`'s
    /// structural `==` on the materialized cells (floats by bits)?
    pub fn sg_eq(&self, a: usize, b: usize) -> bool {
        match self {
            LaneSlice::Int { sg, .. } => sg[a] == sg[b],
            LaneSlice::Float { sg, .. } => sg[a].to_bits() == sg[b].to_bits(),
            LaneSlice::Bool { sg, .. } => sg[a] == sg[b],
            LaneSlice::Str { sg, .. } => sg[a] == sg[b],
            LaneSlice::Boxed(v) => v[a].sg == v[b].sg,
        }
    }

    /// The order of the selected guesses of cells `a` and `b` — `Value`'s
    /// `Ord` on the materialized cells (floats by `total_cmp`).
    pub fn sg_cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            LaneSlice::Int { sg, .. } => sg[a].cmp(&sg[b]),
            LaneSlice::Float { sg, .. } => sg[a].total_cmp(&sg[b]),
            LaneSlice::Bool { sg, .. } => sg[a].cmp(&sg[b]),
            LaneSlice::Str { sg, .. } => sg[a].cmp(&sg[b]),
            LaneSlice::Boxed(v) => v[a].sg.cmp(&v[b].sg),
        }
    }

    /// [`RangeValue::overlaps`] of cell `i` and cell `j` of `other`; no
    /// cell is materialized when the two lanes are [`typed_alike`].
    ///
    /// [`typed_alike`]: LaneSlice::typed_alike
    pub fn overlaps(&self, i: usize, other: &LaneSlice<'_>, j: usize) -> bool {
        use LaneSlice::{Boxed, Float, Int, Str};
        match (self, other) {
            (Int { lb: al, ub: au, .. }, Int { lb: bl, ub: bu, .. }) => {
                al[i] <= bu[j] && bl[j] <= au[i]
            }
            (Float { lb: al, ub: au, .. }, Float { lb: bl, ub: bu, .. }) => {
                al[i].total_cmp(&bu[j]).is_le() && bl[j].total_cmp(&au[i]).is_le()
            }
            (Str { lb: al, ub: au, .. }, Str { lb: bl, ub: bu, .. }) if self.typed_alike(other) => {
                al[i] <= bu[j] && bl[j] <= au[i]
            }
            (Boxed(a), Boxed(b)) => a[i].overlaps(&b[j]),
            _ => self.get(i).overlaps(&other.get(j)),
        }
    }

    /// And `range_eq` of cell `is[k]` and cell `js[k]` of `other` into
    /// `acc[k]`, for every `k`, by the lane kernel's own row function
    /// ([`eq`]) — the triple a compiled `=` gives each pair — reading the
    /// cells in place, with no gather. `false`, and `acc` untouched,
    /// unless the two lanes are [`typed_alike`].
    ///
    /// [`typed_alike`]: LaneSlice::typed_alike
    pub fn and_eq_cells(
        &self,
        other: &LaneSlice<'_>,
        is: &[u32],
        js: &[u32],
        acc: &mut [[bool; 3]],
    ) -> bool {
        fn fold<S: Copy, T: Elem>(
            a: [&[S]; 3],
            b: [&[S]; 3],
            (is, js): (&[u32], &[u32]),
            acc: &mut [[bool; 3]],
            cast: impl Fn(S) -> T + Copy,
        ) {
            let at = |c: [&[S]; 3], k: u32| c.map(|c| cast(c[k as usize]));
            for ((t, &i), &j) in acc.iter_mut().zip(is).zip(js) {
                let ([x, y, z], _) = eq(at(a, i), at(b, j));
                *t = [t[0] & x, t[1] & y, t[2] & z];
            }
        }
        use LaneSlice::{Float, Int, Str};
        let rows = (is, js);
        match (self, other) {
            (Int { lb, sg, ub }, Int { lb: bl, sg: bs, ub: bu }) => {
                fold([lb, sg, ub], [bl, bs, bu], rows, acc, |v: i64| v)
            }
            (Float { lb, sg, ub }, Float { lb: bl, sg: bs, ub: bu }) => {
                fold([lb, sg, ub], [bl, bs, bu], rows, acc, |v: f64| v)
            }
            // codes of one dictionary, compared as the kernel compares them
            (Str { lb, sg, ub, .. }, Str { lb: bl, sg: bs, ub: bu, .. })
                if self.typed_alike(other) =>
            {
                fold([lb, sg, ub], [bl, bs, bu], rows, acc, |c: u32| i64::from(c))
            }
            _ => return false,
        }
        true
    }

    /// Are cells `a` and `b` equal — as [`RangeValue`]'s derived `Eq`
    /// has it for the materialized cells (floats by bits)?
    pub fn cells_eq(&self, a: usize, b: usize) -> bool {
        fn eq3<T: Copy>(c: [&[T]; 3], a: usize, b: usize, eq: impl Fn(T, T) -> bool) -> bool {
            c.iter().all(|c| eq(c[a], c[b]))
        }
        match self {
            LaneSlice::Int { lb, sg, ub } => eq3([lb, sg, ub], a, b, |x, y| x == y),
            LaneSlice::Float { lb, sg, ub } => {
                eq3([lb, sg, ub], a, b, |x, y| x.to_bits() == y.to_bits())
            }
            LaneSlice::Bool { lb, sg, ub } => eq3([lb, sg, ub], a, b, |x, y| x == y),
            LaneSlice::Str { lb, sg, ub, .. } => eq3([lb, sg, ub], a, b, |x, y| x == y),
            LaneSlice::Boxed(v) => v[a] == v[b],
        }
    }

    /// The order of cells `a` and `b` — [`RangeValue`]'s derived `Ord`
    /// over the materialized cells (`lb`, then `sg`, then `ub`; floats
    /// by `total_cmp`).
    pub fn cells_cmp(&self, a: usize, b: usize) -> Ordering {
        fn cmp3<T: Copy>(
            c: [&[T]; 3],
            a: usize,
            b: usize,
            cmp: impl Fn(&T, &T) -> Ordering,
        ) -> Ordering {
            c.iter().map(|c| cmp(&c[a], &c[b])).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        }
        match self {
            LaneSlice::Int { lb, sg, ub } => cmp3([lb, sg, ub], a, b, i64::cmp),
            LaneSlice::Float { lb, sg, ub } => cmp3([lb, sg, ub], a, b, f64::total_cmp),
            LaneSlice::Bool { lb, sg, ub } => cmp3([lb, sg, ub], a, b, bool::cmp),
            LaneSlice::Str { lb, sg, ub, .. } => cmp3([lb, sg, ub], a, b, u32::cmp),
            LaneSlice::Boxed(v) => v[a].cmp(&v[b]),
        }
    }

    /// Boolean-triple view of cell `i` — free on a `Bool` lane, exact
    /// scalar error classification elsewhere.
    pub fn bool3(&self, i: usize) -> Result<(bool, bool, bool), EvalError> {
        match self {
            LaneSlice::Bool { lb, sg, ub } => Ok((lb[i], sg[i], ub[i])),
            LaneSlice::Boxed(v) => v[i].as_bool3(),
            other => other.get(i).as_bool3(),
        }
    }

    /// Gather the cells at `idx` (in order) into an owned lane of the
    /// same representation — the compaction step after a selection.
    pub fn gather(&self, idx: &[u32]) -> ValueLane {
        fn pick<T: Copy>(c: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| c[i as usize]).collect()
        }
        match self {
            LaneSlice::Int { lb, sg, ub } => {
                ValueLane::Int { lb: pick(lb, idx), sg: pick(sg, idx), ub: pick(ub, idx) }
            }
            LaneSlice::Float { lb, sg, ub } => {
                ValueLane::Float { lb: pick(lb, idx), sg: pick(sg, idx), ub: pick(ub, idx) }
            }
            LaneSlice::Bool { lb, sg, ub } => {
                ValueLane::Bool { lb: pick(lb, idx), sg: pick(sg, idx), ub: pick(ub, idx) }
            }
            LaneSlice::Str { dict, lb, sg, ub } => ValueLane::Str {
                dict: Arc::clone(dict),
                lb: pick(lb, idx),
                sg: pick(sg, idx),
                ub: pick(ub, idx),
            },
            LaneSlice::Boxed(v) => {
                ValueLane::Boxed(idx.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }

    /// The selected guesses of the cells at `idx` (in order) as certain
    /// cells (`lb = sg = ub`) — the attribute side of `split_sg`
    /// (Section 10.4). The lane keeps its representation.
    pub fn gather_sg(&self, idx: &[u32]) -> ValueLane {
        match *self {
            LaneSlice::Int { sg, .. } => LaneSlice::Int { lb: sg, sg, ub: sg }.gather(idx),
            LaneSlice::Float { sg, .. } => LaneSlice::Float { lb: sg, sg, ub: sg }.gather(idx),
            LaneSlice::Bool { sg, .. } => LaneSlice::Bool { lb: sg, sg, ub: sg }.gather(idx),
            LaneSlice::Str { dict, sg, .. } => {
                LaneSlice::Str { dict, lb: sg, sg, ub: sg }.gather(idx)
            }
            LaneSlice::Boxed(v) => {
                let certain = |&i: &u32| RangeValue::certain(v[i as usize].sg.clone());
                ValueLane::Boxed(idx.iter().map(certain).collect())
            }
        }
    }

    /// The bounding box of every group of cells, as a lane indexed by
    /// group: `members` lists `(cell, group)` and `reps[g]` is the first
    /// cell of group `g`. A box starts as that cell and widens in member
    /// order by [`RangeValue::extend_keep_sg`]'s rule — a bound moves
    /// only to one strictly outside it, the selected guess never. No
    /// boxed cell but a group's first is copied unless it moves a bound.
    pub fn group_boxes(
        &self,
        reps: &[u32],
        members: impl Iterator<Item = (usize, u32)> + Clone,
    ) -> ValueLane {
        fn widen<T: Copy>(
            acc: &mut [T],
            cells: &[T],
            members: impl Iterator<Item = (usize, u32)>,
            wins: impl Fn(&T, &T) -> bool,
        ) {
            for (i, g) in members {
                if wins(&cells[i], &acc[g as usize]) {
                    acc[g as usize] = cells[i];
                }
            }
        }
        let mut boxes = self.gather(reps);
        match (&mut boxes, self) {
            (ValueLane::Int { lb, ub, .. }, LaneSlice::Int { lb: l, ub: u, .. }) => {
                widen(lb, l, members.clone(), |c, b| c < b);
                widen(ub, u, members, |c, b| c > b);
            }
            (ValueLane::Float { lb, ub, .. }, LaneSlice::Float { lb: l, ub: u, .. }) => {
                widen(lb, l, members.clone(), |c, b| c.total_cmp(b).is_lt());
                widen(ub, u, members, |c, b| c.total_cmp(b).is_gt());
            }
            (ValueLane::Bool { lb, ub, .. }, LaneSlice::Bool { lb: l, ub: u, .. }) => {
                widen(lb, l, members.clone(), |c, b| c < b);
                widen(ub, u, members, |c, b| c > b);
            }
            (ValueLane::Str { lb, ub, .. }, LaneSlice::Str { lb: l, ub: u, .. }) => {
                widen(lb, l, members.clone(), |c, b| c < b);
                widen(ub, u, members, |c, b| c > b);
            }
            (ValueLane::Boxed(boxes), LaneSlice::Boxed(cells)) => {
                members.for_each(|(i, g)| boxes[g as usize].extend_keep_sg(&cells[i]));
            }
            _ => unreachable!("`gather` keeps the lane's representation"),
        }
        boxes
    }

    /// Copy into an owned lane.
    pub fn to_lane(&self) -> ValueLane {
        match self {
            LaneSlice::Int { lb, sg, ub } => {
                ValueLane::Int { lb: lb.to_vec(), sg: sg.to_vec(), ub: ub.to_vec() }
            }
            LaneSlice::Float { lb, sg, ub } => {
                ValueLane::Float { lb: lb.to_vec(), sg: sg.to_vec(), ub: ub.to_vec() }
            }
            LaneSlice::Bool { lb, sg, ub } => {
                ValueLane::Bool { lb: lb.to_vec(), sg: sg.to_vec(), ub: ub.to_vec() }
            }
            LaneSlice::Str { dict, lb, sg, ub } => ValueLane::Str {
                dict: Arc::clone(dict),
                lb: lb.to_vec(),
                sg: sg.to_vec(),
                ub: ub.to_vec(),
            },
            LaneSlice::Boxed(v) => ValueLane::Boxed(v.to_vec()),
        }
    }
}

// ---------------------------------------------------------------------------
// Typed kernels
// ---------------------------------------------------------------------------
//
// Each kernel returns `Some(lane)` with the bit-exact result of running
// the corresponding `range_*` combinator over every row, or `None` to
// demote: the operand shapes (or a produced value) left the homogeneous
// type lattice and the caller must rerun the op generically. Kernels
// may compute rows the caller knows are poisoned — typed lanes always
// hold genuine domain values, so the extra work is harmless (a demotion
// triggered by a poisoned row's data costs performance, never
// correctness).
//
// A numeric kernel is one pass over its rows, monomorphized per operand
// shape ([`Comp`]): it writes each row's three components into
// preallocated outputs and folds whether the row left the lane's type
// into one flag, which demotes the whole op after the pass. The loop
// has no branch and no early exit.

/// A kernel operand: a lane, or a cell of the program's constant pool
/// that every row reads — broadcast, never splatted to a lane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand<'a> {
    Lane(LaneSlice<'a>),
    Const(&'a RangeValue),
}

impl<'a> Operand<'a> {
    pub(crate) fn tag(&self) -> LaneTag {
        match self {
            Operand::Lane(s) => s.tag(),
            Operand::Const(c) => cell_tag(c),
        }
    }

    /// Materialize cell `i` as a [`RangeValue`].
    pub(crate) fn get(&self, i: usize) -> RangeValue {
        match self {
            Operand::Lane(s) => s.get(i),
            Operand::Const(c) => (*c).clone(),
        }
    }

    /// The operand as an `n`-long lane: a constant is splatted into
    /// `held`. For the kernels that read whole lanes (`Str` codes, `Bool`
    /// logic).
    fn to_slice<'s>(self, n: usize, held: &'s mut Option<ValueLane>) -> LaneSlice<'s>
    where
        'a: 's,
    {
        match self {
            Operand::Lane(s) => s,
            Operand::Const(c) => held.insert(ValueLane::splat(c, n)).as_slice(),
        }
    }

    /// The numeric view the arithmetic and comparison kernels read.
    fn num(self) -> Option<Num<'a>> {
        Some(match self {
            Operand::Lane(LaneSlice::Int { lb, sg, ub }) => Num::Int(Tri { lb, sg, ub }),
            Operand::Lane(LaneSlice::Float { lb, sg, ub }) => Num::Float(Tri { lb, sg, ub }),
            Operand::Const(c) => match (&c.lb, &c.sg, &c.ub) {
                (Value::Int(l), Value::Int(s), Value::Int(u)) => {
                    Num::IntConst(Tri { lb: Splat(*l), sg: Splat(*s), ub: Splat(*u) })
                }
                (Value::Float(l), Value::Float(s), Value::Float(u)) => Num::FloatConst(Tri {
                    lb: Splat(l.get()),
                    sg: Splat(s.get()),
                    ub: Splat(u.get()),
                }),
                _ => return None,
            },
            Operand::Lane(_) => return None,
        })
    }
}

/// One component of a numeric operand as a kernel reads it at row `i`:
/// a column, an `Int` column cast to `f64` in the loop, or one value
/// every row reads.
trait Comp<T>: Copy {
    /// The first `n` rows: a column cut to exactly `n`, so that reads at
    /// `0..n` carry no bounds check.
    fn cut(self, n: usize) -> Self;
    fn at(self, i: usize) -> T;
}

impl<T: Copy> Comp<T> for &[T] {
    #[inline(always)]
    fn cut(self, n: usize) -> Self {
        &self[..n]
    }
    #[inline(always)]
    fn at(self, i: usize) -> T {
        self[i]
    }
}

/// An `Int` column read as `f64` — exactly the cast of the scalar mixed
/// semantics.
#[derive(Clone, Copy)]
struct Cast<'a>(&'a [i64]);

impl Comp<f64> for Cast<'_> {
    #[inline(always)]
    fn cut(self, n: usize) -> Self {
        Cast(&self.0[..n])
    }
    #[inline(always)]
    fn at(self, i: usize) -> f64 {
        self.0[i] as f64
    }
}

/// A broadcast constant component.
#[derive(Clone, Copy)]
struct Splat<T>(T);

impl<T: Copy> Comp<T> for Splat<T> {
    #[inline(always)]
    fn cut(self, _: usize) -> Self {
        self
    }
    #[inline(always)]
    fn at(self, _: usize) -> T {
        self.0
    }
}

/// The `lb`/`sg`/`ub` components of a numeric operand.
#[derive(Clone, Copy)]
struct Tri<C> {
    lb: C,
    sg: C,
    ub: C,
}

impl<C> Tri<C> {
    fn map<D>(self, f: impl Fn(C) -> D) -> Tri<D> {
        Tri { lb: f(self.lb), sg: f(self.sg), ub: f(self.ub) }
    }

    #[inline(always)]
    fn at<T>(&self, i: usize) -> [T; 3]
    where
        C: Comp<T>,
    {
        [self.lb.at(i), self.sg.at(i), self.ub.at(i)]
    }
}

/// A numeric operand, by representation.
#[derive(Clone, Copy)]
enum Num<'a> {
    Int(Tri<&'a [i64]>),
    Float(Tri<&'a [f64]>),
    IntConst(Tri<Splat<i64>>),
    FloatConst(Tri<Splat<f64>>),
}

/// Bind `$x` to `$num` read as `f64` components and evaluate `$body`
/// (one instance per representation).
macro_rules! as_f64 {
    ($num:expr, $x:ident => $body:expr) => {
        match $num {
            Num::Int(t) => {
                let $x = t.map(Cast);
                $body
            }
            Num::Float($x) => $body,
            Num::IntConst(t) => {
                let $x = t.map(|Splat(v)| Splat(v as f64));
                $body
            }
            Num::FloatConst($x) => $body,
        }
    };
}

/// A component type the numeric kernels compute in. Each operation
/// returns what the scalar path computes and whether that leaves the
/// lane's type: an `i64` overflow (the scalar path promotes to float) or
/// a NaN (the scalar path raises [`EvalError::NotANumber`]).
trait Elem: Copy + PartialOrd {
    fn add(x: Self, y: Self) -> (Self, bool);
    fn sub(x: Self, y: Self) -> (Self, bool);
    fn mul(x: Self, y: Self) -> (Self, bool);
    fn neg(x: Self) -> (Self, bool);
    /// The smaller of two results, ties to `x` (`Value::min_of`: on
    /// canonical, NaN-free floats `total_cmp` is the usual order).
    #[inline(always)]
    fn min(x: Self, y: Self) -> Self {
        if y < x {
            y
        } else {
            x
        }
    }
    /// The larger of two results, ties to `x` (`Value::max_of`).
    #[inline(always)]
    fn max(x: Self, y: Self) -> Self {
        if y > x {
            y
        } else {
            x
        }
    }
}

impl Elem for i64 {
    #[inline(always)]
    fn add(x: i64, y: i64) -> (i64, bool) {
        x.overflowing_add(y)
    }
    /// The scalar `Value::sub` is `add(neg(y))`: `i64::MIN` fails to
    /// negate (and float-promotes) even when `x − y` is representable.
    #[inline(always)]
    fn sub(x: i64, y: i64) -> (i64, bool) {
        let (ny, o) = y.overflowing_neg();
        let (d, p) = x.overflowing_add(ny);
        (d, o | p)
    }
    #[inline(always)]
    fn mul(x: i64, y: i64) -> (i64, bool) {
        x.overflowing_mul(y)
    }
    #[inline(always)]
    fn neg(x: i64) -> (i64, bool) {
        x.overflowing_neg()
    }
}

/// Every result is canonicalized the way `F64::try_new` does (`-0.0` →
/// `0.0`: `-1.0 · 0.0` is `-0.0` in IEEE arithmetic, `0.0` in the value
/// domain).
impl Elem for f64 {
    #[inline(always)]
    fn add(x: f64, y: f64) -> (f64, bool) {
        checked_f64(x + y)
    }
    /// IEEE negation is exact and `x + (−y) = x − y`, so the scalar
    /// `add(neg(y))` chain is plain subtraction.
    #[inline(always)]
    fn sub(x: f64, y: f64) -> (f64, bool) {
        checked_f64(x - y)
    }
    #[inline(always)]
    fn mul(x: f64, y: f64) -> (f64, bool) {
        checked_f64(x * y)
    }
    #[inline(always)]
    fn neg(x: f64) -> (f64, bool) {
        checked_f64(-x)
    }
}

/// `v` canonicalized (`-0.0` → `0.0`), and whether it is NaN.
#[inline(always)]
fn checked_f64(v: f64) -> (f64, bool) {
    (if v == 0.0 { 0.0 } else { v }, v.is_nan())
}

/// A component type of a kernel's result lane.
trait Out: Copy + Default {
    fn lane(c: [Vec<Self>; 3]) -> ValueLane;
}

impl Out for i64 {
    fn lane([lb, sg, ub]: [Vec<i64>; 3]) -> ValueLane {
        ValueLane::Int { lb, sg, ub }
    }
}

impl Out for f64 {
    fn lane([lb, sg, ub]: [Vec<f64>; 3]) -> ValueLane {
        ValueLane::Float { lb, sg, ub }
    }
}

impl Out for bool {
    fn lane([lb, sg, ub]: [Vec<bool>; 3]) -> ValueLane {
        ValueLane::Bool { lb, sg, ub }
    }
}

/// One pass over `n` rows of two operands into three preallocated
/// outputs: `row` maps a row's operand components to its result's and
/// whether computing them left the lane's type. `None` when any row
/// did.
#[inline(always)]
fn pass<T, O: Out>(
    a: Tri<impl Comp<T>>,
    b: Tri<impl Comp<T>>,
    n: usize,
    row: impl Fn([T; 3], [T; 3]) -> ([O; 3], bool),
) -> Option<ValueLane> {
    let (a, b) = (a.map(|c| c.cut(n)), b.map(|c| c.cut(n)));
    let mut out = [vec![O::default(); n], vec![O::default(); n], vec![O::default(); n]];
    let [lb, sg, ub] = &mut out;
    let (lb, sg, ub) = (&mut lb[..n], &mut sg[..n], &mut ub[..n]);
    let mut left = false;
    for i in 0..n {
        let ([l, s, u], bad) = row(a.at(i), b.at(i));
        (lb[i], sg[i], ub[i]) = (l, s, u);
        left |= bad;
    }
    (!left).then(|| O::lane(out))
}

/// Run a kernel's `int` rows when both operands are `Int`, its `float`
/// rows on their `f64` casts when a `Float` is involved (the scalar
/// mixed semantics are cast based), and demote on any other operand.
fn numeric<I: Out, F: Out>(
    a: Operand<'_>,
    b: Operand<'_>,
    n: usize,
    int: impl Fn([i64; 3], [i64; 3]) -> ([I; 3], bool) + Copy,
    float: impl Fn([f64; 3], [f64; 3]) -> ([F; 3], bool) + Copy,
) -> Option<ValueLane> {
    match (a.num()?, b.num()?) {
        (Num::Int(x), Num::Int(y)) => pass(x, y, n, int),
        (Num::Int(x), Num::IntConst(y)) => pass(x, y, n, int),
        (Num::IntConst(x), Num::Int(y)) => pass(x, y, n, int),
        (Num::IntConst(x), Num::IntConst(y)) => pass(x, y, n, int),
        (x, y) => as_f64!(x, x => as_f64!(y, y => pass(x, y, n, float))),
    }
}

/// `range_add` rows: componentwise sums. Monotone, so the validating
/// `RangeValue::new` of the scalar path cannot fail on the homogeneous
/// inputs the kernel accepts.
#[inline(always)]
fn add<T: Elem>([al, asg, au]: [T; 3], [bl, bsg, bu]: [T; 3]) -> ([T; 3], bool) {
    let ((l, x), (s, y), (u, z)) = (T::add(al, bl), T::add(asg, bsg), T::add(au, bu));
    ([l, s, u], x | y | z)
}

/// `range_sub` rows: `sg = a.sg − b.sg`, bounds `a.lb − b.ub` and
/// `a.ub − b.lb` widened by `sg`.
#[inline(always)]
fn sub<T: Elem>([al, asg, au]: [T; 3], [bl, bsg, bu]: [T; 3]) -> ([T; 3], bool) {
    let ((s, x), (l, y), (u, z)) = (T::sub(asg, bsg), T::sub(al, bu), T::sub(au, bl));
    ([T::min(l, s), s, T::max(u, s)], x | y | z)
}

/// `range_mul` rows: four corner products, their min/max envelope
/// widened by the sg product.
#[inline(always)]
fn mul<T: Elem>([al, asg, au]: [T; 3], [bl, bsg, bu]: [T; 3]) -> ([T; 3], bool) {
    let ((c0, o0), (c1, o1)) = (T::mul(al, bl), T::mul(al, bu));
    let ((c2, o2), (c3, o3)) = (T::mul(au, bl), T::mul(au, bu));
    let (s, o4) = T::mul(asg, bsg);
    let lo = T::min(T::min(c0, c1), T::min(c2, c3));
    let hi = T::max(T::max(c0, c1), T::max(c2, c3));
    ([T::min(lo, s), s, T::max(hi, s)], o0 | o1 | o2 | o3 | o4)
}

/// `range_neg` rows: `sg = −a.sg`, bounds `−a.ub` / `−a.lb` widened by
/// `sg`.
#[inline(always)]
fn neg<T: Elem>([al, asg, au]: [T; 3], _: [T; 3]) -> ([T; 3], bool) {
    let ((s, x), (l, y), (u, z)) = (T::neg(asg), T::neg(au), T::neg(al));
    ([T::min(l, s), s, T::max(u, s)], x | y | z)
}

/// `range_leq` rows: `(a.ub ≤ b.lb, a.sg ≤ b.sg, a.lb ≤ b.ub)`.
#[inline(always)]
fn leq<T: Elem>([al, asg, au]: [T; 3], [bl, bsg, bu]: [T; 3]) -> ([bool; 3], bool) {
    ([au <= bl, asg <= bsg, al <= bu], false)
}

/// `range_lt` rows: strict variants of the same components.
#[inline(always)]
fn lt<T: Elem>([al, asg, au]: [T; 3], [bl, bsg, bu]: [T; 3]) -> ([bool; 3], bool) {
    ([au < bl, asg < bsg, al < bu], false)
}

/// `range_eq` rows: certainly equal iff both endpoints pin the same
/// value, possibly equal iff the ranges overlap (`value_eq`-aware, which
/// for numeric lanes is exactly the cast equality).
#[inline(always)]
fn eq<T: Elem>([al, asg, au]: [T; 3], [bl, bsg, bu]: [T; 3]) -> ([bool; 3], bool) {
    ([(au == bl) & (bu == al), asg == bsg, (al <= bu) & (bl <= au)], false)
}

pub(crate) fn k_add(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    numeric(a, b, n, add::<i64>, add::<f64>)
}

pub(crate) fn k_sub(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    numeric(a, b, n, sub::<i64>, sub::<f64>)
}

pub(crate) fn k_mul(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    numeric(a, b, n, mul::<i64>, mul::<f64>)
}

pub(crate) fn k_neg(a: Operand<'_>, n: usize) -> Option<ValueLane> {
    numeric(a, a, n, neg::<i64>, neg::<f64>)
}

pub(crate) fn k_leq(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    compare(a, b, n, leq::<i64>, leq::<f64>)
}

pub(crate) fn k_lt(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    compare(a, b, n, lt::<i64>, lt::<f64>)
}

pub(crate) fn k_eq(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    compare(a, b, n, eq::<i64>, eq::<f64>)
}

/// A comparison: over [`str_codes`] when both operands are strings,
/// else numeric.
fn compare(
    a: Operand<'_>,
    b: Operand<'_>,
    n: usize,
    int: impl Fn([i64; 3], [i64; 3]) -> ([bool; 3], bool) + Copy,
    float: impl Fn([f64; 3], [f64; 3]) -> ([bool; 3], bool) + Copy,
) -> Option<ValueLane> {
    if a.tag() != LaneTag::Str || b.tag() != LaneTag::Str {
        return numeric(a, b, n, int, float);
    }
    let (mut ha, mut hb) = (None, None);
    let [[al, asg, au], [bl, bsg, bu]] =
        str_codes(&a.to_slice(n, &mut ha), &b.to_slice(n, &mut hb))?;
    let x = Tri { lb: &al[..], sg: &asg[..], ub: &au[..] };
    pass(x, Tri { lb: &bl[..], sg: &bsg[..], ub: &bu[..] }, n, int)
}

/// Two `Str` lanes' codes as `i64` components of one order-preserving
/// space: the stored codes over a shared dictionary, else `a`'s doubled
/// and `b`'s strings placed among `a`'s ([`StrDict::place`]). Only `a`
/// is ever compared with `b`, and that comparison is exact. `None`
/// unless both lanes are `Str`.
///
/// A slice keeps its whole lane's dictionary, so placing all of `b`'s
/// dictionary costs `O(|dict b| log |dict a|)` however short the slice
/// is. Once that dictionary outgrows the slice's cells, the strings are
/// compared directly instead: the comparison kernels only ever compare
/// a component with its partner (`a.ub`–`b.lb`, `a.sg`–`b.sg`,
/// `a.lb`–`b.ub`), so `a`'s component becomes the sign of its order
/// against the partner and `b`'s becomes 0 — one string comparison per
/// component, and a call stays `O(slice)`.
fn str_codes(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<[[Vec<i64>; 3]; 2]> {
    let (
        LaneSlice::Str { dict: da, lb: al, sg: asg, ub: au },
        LaneSlice::Str { dict: db, lb: bl, sg: bsg, ub: bu },
    ) = (a, b)
    else {
        return None;
    };
    let map = |c: &[u32], f: &dyn Fn(u32) -> i64| c.iter().map(|&c| f(c)).collect::<Vec<_>>();
    if Arc::ptr_eq(da, db) {
        let code = |c| i64::from(c);
        return Some([[al, asg, au].map(|c| map(c, &code)), [bl, bsg, bu].map(|c| map(c, &code))]);
    }
    if db.values.len() > bl.len() {
        let sign = |x: &[u32], y: &[u32]| -> Vec<i64> {
            let (x, y) = (x.iter().map(|&c| &da.values[c as usize]), y.iter());
            x.zip(y).map(|(x, &c)| x.cmp(&db.values[c as usize]) as i64).collect()
        };
        let zeros = || vec![0; bl.len()];
        return Some([[sign(al, bu), sign(asg, bsg), sign(au, bl)], [zeros(), zeros(), zeros()]]);
    }
    let placed: Vec<i64> = db.values.iter().map(|v| da.place(v)).collect();
    let (double, place) = (|c| 2 * i64::from(c), |c: u32| placed[c as usize]);
    Some([[al, asg, au].map(|c| map(c, &double)), [bl, bsg, bu].map(|c| map(c, &place))])
}

/// `range_and` kernel over two boolean operands (componentwise `&&`).
pub(crate) fn k_and(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    logic(a, b, n, |x, y| x && y)
}

/// `range_or` kernel (componentwise `||`).
pub(crate) fn k_or(a: Operand<'_>, b: Operand<'_>, n: usize) -> Option<ValueLane> {
    logic(a, b, n, |x, y| x || y)
}

fn logic(
    a: Operand<'_>,
    b: Operand<'_>,
    n: usize,
    f: impl Fn(bool, bool) -> bool,
) -> Option<ValueLane> {
    let (mut ha, mut hb) = (None, None);
    match (a.to_slice(n, &mut ha), b.to_slice(n, &mut hb)) {
        (
            LaneSlice::Bool { lb: al, sg: asg, ub: au },
            LaneSlice::Bool { lb: bl, sg: bsg, ub: bu },
        ) => Some(ValueLane::Bool {
            lb: al.iter().zip(bl).map(|(&x, &y)| f(x, y)).collect(),
            sg: asg.iter().zip(bsg).map(|(&x, &y)| f(x, y)).collect(),
            ub: au.iter().zip(bu).map(|(&x, &y)| f(x, y)).collect(),
        }),
        _ => None,
    }
}

/// `range_not` kernel: negate and swap the bounds (`¬` is
/// antimonotone).
pub(crate) fn k_not(a: Operand<'_>, n: usize) -> Option<ValueLane> {
    let mut held = None;
    match a.to_slice(n, &mut held) {
        LaneSlice::Bool { lb, sg, ub } => Some(ValueLane::Bool {
            lb: ub.iter().map(|&v| !v).collect(),
            sg: sg.iter().map(|&v| !v).collect(),
            ub: lb.iter().map(|&v| !v).collect(),
        }),
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::expr::{range_add, range_eq, range_leq, range_lt, range_mul, range_neg, range_sub};

    fn lane_of(cells: &[RangeValue]) -> ValueLane {
        ValueLane::from_cells(cells.iter())
    }

    fn arg(lane: &ValueLane) -> Operand<'_> {
        Operand::Lane(lane.as_slice())
    }

    fn int_cells() -> Vec<RangeValue> {
        vec![
            RangeValue::range(1i64, 2i64, 3i64),
            RangeValue::range(-7i64, 0i64, 4i64),
            RangeValue::certain(Value::Int(9)),
            RangeValue::range(i64::MIN + 1, 0i64, i64::MAX - 1),
        ]
    }

    fn float_cells() -> Vec<RangeValue> {
        vec![
            RangeValue::range(1.5f64, 2.0f64, 3.25f64),
            RangeValue::range(-0.5f64, 0.0f64, 0.5f64),
            RangeValue::certain(Value::float(-9.75)),
            RangeValue::range(-1e300f64, 0.0f64, 1e300f64),
        ]
    }

    #[test]
    fn classification_picks_tightest_lane() {
        assert_eq!(lane_of(&int_cells()).tag(), LaneTag::Int);
        assert_eq!(lane_of(&float_cells()).tag(), LaneTag::Float);
        let bools =
            vec![RangeValue::certain(Value::Bool(true)), RangeValue::range(false, false, true)];
        assert_eq!(lane_of(&bools).tag(), LaneTag::Bool);
        // mixed numeric and sentinel cells force the boxed lane
        let mixed =
            vec![RangeValue::certain(Value::Int(1)), RangeValue::certain(Value::float(1.0))];
        assert_eq!(lane_of(&mixed).tag(), LaneTag::Boxed);
        let null = vec![RangeValue::unknown(Value::Int(0))];
        assert_eq!(lane_of(&null).tag(), LaneTag::Boxed);
    }

    #[test]
    fn roundtrip_preserves_cells() {
        for cells in [int_cells(), float_cells()] {
            let lane = lane_of(&cells);
            for (i, c) in cells.iter().enumerate() {
                assert_eq!(lane.get(i), *c);
            }
            assert_eq!(lane.slice(1..3).get(0), cells[1]);
        }
    }

    /// Every kernel matches its scalar combinator cell for cell, across
    /// Int⊗Int, Float⊗Float, and mixed Int⊗Float lane pairs.
    #[test]
    fn kernels_match_combinators() {
        let ints = lane_of(&int_cells());
        let floats = lane_of(&float_cells());
        let pairs: Vec<(&ValueLane, &ValueLane)> =
            vec![(&ints, &ints), (&floats, &floats), (&ints, &floats), (&floats, &ints)];
        for (a, b) in pairs {
            let (sa, sb, n) = (arg(a), arg(b), a.len());
            for i in 0..n {
                let (ca, cb) = (a.get(i), b.get(i));
                if let Some(out) = k_add(sa, sb, n) {
                    assert_eq!(out.get(i), range_add(&ca, &cb).unwrap(), "add {ca} {cb}");
                }
                if let Some(out) = k_sub(sa, sb, n) {
                    assert_eq!(out.get(i), range_sub(&ca, &cb).unwrap(), "sub {ca} {cb}");
                }
                if let Some(out) = k_mul(sa, sb, n) {
                    assert_eq!(out.get(i), range_mul(&ca, &cb).unwrap(), "mul {ca} {cb}");
                }
                if let Some(out) = k_neg(sa, n) {
                    assert_eq!(out.get(i), range_neg(&ca).unwrap(), "neg {ca}");
                }
                let out = k_leq(sa, sb, n).unwrap();
                assert_eq!(out.get(i), range_leq(&ca, &cb), "leq {ca} {cb}");
                let out = k_lt(sa, sb, n).unwrap();
                assert_eq!(out.get(i), range_lt(&ca, &cb), "lt {ca} {cb}");
                let out = k_eq(sa, sb, n).unwrap();
                assert_eq!(out.get(i), range_eq(&ca, &cb), "eq {ca} {cb}");
            }
        }
    }

    /// Arithmetic that would overflow i64 demotes instead of producing
    /// a wrong typed result (the scalar path float-promotes there).
    #[test]
    fn int_overflow_demotes() {
        let a = lane_of(&[RangeValue::certain(Value::Int(i64::MAX))]);
        let b = lane_of(&[RangeValue::certain(Value::Int(1))]);
        assert!(k_add(arg(&a), arg(&b), 1).is_none());
        let m = lane_of(&[RangeValue::certain(Value::Int(i64::MIN))]);
        assert!(k_neg(arg(&m), 1).is_none());
        // i64::MIN as a *subtrahend* fails neg even when a - b fits
        let a2 = lane_of(&[RangeValue::certain(Value::Int(-1))]);
        assert!(k_sub(arg(&a2), arg(&m), 1).is_none());
    }

    /// `-0.0` never escapes a float kernel (mirrors `F64::try_new`).
    #[test]
    fn float_kernels_canonicalize_negative_zero() {
        let a = lane_of(&[RangeValue::range(-1.0f64, 0.0f64, 1.0f64)]);
        let z = lane_of(&[RangeValue::certain(Value::float(0.0))]);
        let out = k_mul(arg(&a), arg(&z), 1).unwrap();
        assert_eq!(out.get(0), RangeValue::certain(Value::float(0.0)));
        let out = k_neg(arg(&z), 1).unwrap();
        assert_eq!(out.get(0), RangeValue::certain(Value::float(0.0)));
    }

    /// xorshift64*: a seeded stream for the random lanes below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())].clone()
        }
    }

    /// A random cell of one lane type. `Int` and `Float` components stay
    /// within ±2^20, so no sum, difference or product of two overflows or
    /// is NaN; zeros (negative zeros included) are frequent.
    fn random_cell(rng: &mut Rng, tag: LaneTag) -> RangeValue {
        let mut v: [Value; 3] = std::array::from_fn(|_| {
            let int = match rng.below(4) {
                0 => 0,
                _ => rng.below(1 << 21) as i64 - (1 << 20),
            };
            match tag {
                LaneTag::Int => Value::Int(int),
                LaneTag::Float if int == 0 => Value::float(rng.pick(&[0.0, -0.0])),
                LaneTag::Float => Value::float(int as f64 / 8.0),
                LaneTag::Bool => Value::Bool(int > 0),
                _ => Value::str(rng.pick(&["ant", "bee", "cat", "dog", "eel"])),
            }
        });
        v.sort();
        let [lb, sg, ub] = v;
        RangeValue { lb, sg, ub }
    }

    /// A cell at the edge of its lane type: an `i64` extreme or an
    /// infinity, which overflows or turns NaN against some partner.
    fn seam_cell(rng: &mut Rng, tag: LaneTag) -> RangeValue {
        let (lo, hi) = match tag {
            LaneTag::Int => (Value::Int(i64::MIN), Value::Int(i64::MAX)),
            _ => (Value::float(f64::NEG_INFINITY), Value::float(f64::INFINITY)),
        };
        let zero = if tag == LaneTag::Int { Value::Int(0) } else { Value::float(0.0) };
        match rng.below(4) {
            0 => RangeValue::certain(hi),
            1 => RangeValue::certain(lo),
            2 => RangeValue { lb: lo, sg: zero, ub: hi },
            _ => RangeValue { lb: lo.clone(), sg: lo, ub: zero },
        }
    }

    type Binary = fn(Operand<'_>, Operand<'_>, usize) -> Option<ValueLane>;
    type Combinator2 = fn(&RangeValue, &RangeValue) -> Result<RangeValue, EvalError>;
    type Unary = fn(Operand<'_>, usize) -> Option<ValueLane>;
    type Combinator1 = fn(&RangeValue) -> Result<RangeValue, EvalError>;

    /// A kernel's result against its combinator over every row: `Some`
    /// is each row's combinator result bit for bit, with no `-0.0`; a row
    /// whose combinator errs or leaves the lane's type makes it `None`.
    /// Returns whether the kernel kept the op typed.
    fn agrees(
        name: &str,
        got: Option<ValueLane>,
        n: usize,
        want: impl Fn(usize) -> Result<RangeValue, EvalError>,
    ) -> bool {
        let Some(lane) = got else { return false };
        assert_eq!(lane.len(), n, "{name}");
        for i in 0..n {
            match want(i) {
                Ok(w) => assert_eq!(lane.get(i), w, "{name} at row {i} of {n}"),
                Err(e) => panic!("{name} at row {i} of {n}: the combinator errs ({e}), the kernel did not demote"),
            }
        }
        if let ValueLane::Float { lb, sg, ub } = &lane {
            let neg_zero = (-0.0f64).to_bits();
            assert!(lb.iter().chain(sg).chain(ub).all(|v| v.to_bits() != neg_zero), "{name}: -0.0");
        }
        true
    }

    /// Every kernel ≡ its combinator on random lanes of 1..=2 100 rows —
    /// `Int`, `Float`, mixed, `Bool` and `Str` pairs, both operand orders,
    /// a broadcast constant on either side — with one overflow- or
    /// NaN-prone cell at the first row, an interior row, row 2 047 or the
    /// last row. Pins the wholesale demotion of the one-pass loops: a
    /// flag missed in a remainder lane or reset per chunk keeps an op
    /// typed that the combinator promotes at that row.
    #[test]
    fn random_lanes_match_combinators_at_seams() {
        use crate::expr::{range_and, range_not, range_or};
        let binary: [(&str, Binary, Combinator2); 8] = [
            ("add", k_add, range_add),
            ("sub", k_sub, range_sub),
            ("mul", k_mul, range_mul),
            ("leq", k_leq, |x, y| Ok(range_leq(x, y))),
            ("lt", k_lt, |x, y| Ok(range_lt(x, y))),
            ("eq", k_eq, |x, y| Ok(range_eq(x, y))),
            ("and", k_and, range_and),
            ("or", k_or, range_or),
        ];
        let unary: [(&str, Unary, Combinator1); 2] =
            [("neg", k_neg, range_neg), ("not", k_not, range_not)];
        // the op kinds each kernel has a typed loop for
        let domain = |name: &str, tag: LaneTag| match name {
            "and" | "or" | "not" => tag == LaneTag::Bool,
            "leq" | "lt" | "eq" => tag != LaneTag::Bool,
            _ => matches!(tag, LaneTag::Int | LaneTag::Float),
        };
        let lengths =
            [1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 33, 64, 65, 1023, 1025, 2047, 2048, 2049, 2100];
        let pairs = [
            (LaneTag::Int, LaneTag::Int),
            (LaneTag::Float, LaneTag::Float),
            (LaneTag::Int, LaneTag::Float),
            (LaneTag::Float, LaneTag::Int),
            (LaneTag::Bool, LaneTag::Bool),
            (LaneTag::Str, LaneTag::Str),
        ];
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        // (typed, demoted) per seam position: none, first, interior, 2047, last
        let mut tally = [[0usize; 2]; 5];
        for trial in 0..96 {
            let n = if trial % 2 == 0 { rng.pick(&lengths) } else { 1 + rng.below(2100) };
            let (ta, tb) = pairs[trial % pairs.len()];
            let mut a: Vec<RangeValue> = (0..n).map(|_| random_cell(&mut rng, ta)).collect();
            let mut b: Vec<RangeValue> = (0..n).map(|_| random_cell(&mut rng, tb)).collect();
            let numeric = |t| matches!(t, LaneTag::Int | LaneTag::Float);
            let seam = match rng.below(5) {
                _ if !numeric(ta) => 0,
                3 if n < 2048 => 0,
                k => k,
            };
            if seam > 0 {
                let row = match seam {
                    1 => 0,
                    2 if n > 2 => 1 + rng.below(n - 2),
                    3 => 2047,
                    _ => n - 1,
                };
                let side = rng.below(3);
                if side != 1 {
                    a[row] = seam_cell(&mut rng, ta);
                }
                if side != 0 {
                    b[row] = seam_cell(&mut rng, tb);
                }
            }
            let konst = |rng: &mut Rng, t| {
                if numeric(t) && rng.below(3) == 0 {
                    seam_cell(rng, t)
                } else {
                    random_cell(rng, t)
                }
            };
            let (ca, cb) = (konst(&mut rng, ta), konst(&mut rng, tb));
            let (la, lb) = (lane_of(&a), lane_of(&b));
            assert_eq!((la.tag(), lb.tag()), (ta, tb));
            let (va, vb) = (vec![ca.clone(); n], vec![cb.clone(); n]);
            let arrangements = [
                (arg(&la), arg(&lb), &a, &b),
                (arg(&lb), arg(&la), &b, &a),
                (Operand::Const(&ca), arg(&lb), &va, &b),
                (arg(&la), Operand::Const(&cb), &a, &vb),
                (Operand::Const(&ca), Operand::Const(&cb), &va, &vb),
            ];
            for (x, y, xs, ys) in arrangements {
                let clean = seam == 0 && [x, y].iter().all(|o| matches!(o, Operand::Lane(_)));
                for (name, kernel, combinator) in binary {
                    let typed = agrees(name, kernel(x, y, n), n, |i| combinator(&xs[i], &ys[i]));
                    let in_domain = domain(name, x.tag()) && domain(name, y.tag());
                    assert!(typed || !clean || !in_domain, "{name} demoted on {n} clean rows");
                    tally[seam][usize::from(!typed)] += usize::from(in_domain);
                }
                for (name, kernel, combinator) in unary {
                    let typed = agrees(name, kernel(x, n), n, |i| combinator(&xs[i]));
                    assert!(
                        typed || !clean || !domain(name, x.tag()),
                        "{name} demoted on {n} clean rows"
                    );
                }
            }
        }
        // every seam position both kept ops typed and demoted some
        assert!(tally.iter().all(|[typed, demoted]| *typed > 0 && *demoted > 0), "{tally:?}");
    }

    #[test]
    fn bool_kernels_match() {
        use crate::expr::{range_and, range_not, range_or};
        let cells = [
            RangeValue::range(false, false, false),
            RangeValue::range(false, false, true),
            RangeValue::range(false, true, true),
            RangeValue::range(true, true, true),
        ];
        let lane = lane_of(&cells);
        let s = arg(&lane);
        for i in 0..cells.len() {
            for j in 0..cells.len() {
                // pair lane: cell i on the left, cell j on the right
                let right = lane_of(&vec![cells[j].clone(); 4]);
                let sr = arg(&right);
                let and = k_and(s, sr, 4).unwrap();
                assert_eq!(and.get(i), range_and(&cells[i], &cells[j]).unwrap());
                let or = k_or(s, sr, 4).unwrap();
                assert_eq!(or.get(i), range_or(&cells[i], &cells[j]).unwrap());
            }
            let not = k_not(s, 4).unwrap();
            assert_eq!(not.get(i), range_not(&cells[i]).unwrap());
        }
    }

    #[test]
    fn gather_and_splat() {
        let lane = lane_of(&int_cells());
        let g = lane.as_slice().gather(&[2, 0]);
        assert_eq!(g.get(0), lane.get(2));
        assert_eq!(g.get(1), lane.get(0));
        let s = ValueLane::splat(&RangeValue::certain(Value::str("x")), 3);
        assert_eq!(s.tag(), LaneTag::Str);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(2), RangeValue::certain(Value::str("x")));
        let s = ValueLane::splat(&RangeValue::certain(Value::Null), 2);
        assert_eq!(s.tag(), LaneTag::Boxed);
        let s = ValueLane::splat(&RangeValue::certain(Value::Int(5)), 2);
        assert_eq!(s.tag(), LaneTag::Int);
    }

    /// Appending keeps a lane typed while the tags agree — an empty lane
    /// takes the incoming one — and demotes it to the boxed column of
    /// the same cells when they do not.
    #[test]
    fn append_stays_typed_until_tags_disagree() {
        let (ints, floats) = (int_cells(), float_cells());
        let (il, fl) = (lane_of(&ints), lane_of(&floats));
        let mut lane = ValueLane::default();
        lane.append(&il.as_slice(), Some(&[2, 0]));
        assert_eq!(lane.tag(), LaneTag::Int);
        lane.append(&il.as_slice(), None);
        assert_eq!(lane.tag(), LaneTag::Int);
        let mut want = vec![ints[2].clone(), ints[0].clone()];
        want.extend(ints.iter().cloned());
        assert_eq!((0..lane.len()).map(|i| lane.get(i)).collect::<Vec<_>>(), want);

        lane.append(&fl.as_slice(), Some(&[1]));
        assert_eq!(lane.tag(), LaneTag::Boxed);
        lane.append(&il.as_slice(), Some(&[3]));
        want.extend([floats[1].clone(), ints[3].clone()]);
        assert_eq!((0..lane.len()).map(|i| lane.get(i)).collect::<Vec<_>>(), want);
    }

    /// `cells_eq` / `cells_cmp` are the materialized cells' derived
    /// `Eq` / `Ord`, on every lane tag: ties on `lb`, float ties by bits,
    /// boxed mixes.
    /// `and_eq_cells` and-s exactly `range_eq`'s triple into every pair
    /// of cells of two typed-alike lanes (`Int`, `Float`, `Str` of one
    /// dictionary), and declines any other pair of lanes untouched.
    #[test]
    fn and_eq_cells_ands_range_eq_of_typed_alike_cells() {
        let word = |w: &str| Value::str(w);
        let strs = vec![
            RangeValue::range(word("ant"), word("bee"), word("cat")),
            RangeValue::certain(word("bee")),
            RangeValue::certain(word("cat")),
            RangeValue::range(word("cat"), word("dog"), word("eel")),
        ];
        let (ints, floats) = (int_cells(), float_cells());
        for cells in [&ints, &floats, &strs] {
            let lane = lane_of(cells);
            let s = lane.as_slice();
            let n = cells.len() as u32;
            let (is, js): (Vec<u32>, Vec<u32>) =
                (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).unzip();
            for start in [[true; 3], [true, false, true]] {
                let mut acc = vec![start; is.len()];
                assert!(s.and_eq_cells(&s, &is, &js, &mut acc));
                for ((&i, &j), got) in is.iter().zip(&js).zip(&acc) {
                    let (a, b) = (&cells[i as usize], &cells[j as usize]);
                    let (lb, sg, ub) = range_eq(a, b).as_bool3().unwrap();
                    assert_eq!(*got, [start[0] & lb, start[1] & sg, start[2] & ub], "{a} = {b}");
                }
            }
        }
        let mut acc = vec![[true; 3]];
        let (ints, floats) = (lane_of(&ints), lane_of(&floats));
        assert!(!ints.as_slice().and_eq_cells(&floats.as_slice(), &[0], &[0], &mut acc));
        let (mine, theirs) = (lane_of(&strs), lane_of(&strs));
        assert!(!mine.as_slice().and_eq_cells(&theirs.as_slice(), &[0], &[0], &mut acc));
        assert_eq!(acc, [[true; 3]]);
    }

    #[test]
    fn cell_equality_and_order_are_the_range_values() {
        let bools = vec![
            RangeValue::range(false, false, true),
            RangeValue::range(false, true, true),
            RangeValue::range(false, false, true),
        ];
        let mut ints = int_cells();
        ints.extend([RangeValue::range(1i64, 2i64, 4i64), RangeValue::range(1i64, 2i64, 3i64)]);
        let mut floats = float_cells();
        floats.extend([floats[0].clone(), RangeValue::range(1.5f64, 1.5f64, 3.25f64)]);
        let mixed = vec![
            RangeValue::certain(Value::Int(2)),
            RangeValue::certain(Value::float(2.0)),
            RangeValue::certain(Value::str("s")),
            RangeValue::unknown(Value::Int(2)),
            RangeValue::certain(Value::Int(2)),
        ];
        for (cells, tag) in [
            (&ints, LaneTag::Int),
            (&floats, LaneTag::Float),
            (&bools, LaneTag::Bool),
            (&mixed, LaneTag::Boxed),
        ] {
            let lane = lane_of(cells);
            assert_eq!(lane.tag(), tag);
            let s = lane.as_slice();
            for (a, ca) in cells.iter().enumerate() {
                for (b, cb) in cells.iter().enumerate() {
                    assert_eq!(s.cells_eq(a, b), ca == cb, "{ca} == {cb}");
                    assert_eq!(s.cells_cmp(a, b), ca.cmp(cb), "{ca} vs {cb}");
                }
            }
        }
    }

    #[test]
    fn lane_bytes_accounting() {
        let lane = lane_of(&int_cells());
        assert_eq!(lane.lane_bytes(), 3 * 8 * 4);
        let boxed =
            lane_of(&[RangeValue::certain(Value::str("abcd")), RangeValue::certain(Value::Int(1))]);
        let base = 2 * std::mem::size_of::<RangeValue>() as u64;
        assert_eq!(boxed.lane_bytes(), base + 3 * 4);
    }
}
