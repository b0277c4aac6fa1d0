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
//! * `i64` checked arithmetic returning `None` — the scalar path
//!   *promotes that component to float* (`Value::add` et al.), so the
//!   result column is no longer homogeneous `Int`;
//! * an `f64` kernel producing NaN — the scalar path raises
//!   [`EvalError::NotANumber`] for that row, which only the generic
//!   path can report per-row.
//!
//! The `f64` kernels canonicalize `-0.0` to `0.0` after every
//! operation, mirroring `F64::try_new` (e.g. `-1.0 * 0.0` is `-0.0` in
//! IEEE arithmetic but `0.0` in the value domain). Mixed `Int`/`Float`
//! operand pairs may use the `f64` kernels because the scalar mixed
//! semantics are themselves f64-cast based: `Value::add` computes
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
use std::hash::{Hash, Hasher};
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
        let tag = |c: &RangeValue| match (&c.lb, &c.sg, &c.ub) {
            (Value::Int(_), Value::Int(_), Value::Int(_)) => LaneTag::Int,
            (Value::Float(_), Value::Float(_), Value::Float(_)) => LaneTag::Float,
            (Value::Bool(_), Value::Bool(_), Value::Bool(_)) => LaneTag::Bool,
            (Value::Str(_), Value::Str(_), Value::Str(_)) => LaneTag::Str,
            _ => LaneTag::Boxed,
        };
        // every cell's tag, or `Boxed` at the first that differs (an empty
        // column is an empty `Int` lane)
        let mut tags = cells.clone().map(tag);
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

    /// Feed cell `i` to a hasher, consistently with
    /// [`LaneSlice::cells_eq`].
    pub fn hash_cell<H: Hasher>(&self, i: usize, state: &mut H) {
        match self {
            // one word per component: an array's `Hash` would add a
            // length prefix and go through the byte-slice path
            LaneSlice::Int { lb, sg, ub } => {
                [lb[i], sg[i], ub[i]].into_iter().for_each(|v| state.write_i64(v));
            }
            LaneSlice::Float { lb, sg, ub } => {
                [lb[i], sg[i], ub[i]].into_iter().for_each(|v| state.write_u64(v.to_bits()));
            }
            LaneSlice::Bool { lb, sg, ub } => {
                state.write_u8(u8::from(lb[i]) | u8::from(sg[i]) << 1 | u8::from(ub[i]) << 2);
            }
            LaneSlice::Str { lb, sg, ub, .. } => {
                [lb[i], sg[i], ub[i]].into_iter().for_each(|v| state.write_u32(v));
            }
            LaneSlice::Boxed(v) => v[i].hash(state),
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

/// Canonicalize an f64 the way `F64::try_new` does (`-0.0` → `0.0`).
#[inline]
fn canon(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

#[inline]
fn fmin(a: f64, b: f64) -> f64 {
    // total_cmp order on canonical, NaN-free floats is the usual order;
    // ties return `a`, matching `Value::min_of`.
    if b < a {
        b
    } else {
        a
    }
}

#[inline]
fn fmax(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// f64 view of a numeric lane component: `Int` components cast
/// elementwise (exactly what the scalar mixed-numeric semantics do).
fn numeric_f64(s: &LaneSlice<'_>) -> Option<[Vec<f64>; 3]> {
    match s {
        LaneSlice::Int { lb, sg, ub } => Some([
            lb.iter().map(|&v| v as f64).collect(),
            sg.iter().map(|&v| v as f64).collect(),
            ub.iter().map(|&v| v as f64).collect(),
        ]),
        LaneSlice::Float { lb, sg, ub } => Some([lb.to_vec(), sg.to_vec(), ub.to_vec()]),
        _ => None,
    }
}

fn checked_zip(a: &[i64], b: &[i64], f: impl Fn(i64, i64) -> Option<i64>) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        out.push(f(x, y)?);
    }
    Some(out)
}

/// f64 map over two components; `None` when any element is NaN (the
/// scalar path raises `NotANumber` there — only the generic path can
/// report it per-row).
fn f64_zip(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(a.len());
    let mut ok = true;
    for (&x, &y) in a.iter().zip(b) {
        let v = canon(f(x, y));
        ok &= !v.is_nan();
        out.push(v);
    }
    ok.then_some(out)
}

/// The scalar `Value::sub` is `add(neg(b))`: `i64::MIN` fails to negate
/// (and float-promotes) even when `a - b` itself is representable.
#[inline]
fn int_sub(a: i64, b: i64) -> Option<i64> {
    b.checked_neg().and_then(|nb| a.checked_add(nb))
}

/// `range_add` kernel: componentwise sums. Monotone, so the validating
/// `RangeValue::new` of the scalar path cannot fail on the homogeneous
/// inputs this kernel accepts.
pub(crate) fn k_add(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    match (a, b) {
        (
            LaneSlice::Int { lb: al, sg: asg, ub: au },
            LaneSlice::Int { lb: bl, sg: bsg, ub: bu },
        ) => Some(ValueLane::Int {
            lb: checked_zip(al, bl, i64::checked_add)?,
            sg: checked_zip(asg, bsg, i64::checked_add)?,
            ub: checked_zip(au, bu, i64::checked_add)?,
        }),
        _ => {
            let [al, asg, au] = numeric_f64(a)?;
            let [bl, bsg, bu] = numeric_f64(b)?;
            Some(ValueLane::Float {
                lb: f64_zip(&al, &bl, |x, y| x + y)?,
                sg: f64_zip(&asg, &bsg, |x, y| x + y)?,
                ub: f64_zip(&au, &bu, |x, y| x + y)?,
            })
        }
    }
}

/// `range_sub` kernel: `sg = a.sg − b.sg`, bounds `a.lb − b.ub` and
/// `a.ub − b.lb` widened by `sg`.
pub(crate) fn k_sub(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    match (a, b) {
        (
            LaneSlice::Int { lb: al, sg: asg, ub: au },
            LaneSlice::Int { lb: bl, sg: bsg, ub: bu },
        ) => {
            let sg = checked_zip(asg, bsg, int_sub)?;
            let dl = checked_zip(al, bu, int_sub)?;
            let du = checked_zip(au, bl, int_sub)?;
            let lb = dl.iter().zip(&sg).map(|(&d, &s)| d.min(s)).collect();
            let ub = du.iter().zip(&sg).map(|(&d, &s)| d.max(s)).collect();
            Some(ValueLane::Int { lb, sg, ub })
        }
        _ => {
            let [al, asg, au] = numeric_f64(a)?;
            let [bl, bsg, bu] = numeric_f64(b)?;
            // IEEE negation is exact and `x + (-y) == x - y`, so the
            // scalar `add(neg(b))` chain is plain subtraction here.
            let sg = f64_zip(&asg, &bsg, |x, y| x - y)?;
            let dl = f64_zip(&al, &bu, |x, y| x - y)?;
            let du = f64_zip(&au, &bl, |x, y| x - y)?;
            let lb = dl.iter().zip(&sg).map(|(&d, &s)| fmin(d, s)).collect();
            let ub = du.iter().zip(&sg).map(|(&d, &s)| fmax(d, s)).collect();
            Some(ValueLane::Float { lb, sg, ub })
        }
    }
}

/// `range_mul` kernel: four corner products, min/max envelope, widened
/// by the sg product.
pub(crate) fn k_mul(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    match (a, b) {
        (
            LaneSlice::Int { lb: al, sg: asg, ub: au },
            LaneSlice::Int { lb: bl, sg: bsg, ub: bu },
        ) => {
            let c0 = checked_zip(al, bl, i64::checked_mul)?;
            let c1 = checked_zip(al, bu, i64::checked_mul)?;
            let c2 = checked_zip(au, bl, i64::checked_mul)?;
            let c3 = checked_zip(au, bu, i64::checked_mul)?;
            let sg: Vec<i64> = checked_zip(asg, bsg, i64::checked_mul)?;
            let n = sg.len();
            let mut lb = Vec::with_capacity(n);
            let mut ub = Vec::with_capacity(n);
            for i in 0..n {
                let lo = c0[i].min(c1[i]).min(c2[i].min(c3[i]));
                let hi = c0[i].max(c1[i]).max(c2[i].max(c3[i]));
                lb.push(lo.min(sg[i]));
                ub.push(hi.max(sg[i]));
            }
            Some(ValueLane::Int { lb, sg, ub })
        }
        _ => {
            let [al, asg, au] = numeric_f64(a)?;
            let [bl, bsg, bu] = numeric_f64(b)?;
            let c0 = f64_zip(&al, &bl, |x, y| x * y)?;
            let c1 = f64_zip(&al, &bu, |x, y| x * y)?;
            let c2 = f64_zip(&au, &bl, |x, y| x * y)?;
            let c3 = f64_zip(&au, &bu, |x, y| x * y)?;
            let sg = f64_zip(&asg, &bsg, |x, y| x * y)?;
            let n = sg.len();
            let mut lb = Vec::with_capacity(n);
            let mut ub = Vec::with_capacity(n);
            for i in 0..n {
                let lo = fmin(fmin(c0[i], c1[i]), fmin(c2[i], c3[i]));
                let hi = fmax(fmax(c0[i], c1[i]), fmax(c2[i], c3[i]));
                lb.push(fmin(lo, sg[i]));
                ub.push(fmax(hi, sg[i]));
            }
            Some(ValueLane::Float { lb, sg, ub })
        }
    }
}

/// `range_neg` kernel: `sg = −a.sg`, bounds `−a.ub` / `−a.lb` widened
/// by `sg`.
pub(crate) fn k_neg(a: &LaneSlice<'_>) -> Option<ValueLane> {
    match a {
        LaneSlice::Int { lb: al, sg: asg, ub: au } => {
            let mut sg = Vec::with_capacity(asg.len());
            let mut lb = Vec::with_capacity(asg.len());
            let mut ub = Vec::with_capacity(asg.len());
            for i in 0..asg.len() {
                let s = asg[i].checked_neg()?;
                lb.push(au[i].checked_neg()?.min(s));
                ub.push(al[i].checked_neg()?.max(s));
                sg.push(s);
            }
            Some(ValueLane::Int { lb, sg, ub })
        }
        LaneSlice::Float { lb: al, sg: asg, ub: au } => {
            let sg: Vec<f64> = asg.iter().map(|&v| canon(-v)).collect();
            let lb = au.iter().zip(&sg).map(|(&v, &s)| fmin(canon(-v), s)).collect();
            let ub = al.iter().zip(&sg).map(|(&v, &s)| fmax(canon(-v), s)).collect();
            Some(ValueLane::Float { lb, sg, ub })
        }
        _ => None,
    }
}

/// `range_leq` kernel: `(a.ub ≤ b.lb, a.sg ≤ b.sg, a.lb ≤ b.ub)`.
pub(crate) fn k_leq(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    cmp_kernel(a, b, |x, y| x <= y, |x, y| x <= y)
}

/// `range_lt` kernel: strict variants of the same components.
pub(crate) fn k_lt(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    cmp_kernel(a, b, |x, y| x < y, |x, y| x < y)
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

/// An `Int` view of [`str_codes`]' components.
fn int_slice([lb, sg, ub]: &[Vec<i64>; 3]) -> LaneSlice<'_> {
    LaneSlice::Int { lb, sg, ub }
}

fn cmp_kernel(
    a: &LaneSlice<'_>,
    b: &LaneSlice<'_>,
    fi: impl Fn(i64, i64) -> bool + Copy,
    ff: impl Fn(f64, f64) -> bool + Copy,
) -> Option<ValueLane> {
    if let Some([x, y]) = str_codes(a, b) {
        return cmp_kernel(&int_slice(&x), &int_slice(&y), fi, ff);
    }
    match (a, b) {
        (
            LaneSlice::Int { lb: al, sg: asg, ub: au },
            LaneSlice::Int { lb: bl, sg: bsg, ub: bu },
        ) => Some(ValueLane::Bool {
            lb: au.iter().zip(bl.iter()).map(|(&x, &y)| fi(x, y)).collect(),
            sg: asg.iter().zip(bsg.iter()).map(|(&x, &y)| fi(x, y)).collect(),
            ub: al.iter().zip(bu.iter()).map(|(&x, &y)| fi(x, y)).collect(),
        }),
        _ => {
            // Mixed Int/Float compares reduce to the casts: `leq` is
            // `a <= b || value_eq`, and both the total order's numeric
            // tie rule and `value_eq` are f64-cast based, so
            // `leq ⇔ af <= bf` and `lt ⇔ af < bf` whenever a float is
            // involved.
            let [al, asg, au] = numeric_f64(a)?;
            let [bl, bsg, bu] = numeric_f64(b)?;
            Some(ValueLane::Bool {
                lb: au.iter().zip(bl.iter()).map(|(&x, &y)| ff(x, y)).collect(),
                sg: asg.iter().zip(bsg.iter()).map(|(&x, &y)| ff(x, y)).collect(),
                ub: al.iter().zip(bu.iter()).map(|(&x, &y)| ff(x, y)).collect(),
            })
        }
    }
}

/// `range_eq` kernel: certainly-equal iff both endpoints pin the same
/// value, possibly-equal iff the ranges overlap (`value_eq`-aware,
/// which for numeric lanes is exactly the cast equality).
pub(crate) fn k_eq(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    if let Some([x, y]) = str_codes(a, b) {
        return k_eq(&int_slice(&x), &int_slice(&y));
    }
    match (a, b) {
        (
            LaneSlice::Int { lb: al, sg: asg, ub: au },
            LaneSlice::Int { lb: bl, sg: bsg, ub: bu },
        ) => {
            let n = al.len();
            let mut lb = Vec::with_capacity(n);
            let mut sg = Vec::with_capacity(n);
            let mut ub = Vec::with_capacity(n);
            for i in 0..n {
                lb.push(au[i] == bl[i] && bu[i] == al[i]);
                sg.push(asg[i] == bsg[i]);
                ub.push(al[i] <= bu[i] && bl[i] <= au[i]);
            }
            Some(ValueLane::Bool { lb, sg, ub })
        }
        _ => {
            let [al, asg, au] = numeric_f64(a)?;
            let [bl, bsg, bu] = numeric_f64(b)?;
            let n = al.len();
            let mut lb = Vec::with_capacity(n);
            let mut sg = Vec::with_capacity(n);
            let mut ub = Vec::with_capacity(n);
            for i in 0..n {
                lb.push(au[i] == bl[i] && bu[i] == al[i]);
                sg.push(asg[i] == bsg[i]);
                ub.push(al[i] <= bu[i] && bl[i] <= au[i]);
            }
            Some(ValueLane::Bool { lb, sg, ub })
        }
    }
}

/// `range_and` kernel over two boolean lanes (componentwise `&&`).
pub(crate) fn k_and(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    match (a, b) {
        (
            LaneSlice::Bool { lb: al, sg: asg, ub: au },
            LaneSlice::Bool { lb: bl, sg: bsg, ub: bu },
        ) => Some(ValueLane::Bool {
            lb: al.iter().zip(bl.iter()).map(|(&x, &y)| x && y).collect(),
            sg: asg.iter().zip(bsg.iter()).map(|(&x, &y)| x && y).collect(),
            ub: au.iter().zip(bu.iter()).map(|(&x, &y)| x && y).collect(),
        }),
        _ => None,
    }
}

/// `range_or` kernel (componentwise `||`).
pub(crate) fn k_or(a: &LaneSlice<'_>, b: &LaneSlice<'_>) -> Option<ValueLane> {
    match (a, b) {
        (
            LaneSlice::Bool { lb: al, sg: asg, ub: au },
            LaneSlice::Bool { lb: bl, sg: bsg, ub: bu },
        ) => Some(ValueLane::Bool {
            lb: al.iter().zip(bl.iter()).map(|(&x, &y)| x || y).collect(),
            sg: asg.iter().zip(bsg.iter()).map(|(&x, &y)| x || y).collect(),
            ub: au.iter().zip(bu.iter()).map(|(&x, &y)| x || y).collect(),
        }),
        _ => None,
    }
}

/// `range_not` kernel: negate and swap the bounds (`¬` is
/// antimonotone).
pub(crate) fn k_not(a: &LaneSlice<'_>) -> Option<ValueLane> {
    match a {
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
            let (sa, sb) = (a.as_slice(), b.as_slice());
            for i in 0..a.len() {
                let (ca, cb) = (a.get(i), b.get(i));
                if let Some(out) = k_add(&sa, &sb) {
                    assert_eq!(out.get(i), range_add(&ca, &cb).unwrap(), "add {ca} {cb}");
                }
                if let Some(out) = k_sub(&sa, &sb) {
                    assert_eq!(out.get(i), range_sub(&ca, &cb).unwrap(), "sub {ca} {cb}");
                }
                if let Some(out) = k_mul(&sa, &sb) {
                    assert_eq!(out.get(i), range_mul(&ca, &cb).unwrap(), "mul {ca} {cb}");
                }
                if let Some(out) = k_neg(&sa) {
                    assert_eq!(out.get(i), range_neg(&ca).unwrap(), "neg {ca}");
                }
                let out = k_leq(&sa, &sb).unwrap();
                assert_eq!(out.get(i), range_leq(&ca, &cb), "leq {ca} {cb}");
                let out = k_lt(&sa, &sb).unwrap();
                assert_eq!(out.get(i), range_lt(&ca, &cb), "lt {ca} {cb}");
                let out = k_eq(&sa, &sb).unwrap();
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
        assert!(k_add(&a.as_slice(), &b.as_slice()).is_none());
        let m = lane_of(&[RangeValue::certain(Value::Int(i64::MIN))]);
        assert!(k_neg(&m.as_slice()).is_none());
        // i64::MIN as a *subtrahend* fails neg even when a - b fits
        let a2 = lane_of(&[RangeValue::certain(Value::Int(-1))]);
        assert!(k_sub(&a2.as_slice(), &m.as_slice()).is_none());
    }

    /// `-0.0` never escapes a float kernel (mirrors `F64::try_new`).
    #[test]
    fn float_kernels_canonicalize_negative_zero() {
        let a = lane_of(&[RangeValue::range(-1.0f64, 0.0f64, 1.0f64)]);
        let z = lane_of(&[RangeValue::certain(Value::float(0.0))]);
        let out = k_mul(&a.as_slice(), &z.as_slice()).unwrap();
        assert_eq!(out.get(0), RangeValue::certain(Value::float(0.0)));
        let out = k_neg(&z.as_slice()).unwrap();
        assert_eq!(out.get(0), RangeValue::certain(Value::float(0.0)));
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
        let s = lane.as_slice();
        for i in 0..cells.len() {
            for j in 0..cells.len() {
                // pair lane: cell i on the left, cell j on the right
                let right = lane_of(&vec![cells[j].clone(); 4]);
                let sr = right.as_slice();
                let and = k_and(&s, &sr).unwrap();
                assert_eq!(and.get(i), range_and(&cells[i], &cells[j]).unwrap());
                let or = k_or(&s, &sr).unwrap();
                assert_eq!(or.get(i), range_or(&cells[i], &cells[j]).unwrap());
            }
            let not = k_not(&s).unwrap();
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

    /// `cells_eq` / `cells_cmp` / `hash_cell` are the materialized
    /// cells' derived `Eq` / `Ord` / a hash consistent with them, on
    /// every lane tag: ties on `lb`, float ties by bits, boxed mixes.
    #[test]
    fn cell_equality_order_and_hash_are_the_range_values() {
        use std::hash::DefaultHasher;
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
        let hash_of = |f: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            f(&mut h);
            h.finish()
        };
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
                    if ca == cb {
                        let (ha, hb) =
                            (hash_of(&|h| s.hash_cell(a, h)), hash_of(&|h| s.hash_cell(b, h)));
                        assert_eq!(ha, hb, "hash of {ca}");
                    }
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
