//! Scalar expressions (paper Section 5): syntax (Definition 3),
//! deterministic semantics (Definition 4), incomplete semantics over sets
//! of valuations (Definition 5), and range-annotated semantics
//! (Definition 9) which is proven bound-preserving (Theorem 1).
//!
//! Variables are column references (`Expr::Col`) resolved positionally
//! against a tuple, which plays the role of the valuation `φ`.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::EvalError;
use crate::range::RangeValue;
use crate::value::Value;

/// Expression AST (Definition 3 plus the derived operators `≠ ≥ < > -`
/// the paper notes are expressible).
///
/// The same expression evaluates deterministically against plain tuples
/// and — bound-preservingly (Theorem 1) — against range-annotated ones:
///
/// ```
/// use audb_core::{col, lit, RangeValue, Value};
///
/// let e = col(0).add(lit(10i64));
/// assert_eq!(e.eval(&[Value::Int(5)]).unwrap(), Value::Int(15));
/// assert_eq!(
///     e.eval_range(&[RangeValue::range(1i64, 5i64, 9i64)]).unwrap(),
///     RangeValue::range(11i64, 15i64, 19i64),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable: reference to the i-th attribute of the input tuple.
    Col(usize),
    Const(Value),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Eq(Box<Expr>, Box<Expr>),
    Neq(Box<Expr>, Box<Expr>),
    Leq(Box<Expr>, Box<Expr>),
    Lt(Box<Expr>, Box<Expr>),
    Geq(Box<Expr>, Box<Expr>),
    Gt(Box<Expr>, Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// The `MakeUncertain(e↓, e^sg, e↑)` lens construct (Section 11.4,
    /// Example 16): introduces attribute-level uncertainty from within a
    /// query. Deterministic evaluation sees only the selected guess;
    /// range-annotated evaluation produces `[e↓ / e^sg / e↑]` (widened
    /// so the triple stays ordered).
    Uncertain(Box<Expr>, Box<Expr>, Box<Expr>),
}

// ---- constructor helpers (builder style) --------------------------------

pub fn col(i: usize) -> Expr {
    Expr::Col(i)
}
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Const(v.into())
}

// Builder methods deliberately mirror the operator names of the paper's
// expression syntax rather than implementing `std::ops` (they build AST
// nodes, not values).
#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Eq(Box::new(self), Box::new(other))
    }
    pub fn neq(self, other: Expr) -> Expr {
        Expr::Neq(Box::new(self), Box::new(other))
    }
    pub fn leq(self, other: Expr) -> Expr {
        Expr::Leq(Box::new(self), Box::new(other))
    }
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Lt(Box::new(self), Box::new(other))
    }
    pub fn geq(self, other: Expr) -> Expr {
        Expr::Geq(Box::new(self), Box::new(other))
    }
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Gt(Box::new(self), Box::new(other))
    }
    pub fn add(self, other: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(other))
    }
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(other))
    }
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }
    pub fn div(self, other: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(other))
    }
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
    pub fn if_then_else(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(els))
    }
    /// `MakeUncertain(lb, sg, ub)` (Example 16).
    pub fn make_uncertain(lb: Expr, sg: Expr, ub: Expr) -> Expr {
        Expr::Uncertain(Box::new(lb), Box::new(sg), Box::new(ub))
    }

    /// Conjunction of a list of expressions (`true` when empty).
    pub fn conj(exprs: Vec<Expr>) -> Expr {
        let mut it = exprs.into_iter();
        match it.next() {
            None => lit(true),
            Some(first) => it.fold(first, |acc, e| acc.and(e)),
        }
    }

    // ---- structural traversal (spans for the compiled backend) ----------

    /// The node's children in syntactic order (up to three).
    pub(crate) fn children(&self) -> [Option<&Expr>; 3] {
        match self {
            Expr::Col(_) | Expr::Const(_) => [None, None, None],
            Expr::Not(a) | Expr::Neg(a) => [Some(a), None, None],
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Neq(a, b)
            | Expr::Leq(a, b)
            | Expr::Lt(a, b)
            | Expr::Geq(a, b)
            | Expr::Gt(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b) => [Some(a), Some(b), None],
            Expr::If(c, t, e) | Expr::Uncertain(c, t, e) => [Some(c), Some(t), Some(e)],
        }
    }

    /// Number of AST nodes in this subtree (the node itself included).
    /// Preorder node ids are assigned against this count: a node's first
    /// child is `id + 1`, each later child starts past its predecessor's
    /// subtree. The compiled backend stamps every emitted op with the id
    /// of its emitting node ([`crate::Program`]'s spans).
    pub fn node_count(&self) -> u32 {
        1 + self.children().iter().flatten().map(|c| c.node_count()).sum::<u32>()
    }

    /// The node at preorder index `idx` within this subtree (`0` is the
    /// root), or `None` past the end — one walk that stops at the node,
    /// `O(idx)`.
    pub fn preorder_node(&self, idx: usize) -> Option<&Expr> {
        fn find<'e>(e: &'e Expr, rest: &mut usize) -> Option<&'e Expr> {
            if *rest == 0 {
                return Some(e);
            }
            *rest -= 1;
            e.children().into_iter().flatten().find_map(|c| find(c, rest))
        }
        find(self, &mut { idx })
    }

    /// `vars(e)`: the set of referenced columns.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            Expr::Col(i) => {
                out.insert(*i);
            }
            Expr::Const(_) => {}
            Expr::Not(a) | Expr::Neg(a) => a.collect_columns(out),
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Neq(a, b)
            | Expr::Leq(a, b)
            | Expr::Lt(a, b)
            | Expr::Geq(a, b)
            | Expr::Gt(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::If(c, t, e) | Expr::Uncertain(c, t, e) => {
                c.collect_columns(out);
                t.collect_columns(out);
                e.collect_columns(out);
            }
        }
    }

    /// Rewrite column references through a mapping (used by the rewrite
    /// middleware and by plan composition).
    pub fn remap_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Not(a) => Expr::Not(Box::new(a.remap_columns(f))),
            Expr::Neg(a) => Expr::Neg(Box::new(a.remap_columns(f))),
            Expr::And(a, b) => {
                Expr::And(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Or(a, b) => Expr::Or(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f))),
            Expr::Eq(a, b) => Expr::Eq(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f))),
            Expr::Neq(a, b) => {
                Expr::Neq(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Leq(a, b) => {
                Expr::Leq(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Lt(a, b) => Expr::Lt(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f))),
            Expr::Geq(a, b) => {
                Expr::Geq(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Gt(a, b) => Expr::Gt(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f))),
            Expr::Add(a, b) => {
                Expr::Add(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Sub(a, b) => {
                Expr::Sub(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Mul(a, b) => {
                Expr::Mul(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::Div(a, b) => {
                Expr::Div(Box::new(a.remap_columns(f)), Box::new(b.remap_columns(f)))
            }
            Expr::If(c, t, e) => Expr::If(
                Box::new(c.remap_columns(f)),
                Box::new(t.remap_columns(f)),
                Box::new(e.remap_columns(f)),
            ),
            Expr::Uncertain(l, s, u) => Expr::Uncertain(
                Box::new(l.remap_columns(f)),
                Box::new(s.remap_columns(f)),
                Box::new(u.remap_columns(f)),
            ),
        }
    }

    /// Extract the column pairs of a conjunctive equi-join predicate
    /// `⋀ Col(l_i) = Col(r_i)` where `l_i < split ≤ r_i`.
    /// Returns `None` if the predicate has any other shape.
    pub fn equi_join_columns(&self, split: usize) -> Option<Vec<(usize, usize)>> {
        let mut pairs = Vec::new();
        if self.collect_equi_pairs(split, &mut pairs) {
            Some(pairs)
        } else {
            None
        }
    }

    fn collect_equi_pairs(&self, split: usize, out: &mut Vec<(usize, usize)>) -> bool {
        match self {
            Expr::And(a, b) => a.collect_equi_pairs(split, out) && b.collect_equi_pairs(split, out),
            Expr::Eq(a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(l), Expr::Col(r)) if *l < split && *r >= split => {
                    out.push((*l, *r - split));
                    true
                }
                (Expr::Col(r), Expr::Col(l)) if *l < split && *r >= split => {
                    out.push((*l, *r - split));
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    // ---- deterministic semantics (Definition 4) -------------------------

    /// Evaluate against a deterministic tuple (valuation).
    pub fn eval(&self, tuple: &[Value]) -> Result<Value, EvalError> {
        match self {
            Expr::Col(i) => tuple.get(*i).cloned().ok_or(EvalError::UnknownColumn(*i)),
            Expr::Const(v) => Ok(v.clone()),
            Expr::And(a, b) => {
                Ok(Value::Bool(a.eval(tuple)?.as_bool()? && b.eval(tuple)?.as_bool()?))
            }
            Expr::Or(a, b) => {
                Ok(Value::Bool(a.eval(tuple)?.as_bool()? || b.eval(tuple)?.as_bool()?))
            }
            Expr::Not(a) => Ok(Value::Bool(!a.eval(tuple)?.as_bool()?)),
            Expr::Eq(a, b) => Ok(Value::Bool(a.eval(tuple)?.value_eq(&b.eval(tuple)?))),
            Expr::Neq(a, b) => Ok(Value::Bool(!a.eval(tuple)?.value_eq(&b.eval(tuple)?))),
            Expr::Leq(a, b) => {
                let (x, y) = (a.eval(tuple)?, b.eval(tuple)?);
                Ok(Value::Bool(x <= y || x.value_eq(&y)))
            }
            Expr::Lt(a, b) => {
                // `<` must agree with value_eq (Int 2 < Float 2.0 is false)
                let (x, y) = (a.eval(tuple)?, b.eval(tuple)?);
                Ok(Value::Bool(x < y && !x.value_eq(&y)))
            }
            Expr::Geq(a, b) => {
                let (x, y) = (a.eval(tuple)?, b.eval(tuple)?);
                Ok(Value::Bool(x >= y || x.value_eq(&y)))
            }
            Expr::Gt(a, b) => {
                let (x, y) = (a.eval(tuple)?, b.eval(tuple)?);
                Ok(Value::Bool(x > y && !x.value_eq(&y)))
            }
            Expr::Add(a, b) => a.eval(tuple)?.add(&b.eval(tuple)?),
            Expr::Sub(a, b) => a.eval(tuple)?.sub(&b.eval(tuple)?),
            Expr::Mul(a, b) => a.eval(tuple)?.mul(&b.eval(tuple)?),
            Expr::Div(a, b) => a.eval(tuple)?.div(&b.eval(tuple)?),
            Expr::Neg(a) => a.eval(tuple)?.neg(),
            Expr::If(c, t, e) => {
                if c.eval(tuple)?.as_bool()? {
                    t.eval(tuple)
                } else {
                    e.eval(tuple)
                }
            }
            // deterministic engines see only the selected guess
            Expr::Uncertain(_, sg, _) => sg.eval(tuple),
        }
    }

    /// Boolean shortcut for predicates.
    pub fn eval_bool(&self, tuple: &[Value]) -> Result<bool, EvalError> {
        self.eval(tuple)?.as_bool()
    }

    // ---- incomplete semantics (Definition 5) -----------------------------

    /// Evaluate over an *incomplete valuation* — a set of possible tuples —
    /// yielding the set of possible results.
    pub fn eval_incomplete(&self, worlds: &[Vec<Value>]) -> Result<BTreeSet<Value>, EvalError> {
        worlds.iter().map(|w| self.eval(w)).collect()
    }

    // ---- range-annotated semantics (Definition 9) ------------------------

    /// Evaluate against a range-annotated tuple. Bound-preserving
    /// (Theorem 1): if the input tuple bounds an incomplete valuation,
    /// the result bounds all possible outcomes.
    ///
    /// This tree-walking interpreter is the semantic *oracle*: the
    /// compiled register backend ([`crate::program::Program`]) lowers
    /// the same per-node combinators (`range_*` below) into a flat op
    /// array, and the differential test-suite pins the two byte-equal.
    pub fn eval_range(&self, tuple: &[RangeValue]) -> Result<RangeValue, EvalError> {
        match self {
            Expr::Col(i) => tuple.get(*i).cloned().ok_or(EvalError::UnknownColumn(*i)),
            Expr::Const(v) => Ok(RangeValue::certain(v.clone())),
            Expr::And(a, b) => range_and(&a.eval_range(tuple)?, &b.eval_range(tuple)?),
            Expr::Or(a, b) => range_or(&a.eval_range(tuple)?, &b.eval_range(tuple)?),
            Expr::Not(a) => range_not(&a.eval_range(tuple)?),
            Expr::Eq(a, b) => Ok(range_eq(&a.eval_range(tuple)?, &b.eval_range(tuple)?)),
            Expr::Neq(a, b) => range_not(&range_eq(&a.eval_range(tuple)?, &b.eval_range(tuple)?)),
            Expr::Leq(a, b) => Ok(range_leq(&a.eval_range(tuple)?, &b.eval_range(tuple)?)),
            Expr::Lt(a, b) => Ok(range_lt(&a.eval_range(tuple)?, &b.eval_range(tuple)?)),
            // Derived comparisons evaluate the *syntactic right* operand
            // first (they are sugar for the swapped operator) — the
            // compiled lowering mirrors this operand order exactly so
            // error classification cannot diverge.
            Expr::Geq(a, b) => Ok(range_leq(&b.eval_range(tuple)?, &a.eval_range(tuple)?)),
            Expr::Gt(a, b) => Ok(range_lt(&b.eval_range(tuple)?, &a.eval_range(tuple)?)),
            Expr::Add(a, b) => range_add(&a.eval_range(tuple)?, &b.eval_range(tuple)?),
            Expr::Sub(a, b) => range_sub(&a.eval_range(tuple)?, &b.eval_range(tuple)?),
            Expr::Mul(a, b) => range_mul(&a.eval_range(tuple)?, &b.eval_range(tuple)?),
            Expr::Div(a, b) => range_div(&a.eval_range(tuple)?, &b.eval_range(tuple)?),
            Expr::Neg(a) => range_neg(&a.eval_range(tuple)?),
            Expr::If(c, t, e) => {
                let cond = c.eval_range(tuple)?;
                cond.as_bool3()?; // non-boolean conditions error before the branches run
                let tv = t.eval_range(tuple)?;
                let ev = e.eval_range(tuple)?;
                range_if_merge(&cond, tv, ev)
            }
            Expr::Uncertain(l, s, u) => {
                let lv = l.eval_range(tuple)?;
                let sv = s.eval_range(tuple)?;
                let uv = u.eval_range(tuple)?;
                range_uncertain(&lv, &sv, &uv)
            }
        }
    }

    /// Range-annotated predicate evaluation: boolean triple.
    pub fn eval_range_bool3(&self, tuple: &[RangeValue]) -> Result<(bool, bool, bool), EvalError> {
        self.eval_range(tuple)?.as_bool3()
    }
}

// ---- shared per-node combinators (Definition 9) --------------------------
//
// One function per operator over *already evaluated* operand ranges,
// shared verbatim between the tree interpreter above and the compiled
// register backend in `crate::program` — the two execution paths cannot
// drift because they run the same combinator code.

pub(crate) fn bool_range(lb: bool, sg: bool, ub: bool) -> RangeValue {
    // The boolean order is false < true; a comparison's components always
    // satisfy lb => sg => ub by construction.
    RangeValue::new_unchecked(Value::Bool(lb), Value::Bool(sg), Value::Bool(ub))
}

pub(crate) fn leq(a: &Value, b: &Value) -> bool {
    a <= b || a.value_eq(b)
}
pub(crate) fn lt(a: &Value, b: &Value) -> bool {
    a < b && !a.value_eq(b)
}

pub(crate) fn range_and(x: &RangeValue, y: &RangeValue) -> Result<RangeValue, EvalError> {
    let (xl, xs, xu) = x.as_bool3()?;
    let (yl, ys, yu) = y.as_bool3()?;
    Ok(bool_range(xl && yl, xs && ys, xu && yu))
}

pub(crate) fn range_or(x: &RangeValue, y: &RangeValue) -> Result<RangeValue, EvalError> {
    let (xl, xs, xu) = x.as_bool3()?;
    let (yl, ys, yu) = y.as_bool3()?;
    Ok(bool_range(xl || yl, xs || ys, xu || yu))
}

pub(crate) fn range_not(x: &RangeValue) -> Result<RangeValue, EvalError> {
    let (xl, xs, xu) = x.as_bool3()?;
    Ok(bool_range(!xu, !xs, !xl))
}

pub(crate) fn range_eq(x: &RangeValue, y: &RangeValue) -> RangeValue {
    // certainly equal iff both are certain and equal
    let lb = x.ub.value_eq(&y.lb) && y.ub.value_eq(&x.lb);
    // possibly equal iff the ranges overlap; `value_eq`-aware so
    // `Int 2` vs `Float 2.0` endpoints count as touching (keeps the
    // triple ordered with the value_eq-based lb)
    let ub = leq(&x.lb, &y.ub) && leq(&y.lb, &x.ub);
    bool_range(lb, x.sg.value_eq(&y.sg), ub)
}

pub(crate) fn range_leq(x: &RangeValue, y: &RangeValue) -> RangeValue {
    bool_range(leq(&x.ub, &y.lb), leq(&x.sg, &y.sg), leq(&x.lb, &y.ub))
}

pub(crate) fn range_lt(x: &RangeValue, y: &RangeValue) -> RangeValue {
    bool_range(lt(&x.ub, &y.lb), lt(&x.sg, &y.sg), lt(&x.lb, &y.ub))
}

pub(crate) fn range_add(x: &RangeValue, y: &RangeValue) -> Result<RangeValue, EvalError> {
    RangeValue::new(x.lb.add(&y.lb)?, x.sg.add(&y.sg)?, x.ub.add(&y.ub)?)
}

// The corner bounds of Sub/Mul/Div/Neg are numerically correct but live
// in a total order where `Int(k) < Float(k.0)`: on a numeric tie the sg
// result's *representation* can escape them (e.g. `[1/1/2] −
// [Int 0/Int 0/Float 0.0]` has corner lb `Float(1.0)` above sg
// `Int(1)`). Widening by sg keeps the triple ordered and is sound — the
// sg world is a possible world, so the true bounds contain it.

pub(crate) fn range_sub(x: &RangeValue, y: &RangeValue) -> Result<RangeValue, EvalError> {
    let sg = x.sg.sub(&y.sg)?;
    Ok(RangeValue::new_unchecked(
        Value::min_of(x.lb.sub(&y.ub)?, sg.clone()),
        sg.clone(),
        Value::max_of(x.ub.sub(&y.lb)?, sg),
    ))
}

pub(crate) fn range_mul(x: &RangeValue, y: &RangeValue) -> Result<RangeValue, EvalError> {
    let combos = [x.lb.mul(&y.lb)?, x.lb.mul(&y.ub)?, x.ub.mul(&y.lb)?, x.ub.mul(&y.ub)?];
    let [c0, c1, c2, c3] = combos;
    let lo =
        Value::min_of(Value::min_of(c0.clone(), c1.clone()), Value::min_of(c2.clone(), c3.clone()));
    let hi = Value::max_of(Value::max_of(c0, c1), Value::max_of(c2, c3));
    let sg = x.sg.mul(&y.sg)?;
    Ok(RangeValue::new_unchecked(Value::min_of(lo, sg.clone()), sg.clone(), Value::max_of(hi, sg)))
}

pub(crate) fn range_div(x: &RangeValue, y: &RangeValue) -> Result<RangeValue, EvalError> {
    // Undefined when the denominator may be 0 (Definition 9).
    // Zero has exactly two representations in the domain's total order,
    // `Int(0)` and `Float(0.0)`, and they are *adjacent* (numeric ties
    // order `Int` before `Float`), so a denominator interval may contain
    // one without the other — e.g. `[Float(0.0), Int(5)]` excludes
    // `Int(0)` and `[Int(-1), Int(0)]` excludes `Float(0.0)`. Testing
    // both representations is therefore exactly the "interval contains a
    // zero-valued element" condition, for pure-`Int`, pure-`Float`, and
    // mixed endpoints alike (pinned down in `div_spans_zero_guard_*`
    // tests).
    if y.bounds(&Value::Int(0)) || y.bounds(&Value::float(0.0)) {
        return Err(EvalError::RangeDivisionSpansZero);
    }
    let combos = [x.lb.div(&y.lb)?, x.lb.div(&y.ub)?, x.ub.div(&y.lb)?, x.ub.div(&y.ub)?];
    let [c0, c1, c2, c3] = combos;
    let lo =
        Value::min_of(Value::min_of(c0.clone(), c1.clone()), Value::min_of(c2.clone(), c3.clone()));
    let hi = Value::max_of(Value::max_of(c0, c1), Value::max_of(c2, c3));
    let sg = x.sg.div(&y.sg)?;
    Ok(RangeValue::new_unchecked(Value::min_of(lo, sg.clone()), sg.clone(), Value::max_of(hi, sg)))
}

pub(crate) fn range_neg(x: &RangeValue) -> Result<RangeValue, EvalError> {
    let sg = x.sg.neg()?;
    Ok(RangeValue::new_unchecked(
        Value::min_of(x.ub.neg()?, sg.clone()),
        sg.clone(),
        Value::max_of(x.lb.neg()?, sg),
    ))
}

/// Merge the two branch results of `If` under an (already
/// boolean-checked) condition triple.
pub(crate) fn range_if_merge(
    cond: &RangeValue,
    tv: RangeValue,
    ev: RangeValue,
) -> Result<RangeValue, EvalError> {
    let (cl, cs, cu) = cond.as_bool3()?;
    if cl && cu {
        Ok(tv)
    } else if !cl && !cu {
        Ok(ev)
    } else {
        let sg = if cs { tv.sg.clone() } else { ev.sg.clone() };
        RangeValue::new(Value::min_of(tv.lb, ev.lb), sg, Value::max_of(tv.ub, ev.ub))
    }
}

/// `MakeUncertain`: widen so the triple stays ordered even if the three
/// sub-expressions disagree.
pub(crate) fn range_uncertain(
    lv: &RangeValue,
    sv: &RangeValue,
    uv: &RangeValue,
) -> Result<RangeValue, EvalError> {
    RangeValue::new(
        Value::min_of(lv.lb.clone(), sv.sg.clone()),
        sv.sg.clone(),
        Value::max_of(uv.ub.clone(), sv.sg.clone()),
    )
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::And(a, b) => write!(f, "({a} ∧ {b})"),
            Expr::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Expr::Not(a) => write!(f, "¬{a}"),
            Expr::Eq(a, b) => write!(f, "({a} = {b})"),
            Expr::Neq(a, b) => write!(f, "({a} ≠ {b})"),
            Expr::Leq(a, b) => write!(f, "({a} ≤ {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
            Expr::Geq(a, b) => write!(f, "({a} ≥ {b})"),
            Expr::Gt(a, b) => write!(f, "({a} > {b})"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} · {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Neg(a) => write!(f, "-{a}"),
            Expr::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Expr::Uncertain(l, s, u) => write!(f, "uncertain({l}, {s}, {u})"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn deterministic_eval_example_4() {
        // e := x + y over {(1,4), (2,4), (1,5)} yields {5, 6}
        let e = col(0).add(col(1));
        let worlds = vec![ints(&[1, 4]), ints(&[2, 4]), ints(&[1, 5])];
        let out = e.eval_incomplete(&worlds).unwrap();
        let expect: BTreeSet<Value> = [Value::Int(5), Value::Int(6)].into();
        assert_eq!(out, expect);
    }

    #[test]
    fn range_addition() {
        let e = col(0).add(col(1));
        let t = vec![RangeValue::range(1i64, 2i64, 3i64), RangeValue::range(10i64, 10i64, 20i64)];
        assert_eq!(e.eval_range(&t).unwrap(), RangeValue::range(11i64, 12i64, 23i64));
    }

    #[test]
    fn range_subtraction_crosses_bounds() {
        let e = col(0).sub(col(1));
        let t = vec![RangeValue::range(1i64, 2i64, 3i64), RangeValue::range(1i64, 1i64, 5i64)];
        assert_eq!(e.eval_range(&t).unwrap(), RangeValue::range(-4i64, 1i64, 2i64));
    }

    #[test]
    fn range_multiplication_negative() {
        let e = col(0).mul(col(1));
        let t = vec![RangeValue::range(-2i64, 1i64, 3i64), RangeValue::range(-5i64, -5i64, 4i64)];
        // combos: 10, -8, -15, 12 → [-15, 12]
        assert_eq!(e.eval_range(&t).unwrap(), RangeValue::range(-15i64, -5i64, 12i64));
    }

    #[test]
    fn range_comparison() {
        let e = col(0).leq(col(1));
        // certainly true
        let t = vec![RangeValue::range(1i64, 2i64, 3i64), RangeValue::range(3i64, 4i64, 5i64)];
        assert_eq!(e.eval_range(&t).unwrap().as_bool3().unwrap(), (true, true, true));
        // uncertain
        let t = vec![RangeValue::range(1i64, 2i64, 6i64), RangeValue::range(3i64, 4i64, 5i64)];
        assert_eq!(e.eval_range(&t).unwrap().as_bool3().unwrap(), (false, true, true));
        // certainly false
        let t = vec![RangeValue::range(7i64, 8i64, 9i64), RangeValue::range(3i64, 4i64, 5i64)];
        assert_eq!(e.eval_range(&t).unwrap().as_bool3().unwrap(), (false, false, false));
    }

    #[test]
    fn range_equality_example_9() {
        // [1/2/3] = [2/2/2]  evaluates to [F/T/T]
        let e = col(0).eq(lit(2i64));
        let t = vec![RangeValue::range(1i64, 2i64, 3i64)];
        assert_eq!(e.eval_range(&t).unwrap().as_bool3().unwrap(), (false, true, true));
    }

    #[test]
    fn range_negation_flips() {
        let e = col(0).lt(lit(5i64)).not();
        let t = vec![RangeValue::range(1i64, 2i64, 9i64)];
        // x < 5 is [F/T/T]; negation is [F/F/T]
        assert_eq!(e.eval_range(&t).unwrap().as_bool3().unwrap(), (false, false, true));
    }

    #[test]
    fn range_if_then_else_merges() {
        let e = Expr::if_then_else(col(0).leq(lit(0i64)), lit(10i64), lit(20i64));
        let t = vec![RangeValue::range(-1i64, 0i64, 1i64)];
        assert_eq!(e.eval_range(&t).unwrap(), RangeValue::range(10i64, 10i64, 20i64));
        // certain condition picks one branch exactly
        let t = vec![RangeValue::certain(Value::Int(-3))];
        assert_eq!(e.eval_range(&t).unwrap(), RangeValue::certain(Value::Int(10)));
    }

    #[test]
    fn range_division_guard() {
        let e = lit(1i64).div(col(0));
        let spans_zero = vec![RangeValue::range(-1i64, 1i64, 2i64)];
        assert_eq!(e.eval_range(&spans_zero).unwrap_err(), EvalError::RangeDivisionSpansZero);
        let pos = vec![RangeValue::range(2i64, 4i64, 8i64)];
        assert_eq!(e.eval_range(&pos).unwrap(), RangeValue::range(0.125f64, 0.25f64, 0.5f64));
    }

    /// The spans-zero guard must treat `Int(0)` and `Float(0.0)` as the
    /// same forbidden denominator value even though they are *distinct,
    /// adjacent* elements of the total order — an interval can contain
    /// one without the other.
    #[test]
    fn div_spans_zero_guard_cross_type_boundaries() {
        let e = lit(1i64).div(col(0));
        let spans = |r: RangeValue| e.eval_range(&[r]).unwrap_err();
        // pure-Int zero: excludes Float(0.0), still guarded
        assert_eq!(spans(RangeValue::range(-1i64, 0i64, 0i64)), EvalError::RangeDivisionSpansZero);
        // pure-Float zero: excludes Int(0), still guarded
        assert_eq!(
            spans(RangeValue::range(0.0f64, 0.5f64, 1.0f64)),
            EvalError::RangeDivisionSpansZero
        );
        // mixed endpoints around zero: Float lb, Int ub
        assert_eq!(
            spans(RangeValue::new(Value::float(-0.5), Value::Int(1), Value::Int(2)).unwrap()),
            EvalError::RangeDivisionSpansZero
        );
        // [Float(0.0), Int(5)] contains no Int(0) (Int sorts before
        // Float on numeric ties) but does contain Float(0.0)
        assert_eq!(
            spans(RangeValue::new(Value::float(0.0), Value::Int(1), Value::Int(5)).unwrap()),
            EvalError::RangeDivisionSpansZero
        );
    }

    /// Denominator intervals strictly on one side of zero divide fine,
    /// including mixed `Int`/`Float` endpoints and negative ranges.
    #[test]
    fn div_nonzero_cross_type_ranges_divide() {
        let e = lit(1i64).div(col(0));
        // negative, mixed types: [-2, -0.5]
        let r = RangeValue::new(Value::Int(-2), Value::Int(-1), Value::float(-0.5)).unwrap();
        let out = e.eval_range(&[r]).unwrap();
        assert_eq!(out, RangeValue::range(-2.0f64, -1.0f64, -0.5f64));
        // positive, Float lb just above zero
        let r = RangeValue::new(Value::float(0.5), Value::Int(1), Value::Int(4)).unwrap();
        let out = e.eval_range(&[r]).unwrap();
        assert_eq!(out, RangeValue::range(0.25f64, 1.0f64, 2.0f64));
    }

    #[test]
    fn equi_join_detection() {
        let p = col(0).eq(col(3)).and(col(5).eq(col(1)));
        assert_eq!(p.equi_join_columns(3), Some(vec![(0, 0), (1, 2)]));
        let notequi = col(0).leq(col(3));
        assert_eq!(notequi.equi_join_columns(3), None);
    }

    #[test]
    fn columns_collects_vars() {
        let e = col(0).add(col(2)).leq(col(5));
        assert_eq!(e.columns(), BTreeSet::from([0, 2, 5]));
    }

    /// Theorem 1 smoke check: brute-force an expression over small
    /// incomplete valuations and verify the range result bounds every
    /// possible outcome.
    #[test]
    fn theorem1_bound_preservation_smoke() {
        let exprs = vec![
            col(0).add(col(1)),
            col(0).mul(col(1)),
            col(0).sub(col(1)).mul(col(0)),
            Expr::if_then_else(col(0).leq(col(1)), col(0), col(1).add(lit(1i64))),
            col(0).leq(col(1)),
            col(0).eq(col(1)),
        ];
        let ranges =
            vec![RangeValue::range(-2i64, 1i64, 3i64), RangeValue::range(0i64, 0i64, 2i64)];
        // enumerate all deterministic tuples bounded by `ranges` where the
        // sg tuple is included (Definition 8)
        let mut worlds = vec![];
        for a in -2..=3i64 {
            for b in 0..=2i64 {
                worlds.push(vec![Value::Int(a), Value::Int(b)]);
            }
        }
        for e in exprs {
            let bound = e.eval_range(&ranges).unwrap();
            for w in &worlds {
                let v = e.eval(w).unwrap();
                assert!(bound.bounds(&v), "{e}: {bound} does not bound {v} at {w:?}");
            }
            // sg component must equal deterministic evaluation on sg tuple
            let sg_tuple: Vec<Value> = ranges.iter().map(|r| r.sg.clone()).collect();
            assert_eq!(bound.sg, e.eval(&sg_tuple).unwrap());
        }
    }
}
