//! Range-annotated values `[lb / sg / ub]` — the domain `D_I` of
//! Definition 6.
//!
//! A [`RangeValue`] bounds an attribute value across all possible worlds:
//! `lb ≤ v ≤ ub` in every world, and `sg` is the value in the
//! selected-guess world (SGW).

use std::cmp::Ordering;
use std::fmt;

use crate::error::EvalError;
use crate::value::Value;

/// An element of the range-annotated domain `D_I` (Definition 6):
/// a triple `[lb / sg / ub]` with `lb ≤ sg ≤ ub` in the domain order.
///
/// ```
/// use audb_core::{RangeValue, Value};
///
/// // Los Angeles' infection rate: between 3% and 4%, guess 3%
/// let rate = RangeValue::range(3i64, 3i64, 4i64);
/// assert!(rate.bounds(&Value::Int(4)));
/// assert!(!rate.bounds(&Value::Int(5)));
/// assert!(!rate.is_certain());
///
/// // a completely unknown value covers the whole domain
/// let null = RangeValue::unknown(Value::Int(0));
/// assert!(null.bounds(&Value::str("anything")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RangeValue {
    pub lb: Value,
    pub sg: Value,
    pub ub: Value,
}

impl RangeValue {
    /// Construct, validating `lb ≤ sg ≤ ub`.
    pub fn new(lb: Value, sg: Value, ub: Value) -> Result<Self, EvalError> {
        if lb.total_cmp(&sg) == Ordering::Greater || sg.total_cmp(&ub) == Ordering::Greater {
            return Err(EvalError::InvalidRange(format!("[{lb} / {sg} / {ub}]")));
        }
        Ok(RangeValue { lb, sg, ub })
    }

    /// Construct without validation; used internally where the invariant
    /// is guaranteed by construction (debug-asserted).
    pub(crate) fn new_unchecked(lb: Value, sg: Value, ub: Value) -> Self {
        debug_assert!(
            lb.total_cmp(&sg) != Ordering::Greater && sg.total_cmp(&ub) != Ordering::Greater,
            "invalid range [{lb} / {sg} / {ub}]"
        );
        RangeValue { lb, sg, ub }
    }

    /// A certain value `[v / v / v]`.
    pub fn certain(v: impl Into<Value>) -> Self {
        let v = v.into();
        RangeValue { lb: v.clone(), sg: v.clone(), ub: v }
    }

    /// A completely unknown value with a selected guess:
    /// `[MinVal / sg / MaxVal]` (what `null` becomes on translation).
    pub fn unknown(sg: impl Into<Value>) -> Self {
        RangeValue { lb: Value::MinVal, sg: sg.into(), ub: Value::MaxVal }
    }

    /// Shorthand for a three-part range; panics on invalid triples
    /// (convenient in tests and generators).
    #[allow(clippy::expect_used)] // the panic is this constructor's documented contract
    pub fn range(lb: impl Into<Value>, sg: impl Into<Value>, ub: impl Into<Value>) -> Self {
        Self::new(lb.into(), sg.into(), ub.into()).expect("invalid range triple")
    }

    /// Is this a certain value (`lb = sg = ub`)?
    pub fn is_certain(&self) -> bool {
        self.lb == self.sg && self.sg == self.ub
    }

    /// Does this range bound the deterministic value `v` (Definition 10's
    /// per-value condition)?
    pub fn bounds(&self, v: &Value) -> bool {
        self.lb.total_cmp(v) != Ordering::Greater && v.total_cmp(&self.ub) != Ordering::Greater
    }

    /// Do two ranges overlap, i.e. may they denote the same value in some
    /// world (the `≃` building block of Definition 22)?
    pub fn overlaps(&self, other: &RangeValue) -> bool {
        self.lb.total_cmp(&other.ub) != Ordering::Greater
            && other.lb.total_cmp(&self.ub) != Ordering::Greater
    }

    /// Minimum bounding box of two ranges keeping `self`'s selected guess
    /// (used by the SG-combiner `Ψ`, Definition 21).
    pub fn merge_keep_sg(&self, other: &RangeValue) -> RangeValue {
        let mut merged = self.clone();
        merged.extend_keep_sg(other);
        merged
    }

    /// In-place [`RangeValue::merge_keep_sg`]: widen `self` to also cover
    /// `other`. A bound is replaced only when `other`'s is *strictly*
    /// outside it — on ties `self`'s stays, as with `min_of`/`max_of` —
    /// and nothing is cloned unless it is replaced.
    pub fn extend_keep_sg(&mut self, other: &RangeValue) {
        if self.lb.total_cmp(&other.lb) == Ordering::Greater {
            self.lb = other.lb.clone();
        }
        if self.ub.total_cmp(&other.ub) == Ordering::Less {
            self.ub = other.ub.clone();
        }
    }

    /// Interval width as a float, for tightness metrics. Sentinel bounds
    /// count as the provided domain half-width.
    pub fn width(&self, domain_halfwidth: f64) -> f64 {
        let lo = self.lb.as_f64().unwrap_or(match self.lb {
            Value::MinVal => -domain_halfwidth,
            _ => 0.0,
        });
        let hi = self.ub.as_f64().unwrap_or(match self.ub {
            Value::MaxVal => domain_halfwidth,
            _ => 0.0,
        });
        (hi - lo).max(0.0)
    }

    /// Boolean-range view `(lb, sg, ub)`; errors when any component is
    /// not a boolean.
    pub fn as_bool3(&self) -> Result<(bool, bool, bool), EvalError> {
        Ok((self.lb.as_bool()?, self.sg.as_bool()?, self.ub.as_bool()?))
    }
}

impl fmt::Display for RangeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_certain() {
            write!(f, "{}", self.sg)
        } else {
            write!(f, "[{} / {} / {}]", self.lb, self.sg, self.ub)
        }
    }
}

impl From<Value> for RangeValue {
    fn from(v: Value) -> Self {
        RangeValue::certain(v)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_order() {
        assert!(RangeValue::new(Value::Int(1), Value::Int(2), Value::Int(3)).is_ok());
        assert!(RangeValue::new(Value::Int(3), Value::Int(2), Value::Int(3)).is_err());
        assert!(RangeValue::new(Value::Int(1), Value::Int(4), Value::Int(3)).is_err());
    }

    #[test]
    fn certain_and_unknown() {
        let c = RangeValue::certain(5i64);
        assert!(c.is_certain());
        assert!(c.bounds(&Value::Int(5)));
        assert!(!c.bounds(&Value::Int(6)));

        let u = RangeValue::unknown(7i64);
        assert!(!u.is_certain());
        assert!(u.bounds(&Value::Int(i64::MIN)));
        assert!(u.bounds(&Value::str("anything")));
        assert!(u.bounds(&Value::Null));
    }

    #[test]
    fn overlap() {
        let a = RangeValue::range(1i64, 2i64, 3i64);
        let b = RangeValue::range(3i64, 4i64, 5i64);
        let c = RangeValue::range(4i64, 4i64, 5i64);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        // the paper's example: [1/2/3] and [2/3/5] both match value 2
        let d = RangeValue::range(2i64, 3i64, 5i64);
        assert!(a.overlaps(&d));
        assert!(a.bounds(&Value::Int(2)) && d.bounds(&Value::Int(2)));
    }

    #[test]
    fn merge_bounding_box() {
        let a = RangeValue::range(1i64, 2i64, 3i64);
        let b = RangeValue::range(0i64, 3i64, 7i64);
        let m = a.merge_keep_sg(&b);
        assert_eq!(m, RangeValue::range(0i64, 2i64, 7i64));
        let mut c = a.clone();
        c.extend_keep_sg(&b);
        assert_eq!(c, m);
        // cross-type ties keep the left operand, as `min_of`/`max_of`
        // do: `Int 0` sorts before `Float 0.0`, so the lower bound
        // stays and the upper bound moves
        let z = RangeValue::certain(Value::Int(0));
        let merged = z.merge_keep_sg(&RangeValue::certain(Value::float(0.0)));
        assert_eq!(
            (merged.lb, merged.sg, merged.ub),
            (Value::Int(0), Value::Int(0), Value::float(0.0))
        );
    }

    #[test]
    fn boolean_range_domain_of_example_5() {
        // D_I over booleans has exactly 4 elements (Example 5).
        let f = Value::Bool(false);
        let t = Value::Bool(true);
        let all = [
            RangeValue::new(t.clone(), t.clone(), t.clone()),
            RangeValue::new(f.clone(), t.clone(), t.clone()),
            RangeValue::new(f.clone(), f.clone(), t.clone()),
            RangeValue::new(f.clone(), f.clone(), f.clone()),
        ];
        assert!(all.iter().all(|r| r.is_ok()));
        assert!(RangeValue::new(t, f, Value::Bool(true)).is_err());
    }

    #[test]
    fn width_metric() {
        assert_eq!(RangeValue::range(2i64, 3i64, 10i64).width(100.0), 8.0);
        assert_eq!(RangeValue::certain(5i64).width(100.0), 0.0);
        assert_eq!(RangeValue::unknown(0i64).width(50.0), 100.0);
    }
}
