//! The universal, totally ordered value domain `D` (paper, Section 3).
//!
//! The paper assumes "a universal domain of attribute values D" together
//! with "a total order over the elements of D".  We realise this with a
//! dynamically typed [`Value`] enum whose `Ord` implementation is a total
//! order across *all* variants: the two sentinels [`Value::MinVal`] and
//! [`Value::MaxVal`] are the least and greatest elements of the domain and
//! are what an AU-DB uses to say "this attribute could be anything"
//! (e.g. the `null` size of Sacramento in Figure 1 of the paper).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::EvalError;

/// A 64-bit float with a *total* order, no NaN, and canonical zero.
///
/// Range bounds require a total order; IEEE-754 `f64` only has a partial
/// one.  `F64` refuses NaN at construction and normalizes `-0.0` to `0.0`
/// so that `Eq`/`Hash`/`Ord` agree.
#[derive(Debug, Clone, Copy)]
pub struct F64(f64);

impl F64 {
    /// Wrap a float. Panics on NaN (NaN never enters the domain; use
    /// [`F64::try_new`] when the input is untrusted).
    #[allow(clippy::expect_used)] // the panic is this constructor's documented contract
    pub fn new(v: f64) -> Self {
        Self::try_new(v).expect("NaN is not a member of the value domain")
    }

    /// Fallible constructor used by expression evaluation.
    pub fn try_new(v: f64) -> Result<Self, EvalError> {
        if v.is_nan() {
            return Err(EvalError::NotANumber);
        }
        // Canonicalize -0.0 so Hash and Eq agree.
        Ok(F64(if v == 0.0 { 0.0 } else { v }))
    }

    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for F64 {}
impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

/// A value from the universal domain `D`.
///
/// Total order (see module docs):
/// `MinVal < Null < Bool(false) < Bool(true) < numeric < Str < MaxVal`,
/// where `Int` and `Float` are compared numerically against each other
/// (ties broken by kind, `Int` first, to keep `Ord` consistent with `Eq`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Least element of the domain ("-∞"); lower bound of a completely
    /// unknown attribute value.
    MinVal,
    /// SQL-style missing value. AU-DB *construction* turns nulls into
    /// `[MinVal / sg / MaxVal]` ranges; inside the engine `Null` behaves
    /// as an ordinary (small) domain element.
    Null,
    Bool(bool),
    Int(i64),
    Float(F64),
    /// Shared text: cloning a cell bumps a refcount and never copies the
    /// bytes. `Arc` (not `Rc`) keeps relations and plans `Send + Sync`.
    Str(Arc<str>),
    /// Greatest element of the domain ("+∞").
    MaxVal,
}

impl Value {
    pub fn float(v: f64) -> Self {
        Value::Float(F64::new(v))
    }

    pub fn str(v: impl Into<Arc<str>>) -> Self {
        Value::Str(v.into())
    }

    /// Rank of the variant in the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::MinVal => 0,
            Value::Null => 1,
            Value::Bool(_) => 2,
            Value::Int(_) | Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::MaxVal => 5,
        }
    }

    /// Rank of the variant in the cross-type total order (`MinVal`
    /// first, `MaxVal` last; `Int` and `Float` share a rank, with
    /// numeric ties ordering `Int` first). Exposed for
    /// order-preserving key encoders — a packed byte key must lead
    /// with exactly this rank to sort like [`Value::total_cmp`].
    pub fn order_rank(&self) -> u8 {
        self.type_rank()
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Numeric view; `None` for non-numeric variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.get()),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(EvalError::type_error("bool", other)),
        }
    }

    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(EvalError::type_error("int", other)),
        }
    }

    /// "Database equality": `Int 2 == Float 2.0` holds, unlike the
    /// structural `PartialEq`. Used by `Expr::Eq`.
    pub fn value_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64) == b.get(),
            (Value::Float(a), Value::Int(b)) => a.get() == (*b as f64),
            (a, b) => a == b,
        }
    }

    /// Comparison in the domain's total order (used for range bounds and
    /// for `<`, `<=`, ... predicates).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::MinVal, Value::MinVal)
            | (Value::Null, Value::Null)
            | (Value::MaxVal, Value::MaxVal) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => match (*a as f64).total_cmp(&b.get()) {
                // Numeric tie: Int sorts before Float to keep Ord
                // consistent with the structural Eq.
                Ordering::Equal => Ordering::Less,
                o => o,
            },
            (Value::Float(a), Value::Int(b)) => match a.get().total_cmp(&(*b as f64)) {
                Ordering::Equal => Ordering::Greater,
                o => o,
            },
            _ => unreachable!("same rank covered above"),
        }
    }

    pub fn min_of(a: Value, b: Value) -> Value {
        if a.total_cmp(&b) == Ordering::Greater {
            b
        } else {
            a
        }
    }

    pub fn max_of(a: Value, b: Value) -> Value {
        if a.total_cmp(&b) == Ordering::Less {
            b
        } else {
            a
        }
    }

    /// Sign of a numeric or sentinel value: -1, 0, or 1.
    fn signum(&self) -> Result<i8, EvalError> {
        match self {
            Value::MinVal => Ok(-1),
            Value::MaxVal => Ok(1),
            Value::Int(i) => Ok(i.signum() as i8),
            Value::Float(f) => {
                let v = f.get();
                Ok(if v > 0.0 {
                    1
                } else if v < 0.0 {
                    -1
                } else {
                    0
                })
            }
            other => Err(EvalError::type_error("numeric", other)),
        }
    }

    /// Addition with saturating sentinel arithmetic:
    /// `MaxVal + finite = MaxVal`; `MaxVal + MinVal` is indeterminate.
    /// `Null` propagates through arithmetic (SQL-style), so aggregate
    /// results over possibly-empty inputs compose with further queries.
    pub fn add(&self, other: &Value) -> Result<Value, EvalError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::MaxVal, Value::MinVal) | (Value::MinVal, Value::MaxVal) => {
                Err(EvalError::IndeterminateSentinel)
            }
            (Value::MaxVal, _) | (_, Value::MaxVal) => Ok(Value::MaxVal),
            (Value::MinVal, _) | (_, Value::MinVal) => Ok(Value::MinVal),
            (Value::Int(a), Value::Int(b)) => Ok(match a.checked_add(*b) {
                Some(s) => Value::Int(s),
                None => Value::float(*a as f64 + *b as f64),
            }),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Value::Float(F64::try_new(x + y)?)),
                _ => Err(EvalError::binop_type_error("+", a, b)),
            },
        }
    }

    pub fn sub(&self, other: &Value) -> Result<Value, EvalError> {
        self.add(&other.neg()?)
    }

    pub fn neg(&self) -> Result<Value, EvalError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::MaxVal => Ok(Value::MinVal),
            Value::MinVal => Ok(Value::MaxVal),
            Value::Int(i) => Ok(match i.checked_neg() {
                Some(n) => Value::Int(n),
                None => Value::float(-(*i as f64)),
            }),
            Value::Float(f) => Ok(Value::float(-f.get())),
            other => Err(EvalError::type_error("numeric", other)),
        }
    }

    /// Multiplication with sign-aware sentinel rules (`MinVal * negative =
    /// MaxVal`, `sentinel * 0 = 0`, ...), needed when multiplying range
    /// bounds that may be domain-wide.
    pub fn mul(&self, other: &Value) -> Result<Value, EvalError> {
        let sentinel = |sign_self: i8, other: &Value| -> Result<Value, EvalError> {
            let s = other.signum()? as i32 * sign_self as i32;
            Ok(match s {
                0 => Value::Int(0),
                x if x > 0 => Value::MaxVal,
                _ => Value::MinVal,
            })
        };
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::MaxVal, b) => sentinel(1, b),
            (a, Value::MaxVal) => sentinel(1, a),
            (Value::MinVal, b) => sentinel(-1, b),
            (a, Value::MinVal) => sentinel(-1, a),
            (Value::Int(a), Value::Int(b)) => Ok(match a.checked_mul(*b) {
                Some(p) => Value::Int(p),
                None => Value::float(*a as f64 * *b as f64),
            }),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Value::Float(F64::try_new(x * y)?)),
                _ => Err(EvalError::binop_type_error("*", a, b)),
            },
        }
    }

    /// Division; always produces a float. Division by zero is an error
    /// (the paper's `1/e` is undefined when `e` may be 0).
    pub fn div(&self, other: &Value) -> Result<Value, EvalError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (_, Value::Int(0)) => Err(EvalError::DivisionByZero),
            (_, Value::Float(f)) if f.get() == 0.0 => Err(EvalError::DivisionByZero),
            (Value::MaxVal, b) => {
                let s = b.signum()?;
                Ok(if s >= 0 { Value::MaxVal } else { Value::MinVal })
            }
            (Value::MinVal, b) => {
                let s = b.signum()?;
                Ok(if s >= 0 { Value::MinVal } else { Value::MaxVal })
            }
            (a, Value::MaxVal) | (a, Value::MinVal) => {
                a.signum()?; // type check
                Ok(Value::float(0.0))
            }
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Value::Float(F64::try_new(x / y)?)),
                _ => Err(EvalError::binop_type_error("/", a, b)),
            },
        }
    }

    /// Multiply a value by a bag multiplicity (semimodule action
    /// `k *_{N,SUM} m`, Section 9.2). Multiplicities beyond `i64::MAX`
    /// promote to float instead of wrapping to a *negative* factor
    /// (`u64::MAX as i64 == -1` would silently flip aggregate bounds) —
    /// the same promotion `Int` arithmetic overflow already takes.
    ///
    /// Caveat shared with every float promotion in this domain (and
    /// with the relational encoding, whose multiplicity columns are
    /// `Int`-typed): `as f64` rounds to nearest, so results beyond
    /// 2^53 are exact only to ~1 ULP — not directionally rounded per
    /// bound.
    pub fn mul_count(&self, k: u64) -> Result<Value, EvalError> {
        match i64::try_from(k) {
            Ok(i) => self.mul(&Value::Int(i)),
            Err(_) => self.mul(&Value::float(k as f64)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::MinVal => write!(f, "-inf"),
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{}", v.get()),
            Value::Str(s) => write!(f, "{s}"),
            Value::MaxVal => write!(f, "+inf"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn total_order_across_types() {
        let vs = vec![
            Value::MinVal,
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Int(3),
            Value::float(3.5),
            Value::str("a"),
            Value::str("b"),
            Value::MaxVal,
        ];
        for i in 0..vs.len() {
            for j in 0..vs.len() {
                assert_eq!(vs[i].total_cmp(&vs[j]), i.cmp(&j), "{:?} vs {:?}", vs[i], vs[j]);
            }
        }
    }

    #[test]
    fn int_float_numeric_order() {
        assert_eq!(Value::Int(2).total_cmp(&Value::float(2.5)), Ordering::Less);
        assert_eq!(Value::float(2.5).total_cmp(&Value::Int(3)), Ordering::Less);
        // numeric tie: Int before Float, but value_eq treats them equal
        assert_eq!(Value::Int(2).total_cmp(&Value::float(2.0)), Ordering::Less);
        assert!(Value::Int(2).value_eq(&Value::float(2.0)));
    }

    #[test]
    fn ord_consistent_with_eq() {
        let a = Value::Int(2);
        let b = Value::float(2.0);
        assert_ne!(a, b);
        assert_ne!(a.cmp(&b), Ordering::Equal);
    }

    #[test]
    fn arithmetic_basic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).mul(&Value::Int(3)).unwrap(), Value::Int(6));
        assert_eq!(Value::Int(2).add(&Value::float(0.5)).unwrap(), Value::float(2.5));
        assert_eq!(Value::Int(7).sub(&Value::Int(9)).unwrap(), Value::Int(-2));
        assert_eq!(Value::Int(1).div(&Value::Int(4)).unwrap(), Value::float(0.25));
    }

    #[test]
    fn arithmetic_overflow_promotes() {
        let big = Value::Int(i64::MAX);
        let r = big.add(&Value::Int(1)).unwrap();
        assert!(matches!(r, Value::Float(_)));
        let r = big.mul(&Value::Int(2)).unwrap();
        assert!(matches!(r, Value::Float(_)));
    }

    #[test]
    fn sentinel_arithmetic() {
        assert_eq!(Value::MaxVal.add(&Value::Int(5)).unwrap(), Value::MaxVal);
        assert_eq!(Value::MinVal.add(&Value::Int(5)).unwrap(), Value::MinVal);
        assert!(Value::MaxVal.add(&Value::MinVal).is_err());
        assert_eq!(Value::MaxVal.mul(&Value::Int(-2)).unwrap(), Value::MinVal);
        assert_eq!(Value::MinVal.mul(&Value::Int(-2)).unwrap(), Value::MaxVal);
        assert_eq!(Value::MaxVal.mul(&Value::Int(0)).unwrap(), Value::Int(0));
        assert_eq!(Value::MaxVal.neg().unwrap(), Value::MinVal);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Int(1).div(&Value::float(0.0)).is_err());
    }

    #[test]
    fn nan_rejected() {
        assert!(F64::try_new(f64::NAN).is_err());
        assert_eq!(F64::new(-0.0), F64::new(0.0));
    }

    #[test]
    fn mul_count_scales() {
        assert_eq!(Value::Int(30).mul_count(2).unwrap(), Value::Int(60));
        assert_eq!(Value::float(1.5).mul_count(4).unwrap(), Value::float(6.0));
        assert_eq!(Value::MaxVal.mul_count(0).unwrap(), Value::Int(0));
        assert_eq!(Value::MaxVal.mul_count(3).unwrap(), Value::MaxVal);
    }

    #[test]
    fn type_errors_surface() {
        assert!(Value::str("x").add(&Value::Int(1)).is_err());
        assert!(Value::Bool(true).mul(&Value::Int(1)).is_err());
        assert_eq!(Value::Null.neg().unwrap(), Value::Null); // Null propagates
    }
}
