//! Tuple-level annotations: `K_UA = K²` pairs (Definition 2, UA-DBs) and
//! `K_AU ⊂ K³` ordered triples (Definition 11, AU-DBs), instantiated for
//! bag semantics (`K = N`).

use std::fmt;

use crate::error::EvalError;
use crate::semiring::Semiring;

/// An element of `N_AU`: `(lb, sg, ub)` with `lb ≤ sg ≤ ub` (Def. 11).
///
/// `lb` lower-bounds the tuple's certain multiplicity, `sg` is its
/// multiplicity in the selected-guess world, `ub` upper-bounds its
/// possible multiplicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuAnnot {
    pub lb: u64,
    pub sg: u64,
    pub ub: u64,
}

impl AuAnnot {
    pub fn new(lb: u64, sg: u64, ub: u64) -> Result<Self, EvalError> {
        if lb > sg || sg > ub {
            return Err(EvalError::InvalidAnnotation(format!("({lb}, {sg}, {ub})")));
        }
        Ok(AuAnnot { lb, sg, ub })
    }

    /// Shorthand; panics on invalid triples (tests / generators).
    #[allow(clippy::expect_used)] // the panic is this constructor's documented contract
    pub fn triple(lb: u64, sg: u64, ub: u64) -> Self {
        Self::new(lb, sg, ub).expect("invalid AU annotation")
    }

    /// A certain tuple occurring exactly once in every world.
    pub fn certain_one() -> Self {
        AuAnnot { lb: 1, sg: 1, ub: 1 }
    }

    /// Map a boolean triple (a range-annotated condition result) into
    /// `N_AU` — the mapping `M_K` of Definition 19.
    pub fn from_bool3(lb: bool, sg: bool, ub: bool) -> Self {
        AuAnnot { lb: lb as u64, sg: sg as u64, ub: ub as u64 }
    }

    /// Is this the zero annotation `(0,0,0)`?
    pub fn is_zero(&self) -> bool {
        self.ub == 0
    }
}

impl Semiring for AuAnnot {
    fn zero() -> Self {
        AuAnnot { lb: 0, sg: 0, ub: 0 }
    }
    fn one() -> Self {
        AuAnnot { lb: 1, sg: 1, ub: 1 }
    }
    /// Pointwise; preserves `lb ≤ sg ≤ ub` because `+` preserves the
    /// natural order (Section 6.1).
    fn plus(&self, other: &Self) -> Self {
        AuAnnot {
            lb: self.lb.plus(&other.lb),
            sg: self.sg.plus(&other.sg),
            ub: self.ub.plus(&other.ub),
        }
    }
    fn times(&self, other: &Self) -> Self {
        AuAnnot {
            lb: self.lb.times(&other.lb),
            sg: self.sg.times(&other.sg),
            ub: self.ub.times(&other.ub),
        }
    }
}

impl AuAnnot {
    /// Bound-preserving monus for set difference (Section 8.2): the lower
    /// bound subtracts the *upper* bound of the subtrahend and vice versa.
    /// (The naive pointwise monus does not preserve bounds.)
    pub fn monus_bounds(&self, sub_ub_for_lb: u64, sub_sg: u64, sub_lb_for_ub: u64) -> AuAnnot {
        let lb = self.lb.saturating_sub(sub_ub_for_lb);
        let sg = self.sg.saturating_sub(sub_sg);
        let ub = self.ub.saturating_sub(sub_lb_for_ub);
        // Soundness of the triple ordering is argued in the difference
        // operator (the subtracted quantities are themselves ordered).
        debug_assert!(lb <= sg && sg <= ub, "monus broke ordering: {lb},{sg},{ub}");
        AuAnnot { lb, sg, ub }
    }
}

impl fmt::Display for AuAnnot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.lb, self.sg, self.ub)
    }
}

/// An element of `N_UA = N²` (Definition 2): `[certain, sg]` where
/// `certain` under-approximates the certain multiplicity and `sg` is the
/// multiplicity in the SGW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UaAnnot {
    pub certain: u64,
    pub sg: u64,
}

impl UaAnnot {
    pub fn new(certain: u64, sg: u64) -> Self {
        UaAnnot { certain, sg }
    }
    pub fn is_zero(&self) -> bool {
        self.certain == 0 && self.sg == 0
    }
}

impl Semiring for UaAnnot {
    fn zero() -> Self {
        UaAnnot { certain: 0, sg: 0 }
    }
    fn one() -> Self {
        UaAnnot { certain: 1, sg: 1 }
    }
    fn plus(&self, other: &Self) -> Self {
        UaAnnot { certain: self.certain.plus(&other.certain), sg: self.sg.plus(&other.sg) }
    }
    fn times(&self, other: &Self) -> Self {
        UaAnnot {
            certain: self.certain.saturating_mul(other.certain),
            sg: self.sg.saturating_mul(other.sg),
        }
    }
}

impl fmt::Display for UaAnnot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.certain, self.sg)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn au_annot_invariant() {
        assert!(AuAnnot::new(1, 2, 3).is_ok());
        assert!(AuAnnot::new(2, 1, 3).is_err());
        assert!(AuAnnot::new(1, 3, 2).is_err());
    }

    #[test]
    fn au_ops_preserve_invariant() {
        let a = AuAnnot::triple(1, 2, 3);
        let b = AuAnnot::triple(0, 1, 5);
        let s = a.plus(&b);
        assert!(s.lb <= s.sg && s.sg <= s.ub);
        assert_eq!(s, AuAnnot::triple(1, 3, 8));
        let p = a.times(&b);
        assert!(p.lb <= p.sg && p.sg <= p.ub);
        assert_eq!(p, AuAnnot::triple(0, 2, 15));
    }

    #[test]
    fn mk_mapping_of_definition_19() {
        assert_eq!(AuAnnot::from_bool3(false, true, true), AuAnnot::triple(0, 1, 1));
        assert_eq!(AuAnnot::from_bool3(true, true, true), AuAnnot::one());
        assert_eq!(AuAnnot::from_bool3(false, false, false), AuAnnot::zero());
    }

    #[test]
    fn example_9_selection_annotation() {
        // R(t) = (1,2,3), θ(t) = [F/T/T] → (0,2,3)
        let r = AuAnnot::triple(1, 2, 3);
        let theta = AuAnnot::from_bool3(false, true, true);
        assert_eq!(r.times(&theta), AuAnnot::triple(0, 2, 3));
    }

    #[test]
    fn difference_monus_example_section_8_2() {
        // R(1) = (1,2,2), S(1) = (0,0,3): bound-preserving monus yields
        // (max(1-3,0), max(2-0,0), max(2-0,0)) = (0,2,2)
        let r = AuAnnot::triple(1, 2, 2);
        let out = r.monus_bounds(3, 0, 0);
        assert_eq!(out, AuAnnot::triple(0, 2, 2));
    }

    #[test]
    fn ua_annot_ops() {
        let a = UaAnnot::new(2, 3);
        let b = UaAnnot::new(0, 5);
        assert_eq!(a.plus(&b), UaAnnot::new(2, 8));
        assert_eq!(a.times(&b), UaAnnot::new(0, 15));
    }
}
