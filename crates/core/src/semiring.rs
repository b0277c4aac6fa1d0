//! The annotation-semiring interface (paper Section 3.1) and its `N`
//! instance: bag multiplicities, saturating at `u64::MAX`. The engine's
//! annotations `N_AU` and `N_UA` (in [`crate::annot`]) are pointwise
//! products of `N`.

use std::fmt::Debug;

/// A commutative semiring `⟨K, +, ·, 0, 1⟩`.
pub trait Semiring: Clone + Eq + Debug {
    fn zero() -> Self;
    fn one() -> Self;
    fn plus(&self, other: &Self) -> Self;
    fn times(&self, other: &Self) -> Self;
}

/// The natural-number semiring `N` (bag semantics): tuple multiplicities.
impl Semiring for u64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn plus(&self, other: &Self) -> Self {
        self.saturating_add(*other)
    }
    fn times(&self, other: &Self) -> Self {
        self.saturating_mul(*other)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::annot::{AuAnnot, UaAnnot};

    fn check_semiring_laws<K: Semiring>(samples: &[K]) {
        for a in samples {
            assert_eq!(a.plus(&K::zero()), *a, "additive identity");
            assert_eq!(a.times(&K::one()), *a, "multiplicative identity");
            assert_eq!(a.times(&K::zero()), K::zero(), "annihilation");
            for b in samples {
                assert_eq!(a.plus(b), b.plus(a), "commutative +");
                assert_eq!(a.times(b), b.times(a), "commutative ·");
                for c in samples {
                    assert_eq!(a.plus(&b.plus(c)), a.plus(b).plus(c), "assoc +");
                    assert_eq!(a.times(&b.times(c)), a.times(b).times(c), "assoc ·");
                    assert_eq!(a.times(&b.plus(c)), a.times(b).plus(&a.times(c)), "distributivity");
                }
            }
        }
    }

    #[test]
    fn nat_semiring_laws() {
        // `u64::MAX - 1` pins saturation: sums and products past it clamp.
        check_semiring_laws::<u64>(&[0, 1, 2, 3, 7, u64::MAX - 1]);
    }

    #[test]
    fn au_semiring_laws() {
        let samples = [
            AuAnnot::zero(),
            AuAnnot::one(),
            AuAnnot::triple(0, 1, 1),
            AuAnnot::triple(1, 2, 3),
            AuAnnot::triple(0, 0, 4),
            AuAnnot::triple(2, 2, u64::MAX - 1),
        ];
        check_semiring_laws(&samples);
    }

    #[test]
    fn ua_semiring_laws() {
        let samples = [
            UaAnnot::zero(),
            UaAnnot::one(),
            UaAnnot::new(0, 1),
            UaAnnot::new(2, 3),
            UaAnnot::new(1, u64::MAX - 1),
        ];
        check_semiring_laws(&samples);
    }
}
