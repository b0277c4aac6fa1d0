//! x-DBs / block-independent databases (Section 11.2): each *x-tuple*
//! is a set of mutually exclusive alternatives with probabilities;
//! `trans_X` (Theorem 10) translates them into AU-DBs with one range
//! tuple per x-tuple. PDBench-style uncertainty injection produces x-DBs.
//! An x-tuple whose total probability is within `1e-9` of 1 is certain.

use audb_core::{AuAnnot, EvalError, RangeValue};
use audb_storage::{AuDatabase, AuRelation, Database, RangeTuple, Relation, Schema, Tuple};

use crate::worlds::IncompleteDb;

/// An x-tuple: alternatives with probabilities summing to ≤ 1
/// (`P(τ) < 1` makes the x-tuple optional).
#[derive(Debug, Clone)]
pub struct XTuple {
    pub alternatives: Vec<(Tuple, f64)>,
}

impl XTuple {
    pub fn certain(t: Tuple) -> Self {
        XTuple { alternatives: vec![(t, 1.0)] }
    }

    pub fn new(alternatives: Vec<(Tuple, f64)>) -> Self {
        assert!(!alternatives.is_empty());
        let total: f64 = alternatives.iter().map(|(_, p)| p).sum();
        assert!(total <= 1.0 + 1e-9, "alternative probabilities exceed 1: {total}");
        XTuple { alternatives }
    }

    /// `P(τ)`: total probability that some alternative exists.
    pub fn total_prob(&self) -> f64 {
        self.alternatives.iter().map(|(_, p)| p).sum()
    }

    pub fn is_optional(&self) -> bool {
        self.total_prob() < 1.0 - 1e-9
    }

    pub fn is_uncertain(&self) -> bool {
        self.alternatives.len() > 1 || self.is_optional()
    }

    /// `pickMax(τ)`: highest-probability alternative (first on ties).
    pub fn pick_max(&self) -> &Tuple {
        let mut best = &self.alternatives[0];
        for a in &self.alternatives[1..] {
            if a.1 > best.1 {
                best = a;
            }
        }
        &best.0
    }

    /// Is `pickMax` part of the SGW? Yes iff existing is at least as
    /// likely as being absent: `1 − P(τ) ≤ P(pickMax)`.
    pub fn sg_present(&self) -> bool {
        let pm = self.alternatives.iter().map(|(_, p)| *p).fold(f64::NEG_INFINITY, f64::max);
        1.0 - self.total_prob() <= pm + 1e-12
    }
}

/// An x-relation.
#[derive(Debug, Clone)]
pub struct XRelation {
    pub schema: Schema,
    pub xtuples: Vec<XTuple>,
}

impl XRelation {
    pub fn new(schema: Schema, xtuples: Vec<XTuple>) -> Self {
        XRelation { schema, xtuples }
    }

    /// Fraction of x-tuples with more than one possibility (the
    /// "uncertainty percentage" reported in the evaluation).
    pub fn uncertain_ratio(&self) -> f64 {
        if self.xtuples.is_empty() {
            return 0.0;
        }
        self.xtuples.iter().filter(|x| x.is_uncertain()).count() as f64 / self.xtuples.len() as f64
    }

    /// The selected-guess world.
    pub fn sg_world(&self) -> Relation {
        Relation::from_rows(
            self.schema.clone(),
            self.xtuples
                .iter()
                .filter(|x| x.sg_present())
                .map(|x| (x.pick_max().clone(), 1))
                .collect(),
        )
    }

    /// `trans_X` (Section 11.2): one AU tuple per x-tuple; attribute
    /// ranges cover all alternatives; SG values from `pickMax`.
    pub fn to_au(&self) -> AuRelation {
        let n = self.schema.arity();
        let mut rows = Vec::with_capacity(self.xtuples.len());
        for x in &self.xtuples {
            let sg = x.pick_max();
            let mut ranges = Vec::with_capacity(n);
            for i in 0..n {
                let mut lo = x.alternatives[0].0 .0[i].clone();
                let mut hi = lo.clone();
                for (t, _) in &x.alternatives[1..] {
                    lo = audb_core::Value::min_of(lo, t.0[i].clone());
                    hi = audb_core::Value::max_of(hi, t.0[i].clone());
                }
                ranges.push(
                    RangeValue::new(lo, sg.0[i].clone(), hi)
                        .expect("pickMax within alternative bounds"),
                );
            }
            let lb = (!x.is_optional()) as u64;
            let sg_mult = x.sg_present() as u64;
            rows.push((
                RangeTuple::new(ranges),
                AuAnnot::triple(lb.min(sg_mult), sg_mult.max(lb), 1),
            ));
        }
        AuRelation::from_rows(self.schema.clone(), rows)
    }
}

/// An x-database.
#[derive(Debug, Clone, Default)]
pub struct XDb {
    pub relations: Vec<(String, XRelation)>,
}

impl XDb {
    pub fn insert(&mut self, name: impl Into<String>, rel: XRelation) {
        self.relations.push((name.into(), rel));
    }

    pub fn get(&self, name: &str) -> Option<&XRelation> {
        self.relations.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    /// The selected-guess world of the whole database.
    pub fn sg_world(&self) -> Database {
        let mut db = Database::new();
        for (name, rel) in &self.relations {
            db.insert(name.clone(), rel.sg_world());
        }
        db
    }

    /// Enumerate the possible worlds one at a time, without
    /// materializing the set: an odometer with one digit per x-tuple
    /// (its alternatives in order, then "absent" when it is optional),
    /// the last x-tuple of the last relation turning fastest. Returns
    /// `Ok(false)` without calling `f` when there are more than
    /// `max_worlds` worlds.
    pub fn for_each_world(
        &self,
        max_worlds: u64,
        mut f: impl FnMut(Database) -> Result<(), EvalError>,
    ) -> Result<bool, EvalError> {
        let radix: Vec<usize> = (self.relations.iter().flat_map(|(_, rel)| &rel.xtuples))
            .map(|x| x.alternatives.len() + x.is_optional() as usize)
            .collect();
        let total = radix.iter().try_fold(1u64, |n, &r| n.checked_mul(r as u64));
        if total.is_none_or(|n| n > max_worlds) {
            return Ok(false);
        }
        let mut digit = vec![0usize; radix.len()];
        loop {
            let mut digits = digit.iter();
            let mut db = Database::new();
            for (name, rel) in &self.relations {
                let rows = (rel.xtuples.iter().zip(&mut digits))
                    .filter_map(|(x, &c)| x.alternatives.get(c).map(|(t, _)| (t.clone(), 1)))
                    .collect();
                db.insert(name.clone(), Relation::from_rows(rel.schema.clone(), rows));
            }
            f(db)?;
            let Some(i) = (0..radix.len()).rev().find(|&i| digit[i] + 1 < radix[i]) else {
                return Ok(true);
            };
            digit[i] += 1;
            digit[i + 1..].fill(0);
        }
    }

    /// Explicit possible worlds (test-sized only), in
    /// [`Self::for_each_world`]'s order.
    pub fn to_incomplete(&self, max_worlds: usize) -> Option<IncompleteDb> {
        let mut worlds = Vec::new();
        let complete = self.for_each_world(max_worlds as u64, |w| {
            worlds.push(w);
            Ok(())
        });
        let Ok(true) = complete else { return None };
        let sg = self.sg_world().normalized();
        let sg_index = worlds.iter().position(|w| w.normalized() == sg)?;
        Some(IncompleteDb::new(worlds, sg_index))
    }

    pub fn to_au(&self) -> AuDatabase {
        let mut out = AuDatabase::new();
        for (name, rel) in &self.relations {
            out.insert(name.clone(), rel.to_au());
        }
        out
    }

    /// Sample one world (used by the MCDB baseline).
    pub fn sample_world(&self, rng: &mut impl rand::Rng) -> Database {
        let mut db = Database::new();
        for (name, rel) in &self.relations {
            let mut rows = Vec::new();
            for x in &rel.xtuples {
                let roll: f64 = rng.gen();
                let mut acc = 0.0;
                let mut chosen: Option<&Tuple> = None;
                for (t, p) in &x.alternatives {
                    acc += p;
                    if roll < acc {
                        chosen = Some(t);
                        break;
                    }
                }
                if let Some(t) = chosen {
                    rows.push((t.clone(), 1));
                }
            }
            db.insert(name.clone(), Relation::from_rows(rel.schema.clone(), rows));
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::database_bounds_incomplete;

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    fn sample() -> XDb {
        let mut db = XDb::default();
        db.insert(
            "r",
            XRelation::new(
                Schema::named(&["a", "b"]),
                vec![
                    XTuple::certain(it(&[1, 10])),
                    XTuple::new(vec![(it(&[2, 20]), 0.5), (it(&[3, 30]), 0.5)]),
                    XTuple::new(vec![(it(&[4, 40]), 0.3)]),
                ],
            ),
        );
        db
    }

    #[test]
    fn pick_max_and_sg() {
        let x = XTuple::new(vec![(it(&[1]), 0.3), (it(&[2]), 0.4)]);
        assert_eq!(x.pick_max(), &it(&[2]));
        assert!(x.sg_present()); // absent prob 0.3 ≤ 0.4
        let y = XTuple::new(vec![(it(&[1]), 0.2)]);
        assert!(!y.sg_present()); // absent prob 0.8 > 0.2
    }

    #[test]
    fn world_enumeration_counts() {
        let db = sample();
        // x1: 1 choice; x2: 2 choices (not optional); x3: present/absent
        let inc = db.to_incomplete(64).unwrap();
        assert_eq!(inc.worlds.len(), 4);
    }

    /// Theorem 10: `trans_X(D)` bounds `D`.
    #[test]
    fn translation_bounds_input() {
        let db = sample();
        let au = db.to_au();
        let inc = db.to_incomplete(64).unwrap();
        assert!(database_bounds_incomplete(&au, &inc));
    }

    #[test]
    fn ranges_cover_alternatives() {
        let db = sample();
        let au = db.to_au();
        let rel = au.get("r").unwrap();
        let alt_row = rel
            .rows()
            .iter()
            .find(|(t, _)| !t.is_certain())
            .expect("x-tuple with alternatives becomes a range tuple");
        assert!(alt_row.0.bounds(&it(&[2, 20])));
        assert!(alt_row.0.bounds(&it(&[3, 30])));
        assert!(!alt_row.0.bounds(&it(&[1, 10])));
    }

    /// A TI-DB is an x-DB of one-alternative x-tuples: `trans_X` gives a
    /// tuple `trans_TI`'s annotation `(⟦p = 1⟧, ⟦p ≥ 0.5⟧, ⟦p > 0⟧)`.
    #[test]
    fn annotations_follow_probability() {
        let mut db = XDb::default();
        let ti = [(1, 1.0), (2, 0.7), (3, 0.2)].map(|(a, p)| XTuple::new(vec![(it(&[a]), p)]));
        db.insert("r", XRelation::new(Schema::named(&["a"]), ti.to_vec()));
        let au = db.to_au();
        let rel = au.get("r").unwrap();
        assert_eq!(rel.annotation(&RangeTuple::certain(&it(&[1]))), AuAnnot::triple(1, 1, 1));
        assert_eq!(rel.annotation(&RangeTuple::certain(&it(&[2]))), AuAnnot::triple(0, 1, 1));
        assert_eq!(rel.annotation(&RangeTuple::certain(&it(&[3]))), AuAnnot::triple(0, 0, 1));
    }

    #[test]
    fn sampling_respects_alternatives() {
        use rand::SeedableRng;
        let db = sample();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let w = db.sample_world(&mut rng);
            let r = w.get("r").unwrap();
            // the certain tuple is always present
            assert_eq!(r.multiplicity(&it(&[1, 10])), 1);
            // alternatives are exclusive
            assert!(r.multiplicity(&it(&[2, 20])) + r.multiplicity(&it(&[3, 30])) <= 1);
        }
    }

    #[test]
    fn uncertain_ratio() {
        let db = sample();
        let r = db.get("r").unwrap();
        assert!((r.uncertain_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }
}
