//! Tuple-independent databases (TI-DBs, Section 11.1) and their
//! translation into AU-DBs (`trans_TI`, Theorem 9).

use audb_core::AuAnnot;
use audb_storage::{AuRelation, Database, RangeTuple, Relation, Schema, Tuple};

use crate::worlds::IncompleteDb;

/// A probabilistic TI-relation: each tuple is present independently with
/// its marginal probability (`p = 1.0` means certain; the incomplete
/// variant maps "optional" to any `p < 1`).
#[derive(Debug, Clone)]
pub struct TiRelation {
    pub schema: Schema,
    pub tuples: Vec<(Tuple, f64)>,
}

impl TiRelation {
    pub fn new(schema: Schema, tuples: Vec<(Tuple, f64)>) -> Self {
        assert!(tuples.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
        TiRelation { schema, tuples }
    }

    /// Enumerate all possible worlds (exponential — test-sized inputs
    /// only; guarded by `max_worlds`).
    pub fn worlds(&self, max_worlds: usize) -> Option<Vec<Relation>> {
        let optional: Vec<usize> =
            self.tuples.iter().enumerate().filter(|(_, (_, p))| *p < 1.0).map(|(i, _)| i).collect();
        if optional.len() > 20 || (1usize << optional.len()) > max_worlds {
            return None;
        }
        let mut out = Vec::with_capacity(1 << optional.len());
        for mask in 0..(1u32 << optional.len()) {
            let mut rows = Vec::new();
            for (i, (t, p)) in self.tuples.iter().enumerate() {
                let include = if *p >= 1.0 {
                    true
                } else {
                    let bit = optional.iter().position(|x| *x == i).unwrap();
                    mask & (1 << bit) != 0
                };
                if include {
                    rows.push((t.clone(), 1u64));
                }
            }
            out.push(Relation::from_rows(self.schema.clone(), rows));
        }
        Some(out)
    }

    /// The selected-guess world: all tuples with `p ≥ 0.5` (the highest
    /// probability world of a TI-DB).
    pub fn sg_world(&self) -> Relation {
        Relation::from_rows(
            self.schema.clone(),
            self.tuples.iter().filter(|(_, p)| *p >= 0.5).map(|(t, _)| (t.clone(), 1)).collect(),
        )
    }

    /// `trans_TI` (Section 11.1): attribute values are certain; the
    /// tuple annotation is `(⟦p = 1⟧, ⟦p ≥ 0.5⟧, ⟦p > 0⟧)`.
    pub fn to_au(&self) -> AuRelation {
        let rows = self
            .tuples
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(t, p)| {
                (RangeTuple::certain(t), AuAnnot::triple((*p >= 1.0) as u64, (*p >= 0.5) as u64, 1))
            })
            .collect();
        AuRelation::from_rows(self.schema.clone(), rows)
    }
}

/// A TI-database plus helpers to view it as explicit possible worlds.
#[derive(Debug, Clone, Default)]
pub struct TiDb {
    pub relations: Vec<(String, TiRelation)>,
}

impl TiDb {
    pub fn insert(&mut self, name: impl Into<String>, rel: TiRelation) {
        self.relations.push((name.into(), rel));
    }

    /// Explicit possible worlds (cartesian product across relations).
    pub fn to_incomplete(&self, max_worlds: usize) -> Option<IncompleteDb> {
        let mut worlds: Vec<Database> = vec![Database::new()];
        for (name, rel) in &self.relations {
            let rel_worlds = rel.worlds(max_worlds)?;
            let mut next = Vec::with_capacity(worlds.len() * rel_worlds.len());
            for w in &worlds {
                for rw in &rel_worlds {
                    let mut db = w.clone();
                    db.insert(name.clone(), rw.clone());
                    next.push(db);
                }
            }
            if next.len() > max_worlds {
                return None;
            }
            worlds = next;
        }
        // locate the SG world
        let mut sg = Database::new();
        for (name, rel) in &self.relations {
            sg.insert(name.clone(), rel.sg_world());
        }
        let sg = sg.normalized();
        let sg_index = worlds.iter().position(|w| w.normalized() == sg)?;
        Some(IncompleteDb::new(worlds, sg_index))
    }

    pub fn to_au(&self) -> audb_storage::AuDatabase {
        let mut out = audb_storage::AuDatabase::new();
        for (name, rel) in &self.relations {
            out.insert(name.clone(), rel.to_au());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounding::database_bounds_incomplete;

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    fn sample() -> TiDb {
        let mut db = TiDb::default();
        db.insert(
            "r",
            TiRelation::new(
                Schema::named(&["a"]),
                vec![(it(&[1]), 1.0), (it(&[2]), 0.7), (it(&[3]), 0.2)],
            ),
        );
        db
    }

    #[test]
    fn world_enumeration() {
        let db = sample();
        let inc = db.to_incomplete(64).unwrap();
        assert_eq!(inc.worlds.len(), 4); // two optional tuples
                                         // SG world: p ≥ 0.5 → tuples 1, 2
        let sgw = inc.sg_world().get("r").unwrap();
        assert_eq!(sgw.multiplicity(&it(&[1])), 1);
        assert_eq!(sgw.multiplicity(&it(&[2])), 1);
        assert_eq!(sgw.multiplicity(&it(&[3])), 0);
    }

    /// Theorem 9: `trans_TI(D)` bounds `D`.
    #[test]
    fn translation_bounds_input() {
        let db = sample();
        let au = db.to_au();
        let inc = db.to_incomplete(64).unwrap();
        assert!(database_bounds_incomplete(&au, &inc));
    }

    #[test]
    fn annotations_follow_probability() {
        let db = sample();
        let au = db.to_au();
        let rel = au.get("r").unwrap();
        assert_eq!(rel.annotation(&RangeTuple::certain(&it(&[1]))), AuAnnot::triple(1, 1, 1));
        assert_eq!(rel.annotation(&RangeTuple::certain(&it(&[2]))), AuAnnot::triple(0, 1, 1));
        assert_eq!(rel.annotation(&RangeTuple::certain(&it(&[3]))), AuAnnot::triple(0, 0, 1));
    }
}
