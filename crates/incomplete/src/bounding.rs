//! Deciding the bounding relations of Definitions 15–17: does an
//! AU-relation bound a possible world / an incomplete database?
//!
//! A *tuple matching* distributes each world tuple's multiplicity over
//! AU tuples that bound it; the AU-relation bounds the world iff a
//! single matching exists whose per-AU-tuple totals fall within
//! `[lb, ub]`. That is exactly a transportation-feasibility problem,
//! decided here by max-flow with lower bounds ([`crate::maxflow`]).
//!
//! These checkers are the ground-truth oracle for the property-based
//! bound-preservation tests (Theorems 3–6, Corollary 2).
//!
//! [`sample_bounded_world`] draws the other side of such a check at any
//! scale: a world `W` that an AU-DB `D` bounds. `{SG(D), W}` is then an
//! incomplete database `D` bounds, so `Q(D)` must bound `Q(W)` — no
//! world enumeration needed.

use audb_core::{RangeValue, Value};
use audb_storage::{AuDatabase, AuRelation, Database, Relation, Tuple};
use rand::Rng;

use crate::maxflow::{feasible_flow, BoundedEdge};
use crate::worlds::{IncompleteDb, IncompleteRelation};

/// Does the AU-relation bound the deterministic relation (one possible
/// world) in the sense of Definition 16?
pub fn relation_bounds_world(au: &AuRelation, world: &Relation) -> bool {
    let world = world.normalized();
    let w = world.rows();
    let a = au.rows();
    // nodes: 0 = source, 1 = sink, 2..2+|w| world tuples, then AU tuples
    let s = 0usize;
    let t = 1usize;
    let wbase = 2usize;
    let abase = wbase + w.len();
    let nodes = abase + a.len();

    let mut edges: Vec<BoundedEdge> = Vec::new();
    for (i, (tup, mult)) in w.iter().enumerate() {
        // world multiplicity must be fully distributed
        edges.push(BoundedEdge { from: s, to: wbase + i, lower: *mult, upper: *mult });
        for (j, (rt, _)) in a.iter().enumerate() {
            if rt.bounds(tup) {
                edges.push(BoundedEdge { from: wbase + i, to: abase + j, lower: 0, upper: *mult });
            }
        }
    }
    for (j, (_, k)) in a.iter().enumerate() {
        edges.push(BoundedEdge { from: abase + j, to: t, lower: k.lb, upper: k.ub });
    }
    feasible_flow(nodes, s, t, &edges)
}

/// Does the AU-relation bound an incomplete relation (Definition 17)?
/// Every world must be bounded, and the SGW must be encoded exactly.
pub fn relation_bounds_incomplete(au: &AuRelation, inc: &IncompleteRelation) -> bool {
    if au.sg_world().normalized() != inc.sg_world().normalized() {
        return false;
    }
    inc.worlds.iter().all(|w| relation_bounds_world(au, w))
}

/// Does an AU-database bound a deterministic database relation-wise?
pub fn database_bounds_world(au: &AuDatabase, world: &Database) -> bool {
    for (name, rel) in world.iter() {
        match au.get(name) {
            Ok(aurel) => {
                if !relation_bounds_world(aurel, rel) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// Draw a world that `db` bounds (Definition 16): every row becomes
/// `m ∈ [lb, ub]` copies of one tuple its ranges contain, which is its
/// own tuple matching. The multiplicity and each cell are the lower
/// bound, the upper bound, the selected guess or a uniform draw between
/// the bounds, the bounds twice as likely as the other two — bugs live at
/// the endpoints. A cell whose bounds are not both `Int` or both `Float`
/// has no uniform draw and takes one of its three components.
pub fn sample_bounded_world(db: &AuDatabase, rng: &mut impl Rng) -> Database {
    let mut world = Database::new();
    for (name, rel) in db.iter() {
        let mut rows = Vec::with_capacity(rel.len());
        for (t, k) in rel.rows() {
            let m = match rng.gen_range(0..6) {
                0 | 1 => k.lb,
                2 | 3 => k.ub,
                4 => k.sg,
                _ => rng.gen_range(k.lb..=k.ub),
            };
            if m > 0 {
                rows.push((Tuple::new(t.0.iter().map(|r| sample_cell(r, rng)).collect()), m));
            }
        }
        world.insert(name.clone(), Relation::from_rows(rel.schema.clone(), rows));
    }
    world
}

/// One value of the range `r`, endpoints favoured (see
/// [`sample_bounded_world`]).
fn sample_cell(r: &RangeValue, rng: &mut impl Rng) -> Value {
    match rng.gen_range(0..6) {
        0 | 1 => r.lb.clone(),
        2 | 3 => r.ub.clone(),
        4 => r.sg.clone(),
        _ => match (&r.lb, &r.ub) {
            (Value::Int(lo), Value::Int(hi)) => Value::Int(rng.gen_range(*lo..=*hi)),
            (Value::Float(lo), Value::Float(hi)) => {
                let (lo, hi) = (lo.get(), hi.get());
                Value::float((lo + (hi - lo) * rng.gen::<f64>()).clamp(lo, hi))
            }
            _ => r.sg.clone(),
        },
    }
}

/// Does an AU-database bound an incomplete database (Definition 17)?
pub fn database_bounds_incomplete(au: &AuDatabase, inc: &IncompleteDb) -> bool {
    if au.sg_world().normalized() != inc.sg_world().normalized() {
        return false;
    }
    inc.worlds.iter().all(|w| database_bounds_world(au, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::RangeValue;
    use audb_storage::{au_row, certain_row, Schema, Tuple};

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    /// Example 8: the AU-relation of Example 7 bounds both worlds.
    #[test]
    fn example_8_bounds_both_worlds() {
        let schema = Schema::named(&["A", "B"]);
        let au = AuRelation::from_rows(
            schema.clone(),
            vec![
                certain_row(&[1, 1], 2, 2, 3),
                au_row(
                    vec![RangeValue::certain(1i64), RangeValue::range(1i64, 1i64, 3i64)],
                    2,
                    3,
                    3,
                ),
                au_row(
                    vec![RangeValue::range(1i64, 2i64, 2i64), RangeValue::certain(3i64)],
                    1,
                    1,
                    1,
                ),
            ],
        );
        let d1 = Relation::from_rows(schema.clone(), vec![(it(&[1, 1]), 5), (it(&[2, 3]), 1)]);
        let d2 = Relation::from_rows(
            schema.clone(),
            vec![(it(&[1, 1]), 2), (it(&[1, 3]), 2), (it(&[2, 4]), 1)],
        );
        assert!(relation_bounds_world(&au, &d1));
        // d2's (2,4) is not bounded by any AU tuple (B=4 out of range)
        assert!(!relation_bounds_world(&au, &d2));
        // the paper's D2 has (2,4) — but tuple 3's B is certain 3, so the
        // world is only bounded if the last tuple is (2,3):
        let d2fix =
            Relation::from_rows(schema, vec![(it(&[1, 1]), 2), (it(&[1, 3]), 2), (it(&[2, 3]), 1)]);
        assert!(relation_bounds_world(&au, &d2fix));
    }

    #[test]
    fn lower_bound_violation_detected() {
        let schema = Schema::named(&["A"]);
        // AU tuple demands at least 2 copies of something in [1..3]
        let au = AuRelation::from_rows(
            schema.clone(),
            vec![au_row(vec![RangeValue::range(1i64, 2i64, 3i64)], 2, 2, 2)],
        );
        let ok = Relation::from_rows(schema.clone(), vec![(it(&[1]), 1), (it(&[3]), 1)]);
        assert!(relation_bounds_world(&au, &ok));
        let bad = Relation::from_rows(schema, vec![(it(&[1]), 1)]);
        assert!(!relation_bounds_world(&au, &bad));
    }

    #[test]
    fn upper_bound_violation_detected() {
        let schema = Schema::named(&["A"]);
        let au = AuRelation::from_rows(
            schema.clone(),
            vec![au_row(vec![RangeValue::range(1i64, 2i64, 3i64)], 0, 1, 2)],
        );
        let ok = Relation::from_rows(schema.clone(), vec![(it(&[2]), 2)]);
        assert!(relation_bounds_world(&au, &ok));
        let bad = Relation::from_rows(schema, vec![(it(&[2]), 3)]);
        assert!(!relation_bounds_world(&au, &bad));
    }

    /// Overlapping AU tuples: the matching must *split* a world tuple's
    /// multiplicity across them (the ambiguity Section 4 discusses).
    #[test]
    fn splitting_across_overlapping_tuples() {
        let schema = Schema::named(&["A"]);
        let au = AuRelation::from_rows(
            schema.clone(),
            vec![
                au_row(vec![RangeValue::range(1i64, 2i64, 3i64)], 1, 1, 1),
                au_row(vec![RangeValue::range(2i64, 3i64, 5i64)], 1, 1, 1),
            ],
        );
        // one tuple (2) with multiplicity 2: each AU tuple takes one copy
        let w = Relation::from_rows(schema.clone(), vec![(it(&[2]), 2)]);
        assert!(relation_bounds_world(&au, &w));
        // multiplicity 3 exceeds the combined upper bounds
        let w = Relation::from_rows(schema, vec![(it(&[2]), 3)]);
        assert!(!relation_bounds_world(&au, &w));
    }

    #[test]
    fn empty_world_needs_no_matching_unless_lb() {
        let schema = Schema::named(&["A"]);
        let empty = Relation::empty(schema.clone());
        let optional = AuRelation::from_rows(schema.clone(), vec![certain_row(&[1], 0, 1, 1)]);
        assert!(relation_bounds_world(&optional, &empty));
        let required = AuRelation::from_rows(schema, vec![certain_row(&[1], 1, 1, 1)]);
        assert!(!relation_bounds_world(&required, &empty));
    }
}
