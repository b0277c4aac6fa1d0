//! Data-cleaning lenses (Section 11.4): expose the uncertainty of a
//! cleaning heuristic as an incomplete database. Implemented here: the
//! *key-repair lens* used by the paper's real-world experiments
//! (Section 12.3) — groups of tuples violating a key constraint become
//! x-tuples whose alternatives are the conflicting rows.

use audb_storage::{Relation, Tuple};
use std::collections::HashMap;

use crate::xdb::{XRelation, XTuple};

/// Repair key violations: group rows by the key attributes; each group
/// becomes one x-tuple with uniform probabilities over its members
/// (the selected guess is the first row of the group, mirroring the
/// paper's "randomly pick one tuple for the SGW").
pub fn key_repair_lens(rel: &Relation, key: &[usize]) -> XRelation {
    let mut groups: HashMap<Tuple, Vec<Tuple>> = HashMap::new();
    let mut order: Vec<Tuple> = Vec::new();
    for (t, k) in rel.rows() {
        let kt = t.project(key);
        let entry = groups.entry(kt.clone()).or_insert_with(|| {
            order.push(kt);
            Vec::new()
        });
        for _ in 0..*k {
            entry.push(t.clone());
        }
    }
    let mut xtuples = Vec::with_capacity(order.len());
    for kt in order {
        let members = groups.remove(&kt).unwrap();
        let p = 1.0 / members.len() as f64;
        // give the first member the residual so the probabilities sum to
        // exactly 1 (the x-tuple is certain: some repair exists)
        let mut alts: Vec<(Tuple, f64)> = members.into_iter().map(|t| (t, p)).collect();
        let total: f64 = alts.iter().map(|(_, q)| q).sum();
        alts[0].1 += 1.0 - total;
        // make the first member the selected guess deterministically
        alts[0].1 += 1e-9;
        let norm: f64 = alts.iter().map(|(_, q)| q).sum();
        for a in alts.iter_mut() {
            a.1 /= norm;
        }
        xtuples.push(XTuple::new(alts));
    }
    XRelation::new(rel.schema.clone(), xtuples)
}

/// Statistics about a key-repair problem (percentage of uncertain
/// tuples, average possibilities per uncertain tuple — the numbers
/// Figure 17 reports per dataset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairStats {
    pub total_keys: usize,
    pub violating_keys: usize,
    pub avg_possibilities: f64,
}

pub fn repair_stats(x: &XRelation) -> RepairStats {
    let violating: Vec<usize> = x
        .xtuples
        .iter()
        .filter(|t| t.alternatives.len() > 1)
        .map(|t| t.alternatives.len())
        .collect();
    RepairStats {
        total_keys: x.xtuples.len(),
        violating_keys: violating.len(),
        avg_possibilities: if violating.is_empty() {
            0.0
        } else {
            violating.iter().sum::<usize>() as f64 / violating.len() as f64
        },
    }
}

/// The `MakeUncertain(e↓, e^sg, e↑)` construct (Example 16): wrap a
/// computed selected guess with explicit bounds.
pub fn make_uncertain(
    lb: audb_core::Value,
    sg: audb_core::Value,
    ub: audb_core::Value,
) -> Result<audb_core::RangeValue, audb_core::EvalError> {
    audb_core::RangeValue::new(lb, sg, ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xdb::XDb;
    use audb_core::Value;
    use audb_storage::Schema;

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    fn dirty() -> Relation {
        Relation::from_rows(
            Schema::named(&["k", "v"]),
            vec![
                (it(&[1, 10]), 1),
                (it(&[1, 11]), 1),
                (it(&[2, 20]), 1),
                (it(&[3, 30]), 1),
                (it(&[3, 31]), 1),
                (it(&[3, 32]), 1),
            ],
        )
    }

    #[test]
    fn groups_by_key() {
        let x = key_repair_lens(&dirty(), &[0]);
        assert_eq!(x.xtuples.len(), 3);
        let stats = repair_stats(&x);
        assert_eq!(stats.total_keys, 3);
        assert_eq!(stats.violating_keys, 2);
        assert!((stats.avg_possibilities - 2.5).abs() < 1e-9);
    }

    #[test]
    fn each_group_certainly_exists() {
        let x = key_repair_lens(&dirty(), &[0]);
        for t in &x.xtuples {
            assert!(!t.is_optional(), "a repaired key always has one row");
        }
    }

    #[test]
    fn au_translation_covers_all_repairs() {
        let x = key_repair_lens(&dirty(), &[0]);
        let au = x.to_au();
        // key 3's value ranges over [30, 32]
        let row = au.rows().iter().find(|(t, _)| t.0[0].sg == Value::Int(3)).unwrap();
        assert_eq!(row.0 .0[1].lb, Value::Int(30));
        assert_eq!(row.0 .0[1].ub, Value::Int(32));
        assert_eq!(row.1.lb, 1, "repaired tuple certainly exists");
    }

    #[test]
    fn repairs_enumerate_worlds() {
        let mut db = XDb::default();
        db.insert("r", key_repair_lens(&dirty(), &[0]));
        let inc = db.to_incomplete(100).unwrap();
        assert_eq!(inc.worlds.len(), 2 * 3);
    }

    #[test]
    fn make_uncertain_validates() {
        assert!(make_uncertain(Value::Int(1), Value::Int(2), Value::Int(3)).is_ok());
        assert!(make_uncertain(Value::Int(3), Value::Int(2), Value::Int(3)).is_err());
    }
}
