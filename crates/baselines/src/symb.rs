//! `Symb` — symbolic aggregate-bound computation (the paper compares
//! against aggregate semimodule expressions solved with Z3).
//!
//! Substitution note (DESIGN.md): instead of an SMT solver over symbolic
//! expressions we compute *exact* result bounds by exhaustively
//! enumerating possible worlds (the same tight answers, with the same
//! exponential blow-up in the amount of uncertainty that makes the
//! approach "only competitive for low #agg-ops" in Figure 11 —
//! per-world evaluation cost grows with the number of chained
//! aggregation operators).

use std::collections::BTreeMap;

use audb_core::{EvalError, Value};
use audb_incomplete::XDb;
use audb_query::{eval_det, Query};
use audb_storage::Tuple;

/// Exact per-key bounds of a query result across all worlds of an
/// x-database: rows keyed by `key_cols`, bounds over `val_col`.
/// Returns `None` when the number of worlds exceeds `max_worlds`.
pub struct SymbBounds {
    /// key → (min value, max value, #worlds containing the key)
    pub per_key: BTreeMap<Tuple, (Value, Value, u64)>,
    pub world_count: u64,
}

pub fn run_symb(
    xdb: &XDb,
    q: &Query,
    key_cols: &[usize],
    val_col: usize,
    max_worlds: u64,
) -> Result<Option<SymbBounds>, EvalError> {
    let mut per_key: BTreeMap<Tuple, (Value, Value, u64)> = BTreeMap::new();
    let mut world_count = 0u64;
    let complete = xdb.for_each_world(max_worlds, |world| {
        world_count += 1;
        let res = eval_det(&world, q)?;
        for (t, _) in res.rows() {
            let key = t.project(key_cols);
            let v = t.0[val_col].clone();
            per_key
                .entry(key)
                .and_modify(|(lo, hi, c)| {
                    *lo = Value::min_of(lo.clone(), v.clone());
                    *hi = Value::max_of(hi.clone(), v.clone());
                    *c += 1;
                })
                .or_insert_with(|| (v.clone(), v, 1));
        }
        Ok(())
    })?;
    if !complete {
        return Ok(None);
    }
    Ok(Some(SymbBounds { per_key, world_count }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::col;
    use audb_incomplete::{XRelation, XTuple};
    use audb_query::{table, AggFunc, AggSpec};
    use audb_storage::Schema;

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    fn xdb() -> XDb {
        let mut db = XDb::default();
        db.insert(
            "r",
            XRelation::new(
                Schema::named(&["g", "v"]),
                vec![
                    XTuple::certain(it(&[1, 10])),
                    XTuple::new(vec![(it(&[1, 20]), 0.5), (it(&[1, 30]), 0.5)]),
                    XTuple::new(vec![(it(&[1, 5]), 0.4)]),
                ],
            ),
        );
        db
    }

    #[test]
    fn world_enumeration_count() {
        let db = xdb();
        let mut count = 0;
        let done = db
            .for_each_world(100, |_| {
                count += 1;
                Ok(())
            })
            .unwrap();
        assert!(done);
        assert_eq!(count, 2 * 2); // 2 alternatives × (present/absent)
    }

    #[test]
    fn exact_aggregate_bounds() {
        let db = xdb();
        let q = table("r").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
        let b = run_symb(&db, &q, &[0], 1, 1000).unwrap().unwrap();
        let (lo, hi, c) = &b.per_key[&it(&[1])];
        // sums: 10+20=30, 10+30=40, +5 optionally → {30,35,40,45}
        assert_eq!(lo, &Value::Int(30));
        assert_eq!(hi, &Value::Int(45));
        assert_eq!(*c, 4);
    }

    #[test]
    fn budget_cutoff() {
        let db = xdb();
        let q = table("r");
        assert!(run_symb(&db, &q, &[0], 1, 2).unwrap().is_none());
    }

    /// Symb bounds are tight: the AU-DB bounds always contain them.
    #[test]
    fn symb_is_tight_reference() {
        use audb_query::{eval_au, AuConfig};
        let db = xdb();
        let q = table("r").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
        let exact = run_symb(&db, &q, &[0], 1, 1000).unwrap().unwrap();
        let au = eval_au(&db.to_au(), &q, &AuConfig::precise()).unwrap();
        for (key, (lo, hi, _)) in &exact.per_key {
            let row = au
                .rows()
                .iter()
                .find(|(t, _)| t.project(&[0]).sg() == *key)
                .expect("group present");
            let bounds = &row.0 .0[1];
            assert!(bounds.lb <= *lo && *hi <= bounds.ub);
        }
    }
}
