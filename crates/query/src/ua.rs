//! Query evaluation over UA-DBs (Section 3.3, [Feng et al. 2019]) — the
//! baseline model AU-DBs extend — as two runs of the det reference.
//!
//! `N_UA` is `N × N` with pointwise `+` and `·`, so both projections
//! `N_UA → N` (to the certain and to the SG multiplicity) are semiring
//! homomorphisms, and `RA+` over K-relations commutes with semiring
//! homomorphisms (Green, Karvounarakis, Tannen, PODS 2007). A UA query
//! is therefore [`eval_det`] over the certain world (every tuple at its
//! certain multiplicity) zipped with [`eval_det`] over the SG world.
//! `δ` maps each component's non-zero multiplicities to 1, so it
//! commutes too.
//!
//! `γ`: aggregation has no certain answers over UA-DBs (the paper's
//! Section 12.3). It runs on the SG world only; on the certain side it
//! is the empty relation (`σ_false(γ)`), which `σ`, `π`, `δ` and `⋈`
//! keep empty and `∪` drops, so a certain-side plan never evaluates one.
//!
//! `−` is refused (`Unsupported`) before anything runs: a non-monotone
//! query needs an upper bound on possible answers, which a UA-DB does
//! not have.

use audb_core::{EvalError, UaAnnot};
use audb_storage::{Database, Relation, UaDatabase, UaRelation};

use crate::algebra::Query;
use crate::det::eval_det;

/// Evaluate a query over a UA-database.
pub fn eval_ua(db: &UaDatabase, q: &Query) -> Result<UaRelation, EvalError> {
    let certain_q = certain_side(q)?;
    let sg = eval_world(db, q, |k| k.sg)?;
    let certain = certain_q.map(|cq| eval_world(db, &cq, |k| k.certain)).transpose()?;
    // both results are in normal form: one merge by tuple zips them
    let mut out = UaRelation::empty(sg.schema.clone());
    let mut c = certain.iter().flat_map(Relation::rows).peekable();
    for (t, ks) in sg.rows() {
        while let Some((tc, kc)) = c.next_if(|(tc, _)| tc < t) {
            out.push(tc.clone(), UaAnnot::new(*kc, 0));
        }
        let kc = c.next_if(|(tc, _)| tc == t).map_or(0, |(_, k)| *k);
        out.push(t.clone(), UaAnnot::new(kc, *ks));
    }
    for (t, k) in c {
        out.push(t.clone(), UaAnnot::new(*k, 0));
    }
    Ok(out)
}

/// `q` over the world of `db` that holds every tuple at multiplicity
/// `pick` of its annotation.
fn eval_world(
    db: &UaDatabase,
    q: &Query,
    pick: fn(&UaAnnot) -> u64,
) -> Result<Relation, EvalError> {
    let mut world = Database::new();
    for name in q.table_refs() {
        let rel = db.get(name)?;
        let rows = rel.rows().iter().filter(|(_, k)| pick(k) > 0);
        let rows = rows.map(|(t, k)| (t.clone(), pick(k))).collect();
        world.insert(name, Relation::from_rows(rel.schema.clone(), rows));
    }
    eval_det(&world, q)
}

/// `q` as the certain world runs it. A `γ` has no certain answers; the
/// empty relation it leaves (`None`) stays empty under `σ`, `π`, `δ`
/// and `⋈`, and `∪` keeps its other side. `Unsupported` if `q` contains
/// a difference.
fn certain_side(q: &Query) -> Result<Option<Query>, EvalError> {
    let sub = |q: &Query| -> Result<_, EvalError> { Ok(certain_side(q)?.map(Box::new)) };
    Ok(match q {
        Query::Table(_) => Some(q.clone()),
        Query::Select { input, predicate } => {
            sub(input)?.map(|input| Query::Select { input, predicate: predicate.clone() })
        }
        Query::Project { input, exprs } => {
            sub(input)?.map(|input| Query::Project { input, exprs: exprs.clone() })
        }
        Query::Distinct { input } => sub(input)?.map(|input| Query::Distinct { input }),
        Query::Join { left, right, predicate } => match (sub(left)?, sub(right)?) {
            (Some(left), Some(right)) => {
                Some(Query::Join { left, right, predicate: predicate.clone() })
            }
            _ => None,
        },
        Query::Union { left, right } => match (sub(left)?, sub(right)?) {
            (Some(left), Some(right)) => Some(Query::Union { left, right }),
            (side, None) | (None, side) => side.map(|q| *q),
        },
        Query::Aggregate { input, .. } => sub(input)?.and(None),
        Query::Difference { .. } => {
            return Err(EvalError::Unsupported(
                "set difference over UA-DBs (non-monotone queries need an upper bound on \
                 possible answers; use AU-DBs)"
                    .into(),
            ))
        }
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::algebra::{table, AggFunc, AggSpec};
    use audb_core::{col, lit, Semiring, Value};
    use audb_storage::{Schema, Tuple};

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    fn db() -> UaDatabase {
        let mut db = UaDatabase::new();
        db.insert(
            "r",
            UaRelation::from_rows(
                Schema::named(&["a", "b"]),
                vec![
                    (it(&[1, 10]), UaAnnot::new(1, 1)),
                    (it(&[2, 20]), UaAnnot::new(0, 1)),
                    (it(&[3, 20]), UaAnnot::new(2, 3)),
                ],
            ),
        );
        db
    }

    #[test]
    fn select_preserves_pairs() {
        let q = table("r").select(col(1).eq(lit(20i64)));
        let out = eval_ua(&db(), &q).unwrap();
        assert_eq!(out.annotation(&it(&[3, 20])), UaAnnot::new(2, 3));
        assert_eq!(out.annotation(&it(&[1, 10])), UaAnnot::zero());
    }

    #[test]
    fn projection_sums_pairs() {
        let q = table("r").project(vec![(col(1), "b")]);
        let out = eval_ua(&db(), &q).unwrap();
        assert_eq!(out.annotation(&it(&[20])), UaAnnot::new(2, 4));
    }

    #[test]
    fn join_multiplies_pairs() {
        let q = table("r").join_on(table("r"), col(1).eq(col(3)));
        let out = eval_ua(&db(), &q).unwrap();
        assert_eq!(out.annotation(&it(&[3, 20, 3, 20])), UaAnnot::new(4, 9));
        assert_eq!(out.annotation(&it(&[2, 20, 3, 20])), UaAnnot::new(0, 3));
    }

    #[test]
    fn difference_unsupported() {
        let q = table("r").difference(table("r"));
        assert!(matches!(eval_ua(&db(), &q), Err(EvalError::Unsupported(_))));
    }

    #[test]
    fn aggregation_has_no_certain_answers() {
        let q = table("r").aggregate(vec![1], vec![AggSpec::new(AggFunc::Sum, col(0), "s")]);
        let out = eval_ua(&db(), &q).unwrap();
        assert_eq!(out.len(), 2);
        for (_, k) in out.rows() {
            assert_eq!(k.certain, 0);
            assert_eq!(k.sg, 1);
        }
        // SGW values match deterministic aggregation
        assert_eq!(out.annotation(&it(&[20, 11,])), UaAnnot::new(0, 1));
    }

    /// An `Int` key meets the `Float` key of the same number, as in the
    /// det and AU joins, and each component of the result is `eval_det`
    /// over that component's world.
    #[test]
    fn mixed_numeric_join_keys_meet() {
        let float_row = |k: f64| Tuple::new(vec![Value::float(k), Value::Int(7)]);
        let s = vec![(float_row(2.0), UaAnnot::new(1, 2)), (float_row(3.0), UaAnnot::new(1, 1))];
        let mut db = db();
        db.insert("s", UaRelation::from_rows(Schema::named(&["k", "c"]), s));
        let q = table("r").join_on(table("s"), col(0).eq(col(2)));
        let out = eval_ua(&db, &q).unwrap();
        let joined = |a: i64, b: i64, k: f64| it(&[a, b]).concat(&float_row(k));
        assert_eq!(out.annotation(&joined(2, 20, 2.0)), UaAnnot::new(0, 2));
        assert_eq!(out.annotation(&joined(3, 20, 3.0)), UaAnnot::new(2, 3));
        assert_eq!(out.len(), 2);

        let world = |pick: fn(&UaAnnot) -> u64| {
            let mut w = Database::new();
            for (name, rel) in db.iter() {
                let rows = rel.rows().iter().map(|(t, k)| (t.clone(), pick(k))).collect();
                w.insert(name.clone(), Relation::from_rows(rel.schema.clone(), rows));
            }
            eval_det(&w, &q).unwrap()
        };
        let component = |pick: fn(&UaAnnot) -> u64| {
            let rows = out.rows().iter().map(|(t, k)| (t.clone(), pick(k))).collect();
            Relation::from_rows(out.schema.clone(), rows)
        };
        for pick in [|k: &UaAnnot| k.certain, |k: &UaAnnot| k.sg] {
            assert_eq!(component(pick), world(pick));
        }
    }
}
