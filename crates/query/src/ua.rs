//! Query evaluation over UA-DBs (Section 3.3, [Feng et al. 2019]) —
//! the baseline model AU-DBs extend. `RA+` preserves UA bounds; set
//! difference is *not* supported (no upper bound on possible answers);
//! aggregation degrades to SGW results with no certain annotations, as
//! discussed in the paper's Section 12.3.

use std::collections::HashMap;

use audb_core::{EvalError, Semiring, UaAnnot, Value};
use audb_storage::{Schema, Tuple, UaDatabase, UaRelation};

use crate::algebra::Query;
use crate::det;

/// Evaluate a query over a UA-database.
pub fn eval_ua(db: &UaDatabase, q: &Query) -> Result<UaRelation, EvalError> {
    Ok(eval_walk(db, q)?.normalized_rel())
}

trait NormalizedExt {
    fn normalized_rel(self) -> UaRelation;
}
impl NormalizedExt for UaRelation {
    fn normalized_rel(mut self) -> UaRelation {
        self.normalize();
        self
    }
}

fn eval_walk(db: &UaDatabase, q: &Query) -> Result<UaRelation, EvalError> {
    match q {
        Query::Table(name) => Ok(db.get(name)?.clone()),
        Query::Select { input, predicate } => {
            let rel = eval_walk(db, input)?;
            let mut out = UaRelation::empty(rel.schema.clone());
            for (t, k) in rel.rows() {
                if predicate.eval_bool(t.values())? {
                    out.push(t.clone(), *k);
                }
            }
            Ok(out)
        }
        Query::Project { input, exprs } => {
            let rel = eval_walk(db, input)?;
            let schema = Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect());
            let mut out = UaRelation::empty(schema);
            for (t, k) in rel.rows() {
                let vals: Result<Vec<Value>, _> =
                    exprs.iter().map(|(e, _)| e.eval(t.values())).collect();
                out.push(Tuple::new(vals?), *k);
            }
            Ok(out)
        }
        Query::Join { left, right, predicate } => {
            let l = eval_walk(db, left)?;
            let r = eval_walk(db, right)?;
            join_ua(&l, &r, predicate.as_ref())
        }
        Query::Union { left, right } => {
            let l = eval_walk(db, left)?;
            let r = eval_walk(db, right)?;
            l.schema.check_union_compatible(&r.schema)?;
            let mut out = l;
            for (t, k) in r.rows() {
                out.push(t.clone(), *k);
            }
            Ok(out)
        }
        Query::Difference { .. } => Err(EvalError::Unsupported(
            "set difference over UA-DBs (non-monotone queries need an upper bound on possible \
             answers; use AU-DBs)"
                .into(),
        )),
        Query::Distinct { input } => {
            let rel = eval_walk(db, input)?.normalized_rel();
            let mut out = UaRelation::empty(rel.schema.clone());
            for (t, k) in rel.rows() {
                out.push(
                    t.clone(),
                    UaAnnot::new(if k.certain > 0 { 1 } else { 0 }, if k.sg > 0 { 1 } else { 0 }),
                );
            }
            Ok(out)
        }
        Query::Aggregate { input, group_by, aggs } => {
            // Aggregates over UA-DBs return no certain answers (paper
            // §12.3): compute the SGW result deterministically and mark
            // every output tuple with certain multiplicity 0.
            let rel = eval_walk(db, input)?;
            let sgw = rel.sg_world();
            let agg = det::aggregate_det(&sgw, group_by, aggs)?;
            let mut out = UaRelation::empty(agg.schema.clone());
            for (t, k) in agg.rows() {
                out.push(t.clone(), UaAnnot::new(0, *k));
            }
            Ok(out)
        }
    }
}

fn join_ua(
    l: &UaRelation,
    r: &UaRelation,
    predicate: Option<&Expr>,
) -> Result<UaRelation, EvalError> {
    let schema = l.schema.concat(&r.schema);
    let split = l.schema.arity();
    let mut out = UaRelation::empty(schema);

    if let Some(pairs) = predicate.and_then(|p| p.equi_join_columns(split)) {
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, (t, _)) in r.rows().iter().enumerate() {
            let key: Vec<Value> = pairs.iter().map(|(_, rc)| t.0[*rc].clone()).collect();
            index.entry(key).or_default().push(i);
        }
        for (tl, kl) in l.rows() {
            let key: Vec<Value> = pairs.iter().map(|(lc, _)| tl.0[*lc].clone()).collect();
            if let Some(matches) = index.get(&key) {
                for &i in matches {
                    let (tr, kr) = &r.rows()[i];
                    out.push(tl.concat(tr), kl.times(kr));
                }
            }
        }
        return Ok(out);
    }

    for (tl, kl) in l.rows() {
        for (tr, kr) in r.rows() {
            let t = tl.concat(tr);
            let keep = match predicate {
                Some(p) => p.eval_bool(t.values())?,
                None => true,
            };
            if keep {
                out.push(t, kl.times(kr));
            }
        }
    }
    Ok(out)
}

use audb_core::Expr;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::algebra::{table, AggFunc, AggSpec};
    use audb_core::{col, lit};

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
}
