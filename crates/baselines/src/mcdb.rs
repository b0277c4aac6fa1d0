//! `MCDB` — Monte-Carlo database sampling in the spirit of Jampani et
//! al.: evaluate the query over `n` sampled worlds ("tuple bundles"
//! approximated by independent samples, as in the paper's Section 12)
//! and count how often each tuple is seen. Supports arbitrary queries
//! but returns estimates, not guarantees: possible tuples can be missed.

use std::collections::BTreeMap;

use audb_core::EvalError;
use audb_incomplete::XDb;
use audb_query::{eval_det, Query};
use audb_storage::{Relation, Tuple};

/// Result of an MCDB run: one deterministic result per sampled world.
#[derive(Debug, Clone)]
pub struct McdbResult {
    pub samples: Vec<Relation>,
}

/// Run a query over `n` worlds sampled from an x-database.
pub fn run_mcdb(
    xdb: &XDb,
    q: &Query,
    n: usize,
    rng: &mut impl rand::Rng,
) -> Result<McdbResult, EvalError> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let world = xdb.sample_world(rng);
        samples.push(eval_det(&world, q)?);
    }
    Ok(McdbResult { samples })
}

impl McdbResult {
    /// Tuples appearing in at least one sample (the estimate of the
    /// possible answers).
    pub fn seen_tuples(&self) -> BTreeMap<Tuple, usize> {
        let mut out: BTreeMap<Tuple, usize> = BTreeMap::new();
        for s in &self.samples {
            for (t, _) in s.rows() {
                *out.entry(t.clone()).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_incomplete::{XRelation, XTuple};
    use audb_query::table;
    use audb_storage::Schema;
    use rand::SeedableRng;

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
                ],
            ),
        );
        db
    }

    #[test]
    fn samples_cover_alternatives() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let q = table("r");
        let res = run_mcdb(&xdb(), &q, 20, &mut rng).unwrap();
        let seen = res.seen_tuples();
        assert!(seen.contains_key(&it(&[1, 10])));
        // with 20 samples both alternatives almost surely appear
        assert!(seen.contains_key(&it(&[1, 20])));
        assert!(seen.contains_key(&it(&[1, 30])));
    }
}
