//! Deterministic bag relations (`N`-relations) and databases — the
//! conventional-DBMS substrate the paper's middleware runs on.

use std::collections::BTreeMap;
use std::fmt;

use audb_core::{EvalError, ExecError, Semiring};
use audb_exec::Executor;

use crate::schema::Schema;
use crate::tuple::Tuple;

/// An `N`-relation: a bag of tuples, each with a multiplicity > 0.
///
/// Tracks whether the row list is in normal form so repeated
/// normalization is free and lookups can binary-search.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: Schema,
    rows: Vec<(Tuple, u64)>,
    normalized: bool,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}
impl Eq for Relation {}

impl Relation {
    pub fn empty(schema: Schema) -> Self {
        Relation { schema, rows: Vec::new(), normalized: true }
    }

    /// Build from rows; merges duplicates and drops zero multiplicities.
    pub fn from_rows(schema: Schema, rows: Vec<(Tuple, u64)>) -> Self {
        let mut r = Relation { schema, rows, normalized: false };
        r.normalize();
        r
    }

    /// Build from plain tuples, each with multiplicity 1.
    pub fn from_tuples(schema: Schema, tuples: Vec<Tuple>) -> Self {
        Self::from_rows(schema, tuples.into_iter().map(|t| (t, 1)).collect())
    }

    /// Build from rows already in normal form — canonically sorted,
    /// duplicate-free, with no zero multiplicities (debug-asserted).
    /// Lets operators that provably preserve normal form (e.g.
    /// selection over a normalized input) skip the sort-merge.
    pub fn from_normalized_rows(schema: Schema, rows: Vec<(Tuple, u64)>) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "rows must be strictly sorted by tuple"
        );
        debug_assert!(rows.iter().all(|(_, k)| *k > 0), "rows must have nonzero multiplicities");
        Relation { schema, rows, normalized: true }
    }

    pub fn rows(&self) -> &[(Tuple, u64)] {
        &self.rows
    }

    pub fn push(&mut self, t: Tuple, k: u64) {
        if k > 0 {
            self.rows.push((t, k));
            self.normalized = false;
        }
    }

    /// Append a batch of produced rows, dropping zero multiplicities —
    /// the ordered-merge sink of the parallel operator drivers.
    pub fn append_rows(&mut self, rows: Vec<(Tuple, u64)>) {
        for (t, k) in rows {
            self.push(t, k);
        }
    }

    /// Append clones of another relation's rows (bag union without an
    /// intermediate row-vector copy).
    pub fn extend_from(&mut self, other: &Relation) {
        if other.is_empty() {
            return;
        }
        self.rows.extend(other.rows.iter().cloned());
        self.normalized = false;
    }

    /// Is the row list known to be in normal form?
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    /// Merge duplicate tuples (sum multiplicities), drop zeros, and sort
    /// for canonical comparisons. Free when already normalized.
    ///
    /// Infallible: the sequential executor carries no cancellation
    /// token or budget, and the multiplicity fold is panic-free.
    #[allow(clippy::expect_used)] // documented infallible: ungoverned sequential executor
    pub fn normalize(&mut self) {
        self.normalize_with(&Executor::sequential())
            .expect("ungoverned sequential normalize cannot fault");
    }

    /// [`Self::normalize`] on the sort-merge driver, byte-identical for
    /// any worker count.
    /// Fallible through the runtime's governance: the input rows are
    /// charged to the executor's budget, and cancellation/deadlines are
    /// observed at morsel boundaries. On error the row list is left
    /// empty — callers propagate the fault and drop the relation.
    pub fn normalize_with(&mut self, exec: &Executor) -> Result<(), ExecError> {
        if self.normalized {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.rows);
        self.rows =
            exec.sort_merge(rows, |k: &u64| *k > 0, |acc: &mut u64, k| *acc = acc.plus(k))?;
        self.normalized = true;
        Ok(())
    }

    /// Multiplicity `R(t)`; binary search when normalized.
    pub fn multiplicity(&self, t: &Tuple) -> u64 {
        if self.normalized {
            return match self.rows.binary_search_by(|(t2, _)| t2.cmp(t)) {
                Ok(i) => self.rows[i].1,
                Err(_) => 0,
            };
        }
        self.rows.iter().filter(|(t2, _)| t2 == t).map(|(_, k)| *k).sum()
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total multiplicity (bag cardinality): a sum in `N`, saturating.
    pub fn total_count(&self) -> u64 {
        self.rows.iter().fold(0, |acc, (_, k)| acc.plus(k))
    }

    /// Canonical (normalized) clone for equality comparisons.
    pub fn normalized(&self) -> Relation {
        let mut r = self.clone();
        r.normalize();
        r
    }

    /// Consuming normal form — no clone when already normalized.
    pub fn into_normalized(mut self) -> Relation {
        self.normalize();
        self
    }

    /// Consuming [`Self::normalize_with`].
    pub fn into_normalized_with(mut self, exec: &Executor) -> Result<Relation, ExecError> {
        self.normalize_with(exec)?;
        Ok(self)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (t, k) in &self.rows {
            writeln!(f, "  {t} ↦ {k}")?;
        }
        Ok(())
    }
}

/// A deterministic database: a catalog of named relations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    pub fn get(&self, name: &str) -> Result<&Relation, EvalError> {
        self.relations.get(name).ok_or_else(|| EvalError::NotFound(format!("relation {name}")))
    }

    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.relations.keys()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter()
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    pub fn normalized(&self) -> Database {
        Database {
            relations: self.relations.iter().map(|(n, r)| (n.clone(), r.normalized())).collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn it(vs: &[i64]) -> Tuple {
        vs.iter().copied().collect()
    }

    #[test]
    fn normalize_merges_and_drops_zero() {
        let r = Relation::from_rows(
            Schema::named(&["a"]),
            vec![(it(&[1]), 2), (it(&[1]), 3), (it(&[2]), 0), (it(&[3]), 1)],
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.multiplicity(&it(&[1])), 5);
        assert_eq!(r.multiplicity(&it(&[2])), 0);
        assert_eq!(r.total_count(), 6);
    }

    #[test]
    fn database_catalog() {
        let mut db = Database::new();
        db.insert("r", Relation::from_tuples(Schema::named(&["a"]), vec![it(&[1])]));
        assert!(db.get("r").is_ok());
        assert!(db.get("s").is_err());
    }
}
