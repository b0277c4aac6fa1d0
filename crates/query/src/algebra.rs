//! The logical algebra `RA^agg`: full relational algebra (selection,
//! generalized projection, theta-join, union, difference, duplicate
//! elimination) plus grouping/aggregation — the query class AU-DBs are
//! closed under (Corollary 2).

use std::fmt;

use audb_core::{EvalError, Expr};
use audb_storage::{AuDatabase, Database, Schema};

/// Aggregation functions. `Avg` is derived from `Sum`/`Count` exactly as
/// in Section 10.2; `Count` is `count(*)` (multiplicity-weighted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Count,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate: `f(e) AS name`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub input: Expr,
    pub name: String,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: Expr, name: impl Into<String>) -> Self {
        AggSpec { func, input, name: name.into() }
    }

    pub fn count(name: impl Into<String>) -> Self {
        AggSpec::new(AggFunc::Count, audb_core::lit(1i64), name)
    }
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Base-table access.
    Table(String),
    /// `σ_θ(Q)`.
    Select { input: Box<Query>, predicate: Expr },
    /// Generalized projection `π_{e_1 → A_1, ...}(Q)`.
    Project { input: Box<Query>, exprs: Vec<(Expr, String)> },
    /// Theta-join (cross product when `predicate` is `None`); the
    /// predicate refers to columns of the concatenated schema.
    Join { left: Box<Query>, right: Box<Query>, predicate: Option<Expr> },
    /// Bag union.
    Union { left: Box<Query>, right: Box<Query> },
    /// Bag difference (monus).
    Difference { left: Box<Query>, right: Box<Query> },
    /// Duplicate elimination `δ`.
    Distinct { input: Box<Query> },
    /// Grouping + aggregation `γ_{G; f_1(A_1), ...}(Q)`. `group_by` are
    /// column indices of the input.
    Aggregate { input: Box<Query>, group_by: Vec<usize>, aggs: Vec<AggSpec> },
}

/// `group_by` against its input's `arity`: a column past it is
/// [`EvalError::UnknownColumn`] — checked before anything reads one.
pub(crate) fn check_group_by(group_by: &[usize], arity: usize) -> Result<(), EvalError> {
    match group_by.iter().find(|&&c| c >= arity) {
        Some(&c) => Err(EvalError::UnknownColumn(c)),
        None => Ok(()),
    }
}

/// Start a plan from a base table.
pub fn table(name: impl Into<String>) -> Query {
    Query::Table(name.into())
}

impl Query {
    pub fn select(self, predicate: Expr) -> Query {
        Query::Select { input: Box::new(self), predicate }
    }

    pub fn project(self, exprs: Vec<(Expr, &str)>) -> Query {
        Query::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
        }
    }

    pub fn project_cols(self, cols: &[usize], names: &[&str]) -> Query {
        Query::Project {
            input: Box::new(self),
            exprs: cols
                .iter()
                .zip(names)
                .map(|(c, n)| (audb_core::col(*c), n.to_string()))
                .collect(),
        }
    }

    pub fn join_on(self, right: Query, predicate: Expr) -> Query {
        Query::Join { left: Box::new(self), right: Box::new(right), predicate: Some(predicate) }
    }

    pub fn cross(self, right: Query) -> Query {
        Query::Join { left: Box::new(self), right: Box::new(right), predicate: None }
    }

    pub fn union(self, right: Query) -> Query {
        Query::Union { left: Box::new(self), right: Box::new(right) }
    }

    pub fn difference(self, right: Query) -> Query {
        Query::Difference { left: Box::new(self), right: Box::new(right) }
    }

    pub fn distinct(self) -> Query {
        Query::Distinct { input: Box::new(self) }
    }

    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Query {
        Query::Aggregate { input: Box::new(self), group_by, aggs }
    }

    /// Names of the base tables the plan reads (each once).
    pub fn table_refs(&self) -> std::collections::BTreeSet<&str> {
        fn walk<'q>(q: &'q Query, out: &mut std::collections::BTreeSet<&'q str>) {
            match q {
                Query::Table(name) => {
                    out.insert(name.as_str());
                }
                Query::Select { input, .. }
                | Query::Project { input, .. }
                | Query::Distinct { input }
                | Query::Aggregate { input, .. } => walk(input, out),
                Query::Join { left, right, .. }
                | Query::Union { left, right }
                | Query::Difference { left, right } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut out = std::collections::BTreeSet::new();
        walk(self, &mut out);
        out
    }

    /// Number of operators (plan size).
    pub fn size(&self) -> usize {
        match self {
            Query::Table(_) => 1,
            Query::Select { input, .. }
            | Query::Project { input, .. }
            | Query::Distinct { input }
            | Query::Aggregate { input, .. } => 1 + input.size(),
            Query::Join { left, right, .. }
            | Query::Union { left, right }
            | Query::Difference { left, right } => 1 + left.size() + right.size(),
        }
    }

    /// Output schema given a catalog of base-table schemas.
    pub fn schema(&self, catalog: &dyn Catalog) -> Result<Schema, EvalError> {
        match self {
            Query::Table(name) => catalog.table_schema(name),
            Query::Select { input, .. } | Query::Distinct { input } => input.schema(catalog),
            Query::Project { input, exprs } => {
                input.schema(catalog)?; // validate subtree
                Ok(Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect()))
            }
            Query::Join { left, right, .. } => {
                Ok(left.schema(catalog)?.concat(&right.schema(catalog)?))
            }
            Query::Union { left, right } | Query::Difference { left, right } => {
                let l = left.schema(catalog)?;
                let r = right.schema(catalog)?;
                l.check_union_compatible(&r)?;
                Ok(l)
            }
            Query::Aggregate { input, group_by, aggs } => {
                let in_schema = input.schema(catalog)?;
                check_group_by(group_by, in_schema.arity())?;
                let mut cols: Vec<String> =
                    group_by.iter().map(|c| in_schema.column_name(*c).to_string()).collect();
                cols.extend(aggs.iter().map(|a| a.name.clone()));
                Ok(Schema::new(cols))
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Table(n) => write!(f, "{n}"),
            Query::Select { input, predicate } => write!(f, "σ[{predicate}]({input})"),
            Query::Project { input, exprs } => {
                let cols: Vec<String> = exprs.iter().map(|(e, n)| format!("{e}→{n}")).collect();
                write!(f, "π[{}]({input})", cols.join(", "))
            }
            Query::Join { left, right, predicate: Some(p) } => {
                write!(f, "({left} ⋈[{p}] {right})")
            }
            Query::Join { left, right, predicate: None } => write!(f, "({left} × {right})"),
            Query::Union { left, right } => write!(f, "({left} ∪ {right})"),
            Query::Difference { left, right } => write!(f, "({left} − {right})"),
            Query::Distinct { input } => write!(f, "δ({input})"),
            Query::Aggregate { input, group_by, aggs } => {
                let a: Vec<String> = aggs
                    .iter()
                    .map(|s| format!("{}({})→{}", s.func.name(), s.input, s.name))
                    .collect();
                write!(f, "γ[{:?}; {}]({input})", group_by, a.join(", "))
            }
        }
    }
}

/// Schema lookup for base tables — implemented by each database flavour.
pub trait Catalog {
    fn table_schema(&self, name: &str) -> Result<Schema, EvalError>;
}

impl Catalog for Database {
    fn table_schema(&self, name: &str) -> Result<Schema, EvalError> {
        Ok(self.get(name)?.schema.clone())
    }
}

impl Catalog for AuDatabase {
    fn table_schema(&self, name: &str) -> Result<Schema, EvalError> {
        Ok(self.get(name)?.schema.clone())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::{col, lit};
    use audb_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert("r", Relation::empty(Schema::named(&["a", "b"])));
        db.insert("s", Relation::empty(Schema::named(&["c"])));
        db
    }

    #[test]
    fn schema_inference() {
        let db = db();
        let q = table("r")
            .select(col(0).gt(lit(1i64)))
            .join_on(table("s"), col(1).eq(col(2)))
            .project(vec![(col(0), "x"), (col(2).add(lit(1i64)), "y")]);
        assert_eq!(q.schema(&db).unwrap(), Schema::named(&["x", "y"]));
    }

    #[test]
    fn aggregate_schema() {
        let db = db();
        let q = table("r").aggregate(
            vec![1],
            vec![AggSpec::new(AggFunc::Sum, col(0), "total"), AggSpec::count("cnt")],
        );
        assert_eq!(q.schema(&db).unwrap(), Schema::named(&["b", "total", "cnt"]));
    }

    #[test]
    fn union_compatibility_checked() {
        let db = db();
        let bad = table("r").union(table("s"));
        assert!(bad.schema(&db).is_err());
    }

    #[test]
    fn join_schema_renames() {
        let db = db();
        let q = table("r").cross(table("r"));
        assert_eq!(q.schema(&db).unwrap(), Schema::named(&["a", "b", "a_r", "b_r"]));
    }

    #[test]
    fn plan_size() {
        let q = table("r").select(lit(true)).cross(table("s"));
        assert_eq!(q.size(), 4);
    }
}
