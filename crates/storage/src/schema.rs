//! Relation schemas: named, positional attribute lists.

use std::fmt;

use audb_core::EvalError;

/// A relation schema `Sch(R) = ⟨A_1, ..., A_n⟩`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    columns: Vec<String>,
}

impl Schema {
    pub fn new(columns: Vec<String>) -> Self {
        Schema { columns }
    }

    pub fn named(columns: &[&str]) -> Self {
        Schema { columns: columns.iter().map(|c| c.to_string()).collect() }
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn column_name(&self, i: usize) -> &str {
        &self.columns[i]
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize, EvalError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| EvalError::NotFound(format!("column {name}")))
    }

    /// Schema of a product: right-hand duplicates get a `_r` suffix.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        for c in &other.columns {
            if columns.contains(c) {
                columns.push(format!("{c}_r"));
            } else {
                columns.push(c.clone());
            }
        }
        Schema { columns }
    }

    /// Sub-schema selecting the given columns.
    pub fn select(&self, cols: &[usize]) -> Schema {
        Schema { columns: cols.iter().map(|c| self.columns[*c].clone()).collect() }
    }

    /// Check union-compatibility (same arity; names may differ — the
    /// left schema wins, as in SQL).
    pub fn check_union_compatible(&self, other: &Schema) -> Result<(), EvalError> {
        if self.arity() != other.arity() {
            return Err(EvalError::SchemaMismatch(format!(
                "arity {} vs {}",
                self.arity(),
                other.arity()
            )));
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.columns.join(", "))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = Schema::named(&["a", "b"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("z").is_err());
    }

    #[test]
    fn concat_renames_duplicates() {
        let s = Schema::named(&["a", "b"]);
        let t = Schema::named(&["b", "c"]);
        let u = s.concat(&t);
        assert_eq!(u.columns(), &["a", "b", "b_r", "c"]);
    }

    #[test]
    fn union_compat() {
        let s = Schema::named(&["a", "b"]);
        assert!(s.check_union_compatible(&Schema::named(&["x", "y"])).is_ok());
        assert!(s.check_union_compatible(&Schema::named(&["x"])).is_err());
    }
}
