//! A SQL front-end for the `RA^agg` algebra — the surface syntax the
//! paper's examples use (`SELECT size, avg(rate) AS rate FROM locales
//! GROUP BY size`). Supports:
//!
//! ```sql
//! SELECT [DISTINCT] item [AS name], ...
//! FROM t1 [, t2 | JOIN t2 ON pred] ...
//! [WHERE pred]
//! [GROUP BY col, ...]
//! [UNION | EXCEPT <select>]
//! ```
//!
//! with the scalar operators of Definition 3, the aggregates
//! `sum/count/avg/min/max`, qualified names (`t.col`), and the
//! `make_uncertain(lb, sg, ub)` lens construct of Example 16. Parsed
//! statements lower directly to [`Query`] plans, so the same SQL runs
//! deterministically, over AU-DBs, or through the rewrite middleware.

use audb_core::{lit, EvalError, Expr, Value};

use crate::algebra::{AggFunc, AggSpec, Catalog, Query};

// ---------------------------------------------------------------------------
// tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

fn err(msg: impl Into<String>) -> EvalError {
    EvalError::Unsupported(format!("SQL: {}", msg.into()))
}

fn tokenize(sql: &str) -> Result<Vec<Tok>, EvalError> {
    let mut out = Vec::new();
    let chars: Vec<char> = sql.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(chars[start..i].iter().collect()));
        } else if c.is_ascii_digit()
            || (c == '-'
                && matches!(out.last(), None | Some(Tok::Sym(_)))
                && i + 1 < chars.len()
                && chars[i + 1].is_ascii_digit())
        {
            let start = i;
            i += 1; // first digit or the sign
            let mut is_float = false;
            while i < chars.len() && (chars[i].is_ascii_digit() || (chars[i] == '.' && !is_float)) {
                if chars[i] == '.' {
                    is_float = true;
                }
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if is_float {
                out.push(Tok::Float(text.parse().map_err(|_| err("bad float"))?));
            } else {
                out.push(Tok::Int(text.parse().map_err(|_| err("bad int"))?));
            }
        } else if c == '\'' {
            let start = i + 1;
            i += 1;
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            if i >= chars.len() {
                return Err(err("unterminated string literal"));
            }
            out.push(Tok::Str(chars[start..i].iter().collect()));
            i += 1;
        } else {
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let sym = match two.as_str() {
                "<=" | ">=" | "!=" | "<>" => {
                    i += 2;
                    match two.as_str() {
                        "<=" => "<=",
                        ">=" => ">=",
                        _ => "!=",
                    }
                }
                _ => {
                    i += 1;
                    match c {
                        '(' => "(",
                        ')' => ")",
                        ',' => ",",
                        '.' => ".",
                        '=' => "=",
                        '<' => "<",
                        '>' => ">",
                        '+' => "+",
                        '-' => "-",
                        '*' => "*",
                        '/' => "/",
                        ';' => ";",
                        other => return Err(err(format!("unexpected character {other:?}"))),
                    }
                }
            };
            out.push(Tok::Sym(sym));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

/// Deepest nesting the recursive-descent parser follows — parentheses,
/// `CASE` / `make_uncertain` / aggregate arguments, `NOT` and unary-minus
/// chains, and the right-nested `UNION` / `EXCEPT` tail all count. The
/// parser recurses once per level (and so do the plan's consumers), so
/// unbounded nesting is a stack overflow: an abort no `catch_unwind`
/// contains. Sized for a spawned thread's 2 MiB stack in an unoptimized
/// build, where a level of parentheses costs ~11 KiB (160 levels parse
/// there, 192 overflow).
const MAX_NESTING: usize = 64;

/// Tallest expression tree the parser builds. Nesting is not the only
/// way down: `a + a + …` is built left-deep by iteration, one level per
/// operator, and every consumer of the tree — lowering, the verifier,
/// `Display`, `Drop` — recurses once per level. Sized like
/// [`MAX_NESTING`]: on a 2 MiB thread in an unoptimized build a chain of
/// 1 000 terms parses, compiles and runs and one of 1 200 overflows.
const MAX_EXPR_DEPTH: usize = 400;

/// Most tables a `FROM` list (`,` or `JOIN`) names. The parser builds the
/// list by iteration into a left-deep join, one level per table, and the
/// planner, a run and `Drop` recurse once per level. Sized like
/// [`MAX_NESTING`], which it stacks with (a `UNION` tail of such lists):
/// on a 2 MiB thread in an unoptimized build a join of 150 tables plans
/// and runs on the lanes and on the oracle, one of 200 overflows while
/// running, one of 2 000 while planning.
const MAX_FROM_TABLES: usize = 64;

/// How a binary operator builds its node.
type BinOp = fn(Expr, Expr) -> Expr;

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
    /// Height of the expression the last expression production returned,
    /// bounded by [`MAX_EXPR_DEPTH`].
    height: usize,
    catalog: &'a dyn Catalog,
}

/// Column scope of the current FROM clause: (table alias, column name)
/// pairs in plan order.
struct Scope {
    cols: Vec<(String, String)>,
}

impl Scope {
    fn resolve(&self, table: Option<&str>, col: &str) -> Result<usize, EvalError> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (t, c))| {
                c.eq_ignore_ascii_case(col) && table.is_none_or(|want| t.eq_ignore_ascii_case(want))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(EvalError::NotFound(format!(
                "column {}{col}",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(err(format!("ambiguous column {col}; qualify it"))),
        }
    }
}

/// Parse a SQL statement into a [`Query`] plan against the catalog.
pub fn parse_sql(sql: &str, catalog: &dyn Catalog) -> Result<Query, EvalError> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0, depth: 0, height: 0, catalog };
    let q = p.select_stmt()?;
    p.eat_sym(";").ok();
    if p.pos < p.toks.len() {
        return Err(err(format!("trailing tokens near {:?}", p.toks[p.pos])));
    }
    Ok(q)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), EvalError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(err(format!("expected {kw} near {:?}", self.peek())))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> Result<(), EvalError> {
        match self.peek() {
            Some(Tok::Sym(s)) if *s == sym => {
                self.pos += 1;
                Ok(())
            }
            other => Err(err(format!("expected {sym:?} near {other:?}"))),
        }
    }

    fn peek_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym)
    }

    fn ident(&mut self) -> Result<String, EvalError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(err(format!("expected identifier near {other:?}"))),
        }
    }

    /// Run `parse` one nesting level down; an error past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        if self.depth == MAX_NESTING {
            return Err(err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// The node just built over the last parsed operand and operands of
    /// height `others` is one level taller than the tallest of them; an
    /// error past [`MAX_EXPR_DEPTH`].
    fn taller(&mut self, others: usize) -> Result<(), EvalError> {
        self.height = 1 + self.height.max(others);
        if self.height > MAX_EXPR_DEPTH {
            return Err(err(format!("expression deeper than {MAX_EXPR_DEPTH} levels")));
        }
        Ok(())
    }

    // ---- statements -----------------------------------------------------

    fn select_stmt(&mut self) -> Result<Query, EvalError> {
        let q = self.select_core()?;
        if self.eat_kw("union") {
            let rhs = self.nested(Self::select_stmt)?;
            return Ok(q.union(rhs));
        }
        if self.eat_kw("except") {
            let rhs = self.nested(Self::select_stmt)?;
            return Ok(q.difference(rhs));
        }
        Ok(q)
    }

    fn select_core(&mut self) -> Result<Query, EvalError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");

        // select items are parsed after FROM (we need the scope), so
        // remember their token span and skip ahead.
        let items_start = self.pos;
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match t {
                Tok::Sym("(") => depth += 1,
                Tok::Sym(")") => depth = depth.saturating_sub(1),
                Tok::Ident(s) if depth == 0 && s.eq_ignore_ascii_case("from") => break,
                _ => {}
            }
            self.pos += 1;
        }
        let items_end = self.pos;
        self.expect_kw("from")?;

        // FROM clause
        let (mut plan, mut scope) = self.table_ref()?;
        for tables in 1.. {
            let more = self.peek_sym(",") || self.peek_kw("join");
            if more && tables == MAX_FROM_TABLES {
                return Err(err(format!("FROM list longer than {MAX_FROM_TABLES} tables")));
            }
            if self.peek_sym(",") {
                self.eat_sym(",")?;
                let (rhs, rscope) = self.table_ref()?;
                plan = plan.cross(rhs);
                scope.cols.extend(rscope.cols);
            } else if self.peek_kw("join") {
                self.expect_kw("join")?;
                let (rhs, rscope) = self.table_ref()?;
                scope.cols.extend(rscope.cols);
                self.expect_kw("on")?;
                let pred = self.expr(&scope)?;
                plan = plan.join_on(rhs, pred);
            } else {
                break;
            }
        }

        // WHERE
        if self.eat_kw("where") {
            let pred = self.expr(&scope)?;
            plan = plan.select(pred);
        }

        // GROUP BY
        let mut group_by: Vec<usize> = Vec::new();
        let mut grouped = false;
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            grouped = true;
            loop {
                let (t, c) = self.qualified_name()?;
                group_by.push(scope.resolve(t.as_deref(), &c)?);
                if self.peek_sym(",") {
                    self.eat_sym(",")?;
                } else {
                    break;
                }
            }
        }

        // now parse the remembered select items against the scope
        let after = self.pos;
        self.pos = items_start;
        let items = self.select_items(&scope, items_end)?;
        self.pos = after;

        let plan = self.lower_select(plan, &scope, items, grouped, group_by)?;
        Ok(if distinct { plan.distinct() } else { plan })
    }

    fn table_ref(&mut self) -> Result<(Query, Scope), EvalError> {
        let name = self.ident()?;
        let schema = self.catalog.table_schema(&name)?;
        // optional alias: bare identifier that is not a clause keyword
        let alias = match self.peek() {
            Some(Tok::Ident(s))
                if !["join", "on", "where", "group", "union", "except", "as"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                self.ident()?
            }
            _ => name.clone(),
        };
        let cols = schema.columns().iter().map(|c| (alias.clone(), c.clone())).collect();
        Ok((crate::algebra::table(name), Scope { cols }))
    }

    // ---- select items -----------------------------------------------------

    fn select_items(&mut self, scope: &Scope, end: usize) -> Result<Vec<SelectItem>, EvalError> {
        let mut items = Vec::new();
        if self.peek_sym("*") && self.pos + 1 == end {
            self.eat_sym("*")?;
            for (i, (_, c)) in scope.cols.iter().enumerate() {
                items.push(SelectItem { agg: None, expr: Expr::Col(i), name: c.clone() });
            }
            return Ok(items);
        }
        loop {
            let item = self.select_item(scope)?;
            items.push(item);
            if self.pos < end && self.peek_sym(",") {
                self.eat_sym(",")?;
            } else {
                break;
            }
        }
        if self.pos != end {
            return Err(err("could not parse select list"));
        }
        Ok(items)
    }

    fn select_item(&mut self, scope: &Scope) -> Result<SelectItem, EvalError> {
        // aggregate function?
        if let Some(Tok::Ident(f)) = self.peek() {
            let fl = f.to_ascii_lowercase();
            let agg = match fl.as_str() {
                "sum" => Some(AggFunc::Sum),
                "count" => Some(AggFunc::Count),
                "avg" => Some(AggFunc::Avg),
                "min" => Some(AggFunc::Min),
                "max" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = agg {
                if matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("("))) {
                    self.pos += 1; // function name
                    self.eat_sym("(")?;
                    let inner = if self.peek_sym("*") {
                        self.eat_sym("*")?;
                        lit(1i64)
                    } else {
                        self.expr(scope)?
                    };
                    self.eat_sym(")")?;
                    let name = self.alias_or(&fl)?;
                    return Ok(SelectItem { agg: Some(func), expr: inner, name });
                }
            }
        }
        let start = self.pos;
        let e = self.expr(scope)?;
        let default_name = match &e {
            Expr::Col(i) => scope.cols[*i].1.clone(),
            _ => format!("expr{start}"),
        };
        let name = self.alias_or(&default_name)?;
        Ok(SelectItem { agg: None, expr: e, name })
    }

    fn alias_or(&mut self, default: &str) -> Result<String, EvalError> {
        if self.eat_kw("as") {
            self.ident()
        } else {
            Ok(default.to_string())
        }
    }

    fn lower_select(
        &self,
        plan: Query,
        scope: &Scope,
        items: Vec<SelectItem>,
        grouped: bool,
        group_by: Vec<usize>,
    ) -> Result<Query, EvalError> {
        let has_aggs = items.iter().any(|i| i.agg.is_some());
        if !has_aggs && !grouped {
            // plain projection
            return Ok(Query::Project {
                input: Box::new(plan),
                exprs: items.into_iter().map(|i| (i.expr, i.name)).collect(),
            });
        }
        // aggregation: non-aggregate items must be group-by columns
        let mut aggs = Vec::new();
        let mut out_positions: Vec<(usize, String)> = Vec::new(); // position in Aggregate output
        let mut agg_index = 0usize;
        for item in &items {
            match item.agg {
                Some(func) => {
                    aggs.push(AggSpec::new(func, item.expr.clone(), item.name.clone()));
                    out_positions.push((group_by.len() + agg_index, item.name.clone()));
                    agg_index += 1;
                }
                None => {
                    let Expr::Col(c) = item.expr else {
                        return Err(err(
                            "non-aggregate select items must be plain group-by columns",
                        ));
                    };
                    let pos = group_by.iter().position(|g| *g == c).ok_or_else(|| {
                        err(format!("column {} is neither aggregated nor grouped", scope.cols[c].1))
                    })?;
                    out_positions.push((pos, item.name.clone()));
                }
            }
        }
        let agg_plan = Query::Aggregate { input: Box::new(plan), group_by, aggs };
        // reorder/rename to the written select order
        Ok(Query::Project {
            input: Box::new(agg_plan),
            exprs: out_positions.into_iter().map(|(pos, name)| (Expr::Col(pos), name)).collect(),
        })
    }

    // ---- expressions -------------------------------------------------------

    fn qualified_name(&mut self) -> Result<(Option<String>, String), EvalError> {
        let first = self.ident()?;
        if self.peek_sym(".") {
            self.eat_sym(".")?;
            let col = self.ident()?;
            Ok((Some(first), col))
        } else {
            Ok((None, first))
        }
    }

    fn expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.nested(|p| p.or_expr(scope))
    }

    /// `operand (op operand)*` at one precedence level: a left-deep tree
    /// built by iteration, one level per operator.
    fn chain(
        &mut self,
        scope: &Scope,
        operand: fn(&mut Self, &Scope) -> Result<Expr, EvalError>,
        ops: &[(&str, BinOp)],
    ) -> Result<Expr, EvalError> {
        let mut e = operand(self, scope)?;
        while let Some(&(_, build)) = ops
            .iter()
            .find(|(op, _)| self.eat_kw(op) || (self.peek_sym(op) && self.eat_sym(op).is_ok()))
        {
            let lhs = self.height;
            e = build(e, operand(self, scope)?);
            self.taller(lhs)?;
        }
        Ok(e)
    }

    fn or_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.chain(scope, Self::and_expr, &[("or", Expr::or)])
    }

    fn and_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.chain(scope, Self::not_expr, &[("and", Expr::and)])
    }

    fn not_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        if self.eat_kw("not") {
            let e = self.nested(|p| p.not_expr(scope))?.not();
            return self.taller(0).map(|()| e);
        }
        self.cmp_expr(scope)
    }

    fn cmp_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        let lhs = self.add_expr(scope)?;
        let op = match self.peek() {
            Some(Tok::Sym(s)) if ["=", "!=", "<", "<=", ">", ">="].contains(s) => *s,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let lhs_height = self.height;
        let rhs = self.add_expr(scope)?;
        self.taller(lhs_height)?;
        Ok(match op {
            "=" => lhs.eq(rhs),
            "!=" => lhs.neq(rhs),
            "<" => lhs.lt(rhs),
            "<=" => lhs.leq(rhs),
            ">" => lhs.gt(rhs),
            _ => lhs.geq(rhs),
        })
    }

    fn add_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.chain(scope, Self::mul_expr, &[("+", Expr::add), ("-", Expr::sub)])
    }

    fn mul_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.chain(scope, Self::unary_expr, &[("*", Expr::mul), ("/", Expr::div)])
    }

    fn unary_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        if self.peek_sym("-") {
            self.eat_sym("-")?;
            let e = self.nested(|p| p.unary_expr(scope))?.neg();
            return self.taller(0).map(|()| e);
        }
        self.primary(scope)
    }

    fn primary(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.height = 1; // a leaf, unless a branch below parses operands
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(lit(v))
            }
            Some(Tok::Float(v)) => {
                self.pos += 1;
                Ok(lit(v))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Const(Value::Str(s.into())))
            }
            Some(Tok::Sym("(")) => {
                self.eat_sym("(")?;
                let e = self.expr(scope)?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                let lower = name.to_ascii_lowercase();
                if lower == "true" || lower == "false" {
                    self.pos += 1;
                    return Ok(lit(lower == "true"));
                }
                if lower == "null" {
                    self.pos += 1;
                    return Ok(Expr::Const(Value::Null));
                }
                // the lens construct of Example 16
                if lower == "make_uncertain"
                    && matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("(")))
                {
                    self.pos += 1;
                    self.eat_sym("(")?;
                    let lb = self.expr(scope)?;
                    let lb_height = self.height;
                    self.eat_sym(",")?;
                    let sg = self.expr(scope)?;
                    let below = lb_height.max(self.height);
                    self.eat_sym(",")?;
                    let ub = self.expr(scope)?;
                    self.eat_sym(")")?;
                    self.taller(below)?;
                    return Ok(Expr::make_uncertain(lb, sg, ub));
                }
                if lower == "case" {
                    return self.case_expr(scope);
                }
                let (t, c) = self.qualified_name()?;
                Ok(Expr::Col(scope.resolve(t.as_deref(), &c)?))
            }
            other => Err(err(format!("unexpected token {other:?} in expression"))),
        }
    }

    /// `CASE WHEN cond THEN e1 ELSE e2 END`
    fn case_expr(&mut self, scope: &Scope) -> Result<Expr, EvalError> {
        self.expect_kw("case")?;
        self.expect_kw("when")?;
        let cond = self.expr(scope)?;
        let cond_height = self.height;
        self.expect_kw("then")?;
        let then = self.expr(scope)?;
        let below = cond_height.max(self.height);
        self.expect_kw("else")?;
        let els = self.expr(scope)?;
        self.expect_kw("end")?;
        self.taller(below)?;
        Ok(Expr::if_then_else(cond, then, els))
    }
}

struct SelectItem {
    agg: Option<AggFunc>,
    expr: Expr,
    name: String,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::au::{eval_au, AuConfig};
    use crate::det::eval_det;
    use audb_core::RangeValue;
    use audb_storage::{au_row, AuDatabase, AuRelation, Database, Relation, Schema, Tuple};

    fn det_db() -> Database {
        let mut db = Database::new();
        db.insert(
            "locales",
            Relation::from_tuples(
                Schema::named(&["locale", "rate", "size"]),
                vec![
                    t(&["LA", "3", "metro"]),
                    t(&["Austin", "18", "city"]),
                    t(&["Houston", "14", "metro"]),
                ],
            ),
        );
        db
    }

    fn t(vals: &[&str]) -> Tuple {
        Tuple::new(
            vals.iter()
                .map(|v| match v.parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::str(*v),
                })
                .collect(),
        )
    }

    #[test]
    fn parses_the_papers_intro_query() {
        let db = det_db();
        let q =
            parse_sql("SELECT size, avg(rate) AS rate FROM locales GROUP BY size", &db).unwrap();
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.schema, Schema::named(&["size", "rate"]));
        // metro group: (3 + 14) / 2 = 8.5
        let metro = out.rows().iter().find(|(t, _)| t.0[0] == Value::str("metro")).unwrap();
        assert_eq!(metro.0 .0[1], Value::float(8.5));
    }

    #[test]
    fn select_where_project_and_aliases() {
        let db = det_db();
        let q = parse_sql(
            "SELECT locale, rate + 1 AS bumped FROM locales WHERE rate >= 10 AND size = 'metro'",
            &db,
        )
        .unwrap();
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.total_count(), 1);
        assert_eq!(out.rows()[0].0 .0[1], Value::Int(15));
    }

    #[test]
    fn joins_with_qualified_names() {
        let mut db = det_db();
        db.insert(
            "sizes",
            Relation::from_tuples(
                Schema::named(&["name", "ord"]),
                vec![t(&["metro", "3"]), t(&["city", "2"])],
            ),
        );
        let q = parse_sql(
            "SELECT locales.locale, sizes.ord FROM locales JOIN sizes ON locales.size = sizes.name",
            &db,
        )
        .unwrap();
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.total_count(), 3);
    }

    #[test]
    fn union_except_distinct_star() {
        let db = det_db();
        let q = parse_sql("SELECT DISTINCT size FROM locales UNION SELECT size FROM locales", &db)
            .unwrap();
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.len(), 2); // metro, city (bag union keeps mults)

        let q = parse_sql(
            "SELECT size FROM locales EXCEPT SELECT size FROM locales WHERE rate > 10",
            &db,
        )
        .unwrap();
        let out = eval_det(&db, &q).unwrap();
        assert_eq!(out.total_count(), 1); // one metro survives

        let q = parse_sql("SELECT * FROM locales", &db).unwrap();
        assert_eq!(eval_det(&db, &q).unwrap().total_count(), 3);
    }

    #[test]
    fn case_and_count_star() {
        let db = det_db();
        let q = parse_sql(
            "SELECT size, count(*) AS n, \
             sum(CASE WHEN rate > 10 THEN 1 ELSE 0 END) AS hot \
             FROM locales GROUP BY size",
            &db,
        )
        .unwrap();
        let out = eval_det(&db, &q).unwrap();
        let metro = out.rows().iter().find(|(t, _)| t.0[0] == Value::str("metro")).unwrap();
        assert_eq!(metro.0 .0[1], Value::Int(2));
        assert_eq!(metro.0 .0[2], Value::Int(1));
    }

    #[test]
    fn same_sql_runs_over_au_dbs() {
        let mut audb = AuDatabase::new();
        audb.insert(
            "locales",
            AuRelation::from_rows(
                Schema::named(&["locale", "rate", "size"]),
                vec![
                    au_row(
                        vec![
                            RangeValue::certain(Value::str("LA")),
                            RangeValue::range(3i64, 3i64, 4i64),
                            RangeValue::certain(Value::str("metro")),
                        ],
                        1,
                        1,
                        1,
                    ),
                    au_row(
                        vec![
                            RangeValue::certain(Value::str("Houston")),
                            RangeValue::certain(Value::Int(14)),
                            RangeValue::certain(Value::str("metro")),
                        ],
                        1,
                        1,
                        1,
                    ),
                ],
            ),
        );
        let q =
            parse_sql("SELECT size, avg(rate) AS rate FROM locales GROUP BY size", &audb).unwrap();
        let out = eval_au(&audb, &q, &AuConfig::precise()).unwrap();
        let rate = &out.rows()[0].0 .0[1];
        assert_eq!(rate.lb, Value::float(8.5));
        assert_eq!(rate.ub, Value::float(9.0));
    }

    #[test]
    fn make_uncertain_in_sql() {
        let db = det_db();
        let q = parse_sql(
            "SELECT locale, make_uncertain(rate - 1, rate, rate + 2) AS r FROM locales",
            &db,
        )
        .unwrap();
        // deterministic evaluation sees the selected guess
        let out = eval_det(&db, &q).unwrap();
        assert!(out.rows().iter().any(|(t, _)| t.0[1] == Value::Int(3)));
        // AU evaluation sees the ranges
        let au = audb_storage::AuDatabase::from_certain(&db);
        let out = eval_au(&au, &q, &AuConfig::precise()).unwrap();
        let la = out.rows().iter().find(|(t, _)| t.0[0].sg == Value::str("LA")).unwrap();
        assert_eq!(la.0 .0[1], RangeValue::range(2i64, 3i64, 5i64));
    }

    #[test]
    fn errors_are_informative() {
        let db = det_db();
        assert!(parse_sql("SELECT nope FROM locales", &db).is_err());
        assert!(parse_sql("SELECT rate FROM missing", &db).is_err());
        assert!(parse_sql("SELECT rate FROM locales GROUP BY size", &db).is_err());
        assert!(parse_sql("SELECT 'unterminated FROM locales", &db).is_err());
    }

    /// Nesting is bounded: one level short of [`MAX_NESTING`] parses,
    /// one past it — and 100 000, which used to overflow the stack and
    /// abort the process — is an error naming the limit. Parentheses,
    /// `NOT` / unary-minus chains and `UNION` tails all count. So is the
    /// height of the expression tree: a flat `+` / `AND` / `OR` chain is
    /// built by iteration, one level per operator, and 100 000 terms
    /// overflowed the stack of whoever walked — or dropped — the tree.
    /// Likewise a `FROM` list, built by iteration into one join level per
    /// table. Run on a spawned thread: 2 MiB is the stack the limits are
    /// sized for.
    #[test]
    fn nesting_depth_is_limited() {
        let db = det_db();
        let parens = |n: usize| {
            format!("SELECT size FROM locales WHERE {}rate = 1{}", "(".repeat(n), ")".repeat(n))
        };
        let nots =
            |n: usize| format!("SELECT size FROM locales WHERE {}rate = 1", "not ".repeat(n));
        let negs = |n: usize| format!("SELECT {}rate AS r FROM locales", "- ".repeat(n));
        let unions = |n: usize| vec!["SELECT size FROM locales"; n + 1].join(" UNION ");
        let sums = |n: usize| {
            format!("SELECT size FROM locales WHERE {} > 0", vec!["rate"; n].join(" + "))
        };
        let chain = |term: &'static str, op: &'static str| {
            move |n: usize| format!("SELECT size FROM locales WHERE {}", vec![term; n].join(op))
        };
        let (ands, ors) = (chain("rate = 1", " AND "), chain("rate = 1", " OR "));
        let tables = |n: usize| {
            let from: Vec<String> = (0..n).map(|i| format!("locales x{i}")).collect();
            format!("SELECT x0.size FROM {}", from.join(", "))
        };
        let check = move || {
            for (what, sql, limit, named) in [
                ("parentheses", &parens as &dyn Fn(usize) -> String, MAX_NESTING, "nesting deeper"),
                ("not chain", &nots, MAX_NESTING, "nesting deeper"),
                ("unary minus chain", &negs, MAX_NESTING, "nesting deeper"),
                ("union tail", &unions, MAX_NESTING, "nesting deeper"),
                // `n` terms under one comparison, or of height 2: n + 1 levels
                ("+ chain", &sums, MAX_EXPR_DEPTH, "expression deeper"),
                ("AND chain", &ands, MAX_EXPR_DEPTH, "expression deeper"),
                ("OR chain", &ors, MAX_EXPR_DEPTH, "expression deeper"),
                ("FROM list", &tables, MAX_FROM_TABLES, "FROM list longer"),
            ] {
                assert!(parse_sql(&sql(limit - 1), &db).is_ok(), "{what} below the limit");
                for n in [limit + 1, 100_000] {
                    let e = parse_sql(&sql(n), &db).unwrap_err().to_string();
                    assert!(e.contains(&format!("{named} than {limit}")), "{what} × {n}: {e}");
                }
            }
        };
        std::thread::Builder::new().stack_size(2 << 20).spawn(check).unwrap().join().unwrap();
    }

    #[test]
    fn ambiguity_requires_qualification() {
        let mut db = det_db();
        db.insert(
            "locales2",
            Relation::from_tuples(Schema::named(&["locale", "x"]), vec![t(&["LA", "1"])]),
        );
        let q = parse_sql("SELECT locale FROM locales, locales2", &db);
        assert!(q.is_err(), "bare `locale` is ambiguous");
        let q = parse_sql("SELECT locales.locale FROM locales, locales2", &db);
        assert!(q.is_ok());
    }
}
