//! The relational-encoding middleware (Section 10): AU-DBs encoded as
//! plain bag relations (`Enc`/`Dec`, Definition 29) plus the query
//! rewrite `rewr(·)` that makes a conventional deterministic engine
//! evaluate AU-DB semantics (Theorem 8):
//!
//! ```text
//! Q(D) = Dec(Q_merge(rewr(Q))(Enc(D)))
//! ```
//!
//! The encoding of an `n`-ary AU-relation has `3n + 3` columns laid out
//! as `[A1^sg..An^sg, A1↓..An↓, A1↑..An↑, row↓, row^sg, row↑]`, each
//! encoded tuple carrying bag multiplicity 1.
//!
//! The rewrites mirror Section 10.2, with the aggregation rewrite using
//! the same (soundness-fixed) guards as the native evaluator in
//! [`crate::au::aggregate`] so the two implementations agree exactly —
//! which the differential test-suite checks on randomized inputs.
//!
//! Caveat: like the paper's SQL rewrites, the generated expressions
//! compare encoded values with SQL equality. Columns must be
//! type-homogeneous (don't mix `Int` and `Float` key values) for the
//! rewrite and the native evaluator to agree on boundary comparisons.

use audb_core::{col, lit, AuAnnot, EvalError, Expr, RangeValue, Value};
use audb_storage::{AuDatabase, AuRelation, Database, RangeTuple, Relation, Schema, Tuple};

use crate::algebra::{AggFunc, AggSpec, Catalog, Query};

// ---------------------------------------------------------------------------
// Encoding layout
// ---------------------------------------------------------------------------

/// Column layout of the relational encoding of an `n`-ary AU-relation.
#[derive(Debug, Clone, Copy)]
pub struct EncLayout {
    pub n: usize,
}

impl EncLayout {
    pub fn new(n: usize) -> Self {
        EncLayout { n }
    }
    pub fn sg(&self, i: usize) -> usize {
        i
    }
    pub fn lb(&self, i: usize) -> usize {
        self.n + i
    }
    pub fn ub(&self, i: usize) -> usize {
        2 * self.n + i
    }
    pub fn row_lb(&self) -> usize {
        3 * self.n
    }
    pub fn row_sg(&self) -> usize {
        3 * self.n + 1
    }
    pub fn row_ub(&self) -> usize {
        3 * self.n + 2
    }
    pub fn width(&self) -> usize {
        3 * self.n + 3
    }
}

/// Schema of `Enc(R)` for an AU-relation with the given schema.
pub fn enc_schema(schema: &Schema) -> Schema {
    let mut cols: Vec<String> = schema.columns().to_vec();
    cols.extend(schema.columns().iter().map(|c| format!("{c}__lb")));
    cols.extend(schema.columns().iter().map(|c| format!("{c}__ub")));
    cols.push("__row_lb".into());
    cols.push("__row_sg".into());
    cols.push("__row_ub".into());
    Schema::new(cols)
}

/// `Enc` (Definition 29): one multiplicity-1 tuple per AU-DB row.
pub fn enc_relation(rel: &AuRelation) -> Relation {
    let mut out = Relation::empty(enc_schema(&rel.schema));
    for (t, k) in rel.rows() {
        let mut vals: Vec<Value> = t.values().iter().map(|r| r.sg.clone()).collect();
        vals.extend(t.values().iter().map(|r| r.lb.clone()));
        vals.extend(t.values().iter().map(|r| r.ub.clone()));
        vals.push(Value::Int(k.lb as i64));
        vals.push(Value::Int(k.sg as i64));
        vals.push(Value::Int(k.ub as i64));
        out.push(Tuple::new(vals), 1);
    }
    out.into_normalized()
}

/// Decode one encoded row-annotation component: a non-negative `Int`,
/// scaled by the encoded tuple's bag multiplicity. Negative encoded
/// values and `u64` overflow are *errors*, not wraparound — `Dec` must
/// stay total and exact for Theorem 8's round trip to be sound.
fn dec_multiplicity(v: &Value, mult: u64, which: &str) -> Result<u64, EvalError> {
    let raw = v.as_int()?;
    let m = u64::try_from(raw).map_err(|_| {
        EvalError::InvalidAnnotation(format!("encoded {which} multiplicity {raw} is negative"))
    })?;
    m.checked_mul(mult).ok_or_else(|| {
        EvalError::InvalidAnnotation(format!(
            "encoded {which} multiplicity {raw} × row multiplicity {mult} overflows u64"
        ))
    })
}

/// `Dec`: invert the encoding. Multiplicities > 1 scale the annotation
/// (Definition 29's `rowdec(t) · (R(t), R(t), R(t))`). The earliest
/// offending row's error wins.
pub fn dec_relation(rel: &Relation, orig_schema: &Schema) -> Result<AuRelation, EvalError> {
    let lay = EncLayout::new(orig_schema.arity());
    if rel.schema.arity() != lay.width() {
        return Err(EvalError::SchemaMismatch(format!(
            "expected encoded arity {}, found {}",
            lay.width(),
            rel.schema.arity()
        )));
    }
    let mut out = AuRelation::empty(orig_schema.clone());
    for (t, mult) in rel.rows() {
        let v = t.values();
        let ranges = (0..lay.n)
            .map(|i| {
                RangeValue::new(v[lay.lb(i)].clone(), v[lay.sg(i)].clone(), v[lay.ub(i)].clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let annot = AuAnnot::new(
            dec_multiplicity(&v[lay.row_lb()], *mult, "lower-bound")?,
            dec_multiplicity(&v[lay.row_sg()], *mult, "selected-guess")?,
            dec_multiplicity(&v[lay.row_ub()], *mult, "upper-bound")?,
        )?;
        out.push(RangeTuple::new(ranges), annot);
    }
    Ok(out.into_normalized())
}

/// Encode a whole AU-database (tables keep their names).
pub fn enc_database(db: &AuDatabase) -> Database {
    let mut out = Database::new();
    for (name, rel) in db.iter() {
        out.insert(name.clone(), enc_relation(rel));
    }
    out
}

// ---------------------------------------------------------------------------
// Range-annotated expressions as deterministic expression triples
// ---------------------------------------------------------------------------

/// The three deterministic expressions `e↓ / e^sg / e↑` computing
/// Definition 9 over an encoded tuple.
#[derive(Debug, Clone)]
pub struct RangeExprs {
    pub lb: Expr,
    pub sg: Expr,
    pub ub: Expr,
}

fn emin(a: Expr, b: Expr) -> Expr {
    Expr::if_then_else(a.clone().leq(b.clone()), a, b)
}
fn emax(a: Expr, b: Expr) -> Expr {
    Expr::if_then_else(a.clone().geq(b.clone()), a, b)
}
fn emin4(a: Expr, b: Expr, c: Expr, d: Expr) -> Expr {
    emin(emin(a, b), emin(c, d))
}
fn emax4(a: Expr, b: Expr, c: Expr, d: Expr) -> Expr {
    emax(emax(a, b), emax(c, d))
}

/// Compile a scalar expression over an `n`-ary AU-relation into the
/// `e↓ / e^sg / e↑` triple over its encoding (Section 10.2's expression
/// translation).
pub fn compile_range_expr(e: &Expr, lay: EncLayout) -> Result<RangeExprs, EvalError> {
    let bin = |a: &Expr, b: &Expr| -> Result<(RangeExprs, RangeExprs), EvalError> {
        Ok((compile_range_expr(a, lay)?, compile_range_expr(b, lay)?))
    };
    Ok(match e {
        Expr::Col(i) => {
            if *i >= lay.n {
                return Err(EvalError::UnknownColumn(*i));
            }
            RangeExprs { lb: col(lay.lb(*i)), sg: col(lay.sg(*i)), ub: col(lay.ub(*i)) }
        }
        Expr::Const(v) => RangeExprs {
            lb: Expr::Const(v.clone()),
            sg: Expr::Const(v.clone()),
            ub: Expr::Const(v.clone()),
        },
        Expr::And(a, b) => {
            let (x, y) = bin(a, b)?;
            RangeExprs { lb: x.lb.and(y.lb), sg: x.sg.and(y.sg), ub: x.ub.and(y.ub) }
        }
        Expr::Or(a, b) => {
            let (x, y) = bin(a, b)?;
            RangeExprs { lb: x.lb.or(y.lb), sg: x.sg.or(y.sg), ub: x.ub.or(y.ub) }
        }
        Expr::Not(a) => {
            let x = compile_range_expr(a, lay)?;
            RangeExprs { lb: x.ub.not(), sg: x.sg.not(), ub: x.lb.not() }
        }
        Expr::Eq(a, b) => {
            let (x, y) = bin(a, b)?;
            RangeExprs {
                lb: x.ub.clone().eq(y.lb.clone()).and(y.ub.clone().eq(x.lb.clone())),
                sg: x.sg.eq(y.sg),
                ub: x.lb.leq(y.ub).and(y.lb.leq(x.ub)),
            }
        }
        Expr::Neq(a, b) => {
            let eq = compile_range_expr(&Expr::Eq(a.clone(), b.clone()), lay)?;
            RangeExprs { lb: eq.ub.not(), sg: eq.sg.not(), ub: eq.lb.not() }
        }
        Expr::Leq(a, b) => {
            let (x, y) = bin(a, b)?;
            RangeExprs { lb: x.ub.leq(y.lb), sg: x.sg.leq(y.sg), ub: x.lb.leq(y.ub) }
        }
        Expr::Lt(a, b) => {
            let (x, y) = bin(a, b)?;
            RangeExprs { lb: x.ub.lt(y.lb), sg: x.sg.lt(y.sg), ub: x.lb.lt(y.ub) }
        }
        Expr::Geq(a, b) => compile_range_expr(&Expr::Leq(b.clone(), a.clone()), lay)?,
        Expr::Gt(a, b) => compile_range_expr(&Expr::Lt(b.clone(), a.clone()), lay)?,
        Expr::Add(a, b) => {
            let (x, y) = bin(a, b)?;
            RangeExprs { lb: x.lb.add(y.lb), sg: x.sg.add(y.sg), ub: x.ub.add(y.ub) }
        }
        Expr::Sub(a, b) => {
            let (x, y) = bin(a, b)?;
            // widened by sg, mirroring `Expr::eval_range`'s guard against
            // cross-representation numeric ties
            let sg = x.sg.sub(y.sg);
            RangeExprs {
                lb: emin(x.lb.sub(y.ub), sg.clone()),
                sg: sg.clone(),
                ub: emax(x.ub.sub(y.lb), sg),
            }
        }
        Expr::Neg(a) => {
            let x = compile_range_expr(a, lay)?;
            let sg = x.sg.neg();
            RangeExprs {
                lb: emin(x.ub.neg(), sg.clone()),
                sg: sg.clone(),
                ub: emax(x.lb.neg(), sg),
            }
        }
        Expr::Mul(a, b) => {
            let (x, y) = bin(a, b)?;
            let p = |l: &Expr, r: &Expr| l.clone().mul(r.clone());
            let sg = x.sg.mul(y.sg);
            RangeExprs {
                lb: emin(
                    emin4(p(&x.lb, &y.lb), p(&x.lb, &y.ub), p(&x.ub, &y.lb), p(&x.ub, &y.ub)),
                    sg.clone(),
                ),
                sg: sg.clone(),
                ub: emax(
                    emax4(p(&x.lb, &y.lb), p(&x.lb, &y.ub), p(&x.ub, &y.lb), p(&x.ub, &y.ub)),
                    sg,
                ),
            }
        }
        Expr::Div(a, b) => {
            let (x, y) = bin(a, b)?;
            let p = |l: &Expr, r: &Expr| l.clone().div(r.clone());
            let sg = x.sg.div(y.sg);
            RangeExprs {
                lb: emin(
                    emin4(p(&x.lb, &y.lb), p(&x.lb, &y.ub), p(&x.ub, &y.lb), p(&x.ub, &y.ub)),
                    sg.clone(),
                ),
                sg: sg.clone(),
                ub: emax(
                    emax4(p(&x.lb, &y.lb), p(&x.lb, &y.ub), p(&x.ub, &y.lb), p(&x.ub, &y.ub)),
                    sg,
                ),
            }
        }
        Expr::Uncertain(l, sg, u) => {
            let ll = compile_range_expr(l, lay)?;
            let ss = compile_range_expr(sg, lay)?;
            let uu = compile_range_expr(u, lay)?;
            // mirror Expr::eval_range's widening exactly
            RangeExprs { lb: emin(ll.lb, ss.sg.clone()), sg: ss.sg.clone(), ub: emax(uu.ub, ss.sg) }
        }
        Expr::If(c, t, e2) => {
            let cc = compile_range_expr(c, lay)?;
            let tt = compile_range_expr(t, lay)?;
            let ee = compile_range_expr(e2, lay)?;
            RangeExprs {
                lb: Expr::if_then_else(
                    cc.lb.clone(),
                    tt.lb.clone(),
                    Expr::if_then_else(
                        cc.ub.clone().not(),
                        ee.lb.clone(),
                        emin(tt.lb.clone(), ee.lb.clone()),
                    ),
                ),
                sg: Expr::if_then_else(cc.sg, tt.sg, ee.sg),
                ub: Expr::if_then_else(
                    cc.lb,
                    tt.ub.clone(),
                    Expr::if_then_else(cc.ub.not(), ee.ub.clone(), emax(tt.ub, ee.ub)),
                ),
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Query rewriting
// ---------------------------------------------------------------------------

/// Rewrite a query over AU-relations into one over their encodings.
/// Evaluate the result with the deterministic engine against
/// [`enc_database`] and invert with [`dec_relation`] — or use
/// [`eval_via_rewrite`] which does all three.
pub fn rewrite(q: &Query, catalog: &dyn Catalog) -> Result<Query, EvalError> {
    Ok(rewr(q, catalog)?.0)
}

/// Full round trip `Dec(rewr(Q)(Enc(D)))` — the executable statement
/// of Theorem 8: encode the base tables `q` names, evaluate the
/// rewritten plan on the plain deterministic engine, decode.
pub fn eval_via_rewrite(db: &AuDatabase, q: &Query) -> Result<AuRelation, EvalError> {
    let (plan, schema) = rewr(q, db)?;
    let mut enc = Database::new();
    for name in q.table_refs() {
        enc.insert(name.to_string(), enc_relation(db.get(name)?));
    }
    dec_relation(&crate::det::eval_det(&enc, &plan)?, &schema)
}

fn rewr(q: &Query, catalog: &dyn Catalog) -> Result<(Query, Schema), EvalError> {
    match q {
        Query::Table(name) => Ok((Query::Table(name.clone()), catalog.table_schema(name)?)),
        Query::Select { input, predicate } => {
            let (inp, schema) = rewr(input, catalog)?;
            let lay = EncLayout::new(schema.arity());
            let c = compile_range_expr(predicate, lay)?;
            let filtered = inp.select(c.ub);
            let mut exprs = passthrough(&schema, lay, 0);
            exprs.push((Expr::if_then_else(c.lb, col(lay.row_lb()), lit(0i64)), "__row_lb".into()));
            exprs.push((Expr::if_then_else(c.sg, col(lay.row_sg()), lit(0i64)), "__row_sg".into()));
            exprs.push((col(lay.row_ub()), "__row_ub".into()));
            Ok((project_named(filtered, exprs), schema))
        }
        Query::Project { input, exprs } => {
            let (inp, in_schema) = rewr(input, catalog)?;
            let lay = EncLayout::new(in_schema.arity());
            let out_schema = Schema::new(exprs.iter().map(|(_, n)| n.clone()).collect());
            let compiled: Vec<RangeExprs> =
                exprs.iter().map(|(e, _)| compile_range_expr(e, lay)).collect::<Result<_, _>>()?;
            let mut p: Vec<(Expr, String)> = Vec::new();
            for (c, (_, name)) in compiled.iter().zip(exprs) {
                p.push((c.sg.clone(), name.clone()));
            }
            for (c, (_, name)) in compiled.iter().zip(exprs) {
                p.push((c.lb.clone(), format!("{name}__lb")));
            }
            for (c, (_, name)) in compiled.iter().zip(exprs) {
                p.push((c.ub.clone(), format!("{name}__ub")));
            }
            p.push((col(lay.row_lb()), "__row_lb".into()));
            p.push((col(lay.row_sg()), "__row_sg".into()));
            p.push((col(lay.row_ub()), "__row_ub".into()));
            Ok((project_named(inp, p), out_schema))
        }
        Query::Join { left, right, predicate } => {
            let (l, ls) = rewr(left, catalog)?;
            let (r, rs) = rewr(right, catalog)?;
            let (n, m) = (ls.arity(), rs.arity());
            let out_schema = ls.concat(&rs);
            let lay_out = EncLayout::new(n + m);
            let llay = EncLayout::new(n);
            let rlay = EncLayout::new(m);
            let roff = llay.width();

            // canonical output position → concatenated input position
            let canon_to_concat = move |p: usize| -> usize {
                if p < n {
                    llay.sg(p)
                } else if p < n + m {
                    roff + rlay.sg(p - n)
                } else if p < 2 * n + m {
                    llay.lb(p - (n + m))
                } else if p < 2 * (n + m) {
                    roff + rlay.lb(p - (2 * n + m))
                } else if p < 3 * n + 2 * m {
                    llay.ub(p - 2 * (n + m))
                } else if p < 3 * (n + m) {
                    roff + rlay.ub(p - (3 * n + 2 * m))
                } else {
                    unreachable!("row columns handled separately")
                }
            };

            let compiled = match predicate {
                Some(p) => Some(compile_range_expr(p, lay_out)?),
                None => None,
            };
            let join_pred = compiled.as_ref().map(|c| c.ub.remap_columns(&canon_to_concat));
            let joined =
                Query::Join { left: Box::new(l), right: Box::new(r), predicate: join_pred };

            // canonical projection
            let out_enc = enc_schema(&out_schema);
            let mut p: Vec<(Expr, String)> = Vec::new();
            for idx in 0..3 * (n + m) {
                p.push((col(canon_to_concat(idx)), out_enc.column_name(idx).to_string()));
            }
            let lb_prod = col(llay.row_lb()).mul(col(roff + rlay.row_lb()));
            let sg_prod = col(llay.row_sg()).mul(col(roff + rlay.row_sg()));
            let ub_prod = col(llay.row_ub()).mul(col(roff + rlay.row_ub()));
            match compiled {
                Some(c) => {
                    let clb = c.lb.remap_columns(&canon_to_concat);
                    let csg = c.sg.remap_columns(&canon_to_concat);
                    p.push((Expr::if_then_else(clb, lb_prod, lit(0i64)), "__row_lb".into()));
                    p.push((Expr::if_then_else(csg, sg_prod, lit(0i64)), "__row_sg".into()));
                    p.push((ub_prod, "__row_ub".into()));
                }
                None => {
                    p.push((lb_prod, "__row_lb".into()));
                    p.push((sg_prod, "__row_sg".into()));
                    p.push((ub_prod, "__row_ub".into()));
                }
            }
            Ok((project_named(joined, p), out_schema))
        }
        Query::Union { left, right } => {
            let (l, ls) = rewr(left, catalog)?;
            let (r, rs) = rewr(right, catalog)?;
            ls.check_union_compatible(&rs)?;
            Ok((Query::Union { left: Box::new(l), right: Box::new(r) }, ls))
        }
        Query::Difference { left, right } => rewr_difference(left, right, catalog),
        Query::Distinct { input } => {
            let in_schema_probe = rewr(input, catalog)?.1;
            let all: Vec<usize> = (0..in_schema_probe.arity()).collect();
            rewr(&Query::Aggregate { input: input.clone(), group_by: all, aggs: vec![] }, catalog)
        }
        Query::Aggregate { input, group_by, aggs } => {
            rewr_aggregate(input, group_by, aggs, catalog)
        }
    }
}

fn project_named(q: Query, exprs: Vec<(Expr, String)>) -> Query {
    Query::Project { input: Box::new(q), exprs }
}

/// Pass-through projection expressions for the 3n value columns of an
/// encoding (offset allows reading from a shifted position).
fn passthrough(schema: &Schema, lay: EncLayout, offset: usize) -> Vec<(Expr, String)> {
    let enc = enc_schema(schema);
    (0..3 * lay.n).map(|i| (col(offset + i), enc.column_name(i).to_string())).collect()
}

/// Bag monus as an expression: `max(a − b, 0)`.
fn emonus(a: Expr, b: Expr) -> Expr {
    Expr::if_then_else(a.clone().leq(b.clone()), lit(0i64), a.sub(b))
}

/// `rewr(Ψ(Q))`: group by SG values; bounding boxes via min/max; sum the
/// annotation columns (Section 10.2's combiner rewrite).
fn rewr_combine(inp: Query, schema: &Schema) -> Query {
    let lay = EncLayout::new(schema.arity());
    let enc = enc_schema(schema);
    let group_by: Vec<usize> = (0..lay.n).collect();
    let mut aggs: Vec<AggSpec> = Vec::new();
    for i in 0..lay.n {
        aggs.push(AggSpec::new(AggFunc::Min, col(lay.lb(i)), enc.column_name(lay.lb(i))));
    }
    for i in 0..lay.n {
        aggs.push(AggSpec::new(AggFunc::Max, col(lay.ub(i)), enc.column_name(lay.ub(i))));
    }
    aggs.push(AggSpec::new(AggFunc::Sum, col(lay.row_lb()), "__row_lb"));
    aggs.push(AggSpec::new(AggFunc::Sum, col(lay.row_sg()), "__row_sg"));
    aggs.push(AggSpec::new(AggFunc::Sum, col(lay.row_ub()), "__row_ub"));
    Query::Aggregate { input: Box::new(inp), group_by, aggs }
}

/// Set-difference rewrite (Section 10.2).
fn rewr_difference(
    left: &Query,
    right: &Query,
    catalog: &dyn Catalog,
) -> Result<(Query, Schema), EvalError> {
    let (l_raw, ls) = rewr(left, catalog)?;
    let (r, rs) = rewr(right, catalog)?;
    ls.check_union_compatible(&rs)?;
    let lay = EncLayout::new(ls.arity());
    let n = lay.n;
    let lw = lay.width();
    let l = rewr_combine(l_raw, &ls);

    // θ_join: attribute ranges overlap (t ≃ t')
    let mut overlap = Vec::new();
    for i in 0..n {
        overlap.push(col(lay.ub(i)).geq(col(lw + lay.lb(i))));
        overlap.push(col(lw + lay.ub(i)).geq(col(lay.lb(i))));
    }
    let theta_join = Expr::conj(overlap);

    // θ_sg: same SG values; θ_c: certainly equal (t ≡ t')
    let theta_sg = Expr::conj((0..n).map(|i| col(lay.sg(i)).eq(col(lw + lay.sg(i)))).collect());
    let mut certeq = Vec::new();
    for i in 0..n {
        certeq.push(col(lay.lb(i)).eq(col(lay.ub(i))));
        certeq.push(col(lay.ub(i)).eq(col(lw + lay.lb(i))));
        certeq.push(col(lw + lay.lb(i)).eq(col(lw + lay.ub(i))));
    }
    let theta_c = Expr::conj(certeq);

    let matched =
        Query::Join { left: Box::new(l.clone()), right: Box::new(r), predicate: Some(theta_join) };

    // per-pair contribution columns
    let enc = enc_schema(&ls);
    let mut pre: Vec<(Expr, String)> = Vec::new();
    for i in 0..lw {
        pre.push((col(i), enc.column_name(i).to_string()));
    }
    pre.push((col(lw + lay.row_ub()), "__rr_lb".into()));
    pre.push((Expr::if_then_else(theta_sg, col(lw + lay.row_sg()), lit(0i64)), "__rr_sg".into()));
    pre.push((Expr::if_then_else(theta_c, col(lw + lay.row_lb()), lit(0i64)), "__rr_ub".into()));
    let preagg = project_named(matched.clone(), pre);

    // sum contributions per (distinct) left tuple
    let sumright = Query::Aggregate {
        input: Box::new(preagg),
        group_by: (0..lw).collect(),
        aggs: vec![
            AggSpec::new(AggFunc::Sum, col(lw), "__rr_lb"),
            AggSpec::new(AggFunc::Sum, col(lw + 1), "__rr_sg"),
            AggSpec::new(AggFunc::Sum, col(lw + 2), "__rr_ub"),
        ],
    };

    // left tuples with no overlapping right partner keep their annotation
    let matched_keys = Query::Distinct {
        input: Box::new(project_named(
            matched,
            (0..lw).map(|i| (col(i), enc.column_name(i).to_string())).collect(),
        )),
    };
    let anti = Query::Difference { left: Box::new(l), right: Box::new(matched_keys) };
    let mut anti_exprs: Vec<(Expr, String)> =
        (0..lw).map(|i| (col(i), enc.column_name(i).to_string())).collect();
    anti_exprs.push((lit(0i64), "__rr_lb".into()));
    anti_exprs.push((lit(0i64), "__rr_sg".into()));
    anti_exprs.push((lit(0i64), "__rr_ub".into()));
    let anti_ext = project_named(anti, anti_exprs);

    let unioned = Query::Union { left: Box::new(sumright), right: Box::new(anti_ext) };

    // final monus + drop impossible tuples
    let mut fin: Vec<(Expr, String)> =
        (0..3 * n).map(|i| (col(i), enc.column_name(i).to_string())).collect();
    fin.push((emonus(col(lay.row_lb()), col(lw)), "__row_lb".into()));
    fin.push((emonus(col(lay.row_sg()), col(lw + 1)), "__row_sg".into()));
    fin.push((emonus(col(lay.row_ub()), col(lw + 2)), "__row_ub".into()));
    let projected = project_named(unioned, fin);
    let final_q = projected.select(col(lay.row_ub()).gt(lit(0i64)));
    Ok((final_q, ls))
}

/// Monoid selection for the aggregation rewrite.
fn monoid_of(f: AggFunc) -> crate::au::aggregate::Monoid {
    use crate::au::aggregate::Monoid;
    match f {
        AggFunc::Sum | AggFunc::Count | AggFunc::Avg => Monoid::Sum,
        AggFunc::Min => Monoid::Min,
        AggFunc::Max => Monoid::Max,
    }
}

fn monoid_agg_func(m: crate::au::aggregate::Monoid) -> AggFunc {
    use crate::au::aggregate::Monoid;
    match m {
        Monoid::Sum => AggFunc::Sum,
        Monoid::Min => AggFunc::Min,
        Monoid::Max => AggFunc::Max,
    }
}

/// `⊛_M` as expressions over the row-annotation columns and a compiled
/// value triple — mirrors [`crate::au::aggregate::boxtimes`].
fn boxtimes_exprs(
    m: crate::au::aggregate::Monoid,
    row_lb: Expr,
    row_sg: Expr,
    row_ub: Expr,
    v: &RangeExprs,
) -> (Expr, Expr, Expr) {
    use crate::au::aggregate::Monoid;
    let neutral = Expr::Const(m.neutral());
    match m {
        Monoid::Sum => {
            let p = |k: &Expr, x: &Expr| k.clone().mul(x.clone());
            let lo =
                emin4(p(&row_lb, &v.lb), p(&row_lb, &v.ub), p(&row_ub, &v.lb), p(&row_ub, &v.ub));
            let hi =
                emax4(p(&row_lb, &v.lb), p(&row_lb, &v.ub), p(&row_ub, &v.lb), p(&row_ub, &v.ub));
            let sg = row_sg.mul(v.sg.clone());
            (lo, sg, hi)
        }
        Monoid::Min | Monoid::Max => {
            // candidate set is {neutral if k may be 0} ∪ {v.lb, v.ub if k
            // may be > 0}; k.ub = 0 never survives normalization but is
            // handled for completeness.
            let lo = Expr::if_then_else(
                row_ub.clone().eq(lit(0i64)),
                neutral.clone(),
                Expr::if_then_else(
                    row_lb.clone().eq(lit(0i64)),
                    emin(neutral.clone(), v.lb.clone()),
                    v.lb.clone(),
                ),
            );
            let hi = Expr::if_then_else(
                row_ub.clone().eq(lit(0i64)),
                neutral.clone(),
                Expr::if_then_else(
                    row_lb.clone().eq(lit(0i64)),
                    emax(neutral.clone(), v.ub.clone()),
                    v.ub.clone(),
                ),
            );
            let sg = Expr::if_then_else(row_sg.clone().eq(lit(0i64)), neutral, v.sg.clone());
            (lo, sg, hi)
        }
    }
}

fn clamp_expr(x: Expr, lo: Expr, hi: Expr) -> Expr {
    Expr::if_then_else(
        x.clone().lt(lo.clone()),
        lo,
        Expr::if_then_else(x.clone().gt(hi.clone()), hi, x),
    )
}

/// Aggregation rewrite (Section 10.2, with the same guards as the native
/// evaluator).
fn rewr_aggregate(
    input: &Query,
    group_by: &[usize],
    aggs: &[AggSpec],
    catalog: &dyn Catalog,
) -> Result<(Query, Schema), EvalError> {
    let (inp, in_schema) = rewr(input, catalog)?;
    let lay = EncLayout::new(in_schema.arity());
    let g = group_by.len();
    let gw = 3 * g;
    let inoff = gw; // input columns start after the group-bounds block

    // output AU schema
    let mut out_cols: Vec<String> =
        group_by.iter().map(|c| in_schema.column_name(*c).to_string()).collect();
    out_cols.extend(aggs.iter().map(|a| a.name.clone()));
    let out_schema = Schema::new(out_cols);

    // ---- Q_gbounds: one row per SG group with min/max bounds --------------
    let mut gb_aggs: Vec<AggSpec> = Vec::new();
    for (i, c) in group_by.iter().enumerate() {
        gb_aggs.push(AggSpec::new(AggFunc::Min, col(lay.lb(*c)), format!("__g{i}_lb")));
    }
    for (i, c) in group_by.iter().enumerate() {
        gb_aggs.push(AggSpec::new(AggFunc::Max, col(lay.ub(*c)), format!("__g{i}_ub")));
    }
    let qg = Query::Aggregate {
        input: Box::new(inp.clone()),
        group_by: group_by.to_vec(),
        aggs: gb_aggs,
    };
    // qg layout: [G_sg (0..g), G_lb (g..2g), G_ub (2g..3g)]

    // ---- Q_join: group bounds × input, overlap + membership guard ---------
    let mut overlap = Vec::new();
    for (i, c) in group_by.iter().enumerate() {
        overlap.push(col(2 * g + i).geq(col(inoff + lay.lb(*c))));
        overlap.push(col(inoff + lay.ub(*c)).geq(col(g + i)));
    }
    let cert_g_in = Expr::conj(
        group_by.iter().map(|c| col(inoff + lay.lb(*c)).eq(col(inoff + lay.ub(*c)))).collect(),
    );
    let theta_sg = Expr::conj(
        group_by.iter().enumerate().map(|(i, c)| col(i).eq(col(inoff + lay.sg(*c)))).collect(),
    );
    let theta_join = Expr::conj(overlap).and(cert_g_in.clone().not().or(theta_sg.clone()));
    let qjoin =
        Query::Join { left: Box::new(qg), right: Box::new(inp), predicate: Some(theta_join) };

    // ---- Q_proj: per-row contributions ------------------------------------
    let bbox_cert = Expr::conj((0..g).map(|i| col(g + i).eq(col(2 * g + i))).collect());
    let row_lb_in = col(inoff + lay.row_lb());
    let row_sg_in = col(inoff + lay.row_sg());
    let row_ub_in = col(inoff + lay.row_ub());
    let non_ug =
        bbox_cert.and(cert_g_in.clone()).and(theta_sg.clone()).and(row_lb_in.clone().gt(lit(0i64)));

    let mut proj: Vec<(Expr, String)> = Vec::new();
    for i in 0..gw {
        proj.push((col(i), format!("__k{i}")));
    }
    // per-spec contribution columns; record (start, is_avg) offsets
    let mut spec_offsets: Vec<(usize, bool)> = Vec::new();
    let mut next = gw;
    for (si, spec) in aggs.iter().enumerate() {
        let is_avg = spec.func == AggFunc::Avg;
        spec_offsets.push((next, is_avg));
        let emit = |proj: &mut Vec<(Expr, String)>,
                    monoid: crate::au::aggregate::Monoid,
                    input_expr: &Expr,
                    tag: &str|
         -> Result<(), EvalError> {
            let compiled = compile_range_expr(input_expr, lay)?;
            let shifted = RangeExprs {
                lb: compiled.lb.remap_columns(&|i| i + inoff),
                sg: compiled.sg.remap_columns(&|i| i + inoff),
                ub: compiled.ub.remap_columns(&|i| i + inoff),
            };
            let (lo, sgv, hi) = boxtimes_exprs(
                monoid,
                row_lb_in.clone(),
                row_sg_in.clone(),
                row_ub_in.clone(),
                &shifted,
            );
            let neutral = Expr::Const(monoid.neutral());
            let lba = Expr::if_then_else(non_ug.clone(), lo.clone(), emin(neutral.clone(), lo));
            let uba = Expr::if_then_else(non_ug.clone(), hi.clone(), emax(neutral.clone(), hi));
            let sga = Expr::if_then_else(theta_sg.clone(), sgv, neutral);
            proj.push((lba, format!("__a{si}_{tag}lb")));
            proj.push((sga, format!("__a{si}_{tag}sg")));
            proj.push((uba, format!("__a{si}_{tag}ub")));
            Ok(())
        };
        match spec.func {
            AggFunc::Avg => {
                emit(&mut proj, crate::au::aggregate::Monoid::Sum, &spec.input, "s")?;
                emit(&mut proj, crate::au::aggregate::Monoid::Sum, &lit(1i64), "c")?;
                next += 6;
            }
            AggFunc::Count => {
                emit(&mut proj, monoid_of(spec.func), &lit(1i64), "")?;
                next += 3;
            }
            _ => {
                emit(&mut proj, monoid_of(spec.func), &spec.input, "")?;
                next += 3;
            }
        }
    }
    // row-annotation contribution columns
    let row_base = next;
    proj.push((
        Expr::if_then_else(
            theta_sg.clone().and(cert_g_in.clone()).and(row_lb_in.clone().gt(lit(0i64))),
            lit(1i64),
            lit(0i64),
        ),
        "__r_cflag".into(),
    ));
    proj.push((
        Expr::if_then_else(theta_sg.clone(), row_sg_in.clone(), lit(0i64)),
        "__r_sg".into(),
    ));
    proj.push((
        Expr::if_then_else(theta_sg.clone().and(cert_g_in.clone()), lit(1i64), lit(0i64)),
        "__r_certgrp".into(),
    ));
    proj.push((
        Expr::if_then_else(
            theta_sg.clone().and(cert_g_in.clone().not()),
            row_ub_in.clone(),
            lit(0i64),
        ),
        "__r_uncub".into(),
    ));
    let qproj = project_named(qjoin, proj);

    // ---- Q_agg: fold contributions per output group ------------------------
    let mut fold: Vec<AggSpec> = Vec::new();
    for (si, spec) in aggs.iter().enumerate() {
        let (start, is_avg) = spec_offsets[si];
        if is_avg {
            for j in 0..6 {
                fold.push(AggSpec::new(AggFunc::Sum, col(start + j), format!("__f{si}_{j}")));
            }
        } else {
            let f = monoid_agg_func(monoid_of(spec.func));
            for j in 0..3 {
                fold.push(AggSpec::new(f, col(start + j), format!("__f{si}_{j}")));
            }
        }
    }
    fold.push(AggSpec::new(AggFunc::Max, col(row_base), "__r_cflag"));
    fold.push(AggSpec::new(AggFunc::Sum, col(row_base + 1), "__r_sg"));
    fold.push(AggSpec::new(AggFunc::Max, col(row_base + 2), "__r_certgrp"));
    fold.push(AggSpec::new(AggFunc::Sum, col(row_base + 3), "__r_uncub"));
    let qagg = Query::Aggregate { input: Box::new(qproj), group_by: (0..gw).collect(), aggs: fold };
    // qagg layout: [keys (0..gw), folded spec blocks, cflag, sgsum, certgrp, uncsum]

    // ---- final projection into the canonical encoded layout ----------------
    let mut fstart: Vec<usize> = Vec::new();
    let mut pos = gw;
    for (si, _) in aggs.iter().enumerate() {
        fstart.push(pos);
        pos += if spec_offsets[si].1 { 6 } else { 3 };
    }
    let cflag = col(pos);
    let sgsum = col(pos + 1);
    let certgrp = col(pos + 2);
    let uncsum = col(pos + 3);

    // per-spec final (lb, sg, ub) value expressions. For aggregation
    // without group-by the single output row must also bound worlds with
    // an *empty* input, where deterministic MIN/MAX/AVG is Null: when no
    // row certainly exists (cflag = 0) the lower bound extends to Null,
    // and when the SG world is empty (sgsum = 0) the SG component is
    // Null — mirroring `adjust_for_possible_empty` in the native
    // evaluator exactly.
    struct FinalAgg {
        lb: Expr,
        sg: Expr,
        ub: Expr,
    }
    let nul = Expr::Const(Value::Null);
    let widen_empty = |lb: Expr, sg: Expr, func: AggFunc| -> (Expr, Expr) {
        if g > 0 || matches!(func, AggFunc::Sum | AggFunc::Count) {
            return (lb, sg);
        }
        let lb = Expr::if_then_else(cflag.clone().gt(lit(0i64)), lb.clone(), emin(lb, nul.clone()));
        let sg = Expr::if_then_else(sgsum.clone().gt(lit(0i64)), sg, nul.clone());
        (lb, sg)
    };
    let mut finals: Vec<FinalAgg> = Vec::new();
    for (si, spec) in aggs.iter().enumerate() {
        let s = fstart[si];
        if spec.func == AggFunc::Avg {
            // columns: s..s+2 sum (lb, sg, ub); s+3..s+5 count (lb, sg, ub)
            let (slb, ssg, sub) = (col(s), col(s + 1), col(s + 2));
            let (clb, csg, cub) = (col(s + 3), col(s + 4), col(s + 5));
            let clampc = |c: Expr| Expr::if_then_else(c.clone().lt(lit(1i64)), lit(1i64), c);
            let (cl, cu, cs) = (clampc(clb), clampc(cub.clone()), clampc(csg));
            let q = |a: &Expr, b: &Expr| a.clone().div(b.clone());
            let lo = emin4(q(&slb, &cl), q(&slb, &cu), q(&sub, &cl), q(&sub, &cu));
            let hi = emax4(q(&slb, &cl), q(&slb, &cu), q(&sub, &cl), q(&sub, &cu));
            let sgv = clamp_expr(q(&ssg, &cs), lo.clone(), hi.clone());
            let (lo, sgv) = widen_empty(lo, sgv, spec.func);
            let guard = cub.eq(lit(0i64));
            finals.push(FinalAgg {
                lb: Expr::if_then_else(guard.clone(), nul.clone(), lo),
                sg: Expr::if_then_else(guard.clone(), nul.clone(), sgv),
                ub: Expr::if_then_else(guard, nul.clone(), hi),
            });
        } else {
            let (flb, fsg, fub) = (col(s), col(s + 1), col(s + 2));
            let clamped = clamp_expr(fsg, flb.clone(), fub.clone());
            let (flb, clamped) = widen_empty(flb, clamped, spec.func);
            finals.push(FinalAgg { lb: flb, sg: clamped, ub: fub });
        }
    }

    let out_enc = enc_schema(&out_schema);
    let width = g + aggs.len();
    let mut fin: Vec<(Expr, String)> = Vec::new();
    // sg block
    for i in 0..g {
        fin.push((col(i), out_enc.column_name(i).to_string()));
    }
    for (si, f) in finals.iter().enumerate() {
        fin.push((f.sg.clone(), out_enc.column_name(g + si).to_string()));
    }
    // lb block
    for i in 0..g {
        fin.push((col(g + i), out_enc.column_name(width + i).to_string()));
    }
    for (si, f) in finals.iter().enumerate() {
        fin.push((f.lb.clone(), out_enc.column_name(width + g + si).to_string()));
    }
    // ub block
    for i in 0..g {
        fin.push((col(2 * g + i), out_enc.column_name(2 * width + i).to_string()));
    }
    for (si, f) in finals.iter().enumerate() {
        fin.push((f.ub.clone(), out_enc.column_name(2 * width + g + si).to_string()));
    }
    // row annotations
    if g == 0 {
        fin.push((lit(1i64), "__row_lb".into()));
        fin.push((lit(1i64), "__row_sg".into()));
        fin.push((lit(1i64), "__row_ub".into()));
    } else {
        let sg_flag = Expr::if_then_else(sgsum.clone().gt(lit(0i64)), lit(1i64), lit(0i64));
        fin.push((cflag, "__row_lb".into()));
        fin.push((sg_flag.clone(), "__row_sg".into()));
        fin.push((emax(certgrp.add(uncsum), sg_flag), "__row_ub".into()));
    }
    Ok((project_named(qagg, fin), out_schema))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::algebra::table;
    use crate::au::{eval_au, AuConfig};
    use audb_storage::au_row;

    fn r2(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::range(lb, sg, ub)
    }

    fn sample_db() -> AuDatabase {
        let mut db = AuDatabase::new();
        db.insert(
            "r",
            AuRelation::from_rows(
                Schema::named(&["a", "b"]),
                vec![
                    au_row(vec![r2(1, 1, 1), r2(5, 10, 20)], 1, 1, 1),
                    au_row(vec![r2(1, 1, 3), r2(0, 4, 8)], 0, 1, 3),
                    au_row(vec![r2(2, 2, 2), r2(-5, -1, 0)], 1, 2, 2),
                ],
            ),
        );
        db.insert(
            "s",
            AuRelation::from_rows(
                Schema::named(&["c"]),
                vec![au_row(vec![r2(1, 1, 2)], 1, 1, 1), au_row(vec![r2(2, 2, 2)], 0, 1, 1)],
            ),
        );
        db
    }

    fn check_equivalence(q: &Query) {
        let db = sample_db();
        let native = eval_au(&db, q, &AuConfig::precise()).unwrap();
        let via_rewrite = eval_via_rewrite(&db, q).unwrap();
        assert_eq!(native, via_rewrite, "native vs rewrite mismatch for {q}");
    }

    #[test]
    fn enc_dec_roundtrip() {
        let db = sample_db();
        for (_, rel) in db.iter() {
            let enc = enc_relation(rel);
            let dec = dec_relation(&enc, &rel.schema).unwrap();
            assert_eq!(&dec, rel);
        }
    }

    /// Regression: a negative encoded row multiplicity must be rejected,
    /// not wrapped to a ~1.8e19 `u64` (which would silently corrupt the
    /// `Dec` side of Theorem 8's round trip).
    #[test]
    fn dec_rejects_negative_multiplicities() {
        let schema = Schema::named(&["a"]);
        let enc = Relation::from_rows(
            enc_schema(&schema),
            vec![(
                Tuple::new(vec![
                    Value::Int(1), // a^sg
                    Value::Int(1), // a↓
                    Value::Int(1), // a↑
                    Value::Int(-1),
                    Value::Int(1),
                    Value::Int(1),
                ]),
                1,
            )],
        );
        let err = dec_relation(&enc, &schema).unwrap_err();
        assert!(
            matches!(&err, EvalError::InvalidAnnotation(m) if m.contains("negative")),
            "expected a negative-multiplicity error, got {err:?}"
        );
    }

    /// Regression: multiplication with the encoded tuple's bag
    /// multiplicity is checked, not wrapping.
    #[test]
    fn dec_rejects_multiplicity_overflow() {
        let schema = Schema::named(&["a"]);
        let big = (u64::MAX / 2) as i64;
        let enc = Relation::from_rows(
            enc_schema(&schema),
            vec![(
                Tuple::new(vec![
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(1),
                    Value::Int(big),
                    Value::Int(big),
                    Value::Int(big),
                ]),
                3,
            )],
        );
        let err = dec_relation(&enc, &schema).unwrap_err();
        assert!(
            matches!(&err, EvalError::InvalidAnnotation(m) if m.contains("overflows")),
            "expected an overflow error, got {err:?}"
        );
    }

    #[test]
    fn compiled_expressions_match_range_eval() {
        let exprs = vec![
            col(0).add(col(1)),
            col(0).mul(col(1)).sub(lit(3i64)),
            col(0).leq(col(1)),
            col(0).eq(lit(1i64)),
            Expr::if_then_else(col(0).lt(col(1)), col(0), col(1)),
            col(0).neq(col(1)).and(col(0).geq(lit(0i64))),
        ];
        let tuples = vec![
            vec![r2(1, 2, 3), r2(0, 0, 5)],
            vec![r2(-3, -1, 0), r2(2, 2, 2)],
            vec![r2(1, 1, 1), r2(1, 1, 1)],
        ];
        let lay = EncLayout::new(2);
        for e in &exprs {
            let c = compile_range_expr(e, lay).unwrap();
            for t in &tuples {
                let native = e.eval_range(t).unwrap();
                // encode the tuple with a dummy annotation
                let mut enc: Vec<Value> = t.iter().map(|r| r.sg.clone()).collect();
                enc.extend(t.iter().map(|r| r.lb.clone()));
                enc.extend(t.iter().map(|r| r.ub.clone()));
                enc.extend([Value::Int(1), Value::Int(1), Value::Int(1)]);
                assert_eq!(c.lb.eval(&enc).unwrap(), native.lb, "lb of {e}");
                assert_eq!(c.sg.eval(&enc).unwrap(), native.sg, "sg of {e}");
                assert_eq!(c.ub.eval(&enc).unwrap(), native.ub, "ub of {e}");
            }
        }
    }

    #[test]
    fn rewrite_select() {
        check_equivalence(&table("r").select(col(0).eq(lit(1i64))));
        check_equivalence(&table("r").select(col(1).gt(lit(3i64))));
        check_equivalence(&table("r").select(col(0).leq(col(1))));
    }

    #[test]
    fn rewrite_project() {
        check_equivalence(&table("r").project(vec![(col(1), "b")]));
        check_equivalence(&table("r").project(vec![(col(0).add(col(1)), "x"), (lit(7i64), "c")]));
    }

    #[test]
    fn rewrite_join() {
        check_equivalence(&table("r").join_on(table("s"), col(0).eq(col(2))));
        check_equivalence(&table("r").cross(table("s")));
        check_equivalence(&table("r").join_on(table("s"), col(0).leq(col(2))));
    }

    #[test]
    fn rewrite_union() {
        check_equivalence(&table("s").union(table("s")));
    }

    #[test]
    fn rewrite_difference() {
        check_equivalence(
            &table("r")
                .project(vec![(col(0), "a")])
                .difference(table("s").project(vec![(col(0), "a")])),
        );
    }

    #[test]
    fn rewrite_distinct() {
        check_equivalence(&table("r").project(vec![(col(0), "a")]).distinct());
    }

    #[test]
    fn rewrite_aggregate_groupby() {
        check_equivalence(&table("r").aggregate(
            vec![0],
            vec![
                AggSpec::new(AggFunc::Sum, col(1), "s"),
                AggSpec::count("c"),
                AggSpec::new(AggFunc::Min, col(1), "lo"),
                AggSpec::new(AggFunc::Max, col(1), "hi"),
            ],
        ));
    }

    #[test]
    fn rewrite_aggregate_no_groupby() {
        check_equivalence(
            &table("r").aggregate(vec![], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]),
        );
    }

    #[test]
    fn rewrite_aggregate_avg() {
        check_equivalence(
            &table("r").aggregate(vec![0], vec![AggSpec::new(AggFunc::Avg, col(1), "a")]),
        );
        check_equivalence(
            &table("r").aggregate(vec![], vec![AggSpec::new(AggFunc::Avg, col(1), "a")]),
        );
    }

    #[test]
    fn rewrite_aggregate_empty_input() {
        let mut db = AuDatabase::new();
        db.insert("e", AuRelation::empty(Schema::named(&["x"])));
        let q = table("e").aggregate(
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, col(0), "s"),
                AggSpec::new(AggFunc::Min, col(0), "m"),
                AggSpec::new(AggFunc::Avg, col(0), "a"),
                AggSpec::count("c"),
            ],
        );
        let native = eval_au(&db, &q, &AuConfig::precise()).unwrap();
        let via = eval_via_rewrite(&db, &q).unwrap();
        assert_eq!(native, via);
    }

    #[test]
    fn rewrite_composed_query() {
        // selection → join → aggregation end-to-end
        let q = table("r")
            .select(col(1).geq(lit(0i64)))
            .join_on(table("s"), col(0).eq(col(2)))
            .aggregate(vec![2], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
        check_equivalence(&q);
    }
}
