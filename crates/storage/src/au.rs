//! AU-relations and AU-databases (Definition 12): functions from
//! range-annotated tuples to `N_AU` annotations, stored as normalized
//! row lists.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use audb_core::{AuAnnot, EvalError, ExecError, RangeValue, Semiring, Value};
use audb_exec::Executor;

use crate::column::{packed_tuple_keys, ColumnSet, GatherView, RowRef};
use crate::relation::{Database, Relation};
use crate::schema::Schema;
use crate::tuple::RangeTuple;

/// An `N_AU`-relation (Definition 12): range tuples annotated with
/// `(lb, sg, ub)` multiplicity triples.
///
/// Tracks whether the row list is in normal form (duplicates merged,
/// zeros dropped, canonically sorted) so that [`AuRelation::normalize`]
/// is free on already-normalized relations and
/// [`AuRelation::annotation`] can binary-search.
///
/// The list is held as tuples, as column lanes ([`crate::column`]), or
/// as both: a relation is born with the side its producer built — a
/// loader's or a row operator's tuples, a fused chain's gathered lanes
/// ([`AuRelation::from_columns`]) — and builds the other on first use
/// ([`AuRelation::rows`], [`AuRelation::columns`]). Both sides always
/// name the same list; every mutation goes through the tuples and drops
/// the lanes.
#[derive(Debug, Clone)]
pub struct AuRelation {
    pub schema: Schema,
    rows: OnceLock<Vec<(RangeTuple, AuAnnot)>>,
    normalized: bool,
    /// Per-attribute typed lanes + annotation column, shared by `Arc`
    /// across pipeline chunks and serving snapshots; `Clone` shares them.
    columns: OnceLock<Arc<ColumnSet>>,
}

impl PartialEq for AuRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}
impl Eq for AuRelation {}

impl AuRelation {
    fn of_rows(schema: Schema, rows: Vec<(RangeTuple, AuAnnot)>, normalized: bool) -> Self {
        AuRelation { schema, rows: OnceLock::from(rows), normalized, columns: OnceLock::new() }
    }

    pub fn empty(schema: Schema) -> Self {
        AuRelation::of_rows(schema, Vec::new(), true)
    }

    /// Build from rows; merges identical range tuples (summing
    /// annotations in `N_AU`) and drops zero annotations.
    pub fn from_rows(schema: Schema, rows: Vec<(RangeTuple, AuAnnot)>) -> Self {
        let mut r = AuRelation::of_rows(schema, rows, false);
        r.normalize();
        r
    }

    /// Build from rows already in normal form — canonically sorted,
    /// duplicate-free, with no zero annotations (debug-asserted). Lets
    /// operators that provably preserve normal form (e.g. selection
    /// over a normalized input) skip the sort-merge.
    pub fn from_normalized_rows(schema: Schema, rows: Vec<(RangeTuple, AuAnnot)>) -> Self {
        debug_assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "rows must be strictly sorted by tuple"
        );
        debug_assert!(rows.iter().all(|(_, k)| !k.is_zero()), "rows must have nonzero annotations");
        AuRelation::of_rows(schema, rows, true)
    }

    /// A relation born columnar: the row list `columns` is the twin of,
    /// with no zero annotation (debug-asserted) and, when `normalized`
    /// says so, in normal form. No tuple exists until someone asks for
    /// [`AuRelation::rows`].
    pub fn from_columns(schema: Schema, columns: Arc<ColumnSet>, normalized: bool) -> Self {
        debug_assert_eq!(columns.arity(), schema.arity(), "one lane per attribute");
        debug_assert!(columns.annots().ub.iter().all(|&ub| ub > 0), "nonzero annotations");
        AuRelation { schema, rows: OnceLock::new(), normalized, columns: OnceLock::from(columns) }
    }

    /// Lift a deterministic relation into a fully certain AU-relation
    /// (the degenerate case: SGQP "as an AU-DB").
    pub fn from_certain(rel: &Relation) -> Self {
        let rows = rel
            .rows()
            .iter()
            .map(|(t, k)| (RangeTuple::certain(t), AuAnnot::triple(*k, *k, *k)))
            .collect();
        AuRelation::from_rows(rel.schema.clone(), rows)
    }

    /// The row list as tuples — built from the lanes on the first call
    /// to a relation born columnar, and kept.
    pub fn rows(&self) -> &[(RangeTuple, AuAnnot)] {
        self.rows.get_or_init(|| self.columns.get().map_or_else(Vec::new, |cs| cs.rows()))
    }

    /// Does the row list exist as tuples (or must [`AuRelation::rows`]
    /// build them)?
    pub fn has_rows(&self) -> bool {
        self.rows.get().is_some()
    }

    /// Does the row list exist as lanes (or must
    /// [`AuRelation::columns`] build them)?
    pub fn has_columns(&self) -> bool {
        self.columns.get().is_some()
    }

    /// The tuples, for a mutation: built if need be, and the lanes — no
    /// longer their twin — dropped.
    fn rows_mut(&mut self) -> &mut Vec<(RangeTuple, AuAnnot)> {
        self.rows();
        self.columns.take();
        self.rows.get_mut().unwrap_or_else(|| unreachable!("`rows` initialized the cell"))
    }

    /// Give up the row list (to move rows into another relation).
    pub fn into_rows(mut self) -> Vec<(RangeTuple, AuAnnot)> {
        std::mem::take(self.rows_mut())
    }

    pub fn push(&mut self, t: RangeTuple, k: AuAnnot) {
        if !k.is_zero() {
            self.rows_mut().push((t, k));
            self.normalized = false;
        }
    }

    /// Append a batch of produced rows, dropping zero annotations — the
    /// ordered-merge sink of the parallel operator drivers. An empty
    /// relation adopts the batch's vector instead of copying it.
    pub fn append_rows(&mut self, mut rows: Vec<(RangeTuple, AuAnnot)>) {
        if !self.is_empty() {
            rows.into_iter().for_each(|(t, k)| self.push(t, k));
            return;
        }
        rows.retain(|(_, k)| !k.is_zero());
        if !rows.is_empty() {
            *self.rows_mut() = rows;
            self.normalized = false;
        }
    }

    /// Append clones of another relation's rows (bag union without the
    /// intermediate `to_vec` the copy-free pipeline avoids).
    pub fn extend_from(&mut self, other: &AuRelation) {
        if other.is_empty() {
            return;
        }
        self.rows_mut().extend(other.rows().iter().cloned());
        self.normalized = false;
    }

    /// Is the row list known to be in normal form?
    pub fn is_normalized(&self) -> bool {
        self.normalized
    }

    pub fn len(&self) -> usize {
        match (self.rows.get(), self.columns.get()) {
            (Some(rows), _) => rows.len(),
            (None, cs) => cs.map_or(0, |cs| cs.nrows()),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-memory footprint of the relation under the columnar layout,
    /// in bytes: the size of every attribute lane's component arrays
    /// (typed lanes are `3 × 8` bytes per row for `Int`/`Float`, `3` for
    /// `Bool`; boxed lanes charge the full `RangeValue` plus each `Str`
    /// cell's text length — an upper bound on the text bytes held, since
    /// clones share one allocation) plus the annotation column. This is
    /// the size the observability layer reports as `bytes_out` per
    /// operator and the budget layer charges. Deterministic, and
    /// identical whether or not a row-born relation's lanes have been
    /// built.
    pub fn estimated_bytes(&self) -> u64 {
        match self.columns.get() {
            Some(cs) => cs.estimated_bytes(),
            None => ColumnSet::byte_size_of_rows(self.schema.arity(), self.rows()),
        }
    }

    /// The row list as column lanes, built from the tuples on the first
    /// call to a relation born of rows and shared from then on (cheap
    /// `Arc` clone per caller — pipeline chunks borrow lanes out of it,
    /// serving snapshots publish it to every reader).
    pub fn columns(&self) -> Arc<ColumnSet> {
        Arc::clone(
            self.columns
                .get_or_init(|| Arc::new(ColumnSet::from_rows(self.schema.arity(), self.rows()))),
        )
    }

    /// Build the column cache now (no-op when already built) — the
    /// serving layer warms snapshots before publishing so readers never
    /// pay the columnarization.
    pub fn warm_columns(&self) {
        let _ = self.columns();
    }

    /// Merge identical range tuples with `+_{N_AU}`, drop `(0,0,0)`
    /// annotations, sort canonically. Keeps the AU-relation a function
    /// `D_I^n → N_AU`. Free when the relation is already in normal form.
    ///
    /// Infallible: the sequential executor carries no cancellation
    /// token or budget, and the (saturating) `N_AU` sum is panic-free.
    #[allow(clippy::expect_used)] // documented infallible: ungoverned sequential executor
    pub fn normalize(&mut self) {
        self.normalize_with(&Executor::sequential())
            .expect("ungoverned sequential normalize cannot fault");
    }

    /// [`Self::normalize`] on the sort-merge driver: every morsel of rows
    /// is keyed, sorted and merged on the executor's workers and the
    /// sorted runs are k-way-merged into the canonical order — the result
    /// is byte-identical for any worker count.
    /// Fallible through the runtime's governance: the input rows are
    /// charged to the executor's budget, and cancellation/deadlines are
    /// observed at morsel boundaries. On error the row list is left
    /// empty — callers propagate the fault and drop the relation.
    pub fn normalize_with(&mut self, exec: &Executor) -> Result<(), ExecError> {
        if self.normalized {
            return Ok(());
        }
        let rows = std::mem::take(self.rows_mut());
        // Sorting is keyed on packed bytes, typed per value position (a
        // byte order that refines the tuple order; see `crate::column`)
        // — the output is byte-identical to sorting on the tuples alone.
        let arity = self.schema.arity();
        let write_keys =
            |rows: &[(RangeTuple, AuAnnot)], keys: &mut Vec<u8>, exact: &mut [bool]| {
                packed_tuple_keys(rows.iter().map(|(t, _)| t), arity, keys, exact)
            };
        *self.rows_mut() = merge_sorted(exec, rows, write_keys)?;
        self.normalized = true;
        Ok(())
    }

    /// [`Self::normalize_with`] of a row list that is still a
    /// [`GatherView`] (row `i` annotated `annots[i]`), before any tuple
    /// is built: the view rows that survive the merge, in canonical
    /// order, with their summed annotations — same driver, same
    /// governance, over 16-byte row handles that compare the lane cells
    /// as the tuples would, keyed a column at a time
    /// ([`GatherView::write_keys`]); [`GatherView::tuples`] over
    /// the result is what normalizing the materialized list returns.
    /// Zero annotations never enter a relation ([`Self::append_rows`])
    /// and an empty list is in normal form, so neither reaches the
    /// driver.
    pub fn normalized_view_rows(
        view: &GatherView<'_>,
        annots: &[AuAnnot],
        exec: &Executor,
    ) -> Result<Vec<(u32, AuAnnot)>, ExecError> {
        let nonzero = annots.iter().enumerate().filter(|(_, k)| !k.is_zero());
        let mut rows: Vec<_> = nonzero.map(|(i, k)| (view.row(i as u32), *k)).collect();
        if !rows.is_empty() {
            let write_keys =
                |rows: &[(RowRef<'_>, AuAnnot)], keys: &mut Vec<u8>, exact: &mut [bool]| {
                    view.write_keys(rows.iter().map(|(row, _)| row.row), keys, exact)
                };
            rows = merge_sorted(exec, rows, write_keys)?;
        }
        Ok(rows.into_iter().map(|(row, k)| (row.row, k)).collect())
    }

    pub fn normalized(&self) -> AuRelation {
        let mut r = self.clone();
        r.normalize();
        r
    }

    /// Consuming normal form — avoids the clone of [`Self::normalized`]
    /// in the evaluation pipeline.
    pub fn into_normalized(mut self) -> AuRelation {
        self.normalize();
        self
    }

    /// Consuming [`Self::normalize_with`].
    pub fn into_normalized_with(mut self, exec: &Executor) -> Result<AuRelation, ExecError> {
        self.normalize_with(exec)?;
        Ok(self)
    }

    /// Annotation `R(t)` of a specific range tuple. Binary-searches the
    /// canonically sorted rows of a normalized relation; falls back to a
    /// linear scan otherwise.
    pub fn annotation(&self, t: &RangeTuple) -> AuAnnot {
        if self.normalized {
            // normal form has at most one entry per range tuple
            return match self.rows().binary_search_by(|(t2, _)| t2.cmp(t)) {
                Ok(i) => self.rows()[i].1,
                Err(_) => AuAnnot::zero(),
            };
        }
        let same = self.rows().iter().filter(|(t2, _)| t2 == t);
        same.fold(AuAnnot::zero(), |acc, (_, k)| acc.plus(k))
    }

    /// Extract the selected-guess world `R^sg` (Definition 13): group
    /// tuples by their SG values and sum the SG annotations.
    pub fn sg_world(&self) -> Relation {
        let rows =
            self.rows().iter().filter(|(_, k)| k.sg > 0).map(|(t, k)| (t.sg(), k.sg)).collect();
        Relation::from_rows(self.schema.clone(), rows)
    }

    /// Total upper-bound multiplicity — the "possible size" accuracy
    /// metric of Figure 14b. A sum in `N`: it saturates at `u64::MAX`
    /// (compressed joins of compressed joins carry saturated `ub`s).
    pub fn possible_size(&self) -> u64 {
        match self.columns.get() {
            Some(cs) => cs.annots().ub.iter().fold(0, |acc, ub| acc.plus(ub)),
            None => self.rows().iter().fold(0, |acc, (_, k)| acc.plus(&k.ub)),
        }
    }

    /// Mean width of attribute ranges (tightness metric, Figure 13d).
    pub fn mean_range_width(&self, domain_halfwidth: f64) -> f64 {
        let mut n = 0usize;
        let mut total = 0.0;
        for (t, _) in self.rows() {
            for r in t.values() {
                total += r.width(domain_halfwidth);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

impl fmt::Display for AuRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (t, k) in self.rows() {
            writeln!(f, "  {t} ↦ {k}")?;
        }
        Ok(())
    }
}

/// Normalization on the sort-merge driver: merge equal rows with
/// `+_{N_AU}`, drop zeros, sort — by `(packed key, row)`.
fn merge_sorted<T: Ord + Send>(
    exec: &Executor,
    rows: Vec<(T, AuAnnot)>,
    write_keys: impl Fn(&[(T, AuAnnot)], &mut Vec<u8>, &mut [bool]) -> usize + Sync,
) -> Result<Vec<(T, AuAnnot)>, ExecError> {
    exec.sort_merge_by_key(
        rows,
        |k: &AuAnnot| !k.is_zero(),
        |acc: &mut AuAnnot, k| *acc = acc.plus(k),
        write_keys,
    )
}

/// An AU-database: a catalog of named AU-relations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuDatabase {
    relations: BTreeMap<String, AuRelation>,
}

impl AuDatabase {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lift a deterministic database into a certain AU-database.
    pub fn from_certain(db: &Database) -> Self {
        let mut out = AuDatabase::new();
        for (name, rel) in db.iter() {
            out.insert(name.clone(), AuRelation::from_certain(rel));
        }
        out
    }

    pub fn insert(&mut self, name: impl Into<String>, rel: AuRelation) {
        self.relations.insert(name.into(), rel);
    }

    pub fn get(&self, name: &str) -> Result<&AuRelation, EvalError> {
        self.relations.get(name).ok_or_else(|| EvalError::NotFound(format!("AU relation {name}")))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &AuRelation)> {
        self.relations.iter()
    }

    /// The selected-guess world of the whole database.
    pub fn sg_world(&self) -> Database {
        let mut db = Database::new();
        for (name, rel) in &self.relations {
            db.insert(name.clone(), rel.sg_world());
        }
        db
    }

    /// Build every relation's column cache ([`AuRelation::columns`]) —
    /// called by the serving engine before publishing a snapshot so the
    /// columnarization cost is paid once at publish time, never by a
    /// reader.
    pub fn warm_columns(&self) {
        for (_, rel) in self.iter() {
            rel.warm_columns();
        }
    }
}

/// Convenience builder for AU rows used across tests and generators.
pub fn au_row(ranges: Vec<RangeValue>, lb: u64, sg: u64, ub: u64) -> (RangeTuple, AuAnnot) {
    (RangeTuple::new(ranges), AuAnnot::triple(lb, sg, ub))
}

/// Convenience: certain int tuple row.
pub fn certain_row(vals: &[i64], lb: u64, sg: u64, ub: u64) -> (RangeTuple, AuAnnot) {
    (
        RangeTuple::new(vals.iter().map(|v| RangeValue::certain(Value::Int(*v))).collect()),
        AuAnnot::triple(lb, sg, ub),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    /// Example 7 / Figure 5: SG-world extraction sums annotations of
    /// tuples with identical SG values.
    #[test]
    fn sg_world_extraction_example_7() {
        let schema = Schema::named(&["A", "B"]);
        let r = AuRelation::from_rows(
            schema,
            vec![
                au_row(
                    vec![RangeValue::certain(Value::Int(1)), RangeValue::certain(Value::Int(1))],
                    2,
                    2,
                    3,
                ),
                au_row(
                    vec![RangeValue::certain(Value::Int(1)), RangeValue::range(1i64, 1i64, 3i64)],
                    2,
                    3,
                    3,
                ),
                au_row(
                    vec![RangeValue::range(1i64, 2i64, 2i64), RangeValue::certain(Value::Int(3))],
                    1,
                    1,
                    1,
                ),
            ],
        );
        let sgw = r.sg_world();
        let t11: Tuple = [1i64, 1].into_iter().collect();
        let t23: Tuple = [2i64, 3].into_iter().collect();
        assert_eq!(sgw.multiplicity(&t11), 5);
        assert_eq!(sgw.multiplicity(&t23), 1);
    }

    #[test]
    fn normalize_merges_identical_range_tuples() {
        let schema = Schema::named(&["A"]);
        let row = vec![RangeValue::range(1i64, 2i64, 3i64)];
        let r = AuRelation::from_rows(
            schema,
            vec![
                au_row(row.clone(), 1, 1, 1),
                au_row(row.clone(), 0, 1, 2),
                au_row(vec![RangeValue::certain(Value::Int(9))], 0, 0, 0),
            ],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.annotation(&RangeTuple::new(row)), AuAnnot::triple(1, 2, 3));
    }

    #[test]
    fn from_certain_round_trip() {
        let rel = Relation::from_rows(
            Schema::named(&["A"]),
            vec![([1i64].into_iter().collect(), 2), ([2i64].into_iter().collect(), 1)],
        );
        let au = AuRelation::from_certain(&rel);
        assert_eq!(au.sg_world(), rel.normalized());
        // all annotations are exact triples (k,k,k)
        for (_, k) in au.rows() {
            assert_eq!(k.lb, k.ub);
        }
    }

    #[test]
    fn possible_size_counts_upper_bounds() {
        let schema = Schema::named(&["A"]);
        let r = AuRelation::from_rows(
            schema,
            vec![certain_row(&[1], 0, 1, 4), certain_row(&[2], 1, 1, 2)],
        );
        assert_eq!(r.possible_size(), 6);
    }

    /// Normalization against a `BTreeMap` fold over the tuple order: heavy
    /// duplication, strings sharing a prefix longer than the packed key
    /// and integers beyond 2^53 (the key's two deliberate coarsenings —
    /// only the full-comparison tie-break orders them), numerically equal
    /// `Int`/`Float` cells, zero and saturating annotations; identical
    /// for every worker count.
    #[test]
    fn normalize_matches_btreemap_fold_reference() {
        use audb_exec::Partitioner;
        let long = |tail: &str| Value::str(format!("a shared prefix of 25 bytes{tail}"));
        let big = 1i64 << 53;
        let pool = [
            Value::Int(2),
            Value::float(2.0),
            Value::Int(big),
            Value::Int(big + 1),
            Value::float(big as f64),
            long(""),
            long("!"),
            long("?"),
            Value::Null,
            Value::Int(-7),
        ];
        let annots = [
            AuAnnot::triple(0, 0, 0),
            AuAnnot::triple(0, 1, 2),
            AuAnnot::triple(1, 1, 1),
            AuAnnot::triple(0, u64::MAX - 1, u64::MAX),
            AuAnnot::triple(u64::MAX, u64::MAX, u64::MAX),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let schema = Schema::named(&["A", "B"]);
        for (n, spread) in [(0, 1), (1, 1), (600, 2), (600, 10), (2500, 10)] {
            let rows: Vec<(RangeTuple, AuAnnot)> = (0..n)
                .map(|_| {
                    let mut cell = || {
                        let mut v =
                            [next(spread), next(spread), next(spread)].map(|i| pool[i].clone());
                        v.sort();
                        let [lb, sg, ub] = v;
                        RangeValue::new(lb, sg, ub).unwrap()
                    };
                    (RangeTuple::new(vec![cell(), cell()]), annots[next(annots.len())])
                })
                .collect();
            let mut reference: BTreeMap<RangeTuple, AuAnnot> = BTreeMap::new();
            for (t, k) in rows.iter().filter(|(_, k)| !k.is_zero()) {
                let acc = reference.entry(t.clone()).or_insert_with(AuAnnot::zero);
                *acc = acc.plus(k);
            }
            let reference: Vec<(RangeTuple, AuAnnot)> = reference.into_iter().collect();
            for w in [1usize, 2, 4, 7] {
                let exec = Executor::new(w).with_partitioner(Partitioner {
                    min_morsel: 1,
                    morsels_per_worker: 3,
                    min_rows_per_worker: 0,
                });
                let mut r = AuRelation::of_rows(schema.clone(), rows.clone(), false);
                r.normalize_with(&exec).unwrap();
                assert_eq!(r.len(), reference.len(), "n = {n}, spread = {spread}, workers = {w}");
                for (got, want) in r.rows().iter().zip(&reference) {
                    assert_eq!(got, want, "n = {n}, spread = {spread}, workers = {w}");
                }
            }
        }
    }

    /// `estimated_bytes` is the exact columnar footprint, hand-counted:
    /// a 3-row relation with one homogeneous `Int` column (typed lane)
    /// and one mixed column holding a string (boxed lane).
    #[test]
    fn estimated_bytes_hand_counted() {
        let schema = Schema::named(&["A", "B"]);
        let r = AuRelation::from_rows(
            schema,
            vec![
                au_row(
                    vec![
                        RangeValue::range(1i64, 2i64, 3i64),
                        RangeValue::certain(Value::str("abcde")),
                    ],
                    1,
                    1,
                    1,
                ),
                au_row(
                    vec![RangeValue::certain(Value::Int(7)), RangeValue::certain(Value::Int(0))],
                    1,
                    1,
                    2,
                ),
                au_row(
                    vec![
                        RangeValue::range(-4i64, 0i64, 4i64),
                        RangeValue::certain(Value::str("xy")),
                    ],
                    0,
                    1,
                    1,
                ),
            ],
        );
        assert_eq!(r.len(), 3);
        let annots: u64 = 3 * 3 * 8; // 3 rows × (lb,sg,ub) × u64
        let lane_a: u64 = 3 * 3 * 8; // Int lane: 3 rows × 3 components × i64
                                     // column B is mixed Int/Str → boxed: full RangeValue per row
                                     // plus the string heap ("abcde" + "xy" = 7 bytes; the certain
                                     // string rows store it in all three components)
        let lane_b = 3 * std::mem::size_of::<RangeValue>() as u64 + 3 * 5 + 3 * 2;
        assert_eq!(r.estimated_bytes(), annots + lane_a + lane_b);
        // identical whether or not the column cache is materialized
        let before = r.estimated_bytes();
        r.warm_columns();
        assert_eq!(r.estimated_bytes(), before);
    }

    /// `append_rows` into an empty relation adopts the batch: zeros
    /// dropped, order kept, not normalized, column cache invalidated —
    /// and appending to a non-empty relation still copies behind it.
    #[test]
    fn append_rows_adopts_into_an_empty_relation() {
        let mut r = AuRelation::empty(Schema::named(&["A"]));
        assert_eq!(r.columns().nrows(), 0);
        let batch = vec![
            certain_row(&[3], 1, 1, 1),
            certain_row(&[9], 0, 0, 0),
            certain_row(&[1], 0, 1, 2),
            certain_row(&[3], 1, 1, 1),
        ];
        let kept = [batch[0].clone(), batch[2].clone(), batch[3].clone()];
        r.append_rows(batch);
        assert_eq!(r.rows(), &kept[..]);
        assert!(!r.is_normalized());
        assert_eq!(r.columns().nrows(), 3);
        r.append_rows(vec![certain_row(&[0], 0, 0, 0), certain_row(&[2], 1, 1, 1)]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.rows()[3], certain_row(&[2], 1, 1, 1));
        assert_eq!(r.columns().nrows(), 4);

        // nothing but zeros leaves an empty relation as it was: normalized
        let mut r = AuRelation::empty(Schema::named(&["A"]));
        r.append_rows(vec![certain_row(&[9], 0, 0, 0)]);
        assert!(r.is_empty() && r.is_normalized());
    }

    /// Normalizing a row list while it is still a gather view over
    /// lanes, then building the survivors, is normalizing the
    /// materialized list — against a `BTreeMap` fold over the tuples,
    /// which shares no key with the driver: mixed lane tags, an index on
    /// some columns, > 90 % duplicates, zero annotations, an
    /// all-duplicates view, boxed keys that are exact next to keys a long
    /// string cuts short (rows equal on every key byte, different past
    /// it), at every worker count; and a `Float` lane's `-0.0` next to
    /// `0.0` stays two rows (distinct bits, as the lane compares them).
    /// A driver that merges equal keys without checking the rows where a
    /// key is inexact fails the cut-short case.
    #[test]
    fn normalized_view_rows_match_normalizing_the_materialized_list() {
        use audb_core::ValueLane;
        let execs = view_execs();
        let long = |tail: &str| Value::str(format!("a shared prefix of 25 bytes{tail}"));
        // row i repeats row g(i): at most 53 distinct tuples of 900
        let (n, g) = (900usize, |i: usize| i * 7 % 53);
        let ints: Vec<RangeValue> = (0..n)
            .map(|i| RangeValue::range(0i64, (g(i) % 3) as i64, (2 + g(i) % 2) as i64))
            .collect();
        let floats: Vec<RangeValue> =
            (0..7).map(|i| RangeValue::range(-0.5 * i as f64, 0.0, 0.25 * i as f64)).collect();
        let boxed: Vec<RangeValue> =
            [Value::Int(2), Value::float(2.0), long("!"), long("?"), Value::Null]
                .into_iter()
                .map(RangeValue::certain)
                .collect();
        let bools: Vec<RangeValue> =
            (0..n).map(|i| RangeValue::range(false, g(i) % 2 == 0, true)).collect();
        let lanes = [&ints, &floats, &boxed, &bools].map(|c| ValueLane::from_cells(c.iter()));
        let fidx: Vec<u32> = (0..n).map(|i| (g(i) % 7) as u32).collect();
        let bidx: Vec<u32> = (0..n).map(|i| (g(i) % 5) as u32).collect();
        let view = GatherView::new(vec![
            (lanes[0].as_slice(), None),
            (lanes[1].as_slice(), Some(&fidx)),
            (lanes[2].as_slice(), Some(&bidx)),
            (lanes[3].as_slice(), None),
        ]);
        assert_eq!(view.typed_cols(), (3, 4));
        let annots: Vec<AuAnnot> =
            (0..n as u64).map(|i| AuAnnot::triple(0, i % 4 / 2, i % 4)).collect();
        let distinct = check_view_rows(&view, &annots, "mixed");
        assert!(distinct * 10 < n, "{distinct} distinct of {n}");
        // all zeros (or nothing) never reaches the driver
        let zeros = vec![AuAnnot::zero(); n];
        assert!(AuRelation::normalized_view_rows(&view, &zeros, &Executor::sequential())
            .unwrap()
            .is_empty());

        // every row one row: one survivor, every annotation summed
        let first = vec![3u32; n];
        let same =
            GatherView::new(lanes.iter().map(|l| (l.as_slice(), Some(&first[..]))).collect());
        assert_eq!(check_view_rows(&same, &annots, "all duplicates"), 1);

        // exact boxed keys (a short string, an `Int`) next to keys cut
        // short by a long string, the column after telling rows apart
        let mixed: Vec<RangeValue> = [long("!"), long("?"), Value::str("a"), Value::Int(2)]
            .into_iter()
            .map(RangeValue::certain)
            .collect();
        let after: Vec<RangeValue> = (0..3i64).map(|i| RangeValue::range(i, i, 2)).collect();
        let (mixed, after) =
            (ValueLane::from_cells(mixed.iter()), ValueLane::from_cells(after.iter()));
        let midx: Vec<u32> = (0..n as u32).map(|i| i / 2 % 4).collect();
        let aidx: Vec<u32> = (0..n as u32).map(|i| i / 8 % 3).collect();
        let cut = GatherView::new(vec![
            (mixed.as_slice(), Some(&midx[..])),
            (after.as_slice(), Some(&aidx[..])),
        ]);
        assert_eq!(check_view_rows(&cut, &annots, "exact next to cut-short keys"), 12);

        // -0.0 and 0.0: one value of the domain, two cells of a lane
        let zero = [-0.0, 0.0, -0.0, 0.0, 0.0];
        let signed = ValueLane::Float { lb: zero.to_vec(), sg: zero.to_vec(), ub: vec![1.0; 5] };
        let view = GatherView::new(vec![(signed.as_slice(), None)]);
        let ones = vec![AuAnnot::triple(1, 1, 1); zero.len()];
        for exec in &execs {
            let rows = AuRelation::normalized_view_rows(&view, &ones, exec).unwrap();
            let want = [(0, AuAnnot::triple(2, 2, 2)), (1, AuAnnot::triple(3, 3, 3))];
            assert_eq!(rows, want, "workers = {}", exec.workers());
        }
    }

    /// Executors at 1, 2, 4 and 7 workers, every row a possible seam.
    fn view_execs() -> [Executor; 4] {
        use audb_exec::Partitioner;
        [1usize, 2, 4, 7].map(|w| {
            Executor::new(w).with_partitioner(Partitioner {
                min_morsel: 1,
                morsels_per_worker: 3,
                min_rows_per_worker: 0,
            })
        })
    }

    /// `normalized_view_rows` at every worker count against a `BTreeMap`
    /// fold over the materialized tuples; the number of survivors.
    fn check_view_rows(view: &GatherView<'_>, annots: &[AuAnnot], ctx: &str) -> usize {
        let mut fold: BTreeMap<RangeTuple, AuAnnot> = BTreeMap::new();
        let listed = view.tuples((0..annots.len() as u32).map(|i| (i, annots[i as usize])));
        for (t, k) in listed.into_iter().filter(|(_, k)| !k.is_zero()) {
            let acc = fold.entry(t).or_insert_with(AuAnnot::zero);
            *acc = acc.plus(&k);
        }
        let want: Vec<(RangeTuple, AuAnnot)> = fold.into_iter().collect();
        for exec in &view_execs() {
            let rows = AuRelation::normalized_view_rows(view, annots, exec).unwrap();
            let w = exec.workers();
            assert_eq!(view.tuples(rows.into_iter()), want, "{ctx}, workers = {w}");
        }
        want.len()
    }

    /// Normalizing a join's output while it is a view: each left row's
    /// pairs (1 to 300 of them, neighbours as a chain delivers them)
    /// share the three words of the left key `k`, left rows share `k.lb`
    /// in threes, and the right side's `Float`, `Str` and `Bool` lanes
    /// make a key 117 bytes wide, not a multiple of 8: the `Bool` lane
    /// ends it in a zero-padded word. A `Boxed` column of long strings
    /// before them cuts some keys short (inexact), so pairs equal on
    /// every key byte are told apart only by their rows. Against the
    /// materialized-list fold at every worker count.
    #[test]
    fn join_shaped_view_rows_match_the_materialized_list() {
        use audb_core::ValueLane;
        let long = |tail: &str| Value::str(format!("a shared prefix of 25 bytes{tail}"));
        let (left, right) = (24i64, 50usize);
        let k: Vec<RangeValue> =
            (0..left).map(|l| RangeValue::range(10 * (l / 3), 10 * (l / 3) + l % 3, 99)).collect();
        let v: Vec<RangeValue> =
            (0..right).map(|r| RangeValue::range(-0.5 * (r % 7) as f64, 0.0, 1.5)).collect();
        let b = [false, true].map(|sg| RangeValue::range(false, sg, true));
        let s: Vec<RangeValue> =
            (0..right).map(|r| RangeValue::certain(Value::str(format!("s{:02}", r % 9)))).collect();
        let x: Vec<RangeValue> = [Value::Int(3), long("!"), long("?"), long("")]
            .into_iter()
            .map(RangeValue::certain)
            .collect();
        let lanes = [&k[..], &v, &x, &s, &b].map(|c| ValueLane::from_cells(c.iter()));
        let (mut kidx, mut ridx, mut xidx, mut bidx) = (vec![], vec![], vec![], vec![]);
        for l in 0..left as usize {
            for j in 0..[1, 3, 40, 300][l % 4] {
                kidx.push(l as u32);
                ridx.push(((l * 7 + j * 13) % right) as u32);
                // mostly exact; every seventh pair a long string
                xidx.push(if j % 7 == 6 { 1 + (j / 7 % 3) as u32 } else { 0 });
                bidx.push((j / 3 % 2) as u32);
            }
        }
        let view = GatherView::new(vec![
            (lanes[0].as_slice(), Some(&kidx[..])),
            (lanes[1].as_slice(), Some(&ridx[..])),
            (lanes[2].as_slice(), Some(&xidx[..])),
            (lanes[3].as_slice(), Some(&ridx[..])),
            (lanes[4].as_slice(), Some(&bidx[..])),
        ]);
        assert_eq!(view.typed_cols(), (4, 5));
        assert_eq!(view.key_width(), 117);
        let n = kidx.len();
        let annots: Vec<AuAnnot> =
            (0..n as u64).map(|i| AuAnnot::triple(0, i % 4 / 2, i % 4)).collect();
        let distinct = check_view_rows(&view, &annots, "join-shaped");
        assert!(distinct * 2 < n && distinct > 100, "{distinct} distinct of {n}");
    }

    /// The column cache is invalidated by mutation and shared by clone.
    #[test]
    fn column_cache_tracks_mutation() {
        let schema = Schema::named(&["A"]);
        let mut r = AuRelation::from_rows(schema, vec![certain_row(&[1], 1, 1, 1)]);
        let cs = r.columns();
        assert_eq!(cs.nrows(), 1);
        // clone shares the built columns
        let c = r.clone();
        assert!(Arc::ptr_eq(&cs, &c.columns()));
        // mutation invalidates
        r.push(certain_row(&[2], 1, 1, 1).0, AuAnnot::triple(1, 1, 1));
        let cs2 = r.columns();
        assert_eq!(cs2.nrows(), 2);
        assert!(!Arc::ptr_eq(&cs, &cs2));
        for i in 0..r.len() {
            assert_eq!(cs2.row(i), r.rows()[i].0);
            assert_eq!(cs2.annots().get(i), r.rows()[i].1);
        }
    }
}
