//! Aggregation's grouping on the column lanes, for every kind of key
//! lane: (i) the kernel against the literal Definitions 24–26 oracle
//! (`aggregate_au_scan`, which groups by SG-key tuples on its own) —
//! the same relation, row for row, or the same first error; (ii) world
//! enumeration of γ over `Str`- and `Bool`-keyed inputs on the default
//! path; (iii) `Ψ` against a literal Definition 21, the indexed set
//! difference against its scan and the union against a tuple union, over
//! the same key kinds, nullary relations and strings of two tables.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use audb::core::LaneTag;
use audb::core::Semiring;
use audb::prelude::*;
use audb::query::au::aggregate::{aggregate_au_exec, aggregate_au_scan, aggregate_au_stats};
use audb::query::au::combine::sg_combine;
use audb::query::au::difference::{difference_au_exec, difference_au_scan};
use audb::query::au::union_au_exec;
use common::{check_bounds, eval_oracle, exec, weighted_xtuple};

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// What a key column holds, and so which lane it becomes: `Int`,
/// `Float` and `Bool` build typed lanes; `Str`, `Mixed` (`Int 2` beside
/// `Float 2.0`: one canonical key cell, two SG groups) and `Sentinel`
/// (`Null`, `[MinVal/sg/MaxVal]` cells) boxed ones.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyKind {
    Int,
    Float,
    Bool,
    Str,
    Mixed,
    Sentinel,
}

const KINDS: [KeyKind; 6] =
    [KeyKind::Int, KeyKind::Float, KeyKind::Bool, KeyKind::Str, KeyKind::Mixed, KeyKind::Sentinel];

fn pool(kind: KeyKind) -> Vec<Value> {
    let ints = || (-2..6).map(Value::Int);
    let floats = || (-2..8).map(|i| Value::float(i as f64 * 0.5));
    match kind {
        KeyKind::Int => ints().collect(),
        KeyKind::Float => floats().collect(),
        KeyKind::Bool => vec![Value::Bool(false), Value::Bool(true)],
        KeyKind::Str => {
            ["", "a", "ab", "b", "a shared prefix of 25 bytes!", "a shared prefix of 25 bytes?"]
                .into_iter()
                .map(Value::str)
                .collect()
        }
        KeyKind::Mixed => ints().chain(floats()).collect(),
        KeyKind::Sentinel => {
            ints().chain([Value::Null, Value::MinVal, Value::MaxVal, Value::str("s")]).collect()
        }
    }
}

/// A key cell: certain two times in three, else three draws in domain
/// order; a `Sentinel` column also holds `[MinVal/sg/MaxVal]` cells.
fn key_cell(kind: KeyKind, pool: &[Value], rng: &mut XorShift) -> RangeValue {
    let mut draw = || pool[rng.below(pool.len())].clone();
    let mut v = [draw(), draw(), draw()];
    v.sort();
    let [lb, sg, ub] = v;
    match rng.below(if kind == KeyKind::Sentinel { 4 } else { 3 }) {
        0 => RangeValue::new(lb, sg, ub).expect("sorted triple"),
        3 => RangeValue::unknown(sg),
        _ => RangeValue::certain(sg),
    }
}

/// `(k0, k1, k2, v, f)` rows: three key columns of one kind, an `Int`
/// and a `Float` measure (multiples of 0.25: sums are exact) with
/// ranges, and small multiplicities.
fn relation(kind: KeyKind, n: usize, seed: u64) -> AuRelation {
    let (mut rng, pool) = (XorShift(seed | 1), pool(kind));
    let rows = (0..n).map(|_| {
        let mut cells: Vec<RangeValue> = (0..3).map(|_| key_cell(kind, &pool, &mut rng)).collect();
        let (v, d) = (rng.below(40) as i64 - 10, rng.below(3) as i64);
        cells.push(RangeValue::range(v - d, v, v + rng.below(3) as i64));
        let f = (rng.below(33) as f64 - 16.0) * 0.25;
        cells.push(RangeValue::range(f - d as f64 * 0.25, f, f + 0.5));
        let (lb, sg, ub) = (rng.below(2) as u64, rng.below(3) as u64, rng.below(3) as u64);
        (RangeTuple::new(cells), AuAnnot::triple(lb, lb + sg, (lb + sg + ub).max(1)))
    });
    AuRelation::from_rows(Schema::named(&["k0", "k1", "k2", "v", "f"]), rows.collect())
}

fn aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::new(AggFunc::Sum, col(3), "s"),
        AggSpec::count("c"),
        AggSpec::new(AggFunc::Min, col(4), "lo"),
        AggSpec::new(AggFunc::Max, col(3).add(col(4)), "hi"),
        AggSpec::new(AggFunc::Avg, col(4), "a"),
    ]
}

/// Terms whose folds do not depend on member order — an `Int` sum and
/// count, `Int` and `Float` min/max, the `Float` ones also over the
/// −0.0 cells that negating a `0.0` leaves on the lanes (`Value`s hold
/// 0.0): grouped by one typed column, they take the prefix membership.
fn order_free() -> Vec<AggSpec> {
    let negated = col(4).mul(lit(-1.0f64));
    vec![
        AggSpec::new(AggFunc::Sum, col(3), "s"),
        AggSpec::count("c"),
        AggSpec::new(AggFunc::Min, col(4), "lo"),
        AggSpec::new(AggFunc::Max, col(3), "hi"),
        AggSpec::new(AggFunc::Min, negated.clone(), "nlo"),
        AggSpec::new(AggFunc::Max, negated, "nhi"),
    ]
}

/// Key ranges that end exactly on other groups' box bounds: certain
/// groups at 0, 10, 20 and 30 (`scale`d), and uncertain rows spanning
/// `[-3, 0]`, `[0, 10]`, `[10, 20]`, `[20, 30]` and `[30, 40]` — each
/// touches its neighbours' boxes at one endpoint, on either side.
fn edge_relation(scale: impl Fn(i64) -> Value) -> AuRelation {
    let key = |lb: i64, sg: i64, ub: i64| {
        RangeValue::new(scale(lb), scale(sg), scale(ub)).expect("ordered key")
    };
    let mut keys: Vec<RangeValue> = [0, 10, 20, 30, 0, 10, 20, 30].map(|k| key(k, k, k)).to_vec();
    keys.extend(
        [(-3, -1, 0), (0, 5, 10), (10, 15, 20), (20, 25, 30), (30, 33, 40)]
            .map(|(lb, sg, ub)| key(lb, sg, ub)),
    );
    let rows = keys.into_iter().enumerate().map(|(i, k)| {
        let i = i as i64;
        let f = (i % 5 - 2) as f64 * 0.5;
        let cells = vec![
            k.clone(),
            k,
            RangeValue::certain(Value::Int(0)),
            RangeValue::range(i - 7, i - 6, i - 5),
            RangeValue::range(f - 0.5, f, f),
        ];
        (RangeTuple::new(cells), AuAnnot::triple(i as u64 % 2, 1, 1 + i as u64 % 3))
    });
    AuRelation::from_rows(Schema::named(&["k0", "k1", "k2", "v", "f"]), rows.collect())
}

/// `rel` with its `Int` measure (column 3) times 2^55: every `⊛`
/// product still fits in `i64` (|v| < 2^5, multiplicities < 2^3), but
/// a group over a handful of rows sums past it — `Value` arithmetic
/// then promotes the bound to `Float`.
fn wide_sums(rel: &AuRelation) -> AuRelation {
    let wide = |c: &RangeValue| match (&c.lb, &c.sg, &c.ub) {
        (Value::Int(l), Value::Int(s), Value::Int(u)) => {
            RangeValue::range(l << 55, s << 55, u << 55)
        }
        _ => c.clone(),
    };
    let rows = rel.rows().iter().map(|(t, k)| {
        let mut cells = t.0.clone();
        cells[3] = wide(&cells[3]);
        (RangeTuple::new(cells), *k)
    });
    AuRelation::from_rows(rel.schema.clone(), rows.collect())
}

/// Distinct SG keys of `rel` over `group_by` — `Value`'s structural
/// equality, as the SG world has it.
fn sg_keys(rel: &AuRelation, group_by: &[usize]) -> usize {
    let keys = rel.rows().iter().map(|(t, _)| t.project(group_by).sg());
    keys.collect::<std::collections::BTreeSet<Tuple>>().len()
}

/// (i) on small inputs: every key kind × one to three group-by columns
/// × `compress` × workers, a key column as an aggregate input included
/// (`sum` of a `Str` or sentinel column: the first error must agree),
/// and the edges of the prefix membership: key ranges ending exactly on
/// a box bound (`Int` and `Float` keys), `Int` sums that leave `i64`,
/// `Float` min/max over ±0.0 cells.
#[test]
fn kernel_matches_the_oracle_for_every_key_lane_kind() {
    let mut inputs = Vec::new();
    for (k, kind) in KINDS.into_iter().enumerate() {
        for n in [1usize, 2, 9, 40] {
            let rel = relation(kind, n, 0x9E37_79B9 + (k * 100 + n) as u64);
            if n == 40 && matches!(kind, KeyKind::Int | KeyKind::Float | KeyKind::Str) {
                inputs.push((format!("{kind:?}, n = {n}, wide sums"), wide_sums(&rel), false));
            }
            inputs.push((format!("{kind:?}, n = {n}"), rel, false));
        }
    }
    let int_edges = edge_relation(Value::Int);
    inputs.push(("Int edges, wide sums".into(), wide_sums(&int_edges), true));
    inputs.push(("Int edges".into(), int_edges, true));
    inputs.push(("Float edges".into(), edge_relation(|k| Value::float(k as f64 * 0.25)), true));
    let mut keyed = aggs();
    keyed.push(AggSpec::new(AggFunc::Sum, col(1), "k"));
    let (mut prefix_runs, mut promoted) = (0, 0);
    for (ctx, rel, edges) in &inputs {
        for group_by in [vec![0usize], vec![2, 0], vec![0, 1, 2]] {
            for compress in [None, Some(1), Some(7)] {
                for aggs in [&aggs(), &keyed, &order_free()] {
                    let oracle = aggregate_au_scan(rel, &group_by, aggs, compress);
                    for w in [1, 2, 4] {
                        let kernel = aggregate_au_stats(rel, &group_by, aggs, compress, &exec(w));
                        let ctx = format!(
                            "{ctx}, group_by = {group_by:?}, compress = {compress:?}, workers = {w}"
                        );
                        if let Ok((_, st)) = &kernel {
                            let one_key = group_by.len() == 1 && *aggs == order_free();
                            assert!(!st.prefix || one_key, "{ctx}: prefix on a sweep shape");
                            if *edges && one_key {
                                assert!(st.prefix, "{ctx}: the edges take the prefix path");
                            }
                            prefix_runs += usize::from(st.prefix);
                            promoted += usize::from(st.prefix && st.terms_boxed > 0);
                        }
                        assert_eq!(kernel.map(|(out, _)| out), oracle, "{ctx}");
                    }
                    if let Ok(out) = &oracle {
                        assert_eq!(out.len(), sg_keys(rel, &group_by), "{ctx}: one row per SG key");
                    }
                }
            }
        }
    }
    assert!(prefix_runs > 0 && promoted > 0, "{prefix_runs} prefix runs, {promoted} promoted");
}

/// (i) across the 1 024-row chunk and the 3 072-row seams: per key kind
/// one relation on either side of each, the `(group-by, compress,
/// workers)` choices rotating so that the matrix is covered without
/// running the quadratic oracle on all of it.
#[test]
fn kernel_matches_the_oracle_across_chunk_seams() {
    let group_bys = [vec![0usize], vec![1, 0], vec![0, 1, 2]];
    let mut turn = 0usize;
    for (k, kind) in KINDS.into_iter().enumerate() {
        for n in [1_000usize, 1_100, 3_000, 3_200] {
            let rel = relation(kind, n, 0x2545_F491 + (k * 10_000 + n) as u64);
            let group_by = &group_bys[turn % 3];
            let compress = [None, Some(7), Some(1)][(turn / 3) % 3];
            let workers = [1, 2, 4][(turn / 2) % 3];
            turn += 1;
            let kernel = aggregate_au_exec(&rel, group_by, &aggs(), compress, &exec(workers));
            let oracle = aggregate_au_scan(&rel, group_by, &aggs(), compress);
            assert!(
                kernel == oracle,
                "{kind:?}, n = {n}, group_by = {group_by:?}, compress = {compress:?}, \
                 workers = {workers}"
            );
            assert_eq!(kernel.expect("typed measures").len(), sg_keys(&rel, group_by));
        }
    }
}

/// `Int 2` and `Float 2.0` in one (boxed) key column: one canonical key
/// cell, two groups — through `eval_au` on the default path and on the
/// oracle.
#[test]
fn int_and_float_of_one_value_stay_two_groups() {
    let row = |g: Value, v: i64| {
        (
            RangeTuple::new(vec![RangeValue::certain(g), RangeValue::certain(Value::Int(v))]),
            AuAnnot::certain_one(),
        )
    };
    let rows = vec![
        row(Value::Int(2), 1),
        row(Value::float(2.0), 10),
        row(Value::Int(2), 100),
        row(Value::float(2.0), 1000),
    ];
    let mut db = AuDatabase::new();
    db.insert("t", AuRelation::from_rows(Schema::named(&["g", "v"]), rows));
    let q = table("t").aggregate(vec![0], vec![AggSpec::new(AggFunc::Sum, col(1), "s")]);
    for eval in [eval_au, eval_oracle] {
        let out = eval(&db, &q, &AuConfig::default()).expect("aggregate");
        let sums: Vec<(Value, Value)> =
            out.rows().iter().map(|(t, _)| (t.0[0].sg.clone(), t.0[1].sg.clone())).collect();
        assert_eq!(sums, [(Value::Int(2), Value::Int(101)), (Value::float(2.0), Value::Int(1010))]);
    }
}

// ---------------------------------------------------------------------------
// (ii) ground truth: γ over Str- and Bool-keyed x-relations
// ---------------------------------------------------------------------------

/// x-tuples over `(k: Str | Bool, b: Bool, v: Int)`: one or two
/// alternatives, optional one time in two.
fn keyed_xtuple_strategy(str_key: bool) -> impl Strategy<Value = XTuple> {
    let alt = (0usize..3, 0u8..2, -3i64..6).prop_map(move |(k, b, v)| {
        let key = if str_key { Value::str(["a", "ab", "b"][k]) } else { Value::Bool(k > 0) };
        Tuple::new(vec![key, Value::Bool(b == 1), Value::Int(v)])
    });
    (proptest::collection::vec(alt, 1..3), prop_oneof![Just(1.0f64), Just(0.5f64)])
        .prop_map(|(alts, total)| weighted_xtuple(alts, total))
}

/// A handful of uncertain x-tuples beside certain ones.
fn keyed_xdb_strategy(str_key: bool) -> impl Strategy<Value = XDb> {
    let certain = (0usize..3, 0u8..2, -3i64..6);
    (
        proptest::collection::vec(keyed_xtuple_strategy(str_key), 0..5),
        proptest::collection::vec(certain, 1..6),
    )
        .prop_map(move |(mut r, certain)| {
            for (k, b, v) in certain {
                let key =
                    if str_key { Value::str(["a", "ab", "b"][k]) } else { Value::Bool(k > 0) };
                r.push(XTuple::certain(Tuple::new(vec![key, Value::Bool(b == 1), Value::Int(v)])));
            }
            let mut db = XDb::default();
            db.insert("r", XRelation::new(Schema::named(&["k", "b", "v"]), r));
            db
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// The AU result bounds the aggregate in every world: grouped by a
    /// `Str` or `Bool` column, or by both key columns, on the default
    /// path (lane grouping, boxed or `Bool` group boxes), its forced
    /// compression, and the oracle.
    #[test]
    fn str_and_bool_keyed_aggregates_preserve_bounds(
        str_db in keyed_xdb_strategy(true),
        bool_db in keyed_xdb_strategy(false),
        both in 0u8..2,
    ) {
        let group_by = if both == 1 { vec![0, 1] } else { vec![0] };
        let q = table("r").aggregate(
            group_by,
            vec![
                AggSpec::new(AggFunc::Sum, col(2), "s"),
                AggSpec::count("c"),
                AggSpec::new(AggFunc::Min, col(2), "lo"),
                AggSpec::new(AggFunc::Max, col(2), "hi"),
            ],
        );
        let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
        for db in [&str_db, &bool_db] {
            for cfg in [AuConfig::default(), forced] {
                check_bounds(db, &q, &cfg)?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (iii) Ψ and − over the same key kinds
// ---------------------------------------------------------------------------

/// Definition 21, literally: tuples sharing their SG values merge into
/// their bounding box (the first one's guesses) and annotation sum, in
/// first-appearance order.
fn sg_combine_reference(rel: &AuRelation) -> Vec<(RangeTuple, AuAnnot)> {
    let mut of_key: BTreeMap<Tuple, usize> = BTreeMap::new();
    let mut out: Vec<(RangeTuple, AuAnnot)> = Vec::new();
    for (t, k) in rel.rows() {
        match of_key.get(&t.sg()) {
            Some(&g) => out[g] = (out[g].0.merge_keep_sg(t), out[g].1.plus(k)),
            None => {
                of_key.insert(t.sg(), out.len());
                out.push((t.clone(), *k));
            }
        }
    }
    out
}

/// Two key columns of `kind` (the measures dropped: more SG collisions).
fn keys_only(kind: KeyKind, n: usize, seed: u64) -> AuRelation {
    let rel = relation(kind, n, seed);
    let rows = rel.rows().iter().map(|(t, k)| (t.project(&[0, 1]), *k));
    AuRelation::from_rows(Schema::named(&["k0", "k1"]), rows.collect())
}

/// `rel`'s rows, every third one twice, in reverse order: un-normalized.
fn unnormalized(rel: &AuRelation) -> AuRelation {
    let mut rows = rel.rows().to_vec();
    rows.extend(rel.rows().iter().step_by(3).cloned());
    rows.reverse();
    let mut out = AuRelation::empty(rel.schema.clone());
    out.append_rows(rows);
    out
}

/// `rel` with cell `(0, 0)` replaced by a certain `Int`: a `Str` column
/// with one `Int` cell is a boxed lane.
fn one_int_cell(rel: &AuRelation) -> AuRelation {
    let mut rows = rel.rows().to_vec();
    if let Some((t, _)) = rows.first_mut() {
        t.0[0] = RangeValue::certain(Value::Int(2));
    }
    let mut out = AuRelation::empty(rel.schema.clone());
    out.append_rows(rows);
    out
}

/// `n` nullary rows.
fn nullary(n: usize) -> AuRelation {
    let k = |i: usize| AuAnnot::triple(i as u64 % 2, 1, 2 + i as u64 % 3);
    let mut out = AuRelation::empty(Schema::new(vec![]));
    out.append_rows((0..n).map(|i| (RangeTuple::new(vec![]), k(i))).collect());
    out
}

/// The `(l, r)` pairs of the Ψ / − / ∪ property: per key kind both
/// sides empty or not and longer than a 1 024-row chunk, an
/// un-normalized pair, `Str` columns of two tables (two dictionaries:
/// `r` holds strings `l` does not) and one with an `Int` cell, and
/// nullary relations.
fn set_operator_inputs() -> Vec<(String, AuRelation, AuRelation)> {
    let mut pairs = Vec::new();
    for (k, kind) in KINDS.into_iter().enumerate() {
        for (nl, nr) in [(0usize, 5usize), (7, 0), (1, 1), (30, 40), (400, 300), (1500, 1200)] {
            let seed = 0x9E37_79B9_7F4A + (k * 1_000 + nl) as u64;
            let (l, r) = (keys_only(kind, nl, seed), keys_only(kind, nr, seed ^ 0xFFFF));
            if nl == 30 {
                let ctx = format!("{kind:?}, un-normalized {nl} − {nr}");
                pairs.push((ctx, unnormalized(&l), unnormalized(&r)));
            }
            pairs.push((format!("{kind:?}, {nl} − {nr}"), l, r));
        }
    }
    for n in [40, 1300] {
        let l = keys_only(KeyKind::Str, n, 0x5EED + n as u64);
        // every other row of `r` is `l`'s with its strings prefixed
        let prefixed = |v: &Value| match v {
            Value::Str(s) => Value::str(format!("~{s}")),
            other => other.clone(),
        };
        let rows = l.rows().iter().enumerate().map(|(i, (t, k))| {
            let cell = |c: &RangeValue| match i % 2 {
                0 => c.clone(),
                _ => RangeValue::new(prefixed(&c.lb), prefixed(&c.sg), prefixed(&c.ub))
                    .expect("one prefix keeps the order"),
            };
            (RangeTuple::new(t.0.iter().map(cell).collect()), *k)
        });
        let r = AuRelation::from_rows(l.schema.clone(), rows.collect());
        let boxed = one_int_cell(&r);
        let tags = [&l, &r, &boxed].map(|rel| rel.columns().lane(0).tag());
        assert_eq!(tags, [LaneTag::Str, LaneTag::Str, LaneTag::Boxed]);
        pairs.push((format!("Str of two tables, {n}"), l.clone(), r));
        pairs.push((format!("Str with an Int cell, {n}"), l, boxed));
    }
    for (nl, nr) in [(0, 0), (0, 3), (4, 0), (1, 1), (5, 3)] {
        pairs.push((format!("nullary {nl} − {nr}"), nullary(nl), nullary(nr)));
    }
    pairs
}

#[test]
fn sg_combine_and_difference_match_their_references_for_every_key_kind() {
    for (ctx, l, r) in &set_operator_inputs() {
        for rel in [l, r] {
            assert_eq!(sg_combine(rel).rows(), sg_combine_reference(rel), "Ψ: {ctx}");
        }
        let scan = difference_au_scan(l, r);
        let mut both = l.rows().to_vec();
        both.extend(r.rows().iter().cloned());
        let union = AuRelation::from_rows(l.schema.clone(), both);
        for w in [1, 2, 4] {
            assert_eq!(difference_au_exec(l, r, &exec(w)), scan, "−: {ctx}, workers = {w}");
            assert_eq!(union_au_exec(l, r, &exec(w)).as_ref(), Ok(&union), "∪: {ctx}, w = {w}");
        }
    }
}
