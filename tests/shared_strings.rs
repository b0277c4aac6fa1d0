//! Strings are shared, not copied: a `Value::Str` is an `Arc<str>`, and
//! every step that moves a cell — columnarizing rows into a `Str` lane's
//! dictionary, gathering or appending a lane (one dictionary or two),
//! handing lanes or tuples over, a whole TPC-H query under
//! `compressed(64)` — hands on the base table's allocation. A
//! `Value::str(s.to_string())` slipped into a hot path fails here instead
//! of in a benchmark.

use std::collections::HashSet;
use std::sync::Arc;

use audb::core::{LaneTag, StrDict, ValueLane};
use audb::prelude::*;
use audb::storage::{ColumnSet, GatherView};
use audb::workloads::tpch::q7;
use audb::workloads::{gen_tpch, inject_uncertainty, TpchConfig};

/// One allocation per distinct text.
#[derive(Default)]
struct Pool(HashSet<Arc<str>>);

impl Pool {
    fn intern(&mut self, v: &Value) -> Value {
        match v {
            Value::Str(s) => {
                self.0.insert(Arc::clone(s)); // the first cell of a text is its allocation
                Value::Str(Arc::clone(self.0.get(&**s).unwrap()))
            }
            other => other.clone(),
        }
    }

    /// How many `Str` values `vals` holds; panics on one that is not the
    /// pooled allocation of its text.
    fn shared<'a>(&self, vals: impl Iterator<Item = &'a Value>, step: &str) -> usize {
        let mut n = 0;
        for v in vals {
            if let Value::Str(s) = v {
                let pooled = self.0.get(&**s).unwrap_or_else(|| panic!("{step}: {s:?} is new"));
                assert!(Arc::ptr_eq(s, pooled), "{step}: {s:?} was copied");
                n += 1;
            }
        }
        n
    }
}

fn values(rows: &[(RangeTuple, AuAnnot)]) -> impl Iterator<Item = &Value> {
    rows.iter().flat_map(|(t, _)| &t.0).flat_map(|rv| [&rv.lb, &rv.sg, &rv.ub])
}

/// A `Str` lane's dictionary.
fn dict(lane: &ValueLane) -> &Arc<StrDict> {
    let ValueLane::Str { dict, .. } = lane else { panic!("a string column is a Str lane") };
    dict
}

/// Every cell of a lane, materialized.
fn materialized(lane: &ValueLane) -> Vec<(RangeTuple, AuAnnot)> {
    let cell = |i| (RangeTuple(vec![lane.get(i)]), AuAnnot::certain_one());
    (0..lane.len()).map(cell).collect()
}

/// The uncertain TPC-H database with every text interned in `pool`.
fn interned_tpch(pool: &mut Pool) -> AuDatabase {
    let au = inject_uncertainty(&gen_tpch(TpchConfig::new(0.1, 21)), 0.02, 6, 22).to_au();
    let mut db = AuDatabase::new();
    for (name, rel) in au.iter() {
        let rows = rel.rows().iter().map(|(t, k)| {
            let cell = |rv: &RangeValue| RangeValue {
                lb: pool.intern(&rv.lb),
                sg: pool.intern(&rv.sg),
                ub: pool.intern(&rv.ub),
            };
            (RangeTuple(t.0.iter().map(cell).collect()), *k)
        });
        db.insert(name.clone(), AuRelation::from_rows(rel.schema.clone(), rows.collect()));
    }
    db
}

#[test]
fn strings_are_shared_end_to_end() {
    // `lane_bytes`, `byte_size_of_rows` and `estimated_bytes` multiply by these
    assert_eq!(std::mem::size_of::<Value>(), 24);
    assert_eq!(std::mem::size_of::<RangeValue>(), 72);

    let mut pool = Pool::default();
    let db = interned_tpch(&mut pool);
    let lineitem = db.get("lineitem").unwrap();
    let cells = 3 * lineitem.len();
    assert_eq!(pool.shared(values(lineitem.rows()), "base"), 2 * cells);

    // the dictionary holds each text's pooled allocation, once, and a
    // materialized cell is that allocation again
    let cs = ColumnSet::from_rows(lineitem.schema.arity(), lineitem.rows());
    let (flags, status) = (cs.lane(5), cs.lane(6));
    assert_eq!((flags.tag(), status.tag()), (LaneTag::Str, LaneTag::Str));
    assert_eq!(pool.shared(dict(flags).values().iter(), "ColumnSet::from_rows"), 3);
    assert_eq!(pool.shared(values(&materialized(flags)), "ValueLane::get"), cells);

    // a gather into an empty lane, then one behind it: one dictionary
    let picks: Vec<u32> = (0..lineitem.len() as u32).rev().step_by(3).collect();
    let mut gathered = ValueLane::default();
    gathered.append(&flags.as_slice(), Some(&picks));
    gathered.append(&flags.as_slice(), Some(&picks));
    assert!(Arc::ptr_eq(dict(&gathered), dict(flags)), "ValueLane::append keeps the dictionary");
    assert_eq!(pool.shared(values(&materialized(&gathered)), "ValueLane::append"), 6 * picks.len());
    // ... and one of another dictionary: the union holds both sides' texts
    gathered.append(&status.as_slice(), Some(&picks));
    assert_eq!(pool.shared(dict(&gathered).values().iter(), "a merged dictionary"), 3 + 2);
    assert_eq!(pool.shared(values(&materialized(&gathered)), "ValueLane::append"), 9 * picks.len());

    let view = GatherView::new(vec![(flags.as_slice(), None), (status.as_slice(), Some(&picks))]);
    let order = || (0..picks.len() as u32).map(|i| (i, AuAnnot::triple(1, 1, 1)));
    let lanes = view.lanes(order());
    for (lane, from) in lanes.lanes().iter().zip([flags, status]) {
        assert!(Arc::ptr_eq(dict(lane), dict(from)), "GatherView::lanes keeps the dictionary");
    }
    assert_eq!(pool.shared(values(&view.tuples(order())), "GatherView::tuples"), 6 * picks.len());

    // Q7's join spine under compressed(64) — as configured, and forced so
    // that this small input takes the split/compress join — ending in a
    // γ grouped by two texts and in a π that keeps them
    let Query::Aggregate { input: spine, .. } = q7() else { panic!("Q7 ends in a γ") };
    let spine = *spine;
    let queries = [
        spine.clone().aggregate(vec![1, 17, 7, 19], vec![AggSpec::new(AggFunc::Sum, col(4), "p")]),
        spine.project_cols(&[1, 7, 17, 19], &["s_nation", "flag", "c_nation", "segment"]),
    ];
    let ct64 = AuConfig::compressed(64).with_workers(1);
    for cfg in [ct64, AuConfig { adaptive: false, ..ct64 }] {
        for q in &queries {
            let out = eval_au(&db, q, &cfg).unwrap();
            assert!(pool.shared(values(out.rows()), "Q7-shaped eval_au") > 0, "{q}");
        }
    }
}
