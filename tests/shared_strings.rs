//! Strings are shared, not copied: a `Value::Str` is an `Arc<str>`, and
//! every step that moves a cell — columnarizing rows, gathering a lane,
//! handing lanes or tuples over, a whole TPC-H query under
//! `compressed(64)` — hands on the base table's allocation. A
//! `Value::str(s.to_string())` slipped into a hot path fails here instead
//! of in a benchmark.

use std::collections::HashSet;
use std::sync::Arc;

use audb::core::{LaneTag, ValueLane};
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

fn lane_values(lane: &ValueLane) -> impl Iterator<Item = &Value> {
    let ValueLane::Boxed(cells) = lane else { panic!("a Str lane is boxed") };
    cells.iter().flat_map(|rv| [&rv.lb, &rv.sg, &rv.ub])
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

    let cs = ColumnSet::from_rows(lineitem.schema.arity(), lineitem.rows());
    let flags = cs.lane(5);
    assert_eq!(flags.tag(), LaneTag::Boxed);
    assert_eq!(pool.shared(lane_values(flags), "ColumnSet::from_rows"), cells);

    // a gather into an empty lane, then one behind it
    let picks: Vec<u32> = (0..lineitem.len() as u32).rev().step_by(3).collect();
    let mut gathered = ValueLane::default();
    gathered.append(&flags.as_slice(), Some(&picks));
    gathered.append(&flags.as_slice(), Some(&picks));
    assert_eq!(pool.shared(lane_values(&gathered), "ValueLane::append"), 6 * picks.len());

    let view =
        GatherView::new(vec![(flags.as_slice(), None), (cs.lane(6).as_slice(), Some(&picks))]);
    let order = || (0..picks.len() as u32).map(|i| (i, AuAnnot::triple(1, 1, 1)));
    let lanes = view.lanes(order());
    let from_lanes: usize =
        lanes.lanes().iter().map(|l| pool.shared(lane_values(l), "GatherView::lanes")).sum();
    assert_eq!(from_lanes, 6 * picks.len());
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
