//! Allocation-pressure pins for the row-view paths.
//!
//! The columnar refactor keeps [`audb_storage::RangeTuple`] as the
//! row-view API; the nested-loop join and projection fallbacks still
//! materialize row tuples. This binary installs a counting global
//! allocator and pins the per-call allocation budget of
//! `project`/`concat` and their buffer-reusing `_into` variants, so a
//! regression back to the old clone-then-extend shape (two allocations
//! per concat) fails loudly.
//!
//! It also pins that the deterministic engine *streams* a
//! select/project tower: each source row runs through every stage
//! before the next is read, so only the tower's survivors are
//! materialized. Operator-at-a-time evaluation builds every intermediate
//! relation, which is what raised the benchmark gate's peak memory.
//!
//! All assertions live in ONE `#[test]` — the counter is process-global
//! and concurrent test threads would otherwise race it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use audb_core::{col, lit, RangeValue, Value};
use audb_exec::Executor;
use audb_query::det::eval_det_exec;
use audb_query::table;
use audb_storage::{Database, RangeTuple, Relation, Schema, Tuple};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls (alloc + realloc) performed by `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, out)
}

fn int_tuple(vs: &[i64]) -> Tuple {
    vs.iter().copied().collect()
}

fn int_range_tuple(vs: &[i64]) -> RangeTuple {
    RangeTuple::new(vs.iter().map(|v| RangeValue::certain(Value::Int(*v))).collect())
}

#[test]
fn tuple_ops_allocation_budget() {
    let ta = int_tuple(&[1, 2, 3]);
    let tb = int_tuple(&[4, 5]);
    let ra = int_range_tuple(&[1, 2, 3]);
    let rb = int_range_tuple(&[4, 5]);

    // Int values carry no heap data, so the Vec is the only allocation
    // each of these may make. The pre-refactor `concat` cost two
    // (clone, then a reallocating extend).
    let (n, t) = allocs_in(|| ta.concat(&tb));
    assert_eq!(t.values().len(), 5);
    assert_eq!(n, 1, "Tuple::concat must allocate exactly once");

    let (n, t) = allocs_in(|| ta.project(&[2, 0]));
    assert_eq!(t, int_tuple(&[3, 1]));
    assert_eq!(n, 1, "Tuple::project must allocate exactly once");

    let (n, t) = allocs_in(|| ra.concat(&rb));
    assert_eq!(t.arity(), 5);
    assert_eq!(n, 1, "RangeTuple::concat must allocate exactly once");

    let (n, t) = allocs_in(|| ra.project(&[1]));
    assert_eq!(t, int_range_tuple(&[2]));
    assert_eq!(n, 1, "RangeTuple::project must allocate exactly once");

    // Warmed buffers: the `_into` variants are allocation-free once the
    // buffer has capacity — this is the shape the nested-loop join hot
    // path relies on across the inner loop.
    let mut buf = Vec::with_capacity(8);
    let mut rbuf: Vec<RangeValue> = Vec::with_capacity(8);
    ta.concat_into(&tb, &mut buf); // warm
    ra.concat_into(&rb, &mut rbuf);

    let (n, ()) = allocs_in(|| {
        for _ in 0..16 {
            ta.concat_into(&tb, &mut buf);
            ra.concat_into(&rb, &mut rbuf);
        }
    });
    assert_eq!(n, 0, "warm concat_into must not allocate");
    assert_eq!(buf, int_tuple(&[1, 2, 3, 4, 5]).0);
    assert_eq!(rbuf, int_range_tuple(&[1, 2, 3, 4, 5]).0);

    let (n, ()) = allocs_in(|| {
        for _ in 0..16 {
            ta.project_into(&[0, 2], &mut buf);
            ra.project_into(&[0, 2], &mut rbuf);
        }
    });
    assert_eq!(n, 0, "warm project_into must not allocate");
    assert_eq!(buf, int_tuple(&[1, 3]).0);
    assert_eq!(rbuf, int_range_tuple(&[1, 3]).0);

    // A σ → π → σ → π tower over 20 000 `Int` rows: the first σ keeps
    // 4/5, the second a quarter of those, so 4 000 rows come out. A
    // streaming chain allocates one tuple per output row (plus the
    // output list's growth and the final normalization);
    // operator-at-a-time evaluation also clones or builds every row of
    // the three intermediate relations, ~40 000 tuples.
    let rows = (0..20_000i64).map(|i| (int_tuple(&[i, i % 10]), 1)).collect();
    let mut db = Database::new();
    db.insert("t", Relation::from_rows(Schema::named(&["a", "b"]), rows));
    let q = table("t")
        .select(col(1).lt(lit(8i64)))
        .project(vec![(col(0), "a"), (col(1).mul(lit(2i64)), "b2")])
        .select(col(1).lt(lit(4i64)))
        .project(vec![(col(0).add(col(1)), "s")]);
    let exec = Executor::sequential();
    let (n, out) = allocs_in(|| eval_det_exec(&db, &q, &exec).unwrap());
    assert_eq!(out.len(), 4_000);
    assert!(n <= 2 * out.len() + 256, "{n} allocation calls for {} output rows", out.len());
}
