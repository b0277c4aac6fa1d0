//! # audb-exec
//!
//! Partition-parallel execution runtime for AU-relation operators.
//!
//! Uncertain-data operators decompose cleanly into independent
//! partitions (U-relation-style processing à la Antova et al.): the join
//! planner's hash buckets and sweep candidate blocks, and aggregation's
//! group partitions, are all embarrassingly parallel. This crate
//! provides the pieces the query layer builds on:
//!
//! * [`Partitioner`] — splits an index space `0..n` into contiguous
//!   *morsels* (work units) sized for the worker count;
//! * [`Executor`] — a std-only scoped thread pool
//!   ([`std::thread::scope`]) that runs a fallible producer over every
//!   morsel, workers claiming morsels from a shared atomic cursor;
//! * the **deterministic ordered-merge collector** inside
//!   [`Executor::run`]: each morsel's output lands in its own slot and
//!   slots are concatenated in morsel order, so the merged output is
//!   *byte-identical* to running the same producer sequentially over
//!   `0..n` — for any worker count and any morsel size;
//! * the **normalization driver** [`Executor::sort_merge_by_key`]
//!   (module [`reduce`]): the backend of relation normalization — per
//!   morsel, key every row, sort once and fold each run of equal rows
//!   into its first occurrence; k-way-merge the morsels' sorted runs
//!   into the canonical global order, folding equal heads in run order.
//!
//! There is one split rule — [`Partitioner::morsels`] — and every driver
//! states its *grain* relative to the executor's partitioner: a fused
//! operator chain (`audb_query`) runs one morsel per 1 024 source rows
//! and keeps one output buffer per thread, aggregation lowers the
//! per-worker floor to 32 groups, difference to 256 left tuples, the row
//! loops take the default.
//!
//! No external dependencies beyond `audb_core` (the shared governance
//! primitives), no unsafe, no work stealing beyond the shared cursor. A
//! worker count of 1 (or a single morsel) bypasses the pool's threads
//! and runs inline on the caller's thread, making the sequential path
//! near-zero-overhead and trivially identical.
//!
//! ## Fault tolerance & governance
//!
//! Every driver guarantees a query either completes, returns a
//! structured [`audb_core::ExecError`], or is cancelled — never wedging
//! the pool:
//!
//! * producer panics are caught per morsel and surface as
//!   [`audb_core::ExecError::WorkerPanic`]; result slots are
//!   poison-tolerant one-shot cells, so a panicking worker cannot wedge
//!   its siblings and the executor is immediately reusable;
//! * an attached [`audb_core::CancelToken`] is checked at every morsel
//!   boundary (cancellation and wall-clock deadlines);
//! * an attached [`audb_core::Budget`] is charged by the expanding
//!   operators (normalization's input here; join probes and
//!   pipeline chains in the query layer).
//!
//! The feature-gated [`faults`] module injects deterministic panics,
//! errors, delays, and cancellations at "morsel N of driver D" for the
//! robustness property tests.
//!
//! This crate denies stray `unwrap`/`expect` in non-test code
//! (`clippy::unwrap_used`/`expect_used`): a runtime that promises panic
//! containment must not panic on its own control paths.

#![warn(clippy::unwrap_used, clippy::expect_used)]

#[cfg(feature = "faults")]
pub mod faults;
pub mod gate;
pub mod partition;
pub mod pool;
pub mod reduce;

pub use gate::WorkerGate;
pub use partition::Partitioner;
pub use pool::Executor;

/// What the tests of the deleted shard splitter asserted of a fused
/// chain's — a pipeline's — slices and their ordered merge, read off
/// the one split rule: a shard is a morsel.
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod pipeline {
    mod tests {
        use crate::{Executor, Partitioner};
        use std::ops::Range;

        /// What `audb_query`'s chain driver derives from the default
        /// partitioner (its own unit test pins that): 1 024 source rows
        /// per morsel, up to four morsels per worker, no per-worker floor.
        const CHAIN: Partitioner =
            Partitioner { min_morsel: 1024, morsels_per_worker: 4, min_rows_per_worker: 0 };

        /// At most `pieces` slices per worker — a forced shard count.
        fn split(pieces: usize) -> Partitioner {
            Partitioner { min_morsel: 1, morsels_per_worker: pieces, min_rows_per_worker: 0 }
        }

        fn cover(n: usize, slices: &[Range<usize>]) {
            let mut pos = 0;
            for s in slices {
                assert_eq!(s.start, pos, "slices must be contiguous");
                assert!(s.end > s.start, "slices must be non-empty");
                pos = s.end;
            }
            assert_eq!(pos, n, "slices must cover 0..n exactly");
        }

        #[test]
        fn slices_cover_and_balance() {
            for n in [0usize, 1, 2, 7, 100, 10_001] {
                for s in [1usize, 3, 8, 64] {
                    let slices = split(s).morsels(n, 1);
                    cover(n, &slices);
                    assert!(slices.len() <= s);
                    // near-equal slices; total on the empty list (an
                    // empty source yields zero slices, not a panic)
                    let (min, max) = slices
                        .iter()
                        .map(Range::len)
                        .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                    assert!(slices.is_empty() || max - min <= 1, "near-equal slices");
                }
            }
        }

        /// The literal `(workers, rows) → pieces` cases the shard
        /// splitter's auto-sizing was tested on, boundaries included.
        #[test]
        fn auto_floors_tiny_inputs_to_one_shard() {
            assert_eq!(CHAIN.morsels(100, 8), vec![0..100]);
            let big = CHAIN.morsels(100_000, 4);
            assert_eq!(big.len(), 16);
            assert!(big.iter().all(|m| m.len() == 6250) && big[15].end == 100_000);
            assert_eq!(CHAIN.morsels(5000, 4), vec![0..1250, 1250..2500, 2500..3750, 3750..5000]);
            // three slices at any worker count, one worker included:
            // the seams at 1 110 and 2 219
            for w in [1usize, 2, 4] {
                assert_eq!(CHAIN.morsels(3328, w), vec![0..1110, 1110..2219, 2219..3328], "{w}");
            }
            assert!(CHAIN.morsels(0, 0).is_empty());
        }

        /// Ragged per-item output, exercised across worker × split shapes.
        fn produce(r: Range<usize>, out: &mut Vec<usize>) -> Result<(), String> {
            for i in r {
                for rep in 0..(i % 3) + 1 {
                    out.push(i * 100 + rep);
                }
            }
            Ok(())
        }

        #[test]
        fn output_identical_for_any_worker_and_shard_count() {
            let n = 4001;
            let seq = Executor::sequential().with_partitioner(split(1)).run(n, produce).unwrap();
            for w in [1usize, 2, 4, 7] {
                for p in [split(1), split(3), split(8), split(40), CHAIN] {
                    let got = Executor::new(w).with_partitioner(p).run(n, produce).unwrap();
                    assert_eq!(got, seq, "workers = {w}, {p:?}");
                }
            }
        }

        #[test]
        fn earliest_shard_error_wins() {
            let fail_at = |bad: usize| {
                move |r: Range<usize>, out: &mut Vec<usize>| -> Result<(), String> {
                    for i in r {
                        if i >= bad {
                            return Err(format!("item {i}"));
                        }
                        out.push(i);
                    }
                    Ok(())
                }
            };
            for w in [1usize, 4] {
                assert_eq!(
                    Executor::new(w).with_partitioner(split(8)).run(100, fail_at(40)),
                    Err("item 40".to_string()),
                    "workers = {w}"
                );
            }
        }

        /// Regression: a zero-row source must yield the empty result —
        /// for every split, the degenerate zero-piece one included —
        /// never panic on the empty slice list.
        #[test]
        fn empty_source_yields_empty_result() {
            for w in [1usize, 4] {
                for s in [0usize, 1, 3, 8] {
                    let out = Executor::new(w).with_partitioner(split(s)).run(0, produce).unwrap();
                    assert!(out.is_empty(), "workers = {w}, pieces = {s}");
                }
            }
            assert!(split(0).morsels(0, 1).is_empty());
            assert_eq!(split(0).morsels(5, 1), vec![0..5]);
        }

        /// A panicking slice producer is contained and reported with the
        /// pool's structured error; the executor stays reusable.
        #[test]
        fn shard_panic_is_contained() {
            let panicky = |r: Range<usize>, out: &mut Vec<usize>| -> Result<(), String> {
                for i in r {
                    assert!(i != 50, "shard bomb");
                    out.push(i);
                }
                Ok(())
            };
            for w in [1usize, 4] {
                let exec = Executor::new(w).with_partitioner(split(8));
                let err = exec.run(100, panicky).unwrap_err();
                assert!(err.contains("worker panicked"), "workers = {w}, got: {err}");
                let seq = Executor::sequential().run(100, produce);
                assert_eq!(exec.run(100, produce), seq);
            }
        }
    }
}
