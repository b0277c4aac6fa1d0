//! The sharded pipeline driver: run a whole operator chain per shard.
//!
//! [`Executor::run`] parallelizes *one* operator at a time: every
//! operator materializes its full output and (usually) pays a
//! hash-merge + sort barrier before the next operator starts. For
//! chains of *row-local* operators (selection, projection, the probe
//! side of a planned join) none of those barriers is needed:
//! the chain composes into a single function from input rows to output
//! rows, so the whole chain can run shard-by-shard over the base table
//! and pay **one** merge at the pipeline breaker.
//!
//! This module provides the two generic pieces (the operator-aware
//! chain builders live in `audb_query`, which knows the semantics):
//!
//! * [`ShardSource`] — slices an index space `0..n` into `S` contiguous
//!   shards. A shard is a morsel source with its own base-table slice;
//!   unlike [`Partitioner`] morsels the shard count is an explicit knob
//!   (`AuConfig::shards`) so determinism tests can force any shape.
//! * [`Executor::run_shards`] — runs a fallible producer once per shard
//!   on the pool and concatenates the per-shard outputs **in shard
//!   order**. For a pure producer the result is byte-identical to the
//!   sequential loop over `0..n`, for any worker count and any shard
//!   count — the same ordered-merge argument as [`Executor::run`].
//!
//! The pipeline breaker itself is [`Executor::hash_merge_sorted`]: the
//! one normalization a fused chain pays, at the point where the chain
//! ends (an aggregate, a difference, a union tail, or the final query
//! result).

use std::ops::Range;

use audb_core::obs::Counter;
use audb_core::ExecError;

use crate::partition::Partitioner;
use crate::pool::Executor;

/// Slices an index space into `S` contiguous near-equal shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSource {
    shards: usize,
}

impl ShardSource {
    /// Exactly `shards` shards (0 is treated as 1). Slicing an index
    /// space smaller than the shard count yields fewer (non-empty)
    /// shards.
    pub fn new(shards: usize) -> Self {
        ShardSource { shards: shards.max(1) }
    }

    /// Auto-sized sharding: up to `workers × 4` shards (load-balancing
    /// slack, mirroring [`Partitioner`]'s morsel slack) but never
    /// smaller than `min_rows_per_shard` rows each, so tiny inputs run
    /// as a single shard on the caller's thread.
    pub fn auto(workers: usize, rows: usize, min_rows_per_shard: usize) -> Self {
        let cap = workers.max(1) * 4;
        let by_rows = rows / min_rows_per_shard.max(1);
        ShardSource::new(cap.min(by_rows).max(1))
    }

    /// Number of shards this source was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Split `0..n` into contiguous shards covering it exactly; the
    /// first `n % shards` shards get one extra row. Empty shards are
    /// omitted.
    pub fn slices(&self, n: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let count = self.shards.min(n);
        let base = n / count;
        let extra = n % count;
        let mut out = Vec::with_capacity(count);
        let mut start = 0;
        for i in 0..count {
            let len = base + usize::from(i < extra);
            out.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, n);
        out
    }
}

impl Executor {
    /// Run `produce` once per shard of `0..n` and concatenate the
    /// per-shard outputs in shard order.
    ///
    /// Exactly the [`Executor::run`] contract with explicit shard
    /// boundaries: `produce(range, out)` must append what the
    /// sequential loop over `range` would push, in the same order;
    /// the concatenation in shard order then equals the sequential
    /// output over `0..n` for any worker count and any shard count.
    /// Errors are deterministic — the earliest failing shard wins. An
    /// empty source (zero rows, hence zero shards) returns the empty
    /// result without touching the pool. Shards always run through
    /// [`Executor::run`], so panic containment, cancellation
    /// checkpoints, and fault injection apply per claimed morsel on
    /// every path (a single shard or worker is simply the pool's inline
    /// fast path).
    pub fn run_shards<T, E, F>(
        &self,
        n: usize,
        source: &ShardSource,
        produce: F,
    ) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<ExecError>,
        F: Fn(Range<usize>, &mut Vec<T>) -> Result<(), E> + Sync,
    {
        let slices = source.slices(n);
        if slices.is_empty() {
            return Ok(Vec::new());
        }
        self.metrics().add(Counter::ShardsDispatched, slices.len() as u64);
        // One pool job per shard: the meta-executor partitions the
        // shard list one-to-one (no row-level morsel floor — the shard
        // count already encodes the parallelism decision).
        let meta = self.clone().with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 1,
            min_rows_per_worker: 0,
        });
        meta.run(slices.len(), |range, out| {
            for si in range {
                produce(slices[si].clone(), out)?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn cover(n: usize, slices: &[Range<usize>]) {
        let mut pos = 0;
        for s in slices {
            assert_eq!(s.start, pos, "shards must be contiguous");
            assert!(s.end > s.start, "shards must be non-empty");
            pos = s.end;
        }
        assert_eq!(pos, n, "shards must cover 0..n exactly");
    }

    #[test]
    fn slices_cover_and_balance() {
        for n in [0usize, 1, 2, 7, 100, 10_001] {
            for s in [1usize, 3, 8, 64] {
                let slices = ShardSource::new(s).slices(n);
                cover(n, &slices);
                assert!(slices.len() <= s.max(1));
                // near-equal shards; total on the empty slice list (an
                // empty source yields zero shards, not a panic)
                let (min, max) = slices
                    .iter()
                    .map(Range::len)
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(slices.is_empty() || max - min <= 1, "near-equal shards");
            }
        }
    }

    #[test]
    fn auto_floors_tiny_inputs_to_one_shard() {
        assert_eq!(ShardSource::auto(8, 100, 1024).shards(), 1);
        assert_eq!(ShardSource::auto(4, 100_000, 1024).shards(), 16);
        assert_eq!(ShardSource::auto(4, 5000, 1024).shards(), 4);
    }

    /// Ragged per-item output, exercised across worker × shard shapes.
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
        let seq = Executor::sequential().run_shards(n, &ShardSource::new(1), produce).unwrap();
        for w in [1usize, 2, 4, 7] {
            for s in [1usize, 3, 8, 40] {
                let got = Executor::new(w).run_shards(n, &ShardSource::new(s), produce).unwrap();
                assert_eq!(got, seq, "workers = {w}, shards = {s}");
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
                Executor::new(w).run_shards(100, &ShardSource::new(8), fail_at(40)),
                Err("item 40".to_string()),
                "workers = {w}"
            );
        }
    }

    /// Regression: a zero-row source must yield the empty result — for
    /// every shard count, including the degenerate `ShardSource::new(0)`
    /// — never panic on the empty slice list.
    #[test]
    fn empty_source_yields_empty_result() {
        for w in [1usize, 4] {
            for s in [0usize, 1, 3, 8] {
                let out = Executor::new(w).run_shards(0, &ShardSource::new(s), produce).unwrap();
                assert!(out.is_empty(), "workers = {w}, shards = {s}");
            }
        }
        assert!(ShardSource::new(0).slices(0).is_empty());
        assert_eq!(ShardSource::auto(0, 0, 0).shards(), 1);
    }

    /// A panicking shard producer is contained and reported with the
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
            let exec = Executor::new(w);
            let err = exec.run_shards(100, &ShardSource::new(8), panicky).unwrap_err();
            assert!(err.contains("worker panicked"), "workers = {w}, got: {err}");
            let seq = Executor::sequential().run_shards(100, &ShardSource::new(1), produce);
            assert_eq!(exec.run_shards(100, &ShardSource::new(8), produce), seq);
        }
    }
}
