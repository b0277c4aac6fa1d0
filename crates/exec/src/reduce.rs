//! The sharded-reduce driver: parallel hash-merge + sort.
//!
//! Relation normalization (merge duplicate tuples, drop zeros, sort
//! canonically) is a hash-merge over the *whole* row list — once the
//! row-producing operators run on the pool, it is the remaining
//! single-threaded tail of every query. [`Executor::hash_merge_sorted`]
//! decomposes it into the same morsel/ordered-merge shape as
//! [`Executor::run`]:
//!
//! 1. **scatter** (parallel, one job per input morsel): hash each row
//!    once and route it to one of `S` shards — equal keys always land in
//!    the same shard, and within a shard rows keep their original
//!    relative order (morsels are contiguous and collected in morsel
//!    order); the hash travels with the row;
//! 2. **reduce** (parallel, one job per shard): dedupe the shard's rows
//!    on the carried hash, then key and sort only the distinct survivors
//!    (`merge_sort_run`);
//! 3. **merge** (sequential, `O(n · S)` with `S ≤ workers`): k-way-merge
//!    the sorted shards into one globally sorted list.
//!
//! ## Determinism
//!
//! The output is **byte-identical** to the sequential hash-merge + sort
//! for any worker count, shard count, and hash function:
//!
//! * the *set* of `(key, combined value)` pairs does not depend on the
//!   sharding — equal keys share a shard, and each key's occurrences
//!   are combined in their original input order (so `combine` need not
//!   even be commutative, only identical to the sequential fold);
//! * the *order* is canonical — shards hold disjoint key sets, so the
//!   k-way merge of the per-shard sorted runs is the unique globally
//!   sorted sequence, the same one the sequential path produces.
//!
//! A worker count of 1 (or an input below the morsel floor) takes the
//! inline path, which *is* the sequential algorithm (run as a single
//! pool morsel, so panic containment and cancellation apply there too).
//!
//! ## Governance
//!
//! The whole input is charged to the executor's budget up front (site
//! `"sharded-reduce"`): normalization buffers every row it is handed,
//! so the scatter is the last place an over-budget intermediate can be
//! stopped before it is copied shard-wise. Both phases run on
//! [`Executor::run`], inheriting its cancellation checkpoints and
//! panic containment; claim mutexes are accessed poison-recovering, so
//! a contained panic in one job cannot cascade into lock panics in
//! siblings.

use std::hash::Hash;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use audb_core::hash::{call_seed, keyed_hash};
use audb_core::obs::{Counter, Site};
use audb_core::ExecError;

use crate::partition::Partitioner;
use crate::pool::Executor;

/// A work unit claimed exactly once by a pool job: the morsel chunks of
/// the scatter phase and the bucket lists of the reduce phase.
type Claim<V> = Mutex<Option<V>>;

/// A row with its per-call keyed hash, computed once (by the scatter, or
/// on the way into the sequential dedupe).
type Hashed<T, K> = (u64, T, K);

/// One row bucket per shard, as produced by a scatter job.
type Buckets<T, K> = Vec<Vec<Hashed<T, K>>>;

/// Take a claimed work unit out of its slot, recovering from a poisoned
/// lock (the panic that poisoned it was already contained and converted
/// to a structured error by the pool).
fn claim<V>(slot: &Claim<V>) -> Option<V> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

impl Executor {
    /// Merge rows with equal keys (combining their values), drop rows
    /// rejected by `keep` (checked on *input* values, mirroring the
    /// sequential normalize), and return the survivors sorted by key.
    ///
    /// `combine(acc, v)` folds `v` into the accumulated value for a key;
    /// it is applied in the rows' original order, so any fold that the
    /// sequential hash-merge supports is safe here.
    ///
    /// Fallible since the runtime gained fault containment: a panic in
    /// `keep`/`combine` surfaces as [`ExecError::WorkerPanic`], a
    /// tripped token as `Cancelled`/`DeadlineExceeded`, and the up-front
    /// input charge as [`ExecError::BudgetExceeded`].
    pub fn hash_merge_sorted<T, K>(
        &self,
        rows: Vec<(T, K)>,
        keep: impl Fn(&K) -> bool + Sync,
        combine: impl Fn(&mut K, K) + Sync,
    ) -> Result<Vec<(T, K)>, ExecError>
    where
        T: Hash + Eq + Ord + Send,
        K: Send,
    {
        // A zero-width packed key compares nothing, so every comparison
        // falls through to the full key order.
        self.hash_merge_sorted_by_key(rows, keep, combine, 0, |_, _| ())
    }

    /// [`Executor::hash_merge_sorted`] with an order-refining sort
    /// accelerator: `write_key(t, buf)` fills `buf` (`width` bytes) with
    /// a packed key that is *monotone* in `T`'s order (`key(a) < key(b)`
    /// ⇒ `a < b`), and the sorts and the k-way merge compare
    /// `(packed key, row)` — a memcmp fast path in front of the exact
    /// comparator, producing the identical canonical order.
    ///
    /// Dedupe comes first: every row is hashed **once**, with a cheap
    /// hash keyed per call, and folded into an open-addressing table
    /// over the distinct rows; only those survivors get a packed key,
    /// written into one contiguous arena (no per-row allocation), and a
    /// `u32` permutation is sorted over it. Duplicate-heavy inputs never
    /// pay for keys or comparisons of rows that merge away.
    pub fn hash_merge_sorted_by_key<T, K>(
        &self,
        rows: Vec<(T, K)>,
        keep: impl Fn(&K) -> bool + Sync,
        combine: impl Fn(&mut K, K) + Sync,
        width: usize,
        write_key: impl Fn(&T, &mut [u8]) + Sync,
    ) -> Result<Vec<(T, K)>, ExecError>
    where
        T: Hash + Eq + Ord + Send,
        K: Send,
    {
        self.charge(
            "sharded-reduce",
            rows.len() as u64,
            (rows.len() * std::mem::size_of::<(T, K)>()) as u64,
        )?;
        let metrics = self.metrics().clone();
        metrics.add(Counter::NormalizeRuns, 1);
        metrics.add(Counter::NormalizeRowsIn, rows.len() as u64);
        let timed = |site: Site, started: Option<Instant>| {
            if let Some(t) = started {
                metrics.record_ns(site, t.elapsed().as_nanos() as u64);
            }
        };
        // One seed keys the whole call, so every occurrence of a key
        // agrees on its hash — and hence on its shard and table slot.
        let seed = call_seed();

        let morsels = self.partitioner().morsels(rows.len(), self.workers());
        if self.workers() <= 1 || morsels.len() <= 1 {
            // Run the sequential algorithm as a single pool morsel so it
            // shares the containment/cancellation path of the parallel
            // shape.
            let phase_started = metrics.is_enabled().then(Instant::now);
            let slot: Claim<Vec<(T, K)>> = Mutex::new(Some(rows));
            let out: Vec<(T, K)> = self.run(1, |_, out| {
                let rows = claim(&slot).unwrap_or_default();
                let cap = rows.len();
                let hashed = (rows.into_iter())
                    .filter(|(_, k)| keep(k))
                    .map(|(t, k)| (keyed_hash(seed, &t), t, k));
                // the only morsel of this run: `out` is its empty list
                *out = merge_sort_run(hashed, cap, &combine, width, &write_key);
                Ok::<(), ExecError>(())
            })?;
            timed(Site::ReduceMergeSort, phase_started);
            metrics.add(Counter::NormalizeRowsOut, out.len() as u64);
            return Ok(out);
        }

        // The scatter/reduce jobs are batches themselves (one per morsel
        // or shard), so the meta-executor partitions them one-to-one
        // instead of applying the row-level morsel floor again.
        let meta = self.clone().with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 1,
            min_rows_per_worker: 0,
        });
        let shards = self.workers().min(morsels.len());

        // Split the owned row list at the morsel boundaries so scatter
        // jobs can take ownership of their chunk.
        let mut chunks: Vec<Claim<Vec<(T, K)>>> = Vec::with_capacity(morsels.len());
        {
            let mut rest = rows;
            for m in morsels.iter().rev() {
                chunks.push(Mutex::new(Some(rest.split_off(m.start))));
            }
            chunks.reverse();
        }

        // Phase 1: hash each row and scatter it into its shard's bucket.
        // The shard comes from the hash's high half: the dedupe table
        // slots on the low bits, so rows of one shard still spread.
        let phase_started = metrics.is_enabled().then(Instant::now);
        let tables: Vec<Buckets<T, K>> = meta.run(chunks.len(), |range, out| {
            for ci in range {
                let chunk = claim(&chunks[ci]).unwrap_or_default();
                let mut buckets: Buckets<T, K> = (0..shards).map(|_| Vec::new()).collect();
                for (t, k) in chunk {
                    if keep(&k) {
                        let h = keyed_hash(seed, &t);
                        buckets[(((h >> 32) * shards as u64) >> 32) as usize].push((h, t, k));
                    }
                }
                out.push(buckets);
            }
            Ok::<(), ExecError>(())
        })?;
        timed(Site::ReduceScatter, phase_started);

        // Gather: shard `s` receives its buckets in morsel order, so a
        // key's occurrences stay in original input order.
        let mut shard_parts: Vec<Buckets<T, K>> =
            (0..shards).map(|_| Vec::with_capacity(tables.len())).collect();
        for table in tables {
            for (s, bucket) in table.into_iter().enumerate() {
                if !bucket.is_empty() {
                    shard_parts[s].push(bucket);
                }
            }
        }

        // Phase 2: dedupe + sort each shard independently.
        let phase_started = metrics.is_enabled().then(Instant::now);
        let shard_slots: Vec<Claim<Buckets<T, K>>> =
            shard_parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let sorted: Vec<Vec<(T, K)>> = meta.run(shards, |range, out| {
            for s in range {
                let parts = claim(&shard_slots[s]).unwrap_or_default();
                let cap = parts.iter().map(Vec::len).sum();
                let rows = parts.into_iter().flatten();
                out.push(merge_sort_run(rows, cap, &combine, width, &write_key));
            }
            Ok::<(), ExecError>(())
        })?;
        timed(Site::ReduceMergeSort, phase_started);

        // Phase 3: k-way merge of disjoint sorted runs.
        let phase_started = metrics.is_enabled().then(Instant::now);
        let out = kway_merge(sorted);
        timed(Site::ReduceKway, phase_started);
        metrics.add(Counter::NormalizeRowsOut, out.len() as u64);
        Ok(out)
    }
}

/// Dedupe one run of at most `cap` hashed rows and sort the survivors —
/// the whole sequential algorithm, and each shard's reduce job.
///
/// The table is open addressing over `u32` positions into the dense
/// list of distinct rows (first-occurrence order), probed from the low
/// bits of the carried hash and sized for `cap` distinct rows up front
/// (load ≤ 1/2, it never grows); `combine` folds a key's occurrences in
/// input order. The survivors' packed keys fill one `width`-strided
/// arena, a permutation is sorted by `(arena bytes, row)`, and the rows
/// are permuted in place — the dense list is the output, nothing is
/// copied out of it.
fn merge_sort_run<T: Eq + Ord, K>(
    rows: impl Iterator<Item = Hashed<T, K>>,
    cap: usize,
    combine: impl Fn(&mut K, K),
    width: usize,
    write_key: impl Fn(&T, &mut [u8]),
) -> Vec<(T, K)> {
    const EMPTY: u32 = u32::MAX;
    let mut slots: Vec<u32> = vec![EMPTY; (2 * cap).next_power_of_two().max(2)];
    let mut distinct: Vec<(T, K)> = Vec::with_capacity(cap);
    for (h, t, k) in rows {
        let mut i = h as usize & (slots.len() - 1);
        while slots[i] != EMPTY && distinct[slots[i] as usize].0 != t {
            i = (i + 1) & (slots.len() - 1);
        }
        if slots[i] == EMPTY {
            slots[i] = distinct.len() as u32;
            distinct.push((t, k));
        } else {
            combine(&mut distinct[slots[i] as usize].1, k);
        }
    }
    drop(slots);
    distinct.shrink_to_fit();
    if width == 0 {
        // no packed key: nothing to gain over sorting the rows themselves
        distinct.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        return distinct;
    }

    let mut arena = vec![0u8; distinct.len() * width];
    for (i, (t, _)) in distinct.iter().enumerate() {
        write_key(t, &mut arena[i * width..(i + 1) * width]);
    }
    let key = |i: u32| &arena[i as usize * width..(i as usize + 1) * width];
    // The key's first word rides in the sort record: most comparisons
    // resolve on it without touching the arena.
    let word = |i: u32| key(i).first_chunk().map_or(0, |w| u64::from_be_bytes(*w));
    let mut perm: Vec<(u64, u32)> = (0..distinct.len() as u32).map(|i| (word(i), i)).collect();
    perm.sort_unstable_by(|&(wa, a), &(wb, b)| {
        (wa.cmp(&wb))
            .then_with(|| key(a).cmp(key(b)))
            .then_with(|| distinct[a as usize].0.cmp(&distinct[b as usize].0))
    });
    // rows[i] ← rows[perm[i]], one swap per row along each cycle
    for i in 0..perm.len() {
        let mut j = i;
        loop {
            let from = std::mem::replace(&mut perm[j].1, j as u32) as usize;
            if from == i {
                break;
            }
            distinct.swap(j, from);
            j = from;
        }
    }
    distinct
}

/// Merge sorted runs with pairwise-distinct rows into one sorted list
/// (`O(n · runs)` row comparisons — no keys: between runs almost every
/// comparison resolves on the first attribute).
fn kway_merge<T: Ord, K>(runs: Vec<Vec<(T, K)>>) -> Vec<(T, K)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<(T, K)>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<(T, K)>> = iters.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::with_capacity(total);
    loop {
        // index of the smallest live head (runs hold disjoint rows, so
        // ties cannot happen)
        let head = |r: usize| heads[r].as_ref().map(|(t, _)| t);
        let best =
            (0..heads.len()).filter(|&r| heads[r].is_some()).min_by(|&a, &b| head(a).cmp(&head(b)));
        let Some(b) = best else { break };
        out.extend(heads[b].take());
        heads[b] = iters[b].next();
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Rows with duplicate keys spread across the space, some zeros.
    fn rows(n: usize) -> Vec<(u64, u64)> {
        (0..n).map(|i| ((i % 97) as u64, (i % 5) as u64)).collect()
    }

    fn merged(exec: &Executor, n: usize) -> Vec<(u64, u64)> {
        exec.hash_merge_sorted(rows(n), |k| *k > 0, |acc, k| *acc += k).unwrap()
    }

    #[test]
    fn parallel_identical_to_sequential() {
        let seq = merged(&Executor::sequential(), 10_000);
        for w in [2usize, 3, 4, 7, 16] {
            assert_eq!(merged(&Executor::new(w), 10_000), seq, "workers = {w}");
        }
    }

    #[test]
    fn tiny_inputs_and_forced_partitions() {
        let forced = Executor::new(4).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 5,
            min_rows_per_worker: 0,
        });
        for n in [0usize, 1, 2, 7, 130] {
            let seq = merged(&Executor::sequential(), n);
            assert_eq!(merged(&forced, n), seq, "n = {n}");
        }
    }

    #[test]
    fn combine_order_is_original_order() {
        // fold that is NOT commutative: keeps (first, last) seen
        let input: Vec<(u64, (u64, u64))> = (0..600u64).map(|i| (i % 7, (i, i))).collect();
        let fold = |acc: &mut (u64, u64), v: (u64, u64)| acc.1 = v.1;
        let seq = Executor::sequential().hash_merge_sorted(input.clone(), |_| true, fold).unwrap();
        let forced = Executor::new(4).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 3,
            min_rows_per_worker: 0,
        });
        assert_eq!(forced.hash_merge_sorted(input, |_| true, fold).unwrap(), seq);
    }

    #[test]
    fn keep_filters_before_merge() {
        let input = vec![(1u64, 0u64), (1, 2), (2, 0), (3, 1)];
        let out = Executor::new(4)
            .with_partitioner(Partitioner {
                min_morsel: 1,
                morsels_per_worker: 2,
                min_rows_per_worker: 0,
            })
            .hash_merge_sorted(input, |k| *k > 0, |acc, k| *acc += k)
            .unwrap();
        assert_eq!(out, vec![(1, 2), (3, 1)]);
    }

    /// A monotone sort key changes nothing: keyed output is
    /// byte-identical to the plain path at any worker count.
    #[test]
    fn keyed_sort_identical_to_plain() {
        let seq = merged(&Executor::sequential(), 5_000);
        let forced = Executor::new(4).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker: 3,
            min_rows_per_worker: 0,
        });
        for exec in [Executor::sequential(), forced] {
            let out = exec
                .hash_merge_sorted_by_key(
                    rows(5_000),
                    |k| *k > 0,
                    |acc, k| *acc += k,
                    8,
                    |t, buf| buf.copy_from_slice(&t.to_be_bytes()),
                )
                .unwrap();
            assert_eq!(out, seq);
        }
    }

    /// The driver against a `BTreeMap` fold (occurrences combined in
    /// input order, by a fold that is not commutative): heavy
    /// duplication and all-distinct inputs, keys sharing a prefix longer
    /// than their packed key, with and without the packed key, at every
    /// worker count.
    #[test]
    fn matches_btreemap_fold_reference() {
        use std::collections::BTreeMap;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let forced = |w| {
            Executor::new(w).with_partitioner(Partitioner {
                min_morsel: 1,
                morsels_per_worker: 3,
                min_rows_per_worker: 0,
            })
        };
        let keep = |k: &u64| !k.is_multiple_of(5);
        let fold = |acc: &mut u64, k: u64| *acc = acc.wrapping_mul(31).wrapping_add(k);
        // the first 8 bytes, zero-padded: monotone, equal on the shared prefix
        let prefix = |t: &String, buf: &mut [u8]| {
            buf.fill(0);
            let n = t.len().min(8);
            buf[..n].copy_from_slice(&t.as_bytes()[..n]);
        };
        for (n, distinct) in [(0, 1), (1, 1), (40, 3), (3000, 7), (3000, 100), (2000, 2000)] {
            let rows: Vec<(String, u64)> = (0..n)
                .map(|_| {
                    let id = next() % distinct;
                    let key =
                        if id % 2 == 0 { format!("shared-prefix-{id}") } else { format!("{id}") };
                    (key, next() % 97)
                })
                .collect();
            let mut reference: BTreeMap<String, u64> = BTreeMap::new();
            for (t, k) in rows.iter().filter(|(_, k)| keep(k)) {
                match reference.get_mut(t) {
                    Some(acc) => fold(acc, *k),
                    None => drop(reference.insert(t.clone(), *k)),
                }
            }
            let reference: Vec<(String, u64)> = reference.into_iter().collect();
            for exec in [Executor::sequential(), forced(2), forced(4), forced(7)] {
                let plain = exec.hash_merge_sorted(rows.clone(), keep, fold).unwrap();
                assert_eq!(plain, reference, "n = {n}, distinct = {distinct}");
                let keyed =
                    exec.hash_merge_sorted_by_key(rows.clone(), keep, fold, 8, prefix).unwrap();
                assert_eq!(keyed, reference, "keyed: n = {n}, distinct = {distinct}");
            }
        }
    }

    /// Two normalizations in one process hash under different seeds: a
    /// key set crafted to collide under one call's hash does not collide
    /// under the next.
    #[test]
    fn calls_do_not_share_a_hash_seed() {
        let (a, b) = (call_seed(), call_seed());
        assert_ne!(a, b);
        let key = ("some tuple", 7u64);
        assert_ne!(keyed_hash(a, &key), keyed_hash(b, &key));
        assert_eq!(keyed_hash(a, &key), keyed_hash(a, &key));
    }

    /// A panic in `combine` is contained as a structured error and the
    /// executor keeps working — on both the inline and parallel paths.
    #[test]
    fn combine_panic_is_contained() {
        let bomb = |_acc: &mut u64, _k: u64| panic!("combine bomb");
        for exec in [
            Executor::sequential(),
            Executor::new(4).with_partitioner(Partitioner {
                min_morsel: 1,
                morsels_per_worker: 3,
                min_rows_per_worker: 0,
            }),
        ] {
            let err = exec.hash_merge_sorted(rows(500), |_| true, bomb).unwrap_err();
            assert!(matches!(err, ExecError::WorkerPanic { .. }), "got: {err:?}");
            // reusable afterwards
            assert_eq!(merged(&exec, 500), merged(&Executor::sequential(), 500));
        }
    }

    /// The whole input is charged up front: a budget smaller than the
    /// row list trips before any scatter work happens.
    #[test]
    fn input_charge_trips_budget() {
        use audb_core::{Budget, BudgetSpec};
        let exec = Executor::new(4).with_budget(Budget::new(BudgetSpec::rows(100)));
        let err = exec.hash_merge_sorted(rows(500), |_| true, |acc, k| *acc += k).unwrap_err();
        assert!(
            matches!(err, ExecError::BudgetExceeded { operator: "sharded-reduce", .. }),
            "got: {err:?}"
        );
    }
}
