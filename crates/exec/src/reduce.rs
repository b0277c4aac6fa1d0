//! The normalization driver: sort once, then merge neighbours.
//!
//! Relation normalization (merge duplicate tuples, drop zeros, sort
//! canonically) is one sort of the whole row list — once the
//! row-producing operators run on the pool, it is the remaining tail of
//! every query. [`Executor::sort_merge_by_key`] runs it in the
//! morsel/ordered-merge shape of [`Executor::run`]:
//!
//! 1. **sort** (one pool job per morsel; one morsel at one worker): drop
//!    the rows `keep` rejects, have the caller write a packed sort key
//!    for every row left into one arena (a lane view writes it a column
//!    at a time), sort a `(key word, index)` permutation by `(word, key
//!    bytes, row, index)` one key word at a time, and fold each run of
//!    equal rows into its first occurrence;
//! 2. **merge** (sequential, `O(n · runs)` with `runs ≤ workers`):
//!    k-way-merge the morsels' sorted runs, folding equal heads together.
//!
//! The rows' own order is consulted only where two keys tie and one of
//! them is *inexact* — the writer could not pin its row down (a string
//! longer than its key prefix, say): equal exact keys are equal rows.
//! Almost no row merges in a query's normalization, so there is no hash
//! pass and no table in front of the sort: every row is keyed once and
//! sorted once.
//!
//! ## Determinism
//!
//! The output is **byte-identical** to the sequential fold — one morsel,
//! every row's occurrences combined in input order — for any worker
//! count and morsel split, because
//!
//! * `combine` is **associative**: a morsel folds a row's occurrences in
//!   input order (ties sort by index), and the merge folds the morsels'
//!   partial results in run order, which is input order — `(a ⊕ b) ⊕
//!   (c ⊕ d)` is the sequential `((a ⊕ b) ⊕ c) ⊕ d`, so `combine` need
//!   not be commutative;
//! * the **first occurrence is kept**: a morsel folds into the earliest
//!   row of a run, and the merge folds equal heads into the earliest
//!   run's, so the surviving row is the first in input order;
//! * the order is **canonical**: the key is monotone in the row order,
//!   so every run is sorted by the rows, and the merge of sorted runs
//!   with equal heads folded is the unique sorted sequence of distinct
//!   rows.
//!
//! The sequential path is a single pool morsel, so panic containment
//! and cancellation apply there too.
//!
//! ## Governance
//!
//! The whole input is charged to the executor's budget up front (site
//! `"sharded-reduce"`): normalization buffers every row it is handed,
//! so this is the last place an over-budget intermediate can be stopped
//! before it is keyed and sorted. The sort runs on
//! [`Executor::run`], inheriting its cancellation checkpoints and panic
//! containment; claim mutexes are accessed poison-recovering, so a
//! contained panic in one job cannot cascade into lock panics in
//! siblings.

use std::cmp::Ordering;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use audb_core::obs::{Counter, Site};
use audb_core::ExecError;

use crate::partition::Partitioner;
use crate::pool::Executor;

/// A morsel's rows, claimed exactly once by the pool job that sorts them.
type Claim<V> = Mutex<Option<V>>;

/// Take a claimed work unit out of its slot, recovering from a poisoned
/// lock (the panic that poisoned it was already contained and converted
/// to a structured error by the pool).
fn claim<V>(slot: &Claim<V>) -> Option<V> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

impl Executor {
    /// Merge equal rows (combining their values), drop rows rejected by
    /// `keep` (checked on *input* values, before any merge), and return
    /// the survivors sorted.
    ///
    /// `combine(acc, v)` folds `v` into the value of the row's first
    /// occurrence; it must be associative, and is applied in the rows'
    /// original order, so it need not be commutative.
    ///
    /// Fallible since the runtime gained fault containment: a panic in
    /// `keep`/`combine` surfaces as [`ExecError::WorkerPanic`], a
    /// tripped token as `Cancelled`/`DeadlineExceeded`, and the up-front
    /// input charge as [`ExecError::BudgetExceeded`].
    pub fn sort_merge<T, K>(
        &self,
        rows: Vec<(T, K)>,
        keep: impl Fn(&K) -> bool + Sync,
        combine: impl Fn(&mut K, &K) + Sync,
    ) -> Result<Vec<(T, K)>, ExecError>
    where
        T: Ord + Send,
        K: Send,
    {
        // A zero-width key is inexact everywhere: every tie falls
        // through to the rows' own order.
        self.sort_merge_by_key(rows, keep, combine, |_, _, _| 0)
    }

    /// [`Executor::sort_merge`] on packed sort keys. `write_keys(rows,
    /// keys, exact)` fills the empty `keys` with one key per row of a
    /// morsel, all as wide as the width it returns (row `i`'s at
    /// `keys[i * width..]`), *monotone* in `T`'s order within the morsel
    /// (`key(a) < key(b)` ⇒ `a < b`; equal rows have equal keys), and
    /// sets `exact[i]` (it arrives `false`) where row `i`'s key pins the
    /// row down: two rows with equal exact keys are equal. The sort
    /// orders by `(key, row)` — the key a big-endian word at a time, the
    /// rows only where equal keys are not all exact — so the order is
    /// `T`'s.
    pub fn sort_merge_by_key<T, K>(
        &self,
        rows: Vec<(T, K)>,
        keep: impl Fn(&K) -> bool + Sync,
        combine: impl Fn(&mut K, &K) + Sync,
        write_keys: impl Fn(&[(T, K)], &mut Vec<u8>, &mut [bool]) -> usize + Sync,
    ) -> Result<Vec<(T, K)>, ExecError>
    where
        T: Ord + Send,
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

        // One run per worker at most (the merge scans every run's head
        // per row), each a contiguous stretch of morsels; one run at one
        // worker or below the partitioner's floor.
        let morsels = self.partitioner().morsels(rows.len(), self.workers());
        let runs = if self.workers() <= 1 { 1 } else { self.workers().min(morsels.len()).max(1) };
        // The sort jobs are batches themselves, so the meta-executor
        // partitions them one-to-one instead of applying the row-level
        // morsel floor again.
        let one_each = Partitioner { min_morsel: 1, morsels_per_worker: 1, min_rows_per_worker: 0 };
        let mut parts: Vec<Claim<Vec<(T, K)>>> = Vec::with_capacity(runs);
        {
            let mut rest = rows;
            for m in one_each.morsels(rest.len(), runs).iter().skip(1).rev() {
                parts.push(Mutex::new(Some(rest.split_off(m.start))));
            }
            parts.push(Mutex::new(Some(rest)));
            parts.reverse();
        }

        let started = metrics.is_enabled().then(Instant::now);
        let sorted: Vec<Vec<(T, K)>> =
            self.clone().with_partitioner(one_each).run(parts.len(), |range, out| {
                for p in range {
                    let mut rows = claim(&parts[p]).unwrap_or_default();
                    rows.retain(|(_, k)| keep(k));
                    out.push(sort_run(rows, &combine, &write_keys));
                }
                Ok::<(), ExecError>(())
            })?;
        timed(Site::ReduceMergeSort, started);

        let mut out = if sorted.len() == 1 {
            sorted.into_iter().next().unwrap_or_default()
        } else {
            let started = metrics.is_enabled().then(Instant::now);
            let out = kway_merge(sorted, &combine);
            timed(Site::ReduceKway, started);
            out
        };
        // the rows were sorted in the input's buffer: give back what merged
        out.shrink_to_fit();
        metrics.add(Counter::NormalizeRowsOut, out.len() as u64);
        Ok(out)
    }
}

/// Sort one morsel's rows and fold each run of equal rows into its
/// first occurrence, in input order — the whole sequential algorithm.
/// Without a key (width 0) the rows themselves are sorted, stably.
///
/// Every row's key fills one arena, all keys of one width. A `(first key
/// word, index)` permutation is sorted by `(word, index)`, and each
/// stretch of equal words by the next 8-byte key word, loaded into its
/// records, and so on: a word the whole stretch shares costs one pass
/// and no sort. Where the key runs out the keys are equal: if all are
/// exact the rows are duplicates, otherwise the stretch is sorted,
/// stably, by the rows. Together that is the order `(word, key bytes,
/// row, index)`, and no comparison touches the arena. Runs of equal rows
/// are folded, the first row of each kept in input order, and those put
/// in sorted order in place — nothing is copied out.
fn sort_run<T: Ord, K>(
    mut rows: Vec<(T, K)>,
    combine: &impl Fn(&mut K, &K),
    write_keys: &impl Fn(&[(T, K)], &mut Vec<u8>, &mut [bool]) -> usize,
) -> Vec<(T, K)> {
    let n = rows.len();
    let (mut keys, mut exact) = (Vec::new(), vec![false; n]);
    let width = write_keys(&rows, &mut keys, &mut exact);
    debug_assert_eq!(keys.len(), n * width, "one key per row");
    if width == 0 {
        // No key: sort the rows themselves. The sort is stable, so a run
        // of equal rows lists them in input order.
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows.dedup_by(|later, first| {
            let same = later.0 == first.0;
            if same {
                combine(&mut first.1, &later.1);
            }
            same
        });
        return rows;
    }
    let key = |i: u32| &keys[i as usize * width..][..width];
    // row `i`'s key bytes `at..at + 8`, big-endian; a key narrower than a
    // multiple of 8 ends in a zero-padded word, alike in every key
    let word = |i: u32, at: usize| {
        let tail = &key(i)[at..];
        match tail.first_chunk() {
            Some(w) => u64::from_be_bytes(*w),
            None => {
                let mut w = [0u8; 8];
                w[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(w)
            }
        }
    };
    let mut perm: Vec<(u64, u32)> = (0..n as u32).map(|i| (word(i, 0), i)).collect();
    sort_by_word(&mut perm);
    // sorted position `j` continues the run of equal rows before it
    let mut joins = vec![false; n];
    // parts of records equal on every key word before byte `at`, each in
    // index order: `(start, end, at)`
    let mut ties = Vec::new();
    tied_parts(&perm, 0, 8, &mut ties);
    while let Some((start, end, at)) = ties.pop() {
        let part = &mut perm[start..end];
        if at < width {
            let first = word(part[0].1, at);
            let mut shared = true;
            for r in part.iter_mut() {
                r.0 = word(r.1, at);
                shared &= r.0 == first;
            }
            if shared {
                ties.push((start, end, at + 8));
            } else {
                // indices are unique: this is the stable order by word
                part.sort_unstable();
                tied_parts(part, start, at + 8, &mut ties);
            }
            continue;
        }
        // equal keys: exact ones are equal rows, the rest need the rows
        let joins = &mut joins[start + 1..end];
        if part.iter().all(|&(_, i)| exact[i as usize]) {
            joins.fill(true);
        } else {
            let row = |i: u32| &rows[i as usize].0;
            part.sort_by(|&(_, a), &(_, b)| row(a).cmp(row(b)));
            for (joined, w) in joins.iter_mut().zip(part.windows(2)) {
                *joined = row(w[0].1) == row(w[1].1);
            }
        }
    }
    drop(keys);

    // A run lists its rows in input order: fold them into the first, and
    // rank the first rows in sorted order.
    const FOLDED: u32 = u32::MAX;
    let mut rank = vec![FOLDED; n];
    let (mut first, mut ranked) = (0, 0);
    for (&(_, i), &joined) in perm.iter().zip(&joins) {
        let i = i as usize;
        if joined {
            let (earlier, later) = rows.split_at_mut(i);
            combine(&mut earlier[first].1, &later[0].1);
        } else {
            (first, rank[i]) = (i, ranked);
            ranked += 1;
        }
    }
    // keep the first rows, in input order, then move each to its rank
    let mut ranks = rank.into_iter();
    let mut dest: Vec<u32> = Vec::with_capacity(ranked as usize);
    rows.retain(|_| match ranks.next() {
        Some(FOLDED) | None => false,
        Some(r) => {
            dest.push(r);
            true
        }
    });
    for i in 0..dest.len() {
        while dest[i] as usize != i {
            let d = dest[i] as usize;
            rows.swap(i, d);
            dest.swap(i, d);
        }
    }
    rows
}

/// Push each stretch of more than one equal word of the sorted `part`,
/// which starts at position `start`, as `(start, end, at)`.
fn tied_parts(part: &[(u64, u32)], start: usize, at: usize, ties: &mut Vec<(usize, usize, usize)>) {
    let mut end = start;
    for same in part.chunk_by(|a, b| a.0 == b.0) {
        end += same.len();
        if same.len() > 1 {
            ties.push((end - same.len(), end, at));
        }
    }
}

/// Stable sort of `(word, index)` records by word — records that arrive
/// in index order leave in `(word, index)` order. Records already in
/// that order (a chain over a sorted source) cost one pass. Otherwise
/// least significant byte first over the words' offsets from the least
/// of them, one counting pass per byte their range spans (two for
/// integer columns of up to 65 536 distinct values); a comparison sort
/// where that would take more than three passes, or for a few hundred
/// records. Normalization sorts its keys' first words with it, `Cpr` its
/// members' bucket-attribute selected guesses.
pub fn sort_by_word(perm: &mut Vec<(u64, u32)>) {
    if perm.is_sorted() {
        return;
    }
    let (least, most) = perm.iter().fold((u64::MAX, 0), |(l, m), &(w, _)| (l.min(w), m.max(w)));
    let passes = (64 - most.saturating_sub(least).leading_zeros()).div_ceil(8);
    if perm.len() <= 256 || passes > 3 {
        perm.sort_unstable();
        return;
    }
    let mut moved = vec![(0, 0); perm.len()];
    for shift in (0..8 * passes).step_by(8) {
        let digit = |w: u64| ((w - least) >> shift) as usize & 0xFF;
        let mut count = [0usize; 256];
        for &(w, _) in perm.iter() {
            count[digit(w)] += 1;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        for &r in perm.iter() {
            let slot = &mut count[digit(r.0)];
            moved[*slot] = r;
            *slot += 1;
        }
        std::mem::swap(perm, &mut moved);
    }
}

/// Merge sorted runs, each free of equal rows, into one sorted list
/// (`O(n · runs)` row comparisons — no keys: between runs almost every
/// comparison resolves on the first attribute). Equal heads fold into
/// the earliest run's, in run order.
fn kway_merge<T: Ord, K>(runs: Vec<Vec<(T, K)>>, combine: impl Fn(&mut K, &K)) -> Vec<(T, K)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<(T, K)>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<(T, K)>> = iters.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::with_capacity(total);
    // the runs whose heads are the smallest live row, in run order
    let mut least: Vec<usize> = Vec::with_capacity(heads.len());
    loop {
        least.clear();
        for (r, head) in heads.iter().enumerate() {
            let Some((t, _)) = head else { continue };
            match least.first().and_then(|&l| heads[l].as_ref()).map(|(min, _)| t.cmp(min)) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) => least.push(r),
                Some(Ordering::Less) | None => {
                    least.clear();
                    least.push(r);
                }
            }
        }
        let Some((&first, rest)) = least.split_first() else { break };
        let Some((t, mut k)) = heads[first].take() else { break };
        for &r in rest {
            if let Some((_, v)) = &heads[r] {
                combine(&mut k, v);
            }
            heads[r] = iters[r].next();
        }
        heads[first] = iters[first].next();
        out.push((t, k));
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
        exec.sort_merge(rows(n), |k| *k > 0, |acc, k| *acc += k).unwrap()
    }

    /// `workers` workers, every row a possible morsel seam.
    fn forced(workers: usize, morsels_per_worker: usize) -> Executor {
        Executor::new(workers).with_partitioner(Partitioner {
            min_morsel: 1,
            morsels_per_worker,
            min_rows_per_worker: 0,
        })
    }

    /// An exact 8-byte key: the big-endian `u64`.
    fn be_keys(rows: &[(u64, impl Sized)], keys: &mut Vec<u8>, exact: &mut [bool]) -> usize {
        keys.extend(rows.iter().flat_map(|(t, _)| t.to_be_bytes()));
        exact.fill(true);
        8
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
        for n in [0usize, 1, 2, 7, 130] {
            let seq = merged(&Executor::sequential(), n);
            assert_eq!(merged(&forced(4, 5), n), seq, "n = {n}");
        }
    }

    #[test]
    fn combine_order_is_original_order() {
        // fold that is NOT commutative: keeps (first, last) seen
        let input: Vec<(u64, (u64, u64))> = (0..600u64).map(|i| (i % 7, (i, i))).collect();
        let fold = |acc: &mut (u64, u64), v: &(u64, u64)| acc.1 = v.1;
        let seq = Executor::sequential().sort_merge(input.clone(), |_| true, fold).unwrap();
        assert_eq!(forced(4, 3).sort_merge(input, |_| true, fold).unwrap(), seq);
    }

    #[test]
    fn keep_filters_before_merge() {
        let input = vec![(1u64, 0u64), (1, 2), (2, 0), (3, 1)];
        let out = forced(4, 2).sort_merge(input, |k| *k > 0, |acc, k| *acc += k).unwrap();
        assert_eq!(out, vec![(1, 2), (3, 1)]);
    }

    /// A monotone sort key changes nothing: keyed output is
    /// byte-identical to the plain path at any worker count.
    #[test]
    fn keyed_sort_identical_to_plain() {
        let seq = merged(&Executor::sequential(), 5_000);
        for exec in [Executor::sequential(), forced(4, 3)] {
            let out = exec
                .sort_merge_by_key(rows(5_000), |k| *k > 0, |acc, k| *acc += k, be_keys)
                .unwrap();
            assert_eq!(out, seq);
        }
    }

    /// A xorshift stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn keep_affine(k: &(u64, u64)) -> bool {
        !k.1.is_multiple_of(5)
    }

    /// Compose affine maps `x ↦ a·x + b`: associative, not commutative.
    fn affine(acc: &mut (u64, u64), k: &(u64, u64)) {
        *acc = (acc.0.wrapping_mul(k.0), acc.1.wrapping_mul(k.0).wrapping_add(k.1));
    }

    /// The sequential fold through a `BTreeMap`: the rows `keep_affine`
    /// keeps, each row's occurrences folded by `affine` in input order.
    fn fold_reference<T: Ord + Clone>(rows: &[(T, (u64, u64))]) -> Vec<(T, (u64, u64))> {
        use std::collections::BTreeMap;
        let mut reference: BTreeMap<T, (u64, u64)> = BTreeMap::new();
        for (t, k) in rows.iter().filter(|(_, k)| keep_affine(k)) {
            match reference.get_mut(t) {
                Some(acc) => affine(acc, k),
                None => drop(reference.insert(t.clone(), *k)),
            }
        }
        reference.into_iter().collect()
    }

    /// A `width`-byte key of a byte row: its first `width - 1` bytes,
    /// zero-padded, then its length up to `width - 1`. Monotone, equal on
    /// a shared prefix, exact up to `width - 1` bytes.
    fn prefix_keys<T: AsRef<[u8]>>(
        width: usize,
        rows: &[(T, (u64, u64))],
        keys: &mut Vec<u8>,
        exact: &mut [bool],
    ) -> usize {
        for ((t, _), exact) in rows.iter().zip(exact) {
            let (t, at) = (t.as_ref(), keys.len());
            let n = t.len().min(width - 1);
            keys.resize(at + width, 0);
            keys[at..at + n].copy_from_slice(&t[..n]);
            keys[at + width - 1] = n as u8;
            *exact = t.len() < width;
        }
        width
    }

    /// The driver against a `BTreeMap` fold (occurrences combined in
    /// input order, by a fold that is associative but not commutative:
    /// composing affine maps `x ↦ a·x + b`): heavy
    /// duplication and all-distinct inputs, keys sharing a prefix longer
    /// than their packed key, with and without the packed key, at every
    /// worker count.
    #[test]
    fn matches_btreemap_fold_reference() {
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for (n, distinct) in [(0, 1), (1, 1), (40, 3), (3000, 7), (3000, 100), (2000, 2000)] {
            let rows: Vec<(String, (u64, u64))> = (0..n)
                .map(|_| {
                    let id = next() % distinct;
                    let key = if id.is_multiple_of(2) {
                        format!("shared-prefix-{id}")
                    } else {
                        format!("{id}")
                    };
                    let b = next() % 97;
                    (key, (b | 1, b))
                })
                .collect();
            let reference = fold_reference(&rows);
            for exec in [Executor::sequential(), forced(2, 3), forced(4, 3), forced(7, 3)] {
                let plain = exec.sort_merge(rows.clone(), keep_affine, affine).unwrap();
                assert_eq!(plain, reference, "n = {n}, distinct = {distinct}");
                let keys = |r: &[_], k: &mut _, e: &mut _| prefix_keys(9, r, k, e);
                let keyed = exec.sort_merge_by_key(rows.clone(), keep_affine, affine, keys);
                assert_eq!(keyed.unwrap(), reference, "keyed: n = {n}, distinct = {distinct}");
            }
        }
    }

    /// Keys of 9, 17, 20 and 41 bytes, so a stretch is ordered past its
    /// second word: every row opens with one of five 8-byte group words,
    /// a group shares its next 0–3 words, then one of twelve tails. In
    /// odd groups a tail is one byte, so where the key is wide enough a
    /// whole stretch is exact and told apart by its zero-padded last
    /// word (the 20-byte key's bytes 16–19); in even groups it is 1–23
    /// bytes and ends inside the key (exact) or past it (inexact), at
    /// random positions. Stretches of 40 and 600 rows, as drawn,
    /// presorted, reverse-sorted and all duplicates, against the
    /// `BTreeMap` fold at 1, 2, 4 and 7 workers.
    #[test]
    fn multi_word_keys_match_btreemap_fold_reference() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for n in [200, 3000] {
            let drawn: Vec<(Vec<u8>, (u64, u64))> = (0..n)
                .map(|_| {
                    let (g, tail) = (next() % 5, next() % 12);
                    let mut t = format!("group-{g:02}").into_bytes();
                    t.resize(t.len() + 8 * (g as usize % 4), b'a' + g as u8);
                    let repeat = if g % 2 == 1 { 1 } else { 1 + 2 * tail as usize };
                    t.extend(format!("{tail:x}").repeat(repeat).bytes());
                    let b = next() % 97;
                    (t, (b | 1, b))
                })
                .collect();
            let mut sorted = drawn.clone();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let reversed: Vec<_> = sorted.iter().rev().cloned().collect();
            let same: Vec<_> = drawn.iter().map(|(_, k)| (drawn[0].0.clone(), *k)).collect();
            for (rows, order) in
                [(drawn, "drawn"), (sorted, "sorted"), (reversed, "reversed"), (same, "same")]
            {
                let reference = fold_reference(&rows);
                for width in [9, 17, 20, 41] {
                    for w in [1, 2, 4, 7] {
                        let keys = |r: &[_], k: &mut _, e: &mut _| prefix_keys(width, r, k, e);
                        let keyed =
                            forced(w, 3).sort_merge_by_key(rows.clone(), keep_affine, affine, keys);
                        assert_eq!(
                            keyed.unwrap(),
                            reference,
                            "{order}, n = {n}, {width} B, w = {w}"
                        );
                    }
                }
            }
        }
    }

    /// `sort_by_word` against `sort_unstable` on records in index order
    /// whose words arrive sorted, all equal, sorted but for one adjacent
    /// swap and reversed, at 256 records or fewer and past that, over
    /// word ranges the radix passes cover and ones they do not: the
    /// presorted return must take no unsorted input for sorted.
    #[test]
    fn sort_by_word_matches_sort_unstable() {
        for n in [2usize, 200, 256, 257, 3000] {
            for step in [1u64, 1 << 20, 1 << 50] {
                let ascending: Vec<u64> = (0..n as u64).map(|i| i / 3 * step).collect();
                let mut swapped = ascending.clone();
                if let Some(j) = (n / 2..n).find(|&j| ascending[j - 1] < ascending[j]) {
                    swapped.swap(j - 1, j);
                }
                let descending: Vec<u64> = ascending.iter().rev().copied().collect();
                for words in [ascending, vec![7; n], swapped, descending] {
                    let mut got: Vec<(u64, u32)> = words.into_iter().zip(0..).collect();
                    let mut want = got.clone();
                    want.sort_unstable();
                    sort_by_word(&mut got);
                    assert_eq!(got, want, "n = {n}, step = {step}");
                }
            }
        }
    }

    /// A row whose order and equality see only `key`: `pos` says which
    /// occurrence survived.
    #[derive(Debug, Clone, Copy)]
    struct Occurrence {
        key: u64,
        pos: usize,
    }

    impl PartialEq for Occurrence {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Occurrence {}
    impl PartialOrd for Occurrence {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Occurrence {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// An associative fold that is not commutative — appending the
    /// occurrences' positions — over duplicates that straddle every
    /// morsel seam: at every worker count the output, each row's fold
    /// order and the surviving occurrence are the sequential fold's
    /// (the first occurrence kept, later ones appended in input order).
    /// Also a 50× duplicated input, and `keep` dropping rows, the first
    /// occurrence of some keys among them. A driver that folds a run's
    /// rows, or the morsels' equal heads, in reverse order fails here.
    #[test]
    fn non_commutative_fold_across_morsel_seams() {
        type Row = (Occurrence, Vec<usize>);
        let keep = |k: &Vec<usize>| !k[0].is_multiple_of(11);
        let append = |acc: &mut Vec<usize>, v: &Vec<usize>| acc.extend_from_slice(v);
        let keys = |rows: &[Row], keys: &mut Vec<u8>, exact: &mut [bool]| {
            keys.extend(rows.iter().flat_map(|(t, _)| t.key.to_be_bytes()));
            exact.fill(true);
            8
        };
        // (distinct keys, rows): neighbours in a morsel, keys spread over
        // every seam, and 50 occurrences of each key
        for (distinct, n) in [(3u64, 40usize), (13, 500), (40, 2_000)] {
            let input: Vec<Row> = (0..n)
                .map(|pos| {
                    let key = (pos as u64).wrapping_mul(0x9E37_79B9) % distinct;
                    (Occurrence { key, pos }, vec![pos])
                })
                .collect();
            // the sequential fold, by hand: first kept occurrence, then
            // every later kept one appended
            let mut reference: Vec<Row> = Vec::new();
            for (t, k) in input.iter().filter(|(_, k)| keep(k)) {
                match reference.iter_mut().find(|(r, _)| r.key == t.key) {
                    Some((_, acc)) => append(acc, k),
                    None => reference.push((*t, k.clone())),
                }
            }
            reference.sort_by_key(|(t, _)| t.key);
            let survivors = |rows: &[Row]| -> Vec<(u64, usize, Vec<usize>)> {
                rows.iter().map(|(t, k)| (t.key, t.pos, k.clone())).collect()
            };
            for w in [1usize, 2, 4, 7] {
                for exec in [forced(w, 1), forced(w, 5)] {
                    let plain = exec.sort_merge(input.clone(), keep, append).unwrap();
                    assert_eq!(survivors(&plain), survivors(&reference), "w = {w}, n = {n}");
                    let keyed = exec.sort_merge_by_key(input.clone(), keep, append, keys).unwrap();
                    assert_eq!(survivors(&keyed), survivors(&reference), "keyed w = {w}, n = {n}");
                }
            }
        }
    }

    /// A panic in `combine` is contained as a structured error and the
    /// executor keeps working — on both the inline and parallel paths.
    #[test]
    fn combine_panic_is_contained() {
        let bomb = |_acc: &mut u64, _k: &u64| panic!("combine bomb");
        for exec in [Executor::sequential(), forced(4, 3)] {
            let err = exec.sort_merge(rows(500), |_| true, bomb).unwrap_err();
            assert!(matches!(err, ExecError::WorkerPanic { .. }), "got: {err:?}");
            // reusable afterwards
            assert_eq!(merged(&exec, 500), merged(&Executor::sequential(), 500));
        }
    }

    /// The whole input is charged up front: a budget smaller than the
    /// row list trips before any key is written.
    #[test]
    fn input_charge_trips_budget() {
        use audb_core::{Budget, BudgetSpec};
        let exec = Executor::new(4).with_budget(Budget::new(BudgetSpec::rows(100)));
        let err = exec.sort_merge(rows(500), |_| true, |acc, k| *acc += k).unwrap_err();
        assert!(
            matches!(err, ExecError::BudgetExceeded { operator: "sharded-reduce", .. }),
            "got: {err:?}"
        );
    }
}
