//! Join planning: classify the join predicate and route execution to an
//! index-backed physical strategy (Section 10.4's observation that
//! AU-joins are fast exactly when the representation admits standard
//! index structures).
//!
//! Predicate classes and the strategy each one fires:
//!
//! * **conjunctive equality** `⋀ Col(l) = Col(r)` → [`JoinStrategy::HashEqui`]:
//!   hash join on canonical selected-guess keys for rows whose key
//!   attributes are certain, plus interval plane sweeps
//!   ([`IntervalIndex::sweep_overlapping`]) that band-filter the
//!   (typically small) uncertain-key row sets against the other side;
//! * **single order comparison** `Col θ Col` with `θ ∈ {<, ≤, >, ≥}` →
//!   [`JoinStrategy::IntervalComparison`]: sorted-endpoint sweep
//!   ([`IntervalIndex::sweep_lb_below_ub`]) enumerating exactly the
//!   pairs whose ranges may satisfy the comparison;
//! * anything else → [`JoinStrategy::NestedLoop`], the formal-semantics
//!   fallback ([`nested_loop_join_au_exec`]).
//!
//! Candidate sets are supersets of the possibly-satisfying pairs; every
//! candidate is re-checked with the precise range-annotated predicate
//! semantics, so each strategy produces (after normalization) exactly
//! the nested-loop result — see `tests/join_equivalence.rs`.
//!
//! ### Parallel execution
//!
//! The probe and candidate-evaluation loops of both accelerated
//! strategies run on the [`Executor`] runtime: the certain-key probe
//! side and the sweep candidate lists are partitioned into morsels,
//! evaluated on the scoped pool, and merged in morsel order — so the
//! output row list is byte-identical to the sequential one for every
//! worker count (`tests/exec_equivalence.rs` pins this down). Index
//! construction and the sweeps themselves stay sequential: they are
//! `O(n log n)` and cheap relative to candidate evaluation.
//!
//! ### The deterministic join
//!
//! [`join_det_planned_exec`] builds nothing of its own: its index or
//! sweep is `det::DetProbe`, the det engine's one join build side, which
//! its fused chains probe too. It runs the left rows (hash join, nested
//! loop) or the sweep's pairs in emission order (comparison join) on the
//! executor, governed like the AU joins: every `GOVERN_ROWS` output
//! rows are charged to `join-probe`.

use audb_core::{AuAnnot, EvalError, Expr, LaneSlice, Semiring};
use audb_exec::Executor;
use audb_storage::{au_sg_key, AuRelation, HashKeyIndex, IntervalIndex, RangeTuple, Relation};

use crate::au::nested_loop_join_au_exec;
use crate::au::pipeline::{checkpoint, AuRow, GOVERN_ROWS};
use crate::det::{run_governed, DetProbe, DetRow};

/// Which input relation a predicate column belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// The physical strategy chosen for a join predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Conjunctive equality on the given (left, right) column pairs.
    HashEqui(Vec<(usize, usize)>),
    /// A single order comparison; the predicate may hold only when the
    /// lower endpoint of `lo`'s column is ≤ the upper endpoint of
    /// `hi`'s column. Columns are local to their side.
    IntervalComparison { lo: (Side, usize), hi: (Side, usize) },
    /// Cross products and every predicate shape the indexes cannot
    /// accelerate.
    NestedLoop,
}

impl JoinStrategy {
    /// Stable strategy name, as reported in query traces.
    pub fn name(&self) -> &'static str {
        match self {
            JoinStrategy::HashEqui(_) => "hash-equi",
            JoinStrategy::IntervalComparison { .. } => "interval-comparison",
            JoinStrategy::NestedLoop => "nested-loop",
        }
    }
}

/// Classify a join predicate over the concatenated schema split at
/// `split` (the left arity).
pub fn classify(predicate: Option<&Expr>, split: usize) -> JoinStrategy {
    let Some(p) = predicate else {
        return JoinStrategy::NestedLoop;
    };
    if let Some(pairs) = p.equi_join_columns(split) {
        if !pairs.is_empty() {
            return JoinStrategy::HashEqui(pairs);
        }
    }
    // single comparison: normalize `a θ b` to "lo.lb ≤~ hi.ub possible"
    let comparison = match p {
        Expr::Leq(a, b) | Expr::Lt(a, b) => Some((a, b)),
        Expr::Geq(a, b) | Expr::Gt(a, b) => Some((b, a)),
        _ => None,
    };
    if let Some((lo, hi)) = comparison {
        if let (Expr::Col(x), Expr::Col(y)) = (lo.as_ref(), hi.as_ref()) {
            match (*x < split, *y < split) {
                (true, false) => {
                    return JoinStrategy::IntervalComparison {
                        lo: (Side::Left, *x),
                        hi: (Side::Right, *y - split),
                    }
                }
                (false, true) => {
                    return JoinStrategy::IntervalComparison {
                        lo: (Side::Right, *x - split),
                        hi: (Side::Left, *y),
                    }
                }
                _ => {}
            }
        }
    }
    JoinStrategy::NestedLoop
}

/// [`classify`] for a join of a `left`-column and a `right`-column
/// relation — what every engine's join asks. A key past the right side
/// is no key: such a predicate classifies as
/// [`JoinStrategy::NestedLoop`], whose re-check reports the unknown
/// column at the first pair (and an empty side joins to nothing).
pub fn classify_within(predicate: Option<&Expr>, left: usize, right: usize) -> JoinStrategy {
    let strategy = classify(predicate, left);
    let keys_fit = match &strategy {
        JoinStrategy::HashEqui(pairs) => pairs.iter().all(|&(_, r)| r < right),
        JoinStrategy::IntervalComparison { lo, hi } => {
            [lo, hi].iter().all(|&&(side, c)| side == Side::Left || c < right)
        }
        JoinStrategy::NestedLoop => true,
    };
    if keys_fit {
        strategy
    } else {
        JoinStrategy::NestedLoop
    }
}

/// Theta-join over AU-relations through the planner, on the default
/// executor (all available workers). Produces the same rows as
/// [`nested_loop_join_au`] (up to order / normalization).
pub fn join_au_planned(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
) -> Result<AuRelation, EvalError> {
    join_au_planned_exec(l, r, predicate, &Executor::default())
}

/// Theta-join over AU-relations through the planner on an explicit
/// executor. `Executor::sequential()` reproduces the single-threaded
/// behavior exactly; any worker count produces a byte-identical result.
pub fn join_au_planned_exec(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    #[allow(clippy::expect_used)] // classify returns keyed strategies only for Some(predicate)
    match classify_within(predicate, l.schema.arity(), r.schema.arity()) {
        JoinStrategy::HashEqui(pairs) => {
            hash_equi_join_au(l, r, predicate.expect("equi plan implies predicate"), &pairs, exec)
        }
        JoinStrategy::IntervalComparison { lo, hi } => comparison_join_au(
            l,
            r,
            predicate.expect("comparison plan implies predicate"),
            lo,
            hi,
            exec,
        ),
        JoinStrategy::NestedLoop => nested_loop_join_au_exec(l, r, predicate, exec),
    }
}

/// Row ids whose key attributes are all certain / not all certain.
pub(crate) fn partition_by_key_certainty(
    rows: &[(RangeTuple, AuAnnot)],
    cols: &[usize],
) -> (Vec<u32>, Vec<u32>) {
    let mut certain = Vec::with_capacity(rows.len());
    let mut uncertain = Vec::new();
    for (i, (t, _)) in rows.iter().enumerate() {
        if cols.iter().all(|c| t.0[*c].is_certain()) {
            certain.push(i as u32);
        } else {
            uncertain.push(i as u32);
        }
    }
    (certain, uncertain)
}

/// [`partition_by_key_certainty`] read off the key *lanes* (one per key
/// column, `nrows` rows each): component compares on typed lanes, no
/// row-tuple walk. Same two id lists.
pub(crate) fn partition_lanes_by_key_certainty(
    keys: &[LaneSlice<'_>],
    nrows: usize,
) -> (Vec<u32>, Vec<u32>) {
    (0..nrows as u32).partition(|&i| keys.iter().all(|l| l.is_certain(i as usize)))
}

/// Flat CSR of candidate `(left_row, right_row)` pairs by left row:
/// `entries[offsets[l]..offsets[l + 1]]` are row `l`'s candidates as
/// `(right_row, rank)` in the order the pairs list them, `rank` being the
/// pair's position in `pairs` (one stable counting pass) — what a
/// `Vec<Vec<_>>` of per-row pushes would hold, without the vectors.
pub(crate) fn csr_by_left(nleft: usize, pairs: &[(u32, u32)]) -> (Vec<usize>, Vec<(u32, u32)>) {
    let mut offsets = vec![0usize; nleft + 1];
    pairs.iter().for_each(|&(l, _)| offsets[l as usize + 1] += 1);
    (0..nleft).for_each(|l| offsets[l + 1] += offsets[l]);
    let (mut entries, mut next) = (vec![(0u32, 0u32); pairs.len()], offsets.clone());
    for (rank, &(l, r)) in pairs.iter().enumerate() {
        entries[next[l as usize]] = (r, rank as u32);
        next[l as usize] += 1;
    }
    (offsets, entries)
}

/// Multiply annotations with the precise range-annotated predicate
/// result and append the joined row; short-circuits to `⊗` alone when
/// the key attributes are structurally equal and certain (predicate
/// triple is then (T, T, T) by construction).
fn emit_equi_pair(
    out: &mut Vec<(RangeTuple, AuAnnot)>,
    l: &(RangeTuple, AuAnnot),
    r: &(RangeTuple, AuAnnot),
    predicate: &Expr,
    pairs: &[(usize, usize)],
) -> Result<(), EvalError> {
    let (tl, kl) = l;
    let (tr, kr) = r;
    let fast = pairs.iter().all(|(a, b)| {
        let (x, y) = (&tl.0[*a], &tr.0[*b]);
        x.is_certain() && x == y
    });
    let t = tl.concat(tr);
    let mut k = kl.times(kr);
    if !fast {
        let (plb, psg, pub_) = predicate.eval_range_bool3(t.values())?;
        if !pub_ {
            return Ok(());
        }
        k = k.times(&AuAnnot::from_bool3(plb, psg, pub_));
    }
    out.push((t, k));
    Ok(())
}

fn hash_equi_join_au(
    l: &AuRelation,
    r: &AuRelation,
    predicate: &Expr,
    pairs: &[(usize, usize)],
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let mut out = AuRelation::empty(l.schema.concat(&r.schema));
    let lcols: Vec<usize> = pairs.iter().map(|(a, _)| *a).collect();
    let rcols: Vec<usize> = pairs.iter().map(|(_, b)| *b).collect();
    let (lc, lu) = partition_by_key_certainty(l.rows(), &lcols);
    let (rc, ru) = partition_by_key_certainty(r.rows(), &rcols);

    // certain × certain: hash join on canonical SG keys; the probe side
    // is partitioned into morsels and probed in parallel against the
    // shared (read-only) bucket index
    if !lc.is_empty() && !rc.is_empty() {
        let rkey = |ri| au_sg_key(r.rows(), &rcols, ri);
        let index = HashKeyIndex::build(rc.iter().copied(), rkey);
        let rows = exec.run(lc.len(), |morsel, rows: &mut Vec<AuRow>| {
            let mut watermark = rows.len();
            for &li in &lc[morsel] {
                checkpoint::<AuRow>(exec, "join-probe", rows.len(), &mut watermark, GOVERN_ROWS)?;
                let row_l = &l.rows()[li as usize];
                for ri in index.matches(au_sg_key(l.rows(), &lcols, li), rkey) {
                    emit_equi_pair(rows, row_l, &r.rows()[ri as usize], predicate, pairs)?;
                }
            }
            checkpoint::<AuRow>(exec, "join-probe", rows.len(), &mut watermark, 0)?;
            Ok::<(), EvalError>(())
        })?;
        out.append_rows(rows);
    }

    // band filtering for uncertain-key rows: plane sweeps on the first
    // pair's interval indexes cover (uncertain × all) and
    // (certain × uncertain) without double counting; the candidate
    // blocks are then evaluated in parallel
    let (c0l, c0r) = pairs[0];
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    if !lu.is_empty() {
        let li = IntervalIndex::from_au_subset(l.rows(), c0l, &lu);
        let ri = IntervalIndex::from_au(r.rows(), c0r);
        IntervalIndex::sweep_overlapping(&li, &ri, |a, b| candidates.push((a, b)));
    }
    if !ru.is_empty() && !lc.is_empty() {
        let li = IntervalIndex::from_au_subset(l.rows(), c0l, &lc);
        let ri = IntervalIndex::from_au_subset(r.rows(), c0r, &ru);
        IntervalIndex::sweep_overlapping(&li, &ri, |a, b| candidates.push((a, b)));
    }
    let rows = exec.run(candidates.len(), |morsel, rows: &mut Vec<AuRow>| {
        let mut watermark = rows.len();
        for &(a, b) in &candidates[morsel] {
            checkpoint::<AuRow>(exec, "join-probe", rows.len(), &mut watermark, GOVERN_ROWS)?;
            emit_equi_pair(rows, &l.rows()[a as usize], &r.rows()[b as usize], predicate, pairs)?;
        }
        checkpoint::<AuRow>(exec, "join-probe", rows.len(), &mut watermark, 0)?;
        Ok::<(), EvalError>(())
    })?;
    out.append_rows(rows);
    Ok(out)
}

/// Candidate `(left_row, right_row)` pairs of an interval-comparison
/// plan: one `sweep_lb_below_ub` pass, oriented by which side provides
/// the lower-endpoint column. Shared by the AU and deterministic join
/// paths so their sweep semantics cannot drift apart; `index_left`/
/// `index_right` build the interval index for a column of the
/// respective input.
pub(crate) fn comparison_candidates(
    lo: (Side, usize),
    hi: (Side, usize),
    index_left: impl Fn(usize) -> IntervalIndex,
    index_right: impl Fn(usize) -> IntervalIndex,
) -> Vec<(u32, u32)> {
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    match (lo.0, hi.0) {
        (Side::Left, Side::Right) => {
            let li = index_left(lo.1);
            let ri = index_right(hi.1);
            IntervalIndex::sweep_lb_below_ub(&li, &ri, |a, b| candidates.push((a, b)));
        }
        (Side::Right, Side::Left) => {
            let loi = index_right(lo.1);
            let hii = index_left(hi.1);
            IntervalIndex::sweep_lb_below_ub(&loi, &hii, |a, b| candidates.push((b, a)));
        }
        // `classify` only emits cross-side comparisons
        _ => unreachable!("comparison plan with both columns on one side"),
    }
    candidates
}

fn comparison_join_au(
    l: &AuRelation,
    r: &AuRelation,
    predicate: &Expr,
    lo: (Side, usize),
    hi: (Side, usize),
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let mut out = AuRelation::empty(l.schema.concat(&r.schema));
    let candidates = comparison_candidates(
        lo,
        hi,
        |c| IntervalIndex::from_au(l.rows(), c),
        |c| IntervalIndex::from_au(r.rows(), c),
    );
    let rows = exec.run(candidates.len(), |morsel, rows: &mut Vec<AuRow>| {
        let mut watermark = rows.len();
        for &(a, b) in &candidates[morsel] {
            checkpoint::<AuRow>(exec, "join-probe", rows.len(), &mut watermark, GOVERN_ROWS)?;
            let (tl, kl) = &l.rows()[a as usize];
            let (tr, kr) = &r.rows()[b as usize];
            let t = tl.concat(tr);
            let (plb, psg, pub_) = predicate.eval_range_bool3(t.values())?;
            if !pub_ {
                continue;
            }
            let k = kl.times(kr).times(&AuAnnot::from_bool3(plb, psg, pub_));
            rows.push((t, k));
        }
        checkpoint::<AuRow>(exec, "join-probe", rows.len(), &mut watermark, 0)?;
        Ok::<(), EvalError>(())
    })?;
    out.append_rows(rows);
    Ok(out)
}

/// Theta-join over deterministic relations through the planner on an
/// explicit executor: the operator of the det oracle and of every join
/// the det engine does not fuse. Its build side is the fused chain's
/// (`det::DetProbe`), its re-check the interpreted predicate. A hash or
/// nested-loop join runs over the left rows, a comparison join over the
/// sweep's pairs in emission order (γ's float folds read that order).
pub fn join_det_planned_exec(
    l: &Relation,
    r: &Relation,
    predicate: Option<&Expr>,
    exec: &Executor,
) -> Result<Relation, EvalError> {
    let probe = DetProbe::build(l, r, predicate);
    let (recheck, pairs) = (probe.recheck(), probe.pairs());
    let emit = |rows: &mut Vec<DetRow>, (tl, kl): &DetRow, (tr, kr): &DetRow| {
        let t = tl.concat(tr);
        if recheck.map_or(Ok(true), |p| p.eval_bool(t.values()))? {
            rows.push((t, kl.times(kr)));
        }
        Ok::<(), EvalError>(())
    };
    let n = pairs.map_or(l.len(), <[_]>::len);
    let rows = run_governed(
        exec,
        "join-probe",
        n,
        || (),
        |_, i, rows| match pairs {
            Some(pairs) => {
                emit(rows, &l.rows()[pairs[i].0 as usize], &r.rows()[pairs[i].1 as usize])
            }
            None => {
                probe.for_each(i, l.rows()[i].0.values(), |row_r| emit(rows, &l.rows()[i], row_r))
            }
        },
    )?;
    let mut out = Relation::empty(l.schema.concat(&r.schema));
    out.append_rows(rows);
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use audb_core::{col, lit};

    #[test]
    fn classification_covers_the_three_classes() {
        let equi = col(0).eq(col(2)).and(col(1).eq(col(3)));
        assert_eq!(classify(Some(&equi), 2), JoinStrategy::HashEqui(vec![(0, 0), (1, 1)]));

        let cmp = col(0).leq(col(2));
        assert_eq!(
            classify(Some(&cmp), 2),
            JoinStrategy::IntervalComparison { lo: (Side::Left, 0), hi: (Side::Right, 0) }
        );
        // flipped operand order and direction
        let cmp = col(3).gt(col(1));
        assert_eq!(
            classify(Some(&cmp), 2),
            JoinStrategy::IntervalComparison { lo: (Side::Left, 1), hi: (Side::Right, 1) }
        );
        let cmp = col(0).geq(col(2));
        assert_eq!(
            classify(Some(&cmp), 2),
            JoinStrategy::IntervalComparison { lo: (Side::Right, 0), hi: (Side::Left, 0) }
        );

        assert_eq!(classify(None, 2), JoinStrategy::NestedLoop);
        let theta = col(0).leq(col(2)).and(col(1).leq(col(3)));
        assert_eq!(classify(Some(&theta), 2), JoinStrategy::NestedLoop);
        let local = col(0).lt(col(1));
        assert_eq!(classify(Some(&local), 2), JoinStrategy::NestedLoop);
        let vs_lit = col(0).eq(lit(3i64));
        assert_eq!(classify(Some(&vs_lit), 2), JoinStrategy::NestedLoop);
    }
}
