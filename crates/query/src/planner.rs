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
//! ### One build side per engine
//!
//! The join operators build nothing of their own. An AU join's build
//! side is the fused chain's `ProbeOp` (classification, key-certainty
//! partition, hash index and sweeps, all read off column lanes), a det
//! join's is `det::DetProbe`; [`join_au_planned_exec`] and
//! [`join_det_planned_exec`] walk what it built and re-check each pair
//! with the interpreted predicate where the fused chain runs the
//! compiled one.
//!
//! ### Parallel execution
//!
//! Both operators run one governed loop on the [`Executor`] runtime:
//! the left rows (hash join, det nested loop) and the sweep pairs in
//! emission order are partitioned into morsels, evaluated on the scoped
//! pool, and merged in morsel order — so the output row list is
//! byte-identical to the sequential one for every worker count
//! (`tests/exec_equivalence.rs` pins this down). Every `GOVERN_ROWS`
//! emitted rows, inside one left row's matches too, are charged to
//! `join-probe`. Index construction and the sweeps themselves stay
//! sequential: they are `O(n log n)` and cheap relative to candidate
//! evaluation.

use audb_core::{AuAnnot, EvalError, Expr, Semiring};
use audb_exec::Executor;
use audb_storage::{AuRelation, IntervalIndex, Relation};

use crate::au::pipeline::{run_governed, AuRow, Governed, ProbeOp};
use crate::au::{lanes_of, nested_loop_join_au_exec};
use crate::det::{DetProbe, DetRow};

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

/// Theta-join over AU-relations through the planner on an explicit
/// executor: the operator of the AU oracle and of Section 10.4's literal
/// split/compress join. Its build side is the fused chain's
/// ([`ProbeOp`]), its re-check the interpreted predicate on every pair. A
/// hash join walks the certain-key left rows in row order, each through
/// its bucket, then the sweep pairs in emission order (γ's float folds
/// read that list); a comparison join walks its sweep pairs; anything
/// else is [`nested_loop_join_au_exec`]. Any worker count produces a
/// byte-identical result.
pub fn join_au_planned_exec(
    l: &AuRelation,
    r: &AuRelation,
    predicate: Option<&Expr>,
    exec: &Executor,
) -> Result<AuRelation, EvalError> {
    let lcs = lanes_of(l, exec);
    let probe = ProbeOp::build(&lcs, lanes_of(r, exec), predicate);
    let Some(pairs) = probe.pairs() else {
        return nested_loop_join_au_exec(l, r, predicate, exec);
    };
    let buckets = probe.buckets(&lcs);
    let hashed = buckets.as_ref().map_or(0, |_| l.len());
    let (lrows, rrows) = (l.rows(), r.rows());
    let emit = |out: &mut Governed<'_, AuRow>, li: u32, ri: u32| {
        let ((tl, kl), (tr, kr)) = (&lrows[li as usize], &rrows[ri as usize]);
        let t = tl.concat(tr);
        let (lb, sg, ub) =
            predicate.map_or(Ok((true, true, true)), |p| p.eval_range_bool3(t.values()))?;
        if ub {
            out.push((t, kl.times(kr).times(&AuAnnot::from_bool3(lb, sg, ub))))?;
        }
        Ok::<(), EvalError>(())
    };
    let rows = run_governed(
        exec,
        "join-probe",
        hashed + pairs.len(),
        || (),
        |_, i, out| match i.checked_sub(hashed) {
            Some(p) => emit(out, pairs[p].0, pairs[p].1),
            None => {
                let hits = buckets.as_ref().and_then(|b| b.of(i as u32));
                hits.into_iter().flatten().try_for_each(|ri| emit(out, i as u32, ri))
            }
        },
    )?;
    let mut out = AuRelation::empty(l.schema.concat(&r.schema));
    out.append_rows(rows);
    Ok(out)
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

/// Theta-join over deterministic relations through the planner on an
/// explicit executor: every join the det engine does not fuse into a
/// chain as its probe. Its build side is the chain's (`det::DetProbe`),
/// its re-check the interpreted predicate. A hash or
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
    let emit = |rows: &mut Governed<'_, DetRow>, (tl, kl): &DetRow, (tr, kr): &DetRow| {
        let t = tl.concat(tr);
        if recheck.map_or(Ok(true), |p| p.eval_bool(t.values()))? {
            rows.push((t, kl.times(kr)))?;
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
