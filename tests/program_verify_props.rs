//! Property suite for the static program verifier
//! (`audb_core::verify`) and its query-side gate
//! (`audb_query::vcheck`):
//!
//! * **no false positives** — every program lowered from a random mixed
//!   Int/Float expression tree, in both lowering modes, passes Tier A +
//!   Tier B with zero `VerifyError`s; programs whose leaves are all
//!   columns additionally produce zero lints (constant-free trees give
//!   the abstract interpreter nothing to decide statically);
//! * **pinned output** — every `verify_full` outcome over 6 000 seeded
//!   trees × both modes (lints as `kind@op:node`, or the error) folds
//!   into one FNV-1a digest, so a Tier B refactor that moves one lint,
//!   op index or verdict fails;
//! * **mutation detection** — every single-op corruption of those
//!   programs is caught by Tier A/B, surfaces a new lint, or is
//!   behavior-preserving under the differential oracle (never
//!   `Missed`);
//! * **graceful rejection** — a corrupted program injected at the chain
//!   compile sites (via the `with_tampered_programs` test seam) is
//!   rejected by the verifier and its whole chain degrades to the
//!   operator-at-a-time oracle with the oracle's exact outcome,
//!   recording the `verify_rejects` counter, a `verifier_rejected`
//!   event and `fallback = "verifier-rejected"` on the chain's span; γ's
//!   aggregate-input program, rejected, runs interpreted per row.

mod common;

use proptest::prelude::*;

use audb::core::program::Program;
use audb::core::verify::mutate;
use audb::prelude::*;
use audb::query::{table, with_tampered_programs};
use common::{eval_oracle, mixed_relation_strategy, num_expr_strategy, pred_over, recurse_numeric};

/// The col-only-leaf variant: no literals anywhere, so Tier B's
/// abstract interpreter can never decide a condition or divisor
/// statically and the zero-lint property must hold.
fn col_expr_strategy() -> BoxedStrategy<Expr> {
    let leaf = (0usize..2).prop_map(col).boxed();
    recurse_numeric(leaf)
}

fn both_modes(e: &Expr) -> [Program; 2] {
    [Program::compile_range(e), Program::compile_det(e)]
}

// ---------------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// No false positives: Tier A + Tier B accept every program the
    /// lowerer produces from random mixed trees, in both modes (numeric
    /// trees and composed predicates alike). Lints are allowed here —
    /// random literals legitimately produce statically-certain
    /// conditions and divisors.
    #[test]
    fn random_programs_verify_without_errors(
        e in num_expr_strategy(),
        p in pred_over(num_expr_strategy()),
    ) {
        for expr in [&e, &p] {
            for prog in both_modes(expr) {
                let res = prog.verify_full();
                prop_assert!(res.is_ok(), "verifier rejected {}: {:?}", expr, res.err());
            }
        }
        // multi-output projection lowering verifies too
        let many = Program::compile_range_many(&[e.clone(), p.clone()]);
        prop_assert!(many.verify_full().is_ok(), "multi-output rejected for ({}, {})", e, p);
    }

    /// Zero diagnostics on constant-free trees: with every leaf a
    /// column, the abstract interpreter can never prove a condition
    /// constant or an error certain, so Tier B must stay silent.
    #[test]
    fn col_leaf_programs_verify_with_zero_diagnostics(
        e in col_expr_strategy(),
        p in pred_over(col_expr_strategy()),
    ) {
        for expr in [&e, &p] {
            for prog in both_modes(expr) {
                match prog.verify_full() {
                    Ok(lints) => prop_assert!(
                        lints.is_empty(),
                        "false-positive lints for {}: {:?}", expr, lints
                    ),
                    Err(err) => return Err(TestCaseError::fail(format!(
                        "verifier rejected {expr}: {err}"
                    ))),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Mutation harness on random programs: every corruption class is
    /// either caught (Tier A, Tier B, or a fresh lint) or provably
    /// behavior-preserving on the oracle corpus — never missed.
    #[test]
    fn random_program_mutants_detected_or_equivalent(
        e in num_expr_strategy(),
        p in pred_over(num_expr_strategy()),
    ) {
        let (range_rows, det_rows) = mutate::oracle_rows(2);
        for expr in [&e, &p] {
            for prog in both_modes(expr) {
                for m in mutate::mutants(&prog) {
                    let v = mutate::classify(&prog, &m.program, &range_rows, &det_rows);
                    prop_assert!(
                        v != mutate::Verdict::Missed,
                        "missed {} ({}) on {}", m.class, m.detail, expr
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Verifier-rejection degradation: corrupt every rejectable chain
    /// program at the compile sites — the chain runs on the oracle, so
    /// the query must produce exactly the oracle's outcome.
    #[test]
    fn rejected_programs_degrade_byte_identically(
        rel in mixed_relation_strategy(12),
        pred in pred_over(num_expr_strategy()),
        proj in num_expr_strategy(),
    ) {
        let mut db = AuDatabase::new();
        db.insert("t", rel);
        let q = table("t")
            .select(pred)
            .project(vec![(proj, "p"), (col(0), "a")]);
        let oracle = eval_oracle(&db, &q, &AuConfig::default());
        // one attempt, no retry: the rejection alone must route the
        // chain to the oracle — a corrupt program that *ran* and
        // faulted would otherwise be answered by the degradation retry
        let base = AuConfig::default();
        let tampered = with_tampered_programs(corrupt_if_possible, || {
            common::eval_lanes(&db, &q, &base, &base.executor())
        });
        prop_assert_eq!(&tampered, &oracle);
    }
}

/// Replace a program with its first verifier-rejectable mutant, if one
/// exists (otherwise pass it through unchanged — nothing to reject).
fn corrupt_if_possible(p: Program) -> Program {
    mutate::mutants(&p)
        .into_iter()
        .map(|m| m.program)
        .find(|m| m.verify_full().is_err())
        .unwrap_or(p)
}

fn two_row_db() -> AuDatabase {
    let mut db = AuDatabase::new();
    db.insert(
        "t",
        AuRelation::from_rows(
            Schema::named(&["A", "B"]),
            vec![
                (
                    RangeTuple::new(vec![
                        RangeValue::range(1i64, 2i64, 3i64),
                        RangeValue::certain(Value::Int(1)),
                    ]),
                    AuAnnot::triple(1, 1, 1),
                ),
                (
                    RangeTuple::new(vec![
                        RangeValue::certain(Value::Int(5)),
                        RangeValue::certain(Value::Int(0)),
                    ]),
                    AuAnnot::triple(1, 2, 2),
                ),
            ],
        ),
    );
    db
}

/// The rejection is observable: the degraded chain ticks the
/// `verify_rejects` counter, logs a `verifier_rejected` event carrying
/// the diagnostic, closes a rejected `verify` span, says
/// `fallback = "verifier-rejected"` — and the result still equals the
/// oracle's.
#[test]
fn rejection_ticks_counter_and_event() {
    let db = two_row_db();
    let q = table("t").select(col(0).leq(col(1))).project(vec![(col(0).add(col(1)), "s")]);
    let oracle = eval_oracle(&db, &q, &AuConfig::default());

    let (result, trace) = with_tampered_programs(corrupt_if_possible, || {
        eval_au_traced_full(&db, &q, &AuConfig::default())
    });
    assert_eq!(result, oracle);
    let rejects = trace.metrics.counter("verify_rejects").unwrap_or(0);
    assert!(rejects >= 1, "expected at least one verifier rejection:\n{}", trace.render_text());
    assert!(
        trace.events.iter().any(|ev| ev.kind.name() == "verifier_rejected"),
        "expected a verifier_rejected event, got {:?}",
        trace.events
    );
    let mut saw_rejected_span = false;
    trace.root.walk(&mut |s| {
        if s.op == "verify" && s.attr("verdict") == Some("rejected") {
            saw_rejected_span = true;
            assert!(s.attr("error").is_some(), "rejected span carries the diagnostic");
        }
    });
    assert!(saw_rejected_span, "expected a rejected verify span in:\n{}", trace.render_text());
    let fused = trace.root.find("fused-chain").expect("fused chain span");
    assert_eq!(fused.attr("fallback"), Some("verifier-rejected"));
}

/// A σ → ⋈ → σ → π chain whose *post-probe* stage is rejected: every
/// stage compiles before any input is evaluated, so the whole chain
/// runs on the oracle and the join's right subtree is evaluated once —
/// not once for a probe that is then thrown away and again for the
/// oracle's join.
#[test]
fn rejected_post_probe_stage_degrades_the_chain_and_builds_once() {
    let mut db = two_row_db();
    db.insert("u", two_row_db().get("t").expect("inserted above").clone());
    let right = table("u").project(vec![(col(0).add(lit(1i64)), "C"), (col(1), "D")]).distinct();
    let q = table("t")
        .select(col(1).geq(lit(0i64)))
        .join_on(right, col(1).leq(col(3)))
        .select(col(0).add(col(2)).geq(lit(0i64)))
        .project(vec![(col(0).add(col(3)), "s")]);
    let oracle = eval_oracle(&db, &q, &AuConfig::default());
    assert!(oracle.as_ref().is_ok_and(|r| !r.is_empty()), "{oracle:?}");

    // Programs reach the hook in compile order: the outer chain's
    // pre-probe σ, re-check predicate, post-probe σ (the third), π.
    let mut seen = 0;
    let reject_third = move |p: Program| {
        seen += 1;
        if seen == 3 {
            corrupt_if_possible(p)
        } else {
            p
        }
    };
    let (result, trace) =
        with_tampered_programs(reject_third, || eval_au_traced_full(&db, &q, &AuConfig::default()));
    assert_eq!(result, oracle);
    assert_eq!(trace.metrics.counter("verify_rejects"), Some(1), "{}", trace.render_text());
    let fused = trace.root.find("fused-chain").expect("fused chain span");
    assert_eq!(fused.attr("fallback"), Some("verifier-rejected"));
    assert_eq!(fused.attr("ops"), None, "a rejected chain never ran on the lanes");
    let (mut distincts, mut joins) = (0, 0);
    trace.root.walk(&mut |s| {
        distincts += usize::from(s.op == "distinct");
        joins += usize::from(s.op == "join");
    });
    assert_eq!(distincts, 1, "right subtree evaluated once:\n{}", trace.render_text());
    assert_eq!(joins, 1, "the oracle's join ran:\n{}", trace.render_text());
}

/// A rejection is a planning-time verdict, and a plan keeps it: built
/// under the tamper hook, the plan holds an oracle node in the chain's
/// place — every run of it says `fallback = "verifier-rejected"` and
/// returns the oracle's relation, compiling nothing — and
/// `verify_rejects` ticked once, when the plan was made. (While a
/// prepared plan was a cache of programs the chain was laid out, and the
/// counter ticked, on every execution.)
#[test]
fn a_rejected_chain_stays_on_the_oracle_for_the_plans_life() {
    let db = two_row_db();
    let q = table("t").select(col(0).leq(col(1))).project(vec![(col(0).add(col(1)), "s")]);
    let oracle = eval_oracle(&db, &q, &AuConfig::default());
    let (base, metrics) = (AuConfig::default(), Metrics::enabled());
    let plan = with_tampered_programs(corrupt_if_possible, || {
        AuPlan::new(&q, &base, &metrics, &TraceBuilder::disabled())
    });
    let exec = base.executor().with_metrics(metrics.clone());
    for run in 0..3 {
        let tr = TraceBuilder::enabled();
        // the hook is gone, and would have nothing to corrupt
        assert_eq!(plan.run(&db, &exec, &tr), oracle, "run {run}");
        let root = tr.finish().expect("an enabled builder has a root span");
        let fused = root.find("fused-chain").expect("the chain keeps its span");
        assert_eq!(fused.attr("fallback"), Some("verifier-rejected"), "run {run}");
        assert!(fused.find("select").is_some(), "the oracle's operators ran: {fused:?}");
        assert!(root.find("verify").is_none(), "run {run} compiled something");
    }
    assert_eq!(metrics.snapshot().counter("verify_rejects"), Some(1));
}

/// γ's aggregate-input program is vetted like a chain stage: corrupted
/// at its compile site, it is rejected (`verify_rejects` ticks, with no
/// chain in the plan to count one) and every term takes the interpreted
/// per-row path — the oracle's relation, exactly.
#[test]
fn aggregate_programs_pass_tier_b() {
    let db = two_row_db();
    let aggs = vec![
        AggSpec::new(AggFunc::Sum, col(0).add(col(1)), "s"),
        AggSpec::new(AggFunc::Max, col(0).mul(lit(2i64)), "m"),
    ];
    let q = table("t").aggregate(vec![1], aggs);
    let base = AuConfig::default();
    let oracle = eval_oracle(&db, &q, &base);
    assert!(oracle.as_ref().is_ok_and(|r| !r.is_empty()), "{oracle:?}");
    let exec = base.executor().with_metrics(Metrics::enabled());
    let tampered =
        with_tampered_programs(corrupt_if_possible, || common::eval_lanes(&db, &q, &base, &exec));
    assert_eq!(tampered, oracle);
    let rejects = exec.metrics().snapshot().counter("verify_rejects");
    assert!(rejects >= Some(1), "γ's program was vetted: {rejects:?}");
}

/// A valid range program whose product has an infinite band —
/// `RangeDiv` of two `If`-joined bands is the full line, times `0` —
/// passes Tier B: the projection runs on the lanes, no chain falls back
/// to the oracle, and the relation is the oracle's.
#[test]
fn infinite_band_product_is_not_rejected() {
    let db = two_row_db();
    let arm = || Expr::if_then_else(col(0).gt(lit(1i64)), lit(1i64), lit(2i64));
    let q = table("t").project(vec![(arm().div(arm()).mul(lit(0i64)), "p")]);
    let oracle = eval_oracle(&db, &q, &AuConfig::default());
    assert!(oracle.is_ok(), "{oracle:?}");
    let (result, trace) = eval_au_traced_full(&db, &q, &AuConfig::default());
    assert_eq!(result, oracle);
    assert_eq!(trace.metrics.counter("verify_rejects"), Some(0), "{}", trace.render_text());
    trace.root.walk(&mut |s| {
        assert_ne!(s.attr("fallback"), Some("verifier-rejected"), "{}", trace.render_text());
    });
}

/// Untampered compiles are observable too: a traced evaluation
/// records accepted `verify` spans (tier and op-count
/// attributes included) and zero rejections.
#[test]
fn accepted_compiles_record_verify_spans() {
    let db = two_row_db();
    let q = table("t").select(col(0).leq(col(1))).project(vec![(col(0).add(col(1)), "s")]);
    let (result, trace) = eval_au_traced_full(&db, &q, &AuConfig::default());
    assert!(result.is_ok(), "evaluation failed: {result:?}");
    assert_eq!(trace.metrics.counter("verify_rejects"), Some(0));
    let mut accepted = 0;
    trace.root.walk(&mut |s| {
        if s.op == "verify" {
            assert_eq!(s.attr("verdict"), Some("accepted"), "span: {s:?}");
            assert_eq!(s.attr("tier"), Some("A+B"));
            assert!(s.attr("ops").is_some());
            assert!(s.attr("lints").is_some());
            accepted += 1;
        }
    });
    assert!(accepted >= 2, "expected verify spans for both chain stages, got {accepted}");
    // verification is not a knob: the engine echo has no such key
    assert!(trace.engine.iter().all(|(k, _)| *k != "verify"));
}

/// The det engine degrades the chain: tampered deterministic chain
/// programs are counted as rejected and the subtree runs on the
/// operator-at-a-time oracle, with equal output.
#[test]
fn det_chain_rejection_degrades_identically() {
    use audb::query::det::{eval_det_exec, eval_det_oracle};

    let mut det_db = Database::new();
    det_db.insert("t", two_row_db().get("t").expect("inserted above").sg_world());
    let q = table("t").select(col(0).leq(col(1))).project(vec![(col(0).add(col(1)), "s")]);
    let oracle = eval_det_oracle(&det_db, &q, &Executor::sequential());
    let exec = Executor::sequential().with_metrics(Metrics::enabled());
    let tampered =
        with_tampered_programs(corrupt_if_possible, || eval_det_exec(&det_db, &q, &exec));
    assert_eq!(tampered, oracle);
    let rejects = exec.metrics().snapshot().counter("verify_rejects");
    assert!(rejects >= Some(1), "rejections counted: {rejects:?}");
}

/// xorshift64: the pin's only random source, so the trees it draws are
/// the same on every toolchain and every proptest version.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A leaf of `num_expr_strategy` — a column, an Int or a quarter-step
/// Float literal — or, one time in seven, a `Bool` literal, which
/// arithmetic certainly rejects.
fn pin_leaf(r: &mut XorShift) -> Expr {
    match r.below(7) {
        0 | 1 => col(r.below(2) as usize),
        2 | 3 => lit(r.below(11) as i64 - 5),
        4 | 5 => lit((r.below(25) as i64 - 12) as f64 / 4.0),
        _ => lit(r.below(2) == 1),
    }
}

/// `recurse_numeric`'s shapes, depth-bounded.
fn pin_num(r: &mut XorShift, depth: u32) -> Expr {
    if depth == 0 || r.below(4) == 0 {
        return pin_leaf(r);
    }
    let d = depth - 1;
    match r.below(7) {
        0 => pin_num(r, d).add(pin_num(r, d)),
        1 => pin_num(r, d).sub(pin_num(r, d)),
        2 => pin_num(r, d).mul(pin_num(r, d)),
        3 => pin_num(r, d).div(pin_num(r, d)),
        4 => pin_num(r, d).neg(),
        5 => {
            let c = pin_num(r, d).leq(pin_num(r, d));
            Expr::if_then_else(c, pin_num(r, d), pin_num(r, d))
        }
        _ => Expr::make_uncertain(pin_num(r, d), pin_num(r, d), pin_num(r, d)),
    }
}

/// `pred_over`'s shapes: a comparison of numeric trees, composed with
/// `And` / `Or` / `Not`.
fn pin_pred(r: &mut XorShift, depth: u32) -> Expr {
    if depth == 0 || r.below(3) == 0 {
        let (a, b) = (pin_num(r, 3), pin_num(r, 3));
        return match r.below(6) {
            0 => a.leq(b),
            1 => a.lt(b),
            2 => a.geq(b),
            3 => a.gt(b),
            4 => a.eq(b),
            _ => a.neq(b),
        };
    }
    match r.below(3) {
        0 => pin_pred(r, depth - 1).and(pin_pred(r, depth - 1)),
        1 => pin_pred(r, depth - 1).or(pin_pred(r, depth - 1)),
        _ => pin_pred(r, depth - 1).not(),
    }
}

/// The abstract interpreter's exact output, pinned: 6 000 seeded trees
/// (numeric trees and predicates, `Bool` literals included) × both
/// lowering modes, every `verify_full` outcome rendered — its lints as
/// `kind@op:node`, or the error — and folded into one FNV-1a digest,
/// with the clean / linted / rejected split. A refactor of Tier B that
/// moves one lint, one op index or one verdict changes the digest.
#[test]
fn tier_b_outcomes_are_pinned() {
    let mut r = XorShift(0x9E37_79B9_7F4A_7C15);
    let (mut digest, mut counts) = (0xcbf2_9ce4_8422_2325u64, [0usize; 3]);
    for k in 0..6000 {
        let e = if k % 2 == 0 { pin_num(&mut r, 4) } else { pin_pred(&mut r, 2) };
        for prog in both_modes(&e) {
            let rendered = match prog.verify_full() {
                Ok(lints) => {
                    counts[usize::from(!lints.is_empty())] += 1;
                    let ls: Vec<String> = lints
                        .iter()
                        .map(|l| format!("{}@{}:{}", l.kind.name(), l.op, l.node))
                        .collect();
                    ls.join(",")
                }
                Err(err) => {
                    counts[2] += 1;
                    format!("error: {err}")
                }
            };
            for b in rendered.bytes().chain([b'\n']) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        (digest, counts),
        (0x008b_78c0_8a09_2f41, [3949, 8051, 0]),
        "(digest, [clean, linted, rejected])"
    );
}
