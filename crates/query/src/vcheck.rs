//! Vetted chain compilation: the query-side gate in front of
//! [`Program`] lowering.
//!
//! Tier A of the static verifier ([`audb_core::verify`]) runs
//! unconditionally inside `Program` construction — a freshly lowered
//! program that fails it is a lowerer bug and panics there. This module
//! adds the *Tier B* gate at the AU engine's compile sites — the planner
//! ([`crate::au::AuPlan::new`]: once per plan, however often the plan
//! runs), γ's aggregate-input programs and the compressing join's
//! re-check — unconditionally: each
//! freshly compiled stage is abstractly interpreted before it is
//! accepted, and a rejection keeps the suspect program from executing:
//! the whole chain runs on the operator-at-a-time oracle instead (the
//! per-chain analog of the whole-query lanes→oracle degradation retry).
//! The deterministic engine ([`crate::det`]) compiles nothing, so it has
//! nothing to gate.
//! A plan that is kept and run again re-checks Tier A over its own
//! stages ([`crate::au::AuPlan::run`]); nothing is compiled, keyed or
//! cloned on that path.
//!
//! Rejections are observable: the [`Counter::VerifyRejects`] metric,
//! a [`ExecEventKind::VerifierRejected`] event carrying the diagnostic,
//! and (on traced compiles) a `verify` span with tier / op-count /
//! verdict attributes.
//!
//! A freshly lowered program can only fail Tier B if the verifier
//! itself is wrong — the property tests pin zero diagnostics across
//! random programs. To exercise the rejection path end-to-end anyway,
//! [`with_tampered_programs`] installs a thread-local corruption hook
//! between lowering and vetting (compilation happens on the planning
//! thread, before any worker fan-out, so a thread-local seam sees every
//! program of the query) — the one thread-local of this crate.

use std::cell::RefCell;

use audb_core::obs::{Counter, ExecEvent, ExecEventKind, Metrics, TraceBuilder};
use audb_core::{Expr, Program};

/// The installed corruption hook of [`with_tampered_programs`].
type TamperHook = Box<dyn FnMut(Program) -> Program>;

thread_local! {
    static TAMPER: RefCell<Option<TamperHook>> = const { RefCell::new(None) };
}

/// Run `f` with every program compiled on this thread passed through
/// `tamper` before vetting. A test seam for the verifier-rejection
/// degradation path — not part of the public API surface.
///
/// The hook is removed when `f` returns (or panics), and nests shallow:
/// installing a second hook inside `f` replaces the first for its scope.
#[doc(hidden)]
pub fn with_tampered_programs<R>(
    tamper: impl FnMut(Program) -> Program + 'static,
    f: impl FnOnce() -> R,
) -> R {
    struct Reset(Option<TamperHook>);
    impl Drop for Reset {
        fn drop(&mut self) {
            TAMPER.with(|t| *t.borrow_mut() = self.0.take());
        }
    }
    let prev = TAMPER.with(|t| t.borrow_mut().replace(Box::new(tamper)));
    let _reset = Reset(prev);
    f()
}

fn tamper(p: Program) -> Program {
    TAMPER.with(|t| match t.borrow_mut().as_mut() {
        Some(f) => f(p),
        None => p,
    })
}

/// The compile-site context a planner threads to every stage it lowers:
/// where verdicts and rejections are recorded.
#[derive(Clone, Copy)]
pub(crate) struct Vet<'a> {
    metrics: &'a Metrics,
    tr: &'a TraceBuilder,
}

impl<'a> Vet<'a> {
    pub(crate) fn new(metrics: &'a Metrics, tr: &'a TraceBuilder) -> Vet<'a> {
        Vet { metrics, tr }
    }

    /// `render()` when the compile site is traced, else nothing: what a
    /// plan keeps of a span's detail, so an untraced planning call never
    /// formats a query.
    pub(crate) fn detail(&self, render: impl FnOnce() -> String) -> String {
        self.tr.is_enabled().then(render).unwrap_or_default()
    }

    /// Compile one range predicate, vetted. `None` means "do not run a
    /// program here": Tier B rejected it.
    pub(crate) fn range(&self, e: &Expr) -> Option<Program> {
        self.vet(Program::compile_range(e))
    }

    /// Compile a range projection list, vetted.
    pub(crate) fn range_many(&self, es: &[Expr]) -> Option<Program> {
        self.vet(Program::compile_range_many(es))
    }

    fn vet(&self, lowered: Program) -> Option<Program> {
        let p = tamper(lowered);
        let h = self.tr.open("verify", || "range".to_string());
        self.tr.attr(h, "tier", || "A+B".to_string());
        self.tr.attr(h, "ops", || p.op_count().to_string());
        // A tampered program may no longer satisfy Tier A either —
        // `verify_full` re-checks structure before abstract
        // interpretation, so both tiers guard this gate.
        match p.verify_full() {
            Ok(lints) => {
                self.tr.attr(h, "lints", || lints.len().to_string());
                self.tr.attr(h, "verdict", || "accepted".to_string());
                self.tr.close(h, None, None);
                Some(p)
            }
            Err(e) => {
                self.tr.attr(h, "verdict", || "rejected".to_string());
                self.tr.attr(h, "error", || e.to_string());
                self.tr.close(h, None, None);
                self.metrics.add(Counter::VerifyRejects, 1);
                self.metrics.record_event(ExecEvent {
                    kind: ExecEventKind::VerifierRejected,
                    driver: None,
                    morsel: None,
                    detail: e.to_string(),
                });
                None
            }
        }
    }
}
