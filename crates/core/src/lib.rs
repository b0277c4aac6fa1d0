//! # audb-core
//!
//! Core data model for **AU-DBs** (attribute-annotated uncertain
//! databases), reproducing *"Efficient Uncertainty Tracking for Complex
//! Queries with Attribute-level Bounds"* (SIGMOD 2021):
//!
//! * [`value`] — the totally ordered universal value domain `D`;
//! * [`range`] — range-annotated values `[lb/sg/ub]` (`D_I`, Definition 6);
//! * [`expr`] — scalar expressions with deterministic, incomplete and
//!   bound-preserving range-annotated semantics (Section 5, Theorem 1);
//! * [`semiring`] — the annotation-semiring interface and its `N`
//!   instance (Section 3.1);
//! * [`annot`] — tuple annotations `K_UA = K²` and `K_AU ⊂ K³`
//!   (Definitions 2 and 11);
//! * [`hash`] — the per-call-seeded row hash normalization and the join
//!   hash index share;
//! * [`lane`] — columnar value lanes and the typed vector kernels the
//!   compiled backend runs over them;
//! * [`obs`] — query-engine observability: metrics sink, execution
//!   traces, EXPLAIN ANALYZE renderers.
//!
//! Like the execution runtime, this crate denies stray
//! `unwrap`/`expect` in non-test code
//! (`clippy::unwrap_used`/`expect_used`): evaluation errors are values
//! ([`EvalError`]), and the only sanctioned panics are explicit
//! invariant assertions (e.g. the lowerer's Tier A gate).

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod annot;
pub mod error;
pub mod expr;
pub mod govern;
pub mod hash;
pub mod lane;
pub mod obs;
pub mod program;
pub mod range;
pub mod semiring;
pub mod value;
pub mod verify;

pub use annot::{AuAnnot, UaAnnot};
pub use error::EvalError;
pub use expr::{col, lit, Expr};
pub use govern::{Budget, BudgetSpec, CancelToken, ExecError};
pub use lane::{LaneSlice, LaneTag, StrDict, ValueLane};
pub use obs::{
    Counter, ExecEvent, ExecEventKind, Metrics, MetricsSnapshot, QueryTrace, Site, SiteStats,
    TraceBuilder, TraceSpan, TRACE_SCHEMA_VERSION,
};
pub use program::{LaneBatch, OpKinds, Program};
pub use range::RangeValue;
pub use semiring::Semiring;
pub use value::{Value, F64};
pub use verify::{LintKind, ProgramLint, VerifyError, VerifyErrorKind};
