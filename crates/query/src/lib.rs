//! # audb-query
//!
//! `RA^agg` evaluation over the three database flavours:
//!
//! * [`det`] — deterministic bag semantics (the conventional engine,
//!   also used for selected-guess query processing);
//! * [`au`] — native bound-preserving AU-DB semantics (Sections 7–9)
//!   with the compaction optimizations of Section 10.4/10.5 ([`opt`]);
//! * [`ua`] — UA-DB semantics (the predecessor model);
//! * [`rewrite`] — the relational-encoding middleware (Section 10):
//!   `Enc`/`Dec` plus query rewriting executed on the deterministic
//!   engine, proven equivalent to the native semantics by differential
//!   tests (Theorem 8);
//! * [`sql`] — a SQL front-end lowering `SELECT`-`FROM`-`WHERE`-
//!   `GROUP BY` (+`UNION`/`EXCEPT`/`CASE`/`make_uncertain`) to plans.
//!
//! This crate denies stray `unwrap`/`expect` in non-test code
//! (`clippy::unwrap_used`/`expect_used`), matching the execution
//! runtime: every evaluation entry point returns `Result`, and the
//! engine's panic containment must not be defeated by its own callers.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub use audb_exec as exec;

pub mod algebra;
pub mod au;
pub mod det;
pub mod opt;
pub mod planner;
pub mod rewrite;
pub mod sql;
pub mod ua;
pub mod vcheck;

pub use algebra::{table, AggFunc, AggSpec, Catalog, Query};
pub use au::{
    degrade_once, eval_au, eval_au_attempt, eval_au_traced, eval_au_traced_full, explain, AuConfig,
    AuPlan,
};
pub use audb_exec::{Executor, Partitioner};
pub use det::eval_det;
pub use planner::{classify, JoinStrategy};
pub use sql::parse_sql;
pub use ua::eval_ua;
pub use vcheck::with_tampered_programs;
