//! # audb-serve
//!
//! The concurrent serving layer: a long-lived [`Engine`] that keeps the
//! AU-DB engine live and well-behaved under many queries at once.
//!
//! The evaluation stack below this crate is per-query: `audb_query`
//! evaluates one plan against one database with one governance context.
//! This crate adds everything a server needs around that:
//!
//! * **epoch snapshots** — the database is published as immutable
//!   `Arc`'d [`Snapshot`]s; queries pin an epoch at admission and
//!   writers publish new epochs without blocking readers
//!   ([`Engine::publish`]);
//! * **prepared plans** — parse → plan → compile → Tier-B verify paid
//!   once per (query text, epoch): the table keeps the physical plan
//!   ([`AuPlan`](audb_query::AuPlan)) and a hit only runs it; evicted
//!   wholesale on publish and at [`PREPARED_CAP`] entries;
//! * **admission control** ([`admission`]) — `interactive` / `batch` /
//!   `besteffort` classes with concurrency caps, bounded wait queues,
//!   and per-class governance knobs; saturation sheds structurally
//!   ([`ServeError::Overloaded`]), best-effort first;
//! * **one shared worker pool** — every query draws threads from one
//!   [`WorkerGate`](audb_exec::WorkerGate) instead of spawning its own
//!   fleet; starved queries degrade to inline execution with identical
//!   results;
//! * **one degradation rule** — a non-resource fault of the lane run
//!   (a worker panic, an injected fault, a kept plan failing its Tier A
//!   re-check) is answered at once from the operator-at-a-time oracle
//!   plan (`AuPlan::oracle`), the way `eval_au` answers it
//!   ([`degrade_once`](audb_query::degrade_once)); nothing carries over
//!   to the next query;
//! * **one answer per fault** — a query is evaluated once: a resource
//!   verdict is [`ServeError::Rejected`], an oracle plan that faults too
//!   is [`ServeError::Failed`], a query error is [`ServeError::Query`];
//!   nothing is retried.
//!
//! The load-bearing guarantee, pinned by the stress suite: **every
//! submission resolves** — to a correct result or a structured
//! [`ServeError`] — and no fault, overload, or mid-flight publish can
//! hang a client or poison the engine. Semantics: `docs/serving.md`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
pub mod engine;
pub mod stats;

pub use admission::{Admission, Class, ClassPolicy};
pub use engine::{Engine, EngineConfig, EngineStats, Response, ServeError, Snapshot, PREPARED_CAP};
pub use stats::{ClassStats, ClassStatsSnapshot};
