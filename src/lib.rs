//! # audb — Attribute-annotated Uncertain Databases
//!
//! A from-scratch Rust implementation of *"Efficient Uncertainty
//! Tracking for Complex Queries with Attribute-level Bounds"*
//! (Feng, Huber, Glavic, Kennedy — SIGMOD 2021).
//!
//! An **AU-DB** approximates an incomplete database (a set of possible
//! worlds) by annotating a single *selected-guess world*:
//!
//! * attribute values carry `[lower / selected-guess / upper]` range
//!   annotations;
//! * tuples carry `(lower, sg, upper)` multiplicity annotations;
//! * full relational algebra **with aggregation** evaluates directly on
//!   this encoding in PTIME and provably *preserves bounds*: every
//!   possible world of the input's query result is sandwiched between
//!   the produced under- and over-approximations.
//!
//! ## Quick start
//!
//! ```
//! use audb::prelude::*;
//!
//! // a relation with an uncertain attribute: rate is 3–4%, guess 3%
//! let rel = AuRelation::from_rows(
//!     Schema::named(&["locale", "rate"]),
//!     vec![
//!         au_row(vec![RangeValue::certain(Value::str("LA")),
//!                     RangeValue::range(3i64, 3i64, 4i64)], 1, 1, 1),
//!         au_row(vec![RangeValue::certain(Value::str("Houston")),
//!                     RangeValue::certain(Value::Int(14))], 1, 1, 1),
//!     ],
//! );
//! let mut db = AuDatabase::new();
//! db.insert("locales", rel);
//!
//! // average rate across locales, with bounds
//! let q = table("locales").aggregate(
//!     vec![],
//!     vec![AggSpec::new(AggFunc::Avg, col(1), "avg_rate")],
//! );
//! let out = eval_au(&db, &q, &AuConfig::precise()).unwrap();
//! let avg = &out.rows()[0].0 .0[0];
//! assert_eq!(avg.lb, Value::float(8.5));   // (3 + 14) / 2
//! assert_eq!(avg.ub, Value::float(9.0));   // (4 + 14) / 2
//! ```
//!
//! The workspace crates are re-exported here: see [`core`], [`storage`],
//! [`query`], [`serve`], [`incomplete`], [`baselines`], [`workloads`].

pub use audb_baselines as baselines;
pub use audb_core as core;
pub use audb_exec as exec;
pub use audb_incomplete as incomplete;
pub use audb_query as query;
pub use audb_serve as serve;
pub use audb_storage as storage;
pub use audb_workloads as workloads;

/// Common imports for working with AU-DBs.
pub mod prelude {
    pub use audb_core::obs::{Metrics, QueryTrace, TraceBuilder, TraceSpan, TRACE_SCHEMA_VERSION};
    pub use audb_core::{
        col, lit, AuAnnot, Budget, BudgetSpec, CancelToken, EvalError, ExecError, Expr, RangeValue,
        UaAnnot, Value,
    };
    pub use audb_exec::{Executor, Partitioner};
    pub use audb_incomplete::{
        database_bounds_incomplete, key_repair_lens, relation_bounds_world, IncompleteDb, VTable,
        XDb, XRelation, XTuple,
    };
    pub use audb_query::{
        eval_au, eval_au_attempt, eval_au_traced, eval_au_traced_full, eval_det, eval_ua, explain,
        parse_sql, rewrite::eval_via_rewrite, table, AggFunc, AggSpec, AuConfig, AuPlan, Query,
    };
    pub use audb_serve::{Class, ClassPolicy, Engine, EngineConfig, Response, ServeError};
    pub use audb_storage::{
        au_row, certain_row, AuDatabase, AuRelation, Database, RangeTuple, Relation, Schema, Tuple,
        UaDatabase, UaRelation,
    };
}
