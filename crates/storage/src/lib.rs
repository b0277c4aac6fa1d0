//! # audb-storage
//!
//! Data structures for the three database flavours the paper deals with:
//!
//! * deterministic bag ([`Relation`]/[`Database`]) — the conventional-DBMS
//!   substrate and the representation of possible worlds;
//! * UA-relations ([`UaRelation`]) — tuple-level certain/SG annotations
//!   (the predecessor model, Section 3.3);
//! * AU-relations ([`AuRelation`]) — range tuples with `N_AU` annotations
//!   (the paper's contribution, Section 6).
//!
//! This crate denies stray `unwrap`/`expect` in non-test code
//! (`clippy::unwrap_used`/`expect_used`), matching the execution
//! runtime: storage errors surface as values, not panics.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod au;
pub mod column;
pub mod index;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod ua;

pub use au::{au_row, certain_row, AuDatabase, AuRelation};
pub use column::{packed_range_key, packed_value_key, AnnotColumn, ColumnSet, GatherView};
pub use index::{det_key, lane_key, shared_codes, HashKeyIndex, IntervalIndex, KeyCell};
pub use relation::{Database, Relation};
pub use schema::Schema;
pub use tuple::{RangeTuple, Tuple};
pub use ua::{UaDatabase, UaRelation};
