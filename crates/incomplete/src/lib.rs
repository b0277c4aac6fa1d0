//! # audb-incomplete
//!
//! Incomplete-database models and their translations into AU-DBs
//! (paper Sections 3.2 and 11), plus the machinery to *verify* bounding:
//!
//! * [`worlds`] — explicit possible-worlds databases, certain/possible
//!   annotations (glb/lub);
//! * [`xdb`] — x-DBs / block-independent databases (`trans_X`,
//!   Theorem 10), the model PDBench generates;
//! * [`vtable`] — V-tables / Codd tables with labeled nulls;
//! * [`lens`] — the key-repair cleaning lens (Section 11.4);
//! * [`maxflow`], [`bounding`] — tuple-matching existence (Definitions
//!   15–17) decided by max-flow with lower bounds: the ground-truth
//!   oracle for all bound-preservation property tests — and the worlds
//!   an AU-DB bounds, sampled at any scale.
//!
//! A TI-DB (Section 11.1) is an x-DB of one-alternative x-tuples, and
//! `trans_X` gives `trans_TI`'s rows (Theorem 9) but for two x-DB
//! conventions: at `p = 0` a sound `(0, 0, 1)` row, where `trans_TI`
//! drops the tuple; for `1 − 1e-9 ≤ p < 1` a certain row (`lb = 1`), as
//! in [`XDb::for_each_world`]. C-tables (Section 11.3) have no model
//! here: no figure, workload or suite reads one.

pub mod bounding;
pub mod lens;
pub mod maxflow;
pub mod vtable;
pub mod worlds;
pub mod xdb;

pub use bounding::{
    database_bounds_incomplete, database_bounds_world, relation_bounds_incomplete,
    relation_bounds_world, sample_bounded_world,
};
pub use lens::{key_repair_lens, repair_stats, RepairStats};
pub use vtable::{VCell, VTable};
pub use worlds::{IncompleteDb, IncompleteRelation};
pub use xdb::{XDb, XRelation, XTuple};
