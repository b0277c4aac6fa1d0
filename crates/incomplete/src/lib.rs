//! # audb-incomplete
//!
//! Incomplete-database models and their translations into AU-DBs
//! (paper Sections 3.2 and 11), plus the machinery to *verify* bounding:
//!
//! * [`worlds`] — explicit possible-worlds databases, certain/possible
//!   annotations (glb/lub);
//! * [`tidb`] — tuple-independent databases (`trans_TI`, Theorem 9);
//! * [`xdb`] — x-DBs / block-independent databases (`trans_X`,
//!   Theorem 10), the model PDBench generates;
//! * [`ctable`] — C-tables with finite-domain variables and a
//!   brute-force solver substitute (`trans_C`, Theorem 11; Theorem 2's
//!   3-colorability reduction);
//! * [`vtable`] — V-tables / Codd tables with labeled nulls;
//! * [`lens`] — the key-repair cleaning lens (Section 11.4);
//! * [`maxflow`], [`bounding`] — tuple-matching existence (Definitions
//!   15–17) decided by max-flow with lower bounds: the ground-truth
//!   oracle for all bound-preservation property tests — and the worlds
//!   an AU-DB bounds, sampled at any scale.

pub mod bounding;
pub mod ctable;
pub mod lens;
pub mod maxflow;
pub mod tidb;
pub mod vtable;
pub mod worlds;
pub mod xdb;

pub use bounding::{
    database_bounds_incomplete, database_bounds_world, relation_bounds_incomplete,
    relation_bounds_world, sample_bounded_world,
};
pub use ctable::{CTable, CVal};
pub use lens::{key_repair_lens, repair_stats, RepairStats};
pub use tidb::{TiDb, TiRelation};
pub use vtable::{VCell, VTable};
pub use worlds::{IncompleteDb, IncompleteRelation};
pub use xdb::{XDb, XRelation, XTuple};
