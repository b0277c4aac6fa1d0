//! # audb-baselines
//!
//! Reimplementations of the systems the paper's evaluation (Section 12)
//! compares against. Each is a faithful in-repo realization of the
//! *strategy* of the original system (the originals are external
//! C++/Java/SQL systems); DESIGN.md documents each substitution.
//!
//! * [`det`] — SGQP (query the selected-guess world, ignore uncertainty);
//! * [`libkin`] — certain-answer under-approximation over V-tables;
//! * [`mcdb`] — Monte-Carlo sampling of possible worlds;
//! * [`maybms`] — possible-answer computation by alternative expansion;
//! * [`trio`] — lineage-tracked alternative expansion + per-group
//!   aggregate bounds (not closed under queries);
//! * [`symb`] — exact symbolic-style bounds via exhaustive world
//!   enumeration (Z3 substitute; exponential).

pub mod det;
pub mod libkin;
pub mod maybms;
pub mod mcdb;
pub mod symb;
pub mod trio;

pub use det::run_sgqp;
pub use libkin::{eval_libkin, xrelation_to_vtable, VDatabase};
pub use maybms::{alternative_expansion, run_maybms};
pub use mcdb::{run_mcdb, McdbResult};
pub use symb::{run_symb, SymbBounds};
pub use trio::{eval_trio, trio_aggregate, trio_aggregate_chain, TrioRelation};
