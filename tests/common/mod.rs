//! Shared by the differential suites: the two ways the AU engine runs a
//! query, and the one way they are compared.

#![allow(dead_code)] // every suite uses its own subset

use audb::prelude::*;

/// Worker counts the suites pin down; 7 exceeds most CI machines.
pub const WORKERS: [usize; 4] = [1, 2, 4, 7];
/// Forced shard counts for the fused-chain driver.
pub const SHARDS: [usize; 3] = [1, 3, 8];

/// The one differential oracle: sequential operator-at-a-time
/// evaluation over the interpreted `Expr` trees.
pub fn cfg_oracle() -> AuConfig {
    AuConfig { oracle: true, workers: Some(1), ..AuConfig::default() }
}

/// The production path — fused chains on the lanes — with forced worker
/// and shard counts. The adaptive parallelism floor is disabled so tiny
/// proptest inputs really run multi-worker (operator loops, breaker
/// normalizations, and the sharded chains alike) instead of degrading
/// to the inline path.
pub fn cfg_lanes(workers: usize, shards: usize) -> AuConfig {
    AuConfig {
        workers: Some(workers),
        shards: Some(shards),
        min_rows_per_worker: Some(0),
        ..AuConfig::default()
    }
}

/// The lanes return **exactly** the same outcome — relation or error,
/// the error being the one row-at-a-time order meets first — for every
/// workers × shards shape, and agree with the oracle on the relation
/// (the oracle meets errors in its own operator order, so there only
/// success/failure is compared).
pub fn assert_lanes_match_oracle(db: &AuDatabase, q: &Query, ctx: &str) {
    let reference = eval_au(db, q, &cfg_lanes(1, 1));
    match (&reference, eval_au(db, q, &cfg_oracle())) {
        (Ok(r), Ok(o)) => assert_eq!(*r, o, "lanes vs oracle: {ctx}, q = {q}"),
        (Err(_), Err(_)) => {}
        (r, o) => panic!("lanes {r:?} vs oracle {o:?}: {ctx}, q = {q}"),
    }
    for w in WORKERS {
        for s in SHARDS {
            let got = eval_au(db, q, &cfg_lanes(w, s));
            assert_eq!(got, reference, "lanes: {ctx}, workers = {w}, shards = {s}, q = {q}");
        }
    }
}
