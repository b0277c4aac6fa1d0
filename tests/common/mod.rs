//! Shared by the differential suites: the two ways the AU engine runs a
//! query, and the one way they are compared.

#![allow(dead_code)] // every suite uses its own subset

use audb::incomplete::relation_bounds_world;
use audb::prelude::*;
use proptest::prelude::*;

/// Worker counts the suites pin down; 7 exceeds most CI machines.
pub const WORKERS: [usize; 4] = [1, 2, 4, 7];
/// Forced shard counts for the fused-chain driver.
pub const SHARDS: [usize; 3] = [1, 3, 8];

/// The one differential oracle: sequential operator-at-a-time
/// evaluation over the interpreted `Expr` trees.
pub fn cfg_oracle() -> AuConfig {
    oracle_of(&AuConfig::default())
}

/// The oracle under `base`'s compression knobs.
pub fn oracle_of(base: &AuConfig) -> AuConfig {
    AuConfig { oracle: true, workers: Some(1), ..*base }
}

/// The production path — fused chains on the lanes — with forced worker
/// and shard counts. The adaptive parallelism floor is disabled so tiny
/// proptest inputs really run multi-worker (operator loops, breaker
/// normalizations, and the sharded chains alike) instead of degrading
/// to the inline path.
pub fn cfg_lanes(workers: usize, shards: usize) -> AuConfig {
    lanes_of(&AuConfig::default(), workers, shards)
}

/// [`cfg_lanes`] under `base`'s compression knobs.
pub fn lanes_of(base: &AuConfig, workers: usize, shards: usize) -> AuConfig {
    AuConfig { workers: Some(workers), shards: Some(shards), min_rows_per_worker: Some(0), ..*base }
}

/// The base configurations of the differential matrix: precise, the
/// paper's adaptive `compressed(ct)` (tiny inputs: every verdict says
/// no), forced compression of joins and aggregates (`ct = 2`: real
/// buckets on any input of three rows), and each knob alone.
pub fn base_configs() -> [(&'static str, AuConfig); 5] {
    let forced = AuConfig { adaptive: false, ..AuConfig::compressed(2) };
    [
        ("default", AuConfig::default()),
        ("compressed(2)", AuConfig::compressed(2)),
        ("forced compressed(2)", forced),
        ("join-only", AuConfig { agg_compress: None, ..forced }),
        ("agg-only", AuConfig { join_compress: None, ..forced }),
    ]
}

/// Under `base`, the lanes return **exactly** the same outcome —
/// relation or error, the error being the one the chain's enumeration
/// order meets first — for every workers × shards shape, and agree with
/// the oracle on the relation (the oracle meets errors in its own
/// operator order, so there only success/failure is compared).
pub fn assert_lanes_match_oracle(base: &AuConfig, db: &AuDatabase, q: &Query, ctx: &str) {
    let reference = eval_au(db, q, &lanes_of(base, 1, 1));
    match (&reference, eval_au(db, q, &oracle_of(base))) {
        (Ok(r), Ok(o)) => assert_eq!(*r, o, "lanes vs oracle: {ctx}, base = {base:?}, q = {q}"),
        (Err(_), Err(_)) => {}
        (r, o) => panic!("lanes {r:?} vs oracle {o:?}: {ctx}, base = {base:?}, q = {q}"),
    }
    for w in WORKERS {
        for s in SHARDS {
            let got = eval_au(db, q, &lanes_of(base, w, s));
            assert_eq!(
                got, reference,
                "lanes: {ctx}, base = {base:?}, workers = {w}, shards = {s}, q = {q}"
            );
        }
    }
}

/// [`assert_lanes_match_oracle`] under every [`base_configs`] entry.
pub fn assert_lanes_match_oracle_all(db: &AuDatabase, q: &Query, ctx: &str) {
    for (name, base) in base_configs() {
        assert_lanes_match_oracle(&base, db, q, &format!("{ctx}, {name}"));
    }
}

/// World enumeration: the AU result of `q` over `db`'s translation
/// bounds `q`'s result in every possible world of `db` (Definition 17
/// condition (5), decided by the max-flow tuple matcher) and encodes the
/// SG world's result exactly (condition (6)). Databases with more than
/// 512 worlds are skipped.
pub fn check_bounds(db: &XDb, q: &Query, cfg: &AuConfig) -> Result<(), TestCaseError> {
    let Some(inc) = db.to_incomplete(512) else {
        return Ok(()); // too many worlds; skip
    };
    let au_in = db.to_au();
    let out = eval_au(&au_in, q, cfg).expect("AU evaluation");
    let exact = inc.eval(q).expect("possible-worlds evaluation");
    for (i, w) in exact.worlds.iter().enumerate() {
        prop_assert!(
            relation_bounds_world(&out, w),
            "world {i} not bounded:\nworld: {w}\nAU result: {out}"
        );
    }
    prop_assert_eq!(
        out.sg_world().normalized(),
        exact.sg_world().normalized(),
        "SGW not preserved"
    );
    Ok(())
}

/// An x-tuple of equally likely alternatives with total probability
/// `total` (`< 1`: optional), the first one a hair likelier so that the
/// selected guess is unambiguous.
pub fn weighted_xtuple(alts: Vec<Tuple>, total: f64) -> XTuple {
    let p = total / alts.len() as f64;
    let mut weighted: Vec<(Tuple, f64)> = alts.into_iter().map(|t| (t, p)).collect();
    weighted[0].1 += 1e-9;
    let norm: f64 = weighted.iter().map(|(_, q)| q).sum::<f64>() / total;
    weighted.iter_mut().for_each(|w| w.1 /= norm);
    XTuple::new(weighted)
}
