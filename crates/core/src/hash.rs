//! The engine's keyed key hash: a folded-multiply [`Hasher`] seeded per
//! call — what the join hash index (`audb_storage::HashKeyIndex`)
//! buckets on.
//!
//! One 64×64→128 multiply per word, ~5× cheaper than SipHash over a
//! key's derived `Hash`. The state starts from a seed drawn from
//! [`RandomState`] once per index build — never a fixed seed: join keys
//! carry attacker-influenced literals.

use std::hash::{BuildHasher, Hasher, RandomState};

/// The folded-multiply hasher; fed through [`keyed_hash_with`].
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }
    fn write_u8(&mut self, w: u8) {
        self.write_u64(u64::from(w));
    }
    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }
    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }
    fn write_u64(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w) * 0x5851_F42D_4C95_7F2D_u128;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A fresh seed for one call: `RandomState` keys differ per process and
/// per construction.
pub fn call_seed() -> u64 {
    RandomState::new().hash_one(0u8)
}

/// The hash of whatever `feed` writes, under `seed`.
pub fn keyed_hash_with(seed: u64, feed: impl FnOnce(&mut FoldHasher)) -> u64 {
    let mut h = FoldHasher(seed);
    feed(&mut h);
    // one more round spreads the last word over the low bits — the ones
    // hash tables slot on
    h.write_u64(seed);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    /// Two index builds in one process hash under different seeds: a
    /// key set crafted to collide under one call's hash does not collide
    /// under the next.
    #[test]
    fn calls_do_not_share_a_hash_seed() {
        let (a, b) = (call_seed(), call_seed());
        assert_ne!(a, b);
        let key = ("some tuple", 7u64);
        let hash = |seed| keyed_hash_with(seed, |h| key.hash(h));
        assert_ne!(hash(a), hash(b));
        assert_eq!(hash(a), hash(a));
    }
}
