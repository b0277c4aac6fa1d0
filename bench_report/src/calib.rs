//! The frozen calibration kernel: the benchmark's unit of time.
//!
//! Every timing metric the benchmark gates is an operation's wall time
//! divided by the wall time of this kernel *in the same round* (unit
//! `calib`). On a small shared box the clock of a whole run drifts by
//! tens of percent (thermal state, a neighbour on the other vCPU); the
//! kernel drifts with it, so the ratio holds where raw milliseconds do
//! not. The kernel mixes what the engine itself mostly does — a
//! branchy sort over a buffer larger than L2, then pointer-chasing
//! inserts into an ordered map with many small heap allocations — so
//! that cache and allocator pressure move both sides alike.
//!
//! FROZEN: the numbers of every later PR are expressed in this unit.
//! Editing anything in this file re-bases every recorded metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::XorShift;

const SORT_LEN: usize = 150_000;
const GROUP_LEN: usize = 30_000;
const GROUPS: u64 = 1024;
/// Input seed of the kernel; deliberately not derived from `--seed`,
/// so the unit is the same on every run.
const INPUT_SEED: u64 = 0x5EED_CA11_B8A7_E000;

/// The kernel's time on the box the benchmark was sized on. `setup_s`
/// is reported at this speed (set-up wall / kernel time during that
/// set-up, times this), so that it stays in seconds without inheriting
/// the machine's drift as every raw wall time does.
pub const NOMINAL_NS: f64 = 4.5e6;

pub struct Calib {
    data: Vec<u64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut g = XorShift::new(INPUT_SEED);
        Calib { data: (0..SORT_LEN).map(|_| g.next_u64()).collect() }
    }

    /// One execution of the kernel; the checksum keeps the optimizer
    /// from deleting it.
    pub fn run(&self) -> u64 {
        let mut v = black_box(&self.data).clone();
        v.sort_unstable();
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for x in &self.data[..GROUP_LEN] {
            groups.entry(x % GROUPS).or_default().push(*x);
        }
        let folded = groups
            .values()
            .fold(0u64, |acc, g| acc ^ g.iter().fold(0u64, |s, x| s.wrapping_add(*x)));
        black_box(folded ^ v[SORT_LEN / 2])
    }

    /// Wall time of one execution, in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        let t = Instant::now();
        self.run();
        t.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let c = Calib::new();
        assert_eq!(c.run(), c.run());
        assert_eq!(c.run(), Calib::new().run());
        assert!(c.time_ns() > 0.0);
    }
}
