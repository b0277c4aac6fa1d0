//! Per-class serving statistics: outcome counts and latency quantiles.
//!
//! The engine's [`audb_core::obs::Metrics`] sink carries the
//! engine-wide counters and events; this module adds the per-class
//! split a load shedder is judged by — how many queries each class
//! submitted, how many were admitted, shed, failed, and how their
//! latency distribution looks. Samples are raw nanosecond latencies in
//! a mutex-guarded vector: a serving engine's lifetime query count is
//! bounded by admission, so exact quantiles stay affordable and the
//! bench reads true p50/p99 rather than histogram-bucket lower bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Live per-class meters.
#[derive(Debug, Default)]
pub struct ClassStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
}

impl ClassStats {
    pub(crate) fn submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn complete(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latencies_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(latency.as_nanos() as u64);
    }

    /// A plain-data copy of the meters.
    pub fn snapshot(&self) -> ClassStatsSnapshot {
        let mut latencies =
            self.latencies_ns.lock().unwrap_or_else(PoisonError::into_inner).clone();
        latencies.sort_unstable();
        ClassStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retried: 0,
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            latencies_ns: latencies,
        }
    }
}

/// Counts plus the sorted latency samples of one class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStatsSnapshot {
    /// Queries submitted (every outcome).
    pub submitted: u64,
    /// Queries granted an execution slot.
    pub admitted: u64,
    /// Queries that returned a result.
    pub completed: u64,
    /// Queries shed by admission (queue full / wait timeout).
    pub shed: u64,
    /// Always 0: a query is evaluated once and nothing retries it. The
    /// field stays because the benchmark's serving report reads it.
    pub retried: u64,
    /// Queries that ended in `ServeError::Failed` (the lane run faulted
    /// and the oracle plan faulted too) or in a query error raised while
    /// evaluating.
    pub failed: u64,
    /// Queries ended by a final governance verdict.
    pub rejected: u64,
    /// Completed-query latencies, sorted ascending.
    pub latencies_ns: Vec<u64>,
}

impl ClassStatsSnapshot {
    /// Latency quantile by nearest-rank (`q` in `[0, 1]`); `None` with
    /// no completed samples.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.latencies_ns.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_ns.len());
        Some(Duration::from_nanos(self.latencies_ns[rank - 1]))
    }

    /// Completed queries per second over `elapsed`.
    pub fn qps(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.completed as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let stats = ClassStats::default();
        for ns in [50u64, 10, 40, 20, 30] {
            stats.complete(Duration::from_nanos(ns));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.quantile(0.5), Some(Duration::from_nanos(30)));
        assert_eq!(snap.quantile(0.0), Some(Duration::from_nanos(10)));
        assert_eq!(snap.quantile(1.0), Some(Duration::from_nanos(50)));
        assert_eq!(snap.quantile(0.99), Some(Duration::from_nanos(50)));
        assert_eq!(ClassStats::default().snapshot().quantile(0.5), None);
    }

    #[test]
    fn qps_counts_completions() {
        let stats = ClassStats::default();
        stats.submit();
        stats.submit();
        stats.complete(Duration::from_millis(1));
        let snap = stats.snapshot();
        assert!((snap.qps(Duration::from_secs(2)) - 0.5).abs() < 1e-9);
        assert_eq!(snap.qps(Duration::ZERO), 0.0);
    }
}
