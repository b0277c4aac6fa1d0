//! Admission control: per-class concurrency caps and bounded wait
//! queues.
//!
//! Every query enters through [`Admission::admit`], which either hands
//! back a [`Ticket`] (an execution slot, released on drop) or sheds the
//! query with structured overload information. Waiting is bounded two
//! ways: the queue has a depth cap (queries beyond it shed immediately)
//! and a wait timeout (queued queries shed when no slot frees up in
//! time) — so a submission can never hang on admission.
//!
//! Shedding is ordered by class: a best-effort query that would have to
//! queue is shed immediately whenever the interactive or batch queues
//! have waiters, keeping the cheap-to-drop traffic from holding queue
//! capacity that paying classes are about to need.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use audb_core::BudgetSpec;

/// The admission class of one query: who it competes with and which
/// governance knobs apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Latency-sensitive foreground traffic.
    Interactive,
    /// Throughput-oriented background work.
    Batch,
    /// Shed-first traffic: dropped as soon as the engine is contended.
    BestEffort,
}

impl Class {
    /// Every class, in shed-priority order (best-effort sheds first).
    pub const ALL: [Class; 3] = [Class::Interactive, Class::Batch, Class::BestEffort];

    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Batch => "batch",
            Class::BestEffort => "besteffort",
        }
    }
}

/// Per-class admission and governance knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClassPolicy {
    /// Queries of this class running at once (minimum 1).
    pub max_concurrent: usize,
    /// Queries allowed to wait for a slot; one more sheds.
    pub queue_cap: usize,
    /// How long a queued query waits before it is shed.
    pub queue_timeout: Duration,
    /// Per-query wall-clock deadline (armed on the cancel token).
    pub timeout: Option<Duration>,
    /// Per-query resource budget.
    pub budget: Option<BudgetSpec>,
}

impl ClassPolicy {
    /// Defaults per class: interactive gets the most slots and the
    /// shortest patience, best-effort barely queues at all.
    pub fn default_for(class: Class) -> ClassPolicy {
        match class {
            Class::Interactive => ClassPolicy {
                max_concurrent: 8,
                queue_cap: 32,
                queue_timeout: Duration::from_millis(500),
                timeout: None,
                budget: None,
            },
            Class::Batch => ClassPolicy {
                max_concurrent: 2,
                queue_cap: 16,
                queue_timeout: Duration::from_secs(2),
                timeout: None,
                budget: None,
            },
            Class::BestEffort => ClassPolicy {
                max_concurrent: 1,
                queue_cap: 4,
                queue_timeout: Duration::from_millis(100),
                timeout: None,
                budget: None,
            },
        }
    }
}

/// Why a query was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Waiters in the class queue at shed time.
    pub queue_depth: usize,
    /// Backoff hint for the client: the time by which the queue should
    /// have drained.
    pub retry_after: Duration,
}

#[derive(Debug, Default)]
struct Counts {
    running: usize,
    waiting: usize,
}

#[derive(Debug)]
struct ClassSlot {
    policy: ClassPolicy,
    counts: Mutex<Counts>,
    freed: Condvar,
}

impl ClassSlot {
    fn waiting(&self) -> usize {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner).waiting
    }
}

/// The engine's admission state: one slot table per class.
#[derive(Debug)]
pub struct Admission {
    classes: [Arc<ClassSlot>; 3],
}

impl Admission {
    pub fn new(policies: [ClassPolicy; 3]) -> Self {
        Admission {
            classes: policies.map(|policy| {
                Arc::new(ClassSlot {
                    policy,
                    counts: Mutex::new(Counts::default()),
                    freed: Condvar::new(),
                })
            }),
        }
    }

    /// The policy governing `class`.
    pub fn policy(&self, class: Class) -> &ClassPolicy {
        &self.classes[class as usize].policy
    }

    /// Queries of `class` currently running.
    pub fn running(&self, class: Class) -> usize {
        self.classes[class as usize].counts.lock().unwrap_or_else(PoisonError::into_inner).running
    }

    /// Acquire an execution slot for `class`, waiting (bounded) when the
    /// class is saturated. `Err` is a structured shed verdict — this
    /// method never blocks longer than the class's queue timeout.
    pub fn admit(&self, class: Class) -> Result<Ticket, Shed> {
        let slot = &self.classes[class as usize];
        let retry_after = slot.policy.queue_timeout;
        let mut counts = slot.counts.lock().unwrap_or_else(PoisonError::into_inner);
        if counts.running < slot.policy.max_concurrent.max(1) {
            counts.running += 1;
            return Ok(Ticket { slot: Arc::clone(slot) });
        }
        if counts.waiting >= slot.policy.queue_cap {
            return Err(Shed { queue_depth: counts.waiting, retry_after });
        }
        // Best-effort sheds first: it never queues behind saturation
        // while the classes that outrank it already have waiters.
        if class == Class::BestEffort {
            let contended = self.classes[Class::Interactive as usize].waiting() > 0
                || self.classes[Class::Batch as usize].waiting() > 0;
            if contended {
                return Err(Shed { queue_depth: counts.waiting, retry_after });
            }
        }
        counts.waiting += 1;
        let deadline = Instant::now() + slot.policy.queue_timeout;
        loop {
            if counts.running < slot.policy.max_concurrent.max(1) {
                counts.waiting -= 1;
                counts.running += 1;
                return Ok(Ticket { slot: Arc::clone(slot) });
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                counts.waiting -= 1;
                let depth = counts.waiting;
                return Err(Shed { queue_depth: depth, retry_after });
            }
            counts = slot
                .freed
                .wait_timeout(counts, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// An execution slot. The slot is held for the query's whole evaluation
/// (a degradation to the oracle plan included) and returns to the class
/// on drop.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ClassSlot>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut counts = self.slot.counts.lock().unwrap_or_else(PoisonError::into_inner);
        counts.running = counts.running.saturating_sub(1);
        drop(counts);
        self.slot.freed.notify_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tiny(class: Class) -> ClassPolicy {
        ClassPolicy {
            max_concurrent: 1,
            queue_cap: 1,
            queue_timeout: Duration::from_millis(20),
            ..ClassPolicy::default_for(class)
        }
    }

    fn tiny_admission() -> Admission {
        Admission::new([tiny(Class::Interactive), tiny(Class::Batch), tiny(Class::BestEffort)])
    }

    #[test]
    fn slot_recycles_on_drop() {
        let adm = tiny_admission();
        let t = adm.admit(Class::Interactive).unwrap();
        assert_eq!(adm.running(Class::Interactive), 1);
        drop(t);
        assert_eq!(adm.running(Class::Interactive), 0);
        adm.admit(Class::Interactive).unwrap();
    }

    #[test]
    fn saturated_queue_sheds_with_depth() {
        let adm = tiny_admission();
        let _held = adm.admit(Class::Batch).unwrap();
        // one waiter fits in the queue; it sheds on timeout
        let start = Instant::now();
        let shed = adm.admit(Class::Batch).unwrap_err();
        assert!(start.elapsed() >= Duration::from_millis(20), "waited for the queue timeout");
        assert_eq!(shed.retry_after, Duration::from_millis(20));
        assert_eq!(shed.queue_depth, 0, "the shed waiter already left the queue");
    }

    #[test]
    fn waiter_gets_the_freed_slot() {
        let adm = Admission::new([
            ClassPolicy { queue_timeout: Duration::from_secs(5), ..tiny(Class::Interactive) },
            tiny(Class::Batch),
            tiny(Class::BestEffort),
        ]);
        let held = adm.admit(Class::Interactive).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(|| adm.admit(Class::Interactive));
            std::thread::sleep(Duration::from_millis(10));
            drop(held);
            assert!(h.join().unwrap().is_ok(), "waiter admitted once the slot freed");
        });
    }

    #[test]
    fn best_effort_sheds_first_under_cross_class_pressure() {
        let adm = Admission::new([
            ClassPolicy { queue_timeout: Duration::from_secs(5), ..tiny(Class::Interactive) },
            tiny(Class::Batch),
            ClassPolicy { queue_timeout: Duration::from_secs(5), ..tiny(Class::BestEffort) },
        ]);
        let _i = adm.admit(Class::Interactive).unwrap();
        let _be = adm.admit(Class::BestEffort).unwrap();
        std::thread::scope(|s| {
            // an interactive waiter queues up...
            let h = s.spawn(|| adm.admit(Class::Interactive));
            while adm.classes[Class::Interactive as usize].waiting() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // ...so best-effort is shed immediately instead of queueing
            let start = Instant::now();
            assert!(adm.admit(Class::BestEffort).is_err());
            assert!(start.elapsed() < Duration::from_secs(1), "immediate shed, no queue wait");
            drop(_i);
            assert!(h.join().unwrap().is_ok());
        });
    }
}
