//! Counting global allocator: live-byte accounting of one thread.
//!
//! Outside [`live_bytes_of`] every allocation pays one thread-local load
//! and nothing else, so timings are taken with the system allocator's
//! own behaviour. Counting is per thread: a shared counter that two
//! client threads bump on every allocation would itself be the
//! bottleneck it measures, and a reading would hold whatever the other
//! threads allocated meanwhile. Everything counted here — building a
//! workload's inputs, a cold copy of its tables — runs on the calling
//! thread alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

// `const` initializers and no destructors: the first access registers
// nothing and allocates nothing, so the allocator may read them.
thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    // Signed: blocks allocated while counting was off may be freed while it is on.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // `try_with`: a thread that is tearing down its locals counts nothing
    if ENABLED.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the only added work is
// arithmetic on this thread's statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with this `layout` (caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: forwarded unchanged; the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes this thread allocated and had not freed, while something was built.
#[derive(Debug, Clone, Copy)]
pub struct LiveBytes {
    /// When the build returned: what is live because of what it built.
    pub end: isize,
    /// The most at any moment of the build.
    pub peak: isize,
}

/// Build something under counting.
pub fn live_bytes_of<T>(build: impl FnOnce() -> T) -> (T, LiveBytes) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ENABLED.with(|e| e.set(true));
    let built = build();
    ENABLED.with(|e| e.set(false));
    (built, LiveBytes { end: LIVE.with(Cell::get), peak: PEAK.with(Cell::get) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_live_and_peak_bytes() {
        let (kept, bytes) = live_bytes_of(|| {
            let scratch: Vec<u8> = Vec::with_capacity(1 << 20);
            drop(std::hint::black_box(scratch));
            let mut kept: Vec<u64> = Vec::with_capacity(4);
            // grows through `realloc`: the contents must survive it
            kept.extend(0..100_000u64);
            kept
        });
        assert!(kept.iter().enumerate().all(|(i, x)| i as u64 == *x));
        assert_eq!(bytes.end, (kept.capacity() * 8) as isize);
        assert!(bytes.peak >= 1 << 20 && bytes.peak >= bytes.end);
        // off again: nothing is counted outside
        let before = LIVE.with(Cell::get);
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(LIVE.with(Cell::get), before);
    }
}
