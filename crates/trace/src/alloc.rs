//! Heap-allocation observability.
//!
//! With the `alloc-count` feature enabled, this module installs a
//! [`std::alloc::GlobalAlloc`] wrapper around the system allocator that
//! counts every allocation (calls and bytes) with relaxed atomics. The
//! counters are process-wide and monotonically increasing; callers snapshot
//! them before and after a region of interest and subtract. A third
//! counter, [`alloc_live_bytes`], tracks the bytes currently allocated, so
//! a region's difference is what it left behind.
//!
//! Without the feature (the default) nothing is installed, the snapshot
//! helpers return zeros, and the cost is exactly nothing — the feature
//! exists so production builds keep the stock allocator while the
//! allocation-regression gate in CI runs with counting on.
//!
//! ```
//! let before = pipefisher_trace::alloc_snapshot();
//! let v: Vec<u8> = Vec::with_capacity(64);
//! drop(v);
//! let after = pipefisher_trace::alloc_snapshot();
//! if pipefisher_trace::alloc_counting_enabled() {
//!     assert!(after.allocs - before.allocs >= 1);
//! }
//! ```

/// A monotonic snapshot of process-wide heap-allocation counters.
///
/// Subtract two snapshots to get the allocation traffic in between. All
/// fields are zero when the `alloc-count` feature is off (check with
/// [`alloc_counting_enabled`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Number of allocation calls (`alloc` + `realloc`) so far.
    pub allocs: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

#[cfg(feature = "alloc-count")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES: AtomicU64 = AtomicU64::new(0);
    pub static LIVE: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that tallies calls and bytes.
    pub struct CountingAllocator;

    // SAFETY: defers entirely to `System`; the counters are side effects.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            // Adds the difference; wrapping arithmetic makes a shrink a
            // subtraction.
            LIVE.fetch_add(
                (new_size as u64).wrapping_sub(layout.size() as u64),
                Ordering::Relaxed,
            );
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

/// Whether the process is running with the counting allocator installed
/// (i.e. the `alloc-count` feature was compiled in).
pub fn alloc_counting_enabled() -> bool {
    cfg!(feature = "alloc-count")
}

/// Snapshots the process-wide allocation counters.
///
/// Returns all-zeros when counting is off, so deltas are also zero and
/// downstream metrics degrade gracefully.
pub fn alloc_snapshot() -> AllocSnapshot {
    #[cfg(feature = "alloc-count")]
    {
        use std::sync::atomic::Ordering;
        AllocSnapshot {
            allocs: counting::ALLOCS.load(Ordering::Relaxed),
            bytes: counting::BYTES.load(Ordering::Relaxed),
        }
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        AllocSnapshot::default()
    }
}

/// Bytes currently allocated through the process-wide allocator: every
/// allocation adds its size, every deallocation subtracts it, a
/// reallocation adds the difference. The difference of two readings is
/// what the code in between left live. Always 0 when counting is off.
pub fn alloc_live_bytes() -> u64 {
    #[cfg(feature = "alloc-count")]
    {
        counting::LIVE.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        0
    }
}

impl AllocSnapshot {
    /// The traffic between `earlier` and `self` (saturating, so mixing up
    /// the order yields zeros rather than wrap-around garbage).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_monotonic_and_since_saturates() {
        let a = alloc_snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let b = alloc_snapshot();
        drop(v);
        assert!(b.allocs >= a.allocs);
        assert_eq!(a.since(&b).allocs, 0, "reversed order saturates to zero");
        if alloc_counting_enabled() {
            let d = b.since(&a);
            assert!(d.allocs >= 1, "Vec::with_capacity must be counted");
            assert!(d.bytes >= 1024 * 8);
        } else {
            assert_eq!(b, AllocSnapshot::default());
        }
    }

    #[test]
    fn live_bytes_follow_alloc_realloc_and_dealloc() {
        if !alloc_counting_enabled() {
            assert_eq!(alloc_live_bytes(), 0);
            return;
        }
        // Other test threads allocate concurrently, so hold each region
        // large enough to dominate their traffic and compare loosely.
        let base = alloc_live_bytes() as i64;
        let mut v: Vec<u8> = Vec::with_capacity(1 << 24);
        let grown = alloc_live_bytes() as i64 - base;
        assert!((grown - (1 << 24)).abs() < 1 << 20, "alloc added {grown}");
        v.reserve_exact(2 << 24);
        let regrown = alloc_live_bytes() as i64 - base;
        assert!(
            (regrown - (2 << 24)).abs() < 1 << 20,
            "realloc left {regrown}"
        );
        drop(v);
        let left = alloc_live_bytes() as i64 - base;
        assert!(left.abs() < 1 << 20, "dealloc left {left}");
    }
}
