//! Thread-local workspace arena recycling `Matrix` storage.
//!
//! Every allocating kernel in this crate (and every `Matrix` constructor
//! that builds a fresh buffer) draws its backing `Vec<f64>` from a
//! per-thread pool keyed by *length*, and [`Matrix`]'s `Drop` impl returns
//! the buffer to the pool of whichever thread dropped it. After a warm-up
//! pass, a steady-state training step therefore performs (near-)zero heap
//! allocations in the kernel hot path: the same buffers cycle between the
//! forward pass, the backward pass, and the K-FAC curvature/inversion work.
//!
//! # Thread safety
//!
//! The pool is `thread_local!`, so no locks or cross-thread traffic are
//! involved: each lane of the [`crate::par`] worker pool owns an
//! independent arena, and a buffer checked out on one lane and dropped on
//! another simply migrates pools. Results are unaffected — the arena
//! recycles *capacity*, never values ([`take_zeroed`] clears before
//! handing out), so every kernel remains bitwise identical to a freshly
//! allocating run.
//!
//! # Disabling
//!
//! Recycling is always on in a shipped run; no environment variable or
//! flag turns it off. [`set_enabled`] is a test and bench setter: the
//! allocation gate, `bench_alloc` and the on/off equivalence property
//! compare the arena with plain `Vec` allocation in one process this way.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-length cap on pooled bytes: one size class never retains more than
/// this many bytes of idle buffers (prevents unbounded growth when a
/// workload churns through many same-sized temporaries at once).
const CLASS_CAP_BYTES: usize = 64 << 20;

/// Hard per-class cap on idle buffer *count*, independent of size.
const CLASS_CAP_COUNT: usize = 32;

thread_local! {
    /// Length-keyed free lists of recycled buffers for this thread.
    static POOL: RefCell<HashMap<usize, Vec<Vec<f64>>>> = RefCell::new(HashMap::new());
}

/// Whether buffer recycling is active (see [`set_enabled`]).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether buffer recycling is currently active.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the workspace on or off for the whole process; it starts on.
/// Intended for tests and benches.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Max idle buffers retained per size class of `len` elements.
fn class_cap(len: usize) -> usize {
    let bytes = len.saturating_mul(std::mem::size_of::<f64>());
    if bytes == 0 {
        return 0;
    }
    (CLASS_CAP_BYTES / bytes).clamp(1, CLASS_CAP_COUNT)
}

/// Pops a recycled buffer of exactly `len` elements, if one is pooled.
/// Contents are unspecified. Returns `None` when disabled, when the pool
/// is empty for this class, or during thread teardown.
fn checkout(len: usize) -> Option<Vec<f64>> {
    if !enabled() || len == 0 {
        return None;
    }
    POOL.try_with(|pool| pool.borrow_mut().get_mut(&len).and_then(Vec::pop))
        .ok()
        .flatten()
}

/// Fetches a zero-filled buffer of `len` elements (recycled or fresh).
pub fn take_zeroed(len: usize) -> Vec<f64> {
    match checkout(len) {
        Some(mut buf) => {
            buf.fill(0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Fetches a buffer of `len` elements whose contents are unspecified and
/// must be fully overwritten by the caller. The fresh-allocation path
/// returns zeros, so callers must not rely on garbage being present.
pub fn take_raw(len: usize) -> Vec<f64> {
    match checkout(len) {
        Some(buf) => buf,
        None => vec![0.0; len],
    }
}

/// Returns a buffer to the dropping thread's pool (no-op when disabled,
/// when the buffer is empty, or during thread teardown).
pub fn put(buf: Vec<f64>) {
    let len = buf.len();
    if !enabled() || len == 0 {
        return;
    }
    let _ = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let class = pool.entry(len).or_default();
        if class.len() < class_cap(len) {
            class.push(buf);
        }
    });
}

/// Number of idle buffers currently retained by *this thread's* pool.
pub fn retained_buffers() -> usize {
    POOL.try_with(|pool| pool.borrow().values().map(Vec::len).sum())
        .unwrap_or(0)
}

/// Drops every idle buffer retained by *this thread's* pool.
pub fn clear() {
    let _ = POOL.try_with(|pool| pool.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-wide enable mode.
    fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn round_trip_recycles_capacity() {
        let _guard = mode_lock();
        set_enabled(true);
        clear();
        let a = take_zeroed(64);
        let ptr = a.as_ptr();
        put(a);
        assert_eq!(retained_buffers(), 1);
        let b = take_zeroed(64);
        assert_eq!(b.as_ptr(), ptr, "same-length checkout should recycle");
        assert!(b.iter().all(|&x| x == 0.0));
        clear();
        set_enabled(true);
    }

    #[test]
    fn distinct_lengths_do_not_alias() {
        let _guard = mode_lock();
        set_enabled(true);
        clear();
        put(vec![1.0; 8]);
        let b = take_zeroed(9);
        assert_eq!(b.len(), 9);
        assert!(b.iter().all(|&x| x == 0.0));
        clear();
        set_enabled(true);
    }

    #[test]
    fn disabled_pool_never_retains() {
        let _guard = mode_lock();
        set_enabled(false);
        clear();
        put(vec![1.0; 8]);
        assert_eq!(retained_buffers(), 0);
        assert!(checkout(8).is_none());
        set_enabled(true);
    }

    #[test]
    fn class_cap_bounds_retention() {
        let _guard = mode_lock();
        set_enabled(true);
        clear();
        for _ in 0..CLASS_CAP_COUNT + 10 {
            put(vec![0.0; 4]);
        }
        assert!(retained_buffers() <= CLASS_CAP_COUNT);
        clear();
        set_enabled(true);
    }
}
