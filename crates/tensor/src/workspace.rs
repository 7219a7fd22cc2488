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
//! involved: each thread (a pipeline stage worker, the coordinator) owns
//! an independent arena. A dropped buffer joins the dropping thread's pool
//! only while that pool holds fewer idle buffers of its length than the
//! thread has itself allocated fresh, so a thread handed a length it never
//! asks for frees it: the coordinator drops the K-FAC state the owners
//! hand back after a pipelined run, ~19 MB at the benchmark's mid shape.
//! Results are unaffected — the arena recycles *capacity*, never
//! values ([`take_zeroed`] clears before handing out), so every kernel
//! remains bitwise identical to a freshly allocating run.
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
/// this many bytes of idle buffers. With the count cap it bounds a thread
/// whose buffers leave it: each one it sends away and allocates again
/// raises its demand for the length.
const CLASS_CAP_BYTES: usize = 64 << 20;

/// Hard per-class cap on idle buffer *count*, independent of size. It must
/// cover the buffers of one length a thread holds at once, or they are
/// freed and allocated again every step: a pipeline device with every
/// micro-batch in flight holds one activation tape each, ~10 same-shape
/// matrices per block per tape (GPipe at N = 4 on two one-block stages
/// already exceeds 32).
const CLASS_CAP_COUNT: usize = 128;

/// One length's idle buffers on this thread, and how many buffers of that
/// length this thread has allocated fresh: the most idle ones it keeps.
#[derive(Default)]
struct Class {
    idle: Vec<Vec<f64>>,
    fresh: usize,
}

thread_local! {
    /// Length-keyed free lists of recycled buffers for this thread.
    static POOL: RefCell<HashMap<usize, Class>> = RefCell::new(HashMap::new());
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
/// is empty for this class (counting the fresh buffer the caller then
/// allocates), or during thread teardown.
fn checkout(len: usize) -> Option<Vec<f64>> {
    if !enabled() || len == 0 {
        return None;
    }
    POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let class = pool.entry(len).or_default();
        let buf = class.idle.pop();
        class.fresh += usize::from(buf.is_none());
        buf
    })
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

/// Returns a buffer to the dropping thread's pool while that pool holds
/// fewer idle buffers of its length than the thread's demand and the class
/// caps, else frees it (no-op when disabled, empty, or in thread teardown).
pub fn put(buf: Vec<f64>) {
    let len = buf.len();
    if !enabled() || len == 0 {
        return;
    }
    let _ = POOL.try_with(|pool| {
        if let Some(class) = pool.borrow_mut().get_mut(&len) {
            if class.idle.len() < class.fresh.min(class_cap(len)) {
                class.idle.push(buf);
            }
        }
    });
}

/// Number of idle buffers currently retained by *this thread's* pool.
pub fn retained_buffers() -> usize {
    POOL.try_with(|pool| pool.borrow().values().map(|c| c.idle.len()).sum())
        .unwrap_or(0)
}

/// Drops every idle buffer retained by *this thread's* pool, and forgets
/// the thread's demand with them.
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
        // This thread's demand for the length exceeds the count cap.
        let bufs: Vec<_> = (0..CLASS_CAP_COUNT + 10).map(|_| take_raw(4)).collect();
        bufs.into_iter().for_each(put);
        assert_eq!(retained_buffers(), CLASS_CAP_COUNT);
        clear();
        set_enabled(true);
    }

    #[test]
    fn a_thread_keeps_only_the_lengths_it_allocates() {
        let _guard = mode_lock();
        set_enabled(true);
        clear();
        let foreign = std::thread::spawn(|| crate::Matrix::zeros(6, 8));
        drop(foreign.join().unwrap());
        assert_eq!(retained_buffers(), 0, "kept a length it never allocated");
        put(vec![0.0; 48]);
        assert_eq!(retained_buffers(), 0, "kept a buffer it never allocated");

        // Demand is a count: two fresh buffers let two idle ones stay.
        let (a, b) = (take_zeroed(48), take_zeroed(48));
        put(a);
        put(b);
        put(vec![0.0; 48]);
        assert_eq!(retained_buffers(), 2);
        clear();
        set_enabled(true);
    }
}
