//! Shared worker pool and deterministic data-parallel helpers.
//!
//! This is the workspace's single compute substrate for multi-threading:
//! the GEMM/Gram kernels in this crate and the per-layer K-FAC work in
//! `pipefisher-optim` run their tasks through the same persistent pool.
//!
//! # Threading model
//!
//! * The pool holds `max_threads() - 1` worker threads (the caller is the
//!   remaining lane). `max_threads()` comes from the `PIPEFISHER_THREADS`
//!   environment variable, defaulting to the machine's available
//!   parallelism; [`set_max_threads`] overrides it at runtime (tests,
//!   benches).
//! * Workers are spawned lazily on first parallel call and reused for the
//!   process lifetime; tasks travel over a `crossbeam` MPMC channel.
//! * While a caller waits for its tasks it *help-drains* the queue, so the
//!   caller lane is never idle and a queue shared by concurrent scopes
//!   cannot starve anyone.
//! * A task that itself calls into the pool (nested parallelism) runs its
//!   sub-tasks inline on the worker — tasks never block on other tasks, so
//!   the pool cannot deadlock.
//! * Panics inside tasks are caught, the scope still joins every task, and
//!   the first payload is re-thrown on the caller.
//!
//! # Determinism
//!
//! [`par_chunks_mut_aligned`]/[`par_chunks_mut_weighted_aligned`] partition
//! an output buffer into disjoint contiguous row chunks, one task per
//! chunk. Because every output element is written by exactly one task that
//! performs the same accumulation loop (in the same order) as the serial
//! kernel, results are **bitwise identical** to serial execution at any
//! thread count. Inputs smaller than [`par_threshold`] estimated
//! multiply–adds skip the pool entirely.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender, TryRecvError};

/// A type-erased task owned by the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runtime override for [`max_threads`]; 0 means "not set".
static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Minimum estimated multiply–add count before a kernel goes parallel.
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_THRESHOLD);

/// Below ~0.25 MFLOP the fork/join overhead outweighs the kernel work.
const DEFAULT_PAR_THRESHOLD: usize = 250_000;

thread_local! {
    /// True on pool worker threads; nested parallel calls run inline.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Maximum concurrent lanes (caller + workers) a parallel call may use.
///
/// Resolution order: [`set_max_threads`] override, then the
/// `PIPEFISHER_THREADS` environment variable, then the machine's available
/// parallelism (1 if unknown).
pub fn max_threads() -> usize {
    let over = MAX_THREADS_OVERRIDE.load(Ordering::Relaxed);
    if over != 0 {
        return over;
    }
    static FROM_ENV: OnceLock<usize> = OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("PIPEFISHER_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring invalid PIPEFISHER_THREADS={v:?}");
                hardware_threads()
            }
        },
        Err(_) => hardware_threads(),
    })
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Overrides [`max_threads`] process-wide; `0` restores the
/// environment/hardware default. Intended for tests and benches.
pub fn set_max_threads(n: usize) {
    MAX_THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Current serial/parallel cutover in estimated multiply–adds.
pub fn par_threshold() -> usize {
    PAR_THRESHOLD.load(Ordering::Relaxed)
}

/// Sets the serial/parallel cutover (`0` parallelizes everything).
/// Intended for tests and benches.
pub fn set_par_threshold(n: usize) {
    PAR_THRESHOLD.store(n, Ordering::Relaxed);
}

/// Counts completed tasks of one [`run_tasks`] call and holds the first
/// panic payload.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }

    /// Waits briefly for completion; returns whether the latch is done.
    fn wait_a_little(&self) -> bool {
        let left = self.remaining.lock().unwrap();
        if *left == 0 {
            return true;
        }
        let (left, _) = self
            .done
            .wait_timeout(left, Duration::from_micros(200))
            .unwrap();
        *left == 0
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// The persistent pool: a shared job queue plus lazily spawned workers.
struct Pool {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    spawned: Mutex<usize>,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let (tx, rx) = crossbeam::channel::unbounded();
            Pool {
                tx,
                rx,
                spawned: Mutex::new(0),
            }
        })
    }

    /// Ensures at least `want` workers exist; returns how many do.
    fn ensure_workers(&'static self, want: usize) -> usize {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < want {
            let rx = self.rx.clone();
            let name = format!("pipefisher-par-{}", *spawned);
            let res = std::thread::Builder::new().name(name).spawn(move || {
                IN_POOL_WORKER.with(|f| f.set(true));
                while let Ok(job) = rx.recv() {
                    job();
                }
            });
            match res {
                Ok(_) => *spawned += 1,
                Err(_) => break, // thread exhaustion: run with what we have
            }
        }
        *spawned
    }
}

/// Runs every task to completion, using the worker pool when it helps.
///
/// Tasks may borrow local state: the scope blocks until all tasks finish
/// (even when one panics), so borrows cannot escape. The caller executes
/// tasks too — one task is always run inline, and the caller help-drains
/// the queue while waiting. With one lane ([`max_threads`] == 1), on a
/// pool worker (nested parallelism), or when workers cannot be spawned,
/// tasks simply run serially in order on the current thread.
///
/// # Panics
///
/// Re-throws the first panic raised by any task after all tasks joined.
pub fn run_tasks<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    if tasks.is_empty() {
        return;
    }
    // Wall-clock span over the whole fork/join scope (recorded on the
    // caller's track); each task records its own span on whichever worker
    // ran it, so Perfetto shows per-lane pool occupancy.
    let _scope_span = pipefisher_trace::span("par_scope", "pool");
    let lanes = max_threads();
    let inline = lanes <= 1 || tasks.len() == 1 || IN_POOL_WORKER.with(|f| f.get());
    if inline {
        for task in tasks {
            let _task_span = pipefisher_trace::span("par_task", "pool");
            task();
        }
        return;
    }
    let pool = Pool::global();
    if pool.ensure_workers(lanes - 1) == 0 {
        for task in tasks {
            task();
        }
        return;
    }

    let latch = std::sync::Arc::new(Latch::new(tasks.len()));
    let mut queued = Vec::with_capacity(tasks.len());
    for task in tasks {
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new({
            let latch = std::sync::Arc::clone(&latch);
            move || {
                let task_span = pipefisher_trace::span("par_task", "pool");
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    latch.record_panic(payload);
                }
                // Record the span before the count-down releases the
                // caller, or a drain right after the scope could miss it.
                drop(task_span);
                latch.count_down();
            }
        });
        // SAFETY: the job borrows `'scope` data (the latch itself is
        // Arc-owned). This function does not return before the latch
        // reports every job complete, so no borrow outlives its referent.
        let wrapped: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped) };
        queued.push(wrapped);
    }
    // Keep the last job for this thread; offer the rest to the workers.
    let own = queued.pop().expect("tasks is non-empty");
    for job in queued {
        if pool.tx.send(job).is_err() {
            unreachable!("pool receiver lives in the static Pool");
        }
    }
    own();
    // Help-drain until our latch opens. Jobs pulled here may belong to a
    // concurrent scope; running them is correct (their latch counts down)
    // and keeps this lane busy instead of parked.
    while !latch.is_done() {
        match pool.rx.try_recv() {
            Ok(job) => job(),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {
                if latch.wait_a_little() {
                    break;
                }
            }
        }
    }
    let payload = latch.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Splits `out` (a `rows × row_width` row-major buffer) into contiguous
/// per-task row chunks and calls `body(first_row, chunk)` on each, in
/// parallel when `work` (estimated multiply–adds) clears [`par_threshold`].
/// Chunk boundaries are rounded down to multiples of `align`, so lanes
/// split on micro-panel boundaries (the GEMM kernels pass
/// [`crate::kernel::ROW_ALIGN`] to avoid ragged register tiles at every
/// lane seam); alignment only moves boundaries.
///
/// Each chunk is written by exactly one task, so any kernel whose per-row
/// accumulation order does not depend on the partition produces bitwise
/// identical output at every thread count — see the module docs.
pub fn par_chunks_mut_aligned<F>(
    out: &mut [f64],
    rows: usize,
    row_width: usize,
    align: usize,
    work: usize,
    body: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    par_chunks_mut_weighted_aligned(out, rows, row_width, align, work, |_| 1, body)
}

/// Like [`par_chunks_mut_aligned`], but chunk boundaries balance
/// `weight(row)` (relative cost of a row) instead of row counts — e.g. the
/// Gram kernel's upper-triangle rows shrink linearly, so equal row counts
/// would leave the last lane nearly idle.
pub fn par_chunks_mut_weighted_aligned<W, F>(
    out: &mut [f64],
    rows: usize,
    row_width: usize,
    align: usize,
    work: usize,
    weight: W,
    body: F,
) where
    W: Fn(usize) -> usize,
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert_eq!(out.len(), rows * row_width, "par_chunks_mut: buffer shape");
    let lanes = effective_lanes(rows, work);
    if lanes <= 1 {
        body(0, out);
        return;
    }
    let bounds = weighted_bounds(rows, lanes, align, weight);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = out;
    let mut consumed = 0usize;
    for win in bounds.windows(2) {
        let (start, end) = (win[0], win[1]);
        let (chunk, tail) = rest.split_at_mut((end - start) * row_width);
        rest = tail;
        consumed = end;
        let body = &body;
        tasks.push(Box::new(move || body(start, chunk)));
    }
    debug_assert_eq!(consumed, rows);
    run_tasks(tasks);
}

/// Runs `body(start, end)` over a weighted partition of `[0, rows)`, one
/// task per lane, without handing out buffer chunks — for kernels whose
/// lanes write disjoint row ranges of a shared buffer through raw pointers
/// (e.g. the Gram mirror, whose reads come from rows no task writes).
/// The caller is responsible for that disjointness; this helper only
/// guarantees the ranges tile `[0, rows)` exactly once.
pub fn par_row_ranges<W, F>(rows: usize, work: usize, weight: W, body: F)
where
    W: Fn(usize) -> usize,
    F: Fn(usize, usize) + Sync,
{
    if rows == 0 {
        return;
    }
    let lanes = effective_lanes(rows, work);
    if lanes <= 1 {
        body(0, rows);
        return;
    }
    let bounds = weighted_bounds(rows, lanes, 1, weight);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(bounds.len() - 1);
    for win in bounds.windows(2) {
        let (start, end) = (win[0], win[1]);
        let body = &body;
        tasks.push(Box::new(move || body(start, end)));
    }
    run_tasks(tasks);
}

/// Lanes a kernel of `rows` output rows and `work` multiply–adds should
/// use: 1 (serial) below the threshold, else `min(max_threads, rows)`.
fn effective_lanes(rows: usize, work: usize) -> usize {
    if work < par_threshold() || IN_POOL_WORKER.with(|f| f.get()) {
        return 1;
    }
    max_threads().min(rows.max(1))
}

/// Chunk boundaries `b_0 = 0 < b_1 < … < b_t = rows` splitting total
/// `weight` as evenly as `t = lanes` contiguous pieces allow. Interior
/// boundaries are rounded down to multiples of `align` (the final boundary
/// stays `rows`); a boundary that rounds onto its predecessor is dropped,
/// costing a lane rather than breaking alignment.
fn weighted_bounds<W: Fn(usize) -> usize>(
    rows: usize,
    lanes: usize,
    align: usize,
    weight: W,
) -> Vec<usize> {
    let align = align.max(1);
    let total: usize = (0..rows).map(&weight).sum::<usize>().max(1);
    let mut bounds = Vec::with_capacity(lanes + 1);
    bounds.push(0);
    let mut acc = 0usize;
    let mut next_quota = 1usize;
    for row in 0..rows {
        acc += weight(row);
        // Close a chunk once its share of the total is reached, but never
        // emit more boundaries than lanes.
        while next_quota < lanes && acc * lanes >= total * next_quota {
            let b = (row + 1) / align * align;
            if b > *bounds.last().expect("bounds starts non-empty") && b < rows {
                bounds.push(b);
            }
            next_quota += 1;
        }
    }
    bounds.push(rows);
    bounds.dedup();
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that mutate the process-wide thread settings.
    fn settings_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn run_tasks_executes_everything() {
        let hits = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..32)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1 << (i % 60), Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(tasks);
        assert_ne!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn chunks_cover_rows_exactly_once() {
        let _guard = settings_lock();
        set_max_threads(4);
        set_par_threshold(0);
        let rows = 37;
        let width = 3;
        let mut out = vec![0.0f64; rows * width];
        par_chunks_mut_aligned(&mut out, rows, width, 1, usize::MAX, |start, chunk| {
            for (r, row) in chunk.chunks_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v += (start + r) as f64;
                }
            }
        });
        for r in 0..rows {
            for c in 0..width {
                assert_eq!(out[r * width + c], r as f64, "row {r} col {c}");
            }
        }
        set_max_threads(0);
        set_par_threshold(DEFAULT_PAR_THRESHOLD);
    }

    #[test]
    fn weighted_bounds_balance_triangle_work() {
        // Rows of weight (rows - i): lane loads should be within ~2 rows'
        // weight of each other, unlike the naive equal-rows split.
        let rows = 100;
        let bounds = weighted_bounds(rows, 4, 1, |i| rows - i);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), rows);
        let loads: Vec<usize> = bounds
            .windows(2)
            .map(|w| (w[0]..w[1]).map(|i| rows - i).sum())
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "unbalanced loads {loads:?}");
    }

    #[test]
    fn aligned_bounds_sit_on_multiples() {
        for &(rows, lanes, align) in &[(100, 4, 8), (37, 4, 8), (8, 4, 8), (64, 3, 4)] {
            let bounds = weighted_bounds(rows, lanes, align, |_| 1);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), rows);
            for win in bounds.windows(2) {
                assert!(win[0] < win[1], "non-increasing bounds {bounds:?}");
            }
            for &b in &bounds[1..bounds.len() - 1] {
                assert_eq!(b % align, 0, "interior bound {b} not {align}-aligned");
            }
        }
    }

    #[test]
    fn row_ranges_tile_exactly_once() {
        let _guard = settings_lock();
        set_max_threads(4);
        set_par_threshold(0);
        let rows = 53;
        let hits: Vec<AtomicU64> = (0..rows).map(|_| AtomicU64::new(0)).collect();
        par_row_ranges(
            rows,
            usize::MAX,
            |i| i + 1,
            |start, end| {
                for h in &hits[start..end] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        for (r, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "row {r}");
        }
        set_max_threads(0);
        set_par_threshold(DEFAULT_PAR_THRESHOLD);
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        let _guard = settings_lock();
        set_max_threads(4);
        set_par_threshold(0);
        let mut outer = vec![0.0f64; 8];
        par_chunks_mut_aligned(&mut outer, 8, 1, 1, usize::MAX, |start, chunk| {
            // A nested call from a task must not deadlock.
            let mut inner = vec![0.0f64; 4];
            par_chunks_mut_aligned(&mut inner, 4, 1, 1, usize::MAX, |s, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = (s + i) as f64;
                }
            });
            let total: f64 = inner.iter().sum();
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = total + (start + i) as f64;
            }
        });
        for (r, v) in outer.iter().enumerate() {
            assert_eq!(*v, 6.0 + r as f64);
        }
        set_max_threads(0);
        set_par_threshold(DEFAULT_PAR_THRESHOLD);
    }

    #[test]
    fn pool_emits_spans_when_tracing() {
        let _guard = settings_lock();
        set_max_threads(2);
        let _ = pipefisher_trace::drain();
        pipefisher_trace::set_enabled(true);
        let hits = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(tasks);
        pipefisher_trace::set_enabled(false);
        set_max_threads(0);
        let events = pipefisher_trace::drain();
        // Concurrent tests may contribute extra spans; ours must be there.
        let task_spans = events.iter().filter(|e| e.name == "par_task").count();
        assert!(
            task_spans >= 8,
            "expected >= 8 task spans, got {task_spans}"
        );
        assert!(events.iter().any(|e| e.name == "par_scope"));
        assert!(events
            .iter()
            .filter(|e| e.phase == pipefisher_trace::Phase::Complete)
            .all(|e| e.ts_us >= 0.0 && e.dur_us >= 0.0));
    }

    #[test]
    fn panics_propagate_after_join() {
        let _guard = settings_lock();
        set_max_threads(4);
        let result = std::panic::catch_unwind(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        if i == 5 {
                            panic!("task 5 exploded");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            run_tasks(tasks);
        });
        set_max_threads(0);
        let payload = result.expect_err("panic should propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 5 exploded");
    }
}
