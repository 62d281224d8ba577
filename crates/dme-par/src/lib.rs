//! Minimal fork-join data-parallel runtime for the dose-map hot paths.
//!
//! The build environment has no access to crates.io, so `rayon` cannot be
//! fetched; this crate is a small, dependency-free work-alike covering
//! what the solvers and the STA engine need:
//!
//! - a **persistent thread pool** (workers park on a condvar between
//!   jobs, so per-call overhead is a few microseconds, not a thread
//!   spawn) sized by `RAYON_NUM_THREADS` / `DME_NUM_THREADS` or the
//!   machine's available parallelism;
//! - index-space fork-join primitives: [`par_fill`], [`par_chunks_mut`],
//!   [`par_reduce_sum`];
//! - **deterministic vector kernels** ([`vecops`]): reductions are always
//!   computed over a fixed chunk decomposition and the per-chunk partials
//!   summed in chunk order, so results are *bitwise identical* between
//!   the serial and parallel paths and independent of the thread count;
//! - a global force-serial switch ([`set_force_serial`], or the
//!   `DME_FORCE_SERIAL=1` environment variable) for A/B benchmarking and
//!   equivalence tests.
//!
//! Nested parallel calls (a task spawning parallel work) degrade to
//! inline serial execution rather than deadlocking.

#![deny(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod vecops;

/// Work-chunk size used by the deterministic vector kernels. Fixed (not
/// thread-count-derived) so the reduction tree never changes shape.
pub const VEC_GRAIN: usize = 4096;

/// Minimum element count before the vector kernels go parallel; below
/// this the fork-join overhead dominates.
pub const VEC_PAR_CUTOFF: usize = 16 * 1024;

static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set while this thread executes a pool task; nested parallel calls
    /// run inline instead of re-entering the pool.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Globally forces all primitives onto their serial path (used by the
/// equivalence proptests and the serial legs of the benchmarks).
pub fn set_force_serial(force: bool) {
    FORCE_SERIAL.store(force, Ordering::Relaxed);
}

/// Whether the serial path is currently forced.
pub fn force_serial() -> bool {
    FORCE_SERIAL.load(Ordering::Relaxed)
}

/// The configured pool width (worker threads + the calling thread). At
/// least 1; does not reflect [`force_serial`].
pub fn num_threads() -> usize {
    pool().workers + 1
}

/// Whether this build was compiled with the `parallel` feature (run
/// manifests report this so results can be attributed to a build mode).
pub fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// The parallelism a fork-join primitive would *actually* get right now:
/// 1 when the pool is width 1, the serial switch is on, or the caller is
/// already inside a pool task (nested calls run inline); the pool width
/// otherwise. Dispatch layers should consult this — not [`num_threads`] —
/// when deciding whether a parallel code path is worth its setup cost: on
/// a 1-thread pool [`run_tasks`] degrades to an inline serial loop, so a
/// "parallel" algorithm variant pays its partitioning overhead for
/// nothing.
pub fn effective_parallelism() -> usize {
    if force_serial() || IN_POOL_TASK.with(|f| f.get()) {
        1
    } else {
        num_threads()
    }
}

/// Whether a parallel primitive over `len` elements would actually fan
/// out right now.
pub fn would_parallelize(len: usize, cutoff: usize) -> bool {
    len >= cutoff && num_threads() > 1 && !force_serial() && !IN_POOL_TASK.with(|f| f.get())
}

fn configured_threads() -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    for var in ["DME_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counters shared between the submitter and the workers for one job.
struct JobCounters {
    next: AtomicUsize,
    finished: AtomicUsize,
    total: usize,
    panicked: AtomicBool,
}

/// A type-erased pointer to the job closure, valid only while the
/// submitting call is blocked in [`Pool::run`].
#[derive(Clone, Copy)]
struct JobFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the closure is Sync and the pointer is only dereferenced while
// the submitter keeps the referent alive (it blocks until all tasks
// finish before returning).
unsafe impl Send for JobFn {}

struct JobSlot {
    generation: u64,
    job: Option<(JobFn, Arc<JobCounters>)>,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    work_cv: Condvar,
    done_cv: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    /// Number of worker threads (the submitter participates too).
    workers: usize,
    /// Serializes submitters so only one job is in flight at a time.
    submit_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        if std::env::var("DME_FORCE_SERIAL").is_ok_and(|v| v == "1") {
            set_force_serial(true);
        }
        let threads = configured_threads();
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot {
                generation: 0,
                job: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dme-par-{w}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        Pool {
            shared,
            workers,
            submit_lock: Mutex::new(()),
        }
    })
}

fn worker_loop(shared: &PoolShared) {
    let mut last_seen = 0u64;
    loop {
        let (f, counters) = {
            let mut slot = shared.slot.lock().expect("pool slot poisoned");
            loop {
                if slot.generation != last_seen {
                    if let Some(job) = &slot.job {
                        last_seen = slot.generation;
                        break (job.0, Arc::clone(&job.1));
                    }
                    // Generation advanced but the job was already cleared.
                    last_seen = slot.generation;
                }
                slot = shared.work_cv.wait(slot).expect("pool slot poisoned");
            }
        };
        IN_POOL_TASK.with(|flag| flag.set(true));
        run_job_tasks(&f, &counters, shared);
        IN_POOL_TASK.with(|flag| flag.set(false));
    }
}

fn run_job_tasks(f: &JobFn, counters: &JobCounters, shared: &PoolShared) {
    loop {
        let i = counters.next.fetch_add(1, Ordering::Relaxed);
        if i >= counters.total {
            break;
        }
        // SAFETY: see `JobFn` — the closure outlives every claimed task.
        let closure = unsafe { &*f.0 };
        if catch_unwind(AssertUnwindSafe(|| closure(i))).is_err() {
            counters.panicked.store(true, Ordering::Relaxed);
        }
        if counters.finished.fetch_add(1, Ordering::AcqRel) + 1 == counters.total {
            let _guard = shared.slot.lock().expect("pool slot poisoned");
            shared.done_cv.notify_all();
        }
    }
}

/// Runs `f(0), f(1), …, f(num_tasks - 1)` across the pool and the calling
/// thread, returning when every task has completed. Falls back to an
/// inline serial loop when the pool is width 1, the serial switch is on,
/// or the call is nested inside another pool task.
///
/// # Panics
///
/// Panics if any task panicked (after all tasks have finished).
pub fn run_tasks(num_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    if num_tasks == 0 {
        return;
    }
    let p = pool();
    if num_tasks == 1 || p.workers == 0 || force_serial() || IN_POOL_TASK.with(|g| g.get()) {
        for i in 0..num_tasks {
            f(i);
        }
        return;
    }
    let _submit = p.submit_lock.lock().expect("submit lock poisoned");
    let counters = Arc::new(JobCounters {
        next: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        total: num_tasks,
        panicked: AtomicBool::new(false),
    });
    // SAFETY: erases the borrow lifetime; the pointer is only used while
    // this call keeps `f` alive (we block until all tasks finish).
    let job = JobFn(unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    });
    {
        let mut slot = p.shared.slot.lock().expect("pool slot poisoned");
        slot.generation += 1;
        slot.job = Some((job, Arc::clone(&counters)));
        p.shared.work_cv.notify_all();
    }
    // The submitter works too (and is usually the one draining the queue
    // on small jobs). It is inside a pool task for the duration: nested
    // parallel calls from its tasks must run inline, both for the no-
    // deadlock contract (the submit lock is held) and so dispatch layers
    // see `effective_parallelism() == 1` from within a task.
    IN_POOL_TASK.with(|flag| flag.set(true));
    run_job_tasks(&job, &counters, &p.shared);
    IN_POOL_TASK.with(|flag| flag.set(false));
    // Wait for tasks claimed by workers.
    {
        let mut slot = p.shared.slot.lock().expect("pool slot poisoned");
        while counters.finished.load(Ordering::Acquire) < counters.total {
            slot = p.shared.done_cv.wait(slot).expect("pool slot poisoned");
        }
        slot.job = None;
    }
    assert!(
        !counters.panicked.load(Ordering::Relaxed),
        "a parallel task panicked"
    );
}

/// Pointer wrapper that lets tasks write disjoint regions of one buffer.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor through `&self` so closures capture the whole (Sync)
    /// wrapper rather than the raw-pointer field (edition-2021 closures
    /// capture individual fields otherwise).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Number of `grain`-sized chunks covering `len` elements.
fn chunk_count(len: usize, grain: usize) -> usize {
    len.div_ceil(grain.max(1))
}

/// Fills `out[i] = f(i)` for every index, parallelizing over
/// `grain`-sized index blocks.
pub fn par_fill<R: Send>(out: &mut [R], grain: usize, f: impl Fn(usize) -> R + Sync) {
    let len = out.len();
    let grain = grain.max(1);
    let tasks = chunk_count(len, grain);
    let base = SendPtr(out.as_mut_ptr());
    run_tasks(tasks, &move |t| {
        let start = t * grain;
        let end = (start + grain).min(len);
        for i in start..end {
            // SAFETY: tasks cover disjoint index ranges of `out`, which
            // outlives the call (run_tasks blocks until completion).
            unsafe { base.get().add(i).write(f(i)) };
        }
    });
}

/// Calls `f(chunk_start, chunk)` over consecutive `grain`-sized chunks of
/// `data`, in parallel.
pub fn par_chunks_mut<T: Send>(data: &mut [T], grain: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    let grain = grain.max(1);
    let tasks = chunk_count(len, grain);
    let base = SendPtr(data.as_mut_ptr());
    run_tasks(tasks, &move |t| {
        let start = t * grain;
        let end = (start + grain).min(len);
        // SAFETY: chunks are disjoint and `data` outlives the call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(start, chunk);
    });
}

/// Sums `f(start..end)` over the fixed `grain` decomposition of `0..len`.
///
/// The decomposition — and therefore the floating-point reduction order —
/// depends only on `len` and `grain`, never on the thread count, so the
/// serial and parallel paths produce bitwise-identical sums.
pub fn par_reduce_sum(
    len: usize,
    grain: usize,
    f: impl Fn(std::ops::Range<usize>) -> f64 + Sync,
) -> f64 {
    let grain = grain.max(1);
    let tasks = chunk_count(len, grain);
    if tasks <= 1 {
        return if len == 0 { 0.0 } else { f(0..len) };
    }
    let mut partials = vec![0.0f64; tasks];
    {
        let base = SendPtr(partials.as_mut_ptr());
        run_tasks(tasks, &move |t| {
            let start = t * grain;
            let end = (start + grain).min(len);
            // SAFETY: one disjoint slot per task; `partials` outlives the call.
            unsafe { base.get().add(t).write(f(start..end)) };
        });
    }
    partials.iter().sum()
}

/// Serializes the unit tests that flip or read the process-global serial
/// switch, so one test's `set_force_serial(true)` never lands inside
/// another's check.
#[cfg(test)]
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
fn lock_switch() -> std::sync::MutexGuard<'static, ()> {
    SWITCH_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_fill_matches_serial() {
        let n = 100_000;
        let mut par = vec![0u64; n];
        par_fill(&mut par, 1024, |i| {
            (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
        });
        for (i, v) in par.iter().enumerate() {
            assert_eq!(*v, (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        }
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        let n = 70_001;
        let mut data = vec![0usize; n];
        par_chunks_mut(&mut data, 997, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn reduce_sum_is_thread_count_independent() {
        let _switch = lock_switch();
        let n = 250_000;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let par = par_reduce_sum(n, VEC_GRAIN, |r| xs[r].iter().sum());
        set_force_serial(true);
        let ser = par_reduce_sum(n, VEC_GRAIN, |r| xs[r].iter().sum());
        set_force_serial(false);
        assert_eq!(
            par.to_bits(),
            ser.to_bits(),
            "reduction order must be fixed"
        );
    }

    #[test]
    fn nested_calls_run_inline() {
        let n = 10_000;
        let mut out = vec![0.0f64; n];
        par_chunks_mut(&mut out, 100, |start, chunk| {
            // A nested reduction inside a task must not deadlock.
            let s = par_reduce_sum(10, 2, |r| r.start as f64 + r.len() as f64);
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = s + (start + k) as f64;
            }
        });
        assert!(out.iter().zip(0..).all(|(v, i)| *v >= i as f64));
    }

    #[test]
    fn one_thread_dispatch_is_inline_serial() {
        let _switch = lock_switch();
        // With the serial switch on, a "parallel" run must execute every
        // task inline on the calling thread in index order — exactly the
        // dispatch a width-1 pool gets. This pins the contract that
        // 1-thread parallel == serial (no cross-thread handoff, no
        // reordering), which the STA engine's Auto mode relies on.
        set_force_serial(true);
        assert_eq!(effective_parallelism(), 1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        run_tasks(64, &|i| {
            assert_eq!(std::thread::current().id(), caller, "task {i} migrated");
            order.lock().unwrap().push(i);
        });
        set_force_serial(false);
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..64).collect::<Vec<_>>(), "inline order");
    }

    #[test]
    fn effective_parallelism_reflects_context() {
        let _switch = lock_switch();
        assert_eq!(effective_parallelism(), num_threads());
        set_force_serial(true);
        assert_eq!(effective_parallelism(), 1);
        set_force_serial(false);
        // Inside a pool task, nested primitives run inline.
        let mut seen = vec![0usize; 4];
        par_chunks_mut(&mut seen, 1, |_, chunk| {
            chunk[0] = effective_parallelism();
        });
        if num_threads() > 1 {
            assert!(seen.iter().all(|&p| p == 1), "nested: {seen:?}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: [f64; 0] = [];
        par_fill(&mut empty, 8, |_| 0.0);
        par_chunks_mut(&mut empty, 8, |_, _| {});
        assert_eq!(par_reduce_sum(0, 8, |_| 1.0), 0.0);
    }
}
