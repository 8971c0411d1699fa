//! A persistent worker pool, kept only because the repository
//! benchmark (`benchmark/src/probes.rs`) measures its dispatch cost.
//!
//! Nothing in the simulator uses it: every simulation steps on one
//! thread, and whole simulations are the only parallelism (the
//! sweep's and the paper binary's `loft_bench::map_jobs` lanes).
//! ROADMAP item 2 deletes this module together with the benchmark's
//! probe of it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A type-erased job: `call(data, i)` runs task `i` of the closure
/// behind `data`.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer targets a `Fn(usize) + Sync` closure that
// `WorkerPool::run` keeps alive (and exclusively published) until
// every worker has left the job.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per `run`; workers use it to recognize new jobs.
    epoch: u64,
    job: Option<Job>,
    /// Number of tasks in the current job.
    tasks: usize,
    /// Workers currently inside the current job's claim loop.
    active: usize,
    shutdown: bool,
    /// First panic payload caught from a task this run.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers that a new job (or shutdown) is available.
    work: Condvar,
    /// Signals the coordinator that the job completed.
    done: Condvar,
    /// Next unclaimed task index of the current job.
    cursor: AtomicUsize,
    /// Completed tasks of the current job.
    finished: AtomicUsize,
    /// Lock-free mirror of `epoch` for the workers' pre-park spin.
    epoch_hint: AtomicU64,
}

/// How long workers (and the coordinator) spin on the lock-free
/// epoch/finished mirrors before parking on a condvar. Back-to-back
/// dispatches arrive within microseconds, so a short spin usually
/// catches the next one without a futex round trip; the bound keeps
/// the waste negligible when the pool goes idle.
const SPIN: u32 = 256;

/// A persistent pool of worker threads executing indexed task batches
/// with a completion barrier.
///
/// [`WorkerPool::run`] publishes a closure and a task count; workers
/// (plus the calling thread) claim task indices off a shared atomic
/// cursor and `run` returns only when every task has finished *and*
/// every worker has left the job — so the closure may borrow local
/// state, and the next `run` can never race a straggler. Between runs
/// the workers park on a condvar after a short spin; the steady state
/// allocates nothing.
///
/// `run` takes `&mut self`: one job at a time, enforced at compile
/// time.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

unsafe fn call_thunk<F: Fn(usize)>(data: *const (), i: usize) {
    // SAFETY: `data` was produced from `&F` in `run`, which outlives
    // the job (see `Job`'s safety comment).
    let f = unsafe { &*data.cast::<F>() };
    f(i);
}

impl WorkerPool {
    /// A pool with `workers` background threads. `run` also executes
    /// tasks on the calling thread, so a pool for `k`-way parallelism
    /// wants `k - 1` workers; `workers == 0` is valid and makes `run`
    /// purely sequential.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                tasks: 0,
                active: 0,
                shutdown: false,
                panic: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            epoch_hint: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("noc-par-worker".into())
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Runs `f(i)` for every `i in 0..tasks`, in parallel across the
    /// pool plus the calling thread, returning when all tasks are
    /// done. Tasks are claimed dynamically, so which thread runs
    /// which index is unspecified — callers must make task outcomes
    /// schedule-independent (disjoint state per index).
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is resumed on the calling thread
    /// after the batch completes (remaining tasks still run).
    pub fn run<F: Fn(usize) + Sync>(&mut self, tasks: usize, f: &F) {
        if tasks == 0 {
            return;
        }
        let job = Job {
            data: std::ptr::from_ref(f).cast::<()>(),
            call: call_thunk::<F>,
        };
        self.shared.cursor.store(0, Ordering::SeqCst);
        self.shared.finished.store(0, Ordering::SeqCst);
        {
            let mut st = self.shared.state.lock().expect("pool lock poisoned");
            debug_assert!(st.job.is_none(), "WorkerPool::run re-entered");
            st.job = Some(job);
            st.tasks = tasks;
            st.epoch += 1;
            self.shared.epoch_hint.store(st.epoch, Ordering::Release);
        }
        self.shared.work.notify_all();
        // The coordinator participates in the claim loop.
        Self::work_batch(&self.shared, job, tasks);
        // Wait until every task finished AND every worker left the
        // claim loop: only then is it safe to invalidate `job` (and
        // for the caller's borrows to end).
        for _ in 0..SPIN {
            if self.shared.finished.load(Ordering::Acquire) == tasks {
                break;
            }
            std::hint::spin_loop();
        }
        let mut st = self.shared.state.lock().expect("pool lock poisoned");
        while self.shared.finished.load(Ordering::Acquire) != tasks || st.active != 0 {
            st = self.shared.done.wait(st).expect("pool lock poisoned");
        }
        st.job = None;
        if let Some(payload) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(payload);
        }
    }

    /// The shared claim loop: grab the next unclaimed index, run it,
    /// count it finished; signal `done` on the last one.
    fn work_batch(shared: &PoolShared, job: Job, tasks: usize) {
        loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: `job` is live for the duration of the batch
                // (see `Job`).
                unsafe { (job.call)(job.data, i) }
            }));
            if let Err(payload) = outcome {
                let mut st = shared.state.lock().expect("pool lock poisoned");
                st.panic.get_or_insert(payload);
            }
            if shared.finished.fetch_add(1, Ordering::AcqRel) + 1 == tasks {
                // Empty critical section: pairs with the coordinator's
                // check-then-wait under the same lock.
                drop(shared.state.lock().expect("pool lock poisoned"));
                shared.done.notify_all();
            }
        }
    }

    fn worker_loop(shared: &PoolShared) {
        let mut seen_epoch = 0u64;
        loop {
            // Lock-free pre-park spin: back-to-back dispatches republish
            // within microseconds.
            for _ in 0..SPIN {
                if shared.epoch_hint.load(Ordering::Acquire) != seen_epoch {
                    break;
                }
                std::hint::spin_loop();
            }
            let (job, tasks) = {
                let mut st = shared.state.lock().expect("pool lock poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch != seen_epoch {
                        if let Some(job) = st.job {
                            seen_epoch = st.epoch;
                            st.active += 1;
                            break (job, st.tasks);
                        }
                        // The job already completed; skip this epoch.
                        seen_epoch = st.epoch;
                    }
                    st = shared.work.wait(st).expect("pool lock poisoned");
                }
            };
            Self::work_batch(shared, job, tasks);
            let mut st = shared.state.lock().expect("pool lock poisoned");
            st.active -= 1;
            if st.active == 0 {
                drop(st);
                shared.done.notify_all();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let mut pool = WorkerPool::new(3);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(counts.len(), &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn pool_with_zero_workers_is_sequential() {
        let mut pool = WorkerPool::new(0);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn pool_propagates_task_panics() {
        let mut pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                assert!(i != 5, "boom");
            });
        }));
        assert!(caught.is_err());
        // The pool survives and runs the next batch normally.
        let sum = AtomicUsize::new(0);
        pool.run(4, &|i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }
}
