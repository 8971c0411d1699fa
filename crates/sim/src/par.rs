//! Deterministic sharded parallel stepping: the persistent worker
//! pool and contiguous shard partitioning.
//!
//! LOFT runs one phase of its cycle on several *shards* at once:
//! contiguous node ranges from [`partition`], each handled by one
//! [`WorkerPool`] task. That phase, data-quantum arrival, writes only
//! the receiving shard's input ports, and every other phase is
//! serial, so the only thing sharding changes is who runs that one
//! loop: no event crosses a shard boundary inside it, and there is
//! nothing to merge afterwards. The VC networks step on one thread.
//!
//! The [`WorkerPool`] is persistent: threads are spawned once and
//! parked on a condvar between dispatches, so the steady state
//! performs no thread spawns and no heap allocation. [`SendPtr`]
//! carries the base pointers of the per-node arrays into the pool
//! tasks, which cut them into disjoint per-shard slices.
//! [`pool_map`] runs independent jobs (whole simulations, for the
//! sweep runner) on the same kind of pool.
//!
//! # Determinism contract
//!
//! Work items are claimed off an atomic cursor, so *which thread*
//! runs a shard is nondeterministic — but shards own disjoint state
//! and the parallel phase records no telemetry, so the simulation
//! outcome never depends on the schedule. The golden determinism pins
//! run at 1, 2, and 4 shards to hold that contract.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A contiguous range of node indices owned by one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First node index (inclusive).
    pub lo: usize,
    /// One past the last node index (exclusive).
    pub hi: usize,
}

impl ShardRange {
    /// Number of nodes in the range.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the range holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether `node` belongs to this shard.
    #[must_use]
    pub fn contains(&self, node: usize) -> bool {
        self.lo <= node && node < self.hi
    }
}

/// Splits `n` nodes into `shards` contiguous ranges whose sizes
/// differ by at most one (larger ranges first). `shards` is clamped
/// to `1..=n` (for `n > 0`), so every returned range is nonempty.
#[must_use]
pub fn partition(n: usize, shards: usize) -> Vec<ShardRange> {
    let k = shards.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut lo = 0;
    for s in 0..k {
        let size = base + usize::from(s < extra);
        ranges.push(ShardRange { lo, hi: lo + size });
        lo += size;
    }
    ranges
}

/// The node → shard index map for a partition from [`partition`].
#[must_use]
pub fn shard_map(ranges: &[ShardRange]) -> Vec<u32> {
    let n = ranges.last().map_or(0, |r| r.hi);
    let mut map = vec![0u32; n];
    for (s, r) in ranges.iter().enumerate() {
        map[r.lo..r.hi].fill(s as u32);
    }
    map
}

/// A raw pointer that may be smuggled into pool tasks.
///
/// Sharded stepping splits global per-node arrays into disjoint
/// per-shard slices *inside* the pool closure (safe `split_at_mut`
/// chains cannot cross the closure boundary). `SendPtr` carries the
/// base pointer across threads; the `T: Send` bound on its `Send`/
/// `Sync` impls keeps the compiler enforcing that the pointee itself
/// may move between threads.
///
/// # Safety contract for users
///
/// Dereferencing (e.g. via `std::slice::from_raw_parts_mut`) is only
/// sound if concurrent tasks touch disjoint index ranges and no
/// access outlives the borrow the pointer was created from —
/// [`WorkerPool::run`] returning strictly after every task (and every
/// worker) has left the job provides the lifetime half.
pub struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Wraps `ptr`.
    #[must_use]
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer.
    #[must_use]
    pub fn get(self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

impl<T> std::fmt::Debug for SendPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SendPtr({:p})", self.0)
    }
}

// SAFETY: moving/sharing the pointer value is only hazardous through
// dereferences, whose obligations are documented on `SendPtr`; the
// `T: Send` bound preserves the compiler's check that the pointee may
// be accessed from another thread.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: a shared `SendPtr` only hands out copies of the pointer
// value; every dereference carries the obligations above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

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
/// simulation cycles re-dispatch within microseconds, so a short spin
/// usually catches the next cycle without a futex round trip; the
/// bound keeps the waste negligible when the pool goes idle.
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

impl Clone for WorkerPool {
    /// A *fresh* pool of the same width. A pool holds no simulation
    /// state — only parked threads — so snapshotting a network that
    /// owns one (see `noc_sim::checkpoint`) just needs an equivalent
    /// pool, not the same threads. The clone spawns its own workers;
    /// the original's keep running undisturbed.
    fn clone(&self) -> Self {
        WorkerPool::new(self.workers())
    }
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

    /// Number of background worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
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
            // Lock-free pre-park spin: back-to-back cycles republish
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

/// A write-once result slot shared across pool workers.
///
/// Safety rests on the pool's claim discipline: each index is handed
/// to exactly one worker, which is the only writer of that slot, and
/// `run` returning happens-after every task.
struct MapSlot<T>(UnsafeCell<Option<T>>);

// SAFETY: see `MapSlot` — disjoint per-index access, joined before read.
unsafe impl<T: Send> Sync for MapSlot<T> {}

/// Maps `f` over `items` on `pool`, preserving input order in the
/// output. Items are claimed dynamically (long items pipeline with
/// short ones); each is processed exactly once.
pub fn pool_map<T, R, F>(pool: &mut WorkerPool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let inputs: Vec<MapSlot<T>> = items
        .into_iter()
        .map(|t| MapSlot(UnsafeCell::new(Some(t))))
        .collect();
    let outputs: Vec<MapSlot<R>> = (0..n).map(|_| MapSlot(UnsafeCell::new(None))).collect();
    pool.run(n, &|i| {
        // SAFETY: the pool hands index `i` to exactly one task, so
        // this is the only access to either slot `i` during the run.
        let item = unsafe { &mut *inputs[i].0.get() }
            .take()
            .expect("item claimed twice");
        let result = f(item);
        // SAFETY: as above, task `i` is the only writer of slot `i`,
        // and nothing reads the outputs before `pool.run` returns.
        unsafe { *outputs[i].0.get() = Some(result) };
    });
    outputs
        .into_iter()
        .map(|slot| slot.0.into_inner().expect("task finished without a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_contiguously() {
        for n in [1usize, 2, 7, 64, 65] {
            for k in [1usize, 2, 3, 4, 7, 100] {
                let ranges = partition(n, k);
                assert_eq!(ranges[0].lo, 0);
                assert_eq!(ranges.last().unwrap().hi, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].hi, w[1].lo);
                    assert!(w[0].len() >= w[1].len());
                    assert!(w[0].len() - w[1].len() <= 1);
                }
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let map = shard_map(&ranges);
                for (node, &s) in map.iter().enumerate() {
                    assert!(ranges[s as usize].contains(node));
                }
            }
        }
    }

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
    fn pool_map_preserves_order() {
        let mut pool = WorkerPool::new(2);
        let out = pool_map(&mut pool, (0..64u64).rev().collect(), |x| x * 2);
        assert_eq!(out, (0..64u64).rev().map(|x| x * 2).collect::<Vec<_>>());
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
