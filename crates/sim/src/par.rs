//! A caller-thread stand-in for a worker pool, kept only because the
//! repository benchmark (`benchmark/src/probes.rs`) compiles against
//! its API to time `par.pool_dispatch_us`.
//!
//! Nothing in the simulator uses it: every simulation steps on one
//! thread, and whole simulations are the only parallelism (the
//! sweep's and the paper binary's `loft_bench::map_jobs` lanes).
//! ROADMAP item 2(c) deletes this module together with the
//! benchmark's probe of it.

/// Runs indexed task batches on the calling thread. The worker count
/// given to [`WorkerPool::new`] is accepted and ignored.
#[derive(Debug)]
pub struct WorkerPool;

impl WorkerPool {
    /// A pool; the worker count is accepted and ignored.
    #[must_use]
    pub fn new(_workers: usize) -> Self {
        WorkerPool
    }

    /// Runs `f(i)` for every `i in 0..tasks`, in index order, on the
    /// calling thread. A panicking task propagates at once; the pool
    /// stays usable. `&mut self` keeps the signature of the pool this
    /// stands in for.
    pub fn run<F: Fn(usize) + Sync>(&mut self, tasks: usize, f: &F) {
        (0..tasks).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
