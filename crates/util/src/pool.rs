//! A fixed-size worker thread pool.
//!
//! Used by the Chronos HTTP server to run request handlers and by
//! evaluation clients to drive multi-threaded benchmark workloads (the demo's
//! swept parameter *is* the client thread count, so the pool is on the hot
//! path of experiment E1).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Everything the queue's one lock protects.
struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers currently parked waiting for a job. A parked worker *is*
    /// dispatch capacity: a bounded queue admits `capacity + idle` jobs, so
    /// "queue depth 0" means "shed only when no worker can pick the job up",
    /// not "shed unless a worker happens to be mid-`recv` at this instant"
    /// (the previous `Mutex<mpsc::Receiver>` design parked only one worker
    /// in the channel at a time, so a rendezvous queue shed spuriously while
    /// the other workers sat idle waiting for the receiver lock).
    idle: usize,
    closed: bool,
}

/// A deque + condvar job queue shared by every worker.
struct JobQueue {
    state: StdMutex<QueueState>,
    /// Wakes workers: a job was pushed or the queue closed.
    job_ready: Condvar,
    /// Wakes blocked submitters and the startup barrier: a worker parked.
    space_free: Condvar,
    /// Max jobs buffered beyond the idle workers.
    capacity: usize,
}

impl JobQueue {
    fn has_room(&self, state: &QueueState) -> bool {
        state.jobs.len() < self.capacity + state.idle
    }

    /// Enqueues `job`; with `block`, waits for room on a full queue.
    /// Returns `false` (dropping the job) if the queue is closed, or — in
    /// non-blocking mode — full.
    fn push(&self, job: Job, block: bool) -> bool {
        let mut state = self.state.lock().unwrap();
        while !state.closed && !self.has_room(&state) {
            if !block {
                return false;
            }
            state = self.space_free.wait(state).unwrap();
        }
        if state.closed {
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.job_ready.notify_one();
        true
    }

    /// Worker side: parks until a job or shutdown. After close, remaining
    /// queued jobs are still drained before workers exit.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        state.idle += 1;
        // Parking grew the admission window by one.
        self.space_free.notify_all();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.idle -= 1;
                return Some(job);
            }
            if state.closed {
                state.idle -= 1;
                return None;
            }
            state = self.job_ready.wait(state).unwrap();
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        self.job_ready.notify_all();
        self.space_free.notify_all();
    }
}

/// A fixed-size pool of worker threads executing submitted closures from a
/// bounded queue.
///
/// Dropping the pool closes the queue and joins all workers, so every
/// submitted job is either executed or (if a worker panicked) accounted for
/// in [`ThreadPool::panics`].
pub struct ThreadPool {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<AtomicUsize>,
}

impl ThreadPool {
    /// Creates a pool with `size` workers (clamped to at least 1) and a
    /// bounded queue holding at most `queue` jobs beyond the ones workers
    /// are already running. Submissions past that bound fail fast via
    /// [`ThreadPool::try_execute`] instead of piling up — the primitive
    /// behind the HTTP server's admission control.
    pub fn bounded(size: usize, queue: usize) -> Self {
        Self::bounded_with_name(size, queue, "chronos-worker")
    }

    /// [`ThreadPool::bounded`] with worker threads named `name` (visible in
    /// backtraces and profilers).
    pub fn bounded_with_name(size: usize, queue: usize, name: &str) -> Self {
        let size = size.max(1);
        let queue = Arc::new(JobQueue {
            state: StdMutex::new(QueueState { jobs: VecDeque::new(), idle: 0, closed: false }),
            job_ready: Condvar::new(),
            space_free: Condvar::new(),
            capacity: queue,
        });
        let panics = Arc::new(AtomicUsize::new(0));
        let workers = (0..size)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        // Startup barrier: don't hand the pool out until every worker is
        // parked, so a rendezvous (depth-0) pool accepts work from the very
        // first submission instead of shedding until the OS schedules the
        // worker threads.
        {
            let mut state = queue.state.lock().unwrap();
            while state.idle < size {
                state = queue.space_free.wait(state).unwrap();
            }
        }
        ThreadPool { queue, workers, panics }
    }

    /// Submits a job for execution, blocking while the queue is full.
    /// Returns `false` if the pool is shutting down and the job was not
    /// accepted.
    pub fn execute<F>(&self, job: F) -> bool
    where
        F: FnOnce() + Send + 'static,
    {
        self.queue.push(Box::new(job), true)
    }

    /// Submits a job without blocking. Returns `false` — dropping the job —
    /// if the queue is full or the pool is shutting down. The queue is full
    /// when the job could neither be picked up by an idle worker nor
    /// buffered in a free queue slot.
    pub fn try_execute<F>(&self, job: F) -> bool
    where
        F: FnOnce() + Send + 'static,
    {
        self.queue.push(Box::new(job), false)
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// The bounded queue depth.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity
    }

    /// Number of jobs that panicked instead of completing.
    pub fn panics(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Runs `f` on `threads` scoped threads, passing each its index, and returns
/// the per-thread results in index order. This is the fork/join primitive the
/// benchmark clients use for the "number of client threads" parameter.
pub fn scoped_indexed<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|i| scope.spawn(move || f(i))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::bounded(4, 64);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            assert!(pool.execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool); // joins workers
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn zero_size_is_clamped() {
        let pool = ThreadPool::bounded(0, 1);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = ThreadPool::bounded(1, 1);
        pool.execute(|| panic!("boom"));
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1, "worker must survive a panic");
    }

    #[test]
    fn panics_are_counted() {
        let pool = ThreadPool::bounded(2, 4);
        for _ in 0..3 {
            pool.execute(|| panic!("boom"));
        }
        // Drain by dropping (joins all workers first).
        let panics = {
            let p = pool;
            // Wait for jobs by dropping; capture counter handle first.
            let counter = Arc::clone(&p.panics);
            drop(p);
            counter.load(Ordering::Relaxed)
        };
        assert_eq!(panics, 3);
    }

    #[test]
    fn bounded_try_execute_sheds_when_full() {
        // One worker parked on a gate, queue depth 2: the first submission is
        // picked up by the worker, two more sit in the queue, the fourth must
        // be rejected without blocking.
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock();
        let pool = ThreadPool::bounded(1, 2);
        assert_eq!(pool.queue_capacity(), 2);
        let blocker = Arc::clone(&gate);
        assert!(pool.try_execute(move || {
            drop(blocker.lock());
        }));
        // Give the worker a moment to pick the blocking job off the queue.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(pool.try_execute(|| {}));
        assert!(pool.try_execute(|| {}));
        assert!(!pool.try_execute(|| {}), "fourth job must be shed, queue is full");
        drop(guard);
        drop(pool);
    }

    #[test]
    fn bounded_pool_executes_admitted_jobs() {
        let pool = ThreadPool::bounded(4, 64);
        let counter = Arc::new(AtomicU64::new(0));
        let mut admitted = 0u64;
        for _ in 0..1000 {
            let counter = Arc::clone(&counter);
            if pool.try_execute(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }) {
                admitted += 1;
            }
        }
        drop(pool); // joins workers
        assert_eq!(counter.load(Ordering::Relaxed), admitted, "no admitted job may be lost");
        assert!(admitted >= 64, "at least the queue depth must have been admitted");
    }

    #[test]
    fn rendezvous_queue_admits_one_job_per_idle_worker() {
        // Depth 0 must mean "shed when no worker can take the job", not
        // "shed unless a worker is mid-recv at this exact instant": four
        // idle workers accept four back-to-back jobs with zero buffer, and
        // only the fifth is shed. Regression for spurious 429s the reactor
        // core hit dispatching keep-alive requests microseconds apart.
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock();
        let pool = ThreadPool::bounded(4, 0);
        let started = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let blocker = Arc::clone(&gate);
            let started = Arc::clone(&started);
            assert!(
                pool.try_execute(move || {
                    started.fetch_add(1, Ordering::Relaxed);
                    drop(blocker.lock());
                }),
                "an idle worker must count as dispatch capacity"
            );
        }
        assert!(!pool.try_execute(|| {}), "fifth job exceeds workers + queue, must be shed");
        drop(guard);
        drop(pool);
        assert_eq!(started.load(Ordering::Relaxed), 4, "every admitted job must run");
    }

    #[test]
    fn scoped_indexed_returns_in_order() {
        let results = scoped_indexed(8, |i| i * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn scoped_indexed_clamps_to_one() {
        assert_eq!(scoped_indexed(0, |i| i), vec![0]);
    }
}
