//! The persistent worker pool.
//!
//! [`WorkerPool`] keeps finished workers parked on their job channel
//! instead of exiting, so a second batch of jobs reuses every thread of the
//! first (`spawned()` exposes the lifetime spawn count, and the tests
//! assert it stays flat across runs). Panics inside a job are caught and
//! reported through the [`JobHandle`] instead of being discarded at join
//! time.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Renders a panic payload to text (the common `&str`/`String` payloads
/// verbatim, anything else generically).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked with a non-string payload".to_string())
}

/// What a worker sends when a job finishes: `None` on success, the panic
/// message otherwise.
type JobReport = Option<String>;

enum Job {
    Run(Box<dyn FnOnce() + Send + 'static>, Sender<JobReport>),
    Shutdown,
}

struct PoolInner {
    /// Parked workers, each represented by the sender of its job channel.
    idle: Mutex<Vec<Sender<Job>>>,
    /// Threads ever spawned (monotone; flat across runs once warm).
    spawned: AtomicU64,
    /// Jobs executed (monotone) — utilization telemetry for run reports.
    jobs: AtomicU64,
    /// Park events: a worker finished a job and went back idle (monotone).
    parks: AtomicU64,
    /// Live [`WorkerPool`] handles. Tracked explicitly (not via
    /// `Arc::strong_count`, which is racy when two clones drop
    /// concurrently): the drop that brings this to zero is uniquely
    /// responsible for shutting the parked workers down.
    handles: AtomicU64,
    /// Set (under the `idle` lock) when the last pool handle drops, so a
    /// worker finishing a job right then exits instead of parking forever.
    closing: AtomicBool,
}

/// A persistent, on-demand worker pool.
///
/// Threads are spawned lazily when a job arrives and no worker is parked,
/// and they never exit between jobs — they park on their channel and are
/// reused by later [`execute`](WorkerPool::execute) calls (from any clone of
/// the pool). Dropping the last clone shuts the parked workers down.
///
/// # Examples
///
/// ```
/// use p2p_runtime::WorkerPool;
///
/// let pool = WorkerPool::new();
/// let h1 = pool.execute(|| { /* work */ });
/// h1.join().unwrap();
/// // The worker parked instead of exiting: the next job reuses it.
/// let h2 = pool.execute(|| {});
/// h2.join().unwrap();
/// assert_eq!(pool.spawned(), 1);
/// ```
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl Clone for WorkerPool {
    fn clone(&self) -> Self {
        self.inner.handles.fetch_add(1, Ordering::SeqCst);
        WorkerPool { inner: self.inner.clone() }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool (no threads until the first job).
    pub fn new() -> Self {
        WorkerPool {
            inner: Arc::new(PoolInner {
                idle: Mutex::new(Vec::new()),
                spawned: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                handles: AtomicU64::new(1),
                closing: AtomicBool::new(false),
            }),
        }
    }

    /// Runs `job` on a parked worker, spawning a new thread only when none
    /// is idle. The returned handle reports completion and propagates a
    /// panic message if the job panicked.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> JobHandle {
        let (done_tx, done_rx) = unbounded();
        let mut packed = Job::Run(Box::new(job), done_tx);
        loop {
            let slot = self.inner.idle.lock().pop();
            match slot {
                Some(tx) => match tx.send(packed) {
                    Ok(()) => break,
                    // The worker exited (pool raced with shutdown); try the
                    // next idle worker or spawn.
                    Err(e) => packed = e.0,
                },
                None => {
                    self.spawn_worker(packed);
                    break;
                }
            }
        }
        JobHandle { rx: done_rx }
    }

    /// Total worker threads ever spawned by this pool.
    pub fn spawned(&self) -> u64 {
        self.inner.spawned.load(Ordering::SeqCst)
    }

    /// Total jobs executed by this pool (monotone across runs).
    pub fn jobs_executed(&self) -> u64 {
        self.inner.jobs.load(Ordering::SeqCst)
    }

    /// Total park events — a worker finished a job and re-registered idle.
    /// `jobs_executed − parks` is the number of jobs that ended without a
    /// re-park (pool shutting down), so the two together describe
    /// utilization over a run.
    pub fn parks(&self) -> u64 {
        self.inner.parks.load(Ordering::SeqCst)
    }

    /// Workers currently parked and ready for reuse.
    pub fn idle(&self) -> usize {
        self.inner.idle.lock().len()
    }

    fn spawn_worker(&self, first: Job) {
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        tx.send(first).expect("fresh channel accepts its first job");
        let weak = Arc::downgrade(&self.inner);
        self.inner.spawned.fetch_add(1, Ordering::SeqCst);
        std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                let Job::Run(work, done) = job else { break };
                let report = catch_unwind(AssertUnwindSafe(work)).err().map(panic_message);
                // Park (re-register) BEFORE reporting completion, so a
                // caller that joined every handle of a run observes every
                // worker reusable — the reuse guarantee the tests assert.
                let parked = match weak.upgrade() {
                    None => false,
                    Some(inner) => {
                        inner.jobs.fetch_add(1, Ordering::SeqCst);
                        let mut idle = inner.idle.lock();
                        if inner.closing.load(Ordering::SeqCst) {
                            false
                        } else {
                            idle.push(tx.clone());
                            inner.parks.fetch_add(1, Ordering::SeqCst);
                            true
                        }
                    }
                };
                let _ = done.send(report);
                if !parked {
                    break;
                }
            }
        });
    }
}

/// The flat CSR auction engine ([`p2p_core::csr::FlatAuction`]) leases its
/// slice workers through this trait: one shared pool can serve every
/// engine of a process — scenario sweeps, `System` slot loops, benches —
/// and repeated runs spawn zero new threads (a leased worker parks back in
/// the pool when its engine drops).
///
/// # Examples
///
/// ```
/// use p2p_core::csr::{CsrInstance, FlatAuction, WorkerSpawner};
/// use p2p_core::{AuctionConfig, ShardCount, WelfareInstance};
/// use p2p_runtime::WorkerPool;
/// use std::sync::Arc;
///
/// let pool = WorkerPool::new();
/// let spawner: Arc<dyn WorkerSpawner> = Arc::new(pool.clone());
/// let csr = CsrInstance::compile(&WelfareInstance::builder().build().unwrap());
/// let mut engine = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(2))
///     .with_spawner(spawner);
/// assert!(engine.run(&csr).is_ok());
/// ```
impl p2p_core::csr::WorkerSpawner for WorkerPool {
    fn spawn_worker(&self, job: Box<dyn FnOnce() + Send + 'static>) -> p2p_core::csr::WorkerJoin {
        let handle = self.execute(job);
        // The pool parks a worker *before* reporting completion, so once
        // this join returns the thread is guaranteed reusable — the engine
        // calls it when its lease ends.
        Box::new(move || {
            let _ = handle.join();
        })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Exactly one drop observes the count strike zero, even when the
        // last two clones drop concurrently.
        if self.inner.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last handle: wake every parked worker with a shutdown order.
            // `closing` is set under the same lock workers park under, so no
            // worker can slip into the idle list afterwards.
            let mut idle = self.inner.idle.lock();
            self.inner.closing.store(true, Ordering::SeqCst);
            for tx in idle.drain(..) {
                let _ = tx.send(Job::Shutdown);
            }
        }
    }
}

/// Completion handle for one [`WorkerPool::execute`] job.
pub struct JobHandle {
    rx: Receiver<JobReport>,
}

impl JobHandle {
    /// Waits for the job to finish.
    ///
    /// # Errors
    ///
    /// Returns [`p2p_types::P2pError::WorkerPanicked`] if the job panicked.
    pub fn join(self) -> Result<(), p2p_types::P2pError> {
        match self.rx.recv() {
            Ok(None) => Ok(()),
            Ok(Some(message)) => Err(p2p_types::P2pError::WorkerPanicked { message }),
            Err(_) => Err(p2p_types::P2pError::WorkerPanicked {
                message: "worker disappeared without reporting".to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_are_reused_not_respawned() {
        let pool = WorkerPool::new();
        for _ in 0..5 {
            pool.execute(|| {}).join().unwrap();
        }
        assert_eq!(pool.spawned(), 1, "sequential jobs share one parked worker");
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.jobs_executed(), 5);
        assert_eq!(pool.parks(), 5, "every job ended with a re-park");
    }

    #[test]
    fn concurrent_jobs_spawn_to_demand_then_plateau() {
        let pool = WorkerPool::new();
        let run_batch = || {
            let (release_tx, release_rx) = unbounded::<()>();
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let rx = release_rx.clone();
                    pool.execute(move || {
                        let _ = rx.recv();
                    })
                })
                .collect();
            for _ in 0..3 {
                release_tx.send(()).unwrap();
            }
            for h in handles {
                h.join().unwrap();
            }
        };
        run_batch();
        assert_eq!(pool.spawned(), 3, "three concurrent jobs need three workers");
        run_batch();
        assert_eq!(pool.spawned(), 3, "the second batch reuses every parked worker");
        assert_eq!(pool.idle(), 3);
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let pool = WorkerPool::new();
        let err = pool.execute(|| panic!("boom {}", 7)).join().unwrap_err();
        assert!(matches!(
            &err,
            p2p_types::P2pError::WorkerPanicked { message } if message.contains("boom 7")
        ));
        // The worker survives its job's panic and is reused.
        pool.execute(|| {}).join().unwrap();
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn flat_engines_lease_and_return_pool_workers() {
        use p2p_core::csr::{CsrInstance, FlatAuction, WorkerSpawner};
        use p2p_core::{AuctionConfig, ShardCount, WelfareInstance};
        use p2p_types::{ChunkId, Cost, PeerId, RequestId, Valuation, VideoId};

        let mut b = WelfareInstance::builder();
        let us: Vec<_> = (0..4).map(|i| b.add_provider(PeerId::new(100 + i), 2)).collect();
        for d in 0..64u32 {
            let r = b.add_request(RequestId::new(PeerId::new(d), ChunkId::new(VideoId::new(0), d)));
            for (i, &u) in us.iter().enumerate() {
                let v = 2.0 + f64::from(d % 7) * 0.73 + i as f64 * 0.11;
                let w = 0.2 + f64::from(d % 5) * 0.29 + i as f64 * 0.07;
                b.add_edge(r, u, Valuation::new(v), Cost::new(w)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let csr = CsrInstance::compile(&inst);

        let pool = WorkerPool::new();
        let spawner: Arc<dyn WorkerSpawner> = Arc::new(pool.clone());
        let workers = 3;
        let run_engine = || {
            let mut engine =
                FlatAuction::new(AuctionConfig::with_epsilon(0.01), ShardCount::Fixed(4))
                    .with_workers(workers)
                    .with_spawner(spawner.clone());
            let a = engine.run(&csr).unwrap();
            // Repeated slot auctions on one engine reuse the leased workers.
            let b = engine.run(&csr).unwrap();
            assert_eq!(a.assignment, b.assignment);
            a
        };
        let first = run_engine();
        assert_eq!(pool.spawned() as usize, workers, "one lease spawns min(shards, workers)");
        // The first engine dropped: its workers parked back in the pool, so
        // a second engine (a second "run" of the system) spawns nothing.
        let second = run_engine();
        assert_eq!(pool.spawned() as usize, workers, "repeated runs spawn zero new threads");
        assert_eq!(first.assignment, second.assignment);
        assert_eq!(first.duals, second.duals);
    }
}
