//! The miss queue and its worker pool.
//!
//! [`crate::TuneService::submit`] never tunes on the caller's thread:
//! a miss that wins its single-flight enqueues a [`Job`] here, and a
//! small pool of worker threads drains the queue, runs the cold tunes
//! (each of which still fans out internally through the rayon shim) and
//! fans the results back to every registered ticket. The pool is sized
//! from `rayon::current_num_threads()` by default, so `RAYON_NUM_THREADS`
//! governs both layers of parallelism.
//!
//! The queue supports **pause/resume** (quiesce the tuning backend while
//! hot-swapping shards without rejecting submissions; tickets simply
//! stay pending) and an idempotent **shutdown** that drains queued jobs
//! so `Drop` can fail their flights instead of stranding tickets.
//!
//! Since PR 7 the queue is **two lanes**: the foreground deque holds
//! jobs someone is waiting on, and a strictly-lower-priority background
//! deque holds work nobody is waiting for *right now* -- cold tunes
//! whose waiters have all timed out ([`BgJob::Demoted`]) and predictive
//! warm-starts for keys trending hot on a neighbour shard
//! ([`BgJob::Prewarm`]). Workers only pop the background lane when the
//! foreground lane is empty, so SLO traffic never queues behind
//! best-effort cache warming.

use isaac_core::{IsaacTuner, TuneKey, TunedChoice};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::batch::QueryShape;
use crate::single_flight::FlightId;

/// One queued cold-tune: everything a worker needs, captured at
/// submission time so a later shard swap cannot redirect the work.
pub(crate) struct Job {
    pub key: TuneKey,
    /// The flight this job was enqueued for: completion targets
    /// `(key, flight)`, never the key alone, so a stale job can't
    /// resolve a newer flight that reuses the key.
    pub flight: FlightId,
    pub tuner: Arc<IsaacTuner>,
    pub shape: QueryShape,
    /// When the job (re-)entered the queue, for the queue-latency gauge.
    pub enqueued: Instant,
    /// Tune attempts so far (0 on first submission; bumped on
    /// panic-retry).
    pub attempts: u32,
    /// Set once the job has been shed to the background lane, so a
    /// demoted job runs when popped instead of re-demoting forever.
    pub demoted: bool,
}

/// Best-effort work on the background lane; see the module docs.
pub(crate) enum BgJob {
    /// A foreground cold tune demoted because every live waiter's
    /// deadline passed before a worker reached it. It still completes
    /// its flight and warms the cache -- just without competing with
    /// jobs someone is waiting on.
    Demoted(Box<Job>),
    /// Predictive warm-start: re-benchmark one neighbour decision into
    /// `target`'s cache (the `IsaacTuner::warm_start` rebench path,
    /// orders of magnitude cheaper than a cold tune).
    Prewarm {
        target: Arc<IsaacTuner>,
        source: Box<(TuneKey, TunedChoice)>,
    },
    /// Re-tune one degraded/quarantined key once its backoff expires
    /// and upgrade the cache entry if the tune lands (the self-healing
    /// repair path; see `health.rs`). Not popped before `not_before`:
    /// the lane's scheduling honours the quarantine's exponential
    /// backoff, so a poisoned key never burns retries early.
    Repair {
        key: TuneKey,
        tuner: Arc<IsaacTuner>,
        shape: QueryShape,
        not_before: Instant,
    },
}

impl BgJob {
    /// Earliest instant this job may run (`None` == immediately).
    fn ready_at(&self) -> Option<Instant> {
        match self {
            BgJob::Repair { not_before, .. } => Some(*not_before),
            BgJob::Demoted(_) | BgJob::Prewarm { .. } => None,
        }
    }
}

/// Outcome of one [`MissQueue::pop_until`] call.
pub(crate) enum Popped {
    /// A foreground job to run (boxed: the deadline arm keeps the enum
    /// small).
    Job(Box<Job>),
    /// Background work: the foreground lane was empty.
    Background(BgJob),
    /// The deadline passed with the queue idle -- time for periodic
    /// work (the WAL compaction interval).
    Deadline,
    /// The queue is shutting down; the worker should exit.
    Shutdown,
}

struct QueueState {
    jobs: VecDeque<Job>,
    background: VecDeque<BgJob>,
    paused: bool,
    shutdown: bool,
}

/// The shared miss queue: a mutex-guarded deque plus a condvar workers
/// sleep on.
pub(crate) struct MissQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl MissQueue {
    pub fn new() -> Self {
        MissQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                background: VecDeque::new(),
                paused: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueue a job and wake one worker. Jobs pushed after shutdown are
    /// dropped (their flights get cancelled by the service teardown).
    pub fn push(&self, job: Job) {
        let mut state = self.state.lock().expect("miss queue poisoned");
        if state.shutdown {
            return;
        }
        state.jobs.push_back(job);
        drop(state);
        self.cv.notify_one();
    }

    /// Enqueue best-effort work on the background lane and wake one
    /// worker. Dropped after shutdown, like [`MissQueue::push`] (a
    /// demoted job's flight is failed by the service teardown; a
    /// prewarm is pure opportunism).
    pub fn push_background(&self, job: BgJob) {
        let mut state = self.state.lock().expect("miss queue poisoned");
        if state.shutdown {
            return;
        }
        state.background.push_back(job);
        drop(state);
        self.cv.notify_one();
    }

    /// Block until a job is available (and the queue is unpaused), the
    /// optional deadline passes, or the queue shuts down. Jobs win over
    /// an already-expired deadline, so a busy queue drains at full
    /// speed and the deadline only fires in the gaps -- which is
    /// exactly what the compaction interval wants.
    ///
    /// `deadline_of` is re-evaluated on **every** wakeup, not captured
    /// once: a worker parked before compaction was scheduled (or
    /// rescheduled) picks the new deadline up as soon as
    /// [`MissQueue::kick`] wakes it, instead of sleeping towards a
    /// stale one forever.
    pub fn pop_until(&self, deadline_of: impl Fn() -> Option<Instant>) -> Popped {
        let mut state = self.state.lock().expect("miss queue poisoned");
        loop {
            if state.shutdown {
                return Popped::Shutdown;
            }
            // Earliest not-yet-due background job (repairs waiting out
            // their backoff); folded into the sleep below.
            let mut next_bg: Option<Instant> = None;
            if !state.paused {
                if let Some(job) = state.jobs.pop_front() {
                    return Popped::Job(Box::new(job));
                }
                // Strict priority: background work only runs while the
                // foreground lane is empty. FIFO among *ready* jobs --
                // a deferred repair must not head-of-line-block the
                // prewarms and demoted tunes behind it.
                let now = Instant::now();
                if let Some(pos) = state
                    .background
                    .iter()
                    .position(|bg| bg.ready_at().is_none_or(|t| t <= now))
                {
                    if let Some(bg) = state.background.remove(pos) {
                        return Popped::Background(bg);
                    }
                }
                next_bg = state.background.iter().filter_map(|bg| bg.ready_at()).min();
            }
            let snapshot = deadline_of();
            if let Some(d) = snapshot {
                if Instant::now() >= d {
                    return Popped::Deadline;
                }
            }
            let wake = match (snapshot, next_bg) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            match wake {
                None => state = self.cv.wait(state).expect("miss queue poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // A deferred background job just came due:
                        // loop around and pop it.
                        continue;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(state, d - now)
                        .expect("miss queue poisoned");
                    state = guard;
                }
            }
        }
    }

    /// Wake every worker so they re-read their deadlines via
    /// `pop_until`'s `deadline_of` (used when the compaction schedule
    /// changes).
    pub fn kick(&self) {
        self.cv.notify_all();
    }

    /// Pause or resume job dispatch. Paused workers finish their current
    /// job and then sleep; submissions keep queueing.
    pub fn set_paused(&self, paused: bool) {
        let mut state = self.state.lock().expect("miss queue poisoned");
        state.paused = paused;
        drop(state);
        self.cv.notify_all();
    }

    /// Foreground jobs currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("miss queue poisoned").jobs.len()
    }

    /// Background jobs currently queued.
    pub fn background_depth(&self) -> usize {
        self.state
            .lock()
            .expect("miss queue poisoned")
            .background
            .len()
    }

    /// Flip the queue into shutdown mode and return every undrained
    /// foreground job so the caller can fail their flights. Undrained
    /// background work is simply dropped: a demoted job's waiters are
    /// covered by the same flight-failing sweep, and prewarms and
    /// repairs are best-effort. Idempotent.
    pub fn begin_shutdown(&self) -> Vec<Job> {
        let mut state = self.state.lock().expect("miss queue poisoned");
        state.shutdown = true;
        state.background.clear();
        let drained = state.jobs.drain(..).collect();
        drop(state);
        self.cv.notify_all();
        drained
    }
}

/// Owns the worker threads; joining happens on drop, *after* the
/// service has signalled shutdown (see `TuneService::drop`).
#[derive(Debug)]
pub(crate) struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads running `work` until the queue shuts
    /// down. `work` is the service core's job loop.
    pub fn spawn(workers: usize, work: impl Fn() + Send + Sync + 'static) -> Self {
        let work = Arc::new(work);
        let handles = (0..workers.max(1))
            .map(|i| {
                let work = Arc::clone(&work);
                std::thread::Builder::new()
                    .name(format!("isaac-serve-worker-{i}"))
                    .spawn(move || work())
                    .expect("spawn serve worker")
            })
            .collect();
        WorkerPool { handles }
    }

    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Join every worker now (idempotent; `drop` joins whatever is
    /// left). The service's `Drop` calls this *before* its final
    /// snapshot flush so no worker can publish a decision after the
    /// flush read the caches.
    pub fn join(&mut self) {
        for handle in self.handles.drain(..) {
            // A worker that panicked outside the catch_unwind perimeter
            // already aborted its flight; don't double-panic the drop.
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join();
    }
}
