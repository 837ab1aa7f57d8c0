//! The async-first serving front door.
//!
//! [`TuneService::submit`] returns a [`TuneTicket`] *immediately* --
//! cache hits and shard refusals come back pre-resolved, misses enqueue
//! a job on the worker pool and resolve through the waker-driven
//! single-flight table -- so one OS thread can keep hundreds of
//! heterogeneous shape queries in flight while the pool grinds through
//! the cold tunes.
//!
//! ```text
//!  submit/submit_batch ──► fast path (shard map + TuneCache) ──► Ready ticket
//!           │ miss
//!           ▼
//!  SingleFlight::claim ── Led ──► MissQueue ──► WorkerPool ──► tune_*_cold
//!           │ Joined                                   │
//!           ▼                                          ▼
//!   ticket waits (waker) ◄────── complete() fans out ──┘
//! ```
//!
//! Shard lifecycle is part of the same design: [`TuneService::add_shard`],
//! [`TuneService::remove_shard`] and [`TuneService::replace_shard`] may
//! run at any time, and a removed/replaced shard **fails its pending
//! tickets** (decision `Served::Failed`) instead of stranding them --
//! completion semantics and shard semantics are one contract. Whole-fleet
//! persistence rides on the same lifecycle, in one on-disk format (a
//! `shard-<dev>-<op>.cache` base file per shard, plus a
//! `shard-<dev>-<op>.wal` log in durability mode):
//!
//! * [`TuneService::enable_durability`] journals every cache mutation to
//!   the shard's WAL as it happens and compacts the logs into the base
//!   files on an interval, in the queue's idle gaps, and once more on
//!   shutdown; [`TuneService::recover_all`] boots the next process from
//!   the base files and the logs (progress in [`RouterStats::snapshots`]
//!   and [`TuneService::last_snapshot`]);
//! * [`TuneService::snapshot_all`] exports every shard's base file to
//!   another directory, and [`TuneService::restore_all`] (which is
//!   `recover_all`) reloads such a directory into a freshly built
//!   service, so a restart serves its old working set from cache
//!   instead of re-tuning it.
//!
//! The rest of the lifecycle:
//!
//! * [`TuneService::submit_with`] bakes a **deadline** into the ticket:
//!   a bounded waiter resolves to [`Served::TimedOut`] without
//!   poisoning the flight for its other waiters;
//! * a flight whose tickets are **all dropped** before its job starts
//!   is cancelled through the `(key, FlightId)` path and its queued
//!   job is discarded -- nobody tunes for an audience of zero;
//! * each shard's decision cache evicts by
//!   [`isaac_core::EvictionPolicy::CostAware`] (hot or
//!   expensive-to-re-tune entries outlive cold, cheap ones under
//!   capacity pressure; plain LRU remains available as the reference
//!   policy).
//!
//! PR 7 adds the **SLO leg** of the front door:
//!
//! * per-tenant **admission quotas**
//!   ([`TuneService::set_admission_quota`], [`SubmitOptions::tenant`]):
//!   a tenant over its in-flight miss bound gets [`Served::Rejected`]
//!   immediately instead of piling onto the tuning backend -- the key's
//!   single-flight is untouched, so within-quota waiters still share
//!   the tune;
//! * **deadline-driven shedding**: a queued job whose live waiters have
//!   all passed their deadlines is demoted to a strictly lower-priority
//!   background lane ([`ServiceStats::shed`]) -- it still runs and
//!   warms the cache, but never ahead of a job someone is waiting on;
//! * **predictive warm-starts** ([`TuneService::prewarm_hot`]):
//!   trending-hot decisions are re-benched into neighbour shards on the
//!   same background lane, so the next tenant to migrate a hot shape
//!   across devices hits cache instead of a cold tune.
//!
//! PR 8 makes the front door **self-healing** (see `docs/RESILIENCE.md`):
//!
//! * every cold-tune outcome feeds a per-shard **circuit breaker**
//!   (`Closed -> Open -> HalfOpen`, [`TuneService::breaker_state`]);
//!   while a breaker is open, new misses on that shard serve the
//!   model-free heuristic ([`Served::Degraded`]) instead of queueing
//!   behind a broken tuner, and a half-open probe decides when to
//!   re-close;
//! * a flight that exhausts its [`RetryPolicy`] **quarantines its key**
//!   ([`TuneService::is_quarantined`]): subsequent submits answer
//!   `Degraded` instantly from a memoized heuristic while a background
//!   **repair job** re-probes the key on an exponential backoff and
//!   upgrades the cache entry once a tune finally lands
//!   ([`RouterStats::repair_upgrades`]). Degraded decisions are never
//!   cached or journaled as authoritative;
//! * fault injection for all of it goes through the [`crate::TuneFault`]
//!   seam ([`TuneService::set_tune_fault`]) -- panic, error, slow-tune
//!   and wrong-device faults, scripted deterministically by
//!   [`crate::FaultTuner`] and driven by the seeded `tests/chaos_serve.rs`
//!   suite.

use crate::admission::{Admission, TenantSlot, TenantStats};
use crate::batch::{plan, Decision, Query, QueryShape, Served};
use crate::durability::{compact_shard, gc_orphans, recover_shard, wal_file_name, write_base};
use crate::fault::{FaultKind, TuneFault};
use crate::health::{
    BreakerConfig, BreakerEvent, BreakerState, DegradedLedger, Gate, QuarantineConfig, ShardHealth,
};
use crate::single_flight::{FlightStats, Role, SingleFlight, Waiter};
use crate::stats::{bump, Counters, RouterStats, ServiceStats};
use crate::ticket::{OpenTickets, TicketCell, TuneTicket};
use crate::workers::{BgJob, Job, MissQueue, Popped, WorkerPool};
use isaac_core::durability::{DurabilityIo, StdIo, WalWriter};
use isaac_core::{IsaacTuner, OpKind, TuneKey, TunedChoice, WarmStartReport};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// What a flight hands its waiters.
#[derive(Debug, Clone)]
enum FlightOutcome {
    /// The leader ran the cold tune (`None` == no legal configuration).
    Cold(Option<TunedChoice>),
    /// The leader's re-peek found the key already published by an
    /// earlier flight: an authoritative decision, but nobody tuned.
    Rehit(TunedChoice),
    /// The tuned path is unhealthy; this is the model-free heuristic
    /// stand-in (`None` == not even the heuristic found a legal
    /// configuration). Never published to the cache.
    Degraded(Option<TunedChoice>),
}

/// Default total attempts for a panicking tune (the first attempt plus
/// two retries); see [`RetryPolicy`].
const MAX_TUNE_ATTEMPTS: u32 = 3;

/// How the worker pool retries a cold tune whose attempt panicked
/// ([`TuneService::set_retry_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per flight, the first one included (clamped to at
    /// least 1). Past the budget the key is quarantined, the flight
    /// resolves [`Served::Degraded`], and the exhaustion counts into
    /// [`ServiceStats::retry_exhausted`].
    pub max_attempts: u32,
    /// Pause before each re-queued retry, on the worker that caught the
    /// panic. Zero (the default) re-queues immediately; a non-zero
    /// backoff gives a transiently sick device room to recover instead
    /// of burning the whole attempt budget in microseconds.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: MAX_TUNE_ATTEMPTS,
            backoff: Duration::ZERO,
        }
    }
}

/// The tuners of one device, keyed by operation. Op-agnostic on
/// purpose: a new op family registered in `isaac-core` gets a slot here
/// without the serving layer changing.
#[derive(Debug, Default)]
struct Shard {
    tuners: BTreeMap<OpKind, Arc<IsaacTuner>>,
}

impl Shard {
    fn tuner(&self, op: OpKind) -> Option<&Arc<IsaacTuner>> {
        self.tuners.get(&op)
    }

    fn is_empty(&self) -> bool {
        self.tuners.is_empty()
    }
}

/// Per-query submission options for [`TuneService::submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Latency bound baked into the returned ticket: consuming the
    /// ticket past this duration (measured from submission) yields
    /// [`Served::TimedOut`] instead of blocking longer. `None` (the
    /// default) waits unboundedly. The bound is ticket-local -- the
    /// underlying flight keeps running for other waiters and still
    /// publishes its decision to the cache.
    pub deadline: Option<Duration>,
    /// The submitting tenant, for per-tenant admission quotas
    /// ([`TuneService::set_admission_quota`]). Tenant `0` (the default)
    /// is a tenant like any other. Quotas bound *misses in flight*:
    /// cache hits and shard refusals are served before admission and
    /// never rejected.
    pub tenant: u16,
}

/// Live write-ahead durability state
/// ([`TuneService::enable_durability`]): the directory, the I/O layer
/// every durability operation routes through, one journal writer per
/// registered `(device, op)` shard, and the compaction schedule.
struct WalState {
    dir: PathBuf,
    io: Arc<dyn DurabilityIo>,
    writers: HashMap<(u16, OpKind), Arc<WalWriter>>,
    /// The compaction interval and its next tick; `None` once
    /// [`TuneService::disable_snapshots`] stopped the schedule (the
    /// journal keeps appending).
    schedule: Option<(Duration, Instant)>,
    /// The most recent compaction sweep's report.
    last: Option<SnapshotReport>,
}

/// Aggregate outcome of [`TuneService::snapshot_all`], a compaction
/// sweep or [`TuneService::recover_all`] (which
/// [`TuneService::restore_all`] is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Base files written (snapshot/compaction), or shards that found a
    /// base file or replayed a WAL record (recovery).
    pub files: usize,
    /// Decisions persisted (snapshot/compaction) or merged from base
    /// files (recovery).
    pub entries: usize,
    /// Malformed / wrong-operation lines or records skipped during
    /// recovery -- silent cache shrinkage made visible.
    pub skipped: usize,
    /// Files whose `(device, op)` has no registered shard to recover
    /// into (recovery only).
    pub unmatched: usize,
    /// WAL records replayed on top of base files (recovery only).
    pub replayed: usize,
    /// Torn or corrupt trailing WAL records truncated away instead of
    /// being replayed (recovery only).
    pub torn_records: usize,
    /// Stale persistence files deleted: orphans of unregistered shards
    /// and `.tmp` leftovers of crashed compactions (compaction sweeps),
    /// or the files of a removed/replaced shard.
    pub gc_removed: usize,
}

/// Gauges owned by the service core (the open-ticket gauge lives in
/// [`OpenTickets`] so ticket cells can carry it).
#[derive(Debug, Default)]
struct Gauges {
    jobs_run: AtomicU64,
    jobs_cancelled: AtomicU64,
    tune_retries: AtomicU64,
    retry_exhausted: AtomicU64,
    queue_wait_ns: AtomicU64,
    shed: AtomicU64,
    prewarmed: AtomicU64,
    prewarm_jobs: AtomicU64,
    repair_jobs: AtomicU64,
}

/// Shared state behind the service front door; workers hold an `Arc` of
/// this, so the core outlives any user-facing [`TuneService`] handle
/// until the pool has drained.
struct ServiceCore {
    shards: RwLock<BTreeMap<u16, Shard>>,
    flights: SingleFlight<TuneKey, FlightOutcome>,
    counters: Counters,
    queue: MissQueue,
    gauges: Gauges,
    tickets: Arc<OpenTickets>,
    /// Per-tenant admission quotas; see [`crate::TenantStats`].
    admission: Admission,
    /// Write-ahead durability state; `None` until
    /// [`TuneService::enable_durability`].
    wal: Mutex<Option<WalState>>,
    /// Report of the most recent [`TuneService::recover_all`], so
    /// recovery corruption counts stay inspectable
    /// ([`TuneService::last_snapshot`] falls back to it).
    last_recovery: Mutex<Option<SnapshotReport>>,
    /// How panicking tunes are retried; see [`RetryPolicy`].
    retry: RwLock<RetryPolicy>,
    /// The tuning-path fault seam ([`TuneService::set_tune_fault`]):
    /// consulted before every cold-tune attempt, `None` in production.
    fault: RwLock<Option<Arc<dyn TuneFault>>>,
    /// Per-`(device, op)` circuit breakers, created on first outcome or
    /// gate check; reset when the shard leaves the fleet.
    health: RwLock<HashMap<(u16, OpKind), Arc<ShardHealth>>>,
    /// Breaker tuning knobs ([`TuneService::set_breaker_config`]).
    breaker_cfg: RwLock<BreakerConfig>,
    /// Quarantine backoff knobs
    /// ([`TuneService::set_quarantine_config`]).
    quarantine_cfg: RwLock<QuarantineConfig>,
    /// Poison-key quarantine + degraded-key memoization/repair ledger.
    ledger: DegradedLedger,
}

impl std::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("devices", &self.device_ids())
            .field("flights", &self.flights)
            .field("queue_depth", &self.queue.depth())
            .finish()
    }
}

/// Outcome of the lock-free-ish fast path: either the query is fully
/// served, or we have the shard tuner in hand for the miss path.
enum FastPath {
    Done(Decision),
    Miss(Arc<IsaacTuner>),
}

impl ServiceCore {
    fn device_ids(&self) -> Vec<u16> {
        self.shards
            .read()
            .expect("shard map poisoned")
            .keys()
            .copied()
            .collect()
    }

    fn shard_tuner(&self, device: u16, op: OpKind) -> Option<Arc<IsaacTuner>> {
        self.shards
            .read()
            .expect("shard map poisoned")
            .get(&device)?
            .tuner(op)
            .cloned()
    }

    /// Serve a query from the shard map and cache alone, counting the
    /// outcome; a `Miss` needs the flight/queue path.
    fn fast_path(&self, query: &Query, key: &TuneKey) -> FastPath {
        let Some(tuner) = self.shard_tuner(query.device, query.op()) else {
            bump(&self.counters.no_shard, 1);
            return FastPath::Done(Decision {
                choice: None,
                served: Served::NoShard,
            });
        };
        match tuner.cache().get(key) {
            Some(hit) => {
                bump(&self.counters.cache_hits, 1);
                FastPath::Done(Decision {
                    choice: Some(hit),
                    served: Served::Cache,
                })
            }
            None => FastPath::Miss(tuner),
        }
    }

    // ---- self-healing ---------------------------------------------------

    /// The `(device, op)` shard's health tracker, created on first use
    /// (a fresh tracker is `Closed`).
    fn shard_health(&self, device: u16, op: OpKind) -> Arc<ShardHealth> {
        if let Some(health) = self
            .health
            .read()
            .expect("health map poisoned")
            .get(&(device, op))
        {
            return Arc::clone(health);
        }
        let mut map = self.health.write().expect("health map poisoned");
        Arc::clone(
            map.entry((device, op))
                .or_insert_with(|| Arc::new(ShardHealth::new(Instant::now()))),
        )
    }

    /// Feed one cold-tune outcome into the shard's breaker, counting
    /// any state transition.
    fn record_tune_outcome(&self, device: u16, op: OpKind, healthy: bool) {
        let cfg = *self.breaker_cfg.read().expect("breaker config poisoned");
        match self
            .shard_health(device, op)
            .on_outcome(&cfg, healthy, Instant::now())
        {
            Some(BreakerEvent::Opened) => bump(&self.counters.breaker_opens, 1),
            Some(BreakerEvent::Closed) => bump(&self.counters.breaker_closes, 1),
            None => {}
        }
    }

    /// Was a successful tune that took `elapsed` healthy under the
    /// breaker's latency SLO (if one is set)?
    fn within_slo(&self, elapsed: Duration) -> bool {
        self.breaker_cfg
            .read()
            .expect("breaker config poisoned")
            .latency_slo
            .is_none_or(|slo| elapsed <= slo)
    }

    /// The model-free heuristic stand-in for one shape.
    fn heuristic_for(tuner: &IsaacTuner, shape: &QueryShape) -> Option<TunedChoice> {
        tuner.heuristic_shape(shape)
    }

    /// Schedule a background repair for a ledgered key, unless one is
    /// already pending.
    fn ensure_repair(
        &self,
        key: &TuneKey,
        tuner: &Arc<IsaacTuner>,
        shape: &QueryShape,
        not_before: Instant,
    ) {
        if self.ledger.claim_repair(key) {
            self.queue.push_background(BgJob::Repair {
                key: *key,
                tuner: Arc::clone(tuner),
                shape: *shape,
                not_before,
            });
        }
    }

    /// Degrade a miss instead of queueing it, when the self-healing
    /// layer says the tuned path is not worth trying: the key is
    /// quarantined (instant answer, no retry burn), or the shard's
    /// breaker is open. `None` lets the miss proceed to the flight
    /// path (including the one half-open probe per open breaker).
    fn try_degrade(
        &self,
        key: &TuneKey,
        tuner: &Arc<IsaacTuner>,
        shape: &QueryShape,
    ) -> Option<Decision> {
        if self.ledger.is_poisoned(key) {
            let choice = self
                .ledger
                .degraded_choice(key, || Self::heuristic_for(tuner, shape));
            // The poisoning flight scheduled the repair; re-arm it here
            // only if that claim was lost (e.g. dropped at shutdown).
            let ttl = self
                .quarantine_cfg
                .read()
                .expect("quarantine config poisoned")
                .ttl;
            self.ensure_repair(key, tuner, shape, Instant::now() + ttl);
            bump(&self.counters.degraded, 1);
            return Some(Decision {
                choice,
                served: Served::Degraded,
            });
        }
        let cfg = *self.breaker_cfg.read().expect("breaker config poisoned");
        match self
            .shard_health(key.device, key.op)
            .gate(&cfg, Instant::now())
        {
            Gate::Pass { .. } => None,
            Gate::Degrade { retry_at } => {
                self.ledger.note_degraded(*key);
                let choice = self
                    .ledger
                    .degraded_choice(key, || Self::heuristic_for(tuner, shape));
                self.ensure_repair(key, tuner, shape, retry_at);
                bump(&self.counters.degraded, 1);
                Some(Decision {
                    choice,
                    served: Served::Degraded,
                })
            }
        }
    }

    /// Build the flight waiter that resolves `cell` once the flight
    /// lands. The role decides how the decision reads: the leader owns
    /// the tune (`Tuned`, or `Cache` when the leader-side re-peek found
    /// the key already published), joiners coalesced. A failed flight
    /// (`None` outcome) counts itself *before* resolving the cell, so a
    /// caller woken by the failure observes it in the stats.
    fn ticket_waiter(
        self: &Arc<Self>,
        cell: Arc<TicketCell>,
    ) -> impl FnOnce(Role) -> Waiter<FlightOutcome> {
        let core = Arc::clone(self);
        move |role| {
            Box::new(move |outcome: Option<FlightOutcome>| {
                let decision = match outcome {
                    Some(FlightOutcome::Cold(choice)) => Decision {
                        choice,
                        served: match role {
                            Role::Led => Served::Tuned,
                            Role::Joined => Served::Coalesced,
                        },
                    },
                    Some(FlightOutcome::Rehit(choice)) => Decision {
                        choice: Some(choice),
                        served: match role {
                            Role::Led => Served::Cache,
                            Role::Joined => Served::Coalesced,
                        },
                    },
                    // Retry exhaustion degrades every waiter, leader
                    // and joiners alike: all of them get the heuristic
                    // stand-in, honestly labelled.
                    Some(FlightOutcome::Degraded(choice)) => {
                        bump(&core.counters.degraded, 1);
                        Decision {
                            choice,
                            served: Served::Degraded,
                        }
                    }
                    None => {
                        bump(&core.counters.failed, 1);
                        Decision {
                            choice: None,
                            served: Served::Failed,
                        }
                    }
                };
                cell.resolve(decision);
            })
        }
    }

    /// Register a miss on the single-flight table. Returns the pending
    /// ticket plus the job to enqueue if this claim opened the flight --
    /// the caller pushes it (possibly after registering more waiters;
    /// nothing can complete the flight before the job is queued).
    /// `count_join` distinguishes genuinely concurrent joiners (counted
    /// as `coalesced`) from in-batch duplicates (already counted as
    /// `batch_deduped`). A `deadline` is baked into the ticket (see
    /// [`SubmitOptions`]); either way the ticket carries an abandon
    /// hook, so a flight all of whose tickets are dropped before its
    /// job starts is cancelled instead of tuning for nobody.
    fn register_miss(
        self: &Arc<Self>,
        tuner: Arc<IsaacTuner>,
        shape: QueryShape,
        key: TuneKey,
        count_join: bool,
        deadline: Option<Instant>,
        tenant: Option<Arc<TenantSlot>>,
    ) -> (TuneTicket, Option<Job>) {
        let cell = Arc::new(TicketCell::new(Arc::clone(&self.tickets), tenant));
        let (role, flight) =
            self.flights
                .claim(key, deadline, self.ticket_waiter(Arc::clone(&cell)));
        let job = match role {
            Role::Led => Some(Job {
                key,
                flight,
                tuner,
                shape,
                enqueued: Instant::now(),
                attempts: 0,
                demoted: false,
            }),
            Role::Joined => {
                if count_join {
                    bump(&self.counters.coalesced, 1);
                }
                None
            }
        };
        let abandon: crate::ticket::AbandonHook = {
            let core = Arc::clone(self);
            let bounded = deadline.is_some();
            Box::new(move || {
                core.flights.abandon(&key, flight, bounded);
            })
        };
        (TuneTicket::pending(cell, deadline, Some(abandon)), job)
    }

    /// Worker loop body: drain the queue until shutdown, running the
    /// compaction interval in the idle gaps when one is scheduled.
    fn work(self: &Arc<Self>) {
        loop {
            match self.queue.pop_until(|| self.compaction_deadline()) {
                Popped::Job(job) => self.run_job(*job),
                Popped::Background(bg) => self.run_background(bg),
                Popped::Deadline => self.run_due_compaction(),
                Popped::Shutdown => return,
            }
        }
    }

    /// The next instant the compaction interval wants a worker to
    /// wake, if scheduled.
    fn compaction_deadline(&self) -> Option<Instant> {
        let wal = self.wal.lock().expect("wal state poisoned");
        wal.as_ref()?.schedule.map(|(_, next_due)| next_due)
    }

    /// Run the interval compaction if it is due. Exactly one worker wins
    /// the race: the next tick is scheduled *before* the (lock-free)
    /// sweep, so everyone else sees a future deadline and goes back to
    /// sleep.
    fn run_due_compaction(&self) {
        {
            let mut wal = self.wal.lock().expect("wal state poisoned");
            match wal.as_mut().and_then(|s| s.schedule.as_mut()) {
                Some((interval, next_due)) if Instant::now() >= *next_due => {
                    *next_due = Instant::now() + *interval;
                }
                _ => return,
            }
        }
        self.count_sweep(self.run_compaction_sweep());
    }

    /// Count one interval or shutdown sweep. An all-clean fleet writes
    /// no files and counts nothing: the tick is free while nothing
    /// tunes.
    fn count_sweep(&self, outcome: std::io::Result<SnapshotReport>) {
        match outcome {
            Ok(report) if report.files == 0 => {}
            Ok(report) => {
                bump(&self.counters.snapshots, 1);
                bump(&self.counters.snapshot_entries, report.entries as u64);
                if let Some(s) = self.wal.lock().expect("wal state poisoned").as_mut() {
                    s.last = Some(report);
                }
            }
            Err(_) => bump(&self.counters.snapshot_errors, 1),
        }
    }

    /// Every registered `(device, op, tuner)` triple, snapshotted under
    /// the shard read lock.
    fn shard_list(&self) -> Vec<(u16, OpKind, Arc<IsaacTuner>)> {
        let map = self.shards.read().expect("shard map poisoned");
        map.iter()
            .flat_map(|(&device, shard)| {
                shard
                    .tuners
                    .iter()
                    .map(move |(&op, t)| (device, op, Arc::clone(t)))
            })
            .collect()
    }

    /// The shard's WAL writer, created on first use (durability mode
    /// only).
    fn wal_writer(&self, device: u16, op: OpKind) -> Option<Arc<WalWriter>> {
        let mut wal = self.wal.lock().expect("wal state poisoned");
        let state = wal.as_mut()?;
        Some(Arc::clone(
            state.writers.entry((device, op)).or_insert_with(|| {
                Arc::new(WalWriter::new(
                    Arc::clone(&state.io),
                    state.dir.join(wal_file_name(device, op)),
                ))
            }),
        ))
    }

    /// Attach the shard's WAL writer as its cache journal (no-op until
    /// durability is enabled). Every publish and policy eviction from
    /// here on appends one framed record.
    fn attach_journal(&self, device: u16, op: OpKind, tuner: &IsaacTuner) {
        if let Some(writer) = self.wal_writer(device, op) {
            tuner.cache().set_journal(Some(writer));
        }
    }

    /// Durability-mode shard teardown: detach the outgoing tuner's
    /// journal (so a straggling publish cannot recreate the file
    /// mid-delete), drop the writer, and delete the shard's base and
    /// WAL files -- a removed or replaced shard must not leave stale
    /// state for the next recovery to resurrect. Deletions count into
    /// [`RouterStats::gc_removed`].
    fn gc_shard_files(&self, device: u16, op: OpKind, old: Option<&IsaacTuner>) {
        if let Some(old) = old {
            old.cache().set_journal(None);
        }
        let removed = {
            let mut wal = self.wal.lock().expect("wal state poisoned");
            let Some(state) = wal.as_mut() else { return };
            state.writers.remove(&(device, op));
            [snapshot_file_name(device, op), wal_file_name(device, op)]
                .iter()
                .filter(|name| state.io.remove_file(&state.dir.join(name.as_str())).is_ok())
                .count()
        };
        bump(&self.counters.gc_removed, removed as u64);
    }

    /// One durability interval: compact every shard whose state moved
    /// (dirty cache or non-empty WAL) into a fresh base file, then
    /// sweep the directory for orphans of unregistered shards and
    /// `.tmp` leftovers of crashed compactions.
    fn run_compaction_sweep(&self) -> std::io::Result<SnapshotReport> {
        let (dir, io) = self
            .wal
            .lock()
            .expect("wal state poisoned")
            .as_ref()
            .map(|s| (s.dir.clone(), Arc::clone(&s.io)))
            .ok_or_else(|| std::io::Error::other("durability is not enabled"))?;
        io.create_dir_all(&dir)?;
        let mut report = SnapshotReport::default();
        let shards = self.shard_list();
        for (device, op, tuner) in &shards {
            let Some(writer) = self.wal_writer(*device, *op) else {
                continue;
            };
            let wal_len = io
                .file_len(&dir.join(wal_file_name(*device, *op)))
                .unwrap_or(0);
            if !tuner.cache().is_dirty() && wal_len == 0 {
                continue;
            }
            let entries = compact_shard(io.as_ref(), &dir, *device, *op, tuner, &writer)?;
            report.files += 1;
            report.entries += entries;
            bump(&self.counters.compactions, 1);
        }
        report.gc_removed = gc_orphans(io.as_ref(), &dir, |device, op| {
            shards.iter().any(|(d, o, _)| *d == device && *o == op)
        });
        bump(&self.counters.gc_removed, report.gc_removed as u64);
        Ok(report)
    }

    /// Execute one queued job: re-peek the cache under flight
    /// leadership, cold-tune on a genuine miss, fan the result out to
    /// every ticket. A panicking (or injected-fault) tune is caught
    /// (the worker survives), counted, and retried up to
    /// [`MAX_TUNE_ATTEMPTS`]; past that the key is quarantined and the
    /// flight resolves [`Served::Degraded`] with the heuristic
    /// stand-in. Every attempt's outcome also feeds the shard's
    /// circuit breaker.
    ///
    /// Completion always targets `(key, flight id)`, never the key
    /// alone: keys recur (the same shape can miss again after a shard
    /// swap re-opens it), so a stale job must not be able to complete a
    /// *newer* flight with a decision computed on a replaced tuner.
    fn run_job(self: &Arc<Self>, job: Job) {
        if self.flights.pending_id(&job.key) != Some(job.flight) {
            // This job's flight was cancelled (shard removal/
            // replacement, shutdown) while the job sat queued; its
            // tickets have already been failed. Any flight now pending
            // under the key is a newer one with its own job.
            self.gauges.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // The tuner captured at submission must still be the shard's
        // current tuner: a submit that raced a remove/replace past the
        // cancel sweep would otherwise serve a decision from hardware
        // that was swapped out. Fail the flight like the sweep would
        // have.
        let current = self.shard_tuner(job.key.device, job.key.op);
        if !current.is_some_and(|t| Arc::ptr_eq(&t, &job.tuner)) {
            self.flights.cancel_if(&job.key, job.flight);
            self.gauges.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Deadline-driven shedding: if every live waiter's deadline has
        // already passed, nobody can consume this tune's decision in
        // time -- demote it to the background lane so jobs with live
        // waiters don't queue behind it. The demoted job still runs
        // (completing its flight and warming the cache), just at
        // strictly lower priority; its flag stops it re-shedding.
        if !job.demoted && self.flights.sheddable(&job.key, job.flight, Instant::now()) {
            self.gauges.shed.fetch_add(1, Ordering::Relaxed);
            self.queue.push_background(BgJob::Demoted(Box::new(Job {
                demoted: true,
                ..job
            })));
            return;
        }
        let waited = job.enqueued.elapsed().as_nanos() as u64;
        self.gauges
            .queue_wait_ns
            .fetch_add(waited, Ordering::Relaxed);
        // From here the flight is *started*: tickets dropped during the
        // tune no longer cancel it (the work is running anyway and its
        // decision still warms the cache).
        self.flights.mark_started(&job.key, job.flight);

        /// What one guarded tune attempt produced.
        enum Attempt {
            Rehit(TunedChoice),
            Cold(Option<TunedChoice>),
            /// An injected non-panic fault ([`FaultKind::Error`] /
            /// [`FaultKind::WrongDevice`]): no decision, no unwind.
            Faulted,
        }

        let fault = self.fault.read().expect("fault seam poisoned").clone();
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Re-check under flight leadership: a submitter that lost
            // the race between its cache miss and the flight claim would
            // otherwise re-tune a key the previous flight has already
            // published.
            if let Some(hit) = job.tuner.cache().peek(&job.key) {
                return Attempt::Rehit(hit);
            }
            if let Some(kind) = fault
                .as_ref()
                .and_then(|f| f.intercept(&job.key, job.attempts))
            {
                match kind {
                    FaultKind::Panic => panic!("injected tune panic (TuneFault)"),
                    FaultKind::Error | FaultKind::WrongDevice => return Attempt::Faulted,
                    FaultKind::Slow(delay) => std::thread::sleep(delay),
                }
            }
            Attempt::Cold(job.tuner.tune_shape_cold(&job.shape))
        }));
        match outcome {
            Ok(Attempt::Rehit(hit)) => {
                // Not a tune: no health signal either way.
                bump(&self.counters.cache_hits, 1);
                self.gauges.jobs_run.fetch_add(1, Ordering::Relaxed);
                self.flights
                    .complete_if(&job.key, job.flight, FlightOutcome::Rehit(hit));
                return;
            }
            Ok(Attempt::Cold(choice)) => {
                bump(&self.counters.cold_tunes, 1);
                self.gauges.jobs_run.fetch_add(1, Ordering::Relaxed);
                // A completed tune is healthy unless it blew the
                // breaker's latency SLO; either way the flight lands.
                self.record_tune_outcome(
                    job.key.device,
                    job.key.op,
                    self.within_slo(started.elapsed()),
                );
                // The cache entry (if any) is authoritative now: a
                // breaker-era ledger entry for this key is obsolete.
                self.ledger.discharge(&job.key);
                self.flights
                    .complete_if(&job.key, job.flight, FlightOutcome::Cold(choice));
                return;
            }
            Ok(Attempt::Faulted) => {}
            Err(_) => {
                // The flight entry (and its tickets) stays alive across
                // the retry; only the panic is recorded.
                self.flights.note_leader_panic();
            }
        }
        // Failure path, shared by injected errors and caught panics.
        self.record_tune_outcome(job.key.device, job.key.op, false);
        let policy = *self.retry.read().expect("retry policy poisoned");
        let attempts = job.attempts + 1;
        if attempts < policy.max_attempts.max(1) {
            self.gauges.tune_retries.fetch_add(1, Ordering::Relaxed);
            // Backoff on the worker that caught the panic: the job
            // re-queues after the pause, so a transiently sick device
            // is not hammered with the whole attempt budget back to
            // back.
            if !policy.backoff.is_zero() {
                std::thread::sleep(policy.backoff);
            }
            self.queue.push(Job {
                enqueued: Instant::now(),
                attempts,
                ..job
            });
        } else {
            // The retry budget is spent: quarantine the key and serve
            // every waiter the heuristic stand-in instead of failing
            // them outright. The memoized heuristic answers subsequent
            // submits instantly (no more retry burn), and a background
            // repair re-probes the key on an exponential backoff
            // (`retry_exhausted` records the exhaustion distinctly
            // from the per-attempt panic count in `leader_panics`).
            self.gauges.retry_exhausted.fetch_add(1, Ordering::Relaxed);
            let quarantine = *self
                .quarantine_cfg
                .read()
                .expect("quarantine config poisoned");
            let (newly, not_before) = self.ledger.poison(job.key, &quarantine, Instant::now());
            if newly {
                bump(&self.counters.quarantines, 1);
            }
            let choice = self
                .ledger
                .degraded_choice(&job.key, || Self::heuristic_for(&job.tuner, &job.shape));
            self.ensure_repair(&job.key, &job.tuner, &job.shape, not_before);
            self.flights
                .complete_if(&job.key, job.flight, FlightOutcome::Degraded(choice));
        }
    }

    /// Execute one background-lane item: a demoted cold tune runs like
    /// any job (its `demoted` flag stops it re-shedding), a prewarm
    /// re-benches one neighbour decision into the target shard's cache
    /// -- skipped (but still counted as processed) when the target was
    /// swapped out since the prewarm was enqueued; `warm_start` itself
    /// skips keys the target already holds -- and a repair re-probes
    /// one degraded/quarantined key ([`ServiceCore::run_repair`]).
    fn run_background(self: &Arc<Self>, bg: BgJob) {
        match bg {
            BgJob::Demoted(job) => self.run_job(*job),
            BgJob::Prewarm { target, source } => {
                let current = self.shard_tuner(target.device_id(), target.kind());
                if current.is_some_and(|t| Arc::ptr_eq(&t, &target)) {
                    let report = target.warm_start(std::slice::from_ref(&*source), 1);
                    self.gauges
                        .prewarmed
                        .fetch_add(report.seeded as u64, Ordering::Relaxed);
                }
                self.gauges.prewarm_jobs.fetch_add(1, Ordering::Relaxed);
            }
            BgJob::Repair {
                key,
                tuner,
                shape,
                not_before: _,
            } => self.run_repair(key, tuner, shape),
        }
    }

    /// One background repair probe for a degraded/quarantined key: a
    /// single tune attempt (no retry burn -- failure re-schedules on
    /// the quarantine's exponential backoff), upgrading the ledger
    /// entry to an authoritative cache entry on success.
    fn run_repair(self: &Arc<Self>, key: TuneKey, tuner: Arc<IsaacTuner>, shape: QueryShape) {
        self.gauges.repair_jobs.fetch_add(1, Ordering::Relaxed);
        // The shard was removed or replaced since this repair was
        // scheduled: its ledger entries are already purged, and the
        // successor shard starts with a clean bill of health.
        let current = self.shard_tuner(key.device, key.op);
        if !current.is_some_and(|t| Arc::ptr_eq(&t, &tuner)) {
            return;
        }
        // Already authoritative (a probe flight or a restore beat us):
        // nothing to repair.
        if tuner.cache().peek(&key).is_some() {
            if self.ledger.discharge(&key) {
                bump(&self.counters.repair_upgrades, 1);
            }
            return;
        }

        /// Outcome of the single repair attempt.
        enum Probe {
            /// The tune ran clean (`None` == no legal configuration,
            /// which no amount of repair will fix).
            Done(Option<TunedChoice>),
            /// An injected non-panic fault.
            Faulted,
        }

        let fault = self.fault.read().expect("fault seam poisoned").clone();
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(kind) = fault.as_ref().and_then(|f| f.intercept(&key, 0)) {
                match kind {
                    FaultKind::Panic => panic!("injected tune panic (TuneFault)"),
                    FaultKind::Error | FaultKind::WrongDevice => return Probe::Faulted,
                    FaultKind::Slow(delay) => std::thread::sleep(delay),
                }
            }
            Probe::Done(tuner.tune_shape_cold(&shape))
        }));
        match outcome {
            Ok(Probe::Done(choice)) => {
                // The tuned path works again (even a no-legal-config
                // answer is the tuner speaking, not a fault): feed the
                // breaker and release the quarantine. Only a published
                // decision counts as an *upgrade*.
                bump(&self.counters.cold_tunes, 1);
                self.record_tune_outcome(key.device, key.op, self.within_slo(started.elapsed()));
                let upgraded = choice.is_some() && self.ledger.discharge(&key);
                if upgraded {
                    bump(&self.counters.repair_upgrades, 1);
                } else if choice.is_none() {
                    self.ledger.discharge(&key);
                }
            }
            Ok(Probe::Faulted) | Err(_) => {
                // Still sick: escalate the backoff and try again later.
                // Repair probes are not flight leaders, so a panic here
                // does not count into `leader_panics`.
                self.record_tune_outcome(key.device, key.op, false);
                let quarantine = *self
                    .quarantine_cfg
                    .read()
                    .expect("quarantine config poisoned");
                let next = self.ledger.repair_failed(&key, &quarantine, Instant::now());
                self.queue.push_background(BgJob::Repair {
                    key,
                    tuner,
                    shape,
                    not_before: next,
                });
            }
        }
    }

    /// Cancel every pending flight matching `pred`, failing its tickets
    /// (each ticket waiter counts itself into the `failed` stat).
    fn fail_flights(&self, pred: impl Fn(&TuneKey) -> bool) -> usize {
        self.flights.cancel_matching(pred)
    }

    /// Shard-lifecycle health teardown: drop the `(device, op)` breaker
    /// and purge its keys from the quarantine ledger -- health verdicts
    /// indict hardware, and this hardware just left the fleet. Any
    /// still-queued repair job for the old tuner no-ops on its
    /// `Arc::ptr_eq` staleness check.
    fn reset_shard_health(&self, device: u16, op: OpKind) {
        self.health
            .write()
            .expect("health map poisoned")
            .remove(&(device, op));
        self.ledger
            .purge(|key| key.device == device && key.op == op);
    }
}

/// The async-first serving front door; see the module docs.
#[derive(Debug)]
pub struct TuneService {
    core: Arc<ServiceCore>,
    pool: WorkerPool,
}

impl Default for TuneService {
    fn default() -> Self {
        Self::new()
    }
}

impl TuneService {
    /// A service with the default worker pool: one worker per rayon
    /// thread (`RAYON_NUM_THREADS` honoured), capped at 8 -- cold tunes
    /// already fan out internally, so the pool only needs enough width
    /// to overlap distinct keys.
    pub fn new() -> Self {
        Self::with_workers(rayon::current_num_threads().clamp(1, 8))
    }

    /// A service with an explicit worker-pool width (clamped to >= 1).
    pub fn with_workers(workers: usize) -> Self {
        let core = Arc::new(ServiceCore {
            shards: RwLock::new(BTreeMap::new()),
            flights: SingleFlight::new(),
            counters: Counters::default(),
            queue: MissQueue::new(),
            gauges: Gauges::default(),
            tickets: Arc::new(OpenTickets::default()),
            admission: Admission::default(),
            wal: Mutex::new(None),
            last_recovery: Mutex::new(None),
            retry: RwLock::new(RetryPolicy::default()),
            fault: RwLock::new(None),
            health: RwLock::new(HashMap::new()),
            breaker_cfg: RwLock::new(BreakerConfig::default()),
            quarantine_cfg: RwLock::new(QuarantineConfig::default()),
            ledger: DegradedLedger::default(),
        });
        let worker_core = Arc::clone(&core);
        let pool = WorkerPool::spawn(workers, move || worker_core.work());
        TuneService { core, pool }
    }

    /// Worker threads draining the miss queue.
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    // ---- shard lifecycle -------------------------------------------------

    /// Register a tuner as the shard for `device` (slotted by the
    /// tuner's operation kind). The tuner's cache keys are rebound to
    /// the shard's device ordinal. If the slot was already occupied this
    /// is a hot-swap: the previous tuner is replaced and its pending
    /// flights fail their tickets (see [`TuneService::replace_shard`]).
    pub fn add_shard(&self, device: u16, tuner: IsaacTuner) -> Arc<IsaacTuner> {
        let (tuner, _old) = self.install_shard(device, tuner);
        tuner
    }

    /// Hot-swap the shard for `device` / the tuner's op kind, returning
    /// the replaced tuner (if any). Queries already in flight against
    /// the old tuner are **failed** (`Served::Failed`), not silently
    /// served from a device that no longer exists; queries submitted
    /// after the swap tune on the new tuner.
    pub fn replace_shard(&self, device: u16, tuner: IsaacTuner) -> Option<Arc<IsaacTuner>> {
        self.install_shard(device, tuner).1
    }

    fn install_shard(
        &self,
        device: u16,
        mut tuner: IsaacTuner,
    ) -> (Arc<IsaacTuner>, Option<Arc<IsaacTuner>>) {
        tuner.set_device_id(device);
        let op = tuner.kind();
        let tuner = Arc::new(tuner);
        let old = {
            let mut shards = self.core.shards.write().expect("shard map poisoned");
            shards
                .entry(device)
                .or_default()
                .tuners
                .insert(op, Arc::clone(&tuner))
        };
        if let Some(old) = &old {
            self.core
                .fail_flights(|key| key.device == device && key.op == op);
            // A hot-swap invalidates the outgoing tuner's persisted
            // state: recovery must never resurrect decisions tuned for
            // hardware that was swapped out.
            self.core.gc_shard_files(device, op, Some(old));
            // ...and its health record: quarantines indicted the old
            // hardware, and the successor starts with a closed breaker.
            self.core.reset_shard_health(device, op);
        }
        self.core.attach_journal(device, op, &tuner);
        (tuner, old)
    }

    /// Unregister the `(device, op)` shard, failing its pending tickets
    /// (`Served::Failed`) rather than stranding them; queued jobs for
    /// the shard are dropped when a worker reaches them. Returns the
    /// removed tuner, whose cache can still be snapshotted or used to
    /// warm-start a successor.
    pub fn remove_shard(&self, device: u16, op: OpKind) -> Option<Arc<IsaacTuner>> {
        let removed = {
            let mut shards = self.core.shards.write().expect("shard map poisoned");
            let shard = shards.get_mut(&device)?;
            let removed = shard.tuners.remove(&op);
            if shard.is_empty() {
                shards.remove(&device);
            }
            removed
        };
        if let Some(removed) = &removed {
            self.core
                .fail_flights(|key| key.device == device && key.op == op);
            self.core.gc_shard_files(device, op, Some(removed));
            self.core.reset_shard_health(device, op);
        }
        removed
    }

    /// The tuner serving `(device, op)`, if registered.
    pub fn shard_tuner(&self, device: u16, op: OpKind) -> Option<Arc<IsaacTuner>> {
        self.core.shard_tuner(device, op)
    }

    /// Registered device ordinals, ascending.
    pub fn devices(&self) -> Vec<u16> {
        self.core.device_ids()
    }

    // ---- submission ------------------------------------------------------

    /// Submit one query. Never blocks: a cache hit (or a refusal for an
    /// unregistered shard) returns a pre-resolved ticket, a miss
    /// enqueues the cold tune and returns a pending ticket that resolves
    /// through the single-flight table -- concurrent submissions of the
    /// same key share one tune no matter how many tickets watch it.
    ///
    /// # Examples
    ///
    /// ```
    /// use isaac_core::{IsaacTuner, OpKind, TrainOptions};
    /// use isaac_device::specs::tesla_p100;
    /// use isaac_device::DType;
    /// use isaac_gen::shapes::GemmShape;
    /// use isaac_serve::{Query, Served, TuneService};
    ///
    /// // A deliberately tiny tuner so the example trains in well under
    /// // a second; deployments use `TrainOptions::default()`.
    /// let tuner = IsaacTuner::train(
    ///     tesla_p100(),
    ///     OpKind::Gemm,
    ///     TrainOptions {
    ///         samples: 500,
    ///         hidden: vec![8],
    ///         epochs: 1,
    ///         top_k: 4,
    ///         ..Default::default()
    ///     },
    /// );
    /// let service = TuneService::new();
    /// service.add_shard(0, tuner);
    ///
    /// let query = Query::gemm(0, GemmShape::new(96, 64, 48, "N", "T", DType::F32));
    /// // First sight of the shape: the ticket resolves once the worker
    /// // pool finishes the cold tune.
    /// let first = service.submit(&query).wait();
    /// assert_eq!(first.served, Served::Tuned);
    /// assert!(first.choice.is_some(), "a kernel was selected");
    ///
    /// // Every repeat is an O(1) cache hit, pre-resolved at submission.
    /// let repeat = service.submit(&query);
    /// assert!(repeat.is_ready());
    /// assert_eq!(repeat.wait().served, Served::Cache);
    /// ```
    pub fn submit(&self, query: &Query) -> TuneTicket {
        self.submit_with(query, &SubmitOptions::default())
    }

    /// [`TuneService::submit`] with per-query [`SubmitOptions`] -- most
    /// importantly a **deadline** baked into the returned ticket:
    /// consuming the ticket past the deadline yields
    /// [`Served::TimedOut`] rather than blocking longer, while the
    /// flight itself keeps running for any other waiters (and still
    /// publishes the decision to the cache for the next query).
    pub fn submit_with(&self, query: &Query, opts: &SubmitOptions) -> TuneTicket {
        bump(&self.core.counters.queries, 1);
        let key = query.key();
        match self.core.fast_path(query, &key) {
            FastPath::Done(decision) => TuneTicket::ready(decision),
            FastPath::Miss(tuner) => {
                // Self-healing gate: a quarantined key or an open
                // breaker answers the heuristic immediately -- before
                // admission, since a degraded answer never charges the
                // tuning backend.
                if let Some(decision) = self.core.try_degrade(&key, &tuner, &query.shape) {
                    return TuneTicket::ready(decision);
                }
                // Admission runs only on the miss path: quotas guard
                // the expensive tuning backend, not the O(1) cache.
                let Ok(slot) = self.core.admission.admit(opts.tenant) else {
                    return TuneTicket::ready(Decision {
                        choice: None,
                        served: Served::Rejected,
                    });
                };
                let deadline = opts.deadline.map(|d| Instant::now() + d);
                let (ticket, job) =
                    self.core
                        .register_miss(tuner, query.shape, key, true, deadline, Some(slot));
                if let Some(job) = job {
                    self.core.queue.push(job);
                }
                ticket
            }
        }
    }

    /// Submit a batch, returning one ticket per query position.
    /// Duplicate keys inside the batch are deduplicated: the first
    /// occurrence of a cold key leads (or joins) the flight and its
    /// duplicates register as waiters on the same flight, so the batch
    /// costs one resolution per *unique* key. Duplicates of an inline
    /// outcome (cache hit / no shard) read it truthfully; duplicates of
    /// a cold tune read `Served::Coalesced`.
    ///
    /// Batch misses are admitted under tenant `0`, one in-flight charge
    /// per unique key (in-batch duplicates ride the first occurrence's
    /// charge); an over-quota unique resolves the whole duplicate group
    /// to [`Served::Rejected`].
    pub fn submit_batch(&self, queries: &[Query]) -> Vec<TuneTicket> {
        bump(&self.core.counters.queries, queries.len() as u64);
        bump(&self.core.counters.batches, 1);
        let plan = plan(queries);
        bump(&self.core.counters.batch_deduped, plan.deduped() as u64);

        /// Per-unique outcome: an inline decision to clone into every
        /// position, or the miss context duplicates join waiters on.
        enum Unique {
            Inline(Decision),
            Pending {
                ticket: Option<TuneTicket>,
                tuner: Arc<IsaacTuner>,
                shape: QueryShape,
            },
        }

        // Resolve the uniques first, holding every Led job back until
        // all in-batch waiters are registered: a flight cannot complete
        // before its job is queued, so duplicates are guaranteed to join
        // rather than accidentally re-lead.
        let mut jobs = Vec::new();
        let mut uniques: Vec<Unique> = plan
            .uniques
            .iter()
            .zip(&plan.keys)
            .map(|(&qi, key)| {
                let query = &queries[qi];
                match self.core.fast_path(query, key) {
                    FastPath::Done(decision) => Unique::Inline(decision),
                    FastPath::Miss(tuner) => {
                        // Self-healing gate, like `submit_with`:
                        // degraded uniques resolve inline (their
                        // duplicates read the same decision) and never
                        // charge admission.
                        if let Some(decision) = self.core.try_degrade(key, &tuner, &query.shape) {
                            Unique::Inline(decision)
                        } else {
                            match self.core.admission.admit(0) {
                                Err(()) => Unique::Inline(Decision {
                                    choice: None,
                                    served: Served::Rejected,
                                }),
                                Ok(slot) => {
                                    let (ticket, job) = self.core.register_miss(
                                        Arc::clone(&tuner),
                                        query.shape,
                                        *key,
                                        true,
                                        None,
                                        Some(slot),
                                    );
                                    jobs.extend(job);
                                    Unique::Pending {
                                        ticket: Some(ticket),
                                        tuner,
                                        shape: query.shape,
                                    }
                                }
                            }
                        }
                    }
                }
            })
            .collect();

        let tickets: Vec<TuneTicket> = plan
            .slot_of
            .iter()
            .enumerate()
            .map(|(i, &slot)| match &mut uniques[slot] {
                Unique::Inline(decision) => TuneTicket::ready(decision.clone()),
                Unique::Pending {
                    ticket,
                    tuner,
                    shape,
                } => {
                    if plan.uniques[slot] == i {
                        ticket.take().expect("first occurrence takes its ticket")
                    } else {
                        // In-batch duplicate: its own waiter on the same
                        // flight (counted by `batch_deduped`, not
                        // `coalesced`; the first occurrence carries the
                        // group's admission charge).
                        let (ticket, job) = self.core.register_miss(
                            Arc::clone(tuner),
                            *shape,
                            plan.keys[slot],
                            false,
                            None,
                            None,
                        );
                        jobs.extend(job);
                        ticket
                    }
                }
            })
            .collect();

        for job in jobs {
            self.core.queue.push(job);
        }
        tickets
    }

    // ---- persistence ------------------------------------------------------

    /// Export every shard's decision cache under `dir` (created if
    /// missing): one device-tagged v2 base file per `(device, op)`
    /// shard, named [`snapshot_file_name`] and written by the same
    /// temp-file + atomic-rename step as compaction. A pure export: the
    /// shards' dirty bits are untouched, so a decision not yet in the
    /// live WAL directory still reaches it at the next compaction.
    /// Reload the directory with [`TuneService::restore_all`].
    pub fn snapshot_all(&self, dir: &Path) -> std::io::Result<SnapshotReport> {
        StdIo.create_dir_all(dir)?;
        let mut report = SnapshotReport::default();
        for (device, op, tuner) in self.core.shard_list() {
            report.entries += write_base(&StdIo, dir, device, op, &tuner)?;
            report.files += 1;
        }
        Ok(report)
    }

    /// Switch the fleet to **write-ahead durability**: every shard's
    /// cache journals each publish and policy eviction as a CRC32-framed
    /// record appended to `shard-<dev>-<op>.wal` under `dir` *at the
    /// moment it happens*, and the interval work becomes **compaction**
    /// -- folding the log into the shard's base cache file and
    /// truncating it. A crash therefore loses at most the one record
    /// being appended (whose ticket never resolved); boot the next
    /// process with [`TuneService::recover_all`].
    ///
    /// Appends are on the publish path but *off* the query path: a hit
    /// touches no I/O, and an append failure (flaky disk) never fails
    /// the publish -- it is counted in
    /// [`RouterStats::wal_append_errors`] and the decision stays
    /// served from memory until a later compaction persists it.
    ///
    /// Compaction rides the worker pool (no extra thread): a worker
    /// that finds the queue idle past the interval compacts every shard
    /// whose state moved; under sustained load the sweep runs between
    /// jobs. Dropping the service compacts one final time (unless
    /// [`TuneService::disable_snapshots`] stopped the schedule).
    /// Progress is visible in [`RouterStats::snapshots`] /
    /// [`RouterStats::compactions`] / [`RouterStats::snapshot_errors`]
    /// and [`TuneService::last_snapshot`]. Calling this again replaces
    /// the directory, the I/O layer and the interval.
    pub fn enable_durability(&self, dir: impl Into<PathBuf>, interval: Duration) {
        self.enable_durability_with(dir, interval, Arc::new(StdIo));
    }

    /// [`TuneService::enable_durability`] with an explicit
    /// [`DurabilityIo`] -- the fault-injection seam: every read, append,
    /// write, rename, truncate and crash point of the durability layer
    /// routes through `io` (see `isaac_core::durability::FaultIo`).
    pub fn enable_durability_with(
        &self,
        dir: impl Into<PathBuf>,
        interval: Duration,
        io: Arc<dyn DurabilityIo>,
    ) {
        let dir = dir.into();
        // Best-effort: appends create files on demand, but the
        // directory must exist before the first one.
        let _ = io.create_dir_all(&dir);
        *self.core.wal.lock().expect("wal state poisoned") = Some(WalState {
            dir,
            io,
            writers: HashMap::new(),
            schedule: Some((interval, Instant::now() + interval)),
            last: None,
        });
        for (device, op, tuner) in self.core.shard_list() {
            self.core.attach_journal(device, op, &tuner);
        }
        // Wake the pool so parked workers pick up the new deadline.
        self.core.queue.kick();
    }

    /// Run one compaction sweep synchronously (durability mode only):
    /// every shard with a dirty cache or a non-empty WAL gets a fresh
    /// base file and a truncated log, and orphaned persistence files
    /// are GC'd. What the background interval does, on demand.
    pub fn compact_now(&self) -> std::io::Result<SnapshotReport> {
        let report = self.core.run_compaction_sweep()?;
        if let Some(s) = self.core.wal.lock().expect("wal state poisoned").as_mut() {
            s.last = Some(report);
        }
        Ok(report)
    }

    /// Recover every registered shard from the WAL layout under `dir`:
    /// merge the shard's base cache file, truncate its WAL at the first
    /// torn or corrupt record (dropped records are *counted*, never
    /// replayed as garbage), and replay the surviving records in order.
    /// Files for unregistered `(device, op)` pairs count as
    /// [`SnapshotReport::unmatched`]. Corruption totals also land in
    /// [`RouterStats::recovery_torn_records`] /
    /// [`RouterStats::recovery_skipped_records`], so a flaky disk shows
    /// up in stats instead of as silent cache shrinkage.
    ///
    /// A directory written by [`TuneService::snapshot_all`] is a
    /// durability directory without logs, so this also restores
    /// snapshots ([`TuneService::restore_all`] is this call).
    ///
    /// Call before [`TuneService::enable_durability`]: shards must not
    /// be journaling while their own log is replayed into them.
    pub fn recover_all(&self, dir: &Path) -> std::io::Result<SnapshotReport> {
        self.recover_all_with(dir, &StdIo)
    }

    /// [`TuneService::recover_all`] through an explicit
    /// [`DurabilityIo`] (the fault-injection seam).
    pub fn recover_all_with(
        &self,
        dir: &Path,
        io: &dyn DurabilityIo,
    ) -> std::io::Result<SnapshotReport> {
        let mut report = SnapshotReport::default();
        let shards = self.core.shard_list();
        for (device, op, tuner) in &shards {
            let recovery = recover_shard(io, dir, *device, *op, tuner)?;
            if recovery.base || recovery.replayed > 0 {
                report.files += 1;
            }
            report.entries += recovery.loaded;
            report.replayed += recovery.replayed;
            report.torn_records += recovery.torn_records;
            report.skipped += recovery.skipped;
        }
        for name in io.read_dir(dir).unwrap_or_default() {
            let owner = parse_snapshot_file_name(&name)
                .or_else(|| crate::durability::parse_wal_file_name(&name));
            if let Some((device, op)) = owner {
                if !shards.iter().any(|(d, o, _)| *d == device && *o == op) {
                    report.unmatched += 1;
                }
            }
        }
        bump(
            &self.core.counters.recovery_replayed,
            report.replayed as u64,
        );
        bump(
            &self.core.counters.recovery_torn_records,
            report.torn_records as u64,
        );
        bump(
            &self.core.counters.recovery_skipped_records,
            report.skipped as u64,
        );
        *self
            .core
            .last_recovery
            .lock()
            .expect("recovery report poisoned") = Some(report);
        Ok(report)
    }

    /// Stop the compaction interval **without** a final compaction on
    /// drop -- the shards keep journaling, but whatever the last sweep
    /// did not fold in stays in the logs (this is how the crash tests
    /// simulate a killed process). Returns the last sweep's report, if
    /// any. A clean shutdown does not need this: dropping the service
    /// compacts by itself.
    pub fn disable_snapshots(&self) -> Option<SnapshotReport> {
        let mut wal = self.core.wal.lock().expect("wal state poisoned");
        let state = wal.as_mut()?;
        state.schedule = None;
        state.last.take()
    }

    /// The report of the most recent compaction sweep, falling back to
    /// the most recent [`TuneService::recover_all`] report (so
    /// recovery's corruption counts stay inspectable after boot).
    /// `None` until one of them has run.
    pub fn last_snapshot(&self) -> Option<SnapshotReport> {
        let last = self
            .core
            .wal
            .lock()
            .expect("wal state poisoned")
            .as_ref()
            .and_then(|s| s.last);
        last.or_else(|| {
            *self
                .core
                .last_recovery
                .lock()
                .expect("recovery report poisoned")
        })
    }

    /// Load a directory written by [`TuneService::snapshot_all`] (or a
    /// durability directory) into the matching registered shards. A
    /// snapshot directory is a durability directory without logs, so
    /// this is exactly [`TuneService::recover_all`].
    pub fn restore_all(&self, dir: &Path) -> std::io::Result<SnapshotReport> {
        self.recover_all(dir)
    }

    // ---- warm start ------------------------------------------------------

    /// Seed the `(target, op)` shard's cache from the `(source, op)`
    /// shard's decisions; see `IsaacTuner::warm_start`. Returns `None`
    /// if either shard is missing.
    pub fn warm_start(
        &self,
        target: u16,
        source: u16,
        op: OpKind,
        top_k: usize,
    ) -> Option<WarmStartReport> {
        let src = self.shard_tuner(source, op)?;
        let dst = self.shard_tuner(target, op)?;
        let neighbour: Vec<_> = src
            .cache()
            .entries()
            .into_iter()
            .map(|(key, choice, _hits)| (key, choice))
            .collect();
        Some(dst.warm_start(&neighbour, top_k))
    }

    // ---- admission & SLO -------------------------------------------------

    /// Bound every tenant's misses in flight: a submit whose tenant
    /// ([`SubmitOptions::tenant`]) already has `quota` unresolved
    /// pending tickets resolves immediately to [`Served::Rejected`]
    /// instead of reaching the tuning backend. `None` (the default)
    /// admits everything. Per-tenant overrides
    /// ([`TuneService::set_tenant_quota`]) beat this default. The
    /// charge is released when the ticket's cell resolves -- by
    /// decision, failure, *or* deadline expiry -- so abandoning slow
    /// queries under a deadline frees quota immediately.
    pub fn set_admission_quota(&self, quota: Option<u64>) {
        self.core.admission.set_default_quota(quota);
    }

    /// Override one tenant's admission quota; `None` clears the
    /// override back to the [`TuneService::set_admission_quota`]
    /// default.
    pub fn set_tenant_quota(&self, tenant: u16, quota: Option<u64>) {
        self.core.admission.set_tenant_quota(tenant, quota);
    }

    /// Admission counters of every tenant seen so far, in tenant order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.core.admission.stats()
    }

    /// Predictive warm-start for trending-hot keys: every cached
    /// decision with at least `min_hits` hits is offered to every
    /// *other* same-op shard that does not hold the key yet, as one
    /// background-lane job per `(decision, target)` pair -- the
    /// `warm_start` rebench path, orders of magnitude cheaper than a
    /// cold tune, running strictly behind foreground work. Returns the
    /// number of prewarm jobs enqueued; completions land in
    /// [`ServiceStats::prewarmed`] / [`ServiceStats::prewarm_jobs`].
    pub fn prewarm_hot(&self, min_hits: u64) -> usize {
        let shards = self.core.shard_list();
        let mut enqueued = 0;
        for (device, op, tuner) in &shards {
            let hot: Vec<(TuneKey, TunedChoice)> = tuner
                .cache()
                .entries()
                .into_iter()
                .filter(|&(_, _, hits)| hits >= min_hits)
                .map(|(key, choice, _hits)| (key, choice))
                .collect();
            if hot.is_empty() {
                continue;
            }
            for (other_device, other_op, target) in &shards {
                if other_op != op || other_device == device {
                    continue;
                }
                for (key, choice) in &hot {
                    if target.cache().peek(&key.on_device(*other_device)).is_some() {
                        continue;
                    }
                    self.core.queue.push_background(BgJob::Prewarm {
                        target: Arc::clone(target),
                        source: Box::new((*key, choice.clone())),
                    });
                    enqueued += 1;
                }
            }
        }
        enqueued
    }

    // ---- control & introspection -----------------------------------------

    /// Pause the worker pool: submissions keep queueing and tickets stay
    /// pending, but no new cold tunes start (quiesce for maintenance /
    /// deterministic tests). Resume with [`TuneService::resume`].
    pub fn pause(&self) {
        self.core.queue.set_paused(true);
    }

    /// Resume a paused worker pool.
    pub fn resume(&self) {
        self.core.queue.set_paused(false);
    }

    /// Serving counters. In durability mode the WAL append totals are
    /// read live from the per-shard journal writers.
    pub fn stats(&self) -> RouterStats {
        let mut stats = self.core.counters.snapshot();
        if let Some(state) = self.core.wal.lock().expect("wal state poisoned").as_ref() {
            for writer in state.writers.values() {
                let (appends, bytes, errors) = writer.counters();
                stats.wal_appends += appends;
                stats.wal_bytes += bytes;
                stats.wal_append_errors += errors;
            }
        }
        stats
    }

    /// Single-flight counters, including leader panics.
    pub fn flight_stats(&self) -> FlightStats {
        self.core.flights.stats()
    }

    /// Flights currently pending (unique keys being tuned or queued).
    pub fn in_flight(&self) -> usize {
        self.core.flights.in_flight()
    }

    /// Queue / ticket gauges of the async path. One relaxed load per
    /// field: cheap, but counters written concurrently by different
    /// workers can be observed torn relative to each other -- use
    /// [`ServiceStats::snapshot`] when cross-counter invariants matter.
    pub fn service_stats(&self) -> ServiceStats {
        // Aggregate the per-shard segmented cache counters (striped,
        // monotonic) alongside the gauges so the consistent-read loop
        // in `ServiceStats::snapshot` covers them too.
        let (shard_cache_hits, shard_cache_misses) = self
            .core
            .shard_list()
            .iter()
            .map(|(_, _, tuner)| tuner.cache_stats())
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        ServiceStats {
            shard_cache_hits,
            shard_cache_misses,
            open_tickets: self.core.tickets.open(),
            peak_open_tickets: self.core.tickets.peak(),
            queue_depth: self.core.queue.depth() as u64,
            jobs_run: self.core.gauges.jobs_run.load(Ordering::Relaxed),
            jobs_cancelled: self.core.gauges.jobs_cancelled.load(Ordering::Relaxed),
            tune_retries: self.core.gauges.tune_retries.load(Ordering::Relaxed),
            retry_exhausted: self.core.gauges.retry_exhausted.load(Ordering::Relaxed),
            timed_out: self.core.tickets.timeouts(),
            queue_wait_s_total: self.core.gauges.queue_wait_ns.load(Ordering::Relaxed) as f64 / 1e9,
            rejected: self.core.admission.rejected_total(),
            shed: self.core.gauges.shed.load(Ordering::Relaxed),
            background_depth: self.core.queue.background_depth() as u64,
            prewarmed: self.core.gauges.prewarmed.load(Ordering::Relaxed),
            prewarm_jobs: self.core.gauges.prewarm_jobs.load(Ordering::Relaxed),
            repair_jobs: self.core.gauges.repair_jobs.load(Ordering::Relaxed),
        }
    }

    /// Replace the worker pool's tune-retry policy; see [`RetryPolicy`].
    /// Takes effect for the next caught panic (jobs already re-queued
    /// keep their accumulated attempt count).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.core.retry.write().expect("retry policy poisoned") = policy;
    }

    /// The current tune-retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.core.retry.read().expect("retry policy poisoned")
    }

    // ---- self-healing controls ----

    /// Install (or clear, with `None`) the tuning-path fault seam.
    /// Every subsequent cold-tune attempt -- foreground, demoted, and
    /// repair jobs alike -- consults it before running; see
    /// [`crate::fault`]. Replaces the old `inject_tune_panics` hook.
    pub fn set_tune_fault(&self, fault: Option<Arc<dyn TuneFault>>) {
        *self.core.fault.write().expect("fault seam poisoned") = fault;
    }

    /// Replace the per-shard circuit-breaker tuning. Takes effect for
    /// the next recorded tune outcome; existing breaker state (windows,
    /// open timers) is kept.
    pub fn set_breaker_config(&self, cfg: BreakerConfig) {
        *self.core.breaker_cfg.write().expect("breaker cfg poisoned") = cfg;
    }

    /// The current circuit-breaker configuration.
    pub fn breaker_config(&self) -> BreakerConfig {
        *self.core.breaker_cfg.read().expect("breaker cfg poisoned")
    }

    /// Replace the poison-key quarantine tuning (TTL and backoff cap).
    pub fn set_quarantine_config(&self, cfg: QuarantineConfig) {
        *self
            .core
            .quarantine_cfg
            .write()
            .expect("quarantine cfg poisoned") = cfg;
    }

    /// The current quarantine configuration.
    pub fn quarantine_config(&self) -> QuarantineConfig {
        *self
            .core
            .quarantine_cfg
            .read()
            .expect("quarantine cfg poisoned")
    }

    /// The circuit-breaker state of one shard's tuning path. A shard
    /// that has never recorded an outcome (or isn't registered) reports
    /// [`BreakerState::Closed`].
    pub fn breaker_state(&self, device: u16, op: OpKind) -> BreakerState {
        self.core
            .health
            .read()
            .expect("health map poisoned")
            .get(&(device, op))
            .map(|h| h.state())
            .unwrap_or(BreakerState::Closed)
    }

    /// Whether `key` is currently quarantined (exhausted its retry
    /// budget and is serving instant [`Served::Degraded`] answers while
    /// background repair backs off).
    pub fn is_quarantined(&self, key: &TuneKey) -> bool {
        self.core.ledger.is_poisoned(key)
    }

    /// Number of keys currently quarantined.
    pub fn quarantined_keys(&self) -> usize {
        self.core.ledger.poisoned_count()
    }
}

impl ServiceStats {
    /// A *consistent* gauge read: [`TuneService::service_stats`] loads
    /// each counter independently, so a snapshot taken while workers
    /// run can be torn across fields (e.g. `jobs_run` bumped but its
    /// `queue_wait_s_total` not yet). This re-samples until two
    /// consecutive reads agree -- on a quiescent service that's two
    /// cheap passes; under churn it returns the last sample after a
    /// bounded number of tries, which is no worse than the single read.
    ///
    /// The loop also covers the aggregated per-shard cache counters
    /// ([`ServiceStats::shard_cache_hits`] /
    /// [`ServiceStats::shard_cache_misses`]): those sum many striped
    /// per-segment cells, and a sum taken mid-traffic can lag -- but
    /// every stripe is monotonic, so between two snapshot calls the
    /// aggregated totals never go backwards (regression-tested).
    pub fn snapshot(service: &TuneService) -> ServiceStats {
        let mut prev = service.service_stats();
        for _ in 0..8 {
            let next = service.service_stats();
            if next == prev {
                return next;
            }
            prev = next;
        }
        prev
    }
}

impl Drop for TuneService {
    fn drop(&mut self) {
        // Stop the queue, then fail every still-pending flight so no
        // ticket (held by another thread) blocks forever. An in-flight
        // tune finishing after the cancel publishes to the cache but
        // finds no flight -- harmless.
        let orphaned = self.core.queue.begin_shutdown();
        drop(orphaned);
        self.core.fail_flights(|_| true);
        // Join the workers *now* (drop would too, but later), so the
        // final compaction below cannot miss a decision published by a
        // still-running tune.
        self.pool.join();
        let scheduled = self
            .core
            .wal
            .lock()
            .expect("wal state poisoned")
            .as_ref()
            .is_some_and(|s| s.schedule.is_some());
        if scheduled {
            // Compact the logs one final time so the next boot replays
            // nothing. Errors are counted (the stats are about to die
            // with us, but the counter keeps the path honest).
            self.core.count_sweep(self.core.run_compaction_sweep());
        }
    }
}

/// Base file name for one `(device, op)` shard:
/// `shard-<device>-<op>.cache` (see [`crate::durability`]).
pub fn snapshot_file_name(device: u16, op: OpKind) -> String {
    format!("shard-{device}-{op}.cache")
}

/// Inverse of [`snapshot_file_name`]; `None` for foreign files.
pub fn parse_snapshot_file_name(name: &str) -> Option<(u16, OpKind)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".cache")?;
    let (device, op) = rest.split_once('-')?;
    let device = device.parse().ok()?;
    Some((device, OpKind::parse(op)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_file_names_roundtrip() {
        for (device, op) in [(0, OpKind::Gemm), (7, OpKind::Conv), (65535, OpKind::Gemm)] {
            let name = snapshot_file_name(device, op);
            assert_eq!(parse_snapshot_file_name(&name), Some((device, op)));
        }
        assert_eq!(parse_snapshot_file_name("shard-1-gemm.txt"), None);
        assert_eq!(parse_snapshot_file_name("shard-x-gemm.cache"), None);
        assert_eq!(parse_snapshot_file_name("shard-1-sgemm.cache"), None);
        assert_eq!(parse_snapshot_file_name("model.txt"), None);
    }
}
