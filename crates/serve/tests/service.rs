//! End-to-end properties of the ticket-based async front door:
//!
//! 1. **single-thread multiplexing** -- one OS thread submits 64 misses
//!    and drives them all to completion through `TuneTicket::poll`,
//!    with exactly one cold tune per unique contended key (the
//!    single-flight invariant, preserved under the waker design);
//! 2. **snapshot/restore** -- `snapshot_all` on one service,
//!    `restore_all` into a freshly built one: every snapshotted key is
//!    a cache hit afterwards, zero cold tunes;
//! 3. **shard lifecycle** -- removing or replacing a shard fails its
//!    pending tickets (`Served::Failed`) instead of stranding them, and
//!    drops its queued jobs;
//! 4. **leader panics** -- a panicking tune (injected through the
//!    `TuneFault` seam) is retried and recorded in
//!    `FlightStats::leader_panics`; past the retry budget the key is
//!    quarantined and the flight resolves `Served::Degraded`, healing
//!    via background repair;
//! 5. **ticket hygiene** -- dropping a ticket before completion leaks
//!    no flight entry and never wakes the dead ticket's waker.

use isaac_core::{EvictionPolicy, IsaacTuner, OpKind, TrainOptions};
use isaac_device::specs::{gtx980ti, tesla_p100};
use isaac_device::{DType, DeviceSpec};
use isaac_gen::shapes::GemmShape;
use isaac_serve::{
    Decision, FaultKind, FaultTuner, QuarantineConfig, Query, Served, SnapshotReport,
    SubmitOptions, TuneService,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Train one small GEMM model, once per process, and hand out cheap
/// clones via the text serialization (training dominates test time;
/// loading is milliseconds).
fn shared_model_path() -> &'static Path {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let tuner = IsaacTuner::train(
            tesla_p100(),
            OpKind::Gemm,
            TrainOptions {
                samples: 1_500,
                hidden: vec![16, 16],
                epochs: 2,
                top_k: 10,
                ..Default::default()
            },
        );
        let path = std::env::temp_dir().join("isaac_service_shared_model.txt");
        tuner.save(&path).expect("save shared model");
        path
    })
}

fn fresh_tuner(spec: DeviceSpec) -> IsaacTuner {
    IsaacTuner::load(shared_model_path(), spec, OpKind::Gemm).expect("load shared model")
}

fn gemm_query(device: u16, m: u32, n: u32, k: u32) -> Query {
    Query::gemm(device, GemmShape::new(m, n, k, "N", "T", DType::F32))
}

/// Spin (with a timeout) until an asynchronous gauge settles.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A waker that flags a condvar: the poll loop sleeps on it between
/// rounds instead of spinning.
#[derive(Default)]
struct PollNotify {
    flagged: Mutex<bool>,
    cv: Condvar,
}

impl Wake for PollNotify {
    fn wake(self: Arc<Self>) {
        *self.flagged.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl PollNotify {
    /// Sleep until woken (or a short timeout: a wake that raced the
    /// previous flag reset must not deadlock the loop -- the caller
    /// re-polls anyway).
    fn wait(&self) {
        let mut flagged = self.flagged.lock().unwrap();
        while !*flagged {
            let (guard, timeout) = self
                .cv
                .wait_timeout(flagged, Duration::from_millis(200))
                .unwrap();
            flagged = guard;
            if timeout.timed_out() {
                break;
            }
        }
        *flagged = false;
    }
}

/// A waker that only counts how often it fires.
#[derive(Default)]
struct CountingWake {
    wakes: AtomicUsize,
}

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn one_thread_drives_64_in_flight_misses_via_poll() {
    const UNIQUE: u32 = 16;
    const TICKETS: usize = 64;
    let service = TuneService::with_workers(2);
    service.add_shard(0, fresh_tuner(tesla_p100()));

    // Pause the pool so the whole burst is provably in flight at once.
    service.pause();
    let queries: Vec<Query> = (0..TICKETS)
        .map(|i| gemm_query(0, 96 + 16 * (i as u32 % UNIQUE), 64, 48))
        .collect();
    let tickets: Vec<_> = queries.iter().map(|q| service.submit(q)).collect();
    let gauges = service.service_stats();
    assert_eq!(gauges.open_tickets, TICKETS as u64, "all misses pending");
    assert_eq!(gauges.peak_open_tickets, TICKETS as u64);
    assert_eq!(service.in_flight(), UNIQUE as usize, "one flight per key");
    assert!(tickets.iter().all(|t| t.try_get().is_none()));
    service.resume();

    // Mini executor: THIS thread multiplexes all 64 tickets by polling
    // with a waker; no other thread of ours ever blocks on a decision.
    let notify = Arc::new(PollNotify::default());
    let waker = Waker::from(Arc::clone(&notify));
    let mut cx = Context::from_waker(&waker);
    let mut decisions: Vec<Option<Decision>> = (0..TICKETS).map(|_| None).collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let mut unresolved = 0;
        for (slot, ticket) in tickets.iter().enumerate() {
            if decisions[slot].is_none() {
                match ticket.poll_decision(&mut cx) {
                    Poll::Ready(d) => decisions[slot] = Some(d),
                    Poll::Pending => unresolved += 1,
                }
            }
        }
        if unresolved == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "poll loop timed out");
        notify.wait();
    }

    // THE invariant, now waker-driven: exactly one cold tune per unique
    // contended key, everyone else coalesced.
    let stats = service.stats();
    assert_eq!(stats.queries, TICKETS as u64);
    assert_eq!(stats.cold_tunes, UNIQUE as u64);
    let tuned = decisions
        .iter()
        .flatten()
        .filter(|d| d.served == Served::Tuned)
        .count();
    let coalesced = decisions
        .iter()
        .flatten()
        .filter(|d| d.served == Served::Coalesced)
        .count();
    assert_eq!(tuned, UNIQUE as usize, "one Tuned decision per key");
    assert_eq!(coalesced, TICKETS - UNIQUE as usize);

    // Every ticket on a key resolves to the bit-identical choice (the
    // first 16 slots are the first occurrences of the 16 keys).
    for (slot, decision) in decisions.iter().enumerate() {
        let d = decision.as_ref().expect("resolved");
        let first = decisions[slot % UNIQUE as usize].as_ref().unwrap();
        assert!(d.choice.is_some(), "slot {slot} got a kernel");
        assert_eq!(d.choice, first.choice, "slot {slot} identical to leader");
    }

    // Nothing leaks once the dust settles.
    assert_eq!(service.in_flight(), 0);
    assert_eq!(service.service_stats().open_tickets, 0);
    assert!(service.service_stats().queue_wait_s_total >= 0.0);
}

#[test]
fn snapshot_restore_roundtrips_every_shard() {
    let dir = std::env::temp_dir().join("isaac_service_snapshot_test");
    let _ = std::fs::remove_dir_all(&dir);

    let service = TuneService::new();
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.add_shard(1, fresh_tuner(gtx980ti()));
    let queries = [
        gemm_query(0, 96, 64, 48),
        gemm_query(0, 256, 64, 512),
        gemm_query(1, 96, 64, 48),
    ];
    let originals: Vec<Decision> = queries.iter().map(|q| service.submit(q).wait()).collect();
    assert!(originals.iter().all(|d| d.choice.is_some()));

    let snap = service.snapshot_all(&dir).expect("snapshot");
    assert_eq!(
        snap,
        SnapshotReport {
            files: 2,
            entries: 3,
            ..Default::default()
        },
        "one device-tagged cache file per shard"
    );

    // A brand-new service (fresh tuners, empty caches) restores the
    // fleet and serves the snapshotted keys without a single cold tune.
    let restored = TuneService::new();
    restored.add_shard(0, fresh_tuner(tesla_p100()));
    restored.add_shard(1, fresh_tuner(gtx980ti()));
    let report = restored.restore_all(&dir).expect("restore");
    assert_eq!(
        report,
        SnapshotReport {
            files: 2,
            entries: 3,
            ..Default::default()
        }
    );
    for (q, original) in queries.iter().zip(&originals) {
        let d = restored.submit(q).wait();
        assert_eq!(d.served, Served::Cache, "restored key must be a hit");
        assert_eq!(
            d.choice.as_ref().map(|c| c.config),
            original.choice.as_ref().map(|c| c.config),
            "restored decision selects the same kernel"
        );
    }
    assert_eq!(restored.stats().cold_tunes, 0, "restore means no re-tuning");

    // Snapshots for unregistered shards are reported, not dropped
    // silently.
    let partial = TuneService::new();
    partial.add_shard(0, fresh_tuner(tesla_p100()));
    let report = partial.restore_all(&dir).expect("partial restore");
    assert_eq!(report.files, 1);
    assert_eq!(report.unmatched, 1, "device 1 snapshot has no shard");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_shard_fails_pending_tickets_instead_of_stranding_them() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();

    let query = gemm_query(0, 128, 64, 96);
    let leader = service.submit(&query);
    let joiner = service.submit(&query);
    assert!(leader.try_get().is_none() && joiner.try_get().is_none());

    let removed = service.remove_shard(0, OpKind::Gemm).expect("registered");
    // Both tickets resolve immediately -- failed, not stranded -- even
    // though the worker pool is paused and the job still sits queued.
    for ticket in [&leader, &joiner] {
        let d = ticket.wait();
        assert_eq!(d.served, Served::Failed);
        assert_eq!(d.choice, None);
    }
    assert_eq!(service.stats().failed, 2);
    assert_eq!(service.flight_stats().cancelled, 1);
    assert_eq!(service.in_flight(), 0);

    // New queries are refused, the orphaned job is dropped (counted),
    // and the removed tuner is still usable stand-alone.
    service.resume();
    assert_eq!(service.submit(&query).wait().served, Served::NoShard);
    wait_until("the orphaned job to be dropped", || {
        service.service_stats().jobs_cancelled == 1
    });
    assert_eq!(removed.cache_len(), 0, "nothing was tuned");

    // Re-adding a shard brings the device back to life.
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let d = service.submit(&query).wait();
    assert_eq!(d.served, Served::Tuned);
    assert!(d.choice.is_some());
}

#[test]
fn replacing_a_shard_fails_in_flight_queries_and_serves_new_ones() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();
    let stale = service.submit(&gemm_query(0, 160, 64, 96));

    // Hot-swap the device: the in-flight query must not come back with
    // a decision tuned for hardware that no longer exists.
    let old = service.replace_shard(0, fresh_tuner(gtx980ti()));
    assert!(old.is_some(), "the replaced tuner is handed back");
    assert_eq!(stale.wait().served, Served::Failed);

    service.resume();
    let fresh = service.submit(&gemm_query(0, 160, 64, 96)).wait();
    assert_eq!(fresh.served, Served::Tuned);
    assert!(fresh.choice.is_some());
}

#[test]
fn stale_jobs_from_a_swapped_shard_never_serve_the_new_flight() {
    // Regression: completion targets (key, flight id), not the key
    // alone. A job queued before a hot-swap must neither complete the
    // re-submitted key's new flight nor publish a decision computed on
    // the replaced tuner.
    let service = TuneService::with_workers(1);
    let old = service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();

    let query = gemm_query(0, 288, 64, 96);
    let stale = service.submit(&query); // job J1 on the old tuner
    let replacement = service.replace_shard(0, fresh_tuner(tesla_p100()));
    assert!(replacement.is_some());
    assert_eq!(stale.wait().served, Served::Failed);
    let fresh = service.submit(&query); // new flight, job J2 on the new tuner
    let new_tuner = service.shard_tuner(0, OpKind::Gemm).expect("new shard");

    service.resume();
    let d = fresh.wait();
    assert_eq!(d.served, Served::Tuned, "the new flight resolves normally");
    assert!(d.choice.is_some());
    // J1 was dropped, not run: the replaced tuner tuned nothing and the
    // decision lives in the new tuner's cache.
    assert_eq!(old.cache_len(), 0, "stale job never ran on the old tuner");
    assert_eq!(new_tuner.cache_len(), 1);
    wait_until("the stale job to be dropped", || {
        service.service_stats().jobs_cancelled == 1
    });
    assert_eq!(service.stats().cold_tunes, 1);
}

#[test]
fn tune_panics_are_retried_recorded_and_eventually_degrade_the_flight() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    // Fast repair backoff so the quarantined key heals within the test.
    service.set_quarantine_config(QuarantineConfig {
        ttl: Duration::from_millis(10),
        max_ttl: Duration::from_millis(100),
    });
    let fault = Arc::new(FaultTuner::new());
    service.set_tune_fault(Some(fault.clone()));

    // One injected panic: the retry lands the tune, every ticket
    // resolves, and the panic is visible in the flight stats (the
    // abort+retry used to be invisible there).
    service.pause();
    let query = gemm_query(0, 192, 64, 96);
    fault.fault_key(query.key(), &[FaultKind::Panic]);
    let leader = service.submit(&query);
    let joiner = service.submit(&query);
    service.resume();
    let (a, b) = (leader.wait(), joiner.wait());
    assert_eq!(a.served, Served::Tuned, "retry ran the cold tune");
    assert_eq!(b.served, Served::Coalesced);
    assert!(a.choice.is_some());
    assert_eq!(a.choice, b.choice, "the retried flight fans out normally");
    assert_eq!(service.flight_stats().leader_panics, 1);
    assert_eq!(service.service_stats().tune_retries, 1);
    assert_eq!(service.stats().cold_tunes, 1);

    // A tune that never stops panicking exhausts the retry budget; the
    // key is quarantined and the flight resolves with the model-free
    // heuristic instead of failing its tickets.
    let doomed_query = gemm_query(0, 224, 64, 96);
    fault.poison_key(doomed_query.key(), FaultKind::Panic);
    let doomed = service.submit(&doomed_query);
    let d = doomed.wait();
    assert_eq!(d.served, Served::Degraded);
    assert!(d.choice.is_some(), "the heuristic stood in");
    assert_eq!(service.flight_stats().leader_panics, 1 + 3, "3 attempts");
    assert_eq!(service.service_stats().retry_exhausted, 1);
    assert_eq!(service.stats().failed, 0, "degraded is not failed");
    assert_eq!(service.stats().quarantines, 1);
    assert!(service.is_quarantined(&doomed_query.key()));

    // While quarantined, resubmits answer instantly from the ledger --
    // same heuristic choice, no retry burn.
    let attempts_before = fault.attempts(&doomed_query.key());
    let parked = service.submit(&doomed_query).wait();
    assert_eq!(parked.served, Served::Degraded);
    assert_eq!(parked.choice, d.choice, "memoized heuristic");
    assert_eq!(fault.attempts(&doomed_query.key()), attempts_before);

    // Healing the seam lets the background repair land a real tune and
    // discharge the quarantine; the key then serves from the cache.
    fault.heal(&doomed_query.key());
    wait_until("the repair to upgrade the cache", || {
        service.stats().repair_upgrades == 1
    });
    assert!(!service.is_quarantined(&doomed_query.key()));
    let healed = service.submit(&doomed_query).wait();
    assert_eq!(healed.served, Served::Cache);
    assert!(healed.choice.is_some());
}

#[test]
fn dropped_tickets_neither_leak_flights_nor_wake_dead_wakers() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();

    let query = gemm_query(0, 256, 64, 96);
    let kept = service.submit(&query);
    let doomed = service.submit(&query);
    assert_eq!(service.service_stats().open_tickets, 2);

    // The doomed ticket registers a waker, then dies before completion.
    let counting = Arc::new(CountingWake::default());
    let waker = Waker::from(Arc::clone(&counting));
    let mut cx = Context::from_waker(&waker);
    assert!(doomed.poll_decision(&mut cx).is_pending());
    drop(doomed);

    service.resume();
    let d = kept.wait();
    assert_eq!(d.served, Served::Tuned);
    assert!(d.choice.is_some());

    // The flight completed and freed everything: no leaked entry, and
    // the dropped ticket's completion slot resolves too (the fan-out to
    // the other waiters finishes moments after the first waiter wakes).
    assert_eq!(service.in_flight(), 0, "no leaked flight entry");
    wait_until("the dropped ticket's slot to resolve", || {
        service.service_stats().open_tickets == 0
    });
    assert_eq!(counting.wakes.load(Ordering::SeqCst), 0, "dead waker slept");

    // The decision still made it into the cache for future callers.
    assert_eq!(service.submit(&query).wait().served, Served::Cache);
}

#[test]
fn contended_key_resolves_every_ticket_bit_identically() {
    let service = TuneService::with_workers(2);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();
    let query = gemm_query(0, 512, 64, 128);
    let tickets: Vec<_> = (0..64).map(|_| service.submit(&query)).collect();
    assert_eq!(service.in_flight(), 1, "64 tickets, one flight");
    service.resume();

    let first = tickets[0].wait();
    assert_eq!(first.served, Served::Tuned);
    for ticket in &tickets[1..] {
        let d = ticket.wait();
        assert_eq!(d.served, Served::Coalesced);
        assert_eq!(d.choice, first.choice, "bit-identical fan-out");
    }
    assert_eq!(
        service.stats().cold_tunes,
        1,
        "one cold tune for 64 tickets"
    );
}

#[test]
fn timed_out_waiter_does_not_poison_the_flight_for_others() {
    // The PR 5 acceptance shape: a deadline-bounded waiter gives up,
    // but a concurrent unbounded waiter on the same key still receives
    // the tuned decision, and the decision still reaches the cache.
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();

    let query = gemm_query(0, 352, 64, 96);
    let bounded = service.submit_with(
        &query,
        &SubmitOptions {
            deadline: Some(Duration::from_millis(20)),
            ..SubmitOptions::default()
        },
    );
    let unbounded = service.submit(&query);

    // The pool is paused, so the deadline expires first.
    let d = bounded.wait();
    assert_eq!(d.served, Served::TimedOut);
    assert_eq!(d.choice, None);
    assert_eq!(service.service_stats().timed_out, 1);
    // Expiry is sticky and ticket-local: this ticket stays timed out
    // even after the flight lands.
    assert_eq!(bounded.try_get().map(|d| d.served), Some(Served::TimedOut));

    service.resume();
    let d = unbounded.wait();
    assert_eq!(
        d.served,
        Served::Coalesced,
        "the unbounded waiter joined the bounded leader's flight"
    );
    assert!(d.choice.is_some(), "the tune still landed for it");
    assert_eq!(service.stats().cold_tunes, 1, "exactly one tune ran");
    assert_eq!(bounded.wait().served, Served::TimedOut, "still sticky");

    // The flight was not poisoned: the decision is in the cache now.
    assert_eq!(service.submit(&query).wait().served, Served::Cache);
    // `failed` counts real failures, not deadline expiries.
    assert_eq!(service.stats().failed, 0);
}

#[test]
fn wait_timeout_bounds_a_ticket_without_a_baked_in_deadline() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();

    let ticket = service.submit(&gemm_query(0, 416, 64, 96));
    let t0 = Instant::now();
    let d = ticket.wait_timeout(Duration::from_millis(15));
    assert!(t0.elapsed() >= Duration::from_millis(15));
    assert_eq!(d.served, Served::TimedOut);
    assert_eq!(service.service_stats().timed_out, 1);
    service.resume();

    // A ticket that resolves in time is unaffected by the bound.
    let quick = service.submit(&gemm_query(0, 448, 64, 96));
    let d = quick.wait_timeout(Duration::from_secs(60));
    assert_eq!(d.served, Served::Tuned);
    assert!(d.choice.is_some());
    assert_eq!(service.service_stats().timed_out, 1, "no spurious expiry");
}

#[test]
fn fully_dropped_prestart_tickets_cancel_the_queued_job() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();

    let query = gemm_query(0, 480, 64, 96);
    let leader = service.submit(&query);
    let joiner = service.submit(&query);
    assert_eq!(service.in_flight(), 1);

    // One holder gives up: the flight lives (the other still waits).
    drop(leader);
    assert_eq!(service.flight_stats().cancelled, 0);
    assert_eq!(service.in_flight(), 1);

    // The last holder gives up pre-start: the flight is cancelled
    // through the (key, FlightId) path and the queued job never tunes.
    drop(joiner);
    assert_eq!(service.flight_stats().cancelled, 1);
    assert_eq!(service.in_flight(), 0);

    service.resume();
    wait_until("the orphaned job to be dropped", || {
        service.service_stats().jobs_cancelled == 1
    });
    assert_eq!(service.stats().cold_tunes, 0, "nobody tuned for nobody");
    let tuner = service.shard_tuner(0, OpKind::Gemm).expect("shard");
    assert_eq!(tuner.cache_len(), 0);
    // The gauge stayed truthful: both dead tickets' cells resolved.
    assert_eq!(service.service_stats().open_tickets, 0);

    // The key is not poisoned: a live submission tunes normally.
    let d = service.submit(&query).wait();
    assert_eq!(d.served, Served::Tuned);
    assert!(d.choice.is_some());
}

#[test]
fn tickets_dropped_after_the_tune_starts_do_not_cancel_it() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));

    // Submit unpaused and give the worker a moment to pick the job up,
    // then drop the only ticket mid-tune: the flight must complete and
    // publish (the work is paid for either way).
    let query = gemm_query(0, 544, 64, 96);
    let ticket = service.submit(&query);
    wait_until("the job to leave the queue", || {
        service.service_stats().queue_depth == 0
    });
    drop(ticket);
    wait_until("the tune to land in the cache", || {
        service
            .shard_tuner(0, OpKind::Gemm)
            .is_some_and(|t| t.cache_len() == 1)
    });
    assert_eq!(service.stats().cold_tunes, 1);
    assert_eq!(service.submit(&query).wait().served, Served::Cache);
}

#[test]
fn cost_aware_shards_keep_hot_expensive_decisions_under_pressure() {
    // Router-level acceptance for PR 5's eviction tentpole: on a
    // capacity-bounded shard, a hot deep-reduction decision (expensive
    // to re-acquire) survives a scan of cheap one-off shapes under the
    // default CostAware policy -- and demonstrably does NOT under the
    // LRU reference policy on an identical trace.
    let run_trace = |policy: EvictionPolicy| -> (TuneService, Query) {
        let mut tuner = fresh_tuner(tesla_p100());
        tuner.set_eviction_policy(policy);
        tuner.set_cache_capacity(3);
        let service = TuneService::with_workers(1);
        service.add_shard(0, tuner);

        // One expensive deep-reduction key, hit repeatedly...
        let deep = Query::gemm(0, GemmShape::new(32, 32, 60_000, "N", "T", DType::F32));
        assert_eq!(service.submit(&deep).wait().served, Served::Tuned);
        for _ in 0..4 {
            assert_eq!(service.submit(&deep).wait().served, Served::Cache);
        }
        // ...then a scan of cheap one-off shapes that overflows the
        // 3-entry cache.
        for i in 0..4u32 {
            let q = gemm_query(0, 96 + 16 * i, 48, 64);
            assert_eq!(service.submit(&q).wait().served, Served::Tuned);
        }
        (service, deep)
    };

    let (service, deep) = run_trace(EvictionPolicy::CostAware);
    let tuner = service.shard_tuner(0, OpKind::Gemm).expect("shard");
    let stats = tuner.cache_stats();
    assert_eq!(stats.evictions, 2, "the scan overflowed by two");
    assert_eq!(stats.evicted_hits, 0, "only cold scan entries were shed");
    assert_eq!(
        service.submit(&deep).wait().served,
        Served::Cache,
        "the hot, expensive decision survived the scan"
    );

    let (service, deep) = run_trace(EvictionPolicy::Lru);
    assert_eq!(
        service.submit(&deep).wait().served,
        Served::Tuned,
        "plain LRU lost the hot decision to the scan and must re-tune"
    );
    let tuner = service.shard_tuner(0, OpKind::Gemm).expect("shard");
    assert!(
        tuner.cache_stats().evicted_hits >= 4,
        "LRU threw away hot traffic"
    );
}

#[test]
fn dropping_the_service_fails_outstanding_tickets() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.pause();
    let orphan = service.submit(&gemm_query(0, 320, 64, 96));
    drop(service);
    // Shutdown cancels the flight: the ticket resolves instead of
    // blocking a caller forever on a dead service.
    assert_eq!(orphan.wait().served, Served::Failed);
}
