//! Serving-layer chaos: seeded fault scripts driven through the
//! `TuneFault` seam, asserting the self-healing invariants end to end:
//!
//! 1. **no stranded tickets** -- under a mixed per-key fault storm
//!    (panics, errors, stalls, wrong-device) every submitted ticket
//!    resolves, and once the faults clear the fleet converges: every
//!    key cached, breakers re-closed, quarantine empty, and the cache
//!    **bit-identical** (`cache_text`) to a never-faulted shadow
//!    service that tuned the same working set;
//! 2. **quarantine answers instantly** -- a poisoned key resolves
//!    `Served::Degraded` without touching the foreground miss queue or
//!    burning another tune attempt;
//! 3. **degraded is never durable** -- with durability on, a
//!    quarantined key writes nothing to the WAL and nothing to
//!    snapshots; the background repair upgrades it to an authoritative
//!    entry exactly once, and only *that* is journaled;
//! 4. **breaker-open degrades new keys** -- with the shard's breaker
//!    tripped, a fresh key is served by the model-free heuristic
//!    (exactly `IsaacTuner::heuristic_shape`, measurements zeroed), and
//!    repair + a healthy probe re-close the breaker.
//!
//! Seeds come from `ISAAC_CHAOS_SEEDS` (space-separated u64s; CI pins
//! its own set) so a failure reproduces exactly.

use isaac_core::{IsaacTuner, KeyShape, OpKind, TrainOptions};
use isaac_device::specs::tesla_p100;
use isaac_device::{DType, DeviceSpec};
use isaac_gen::shapes::GemmShape;
use isaac_serve::{
    snapshot_file_name, wal_file_name, BreakerConfig, BreakerState, FaultKind, FaultTuner,
    QuarantineConfig, Query, Served, TuneService,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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
        let path = std::env::temp_dir().join("isaac_chaos_serve_shared_model.txt");
        tuner.save(&path).expect("save shared model");
        path
    })
}

fn fresh_tuner(spec: DeviceSpec) -> IsaacTuner {
    IsaacTuner::load(shared_model_path(), spec, OpKind::Gemm).expect("load shared model")
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "isaac_chaos_serve_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The seed set under test: `ISAAC_CHAOS_SEEDS` or the pinned default.
fn seeds() -> Vec<u64> {
    let raw = std::env::var("ISAAC_CHAOS_SEEDS").unwrap_or_else(|_| "11 42 1802".into());
    let seeds: Vec<u64> = raw
        .split_whitespace()
        .map(|s| s.parse().expect("ISAAC_CHAOS_SEEDS: integers only"))
        .collect();
    assert!(!seeds.is_empty(), "ISAAC_CHAOS_SEEDS is empty");
    seeds
}

fn gemm_query(device: u16, m: u32, n: u32, k: u32) -> Query {
    Query::gemm(device, GemmShape::new(m, n, k, "N", "T", DType::F32))
}

/// Spin (with a timeout) until an asynchronous gauge settles.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Breaker/quarantine tuning for the chaos runs: short TTLs so the
/// state machines cycle within a test, no latency SLO (honest
/// debug-mode tunes are slow -- the SLO is exercised by unit tests).
fn impatient(service: &TuneService) {
    service.set_breaker_config(BreakerConfig {
        window: 8,
        failure_threshold: 3,
        open_ttl: Duration::from_millis(15),
        max_open_ttl: Duration::from_millis(200),
        latency_slo: None,
    });
    service.set_quarantine_config(QuarantineConfig {
        ttl: Duration::from_millis(10),
        max_ttl: Duration::from_millis(100),
    });
}

const NEVER: Duration = Duration::from_secs(3_600);

/// Scenario 1: the full storm. Six keys with per-key fault scripts
/// spanning the whole catalog are submitted (shuffled, with coalescing
/// duplicates) against a two-worker fleet. Every ticket must resolve;
/// quarantined keys must answer from the ledger without burning
/// attempts; and after the seam is cleared the fleet must converge to
/// a cache byte-identical to a never-faulted shadow.
#[test]
fn faulted_fleet_converges_to_the_shadow_cache() {
    for &seed in &seeds() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0A5C);
        let shapes: Vec<(u32, u32, u32)> = (0..6)
            .map(|_| {
                (
                    16 * (2 + rng.gen_range(0..40u32)),
                    16 * (2 + rng.gen_range(0..10u32)),
                    16 * (1 + rng.gen_range(0..6u32)),
                )
            })
            .collect();

        // The shadow: same model, same working set, zero faults.
        let shadow_text = {
            let service = TuneService::with_workers(2);
            service.add_shard(0, fresh_tuner(tesla_p100()));
            for &(m, n, k) in &shapes {
                let d = service.submit(&gemm_query(0, m, n, k)).wait();
                assert!(d.choice.is_some(), "seed {seed}: shadow tune failed");
            }
            service
                .shard_tuner(0, OpKind::Gemm)
                .expect("shadow shard")
                .cache_text()
        };

        let service = TuneService::with_workers(2);
        let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
        impatient(&service);
        let budget = service.retry_policy().max_attempts;
        let fault = Arc::new(FaultTuner::new());
        service.set_tune_fault(Some(fault.clone()));

        // One script per key, covering the catalog. Scripts longer than
        // the retry budget force quarantine + repair; shorter ones ride
        // the in-flight retry path.
        let scripts: Vec<Vec<FaultKind>> = vec![
            vec![],
            vec![FaultKind::Panic; (budget - 1) as usize],
            vec![FaultKind::Panic; (budget + 2) as usize],
            vec![FaultKind::Error; (budget + 1) as usize],
            vec![FaultKind::Slow(Duration::from_millis(25)); 2],
            vec![FaultKind::WrongDevice; budget as usize],
        ];
        let queries: Vec<Query> = shapes
            .iter()
            .map(|&(m, n, k)| gemm_query(0, m, n, k))
            .collect();
        for (q, script) in queries.iter().zip(&scripts) {
            fault.fault_key(q.key(), script);
        }

        // Shuffled submissions with duplicates: coalescing under fire.
        let mut order: Vec<usize> = (0..queries.len()).chain(0..queries.len()).collect();
        order.shuffle(&mut rng);
        let tickets: Vec<_> = order
            .iter()
            .map(|&i| (i, service.submit(&queries[i])))
            .collect();

        // Invariant: no stranded tickets, and no ticket fails outright
        // -- a flight that exhausts its budget degrades instead.
        for (i, ticket) in tickets {
            let d = ticket.wait();
            assert!(
                matches!(
                    d.served,
                    Served::Tuned | Served::Cache | Served::Coalesced | Served::Degraded
                ),
                "seed {seed} key {i}: unexpected {:?}",
                d.served
            );
            assert!(d.choice.is_some(), "seed {seed} key {i}: no choice");
        }

        // Invariant: a quarantined key re-answers from the ledger, not
        // the tuner. (A background repair whose script has drained may
        // race us and discharge the key first -- then the resubmit is a
        // plain cache hit; either way no flight is spawned. The strict
        // instant-answer property is pinned in
        // `quarantined_keys_answer_instantly_without_queueing`.)
        for (i, q) in queries.iter().enumerate() {
            if !service.is_quarantined(&q.key()) {
                continue;
            }
            let d = service.submit(q).wait();
            assert!(
                matches!(d.served, Served::Degraded | Served::Cache),
                "seed {seed} key {i}: quarantined resubmit got {:?}",
                d.served
            );
        }

        // Clear the storm; background repair must converge the fleet.
        fault.clear();
        wait_until("every key repaired into the cache", || {
            queries
                .iter()
                .all(|q| tuner.cache().peek(&q.key()).is_some())
        });
        wait_until("the quarantine to drain", || {
            service.quarantined_keys() == 0
        });
        wait_until("the breaker to re-close", || {
            service.breaker_state(0, OpKind::Gemm) == BreakerState::Closed
        });

        // Invariant: the repaired cache is byte-identical to the
        // never-faulted shadow -- degraded stand-ins never leaked in.
        assert_eq!(
            tuner.cache_text(),
            shadow_text,
            "seed {seed}: repaired cache diverged from the shadow"
        );

        // Invariant: no key ever burned more than its script plus one
        // clean landing attempt (quarantine really stopped the bleed).
        for (i, (q, script)) in queries.iter().zip(&scripts).enumerate() {
            assert!(
                fault.attempts(&q.key()) <= script.len() as u32 + 1,
                "seed {seed} key {i}: {} attempts for a {}-fault script",
                fault.attempts(&q.key()),
                script.len()
            );
        }
        let stats = service.stats();
        assert_eq!(stats.failed, 0, "seed {seed}: nothing may fail outright");
        assert!(
            stats.repair_upgrades >= 3,
            "seed {seed}: the three over-budget scripts repair via quarantine"
        );
    }
}

/// Scenario 2: a poisoned key is served straight from the ledger --
/// the ticket is ready before any worker could have run, and the
/// foreground miss queue is never touched.
#[test]
fn quarantined_keys_answer_instantly_without_queueing() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    impatient(&service);
    let fault = Arc::new(FaultTuner::new());
    service.set_tune_fault(Some(fault.clone()));

    let query = gemm_query(0, 96, 96, 48);
    fault.poison_key(query.key(), FaultKind::Error);
    let d = service.submit(&query).wait();
    assert_eq!(d.served, Served::Degraded);
    assert!(service.is_quarantined(&query.key()));

    // Freeze the workers: an instant answer cannot be queue-powered.
    service.pause();
    let attempts = fault.attempts(&query.key());
    let ticket = service.submit(&query);
    let parked = ticket.try_get().expect("quarantined submit must be ready");
    assert_eq!(parked.served, Served::Degraded);
    assert_eq!(parked.choice, d.choice, "memoized heuristic, stable");
    assert_eq!(
        service.service_stats().queue_depth,
        0,
        "no foreground job for a quarantined key"
    );
    assert_eq!(fault.attempts(&query.key()), attempts, "no attempt burned");
    service.resume();

    // Heal: the background repair upgrades the entry and subsequent
    // submits leave the degraded path entirely.
    fault.heal(&query.key());
    wait_until("the repair to land", || {
        service.stats().repair_upgrades == 1
    });
    assert!(!service.is_quarantined(&query.key()));
    assert_eq!(service.submit(&query).wait().served, Served::Cache);
}

/// Scenario 3: degraded answers are never durable state. A quarantined
/// key journals nothing and snapshots nothing; the repair publishes
/// the authoritative entry exactly once, and only that reaches disk.
#[test]
fn degraded_decisions_never_reach_wal_or_snapshots() {
    let dir = temp_dir("degraded_wal");
    let service = TuneService::with_workers(1);
    let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
    impatient(&service);
    service.enable_durability(&dir, NEVER);
    let fault = Arc::new(FaultTuner::new());
    service.set_tune_fault(Some(fault.clone()));

    let query = gemm_query(0, 128, 96, 64);
    fault.poison_key(query.key(), FaultKind::Panic);
    let d = service.submit(&query).wait();
    assert_eq!(d.served, Served::Degraded);
    assert!(d.choice.is_some());

    // Nothing durable: the WAL never saw the heuristic stand-in...
    let wal = dir.join(wal_file_name(0, OpKind::Gemm));
    let wal_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    assert_eq!(wal_len(&wal), 0, "degraded must not be journaled");
    // ...and neither does a compaction snapshot (the cache is empty, so
    // the shard is not even dirty).
    let report = service.compact_now().expect("compact");
    assert_eq!(report.entries, 0, "nothing authoritative to persist");
    let snap = dir.join(snapshot_file_name(0, OpKind::Gemm));
    assert!(
        !snap.exists() || !std::fs::read_to_string(&snap).unwrap().contains("gemm"),
        "degraded must not be snapshotted"
    );

    // Heal; the repair upgrades exactly once and only the real tune is
    // journaled.
    fault.heal(&query.key());
    wait_until("the repair to land", || {
        service.stats().repair_upgrades == 1
    });
    wait_until("the publish to be journaled", || wal_len(&wal) > 0);
    let published = tuner.cache().peek(&query.key()).expect("repaired entry");
    assert!(
        published.time_s > 0.0,
        "the published entry is a measured tune, not the heuristic"
    );
    assert_eq!(service.submit(&query).wait().served, Served::Cache);

    // Exactly once: no double upgrade from a straggling repair.
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(service.stats().repair_upgrades, 1);
    assert_eq!(service.service_stats().background_depth, 0);
    service.disable_snapshots();
}

/// Scenario 4: an open breaker degrades *new* keys on the shard with
/// exactly the model-free heuristic, and the repair path re-closes it.
#[test]
fn open_breaker_degrades_new_keys_with_the_heuristic() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.set_breaker_config(BreakerConfig {
        window: 4,
        failure_threshold: 2,
        // Long enough that the breaker is still open when we probe it
        // below, short enough that repair re-probes within the test.
        open_ttl: Duration::from_millis(300),
        max_open_ttl: Duration::from_secs(1),
        latency_slo: None,
    });
    service.set_quarantine_config(QuarantineConfig {
        ttl: Duration::from_millis(10),
        max_ttl: Duration::from_millis(100),
    });
    let fault = Arc::new(FaultTuner::new());
    service.set_tune_fault(Some(fault.clone()));

    // Trip the breaker: one flight's worth of errors crosses the
    // threshold (budget 3 >= threshold 2).
    let sick = gemm_query(0, 160, 96, 64);
    fault.poison_key(sick.key(), FaultKind::Error);
    let d = service.submit(&sick).wait();
    assert_eq!(d.served, Served::Degraded);
    assert_eq!(service.breaker_state(0, OpKind::Gemm), BreakerState::Open);
    assert!(service.stats().breaker_opens >= 1);

    // A brand-new key on the sick shard: degraded without tuning, and
    // the stand-in is *exactly* the deterministic heuristic.
    let fresh = gemm_query(0, 512, 256, 128);
    let d = service.submit(&fresh).wait();
    assert_eq!(d.served, Served::Degraded);
    let tuner = service.shard_tuner(0, OpKind::Gemm).expect("shard");
    let expected = tuner
        .heuristic_shape(&KeyShape::Gemm(GemmShape::new(
            512,
            256,
            128,
            "N",
            "T",
            DType::F32,
        )))
        .expect("heuristic exists");
    let got = d.choice.expect("degraded choice");
    assert_eq!(got.config, expected.config, "heuristic config, verbatim");
    assert_eq!(got.tflops, 0.0, "measurements zeroed: not authoritative");
    assert_eq!(
        fault.attempts(&fresh.key()),
        0,
        "an open breaker never reaches the tuner"
    );

    // Heal everything: repairs land both keys, a healthy outcome
    // re-closes the breaker, the ledger drains.
    fault.heal(&sick.key());
    wait_until("both repairs to land", || {
        tuner.cache().peek(&sick.key()).is_some() && tuner.cache().peek(&fresh.key()).is_some()
    });
    wait_until("the breaker to re-close", || {
        service.breaker_state(0, OpKind::Gemm) == BreakerState::Closed
    });
    assert!(service.stats().breaker_closes >= 1);
    assert_eq!(service.quarantined_keys(), 0);
    assert_eq!(service.submit(&fresh).wait().served, Served::Cache);
}
