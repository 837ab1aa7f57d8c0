//! Integration tests for the write-ahead durability layer:
//!
//! 1. **journal on publish** -- durability mode appends one CRC-framed
//!    WAL record per cache mutation at the moment it happens, and the
//!    on-disk log decodes back to exactly those records;
//! 2. **compaction** -- `compact_now` folds the log into the base cache
//!    file (byte-identical to the shard's `cache_text`) and truncates
//!    the WAL; an idle shard is skipped;
//! 3. **recovery** -- base + log replay restores every published
//!    decision: re-submitting the pre-crash working set is all cache
//!    hits, zero cold tunes;
//! 4. **torn writes** -- a corrupt or half-written WAL tail is truncated
//!    on disk, counted in `RouterStats` and `last_snapshot`, and the
//!    intact prefix still replays -- under both eviction policies;
//! 5. **GC** -- removing or replacing a shard deletes its persistence
//!    files, and compaction sweeps orphans and `.tmp` leftovers;
//! 6. **retry policy** -- a configurable attempt budget: exhausting it
//!    quarantines the key and serves `Served::Degraded` (counted
//!    distinctly from the per-attempt panic count), and a flaky WAL
//!    append never fails the publish itself;
//! 7. **the interval** -- compaction fires on its own in the queue's
//!    idle gaps (also when enabled after the workers parked), idle
//!    intervals write nothing, and dropping the service compacts one
//!    last time;
//! 8. **exports** -- `snapshot_all` to another directory leaves the
//!    shards' dirty bits alone, so a decision whose append failed still
//!    reaches the WAL directory at the next compaction.

use isaac_core::durability::{decode_wal, FaultIo, FaultPlan, WalRecord};
use isaac_core::{EvictionPolicy, IsaacTuner, OpKind, TrainOptions, TuneKey, TunedChoice};
use isaac_core::{ShapeKey, StdIo};
use isaac_device::specs::tesla_p100;
use isaac_device::{DType, DeviceSpec};
use isaac_gen::shapes::GemmShape;
use isaac_serve::{
    snapshot_file_name, wal_file_name, FaultKind, FaultTuner, Query, RetryPolicy, Served,
    TuneService,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
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
        let path = std::env::temp_dir().join("isaac_durability_shared_model.txt");
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

/// A unique empty directory per test invocation.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "isaac_durability_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A synthetic cache key: publishing via `TuneCache::insert` exercises
/// the journal without paying for a real cold tune.
fn synth_key(device: u16, m: u32) -> TuneKey {
    TuneKey {
        device,
        op: OpKind::Gemm,
        dtype: DType::F32,
        shape: ShapeKey::Gemm {
            m,
            n: 32,
            k: 64,
            trans_a: false,
            trans_b: true,
        },
    }
}

fn synth_choice(tag: f64) -> TunedChoice {
    TunedChoice {
        config: isaac_gen::GemmConfig::default(),
        predicted_gflops: tag,
        tflops: tag * 2.0,
        time_s: tag * 3.0,
    }
}

/// A long-enough interval that the background worker never compacts on
/// its own mid-test: every sweep in these tests is an explicit
/// `compact_now` (the drop-time flush still runs, which individual
/// tests account for).
const NEVER: Duration = Duration::from_secs(3_600);

#[test]
fn publishes_append_decoded_wal_records() {
    let dir = temp_dir("append");
    let service = TuneService::with_workers(1);
    let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
    service.enable_durability(&dir, NEVER);

    for m in 1..=4u32 {
        tuner
            .cache()
            .insert(synth_key(0, m), synth_choice(f64::from(m)));
    }

    let stats = service.stats();
    assert_eq!(stats.wal_appends, 4, "one record per publish");
    assert_eq!(stats.wal_append_errors, 0);
    assert!(stats.wal_bytes > 0);

    let bytes = std::fs::read(dir.join(wal_file_name(0, OpKind::Gemm))).expect("read wal");
    assert_eq!(stats.wal_bytes, bytes.len() as u64, "counter matches disk");
    let decode = decode_wal(&bytes, 0);
    assert_eq!(decode.torn_records, 0);
    assert_eq!(decode.valid_len, bytes.len());
    let keys: Vec<TuneKey> = decode.records.iter().map(|r| *r.key()).collect();
    assert_eq!(keys, (1..=4).map(|m| synth_key(0, m)).collect::<Vec<_>>());
    for record in &decode.records {
        assert!(matches!(record, WalRecord::Insert { .. }));
    }
    // (Eviction records are exercised by the bounded-cache torn-tail
    // test below, which journals through both eviction policies.)
    service.disable_snapshots();
}

#[test]
fn compaction_folds_wal_into_base_and_truncates() {
    let dir = temp_dir("compact");
    let service = TuneService::with_workers(1);
    let tuner = service.add_shard(3, fresh_tuner(tesla_p100()));
    service.enable_durability(&dir, NEVER);

    for m in 1..=5u32 {
        tuner
            .cache()
            .insert(synth_key(3, m), synth_choice(f64::from(m)));
    }
    let wal = dir.join(wal_file_name(3, OpKind::Gemm));
    let base = dir.join(snapshot_file_name(3, OpKind::Gemm));
    assert!(std::fs::metadata(&wal).expect("wal exists").len() > 0);

    let report = service.compact_now().expect("compact");
    assert_eq!(report.files, 1);
    assert_eq!(report.entries, 5);
    assert_eq!(std::fs::metadata(&wal).expect("wal").len(), 0, "truncated");
    assert_eq!(
        std::fs::read_to_string(&base).expect("base"),
        tuner.cache_text(),
        "base is byte-identical to the shard's serialized cache"
    );
    assert_eq!(service.stats().compactions, 1);
    assert_eq!(service.last_snapshot().expect("report stored").entries, 5);

    // Idle shard (clean cache, empty WAL): the next sweep skips it.
    let report = service.compact_now().expect("compact idle");
    assert_eq!(report.files, 0, "nothing dirty, nothing written");

    // New publishes land in the (now empty) WAL, not the base.
    tuner.cache().insert(synth_key(3, 6), synth_choice(6.0));
    assert!(std::fs::metadata(&wal).expect("wal").len() > 0);
    let report = service.compact_now().expect("compact again");
    assert_eq!(report.entries, 6);
    assert_eq!(std::fs::metadata(&wal).expect("wal").len(), 0);
    service.disable_snapshots();
}

#[test]
fn recovery_replays_base_then_log_with_zero_cold_tunes() {
    let dir = temp_dir("recover");
    let shapes: Vec<(u32, u32, u32)> = (0..6).map(|i| (64 + 16 * i, 64, 32)).collect();
    {
        let service = TuneService::with_workers(2);
        service.add_shard(0, fresh_tuner(tesla_p100()));
        service.enable_durability(&dir, NEVER);
        // Four decisions into the base...
        for &(m, n, k) in &shapes[..4] {
            let d = service.submit(&gemm_query(0, m, n, k)).wait();
            assert!(d.choice.is_some());
        }
        service.compact_now().expect("compact");
        // ...two more only in the WAL, then crash (no shutdown flush).
        for &(m, n, k) in &shapes[4..] {
            let d = service.submit(&gemm_query(0, m, n, k)).wait();
            assert!(d.choice.is_some());
        }
        service.disable_snapshots();
    }

    let service = TuneService::with_workers(2);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let report = service.recover_all(&dir).expect("recover");
    assert_eq!(report.files, 1);
    assert_eq!(report.entries, 4, "base entries");
    assert_eq!(report.replayed, 2, "WAL tail replayed on top");
    assert_eq!(report.torn_records, 0);
    assert_eq!(report.unmatched, 0);

    let stats = service.stats();
    assert_eq!(stats.recovery_replayed, 2);
    assert_eq!(stats.recovery_torn_records, 0);
    assert_eq!(
        service.last_snapshot().expect("recovery report").replayed,
        2,
        "recovery report inspectable via last_snapshot before any sweep"
    );

    // The entire pre-crash working set is served from cache.
    for &(m, n, k) in &shapes {
        let d = service.submit(&gemm_query(0, m, n, k)).wait();
        assert_eq!(d.served, Served::Cache, "recovered key must be a hit");
    }
    assert_eq!(service.stats().cold_tunes, 0, "restored_cold_tunes == 0");
}

#[test]
fn torn_tail_is_truncated_counted_and_surfaced_under_both_policies() {
    for (tag, policy) in [
        ("lru", EvictionPolicy::Lru),
        ("cost", EvictionPolicy::CostAware),
    ] {
        let dir = temp_dir(&format!("torn_{tag}"));
        let published: Vec<TuneKey>;
        {
            let service = TuneService::with_workers(1);
            let mut shard = fresh_tuner(tesla_p100());
            shard.set_cache_capacity(4);
            shard.set_eviction_policy(policy);
            let tuner = service.add_shard(0, shard);
            service.enable_durability(&dir, NEVER);
            // 6 inserts through a capacity-4 cache: the log carries
            // eviction records interleaved with the inserts.
            for m in 1..=6u32 {
                tuner
                    .cache()
                    .insert(synth_key(0, m), synth_choice(f64::from(m)));
            }
            published = tuner
                .cache()
                .entries()
                .into_iter()
                .map(|(k, _, _)| k)
                .collect();
            assert_eq!(published.len(), 4);
            assert!(service.stats().wal_appends >= 8, "6 inserts + >=2 evicts");
            service.disable_snapshots();
        }

        // Tear the log: a half-written record plus trailing garbage.
        let wal = dir.join(wal_file_name(0, OpKind::Gemm));
        let mut bytes = std::fs::read(&wal).expect("read wal");
        let valid_len = decode_wal(&bytes, 0).valid_len;
        bytes.truncate(bytes.len() - 3);
        bytes.extend_from_slice(b"deadbeef not a record");
        std::fs::write(&wal, &bytes).expect("corrupt wal");

        let service = TuneService::with_workers(1);
        let mut shard = fresh_tuner(tesla_p100());
        shard.set_cache_capacity(4);
        shard.set_eviction_policy(policy);
        let tuner = service.add_shard(0, shard);
        let report = service.recover_all(&dir).expect("recover");
        assert!(
            report.torn_records >= 1,
            "{tag}: torn tail counted, got {report:?}"
        );
        assert_eq!(
            service.stats().recovery_torn_records,
            report.torn_records as u64,
            "{tag}: corruption surfaces in RouterStats"
        );
        assert_eq!(
            service.last_snapshot().expect("report").torn_records,
            report.torn_records,
            "{tag}: and via last_snapshot"
        );
        // Torn-write contract: the untrusted tail is dropped on disk
        // too, so resumed appends extend a clean log.
        let on_disk = std::fs::metadata(&wal).expect("wal").len();
        assert!(
            on_disk < valid_len as u64,
            "{tag}: disk log truncated past the torn record"
        );
        // The intact prefix replayed: every surviving record's key is
        // in its pre-crash state (the cut record's key may be absent).
        let recovered: Vec<TuneKey> = tuner
            .cache()
            .entries()
            .into_iter()
            .map(|(k, _, _)| k)
            .collect();
        for key in &recovered {
            assert!(
                published.contains(key),
                "{tag}: {key:?} recovered but never survived pre-crash"
            );
        }
        assert!(
            recovered.len() >= published.len() - 1,
            "{tag}: at most the torn record's key is lost"
        );
    }
}

#[test]
fn recovery_skips_malformed_base_lines_and_counts_them() {
    let dir = temp_dir("skipped");
    {
        let service = TuneService::with_workers(1);
        let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
        service.enable_durability(&dir, NEVER);
        for m in 1..=3u32 {
            tuner
                .cache()
                .insert(synth_key(0, m), synth_choice(f64::from(m)));
        }
        service.compact_now().expect("compact");
        service.disable_snapshots();
    }
    // A flaky disk scribbles over one base line.
    let base = dir.join(snapshot_file_name(0, OpKind::Gemm));
    let mut text = std::fs::read_to_string(&base).expect("base");
    let victim = text.lines().nth(1).expect("entry line").to_string();
    text = text.replace(&victim, "garbage line that parses as nothing");
    std::fs::write(&base, text).expect("rewrite base");

    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let report = service.recover_all(&dir).expect("recover");
    assert_eq!(report.entries, 2, "surviving lines merged");
    assert_eq!(report.skipped, 1, "scribbled line counted, not silent");
    assert_eq!(service.stats().recovery_skipped_records, 1);
}

#[test]
fn removing_and_replacing_shards_gcs_their_files() {
    let dir = temp_dir("gc");
    let service = TuneService::with_workers(1);
    let t0 = service.add_shard(0, fresh_tuner(tesla_p100()));
    let t1 = service.add_shard(1, fresh_tuner(tesla_p100()));
    service.enable_durability(&dir, NEVER);
    t0.cache().insert(synth_key(0, 1), synth_choice(1.0));
    t1.cache().insert(synth_key(1, 1), synth_choice(1.0));
    service.compact_now().expect("compact");
    for device in [0u16, 1] {
        assert!(dir.join(snapshot_file_name(device, OpKind::Gemm)).exists());
        assert!(dir.join(wal_file_name(device, OpKind::Gemm)).exists());
    }

    // Decommissioned shard: both its files go.
    service.remove_shard(1, OpKind::Gemm).expect("remove");
    assert!(!dir.join(snapshot_file_name(1, OpKind::Gemm)).exists());
    assert!(!dir.join(wal_file_name(1, OpKind::Gemm)).exists());
    assert_eq!(service.stats().gc_removed, 2);

    // Replaced shard: stale files go, the successor journals fresh.
    let t0b = service
        .replace_shard(0, fresh_tuner(tesla_p100()))
        .map(|_| service.shard_tuner(0, OpKind::Gemm).expect("successor"))
        .expect("replace");
    assert!(!dir.join(snapshot_file_name(0, OpKind::Gemm)).exists());
    t0b.cache().insert(synth_key(0, 9), synth_choice(9.0));
    assert!(dir.join(wal_file_name(0, OpKind::Gemm)).exists());
    assert_eq!(service.stats().gc_removed, 4);

    // Orphans and crashed-compaction leftovers: swept by compaction.
    std::fs::write(dir.join(snapshot_file_name(7, OpKind::Gemm)), "stale").expect("orphan");
    // A crashed compaction's temp file -- for a long-gone shard, so the
    // live shard-0 compaction (whose own temp file is consumed by its
    // rename) does not race it.
    std::fs::write(
        dir.join(format!("{}.tmp", snapshot_file_name(9, OpKind::Gemm))),
        "leftover",
    )
    .expect("tmp leftover");
    std::fs::write(dir.join("unrelated.txt"), "keep me").expect("foreign file");
    let report = service.compact_now().expect("compact");
    assert_eq!(report.gc_removed, 2, "orphan + .tmp, not the foreign file");
    assert!(!dir.join(snapshot_file_name(7, OpKind::Gemm)).exists());
    assert!(dir.join("unrelated.txt").exists());
    service.disable_snapshots();
}

#[test]
fn retry_policy_bounds_attempts_and_counts_exhaustion() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let fault = Arc::new(FaultTuner::new());
    service.set_tune_fault(Some(fault.clone()));

    // Budget of one: the first panic is terminal -- no retries. The
    // exhausted key is quarantined and served by the heuristic.
    service.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        backoff: Duration::ZERO,
    });
    assert_eq!(service.retry_policy().max_attempts, 1);
    let doomed = gemm_query(0, 96, 64, 32);
    fault.fault_key(doomed.key(), &[FaultKind::Panic]);
    let d = service.submit(&doomed).wait();
    assert_eq!(d.served, Served::Degraded);
    assert!(
        d.choice.is_some(),
        "heuristic stand-in, not a dropped query"
    );
    assert!(service.is_quarantined(&doomed.key()));
    let stats = service.service_stats();
    assert_eq!(stats.tune_retries, 0, "budget of 1 never re-queues");
    assert_eq!(stats.retry_exhausted, 1, "terminal exhaustion counted");
    assert_eq!(service.flight_stats().leader_panics, 1);

    // Default budget: two panics are absorbed, the third attempt lands.
    service.set_retry_policy(RetryPolicy::default());
    let bumpy = gemm_query(0, 128, 64, 32);
    fault.fault_key(bumpy.key(), &[FaultKind::Panic, FaultKind::Panic]);
    let d = service.submit(&bumpy).wait();
    assert_eq!(d.served, Served::Tuned, "retries rode out the panics");
    let stats = service.service_stats();
    assert_eq!(stats.tune_retries, 2);
    assert_eq!(stats.retry_exhausted, 1, "unchanged: no new exhaustion");
    assert_eq!(service.flight_stats().leader_panics, 3);

    // A configured backoff delays the retry without losing it.
    service.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        backoff: Duration::from_millis(5),
    });
    let slow = gemm_query(0, 160, 64, 32);
    fault.fault_key(slow.key(), &[FaultKind::Panic]);
    let d = service.submit(&slow).wait();
    assert_eq!(d.served, Served::Tuned);
    assert_eq!(service.service_stats().tune_retries, 3);
}

#[test]
fn flaky_append_never_fails_the_publish() {
    let dir = temp_dir("flaky");
    let service = TuneService::with_workers(1);
    let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
    // Second append fails once; the disk then heals.
    let io = Arc::new(FaultIo::new(FaultPlan {
        fail_append: Some(2),
        ..Default::default()
    }));
    service.enable_durability_with(&dir, NEVER, io.clone());

    for m in 1..=3u32 {
        tuner
            .cache()
            .insert(synth_key(0, m), synth_choice(f64::from(m)));
    }
    assert_eq!(tuner.cache().len(), 3, "every publish served from memory");
    assert!(!io.is_dead(), "a flaky append is not a crash");
    let stats = service.stats();
    assert_eq!(stats.wal_append_errors, 1);
    assert_eq!(stats.wal_appends, 2, "the dropped record is not counted");

    // The lost record is only in memory -- until compaction persists it.
    let on_disk = decode_wal(
        &std::fs::read(dir.join(wal_file_name(0, OpKind::Gemm))).expect("wal"),
        0,
    );
    assert_eq!(on_disk.records.len(), 2);
    service.compact_now().expect("compact");
    let service2 = TuneService::with_workers(1);
    service2.add_shard(0, fresh_tuner(tesla_p100()));
    let report = service2.recover_all_with(&dir, &StdIo).expect("recover");
    assert_eq!(report.entries, 3, "compaction healed the dropped record");
    service.disable_snapshots();
}

#[test]
fn interval_compaction_persists_moved_shards_and_recovers_after_a_crash() {
    let dir = temp_dir("interval");
    let service = TuneService::new();
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.enable_durability(&dir, Duration::from_millis(20));

    // Two decisions land; the next idle interval compacts them.
    let persisted = [gemm_query(0, 96, 64, 48), gemm_query(0, 256, 64, 512)];
    for q in &persisted {
        assert!(service.submit(q).wait().choice.is_some());
    }
    // An early interval may catch the cache between the two tunes (and
    // report one entry); the second publish moves the shard again, so
    // a later interval is guaranteed to persist both.
    wait_until("the interval compaction to cover both decisions", || {
        service.last_snapshot().is_some_and(|r| r.entries == 2)
    });
    let last = service.last_snapshot().expect("a background report");
    assert_eq!(last.files, 1, "one moved shard was compacted");
    assert!(service.stats().snapshots >= 1);
    assert_eq!(service.stats().snapshot_errors, 0);

    // Quiescence: with nothing moved, further intervals write nothing.
    let settled = service.stats().snapshots;
    let compactions = service.stats().compactions;
    std::thread::sleep(Duration::from_millis(80));
    assert_eq!(
        service.stats().snapshots,
        settled,
        "idle shards are skipped, not rewritten every interval"
    );
    assert_eq!(service.stats().compactions, compactions);

    // Simulate a crash: stop the interval (no compaction on drop), then
    // tune one more shape -- the tail of work since the last interval,
    // which only the log holds.
    service.disable_snapshots();
    let tail = gemm_query(0, 128, 128, 128);
    assert!(service.submit(&tail).wait().choice.is_some());
    drop(service);

    // The restarted fleet serves the base and the log tail with zero
    // cold tunes.
    let restored = TuneService::new();
    restored.add_shard(0, fresh_tuner(tesla_p100()));
    let report = restored.recover_all(&dir).expect("recover");
    assert_eq!(report.entries, 2, "the interval compacted two decisions");
    assert_eq!(report.replayed, 1, "the drop did not compact the tail");
    for q in persisted.iter().chain([&tail]) {
        assert_eq!(restored.submit(q).wait().served, Served::Cache);
    }
    assert_eq!(restored.stats().cold_tunes, 0);
}

#[test]
fn compaction_enabled_after_workers_parked_still_fires() {
    // Regression: `pop_until` must re-read the compaction deadline on
    // every wakeup. Workers park with no schedule (deadline = None)
    // while the shard is made dirty; enabling durability afterwards --
    // with NO further traffic to cycle the worker loop -- must still
    // produce a compaction via the kick.
    let dir = temp_dir("late_enable");
    let service = TuneService::new();
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let query = gemm_query(0, 96, 64, 48);
    assert!(service.submit(&query).wait().choice.is_some());
    // Workers are now idle, parked on the condvar with no deadline.
    std::thread::sleep(Duration::from_millis(10));

    service.enable_durability(&dir, Duration::from_millis(15));
    wait_until("the late-enabled compaction to fire", || {
        service.stats().snapshots >= 1
    });
    assert_eq!(service.last_snapshot().map(|r| r.entries), Some(1));
    service.disable_snapshots();
}

#[test]
fn dropping_the_service_compacts_one_last_time() {
    let dir = temp_dir("drop_compacts");
    let service = TuneService::new();
    service.add_shard(0, fresh_tuner(tesla_p100()));
    // An interval so long it never fires: only the compaction on drop
    // can fold the log into a base file.
    service.enable_durability(&dir, NEVER);
    let query = gemm_query(0, 96, 64, 48);
    assert!(service.submit(&query).wait().choice.is_some());
    assert_eq!(service.stats().snapshots, 0, "interval never fired");
    drop(service);
    let wal = dir.join(wal_file_name(0, OpKind::Gemm));
    assert_eq!(std::fs::metadata(&wal).expect("wal").len(), 0, "log folded");

    let restored = TuneService::new();
    restored.add_shard(0, fresh_tuner(tesla_p100()));
    let report = restored.recover_all(&dir).expect("recover");
    assert_eq!(report.entries, 1, "the drop compacted the work");
    assert_eq!(report.replayed, 0);
    assert_eq!(restored.submit(&query).wait().served, Served::Cache);
    assert_eq!(restored.stats().cold_tunes, 0);
}

#[test]
fn an_export_does_not_hide_a_shard_from_compaction() {
    let dir = temp_dir("export_wal");
    let export = temp_dir("export_snapshot");
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    // The first append fails: the tune's decision is only in memory.
    let io = Arc::new(FaultIo::new(FaultPlan {
        fail_append: Some(1),
        ..Default::default()
    }));
    service.enable_durability_with(&dir, NEVER, io.clone());
    let query = gemm_query(0, 96, 64, 48);
    assert!(service.submit(&query).wait().choice.is_some());
    assert_eq!(service.stats().wal_append_errors, 1);

    // Exporting to another directory must not mark the shard persisted.
    let snap = service.snapshot_all(&export).expect("export");
    assert_eq!((snap.files, snap.entries), (1, 1));
    let report = service.compact_now().expect("compact");
    assert_eq!(report.entries, 1, "the export left the shard dirty");
    service.disable_snapshots();

    let fresh = TuneService::with_workers(1);
    fresh.add_shard(0, fresh_tuner(tesla_p100()));
    let recovered = fresh.recover_all(&dir).expect("recover");
    assert_eq!(recovered.entries, 1);
    assert_eq!(fresh.submit(&query).wait().served, Served::Cache);
    assert_eq!(fresh.stats().cold_tunes, 0);
}
