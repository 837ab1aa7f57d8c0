//! Serving-layer benchmark: the sharded front door under repeat and
//! concurrent traffic.
//!
//! Measures the serving mechanisms of `isaac-serve` and writes
//! `BENCH_serving.json` at the workspace root (schema in
//! `crates/serve/README.md`):
//!
//! * **batched vs one-at-a-time throughput** -- the same cached query
//!   mix pushed through `submit(q).wait()` one query at a time vs.
//!   through `submit_batch` with in-batch dedup;
//! * **dedup ratio** -- the fraction of queries absorbed by in-batch
//!   dedup plus single-flight joins (a contended cold key is raced by
//!   several threads to exercise the flight table);
//! * **warm-start speedup** -- seeding a fresh shard from a neighbour's
//!   decisions (one re-benchmark per entry) vs. cold-tuning the same
//!   shapes from scratch;
//! * **async front door** -- one OS thread submits a burst of cold
//!   misses through `TuneService::submit` and multiplexes the pending
//!   `TuneTicket`s while the worker pool drains the miss queue:
//!   in-flight high-water mark, mean queue latency, wall time to drain,
//!   and the ticket overhead on the cached path.
//!
//! Honours `ISAAC_SAMPLES`/`ISAAC_EPOCHS` for tuner training size and
//! `RAYON_NUM_THREADS` for fan-out/worker-pool width.

use criterion::{criterion_group, criterion_main, Criterion};
use isaac_bench::harness::env_usize;
use isaac_bench::report::{bench_json_path, write_json, Table};
use isaac_core::{
    EvictionPolicy, IsaacTuner, OpKind, TrainOptions, TuneCache, TuneKey, TunedChoice,
};
use isaac_device::specs::tesla_p100;
use isaac_device::DType;
use isaac_gen::shapes::GemmShape;
use isaac_serve::{Decision, Query, Served, SubmitOptions, TuneService};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Query mix: square (LINPACK), skinny (DeepBench RNN), deep-reduction
/// (ICA covariance) -- the paper's three GEMM regimes.
fn query_shapes() -> Vec<GemmShape> {
    vec![
        GemmShape::new(1024, 1024, 1024, "N", "T", DType::F32),
        GemmShape::new(2560, 16, 2560, "N", "N", DType::F32),
        GemmShape::new(32, 32, 60000, "T", "N", DType::F32),
    ]
}

/// Replay a skewed workload against a capacity-bounded decision cache
/// under one eviction policy and report `(evictions,
/// post-eviction hit rate)`.
///
/// The trace models the paper's serving economics under pressure: a
/// small set of **hot, expensive** keys (deep-reduction GEMMs, hit on
/// every cycle) interleaved with a rotating **scan** of cheap one-off
/// shapes that overflows the capacity each cycle. The trace is
/// identical for both policies, and the hit rate is measured after a
/// warmup (once evictions have begun), so the difference is purely the
/// victim choice: LRU lets every scan flush the hot set; cost-aware
/// eviction sheds the scan instead.
fn eviction_pressure(policy: EvictionPolicy) -> (u64, f64) {
    const CAPACITY: usize = 8;
    const HOT: u32 = 4;
    const SCAN_LEN: usize = 12;
    const COLD_POOL: usize = 64;
    const CYCLES: usize = 50;
    const WARMUP_CYCLES: usize = 2;

    let cache = TuneCache::with_policy(CAPACITY, policy);
    let hot: Vec<TuneKey> = (0..HOT)
        .map(|i| TuneKey::gemm(&GemmShape::new(32 + i, 32, 60_000, "T", "N", DType::F32)))
        .collect();
    let cold: Vec<TuneKey> = (0..COLD_POOL as u32)
        .map(|i| TuneKey::gemm(&GemmShape::new(16 + i, 8, 8, "N", "N", DType::F32)))
        .collect();
    let choice = TunedChoice {
        config: isaac_gen::GemmConfig::default(),
        predicted_gflops: 1.0,
        tflops: 1.0,
        time_s: 1.0,
    };

    let (mut accesses, mut hits) = (0u64, 0u64);
    let mut scan_at = 0usize;
    for cycle in 0..CYCLES {
        if cycle == WARMUP_CYCLES {
            (accesses, hits) = (0, 0);
        }
        let mut access = |key: &TuneKey| {
            accesses += 1;
            if cache.get(key).is_some() {
                hits += 1;
            } else {
                cache.insert(*key, choice.clone());
            }
        };
        // Two rounds over the hot set, then a scan burst longer than
        // the capacity.
        for _ in 0..2 {
            for key in &hot {
                access(key);
            }
        }
        for _ in 0..SCAN_LEN {
            access(&cold[scan_at % COLD_POOL]);
            scan_at += 1;
        }
    }
    (cache.stats().evictions, hits as f64 / accesses as f64)
}

/// Submit a batch and wait for every ticket, in query order.
fn wait_batch(service: &TuneService, queries: &[Query]) -> Vec<Decision> {
    service
        .submit_batch(queries)
        .iter()
        .map(|ticket| ticket.wait())
        .collect()
}

fn small_tuner() -> IsaacTuner {
    IsaacTuner::train(
        tesla_p100(),
        OpKind::Gemm,
        TrainOptions {
            samples: env_usize("ISAAC_SAMPLES", 2_000),
            epochs: env_usize("ISAAC_EPOCHS", 2),
            hidden: vec![32, 32],
            ..Default::default()
        },
    )
}

fn serving_throughput(c: &mut Criterion) {
    let shapes = query_shapes();

    // Several shards off one trained model: training cost is irrelevant
    // to the serving path, so clone via the text serialization.
    let model_path = std::env::temp_dir().join("isaac_bench_serving_model.txt");
    let source = small_tuner();
    source.save(&model_path).expect("save model");
    let clone = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");

    let fleet = TuneService::new();
    fleet.add_shard(0, source);
    fleet.add_shard(1, clone);

    // --- Cold tunes seed shard 0 (the warm-start baseline). ----------
    let t0 = Instant::now();
    for s in &shapes {
        fleet.submit(&Query::gemm(0, *s)).wait();
    }
    let cold_tune_s = t0.elapsed().as_secs_f64();

    // --- Warm-start shard 1 from shard 0, then serve the same mix. ---
    let t0 = Instant::now();
    let warm = fleet
        .warm_start(1, 0, OpKind::Gemm, shapes.len())
        .expect("both shards exist");
    for s in &shapes {
        fleet.submit(&Query::gemm(1, *s)).wait();
    }
    let warm_start_s = t0.elapsed().as_secs_f64();

    // --- Single-flight: race one fresh cold key from several threads. -
    let contended = Query::gemm(1, GemmShape::new(384, 384, 384, "N", "N", DType::F32));
    let racers = 4;
    let barrier = Barrier::new(racers);
    std::thread::scope(|s| {
        for _ in 0..racers {
            s.spawn(|| {
                barrier.wait();
                black_box(fleet.submit(&contended).wait());
            });
        }
    });

    // --- Cached throughput: one-at-a-time vs batched. ----------------
    let mix: Vec<Query> = (0..64)
        .map(|i| Query::gemm(0, shapes[i % shapes.len()]))
        .collect();
    let batch_size = mix.len();

    let one_at_a_time_qps = {
        let reps = 2_000u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            for q in &mix {
                black_box(fleet.submit(black_box(q)).wait());
            }
        }
        f64::from(reps) * batch_size as f64 / t0.elapsed().as_secs_f64()
    };
    let batched_qps = {
        let reps = 2_000u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            black_box(wait_batch(&fleet, black_box(&mix)));
        }
        f64::from(reps) * batch_size as f64 / t0.elapsed().as_secs_f64()
    };

    // --- Async front door: one thread multiplexes a cold burst. ------
    // A fresh service + shard so every key in the burst is a genuine
    // miss; 16 unique shapes x 4 duplicates = 64 tickets in flight off
    // 16 cold tunes (the single-flight invariant, now waker-driven).
    let (async_in_flight, async_unique_cold, async_cold_wall_s, async_queue_latency_s) = {
        let service = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        service.add_shard(0, tuner);
        let unique = 16u32;
        let burst: Vec<Query> = (0..unique * 4)
            .map(|i| {
                Query::gemm(
                    0,
                    GemmShape::new(96 + 16 * (i % unique), 48, 64, "N", "T", DType::F32),
                )
            })
            .collect();
        let t0 = Instant::now();
        let tickets: Vec<_> = burst.iter().map(|q| service.submit(q)).collect();
        let in_flight = service.service_stats().peak_open_tickets;
        let decisions: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(
            decisions.iter().all(|d| d.choice.is_some()),
            "every ticket resolves"
        );
        let stats = service.stats();
        assert_eq!(
            stats.cold_tunes,
            stats.queries - stats.coalesced - stats.cache_hits,
            "one cold tune per unique key"
        );
        (
            in_flight,
            stats.cold_tunes,
            wall_s,
            service.service_stats().avg_queue_wait_s(),
        )
    };

    // --- Ticket overhead on the cached path: submit(q).wait() again,
    //     a second sample of the one-at-a-time loop above.
    let async_cached_qps = {
        let reps = 2_000u32;
        let t0 = Instant::now();
        for _ in 0..reps {
            for q in &mix {
                black_box(fleet.submit(black_box(q)).wait());
            }
        }
        f64::from(reps) * batch_size as f64 / t0.elapsed().as_secs_f64()
    };
    // --- Eviction under pressure: CostAware vs the LRU reference. ----
    let (evictions, post_evict_hit_rate) = eviction_pressure(EvictionPolicy::CostAware);
    let (_, post_evict_hit_rate_lru) = eviction_pressure(EvictionPolicy::Lru);

    // --- Snapshot export: write every shard's base file, restart, ----
    //     restore, and serve the snapshotted working set cold-free.
    let (snapshot_files, snapshot_entries, restored_cold_tunes) = {
        let dir = std::env::temp_dir().join("isaac_bench_snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        let service = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        service.add_shard(0, tuner);
        for s in &shapes {
            assert!(service.submit(&Query::gemm(0, *s)).wait().choice.is_some());
        }
        let report = service.snapshot_all(&dir).expect("snapshot");
        assert_eq!(report.entries, shapes.len(), "every decision exported");
        drop(service);

        let restored = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        restored.add_shard(0, tuner);
        restored.restore_all(&dir).expect("restore snapshots");
        for s in &shapes {
            assert_eq!(
                restored.submit(&Query::gemm(0, *s)).wait().served,
                Served::Cache,
                "a restored key must be served from cache"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        (report.files, report.entries, restored.stats().cold_tunes)
    };

    // --- Write-ahead durability: the per-interval journal cost vs ----
    //     rewriting the whole cache file, then crash-without-flush and
    //     WAL replay on a fresh fleet.
    let (
        wal_full_rewrite_bytes,
        wal_bytes_per_interval,
        wal_compactions,
        wal_records_replayed,
        wal_recovery_s,
        wal_restored_cold_tunes,
    ) = {
        let dir = std::env::temp_dir().join("isaac_bench_wal");
        let _ = std::fs::remove_dir_all(&dir);
        let service = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        let tuner = service.add_shard(0, tuner);
        // Interval far beyond the bench: every compaction is explicit.
        service.enable_durability(&dir, Duration::from_secs(3_600));

        // A mature working set (64 decisions, published synthetically --
        // the journal cost is per record, not per tune) compacted into
        // the base file: this is what interval persistence would
        // rewrite wholesale.
        let publish = |m: u32| {
            let shape = GemmShape::new(m, 32, 64, "N", "T", DType::F32);
            tuner.cache().insert(
                TuneKey::gemm(&shape),
                TunedChoice {
                    config: isaac_gen::GemmConfig::default(),
                    predicted_gflops: f64::from(m),
                    tflops: f64::from(m) * 2.0,
                    time_s: 1.0 / f64::from(m),
                },
            );
        };
        for m in 1..=64 {
            publish(m);
        }
        service.compact_now().expect("compact the working set");
        let base = dir.join(isaac_serve::snapshot_file_name(0, OpKind::Gemm));
        let full_rewrite_bytes = std::fs::metadata(&base).expect("base file").len();

        // One interval's worth of fresh decisions: the WAL carries only
        // these records -- the durability cost per interval.
        for m in 65..=68 {
            publish(m);
        }
        let wal = dir.join(isaac_serve::wal_file_name(0, OpKind::Gemm));
        let bytes_per_interval = std::fs::metadata(&wal).expect("wal file").len();
        let compactions = service.stats().compactions;
        // Crash: no shutdown flush -- the tail interval lives only in
        // the base + WAL.
        service.disable_snapshots();
        drop(service);

        let restored = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        restored.add_shard(0, tuner);
        let t0 = Instant::now();
        let report = restored.recover_all(&dir).expect("recover from WAL");
        let recovery_s = t0.elapsed().as_secs_f64();
        assert_eq!(report.entries + report.replayed, 68, "nothing lost");
        for m in 1..=68 {
            let q = Query::gemm(0, GemmShape::new(m, 32, 64, "N", "T", DType::F32));
            assert_eq!(
                restored.submit(&q).wait().served,
                Served::Cache,
                "a WAL-recovered key must be served from cache"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        (
            full_rewrite_bytes,
            bytes_per_interval,
            compactions,
            report.replayed,
            recovery_s,
            restored.stats().cold_tunes,
        )
    };

    // --- Ticket deadline: a bounded waiter on a stalled tune times ----
    //     out without poisoning the flight.
    let deadline_timed_out = {
        let service = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        service.add_shard(0, tuner);
        service.pause();
        let cold = Query::gemm(0, GemmShape::new(640, 64, 96, "N", "T", DType::F32));
        let ticket = service.submit_with(
            &cold,
            &SubmitOptions {
                deadline: Some(Duration::from_millis(5)),
                ..SubmitOptions::default()
            },
        );
        assert_eq!(ticket.wait().served, Served::TimedOut);
        service.service_stats().timed_out
    };

    // --- Self-healing: a key poisoned through the fault seam exhausts
    //     its retry budget (tripping the shard breaker on the way),
    //     serves degraded, then -- once the fault clears -- is upgraded
    //     to an authoritative cache entry by the background repair.
    let (heal_breaker_opens, heal_repair_upgrades, heal_wall_s) = {
        let service = TuneService::new();
        let tuner = IsaacTuner::load(&model_path, tesla_p100(), OpKind::Gemm).expect("load model");
        service.add_shard(0, tuner);
        service.set_quarantine_config(isaac_serve::QuarantineConfig {
            ttl: Duration::from_millis(10),
            max_ttl: Duration::from_millis(100),
        });
        let fault = std::sync::Arc::new(isaac_serve::FaultTuner::new());
        service.set_tune_fault(Some(fault.clone()));

        let sick = Query::gemm(0, GemmShape::new(704, 64, 96, "N", "T", DType::F32));
        fault.poison_key(sick.key(), isaac_serve::FaultKind::Error);
        let t0 = Instant::now();
        assert_eq!(
            service.submit(&sick).wait().served,
            Served::Degraded,
            "an exhausted flight serves the heuristic, not a failure"
        );
        fault.heal(&sick.key());
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.stats().repair_upgrades == 0 {
            assert!(Instant::now() < deadline, "background repair never landed");
            std::thread::sleep(Duration::from_millis(2));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            service.submit(&sick).wait().served,
            Served::Cache,
            "the repaired key serves authoritatively"
        );
        let s = service.stats();
        (s.breaker_opens, s.repair_upgrades, wall_s)
    };
    let _ = std::fs::remove_file(&model_path);

    let stats = fleet.stats();
    let flights = fleet.flight_stats();
    let threads = rayon::current_num_threads();
    let warm_start_speedup = cold_tune_s / warm_start_s;

    let mut table = Table::new(
        "serving front-end (GEMM, P100 model, 2 shards)",
        &["metric", "value"],
    );
    table.row(vec![
        "one-at-a-time qps".into(),
        format!("{one_at_a_time_qps:.0}"),
    ]);
    table.row(vec!["batched qps".into(), format!("{batched_qps:.0}")]);
    table.row(vec![
        "batch speedup".into(),
        format!("{:.2}x", batched_qps / one_at_a_time_qps),
    ]);
    table.row(vec![
        "dedup ratio".into(),
        format!("{:.4}", stats.dedup_ratio()),
    ]);
    table.row(vec![
        "single-flight led/joined".into(),
        format!("{}/{}", flights.led, flights.joined),
    ]);
    table.row(vec![
        "warm-start speedup".into(),
        format!("{warm_start_speedup:.1}x ({} seeded)", warm.seeded),
    ]);
    table.row(vec![
        "async in-flight peak".into(),
        format!("{async_in_flight} tickets / {async_unique_cold} cold tunes"),
    ]);
    table.row(vec![
        "async queue latency".into(),
        format!("{async_queue_latency_s:.4}s avg"),
    ]);
    table.row(vec![
        "async cached qps".into(),
        format!("{async_cached_qps:.0}"),
    ]);
    table.row(vec![
        "post-evict hit rate (CostAware/Lru)".into(),
        format!("{post_evict_hit_rate:.3}/{post_evict_hit_rate_lru:.3}"),
    ]);
    table.row(vec![
        "snapshot restore".into(),
        format!("{snapshot_entries} entries, {restored_cold_tunes} cold tunes after restart"),
    ]);
    table.row(vec![
        "wal bytes/interval vs full rewrite".into(),
        format!("{wal_bytes_per_interval} vs {wal_full_rewrite_bytes}"),
    ]);
    table.row(vec![
        "wal recovery".into(),
        format!(
            "{wal_records_replayed} replayed in {wal_recovery_s:.4}s, \
             {wal_restored_cold_tunes} cold tunes after crash"
        ),
    ]);
    table.row(vec![
        "deadline timeouts".into(),
        format!("{deadline_timed_out}"),
    ]);
    table.row(vec![
        "self-heal (quarantine -> repair)".into(),
        format!(
            "{heal_repair_upgrades} upgraded in {heal_wall_s:.3}s, \
             {heal_breaker_opens} breaker trips"
        ),
    ]);
    table.print();

    let json = bench_json_path("BENCH_serving.json");
    write_json(
        &json,
        &[
            ("threads", threads.to_string()),
            ("shards", fleet.devices().len().to_string()),
            ("batch_size", batch_size.to_string()),
            ("one_at_a_time_qps", format!("{one_at_a_time_qps:.1}")),
            ("batched_qps", format!("{batched_qps:.1}")),
            (
                "batch_speedup",
                format!("{:.3}", batched_qps / one_at_a_time_qps),
            ),
            ("dedup_ratio", format!("{:.4}", stats.dedup_ratio())),
            ("single_flight_led", flights.led.to_string()),
            ("single_flight_joined", flights.joined.to_string()),
            ("leader_panics", flights.leader_panics.to_string()),
            ("cold_tune_s", format!("{cold_tune_s:.6}")),
            ("warm_start_s", format!("{warm_start_s:.6}")),
            ("warm_start_speedup", format!("{warm_start_speedup:.2}")),
            ("warm_seeded", warm.seeded.to_string()),
            ("evictions", evictions.to_string()),
            ("post_evict_hit_rate", format!("{post_evict_hit_rate:.4}")),
            (
                "post_evict_hit_rate_lru",
                format!("{post_evict_hit_rate_lru:.4}"),
            ),
            ("snapshot_files", snapshot_files.to_string()),
            ("snapshot_entries", snapshot_entries.to_string()),
            ("restored_cold_tunes", restored_cold_tunes.to_string()),
            ("wal_full_rewrite_bytes", wal_full_rewrite_bytes.to_string()),
            ("wal_bytes_per_interval", wal_bytes_per_interval.to_string()),
            ("wal_compactions", wal_compactions.to_string()),
            ("wal_records_replayed", wal_records_replayed.to_string()),
            ("wal_recovery_s", format!("{wal_recovery_s:.6}")),
            (
                "wal_restored_cold_tunes",
                wal_restored_cold_tunes.to_string(),
            ),
            ("deadline_timed_out", deadline_timed_out.to_string()),
            ("async_in_flight", async_in_flight.to_string()),
            ("async_unique_cold", async_unique_cold.to_string()),
            ("async_cold_wall_s", format!("{async_cold_wall_s:.6}")),
            (
                "async_queue_latency_s",
                format!("{async_queue_latency_s:.6}"),
            ),
            ("async_cached_qps", format!("{async_cached_qps:.1}")),
            // Self-healing: the main (never-faulted) serving run must
            // stay degraded-free; the fault section must prove repair.
            (
                "degraded_rate",
                format!(
                    "{:.4}",
                    stats.degraded as f64 / (stats.queries.max(1)) as f64
                ),
            ),
            ("breaker_opens", heal_breaker_opens.to_string()),
            ("repair_upgrades", heal_repair_upgrades.to_string()),
            ("heal_wall_s", format!("{heal_wall_s:.6}")),
        ],
    );
    println!(
        "wrote {} (batched {:.2}x over one-at-a-time, warm-start {:.1}x over cold, \
         dedup {:.2}, async peak {} in flight)",
        json.display(),
        batched_qps / one_at_a_time_qps,
        warm_start_speedup,
        stats.dedup_ratio(),
        async_in_flight
    );

    // Criterion entries so `cargo bench serving` shows standard lines.
    let hot = Query::gemm(0, shapes[0]);
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function("cached_submit", |b| {
        b.iter(|| black_box(fleet.submit(black_box(&hot)).wait()))
    });
    group.bench_function("cached_submit_batch_64", |b| {
        b.iter(|| black_box(wait_batch(&fleet, black_box(&mix))))
    });
    group.finish();

    // The cached path must never report a failure.
    assert_eq!(fleet.submit(&hot).wait().served, Served::Cache);
}

criterion_group!(benches, serving_throughput);
criterion_main!(benches);
