//! Regression tests for [`ServiceStats::snapshot`]'s consistent-read
//! contract over the *aggregated per-shard cache counters*: the service
//! sums each shard cache's striped per-segment hit/miss cells, and a
//! sum taken mid-traffic may lag the true total but must never exceed
//! it -- so consecutive snapshots never go backwards, and a quiescent
//! snapshot equals the sum of the shards' own `cache_stats()` exactly.

use isaac_core::{IsaacTuner, KeyShape, OpKind, TrainOptions};
use isaac_device::specs::{gtx980ti, tesla_p100};
use isaac_device::{DType, DeviceSpec};
use isaac_gen::shapes::GemmShape;
use isaac_serve::{Query, ServiceStats, TuneService};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Train one small GEMM model, once per process (own filename: this
/// binary runs concurrently with the other serve test binaries).
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
        let path = std::env::temp_dir().join("isaac_stats_shared_model.txt");
        tuner.save(&path).expect("save shared model");
        path
    })
}

fn fresh_tuner(spec: DeviceSpec) -> IsaacTuner {
    IsaacTuner::load(shared_model_path(), spec, OpKind::Gemm).expect("load shared model")
}

fn gemm_query(device: u16, m: u32) -> Query {
    Query::gemm(device, GemmShape::new(m, 64, 96, "N", "T", DType::F32))
}

/// Consecutive consistent snapshots taken while reader threads hammer
/// the shard caches must report monotonically non-decreasing aggregated
/// hit/miss totals -- the torn-sum failure mode this guards against is
/// a snapshot seeing stripe A's new value but stripe B's old one, then
/// a later snapshot seeing less than an earlier one reported.
#[test]
fn aggregated_cache_counters_never_go_backwards_under_traffic() {
    let service = Arc::new(TuneService::new());
    let shard0 = service.add_shard(0, fresh_tuner(tesla_p100()));
    let shard1 = service.add_shard(1, fresh_tuner(gtx980ti()));

    // Warm a small keyset on both shards (cold tunes happen here, once).
    let warm: Vec<Query> = (0..3)
        .flat_map(|i| [gemm_query(0, 160 + i * 32), gemm_query(1, 160 + i * 32)])
        .collect();
    for q in &warm {
        service.submit(q).wait();
    }
    let warmed = ServiceStats::snapshot(&service);
    assert!(
        warmed.shard_cache_misses >= warm.len() as u64,
        "each cold tune starts with a cache miss (saw {})",
        warmed.shard_cache_misses
    );

    // Hammer the warm keys from several threads while the main thread
    // takes consistent snapshots.
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let mut drivers = Vec::new();
    for t in 0..4usize {
        let service = Arc::clone(&service);
        let warm = warm.clone();
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        drivers.push(std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let q = &warm[(t + served as usize) % warm.len()];
                service.submit(q).wait();
                served += 1;
                progress.fetch_add(1, Ordering::Relaxed);
            }
            served
        }));
    }

    // Snapshot until the drivers have demonstrably pushed traffic
    // through (not a fixed iteration count: on a single-core box a
    // tight loop can finish before the drivers are even scheduled).
    let mut prev = warmed;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while progress.load(Ordering::Relaxed) < 2_000 {
        assert!(
            std::time::Instant::now() < deadline,
            "drivers made no progress"
        );
        let next = ServiceStats::snapshot(&service);
        assert!(
            next.shard_cache_hits >= prev.shard_cache_hits,
            "aggregated shard cache hits went backwards: {} -> {}",
            prev.shard_cache_hits,
            next.shard_cache_hits
        );
        assert!(
            next.shard_cache_misses >= prev.shard_cache_misses,
            "aggregated shard cache misses went backwards: {} -> {}",
            prev.shard_cache_misses,
            next.shard_cache_misses
        );
        prev = next;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let driven: u64 = drivers
        .into_iter()
        .map(|d| d.join().expect("driver panicked"))
        .sum();
    assert!(driven > 0, "drivers never got a query through");

    // Quiescent now: the aggregate must equal the sum of the shards'
    // own counters exactly -- same cells, just summed by the service.
    let final_stats = ServiceStats::snapshot(&service);
    let (hits, misses) = [&shard0, &shard1]
        .iter()
        .map(|t| t.cache_stats())
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    assert_eq!(
        (final_stats.shard_cache_hits, final_stats.shard_cache_misses),
        (hits, misses),
        "quiescent aggregate diverged from the shard caches"
    );
    assert!(
        final_stats.shard_cache_hits >= driven,
        "every driven query was warm: aggregate hits {} < driven {}",
        final_stats.shard_cache_hits,
        driven
    );
}

/// The aggregation must also see traffic that bypasses the front door:
/// direct tuner lookups bump the same striped counters, so the next
/// snapshot reflects them (this is what distinguishes
/// `shard_cache_hits` from the router's own `cache_hits`).
#[test]
fn aggregation_covers_direct_tuner_traffic() {
    let service = TuneService::new();
    let shard = service.add_shard(0, fresh_tuner(tesla_p100()));
    let q = gemm_query(0, 128);
    service.submit(&q).wait();

    let before = ServiceStats::snapshot(&service);
    let shape = GemmShape::new(128, 64, 96, "N", "T", DType::F32);
    let key = shard.key_shape(&KeyShape::Gemm(shape));
    for _ in 0..10 {
        assert!(shard.cache().get(&key).is_some());
    }
    let after = ServiceStats::snapshot(&service);
    assert_eq!(
        after.shard_cache_hits,
        before.shard_cache_hits + 10,
        "direct tuner hits missing from the aggregate"
    );
    assert_eq!(after.shard_cache_misses, before.shard_cache_misses);
}
