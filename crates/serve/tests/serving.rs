//! End-to-end properties of the sharded serving front-end:
//!
//! 1. **single-flight invariant** -- N threads racing a cold key run
//!    exactly one cold tune; the other N-1 wait on their tickets and
//!    receive the identical `TunedChoice`;
//! 2. **batch dedup + routing** -- duplicate queries inside a batch are
//!    resolved once, devices route to their own shards, unknown devices
//!    are refused;
//! 3. **cross-device warm-start** -- a fresh shard seeded from a
//!    neighbour serves warm shapes from cache, with zero cold tunes.

use isaac_core::{IsaacTuner, OpKind, TrainOptions};
use isaac_device::specs::{gtx980ti, tesla_p100};
use isaac_device::{DType, DeviceSpec};
use isaac_gen::shapes::GemmShape;
use isaac_serve::{Decision, Query, Served, TuneService};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, OnceLock};

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
        let path = std::env::temp_dir().join("isaac_serve_shared_model.txt");
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

/// Submit a batch and wait for every ticket, in query order.
fn wait_batch(service: &TuneService, queries: &[Query]) -> Vec<Decision> {
    service
        .submit_batch(queries)
        .iter()
        .map(|ticket| ticket.wait())
        .collect()
}

#[test]
fn contended_cold_key_tunes_exactly_once() {
    const THREADS: usize = 4;
    let service = TuneService::new();
    let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
    let query = gemm_query(0, 96, 64, 48);

    let barrier = Barrier::new(THREADS);
    let decisions: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    service.submit(&query).wait()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // THE invariant: exactly one cold tune ran, no matter how the race
    // played out. (A straggler descheduled past the leader's publish
    // legitimately re-leads a flight, but the leader-side cache re-peek
    // turns that into a hit -- so `led` may exceed 1 on a loaded host
    // while cold_tunes cannot.)
    let stats = service.stats();
    let flights = service.flight_stats();
    assert_eq!(stats.cold_tunes, 1, "exactly one cold tune ran");
    assert_eq!(tuner.cache_len(), 1, "one decision cached");
    assert!(flights.led >= 1);
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        (THREADS - 1) as u64,
        "everyone else joined the flight or hit the freshly-filled cache"
    );

    // Every thread got the identical decision.
    let first = decisions[0].choice.clone().expect("a kernel is selected");
    for d in &decisions {
        assert_eq!(d.choice.as_ref(), Some(&first));
    }
    let tuned = decisions
        .iter()
        .filter(|d| d.served == Served::Tuned)
        .count();
    assert_eq!(tuned, 1, "exactly one decision reports the cold tune");

    // The dust has settled: the next submit is a plain cache hit.
    let again = service.submit(&query).wait();
    assert_eq!(again.served, Served::Cache);
    assert_eq!(again.choice, Some(first));
}

#[test]
fn batches_dedupe_route_and_refuse_unknown_devices() {
    let service = TuneService::new();
    let t0 = service.add_shard(0, fresh_tuner(tesla_p100()));
    let t1 = service.add_shard(1, fresh_tuner(gtx980ti()));
    assert_eq!(service.devices(), vec![0, 1]);

    let hot = gemm_query(0, 96, 64, 48);
    let batch = [
        hot,                       // cold tune on shard 0
        gemm_query(1, 96, 64, 48), // same shape, different device: own cold tune
        hot,                       // in-batch duplicate
        gemm_query(9, 96, 64, 48), // no shard registered
        hot,                       // in-batch duplicate
    ];
    let decisions = wait_batch(&service, &batch);
    assert_eq!(decisions.len(), batch.len());

    // Duplicates share the first occurrence's choice; they report
    // Coalesced because they did not run the cold tune themselves.
    assert_eq!(decisions[0].served, Served::Tuned);
    assert_eq!(decisions[2].served, Served::Coalesced);
    assert_eq!(decisions[4].served, Served::Coalesced);
    assert!(decisions[0].choice.is_some());
    assert_eq!(decisions[0].choice, decisions[2].choice);
    assert_eq!(decisions[0].choice, decisions[4].choice);

    // Same shape on another device is its own cold tune, keyed apart.
    assert!(decisions[1].choice.is_some());
    assert_eq!(t0.cache_len(), 1);
    assert_eq!(t1.cache_len(), 1);
    assert_eq!(t0.cache().entries()[0].0.device, 0);
    assert_eq!(t1.cache().entries()[0].0.device, 1);

    // Unknown device is refused, not misrouted.
    assert_eq!(decisions[3].served, Served::NoShard);
    assert_eq!(decisions[3].choice, None);

    let stats = service.stats();
    assert_eq!(stats.queries, 5);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batch_deduped, 2);
    assert_eq!(stats.cold_tunes, 2);
    assert_eq!(stats.no_shard, 1);
    assert!(stats.dedup_ratio() >= 2.0 / 5.0);

    // A repeat batch is all cache hits and dedup.
    let again = wait_batch(&service, &[hot, hot]);
    assert_eq!(again[0].served, Served::Cache);
    assert_eq!(again[1], again[0]);
    assert_eq!(service.stats().cold_tunes, 2, "no further cold tunes");
}

#[test]
fn warm_started_shard_serves_without_cold_tunes() {
    let service = TuneService::new();
    service.add_shard(0, fresh_tuner(tesla_p100()));
    service.add_shard(1, fresh_tuner(tesla_p100()));

    // Shard 0 learns two shapes the hard way.
    let shapes = [gemm_query(0, 96, 64, 48), gemm_query(0, 256, 64, 512)];
    for q in &shapes {
        assert!(service.submit(q).wait().choice.is_some());
    }
    let cold_tunes_before = service.stats().cold_tunes;

    // Shard 1 warm-starts from shard 0: re-benchmarks, no cold tunes.
    let report = service
        .warm_start(1, 0, OpKind::Gemm, 10)
        .expect("both shards exist");
    assert_eq!(report.candidates, 2);
    assert_eq!(report.seeded, 2, "same device model: everything transfers");
    assert_eq!(service.stats().cold_tunes, cold_tunes_before);

    // The warm shapes are cache hits on shard 1.
    for q in &shapes {
        let warm = Query { device: 1, ..*q };
        let d = service.submit(&warm).wait();
        assert_eq!(d.served, Served::Cache, "warm-started shape is a hit");
        assert!(d.choice.is_some());
    }
    assert_eq!(
        service.stats().cold_tunes,
        cold_tunes_before,
        "warm-started shard never cold-tunes the seeded shapes"
    );

    // Missing shards are reported, not panicked on.
    assert!(service.warm_start(2, 0, OpKind::Gemm, 10).is_none());
    assert!(service.warm_start(1, 0, OpKind::Conv, 10).is_none());
}
