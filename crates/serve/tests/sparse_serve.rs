//! The op-family acceptance test: the sparse family, added entirely in
//! `isaac-core`/`isaac-sparse`, flows through the **unchanged** serving
//! layer -- submit/single-flight, eviction, snapshot/restore, WAL
//! recovery (including forward-compat skip-and-count) and the
//! quarantine/repair loop all work for `OpKind::Sparse` queries without
//! one serve-side branch on the operation. The final test enforces that
//! claim structurally: it scans `crates/serve/src` and fails if any
//! non-test, non-doc line mentions a concrete `OpKind` variant or a
//! per-op tuner method.

use isaac_core::{
    crc32, sparse_csr, IsaacTuner, OpKind, SparseOp, SparseShape, TrainOptions, TuneKey,
};
use isaac_device::specs::tesla_p100;
use isaac_device::{DType, DeviceSpec};
use isaac_gen::GemmConfig;
use isaac_serve::{
    parse_snapshot_file_name, snapshot_file_name, wal_file_name, BreakerConfig, FaultKind,
    FaultTuner, QuarantineConfig, Query, Served, TuneService,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Train one small sparse model, once per process; tests load cheap
/// clones from the text serialization.
fn shared_model_path() -> &'static Path {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let tuner = IsaacTuner::train(
            tesla_p100(),
            OpKind::Sparse,
            TrainOptions {
                samples: 2_000,
                hidden: vec![16, 16],
                epochs: 2,
                top_k: 10,
                ..Default::default()
            },
        );
        let path = std::env::temp_dir().join("isaac_sparse_serve_shared_model.txt");
        tuner.save(&path).expect("save shared sparse model");
        path
    })
}

fn fresh_tuner(spec: DeviceSpec) -> IsaacTuner {
    IsaacTuner::load(shared_model_path(), spec, OpKind::Sparse).expect("load shared sparse model")
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "isaac_sparse_serve_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// An SpMV query for a seeded banded matrix, keyed (like production) by
/// the matrix's *structure*.
fn banded_query(device: u16, rows: usize) -> Query {
    let a = sparse_csr::banded(rows, 4, 11);
    Query::sparse(
        device,
        SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32),
    )
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Submit / single-flight / cache-hit / structural keying, with not one
/// sparse-aware line in the serving layer.
#[test]
fn sparse_queries_flow_through_the_unchanged_front_door() {
    let service = TuneService::with_workers(2);
    let tuner = service.add_shard(0, fresh_tuner(tesla_p100()));
    let q = banded_query(0, 512);
    assert_eq!(q.op(), OpKind::Sparse);

    // In-batch duplicates of a cold sparse key coalesce onto one tune.
    let decisions: Vec<_> = service
        .submit_batch(&[q, q, q])
        .into_iter()
        .map(|t| t.wait())
        .collect();
    let tuned = decisions
        .iter()
        .filter(|d| d.served == Served::Tuned)
        .count();
    let coalesced = decisions
        .iter()
        .filter(|d| d.served == Served::Coalesced)
        .count();
    assert_eq!((tuned, coalesced), (1, 2), "one cold tune, two joiners");
    let first = decisions[0].choice.clone().expect("a kernel is selected");
    for d in &decisions {
        assert_eq!(d.choice.as_ref(), Some(&first), "identical decision");
    }
    assert_eq!(service.stats().cold_tunes, 1);
    assert_eq!(tuner.cache_len(), 1);

    // The decision is keyed by structure: a *different* matrix with the
    // same structural features is a cache hit, no new tune.
    let same_structure = {
        let mut b = sparse_csr::banded(512, 4, 11);
        for v in &mut b.vals {
            *v *= 3.0; // same pattern, different values
        }
        Query::sparse(0, SparseShape::from_csr(SparseOp::Spmv, &b, DType::F32))
    };
    let d = service.submit(&same_structure).wait();
    assert_eq!(d.served, Served::Cache);
    assert_eq!(d.choice, Some(first));

    // The same matrix under a different sparse op is its own key...
    let trsv = {
        let a = sparse_csr::banded(512, 4, 11);
        Query::sparse(0, SparseShape::from_csr(SparseOp::Sptrsv, &a, DType::F32))
    };
    assert_ne!(trsv.key(), q.key());
    // ...and an unknown device is refused, not misrouted.
    let lost = Query { device: 9, ..q };
    assert_eq!(service.submit(&lost).wait().served, Served::NoShard);
}

/// Capacity pressure on a sparse shard evicts by the cache's policy,
/// exactly like any other family.
#[test]
fn sparse_shard_evicts_under_capacity_pressure() {
    let service = TuneService::with_workers(2);
    let mut shard = fresh_tuner(tesla_p100());
    shard.set_cache_capacity(2);
    let tuner = service.add_shard(0, shard);

    for rows in [256, 384, 512] {
        assert!(service
            .submit(&banded_query(0, rows))
            .wait()
            .choice
            .is_some());
    }
    assert_eq!(service.stats().cold_tunes, 3);
    assert_eq!(tuner.cache_len(), 2, "bounded cache holds the cap");
    assert!(
        tuner.cache_stats().evictions >= 1,
        "the overflow was evicted, not dropped silently"
    );
}

/// Snapshot files for sparse shards use the same `shard-<dev>-<op>`
/// naming leg, and a restored fleet serves the old working set from
/// cache with zero cold tunes.
#[test]
fn sparse_snapshots_restore_into_a_fresh_fleet() {
    let name = snapshot_file_name(0, OpKind::Sparse);
    assert_eq!(parse_snapshot_file_name(&name), Some((0, OpKind::Sparse)));

    let dir = temp_dir("snapshot");
    let queries = [banded_query(0, 256), banded_query(0, 512)];
    {
        let service = TuneService::with_workers(2);
        service.add_shard(0, fresh_tuner(tesla_p100()));
        for q in &queries {
            assert!(service.submit(q).wait().choice.is_some());
        }
        let report = service.snapshot_all(&dir).expect("snapshot");
        assert_eq!((report.files, report.entries), (1, 2));
        assert!(dir.join(&name).exists());
    }

    let service = TuneService::with_workers(2);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let report = service.restore_all(&dir).expect("restore");
    assert_eq!((report.entries, report.skipped), (2, 0));
    for q in &queries {
        assert_eq!(service.submit(q).wait().served, Served::Cache);
    }
    assert_eq!(service.stats().cold_tunes, 0, "restored set never re-tunes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL recovery of a sparse shard, including the forward-compat
/// contract: a CRC-valid record from a future format version is
/// skipped and *counted* (`recovery_skipped_records`), and the valid
/// records after it still replay.
#[test]
fn sparse_wal_recovery_skips_future_records_and_replays_the_rest() {
    let dir = temp_dir("recover");
    let shape = {
        let a = sparse_csr::banded(512, 4, 11);
        SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32)
    };
    // Hand-write the shard's WAL: a v-next record this build cannot
    // parse (future op family "sfft"), then a valid sparse insert.
    let frame = |body: &str| format!("{:08x} {body}\n", crc32(body.as_bytes()));
    let vnext = frame("I sfft_n1024_b8 1 1 1 1 1 1 1 1 1 1.0e2 2.0e-1 3.0e-3");
    let insert = frame(&format!(
        "I {} 1 1 1 1 1 1 1 1 1 1.0e2 2.0e-1 3.0e-3",
        TuneKey::sparse(&shape).name()
    ));
    std::fs::write(
        dir.join(wal_file_name(0, OpKind::Sparse)),
        format!("{vnext}{insert}"),
    )
    .expect("write wal");

    let service = TuneService::with_workers(2);
    service.add_shard(0, fresh_tuner(tesla_p100()));
    let report = service.recover_all(&dir).expect("recover");
    assert_eq!(report.replayed, 1, "the record after the skip replays");
    assert_eq!(report.skipped, 1, "the v-next record is counted");
    assert_eq!(report.torn_records, 0, "nothing was treated as torn");
    assert_eq!(service.stats().recovery_skipped_records, 1);

    // The replayed decision serves without a tune.
    let d = service.submit(&Query::sparse(0, shape)).wait();
    assert_eq!(d.served, Served::Cache);
    assert_eq!(service.stats().cold_tunes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The self-healing loop is op-agnostic too: a poisoned sparse key
/// degrades to the sparse family's heuristic, quarantines, and repairs
/// back to an authoritative tuned entry once healed.
#[test]
fn sparse_keys_quarantine_and_repair_like_any_other_family() {
    let service = TuneService::with_workers(1);
    service.add_shard(0, fresh_tuner(tesla_p100()));
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
    let fault = Arc::new(FaultTuner::new());
    service.set_tune_fault(Some(fault.clone()));

    let query = banded_query(0, 512);
    fault.poison_key(query.key(), FaultKind::Error);
    let d = service.submit(&query).wait();
    assert_eq!(d.served, Served::Degraded);
    assert!(service.is_quarantined(&query.key()));
    // The stand-in is the sparse family's model-free heuristic.
    assert_eq!(
        d.choice.expect("heuristic stand-in").config,
        GemmConfig::from_vector([1; 9]),
        "degraded sparse answers come from the sparse heuristic"
    );

    // Quarantined answers are instant and burn no further attempts.
    let attempts = fault.attempts(&query.key());
    let again = service.submit(&query).wait();
    assert_eq!(again.served, Served::Degraded);
    assert_eq!(fault.attempts(&query.key()), attempts);

    // Heal: the background repair upgrades the key to a real tune.
    fault.heal(&query.key());
    wait_until("the sparse repair to land", || {
        service.stats().repair_upgrades == 1
    });
    assert!(!service.is_quarantined(&query.key()));
    assert_eq!(service.submit(&query).wait().served, Served::Cache);
}

/// The structural claim behind all of the above: no non-test,
/// non-doc-comment line in `crates/serve/src` mentions a concrete
/// `OpKind` variant or calls a per-op tuner method. (Typed convenience
/// constructors like `Query::gemm` build a `KeyShape` variant; what is
/// banned is *dispatching* on the operation.)
#[test]
fn serve_sources_contain_no_per_op_dispatch() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let forbidden = [
        "OpKind::Gemm",
        "OpKind::Conv",
        "OpKind::Sparse",
        ".tune_gemm",
        ".tune_conv",
        ".tune_sparse",
        ".heuristic_gemm",
        ".heuristic_conv",
        ".heuristic_sparse",
    ];
    let mut offenders = Vec::new();
    for entry in std::fs::read_dir(&src).expect("read serve/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read source");
        // Test modules may mention variants (e.g. file-name roundtrip
        // fixtures); production code must not.
        let production = text.split("#[cfg(test)]").next().unwrap_or("");
        for (lineno, line) in production.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("///") || trimmed.starts_with("//!") || trimmed.starts_with("//")
            {
                continue;
            }
            for token in forbidden {
                if line.contains(token) {
                    offenders.push(format!("{}:{}: {token}", path.display(), lineno + 1));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "serve-layer per-op dispatch found:\n{}",
        offenders.join("\n")
    );
}
