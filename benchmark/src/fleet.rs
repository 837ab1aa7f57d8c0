//! Building the system under test: train every shard's tuner from
//! scratch, round-trip it through its model file, register it, and build
//! the process-wide lazy tables -- the whole of a round's set-up, through
//! public API only.

use crate::inputs::Workload;
use crate::oracle::spec_of;
use isaac_core::{IsaacTuner, KeyShape, OpKind, SparseOp, SparseShape, TrainOptions};
use isaac_device::DType;
use isaac_gen::shapes::{ConvShape, GemmShape};
use isaac_serve::{Query, Served, TuneService};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Rule R1: one engine thread and one worker, fixed, not derived from
/// `nproc` (the load generator is the second thread of the budget).
pub const ENGINE_THREADS: usize = 1;
pub const WORKERS: usize = 1;

/// Pin the engine's fan-out width. Must run before the first library
/// call: the rayon shim reads the variable once.
pub fn pin_engine_threads() {
    std::env::set_var("RAYON_NUM_THREADS", ENGINE_THREADS.to_string());
}

/// Rule R2: training is small enough to repeat in every round (default
/// `[64, 128, 64]` net, so a cold tune costs what it costs in production;
/// a fixed training seed, because the model is the program, not an input).
pub fn train_options() -> TrainOptions {
    TrainOptions {
        samples: 6_000,
        epochs: 4,
        ..TrainOptions::default()
    }
}

/// The shapes of the throw-away cold query each family gets in set-up.
/// None of them can collide with a workload key (layout, batch size and
/// row count lie outside what the generators produce).
pub fn warm_up_shape(op: OpKind) -> KeyShape {
    match op {
        OpKind::Gemm => KeyShape::Gemm(GemmShape::new(384, 384, 384, "T", "T", DType::F32)),
        OpKind::Conv => KeyShape::Conv(ConvShape::from_output(4, 10, 10, 24, 24, 3, 3, DType::F32)),
        OpKind::Sparse => KeyShape::Sparse(SparseShape {
            op: SparseOp::Spmv,
            rows: 250,
            nnz: 2_500,
            row_mean_milli: 10_000,
            row_cv_milli: 100,
            row_max: 14,
            bandwidth: 40,
            block_density_milli: 500,
            dtype: DType::F32,
        }),
    }
}

/// Set-up timings, seconds (gauges of every round; the traced run turns
/// them into `train.*` / `service.*` per-layer metrics).
pub type SetupTimes = BTreeMap<String, f64>;

fn add(times: &mut SetupTimes, name: &str, since: Instant) {
    *times.entry(name.to_string()).or_default() += since.elapsed().as_secs_f64();
}

/// Train, save, load and register every shard of `workload`.
pub fn build_service(
    workload: Workload,
    model_dir: &Path,
    times: &mut SetupTimes,
) -> io::Result<TuneService> {
    std::fs::create_dir_all(model_dir)?;
    let service = TuneService::with_workers(WORKERS);
    for &(device, op) in workload.shards() {
        let t = Instant::now();
        let trained = IsaacTuner::train(spec_of(device), op, train_options());
        add(times, "setup.train_s", t);
        *times.entry("setup.val_mse".to_string()).or_default() += trained.validation_mse as f64;

        let path = model_dir.join(format!("model-{device}-{op}.txt"));
        let t = Instant::now();
        trained.save(&path)?;
        add(times, "setup.model_save_s", t);
        *times.entry("setup.model_bytes".to_string()).or_default() +=
            std::fs::metadata(&path)?.len() as f64;

        let t = Instant::now();
        let mut tuner = IsaacTuner::load(&path, spec_of(device), op)?;
        add(times, "setup.model_load_s", t);
        if let Some(capacity) = workload.cache_capacity() {
            tuner.set_cache_capacity(capacity);
        }

        let t = Instant::now();
        service.add_shard(device, tuner);
        add(times, "setup.add_shard_s", t);
    }
    times.insert("setup.shards".to_string(), workload.shards().len() as f64);
    Ok(service)
}

/// One throw-away cold query per registered op family, so the
/// process-wide lazy tables (config space, feature table, scratch pool,
/// the worker's first wake-up) are built inside set-up. The decision is
/// removed again: rounds start from the fixture's cache and nothing else.
pub fn warm_up(service: &TuneService, workload: Workload, times: &mut SetupTimes) {
    let mut seen = Vec::new();
    for &(device, op) in workload.shards() {
        if seen.contains(&op) {
            continue;
        }
        seen.push(op);
        let query = Query::new(device, warm_up_shape(op));
        let t = Instant::now();
        let decision = service.submit(&query).wait();
        add(times, "setup.warm_up_s", t);
        assert_eq!(
            decision.served,
            Served::Tuned,
            "warm-up of {op} must cold-tune"
        );
        let tuner = service.shard_tuner(device, op).expect("registered shard");
        tuner.cache().remove(&query.key());
    }
}
