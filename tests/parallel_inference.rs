//! Properties of the parallel tuning query engine (PR: parallel,
//! allocation-free inference):
//!
//! 1. for every op family, the rayon-parallel engine returns
//!    **bit-identical** `TunedChoice`s to a naive, independently written
//!    serial reference (and to the engine's own no-fan-out mode) under a
//!    fixed seed,
//! 2. a second identical query is a cache **hit** that returns the same
//!    choice without re-running inference,
//! 3. the steady-state query path performs **zero per-candidate heap
//!    allocations** -- the pooled feature/activation/candidate buffers
//!    stop growing after warmup.

use isaac::core::features::{conv_features, gemm_features, sparse_features};
use isaac::core::inference::{self, space_iter};
use isaac::core::{
    engine_stats, enumerate_legal_sparse, infer, InferOptions, KeyShape, OpKind, SparseOp,
    SparseShape, TrainOptions, TunedChoice,
};
use isaac::gen::profile::{conv_profile, gemm_profile};
use isaac::gen::shapes::{ConvShape, GemmShape};
use isaac::mlp::io::ModelBundle;
use isaac::mlp::{Mlp, Standardizer};
use isaac::prelude::*;
use isaac_sparse::profile::sparse_profile;
use std::sync::{Mutex, MutexGuard};

/// The engine's scratch pool and its counters are process-global, and
/// the default test harness runs tests on several threads; serialize the
/// tests in this binary so counter snapshots are not racy.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An untrained (random-weight, identity-standardizer) model bundle: the
/// query engine's behaviour must not depend on model quality, and skipping
/// training keeps the property tests fast.
fn random_bundle(features: usize, seed: u64) -> ModelBundle {
    ModelBundle {
        mlp: Mlp::with_hidden(features, &[32, 16], seed),
        standardizer: Standardizer {
            mean: vec![0.25; features],
            std: vec![1.5; features],
        },
        y_mean: 3.0,
        y_std: 0.75,
    }
}

/// Independent serial reference, written the way the pre-parallel code
/// worked: allocate a `Vec<Vec<f32>>` of features, score with the
/// allocating batch path, full-sort the candidates and re-benchmark one
/// by one. Deliberately shares no code with the engine's hot path.
fn naive_infer_gemm(
    bundle: &ModelBundle,
    shape: &GemmShape,
    profiler: &Profiler,
    top_k: usize,
) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let candidates: Vec<GemmConfig> = space_iter()
        .filter(|cfg| isaac::gen::legality::check(cfg, shape, spec).is_ok())
        .collect();
    let rows: Vec<Vec<f32>> = candidates
        .iter()
        .map(|cfg| gemm_features(shape, cfg, true))
        .collect();
    let scores = bundle.predict_batch(&rows);
    naive_select(&candidates, &scores, top_k, |cfg| {
        let profile = gemm_profile(cfg, shape, spec).ok()?;
        profiler.measure_best_of(&profile, 3).ok()
    })
}

fn naive_infer_conv(
    bundle: &ModelBundle,
    shape: &ConvShape,
    profiler: &Profiler,
    top_k: usize,
) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let candidates: Vec<GemmConfig> = space_iter()
        .filter(|cfg| isaac::gen::conv::check(cfg, shape, spec).is_ok())
        .collect();
    let rows: Vec<Vec<f32>> = candidates
        .iter()
        .map(|cfg| conv_features(shape, cfg, true))
        .collect();
    let scores = bundle.predict_batch(&rows);
    naive_select(&candidates, &scores, top_k, |cfg| {
        let profile = conv_profile(cfg, shape, spec).ok()?;
        profiler.measure_best_of(&profile, 3).ok()
    })
}

fn naive_infer_sparse(
    bundle: &ModelBundle,
    shape: &SparseShape,
    profiler: &Profiler,
    top_k: usize,
) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let candidates = enumerate_legal_sparse(shape);
    let rows: Vec<Vec<f32>> = candidates
        .iter()
        .map(|cfg| sparse_features(shape, cfg, true))
        .collect();
    let scores = bundle.predict_batch(&rows);
    naive_select(&candidates, &scores, top_k, |cfg| {
        let profile = sparse_profile(cfg, shape, spec).ok()?;
        profiler.measure_best_of(&profile, 3).ok()
    })
}

fn naive_select(
    candidates: &[GemmConfig],
    scores: &[f32],
    top_k: usize,
    bench: impl Fn(&GemmConfig) -> Option<isaac::device::Measurement>,
) -> Option<TunedChoice> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then_with(|| a.cmp(&b)));
    order.truncate(top_k);
    let mut best: Option<TunedChoice> = None;
    for idx in order {
        let Some(m) = bench(&candidates[idx]) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| m.time_s < b.time_s) {
            best = Some(TunedChoice {
                config: candidates[idx],
                predicted_gflops: (scores[idx] as f64).exp(),
                tflops: m.tflops,
                time_s: m.time_s,
            });
        }
    }
    best
}

/// The engine on `shape` with the exhaustive (cascade-free) options the
/// naive references implement, fanned out or serial.
fn engine(
    bundle: &ModelBundle,
    shape: KeyShape,
    profiler: &Profiler,
    top_k: usize,
    parallel: bool,
) -> Option<TunedChoice> {
    let opts = InferOptions {
        top_k,
        log_features: true,
        parallel,
        cascade: None,
    };
    infer(bundle, &shape, profiler, &opts)
}

fn assert_bit_identical(a: &TunedChoice, b: &TunedChoice, what: &str) {
    assert_eq!(a.config, b.config, "{what}: config differs");
    assert_eq!(
        a.predicted_gflops.to_bits(),
        b.predicted_gflops.to_bits(),
        "{what}: prediction differs"
    );
    assert_eq!(a.tflops.to_bits(), b.tflops.to_bits(), "{what}: tflops");
    assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{what}: time");
}

#[test]
fn parallel_gemm_inference_is_bit_identical_to_serial_reference() {
    let _guard = pool_lock();
    let bundle = random_bundle(isaac::core::features::GEMM_FEATURES, 11);
    let profiler = Profiler::new(tesla_p100(), 0x15AAC);
    // Shapes spanning square, skinny and deep-reduction regimes.
    let shapes = [
        GemmShape::new(512, 512, 512, "N", "T", DType::F32),
        GemmShape::new(2560, 16, 2560, "N", "N", DType::F32),
        GemmShape::new(32, 32, 60000, "T", "N", DType::F32),
    ];
    for shape in &shapes {
        let par = engine(&bundle, KeyShape::Gemm(*shape), &profiler, 25, true).expect("choice");
        let ser = engine(&bundle, KeyShape::Gemm(*shape), &profiler, 25, false).expect("choice");
        let naive = naive_infer_gemm(&bundle, shape, &profiler, 25).expect("choice");
        assert_bit_identical(&par, &ser, &format!("{} par-vs-serial", shape.name()));
        assert_bit_identical(&par, &naive, &format!("{} par-vs-naive", shape.name()));
    }
}

#[test]
fn parallel_conv_inference_is_bit_identical_to_serial_reference() {
    let _guard = pool_lock();
    let bundle = random_bundle(isaac::core::features::CONV_FEATURES, 23);
    let profiler = Profiler::new(tesla_p100(), 0xC0);
    let shape = ConvShape::from_output(16, 14, 14, 48, 512, 5, 5, DType::F32);
    let par = engine(&bundle, KeyShape::Conv(shape), &profiler, 25, true).expect("choice");
    let ser = engine(&bundle, KeyShape::Conv(shape), &profiler, 25, false).expect("choice");
    let naive = naive_infer_conv(&bundle, &shape, &profiler, 25).expect("choice");
    assert_bit_identical(&par, &ser, "conv par-vs-serial");
    assert_bit_identical(&par, &naive, "conv par-vs-naive");
}

/// One structure per sparse operation: the family's per-query legality
/// filter, its input-structure features and its profile builder must
/// wire into the engine exactly as the naive reference composes them.
#[test]
fn parallel_sparse_inference_is_bit_identical_to_serial_reference() {
    let _guard = pool_lock();
    let bundle = random_bundle(isaac::core::features::SPARSE_FEATURES, 31);
    let profiler = Profiler::new(tesla_p100(), 0x5BA);
    let shapes = [
        (
            SparseOp::Spmv,
            isaac::core::sparse_csr::power_law(2048, 12, 9),
        ),
        (
            SparseOp::Sptrsv,
            isaac::core::sparse_csr::banded(4096, 5, 7),
        ),
        (
            SparseOp::Symgs,
            isaac::core::sparse_csr::blocked(2048, 8, 4, 17),
        ),
    ];
    for (op, a) in &shapes {
        let shape = SparseShape::from_csr(*op, a, DType::F32);
        let par = engine(&bundle, KeyShape::Sparse(shape), &profiler, 25, true).expect("choice");
        let ser = engine(&bundle, KeyShape::Sparse(shape), &profiler, 25, false).expect("choice");
        let naive = naive_infer_sparse(&bundle, &shape, &profiler, 25).expect("choice");
        assert_bit_identical(&par, &ser, &format!("{op:?} par-vs-serial"));
        assert_bit_identical(&par, &naive, &format!("{op:?} par-vs-naive"));
    }
}

#[test]
fn repeated_queries_stop_allocating() {
    let _guard = pool_lock();
    let bundle = random_bundle(isaac::core::features::GEMM_FEATURES, 5);
    let profiler = Profiler::new(tesla_p100(), 9);
    let shape = GemmShape::new(768, 384, 1024, "N", "T", DType::F32);
    // Warm the scratch pool (other tests may share it; what matters is
    // that it is stable from here on).
    for _ in 0..3 {
        engine(&bundle, KeyShape::Gemm(shape), &profiler, 10, true);
    }
    let warmed = engine_stats();
    for _ in 0..5 {
        engine(&bundle, KeyShape::Gemm(shape), &profiler, 10, true);
    }
    let after = engine_stats();
    assert_eq!(
        warmed, after,
        "steady-state queries must reuse pooled scratches without growing them"
    );
}

#[test]
fn second_identical_query_is_a_cache_hit() {
    let _guard = pool_lock();
    let tuner = IsaacTuner::train(
        tesla_p100(),
        OpKind::Gemm,
        TrainOptions {
            samples: 1_500,
            hidden: vec![24, 24],
            epochs: 3,
            ..Default::default()
        },
    );
    let shape = GemmShape::new(640, 128, 256, "N", "T", DType::F32);
    assert_eq!(tuner.cache_stats(), Default::default());

    let first = tuner.tune_gemm(&shape).expect("choice");
    let stats = tuner.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "cold query is a miss");

    let second = tuner.tune_gemm(&shape).expect("choice");
    let stats = tuner.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "repeat query is a hit");
    assert_eq!(first, second, "the hit must return the same decision");
    assert_eq!(tuner.cache_len(), 1);

    // A different dtype with identical dimensions is a different key.
    let f64_shape = GemmShape::new(640, 128, 256, "N", "T", DType::F64);
    let _ = tuner.tune_gemm(&f64_shape);
    assert_eq!(tuner.cache_stats().misses, 2, "dtype is part of the key");
}

/// The engine must be deterministic across *processes and thread counts*;
/// inference::engine_stats is process-global, so at least pin down that
/// two queries in a row observe an unchanged pool while a different shape
/// class (conv) checks out the same pool without disturbing gemm results.
#[test]
fn mixed_op_queries_share_the_scratch_pool_safely() {
    let _guard = pool_lock();
    let gemm_bundle = random_bundle(isaac::core::features::GEMM_FEATURES, 2);
    let conv_bundle = random_bundle(isaac::core::features::CONV_FEATURES, 3);
    let profiler = Profiler::new(tesla_p100(), 1);
    let gshape = GemmShape::new(256, 256, 256, "N", "N", DType::F32);
    let cshape = ConvShape::from_output(8, 7, 7, 64, 64, 3, 3, DType::F32);
    let gemm = KeyShape::Gemm(gshape);
    let before = engine(&gemm_bundle, gemm, &profiler, 10, true).expect("choice");
    let _ = engine(&conv_bundle, KeyShape::Conv(cshape), &profiler, 10, true).expect("choice");
    let after = engine(&gemm_bundle, gemm, &profiler, 10, true).expect("choice");
    assert_bit_identical(&before, &after, "interleaved conv query");
    let _ = inference::engine_stats();
}
