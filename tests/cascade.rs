//! Quality guard for the coarse-to-fine cold-tune cascade: pruning
//! candidates with the cheap surrogate must not change the final
//! decision, and the cascade must stay deterministic across thread
//! counts.
//!
//! 1. cascade **off** (`InferOptions::default`, and reachable through
//!    `TrainOptions { cascade: None, .. }` now that trained tuners
//!    cascade by default) is bit-identical to the pre-cascade engine
//!    (covered by tests/parallel_inference.rs);
//! 2. cascade **on** re-benchmarks the same winner as the exhaustive
//!    path on the benchmark shape suite (the safety-margined survivor
//!    cut is what buys this);
//! 3. cascade on, parallel == cascade on, serial, bit for bit;
//! 4. a tuner trained with `TrainOptions::cascade` makes the same cached
//!    decisions as one without.

use isaac::core::inference::{infer, CascadeConfig, InferOptions};
use isaac::core::{KeyShape, OpKind, TrainOptions};
use isaac::mlp::io::ModelBundle;
use isaac::mlp::{Mlp, Standardizer};
use isaac::prelude::*;

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

fn bench_shapes() -> Vec<GemmShape> {
    vec![
        GemmShape::new(1024, 1024, 1024, "N", "T", DType::F32),
        GemmShape::new(2560, 16, 2560, "N", "N", DType::F32),
        GemmShape::new(32, 32, 60000, "T", "N", DType::F32),
    ]
}

#[test]
fn cascade_choice_matches_exhaustive_on_bench_suite() {
    let bundle = random_bundle(isaac::core::features::GEMM_FEATURES, 17);
    let profiler = Profiler::new(tesla_p100(), 0x15AAC);
    let opts = |cascade| InferOptions {
        top_k: 50,
        log_features: true,
        parallel: true,
        cascade,
    };
    for shape in &bench_shapes() {
        let key = KeyShape::Gemm(*shape);
        let exhaustive = infer(&bundle, &key, &profiler, &opts(None)).expect("choice");
        let cascaded = infer(
            &bundle,
            &key,
            &profiler,
            &opts(Some(CascadeConfig::default())),
        )
        .expect("choice");
        assert_eq!(
            exhaustive,
            cascaded,
            "{}: cascade changed the tuning decision",
            shape.name()
        );
    }
}

#[test]
fn cascade_is_deterministic_across_fanout() {
    let bundle = random_bundle(isaac::core::features::GEMM_FEATURES, 29);
    let profiler = Profiler::new(tesla_p100(), 7);
    let shape = KeyShape::Gemm(GemmShape::new(512, 512, 512, "N", "T", DType::F32));
    let mk = |parallel| InferOptions {
        top_k: 25,
        log_features: true,
        parallel,
        cascade: Some(CascadeConfig::default()),
    };
    let par = infer(&bundle, &shape, &profiler, &mk(true)).expect("choice");
    let ser = infer(&bundle, &shape, &profiler, &mk(false)).expect("choice");
    assert_eq!(par.config, ser.config);
    assert_eq!(
        par.predicted_gflops.to_bits(),
        ser.predicted_gflops.to_bits()
    );
    assert_eq!(par.tflops.to_bits(), ser.tflops.to_bits());
    assert_eq!(par.time_s.to_bits(), ser.time_s.to_bits());
}

#[test]
fn tighter_cascades_still_respect_the_floor() {
    // Even an aggressive keep fraction must keep at least min_keep (and
    // top_k) candidates, so tiny legal sets are never over-pruned.
    let bundle = random_bundle(isaac::core::features::GEMM_FEATURES, 3);
    let profiler = Profiler::new(tesla_p100(), 11);
    let shape = KeyShape::Gemm(GemmShape::new(2560, 16, 2560, "N", "N", DType::F32));
    let opts = InferOptions {
        top_k: 10,
        log_features: true,
        parallel: false,
        cascade: Some(CascadeConfig {
            keep_frac: 1e-6,
            min_keep: 4096,
        }),
    };
    let choice = infer(&bundle, &shape, &profiler, &opts);
    assert!(choice.is_some(), "floor-clamped cascade must still tune");
}

#[test]
fn tuner_with_cascade_matches_tuner_without() {
    let opts = |cascade| TrainOptions {
        samples: 1_500,
        hidden: vec![24, 24],
        epochs: 3,
        cascade,
        ..Default::default()
    };
    let plain = IsaacTuner::train(tesla_p100(), OpKind::Gemm, opts(None));
    let cascaded = IsaacTuner::train(
        tesla_p100(),
        OpKind::Gemm,
        opts(Some(CascadeConfig::default())),
    );
    for shape in &bench_shapes() {
        let a = plain.tune_gemm(shape).expect("choice");
        let b = cascaded.tune_gemm(shape).expect("choice");
        assert_eq!(
            a,
            b,
            "{}: cascade changed the cached decision",
            shape.name()
        );
    }
}
