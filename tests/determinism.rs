//! Reproducibility: the entire pipeline -- sampling, simulated
//! benchmarking, MLP training, runtime inference -- is seeded, so two
//! training runs with identical options must make identical decisions.
//! This is what makes every number the benches and `benchmark/` print
//! regenerable.

use isaac::prelude::*;

fn opts() -> TrainOptions {
    TrainOptions {
        samples: 3_000,
        hidden: vec![32, 32],
        epochs: 5,
        ..Default::default()
    }
}

#[test]
fn training_is_deterministic() {
    let a = IsaacTuner::train(tesla_p100(), OpKind::Gemm, opts());
    let b = IsaacTuner::train(tesla_p100(), OpKind::Gemm, opts());
    assert_eq!(a.validation_mse, b.validation_mse);
}

#[test]
fn tuning_decisions_are_deterministic() {
    let shapes = [
        GemmShape::new(2560, 16, 2560, "N", "N", DType::F32),
        GemmShape::new(512, 512, 512, "N", "T", DType::F32),
        GemmShape::new(32, 32, 60000, "N", "T", DType::F32),
    ];
    let a = IsaacTuner::train(tesla_p100(), OpKind::Gemm, opts());
    let b = IsaacTuner::train(tesla_p100(), OpKind::Gemm, opts());
    for s in &shapes {
        let ca = a.tune_gemm(s).expect("a tunes");
        let cb = b.tune_gemm(s).expect("b tunes");
        assert_eq!(ca.config, cb.config, "shape {}", s.name());
        assert_eq!(ca.tflops, cb.tflops);
    }
}

#[test]
fn different_seeds_change_the_model_not_the_physics() {
    let a = IsaacTuner::train(tesla_p100(), OpKind::Gemm, opts());
    let b = IsaacTuner::train(
        tesla_p100(),
        OpKind::Gemm,
        TrainOptions {
            seed: 1234,
            ..opts()
        },
    );
    // Models differ...
    assert_ne!(a.validation_mse, b.validation_mse);
    // ...but both must land on *good* kernels for an easy shape: within
    // 25% of each other on a square problem.
    let s = GemmShape::new(1024, 1024, 1024, "N", "T", DType::F32);
    let ca = a.tune_gemm(&s).unwrap();
    let cb = b.tune_gemm(&s).unwrap();
    let ratio = ca.tflops / cb.tflops;
    assert!(
        (0.75..=1.33).contains(&ratio),
        "seed changed outcome too much: {ratio:.2}"
    );
}

#[test]
fn simulator_is_pure() {
    use isaac::device::{simulate, Profiler};
    use isaac::gen::profile::gemm_profile;
    let spec = tesla_p100();
    let shape = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32);
    let p = gemm_profile(&GemmConfig::default(), &shape, &spec).unwrap();
    let r1 = simulate(&spec, &p).unwrap();
    let r2 = simulate(&spec, &p).unwrap();
    assert_eq!(r1, r2);
    // Noisy measurements are seeded: same profiler, same kernel, same rep
    // index -> same value.
    let prof = Profiler::new(spec, 42);
    assert_eq!(
        prof.measure_rep(&p, 3).unwrap().time_s,
        prof.measure_rep(&p, 3).unwrap().time_s
    );
}
