//! The paper's headline claims, as executable assertions on the
//! reproduction (qualitative shape, not absolute numbers -- the paper
//! benches in `crates/bench` print the quantitative comparison).

use isaac::prelude::*;
use std::sync::OnceLock;

/// One shared, moderately trained P100 GEMM tuner for all claims.
fn tuner() -> &'static std::sync::Mutex<IsaacTuner> {
    static TUNER: OnceLock<std::sync::Mutex<IsaacTuner>> = OnceLock::new();
    TUNER.get_or_init(|| {
        std::sync::Mutex::new(IsaacTuner::train(
            tesla_p100(),
            OpKind::Gemm,
            TrainOptions {
                samples: 8_000,
                hidden: vec![48, 64, 48],
                epochs: 8,
                dtypes: vec![DType::F16, DType::F32],
                ..Default::default()
            },
        ))
    })
}

#[test]
fn claim_deepbench_skinny_speedup() {
    // Section 7.3: "80% speed-ups on DeepBench for N = 16".
    let shape = GemmShape::new(2560, 16, 2560, "N", "N", DType::F32);
    let isaac = tuner().lock().unwrap().tune_gemm(&shape).expect("tunes");
    let cublas = CublasLike::new(tesla_p100());
    let heur = cublas.heuristic_gemm(&shape).expect("selects");
    let speedup = isaac.tflops / heur.measurement.tflops;
    assert!(
        speedup > 1.3,
        "ISAAC should clearly beat cuBLAS heuristics on skinny N, got {speedup:.2}x"
    );
}

#[test]
fn claim_square_parity() {
    // Section 7.3.2: on the P100, ISAAC and cuBLAS reach comparable
    // efficiency for large square matrices.
    let shape = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32);
    let isaac = tuner().lock().unwrap().tune_gemm(&shape).expect("tunes");
    let cublas = CublasLike::new(tesla_p100());
    let best = cublas.best_kernel_gemm(&shape).expect("selects");
    let ratio = isaac.tflops / best.measurement.tflops;
    assert!(
        (0.85..=1.35).contains(&ratio),
        "square-matrix parity violated: ISAAC/cuBLAS = {ratio:.2}"
    );
}

#[test]
fn claim_ica_order_of_magnitude() {
    // Section 7.3.1: cuBLAS heuristics mis-select on ICA shapes,
    // "resulting in drastic slow-downs (over an order of magnitude)".
    let shape = GemmShape::new(32, 32, 60000, "N", "T", DType::F32);
    let isaac = tuner().lock().unwrap().tune_gemm(&shape).expect("tunes");
    let cublas = CublasLike::new(tesla_p100());
    let heur = cublas.heuristic_gemm(&shape).expect("selects");
    let speedup = isaac.tflops / heur.measurement.tflops;
    assert!(
        speedup > 5.0,
        "deep-K mis-selection should cost several x, got {speedup:.2}x"
    );
}

#[test]
fn claim_fp16_deepbench_multiple() {
    // Section 7.3.2: fp16x2 across the whole input space gives 2.5-3x
    // over cuBLAS on DeepBench, whose fp16x2 kernels are square-only.
    let shape = GemmShape::new(2560, 16, 2560, "N", "N", DType::F16);
    let isaac = tuner().lock().unwrap().tune_gemm(&shape).expect("tunes");
    let cublas = CublasLike::new(tesla_p100());
    let heur = cublas.heuristic_gemm(&shape).expect("selects");
    let speedup = isaac.tflops / heur.measurement.tflops;
    assert!(
        speedup > 1.8,
        "fp16 skinny DeepBench should be a multiple, got {speedup:.2}x"
    );
}

#[test]
fn claim_bounds_check_ablation() {
    // Section 8.3: CUDA-style bounds checking costs 15-20%; predication
    // reduced the overhead to ~2%.
    use isaac::device::simulate;
    use isaac::gen::profile::gemm_profile;
    let spec = tesla_p100();
    let shape = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32);
    let run = |mode: BoundsMode| {
        let cfg = GemmConfig {
            bounds: mode,
            ..Default::default()
        };
        simulate(&spec, &gemm_profile(&cfg, &shape, &spec).unwrap())
            .unwrap()
            .tflops
    };
    let ptx = run(BoundsMode::PtxPredicated);
    let cuda = run(BoundsMode::CudaStyle);
    let loss = 1.0 - cuda / ptx;
    assert!(
        (0.05..=0.30).contains(&loss),
        "CUDA-style loss should be double-digit percent, got {:.1}%",
        100.0 * loss
    );
}

#[test]
fn claim_inference_latency_subsecond_scale() {
    // Section 6: runtime inference costs seconds, not the hours of
    // hardware-exhaustive search.
    let shape = GemmShape::new(1024, 1024, 1024, "N", "T", DType::F32);
    let t0 = std::time::Instant::now();
    let choice = tuner().lock().unwrap().tune_gemm(&shape);
    let dt = t0.elapsed();
    assert!(choice.is_some());
    assert!(
        dt.as_secs() < 30,
        "inference took {dt:?}, should be seconds at most"
    );
}

#[test]
fn claim_model_predictions_correlate_with_measurements() {
    // The regression model must rank kernels usefully: across a random
    // sample of legal configs, predicted and simulated log-performance
    // should correlate strongly.
    use isaac::core::enumerate_legal_gemm;
    use isaac::core::features::gemm_features;
    use isaac::device::Profiler;
    use isaac::gen::profile::gemm_profile;
    let spec = tesla_p100();
    let shape = GemmShape::new(2560, 64, 2560, "N", "N", DType::F32);
    let guard = tuner().lock().unwrap();
    let profiler = Profiler::noiseless(spec.clone());
    let legal = enumerate_legal_gemm(&shape, &spec);
    let step = (legal.len() / 200).max(1);
    let mut pred = Vec::new();
    let mut meas = Vec::new();
    for cfg in legal.iter().step_by(step) {
        let Ok(p) = gemm_profile(cfg, &shape, &spec) else {
            continue;
        };
        let Ok(m) = profiler.measure(&p) else {
            continue;
        };
        pred.push(guard.model().predict(&gemm_features(&shape, cfg, true)));
        meas.push((m.tflops * 1e3).max(1e-9).ln() as f32);
    }
    let n = pred.len() as f32;
    assert!(n > 50.0, "need a usable sample, got {n}");
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    let (mp, mm) = (mean(&pred), mean(&meas));
    let cov: f32 = pred
        .iter()
        .zip(&meas)
        .map(|(a, b)| (a - mp) * (b - mm))
        .sum();
    let vp: f32 = pred.iter().map(|a| (a - mp) * (a - mp)).sum();
    let vm: f32 = meas.iter().map(|b| (b - mm) * (b - mm)).sum();
    let r = cov / (vp.sqrt() * vm.sqrt() + 1e-12);
    assert!(
        r > 0.8,
        "model should rank kernels well; correlation = {r:.3}"
    );
}
