//! Serving-path benchmark: tuning queries per second, cold vs. cached.
//!
//! Measures the three tiers of the query engine introduced by the
//! parallel-inference PR:
//!
//! * **cold serial** -- the engine with the rayon fan-out disabled
//!   (`infer` with `parallel: false`), the pre-parallelism baseline;
//! * **cold parallel** -- the full engine (`infer` with `parallel:
//!   true`): chunked legality + in-place features + batched MLP across
//!   all cores;
//! * **cached** -- repeated `IsaacTuner::tune_shape` hits against the
//!   shape-keyed tune cache.
//!
//! Results are printed as a table and written to `BENCH_inference.json`
//! at the workspace root so successive PRs can track the serving-path
//! trajectory. Honours `ISAAC_SAMPLES`/`ISAAC_EPOCHS` for tuner training
//! size and `RAYON_NUM_THREADS` for the fan-out width.

use criterion::{criterion_group, criterion_main, Criterion};
use isaac_bench::harness::env_usize;
use isaac_bench::report::{bench_json_path, write_json, Table};
use isaac_core::inference::{infer, infer_staged, StageBreakdown};
use isaac_core::{
    engine_stats, CascadeConfig, InferOptions, IsaacTuner, KeyShape, OpKind, TrainOptions,
};
use isaac_device::specs::tesla_p100;
use isaac_device::{DType, Profiler};
use isaac_gen::shapes::GemmShape;
use isaac_mlp::io::ModelBundle;
use isaac_mlp::{Mlp, Standardizer};
use std::hint::black_box;
use std::time::Instant;

/// Query mix: square (LINPACK), skinny (DeepBench RNN), deep-reduction
/// (ICA covariance) -- the paper's three GEMM regimes.
fn query_shapes() -> Vec<KeyShape> {
    vec![
        KeyShape::Gemm(GemmShape::new(1024, 1024, 1024, "N", "T", DType::F32)),
        KeyShape::Gemm(GemmShape::new(2560, 16, 2560, "N", "N", DType::F32)),
        KeyShape::Gemm(GemmShape::new(32, 32, 60000, "T", "N", DType::F32)),
    ]
}

/// Random-weight bundle: query-path cost is independent of model quality,
/// so the cold-path benchmark skips training.
fn random_bundle() -> ModelBundle {
    let nfeat = isaac_core::features::GEMM_FEATURES;
    ModelBundle {
        mlp: Mlp::with_hidden(nfeat, &[64, 128, 64], 7),
        standardizer: Standardizer {
            mean: vec![0.5; nfeat],
            std: vec![2.0; nfeat],
        },
        y_mean: 4.0,
        y_std: 0.8,
    }
}

fn secs_per_query(mut run: impl FnMut()) -> f64 {
    // One warmup, then enough reps to spend ~1s or at least 3 reps.
    run();
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < 3 || (start.elapsed().as_secs_f64() < 1.0 && reps < 1000) {
        run();
        reps += 1;
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn inference_throughput(c: &mut Criterion) {
    let bundle = random_bundle();
    let profiler = Profiler::new(tesla_p100(), 0x15AAC);
    let shapes = query_shapes();
    let top_k = 50;
    let opts = |parallel, cascade| InferOptions {
        top_k,
        log_features: true,
        parallel,
        cascade,
    };
    let (serial_opts, parallel_opts) = (opts(false, None), opts(true, None));
    // Coarse-to-fine cascade (the TrainOptions default).
    let cascade_opts = opts(true, Some(CascadeConfig::default()));
    let cold_s = |opts: &InferOptions| {
        shapes
            .iter()
            .map(|s| {
                secs_per_query(|| {
                    black_box(infer(&bundle, s, &profiler, opts));
                })
            })
            .sum::<f64>()
            / shapes.len() as f64
    };

    // Cold path: serial reference vs. parallel engine, averaged over the
    // query mix.
    let cold_serial = cold_s(&serial_opts);
    let cold_parallel = cold_s(&parallel_opts);

    // Stage breakdown of the serial cold path, averaged over the mix:
    // where does cold-tune time go? (Same arithmetic as `cold serial`.)
    let mut stages = StageBreakdown::default();
    for s in &shapes {
        let (_, bd) = infer_staged(&bundle, s, &profiler, top_k, true);
        stages.legality_s += bd.legality_s;
        stages.features_s += bd.features_s;
        stages.predict_s += bd.predict_s;
        stages.topk_s += bd.topk_s;
        stages.rebench_s += bd.rebench_s;
        stages.scored_full += bd.scored_full;
    }
    stages.legality_s /= shapes.len() as f64;
    stages.features_s /= shapes.len() as f64;
    stages.predict_s /= shapes.len() as f64;
    stages.topk_s /= shapes.len() as f64;
    stages.rebench_s /= shapes.len() as f64;
    // Per-query average (sum over the mix divided once, no per-term
    // truncation).
    stages.scored_full /= shapes.len() as u64;

    // Cascade: cold latency with the cheap pass pruning the candidate
    // set, plus the quality guard -- the final re-benchmarked choice
    // must match the exhaustive path on every shape in the mix.
    let cascade_matches = shapes.iter().all(|s| {
        infer(&bundle, s, &profiler, &parallel_opts) == infer(&bundle, s, &profiler, &cascade_opts)
    });
    let cold_cascade = cold_s(&cascade_opts);

    // Cached path: a trained tuner serving repeat queries.
    let tuner = IsaacTuner::train(
        tesla_p100(),
        OpKind::Gemm,
        TrainOptions {
            samples: env_usize("ISAAC_SAMPLES", 4_000),
            epochs: env_usize("ISAAC_EPOCHS", 4),
            hidden: vec![32, 32],
            ..Default::default()
        },
    );
    for s in &shapes {
        tuner.tune_shape(s); // populate the cache
    }
    let shape = shapes[0];
    let cached = {
        let start = Instant::now();
        let reps = 200_000u32;
        for _ in 0..reps {
            black_box(tuner.tune_shape(black_box(&shape)));
        }
        start.elapsed().as_secs_f64() / f64::from(reps)
    };
    let stats = tuner.cache_stats();
    let engine = engine_stats();
    let threads = rayon::current_num_threads();

    let mut table = Table::new(
        "tuning queries/sec (GEMM, P100 model)",
        &["path", "s/query", "queries/s", "speedup"],
    );
    table.row(vec![
        "cold serial".into(),
        format!("{cold_serial:.4}"),
        format!("{:.2}", 1.0 / cold_serial),
        "1.00x".into(),
    ]);
    table.row(vec![
        format!("cold parallel ({threads} threads)"),
        format!("{cold_parallel:.4}"),
        format!("{:.2}", 1.0 / cold_parallel),
        format!("{:.2}x", cold_serial / cold_parallel),
    ]);
    table.row(vec![
        format!("cold cascade (match={cascade_matches})"),
        format!("{cold_cascade:.4}"),
        format!("{:.2}", 1.0 / cold_cascade),
        // vs. cold *parallel*: both run the fan-out, so the ratio
        // isolates what the cheap-pass pruning buys.
        format!("{:.2}x", cold_parallel / cold_cascade),
    ]);
    table.row(vec![
        "cached".into(),
        format!("{cached:.9}"),
        format!("{:.0}", 1.0 / cached),
        format!("{:.0}x", cold_parallel / cached),
    ]);
    table.print();

    let mut stage_table = Table::new(
        "cold-tune stage breakdown (serial, avg over mix)",
        &["stage", "s/query", "share"],
    );
    for (name, s) in [
        ("legality", stages.legality_s),
        ("features", stages.features_s),
        ("predict", stages.predict_s),
        ("topk", stages.topk_s),
        ("rebench", stages.rebench_s),
    ] {
        stage_table.row(vec![
            name.into(),
            format!("{s:.4}"),
            format!("{:.1}%", 100.0 * s / stages.total_s()),
        ]);
    }
    stage_table.print();

    let json = bench_json_path("BENCH_inference.json");
    write_json(
        &json,
        &[
            ("threads", threads.to_string()),
            ("query_shapes", shapes.len().to_string()),
            ("top_k", top_k.to_string()),
            ("cold_serial_s_per_query", format!("{cold_serial:.6}")),
            ("cold_parallel_s_per_query", format!("{cold_parallel:.6}")),
            (
                "parallel_speedup",
                format!("{:.3}", cold_serial / cold_parallel),
            ),
            ("cold_cascade_s_per_query", format!("{cold_cascade:.6}")),
            (
                "cascade_speedup",
                format!("{:.3}", cold_parallel / cold_cascade),
            ),
            (
                "cascade_choice_matches",
                format!("{}", u8::from(cascade_matches)),
            ),
            ("legality_s", format!("{:.6}", stages.legality_s)),
            ("features_s", format!("{:.6}", stages.features_s)),
            ("predict_s", format!("{:.6}", stages.predict_s)),
            ("topk_s", format!("{:.6}", stages.topk_s)),
            ("rebench_s", format!("{:.6}", stages.rebench_s)),
            ("scored_full", stages.scored_full.to_string()),
            ("cached_s_per_query", format!("{cached:.9}")),
            (
                "cached_speedup_vs_cold",
                format!("{:.1}", cold_parallel / cached),
            ),
            ("cache_hits", stats.hits.to_string()),
            ("cache_misses", stats.misses.to_string()),
            (
                "engine_scratches_created",
                engine.scratches_created.to_string(),
            ),
            ("engine_buffer_growths", engine.buffer_growths.to_string()),
        ],
    );
    println!(
        "wrote {} (parallel speedup {:.2}x, cached {:.0}x over cold)",
        json.display(),
        cold_serial / cold_parallel,
        cold_parallel / cached
    );

    // Criterion entry so `cargo bench inference` shows a standard line.
    let mut group = c.benchmark_group("inference");
    group.sample_size(10);
    group.bench_function("cached_tune_gemm", |b| {
        b.iter(|| black_box(tuner.tune_shape(black_box(&shape))))
    });
    group.finish();
}

criterion_group!(benches, inference_throughput);
criterion_main!(benches);
