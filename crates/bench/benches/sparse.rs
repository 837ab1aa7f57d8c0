//! Sparse-family benchmark: tuning queries per second over the
//! structure-keyed sparse op family (SpMV / SpTRSV / SymGS).
//!
//! Mirrors `benches/inference.rs` for the sparse subsystem:
//!
//! * **cold serial** -- `infer` with `parallel: false`, the
//!   single-thread engine;
//! * **cold parallel** -- `infer` with `parallel: true`: the full
//!   fan-out over the sparse tuning space;
//! * **cold cascade** -- `infer` with the coarse-to-fine cascade, plus
//!   a quality guard: the cascaded choice must match the
//!   exhaustive path on every matrix in the mix
//!   (`sparse_choice_matches_exhaustive`, gated `>= 1` in CI);
//! * **cached** -- repeated `IsaacTuner::tune_sparse` hits against the
//!   shape-keyed tune cache (`sparse_cached_hit_ns`, guarded against
//!   the committed baseline);
//! * **execute** -- the reference CSR SpMV kernel itself, for scale.
//!
//! Results are printed as a table and written to `BENCH_sparse.json` at
//! the workspace root. Honours `ISAAC_SAMPLES`/`ISAAC_EPOCHS` for tuner
//! training size and `RAYON_NUM_THREADS` for the fan-out width.

use criterion::{criterion_group, criterion_main, Criterion};
use isaac_bench::harness::env_usize;
use isaac_bench::report::{bench_json_path, write_json, Table};
use isaac_core::{
    infer, sparse_csr, sparse_kernels, sparse_space_size, CascadeConfig, Csr, InferOptions,
    IsaacTuner, KeyShape, OpKind, SparseOp, SparseShape, TrainOptions,
};
use isaac_device::specs::tesla_p100;
use isaac_device::{DType, Profiler};
use isaac_mlp::io::ModelBundle;
use isaac_mlp::{Mlp, Standardizer};
use std::hint::black_box;
use std::time::Instant;

/// Matrix mix spanning the structure regimes the features key on:
/// banded (stencil), uniform random, power-law (graph), and blocked
/// (FEM) -- each paired with the sparse op its structure motivates.
fn query_matrices() -> Vec<(&'static str, SparseOp, Csr)> {
    vec![
        ("banded", SparseOp::Sptrsv, sparse_csr::banded(4096, 5, 7)),
        (
            "uniform",
            SparseOp::Spmv,
            sparse_csr::random_uniform(2048, 16, 21),
        ),
        (
            "power-law",
            SparseOp::Spmv,
            sparse_csr::power_law(2048, 12, 9),
        ),
        (
            "blocked",
            SparseOp::Symgs,
            sparse_csr::blocked(2048, 8, 4, 17),
        ),
    ]
}

/// Random-weight bundle over the sparse feature set: query-path cost is
/// independent of model quality, so the cold-path benchmark skips
/// training.
fn random_bundle() -> ModelBundle {
    let nfeat = isaac_core::features::SPARSE_FEATURES;
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

fn sparse_throughput(c: &mut Criterion) {
    let bundle = random_bundle();
    let profiler = Profiler::new(tesla_p100(), 0x15AAC);
    let matrices = query_matrices();
    let shapes: Vec<SparseShape> = matrices
        .iter()
        .map(|(_, op, a)| SparseShape::from_csr(*op, a, DType::F32))
        .collect();
    let keys: Vec<KeyShape> = shapes.iter().map(|s| KeyShape::Sparse(*s)).collect();
    let top_k = 50;
    let opts = |parallel, cascade| InferOptions {
        top_k,
        log_features: true,
        parallel,
        cascade,
    };
    let (serial_opts, parallel_opts) = (opts(false, None), opts(true, None));
    let cascade_opts = opts(true, Some(CascadeConfig::default()));
    let cold_s = |opts: &InferOptions| {
        keys.iter()
            .map(|s| {
                secs_per_query(|| {
                    black_box(infer(&bundle, s, &profiler, opts));
                })
            })
            .sum::<f64>()
            / keys.len() as f64
    };

    // Cold path: serial reference vs. parallel engine, averaged over the
    // matrix mix.
    let cold_serial = cold_s(&serial_opts);
    let cold_parallel = cold_s(&parallel_opts);

    // Cascade quality guard: the cascaded choice must agree with the
    // exhaustive sweep on every matrix in the mix. CI gates the match
    // count at >= 1; the goal is all of them.
    let choice_matches = keys
        .iter()
        .filter(|s| {
            infer(&bundle, s, &profiler, &parallel_opts)
                == infer(&bundle, s, &profiler, &cascade_opts)
        })
        .count();
    let cold_cascade = cold_s(&cascade_opts);

    // Cached path: a trained sparse tuner serving repeat queries for a
    // structure it has already decided.
    let tuner = IsaacTuner::train(
        tesla_p100(),
        OpKind::Sparse,
        TrainOptions {
            samples: env_usize("ISAAC_SAMPLES", 4_000),
            epochs: env_usize("ISAAC_EPOCHS", 4),
            hidden: vec![32, 32],
            ..Default::default()
        },
    );
    for s in &shapes {
        tuner.tune_sparse(s); // populate the cache
    }
    let shape = shapes[0];
    let cached = {
        let start = Instant::now();
        let reps = 200_000u32;
        for _ in 0..reps {
            black_box(tuner.tune_sparse(black_box(&shape)));
        }
        start.elapsed().as_secs_f64() / f64::from(reps)
    };
    let stats = tuner.cache_stats();
    let threads = rayon::current_num_threads();

    // Execution scale: the reference CSR SpMV on the uniform matrix, so
    // the tuning-decision cost above can be read against the work it
    // fronts.
    let (_, _, spmv_matrix) = &matrices[1];
    let x = vec![1.0f32; spmv_matrix.rows];
    let spmv_s = secs_per_query(|| {
        black_box(sparse_kernels::spmv(black_box(spmv_matrix), black_box(&x)));
    });
    let total_nnz: usize = matrices.iter().map(|(_, _, a)| a.nnz()).sum();

    let mut table = Table::new(
        "tuning queries/sec (sparse, P100 model)",
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
        format!("cold cascade (match {choice_matches}/{})", shapes.len()),
        format!("{cold_cascade:.4}"),
        format!("{:.2}", 1.0 / cold_cascade),
        format!("{:.2}x", cold_parallel / cold_cascade),
    ]);
    table.row(vec![
        "cached".into(),
        format!("{cached:.9}"),
        format!("{:.0}", 1.0 / cached),
        format!("{:.0}x", cold_parallel / cached),
    ]);
    table.row(vec![
        "execute spmv (uniform)".into(),
        format!("{spmv_s:.6}"),
        format!("{:.0}", 1.0 / spmv_s),
        "-".into(),
    ]);
    table.print();

    let json = bench_json_path("BENCH_sparse.json");
    write_json(
        &json,
        &[
            ("threads", threads.to_string()),
            ("sparse_matrices", shapes.len().to_string()),
            ("sparse_space_points", sparse_space_size().to_string()),
            ("sparse_total_nnz", total_nnz.to_string()),
            ("top_k", top_k.to_string()),
            (
                "sparse_cold_serial_s_per_query",
                format!("{cold_serial:.6}"),
            ),
            ("sparse_cold_s_per_query", format!("{cold_parallel:.6}")),
            (
                "sparse_parallel_speedup",
                format!("{:.3}", cold_serial / cold_parallel),
            ),
            (
                "sparse_cold_cascade_s_per_query",
                format!("{cold_cascade:.6}"),
            ),
            (
                "sparse_choice_matches_exhaustive",
                choice_matches.to_string(),
            ),
            ("sparse_cached_hit_ns", format!("{:.1}", cached * 1e9)),
            (
                "sparse_cached_speedup_vs_cold",
                format!("{:.1}", cold_parallel / cached),
            ),
            ("sparse_cache_hits", stats.hits.to_string()),
            ("sparse_cache_misses", stats.misses.to_string()),
            ("sparse_spmv_s", format!("{spmv_s:.9}")),
        ],
    );
    println!(
        "wrote {} (cascade match {}/{}, cached {:.0}x over cold)",
        json.display(),
        choice_matches,
        shapes.len(),
        cold_parallel / cached
    );

    // Criterion entry so `cargo bench sparse` shows a standard line.
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    group.bench_function("cached_tune_sparse", |b| {
        b.iter(|| black_box(tuner.tune_sparse(black_box(&shape))))
    });
    group.finish();
}

criterion_group!(benches, sparse_throughput);
criterion_main!(benches);
