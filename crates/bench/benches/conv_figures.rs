//! Figures 9, 10 and 11: CONV performance on the Table 5 workloads.
//!
//! * Figure 9 -- SCONV on the GTX 980 Ti: ISAAC vs cuDNN.
//! * Figure 10 -- SCONV on the Tesla P100.
//! * Figure 11 -- HCONV on the Tesla P100.
//!
//! The printed series mirror the paper's bar charts (one row per Conv1-14
//! task); the Criterion measurement covers CONV runtime inference's model
//! evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use isaac_baselines::CudnnLike;
use isaac_bench::harness::cached_tuner;
use isaac_bench::report::{fmt_speedup, fmt_tflops, Table};
use isaac_bench::workloads::table5;
use isaac_core::enumerate_legal_conv;
use isaac_core::features::conv_features;
use isaac_core::OpKind;
use isaac_device::specs::{gtx980ti, tesla_p100};
use isaac_device::{DType, DeviceSpec};
use std::hint::black_box;

fn run_conv_figure(title: &str, spec: &DeviceSpec, dtype: DType, dtypes: &[DType]) {
    let tuner = cached_tuner(spec, OpKind::Conv, dtypes);
    let cudnn = CudnnLike::new(spec.clone());
    let mut table = Table::new(
        title,
        &["task", "app", "NPQ", "CRS", "ISAAC", "cuDNN", "speedup"],
    );
    for task in table5(dtype) {
        let isaac = tuner.tune_conv(&task.shape);
        let base = cudnn.heuristic_conv(&task.shape);
        let i_tf = isaac.as_ref().map_or(0.0, |c| c.tflops);
        let b_tf = base.as_ref().map_or(0.0, |c| c.measurement.tflops);
        table.row(vec![
            task.name.to_string(),
            task.app.to_string(),
            task.shape.npq().to_string(),
            task.shape.crs().to_string(),
            fmt_tflops(i_tf),
            fmt_tflops(b_tf),
            if b_tf > 0.0 {
                fmt_speedup(i_tf / b_tf)
            } else {
                "-".into()
            },
        ]);
    }
    table.print();
}

fn figure9(c: &mut Criterion) {
    run_conv_figure(
        "Figure 9: SCONV performance on the GTX 980 TI (TFLOPS)",
        &gtx980ti(),
        DType::F32,
        &[DType::F32],
    );
    let _ = c;
}

fn figure10(c: &mut Criterion) {
    run_conv_figure(
        "Figure 10: SCONV performance on the Tesla P100 (TFLOPS)",
        &tesla_p100(),
        DType::F32,
        &[DType::F32, DType::F16],
    );
    bench_conv_model_eval(c);
}

fn figure11(c: &mut Criterion) {
    run_conv_figure(
        "Figure 11: HCONV performance on the Tesla P100 (TFLOPS)",
        &tesla_p100(),
        DType::F16,
        &[DType::F32, DType::F16],
    );
    let _ = c;
}

fn bench_conv_model_eval(c: &mut Criterion) {
    let spec = tesla_p100();
    let tuner = cached_tuner(&spec, OpKind::Conv, &[DType::F32, DType::F16]);
    // Conv5: a mid-size face-recognition layer.
    let shape = isaac_gen::shapes::ConvShape::from_output(8, 54, 54, 64, 64, 3, 3, DType::F32);
    let candidates = enumerate_legal_conv(&shape, &spec);
    let rows: Vec<Vec<f32>> = candidates
        .iter()
        .map(|cfg| conv_features(&shape, cfg, true))
        .collect();
    let mut group = c.benchmark_group("figure10");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(rows.len() as u64));
    group.bench_function("conv_model_eval_per_config", |b| {
        b.iter(|| black_box(tuner.model().predict_batch(black_box(&rows))));
    });
    group.finish();
}

criterion_group!(benches, figure9, figure10, figure11);
criterion_main!(benches);
