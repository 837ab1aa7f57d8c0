//! The probe pass of a traced run: a fresh process that calls each
//! layer's public functions directly on the workload's own inputs and
//! times them, one span per call group. Layer = module of the
//! repository; the names written here are the `per_layer` metric names.

use crate::fleet::{train_options, WORKERS};
use crate::inputs::{conv_bases, gemm_bases, generate, Inputs, Workload};
use crate::oracle::spec_of;
use crate::round::RoundResult;
use crate::stats::median;
use crate::sys::pin_to_current_cpu;
use crate::trace::Tracer;
use isaac_core::durability::{
    decode_wal, encode_record, CacheJournal, StdIo, WalRecord, WalWriter,
};
use isaac_core::{
    engine_stats, enumerate_legal_conv, enumerate_legal_gemm, generate_gemm_dataset,
    infer_conv_staged, infer_gemm_staged, sparse_csr, sparse_kernels, sparse_space_size,
    DatasetOptions, IsaacTuner, KeyShape, OpKind, SparseOp, SparseShape, StageBreakdown, TuneCache,
    TuneKey, TunedChoice,
};
use isaac_device::DType;
use isaac_gen::profile::gemm_profile;
use isaac_mlp::{Mat, Mlp, ScratchSpace, TrainConfig};
use isaac_serve::{Query, TuneService};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DENSE_PROBE_KEYS: usize = 6;
const SPARSE_PROBE_KEYS: usize = 16;

struct Probe {
    tracer: Tracer,
    out: BTreeMap<String, f64>,
}

impl Probe {
    /// Run `f` as one span named after the metric group; returns `f`'s
    /// value and the seconds it took.
    fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.tracer.begin(name, None, 0);
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        self.tracer.end(id);
        (r, s)
    }

    fn put(&mut self, name: &str, v: f64) {
        self.out.insert(name.to_string(), v);
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The workload's own keys of one family on device 0, padded from the
/// paper tables (or seeded summaries) when the workload has too few.
fn probe_keys(inputs: &Inputs, op: OpKind, want: usize) -> Vec<KeyShape> {
    let mut keys: Vec<KeyShape> = inputs
        .keys
        .iter()
        .filter(|q| q.device == 0 && q.op() == op)
        .map(|q| q.shape)
        .take(want)
        .collect();
    if keys.len() == want {
        return keys;
    }
    let pad: Vec<KeyShape> = match op {
        OpKind::Gemm => gemm_bases().into_iter().map(KeyShape::Gemm).collect(),
        OpKind::Conv => conv_bases().into_iter().map(KeyShape::Conv).collect(),
        OpKind::Sparse => generate(Workload::ChurnDurable, 1802, 1)
            .keys
            .iter()
            .map(|q| q.shape)
            .collect(),
    };
    for shape in pad {
        if keys.len() < want && !keys.contains(&shape) {
            keys.push(shape);
        }
    }
    assert_eq!(keys.len(), want, "enough filler shapes for {op}");
    keys
}

fn dummy_choice(i: usize) -> TunedChoice {
    TunedChoice {
        config: isaac_gen::GemmConfig::default(),
        predicted_gflops: 100.0 + i as f64,
        tflops: 1.0 + i as f64 * 1e-3,
        time_s: 1e-3 / (1.0 + i as f64),
    }
}

/// Distinct sparse cache keys for the cache / WAL probes.
fn cache_keys(n: usize) -> Vec<TuneKey> {
    (0..n)
        .map(|i| {
            TuneKey::sparse(&SparseShape {
                op: SparseOp::Spmv,
                rows: 1_000 + i as u32,
                nnz: 10_000,
                row_mean_milli: 10_000,
                row_cv_milli: 250,
                row_max: 20,
                bandwidth: 300,
                block_density_milli: 400,
                dtype: DType::F32,
            })
        })
        .collect()
}

fn probe_gen_and_device(p: &mut Probe, gemm: &[KeyShape], conv: &[KeyShape]) {
    // First use in this process: the lazy tables are built here.
    let (_, build_s) = p.timed("gen.space_table_build", || {
        black_box(isaac_gen::legality::space_table().len());
        black_box(isaac_gen::legality::space_feature_table(true).len());
    });
    p.put("gen.space_table_build_s", build_s);

    let spec = spec_of(0);
    let space = isaac_gen::legality::space_size() as f64;
    let (fracs, _) = p.timed("gen.enumerate_legal", || {
        let g: Vec<f64> = gemm
            .iter()
            .map(|k| match k {
                KeyShape::Gemm(s) => enumerate_legal_gemm(s, &spec).len() as f64,
                _ => 0.0,
            })
            .collect();
        let c: Vec<f64> = conv
            .iter()
            .map(|k| match k {
                KeyShape::Conv(s) => enumerate_legal_conv(s, &spec).len() as f64,
                _ => 0.0,
            })
            .collect();
        (g, c)
    });
    p.put("gen.legal_frac_gemm", mean(&fracs.0) / space);
    p.put("gen.legal_frac_conv", mean(&fracs.1) / space);
    p.put(
        "inference.legal_points",
        mean(&fracs.0.iter().chain(&fracs.1).copied().collect::<Vec<_>>()),
    );

    // One best-of-3 measurement of a legal kernel on the device model.
    let KeyShape::Gemm(shape) = gemm[0] else {
        unreachable!("gemm probe keys are GEMM shapes")
    };
    let profiler = isaac_device::Profiler::new(spec.clone(), 7);
    let profiles: Vec<_> = enumerate_legal_gemm(&shape, &spec)
        .iter()
        .step_by(97)
        .take(512)
        .filter_map(|cfg| gemm_profile(cfg, &shape, &spec).ok())
        .collect();
    let (_, s) = p.timed("device.measure", || {
        for profile in &profiles {
            black_box(profiler.measure_best_of(profile, 3).ok());
        }
    });
    p.put("device.measure_s", s / profiles.len().max(1) as f64);
}

fn probe_mlp_and_train(p: &mut Probe, gemm_tuner: &IsaacTuner) {
    // The micro-kernel at the engine's chunk shape: 4096 rows through a
    // 64 -> 128 layer.
    let (m, n, k) = (4096, 128, 64);
    let a = Mat::from_vec(m, k, (0..m * k).map(|i| (i % 13) as f32 * 0.1).collect());
    let b = Mat::from_vec(n, k, (0..n * k).map(|i| (i % 7) as f32 * 0.2).collect());
    let mut out = Mat::zeros(m, n);
    let reps = 20;
    let (_, s) = p.timed("mlp.mul_bt", || {
        for _ in 0..reps {
            a.mul_bt(black_box(&b), &mut out);
        }
        black_box(out.get(0, 0));
    });
    p.put(
        "mlp.mul_bt_gflops",
        2.0 * (m * n * k * reps) as f64 / s / 1e9,
    );

    let bundle = gemm_tuner.model();
    let stride = bundle.mlp.sizes[0];
    let rows = 8192;
    let flat: Vec<f32> = (0..rows * stride).map(|i| (i % 17) as f32 * 0.3).collect();
    let mut scratch = ScratchSpace::new();
    black_box(bundle.predict_rows(&flat, stride, &mut scratch).len());
    let (_, s) = p.timed("mlp.predict_rows", || {
        black_box(bundle.predict_rows(&flat, stride, &mut scratch).len());
    });
    p.put("mlp.predict_s_per_row", s / rows as f64);

    // Dataset generation and one epoch of fitting, at a fixed small size.
    let samples = 2_000;
    let profiler = isaac_device::Profiler::new(spec_of(0), 0x15AAC);
    let (raw, s) = p.timed("train.generate_dataset", || {
        generate_gemm_dataset(
            &profiler,
            &DatasetOptions {
                samples,
                calibration: 2_000,
                ..DatasetOptions::default()
            },
        )
    });
    p.put("train.dataset_s_per_sample", s / samples as f64);
    let mut train = raw.take(samples * 9 / 10);
    let mut val = raw.subset(&(samples * 9 / 10..raw.len()).collect::<Vec<_>>());
    let (sx, y_mean, y_std) = train.standardize();
    val.standardize_with(&sx, y_mean, y_std);
    let mut mlp = Mlp::with_hidden(train.x.cols, &train_options().hidden, 0x11);
    let epochs = 2;
    let (_, s) = p.timed("mlp.fit", || {
        mlp.train(
            &train,
            &val,
            &TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
        )
    });
    // Scaled to the training set a round's set-up actually fits.
    let per_row = s / (epochs * train.len()) as f64;
    p.put(
        "mlp.fit_epoch_s",
        per_row * (train_options().samples * 9 / 10) as f64,
    );
}

/// Direct engine calls: the staged (exhaustive, serial reference)
/// breakdown, the heuristic, and the scratch pool's steady state (every
/// key here was already tuned once by `probe_cold_paths`).
fn probe_inference(
    p: &mut Probe,
    tuners: &BTreeMap<OpKind, IsaacTuner>,
    keys: &BTreeMap<OpKind, Vec<KeyShape>>,
) {
    // Steady state: the same queries again must not grow pooled buffers.
    let before = engine_stats().buffer_growths;
    for op in [OpKind::Gemm, OpKind::Conv] {
        for shape in &keys[&op] {
            black_box(tuners[&op].tune_shape_cold(shape));
        }
    }
    p.put(
        "inference.buffer_growths",
        (engine_stats().buffer_growths - before) as f64,
    );

    let mut total = StageBreakdown::default();
    let (mut wall, mut n) = (0.0, 0.0);
    for op in [OpKind::Gemm, OpKind::Conv] {
        let tuner = &tuners[&op];
        let top_k = train_options().top_k;
        for shape in &keys[&op] {
            let ((_, stages), s) = p.timed("inference.infer_staged", || match shape {
                KeyShape::Gemm(g) => {
                    infer_gemm_staged(tuner.model(), g, tuner.profiler(), top_k, true)
                }
                KeyShape::Conv(c) => {
                    infer_conv_staged(tuner.model(), c, tuner.profiler(), top_k, true)
                }
                KeyShape::Sparse(_) => unreachable!("dense probe keys only"),
            });
            total.legality_s += stages.legality_s;
            total.features_s += stages.features_s;
            total.predict_s += stages.predict_s;
            total.topk_s += stages.topk_s;
            total.rebench_s += stages.rebench_s;
            total.scored_full += stages.scored_full;
            wall += s;
            n += 1.0;
        }
    }
    p.put("inference.legality_s", total.legality_s / n);
    p.put("inference.features_s", total.features_s / n);
    p.put("inference.predict_s", total.predict_s / n);
    p.put("inference.topk_s", total.topk_s / n);
    p.put("inference.rebench_s", total.rebench_s / n);
    p.put("inference.stage_sum_frac", total.total_s() / wall);
    p.put("inference.scored_full", total.scored_full as f64 / n);

    let mut heuristic = Vec::new();
    for (op, shapes) in keys {
        for shape in shapes {
            let (_, s) = p.timed("inference.heuristic", || tuners[op].heuristic_shape(shape));
            heuristic.push(s);
        }
    }
    p.put("inference.heuristic_s", mean(&heuristic));
}

fn probe_cache(p: &mut Probe, dir: &Path, sparse_tuner: &IsaacTuner) -> io::Result<()> {
    let n = 4096;
    let keys = cache_keys(2 * n);
    let cache = TuneCache::new();
    let (_, s) = p.timed("cache.insert", || {
        for (i, k) in keys[..n].iter().enumerate() {
            cache.insert(*k, dummy_choice(i));
        }
    });
    p.put("cache.insert_s", s / n as f64);
    let reps = 64;
    let (_, s) = p.timed("cache.get_hit", || {
        for _ in 0..reps {
            for k in &keys[..n] {
                black_box(cache.get(black_box(k)));
            }
        }
    });
    p.put("cache.get_hit_s", s / (reps * n) as f64);
    let (_, s) = p.timed("cache.get_miss", || {
        for _ in 0..reps {
            for k in &keys[n..] {
                black_box(cache.get(black_box(k)));
            }
        }
    });
    p.put("cache.get_miss_s", s / (reps * n) as f64);
    let (_, s) = p.timed("cache.peek", || {
        for _ in 0..reps {
            for k in &keys[..n] {
                black_box(cache.peek(black_box(k)));
            }
        }
    });
    p.put("cache.peek_s", s / (reps * n) as f64);

    // At capacity every insert of a new key evicts one.
    let bounded = TuneCache::with_capacity(256);
    for (i, k) in keys[..256].iter().enumerate() {
        bounded.insert(*k, dummy_choice(i));
    }
    let (_, s) = p.timed("cache.insert_evict", || {
        for (i, k) in keys[256..256 + n].iter().enumerate() {
            bounded.insert(*k, dummy_choice(i));
        }
    });
    p.put("cache.insert_evict_s", s / n as f64);

    // Text persistence through the tuner that owns a cache.
    for (i, k) in keys[..n].iter().enumerate() {
        sparse_tuner.cache().insert(*k, dummy_choice(i));
    }
    let entries = sparse_tuner.cache_len();
    let path = dir.join("probe-cache.txt");
    let (r, s) = p.timed("cache.save", || sparse_tuner.save_cache(&path));
    r?;
    p.put("cache.save_s_per_entry", s / entries as f64);
    p.put(
        "cache.bytes_per_entry",
        std::fs::metadata(&path)?.len() as f64 / entries as f64,
    );
    let (r, s) = p.timed("cache.load", || sparse_tuner.load_cache(&path));
    p.put("cache.load_s_per_entry", s / r?.loaded.max(1) as f64);
    for k in &keys[..n] {
        sparse_tuner.cache().remove(k);
    }
    Ok(())
}

fn probe_wal(p: &mut Probe, dir: &Path, model: &Path) -> io::Result<()> {
    let n = 2048;
    let keys = cache_keys(n);
    let wal_path = dir.join("probe.wal");
    let writer = WalWriter::new(Arc::new(StdIo), wal_path.clone());
    let records: Vec<WalRecord> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| WalRecord::Insert {
            key: *k,
            choice: dummy_choice(i),
        })
        .collect();
    let (_, s) = p.timed("wal.append", || {
        for r in &records {
            writer.record(r);
        }
    });
    let (appends, bytes, errors) = writer.counters();
    assert_eq!((appends, errors), (n as u64, 0), "probe WAL appends");
    p.put("wal.append_s", s / n as f64);
    p.put("wal.bytes_per_record", bytes as f64 / appends as f64);
    black_box(encode_record(&records[0]));

    let log = std::fs::read(&wal_path)?;
    let (decoded, s) = p.timed("wal.decode", || decode_wal(&log, 0));
    assert_eq!(decoded.records.len(), n, "probe WAL decodes");
    p.put("wal.decode_s_per_record", s / n as f64);

    // Compaction and recovery through the service, on a sparse shard
    // holding `n` published decisions: half in the base, half in the log.
    let wal_dir = dir.join("probe-wal");
    let load = || IsaacTuner::load(model, spec_of(0), OpKind::Sparse);
    let service = TuneService::with_workers(WORKERS);
    let tuner = service.add_shard(0, load()?);
    service.enable_durability(&wal_dir, Duration::from_secs(3_600));
    for (i, k) in keys[..n / 2].iter().enumerate() {
        tuner.cache().insert(*k, dummy_choice(i));
    }
    let (r, s) = p.timed("wal.compact", || service.compact_now());
    r?;
    p.put("wal.compact_s", s);
    for (i, k) in keys[n / 2..].iter().enumerate() {
        tuner.cache().insert(*k, dummy_choice(i));
    }
    // Stop without the shutdown flush, so the log still holds records.
    service.disable_snapshots();
    drop(service);

    let service = TuneService::with_workers(WORKERS);
    service.add_shard(0, load()?);
    let (r, s) = p.timed("wal.recover", || service.recover_all(&wal_dir));
    let report = r?;
    assert_eq!(
        report.entries + report.replayed,
        n,
        "probe recovery lost records"
    );
    p.put("wal.recover_s_per_record", s / n as f64);

    let snap_dir = dir.join("probe-snapshot");
    let (r, s) = p.timed("service.snapshot_all", || service.snapshot_all(&snap_dir));
    p.put("service.snapshot_s_per_entry", s / r?.entries.max(1) as f64);
    Ok(())
}

fn probe_sparse(p: &mut Probe) {
    let a = sparse_csr::power_law(20_000, 16, 1802);
    let (shape, s) = p.timed("sparse.from_csr", || {
        SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32)
    });
    black_box(shape);
    p.put("sparse.analyze_s_per_knnz", s / (a.nnz() as f64 / 1e3));
    p.put("sparse.space_points", sparse_space_size() as f64);
    let x = vec![1.0f32; a.rows];
    let reps = 50;
    let (_, s) = p.timed("sparse.spmv", || {
        for _ in 0..reps {
            black_box(sparse_kernels::spmv(&a, black_box(&x)));
        }
    });
    p.put(
        "sparse.spmv_gflops",
        2.0 * (a.nnz() * reps) as f64 / s / 1e9,
    );
}

/// A cold tune two ways, key by key: through the service (`submit` +
/// `wait` on the one worker) and directly on a twin tuner loaded from the
/// same model file (`tune_shape_cold`). The two calls of a pair run back
/// to back, in alternating order, so both see the same host and the same
/// cache warmth; what is left is what serving adds to a miss.
fn probe_cold_paths(
    p: &mut Probe,
    service: &TuneService,
    twins: &BTreeMap<OpKind, IsaacTuner>,
    keys: &BTreeMap<OpKind, Vec<KeyShape>>,
) {
    // Indexed by which call of the pair went first: whichever does pays a
    // few per cent for warming the key's working set, so each order gets
    // its own median and the two are averaged.
    let mut overhead = [Vec::new(), Vec::new()];
    let mut sum_frac = [Vec::new(), Vec::new()];
    let mut returns = Vec::new();
    for (op, name) in [
        (OpKind::Gemm, "inference.cold_gemm_s"),
        (OpKind::Conv, "inference.cold_conv_s"),
        (OpKind::Sparse, "inference.cold_sparse_s"),
    ] {
        let mut direct = Vec::new();
        for (i, shape) in keys[&op].iter().enumerate() {
            let mut tune_s = 0.0;
            let mut tune_direct = |p: &mut Probe| {
                let (choice, s) = p.timed("inference.tune_shape_cold", || {
                    twins[&op].tune_shape_cold(shape)
                });
                assert!(
                    choice.is_some(),
                    "probe key {} has no legal config",
                    shape.name()
                );
                tune_s = s;
            };
            if i % 2 == 1 {
                tune_direct(p);
            }
            let query = Query::new(0, *shape);
            let waited = service.service_stats().queue_wait_s_total;
            let request = p.tracer.begin("service.miss", None, i as u32);
            let t = Instant::now();
            let span = p.tracer.begin("service.submit", Some(request), i as u32);
            let ticket = service.submit(&query);
            let returned = t.elapsed().as_secs_f64();
            p.tracer.end(span);
            let span = p.tracer.begin("service.wait", Some(request), i as u32);
            let decision = ticket.wait();
            let wall = t.elapsed().as_secs_f64();
            p.tracer.end(span);
            p.tracer.end(request);
            assert!(decision.choice.is_some(), "probe miss resolves");
            let queue_wait = service.service_stats().queue_wait_s_total - waited;
            if i % 2 == 0 {
                tune_direct(p);
            }
            direct.push(tune_s);
            returns.push(returned);
            // The 0.3 ms sparse tunes are all hand-off: the 5 % rule is
            // about the dense misses the ROADMAP asked about.
            if op != OpKind::Sparse {
                overhead[i % 2].push(wall - tune_s);
                // `submit`'s own return time is left out of the sum: on
                // one CPU the woken worker may preempt it, and that slice
                // of the tune would be counted twice.
                sum_frac[i % 2].push((queue_wait + tune_s) / wall);
            }
        }
        p.put(name, median(&direct));
    }
    p.put("service.submit_miss_return_s", median(&returns));
    let both_orders = |v: &[Vec<f64>; 2]| (median(&v[0]) + median(&v[1])) / 2.0;
    p.put("service.miss_overhead_s", both_orders(&overhead));
    p.put("service.request_sum_frac", both_orders(&sum_frac));
}

/// The service's hit paths, on the keys `probe_cold_paths` left cached.
fn probe_service(p: &mut Probe, service: &TuneService, keys: &BTreeMap<OpKind, Vec<KeyShape>>) {
    let cached: Vec<Query> = keys
        .values()
        .flatten()
        .map(|shape| Query::new(0, *shape))
        .collect();
    let reps = 20_000;
    let (_, s) = p.timed("service.submit_hit", || {
        for _ in 0..reps {
            for q in &cached {
                black_box(service.submit(black_box(q)).try_get());
            }
        }
    });
    p.put("service.submit_hit_s", s / (reps * cached.len()) as f64);
    let reps = 5_000;
    let (_, s) = p.timed("service.submit_batch_hit", || {
        for _ in 0..reps {
            black_box(service.submit_batch(black_box(&cached)));
        }
    });
    p.put(
        "service.submit_batch_hit_s_per_query",
        s / (reps * cached.len()) as f64,
    );
}

/// Run every probe and write the values (as gauges) and spans to `out`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    out: &Path,
) -> io::Result<()> {
    std::fs::create_dir_all(scratch)?;
    // One CPU, like the closed-loop rounds and for the same reason: the
    // probes compare a tune on the worker thread with the same tune on
    // this thread, and a worker woken on another CPU starts cache-cold.
    let _ = pin_to_current_cpu();
    let mut p = Probe {
        tracer: Tracer::new(true),
        out: BTreeMap::new(),
    };
    let inputs = generate(workload, seed, seconds);
    let keys: BTreeMap<OpKind, Vec<KeyShape>> = [
        (OpKind::Gemm, DENSE_PROBE_KEYS),
        (OpKind::Conv, DENSE_PROBE_KEYS),
        (OpKind::Sparse, SPARSE_PROBE_KEYS),
    ]
    .into_iter()
    .map(|(op, want)| (op, probe_keys(&inputs, op, want)))
    .collect();

    probe_gen_and_device(&mut p, &keys[&OpKind::Gemm], &keys[&OpKind::Conv]);

    // One trained model per family, loaded twice: a twin for direct
    // engine calls and one registered in a service.
    let service = TuneService::with_workers(WORKERS);
    let mut twins = BTreeMap::new();
    let mut sparse_model = None;
    for op in OpKind::ALL {
        let path = scratch.join(format!("probe-model-{op}.txt"));
        IsaacTuner::train(spec_of(0), op, train_options()).save(&path)?;
        twins.insert(op, IsaacTuner::load(&path, spec_of(0), op)?);
        service.add_shard(0, IsaacTuner::load(&path, spec_of(0), op)?);
        if op == OpKind::Sparse {
            sparse_model = Some(path);
        }
    }
    let sparse_model = sparse_model.expect("sparse is a registered family");

    probe_mlp_and_train(&mut p, &twins[&OpKind::Gemm]);
    probe_cold_paths(&mut p, &service, &twins, &keys);
    probe_inference(&mut p, &twins, &keys);
    probe_service(&mut p, &service, &keys);
    assert_eq!(service.stats().failed, 0, "probe service failed a ticket");
    probe_cache(&mut p, scratch, &twins[&OpKind::Sparse])?;
    probe_wal(&mut p, scratch, &sparse_model)?;
    probe_sparse(&mut p);
    drop(service);

    let result = RoundResult {
        input_hash: inputs.hash,
        gauges: p.out,
        spans: p.tracer.into_spans(),
        ..RoundResult::default()
    };
    std::fs::write(out, result.to_text())
}
