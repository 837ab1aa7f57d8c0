//! Runtime kernel inference (paper Section 6): the parallel,
//! allocation-free tuning query engine.
//!
//! At runtime the input parameters are fixed, so the regression model can
//! be optimized over tuning parameters alone. Following the paper we use
//! exhaustive search -- it finds the global optimum of the model within the
//! space, is embarrassingly parallel, and makes it trivial to keep the
//! top-k candidates for re-benchmarking on the "target device" to smooth
//! out model noise.
//!
//! ## The staged pipeline
//!
//! A cold tune touches only the *legal* rows of the space, in fixed-size
//! chunks of list positions:
//!
//! 1. **Class lookup**: legality reads a dense shape only through its
//!    dtype, whether an operand is contiguous along K and the widest
//!    vector its contiguous dimensions allow, so the legal set -- space
//!    indices in index order plus a contiguous copy of their encoded
//!    tuning-feature rows -- is memoized per such class
//!    ([`isaac_gen::legality::legal_class`], [`isaac_gen::conv::legal_class`])
//!    and a query only looks it up. The first query of a class builds the
//!    list by streaming the legality rules over the space once. The sparse
//!    family's legality reads the whole input structure, so its 216-point
//!    space is filtered per query instead.
//! 2. **Cheap pass** (with a [`CascadeConfig`]; production tuners have
//!    one): every legal candidate is scored by a collapsed-tail surrogate
//!    -- the factored first layer plus one dot product. The input-shape
//!    half of the features is standardized once per query and folded into
//!    the first layer (`ModelBundle::query_prefix`); the scoring kernel
//!    (`ModelBundle::score_lanes`) gathers each candidate's 9 varying
//!    columns from the class rows by list position and scores a block of
//!    candidates at once, one per SIMD lane, on activation tiles from a
//!    pooled scratch.
//! 3. **Survivors**: the top `keep_frac` of the cheap ranking (with
//!    floors) go back to space order. When the cut would keep everyone
//!    (small spaces) stages 2-3 are skipped: the result is the same and
//!    the cheap pass could prune nothing.
//! 4. **Full model + top-k**: survivors (every legal candidate, when the
//!    cascade is off) run through the full network in the same kernel;
//!    the top-k are selected with an O(n) partial selection, ties broken
//!    by position.
//! 5. **Re-benchmark**: the finalists are decoded from their space index,
//!    measured on the device model (best-of-`RE_BENCH_REPS`), and the
//!    fastest wins.
//!
//! Where the time goes (P100, f32 GEMM, 93 149 legal rows, `keep_frac`
//! 0.10, one engine thread; 2-vCPU Xeon with AVX-512, mean of 30 cold
//! tunes): class lookup ~1 us (first use of a class: ~22 ms, once per
//! process), cheap pass 1.9 ms (34 %, 21 ns/row), full model on the
//! 9 315 survivors 3.4 ms (59 %, 0.36 us/row), survivor cut + top-k
//! 0.34 ms (6 %), re-benchmark 0.05 ms (1 %) -- 5.8 ms in all. The
//! kernels it replaced took 5.5 and 8.5 ms here (14.6 ms in all).
//!
//! [`StageBreakdown`] (from [`infer_gemm_staged`], which runs the
//! exhaustive serial reference) reports where that path's time goes,
//! stage by stage; `benchmark/`'s traced run publishes it.
//!
//! Determinism: every per-candidate computation is a pure function of the
//! candidate (the profiler's noise is seeded by kernel name and
//! repetition, not by call order), reductions are position-ordered, and
//! the scoring kernel puts candidates in lanes, never terms of one
//! candidate's sum -- so the result is bit-identical for 1 thread and N
//! threads, for any block size or instruction set, with or without the
//! cascade (the cascade's survivor cut is a total order over `(score,
//! position)`, and list position order is space index order).
//! [`infer_gemm_serial`] runs the identical arithmetic without the
//! fan-out and is used by tests and the bench harness as the reference
//! and the pre-parallelism baseline.
//!
//! Steady-state queries make **zero per-candidate allocations**: the
//! scoring kernel's tiles and the candidate lists live in a
//! process-wide scratch pool that is reused across queries, and
//! [`engine_stats`] exposes the pool counters so tests can prove the
//! pooled buffers stop growing. What remains per query is O(#chunks)
//! transient result buffers from the fan-out's `collect`, independent of
//! the per-candidate work.

use crate::features::{
    conv_shape_features_into, gemm_shape_features_into, sparse_shape_features_into,
    CONV_INPUT_FEATURES, GEMM_INPUT_FEATURES, SPARSE_INPUT_FEATURES, TUNING_FEATURES,
};
use isaac_device::{DeviceSpec, Measurement, Profiler};
use isaac_gen::legality::LegalClass;
use isaac_gen::profile::{conv_profile, gemm_profile};
use isaac_gen::shapes::{ConvShape, GemmShape};
use isaac_gen::GemmConfig;
use isaac_mlp::io::{ModelBundle, QueryPrefix};
use isaac_mlp::Pass;
use isaac_sparse::profile::sparse_profile;
use isaac_sparse::SparseShape;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Candidates processed per parallel work item. Large enough to amortize
/// scratch checkout and batched-GEMM efficiency, small enough to load
/// balance across cores.
const CHUNK: usize = 4096;

/// Re-benchmark repetitions per finalist (best-of, like the paper).
const RE_BENCH_REPS: u64 = 3;

/// The outcome of tuning one input: the selected configuration, the
/// model's prediction for it, and its (simulated) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedChoice {
    /// The winning configuration.
    pub config: GemmConfig,
    /// Model-predicted GFLOPS for the winner.
    pub predicted_gflops: f64,
    /// Re-benchmarked TFLOPS.
    pub tflops: f64,
    /// Re-benchmarked execution time in seconds.
    pub time_s: f64,
}

/// Coarse-to-fine cascade tuning knobs (the cheap pass of the pipeline).
///
/// The cheap surrogate ranks candidates well but not perfectly, so the
/// survivor cut keeps a *safety margin*: at least `keep_frac` of the
/// legal set and never fewer than `min_keep` candidates (nor fewer than
/// the query's `top_k`). The default `keep_frac` is the smallest whose
/// `choice_quality` (`benchmark/`, `cold_dense`: served time against the
/// best legal configuration's) holds the exhaustive-leaning 0.25's in
/// median and mean over twelve seeds -- 0.9620 / 0.9607 against 0.9607 /
/// 0.9596; 0.07 and 0.05 fall below (table in CHANGES.md, PR 21).
/// `tests/cascade.rs` checks the decision against the exhaustive path on
/// the bench shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Fraction of legal candidates surviving the cheap pass.
    pub keep_frac: f64,
    /// Survivor floor, shielding small legal sets from over-pruning.
    pub min_keep: usize,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            keep_frac: 0.10,
            min_keep: 2048,
        }
    }
}

impl CascadeConfig {
    /// How many of `n` legal candidates survive the cheap pass for a
    /// query re-benchmarking `top_k` finalists. Never zero for `n > 0`:
    /// a degenerate config (zero/negative/NaN `keep_frac` with
    /// `min_keep == 0` and `top_k == 0`) still keeps one candidate
    /// rather than underflowing the survivor cut.
    fn survivors(&self, n: usize, top_k: usize) -> usize {
        let frac = (n as f64 * self.keep_frac).ceil() as usize;
        frac.max(self.min_keep).max(top_k).max(1).min(n)
    }
}

/// Per-stage wall-clock breakdown of one serial cold tune, from
/// [`infer_gemm_staged`] / [`infer_conv_staged`]. Published in
/// `BENCH_inference.json` (fields `features_s`, `predict_s`, `topk_s`,
/// `rebench_s`, plus `legality_s`) so successive PRs can see *where*
/// cold-tune time goes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Legality class lookup (including the class build, on first use);
    /// the per-query filter, for the sparse family.
    pub legality_s: f64,
    /// Feature-row construction. Always 0: the scoring kernel gathers
    /// each candidate's class row by position inside `predict_s`, so
    /// there is no separate stage to time.
    pub features_s: f64,
    /// Scoring-kernel calls (cheap + full), gather included.
    pub predict_s: f64,
    /// Top-k selection (and the cascade's survivor cut, when on).
    pub topk_s: f64,
    /// Finalist re-benchmarking on the device model.
    pub rebench_s: f64,
    /// Candidates scored by the full model.
    pub scored_full: u64,
}

impl StageBreakdown {
    /// Sum of all stage timings (the instrumented part of the query).
    pub fn total_s(&self) -> f64 {
        self.legality_s + self.features_s + self.predict_s + self.topk_s + self.rebench_s
    }
}

/// Everything that parameterizes one engine run besides the operation
/// closures: re-bench width, feature encoding, fan-out and cascade.
#[derive(Debug, Clone, Default)]
pub struct InferOptions {
    /// Finalists re-benchmarked after the model search.
    pub top_k: usize,
    /// Log-transform features (paper Section 5.2).
    pub log_features: bool,
    /// Rayon fan-out on or off (off == the serial reference).
    pub parallel: bool,
    /// Coarse-to-fine cascade; `None` (default) is the exhaustive,
    /// bit-reproducible path.
    pub cascade: Option<CascadeConfig>,
}

pub use isaac_gen::legality::space_iter;

/// All configurations legal for `shape` on `spec`, in space order.
pub fn enumerate_legal_gemm(shape: &GemmShape, spec: &DeviceSpec) -> Vec<GemmConfig> {
    isaac_gen::legality::legal_class(shape, spec)
        .configs()
        .collect()
}

/// All configurations legal for a convolution, in space order.
pub fn enumerate_legal_conv(shape: &ConvShape, spec: &DeviceSpec) -> Vec<GemmConfig> {
    isaac_gen::conv::legal_class(shape, spec)
        .configs()
        .collect()
}

/// All sparse configurations legal for the input structure `shape`, in
/// sparse-space order (sparse legality is input-dependent, not
/// device-dependent).
pub fn enumerate_legal_sparse(shape: &SparseShape) -> Vec<GemmConfig> {
    isaac_sparse::space_table()
        .iter()
        .filter(|cfg| isaac_sparse::space::check(cfg, shape).is_ok())
        .copied()
        .collect()
}

// ---------------------------------------------------------------------------
// Model-free heuristic fallback (degraded mode)
// ---------------------------------------------------------------------------

/// Model-free fallback choice for a GEMM shape: the largest-legal-tile
/// rule over the legality table. No MLP, no re-benchmarking -- just the
/// classic static heuristic the paper's input-aware model is measured
/// against, kept around so a sick serving shard can always answer.
///
/// Deterministic: the candidate sweep is a fixed preference order
/// (largest macro-tile area first, then the widest micro-tile / unroll /
/// vector width), so the same shape on the same device always yields the
/// same configuration. Returns `None` only when *no* configuration in
/// the space is legal for the shape.
///
/// The returned [`TunedChoice`] carries zeroed model/measurement fields
/// (`predicted_gflops == tflops == 0.0`): it is a placeholder decision,
/// not an authoritative tune, and callers (the serving layer's degraded
/// mode) must not persist it as one.
pub fn heuristic_gemm(shape: &GemmShape, spec: &DeviceSpec) -> Option<TunedChoice> {
    heuristic_choice(
        |cfg| isaac_gen::legality::check(cfg, shape, spec).is_ok(),
        || isaac_gen::legality::legal_class(shape, spec),
    )
}

/// Model-free fallback choice for a convolution, via its implicit-GEMM
/// view. Same largest-legal-tile rule and determinism as
/// [`heuristic_gemm`].
pub fn heuristic_conv(shape: &ConvShape, spec: &DeviceSpec) -> Option<TunedChoice> {
    heuristic_choice(
        |cfg| isaac_gen::conv::check(cfg, shape, spec).is_ok(),
        || isaac_gen::conv::legal_class(shape, spec),
    )
}

/// Model-free fallback choice for a sparse input: the scalar
/// one-row-per-thread kernel (`isaac_sparse::space::heuristic_config`),
/// which is legal for every operation and structure -- the classic
/// structure-oblivious CSR baseline the input-aware model is measured
/// against. Falls back to a sparse-space scan for defensive totality.
pub fn heuristic_sparse(shape: &SparseShape) -> Option<TunedChoice> {
    let cfg = isaac_sparse::space::heuristic_config();
    if isaac_sparse::space::check(&cfg, shape).is_ok() {
        return Some(fallback_choice(cfg));
    }
    isaac_sparse::space_table()
        .iter()
        .find(|cfg| isaac_sparse::space::check(cfg, shape).is_ok())
        .map(|cfg| fallback_choice(*cfg))
}

/// Shared sweep for the heuristic fallback: try a small, preference-
/// ordered candidate list (big tiles first), then fall back to the first
/// member of the shape's legality class if none of the preferred shapes
/// are legal. The bounded sweep keeps the degraded path O(hundreds) of
/// legality checks, and the last resort a memoized lookup.
fn heuristic_choice(
    legal: impl Fn(&GemmConfig) -> bool,
    class: impl FnOnce() -> LegalClass,
) -> Option<TunedChoice> {
    // Macro-tile pairs from {128,64,32,16}^2, largest area first (ties:
    // taller `ml` first -- row-major access favors the M dimension).
    let lengths = [128u32, 64, 32, 16];
    let mut tiles: Vec<(u32, u32)> = Vec::with_capacity(16);
    for &ml in &lengths {
        for &nl in &lengths {
            tiles.push((ml, nl));
        }
    }
    tiles.sort_by_key(|&(ml, nl)| (std::cmp::Reverse(ml * nl), std::cmp::Reverse(ml)));

    for (ml, nl) in tiles {
        for (ms, ns) in [(8u32, 8u32), (4, 4), (2, 2), (1, 1)] {
            for u in [8u32, 4, 2, 1] {
                for vec in [4u32, 2, 1] {
                    let cfg = GemmConfig {
                        ms,
                        ns,
                        ml,
                        nl,
                        u,
                        ks: 1,
                        kl: 1,
                        kg: 1,
                        vec,
                        ..GemmConfig::default()
                    };
                    if legal(&cfg) {
                        return Some(fallback_choice(cfg));
                    }
                }
            }
        }
    }
    // Degenerate shapes (tiny or oddly-aligned inputs) can reject every
    // preferred candidate: take the first legal configuration in index
    // order so the fallback is total whenever *any* exists.
    class().configs().next().map(fallback_choice)
}

fn fallback_choice(config: GemmConfig) -> TunedChoice {
    TunedChoice {
        config,
        predicted_gflops: 0.0,
        tflops: 0.0,
        time_s: 0.0,
    }
}

// ---------------------------------------------------------------------------
// Scratch pool
// ---------------------------------------------------------------------------

/// Per-worker reusable buffers for one chunk (or one whole query).
struct EngineScratch {
    /// The scoring kernel's input and activation tiles.
    tile: Vec<f32>,
    /// Candidate `(list position, score)` pairs (cheap scores in cascade
    /// mode, full scores otherwise).
    cand: Vec<(u32, f32)>,
    /// Full-model scores of cascade survivors.
    full: Vec<(u32, f32)>,
}

/// Process-wide pool of engine scratches: checked out per work item,
/// returned afterwards, so steady-state queries reuse warm buffers
/// instead of allocating.
static SCRATCH_POOL: Mutex<Vec<EngineScratch>> = Mutex::new(Vec::new());
static SCRATCHES_CREATED: AtomicU64 = AtomicU64::new(0);
static BUFFER_GROWTHS: AtomicU64 = AtomicU64::new(0);

/// Allocation counters of the query engine's scratch pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Scratch workspaces ever created (bounded by peak concurrency).
    pub scratches_created: u64,
    /// Total buffer growths inside pooled scratches (the scoring
    /// kernel's tiles, candidate lists). Constant across repeated queries
    /// once warm: the zero-allocation steady state.
    pub buffer_growths: u64,
}

/// Snapshot the scratch-pool counters. Call between queries (quiescent
/// engine) to assert the steady-state query path stops allocating.
pub fn engine_stats() -> EngineStats {
    EngineStats {
        scratches_created: SCRATCHES_CREATED.load(Ordering::Relaxed),
        buffer_growths: BUFFER_GROWTHS.load(Ordering::Relaxed),
    }
}

fn with_scratch<R>(f: impl FnOnce(&mut EngineScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .lock()
        .expect("scratch pool poisoned")
        .pop()
        .unwrap_or_else(|| {
            SCRATCHES_CREATED.fetch_add(1, Ordering::Relaxed);
            EngineScratch {
                tile: Vec::new(),
                cand: Vec::new(),
                full: Vec::new(),
            }
        });
    let out = f(&mut scratch);
    SCRATCH_POOL
        .lock()
        .expect("scratch pool poisoned")
        .push(scratch);
    out
}

/// Run `f` on a pooled buffer, counting a capacity growth into the pool
/// stats.
fn tracked<T, R>(v: &mut Vec<T>, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    let cap = v.capacity();
    let out = f(v);
    if v.capacity() > cap {
        BUFFER_GROWTHS.fetch_add(1, Ordering::Relaxed);
    }
    out
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Candidate ranking order: higher score first, ties broken by the lower
/// list position (== the lower space index: the lists are in space
/// order). Total order, hence a deterministic top-k.
fn rank_cmp(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// One query's legal candidates, in space order: their space indices,
/// the aligned encoded tuning-feature rows, and the family's index
/// decoder. The engine names a candidate by its *position* in these
/// lists and decodes only the finalists.
struct Candidates<'a> {
    idx: &'a [u32],
    rows: &'a [[f32; TUNING_FEATURES]],
    decode: fn(usize) -> GemmConfig,
}

impl<'a> Candidates<'a> {
    /// The members of a dense (GEMM / CONV) legality class.
    fn dense(class: &'a LegalClass, log_features: bool) -> Self {
        Candidates {
            idx: class.indices(),
            rows: class.feature_rows(log_features),
            decode: isaac_gen::legality::decode,
        }
    }

    fn config(&self, pos: u32) -> GemmConfig {
        (self.decode)(self.idx[pos as usize] as usize)
    }
}

/// Look a dense query's legality class up (building it on first use),
/// charged to the legality stage.
fn dense_class(
    log_features: bool,
    stages: &mut Option<&mut StageBreakdown>,
    lookup: impl FnOnce() -> LegalClass,
) -> LegalClass {
    let mark = Instant::now();
    let class = lookup();
    class.feature_rows(log_features);
    if let Some(bd) = stages {
        bd.legality_s += mark.elapsed().as_secs_f64();
    }
    class
}

/// The per-query model context shared by every scoring call: the trained
/// bundle, its precomputed factored prefix, and the candidates' encoded
/// tuning-feature rows, back to back.
struct ModelCtx<'a> {
    bundle: &'a ModelBundle,
    prefix: &'a QueryPrefix,
    rows: &'a [f32],
}

/// Score the candidates at list positions `ids` with the lane kernel,
/// which gathers their feature rows by position and runs `pass` on
/// tiles from a pooled scratch. Returns `(position, score)` pairs in
/// `ids` order.
fn score_rows(
    ctx: &ModelCtx<'_>,
    pass: Pass,
    ids: impl Iterator<Item = u32>,
    times: Option<&mut StageBreakdown>,
) -> Vec<(u32, f32)> {
    let mark = Instant::now();
    let mut out: Vec<(u32, f32)> = ids.map(|pos| (pos, 0.0)).collect();
    with_scratch(|scratch| {
        tracked(&mut scratch.tile, |tile| {
            ctx.bundle
                .score_lanes(ctx.prefix, pass, ctx.rows, &mut out, tile)
        })
    });
    if let Some(bd) = times {
        bd.predict_s += mark.elapsed().as_secs_f64();
        if pass == Pass::Full {
            bd.scored_full += out.len() as u64;
        }
    }
    out
}

/// Run `score(lo, hi)` over `0..n` in [`CHUNK`]-sized slices -- fanned
/// out or serially, the same slices either way -- and concatenate the
/// results in slice order into `into`.
fn score_chunked(
    n: usize,
    parallel: bool,
    into: &mut Vec<(u32, f32)>,
    mut stages: Option<&mut StageBreakdown>,
    score: impl Fn(usize, usize, Option<&mut StageBreakdown>) -> Vec<(u32, f32)> + Sync,
) {
    into.clear();
    let slice = |ci: usize| (ci * CHUNK, ((ci + 1) * CHUNK).min(n));
    let chunks = n.div_ceil(CHUNK);
    if parallel {
        let parts: Vec<Vec<(u32, f32)>> = (0..chunks)
            .into_par_iter()
            .map(|ci| {
                let (lo, hi) = slice(ci);
                score(lo, hi, None)
            })
            .collect();
        for part in parts {
            tracked(into, |into| into.extend(part));
        }
    } else {
        for ci in 0..chunks {
            let (lo, hi) = slice(ci);
            let part = score(lo, hi, stages.as_deref_mut());
            tracked(into, |into| into.extend(part));
        }
    }
}

/// Model search over a query's legal candidates + top-k re-benchmark,
/// shared by every op family: the family supplies the candidates and a
/// bench closure. `opts.parallel` switches the rayon fan-out on or off;
/// both modes run identical arithmetic over identical slices, so their
/// results are bit-identical (asserted by tests/parallel_inference.rs).
/// With `opts.cascade` the cheap pass prunes the candidate set before the
/// full model runs -- unless the survivor cut would keep every candidate
/// (small spaces: the 216-point sparse family), in which case the cheap
/// pass could prune nothing and the full model scores them directly; the
/// result is the same bit for bit. The `None` path never computes a
/// cheap score and is bit-identical to the pre-cascade engine.
fn infer_engine(
    bundle: &ModelBundle,
    legal: &Candidates<'_>,
    shape_feats: &[f32],
    opts: &InferOptions,
    bench: impl Fn(&GemmConfig) -> Option<Measurement> + Sync,
    mut stages: Option<&mut StageBreakdown>,
) -> Option<TunedChoice> {
    let n = legal.idx.len();
    let top_k = opts.top_k;
    let cascade = opts.cascade.filter(|c| c.survivors(n, top_k) < n);
    let prefix = if cascade.is_some() {
        bundle.query_prefix_cascade(shape_feats)
    } else {
        bundle.query_prefix(shape_feats)
    };
    let ctx = ModelCtx {
        bundle,
        prefix: &prefix,
        rows: legal.rows.as_flattened(),
    };

    with_scratch(|query| {
        // Scores for every legal candidate (cheap surrogate scores when
        // the cascade is on).
        let pass = if cascade.is_some() {
            Pass::Cheap
        } else {
            Pass::Full
        };
        score_chunked(
            n,
            opts.parallel,
            &mut query.cand,
            stages.as_deref_mut(),
            |lo, hi, times| score_rows(&ctx, pass, lo as u32..hi as u32, times),
        );
        if query.cand.is_empty() {
            return None;
        }

        // Cascade only: survivor cut + full model on survivors.
        let ranked_list: &mut Vec<(u32, f32)> = if let Some(cascade) = &cascade {
            let mark = Instant::now();
            let keep = cascade.survivors(n, top_k);
            query.cand.select_nth_unstable_by(keep - 1, rank_cmp);
            query.cand.truncate(keep);
            // Survivors go back to space order: deterministic, and the
            // full pass walks the feature rows cache-friendly.
            query.cand.sort_unstable_by_key(|&(pos, _)| pos);
            if let Some(bd) = stages.as_deref_mut() {
                bd.topk_s += mark.elapsed().as_secs_f64();
            }
            let survivors = &query.cand;
            score_chunked(
                survivors.len(),
                opts.parallel,
                &mut query.full,
                stages.as_deref_mut(),
                |lo, hi, times| {
                    let ids = survivors[lo..hi].iter().map(|&(pos, _)| pos);
                    score_rows(&ctx, Pass::Full, ids, times)
                },
            );
            &mut query.full
        } else {
            &mut query.cand
        };

        // O(n) top-k selection, deterministic by (score, position).
        let mark = Instant::now();
        let k = top_k.max(1).min(ranked_list.len());
        if k < ranked_list.len() {
            ranked_list.select_nth_unstable_by(k - 1, rank_cmp);
            ranked_list.truncate(k);
        }
        ranked_list.sort_unstable_by(rank_cmp);
        if let Some(bd) = stages.as_deref_mut() {
            bd.topk_s += mark.elapsed().as_secs_f64();
        }

        // Re-benchmark the finalists; rank-ordered reduction.
        let mark = Instant::now();
        let ranked = &ranked_list[..];
        let bench_one = |r: usize| -> Option<(GemmConfig, f64, Measurement)> {
            let (pos, score) = ranked[r];
            let config = legal.config(pos);
            let m = bench(&config)?;
            Some((config, score as f64, m))
        };
        let measured: Vec<Option<(GemmConfig, f64, Measurement)>> = if opts.parallel {
            (0..ranked.len()).into_par_iter().map(bench_one).collect()
        } else {
            (0..ranked.len()).map(bench_one).collect()
        };
        let mut best: Option<TunedChoice> = None;
        for (config, score, m) in measured.into_iter().flatten() {
            if best.as_ref().is_none_or(|b| m.time_s < b.time_s) {
                best = Some(TunedChoice {
                    config,
                    predicted_gflops: score.exp(),
                    tflops: m.tflops,
                    time_s: m.time_s,
                });
            }
        }
        if let Some(bd) = stages {
            bd.rebench_s += mark.elapsed().as_secs_f64();
        }
        best
    })
}

/// The fully parameterized GEMM entry point; the named wrappers below
/// cover the common corners.
pub fn infer_gemm_opts(
    bundle: &ModelBundle,
    shape: &GemmShape,
    profiler: &Profiler,
    opts: &InferOptions,
) -> Option<TunedChoice> {
    infer_gemm_engine(bundle, shape, profiler, opts, None)
}

fn infer_gemm_engine(
    bundle: &ModelBundle,
    shape: &GemmShape,
    profiler: &Profiler,
    opts: &InferOptions,
    mut stages: Option<&mut StageBreakdown>,
) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let mut shape_feats = [0.0f32; GEMM_INPUT_FEATURES];
    gemm_shape_features_into(shape, opts.log_features, &mut shape_feats);
    let class = dense_class(opts.log_features, &mut stages, || {
        isaac_gen::legality::legal_class(shape, spec)
    });
    infer_engine(
        bundle,
        &Candidates::dense(&class, opts.log_features),
        &shape_feats,
        opts,
        |cfg| {
            let profile = gemm_profile(cfg, shape, spec).ok()?;
            profiler.measure_best_of(&profile, RE_BENCH_REPS).ok()
        },
        stages,
    )
}

/// Exhaustive model search + top-k re-benchmark for GEMM, parallelized
/// across cores with a deterministic reduction.
pub fn infer_gemm(
    bundle: &ModelBundle,
    shape: &GemmShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> Option<TunedChoice> {
    infer_gemm_opts(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: true,
            cascade: None,
        },
    )
}

/// Serial reference for [`infer_gemm`]: identical arithmetic, no fan-out.
/// Exists for the determinism property tests and as the pre-parallelism
/// baseline in the queries/sec benchmark.
pub fn infer_gemm_serial(
    bundle: &ModelBundle,
    shape: &GemmShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> Option<TunedChoice> {
    infer_gemm_opts(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: false,
            cascade: None,
        },
    )
}

/// [`infer_gemm_serial`] with per-stage wall-clock instrumentation:
/// identical arithmetic and an identical result, plus a
/// [`StageBreakdown`] saying where the time went.
pub fn infer_gemm_staged(
    bundle: &ModelBundle,
    shape: &GemmShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> (Option<TunedChoice>, StageBreakdown) {
    let mut stages = StageBreakdown::default();
    let choice = infer_gemm_engine(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: false,
            cascade: None,
        },
        Some(&mut stages),
    );
    (choice, stages)
}

/// The fully parameterized CONV entry point.
pub fn infer_conv_opts(
    bundle: &ModelBundle,
    shape: &ConvShape,
    profiler: &Profiler,
    opts: &InferOptions,
) -> Option<TunedChoice> {
    infer_conv_engine(bundle, shape, profiler, opts, None)
}

fn infer_conv_engine(
    bundle: &ModelBundle,
    shape: &ConvShape,
    profiler: &Profiler,
    opts: &InferOptions,
    mut stages: Option<&mut StageBreakdown>,
) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let mut shape_feats = [0.0f32; CONV_INPUT_FEATURES];
    conv_shape_features_into(shape, opts.log_features, &mut shape_feats);
    let class = dense_class(opts.log_features, &mut stages, || {
        isaac_gen::conv::legal_class(shape, spec)
    });
    infer_engine(
        bundle,
        &Candidates::dense(&class, opts.log_features),
        &shape_feats,
        opts,
        |cfg| {
            let profile = conv_profile(cfg, shape, spec).ok()?;
            profiler.measure_best_of(&profile, RE_BENCH_REPS).ok()
        },
        stages,
    )
}

/// Exhaustive model search + top-k re-benchmark for CONV, parallelized
/// across cores with a deterministic reduction.
pub fn infer_conv(
    bundle: &ModelBundle,
    shape: &ConvShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> Option<TunedChoice> {
    infer_conv_opts(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: true,
            cascade: None,
        },
    )
}

/// Serial reference for [`infer_conv`]; see [`infer_gemm_serial`].
pub fn infer_conv_serial(
    bundle: &ModelBundle,
    shape: &ConvShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> Option<TunedChoice> {
    infer_conv_opts(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: false,
            cascade: None,
        },
    )
}

/// [`infer_conv_serial`] with per-stage instrumentation; see
/// [`infer_gemm_staged`].
pub fn infer_conv_staged(
    bundle: &ModelBundle,
    shape: &ConvShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> (Option<TunedChoice>, StageBreakdown) {
    let mut stages = StageBreakdown::default();
    let choice = infer_conv_engine(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: false,
            cascade: None,
        },
        Some(&mut stages),
    );
    (choice, stages)
}

/// The fully parameterized sparse entry point: exhaustive model search
/// over the 216-point sparse space plus top-k re-benchmark, driven by the
/// input's structural summary instead of an exact shape.
pub fn infer_sparse_opts(
    bundle: &ModelBundle,
    shape: &SparseShape,
    profiler: &Profiler,
    opts: &InferOptions,
) -> Option<TunedChoice> {
    infer_sparse_engine(bundle, shape, profiler, opts, None)
}

fn infer_sparse_engine(
    bundle: &ModelBundle,
    shape: &SparseShape,
    profiler: &Profiler,
    opts: &InferOptions,
    mut stages: Option<&mut StageBreakdown>,
) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let mut shape_feats = [0.0f32; SPARSE_INPUT_FEATURES];
    sparse_shape_features_into(shape, opts.log_features, &mut shape_feats);
    // Sparse legality reads the whole input structure, so there is no
    // class to memoize: filter the 216-point space per query.
    let mark = Instant::now();
    let table = isaac_sparse::space_table();
    let tfeat = isaac_sparse::space_feature_table(opts.log_features);
    let idx: Vec<u32> = (0..table.len() as u32)
        .filter(|&i| isaac_sparse::space::check(&table[i as usize], shape).is_ok())
        .collect();
    let rows: Vec<[f32; TUNING_FEATURES]> = idx.iter().map(|&i| tfeat[i as usize]).collect();
    if let Some(bd) = stages.as_deref_mut() {
        bd.legality_s += mark.elapsed().as_secs_f64();
    }
    infer_engine(
        bundle,
        &Candidates {
            idx: &idx,
            rows: &rows,
            decode: |i| isaac_sparse::space_table()[i],
        },
        &shape_feats,
        opts,
        |cfg| {
            let profile = sparse_profile(cfg, shape, spec).ok()?;
            profiler.measure_best_of(&profile, RE_BENCH_REPS).ok()
        },
        stages,
    )
}

/// Exhaustive model search + top-k re-benchmark for the sparse family,
/// parallelized across cores with a deterministic reduction.
pub fn infer_sparse(
    bundle: &ModelBundle,
    shape: &SparseShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> Option<TunedChoice> {
    infer_sparse_opts(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: true,
            cascade: None,
        },
    )
}

/// Serial reference for [`infer_sparse`]; see [`infer_gemm_serial`].
pub fn infer_sparse_serial(
    bundle: &ModelBundle,
    shape: &SparseShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> Option<TunedChoice> {
    infer_sparse_opts(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: false,
            cascade: None,
        },
    )
}

/// [`infer_sparse_serial`] with per-stage instrumentation; see
/// [`infer_gemm_staged`].
pub fn infer_sparse_staged(
    bundle: &ModelBundle,
    shape: &SparseShape,
    profiler: &Profiler,
    top_k: usize,
    log_features: bool,
) -> (Option<TunedChoice>, StageBreakdown) {
    let mut stages = StageBreakdown::default();
    let choice = infer_sparse_engine(
        bundle,
        shape,
        profiler,
        &InferOptions {
            top_k,
            log_features,
            parallel: false,
            cascade: None,
        },
        Some(&mut stages),
    );
    (choice, stages)
}

/// Re-benchmark a single, already-chosen GEMM configuration on a device:
/// legality check, analytical profile, then the same best-of measurement
/// policy as the engine's finalist stage -- so results are directly
/// comparable with cold-tuned [`TunedChoice`]s. This is the unit of work
/// of cross-device warm-start (`IsaacTuner::warm_start`): seeding a
/// shard from a neighbour's decision costs one of these instead of a
/// full exhaustive-search cold tune.
pub fn rebench_gemm(
    cfg: &GemmConfig,
    shape: &GemmShape,
    profiler: &Profiler,
) -> Option<Measurement> {
    let spec = profiler.spec();
    isaac_gen::legality::check(cfg, shape, spec).ok()?;
    let profile = gemm_profile(cfg, shape, spec).ok()?;
    profiler.measure_best_of(&profile, RE_BENCH_REPS).ok()
}

/// Re-benchmark a single CONV configuration; see [`rebench_gemm`].
pub fn rebench_conv(
    cfg: &GemmConfig,
    shape: &ConvShape,
    profiler: &Profiler,
) -> Option<Measurement> {
    let spec = profiler.spec();
    isaac_gen::conv::check(cfg, shape, spec).ok()?;
    let profile = conv_profile(cfg, shape, spec).ok()?;
    profiler.measure_best_of(&profile, RE_BENCH_REPS).ok()
}

/// Re-benchmark a single sparse configuration; see [`rebench_gemm`].
pub fn rebench_sparse(
    cfg: &GemmConfig,
    shape: &SparseShape,
    profiler: &Profiler,
) -> Option<Measurement> {
    isaac_sparse::space::check(cfg, shape).ok()?;
    let profile = sparse_profile(cfg, shape, profiler.spec()).ok()?;
    profiler.measure_best_of(&profile, RE_BENCH_REPS).ok()
}

/// Brute-force oracle: measure *every* legal configuration and return the
/// true best (the "10 hours of exhaustive search on hardware" the paper's
/// runtime inference replaces). Used to evaluate selection quality.
pub fn oracle_gemm(shape: &GemmShape, profiler: &Profiler) -> Option<TunedChoice> {
    let spec = profiler.spec();
    let mut best: Option<TunedChoice> = None;
    for cfg in isaac_gen::legality::legal_class(shape, spec).configs() {
        let Ok(profile) = gemm_profile(&cfg, shape, spec) else {
            continue;
        };
        let Ok(m) = profiler.measure(&profile) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| m.time_s < b.time_s) {
            best = Some(TunedChoice {
                config: cfg,
                predicted_gflops: m.tflops * 1e3,
                tflops: m.tflops,
                time_s: m.time_s,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use isaac_device::specs::tesla_p100;
    use isaac_device::DType;

    #[test]
    fn legal_set_is_nonempty_for_benchmark_shapes() {
        let spec = tesla_p100();
        for (m, n, k) in [(512, 512, 512), (2560, 16, 2560), (32, 32, 60000)] {
            let shape = GemmShape::new(m, n, k, "N", "T", DType::F32);
            let legal = enumerate_legal_gemm(&shape, &spec);
            assert!(
                legal.len() > 100,
                "({m},{n},{k}) has only {} legal configs",
                legal.len()
            );
        }
    }

    #[test]
    fn enumerate_matches_serial_filter_order() {
        let spec = tesla_p100();
        let shape = GemmShape::new(384, 384, 384, "N", "T", DType::F32);
        let parallel = enumerate_legal_gemm(&shape, &spec);
        let serial: Vec<GemmConfig> = space_iter()
            .filter(|cfg| isaac_gen::legality::check(cfg, &shape, &spec).is_ok())
            .collect();
        assert_eq!(parallel, serial);
    }

    /// The class lists are built with the physical-only rules; they must
    /// agree with the full check on every point of the space (in-space by
    /// construction, so the two may only differ outside it).
    #[test]
    fn physical_shortcut_matches_full_check_on_the_table() {
        let spec = tesla_p100();
        let shape = GemmShape::new(2560, 16, 2560, "N", "N", DType::F32);
        for cfg in space_iter().step_by(997) {
            assert_eq!(
                isaac_gen::legality::check(&cfg, &shape, &spec).is_ok(),
                isaac_gen::legality::check_physical(&cfg, &shape, &spec).is_ok(),
            );
        }
    }

    /// Same shortcut-equivalence guarantee for the CONV path: `check ==
    /// in_space + check_physical(equivalent_gemm, n)` must keep holding
    /// if either side grows a rule.
    #[test]
    fn conv_physical_shortcut_matches_full_check_on_the_table() {
        let spec = tesla_p100();
        let shape = ConvShape::from_output(16, 14, 14, 48, 512, 5, 5, DType::F32);
        let g = isaac_gen::conv::equivalent_gemm(&shape);
        for cfg in space_iter().step_by(997) {
            assert_eq!(
                isaac_gen::conv::check(&cfg, &shape, &spec).is_ok(),
                isaac_gen::conv::check_physical(&cfg, &g, shape.n, &spec).is_ok(),
            );
        }
    }

    /// The degraded-mode heuristic is deterministic, legal, and marked
    /// as a non-authoritative placeholder (zeroed measurement fields).
    #[test]
    fn heuristic_fallback_is_legal_deterministic_and_unmeasured() {
        let spec = tesla_p100();
        for (m, n, k) in [(512, 512, 512), (2560, 16, 2560), (32, 32, 60000)] {
            let shape = GemmShape::new(m, n, k, "N", "T", DType::F32);
            let a = heuristic_gemm(&shape, &spec).expect("fallback must exist");
            let b = heuristic_gemm(&shape, &spec).expect("fallback must exist");
            assert_eq!(a, b, "({m},{n},{k}) heuristic must be deterministic");
            assert!(
                isaac_gen::legality::check(&a.config, &shape, &spec).is_ok(),
                "({m},{n},{k}) heuristic config must be legal"
            );
            assert_eq!(a.predicted_gflops, 0.0);
            assert_eq!(a.tflops, 0.0);
        }
    }

    /// The heuristic prefers big macro-tiles: on a large square GEMM it
    /// must pick the biggest tile any legal config in the space uses.
    #[test]
    fn heuristic_prefers_the_largest_legal_tile() {
        let spec = tesla_p100();
        let shape = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32);
        let choice = heuristic_gemm(&shape, &spec).expect("fallback must exist");
        let max_area = enumerate_legal_gemm(&shape, &spec)
            .iter()
            .map(|c| c.ml * c.nl)
            .max()
            .expect("legal set nonempty");
        assert_eq!(choice.config.ml * choice.config.nl, max_area);
    }

    /// CONV heuristic: legal for the conv shape and deterministic.
    #[test]
    fn heuristic_conv_fallback_is_legal() {
        let spec = tesla_p100();
        let shape = ConvShape::from_output(16, 14, 14, 48, 512, 5, 5, DType::F32);
        let choice = heuristic_conv(&shape, &spec).expect("fallback must exist");
        assert!(isaac_gen::conv::check(&choice.config, &shape, &spec).is_ok());
        assert_eq!(choice, heuristic_conv(&shape, &spec).unwrap());
    }

    #[test]
    fn cascade_survivor_cut_respects_floors() {
        let c = CascadeConfig {
            keep_frac: 0.1,
            min_keep: 500,
        };
        assert_eq!(c.survivors(10_000, 50), 1000); // frac wins
        assert_eq!(c.survivors(2_000, 50), 500); // floor wins
        assert_eq!(c.survivors(300, 50), 300); // clamped to n
        assert_eq!(c.survivors(4_000, 600), 600); // top_k wins

        // A degenerate config must never produce an empty survivor set.
        let degenerate = CascadeConfig {
            keep_frac: 0.0,
            min_keep: 0,
        };
        assert_eq!(degenerate.survivors(4_000, 0), 1);
    }

    #[test]
    fn oracle_finds_a_runnable_kernel() {
        let profiler = Profiler::noiseless(tesla_p100());
        let shape = GemmShape::new(256, 256, 256, "N", "T", DType::F32);
        let best = oracle_gemm(&shape, &profiler).expect("some legal kernel");
        assert!(best.tflops > 0.5, "oracle kernel too slow: {}", best.tflops);
    }
}
