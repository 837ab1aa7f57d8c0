//! The ISAAC auto-tuner: input-aware kernel selection learned from
//! benchmarking data (the paper's primary contribution).
//!
//! Pipeline, mirroring paper Figure 1:
//!
//! 1. **Data generation** ([`sampling`], [`dataset`]): kernel
//!    configurations are drawn from a Dirichlet-smoothed categorical
//!    generative model fitted to the legal space X (Section 4), executed on
//!    the device model, and recorded as `(features, log performance)`
//!    pairs.
//! 2. **Regression** ([`features`], `isaac-mlp`): an MLP over
//!    log-transformed input+tuning features learns the performance
//!    surface (Section 5).
//! 3. **Runtime inference** ([`inference`]): for a fixed input, the model
//!    is evaluated exhaustively over all legal tuning configurations, the
//!    top-k predictions are re-benchmarked to smooth model noise, and the
//!    winner is cached (Section 6). One engine ([`infer`], with
//!    [`infer_staged`] as its instrumented exhaustive serial reference)
//!    serves every operation; each op family supplies only its legal
//!    candidates, input features, legality check, profile and
//!    heuristic.
//!
//! [`tuner::IsaacTuner`] packages the whole loop behind a
//! `train -> tune -> execute` API; see the crate examples at the
//! repository root.
//!
//! ## The serving path
//!
//! Runtime queries are served by a parallel, allocation-free engine (see
//! [`inference`]): the decoded tuning space is precomputed once per
//! process, legality filtering / feature construction / model scoring
//! fan out across cores with index-ordered (bit-deterministic)
//! reductions, and feature matrices are built in place inside pooled
//! scratch buffers. Decisions are memoized in a shape-keyed,
//! size-bounded [`tuner::TuneCache`] split into hash-partitioned
//! segments with sampled per-segment recency accounting, so a trained
//! tuner can serve repeated queries from many threads in O(1) with a
//! wait-free hit path; the `isaac-serve` crate adds sharding, batching
//! and single-flight coalescing on top.
//! Dataset generation
//! ([`dataset`]) and sampler calibration ([`sampling`]) fan out the same
//! way, with per-sample seeding that keeps results independent of the
//! thread count.

pub mod dataset;
pub mod durability;
pub mod features;
pub mod inference;
mod ops;
pub mod optimizers;
pub mod sampling;
pub mod tuner;

pub use dataset::{
    generate_conv_dataset, generate_gemm_dataset, generate_sparse_dataset, DatasetOptions, OpKind,
};
pub use durability::{
    crc32, decode_wal, encode_record, CacheJournal, DurabilityIo, FaultIo, FaultPlan, StdIo,
    WalDecode, WalRecord, WalWriter,
};
pub use inference::{
    engine_stats, infer, infer_conv_staged, infer_gemm_staged, infer_staged, rebench,
    CascadeConfig, EngineStats, InferOptions, StageBreakdown, TunedChoice,
};
pub use ops::{enumerate_legal_conv, enumerate_legal_gemm, enumerate_legal_sparse};
// The sparse family's input types are part of the tuner's public
// currency (`KeyShape::Sparse`, `TuneKey::sparse`), so re-export them
// alongside it for downstream crates -- plus the seeded matrix
// generators and reference kernels the bench/serve harnesses drive the
// family with.
pub use isaac_sparse::{csr as sparse_csr, kernels as sparse_kernels};
pub use isaac_sparse::{space_size as sparse_space_size, Csr, SparseOp, SparseShape};
pub use optimizers::{exhaustive, genetic, simulated_annealing, SearchResult};
pub use sampling::{acceptance_rate, cfg_seed, mix_seed, CategoricalSampler, UniformSampler};
pub use tuner::{
    read_cache_file, read_cache_text, CacheConfig, CacheLoadReport, CacheStats, EvictionPolicy,
    IsaacTuner, KeyShape, RaceHook, ShapeKey, TrainOptions, TuneCache, TuneKey, WarmStartReport,
};
