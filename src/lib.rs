//! # isaac-rs
//!
//! A Rust reproduction of **ISAAC** -- "Input-Aware Auto-Tuning of
//! Compute-Bound HPC Kernels" (Tillet & Cox, SC'17): an auto-tuner that
//! does not learn a fixed set of tuning parameters, but a *function* from
//! input characteristics (matrix shapes, data type, transposition layout)
//! to tuning parameters, fitted with an MLP on benchmarking data.
//!
//! Since no NVIDIA GPU is attached, execution and timing are substituted
//! (see `docs/ARCHITECTURE.md`): generated kernels run on a functional
//! lock-step SIMT VM for correctness, and are timed by a calibrated
//! analytical model of the paper's two test devices (GTX 980 Ti /
//! Tesla P100).
//!
//! ## Quickstart
//!
//! ```no_run
//! use isaac::prelude::*;
//!
//! // Train an input-aware GEMM tuner for the Tesla P100 model.
//! let tuner = IsaacTuner::train(
//!     tesla_p100(),
//!     OpKind::Gemm,
//!     TrainOptions::default(),
//! );
//!
//! // Tune a DeepBench-style skinny multiplication...
//! let shape = GemmShape::new(2560, 16, 2560, "N", "N", DType::F32);
//! let choice = tuner.tune_gemm(&shape).unwrap();
//! println!("selected {:?} at {:.2} TFLOPS", choice.config, choice.tflops);
//!
//! // ...and execute the selected kernel on the functional VM.
//! let a = vec![1.0f32; shape.a_len()];
//! let b = vec![1.0f32; shape.b_len()];
//! let c = tuner.gemm_f32(&shape, &a, &b).unwrap();
//! assert_eq!(c.len(), shape.c_len());
//! ```
//!
//! The crates compose bottom-up: [`device`] (device models + analytical
//! simulator), [`ir`] (kernel IR, PTX, functional VM), [`gen`] (GEMM/CONV
//! generators), [`mlp`] (regression), [`core`] (sampling, training,
//! inference -- the paper's contribution), [`baselines`] (cuBLAS/cuDNN
//! stand-ins).
//!
//! Runtime tuning queries run on a parallel, allocation-free engine:
//! model search fans out across cores with bit-deterministic
//! reductions (a coarse-to-fine surrogate cascade prunes the candidate
//! set by default; set `TrainOptions::cascade = None` for the
//! exhaustive path), candidates are scored straight from the legal
//! class's feature rows, a SIMD block at a time, on pooled activation
//! tiles (`isaac_mlp::io::ModelBundle::score_lanes`), and decisions are
//! memoized in a shape-keyed, `RwLock`-guarded `isaac_core::TuneCache`
//! (a size-bounded LRU with per-entry hit counts) -- so tuning methods
//! take `&self` and a trained tuner can serve many threads. [`serve`]
//! adds the deployment front door: a `TuneService` shards tuners per
//! device and answers `submit` with pollable `TuneTicket`s (hits
//! resolve inline, misses coalesce through a waker-driven single-flight
//! and drain on a worker pool, so one OS thread multiplexes many
//! in-flight queries), hot-swaps shards at runtime, snapshots/restores
//! every shard's decisions, and warm-starts fresh shards from a
//! neighbour. `cargo bench -p isaac-bench --bench inference`
//! (queries/sec) and `--bench serving` (batched throughput, in-flight
//! multiplexing, queue latency, warm-start) track the trajectory.

pub use isaac_baselines as baselines;
pub use isaac_core as core;
pub use isaac_device as device;
pub use isaac_gen as gen;
pub use isaac_ir as ir;
pub use isaac_mlp as mlp;
pub use isaac_serve as serve;

/// The most common imports, bundled.
pub mod prelude {
    pub use isaac_baselines::{CublasLike, CudnnLike};
    pub use isaac_core::{IsaacTuner, OpKind, TrainOptions, TunedChoice};
    pub use isaac_device::specs::{gtx980ti, tesla_p100};
    pub use isaac_device::{DType, DeviceSpec, Profiler};
    pub use isaac_gen::shapes::{ConvShape, GemmShape};
    pub use isaac_gen::{BoundsMode, GemmConfig};
    pub use isaac_ir::emit_ptx;
    pub use isaac_serve::{Query, TuneService, TuneTicket, TunerRouter};
}
