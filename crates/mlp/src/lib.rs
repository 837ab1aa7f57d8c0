//! A from-scratch multi-layer perceptron for performance regression
//! (paper Section 5).
//!
//! The paper models kernel performance with an MLP over ~20 log-transformed
//! features, trained with mean-square-error loss. This crate implements the
//! full stack with no external ML dependency:
//!
//! * [`matrix::Mat`] -- a minimal row-major f32 matrix with the handful of
//!   cache-friendly products the forward/backward passes need,
//! * [`mlp::Mlp`] -- dense layers, ReLU activations (paper Section 5.2:
//!   "choosing the rectified linear unit activation seems appropriate to
//!   handle maximums"), MSE loss, SGD-with-momentum and Adam optimizers,
//! * [`data`] -- feature standardization and train/validation splits,
//! * [`io`] -- a plain-text serialization format for trained models (kept
//!   dependency-free on purpose; see DESIGN.md).
//!
//! ## The hot inference path
//!
//! Runtime tuning evaluates the model over *every* legal configuration of
//! an input, so the query path is built to be allocation-free and
//! compute-dense:
//!
//! * [`mlp::Mlp::predict_rows`] (and `io::ModelBundle::predict_rows`) take
//!   a flat row-major `&[f32]` buffer plus stride and run the whole
//!   forward pass inside a caller-held [`mlp::ScratchSpace`]. The scratch
//!   ping-pongs activations between two high-water-mark matrices; after
//!   warmup to the largest batch, repeated queries perform zero heap
//!   allocations *and* zero redundant fills
//!   ([`mlp::ScratchSpace::allocations`] / [`mlp::ScratchSpace::filled`]
//!   prove it).
//! * Hidden layers multiply through the register-blocked, lane-split
//!   [`matrix::Mat::mul_bt`] micro-kernel.
//! * A tuning query scores its candidates through the *factored* path:
//!   [`io::ModelBundle::query_prefix`] folds the constant half of the
//!   query's features into first-layer partial sums once
//!   ([`mlp::Mlp::prefix_first_layer`]), and
//!   [`io::ModelBundle::score_lanes`] ([`lanes`]) runs the rest of the
//!   network over candidate suffix rows gathered by position, one
//!   candidate per SIMD lane, on L1-resident activation tiles.
//! * [`mlp::Mlp::collapse_tail`] folds layers `1..` into one affine map --
//!   the cheap surrogate ([`lanes::Pass::Cheap`]) the coarse-to-fine
//!   cascade in `isaac-core` scores every candidate with before spending
//!   the full network on survivors.
//!
//! Results are bit-identical to the allocating `predict_batch` path for
//! any batch split and any prefix/suffix factoring: the lane kernel puts
//! candidates in lanes, never terms of one candidate's sum, so every sum
//! keeps the `Mat` path's order. That is what makes the parallel query
//! engine in `isaac-core` deterministic.
//!
//! ## Training
//!
//! Every shard fits its model before it serves, so [`mlp::Mlp::train`]
//! is most of a shard's set-up. Each mini-batch step runs the forward
//! pass above, then the backward pass: the weight gradient
//! `dW += dZ^T * A` ([`matrix::Mat::add_at_b`]) and the input gradient
//! `dA = dZ * W` ([`matrix::Mat::mul`]), one register-blocked kernel that
//! lists a row's nonzero `dZ` entries without a branch and skips the
//! rest (ReLU zeroes about half), then the ReLU-derivative mask as a
//! select, then the optimizer update. Each gradient element keeps its sum
//! order and skip set on every instruction set, so the trained weights,
//! and the decisions made with them, are the same bits whichever variant
//! the CPU runs.

pub mod data;
pub mod io;
pub mod lanes;
pub mod matrix;
pub mod mlp;
mod simd;

pub use data::{Dataset, Standardizer};
pub use lanes::Pass;
pub use matrix::Mat;
pub use mlp::{
    CheapTail, FirstLayerPrefix, Mlp, Optimizer, ScratchSpace, TrainConfig, TrainReport,
};
