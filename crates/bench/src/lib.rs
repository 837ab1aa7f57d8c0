//! Shared infrastructure for the benchmark harness: the paper's workload
//! tables, tuner caching, and plain-text table rendering.
//!
//! Each paper table/figure has a Criterion bench target regenerating it:
//!
//! | artifact | bench target | function |
//! |---|---|---|
//! | Table 1  | `tables`       | sampler acceptance rates |
//! | Table 2  | `model_quality`| MLP architecture sweep |
//! | Figure 5 | `model_quality`| MSE vs dataset size |
//! | Table 3  | `tables`       | device descriptions |
//! | Table 4/Fig 6 | `gemm_figures` | SGEMM, GTX 980 Ti |
//! | Figure 7 | `gemm_figures` | SGEMM, Tesla P100 |
//! | Figure 8 | `gemm_figures` | H/DGEMM, Tesla P100 |
//! | Table 5/Fig 9 | `conv_figures` | SCONV, GTX 980 Ti |
//! | Figure 10| `conv_figures` | SCONV, Tesla P100 |
//! | Figure 11| `conv_figures` | HCONV, Tesla P100 |
//! | Table 6  | `tables`       | ISAAC parameter choices |
//! | Table 7 (8.1) | `tables`  | ISAAC vs cuBLAS analysis detail |
//! | 8.3 ablation | `ablations`| bounds-checking modes |
//! | 8.2 ablation | `ablations`| split / prefetch sweeps |
//!
//! Experiment sizes honour `ISAAC_SAMPLES`, `ISAAC_EPOCHS`, `ISAAC_T2_TRAIN`
//! and `ISAAC_F5_MAX` (see this crate's README). Trained tuners are cached under
//! `target/isaac-cache/`.

pub mod harness;
pub mod report;
pub mod workloads;
