//! A real multi-thread fan-out on any host: the rayon shim reads
//! `RAYON_NUM_THREADS` once, so this binary pins it to 4 before any
//! parallel call -- on a 1-core runner every other "parallel" test runs
//! inline -- and checks that the fanned-out engine answers bit for bit
//! like the serial one for a shape of each op family. One test only:
//! the thread count is process-wide.

use isaac::core::features::{CONV_FEATURES, GEMM_FEATURES, SPARSE_FEATURES};
use isaac::core::{infer, sparse_csr, InferOptions, KeyShape, SparseOp, SparseShape};
use isaac::mlp::io::ModelBundle;
use isaac::mlp::{Mlp, Standardizer};
use isaac::prelude::*;

fn random_bundle(features: usize, seed: u64) -> ModelBundle {
    ModelBundle {
        mlp: Mlp::with_hidden(features, &[32, 16], seed),
        standardizer: Standardizer {
            mean: vec![0.25; features],
            std: vec![1.5; features],
        },
        y_mean: 3.0,
        y_std: 0.75,
    }
}

#[test]
fn four_thread_fanout_matches_serial_for_every_family() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert_eq!(rayon::current_num_threads(), 4);

    let profiler = Profiler::new(tesla_p100(), 0xFA);
    let gemm = GemmShape::new(512, 512, 512, "N", "T", DType::F32);
    let conv = ConvShape::from_output(16, 14, 14, 48, 512, 5, 5, DType::F32);
    let a = sparse_csr::random_uniform(2048, 16, 21);
    let sparse = SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32);
    let cases = [
        (KeyShape::Gemm(gemm), GEMM_FEATURES),
        (KeyShape::Conv(conv), CONV_FEATURES),
        (KeyShape::Sparse(sparse), SPARSE_FEATURES),
    ];
    for (shape, features) in cases {
        let bundle = random_bundle(features, 41);
        let opts = |parallel| InferOptions {
            top_k: 25,
            log_features: true,
            parallel,
            cascade: None,
        };
        let par = infer(&bundle, &shape, &profiler, &opts(true)).expect("choice");
        let ser = infer(&bundle, &shape, &profiler, &opts(false)).expect("choice");
        assert_eq!(par.config, ser.config, "{shape:?}");
        assert_eq!(
            par.predicted_gflops.to_bits(),
            ser.predicted_gflops.to_bits()
        );
        assert_eq!(par.tflops.to_bits(), ser.tflops.to_bits());
        assert_eq!(par.time_s.to_bits(), ser.time_s.to_bits());
    }
}
