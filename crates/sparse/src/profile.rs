//! Analytical kernel profiles for the sparse family, derived in closed
//! form from the tuning configuration and the *structural summary* of
//! the input (never the full matrix -- profiles must be computable from
//! a `SparseShape` alone so cold tuning needs no materialized CSR).
//!
//! The modeling choices follow the memory-bound-kernel playbook: 128
//! threads per block, per-thread work scaled by the row-length
//! imbalance (`1 + cv/2`, the straggler-warp effect), gather traffic
//! priced per 32-byte sector with a locality discount when the band or
//! the block structure keeps consecutive gathers in the same sector,
//! and the level-scheduled solves charged one global synchronization
//! per dependency level.

use crate::shape::{SparseOp, SparseShape};
use crate::space;
use isaac_device::{DeviceSpec, InstrMix, KernelProfile, Launch, MemoryFootprint};
use isaac_gen::{ConfigIssue, GemmConfig};
use std::fmt::Write;

/// Threads per block for every sparse kernel (memory-bound kernels get
/// small blocks so the scheduler can spread them across SMs).
pub const BLOCK_THREADS: u32 = 128;

const SECTOR: f64 = 32.0;

/// A dependency level ends with a *grid-wide* synchronization, which
/// costs kernel-launch-scale latency (~1us), not the 30 cycles the
/// device model charges for a block-level barrier. This factor converts
/// one level sync into block-barrier units.
const GRID_SYNC_BARRIERS: f64 = 45.0;

/// Dependency levels of a level-scheduled sweep: roughly one level per
/// `bandwidth` rows, since a row can only depend on rows within the
/// band below it.
fn nlevels(shape: &SparseShape) -> f64 {
    (shape.rows as f64 / shape.bandwidth.max(1) as f64).clamp(1.0, shape.rows as f64)
}

/// How many gather loads share one 32-byte sector of `x`. Two sources
/// of locality: a narrow band concentrates a row's columns into a small
/// window, and dense blocks make consecutive columns adjacent.
fn gather_sharing(shape: &SparseShape, ds: f64) -> f64 {
    let elems_per_sector = SECTOR / ds;
    let band_window = 2.0 * shape.bandwidth as f64 + 1.0;
    let band_share = elems_per_sector * (shape.row_mean() / band_window).min(1.0);
    let block_share = 16.0 * shape.block_density();
    band_share.max(block_share).clamp(1.0, elems_per_sector)
}

/// A sparse kernel's name: the shape's name, then the row block, unroll,
/// split and vector width, written into one buffer.
fn kernel_name(cfg: &GemmConfig, shape: &SparseShape) -> String {
    let mut name = String::with_capacity(80);
    shape.write_name(&mut name);
    let _ = write!(name, "_rb{}_u{}_s{}_v{}", cfg.ms, cfg.u, cfg.ks, cfg.vec);
    name
}

/// Analytical profile of a sparse kernel.
pub fn sparse_profile(
    cfg: &GemmConfig,
    shape: &SparseShape,
    _spec: &DeviceSpec,
) -> Result<KernelProfile, ConfigIssue> {
    space::check(cfg, shape)?;
    let ds = shape.dtype.size_bytes() as f64;
    let rows = shape.rows as f64;
    let nnz = shape.nnz as f64;
    let (rb, u, ks, vec) = (cfg.ms as f64, cfg.u as f64, cfg.ks as f64, cfg.vec as f64);
    // SymGS touches every row twice per sweep (forward + backward).
    let sweeps = match shape.op {
        SparseOp::Spmv | SparseOp::Sptrsv => 1.0,
        SparseOp::Symgs => 2.0,
    };

    // ---- per-thread instruction mix --------------------------------------
    // The longest-row straggler sets a warp's pace; cv/2 is the average
    // padding a warp pays over perfectly even rows.
    let imbalance = 1.0 + 0.5 * shape.row_cv();
    let nnz_t = sweeps * rb * shape.row_mean() * imbalance;
    let instr = InstrMix {
        // One FMA per nonzero, plus folding the split accumulators.
        math: nnz_t + sweeps * (ks - 1.0) * rb,
        flops_per_math: 2.0,
        // Streamed value+index loads (vectorized) plus the scalar gather
        // of x, plus the row-pointer reads.
        ldg: nnz_t * (2.0 / vec + 1.0) + sweeps * (rb + 1.0),
        ldg_bytes: vec * ds,
        stg: sweeps * rb,
        stg_bytes: ds,
        lds: 0.0,
        sts: 0.0,
        atom: 0.0,
        // Column decode + address bumps per nonzero; unrolling amortizes
        // the loop compare/branch.
        misc: nnz_t * (2.0 + 3.0 / u) + sweeps * (rb * 8.0 + 30.0),
        // Level-scheduled sweeps synchronize grid-wide once per
        // dependency level.
        barriers: match shape.op {
            SparseOp::Spmv => 0.0,
            SparseOp::Sptrsv => nlevels(shape) * GRID_SYNC_BARRIERS,
            SparseOp::Symgs => 2.0 * nlevels(shape) * GRID_SYNC_BARRIERS,
        },
    };

    // ---- memory traffic ---------------------------------------------------
    let matrix_bytes = nnz * (ds + 4.0);
    let rowptr_bytes = 4.0 * (rows + 1.0);
    let gather_bytes = nnz * SECTOR / gather_sharing(shape, ds);
    let mem = MemoryFootprint {
        read_bytes: sweeps * (matrix_bytes + rowptr_bytes + gather_bytes),
        unique_read_bytes: matrix_bytes + rowptr_bytes + rows * ds,
        write_bytes: sweeps * rows * ds,
        atomic_bytes: 0.0,
        wave_reuse_fraction: 0.0,
        wave_working_set: rows * ds,
    };

    let grid_x = (shape.rows as u64).div_ceil(BLOCK_THREADS as u64 * cfg.ms as u64) as u32;
    Ok(KernelProfile {
        name: kernel_name(cfg, shape),
        launch: Launch {
            grid: [grid_x.max(1), 1, 1],
            block_threads: BLOCK_THREADS,
        },
        regs_per_thread: 16 + 2 * cfg.vec + 2 * cfg.ks * cfg.ms.min(8),
        smem_per_block: 0,
        instr,
        mem,
        // The dependency chain through a row's accumulator is broken ks
        // ways; the solves are chained through x and expose neither ILP
        // nor MLP beyond a single outstanding load.
        ilp: if shape.op == SparseOp::Sptrsv {
            1.0
        } else {
            ks
        },
        mlp: if shape.op == SparseOp::Sptrsv {
            1.0
        } else {
            (u * vec).min(8.0)
        },
        dtype: shape.dtype,
        useful_flops: shape.flops(),
        misc_discount: 1.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr;
    use crate::shape::SparseShape;
    use isaac_device::specs::{gtx980ti, tesla_p100};
    use isaac_device::{simulate, DType};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn shape(op: SparseOp) -> SparseShape {
        SparseShape {
            op,
            rows: 65_536,
            nnz: 1_966_080,
            row_mean_milli: 30_000,
            row_cv_milli: 400,
            row_max: 96,
            bandwidth: 4_096,
            block_density_milli: 120,
            dtype: DType::F32,
        }
    }

    /// The `format!` name builders the buffer writers replaced.
    fn shape_name_reference(s: &SparseShape) -> String {
        format!(
            "{}{}_r{}_z{}_m{}_c{}_x{}_b{}_d{}",
            s.dtype.blas_prefix(),
            s.op.tag(),
            s.rows,
            s.nnz,
            s.row_mean_milli,
            s.row_cv_milli,
            s.row_max,
            s.bandwidth,
            s.block_density_milli,
        )
    }

    fn kernel_name_reference(cfg: &GemmConfig, s: &SparseShape) -> String {
        format!(
            "{}_rb{}_u{}_s{}_v{}",
            shape_name_reference(s),
            cfg.ms,
            cfg.u,
            cfg.ks,
            cfg.vec
        )
    }

    /// Names seed the profiler's noise and appear in cache and WAL text,
    /// so the buffer writers must match the old builders byte for byte.
    #[test]
    fn kernel_names_match_the_format_builders() {
        let mut rng = StdRng::seed_from_u64(0x5350_4E4D);
        let field = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => u32::MAX,
            1 => rng.gen_range(0..10u32),
            _ => rng.gen_range(0..2_000_000u32),
        };
        for round in 0..300 {
            let s = SparseShape {
                op: SparseOp::ALL[round % 3],
                rows: field(&mut rng),
                nnz: field(&mut rng),
                row_mean_milli: field(&mut rng),
                row_cv_milli: field(&mut rng),
                row_max: field(&mut rng),
                bandwidth: field(&mut rng),
                block_density_milli: field(&mut rng),
                dtype: DType::ALL[round / 3 % 3],
            };
            assert_eq!(s.name(), shape_name_reference(&s));
            let cfg = GemmConfig {
                ms: field(&mut rng),
                u: field(&mut rng),
                ks: field(&mut rng),
                vec: field(&mut rng),
                ..GemmConfig::default()
            };
            assert_eq!(kernel_name(&cfg, &s), kernel_name_reference(&cfg, &s));
        }
        // Every legal point of every op, through the real profile builder.
        let mut legal = 0;
        for op in SparseOp::ALL {
            let s = shape(op);
            for cfg in crate::space_table() {
                if let Ok(p) = sparse_profile(cfg, &s, &tesla_p100()) {
                    assert_eq!(p.name, kernel_name_reference(cfg, &s));
                    legal += 1;
                }
            }
        }
        assert!(legal > 0);
    }

    #[test]
    fn profiles_simulate_on_both_devices() {
        for op in SparseOp::ALL {
            let s = shape(op);
            for spec in [gtx980ti(), tesla_p100()] {
                let p = sparse_profile(&space::heuristic_config(), &s, &spec).expect("legal");
                assert!(p.is_plausible());
                let r = simulate(&spec, &p).expect("simulates");
                assert!(r.time_s > 0.0 && r.time_s.is_finite());
                let peak = spec.peak_flops(DType::F32) / 1e12;
                assert!(
                    r.tflops > 0.0 && r.tflops < 0.2 * peak,
                    "sparse kernels are memory-bound: {} TFLOPS vs {peak} peak on {}",
                    r.tflops,
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_legal_config_produces_a_distinct_simulable_profile() {
        let s = shape(SparseOp::Spmv);
        let spec = tesla_p100();
        let mut names = std::collections::HashSet::new();
        let mut legal = 0;
        for cfg in space::space_table() {
            let Ok(p) = sparse_profile(cfg, &s, &spec) else {
                continue;
            };
            legal += 1;
            assert!(names.insert(p.name.clone()), "duplicate name {}", p.name);
            simulate(&spec, &p).expect("legal profiles must simulate");
        }
        assert!(legal >= 50, "only {legal} legal configs");
    }

    #[test]
    fn structure_moves_the_model() {
        let spec = tesla_p100();
        let cfg = space::heuristic_config();

        // A narrow band gathers locally; random scatter pays full sectors.
        let banded = SparseShape::from_csr(SparseOp::Spmv, &csr::banded(4096, 4, 1), DType::F32);
        let scattered =
            SparseShape::from_csr(SparseOp::Spmv, &csr::random_uniform(4096, 8, 1), DType::F32);
        let pb = sparse_profile(&cfg, &banded, &spec).unwrap();
        let ps = sparse_profile(&cfg, &scattered, &spec).unwrap();
        let per_nnz = |p: &KernelProfile, s: &SparseShape| p.mem.read_bytes / s.nnz as f64;
        assert!(
            per_nnz(&ps, &scattered) > 1.5 * per_nnz(&pb, &banded),
            "scattered gathers must cost more per nonzero: {} vs {}",
            per_nnz(&ps, &scattered),
            per_nnz(&pb, &banded)
        );

        // Skewed rows inflate per-thread work.
        let mut even = shape(SparseOp::Spmv);
        even.row_cv_milli = 0;
        let mut skewed = even;
        skewed.row_cv_milli = 2_000;
        let pe = sparse_profile(&cfg, &even, &spec).unwrap();
        let pk = sparse_profile(&cfg, &skewed, &spec).unwrap();
        assert!(pk.instr.math > 1.5 * pe.instr.math);
    }

    #[test]
    fn level_scheduling_costs_barriers() {
        let spec = tesla_p100();
        let cfg = space::heuristic_config();
        let spmv = sparse_profile(&cfg, &shape(SparseOp::Spmv), &spec).unwrap();
        let trsv = sparse_profile(&cfg, &shape(SparseOp::Sptrsv), &spec).unwrap();
        let gs = sparse_profile(&cfg, &shape(SparseOp::Symgs), &spec).unwrap();
        assert_eq!(spmv.instr.barriers, 0.0);
        assert!(trsv.instr.barriers >= 1.0);
        assert_eq!(gs.instr.barriers, 2.0 * trsv.instr.barriers);

        // Narrower bands mean more levels and a slower solve.
        let mut narrow = shape(SparseOp::Sptrsv);
        narrow.bandwidth = 64;
        let pn = sparse_profile(&cfg, &narrow, &spec).unwrap();
        let rn = simulate(&spec, &pn).unwrap();
        let rw = simulate(&spec, &trsv).unwrap();
        assert!(
            rn.time_s > rw.time_s,
            "narrow-band solve should be slower: {} vs {}",
            rn.time_s,
            rw.time_s
        );
    }

    #[test]
    fn vectorized_loads_cut_instruction_count() {
        let spec = tesla_p100();
        let scalar = space::heuristic_config();
        let mut vec4 = scalar;
        vec4.vec = 4;
        let s = shape(SparseOp::Spmv);
        let p1 = sparse_profile(&scalar, &s, &spec).unwrap();
        let p4 = sparse_profile(&vec4, &s, &spec).unwrap();
        assert!(p4.instr.ldg < p1.instr.ldg);
    }

    #[test]
    fn illegal_configs_are_rejected() {
        let spec = tesla_p100();
        let mut cfg = space::heuristic_config();
        cfg.ks = 2;
        assert!(sparse_profile(&cfg, &shape(SparseOp::Sptrsv), &spec).is_err());
        assert!(sparse_profile(&cfg, &shape(SparseOp::Spmv), &spec).is_ok());
    }
}
