//! Analytical kernel profiles: instruction mix, resources and memory
//! traffic, derived in closed form from the tuning configuration.
//!
//! These are the `x -> features` half of the paper's pipeline: every
//! quantity here is a deterministic function of (input, tuning) parameters,
//! mirroring what static analysis of the generated PTX would produce. A
//! cross-check test validates the analytic counts against the VM's dynamic
//! statistics.

use crate::config::{BoundsMode, GemmConfig};
use crate::conv::equivalent_gemm;
use crate::legality::{self, ConfigIssue};
use crate::shapes::{ConvShape, GemmShape};
use isaac_device::{
    occupancy, DType, DeviceSpec, InstrMix, KernelProfile, Launch, MemoryFootprint,
};

fn frag_width(x: u32) -> u32 {
    if x.is_multiple_of(4) {
        4
    } else if x.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// Shared-memory bytes actually allocated by the generated kernels: the A
/// and B tiles in data precision plus, when KL > 1, the reduction buffer in
/// accumulator precision.
pub fn smem_bytes(cfg: &GemmConfig, dtype: DType) -> u32 {
    let ds = dtype.size_bytes() as u32;
    let acc = match dtype {
        DType::F16 | DType::F32 => 4,
        DType::F64 => 8,
    };
    let tiles = (cfg.ml + cfg.nl) * cfg.uk() * ds;
    let red = if cfg.kl > 1 { cfg.ml * cfg.nl * acc } else { 0 };
    tiles + red
}

/// What kind of kernel a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gemm { trans_a: bool, trans_b: bool },
    Conv,
}

/// Analytical profile of a GEMM kernel.
pub fn gemm_profile(
    cfg: &GemmConfig,
    shape: &GemmShape,
    spec: &DeviceSpec,
) -> Result<KernelProfile, ConfigIssue> {
    legality::check(cfg, shape, spec)?;
    Ok(build(
        cfg,
        shape,
        spec,
        Kind::Gemm {
            trans_a: shape.trans_a,
            trans_b: shape.trans_b,
        },
        cfg.name(shape),
        (shape.a_len() + shape.b_len()) as f64 * shape.dtype.size_bytes() as f64,
    ))
}

/// Analytical profile of a convolution kernel (implicit GEMM view).
pub fn conv_profile(
    cfg: &GemmConfig,
    shape: &ConvShape,
    spec: &DeviceSpec,
) -> Result<KernelProfile, ConfigIssue> {
    crate::conv::check(cfg, shape, spec)?;
    let g = equivalent_gemm(shape);
    let unique = (shape.i_len() + shape.f_len()) as f64 * shape.dtype.size_bytes() as f64
        + shape.crs() as f64 * 4.0;
    Ok(build(
        cfg,
        &g,
        spec,
        Kind::Conv,
        conv_kernel_name(cfg, shape, &g),
        unique,
    ))
}

/// A convolution kernel's name: the shape's name, then the name of the
/// configuration on the equivalent GEMM `g`, written into one buffer.
fn conv_kernel_name(cfg: &GemmConfig, shape: &ConvShape, g: &GemmShape) -> String {
    let mut name = String::with_capacity(96);
    shape.write_name(&mut name);
    name.push('_');
    cfg.write_name(g, &mut name);
    name
}

fn build(
    cfg: &GemmConfig,
    g: &GemmShape,
    spec: &DeviceSpec,
    kind: Kind,
    name: String,
    unique_read_bytes: f64,
) -> KernelProfile {
    let ds = g.dtype.size_bytes() as f64;
    let threads = cfg.threads();
    let uk = cfg.uk() as f64;
    let kchunk = cfg.kchunk(g) as f64;
    let iters = (kchunk / uk).ceil().max(1.0);
    let na = cfg.loads_a() as f64;
    let nb = cfg.loads_b() as f64;
    let (ms, ns, u) = (cfg.ms as f64, cfg.ns as f64, cfg.u as f64);
    let va = frag_width(cfg.ms) as f64;
    let vb = frag_width(cfg.ns) as f64;
    let vec = cfg.vec as f64;

    // fp16x2 packing: two MACs per instruction along the NS axis.
    let packed = g.dtype == DType::F16 && cfg.ns.is_multiple_of(2);
    let (math_per_iter, flops_per_math) = if packed {
        (u * ms * ns / 2.0, 4.0)
    } else {
        (u * ms * ns, 2.0)
    };

    // Shared-store decomposition: a load whose global vector is orthogonal
    // to the tile's contiguous axis stores `vec` scalars (the in-place
    // transposition of Section 3.2).
    let (cont_a, cont_b) = match kind {
        Kind::Gemm { trans_a, trans_b } => (!trans_a, trans_b),
        Kind::Conv => (true, true),
    };
    let sts_per_iter = na * if cont_a { 1.0 } else { vec } + nb * if cont_b { 1.0 } else { vec };
    let lds_per_iter = u * (ms / va + ns / vb);
    let lut_ldg = match kind {
        Kind::Conv => nb,
        _ => 0.0,
    };
    let ldg_per_iter = na + nb + lut_ldg;
    // Per load: setp + and + address bump + k bump, plus the emitter's
    // zero-fill moves ahead of each guarded load; conv patch loads add the
    // shl/cvt/add around the table lookup.
    let mut misc_per_iter = (na + nb) * (4.0 + vec)
        + match kind {
            Kind::Conv => nb * 4.0,
            _ => 0.0,
        }
        + 2.0; // loop counter + compare/branch
    match cfg.bounds {
        BoundsMode::PtxPredicated => {}
        // Explicit compare/branch guards around every memory access, the
        // unrolled fragment loads included: the CUDA-C backend cost.
        BoundsMode::CudaStyle => misc_per_iter += 3.0 * (lds_per_iter + na + nb),
        // Padding removes per-load predication (setp+and) entirely.
        BoundsMode::Padded => misc_per_iter -= 2.0 * (na + nb),
    }

    // Epilogue.
    let msns = ms * ns;
    let ks_fold_math = (cfg.ks as f64 - 1.0) * msns;
    let (kl_lds, kl_sts, kl_math, kl_barriers) = if cfg.kl > 1 {
        let kl = cfg.kl as f64;
        (msns * kl, msns * kl, msns * (kl - 1.0), kl)
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    let writeout_misc = ns * 6.0 + ms + msns;
    let writeout_mem = msns;

    let prologue_misc = 30.0
        + 10.0 * (na + nb)
        + match kind {
            Kind::Conv => 8.0 * nb,
            _ => 0.0,
        };

    let instr = InstrMix {
        math: math_per_iter * iters + ks_fold_math + kl_math,
        flops_per_math,
        ldg: ldg_per_iter * iters,
        ldg_bytes: vec * ds,
        stg: if cfg.kg > 1 { 0.0 } else { writeout_mem },
        stg_bytes: ds,
        lds: lds_per_iter * iters + kl_lds,
        sts: sts_per_iter * iters + kl_sts,
        atom: if cfg.kg > 1 { writeout_mem } else { 0.0 },
        misc: misc_per_iter * iters + prologue_misc + writeout_misc,
        barriers: 2.0 * iters + kl_barriers,
    };

    // ---- memory traffic -------------------------------------------------
    let grid = cfg.grid(g);
    let blocks_xy = grid[0] as f64 * grid[1] as f64;
    let (ml, nl) = (cfg.ml as f64, cfg.nl as f64);
    let mut read_bytes = blocks_xy * cfg.kg as f64 * (ml + nl) * (iters * uk) * ds + lut_ldg * 0.0;
    if matches!(kind, Kind::Conv) {
        // Table traffic: 4 bytes per slice entry per block column.
        read_bytes += blocks_xy * cfg.kg as f64 * (iters * uk) * 4.0;
    }
    let c_bytes = g.m as f64 * g.n as f64 * ds;
    let mut write_bytes = c_bytes;
    let mut atomic_bytes = 0.0;
    if cfg.kg > 1 {
        // Zero-initialization pass plus KG atomic accumulations.
        write_bytes += c_bytes;
        atomic_bytes = c_bytes * cfg.kg as f64;
    }
    let mut unique = unique_read_bytes;
    if cfg.bounds == BoundsMode::Padded {
        // Host-side padded copies: read+write both operands, and the
        // padded output is copied back.
        let a_pad = grid[0] as f64 * ml * g.k as f64 * ds;
        let b_pad = grid[1] as f64 * nl * g.k as f64 * ds;
        let c_pad = grid[0] as f64 * ml * grid[1] as f64 * nl * ds;
        read_bytes += a_pad + b_pad + c_pad;
        write_bytes += a_pad + b_pad + c_pad;
        unique += a_pad + b_pad;
    }

    // ---- wave-level reuse -------------------------------------------------
    let regs = legality::estimate_regs(cfg, g.dtype);
    let smem = smem_bytes(cfg, g.dtype);
    let launch = Launch {
        grid,
        block_threads: threads,
    };
    let mut profile = KernelProfile {
        name,
        launch,
        regs_per_thread: regs,
        smem_per_block: smem,
        instr,
        mem: MemoryFootprint::default(),
        ilp: ms * ns * cfg.ks as f64,
        mlp: na + nb + lut_ldg,
        dtype: g.dtype,
        useful_flops: g.flops(),
        misc_discount: 1.0,
    };
    let occ = occupancy::occupancy(spec, &profile);
    let resident = (spec.sm_count as f64 * occ.blocks_per_sm as f64)
        .min(launch.blocks() as f64)
        .max(1.0);
    let gm = grid[0] as f64;
    let distinct_a = resident.min(gm);
    let distinct_b = (resident / gm).ceil().min(grid[1] as f64).max(1.0);
    let reuse_a = (1.0 - distinct_a / resident).max(0.0);
    let reuse_b = (1.0 - distinct_b / resident).max(0.0);
    let fa = ml / (ml + nl);
    // Deeper prefetch widens the window in which co-resident blocks touch
    // the same panel slice before it is evicted (Section 8.1).
    let drift = u / (u + 4.0);
    profile.mem = MemoryFootprint {
        read_bytes,
        unique_read_bytes: unique,
        write_bytes,
        atomic_bytes,
        wave_reuse_fraction: (fa * reuse_a + (1.0 - fa) * reuse_b) * drift,
        wave_working_set: (distinct_a * ml + distinct_b * nl) * uk * ds * 4.0,
    };
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv, gemm};
    use isaac_device::simulate;
    use isaac_device::specs::{gtx980ti, tesla_p100};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// The `format!` name builders the buffer writers replaced.
    fn gemm_shape_name_reference(s: &GemmShape) -> String {
        format!(
            "{}gemm_{}_{}x{}x{}",
            s.dtype.blas_prefix(),
            s.layout().to_lowercase(),
            s.m,
            s.n,
            s.k
        )
    }

    fn conv_shape_name_reference(s: &ConvShape) -> String {
        format!(
            "{}conv_n{}_c{}_k{}_{}x{}_r{}s{}",
            s.dtype.blas_prefix(),
            s.n,
            s.c,
            s.k,
            s.p(),
            s.q(),
            s.r,
            s.s
        )
    }

    fn config_name_reference(c: &GemmConfig, s: &GemmShape) -> String {
        format!(
            "{}gemm_{}_ml{}x{}_ms{}x{}_u{}_k{}.{}.{}_v{}",
            s.dtype.blas_prefix(),
            s.layout().to_lowercase(),
            c.ml,
            c.nl,
            c.ms,
            c.ns,
            c.u,
            c.ks,
            c.kl,
            c.kg,
            c.vec
        )
    }

    /// Names seed the profiler's noise and appear in cache and WAL text,
    /// so the buffer writers must match the old builders byte for byte.
    #[test]
    fn kernel_names_match_the_format_builders() {
        let mut rng = StdRng::seed_from_u64(0x4E41_4D45);
        let field = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => u32::MAX,
            1 => rng.gen_range(0..10u32),
            _ => rng.gen_range(0..100_000u32),
        };
        for round in 0..400 {
            let dtype = DType::ALL[round % 3];
            let (ta, tb) = ["N", "T"]
                .iter()
                .flat_map(|a| ["N", "T"].map(|b| (*a, b)))
                .nth(round / 3 % 4)
                .unwrap();
            let gemm = GemmShape::new(
                field(&mut rng),
                field(&mut rng),
                field(&mut rng),
                ta,
                tb,
                dtype,
            );
            assert_eq!(gemm.name(), gemm_shape_name_reference(&gemm));
            let (r, s) = (field(&mut rng).max(1), field(&mut rng).max(1));
            let conv = ConvShape {
                n: field(&mut rng),
                c: field(&mut rng),
                h: r.max(field(&mut rng)),
                w: s.max(field(&mut rng)),
                k: field(&mut rng),
                r,
                s,
                dtype,
            };
            assert_eq!(conv.name(), conv_shape_name_reference(&conv));
            let cfg = GemmConfig {
                ms: field(&mut rng),
                ns: field(&mut rng),
                ml: field(&mut rng),
                nl: field(&mut rng),
                u: field(&mut rng),
                ks: field(&mut rng),
                kl: field(&mut rng),
                kg: field(&mut rng),
                vec: field(&mut rng),
                ..Default::default()
            };
            assert_eq!(cfg.name(&gemm), config_name_reference(&cfg, &gemm));
            let g = GemmShape {
                trans_b: round % 2 == 1,
                ..gemm
            };
            assert_eq!(
                conv_kernel_name(&cfg, &conv, &g),
                format!("{}_{}", conv.name(), cfg.name(&g))
            );
        }
        // A rectangular-filter CONV through the real profile builder.
        let conv = ConvShape::from_output(8, 13, 17, 64, 32, 3, 5, DType::F32);
        let cfg = crate::conv::legal_class(&conv, &tesla_p100())
            .configs()
            .next()
            .expect("a legal config");
        let p = conv_profile(&cfg, &conv, &tesla_p100()).unwrap();
        let g = equivalent_gemm(&conv);
        assert_eq!(
            p.name,
            format!(
                "{}_{}",
                conv_shape_name_reference(&conv),
                config_name_reference(&cfg, &g)
            )
        );
    }

    /// The analytic instruction mix must agree with the VM's dynamic
    /// counts within a modest tolerance (the analytic side also charges
    /// emitter-expanded zero-fill moves that the VM folds into loads).
    #[test]
    fn analytic_mix_matches_vm_stats_gemm() {
        let cases = [
            (
                GemmConfig {
                    ml: 32,
                    nl: 32,
                    ms: 4,
                    ns: 4,
                    u: 8,
                    vec: 4,
                    ..Default::default()
                },
                GemmShape::new(64, 64, 64, "N", "T", DType::F32),
            ),
            (
                GemmConfig {
                    ml: 16,
                    nl: 16,
                    ms: 2,
                    ns: 2,
                    u: 4,
                    kl: 2,
                    kg: 2,
                    vec: 1,
                    ..Default::default()
                },
                GemmShape::new(32, 32, 64, "T", "N", DType::F32),
            ),
        ];
        for (cfg, shape) in cases {
            let p = gemm_profile(&cfg, &shape, &tesla_p100()).expect("legal");
            let a = rand_vec(shape.a_len(), 1);
            let b = rand_vec(shape.b_len(), 2);
            let (_, stats) = gemm::run_f32(&cfg, &shape, &a, &b).unwrap();
            let per = stats.per_thread();
            let close = |got: f64, want: f64, what: &str, tol: f64| {
                let rel = (got - want).abs() / want.max(1.0);
                assert!(rel < tol, "{what}: analytic {want}, vm {got} (cfg {cfg:?})");
            };
            close(per.math, p.instr.math, "math", 0.15);
            close(per.ldg, p.instr.ldg, "ldg", 0.15);
            close(per.lds, p.instr.lds, "lds", 0.15);
            close(per.sts, p.instr.sts, "sts", 0.15);
            close(per.barriers, p.instr.barriers, "barriers", 0.15);
            close(per.misc, p.instr.misc, "misc", 0.6);
        }
    }

    #[test]
    fn analytic_mix_matches_vm_stats_conv() {
        let cfg = GemmConfig {
            ml: 16,
            nl: 16,
            ms: 2,
            ns: 2,
            u: 8,
            vec: 1,
            ..Default::default()
        };
        let shape = ConvShape::from_output(4, 4, 4, 16, 16, 3, 3, DType::F32);
        let p = conv_profile(&cfg, &shape, &tesla_p100()).expect("legal");
        let input = rand_vec(shape.i_len(), 3);
        let filters = rand_vec(shape.f_len(), 4);
        let (_, stats) = conv::run_f32(&cfg, &shape, &input, &filters).unwrap();
        let per = stats.per_thread();
        let rel = |got: f64, want: f64| (got - want).abs() / want.max(1.0);
        assert!(
            rel(per.math, p.instr.math) < 0.15,
            "math {} vs {}",
            per.math,
            p.instr.math
        );
        assert!(
            rel(per.ldg, p.instr.ldg) < 0.15,
            "ldg {} vs {}",
            per.ldg,
            p.instr.ldg
        );
        assert!(
            rel(per.sts, p.instr.sts) < 0.15,
            "sts {} vs {}",
            per.sts,
            p.instr.sts
        );
    }

    #[test]
    fn profiles_simulate_on_both_devices() {
        let cfg = GemmConfig::default();
        let shape = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32);
        for spec in [gtx980ti(), tesla_p100()] {
            let p = gemm_profile(&cfg, &shape, &spec).expect("legal");
            let r = simulate(&spec, &p).expect("simulates");
            let eff = r.tflops * 1e12 / spec.peak_flops(DType::F32);
            assert!(
                (0.5..=1.0).contains(&eff),
                "well-tuned square SGEMM should be efficient on {}: {eff}",
                spec.name
            );
        }
    }

    #[test]
    fn skinny_n_wastes_flops_with_wide_tiles() {
        // The Section 8.1 effect: NL = 64 on an N = 16 problem pads 4x.
        let spec = tesla_p100();
        let shape = GemmShape::new(2560, 16, 2560, "N", "N", DType::F32);
        let wide = GemmConfig {
            ml: 128,
            nl: 64,
            ms: 8,
            ns: 8,
            u: 8,
            vec: 4,
            ..Default::default()
        };
        let narrow = GemmConfig {
            ml: 64,
            nl: 16,
            ms: 4,
            ns: 2,
            u: 16,
            kg: 4,
            vec: 2,
            ..Default::default()
        };
        let pw = gemm_profile(&wide, &shape, &spec).unwrap();
        let pn = gemm_profile(&narrow, &shape, &spec).unwrap();
        let rw = simulate(&spec, &pw).unwrap();
        let rn = simulate(&spec, &pn).unwrap();
        assert!(
            rn.tflops > rw.tflops * 1.2,
            "narrow tiles + split-K should win on skinny N: {} vs {}",
            rn.tflops,
            rw.tflops
        );
    }

    #[test]
    fn deep_k_needs_global_split() {
        // ICA: 32x32x60000. Without KG only one block exists.
        let spec = tesla_p100();
        let shape = GemmShape::new(32, 32, 60000, "N", "T", DType::F32);
        let no_split = GemmConfig {
            ml: 32,
            nl: 32,
            ms: 2,
            ns: 2,
            u: 8,
            kl: 2,
            vec: 1,
            ..Default::default()
        };
        let split = GemmConfig { kg: 32, ..no_split };
        let r0 = simulate(&spec, &gemm_profile(&no_split, &shape, &spec).unwrap()).unwrap();
        let r1 = simulate(&spec, &gemm_profile(&split, &shape, &spec).unwrap()).unwrap();
        assert!(
            r1.tflops > 5.0 * r0.tflops,
            "global split-K should give order-of-magnitude gains on deep K: {} vs {}",
            r1.tflops,
            r0.tflops
        );
    }

    #[test]
    fn cuda_style_bounds_cost_double_digits() {
        let spec = tesla_p100();
        let shape = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32);
        let pred = GemmConfig::default();
        let cuda = GemmConfig {
            bounds: BoundsMode::CudaStyle,
            ..pred
        };
        let rp = simulate(&spec, &gemm_profile(&pred, &shape, &spec).unwrap()).unwrap();
        let rc = simulate(&spec, &gemm_profile(&cuda, &shape, &spec).unwrap()).unwrap();
        let loss = 1.0 - rc.tflops / rp.tflops;
        assert!(
            (0.08..=0.3).contains(&loss),
            "CUDA-style bounds checks should cost 10-25%, got {loss}"
        );
    }

    #[test]
    fn fp16_packed_math_counts_half_instructions() {
        let cfg = GemmConfig::default();
        let f32s = GemmShape::new(1024, 1024, 1024, "N", "T", DType::F32);
        let f16s = GemmShape::new(1024, 1024, 1024, "N", "T", DType::F16);
        let spec = tesla_p100();
        let p32 = gemm_profile(&cfg, &f32s, &spec).unwrap();
        let p16 = gemm_profile(&cfg, &f16s, &spec).unwrap();
        assert!((p16.instr.math - p32.instr.math / 2.0).abs() / p32.instr.math < 0.05);
        assert_eq!(p16.instr.flops_per_math, 4.0);
    }

    #[test]
    fn illegal_config_is_rejected() {
        let cfg = GemmConfig {
            ms: 3,
            ..Default::default()
        };
        let shape = GemmShape::new(64, 64, 64, "N", "N", DType::F32);
        assert!(gemm_profile(&cfg, &shape, &tesla_p100()).is_err());
    }
}
