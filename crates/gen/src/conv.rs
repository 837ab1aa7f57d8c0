//! Multi-channel convolution kernels via implicit GEMM (paper Section 3.3).
//!
//! The convolution is reformulated as an implicit matrix multiplication
//! with `M' = K` (filters), `N' = NPQ` (output pixels) and `K' = CRS`
//! (reduction):
//!
//! * the "A" operand is the filter tensor `F[C][R][S][K]`, whose `k` axis
//!   is fastest -- exactly a column-major `M' x K'` matrix;
//! * the "B" operand is a *virtual* matrix of image patches. Element
//!   `(kk, j)` with `kk = (c*R + r)*S + s` and `j = (p*Q + q)*N + n` lives
//!   at `I[d(kk) + (p*W + q)*N + n]` where the *indirection table*
//!   `d(kk) = ((c*H + r)*W + s)*N` is precomputed on the host
//!   ([`indirection_table`]) and passed as an extra kernel argument. The
//!   expensive `div`/`mod` chains run once per cooperative load in the
//!   prologue; the inner loop only performs one table lookup per slice --
//!   this is the paper's "scrambled while being stored to shared memory,
//!   using an indirection table in order to alleviate integer arithmetics
//!   in the algorithm's inner loop".
//!
//! Tiling, prefetching, and the three reduction splits (`Ks`, `KL` -> CS/CL
//! analogues, `KG` -> CG) are inherited from the GEMM parameterization; the
//! reduction split runs over the flattened `CRS` axis rather than `C` alone
//! (a documented simplification -- see DESIGN.md).

use crate::config::GemmConfig;
use crate::legality::{self, ConfigIssue};
use crate::shapes::{ConvShape, GemmShape};
use isaac_device::{DType, DeviceSpec};
use isaac_ir::ir::Kernel;
use isaac_ir::vm::{Arg, GpuFault, GpuMemory, LaunchStats, Vm};
use isaac_ir::{BinOp, CmpOp, KernelBuilder, Operand, RegId, Sreg, Ty};

/// A lowered convolution kernel plus launch geometry and its host-side
/// indirection table.
#[derive(Debug, Clone)]
pub struct BuiltConv {
    /// Executable IR.
    pub kernel: Kernel,
    /// Grid dimensions.
    pub grid: [u32; 3],
    /// Threads per block.
    pub threads: u32,
    /// K' (=CRS) elements per grid-z slice.
    pub kchunk: u32,
    /// The indirection table `d(kk)`, one entry per `kk` in `0..CRS`.
    pub lut: Vec<i32>,
}

/// The GEMM-shape stand-in used for legality/profiling of a convolution:
/// A is effectively non-transposed (contiguous along `M' = K`), the patch
/// matrix behaves like a transposed B (contiguous along `N'`).
pub fn equivalent_gemm(shape: &ConvShape) -> GemmShape {
    GemmShape {
        m: shape.k,
        n: shape.npq(),
        k: shape.crs(),
        trans_a: false,
        trans_b: true,
        dtype: shape.dtype,
    }
}

/// Legality of a convolution configuration: the implicit-GEMM rules plus
/// batch-alignment of vectorized patch loads (a vector must not cross an
/// image boundary along `n`).
pub fn check(cfg: &GemmConfig, shape: &ConvShape, spec: &DeviceSpec) -> Result<(), ConfigIssue> {
    let g = equivalent_gemm(shape);
    legality::check(cfg, &g, spec)?;
    if cfg.vec > 1 && !shape.n.is_multiple_of(cfg.vec) {
        return Err(ConfigIssue::Vectorization);
    }
    Ok(())
}

/// The physical subset of [`check`] against a precomputed implicit-GEMM
/// view: everything except membership in the curated value lists (and
/// the `equivalent_gemm` conversion, which depends only on the shape).
/// The runtime query engine walks the in-space decoded table, so it
/// hoists both out of its ~500k-candidate loop;
/// `check(cfg, shape, spec) == in_space(cfg).and(check_physical(cfg,
/// &equivalent_gemm(shape), shape.n, spec))` by construction.
pub fn check_physical(
    cfg: &GemmConfig,
    gemm_view: &GemmShape,
    batch_n: u32,
    spec: &DeviceSpec,
) -> Result<(), ConfigIssue> {
    legality::check_physical(cfg, gemm_view, spec)?;
    if cfg.vec > 1 && !batch_n.is_multiple_of(cfg.vec) {
        return Err(ConfigIssue::Vectorization);
    }
    Ok(())
}

/// The legal configurations of a convolution on `spec`, in space order:
/// the class of its implicit-GEMM view with `vec` further capped by the
/// batch size (the one rule [`check_physical`] adds).
pub fn legal_class(shape: &ConvShape, spec: &DeviceSpec) -> legality::LegalClass {
    let key = legality::LegalKey::gemm(&equivalent_gemm(shape), spec).also_contiguous(shape.n);
    legality::class_of(key, spec)
}

/// Compute the indirection table: `d(kk) = ((c*H + r)*W + s) * N` for
/// `kk = (c*R + r)*S + s`.
pub fn indirection_table(shape: &ConvShape) -> Vec<i32> {
    let mut lut = Vec::with_capacity(shape.crs() as usize);
    for c in 0..shape.c {
        for r in 0..shape.r {
            for s in 0..shape.s {
                let d = ((c * shape.h + r) * shape.w + s) * shape.n;
                lut.push(d as i32);
            }
        }
    }
    lut
}

fn data_ty(dtype: DType) -> Ty {
    match dtype {
        DType::F16 => Ty::F16,
        DType::F32 => Ty::F32,
        DType::F64 => Ty::F64,
    }
}

fn acc_ty(dtype: DType) -> Ty {
    match dtype {
        DType::F16 | DType::F32 => Ty::F32,
        DType::F64 => Ty::F64,
    }
}

fn log2_size(ty: Ty) -> i64 {
    match ty.size_bytes() {
        2 => 1,
        4 => 2,
        8 => 3,
        other => panic!("unexpected element size {other}"),
    }
}

fn frag_width(x: u32) -> u8 {
    if x.is_multiple_of(4) {
        4
    } else if x.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// Build the IR kernel for a convolution.
pub fn build_kernel(cfg: &GemmConfig, shape: &ConvShape) -> BuiltConv {
    let g = equivalent_gemm(shape);
    let dty = data_ty(shape.dtype);
    let aty = acc_ty(shape.dtype);
    let dsh = log2_size(dty);
    let ash = log2_size(aty);
    let (ms, ns) = (cfg.ms as usize, cfg.ns as usize);
    let (ml, nl) = (cfg.ml as i64, cfg.nl as i64);
    let u = cfg.u as usize;
    let uk = cfg.uk() as i64;
    let vec = cfg.vec as u8;
    let threads = cfg.threads();
    let (tm, tn) = (cfg.tm() as i64, cfg.tn() as i64);
    let kchunk = cfg.kchunk(&g);
    let big_n = shape.n as i64;
    let big_q = shape.q() as i64;
    let big_w = shape.w as i64;
    let npq = shape.npq() as i64;

    let mut b = KernelBuilder::new(format!("{}_{}", shape.name(), cfg.name(&g)));
    let p_f = b.param_ptr("F", dty);
    let p_i = b.param_ptr("I", dty);
    let p_o = b.param_ptr("O", dty);
    let p_lut = b.param_ptr("lut", Ty::S32);
    let p_kf = b.param_s32("Kf"); // M' = filter count
    let p_npq = b.param_s32("NPQ"); // N'
    let p_crs = b.param_s32("CRS"); // K'
    let p_kchunk = b.param_s32("kchunk");

    let sm_a = b.shared_array("smF", dty, (ml * uk) as usize);
    let sm_b = b.shared_array("smI", dty, (nl * uk) as usize);
    let sm_r = if cfg.kl > 1 {
        Some(b.shared_array("smR", aty, (ml * nl) as usize))
    } else {
        None
    };

    // ---- prologue -------------------------------------------------------
    let f_ptr = b.ld_param(p_f);
    let i_ptr = b.ld_param(p_i);
    let o_ptr = b.ld_param(p_o);
    let lut_ptr = b.ld_param(p_lut);
    let m = b.ld_param(p_kf);
    let n = b.ld_param(p_npq);
    let k = b.ld_param(p_crs);
    let kchunk_r = b.ld_param(p_kchunk);

    let tid = b.sreg(Sreg::TidX);
    let bm = b.sreg(Sreg::CtaIdX);
    let bn = b.sreg(Sreg::CtaIdY);
    let bk = b.sreg(Sreg::CtaIdZ);

    let tidm = b.bin_new(BinOp::Rem, Ty::S32, tid, tm);
    let tmp = b.bin_new(BinOp::Div, Ty::S32, tid, tm);
    let tidn = b.bin_new(BinOp::Rem, Ty::S32, tmp, tn);
    let tidk = b.bin_new(BinOp::Div, Ty::S32, tmp, tn);

    let k0 = b.mul(bk, kchunk_r);
    let k0_end = b.add(k0, kchunk_r);
    let k1 = b.bin_new(BinOp::Min, Ty::S32, k0_end, k);

    // Filter loads: contiguous along M' (the filter index), stride K per
    // crs step -- identical to a non-transposed GEMM A panel with lda = M'.
    let step_f: Operand = {
        let e = b.mul(m, uk);
        let by = b.bin_new(BinOp::Shl, Ty::S32, e, dsh);
        let by64 = b.cvt(Ty::U64, by);
        Operand::Reg(by64)
    };

    struct FilterLoad {
        addr: RegId,
        k_idx: RegId,
        smem_off: RegId,
        span_ok: RegId,
    }
    let stride = (threads * cfg.vec) as i64;
    let mut f_loads = Vec::new();
    for l in 0..cfg.loads_a() as i64 {
        let f = b.mad_s32(tid, vec as i64, l * stride);
        let i = b.bin_new(BinOp::Rem, Ty::S32, f, ml);
        let kk = b.bin_new(BinOp::Div, Ty::S32, f, ml);
        let row = b.mad_s32(bm, ml, i);
        let span_ok = b.setp_new(CmpOp::Lt, row, m);
        let k_idx = b.add(k0, kk);
        let elem = b.mad_s32(k_idx, m, row);
        let byte = b.bin_new(BinOp::Shl, Ty::S32, elem, dsh);
        let byte64 = b.cvt(Ty::U64, byte);
        let addr = b.bin_new(BinOp::Add, Ty::U64, f_ptr, byte64);
        let sm_elem = b.mad_s32(kk, ml, i);
        let smem_off = b.bin_new(BinOp::Shl, Ty::S32, sm_elem, dsh);
        f_loads.push(FilterLoad {
            addr,
            k_idx,
            smem_off,
            span_ok,
        });
    }

    // Patch loads: per load, the pixel offset e(j) is precomputed here
    // (div/mod chains); the inner loop adds the table entry d(kk).
    struct PatchLoad {
        /// u64 base: I + e(j) bytes (loop-invariant).
        base: RegId,
        /// u64 address of lut[kk] (bumped by UK*4 per iteration).
        lut_addr: RegId,
        /// Current k' index.
        k_idx: RegId,
        /// Shared store byte offset.
        smem_off: RegId,
        /// j < NPQ.
        span_ok: RegId,
    }
    let mut i_loads = Vec::new();
    for l in 0..cfg.loads_b() as i64 {
        let f = b.mad_s32(tid, vec as i64, l * stride);
        let j_local = b.bin_new(BinOp::Rem, Ty::S32, f, nl);
        let kk = b.bin_new(BinOp::Div, Ty::S32, f, nl);
        let j = b.mad_s32(bn, nl, j_local);
        let span_ok = b.setp_new(CmpOp::Lt, j, n);
        // Clamp j for address computation: predicated-off lanes must still
        // produce an in-bounds e(j).
        let nmax = b.add(n, -1);
        let j_c = b.bin_new(BinOp::Min, Ty::S32, j, nmax);
        // Decompose j = ((p*Q) + q)*N + n_img.
        let n_img = b.bin_new(BinOp::Rem, Ty::S32, j_c, big_n);
        let pq = b.bin_new(BinOp::Div, Ty::S32, j_c, big_n);
        let q = b.bin_new(BinOp::Rem, Ty::S32, pq, big_q);
        let p = b.bin_new(BinOp::Div, Ty::S32, pq, big_q);
        // e(j) = (p*W + q)*N + n_img.
        let pw = b.mul(p, big_w);
        let pwq = b.bin_new(BinOp::Add, Ty::S32, pw, q);
        let e = b.mad_s32(pwq, big_n, n_img);
        let e_by = b.bin_new(BinOp::Shl, Ty::S32, e, dsh);
        let e64 = b.cvt(Ty::U64, e_by);
        let base = b.bin_new(BinOp::Add, Ty::U64, i_ptr, e64);
        let k_idx = b.add(k0, kk);
        // lut address: lut + k_idx*4.
        let l_by = b.bin_new(BinOp::Shl, Ty::S32, k_idx, 2);
        let l64 = b.cvt(Ty::U64, l_by);
        let lut_addr = b.bin_new(BinOp::Add, Ty::U64, lut_ptr, l64);
        let sm_elem = b.mad_s32(kk, nl, j_local);
        let smem_off = b.bin_new(BinOp::Shl, Ty::S32, sm_elem, dsh);
        i_loads.push(PatchLoad {
            base,
            lut_addr,
            k_idx,
            smem_off,
            span_ok,
        });
    }

    // ---- fragment bases and accumulators --------------------------------
    let t1 = b.mul(tidk, u as i64 * ml);
    let t2 = b.mad_s32(tidm, ms as i64, t1);
    let a_frag_base = b.bin_new(BinOp::Shl, Ty::S32, t2, dsh);
    let t3 = b.mul(tidk, u as i64 * nl);
    let t4 = b.mad_s32(tidn, ns as i64, t3);
    let b_frag_base = b.bin_new(BinOp::Shl, Ty::S32, t4, dsh);

    let acc: Vec<RegId> = (0..cfg.ks as usize * ms * ns).map(|_| b.reg(aty)).collect();
    for &r in &acc {
        b.mov(r, 0.0);
    }
    let a_frag = b.reg_vec(aty, ms);
    let b_frag = b.reg_vec(aty, ns);

    // ---- main loop -------------------------------------------------------
    let va = frag_width(cfg.ms);
    let vb = frag_width(cfg.ns);
    b.for_loop(k0, k1, uk, |b, _kb| {
        for load in &f_loads {
            let in_k = b.setp_new(CmpOp::Lt, load.k_idx, k1);
            let guard = b.pred_and(in_k, load.span_ok);
            let stage = b.reg_vec(dty, vec as usize);
            b.ld_global(stage[0], vec, load.addr, 0, Some(guard));
            b.st_shared(stage[0], vec, sm_a, load.smem_off, 0, None);
            b.bin(BinOp::Add, load.addr, load.addr, step_f);
            b.bin(BinOp::Add, load.k_idx, load.k_idx, uk);
        }
        for load in &i_loads {
            let in_k = b.setp_new(CmpOp::Lt, load.k_idx, k1);
            let guard = b.pred_and(in_k, load.span_ok);
            // One table lookup per slice: d = lut[kk].
            let d = b.reg(Ty::S32);
            b.ld_global(d, 1, load.lut_addr, 0, Some(in_k));
            let d_by = b.bin_new(BinOp::Shl, Ty::S32, d, dsh);
            let d64 = b.cvt(Ty::U64, d_by);
            let addr = b.bin_new(BinOp::Add, Ty::U64, load.base, d64);
            let stage = b.reg_vec(dty, vec as usize);
            b.ld_global(stage[0], vec, addr, 0, Some(guard));
            b.st_shared(stage[0], vec, sm_b, load.smem_off, 0, None);
            b.bin(BinOp::Add, load.lut_addr, load.lut_addr, uk * 4);
            b.bin(BinOp::Add, load.k_idx, load.k_idx, uk);
        }
        b.barrier();
        for kk in 0..u {
            for iv in 0..ms / va as usize {
                b.ld_shared(
                    a_frag[iv * va as usize],
                    va,
                    sm_a,
                    a_frag_base,
                    ((kk as i64 * ml) + (iv as i64 * va as i64)) << dsh,
                );
            }
            for jv in 0..ns / vb as usize {
                b.ld_shared(
                    b_frag[jv * vb as usize],
                    vb,
                    sm_b,
                    b_frag_base,
                    ((kk as i64 * nl) + (jv as i64 * vb as i64)) << dsh,
                );
            }
            let set = kk % cfg.ks as usize;
            for i in 0..ms {
                for j in 0..ns {
                    let dst = acc[set * ms * ns + i * ns + j];
                    b.fma(dst, a_frag[i], b_frag[j]);
                }
            }
        }
        b.barrier();
    });

    // ---- Ks fold ---------------------------------------------------------
    for set in 1..cfg.ks as usize {
        for e in 0..ms * ns {
            let dst = acc[e];
            let src = acc[set * ms * ns + e];
            b.bin(BinOp::Add, dst, dst, src);
        }
    }

    // ---- KL reduction -----------------------------------------------------
    let p_group0 = if cfg.kl > 1 {
        let sm_r = sm_r.expect("smR allocated when KL > 1");
        let t = b.mul(tidn, ns as i64 * ml);
        let t2 = b.mad_s32(tidm, ms as i64, t);
        let red_base = b.bin_new(BinOp::Shl, Ty::S32, t2, ash);
        let p0 = b.setp_new(CmpOp::Eq, tidk, 0);
        for i in 0..ms {
            for j in 0..ns {
                let off = ((j as i64 * ml) + i as i64) << ash;
                b.st_shared(acc[i * ns + j], 1, sm_r, red_base, off, Some(p0));
            }
        }
        b.barrier();
        let tmp = b.reg(aty);
        for gr in 1..cfg.kl as i64 {
            let pg = b.setp_new(CmpOp::Eq, tidk, gr);
            for i in 0..ms {
                for j in 0..ns {
                    let off = ((j as i64 * ml) + i as i64) << ash;
                    b.ld_shared(tmp, 1, sm_r, red_base, off);
                    b.bin(BinOp::Add, tmp, tmp, acc[i * ns + j]);
                    b.st_shared(tmp, 1, sm_r, red_base, off, Some(pg));
                }
            }
            b.barrier();
        }
        for i in 0..ms {
            for j in 0..ns {
                let off = ((j as i64 * ml) + i as i64) << ash;
                b.ld_shared(acc[i * ns + j], 1, sm_r, red_base, off);
            }
        }
        Some(p0)
    } else {
        None
    };

    // ---- write-out: O[row * NPQ + col] (row-major) ------------------------
    let t = b.mul(tidm, ms as i64);
    let row_base = b.mad_s32(bm, ml, t);
    let t = b.mul(tidn, ns as i64);
    let col_base = b.mad_s32(bn, nl, t);
    let col_ok: Vec<RegId> = (0..ns)
        .map(|j| {
            let c = b.add(col_base, j as i64);
            b.setp_new(CmpOp::Lt, c, n)
        })
        .collect();
    for i in 0..ms {
        let row = b.add(row_base, i as i64);
        let row_okp = b.setp_new(CmpOp::Lt, row, m);
        let row_guard = match p_group0 {
            Some(p0) => b.pred_and(row_okp, p0),
            None => row_okp,
        };
        let elem = b.mad_s32(row, npq, col_base);
        let byte = b.bin_new(BinOp::Shl, Ty::S32, elem, dsh);
        let byte64 = b.cvt(Ty::U64, byte);
        let addr = b.bin_new(BinOp::Add, Ty::U64, o_ptr, byte64);
        for (j, &cp) in col_ok.iter().enumerate() {
            let guard = b.pred_and(row_guard, cp);
            let val = acc[i * ns + j];
            let off = (j as i64) << dsh;
            if cfg.kg > 1 {
                b.atom_add_global(val, addr, off, Some(guard));
            } else {
                b.st_global(val, 1, addr, off, Some(guard));
            }
        }
    }

    BuiltConv {
        kernel: b.finish(),
        grid: cfg.grid(&g),
        threads,
        kchunk,
        lut: indirection_table(shape),
    }
}

/// Run a convolution on the VM (f32 or f16 storage as f32 slices).
pub fn run_f32(
    cfg: &GemmConfig,
    shape: &ConvShape,
    input: &[f32],
    filters: &[f32],
) -> Result<(Vec<f32>, LaunchStats), GpuFault> {
    assert_ne!(shape.dtype, DType::F64, "f64 convolutions not benchmarked");
    let built = build_kernel(cfg, shape);
    let mut mem = GpuMemory::new();
    let (bf, bi, bo) = if shape.dtype == DType::F16 {
        (
            mem.alloc_f16(filters),
            mem.alloc_f16(input),
            mem.alloc_f16_zeroed(shape.o_len()),
        )
    } else {
        (
            mem.alloc_f32(filters),
            mem.alloc_f32(input),
            mem.alloc_f32_zeroed(shape.o_len()),
        )
    };
    let blut = mem.alloc_i32(&built.lut);
    let stats = Vm::new().launch(
        &built.kernel,
        built.grid,
        built.threads,
        &[
            Arg::Buf(bf),
            Arg::Buf(bi),
            Arg::Buf(bo),
            Arg::Buf(blut),
            Arg::I32(shape.k as i32),
            Arg::I32(shape.npq() as i32),
            Arg::I32(shape.crs() as i32),
            Arg::I32(built.kchunk as i32),
        ],
        &mut mem,
    )?;
    Ok((mem.read_f32(bo), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use isaac_device::specs::tesla_p100;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn check_conv(cfg: &GemmConfig, shape: &ConvShape) {
        check(cfg, shape, &tesla_p100()).unwrap_or_else(|e| panic!("illegal config: {e}"));
        let input = rand_vec(shape.i_len(), 11);
        let filters = rand_vec(shape.f_len(), 12);
        let (got, _) = run_f32(cfg, shape, &input, &filters).expect("VM run");
        let mut want = vec![0.0f32; shape.o_len()];
        reference::conv_f32(shape, &input, &filters, &mut want);
        let tol = 1e-4 * (shape.crs() as f32).sqrt();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= tol + 1e-5,
                "mismatch at {i}: got {g}, want {w} (cfg {cfg:?}, shape {shape:?})"
            );
        }
    }

    fn small_cfg() -> GemmConfig {
        GemmConfig {
            ml: 16,
            nl: 16,
            ms: 2,
            ns: 2,
            u: 8,
            vec: 1,
            ..Default::default()
        }
    }

    #[test]
    fn lut_matches_direct_formula() {
        let shape = ConvShape::from_output(2, 3, 4, 5, 3, 2, 2, isaac_device::DType::F32);
        let lut = indirection_table(&shape);
        assert_eq!(lut.len(), shape.crs() as usize);
        // kk = (c*R + r)*S + s with c=1, r=1, s=0 -> index (1*2+1)*2+0 = 6.
        let d = (shape.h + 1) * shape.w * shape.n;
        assert_eq!(lut[6], d as i32);
    }

    #[test]
    fn conv_1x1_matches_reference() {
        let shape = ConvShape::from_output(4, 4, 4, 16, 16, 1, 1, isaac_device::DType::F32);
        check_conv(&small_cfg(), &shape);
    }

    #[test]
    fn conv_3x3_matches_reference() {
        let shape = ConvShape::from_output(2, 5, 6, 18, 4, 3, 3, isaac_device::DType::F32);
        check_conv(&small_cfg(), &shape);
    }

    #[test]
    fn conv_rectangular_filters() {
        // DeepSpeech-like: very wide filter, single channel.
        let shape = ConvShape::from_output(2, 4, 9, 16, 1, 2, 6, isaac_device::DType::F32);
        check_conv(&small_cfg(), &shape);
    }

    #[test]
    fn conv_with_grid_split_kg() {
        let cfg = GemmConfig {
            kg: 4,
            ..small_cfg()
        };
        // Deep reduction: C=32, R=S=2 -> CRS=128.
        let shape = ConvShape::from_output(2, 3, 3, 16, 32, 2, 2, isaac_device::DType::F32);
        check_conv(&cfg, &shape);
    }

    #[test]
    fn conv_with_block_split_kl() {
        let cfg = GemmConfig {
            kl: 2,
            u: 4,
            ..small_cfg()
        };
        let shape = ConvShape::from_output(2, 3, 3, 16, 16, 3, 3, isaac_device::DType::F32);
        check_conv(&cfg, &shape);
    }

    #[test]
    fn conv_vectorized_batch_loads() {
        let cfg = GemmConfig {
            ml: 16,
            nl: 32,
            ms: 2,
            ns: 4,
            u: 16,
            vec: 4,
            ..Default::default()
        };
        // N = 4 divisible by vec.
        let shape = ConvShape::from_output(4, 3, 4, 16, 8, 2, 2, isaac_device::DType::F32);
        check_conv(&cfg, &shape);
    }

    #[test]
    fn conv_f16_quantized() {
        let shape = ConvShape::from_output(2, 3, 3, 16, 8, 2, 2, isaac_device::DType::F16);
        let cfg = small_cfg();
        check(&cfg, &shape, &tesla_p100()).unwrap();
        let input = rand_vec(shape.i_len(), 21);
        let filters = rand_vec(shape.f_len(), 22);
        let (got, _) = run_f32(&cfg, &shape, &input, &filters).unwrap();
        let mut want = vec![0.0f32; shape.o_len()];
        reference::conv_f16(&shape, &input, &filters, &mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 2e-2, "got {g}, want {w}");
        }
    }

    #[test]
    fn vec_crossing_batch_boundary_is_illegal() {
        let cfg = GemmConfig {
            ml: 16,
            nl: 32,
            ms: 2,
            ns: 4,
            u: 16,
            vec: 4,
            ..Default::default()
        };
        // N = 2 not divisible by vec = 4.
        let shape = ConvShape::from_output(2, 4, 4, 16, 8, 2, 2, isaac_device::DType::F32);
        assert_eq!(
            check(&cfg, &shape, &tesla_p100()),
            Err(ConfigIssue::Vectorization)
        );
    }

    #[test]
    fn emitted_conv_ptx_validates() {
        let shape = ConvShape::from_output(4, 4, 4, 32, 16, 3, 3, isaac_device::DType::F32);
        let built = build_kernel(&small_cfg(), &shape);
        let ptx = isaac_ir::emit_ptx(&built.kernel, "sm_60");
        let module = isaac_ir::ptx::parse_module(&ptx).expect("parses");
        module.validate().expect("validates");
    }

    #[test]
    fn conv_stats_include_lut_traffic() {
        let shape = ConvShape::from_output(4, 4, 4, 16, 16, 3, 3, isaac_device::DType::F32);
        let cfg = small_cfg();
        let input = rand_vec(shape.i_len(), 31);
        let filters = rand_vec(shape.f_len(), 32);
        let (_, stats) = run_f32(&cfg, &shape, &input, &filters).unwrap();
        let per = stats.per_thread();
        // Patch loads come with one extra (LUT) global load each, so ldg
        // must exceed the two tile streams alone.
        assert!(per.ldg > 0.0 && per.math > 0.0);
    }
}
