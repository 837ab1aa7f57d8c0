//! Input descriptions: the *input parameters* of the tuning problem.
//!
//! For GEMM the paper counts six input parameters: three shapes (M, N, K),
//! one data type and two transposition layouts. For CONV the inputs are the
//! seven tensor dimensions (N, P, Q, K, C, R, S) plus the data type; the
//! implicit-GEMM lowering reduces them to an equivalent GEMM shape with an
//! indirection table.

use isaac_device::DType;
use std::fmt::Write;

/// A GEMM problem: `C = op(A) op(B)` with column-major storage (BLAS
/// convention, which cuBLAS uses).
///
/// `op(A)` is `M x K`; `op(B)` is `K x N`; `C` is `M x N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `op(A)` and `C`.
    pub m: u32,
    /// Columns of `op(B)` and `C`.
    pub n: u32,
    /// Reduction depth.
    pub k: u32,
    /// Whether `A` is transposed (stored `K x M`).
    pub trans_a: bool,
    /// Whether `B` is transposed (stored `N x K`).
    pub trans_b: bool,
    /// Element type.
    pub dtype: DType,
}

impl GemmShape {
    /// Convenience constructor using the BLAS `"N"`/`"T"` convention,
    /// e.g. `GemmShape::new(2560, 16, 2560, "N", "N", DType::F32)`.
    pub fn new(m: u32, n: u32, k: u32, ta: &str, tb: &str, dtype: DType) -> Self {
        GemmShape {
            m,
            n,
            k,
            trans_a: ta.eq_ignore_ascii_case("t"),
            trans_b: tb.eq_ignore_ascii_case("t"),
            dtype,
        }
    }

    /// Useful floating-point operations: `2 * M * N * K`.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Number of elements in the `A` buffer.
    pub fn a_len(&self) -> usize {
        self.m as usize * self.k as usize
    }

    /// Number of elements in the `B` buffer.
    pub fn b_len(&self) -> usize {
        self.k as usize * self.n as usize
    }

    /// Number of elements in the `C` buffer.
    pub fn c_len(&self) -> usize {
        self.m as usize * self.n as usize
    }

    /// Leading dimension of `A` as stored.
    pub fn lda(&self) -> u32 {
        if self.trans_a {
            self.k
        } else {
            self.m
        }
    }

    /// Leading dimension of `B` as stored.
    pub fn ldb(&self) -> u32 {
        if self.trans_b {
            self.n
        } else {
            self.k
        }
    }

    /// Layout string in BLAS convention, e.g. `"NT"`.
    pub fn layout(&self) -> String {
        let c = |t: bool| if t { 'T' } else { 'N' };
        format!("{}{}", c(self.trans_a), c(self.trans_b))
    }

    /// Lower-case layout tag for mangled names, e.g. `"nt"`.
    pub(crate) fn layout_tag(&self) -> &'static str {
        match (self.trans_a, self.trans_b) {
            (false, false) => "nn",
            (false, true) => "nt",
            (true, false) => "tn",
            (true, true) => "tt",
        }
    }

    /// Mangled short name, e.g. `sgemm_nt_2048x2048x2048`.
    pub fn name(&self) -> String {
        let mut out = String::with_capacity(40);
        self.write_name(&mut out);
        out
    }

    /// Append [`GemmShape::name`] to `out`.
    pub fn write_name(&self, out: &mut String) {
        let _ = write!(
            out,
            "{}gemm_{}_{}x{}x{}",
            self.dtype.blas_prefix(),
            self.layout_tag(),
            self.m,
            self.n,
            self.k
        );
    }
}

/// A multi-channel convolution problem (paper Eq. 1), unit stride, no
/// padding -- the configuration used throughout the paper's evaluation:
/// `O[k, p, q, n] = sum_{c,r,s} I[c, p+r, q+s, n] * F[c, r, s, k]`.
///
/// Tensor layouts follow the paper: `I` is `C x H x W x N`, `F` is
/// `C x R x S x K`, `O` is `K x P x Q x N`, with the *last* index fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size.
    pub n: u32,
    /// Input channels.
    pub c: u32,
    /// Input height.
    pub h: u32,
    /// Input width.
    pub w: u32,
    /// Output channels (filters).
    pub k: u32,
    /// Filter height.
    pub r: u32,
    /// Filter width.
    pub s: u32,
    /// Element type.
    pub dtype: DType,
}

impl ConvShape {
    /// Construct from output dimensions `(N, P, Q, K, C, R, S)` as listed
    /// in paper Table 5 (input H/W derived for unit stride, no padding).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's Table 5 column order
    pub fn from_output(
        n: u32,
        p: u32,
        q: u32,
        k: u32,
        c: u32,
        r: u32,
        s: u32,
        dtype: DType,
    ) -> Self {
        ConvShape {
            n,
            c,
            h: p + r - 1,
            w: q + s - 1,
            k,
            r,
            s,
            dtype,
        }
    }

    /// Output height `P = H - R + 1`.
    pub fn p(&self) -> u32 {
        self.h - self.r + 1
    }

    /// Output width `Q = W - S + 1`.
    pub fn q(&self) -> u32 {
        self.w - self.s + 1
    }

    /// Implicit-GEMM reduction length `CRS`.
    pub fn crs(&self) -> u32 {
        self.c * self.r * self.s
    }

    /// Implicit-GEMM output columns `NPQ`.
    pub fn npq(&self) -> u32 {
        self.n * self.p() * self.q()
    }

    /// Useful FLOPs: `2 * K * NPQ * CRS`.
    pub fn flops(&self) -> f64 {
        2.0 * self.k as f64 * self.npq() as f64 * self.crs() as f64
    }

    /// Elements in the input tensor `I`.
    pub fn i_len(&self) -> usize {
        (self.c * self.h * self.w * self.n) as usize
    }

    /// Elements in the filter tensor `F`.
    pub fn f_len(&self) -> usize {
        (self.c * self.r * self.s * self.k) as usize
    }

    /// Elements in the output tensor `O`.
    pub fn o_len(&self) -> usize {
        (self.k * self.p() * self.q() * self.n) as usize
    }

    /// The equivalent implicit GEMM shape: `M' = K`, `N' = NPQ`,
    /// `K' = CRS`. The "A" operand (filters) is contiguous along `K` --
    /// i.e. behaves like a non-transposed column-major `A`; the "B"
    /// operand (image patches) is gathered through the indirection table.
    pub fn implicit_gemm(&self) -> GemmShape {
        GemmShape {
            m: self.k,
            n: self.npq(),
            k: self.crs(),
            trans_a: false,
            trans_b: false,
            dtype: self.dtype,
        }
    }

    /// Mangled short name, e.g. `sconv_n16_c32_k64_14x14_r3s3`.
    pub fn name(&self) -> String {
        let mut out = String::with_capacity(48);
        self.write_name(&mut out);
        out
    }

    /// Append [`ConvShape::name`] to `out`.
    pub fn write_name(&self, out: &mut String) {
        let _ = write!(
            out,
            "{}conv_n{}_c{}_k{}_{}x{}_r{}s{}",
            self.dtype.blas_prefix(),
            self.n,
            self.c,
            self.k,
            self.p(),
            self.q(),
            self.r,
            self.s
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_shape_basics() {
        let s = GemmShape::new(2560, 16, 2560, "N", "T", DType::F32);
        assert_eq!(s.layout(), "NT");
        assert_eq!(s.flops(), 2.0 * 2560.0 * 16.0 * 2560.0);
        assert_eq!(s.lda(), 2560);
        assert_eq!(s.ldb(), 16);
        assert_eq!(s.name(), "sgemm_nt_2560x16x2560");
    }

    #[test]
    fn gemm_lda_follows_transposition() {
        let nt = GemmShape::new(100, 50, 30, "N", "N", DType::F64);
        assert_eq!(nt.lda(), 100);
        assert_eq!(nt.ldb(), 30);
        let tt = GemmShape::new(100, 50, 30, "T", "T", DType::F64);
        assert_eq!(tt.lda(), 30);
        assert_eq!(tt.ldb(), 50);
    }

    #[test]
    fn conv_output_dims() {
        // Conv5 of Table 5: N=8 P=54 Q=54 K=64 C=64 R=3 S=3.
        let c = ConvShape::from_output(8, 54, 54, 64, 64, 3, 3, DType::F32);
        assert_eq!(c.h, 56);
        assert_eq!(c.w, 56);
        assert_eq!(c.p(), 54);
        assert_eq!(c.q(), 54);
        assert_eq!(c.npq(), 8 * 54 * 54);
        assert_eq!(c.crs(), 64 * 9);
    }

    #[test]
    fn conv_table5_npq_crs_match_paper() {
        // Conv7: 16 14 14 48 512 5 5 -> NPQ 3136, CRS 12800.
        let c = ConvShape::from_output(16, 14, 14, 48, 512, 5, 5, DType::F32);
        assert_eq!(c.npq(), 3136);
        assert_eq!(c.crs(), 12800);
        // Conv14: 16 7 7 2048 1024 1 1 -> NPQ 784, CRS 1024.
        let c = ConvShape::from_output(16, 7, 7, 2048, 1024, 1, 1, DType::F32);
        assert_eq!(c.npq(), 784);
        assert_eq!(c.crs(), 1024);
    }

    #[test]
    fn implicit_gemm_dims() {
        let c = ConvShape::from_output(16, 24, 240, 32, 16, 3, 3, DType::F32);
        let g = c.implicit_gemm();
        assert_eq!(g.m, 32);
        assert_eq!(g.n, 92160);
        assert_eq!(g.k, 144);
        assert!(!g.trans_a && !g.trans_b);
    }

    #[test]
    fn conv_flops_consistent_with_gemm_view() {
        let c = ConvShape::from_output(8, 27, 27, 128, 128, 3, 3, DType::F16);
        let g = c.implicit_gemm();
        assert_eq!(c.flops(), g.flops());
    }
}
