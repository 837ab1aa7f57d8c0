//! Minimal row-major f32 matrix with the products the MLP needs.
//!
//! The forward-pass product [`Mat::mul_bt`] is a register-blocked,
//! lane-split micro-kernel (see below) that LLVM reliably vectorizes; on
//! the feature widths involved here (tens to a few hundred columns) it is
//! within a small factor of a tuned BLAS and far below the simulator's
//! cost anyway. The straightforward scalar loop is kept as
//! [`Mat::mul_bt_naive`] -- the property-test reference and the
//! micro-benchmark baseline.
//!
//! The backward-pass products [`Mat::add_at_b`] (weight gradient) and
//! [`Mat::mul`] (input gradient) are one register-blocked kernel,
//! `AddProduct`, written over the `simd` module's register type and run
//! as the widest instruction set the CPU supports. Per output element it
//! keeps the order and skip set of the plain loops it replaced (kept as
//! test references), so training gives the same weights, bit for bit,
//! on every variant.

use crate::simd::{Isa, Kernel, Simd};

/// f32 lanes per accumulator vector of the tiled kernel. Eight f32s is
/// one AVX2 register; on narrower ISAs LLVM splits the lane arrays into
/// however many native vectors fit.
pub(crate) const LANES: usize = 8;
// The pairwise lane reduction in `block` spells out indices 0..7; keep
// the two in lockstep or outputs would silently drop lanes.
const _: () = assert!(LANES == 8, "block()'s lane reduction assumes 8 lanes");
/// Rows of `self` processed per micro-kernel block.
const MR: usize = 2;
/// Rows of `other` (columns of the output) per micro-kernel block.
const NR: usize = 4;

/// A dense row-major matrix.
///
/// The backing buffer is a high-water mark: [`Mat::reset`] never shrinks
/// the underlying `Vec`, so shrink-then-grow cycles inside scratch spaces
/// neither reallocate nor re-initialize. All accessors go through
/// [`Mat::data`]/[`Mat::data_mut`], which expose exactly the logical
/// `rows * cols` prefix.
#[derive(Debug, Clone, Default)]
pub struct Mat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f32>,
}

/// What one [`Mat::reset`] call did to the backing buffer, so scratch
/// owners can count reallocations *and* redundant fill-initializations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResetReport {
    /// The buffer had to reallocate (capacity grew).
    pub grew: bool,
    /// Elements fill-initialized because the logical size exceeded the
    /// high-water mark. Zero on the common steady-state path.
    pub filled: usize,
}

impl PartialEq for Mat {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data() == other.data()
    }
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Mat { rows, cols, data }
    }

    /// Reshape in place, reusing the existing allocation whenever its
    /// capacity suffices. Contents after the call are unspecified (the
    /// caller overwrites them). The backing buffer only ever grows: below
    /// the high-water mark the call touches no memory at all, so repeated
    /// big/small/big reshapes pay neither a memset nor a reallocation.
    /// The returned [`ResetReport`] feeds the
    /// [`crate::mlp::ScratchSpace`] counters that prove batched prediction
    /// stops allocating (and stops filling) at steady state.
    pub fn reset(&mut self, rows: usize, cols: usize) -> ResetReport {
        self.rows = rows;
        self.cols = cols;
        let needed = rows * cols;
        let grew = needed > self.data.capacity();
        let filled = needed.saturating_sub(self.data.len());
        if filled > 0 {
            // Only the tail beyond the high-water mark is written.
            self.data.resize(needed, 0.0);
        }
        ResetReport { grew, filled }
    }

    /// Flat data access (the logical `rows * cols` prefix).
    pub fn data(&self) -> &[f32] {
        &self.data[..self.rows * self.cols]
    }

    /// Mutable flat data access (the logical `rows * cols` prefix).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data[..self.rows * self.cols]
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element update.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `out = self * other^T`: `(m x k) * (n x k)^T -> (m x n)`.
    ///
    /// Register-blocked micro-kernel: each `MR x NR` block of the output
    /// is accumulated in `MR * NR` lane vectors of `LANES` f32 partial
    /// sums walking `k` in lane-sized steps, with a scalar tail for
    /// `k % LANES` and explicit remainder blocks for the last rows and
    /// columns. Both operands are traversed along contiguous rows, so the
    /// lane loop vectorizes; the independent accumulators hide FP-add
    /// latency, which is what the naive single-accumulator dot product
    /// ([`Mat::mul_bt_naive`]) is bound by.
    ///
    /// The per-element reduction order (pairwise over lanes, then the
    /// scalar tail) differs from the naive left-to-right sum, so results
    /// can differ from [`Mat::mul_bt_naive`] by normal f32 rounding --
    /// but the order is fixed, so the kernel itself is bit-deterministic
    /// across calls, block positions and thread counts.
    pub fn mul_bt(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.cols, "inner dims");
        assert_eq!(out.rows, self.rows);
        assert_eq!(out.cols, other.rows);
        let (m, n, k) = (self.rows, other.rows, self.cols);
        let a = self.data();
        let b = other.data();
        let ocols = out.cols;
        let o = out.data_mut();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime. The
                // variant runs the exact same Rust source as the generic
                // path -- same lane layout, same reduction order, so the
                // output is bit-identical -- but compiled with 256-bit
                // registers, which is what keeps the 8-lane accumulator
                // block out of spill territory.
                unsafe { mul_bt_blocks_avx2(a, b, o, m, n, k, ocols) };
                return;
            }
        }
        mul_bt_blocks(a, b, o, m, n, k, ocols);
    }

    /// The straightforward scalar triple loop `mul_bt` started as: one
    /// left-to-right dot product per output element. Kept as the
    /// reference for the tiled-kernel property tests and as the
    /// micro-benchmark baseline.
    pub fn mul_bt_naive(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.cols, "inner dims");
        assert_eq!(out.rows, self.rows);
        assert_eq!(out.cols, other.rows);
        for r in 0..self.rows {
            let a = self.row(r);
            let orow = out.row_mut(r);
            for (c, o) in orow.iter_mut().enumerate() {
                let b = other.row(c);
                let mut acc = 0.0f32;
                for (x, y) in a.iter().zip(b) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
    }

    /// `out += self^T * other`: `(m x k)^T * (m x n) -> (k x n)`,
    /// accumulated into `out`. Used for weight gradients
    /// (`dW += dZ^T * A`).
    ///
    /// `out[i][j]` adds `self[r][i] * other[r][j]` for `r` ascending,
    /// skipping exactly the `r` where `self[r][i] == 0.0` (`-0.0` too, so
    /// a NaN or infinity in `other` beside a zero stays out). ReLU zeroes
    /// about half of `dZ`, so the skip is most of the saving. See
    /// `AddProduct` for how the kernel keeps that order.
    pub fn add_at_b(&self, other: &Mat, out: &mut Mat) {
        Isa::detect().run(AddProduct::at_b(self, other, out));
    }

    /// `out = self * other`: `(m x k) * (k x n) -> (m x n)`. Used for the
    /// input-gradient product `dA = dZ * W` (W stored `(out x in)`, so this
    /// is a plain row-times-matrix walk).
    ///
    /// `out[r][j]` starts at `+0.0` and adds `self[r][i] * other[i][j]`
    /// for `i` ascending over the `i` where `self[r][i] != 0.0`, like
    /// [`Mat::add_at_b`].
    pub fn mul(&self, other: &Mat, out: &mut Mat) {
        Isa::detect().run(AddProduct::ab(self, other, out));
    }

    /// The loop [`Mat::add_at_b`] replaced, kept as the reference for the
    /// kernel's bitwise tests.
    #[cfg(test)]
    pub(crate) fn add_at_b_reference(&self, other: &Mat, out: &mut Mat) {
        for r in 0..self.rows {
            let a = self.row(r);
            let b = other.row(r);
            for (i, &ai) in a.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, &bj) in orow.iter_mut().zip(b) {
                    *o += ai * bj;
                }
            }
        }
    }

    /// The loop [`Mat::mul`] replaced, kept as the reference for the
    /// kernel's bitwise tests.
    #[cfg(test)]
    pub(crate) fn mul_reference(&self, other: &Mat, out: &mut Mat) {
        for r in 0..self.rows {
            let a = self.row(r);
            let orow = out.row_mut(r);
            orow.fill(0.0);
            for (i, &ai) in a.iter().enumerate() {
                if ai == 0.0 {
                    continue;
                }
                let b = other.row(i);
                for (o, &bj) in orow.iter_mut().zip(b) {
                    *o += ai * bj;
                }
            }
        }
    }

    /// Frobenius norm, for tests and gradient checks.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// The blocked `A * B^T` driver: walk the output in `MR x NR` tiles with
/// explicit remainder blocks. Monomorphized twice -- once for the
/// baseline target and once under `#[target_feature(enable = "avx2")]`
/// ([`mul_bt_blocks_avx2`]); both run this exact source, so they produce
/// the same bits.
#[inline(always)]
fn mul_bt_blocks(a: &[f32], b: &[f32], o: &mut [f32], m: usize, n: usize, k: usize, ocols: usize) {
    let mut r0 = 0;
    while r0 < m {
        let mr = (m - r0).min(MR);
        let mut c0 = 0;
        while c0 < n {
            let nr = (n - c0).min(NR);
            match (mr, nr) {
                (2, 4) => block::<2, 4>(a, b, o, k, ocols, r0, c0),
                (2, 3) => block::<2, 3>(a, b, o, k, ocols, r0, c0),
                (2, 2) => block::<2, 2>(a, b, o, k, ocols, r0, c0),
                (2, 1) => block::<2, 1>(a, b, o, k, ocols, r0, c0),
                (1, 4) => block::<1, 4>(a, b, o, k, ocols, r0, c0),
                (1, 3) => block::<1, 3>(a, b, o, k, ocols, r0, c0),
                (1, 2) => block::<1, 2>(a, b, o, k, ocols, r0, c0),
                _ => block::<1, 1>(a, b, o, k, ocols, r0, c0),
            }
            c0 += nr;
        }
        r0 += mr;
    }
}

/// [`mul_bt_blocks`] compiled with AVX2 enabled, selected at runtime.
/// The default x86-64 target only has SSE2's sixteen 128-bit registers,
/// where the micro-kernel's eight 8-lane accumulators spill; with AVX2
/// each accumulator is one 256-bit register and the whole block stays
/// register-resident.
///
/// # Safety
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_bt_blocks_avx2(
    a: &[f32],
    b: &[f32],
    o: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    ocols: usize,
) {
    mul_bt_blocks(a, b, o, m, n, k, ocols);
}

/// One `MR_ x NR_` output block of `A * B^T`: `MR_ * NR_` lane-vector
/// accumulators over the shared `k` walk, scalar tail, pairwise lane
/// reduction. `#[inline(always)]` plus const block sizes let LLVM keep
/// every accumulator in a SIMD register.
#[inline(always)]
fn block<const MR_: usize, const NR_: usize>(
    a: &[f32],
    b: &[f32],
    o: &mut [f32],
    k: usize,
    ocols: usize,
    r0: usize,
    c0: usize,
) {
    let ar: [&[f32]; MR_] = std::array::from_fn(|i| &a[(r0 + i) * k..(r0 + i + 1) * k]);
    let br: [&[f32]; NR_] = std::array::from_fn(|j| &b[(c0 + j) * k..(c0 + j + 1) * k]);
    let mut lanes = [[[0.0f32; LANES]; NR_]; MR_];
    let chunks = k / LANES;
    for ch in 0..chunks {
        let base = ch * LANES;
        let av: [&[f32; LANES]; MR_] =
            std::array::from_fn(|i| ar[i][base..base + LANES].try_into().expect("lane chunk"));
        let bv: [&[f32; LANES]; NR_] =
            std::array::from_fn(|j| br[j][base..base + LANES].try_into().expect("lane chunk"));
        for i in 0..MR_ {
            for j in 0..NR_ {
                for l in 0..LANES {
                    lanes[i][j][l] += av[i][l] * bv[j][l];
                }
            }
        }
    }
    let mut tail = [[0.0f32; NR_]; MR_];
    for kk in chunks * LANES..k {
        for i in 0..MR_ {
            for j in 0..NR_ {
                tail[i][j] += ar[i][kk] * br[j][kk];
            }
        }
    }
    for i in 0..MR_ {
        for j in 0..NR_ {
            let l = &lanes[i][j];
            // Fixed pairwise reduction order, then the scalar tail.
            let s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
            o[(r0 + i) * ocols + c0 + j] = s + tail[i][j];
        }
    }
}

/// The backward-pass products as one kernel: `out += L * b`, where the
/// left operand is read through strides, `L[o][t] = a[o * step + t *
/// stride]` (`Mat::add_at_b` reads `A^T`, `Mat::mul` reads `A`), `b` is
/// `len x n` and `out` is `rows x n`, row-major.
///
/// For each output row the kernel first copies `L`'s nonzero entries
/// into an `(offset of b's row, value)` list without a branch, then adds
/// `v * b[t][j]` over the list into whole blocks of the row held in
/// registers. Each output element thus gets the terms of the old scalar
/// loop in its order, with a separate multiply and add (lanes hold
/// different outputs, never terms of one sum), so every instruction set
/// gives that loop's bits.
struct AddProduct<'a> {
    a: &'a [f32],
    /// Distance in `a` between output rows' first terms.
    step: usize,
    /// Distance in `a` between one output row's terms.
    stride: usize,
    /// Terms per output row: `L`'s columns, `b`'s rows.
    len: usize,
    b: &'a [f32],
    /// Columns of `b` and `out`.
    n: usize,
    out: &'a mut [f32],
}

impl<'a> AddProduct<'a> {
    /// `out += a^T * b` ([`Mat::add_at_b`]).
    fn at_b(a: &'a Mat, b: &'a Mat, out: &'a mut Mat) -> Self {
        assert_eq!(a.rows, b.rows, "outer dims");
        assert_eq!(out.rows, a.cols);
        assert_eq!(out.cols, b.cols);
        AddProduct {
            a: a.data(),
            step: 1,
            stride: a.cols,
            len: a.rows,
            b: b.data(),
            n: out.cols,
            out: out.data_mut(),
        }
    }

    /// `out = a * b` ([`Mat::mul`]): zeroes `out`, then adds.
    fn ab(a: &'a Mat, b: &'a Mat, out: &'a mut Mat) -> Self {
        assert_eq!(a.cols, b.rows, "inner dims");
        assert_eq!(out.rows, a.rows);
        assert_eq!(out.cols, b.cols);
        out.data_mut().fill(0.0);
        AddProduct {
            a: a.data(),
            step: a.cols,
            stride: 1,
            len: a.cols,
            b: b.data(),
            n: out.cols,
            out: out.data_mut(),
        }
    }
}

impl Kernel for AddProduct<'_> {
    #[inline(always)]
    fn run<S: Simd<W>, const W: usize>(self, s: S) {
        let AddProduct {
            a,
            step,
            stride,
            len,
            b,
            n,
            out,
        } = self;
        if n == 0 || len == 0 {
            return;
        }
        let mut list = vec![(0usize, 0.0f32); len];
        for (o, row) in out.chunks_exact_mut(n).enumerate() {
            // Every entry is written; only a nonzero one (NaN included)
            // moves the end past it.
            let mut end = 0;
            let lhs = a[o * step..][..(len - 1) * stride + 1]
                .iter()
                .step_by(stride);
            for (t, &v) in lhs.enumerate() {
                list[end] = (t * n, v);
                end += (v != 0.0) as usize;
            }
            add_row(s, row, &list[..end], b);
        }
    }
}

/// `row[j] += v * b[off + j]` for each `(off, v)` of `list` in order: up
/// to eight registers of the row at a time (128 floats on AVX-512F, 64
/// on AVX2), then narrower blocks, then the last `row.len() % W` columns
/// one by one.
#[inline(always)]
fn add_row<S: Simd<W>, const W: usize>(s: S, row: &mut [f32], list: &[(usize, f32)], b: &[f32]) {
    let n = row.len();
    let mut j = 0;
    while n - j >= W {
        j += match (n - j) / W {
            8.. => add_block::<S, W, 8>(s, row, list, b, j),
            4..=7 => add_block::<S, W, 4>(s, row, list, b, j),
            2 | 3 => add_block::<S, W, 2>(s, row, list, b, j),
            _ => add_block::<S, W, 1>(s, row, list, b, j),
        };
    }
    let rest = &mut row[j..];
    for &(off, v) in list {
        for (o, &x) in rest.iter_mut().zip(&b[off + j..]) {
            *o += v * x;
        }
    }
}

/// Columns `j..j + R * W` of [`add_row`], accumulated in `R` registers;
/// returns `R * W`.
#[inline(always)]
fn add_block<S: Simd<W>, const W: usize, const R: usize>(
    s: S,
    row: &mut [f32],
    list: &[(usize, f32)],
    b: &[f32],
    j: usize,
) -> usize {
    let (out, _) = row[j..j + R * W].as_chunks_mut::<W>();
    let mut acc: [S::V; R] = std::array::from_fn(|q| s.load(&out[q]));
    for &(off, v) in list {
        let (x, _) = b[off + j..off + j + R * W].as_chunks::<W>();
        let v = s.splat(v);
        for (acc, x) in acc.iter_mut().zip(x) {
            *acc = s.add(*acc, s.mul(v, s.load(x)));
        }
    }
    for (o, acc) in out.iter_mut().zip(acc) {
        s.store(acc, o);
    }
    R * W
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    #[test]
    fn mul_bt_matches_manual() {
        // A: 2x3, B: 4x3, out = A * B^T: 2x4.
        let a = small(2, 3, |r, c| (r * 3 + c) as f32);
        let b = small(4, 3, |r, c| (r + c) as f32 * 0.5);
        let mut out = Mat::zeros(2, 4);
        a.mul_bt(&b, &mut out);
        for r in 0..2 {
            for c in 0..4 {
                let want: f32 = (0..3).map(|k| a.get(r, k) * b.get(c, k)).sum();
                assert!((out.get(r, c) - want).abs() < 1e-6);
            }
        }
    }

    /// How much of a backward-pass left operand (a `dZ`) is zero.
    #[derive(Debug, Clone, Copy)]
    enum Zeros {
        None,
        /// About half, like ReLU, plus every fifth line (row or column,
        /// as [`zero_lines`] is told) whole.
        Half,
        All,
    }

    /// Random values with `zeros`' share replaced by zeros of either sign.
    fn operand(rows: usize, cols: usize, zeros: Zeros, rng: &mut StdRng) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for v in m.data_mut() {
            let zero = match zeros {
                Zeros::None => false,
                Zeros::Half => rng.gen_bool(0.5),
                Zeros::All => true,
            };
            *v = match (zero, rng.gen_bool(0.5)) {
                (true, true) => 0.0,
                (true, false) => -0.0,
                (false, _) => rng.gen_range(-2.0..2.0),
            };
        }
        m
    }

    /// For [`Zeros::Half`], zero every fifth row (`by_row`) or column of
    /// `a`. Then put NaN and infinities in row `t` of `b` wherever line
    /// `t` of `a` is all zero: every term they are in is skipped, so a
    /// kernel that does not skip exactly the zeros gives a NaN.
    fn zero_lines(a: &mut Mat, b: &mut Mat, zeros: Zeros, by_row: bool) {
        let (lines, len) = if by_row {
            (a.rows, a.cols)
        } else {
            (a.cols, a.rows)
        };
        let at = |t: usize, u: usize| if by_row { (t, u) } else { (u, t) };
        for t in 0..lines {
            if matches!(zeros, Zeros::Half) && t % 5 == 2 {
                for u in 0..len {
                    let (r, c) = at(t, u);
                    a.set(r, c, if u % 2 == 0 { 0.0 } else { -0.0 });
                }
            }
            if (0..len).all(|u| {
                let (r, c) = at(t, u);
                a.get(r, c) == 0.0
            }) {
                let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
                for (j, v) in b.row_mut(t).iter_mut().enumerate() {
                    *v = poison[j % 3];
                }
            }
        }
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Widths the backward kernels meet: the sparse and dense input
    /// layers (19, 15), the default hidden layers (64, 128), the output
    /// (1) and one that is not a multiple of 16 or 8 above the register
    /// width (44).
    const WIDTHS: [usize; 6] = [1, 15, 19, 44, 64, 128];
    /// Batch rows: one, a handful, the ragged last batch of a shard's
    /// 5 400 training rows, and a full batch.
    const BATCHES: [usize; 4] = [1, 7, 24, 128];

    /// `add_at_b` on every instruction-set variant the host runs against
    /// the loop it replaced, bit for bit, and so against each other: every
    /// width and batch above, no / half / all zeros, `-0.0`, and NaN or
    /// infinity in rows of `b` whose `a` entries are zero. `out` starts
    /// from random values and `-0.0`, so accumulation is checked too.
    #[test]
    fn add_at_b_matches_the_old_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(29);
        for m in BATCHES {
            for k in WIDTHS {
                for n in WIDTHS {
                    for zeros in [Zeros::None, Zeros::Half, Zeros::All] {
                        let mut a = operand(m, k, zeros, &mut rng);
                        let mut b = operand(m, n, Zeros::None, &mut rng);
                        zero_lines(&mut a, &mut b, zeros, true);
                        let mut start = operand(k, n, Zeros::None, &mut rng);
                        start.set(0, 0, -0.0);
                        let mut want = start.clone();
                        a.add_at_b_reference(&b, &mut want);
                        let mut generic = None;
                        for isa in Isa::supported() {
                            let mut got = start.clone();
                            isa.run(AddProduct::at_b(&a, &b, &mut got));
                            let got = bits(&got);
                            let what = format!("{isa:?}: {m}x{k} ^T * {m}x{n}, {zeros:?}");
                            assert_eq!(got, bits(&want), "{what}");
                            assert_eq!(&got, generic.get_or_insert_with(|| got.clone()), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// `mul` likewise: every variant against the loop it replaced, with
    /// NaN and infinities in rows of `b` whose `a` column is zero, and an
    /// `out` full of NaN that the product must overwrite from `+0.0`.
    #[test]
    fn mul_matches_the_old_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(30);
        for m in BATCHES {
            for k in WIDTHS {
                for n in WIDTHS {
                    for zeros in [Zeros::None, Zeros::Half, Zeros::All] {
                        let mut a = operand(m, k, zeros, &mut rng);
                        let mut b = operand(k, n, Zeros::None, &mut rng);
                        zero_lines(&mut a, &mut b, zeros, false);
                        let mut want = Mat::from_vec(m, n, vec![f32::NAN; m * n]);
                        a.mul_reference(&b, &mut want);
                        let mut generic = None;
                        for isa in Isa::supported() {
                            let mut got = Mat::from_vec(m, n, vec![f32::NAN; m * n]);
                            isa.run(AddProduct::ab(&a, &b, &mut got));
                            let got = bits(&got);
                            let what = format!("{isa:?}: {m}x{k} * {k}x{n}, {zeros:?}");
                            assert_eq!(got, bits(&want), "{what}");
                            assert_eq!(&got, generic.get_or_insert_with(|| got.clone()), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Satellite property test: the tiled kernel against the naive loop
    /// across the full cross product of odd/remainder shapes, exercising
    /// every `(mr, nr)` edge-block combination and every `k % LANES`
    /// tail length.
    #[test]
    fn tiled_mul_bt_matches_naive_across_remainder_shapes() {
        // Deterministic pseudo-random fill, no RNG dependency needed.
        let fill = |seed: usize| {
            move |r: usize, c: usize| {
                let h = (r * 31 + c * 7 + seed) % 97;
                (h as f32 - 48.0) / 16.0
            }
        };
        for rows in 1..=17usize {
            for cols in 1..=17usize {
                for k in 1..=17usize {
                    let a = small(rows, k, fill(rows * 131 + k));
                    let b = small(cols, k, fill(cols * 17 + k * 3));
                    let mut tiled = Mat::zeros(rows, cols);
                    let mut naive = Mat::zeros(rows, cols);
                    a.mul_bt(&b, &mut tiled);
                    a.mul_bt_naive(&b, &mut naive);
                    for r in 0..rows {
                        for c in 0..cols {
                            let (t, n) = (tiled.get(r, c), naive.get(r, c));
                            // Only the summation order differs; the bound
                            // is a handful of ULPs at these magnitudes.
                            assert!(
                                (t - n).abs() <= 1e-4 * (1.0 + n.abs()),
                                "({rows}x{cols} k={k}) [{r}][{c}]: tiled {t} vs naive {n}"
                            );
                        }
                    }
                    // The tiled kernel itself is bit-deterministic.
                    let mut again = Mat::zeros(rows, cols);
                    a.mul_bt(&b, &mut again);
                    assert_eq!(tiled.data(), again.data(), "{rows}x{cols} k={k}");
                }
            }
        }
    }

    #[test]
    fn reset_skips_fill_below_high_water_mark() {
        let mut m = Mat::zeros(0, 0);
        let first = m.reset(8, 8);
        assert_eq!(first.filled, 64, "first sizing must initialize");
        // Poison, shrink, re-grow within the high-water mark: no fill, no
        // growth, and the poison survives (contents are unspecified).
        m.data_mut().fill(7.0);
        let shrink = m.reset(2, 3);
        assert_eq!(shrink, ResetReport::default(), "shrink touches nothing");
        assert_eq!(m.data(), &[7.0; 6], "shrink must not memset");
        let regrow = m.reset(8, 8);
        assert_eq!(regrow, ResetReport::default(), "regrow within capacity");
        assert_eq!(m.data(), &[7.0; 64], "regrow must not memset");
        // Growing past the mark fills only the new tail.
        let grow = m.reset(10, 10);
        assert_eq!(grow.filled, 36);
        assert_eq!(&m.data()[..64], &[7.0; 64]);
        assert_eq!(&m.data()[64..], &[0.0; 36]);
    }

    #[test]
    fn logical_prefix_is_what_accessors_see() {
        let mut m = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.reset(1, 2);
        assert_eq!(m.data().len(), 2);
        assert_eq!(m.data_mut().len(), 2);
        assert_eq!(m.norm(), (1.0f32 + 4.0).sqrt());
        // Equality compares the logical prefix, not the hidden tail.
        let fresh = Mat::from_vec(1, 2, vec![1.0, 2.0]);
        assert_eq!(m, fresh);
    }

    #[test]
    fn add_at_b_accumulates() {
        let a = small(3, 2, |r, c| (r + c) as f32);
        let b = small(3, 4, |r, c| (r * c) as f32);
        let mut out = Mat::zeros(2, 4);
        a.add_at_b(&b, &mut out);
        a.add_at_b(&b, &mut out); // twice
        for r in 0..2 {
            for c in 0..4 {
                let want: f32 = 2.0 * (0..3).map(|k| a.get(k, r) * b.get(k, c)).sum::<f32>();
                assert!((out.get(r, c) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn mul_matches_manual() {
        let a = small(2, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let b = small(3, 5, |r, c| (r + 2 * c) as f32 * 0.2);
        let mut out = Mat::zeros(2, 5);
        a.mul(&b, &mut out);
        for r in 0..2 {
            for c in 0..5 {
                let want: f32 = (0..3).map(|k| a.get(r, k) * b.get(k, c)).sum();
                assert!((out.get(r, c) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn transpose_identities_agree() {
        // (A * B^T) == (B * A^T)^T -- bitwise, since the micro-kernel's
        // per-element reduction order depends only on k.
        let a = small(3, 4, |r, c| ((r * 7 + c * 3) % 5) as f32);
        let b = small(2, 4, |r, c| ((r * 3 + c) % 4) as f32);
        let mut ab = Mat::zeros(3, 2);
        let mut ba = Mat::zeros(2, 3);
        a.mul_bt(&b, &mut ab);
        b.mul_bt(&a, &mut ba);
        for r in 0..3 {
            for c in 0..2 {
                assert_eq!(ab.get(r, c), ba.get(c, r));
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dimension_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 4);
        let mut out = Mat::zeros(2, 2);
        a.mul_bt(&b, &mut out);
    }

    #[test]
    fn norm_is_euclidean() {
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.norm(), 5.0);
    }
}
