//! Minimal row-major f32 matrix with the products the MLP needs.
//!
//! The forward-pass product [`Mat::mul_bt`] is a register-blocked,
//! lane-split micro-kernel (see below) that LLVM reliably vectorizes; on
//! the feature widths involved here (tens to a few hundred columns) it is
//! within a small factor of a tuned BLAS and far below the simulator's
//! cost anyway. The straightforward scalar loop is kept as
//! [`Mat::mul_bt_naive`] -- the property-test reference and the
//! micro-benchmark baseline.

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
    pub fn add_at_b(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, other.rows, "outer dims");
        assert_eq!(out.rows, self.cols);
        assert_eq!(out.cols, other.cols);
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

    /// `out = self * other`: `(m x k) * (k x n) -> (m x n)`. Used for the
    /// input-gradient product `dA = dZ * W` (W stored `(out x in)`, so this
    /// is a plain row-times-matrix walk).
    pub fn mul(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.rows, "inner dims");
        assert_eq!(out.rows, self.rows);
        assert_eq!(out.cols, other.cols);
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

#[cfg(test)]
mod tests {
    use super::*;

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
