//! One kernel source, three instruction sets.
//!
//! A kernel is written once over the register type [`Simd`] as a
//! [`Kernel`], and [`Isa::run`] runs it compiled for the widest
//! instruction set the CPU supports: portable arrays, AVX2 or AVX-512F
//! registers. Every lane operation is one IEEE-754 operation -- no fused
//! multiply-add, no reassociation -- so the variants differ in speed
//! only, never in a bit. The query path's scoring kernel
//! ([`crate::lanes`]) and the backward-pass products
//! ([`crate::matrix::Mat::add_at_b`], [`crate::matrix::Mat::mul`]) run
//! this way.

/// Lane-wise arithmetic on one register of `W` floats. An implementation
/// is a token: holding one proves the CPU runs its instructions. Every
/// operation is one IEEE-754 operation per lane -- no fused multiply-add,
/// no reassociation -- so every implementation gives the same bits.
pub(crate) trait Simd<const W: usize>: Copy {
    /// One register of `W` lanes.
    type V: Copy;
    fn splat(self, v: f32) -> Self::V;
    fn load(self, src: &[f32; W]) -> Self::V;
    fn store(self, v: Self::V, dst: &mut [f32; W]);
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    fn div(self, a: Self::V, b: Self::V) -> Self::V;
    /// `if v < 0.0 { 0.0 } else { v }` per lane (so `-0.0` and NaN pass
    /// through unchanged).
    fn relu(self, v: Self::V) -> Self::V;
}

/// A kernel written once over [`Simd`]. [`Isa::run`] instantiates `run`
/// with the chosen instruction set's token and register width `W`, inside
/// a function compiled for that instruction set, so implementations must
/// be `#[inline(always)]` all the way down.
pub(crate) trait Kernel {
    fn run<S: Simd<W>, const W: usize>(self, s: S);
}

/// Portable lanes: plain arrays, for any CPU.
#[derive(Debug, Clone, Copy)]
struct Portable;

impl<const W: usize> Simd<W> for Portable {
    type V = [f32; W];
    #[inline(always)]
    fn splat(self, v: f32) -> [f32; W] {
        [v; W]
    }
    #[inline(always)]
    fn load(self, src: &[f32; W]) -> [f32; W] {
        *src
    }
    #[inline(always)]
    fn store(self, v: [f32; W], dst: &mut [f32; W]) {
        *dst = v;
    }
    #[inline(always)]
    fn add(self, mut a: [f32; W], b: [f32; W]) -> [f32; W] {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    }
    #[inline(always)]
    fn sub(self, mut a: [f32; W], b: [f32; W]) -> [f32; W] {
        for (x, y) in a.iter_mut().zip(b) {
            *x -= y;
        }
        a
    }
    #[inline(always)]
    fn mul(self, mut a: [f32; W], b: [f32; W]) -> [f32; W] {
        for (x, y) in a.iter_mut().zip(b) {
            *x *= y;
        }
        a
    }
    #[inline(always)]
    fn div(self, mut a: [f32; W], b: [f32; W]) -> [f32; W] {
        for (x, y) in a.iter_mut().zip(b) {
            *x /= y;
        }
        a
    }
    #[inline(always)]
    fn relu(self, mut v: [f32; W]) -> [f32; W] {
        for x in &mut v {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        v
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 and AVX-512F lanes. Each intrinsic below is one IEEE-754
    //! operation per lane. `max_ps(0, v)` returns its second operand `v`
    //! unless `0 > v`, also when `v` is `-0.0` or NaN, which is exactly
    //! [`super::Simd::relu`]. The kernel entry points are compiled with
    //! the instruction set enabled, so the intrinsics inline.

    use super::{Kernel, Simd};
    use std::arch::x86_64::*;

    /// Proof of AVX2 support: only [`Avx2::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        pub(super) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }
    }

    /// Proof of AVX-512F support: only [`Avx512::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct Avx512(());

    impl Avx512 {
        pub(super) fn detect() -> Option<Self> {
            is_x86_feature_detected!("avx512f").then_some(Avx512(()))
        }
    }

    // An `Avx2` exists only when the CPU supports AVX2, which is all these
    // intrinsics need.
    impl Simd<8> for Avx2 {
        type V = __m256;
        #[inline(always)]
        fn splat(self, v: f32) -> __m256 {
            // SAFETY: `self` proves AVX2 support.
            unsafe { _mm256_set1_ps(v) }
        }
        #[inline(always)]
        fn load(self, src: &[f32; 8]) -> __m256 {
            // SAFETY: `self` proves AVX2 support; `src` holds 8 floats.
            unsafe { _mm256_loadu_ps(src.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, v: __m256, dst: &mut [f32; 8]) {
            // SAFETY: `self` proves AVX2 support; `dst` holds 8 floats.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn add(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2 support.
            unsafe { _mm256_add_ps(a, b) }
        }
        #[inline(always)]
        fn sub(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2 support.
            unsafe { _mm256_sub_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2 support.
            unsafe { _mm256_mul_ps(a, b) }
        }
        #[inline(always)]
        fn div(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2 support.
            unsafe { _mm256_div_ps(a, b) }
        }
        #[inline(always)]
        fn relu(self, v: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2 support.
            unsafe { _mm256_max_ps(_mm256_setzero_ps(), v) }
        }
    }

    // An `Avx512` exists only when the CPU supports AVX-512F, which is all
    // these intrinsics need.
    impl Simd<16> for Avx512 {
        type V = __m512;
        #[inline(always)]
        fn splat(self, v: f32) -> __m512 {
            // SAFETY: `self` proves AVX-512F support.
            unsafe { _mm512_set1_ps(v) }
        }
        #[inline(always)]
        fn load(self, src: &[f32; 16]) -> __m512 {
            // SAFETY: `self` proves AVX-512F support; `src` holds 16 floats.
            unsafe { _mm512_loadu_ps(src.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, v: __m512, dst: &mut [f32; 16]) {
            // SAFETY: `self` proves AVX-512F support; `dst` holds 16 floats.
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn add(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F support.
            unsafe { _mm512_add_ps(a, b) }
        }
        #[inline(always)]
        fn sub(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F support.
            unsafe { _mm512_sub_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F support.
            unsafe { _mm512_mul_ps(a, b) }
        }
        #[inline(always)]
        fn div(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F support.
            unsafe { _mm512_div_ps(a, b) }
        }
        #[inline(always)]
        fn relu(self, v: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F support.
            unsafe { _mm512_max_ps(_mm512_setzero_ps(), v) }
        }
    }

    /// `k` compiled with AVX2 enabled, on 8-lane registers.
    #[target_feature(enable = "avx2")]
    pub(super) fn run_avx2<K: Kernel>(t: Avx2, k: K) {
        k.run::<_, 8>(t)
    }

    /// `k` compiled with AVX-512F enabled, on 16-lane registers.
    #[target_feature(enable = "avx512f")]
    pub(super) fn run_avx512<K: Kernel>(t: Avx512, k: K) {
        k.run::<_, 16>(t)
    }
}

/// The instruction sets a [`Kernel`] is compiled for. Every variant runs
/// the same source, so they differ in speed only.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2(x86::Avx2),
    #[cfg(target_arch = "x86_64")]
    Avx512(x86::Avx512),
}

impl Isa {
    /// The widest variant this CPU runs.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(t) = x86::Avx512::detect() {
                return Isa::Avx512(t);
            }
            if let Some(t) = x86::Avx2::detect() {
                return Isa::Avx2(t);
            }
        }
        Isa::Portable
    }

    /// Every variant this CPU runs, portable first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            isas.extend(x86::Avx2::detect().map(Isa::Avx2));
            isas.extend(x86::Avx512::detect().map(Isa::Avx512));
        }
        isas
    }

    /// Run `k` compiled for this instruction set: 8-lane arrays when
    /// portable, 8-lane registers on AVX2, 16-lane on AVX-512F.
    pub(crate) fn run<K: Kernel>(self, k: K) {
        match self {
            Isa::Portable => k.run::<_, 8>(Portable),
            // SAFETY: the token proves the CPU supports AVX2.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2(t) => unsafe { x86::run_avx2(t, k) },
            // SAFETY: the token proves the CPU supports AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512(t) => unsafe { x86::run_avx512(t, k) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every lane operation of `s` against the scalar operation it stands
    /// for, bit for bit, on values where instruction sets tend to differ:
    /// signed zeros, NaN, infinities and subnormals.
    fn check_ops<S: Simd<W>, const W: usize>(s: S) {
        let special = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -1e-40,
            1.5,
            -2.25,
            f32::MAX,
        ];
        let pick =
            |i: usize| std::array::from_fn::<f32, W, _>(|l| special[(i + l) % special.len()]);
        let bits = |v: S::V| {
            let mut out = [0.0; W];
            s.store(v, &mut out);
            out.map(f32::to_bits)
        };
        for i in 0..special.len() {
            for j in 0..special.len() {
                let (a, b) = (pick(i), pick(j));
                let (va, vb) = (s.load(&a), s.load(&b));
                let want =
                    |f: fn(f32, f32) -> f32| std::array::from_fn(|l| f(a[l], b[l]).to_bits());
                assert_eq!(bits(s.add(va, vb)), want(|x, y| x + y), "add");
                assert_eq!(bits(s.sub(va, vb)), want(|x, y| x - y), "sub");
                assert_eq!(bits(s.mul(va, vb)), want(|x, y| x * y), "mul");
                assert_eq!(bits(s.div(va, vb)), want(|x, y| x / y), "div");
            }
            let a = pick(i);
            let relu = a.map(|x| if x < 0.0 { 0.0f32 } else { x }.to_bits());
            assert_eq!(bits(s.relu(s.load(&a))), relu, "relu");
            assert_eq!(bits(s.splat(a[0])), [a[0].to_bits(); W], "splat");
        }
    }

    #[test]
    fn lane_ops_match_scalar_ops_bitwise() {
        check_ops::<_, 8>(Portable);
        for isa in Isa::supported() {
            match isa {
                Isa::Portable => {}
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2(t) => check_ops(t),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512(t) => check_ops(t),
            }
        }
    }
}
