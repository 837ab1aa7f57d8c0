//! Tuning configurations: the *tuning parameters* of the search space.

use crate::shapes::GemmShape;
use std::fmt::Write;

/// How out-of-tile bounds are enforced (the Section 8.3 ablation).
///
/// All modes compute identical results; they differ in instruction/traffic
/// overhead, which the analytical profile charges accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundsMode {
    /// PTX predication: `@%p`-guarded memory ops, ~2% overhead.
    #[default]
    PtxPredicated,
    /// CUDA-C style explicit compare + branch around each guarded access
    /// (what the paper's first CUDA/OpenCL backend produced): 15-20%.
    CudaStyle,
    /// Pad the inputs up to tile multiples on the host instead of checking
    /// bounds: extra copies and padded traffic.
    Padded,
}

impl BoundsMode {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            BoundsMode::PtxPredicated => "ptx-predicated",
            BoundsMode::CudaStyle => "cuda-style",
            BoundsMode::Padded => "padded",
        }
    }
}

/// The ten GEMM tuning parameters of paper Section 4 (8 shown in Table 6
/// plus the vector width and the bounds-check mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmConfig {
    /// Per-thread tile rows (paper `Ms`).
    pub ms: u32,
    /// Per-thread tile columns (`Ns`).
    pub ns: u32,
    /// Per-block tile rows (`ML`).
    pub ml: u32,
    /// Per-block tile columns (`NL`).
    pub nl: u32,
    /// Reduction slice depth prefetched into shared memory per iteration
    /// and per KL-group (`U`).
    pub u: u32,
    /// Per-thread reduction split: independent accumulator sets (`Ks`).
    pub ks: u32,
    /// Intra-block reduction split: thread groups along K (`KL`).
    pub kl: u32,
    /// Grid-level reduction split, accumulated with global atomics (`KG`).
    pub kg: u32,
    /// Vector width of global loads (1, 2 or 4 elements).
    pub vec: u32,
    /// Bounds-checking strategy.
    pub bounds: BoundsMode,
}

impl Default for GemmConfig {
    fn default() -> Self {
        // A reasonable mid-size kernel: 64x64 block tile, 8x8 thread tile.
        GemmConfig {
            ms: 8,
            ns: 8,
            ml: 64,
            nl: 64,
            u: 8,
            ks: 1,
            kl: 1,
            kg: 1,
            vec: 4,
            bounds: BoundsMode::PtxPredicated,
        }
    }
}

impl GemmConfig {
    /// Threads along the M dimension of the block tile.
    #[inline]
    pub fn tm(&self) -> u32 {
        self.ml / self.ms.max(1)
    }

    /// Threads along the N dimension.
    #[inline]
    pub fn tn(&self) -> u32 {
        self.nl / self.ns.max(1)
    }

    /// Total threads per block: `(ML/MS) * (NL/NS) * KL`.
    #[inline]
    pub fn threads(&self) -> u32 {
        self.tm() * self.tn() * self.kl
    }

    /// Shared-memory K depth per iteration: `U * KL`.
    #[inline]
    pub fn uk(&self) -> u32 {
        self.u * self.kl
    }

    /// Grid dimensions for a given shape: `(ceil(M/ML), ceil(N/NL), KG)`.
    pub fn grid(&self, shape: &GemmShape) -> [u32; 3] {
        [
            shape.m.div_ceil(self.ml),
            shape.n.div_ceil(self.nl),
            self.kg,
        ]
    }

    /// K elements assigned to each grid-z slice, rounded up to the vector
    /// width so vectorized K-contiguous loads stay aligned.
    pub fn kchunk(&self, shape: &GemmShape) -> u32 {
        let raw = shape.k.div_ceil(self.kg);
        raw.div_ceil(self.vec) * self.vec
    }

    /// Shared-memory elements required: the A and B tiles, plus the
    /// KL-reduction buffer when KL > 1 (laid out after the tiles in the
    /// same segment).
    pub fn smem_elems(&self) -> u32 {
        let tiles = (self.ml + self.nl) * self.uk();
        let reduction = if self.kl > 1 { self.ml * self.nl } else { 0 };
        tiles.max(reduction)
    }

    /// Vector loads per thread per iteration for the A tile.
    pub fn loads_a(&self) -> u32 {
        (self.ml * self.uk()) / (self.threads() * self.vec).max(1)
    }

    /// Vector loads per thread per iteration for the B tile.
    pub fn loads_b(&self) -> u32 {
        (self.nl * self.uk()) / (self.threads() * self.vec).max(1)
    }

    /// Mangled kernel name for a shape, e.g.
    /// `sgemm_nt_ml64x64_ms8x8_u8_k1.1.1_v4`.
    pub fn name(&self, shape: &GemmShape) -> String {
        let mut out = String::with_capacity(48);
        self.write_name(shape, &mut out);
        out
    }

    /// Append [`GemmConfig::name`] to `out`.
    pub fn write_name(&self, shape: &GemmShape, out: &mut String) {
        let _ = write!(
            out,
            "{}gemm_{}_ml{}x{}_ms{}x{}_u{}_k{}.{}.{}_v{}",
            shape.dtype.blas_prefix(),
            shape.layout_tag(),
            self.ml,
            self.nl,
            self.ms,
            self.ns,
            self.u,
            self.ks,
            self.kl,
            self.kg,
            self.vec
        );
    }

    /// The tuning-parameter vector in canonical order, used as model
    /// features and for serialization.
    pub fn as_vector(&self) -> [u32; 9] {
        [
            self.ms, self.ns, self.ml, self.nl, self.u, self.ks, self.kl, self.kg, self.vec,
        ]
    }

    /// Inverse of [`GemmConfig::as_vector`].
    pub fn from_vector(v: [u32; 9]) -> Self {
        GemmConfig {
            ms: v[0],
            ns: v[1],
            ml: v[2],
            nl: v[3],
            u: v[4],
            ks: v[5],
            kl: v[6],
            kg: v[7],
            vec: v[8],
            bounds: BoundsMode::PtxPredicated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isaac_device::DType;

    #[test]
    fn default_config_geometry() {
        let c = GemmConfig::default();
        assert_eq!(c.tm(), 8);
        assert_eq!(c.tn(), 8);
        assert_eq!(c.threads(), 64);
        assert_eq!(c.uk(), 8);
        assert_eq!(c.smem_elems(), 128 * 8);
    }

    #[test]
    fn grid_covers_shape_with_padding() {
        let c = GemmConfig::default();
        let s = GemmShape::new(100, 100, 64, "N", "N", DType::F32);
        assert_eq!(c.grid(&s), [2, 2, 1]);
    }

    #[test]
    fn kchunk_is_vector_aligned_and_covers_k() {
        let mut c = GemmConfig {
            kg: 3,
            vec: 4,
            ..Default::default()
        };
        let s = GemmShape::new(64, 64, 1000, "N", "N", DType::F32);
        let kc = c.kchunk(&s);
        assert_eq!(kc % 4, 0);
        assert!(kc * 3 >= 1000);
        c.kg = 1;
        assert!(c.kchunk(&s) >= 1000);
    }

    #[test]
    fn kl_split_multiplies_threads_and_smem() {
        let c = GemmConfig {
            kl: 4,
            ..Default::default()
        };
        assert_eq!(c.threads(), 256);
        assert_eq!(c.uk(), 32);
        // Reduction buffer (64*64) < tiles (128*32), tiles win.
        assert_eq!(c.smem_elems(), 128 * 32);
        let c2 = GemmConfig {
            kl: 2,
            u: 1,
            ..Default::default()
        };
        // Tiles 128*2=256 < reduction 4096.
        assert_eq!(c2.smem_elems(), 4096);
    }

    #[test]
    fn loads_partition_the_tile() {
        let c = GemmConfig::default();
        // ML*UK / (threads*vec) = 64*8/(64*4) = 2
        assert_eq!(c.loads_a(), 2);
        assert_eq!(c.loads_b(), 2);
    }

    #[test]
    fn vector_roundtrip() {
        let c = GemmConfig {
            ms: 2,
            ns: 4,
            ml: 32,
            nl: 16,
            u: 16,
            ks: 2,
            kl: 8,
            kg: 32,
            vec: 2,
            bounds: BoundsMode::PtxPredicated,
        };
        assert_eq!(GemmConfig::from_vector(c.as_vector()), c);
    }

    #[test]
    fn name_mangles_all_params() {
        let c = GemmConfig::default();
        let s = GemmShape::new(512, 512, 512, "N", "T", DType::F64);
        let n = c.name(&s);
        assert_eq!(n, "dgemm_nt_ml64x64_ms8x8_u8_k1.1.1_v4");
    }
}
