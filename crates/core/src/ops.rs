//! Pluggable op families: one trait object per operation kind, owning
//! everything about the op that the generic tuning/serving machinery
//! must not hardcode.
//!
//! The tuner pipeline (dataset generation, the query engine, finalist
//! re-benchmarking, warm-start, the degraded-mode heuristic) is the same
//! loop for every operation; what differs per family is the tuning
//! space, the legality rules, the analytical profile and the feature
//! encoding. [`OpFamily`] supplies exactly those differences behind a
//! `&'static dyn` registry ([`family`]); the engine
//! ([`crate::inference::infer`], [`crate::inference::rebench`]) is
//! written once over them. This file is the one place an [`OpKind`] is
//! matched on and a per-family routine is picked. Adding an operation
//! means adding a variant, a family struct and a registry row; the
//! engine, tuner, cache, WAL, snapshot and serving code paths pick it up
//! unchanged.

use crate::dataset::{
    generate_conv_dataset, generate_gemm_dataset, generate_sparse_dataset, DatasetOptions, OpKind,
};
use crate::features::{
    conv_shape_features_into, gemm_shape_features_into, sparse_shape_features_into,
    CONV_INPUT_FEATURES, GEMM_INPUT_FEATURES, SPARSE_INPUT_FEATURES,
};
use crate::inference::{Candidates, TunedChoice};
use crate::tuner::KeyShape;
use isaac_device::{DeviceSpec, KernelProfile, Profiler};
use isaac_gen::legality::LegalClass;
use isaac_gen::profile::{conv_profile, gemm_profile};
use isaac_gen::shapes::{ConvShape, GemmShape};
use isaac_gen::GemmConfig;
use isaac_mlp::Dataset;
use isaac_sparse::profile::sparse_profile;
use isaac_sparse::SparseShape;

/// What one operation family supplies to the generic tuning machinery.
/// Implementations are stateless unit structs; the per-process state
/// they rely on (decoded space tables, memoized legality classes and
/// their encoded feature rows) lives in the family's own crate behind
/// `OnceLock`s.
///
/// Every method taking a [`KeyShape`] panics if the shape belongs to a
/// different family.
pub(crate) trait OpFamily: Sync {
    /// The configurations legal for `shape` on `spec`, in space order,
    /// with their encoded tuning-feature rows.
    fn candidates(&self, shape: &KeyShape, spec: &DeviceSpec, log_features: bool) -> Candidates;

    /// Write the input-shape half of `shape`'s feature vector into the
    /// front of `out` and return its length.
    fn shape_features(&self, shape: &KeyShape, log_features: bool, out: &mut [f32]) -> usize;

    /// Whether `cfg` is legal for `shape` on `spec`.
    fn is_legal(&self, cfg: &GemmConfig, shape: &KeyShape, spec: &DeviceSpec) -> bool;

    /// The analytical profile of `cfg` run on `shape`; `None` if `cfg`
    /// is illegal there.
    fn profile(
        &self,
        cfg: &GemmConfig,
        shape: &KeyShape,
        spec: &DeviceSpec,
    ) -> Option<KernelProfile>;

    /// Model-free degraded-mode fallback choice for `shape`: no MLP, no
    /// re-benchmarking, deterministic. The returned [`TunedChoice`]
    /// carries zeroed model/measurement fields (`predicted_gflops ==
    /// tflops == 0.0`): it is a placeholder decision, not an
    /// authoritative tune, and callers (the serving layer's degraded
    /// mode) must not persist it as one. `None` only when no
    /// configuration is legal for the shape.
    fn heuristic(&self, shape: &KeyShape, spec: &DeviceSpec) -> Option<TunedChoice>;

    /// Generate this family's training dataset on the device behind
    /// `profiler`.
    fn generate_dataset(&self, profiler: &Profiler, opts: &DatasetOptions) -> Dataset;
}

fn wrong_family(family: OpKind, shape: &KeyShape) -> ! {
    panic!("{family} op family asked about a {} shape", shape.kind())
}

fn gemm(shape: &KeyShape) -> &GemmShape {
    match shape {
        KeyShape::Gemm(s) => s,
        other => wrong_family(OpKind::Gemm, other),
    }
}

fn conv(shape: &KeyShape) -> &ConvShape {
    match shape {
        KeyShape::Conv(s) => s,
        other => wrong_family(OpKind::Conv, other),
    }
}

fn sparse(shape: &KeyShape) -> &SparseShape {
    match shape {
        KeyShape::Sparse(s) => s,
        other => wrong_family(OpKind::Sparse, other),
    }
}

struct GemmFamily;

impl OpFamily for GemmFamily {
    fn candidates(&self, shape: &KeyShape, spec: &DeviceSpec, log_features: bool) -> Candidates {
        let class = isaac_gen::legality::legal_class(gemm(shape), spec);
        Candidates::dense(class, log_features)
    }

    fn shape_features(&self, shape: &KeyShape, log_features: bool, out: &mut [f32]) -> usize {
        gemm_shape_features_into(gemm(shape), log_features, &mut out[..GEMM_INPUT_FEATURES]);
        GEMM_INPUT_FEATURES
    }

    fn is_legal(&self, cfg: &GemmConfig, shape: &KeyShape, spec: &DeviceSpec) -> bool {
        isaac_gen::legality::check(cfg, gemm(shape), spec).is_ok()
    }

    fn profile(
        &self,
        cfg: &GemmConfig,
        shape: &KeyShape,
        spec: &DeviceSpec,
    ) -> Option<KernelProfile> {
        gemm_profile(cfg, gemm(shape), spec).ok()
    }

    /// The largest-legal-tile rule over the legality table: the classic
    /// static heuristic the paper's input-aware model is measured
    /// against.
    fn heuristic(&self, shape: &KeyShape, spec: &DeviceSpec) -> Option<TunedChoice> {
        largest_legal_tile(
            |cfg| self.is_legal(cfg, shape, spec),
            || isaac_gen::legality::legal_class(gemm(shape), spec),
        )
    }

    fn generate_dataset(&self, profiler: &Profiler, opts: &DatasetOptions) -> Dataset {
        generate_gemm_dataset(profiler, opts)
    }
}

struct ConvFamily;

impl OpFamily for ConvFamily {
    fn candidates(&self, shape: &KeyShape, spec: &DeviceSpec, log_features: bool) -> Candidates {
        let class = isaac_gen::conv::legal_class(conv(shape), spec);
        Candidates::dense(class, log_features)
    }

    fn shape_features(&self, shape: &KeyShape, log_features: bool, out: &mut [f32]) -> usize {
        conv_shape_features_into(conv(shape), log_features, &mut out[..CONV_INPUT_FEATURES]);
        CONV_INPUT_FEATURES
    }

    fn is_legal(&self, cfg: &GemmConfig, shape: &KeyShape, spec: &DeviceSpec) -> bool {
        isaac_gen::conv::check(cfg, conv(shape), spec).is_ok()
    }

    fn profile(
        &self,
        cfg: &GemmConfig,
        shape: &KeyShape,
        spec: &DeviceSpec,
    ) -> Option<KernelProfile> {
        conv_profile(cfg, conv(shape), spec).ok()
    }

    /// The GEMM rule, via the convolution's implicit-GEMM view.
    fn heuristic(&self, shape: &KeyShape, spec: &DeviceSpec) -> Option<TunedChoice> {
        largest_legal_tile(
            |cfg| self.is_legal(cfg, shape, spec),
            || isaac_gen::conv::legal_class(conv(shape), spec),
        )
    }

    fn generate_dataset(&self, profiler: &Profiler, opts: &DatasetOptions) -> Dataset {
        generate_conv_dataset(profiler, opts)
    }
}

struct SparseFamily;

impl OpFamily for SparseFamily {
    /// Sparse legality reads the whole input structure, so there is no
    /// class to memoize: the 216-point space is filtered per query.
    fn candidates(&self, shape: &KeyShape, _spec: &DeviceSpec, log_features: bool) -> Candidates {
        let s = sparse(shape);
        let table = isaac_sparse::space_table();
        let tfeat = isaac_sparse::space_feature_table(log_features);
        let idx: Vec<u32> = (0..table.len() as u32)
            .filter(|&i| isaac_sparse::space::check(&table[i as usize], s).is_ok())
            .collect();
        let rows = idx.iter().map(|&i| tfeat[i as usize]).collect();
        Candidates::listed(idx, rows, |i| isaac_sparse::space_table()[i])
    }

    fn shape_features(&self, shape: &KeyShape, log_features: bool, out: &mut [f32]) -> usize {
        let s = sparse(shape);
        sparse_shape_features_into(s, log_features, &mut out[..SPARSE_INPUT_FEATURES]);
        SPARSE_INPUT_FEATURES
    }

    fn is_legal(&self, cfg: &GemmConfig, shape: &KeyShape, _spec: &DeviceSpec) -> bool {
        isaac_sparse::space::check(cfg, sparse(shape)).is_ok()
    }

    fn profile(
        &self,
        cfg: &GemmConfig,
        shape: &KeyShape,
        spec: &DeviceSpec,
    ) -> Option<KernelProfile> {
        sparse_profile(cfg, sparse(shape), spec).ok()
    }

    /// The scalar one-row-per-thread kernel
    /// (`isaac_sparse::space::heuristic_config`), legal for every
    /// operation and structure -- the classic structure-oblivious CSR
    /// baseline the input-aware model is measured against. Falls back
    /// to a sparse-space scan for defensive totality.
    fn heuristic(&self, shape: &KeyShape, spec: &DeviceSpec) -> Option<TunedChoice> {
        let cfg = isaac_sparse::space::heuristic_config();
        if self.is_legal(&cfg, shape, spec) {
            return Some(fallback_choice(cfg));
        }
        isaac_sparse::space_table()
            .iter()
            .find(|cfg| self.is_legal(cfg, shape, spec))
            .map(|cfg| fallback_choice(*cfg))
    }

    fn generate_dataset(&self, profiler: &Profiler, opts: &DatasetOptions) -> Dataset {
        generate_sparse_dataset(profiler, opts)
    }
}

/// The op-family registry: the one place an [`OpKind`] is matched on.
pub(crate) fn family(kind: OpKind) -> &'static dyn OpFamily {
    match kind {
        OpKind::Gemm => &GemmFamily,
        OpKind::Conv => &ConvFamily,
        OpKind::Sparse => &SparseFamily,
    }
}

/// All configurations legal for a GEMM `shape` on `spec`, in space
/// order. Kept as a named function because `benchmark/`'s oracle and
/// probes import it.
pub fn enumerate_legal_gemm(shape: &GemmShape, spec: &DeviceSpec) -> Vec<GemmConfig> {
    isaac_gen::legality::legal_class(shape, spec)
        .configs()
        .collect()
}

/// All configurations legal for a convolution, in space order. Kept as
/// a named function because `benchmark/`'s oracle and probes import it.
pub fn enumerate_legal_conv(shape: &ConvShape, spec: &DeviceSpec) -> Vec<GemmConfig> {
    isaac_gen::conv::legal_class(shape, spec)
        .configs()
        .collect()
}

/// All sparse configurations legal for the input structure `shape`, in
/// sparse-space order (sparse legality is input-dependent, not
/// device-dependent). Kept as a named function because `benchmark/`'s
/// oracle imports it.
pub fn enumerate_legal_sparse(shape: &SparseShape) -> Vec<GemmConfig> {
    isaac_sparse::space_table()
        .iter()
        .filter(|cfg| isaac_sparse::space::check(cfg, shape).is_ok())
        .copied()
        .collect()
}

/// The dense families' heuristic sweep: try a small, preference-ordered
/// candidate list -- largest macro-tile area first, then the widest
/// micro-tile / unroll / vector width -- then fall back to the first
/// member of the shape's legality class if none of the preferred shapes
/// are legal. The bounded sweep keeps the degraded path O(hundreds) of
/// legality checks, and the last resort a memoized lookup.
fn largest_legal_tile(
    legal: impl Fn(&GemmConfig) -> bool,
    class: impl FnOnce() -> LegalClass,
) -> Option<TunedChoice> {
    // Macro-tile pairs from {128,64,32,16}^2, largest area first (ties:
    // taller `ml` first -- row-major access favors the M dimension).
    let lengths = [128u32, 64, 32, 16];
    let mut tiles: Vec<(u32, u32)> = Vec::with_capacity(16);
    for &ml in &lengths {
        for &nl in &lengths {
            tiles.push((ml, nl));
        }
    }
    tiles.sort_by_key(|&(ml, nl)| (std::cmp::Reverse(ml * nl), std::cmp::Reverse(ml)));

    for (ml, nl) in tiles {
        for (ms, ns) in [(8u32, 8u32), (4, 4), (2, 2), (1, 1)] {
            for u in [8u32, 4, 2, 1] {
                for vec in [4u32, 2, 1] {
                    let cfg = GemmConfig {
                        ms,
                        ns,
                        ml,
                        nl,
                        u,
                        ks: 1,
                        kl: 1,
                        kg: 1,
                        vec,
                        ..GemmConfig::default()
                    };
                    if legal(&cfg) {
                        return Some(fallback_choice(cfg));
                    }
                }
            }
        }
    }
    // Degenerate shapes (tiny or oddly-aligned inputs) can reject every
    // preferred candidate: take the first legal configuration in index
    // order so the fallback is total whenever *any* exists.
    class().configs().next().map(fallback_choice)
}

fn fallback_choice(config: GemmConfig) -> TunedChoice {
    TunedChoice {
        config,
        predicted_gflops: 0.0,
        tflops: 0.0,
        time_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isaac_device::specs::tesla_p100;
    use isaac_device::DType;
    use isaac_sparse::SparseOp;

    fn sample_shapes() -> [KeyShape; 3] {
        [
            KeyShape::Gemm(GemmShape::new(256, 256, 256, "N", "T", DType::F32)),
            KeyShape::Conv(ConvShape::from_output(8, 7, 7, 64, 64, 3, 3, DType::F32)),
            KeyShape::Sparse(SparseShape {
                op: SparseOp::Spmv,
                rows: 4096,
                nnz: 81920,
                row_mean_milli: 20_000,
                row_cv_milli: 500,
                row_max: 64,
                bandwidth: 128,
                block_density_milli: 250,
                dtype: DType::F32,
            }),
        ]
    }

    /// A family asked about a foreign shape panics, so each kind's
    /// registry row must accept that kind's shapes.
    #[test]
    fn registry_returns_the_matching_family() {
        let mut out = [0.0; 16];
        for shape in sample_shapes() {
            family(shape.kind()).shape_features(&shape, true, &mut out);
        }
    }

    #[test]
    fn families_dispatch_heuristics_for_their_own_shapes() {
        for shape in sample_shapes() {
            assert!(family(shape.kind())
                .heuristic(&shape, &tesla_p100())
                .is_some());
        }
    }

    #[test]
    #[should_panic(expected = "sparse op family asked about a gemm shape")]
    fn shape_family_mismatch_panics() {
        let gemm = KeyShape::Gemm(GemmShape::new(8, 8, 8, "N", "N", DType::F32));
        let _ = family(OpKind::Sparse).heuristic(&gemm, &tesla_p100());
    }
}
