//! The possible space X-hat and the legal space X (paper Section 4).
//!
//! X-hat is the cartesian product of per-parameter value lists (every
//! parameter a power of two); X is the subset that compiles *and* executes
//! safely for a given input on a given device: tile/thread divisibility,
//! vectorization alignment against the input layout, shared-memory and
//! register capacity, and architecture-specific constraints (no f64 global
//! atomics before Pascal). Legality depends on both tuning *and* input
//! parameters -- that is exactly why "more than 99.9% of uniformly sampled
//! configurations are illegal" in the paper and why the generative model of
//! `isaac-core` earns its keep.

use crate::config::GemmConfig;
use crate::shapes::GemmShape;
use isaac_device::{DType, DeviceSpec, MicroArch};
use std::sync::{Arc, Mutex, OnceLock};

/// Value lists for each tuning parameter: the possible space X-hat.
#[derive(Debug, Clone)]
pub struct ParamRange {
    /// Parameter name (paper notation).
    pub name: &'static str,
    /// Allowed values (powers of two).
    pub values: &'static [u32],
}

/// The sampling space used throughout the reproduction: 9 tuning
/// parameters, each a power of two, matching the Section 4 setup.
pub const SPACE: &[ParamRange] = &[
    ParamRange {
        name: "Ms",
        values: &[1, 2, 4, 8, 16],
    },
    ParamRange {
        name: "Ns",
        values: &[1, 2, 4, 8, 16],
    },
    ParamRange {
        name: "ML",
        values: &[16, 32, 64, 128],
    },
    ParamRange {
        name: "NL",
        values: &[16, 32, 64, 128],
    },
    ParamRange {
        name: "U",
        values: &[1, 2, 4, 8, 16],
    },
    ParamRange {
        name: "Ks",
        values: &[1, 2, 4],
    },
    ParamRange {
        name: "KL",
        values: &[1, 2, 4, 8],
    },
    ParamRange {
        name: "KG",
        values: &[1, 2, 4, 8, 16, 32, 64],
    },
    ParamRange {
        name: "vec",
        values: &[1, 2, 4],
    },
];

/// Number of points in X-hat.
pub fn space_size() -> u64 {
    SPACE.iter().map(|p| p.values.len() as u64).product()
}

/// Decode the configuration at a given index of the cartesian space
/// (mixed-radix little-endian over [`SPACE`], first parameter fastest).
pub fn decode(mut idx: usize) -> GemmConfig {
    let mut v = [0u32; 9];
    for (slot, range) in v.iter_mut().zip(SPACE.iter()) {
        let size = range.values.len();
        *slot = range.values[idx % size];
        idx /= size;
    }
    GemmConfig::from_vector(v)
}

/// Iterate the full cartesian space X-hat in index order: item `i` is
/// `decode(i)`, produced by carrying a mixed-radix counter instead of
/// running the nine div/mod pairs of [`decode`] per point.
pub fn space_iter() -> impl Iterator<Item = GemmConfig> {
    let mut digits = [0usize; 9];
    (0..space_size()).map(move |_| {
        let mut v = [0u32; 9];
        for ((slot, range), &d) in v.iter_mut().zip(SPACE).zip(&digits) {
            *slot = range.values[d];
        }
        for (d, range) in digits.iter_mut().zip(SPACE) {
            *d += 1;
            if *d < range.values.len() {
                break;
            }
            *d = 0;
        }
        GemmConfig::from_vector(v)
    })
}

/// The full cartesian space X-hat decoded into a flat table in index
/// order, built on first use. ~500k configs x 36 B: the query engine does
/// not touch it (it reads the per-class legal lists of [`legal_class`]);
/// it serves tests and benchmarks that want the whole space at once.
pub fn space_table() -> &'static [GemmConfig] {
    static TABLE: OnceLock<Vec<GemmConfig>> = OnceLock::new();
    TABLE.get_or_init(|| space_iter().collect()).as_slice()
}

/// One configuration's tuning parameters encoded exactly as
/// `isaac_core::features` encodes tuning features (`log2` when `log`,
/// raw otherwise; a test over there pins the bit-equality down). The
/// encoding depends only on the configuration -- never on the query's
/// input shape -- which is what lets [`LegalClass::feature_rows`] be
/// computed once per class instead of once per query.
fn encode_row(cfg: &GemmConfig, log: bool) -> [f32; 9] {
    cfg.as_vector().map(|v| {
        if log {
            ((v as f64).max(1e-9)).log2() as f32
        } else {
            v as f32
        }
    })
}

/// Tuning-parameter feature rows aligned with [`space_table`]: entry `i`
/// is the encoded row (see [`LegalClass::feature_rows`]) of
/// `space_table()[i]`. Built on first use, ~18 MB per encoding; like
/// [`space_table`] it is off the query path.
pub fn space_feature_table(log: bool) -> &'static [[f32; 9]] {
    static TABLES: [OnceLock<Vec<[f32; 9]>>; 2] = [OnceLock::new(), OnceLock::new()];
    TABLES[log as usize]
        .get_or_init(|| {
            space_table()
                .iter()
                .map(|cfg| encode_row(cfg, log))
                .collect()
        })
        .as_slice()
}

/// Why a configuration is illegal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigIssue {
    /// A parameter value is outside its allowed list.
    OutsideSpace(&'static str),
    /// Thread tile does not divide the block tile.
    TileMismatch,
    /// Thread count outside [32, 1024] or not a warp multiple.
    ThreadCount(u32),
    /// Cooperative tile loads do not evenly partition the tile.
    LoadPartition,
    /// Vector width incompatible with the tile or input dimensions.
    Vectorization,
    /// Shared memory demand exceeds the per-block limit.
    SharedMemory(u32),
    /// Register demand exceeds the per-thread limit.
    Registers(u32),
    /// Zero blocks would fit on an SM (register file / smem exhausted).
    Occupancy,
    /// Per-thread reduction split deeper than the prefetch depth.
    SplitTooDeep,
    /// fp16 kernels require an even NS for fp16x2 packing.
    HalfPacking,
    /// f64 global atomics (KG > 1) are unsupported on this architecture.
    AtomicsUnsupported,
}

impl std::fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigIssue::OutsideSpace(p) => write!(f, "parameter {p} outside its value list"),
            ConfigIssue::TileMismatch => f.write_str("thread tile does not divide block tile"),
            ConfigIssue::ThreadCount(t) => write!(f, "thread count {t} outside [32, 1024]"),
            ConfigIssue::LoadPartition => {
                f.write_str("cooperative loads do not partition the shared tiles")
            }
            ConfigIssue::Vectorization => {
                f.write_str("vector width incompatible with layout/shape")
            }
            ConfigIssue::SharedMemory(b) => write!(f, "shared memory {b} B over limit"),
            ConfigIssue::Registers(r) => write!(f, "estimated {r} registers over limit"),
            ConfigIssue::Occupancy => f.write_str("zero resident blocks per SM"),
            ConfigIssue::SplitTooDeep => f.write_str("Ks exceeds or does not divide U"),
            ConfigIssue::HalfPacking => f.write_str("fp16 requires even NS"),
            ConfigIssue::AtomicsUnsupported => {
                f.write_str("f64 global atomics unavailable on this architecture")
            }
        }
    }
}

/// Estimated registers per thread for a configuration (shared by legality
/// and the analytical profile).
pub fn estimate_regs(cfg: &GemmConfig, dtype: DType) -> u32 {
    let rpe = dtype.regs_per_element();
    let acc = cfg.ms as f64 * cfg.ns as f64 * cfg.ks as f64 * rpe;
    let frags = (cfg.ms + cfg.ns) as f64 * rpe;
    // Per cooperative load: 64-bit address (2), running k index (1), shared
    // store offset (1).
    let loads = (cfg.loads_a() + cfg.loads_b()) as f64 * 4.0;
    let staging = cfg.vec as f64 * rpe;
    (24.0 + acc + frags + loads + staging).ceil() as u32
}

/// Check whether each parameter value belongs to the space X-hat.
pub fn in_space(cfg: &GemmConfig) -> Result<(), ConfigIssue> {
    let v = cfg.as_vector();
    for (range, &val) in SPACE.iter().zip(v.iter()) {
        if !range.values.contains(&val) {
            return Err(ConfigIssue::OutsideSpace(range.name));
        }
    }
    Ok(())
}

/// Full legality check of a `(tuning, input)` pair on a device: membership
/// in X.
pub fn check(cfg: &GemmConfig, shape: &GemmShape, spec: &DeviceSpec) -> Result<(), ConfigIssue> {
    in_space(cfg)?;
    check_physical(cfg, shape, spec)
}

/// The physical subset of the legality rules: everything except membership
/// in the curated value lists. Used on its own when sampling rawer spaces
/// (the Table 1 experiment draws every parameter from powers of two in
/// `[1, 16]`, which is intentionally outside the curated lists).
pub fn check_physical(
    cfg: &GemmConfig,
    shape: &GemmShape,
    spec: &DeviceSpec,
) -> Result<(), ConfigIssue> {
    if cfg.ms > cfg.ml || cfg.ns > cfg.nl {
        return Err(ConfigIssue::TileMismatch);
    }
    let threads = cfg.threads();
    if !(32..=1024).contains(&threads) || !threads.is_multiple_of(32) {
        return Err(ConfigIssue::ThreadCount(threads));
    }
    let uk = cfg.uk();
    let per_round = threads * cfg.vec;
    if !(cfg.ml * uk).is_multiple_of(per_round)
        || !(cfg.nl * uk).is_multiple_of(per_round)
        || cfg.ml * uk < per_round
        || cfg.nl * uk < per_round
    {
        return Err(ConfigIssue::LoadPartition);
    }
    if cfg.vec > 1 {
        // A loads are contiguous along M (not transposed) or K (transposed).
        let a_ok = if shape.trans_a {
            uk.is_multiple_of(cfg.vec) && shape.k.is_multiple_of(cfg.vec)
        } else {
            cfg.ml.is_multiple_of(cfg.vec) && shape.m.is_multiple_of(cfg.vec)
        };
        // B loads are contiguous along K (not transposed) or N (transposed).
        let b_ok = if shape.trans_b {
            cfg.nl.is_multiple_of(cfg.vec) && shape.n.is_multiple_of(cfg.vec)
        } else {
            uk.is_multiple_of(cfg.vec) && shape.k.is_multiple_of(cfg.vec)
        };
        if !a_ok || !b_ok {
            return Err(ConfigIssue::Vectorization);
        }
    }
    if cfg.ks > cfg.u || !cfg.u.is_multiple_of(cfg.ks) {
        return Err(ConfigIssue::SplitTooDeep);
    }
    if shape.dtype == DType::F16 && !cfg.ns.is_multiple_of(2) {
        return Err(ConfigIssue::HalfPacking);
    }
    if cfg.kg > 1 && shape.dtype == DType::F64 && spec.arch == MicroArch::Maxwell {
        return Err(ConfigIssue::AtomicsUnsupported);
    }

    // Account shared memory exactly as the kernels allocate it: A/B tiles
    // in data precision plus the KL-reduction buffer in accumulator
    // precision (see `crate::profile::smem_bytes`).
    let smem_bytes = crate::profile::smem_bytes(cfg, shape.dtype);
    if smem_bytes > spec.max_smem_per_block {
        return Err(ConfigIssue::SharedMemory(smem_bytes));
    }
    let regs = estimate_regs(cfg, shape.dtype);
    if regs > spec.max_regs_per_thread {
        return Err(ConfigIssue::Registers(regs));
    }
    // One block must fit on an SM.
    let regs_per_block = regs * threads;
    if regs_per_block > spec.regs_per_sm || smem_bytes > spec.smem_per_sm {
        return Err(ConfigIssue::Occupancy);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Legality classes
// ---------------------------------------------------------------------------

/// Exactly what [`check_physical`] reads besides the configuration: the
/// device limits it compares against, the dtype, and -- all that is left
/// of the input shape -- whether some operand is contiguous along K and
/// the widest vector the contiguous dimensions allow. Two `(shape,
/// device)` pairs with equal keys have equal legal sets, so the legal
/// set is computed once per key ([`legal_class`]) instead of once per
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LegalKey {
    arch: MicroArch,
    max_smem_per_block: u32,
    max_regs_per_thread: u32,
    regs_per_sm: u32,
    smem_per_sm: u32,
    dtype: DType,
    /// An operand is loaded along K (`trans_a || !trans_b`): vector loads
    /// then also need `vec | U*KL`, the only way the transposition flags
    /// reach a configuration.
    k_contiguous: bool,
    /// Largest `vec` dividing every dimension the layout makes contiguous.
    max_vec: u32,
}

/// `vec`, the last and therefore most significant digit of a space index.
const VEC: &ParamRange = &SPACE[SPACE.len() - 1];

/// Largest vector width in X-hat that divides `dim`.
fn widest_vec(dim: u32) -> u32 {
    VEC.values
        .iter()
        .copied()
        .filter(|&v| dim.is_multiple_of(v))
        .max()
        .unwrap_or(1)
}

impl LegalKey {
    /// The legality class of a GEMM shape on a device.
    pub(crate) fn gemm(shape: &GemmShape, spec: &DeviceSpec) -> Self {
        let a_dim = if shape.trans_a { shape.k } else { shape.m };
        let b_dim = if shape.trans_b { shape.n } else { shape.k };
        LegalKey {
            arch: spec.arch,
            max_smem_per_block: spec.max_smem_per_block,
            max_regs_per_thread: spec.max_regs_per_thread,
            regs_per_sm: spec.regs_per_sm,
            smem_per_sm: spec.smem_per_sm,
            dtype: shape.dtype,
            k_contiguous: shape.trans_a || !shape.trans_b,
            max_vec: widest_vec(a_dim).min(widest_vec(b_dim)),
        }
    }

    /// The class further restricted to vector widths dividing `dim` (the
    /// CONV batch size: a vector must not cross an image boundary).
    pub(crate) fn also_contiguous(self, dim: u32) -> Self {
        LegalKey {
            max_vec: self.max_vec.min(widest_vec(dim)),
            ..self
        }
    }
}

/// The legal configurations of the widest class of a `(device, dtype,
/// K-contiguity)` triple, in space-index order. `vec` is the most
/// significant digit of a space index and the shape only ever *caps* it,
/// so the legal set of a narrower `max_vec` is a prefix of this list:
/// GEMM and CONV together need at most two lists per device and dtype.
struct LegalList {
    idx: Vec<u32>,
    /// Encoded tuning-feature rows of `idx`, raw and log, built on demand
    /// (enumeration and the heuristic never need them).
    rows: [OnceLock<Vec<[f32; 9]>>; 2],
}

/// At most this many [`LegalList`]s (~0.4 MB of indices + ~3.3 MB per
/// feature encoding each) stay memoized; the least recently used goes.
const MAX_LISTS: usize = 6;

static LISTS: Mutex<Vec<(LegalKey, Arc<LegalList>)>> = Mutex::new(Vec::new());

/// The legal subset of X-hat for one legality class: space indices in index
/// order plus a contiguous copy of their encoded tuning-feature rows. A
/// view into a shared, memoized list.
pub struct LegalClass {
    list: Arc<LegalList>,
    len: usize,
}

/// The legal configurations of a GEMM `shape` on `spec`: exactly
/// `(0..space_size()).filter(|i| check_physical(&decode(i), shape, spec).is_ok())`,
/// looked up by what the check reads of `(shape, spec)` instead of recomputed.
pub fn legal_class(shape: &GemmShape, spec: &DeviceSpec) -> LegalClass {
    class_of(LegalKey::gemm(shape, spec), spec)
}

/// Look the class of `key` up, building its backing list on first use by
/// streaming [`check_physical`] over X-hat once. `spec` must be the
/// device `key` was derived from.
pub(crate) fn class_of(key: LegalKey, spec: &DeviceSpec) -> LegalClass {
    let widest = *VEC.values.iter().max().expect("vec has values");
    let list_key = LegalKey {
        max_vec: widest,
        ..key
    };
    let list = {
        let mut lists = LISTS.lock().expect("legal lists poisoned");
        let entry = match lists.iter().position(|(k, _)| *k == list_key) {
            Some(at) => lists.remove(at),
            None => {
                if lists.len() == MAX_LISTS {
                    lists.remove(0);
                }
                (list_key, Arc::new(LegalList::build(&list_key, spec)))
            }
        };
        lists.push(entry);
        Arc::clone(&lists.last().expect("just pushed").1)
    };
    // Space indices below `bound` are exactly those with `vec <= max_vec`.
    let planes = VEC.values.iter().filter(|&&v| v <= key.max_vec).count();
    let bound = space_size() as usize / VEC.values.len() * planes;
    let len = list.idx.partition_point(|&i| (i as usize) < bound);
    LegalClass { list, len }
}

impl LegalList {
    fn build(key: &LegalKey, spec: &DeviceSpec) -> Self {
        // A representative of the class: every dimension divides by
        // `max_vec`; N/N has a K-contiguous operand (B), N/T has none.
        let shape = GemmShape {
            m: key.max_vec,
            n: key.max_vec,
            k: key.max_vec,
            trans_a: false,
            trans_b: !key.k_contiguous,
            dtype: key.dtype,
        };
        debug_assert_eq!(LegalKey::gemm(&shape, spec), *key);
        let idx = space_iter()
            .enumerate()
            .filter(|(_, cfg)| check_physical(cfg, &shape, spec).is_ok())
            .map(|(i, _)| i as u32)
            .collect();
        LegalList {
            idx,
            rows: Default::default(),
        }
    }
}

impl LegalClass {
    /// Number of legal configurations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no configuration is legal.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Space indices of the legal configurations, ascending.
    pub fn indices(&self) -> &[u32] {
        &self.list.idx[..self.len]
    }

    /// The legal configurations, in space order.
    pub fn configs(&self) -> impl Iterator<Item = GemmConfig> + '_ {
        self.indices().iter().map(|&i| decode(i as usize))
    }

    /// Encoded tuning-feature rows aligned with [`LegalClass::indices`]:
    /// row `p` holds the 9 parameter values of `decode(indices()[p])` as
    /// `isaac_core::features` encodes them, so a candidate's feature row
    /// is a 9-float copy with no `log2` on the query path.
    pub fn feature_rows(&self, log: bool) -> &[[f32; 9]] {
        let rows = self.list.rows[log as usize].get_or_init(|| {
            self.list
                .idx
                .iter()
                .map(|&i| encode_row(&decode(i as usize), log))
                .collect()
        });
        &rows[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isaac_device::specs::{gtx980ti, tesla_p100};

    fn square_shape() -> GemmShape {
        GemmShape::new(2048, 2048, 2048, "N", "T", DType::F32)
    }

    #[test]
    fn default_config_is_legal() {
        let cfg = GemmConfig::default();
        assert_eq!(check(&cfg, &square_shape(), &tesla_p100()), Ok(()));
    }

    #[test]
    fn outside_space_detected() {
        let cfg = GemmConfig {
            ms: 3,
            ..Default::default()
        };
        assert_eq!(
            check(&cfg, &square_shape(), &tesla_p100()),
            Err(ConfigIssue::OutsideSpace("Ms"))
        );
    }

    #[test]
    fn thread_count_limits() {
        // 128/1 * 128/1 = 16384 threads.
        let cfg = GemmConfig {
            ms: 1,
            ns: 1,
            ml: 128,
            nl: 128,
            ..Default::default()
        };
        assert!(matches!(
            check(&cfg, &square_shape(), &tesla_p100()),
            Err(ConfigIssue::ThreadCount(_))
        ));
        // 16/16=1 x 16/16=1 x KL=1 -> 1 thread: too few.
        let cfg = GemmConfig {
            ms: 16,
            ns: 16,
            ml: 16,
            nl: 16,
            u: 16,
            vec: 1,
            ..Default::default()
        };
        assert!(matches!(
            check(&cfg, &square_shape(), &tesla_p100()),
            Err(ConfigIssue::ThreadCount(_))
        ));
    }

    #[test]
    fn load_partition_must_divide() {
        // threads*vec = 64*4 = 256; ML*UK = 16*2 = 32 < 256.
        let cfg = GemmConfig {
            ml: 16,
            nl: 128,
            ms: 2,
            ns: 16,
            u: 2,
            ..Default::default()
        };
        assert_eq!(
            check(&cfg, &square_shape(), &tesla_p100()),
            Err(ConfigIssue::LoadPartition)
        );
    }

    #[test]
    fn vectorization_respects_input_shape() {
        let cfg = GemmConfig::default(); // vec = 4
                                         // M = 30 not divisible by 4, A not transposed.
        let shape = GemmShape::new(30, 64, 64, "N", "N", DType::F32);
        assert_eq!(
            check(&cfg, &shape, &tesla_p100()),
            Err(ConfigIssue::Vectorization)
        );
        // Scalar loads make it legal again.
        let cfg1 = GemmConfig {
            vec: 1,
            u: 2,
            ..Default::default()
        };
        assert_eq!(check(&cfg1, &shape, &tesla_p100()), Ok(()));
    }

    #[test]
    fn smem_limit_enforced() {
        // (128+128)*16*KL4 * 4B = 64 KiB > 48 KiB limit.
        let cfg = GemmConfig {
            ml: 128,
            nl: 128,
            ms: 8,
            ns: 8,
            u: 16,
            kl: 4,
            ..Default::default()
        };
        assert!(matches!(
            check(&cfg, &square_shape(), &tesla_p100()),
            Err(ConfigIssue::SharedMemory(_))
        ));
    }

    #[test]
    fn f64_atomics_maxwell_only_illegal_there() {
        let cfg = GemmConfig {
            kg: 8,
            ..Default::default()
        };
        let shape = GemmShape::new(256, 256, 4096, "N", "T", DType::F64);
        assert_eq!(
            check(&cfg, &shape, &gtx980ti()),
            Err(ConfigIssue::AtomicsUnsupported)
        );
        assert_eq!(check(&cfg, &shape, &tesla_p100()), Ok(()));
    }

    #[test]
    fn f16_requires_even_ns() {
        // 64/8 x 64/1 = 512 threads, loads partition with vec=1, u=8.
        let cfg = GemmConfig {
            ms: 8,
            ns: 1,
            ml: 64,
            nl: 64,
            u: 8,
            vec: 1,
            ..Default::default()
        };
        let f16 = GemmShape::new(2048, 2048, 2048, "N", "T", DType::F16);
        assert_eq!(
            check(&cfg, &f16, &tesla_p100()),
            Err(ConfigIssue::HalfPacking)
        );
        let f32s = square_shape();
        assert_eq!(check(&cfg, &f32s, &tesla_p100()), Ok(()));
    }

    #[test]
    fn ks_must_divide_u() {
        let cfg = GemmConfig {
            ks: 4,
            u: 2,
            vec: 1,
            ..Default::default()
        };
        assert_eq!(
            check(&cfg, &square_shape(), &tesla_p100()),
            Err(ConfigIssue::SplitTooDeep)
        );
    }

    #[test]
    fn space_size_is_large() {
        assert_eq!(space_size(), 5 * 5 * 4 * 4 * 5 * 3 * 4 * 7 * 3);
    }

    #[test]
    fn space_table_is_complete_and_distinct() {
        let table = space_table();
        assert_eq!(table.len() as u64, space_size());
        let set: std::collections::HashSet<[u32; 9]> =
            table.iter().map(|c| c.as_vector()).collect();
        assert_eq!(set.len(), table.len(), "decode must be a bijection");
        for cfg in table.iter().step_by(9973) {
            assert_eq!(in_space(cfg), Ok(()));
        }
    }

    #[test]
    fn space_iter_is_decode_in_index_order() {
        assert_eq!(space_iter().count() as u64, space_size());
        for (i, cfg) in space_iter().enumerate().step_by(997) {
            assert_eq!(cfg, decode(i), "index {i}");
        }
        assert_eq!(space_iter().last(), Some(decode(space_size() as usize - 1)));
    }

    /// The reference the class lists replace: the per-query filter.
    fn filtered(legal: impl Fn(&GemmConfig) -> bool) -> Vec<u32> {
        (0..space_size() as usize)
            .filter(|&i| legal(&decode(i)))
            .map(|i| i as u32)
            .collect()
    }

    /// Class list == per-query filter, exactly, on seeded shapes covering
    /// odd / 2-aligned / 4-aligned dimensions, all four layouts, every
    /// dtype, both devices, and CONV with odd and even batches; and two
    /// shapes with equal keys never have different legal sets.
    #[test]
    fn legal_classes_match_the_per_query_filter() {
        use crate::conv;
        use crate::shapes::ConvShape;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;

        let mut rng = StdRng::seed_from_u64(0x1e9a1);
        // A dimension that is odd, 2- but not 4-aligned, or 4-aligned.
        let dim = |rng: &mut StdRng| -> u32 {
            let base: u32 = rng.gen_range(3..600);
            match rng.gen_range(0..3) {
                0 => base * 2 + 1,
                1 => base * 4 + 2,
                _ => base * 4,
            }
        };
        let mut by_key: HashMap<LegalKey, Vec<u32>> = HashMap::new();
        let mut agree = |key: LegalKey, class: LegalClass, reference: Vec<u32>, what: String| {
            assert_eq!(class.indices(), reference, "{what}: class != filter");
            assert_eq!(class.len(), reference.len());
            let first = by_key.entry(key).or_insert_with(|| reference.clone());
            assert_eq!(
                *first, reference,
                "{what}: equal keys, different legal sets"
            );
        };
        for spec in [tesla_p100(), gtx980ti()] {
            for dtype in [DType::F16, DType::F32, DType::F64] {
                for (ta, tb) in [("N", "N"), ("N", "T"), ("T", "N"), ("T", "T")] {
                    for _ in 0..2 {
                        let shape = GemmShape::new(
                            dim(&mut rng),
                            dim(&mut rng),
                            dim(&mut rng),
                            ta,
                            tb,
                            dtype,
                        );
                        agree(
                            LegalKey::gemm(&shape, &spec),
                            legal_class(&shape, &spec),
                            filtered(|cfg| check(cfg, &shape, &spec).is_ok()),
                            format!("{} {shape:?}", spec.name),
                        );
                    }
                }
                for batch in [1, 6, 16] {
                    let filters = dim(&mut rng);
                    let shape = ConvShape::from_output(batch, 7, 5, filters, 24, 3, 3, dtype);
                    let view = conv::equivalent_gemm(&shape);
                    agree(
                        LegalKey::gemm(&view, &spec).also_contiguous(shape.n),
                        conv::legal_class(&shape, &spec),
                        filtered(|cfg| conv::check(cfg, &shape, &spec).is_ok()),
                        format!("{} {shape:?}", spec.name),
                    );
                }
            }
        }
        assert!(by_key.len() >= 12, "only {} classes covered", by_key.len());
    }

    /// Feature rows follow the index list and stay aligned under the
    /// prefix view of a narrower class.
    #[test]
    fn class_feature_rows_align_with_indices() {
        let spec = tesla_p100();
        let odd = GemmShape::new(33, 64, 64, "N", "T", DType::F32);
        let class = legal_class(&odd, &spec);
        assert!(!class.is_empty());
        assert!(
            class.configs().all(|cfg| cfg.vec == 1),
            "odd M caps vec at 1"
        );
        for log in [false, true] {
            let rows = class.feature_rows(log);
            assert_eq!(rows.len(), class.len());
            for (row, &i) in rows.iter().zip(class.indices()).step_by(211) {
                assert_eq!(*row, space_feature_table(log)[i as usize]);
            }
        }
    }

    #[test]
    fn register_estimate_scales_with_tile_and_dtype() {
        let small = GemmConfig {
            ms: 2,
            ns: 2,
            ..Default::default()
        };
        let big = GemmConfig {
            ms: 16,
            ns: 16,
            ml: 128,
            nl: 128,
            ..Default::default()
        };
        assert!(estimate_regs(&big, DType::F32) > estimate_regs(&small, DType::F32));
        assert!(estimate_regs(&big, DType::F64) > estimate_regs(&big, DType::F32));
        assert!(estimate_regs(&big, DType::F16) < estimate_regs(&big, DType::F32));
    }
}
