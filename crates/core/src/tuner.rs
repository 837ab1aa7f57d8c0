//! The end-to-end tuner facade: train once per (device, operation),
//! then tune and execute kernels for arbitrary inputs.
//!
//! `IsaacTuner::train` runs the full paper pipeline -- generative
//! sampling, simulated benchmarking, MLP regression -- and the resulting
//! object answers `tune_gemm`/`tune_conv` queries with cached
//! [`TunedChoice`]s. `gemm_f32`/`conv_f32` additionally *execute* the
//! selected kernel on the functional VM, so results are bit-checked
//! end to end. Trained models serialize to a plain-text format
//! (`save`/`load`) which the benchmark harness uses to cache tuners under
//! `target/isaac-cache/`.
//!
//! Tuning decisions live in a [`TuneCache`]: a size-bounded,
//! shape-keyed cache keyed by `(device, OpKind, DType, ShapeKey)` and
//! split into hash-partitioned segments, so repeated queries for the
//! same input are O(1) reads under one segment's shared lock and a hit
//! touches no cross-segment shared state (recency/hit bookkeeping is
//! sampled 1-in-K per segment; cache-wide hit/miss totals stay exact in
//! thread-striped counters) -- every tuning method takes `&self` and
//! the tuner can be shared across serving threads. Victim choice under
//! capacity pressure is pluggable ([`EvictionPolicy`]):
//! the default [`EvictionPolicy::CostAware`] weighs recency, per-entry
//! hit counts and the shape-derived re-tune cost
//! ([`TuneKey::retune_cost`]) so hot or expensive decisions outlive
//! cold, cheap ones; exact LRU remains as the reference policy.
//! Hit/miss/eviction counters ([`IsaacTuner::cache_stats`]) feed the
//! bench harness. Caches persist via `save_cache`/`load_cache`
//! (device-tagged v2 text format, corrupt lines counted; a dirty bit
//! lets the serving layer's WAL compactor skip clean shards),
//! and a fresh device can be [`IsaacTuner::warm_start`]ed from a
//! neighbour's decisions by re-benchmarking them instead of
//! cold-tuning.

use crate::dataset::{DatasetOptions, OpKind};
use crate::durability::{CacheJournal, WalRecord};
use crate::inference::{infer, rebench, CascadeConfig, InferOptions, TunedChoice};
use crate::ops::family;
use isaac_device::{DType, DeviceSpec, Profiler};
use isaac_gen::shapes::{ConvShape, GemmShape};
use isaac_gen::{conv, gemm};
use isaac_mlp::io::ModelBundle;
use isaac_mlp::{Mlp, TrainConfig};
use isaac_sparse::{kernels as sparse_kernels, Csr, SparseOp, SparseShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The input-shape component of a tune-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeKey {
    /// GEMM input parameters (everything but the dtype).
    Gemm {
        /// Rows of `op(A)`.
        m: u32,
        /// Columns of `op(B)`.
        n: u32,
        /// Reduction depth.
        k: u32,
        /// `A` transposed.
        trans_a: bool,
        /// `B` transposed.
        trans_b: bool,
    },
    /// CONV input parameters (everything but the dtype).
    Conv {
        /// Batch size.
        n: u32,
        /// Input channels.
        c: u32,
        /// Input height.
        h: u32,
        /// Input width.
        w: u32,
        /// Output channels.
        k: u32,
        /// Filter height.
        r: u32,
        /// Filter width.
        s: u32,
    },
    /// Sparse input parameters: operation plus the structural summary
    /// (everything but the dtype). Sparse decisions are keyed by
    /// *structure*, not by the concrete matrix -- two matrices with the
    /// same summary share a tuning decision by design.
    Sparse {
        /// Which sparse operation (SpMV / SpTRSV / SymGS).
        op: SparseOp,
        /// Matrix rows.
        rows: u32,
        /// Stored non-zeros.
        nnz: u32,
        /// Mean non-zeros per row, in milli-units.
        row_mean_milli: u32,
        /// Coefficient of variation of row lengths, in milli-units.
        row_cv_milli: u32,
        /// Longest row.
        row_max: u32,
        /// Maximum `|col - row|` over stored entries.
        bandwidth: u32,
        /// Occupied fraction of 32x32 tiles, in milli-units.
        block_density_milli: u32,
    },
}

/// Key of one tuning decision: device, operation, data type and input
/// shape. `Eq + Hash` over plain integers -- no strings on the hot
/// lookup path.
///
/// The device ordinal keeps decisions from different shards distinct
/// when keys flow through shared structures (the serving router's
/// single-flight table dedupes concurrent misses by `TuneKey`; two
/// devices tuning the same shape must not coalesce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Device ordinal this decision was made for (0 for standalone
    /// tuners; assigned per shard by a serving router).
    pub device: u16,
    /// Operation kind.
    pub op: OpKind,
    /// Element type.
    pub dtype: DType,
    /// Input shape.
    pub shape: ShapeKey,
}

impl TuneKey {
    /// Cache key for a GEMM input (device 0).
    pub fn gemm(shape: &GemmShape) -> Self {
        TuneKey {
            device: 0,
            op: OpKind::Gemm,
            dtype: shape.dtype,
            shape: ShapeKey::Gemm {
                m: shape.m,
                n: shape.n,
                k: shape.k,
                trans_a: shape.trans_a,
                trans_b: shape.trans_b,
            },
        }
    }

    /// Cache key for a CONV input (device 0).
    pub fn conv(shape: &ConvShape) -> Self {
        TuneKey {
            device: 0,
            op: OpKind::Conv,
            dtype: shape.dtype,
            shape: ShapeKey::Conv {
                n: shape.n,
                c: shape.c,
                h: shape.h,
                w: shape.w,
                k: shape.k,
                r: shape.r,
                s: shape.s,
            },
        }
    }

    /// Cache key for a sparse input (device 0).
    pub fn sparse(shape: &SparseShape) -> Self {
        TuneKey {
            device: 0,
            op: OpKind::Sparse,
            dtype: shape.dtype,
            shape: ShapeKey::Sparse {
                op: shape.op,
                rows: shape.rows,
                nnz: shape.nnz,
                row_mean_milli: shape.row_mean_milli,
                row_cv_milli: shape.row_cv_milli,
                row_max: shape.row_max,
                bandwidth: shape.bandwidth,
                block_density_milli: shape.block_density_milli,
            },
        }
    }

    /// The same key rebound to a device ordinal.
    pub fn on_device(mut self, device: u16) -> Self {
        self.device = device;
        self
    }

    /// The input shape this key describes, reconstructed as a concrete
    /// `GemmShape`/`ConvShape` (used by cross-device warm-start to
    /// re-benchmark a neighbour's decision on a new device).
    pub fn to_shape(&self) -> KeyShape {
        match self.shape {
            ShapeKey::Gemm {
                m,
                n,
                k,
                trans_a,
                trans_b,
            } => KeyShape::Gemm(GemmShape {
                m,
                n,
                k,
                trans_a,
                trans_b,
                dtype: self.dtype,
            }),
            ShapeKey::Conv {
                n,
                c,
                h,
                w,
                k,
                r,
                s,
            } => KeyShape::Conv(ConvShape {
                n,
                c,
                h,
                w,
                k,
                r,
                s,
                dtype: self.dtype,
            }),
            ShapeKey::Sparse {
                op,
                rows,
                nnz,
                row_mean_milli,
                row_cv_milli,
                row_max,
                bandwidth,
                block_density_milli,
            } => KeyShape::Sparse(SparseShape {
                op,
                rows,
                nnz,
                row_mean_milli,
                row_cv_milli,
                row_max,
                bandwidth,
                block_density_milli,
                dtype: self.dtype,
            }),
        }
    }

    /// Estimated cost of re-acquiring this key's tuning decision if it
    /// were evicted, in arbitrary but mutually comparable units.
    ///
    /// A cold tune's wall time is dominated by work that scales with
    /// the kernel's arithmetic volume (finalist re-benchmarking runs
    /// the candidate kernels; legality and scoring are
    /// shape-independent), so the estimate is `log2(1 + flops)`: the
    /// log compresses the ~6-decade flops range into single-digit
    /// scores that combine stably with hit frequencies in
    /// [`EvictionPolicy::CostAware`]. A deep-reduction GEMM
    /// (`32x32x60000`, ~1.2e8 flops, score ~27) is therefore much more
    /// expensive to lose than a small square (`8x8x8`, ~1e3 flops,
    /// score ~10), which is exactly the asymmetry the ROADMAP calls
    /// out.
    pub fn retune_cost(&self) -> f64 {
        let flops = match self.shape {
            ShapeKey::Gemm { m, n, k, .. } => 2.0 * f64::from(m) * f64::from(n) * f64::from(k),
            ShapeKey::Conv {
                n,
                c,
                h,
                w,
                k,
                r,
                s,
            } => {
                // Implicit-GEMM view: output pixels x filter volume.
                let p = f64::from(h.saturating_sub(r) + 1);
                let q = f64::from(w.saturating_sub(s) + 1);
                2.0 * f64::from(n)
                    * f64::from(k)
                    * f64::from(c)
                    * f64::from(r)
                    * f64::from(s)
                    * p
                    * q
            }
            // One multiply-add per stored non-zero per sweep; SymGS
            // runs a forward and a backward sweep.
            ShapeKey::Sparse { op, nnz, .. } => {
                let sweeps = if op == SparseOp::Symgs { 2.0 } else { 1.0 };
                2.0 * f64::from(nnz) * sweeps
            }
        };
        (1.0 + flops).log2()
    }

    /// The mangled shape name used by the on-disk cache format (same
    /// strings as `GemmShape::name` / `ConvShape::name`).
    pub fn name(&self) -> String {
        match self.shape {
            ShapeKey::Gemm {
                m,
                n,
                k,
                trans_a,
                trans_b,
            } => GemmShape {
                m,
                n,
                k,
                trans_a,
                trans_b,
                dtype: self.dtype,
            }
            .name(),
            ShapeKey::Conv {
                n,
                c,
                h,
                w,
                k,
                r,
                s,
            } => ConvShape {
                n,
                c,
                h,
                w,
                k,
                r,
                s,
                dtype: self.dtype,
            }
            .name(),
            ShapeKey::Sparse { .. } => match self.to_shape() {
                KeyShape::Sparse(shape) => shape.name(),
                _ => unreachable!("sparse shape key reconstructs a sparse shape"),
            },
        }
    }

    /// Parse a mangled shape name back into a key (inverse of
    /// [`TuneKey::name`], used when loading persisted caches).
    pub fn parse(name: &str) -> Option<TuneKey> {
        let dtype = DType::from_blas_prefix(name.get(..1)?)?;
        let rest = name.get(1..)?;
        if let Some(body) = rest.strip_prefix("gemm_") {
            // "<layout>_<m>x<n>x<k>"
            let (layout, dims) = body.split_once('_')?;
            let mut lc = layout.chars();
            let trans_a = lc.next()? == 't';
            let trans_b = lc.next()? == 't';
            let mut it = dims.split('x');
            let m = it.next()?.parse().ok()?;
            let n = it.next()?.parse().ok()?;
            let k = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            Some(TuneKey {
                device: 0,
                op: OpKind::Gemm,
                dtype,
                shape: ShapeKey::Gemm {
                    m,
                    n,
                    k,
                    trans_a,
                    trans_b,
                },
            })
        } else if let Some(body) = rest.strip_prefix("conv_") {
            // "n<n>_c<c>_k<k>_<p>x<q>_r<r>s<s>"
            let mut it = body.split('_');
            let n: u32 = it.next()?.strip_prefix('n')?.parse().ok()?;
            let c: u32 = it.next()?.strip_prefix('c')?.parse().ok()?;
            let k: u32 = it.next()?.strip_prefix('k')?.parse().ok()?;
            let (p, q) = it.next()?.split_once('x')?;
            let (p, q): (u32, u32) = (p.parse().ok()?, q.parse().ok()?);
            let rs = it.next()?.strip_prefix('r')?;
            let (r, s) = rs.split_once('s')?;
            let (r, s): (u32, u32) = (r.parse().ok()?, s.parse().ok()?);
            if it.next().is_some() {
                return None;
            }
            Some(TuneKey {
                device: 0,
                op: OpKind::Conv,
                dtype,
                shape: ShapeKey::Conv {
                    n,
                    c,
                    h: p + r - 1,
                    w: q + s - 1,
                    k,
                    r,
                    s,
                },
            })
        } else {
            // "<op>_r<rows>_z<nnz>_m<mean>_c<cv>_x<max>_b<bw>_d<density>"
            let shape = SparseShape::parse_body(rest, dtype)?;
            Some(TuneKey::sparse(&shape))
        }
    }
}

/// A concrete input shape reconstructed from a [`TuneKey`] -- the
/// op-agnostic shape currency the generic tuning and serving paths
/// traffic in (each op family in the crate-private `ops` module builds
/// and consumes one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyShape {
    /// A GEMM input.
    Gemm(GemmShape),
    /// A CONV input.
    Conv(ConvShape),
    /// A sparse input (structural summary; see [`SparseShape`]).
    Sparse(SparseShape),
}

impl KeyShape {
    /// The operation family this shape belongs to.
    pub fn kind(&self) -> OpKind {
        match self {
            KeyShape::Gemm(_) => OpKind::Gemm,
            KeyShape::Conv(_) => OpKind::Conv,
            KeyShape::Sparse(_) => OpKind::Sparse,
        }
    }

    /// Element type of the input.
    pub fn dtype(&self) -> DType {
        match self {
            KeyShape::Gemm(s) => s.dtype,
            KeyShape::Conv(s) => s.dtype,
            KeyShape::Sparse(s) => s.dtype,
        }
    }

    /// The device-0 cache key for this shape (rebind with
    /// [`TuneKey::on_device`]); inverse of [`TuneKey::to_shape`].
    pub fn key(&self) -> TuneKey {
        match self {
            KeyShape::Gemm(s) => TuneKey::gemm(s),
            KeyShape::Conv(s) => TuneKey::conv(s),
            KeyShape::Sparse(s) => TuneKey::sparse(s),
        }
    }

    /// The mangled shape name (same string as [`TuneKey::name`]).
    pub fn name(&self) -> String {
        self.key().name()
    }
}

/// Hit/miss/eviction counters of a [`TuneCache`], for the bench harness
/// and capacity planning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the query engine.
    pub misses: u64,
    /// Entries evicted to stay within the capacity bound.
    pub evictions: u64,
    /// Accumulated per-entry hit counts of everything evicted: the
    /// traffic the cache *lost* to eviction. A good eviction policy
    /// keeps this low relative to `evictions` (it sheds one-hit
    /// wonders, not hot entries).
    pub evicted_hits: u64,
    /// Accumulated [`TuneKey::retune_cost`] of everything evicted: the
    /// estimated re-acquisition cost the eviction policy chose to risk,
    /// rounded to whole cost units. Cost-aware eviction keeps this low
    /// relative to `evictions` by preferring cheap-to-re-tune victims.
    pub evicted_cost: u64,
}

/// How a [`TuneCache`] chooses its eviction victim once the capacity
/// bound is hit.
///
/// Both policies are exact and deterministic (the eviction tests pin
/// victim order bit-for-bit); they differ in *what* they protect:
///
/// * [`EvictionPolicy::Lru`] -- the PR 2 reference policy: evict the
///   least-recently-used entry, full stop. Simple, but a burst of
///   one-off shapes (a scan) flushes the whole working set, including
///   entries that are hit constantly and were expensive to acquire.
/// * [`EvictionPolicy::CostAware`] -- the default since PR 5: a
///   GreedyDual-style policy (cf. GDSF) that scores every entry as
///   `clock + frequency x retune_cost` and evicts the minimum. The
///   `clock` ratchets up to the evicted entry's score, which ages idle
///   entries without per-access bookkeeping; `frequency` is the entry's
///   lifetime hit count (+1 for the insert); `retune_cost` is the
///   shape-derived estimate of what re-acquiring the decision costs
///   ([`TuneKey::retune_cost`] -- a deep-reduction GEMM costs far more
///   to re-tune than a small square). Hot or expensive entries
///   therefore outlive cold, cheap ones under pressure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Exact least-recently-used (the reference policy).
    Lru,
    /// Cost- and frequency-weighted GreedyDual eviction (the default).
    #[default]
    CostAware,
}

/// One cached decision plus its recency stamp, lifetime hit count and
/// eviction score. All three are atomic so sampled hits can refresh
/// them under the *shared* read lock of their segment. The per-entry
/// hit count survives the recency-preserving rebuild, is exposed by
/// [`TuneCache::entries`], and (since PR 5) feeds the
/// [`EvictionPolicy::CostAware`] score together with the key's
/// estimated re-tune cost.
#[derive(Debug)]
struct CacheSlot {
    choice: TunedChoice,
    stamp: AtomicU64,
    hits: AtomicU64,
    /// [`TuneKey::retune_cost`] of this entry's key, computed once at
    /// insertion (the key never changes in place).
    cost: f64,
    /// GreedyDual eviction score (`f64` bits): `clock_at_last_touch +
    /// (hits + 1) x cost`. Only consulted by
    /// [`EvictionPolicy::CostAware`]; refreshed on every sampled touch.
    score: AtomicU64,
}

impl CacheSlot {
    fn score(&self) -> f64 {
        f64::from_bits(self.score.load(Ordering::Relaxed))
    }

    fn set_score(&self, score: f64) {
        self.score.store(score.to_bits(), Ordering::Relaxed);
    }
}

/// Stripes a [`Striped`] counter spreads its updates over. More than
/// the host's core count buys nothing; fewer just means two threads
/// occasionally share a stripe (still correct, just contended).
const STAT_STRIPES: usize = 16;

/// One stripe of a [`Striped`] counter, alone on its cache line so
/// threads on different stripes never dirty the same line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct StripeCell(AtomicU64);

/// A monotonic counter threads bump without sharing a cache line: each
/// thread is assigned one of [`STAT_STRIPES`] stripes (round-robin on
/// first use) and only ever fetch-adds its own padded cell. Totals stay
/// *exact* -- the hit + miss conservation invariant the contended-cache
/// stress suite pins -- without the every-core-one-line contention of a
/// single shared atomic. Reads sum the stripes; each stripe is itself
/// monotonic, so a concurrent sum can lag the true total but two
/// successive sums never go backwards.
#[derive(Debug)]
struct Striped {
    cells: [StripeCell; STAT_STRIPES],
}

thread_local! {
    /// This thread's stripe index into every [`Striped`] counter.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    /// `(cache id, lookups since the last sampled touch)` for the cache
    /// this thread hit most recently -- the 1-in-K recency sampler.
    /// Keyed by cache id so interleaved traffic to two caches cannot
    /// smear one cache's sampling phase into the other's (and a
    /// single-threaded replay against one cache is exactly periodic,
    /// which the sampled-recency property test depends on).
    static SAMPLE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Round-robin source of per-thread stripe indexes (see [`STRIPE`]).
static STRIPE_SEQ: AtomicU64 = AtomicU64::new(0);
/// Process-unique [`TuneCache`] ids (see [`SAMPLE`]; 0 means "no
/// cache", so ids start at 1).
static CACHE_SEQ: AtomicU64 = AtomicU64::new(1);

impl Striped {
    fn new() -> Self {
        Striped {
            cells: std::array::from_fn(|_| StripeCell::default()),
        }
    }

    /// This thread's stripe, assigned on first use.
    fn stripe() -> usize {
        STRIPE.with(|s| {
            let mut idx = s.get();
            if idx == usize::MAX {
                idx = STRIPE_SEQ.fetch_add(1, Ordering::Relaxed) as usize % STAT_STRIPES;
                s.set(idx);
            }
            idx
        })
    }

    fn add(&self, n: u64) {
        self.cells[Self::stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Reset to an exact total. Only used to carry counters onto a
    /// freshly rebuilt cache before it is shared with other threads.
    fn store_total(&self, total: u64) {
        for cell in &self.cells[1..] {
            cell.0.store(0, Ordering::Relaxed);
        }
        self.cells[0].0.store(total, Ordering::Relaxed);
    }
}

/// One hash-partitioned slice of a [`TuneCache`]: its own map lock,
/// recency tick and GreedyDual aging clock. Nothing in a segment is
/// shared with any other segment, so readers of different segments
/// never contend and a hit's sampled bookkeeping stays segment-local.
#[derive(Debug)]
struct Segment {
    map: RwLock<HashMap<TuneKey, CacheSlot>>,
    /// Segment-local recency tick: the low half of every stamp minted
    /// in this segment (see [`TuneCache::stamp`]).
    tick: AtomicU64,
    /// Segment-local GreedyDual aging clock (`f64` bits): ratchets up
    /// to the evicted entry's score on every cost-aware eviction *in
    /// this segment*, so long-idle entries eventually lose to fresh
    /// ones regardless of cost. Only mutated under the segment's write
    /// lock.
    clock: AtomicU64,
}

impl Segment {
    fn new() -> Self {
        Segment {
            map: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
            clock: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn clock_value(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Relaxed))
    }

    /// GreedyDual score of an entry with `hits` lifetime hits and the
    /// given retune cost, touched at this segment's current clock: the
    /// insert counts as one use, every hit adds one.
    fn greedy_dual_score(&self, hits: u64, cost: f64) -> f64 {
        self.clock_value() + (hits + 1) as f64 * cost
    }
}

/// Minimal FNV-1a over a key's `Hash` stream. Segment residency must be
/// identical across runs, platforms and processes (the seeded stress
/// replays and the scripted interleaving schedules both depend on
/// knowing which keys collide into a segment), so the per-process
/// randomized std hasher is out.
struct Fnv64(u64);

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Construction-time shape of a [`TuneCache`]: capacity, eviction
/// policy, segment count and recency-sampling period.
///
/// `Default` is the standalone-tuner shape: unbounded, cost-aware,
/// auto-segmented, exact (`sample_every = 1`) accounting. Serving
/// deployments bound the capacity and raise `sample_every` so hot hits
/// skip even the segment-local bookkeeping most of the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum decisions held (clamped to at least 1; `usize::MAX` =
    /// unbounded). The bound is enforced *per segment* at
    /// `capacity.div_ceil(segments)`, so a multi-segment cache can
    /// transiently hold up to `segments - 1` more entries than
    /// `capacity` when the key hash spreads unevenly.
    pub capacity: usize,
    /// Victim choice under capacity pressure (segment-local: each
    /// segment evicts among its own entries).
    pub policy: EvictionPolicy,
    /// Hash-partitioned segment count, rounded up to a power of two.
    /// `0` = auto: one segment for small bounded caches (capacity
    /// below 256, where the eviction tests pin exact whole-cache
    /// victim order), eight otherwise.
    pub segments: usize,
    /// Recency/hit sampling period K: a hitting thread performs the
    /// entry's recency/score/hit-count bookkeeping on every K-th hit it
    /// observes, crediting K hits per sampled touch so expected
    /// per-entry counts stay unbiased. `1` (or `0`) = exact accounting
    /// on every hit. The cache-wide hit/miss totals are always exact
    /// regardless of K (they use `Striped` counters, not sampling).
    pub sample_every: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: usize::MAX,
            policy: EvictionPolicy::default(),
            segments: 0,
            sample_every: 1,
        }
    }
}

/// A scripted observer for the deterministic interleaving harness.
/// When installed via [`TuneCache::set_race_hook`] it is invoked at the
/// declared race points of the cache's *write* paths (see
/// [`TuneCache::set_race_hook`] for the list) and may block there --
/// holding the writer mid-flight while a test drives other threads
/// through the window. The hit path ([`TuneCache::get`] /
/// [`TuneCache::peek`]) never consults it, hooked or not, so the
/// wait-free property under test is not perturbed by the harness.
#[derive(Clone)]
pub struct RaceHook(Arc<dyn Fn(&'static str) + Send + Sync>);

impl RaceHook {
    /// Wrap a closure that receives the race-point label.
    pub fn new(f: impl Fn(&'static str) + Send + Sync + 'static) -> Self {
        RaceHook(Arc::new(f))
    }
}

impl std::fmt::Debug for RaceHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RaceHook")
    }
}

/// A concurrent, size-bounded, shape-keyed cache of tuning decisions
/// with a wait-free hit path.
///
/// The cache is split into N hash-partitioned `Segment`s (power of
/// two, [`CacheConfig::segments`]). A lookup hashes its key to one
/// segment and takes only that segment's shared read lock, so readers
/// of different segments never touch the same lock or cache line and
/// cached QPS scales with reader threads. Within a segment, a hit's
/// bookkeeping is *sampled*: every K-th hit a thread observes
/// ([`CacheConfig::sample_every`]) refreshes the entry's recency stamp,
/// eviction score and hit count (crediting K so expectations stay
/// unbiased); the other K-1 hits clone the decision and leave. The
/// cache-wide hit/miss totals are exact at any K -- they live in
/// thread-striped, cache-line-padded `Striped` counters -- so
/// `hits + misses == lookups` is an invariant the concurrency stress
/// suite can (and does) assert under full contention.
///
/// Recency stamps must stay comparable *across* segments (the
/// recency-preserving rebuild replays entries oldest-first when
/// shrinking or re-keying), but hits must not share a clock. Each stamp
/// is therefore `(write_epoch << 32) | segment_tick`: the global epoch
/// is bumped only by writes (insert/apply) and merely *loaded* by hits
/// -- a wait-free read of a rarely-written line -- while the low half
/// comes from the segment-local tick. Within a segment stamps are
/// strictly increasing; across segments they order by write epoch,
/// which is exact whenever recency matters deterministically (the
/// single-threaded eviction tests) and a sound approximation under
/// concurrent traffic. The segment tick wraps at 2^32, which can
/// momentarily misorder recency *quality* within a segment after four
/// billion sampled touches, never correctness.
///
/// Writes -- insert, policy eviction, WAL [`TuneCache::apply`],
/// [`TuneCache::remove`] -- take the owning segment's write lock, and
/// everything PR 6 pinned about them is preserved: the journal sees
/// mutations in per-key mutation order (recorded under the segment
/// lock, eviction before the insert that forced it), eviction policy
/// semantics are unchanged (now per segment, with a per-segment
/// GreedyDual clock), and persistence (`entries`, hence cache files and
/// compaction) is byte-identical because entries were always emitted
/// name-sorted. [`TuneCache::peek`] remains side-effect-free per
/// segment: no recency, no score, no counters, no sampling state.
///
/// The write paths carry declared race points for the deterministic
/// interleaving harness ([`TuneCache::set_race_hook`]); the hit path
/// has none. The cache also carries a **dirty bit** (set by every
/// mutation, cleared by [`TuneCache::mark_clean`]) so the serving
/// layer's WAL compactor can skip shards whose persisted state is
/// current.
#[derive(Debug)]
pub struct TuneCache {
    /// Hash-partitioned segments; length is a power of two.
    segments: Box<[Segment]>,
    capacity: usize,
    /// Per-segment capacity bound: `capacity.div_ceil(segments.len())`.
    seg_capacity: usize,
    policy: EvictionPolicy,
    /// Recency-sampling period K (>= 1; see
    /// [`CacheConfig::sample_every`]).
    sample_every: u64,
    /// Process-unique id keying the per-thread sampling counter.
    id: u64,
    /// Global write epoch: the high half of recency stamps. Bumped by
    /// every insert/apply (write paths, which already serialize on a
    /// segment lock), only *loaded* by hits.
    epoch: AtomicU64,
    /// Set on every mutation, cleared when the cache is persisted.
    dirty: AtomicBool,
    hits: Striped,
    misses: Striped,
    evictions: AtomicU64,
    evicted_hits: AtomicU64,
    /// Accumulated retune cost of evicted entries, in millicost units
    /// (kept integral so [`CacheStats`] stays `Eq`).
    evicted_cost_milli: AtomicU64,
    /// Durability journal: when attached, every insert and policy
    /// eviction is reported in mutation order, under the owning
    /// segment's write lock (see [`crate::durability::CacheJournal`]).
    journal: RwLock<Option<Arc<dyn CacheJournal>>>,
    /// Interleaving-harness observer; consulted on write paths only.
    race: RwLock<Option<RaceHook>>,
}

/// An unbounded [`TuneCache`] (the default: a tuner's working set of
/// distinct shapes is usually small; serving deployments bound it).
impl Default for TuneCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::default())
    }
}

impl TuneCache {
    /// Empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache holding at most `capacity` decisions (clamped to at
    /// least 1), evicting by the default [`EvictionPolicy::CostAware`]
    /// beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(CacheConfig {
            capacity,
            ..CacheConfig::default()
        })
    }

    /// Empty cache with an explicit capacity and eviction policy.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> Self {
        Self::with_config(CacheConfig {
            capacity,
            policy,
            ..CacheConfig::default()
        })
    }

    /// Empty cache with a full [`CacheConfig`] (segment count and
    /// recency-sampling period included).
    pub fn with_config(config: CacheConfig) -> Self {
        let capacity = config.capacity.max(1);
        let requested = if config.segments == 0 {
            // Auto rule: small bounded caches keep one segment so
            // victim choice is the exact whole-cache policy the
            // eviction tests pin; big or unbounded caches take the
            // concurrency win (a per-segment bound of >= 32 entries
            // cannot distort eviction much).
            if capacity >= 256 {
                8
            } else {
                1
            }
        } else {
            config.segments
        };
        let nsegs = requested.next_power_of_two();
        let seg_capacity = if capacity == usize::MAX {
            usize::MAX
        } else {
            capacity.div_ceil(nsegs)
        };
        TuneCache {
            segments: (0..nsegs).map(|_| Segment::new()).collect(),
            capacity,
            seg_capacity,
            policy: config.policy,
            sample_every: config.sample_every.max(1),
            id: CACHE_SEQ.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            hits: Striped::new(),
            misses: Striped::new(),
            evictions: AtomicU64::new(0),
            evicted_hits: AtomicU64::new(0),
            evicted_cost_milli: AtomicU64::new(0),
            journal: RwLock::new(None),
            race: RwLock::new(None),
        }
    }

    /// Attach (or, with `None`, detach) a durability journal. From then
    /// on every [`TuneCache::insert`] and policy eviction is reported
    /// to it in mutation order. Mutations performed *before* attaching
    /// (a recovery replay, a snapshot load) are not journaled -- which
    /// is exactly what recovery wants: replaying a log must not
    /// re-append the log.
    pub fn set_journal(&self, journal: Option<Arc<dyn CacheJournal>>) {
        *self.journal.write().expect("tune cache poisoned") = journal;
    }

    /// The attached durability journal, if any.
    pub fn journal(&self) -> Option<Arc<dyn CacheJournal>> {
        self.journal.read().expect("tune cache poisoned").clone()
    }

    /// Install (or, with `None`, remove) the interleaving-harness
    /// observer. The hook is invoked, under whatever locks the path
    /// holds there, at these declared race points -- all on write
    /// paths; the hit path never calls it:
    ///
    /// * `insert.pre_lock` -- an insert is about to take its segment's
    ///   write lock.
    /// * `insert.pre_evict` -- under the lock, the segment is at
    ///   capacity and a victim is about to be chosen.
    /// * `evict.removed` -- under the lock, the victim has left the
    ///   map but its `Evict` record is not yet journaled.
    /// * `evict.journaled` -- under the lock, the `Evict` record is in
    ///   the journal.
    /// * `insert.published` -- under the lock, the new entry is in the
    ///   map but its `Insert` record is not yet journaled.
    /// * `insert.journaled` -- the `Insert` record is in the journal
    ///   (lock still held).
    pub fn set_race_hook(&self, hook: Option<RaceHook>) {
        *self.race.write().expect("tune cache poisoned") = hook;
    }

    /// Invoke the interleaving hook at a declared race point. Write
    /// paths only: [`TuneCache::get`] and [`TuneCache::peek`] never
    /// call this, so the hit path stays hook-free by construction (the
    /// source-scan test pins it).
    fn race(&self, point: &'static str) {
        let hook = self.race.read().expect("tune cache poisoned").clone();
        if let Some(hook) = hook {
            (hook.0)(point);
        }
    }

    /// Maximum number of decisions held (`usize::MAX` if unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy victims are chosen by.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of hash-partitioned segments (a power of two).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// The recency-sampling period K (1 = exact accounting).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// This cache's shape as a [`CacheConfig`] (with the resolved
    /// segment count, not the `0` auto marker), e.g. to rebuild a copy
    /// with one knob changed.
    pub fn config(&self) -> CacheConfig {
        CacheConfig {
            capacity: self.capacity,
            policy: self.policy,
            segments: self.segments.len(),
            sample_every: self.sample_every,
        }
    }

    /// Which segment a key lives in (deterministic across runs and
    /// platforms). Exposed for the interleaving harness, which needs
    /// same-segment and cross-segment key pairs to script lock-window
    /// schedules.
    pub fn segment_of(&self, key: &TuneKey) -> usize {
        if self.segments.len() == 1 {
            return 0;
        }
        let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
        key.hash(&mut h);
        // Fibonacci-fold the digest so the handful of bits the mask
        // keeps see the whole word.
        let mixed = (h.0 ^ (h.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 32) as usize & (self.segments.len() - 1)
    }

    fn segment(&self, key: &TuneKey) -> &Segment {
        &self.segments[self.segment_of(key)]
    }

    /// Whether the cache has been mutated since it was last persisted
    /// ([`TuneCache::mark_clean`] clears this). The WAL compactor in
    /// `isaac-serve` clears it and uses it to skip clean shards.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Mark the cache as persisted (see [`TuneCache::is_dirty`]).
    pub fn mark_clean(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    /// Mark the cache as having unpersisted mutations. Inserts and
    /// removals do this themselves; the serving layer's compactor also
    /// calls it when a persistence attempt fails after it already
    /// cleared the bit (so the shard is retried next interval).
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// Mint a recency stamp in `seg`: global write epoch (loaded, never
    /// written here) in the high half, the segment-local tick in the
    /// low half. See the type docs for why this keeps stamps
    /// cross-segment comparable without a shared hit-path clock.
    fn stamp(&self, seg: &Segment) -> u64 {
        let tick = seg.tick.fetch_add(1, Ordering::Relaxed) + 1;
        (self.epoch.load(Ordering::Relaxed) << 32) | (tick & 0xFFFF_FFFF)
    }

    /// [`TuneCache::stamp`] for write paths: advances the global epoch
    /// first, so everything written after this point outranks every
    /// earlier stamp in any segment.
    fn write_stamp(&self, seg: &Segment) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.stamp(seg)
    }

    /// Whether this thread's K-th-hit sampler elects the current hit
    /// for recency bookkeeping. Pure thread-local state -- no atomics,
    /// no locks -- and deterministic per (thread, cache) sequence: hits
    /// 1, K+1, 2K+1, ... are sampled.
    fn touch_due(&self) -> bool {
        if self.sample_every <= 1 {
            return true;
        }
        SAMPLE.with(|cell| {
            let (id, n) = cell.get();
            let n = if id == self.id { n + 1 } else { 1 };
            cell.set((self.id, n % self.sample_every));
            n % self.sample_every == 1
        })
    }

    /// The sampled hit's bookkeeping: refresh the entry's recency
    /// stamp, credit K hits (so expected counts match exact
    /// accounting), and -- under [`EvictionPolicy::CostAware`] on a
    /// bounded cache -- refresh its eviction score. Called for one hit
    /// in K; everything here is segment-local.
    fn touch(&self, seg: &Segment, slot: &CacheSlot) {
        slot.stamp.store(self.stamp(seg), Ordering::Relaxed);
        let hits = slot.hits.fetch_add(self.sample_every, Ordering::Relaxed) + self.sample_every;
        // An unbounded cache never evicts, so the score would never be
        // read: skip the refresh.
        if self.policy == EvictionPolicy::CostAware && self.capacity != usize::MAX {
            slot.set_score(seg.greedy_dual_score(hits, slot.cost));
        }
    }

    /// Look up a decision, counting the hit or miss exactly (striped
    /// counters) and, on every K-th hit this thread observes, doing the
    /// entry's sampled recency/score bookkeeping.
    ///
    /// This is the wait-free hot path: one segment read lock, zero
    /// unconditional read-modify-write on shared state (the source-scan
    /// test pins the body to contain no `write()` lock acquisition and
    /// no `fetch_add`).
    pub fn get(&self, key: &TuneKey) -> Option<TunedChoice> {
        let seg = self.segment(key);
        let hit = {
            let map = seg.map.read().expect("tune cache poisoned");
            map.get(key).map(|slot| {
                if self.touch_due() {
                    self.touch(seg, slot);
                }
                slot.choice.clone()
            })
        };
        match hit {
            Some(choice) => {
                self.hits.add(1);
                Some(choice)
            }
            None => {
                self.misses.add(1);
                None
            }
        }
    }

    /// Look up a decision without touching the hit/miss counters, the
    /// recency tick, the per-entry hit count, the eviction score or the
    /// per-thread sampling state (for tests, cache introspection and
    /// snapshot scans). Peeking is guaranteed side-effect-free per
    /// segment: it can never rescue an entry from eviction, and a peek
    /// storm cannot shift any thread's sampling phase.
    pub fn peek(&self, key: &TuneKey) -> Option<TunedChoice> {
        self.segment(key)
            .map
            .read()
            .expect("tune cache poisoned")
            .get(key)
            .map(|slot| slot.choice.clone())
    }

    /// Publish a decision, evicting one entry from the key's segment by
    /// the configured [`EvictionPolicy`] if the segment is at capacity.
    /// Re-inserting an existing key refreshes the decision and recency
    /// but keeps the entry's accumulated hit count.
    pub fn insert(&self, key: TuneKey, choice: TunedChoice) {
        self.insert_with_hits(key, choice, 0);
    }

    /// [`TuneCache::insert`] with an initial per-entry hit count, used
    /// by the rebuild path to carry counts across re-keying/shrinking.
    fn insert_with_hits(&self, key: TuneKey, choice: TunedChoice, hits: u64) {
        let journal = self.journal();
        // Clone for the journal before the choice moves into the map;
        // journal-free caches skip the clone entirely.
        let logged = journal.as_ref().map(|_| choice.clone());
        let seg = self.segment(&key);
        self.race("insert.pre_lock");
        let stamp = self.write_stamp(seg);
        let mut map = seg.map.write().expect("tune cache poisoned");
        if let Some(slot) = map.get_mut(&key) {
            slot.choice = choice;
            slot.stamp.store(stamp, Ordering::Relaxed);
            let total = slot.hits.fetch_add(hits, Ordering::Relaxed) + hits;
            slot.set_score(seg.greedy_dual_score(total, slot.cost));
        } else {
            if map.len() >= self.seg_capacity {
                self.race("insert.pre_evict");
                self.evict_one(seg, &mut map, journal.as_deref());
            }
            let cost = key.retune_cost();
            map.insert(
                key,
                CacheSlot {
                    choice,
                    stamp: AtomicU64::new(stamp),
                    hits: AtomicU64::new(hits),
                    cost,
                    score: AtomicU64::new(seg.greedy_dual_score(hits, cost).to_bits()),
                },
            );
            self.race("insert.published");
        }
        // Journal the publish while still holding the write lock: the
        // log must list mutations in the order they were applied (the
        // eviction above, if any, preceded this insert), or replay
        // would reconstruct a different cache.
        if let (Some(journal), Some(choice)) = (&journal, logged) {
            journal.record(&WalRecord::Insert { key, choice });
            self.race("insert.journaled");
        }
        // Dirty only once the entry is in the map, while still holding
        // the write lock: a concurrent compaction either reads its
        // entries after this insert (its `mark_clean` is then correct)
        // or cleared the bit before we set it here, in which case this
        // re-dirty guarantees the next compaction picks the entry up.
        // Marking *before* taking the lock would let that compaction
        // clear the bit, read the map without the entry, and leave an
        // unpersisted decision on a "clean" cache.
        self.mark_dirty();
    }

    /// Apply one replayed WAL record with exact put/delete semantics:
    /// an `Insert` publishes unconditionally **without** consulting the
    /// eviction policy, an `Evict` removes the key. Never journaled.
    ///
    /// Replay must mirror the recorded history verbatim. The historical
    /// live set never exceeded capacity (every at-capacity insert's
    /// eviction is in the log, *before* it), so replaying a log over
    /// the base it extends stays within bounds on its own -- but a
    /// crash between compaction's base rewrite and its log truncation
    /// leaves a log whose effects the base already includes, and
    /// re-replaying it can transiently exceed capacity. A policy
    /// eviction fired at that moment could victimize an entry the log
    /// never evicted; with put/delete semantics the replay is instead
    /// idempotent (each key ends at its last-record state) and the
    /// final size is the base's, within capacity.
    pub fn apply(&self, record: &WalRecord) {
        match record {
            WalRecord::Insert { key, choice } => {
                let seg = self.segment(key);
                let stamp = self.write_stamp(seg);
                let mut map = seg.map.write().expect("tune cache poisoned");
                if let Some(slot) = map.get_mut(key) {
                    slot.choice = choice.clone();
                    slot.stamp.store(stamp, Ordering::Relaxed);
                } else {
                    let cost = key.retune_cost();
                    map.insert(
                        *key,
                        CacheSlot {
                            choice: choice.clone(),
                            stamp: AtomicU64::new(stamp),
                            hits: AtomicU64::new(0),
                            cost,
                            score: AtomicU64::new(seg.greedy_dual_score(0, cost).to_bits()),
                        },
                    );
                }
                drop(map);
                self.mark_dirty();
            }
            WalRecord::Evict { key } => {
                self.remove(key);
            }
        }
    }

    /// Remove an entry directly: no policy accounting, no journaling.
    /// This is the *replay* side of a journaled eviction (recovery
    /// applies `Evict` records with it), so it must not feed back into
    /// the journal or the eviction counters. Returns whether the key
    /// was present; a removal marks the cache dirty.
    pub fn remove(&self, key: &TuneKey) -> bool {
        let removed = {
            let seg = self.segment(key);
            let mut map = seg.map.write().expect("tune cache poisoned");
            map.remove(key).is_some()
        };
        if removed {
            self.mark_dirty();
        }
        removed
    }

    /// Remove one victim from `seg` according to the policy (called at
    /// capacity, under the segment's write lock) and account for what
    /// was lost. Victim choice is exact *within the segment*; segments
    /// never evict each other's entries.
    fn evict_one(
        &self,
        seg: &Segment,
        map: &mut HashMap<TuneKey, CacheSlot>,
        journal: Option<&dyn CacheJournal>,
    ) {
        let victim = match self.policy {
            // Exact LRU: smallest recency stamp. Stamps are unique
            // within a segment, so the choice is deterministic.
            EvictionPolicy::Lru => map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| *k),
            // GreedyDual: smallest score; stamp breaks (rare, e.g.
            // equal-cost zero-hit) ties deterministically towards LRU.
            EvictionPolicy::CostAware => map
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.score().total_cmp(&b.score()).then_with(|| {
                        a.stamp
                            .load(Ordering::Relaxed)
                            .cmp(&b.stamp.load(Ordering::Relaxed))
                    })
                })
                .map(|(k, _)| *k),
        };
        if let Some(victim) = victim {
            if let Some(slot) = map.remove(&victim) {
                self.race("evict.removed");
                if let Some(journal) = journal {
                    journal.record(&WalRecord::Evict { key: victim });
                    self.race("evict.journaled");
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_hits
                    .fetch_add(slot.hits.load(Ordering::Relaxed), Ordering::Relaxed);
                self.evicted_cost_milli
                    .fetch_add((slot.cost * 1e3) as u64, Ordering::Relaxed);
                if self.policy == EvictionPolicy::CostAware {
                    // Age the segment: everything inserted or touched
                    // here from now on outranks entries idle since
                    // before this eviction, bounding how long a
                    // once-hot entry can squat.
                    let clock = seg.clock_value().max(slot.score());
                    seg.clock.store(clock.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of cached decisions (summed over segments).
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|seg| seg.map.read().expect("tune cache poisoned").len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters since construction. Hit and miss
    /// totals are exact sums over the striped cells; taken while
    /// traffic is in flight the sums can lag, but each is monotonic, so
    /// two successive snapshots never go backwards (the serving layer's
    /// consistent-read loop relies on this).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.sum(),
            misses: self.misses.sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_hits: self.evicted_hits.load(Ordering::Relaxed),
            evicted_cost: self.evicted_cost_milli.load(Ordering::Relaxed) / 1_000,
        }
    }

    /// Snapshot of all entries with their lifetime hit counts, sorted
    /// by shape name. Used for persistence, as the source side of
    /// cross-device warm-start, and as the signal for frequency-aware
    /// eviction policies (hot entries cost more to lose). The name sort
    /// makes the output independent of segmentation, so cache files and
    /// compaction rewrites are byte-identical to the pre-segmented
    /// format.
    pub fn entries(&self) -> Vec<(TuneKey, TunedChoice, u64)> {
        let mut entries: Vec<(TuneKey, TunedChoice, u64)> = Vec::with_capacity(self.len());
        for seg in self.segments.iter() {
            let map = seg.map.read().expect("tune cache poisoned");
            entries.extend(
                map.iter()
                    .map(|(k, slot)| (*k, slot.choice.clone(), slot.hits.load(Ordering::Relaxed))),
            );
        }
        entries.sort_by_cached_key(|(k, _, _)| k.name());
        entries
    }

    /// A copy of this cache with a new capacity and (optionally) every
    /// key rebound to a device ordinal; policy, segment auto-rule and
    /// sampling period are preserved. See [`TuneCache::rebuilt_config`].
    fn rebuilt(&self, capacity: usize, device: Option<u16>) -> TuneCache {
        self.rebuilt_with(capacity, self.policy, device)
    }

    /// [`TuneCache::rebuilt`] with an explicit eviction policy for the
    /// copy (how a live cache switches policies without losing its
    /// contents or counters). The segment count is re-derived by the
    /// auto rule for the new capacity.
    fn rebuilt_with(
        &self,
        capacity: usize,
        policy: EvictionPolicy,
        device: Option<u16>,
    ) -> TuneCache {
        self.rebuilt_config(
            CacheConfig {
                capacity,
                policy,
                segments: 0,
                sample_every: self.sample_every,
            },
            device,
        )
    }

    /// A copy of this cache reshaped to `config`, optionally with every
    /// key rebound to a device ordinal. Entries are replayed in global
    /// recency-stamp order (the write-epoch high half keeps stamps
    /// comparable across segments), so recency survives and shrinking
    /// evicts the overflow the policy would have chosen; per-entry hit
    /// counts and the hit/miss/eviction counters carry over (shrink
    /// evictions are added on top). This is also how the serving layer
    /// hot-swaps a cache's shape under traffic: readers keep hitting
    /// the old cache until the rebuilt copy is published.
    pub fn rebuilt_config(&self, config: CacheConfig, device: Option<u16>) -> TuneCache {
        let mut stamped: Vec<(TuneKey, TunedChoice, u64, u64)> = Vec::with_capacity(self.len());
        for seg in self.segments.iter() {
            let map = seg.map.read().expect("tune cache poisoned");
            stamped.extend(map.iter().map(|(k, slot)| {
                (
                    *k,
                    slot.choice.clone(),
                    slot.stamp.load(Ordering::Relaxed),
                    slot.hits.load(Ordering::Relaxed),
                )
            }));
        }
        // Stamps can collide across segments (same epoch, same tick);
        // the name tiebreak keeps the replay deterministic regardless
        // of HashMap iteration order.
        stamped.sort_by_cached_key(|&(k, _, stamp, _)| (stamp, k.name()));
        let rebuilt = TuneCache::with_config(config);
        for (key, choice, _, hits) in stamped {
            let key = device.map_or(key, |d| key.on_device(d));
            rebuilt.insert_with_hits(key, choice, hits);
        }
        let stats = self.stats();
        rebuilt.hits.store_total(stats.hits);
        rebuilt.misses.store_total(stats.misses);
        rebuilt
            .evictions
            .fetch_add(stats.evictions, Ordering::Relaxed);
        rebuilt
            .evicted_hits
            .fetch_add(stats.evicted_hits, Ordering::Relaxed);
        rebuilt.evicted_cost_milli.fetch_add(
            self.evicted_cost_milli.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        // The copy inherits the journal only *after* the replay above:
        // rebuild inserts re-key state the log already records, and
        // re-journaling them would duplicate every record. The next
        // compaction persists the rebuilt shape. The race hook is
        // deliberately NOT inherited -- a scripted schedule targets one
        // cache instance.
        *rebuilt.journal.write().expect("tune cache poisoned") =
            self.journal.read().expect("tune cache poisoned").clone();
        // The copy is dirty if the source had unsnapshotted decisions
        // or the rebuild itself changed content (re-keying, shrink
        // evictions); a same-shape copy of a clean cache stays clean.
        let dirty = self.is_dirty() || device.is_some() || rebuilt.len() != self.len();
        rebuilt.dirty.store(dirty, Ordering::Release);
        rebuilt
    }
}

/// The profiler a tuner trained with `seed` measures with, in training
/// and in every re-benchmark after [`IsaacTuner::train`] or
/// [`IsaacTuner::load`].
fn tuner_profiler(spec: &DeviceSpec, seed: u64) -> Profiler {
    Profiler::new(spec.clone(), seed ^ 0x15AAC)
}

/// Training options for a tuner instance.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Benchmark samples to generate.
    pub samples: usize,
    /// Hidden-layer sizes of the regression MLP. The default
    /// `[64, 128, 64]` was measured against smaller nets (`[64, 64]`,
    /// `[128, 64]`, `[96, 64]`, `[128]`, `[64]`, `[32, 32]`) on
    /// `benchmark/`'s `cold_dense` `choice_quality` over twelve seeds,
    /// and none held both its median and mean; the table is in
    /// CHANGES.md.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Data types covered by this tuner.
    pub dtypes: Vec<DType>,
    /// Log-transform features (paper Section 5.2; `false` is the Table 2
    /// ablation).
    pub log_features: bool,
    /// Candidates re-benchmarked after exhaustive model search.
    pub top_k: usize,
    /// Coarse-to-fine cold-tune cascade (see
    /// [`crate::inference::CascadeConfig`]). `Some` scores every
    /// candidate with the cheap surrogate first and runs the full model
    /// only on the safety-margined survivors; `None` is the exhaustive
    /// path. The cascade is **on by default** (`CascadeConfig::default`)
    /// since PR 4: the quality guard (`tests/cascade.rs` and CI's
    /// `cascade_choice_matches`) soaked green through PR 3, and the
    /// cascade roughly halves cold-tune latency. Set `cascade: None`
    /// explicitly to get the exhaustive, surrogate-free search back.
    pub cascade: Option<CascadeConfig>,
    /// Seed for sampling, initialization and shuffling.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            samples: 20_000,
            hidden: vec![64, 128, 64],
            epochs: 12,
            dtypes: vec![DType::F32],
            log_features: true,
            top_k: 50,
            cascade: Some(CascadeConfig::default()),
            seed: 0,
        }
    }
}

/// Outcome of [`IsaacTuner::load_cache`]: how many persisted decisions
/// were merged and how many lines were dropped as malformed, so callers
/// can log corruption instead of silently losing entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Entries merged into the in-memory cache.
    pub loaded: usize,
    /// Malformed lines skipped.
    pub skipped: usize,
}

/// Outcome of [`IsaacTuner::warm_start`]: how many neighbour decisions
/// were considered, seeded after re-benchmarking, and skipped (illegal
/// on this device, or cached locally by a concurrent tune since the
/// candidate ranking; wrong-operation and already-cached shapes are
/// filtered out before the top-k cut and never become candidates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Neighbour entries considered (after the top-k cut).
    pub candidates: usize,
    /// Entries re-benchmarked and inserted into this tuner's cache.
    pub seeded: usize,
    /// Entries skipped.
    pub skipped: usize,
}

/// A trained, input-aware auto-tuner for one device and one operation.
#[derive(Debug)]
pub struct IsaacTuner {
    spec: DeviceSpec,
    kind: OpKind,
    bundle: ModelBundle,
    profiler: Profiler,
    opts: TrainOptions,
    /// Final validation MSE of the regression model (standardized scale).
    pub validation_mse: f32,
    cache: TuneCache,
    /// Device ordinal stamped into every cache key (0 standalone;
    /// assigned per shard by a serving router).
    device_id: u16,
}

impl IsaacTuner {
    /// Run the full training pipeline on the given device.
    pub fn train(spec: DeviceSpec, kind: OpKind, opts: TrainOptions) -> Self {
        let profiler = tuner_profiler(&spec, opts.seed);
        let dopts = DatasetOptions {
            samples: opts.samples,
            dtypes: opts.dtypes.clone(),
            log_features: opts.log_features,
            calibration: (opts.samples / 2).clamp(2_000, 20_000),
            seed: opts.seed,
        };
        let raw = family(kind).generate_dataset(&profiler, &dopts);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5EED);
        let (mut train, mut val) = raw.split(0.1, &mut rng);
        let (sx, y_mean, y_std) = train.standardize();
        val.standardize_with(&sx, y_mean, y_std);
        let mut mlp = Mlp::with_hidden(train.x.cols, &opts.hidden, opts.seed ^ 0x11);
        let report = mlp.train(
            &train,
            &val,
            &TrainConfig {
                epochs: opts.epochs,
                seed: opts.seed ^ 0x22,
                ..Default::default()
            },
        );
        let validation_mse = report.val_mse.last().copied().unwrap_or(f32::INFINITY);
        IsaacTuner {
            spec,
            kind,
            bundle: ModelBundle {
                mlp,
                standardizer: sx,
                y_mean,
                y_std,
            },
            profiler,
            opts,
            validation_mse,
            cache: TuneCache::new(),
            device_id: 0,
        }
    }

    /// Device this tuner was trained for.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Device ordinal stamped into this tuner's cache keys.
    pub fn device_id(&self) -> u16 {
        self.device_id
    }

    /// Assign the device ordinal (a serving router does this when the
    /// tuner becomes a shard). Existing cache entries are re-keyed so
    /// they keep serving hits; LRU order and counters are preserved.
    pub fn set_device_id(&mut self, device_id: u16) {
        if device_id == self.device_id {
            return;
        }
        self.cache = self.cache.rebuilt(self.cache.capacity(), Some(device_id));
        self.device_id = device_id;
    }

    /// Bound the decision cache to `capacity` entries (victims chosen
    /// by the cache's [`EvictionPolicy`] beyond that). Existing
    /// entries, their recency order and the hit/miss/eviction counters
    /// are preserved; shrinking below the current size evicts the
    /// overflow the policy would have chosen (counted).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = self.cache.rebuilt(capacity, None);
    }

    /// Switch the decision cache's [`EvictionPolicy`] in place
    /// (entries, recency order, hit counts and counters are preserved).
    /// [`EvictionPolicy::CostAware`] is the default; `Lru` is the
    /// reference policy kept for comparison benchmarks.
    pub fn set_eviction_policy(&mut self, policy: EvictionPolicy) {
        self.cache = self.cache.rebuilt_with(self.cache.capacity(), policy, None);
    }

    /// Reshape the decision cache to a full [`CacheConfig`] -- segment
    /// count and recency-sampling period included (the capacity-only
    /// setters re-derive segments by the auto rule instead). Entries,
    /// recency order, per-entry hit counts and the cache counters are
    /// preserved, exactly as for [`IsaacTuner::set_cache_capacity`].
    pub fn set_cache_config(&mut self, config: CacheConfig) {
        self.cache = self.cache.rebuilt_config(config, None);
    }

    /// The decision cache (stats, entries, capacity). Mutating it
    /// directly is possible but normally left to the tuning methods.
    pub fn cache(&self) -> &TuneCache {
        &self.cache
    }

    /// The cache key a query for `shape` resolves to on this tuner.
    pub fn key_shape(&self, shape: &KeyShape) -> TuneKey {
        shape.key().on_device(self.device_id)
    }

    /// Operation kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The trained regression model.
    pub fn model(&self) -> &ModelBundle {
        &self.bundle
    }

    /// The profiler (device model + measurement noise) used for
    /// re-benchmarking.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Tune any input shape. Decisions are cached per
    /// `(op, dtype, shape)` key: repeated queries are O(1) lock-shared
    /// lookups, safe to serve from many threads at once. The per-op
    /// `tune_gemm`/`tune_conv`/`tune_sparse` wrappers are conveniences
    /// over this method; the serving layer calls it directly and never
    /// branches on the operation kind.
    pub fn tune_shape(&self, shape: &KeyShape) -> Option<TunedChoice> {
        let key = self.key_shape(shape);
        if let Some(hit) = self.cache.get(&key) {
            return Some(hit);
        }
        self.tune_shape_cold(shape)
    }

    /// Run the cold tune for `shape` and publish the decision, without
    /// consulting the cache first. For callers (the serving router) that
    /// have already taken a counted miss on [`IsaacTuner::cache`] --
    /// going through [`IsaacTuner::tune_shape`] would double-count it.
    pub fn tune_shape_cold(&self, shape: &KeyShape) -> Option<TunedChoice> {
        assert_eq!(
            self.kind,
            shape.kind(),
            "this tuner was trained for {}",
            self.kind.to_string().to_uppercase()
        );
        let choice = infer(&self.bundle, shape, &self.profiler, &self.infer_options())?;
        self.cache.insert(self.key_shape(shape), choice.clone());
        Some(choice)
    }

    /// The engine options this tuner's cold tunes run with.
    fn infer_options(&self) -> InferOptions {
        InferOptions {
            top_k: self.opts.top_k,
            log_features: self.opts.log_features,
            parallel: true,
            cascade: self.opts.cascade,
        }
    }

    /// Tune a GEMM input; see [`IsaacTuner::tune_shape`].
    pub fn tune_gemm(&self, shape: &GemmShape) -> Option<TunedChoice> {
        self.tune_shape(&KeyShape::Gemm(*shape))
    }

    /// Tune a CONV input; see [`IsaacTuner::tune_shape`].
    pub fn tune_conv(&self, shape: &ConvShape) -> Option<TunedChoice> {
        self.tune_shape(&KeyShape::Conv(*shape))
    }

    /// Tune a sparse input; see [`IsaacTuner::tune_shape`].
    pub fn tune_sparse(&self, shape: &SparseShape) -> Option<TunedChoice> {
        self.tune_shape(&KeyShape::Sparse(*shape))
    }

    /// Model-free heuristic choice for any input shape on this tuner's
    /// device (e.g. the largest-legal-tile rule for GEMM and CONV, the
    /// scalar CSR kernel for sparse inputs). Never touches the MLP,
    /// the profiler, or the cache -- the serving layer's degraded mode
    /// uses it when the tuned path is unhealthy, and must not publish
    /// the result as an authoritative decision.
    pub fn heuristic_shape(&self, shape: &KeyShape) -> Option<TunedChoice> {
        family(shape.kind()).heuristic(shape, &self.spec)
    }

    /// Tune and *execute* a single-precision (or half-precision) GEMM on
    /// the functional VM.
    pub fn gemm_f32(&self, shape: &GemmShape, a: &[f32], b: &[f32]) -> Option<Vec<f32>> {
        let choice = self.tune_gemm(shape)?;
        let (c, _) = gemm::run_f32(&choice.config, shape, a, b).ok()?;
        Some(c)
    }

    /// Tune and execute a double-precision GEMM on the VM.
    pub fn gemm_f64(&self, shape: &GemmShape, a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        let choice = self.tune_gemm(shape)?;
        let (c, _) = gemm::run_f64(&choice.config, shape, a, b).ok()?;
        Some(c)
    }

    /// Tune and execute a convolution on the VM.
    pub fn conv_f32(&self, shape: &ConvShape, input: &[f32], filters: &[f32]) -> Option<Vec<f32>> {
        let choice = self.tune_conv(shape)?;
        let (o, _) = conv::run_f32(&choice.config, shape, input, filters).ok()?;
        Some(o)
    }

    /// Tune an SpMV for `a`'s structure and execute `y = A * x` with the
    /// scalar reference kernel. The tuning decision is keyed by the
    /// matrix's structural summary, so every matrix sharing that summary
    /// reuses it.
    pub fn spmv_f32(&self, a: &Csr, x: &[f32]) -> Option<Vec<f32>> {
        let shape = SparseShape::from_csr(SparseOp::Spmv, a, DType::F32);
        let _choice = self.tune_sparse(&shape)?;
        Some(sparse_kernels::spmv(a, x))
    }

    /// Number of cached tuning decisions.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Hit/miss counters of the tune cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Persist the tuning-decision cache ("the resulting predictions may
    /// be... cached on the filesystem", paper Section 6). One line per
    /// decision: shape key, the 9 tuning parameters, prediction and
    /// measurement. The header records the device ordinal the decisions
    /// were made on (provenance for cross-device warm-start).
    ///
    /// A pure export: the dirty bit is untouched (see
    /// [`TuneCache::is_dirty`]), so saving a copy never hides unpersisted
    /// decisions from the serving layer's compactor.
    pub fn save_cache(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.cache_text())
    }

    /// The cache's persisted form as in-memory text: the v2 header plus
    /// one `format_cache_line` row per entry. A pure snapshot -- the
    /// dirty bit is untouched; [`IsaacTuner::save_cache`] and the
    /// serving layer's base-file writer (which routes the write through
    /// its injectable I/O) both build their bytes here.
    pub fn cache_text(&self) -> String {
        let mut text = format!("isaac-kernel-cache v2 device {}\n", self.device_id);
        for (key, c, _hits) in self.cache.entries() {
            text.push_str(&format_cache_line(&key, &c));
            text.push('\n');
        }
        text
    }

    /// Load a cache saved with [`IsaacTuner::save_cache`], merging it
    /// into the in-memory cache under *this* tuner's device ordinal.
    /// Malformed lines and entries for the wrong operation (a CONV
    /// decision offered to a GEMM tuner could never be served, only
    /// occupy LRU slots) are skipped and counted in the report so
    /// callers can log corruption instead of losing entries silently.
    pub fn load_cache(&self, path: &Path) -> std::io::Result<CacheLoadReport> {
        self.load_cache_text(&std::fs::read_to_string(path)?)
    }

    /// [`IsaacTuner::load_cache`] over already-read text. The serving
    /// layer's recovery path reads the file through its injectable I/O
    /// first, then merges here.
    pub fn load_cache_text(&self, text: &str) -> std::io::Result<CacheLoadReport> {
        let (entries, mut skipped) = read_cache_text(text)?;
        let mut loaded = 0usize;
        for (key, choice) in entries {
            if key.op != self.kind {
                skipped += 1;
                continue;
            }
            self.cache.insert(key.on_device(self.device_id), choice);
            loaded += 1;
        }
        Ok(CacheLoadReport { loaded, skipped })
    }

    /// Seed this tuner's cache from a neighbour device's decisions
    /// (e.g. [`TuneCache::entries`] of another shard, or
    /// [`read_cache_file`] of its persisted cache). The `top_k` best
    /// neighbour decisions (by measured TFLOPS) are *re-benchmarked* on
    /// this tuner's device -- one profile measurement per entry, the same
    /// best-of policy as the engine's finalist stage -- instead of
    /// running a full cold tune per shape. Wrong-operation entries,
    /// configurations illegal on this device, and shapes already cached
    /// locally are skipped.
    pub fn warm_start(
        &self,
        neighbour: &[(TuneKey, TunedChoice)],
        top_k: usize,
    ) -> WarmStartReport {
        // Rank by measured TFLOPS, ties broken by shape name (computed
        // once per entry, not per comparison) for determinism. Shapes
        // already cached locally are dropped *before* the top-k cut so
        // they don't consume slots that transferable candidates ranked
        // just below them would have used.
        let mut ranked: Vec<(&TuneKey, &TunedChoice, String)> = neighbour
            .iter()
            .filter(|(key, _)| {
                key.op == self.kind && self.cache.peek(&key.on_device(self.device_id)).is_none()
            })
            .map(|(key, choice)| (key, choice, key.name()))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.tflops
                .total_cmp(&a.1.tflops)
                .then_with(|| a.2.cmp(&b.2))
        });
        ranked.truncate(top_k);
        let mut report = WarmStartReport {
            candidates: ranked.len(),
            ..Default::default()
        };
        for (key, choice, _) in ranked {
            let local = key.on_device(self.device_id);
            // Re-check: another thread may have tuned or seeded this
            // shape since the ranking pass (the tuner is shared).
            if self.cache.peek(&local).is_some() {
                report.skipped += 1;
                continue;
            }
            match rebench(&choice.config, &local.to_shape(), &self.profiler) {
                Some(m) => {
                    self.cache.insert(
                        local,
                        TunedChoice {
                            config: choice.config,
                            predicted_gflops: choice.predicted_gflops,
                            tflops: m.tflops,
                            time_s: m.time_s,
                        },
                    );
                    report.seeded += 1;
                }
                None => report.skipped += 1,
            }
        }
        report
    }

    /// [`IsaacTuner::warm_start`] reading the neighbour's decisions from
    /// a cache file persisted with [`IsaacTuner::save_cache`].
    pub fn warm_start_from_file(
        &self,
        path: &Path,
        top_k: usize,
    ) -> std::io::Result<WarmStartReport> {
        let (entries, _skipped) = read_cache_file(path)?;
        Ok(self.warm_start(&entries, top_k))
    }

    /// Serialize the trained model (not the cache) to a file. The header
    /// carries every option a query reads -- `top_k`, the feature
    /// encoding, the profiler seed and the cascade -- so a loaded tuner
    /// serves the decisions the saved one would, and the validation MSE
    /// as the hex of its bits, so it loads exactly.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let cascade = match self.opts.cascade {
            Some(c) => format!("{} {}", c.keep_frac, c.min_keep),
            None => "none".to_string(),
        };
        let mut text = format!(
            "isaac-tuner {} {} topk {} log {} seed {} cascade {cascade} val {:08x}\n",
            self.kind,
            self.spec.name.replace(' ', "_"),
            self.opts.top_k,
            self.opts.log_features as u8,
            self.opts.seed,
            self.validation_mse.to_bits(),
        );
        text.push_str(&isaac_mlp::io::to_text(&self.bundle));
        std::fs::write(path, text)
    }

    /// Load a model saved with [`IsaacTuner::save`]; `spec` must be the
    /// same device it was trained on. A header without `seed` and
    /// `cascade` fields (written before they existed) loads with seed 0
    /// and the default cascade; one without `val`, with a NaN
    /// `validation_mse`.
    pub fn load(path: &Path, spec: DeviceSpec, kind: OpKind) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut lines = text.splitn(2, '\n');
        let header = lines.next().unwrap_or_default();
        let body = lines.next().unwrap_or_default();
        let mut fields = header.split_whitespace();
        if fields.next() != Some("isaac-tuner") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not an isaac-tuner file",
            ));
        }
        let file_kind = fields.next().unwrap_or_default();
        if file_kind != kind.to_string() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("model is for {file_kind}, requested {kind}"),
            ));
        }
        let _device = fields.next();
        let top_k: usize = fields.nth(1).and_then(|t| t.parse().ok()).unwrap_or(50);
        let log_features = fields.nth(1).map(|t| t == "1").unwrap_or(true);
        let seed: u64 = fields.nth(1).and_then(|t| t.parse().ok()).unwrap_or(0);
        let cascade = match fields.nth(1) {
            None => Some(CascadeConfig::default()),
            Some("none") => None,
            Some(frac) => {
                let min = fields.next().unwrap_or_default();
                let (Ok(keep_frac), Ok(min_keep)) = (frac.parse(), min.parse()) else {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad cascade field `{frac} {min}`"),
                    ));
                };
                Some(CascadeConfig {
                    keep_frac,
                    min_keep,
                })
            }
        };
        let validation_mse = fields
            .nth(1)
            .and_then(|t| u32::from_str_radix(t, 16).ok())
            .map_or(f32::NAN, f32::from_bits);
        let bundle = isaac_mlp::io::from_text(body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let opts = TrainOptions {
            top_k,
            log_features,
            cascade,
            seed,
            ..Default::default()
        };
        Ok(IsaacTuner {
            profiler: tuner_profiler(&spec, seed),
            spec,
            kind,
            bundle,
            opts,
            validation_mse,
            cache: TuneCache::new(),
            device_id: 0,
        })
    }
}

/// Parse a cache file persisted with [`IsaacTuner::save_cache`] into
/// `(entries, skipped_lines)`. Accepts the v1 header (no device
/// provenance) and v2 (`isaac-kernel-cache v2 device <id>`); entry keys
/// carry the header's device ordinal (0 for v1).
pub fn read_cache_file(path: &Path) -> std::io::Result<(Vec<(TuneKey, TunedChoice)>, usize)> {
    read_cache_text(&std::fs::read_to_string(path)?)
}

/// [`read_cache_file`] over already-read text.
pub fn read_cache_text(text: &str) -> std::io::Result<(Vec<(TuneKey, TunedChoice)>, usize)> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let device: u16 = if header == "isaac-kernel-cache v1" {
        0
    } else if let Some(rest) = header.strip_prefix("isaac-kernel-cache v2 device ") {
        rest.trim().parse().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bad device ordinal in cache header",
            )
        })?
    } else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not an isaac kernel cache",
        ));
    };
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_cache_line(line, device) {
            Some(entry) => entries.push(entry),
            None => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

/// One persisted cache line (no trailing newline): shape name, the
/// nine tuning parameters, prediction and measurements. Shared by
/// [`IsaacTuner::save_cache`] and the WAL's insert-record payload
/// (`crate::durability`), so the two on-disk formats cannot drift.
pub(crate) fn format_cache_line(key: &TuneKey, c: &TunedChoice) -> String {
    let v = c.config.as_vector();
    format!(
        "{} {} {} {} {} {} {} {} {} {} {:.6e} {:.6e} {:.6e}",
        key.name(),
        v[0],
        v[1],
        v[2],
        v[3],
        v[4],
        v[5],
        v[6],
        v[7],
        v[8],
        c.predicted_gflops,
        c.tflops,
        c.time_s
    )
}

/// One `save_cache` line -> `(key, choice)`, or `None` if malformed.
pub(crate) fn parse_cache_line(line: &str, device: u16) -> Option<(TuneKey, TunedChoice)> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 13 {
        return None;
    }
    let mut v = [0u32; 9];
    for (slot, f) in v.iter_mut().zip(&fields[1..10]) {
        *slot = f.parse().ok()?;
    }
    let predicted_gflops = fields[10].parse::<f64>().ok()?;
    let tflops = fields[11].parse::<f64>().ok()?;
    let time_s = fields[12].parse::<f64>().ok()?;
    let key = TuneKey::parse(fields[0])?.on_device(device);
    Some((
        key,
        TunedChoice {
            config: isaac_gen::GemmConfig::from_vector(v),
            predicted_gflops,
            tflops,
            time_s,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isaac_device::specs::tesla_p100;
    use isaac_gen::reference;
    use rand::Rng;

    fn quick_options() -> TrainOptions {
        TrainOptions {
            samples: 3_000,
            hidden: vec![32, 32],
            epochs: 6,
            ..Default::default()
        }
    }

    #[test]
    fn tune_key_name_roundtrips() {
        let gemm = GemmShape::new(2560, 16, 2560, "N", "T", DType::F32);
        let key = TuneKey::gemm(&gemm);
        assert_eq!(key.name(), gemm.name());
        assert_eq!(TuneKey::parse(&key.name()), Some(key));

        let conv = ConvShape::from_output(16, 14, 14, 48, 512, 5, 5, DType::F16);
        let key = TuneKey::conv(&conv);
        assert_eq!(key.name(), conv.name());
        assert_eq!(TuneKey::parse(&key.name()), Some(key));

        assert_eq!(TuneKey::parse("xgemm_nt_1x2x3"), None);
        assert_eq!(TuneKey::parse("sgemm_nt_1x2"), None);
        assert_eq!(TuneKey::parse("snonsense"), None);
    }

    #[test]
    fn sparse_key_name_roundtrips() {
        let a = isaac_sparse::csr::power_law(600, 9, 3);
        for op in SparseOp::ALL {
            let shape = SparseShape::from_csr(op, &a, DType::F32);
            let key = TuneKey::sparse(&shape);
            assert_eq!(key.op, OpKind::Sparse);
            assert_eq!(key.name(), shape.name());
            assert_eq!(TuneKey::parse(&key.name()), Some(key));
            assert_eq!(key.to_shape(), KeyShape::Sparse(shape));
            assert_eq!(KeyShape::Sparse(shape).key(), key);
            assert_eq!(KeyShape::Sparse(shape).kind(), OpKind::Sparse);
        }
        assert_eq!(TuneKey::parse("sspmv_r10_z20"), None, "truncated name");
    }

    #[test]
    fn sparse_retune_cost_scales_with_nnz_and_sweeps() {
        let a = isaac_sparse::csr::banded(4096, 6, 1);
        let spmv = TuneKey::sparse(&SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32));
        let symgs = TuneKey::sparse(&SparseShape::from_csr(SparseOp::Symgs, &a, DType::F32));
        assert!(
            symgs.retune_cost() > spmv.retune_cost(),
            "two sweeps cost more than one"
        );
        let small = TuneKey::sparse(&SparseShape::from_csr(
            SparseOp::Spmv,
            &isaac_sparse::csr::banded(64, 2, 1),
            DType::F32,
        ));
        assert!(spmv.retune_cost() > small.retune_cost());
    }

    #[test]
    fn tune_cache_counts_hits_and_misses() {
        let cache = TuneCache::new();
        let key = TuneKey::gemm(&GemmShape::new(8, 8, 8, "N", "N", DType::F32));
        assert_eq!(cache.get(&key), None);
        let choice = TunedChoice {
            config: isaac_gen::GemmConfig::default(),
            predicted_gflops: 1.0,
            tflops: 2.0,
            time_s: 3.0,
        };
        cache.insert(key, choice.clone());
        assert_eq!(cache.get(&key), Some(choice));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            },
            "one miss then one hit, nothing evicted"
        );
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    /// A distinct dummy choice per `tag`, so eviction tests can tell
    /// entries apart.
    fn dummy_choice(tag: f64) -> TunedChoice {
        TunedChoice {
            config: isaac_gen::GemmConfig::default(),
            predicted_gflops: tag,
            tflops: tag,
            time_s: tag,
        }
    }

    fn gemm_key(m: u32) -> TuneKey {
        TuneKey::gemm(&GemmShape::new(m, 8, 8, "N", "N", DType::F32))
    }

    #[test]
    fn default_cache_is_unbounded_and_empty() {
        let cache = TuneCache::default();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), usize::MAX);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let cache = TuneCache::with_policy(3, EvictionPolicy::Lru);
        assert_eq!(cache.capacity(), 3);
        assert_eq!(cache.policy(), EvictionPolicy::Lru);
        let (a, b, c, d, e) = (
            gemm_key(1),
            gemm_key(2),
            gemm_key(3),
            gemm_key(4),
            gemm_key(5),
        );
        cache.insert(a, dummy_choice(1.0));
        cache.insert(b, dummy_choice(2.0));
        cache.insert(c, dummy_choice(3.0));
        assert_eq!(cache.len(), 3);

        // Touch `a`: `b` becomes the least recently used.
        assert!(cache.get(&a).is_some());
        cache.insert(d, dummy_choice(4.0));
        assert_eq!(cache.len(), 3, "capacity bound holds");
        assert!(cache.peek(&b).is_none(), "LRU entry b evicted");
        assert!(cache.peek(&a).is_some() && cache.peek(&c).is_some() && cache.peek(&d).is_some());

        // Next victim is `c` (a and d are fresher).
        cache.insert(e, dummy_choice(5.0));
        assert!(cache.peek(&c).is_none(), "LRU entry c evicted");
        assert_eq!(cache.stats().evictions, 2);

        // Re-inserting an existing key refreshes in place, no eviction.
        cache.insert(a, dummy_choice(1.5));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.peek(&a).unwrap().tflops, 1.5);
    }

    #[test]
    fn peek_does_not_disturb_lru_order_or_stats() {
        let cache = TuneCache::with_policy(2, EvictionPolicy::Lru);
        let (a, b, c) = (gemm_key(1), gemm_key(2), gemm_key(3));
        cache.insert(a, dummy_choice(1.0));
        cache.insert(b, dummy_choice(2.0));
        // Peeking `a` must not rescue it from eviction.
        assert!(cache.peek(&a).is_some());
        cache.insert(c, dummy_choice(3.0));
        assert!(cache.peek(&a).is_none(), "peek must not refresh recency");
        assert_eq!(cache.stats().hits, 0, "peek is uncounted");
    }

    /// A cheap small-square key and an expensive deep-reduction key
    /// (the ROADMAP's canonical asymmetry).
    fn cheap_key(m: u32) -> TuneKey {
        gemm_key(m)
    }

    fn expensive_key() -> TuneKey {
        TuneKey::gemm(&GemmShape::new(32, 32, 60_000, "T", "N", DType::F32))
    }

    #[test]
    fn retune_cost_ranks_deep_reductions_above_small_squares() {
        let deep = expensive_key().retune_cost();
        let small = cheap_key(8).retune_cost();
        assert!(
            deep > 2.0 * small,
            "deep-reduction GEMM ({deep:.1}) must dwarf a small square ({small:.1})"
        );
        let conv = TuneKey::conv(&ConvShape::from_output(
            16,
            14,
            14,
            48,
            512,
            5,
            5,
            DType::F32,
        ));
        assert!(conv.retune_cost() > small, "a real conv beats a toy gemm");
        assert!(conv.retune_cost().is_finite() && deep.is_finite());
    }

    #[test]
    fn cost_aware_keeps_hot_and_expensive_entries_under_pressure() {
        // Identical trace on both policies: an expensive, frequently-hit
        // entry followed by a scan of cheap one-off keys that overflows
        // the capacity.
        let trace = |cache: &TuneCache| {
            cache.insert(expensive_key(), dummy_choice(9.0));
            for _ in 0..3 {
                assert!(cache.get(&expensive_key()).is_some());
            }
            for m in 1..=4 {
                cache.insert(cheap_key(m), dummy_choice(f64::from(m)));
            }
        };

        let cost_aware = TuneCache::with_capacity(3); // CostAware default
        assert_eq!(cost_aware.policy(), EvictionPolicy::CostAware);
        trace(&cost_aware);
        assert!(
            cost_aware.peek(&expensive_key()).is_some(),
            "hot/expensive entry outlives the scan"
        );
        let stats = cost_aware.stats();
        assert_eq!(stats.evictions, 2, "the scan overflowed by two");
        assert_eq!(
            stats.evicted_hits, 0,
            "only zero-hit scan entries were shed"
        );
        assert!(
            stats.evicted_cost < 2 * expensive_key().retune_cost() as u64,
            "the evicted re-tune cost stays cheap"
        );

        // Plain LRU on the same trace flushes the hot expensive entry:
        // the scan is younger, recency is all LRU sees.
        let lru = TuneCache::with_policy(3, EvictionPolicy::Lru);
        trace(&lru);
        assert!(
            lru.peek(&expensive_key()).is_none(),
            "LRU loses the hot/expensive entry to the scan"
        );
        assert!(lru.stats().evicted_hits >= 3, "LRU threw away hot traffic");
    }

    #[test]
    fn cost_aware_frequency_outweighs_raw_cost() {
        // A hot cheap entry must be able to beat a cold expensive one:
        // cost alone is not a squatter's permit.
        let cache = TuneCache::with_capacity(2);
        let hot_cheap = cheap_key(64);
        cache.insert(expensive_key(), dummy_choice(1.0));
        cache.insert(hot_cheap, dummy_choice(2.0));
        for _ in 0..8 {
            assert!(cache.get(&hot_cheap).is_some());
        }
        cache.insert(cheap_key(65), dummy_choice(3.0));
        assert!(
            cache.peek(&hot_cheap).is_some(),
            "the frequently-hit cheap entry survives"
        );
        assert!(
            cache.peek(&expensive_key()).is_none(),
            "the never-hit expensive entry is the victim"
        );
    }

    #[test]
    fn cost_aware_clock_ages_idle_expensive_entries() {
        // The GreedyDual clock ratchets on eviction, so an idle
        // expensive entry cannot squat forever against a stream of
        // moderately reused cheaper keys.
        let cache = TuneCache::with_capacity(2);
        cache.insert(expensive_key(), dummy_choice(1.0));
        let mut evicted_at = None;
        for round in 0..64u32 {
            let key = cheap_key(1 + round);
            cache.insert(key, dummy_choice(2.0));
            // One reuse per scan key: far too little frequency to beat
            // the expensive entry's score on its own -- only the clock
            // ratcheting up on each eviction can close the gap.
            let _ = cache.get(&key);
            if cache.peek(&expensive_key()).is_none() {
                evicted_at = Some(round);
                break;
            }
        }
        assert!(
            evicted_at.is_some(),
            "the idle expensive entry must eventually age out"
        );
        assert!(
            evicted_at.unwrap() >= 1,
            "but not before the clock has advanced at all"
        );
    }

    #[test]
    fn peek_leaves_recency_hit_counts_and_scores_unchanged() {
        // Regression for the PR 5 eviction rebuild: `peek` must touch
        // neither the shared recency clock, the per-entry hit count,
        // nor the cost-aware score -- under *either* policy, a peeked
        // entry is exactly as evictable as an untouched one.
        for policy in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
            let cache = TuneCache::with_policy(2, policy);
            let (a, b) = (cheap_key(1), cheap_key(1000));
            cache.insert(a, dummy_choice(1.0));
            cache.insert(b, dummy_choice(2.0));
            for _ in 0..16 {
                assert!(cache.peek(&a).is_some(), "peek sees the entry");
            }
            let hits_of = |key: TuneKey| {
                cache
                    .entries()
                    .iter()
                    .find(|(k, _, _)| *k == key)
                    .map(|&(_, _, h)| h)
            };
            assert_eq!(hits_of(a), Some(0), "peeks never count as hits");
            assert_eq!(cache.stats().hits, 0, "peek bypasses the counters");
            // `a` is older/cheaper than `b` under both policies; the 16
            // peeks must not have rescued it.
            cache.insert(cheap_key(2000), dummy_choice(3.0));
            assert!(
                cache.peek(&a).is_none(),
                "{policy:?}: peeked entry is still the eviction victim"
            );
            assert!(cache.peek(&b).is_some());
        }
    }

    #[test]
    fn dirty_bit_tracks_unpersisted_mutations() {
        let cache = TuneCache::new();
        assert!(!cache.is_dirty(), "a fresh cache has nothing to persist");
        cache.insert(cheap_key(1), dummy_choice(1.0));
        assert!(cache.is_dirty(), "inserts dirty the cache");
        let _ = cache.get(&cheap_key(1));
        cache.mark_clean();
        assert!(!cache.is_dirty());
        let _ = cache.get(&cheap_key(1));
        let _ = cache.peek(&cheap_key(1));
        assert!(!cache.is_dirty(), "reads never dirty the cache");
        cache.insert(cheap_key(1), dummy_choice(1.5));
        assert!(cache.is_dirty(), "refreshing a decision re-dirties");

        // Rebuilds: a clean same-shape copy stays clean; re-keying or
        // shrinking makes the copy dirty (its snapshot is stale).
        cache.mark_clean();
        assert!(!cache.rebuilt(8, None).is_dirty());
        assert!(cache.rebuilt(8, Some(3)).is_dirty(), "re-keying dirties");
    }

    #[test]
    fn rebuilding_preserves_lru_order_counters_and_rebinds_devices() {
        let cache = TuneCache::with_policy(usize::MAX, EvictionPolicy::Lru);
        // Insert in an order whose shape names sort *against* recency, so
        // a name-ordered rebuild would keep the wrong entries.
        let (a, b, c, d) = (gemm_key(9), gemm_key(5), gemm_key(7), gemm_key(1));
        for (k, tag) in [(a, 1.0), (b, 2.0), (c, 3.0), (d, 4.0)] {
            cache.insert(k, dummy_choice(tag));
        }
        // Refresh b: recency is now a (LRU), c, d, b (MRU).
        assert!(cache.get(&b).is_some());
        let stats_before = cache.stats();

        // Shrink to 2: the true MRU survivors are d and b, regardless of
        // how their names sort.
        let shrunk = cache.rebuilt(2, Some(3));
        assert_eq!(shrunk.len(), 2);
        assert!(shrunk.peek(&d.on_device(3)).is_some(), "d survives");
        assert!(shrunk.peek(&b.on_device(3)).is_some(), "b (MRU) survives");
        assert!(shrunk.peek(&a.on_device(3)).is_none(), "LRU a evicted");
        assert!(shrunk.peek(&b).is_none(), "old device keys are gone");

        // Counters carry over; the 2 shrink evictions are added on top.
        let stats = shrunk.stats();
        assert_eq!(stats.hits, stats_before.hits);
        assert_eq!(stats.misses, stats_before.misses);
        assert_eq!(stats.evictions, stats_before.evictions + 2);

        // LRU order survives the rebuild: inserting one more evicts d,
        // not the more recently used b.
        shrunk.insert(gemm_key(11).on_device(3), dummy_choice(5.0));
        assert!(shrunk.peek(&d.on_device(3)).is_none(), "d was the LRU");
        assert!(shrunk.peek(&b.on_device(3)).is_some());
    }

    #[test]
    fn per_entry_hit_counts_are_exposed_and_survive_rebuilds() {
        let cache = TuneCache::new();
        let (hot, cold) = (gemm_key(1), gemm_key(2));
        cache.insert(hot, dummy_choice(1.0));
        cache.insert(cold, dummy_choice(2.0));
        for _ in 0..3 {
            assert!(cache.get(&hot).is_some());
        }
        assert!(cache.peek(&cold).is_some(), "peek stays uncounted");

        let by_key = |entries: &[(TuneKey, TunedChoice, u64)], key: TuneKey| {
            entries
                .iter()
                .find(|(k, _, _)| *k == key)
                .map(|&(_, _, hits)| hits)
                .expect("entry present")
        };
        let entries = cache.entries();
        assert_eq!(by_key(&entries, hot), 3, "every get is counted");
        assert_eq!(by_key(&entries, cold), 0, "peeks are not hits");

        // Re-inserting (a cold re-tune publishing a fresher decision)
        // keeps the accumulated count.
        cache.insert(hot, dummy_choice(1.5));
        assert_eq!(by_key(&cache.entries(), hot), 3);

        // The recency-preserving rebuild (device re-keying and capacity
        // changes) carries the counts -- the LFU-hybrid eviction signal
        // must not reset on shard registration.
        let rebuilt = cache.rebuilt(8, Some(5));
        let entries = rebuilt.entries();
        assert_eq!(by_key(&entries, hot.on_device(5)), 3);
        assert_eq!(by_key(&entries, cold.on_device(5)), 0);
        assert!(rebuilt.get(&hot.on_device(5)).is_some());
        assert_eq!(by_key(&rebuilt.entries(), hot.on_device(5)), 4);
    }

    #[test]
    fn device_ordinal_distinguishes_keys() {
        let cache = TuneCache::new();
        let key = gemm_key(16);
        cache.insert(key, dummy_choice(1.0));
        assert!(cache.peek(&key.on_device(1)).is_none());
        cache.insert(key.on_device(1), dummy_choice(2.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(key.on_device(1).name(), key.name(), "name is device-free");
    }

    #[test]
    fn end_to_end_gemm_tuning_and_execution() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        assert!(
            tuner.validation_mse < 1.0,
            "regression should learn something: MSE {}",
            tuner.validation_mse
        );
        let shape = GemmShape::new(96, 64, 48, "N", "T", DType::F32);
        let choice = tuner.tune_gemm(&shape).expect("a kernel is selected");
        assert!(choice.tflops > 0.0);
        // Execute and verify numerically.
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<f32> = (0..shape.a_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let b: Vec<f32> = (0..shape.b_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let c = tuner.gemm_f32(&shape, &a, &b).expect("kernel runs");
        let mut want = vec![0.0f32; shape.c_len()];
        reference::gemm_f32(&shape, &a, &b, &mut want);
        for (g, w) in c.iter().zip(&want) {
            assert!((g - w).abs() < 1e-3, "got {g} want {w}");
        }
    }

    #[test]
    fn tuning_decisions_are_cached() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let shape = GemmShape::new(128, 128, 128, "N", "N", DType::F32);
        let first = tuner.tune_gemm(&shape).unwrap();
        assert_eq!(tuner.cache_len(), 1);
        let second = tuner.tune_gemm(&shape).unwrap();
        assert_eq!(first, second);
        assert_eq!(tuner.cache_len(), 1);
    }

    #[test]
    fn save_load_roundtrip() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let dir = std::env::temp_dir().join("isaac_test_model.txt");
        tuner.save(&dir).expect("save");
        let loaded = IsaacTuner::load(&dir, tesla_p100(), OpKind::Gemm).expect("load");
        let shape = GemmShape::new(256, 64, 512, "N", "T", DType::F32);
        // Same model -> same prediction-driven choice modulo identical
        // profiling noise (profiler seed is fixed in both paths).
        let orig = tuner;
        let a = orig.tune_gemm(&shape).unwrap();
        let b = loaded.tune_gemm(&shape).unwrap();
        assert_eq!(a.config, b.config);
        assert!(orig.validation_mse.is_finite());
        assert_eq!(
            loaded.validation_mse.to_bits(),
            orig.validation_mse.to_bits()
        );
        let _ = std::fs::remove_file(&dir);
    }

    /// A loaded tuner must query with the saved tuner's profiler seed and
    /// cascade, not the defaults.
    #[test]
    fn load_keeps_seed_and_cascade() {
        use crate::dataset::{random_conv_shape, random_gemm_shape};
        let opts = TrainOptions {
            seed: 7,
            cascade: None,
            ..quick_options()
        };
        let mut rng = StdRng::seed_from_u64(0x10AD);
        for kind in [OpKind::Gemm, OpKind::Conv, OpKind::Sparse] {
            let tuner = IsaacTuner::train(tesla_p100(), kind, opts.clone());
            let path = std::env::temp_dir().join(format!("isaac_test_model_opts_{kind}.txt"));
            tuner.save(&path).expect("save");
            let loaded = IsaacTuner::load(&path, tesla_p100(), kind).expect("load");
            let _ = std::fs::remove_file(&path);
            assert_eq!(loaded.opts.seed, 7);
            assert_eq!(loaded.opts.cascade, None);
            for _ in 0..2 {
                let shape = match kind {
                    OpKind::Gemm => KeyShape::Gemm(random_gemm_shape(&mut rng, &[DType::F32])),
                    OpKind::Conv => KeyShape::Conv(random_conv_shape(&mut rng, &[DType::F32])),
                    OpKind::Sparse => {
                        KeyShape::Sparse(isaac_sparse::random_sparse_shape(&mut rng, &[DType::F32]))
                    }
                };
                assert_eq!(
                    tuner.tune_shape_cold(&shape),
                    loaded.tune_shape_cold(&shape),
                    "{kind} {shape:?}"
                );
            }
        }
    }

    #[test]
    fn old_headers_load_with_seed_zero_and_the_default_cascade() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let path = std::env::temp_dir().join("isaac_test_model_old_header.txt");
        tuner.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let old = header.split(" seed ").next().unwrap();
        std::fs::write(&path, format!("{old}\n{body}")).unwrap();
        let loaded = IsaacTuner::load(&path, tesla_p100(), OpKind::Gemm).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.opts.seed, 0);
        assert_eq!(loaded.opts.cascade, Some(CascadeConfig::default()));
        assert!(loaded.validation_mse.is_nan());
        let shape = GemmShape::new(256, 64, 512, "N", "T", DType::F32);
        assert_eq!(
            tuner.tune_shape_cold(&KeyShape::Gemm(shape)),
            loaded.tune_shape_cold(&KeyShape::Gemm(shape))
        );
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("isaac_test_model2.txt");
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        tuner.save(&dir).unwrap();
        assert!(IsaacTuner::load(&dir, tesla_p100(), OpKind::Conv).is_err());
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn kernel_cache_roundtrips_through_disk() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let shapes = [
            GemmShape::new(96, 64, 48, "N", "T", DType::F32),
            GemmShape::new(2560, 16, 2560, "N", "N", DType::F32),
        ];
        for s in &shapes {
            tuner.tune_gemm(s);
        }
        let path = std::env::temp_dir().join("isaac_test_cache.txt");
        tuner.save_cache(&path).expect("save");

        let fresh = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        assert_eq!(fresh.cache_len(), 0);
        let report = fresh.load_cache(&path).expect("load");
        assert_eq!(
            report,
            CacheLoadReport {
                loaded: 2,
                skipped: 0
            }
        );
        // Cached decisions are served without re-running inference.
        for s in &shapes {
            let orig = tuner.tune_gemm(s).unwrap();
            let hit = fresh.tune_gemm(s).unwrap();
            assert_eq!(orig.config, hit.config);
            // The text format keeps 7 significant digits.
            assert!((orig.tflops - hit.tflops).abs() / orig.tflops < 1e-5);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_cache_is_rejected_and_bad_lines_are_counted() {
        let path = std::env::temp_dir().join("isaac_test_cache_bad.txt");
        std::fs::write(&path, "not a cache\n").unwrap();
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        assert!(tuner.load_cache(&path).is_err(), "bad header is an error");

        // A good header with a mix of valid and corrupt lines: the valid
        // entries load, the rest are counted as skipped.
        let good_line = {
            let shapes = [GemmShape::new(96, 64, 48, "N", "T", DType::F32)];
            tuner.tune_gemm(&shapes[0]);
            tuner.save_cache(&path).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines().nth(1).unwrap().to_string()
        };
        // A well-formed CONV line: wrong operation for a GEMM tuner, so
        // it must be skipped rather than parked unservably in the cache.
        let conv_line = format!(
            "{} 1 1 1 1 1 1 1 1 1 1.0 2.0 3.0",
            TuneKey::conv(&ConvShape::from_output(8, 7, 7, 64, 64, 3, 3, DType::F32)).name()
        );
        std::fs::write(
            &path,
            format!(
                "isaac-kernel-cache v2 device 3\n{good_line}\ntruncated line\n\
                 sgemm_nt_1x2x3 a b c d e f g h i 1.0 2.0 3.0\n{conv_line}\n"
            ),
        )
        .unwrap();
        let fresh = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let report = fresh.load_cache(&path).expect("header is valid");
        assert_eq!(
            report,
            CacheLoadReport {
                loaded: 1,
                skipped: 3
            },
            "valid entry loads; two corrupt lines and one wrong-op entry are counted"
        );
        // Loaded entries are rebound to *this* tuner's device ordinal.
        assert_eq!(fresh.cache_len(), 1);
        let (key, _, _) = fresh.cache().entries()[0];
        assert_eq!(key.device, fresh.device_id());
        let _ = std::fs::remove_file(&path);
    }

    /// Forward compatibility of the cache file: a line whose op tag
    /// belongs to a *future* op family (hand-written here in a
    /// plausible v-next layout) is skipped and counted, and the known
    /// entries around it still load -- one newer-build line must never
    /// poison an older build's recovery.
    #[test]
    fn future_op_cache_lines_are_skipped_and_counted() {
        let path = std::env::temp_dir().join("isaac_test_cache_vnext.txt");
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let good_line = {
            tuner.tune_gemm(&GemmShape::new(96, 64, 48, "N", "T", DType::F32));
            tuner.save_cache(&path).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines().nth(1).unwrap().to_string()
        };
        std::fs::write(
            &path,
            format!(
                "isaac-kernel-cache v2 device 3\n\
                 sfft_n1024_b8_w4 1 1 1 1 1 1 1 1 1 1.0e2 2.0e-1 3.0e-3\n\
                 {good_line}\n\
                 dstencil_x64_y64_z64_h2 2 1 4 1 1 1 1 1 1 5.0e1 1.0e-1 2.0e-3\n"
            ),
        )
        .unwrap();
        let fresh = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let report = fresh.load_cache(&path).expect("header is valid");
        assert_eq!(
            report,
            CacheLoadReport {
                loaded: 1,
                skipped: 2
            },
            "the good entry loads; both v-next lines are skipped and counted"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_start_seeds_from_neighbour_without_cold_tunes() {
        let neighbour = IsaacTuner::train(tesla_p100(), OpKind::Gemm, quick_options());
        let shapes = [
            GemmShape::new(96, 64, 48, "N", "T", DType::F32),
            GemmShape::new(256, 64, 512, "N", "T", DType::F32),
            GemmShape::new(128, 128, 128, "N", "N", DType::F32),
        ];
        for s in &shapes {
            neighbour.tune_gemm(s).expect("neighbour tunes");
        }

        let mut fresh = IsaacTuner::load(
            &{
                let p = std::env::temp_dir().join("isaac_warm_model.txt");
                neighbour.save(&p).unwrap();
                p
            },
            isaac_device::specs::gtx980ti(),
            OpKind::Gemm,
        )
        .expect("load model for the other device");
        fresh.set_device_id(7);

        // top_k = 2 limits warming to the 2 fastest neighbour decisions.
        let neighbour_entries: Vec<_> = neighbour
            .cache()
            .entries()
            .into_iter()
            .map(|(k, c, _hits)| (k, c))
            .collect();
        let report = fresh.warm_start(&neighbour_entries, 2);
        assert_eq!(report.candidates, 2);
        assert_eq!(report.seeded + report.skipped, 2);
        assert!(report.seeded >= 1, "at least one decision transfers");
        assert_eq!(fresh.cache_len(), report.seeded);
        // Seeded keys carry the new device's ordinal and serve hits: the
        // next query for a seeded shape must not cold-tune.
        let misses_before = fresh.cache_stats().misses;
        let mut hits = 0;
        for s in &shapes {
            let key = fresh.key_shape(&KeyShape::Gemm(*s));
            assert_eq!(key.device, 7);
            if let Some(seeded) = fresh.cache().peek(&key) {
                let served = fresh.tune_gemm(s).expect("hit");
                assert_eq!(served, seeded);
                hits += 1;
            }
        }
        assert_eq!(hits, report.seeded);
        assert_eq!(
            fresh.cache_stats().misses,
            misses_before,
            "warm-started shapes are served without cold tunes"
        );
        let _ = std::fs::remove_file(std::env::temp_dir().join("isaac_warm_model.txt"));
    }

    #[test]
    #[should_panic(expected = "trained for CONV")]
    fn wrong_operation_panics() {
        let tuner = IsaacTuner::train(
            tesla_p100(),
            OpKind::Conv,
            TrainOptions {
                samples: 1_000,
                hidden: vec![16],
                epochs: 2,
                ..Default::default()
            },
        );
        let shape = GemmShape::new(64, 64, 64, "N", "N", DType::F32);
        let _ = tuner.tune_gemm(&shape);
    }

    #[test]
    fn sparse_tuner_tunes_caches_and_executes() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Sparse, quick_options());
        let a = isaac_sparse::csr::banded(2048, 5, 7);
        let shape = SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32);
        let first = tuner.tune_sparse(&shape).expect("sparse shape tunes");
        assert!(
            isaac_sparse::space::check(&first.config, &shape).is_ok(),
            "chosen config is legal for the input"
        );
        assert!(first.time_s > 0.0);
        let again = tuner.tune_sparse(&shape).expect("cached");
        assert_eq!(first, again, "repeat queries serve the cached decision");
        assert_eq!(tuner.cache_len(), 1);
        assert_eq!(tuner.cache_stats().hits, 1);

        // End-to-end execution: the tune keys off the matrix structure,
        // the reference kernel computes the product.
        let x: Vec<f32> = (0..2048).map(|i| (i % 7) as f32 * 0.25).collect();
        let y = tuner.spmv_f32(&a, &x).expect("executes");
        assert_eq!(y, isaac_sparse::kernels::spmv(&a, &x));
        assert_eq!(tuner.cache_len(), 1, "same structure reuses the decision");

        // The model-free heuristic never touches the cache.
        let stats = tuner.cache_stats();
        assert!(tuner.heuristic_shape(&KeyShape::Sparse(shape)).is_some());
        assert_eq!(tuner.cache_stats(), stats);
    }

    #[test]
    fn sparse_cache_text_roundtrips_through_load() {
        let tuner = IsaacTuner::train(tesla_p100(), OpKind::Sparse, quick_options());
        for rows in [512, 1024, 2048] {
            let a = isaac_sparse::csr::random_uniform(rows, 6, rows as u64);
            let shape = SparseShape::from_csr(SparseOp::Spmv, &a, DType::F32);
            tuner.tune_sparse(&shape).expect("tunes");
        }
        let text = tuner.cache_text();
        let other = IsaacTuner::train(tesla_p100(), OpKind::Sparse, quick_options());
        let report = other.load_cache_text(&text).expect("parses");
        assert_eq!(
            report,
            CacheLoadReport {
                loaded: 3,
                skipped: 0
            }
        );
        // The persisted text has 6-significant-digit measurements, so
        // compare keys and configurations, not the float payloads.
        let kc = |t: &IsaacTuner| -> Vec<(TuneKey, isaac_gen::GemmConfig)> {
            t.cache()
                .entries()
                .into_iter()
                .map(|(k, c, _)| (k, c.config))
                .collect()
        };
        assert_eq!(kc(&other), kc(&tuner));
    }
}
