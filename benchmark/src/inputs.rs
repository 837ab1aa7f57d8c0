//! The four workloads and their seeded inputs.
//!
//! Inputs are a pure function of `(workload, seed, seconds)`: the parent
//! and every child regenerate them and compare hashes, and operation `i`
//! is the same input in every round (rule R4 depends on that).

use crate::rng::{exponential_schedule, SplitMix64, Zipf};
use isaac_core::{OpKind, SparseOp, SparseShape};
use isaac_device::DType;
use isaac_gen::shapes::{ConvShape, GemmShape};
use isaac_serve::Query;
use std::collections::HashSet;

/// `--seconds` the operation counts below were sized for on the
/// reference host (2 shared cores); other values scale them linearly.
pub const REFERENCE_SECONDS: u64 = 20;

/// Open-loop arrival rate of `mixed_open`, requests per second.
pub const MIXED_RATE: f64 = 100.0;
/// Shapes per `mixed_open` request (one `submit_batch`).
pub const MIXED_BATCH: usize = 8;
/// Not-yet-cached dense keys introduced per second on `mixed_open`.
const MIXED_NEW_DENSE_PER_S: f64 = 4.0;
/// Consecutive hits timed as one `hot_hits` operation.
pub const HOT_BLOCK: usize = 4096;
/// Keys sampled for `choice_quality`.
pub const QUALITY_KEYS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdDense,
    HotHits,
    ChurnDurable,
    MixedOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdDense,
        Workload::HotHits,
        Workload::ChurnDurable,
        Workload::MixedOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDense => "cold_dense",
            Workload::HotHits => "hot_hits",
            Workload::ChurnDurable => "churn_durable",
            Workload::MixedOpen => "mixed_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdDense => {
                "closed loop of never-seen GEMM/CONV shapes: every operation is a full cold tune, so gen, mlp, inference and device do all the work and the cache hit path none"
            }
            Workload::HotHits => {
                "closed loop of Zipf hits on restored keys: 100 % cache hits (ticket, shard map, TuneCache::get); inference, wal and queue do nothing, so a cold-tune change must not move it"
            }
            Workload::ChurnDurable => {
                "closed loop of sparse keys over a cache 8x too small with the WAL on: insert, evict, journal, compaction and recovery beside reads; the median operation is a miss"
            }
            Workload::MixedOpen => {
                "open loop at 100 requests/s of 8-shape batches: the only workload with a queue, where sparse misses wait behind dense tunes and repeats join flights"
            }
        }
    }

    /// Fresh child processes per run (rule R3). Never below five.
    pub fn rounds(self) -> usize {
        match self {
            Workload::ColdDense | Workload::MixedOpen => 5,
            Workload::HotHits | Workload::ChurnDurable => 7,
        }
    }

    /// Latency limit of one operation, seconds.
    pub fn slo_s(self) -> f64 {
        match self {
            Workload::ColdDense | Workload::MixedOpen => 0.250,
            Workload::HotHits => 5e-6,
            Workload::ChurnDurable => 5e-3,
        }
    }

    /// `(device ordinal, op family)` shards the workload registers, each
    /// trained from scratch in every round's set-up.
    pub fn shards(self) -> &'static [(u16, OpKind)] {
        match self {
            Workload::ColdDense => &[(0, OpKind::Gemm), (0, OpKind::Conv)],
            Workload::HotHits => &[
                (0, OpKind::Gemm),
                (0, OpKind::Conv),
                (0, OpKind::Sparse),
                (1, OpKind::Sparse),
            ],
            Workload::ChurnDurable => &[(0, OpKind::Sparse)],
            Workload::MixedOpen => &[(0, OpKind::Gemm), (0, OpKind::Conv), (0, OpKind::Sparse)],
        }
    }

    /// Decision-cache bound per shard (`None` = unbounded).
    pub fn cache_capacity(self) -> Option<usize> {
        match self {
            Workload::ChurnDurable => Some(CHURN_CAPACITY),
            _ => None,
        }
    }

    /// Does operation `i` of `ops` end with a `compact_now()`? Four times
    /// a round on `churn_durable`, at 1/8, 3/8, 5/8 and 7/8 of it, so the
    /// round ends -- and the fixture pass leaves -- a base file *and* a
    /// log tail for the next recovery to replay.
    pub fn compacts_after(self, i: usize, ops: usize) -> bool {
        let every = (ops / 4).max(2);
        self == Workload::ChurnDurable && i % every == every / 2
    }

    /// Is the load generator open-loop (scheduled sends)?
    pub fn open_loop(self) -> bool {
        self == Workload::MixedOpen
    }
}

const CHURN_KEYS: usize = 2048;
const CHURN_CAPACITY: usize = 256;
/// Zipf exponent that lands the 256-of-2048 cache at a 0.30-0.45 hit rate.
const CHURN_ZIPF: f64 = 0.7;
const HOT_KEYS: usize = 512;
const HOT_DENSE_KEYS: usize = 32;
const HOT_ZIPF: f64 = 1.1;
const HOT_SEQ_LEN: usize = 1 << 20;
const MIXED_CACHED_DENSE: usize = 16;
const MIXED_CACHED_SPARSE: usize = 112;

/// Everything a round runs on.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// Unique key table; operations refer to it by index.
    pub keys: Vec<Query>,
    /// Flat key-index sequence the operations slice into.
    pub seq: Vec<u32>,
    /// Operation `i` covers `seq[op_start[i]..op_start[i] + op_len]`.
    pub op_start: Vec<u32>,
    pub op_len: usize,
    /// Scheduled send offsets in seconds (open loop only, else empty).
    pub schedule: Vec<f64>,
    /// Keys the untimed fixture must have cached before a round starts.
    pub precached: Vec<u32>,
    /// Keys `choice_quality` is scored on (all appear in `seq`).
    pub quality: Vec<u32>,
    /// FNV-1a of everything above.
    pub hash: u64,
}

impl Inputs {
    pub fn ops(&self) -> usize {
        self.op_start.len()
    }

    /// Calls one operation sample stands for: a `hot_hits` sample is a
    /// block of calls, everywhere else one request.
    pub fn calls_per_op(&self) -> u64 {
        if self.workload == Workload::HotHits {
            self.op_len as u64
        } else {
            1
        }
    }

    pub fn op_keys(&self, i: usize) -> &[u32] {
        let lo = self.op_start[i] as usize;
        &self.seq[lo..lo + self.op_len]
    }
}

/// Paper Table 4 (GEMM), f32.
pub fn gemm_bases() -> Vec<GemmShape> {
    let f = DType::F32;
    let mut v = Vec::new();
    for s in [512, 1024, 2048] {
        v.push(GemmShape::new(s, s, s, "N", "T", f));
    }
    for n in [16, 32, 64, 128] {
        v.push(GemmShape::new(2560, n, 2560, "N", "N", f));
    }
    for n in [16, 32, 64, 128] {
        v.push(GemmShape::new(2560, n, 2560, "T", "N", f));
    }
    for mn in [32, 64, 256] {
        v.push(GemmShape::new(mn, mn, 60000, "N", "T", f));
    }
    for mn in [896, 2048, 4096] {
        v.push(GemmShape::new(mn, mn, 32, "N", "T", f));
    }
    v
}

/// Paper Table 5 (CONV), f32, as `(N, P, Q, K, C, R, S)`.
const CONV_BASES: [[u32; 7]; 14] = [
    [16, 79, 341, 32, 1, 5, 20],
    [16, 38, 166, 32, 32, 5, 10],
    [16, 24, 240, 32, 16, 3, 3],
    [16, 12, 120, 64, 32, 3, 3],
    [8, 54, 54, 64, 64, 3, 3],
    [8, 27, 27, 128, 128, 3, 3],
    [16, 14, 14, 48, 512, 5, 5],
    [16, 7, 7, 128, 832, 5, 5],
    [8, 112, 112, 128, 64, 3, 3],
    [8, 56, 56, 256, 128, 3, 3],
    [16, 128, 39, 174, 64, 5, 5],
    [16, 256, 19, 87, 128, 5, 5],
    [16, 7, 7, 512, 512, 3, 3],
    [16, 7, 7, 2048, 1024, 1, 1],
];

pub fn conv_bases() -> Vec<ConvShape> {
    CONV_BASES
        .iter()
        .map(|&[n, p, q, k, c, r, s]| ConvShape::from_output(n, p, q, k, c, r, s, DType::F32))
        .collect()
}

/// Scale a dimension by a seeded factor in [3/4, 4/3], snapped the way
/// the training distribution snaps (multiples of 16 above 64).
fn perturb(rng: &mut SplitMix64, v: u32, lo: u32) -> u32 {
    let scaled = (v as f64 * rng.log_uniform(0.75, 4.0 / 3.0)).round() as u32;
    if scaled > 64 {
        (scaled / 16).max(1) * 16
    } else {
        scaled.max(lo)
    }
}

/// Key `j` of a dense family: the table shape itself for the first pass
/// over the table, a seeded perturbation of table row `j % len` after.
fn gemm_key(rng: &mut SplitMix64, j: usize) -> GemmShape {
    let bases = gemm_bases();
    let b = bases[j % bases.len()];
    if j < bases.len() {
        return b;
    }
    GemmShape {
        m: perturb(rng, b.m, 16),
        n: perturb(rng, b.n, 16),
        k: perturb(rng, b.k, 16),
        ..b
    }
}

fn conv_key(rng: &mut SplitMix64, j: usize) -> ConvShape {
    let [n, p, q, k, c, r, s] = CONV_BASES[j % CONV_BASES.len()];
    if j < CONV_BASES.len() {
        return ConvShape::from_output(n, p, q, k, c, r, s, DType::F32);
    }
    ConvShape::from_output(
        n,
        perturb(rng, p, 4),
        perturb(rng, q, 4),
        perturb(rng, k, 16),
        perturb(rng, c, 1),
        r,
        s,
        DType::F32,
    )
}

/// A seeded structural summary inside the sparse training distribution
/// (same regimes and consistency constraints as the repository's own
/// `random_sparse_shape`, drawn from the benchmark's RNG).
fn sparse_key(rng: &mut SplitMix64) -> SparseShape {
    let milli = |v: f64| (v * 1000.0).round().max(0.0) as u32;
    let op = SparseOp::ALL[rng.below(3) as usize];
    let rows = rng.log_uniform(256.0, 262_144.0) as u32;
    let mean = rng.log_uniform(2.0, 256.0f64.min(rows as f64 / 2.0));
    let nnz = (rows as f64 * mean) as u32;
    let cv = if rng.next_f64() < 0.4 {
        rng.next_f64() * 0.3
    } else {
        0.3 + rng.next_f64() * 2.7
    };
    let row_max = ((mean * (1.0 + 4.0 * cv)).ceil() as u32).clamp(mean.ceil() as u32, rows);
    let bandwidth = if rng.next_f64() < 0.35 {
        ((mean * (1.0 + 3.0 * rng.next_f64())) as u32).clamp(1, rows - 1)
    } else {
        (rows / 4 + rng.below((rows - rows / 4) as u64) as u32).max(1)
    };
    SparseShape {
        op,
        rows,
        nnz,
        row_mean_milli: milli(mean),
        row_cv_milli: milli(cv),
        row_max,
        bandwidth,
        block_density_milli: milli(0.0625 + rng.next_f64() * 0.9375),
        dtype: DType::F32,
    }
}

/// Grows the key table, refusing duplicates so "never seen" holds.
struct KeyTable {
    keys: Vec<Query>,
    seen: HashSet<isaac_core::TuneKey>,
    rng: SplitMix64,
    gemm_j: usize,
    conv_j: usize,
}

impl KeyTable {
    fn new(rng: SplitMix64) -> Self {
        KeyTable {
            keys: Vec::new(),
            seen: HashSet::new(),
            rng,
            gemm_j: 0,
            conv_j: 0,
        }
    }

    fn push_unique(&mut self, mut make: impl FnMut(&mut Self) -> Query) -> u32 {
        loop {
            let q = make(self);
            if self.seen.insert(q.key()) {
                self.keys.push(q);
                return (self.keys.len() - 1) as u32;
            }
        }
    }

    fn gemm(&mut self, device: u16) -> u32 {
        self.push_unique(|t| {
            let j = t.gemm_j;
            t.gemm_j += 1;
            Query::gemm(device, gemm_key(&mut t.rng, j))
        })
    }

    fn conv(&mut self, device: u16) -> u32 {
        self.push_unique(|t| {
            let j = t.conv_j;
            t.conv_j += 1;
            Query::conv(device, conv_key(&mut t.rng, j))
        })
    }

    /// Alternate GEMM and CONV.
    fn dense(&mut self, device: u16, i: usize) -> u32 {
        if i.is_multiple_of(2) {
            self.gemm(device)
        } else {
            self.conv(device)
        }
    }

    fn sparse(&mut self, device: u16) -> u32 {
        self.push_unique(|t| Query::sparse(device, sparse_key(&mut t.rng)))
    }
}

fn scaled(per_reference: usize, seconds: u64, floor: usize) -> usize {
    ((per_reference as u64 * seconds).div_ceil(REFERENCE_SECONDS) as usize).max(floor)
}

fn shuffle(rng: &mut SplitMix64, v: &mut [u32]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Generate a workload's inputs from the seed.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let root = SplitMix64::new(seed ^ 0x0001_5AAC_BE7C);
    let mut table = KeyTable::new(root.fork(1));
    let mut draw = root.fork(2);
    let mut seq = Vec::new();
    let mut op_start = Vec::new();
    let mut schedule = Vec::new();
    let mut precached = Vec::new();
    let op_len;

    match workload {
        Workload::ColdDense => {
            // 5 rounds x 56 cold tunes of ~71 ms fill the reference 20 s.
            let ops = scaled(56, seconds, 20);
            op_len = 1;
            for i in 0..ops {
                seq.push(table.dense(0, i));
                op_start.push(i as u32);
            }
            // The paper's own shapes are in every seed's key set; the
            // perturbed ones and the order of all of them are the seed's.
            shuffle(&mut draw, &mut seq);
        }
        Workload::HotHits => {
            let blocks = scaled(4096, seconds, 64);
            op_len = HOT_BLOCK;
            for i in 0..HOT_KEYS {
                if i < HOT_DENSE_KEYS {
                    table.dense(0, i);
                } else {
                    table.sparse((i % 2) as u16);
                }
            }
            precached = (0..HOT_KEYS as u32).collect();
            // Popularity rank -> key through a seeded shuffle, so the hot
            // head mixes dense and sparse keys and both devices.
            let mut by_rank = precached.clone();
            shuffle(&mut draw, &mut by_rank);
            let zipf = Zipf::new(HOT_KEYS, HOT_ZIPF);
            seq = (0..HOT_SEQ_LEN)
                .map(|_| by_rank[zipf.sample(&mut draw)])
                .collect();
            // A block is a seeded window into one long Zipf sequence: the
            // same window in every round, without 16 M stored draws.
            let span = (HOT_SEQ_LEN - HOT_BLOCK) as u64;
            op_start = (0..blocks).map(|_| draw.below(span) as u32).collect();
        }
        Workload::ChurnDurable => {
            let ops = scaled(11_000, seconds, 1000);
            op_len = 1;
            for _ in 0..CHURN_KEYS {
                table.sparse(0);
            }
            let zipf = Zipf::new(CHURN_KEYS, CHURN_ZIPF);
            seq = (0..ops).map(|_| zipf.sample(&mut draw) as u32).collect();
            op_start = (0..ops as u32).collect();
        }
        Workload::MixedOpen => {
            let requests = scaled(400, seconds, 100);
            op_len = MIXED_BATCH;
            let duration_s = requests as f64 / MIXED_RATE;
            for i in 0..MIXED_CACHED_DENSE {
                table.dense(0, i);
            }
            for _ in 0..MIXED_CACHED_SPARSE {
                table.sparse(0);
            }
            let cached = table.keys.len();
            precached = (0..cached as u32).collect();
            let new_dense = (duration_s * MIXED_NEW_DENSE_PER_S).ceil() as usize;
            let first_new = cached as u32;
            for i in 0..new_dense {
                table.dense(0, i);
            }
            // Exponential gaps from the seed, stretched so that every
            // seed's last request is due at exactly `duration_s`: the
            // offered rate is the workload's, not the seed's luck.
            schedule = exponential_schedule(&mut root.fork(3), MIXED_RATE, requests);
            let stretch = duration_s / schedule[requests - 1];
            for t in &mut schedule {
                *t *= stretch;
            }
            let zipf = Zipf::new(cached, HOT_ZIPF);
            // Slot classes follow a golden-ratio sequence from a seeded
            // offset, so every seed offers the same 70 / 25 / 5 mix
            // (cached / first-touch sparse / new dense), evenly spread:
            // every batch carries two sparse misses, which keeps the
            // median request inside one mode of the latency distribution
            // instead of on the step between two. The seed picks the keys.
            let mut class = draw.next_f64();
            let mut touched_dense = 0;
            for (i, &at) in schedule.iter().enumerate() {
                op_start.push((i * MIXED_BATCH) as u32);
                for _ in 0..MIXED_BATCH {
                    class = (class + 0.618_033_988_749_894_9) % 1.0;
                    seq.push(if class < 0.70 {
                        zipf.sample(&mut draw) as u32
                    } else if class < 0.95 {
                        table.sparse(0)
                    } else {
                        // Dense keys appear one every 250 ms. A draw
                        // first-touches the newest one that is due, else
                        // repeats one of those already touched.
                        let live = ((at * MIXED_NEW_DENSE_PER_S) as usize + 1).min(new_dense);
                        if touched_dense < live {
                            touched_dense += 1;
                            first_new + touched_dense as u32 - 1
                        } else {
                            first_new + draw.below(live as u64) as u32
                        }
                    });
                }
            }
        }
    }

    // choice_quality keys: a seeded sample of the keys operations touch.
    let mut touched: Vec<u32> = seq.clone();
    touched.sort_unstable();
    touched.dedup();
    shuffle(&mut root.fork(4), &mut touched);
    touched.truncate(QUALITY_KEYS);
    touched.sort_unstable();

    let mut inputs = Inputs {
        workload,
        keys: table.keys,
        seq,
        op_start,
        op_len,
        schedule,
        precached,
        quality: touched,
        hash: 0,
    };
    inputs.hash = hash_inputs(&inputs);
    inputs
}

fn hash_inputs(inputs: &Inputs) -> u64 {
    let mut h = Fnv64::default();
    for q in &inputs.keys {
        h.write(&q.device.to_le_bytes());
        h.write(q.shape.name().as_bytes());
    }
    for v in inputs.seq.iter().chain(&inputs.op_start) {
        h.write(&v.to_le_bytes());
    }
    for t in &inputs.schedule {
        h.write(&t.to_bits().to_le_bytes());
    }
    for v in inputs.precached.iter().chain(&inputs.quality) {
        h.write(&v.to_le_bytes());
    }
    h.write(&(inputs.op_len as u64).to_le_bytes());
    h.0
}

/// FNV-1a, 64 bit.
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv64 {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate(w, 1802, 4);
            let b = generate(w, 1802, 4);
            let c = generate(w, 1803, 4);
            assert_eq!(a.hash, b.hash, "{}", w.name());
            assert_ne!(a.hash, c.hash, "{}", w.name());
            assert_eq!(a.seq, b.seq);
        }
    }

    #[test]
    fn operations_stay_inside_the_key_table_and_keys_are_unique() {
        for w in Workload::ALL {
            let inp = generate(w, 7, 2);
            assert!(inp.ops() > 0);
            for i in 0..inp.ops() {
                assert_eq!(inp.op_keys(i).len(), inp.op_len);
                assert!(inp
                    .op_keys(i)
                    .iter()
                    .all(|&k| (k as usize) < inp.keys.len()));
            }
            let unique: HashSet<_> = inp.keys.iter().map(Query::key).collect();
            assert_eq!(unique.len(), inp.keys.len(), "{}", w.name());
            assert!(!inp.quality.is_empty() && inp.quality.len() <= QUALITY_KEYS);
            assert!(inp.quality.iter().all(|k| inp.seq.contains(k)));
            assert_eq!(
                inp.schedule.len(),
                if w.open_loop() { inp.ops() } else { 0 }
            );
            for q in &inp.keys {
                assert!(
                    w.shards().contains(&(q.device, q.op())),
                    "{}: key without a shard",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn cold_dense_never_repeats_a_key_and_hot_hits_only_touches_precached() {
        let cold = generate(Workload::ColdDense, 3, REFERENCE_SECONDS);
        let mut seen = HashSet::new();
        assert!(cold.seq.iter().all(|k| seen.insert(*k)));
        assert_eq!(cold.ops(), 56);
        assert!(cold.precached.is_empty());

        let hot = generate(Workload::HotHits, 3, 1);
        assert_eq!(hot.precached.len(), hot.keys.len());
        assert_eq!(hot.op_len, HOT_BLOCK);
    }

    #[test]
    fn mixed_open_keeps_the_promised_mix() {
        let inp = generate(Workload::MixedOpen, 1802, REFERENCE_SECONDS);
        assert_eq!(inp.ops(), 400);
        let cached = inp.precached.len() as u32;
        let n = inp.seq.len() as f64;
        let hits = inp.seq.iter().filter(|&&k| k < cached).count() as f64 / n;
        assert!((hits - 0.70).abs() < 0.02, "cached share {hits}");
        // New dense keys are never drawn before they are introduced.
        for (i, at) in inp.schedule.iter().enumerate() {
            for &k in inp.op_keys(i) {
                let dense_new = k >= cached && !matches!(inp.keys[k as usize].op(), OpKind::Sparse);
                if dense_new {
                    let j = (k - cached) as f64;
                    assert!(j <= at * MIXED_NEW_DENSE_PER_S, "key {j} drawn at {at}");
                }
            }
        }
    }
}
