//! The query path's scoring kernel: candidates in SIMD lanes.
//!
//! A tuning query runs one small network over tens of thousands of
//! candidate rows. [`ModelBundle::score_lanes`] runs it on a block of `R`
//! candidates at a time, one candidate per SIMD lane. The block's suffix
//! rows are gathered by list position and standardized into an
//! `[input column][R]` tile; each layer reads one `[unit][R]` activation
//! tile and writes the next (at the default net's widest layer and
//! `R = 32` a tile is 16 KiB, so the forward pass stays in L1); only the
//! final, denormalized score leaves the kernel.
//!
//! Lanes hold candidates, never terms of one candidate's sum, so every
//! candidate goes through the operations of the `Mat` path in the same
//! order, with separate multiplies and adds:
//!
//! * standardize each suffix column as `(v - mean) / std`
//!   ([`crate::data::Standardizer::apply_row_from`]);
//! * first layer: unit `h` starts from the query prefix's partial sum
//!   `acc[h]`, adds `wt[j][h] * x[j]` for `j` ascending, then the bias,
//!   then ReLU unless it is also the output layer (`first_layer` in
//!   `mlp.rs`);
//! * cheap pass: `s = tail.b`, then `s += tail.v[h] * a[h]` for `h`
//!   ascending (the collapsed tail, [`crate::mlp::Mlp::collapse_tail`]);
//! * full pass, every later layer and output `o`: eight partials, partial
//!   `l` summing `a[8c + l] * w[o][8c + l]` over chunks `c` in order,
//!   combined `((p0 + p4) + (p2 + p6)) + ((p1 + p5) + (p3 + p7))`, then
//!   plus the sequential sum of the `k % 8` leftover terms (`+ 0.0` when
//!   there are none, which turns `-0` into `+0`), plus the bias, then ReLU
//!   except on the output layer ([`crate::matrix::Mat::mul_bt`] followed
//!   by `bias_relu`);
//! * denormalize: `s * y_std + y_mean`.
//!
//! So a full-pass score equals [`ModelBundle::predict_rows`] on the whole
//! feature row bit for bit, whatever `R` is. The kernel is written once
//! over a register type and instantiated three times: portable arrays,
//! AVX2 and AVX-512F registers (the `simd` module). The widest variant the
//! CPU supports runs, and `R` is a constant per instruction set and pass.

use crate::io::{ModelBundle, QueryPrefix};
use crate::matrix::LANES;
use crate::mlp::{CheapTail, Dense, FirstLayerPrefix};
use crate::simd::{Isa, Kernel, Simd};

/// Which network [`ModelBundle::score_lanes`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The cascade's cheap surrogate: the first layer, then the collapsed
    /// tail's dot product. Needs a prefix built with
    /// [`ModelBundle::query_prefix_cascade`].
    Cheap,
    /// The whole network.
    Full,
}

/// One scoring call's view of the model: the suffix columns'
/// standardizer, the query's factored first layer, then either the
/// layers after it (full pass) or the collapsed tail (cheap pass), and
/// the target scale.
struct Net<'a> {
    mean: &'a [f32],
    std: &'a [f32],
    first: &'a FirstLayerPrefix,
    bias: &'a [f32],
    relu: bool,
    layers: &'a [Dense],
    tail: Option<&'a CheapTail>,
    widest: usize,
    y_std: f32,
    y_mean: f32,
}

/// [`ModelBundle::score_lanes`]: check the arguments, then run the widest
/// kernel variant this CPU supports.
pub(crate) fn score(
    bundle: &ModelBundle,
    prefix: &QueryPrefix,
    pass: Pass,
    rows: &[f32],
    cands: &mut [(u32, f32)],
    tile: &mut Vec<f32>,
) {
    let net = Net::new(bundle, prefix, pass);
    assert_eq!(
        rows.len() % net.mean.len().max(1),
        0,
        "rows must hold whole suffix rows"
    );
    Isa::detect().run(Score {
        net: &net,
        rows,
        cands,
        tile,
    });
}

impl<'a> Net<'a> {
    fn new(bundle: &'a ModelBundle, prefix: &'a QueryPrefix, pass: Pass) -> Self {
        let mlp = &bundle.mlp;
        let first = &prefix.first;
        let split = first.split();
        let (mean, std) = (&bundle.standardizer.mean, &bundle.standardizer.std);
        assert!(
            split <= mlp.sizes[0] && mean.len() == mlp.sizes[0] && std.len() == mlp.sizes[0],
            "prefix / standardizer / model mismatch"
        );
        let layer0 = &mlp.layers[0];
        assert_eq!(first.acc.len(), layer0.w.rows, "prefix/model mismatch");
        let tail = match pass {
            Pass::Cheap => {
                let tail = prefix
                    .tail
                    .as_ref()
                    .expect("prefix built without query_prefix_cascade");
                assert_eq!(tail.v.len(), layer0.w.rows, "tail/model mismatch");
                Some(tail)
            }
            Pass::Full => None,
        };
        Net {
            mean: &mean[split..],
            std: &std[split..],
            first,
            bias: &layer0.b,
            relu: mlp.layers.len() > 1,
            layers: &mlp.layers[1..],
            tail,
            widest: mlp.layers.iter().map(|l| l.w.rows).max().unwrap_or(0),
            y_std: bundle.y_std,
            y_mean: bundle.y_mean,
        }
    }
}

/// One [`score`] call as a [`Kernel`].
struct Score<'n, 'a> {
    net: &'n Net<'a>,
    rows: &'n [f32],
    cands: &'n mut [(u32, f32)],
    tile: &'n mut Vec<f32>,
}

impl Kernel for Score<'_, '_> {
    /// Run [`blocks`] with four registers per block in the cheap pass;
    /// in the full pass two 16-lane (AVX-512F) registers, or one 8-lane
    /// one, where eight partials of two registers each would not fit the
    /// sixteen AVX2 registers. Several registers per block keep
    /// independent add chains in flight; the counts are the fastest
    /// measured per instruction set.
    #[inline(always)]
    fn run<S: Simd<W>, const W: usize>(self, s: S) {
        let Score {
            net,
            rows,
            cands,
            tile,
        } = self;
        match (net.tail.is_some(), W) {
            (true, _) => blocks::<S, W, 4>(s, net, rows, cands, tile),
            (false, 16) => blocks::<S, W, 2>(s, net, rows, cands, tile),
            (false, _) => blocks::<S, W, 1>(s, net, rows, cands, tile),
        }
    }
}

/// One unit of a tile: its value for each of a block's `N * W` lanes.
type Unit<const W: usize, const N: usize> = [[f32; W]; N];

/// Score `cands` in blocks of `R = N * W`, writing each candidate's score
/// beside its position. `tile` grows to `(columns + 2 * widest layer) *
/// R` floats on first use and is reused after.
#[inline(always)]
fn blocks<S: Simd<W>, const W: usize, const N: usize>(
    s: S,
    net: &Net<'_>,
    rows: &[f32],
    cands: &mut [(u32, f32)],
    tile: &mut Vec<f32>,
) {
    let cols = net.mean.len();
    let units = if net.tail.is_some() { 0 } else { net.widest };
    let need = (cols + 2 * units) * N * W;
    if tile.len() < need {
        tile.resize(need, 0.0);
    }
    let (regs, _) = tile[..need].as_chunks_mut::<W>();
    let (tiles, _) = regs.as_chunks_mut::<N>();
    let (x, act) = tiles.split_at_mut(cols);
    let (a, b) = act.split_at_mut(units);
    let (y_std, y_mean) = (s.splat(net.y_std), s.splat(net.y_mean));
    for block in cands.chunks_mut(N * W) {
        gather(s, net, rows, block, x);
        let scores = match net.tail {
            Some(tail) => cheap(s, net, tail, x),
            None => full(s, net, x, a, b),
        };
        let mut out: Unit<W, N> = [[0.0; W]; N];
        for (o, v) in out.iter_mut().zip(scores) {
            s.store(s.add(s.mul(v, y_std), y_mean), o);
        }
        for (cand, &y) in block.iter_mut().zip(out.as_flattened()) {
            cand.1 = y;
        }
    }
}

/// Gather the block's suffix rows by position into `x` (one unit per
/// column) and standardize them. Lanes past a ragged block's end compute
/// on zeros; their scores are never written back.
#[inline(always)]
fn gather<S: Simd<W>, const W: usize, const N: usize>(
    s: S,
    net: &Net<'_>,
    rows: &[f32],
    block: &[(u32, f32)],
    x: &mut [Unit<W, N>],
) {
    let cols = x.len();
    for r in 0..N * W {
        let (n, l) = (r / W, r % W);
        match block.get(r) {
            Some(&(pos, _)) => {
                let row = &rows[pos as usize * cols..][..cols];
                for (xj, &v) in x.iter_mut().zip(row) {
                    xj[n][l] = v;
                }
            }
            None => {
                for xj in x.iter_mut() {
                    xj[n][l] = 0.0;
                }
            }
        }
    }
    for ((xj, &m), &sd) in x.iter_mut().zip(net.mean).zip(net.std) {
        let (m, sd) = (s.splat(m), s.splat(sd));
        for v in xj.iter_mut() {
            s.store(s.div(s.sub(s.load(v), m), sd), v);
        }
    }
}

/// `z + bias`, then ReLU when `relu`.
#[inline(always)]
fn bias_relu<S: Simd<W>, const W: usize>(s: S, z: S::V, bias: S::V, relu: bool) -> S::V {
    let z = s.add(z, bias);
    if relu {
        s.relu(z)
    } else {
        z
    }
}

/// First-layer unit `h` for every lane.
#[inline(always)]
fn first_unit<S: Simd<W>, const W: usize, const N: usize>(
    s: S,
    net: &Net<'_>,
    x: &[Unit<W, N>],
    h: usize,
) -> [S::V; N] {
    let units = net.bias.len();
    let mut acc = [s.splat(net.first.acc[h]); N];
    for (xj, wj) in x.iter().zip(net.first.wt.chunks_exact(units)) {
        let w = s.splat(wj[h]);
        for (acc, xv) in acc.iter_mut().zip(xj) {
            *acc = s.add(*acc, s.mul(s.load(xv), w));
        }
    }
    let b = s.splat(net.bias[h]);
    for acc in &mut acc {
        *acc = bias_relu(s, *acc, b, net.relu);
    }
    acc
}

/// The cheap pass: the collapsed tail's dot product, accumulated as the
/// first layer's units come out.
#[inline(always)]
fn cheap<S: Simd<W>, const W: usize, const N: usize>(
    s: S,
    net: &Net<'_>,
    tail: &CheapTail,
    x: &[Unit<W, N>],
) -> [S::V; N] {
    let mut acc = [s.splat(tail.b); N];
    for (h, &v) in tail.v.iter().enumerate() {
        let (a, v) = (first_unit(s, net, x, h), s.splat(v));
        for (acc, a) in acc.iter_mut().zip(a) {
            *acc = s.add(*acc, s.mul(a, v));
        }
    }
    acc
}

/// The full pass: every layer, ping-ponging between the tiles `a` and
/// `b`.
#[inline(always)]
fn full<S: Simd<W>, const W: usize, const N: usize>(
    s: S,
    net: &Net<'_>,
    x: &[Unit<W, N>],
    a: &mut [Unit<W, N>],
    b: &mut [Unit<W, N>],
) -> [S::V; N] {
    for (h, ah) in a[..net.bias.len()].iter_mut().enumerate() {
        for (dst, v) in ah.iter_mut().zip(first_unit(s, net, x, h)) {
            s.store(v, dst);
        }
    }
    let (mut cur, mut next) = (a, b);
    for (li, layer) in net.layers.iter().enumerate() {
        let relu = li + 1 < net.layers.len();
        let input = &cur[..layer.w.cols];
        for (o, out) in next[..layer.w.rows].iter_mut().enumerate() {
            let z = neuron(s, input, layer.w.row(o), layer.b[o], relu);
            for (dst, v) in out.iter_mut().zip(z) {
                s.store(v, dst);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let mut out = [s.splat(0.0); N];
    for (o, v) in out.iter_mut().zip(&cur[0]) {
        *o = s.load(v);
    }
    out
}

/// One output unit of a later layer for every lane, in `Mat::mul_bt`'s
/// order: eight partials over `k`, their pairwise combination, the
/// leftover terms, then the bias and ReLU.
#[inline(always)]
fn neuron<S: Simd<W>, const W: usize, const N: usize>(
    s: S,
    act: &[Unit<W, N>],
    w: &[f32],
    bias: f32,
    relu: bool,
) -> [S::V; N] {
    let (chunks, rest) = act.as_chunks::<LANES>();
    let (wchunks, wrest) = w.as_chunks::<LANES>();
    let zero = s.splat(0.0);
    let mut p = [[zero; N]; LANES];
    for (ac, wc) in chunks.iter().zip(wchunks) {
        for ((pl, al), &wl) in p.iter_mut().zip(ac).zip(wc) {
            let wl = s.splat(wl);
            for (pv, av) in pl.iter_mut().zip(al) {
                *pv = s.add(*pv, s.mul(s.load(av), wl));
            }
        }
    }
    let mut tail = [zero; N];
    for (ak, &wk) in rest.iter().zip(wrest) {
        let wk = s.splat(wk);
        for (tv, av) in tail.iter_mut().zip(ak) {
            *tv = s.add(*tv, s.mul(s.load(av), wk));
        }
    }
    let bias = s.splat(bias);
    let mut z = [zero; N];
    for (n, z) in z.iter_mut().enumerate() {
        let sum = s.add(
            s.add(s.add(p[0][n], p[4][n]), s.add(p[2][n], p[6][n])),
            s.add(s.add(p[1][n], p[5][n]), s.add(p[3][n], p[7][n])),
        );
        *z = bias_relu(s, s.add(sum, tail[n]), bias, relu);
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Standardizer;
    use crate::mlp::{Mlp, ScratchSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Input width and prefix split of the tests' bundles: a GEMM query's
    /// six shape features and nine tuning features.
    const WIDTH: usize = 15;
    const SPLIT: usize = 6;

    /// A bundle on `hidden` with random non-zero biases (pre-activations
    /// of both signs) and a non-identity standardizer. The target mean is
    /// small next to the raw outputs, so denormalizing keeps a
    /// last-bit difference in them visible.
    fn bundle(hidden: &[usize], seed: u64) -> ModelBundle {
        let mut mlp = Mlp::with_hidden(WIDTH, hidden, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
        for layer in &mut mlp.layers {
            for b in &mut layer.b {
                *b = rng.gen_range(-0.5..0.5);
            }
        }
        ModelBundle {
            mlp,
            standardizer: Standardizer {
                mean: (0..WIDTH).map(|j| j as f32 * 0.2 - 1.0).collect(),
                std: (0..WIDTH).map(|j| 0.5 + j as f32 * 0.1).collect(),
            },
            y_mean: 0.015625,
            y_std: 1.25,
        }
    }

    /// `n` suffix rows: random values, with exact zeros, negative zeros
    /// and column means (which standardize to exactly zero) mixed in.
    fn suffix_rows(n: usize, rng: &mut StdRng) -> Vec<f32> {
        let cols = WIDTH - SPLIT;
        (0..n * cols)
            .map(|i| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => (SPLIT + i % cols) as f32 * 0.2 - 1.0,
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect()
    }

    /// Score every row of `rows`, in reverse order of position (the
    /// kernel gathers by position, whatever the order), with `isa`.
    fn scores(
        isa: Isa,
        b: &ModelBundle,
        prefix: &QueryPrefix,
        pass: Pass,
        rows: &[f32],
        tile: &mut Vec<f32>,
    ) -> Vec<u32> {
        let n = rows.len() / (WIDTH - SPLIT);
        let mut cands: Vec<(u32, f32)> = (0..n as u32).rev().map(|p| (p, f32::NAN)).collect();
        isa.run(Score {
            net: &Net::new(b, prefix, pass),
            rows,
            cands: &mut cands,
            tile,
        });
        cands.reverse();
        assert!(cands.iter().enumerate().all(|(i, c)| c.0 == i as u32));
        cands.iter().map(|c| c.1.to_bits()).collect()
    }

    /// The monolithic reference for the full pass: `predict_rows` on the
    /// whole feature rows.
    fn full_reference(b: &ModelBundle, head: &[f32], rows: &[f32]) -> Vec<u32> {
        let whole: Vec<f32> = rows
            .chunks_exact(WIDTH - SPLIT)
            .flat_map(|row| head.iter().chain(row).copied())
            .collect();
        let mut scratch = ScratchSpace::new();
        let out = b.predict_rows(&whole, WIDTH, &mut scratch);
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// The cheap-pass loop the kernel replaced, kept as the reference:
    /// standardize the suffix row, run the factored first layer one unit
    /// at a time, then the collapsed tail's sequential dot product.
    fn cheap_reference(b: &ModelBundle, prefix: &QueryPrefix, rows: &[f32]) -> Vec<u32> {
        let tail = prefix.tail.as_ref().expect("cascade prefix");
        let layer = &b.mlp.layers[0];
        let relu = b.mlp.layers.len() > 1;
        rows.chunks_exact(WIDTH - SPLIT)
            .map(|raw| {
                let mut x = raw.to_vec();
                b.standardizer.apply_row_from(SPLIT, &mut x);
                let mut s = tail.b;
                for (h, vh) in tail.v.iter().enumerate() {
                    let mut acc = prefix.first.acc[h];
                    for (wj, xj) in layer.w.row(h)[SPLIT..].iter().zip(&x) {
                        acc += wj * xj;
                    }
                    acc += layer.b[h];
                    let ah = if relu && acc < 0.0 { 0.0 } else { acc };
                    s += vh * ah;
                }
                (s * b.y_std + b.y_mean).to_bits()
            })
            .collect()
    }

    /// Both passes, every ISA variant the host runs, against the
    /// references bit for bit: the default net, widths that are not
    /// multiples of 8 or of any `R` (so the `k % 8` tail runs, beside
    /// full chunks of eight or alone), and a one-layer net whose first
    /// layer is the output; one candidate,
    /// `R - 1` and `R + 1` for every `R`, ragged final blocks and a full
    /// engine chunk.
    #[test]
    fn lanes_match_the_references_bitwise() {
        let mut rng = StdRng::seed_from_u64(28);
        for hidden in [
            vec![64, 128, 64],
            vec![24, 33],
            vec![20, 13],
            vec![5, 3, 7],
            vec![],
        ] {
            let b = bundle(&hidden, hidden.len() as u64 + 7);
            let head: Vec<f32> = (0..SPLIT).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let prefix = b.query_prefix_cascade(&head);
            for n in [1usize, 7, 9, 31, 33, 63, 65, 100, 4096] {
                let rows = suffix_rows(n, &mut rng);
                let full = full_reference(&b, &head, &rows);
                let cheap = cheap_reference(&b, &prefix, &rows);
                let mut generic = None;
                for isa in Isa::supported() {
                    let mut tile = Vec::new();
                    let got_full = scores(isa, &b, &prefix, Pass::Full, &rows, &mut tile);
                    let got_cheap = scores(isa, &b, &prefix, Pass::Cheap, &rows, &mut tile);
                    let what = format!("{isa:?}, hidden {hidden:?}, {n} candidates");
                    assert_eq!(got_full, full, "full pass, {what}");
                    assert_eq!(got_cheap, cheap, "cheap pass, {what}");
                    let generic = generic.get_or_insert((got_full.clone(), got_cheap.clone()));
                    assert_eq!((&got_full, &got_cheap), (&generic.0, &generic.1), "{what}");
                }
            }
        }
    }

    /// A warm tile is reused as is: a second call neither grows it nor
    /// changes a bit, and `score_lanes` runs the detected variant.
    #[test]
    fn a_warm_tile_stops_growing() {
        let b = bundle(&[64, 128, 64], 3);
        let mut rng = StdRng::seed_from_u64(5);
        let prefix = b.query_prefix_cascade(&[0.5; SPLIT]);
        let rows = suffix_rows(100, &mut rng);
        let mut tile = Vec::new();
        let run = |pass, tile: &mut Vec<f32>| {
            let mut cands: Vec<(u32, f32)> = (0..100).map(|p| (p, 0.0)).collect();
            b.score_lanes(&prefix, pass, &rows, &mut cands, tile);
            cands
        };
        let first = (run(Pass::Full, &mut tile), run(Pass::Cheap, &mut tile));
        let cap = tile.capacity();
        assert!(cap > 0, "the first call sizes the tile");
        let second = (run(Pass::Full, &mut tile), run(Pass::Cheap, &mut tile));
        assert_eq!(tile.capacity(), cap, "a warm tile must not grow");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    #[should_panic(expected = "query_prefix_cascade")]
    fn the_cheap_pass_needs_a_cascade_prefix() {
        let b = bundle(&[8], 1);
        let prefix = b.query_prefix(&[0.0; SPLIT]);
        let mut cands = vec![(0, 0.0)];
        b.score_lanes(
            &prefix,
            Pass::Cheap,
            &[0.0; WIDTH - SPLIT],
            &mut cands,
            &mut Vec::new(),
        );
    }
}
