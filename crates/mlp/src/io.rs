//! Plain-text serialization for trained models and standardizers.
//!
//! Format (one item per line, whitespace-separated floats):
//!
//! ```text
//! mlp <n_sizes> <size_0> ... <size_k>
//! w <layer> <out> <in> v v v ...
//! b <layer> v v ...
//! std <n> mean... std...
//! y <mean> <std>
//! ```
//!
//! A hand-rolled format keeps the dependency tree free of serde while
//! remaining diffable and debuggable; the tuner caches trained models under
//! `target/isaac-cache/` with this.

use crate::data::Standardizer;
use crate::lanes::Pass;
use crate::matrix::Mat;
use crate::mlp::Mlp;
use std::fmt::Write as _;

/// The per-query precomputation of a factored forward pass: the
/// standardized constant features folded into first-layer partial sums
/// ([`crate::mlp::FirstLayerPrefix`]), plus -- for cascade queries -- the
/// collapsed cheap tail. Built once per tuning query, reused across every
/// candidate. See [`ModelBundle::query_prefix`].
#[derive(Debug, Clone)]
pub struct QueryPrefix {
    pub(crate) first: crate::mlp::FirstLayerPrefix,
    pub(crate) tail: Option<crate::mlp::CheapTail>,
}

impl QueryPrefix {
    /// Number of leading feature columns folded into this prefix.
    pub fn split(&self) -> usize {
        self.first.split()
    }
}

/// A trained model bundle: the network plus its input/target transforms.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The trained network.
    pub mlp: Mlp,
    /// Feature standardizer.
    pub standardizer: Standardizer,
    /// Target mean (standardized-target space).
    pub y_mean: f32,
    /// Target standard deviation.
    pub y_std: f32,
}

impl ModelBundle {
    /// Predict in the original target scale for raw (unstandardized)
    /// features.
    pub fn predict(&self, features: &[f32]) -> f32 {
        let mut row = features.to_vec();
        self.standardizer.apply_row(&mut row);
        self.mlp.predict_one(&row) * self.y_std + self.y_mean
    }

    /// Allocation-free batched prediction in the original target scale.
    ///
    /// `rows_flat` holds row-major feature rows of width `stride`;
    /// standardization, the forward pass and denormalization all run
    /// inside `scratch`, which the caller keeps across queries (one per
    /// worker thread). Returns one prediction per row, borrowed from the
    /// scratch. Results are bit-identical to [`ModelBundle::predict_batch`]
    /// for any batch split.
    pub fn predict_rows<'s>(
        &self,
        rows_flat: &[f32],
        stride: usize,
        scratch: &'s mut crate::mlp::ScratchSpace,
    ) -> &'s [f32] {
        assert_eq!(rows_flat.len() % stride.max(1), 0, "whole rows required");
        let rows = rows_flat.len() / stride.max(1);
        scratch.input(rows, stride).copy_from_slice(rows_flat);
        self.predict_scratch(scratch)
    }

    /// Like [`ModelBundle::predict_rows`], but over raw feature rows the
    /// caller already wrote into `scratch.input(rows, stride)` -- the
    /// zero-copy entry.
    pub fn predict_scratch<'s>(&self, scratch: &'s mut crate::mlp::ScratchSpace) -> &'s [f32] {
        let (rows, stride) = scratch.input_shape();
        {
            let buf = scratch.active_mut();
            for r in 0..rows {
                self.standardizer
                    .apply_row(&mut buf[r * stride..(r + 1) * stride]);
            }
        }
        self.mlp.predict_scratch(scratch);
        let out = scratch.active_mut();
        for v in out.iter_mut() {
            *v = *v * self.y_std + self.y_mean;
        }
        &out[..rows]
    }

    /// Precompute the per-query half of a factored forward pass: the
    /// leading `raw_prefix.len()` features (a tuning query's input-shape
    /// half) are standardized once and folded into first-layer partial
    /// sums. Candidate rows then carry only the remaining columns --
    /// [`ModelBundle::score_lanes`] is bit-identical to
    /// [`ModelBundle::predict_rows`] on full rows, for ~`split/width`
    /// less feature traffic and first-layer arithmetic per candidate.
    pub fn query_prefix(&self, raw_prefix: &[f32]) -> QueryPrefix {
        let mut p = raw_prefix.to_vec();
        // `apply_row` zips, so a short row standardizes against the
        // leading columns -- exactly the prefix statistics.
        self.standardizer.apply_row(&mut p);
        QueryPrefix {
            first: self.mlp.prefix_first_layer(&p),
            tail: None,
        }
    }

    /// Like [`ModelBundle::query_prefix`], additionally collapsing the
    /// network tail for the cascade's cheap pass ([`Pass::Cheap`]).
    pub fn query_prefix_cascade(&self, raw_prefix: &[f32]) -> QueryPrefix {
        let mut p = self.query_prefix(raw_prefix);
        p.tail = Some(self.mlp.collapse_tail());
        p
    }

    /// Score candidate rows with the lane kernel ([`crate::lanes`]), in
    /// the original target scale: the cheap surrogate or the full network
    /// over the query's factored first layer.
    ///
    /// `rows` holds the candidates' raw *suffix* feature rows (width
    /// `sizes[0] - prefix.split()`), back to back. Each `cands[i].0` is
    /// the position of a row in `rows`; the kernel writes that row's score
    /// into `cands[i].1`. `tile` is the kernel's activation storage: it
    /// grows on first use and is reused after, so a caller that keeps it
    /// across queries stops allocating. A full-pass score equals
    /// [`ModelBundle::predict_rows`] on the whole feature row bit for bit.
    pub fn score_lanes(
        &self,
        prefix: &QueryPrefix,
        pass: Pass,
        rows: &[f32],
        cands: &mut [(u32, f32)],
        tile: &mut Vec<f32>,
    ) {
        crate::lanes::score(self, prefix, pass, rows, cands, tile);
    }

    /// Predict a batch of raw feature rows in the original target scale.
    pub fn predict_batch(&self, rows: &[Vec<f32>]) -> Vec<f32> {
        if rows.is_empty() {
            return Vec::new();
        }
        let cols = rows[0].len();
        let mut x = Mat::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            let dst = x.row_mut(r);
            dst.copy_from_slice(row);
            self.standardizer.apply_row(dst);
        }
        self.mlp
            .predict_batch(&x)
            .into_iter()
            .map(|v| v * self.y_std + self.y_mean)
            .collect()
    }
}

/// Serialize a bundle to text.
pub fn to_text(bundle: &ModelBundle) -> String {
    let mut out = String::new();
    let sizes = &bundle.mlp.sizes;
    let _ = write!(out, "mlp {}", sizes.len());
    for s in sizes {
        let _ = write!(out, " {s}");
    }
    out.push('\n');
    for (li, layer) in bundle.mlp.layers.iter().enumerate() {
        let _ = write!(out, "w {li} {} {}", layer.w.rows, layer.w.cols);
        for v in layer.w.data() {
            let _ = write!(out, " {v:e}");
        }
        out.push('\n');
        let _ = write!(out, "b {li}");
        for v in &layer.b {
            let _ = write!(out, " {v:e}");
        }
        out.push('\n');
    }
    let _ = write!(out, "std {}", bundle.standardizer.mean.len());
    for v in &bundle.standardizer.mean {
        let _ = write!(out, " {v:e}");
    }
    for v in &bundle.standardizer.std {
        let _ = write!(out, " {v:e}");
    }
    out.push('\n');
    let _ = writeln!(out, "y {:e} {:e}", bundle.y_mean, bundle.y_std);
    out
}

/// Parse a bundle from text.
pub fn from_text(text: &str) -> Result<ModelBundle, String> {
    let mut sizes: Vec<usize> = Vec::new();
    let mut weights: Vec<(usize, Mat)> = Vec::new();
    let mut biases: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut standardizer = None;
    let mut y = None;
    for (ln, line) in text.lines().enumerate() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("mlp") => {
                let n: usize = it
                    .next()
                    .ok_or(format!("line {ln}: missing size count"))?
                    .parse()
                    .map_err(|e| format!("line {ln}: {e}"))?;
                sizes = it
                    .take(n)
                    .map(|t| t.parse().map_err(|e| format!("line {ln}: {e}")))
                    .collect::<Result<_, _>>()?;
                if sizes.len() != n {
                    return Err(format!("line {ln}: truncated sizes"));
                }
            }
            Some("w") => {
                let li: usize = it
                    .next()
                    .ok_or("missing layer idx")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let rows: usize = it
                    .next()
                    .ok_or("missing rows")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let cols: usize = it
                    .next()
                    .ok_or("missing cols")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let data: Vec<f32> = it
                    .map(|t| t.parse().map_err(|e| format!("line {ln}: {e}")))
                    .collect::<Result<_, _>>()?;
                if data.len() != rows * cols {
                    return Err(format!("line {ln}: expected {} weights", rows * cols));
                }
                weights.push((li, Mat::from_vec(rows, cols, data)));
            }
            Some("b") => {
                let li: usize = it
                    .next()
                    .ok_or("missing layer idx")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let data: Vec<f32> = it
                    .map(|t| t.parse().map_err(|e| format!("line {ln}: {e}")))
                    .collect::<Result<_, _>>()?;
                biases.push((li, data));
            }
            Some("std") => {
                let n: usize = it
                    .next()
                    .ok_or("missing std len")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let vals: Vec<f32> = it
                    .map(|t| t.parse().map_err(|e| format!("line {ln}: {e}")))
                    .collect::<Result<_, _>>()?;
                if vals.len() != 2 * n {
                    return Err(format!("line {ln}: expected {} std values", 2 * n));
                }
                standardizer = Some(Standardizer {
                    mean: vals[..n].to_vec(),
                    std: vals[n..].to_vec(),
                });
            }
            Some("y") => {
                let m: f32 = it
                    .next()
                    .ok_or("missing y mean")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let s: f32 = it
                    .next()
                    .ok_or("missing y std")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                y = Some((m, s));
            }
            Some(other) => return Err(format!("line {ln}: unknown record '{other}'")),
            None => {}
        }
    }
    if sizes.is_empty() {
        return Err("no mlp header".into());
    }
    weights.sort_by_key(|(li, _)| *li);
    biases.sort_by_key(|(li, _)| *li);
    if weights.len() != sizes.len() - 1 || biases.len() != sizes.len() - 1 {
        return Err("layer count mismatch".into());
    }
    let layers = weights
        .into_iter()
        .zip(biases)
        .map(|((_, w), (_, b))| crate::mlp::Dense { w, b })
        .collect();
    let (y_mean, y_std) = y.ok_or("missing y record")?;
    Ok(ModelBundle {
        mlp: Mlp { sizes, layers },
        standardizer: standardizer.ok_or("missing std record")?,
        y_mean,
        y_std,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle() -> ModelBundle {
        let mlp = Mlp::new(&[3, 8, 4, 1], 42);
        ModelBundle {
            mlp,
            standardizer: Standardizer {
                mean: vec![1.0, 2.0, 3.0],
                std: vec![0.5, 1.5, 2.5],
            },
            y_mean: 10.0,
            y_std: 2.0,
        }
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let b = bundle();
        let text = to_text(&b);
        let b2 = from_text(&text).expect("parse");
        for probe in [
            vec![0.0, 0.0, 0.0],
            vec![1.0, -2.0, 5.0],
            vec![10.0, 0.5, -3.0],
        ] {
            let p1 = b.predict(&probe);
            let p2 = b2.predict(&probe);
            assert!((p1 - p2).abs() < 1e-5, "{p1} vs {p2}");
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let b = bundle();
        let rows = vec![vec![0.1, 0.2, 0.3], vec![5.0, 4.0, 3.0]];
        let batch = b.predict_batch(&rows);
        assert!((batch[0] - b.predict(&rows[0])).abs() < 1e-5);
        assert!((batch[1] - b.predict(&rows[1])).abs() < 1e-5);
    }

    #[test]
    fn predict_rows_matches_predict_batch_bitwise() {
        let b = bundle();
        let rows = vec![
            vec![0.1f32, 0.2, 0.3],
            vec![5.0, 4.0, 3.0],
            vec![-1.0, 0.0, 2.5],
        ];
        let batch = b.predict_batch(&rows);
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let mut scratch = crate::mlp::ScratchSpace::new();
        let fast = b.predict_rows(&flat, 3, &mut scratch);
        assert_eq!(fast, batch.as_slice());
        // Zero-copy entry: fill the scratch input directly.
        scratch.input(3, 3).copy_from_slice(&flat);
        let zero_copy = b.predict_scratch(&mut scratch);
        assert_eq!(zero_copy, batch.as_slice());
    }

    /// The suffix columns (`split..`) of every `nfeat`-wide row of `flat`.
    fn suffixes(flat: &[f32], nfeat: usize, split: usize) -> Vec<f32> {
        flat.chunks_exact(nfeat)
            .flat_map(|row| row[split..].iter().copied())
            .collect()
    }

    /// Lane-kernel scores of the `n` rows of `rows`, in order.
    fn lane_scores(
        bundle: &ModelBundle,
        prefix: &QueryPrefix,
        pass: Pass,
        rows: &[f32],
        n: usize,
    ) -> Vec<f32> {
        let mut cands: Vec<(u32, f32)> = (0..n as u32).map(|pos| (pos, f32::NAN)).collect();
        bundle.score_lanes(prefix, pass, rows, &mut cands, &mut Vec::new());
        cands.into_iter().map(|(_, s)| s).collect()
    }

    /// Satellite property test: the factored first layer against the
    /// monolithic forward, bit for bit, on random bundles across every
    /// split point and odd batch sizes.
    #[test]
    fn factored_suffix_matches_monolithic_bitwise() {
        use crate::mlp::ScratchSpace;
        for (seed, sizes) in [
            (1u64, vec![7usize, 16, 8, 1]),
            (2, vec![5, 12, 1]),
            (3, vec![4, 1]), // single-layer edge case
        ] {
            let nfeat = sizes[0];
            let bundle = ModelBundle {
                mlp: Mlp::new(&sizes, seed),
                standardizer: Standardizer {
                    mean: (0..nfeat).map(|j| j as f32 * 0.3 - 0.5).collect(),
                    std: (0..nfeat).map(|j| 0.5 + j as f32 * 0.25).collect(),
                },
                y_mean: 2.0 + seed as f32,
                y_std: 0.75,
            };
            // Deterministic pseudo-random feature rows.
            let rows = 13;
            let flat: Vec<f32> = (0..rows * nfeat)
                .map(|i| ((i * 37 + seed as usize * 11) % 41) as f32 / 10.0 - 2.0)
                .collect();
            let mut scratch = ScratchSpace::new();
            let full = bundle.predict_rows(&flat, nfeat, &mut scratch).to_vec();
            for split in 0..=nfeat {
                // Every row shares row 0's prefix here, so compare against
                // the monolithic pass on rows rebuilt with that prefix.
                let prefix = bundle.query_prefix(&flat[..split]);
                let rebuilt: Vec<f32> = flat
                    .chunks_exact(nfeat)
                    .flat_map(|row| flat[..split].iter().chain(&row[split..]).copied())
                    .collect();
                let mono = bundle.predict_rows(&rebuilt, nfeat, &mut scratch).to_vec();
                let sfx = suffixes(&flat, nfeat, split);
                let fact = lane_scores(&bundle, &prefix, Pass::Full, &sfx, rows);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&fact),
                    bits(&mono),
                    "sizes {sizes:?} split {split}: factored must be bit-identical"
                );
                if split == 0 {
                    assert_eq!(bits(&fact), bits(&full), "split 0 degenerates to full rows");
                }
            }
        }
    }

    /// The collapsed cheap tail is *exact* for depth-2 networks (layers
    /// `1..` is just the affine output layer), so the surrogate must
    /// reproduce the full model there, up to summation order.
    #[test]
    fn cheap_tail_is_exact_for_two_layer_nets() {
        let nfeat = 6;
        let bundle = ModelBundle {
            mlp: Mlp::new(&[nfeat, 24, 1], 9),
            standardizer: Standardizer {
                mean: vec![0.1; nfeat],
                std: vec![1.25; nfeat],
            },
            y_mean: -1.0,
            y_std: 2.5,
        };
        let rows = 9;
        let split = 2;
        let flat: Vec<f32> = (0..rows * nfeat)
            .map(|i| ((i * 13) % 29) as f32 / 7.0 - 2.0)
            .collect();
        let prefix = bundle.query_prefix_cascade(&flat[..split]);
        let sfx = suffixes(&flat, nfeat, split);
        let cheap = lane_scores(&bundle, &prefix, Pass::Cheap, &sfx, rows);
        let full = lane_scores(&bundle, &prefix, Pass::Full, &sfx, rows);
        // The surrogate's dot product reduces sequentially while the full
        // model's output layer uses the eight-partial order, so the two
        // differ only by f32 summation order.
        for (r, (c, f)) in cheap.iter().zip(&full).enumerate() {
            assert!(
                (c - f).abs() <= 1e-4 * (1.0 + f.abs()),
                "row {r}: cheap {c} vs full {f} (depth-2 collapse must be exact up to order)"
            );
        }
    }

    #[test]
    fn corrupt_text_is_rejected() {
        assert!(from_text("").is_err());
        assert!(from_text("mlp 2 3 1\nw 0 1 3 0.1 0.2\n").is_err());
        assert!(from_text("nonsense 1 2 3").is_err());
    }

    #[test]
    fn denormalization_applies() {
        let b = bundle();
        // predict() must equal raw mlp output * y_std + y_mean.
        let mut row = vec![2.0f32, 2.0, 2.0];
        b.standardizer.apply_row(&mut row);
        let raw = b.mlp.predict_one(&row);
        let scaled = b.predict(&[2.0, 2.0, 2.0]);
        assert!((scaled - (raw * 2.0 + 10.0)).abs() < 1e-6);
    }
}
