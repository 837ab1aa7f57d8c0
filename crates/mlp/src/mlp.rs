//! The multi-layer perceptron: dense layers, ReLU, MSE loss, and two
//! optimizers (SGD with momentum and Adam).
//!
//! The architecture follows paper Algorithm 1 (forward propagation through
//! fully connected layers with a shared nonlinearity per layer); training
//! minimizes the mean square error as appropriate for regression under
//! Gaussian noise (Section 5.1).

use crate::data::Dataset;
use crate::matrix::{Mat, ResetReport, LANES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fully connected layer: `z = x W^T + b`, stored `(out x in)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights, `(out x in)`.
    pub w: Mat,
    /// Biases, length `out`.
    pub b: Vec<f32>,
}

/// Optimizer selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Stochastic gradient descent with momentum.
    Sgd {
        /// Momentum coefficient (0.9 is the usual choice).
        momentum: f32,
    },
    /// Adam with the standard decay constants.
    Adam {
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
    },
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
        }
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f32,
    /// Optimizer.
    pub optimizer: Optimizer,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 15,
            batch: 128,
            lr: 3e-3,
            lr_decay: 0.92,
            optimizer: Optimizer::default(),
            seed: 0,
        }
    }
}

/// Training outcome.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Validation MSE after each epoch.
    pub val_mse: Vec<f32>,
}

impl TrainReport {
    /// Best validation MSE seen.
    pub fn best_val_mse(&self) -> f32 {
        self.val_mse.iter().copied().fold(f32::INFINITY, f32::min)
    }
}

/// Reusable workspace for allocation-free batched inference.
///
/// The forward pass ping-pongs activations between two matrices whose
/// backing buffers are reused across calls; after the first call with the
/// largest batch size, [`Mlp::predict_rows`] performs **zero heap
/// allocations**. Hold one `ScratchSpace` per worker thread and feed every
/// query through it; [`ScratchSpace::allocations`] counts buffer growths
/// so tests (and the bench harness) can assert steady-state reuse.
#[derive(Debug, Clone, Default)]
pub struct ScratchSpace {
    a: Mat,
    b: Mat,
    allocations: u64,
    filled: u64,
}

impl ScratchSpace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer growths since construction. Constant across calls
    /// once the workspace has warmed up to the largest batch seen.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total elements fill-initialized by buffer reshapes since
    /// construction. The backing buffers are high-water marks
    /// ([`Mat::reset`]), so this too is constant at steady state: reusing
    /// a warm scratch pays neither an allocation *nor* a memset for data
    /// the forward pass immediately overwrites.
    pub fn filled(&self) -> u64 {
        self.filled
    }

    /// Fold one buffer-reshape outcome into the counters.
    fn count(&mut self, rep: ResetReport) {
        self.allocations += rep.grew as u64;
        self.filled += rep.filled as u64;
    }

    /// Reset the input buffer to `rows x cols` and expose it for the
    /// caller to fill with features (row-major). This is the zero-copy
    /// entry: build feature rows directly in place, then run
    /// [`Mlp::predict_scratch`] / `ModelBundle::predict_scratch`.
    pub fn input(&mut self, rows: usize, cols: usize) -> &mut [f32] {
        let rep = self.a.reset(rows, cols);
        self.count(rep);
        self.a.data_mut()
    }

    /// The current input buffer dimensions `(rows, cols)`.
    pub fn input_shape(&self) -> (usize, usize) {
        (self.a.rows, self.a.cols)
    }

    /// Mutable view of the active buffer: the filled input before a
    /// forward pass, the output after one (used by `ModelBundle` to
    /// standardize and denormalize in place).
    pub(crate) fn active_mut(&mut self) -> &mut [f32] {
        self.a.data_mut()
    }
}

/// The network.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Layer sizes, input first, 1 output last.
    pub sizes: Vec<usize>,
    /// Layers.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Create a network with Xavier-uniform initialization.
    ///
    /// `sizes` runs `[inputs, hidden..., 1]`; e.g. the paper's best Table 2
    /// architecture on 17 features is `[17, 64, 128, 192, 256, 192, 128,
    /// 64, 1]`.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert_eq!(*sizes.last().unwrap(), 1, "regression head must be 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|wnd| {
                let (fan_in, fan_out) = (wnd[0], wnd[1]);
                let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
                let mut w = Mat::zeros(fan_out, fan_in);
                for v in w.data_mut() {
                    *v = rng.gen_range(-bound..bound);
                }
                Dense {
                    w,
                    b: vec![0.0; fan_out],
                }
            })
            .collect();
        Mlp {
            sizes: sizes.to_vec(),
            layers,
        }
    }

    /// Convenience constructor from hidden sizes only.
    pub fn with_hidden(inputs: usize, hidden: &[usize], seed: u64) -> Self {
        let mut sizes = vec![inputs];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        Mlp::new(&sizes, seed)
    }

    /// Total trainable parameters.
    pub fn num_weights(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows * l.w.cols + l.b.len())
            .sum()
    }

    /// Forward pass for a batch; returns the activations of every layer
    /// (index 0 is the input itself).
    ///
    /// The first layer runs through the strictly sequential
    /// [`dense0_seq`] kernel and the rest through the tiled
    /// [`Mat::mul_bt`]; every prediction path (batch, scratch, factored)
    /// composes the same two kernels in the same order, which is what
    /// keeps them all bit-identical to each other.
    fn forward(&self, x: &Mat) -> Vec<Mat> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for (li, layer) in self.layers.iter().enumerate() {
            let prev = acts.last().expect("input pushed above");
            let mut z = Mat::zeros(prev.rows, layer.w.rows);
            let last = li + 1 == self.layers.len();
            if li == 0 {
                dense0_seq(&layer.w, &layer.b, prev, &mut z, !last);
            } else {
                prev.mul_bt(&layer.w, &mut z);
                bias_relu(&mut z, &layer.b, !last);
            }
            acts.push(z);
        }
        acts
    }

    /// Predict a batch of rows.
    pub fn predict_batch(&self, x: &Mat) -> Vec<f32> {
        let acts = self.forward(x);
        acts.last().expect("output layer").data().to_vec()
    }

    /// Allocation-free batched prediction over a flat row-major buffer.
    ///
    /// `x` holds `x.len() / stride` feature rows of width `stride` (which
    /// must equal the input layer size). Activations live in `scratch`,
    /// which is reused across calls; the returned slice (one prediction
    /// per row, raw network output) borrows from it.
    ///
    /// The arithmetic is row-independent and performed in the same order
    /// as [`Mlp::predict_batch`], so results are bit-identical to the
    /// allocating path for any batch split.
    pub fn predict_rows<'s>(
        &self,
        x: &[f32],
        stride: usize,
        scratch: &'s mut ScratchSpace,
    ) -> &'s [f32] {
        assert_eq!(stride, self.sizes[0], "stride must match the input layer");
        assert_eq!(x.len() % stride, 0, "flat buffer must be whole rows");
        let rows = x.len() / stride;
        scratch.input(rows, stride).copy_from_slice(x);
        self.predict_scratch(scratch)
    }

    /// Run the forward pass on feature rows already placed in
    /// `scratch.input(..)`. See [`Mlp::predict_rows`].
    pub fn predict_scratch<'s>(&self, scratch: &'s mut ScratchSpace) -> &'s [f32] {
        let (rows, cols) = scratch.input_shape();
        assert_eq!(cols, self.sizes[0], "scratch input width mismatch");
        for (li, layer) in self.layers.iter().enumerate() {
            let rep = scratch.b.reset(rows, layer.w.rows);
            scratch.count(rep);
            let relu = li + 1 != self.layers.len();
            if li == 0 {
                dense0_seq(&layer.w, &layer.b, &scratch.a, &mut scratch.b, relu);
            } else {
                scratch.a.mul_bt(&layer.w, &mut scratch.b);
                bias_relu(&mut scratch.b, &layer.b, relu);
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        scratch.a.data()
    }

    /// Precompute the constant half of the first layer for a query whose
    /// leading `prefix.len()` features are fixed: per-hidden-unit partial
    /// sums `acc[h] = sum_j w1[h][j] * prefix[j]`, accumulated strictly
    /// left to right. `prefix` must already be standardized (the model
    /// bundle's `query_prefix` handles that).
    ///
    /// The lane kernel (`ModelBundle::score_lanes`) continues the same sum
    /// over the remaining columns per candidate row, so
    /// `factor + continue == dense0_seq` *bitwise* -- the factored first
    /// layer changes the FLOP count, not a single output bit.
    pub fn prefix_first_layer(&self, prefix: &[f32]) -> FirstLayerPrefix {
        let w = &self.layers[0].w;
        assert!(
            prefix.len() <= self.sizes[0],
            "prefix wider than the input layer"
        );
        let acc = (0..w.rows)
            .map(|h| {
                let mut s = 0.0f32;
                for (wj, xj) in w.row(h).iter().zip(prefix) {
                    s += wj * xj;
                }
                s
            })
            .collect();
        FirstLayerPrefix {
            acc,
            split: prefix.len(),
            wt: transposed_cols(w, prefix.len()),
        }
    }

    /// Collapse layers `1..` into a single affine map by dropping their
    /// ReLUs: the weight chain `W_L * ... * W_2` folded into one vector
    /// over the first hidden layer plus a scalar bias. This is the
    /// cascade's cheap surrogate (exact for depth <= 2 networks, a linear
    /// proxy beyond); evaluating it costs one first-layer pass plus a dot
    /// product instead of the full network.
    pub fn collapse_tail(&self) -> CheapTail {
        if self.layers.len() == 1 {
            // The first layer *is* the output: the surrogate is identity.
            return CheapTail {
                v: vec![1.0],
                b: 0.0,
            };
        }
        let last = self.layers.last().expect("at least one layer");
        let mut v: Vec<f32> = last.w.row(0).to_vec();
        let mut b: f32 = last.b[0];
        for layer in self.layers[1..self.layers.len() - 1].iter().rev() {
            let mut nv = vec![0.0f32; layer.w.cols];
            for (h, &vh) in v.iter().enumerate() {
                b += vh * layer.b[h];
                for (nj, wj) in nv.iter_mut().zip(layer.w.row(h)) {
                    *nj += vh * wj;
                }
            }
            v = nv;
        }
        CheapTail { v, b }
    }

    /// Predict one feature vector.
    pub fn predict_one(&self, features: &[f32]) -> f32 {
        let x = Mat::from_vec(1, features.len(), features.to_vec());
        self.predict_batch(&x)[0]
    }

    /// Mean square error against targets.
    pub fn mse(&self, data: &Dataset) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        // Evaluate in chunks to bound workspace memory.
        let chunk = 1024;
        let mut total = 0.0f64;
        let mut r = 0;
        while r < data.len() {
            let hi = (r + chunk).min(data.len());
            let rows: Vec<usize> = (r..hi).collect();
            let sub = data.subset(&rows);
            let pred = self.predict_batch(&sub.x);
            for (p, y) in pred.iter().zip(&sub.y) {
                let d = (p - y) as f64;
                total += d * d;
            }
            r = hi;
        }
        (total / data.len() as f64) as f32
    }

    /// Train with mini-batch gradient descent; validation MSE is recorded
    /// after each epoch.
    pub fn train(&mut self, train: &Dataset, val: &Dataset, cfg: &TrainConfig) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut opt = OptState::new(self, cfg.optimizer);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut lr = cfg.lr;
        let mut val_mse = Vec::with_capacity(cfg.epochs);
        for _epoch in 0..cfg.epochs {
            rand::seq::SliceRandom::shuffle(order.as_mut_slice(), &mut rng);
            for chunk in order.chunks(cfg.batch) {
                let batch = train.subset(chunk);
                self.step(&batch, lr, &mut opt);
            }
            val_mse.push(self.mse(val));
            lr *= cfg.lr_decay;
        }
        TrainReport { val_mse }
    }

    /// One gradient step on a batch.
    fn step(&mut self, batch: &Dataset, lr: f32, opt: &mut OptState) {
        let acts = self.forward(&batch.x);
        let nb = batch.len() as f32;
        // dz for the output layer: 2 (yhat - y) / B.
        let out = acts.last().expect("output activations");
        let mut dz = Mat::zeros(out.rows, 1);
        for r in 0..out.rows {
            dz.set(r, 0, 2.0 * (out.get(r, 0) - batch.y[r]) / nb);
        }
        // Walk layers backwards.
        for li in (0..self.layers.len()).rev() {
            let a_prev = &acts[li];
            let mut dw = Mat::zeros(self.layers[li].w.rows, self.layers[li].w.cols);
            dz.add_at_b(a_prev, &mut dw);
            let mut db = vec![0.0f32; self.layers[li].b.len()];
            for r in 0..dz.rows {
                for (d, v) in db.iter_mut().zip(dz.row(r)) {
                    *d += v;
                }
            }
            if li > 0 {
                // Propagate: da_prev = dz * W, masked by ReLU'.
                let mut da = Mat::zeros(dz.rows, self.layers[li].w.cols);
                dz.mul(&self.layers[li].w, &mut da);
                let z_prev = &acts[li]; // post-ReLU activation of layer li
                for (v, &m) in da.data_mut().iter_mut().zip(z_prev.data()) {
                    // A select, not a branch: ReLU zeroes about half.
                    *v = if m <= 0.0 { 0.0 } else { *v };
                }
                opt.update(li, &mut self.layers[li], &dw, &db, lr);
                dz = da;
            } else {
                opt.update(li, &mut self.layers[li], &dw, &db, lr);
            }
        }
    }
}

/// The precomputed constant half of a factored first layer: partial
/// first-layer sums over a query's fixed leading features. Built by
/// [`Mlp::prefix_first_layer`], consumed by the lane kernel
/// (`ModelBundle::score_lanes`).
#[derive(Debug, Clone)]
pub struct FirstLayerPrefix {
    /// Per-hidden-unit partial sums over the prefix columns.
    pub(crate) acc: Vec<f32>,
    /// Number of leading input columns folded into `acc`.
    split: usize,
    /// First-layer weights of the remaining columns, transposed to
    /// `[column][hidden unit]`.
    pub(crate) wt: Vec<f32>,
}

impl FirstLayerPrefix {
    /// Number of leading input features folded into this prefix.
    pub fn split(&self) -> usize {
        self.split
    }
}

/// Layers `1..` collapsed into one affine map (ReLUs dropped): the
/// cascade's cheap surrogate. See [`Mlp::collapse_tail`].
#[derive(Debug, Clone)]
pub struct CheapTail {
    /// Collapsed weight vector over the first hidden layer.
    pub(crate) v: Vec<f32>,
    /// Collapsed bias.
    pub(crate) b: f32,
}

/// Columns `from..` of the `(out x in)` weight matrix `w`, transposed to
/// `[column][output unit]`.
fn transposed_cols(w: &Mat, from: usize) -> Vec<f32> {
    (from..w.cols)
        .flat_map(|j| (0..w.rows).map(move |h| w.get(h, j)))
        .collect()
}

/// Monolithic first-layer forward: [`first_layer`] from a zero seed over
/// every input column. The factored query path continues the prefix sums
/// over the remaining columns in the same order, so each output is the
/// same left-to-right sum either way -- which is what makes factored and
/// monolithic forwards bit-identical.
fn dense0_seq(w: &Mat, bias: &[f32], x: &Mat, out: &mut Mat, relu: bool) {
    first_layer(
        &vec![0.0; w.rows],
        &transposed_cols(w, 0),
        bias,
        x.data(),
        out.data_mut(),
        relu,
    );
}

/// The first-layer kernel: for every row `r` of `x` (width
/// `wt.len() / seed.len()`) and every output unit `h`,
///
/// `out[r][h] = act(seed[h] + x[r][0]*wt[0][h] + x[r][1]*wt[1][h] + ... + bias[h])`
///
/// summed strictly left to right with separate multiplies and adds. With
/// the weights transposed the sums of neighbouring units advance in
/// lockstep, one SIMD lane each, instead of one latency-bound scalar
/// chain after another; per unit the operations and their order are those
/// of the scalar loop, so the result is too, bit for bit.
fn first_layer(seed: &[f32], wt: &[f32], bias: &[f32], x: &[f32], out: &mut [f32], relu: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime. The
            // variant runs the same source as the generic path (no
            // reassociation, no fused multiply-add), only with 256-bit
            // registers.
            unsafe { first_layer_rows_avx2(seed, wt, bias, x, out, relu) };
            return;
        }
    }
    first_layer_rows(seed, wt, bias, x, out, relu);
}

/// [`first_layer_rows`] compiled with AVX2 enabled, selected at runtime
/// like `mul_bt_blocks_avx2`.
///
/// # Safety
/// The caller must have verified AVX2 support
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn first_layer_rows_avx2(
    seed: &[f32],
    wt: &[f32],
    bias: &[f32],
    x: &[f32],
    out: &mut [f32],
    relu: bool,
) {
    first_layer_rows(seed, wt, bias, x, out, relu);
}

#[inline(always)]
fn first_layer_rows(
    seed: &[f32],
    wt: &[f32],
    bias: &[f32],
    x: &[f32],
    out: &mut [f32],
    relu: bool,
) {
    let hidden = seed.len();
    let cols = wt.len() / hidden;
    for (r, orow) in out.chunks_exact_mut(hidden).enumerate() {
        let xr = &x[r * cols..(r + 1) * cols];
        let mut h0 = 0;
        while h0 < hidden {
            // Four lane vectors per step keep four independent add
            // chains in flight; narrower blocks mop up the remainder.
            h0 += match hidden - h0 {
                n if n >= 4 * LANES => units::<{ 4 * LANES }>(seed, wt, bias, xr, orow, h0, relu),
                n if n >= LANES => units::<LANES>(seed, wt, bias, xr, orow, h0, relu),
                _ => units::<1>(seed, wt, bias, xr, orow, h0, relu),
            };
        }
    }
}

/// Output units `h0..h0 + W` of one row; returns `W`.
#[inline(always)]
fn units<const W: usize>(
    seed: &[f32],
    wt: &[f32],
    bias: &[f32],
    xr: &[f32],
    orow: &mut [f32],
    h0: usize,
    relu: bool,
) -> usize {
    let mut acc: [f32; W] = seed[h0..h0 + W].try_into().expect("unit block");
    let bias: &[f32; W] = bias[h0..h0 + W].try_into().expect("unit block");
    let out: &mut [f32; W] = (&mut orow[h0..h0 + W]).try_into().expect("unit block");
    for (wrow, &xj) in wt.chunks_exact(seed.len()).zip(xr) {
        let w: &[f32; W] = wrow[h0..h0 + W].try_into().expect("unit block");
        for l in 0..W {
            acc[l] += w[l] * xj;
        }
    }
    for l in 0..W {
        let v = acc[l] + bias[l];
        out[l] = if relu && v < 0.0 { 0.0 } else { v };
    }
    W
}

/// Add the bias row-wise and apply ReLU (unless `relu` is false, i.e. the
/// output layer).
fn bias_relu(z: &mut Mat, bias: &[f32], relu: bool) {
    for r in 0..z.rows {
        let row = z.row_mut(r);
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
            if relu && *v < 0.0 {
                *v = 0.0;
            }
        }
    }
}

/// Per-layer optimizer state.
struct OptState {
    kind: Optimizer,
    /// First-moment (or momentum) buffers per layer: (weights, biases).
    m: Vec<(Mat, Vec<f32>)>,
    /// Second-moment buffers (Adam only).
    v: Vec<(Mat, Vec<f32>)>,
    /// Step counter for Adam bias correction.
    t: i32,
}

impl OptState {
    fn new(mlp: &Mlp, kind: Optimizer) -> Self {
        let zeros = |mlp: &Mlp| {
            mlp.layers
                .iter()
                .map(|l| (Mat::zeros(l.w.rows, l.w.cols), vec![0.0; l.b.len()]))
                .collect::<Vec<_>>()
        };
        OptState {
            kind,
            m: zeros(mlp),
            v: zeros(mlp),
            t: 0,
        }
    }

    fn update(&mut self, li: usize, layer: &mut Dense, dw: &Mat, db: &[f32], lr: f32) {
        match self.kind {
            Optimizer::Sgd { momentum } => {
                let (mw, mb) = &mut self.m[li];
                for ((m, w), g) in mw
                    .data_mut()
                    .iter_mut()
                    .zip(layer.w.data_mut())
                    .zip(dw.data())
                {
                    *m = momentum * *m - lr * g;
                    *w += *m;
                }
                for ((m, b), g) in mb.iter_mut().zip(&mut layer.b).zip(db) {
                    *m = momentum * *m - lr * g;
                    *b += *m;
                }
            }
            Optimizer::Adam { beta1, beta2 } => {
                if li == 0 {
                    self.t += 1;
                }
                let t = self.t.max(1);
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                let eps = 1e-8;
                let (mw, mb) = &mut self.m[li];
                let (vw, vb) = &mut self.v[li];
                for (((m, v), w), g) in mw
                    .data_mut()
                    .iter_mut()
                    .zip(vw.data_mut())
                    .zip(layer.w.data_mut())
                    .zip(dw.data())
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
                }
                for (((m, v), b), g) in mb.iter_mut().zip(vb.iter_mut()).zip(&mut layer.b).zip(db) {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    *b -= lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(n: usize, f: impl Fn(f32, f32) -> f32) -> Dataset {
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = Mat::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            x.set(r, 0, a);
            x.set(r, 1, b);
            y.push(f(a, b));
        }
        Dataset::new(x, y)
    }

    #[test]
    fn gradient_check_small_network() {
        // Numerical vs analytic gradient on a tiny net.
        let data = toy_dataset(8, |a, b| a * 0.5 + b * b);
        let mlp = Mlp::new(&[2, 5, 1], 3);
        // Analytic gradient of the first layer's first weight, via a
        // single step with lr so small we can recover dW from the delta.
        let probe = |mlp: &Mlp| -> f32 { mlp.mse(&data) };
        let eps = 1e-3f32;
        // Numerical gradient wrt layers[0].w[0,0]:
        let w00 = mlp.layers[0].w.get(0, 0);
        let mut plus = mlp.clone();
        plus.layers[0].w.set(0, 0, w00 + eps);
        let mut minus = mlp.clone();
        minus.layers[0].w.set(0, 0, w00 - eps);
        let num_grad = (probe(&plus) - probe(&minus)) / (2.0 * eps);

        // Analytic: run one SGD step (momentum 0, lr small) on the full
        // batch and recover dW from the weight delta. The lr must be large
        // enough that the delta is far from the f32 ULP of the weight
        // (~6e-8 here), or the recovered gradient is pure quantization.
        let mut stepped = mlp.clone();
        let lr = 1e-3f32;
        let mut opt = OptState::new(&stepped, Optimizer::Sgd { momentum: 0.0 });
        stepped.step(&data, lr, &mut opt);
        let analytic = (mlp.layers[0].w.get(0, 0) - stepped.layers[0].w.get(0, 0)) / lr;
        assert!(
            (num_grad - analytic).abs() < 2e-2_f32.max(num_grad.abs() * 0.05),
            "numerical {num_grad} vs analytic {analytic}"
        );
    }

    /// `Mlp::step` as it was before the backward kernels, kept as the
    /// reference: the old `add_at_b` / `mul` loops and a branching ReLU
    /// mask.
    fn step_reference(mlp: &mut Mlp, batch: &Dataset, lr: f32, opt: &mut OptState) {
        let acts = mlp.forward(&batch.x);
        let nb = batch.len() as f32;
        let out = acts.last().expect("output activations");
        let mut dz = Mat::zeros(out.rows, 1);
        for r in 0..out.rows {
            dz.set(r, 0, 2.0 * (out.get(r, 0) - batch.y[r]) / nb);
        }
        for li in (0..mlp.layers.len()).rev() {
            let a_prev = &acts[li];
            let mut dw = Mat::zeros(mlp.layers[li].w.rows, mlp.layers[li].w.cols);
            dz.add_at_b_reference(a_prev, &mut dw);
            let mut db = vec![0.0f32; mlp.layers[li].b.len()];
            for r in 0..dz.rows {
                for (d, v) in db.iter_mut().zip(dz.row(r)) {
                    *d += v;
                }
            }
            if li > 0 {
                let mut da = Mat::zeros(dz.rows, mlp.layers[li].w.cols);
                dz.mul_reference(&mlp.layers[li].w, &mut da);
                let z_prev = &acts[li];
                for r in 0..da.rows {
                    let mask = z_prev.row(r);
                    let row = da.row_mut(r);
                    for (v, &m) in row.iter_mut().zip(mask) {
                        if m <= 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                opt.update(li, &mut mlp.layers[li], &dw, &db, lr);
                dz = da;
            } else {
                opt.update(li, &mut mlp.layers[li], &dw, &db, lr);
            }
        }
    }

    /// `Mlp::train` gives the weights of the same schedule run through
    /// [`step_reference`], bit for bit, under both optimizers: a sparse
    /// shard's 19 inputs, hidden widths that are not multiples of the
    /// register width, and a ragged final batch (300 = 4 x 64 + 44).
    #[test]
    fn training_matches_the_reference_step_bitwise() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut x = Mat::zeros(300, 19);
        let mut y = Vec::with_capacity(300);
        for r in 0..300 {
            for c in 0..19 {
                x.set(r, c, rng.gen_range(-1.0..1.0));
            }
            y.push(x.get(r, 0).max(x.get(r, 3)) + 0.5 * x.get(r, 7) * x.get(r, 11));
        }
        let data = Dataset::new(x, y);
        let weights = |mlp: &Mlp| -> Vec<u32> {
            let params = mlp
                .layers
                .iter()
                .flat_map(|l| l.w.data().iter().chain(&l.b));
            params.map(|v| v.to_bits()).collect()
        };
        for optimizer in [Optimizer::default(), Optimizer::Sgd { momentum: 0.9 }] {
            let cfg = TrainConfig {
                epochs: 3,
                batch: 64,
                lr: 1e-2,
                optimizer,
                seed: 5,
                ..Default::default()
            };
            let start = Mlp::new(&[19, 24, 33, 1], 8);
            let mut trained = start.clone();
            trained.train(&data, &data, &cfg);

            let mut reference = start;
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut opt = OptState::new(&reference, cfg.optimizer);
            let mut order: Vec<usize> = (0..data.len()).collect();
            let mut lr = cfg.lr;
            for _ in 0..cfg.epochs {
                rand::seq::SliceRandom::shuffle(order.as_mut_slice(), &mut rng);
                for chunk in order.chunks(cfg.batch) {
                    step_reference(&mut reference, &data.subset(chunk), lr, &mut opt);
                }
                lr *= cfg.lr_decay;
            }
            assert_eq!(weights(&trained), weights(&reference), "{optimizer:?}");
        }
    }

    #[test]
    fn learns_linear_function() {
        let mut data = toy_dataset(512, |a, b| 3.0 * a - 2.0 * b + 0.5);
        data.standardize();
        let mut mlp = Mlp::new(&[2, 16, 1], 1);
        let report = mlp.train(
            &data,
            &data,
            &TrainConfig {
                epochs: 120,
                batch: 32,
                lr: 5e-3,
                lr_decay: 0.97,
                ..Default::default()
            },
        );
        assert!(
            report.best_val_mse() < 5e-3,
            "should fit a linear map, got {}",
            report.best_val_mse()
        );
    }

    #[test]
    fn learns_max_with_relu() {
        // The paper argues ReLU handles the max() structure of performance
        // models; verify a small net can learn max(a, b).
        let data = toy_dataset(2048, |a, b| a.max(b));
        let mut mlp = Mlp::new(&[2, 32, 32, 1], 2);
        let report = mlp.train(
            &data,
            &data,
            &TrainConfig {
                epochs: 60,
                batch: 64,
                lr: 3e-3,
                ..Default::default()
            },
        );
        assert!(
            report.best_val_mse() < 5e-3,
            "should fit max(), got {}",
            report.best_val_mse()
        );
    }

    #[test]
    fn deeper_networks_fit_better() {
        // Qualitative Table 2 check on a synthetic multiplicative task in
        // log space.
        let data = toy_dataset(3000, |a, b| (1.5 * a).max(0.3 * b) + 0.2 * a * b);
        let cfg = TrainConfig {
            epochs: 25,
            batch: 64,
            lr: 3e-3,
            seed: 5,
            ..Default::default()
        };
        let mut shallow = Mlp::new(&[2, 8, 1], 11);
        let r_shallow = shallow.train(&data, &data, &cfg);
        let mut deep = Mlp::new(&[2, 32, 64, 32, 1], 11);
        let r_deep = deep.train(&data, &data, &cfg);
        assert!(
            r_deep.best_val_mse() < r_shallow.best_val_mse(),
            "deep {} should beat shallow {}",
            r_deep.best_val_mse(),
            r_shallow.best_val_mse()
        );
    }

    #[test]
    fn sgd_and_adam_both_converge() {
        let data = toy_dataset(512, |a, b| a + b);
        for opt in [
            Optimizer::Sgd { momentum: 0.9 },
            Optimizer::Adam {
                beta1: 0.9,
                beta2: 0.999,
            },
        ] {
            let mut mlp = Mlp::new(&[2, 8, 1], 4);
            let report = mlp.train(
                &data,
                &data,
                &TrainConfig {
                    epochs: 30,
                    batch: 32,
                    lr: if matches!(opt, Optimizer::Sgd { .. }) {
                        1e-2
                    } else {
                        3e-3
                    },
                    optimizer: opt,
                    ..Default::default()
                },
            );
            assert!(
                report.best_val_mse() < 2e-2,
                "{opt:?} failed to converge: {}",
                report.best_val_mse()
            );
        }
    }

    #[test]
    fn num_weights_counts_parameters() {
        let mlp = Mlp::new(&[17, 64, 1], 0);
        assert_eq!(mlp.num_weights(), 17 * 64 + 64 + 64 + 1);
    }

    #[test]
    fn predict_one_matches_batch() {
        let mlp = Mlp::new(&[3, 8, 1], 9);
        let x = Mat::from_vec(2, 3, vec![0.1, 0.2, 0.3, -0.5, 0.4, 0.9]);
        let batch = mlp.predict_batch(&x);
        assert_eq!(mlp.predict_one(&[0.1, 0.2, 0.3]), batch[0]);
        assert_eq!(mlp.predict_one(&[-0.5, 0.4, 0.9]), batch[1]);
    }

    #[test]
    #[should_panic(expected = "regression head")]
    fn output_must_be_scalar() {
        let _ = Mlp::new(&[3, 8, 2], 0);
    }

    #[test]
    fn predict_rows_matches_predict_batch_bitwise() {
        let mlp = Mlp::new(&[5, 16, 8, 1], 13);
        let mut rng = StdRng::seed_from_u64(77);
        let rows = 37;
        let flat: Vec<f32> = (0..rows * 5).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let batch = mlp.predict_batch(&Mat::from_vec(rows, 5, flat.clone()));
        let mut scratch = ScratchSpace::new();
        let fast = mlp.predict_rows(&flat, 5, &mut scratch);
        assert_eq!(fast, batch.as_slice(), "flat path must be bit-identical");
        // Splitting the batch arbitrarily must not change any bit either.
        let mid = 17 * 5;
        let head = mlp.predict_rows(&flat[..mid], 5, &mut scratch).to_vec();
        let tail = mlp.predict_rows(&flat[mid..], 5, &mut scratch).to_vec();
        let rejoined: Vec<f32> = head.into_iter().chain(tail).collect();
        assert_eq!(rejoined, batch);
    }

    /// The scalar loop `first_layer` replaced, kept as the reference:
    /// one left-to-right chain per output unit, unit after unit.
    fn first_layer_scalar(
        w: &Mat,
        split: usize,
        seed: &[f32],
        bias: &[f32],
        x: &Mat,
        relu: bool,
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(x.rows * w.rows);
        for r in 0..x.rows {
            for h in 0..w.rows {
                let mut acc = seed[h];
                for (wj, xj) in w.row(h)[split..].iter().zip(x.row(r)) {
                    acc += wj * xj;
                }
                acc += bias[h];
                out.push(if relu && acc < 0.0 { 0.0 } else { acc });
            }
        }
        out
    }

    /// The vectorised first layer against the scalar loop, bit for bit:
    /// hidden widths that are and are not lane multiples, one row, a
    /// ragged handful and a full engine chunk, factored and monolithic.
    #[test]
    fn first_layer_matches_the_scalar_loop_bitwise() {
        let (inputs, split) = (17usize, 8usize);
        for hidden in [24usize, 33, 64] {
            let mlp = Mlp::new(&[inputs, hidden, 1], hidden as u64);
            let mut layer = mlp.layers[0].clone();
            let mut rng = StdRng::seed_from_u64(hidden as u64 + 100);
            for b in &mut layer.b {
                *b = rng.gen_range(-0.5..0.5);
            }
            let mlp = Mlp {
                layers: vec![layer.clone(), mlp.layers[1].clone()],
                ..mlp
            };
            let head: Vec<f32> = (0..split).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let prefix = mlp.prefix_first_layer(&head);
            for rows in [1usize, 7, 4096] {
                let sfx = inputs - split;
                let tail: Vec<f32> = (0..rows * sfx).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let mut fact = vec![0.0; rows * hidden];
                first_layer(&prefix.acc, &prefix.wt, &layer.b, &tail, &mut fact, true);
                let x = Mat::from_vec(rows, sfx, tail.clone());
                let want = first_layer_scalar(&layer.w, split, &prefix.acc, &layer.b, &x, true);
                assert_eq!(fact, want, "factored, hidden {hidden}, {rows} rows");

                let full: Vec<f32> = tail
                    .chunks_exact(sfx)
                    .flat_map(|t| head.iter().chain(t).copied().collect::<Vec<_>>())
                    .collect();
                let x = Mat::from_vec(rows, inputs, full);
                let mut out = Mat::zeros(rows, hidden);
                for relu in [true, false] {
                    dense0_seq(&layer.w, &layer.b, &x, &mut out, relu);
                    let zero = vec![0.0; hidden];
                    let mono = first_layer_scalar(&layer.w, 0, &zero, &layer.b, &x, relu);
                    assert_eq!(
                        out.data(),
                        mono.as_slice(),
                        "monolithic, hidden {hidden}, {rows} rows"
                    );
                }
                // And the two agree with each other (relu on).
                dense0_seq(&layer.w, &layer.b, &x, &mut out, true);
                assert_eq!(out.data(), want.as_slice());
            }
        }
    }

    #[test]
    fn scratch_stops_allocating_at_steady_state() {
        let mlp = Mlp::new(&[4, 32, 32, 1], 3);
        let mut scratch = ScratchSpace::new();
        let big = vec![0.5f32; 256 * 4];
        let small = vec![0.25f32; 64 * 4];
        mlp.predict_rows(&big, 4, &mut scratch);
        let warmed = scratch.allocations();
        let filled = scratch.filled();
        assert!(warmed > 0, "first call must size the buffers");
        assert!(filled > 0, "first call must initialize the buffers");
        for _ in 0..50 {
            mlp.predict_rows(&big, 4, &mut scratch);
            mlp.predict_rows(&small, 4, &mut scratch); // shrinking is free
        }
        assert_eq!(
            scratch.allocations(),
            warmed,
            "steady-state queries must not allocate"
        );
        assert_eq!(
            scratch.filled(),
            filled,
            "steady-state queries must not re-fill shrunken buffers"
        );
    }
}
