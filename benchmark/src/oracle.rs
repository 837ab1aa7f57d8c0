//! The benchmark's own ground truth: is a served config legal for its
//! shape, what does it cost on the noiseless device model, and what is
//! the best any legal config could do.

use isaac_core::{enumerate_legal_conv, enumerate_legal_gemm, enumerate_legal_sparse, KeyShape};
use isaac_device::specs::{gtx980ti, tesla_p100};
use isaac_device::{DeviceSpec, Profiler};
use isaac_gen::profile::{conv_profile, gemm_profile};
use isaac_gen::GemmConfig;
use isaac_sparse::profile::sparse_profile;

/// The device behind a shard ordinal.
pub fn spec_of(device: u16) -> DeviceSpec {
    match device {
        0 => tesla_p100(),
        _ => gtx980ti(),
    }
}

/// The noise-free device model of one shard ordinal.
pub struct Oracle(Profiler);

/// One oracle per device the workloads use.
pub struct Oracles([Oracle; 2]);

impl Oracles {
    pub fn new() -> Self {
        Oracles([Oracle::new(0), Oracle::new(1)])
    }

    pub fn of(&self, device: u16) -> &Oracle {
        &self.0[usize::from(device).min(1)]
    }
}

impl Oracle {
    pub fn new(device: u16) -> Self {
        Oracle(Profiler::noiseless(spec_of(device)))
    }

    /// Noise-free time of `cfg` on `shape`, or `None` when the config is
    /// not legal for that shape on this device (the profile builders run
    /// the full legality check first).
    pub fn time_s(&self, shape: &KeyShape, cfg: &GemmConfig) -> Option<f64> {
        let spec = self.0.spec();
        let profile = match shape {
            KeyShape::Gemm(s) => gemm_profile(cfg, s, spec),
            KeyShape::Conv(s) => conv_profile(cfg, s, spec),
            KeyShape::Sparse(s) => sparse_profile(cfg, s, spec),
        }
        .ok()?;
        Some(self.0.measure(&profile).ok()?.time_s)
    }

    /// `(best noiseless time over every legal config, legal configs)`.
    pub fn best_time_s(&self, shape: &KeyShape) -> Option<(f64, usize)> {
        let spec = self.0.spec();
        let legal = match shape {
            KeyShape::Gemm(s) => enumerate_legal_gemm(s, spec),
            KeyShape::Conv(s) => enumerate_legal_conv(s, spec),
            KeyShape::Sparse(s) => enumerate_legal_sparse(s),
        };
        let best = legal
            .iter()
            .filter_map(|cfg| self.time_s(shape, cfg))
            .min_by(f64::total_cmp)?;
        Some((best, legal.len()))
    }
}
