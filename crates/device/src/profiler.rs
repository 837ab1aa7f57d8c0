//! The "benchmark runner": analytical model + measurement noise.
//!
//! Everywhere the paper says "we benchmarked kernel x on the target
//! hardware", this reproduction calls [`Profiler::measure`]. The profiler
//! adds seeded multiplicative log-normal noise to the model's time so that
//! (a) the training data fed to the MLP is realistically noisy and (b) the
//! top-k re-benchmarking step of runtime inference has noise to average out.

use crate::model::{simulate, SimError, SimReport};
use crate::noise::{hash_name, SplitMix64};
use crate::profile::KernelProfile;
use crate::specs::DeviceSpec;

/// One noisy performance measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Measured (noisy) execution time in seconds.
    pub time_s: f64,
    /// Measured TFLOPS.
    pub tflops: f64,
    /// The underlying noise-free simulation report.
    pub report: SimReport,
    /// Simulated device seconds spent producing this measurement: every
    /// repetition's measured time, summed. A single repetition's is its
    /// `time_s`.
    pub device_s: f64,
}

/// A device plus a measurement-noise configuration.
#[derive(Debug, Clone)]
pub struct Profiler {
    spec: DeviceSpec,
    /// Log-space standard deviation of the multiplicative noise; ~0.03
    /// mimics the few-percent run-to-run variation of real GPU timings.
    sigma: f64,
    seed: u64,
}

impl Profiler {
    /// Create a profiler with the default noise level (sigma = 0.03).
    pub fn new(spec: DeviceSpec, seed: u64) -> Self {
        Profiler {
            spec,
            sigma: 0.03,
            seed,
        }
    }

    /// Create a noise-free profiler (useful for tests and analysis).
    pub fn noiseless(spec: DeviceSpec) -> Self {
        Profiler {
            spec,
            sigma: 0.0,
            seed: 0,
        }
    }

    /// Override the noise level.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// The device this profiler measures on.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Run one measurement. `rep` distinguishes repeated measurements of
    /// the same kernel (each repetition sees fresh noise).
    pub fn measure_rep(&self, profile: &KernelProfile, rep: u64) -> Result<Measurement, SimError> {
        let report = simulate(&self.spec, profile)?;
        let factor = if self.sigma > 0.0 {
            let mut rng =
                SplitMix64::new(self.seed ^ hash_name(&profile.name) ^ rep.wrapping_mul(0x9E37));
            rng.lognormal_factor(self.sigma)
        } else {
            1.0
        };
        let time_s = report.time_s * factor;
        Ok(Measurement {
            time_s,
            tflops: report.tflops / factor,
            report,
            device_s: time_s,
        })
    }

    /// Run one measurement (first repetition).
    pub fn measure(&self, profile: &KernelProfile) -> Result<Measurement, SimError> {
        self.measure_rep(profile, 0)
    }

    /// Measure `reps` times and return the best (lowest-time) measurement,
    /// the standard practice for benchmarking kernels.
    ///
    /// The device model is pure, so the kernel is simulated once and the
    /// repetitions differ only in their seeded noise factor -- the result
    /// is bit-identical to calling [`Profiler::measure_rep`] for each rep
    /// and keeping the first strictly fastest.
    pub fn measure_best_of(
        &self,
        profile: &KernelProfile,
        reps: u64,
    ) -> Result<Measurement, SimError> {
        let report = simulate(&self.spec, profile)?;
        let stream = self.seed ^ hash_name(&profile.name);
        let factor = |rep: u64| {
            if self.sigma > 0.0 {
                SplitMix64::new(stream ^ rep.wrapping_mul(0x9E37)).lognormal_factor(self.sigma)
            } else {
                1.0
            }
        };
        let mut best_factor = factor(0);
        let mut best_time = report.time_s * best_factor;
        let mut device_s = best_time;
        for rep in 1..reps.max(1) {
            let f = factor(rep);
            let time_s = report.time_s * f;
            device_s += time_s;
            if time_s < best_time {
                (best_factor, best_time) = (f, time_s);
            }
        }
        Ok(Measurement {
            time_s: best_time,
            tflops: report.tflops / best_factor,
            report,
            device_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::profile::{InstrMix, KernelProfile, Launch, MemoryFootprint};
    use crate::specs::tesla_p100;

    fn profile() -> KernelProfile {
        KernelProfile {
            name: "bench_me".into(),
            launch: Launch {
                grid: [64, 64, 1],
                block_threads: 256,
            },
            regs_per_thread: 64,
            smem_per_block: 8192,
            instr: InstrMix {
                math: 4096.0,
                flops_per_math: 2.0,
                ldg: 128.0,
                ldg_bytes: 16.0,
                stg: 16.0,
                stg_bytes: 16.0,
                lds: 512.0,
                sts: 128.0,
                atom: 0.0,
                misc: 300.0,
                barriers: 64.0,
            },
            mem: MemoryFootprint {
                read_bytes: 1e8,
                unique_read_bytes: 4e7,
                write_bytes: 1e7,
                atomic_bytes: 0.0,
                wave_reuse_fraction: 0.4,
                wave_working_set: 1e6,
            },
            ilp: 8.0,
            mlp: 4.0,
            dtype: DType::F32,
            useful_flops: 1e10,
            misc_discount: 1.0,
        }
    }

    #[test]
    fn noiseless_profiler_matches_model() {
        let p = Profiler::noiseless(tesla_p100());
        let m = p.measure(&profile()).unwrap();
        assert_eq!(m.time_s, m.report.time_s);
    }

    #[test]
    fn noise_is_reproducible() {
        let p = Profiler::new(tesla_p100(), 123);
        let a = p.measure(&profile()).unwrap();
        let b = p.measure(&profile()).unwrap();
        assert_eq!(a.time_s, b.time_s);
    }

    #[test]
    fn different_reps_differ_but_stay_close() {
        let p = Profiler::new(tesla_p100(), 123);
        let a = p.measure_rep(&profile(), 0).unwrap();
        let b = p.measure_rep(&profile(), 1).unwrap();
        assert_ne!(a.time_s, b.time_s);
        let ratio = a.time_s / b.time_s;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn best_of_improves_or_matches_single() {
        let p = Profiler::new(tesla_p100(), 5);
        let single = p.measure_rep(&profile(), 0).unwrap();
        let best = p.measure_best_of(&profile(), 8).unwrap();
        assert!(best.time_s <= single.time_s);
    }

    /// The pre-single-simulation loop: one full `measure_rep` per rep,
    /// keeping the first strictly fastest.
    fn measure_best_of_reference(
        p: &Profiler,
        profile: &KernelProfile,
        reps: u64,
    ) -> Result<Measurement, SimError> {
        let mut best: Option<Measurement> = None;
        for rep in 0..reps.max(1) {
            let m = p.measure_rep(profile, rep)?;
            if best.as_ref().is_none_or(|b| m.time_s < b.time_s) {
                best = Some(m);
            }
        }
        Ok(best.expect("reps >= 1"))
    }

    #[test]
    fn best_of_is_bit_identical_to_the_per_rep_loop() {
        for sigma in [0.0, 0.03, 0.3] {
            for seed in [0, 5, 0x15AAC] {
                let p = Profiler::new(tesla_p100(), seed).with_sigma(sigma);
                for reps in [0, 1, 2, 3, 8] {
                    let mut prof = profile();
                    for name in ["bench_me", "sgemm_nn_ml64x64_ms8x8_u8_k1.1.1_v4", ""] {
                        prof.name = name.into();
                        let fast = p.measure_best_of(&prof, reps).unwrap();
                        let slow = measure_best_of_reference(&p, &prof, reps).unwrap();
                        let at = format!("sigma {sigma} seed {seed} reps {reps} name {name:?}");
                        assert_eq!(fast.time_s.to_bits(), slow.time_s.to_bits(), "{at}");
                        assert_eq!(fast.tflops.to_bits(), slow.tflops.to_bits(), "{at}");
                        assert_eq!(format!("{:?}", fast.report), format!("{:?}", slow.report));
                        let ledger = (0..reps.max(1))
                            .map(|rep| p.measure_rep(&prof, rep).unwrap().time_s)
                            .fold(0.0, |sum, t| sum + t);
                        assert_eq!(fast.device_s.to_bits(), ledger.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn best_of_reports_an_infeasible_profile_unchanged() {
        let mut prof = profile();
        prof.smem_per_block = 1 << 30;
        let p = Profiler::new(tesla_p100(), 5);
        let err = p.measure_best_of(&prof, 3).unwrap_err();
        assert_eq!(err, measure_best_of_reference(&p, &prof, 3).unwrap_err());
        assert_eq!(err, p.measure(&prof).unwrap_err());
    }

    #[test]
    fn single_measurement_charges_its_own_time() {
        let p = Profiler::new(tesla_p100(), 5);
        let m = p.measure_rep(&profile(), 2).unwrap();
        assert_eq!(m.device_s, m.time_s);
    }

    #[test]
    fn tflops_consistent_with_time() {
        let p = Profiler::new(tesla_p100(), 5);
        let m = p.measure(&profile()).unwrap();
        let expected = 1e10 / m.time_s / 1e12;
        assert!((m.tflops - expected).abs() / expected < 1e-9);
    }
}
