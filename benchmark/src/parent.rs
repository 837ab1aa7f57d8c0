//! One run of one workload: build the untimed fixture, spawn the rounds
//! as fresh child processes one after another, aggregate their raw
//! samples the R2-R4 way, check everything that must repeat, and print.

use crate::child::{closed_loop, timing_dependent, SNAPSHOT_DIR, WAL_DIR};
use crate::fleet::{build_service, warm_up, SetupTimes, ENGINE_THREADS, WORKERS};
use crate::inputs::{generate, Inputs, Workload};
use crate::manifest::{END_TO_END, MUST_BE_ZERO, PER_LAYER};
use crate::oracle::Oracles;
use crate::round::RoundResult;
use crate::stats::{median, p50_and_tail, per_operation_median, percentile_sorted, spread};
use crate::sys::monotonic_s;
use crate::trace::{spans_json, Tracer};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// `choice_quality` below this fails the run.
const QUALITY_FLOOR: f64 = 0.85;
/// A load generator this late (p99, median over rounds) invalidates an
/// open-loop run.
const LATENESS_LIMIT_S: f64 = 2e-3;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// `benchmark/out`: everything a run writes lives below it.
    pub out_root: PathBuf,
}

/// `(name, value, unit)` in table order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run measured.
pub struct RunReport {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl RunReport {
    /// The result line the contract asks for, last on standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit measured (`NaN`/`inf` cannot be
/// written in JSON and read as 0 -- a run producing one is also failed).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Build what must exist before a round starts, untimed: the snapshot of
/// the pre-cached keys, or the WAL directory one pass of the same
/// sequence leaves behind. Returns the seconds it took.
fn build_fixture(inputs: &Inputs, dir: &Path) -> io::Result<f64> {
    let t = Instant::now();
    let workload = inputs.workload;
    if workload == Workload::ColdDense {
        return Ok(0.0);
    }
    let mut times = SetupTimes::new();
    let service = build_service(workload, &dir.join("models"), &mut times)?;
    warm_up(&service, workload, &mut times);
    if workload == Workload::ChurnDurable {
        service.enable_durability(dir.join(WAL_DIR), Duration::from_secs(3_600));
        let phase = closed_loop(&service, inputs, &mut Tracer::new(false));
        assert_eq!(phase.samples.len(), inputs.ops());
        // Stop like a crash (no shutdown flush): the rounds recover from
        // a base file *and* a log tail.
        service.disable_snapshots();
    } else {
        for &k in &inputs.precached {
            let decision = service.submit(&inputs.keys[k as usize]).wait();
            if decision.choice.is_none() {
                return Err(io::Error::other(format!(
                    "fixture: no decision for {}",
                    inputs.keys[k as usize].shape.name()
                )));
            }
        }
        service.snapshot_all(&dir.join(SNAPSHOT_DIR))?;
    }
    drop(service);
    Ok(t.elapsed().as_secs_f64())
}

fn spawn_child(
    cfg: &RunConfig,
    mode: &str,
    run_dir: &Path,
    tag: &str,
    traced: bool,
) -> io::Result<RoundResult> {
    let scratch = run_dir.join(tag);
    std::fs::create_dir_all(&scratch)?;
    let out = run_dir.join(format!("{tag}.txt"));
    let status = Command::new(std::env::current_exe()?)
        .arg(mode)
        .args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--fixture")
        .arg(run_dir.join("fixture"))
        .arg("--scratch")
        .arg(&scratch)
        .arg("--out")
        .arg(&out)
        .args(["--spawn-s", &format!("{:?}", monotonic_s())])
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "{mode} {tag} exited with {status}"
        )));
    }
    let result = RoundResult::parse(&std::fs::read_to_string(&out)?).map_err(io::Error::other)?;
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(result)
}

/// The timed end-to-end metrics, in the order `timed_of` returns them.
const TIMED: [&str; 5] = [
    "setup_s",
    "op_p50_s",
    "op_tail_s",
    "ops_per_s",
    "cpu_s_per_op",
];

/// One round's own values of the timed metrics: the medians over rounds
/// are taken from these, and so is the round-to-round spread every run
/// prints about itself.
fn timed_of(r: &RoundResult) -> [f64; 5] {
    let (p50, tail, _) = p50_and_tail(&r.samples);
    [
        r.setup_s,
        p50,
        tail,
        r.ok as f64 / r.wall_s,
        (r.cpu_s - r.idle_spin_cpu_s) / r.attempted as f64,
    ]
}

struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything that must be identical across rounds, or hold in each.
fn check_rounds(inputs: &Inputs, rounds: &[RoundResult], checks: &mut Checks) {
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        checks.require(r.input_hash == inputs.hash, || {
            format!(
                "round {i}: input hash {:016x} != parent's {:016x}",
                r.input_hash, inputs.hash
            )
        });
        checks.require(r.offending.is_none(), || {
            format!(
                "round {i}: illegal or missing decision for {}",
                r.offending.clone().unwrap_or_default()
            )
        });
        checks.require(r.ok == r.attempted, || {
            format!(
                "round {i}: {} of {} operations failed",
                r.attempted - r.ok,
                r.attempted
            )
        });
        if r.decision_hash != first.decision_hash || r.decisions != first.decisions {
            let key = first
                .decisions
                .iter()
                .zip(&r.decisions)
                .position(|(a, b)| a != b)
                .map_or(
                    "(same first decisions, different order or repeats)".to_string(),
                    |k| {
                        format!(
                            "{}: `{}` vs `{}`",
                            inputs.keys[k].shape.name(),
                            first.decisions[k],
                            r.decisions[k]
                        )
                    },
                );
            checks.failures.push(format!(
                "round {i}: served decisions differ from round 0 at {key}"
            ));
        }
        for (name, v) in &r.exact {
            checks.require(first.exact.get(name) == Some(v), || {
                format!(
                    "round {i}: exact counter {name} = {v}, round 0 had {:?}",
                    first.exact.get(name)
                )
            });
        }
        for name in MUST_BE_ZERO {
            let v = r.exact.get(name).copied().unwrap_or(0);
            checks.require(v == 0, || format!("round {i}: {name} = {v}, must be 0"));
        }
    }
}

/// `choice_quality`: mean over the quality keys of (best noiseless time
/// over every legal config) / (noiseless time of the served config).
fn choice_quality(inputs: &Inputs, round: &RoundResult, checks: &mut Checks) -> f64 {
    let oracles = Oracles::new();
    let mut ratios = Vec::new();
    for &(k, served_s) in &round.quality {
        let query = &inputs.keys[k as usize];
        match oracles.of(query.device).best_time_s(&query.shape) {
            Some((best_s, _)) => ratios.push(best_s / served_s),
            None => checks.failures.push(format!(
                "oracle: no legal config for {}",
                query.shape.name()
            )),
        }
    }
    checks.require(ratios.len() == inputs.quality.len(), || {
        format!(
            "choice_quality scored {} of {} keys",
            ratios.len(),
            inputs.quality.len()
        )
    });
    if ratios.is_empty() {
        return 0.0;
    }
    let quality = ratios.iter().sum::<f64>() / ratios.len() as f64;
    checks.require(quality >= QUALITY_FLOOR, || {
        format!("choice_quality {quality:.4} is below the floor {QUALITY_FLOOR}")
    });
    quality
}

struct EndToEndReport {
    metrics: Metrics,
    /// The tail percentile the sample supported, and the sample count.
    tail_p: f64,
    samples: usize,
    /// Round-to-round spread of each `TIMED` metric.
    spreads: [f64; 5],
}

fn end_to_end(inputs: &Inputs, rounds: &[RoundResult], quality: f64) -> EndToEndReport {
    let samples =
        per_operation_median(&rounds.iter().map(|r| r.samples.clone()).collect::<Vec<_>>());
    let (p50, tail, tail_p) = p50_and_tail(&samples);
    let timed: Vec<[f64; 5]> = rounds.iter().map(timed_of).collect();
    let column = |i: usize| timed.iter().map(|t| t[i]).collect::<Vec<_>>();
    let over = |i: usize| median(&column(i));
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let ok: u64 = rounds.iter().map(|r| r.ok).sum();
    let slo_s = inputs.workload.slo_s();
    let within: u64 = rounds
        .iter()
        .map(|r| r.samples.iter().filter(|&&s| s <= slo_s).count() as u64 * inputs.calls_per_op())
        .sum();
    // A failed operation misses its limit whatever its latency was.
    let slo_met = within.saturating_sub(attempted - ok) as f64 / attempted as f64;
    let values = [
        over(0),
        p50,
        tail,
        over(3),
        over(4),
        ok as f64 / attempted as f64,
        slo_met,
        quality,
        median(&rounds.iter().map(|r| r.rss_mib).collect::<Vec<_>>()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    EndToEndReport {
        metrics,
        tail_p,
        samples: samples.len(),
        spreads: std::array::from_fn(|i| spread(&column(i))),
    }
}

/// Merge the traced round, the probe pass and the run's own figures into
/// the per-layer table.
fn per_layer(
    traced: &RoundResult,
    probe: &RoundResult,
    fixture_s: f64,
    round_spread_max: f64,
    overhead_frac: f64,
) -> Result<Metrics, String> {
    let mut v: BTreeMap<String, f64> = probe.gauges.clone();
    v.extend(traced.gauges.clone());
    v.extend(traced.exact.iter().map(|(k, c)| (k.clone(), *c as f64)));
    let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let shards = get(&v, "setup.shards").max(1.0);
    let derived = [
        ("train.total_s", get(&v, "setup.train_s")),
        ("train.val_mse", get(&v, "setup.val_mse") / shards),
        ("train.model_load_s", get(&v, "setup.model_load_s") / shards),
        ("train.model_bytes", get(&v, "setup.model_bytes") / shards),
        ("service.add_shard_s", get(&v, "setup.add_shard_s") / shards),
        (
            "service.restore_s_per_entry",
            ratio(
                get(&v, "setup.restore_s"),
                get(&v, "setup.restored_entries") + get(&v, "wal.records_replayed"),
            ),
        ),
        (
            "cache.hit_rate",
            ratio(
                get(&v, "cache.hits"),
                get(&v, "cache.hits") + get(&v, "cache.misses"),
            ),
        ),
        (
            "batch.dedup_ratio",
            ratio(
                get(&v, "service.batch_deduped") + get(&v, "service.coalesced"),
                get(&v, "service.queries"),
            ),
        ),
        (
            "queue.wait_s_mean",
            ratio(get(&v, "queue.wait_s_total"), get(&v, "queue.jobs_run")),
        ),
        (
            "inference.full_score_frac",
            ratio(
                get(&v, "inference.scored_full"),
                get(&v, "inference.legal_points"),
            ),
        ),
        ("loadgen.lateness_p99_s", lateness_p99(traced)),
        (
            "loadgen.idle_spin_frac",
            ratio(traced.idle_spin_wall_s, traced.wall_s),
        ),
        ("loadgen.fixture_s", fixture_s),
        ("loadgen.round_spread_max", round_spread_max),
        ("trace.overhead_frac", overhead_frac),
    ];
    v.extend(derived.iter().map(|(k, x)| (k.to_string(), *x)));

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            v.get(name)
                .map(|x| (name, *x, unit))
                .ok_or_else(|| format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

fn lateness_p99(r: &RoundResult) -> f64 {
    if r.lateness.is_empty() {
        return 0.0;
    }
    let mut sorted = r.lateness.clone();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 99.0)
}

/// The traced run's own assertions: the parts must account for the whole.
/// The engine's stages are timed inside one call, so 5 % is ample; a miss
/// is compared with a *separate* direct tune of the same key, and two
/// calls on this shared host differ by a few per cent on their own, so it
/// gets 10 %.
fn check_trace_sums(layers: &Metrics, checks: &mut Checks) {
    for (name, tolerance) in [
        ("inference.stage_sum_frac", 0.05),
        ("service.request_sum_frac", 0.10),
    ] {
        let v = layers
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1);
        checks.require((v - 1.0).abs() <= tolerance, || {
            format!(
                "{name} = {v:.4}: the parts do not sum to the whole within {:.0} %",
                tolerance * 100.0
            )
        });
    }
}

fn write_trace(
    cfg: &RunConfig,
    traced: &RoundResult,
    probe: &RoundResult,
    layers: &Metrics,
) -> io::Result<PathBuf> {
    let path = cfg.out_root.join("trace.json");
    let metrics: Vec<String> = layers
        .iter()
        .map(|(n, v, u)| {
            format!(
                "    \"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"per_layer\": {{\n{}\n  }},\n  \"round_spans\": {},\n  \"probe_spans\": {}\n}}\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        metrics.join(",\n"),
        spans_json(&traced.spans),
        spans_json(&probe.spans)
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

pub fn run_workload(cfg: &RunConfig) -> io::Result<RunReport> {
    let workload = cfg.workload;
    let inputs = generate(workload, cfg.seed, cfg.seconds);
    // A traced run is two untraced rounds (the baseline its overhead is
    // taken against) and one traced round; its end-to-end numbers are
    // not reported.
    let rounds_wanted = if cfg.traced { 3 } else { workload.rounds() };
    println!(
        "== {} seed={} seconds={} rounds={} ops/round={} keys={} input_hash={:016x}{}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        rounds_wanted,
        inputs.ops(),
        inputs.keys.len(),
        inputs.hash,
        if cfg.traced { " (traced run)" } else { "" }
    );
    println!(
        "threads: engine {ENGINE_THREADS}, workers {WORKERS}, load generator 1 (host parallelism {})",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let run_dir = cfg.out_root.join(format!(
        "run-{}-{}-{}",
        workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)?;
    let outcome = run_in(cfg, &inputs, &run_dir, rounds_wanted);
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome
}

fn run_in(
    cfg: &RunConfig,
    inputs: &Inputs,
    run_dir: &Path,
    rounds_wanted: usize,
) -> io::Result<RunReport> {
    let workload = cfg.workload;
    let fixture_s = build_fixture(inputs, &run_dir.join("fixture"))?;
    println!("fixture built in {fixture_s:.3} s (untimed)");

    let mut rounds = Vec::new();
    for r in 0..rounds_wanted {
        let traced = cfg.traced && r + 1 == rounds_wanted;
        let result = spawn_child(cfg, "--child", run_dir, &format!("round-{r}"), traced)?;
        let (p50, tail, _) = p50_and_tail(&result.samples);
        let cpu = result
            .gauges
            .get("loadgen.worker_cpu")
            .copied()
            .unwrap_or(-1.0);
        println!(
            "round {r}{}{}: setup {:.4} s, measured {:.3} s, cpu {:.3} s, p50 {:.4e} s, tail {:.4e} s, {} / {} ok",
            if traced { " (traced)" } else { "" },
            if cpu >= 0.0 { format!(" [worker cpu {cpu}]") } else { String::new() },
            result.setup_s, result.wall_s, result.cpu_s, p50, tail, result.ok, result.attempted
        );
        rounds.push(result);
    }

    let mut checks = Checks {
        failures: Vec::new(),
    };
    check_rounds(inputs, &rounds, &mut checks);
    let t = Instant::now();
    let quality = choice_quality(inputs, &rounds[0], &mut checks);
    println!(
        "choice_quality scored on {} keys in {:.3} s (untimed)",
        rounds[0].quality.len(),
        t.elapsed().as_secs_f64()
    );
    if workload.open_loop() {
        // A neighbour that takes a core for one round makes that round's
        // generator late; the per-operation medians already discard the
        // round, so the run is only invalid when most rounds were late.
        let late = median(&rounds.iter().map(lateness_p99).collect::<Vec<_>>());
        println!("load generator lateness p99, median over rounds: {late:.6} s");
        checks.require(late <= LATENESS_LIMIT_S, || {
            format!("load generator ran {late:.6} s late at p99 in most rounds (limit {LATENESS_LIMIT_S})")
        });
    }

    let untraced = if cfg.traced {
        &rounds[..rounds.len() - 1]
    } else {
        &rounds[..]
    };
    let EndToEndReport {
        metrics: e2e,
        tail_p,
        samples: n_samples,
        spreads,
    } = end_to_end(inputs, untraced, quality);
    let round_spread_max = spreads.iter().copied().fold(0.0, f64::max);

    println!("end-to-end ({} untraced rounds):", untraced.len());
    for (name, value, unit) in &e2e {
        let note = match *name {
            "op_tail_s" => format!("  (p{tail_p} of {n_samples} per-operation samples)"),
            "op_p50_s" => {
                format!("  (p50 of {n_samples} per-operation samples, each a median over rounds)")
            }
            _ => String::new(),
        };
        let spread = TIMED
            .iter()
            .position(|n| n == name)
            .map_or(String::new(), |i| {
                format!("  [round-to-round spread {:.2} %]", spreads[i] * 100.0)
            });
        println!("  {name:<16} {value:>14.6e} {unit}{note}{spread}");
    }
    println!("exact counters of a round (identical in every round):");
    for (name, v) in &rounds[0].exact {
        println!("  {name:<28} {v}");
    }
    if workload.open_loop() {
        println!("timing-dependent counters of round 0 (reported, not compared):");
        for (name, v) in rounds[0]
            .gauges
            .iter()
            .filter(|(n, _)| timing_dependent(workload, n))
        {
            println!("  {name:<28} {v}");
        }
    }

    let metrics = if cfg.traced {
        let probe = spawn_child(cfg, "--probe", run_dir, "probe", true)?;
        let traced = rounds.last().expect("a traced run has rounds");
        let overhead =
            traced.wall_s / median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>()) - 1.0;
        let layers = per_layer(traced, &probe, fixture_s, round_spread_max, overhead)
            .map_err(io::Error::other)?;
        check_trace_sums(&layers, &mut checks);
        println!("per-layer (traced round + probe pass):");
        for (name, value, unit) in &layers {
            println!("  {name:<38} {value:>14.6e} {unit}");
        }
        let path = write_trace(cfg, traced, &probe, &layers)?;
        println!("trace written to {}", path.display());
        layers
    } else {
        e2e
    };

    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    if checks.failures.is_empty() {
        println!("checks: inputs, decisions and exact counters identical in all {} rounds; every decision legal", rounds.len());
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let ok: u64 = rounds.iter().map(|r| r.ok).sum();
    Ok(RunReport {
        metrics,
        correct: checks.failures.is_empty() && finite,
        attempted,
        failed: attempted - ok,
    })
}
