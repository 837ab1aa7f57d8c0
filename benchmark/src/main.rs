//! `isaac-benchmark`: the repeatable end-to-end + per-layer benchmark of
//! the ISAAC tuning service. See `benchmark/README.md`.
//!
//! ```text
//! run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]   one run
//! run.sh --repeat N [...]                                       N runs + noise table
//! run.sh --emit-manifest                                        print BENCHMARK.json
//! ```

mod child;
mod fleet;
mod inputs;
mod loadgen;
mod manifest;
mod oracle;
mod parent;
mod probes;
mod rng;
mod round;
mod stats;
mod sys;
mod trace;

use inputs::{Workload, REFERENCE_SECONDS};
use manifest::END_TO_END;
use parent::{run_workload, RunConfig, RunReport};
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 1802;

struct Args {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: usize,
    out_root: PathBuf,
    fixture: PathBuf,
    scratch: PathBuf,
    out: PathBuf,
    spawn_s: f64,
}

enum Mode {
    Parent,
    Child,
    Probe,
    EmitManifest,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        mode: Mode::Parent,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        traced: false,
        repeat: 0,
        out_root: PathBuf::from("benchmark/out"),
        fixture: PathBuf::new(),
        scratch: PathBuf::new(),
        out: PathBuf::new(),
        spawn_s: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--child" => a.mode = Mode::Child,
            "--probe" => a.mode = Mode::Probe,
            "--emit-manifest" => a.mode = Mode::EmitManifest,
            "--workload" => {
                let name = value()?;
                a.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown workload `{name}` (one of {})",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => {
                a.seconds = num(&flag, value()?)?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => a.traced = num::<u8>(&flag, value()?)? != 0,
            "--repeat" => a.repeat = num(&flag, value()?)?,
            "--out-root" => a.out_root = PathBuf::from(value()?),
            "--fixture" => a.fixture = PathBuf::from(value()?),
            "--scratch" => a.scratch = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            "--spawn-s" => a.spawn_s = num(&flag, value()?)?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(a)
}

/// `--repeat N`: N complete runs; per workload x metric every run, the
/// median, the largest deviation from it, and PASS/FAIL against the bound.
fn noise_table(runs: &[Vec<RunReport>]) -> bool {
    let mut all_pass = true;
    println!(
        "\n== noise over {} complete runs (deviation of a run from the median of its set)",
        runs.len()
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        println!("{}:", workload.name());
        for (m, metric) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[w].metrics[m].1).collect();
            let med = stats::median(&values);
            let max_dev = values
                .iter()
                .map(|v| {
                    if med != 0.0 {
                        (v - med).abs() / med.abs()
                    } else {
                        0.0
                    }
                })
                .fold(0.0, f64::max);
            let pass = max_dev <= metric.bound;
            all_pass &= pass;
            println!(
                "  {:<16} median {:>13.6e} {:<8} max dev {:>6.2} % (bound {:>4.1} %) {}  runs: {}",
                metric.name,
                med,
                metric.unit,
                max_dev * 100.0,
                metric.bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
                values
                    .iter()
                    .map(|v| format!("{v:.5e}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
    all_pass
}

fn main() -> ExitCode {
    // Rule R1, before the first library call of any mode.
    fleet::pin_engine_threads();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isaac-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workload_or_default = args.workload.unwrap_or(Workload::ColdDense);
    let done = match args.mode {
        Mode::EmitManifest => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Mode::Child => child::run(&child::ChildArgs {
            workload: workload_or_default,
            seed: args.seed,
            seconds: args.seconds,
            spawn_s: args.spawn_s,
            fixture: args.fixture,
            scratch: args.scratch,
            out: args.out,
            traced: args.traced,
        })
        .map(|()| true),
        Mode::Probe => probes::run(
            workload_or_default,
            args.seed,
            args.seconds,
            &args.scratch,
            &args.out,
        )
        .map(|()| true),
        Mode::Parent => {
            let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let run_all = |seed: u64| -> std::io::Result<Vec<RunReport>> {
                workloads
                    .iter()
                    .map(|&workload| {
                        let report = run_workload(&RunConfig {
                            workload,
                            seed,
                            seconds: args.seconds,
                            traced: args.traced,
                            out_root: args.out_root.clone(),
                        })?;
                        // One result line per workload; the last line of a
                        // single-workload run is the one the driver reads.
                        println!("{}", report.json_line());
                        Ok(report)
                    })
                    .collect()
            };
            if args.repeat > 0 {
                if args.workload.is_some() || args.traced {
                    eprintln!("isaac-benchmark: --repeat runs every workload untraced");
                    return ExitCode::from(2);
                }
                (0..args.repeat)
                    .map(|i| {
                        println!("\n#### run {} of {}", i + 1, args.repeat);
                        run_all(args.seed)
                    })
                    .collect::<std::io::Result<Vec<_>>>()
                    .map(|runs| {
                        let correct = runs.iter().flatten().all(|r| r.correct);
                        noise_table(&runs) && correct
                    })
            } else {
                run_all(args.seed).map(|reports| reports.iter().all(|r| r.correct))
            }
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("isaac-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
