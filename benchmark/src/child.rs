//! One round: a fresh process that sets the system up from scratch,
//! runs the workload's measured phase once, checks what it was served and
//! writes everything to a round file for the parent (rule R3).

use crate::fleet::{build_service, warm_up, SetupTimes};
use crate::inputs::{generate, Fnv64, Inputs, Workload};
use crate::loadgen::{open_loop, SpinLedger};
use crate::oracle::Oracles;
use crate::round::RoundResult;
use crate::sys::{
    another_allowed_cpu, current_cpu, monotonic_s, peak_rss_mib, pin_to_cpu, pin_to_current_cpu,
    process_cpu_s, run_only_when_idle, thread_cpu_s,
};
use crate::trace::Tracer;
use isaac_core::TunedChoice;
use isaac_serve::{Decision, Query, Served, SnapshotReport, TuneService};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Parent's monotonic clock just before it spawned this process.
    pub spawn_s: f64,
    /// The run's untimed fixture (snapshot or WAL directory inside).
    pub fixture: PathBuf,
    /// This round's private directory (model files, WAL copy).
    pub scratch: PathBuf,
    pub out: PathBuf,
    pub traced: bool,
}

/// Sub-directories of a fixture.
pub const SNAPSHOT_DIR: &str = "snapshot";
pub const WAL_DIR: &str = "wal";

/// What a measured phase hands back, before it is checked.
pub struct Phase {
    pub samples: Vec<f64>,
    pub lateness: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ledger: SpinLedger,
    /// `(key, decision)` of every shape, in operation order
    /// (`Inputs::op_len` per operation; empty on `hot_hits`).
    pub served: Vec<(u32, Decision)>,
    /// Calls answered inside `hot_hits` blocks (counted in the block).
    pub block_ok: u64,
}

fn answered(d: &Decision) -> bool {
    matches!(d.served, Served::Cache | Served::Tuned | Served::Coalesced) && d.choice.is_some()
}

/// Closed loop, one client: `submit(q).wait()` per operation. Also the
/// untimed fixture pass of `churn_durable`, which is why it is public.
pub fn closed_loop(service: &TuneService, inputs: &Inputs, tracer: &mut Tracer) -> Phase {
    let n = inputs.ops();
    let mut samples = Vec::with_capacity(n);
    let mut served = Vec::with_capacity(n);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for i in 0..n {
        let key = inputs.op_keys(i)[0];
        let query = &inputs.keys[key as usize];
        let request = tracer.begin("request", None, i as u32);
        let start = Instant::now();
        let span = tracer.begin("submit", Some(request), i as u32);
        let ticket = service.submit(query);
        tracer.end(span);
        let span = tracer.begin("wait", Some(request), i as u32);
        let decision = ticket.wait();
        tracer.end(span);
        // A publish path that reaches its compaction threshold pays for
        // the compaction: it is part of that operation.
        if inputs.workload.compacts_after(i, n) {
            let span = tracer.begin("compact", Some(request), i as u32);
            service
                .compact_now()
                .expect("compaction of the round's WAL");
            tracer.end(span);
        }
        samples.push(start.elapsed().as_secs_f64());
        tracer.end(request);
        served.push((key, decision));
    }
    Phase {
        samples,
        lateness: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        ledger: SpinLedger::default(),
        served,
        block_ok: 0,
    }
}

/// Closed loop of cached keys, timed a block at a time: one call costs
/// ~130 ns, less than reading the clock twice.
fn hot_blocks(service: &TuneService, inputs: &Inputs, tracer: &mut Tracer) -> Phase {
    let n = inputs.ops();
    let mut samples = Vec::with_capacity(n);
    let mut block_ok = 0u64;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for i in 0..n {
        let keys = inputs.op_keys(i);
        let span = tracer.begin("block", None, i as u32);
        let start = Instant::now();
        for &k in keys {
            let d = service
                .submit(black_box(&inputs.keys[k as usize]))
                .try_get();
            block_ok += d
                .as_ref()
                .is_some_and(|d| d.served == Served::Cache && d.choice.is_some())
                as u64;
            black_box(&d);
        }
        samples.push(start.elapsed().as_secs_f64() / keys.len() as f64);
        tracer.end(span);
    }
    Phase {
        samples,
        lateness: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        ledger: SpinLedger::default(),
        served: Vec::new(),
        block_ok,
    }
}

/// Open loop: one `submit_batch` per scheduled request, resolved when its
/// last ticket resolves, latency from the scheduled send time.
fn open_batches(service: &TuneService, inputs: &Inputs, tracer: &mut Tracer) -> Phase {
    let batches: Vec<Vec<Query>> = (0..inputs.ops())
        .map(|i| {
            inputs
                .op_keys(i)
                .iter()
                .map(|&k| inputs.keys[k as usize])
                .collect()
        })
        .collect();
    let epoch_s = tracer.now_s();
    let cpu0 = process_cpu_s();
    let report = open_loop(
        &inputs.schedule,
        |i| service.submit_batch(&batches[i]),
        |tickets| tickets.iter().all(|t| t.is_ready()),
    );
    let cpu_s = process_cpu_s() - cpu0;
    // Spans are filed after the loop from its own stamps, so a traced
    // round runs the same generator code as an untraced one.
    for i in 0..inputs.ops() {
        let (sent, returned, done) = (
            epoch_s + report.sent_s[i],
            epoch_s + report.send_done_s[i],
            epoch_s + report.done_s[i],
        );
        let request = tracer.record("request", None, i as u32, sent, done.max(returned));
        tracer.record("submit_batch", Some(request), i as u32, sent, returned);
        tracer.record(
            "resolve",
            Some(request),
            i as u32,
            returned,
            done.max(returned),
        );
    }
    let served = report
        .handles
        .iter()
        .enumerate()
        .flat_map(|(i, tickets)| inputs.op_keys(i).iter().copied().zip(tickets))
        .map(|(k, t)| (k, t.try_get().expect("a resolved ticket has a decision")))
        .collect();
    Phase {
        samples: report.latency_s,
        lateness: report.lateness_s,
        wall_s: report.ledger.total_wall_s,
        cpu_s,
        ledger: report.ledger,
        served,
        block_ok: 0,
    }
}

pub fn measured_phase(service: &TuneService, inputs: &Inputs, tracer: &mut Tracer) -> Phase {
    match inputs.workload {
        Workload::ColdDense | Workload::ChurnDurable => closed_loop(service, inputs, tracer),
        Workload::HotHits => hot_blocks(service, inputs, tracer),
        Workload::MixedOpen => open_batches(service, inputs, tracer),
    }
}

/// The served choice as text, every float bit included.
fn choice_text(c: &TunedChoice) -> String {
    format!(
        "{:?} {:016x} {:016x} {:016x}",
        c.config,
        c.predicted_gflops.to_bits(),
        c.tflops.to_bits(),
        c.time_s.to_bits()
    )
    .replace('\n', " ")
}

/// Checks every served decision: answered, legal for its shape, and
/// folded into a hash the parent compares across rounds.
struct Verdicts<'a> {
    inputs: &'a Inputs,
    oracles: Oracles,
    first: Vec<Option<TunedChoice>>,
    hash: Fnv64,
    offending: Option<String>,
}

impl<'a> Verdicts<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Verdicts {
            inputs,
            oracles: Oracles::new(),
            first: vec![None; inputs.keys.len()],
            hash: Fnv64::default(),
            offending: None,
        }
    }

    /// Returns whether the decision counts as a legal answer.
    fn check(&mut self, key: u32, d: &Decision) -> bool {
        let query = &self.inputs.keys[key as usize];
        let ok = match (&d.choice, answered(d)) {
            (Some(choice), true) => {
                self.hash.write(&key.to_le_bytes());
                self.hash.write(choice_text(choice).as_bytes());
                // Legality is per (key, config): checked when first seen
                // and again whenever a later answer changes the config.
                let known = self.first[key as usize]
                    .as_ref()
                    .is_some_and(|f| f.config == choice.config);
                let legal = known
                    || self
                        .oracles
                        .of(query.device)
                        .time_s(&query.shape, &choice.config)
                        .is_some();
                if legal && self.first[key as usize].is_none() {
                    self.first[key as usize] = Some(choice.clone());
                }
                legal
            }
            _ => false,
        };
        if !ok && self.offending.is_none() {
            self.offending = Some(format!(
                "{} on device {} ({:?})",
                query.shape.name(),
                query.device,
                d.served
            ));
        }
        ok
    }
}

fn restore(
    service: &TuneService,
    args: &ChildArgs,
    times: &mut SetupTimes,
    exact: &mut BTreeMap<String, u64>,
) -> io::Result<()> {
    let t = Instant::now();
    let report = match args.workload {
        // Nothing is pre-cached: every key must be a miss.
        Workload::ColdDense => SnapshotReport::default(),
        Workload::HotHits | Workload::MixedOpen => {
            service.restore_all(&args.fixture.join(SNAPSHOT_DIR))?
        }
        Workload::ChurnDurable => {
            // Every round recovers from its own copy of the fixture's WAL
            // directory, so all rounds start from the same cache and log.
            let dir = args.scratch.join(WAL_DIR);
            copy_dir(&args.fixture.join(WAL_DIR), &dir)?;
            let report = service.recover_all(&dir)?;
            service.enable_durability(&dir, Duration::from_secs(3_600));
            report
        }
    };
    times.insert("setup.restore_s".to_string(), t.elapsed().as_secs_f64());
    exact.insert("setup.restored_entries".to_string(), report.entries as u64);
    exact.insert("wal.records_replayed".to_string(), report.replayed as u64);
    exact.insert(
        "setup.restore_skipped".to_string(),
        (report.skipped + report.unmatched + report.torn_records) as u64,
    );
    Ok(())
}

pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// An idle-priority spinner on the worker's CPU. A worker that finishes
/// its queue blocks, its virtual CPU halts, and the next job's wake-up is
/// a round trip through the hypervisor: 3 us on a good day, hundreds when
/// the host has given the core away -- `mixed_open` p50 read 1.0 ms or
/// 1.4 ms by that alone. With something always runnable the CPU never
/// halts; `SCHED_IDLE` means the worker preempts the spinner the instant
/// it wakes, and the spinner's CPU time is subtracted like the
/// generator's idle spin.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl KeepAwake {
    /// Spawn while the caller is pinned to the worker's CPU: the spinner
    /// inherits the mask.
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // Without the demotion it would compete with the worker.
            if run_only_when_idle() {
                // Relaxed: the flag publishes nothing but itself.
                while !seen.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
            thread_cpu_s()
        });
        KeepAwake { stop, thread }
    }

    /// Stop the spinner; returns the CPU seconds it burned.
    fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("keep-awake thread panicked")
    }
}

/// Monotone counters of the service and its shard caches, by name.
pub fn counters(service: &TuneService, workload: Workload) -> BTreeMap<String, u64> {
    let r = service.stats();
    let s = service.service_stats();
    let f = service.flight_stats();
    let mut c = BTreeMap::new();
    let mut put = |k: &str, v: u64| {
        c.insert(k.to_string(), v);
    };
    put("service.queries", r.queries);
    put("service.batches", r.batches);
    put("service.cache_hits", r.cache_hits);
    put("service.cold_tunes", r.cold_tunes);
    put("service.coalesced", r.coalesced);
    put("service.batch_deduped", r.batch_deduped);
    put("service.no_shard", r.no_shard);
    put("service.failed", r.failed);
    put("service.shed", s.shed);
    put("service.timed_out", s.timed_out);
    put("health.degraded", r.degraded);
    put("admission.rejected", s.rejected);
    put("wal.appends", r.wal_appends);
    put("wal.bytes", r.wal_bytes);
    put("wal.append_errors", r.wal_append_errors);
    put("wal.compactions", r.compactions);
    put("flight.led", f.led);
    put("flight.joined", f.joined);
    put("queue.jobs_run", s.jobs_run);
    let (mut hits, mut misses, mut evictions, mut entries) = (0, 0, 0, 0);
    for &(device, op) in workload.shards() {
        let tuner = service.shard_tuner(device, op).expect("registered shard");
        let stats = tuner.cache_stats();
        hits += stats.hits;
        misses += stats.misses;
        evictions += stats.evictions;
        entries += tuner.cache_len() as u64;
    }
    put("cache.hits", hits);
    put("cache.misses", misses);
    put("cache.evictions", evictions);
    put("cache.entries", entries);
    c
}

/// Counters that depend on *when* a repeat arrives relative to the
/// flight it could join, not only on the inputs: exact on the closed
/// loops, reported but not compared on the open loop.
pub fn timing_dependent(workload: Workload, counter: &str) -> bool {
    workload.open_loop()
        && matches!(
            counter,
            "service.cache_hits"
                | "service.coalesced"
                | "flight.led"
                | "flight.joined"
                | "queue.jobs_run"
                | "cache.hits"
                | "cache.misses"
        )
}

pub fn run(args: &ChildArgs) -> io::Result<()> {
    let home = current_cpu();
    let worker_cpu = if args.workload.open_loop() {
        // The generator spins on one CPU while the worker tunes on
        // another: set-up (and with it the worker thread) moves to the
        // other CPU now, the generator returns home before measuring.
        home.and_then(another_allowed_cpu)
            .filter(|&cpu| pin_to_cpu(cpu))
    } else {
        // In a closed loop the client and the worker never run at the
        // same time, so one CPU loses nothing -- and keeping both threads
        // on it turns every client <-> worker hand-off into a local
        // context switch. Across CPUs a hand-off wakes a halted virtual
        // CPU, which costs 3 us or 55 us by the hypervisor's mood: the
        // same code read `churn_durable` p50 0.21 ms or 0.29 ms for whole
        // runs. Pinned before the service exists, so its worker inherits
        // the mask.
        pin_to_current_cpu()
    };
    // Regenerating the inputs is the harness's work, not the system's
    // set-up, so it is taken out of `setup_s`.
    let t = Instant::now();
    let inputs = generate(args.workload, args.seed, args.seconds);
    let inputs_s = t.elapsed().as_secs_f64();

    let mut times = SetupTimes::new();
    let mut exact = BTreeMap::new();
    let service = build_service(args.workload, &args.scratch.join("models"), &mut times)?;
    warm_up(&service, args.workload, &mut times);
    restore(&service, args, &mut times, &mut exact)?;
    let setup_s = monotonic_s() - args.spawn_s - inputs_s;

    let before = counters(&service, args.workload);
    let wait_before = service.service_stats().queue_wait_s_total;
    let mut tracer = Tracer::new(args.traced);
    // Open loop on two CPUs: the worker's CPU is kept from halting
    // between jobs, and the generator goes back to its own.
    let keep_awake = match (args.workload.open_loop(), home, worker_cpu) {
        (true, Some(home), Some(_)) => {
            let keeper = KeepAwake::start();
            pin_to_cpu(home);
            Some(keeper)
        }
        _ => None,
    };
    let phase = measured_phase(&service, &inputs, &mut tracer);
    let keep_awake_cpu_s = keep_awake.map_or(0.0, KeepAwake::stop);
    let after = counters(&service, args.workload);
    let stats = service.service_stats();

    let mut gauges: BTreeMap<String, f64> = times.into_iter().collect();
    gauges.insert(
        "queue.wait_s_total".to_string(),
        stats.queue_wait_s_total - wait_before,
    );
    gauges.insert(
        "queue.peak_open_tickets".to_string(),
        stats.peak_open_tickets as f64,
    );
    gauges.insert("loadgen.inputs_s".to_string(), inputs_s);
    gauges.insert(
        "loadgen.worker_cpu".to_string(),
        worker_cpu.map_or(-1.0, |cpu| cpu as f64),
    );
    gauges.insert("loadgen.keep_awake_cpu_s".to_string(), keep_awake_cpu_s);
    for (name, v) in &after {
        // `cache.entries` is a level, everything else a monotone count.
        let delta = if name == "cache.entries" {
            *v
        } else {
            v - before[name]
        };
        if timing_dependent(args.workload, name) {
            gauges.insert(name.clone(), delta as f64);
        } else {
            exact.insert(name.clone(), delta);
        }
    }

    // Check what was served. `hot_hits` counted its answers inside the
    // blocks; its decisions are read back once per key, untimed.
    let mut verdicts = Verdicts::new(&inputs);
    let mut ok = phase.block_ok;
    for op in phase.served.chunks(inputs.op_len) {
        let mut all = true;
        for (key, decision) in op {
            all &= verdicts.check(*key, decision);
        }
        ok += all as u64;
    }
    if args.workload == Workload::HotHits {
        let mut every_key_legal = true;
        for key in 0..inputs.keys.len() as u32 {
            let decision = service.submit(&inputs.keys[key as usize]).wait();
            every_key_legal &= verdicts.check(key, &decision);
        }
        if !every_key_legal {
            ok = 0;
        }
    }

    let quality = inputs
        .quality
        .iter()
        .filter_map(|&k| {
            let query = &inputs.keys[k as usize];
            let choice = verdicts.first[k as usize].as_ref()?;
            let time = verdicts
                .oracles
                .of(query.device)
                .time_s(&query.shape, &choice.config)?;
            Some((k, time))
        })
        .collect();

    let result = RoundResult {
        input_hash: inputs.hash,
        setup_s,
        wall_s: phase.wall_s,
        cpu_s: phase.cpu_s,
        idle_spin_cpu_s: phase.ledger.idle_cpu_s() + keep_awake_cpu_s,
        idle_spin_wall_s: phase.ledger.idle_wall_s(),
        rss_mib: peak_rss_mib(),
        attempted: inputs.ops() as u64 * inputs.calls_per_op(),
        ok,
        samples: phase.samples,
        lateness: phase.lateness,
        exact,
        gauges,
        decision_hash: verdicts.hash.0,
        decisions: verdicts
            .first
            .iter()
            .map(|c| c.as_ref().map_or("-".to_string(), choice_text))
            .collect(),
        quality,
        offending: verdicts.offending,
        spans: tracer.into_spans(),
    };
    // Shut the service down before reporting: a round that cannot stop
    // its workers must not look like a finished one.
    drop(service);
    std::fs::write(&args.out, result.to_text())
}
