//! The metric tables, and `BENCHMARK.json` rendered from them -- one
//! source of truth: a unit test fails when the committed file and these
//! tables disagree.

use crate::inputs::{Workload, REFERENCE_SECONDS};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The nine end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "op_tail_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_s_per_op",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "fraction",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "slo_met_frac",
        unit: "fraction",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "choice_quality",
        unit: "fraction",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

/// `(name, unit, better)` of every per-layer metric a traced run prints.
pub const PER_LAYER: [(&str, &str, &str); 72] = [
    // gen / device
    ("gen.space_table_build_s", "s", "lower"),
    ("gen.legal_frac_gemm", "fraction", "higher"),
    ("gen.legal_frac_conv", "fraction", "higher"),
    ("device.measure_s", "s", "lower"),
    // mlp
    ("mlp.mul_bt_gflops", "Gflop/s", "higher"),
    ("mlp.predict_s_per_row", "s", "lower"),
    ("mlp.fit_epoch_s", "s", "lower"),
    // inference
    ("inference.cold_gemm_s", "s", "lower"),
    ("inference.cold_conv_s", "s", "lower"),
    ("inference.cold_sparse_s", "s", "lower"),
    ("inference.legality_s", "s", "lower"),
    ("inference.features_s", "s", "lower"),
    ("inference.predict_s", "s", "lower"),
    ("inference.topk_s", "s", "lower"),
    ("inference.rebench_s", "s", "lower"),
    ("inference.stage_sum_frac", "fraction", "higher"),
    ("inference.legal_points", "count", "lower"),
    ("inference.scored_full", "count", "lower"),
    ("inference.full_score_frac", "fraction", "lower"),
    ("inference.heuristic_s", "s", "lower"),
    ("inference.buffer_growths", "count", "lower"),
    // train
    ("train.dataset_s_per_sample", "s", "lower"),
    ("train.total_s", "s", "lower"),
    ("train.val_mse", "mse", "lower"),
    ("train.model_load_s", "s", "lower"),
    ("train.model_bytes", "bytes", "lower"),
    // cache
    ("cache.get_hit_s", "s", "lower"),
    ("cache.get_miss_s", "s", "lower"),
    ("cache.peek_s", "s", "lower"),
    ("cache.insert_s", "s", "lower"),
    ("cache.insert_evict_s", "s", "lower"),
    ("cache.hit_rate", "fraction", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.save_s_per_entry", "s", "lower"),
    ("cache.load_s_per_entry", "s", "lower"),
    ("cache.bytes_per_entry", "bytes", "lower"),
    // wal
    ("wal.append_s", "s", "lower"),
    ("wal.bytes_per_record", "bytes", "lower"),
    ("wal.decode_s_per_record", "s", "lower"),
    ("wal.compact_s", "s", "lower"),
    ("wal.recover_s_per_record", "s", "lower"),
    ("wal.records_replayed", "count", "lower"),
    ("wal.append_errors", "count", "lower"),
    // sparse
    ("sparse.analyze_s_per_knnz", "s", "lower"),
    ("sparse.space_points", "count", "lower"),
    ("sparse.spmv_gflops", "Gflop/s", "higher"),
    // service / batch
    ("service.submit_hit_s", "s", "lower"),
    ("service.submit_batch_hit_s_per_query", "s", "lower"),
    ("service.submit_miss_return_s", "s", "lower"),
    ("service.miss_overhead_s", "s", "lower"),
    ("service.request_sum_frac", "fraction", "higher"),
    ("service.add_shard_s", "s", "lower"),
    ("service.restore_s_per_entry", "s", "lower"),
    ("service.snapshot_s_per_entry", "s", "lower"),
    ("service.cold_tunes", "count", "lower"),
    ("service.cache_hits", "count", "higher"),
    ("batch.dedup_ratio", "fraction", "higher"),
    // flight / queue / admission / health
    ("flight.led", "count", "lower"),
    ("flight.joined", "count", "higher"),
    ("queue.jobs_run", "count", "lower"),
    ("queue.wait_s_mean", "s", "lower"),
    ("queue.peak_open_tickets", "count", "lower"),
    ("admission.rejected", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.timed_out", "count", "lower"),
    ("health.degraded", "count", "lower"),
    ("service.failed", "count", "lower"),
    // the load generator and the tracer themselves
    ("loadgen.lateness_p99_s", "s", "lower"),
    ("loadgen.idle_spin_frac", "fraction", "lower"),
    ("loadgen.fixture_s", "s", "lower"),
    ("loadgen.round_spread_max", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
];

/// Per-layer counters that must read 0 on every workload.
pub const MUST_BE_ZERO: [&str; 6] = [
    "admission.rejected",
    "service.shed",
    "service.timed_out",
    "health.degraded",
    "service.failed",
    "wal.append_errors",
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {REFERENCE_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::path::Path;

    fn repo_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_tables() {
        assert_eq!(
            repo_file("BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_tables_meet_the_contract() {
        let mut names = HashSet::new();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for (name, unit, better) in &PER_LAYER {
            assert!(ok_name(name) && ok_unit(unit), "{name}");
            assert!(matches!(*better, "lower" | "higher"));
            assert!(names.insert(name), "{name} used twice");
        }
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
            assert!(names.insert(w.name()));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(MUST_BE_ZERO
            .iter()
            .all(|z| PER_LAYER.iter().any(|(n, _, _)| n == z)));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    /// Profiles come from the benchmark's own workspace, so the copy of
    /// the root's `[profile.release]` must stay verbatim.
    #[test]
    fn release_profile_matches_root() {
        fn release_profile(manifest: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        }
        let root = release_profile(&repo_file("Cargo.toml"));
        let own = release_profile(&repo_file("benchmark/Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has a release profile");
        assert_eq!(root, own, "benchmark/Cargo.toml [profile.release] drifted");
    }
}
