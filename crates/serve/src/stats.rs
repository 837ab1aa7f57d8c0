//! Serving counters ([`RouterStats`]) and front-door gauges
//! ([`ServiceStats`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters bumped on the serving hot path.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub queries: AtomicU64,
    pub batches: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cold_tunes: AtomicU64,
    pub coalesced: AtomicU64,
    pub batch_deduped: AtomicU64,
    pub no_shard: AtomicU64,
    pub failed: AtomicU64,
    pub snapshots: AtomicU64,
    pub snapshot_entries: AtomicU64,
    pub snapshot_errors: AtomicU64,
    pub compactions: AtomicU64,
    pub gc_removed: AtomicU64,
    pub recovery_replayed: AtomicU64,
    pub recovery_torn_records: AtomicU64,
    pub recovery_skipped_records: AtomicU64,
    pub degraded: AtomicU64,
    pub breaker_opens: AtomicU64,
    pub breaker_closes: AtomicU64,
    pub quarantines: AtomicU64,
    pub repair_upgrades: AtomicU64,
}

/// Relaxed add on a serving counter.
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl Counters {
    pub fn snapshot(&self) -> RouterStats {
        RouterStats {
            queries: self.queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cold_tunes: self.cold_tunes.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            batch_deduped: self.batch_deduped.load(Ordering::Relaxed),
            no_shard: self.no_shard.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_entries: self.snapshot_entries.load(Ordering::Relaxed),
            snapshot_errors: self.snapshot_errors.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            gc_removed: self.gc_removed.load(Ordering::Relaxed),
            recovery_replayed: self.recovery_replayed.load(Ordering::Relaxed),
            recovery_torn_records: self.recovery_torn_records.load(Ordering::Relaxed),
            recovery_skipped_records: self.recovery_skipped_records.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            repair_upgrades: self.repair_upgrades.load(Ordering::Relaxed),
            // Read live from the per-shard journal writers by
            // `TuneService::stats`; zero through any other entry point.
            wal_appends: 0,
            wal_bytes: 0,
            wal_append_errors: 0,
        }
    }
}

/// A snapshot of the serving counters ([`crate::TuneService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Queries submitted (single and batched).
    pub queries: u64,
    /// `submit_batch` calls.
    pub batches: u64,
    /// Queries answered from a shard's decision cache.
    pub cache_hits: u64,
    /// Cold tunes actually run.
    pub cold_tunes: u64,
    /// Queries coalesced onto a concurrent cold tune (single-flight
    /// joins).
    pub coalesced: u64,
    /// Queries absorbed by in-batch deduplication.
    pub batch_deduped: u64,
    /// Queries addressed to an unregistered device/operation.
    pub no_shard: u64,
    /// Tickets failed without a decision: their shard was removed or
    /// replaced while the query was in flight, or every holder of the
    /// key's tickets dropped before the job started (the flight is
    /// cancelled and its already-dead tickets resolve as failed).
    /// Retry-budget exhaustion no longer lands here -- it quarantines
    /// the key and serves [`crate::Served::Degraded`].
    pub failed: u64,
    /// Interval compaction sweeps that wrote at least one base file
    /// (including the final sweep on shutdown). A sweep compacts only
    /// shards whose state moved, so an idle service stops writing.
    pub snapshots: u64,
    /// Decisions persisted across all counted sweeps (the cumulative
    /// [`crate::SnapshotReport::entries`]).
    pub snapshot_entries: u64,
    /// Interval or shutdown sweeps that failed with an I/O error (the
    /// shards stay dirty and are retried next interval).
    pub snapshot_errors: u64,
    /// Shard compactions completed in durability mode: WAL folded into
    /// the base cache file and truncated
    /// ([`crate::TuneService::enable_durability`]).
    pub compactions: u64,
    /// Stale persistence files deleted: orphans and crashed-compaction
    /// leftovers swept by compaction, plus the files of removed or
    /// replaced shards.
    pub gc_removed: u64,
    /// WAL records replayed by [`crate::TuneService::recover_all`].
    pub recovery_replayed: u64,
    /// Torn or corrupt trailing WAL records truncated (and counted,
    /// never replayed) during recovery.
    pub recovery_torn_records: u64,
    /// Malformed or wrong-operation entries skipped during recovery --
    /// a flaky disk surfaces here instead of as silent cache shrinkage.
    pub recovery_skipped_records: u64,
    /// Queries answered [`crate::Served::Degraded`]: the model-free
    /// heuristic stood in because the shard's breaker was open, the key
    /// was quarantined, or a flight exhausted its retry budget. Zero in
    /// steady state (`check_bench.sh` guards the no-fault bench run).
    pub degraded: u64,
    /// Circuit-breaker trips into `Open` (including failed half-open
    /// probes re-opening).
    pub breaker_opens: u64,
    /// Breakers re-closed after a healthy outcome.
    pub breaker_closes: u64,
    /// Keys newly quarantined after exhausting their retry budget.
    pub quarantines: u64,
    /// Degraded/quarantined keys upgraded to an authoritative cache
    /// entry by a background repair tune.
    pub repair_upgrades: u64,
    /// WAL records appended by the shard journals (durability mode).
    pub wal_appends: u64,
    /// Bytes those appends wrote -- the durability cost per interval,
    /// versus rewriting whole cache files.
    pub wal_bytes: u64,
    /// Journal appends that failed with an I/O error. The publish
    /// itself never fails: the decision stays served from memory and a
    /// later compaction persists it.
    pub wal_append_errors: u64,
}

impl RouterStats {
    /// Fraction of all queries that did *not* need their own resolution:
    /// in-batch duplicates plus single-flight joins.
    pub fn dedup_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.batch_deduped + self.coalesced) as f64 / self.queries as f64
        }
    }
}

/// A snapshot of the async front door's queue and ticket gauges
/// ([`crate::TuneService::service_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Submitted misses whose tickets have not resolved yet.
    pub open_tickets: u64,
    /// High-water mark of `open_tickets` -- the most in-flight misses
    /// the service has multiplexed at once.
    pub peak_open_tickets: u64,
    /// Jobs waiting in the miss queue right now.
    pub queue_depth: u64,
    /// Jobs the worker pool has completed (cold tunes plus leader-side
    /// cache re-peek hits).
    pub jobs_run: u64,
    /// Jobs dropped because their flight was cancelled (shard removal /
    /// replacement / shutdown) before a worker picked them up.
    pub jobs_cancelled: u64,
    /// Jobs re-queued after a tune panicked (see
    /// [`crate::FlightStats::leader_panics`]).
    pub tune_retries: u64,
    /// Flights that spent their whole [`crate::RetryPolicy`] attempt
    /// budget -- distinct from the per-attempt panic count in
    /// [`crate::FlightStats::leader_panics`]. An exhausted flight
    /// quarantines its key and resolves [`crate::Served::Degraded`].
    pub retry_exhausted: u64,
    /// Tickets that resolved [`crate::Served::TimedOut`]: their
    /// deadline expired before the flight landed. The flight itself
    /// keeps running for its other waiters.
    pub timed_out: u64,
    /// Total seconds jobs spent queued before a worker picked them up.
    pub queue_wait_s_total: f64,
    /// Misses refused by per-tenant admission control
    /// ([`crate::Served::Rejected`]). Rejected submits never charge the
    /// queue or the single-flight table.
    pub rejected: u64,
    /// Foreground jobs shed to the background lane because every live
    /// waiter's deadline had already passed when a worker reached them.
    /// Shed jobs still run (and warm the cache) -- just behind all
    /// foreground work.
    pub shed: u64,
    /// Best-effort jobs (demoted tunes + prewarms) waiting in the
    /// background lane right now.
    pub background_depth: u64,
    /// Cache entries seeded by predictive warm-starts
    /// ([`crate::TuneService::prewarm_hot`]).
    pub prewarmed: u64,
    /// Prewarm jobs processed, whether or not they seeded anything (a
    /// stale-shard or already-cached prewarm counts here but not in
    /// `prewarmed`).
    pub prewarm_jobs: u64,
    /// Background repair jobs processed: re-tunes of degraded or
    /// quarantined keys, whether or not they upgraded anything (an
    /// upgrade also counts in [`RouterStats::repair_upgrades`]).
    pub repair_jobs: u64,
    /// Cache hits summed over every registered shard's segmented
    /// decision cache. Unlike [`RouterStats::cache_hits`] (the front
    /// door's count of queries *served* from cache), this aggregates
    /// the caches' own striped per-segment counters, so it also sees
    /// leader re-peeks, prewarm probes and direct tuner traffic. Each
    /// underlying stripe is monotonic; a mid-traffic sum can lag the
    /// true total but never exceeds it, so consecutive
    /// [`ServiceStats::snapshot`] reads never go backwards.
    pub shard_cache_hits: u64,
    /// Cache misses summed over every registered shard's segmented
    /// decision cache (same aggregation and monotonicity guarantees as
    /// [`ServiceStats::shard_cache_hits`]).
    pub shard_cache_misses: u64,
}

impl ServiceStats {
    /// Mean queue latency per executed job (0 when nothing ran).
    pub fn avg_queue_wait_s(&self) -> f64 {
        if self.jobs_run == 0 {
            0.0
        } else {
            self.queue_wait_s_total / self.jobs_run as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_ratio_counts_joins_and_batch_dupes() {
        let s = RouterStats {
            queries: 10,
            batch_deduped: 3,
            coalesced: 2,
            ..Default::default()
        };
        assert!((s.dedup_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(RouterStats::default().dedup_ratio(), 0.0);
    }

    #[test]
    fn avg_queue_wait_handles_idle_pools() {
        assert_eq!(ServiceStats::default().avg_queue_wait_s(), 0.0);
        let s = ServiceStats {
            jobs_run: 4,
            queue_wait_s_total: 2.0,
            ..Default::default()
        };
        assert!((s.avg_queue_wait_s() - 0.5).abs() < 1e-12);
    }
}
