//! Sharded, async-first serving front-end for ISAAC tuners.
//!
//! `isaac-core`'s query engine answers one tuning query on one tuner;
//! this crate turns a set of trained tuners into a **service**:
//!
//! * [`TuneService`] is the front door: [`TuneService::submit`] returns
//!   a [`TuneTicket`] immediately (hits resolve inline, misses enqueue
//!   on a worker pool), and tickets are pollable -- `try_get`, blocking
//!   `wait`, or a [`std::task::Waker`]-compatible `poll` / `Future`
//!   impl, so one OS thread can multiplex many in-flight queries
//!   without this crate depending on an executor;
//! * [`SingleFlight`] coalesces concurrent misses for the same
//!   [`isaac_core::TuneKey`] by registering waker/callback waiters:
//!   exactly one cold tune runs per contended key, and every ticket on
//!   the key receives the identical decision;
//! * shard lifecycle is part of the API: [`TuneService::add_shard`] /
//!   [`TuneService::remove_shard`] / [`TuneService::replace_shard`]
//!   hot-swap devices (a removed shard *fails* its pending tickets
//!   rather than stranding them), and [`TuneService::warm_start`] seeds
//!   a fresh shard from a neighbour's decisions;
//! * the fleet persists its caches one way: [`TuneService::enable_durability`]
//!   journals every decision to a per-shard write-ahead log as it is
//!   published and compacts the logs into base files on an interval
//!   (plus once on shutdown), and [`TuneService::recover_all`] boots
//!   the next process from them ([`durability`] has the protocol).
//!   [`TuneService::snapshot_all`] exports the same base files to
//!   another directory and [`TuneService::restore_all`] reads them back
//!   through `recover_all`;
//! * the fleet maintains its own cache lifecycle:
//!   [`TuneService::submit_with`] bounds a ticket with a deadline
//!   ([`Served::TimedOut`]), fully-dropped pre-start tickets cancel
//!   their queued job, and shard caches evict cost-aware
//!   ([`isaac_core::EvictionPolicy`]) so expensive-to-re-tune
//!   decisions survive capacity pressure;
//! * the front door is **SLO-aware**: per-tenant admission quotas
//!   ([`TuneService::set_admission_quota`], [`SubmitOptions::tenant`],
//!   [`Served::Rejected`]) bound each tenant's misses in flight,
//!   queued tunes whose waiters all timed out are shed to a
//!   lower-priority background lane, and
//!   [`TuneService::prewarm_hot`] pre-seeds neighbour shards with
//!   trending-hot decisions; the [`load`] module replays deterministic
//!   multi-tenant traces against all of it;
//! * the fleet **self-heals**: a circuit breaker per shard
//!   ([`TuneService::breaker_state`], [`BreakerConfig`]) and a
//!   poison-key quarantine ([`TuneService::is_quarantined`],
//!   [`QuarantineConfig`]) keep a sick fleet answering with a
//!   model-free heuristic ([`Served::Degraded`] -- never cached or
//!   journaled) while background repairs upgrade each degraded key to
//!   a real tuned decision; faults inject deterministically through
//!   the [`TuneFault`] seam ([`FaultTuner`]) for the seeded serving
//!   chaos suite.
//!
//! Decision caches are the size-bounded LRU [`isaac_core::TuneCache`]s
//! owned by each tuner; `cargo bench -p isaac-bench --bench serving`
//! tracks batched throughput, in-flight multiplexing and queue latency
//! in `BENCH_serving.json`. See `crates/serve/README.md` for the
//! architecture sketch.

pub(crate) mod admission;
pub mod batch;
pub mod durability;
pub mod fault;
pub mod health;
pub mod load;
pub mod service;
pub mod single_flight;
pub mod stats;
pub mod ticket;
pub(crate) mod workers;

pub use admission::TenantStats;
pub use batch::{plan, BatchPlan, Decision, Query, QueryShape, Served};
pub use durability::{parse_wal_file_name, wal_file_name};
pub use fault::{FaultKind, FaultTuner, TuneFault};
pub use health::{BreakerConfig, BreakerState, QuarantineConfig};
pub use load::{LoadReport, LoadRequest, ReplayOptions, TenantLoad, Trace, TraceConfig};
pub use service::{
    parse_snapshot_file_name, snapshot_file_name, RetryPolicy, SnapshotReport, SubmitOptions,
    TuneService,
};
pub use single_flight::{FlightId, FlightStats, Role, SingleFlight, Waiter};
pub use stats::{RouterStats, ServiceStats};
pub use ticket::TuneTicket;
