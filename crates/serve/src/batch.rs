//! Query/decision types of the serving front door, and in-batch
//! deduplication.
//!
//! A [`Query`] names a device shard and an input shape; the service
//! resolves it to a [`Decision`]. [`plan`] computes the dedup structure
//! of a batch: duplicate queries (same [`TuneKey`], i.e. same device,
//! operation, dtype and shape) are resolved once and fanned back out to
//! every position, so a batch with heavy repetition costs one resolution
//! per *unique* key.

use isaac_core::{KeyShape, OpKind, SparseShape, TuneKey, TunedChoice};
use isaac_gen::shapes::{ConvShape, GemmShape};
use std::collections::HashMap;

/// The input of one tuning query: any op family's shape, in the
/// op-agnostic currency the core tuner keys on. The serving layer never
/// matches on the variants -- keys, operation kinds and cold tunes all
/// come from [`KeyShape`]'s own methods and the core's op-family
/// registry, so a new operation flows through untouched.
pub type QueryShape = KeyShape;

/// One tuning query addressed to a device shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Target device ordinal.
    pub device: u16,
    /// Input shape to tune.
    pub shape: QueryShape,
}

impl Query {
    /// A query for any op family's shape on a device shard.
    pub fn new(device: u16, shape: QueryShape) -> Self {
        Query { device, shape }
    }

    /// A GEMM query for a device shard.
    pub fn gemm(device: u16, shape: GemmShape) -> Self {
        Query::new(device, KeyShape::Gemm(shape))
    }

    /// A CONV query for a device shard.
    pub fn conv(device: u16, shape: ConvShape) -> Self {
        Query::new(device, KeyShape::Conv(shape))
    }

    /// A sparse query for a device shard.
    pub fn sparse(device: u16, shape: SparseShape) -> Self {
        Query::new(device, KeyShape::Sparse(shape))
    }

    /// The cache/flight key this query resolves to.
    pub fn key(&self) -> TuneKey {
        self.shape.key().on_device(self.device)
    }

    /// The operation this query needs a tuner for.
    pub fn op(&self) -> OpKind {
        self.shape.kind()
    }
}

/// How a decision was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Answered from the shard's decision cache.
    Cache,
    /// This query ran the cold tune.
    Tuned,
    /// Coalesced onto a cold tune for the same key run by someone else:
    /// a single-flight join, or an in-batch duplicate of a cold query.
    Coalesced,
    /// No shard is registered for the query's device/operation.
    NoShard,
    /// The query was accepted but never resolved to a decision: its
    /// shard was removed or replaced while the tune was in flight, or
    /// the service shut down. `choice` is always `None`.
    Failed,
    /// Served by the op family's model-free heuristic fallback
    /// ([`isaac_core::IsaacTuner::heuristic_shape`]) because the tuned path is
    /// unhealthy: the shard's circuit breaker is open, the key is
    /// quarantined after repeated tune faults, or this flight exhausted
    /// its retry budget. `choice` carries the heuristic configuration
    /// (zeroed measurement fields) unless no configuration is legal at
    /// all; the decision is *not* published to the cache -- a
    /// background repair job re-tunes the key and upgrades it once the
    /// shard is healthy (see `docs/RESILIENCE.md`).
    Degraded,
    /// The caller's deadline expired before the decision landed
    /// ([`crate::TuneTicket::wait_timeout`], or a deadline baked in via
    /// [`crate::TuneService::submit_with`]). Only *this* ticket gives
    /// up: the flight keeps running for its other waiters and still
    /// publishes into the decision cache. `choice` is always `None`.
    TimedOut,
    /// Admission control refused the miss: the submitting tenant
    /// ([`crate::SubmitOptions::tenant`]) was already at its in-flight
    /// quota. The key's single-flight is untouched -- a within-quota
    /// waiter for the same key still receives the decision -- and the
    /// rejection is counted in [`crate::ServiceStats::rejected`].
    /// `choice` is always `None`.
    Rejected,
}

/// The outcome of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The selected kernel, or `None` if unservable (no shard, or no
    /// legal configuration).
    pub choice: Option<TunedChoice>,
    /// How the answer was produced.
    pub served: Served,
}

/// The dedup structure of a batch: which positions are first occurrences
/// of their key, and which unique resolution each position maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Indices into the batch of the first occurrence of each unique
    /// key, in batch order.
    pub uniques: Vec<usize>,
    /// The key of each unique (aligned with `uniques`), so the serving
    /// hot path reuses the keys the dedup pass already derived.
    pub keys: Vec<TuneKey>,
    /// For every batch position, the index into `uniques` that resolves
    /// it.
    pub slot_of: Vec<usize>,
}

impl BatchPlan {
    /// Queries absorbed by in-batch deduplication.
    pub fn deduped(&self) -> usize {
        self.slot_of.len() - self.uniques.len()
    }
}

/// Group a batch by [`TuneKey`]; see [`BatchPlan`].
pub fn plan(queries: &[Query]) -> BatchPlan {
    let mut slot_by_key: HashMap<TuneKey, usize> = HashMap::new();
    let mut uniques = Vec::new();
    let mut keys = Vec::new();
    let mut slot_of = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let key = q.key();
        let slot = *slot_by_key.entry(key).or_insert_with(|| {
            uniques.push(i);
            keys.push(key);
            uniques.len() - 1
        });
        slot_of.push(slot);
    }
    BatchPlan {
        uniques,
        keys,
        slot_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isaac_device::DType;

    fn q(device: u16, m: u32) -> Query {
        Query::gemm(device, GemmShape::new(m, 64, 64, "N", "T", DType::F32))
    }

    #[test]
    fn plan_dedupes_by_key_keeping_first_occurrences() {
        let batch = [q(0, 128), q(0, 256), q(0, 128), q(1, 128), q(0, 256)];
        let plan = plan(&batch);
        assert_eq!(plan.uniques, vec![0, 1, 3], "device 1 is a distinct key");
        assert_eq!(plan.slot_of, vec![0, 1, 0, 2, 1]);
        assert_eq!(plan.deduped(), 2);
    }

    #[test]
    fn plan_of_distinct_queries_is_identity() {
        let batch = [q(0, 1), q(0, 2), q(0, 3)];
        let plan = plan(&batch);
        assert_eq!(plan.uniques, vec![0, 1, 2]);
        assert_eq!(plan.slot_of, vec![0, 1, 2]);
        assert_eq!(plan.deduped(), 0);
    }

    #[test]
    fn plan_of_empty_batch_is_empty() {
        let plan = plan(&[]);
        assert!(plan.uniques.is_empty() && plan.slot_of.is_empty());
        assert_eq!(plan.deduped(), 0);
    }

    #[test]
    fn gemm_and_conv_queries_key_correctly() {
        let g = q(3, 128);
        assert_eq!(g.key().device, 3);
        let c = Query::conv(5, ConvShape::from_output(8, 7, 7, 64, 64, 3, 3, DType::F32));
        assert_eq!(c.key().device, 5);
        assert_ne!(g.key(), c.key());
    }
}
