//! Physical plans and their members.
//!
//! The ROADMAP north-star is thousands of near-identical dashboard queries
//! over the same streams. Without sharing, every `add_query` pays for its
//! own input rings, task-queue shard and scheduler row, so engine cost
//! grows O(#queries) even when the queries are copies of one another. The
//! engine therefore separates the *logical* query (id, sink, stats block,
//! ingest gate) from the **physical plan** that executes it, and every
//! registered query is a member of exactly one [`PhysicalPlan`].
//!
//! A plan owns the compiled dispatcher (input rings, task cutter) and the
//! result stage, whose member list fans every released batch out to each
//! member's [`QuerySink`](crate::sink::QuerySink) — ordered, because the
//! result stage appends under its reorder lock. The plan's id is its first
//! member's id; the task queue shard, scheduler counters, throughput-matrix
//! row, placement prior and flight-recorder traces are all keyed by it.
//!
//! # Sharing
//!
//! Queries whose canonical [`PlanFingerprint`]s match (same resolved
//! sources, window specs and operator tree modulo attribute renaming — see
//! `saber_query::fingerprint`) join one plan through the engine's
//! fingerprint map. Joining is O(1) in engine state: no compilation, no
//! ring allocation, no scheduler row — just a member entry. A query without
//! a fingerprint (sharing disabled, or a programmatic query without source
//! names) gets a one-member plan that never enters the map.
//!
//! # Lifecycle
//!
//! The result stage's member list is the refcount. Removing any member —
//! first or not — drains it loss-free, clears its registry slot and
//! detaches it under the map lock; the plan keeps running for the others.
//! The **last** detach retires the plan's queue shard, scheduler counters,
//! matrix row, placement prior and map entry, so a concurrent join either
//! finds a plan with live members or installs a fresh one.
//!
//! Ingest through any member feeds the one physical plan; every member
//! observes the complete result stream from its join onwards, regardless of
//! which handle carried the data. Sharing never changes output bytes —
//! `tests/sharing_equivalence.rs` proves shared runs byte-identical to
//! unshared runs differentially.

use crate::dispatcher::Dispatcher;
use crate::result::ResultStage;
use saber_query::PlanFingerprint;
use std::sync::Arc;

/// One physical plan instance and, through its result stage, its members.
pub(crate) struct PhysicalPlan {
    /// The plan's id: its first member's id. Keys the queue shard,
    /// scheduler counters, throughput-matrix row and placement prior.
    pub(crate) id: usize,
    /// The fingerprint under which the plan sits in the engine's map;
    /// `None` for a plan that can never be joined.
    pub(crate) fingerprint: Option<PlanFingerprint>,
    /// The plan's dispatching stage (input rings and task cutter).
    pub(crate) dispatcher: Arc<Dispatcher>,
    /// The plan's result stage, holding the member list.
    pub(crate) result: Arc<ResultStage>,
}
