//! Shared primitives for the Caldera H2TAP engine.
//!
//! This crate holds the small, dependency-free building blocks every other
//! crate in the workspace uses:
//!
//! * [`value`] — scalar values and column types,
//! * [`breakdown`] — per-query execution-time breakdowns (cost-model terms),
//! * [`schema`] — table schemas and attribute descriptors,
//! * [`rid`] — record, partition and table identifiers,
//! * [`epoch`] — epoch numbers used by the shadow-copy snapshot mechanism,
//! * [`query`] — the scan-and-aggregate query IR,
//! * [`plan`] — the relational logical plan (filter / hash join / group-by),
//! * [`target`] — the placement-facing name of an execution site,
//! * [`simtime`] — the simulated-time type used by the hardware models,
//! * [`stats`] — streaming statistics (mean/min/max/percentiles),
//! * [`rng`] — a small deterministic PRNG plus a Zipfian generator,
//! * [`error`] — the shared error type.

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod epoch;
pub mod error;
pub mod plan;
pub mod query;
pub mod rid;
pub mod rng;
pub mod schema;
pub mod simtime;
pub mod stats;
pub mod target;
pub mod value;

pub use breakdown::ExecBreakdown;
pub use epoch::Epoch;
pub use error::{FaultKind, H2Error, Result};
pub use plan::{chunk_shard, GroupRow, JoinSpec, OlapPlan, PlanColumn, HASH_ENTRY_BYTES, PLAN_CHUNK_ROWS};
pub use query::{AggExpr, Predicate, ScanAggQuery};
pub use rid::{PartitionId, RecordId, TableId};
pub use schema::{AttrType, Attribute, Schema};
pub use simtime::SimDuration;
pub use stats::{Histogram, PlanCacheCounters, PlanCacheGauges, PlanCacheStats};
pub use target::OlapTarget;
pub use value::Value;
