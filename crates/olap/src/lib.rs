//! Caldera's OLAP runtime: analytical queries on the data-parallel
//! archipelago.
//!
//! Analytical queries always run against an immutable [`h2tap_storage::Snapshot`]
//! on a [`Site`]: kernel-at-a-time on simulated GPUs ([`Site::gpu`] and
//! [`Site::sharded`] — one code path serving the single GPU and the
//! chunk-sharded device mix, which differ only in how many devices the
//! constructor is given) or vectorised-scan on the archipelago's CPU cores
//! ([`Site::cpu`]). Every site answers through the same data path and
//! differs only in what it charges ([`site`]). The engine picks the site per
//! query with [`h2tap_scheduler::place_olap_query_sites`] from live placement
//! hints and the capabilities the sites enumerate.
//! Users trade freshness for performance by choosing how many queries share
//! one snapshot ([`policy::SnapshotPolicy`]), which is the knob behind
//! Figures 5-7 of the paper.

#![deny(unsafe_code)]
// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]

pub mod cache;
pub mod cpu;
pub mod engine;
pub mod multi_gpu;
pub mod operators;
pub mod policy;
mod pool;
mod simd;
pub mod site;

pub use cache::PlanDataCache;
pub use cpu::{CpuScanProfile, CpuSpec};
pub use engine::{DataPlacement, OlapOutcome, PlanOutcome};
pub use multi_gpu::{shard_chunk_indexes, shard_rows};
pub use operators::{merge_scan_partials, JoinHashTable, MaterializedColumns, ScanChunkPartial, VECTOR_BATCH_ROWS};
pub use policy::SnapshotPolicy;
pub use site::{CpuOlapEngine, Site};
