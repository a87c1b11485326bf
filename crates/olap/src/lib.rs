//! Caldera's OLAP runtime: analytical queries on the data-parallel
//! archipelago.
//!
//! Analytical queries always run against an immutable [`h2tap_storage::Snapshot`]
//! on one of the [`site::ExecutionSite`]s: kernel-at-a-time on the simulated
//! GPU ([`engine::GpuOlapEngine`]), vectorised-scan on the archipelago's
//! CPU cores ([`cpu::CpuOlapEngine`]), or chunk-sharded across a device mix
//! ([`multi_gpu::MultiGpuOlapEngine`]). The engine picks the site per query
//! with [`h2tap_scheduler::place_olap_query_sites`] from live placement
//! hints and the capabilities the sites enumerate.
//! Users trade freshness for performance by choosing how many queries share
//! one snapshot ([`policy::SnapshotPolicy`]), which is the knob behind
//! Figures 5-7 of the paper.

#![deny(unsafe_code)]

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
pub use cpu::{CpuOlapEngine, CpuOlapResult, CpuPlanResult, CpuScanProfile, CpuSpec};
pub use engine::{DataPlacement, GpuOlapEngine, OlapOutcome, PlanOutcome, RegisteredTable};
pub use multi_gpu::{shard_chunk_indexes, shard_rows, MultiGpuOlapEngine};
pub use operators::{merge_scan_partials, JoinHashTable, MaterializedColumns, ScanChunkPartial, VECTOR_BATCH_ROWS};
pub use policy::SnapshotPolicy;
pub use site::ExecutionSite;
