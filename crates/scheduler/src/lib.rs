//! The archipelago scheduler.
//!
//! "Archipelagos are resource containers defined by a set of processor cores
//! and a target workload." The scheduler owns core–archipelago membership,
//! supports on-the-fly migration of CPU cores between the task-parallel
//! (OLTP) and data-parallel (OLAP) archipelagos, keeps utilisation
//! statistics, and decides where an analytical query should run (CPU cores of
//! the data-parallel archipelago or the GPU) from a simple locality- and
//! size-aware cost heuristic — the role Figure 2 assigns to the scheduler
//! box.

#![forbid(unsafe_code)]
// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]

pub mod archipelago;
pub mod calibration;
pub mod placement;

pub use archipelago::{Archipelago, ArchipelagoKind, Scheduler};
pub use calibration::{
    CalibrationConfig, CalibrationReport, CostCalibrator, CostModel, PlacementExplanation, PlacementObservation,
    RegretSummary, SiteCalibration, SiteSecsEstimate, RECENT_PLACEMENTS_CAP,
};
pub use placement::{
    cpu_term_secs, estimate_site_secs, estimate_target_secs, gpu_footprint_blocks, gpu_site_stream_feature,
    min_free_shard_bytes, overlap_secs, place_olap_query_sites, GpuDeviceCapability, OlapTarget, PlacementHints,
    SiteCapability, CPU_CACHE_LINE_BYTES, DEFAULT_GPU_DISPATCH_OVERHEAD_SECS, GPU_SCRATCH_HEADROOM_BYTES,
};
