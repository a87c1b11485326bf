//! The OLAP placement scheduler.
//!
//! "Archipelagos are resource containers defined by a set of processor cores
//! and a target workload." The containers are fixed at engine start: the
//! OLTP workers on one side, the CPU cores granted to the OLAP CPU site and
//! the GPUs on the other. This crate decides where an analytical query runs
//! (the CPU site or the GPU) from a locality- and size-aware cost heuristic
//! over the sites' enumerated capabilities, and keeps that heuristic
//! calibrated against measured site times — the role Figure 2 assigns to the
//! scheduler box.

#![forbid(unsafe_code)]
// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]
// Result-crate lint (engine, olap, scheduler, storage, common, workloads):
// std `HashMap`/`HashSet` iterate in a per-process random order, so the
// crates whose output must be bit-identical run by run do not use them.
#![warn(clippy::disallowed_types)]

pub mod calibration;
pub mod placement;

pub use calibration::{
    CalibrationReport, CostCalibrator, CostModel, PlacementExplanation, PlacementObservation, RegretSummary,
    SiteCalibration, SiteSecsEstimate, RECENT_PLACEMENTS_CAP,
};
pub use placement::{
    cpu_term_secs, estimate_site_secs, estimate_target_secs, gpu_footprint_blocks, gpu_site_stream_feature,
    min_free_shard_bytes, overlap_secs, place_olap_query_sites, GpuDeviceCapability, OlapTarget, PlacementHints,
    SiteCapability, CPU_CACHE_LINE_BYTES, DEFAULT_GPU_DISPATCH_OVERHEAD_SECS, GPU_SCRATCH_HEADROOM_BYTES,
};
