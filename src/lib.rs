//! Umbrella crate for the Caldera H2TAP reproduction.
//!
//! This crate only re-exports the workspace members so that the repository's
//! top-level `examples/` and `tests/` can exercise the whole system through
//! one dependency. Applications should depend on the individual crates
//! (`caldera`, `h2tap-storage`, ...) directly.

#![forbid(unsafe_code)]

pub use caldera;
pub use h2tap_baselines as baselines;
pub use h2tap_bench as bench;
pub use h2tap_common as common;
pub use h2tap_gpu_sim as gpu_sim;
pub use h2tap_mpmsg as mpmsg;
pub use h2tap_olap as olap;
pub use h2tap_oltp as oltp;
pub use h2tap_scheduler as scheduler;
pub use h2tap_storage as storage;
pub use h2tap_workloads as workloads;
