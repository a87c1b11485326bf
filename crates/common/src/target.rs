//! The placement-facing name of an execution site: which part of the
//! data-parallel archipelago an analytical query runs on. It lives here,
//! below every crate that speaks of sites, so that tracing can tag a span
//! with its site without depending on the scheduler that chooses it.

use serde::{Deserialize, Serialize};

/// Where an analytical query should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OlapTarget {
    /// Execute on the (single) GPU of the data-parallel archipelago.
    Gpu,
    /// Execute on the CPU cores of the data-parallel archipelago.
    Cpu,
    /// Execute on the multi-GPU site: a table's chunks sharded across
    /// several (possibly heterogeneous) devices that run in parallel.
    MultiGpu,
}

impl OlapTarget {
    /// Human-readable site name for stats and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            OlapTarget::Gpu => "gpu",
            OlapTarget::Cpu => "cpu",
            OlapTarget::MultiGpu => "multi-gpu",
        }
    }
}
