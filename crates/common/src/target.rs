//! The placement-facing name of an execution site: which part of the
//! data-parallel archipelago an analytical query runs on. It lives here,
//! below every crate that speaks of sites, so that tracing can tag a span
//! with its site without depending on the scheduler that chooses it.

use serde::{Deserialize, Serialize};

/// Where an analytical query should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OlapTarget {
    /// Execute on the GPUs of the data-parallel archipelago: one device or
    /// a (possibly heterogeneous) mix that shards every table's chunks.
    Gpu,
    /// Execute on the CPU cores of the data-parallel archipelago.
    Cpu,
}

impl OlapTarget {
    /// Human-readable site name for stats and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            OlapTarget::Gpu => "gpu",
            OlapTarget::Cpu => "cpu",
        }
    }
}
