//! Kernel descriptors and per-kernel metrics.
//!
//! A [`KernelDesc`] is the simulator-side description of one CUDA kernel
//! launch: how many elements the grid covers, how much arithmetic each thread
//! does, and which buffers it reads/writes with which access pattern. The
//! device turns this into a simulated execution time; the *work itself* (the
//! actual filter/aggregate over real data) is done by the closure passed to
//! [`crate::GpuDevice::launch`].

use crate::access::AccessPattern;
use crate::memory::BufferId;
use h2tap_common::SimDuration;
use serde::{Deserialize, Serialize};

/// One input buffer read performed by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferRead {
    /// Which buffer is read.
    pub buffer: BufferId,
    /// Useful payload bytes the kernel consumes from this buffer.
    pub useful_bytes: u64,
    /// Access pattern of the read, which determines coalescing efficiency.
    pub pattern: AccessPattern,
}

/// Description of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Kernel name for metrics and experiment output.
    pub name: String,
    /// Number of logical elements the grid processes (one thread per
    /// element, grouped into warps by the executor).
    pub elements: u64,
    /// Floating-point (or integer ALU) operations per element.
    pub flops_per_element: f64,
    /// Input reads.
    pub reads: Vec<BufferRead>,
    /// Bytes written to the output buffer (assumed coalesced; result columns
    /// and aggregates are written sequentially).
    pub write_bytes: u64,
}

impl KernelDesc {
    /// Creates a kernel description with no reads/writes; use the builder
    /// methods to attach them.
    pub fn new(name: impl Into<String>, elements: u64) -> Self {
        Self { name: name.into(), elements, flops_per_element: 1.0, reads: Vec::new(), write_bytes: 0 }
    }

    /// Sets the per-element arithmetic intensity.
    #[must_use]
    pub fn flops_per_element(mut self, flops: f64) -> Self {
        self.flops_per_element = flops;
        self
    }

    /// Adds an input read.
    #[must_use]
    pub fn read(mut self, buffer: BufferId, useful_bytes: u64, pattern: AccessPattern) -> Self {
        self.reads.push(BufferRead { buffer, useful_bytes, pattern });
        self
    }

    /// Sets the output size.
    #[must_use]
    pub fn write(mut self, bytes: u64) -> Self {
        self.write_bytes = bytes;
        self
    }
}

/// What one kernel launch cost, as accounted by the device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct KernelMetrics {
    /// Kernel name.
    pub name: String,
    /// Simulated wall-clock time of the launch (including transfers that the
    /// launch itself triggered, e.g. UM migrations).
    pub time: SimDuration,
    /// Bytes moved across the host-device interconnect by this launch.
    pub interconnect_bytes: u64,
    /// Bytes read from device memory by this launch.
    pub device_mem_bytes: u64,
    /// Time spent on arithmetic (the compute-bound component).
    pub compute_time: SimDuration,
    /// Time spent moving data (the bandwidth-bound component).
    pub memory_time: SimDuration,
    /// Fixed launch overhead.
    pub launch_overhead: SimDuration,
}

impl KernelMetrics {
    /// Whether this launch was limited by data movement rather than
    /// arithmetic — true for every scan-like database kernel in the paper.
    pub fn is_memory_bound(&self) -> bool {
        self.memory_time >= self.compute_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_reads() {
        let d = KernelDesc::new("scan", 1000)
            .flops_per_element(2.0)
            .read(BufferId(0), 4000, AccessPattern::Sequential)
            .read(BufferId(1), 8000, AccessPattern::Sequential)
            .write(100);
        assert_eq!(d.reads.len(), 2);
        assert_eq!(d.write_bytes, 100);
        assert_eq!(d.flops_per_element, 2.0);
    }

    #[test]
    fn memory_bound_classification() {
        let m = KernelMetrics {
            compute_time: SimDuration::from_micros(10),
            memory_time: SimDuration::from_micros(50),
            ..KernelMetrics::default()
        };
        assert!(m.is_memory_bound());
        let c = KernelMetrics {
            compute_time: SimDuration::from_micros(100),
            memory_time: SimDuration::from_micros(50),
            ..KernelMetrics::default()
        };
        assert!(!c.is_memory_bound());
    }
}
