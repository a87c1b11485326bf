//! A software model of general-purpose GPUs (GPGPUs) for the Caldera H2TAP
//! engine.
//!
//! The paper's data-parallel archipelago runs analytical kernels on NVIDIA
//! GPUs (a Fermi Tesla M2090 and a Maxwell GTX 980) and relies on three
//! CUDA-era capabilities: explicit host/device copies (`memcpy`), Unified
//! Virtual Addressing (UVA, zero-copy access to host memory over PCIe), and
//! Unified Memory (UM, automatic page migration into device memory). No GPU
//! is available in this environment, so this crate reproduces the *behaviour*
//! that shapes the paper's results in software:
//!
//! * a device catalogue with the processing power, memory capacity and
//!   interconnect bandwidth of each GPU generation (Table 1),
//! * a memory manager that tracks device allocations, UVA mappings and the
//!   page residency of UM allocations,
//! * a SIMT execution model (grids, blocks, warps) with a **memory
//!   coalescing** analyser that penalises strided access patterns,
//! * an analytical cost model that converts the bytes a kernel touches, where
//!   they live, and how they are accessed into a simulated execution time.
//!
//! Kernels execute real Rust closures over real data, so every query result
//! computed "on the GPU" is exact; only the reported time is simulated.

#![forbid(unsafe_code)]

pub mod access;
pub mod catalog;
pub mod device;
pub mod fault;
pub mod interconnect;
pub mod kernel;
pub mod memory;

pub use access::{coalescing_efficiency, AccessPattern};
pub use catalog::{table1_catalog, table1_mix, GpuArchitecture, GpuSpec};
pub use device::{GpuDevice, KernelRun, TransferDirection, DEVICE_TRANSACTION_BYTES};
pub use fault::{DeviceLossPoint, FaultDecision, FaultInjector, FaultPlan};
pub use interconnect::{Interconnect, InterconnectKind};
pub use kernel::{BufferRead, KernelDesc, KernelMetrics};
pub use memory::{AccessMode, BufferId, MemoryManager, Residency};
