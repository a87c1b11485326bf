//! Device memory management: allocations, residency and access modes.
//!
//! The memory manager mirrors the three ways the paper's microbenchmarks make
//! host data visible to GPU kernels:
//!
//! * **Memcpy** — the buffer lives in pageable host memory and must be copied
//!   into a device allocation before a kernel can touch it.
//! * **UVA** — Unified Virtual Addressing: the buffer stays in host memory
//!   and kernels read it over the interconnect, zero-copy.
//! * **UM** — Unified Memory: the CUDA runtime migrates pages on demand; the
//!   first kernel that touches a page pays the migration, later kernels read
//!   it at device-memory bandwidth.

use crate::catalog::GpuSpec;
use h2tap_common::{H2Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Handle to a buffer registered with a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub u64);

/// How a host allocation is exposed to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// Explicit host/device copies over the interconnect.
    Memcpy,
    /// Zero-copy access to host memory (Unified Virtual Addressing).
    Uva,
    /// Unified Memory with on-demand page migration.
    UnifiedMemory,
}

/// Where the bytes of a buffer currently live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Residency {
    /// Entirely in device memory (explicit allocation or fully migrated UM).
    Device,
    /// In host memory, accessed over the interconnect (UVA).
    HostUva,
    /// Unified Memory: pages migrate on first touch. Tracks which pages are
    /// currently resident on the device.
    HostUm {
        /// Number of device-resident pages.
        resident_pages: u64,
        /// Total number of pages in the allocation.
        total_pages: u64,
    },
}

/// One registered buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferInfo {
    /// Size of the allocation in bytes.
    pub bytes: u64,
    /// Current residency.
    pub residency: Residency,
    /// Debug label ("lineitem.l_extendedprice", ...).
    pub label: String,
}

/// Tracks device memory usage and buffer residency for one GPU.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    capacity_bytes: u64,
    used_bytes: u64,
    page_bytes: u64,
    um_oversubscription: bool,
    next_id: u64,
    buffers: BTreeMap<BufferId, BufferInfo>,
}

/// Unified Memory migration granularity: 64 KiB, the fault granularity the
/// CUDA driver uses for pre-Pascal prefetching and a realistic page size for
/// the Pascal fault path.
pub const UM_PAGE_BYTES: u64 = 64 * 1024;

impl MemoryManager {
    /// Creates a manager for a device with the given spec.
    pub fn new(spec: &GpuSpec) -> Self {
        Self {
            capacity_bytes: spec.mem_capacity_bytes(),
            used_bytes: 0,
            page_bytes: UM_PAGE_BYTES,
            um_oversubscription: spec.architecture.supports_um_oversubscription(),
            next_id: 0,
            buffers: BTreeMap::new(),
        }
    }

    /// Device memory capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Device memory currently allocated (explicit allocations plus resident
    /// UM pages).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Device memory still available for allocations — the headroom the
    /// placement heuristic checks a plan's hash-table footprint against.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// UM page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    fn fresh_id(&mut self) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Registers a buffer according to `mode`. `Memcpy` and `UnifiedMemory`
    /// without oversubscription require the allocation to fit in device
    /// memory; `Uva` buffers never consume device memory.
    pub fn register(&mut self, label: impl Into<String>, bytes: u64, mode: AccessMode) -> Result<BufferId> {
        let label = label.into();
        let residency = match mode {
            AccessMode::Memcpy => {
                self.reserve(bytes)?;
                Residency::Device
            }
            AccessMode::Uva => Residency::HostUva,
            AccessMode::UnifiedMemory => {
                if !self.um_oversubscription && bytes > self.capacity_bytes {
                    return Err(H2Error::GpuOutOfMemory {
                        requested_bytes: bytes,
                        capacity_bytes: self.capacity_bytes,
                    });
                }
                Residency::HostUm { resident_pages: 0, total_pages: bytes.div_ceil(self.page_bytes).max(1) }
            }
        };
        let id = self.fresh_id();
        self.buffers.insert(id, BufferInfo { bytes, residency, label });
        Ok(id)
    }

    /// Registers a buffer that is *already* resident in device memory (the
    /// Figure 11 experiment stores the whole dataset on the GPU).
    pub fn register_device_resident(&mut self, label: impl Into<String>, bytes: u64) -> Result<BufferId> {
        self.reserve(bytes)?;
        let id = self.fresh_id();
        self.buffers.insert(id, BufferInfo { bytes, residency: Residency::Device, label: label.into() });
        Ok(id)
    }

    fn reserve(&mut self, bytes: u64) -> Result<()> {
        if self.used_bytes + bytes > self.capacity_bytes {
            return Err(H2Error::GpuOutOfMemory {
                requested_bytes: bytes,
                capacity_bytes: self.capacity_bytes - self.used_bytes,
            });
        }
        self.used_bytes += bytes;
        Ok(())
    }

    /// Returns buffer metadata.
    pub fn info(&self, id: BufferId) -> Result<&BufferInfo> {
        self.buffers.get(&id).ok_or_else(|| H2Error::InvalidKernel(format!("unknown buffer {id:?}")))
    }

    /// Frees a buffer, releasing any device memory it held.
    pub fn free(&mut self, id: BufferId) -> Result<()> {
        let info = self.buffers.remove(&id).ok_or_else(|| H2Error::InvalidKernel(format!("unknown buffer {id:?}")))?;
        match info.residency {
            Residency::Device => self.used_bytes = self.used_bytes.saturating_sub(info.bytes),
            Residency::HostUm { resident_pages, .. } => {
                self.used_bytes = self.used_bytes.saturating_sub(resident_pages * self.page_bytes);
            }
            Residency::HostUva => {}
        }
        Ok(())
    }

    /// Records that a kernel touched `touched_bytes` of a UM buffer and
    /// returns how many bytes had to be migrated from the host (i.e. the
    /// pages that were not yet resident). For non-UM buffers this is a no-op
    /// returning 0.
    pub fn touch_um(&mut self, id: BufferId, touched_bytes: u64) -> Result<u64> {
        let page_bytes = self.page_bytes;
        let capacity = self.capacity_bytes;
        let mut newly_used = 0u64;
        let migrated = {
            let info =
                self.buffers.get_mut(&id).ok_or_else(|| H2Error::InvalidKernel(format!("unknown buffer {id:?}")))?;
            match &mut info.residency {
                Residency::HostUm { resident_pages, total_pages } => {
                    let touched_pages = touched_bytes.div_ceil(page_bytes).min(*total_pages);
                    let new_pages = touched_pages.saturating_sub(*resident_pages);
                    // Oversubscribed allocations evict rather than grow past
                    // capacity; the eviction itself is charged by the device
                    // model as additional traffic, we just cap residency here.
                    let max_resident_pages = capacity / page_bytes;
                    *resident_pages = (*resident_pages + new_pages).min(*total_pages).min(max_resident_pages);
                    newly_used = new_pages.min(max_resident_pages.saturating_sub(0)) * page_bytes;
                    new_pages * page_bytes
                }
                _ => 0,
            }
        };
        self.used_bytes = (self.used_bytes + newly_used).min(self.capacity_bytes + migrated);
        Ok(migrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GpuSpec;

    fn maxwell() -> MemoryManager {
        MemoryManager::new(&GpuSpec::gtx_980())
    }

    #[test]
    fn device_allocation_respects_capacity() {
        let mut m = maxwell();
        let cap = m.capacity_bytes();
        assert!(m.register("big", cap + 1, AccessMode::Memcpy).is_err());
        let id = m.register("fits", cap / 2, AccessMode::Memcpy).unwrap();
        assert_eq!(m.used_bytes(), cap / 2);
        m.free(id).unwrap();
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn uva_buffers_use_no_device_memory() {
        let mut m = maxwell();
        let _ = m.register("host", 16 << 30, AccessMode::Uva).unwrap();
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn um_on_maxwell_cannot_oversubscribe() {
        let mut m = maxwell();
        let cap = m.capacity_bytes();
        assert!(m.register("um-too-big", cap * 2, AccessMode::UnifiedMemory).is_err());
        assert!(m.register("um-ok", cap / 2, AccessMode::UnifiedMemory).is_ok());
    }

    #[test]
    fn um_on_pascal_can_oversubscribe() {
        let mut m = MemoryManager::new(&GpuSpec::gtx_1080_ti());
        let cap = m.capacity_bytes();
        assert!(m.register("um-big", cap * 2, AccessMode::UnifiedMemory).is_ok());
    }

    #[test]
    fn um_touch_migrates_once() {
        let mut m = maxwell();
        let bytes = 128 * UM_PAGE_BYTES;
        let id = m.register("um", bytes, AccessMode::UnifiedMemory).unwrap();
        let first = m.touch_um(id, bytes).unwrap();
        assert_eq!(first, bytes);
        let second = m.touch_um(id, bytes).unwrap();
        assert_eq!(second, 0, "already-resident pages must not migrate again");
    }

    #[test]
    fn touch_um_is_noop_for_other_modes() {
        let mut m = maxwell();
        let id = m.register("uva", 1 << 20, AccessMode::Uva).unwrap();
        assert_eq!(m.touch_um(id, 1 << 20).unwrap(), 0);
    }

    #[test]
    fn free_unknown_buffer_errors() {
        let mut m = maxwell();
        assert!(m.free(BufferId(99)).is_err());
        assert!(m.info(BufferId(99)).is_err());
    }

    #[test]
    fn device_resident_registration_tracks_usage() {
        let mut m = maxwell();
        let id = m.register_device_resident("gpu-table", 1 << 30).unwrap();
        assert_eq!(m.used_bytes(), 1 << 30);
        assert_eq!(m.info(id).unwrap().residency, Residency::Device);
    }
}
