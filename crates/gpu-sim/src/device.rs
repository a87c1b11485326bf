//! The simulated GPU device: kernel launches, transfers and accounting.
//!
//! [`GpuDevice`] glues the catalogue, memory manager, coalescing model and
//! interconnect model together. Its central operation is [`GpuDevice::launch`]:
//! given a [`KernelDesc`] and a closure that performs the real computation on
//! the host, it executes the closure (so results are exact), charges the cost
//! model, and returns both the result and the per-launch [`KernelMetrics`].
//!
//! Cost model in one paragraph: a launch pays a fixed launch overhead, a
//! compute term (`elements * flops / device GFLOPS`), and a memory term.
//! The memory term depends on where each input buffer lives: device-resident
//! buffers are read at device-memory bandwidth with the architecture-capped
//! coalescing penalty; UVA buffers are streamed over the interconnect with
//! the raw coalescing penalty (every wasted byte crosses the bus — this is
//! why NSM is 10-20x slower than DSM in Figure 10); Unified Memory buffers
//! migrate untouched pages over the interconnect on first touch and are read
//! at device bandwidth afterwards (the Figure 1 warm-query effect). Compute
//! and memory overlap, so the launch costs the maximum of the two, plus any
//! non-overlappable page-migration time.

use crate::access::AccessPattern;
use crate::catalog::GpuSpec;
use crate::fault::{FaultDecision, FaultInjector};
use crate::kernel::{KernelDesc, KernelMetrics};
use crate::memory::{AccessMode, BufferId, MemoryManager, Residency};
use h2tap_common::{H2Error, Result, SimDuration};

/// Direction of an explicit transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// Host to device (input copy).
    HostToDevice,
    /// Device to host (result copy).
    DeviceToHost,
}

/// Result of one kernel launch: the value computed by the host closure plus
/// the simulated cost.
#[derive(Debug, Clone)]
pub struct KernelRun<R> {
    /// The real result of the computation.
    pub result: R,
    /// Simulated cost of the launch.
    pub metrics: KernelMetrics,
}

/// Device-memory transaction size used by the coalescing model (one L2
/// cache-line-sized transaction per warp segment). Public so cost heuristics
/// outside the simulator (e.g. the scheduler's placement model) can reason
/// about the waste per random access without replaying a kernel.
pub const DEVICE_TRANSACTION_BYTES: u64 = 128;

/// Fixed cost of launching one kernel (driver + queue + scheduling).
const LAUNCH_OVERHEAD: SimDuration = SimDuration::from_micros(8);

/// Per-page overhead of a Unified Memory fault + migration.
const UM_FAULT_OVERHEAD_NANOS: u64 = 1_000;

/// A simulated GPU.
#[derive(Debug)]
pub struct GpuDevice {
    spec: GpuSpec,
    memory: MemoryManager,
    total_time: SimDuration,
    total_interconnect_bytes: u64,
    kernels_launched: u64,
    kernel_log: Vec<KernelMetrics>,
    fault: Option<FaultInjector>,
}

impl GpuDevice {
    /// Creates a device from a catalogue spec.
    pub fn new(spec: GpuSpec) -> Self {
        let memory = MemoryManager::new(&spec);
        Self {
            spec,
            memory,
            total_time: SimDuration::ZERO,
            total_interconnect_bytes: 0,
            kernels_launched: 0,
            kernel_log: Vec::new(),
            fault: None,
        }
    }

    /// Installs a fault injector: every subsequent launch consults it. A
    /// quiet injector (all-zero plan) is observationally identical to none.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.fault = Some(injector);
    }

    /// True once an installed injector has permanently lost this device.
    pub fn is_lost(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultInjector::is_lost)
    }

    /// The device's static description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The device's memory manager.
    pub fn memory(&self) -> &MemoryManager {
        &self.memory
    }

    /// Mutable access to the memory manager (buffer registration).
    pub fn memory_mut(&mut self) -> &mut MemoryManager {
        &mut self.memory
    }

    /// Registers an input buffer with the given access mode. Checks that the
    /// device generation actually supports the requested mode, mirroring the
    /// CUDA feature matrix of Section 2.1.
    pub fn register_buffer(&mut self, label: impl Into<String>, bytes: u64, mode: AccessMode) -> Result<BufferId> {
        match mode {
            AccessMode::Uva if !self.spec.architecture.supports_uva() => {
                return Err(H2Error::Config(format!(
                    "{} ({}) does not support UVA",
                    self.spec.name,
                    self.spec.architecture.name()
                )))
            }
            AccessMode::UnifiedMemory if !self.spec.architecture.supports_um() => {
                return Err(H2Error::Config(format!(
                    "{} ({}) does not support Unified Memory",
                    self.spec.name,
                    self.spec.architecture.name()
                )))
            }
            _ => {}
        }
        self.memory.register(label, bytes, mode)
    }

    /// Registers a buffer that already lives in device memory.
    pub fn register_device_buffer(&mut self, label: impl Into<String>, bytes: u64) -> Result<BufferId> {
        self.memory.register_device_resident(label, bytes)
    }

    /// Performs an explicit `cudaMemcpy`-style transfer from pageable host
    /// memory and returns its simulated duration.
    pub fn memcpy(&mut self, bytes: u64, _direction: TransferDirection) -> SimDuration {
        let t = self.spec.interconnect.pageable_transfer_time(bytes);
        self.total_time += t;
        self.total_interconnect_bytes += bytes;
        t
    }

    /// Launches a kernel: runs `body` on the host for the real result and
    /// charges the simulated cost of executing `desc` on this device.
    pub fn launch<R>(&mut self, desc: &KernelDesc, body: impl FnOnce() -> R) -> Result<KernelRun<R>> {
        let metrics = self.account(desc)?;
        let result = body();
        Ok(KernelRun { result, metrics })
    }

    /// Charges the cost of a kernel described by `desc` without running any
    /// host code (useful when the caller interleaves its own computation).
    pub fn account(&mut self, desc: &KernelDesc) -> Result<KernelMetrics> {
        if desc.elements == 0 {
            return Err(H2Error::InvalidKernel(format!("kernel {} has zero elements", desc.name)));
        }
        // Fault injection: one decision per launch, drawn from the device's
        // seeded injector. Stalls only add simulated time; failures surface
        // as typed faults before any cost is charged.
        let mut stall = SimDuration::ZERO;
        if let Some(injector) = self.fault.as_mut() {
            match injector.decide() {
                FaultDecision::Pass => {}
                FaultDecision::Stall(extra) => stall = extra,
                FaultDecision::Fail { kind, transient } => {
                    return Err(H2Error::Fault { site: injector.site().to_string(), kind, transient });
                }
            }
        }
        let mut interconnect_bytes = 0u64;
        let mut device_mem_bytes = 0u64;
        // Overlappable streaming time (device reads + UVA streaming).
        let mut streaming = SimDuration::ZERO;
        // Non-overlappable time (UM page migration happens before the warp
        // can proceed).
        let mut migration = SimDuration::ZERO;

        for read in &desc.reads {
            let info = self.memory.info(read.buffer)?.clone();
            match info.residency {
                Residency::Device => {
                    let (bytes, time) = self.device_read_cost(read.useful_bytes, read.pattern);
                    device_mem_bytes += bytes;
                    streaming += time;
                }
                Residency::HostUva => {
                    let (bytes, time) = self.uva_read_cost(read.useful_bytes, read.pattern);
                    interconnect_bytes += bytes;
                    streaming += time;
                }
                Residency::HostUm { .. } => {
                    // The kernel touches the address span covered by the
                    // access pattern; untouched-but-spanned bytes still
                    // migrate because migration is page-granular.
                    let span = Self::touched_span(read.useful_bytes, read.pattern);
                    let migrated = self.memory.touch_um(read.buffer, span)?;
                    if migrated > 0 {
                        let pages = migrated / self.memory.page_bytes().max(1);
                        migration += self.spec.interconnect.bulk_transfer_time(migrated)
                            + SimDuration::from_nanos(u128::from(pages) * u128::from(UM_FAULT_OVERHEAD_NANOS));
                        interconnect_bytes += migrated;
                    }
                    // Once resident, the read itself runs at device bandwidth.
                    let (bytes, time) = self.device_read_cost(read.useful_bytes, read.pattern);
                    device_mem_bytes += bytes;
                    streaming += time;
                }
            }
        }

        // Output writes are assumed coalesced into device/host memory at
        // device bandwidth (result sets in the paper's experiments are tiny).
        if desc.write_bytes > 0 {
            device_mem_bytes += desc.write_bytes;
            streaming += SimDuration::from_secs_f64(desc.write_bytes as f64 / self.spec.mem_bytes_per_sec());
        }

        let compute =
            SimDuration::from_secs_f64(desc.elements as f64 * desc.flops_per_element / (self.spec.fp32_gflops * 1e9));

        let memory_time = streaming + migration;
        let time = LAUNCH_OVERHEAD + stall + migration + compute.max(streaming);
        let metrics = KernelMetrics {
            name: desc.name.clone(),
            time,
            interconnect_bytes,
            device_mem_bytes,
            compute_time: compute,
            memory_time,
            launch_overhead: LAUNCH_OVERHEAD,
        };

        self.total_time += time;
        self.total_interconnect_bytes += interconnect_bytes;
        self.kernels_launched += 1;
        self.kernel_log.push(metrics.clone());
        Ok(metrics)
    }

    /// Cost of reading `useful_bytes` with `pattern` from device memory.
    fn device_read_cost(&self, useful_bytes: u64, pattern: AccessPattern) -> (u64, SimDuration) {
        let raw_wire = pattern.wire_bytes(useful_bytes, DEVICE_TRANSACTION_BYTES);
        // Newer architectures hide much of the non-coalescing waste behind
        // caches and deeper memory pipelines: cap the slowdown.
        let cap = self.spec.architecture.max_noncoalesced_penalty();
        let capped = ((useful_bytes as f64) * cap).min(raw_wire as f64).max(useful_bytes as f64) as u64;
        let time = SimDuration::from_secs_f64(capped as f64 / self.spec.mem_bytes_per_sec());
        (capped, time)
    }

    /// Cost of streaming `useful_bytes` with `pattern` over the interconnect
    /// (UVA zero-copy). Every wasted byte crosses the bus.
    fn uva_read_cost(&self, useful_bytes: u64, pattern: AccessPattern) -> (u64, SimDuration) {
        let mtu = self.spec.interconnect.mtu_bytes;
        let wire = pattern.wire_bytes(useful_bytes, mtu);
        let eff = self.spec.architecture.uva_streaming_efficiency();
        let effective_wire = (wire as f64 / eff).ceil() as u64;
        (wire, self.spec.interconnect.streaming_time(effective_wire))
    }

    /// Address span touched when `useful_bytes` are read with `pattern`.
    fn touched_span(useful_bytes: u64, pattern: AccessPattern) -> u64 {
        match pattern {
            AccessPattern::Sequential => useful_bytes,
            AccessPattern::Strided { stride_bytes, elem_bytes } => {
                let elems = useful_bytes / u64::from(elem_bytes.max(1));
                elems * u64::from(stride_bytes.max(1))
            }
            AccessPattern::Random { elem_bytes } => {
                let elems = useful_bytes / u64::from(elem_bytes.max(1));
                elems * u64::from(crate::memory::UM_PAGE_BYTES as u32)
            }
        }
    }

    /// Total simulated time accumulated by this device.
    pub fn total_time(&self) -> SimDuration {
        self.total_time
    }

    /// Total bytes moved over the interconnect.
    pub fn total_interconnect_bytes(&self) -> u64 {
        self.total_interconnect_bytes
    }

    /// Number of kernels launched.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// Per-kernel log, in launch order.
    pub fn kernel_log(&self) -> &[KernelMetrics] {
        &self.kernel_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GpuSpec;

    const GIB: u64 = 1 << 30;

    fn scan_desc(buffer: BufferId, bytes: u64) -> KernelDesc {
        KernelDesc::new("scan", bytes / 4)
            .flops_per_element(2.0)
            .read(buffer, bytes, AccessPattern::Sequential)
            .write(8)
    }

    #[test]
    fn launch_runs_the_body_and_returns_its_result() {
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        let buf = dev.register_buffer("col", GIB, AccessMode::Uva).unwrap();
        let run = dev.launch(&scan_desc(buf, GIB), || 41 + 1).unwrap();
        assert_eq!(run.result, 42);
        assert!(run.metrics.time > SimDuration::ZERO);
        assert_eq!(dev.kernels_launched(), 1);
    }

    #[test]
    fn zero_element_kernels_are_rejected() {
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        let desc = KernelDesc::new("empty", 0);
        assert!(dev.account(&desc).is_err());
    }

    #[test]
    fn uva_unsupported_on_tesla_generation() {
        let mut dev = GpuDevice::new(GpuSpec::geforce_8800());
        assert!(dev.register_buffer("x", 1 << 20, AccessMode::Uva).is_err());
    }

    #[test]
    fn um_unsupported_on_fermi() {
        let mut dev = GpuDevice::new(GpuSpec::tesla_m2090());
        assert!(dev.register_buffer("x", 1 << 20, AccessMode::UnifiedMemory).is_err());
        assert!(dev.register_buffer("x", 1 << 20, AccessMode::Uva).is_ok());
    }

    #[test]
    fn um_second_query_is_much_faster_than_first() {
        // Figure 1: under UM the first query pays the migration, the
        // remaining queries run at device bandwidth (2.5x faster than UVA).
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        let buf = dev.register_buffer("col", 2 * GIB, AccessMode::UnifiedMemory).unwrap();
        let first = dev.account(&scan_desc(buf, 2 * GIB)).unwrap();
        let second = dev.account(&scan_desc(buf, 2 * GIB)).unwrap();
        assert!(
            first.time.as_secs_f64() > 3.0 * second.time.as_secs_f64(),
            "first {} second {}",
            first.time,
            second.time
        );
        assert_eq!(second.interconnect_bytes, 0);
    }

    #[test]
    fn uva_on_fermi_is_slower_than_memcpy_but_faster_on_maxwell() {
        // Figure 1's crossover: UVA loses to memcpy on Fermi and wins on
        // Maxwell.
        let bytes = 2 * GIB;
        let run = |spec: GpuSpec, mode: AccessMode| -> f64 {
            let mut dev = GpuDevice::new(spec);
            match mode {
                AccessMode::Memcpy => {
                    let buf = dev.register_buffer("col", bytes, AccessMode::Memcpy).unwrap();
                    let copy_in = dev.memcpy(bytes, TransferDirection::HostToDevice);
                    let k = dev.account(&scan_desc(buf, bytes)).unwrap();
                    let copy_out = dev.memcpy(8, TransferDirection::DeviceToHost);
                    (copy_in + k.time + copy_out).as_secs_f64()
                }
                _ => {
                    let buf = dev.register_buffer("col", bytes, mode).unwrap();
                    dev.account(&scan_desc(buf, bytes)).unwrap().time.as_secs_f64()
                }
            }
        };
        let fermi_memcpy = run(GpuSpec::tesla_m2090(), AccessMode::Memcpy);
        let fermi_uva = run(GpuSpec::tesla_m2090(), AccessMode::Uva);
        let maxwell_memcpy = run(GpuSpec::gtx_980(), AccessMode::Memcpy);
        let maxwell_uva = run(GpuSpec::gtx_980(), AccessMode::Uva);
        assert!(fermi_uva > 1.5 * fermi_memcpy, "fermi uva {fermi_uva} memcpy {fermi_memcpy}");
        assert!(maxwell_uva < maxwell_memcpy, "maxwell uva {maxwell_uva} memcpy {maxwell_memcpy}");
        // Maxwell is faster than Fermi across the board (PCIe 3.0 vs 2.0).
        assert!(maxwell_memcpy < fermi_memcpy);
    }

    #[test]
    fn strided_reads_cost_more_than_sequential_over_uva() {
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        let buf = dev.register_buffer("table", 4 * GIB, AccessMode::Uva).unwrap();
        let useful = GIB;
        let seq = KernelDesc::new("dsm", useful / 4).read(buf, useful, AccessPattern::Sequential);
        let strided = KernelDesc::new("nsm", useful / 4).read(
            buf,
            useful,
            AccessPattern::Strided { stride_bytes: 64, elem_bytes: 4 },
        );
        let t_seq = dev.account(&seq).unwrap().time.as_secs_f64();
        let t_str = dev.account(&strided).unwrap().time.as_secs_f64();
        assert!(t_str > 8.0 * t_seq, "strided {t_str} sequential {t_seq}");
    }

    #[test]
    fn device_resident_noncoalesced_penalty_is_capped() {
        // Figure 11: when data is GPU-resident the NSM penalty collapses to
        // 2-3x instead of >10x.
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        let buf = dev.register_device_buffer("table", GIB).unwrap();
        let useful = 128 << 20;
        let seq = KernelDesc::new("dsm", useful / 4).read(buf, useful, AccessPattern::Sequential);
        let strided = KernelDesc::new("nsm", useful / 4).read(
            buf,
            useful,
            AccessPattern::Strided { stride_bytes: 64, elem_bytes: 4 },
        );
        let t_seq = dev.account(&seq).unwrap().time.as_secs_f64();
        let t_str = dev.account(&strided).unwrap().time.as_secs_f64();
        let ratio = t_str / t_seq;
        assert!((1.5..3.0).contains(&ratio), "device NSM/DSM ratio {ratio}");
    }

    #[test]
    fn injected_faults_surface_as_typed_errors_and_stalls_add_time() {
        use crate::fault::{DeviceLossPoint, FaultPlan};
        use h2tap_common::FaultKind;
        // A scheduled loss at launch 1: the first launch succeeds, every
        // later one fails persistently.
        let mut plan = FaultPlan::quiet(3);
        plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 1 });
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        dev.set_fault_injector(plan.injector_for("gpu", 0));
        let buf = dev.register_buffer("col", GIB, AccessMode::Uva).unwrap();
        assert!(dev.account(&scan_desc(buf, GIB)).is_ok());
        match dev.account(&scan_desc(buf, GIB)) {
            Err(H2Error::Fault { site, kind, transient }) => {
                assert_eq!(site, "gpu");
                assert_eq!(kind, FaultKind::DeviceLost);
                assert!(!transient);
            }
            other => panic!("expected a device-lost fault, got {other:?}"),
        }
        assert!(dev.is_lost());
        // A guaranteed stall adds exactly the penalty to the launch time.
        let mut stall_plan = FaultPlan::quiet(3);
        stall_plan.interconnect_stall_rate = 1.0;
        stall_plan.stall_penalty = SimDuration::from_micros(500);
        let mut clean = GpuDevice::new(GpuSpec::gtx_980());
        let b2 = clean.register_buffer("col", GIB, AccessMode::Uva).unwrap();
        let base = clean.account(&scan_desc(b2, GIB)).unwrap().time;
        let mut stalled = GpuDevice::new(GpuSpec::gtx_980());
        stalled.set_fault_injector(stall_plan.injector_for("gpu", 0));
        let b3 = stalled.register_buffer("col", GIB, AccessMode::Uva).unwrap();
        let slow = stalled.account(&scan_desc(b3, GIB)).unwrap().time;
        assert_eq!(slow, base + SimDuration::from_micros(500));
    }

    #[test]
    fn quiet_injector_is_observationally_identical_to_none() {
        use crate::fault::FaultPlan;
        let run = |inject: bool| -> (SimDuration, u64) {
            let mut dev = GpuDevice::new(GpuSpec::gtx_980());
            if inject {
                dev.set_fault_injector(FaultPlan::quiet(99).injector_for("gpu", 0));
            }
            let buf = dev.register_buffer("col", GIB, AccessMode::Uva).unwrap();
            for _ in 0..8 {
                dev.account(&scan_desc(buf, GIB)).unwrap();
            }
            (dev.total_time(), dev.total_interconnect_bytes())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn metrics_accumulate() {
        let mut dev = GpuDevice::new(GpuSpec::gtx_980());
        let buf = dev.register_buffer("col", GIB, AccessMode::Uva).unwrap();
        dev.account(&scan_desc(buf, GIB)).unwrap();
        dev.memcpy(GIB, TransferDirection::HostToDevice);
        assert!(dev.total_time() > SimDuration::ZERO);
        assert!(dev.total_interconnect_bytes() >= GIB);
        assert_eq!(dev.kernel_log().len(), 1);
    }
}
