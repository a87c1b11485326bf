//! OLAP placement: should a query run on the GPU or on the data-parallel
//! archipelago's CPU cores?
//!
//! "The scheduler can combine dynamic run-time information, such as data
//! locality, with static optimizer cost models to decide if a given
//! analytical query should be executed on CPU or GPU cores in the
//! data-parallel archipelago." The heuristic here uses the dominant terms of
//! that decision for scan-heavy queries: how many bytes have to cross the
//! interconnect (scaled by whether they are already GPU-resident) plus a
//! fixed GPU dispatch cost, versus how fast the CPU cores can stream the
//! same bytes from memory plus their per-tuple processing work.

pub use h2tap_common::OlapTarget;
use h2tap_common::HASH_ENTRY_BYTES;
use h2tap_gpu_sim::{GpuSpec, DEVICE_TRANSACTION_BYTES};
use serde::{Deserialize, Serialize};

/// Fixed per-query cost of dispatching to the GPU (kernel launches, snapshot
/// table registration, result read-back): roughly 30 µs, the right order for
/// a handful of CUDA kernel launches. This is what routes *tiny* scans to the
/// CPU even when their data is device-resident.
pub const DEFAULT_GPU_DISPATCH_OVERHEAD_SECS: f64 = 30e-6;

/// Inputs to the placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementHints {
    /// Bytes the query needs to read.
    pub bytes_to_scan: u64,
    /// Fraction of those bytes already resident in GPU memory, in [0, 1].
    pub gpu_resident_fraction: f64,
    /// CPU cores currently available in the data-parallel archipelago.
    pub available_cpu_cores: u32,
    /// Sustained per-core CPU memory bandwidth in GB/s.
    pub cpu_core_bandwidth_gbps: f64,
    /// Fixed per-query GPU dispatch cost in seconds (kernel launch and
    /// registration overheads the bandwidth terms do not capture).
    pub gpu_dispatch_overhead_secs: f64,
    /// Rows the query scans (0 when unknown; disables the per-tuple term).
    pub rows: u64,
    /// Aggregate per-tuple CPU processing cost in nanoseconds, spread over
    /// the available cores. Column-at-a-time engines are per-tuple bound well
    /// before they are bandwidth bound, so ignoring this term would
    /// systematically over-place queries on the CPU.
    pub cpu_per_tuple_ns: f64,
    /// Bytes the query touches with data-dependent random access (hash-join
    /// probes, group-accumulator updates). Zero for streaming scans. Random
    /// bytes cost far more than their payload on both sites — cache lines on
    /// the CPU, memory/interconnect transactions on the GPU — and the
    /// asymmetry between those penalties is what separates plan placement
    /// from scan placement.
    pub random_access_bytes: u64,
    /// Footprint of the query's hash state (join build side), in bytes. A
    /// plan whose hash table cannot fit in free device memory cannot keep
    /// its probes on the device.
    pub hash_table_bytes: u64,
    /// Free GPU device memory in bytes. `u64::MAX` (the default) means
    /// unknown/unbounded and disables the footprint check; `0` means the
    /// device is genuinely full — which must route joins away from it, so
    /// full and unknown are deliberately distinct values.
    pub gpu_free_bytes: u64,
    /// Multiplier on the spec-derived GPU streaming time (1.0 = trust the
    /// catalogue bandwidths). The online calibrator raises it when the
    /// measured device is slower than its datasheet (extra bitmap writes,
    /// imperfect coalescing) and lowers it when it is faster.
    pub gpu_bandwidth_scale: f64,
    /// Fixed per-query dispatch cost of the multi-GPU site in seconds
    /// (kernel launches on every device, shard bookkeeping, cross-device
    /// merge). Calibrated independently of the single-GPU overhead so the
    /// two sites' intercepts can diverge.
    pub multi_gpu_dispatch_overhead_secs: f64,
    /// Multiplier on the multi-GPU site's spec-derived streaming feature
    /// (the critical — slowest — device's shard time). Per-site by design:
    /// each device mix converges to its own scale.
    pub multi_gpu_bandwidth_scale: f64,
}

/// Device-memory headroom a GPU-placed plan needs beyond its hash table: the
/// partial-group arena and per-kernel scratch also live in device memory, so
/// a hash table that *exactly* fills free memory still OOMs at execution
/// time. Placement reserves this margin in the footprint check instead of
/// relying on the (expensive) OOM fallback.
pub const GPU_SCRATCH_HEADROOM_BYTES: u64 = 1 << 20;

/// Cache-line granularity of CPU random access: every hash probe touches one
/// 64-byte line of the table regardless of entry size.
pub const CPU_CACHE_LINE_BYTES: u64 = 64;

impl Default for PlacementHints {
    fn default() -> Self {
        Self {
            bytes_to_scan: 0,
            gpu_resident_fraction: 0.0,
            available_cpu_cores: 0,
            cpu_core_bandwidth_gbps: 3.0,
            gpu_dispatch_overhead_secs: DEFAULT_GPU_DISPATCH_OVERHEAD_SECS,
            rows: 0,
            cpu_per_tuple_ns: 0.0,
            random_access_bytes: 0,
            hash_table_bytes: 0,
            gpu_free_bytes: u64::MAX,
            gpu_bandwidth_scale: 1.0,
            multi_gpu_dispatch_overhead_secs: DEFAULT_GPU_DISPATCH_OVERHEAD_SECS,
            multi_gpu_bandwidth_scale: 1.0,
        }
    }
}

impl PlacementHints {
    /// Returns the hints with every floating-point field forced into its
    /// valid domain, so the closed-form predictor is total: NaN or negative
    /// inputs (a fresh engine's unmeasured residency, a mis-configured cost
    /// constant) must degrade to a deterministic default instead of
    /// poisoning both time estimates and making placement arbitrary.
    #[must_use]
    pub fn sanitized(mut self) -> Self {
        let defaults = Self::default();
        // NaN fails every comparison, so `clamp` alone cannot contain it.
        self.gpu_resident_fraction =
            if self.gpu_resident_fraction.is_finite() { self.gpu_resident_fraction.clamp(0.0, 1.0) } else { 0.0 };
        if !(self.cpu_core_bandwidth_gbps.is_finite() && self.cpu_core_bandwidth_gbps > 0.0) {
            self.cpu_core_bandwidth_gbps = defaults.cpu_core_bandwidth_gbps;
        }
        if !(self.gpu_dispatch_overhead_secs.is_finite() && self.gpu_dispatch_overhead_secs >= 0.0) {
            self.gpu_dispatch_overhead_secs = defaults.gpu_dispatch_overhead_secs;
        }
        if !(self.cpu_per_tuple_ns.is_finite() && self.cpu_per_tuple_ns >= 0.0) {
            self.cpu_per_tuple_ns = 0.0;
        }
        if !(self.gpu_bandwidth_scale.is_finite() && self.gpu_bandwidth_scale > 0.0) {
            self.gpu_bandwidth_scale = 1.0;
        }
        if !(self.multi_gpu_dispatch_overhead_secs.is_finite() && self.multi_gpu_dispatch_overhead_secs >= 0.0) {
            self.multi_gpu_dispatch_overhead_secs = defaults.multi_gpu_dispatch_overhead_secs;
        }
        if !(self.multi_gpu_bandwidth_scale.is_finite() && self.multi_gpu_bandwidth_scale > 0.0) {
            self.multi_gpu_bandwidth_scale = 1.0;
        }
        self
    }
}

/// One GPU device of a (possibly multi-device) execution site, as the
/// placement heuristic sees it: its catalogue spec, the fraction of a
/// table's chunks sharded onto it, how much of its shard is already resident
/// next to its compute, and how much device memory it has free.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDeviceCapability {
    /// The device's catalogue spec (bandwidths, interconnect, architecture).
    pub spec: GpuSpec,
    /// Fraction of each registered table's chunks this device executes, in
    /// `[0, 1]` (1.0 for a single-device site; ~`1/n` under the round-robin
    /// chunk shard of an `n`-device site).
    pub shard_fraction: f64,
    /// Fraction of this device's shard already resident in its device
    /// memory, in `[0, 1]`.
    pub resident_fraction: f64,
    /// Free device memory in bytes; `None` when unknown. Deliberately an
    /// `Option` instead of a `u64::MAX` sentinel so that one unknown device
    /// can never saturate an aggregate — the footprint check takes the
    /// minimum over the *known* devices and is disabled only when every
    /// device is unknown.
    pub free_bytes: Option<u64>,
}

/// What one execution site tells the placement heuristic about itself. Sites
/// *enumerate* their capabilities — placement is an argmin over whatever
/// sites the engine actually has, not a hardcoded CPU-vs-GPU pair.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteCapability {
    /// The CPU cores of the data-parallel archipelago. The time model's
    /// constants (per-core bandwidth, per-tuple cost, core count) travel in
    /// the [`PlacementHints`], which the calibrated cost model fills.
    Cpu {
        /// Cores the site currently owns (informational; the estimate uses
        /// `PlacementHints::available_cpu_cores`, the live archipelago count).
        cores: u32,
    },
    /// A GPU-backed site: one device (`target == Gpu`) or several sharded
    /// devices (`target == MultiGpu`).
    Gpu {
        /// Which placement target this site serves.
        target: OlapTarget,
        /// The site's devices, in shard order.
        devices: Vec<GpuDeviceCapability>,
    },
}

impl SiteCapability {
    /// The placement target this capability describes.
    pub fn target(&self) -> OlapTarget {
        match self {
            SiteCapability::Cpu { .. } => OlapTarget::Cpu,
            SiteCapability::Gpu { target, .. } => *target,
        }
    }

    /// The capability of the classic single-GPU site, reconstructed from the
    /// scalar hint fields (`gpu_resident_fraction`, `gpu_free_bytes` with
    /// `u64::MAX` meaning unknown) — for callers that hold hints but no
    /// live site to enumerate.
    pub fn single_gpu(spec: &GpuSpec, hints: &PlacementHints) -> Self {
        SiteCapability::Gpu {
            target: OlapTarget::Gpu,
            devices: vec![GpuDeviceCapability {
                spec: spec.clone(),
                shard_fraction: 1.0,
                resident_fraction: hints.gpu_resident_fraction,
                free_bytes: (hints.gpu_free_bytes != u64::MAX).then_some(hints.gpu_free_bytes),
            }],
        }
    }
}

/// Spec-derived streaming time of one device over a given share of the
/// query's bytes: resident bytes stream at device bandwidth, the rest
/// crosses the interconnect, and random bytes pay the coalescing waste.
fn device_streaming_secs(spec: &GpuSpec, resident_fraction: f64, hints: &PlacementHints) -> f64 {
    let resident = if resident_fraction.is_finite() { resident_fraction.clamp(0.0, 1.0) } else { 0.0 };
    let bytes = hints.bytes_to_scan as f64;
    let random = hints.random_access_bytes as f64;
    // Random access delivers one hash entry per memory transaction: the
    // waste factor is transaction size over entry size — the 128-byte device
    // transaction when the hash state is device-resident, the interconnect
    // MTU when probes cross the bus (the kernel-at-a-time executor keeps
    // intermediates wherever table data lives, so residency is the proxy).
    let gpu_random_device = (DEVICE_TRANSACTION_BYTES / HASH_ENTRY_BYTES) as f64;
    let gpu_random_interconnect = (spec.interconnect.mtu_bytes.max(HASH_ENTRY_BYTES) / HASH_ENTRY_BYTES) as f64;
    (resident * (bytes + random * gpu_random_device)) / spec.mem_bytes_per_sec()
        + ((1.0 - resident) * (bytes + random * gpu_random_interconnect))
            / (spec.interconnect.kind.bandwidth_gbps() * 1e9)
}

/// The streaming feature of a (possibly multi-device) GPU site — the
/// bandwidth *feature* of the GPU cost model, on top of which the calibrator
/// fits an overhead intercept and a bandwidth scale. Each device streams its
/// shard of the bytes concurrently, so the site is bound by its critical —
/// slowest — device: one device at `shard_fraction == 1.0` costs its own
/// spec-derived streaming time, while in a fast+slow mix the slow
/// generation's shard dominates, which is what makes heterogeneous mixes
/// slower than their aggregate bandwidth suggests.
pub fn gpu_site_stream_feature(devices: &[GpuDeviceCapability], hints: &PlacementHints) -> f64 {
    devices
        .iter()
        .map(|d| {
            let frac = if d.shard_fraction.is_finite() { d.shard_fraction.clamp(0.0, 1.0) } else { 0.0 };
            frac * device_streaming_secs(&d.spec, d.resident_fraction, hints)
        })
        .fold(0.0, f64::max)
}

/// The smallest known per-device free memory of a GPU site — the headroom a
/// *replicated* per-device structure (the join hash table every device
/// probes locally) must fit into. Unknown devices are skipped rather than
/// poisoning the aggregate; `None` means no device reported at all.
pub fn min_free_shard_bytes(devices: &[GpuDeviceCapability]) -> Option<u64> {
    devices.iter().filter_map(|d| d.free_bytes).min()
}

/// Whether the hash-table footprint check rules a GPU site out: the plan's
/// hash state plus the scratch headroom must fit the *minimum* known
/// per-device free memory (every device holds a full replica). Disabled when
/// the plan has no hash state or no device reports its free memory.
pub fn gpu_footprint_blocks(devices: &[GpuDeviceCapability], hints: &PlacementHints) -> bool {
    if hints.hash_table_bytes == 0 {
        return false;
    }
    match min_free_shard_bytes(devices) {
        Some(free) => hints.hash_table_bytes.saturating_add(GPU_SCRATCH_HEADROOM_BYTES) > free,
        None => false,
    }
}

/// The CPU model's two linear terms, in seconds: `(streaming, per-tuple)`.
/// All bytes stream from host memory across the available cores (random
/// bytes touch whole cache lines); per-tuple processing work is spread over
/// the same cores. Uses `max(cores, 1)` so forced-CPU runs on an engine with
/// no reserved OLAP cores still get a finite prediction.
pub fn cpu_term_secs(hints: &PlacementHints) -> (f64, f64) {
    let bytes = hints.bytes_to_scan as f64;
    let random = hints.random_access_bytes as f64;
    let cores = f64::from(hints.available_cpu_cores.max(1));
    let cpu_random = (CPU_CACHE_LINE_BYTES / HASH_ENTRY_BYTES) as f64;
    let cpu_bw = cores * hints.cpu_core_bandwidth_gbps * 1e9;
    let stream = (bytes + random * cpu_random) / cpu_bw.max(1.0);
    let tuple = hints.rows as f64 * hints.cpu_per_tuple_ns.max(0.0) * 1e-9 / cores;
    (stream, tuple)
}

/// Combines a streaming term and a compute term the way the CPU site's time
/// model does: the two overlap, so the query costs the larger term plus a
/// quarter of the smaller one. Shared between prediction and execution so the
/// predictor cannot drift from the site it models.
pub fn overlap_secs(stream: f64, compute: f64) -> f64 {
    stream.max(compute) + stream.min(compute) * 0.25
}

/// The closed-form time estimate for one enumerated site — the reusable
/// predictor behind [`place_olap_query_sites`], which the calibration
/// feedback loop compares against the times the sites actually report.
/// Total for any input: the hints are sanitized first, so NaN/negative
/// fields degrade to defaults rather than poisoning the estimate. CPU sites
/// use the overlap of the hints' streaming and per-tuple terms; GPU sites pay
/// their target's calibrated dispatch intercept plus the calibrated
/// bandwidth scale times the site's streaming feature (critical device's
/// shard time).
pub fn estimate_site_secs(site: &SiteCapability, hints: &PlacementHints) -> f64 {
    let hints = hints.sanitized();
    match site {
        SiteCapability::Cpu { .. } => {
            let (stream, tuple) = cpu_term_secs(&hints);
            overlap_secs(stream, tuple)
        }
        SiteCapability::Gpu { target, devices } => {
            let (overhead, scale) = match target {
                OlapTarget::MultiGpu => (hints.multi_gpu_dispatch_overhead_secs, hints.multi_gpu_bandwidth_scale),
                _ => (hints.gpu_dispatch_overhead_secs, hints.gpu_bandwidth_scale),
            };
            overhead + scale * gpu_site_stream_feature(devices, &hints)
        }
    }
}

/// The estimate for `target` among the enumerated sites. A CPU target is
/// always estimable (its terms live in the hints); a GPU target whose site
/// is not in the list is unplaceable and estimates to infinity.
pub fn estimate_target_secs(sites: &[SiteCapability], target: OlapTarget, hints: &PlacementHints) -> f64 {
    match sites.iter().find(|s| s.target() == target) {
        Some(site) => estimate_site_secs(site, hints),
        None if target == OlapTarget::Cpu => {
            estimate_site_secs(&SiteCapability::Cpu { cores: hints.available_cpu_cores }, hints)
        }
        None => f64::INFINITY,
    }
}

/// The N-way placement decision: an argmin over whatever sites the engine
/// enumerates. Eligibility first — the CPU site needs cores and a real scan,
/// a GPU site whose per-device free memory cannot hold the plan's hash-state
/// replica is excluded while a CPU fallback exists — then the smallest
/// estimate wins, with ties going to the earliest site in the list (engines
/// list their GPU sites first, preserving the Caldera prototype's static
/// GPU preference).
pub fn place_olap_query_sites(sites: &[SiteCapability], hints: &PlacementHints) -> OlapTarget {
    let hints = hints.sanitized();
    let cpu_eligible = hints.available_cpu_cores > 0 && hints.bytes_to_scan > 0;
    let mut best: Option<(OlapTarget, f64)> = None;
    for site in sites {
        match site {
            SiteCapability::Cpu { .. } if !cpu_eligible => continue,
            // A hash table that cannot fit a per-device replica — including
            // the scratch headroom the plan's group arena needs, and a
            // completely full device — forces the site to probe across the
            // interconnect on every access or OOM-fall-back mid-query; with
            // CPU cores on hand that is never competitive. Unknown free
            // memory disables the check rather than guessing.
            SiteCapability::Gpu { devices, .. } if cpu_eligible && gpu_footprint_blocks(devices, &hints) => continue,
            _ => {}
        }
        let secs = estimate_site_secs(site, &hints);
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((site.target(), secs));
        }
    }
    best.map_or(OlapTarget::Gpu, |(target, _)| target)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CPU-vs-one-GPU decision, expressed as the N-way argmin
    /// over the CPU site and a single-GPU site reconstructed from the scalar
    /// hint fields.
    fn place_two_way(gpu: &GpuSpec, hints: &PlacementHints) -> OlapTarget {
        place_olap_query_sites(
            &[SiteCapability::single_gpu(gpu, hints), SiteCapability::Cpu { cores: hints.available_cpu_cores }],
            hints,
        )
    }

    #[test]
    fn gpu_wins_when_data_is_resident() {
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 24,
            cpu_core_bandwidth_gbps: 3.0,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Gpu);
    }

    #[test]
    fn many_idle_cpu_cores_win_for_host_resident_data() {
        // 24 cores x 3 GB/s = 72 GB/s of CPU bandwidth beats a 16 GB/s PCIe
        // link when nothing is resident on the GPU.
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 0.0,
            available_cpu_cores: 24,
            cpu_core_bandwidth_gbps: 3.0,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Cpu);
    }

    #[test]
    fn few_cpu_cores_lose_to_the_gpu() {
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 0.0,
            available_cpu_cores: 2,
            cpu_core_bandwidth_gbps: 3.0,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Gpu);
    }

    #[test]
    fn no_cpu_cores_defaults_to_gpu() {
        let hints = PlacementHints { bytes_to_scan: 1 << 20, ..PlacementHints::default() };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Gpu);
    }

    #[test]
    fn tiny_scans_route_to_cpu_even_when_device_resident() {
        // 64 KiB fully resident: the bandwidth terms are microseconds either
        // way, so the fixed GPU dispatch overhead dominates and the CPU wins.
        let hints = PlacementHints {
            bytes_to_scan: 64 << 10,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 4,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Cpu);
        // Without the overhead term the same tiny resident scan goes to the
        // GPU (224 GB/s of device bandwidth beats 12 GB/s of CPU bandwidth).
        let no_overhead = PlacementHints { gpu_dispatch_overhead_secs: 0.0, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &no_overhead), OlapTarget::Gpu);
    }

    #[test]
    fn random_probes_push_host_resident_joins_to_cpu() {
        // A scan of this size over host-resident data routes to the GPU
        // (per-tuple work makes the CPU slower end to end, see below), but
        // the same bytes with one hash probe per row pay the interconnect
        // MTU per access on the GPU — placement must flip to the CPU.
        let scan = PlacementHints {
            bytes_to_scan: (4 << 20) * 16,
            available_cpu_cores: 24,
            rows: 4 << 20,
            cpu_per_tuple_ns: 93.0,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &scan), OlapTarget::Gpu);
        let join =
            PlacementHints { random_access_bytes: (4 << 20) * HASH_ENTRY_BYTES, hash_table_bytes: 1 << 20, ..scan };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &join), OlapTarget::Cpu);
        // Fully device-resident, the same probes ride the capped device
        // transaction waste and the GPU stays ahead.
        let resident_join = PlacementHints { gpu_resident_fraction: 1.0, ..join };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &resident_join), OlapTarget::Gpu);
    }

    #[test]
    fn oversized_hash_tables_route_to_cpu() {
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 24,
            hash_table_bytes: 8 << 30,
            gpu_free_bytes: 4 << 30,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Cpu);
        // The same footprint with room to spare keeps the GPU.
        let fits = PlacementHints { gpu_free_bytes: 16 << 30, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &fits), OlapTarget::Gpu);
        // Unknown headroom (the u64::MAX default) disables the check rather
        // than guessing.
        let unknown = PlacementHints { gpu_free_bytes: u64::MAX, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &unknown), OlapTarget::Gpu);
        // A genuinely full device (0 free bytes) routes joins to the CPU.
        let full = PlacementHints { gpu_free_bytes: 0, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &full), OlapTarget::Cpu);
        // With no CPU cores the footprint check cannot help.
        let no_cores = PlacementHints { available_cpu_cores: 0, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &no_cores), OlapTarget::Gpu);
    }

    #[test]
    fn hash_table_exactly_filling_free_memory_routes_to_cpu() {
        // The boundary of the footprint check: a hash table that exactly
        // fills free device memory leaves no headroom for the group arena and
        // kernel scratch, so it must route to the CPU instead of OOM-falling
        // back mid-query.
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 24,
            hash_table_bytes: 4 << 30,
            gpu_free_bytes: 4 << 30,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Cpu);
        // One byte short of the scratch headroom still routes to the CPU …
        let just_short = PlacementHints { gpu_free_bytes: (4 << 30) + GPU_SCRATCH_HEADROOM_BYTES - 1, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &just_short), OlapTarget::Cpu);
        // … and exactly hash table + headroom fits.
        let fits = PlacementHints { gpu_free_bytes: (4 << 30) + GPU_SCRATCH_HEADROOM_BYTES, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &fits), OlapTarget::Gpu);
        // A saturating footprint near u64::MAX must not wrap around the
        // headroom addition, and MAX-as-unknown still disables the check.
        let huge = PlacementHints { hash_table_bytes: u64::MAX - 1, gpu_free_bytes: u64::MAX - 1, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &huge), OlapTarget::Cpu);
        let unknown = PlacementHints { gpu_free_bytes: u64::MAX, ..huge };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &unknown), OlapTarget::Gpu);
    }

    #[test]
    fn nan_hints_are_sanitized_and_the_predictor_stays_total() {
        let poisoned = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: f64::NAN,
            available_cpu_cores: 24,
            cpu_core_bandwidth_gbps: f64::NAN,
            gpu_dispatch_overhead_secs: -1.0,
            rows: 1 << 20,
            cpu_per_tuple_ns: f64::NEG_INFINITY,
            gpu_bandwidth_scale: f64::NAN,
            ..PlacementHints::default()
        };
        let clean = poisoned.sanitized();
        assert_eq!(clean.gpu_resident_fraction, 0.0);
        assert_eq!(clean.cpu_core_bandwidth_gbps, PlacementHints::default().cpu_core_bandwidth_gbps);
        assert_eq!(clean.gpu_dispatch_overhead_secs, DEFAULT_GPU_DISPATCH_OVERHEAD_SECS);
        assert_eq!(clean.cpu_per_tuple_ns, 0.0);
        assert_eq!(clean.gpu_bandwidth_scale, 1.0);
        // The predictor is total: finite estimates even on the raw hints.
        for site in [SiteCapability::single_gpu(&GpuSpec::gtx_980(), &clean), SiteCapability::Cpu { cores: 24 }] {
            let est = estimate_site_secs(&site, &poisoned);
            assert!(est.is_finite(), "{site:?}: {est}");
            assert_eq!(est, estimate_site_secs(&site, &clean));
        }
        // NaN resident fraction must not poison the decision: the sanitized
        // hints behave like the explicit-zero-residency hints.
        let zeroed = PlacementHints { gpu_resident_fraction: 0.0, ..clean };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &poisoned), place_two_way(&GpuSpec::gtx_980(), &zeroed));
        // Negative residency clamps instead of producing negative time.
        let negative = PlacementHints { gpu_resident_fraction: -3.0, ..clean }.sanitized();
        assert_eq!(negative.gpu_resident_fraction, 0.0);
    }

    fn resident_device(spec: GpuSpec, shard_fraction: f64) -> GpuDeviceCapability {
        GpuDeviceCapability { spec, shard_fraction, resident_fraction: 1.0, free_bytes: None }
    }

    fn three_sites() -> Vec<SiteCapability> {
        vec![
            SiteCapability::Gpu { target: OlapTarget::Gpu, devices: vec![resident_device(GpuSpec::gtx_980(), 1.0)] },
            SiteCapability::Cpu { cores: 24 },
            SiteCapability::Gpu {
                target: OlapTarget::MultiGpu,
                devices: vec![resident_device(GpuSpec::gtx_980(), 0.5), resident_device(GpuSpec::gtx_980(), 0.5)],
            },
        ]
    }

    #[test]
    fn n_way_argmin_routes_large_resident_scans_to_the_multi_gpu_site() {
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 24,
            ..PlacementHints::default()
        };
        let sites = three_sites();
        // Two devices halve the critical shard: the multi site beats both the
        // single GPU and the CPU on a large resident scan …
        assert_eq!(place_olap_query_sites(&sites, &hints), OlapTarget::MultiGpu);
        // … but a tiny scan is dominated by the (equal) dispatch overheads,
        // so the CPU still wins with cores on hand.
        let tiny = PlacementHints { bytes_to_scan: 64 << 10, ..hints };
        assert_eq!(place_olap_query_sites(&sites, &tiny), OlapTarget::Cpu);
        // And with no CPU cores the argmin still runs over the GPU sites.
        let no_cores = PlacementHints { available_cpu_cores: 0, ..hints };
        assert_eq!(place_olap_query_sites(&sites, &no_cores), OlapTarget::MultiGpu);
    }

    #[test]
    fn the_slowest_generation_bounds_a_heterogeneous_mix() {
        let hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 24,
            ..PlacementHints::default()
        };
        // A fast+slow half-half mix is bound by the GTX 580's shard.
        let mixed = [resident_device(GpuSpec::gtx_980_ti(), 0.5), resident_device(GpuSpec::gtx_580(), 0.5)];
        let fast_only = [resident_device(GpuSpec::gtx_980_ti(), 0.5), resident_device(GpuSpec::gtx_980_ti(), 0.5)];
        let mixed_feature = gpu_site_stream_feature(&mixed, &hints);
        let fast_feature = gpu_site_stream_feature(&fast_only, &hints);
        assert!(mixed_feature > fast_feature, "mixed {mixed_feature} vs fast {fast_feature}");
        let slow_share = 0.5 * gpu_site_stream_feature(&[resident_device(GpuSpec::gtx_580(), 1.0)], &hints);
        assert!((mixed_feature - slow_share).abs() < 1e-12, "the slow shard is the critical path");
    }

    #[test]
    fn multi_gpu_footprint_checks_the_min_known_free_and_skips_unknown_devices() {
        let hash = 4u64 << 30;
        let mut hints = PlacementHints {
            bytes_to_scan: 1 << 30,
            gpu_resident_fraction: 1.0,
            available_cpu_cores: 24,
            hash_table_bytes: hash,
            ..PlacementHints::default()
        };
        let device = |free: Option<u64>| GpuDeviceCapability {
            spec: GpuSpec::gtx_980(),
            shard_fraction: 0.25,
            resident_fraction: 1.0,
            free_bytes: free,
        };
        // One unknown device must not saturate the aggregate: the min over the
        // *known* devices decides.
        let devices = vec![device(Some(hash)), device(None), device(Some(8 << 30))];
        assert_eq!(min_free_shard_bytes(&devices), Some(hash));
        let site = |devices: Vec<GpuDeviceCapability>| {
            vec![SiteCapability::Gpu { target: OlapTarget::MultiGpu, devices }, SiteCapability::Cpu { cores: 24 }]
        };
        // Exact fit leaves no scratch headroom: blocked, routes to the CPU.
        assert!(gpu_footprint_blocks(&devices, &hints));
        assert_eq!(place_olap_query_sites(&site(devices.clone()), &hints), OlapTarget::Cpu);
        // One byte short of headroom still blocks; exactly hash + headroom fits.
        let just_short = vec![device(Some(hash + GPU_SCRATCH_HEADROOM_BYTES - 1)), device(None)];
        assert!(gpu_footprint_blocks(&just_short, &hints));
        let fits = vec![device(Some(hash + GPU_SCRATCH_HEADROOM_BYTES)), device(None)];
        assert!(!gpu_footprint_blocks(&fits, &hints));
        assert_eq!(place_olap_query_sites(&site(fits), &hints), OlapTarget::MultiGpu);
        // All devices unknown: the check is disabled rather than guessed.
        let unknown = vec![device(None), device(None)];
        assert!(!gpu_footprint_blocks(&unknown, &hints));
        // No hash state: never blocked.
        hints.hash_table_bytes = 0;
        assert!(!gpu_footprint_blocks(&devices, &hints));
    }

    #[test]
    fn placement_is_the_argmin_of_the_per_site_estimator() {
        let hints = PlacementHints {
            bytes_to_scan: 1 << 28,
            gpu_resident_fraction: 0.4,
            available_cpu_cores: 12,
            rows: 1 << 22,
            cpu_per_tuple_ns: 93.0,
            gpu_free_bytes: 2 << 30,
            hash_table_bytes: 1 << 20,
            ..PlacementHints::default()
        };
        let gpu = GpuSpec::gtx_980();
        let sites = [SiteCapability::single_gpu(&gpu, &hints), SiteCapability::Cpu { cores: 12 }];
        // The decision is the argmin of the reusable per-site estimator.
        let (gpu_secs, cpu_secs) = (estimate_site_secs(&sites[0], &hints), estimate_site_secs(&sites[1], &hints));
        let faster = if cpu_secs < gpu_secs { OlapTarget::Cpu } else { OlapTarget::Gpu };
        assert_eq!(place_olap_query_sites(&sites, &hints), faster);
        assert_eq!(estimate_target_secs(&sites, OlapTarget::Gpu, &hints), gpu_secs);
        assert_eq!(estimate_target_secs(&sites, OlapTarget::Cpu, &hints), cpu_secs);
        // A target with no site is unplaceable.
        assert_eq!(estimate_target_secs(&sites, OlapTarget::MultiGpu, &hints), f64::INFINITY);
    }

    #[test]
    fn per_tuple_cost_pushes_large_host_scans_back_to_gpu() {
        // 64 M rows of 16 bytes streaming from host memory: bandwidth alone
        // favours 24 CPU cores over PCIe, but 93 ns/tuple of column-at-a-time
        // work (the Figure-4 calibration) makes the CPU slower end to end.
        let hints = PlacementHints {
            bytes_to_scan: (64 << 20) * 16,
            available_cpu_cores: 24,
            rows: 64 << 20,
            cpu_per_tuple_ns: 93.0,
            ..PlacementHints::default()
        };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &hints), OlapTarget::Gpu);
        let streaming_only = PlacementHints { cpu_per_tuple_ns: 0.0, ..hints };
        assert_eq!(place_two_way(&GpuSpec::gtx_980(), &streaming_only), OlapTarget::Cpu);
    }
}
