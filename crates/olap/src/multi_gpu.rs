//! The GPU-family execution site: kernel-at-a-time query execution over one
//! or more — possibly heterogeneous — simulated GPUs.
//!
//! "Each database operator is implemented as a collection of data-parallel
//! primitives, where each primitive is an individual CUDA kernel. OLAP
//! queries are executed by a dedicated CPU thread that executes each database
//! operator by executing the corresponding CUDA kernels one at a time while
//! using UVA to store all input, intermediate, and output data."
//!
//! [`GpuOlapEngine`] follows that model: an [`OlapPlan`] becomes one
//! selection kernel per predicate (each producing/consuming a selection
//! bitmap), hash build/probe kernels for a join, and an aggregation stage —
//! one register-reducing `aggregate` kernel for a scan-shaped plan, a
//! `partial_aggregate` + `merge_groups` pair over a group arena otherwise.
//! The real answer is computed on the host while every kernel's cost is
//! charged to the [`GpuDevice`] model according to the table's layout
//! (coalesced for DSM/PAX, strided for NSM) and the configured access mode
//! (memcpy / UVA / UM / device-resident).
//!
//! Table 1 of the paper catalogues five GPU generations precisely because
//! real deployments mix them: cards are added over the years, so a
//! data-parallel archipelago rarely owns `n` identical devices. The site
//! therefore always runs over a *device mix*, and the single GPU of the
//! Caldera prototype is the mix of one ([`GpuOlapEngine::new`]); there is no
//! second implementation and nothing branches on the device count. The
//! sharding contract is the fixed-chunk contract every site obeys:
//!
//! * tables are split into [`h2tap_common::PLAN_CHUNK_ROWS`]-row chunks in
//!   storage order,
//! * chunk `i` is assigned to device [`h2tap_common::chunk_shard`]`(i, n)` —
//!   a round-robin **partition** (every chunk on exactly one device, shards
//!   disjoint, union covers the table; one device holds every chunk),
//! * per-chunk partials always merge in **ascending chunk order** no matter
//!   which device produced them or when it finished.
//!
//! Because the host-side data path is the shared [`operators`] pipeline over
//! all chunks in ascending order, plan group rows (a scan's scalar included)
//! are **byte-identical** to the CPU site's for any device mix and shard
//! count. What differs is the simulated cost: each device is charged its own
//! kernels (named `<kernel>.d<device>`) over its own shard, the devices run
//! concurrently, and the site reports the **critical path** — the slowest
//! device's time — which is why a fast+slow generation mix is bound by its
//! slow card rather than its aggregate bandwidth.
//!
//! Joins follow the replicated-build pattern real multi-GPU engines use:
//! every device builds a partial hash table from its *local* build-side
//! shard, the partials are all-gathered so each device holds a full replica
//! (charged as interconnect traffic for the remote fraction — none on one
//! device), and each device probes its own probe-side shard with
//! data-dependent random reads against its replica. The replica is why the
//! placement footprint check is against the **minimum per-device** free
//! memory, not the sum.

use crate::cache::PlanDataCache;
use crate::engine::{DataPlacement, PlanOutcome, RegisteredTable};
use crate::operators;
use crate::site::{emit_execution_spans, ExecutionSite};
use h2tap_common::{
    chunk_shard, ExecBreakdown, H2Error, OlapPlan, PlanColumn, Result, SimDuration, HASH_ENTRY_BYTES, PLAN_CHUNK_ROWS,
};
use h2tap_gpu_sim::{
    AccessMode, AccessPattern, BufferId, GpuDevice, KernelDesc, KernelMetrics, MemoryManager, Residency,
    TransferDirection,
};
use h2tap_obs::Tracer;
use h2tap_scheduler::{GpuDeviceCapability, OlapTarget, SiteCapability};
use h2tap_storage::{Layout, SnapshotTable};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows of a `rows`-row table that land on each of `devices` devices under
/// the round-robin chunk shard, in device order. The boundary cases matter:
/// an empty table shards to all-zero, a one-chunk table lands entirely on
/// device 0, and a table whose row count is an exact chunk multiple splits
/// into full chunks only.
pub fn shard_rows(rows: u64, devices: usize) -> Vec<u64> {
    let devices = devices.max(1);
    let mut per = vec![0u64; devices];
    let rows = rows as usize;
    let chunks = rows.div_ceil(PLAN_CHUNK_ROWS);
    for chunk in 0..chunks {
        let lo = chunk * PLAN_CHUNK_ROWS;
        let hi = ((chunk + 1) * PLAN_CHUNK_ROWS).min(rows);
        per[chunk_shard(chunk, devices)] += (hi - lo) as u64;
    }
    per
}

/// Chunk indexes each of `devices` devices executes, in device order — the
/// partition the property tests verify: every chunk appears exactly once,
/// shards are disjoint, and their union covers `0..chunk_count`.
pub fn shard_chunk_indexes(chunk_count: usize, devices: usize) -> Vec<Vec<usize>> {
    let devices = devices.max(1);
    let mut shards = vec![Vec::new(); devices];
    for chunk in 0..chunk_count {
        shards[chunk_shard(chunk, devices)].push(chunk);
    }
    shards
}

/// The fraction of the site's registered bytes already resident in device
/// memory — the data-locality term of the placement heuristic. Explicit
/// copies re-pay the transfer every query batch, so memcpy placement counts
/// as non-resident like UVA; under Unified Memory `buffers` (every
/// registered buffer with the memory manager that owns it) is weighed.
fn resident_fraction<'a>(
    placement: DataPlacement,
    buffers: impl Iterator<Item = (&'a MemoryManager, BufferId)>,
) -> f64 {
    let DataPlacement::Host(mode) = placement else { return 1.0 };
    if mode != AccessMode::UnifiedMemory {
        return 0.0;
    }
    let (mut total, mut resident) = (0u64, 0u64);
    for (mem, id) in buffers {
        let Ok(info) = mem.info(id) else { continue };
        total += info.bytes;
        resident += match info.residency {
            Residency::Device => info.bytes,
            Residency::HostUm { resident_pages, .. } => (resident_pages * mem.page_bytes()).min(info.bytes),
            Residency::HostUva => 0,
        };
    }
    if total == 0 {
        0.0
    } else {
        resident as f64 / total as f64
    }
}

/// Registers `bytes` of table or scratch data with `device` under the site's
/// data placement.
fn register_bytes(device: &mut GpuDevice, placement: DataPlacement, label: &str, bytes: u64) -> Result<BufferId> {
    match placement {
        DataPlacement::Host(mode) => device.register_buffer(label, bytes, mode),
        DataPlacement::DeviceResident => device.register_device_buffer(label, bytes),
    }
}

/// The useful bytes and access pattern of a kernel streaming `attr` over
/// `rows` rows of `table`, by storage layout: row-major tables are one
/// buffer the kernel strides over, columns read sequentially, and PAX
/// minipages coalesce like DSM but pay a small page-interleave overhead,
/// modelled as 3% extra traffic.
fn layout_read(table: &SnapshotTable, rows: u64, attr: usize) -> Result<(u64, AccessPattern)> {
    let width = table.schema.attr(attr)?.ty.width() as u64;
    Ok(match table.layout {
        Layout::Nsm => {
            let stride_bytes = table.schema.record_width() as u32;
            (rows * width, AccessPattern::Strided { stride_bytes, elem_bytes: width as u32 })
        }
        Layout::Dsm => (rows * width, AccessPattern::Sequential),
        Layout::Pax { .. } => (rows * width * 103 / 100, AccessPattern::Sequential),
    })
}

/// Bytes an explicit-copy (memcpy) placement moves host→device for `rows`
/// rows of `table` of which a plan reads `column_bytes`: a columnar layout
/// copies just the accessed columns, but a row-major table is one buffer of
/// whole records, so the copy moves every attribute whatever the plan reads.
fn explicit_copy_bytes(table: &SnapshotTable, rows: u64, column_bytes: u64) -> u64 {
    match table.layout {
        Layout::Nsm => rows * table.schema.record_width() as u64,
        Layout::Dsm | Layout::Pax { .. } => column_bytes,
    }
}

/// The charge rule for the aggregation stage, keyed on the plan's shape: an
/// ungrouped, unjoined aggregate reduces in registers — one `aggregate`
/// kernel writes the scalars, with no group arena to allocate and no merge
/// kernel to fold it. Every other plan accumulates into a per-chunk arena
/// (`partial_aggregate`) that `merge_groups` folds.
fn reduces_in_registers(plan: &OlapPlan) -> bool {
    plan.join.is_none() && plan.group_by.is_none()
}

/// The register-reducing `aggregate` kernel over `rows` rows: streams every
/// aggregate input (plus the selection bitmap when the plan filters) and
/// writes one f64 per aggregate. `read_plan` resolves an attribute to the
/// buffer, useful bytes and access pattern the device reads it with.
fn register_aggregate_desc(
    name: String,
    rows: u64,
    plan: &OlapPlan,
    read_plan: impl Fn(usize) -> Result<(BufferId, u64, AccessPattern)>,
) -> Result<KernelDesc> {
    let agg_cols: Vec<usize> = plan.aggregates.iter().flat_map(|a| a.columns()).collect();
    let bitmap_flops = if plan.predicates.is_empty() { 1.0 } else { 2.0 };
    let mut desc = KernelDesc::new(name, rows)
        .flops_per_element(bitmap_flops + agg_cols.len() as f64)
        .write(8 * plan.aggregates.len() as u64);
    for attr in agg_cols {
        let (buffer, useful, pattern) = read_plan(attr)?;
        desc = desc.read(buffer, useful, pattern);
    }
    Ok(desc)
}

/// Probe columns the `partial_aggregate` kernel streams: every aggregate
/// input plus a probe-side group key, deduplicated and sorted.
fn arena_aggregate_columns(plan: &OlapPlan) -> Vec<usize> {
    let mut cols: Vec<usize> = plan.aggregates.iter().flat_map(|a| a.columns()).collect();
    if let Some(PlanColumn::Probe(c)) = plan.group_by {
        cols.push(c);
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Per-device accumulator for one query execution: the device's simulated
/// time, its contribution to the cost-model terms, the kernels it launched
/// and the bytes it moved over its interconnect.
#[derive(Debug, Default)]
struct DeviceRun {
    time: SimDuration,
    breakdown: ExecBreakdown,
    kernels: Vec<KernelMetrics>,
    interconnect_bytes: u64,
}

impl DeviceRun {
    /// Charges one kernel launch on `device` to the running totals.
    fn charge(&mut self, device: &mut GpuDevice, desc: &KernelDesc) -> Result<()> {
        let metrics = device.account(desc)?;
        self.time += metrics.time;
        self.interconnect_bytes += metrics.interconnect_bytes;
        // Launch latency is the fixed dispatch cost; everything else in the
        // launch is data movement (or compute hidden behind it).
        self.breakdown.overhead_secs += metrics.launch_overhead.as_secs_f64();
        self.breakdown.stream_secs += metrics.time.saturating_sub(metrics.launch_overhead).as_secs_f64();
        self.breakdown.compute_secs += metrics.compute_time.as_secs_f64();
        self.kernels.push(metrics);
        Ok(())
    }

    /// Charges an explicit host↔device transfer on `device`.
    fn transfer(&mut self, device: &mut GpuDevice, bytes: u64, direction: TransferDirection) {
        let copy = device.memcpy(bytes, direction);
        self.time += copy;
        self.breakdown.stream_secs += copy.as_secs_f64();
        self.interconnect_bytes += bytes;
    }
}

/// The device mix plus the registration maps it owns — everything a kernel
/// charge or buffer (de)allocation mutates, behind one short-lived lock.
/// Execution holds this lock only while *charging* simulated kernels
/// (microseconds of bookkeeping); the host-side data path — the real
/// wall-clock work — runs between lock sessions so concurrent queries
/// overlap.
struct SiteState {
    devices: Vec<GpuDevice>,
    /// Registered column buffers: (table tag, device, attr) -> buffer.
    buffers: BTreeMap<(usize, usize, usize), BufferId>,
    /// Registered whole-shard buffers for NSM tables: (tag, device) -> buffer.
    nsm_buffers: BTreeMap<(usize, usize), BufferId>,
    /// Rows each device holds of a registered table: tag -> per-device rows.
    shard_rows: BTreeMap<usize, Vec<u64>>,
}

impl SiteState {
    /// Frees every buffer one table registered, across all devices.
    fn free_tag(&mut self, tag: usize) {
        let cols: Vec<(usize, usize, usize)> = self.buffers.keys().filter(|(t, _, _)| *t == tag).copied().collect();
        for key in cols {
            if let Some(id) = self.buffers.remove(&key) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "unregister is best-effort: the id was minted at registration and a failed free has no caller-visible remedy."
                )]
                let _ = self.devices[key.1].memory_mut().free(id);
            }
        }
        let nsm: Vec<(usize, usize)> = self.nsm_buffers.keys().filter(|(t, _)| *t == tag).copied().collect();
        for key in nsm {
            if let Some(id) = self.nsm_buffers.remove(&key) {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "unregister is best-effort: the id was minted at registration and a failed free has no caller-visible remedy."
                )]
                let _ = self.devices[key.1].memory_mut().free(id);
            }
        }
        self.shard_rows.remove(&tag);
    }

    fn device_shard_rows(&self, handle: RegisteredTable) -> Result<&Vec<u64>> {
        self.shard_rows
            .get(&handle.tag())
            .ok_or_else(|| H2Error::InvalidKernel("table not registered with the GPU site".into()))
    }

    /// The buffer and access pattern device `d`'s kernels use to read `attr`
    /// of its shard of the table.
    fn read_plan(
        &self,
        handle: RegisteredTable,
        table: &SnapshotTable,
        device: usize,
        attr: usize,
    ) -> Result<(BufferId, u64, AccessPattern)> {
        let rows = *self
            .device_shard_rows(handle)?
            .get(device)
            .ok_or_else(|| H2Error::InvalidKernel("device index out of range".into()))?;
        let buffer = match table.layout {
            Layout::Nsm => self.nsm_buffers.get(&(handle.tag(), device)),
            Layout::Dsm | Layout::Pax { .. } => self.buffers.get(&(handle.tag(), device, attr)),
        };
        let buffer = *buffer.ok_or_else(|| H2Error::InvalidKernel("shard not registered".into()))?;
        let (useful, pattern) = layout_read(table, rows, attr)?;
        Ok((buffer, useful, pattern))
    }
}

/// Kernel-at-a-time OLAP executor over a mix of simulated GPUs that shard
/// every registered table — the one implementation behind both GPU
/// placement targets. The constructor fixes which target the site serves:
/// [`GpuOlapEngine::new`] is the single GPU of the data-parallel archipelago
/// ([`OlapTarget::Gpu`]), [`GpuOlapEngine::sharded`] /
/// [`GpuOlapEngine::from_specs`] a device mix ([`OlapTarget::MultiGpu`]).
///
/// Concurrent: the device mix and registration maps live behind one mutex
/// ([`SiteState`]), held only across kernel-charge bookkeeping; the
/// host-side data path runs between lock sessions.
pub struct GpuOlapEngine {
    target: OlapTarget,
    label: &'static str,
    placement: DataPlacement,
    /// Number of devices (= shards per table); fixed at construction.
    device_count: usize,
    devs: Mutex<SiteState>,
    /// Monotonic tag generator for registered tables.
    next_tag: AtomicUsize,
    /// Snapshot-keyed plan-data cache for the host-side data path (the
    /// engine's shared one after [`GpuOlapEngine::with_shared`], private
    /// otherwise).
    cache: PlanDataCache,
    /// Trace handle; disabled (no-op) unless the engine shared one.
    tracer: Tracer,
}

impl GpuOlapEngine {
    fn over(target: OlapTarget, label: &'static str, devices: Vec<GpuDevice>, placement: DataPlacement) -> Self {
        Self {
            target,
            label,
            placement,
            device_count: devices.len(),
            devs: Mutex::new(SiteState {
                devices,
                buffers: BTreeMap::new(),
                nsm_buffers: BTreeMap::new(),
                shard_rows: BTreeMap::new(),
            }),
            next_tag: AtomicUsize::new(0),
            cache: PlanDataCache::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Creates the single-GPU site ([`OlapTarget::Gpu`]) on `device` with the
    /// given data placement: the mix of one device, which holds every chunk.
    pub fn new(device: GpuDevice, placement: DataPlacement) -> Self {
        Self::over(OlapTarget::Gpu, "gpu", vec![device], placement)
    }

    /// Creates the multi-GPU site ([`OlapTarget::MultiGpu`]) over `devices`
    /// with the given (shared) data placement. At least one device is
    /// required.
    pub fn sharded(devices: Vec<GpuDevice>, placement: DataPlacement) -> Result<Self> {
        if devices.is_empty() {
            return Err(H2Error::Config("a multi-GPU site needs at least one device".into()));
        }
        Ok(Self::over(OlapTarget::MultiGpu, "multi-gpu", devices, placement))
    }

    /// [`GpuOlapEngine::sharded`] from catalogue specs (e.g. a Table 1 mix).
    pub fn from_specs(specs: Vec<h2tap_gpu_sim::GpuSpec>, placement: DataPlacement) -> Result<Self> {
        Self::sharded(specs.into_iter().map(GpuDevice::new).collect(), placement)
    }

    /// Builds the site into an engine: it answers from the engine's shared
    /// plan-data cache and records into the engine's tracer from here on.
    pub fn with_shared(mut self, cache: PlanDataCache, tracer: Tracer) -> Self {
        self.cache = cache.traced(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Bytes currently allocated on each device (registered tables plus any
    /// live scratch), in shard order.
    pub fn device_used_bytes(&self) -> Vec<u64> {
        self.devs.lock().devices.iter().map(|d| d.memory().used_bytes()).collect()
    }

    fn execute_inner(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
        scratch: &mut Vec<(usize, BufferId)>,
    ) -> Result<PlanOutcome> {
        operators::check_plan_tables(probe_table, build.map(|(_, t)| t), plan)?;
        let n = self.device_count;

        // ---- Device-lock session 1: the up-front reservations. ----
        let mut state = self.devs.lock();
        let per_probe = state.device_shard_rows(probe)?.clone();
        let per_build = match build {
            Some((handle, _)) => Some(state.device_shard_rows(handle)?.clone()),
            None => None,
        };

        // Reserve every *probing* device's hash replica up front at the
        // worst-case size (same bound the placement footprint check uses):
        // an out-of-memory mix fails here, before the host-side join is
        // computed, so the dispatch-level CPU fallback pays once. Devices
        // whose probe shard is empty never read the replica, so they neither
        // reserve it nor join the all-gather — an idle low-memory card must
        // not be able to OOM a plan it does no work for.
        let hash_bytes = match (&plan.join, build) {
            (Some(_), Some((_, build_table))) => {
                Some(plan.hash_table_bytes(build_table.row_count()).max(HASH_ENTRY_BYTES))
            }
            _ => None,
        };
        let mut hash_bufs: Vec<Option<BufferId>> = vec![None; n];
        if let Some(bytes) = hash_bytes {
            let placement = self.placement;
            for (d, slot) in hash_bufs.iter_mut().enumerate() {
                if per_probe[d] == 0 {
                    continue;
                }
                let id = register_bytes(&mut state.devices[d], placement, &format!("plan.hash.d{d}"), bytes)?;
                scratch.push((d, id));
                *slot = Some(id);
            }
        }
        drop(state);

        // Host-side data path, shared with the other sites so results are
        // byte-identical: materialise, build the hash table, evaluate the
        // fixed chunks in ascending order, merge in chunk order. Per-device
        // row counters fall out of the same chunk partials via the shard
        // assignment, so the kernels below charge exactly the rows each
        // device would process. Runs with the device lock *released*: this
        // is the real wall-clock work, and concurrent queries must overlap
        // here.
        let data = self.cache.prepare_plan(probe_table, build.map(|(_, t)| t), plan)?;
        let eval = operators::evaluate_plan(&data, plan, 1, false, &self.tracer, self.target);
        let mut selected_d = vec![0u64; n];
        let mut joined_d = vec![0u64; n];
        let mut chunks_d = vec![0u64; n];
        for (i, chunk) in eval.chunk_totals.iter().enumerate() {
            let d = chunk_shard(i, n);
            selected_d[d] += chunk.selected;
            joined_d[d] += chunk.joined;
            chunks_d[d] += 1;
        }
        let n_groups = eval.groups.len().max(1) as u64;
        let group_entry_bytes = (2 + plan.aggregates.len() as u64) * 8;
        let build_rows_total: u64 = per_build.as_ref().map_or(0, |p| p.iter().sum());

        let mut kernels = Vec::new();
        let mut interconnect_bytes = 0u64;
        let mut critical = DeviceRun::default();
        let probe_rows_total = probe_table.row_count();

        // ---- Device-lock session 2: the selectivity-dependent charges. ----
        let mut state = self.devs.lock();
        for d in 0..n {
            let rows_d = per_probe[d];
            let build_rows_d = per_build.as_ref().map_or(0, |p| p[d]);
            if rows_d == 0 && build_rows_d == 0 {
                continue;
            }
            let mut run = DeviceRun::default();

            // Explicit-copy placement pays each device's shard transfers.
            if probe.explicit_copy() && rows_d > 0 {
                let bytes =
                    explicit_copy_bytes(probe_table, rows_d, plan.probe_scan_bytes(&probe_table.schema, rows_d));
                run.transfer(&mut state.devices[d], bytes, TransferDirection::HostToDevice);
            }
            if let Some((build_handle, build_table)) = build {
                if build_handle.explicit_copy() && build_rows_d > 0 {
                    let bytes = explicit_copy_bytes(
                        build_table,
                        build_rows_d,
                        plan.build_scan_bytes(&build_table.schema, build_rows_d),
                    );
                    run.transfer(&mut state.devices[d], bytes, TransferDirection::HostToDevice);
                }
            }

            // Selection kernels over the probe shard.
            if rows_d > 0 {
                for (i, pred) in plan.predicates.iter().enumerate() {
                    let (buffer, useful, pattern) = state.read_plan(probe, probe_table, d, pred.column)?;
                    let desc = KernelDesc::new(format!("select_{i}.d{d}"), rows_d)
                        .flops_per_element(2.0)
                        .read(buffer, useful, pattern)
                        .write(rows_d.div_ceil(8));
                    run.charge(&mut state.devices[d], &desc)?;
                }
            }

            // Join kernels: local hash build over the device's build shard,
            // all-gather of the remote partials into a full replica, then
            // data-dependent probes of the replica over the probe shard.
            if let (Some(join), Some((build_handle, build_table)), Some(bytes)) = (&plan.join, build, hash_bytes) {
                // The device's proportional share of the replica; the u128
                // intermediate keeps `bytes * rows` from overflowing for
                // billion-row build sides (bytes is itself O(build rows)).
                let local_hash = (u128::from(bytes) * u128::from(build_rows_d))
                    .checked_div(u128::from(build_rows_total))
                    .unwrap_or(0) as u64;
                if build_rows_d > 0 {
                    let mut desc = KernelDesc::new(format!("hash_build.d{d}"), build_rows_d)
                        .flops_per_element(4.0)
                        .write(local_hash.max(HASH_ENTRY_BYTES));
                    for &attr in &plan.build_columns_accessed() {
                        let (buffer, useful, pattern) = state.read_plan(build_handle, build_table, d, attr)?;
                        desc = desc.read(buffer, useful, pattern);
                    }
                    run.charge(&mut state.devices[d], &desc)?;
                }
                // All-gather: the fraction of the replica this *probing*
                // device did not build locally crosses its interconnect.
                // Build-only devices just contribute their partial; the
                // receive cost lands on the probing side.
                let gathered = bytes.saturating_sub(local_hash);
                if rows_d > 0 && n > 1 && gathered > 0 {
                    run.transfer(&mut state.devices[d], gathered, TransferDirection::HostToDevice);
                }
                if rows_d > 0 {
                    let hash_buf = hash_bufs[d].ok_or_else(|| {
                        H2Error::InvalidKernel(format!("hash replica missing on device {d} for a join plan"))
                    })?;
                    let (key_buf, key_useful, key_pattern) =
                        state.read_plan(probe, probe_table, d, join.probe_column)?;
                    let probe_desc = KernelDesc::new(format!("hash_probe.d{d}"), rows_d)
                        .flops_per_element(6.0)
                        .read(key_buf, key_useful, key_pattern)
                        .read(
                            hash_buf,
                            selected_d[d].max(1) * HASH_ENTRY_BYTES,
                            AccessPattern::Random { elem_bytes: HASH_ENTRY_BYTES as u32 },
                        )
                        .write(rows_d.div_ceil(8));
                    run.charge(&mut state.devices[d], &probe_desc)?;
                }
            }

            // Aggregation over the probe shard: a register reduction for a
            // scan-shaped plan, otherwise partial aggregation into a
            // per-device arena plus a per-device merge of its chunk
            // partials. The (tiny) per-device results merge on the host in
            // ascending chunk order.
            if rows_d > 0 {
                let result_bytes = if reduces_in_registers(plan) {
                    let desc = register_aggregate_desc(format!("aggregate.d{d}"), rows_d, plan, |attr| {
                        state.read_plan(probe, probe_table, d, attr)
                    })?;
                    run.charge(&mut state.devices[d], &desc)?;
                    desc.write_bytes
                } else {
                    let arena_bytes = chunks_d[d].max(1) * n_groups * group_entry_bytes;
                    let arena_buf = register_bytes(
                        &mut state.devices[d],
                        self.placement,
                        &format!("plan.groups.d{d}"),
                        arena_bytes,
                    )?;
                    scratch.push((d, arena_buf));
                    let mut agg_desc = KernelDesc::new(format!("partial_aggregate.d{d}"), rows_d)
                        .flops_per_element(2.0 + plan.aggregates.len() as f64)
                        .write(arena_bytes);
                    for attr in arena_aggregate_columns(plan) {
                        let (buffer, useful, pattern) = state.read_plan(probe, probe_table, d, attr)?;
                        agg_desc = agg_desc.read(buffer, useful, pattern);
                    }
                    if plan.group_by.is_some() {
                        agg_desc = agg_desc.read(
                            arena_buf,
                            joined_d[d].max(1) * group_entry_bytes,
                            AccessPattern::Random { elem_bytes: group_entry_bytes as u32 },
                        );
                    }
                    run.charge(&mut state.devices[d], &agg_desc)?;

                    let merge_desc = KernelDesc::new(format!("merge_groups.d{d}"), (chunks_d[d] * n_groups).max(1))
                        .flops_per_element(1.0 + plan.aggregates.len() as f64)
                        .read(arena_buf, arena_bytes, AccessPattern::Sequential)
                        .write(n_groups * group_entry_bytes);
                    run.charge(&mut state.devices[d], &merge_desc)?;
                    merge_desc.write_bytes
                };

                if probe.explicit_copy() {
                    run.transfer(&mut state.devices[d], result_bytes, TransferDirection::DeviceToHost);
                }
            }

            kernels.append(&mut run.kernels);
            interconnect_bytes += run.interconnect_bytes;
            if run.time > critical.time {
                critical = run;
            }
        }
        drop(state);

        debug_assert_eq!(per_probe.iter().sum::<u64>(), probe_rows_total, "the shard is a partition of the rows");

        Ok(PlanOutcome {
            groups: eval.groups,
            qualifying_rows: eval.totals.joined,
            grouped: plan.group_by.is_some(),
            time: critical.time,
            kernels,
            interconnect_bytes,
            breakdown: critical.breakdown,
            site: self.target,
        })
    }
}

impl ExecutionSite for GpuOlapEngine {
    fn target(&self) -> OlapTarget {
        self.target
    }

    fn label(&self) -> &'static str {
        self.label
    }

    /// Registers the columns of `table` according to the placement policy,
    /// sharded chunk-wise across the devices. Registration is all-or-nothing
    /// across the whole mix: if any device rejects a buffer (out of memory),
    /// everything registered so far — on every device — is freed again.
    /// Callers retry on every OOM fallback, so a partial registration must
    /// not keep eating capacity until the next snapshot refresh.
    fn register_table(&self, table: &SnapshotTable, label: &str) -> Result<RegisteredTable> {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let per_device = shard_rows(table.row_count(), self.device_count);
        let explicit_copy = matches!(self.placement, DataPlacement::Host(AccessMode::Memcpy));
        let arity = table.schema.arity();
        let placement = self.placement;
        let mut state = self.devs.lock();
        let registered = (|| -> Result<()> {
            for (d, &rows) in per_device.iter().enumerate() {
                if rows == 0 {
                    continue;
                }
                match table.layout {
                    Layout::Nsm => {
                        let bytes = rows * table.schema.record_width() as u64;
                        let id =
                            register_bytes(&mut state.devices[d], placement, &format!("{label}.d{d}.rows"), bytes)?;
                        state.nsm_buffers.insert((tag, d), id);
                    }
                    Layout::Dsm | Layout::Pax { .. } => {
                        for attr in 0..arity {
                            let width = table.schema.attr(attr)?.ty.width() as u64;
                            let id = register_bytes(
                                &mut state.devices[d],
                                placement,
                                &format!("{label}.d{d}.col{attr}"),
                                rows * width,
                            )?;
                            state.buffers.insert((tag, d, attr), id);
                        }
                    }
                }
            }
            Ok(())
        })();
        match registered {
            Ok(()) => {
                state.shard_rows.insert(tag, per_device);
                Ok(RegisteredTable::site(tag, explicit_copy))
            }
            Err(err) => {
                state.free_tag(tag);
                Err(err)
            }
        }
    }

    /// Frees every registration on every device (snapshot refresh).
    fn reset_tables(&self) {
        let mut state = self.devs.lock();
        let tags: Vec<usize> = state.shard_rows.keys().copied().collect();
        for tag in tags {
            state.free_tag(tag);
        }
    }

    /// Frees one table's buffers across the mix (failed-attempt rollback).
    fn unregister_table(&self, handle: RegisteredTable) {
        self.devs.lock().free_tag(handle.tag());
    }

    /// Executes a relational plan kernel-at-a-time with the replicated-build
    /// join: per-device selection over the probe shard, local hash build over
    /// the build shard, an all-gather that replicates the hash table on every
    /// device (interconnect traffic for the remote fraction), per-device
    /// probes whose table lookups are data-dependent
    /// [`AccessPattern::Random`] reads — the pattern whose coalescing penalty
    /// separates plan placement from scan placement — aggregation, and a
    /// chunk-ordered merge. The devices run concurrently, so the site charges
    /// the slowest one. The hash replicas and partial-group arenas are
    /// registered as scratch buffers under the site's data placement (the
    /// Caldera prototype keeps "all input, intermediate, and output data" in
    /// UVA), so under host placement every probe crosses the interconnect
    /// while device-resident placement pays only the capped
    /// device-transaction waste. The group rows are byte-identical to the CPU
    /// site's because the real answer comes from the shared [`operators`]
    /// pipeline over all chunks in ascending order.
    fn execute(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome> {
        let mut scratch: Vec<(usize, BufferId)> = Vec::new();
        let result = self.execute_inner(probe, probe_table, build, plan, &mut scratch);
        // Scratch (hash replicas, partial-group arenas) lives only for the
        // query; free it even on error so an OOM mid-plan does not leak.
        let mut state = self.devs.lock();
        for (d, id) in scratch {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "scratch cleanup must not mask the query result (including a mid-plan OOM) with a secondary free failure."
            )]
            let _ = state.devices[d].memory_mut().free(id);
        }
        drop(state);
        let out = result?;
        emit_execution_spans(&self.tracer, &out);
        Ok(out)
    }

    /// The smallest free device memory across the mix — the headroom any
    /// *replicated* per-device structure (the join hash table) must fit.
    /// Deliberately a minimum, never a sum: device capacities do not pool,
    /// and summing would let one device reporting "unknown" saturate the
    /// aggregate (the multi-device semantics of `gpu_free_bytes`).
    fn free_device_bytes(&self) -> Option<u64> {
        Some(self.devs.lock().devices.iter().map(|d| d.memory().free_bytes()).min().unwrap_or(0))
    }

    /// Weighted across the whole mix for Unified Memory placements.
    fn resident_fraction(&self) -> f64 {
        let state = self.devs.lock();
        let columns = state.buffers.iter().map(|((_, d, _), id)| (*d, *id));
        let shards = columns.chain(state.nsm_buffers.iter().map(|((_, d), id)| (*d, *id)));
        resident_fraction(self.placement, shards.map(|(d, id)| (state.devices[d].memory(), id)))
    }

    fn capability(&self) -> SiteCapability {
        let n = self.device_count as f64;
        let resident = self.resident_fraction();
        let state = self.devs.lock();
        SiteCapability::Gpu {
            target: self.target,
            devices: state
                .devices
                .iter()
                .map(|dev| GpuDeviceCapability {
                    spec: dev.spec().clone(),
                    // Steady-state round-robin share; tiny tables (fewer
                    // chunks than devices) skew toward device 0, but those
                    // are overhead-dominated and route to the CPU anyway.
                    shard_fraction: 1.0 / n,
                    resident_fraction: resident,
                    free_bytes: Some(dev.memory().free_bytes()),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, PartitionId, PlanColumn, Predicate, ScanAggQuery, Schema, Value};
    use h2tap_gpu_sim::GpuSpec;
    use h2tap_storage::{Database, Layout};

    fn snapshot_table(layout: Layout, rows: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("k", AttrType::Int64),
            h2tap_common::Attribute::new("bucket", AttrType::Int32),
            h2tap_common::Attribute::new("price", AttrType::Float64),
        ])
        .unwrap();
        let t = db.create_table("t", schema, layout).unwrap();
        for i in 0..rows {
            db.insert(
                PartitionId(0),
                t,
                &[Value::Int64(i), Value::Int32((i % 10) as i32), Value::Float64(i as f64 * 0.1)],
            )
            .unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    /// Runs `query` as the scan-shaped plan it is, on either GPU-family site.
    fn scan(
        site: &dyn ExecutionSite,
        handle: RegisteredTable,
        table: &SnapshotTable,
        query: &ScanAggQuery,
    ) -> Result<crate::engine::OlapOutcome> {
        site.execute(handle, table, None, &OlapPlan::scan(query)).map(PlanOutcome::into_scan_outcome)
    }

    fn bucket_query() -> ScanAggQuery {
        ScanAggQuery { predicates: vec![Predicate::between(1, 0.0, 4.0)], aggregate: AggExpr::SumProduct(1, 2) }
    }

    fn mix(n: usize) -> Vec<GpuDevice> {
        h2tap_gpu_sim::table1_mix(n).into_iter().map(GpuDevice::new).collect()
    }

    #[test]
    fn shard_rows_is_a_partition_with_exact_boundaries() {
        // Empty table: all-zero shards.
        assert_eq!(shard_rows(0, 3), vec![0, 0, 0]);
        // One-chunk table: everything on device 0.
        assert_eq!(shard_rows(1_000, 3), vec![1_000, 0, 0]);
        // Exact chunk multiple: full chunks only, round-robin.
        let rows = (PLAN_CHUNK_ROWS * 4) as u64;
        assert_eq!(shard_rows(rows, 2), vec![rows / 2, rows / 2]);
        // Partial tail chunk lands where the round-robin says.
        let rows = (PLAN_CHUNK_ROWS * 2 + 17) as u64;
        let per = shard_rows(rows, 2);
        assert_eq!(per.iter().sum::<u64>(), rows);
        assert_eq!(per[0], (PLAN_CHUNK_ROWS + 17) as u64);
    }

    #[test]
    fn answers_are_byte_identical_to_the_single_gpu_site() {
        let table = snapshot_table(Layout::Dsm, 200_000);
        let query = bucket_query();
        let single = GpuOlapEngine::new(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(AccessMode::Uva));
        let h = single.register_table(&table, "t").unwrap();
        let reference = scan(&single, h, &table, &query).unwrap();
        for n in 1..=5 {
            let multi = GpuOlapEngine::sharded(mix(n), DataPlacement::Host(AccessMode::Uva)).unwrap();
            let mh = multi.register_table(&table, "t").unwrap();
            let out = scan(&multi, mh, &table, &query).unwrap();
            assert_eq!(out.value.to_bits(), reference.value.to_bits(), "{n} devices");
            assert_eq!(out.qualifying_rows, reference.qualifying_rows);
            assert_eq!(out.site, OlapTarget::MultiGpu);
        }
    }

    #[test]
    fn more_devices_cut_the_critical_path() {
        let table = snapshot_table(Layout::Dsm, 500_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 2]));
        let time = |n: usize| {
            let devices = (0..n).map(|_| GpuDevice::new(GpuSpec::gtx_980())).collect();
            let eng = GpuOlapEngine::sharded(devices, DataPlacement::DeviceResident).unwrap();
            let h = eng.register_table(&table, "t").unwrap();
            scan(&eng, h, &table, &query).unwrap().time.as_secs_f64()
        };
        let one = time(1);
        let four = time(4);
        assert!(four < one * 0.6, "4 devices {four} should substantially beat 1 device {one}");
    }

    #[test]
    fn a_slow_generation_bounds_the_mix() {
        let table = snapshot_table(Layout::Dsm, 500_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 2]));
        let time = |specs: Vec<GpuSpec>| {
            let eng = GpuOlapEngine::from_specs(specs, DataPlacement::DeviceResident).unwrap();
            let h = eng.register_table(&table, "t").unwrap();
            scan(&eng, h, &table, &query).unwrap().time.as_secs_f64()
        };
        let fast_pair = time(vec![GpuSpec::gtx_980_ti(), GpuSpec::gtx_980_ti()]);
        let mixed_pair = time(vec![GpuSpec::gtx_980_ti(), GpuSpec::gtx_580()]);
        assert!(mixed_pair > fast_pair, "the GTX 580 shard must bound the mix: {mixed_pair} vs {fast_pair}");
    }

    #[test]
    fn failed_registration_frees_partial_allocations_on_every_device() {
        let table = snapshot_table(Layout::Dsm, 400_000); // > 2 chunks, ~8 MB
        let mut small = GpuSpec::gtx_980();
        small.mem_capacity_mib = 1; // second device cannot hold its shard
        let devices = vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(small)];
        let eng = GpuOlapEngine::sharded(devices, DataPlacement::DeviceResident).unwrap();
        assert!(eng.register_table(&table, "t").is_err());
        for (d, used) in eng.device_used_bytes().iter().enumerate() {
            assert_eq!(*used, 0, "device {d} must not strand shard buffers");
        }
    }

    #[test]
    fn free_device_bytes_is_the_min_across_the_mix() {
        let mut small = GpuSpec::gtx_980();
        small.mem_capacity_mib = 64;
        let devices = vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(small)];
        let eng = GpuOlapEngine::sharded(devices, DataPlacement::DeviceResident).unwrap();
        assert_eq!(ExecutionSite::free_device_bytes(&eng), Some(64 * 1024 * 1024));
        match ExecutionSite::capability(&eng) {
            SiteCapability::Gpu { target, devices } => {
                assert_eq!(target, OlapTarget::MultiGpu);
                assert_eq!(devices.len(), 2);
                assert!(devices.iter().all(|d| (d.shard_fraction - 0.5).abs() < 1e-12));
                assert_eq!(devices[1].free_bytes, Some(64 * 1024 * 1024));
            }
            other => panic!("multi-GPU capability must be a GPU site: {other:?}"),
        }
    }

    #[test]
    fn join_plans_match_the_single_gpu_site_byte_for_byte() {
        let probe = snapshot_table(Layout::Dsm, 150_000);
        let db = Database::new(1);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let t = db.create_table("dim", schema, Layout::Dsm).unwrap();
        for i in 0..10i64 {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int32(i as i32), Value::Int32((i % 3) as i32)])
                .unwrap();
        }
        let build = db.snapshot().table(t).unwrap().clone();
        let plan = OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec {
                probe_column: 1,
                build_key: 0,
                build_predicates: vec![Predicate::between(1, 0.0, 4.0)],
            }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count],
        };
        let single = GpuOlapEngine::new(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(AccessMode::Uva));
        let ph = single.register_table(&probe, "fact").unwrap();
        let bh = single.register_table(&build, "dim").unwrap();
        let reference = single.execute(ph, &probe, Some((bh, &build)), &plan).unwrap();
        for n in [2usize, 3, 5] {
            let multi = GpuOlapEngine::sharded(mix(n), DataPlacement::Host(AccessMode::Uva)).unwrap();
            let mph = multi.register_table(&probe, "fact").unwrap();
            let mbh = multi.register_table(&build, "dim").unwrap();
            let out = multi.execute(mph, &probe, Some((mbh, &build)), &plan).unwrap();
            assert_eq!(out.groups, reference.groups, "{n} devices");
            assert_eq!(out.qualifying_rows, reference.qualifying_rows);
        }
    }

    #[test]
    fn idle_devices_do_not_reserve_hash_replicas() {
        // All probe work lands on device 0 (one-chunk probe table); device 1
        // only holds a build shard and is too small for the full hash
        // replica (70k entries x 16 B > 1 MiB). The plan must still run: a
        // device that never probes the replica must not reserve it — an
        // idle low-memory card cannot OOM a plan it does no work for.
        let probe = snapshot_table(Layout::Dsm, 1_000);
        let db = Database::new(1);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let t = db.create_table("dim", schema, Layout::Dsm).unwrap();
        for i in 0..70_000i64 {
            db.insert(
                PartitionId(0),
                t,
                &[Value::Int64(i), Value::Int32((i % 5) as i32), Value::Int32((i % 3) as i32)],
            )
            .unwrap();
        }
        let build = db.snapshot().table(t).unwrap().clone();
        let mut tiny = GpuSpec::gtx_980();
        tiny.mem_capacity_mib = 1;
        let eng = GpuOlapEngine::sharded(
            vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(tiny)],
            DataPlacement::DeviceResident,
        )
        .unwrap();
        let ph = eng.register_table(&probe, "fact").unwrap();
        let bh = eng.register_table(&build, "dim").unwrap();
        let plan = OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::Count],
        };
        let out = eng.execute(ph, &probe, Some((bh, &build)), &plan).unwrap();
        assert_eq!(out.qualifying_rows, 1_000, "every probe row joins a unique build key");
    }

    #[test]
    fn plan_scratch_is_freed_on_every_device() {
        let probe = snapshot_table(Layout::Dsm, 150_000);
        let eng = GpuOlapEngine::sharded(
            vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(GpuSpec::gtx_980())],
            DataPlacement::DeviceResident,
        )
        .unwrap();
        let h = eng.register_table(&probe, "t").unwrap();
        let before = eng.device_used_bytes();
        let plan = OlapPlan {
            predicates: vec![Predicate::between(1, 0.0, 4.0)],
            join: None,
            group_by: Some(PlanColumn::Probe(1)),
            aggregates: vec![AggExpr::SumColumns(vec![2])],
        };
        eng.execute(h, &probe, None, &plan).unwrap();
        let after = eng.device_used_bytes();
        assert_eq!(before, after, "group arenas must be freed on every device");
        eng.unregister_table(h);
        assert!(eng.device_used_bytes().iter().all(|&used| used == 0));
    }

    #[test]
    fn empty_tables_are_rejected_like_every_other_site() {
        let table = snapshot_table(Layout::Dsm, 0);
        let eng = GpuOlapEngine::sharded(mix(2), DataPlacement::Host(AccessMode::Uva)).unwrap();
        let h = eng.register_table(&table, "t").unwrap();
        assert!(scan(&eng, h, &table, &bucket_query()).is_err());
    }

    #[test]
    fn a_site_needs_at_least_one_device() {
        assert!(GpuOlapEngine::sharded(Vec::new(), DataPlacement::DeviceResident).is_err());
    }
}
