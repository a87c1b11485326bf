//! The multi-GPU OLAP executor: one execution site that shards every
//! registered table's chunks across several — possibly heterogeneous —
//! simulated GPUs and runs them in parallel.
//!
//! Table 1 of the paper catalogues five GPU generations precisely because
//! real deployments mix them: cards are added over the years, so a
//! data-parallel archipelago rarely owns `n` identical devices. This site
//! makes that mix a first-class placement target. The sharding contract is
//! the same fixed-chunk contract every other site already obeys:
//!
//! * tables are split into [`h2tap_common::PLAN_CHUNK_ROWS`]-row chunks in
//!   storage order,
//! * chunk `i` is assigned to device [`h2tap_common::chunk_shard`]`(i, n)` —
//!   a round-robin **partition** (every chunk on exactly one device, shards
//!   disjoint, union covers the table),
//! * per-chunk partials always merge in **ascending chunk order** no matter
//!   which device produced them or when it finished.
//!
//! Because the host-side data path is the shared [`operators`] pipeline over
//! all chunks in ascending order, plan group rows (a scan's scalar included)
//! are **byte-identical** to the CPU and single-GPU sites for any
//! device mix and shard count. What differs is the simulated cost: each
//! device is charged its own kernels over its own shard, the devices run
//! concurrently, and the site reports the **critical path** — the slowest
//! device's time — which is why a fast+slow generation mix is bound by its
//! slow card rather than its aggregate bandwidth.
//!
//! Joins follow the replicated-build pattern real multi-GPU engines use:
//! every device builds a partial hash table from its *local* build-side
//! shard, the partials are all-gathered so each device holds a full replica
//! (charged as interconnect traffic for the remote fraction), and each
//! device probes its own probe-side shard with data-dependent random reads
//! against its replica. The replica is why the placement footprint check is
//! against the **minimum per-device** free memory, not the sum.

use crate::cache::PlanDataCache;
use crate::engine::{
    arena_aggregate_columns, explicit_copy_bytes, layout_read, reduces_in_registers, register_aggregate_desc,
    register_bytes, resident_fraction, DataPlacement, PlanOutcome, RegisteredTable,
};
use crate::operators;
use crate::site::{emit_execution_spans, ExecutionSite};
use h2tap_common::{
    chunk_shard, ExecBreakdown, H2Error, OlapPlan, Result, SimDuration, HASH_ENTRY_BYTES, PLAN_CHUNK_ROWS,
};
use h2tap_gpu_sim::{AccessMode, AccessPattern, BufferId, GpuDevice, KernelDesc, KernelMetrics, TransferDirection};
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

/// Per-device accumulator for one query execution: the device's simulated
/// time and its contribution to the cost-model terms.
#[derive(Debug, Clone, Default)]
struct DeviceRun {
    time: SimDuration,
    breakdown: ExecBreakdown,
}

/// The device mix plus the registration maps it owns — everything a kernel
/// charge or buffer (de)allocation mutates, behind one short-lived lock.
/// Execution holds this lock only while *charging* simulated kernels; the
/// host-side data path — the real wall-clock work — runs between lock
/// sessions so concurrent queries overlap.
struct MultiGpuSiteState {
    devices: Vec<GpuDevice>,
    /// Registered column buffers: (table tag, device, attr) -> buffer.
    buffers: BTreeMap<(usize, usize, usize), BufferId>,
    /// Registered whole-shard buffers for NSM tables: (tag, device) -> buffer.
    nsm_buffers: BTreeMap<(usize, usize), BufferId>,
    /// Rows each device holds of a registered table: tag -> per-device rows.
    shard_rows: BTreeMap<usize, Vec<u64>>,
}

impl MultiGpuSiteState {
    /// Frees every buffer one table registered, across all devices.
    fn free_tag(&mut self, tag: usize) {
        let cols: Vec<(usize, usize, usize)> = self.buffers.keys().filter(|(t, _, _)| *t == tag).copied().collect();
        for key in cols {
            if let Some(id) = self.buffers.remove(&key) {
                // h2tap: allow(error_swallow) — unregister is best-effort: the id was minted at registration and a failed free has no caller-visible remedy.
                let _ = self.devices[key.1].memory_mut().free(id);
            }
        }
        let nsm: Vec<(usize, usize)> = self.nsm_buffers.keys().filter(|(t, _)| *t == tag).copied().collect();
        for key in nsm {
            if let Some(id) = self.nsm_buffers.remove(&key) {
                // h2tap: allow(error_swallow) — unregister is best-effort: the id was minted at registration and a failed free has no caller-visible remedy.
                let _ = self.devices[key.1].memory_mut().free(id);
            }
        }
        self.shard_rows.remove(&tag);
    }

    fn device_shard_rows(&self, handle: RegisteredTable) -> Result<&Vec<u64>> {
        self.shard_rows
            .get(&handle.tag())
            .ok_or_else(|| H2Error::InvalidKernel("table not registered with the multi-GPU site".into()))
    }

    /// The buffer and access pattern device `d`'s kernels use to read `attr`
    /// of its shard of the table — same layout model as the single-GPU
    /// site, over the shard's rows.
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

/// Kernel-at-a-time OLAP executor over several sharded simulated GPUs.
///
/// Concurrent: the device mix and registration maps live behind one mutex
/// ([`MultiGpuSiteState`]), held only across kernel-charge bookkeeping; the
/// host-side data path runs between lock sessions.
pub struct MultiGpuOlapEngine {
    placement: DataPlacement,
    /// Number of devices (= shards per table); fixed at construction.
    device_count: usize,
    devs: Mutex<MultiGpuSiteState>,
    /// Monotonic tag generator for registered tables.
    next_tag: AtomicUsize,
    /// Snapshot-keyed plan-data cache for the host-side data path (shared
    /// across all sites when built into an engine, private otherwise).
    cache: PlanDataCache,
    /// Trace handle; disabled (no-op) until the engine installs one.
    tracer: Tracer,
}

impl MultiGpuOlapEngine {
    /// Creates an executor over `devices` with the given (shared) data
    /// placement. At least one device is required.
    pub fn new(devices: Vec<GpuDevice>, placement: DataPlacement) -> Result<Self> {
        if devices.is_empty() {
            return Err(H2Error::Config("a multi-GPU site needs at least one device".into()));
        }
        Ok(Self {
            placement,
            device_count: devices.len(),
            devs: Mutex::new(MultiGpuSiteState {
                devices,
                buffers: BTreeMap::new(),
                nsm_buffers: BTreeMap::new(),
                shard_rows: BTreeMap::new(),
            }),
            next_tag: AtomicUsize::new(0),
            cache: PlanDataCache::new(),
            tracer: Tracer::disabled(),
        })
    }

    /// Creates an executor from catalogue specs (e.g. a Table 1 mix).
    pub fn from_specs(specs: Vec<h2tap_gpu_sim::GpuSpec>, placement: DataPlacement) -> Result<Self> {
        Self::new(specs.into_iter().map(GpuDevice::new).collect(), placement)
    }

    /// Bytes currently allocated on each device, in shard order.
    pub fn device_used_bytes(&self) -> Vec<u64> {
        self.devs.lock().devices.iter().map(|d| d.memory().used_bytes()).collect()
    }

    /// Charges one kernel to device `d`'s running totals.
    fn charge(
        device: &mut GpuDevice,
        desc: &KernelDesc,
        run: &mut DeviceRun,
        kernels: &mut Vec<KernelMetrics>,
        interconnect_bytes: &mut u64,
    ) -> Result<()> {
        let metrics = device.account(desc)?;
        run.time += metrics.time;
        *interconnect_bytes += metrics.interconnect_bytes;
        run.breakdown.overhead_secs += metrics.launch_overhead.as_secs_f64();
        run.breakdown.stream_secs += metrics.time.saturating_sub(metrics.launch_overhead).as_secs_f64();
        run.breakdown.compute_secs += metrics.compute_time.as_secs_f64();
        kernels.push(metrics);
        Ok(())
    }

    /// Charges an explicit host↔device transfer to device `d`'s totals.
    fn charge_transfer(
        device: &mut GpuDevice,
        bytes: u64,
        direction: TransferDirection,
        run: &mut DeviceRun,
        interconnect_bytes: &mut u64,
    ) {
        let copy = device.memcpy(bytes, direction);
        run.time += copy;
        run.breakdown.stream_secs += copy.as_secs_f64();
        *interconnect_bytes += bytes;
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
        let eval = operators::evaluate_plan(&data, plan, 1, false, &self.tracer, OlapTarget::MultiGpu);
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
                Self::charge_transfer(
                    &mut state.devices[d],
                    bytes,
                    TransferDirection::HostToDevice,
                    &mut run,
                    &mut interconnect_bytes,
                );
            }
            if let Some((build_handle, build_table)) = build {
                if build_handle.explicit_copy() && build_rows_d > 0 {
                    let bytes = explicit_copy_bytes(
                        build_table,
                        build_rows_d,
                        plan.build_scan_bytes(&build_table.schema, build_rows_d),
                    );
                    Self::charge_transfer(
                        &mut state.devices[d],
                        bytes,
                        TransferDirection::HostToDevice,
                        &mut run,
                        &mut interconnect_bytes,
                    );
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
                    Self::charge(&mut state.devices[d], &desc, &mut run, &mut kernels, &mut interconnect_bytes)?;
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
                    Self::charge(&mut state.devices[d], &desc, &mut run, &mut kernels, &mut interconnect_bytes)?;
                }
                // All-gather: the fraction of the replica this *probing*
                // device did not build locally crosses its interconnect.
                // Build-only devices just contribute their partial; the
                // receive cost lands on the probing side.
                let gathered = bytes.saturating_sub(local_hash);
                if rows_d > 0 && n > 1 && gathered > 0 {
                    Self::charge_transfer(
                        &mut state.devices[d],
                        gathered,
                        TransferDirection::HostToDevice,
                        &mut run,
                        &mut interconnect_bytes,
                    );
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
                    Self::charge(&mut state.devices[d], &probe_desc, &mut run, &mut kernels, &mut interconnect_bytes)?;
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
                    Self::charge(&mut state.devices[d], &desc, &mut run, &mut kernels, &mut interconnect_bytes)?;
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
                    Self::charge(&mut state.devices[d], &agg_desc, &mut run, &mut kernels, &mut interconnect_bytes)?;

                    let merge_desc = KernelDesc::new(format!("merge_groups.d{d}"), (chunks_d[d] * n_groups).max(1))
                        .flops_per_element(1.0 + plan.aggregates.len() as f64)
                        .read(arena_buf, arena_bytes, AccessPattern::Sequential)
                        .write(n_groups * group_entry_bytes);
                    Self::charge(&mut state.devices[d], &merge_desc, &mut run, &mut kernels, &mut interconnect_bytes)?;
                    merge_desc.write_bytes
                };

                if probe.explicit_copy() {
                    Self::charge_transfer(
                        &mut state.devices[d],
                        result_bytes,
                        TransferDirection::DeviceToHost,
                        &mut run,
                        &mut interconnect_bytes,
                    );
                }
            }

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
            site: OlapTarget::MultiGpu,
        })
    }
}

impl ExecutionSite for MultiGpuOlapEngine {
    fn target(&self) -> OlapTarget {
        OlapTarget::MultiGpu
    }

    fn label(&self) -> &'static str {
        "multi-gpu"
    }

    /// Registers the columns of `table`, sharded chunk-wise across the
    /// devices. Registration is all-or-nothing across the whole mix: if any
    /// device rejects its shard (out of memory), everything registered so
    /// far — on every device — is freed again, so an OOM fallback cannot
    /// strand device memory until the next snapshot refresh.
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

    /// Executes a relational plan with the replicated-build multi-GPU join:
    /// per-device selection over the probe shard, local hash build over the
    /// build shard, an all-gather that replicates the hash table on every
    /// device (interconnect traffic for the remote fraction), per-device
    /// random-access probes and aggregation, and a chunk-ordered merge. The
    /// devices run concurrently, so the site charges the slowest one. The
    /// group rows are byte-identical to the other sites because the real
    /// answer comes from the shared [`operators`] pipeline over all chunks
    /// in ascending order.
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
            // h2tap: allow(error_swallow) — scratch cleanup must not mask the query result (including a mid-plan OOM) with a secondary free failure.
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
            target: OlapTarget::MultiGpu,
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

    fn set_plan_cache(&mut self, cache: PlanDataCache) {
        self.cache = cache;
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.cache.set_tracer(tracer.clone());
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GpuOlapEngine;
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
            let multi = MultiGpuOlapEngine::new(mix(n), DataPlacement::Host(AccessMode::Uva)).unwrap();
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
            let eng = MultiGpuOlapEngine::new(devices, DataPlacement::DeviceResident).unwrap();
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
            let eng = MultiGpuOlapEngine::from_specs(specs, DataPlacement::DeviceResident).unwrap();
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
        let eng = MultiGpuOlapEngine::new(devices, DataPlacement::DeviceResident).unwrap();
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
        let eng = MultiGpuOlapEngine::new(devices, DataPlacement::DeviceResident).unwrap();
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
            let multi = MultiGpuOlapEngine::new(mix(n), DataPlacement::Host(AccessMode::Uva)).unwrap();
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
        let eng = MultiGpuOlapEngine::new(
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
        let eng = MultiGpuOlapEngine::new(
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
        let eng = MultiGpuOlapEngine::new(mix(2), DataPlacement::Host(AccessMode::Uva)).unwrap();
        let h = eng.register_table(&table, "t").unwrap();
        assert!(scan(&eng, h, &table, &bucket_query()).is_err());
    }

    #[test]
    fn a_site_needs_at_least_one_device() {
        assert!(MultiGpuOlapEngine::new(Vec::new(), DataPlacement::DeviceResident).is_err());
    }
}
