//! The GPU arm of a [`crate::Site`]: kernel-at-a-time query execution over
//! one or more — possibly heterogeneous — simulated GPUs, and the table
//! registrations in device memory that execution reads.
//!
//! "Each database operator is implemented as a collection of data-parallel
//! primitives, where each primitive is an individual CUDA kernel. OLAP
//! queries are executed by a dedicated CPU thread that executes each database
//! operator by executing the corresponding CUDA kernels one at a time while
//! using UVA to store all input, intermediate, and output data."
//!
//! The GPU arm follows that model: an [`OlapPlan`] becomes one
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
//! Caldera prototype is the mix of one ([`crate::Site::gpu`]); there is no
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
//! Because the host-side data path is the site's shared answer path over
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

use crate::engine::DataPlacement;
use crate::operators::PlanEvaluation;
use crate::site::Price;
use h2tap_common::{
    chunk_shard, ExecBreakdown, H2Error, OlapPlan, OlapTarget, PlanColumn, Result, SimDuration, HASH_ENTRY_BYTES,
    PLAN_CHUNK_ROWS,
};
use h2tap_gpu_sim::{
    AccessMode, AccessPattern, BufferId, GpuDevice, KernelDesc, KernelMetrics, MemoryManager, Residency,
    TransferDirection,
};
use h2tap_scheduler::{GpuDeviceCapability, SiteCapability};
use h2tap_storage::{Layout, SnapshotTable, SnapshotTableId};
use parking_lot::Mutex;
use std::collections::BTreeMap;

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

/// The device mix plus the tables registered on it — everything a kernel
/// charge or buffer (de)allocation mutates, behind one short-lived lock.
/// Execution holds this lock only while *registering and charging*
/// (microseconds of bookkeeping); the host-side data path — the real
/// wall-clock work — runs between lock sessions so concurrent queries
/// overlap.
struct Devices {
    devices: Vec<GpuDevice>,
    /// Registered tables, keyed by the frozen image they were registered
    /// from (database, table, epoch — a stale snapshot's registration is
    /// never reused): per device, the buffers of its shard — one
    /// whole-record buffer for a row-major table, one per attribute
    /// otherwise, none on a device that holds no rows of the table.
    tables: BTreeMap<SnapshotTableId, Vec<Vec<BufferId>>>,
}

impl Devices {
    /// Frees one buffer of device `d` — the one free path, shared by
    /// registrations and per-query scratch.
    fn free(&mut self, d: usize, id: BufferId) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "freeing is best-effort cleanup: the id was minted by this site, a failed free has no caller-visible remedy, and it must not mask the call's own result (a mid-plan OOM included)."
        )]
        let _ = self.devices[d].memory_mut().free(id);
    }

    /// Registers `table` unless it already is: its chunk shards, column by
    /// column (whole records for a row-major table), under `placement`.
    /// All-or-nothing across the mix: if any device rejects a buffer (out of
    /// memory), everything this call allocated — on every device — is freed
    /// again, since callers retry on every OOM fallback and a partial
    /// registration must not keep eating capacity until the next snapshot
    /// refresh. Returns whether this call registered the table.
    fn register(&mut self, table: &SnapshotTable, placement: DataPlacement) -> Result<bool> {
        if self.tables.contains_key(&table.identity) {
            return Ok(false);
        }
        // A row-major shard is one buffer of whole records, a columnar shard
        // one buffer per attribute: the index `read_plan` resolves.
        let widths: Vec<u64> = match table.layout {
            Layout::Nsm => vec![table.schema.record_width() as u64],
            Layout::Dsm | Layout::Pax { .. } => table.schema.attributes().iter().map(|a| a.ty.width() as u64).collect(),
        };
        let per_device = shard_rows(table.row_count(), self.devices.len());
        let mut shards = vec![Vec::new(); per_device.len()];
        let allocated = per_device.iter().enumerate().filter(|&(_, &rows)| rows > 0).try_for_each(|(d, &rows)| {
            for (i, width) in widths.iter().enumerate() {
                let label = format!("t{}.d{d}.b{i}", table.identity.table.0);
                shards[d].push(register_bytes(&mut self.devices[d], placement, &label, rows * width)?);
            }
            Ok(())
        });
        self.tables.insert(table.identity, shards);
        match allocated {
            Ok(()) => Ok(true),
            Err(err) => {
                self.unregister(table.identity);
                Err(err)
            }
        }
    }

    /// Frees every buffer one table registered, across all devices.
    fn unregister(&mut self, table: SnapshotTableId) {
        for (d, shard) in self.tables.remove(&table).into_iter().flatten().enumerate() {
            for id in shard {
                self.free(d, id);
            }
        }
    }

    /// The buffer and access pattern device `d`'s kernels use to read `attr`
    /// of its `rows`-row shard of `table`.
    fn read_plan(
        &self,
        table: &SnapshotTable,
        rows: u64,
        device: usize,
        attr: usize,
    ) -> Result<(BufferId, u64, AccessPattern)> {
        let index = match table.layout {
            Layout::Nsm => 0,
            Layout::Dsm | Layout::Pax { .. } => attr,
        };
        let buffer = *self
            .tables
            .get(&table.identity)
            .and_then(|shards| shards.get(device)?.get(index))
            .ok_or_else(|| H2Error::InvalidKernel("table not registered with the GPU site".into()))?;
        let (useful, pattern) = layout_read(table, rows, attr)?;
        Ok((buffer, useful, pattern))
    }
}

/// The GPU arm of a site's charge: kernel-at-a-time execution over a mix of
/// simulated GPUs that shard every registered table. One device is the
/// single GPU of the data-parallel archipelago ([`crate::Site::gpu`]),
/// several a device mix ([`crate::Site::sharded`]); nothing else differs.
///
/// Concurrent: the device mix and its registrations live behind one mutex,
/// held only across registration and kernel-charge bookkeeping; the
/// host-side data path runs between lock sessions.
pub(crate) struct GpuCharge {
    placement: DataPlacement,
    devs: Mutex<Devices>,
}

impl GpuCharge {
    pub(crate) fn new(devices: Vec<GpuDevice>, placement: DataPlacement) -> Self {
        Self { placement, devs: Mutex::new(Devices { devices, tables: BTreeMap::new() }) }
    }

    pub(crate) fn device_used_bytes(&self) -> Vec<u64> {
        self.devs.lock().devices.iter().map(|d| d.memory().used_bytes()).collect()
    }

    /// Frees every registration on every device (snapshot refresh).
    pub(crate) fn reset_tables(&self) {
        let mut state = self.devs.lock();
        let tables: Vec<SnapshotTableId> = state.tables.keys().copied().collect();
        for table in tables {
            state.unregister(table);
        }
    }

    /// Runs a relational plan kernel-at-a-time with the replicated-build
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
    /// device-transaction waste. The answer itself comes from `answer`, the
    /// site's shared host-side path, evaluated on one thread without zonemap
    /// skipping.
    ///
    /// Scratch lives only for the call and is freed even on error, so an OOM
    /// mid-plan does not leak; a failed call also rolls back the tables it
    /// registered, so an OOM fallback does not strand device memory until the
    /// next snapshot refresh. A concurrent call that was using a rolled-back
    /// registration gets an error, never a wrong answer.
    pub(crate) fn run(
        &self,
        probe_table: &SnapshotTable,
        build_table: Option<&SnapshotTable>,
        plan: &OlapPlan,
        answer: impl FnOnce(usize, bool) -> Result<PlanEvaluation>,
    ) -> Result<(PlanEvaluation, Price)> {
        // What this call holds on the mix until it finishes: the tables it
        // registered and its scratch buffers (hash replicas, group arenas).
        let mut registered: Vec<SnapshotTableId> = Vec::new();
        let mut scratch: Vec<(usize, BufferId)> = Vec::new();
        let result = (|| {
            // ---- Device-lock session 1: registration and the up-front reservations. ----
            let mut state = self.devs.lock();
            let n = state.devices.len();
            let explicit_copy = matches!(self.placement, DataPlacement::Host(AccessMode::Memcpy));
            let per_probe = shard_rows(probe_table.row_count(), n);
            let per_build = build_table.map(|build| shard_rows(build.row_count(), n));
            for table in std::iter::once(probe_table).chain(build_table) {
                if state.register(table, self.placement)? {
                    registered.push(table.identity);
                }
            }

            // Reserve every *probing* device's hash replica up front at the
            // worst-case size (same bound the placement footprint check uses):
            // an out-of-memory mix fails here, before the host-side join is
            // computed, so the dispatch-level CPU fallback pays once. Devices
            // whose probe shard is empty never read the replica, so they neither
            // reserve it nor join the all-gather — an idle low-memory card must
            // not be able to OOM a plan it does no work for.
            let hash_bytes = match (&plan.join, build_table) {
                (Some(_), Some(build)) => Some(plan.hash_table_bytes(build.row_count()).max(HASH_ENTRY_BYTES)),
                _ => None,
            };
            let mut hash_bufs: Vec<Option<BufferId>> = vec![None; n];
            if let Some(bytes) = hash_bytes {
                for (d, slot) in hash_bufs.iter_mut().enumerate() {
                    if per_probe[d] == 0 {
                        continue;
                    }
                    let id = register_bytes(&mut state.devices[d], self.placement, &format!("plan.hash.d{d}"), bytes)?;
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
            let eval = answer(1, false)?;
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
                if explicit_copy && rows_d > 0 {
                    let bytes =
                        explicit_copy_bytes(probe_table, rows_d, plan.probe_scan_bytes(&probe_table.schema, rows_d));
                    run.transfer(&mut state.devices[d], bytes, TransferDirection::HostToDevice);
                }
                if let Some(build_table) = build_table {
                    if explicit_copy && build_rows_d > 0 {
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
                        let (buffer, useful, pattern) = state.read_plan(probe_table, rows_d, d, pred.column)?;
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
                if let (Some(join), Some(build_table), Some(bytes)) = (&plan.join, build_table, hash_bytes) {
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
                            let (buffer, useful, pattern) = state.read_plan(build_table, build_rows_d, d, attr)?;
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
                            state.read_plan(probe_table, rows_d, d, join.probe_column)?;
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
                            state.read_plan(probe_table, rows_d, d, attr)
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
                            let (buffer, useful, pattern) = state.read_plan(probe_table, rows_d, d, attr)?;
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

                    if explicit_copy {
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
            Ok((eval, Price { time: critical.time, breakdown: critical.breakdown, kernels, interconnect_bytes }))
        })();
        let mut state = self.devs.lock();
        for (d, id) in scratch {
            state.free(d, id);
        }
        if result.is_err() {
            for table in registered {
                state.unregister(table);
            }
        }
        result
    }

    /// The smallest free device memory across the mix. Deliberately a
    /// minimum, never a sum: device capacities do not pool, and summing
    /// would let one device reporting "unknown" saturate the aggregate (the
    /// multi-device semantics of `gpu_free_bytes`).
    pub(crate) fn free_device_bytes(&self) -> u64 {
        self.devs.lock().devices.iter().map(|d| d.memory().free_bytes()).min().unwrap_or(0)
    }

    /// Weighted across the whole mix for Unified Memory placements.
    pub(crate) fn resident_fraction(&self) -> f64 {
        let state = self.devs.lock();
        let devices = &state.devices;
        let buffers = state.tables.values().flat_map(|shards| shards.iter().enumerate());
        resident_fraction(
            self.placement,
            buffers.flat_map(|(d, ids)| ids.iter().map(move |&id| (devices[d].memory(), id))),
        )
    }

    pub(crate) fn capability(&self, target: OlapTarget) -> SiteCapability {
        let resident = self.resident_fraction();
        let state = self.devs.lock();
        let n = state.devices.len() as f64;
        SiteCapability::Gpu {
            target,
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
    use crate::engine::{OlapOutcome, PlanOutcome};
    use crate::site::Site;
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
    fn scan(site: &Site, table: &SnapshotTable, query: &ScanAggQuery) -> Result<OlapOutcome> {
        site.execute(table, None, &OlapPlan::scan(query)).map(PlanOutcome::into_scan_outcome)
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
        let single = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(AccessMode::Uva));
        let reference = scan(&single, &table, &query).unwrap();
        for n in 1..=5 {
            let multi = Site::sharded(mix(n), DataPlacement::Host(AccessMode::Uva)).unwrap();
            let out = scan(&multi, &table, &query).unwrap();
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
            let eng = Site::sharded(devices, DataPlacement::DeviceResident).unwrap();
            scan(&eng, &table, &query).unwrap().time.as_secs_f64()
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
            let eng =
                Site::sharded(specs.into_iter().map(GpuDevice::new).collect(), DataPlacement::DeviceResident).unwrap();
            scan(&eng, &table, &query).unwrap().time.as_secs_f64()
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
        let eng = Site::sharded(devices, DataPlacement::DeviceResident).unwrap();
        assert!(scan(&eng, &table, &bucket_query()).is_err(), "the second device cannot register its shard");
        for (d, used) in eng.device_used_bytes().iter().enumerate() {
            assert_eq!(*used, 0, "device {d} must not strand shard buffers");
        }
    }

    #[test]
    fn free_device_bytes_is_the_min_across_the_mix() {
        let mut small = GpuSpec::gtx_980();
        small.mem_capacity_mib = 64;
        let devices = vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(small)];
        let eng = Site::sharded(devices, DataPlacement::DeviceResident).unwrap();
        assert_eq!(eng.free_device_bytes(), Some(64 * 1024 * 1024));
        match eng.capability() {
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
        let single = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(AccessMode::Uva));
        let reference = single.execute(&probe, Some(&build), &plan).unwrap();
        for n in [2usize, 3, 5] {
            let multi = Site::sharded(mix(n), DataPlacement::Host(AccessMode::Uva)).unwrap();
            let out = multi.execute(&probe, Some(&build), &plan).unwrap();
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
        let eng = Site::sharded(
            vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(tiny)],
            DataPlacement::DeviceResident,
        )
        .unwrap();
        let plan = OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::Count],
        };
        let out = eng.execute(&probe, Some(&build), &plan).unwrap();
        assert_eq!(out.qualifying_rows, 1_000, "every probe row joins a unique build key");
    }

    #[test]
    fn plan_scratch_is_freed_on_every_device() {
        let probe = snapshot_table(Layout::Dsm, 150_000);
        let eng = Site::sharded(
            vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(GpuSpec::gtx_980())],
            DataPlacement::DeviceResident,
        )
        .unwrap();
        let plan = OlapPlan {
            predicates: vec![Predicate::between(1, 0.0, 4.0)],
            join: None,
            group_by: Some(PlanColumn::Probe(1)),
            aggregates: vec![AggExpr::SumColumns(vec![2])],
        };
        eng.execute(&probe, None, &plan).unwrap();
        let registered = eng.device_used_bytes();
        assert!(registered.iter().all(|&used| used > 0), "both devices hold a shard");
        eng.execute(&probe, None, &plan).unwrap();
        assert_eq!(eng.device_used_bytes(), registered, "group arenas must be freed on every device");
        eng.reset_tables();
        assert!(eng.device_used_bytes().iter().all(|&used| used == 0));
    }

    /// Registration is keyed by the frozen image (database, table, epoch):
    /// each snapshot of a table registers once, a repeated query reuses its
    /// registration, and a reset frees every device.
    #[test]
    fn each_snapshot_of_a_table_registers_once() {
        let db = Database::new(1);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..100_000i64 {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i)]).unwrap();
        }
        let (first, second) = (db.snapshot().table(t).unwrap().clone(), db.snapshot().table(t).unwrap().clone());
        let eng = Site::sharded(mix(2), DataPlacement::DeviceResident).unwrap();
        let query = ScanAggQuery::aggregate_only(AggExpr::Count);
        scan(&eng, &first, &query).unwrap();
        let one = eng.device_used_bytes();
        assert_eq!(one, [65_536 * 16, 34_464 * 16], "two 8-byte columns of each device's chunk");
        scan(&eng, &first, &query).unwrap();
        assert_eq!(eng.device_used_bytes(), one, "a repeated query reuses the registration");
        scan(&eng, &second, &query).unwrap();
        let two: Vec<u64> = one.iter().map(|used| 2 * used).collect();
        assert_eq!(eng.device_used_bytes(), two, "a new epoch registers its own image");
        scan(&eng, &second, &query).unwrap();
        assert_eq!(eng.device_used_bytes(), two);
        eng.reset_tables();
        assert!(eng.device_used_bytes().iter().all(|&used| used == 0));
    }

    #[test]
    fn empty_tables_are_rejected_like_every_other_site() {
        let table = snapshot_table(Layout::Dsm, 0);
        let eng = Site::sharded(mix(2), DataPlacement::Host(AccessMode::Uva)).unwrap();
        assert!(scan(&eng, &table, &bucket_query()).is_err());
    }

    #[test]
    fn a_site_needs_at_least_one_device() {
        assert!(Site::sharded(Vec::new(), DataPlacement::DeviceResident).is_err());
    }
}
