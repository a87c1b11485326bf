//! Building a Caldera instance: schema definition, bulk loading, startup.
//!
//! Bulk loading happens before the OLTP workers start so that each worker can
//! take ownership of its partition's primary-key index without any
//! synchronisation — the same single-writer discipline the runtime enforces
//! afterwards.
//!
//! Loading writes a page at a time. [`CalderaBuilder::load`] checks and
//! encodes its row into the stage of the row's table and partition, at most
//! one page of rows, and indexes the key at the row it will occupy: the
//! partition's rows so far, written and staged. A full stage goes to storage
//! in one [`Database::append`], which fills the tail page and then whole new
//! ones under one lock pair. [`CalderaBuilder::database`] and
//! [`CalderaBuilder::start`] write every stage first, so nothing reads a
//! partition while rows are held back.

use crate::config::CalderaConfig;
use crate::engine::Caldera;
use h2tap_common::{H2Error, PartitionId, RecordId, Result, Schema, TableId, Value};
use h2tap_gpu_sim::GpuDevice;
use h2tap_obs::Tracer;
use h2tap_olap::{PlanDataCache, Site};
use h2tap_oltp::{ModuloPartitioner, OltpRuntime, PartitionIndex, Partitioner, TxnGenerator};
use h2tap_storage::{encode_into, Database, Layout, TableMeta};
use std::sync::Arc;

/// Staging area for schema and data before the archipelagos start.
pub struct CalderaBuilder {
    config: CalderaConfig,
    db: Arc<Database>,
    indexes: Vec<PartitionIndex>,
    /// Indexed by table, then partition.
    stages: Vec<Vec<Stage>>,
    partitioner: Arc<dyn Partitioner>,
    generator: Option<Arc<dyn TxnGenerator>>,
}

/// The rows of one table loaded into one partition and not yet written:
/// at most a page of them, encoded.
struct Stage {
    meta: TableMeta,
    partition: PartitionId,
    /// The cells of a page's rows: a stage this full is written.
    page_cells: usize,
    cells: Vec<u64>,
    /// The partition's rows, written and staged: the next row's index.
    rows: u64,
}

impl Stage {
    /// Writes the staged rows.
    fn flush(&mut self, db: &Database) -> Result<()> {
        db.append(self.partition, self.meta.id, &self.cells)?;
        self.cells.clear();
        Ok(())
    }
}

impl CalderaBuilder {
    /// Creates a builder for the given configuration.
    pub fn new(config: CalderaConfig) -> Self {
        // A zero-worker configuration is rejected by `start`; clamp here so
        // building the partitioner and database (which need >= 1 partition)
        // cannot panic before that error is reported.
        let partitions = config.oltp.workers.max(1);
        Self {
            config,
            db: Database::new(partitions),
            indexes: vec![PartitionIndex::new(); partitions],
            stages: Vec::new(),
            partitioner: Arc::new(ModuloPartitioner::new(partitions)),
            generator: None,
        }
    }

    /// The shared-memory database being populated, holding every row loaded
    /// so far. Rows loaded later reach it at the next call or at `start`.
    /// Load keyed rows through [`CalderaBuilder::load`], not through it: the
    /// builder numbers each partition's rows itself.
    pub fn database(&mut self) -> Result<&Arc<Database>> {
        self.flush()?;
        Ok(&self.db)
    }

    /// Writes every staged row.
    fn flush(&mut self) -> Result<()> {
        self.stages.iter_mut().flatten().try_for_each(|stage| stage.flush(&self.db))
    }

    /// Replaces the default modulo partitioner. Must be called before any
    /// data is loaded so keys land on the partitions the partitioner expects.
    pub fn set_partitioner(&mut self, partitioner: Arc<dyn Partitioner>) -> Result<()> {
        if self.stages.iter().flatten().any(|stage| stage.rows > 0) {
            return Err(H2Error::Config("partitioner must be set before loading data".into()));
        }
        self.partitioner = partitioner;
        Ok(())
    }

    /// Installs a benchmark-mode transaction generator (used by the
    /// evaluation harness; normal applications submit transactions instead).
    pub fn set_generator(&mut self, generator: Arc<dyn TxnGenerator>) {
        self.generator = Some(generator);
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema, layout: Layout) -> Result<TableId> {
        self.db.create_table(name, schema, layout)
    }

    /// Loads one keyed record, routing it to the partition the partitioner
    /// assigns and indexing it there. The record is checked and staged here,
    /// so a bad one fails this call, and written with its page.
    pub fn load(&mut self, table: TableId, key: i64, values: &[Value]) -> Result<RecordId> {
        let partition = self.partitioner.partition_of(table, key);
        while self.stages.len() <= table.0 as usize {
            let meta = self.db.table_meta(TableId(self.stages.len() as u32))?;
            let page_cells = meta.layout.rows_per_page(&meta.schema) * meta.schema.arity();
            let stage = |p| Stage { meta: meta.clone(), partition: PartitionId(p), page_cells, cells: vec![], rows: 0 };
            self.stages.push((0..self.indexes.len() as u32).map(stage).collect());
        }
        let stage = self.stages.get_mut(table.0 as usize).and_then(|stages| stages.get_mut(partition.0 as usize));
        let (Some(stage), Some(index)) = (stage, self.indexes.get_mut(partition.0 as usize)) else {
            return Err(H2Error::Config(format!("partition {partition} out of range")));
        };
        encode_into(&stage.meta.schema, values, &mut stage.cells)?;
        let row = stage.rows;
        stage.rows += 1;
        if stage.cells.len() == stage.page_cells {
            stage.flush(&self.db)?;
        }
        index.insert(table, key, row);
        Ok(RecordId::new(partition, table, row))
    }

    /// Starts both archipelagos and returns the running engine.
    pub fn start(mut self) -> Result<Caldera> {
        self.flush()?;
        let CalderaBuilder { config, db, indexes, partitioner, generator, .. } = self;
        if config.oltp.workers == 0 {
            // Fail here, before any site construction: an engine without
            // OLTP workers could never route a transaction.
            return Err(H2Error::Config("the engine needs at least one OLTP worker".into()));
        }
        let gpus = &config.olap_device.gpus;
        if let Some(loss) = config.fault_plan.as_ref().and_then(|plan| plan.device_loss_at.as_ref()) {
            if loss.device >= gpus.len() {
                // A loss scheduled on a device the engine does not have
                // would silently never fire.
                return Err(H2Error::Config(format!(
                    "the fault plan schedules the loss of GPU {}, but only {} are configured",
                    loss.device,
                    gpus.len()
                )));
            }
        }
        // What the sites share, created before them so each is built with
        // it and never mutated afterwards. One plan-data cache: derived state
        // (materialised columns, zonemap stats, join hash tables) built by
        // one site's dispatch is reused by all of them for the same
        // snapshot, bounded by the configured byte budget. One tracer: a
        // query's spans — whichever site ran it, the cache probes it made
        // included — land in one ring.
        let plan_cache = PlanDataCache::with_budget(config.olap_plan_cache_budget_bytes);
        let tracer = Tracer::from_config(&config.observability);
        // The execution sites of the data-parallel archipelago: the GPUs
        // of the configured device list and the CPU scan engine over the
        // archipelago's cores. Fault injection threads into the devices
        // before they are moved into their site: each device gets an
        // injector derived from the plan seed and its ordinal, so the fault
        // sequence is reproducible per device.
        let devices = gpus
            .iter()
            .enumerate()
            .map(|(ordinal, spec)| {
                let mut device = GpuDevice::new(spec.clone());
                if let Some(plan) = &config.fault_plan {
                    device.set_fault_injector(plan.injector_for("gpu", ordinal));
                }
                device
            })
            .collect();
        let sites = [
            Site::gpu(devices, config.olap_device.placement)?,
            Site::archipelago_default(config.olap_cpu_cores as u32),
        ];
        let sites = sites.into_iter().map(|site| site.with_shared(plan_cache.clone(), tracer.clone())).collect();
        let oltp = OltpRuntime::start(Arc::clone(&db), config.oltp.clone(), partitioner, indexes, generator)?;
        Ok(Caldera::assemble(config, db, oltp, sites, plan_cache, tracer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalderaConfig;
    use h2tap_common::{AttrType, Epoch};
    use h2tap_oltp::StridePartitioner;
    use h2tap_storage::SEGMENT_PAGES;

    #[test]
    fn load_routes_keys_by_partitioner() {
        let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        b.load(t, 0, &[Value::Int64(0), Value::Int64(0)]).unwrap();
        b.load(t, 1, &[Value::Int64(1), Value::Int64(0)]).unwrap();
        assert_eq!(b.database().unwrap().row_count(t).unwrap(), 2);
    }

    #[test]
    fn set_partitioner_routes_keys_by_its_scheme() {
        let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
        b.set_partitioner(Arc::new(StridePartitioner::new(100, 2))).unwrap();
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        // Keys 150 and 151 belong to partition 1 under the stride scheme
        // (150 would belong to partition 0 under the default modulo scheme).
        let rid = |b: &mut CalderaBuilder, key: i64| b.load(t, key, &[Value::Int64(key), Value::Int64(0)]).unwrap();
        assert_eq!(rid(&mut b, 150), RecordId::new(PartitionId(1), t, 0));
        assert_eq!(rid(&mut b, 151), RecordId::new(PartitionId(1), t, 1));
        assert_eq!(rid(&mut b, 99), RecordId::new(PartitionId(0), t, 0));
    }

    /// A table loaded through the builder, a page per write, equals the
    /// same rows inserted one at a time: page for page in cells and stamps,
    /// in copy-on-write counters and in every key's record id. Halfway
    /// through, `database()` sees every row loaded so far, and a snapshot
    /// taken there makes the rest of the load start on shared tail pages.
    #[test]
    fn bulk_loading_equals_row_by_row_insertion() {
        let schema = Schema::homogeneous("c", 2, AttrType::Int64);
        let row = |key: i64| [Value::Int64(key), Value::Int64(key * 7)];
        for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
            let cap = layout.rows_per_page(&schema);
            for per_partition in [0, 1, cap - 1, cap, cap + 1, SEGMENT_PAGES * cap + 1] {
                let case = format!("{layout:?}, {per_partition} rows per partition");
                let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
                let t = b.create_table("t", schema.clone(), layout).unwrap();
                let reference = Database::new(2);
                assert_eq!(reference.create_table("t", schema.clone(), layout).unwrap(), t);
                let keys = 2 * per_partition as i64;
                let mut held = Vec::new();
                for key in 0..keys {
                    if key == keys / 2 {
                        let loaded = b.database().unwrap();
                        assert_eq!(loaded.row_count(t).unwrap(), key as u64, "{case}");
                        held.push((loaded.snapshot(), reference.snapshot()));
                    }
                    let rid = b.load(t, key, &row(key)).unwrap();
                    let expected = reference.insert(PartitionId((key % 2) as u32), t, &row(key)).unwrap();
                    assert_eq!(rid, expected, "{case}: key {key}");
                }
                let (loaded, inserted) = (b.database().unwrap().snapshot(), reference.snapshot());
                let (loaded, inserted) = (loaded.table(t).unwrap(), inserted.table(t).unwrap());
                assert_eq!(loaded.partition_rows(), [per_partition as u64; 2], "{case}");
                assert_eq!(loaded.partition_rows(), inserted.partition_rows(), "{case}");
                for attr in 0..2 {
                    assert_eq!(loaded.column(attr), inserted.column(attr), "{case}: column {attr}");
                }
                // Every page but a partition's last is full, so a page
                // starts every `cap` rows of its partition.
                for base in [0, per_partition] {
                    for first in (0..per_partition).step_by(cap) {
                        let page = base + first..base + (first + cap).min(per_partition);
                        let stamps = [loaded, inserted].map(|table| table.newest_stamp(page.clone(), Epoch::ZERO));
                        assert_eq!(stamps[0], stamps[1], "{case}: page at row {}", page.start);
                    }
                }
                drop(held);
                assert_eq!(b.database().unwrap().telemetry(), reference.telemetry(), "{case}");
            }
        }
    }

    #[test]
    fn start_rejects_a_gpu_list_the_fault_plan_or_the_site_cannot_use() {
        let start = |config: CalderaConfig| {
            let mut b = CalderaBuilder::new(config);
            b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
            b.start()
        };
        // A loss scheduled on the second GPU of a one-GPU engine would never
        // fire: startup refuses it instead.
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(1);
        plan.device_loss_at = Some(h2tap_gpu_sim::DeviceLossPoint { device: 1, launch: 0 });
        let lost_second = CalderaConfig { fault_plan: Some(plan.clone()), ..CalderaConfig::with_workers(1) };
        assert!(matches!(start(lost_second), Err(H2Error::Config(_))));
        // The same point is legal once the list has a second device.
        let mut two = CalderaConfig { fault_plan: Some(plan), ..CalderaConfig::with_workers(1) };
        two.olap_device.gpus = h2tap_gpu_sim::table1_mix(2);
        start(two).unwrap().shutdown();
        // An engine with no GPU at all has no GPU site to build.
        let mut none = CalderaConfig::with_workers(1);
        none.olap_device.gpus.clear();
        assert!(matches!(start(none), Err(H2Error::Config(_))));
    }

    #[test]
    fn partitioner_cannot_change_after_loading() {
        let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        b.load(t, 0, &[Value::Int64(0), Value::Int64(0)]).unwrap();
        let err = b.set_partitioner(Arc::new(StridePartitioner::new(1000, 2)));
        assert!(err.is_err());
    }
}
