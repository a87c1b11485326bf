//! Building a Caldera instance: schema definition, bulk loading, startup.
//!
//! Bulk loading happens before the OLTP workers start so that each worker can
//! take ownership of its partition's primary-key index without any
//! synchronisation — the same single-writer discipline the runtime enforces
//! afterwards.

use crate::config::CalderaConfig;
use crate::engine::Caldera;
use h2tap_common::{H2Error, PartitionId, RecordId, Result, Schema, TableId, Value};
use h2tap_gpu_sim::GpuDevice;
use h2tap_obs::Tracer;
use h2tap_olap::{PlanDataCache, Site};
use h2tap_oltp::{ModuloPartitioner, OltpRuntime, PartitionIndex, Partitioner, TxnGenerator};
use h2tap_storage::{Database, Layout};
use std::sync::Arc;

/// Staging area for schema and data before the archipelagos start.
pub struct CalderaBuilder {
    config: CalderaConfig,
    db: Arc<Database>,
    indexes: Vec<PartitionIndex>,
    partitioner: Arc<dyn Partitioner>,
    generator: Option<Arc<dyn TxnGenerator>>,
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
            partitioner: Arc::new(ModuloPartitioner::new(partitions)),
            generator: None,
        }
    }

    /// The shared-memory database being populated.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Replaces the default modulo partitioner. Must be called before any
    /// data is loaded so keys land on the partitions the partitioner expects.
    pub fn set_partitioner(&mut self, partitioner: Arc<dyn Partitioner>) -> Result<()> {
        if self.indexes.iter().any(|idx| self.db.tables().iter().any(|t| idx.key_count(*t) > 0)) {
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
    /// assigns and indexing it there.
    pub fn load(&mut self, table: TableId, key: i64, values: &[Value]) -> Result<RecordId> {
        let partition = self.partitioner.partition_of(table, key);
        self.load_to(partition, table, key, values)
    }

    /// Loads one keyed record into an explicit partition. The partition must
    /// agree with the partitioner, otherwise transactions would never find
    /// the key.
    pub fn load_to(&mut self, partition: PartitionId, table: TableId, key: i64, values: &[Value]) -> Result<RecordId> {
        let expected = self.partitioner.partition_of(table, key);
        if expected != partition {
            return Err(H2Error::Config(format!(
                "key {key} belongs to {expected} according to the partitioner, not {partition}"
            )));
        }
        let rid = self.db.insert(partition, table, values)?;
        self.indexes[partition.0 as usize].insert(table, key, rid.row);
        Ok(rid)
    }

    /// Starts both archipelagos and returns the running engine.
    pub fn start(self) -> Result<Caldera> {
        let CalderaBuilder { config, db, indexes, partitioner, generator } = self;
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
    use h2tap_common::AttrType;
    use h2tap_oltp::StridePartitioner;

    #[test]
    fn load_routes_keys_by_partitioner() {
        let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        b.load(t, 0, &[Value::Int64(0), Value::Int64(0)]).unwrap();
        b.load(t, 1, &[Value::Int64(1), Value::Int64(0)]).unwrap();
        assert_eq!(b.database().row_count(t).unwrap(), 2);
    }

    #[test]
    fn load_to_rejects_misrouted_keys() {
        let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        // Key 1 belongs to partition 1 under the modulo partitioner.
        assert!(b.load_to(PartitionId(0), t, 1, &[Value::Int64(1), Value::Int64(0)]).is_err());
    }

    #[test]
    fn set_partitioner_routes_keys_by_its_scheme() {
        let mut b = CalderaBuilder::new(CalderaConfig::with_workers(2));
        b.set_partitioner(Arc::new(StridePartitioner::new(100, 2))).unwrap();
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        // Key 150 belongs to partition 1 under the stride scheme
        // (it would belong to partition 0 under the default modulo scheme).
        b.load_to(PartitionId(1), t, 150, &[Value::Int64(150), Value::Int64(0)]).unwrap();
        assert!(b.load_to(PartitionId(0), t, 151, &[Value::Int64(151), Value::Int64(0)]).is_err());
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
