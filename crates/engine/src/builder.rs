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
use h2tap_olap::{CpuSpec, PlanDataCache, Site};
use h2tap_oltp::{OltpRuntime, PartitionIndex, Partitioner, TxnGenerator};
use h2tap_scheduler::Scheduler;
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
        let partitioner = config.partitioner.build(partitions);
        Self {
            config,
            db: Database::new(partitions),
            indexes: vec![PartitionIndex::new(); partitions],
            partitioner,
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
            // Fail here, before any scheduler or site construction: an
            // engine without OLTP workers could never route a transaction.
            return Err(H2Error::Config("the engine needs at least one OLTP worker".into()));
        }
        let mut accelerators = vec![config.olap_device.gpu.name.clone()];
        if let Some(mg) = &config.olap_multi_gpu {
            accelerators.extend(mg.gpus.iter().map(|g| g.name.clone()));
        }
        let scheduler = Scheduler::new(config.oltp.workers, config.olap_cpu_cores, accelerators);
        // What the sites share, created before them so each is built with
        // it and never mutated afterwards. One plan-data cache: derived state
        // (materialised columns, zonemap stats, join hash tables) built by
        // one site's dispatch is reused by all of them for the same
        // snapshot, bounded by the configured byte budget. One tracer: a
        // query's spans — whichever site ran it, the cache probes it made
        // included — land in one ring.
        let plan_cache = PlanDataCache::with_budget(config.olap_plan_cache_budget_bytes);
        let tracer = Tracer::from_config(&config.observability);
        // The execution sites of the data-parallel archipelago: the GPU
        // model, the CPU scan engine over the archipelago's cores, and —
        // when configured — the sharded multi-GPU device mix.
        // Fault injection threads into the devices before they are moved
        // into their sites: each device gets an injector derived from the
        // plan seed, its site label and its ordinal, so the fault sequence
        // is reproducible per device.
        let fault_plan = config.fault_plan.as_ref();
        let mut gpu_device = GpuDevice::new(config.olap_device.gpu.clone());
        if let Some(plan) = fault_plan {
            gpu_device.set_fault_injector(plan.injector_for("gpu", 0));
        }
        let gpu = Site::gpu(gpu_device, config.olap_device.placement);
        let cpu_cores = (config.olap_cpu_cores as u32).max(1);
        let cpu = Site::cpu(
            CpuSpec {
                cores: cpu_cores,
                mem_bandwidth_gbps: config.olap_cpu.per_core_bandwidth_gbps * f64::from(cpu_cores),
            },
            config.olap_cpu.profile,
        );
        let mut sites = vec![gpu, cpu];
        if let Some(mg) = &config.olap_multi_gpu {
            let devices = mg
                .gpus
                .iter()
                .enumerate()
                .map(|(ordinal, spec)| {
                    let mut device = GpuDevice::new(spec.clone());
                    if let Some(plan) = fault_plan {
                        device.set_fault_injector(plan.injector_for("multi_gpu", ordinal));
                    }
                    device
                })
                .collect();
            sites.push(Site::sharded(devices, mg.placement)?);
        }
        let sites = sites.into_iter().map(|site| site.with_shared(plan_cache.clone(), tracer.clone())).collect();
        let oltp = OltpRuntime::start(Arc::clone(&db), config.oltp.clone(), partitioner, indexes, generator)?;
        Ok(Caldera::assemble(config, db, oltp, sites, scheduler, plan_cache, tracer))
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
    fn config_selects_the_partitioner() {
        let mut config = CalderaConfig::with_workers(2);
        config.partitioner = h2tap_oltp::PartitionerKind::Stride { stride: 100 };
        let mut b = CalderaBuilder::new(config);
        let t = b.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        // Key 150 belongs to partition 1 under the configured stride scheme
        // (it would belong to partition 0 under the default modulo scheme).
        b.load_to(PartitionId(1), t, 150, &[Value::Int64(150), Value::Int64(0)]).unwrap();
        assert!(b.load_to(PartitionId(0), t, 151, &[Value::Int64(151), Value::Int64(0)]).is_err());
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
