//! The multi-site read microbenchmark (Figure 9).
//!
//! "We use a read-only microbenchmark in which each transaction reads ten
//! records from a table of 24M records partitioned across 24 cores.
//! Single-site transactions read all ten records from the local partition.
//! Multi-site transactions read two records from a random remote partition
//! and the remaining eight from the local partition."
//!
//! The same workload is expressed three ways — for Caldera, for Silo (one
//! shared instance) and for SN-Silo (instance per core + 2PC) — so Figure 9
//! compares identical transactions.

use caldera::CalderaBuilder;
use h2tap_baselines::{SiloDb, SiloGenerator, SiloTxn, SnSilo, SnSiloGenerator};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{AttrType, PartitionId, Result, Schema, TableId, Value};
use h2tap_oltp::{StridePartitioner, TxnGenerator, TxnProc};
use h2tap_storage::Layout;
use std::sync::Arc;

/// Key-space stride per partition.
pub const PARTITION_STRIDE: i64 = 10_000_000;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct MultisiteConfig {
    /// The table holding the records.
    pub table: TableId,
    /// Records per partition.
    pub rows_per_partition: u64,
    /// Number of partitions (cores).
    pub partitions: usize,
    /// Percentage (0-100) of transactions that are multi-site.
    pub multisite_pct: u32,
    /// Records read per transaction.
    pub reads_per_txn: usize,
    /// Of which, reads that go to the remote partition in a multi-site
    /// transaction.
    pub remote_reads: usize,
}

impl MultisiteConfig {
    /// The paper's parameters (10 reads, 2 remote) at a configurable scale.
    pub fn paper(table: TableId, rows_per_partition: u64, partitions: usize, multisite_pct: u32) -> Self {
        Self { table, rows_per_partition, partitions, multisite_pct, reads_per_txn: 10, remote_reads: 2 }
    }

    /// Global key of `row` within `partition`.
    pub fn key(&self, partition: usize, row: u64) -> i64 {
        partition as i64 * PARTITION_STRIDE + row as i64
    }
}

/// The records table schema: (key, payload).
pub fn multisite_schema() -> Schema {
    Schema::new(vec![
        h2tap_common::Attribute::new("key", AttrType::Int64),
        h2tap_common::Attribute::new("payload", AttrType::Int64),
    ])
    .expect("valid schema")
}

/// The partitioner for the multisite key space.
pub fn multisite_partitioner(partitions: usize) -> StridePartitioner {
    StridePartitioner::new(PARTITION_STRIDE, partitions)
}

/// Loads the table into a Caldera builder (partitioner must already be
/// [`multisite_partitioner`]). Returns the table id.
pub fn load_multisite_caldera(
    builder: &mut CalderaBuilder,
    rows_per_partition: u64,
    partitions: usize,
) -> Result<TableId> {
    let table = builder.create_table("records", multisite_schema(), Layout::Nsm)?;
    for p in 0..partitions {
        for row in 0..rows_per_partition {
            let key = p as i64 * PARTITION_STRIDE + row as i64;
            builder.load(table, key, &[Value::Int64(key), Value::Int64(row as i64)])?;
        }
    }
    Ok(table)
}

/// Loads the same records into a new single shared Silo instance holding
/// `table`.
pub fn load_multisite_silo(table: TableId, rows_per_partition: u64, partitions: usize) -> Result<Arc<SiloDb>> {
    let db = SiloDb::new(&[table]);
    for p in 0..partitions {
        for row in 0..rows_per_partition {
            let key = p as i64 * PARTITION_STRIDE + row as i64;
            db.load(table, key, vec![Value::Int64(key), Value::Int64(row as i64)])?;
        }
    }
    Ok(db)
}

/// Loads the records into a new SN-Silo deployment of `partitions`
/// instances (one per partition) holding `table`.
pub fn load_multisite_sn(partitions: usize, table: TableId, rows_per_partition: u64) -> Result<SnSilo> {
    let sn = SnSilo::new(partitions, &[table]);
    for p in 0..partitions {
        for row in 0..rows_per_partition {
            let key = p as i64 * PARTITION_STRIDE + row as i64;
            sn.load(p, table, key, vec![Value::Int64(key), Value::Int64(row as i64)])?;
        }
    }
    Ok(sn)
}

/// Draws one transaction's key set: `(local keys, remote keys)`.
fn draw_keys(cfg: &MultisiteConfig, home: usize, rng: &mut SplitMixRng) -> (Vec<i64>, Vec<(usize, i64)>) {
    let multisite = cfg.partitions > 1 && rng.next_below(100) < u64::from(cfg.multisite_pct.min(100));
    let remote_count = if multisite { cfg.remote_reads.min(cfg.reads_per_txn) } else { 0 };
    let local_count = cfg.reads_per_txn - remote_count;
    let local: Vec<i64> = (0..local_count).map(|_| cfg.key(home, rng.next_below(cfg.rows_per_partition))).collect();
    let mut remote = Vec::with_capacity(remote_count);
    if remote_count > 0 {
        let mut target = rng.next_below(cfg.partitions as u64) as usize;
        if target == home {
            target = (target + 1) % cfg.partitions;
        }
        for _ in 0..remote_count {
            remote.push((target, cfg.key(target, rng.next_below(cfg.rows_per_partition))));
        }
    }
    (local, remote)
}

/// Caldera-side generator.
pub struct CalderaMultisiteGenerator {
    cfg: MultisiteConfig,
}

impl CalderaMultisiteGenerator {
    /// Creates the generator.
    pub fn new(cfg: MultisiteConfig) -> Self {
        Self { cfg }
    }
}

impl TxnGenerator for CalderaMultisiteGenerator {
    fn next_txn(&self, home: PartitionId, _seq: u64, rng: &mut SplitMixRng) -> TxnProc {
        let table = self.cfg.table;
        let (local, remote) = draw_keys(&self.cfg, home.0 as usize, rng);
        Arc::new(move |ctx| {
            let mut checksum = 0i64;
            for key in &local {
                checksum = checksum.wrapping_add(ctx.read(table, *key)?[1].as_i64().unwrap_or(0));
            }
            for (_, key) in &remote {
                checksum = checksum.wrapping_add(ctx.read(table, *key)?[1].as_i64().unwrap_or(0));
            }
            std::hint::black_box(checksum);
            Ok(())
        })
    }
}

/// Silo-side generator (single shared instance: "remote" keys are just other
/// parts of the shared key space).
pub struct SiloMultisiteGenerator {
    cfg: MultisiteConfig,
}

impl SiloMultisiteGenerator {
    /// Creates the generator.
    pub fn new(cfg: MultisiteConfig) -> Self {
        Self { cfg }
    }
}

impl SiloGenerator for SiloMultisiteGenerator {
    fn run_one(&self, db: &Arc<SiloDb>, worker: usize, _seq: u64, rng: &mut SplitMixRng) -> Result<()> {
        let (local, remote) = draw_keys(&self.cfg, worker % self.cfg.partitions, rng);
        let mut txn = SiloTxn::begin(Arc::clone(db));
        let mut checksum = 0i64;
        for key in local.iter().chain(remote.iter().map(|(_, k)| k)) {
            checksum = checksum.wrapping_add(txn.read(self.cfg.table, *key)?[1].as_i64().unwrap_or(0));
        }
        std::hint::black_box(checksum);
        txn.commit()
    }
}

/// SN-Silo-side generator (per-core instances coordinated with 2PC).
pub struct SnSiloMultisiteGenerator {
    cfg: MultisiteConfig,
}

impl SnSiloMultisiteGenerator {
    /// Creates the generator.
    pub fn new(cfg: MultisiteConfig) -> Self {
        Self { cfg }
    }
}

impl SnSiloGenerator for SnSiloMultisiteGenerator {
    fn run_one(&self, sn: &SnSilo, coordinator: usize, _seq: u64, rng: &mut SplitMixRng) -> Result<()> {
        let (local, remote) = draw_keys(&self.cfg, coordinator % self.cfg.partitions, rng);
        sn.read_transaction(coordinator, self.cfg.table, &local, &remote).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(multisite_pct: u32) -> MultisiteConfig {
        MultisiteConfig::paper(TableId(0), 1_000, 4, multisite_pct)
    }

    #[test]
    fn zero_percent_never_draws_remote_keys() {
        let c = cfg(0);
        let mut rng = SplitMixRng::new(1);
        for _ in 0..500 {
            let (local, remote) = draw_keys(&c, 1, &mut rng);
            assert_eq!(local.len(), 10);
            assert!(remote.is_empty());
            assert!(local.iter().all(|k| (PARTITION_STRIDE..2 * PARTITION_STRIDE).contains(k)));
        }
    }

    #[test]
    fn hundred_percent_always_draws_two_remote_keys() {
        let c = cfg(100);
        let mut rng = SplitMixRng::new(2);
        for _ in 0..500 {
            let (local, remote) = draw_keys(&c, 1, &mut rng);
            assert_eq!(local.len(), 8);
            assert_eq!(remote.len(), 2);
            let (target, key) = remote[0];
            assert_ne!(target, 1, "remote partition must differ from home");
            assert_eq!(remote[1].0, target, "both remote reads hit the same partition");
            assert_eq!((key / PARTITION_STRIDE) as usize, target);
        }
    }

    #[test]
    fn intermediate_percentages_are_respected_on_average() {
        let c = cfg(40);
        let mut rng = SplitMixRng::new(3);
        let n = 5_000;
        let multisite = (0..n).filter(|_| !draw_keys(&c, 0, &mut rng).1.is_empty()).count();
        let fraction = multisite as f64 / n as f64;
        assert!((0.35..0.45).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn partitioner_matches_key_encoding() {
        use h2tap_oltp::Partitioner;
        let p = multisite_partitioner(8);
        let c = MultisiteConfig::paper(TableId(0), 100, 8, 20);
        assert_eq!(p.partition_of(TableId(0), c.key(5, 99)), PartitionId(5));
    }
}
