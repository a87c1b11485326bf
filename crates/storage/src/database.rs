//! The shared-memory database: catalog, partitions, snapshots and GC.
//!
//! [`Database`] owns the hierarchical partition → table → page organization
//! and the snapshot clock. OLTP workers obtain their partition's store and
//! operate on it through short, uncontended critical sections (each partition
//! is only ever touched by its owning worker plus the snapshot path); the
//! OLAP runtime takes [`Snapshot`]s and never touches the live store.

use crate::codec::{decode_record, encode_record};
use crate::layout::Layout;
use crate::partition::PartitionStore;
use crate::snapshot::{Snapshot, SnapshotTable, SnapshotTableId};
use crate::telemetry::{CowStats, CowTelemetry};
use h2tap_common::{Epoch, H2Error, PartitionId, RecordId, Result, Schema, TableId, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Catalog entry for one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table id.
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// Schema shared by every partition fragment.
    pub schema: Arc<Schema>,
    /// Physical layout.
    pub layout: Layout,
}

/// Result of releasing a snapshot: how much superseded data became
/// reclaimable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Pages whose snapshot version had been superseded by copy-on-write.
    pub pages_reclaimed: u64,
    /// Bytes those pages occupied.
    pub bytes_reclaimed: u64,
}

/// The Caldera shared-memory database.
#[derive(Debug)]
pub struct Database {
    /// Process-unique instance id, part of every snapshot table's cache
    /// identity so frozen images from different databases never alias.
    instance: u64,
    partitions: Vec<Arc<RwLock<PartitionStore>>>,
    catalog: RwLock<BTreeMap<TableId, TableMeta>>,
    names: RwLock<BTreeMap<String, TableId>>,
    next_table: AtomicU32,
    live_epoch: AtomicU64,
    next_snapshot: AtomicU64,
    active_snapshots: Mutex<BTreeMap<u64, Epoch>>,
    telemetry: Arc<CowTelemetry>,
}

impl Database {
    /// Creates a database partitioned `partition_count` ways (one partition
    /// per OLTP worker core).
    pub fn new(partition_count: usize) -> Arc<Self> {
        assert!(partition_count > 0, "database needs at least one partition");
        let telemetry = CowTelemetry::new();
        let partitions = (0..partition_count)
            .map(|i| Arc::new(RwLock::new(PartitionStore::new(PartitionId(i as u32), Arc::clone(&telemetry)))))
            .collect();
        Arc::new(Self {
            instance: crate::snapshot::next_source_id(),
            partitions,
            catalog: RwLock::new(BTreeMap::new()),
            names: RwLock::new(BTreeMap::new()),
            next_table: AtomicU32::new(0),
            live_epoch: AtomicU64::new(0),
            next_snapshot: AtomicU64::new(0),
            active_snapshots: Mutex::new(BTreeMap::new()),
            telemetry,
        })
    }

    /// Number of horizontal partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The store of one partition.
    pub fn partition(&self, p: PartitionId) -> Result<Arc<RwLock<PartitionStore>>> {
        self.partitions.get(p.0 as usize).cloned().ok_or_else(|| H2Error::Config(format!("partition {p} out of range")))
    }

    /// Copy-on-write telemetry counters.
    pub fn telemetry(&self) -> CowStats {
        self.telemetry.snapshot()
    }

    /// The current live epoch (pages stamped with an older epoch are still
    /// shared with at least one snapshot).
    pub fn live_epoch(&self) -> Epoch {
        Epoch(self.live_epoch.load(Ordering::Acquire))
    }

    /// Creates a table with the given layout, registered in every partition.
    pub fn create_table(&self, name: impl Into<String>, schema: Schema, layout: Layout) -> Result<TableId> {
        let name = name.into();
        if self.names.read().contains_key(&name) {
            return Err(H2Error::Config(format!("table {name:?} already exists")));
        }
        let id = TableId(self.next_table.fetch_add(1, Ordering::Relaxed));
        let schema = Arc::new(schema);
        for p in &self.partitions {
            p.write().register_table(id, Arc::clone(&schema), layout);
        }
        let meta = TableMeta { id, name: name.clone(), schema, layout };
        self.catalog.write().insert(id, meta);
        self.names.write().insert(name, id);
        Ok(id)
    }

    /// Catalog entry of `table`.
    pub fn table_meta(&self, table: TableId) -> Result<TableMeta> {
        self.catalog.read().get(&table).cloned().ok_or_else(|| H2Error::UnknownTable(table.to_string()))
    }

    /// Looks a table up by name.
    pub fn table_by_name(&self, name: &str) -> Result<TableMeta> {
        let id = *self.names.read().get(name).ok_or_else(|| H2Error::UnknownTable(name.to_string()))?;
        self.table_meta(id)
    }

    /// Ids of all tables.
    pub fn tables(&self) -> Vec<TableId> {
        self.catalog.read().keys().copied().collect()
    }

    /// Total records of `table` across all partitions.
    pub fn row_count(&self, table: TableId) -> Result<u64> {
        let mut total = 0;
        for p in &self.partitions {
            total += p.read().fragment(table)?.row_count();
        }
        Ok(total)
    }

    /// Inserts a record (given as logical values) into a specific partition.
    pub fn insert(&self, partition: PartitionId, table: TableId, values: &[Value]) -> Result<RecordId> {
        let meta = self.table_meta(table)?;
        let cells = encode_record(&meta.schema, values)?;
        let store = self.partition(partition)?;
        let mut store = store.write();
        // Epoch read under the partition's write lock: the stamp contract of `Page::epoch`.
        let row = store.insert(table, &cells, self.live_epoch())?;
        Ok(RecordId::new(partition, table, row))
    }

    /// Reads a record as logical values.
    pub fn read(&self, rid: RecordId) -> Result<Vec<Value>> {
        let meta = self.table_meta(rid.table)?;
        let store = self.partition(rid.partition)?;
        let cells = store.read().read_record(rid.table, rid.row)?;
        decode_record(&meta.schema, &cells)
    }

    /// Overwrites a record with new logical values, shadow-copying the
    /// backing page if a snapshot still shares it.
    pub fn update(&self, rid: RecordId, values: &[Value]) -> Result<()> {
        let meta = self.table_meta(rid.table)?;
        let cells = encode_record(&meta.schema, values)?;
        let store = self.partition(rid.partition)?;
        let mut store = store.write();
        // Epoch read under the partition's write lock: the stamp contract of `Page::epoch`.
        store.update_record(rid.table, rid.row, &cells, self.live_epoch())
    }

    /// Takes a snapshot: a shallow copy of every table's page lists plus an
    /// increment of the live epoch, so that the first subsequent update of
    /// any captured page triggers a shadow copy. The increment comes first:
    /// a write that lands after a partition's page list was copied must
    /// already see the new live epoch (see [`crate::Page::epoch`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let snapshot_epoch = Epoch(self.live_epoch.fetch_add(1, Ordering::AcqRel));
        let id = self.next_snapshot.fetch_add(1, Ordering::Relaxed);
        let catalog = self.catalog.read();
        let mut tables = BTreeMap::new();
        for (tid, meta) in catalog.iter() {
            let mut per_partition = Vec::with_capacity(self.partitions.len());
            for p in &self.partitions {
                // h2tap: allow(lock_order) — ordering rule: catalog before partitions, never reversed (registration touches partitions and the catalog as disjoint one-statement sections). The catalog guard keeps table creation out while every partition's page list is frozen.
                let guard = p.read();
                let pages = guard.fragment(*tid).map(|f| f.pages().to_vec()).unwrap_or_default();
                per_partition.push(pages);
            }
            tables.insert(
                *tid,
                SnapshotTable::new(
                    Arc::clone(&meta.schema),
                    meta.layout,
                    per_partition,
                    SnapshotTableId { source: self.instance, table: *tid, epoch: snapshot_epoch },
                ),
            );
        }
        drop(catalog); // the registry insert below needs no catalog consistency — narrow the critical section
        self.active_snapshots.lock().insert(id, snapshot_epoch);
        Arc::new(Snapshot::new(id, snapshot_epoch, tables))
    }

    /// Number of snapshots that have been taken and not yet released.
    pub fn active_snapshot_count(&self) -> usize {
        self.active_snapshots.lock().len()
    }

    /// Releases a snapshot and reports how many of its pages had been
    /// superseded by copy-on-write (and are therefore reclaimable once the
    /// last referencing snapshot is gone).
    pub fn release_snapshot(&self, snapshot: &Snapshot) -> Result<GcReport> {
        let removed = self.active_snapshots.lock().remove(&snapshot.id());
        if removed.is_none() {
            return Err(H2Error::UnknownSnapshot(snapshot.id()));
        }
        let mut report = GcReport::default();
        for tid in snapshot.tables() {
            let frozen = snapshot.table(tid)?;
            for (p_idx, frozen_pages) in frozen.partitions().iter().enumerate() {
                let live = self.partitions[p_idx].read();
                let live_pages = live.fragment(tid).map(|f| f.pages().to_vec()).unwrap_or_default();
                for (i, page) in frozen_pages.iter().enumerate() {
                    let superseded = match live_pages.get(i) {
                        Some(live_page) => !Arc::ptr_eq(live_page, page),
                        None => true,
                    };
                    if superseded {
                        report.pages_reclaimed += 1;
                        report.bytes_reclaimed += page.byte_size();
                    }
                }
            }
        }
        self.telemetry.record_reclaim(report.pages_reclaimed, report.bytes_reclaimed);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::AttrType;

    fn db() -> (Arc<Database>, TableId) {
        let db = Database::new(2);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        (db, t)
    }

    #[test]
    fn create_table_registers_everywhere() {
        let (db, t) = db();
        assert_eq!(db.partition_count(), 2);
        assert_eq!(db.row_count(t).unwrap(), 0);
        assert!(db.table_by_name("t").is_ok());
        assert!(db.table_by_name("missing").is_err());
        assert!(db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).is_err());
    }

    #[test]
    fn insert_read_update_via_record_ids() {
        let (db, t) = db();
        let rid = db.insert(PartitionId(1), t, &[Value::Int64(10), Value::Int64(20)]).unwrap();
        assert_eq!(db.read(rid).unwrap(), vec![Value::Int64(10), Value::Int64(20)]);
        db.update(rid, &[Value::Int64(30), Value::Int64(40)]).unwrap();
        assert_eq!(db.read(rid).unwrap(), vec![Value::Int64(30), Value::Int64(40)]);
        assert_eq!(db.row_count(t).unwrap(), 1);
    }

    #[test]
    fn snapshot_isolates_later_updates() {
        let (db, t) = db();
        let rid = db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        let snap = db.snapshot();
        db.update(rid, &[Value::Int64(100), Value::Int64(200)]).unwrap();
        // Live database sees the new value...
        assert_eq!(db.read(rid).unwrap()[0], Value::Int64(100));
        // ...the snapshot still sees the old one.
        let frozen = snap.table(t).unwrap();
        let col0 = frozen.column(0);
        assert_eq!(col0, vec![1]);
        // COW happened exactly once.
        assert_eq!(db.telemetry().pages_copied, 1);
    }

    #[test]
    fn updates_before_any_snapshot_are_in_place() {
        let (db, t) = db();
        let rid = db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        db.update(rid, &[Value::Int64(3), Value::Int64(4)]).unwrap();
        assert_eq!(db.telemetry().pages_copied, 0);
    }

    #[test]
    fn snapshot_is_instantaneous_shallow_copy() {
        let (db, t) = db();
        for i in 0..100 {
            db.insert(PartitionId((i % 2) as u32), t, &[Value::Int64(i), Value::Int64(i)]).unwrap();
        }
        let snap = db.snapshot();
        // Shallow copy: the snapshot references the same page objects.
        let frozen = snap.table(t).unwrap();
        let live = db.partition(PartitionId(0)).unwrap();
        let live_first = live.read().fragment(t).unwrap().pages()[0].clone();
        assert!(Arc::ptr_eq(&frozen.partitions()[0][0], &live_first));
    }

    #[test]
    fn release_snapshot_reports_superseded_pages() {
        let (db, t) = db();
        let rid = db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        let snap = db.snapshot();
        db.update(rid, &[Value::Int64(9), Value::Int64(9)]).unwrap();
        let report = db.release_snapshot(&snap).unwrap();
        assert_eq!(report.pages_reclaimed, 1);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(db.active_snapshot_count(), 0);
        // Releasing twice is an error.
        assert!(db.release_snapshot(&snap).is_err());
    }

    #[test]
    fn release_without_updates_reclaims_nothing() {
        let (db, t) = db();
        db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        let snap = db.snapshot();
        let report = db.release_snapshot(&snap).unwrap();
        assert_eq!(report.pages_reclaimed, 0);
    }

    #[test]
    fn snapshot_tables_carry_their_identity() {
        let (first, t) = db();
        let s1 = first.snapshot();
        let s2 = first.snapshot();
        let id1 = s1.table(t).unwrap().identity;
        let id2 = s2.table(t).unwrap().identity;
        assert_eq!(id1.table, t);
        assert_eq!(id1.epoch, s1.epoch());
        assert_eq!(id1.source, id2.source, "same database instance");
        assert_ne!(id1, id2, "a new snapshot means a new epoch, so a new identity");
        // A different database never shares a source id, even for the same
        // table id and epoch.
        let (other, t2) = db();
        let s3 = other.snapshot();
        assert_eq!(t2, t);
        assert_ne!(s3.table(t2).unwrap().identity.source, id1.source);
    }

    /// The stamp contract of [`crate::Page::epoch`], under fire: a writer
    /// thread updates and inserts while this thread takes snapshots back to
    /// back. For every consecutive pair, every page of the newer snapshot
    /// stamped at or before the older snapshot's epoch must equal the older
    /// snapshot's page at that position.
    #[test]
    fn pages_stamped_at_or_before_a_snapshot_are_unchanged_since_it() {
        use h2tap_common::rng::SplitMixRng;
        use std::sync::atomic::AtomicBool;
        const ROWS: u64 = 10_000; // several pages per partition in every layout
        let record = |v: i64| vec![Value::Int64(v); 4];
        for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
            let db = Database::new(2);
            let t = db.create_table("t", Schema::homogeneous("c", 4, AttrType::Int64), layout).unwrap();
            for p in 0..2 {
                for i in 0..ROWS as i64 {
                    db.insert(PartitionId(p), t, &record(i)).unwrap();
                }
            }
            let stop = AtomicBool::new(false);
            let start = std::sync::Barrier::new(2);
            let (mut clean, mut dirty) = (0u64, 0u64);
            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut rng = SplitMixRng::new(0x57A);
                    start.wait();
                    let mut step = 0i64;
                    while !stop.load(Ordering::Acquire) {
                        step += 1;
                        let partition = PartitionId(rng.next_below(2) as u32);
                        if step % 64 == 0 {
                            db.insert(partition, t, &record(step)).unwrap();
                        } else {
                            // A hot tenth of the rows: most pages stay clean.
                            let rid = RecordId::new(partition, t, rng.next_below(ROWS / 10));
                            db.update(rid, &record(step)).unwrap();
                        }
                    }
                });
                start.wait();
                let mut older = db.snapshot();
                for _ in 0..300 {
                    let newer = db.snapshot();
                    let (old_table, new_table) = (older.table(t).unwrap(), newer.table(t).unwrap());
                    for (old_pages, new_pages) in old_table.partitions().iter().zip(new_table.partitions()) {
                        for (i, page) in new_pages.iter().enumerate() {
                            if page.epoch() > older.epoch() {
                                dirty += 1;
                                continue;
                            }
                            clean += 1;
                            assert!(
                                old_pages.get(i).is_some_and(|old| **old == **page),
                                "{layout:?}: page {i} stamped {} differs from its image in snapshot {}",
                                page.epoch(),
                                older.epoch()
                            );
                        }
                    }
                    db.release_snapshot(&older).unwrap();
                    older = newer;
                }
                stop.store(true, Ordering::Release);
                writer.join().unwrap();
            });
            assert!(clean > 0 && dirty > 0, "{layout:?}: the run must see both kinds of page ({clean} / {dirty})");
        }
    }

    #[test]
    fn epochs_advance_with_snapshots() {
        let (db, _) = db();
        assert_eq!(db.live_epoch(), Epoch(0));
        let s1 = db.snapshot();
        assert_eq!(s1.epoch(), Epoch(0));
        assert_eq!(db.live_epoch(), Epoch(1));
        let s2 = db.snapshot();
        assert_eq!(s2.epoch(), Epoch(1));
        assert_eq!(db.active_snapshot_count(), 2);
    }
}
