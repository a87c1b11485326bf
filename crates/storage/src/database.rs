//! The shared-memory database: catalog, partitions and snapshots.
//!
//! [`Database`] owns the hierarchical partition → table → page organization
//! and the snapshot clock. Every row change goes through
//! [`Database::commit`], which applies a whole transaction under the shared
//! side of one live-state lock, or through bulk loading's
//! [`Database::append`], which writes a run of records the same way;
//! [`Database::snapshot`] takes the exclusive side, so a snapshot sees every
//! write of a transaction or run or none. The OLAP
//! runtime takes [`Snapshot`]s and never touches the live store; dropping
//! the last `Arc` of one releases it and frees the pages only it still held.
//!
//! Lock order is a matter of types: the partitions live inside the
//! live-state lock, so a partition lock is reached only through a guard of
//! it. `commit` nests a partition's lock inside the shared side; `snapshot`
//! holds the exclusive side and reads the partitions through `get_mut`,
//! taking no partition lock at all; dropping a snapshot takes neither.

use crate::codec::{decode_record, encode_into};
use crate::layout::Layout;
use crate::partition::PartitionStore;
use crate::snapshot::{Snapshot, SnapshotTable, SnapshotTableId};
use crate::table::TableFragment;
use crate::telemetry::{CowStats, CowTelemetry};
use h2tap_common::{Epoch, H2Error, PartitionId, RecordId, Result, Schema, TableId, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
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

/// What a write and a snapshot must agree on: the catalog, the write epoch
/// and the partitions. Commits hold it shared and snapshots exclusively, so
/// holding it is the only way to learn the epoch a write stamps its pages
/// with, and the only way to reach a partition.
#[derive(Debug)]
struct Live {
    epoch: Epoch,
    /// Indexed by `TableId`: a new table's id is the catalog's length.
    tables: Vec<TableMeta>,
    names: BTreeMap<String, TableId>,
    partitions: Vec<RwLock<PartitionStore>>,
}

impl Live {
    fn store(&self, p: PartitionId) -> Result<&RwLock<PartitionStore>> {
        self.partitions.get(p.0 as usize).ok_or_else(|| H2Error::Config(format!("partition {p} out of range")))
    }

    /// Records of `table` in one partition.
    fn rows_in(&self, partition: PartitionId, table: TableId) -> Result<u64> {
        Ok(self.store(partition)?.read().fragment(table).map_or(0, |f| f.row_count()))
    }

    fn meta(&self, table: TableId) -> Result<&TableMeta> {
        self.tables.get(table.0 as usize).ok_or_else(|| H2Error::UnknownTable(table.to_string()))
    }
}

/// The Caldera shared-memory database.
#[derive(Debug)]
pub struct Database {
    /// Process-unique instance id, part of every snapshot table's cache
    /// identity so frozen images from different databases never alias.
    instance: u64,
    live: RwLock<Live>,
    telemetry: Arc<CowTelemetry>,
}

impl Database {
    /// Creates a database partitioned `partition_count` ways (one partition
    /// per OLTP worker core).
    pub fn new(partition_count: usize) -> Arc<Self> {
        assert!(partition_count > 0, "database needs at least one partition");
        let telemetry = CowTelemetry::new();
        let partitions = (0..partition_count)
            .map(|i| RwLock::new(PartitionStore::new(PartitionId(i as u32), Arc::clone(&telemetry))))
            .collect();
        let live = Live { epoch: Epoch::ZERO, tables: Vec::new(), names: BTreeMap::new(), partitions };
        Arc::new(Self { instance: crate::snapshot::next_source_id(), live: RwLock::new(live), telemetry })
    }

    /// Number of horizontal partitions.
    pub fn partition_count(&self) -> usize {
        self.live.read().partitions.len()
    }

    /// Copy-on-write telemetry counters.
    pub fn telemetry(&self) -> CowStats {
        self.telemetry.snapshot()
    }

    /// The current live epoch (pages stamped with an older epoch are still
    /// shared with at least one snapshot).
    pub fn live_epoch(&self) -> Epoch {
        self.live.read().epoch
    }

    /// Creates a table with the given layout. A partition registers it with
    /// its first write there.
    pub fn create_table(&self, name: impl Into<String>, schema: Schema, layout: Layout) -> Result<TableId> {
        let name = name.into();
        let mut live = self.live.write();
        if live.names.contains_key(&name) {
            return Err(H2Error::Config(format!("table {name:?} already exists")));
        }
        let id = TableId(live.tables.len() as u32);
        live.tables.push(TableMeta { id, name: name.clone(), schema: Arc::new(schema), layout });
        live.names.insert(name, id);
        Ok(id)
    }

    /// Catalog entry of `table`.
    pub fn table_meta(&self, table: TableId) -> Result<TableMeta> {
        self.live.read().meta(table).cloned()
    }

    /// Ids of all tables.
    pub fn tables(&self) -> Vec<TableId> {
        (0..self.live.read().tables.len() as u32).map(TableId).collect()
    }

    /// Total records of `table` across all partitions.
    pub fn row_count(&self, table: TableId) -> Result<u64> {
        let live = self.live.read();
        live.meta(table)?;
        (0..live.partitions.len()).map(|p| live.rows_in(PartitionId(p as u32), table)).sum()
    }

    /// Applies one transaction's writes as a unit: `updates` overwrite
    /// existing records and `inserts` append to a partition. Returns the
    /// inserted records' ids, in the order of `inserts`.
    ///
    /// Every write is checked and encoded before any page is touched, so a
    /// failure — an unknown table or partition, a row out of range, a record
    /// that does not fit its schema — returns `Err` with nothing written. The
    /// writes then land under the shared side of the live-state lock, so a
    /// [`Database::snapshot`] (the exclusive side) sees all of them or none,
    /// and every page they touch is stamped with one epoch.
    pub fn commit(
        &self,
        updates: &[(RecordId, &[Value])],
        inserts: &[(PartitionId, TableId, &[Value])],
    ) -> Result<Vec<RecordId>> {
        let writes = updates
            .iter()
            .map(|(rid, values)| (rid.partition, rid.table, Some(rid.row), *values))
            .chain(inserts.iter().map(|(partition, table, values)| (*partition, *table, None, *values)));
        let live = self.live.read();
        // 1. Check and encode, every record's cells one after the other.
        //    Row counts only grow, so a row checked in range stays in range.
        let mut cells = Vec::with_capacity(writes.clone().map(|w| w.3.len()).sum());
        for (partition, table, row, values) in writes.clone() {
            encode_into(&live.meta(table)?.schema, values, &mut cells)?;
            if let Some(row) = row {
                if row >= live.rows_in(partition, table)? {
                    return Err(H2Error::UnknownRecord(format!("row {row} of {table} beyond partition {partition}")));
                }
            } else {
                live.store(partition)?;
            }
        }
        // 2. Apply, partition by partition with one write lock at a time.
        //    Nothing below can fail on a write that passed step 1.
        let mut rids = vec![RecordId::new(PartitionId(0), TableId(0), 0); inserts.len()];
        for (p, store) in live.partitions.iter().enumerate() {
            let here = PartitionId(p as u32);
            let mut guard = None;
            let mut rest = cells.as_slice();
            for (i, (partition, table, row, values)) in writes.clone().enumerate() {
                let (record, tail) = rest.split_at(values.len());
                rest = tail;
                if partition != here {
                    continue;
                }
                let meta = live.meta(table)?;
                let fragment = guard.get_or_insert_with(|| store.write()).register_table(meta);
                match row {
                    Some(row) => fragment.update_record(row, record, live.epoch)?,
                    None => rids[i - updates.len()] = RecordId::new(here, table, fragment.insert(record, live.epoch)?),
                }
            }
        }
        Ok(rids)
    }

    /// Inserts a record (given as logical values) into a specific partition:
    /// a one-row [`Database::commit`].
    pub fn insert(&self, partition: PartitionId, table: TableId, values: &[Value]) -> Result<RecordId> {
        Ok(self.commit(&[], &[(partition, table, values)])?[0])
    }

    /// Appends records to `table` in `partition`, given as their cells one
    /// after another as [`encode_into`] writes them, and returns the row
    /// index of the first. The tail page is filled before a new one opens
    /// and each page is written once, all under one hold of the live-state
    /// lock and the partition's lock. Bulk loading's path: it checks only
    /// that the cells are whole records, so they must come from the codec.
    pub fn append(&self, partition: PartitionId, table: TableId, cells: &[u64]) -> Result<u64> {
        let live = self.live.read();
        let meta = live.meta(table)?;
        let mut store = live.store(partition)?.write();
        store.register_table(meta).insert(cells, live.epoch)
    }

    /// Reads a record as logical values.
    pub fn read(&self, rid: RecordId) -> Result<Vec<Value>> {
        let live = self.live.read();
        let schema = &live.meta(rid.table)?.schema;
        let cells = live.store(rid.partition)?.read().fragment(rid.table)?.read_record(rid.row)?;
        decode_record(schema, &cells)
    }

    /// Overwrites a record with new logical values, shadow-copying the
    /// backing page if a snapshot still shares it: a one-row
    /// [`Database::commit`].
    pub fn update(&self, rid: RecordId, values: &[Value]) -> Result<()> {
        self.commit(&[(rid, values)], &[]).map(drop)
    }

    /// Takes a snapshot: one `Arc` clone per page segment of every table
    /// and partition (see [`crate::SEGMENT_PAGES`]), each partition's row
    /// count, and an increment of the live epoch, so that the first
    /// subsequent write to a captured segment copies its pointer array and
    /// the first to a captured page shadow-copies it. It costs the segment
    /// count, not the page count. All of it happens under the exclusive side
    /// of the live-state lock, so no commit is half applied and every later
    /// write stamps its pages past this snapshot's epoch (see
    /// [`crate::Page::epoch`]); that side owns the partitions outright, so
    /// reading them takes no partition lock.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let mut guard = self.live.write();
        let live = &mut *guard;
        let snapshot_epoch = live.epoch;
        live.epoch = snapshot_epoch.next();
        let mut tables = BTreeMap::new();
        for meta in &live.tables {
            let per_partition = live
                .partitions
                .iter_mut()
                .map(|p| p.get_mut().fragment(meta.id).map(TableFragment::image).unwrap_or_default())
                .collect();
            tables.insert(
                meta.id,
                SnapshotTable::new(
                    Arc::clone(&meta.schema),
                    meta.layout,
                    per_partition,
                    SnapshotTableId { source: self.instance, table: meta.id, epoch: snapshot_epoch },
                ),
            );
        }
        drop(guard); // counting the snapshot needs no consistency with writes
        Arc::new(Snapshot::new(snapshot_epoch, tables, Arc::clone(&self.telemetry)))
    }

    /// Number of snapshots taken and not yet dropped. A caller that keeps an
    /// `Arc<Snapshot>` keeps it counted here, and keeps every page only it
    /// still holds allocated.
    pub fn active_snapshot_count(&self) -> u64 {
        self.telemetry.live_snapshots()
    }

    /// Does nothing: a snapshot is released by dropping its last `Arc`.
    /// Kept for callers written against the old manual release.
    #[doc(hidden)]
    pub fn release_snapshot(&self, _snapshot: &Snapshot) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEGMENT_PAGES;
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
        assert_eq!(db.tables(), vec![t]);
        assert_eq!(db.table_meta(t).unwrap().name, "t");
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
    fn a_rejected_commit_writes_nothing() {
        let (db, t) = db();
        let rid = db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        let good: &[Value] = &[Value::Int64(3), Value::Int64(4)];
        let wrong_type: &[Value] = &[Value::Int64(5), Value::Float64(6.0)];
        let beyond = RecordId::new(PartitionId(1), t, 0);
        assert!(db.commit(&[(rid, good), (beyond, good)], &[]).is_err());
        assert!(db.commit(&[(rid, good)], &[(PartitionId(2), t, good)]).is_err());
        assert!(db.commit(&[(rid, good)], &[(PartitionId(1), t, wrong_type)]).is_err());
        assert!(db.commit(&[(rid, good)], &[(PartitionId(1), TableId(9), good)]).is_err());
        assert_eq!(db.read(rid).unwrap(), vec![Value::Int64(1), Value::Int64(2)]);
        assert_eq!(db.row_count(t).unwrap(), 1);
        assert_eq!(db.telemetry().in_place_updates, 1, "no page was written after the first insert");
    }

    #[test]
    fn commit_returns_insert_ids_in_input_order() {
        let (db, t) = db();
        let rows: Vec<[Value; 2]> = (0..3).map(|v| [Value::Int64(v), Value::Int64(v)]).collect();
        let inserts =
            [(PartitionId(1), t, &rows[0][..]), (PartitionId(0), t, &rows[1][..]), (PartitionId(1), t, &rows[2][..])];
        let rids = db.commit(&[], &inserts).unwrap();
        assert_eq!(rids.iter().map(|rid| (rid.partition.0, rid.row)).collect::<Vec<_>>(), [(1, 0), (0, 0), (1, 1)]);
        for (rid, row) in rids.iter().zip(&rows) {
            assert_eq!(db.read(*rid).unwrap(), row.to_vec());
        }
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
        // Shallow copy: the snapshot references the same segment objects.
        let frozen = snap.table(t).unwrap();
        let live = db.live.read().partitions[0].read().fragment(t).unwrap().image();
        assert!(Arc::ptr_eq(&frozen.partitions()[0].segments[0], &live.segments[0]));
    }

    #[test]
    fn release_snapshot_reports_superseded_pages() {
        let (db, t) = db();
        let rid = db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        let base = db.telemetry();
        let snap = db.snapshot();
        db.update(rid, &[Value::Int64(9), Value::Int64(9)]).unwrap();
        assert_eq!(db.active_snapshot_count(), 1);
        // Releasing is dropping the last handle: the page the update
        // superseded was held only by the snapshot, so it is reclaimed.
        drop(snap);
        let reclaimed = db.telemetry().delta_since(&base);
        assert_eq!(reclaimed.pages_reclaimed, 1);
        assert!(reclaimed.bytes_reclaimed > 0);
        assert_eq!(db.active_snapshot_count(), 0);
    }

    #[test]
    fn release_without_updates_reclaims_nothing() {
        let (db, t) = db();
        db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
        let base = db.telemetry();
        let snap = db.snapshot();
        // Every page is still live, so the drop frees none of them.
        drop(snap);
        let reclaimed = db.telemetry().delta_since(&base);
        assert_eq!((reclaimed.pages_reclaimed, reclaimed.bytes_reclaimed), (0, 0));
        assert_eq!(db.active_snapshot_count(), 0);
    }

    /// Two snapshots dropped in either order: a superseded page counts once,
    /// when the last snapshot holding it drops, and a page the live store or
    /// the other snapshot still holds does not count.
    #[test]
    fn dropping_snapshots_reclaims_each_superseded_page_once() {
        // (scenario, updates between the snapshots, updates after both,
        //  pages reclaimed by the first drop when s1 / s2 drops first,
        //  pages reclaimed by both drops)
        let scenarios = [
            ("(a) s1, update, s2", 1, 0, [1, 0], 1),
            ("(b) s1, s2, update", 0, 1, [0, 0], 1),
            ("(c) no writes", 0, 0, [0, 0], 0),
        ];
        for (scenario, between, after, first_drop, total) in scenarios {
            for first in [0, 1] {
                let (db, t) = db();
                let rid = db.insert(PartitionId(0), t, &[Value::Int64(1), Value::Int64(2)]).unwrap();
                db.insert(PartitionId(1), t, &[Value::Int64(3), Value::Int64(4)]).unwrap();
                let update = |n| {
                    for v in 0..n {
                        db.update(rid, &[Value::Int64(v), Value::Int64(v)]).unwrap();
                    }
                };
                let base = db.telemetry();
                let s1 = db.snapshot();
                update(between);
                let s2 = db.snapshot();
                update(after);
                assert_eq!(db.active_snapshot_count(), 2, "{scenario}");
                let mut held = vec![s1, s2];
                drop(held.remove(first));
                let reclaimed = db.telemetry().delta_since(&base);
                assert_eq!(reclaimed.pages_reclaimed, first_drop[first], "{scenario}, s{} first", first + 1);
                assert_eq!(db.active_snapshot_count(), 1, "{scenario}");
                drop(held);
                let reclaimed = db.telemetry().delta_since(&base);
                assert_eq!(reclaimed.pages_reclaimed, total, "{scenario}, s{} first", first + 1);
                assert_eq!(reclaimed.bytes_reclaimed > 0, total > 0, "{scenario}");
                assert_eq!(db.active_snapshot_count(), 0, "{scenario}");
            }
        }
    }

    /// One `Int64` column on two-row pages, so a segment is a few hundred
    /// rows.
    fn two_row_pages() -> (Schema, Layout) {
        (Schema::homogeneous("c", 1, AttrType::Int64), Layout::Pax { page_bytes: 16 })
    }

    /// Writes to the first and last page of a segment, a write to a segment
    /// two snapshots share, and inserts that fill the tail segment and open
    /// a new one. A written segment is copied once per epoch while a
    /// snapshot shares it; each superseded page is reclaimed exactly once,
    /// by whichever of the two snapshots drops last holding it.
    #[test]
    fn segments_copy_once_per_epoch_and_reclaim_each_page_once() {
        for first in [0, 1] {
            // Two full segments and three pages of a third, cell value = row.
            let db = Database::new(1);
            let (schema, layout) = two_row_pages();
            let seg = (SEGMENT_PAGES * layout.rows_per_page(&schema)) as u64;
            let t = db.create_table("t", schema, layout).unwrap();
            for row in 0..2 * seg as i64 + 6 {
                db.insert(PartitionId(0), t, &[Value::Int64(row)]).unwrap();
            }
            let write =
                |row: u64, v: i64| db.update(RecordId::new(PartitionId(0), t, row), &[Value::Int64(v)]).unwrap();
            let base = db.telemetry();
            let s1 = db.snapshot();
            write(0, -1); // first page of segment 0
            write(seg - 1, -1); // last page of segment 0
            write(1, -1); // the first page again, same epoch
            let d = db.telemetry().delta_since(&base);
            assert_eq!((d.segments_copied, d.pages_copied), (1, 2));
            let s2 = db.snapshot();
            // Segment 0 again, in a new epoch; then fill the tail segment
            // (shared by both snapshots) and open a new one.
            write(0, -2);
            let tail_rows = seg - 6 + 1;
            for i in 0..tail_rows as i64 {
                db.insert(PartitionId(0), t, &[Value::Int64(1_000 + i)]).unwrap();
            }
            let d = db.telemetry().delta_since(&base);
            assert_eq!((d.segments_copied, d.pages_copied), (3, 3), "segment 0 and the tail segment");
            let live = db.live.read().partitions[0].read().fragment(t).unwrap().image();
            assert_eq!(live.segments.len(), 4, "the last insert opened a fourth segment");
            assert_eq!(live.segments[3].pages().count(), 1);
            // Each snapshot still reads its own cut.
            let (c1, c2) = (s1.table(t).unwrap().column(0), s2.table(t).unwrap().column(0));
            assert_eq!((c1.len() as u64, c2.len() as u64), (2 * seg + 6, 2 * seg + 6));
            assert_eq!((c1[0], c1[1], c1[seg as usize - 1]), (0, 1, seg - 1));
            assert_eq!((c2[0], c2[1], c2[seg as usize - 1]), ((-1i64) as u64, (-1i64) as u64, (-1i64) as u64));
            assert_eq!(db.read(RecordId::new(PartitionId(0), t, 0)).unwrap(), vec![Value::Int64(-2)]);
            assert_eq!(db.row_count(t).unwrap(), 3 * seg + 1);
            // s1 alone holds segment 0's first version (pages 0 and last);
            // s2 alone its second (page 0 once more); both share the tail
            // segment's first version, whose pages the live store still has.
            let mut held = vec![s1, s2];
            drop(held.remove(first));
            let d = db.telemetry().delta_since(&base);
            assert_eq!(d.pages_reclaimed, [2, 1][first], "s{} first", first + 1);
            drop(held);
            let d = db.telemetry().delta_since(&base);
            assert_eq!(d.pages_reclaimed, d.pages_copied, "s{} first: each superseded page once", first + 1);
            assert_eq!(db.active_snapshot_count(), 0);
        }
    }

    /// Over seeded random updates, inserts and snapshots on a two-partition
    /// table of many small segments, the floored stamp query agrees with a
    /// per-page maximum for random row ranges and floors, and `column_into`
    /// with a copy of the whole column.
    #[test]
    fn the_stamp_query_agrees_with_a_per_page_maximum() {
        use h2tap_common::rng::SplitMixRng;
        let db = Database::new(2);
        let (schema, layout) = two_row_pages();
        let per_page = layout.rows_per_page(&schema);
        let t = db.create_table("t", schema, layout).unwrap();
        let mut rng = SplitMixRng::new(0x5E6);
        let mut rows = [0u64; 2];
        for (p, rows) in rows.iter_mut().enumerate() {
            for _ in 0..(2 * SEGMENT_PAGES * per_page) as u64 + rng.next_below(500) {
                db.insert(PartitionId(p as u32), t, &[Value::Int64(*rows as i64)]).unwrap();
                *rows += 1;
            }
        }
        let mut held = Vec::new();
        for round in 0..40 {
            for _ in 0..rng.next_below(40) {
                let p = rng.next_below(2) as usize;
                if rng.next_below(4) == 0 {
                    db.insert(PartitionId(p as u32), t, &[Value::Int64(round)]).unwrap();
                    rows[p] += 1;
                } else {
                    let row = rng.next_below(rows[p]);
                    db.update(RecordId::new(PartitionId(p as u32), t, row), &[Value::Int64(round)]).unwrap();
                }
            }
            let snap = db.snapshot();
            let table = snap.table(t).unwrap();
            // Every page with its storage-order row range.
            let mut pages = Vec::new();
            let mut start = 0usize;
            for part in table.partitions() {
                for page in part.pages() {
                    pages.push((start..start + page.len(), page.epoch()));
                    start += page.len();
                }
                let here: Vec<_> = part.pages().collect();
                let full = here.split_last().map_or(&[][..], |(_, full)| full);
                assert!(full.iter().all(|page| page.len() == per_page), "only a partition's last page is short");
            }
            let total = table.row_count() as usize;
            assert_eq!(start, total);
            let column = table.column(0);
            for _ in 0..50 {
                let lo = rng.next_below(total as u64 + 1) as usize;
                let hi = lo + rng.next_below((total - lo) as u64 + 1) as usize;
                let floor = Epoch(rng.next_below(snap.epoch().0 + 2));
                let brute = pages
                    .iter()
                    .filter(|(range, _)| lo < hi && range.start < hi && range.end > lo)
                    .map(|&(_, stamp)| stamp)
                    .fold(floor, Epoch::max);
                assert_eq!(table.newest_stamp(lo..hi, floor), brute, "round {round}: rows {lo}..{hi}, floor {floor}");
                let mut out = vec![u64::MAX; hi - lo];
                table.column_into(0, lo..hi, &mut out);
                assert_eq!(out, &column[lo..hi], "round {round}: rows {lo}..{hi}");
            }
            // Keep a few older snapshots alive, so segments stay shared.
            held.push(snap);
            if held.len() > 3 {
                held.remove(rng.next_below(held.len() as u64) as usize);
            }
        }
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
    /// snapshot's page at that position. Pairs continue past the first 300
    /// until both kinds of page have been seen; each pair waits for the
    /// writer to make progress, so a descheduled writer cannot leave every
    /// pair clean.
    #[test]
    fn pages_stamped_at_or_before_a_snapshot_are_unchanged_since_it() {
        use h2tap_common::rng::SplitMixRng;
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
            let written = AtomicU64::new(0);
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
                        written.fetch_add(1, Ordering::Release);
                    }
                });
                start.wait();
                let mut older = db.snapshot();
                let mut pairs = 0;
                while pairs < 300 || clean == 0 || dirty == 0 {
                    pairs += 1;
                    // Wait for the writer to progress past the older snapshot.
                    let seen = written.load(Ordering::Acquire);
                    while written.load(Ordering::Acquire) == seen && !writer.is_finished() {
                        std::thread::yield_now();
                    }
                    assert!(!writer.is_finished(), "{layout:?}: the writer thread stopped");
                    let newer = db.snapshot();
                    let (old_table, new_table) = (older.table(t).unwrap(), newer.table(t).unwrap());
                    for (old, new) in old_table.partitions().iter().zip(new_table.partitions()) {
                        let old_pages: Vec<_> = old.pages().collect();
                        for (i, page) in new.pages().enumerate() {
                            if page.epoch() > older.epoch() {
                                dirty += 1;
                                continue;
                            }
                            clean += 1;
                            assert!(
                                old_pages.get(i).is_some_and(|old| ***old == **page),
                                "{layout:?}: page {i} stamped {} differs from its image in snapshot {}",
                                page.epoch(),
                                older.epoch()
                            );
                        }
                    }
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
