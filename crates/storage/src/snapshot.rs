//! Immutable database snapshots.
//!
//! "Caldera always executes OLAP queries on a database snapshot." A snapshot
//! is a shallow copy of the hierarchical data organization: per table and
//! partition it holds `Arc`s to the same page segments as the live database
//! at the moment it was taken, plus the row count then. Taking one clones
//! one `Arc` per segment of [`crate::SEGMENT_PAGES`] pages, not one
//! per page, and copies no data. Transactions that later write a segment
//! copy its pointer array and shadow-copy the page into the live database,
//! leaving the snapshot's versions untouched (see [`crate::Page::epoch`]).
//! Every page but a partition's last is full, so a row's page is found by
//! arithmetic, without a directory.
//!
//! Releasing a snapshot is dropping its last `Arc<Snapshot>`: no registry
//! tracks it. The drop frees every page that the live store has since
//! superseded and no other snapshot still holds, and counts those pages in
//! the database's [`crate::CowStats`]. It reads only the segments it was
//! the last to hold.

use crate::layout::{Layout, ScanProfile};
use crate::page::Page;
use crate::table::{FragmentImage, SEGMENT_PAGES};
use crate::telemetry::CowTelemetry;
use h2tap_common::{Epoch, H2Error, Result, Schema, TableId};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of globally unique data-source numbers: every [`crate::Database`]
/// instance takes one at construction, and every detached
/// ([`SnapshotTableId::detached`]) frozen table takes its own, so two frozen
/// images from different origins can never share an identity.
static NEXT_SOURCE: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_source_id() -> u64 {
    NEXT_SOURCE.fetch_add(1, Ordering::Relaxed)
}

/// The identity of one frozen table image: which database instance it came
/// from, which table, and which snapshot epoch froze it.
///
/// Two [`SnapshotTable`]s with equal identities reference byte-identical
/// data — the epoch is bumped on every snapshot and copy-on-write keeps a
/// frozen epoch's pages immutable — which is what makes the identity a safe
/// key for caching *derived* plan data (materialised columns, zonemap stats,
/// join hash tables) across queries and across execution sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotTableId {
    /// Process-unique id of the owning [`crate::Database`] instance (or of
    /// the detached table itself, see [`SnapshotTableId::detached`]).
    pub source: u64,
    /// The table within that database.
    pub table: TableId,
    /// The snapshot epoch the image was frozen at.
    pub epoch: Epoch,
}

impl SnapshotTableId {
    /// A fresh identity for a frozen table assembled outside any database
    /// (tests, ad-hoc tooling). Each call returns a distinct `source`, so a
    /// detached table never aliases a database snapshot — or another
    /// detached table — in a plan-data cache.
    pub fn detached() -> Self {
        Self { source: next_source_id(), table: TableId(u32::MAX), epoch: Epoch::ZERO }
    }
}

/// The frozen image of one table across all partitions.
#[derive(Debug, Clone)]
pub struct SnapshotTable {
    /// Table schema.
    pub schema: Arc<Schema>,
    /// Table layout.
    pub layout: Layout,
    /// Cache identity of this frozen image (database instance + table +
    /// snapshot epoch).
    pub identity: SnapshotTableId,
    rows_per_page: usize,
    /// Each partition's segments and row count, in partition order.
    partitions: Vec<FragmentImage>,
    partition_rows: Vec<u64>,
    rows: u64,
}

impl SnapshotTable {
    /// A frozen image over `partitions` (fragment images in partition
    /// order, all of this table).
    pub(crate) fn new(
        schema: Arc<Schema>,
        layout: Layout,
        partitions: Vec<FragmentImage>,
        identity: SnapshotTableId,
    ) -> Self {
        let rows_per_page = layout.rows_per_page(&schema);
        let partition_rows: Vec<u64> = partitions.iter().map(|p| p.rows).collect();
        let rows = partition_rows.iter().sum();
        Self { schema, layout, identity, rows_per_page, partitions, partition_rows, rows }
    }

    /// Each partition's segments and row count, in partition order.
    #[cfg(test)]
    pub(crate) fn partitions(&self) -> &[FragmentImage] {
        &self.partitions
    }

    /// The partitions holding storage-order rows `rows`, each with the
    /// partition-local rows of the range it holds, in storage order.
    fn spans(&self, rows: Range<usize>) -> impl Iterator<Item = (&FragmentImage, Range<usize>)> {
        let mut start = 0usize;
        self.partitions.iter().filter_map(move |part| {
            let (lo, hi) = (start, start + part.rows as usize);
            start = hi;
            let local = rows.start.max(lo)..rows.end.min(hi);
            (local.start < local.end).then(|| (part, local.start - lo..local.end - lo))
        })
    }

    /// Total number of records in the frozen image.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Records per partition, in partition order.
    pub fn partition_rows(&self) -> &[u64] {
        &self.partition_rows
    }

    /// The newest [`Page::epoch`] stamp among the pages holding rows `rows`
    /// (storage order), or `floor` if none is newer. By the stamp contract
    /// documented on [`Page::epoch`], a result `<= e` for some `e >= floor`
    /// means none of those pages was written since the snapshot frozen at
    /// epoch `e`.
    ///
    /// A segment whose newest stamp is `<= floor` is passed over whole, so
    /// the query reads page stamps only inside segments written since
    /// `floor`: on a table nothing was written to, it costs the segments.
    pub fn newest_stamp(&self, rows: Range<usize>, floor: Epoch) -> Epoch {
        let per_page = self.rows_per_page;
        let mut newest = floor;
        for (part, local) in self.spans(rows) {
            let (first, end) = (local.start / per_page, (local.end - 1) / per_page + 1);
            let segments = part.segments.iter().enumerate().take(end.div_ceil(SEGMENT_PAGES));
            for (index, segment) in segments.skip(first / SEGMENT_PAGES) {
                if segment.newest() <= newest {
                    continue;
                }
                let base = index * SEGMENT_PAGES;
                let pages = segment.pages().take(end - base).skip(first.max(base) - base);
                newest = pages.map(|page| page.epoch()).fold(newest, Epoch::max);
            }
        }
        newest
    }

    /// Every page, in storage order.
    fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.partitions.iter().flat_map(FragmentImage::pages)
    }

    /// Iterates the values of one attribute across all partitions and pages.
    pub fn iter_attr(&self, attr: usize) -> impl Iterator<Item = u64> + '_ {
        self.pages().flat_map(move |p| p.iter_attr(attr))
    }

    /// Materialises one attribute as a contiguous vector. Column-major
    /// (DSM/PAX) pages are bulk-copied slice-at-a-time; only row-major NSM
    /// pages fall back to per-cell strided reads.
    pub fn column(&self, attr: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.row_count() as usize);
        for page in self.pages() {
            match page.column_slice(attr) {
                Some(slice) => out.extend_from_slice(slice),
                None => out.extend(page.iter_attr(attr)),
            }
        }
        out
    }

    /// Copies rows `rows` (in storage order) of attribute `attr` into `out`
    /// (`out.len()` must equal the range length) — the chunk-granular
    /// counterpart of [`SnapshotTable::column`], which is what lets callers
    /// materialise disjoint chunks of the same column from different
    /// threads. The first page of the range is found by arithmetic, so a
    /// chunk deep in the table does not walk the pages before it.
    /// Column-major (DSM/PAX) pages are bulk-copied slice-at-a-time;
    /// row-major NSM pages fall back to per-cell strided reads.
    pub fn column_into(&self, attr: usize, rows: Range<usize>, out: &mut [u64]) {
        debug_assert_eq!(out.len(), rows.len());
        let mut written = 0usize;
        for (part, local) in self.spans(rows.clone()) {
            let first = local.start / self.rows_per_page;
            let mut page_start = first * self.rows_per_page;
            for page in part.pages_from(first) {
                if page_start >= local.end {
                    break;
                }
                let lo = local.start.max(page_start) - page_start;
                let hi = local.end.min(page_start + page.len()) - page_start;
                let dst = &mut out[written..written + (hi - lo)];
                match page.column_slice(attr) {
                    Some(slice) => dst.copy_from_slice(&slice[lo..hi]),
                    None => {
                        for (slot, cell) in dst.iter_mut().zip(page.iter_attr_from(attr, lo)) {
                            *slot = cell;
                        }
                    }
                }
                written += hi - lo;
                page_start += page.len();
            }
        }
        debug_assert_eq!(written, rows.len(), "range within the table's rows");
    }

    /// The memory-traffic profile of scanning `attrs` of this frozen table.
    pub fn scan_profile(&self, attrs: &[usize]) -> ScanProfile {
        self.layout.scan_profile(&self.schema, attrs, self.row_count())
    }
}

/// A consistent, immutable view of the whole database.
///
/// Shared as an `Arc<Snapshot>` and never cloned by value: dropping the last
/// `Arc` releases it (see the module doc).
#[derive(Debug)]
pub struct Snapshot {
    epoch: Epoch,
    tables: BTreeMap<TableId, SnapshotTable>,
    telemetry: Arc<CowTelemetry>,
}

impl Snapshot {
    /// A live snapshot over `tables`, counted in `telemetry` until it drops.
    pub(crate) fn new(epoch: Epoch, tables: BTreeMap<TableId, SnapshotTable>, telemetry: Arc<CowTelemetry>) -> Self {
        telemetry.record_snapshot_taken();
        Self { epoch, tables, telemetry }
    }

    /// The snapshot's epoch number. Every snapshot of a database bumps its
    /// epoch, so the number identifies the snapshot within that database.
    pub fn id(&self) -> u64 {
        self.epoch.0
    }

    /// The epoch this snapshot froze.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The frozen image of `table`.
    pub fn table(&self, table: TableId) -> Result<&SnapshotTable> {
        self.tables.get(&table).ok_or_else(|| H2Error::UnknownTable(format!("{table} in snapshot {}", self.epoch)))
    }

    /// Ids of all tables captured by the snapshot.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables.keys().copied()
    }
}

impl Drop for Snapshot {
    /// Frees and counts this snapshot's reclaim. A page counts once, when the
    /// last snapshot that held it drops: `Arc::into_inner` hands a segment,
    /// and then each of its pages, to exactly one final holder. A segment
    /// this snapshot still shares with the live store or another snapshot
    /// stays where it is, unread. A [`SnapshotTable`] cloned out of a
    /// snapshot frees its pages uncounted. No partition or live-state lock
    /// is taken.
    fn drop(&mut self) {
        let (mut pages, mut bytes) = (0, 0);
        for table in std::mem::take(&mut self.tables).into_values() {
            let segments = table.partitions.into_iter().flat_map(|part| part.segments);
            for segment in segments.filter_map(Arc::into_inner) {
                for page in segment.into_pages().filter_map(Arc::into_inner) {
                    pages += 1;
                    bytes += page.byte_size();
                }
            }
        }
        self.telemetry.record_snapshot_released(pages, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableFragment;
    use h2tap_common::AttrType;

    /// One partition's image: `rows` inserted at epoch 0, one record per
    /// row made by `record`.
    fn image(schema: &Arc<Schema>, layout: Layout, rows: Range<u64>, record: fn(u64) -> Vec<u64>) -> FragmentImage {
        let mut f = TableFragment::new(Arc::clone(schema), layout, CowTelemetry::new());
        for i in rows {
            f.insert(&record(i), Epoch::ZERO).unwrap();
        }
        f.image()
    }

    fn frozen_table() -> SnapshotTable {
        let schema = Arc::new(Schema::homogeneous("c", 3, AttrType::Int32));
        let record = |i| vec![i, i * 2, i * 3];
        let parts = vec![image(&schema, Layout::Dsm, 0..5, record), image(&schema, Layout::Dsm, 5..9, record)];
        SnapshotTable::new(schema, Layout::Dsm, parts, SnapshotTableId::detached())
    }

    #[test]
    fn row_count_spans_partitions() {
        assert_eq!(frozen_table().row_count(), 9);
    }

    #[test]
    fn column_materialisation_preserves_order() {
        let t = frozen_table();
        let col: Vec<u64> = t.column(1);
        assert_eq!(col, vec![0, 2, 4, 6, 8, 10, 12, 14, 16]);
    }

    #[test]
    fn column_into_copies_arbitrary_ranges_across_pages() {
        let t = frozen_table(); // 9 rows over two partitions (5 + 4)
        let full: Vec<u64> = t.column(1);
        for (lo, hi) in [(0, 9), (0, 0), (3, 7), (5, 9), (4, 5), (0, 5), (8, 9)] {
            let mut out = vec![u64::MAX; hi - lo];
            t.column_into(1, lo..hi, &mut out);
            assert_eq!(out, &full[lo..hi], "range {lo}..{hi}");
        }
    }

    #[test]
    fn column_into_handles_row_major_pages() {
        // NSM pages have no contiguous column slice: the strided fallback
        // must deliver the same cells.
        let schema = Arc::new(Schema::homogeneous("c", 2, AttrType::Int64));
        let part = image(&schema, Layout::Nsm, 0..6, |i| vec![i, i * 7]);
        let t = SnapshotTable::new(schema, Layout::Nsm, vec![part], SnapshotTableId::detached());
        let mut out = vec![0u64; 3];
        t.column_into(1, 2..5, &mut out);
        assert_eq!(out, vec![14, 21, 28]);
    }

    #[test]
    fn the_page_directory_locates_rows_and_reports_stamps() {
        // Two-row pages: partition 0 holds 300 rows on 150 pages in three
        // segments (64 + 64 + 22 pages), partition 1 nothing, partition 2
        // four rows. Everything is inserted at epoch 1; row 5 (page 2,
        // segment 0) is rewritten at epoch 3 and row 200 (page 100,
        // segment 1) at epoch 7.
        let layout = Layout::Pax { page_bytes: 16 };
        let schema = Arc::new(Schema::homogeneous("c", 1, AttrType::Int64));
        assert_eq!(layout.rows_per_page(&schema), 2);
        let mut f = TableFragment::new(Arc::clone(&schema), layout, CowTelemetry::new());
        for i in 0..300 {
            f.insert(&[i], Epoch(1)).unwrap();
        }
        f.update_record(5, &[5], Epoch(3)).unwrap();
        f.update_record(200, &[200], Epoch(7)).unwrap();
        let last = image(&schema, layout, 300..304, |i| vec![i]);
        let parts = vec![f.image(), FragmentImage::default(), last];
        assert_eq!(parts[0].segments.len(), 3);
        let t = SnapshotTable::new(schema, layout, parts, SnapshotTableId::detached());
        assert_eq!(t.row_count(), 304);
        assert_eq!(t.partition_rows(), &[300, 0, 4]);
        let stamp = |rows: Range<usize>| t.newest_stamp(rows, Epoch::ZERO);
        assert_eq!(stamp(0..300), Epoch(7));
        assert_eq!(stamp(0..4), Epoch(1));
        assert_eq!(stamp(0..6), Epoch(3));
        assert_eq!(stamp(5..5), Epoch::ZERO);
        assert_eq!(stamp(6..200), Epoch(1), "row 200 starts the page after the range");
        assert_eq!(stamp(6..201), Epoch(7));
        assert_eq!(stamp(201..202), Epoch(7), "a page counts for each of its rows");
        assert_eq!(stamp(127..129), Epoch(1), "across a segment boundary");
        assert_eq!(stamp(300..304), Epoch::ZERO, "the last partition was inserted at epoch 0");
        assert_eq!(stamp(299..304), Epoch(1));
        assert_eq!(stamp(304..304), Epoch::ZERO);
        // A floor answers for every page at or below it.
        assert_eq!(t.newest_stamp(0..6, Epoch(5)), Epoch(5));
        assert_eq!(t.newest_stamp(0..300, Epoch(5)), Epoch(7));
        assert_eq!(t.newest_stamp(0..300, Epoch(9)), Epoch(9));
        let full = t.column(0);
        assert_eq!(full, (0..304).collect::<Vec<_>>());
        for (lo, hi) in [(0, 304), (127, 129), (128, 128), (299, 301), (300, 304), (1, 300), (303, 304)] {
            let mut out = vec![u64::MAX; hi - lo];
            t.column_into(0, lo..hi, &mut out);
            assert_eq!(out, &full[lo..hi], "range {lo}..{hi}");
        }
        // A table without pages has no rows, not a panic.
        let empty =
            SnapshotTable::new(t.schema.clone(), layout, vec![FragmentImage::default()], SnapshotTableId::detached());
        assert_eq!(empty.row_count(), 0);
        assert_eq!(empty.newest_stamp(0..1, Epoch::ZERO), Epoch::ZERO);
        empty.column_into(0, 0..0, &mut []);
    }

    #[test]
    fn snapshot_table_lookup() {
        let mut tables = BTreeMap::new();
        tables.insert(TableId(1), frozen_table());
        let snap = Snapshot::new(Epoch(2), tables, CowTelemetry::new());
        assert_eq!(snap.id(), 2);
        assert_eq!(snap.epoch(), Epoch(2));
        assert!(snap.table(TableId(1)).is_ok());
        assert!(snap.table(TableId(2)).is_err());
        assert_eq!(snap.tables().collect::<Vec<_>>(), vec![TableId(1)]);
    }

    #[test]
    fn detached_identities_never_collide() {
        let a = SnapshotTableId::detached();
        let b = SnapshotTableId::detached();
        assert_ne!(a, b, "every detached table gets its own source id");
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn scan_profile_reflects_layout() {
        let t = frozen_table();
        let p = t.scan_profile(&[0]);
        assert!(p.contiguous);
        assert_eq!(p.useful_bytes, 9 * 4);
    }
}
