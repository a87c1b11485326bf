//! Immutable database snapshots.
//!
//! "Caldera always executes OLAP queries on a database snapshot." A snapshot
//! is a shallow copy of the hierarchical data organization: it holds `Arc`s
//! to the same pages as the live database at the moment it was taken, so
//! taking one is an O(pages) pointer copy, not a data copy. Transactions that
//! later update a page shadow-copy it into the live database, leaving the
//! snapshot's version untouched (see [`crate::Page::epoch`]).
//!
//! Releasing a snapshot is dropping its last `Arc<Snapshot>`: no registry
//! tracks it. The drop frees every page that the live store has since
//! superseded and no other snapshot still holds, and counts those pages in
//! the database's [`crate::CowStats`].

use crate::layout::{Layout, ScanProfile};
use crate::page::Page;
use crate::telemetry::CowTelemetry;
use h2tap_common::{Epoch, H2Error, Result, Schema, TableId};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// What one walk over a frozen table's pages records: where each page's
/// rows start in storage order and the epoch stamp it carried when the
/// image was frozen. Built once per [`SnapshotTable`], on first use.
#[derive(Debug, Clone)]
struct PageDirectory {
    /// `starts[i]` is the storage-order offset of the first row of page `i`
    /// (pages flattened in partition order); the final entry is the table's
    /// row count.
    starts: Vec<usize>,
    /// `stamps[i]` is [`Page::epoch`] of page `i`.
    stamps: Vec<Epoch>,
    /// Rows per partition, in partition order.
    partition_rows: Vec<u64>,
}

impl PageDirectory {
    /// Index of the page holding storage-order row `row` (the page count
    /// when `row` is past the end).
    fn page_of(&self, row: usize) -> usize {
        self.starts.partition_point(|&start| start <= row).saturating_sub(1)
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
    /// Page lists per partition, in partition order. Private so the page
    /// directory below can never describe a different page list.
    partitions: Vec<Vec<Arc<Page>>>,
    directory: OnceLock<PageDirectory>,
}

impl SnapshotTable {
    /// A frozen image over `partitions` (page lists in partition order).
    pub fn new(
        schema: Arc<Schema>,
        layout: Layout,
        partitions: Vec<Vec<Arc<Page>>>,
        identity: SnapshotTableId,
    ) -> Self {
        Self { schema, layout, identity, partitions, directory: OnceLock::new() }
    }

    /// Page lists per partition, in partition order.
    pub fn partitions(&self) -> &[Vec<Arc<Page>>] {
        &self.partitions
    }

    fn directory(&self) -> &PageDirectory {
        self.directory.get_or_init(|| {
            let pages = self.partitions.iter().map(Vec::len).sum::<usize>();
            let mut starts = Vec::with_capacity(pages + 1);
            let mut stamps = Vec::with_capacity(pages);
            let mut partition_rows = Vec::with_capacity(self.partitions.len());
            let mut row = 0usize;
            for partition in &self.partitions {
                let first = row;
                for page in partition {
                    starts.push(row);
                    stamps.push(page.epoch());
                    row += page.len();
                }
                partition_rows.push((row - first) as u64);
            }
            starts.push(row);
            PageDirectory { starts, stamps, partition_rows }
        })
    }

    /// The pages from flattened index `first` on, in storage order.
    fn pages_from(&self, first: usize) -> impl Iterator<Item = &Arc<Page>> {
        let mut skip = first;
        self.partitions.iter().flat_map(move |pages| {
            let skipped = skip.min(pages.len());
            skip -= skipped;
            &pages[skipped..]
        })
    }

    /// Total number of records in the frozen image.
    pub fn row_count(&self) -> u64 {
        self.directory().starts.last().map_or(0, |&rows| rows as u64)
    }

    /// Records per partition, in partition order.
    pub fn partition_rows(&self) -> &[u64] {
        &self.directory().partition_rows
    }

    /// The newest [`Page::epoch`] stamp among the pages holding rows `rows`
    /// (storage order); [`Epoch::ZERO`] for an empty range. By the stamp
    /// contract documented on [`Page::epoch`], a result `<= e` means none of
    /// those pages was written since the snapshot frozen at epoch `e`.
    pub fn newest_stamp(&self, rows: Range<usize>) -> Epoch {
        if rows.is_empty() {
            return Epoch::ZERO;
        }
        let dir = self.directory();
        let first = dir.page_of(rows.start);
        let pages = dir.starts[first..].partition_point(|&start| start < rows.end);
        dir.stamps[first..].iter().take(pages).copied().max().unwrap_or(Epoch::ZERO)
    }

    /// Iterates the values of one attribute across all partitions and pages.
    pub fn iter_attr(&self, attr: usize) -> impl Iterator<Item = u64> + '_ {
        self.partitions.iter().flatten().flat_map(move |p| p.iter_attr(attr))
    }

    /// Materialises one attribute as a contiguous vector. Column-major
    /// (DSM/PAX) pages are bulk-copied slice-at-a-time; only row-major NSM
    /// pages fall back to per-cell strided reads.
    pub fn column(&self, attr: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.row_count() as usize);
        for page in self.partitions.iter().flatten() {
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
    /// threads. The first page of the range is found by binary search in the
    /// page directory, so a chunk deep in the table does not walk the pages
    /// before it. Column-major (DSM/PAX) pages are bulk-copied
    /// slice-at-a-time; row-major NSM pages fall back to per-cell strided
    /// reads.
    pub fn column_into(&self, attr: usize, rows: Range<usize>, out: &mut [u64]) {
        debug_assert_eq!(out.len(), rows.len());
        let dir = self.directory();
        let first = dir.page_of(rows.start);
        let mut page_start = dir.starts[first];
        let mut written = 0usize;
        for page in self.pages_from(first) {
            if page_start >= rows.end {
                break;
            }
            let page_end = page_start + page.len();
            if page_end > rows.start {
                let lo = rows.start.max(page_start) - page_start;
                let hi = rows.end.min(page_end) - page_start;
                match page.column_slice(attr) {
                    Some(slice) => out[written..written + (hi - lo)].copy_from_slice(&slice[lo..hi]),
                    None => {
                        for (slot, cell) in out[written..written + (hi - lo)]
                            .iter_mut()
                            .zip(page.iter_attr(attr).skip(lo).take(hi - lo))
                        {
                            *slot = cell;
                        }
                    }
                }
                written += hi - lo;
            }
            page_start = page_end;
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
    /// last snapshot that held it drops: `Arc::into_inner` hands the page to
    /// exactly one final holder, and a page this snapshot still shares with
    /// the live store or another snapshot stays where it is. A
    /// [`SnapshotTable`] cloned out of a snapshot frees its pages uncounted.
    /// No partition or live-state lock is taken.
    fn drop(&mut self) {
        let (mut pages, mut bytes) = (0, 0);
        for table in std::mem::take(&mut self.tables).into_values() {
            for page in table.partitions.into_iter().flatten().filter_map(Arc::into_inner) {
                pages += 1;
                bytes += page.byte_size();
            }
        }
        self.telemetry.record_snapshot_released(pages, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::AttrType;

    fn frozen_table() -> SnapshotTable {
        let schema = Arc::new(Schema::homogeneous("c", 3, AttrType::Int32));
        let mut p0 = Page::new(Layout::Dsm, 3, 8, Epoch::ZERO);
        let mut p1 = Page::new(Layout::Dsm, 3, 8, Epoch::ZERO);
        for i in 0..5u64 {
            p0.push(&[i, i * 2, i * 3]).unwrap();
        }
        for i in 5..9u64 {
            p1.push(&[i, i * 2, i * 3]).unwrap();
        }
        SnapshotTable::new(
            schema,
            Layout::Dsm,
            vec![vec![Arc::new(p0)], vec![Arc::new(p1)]],
            SnapshotTableId::detached(),
        )
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
        let t = frozen_table(); // 9 rows over two pages (5 + 4)
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
        let mut page = Page::new(Layout::Nsm, 2, 8, Epoch::ZERO);
        for i in 0..6u64 {
            page.push(&[i, i * 7]).unwrap();
        }
        let t = SnapshotTable::new(schema, Layout::Nsm, vec![vec![Arc::new(page)]], SnapshotTableId::detached());
        let mut out = vec![0u64; 3];
        t.column_into(1, 2..5, &mut out);
        assert_eq!(out, vec![14, 21, 28]);
    }

    #[test]
    fn the_page_directory_locates_rows_and_reports_stamps() {
        // Pages of 5, 0 and 4 rows over three partitions (one of them
        // empty), stamped 3, 7 and 1.
        let schema = Arc::new(Schema::homogeneous("c", 1, AttrType::Int64));
        let page = |rows: std::ops::Range<u64>, stamp: u64| {
            let mut p = Page::new(Layout::Dsm, 1, 8, Epoch(stamp));
            for i in rows {
                p.push(&[i]).unwrap();
            }
            Arc::new(p)
        };
        let t = SnapshotTable::new(
            schema,
            Layout::Dsm,
            vec![vec![page(0..5, 3), page(5..5, 7)], vec![], vec![page(5..9, 1)]],
            SnapshotTableId::detached(),
        );
        assert_eq!(t.row_count(), 9);
        assert_eq!(t.partition_rows(), &[5, 0, 4]);
        assert_eq!(t.newest_stamp(0..5), Epoch(3));
        assert_eq!(t.newest_stamp(5..9), Epoch(1), "the empty page holds no row of the range");
        assert_eq!(t.newest_stamp(4..6), Epoch(7), "an empty page between two touched pages counts");
        assert_eq!(t.newest_stamp(0..9), Epoch(7));
        assert_eq!(t.newest_stamp(3..3), Epoch::ZERO);
        assert_eq!(t.newest_stamp(9..9), Epoch::ZERO);
        for (lo, hi) in [(0, 9), (4, 6), (5, 9), (8, 9), (9, 9)] {
            let mut out = vec![u64::MAX; hi - lo];
            t.column_into(0, lo..hi, &mut out);
            assert_eq!(out, (lo as u64..hi as u64).collect::<Vec<_>>(), "range {lo}..{hi}");
        }
        // A table without pages has an empty directory, not a panic.
        let empty = SnapshotTable::new(t.schema.clone(), Layout::Dsm, vec![vec![]], SnapshotTableId::detached());
        assert_eq!(empty.row_count(), 0);
        assert_eq!(empty.newest_stamp(0..1), Epoch::ZERO);
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
