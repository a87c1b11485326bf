//! A table fragment: the pages of one table inside one partition.
//!
//! Updates go through [`TableFragment::writable_page`], which implements the
//! shadow-copy rule of the paper: if the page's epoch is older than the
//! current live epoch it is still shared with at least one snapshot, so it is
//! cloned, restamped with the live epoch and swapped into the live page list
//! before being modified; otherwise it is already private and is updated in
//! place. The page stamp alone carries the epoch; a snapshot copies page
//! lists, so no table or partition node needs one.

use crate::layout::Layout;
use crate::page::Page;
use crate::telemetry::CowTelemetry;
use h2tap_common::{Epoch, H2Error, Result, Schema};
use std::sync::Arc;

/// Default number of records per page for NSM and DSM tables. PAX pages
/// derive their capacity from the configured page size instead.
const DEFAULT_ROWS_PER_PAGE: usize = 4096;

/// The pages of one table within one partition.
#[derive(Debug, Clone)]
pub(crate) struct TableFragment {
    schema: Arc<Schema>,
    layout: Layout,
    rows_per_page: usize,
    pages: Vec<Arc<Page>>,
    telemetry: Arc<CowTelemetry>,
}

impl TableFragment {
    /// Creates an empty fragment.
    pub(crate) fn new(schema: Arc<Schema>, layout: Layout, telemetry: Arc<CowTelemetry>) -> Self {
        let rows_per_page = layout.pax_rows_per_page(&schema).unwrap_or(DEFAULT_ROWS_PER_PAGE);
        Self { schema, layout, rows_per_page, pages: Vec::new(), telemetry }
    }

    /// Number of records stored.
    pub(crate) fn row_count(&self) -> u64 {
        match self.pages.last() {
            None => 0,
            Some(last) => ((self.pages.len() - 1) * self.rows_per_page + last.len()) as u64,
        }
    }

    /// The live page list (shallow-copied by snapshots).
    pub(crate) fn pages(&self) -> &[Arc<Page>] {
        &self.pages
    }

    fn locate(&self, row: u64) -> Result<(usize, usize)> {
        let page_idx = (row as usize) / self.rows_per_page;
        let slot = (row as usize) % self.rows_per_page;
        let page =
            self.pages.get(page_idx).ok_or_else(|| H2Error::UnknownRecord(format!("row {row} beyond fragment")))?;
        if slot >= page.len() {
            return Err(H2Error::UnknownRecord(format!("row {row} beyond fragment")));
        }
        Ok((page_idx, slot))
    }

    /// Returns a mutable reference to page `page_idx`, shadow-copying it
    /// first if it is still visible to a snapshot (epoch older than
    /// `live_epoch`).
    fn writable_page(&mut self, page_idx: usize, live_epoch: Epoch) -> &mut Page {
        let page = &mut self.pages[page_idx];
        if page.epoch() < live_epoch {
            // Shared with a snapshot: shadow copy.
            let mut copy = Page::clone(page);
            copy.set_epoch(live_epoch);
            self.telemetry.record_copy(copy.byte_size());
            *page = Arc::new(copy);
        } else {
            self.telemetry.record_in_place();
        }
        // A page stamped with the live epoch is in no snapshot: every
        // snapshot bumps the epoch under the lock this write holds, so it
        // copied its page lists before this epoch began. The `Arc` is
        // therefore unique here and `make_mut` does not clone.
        Arc::make_mut(&mut self.pages[page_idx])
    }

    /// Appends a record (encoded as cells) and returns its row index.
    pub(crate) fn insert(&mut self, cells: &[u64], live_epoch: Epoch) -> Result<u64> {
        if cells.len() != self.schema.arity() {
            return Err(H2Error::Config("record arity does not match schema".into()));
        }
        let needs_new_page = self.pages.last().map(|p| p.is_full()).unwrap_or(true);
        if needs_new_page {
            self.pages.push(Arc::new(Page::new(self.layout, self.schema.arity(), self.rows_per_page, live_epoch)));
        }
        let page_idx = self.pages.len() - 1;
        let slot = self.writable_page(page_idx, live_epoch).push(cells)?;
        Ok((page_idx * self.rows_per_page + slot) as u64)
    }

    /// Reads a whole record.
    pub(crate) fn read_record(&self, row: u64) -> Result<Vec<u64>> {
        let (page_idx, slot) = self.locate(row)?;
        self.pages[page_idx].record(slot)
    }

    /// Overwrites a whole record, shadow-copying the backing page if needed.
    pub(crate) fn update_record(&mut self, row: u64, cells: &[u64], live_epoch: Epoch) -> Result<()> {
        let (page_idx, slot) = self.locate(row)?;
        self.writable_page(page_idx, live_epoch).set_record(slot, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::AttrType;

    fn fragment(layout: Layout) -> TableFragment {
        let schema = Arc::new(Schema::homogeneous("c", 4, AttrType::Int32));
        TableFragment::new(schema, layout, CowTelemetry::new())
    }

    #[test]
    fn insert_and_read_back() {
        let mut f = fragment(Layout::Dsm);
        for i in 0..10u64 {
            let row = f.insert(&[i, i + 1, i + 2, i + 3], Epoch::ZERO).unwrap();
            assert_eq!(row, i);
        }
        assert_eq!(f.row_count(), 10);
        assert_eq!(f.read_record(7).unwrap()[2], 9);
        assert_eq!(f.read_record(3).unwrap(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn rows_span_multiple_pages() {
        let schema = Arc::new(Schema::homogeneous("c", 16, AttrType::Int32));
        let mut f = TableFragment::new(schema, Layout::PAPER_PAX, CowTelemetry::new());
        // PAX pages for this schema hold 64 rows; insert 200.
        for i in 0..200u64 {
            f.insert(&[i; 16], Epoch::ZERO).unwrap();
        }
        assert_eq!(f.pages().len(), 4);
        assert_eq!(f.pages()[0].capacity(), 64);
        assert_eq!(f.read_record(199).unwrap()[0], 199);
    }

    #[test]
    fn update_in_place_when_no_snapshot() {
        let mut f = fragment(Layout::Nsm);
        f.insert(&[1, 2, 3, 4], Epoch::ZERO).unwrap();
        f.update_record(0, &[1, 99, 3, 4], Epoch::ZERO).unwrap();
        assert_eq!(f.read_record(0).unwrap()[1], 99);
        assert_eq!(f.telemetry.snapshot().pages_copied, 0);
        assert!(f.telemetry.snapshot().in_place_updates >= 1);
    }

    #[test]
    fn update_after_snapshot_epoch_shadow_copies_once() {
        let mut f = fragment(Layout::Dsm);
        f.insert(&[1, 2, 3, 4], Epoch::ZERO).unwrap();
        f.insert(&[5, 6, 7, 8], Epoch::ZERO).unwrap();
        let shared = f.pages()[0].clone(); // simulate a snapshot holding the page
        let live = Epoch(1);
        f.update_record(0, &[100, 2, 3, 4], live).unwrap();
        // Snapshot's copy still sees the old value; live sees the new one.
        assert_eq!(shared.get(0, 0).unwrap(), 1);
        assert_eq!(f.read_record(0).unwrap()[0], 100);
        assert_eq!(f.telemetry.snapshot().pages_copied, 1);
        // A second update in the same epoch hits the private copy in place.
        f.update_record(1, &[200, 6, 7, 8], live).unwrap();
        assert_eq!(f.telemetry.snapshot().pages_copied, 1);
        assert_eq!(f.pages()[0].epoch(), live);
    }

    #[test]
    fn out_of_bounds_rows_error() {
        let mut f = fragment(Layout::Dsm);
        f.insert(&[1, 2, 3, 4], Epoch::ZERO).unwrap();
        assert!(f.read_record(1).is_err());
        assert!(f.update_record(5, &[0; 4], Epoch::ZERO).is_err());
    }

    #[test]
    fn iter_attr_crosses_pages() {
        let schema = Arc::new(Schema::homogeneous("c", 2, AttrType::Int32));
        let mut f = TableFragment::new(schema, Layout::Dsm, CowTelemetry::new());
        for i in 0..(DEFAULT_ROWS_PER_PAGE as u64 + 10) {
            f.insert(&[i, 0], Epoch::ZERO).unwrap();
        }
        let col: Vec<u64> = f.pages().iter().flat_map(|p| p.iter_attr(0)).collect();
        assert_eq!(col.len(), DEFAULT_ROWS_PER_PAGE + 10);
        assert_eq!(col[DEFAULT_ROWS_PER_PAGE + 9], DEFAULT_ROWS_PER_PAGE as u64 + 9);
    }

    #[test]
    fn arity_mismatch_on_insert_is_rejected() {
        let mut f = fragment(Layout::Dsm);
        assert!(f.insert(&[1, 2], Epoch::ZERO).is_err());
    }
}
