//! A table fragment: the pages of one table inside one partition.
//!
//! The page list has two levels: a vector of `Arc`'d [`Segment`]s of
//! [`SEGMENT_PAGES`] pages each (the last may hold fewer). A snapshot clones
//! one `Arc` per segment ([`TableFragment::image`]), so it costs the segment
//! count, not the page count.
//!
//! Writes go through [`TableFragment::writable_page`], which applies the
//! shadow-copy rule of the paper at both levels. A segment a snapshot still
//! shares is copied first (`Arc::make_mut`: one pointer array, at most once
//! per segment per epoch). A page whose epoch is older than the current live
//! epoch may still be shared with a snapshot, so it is cloned, restamped
//! with the live epoch and swapped into the segment before being modified;
//! otherwise it is updated in place. Each segment also keeps the newest
//! stamp among its pages, so a stamp query can pass over a segment that
//! was not written since a given epoch without reading its pages. Every
//! page but the last is full, so a row's page is found by arithmetic.

use crate::layout::Layout;
use crate::page::Page;
use crate::telemetry::CowTelemetry;
use h2tap_common::{Epoch, H2Error, Result, Schema};
use std::sync::Arc;

/// Pages per segment of a fragment's page list. A snapshot clones one `Arc`
/// per segment, and the first write to a shared segment copies this many
/// page pointers.
pub const SEGMENT_PAGES: usize = 64;

/// Up to [`SEGMENT_PAGES`] consecutive pages of a fragment. The page
/// pointers sit inline, in the segment's own allocation, so finding a page
/// costs one pointer hop more than a flat list only through the short,
/// cache-resident segment vector.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// `slots[..len]` hold pages, the rest nothing.
    slots: [Option<Arc<Page>>; SEGMENT_PAGES],
    len: usize,
    /// The newest [`Page::epoch`] among the pages. Every write into the
    /// segment raises it to the live epoch, and it never falls.
    newest: Epoch,
}

impl Segment {
    /// A segment holding one new page stamped `live_epoch`.
    fn new(page: Arc<Page>, live_epoch: Epoch) -> Self {
        let mut slots = std::array::from_fn(|_| None);
        slots[0] = Some(page);
        Self { slots, len: 1, newest: live_epoch }
    }

    /// Returns the segment in `slot` for writing at `live_epoch`, copying
    /// its pointer array first if a snapshot still shares it.
    fn writable<'a>(slot: &'a mut Arc<Self>, telemetry: &CowTelemetry, live_epoch: Epoch) -> &'a mut Self {
        // `make_mut` clones exactly when another holder shares the segment,
        // and the clone has a new address.
        let before = Arc::as_ptr(slot);
        let segment = Arc::make_mut(slot);
        if !std::ptr::eq(before, segment) {
            telemetry.record_segment_copy();
        }
        segment.newest = segment.newest.max(live_epoch);
        segment
    }

    /// Page `index` of the segment.
    fn page(&self, index: usize) -> Option<&Arc<Page>> {
        self.slots.get(index)?.as_ref()
    }

    /// The pages, in row order.
    pub(crate) fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.slots.iter().flatten()
    }

    /// The newest page stamp in the segment.
    pub(crate) fn newest(&self) -> Epoch {
        self.newest
    }

    /// Takes the segment's pages, to free the ones nothing else holds.
    pub(crate) fn into_pages(self) -> impl Iterator<Item = Arc<Page>> {
        self.slots.into_iter().flatten()
    }
}

/// A fragment's pages as a snapshot holds them: the segments, and the row
/// count when they were taken.
#[derive(Debug, Clone, Default)]
pub(crate) struct FragmentImage {
    pub(crate) segments: Vec<Arc<Segment>>,
    pub(crate) rows: u64,
}

impl FragmentImage {
    /// Every page, in row order.
    pub(crate) fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.segments.iter().flat_map(|segment| segment.pages())
    }

    /// The pages from page index `first` on, in row order.
    pub(crate) fn pages_from(&self, first: usize) -> impl Iterator<Item = &Arc<Page>> {
        let segments = self.segments.get(first / SEGMENT_PAGES..).unwrap_or_default();
        segments.iter().flat_map(|segment| segment.pages()).skip(first % SEGMENT_PAGES)
    }
}

/// The pages of one table within one partition.
#[derive(Debug, Clone)]
pub(crate) struct TableFragment {
    schema: Arc<Schema>,
    layout: Layout,
    rows_per_page: usize,
    /// Never empty once created; only the last segment may be short.
    segments: Vec<Arc<Segment>>,
    telemetry: Arc<CowTelemetry>,
}

impl TableFragment {
    /// Creates an empty fragment.
    pub(crate) fn new(schema: Arc<Schema>, layout: Layout, telemetry: Arc<CowTelemetry>) -> Self {
        let rows_per_page = layout.rows_per_page(&schema);
        Self { schema, layout, rows_per_page, segments: Vec::new(), telemetry }
    }

    /// Number of pages.
    fn page_count(&self) -> usize {
        self.segments.last().map_or(0, |tail| (self.segments.len() - 1) * SEGMENT_PAGES + tail.len)
    }

    fn last_page(&self) -> Option<&Arc<Page>> {
        self.segments.last().and_then(|tail| tail.page(tail.len.checked_sub(1)?))
    }

    /// Number of records stored.
    pub(crate) fn row_count(&self) -> u64 {
        self.last_page().map_or(0, |last| ((self.page_count() - 1) * self.rows_per_page + last.len()) as u64)
    }

    /// The live pages as a snapshot takes them: one `Arc` clone per segment.
    pub(crate) fn image(&self) -> FragmentImage {
        FragmentImage { segments: self.segments.clone(), rows: self.row_count() }
    }

    fn page(&self, page_idx: usize) -> Option<&Arc<Page>> {
        self.segments.get(page_idx / SEGMENT_PAGES)?.page(page_idx % SEGMENT_PAGES)
    }

    /// The page holding `row`, with its index and the row's slot in it.
    fn locate(&self, row: u64) -> Result<(usize, &Arc<Page>, usize)> {
        let page_idx = (row as usize) / self.rows_per_page;
        let slot = (row as usize) % self.rows_per_page;
        match self.page(page_idx) {
            Some(page) if slot < page.len() => Ok((page_idx, page, slot)),
            _ => Err(H2Error::UnknownRecord(format!("row {row} beyond fragment"))),
        }
    }

    /// Returns a mutable reference to page `page_idx` for `writes` row
    /// writes, shadow-copying it first if it is still visible to a snapshot
    /// (epoch older than `live_epoch`). The first write into a copied page
    /// counts as its copy, every other one as in place.
    fn writable_page(&mut self, page_idx: usize, live_epoch: Epoch, writes: u64) -> Result<&mut Page> {
        let segment = self.segments.get_mut(page_idx / SEGMENT_PAGES);
        let segment = segment.map(|slot| Segment::writable(slot, &self.telemetry, live_epoch));
        let Some(page) = segment.and_then(|s| s.slots.get_mut(page_idx % SEGMENT_PAGES)).and_then(Option::as_mut)
        else {
            return Err(H2Error::UnknownRecord(format!("page {page_idx} beyond fragment")));
        };
        let mut in_place = writes;
        if page.epoch() < live_epoch {
            // Shared with a snapshot: shadow copy.
            let mut copy = Page::clone(page);
            copy.set_epoch(live_epoch);
            self.telemetry.record_copy(copy.byte_size());
            *page = Arc::new(copy);
            in_place = writes.saturating_sub(1);
        }
        self.telemetry.record_in_place(in_place);
        // A page stamped with the live epoch is in no snapshot: every
        // snapshot bumps the epoch under the lock this write holds, so it
        // took its segments before this epoch began, and the first write
        // since copied the segment. The `Arc` is therefore unique here and
        // `make_mut` does not clone.
        Ok(Arc::make_mut(page))
    }

    /// Appends records, given as their cells one after another, and returns
    /// the row index of the first. The tail page is filled before a new one
    /// opens, so every page but the last stays full, and each page is made
    /// writable once for all the records it takes. Cells that are not
    /// whole records are rejected with nothing written.
    pub(crate) fn insert(&mut self, cells: &[u64], live_epoch: Epoch) -> Result<u64> {
        let arity = self.schema.arity();
        if cells.len().checked_rem(arity) != Some(0) {
            return Err(H2Error::Config("record arity does not match schema".into()));
        }
        let first = self.row_count();
        let mut rest = cells;
        while !rest.is_empty() {
            if self.last_page().is_none_or(|last| last.is_full()) {
                let page = Arc::new(Page::new(self.layout, arity, self.rows_per_page, live_epoch));
                match self.segments.last_mut() {
                    Some(tail) if tail.len < SEGMENT_PAGES => {
                        let tail = Segment::writable(tail, &self.telemetry, live_epoch);
                        tail.slots[tail.len] = Some(page);
                        tail.len += 1;
                    }
                    _ => self.segments.push(Arc::new(Segment::new(page, live_epoch))),
                }
            }
            let page_idx = self.page_count() - 1;
            let free = self.rows_per_page - self.last_page().map_or(0, |last| last.len());
            let (run, tail) = rest.split_at(rest.len().min(free * arity));
            self.writable_page(page_idx, live_epoch, (run.len() / arity) as u64)?.push(run)?;
            rest = tail;
        }
        Ok(first)
    }

    /// Reads a whole record.
    pub(crate) fn read_record(&self, row: u64) -> Result<Vec<u64>> {
        let (_, page, slot) = self.locate(row)?;
        page.record(slot)
    }

    /// Overwrites a whole record, shadow-copying the backing page if needed.
    pub(crate) fn update_record(&mut self, row: u64, cells: &[u64], live_epoch: Epoch) -> Result<()> {
        let (page_idx, _, slot) = self.locate(row)?;
        self.writable_page(page_idx, live_epoch, 1)?.set_record(slot, cells)
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
        assert_eq!(f.page_count(), 4);
        assert_eq!(f.page(0).unwrap().capacity(), 64);
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
        let shared = f.image(); // simulate a snapshot holding the pages
        let live = Epoch(1);
        f.update_record(0, &[100, 2, 3, 4], live).unwrap();
        // Snapshot's copy still sees the old value; live sees the new one.
        assert_eq!(shared.pages().next().unwrap().get(0, 0).unwrap(), 1);
        assert_eq!(f.read_record(0).unwrap()[0], 100);
        assert_eq!(f.telemetry.snapshot().pages_copied, 1);
        assert_eq!(f.telemetry.snapshot().segments_copied, 1);
        // A second update in the same epoch hits the private copy in place.
        f.update_record(1, &[200, 6, 7, 8], live).unwrap();
        assert_eq!(f.telemetry.snapshot().pages_copied, 1);
        assert_eq!(f.telemetry.snapshot().segments_copied, 1);
        assert_eq!(f.page(0).unwrap().epoch(), live);
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
        let per_page = Layout::Dsm.rows_per_page(&schema);
        let mut f = TableFragment::new(schema, Layout::Dsm, CowTelemetry::new());
        for i in 0..(per_page as u64 + 10) {
            f.insert(&[i, 0], Epoch::ZERO).unwrap();
        }
        let col: Vec<u64> = f.image().pages().flat_map(|p| p.iter_attr(0)).collect();
        assert_eq!(col.len(), per_page + 10);
        assert_eq!(col[per_page + 9], per_page as u64 + 9);
    }

    #[test]
    fn arity_mismatch_on_insert_is_rejected() {
        let mut f = fragment(Layout::Dsm);
        assert!(f.insert(&[1, 2], Epoch::ZERO).is_err());
        assert!(f.insert(&[1, 2, 3, 4, 5, 6], Epoch::ZERO).is_err(), "one record and a half");
        assert_eq!(f.row_count(), 0);
    }

    /// Runs of records fill the same pages, with the same stamps and
    /// counters, as the records one at a time, also when each run starts on
    /// a tail page that a snapshot shares.
    #[test]
    fn runs_fill_the_same_pages_as_single_records() {
        for layout in [Layout::Nsm, Layout::PAPER_PAX] {
            let (mut runs, mut singles) = (fragment(layout), fragment(layout));
            let cap = runs.rows_per_page;
            let mut held = Vec::new();
            let mut next = 0u64;
            for (epoch, len) in [1, cap - 1, 3, 2 * cap + 1, cap, 0].into_iter().enumerate() {
                let epoch = Epoch(epoch as u64);
                held.push((runs.image(), singles.image()));
                let cells: Vec<u64> = (next..next + len as u64).flat_map(|v| [v, v + 1, v + 2, v + 3]).collect();
                assert_eq!(runs.insert(&cells, epoch).unwrap(), next);
                for record in cells.chunks(4) {
                    singles.insert(record, epoch).unwrap();
                }
                next += len as u64;
            }
            let pages = |f: &TableFragment| f.image().pages().cloned().collect::<Vec<_>>();
            assert_eq!(pages(&runs), pages(&singles), "{layout:?}");
            assert_eq!(runs.telemetry.snapshot(), singles.telemetry.snapshot(), "{layout:?}");
            assert!(runs.telemetry.snapshot().pages_copied >= 3, "{layout:?}: runs started on shared pages");
        }
    }
}
