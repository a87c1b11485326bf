//! Pages: the unit of storage and of copy-on-write.
//!
//! Every page carries the epoch at which it was last (shadow-)copied, which
//! is how the snapshot mechanism distinguishes pages shared with a snapshot
//! (must be copied before the first update) from pages already private to the
//! live database (may be updated in place) — the in-memory state sketched in
//! Figure 3 of the paper.
//!
//! A page holds up to `capacity` records of a fixed-arity schema as 8-byte
//! cells. Row-major pages implement NSM; column-major pages implement DSM and
//! PAX (a PAX page is simply a column-major page whose capacity is derived
//! from the 4 KiB page budget, so each per-attribute run is a minipage).

use crate::layout::Layout;
use h2tap_common::{Epoch, H2Error, Result};

/// Internal cell arrangement of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellOrder {
    RowMajor,
    ColumnMajor,
}

/// A fixed-capacity page of records.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    epoch: Epoch,
    order: CellOrder,
    arity: usize,
    capacity: usize,
    len: usize,
    cells: Vec<u64>,
}

impl Page {
    /// Creates an empty page for `arity`-attribute records in the given
    /// layout, holding at most `capacity` records.
    pub fn new(layout: Layout, arity: usize, capacity: usize, epoch: Epoch) -> Self {
        let order = match layout {
            Layout::Nsm => CellOrder::RowMajor,
            Layout::Dsm | Layout::Pax { .. } => CellOrder::ColumnMajor,
        };
        Self { epoch, order, arity, capacity, len: 0, cells: vec![0; arity * capacity] }
    }

    /// The epoch at which this page was created or last shadow-copied.
    ///
    /// # The stamp contract
    ///
    /// A page of a snapshot frozen at a later epoch whose stamp is `<= e` is
    /// cell-for-cell the page at the same position of the snapshot frozen at
    /// epoch `e`: **stamp ≤ e ⇒ unchanged since snapshot e**. The OLAP plan
    /// cache relies on it to carry derived data from one snapshot to the
    /// next. It holds because of one lock: `Database::commit` learns the
    /// live epoch only under the shared side of the live-state lock and
    /// stamps every page it writes with it, while `Database::snapshot` bumps
    /// the epoch to `e + 1` and takes every page segment under the exclusive
    /// side. No write lands between the bump and the take, so every page in
    /// snapshot `e` is stamped `<= e`, and a write after it stamps its page
    /// `>= e + 1` (first touch) or finds it already stamped so (stamps never
    /// decrease). A write also raises its segment's newest stamp to the live
    /// epoch, so a segment whose newest stamp is `<= e` holds only pages
    /// unchanged since snapshot `e`.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Stamps the page with a new epoch (after a shadow copy).
    pub fn set_epoch(&mut self, epoch: Epoch) {
        self.epoch = epoch;
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of records the page can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the page is full.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Number of attributes per record.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Bytes of cell storage this page occupies (used for copy-on-write
    /// accounting).
    pub fn byte_size(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<u64>()) as u64
    }

    #[inline]
    fn idx(&self, row: usize, attr: usize) -> usize {
        match self.order {
            CellOrder::RowMajor => row * self.arity + attr,
            CellOrder::ColumnMajor => attr * self.capacity + row,
        }
    }

    /// Appends records, given as their cells one after another; returns the
    /// row slot of the first.
    ///
    /// # Errors
    /// Fails, writing nothing, when the cells are not whole records or the
    /// records do not fit in the page.
    pub fn push(&mut self, records: &[u64]) -> Result<usize> {
        let rows = records.len().checked_div(self.arity).filter(|rows| rows * self.arity == records.len());
        let Some(rows) = rows else {
            return Err(H2Error::Config(format!("{} cells are not records of arity {}", records.len(), self.arity)));
        };
        if rows > self.capacity - self.len {
            return Err(H2Error::Config("page is full".into()));
        }
        let first = self.len;
        self.len += rows;
        self.write(first, records);
        Ok(first)
    }

    /// Writes whole records from row `first` on.
    fn write(&mut self, first: usize, records: &[u64]) {
        for (row, record) in (first..).zip(records.chunks_exact(self.arity)) {
            for (attr, cell) in record.iter().enumerate() {
                let i = self.idx(row, attr);
                self.cells[i] = *cell;
            }
        }
    }

    /// Reads one cell.
    ///
    /// # Errors
    /// Fails when the row or attribute is out of bounds.
    pub fn get(&self, row: usize, attr: usize) -> Result<u64> {
        self.check(row, attr)?;
        Ok(self.cells[self.idx(row, attr)])
    }

    /// Writes one cell.
    ///
    /// # Errors
    /// Fails when the row or attribute is out of bounds.
    pub fn set(&mut self, row: usize, attr: usize, value: u64) -> Result<()> {
        self.check(row, attr)?;
        let i = self.idx(row, attr);
        self.cells[i] = value;
        Ok(())
    }

    /// Reads a whole record.
    pub fn record(&self, row: usize) -> Result<Vec<u64>> {
        self.check(row, 0)?;
        Ok((0..self.arity).map(|a| self.cells[self.idx(row, a)]).collect())
    }

    /// Overwrites a whole record in place.
    pub fn set_record(&mut self, row: usize, record: &[u64]) -> Result<()> {
        if record.len() != self.arity {
            return Err(H2Error::Config("record arity mismatch".into()));
        }
        self.check(row, 0)?;
        self.write(row, record);
        Ok(())
    }

    fn check(&self, row: usize, attr: usize) -> Result<()> {
        if row >= self.len {
            return Err(H2Error::UnknownRecord(format!("row {row} out of {}", self.len)));
        }
        if attr >= self.arity {
            return Err(H2Error::UnknownAttribute(format!("attr {attr} out of {}", self.arity)));
        }
        Ok(())
    }

    /// A contiguous slice of one attribute's values, available only for
    /// column-major (DSM/PAX) pages; NSM callers must iterate records.
    pub fn column_slice(&self, attr: usize) -> Option<&[u64]> {
        if self.order == CellOrder::ColumnMajor && attr < self.arity {
            let start = attr * self.capacity;
            Some(&self.cells[start..start + self.len])
        } else {
            None
        }
    }

    /// Iterates the values of one attribute regardless of cell order.
    pub fn iter_attr(&self, attr: usize) -> impl Iterator<Item = u64> + '_ {
        self.iter_attr_from(attr, 0)
    }

    /// [`Page::iter_attr`] from row `first` on, without stepping through
    /// the rows before it.
    pub(crate) fn iter_attr_from(&self, attr: usize, first: usize) -> impl Iterator<Item = u64> + '_ {
        (first..self.len).map(move |row| self.cells[self.idx(row, attr)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(layout: Layout) -> Page {
        let mut p = Page::new(layout, 3, 4, Epoch::ZERO);
        for r in 0..3u64 {
            p.push(&[r, r * 10, r * 100]).unwrap();
        }
        p
    }

    #[test]
    fn push_and_read_roundtrip_nsm_and_dsm() {
        for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
            let p = filled(layout);
            assert_eq!(p.len(), 3);
            assert_eq!(p.get(2, 1).unwrap(), 20);
            assert_eq!(p.record(1).unwrap(), vec![1, 10, 100]);
        }
    }

    #[test]
    fn full_page_rejects_push() {
        let mut p = Page::new(Layout::Dsm, 2, 1, Epoch::ZERO);
        p.push(&[1, 2]).unwrap();
        assert!(p.is_full());
        assert!(p.push(&[3, 4]).is_err());
    }

    #[test]
    fn push_appends_runs_of_records_or_nothing() {
        for layout in [Layout::Nsm, Layout::Dsm] {
            let mut p = Page::new(layout, 2, 4, Epoch::ZERO);
            assert_eq!(p.push(&[1, 10, 2, 20]).unwrap(), 0);
            assert_eq!(p.push(&[3, 30]).unwrap(), 2);
            assert!(p.push(&[4, 40, 5, 50]).is_err(), "two records, one free slot");
            assert!(p.push(&[4, 40, 5]).is_err(), "not whole records");
            assert_eq!(p.len(), 3);
            assert_eq!(p.push(&[]).unwrap(), 3);
            assert_eq!((p.record(1).unwrap(), p.record(2).unwrap()), (vec![2, 20], vec![3, 30]));
        }
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut p = Page::new(Layout::Nsm, 2, 4, Epoch::ZERO);
        assert!(p.push(&[1]).is_err());
        p.push(&[1, 2]).unwrap();
        assert!(p.set_record(0, &[1, 2, 3]).is_err());
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let p = filled(Layout::Dsm);
        assert!(p.get(3, 0).is_err());
        assert!(p.get(0, 3).is_err());
        assert!(p.record(9).is_err());
    }

    #[test]
    fn set_updates_cell() {
        let mut p = filled(Layout::Nsm);
        p.set(0, 2, 777).unwrap();
        assert_eq!(p.get(0, 2).unwrap(), 777);
        p.set_record(1, &[9, 8, 7]).unwrap();
        assert_eq!(p.record(1).unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn column_slice_only_for_columnar_layouts() {
        let dsm = filled(Layout::Dsm);
        assert_eq!(dsm.column_slice(1).unwrap(), &[0, 10, 20]);
        let nsm = filled(Layout::Nsm);
        assert!(nsm.column_slice(1).is_none());
        // iter_attr works for both
        let via_iter: Vec<u64> = nsm.iter_attr(1).collect();
        assert_eq!(via_iter, vec![0, 10, 20]);
    }

    #[test]
    fn epoch_stamping() {
        let mut p = filled(Layout::Dsm);
        assert_eq!(p.epoch(), Epoch::ZERO);
        p.set_epoch(Epoch(4));
        assert_eq!(p.epoch(), Epoch(4));
    }

    #[test]
    fn byte_size_reflects_capacity() {
        let p = Page::new(Layout::Dsm, 4, 100, Epoch::ZERO);
        assert_eq!(p.byte_size(), 4 * 100 * 8);
    }
}
