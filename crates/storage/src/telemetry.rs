//! Copy-on-write and garbage-collection telemetry.
//!
//! The paper's Figures 5-7 are entirely about the cost of the shadow-copy
//! mechanism: how much memory bandwidth the copy-on-write traffic consumes
//! and how it recedes as a snapshot "converges". These counters expose that
//! traffic so experiments can report it alongside throughput. A snapshot
//! counts its own reclaim when its last `Arc` drops (see [`crate::snapshot`]),
//! and the number of snapshots alive right now is kept beside the counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters describing shadow-copy activity.
#[derive(Debug, Default)]
pub(crate) struct CowTelemetry {
    pages_copied: AtomicU64,
    bytes_copied: AtomicU64,
    segments_copied: AtomicU64,
    in_place_updates: AtomicU64,
    pages_reclaimed: AtomicU64,
    bytes_reclaimed: AtomicU64,
    /// Snapshots taken and not yet dropped: a gauge, not a counter.
    live_snapshots: AtomicU64,
}

impl CowTelemetry {
    /// Creates a fresh telemetry handle.
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one page shadow copy of `bytes` bytes.
    pub(crate) fn record_copy(&self, bytes: u64) {
        self.pages_copied.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records the copy of one segment's page pointers that a snapshot
    /// still shared.
    pub(crate) fn record_segment_copy(&self) {
        self.segments_copied.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `writes` row writes that did not need a shadow copy.
    pub(crate) fn record_in_place(&self, writes: u64) {
        self.in_place_updates.fetch_add(writes, Ordering::Relaxed);
    }

    /// Records a new live snapshot.
    pub(crate) fn record_snapshot_taken(&self) {
        self.live_snapshots.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a dropped snapshot and the superseded pages its drop freed.
    pub(crate) fn record_snapshot_released(&self, pages: u64, bytes: u64) {
        self.pages_reclaimed.fetch_add(pages, Ordering::Relaxed);
        self.bytes_reclaimed.fetch_add(bytes, Ordering::Relaxed);
        self.live_snapshots.fetch_sub(1, Ordering::Relaxed);
    }

    /// Snapshots taken and not yet dropped.
    pub(crate) fn live_snapshots(&self) -> u64 {
        self.live_snapshots.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters, for experiment output.
    pub(crate) fn snapshot(&self) -> CowStats {
        CowStats {
            pages_copied: self.pages_copied.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            segments_copied: self.segments_copied.load(Ordering::Relaxed),
            in_place_updates: self.in_place_updates.load(Ordering::Relaxed),
            pages_reclaimed: self.pages_reclaimed.load(Ordering::Relaxed),
            bytes_reclaimed: self.bytes_reclaimed.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of the database's copy-on-write counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CowStats {
    /// Pages shadow-copied.
    pub pages_copied: u64,
    /// Bytes shadow-copied.
    pub bytes_copied: u64,
    /// Segment pointer arrays copied: at most one per segment written in
    /// an epoch, and none while no snapshot shares the segment.
    pub segments_copied: u64,
    /// Row writes that needed no shadow copy: updates applied in place and
    /// inserted rows, bulk-loaded ones included. A write that copies its
    /// page counts in `pages_copied` instead.
    pub in_place_updates: u64,
    /// Superseded pages freed by snapshot drops. A page counts once, when
    /// the last snapshot that held it drops.
    pub pages_reclaimed: u64,
    /// Bytes those pages occupied.
    pub bytes_reclaimed: u64,
}

impl CowStats {
    /// Difference between two counter snapshots (self - earlier).
    #[must_use]
    pub fn delta_since(&self, earlier: &CowStats) -> CowStats {
        CowStats {
            pages_copied: self.pages_copied - earlier.pages_copied,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            segments_copied: self.segments_copied - earlier.segments_copied,
            in_place_updates: self.in_place_updates - earlier.in_place_updates,
            pages_reclaimed: self.pages_reclaimed - earlier.pages_reclaimed,
            bytes_reclaimed: self.bytes_reclaimed - earlier.bytes_reclaimed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = CowTelemetry::new();
        t.record_copy(4096);
        t.record_copy(4096);
        t.record_segment_copy();
        t.record_in_place(1);
        t.record_snapshot_taken();
        assert_eq!(t.live_snapshots(), 1);
        t.record_snapshot_released(3, 12288);
        assert_eq!(t.live_snapshots(), 0);
        let stats = t.snapshot();
        assert_eq!(stats.pages_copied, 2);
        assert_eq!(stats.bytes_copied, 8192);
        assert_eq!(stats.segments_copied, 1);
        assert_eq!(stats.in_place_updates, 1);
        assert_eq!(stats.pages_reclaimed, 3);
        assert_eq!(stats.bytes_reclaimed, 12288);
    }

    #[test]
    fn stats_delta() {
        let t = CowTelemetry::new();
        t.record_copy(100);
        let before = t.snapshot();
        t.record_copy(50);
        t.record_segment_copy();
        t.record_in_place(1);
        let after = t.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.pages_copied, 1);
        assert_eq!(d.bytes_copied, 50);
        assert_eq!(d.segments_copied, 1);
        assert_eq!(d.in_place_updates, 1);
    }
}
