//! Identifiers for partitions, tables and records.
//!
//! Caldera's OLTP runtime partitions every table horizontally across the
//! cores of the task-parallel archipelago (one partition per worker thread).
//! A [`RecordId`] is therefore a *logical* identifier: the physical location
//! of the record changes whenever copy-on-write shadow-copies its page, but
//! the (partition, table, row) triple stays stable and is what lock tables
//! and primary-key indexes refer to.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a horizontal partition (one per OLTP worker core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartitionId(pub u32);

/// Identifier of a table within the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableId(pub u32);

/// Logical identifier of a record: partition, table, and row slot within the
/// partition-local fragment of that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordId {
    /// Owning partition.
    pub partition: PartitionId,
    /// Table the record belongs to.
    pub table: TableId,
    /// Row slot within the partition-local table fragment.
    pub row: u64,
}

impl RecordId {
    /// Creates a record id.
    pub fn new(partition: PartitionId, table: TableId, row: u64) -> Self {
        Self { partition, table, row }
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/r{}", self.partition, self.table, self.row)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "these tests exist to check that record ids hash")]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn record_ids_are_hashable_and_ordered() {
        let a = RecordId::new(PartitionId(0), TableId(1), 5);
        let b = RecordId::new(PartitionId(0), TableId(1), 6);
        let c = RecordId::new(PartitionId(1), TableId(1), 0);
        assert!(a < b);
        assert!(b < c);
        let set: HashSet<_> = [a, b, c, a].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_is_compact() {
        let r = RecordId::new(PartitionId(3), TableId(2), 42);
        assert_eq!(r.to_string(), "P3/T2/r42");
    }
}
