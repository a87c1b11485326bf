//! A horizontal partition: the per-core slice of every table.
//!
//! Caldera "stores data in shared memory as a collection of horizontal
//! partitions" and assigns one partition to each OLTP worker thread, which
//! then mediates all access to partition-local records. A [`PartitionStore`]
//! is that slice: a map from table id to [`TableFragment`].

use crate::table::TableFragment;
use crate::telemetry::CowTelemetry;
use crate::TableMeta;
use h2tap_common::{H2Error, PartitionId, Result, TableId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// All table fragments owned by one partition.
#[derive(Debug)]
pub(crate) struct PartitionStore {
    id: PartitionId,
    fragments: BTreeMap<TableId, TableFragment>,
    telemetry: Arc<CowTelemetry>,
}

impl PartitionStore {
    /// Creates an empty partition.
    pub(crate) fn new(id: PartitionId, telemetry: Arc<CowTelemetry>) -> Self {
        Self { id, fragments: BTreeMap::new(), telemetry }
    }

    /// The fragment of a table, registered here by the first call.
    pub(crate) fn register_table(&mut self, meta: &TableMeta) -> &mut TableFragment {
        let telemetry = &self.telemetry;
        self.fragments
            .entry(meta.id)
            .or_insert_with(|| TableFragment::new(Arc::clone(&meta.schema), meta.layout, Arc::clone(telemetry)))
    }

    /// The fragment of `table`, if a write registered it.
    pub(crate) fn fragment(&self, table: TableId) -> Result<&TableFragment> {
        self.fragments.get(&table).ok_or_else(|| H2Error::UnknownTable(format!("{table} in partition {}", self.id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layout;
    use h2tap_common::{AttrType, Epoch, Schema};

    fn store() -> (PartitionStore, TableMeta) {
        let p = PartitionStore::new(PartitionId(0), CowTelemetry::new());
        let schema = Arc::new(Schema::homogeneous("c", 3, AttrType::Int64));
        (p, TableMeta { id: TableId(1), name: "t".into(), schema, layout: Layout::Dsm })
    }

    #[test]
    fn insert_read_update_roundtrip() {
        let (mut p, meta) = store();
        let row = p.register_table(&meta).insert(&[1, 2, 3], Epoch::ZERO).unwrap();
        assert_eq!(p.fragment(meta.id).unwrap().read_record(row).unwrap(), vec![1, 2, 3]);
        p.register_table(&meta).update_record(row, &[4, 5, 6], Epoch::ZERO).unwrap();
        assert_eq!(p.fragment(meta.id).unwrap().read_record(row).unwrap(), vec![4, 5, 6]);
    }

    #[test]
    fn unknown_table_errors() {
        let (mut p, meta) = store();
        assert!(matches!(p.fragment(meta.id), Err(H2Error::UnknownTable(_))), "registered by a write only");
        p.register_table(&meta);
        assert!(p.fragment(meta.id).is_ok());
        assert!(matches!(p.fragment(TableId(99)), Err(H2Error::UnknownTable(_))));
    }

    #[test]
    fn register_is_idempotent() {
        let (mut p, meta) = store();
        p.register_table(&meta).insert(&[1, 2, 3], Epoch::ZERO).unwrap();
        // Registering again must not wipe existing data.
        assert_eq!(p.register_table(&meta).row_count(), 1);
        assert_eq!(p.fragments.len(), 1);
    }
}
