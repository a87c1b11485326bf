//! The storage-layout microbenchmark (Figures 10 and 11).
//!
//! "We use a main-memory-resident 16 GB table of 270M records. Each record is
//! comprised of 16 integer attributes. ... We then launch five instances of
//! the following query template: `SELECT SUM(col1 + ... + colN) FROM dataset`
//! [where] each instance accesses 1, 2, 4, 8, or 16 attributes."

use h2tap_common::rng::SplitMixRng;
use h2tap_common::{AggExpr, AttrType, PartitionId, Result, ScanAggQuery, Schema, TableId, Value};
use h2tap_storage::{Database, Layout};
use std::sync::Arc;

/// Number of integer attributes in the microbenchmark table.
pub const ATTRIBUTES: usize = 16;

/// The 16-integer-attribute schema.
pub fn layout_schema() -> Schema {
    Schema::homogeneous("col", ATTRIBUTES, AttrType::Int32)
}

/// Builds a single-partition database holding `rows` records of the
/// microbenchmark table in the given layout. Values are small deterministic
/// integers so reference sums are easy to compute.
pub fn build_layout_table(rows: u64, layout: Layout, seed: u64) -> Result<(Arc<Database>, TableId)> {
    let db = Database::new(1);
    let table = db.create_table("dataset", layout_schema(), layout)?;
    let mut rng = SplitMixRng::new(seed);
    for _ in 0..rows {
        let record: Vec<Value> = (0..ATTRIBUTES).map(|_| Value::Int32(rng.next_below(100) as i32)).collect();
        db.insert(PartitionId(0), table, &record)?;
    }
    Ok((db, table))
}

/// The query template instance that accesses the first `n` attributes.
pub fn sum_query(n: usize) -> ScanAggQuery {
    assert!((1..=ATTRIBUTES).contains(&n), "query must access 1..=16 attributes");
    ScanAggQuery::aggregate_only(AggExpr::SumColumns((0..n).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference result for [`sum_query`] over the table produced by
    /// [`build_layout_table`] with the same `rows` and `seed`.
    fn reference_sum(rows: u64, n: usize, seed: u64) -> f64 {
        let mut rng = SplitMixRng::new(seed);
        let mut sum = 0.0;
        for _ in 0..rows {
            for attr in 0..ATTRIBUTES {
                let v = rng.next_below(100) as f64;
                if attr < n {
                    sum += v;
                }
            }
        }
        sum
    }

    #[test]
    fn schema_is_sixteen_four_byte_integers() {
        let s = layout_schema();
        assert_eq!(s.arity(), 16);
        assert_eq!(s.record_width(), 64);
    }

    #[test]
    fn built_table_matches_reference_sums() {
        let rows = 2_000;
        let (db, table) = build_layout_table(rows, Layout::Dsm, 11).unwrap();
        assert_eq!(db.row_count(table).unwrap(), rows);
        let snap = db.snapshot();
        let frozen = snap.table(table).unwrap();
        for n in [1usize, 4, 16] {
            let sum: f64 = (0..n).flat_map(|a| frozen.column(a)).map(|c| c as u32 as f64).sum();
            assert_eq!(sum, reference_sum(rows, n, 11), "n = {n}");
        }
    }

    #[test]
    fn pax_layout_uses_paper_page_geometry() {
        let (db, table) = build_layout_table(200, Layout::PAPER_PAX, 1).unwrap();
        let meta = db.table_meta(table).unwrap();
        assert_eq!(meta.layout.pax_rows_per_page(&meta.schema), Some(64));
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn zero_attribute_query_is_rejected() {
        let _ = sum_query(0);
    }

    #[test]
    fn sum_query_touches_requested_attributes() {
        assert_eq!(sum_query(4).columns_accessed(), vec![0, 1, 2, 3]);
    }
}
