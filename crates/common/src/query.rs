//! A minimal scan-and-aggregate query IR.
//!
//! Every analytical query in the paper's evaluation is a selection plus an
//! aggregation over one table: TPC-H Q6 (`SUM(l_extendedprice * l_discount)`
//! under three range predicates) and the layout microbenchmark
//! (`SELECT SUM(col1 + ... + colN) FROM dataset`). This small IR is shared by
//! the Caldera OLAP engine and the CPU columnar baselines so that all engines
//! answer exactly the same question.

use crate::schema::Schema;
use serde::{Deserialize, Serialize};

/// An inclusive range predicate over one attribute, evaluated on the
/// attribute's numeric interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Attribute index in the table schema.
    pub column: usize,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Predicate {
    /// Builds a `lo <= column <= hi` predicate.
    pub fn between(column: usize, lo: f64, hi: f64) -> Self {
        Self { column, lo, hi }
    }

    /// Whether `value` satisfies the predicate.
    pub fn matches(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }
}

/// The aggregate computed over qualifying records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggExpr {
    /// `SUM(col_a * col_b)` — TPC-H Q6's revenue aggregate.
    SumProduct(usize, usize),
    /// `SUM(col_1 + col_2 + ... + col_n)` — the layout microbenchmark.
    SumColumns(Vec<usize>),
    /// `COUNT(*)` of qualifying records.
    Count,
}

impl AggExpr {
    /// Attribute indexes the aggregate itself reads.
    pub fn columns(&self) -> Vec<usize> {
        match self {
            AggExpr::SumProduct(a, b) => vec![*a, *b],
            AggExpr::SumColumns(cols) => cols.clone(),
            AggExpr::Count => vec![],
        }
    }
}

/// A filtered scan-and-aggregate query over one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanAggQuery {
    /// Conjunctive range predicates.
    pub predicates: Vec<Predicate>,
    /// The aggregate to compute.
    pub aggregate: AggExpr,
}

impl ScanAggQuery {
    /// A query with no predicates.
    pub fn aggregate_only(aggregate: AggExpr) -> Self {
        Self { predicates: Vec::new(), aggregate }
    }

    /// All attribute indexes the query touches (predicates + aggregate),
    /// deduplicated and sorted — this is what determines how many columns an
    /// engine must move.
    pub fn columns_accessed(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.predicates.iter().map(|p| p.column).chain(self.aggregate.columns()).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Bytes a columnar engine must read to answer this query over `rows`
    /// records of `schema`: the accessed columns' widths times the row count.
    /// Attributes missing from the schema are ignored (the engine will reject
    /// them at execution time anyway). This is the `bytes_to_scan` term of
    /// the scheduler's placement hints.
    pub fn scan_bytes(&self, schema: &Schema, rows: u64) -> u64 {
        self.columns_accessed()
            .iter()
            .filter_map(|&c| schema.attributes().get(c))
            .map(|attr| rows * attr.ty.width() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_bounds_are_inclusive() {
        let p = Predicate::between(0, 1.0, 2.0);
        assert!(p.matches(1.0));
        assert!(p.matches(2.0));
        assert!(!p.matches(0.999));
        assert!(!p.matches(2.001));
    }

    #[test]
    fn columns_accessed_dedupes_and_sorts() {
        let q = ScanAggQuery {
            predicates: vec![Predicate::between(3, 0.0, 1.0), Predicate::between(1, 0.0, 1.0)],
            aggregate: AggExpr::SumProduct(3, 2),
        };
        assert_eq!(q.columns_accessed(), vec![1, 2, 3]);
    }

    #[test]
    fn scan_bytes_counts_accessed_columns_once() {
        use crate::schema::{AttrType, Attribute};
        let schema =
            Schema::new(vec![Attribute::new("a", AttrType::Int32), Attribute::new("b", AttrType::Float64)]).unwrap();
        let q =
            ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 1.0)], aggregate: AggExpr::SumProduct(0, 1) };
        // Column 0 (4 bytes) is shared by predicate and aggregate; column 1
        // is 8 bytes: 12 bytes per row.
        assert_eq!(q.scan_bytes(&schema, 100), 1200);
        // Out-of-schema columns are ignored.
        let bad = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![9]));
        assert_eq!(bad.scan_bytes(&schema, 100), 0);
    }

    #[test]
    fn aggregate_only_has_no_predicates() {
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        assert!(q.predicates.is_empty());
        assert_eq!(q.columns_accessed(), vec![0, 1]);
        assert_eq!(AggExpr::Count.columns(), Vec::<usize>::new());
    }
}
