//! TPC-H `lineitem` / `part` generators, query 6, and a join/group-by plan.
//!
//! The paper's HTAP experiments (Figures 4-7) run over a TPC-H SF-300
//! `lineitem` table, use Q6 as the analytical query, and an update-only
//! YCSB-like workload over the same table as the transactional side. The
//! generator here produces a `lineitem`-shaped table at any scale factor with
//! the value distributions Q6's predicates rely on (uniform quantity 1-50,
//! discount 0-0.10, dates over seven years).
//!
//! For the relational operator subsystem there is additionally a `part`
//! dimension table (`l_partkey` references it) and [`brand_revenue_plan`], a
//! TPC-H-style join + group-by: revenue per brand over parts in a size
//! range, in the spirit of Q14/Q19's `lineitem ⋈ part` shapes.

use caldera::CalderaBuilder;
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{
    AggExpr, AttrType, Attribute, GroupRow, JoinSpec, OlapPlan, PlanColumn, Predicate, Result, ScanAggQuery, Schema,
    TableId, Value,
};
use h2tap_storage::Layout;

/// Rows per TPC-H scale factor unit (the spec's 6,000,000 lineitems per SF).
pub const ROWS_PER_SCALE_FACTOR: u64 = 6_000_000;

/// Attribute positions within [`lineitem_schema`]. Kept as constants so query
/// builders and experiments cannot drift from the schema.
pub mod columns {
    /// l_orderkey
    pub const ORDERKEY: usize = 0;
    /// l_partkey
    pub const PARTKEY: usize = 1;
    /// l_suppkey
    pub const SUPPKEY: usize = 2;
    /// l_linenumber
    pub const LINENUMBER: usize = 3;
    /// l_quantity
    pub const QUANTITY: usize = 4;
    /// l_extendedprice
    pub const EXTENDEDPRICE: usize = 5;
    /// l_discount
    pub const DISCOUNT: usize = 6;
    /// l_tax
    pub const TAX: usize = 7;
    /// l_shipdate (days since 1992-01-01)
    pub const SHIPDATE: usize = 8;
    /// l_commitdate
    pub const COMMITDATE: usize = 9;
    /// l_receiptdate
    pub const RECEIPTDATE: usize = 10;
}

/// The subset of `lineitem` Caldera's evaluation needs (11 fixed-width
/// attributes; the three string attributes of the full schema carry no
/// predicate or aggregate in any experiment and are omitted).
pub fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("l_orderkey", AttrType::Int64),
        Attribute::new("l_partkey", AttrType::Int64),
        Attribute::new("l_suppkey", AttrType::Int64),
        Attribute::new("l_linenumber", AttrType::Int32),
        Attribute::new("l_quantity", AttrType::Float64),
        Attribute::new("l_extendedprice", AttrType::Float64),
        Attribute::new("l_discount", AttrType::Float64),
        Attribute::new("l_tax", AttrType::Float64),
        Attribute::new("l_shipdate", AttrType::Date),
        Attribute::new("l_commitdate", AttrType::Date),
        Attribute::new("l_receiptdate", AttrType::Date),
    ])
    .expect("lineitem schema is valid")
}

/// Generates one lineitem row for global row number `key`.
pub fn lineitem_row(key: u64, rng: &mut SplitMixRng) -> Vec<Value> {
    let quantity = 1.0 + rng.next_below(50) as f64;
    let extendedprice = 900.0 + rng.next_f64() * 104_000.0;
    let discount = rng.next_below(11) as f64 / 100.0;
    let tax = rng.next_below(9) as f64 / 100.0;
    let shipdate = rng.next_below(2_526) as i32; // ~7 years of days
    vec![
        Value::Int64((key / 4) as i64),
        Value::Int64(rng.next_below(200_000) as i64),
        Value::Int64(rng.next_below(10_000) as i64),
        Value::Int32((key % 7) as i32 + 1),
        Value::Float64(quantity),
        Value::Float64(extendedprice),
        Value::Float64(discount),
        Value::Float64(tax),
        Value::Date(shipdate),
        Value::Date(shipdate + 30),
        Value::Date(shipdate + 45),
    ]
}

/// TPC-H Q6 over [`lineitem_schema`]:
/// `SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_shipdate
/// in [date, date+1y) AND l_discount in [0.05, 0.07] AND l_quantity < 24`.
pub fn q6() -> ScanAggQuery {
    ScanAggQuery {
        predicates: vec![
            Predicate::between(columns::SHIPDATE, 730.0, 1094.0),
            Predicate::between(columns::DISCOUNT, 0.05, 0.07),
            Predicate::between(columns::QUANTITY, 0.0, 23.0),
        ],
        aggregate: AggExpr::SumProduct(columns::EXTENDEDPRICE, columns::DISCOUNT),
    }
}

/// Bytes a columnar engine must read to answer Q6 over `rows` lineitem
/// records — the query's `bytes_to_scan` placement hint, exposed here so
/// experiments can report the footprint the scheduler reasons about.
pub fn q6_scan_bytes(rows: u64) -> u64 {
    q6().scan_bytes(&lineitem_schema(), rows)
}

/// Distinct `l_partkey` values the lineitem generator draws (uniformly).
/// A `part` table smaller than this acts as a join filter: only lineitems
/// whose partkey falls inside the loaded part range find a partner.
pub const LINEITEM_PART_KEYS: u64 = 200_000;

/// Number of distinct `p_brand` values (the TPC-H spec has 25).
pub const PART_BRANDS: u64 = 25;

/// Attribute positions within [`part_schema`].
pub mod part_columns {
    /// p_partkey
    pub const PARTKEY: usize = 0;
    /// p_brand (0..25)
    pub const BRAND: usize = 1;
    /// p_size (1..=50)
    pub const SIZE: usize = 2;
    /// p_container (0..40)
    pub const CONTAINER: usize = 3;
    /// p_retailprice
    pub const RETAILPRICE: usize = 4;
}

/// The fixed-width subset of TPC-H `part` the join experiments need.
pub fn part_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("p_partkey", AttrType::Int64),
        Attribute::new("p_brand", AttrType::Int32),
        Attribute::new("p_size", AttrType::Int32),
        Attribute::new("p_container", AttrType::Int32),
        Attribute::new("p_retailprice", AttrType::Float64),
    ])
    .expect("part schema is valid")
}

/// Generates the part row for `p_partkey = key`. Brand and container are
/// derived from the key (deterministic group structure); size and price are
/// drawn from the generator's distributions (uniform 1..=50 and around the
/// spec's retail-price formula).
pub fn part_row(key: u64, rng: &mut SplitMixRng) -> Vec<Value> {
    let size = 1 + rng.next_below(50) as i32;
    let retailprice = 900.0 + (key % 1_000) as f64 + rng.next_f64() * 100.0;
    vec![
        Value::Int64(key as i64),
        Value::Int32((key % PART_BRANDS) as i32),
        Value::Int32(size),
        Value::Int32((key % 40) as i32),
        Value::Float64(retailprice),
    ]
}

/// Loads a `part` table with keys `0..parts` (keyed so `l_partkey` joins
/// directly). Returns the table id.
pub fn load_part(builder: &mut CalderaBuilder, layout: Layout, parts: u64, seed: u64) -> Result<TableId> {
    let table = builder.create_table("part", part_schema(), layout)?;
    let mut rng = SplitMixRng::new(seed);
    for key in 0..parts {
        let row = part_row(key, &mut rng);
        builder.load(table, key as i64, &row)?;
    }
    Ok(table)
}

/// Revenue per brand over parts in a size range — the TPC-H-style join +
/// group-by plan of the operator subsystem:
///
/// ```sql
/// SELECT p_brand, SUM(l_extendedprice * l_discount), COUNT(*)
/// FROM lineitem JOIN part ON l_partkey = p_partkey
/// WHERE l_shipdate BETWEEN 730 AND 1094 AND p_size <= :max_size
/// GROUP BY p_brand
/// ```
///
/// `max_size` (1..=50) controls build-side selectivity: `max_size/50` of the
/// loaded parts survive the filter and populate the join hash table.
pub fn brand_revenue_plan(max_size: i32) -> OlapPlan {
    OlapPlan {
        predicates: vec![Predicate::between(columns::SHIPDATE, 730.0, 1094.0)],
        join: Some(JoinSpec {
            probe_column: columns::PARTKEY,
            build_key: part_columns::PARTKEY,
            build_predicates: vec![Predicate::between(part_columns::SIZE, 1.0, f64::from(max_size))],
        }),
        group_by: Some(PlanColumn::Build(part_columns::BRAND)),
        aggregates: vec![AggExpr::SumProduct(columns::EXTENDEDPRICE, columns::DISCOUNT), AggExpr::Count],
    }
}

/// Like [`brand_revenue_plan`] but grouped by `p_partkey` itself — the
/// high-cardinality end of the group sweep (one group per surviving part).
pub fn partkey_revenue_plan(max_size: i32) -> OlapPlan {
    OlapPlan { group_by: Some(PlanColumn::Build(part_columns::PARTKEY)), ..brand_revenue_plan(max_size) }
}

/// Reference (scalar) evaluation of [`brand_revenue_plan`] /
/// [`partkey_revenue_plan`] over freshly generated rows: regenerates both
/// tables and evaluates the plan naively, returning `(key, revenue, rows)`
/// per group in ascending key order. Aggregation order differs from the
/// engines' chunked order, so compare revenues with a tolerance.
pub fn brand_revenue_reference(
    lineitem_rows: u64,
    parts: u64,
    max_size: i32,
    lineitem_seed: u64,
    part_seed: u64,
    by_partkey: bool,
) -> Vec<GroupRow> {
    let mut part_rng = SplitMixRng::new(part_seed);
    // Indexed by partkey: the group key (brand or partkey) of a part in the
    // size range, `None` for the others.
    let surviving: Vec<Option<u64>> = (0..parts)
        .map(|key| {
            let row = part_row(key, &mut part_rng);
            let size = row[part_columns::SIZE].as_i64().unwrap();
            (size <= i64::from(max_size)).then_some(if by_partkey { key } else { key % PART_BRANDS })
        })
        .collect();
    let mut groups: std::collections::BTreeMap<u64, (f64, u64)> = std::collections::BTreeMap::new();
    let mut rng = SplitMixRng::new(lineitem_seed);
    for key in 0..lineitem_rows {
        let row = lineitem_row(key, &mut rng);
        let shipdate = row[columns::SHIPDATE].as_f64().unwrap();
        if !(730.0..=1094.0).contains(&shipdate) {
            continue;
        }
        let partkey = row[columns::PARTKEY].as_i64().unwrap() as u64;
        let Some(&Some(group)) = surviving.get(partkey as usize) else { continue };
        let revenue = row[columns::EXTENDEDPRICE].as_f64().unwrap() * row[columns::DISCOUNT].as_f64().unwrap();
        let e = groups.entry(group).or_insert((0.0, 0));
        e.0 += revenue;
        e.1 += 1;
    }
    groups
        .into_iter()
        .map(|(key, (revenue, rows))| GroupRow { key, values: vec![revenue, rows as f64], rows })
        .collect()
}

/// Loads a lineitem table with `rows` records into a Caldera builder,
/// spreading rows round-robin across partitions (key = global row number).
/// Returns the table id.
pub fn load_lineitem(builder: &mut CalderaBuilder, layout: Layout, rows: u64, seed: u64) -> Result<TableId> {
    load_lineitem_named(builder, "lineitem", layout, rows, seed)
}

/// Like [`load_lineitem`] but with an explicit table name, so several
/// lineitem instances (e.g. a sweep of sizes straddling the placement
/// crossover) can coexist in one engine.
pub fn load_lineitem_named(
    builder: &mut CalderaBuilder,
    name: &str,
    layout: Layout,
    rows: u64,
    seed: u64,
) -> Result<TableId> {
    let table = builder.create_table(name, lineitem_schema(), layout)?;
    let mut rng = SplitMixRng::new(seed);
    for key in 0..rows {
        let row = lineitem_row(key, &mut rng);
        builder.load(table, key as i64, &row)?;
    }
    Ok(table)
}

/// Reference (scalar) evaluation of Q6 over freshly generated rows — used by
/// tests to check that every engine agrees with a straightforward
/// implementation.
pub fn q6_reference(rows: u64, seed: u64) -> f64 {
    let mut rng = SplitMixRng::new(seed);
    let mut sum = 0.0;
    for key in 0..rows {
        let row = lineitem_row(key, &mut rng);
        let quantity = row[columns::QUANTITY].as_f64().unwrap();
        let price = row[columns::EXTENDEDPRICE].as_f64().unwrap();
        let discount = row[columns::DISCOUNT].as_f64().unwrap();
        let shipdate = row[columns::SHIPDATE].as_f64().unwrap();
        if (730.0..=1094.0).contains(&shipdate) && (0.05..=0.07).contains(&discount) && quantity < 24.0 {
            sum += price * discount;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_column_constants_agree() {
        let s = lineitem_schema();
        assert_eq!(s.arity(), 11);
        assert_eq!(s.index_of("l_quantity"), Some(columns::QUANTITY));
        assert_eq!(s.index_of("l_shipdate"), Some(columns::SHIPDATE));
        assert_eq!(s.index_of("l_extendedprice"), Some(columns::EXTENDEDPRICE));
    }

    #[test]
    fn q6_scan_bytes_counts_the_four_accessed_columns() {
        let schema = lineitem_schema();
        let per_row: u64 = q6().columns_accessed().iter().map(|&c| schema.attr(c).unwrap().ty.width() as u64).sum();
        assert_eq!(q6().columns_accessed().len(), 4);
        assert_eq!(q6_scan_bytes(1_000), per_row * 1_000);
        assert_eq!(q6_scan_bytes(0), 0);
    }

    #[test]
    fn rows_have_q6_friendly_distributions() {
        let mut rng = SplitMixRng::new(1);
        let mut qualifying = 0u64;
        let n = 50_000;
        for key in 0..n {
            let row = lineitem_row(key, &mut rng);
            let quantity = row[columns::QUANTITY].as_f64().unwrap();
            assert!((1.0..=50.0).contains(&quantity));
            let discount = row[columns::DISCOUNT].as_f64().unwrap();
            assert!((0.0..=0.10).contains(&discount));
            let shipdate = row[columns::SHIPDATE].as_f64().unwrap();
            if (730.0..=1094.0).contains(&shipdate) && (0.05..=0.07).contains(&discount) && quantity < 24.0 {
                qualifying += 1;
            }
        }
        // Q6 selects roughly 2% of lineitem.
        let fraction = qualifying as f64 / n as f64;
        assert!((0.005..0.05).contains(&fraction), "Q6 selectivity {fraction}");
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = SplitMixRng::new(9);
        let mut b = SplitMixRng::new(9);
        for key in 0..100 {
            assert_eq!(lineitem_row(key, &mut a), lineitem_row(key, &mut b));
        }
        assert_eq!(q6_reference(1000, 5), q6_reference(1000, 5));
    }

    #[test]
    fn part_schema_and_constants_agree() {
        let s = part_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.index_of("p_partkey"), Some(part_columns::PARTKEY));
        assert_eq!(s.index_of("p_brand"), Some(part_columns::BRAND));
        assert_eq!(s.index_of("p_size"), Some(part_columns::SIZE));
        let mut rng = SplitMixRng::new(3);
        for key in 0..1_000u64 {
            let row = part_row(key, &mut rng);
            assert_eq!(row[part_columns::PARTKEY].as_i64(), Some(key as i64));
            let brand = row[part_columns::BRAND].as_i64().unwrap();
            assert!((0..PART_BRANDS as i64).contains(&brand));
            let size = row[part_columns::SIZE].as_i64().unwrap();
            assert!((1..=50).contains(&size));
        }
    }

    #[test]
    fn brand_revenue_plan_is_valid_and_selective() {
        let plan = brand_revenue_plan(25);
        assert!(plan.validate().is_ok());
        assert_eq!(
            plan.probe_columns_accessed(),
            vec![columns::PARTKEY, columns::EXTENDEDPRICE, columns::DISCOUNT, columns::SHIPDATE]
        );
        assert_eq!(plan.build_columns_accessed(), vec![part_columns::PARTKEY, part_columns::BRAND, part_columns::SIZE]);
        assert!(plan.random_access_bytes(1_000) > 0, "join plans must report random access");
        // Grouping by partkey only changes the group column.
        let by_key = partkey_revenue_plan(25);
        assert_eq!(by_key.build_columns_accessed(), vec![part_columns::PARTKEY, part_columns::SIZE]);
    }

    #[test]
    fn brand_revenue_reference_groups_by_brand_or_partkey() {
        let by_brand = brand_revenue_reference(20_000, 2_000, 25, 7, 11, false);
        assert!(!by_brand.is_empty());
        assert!(by_brand.len() <= PART_BRANDS as usize);
        let by_key = brand_revenue_reference(20_000, 2_000, 25, 7, 11, true);
        assert!(by_key.len() > by_brand.len(), "partkey grouping has higher cardinality");
        // Same total revenue and row count either way.
        let rev = |g: &[GroupRow]| g.iter().map(|r| r.values[0]).sum::<f64>();
        let rows = |g: &[GroupRow]| g.iter().map(|r| r.rows).sum::<u64>();
        assert!((rev(&by_brand) - rev(&by_key)).abs() < 1e-6);
        assert_eq!(rows(&by_brand), rows(&by_key));
        // Halving the size range cannot increase the joined row count.
        let narrow = brand_revenue_reference(20_000, 2_000, 12, 7, 11, false);
        assert!(rows(&narrow) < rows(&by_brand));
    }

    #[test]
    fn q6_touches_four_columns() {
        assert_eq!(
            q6().columns_accessed(),
            vec![columns::QUANTITY, columns::EXTENDEDPRICE, columns::DISCOUNT, columns::SHIPDATE]
        );
    }
}
