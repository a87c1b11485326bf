//! TPC-C NewOrder workload (Figure 8).
//!
//! The paper's scalability experiment runs "the NewOrder transaction of the
//! TPC-C benchmark. For both systems, we assign a warehouse to a thread and
//! increase the number of threads (and hence the number of warehouses)". The
//! implementation here follows the TPC-C NewOrder profile — read warehouse,
//! read-modify-write the district's next-order id, read the customer, then
//! for 5-15 order lines read the item and read-modify-write the stock, and
//! finally insert the order, new-order and order-line records — over a
//! deliberately scaled-down population so benches load quickly. Item records
//! are replicated per warehouse (they are read-only), so the only remote
//! accesses are the ~1%-per-line remote stock updates, which makes roughly
//! 10% of transactions multi-warehouse, matching the paper's observation.
//!
//! The same generator logic is provided for Caldera ([`NewOrderGenerator`])
//! and for the Silo baseline ([`SiloNewOrderGenerator`]) so Figure 8 compares
//! identical work.

use caldera::CalderaBuilder;
use h2tap_baselines::{SiloDb, SiloGenerator, SiloTxn};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{AttrType, PartitionId, Result, Schema, TableId, Value};
use h2tap_oltp::{StridePartitioner, TxnGenerator, TxnProc};
use h2tap_storage::Layout;
use std::sync::Arc;

/// Key-space stride reserved per warehouse.
pub const WAREHOUSE_STRIDE: i64 = 100_000_000;

/// Scaled-down population parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Districts per warehouse (TPC-C: 10).
    pub districts: i64,
    /// Customers per district (TPC-C: 3000; scaled down by default).
    pub customers_per_district: i64,
    /// Items / stock entries per warehouse (TPC-C: 100k; scaled down).
    pub items: i64,
    /// Probability (in percent) that one order line's stock lives in a remote
    /// warehouse (TPC-C: 1%).
    pub remote_line_pct: u32,
}

impl Default for TpccConfig {
    fn default() -> Self {
        Self { districts: 10, customers_per_district: 120, items: 2_000, remote_line_pct: 1 }
    }
}

/// Table ids of a loaded TPC-C database.
#[derive(Debug, Clone, Copy)]
pub struct TpccTables {
    /// WAREHOUSE
    pub warehouse: TableId,
    /// DISTRICT
    pub district: TableId,
    /// CUSTOMER
    pub customer: TableId,
    /// ITEM (replicated per warehouse)
    pub item: TableId,
    /// STOCK
    pub stock: TableId,
    /// ORDERS
    pub orders: TableId,
    /// NEW_ORDER
    pub new_order: TableId,
    /// ORDER_LINE
    pub order_line: TableId,
}

/// Key helpers shared by loaders and generators.
pub mod keys {
    use super::WAREHOUSE_STRIDE;

    /// WAREHOUSE key of warehouse `w`.
    pub fn warehouse(w: i64) -> i64 {
        w * WAREHOUSE_STRIDE
    }
    /// DISTRICT key of district `d` of warehouse `w`.
    pub fn district(w: i64, d: i64) -> i64 {
        w * WAREHOUSE_STRIDE + d
    }
    /// CUSTOMER key.
    pub fn customer(w: i64, d: i64, c: i64) -> i64 {
        w * WAREHOUSE_STRIDE + d * 10_000 + c
    }
    /// ITEM key (per-warehouse replica).
    pub fn item(w: i64, i: i64) -> i64 {
        w * WAREHOUSE_STRIDE + 1_000_000 + i
    }
    /// STOCK key.
    pub fn stock(w: i64, i: i64) -> i64 {
        w * WAREHOUSE_STRIDE + 2_000_000 + i
    }
    /// ORDERS key.
    pub fn order(w: i64, d: i64, o: i64) -> i64 {
        w * WAREHOUSE_STRIDE + 4_000_000 + d * 200_000 + o
    }
    /// NEW_ORDER key.
    pub fn new_order(w: i64, d: i64, o: i64) -> i64 {
        w * WAREHOUSE_STRIDE + 8_000_000 + d * 200_000 + o
    }
    /// ORDER_LINE key.
    pub fn order_line(w: i64, d: i64, o: i64, line: i64) -> i64 {
        w * WAREHOUSE_STRIDE + 12_000_000 + (d * 200_000 + o) * 16 + line
    }
}

fn two_col(name: &str) -> Schema {
    Schema::new(vec![
        h2tap_common::Attribute::new(format!("{name}_id"), AttrType::Int64),
        h2tap_common::Attribute::new("payload", AttrType::Float64),
    ])
    .expect("valid")
}

fn four_col(name: &str) -> Schema {
    Schema::new(vec![
        h2tap_common::Attribute::new(format!("{name}_id"), AttrType::Int64),
        h2tap_common::Attribute::new("a", AttrType::Int64),
        h2tap_common::Attribute::new("b", AttrType::Int64),
        h2tap_common::Attribute::new("c", AttrType::Float64),
    ])
    .expect("valid")
}

/// The partitioner TPC-C uses: one warehouse per partition.
pub fn tpcc_partitioner(warehouses: usize) -> StridePartitioner {
    StridePartitioner::new(WAREHOUSE_STRIDE, warehouses)
}

/// Hands every row of the TPC-C population to `load`, warehouse by
/// warehouse: the one population both the Caldera and the Silo loader load.
fn populate(
    tables: &TpccTables,
    warehouses: usize,
    cfg: TpccConfig,
    mut load: impl FnMut(TableId, i64, Vec<Value>) -> Result<()>,
) -> Result<()> {
    let mut rng = SplitMixRng::new(0x79cc_u64);
    for w in 0..warehouses as i64 {
        load(tables.warehouse, keys::warehouse(w), vec![Value::Int64(w), Value::Float64(0.0)])?;
        for d in 1..=cfg.districts {
            load(
                tables.district,
                keys::district(w, d),
                vec![Value::Int64(d), Value::Int64(w), Value::Int64(1), Value::Float64(0.0)],
            )?;
            for c in 1..=cfg.customers_per_district {
                load(
                    tables.customer,
                    keys::customer(w, d, c),
                    vec![Value::Int64(c), Value::Int64(d), Value::Int64(w), Value::Float64(10.0)],
                )?;
            }
        }
        for i in 1..=cfg.items {
            let price = 1.0 + rng.next_f64() * 100.0;
            load(tables.item, keys::item(w, i), vec![Value::Int64(i), Value::Float64(price)])?;
            load(
                tables.stock,
                keys::stock(w, i),
                vec![Value::Int64(i), Value::Int64(w), Value::Int64(10_000), Value::Float64(0.0)],
            )?;
        }
    }
    Ok(())
}

/// Creates and loads the TPC-C tables into a Caldera builder with one
/// warehouse per partition. The builder's partitioner must already be
/// [`tpcc_partitioner`].
pub fn load_tpcc(builder: &mut CalderaBuilder, warehouses: usize, cfg: TpccConfig) -> Result<TpccTables> {
    let layout = Layout::Nsm; // the paper's OLTP comparison uses NSM
    let tables = TpccTables {
        warehouse: builder.create_table("warehouse", two_col("w"), layout)?,
        district: builder.create_table("district", four_col("d"), layout)?,
        customer: builder.create_table("customer", four_col("cst"), layout)?,
        item: builder.create_table("item", two_col("i"), layout)?,
        stock: builder.create_table("stock", four_col("s"), layout)?,
        orders: builder.create_table("orders", four_col("o"), layout)?,
        new_order: builder.create_table("new_order", two_col("no"), layout)?,
        order_line: builder.create_table("order_line", four_col("ol"), layout)?,
    };
    populate(&tables, warehouses, cfg, |table, key, row| builder.load(table, key, &row).map(drop))?;
    Ok(tables)
}

/// The NewOrder transaction generator for Caldera.
pub struct NewOrderGenerator {
    tables: TpccTables,
    cfg: TpccConfig,
    warehouses: i64,
}

impl NewOrderGenerator {
    /// Creates a generator over a loaded TPC-C database.
    pub fn new(tables: TpccTables, cfg: TpccConfig, warehouses: usize) -> Self {
        Self { tables, cfg, warehouses: warehouses as i64 }
    }

    /// Draws the per-transaction parameters (shared with the Silo variant so
    /// both systems run identical work for a given RNG stream).
    fn draw(&self, home: i64, rng: &mut SplitMixRng) -> NewOrderParams {
        let d = 1 + rng.next_below(self.cfg.districts as u64) as i64;
        let c = 1 + rng.next_below(self.cfg.customers_per_district as u64) as i64;
        let lines = 5 + rng.next_below(11) as usize;
        let mut items = Vec::with_capacity(lines);
        for _ in 0..lines {
            let i = 1 + rng.next_below(self.cfg.items as u64) as i64;
            let remote = self.warehouses > 1 && rng.next_below(100) < u64::from(self.cfg.remote_line_pct);
            let supply_w = if remote {
                let mut w = rng.next_below(self.warehouses as u64) as i64;
                if w == home {
                    w = (w + 1) % self.warehouses;
                }
                w
            } else {
                home
            };
            let qty = 1 + rng.next_below(10) as i64;
            items.push((i, supply_w, qty));
        }
        NewOrderParams { d, c, items }
    }
}

struct NewOrderParams {
    d: i64,
    c: i64,
    /// (item id, supplying warehouse, quantity)
    items: Vec<(i64, i64, i64)>,
}

impl TxnGenerator for NewOrderGenerator {
    fn next_txn(&self, home: PartitionId, _seq: u64, rng: &mut SplitMixRng) -> TxnProc {
        let w = i64::from(home.0);
        let params = self.draw(w, rng);
        let tables = self.tables;
        Arc::new(move |ctx| {
            // 1. Warehouse (read).
            let _warehouse = ctx.read(tables.warehouse, keys::warehouse(w))?;
            // 2. District: allocate the order id.
            let mut district = ctx.read_for_update(tables.district, keys::district(w, params.d))?;
            let o_id = district[2].as_i64().unwrap_or(1);
            district[2] = Value::Int64(o_id + 1);
            ctx.update(tables.district, keys::district(w, params.d), district)?;
            // 3. Customer (read).
            let _customer = ctx.read(tables.customer, keys::customer(w, params.d, params.c))?;
            // 4. Order lines.
            let mut total = 0.0;
            for (line, (i, supply_w, qty)) in params.items.iter().enumerate() {
                let item = ctx.read(tables.item, keys::item(w, *i))?;
                let price = item[1].as_f64().unwrap_or(1.0);
                let mut stock = ctx.read_for_update(tables.stock, keys::stock(*supply_w, *i))?;
                let on_hand = stock[2].as_i64().unwrap_or(0);
                stock[2] = Value::Int64(if on_hand > *qty { on_hand - qty } else { on_hand + 91 - qty });
                ctx.update(tables.stock, keys::stock(*supply_w, *i), stock)?;
                let amount = price * *qty as f64;
                total += amount;
                ctx.insert_local(
                    tables.order_line,
                    keys::order_line(w, params.d, o_id, line as i64),
                    vec![Value::Int64(o_id), Value::Int64(*i), Value::Int64(*qty), Value::Float64(amount)],
                )?;
            }
            // 5. Order + NewOrder inserts.
            ctx.insert_local(
                tables.orders,
                keys::order(w, params.d, o_id),
                vec![
                    Value::Int64(o_id),
                    Value::Int64(params.d),
                    Value::Int64(params.c),
                    Value::Float64(params.items.len() as f64),
                ],
            )?;
            ctx.insert_local(
                tables.new_order,
                keys::new_order(w, params.d, o_id),
                vec![Value::Int64(o_id), Value::Float64(total)],
            )?;
            Ok(())
        })
    }
}

/// Loads the same TPC-C population into a new Silo database (single shared
/// instance, as in the paper's default Silo deployment) holding `tables`.
pub fn load_tpcc_silo(tables: TpccTables, warehouses: usize, cfg: TpccConfig) -> Result<Arc<SiloDb>> {
    let db = SiloDb::new(&[
        tables.warehouse,
        tables.district,
        tables.customer,
        tables.item,
        tables.stock,
        tables.orders,
        tables.new_order,
        tables.order_line,
    ]);
    populate(&tables, warehouses, cfg, |table, key, row| db.load(table, key, row))?;
    Ok(db)
}

/// Allocates fresh table ids for a standalone (Silo-only) TPC-C load.
pub fn standalone_tables() -> TpccTables {
    TpccTables {
        warehouse: TableId(0),
        district: TableId(1),
        customer: TableId(2),
        item: TableId(3),
        stock: TableId(4),
        orders: TableId(5),
        new_order: TableId(6),
        order_line: TableId(7),
    }
}

/// NewOrder for the Silo baseline: identical logic, expressed against Silo's
/// OCC transaction API.
pub struct SiloNewOrderGenerator {
    inner: NewOrderGenerator,
}

impl SiloNewOrderGenerator {
    /// Creates the Silo-side generator.
    pub fn new(tables: TpccTables, cfg: TpccConfig, warehouses: usize) -> Self {
        Self { inner: NewOrderGenerator::new(tables, cfg, warehouses) }
    }
}

impl SiloGenerator for SiloNewOrderGenerator {
    fn run_one(&self, db: &Arc<SiloDb>, worker: usize, _seq: u64, rng: &mut SplitMixRng) -> Result<()> {
        let w = worker as i64;
        let params = self.inner.draw(w, rng);
        let tables = self.inner.tables;
        let mut txn = SiloTxn::begin(Arc::clone(db));
        let _warehouse = txn.read(tables.warehouse, keys::warehouse(w))?;
        let mut district = txn.read(tables.district, keys::district(w, params.d))?;
        let o_id = district[2].as_i64().unwrap_or(1);
        district[2] = Value::Int64(o_id + 1);
        txn.write(tables.district, keys::district(w, params.d), district)?;
        let _customer = txn.read(tables.customer, keys::customer(w, params.d, params.c))?;
        let mut total = 0.0;
        for (line, (i, supply_w, qty)) in params.items.iter().enumerate() {
            let item = txn.read(tables.item, keys::item(w, *i))?;
            let price = item[1].as_f64().unwrap_or(1.0);
            let mut stock = txn.read(tables.stock, keys::stock(*supply_w, *i))?;
            let on_hand = stock[2].as_i64().unwrap_or(0);
            stock[2] = Value::Int64(if on_hand > *qty { on_hand - qty } else { on_hand + 91 - qty });
            txn.write(tables.stock, keys::stock(*supply_w, *i), stock)?;
            let amount = price * *qty as f64;
            total += amount;
            txn.insert(
                tables.order_line,
                keys::order_line(w, params.d, o_id, line as i64),
                vec![Value::Int64(o_id), Value::Int64(*i), Value::Int64(*qty), Value::Float64(amount)],
            );
        }
        txn.insert(
            tables.orders,
            keys::order(w, params.d, o_id),
            vec![
                Value::Int64(o_id),
                Value::Int64(params.d),
                Value::Int64(params.c),
                Value::Float64(params.items.len() as f64),
            ],
        );
        txn.insert(
            tables.new_order,
            keys::new_order(w, params.d, o_id),
            vec![Value::Int64(o_id), Value::Float64(total)],
        );
        txn.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::TableId;

    #[test]
    fn keys_do_not_collide_within_a_table() {
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..3 {
            for d in 1..=10 {
                assert!(seen.insert(keys::district(w, d)));
            }
        }
        let mut ol = std::collections::BTreeSet::new();
        for d in 1..=10 {
            for o in 1..1000 {
                for line in 0..16 {
                    assert!(ol.insert(keys::order_line(0, d, o, line)));
                }
            }
        }
    }

    #[test]
    fn all_keys_of_a_warehouse_map_to_its_partition() {
        let p = tpcc_partitioner(8);
        use h2tap_oltp::Partitioner;
        for w in 0..8i64 {
            for key in [
                keys::warehouse(w),
                keys::district(w, 10),
                keys::customer(w, 10, 119),
                keys::item(w, 1999),
                keys::stock(w, 1999),
                keys::order(w, 10, 150_000),
                keys::order_line(w, 10, 150_000, 15),
            ] {
                assert_eq!(p.partition_of(TableId(0), key), PartitionId(w as u32), "key {key}");
                assert!(key < (w + 1) * WAREHOUSE_STRIDE, "key {key} overflows the warehouse stride");
            }
        }
    }

    #[test]
    fn draw_produces_valid_parameters() {
        let generator = NewOrderGenerator::new(standalone_tables(), TpccConfig::default(), 4);
        let mut rng = SplitMixRng::new(5);
        let mut remote_lines = 0usize;
        let mut total_lines = 0usize;
        for _ in 0..2000 {
            let p = generator.draw(2, &mut rng);
            assert!((1..=10).contains(&p.d));
            assert!((5..=15).contains(&p.items.len()));
            for (i, supply_w, qty) in &p.items {
                assert!((1..=2000).contains(i));
                assert!((0..4).contains(supply_w));
                assert!((1..=10).contains(qty));
                total_lines += 1;
                if *supply_w != 2 {
                    remote_lines += 1;
                }
            }
        }
        let remote_fraction = remote_lines as f64 / total_lines as f64;
        assert!((0.002..0.03).contains(&remote_fraction), "remote line fraction {remote_fraction}");
    }
}
