//! End-to-end integration tests spanning the whole engine: OLTP + snapshots +
//! GPU OLAP + baselines over the paper's workloads.

use caldera::{Caldera, CalderaConfig, SnapshotPolicy};
use h2tap_common::{PartitionId, Value};
use h2tap_oltp::OltpConfig;
use h2tap_storage::Layout;
use h2tap_workloads::multisite::{
    load_multisite_caldera, multisite_partitioner, CalderaMultisiteGenerator, MultisiteConfig,
};
use h2tap_workloads::tpcc::{self, load_tpcc, tpcc_partitioner, NewOrderGenerator, TpccConfig};
use h2tap_workloads::tpch::{self, q6};
use h2tap_workloads::ycsb::{YcsbConfig, YcsbGenerator};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn q6_matches_the_scalar_reference_on_all_layouts() {
    let rows = 40_000u64;
    let expected = tpch::q6_reference(rows, 7);
    for layout in [Layout::Dsm, Layout::PAPER_PAX, Layout::Nsm] {
        let mut builder = Caldera::builder(CalderaConfig::with_workers(2));
        let table = tpch::load_lineitem(&mut builder, layout, rows, 7).unwrap();
        let caldera = builder.start().unwrap();
        let outcome = caldera.run_olap(table, &q6()).unwrap();
        assert!(
            (outcome.value - expected).abs() < 1e-6 * expected.abs().max(1.0),
            "{layout:?}: {} vs {expected}",
            outcome.value
        );
        caldera.shutdown();
    }
}

#[test]
fn olap_queries_see_exactly_the_committed_updates_of_their_snapshot() {
    let rows = 20_000u64;
    let workers = 2usize;
    let mut config = CalderaConfig::with_workers(workers);
    config.snapshot_policy = SnapshotPolicy::PerQuery;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, rows, 13).unwrap();
    let caldera = builder.start().unwrap();

    // Sum of quantity before any update.
    let sum_quantity =
        h2tap_common::ScanAggQuery::aggregate_only(h2tap_common::AggExpr::SumColumns(vec![tpch::columns::QUANTITY]));
    let before = caldera.run_olap(table, &sum_quantity).unwrap().value;

    // Commit 100 transactions, each adding exactly 1.0 to one record's
    // quantity, hosted round-robin over the workers.
    for key in 0..100i64 {
        caldera
            .execute_txn_on(
                PartitionId((key as usize % workers) as u32),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(table, key)?;
                    let q = rec[tpch::columns::QUANTITY].as_f64().unwrap();
                    rec[tpch::columns::QUANTITY] = Value::Float64(q + 1.0);
                    ctx.update(table, key, rec)
                }),
            )
            .unwrap();
    }
    let after = caldera.run_olap(table, &sum_quantity).unwrap().value;
    assert!((after - before - 100.0).abs() < 1e-6, "before {before} after {after}");
    let stats = caldera.shutdown();
    assert_eq!(stats.oltp.committed, 100);
    assert!(stats.cow.pages_copied > 0, "updates after a snapshot must shadow-copy");
}

#[test]
fn concurrent_oltp_and_olap_preserve_snapshot_consistency() {
    // While the YCSB generator hammers the table, every OLAP query must see a
    // quantity sum a whole number of transactions away from the initial sum:
    // each RMW adds exactly 1.0, and a committed transaction adds exactly
    // `ops_per_txn` of them (a re-read key sees the transaction's own write).
    // Anything else is a snapshot that cut through a commit.
    let rows = 30_000u64;
    let workers = 2usize;
    let mut config = CalderaConfig::with_workers(workers);
    config.oltp = OltpConfig::with_workers(workers);
    config.snapshot_policy = SnapshotPolicy::PerQuery;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, rows, 3).unwrap();
    let initial = {
        // Reference initial sum from the generator itself.
        let mut rng = h2tap_common::rng::SplitMixRng::new(3);
        (0..rows).map(|k| tpch::lineitem_row(k, &mut rng)[tpch::columns::QUANTITY].as_f64().unwrap()).sum::<f64>()
    };
    let ycsb = YcsbConfig::paper_default(table, rows, workers as u64);
    let per_txn = ycsb.ops_per_txn as f64;
    builder.set_generator(Arc::new(YcsbGenerator::new(ycsb)));
    let caldera = builder.start().unwrap();
    let sum_quantity =
        h2tap_common::ScanAggQuery::aggregate_only(h2tap_common::AggExpr::SumColumns(vec![tpch::columns::QUANTITY]));

    let caldera_ref = &caldera;
    std::thread::scope(|scope| {
        let oltp = scope.spawn(move || caldera_ref.run_oltp_window(Duration::from_millis(400)));
        for _ in 0..6 {
            let value = caldera_ref.run_olap(table, &sum_quantity).unwrap().value;
            let delta = value - initial;
            assert!(delta >= -1e-6, "sum went backwards: {delta}");
            let txns = delta / per_txn;
            assert!(
                (txns - txns.round()).abs() < 1e-6,
                "snapshot exposed a part of a transaction: the sum moved by {delta}, not a multiple of {per_txn}"
            );
        }
        oltp.join().unwrap().unwrap();
    });
    caldera.shutdown();
}

#[test]
fn tpcc_neworder_runs_and_preserves_order_counts() {
    let warehouses = 2usize;
    let cfg = TpccConfig { customers_per_district: 30, items: 200, ..TpccConfig::default() };
    let mut config = CalderaConfig::with_workers(warehouses);
    config.oltp.seed = 99;
    let mut builder = Caldera::builder(config);
    builder.set_partitioner(Arc::new(tpcc_partitioner(warehouses))).unwrap();
    let tables = load_tpcc(&mut builder, warehouses, cfg).unwrap();
    builder.set_generator(Arc::new(NewOrderGenerator::new(tables, cfg, warehouses)));
    let caldera = builder.start().unwrap();
    let window = caldera.run_oltp_window(Duration::from_millis(300)).unwrap();
    assert!(window.stats.committed > 50, "committed {}", window.stats.committed);
    // Every committed NewOrder inserted exactly one ORDERS and one NEW_ORDER
    // record.
    let db = Arc::clone(caldera.database());
    let stats = caldera.shutdown();
    let orders = db.row_count(tables.orders).unwrap();
    let new_orders = db.row_count(tables.new_order).unwrap();
    assert_eq!(orders, stats.oltp.committed, "orders {} committed {}", orders, stats.oltp.committed);
    assert_eq!(new_orders, stats.oltp.committed);
    // Order lines: between 5 and 15 per committed order.
    let order_lines = db.row_count(tables.order_line).unwrap();
    assert!(order_lines >= 5 * orders && order_lines <= 15 * orders);
}

#[test]
fn multisite_workload_commits_at_every_percentage() {
    let partitions = 2usize;
    let rows_per_partition = 5_000u64;
    for pct in [0u32, 50, 100] {
        let mut config = CalderaConfig::with_workers(partitions);
        config.oltp.seed = 0xAB;
        let mut builder = Caldera::builder(config);
        builder.set_partitioner(Arc::new(multisite_partitioner(partitions))).unwrap();
        let table = load_multisite_caldera(&mut builder, rows_per_partition, partitions).unwrap();
        let cfg = MultisiteConfig::paper(table, rows_per_partition, partitions, pct);
        builder.set_generator(Arc::new(CalderaMultisiteGenerator::new(cfg)));
        let caldera = builder.start().unwrap();
        let window = caldera.run_oltp_window(Duration::from_millis(200)).unwrap();
        assert!(window.stats.committed > 100, "pct {pct}: committed {}", window.stats.committed);
        let stats = caldera.shutdown();
        if pct == 0 {
            assert_eq!(stats.oltp.remote_requests, 0, "single-site transactions must not message");
        } else {
            assert!(stats.oltp.remote_requests > 0, "multi-site transactions must message");
        }
    }
}

#[test]
fn a_one_core_olap_grant_leaves_transactions_running() {
    let mut config = CalderaConfig::with_workers(3);
    config.olap_cpu_cores = 1;
    let mut builder = Caldera::builder(config);
    let table = builder
        .create_table("t", h2tap_common::Schema::homogeneous("c", 2, h2tap_common::AttrType::Int64), Layout::Dsm)
        .unwrap();
    for k in 0..30 {
        builder.load(table, k, &[Value::Int64(k), Value::Int64(0)]).unwrap();
    }
    let caldera = builder.start().unwrap();
    caldera.execute_txn_on(PartitionId(0), Arc::new(move |ctx| ctx.read(table, 0).map(|_| ()))).unwrap();
    assert_eq!(caldera.shutdown().oltp.committed, 1);
}

#[test]
fn tpcc_key_encoding_routes_every_access_to_the_right_partition() {
    // A NewOrder hosted on warehouse 1 must never issue remote requests when
    // all its items are home-supplied.
    let warehouses = 2usize;
    let cfg = TpccConfig { customers_per_district: 10, items: 50, remote_line_pct: 0, ..TpccConfig::default() };
    let mut builder = Caldera::builder(CalderaConfig::with_workers(warehouses));
    builder.set_partitioner(Arc::new(tpcc_partitioner(warehouses))).unwrap();
    let tables = load_tpcc(&mut builder, warehouses, cfg).unwrap();
    let caldera = builder.start().unwrap();
    caldera
        .execute_txn_on(
            PartitionId(1),
            Arc::new(move |ctx| {
                let _ = ctx.read(tables.warehouse, tpcc::keys::warehouse(1))?;
                let _ = ctx.read(tables.item, tpcc::keys::item(1, 7))?;
                let mut stock = ctx.read_for_update(tables.stock, tpcc::keys::stock(1, 7))?;
                stock[2] = Value::Int64(5);
                ctx.update(tables.stock, tpcc::keys::stock(1, 7), stock)?;
                assert_eq!(ctx.remote_lock_count(), 0);
                Ok(())
            }),
        )
        .unwrap();
    let stats = caldera.shutdown();
    assert_eq!(stats.oltp.remote_requests, 0);
}
