//! Quickstart: create a table, run transactions on the task-parallel (CPU)
//! archipelago and an analytical query on the data-parallel (GPU)
//! archipelago, all over one copy of the data in shared memory.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use caldera::{Caldera, CalderaConfig};
use caldera_repro as _;
use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, ScanAggQuery, Schema, Value};
use h2tap_storage::Layout;
use std::sync::Arc;

fn main() {
    // 1. Build the engine: 4 OLTP workers (= 4 partitions), the GTX 980 GPU
    //    model, PAX storage, one snapshot per analytical query.
    let mut builder = Caldera::builder(CalderaConfig::with_workers(4));
    let accounts = builder
        .create_table(
            "accounts",
            Schema::new(vec![
                h2tap_common::Attribute::new("id", AttrType::Int64),
                h2tap_common::Attribute::new("region", AttrType::Int32),
                h2tap_common::Attribute::new("balance", AttrType::Float64),
            ])
            .unwrap(),
            Layout::PAPER_PAX,
        )
        .unwrap();
    for id in 0..100_000i64 {
        builder.load(accounts, id, &[Value::Int64(id), Value::Int32((id % 50) as i32), Value::Float64(100.0)]).unwrap();
    }
    let caldera = builder.start().unwrap();

    // 2. OLTP: transfer money between two accounts. Account 1 lives in
    //    partition 1; hosting the transaction on partition 0 makes the second
    //    access remote, exercising the lock-request/grant message protocol.
    caldera
        .execute_txn_on(
            PartitionId(0),
            Arc::new(move |ctx| {
                let mut from = ctx.read_for_update(accounts, 0)?;
                let mut to = ctx.read_for_update(accounts, 1)?;
                from[2] = Value::Float64(from[2].as_f64().unwrap() - 25.0);
                to[2] = Value::Float64(to[2].as_f64().unwrap() + 25.0);
                ctx.update(accounts, 0, from)?;
                ctx.update(accounts, 1, to)
            }),
        )
        .unwrap();

    // 3. OLAP: total balance of regions 0-9, computed by the GPU model over a
    //    transactionally consistent snapshot.
    let query =
        ScanAggQuery { predicates: vec![Predicate::between(1, 0.0, 9.0)], aggregate: AggExpr::SumColumns(vec![2]) };
    let outcome = caldera.run_olap(accounts, &query).unwrap();
    // Every loaded row counts, the partial tail pages of all four
    // partitions included, and the transfer moved money within the regions.
    assert_eq!((outcome.qualifying_rows, outcome.value), (20_000, 2_000_000.0), "the load lost or misplaced rows");
    println!(
        "regions 0-9 hold {:.2} across {} accounts (GPU time {}, {} kernels)",
        outcome.value,
        outcome.qualifying_rows,
        outcome.time,
        outcome.kernels.len()
    );

    let stats = caldera.shutdown();
    println!(
        "committed {} transactions, {} remote lock requests, {} pages shadow-copied, {} snapshots",
        stats.oltp.committed, stats.oltp.remote_requests, stats.cow.pages_copied, stats.snapshots_taken
    );
}
