//! A snapshot is a transactionally consistent cut: while two OLTP workers
//! move money between accounts — within a partition and across the two —
//! every snapshot taken meanwhile holds the opening total exactly.

use h2tap_common::rng::SplitMixRng;
use h2tap_common::{AttrType, PartitionId, Schema, TableId, Value};
use h2tap_oltp::{ModuloPartitioner, OltpConfig, OltpRuntime, PartitionIndex, TxnGenerator, TxnProc};
use h2tap_storage::{Database, Layout};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
/// Several PAX pages per partition.
const ROWS_PER_PARTITION: u64 = 2_000;
const OPENING_BALANCE: i64 = 1_000;
const SNAPSHOTS: usize = 1_000;

/// Transfers from a local account to a random one: every other transaction
/// crosses partitions (key `k` lives on partition `k % WORKERS`).
struct Transfers {
    table: TableId,
}

impl TxnGenerator for Transfers {
    fn next_txn(&self, home: PartitionId, seq: u64, rng: &mut SplitMixRng) -> TxnProc {
        let table = self.table;
        let account = |rng: &mut SplitMixRng, partition: u64| {
            (rng.next_below(ROWS_PER_PARTITION) * WORKERS as u64 + partition) as i64
        };
        let from = account(rng, u64::from(home.0));
        let to = account(rng, (u64::from(home.0) + seq % 2) % WORKERS as u64);
        let amount = 1 + rng.next_below(50) as i64;
        Arc::new(move |ctx| {
            if from == to {
                return Ok(());
            }
            for (key, delta) in [(from, -amount), (to, amount)] {
                let mut record = ctx.read_for_update(table, key)?;
                let balance = record[1].as_i64().unwrap_or_default();
                record[1] = Value::Int64(balance + delta);
                ctx.update(table, key, record)?;
            }
            Ok(())
        })
    }
}

#[test]
fn no_snapshot_cuts_through_a_transfer() {
    let db = Database::new(WORKERS);
    let table = db.create_table("accounts", Schema::homogeneous("c", 2, AttrType::Int64), Layout::PAPER_PAX).unwrap();
    let mut indexes = vec![PartitionIndex::new(); WORKERS];
    for (p, index) in indexes.iter_mut().enumerate() {
        for i in 0..ROWS_PER_PARTITION {
            let key = (i * WORKERS as u64 + p as u64) as i64;
            let rid =
                db.insert(PartitionId(p as u32), table, &[Value::Int64(key), Value::Int64(OPENING_BALANCE)]).unwrap();
            index.insert(table, key, rid.row);
        }
    }
    let total = OPENING_BALANCE * (ROWS_PER_PARTITION * WORKERS as u64) as i64;
    let rt = OltpRuntime::start(
        Arc::clone(&db),
        OltpConfig::with_workers(WORKERS),
        Arc::new(ModuloPartitioner::new(WORKERS)),
        indexes,
        Some(Arc::new(Transfers { table })),
    )
    .unwrap();

    let window_over = AtomicBool::new(false);
    let (mut taken, mut torn) = (0usize, 0usize);
    let window = std::thread::scope(|scope| {
        let oltp = scope.spawn(|| {
            let window = rt.run_for(Duration::from_millis(300));
            window_over.store(true, Ordering::Release);
            window
        });
        while taken < SNAPSHOTS || !window_over.load(Ordering::Acquire) {
            let snapshot = db.snapshot();
            let sum: i64 = snapshot.table(table).unwrap().column(1).into_iter().map(|cell| cell as i64).sum();
            torn += usize::from(sum != total);
            taken += 1;
        }
        oltp.join().unwrap().unwrap()
    });
    let stats = rt.shutdown();
    assert!(window.stats.committed > 0 && stats.remote_requests > 0, "the transfers ran, across partitions too");
    assert_eq!(torn, 0, "{torn} of {taken} snapshots cut through a transfer");
}
