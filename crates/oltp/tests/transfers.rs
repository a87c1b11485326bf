//! A snapshot is a transactionally consistent cut: while two OLTP workers
//! move money between accounts — within a partition and across the two,
//! some of them into accounts the same transaction opens — every snapshot
//! taken meanwhile holds the opening total exactly, and so does one taken
//! before the window and held across it. Each layout runs with every
//! partition spanning more than two page segments.
//!
//! Money moves only between 250 accounts per partition, spread
//! evenly over its rows, and the accounts the transfers open, so each
//! snapshot taken during the window is checked by reading those rows; the
//! held snapshot and the last one are summed whole.

use h2tap_common::rng::SplitMixRng;
use h2tap_common::{AttrType, PartitionId, Schema, TableId, Value};
use h2tap_oltp::{ModuloPartitioner, OltpConfig, OltpRuntime, PartitionIndex, TxnGenerator, TxnProc};
use h2tap_storage::{Database, Layout, Snapshot, SEGMENT_PAGES};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
const OPENING_BALANCE: i64 = 1_000;
const SNAPSHOTS: usize = 1_000;
/// Accounts per partition that transfers draw from.
const ACTIVE: u64 = 250;

/// Transfers from a local active account to a random active one: every
/// other transaction crosses partitions (key `k` lives on partition
/// `k % WORKERS`), and every eighth moves the money into an account it
/// opens in its home partition.
struct Transfers {
    table: TableId,
    /// Accounts each partition opened with.
    accounts: u64,
    /// Rows between two active accounts of a partition.
    stride: u64,
}

impl TxnGenerator for Transfers {
    fn next_txn(&self, home: PartitionId, seq: u64, rng: &mut SplitMixRng) -> TxnProc {
        let (table, accounts, stride) = (self.table, self.accounts, self.stride);
        let key = |i: u64, partition: u64| (i * WORKERS as u64 + partition) as i64;
        let home = u64::from(home.0);
        let from = key(rng.next_below(ACTIVE) * stride, home);
        let to = key(rng.next_below(ACTIVE) * stride, (home + seq % 2) % WORKERS as u64);
        // `seq` numbers the worker's transactions, so the key is fresh.
        let opened = (seq % 8 == 7).then(|| key(accounts + seq, home));
        let amount = 1 + rng.next_below(50) as i64;
        Arc::new(move |ctx| {
            if from == to {
                return Ok(());
            }
            let mut record = ctx.read_for_update(table, from)?;
            let balance = record[1].as_i64().unwrap_or_default();
            record[1] = Value::Int64(balance - amount);
            ctx.update(table, from, record)?;
            if let Some(opened) = opened {
                return ctx.insert_local(table, opened, vec![Value::Int64(opened), Value::Int64(amount)]);
            }
            let mut record = ctx.read_for_update(table, to)?;
            let balance = record[1].as_i64().unwrap_or_default();
            record[1] = Value::Int64(balance + amount);
            ctx.update(table, to, record)
        })
    }
}

#[test]
fn no_snapshot_cuts_through_a_transfer() {
    for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
        transfers_keep_their_total(layout);
    }
}

fn transfers_keep_their_total(layout: Layout) {
    let db = Database::new(WORKERS);
    let schema = Schema::homogeneous("c", 2, AttrType::Int64);
    // Two full segments and half a page more per partition.
    let per_page = layout.rows_per_page(&schema) as u64;
    let accounts = 2 * SEGMENT_PAGES as u64 * per_page + per_page / 2;
    let table = db.create_table("accounts", schema, layout).unwrap();
    let mut indexes = vec![PartitionIndex::new(); WORKERS];
    for (p, index) in indexes.iter_mut().enumerate() {
        let keys: Vec<i64> = (0..accounts).map(|i| (i * WORKERS as u64 + p as u64) as i64).collect();
        let records: Vec<[Value; 2]> =
            keys.iter().map(|&key| [Value::Int64(key), Value::Int64(OPENING_BALANCE)]).collect();
        let inserts: Vec<_> = records.iter().map(|record| (PartitionId(p as u32), table, &record[..])).collect();
        for (key, rid) in keys.iter().zip(db.commit(&[], &inserts).unwrap()) {
            index.insert(table, *key, rid.row);
        }
    }
    let stride = accounts / ACTIVE;
    let total = OPENING_BALANCE * (accounts * WORKERS as u64) as i64;
    let sum = |snapshot: &Snapshot| -> i64 {
        snapshot.table(table).unwrap().column(1).into_iter().map(|cell| cell as i64).sum()
    };
    // The active and opened accounts' balances, plus the opening balance
    // of every account no transfer touches.
    let moved = |snapshot: &Snapshot| -> i64 {
        let frozen = snapshot.table(table).unwrap();
        let (mut sum, mut start, mut cells) = (0, 0, Vec::new());
        for &rows in frozen.partition_rows() {
            let mut read = |rows: std::ops::Range<u64>| {
                cells.resize((rows.end - rows.start) as usize, 0);
                frozen.column_into(1, (start + rows.start) as usize..(start + rows.end) as usize, &mut cells);
                sum += cells.iter().map(|&cell| cell as i64).sum::<i64>();
            };
            for i in 0..ACTIVE {
                read(i * stride..i * stride + 1);
            }
            read(accounts..rows);
            sum += OPENING_BALANCE * (accounts - ACTIVE) as i64;
            start += rows;
        }
        sum
    };
    let rt = OltpRuntime::start(
        Arc::clone(&db),
        OltpConfig::with_workers(WORKERS),
        Arc::new(ModuloPartitioner::new(WORKERS)),
        indexes,
        Some(Arc::new(Transfers { table, accounts, stride })),
    )
    .unwrap();

    let held = db.snapshot();
    let window_over = AtomicBool::new(false);
    let (mut taken, mut torn) = (0usize, 0usize);
    let window = std::thread::scope(|scope| {
        let oltp = scope.spawn(|| {
            let window = rt.run_for(Duration::from_millis(300));
            window_over.store(true, Ordering::Release);
            window
        });
        while taken < SNAPSHOTS || !window_over.load(Ordering::Acquire) {
            torn += usize::from(moved(&db.snapshot()) != total);
            taken += 1;
        }
        oltp.join().unwrap().unwrap()
    });
    let stats = rt.shutdown();
    assert!(
        window.stats.committed > 0 && stats.remote_requests > 0,
        "{layout:?}: the transfers ran, across partitions too"
    );
    let last = db.snapshot();
    let rows = last.table(table).unwrap().partition_rows().to_vec();
    assert!(rows.iter().all(|&r| r > accounts), "{layout:?}: both partitions opened accounts ({rows:?})");
    assert_eq!(torn, 0, "{layout:?}: {torn} of {taken} snapshots cut through a transfer");
    assert_eq!(sum(&held), total, "{layout:?}: the snapshot held across the window");
    assert_eq!(sum(&last), total, "{layout:?}: after the window");
    assert_eq!(moved(&last), total, "{layout:?}: only active and opened accounts changed");
}
