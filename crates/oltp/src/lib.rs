//! Caldera's OLTP runtime: message-passing transactions without cache
//! coherence.
//!
//! "Caldera scales OLTP workloads within the task-parallel archipelago by
//! using message passing-based parallelism (that relies on fast core-to-core
//! messaging) rather than shared-memory parallelism (that relies on cache
//! coherence)." Concretely:
//!
//! * one worker thread per core, each owning one horizontal partition, its
//!   [`locktable::LockTable`] and its [`index::PartitionIndex`] ([`worker`]),
//! * transactions are hosted by a client worker and programmed against a
//!   [`txn::TxnCtx`]: local records are locked by direct function calls,
//!   remote records through the lock-request / grant / release protocol of
//!   [`messages`],
//! * conflicts use no-wait resolution (abort and retry), which keeps the
//!   protocol deadlock-free; all writes are deferred to commit so aborts need
//!   no undo,
//! * the explicit cache write-back points of the paper (server before
//!   granting, client before releasing) are tracked as coherence events so
//!   experiments can report them; their correctness is validated against the
//!   `h2tap-mpmsg` software cache model in the integration tests.
//!
//! [`runtime::OltpRuntime`] spawns the fleet, accepts submitted transactions
//! and drives benchmark windows for the evaluation figures.

pub mod index;
pub mod locktable;
pub mod messages;
pub mod runtime;
pub mod txn;
pub mod worker;

pub use index::PartitionIndex;
pub use locktable::LockTable;
pub use messages::{LockMode, OltpMsg, TxnToken};
pub use runtime::{
    BenchmarkWindow, ModuloPartitioner, OltpConfig, OltpRuntime, OltpStats, Partitioner, PartitionerKind,
    StridePartitioner, TxnGenerator, TxnProc, WorkerCounters,
};
pub use txn::TxnCtx;
pub use worker::TxnOutcome;

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AttrType, PartitionId, Schema, TableId, Value};
    use h2tap_storage::{Database, Layout};
    use std::sync::Arc;
    use std::time::Duration;

    /// Builds a database with `workers` partitions, one table of two int64
    /// columns (key, balance), `rows_per_partition` rows per partition keyed
    /// round-robin (key % workers == partition), and the matching indexes.
    fn setup(workers: usize, rows_per_partition: u64) -> (Arc<Database>, TableId, Vec<PartitionIndex>) {
        let db = Database::new(workers);
        let table = db.create_table("accounts", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        let mut indexes = vec![PartitionIndex::new(); workers];
        for (p, index) in indexes.iter_mut().enumerate() {
            for i in 0..rows_per_partition {
                let key = (i * workers as u64 + p as u64) as i64;
                let rid = db.insert(PartitionId(p as u32), table, &[Value::Int64(key), Value::Int64(100)]).unwrap();
                index.insert(table, key, rid.row);
            }
        }
        (db, table, indexes)
    }

    fn runtime(workers: usize, rows: u64) -> (OltpRuntime, TableId) {
        let (db, table, indexes) = setup(workers, rows);
        let rt = OltpRuntime::start(
            db,
            OltpConfig { workers, ..OltpConfig::default() },
            Arc::new(ModuloPartitioner::new(workers)),
            indexes,
            None,
        )
        .unwrap();
        (rt, table)
    }

    #[test]
    fn local_read_and_update_commit() {
        let (rt, table) = runtime(2, 16);
        // Key 0 lives in partition 0; run the transaction there.
        rt.execute(
            PartitionId(0),
            Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(table, 0)?;
                rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 11);
                ctx.update(table, 0, rec)
            }),
        )
        .unwrap();
        // Verify from another transaction.
        rt.execute(
            PartitionId(0),
            Arc::new(move |ctx| {
                let rec = ctx.read(table, 0)?;
                assert_eq!(rec[1], Value::Int64(111));
                Ok(())
            }),
        )
        .unwrap();
        let stats = rt.shutdown();
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.remote_requests, 0);
    }

    #[test]
    fn remote_read_uses_the_message_protocol() {
        let (rt, table) = runtime(2, 16);
        // Key 1 lives in partition 1; host the transaction on partition 0.
        rt.execute(
            PartitionId(0),
            Arc::new(move |ctx| {
                let rec = ctx.read(table, 1)?;
                assert_eq!(rec[0], Value::Int64(1));
                assert_eq!(ctx.remote_lock_count(), 1);
                Ok(())
            }),
        )
        .unwrap();
        let stats = rt.shutdown();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.remote_requests, 1);
        assert!(stats.messages >= 2, "request plus release should flow through the fabric");
    }

    #[test]
    fn remote_update_is_visible_after_commit() {
        let (rt, table) = runtime(4, 8);
        rt.execute(
            PartitionId(0),
            Arc::new(move |ctx| {
                // Keys 1, 2, 3 live on partitions 1, 2, 3.
                for key in 1..4 {
                    let mut rec = ctx.read_for_update(table, key)?;
                    rec[1] = Value::Int64(1000 + key);
                    ctx.update(table, key, rec)?;
                }
                Ok(())
            }),
        )
        .unwrap();
        for key in 1..4i64 {
            rt.execute(
                PartitionId(key as u32),
                Arc::new(move |ctx| {
                    let rec = ctx.read(table, key)?;
                    assert_eq!(rec[1], Value::Int64(1000 + key));
                    Ok(())
                }),
            )
            .unwrap();
        }
        rt.shutdown();
    }

    /// A local transaction that meets a lock held by a remote client must
    /// commit once that client releases: the release is a message, so the
    /// retry loop has to serve the mailbox between attempts.
    #[test]
    fn a_local_transaction_commits_once_a_remote_client_releases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let (rt, table) = runtime(2, 16);
        // Worker 1 takes key 0 (partition 0) remotely and holds it until told.
        let (locked_tx, locked_rx) = crossbeam_channel::bounded::<()>(1);
        let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
        let holder = rt
            .submit(
                PartitionId(1),
                Arc::new(move |ctx| {
                    ctx.read_for_update(table, 0)?;
                    locked_tx.send(()).expect("the test waits for the lock");
                    release_rx.recv().expect("the test tells the holder when to release");
                    Ok(())
                }),
            )
            .unwrap();
        locked_rx.recv_timeout(Duration::from_secs(10)).expect("the remote client took the lock");
        // Worker 0's own transaction meets that lock. After its first
        // attempt it lets the holder go and waits for the holder's commit,
        // so the release message is in worker 0's mailbox before the retry.
        let (met_tx, met_rx) = crossbeam_channel::bounded::<()>(1);
        let (released_tx, released_rx) = crossbeam_channel::bounded::<()>(1);
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let local = rt
            .submit(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let outcome = ctx.read_for_update(table, 0).map(|_| ());
                    if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                        assert!(outcome.is_err(), "the first attempt meets the remote client's lock");
                        met_tx.send(()).expect("the test waits for the conflict");
                        released_rx.recv().expect("the test reports the holder's commit");
                    }
                    outcome
                }),
            )
            .unwrap();
        met_rx.recv_timeout(Duration::from_secs(10)).expect("the local transaction met the lock");
        release_tx.send(()).unwrap();
        assert_eq!(holder.recv_timeout(Duration::from_secs(10)).expect("holder reply"), TxnOutcome::Committed);
        released_tx.send(()).unwrap();
        assert_eq!(local.recv_timeout(Duration::from_secs(10)).expect("local reply"), TxnOutcome::Committed);
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one conflict, then the retry that saw the release");
        let stats = rt.shutdown();
        assert_eq!((stats.committed, stats.aborted, stats.retries), (2, 0, 1));
    }

    #[test]
    fn unknown_keys_abort_without_retry_storm() {
        let (rt, table) = runtime(2, 4);
        let err = rt.execute(PartitionId(0), Arc::new(move |ctx| ctx.read(table, 999_999).map(|_| ())));
        assert!(err.is_err());
        let stats = rt.shutdown();
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.aborted, 1);
    }

    #[test]
    fn inserts_become_visible_and_indexed() {
        let (rt, table) = runtime(2, 4);
        rt.execute(
            PartitionId(0),
            Arc::new(move |ctx| {
                // Key 100 maps to partition 0 (100 % 2 == 0).
                ctx.insert_local(table, 100, vec![Value::Int64(100), Value::Int64(5)])
            }),
        )
        .unwrap();
        rt.execute(
            PartitionId(1),
            Arc::new(move |ctx| {
                // Read it remotely from partition 1.
                let rec = ctx.read(table, 100)?;
                assert_eq!(rec[1], Value::Int64(5));
                Ok(())
            }),
        )
        .unwrap();
        rt.shutdown();
    }

    #[test]
    fn duplicate_insert_fails() {
        let (rt, table) = runtime(2, 4);
        let err = rt.execute(
            PartitionId(0),
            Arc::new(move |ctx| ctx.insert_local(table, 0, vec![Value::Int64(0), Value::Int64(0)])),
        );
        assert!(err.is_err());
        rt.shutdown();
    }

    #[test]
    fn concurrent_increments_from_all_workers_are_serializable() {
        let workers = 4;
        let (rt, table) = runtime(workers, 8);
        // Every worker increments the same remote-ish key 40 times; the final
        // balance must reflect every committed increment exactly once.
        let per_worker = 40;
        let mut receivers = Vec::new();
        for w in 0..workers {
            for _ in 0..per_worker {
                let rx = rt
                    .submit(
                        PartitionId(w as u32),
                        Arc::new(move |ctx| {
                            let mut rec = ctx.read_for_update(table, 3)?;
                            rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
                            ctx.update(table, 3, rec)
                        }),
                    )
                    .unwrap();
                receivers.push(rx);
            }
        }
        let mut committed = 0;
        for rx in receivers {
            match rx.recv_timeout(Duration::from_secs(20)).expect("worker reply") {
                TxnOutcome::Committed => committed += 1,
                TxnOutcome::Aborted(_) => {}
            }
        }
        // Check the final balance matches the number of commits.
        rt.execute(
            PartitionId(3),
            Arc::new(move |ctx| {
                let rec = ctx.read(table, 3)?;
                assert_eq!(rec[1].as_i64().unwrap(), 100 + committed);
                Ok(())
            }),
        )
        .unwrap();
        let stats = rt.shutdown();
        assert!(stats.committed >= committed as u64);
        assert!(committed > 0);
    }

    #[test]
    fn benchmark_mode_reports_throughput() {
        struct LocalRmw {
            table: TableId,
            workers: u64,
            rows: u64,
        }
        impl TxnGenerator for LocalRmw {
            fn next_txn(&self, home: PartitionId, _seq: u64, rng: &mut h2tap_common::rng::SplitMixRng) -> TxnProc {
                let table = self.table;
                let key = (rng.next_below(self.rows) * self.workers + u64::from(home.0)) as i64;
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(table, key)?;
                    rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
                    ctx.update(table, key, rec)
                })
            }
        }
        let workers = 2;
        let (db, table, indexes) = setup(workers, 64);
        let rt = OltpRuntime::start(
            db,
            OltpConfig::with_workers(workers),
            Arc::new(ModuloPartitioner::new(workers)),
            indexes,
            Some(Arc::new(LocalRmw { table, workers: workers as u64, rows: 64 })),
        )
        .unwrap();
        let window = rt.run_for(Duration::from_millis(150)).unwrap();
        assert!(window.stats.committed > 100, "committed {}", window.stats.committed);
        assert!(window.throughput_tps > 1000.0, "tps {}", window.throughput_tps);
        rt.shutdown();
    }

    #[test]
    fn runtime_rejects_mismatched_partition_count() {
        let (db, _, indexes) = setup(2, 4);
        let err =
            OltpRuntime::start(db, OltpConfig::with_workers(3), Arc::new(ModuloPartitioner::new(3)), indexes, None);
        assert!(err.is_err());
    }

    #[test]
    fn partitioner_kind_builds_the_matching_partitioner() {
        let modulo = PartitionerKind::Modulo.build(4);
        assert_eq!(modulo.partition_of(TableId(0), 6), PartitionId(2));
        let stride = PartitionerKind::Stride { stride: 100 }.build(4);
        assert_eq!(stride.partition_of(TableId(0), 250), PartitionId(2));
        assert_eq!(PartitionerKind::default(), PartitionerKind::Modulo);
    }

    #[test]
    fn stride_partitioner_round_trips() {
        let p = StridePartitioner::new(1_000_000, 8);
        let key = p.encode(PartitionId(5), 123);
        assert_eq!(p.partition_of(TableId(0), key), PartitionId(5));
        let m = ModuloPartitioner::new(8);
        assert_eq!(m.partition_of(TableId(0), 17), PartitionId(1));
    }
}
