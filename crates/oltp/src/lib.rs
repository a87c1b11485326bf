//! Caldera's OLTP runtime: message-passing transactions without cache
//! coherence.
//!
//! "Caldera scales OLTP workloads within the task-parallel archipelago by
//! using message passing-based parallelism (that relies on fast core-to-core
//! messaging) rather than shared-memory parallelism (that relies on cache
//! coherence)." Concretely:
//!
//! * one worker thread per core, each owning one horizontal partition, its
//!   [`locktable::LockTable`] and its [`index::PartitionIndex`] — per table a
//!   direct `u32` slot window over the dense keys and a `BTreeMap` spill for
//!   the rest ([`worker`]),
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
//! and drives benchmark windows for the evaluation figures. It talks to a
//! worker the way workers talk to each other — one message to the worker's
//! one mailbox — so an idle worker blocks there and a request costs one hop.

#![forbid(unsafe_code)]

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
    BenchmarkWindow, ModuloPartitioner, OltpConfig, OltpRuntime, OltpStats, Partitioner, StridePartitioner,
    TxnGenerator, TxnProc, WorkerCounters,
};
pub use txn::TxnCtx;
pub use worker::TxnOutcome;

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "these tests bound each wait for a worker's reply, and hold a worker busy for a while, so that a hung runtime fails the test instead of hanging it"
)]
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

    /// A write set the database rejects at commit is an abort, reported
    /// once and not retried, that leaves no row, no index entry and no lock.
    fn assert_rejected_at_commit(proc: TxnProc, table: TableId, probe_key: i64) {
        let (rt, _) = runtime(2, 4);
        let db = Arc::clone(rt.database());
        let before = (db.row_count(table).unwrap(), db.read(h2tap_common::RecordId::new(PartitionId(0), table, 0)));
        let outcome = rt.submit(PartitionId(0), proc).unwrap().recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(outcome, TxnOutcome::Aborted(h2tap_common::H2Error::Config(_))), "{outcome:?}");
        let after = (db.row_count(table).unwrap(), db.read(h2tap_common::RecordId::new(PartitionId(0), table, 0)));
        assert_eq!(before, after, "nothing was written");
        // No index entry: the key is still unknown. No lock: key 0 and key 1
        // are free for an update from either partition.
        let lookup = rt.execute(PartitionId(0), Arc::new(move |ctx| ctx.read(table, probe_key).map(drop)));
        assert!(matches!(lookup, Err(h2tap_common::H2Error::UnknownRecord(_))), "{lookup:?}");
        for home in [0, 1] {
            rt.execute(
                PartitionId(home),
                Arc::new(move |ctx| {
                    for key in [0, 1] {
                        let record = ctx.read_for_update(table, key)?;
                        ctx.update(table, key, record)?;
                    }
                    Ok(())
                }),
            )
            .unwrap();
        }
        let stats = rt.shutdown();
        assert_eq!((stats.aborted, stats.retries), (2, 0), "the rejected commit and the unknown key, neither retried");
        assert_eq!(stats.committed, 2);
    }

    #[test]
    fn a_wrong_arity_insert_aborts_at_commit() {
        let table = TableId(0);
        assert_rejected_at_commit(
            Arc::new(move |ctx| {
                // Key 100 maps to partition 0; the table has two columns.
                ctx.insert_local(table, 100, vec![Value::Int64(100)])
            }),
            table,
            100,
        );
    }

    #[test]
    fn a_wrong_type_update_aborts_at_commit() {
        let table = TableId(0);
        assert_rejected_at_commit(
            Arc::new(move |ctx| {
                // Key 0 is local, key 1 remote: the valid local update is
                // not applied either.
                let mut record = ctx.read_for_update(table, 0)?;
                record[1] = Value::Int64(7);
                ctx.update(table, 0, record)?;
                ctx.read_for_update(table, 1)?;
                ctx.update(table, 1, vec![Value::Int64(1), Value::Float64(0.5)])?;
                ctx.insert_local(table, 100, vec![Value::Int64(100), Value::Int64(5)])
            }),
            table,
            100,
        );
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

    /// Increments the balance of a uniformly chosen row of the home partition.
    struct LocalRmw {
        table: TableId,
        workers: u64,
        rows: u64,
    }

    impl TxnGenerator for LocalRmw {
        fn next_txn(&self, home: PartitionId, _seq: u64, rng: &mut h2tap_common::rng::SplitMixRng) -> TxnProc {
            let key = (rng.next_below(self.rows) * self.workers + u64::from(home.0)) as i64;
            increment(self.table, key)
        }
    }

    /// [`LocalRmw`], except that worker `on`'s `at`-th transaction first
    /// holds its worker for `hold`, and then takes it down if `dies`.
    struct Stalling {
        rmw: LocalRmw,
        on: PartitionId,
        at: u64,
        hold: Duration,
        dies: bool,
    }

    impl TxnGenerator for Stalling {
        fn next_txn(&self, home: PartitionId, seq: u64, rng: &mut h2tap_common::rng::SplitMixRng) -> TxnProc {
            let txn = self.rmw.next_txn(home, seq, rng);
            if (home, seq) != (self.on, self.at) {
                return txn;
            }
            let (hold, dies) = (self.hold, self.dies);
            Arc::new(move |ctx| {
                std::thread::sleep(hold);
                assert!(!dies, "a generated transaction that takes its worker down");
                txn(ctx)
            })
        }
    }

    /// Two workers over 64 rows each, with a [`LocalRmw`] generator.
    fn generating_runtime() -> OltpRuntime {
        generating_runtime_with(|rmw| Arc::new(rmw))
    }

    /// Two workers over 64 rows each, with the generator `wrap` makes of a
    /// [`LocalRmw`] over them.
    fn generating_runtime_with(wrap: impl FnOnce(LocalRmw) -> Arc<dyn TxnGenerator>) -> OltpRuntime {
        let workers = 2;
        let (db, table, indexes) = setup(workers, 64);
        OltpRuntime::start(
            db,
            OltpConfig::with_workers(workers),
            Arc::new(ModuloPartitioner::new(workers)),
            indexes,
            Some(wrap(LocalRmw { table, workers: workers as u64, rows: 64 })),
        )
        .unwrap()
    }

    /// A transaction adding one to the balance of `key`.
    fn increment(table: TableId, key: i64) -> TxnProc {
        Arc::new(move |ctx| {
            let mut rec = ctx.read_for_update(table, key)?;
            rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
            ctx.update(table, key, rec)
        })
    }

    #[test]
    fn benchmark_mode_reports_throughput() {
        let rt = generating_runtime();
        let window = rt.run_for(Duration::from_millis(150)).unwrap();
        assert!(window.stats.committed > 100, "committed {}", window.stats.committed);
        assert!(window.throughput_tps > 1000.0, "tps {}", window.throughput_tps);
        rt.shutdown();
    }

    #[test]
    fn an_idle_worker_wakes_once_per_message_and_not_otherwise() {
        let (rt, table) = runtime(2, 16);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(rt.stats().idle_wakeups, 0, "nobody sent anything, so nobody woke");
        // Each of these finds worker 0 with nothing to run: one message, one
        // return from its wait. Worker 1 hears nothing.
        let n = 25;
        for _ in 0..n {
            rt.execute(PartitionId(0), increment(table, 0)).unwrap();
        }
        let stats = rt.stats();
        assert_eq!((stats.submitted, stats.committed, stats.idle_wakeups), (n, n, n));
        assert_eq!(stats.messages, 0, "submissions are not lock traffic");
        rt.shutdown();
    }

    #[test]
    fn a_generator_window_wakes_blocked_workers_and_lets_them_sleep_again() {
        let rt = generating_runtime();
        let window = rt.run_for(Duration::from_millis(50)).unwrap();
        assert!(window.stats.committed > 0, "the start of the window reached workers blocked on an empty inbox");
        // The start found each worker idle; the end is each worker's own
        // deadline, which is not a wake-up.
        assert_eq!(window.stats.idle_wakeups, 2);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rt.stats().idle_wakeups, 2, "the window is over and nobody wakes");
        rt.shutdown();
    }

    /// A transaction that is still running at the window's deadline belongs
    /// to the window: `run_for` returns after it, with it counted, and
    /// nothing lands in the counters afterwards.
    #[test]
    fn a_window_counts_exactly_the_transactions_it_ran() {
        let hold = Duration::from_millis(100);
        let mut rt =
            generating_runtime_with(|rmw| Arc::new(Stalling { rmw, on: PartitionId(0), at: 0, hold, dies: false }));
        let window = rt.run_for(Duration::from_millis(40)).unwrap();
        let read = rt.stats();
        // The shutdown message wakes each idle worker once more; nothing else
        // may move.
        let stopped = OltpStats { idle_wakeups: read.idle_wakeups, ..rt.stop() };
        assert_eq!(read, stopped, "a transaction of the window landed after it");
        assert_eq!(window.stats, read, "the window is the runtime's whole history");
        assert!(window.elapsed >= hold, "the window ends when the held transaction does: {:?}", window.elapsed);
    }

    /// A worker that dies with its window open fails the window instead of
    /// leaving its share out of it, and the caller is not left waiting.
    #[test]
    fn a_worker_that_dies_in_a_window_fails_it() {
        let rt = generating_runtime_with(|rmw| {
            Arc::new(Stalling { rmw, on: PartitionId(1), at: 3, hold: Duration::from_millis(100), dies: true })
        });
        let (tx, rx) = crossbeam_channel::bounded(1);
        let caller =
            std::thread::spawn(move || tx.send(rt.run_for(Duration::from_millis(40)).map(|w| w.stats.committed)));
        let got = rx.recv_timeout(Duration::from_secs(10)).expect("run_for returned");
        assert!(matches!(got, Err(h2tap_common::H2Error::ChannelClosed(_))), "{got:?}");
        caller.join().expect("the caller").expect("the test listens");
    }

    /// A submission that reaches a worker while its transaction waits for a
    /// remote grant is read by that wait. It must be kept for later, and the
    /// grant behind it in the mailbox must still reach the waiting
    /// transaction first.
    #[test]
    fn a_submission_arriving_during_a_remote_wait_runs_after_the_waiting_transaction() {
        let (db, table, indexes) = setup(2, 16);
        // No scheduling delay in this test may look like a lost grant.
        let config = OltpConfig { workers: 2, remote_timeout: Duration::from_secs(60), ..OltpConfig::default() };
        let rt = OltpRuntime::start(db, config, Arc::new(ModuloPartitioner::new(2)), indexes, None).unwrap();
        // Worker 1 is kept inside a transaction, away from its mailbox.
        let (held_tx, held_rx) = crossbeam_channel::bounded::<()>(1);
        let (let_go_tx, let_go_rx) = crossbeam_channel::bounded::<()>(1);
        let holder = rt
            .submit(
                PartitionId(1),
                Arc::new(move |_ctx| {
                    held_tx.send(()).expect("the test waits for the holder");
                    let_go_rx.recv().expect("the test lets the holder go");
                    Ok(())
                }),
            )
            .unwrap();
        held_rx.recv_timeout(Duration::from_secs(10)).expect("worker 1 is busy");
        // Worker 0 asks worker 1 for key 1 and waits for a grant that cannot
        // come yet.
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (asking_tx, asking_rx) = crossbeam_channel::bounded::<()>(1);
        let first_order = Arc::clone(&order);
        let first = rt
            .submit(
                PartitionId(0),
                Arc::new(move |ctx| {
                    asking_tx.send(()).expect("the test waits for the request");
                    ctx.read(table, 1)?;
                    first_order.lock().unwrap().push("waited for the grant");
                    Ok(())
                }),
            )
            .unwrap();
        asking_rx.recv_timeout(Duration::from_secs(10)).expect("worker 0 is about to ask");
        // This lands in worker 0's mailbox ahead of the grant.
        let second_order = Arc::clone(&order);
        let second = rt
            .submit(
                PartitionId(0),
                Arc::new(move |_ctx| {
                    second_order.lock().unwrap().push("arrived meanwhile");
                    Ok(())
                }),
            )
            .unwrap();
        let_go_tx.send(()).unwrap();
        for reply in [holder, first, second] {
            assert_eq!(reply.recv_timeout(Duration::from_secs(10)).expect("reply"), TxnOutcome::Committed);
        }
        assert_eq!(*order.lock().unwrap(), ["waited for the grant", "arrived meanwhile"]);
        let stats = rt.shutdown();
        assert_eq!((stats.submitted, stats.committed, stats.aborted, stats.retries), (3, 3, 0, 0));
    }

    /// Clients flooding two workers whose transactions lock each other's
    /// records: were submissions allowed to fill the mailboxes, each worker
    /// would block sending its lock request to the other. The bound at
    /// `submit` makes the client wait instead.
    #[test]
    fn a_flood_of_submissions_blocks_the_submitter_not_the_workers() {
        use crate::runtime::SUBMIT_DEPTH;
        let per_worker = 10_000u64;
        let rows = 64u64;
        let (rt, table) = runtime(2, rows);
        // Submits `per_worker` transactions to worker `w`, each locking one
        // of its own rows and one of the other worker's. Half the rows of a
        // partition are for its owner's transactions and half for the other
        // worker's, so no two transactions ever conflict. `before` counts
        // earlier submissions to `w`.
        let flood = |w: u64, before: u64| {
            let mut replies = Vec::new();
            for i in 0..per_worker {
                let local = ((i % (rows / 2)) * 2 + w) as i64;
                let remote = ((rows / 2 + i % (rows / 2)) * 2 + (1 - w)) as i64;
                let body: TxnProc = Arc::new(move |ctx| {
                    ctx.read_for_update(table, local)?;
                    ctx.read_for_update(table, remote).map(|_| ())
                });
                replies.push(rt.submit(PartitionId(w as u32), body).unwrap());
                // A submission is answered after it commits, so this is at
                // least what the worker still holds.
                let unanswered = before + i + 1 - rt.per_worker_committed()[w as usize];
                assert!(unanswered <= SUBMIT_DEPTH as u64, "worker {w} was handed {unanswered} submissions");
            }
            replies
        };
        // Worker 0 is held inside a transaction while its client floods it.
        let (held_tx, held_rx) = crossbeam_channel::bounded::<()>(1);
        let (let_go_tx, let_go_rx) = crossbeam_channel::bounded::<()>(1);
        let holder = rt
            .submit(
                PartitionId(0),
                Arc::new(move |_ctx| {
                    held_tx.send(()).expect("the test waits for the holder");
                    let_go_rx.recv().expect("the test lets the holder go");
                    Ok(())
                }),
            )
            .unwrap();
        held_rx.recv_timeout(Duration::from_secs(10)).expect("worker 0 is busy");
        std::thread::scope(|scope| {
            let first = scope.spawn(|| flood(0, 1));
            // With nothing answered the client gets as far as the bound, and
            // no further however long it is given.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while rt.stats().submitted < SUBMIT_DEPTH as u64 {
                assert!(std::time::Instant::now() < deadline, "the client never reached the bound");
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rt.stats().submitted, SUBMIT_DEPTH as u64);
            let_go_tx.send(()).unwrap();
            let second = scope.spawn(|| flood(1, 0));
            for client in [first, second] {
                for reply in client.join().expect("client") {
                    assert_eq!(reply.recv_timeout(Duration::from_secs(60)).expect("reply"), TxnOutcome::Committed);
                }
            }
        });
        assert_eq!(holder.recv_timeout(Duration::from_secs(10)).expect("holder reply"), TxnOutcome::Committed);
        let stats = rt.shutdown();
        assert_eq!((stats.submitted, stats.committed, stats.aborted), (2 * per_worker + 1, 2 * per_worker + 1, 0));
        assert_eq!(stats.remote_requests, 2 * per_worker);
    }

    #[test]
    fn stopping_reaches_workers_blocked_on_an_empty_inbox_and_may_be_repeated() {
        let (mut rt, table) = runtime(2, 4);
        rt.execute(PartitionId(1), increment(table, 1)).unwrap();
        assert_eq!(rt.stop().committed, 1);
        assert_eq!(rt.stop().committed, 1, "a second stop finds nobody to stop");
        assert!(rt.submit(PartitionId(0), increment(table, 0)).is_err(), "a stopped worker accepts nothing");
        drop(rt);
        // Dropped without a stop, and without ever having been spoken to.
        drop(runtime(2, 4));
    }

    /// A worker that dies takes its end of the submission bound with it, so
    /// a client blocked at the bound is turned away instead of left waiting
    /// for a reply that frees a slot and never comes.
    #[test]
    fn a_worker_that_dies_turns_away_the_client_blocked_at_the_bound() {
        use crate::runtime::SUBMIT_DEPTH;
        let (rt, table) = runtime(1, 4);
        // The first submission keeps the worker busy, then kills it.
        let (held_tx, held_rx) = crossbeam_channel::bounded::<()>(1);
        let (let_go_tx, let_go_rx) = crossbeam_channel::bounded::<()>(1);
        let doomed: TxnProc = Arc::new(move |_ctx| {
            held_tx.send(()).expect("the test waits for the worker");
            let_go_rx.recv().expect("the test lets the worker go");
            panic!("a transaction body that takes its worker down");
        });
        let mut replies = vec![rt.submit(PartitionId(0), doomed).unwrap()];
        held_rx.recv_timeout(Duration::from_secs(10)).expect("the worker is busy");
        replies.extend((1..SUBMIT_DEPTH).map(|_| rt.submit(PartitionId(0), increment(table, 0)).unwrap()));
        std::thread::scope(|scope| {
            let one_too_many = scope.spawn(|| rt.submit(PartitionId(0), increment(table, 0)));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!one_too_many.is_finished(), "every slot is taken, so the client waits");
            let_go_tx.send(()).unwrap();
            let refused = one_too_many.join().expect("client");
            assert!(matches!(refused, Err(h2tap_common::H2Error::ChannelClosed(_))), "{:?}", refused.map(|_| ()));
        });
        // Nobody who was accepted is left waiting either.
        for reply in replies {
            let answer = reply.recv_timeout(Duration::from_secs(10));
            assert_eq!(answer, Err(crossbeam_channel::RecvTimeoutError::Disconnected), "nothing was answered");
        }
        let stats = rt.shutdown();
        assert_eq!((stats.submitted, stats.committed, stats.aborted), (SUBMIT_DEPTH as u64, 0, 0));
    }

    /// Commit and abort give back what the transaction holds and nothing
    /// else, whatever else is in its partition's lock table.
    #[test]
    fn finishing_a_transaction_releases_its_own_locks_only() {
        use crate::worker::WorkerState;
        use h2tap_common::RecordId;
        let (db, table, mut indexes) = setup(1, 8);
        let (mut postboxes, mut mailboxes, _) = h2tap_mpmsg::build_fabric::<OltpMsg>(1, 8);
        let mut state = WorkerState {
            id: 0,
            db,
            postbox: postboxes.remove(0),
            mailbox: mailboxes.remove(0),
            lock_table: LockTable::new(),
            index: indexes.remove(0),
            partitioner: Arc::new(ModuloPartitioner::new(1)),
            counters: Arc::new(WorkerCounters::default()),
            remote_timeout: Duration::from_secs(1),
            backlog: std::collections::VecDeque::new(),
            window: None,
            shutdown: false,
        };
        let rid = |key: i64| RecordId::new(PartitionId(0), table, state.index.lookup(table, key).unwrap());
        let (theirs_exclusive, theirs_shared, both_shared, mine) = (rid(0), rid(1), rid(2), rid(3));
        let other = TxnToken::new(9, 9);
        assert!(state.lock_table.acquire(theirs_exclusive, LockMode::Exclusive, other));
        assert!(state.lock_table.acquire(theirs_shared, LockMode::Shared, other));
        assert!(state.lock_table.acquire(both_shared, LockMode::Shared, other));
        for (seq, commit) in [(0, true), (1, false)] {
            let token = TxnToken::new(0, seq);
            let mut ctx = TxnCtx::new(&mut state, token);
            ctx.read(table, 2).unwrap();
            ctx.read_for_update(table, 3).unwrap();
            ctx.read(table, 4).unwrap();
            ctx.read_for_update(table, 4).unwrap();
            if commit {
                ctx.commit().unwrap();
            } else {
                ctx.abort();
            }
            assert_eq!(state.lock_table.len(), 3, "the other transaction's three locks");
            assert!(!state.lock_table.is_locked(mine));
            assert!(!state.lock_table.acquire(theirs_exclusive, LockMode::Shared, token));
            assert!(!state.lock_table.acquire(theirs_shared, LockMode::Exclusive, token));
        }
        // Left alone on the record it shared, the other transaction may upgrade.
        assert!(state.lock_table.acquire(both_shared, LockMode::Exclusive, other));
    }

    #[test]
    fn runtime_rejects_mismatched_partition_count() {
        let (db, _, indexes) = setup(2, 4);
        let err =
            OltpRuntime::start(db, OltpConfig::with_workers(3), Arc::new(ModuloPartitioner::new(3)), indexes, None);
        assert!(err.is_err());
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
