//! OLTP worker threads.
//!
//! Caldera "schedules one thread per core in the task-parallel archipelago
//! and assigns one data partition to each thread, which then mediates access
//! to partition-local records". A [`Worker`] is that thread: it owns its
//! partition's lock table and primary-key index outright (no sharing, no
//! latches), executes the transactions it hosts, and services lock-request /
//! release messages from other workers.

use crate::index::PartitionIndex;
use crate::locktable::LockTable;
use crate::messages::{LockMode, OltpMsg, TxnToken};
use crate::runtime::{Job, Partitioner, TxnGenerator, WorkerCounters};
use crate::txn::TxnCtx;
use crossbeam_channel::Receiver;
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{H2Error, PartitionId, Result};
use h2tap_mpmsg::{CoreId, Envelope, Mailbox, Postbox};
use h2tap_storage::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything a transaction needs mutable access to while it executes on its
/// host worker. Split out from [`Worker`] so the transaction context can
/// borrow it while the worker's control fields stay untouched.
pub struct WorkerState {
    /// Worker index; by construction equal to the partition it owns.
    pub id: u32,
    /// Shared-memory database.
    pub db: Arc<Database>,
    /// Sending side of the message fabric.
    pub postbox: Postbox<OltpMsg>,
    /// This worker's mailbox.
    pub mailbox: Mailbox<OltpMsg>,
    /// Thread-private 2PL lock table for the owned partition.
    pub lock_table: LockTable,
    /// Thread-private primary-key index for the owned partition.
    pub index: PartitionIndex,
    /// Maps (table, key) to the owning partition.
    pub partitioner: Arc<dyn Partitioner>,
    /// Shared counters for this worker.
    pub counters: Arc<WorkerCounters>,
    /// How long a client waits for a remote lock reply before giving up.
    pub remote_timeout: Duration,
}

impl WorkerState {
    /// The partition this worker owns.
    pub fn home(&self) -> PartitionId {
        PartitionId(self.id)
    }

    /// Handles one incoming message in the server role. Returns the grant or
    /// denial that belongs to `waiting_for` (if any) instead of handling it,
    /// so a client blocked on a remote lock can keep servicing other workers
    /// without losing its own reply.
    pub fn handle_message(&mut self, env: Envelope<OltpMsg>, waiting_for: Option<TxnToken>) -> Option<OltpMsg> {
        self.counters.add_message();
        match env.payload {
            OltpMsg::LockRequest { txn, table, key, mode } => {
                let reply = match self.index.lookup(table, key) {
                    None => OltpMsg::LockDenied { txn, key, unknown_key: true },
                    Some(row) => {
                        let rid = h2tap_common::RecordId::new(self.home(), table, row);
                        if self.lock_table.acquire(rid, mode, txn) {
                            // Before handing the record to another core the
                            // server writes back any dirty cache lines for it
                            // (software-managed coherence).
                            self.counters.add_writeback();
                            OltpMsg::LockGrant { txn, rid, key }
                        } else {
                            OltpMsg::LockDenied { txn, key, unknown_key: false }
                        }
                    }
                };
                // Best effort: if the requester is gone the runtime is
                // shutting down and the reply does not matter.
                let _ = self.postbox.send(env.from, reply);
                None
            }
            OltpMsg::Release { txn, rids } => {
                for rid in rids {
                    self.lock_table.release(rid, txn);
                }
                None
            }
            msg @ (OltpMsg::LockGrant { .. } | OltpMsg::LockDenied { .. }) => {
                let for_me = match (&msg, waiting_for) {
                    (OltpMsg::LockGrant { txn, .. }, Some(t)) | (OltpMsg::LockDenied { txn, .. }, Some(t)) => *txn == t,
                    _ => false,
                };
                if for_me {
                    Some(msg)
                } else {
                    // A reply for a transaction that has already aborted
                    // (e.g. it timed out); drop it, its locks will be
                    // released by the abort path's release message.
                    None
                }
            }
            OltpMsg::Shutdown => None,
        }
    }

    /// Drains all currently pending messages (server role only).
    pub fn drain_messages(&mut self) -> Result<()> {
        while let Some(env) = self.mailbox.try_recv()? {
            self.handle_message(env, None);
        }
        Ok(())
    }
}

/// Outcome of executing one transaction attempt (after retries).
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOutcome {
    /// The transaction committed.
    Committed,
    /// The transaction aborted and exhausted its retries.
    Aborted(H2Error),
}

/// Executes `proc` on `state`, retrying aborts up to `max_retries` times and
/// serving the worker's mailbox between attempts.
pub fn execute_transaction(
    state: &mut WorkerState,
    proc: &crate::runtime::TxnProc,
    seq: &mut u64,
    max_retries: u32,
) -> TxnOutcome {
    let mut attempt = 0;
    loop {
        let token = TxnToken::new(state.id, *seq);
        *seq += 1;
        let mut ctx = TxnCtx::new(state, token);
        match proc(&mut ctx) {
            Ok(()) => {
                ctx.commit();
                state.counters.add_committed();
                return TxnOutcome::Committed;
            }
            Err(err) => {
                ctx.abort();
                let retryable = matches!(err, H2Error::TxnAborted(_) | H2Error::LockTimeout(_));
                // A conflicting lock may be held by a remote client, whose
                // release arrives as a message: serve the mailbox before
                // retrying, or every retry meets the same lock.
                let err = if retryable && attempt < max_retries {
                    match state.drain_messages() {
                        Ok(()) => {
                            attempt += 1;
                            state.counters.add_retry();
                            continue;
                        }
                        Err(closed) => closed,
                    }
                } else {
                    err
                };
                state.counters.add_aborted();
                return TxnOutcome::Aborted(err);
            }
        }
    }
}

/// One worker thread's control loop.
pub struct Worker {
    /// Transaction-visible state.
    pub state: WorkerState,
    /// Externally submitted jobs.
    pub jobs: Receiver<Job>,
    /// Optional self-driving workload generator (benchmark mode).
    pub generator: Option<Arc<dyn TxnGenerator>>,
    /// While true, the worker keeps generating transactions from `generator`.
    pub generating: Arc<AtomicBool>,
    /// Orderly shutdown flag.
    pub shutdown: Arc<AtomicBool>,
    /// Abort retry budget.
    pub max_retries: u32,
    /// Deterministic per-worker RNG for the generator.
    pub rng: SplitMixRng,
}

impl Worker {
    /// Runs the worker until shutdown. This is the body of the spawned
    /// thread.
    pub fn run(mut self) {
        let mut seq = 0u64;
        let mut generated = 0u64;
        loop {
            // 1. Serve pending lock traffic first so remote clients never
            //    starve behind local work.
            if self.state.drain_messages().is_err() {
                break;
            }

            // 2. Externally submitted transactions.
            match self.jobs.try_recv() {
                Ok(job) => {
                    let outcome = execute_transaction(&mut self.state, &job.proc, &mut seq, self.max_retries);
                    if let Some(reply) = job.reply {
                        let _ = reply.send(outcome);
                    }
                    continue;
                }
                Err(crossbeam_channel::TryRecvError::Empty) => {}
                Err(crossbeam_channel::TryRecvError::Disconnected) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                }
            }

            // 3. Benchmark mode: generate and run the next transaction.
            if self.generating.load(Ordering::Acquire) {
                if let Some(generator) = self.generator.clone() {
                    let proc = generator.next_txn(self.state.home(), generated, &mut self.rng);
                    generated += 1;
                    execute_transaction(&mut self.state, &proc, &mut seq, self.max_retries);
                    continue;
                }
            }

            // 4. Shutdown only once quiescent.
            if self.shutdown.load(Ordering::Acquire) {
                let _ = self.state.drain_messages();
                break;
            }

            // 5. Idle: block briefly on the mailbox so lock requests are
            //    served promptly even when this worker has no work.
            match self.state.mailbox.recv_timeout(Duration::from_micros(200)) {
                Ok(Some(env)) => {
                    self.state.handle_message(env, None);
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
    }
}

/// Convenience used by the runtime and tests to acquire a local lock outside
/// the message path (e.g. warm-up).
pub fn local_lock(state: &mut WorkerState, rid: h2tap_common::RecordId, mode: LockMode, txn: TxnToken) -> bool {
    state.lock_table.acquire(rid, mode, txn)
}

/// Which fabric core a partition's owner listens on. Workers are created so
/// that worker `i` owns partition `i` and listens on core `i`.
pub fn core_of(partition: PartitionId) -> CoreId {
    CoreId(partition.0)
}
