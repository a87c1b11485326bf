//! OLTP worker threads.
//!
//! Caldera "schedules one thread per core in the task-parallel archipelago
//! and assigns one data partition to each thread, which then mediates access
//! to partition-local records". A [`Worker`] is that thread: it owns its
//! partition's lock table and primary-key index outright (no sharing, no
//! latches), executes the transactions it hosts, and services lock-request /
//! release messages from other workers.
//!
//! Everything a worker reacts to arrives through its one mailbox: lock
//! traffic from the other workers, and submitted transactions, generator
//! windows and shutdown from the runtime. So there is one place to wait, and
//! a worker with nothing to run blocks there with no timeout — whatever
//! needs it next is a message, and the message is its wake-up. Lock messages
//! are handled the moment they are read, wherever the worker reads its
//! mailbox (its loop, a wait for a remote grant, the pause before a retry);
//! a submission read there is only moved to the worker's private backlog, so
//! it can never sit in front of the grant or release another transaction is
//! waiting for.
//!
//! A generator window is the one thing that ends on the clock: its message
//! carries the deadline, the worker checks it before each generated
//! transaction, and at the deadline it reports its stop instant once and
//! goes back to its mailbox, where it keeps serving the lock traffic of
//! workers whose windows are still open.

use crate::index::PartitionIndex;
use crate::locktable::LockTable;
use crate::messages::{OltpMsg, TxnToken};
use crate::runtime::{count, Job, Partitioner, TxnGenerator, WorkerCounters, MAX_RETRIES};
use crate::txn::TxnCtx;
use crossbeam_channel::Sender;
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{H2Error, PartitionId, Result};
use h2tap_mpmsg::{CoreId, Envelope, Mailbox, Postbox};
use h2tap_storage::Database;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a transaction needs mutable access to while it executes on its
/// host worker, which includes what reading the mailbox on its behalf may
/// change. Split out from [`Worker`] so the transaction context can borrow
/// it.
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
    /// Submitted transactions read from the mailbox and not yet run, oldest
    /// first.
    pub backlog: VecDeque<Job>,
    /// The open generator window, if any: its deadline and where to report
    /// the instant the worker stopped.
    pub window: Option<(Instant, Sender<Instant>)>,
    /// Whether the shutdown message has been read.
    pub shutdown: bool,
}

impl WorkerState {
    /// The partition this worker owns.
    pub fn home(&self) -> PartitionId {
        PartitionId(self.id)
    }

    /// Handles one incoming message. Returns the grant or denial that
    /// belongs to `waiting_for` (if any) instead of handling it, so a client
    /// blocked on a remote lock can keep servicing other workers without
    /// losing its own reply. Only lock traffic counts as a message handled.
    pub(crate) fn handle_message(&mut self, env: Envelope<OltpMsg>, waiting_for: Option<TxnToken>) -> Option<OltpMsg> {
        match env.payload {
            OltpMsg::LockRequest { txn, table, key, mode } => {
                count(&self.counters.messages);
                let reply = match self.index.lookup(table, key) {
                    None => OltpMsg::LockDenied { txn, key, unknown_key: true },
                    Some(row) => {
                        let rid = h2tap_common::RecordId::new(self.home(), table, row);
                        if self.lock_table.acquire(rid, mode, txn) {
                            // Before handing the record to another core the
                            // server writes back any dirty cache lines for it
                            // (software-managed coherence).
                            count(&self.counters.writebacks);
                            OltpMsg::LockGrant { txn, rid, key }
                        } else {
                            OltpMsg::LockDenied { txn, key, unknown_key: false }
                        }
                    }
                };
                // Best effort: if the requester is gone the runtime is
                // shutting down and the reply does not matter.
                let _ = self.postbox.send(env.from, reply);
            }
            OltpMsg::Release { txn, rids } => {
                count(&self.counters.messages);
                for rid in rids {
                    self.lock_table.release(rid, txn);
                }
            }
            msg @ (OltpMsg::LockGrant { txn, .. } | OltpMsg::LockDenied { txn, .. }) => {
                count(&self.counters.messages);
                // Anything else is a reply for a transaction that has
                // already aborted (e.g. it timed out); drop it, its locks
                // will be released by the abort path's release message.
                return (waiting_for == Some(txn)).then_some(msg);
            }
            OltpMsg::Submit(job) => self.backlog.push_back(job),
            OltpMsg::Window { until, done } => self.window = Some((until, done)),
            // Whatever window was open is over as well, unreported.
            OltpMsg::Shutdown => (self.shutdown, self.window) = (true, None),
        }
        None
    }

    /// Handles every message already in the mailbox, without waiting.
    pub(crate) fn drain_messages(&mut self) -> Result<()> {
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

/// Executes `proc` on `state`, retrying aborts up to `MAX_RETRIES` times
/// and serving the worker's mailbox between attempts.
pub fn execute_transaction(state: &mut WorkerState, proc: &crate::runtime::TxnProc, seq: &mut u64) -> TxnOutcome {
    let mut attempt = 0;
    loop {
        let token = TxnToken::new(state.id, *seq);
        *seq += 1;
        let mut ctx = TxnCtx::new(state, token);
        match proc(&mut ctx) {
            Ok(()) => {
                return match ctx.commit() {
                    Ok(()) => {
                        count(&state.counters.committed);
                        TxnOutcome::Committed
                    }
                    // A write set the database rejected would be rejected
                    // again: abort without a retry.
                    Err(err) => {
                        count(&state.counters.aborted);
                        TxnOutcome::Aborted(err)
                    }
                };
            }
            Err(err) => {
                ctx.abort();
                let retryable = matches!(err, H2Error::TxnAborted(_) | H2Error::LockTimeout(_));
                // A conflicting lock may be held by a remote client, whose
                // release arrives as a message: serve the mailbox before
                // retrying, or every retry meets the same lock.
                let err = if retryable && attempt < MAX_RETRIES {
                    match state.drain_messages() {
                        Ok(()) => {
                            attempt += 1;
                            count(&state.counters.retries);
                            continue;
                        }
                        Err(closed) => closed,
                    }
                } else {
                    err
                };
                count(&state.counters.aborted);
                return TxnOutcome::Aborted(err);
            }
        }
    }
}

/// One worker thread's control loop.
pub struct Worker {
    /// Transaction-visible state.
    pub state: WorkerState,
    /// One token per submission the runtime has accepted for this worker and
    /// not seen answered; taking one out lets `submit` accept another.
    pub slots: crossbeam_channel::Receiver<()>,
    /// Optional self-driving workload generator (benchmark mode).
    pub generator: Option<Arc<dyn TxnGenerator>>,
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
            // 1. Nothing to run: leave if told to — the shutdown message
            //    comes after every submission accepted before it, and those
            //    have run — else block until the next message. This is the
            //    loop's only wait, and it has no timeout.
            if self.state.backlog.is_empty() && self.state.window.is_none() {
                if self.state.shutdown {
                    break;
                }
                let Ok(env) = self.state.mailbox.recv() else { break };
                count(&self.state.counters.idle_wakeups);
                self.state.handle_message(env, None);
            }

            // 2. Serve whatever else is pending, so remote clients never
            //    starve behind local work and new submissions join the
            //    backlog in arrival order.
            if self.state.drain_messages().is_err() {
                break;
            }

            // 3. One submitted transaction, oldest first; its reply frees
            //    the submitter's slot.
            if let Some(job) = self.state.backlog.pop_front() {
                let outcome = execute_transaction(&mut self.state, &job.proc, &mut seq);
                // The client may have stopped listening; that is its business.
                let _ = job.reply.send(outcome);
                let _ = self.slots.try_recv();
                continue;
            }

            // 4. Benchmark mode: before the window's deadline, generate and
            //    run the next transaction; at it (or at once, with no
            //    generator), report the stop instant and close the window.
            if let Some(&(until, _)) = self.state.window.as_ref() {
                let now = Instant::now();
                match self.generator.as_ref().filter(|_| now < until) {
                    Some(generator) => {
                        let proc = generator.next_txn(self.state.home(), generated, &mut self.rng);
                        generated += 1;
                        execute_transaction(&mut self.state, &proc, &mut seq);
                    }
                    None => {
                        // The runtime may have stopped listening; that is its business.
                        if let Some((_, done)) = self.state.window.take() {
                            let _ = done.send(now);
                        }
                    }
                }
            }
        }
    }
}

/// Which fabric core a partition's owner listens on. Workers are created so
/// that worker `i` owns partition `i` and listens on core `i`.
pub fn core_of(partition: PartitionId) -> CoreId {
    CoreId(partition.0)
}
