//! The OLTP runtime: spawning, driving and measuring the worker fleet.
//!
//! The runtime owns the task-parallel archipelago's worker threads. It can be
//! driven in two ways:
//!
//! * **Submission mode** — callers submit individual transactions to a chosen
//!   home worker and wait for the outcome ([`OltpRuntime::submit`] /
//!   [`OltpRuntime::execute`]). Used by the engine API and the examples. A
//!   submission is one message to the worker's mailbox — the same inbox the
//!   lock traffic arrives in, on which an idle worker blocks — so it costs
//!   one hop and one wake-up. Mailboxes are bounded and a full one blocks its
//!   senders, workers included, so `submit` holds each worker to
//!   [`SUBMIT_DEPTH`] accepted-but-unanswered submissions and blocks the
//!   caller beyond that: clients can fill a quarter of a mailbox, never all
//!   of it.
//! * **Benchmark mode** — every worker generates transactions back-to-back
//!   from a [`TxnGenerator`] until a deadline and then reports when it
//!   stopped ([`OltpRuntime::run_for`]). The window is one message per
//!   worker carrying that deadline, and the runtime waits for one reply per
//!   worker, not for a span of time. Used by the Figure 5-9 experiments.

use crate::index::PartitionIndex;
use crate::messages::OltpMsg;
use crate::txn::TxnCtx;
use crate::worker::{core_of, TxnOutcome, Worker, WorkerState};
use crossbeam_channel::{bounded, Sender};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::stats::throughput;
use h2tap_common::{H2Error, PartitionId, Result, TableId};
use h2tap_mpmsg::{build_fabric, Postbox};
use h2tap_storage::Database;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A transaction body. It is re-run from scratch on retry, so it must be a
/// pure function of the context (no side effects outside it).
pub type TxnProc = Arc<dyn Fn(&mut TxnCtx<'_>) -> Result<()> + Send + Sync>;

/// Maps `(table, key)` to the partition that owns the record.
pub trait Partitioner: Send + Sync {
    /// The owning partition of `key` in `table`.
    fn partition_of(&self, table: TableId, key: i64) -> PartitionId;
}

/// Default partitioner: a key is owned by partition `|key| % partitions`
/// (modulo hashing). Consecutive keys land on consecutive partitions, but
/// ownership is a pure function of the key value — unlike round-robin, the
/// arrival order of keys plays no role.
#[derive(Debug, Clone)]
pub struct ModuloPartitioner {
    partitions: u32,
}

impl ModuloPartitioner {
    /// Creates a partitioner over `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0);
        Self { partitions: partitions as u32 }
    }
}

impl Partitioner for ModuloPartitioner {
    fn partition_of(&self, _table: TableId, key: i64) -> PartitionId {
        PartitionId((key.unsigned_abs() % u64::from(self.partitions)) as u32)
    }
}

/// Partitioner whose keys carry their partition in the high bits:
/// `key = partition * stride + local_key`. Used by TPC-C (warehouse-per-
/// partition) and the multisite microbenchmark.
#[derive(Debug, Clone)]
pub struct StridePartitioner {
    stride: i64,
    partitions: u32,
}

impl StridePartitioner {
    /// Creates a stride partitioner.
    pub fn new(stride: i64, partitions: usize) -> Self {
        assert!(stride > 0 && partitions > 0);
        Self { stride, partitions: partitions as u32 }
    }

    /// Encodes a (partition, local key) pair into a global key.
    pub fn encode(&self, partition: PartitionId, local_key: i64) -> i64 {
        i64::from(partition.0) * self.stride + local_key
    }
}

impl Partitioner for StridePartitioner {
    fn partition_of(&self, _table: TableId, key: i64) -> PartitionId {
        PartitionId(((key / self.stride).unsigned_abs() % u64::from(self.partitions)) as u32)
    }
}

/// Produces the next transaction for a worker in benchmark mode.
pub trait TxnGenerator: Send + Sync {
    /// The transaction that worker `home` should run as its `seq`-th
    /// generated transaction.
    fn next_txn(&self, home: PartitionId, seq: u64, rng: &mut SplitMixRng) -> TxnProc;
}

/// Shared per-worker counters: the worker counts, anyone may read.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    pub(crate) committed: AtomicU64,
    pub(crate) aborted: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) remote_requests: AtomicU64,
    pub(crate) remote_denied: AtomicU64,
    pub(crate) messages: AtomicU64,
    pub(crate) writebacks: AtomicU64,
    pub(crate) submitted: AtomicU64,
    pub(crate) idle_wakeups: AtomicU64,
}

/// Adds one to a field of [`WorkerCounters`].
pub(crate) fn count(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl WorkerCounters {
    /// This worker's counters as they stand.
    pub fn stats(&self) -> OltpStats {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        OltpStats {
            committed: read(&self.committed),
            aborted: read(&self.aborted),
            retries: read(&self.retries),
            remote_requests: read(&self.remote_requests),
            remote_denied: read(&self.remote_denied),
            messages: read(&self.messages),
            writebacks: read(&self.writebacks),
            submitted: read(&self.submitted),
            idle_wakeups: read(&self.idle_wakeups),
        }
    }
}

/// Point-in-time aggregate across all workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OltpStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted (retry-exhausted) transactions.
    pub aborted: u64,
    /// Abort-and-retry events.
    pub retries: u64,
    /// Remote lock requests issued.
    pub remote_requests: u64,
    /// Remote lock requests denied.
    pub remote_denied: u64,
    /// Lock-protocol messages handled (requests, grants, denials, releases).
    pub messages: u64,
    /// Explicit cache write-back events (software-managed coherence).
    pub writebacks: u64,
    /// Transactions accepted by [`OltpRuntime::submit`].
    pub submitted: u64,
    /// Times an idle worker's blocking wait returned — with a message, since
    /// the wait has no timeout. Workers nobody talks to record none.
    pub idle_wakeups: u64,
}

impl OltpStats {
    /// Applies `op` field by field.
    fn combine(&self, other: &OltpStats, op: fn(u64, u64) -> u64) -> OltpStats {
        OltpStats {
            committed: op(self.committed, other.committed),
            aborted: op(self.aborted, other.aborted),
            retries: op(self.retries, other.retries),
            remote_requests: op(self.remote_requests, other.remote_requests),
            remote_denied: op(self.remote_denied, other.remote_denied),
            messages: op(self.messages, other.messages),
            writebacks: op(self.writebacks, other.writebacks),
            submitted: op(self.submitted, other.submitted),
            idle_wakeups: op(self.idle_wakeups, other.idle_wakeups),
        }
    }

    /// Difference between two aggregates.
    #[must_use]
    pub fn delta_since(&self, earlier: &OltpStats) -> OltpStats {
        self.combine(earlier, |now, then| now - then)
    }
}

/// Result of one benchmark window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkWindow {
    /// Wall-clock time from the window's start to the instant the last
    /// worker stopped generating.
    pub elapsed: Duration,
    /// Counter deltas over the window.
    pub stats: OltpStats,
    /// Committed transactions per second.
    pub throughput_tps: f64,
}

/// An externally submitted transaction.
#[derive(Clone)]
pub struct Job {
    /// The transaction body.
    pub proc: TxnProc,
    /// Where to report the outcome.
    pub reply: Sender<TxnOutcome>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").finish_non_exhaustive()
    }
}

/// Accepted-but-unanswered submissions one worker may have before
/// [`OltpRuntime::submit`] blocks its caller. A safety bound, not a tuning
/// knob: it keeps client traffic to a quarter of a mailbox, so two
/// workers can always get their lock messages through to each other. It is
/// the depth of a per-worker channel of tokens: `submit` puts one in, the
/// worker takes one out with each reply, and a worker that dies closes it.
pub const SUBMIT_DEPTH: usize = 256;

/// Mailbox depth per worker.
pub(crate) const MAILBOX_CAPACITY: usize = 1024;

/// How many times an aborted transaction is retried before giving up.
pub(crate) const MAX_RETRIES: u32 = 32;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct OltpConfig {
    /// Number of worker threads (= partitions = cores of the task-parallel
    /// archipelago).
    pub workers: usize,
    /// Client-side timeout for remote lock replies.
    pub remote_timeout: Duration,
    /// Seed for the per-worker workload RNGs.
    pub seed: u64,
}

impl Default for OltpConfig {
    fn default() -> Self {
        Self { workers: 4, remote_timeout: Duration::from_millis(500), seed: 0x5EED }
    }
}

impl OltpConfig {
    /// Config with a specific worker count and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }
}

/// The running OLTP archipelago.
pub struct OltpRuntime {
    db: Arc<Database>,
    config: OltpConfig,
    /// The runtime's way into every worker's mailbox.
    postbox: Postbox<OltpMsg>,
    slots: Vec<Sender<()>>,
    counters: Vec<Arc<WorkerCounters>>,
    handles: Vec<JoinHandle<()>>,
}

impl OltpRuntime {
    /// Starts `config.workers` worker threads over `db`.
    ///
    /// `indexes` supplies each worker's pre-built primary-key index (one per
    /// partition, in partition order); missing entries start empty.
    /// `generator` is the optional benchmark-mode workload.
    ///
    /// The database must have exactly as many partitions as workers.
    pub fn start(
        db: Arc<Database>,
        config: OltpConfig,
        partitioner: Arc<dyn Partitioner>,
        mut indexes: Vec<PartitionIndex>,
        generator: Option<Arc<dyn TxnGenerator>>,
    ) -> Result<Self> {
        if config.workers == 0 {
            return Err(H2Error::Config("OLTP runtime needs at least one worker".into()));
        }
        if db.partition_count() != config.workers {
            return Err(H2Error::Config(format!(
                "database has {} partitions but runtime was asked for {} workers",
                db.partition_count(),
                config.workers
            )));
        }
        indexes.resize_with(config.workers, PartitionIndex::new);

        let (postboxes, mailboxes, ()) = build_fabric::<OltpMsg>(config.workers, MAILBOX_CAPACITY);
        let mut slots = Vec::with_capacity(config.workers);
        let mut counters = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);

        for (i, (index, mailbox)) in indexes.into_iter().zip(mailboxes).enumerate() {
            let (slot_tx, worker_slots) = bounded(SUBMIT_DEPTH);
            slots.push(slot_tx);
            let worker_counters = Arc::new(WorkerCounters::default());
            counters.push(Arc::clone(&worker_counters));
            let state = WorkerState {
                id: i as u32,
                db: Arc::clone(&db),
                postbox: postboxes[i].clone(),
                mailbox,
                lock_table: crate::locktable::LockTable::new(),
                index,
                partitioner: Arc::clone(&partitioner),
                counters: worker_counters,
                remote_timeout: config.remote_timeout,
                backlog: VecDeque::new(),
                window: None,
                shutdown: false,
            };
            let worker = Worker {
                state,
                slots: worker_slots,
                generator: generator.clone(),
                rng: SplitMixRng::new(config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9)),
            };
            let handle = std::thread::Builder::new()
                .name(format!("oltp-worker-{i}"))
                .spawn(move || worker.run())
                .map_err(|e| H2Error::Config(format!("failed to spawn worker: {e}")))?;
            handles.push(handle);
        }

        // Control messages carry no reply, so whose postbox sends them is
        // immaterial.
        let postbox = postboxes[0].clone();
        Ok(Self { db, config, postbox, slots, counters, handles })
    }

    /// The database this runtime operates on.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Submits a transaction to a home worker and returns once the worker
    /// has it in its mailbox; the outcome arrives on the returned channel.
    /// Blocks while the worker already holds [`SUBMIT_DEPTH`] unanswered
    /// submissions, and fails if the worker is gone or goes meanwhile.
    pub fn submit(&self, home: PartitionId, proc: TxnProc) -> Result<crossbeam_channel::Receiver<TxnOutcome>> {
        let worker = home.0 as usize;
        let slots = self.slots.get(worker).ok_or_else(|| H2Error::Config(format!("no worker for {home}")))?;
        let (tx, rx) = bounded(1);
        slots.send(()).map_err(|_| H2Error::ChannelClosed(format!("the worker of {home} is gone")))?;
        self.postbox.send(core_of(home), OltpMsg::Submit(Job { proc, reply: tx }))?;
        count(&self.counters[worker].submitted);
        Ok(rx)
    }

    /// Sends `msg` to every worker, reporting a worker that is gone only
    /// after the others have been told.
    fn broadcast(&self, msg: &OltpMsg) -> Result<()> {
        (0..self.config.workers as u32)
            .map(|w| self.postbox.send(core_of(PartitionId(w)), msg.clone()))
            .fold(Ok(()), Result::and)
    }

    /// Submits a transaction and blocks until it commits or aborts.
    pub fn execute(&self, home: PartitionId, proc: TxnProc) -> Result<()> {
        let rx = self.submit(home, proc)?;
        match rx.recv() {
            Ok(TxnOutcome::Committed) => Ok(()),
            Ok(TxnOutcome::Aborted(err)) => Err(err),
            Err(_) => Err(H2Error::ChannelClosed("worker dropped the reply channel".into())),
        }
    }

    /// Aggregated counters across all workers.
    pub fn stats(&self) -> OltpStats {
        self.counters.iter().fold(OltpStats::default(), |sum, c| sum.combine(&c.stats(), |a, b| a + b))
    }

    /// Per-worker committed counts.
    #[cfg(test)]
    pub(crate) fn per_worker_committed(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.committed.load(Ordering::Relaxed)).collect()
    }

    /// Runs the benchmark-mode generator on every worker for `window` from
    /// now and returns the counter deltas and throughput.
    ///
    /// Each worker starts no generated transaction after the deadline,
    /// finishes the one in hand and replies once with the instant it
    /// stopped; the window ends at the last of those, and the counters are
    /// read after every reply, so `committed`, `aborted` and `retries` are
    /// exactly the window's. Only lock traffic can trail it: the `Release`
    /// of a worker's last transaction may still be in flight, so `messages`
    /// may count it after this returns.
    ///
    /// # Errors
    /// Returns an error if the runtime was started without a generator — the
    /// workers would simply idle and report zero throughput — and
    /// [`H2Error::ChannelClosed`] if a worker is gone or dies in the window.
    pub fn run_for(&self, window: Duration) -> Result<BenchmarkWindow> {
        let before = self.stats();
        let start = Instant::now();
        let (done, stopped) = bounded(self.config.workers);
        // The message is also what wakes a worker blocked on an empty inbox.
        // Its `done` is dropped with it, so the workers hold the only
        // senders, and one that dies with its window open ends the wait.
        self.broadcast(&OltpMsg::Window { until: start + window, done })?;
        let mut end = start;
        for _ in 0..self.config.workers {
            let stop =
                stopped.recv().map_err(|_| H2Error::ChannelClosed("a worker died in a benchmark window".into()))?;
            end = end.max(stop);
        }
        let elapsed = end - start;
        let stats = self.stats().delta_since(&before);
        if stats.committed == 0 && stats.aborted == 0 {
            return Err(H2Error::Config(
                "benchmark window produced no transactions; was a generator configured?".into(),
            ));
        }
        Ok(BenchmarkWindow { elapsed, stats, throughput_tps: throughput(stats.committed, elapsed) })
    }

    /// Stops all workers and waits for them to exit, leaving the runtime
    /// alive for final statistics collection. Mailboxes deliver in send
    /// order, so a worker has run every accepted submission by the time it
    /// reads the shutdown message, and the counters read after `stop` reflect
    /// every transaction that was ever accepted. Idempotent.
    pub fn stop(&mut self) -> OltpStats {
        self.halt();
        self.stats()
    }

    /// Tells every worker to shut down and joins them. A worker that has
    /// already exited has closed its mailbox, which is not an error here.
    fn halt(&mut self) {
        let _ = self.broadcast(&OltpMsg::Shutdown);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stops all workers and waits for them to exit.
    pub fn shutdown(mut self) -> OltpStats {
        self.stop()
    }
}

impl Drop for OltpRuntime {
    fn drop(&mut self) {
        self.halt();
    }
}
