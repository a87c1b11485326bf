//! The transactional side of the load: the benchmark's own transaction
//! generator, the saturated generator window and the paced client.

use crate::spans::Recorder;
use crate::stats;
use caldera::{Caldera, TxnProc};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{PartitionId, Result, TableId, Value};
use h2tap_oltp::{OltpStats, TxnGenerator};
use h2tap_workloads::tpch::columns::QUANTITY;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read-modify-write operations per transaction.
pub const OPS_PER_TXN: usize = 10;

/// Transactions per second the paced client submits.
pub const PACED_RATE: f64 = 2_000.0;

/// Ten read-modify-write additions to `l_quantity` over uniformly chosen
/// rows of the home partition; in `remote_pct` percent of transactions the
/// tenth row belongs to the next partition, which takes a remote lock
/// through the message fabric.
///
/// Remote rows come from a slice of each partition that its owner's own
/// transactions leave alone. The engine resolves a lock conflict by aborting
/// and retrying at once, and a worker spinning through its retries does not
/// drain the release message that would end the conflict — so a local
/// transaction meeting a remotely held lock always runs out of retries. With
/// disjoint slices that cannot happen and no operation fails, while remote
/// locks, grants and releases still cross the fabric.
#[derive(Debug, Clone)]
pub struct RmwGenerator {
    /// The table updated.
    pub table: TableId,
    /// Partitions the table is spread over (key modulo partitions).
    pub partitions: u64,
    /// Leading rows of each partition that local operations draw from.
    pub local_rows: u64,
    /// Rows after `local_rows` that only remote operations draw from.
    pub remote_rows: u64,
    /// Percent of transactions whose last key is remote (ignored with one
    /// partition).
    pub remote_pct: u64,
    /// What each operation adds. The OLAP workloads add 0.0 — the same
    /// locks, reads and writes, but the data stays as generated so query
    /// answers can still be checked against the generator's references.
    pub delta: f64,
}

impl RmwGenerator {
    /// The keys of the next transaction hosted on `home`.
    pub fn keys(&self, home: PartitionId, rng: &mut SplitMixRng) -> [i64; OPS_PER_TXN] {
        let home = u64::from(home.0);
        let mut keys = [0i64; OPS_PER_TXN];
        for key in &mut keys {
            *key = (rng.next_below(self.local_rows) * self.partitions + home) as i64;
        }
        if self.partitions > 1 && rng.next_below(100) < self.remote_pct {
            let other = (home + 1) % self.partitions;
            let row = self.local_rows + rng.next_below(self.remote_rows);
            keys[OPS_PER_TXN - 1] = (row * self.partitions + other) as i64;
        }
        keys
    }

    /// The transaction over `keys`.
    pub fn txn(&self, keys: [i64; OPS_PER_TXN]) -> TxnProc {
        let (table, delta) = (self.table, self.delta);
        Arc::new(move |ctx| {
            for &key in &keys {
                let mut record = ctx.read_for_update(table, key)?;
                record[QUANTITY] = Value::Float64(record[QUANTITY].as_f64().unwrap_or(0.0) + delta);
                ctx.update(table, key, record)?;
            }
            Ok(())
        })
    }
}

impl TxnGenerator for RmwGenerator {
    fn next_txn(&self, home: PartitionId, _seq: u64, rng: &mut SplitMixRng) -> TxnProc {
        self.txn(self.keys(home, rng))
    }
}

/// How a saturated window's throughput is sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Nothing periodic runs beside the generator: 25 ms slices, and the
    /// window's rate is their median. Interference from the neighbours comes
    /// in bursts; the mean over the window would carry every burst, the
    /// median slice does not.
    Slices,
    /// A periodic load of this period runs beside the generator
    /// (`htap-mixed`'s snapshot cycle): one sample per whole period, so that
    /// every sample holds the same mix of the other side's work, and the
    /// window's rate is the second best of them — the rule that also picks a
    /// run's value among its repeats, for the same reason (the noise is
    /// one-sided).
    ///
    /// Slices shorter than the analyst's query interval do not work here:
    /// about half of them overlap a query and half do not, the rates of the
    /// two halves differ by a quarter, and the median slice flips between
    /// them from run to run.
    Cycles(Duration),
}

/// What one saturated generator window did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturatedWindow {
    /// Committed transactions per second, as the [`Sampling`] defines it.
    pub tps: f64,
    /// Counter deltas over the window.
    pub stats: OltpStats,
    /// Wall-clock length of the window.
    pub elapsed: Duration,
}

/// Runs the configured generator flat out on every worker for `secs`, while
/// this thread sleeps and reads the commit counter at the end of every whole
/// sampling interval of the window (a trailing part of one is not sampled).
pub fn saturated(caldera: &Caldera, secs: f64, sampling: Sampling, rec: &Recorder) -> Result<SaturatedWindow> {
    let interval = match sampling {
        Sampling::Slices => Duration::from_millis(25),
        Sampling::Cycles(period) => period,
    };
    // The epsilon keeps a window of exactly n intervals at n samples.
    let samples = (secs / interval.as_secs_f64() + 1e-9).floor() as u32;
    let (window, rates) = std::thread::scope(|scope| {
        let window = scope.spawn(|| {
            rec.time("engine.run_oltp_window", None, 0, || caldera.run_oltp_window(Duration::from_secs_f64(secs)))
        });
        let origin = Instant::now();
        let mut rates = Vec::new();
        let mut last = (origin, caldera.oltp().stats().committed);
        for k in 1..=samples {
            std::thread::sleep((origin + interval * k).saturating_duration_since(Instant::now()));
            let now = (Instant::now(), caldera.oltp().stats().committed);
            rates.push((now.1 - last.1) as f64 / (now.0 - last.0).as_secs_f64());
            last = now;
        }
        (window.join().expect("the generator window panicked"), rates)
    });
    let window = window?;
    let tps = match sampling {
        Sampling::Slices => stats::median(&rates),
        Sampling::Cycles(_) => stats::second_best(&rates, true),
    };
    // A window shorter than one interval has no sample: count over time.
    Ok(SaturatedWindow { tps: tps.unwrap_or(window.throughput_tps), stats: window.stats, elapsed: window.elapsed })
}

/// What the paced client measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacedResult {
    /// Submit-to-reply latency of each transaction in µs, from its due time.
    pub latency_us: Vec<f64>,
    /// How late each submission was against its schedule, in µs.
    pub late_us: Vec<f64>,
    /// Time from submission until the worker first ran the body, in µs
    /// (traced runs only).
    pub queue_us: Vec<f64>,
    /// Time inside the transaction body, retries included, in µs (traced
    /// runs only).
    pub proc_us: Vec<f64>,
    /// Time from the body's last return (commit, lock release, reply) until
    /// the client had the answer, in µs (traced runs only).
    pub reply_us: Vec<f64>,
    /// Transactions submitted.
    pub attempted: u64,
    /// Transactions that returned an error (aborted after their retries).
    pub failed: u64,
    /// Wall-clock length of the phase.
    pub elapsed: Duration,
}

impl PacedResult {
    /// Median latency in µs.
    pub fn p50_us(&self) -> f64 {
        stats::percentile(&stats::sorted(self.latency_us.clone()), 50.0).unwrap_or(0.0)
    }

    /// Transactions answered per second.
    pub fn achieved_tps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Submits one transaction every `1 / PACED_RATE` seconds for `secs`, one at
/// a time, to the workers in turn. The client spins to each due time (a
/// sleep's wake-up jitter is as large as the latency measured) and measures
/// from the due time, so a stall delays — and is charged to — every
/// transaction scheduled behind it.
///
/// On a traced run the body is wrapped to stamp when the worker first ran
/// it and when it last returned, which splits the latency into queue,
/// processing and reply time.
pub fn paced(
    caldera: &Caldera,
    generator: &RmwGenerator,
    rng: &mut SplitMixRng,
    secs: f64,
    rec: &Recorder,
    first_request: u64,
) -> PacedResult {
    let interval = Duration::from_secs_f64(1.0 / PACED_RATE);
    let count = (secs * PACED_RATE).round().max(1.0) as u64;
    let workers = caldera.oltp().workers() as u64;
    let mut out = PacedResult::default();
    let origin = Instant::now();
    for i in 0..count {
        let due = origin + interval.mul_f64(i as f64);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let submitted = Instant::now();
        let home = PartitionId((i % workers) as u32);
        let body = generator.txn(generator.keys(home, rng));
        let request = first_request + i;
        let result = if rec.enabled() {
            let span = rec.open("request.txn", due, request);
            let stamps = Arc::new(BodyStamps::default());
            let result = caldera.execute_txn_on(home, stamped(body, Arc::clone(&stamps), origin));
            let replied = Instant::now();
            rec.close(span, replied);
            if let Some((start, end)) = stamps.times(origin) {
                rec.record("oltp.txn_body", start, end, Some(span), request);
                out.queue_us.push(start.saturating_duration_since(submitted).as_secs_f64() * 1e6);
                out.proc_us.push((end - start).as_secs_f64() * 1e6);
                out.reply_us.push(replied.saturating_duration_since(end).as_secs_f64() * 1e6);
            }
            result
        } else {
            caldera.execute_txn_on(home, body)
        };
        let replied = Instant::now();
        out.attempted += 1;
        out.failed += u64::from(result.is_err());
        out.latency_us.push((replied - due).as_secs_f64() * 1e6);
        out.late_us.push((submitted - due).as_secs_f64() * 1e6);
    }
    out.elapsed = origin.elapsed();
    out
}

/// When a traced transaction body first started and last returned, in
/// nanoseconds since the phase origin (0 = never ran).
#[derive(Debug, Default)]
struct BodyStamps {
    first_start_ns: AtomicU64,
    last_end_ns: AtomicU64,
}

impl BodyStamps {
    /// When the body first started and last returned, if it ran.
    fn times(&self, origin: Instant) -> Option<(Instant, Instant)> {
        let start = self.first_start_ns.load(Ordering::Relaxed);
        let end = self.last_end_ns.load(Ordering::Relaxed);
        (start != 0 && end >= start).then(|| (origin + Duration::from_nanos(start), origin + Duration::from_nanos(end)))
    }
}

fn stamped(body: TxnProc, stamps: Arc<BodyStamps>, origin: Instant) -> TxnProc {
    Arc::new(move |ctx| {
        // `max(1)` keeps 0 meaning "never ran". Relaxed: the reply channel
        // orders these stores before the client's loads.
        let now = origin.elapsed().as_nanos().max(1) as u64;
        let _ = stamps.first_start_ns.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        let result = body(ctx);
        stamps.last_end_ns.store(origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(partitions: u64, remote_pct: u64) -> RmwGenerator {
        RmwGenerator { table: TableId(0), partitions, local_rows: 900, remote_rows: 100, remote_pct, delta: 1.0 }
    }

    #[test]
    fn keys_stay_home_except_the_remote_tenth() {
        let gen = generator(2, 10);
        let mut rng = SplitMixRng::new(9);
        let mut remote = 0;
        for _ in 0..10_000 {
            let keys = gen.keys(PartitionId(1), &mut rng);
            // Local keys: partition 1, rows 0..900.
            assert!(keys[..OPS_PER_TXN - 1].iter().all(|k| k % 2 == 1 && k / 2 < 900));
            let last = keys[OPS_PER_TXN - 1];
            if last % 2 == 0 {
                remote += 1;
                // Remote keys: partition 0, in the slice its owner never draws.
                assert!((900..1_000).contains(&(last / 2)), "{last}");
            }
        }
        assert!((800..1_200).contains(&remote), "about a tenth are remote, got {remote}");
    }

    #[test]
    fn a_single_partition_never_goes_remote() {
        let gen = generator(1, 100);
        let mut rng = SplitMixRng::new(9);
        for _ in 0..100 {
            assert!(gen.keys(PartitionId(0), &mut rng).iter().all(|k| (0..900).contains(k)));
        }
    }
}
