//! The analytical side of the load: one analyst issuing TPC-H Q6 scans, a
//! brand-revenue join and a `SUM(l_quantity)` audit, closed loop or on a
//! schedule, with every answer checked and every latency filed under the
//! query's position in the snapshot cycle.

use crate::spans::Recorder;
use caldera::{Caldera, GroupRow, OlapPlan, OlapTarget};
use h2tap_common::{AggExpr, Result, ScanAggQuery, TableId};
use h2tap_workloads::tpch;
use std::time::{Duration, Instant};

/// Queries per snapshot cycle; `htap-mixed` runs `SnapshotPolicy::EveryN`
/// with this count.
pub const CYCLE_LEN: usize = 8;

/// The query at each position of the cycle.
pub const CYCLE: [QueryKind; CYCLE_LEN] = [
    QueryKind::Scan,
    QueryKind::Join,
    QueryKind::Scan,
    QueryKind::Join,
    QueryKind::Scan,
    QueryKind::Join,
    QueryKind::Scan,
    QueryKind::Audit,
];

/// Queries per second of the open-loop analyst.
pub const ANALYST_RATE: f64 = 10.0;

/// What the analyst asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// TPC-H Q6 over `lineitem`.
    Scan,
    /// `brand_revenue_plan(30)`: `lineitem ⋈ part` grouped by brand.
    Join,
    /// `SUM(l_quantity)` without a predicate.
    Audit,
}

impl QueryKind {
    fn request_span(self) -> &'static str {
        match self {
            QueryKind::Scan => "request.scan",
            QueryKind::Join => "request.join",
            QueryKind::Audit => "request.audit",
        }
    }
}

/// Which latency population a query belongs to. A percentile taken over a
/// mix of these sits on a mode boundary and flips between runs, so each is
/// reported on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    /// A scan that installs the cycle's snapshot: it pays the gate drain,
    /// the snapshot, registration and the first materialisation.
    Refresh,
    /// A scan over columns an earlier query of the snapshot materialised.
    Scan,
    /// A join whose probe columns and hash table are already cached.
    Join,
    /// First use of a column set within a snapshot (the first join, the
    /// audit): neither cold like a refresh nor warm.
    Other,
}

/// The class of the query at `position` of the snapshot cycle.
pub fn cycle_class(position: usize) -> LatencyClass {
    match position % CYCLE_LEN {
        0 => LatencyClass::Refresh,
        2 | 4 | 6 => LatencyClass::Scan,
        3 | 5 => LatencyClass::Join,
        _ => LatencyClass::Other,
    }
}

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySample {
    /// What was asked.
    pub kind: QueryKind,
    /// The latency population it belongs to.
    pub class: LatencyClass,
    /// Latency in ms, from the due time when the query had one.
    pub latency_ms: f64,
    /// How late the query started against its schedule, in ms (0 closed loop).
    pub late_ms: f64,
    /// Answer time minus the start of the query that installed the snapshot
    /// the answer was computed on, in ms.
    pub snapshot_age_ms: f64,
    /// Whether this query installed a new snapshot.
    pub installed_snapshot: bool,
    /// The site that answered.
    pub site: OlapTarget,
    /// The site's simulated time in ms.
    pub sim_ms: f64,
    /// Kernels the site launched.
    pub kernels: usize,
    /// Bytes over the simulated interconnect.
    pub interconnect_bytes: u64,
    /// The scalar answer (scans and audits).
    pub value: f64,
}

/// The answers the forced-CPU site gave at start; every later answer of a
/// read-only workload must be bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// Q6's answer.
    pub scan: f64,
    /// The brand-revenue groups.
    pub join: Vec<GroupRow>,
}

enum Answer {
    Scalar(f64),
    Groups(Vec<GroupRow>),
}

/// One analyst thread's state.
pub struct Analyst<'a> {
    caldera: &'a Caldera,
    rec: &'a Recorder,
    lineitem: TableId,
    part: TableId,
    scan: ScanAggQuery,
    join: OlapPlan,
    audit: ScanAggQuery,
    /// Set once the oracle is known; from then on scans and joins are
    /// compared with it.
    pub oracle: Option<Oracle>,
    snapshot_id: Option<u64>,
    installed_at: Instant,
    /// Queries issued so far; the engine numbers its queries the same way
    /// (from 1), which joins the engine's trace spans to these requests.
    pub issued: u64,
    /// Queries that returned an error or a wrong answer.
    pub failed: u64,
}

impl<'a> Analyst<'a> {
    /// An analyst over the two loaded tables.
    pub fn new(caldera: &'a Caldera, rec: &'a Recorder, lineitem: TableId, part: TableId) -> Self {
        Self {
            caldera,
            rec,
            lineitem,
            part,
            scan: tpch::q6(),
            join: tpch::brand_revenue_plan(30),
            audit: ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![tpch::columns::QUANTITY])),
            oracle: None,
            snapshot_id: None,
            installed_at: Instant::now(),
            issued: 0,
            failed: 0,
        }
    }

    /// Asks the forced-CPU site both questions and keeps the answers as the
    /// oracle.
    pub fn take_oracle(&mut self) -> Result<Oracle> {
        self.issued += 2;
        let scan = self.caldera.run_olap_on(self.lineitem, &self.scan, OlapTarget::Cpu)?.value;
        let join = self.caldera.run_olap_plan_on(self.lineitem, Some(self.part), &self.join, OlapTarget::Cpu)?.groups;
        let oracle = Oracle { scan, join };
        self.oracle = Some(oracle.clone());
        Ok(oracle)
    }

    /// Issues one query and files it under `class`. `due` is the scheduled
    /// start of an open-loop query; `refresh_first` takes a fresh snapshot
    /// inside the timed section (manual snapshot policies).
    pub fn issue(
        &mut self,
        kind: QueryKind,
        class: LatencyClass,
        due: Option<Instant>,
        refresh_first: bool,
        forced: Option<OlapTarget>,
    ) -> QuerySample {
        let started = Instant::now();
        let origin = due.unwrap_or(started);
        self.issued += 1;
        let request = self.issued;
        let span = self.rec.open(kind.request_span(), origin, request);
        let parent = Some(span);
        let caldera = self.caldera;
        let mut outcome = if refresh_first {
            self.rec.time("engine.refresh_snapshot", parent, request, || caldera.refresh_snapshot())
        } else {
            Ok(())
        }
        .and_then(|()| match kind {
            QueryKind::Scan | QueryKind::Audit => {
                let query = if kind == QueryKind::Scan { &self.scan } else { &self.audit };
                self.rec
                    .time("engine.run_olap", parent, request, || match forced {
                        Some(site) => caldera.run_olap_on(self.lineitem, query, site),
                        None => caldera.run_olap(self.lineitem, query),
                    })
                    .map(|o| {
                        (Answer::Scalar(o.value), o.site, o.time.as_millis_f64(), o.kernels.len(), o.interconnect_bytes)
                    })
            }
            QueryKind::Join => self
                .rec
                .time("engine.run_olap_plan", parent, request, || match forced {
                    Some(site) => caldera.run_olap_plan_on(self.lineitem, Some(self.part), &self.join, site),
                    None => caldera.run_olap_plan(self.lineitem, Some(self.part), &self.join),
                })
                .map(|o| {
                    (Answer::Groups(o.groups), o.site, o.time.as_millis_f64(), o.kernels.len(), o.interconnect_bytes)
                }),
        });
        let answered = Instant::now();
        self.rec.close(span, answered);

        let snapshot_id = caldera.current_snapshot().map(|s| s.id());
        let installed_snapshot = snapshot_id != self.snapshot_id;
        if installed_snapshot {
            self.snapshot_id = snapshot_id;
            self.installed_at = started;
        }
        if let (Ok((answer, ..)), Some(oracle)) = (&outcome, &self.oracle) {
            let right = match answer {
                Answer::Scalar(v) => kind != QueryKind::Scan || v.to_bits() == oracle.scan.to_bits(),
                Answer::Groups(groups) => *groups == oracle.join,
            };
            if !right {
                outcome = Err(h2tap_common::H2Error::Config(format!("{kind:?} answer differs from the oracle")));
            }
        }
        let (value, site, sim_ms, kernels, interconnect_bytes) = match outcome {
            Ok((Answer::Scalar(v), site, sim, kernels, bytes)) => (v, site, sim, kernels, bytes),
            Ok((Answer::Groups(_), site, sim, kernels, bytes)) => (0.0, site, sim, kernels, bytes),
            Err(err) => {
                self.failed += 1;
                eprintln!("htapbench: query {request} ({kind:?}) failed: {err}");
                (f64::NAN, OlapTarget::Cpu, 0.0, 0, 0)
            }
        };
        QuerySample {
            kind,
            class,
            latency_ms: (answered - origin).as_secs_f64() * 1e3,
            late_ms: (started - origin).as_secs_f64() * 1e3,
            snapshot_age_ms: (answered - self.installed_at).as_secs_f64() * 1e3,
            installed_snapshot,
            site,
            sim_ms,
            kernels,
            interconnect_bytes,
            value,
        }
    }

    /// Scan and join alternating back to back for `secs`. Returns the samples
    /// and the rate of the loop in queries per second: two over the median
    /// time of a scan-join pair, which — unlike the count over the window —
    /// does not carry every burst of interference from the neighbours.
    pub fn closed_loop(&mut self, secs: f64) -> (Vec<QuerySample>, f64) {
        let mut samples = Vec::new();
        let mut pair_secs = Vec::new();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < secs {
            let pair = Instant::now();
            samples.push(self.issue(QueryKind::Scan, LatencyClass::Scan, None, false, None));
            samples.push(self.issue(QueryKind::Join, LatencyClass::Join, None, false, None));
            pair_secs.push(pair.elapsed().as_secs_f64());
        }
        let qps = crate::stats::median(&pair_secs).map_or(0.0, |secs| 2.0 / secs);
        (samples, qps)
    }

    /// `cycles` snapshot cycles back to back. With `manual_refresh` the
    /// analyst refreshes the snapshot itself at position 0 (a manual
    /// policy); otherwise the engine's `EveryN` policy does.
    pub fn closed_cycles(&mut self, cycles: usize, manual_refresh: bool) -> Vec<QuerySample> {
        (0..cycles * CYCLE_LEN)
            .map(|i| self.issue(CYCLE[i % CYCLE_LEN], cycle_class(i), None, manual_refresh && i % CYCLE_LEN == 0, None))
            .collect()
    }

    /// `cycles` snapshot cycles on a schedule of [`ANALYST_RATE`] queries
    /// per second. The analyst sleeps to each due time — at millisecond
    /// latencies a sleep's jitter is noise, and a spinning analyst would be
    /// a second busy thread on its archipelago — and measures from the due
    /// time, so a slow query delays, and is charged to, the ones behind it.
    pub fn open_cycles(&mut self, cycles: usize) -> Vec<QuerySample> {
        let interval = Duration::from_secs_f64(1.0 / ANALYST_RATE);
        let origin = Instant::now();
        (0..cycles * CYCLE_LEN)
            .map(|i| {
                let due = origin + interval.mul_f64(i as f64);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                self.issue(CYCLE[i % CYCLE_LEN], cycle_class(i), Some(due), false, None)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caldera::SnapshotPolicy;

    #[test]
    fn cycle_positions_classify_as_the_snapshot_policy_refreshes() {
        let policy = SnapshotPolicy::EveryN { queries: CYCLE_LEN as u32 };
        for i in 0..3 * CYCLE_LEN {
            // The engine refreshes exactly where the cycle expects a refresh…
            assert_eq!(policy.should_refresh(i as u64), cycle_class(i) == LatencyClass::Refresh, "position {i}");
            // …and warm classes only hold queries of their own kind.
            match cycle_class(i) {
                LatencyClass::Refresh | LatencyClass::Scan => assert_eq!(CYCLE[i % CYCLE_LEN], QueryKind::Scan),
                LatencyClass::Join => assert_eq!(CYCLE[i % CYCLE_LEN], QueryKind::Join),
                LatencyClass::Other => assert!(matches!(i % CYCLE_LEN, 1 | 7)),
            }
        }
        // The first join of a snapshot builds its hash table and the audit
        // materialises its column: neither is a warm sample.
        assert_eq!(cycle_class(1), LatencyClass::Other);
        assert_eq!(CYCLE[7], QueryKind::Audit);
        assert_eq!(cycle_class(7), LatencyClass::Other);
    }
}
