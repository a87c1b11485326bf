//! End-to-end observability: traces, metrics and placement explanations
//! captured from real dispatches through the full engine.
//!
//! The tentpole guarantee under test: with tracing enabled, a
//! brand-revenue join leaves a trace whose placement / cache / materialise
//! / kernel / merge spans sum up consistently with the site's reported
//! `ExecBreakdown`; with tracing disabled (the default) the ring stays
//! empty while metrics and placement explanations still populate.

use caldera::{Caldera, CalderaConfig, OlapTarget, SnapshotPolicy, SpanKind};
use h2tap_obs::json_is_valid;
use h2tap_storage::Layout;
use h2tap_workloads::tpch::{self, brand_revenue_plan};
use std::time::Instant;

const ROWS: u64 = 20_000;

fn join_engine(mut config: CalderaConfig) -> (Caldera, h2tap_common::TableId, h2tap_common::TableId) {
    config.snapshot_policy = SnapshotPolicy::EveryN { queries: 100 };
    let mut builder = Caldera::builder(config);
    let lineitem = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, ROWS, 7).unwrap();
    let part = tpch::load_part(&mut builder, Layout::PAPER_PAX, ROWS / 8, 7).unwrap();
    (builder.start().unwrap(), lineitem, part)
}

#[test]
fn traced_brand_revenue_join_covers_every_phase() {
    let mut config = CalderaConfig::with_workers(2);
    config.observability.tracing = true;
    let (caldera, lineitem, part) = join_engine(config);
    let plan = brand_revenue_plan(30);
    let started = Instant::now();
    let out = caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Gpu).unwrap();
    let wall_secs = started.elapsed().as_secs_f64();
    assert!(!out.groups.is_empty());

    let spans = caldera.trace_spans();
    let count = |kind: SpanKind| spans.iter().filter(|s| s.event.kind == kind).count();
    assert_eq!(count(SpanKind::Placement), 1, "one dispatch, one placement span");
    assert!(count(SpanKind::CacheLookup) >= 2, "column and hash-table probes");
    assert!(count(SpanKind::Materialise) >= 1, "cold cache: columns were materialised");
    assert!(count(SpanKind::HashBuild) >= 1, "cold cache: the hash table was built");
    assert!(count(SpanKind::Kernel) >= 3, "select/probe/aggregate kernels");
    assert!(count(SpanKind::Merge) >= 1, "grouped plans end in merge_groups");

    // Every span of this engine belongs to query 1 and carries the
    // metadata its phase promises.
    assert!(spans.iter().all(|s| s.query == 1));
    assert!(spans
        .iter()
        .filter(|s| s.event.kind == SpanKind::CacheLookup)
        .all(|s| s.event.hit == Some(false) && s.event.table.is_some() && s.event.epoch.is_some()));
    assert!(spans
        .iter()
        .filter(|s| matches!(s.event.kind, SpanKind::Materialise | SpanKind::HashBuild))
        .all(|s| s.event.bytes > 0));
    assert!(spans
        .iter()
        .filter(|s| matches!(s.event.kind, SpanKind::Kernel | SpanKind::Merge))
        .all(|s| s.event.site == Some(OlapTarget::Gpu)));

    // The host phases are wall-clock: they follow one another on the
    // tracer's timeline and together fit inside the time the client waited.
    // Compute is the host evaluating the plan, once per query, for the site
    // that charges for it — and ends before that site's first (simulated)
    // kernel span is recorded.
    let host: Vec<_> = spans.iter().filter(|s| !matches!(s.event.kind, SpanKind::Kernel | SpanKind::Merge)).collect();
    assert!(host.iter().map(|s| s.event.dur_secs).sum::<f64>() <= wall_secs, "{host:?} in {wall_secs} s");
    let end_us = |s: &caldera::SpanRecord| s.start_us as f64 + s.event.dur_secs * 1e6;
    assert!(host.windows(2).all(|w| end_us(w[0]) <= w[1].start_us as f64 + 1.0), "{host:?}");
    assert_eq!(count(SpanKind::Compute), 1, "one host evaluation per query");
    let compute = host.last().unwrap();
    assert_eq!((compute.event.kind, compute.event.site), (SpanKind::Compute, Some(OlapTarget::Gpu)));
    assert_eq!(compute.event.bytes, ROWS * plan.probe_columns_accessed().len() as u64 * 8);
    let first_kernel = spans.iter().find(|s| s.event.kind == SpanKind::Kernel).unwrap();
    assert!(compute.event.dur_secs > 0.0 && end_us(compute) <= first_kernel.start_us as f64 + 1.0);

    // Kernel + merge spans are in simulated seconds, the same frame as the
    // outcome's breakdown: with host-resident (UVA) data every kernel's
    // time splits into streamed time + launch overhead, so the span sum
    // must reproduce those two components (compute overlaps the stream)
    // and never exceed the query's total simulated time.
    let site_secs: f64 = spans
        .iter()
        .filter(|s| matches!(s.event.kind, SpanKind::Kernel | SpanKind::Merge))
        .map(|s| s.event.dur_secs)
        .sum();
    let expected = out.breakdown.stream_secs + out.breakdown.overhead_secs;
    assert!(
        (site_secs - expected).abs() <= 1e-9 + 1e-6 * expected,
        "kernel+merge spans sum to {site_secs}, breakdown says {expected}"
    );
    assert!(site_secs <= out.time.as_secs_f64() + 1e-9);
    // The last site span carries the full breakdown for the query.
    let last = spans.iter().rfind(|s| matches!(s.event.kind, SpanKind::Kernel | SpanKind::Merge)).unwrap();
    assert_eq!(last.event.breakdown.unwrap(), out.breakdown);

    // The exported Chrome trace is valid JSON with one event per span.
    let json = caldera.chrome_trace_json();
    assert!(json_is_valid(&json));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());

    // A warm repeat of the same plan probes the cache and hits.
    caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Gpu).unwrap();
    let spans = caldera.trace_spans();
    assert_eq!(spans.iter().filter(|s| s.query == 2 && s.event.kind == SpanKind::Compute).count(), 1);
    assert!(spans
        .iter()
        .filter(|s| s.query == 2 && s.event.kind == SpanKind::CacheLookup)
        .all(|s| s.event.hit == Some(true)));
    assert!(!spans.iter().any(|s| s.query == 2 && s.event.kind == SpanKind::Materialise));

    // A refresh with nothing written: the next query misses at the new
    // epoch, and its derivation spans say what that cost — no byte
    // gathered, no table built.
    let before = caldera.stats().plan_cache;
    caldera.refresh_snapshot().unwrap();
    caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Gpu).unwrap();
    let spans = caldera.trace_spans();
    let derived: Vec<_> = spans
        .iter()
        .filter(|s| s.query == 3 && matches!(s.event.kind, SpanKind::Materialise | SpanKind::HashBuild))
        .collect();
    assert_eq!(derived.len(), 2, "one span per missed probe");
    assert!(derived.iter().all(|s| s.event.bytes == 0), "{derived:?}");
    let after = caldera.stats().plan_cache;
    assert_eq!((after.misses() - before.misses(), after.hits() - before.hits()), (2, 0));
    assert_eq!(after.chunks_rebuilt, before.chunks_rebuilt, "every chunk was shared with the older version");
    assert!(after.chunks_reused > before.chunks_reused);
    assert_eq!(after.hashes_carried - before.hashes_carried, 1);
    caldera.shutdown();
}

#[test]
fn tracing_is_off_by_default_but_metrics_and_explanations_still_flow() {
    let (caldera, lineitem, part) = join_engine(CalderaConfig::with_workers(2));
    let plan = brand_revenue_plan(30);
    caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap();
    caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap();
    assert!(caldera.trace_spans().is_empty(), "no spans unless observability.tracing is set");

    let stats = caldera.shutdown();
    let metrics = stats.metrics();
    // Latency histograms and query counters populate regardless.
    let answered: u64 = stats.olap_sites.iter().map(|s| s.queries).sum();
    assert_eq!(answered, 2);
    assert_eq!(metrics.counter("olap.queries"), Some(answered));
    let latency = metrics.histogram("olap.latency.secs").unwrap();
    assert_eq!(latency.count(), stats.olap_sites.iter().map(|s| s.latency.count()).sum::<u64>());
    assert_eq!(latency.count(), 2);
    assert!(latency.p99().unwrap() >= latency.p50().unwrap());
    // The named view reads every section of the typed stats, counters and
    // gauges in their own families.
    assert_eq!(metrics.counter("plan_cache.hash_misses"), Some(stats.plan_cache.hash_misses));
    assert!(metrics.gauge("plan_cache.occupancy_bytes").is_some());
    assert_eq!(metrics.counter("oltp.committed"), Some(stats.oltp.committed));
    assert_eq!(metrics.counter("storage.pages_copied"), Some(stats.cow.pages_copied));
    assert_eq!(metrics.counter("storage.segments_copied"), Some(stats.cow.segments_copied));
    // Every dispatch left a placement explanation with all site estimates.
    assert_eq!(stats.placements.len(), 2);
    for p in &stats.placements {
        assert_eq!(p.estimates.len(), stats.olap_sites.len());
        assert!(!p.forced);
        assert!(p.regret_secs >= 0.0);
        assert_eq!(p.executed, p.chosen);
    }
    assert_eq!(stats.calibration.regret.decisions, 2);
}

#[test]
fn forced_runs_surface_regret_against_the_placement_oracle() {
    // Let placement pick its favourite site freely, then force the other
    // one: the forced dispatch must be explained as a misplacement with
    // positive regret against the oracle's choice.
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 8;
    let (caldera, lineitem, _) = join_engine(config);
    let q =
        h2tap_common::ScanAggQuery::aggregate_only(h2tap_common::AggExpr::SumColumns(vec![tpch::columns::QUANTITY]));
    let free = caldera.run_olap(lineitem, &q).unwrap();
    let other = if free.site == OlapTarget::Cpu { OlapTarget::Gpu } else { OlapTarget::Cpu };
    caldera.run_olap_on(lineitem, &q, other).unwrap();
    let stats = caldera.shutdown();
    assert_eq!(stats.placements.len(), 2, "forced dispatches are explained too");
    let forced = &stats.placements[1];
    assert!(forced.forced);
    assert_eq!(forced.executed, other);
    assert!(forced.misplaced, "the {other:?} estimate was not the argmin");
    assert!(forced.regret_secs > 0.0);
    assert!(forced.estimate(free.site).unwrap() < forced.estimate(other).unwrap());
    // ... but only heuristic decisions count toward the regret summary.
    assert_eq!(stats.calibration.regret.decisions, 1);
    assert_eq!(stats.calibration.regret.misplacements, 0);
}
