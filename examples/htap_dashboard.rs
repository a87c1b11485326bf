//! A realistic HTAP scenario: an order-processing workload updates the
//! lineitem table on the CPU archipelago while an analyst dashboard refreshes
//! TPC-H Q6 and a brand-revenue join (`lineitem ⋈ part`, grouped by brand) on
//! the data-parallel archipelago, demonstrating the freshness/performance
//! trade-off of snapshot sharing (Section 5.1 of the paper) and per-query
//! CPU/GPU routing: streaming scans and random-access join plans can land on
//! different sites, and `HtapStats::olap_sites` makes that visible.
//!
//! ```text
//! cargo run --release --example htap_dashboard
//! ```

use caldera::{Caldera, CalderaConfig, SnapshotPolicy};
use caldera_repro as _;
use h2tap_obs::format_latency_secs;
use h2tap_oltp::OltpConfig;
use h2tap_storage::Layout;
use h2tap_workloads::tpch::{self, q6};
use h2tap_workloads::ycsb::{YcsbConfig, YcsbGenerator};
use std::sync::Arc;
use std::time::Duration;

fn run_scenario(queries_per_snapshot: u32) {
    let workers = 4;
    let rows = 120_000u64;
    let parts = 5_000u64;
    let mut config = CalderaConfig::with_workers(workers);
    config.oltp = OltpConfig::with_workers(workers);
    // Give the data-parallel archipelago CPU cores so the scheduler has a
    // real choice between the sites, and a two-generation device pair as the
    // GPU site, so the argmin weighs the CPU against a sharded device mix.
    config.olap_cpu_cores = 8;
    config.olap_device.gpus = h2tap_gpu_sim::table1_mix(2);
    config.snapshot_policy = SnapshotPolicy::EveryN { queries: queries_per_snapshot };
    // A dashboard wants to know where its refresh time goes: turn on query
    // tracing so the last refresh can be broken into typed spans below.
    config.observability.tracing = true;
    let mut builder = Caldera::builder(config);
    let lineitem = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, rows, 2024).unwrap();
    let part = tpch::load_part(&mut builder, Layout::PAPER_PAX, parts, 2025).unwrap();
    builder.set_generator(Arc::new(YcsbGenerator::new(YcsbConfig {
        working_set_pct: 25,
        ..YcsbConfig::paper_default(lineitem, rows, workers as u64)
    })));
    let caldera = builder.start().unwrap();

    // The "dashboard": ten Q6 refreshes plus ten brand-revenue join refreshes
    // while order processing runs.
    let query = q6();
    let brand_plan = tpch::brand_revenue_plan(30);
    let caldera_ref = &caldera;
    let (window, q6_times, join_times) = std::thread::scope(|scope| {
        let oltp = scope.spawn(move || caldera_ref.run_oltp_window(Duration::from_millis(800)));
        let mut scans = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..10 {
            scans.push(caldera_ref.run_olap(lineitem, &query).unwrap().time.as_millis_f64());
            joins.push(caldera_ref.run_olap_plan(lineitem, Some(part), &brand_plan).unwrap().time.as_millis_f64());
        }
        (oltp.join().unwrap().unwrap(), scans, joins)
    });
    let spans = caldera.trace_spans();
    let stats = caldera.shutdown();

    // Query times are read from the simulated site clock, OLTP throughput
    // from the wall clock: label which is which.
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    println!(
        "snapshot shared by {queries_per_snapshot:>2} queries | OLTP {:>8.1} KTps | Q6 avg {:>7.2} ms (simulated) | \
         join avg {:>7.2} ms (simulated) | {} snapshots, {} pages shadow-copied",
        window.throughput_tps / 1e3,
        avg(&q6_times),
        avg(&join_times),
        stats.snapshots_taken,
        stats.cow.pages_copied,
    );
    // The shared plan-data cache: how much of the host data path the
    // dashboard's repeated queries amortised across snapshots and sites.
    let cache = stats.plan_cache;
    println!(
        "    plan-data cache: {:>3} hits / {:>3} misses ({} invalidated) | hit rate {} | {:>7.1} KiB held, \
         {} evicted{}",
        cache.hits(),
        cache.misses(),
        cache.invalidations,
        cache.hit_rate().map_or("  n/a".to_string(), |r| format!("{:>5.1}%", r * 100.0)),
        cache.occupancy_bytes as f64 / 1024.0,
        cache.evictions,
        cache.budget_bytes.map_or(String::new(), |b| format!(" (budget {:.1} KiB)", b as f64 / 1024.0)),
    );
    // Per-site routing: where the scheduler actually placed the 20 queries,
    // and how well the continuously calibrated cost model predicted each
    // site (the placement feedback loop).
    for site in &stats.olap_sites {
        let error =
            stats.prediction_error_on(site.target).map_or("     n/a".to_string(), |e| format!("{:>7.1}%", e * 100.0));
        println!(
            "    site {:<4} ({:?}): {:>2} queries, {:>9.2} ms simulated, prediction error {}, breaker {}",
            site.label,
            site.target,
            site.queries,
            site.time.as_millis_f64(),
            error,
            site.health.state.name(),
        );
    }
    // Graceful degradation: what the resilience ladder absorbed. On this
    // fault-free run every counter should read zero — the point of printing
    // them is that a real deployment's dashboard would watch them climb.
    let res = &stats.resilience;
    println!(
        "    resilience: {} faults observed, {} in-place retries, {} site fallbacks",
        res.faults, res.retries, res.fallbacks,
    );
    // Observability, from the named metrics view: OLAP latency percentiles
    // over all twenty refreshes, what the OLTP side did meanwhile, what
    // the snapshots cost the writers and what their drops gave back; then the three slowest spans of the
    // final join refresh — where its time went.
    let metrics = stats.metrics();
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    if let Some(latency) = metrics.histogram("olap.latency.secs") {
        println!("    olap latency (simulated): {}", format_latency_secs(latency));
    }
    println!(
        "    oltp: {} committed, {} aborted, {} remote requests, {} messages",
        count("oltp.committed"),
        count("oltp.aborted"),
        count("oltp.remote_requests"),
        count("oltp.messages"),
    );
    println!(
        "    storage: {} pages / {:.1} KiB shadow-copied ({} segments copied), {} in-place updates, \
         {} pages / {:.1} KiB reclaimed, {} live snapshots",
        count("storage.pages_copied"),
        count("storage.bytes_copied") as f64 / 1024.0,
        count("storage.segments_copied"),
        count("storage.in_place_updates"),
        count("storage.pages_reclaimed"),
        count("storage.bytes_reclaimed") as f64 / 1024.0,
        metrics.gauge("storage.live_snapshots").unwrap_or(0.0),
    );
    if let Some(last_query) = spans.iter().map(|s| s.query).max() {
        let mut top: Vec<_> = spans.iter().filter(|s| s.query == last_query).collect();
        top.sort_by(|a, b| b.event.dur_secs.total_cmp(&a.event.dur_secs));
        let line: Vec<String> =
            top.iter().take(3).map(|s| format!("{} {:.1} us", s.event.kind.label(), s.event.dur_secs * 1e6)).collect();
        println!("    last refresh's top spans: {}", line.join(" | "));
    }
    let model = stats.calibration.model;
    println!(
        "    calibrated model: {:.1} ns/tuple | {:.2} GB/s/core | {:.1} us gpu dispatch | gpu bw scale {:.2}",
        model.cpu_per_tuple_ns,
        model.cpu_core_bandwidth_gbps,
        model.gpu_dispatch_overhead_secs * 1e6,
        model.gpu_bandwidth_scale,
    );
}

fn main() {
    println!("Order processing (YCSB-style updates) + Q6 & brand-revenue dashboard on shared data\n");
    // Maximum freshness: every dashboard refresh takes a new snapshot.
    run_scenario(1);
    // Trade freshness for throughput: the 20 dashboard queries (10 scans +
    // 10 join plans) share two snapshots instead of taking twenty.
    run_scenario(10);
}
