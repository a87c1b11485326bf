//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p h2tap-bench --bin experiments -- all
//! cargo run --release -p h2tap-bench --bin experiments -- table1 fig1 fig4
//! cargo run --release -p h2tap-bench --bin experiments -- fig5 --quick
//! ```
//!
//! `--quick` shrinks data sizes and sweep points so the full set finishes in
//! about a minute; without it the defaults match the scaled configuration
//! that the "Experiments → figures" table of README.md documents.

#![forbid(unsafe_code)]

use h2tap_bench::experiments as exp;
use std::time::Duration;

struct Scale {
    lineitem_rows: u64,
    layout_rows: u64,
    fig1_bytes: u64,
    oltp_workers: usize,
    window: Duration,
    working_sets: Vec<u32>,
    sharing_sweep: Vec<u32>,
    core_counts: Vec<usize>,
    multisite_pcts: Vec<u32>,
}

impl Scale {
    fn full() -> Self {
        Self {
            lineitem_rows: exp::DEFAULT_LINEITEM_ROWS,
            layout_rows: 400_000,
            fig1_bytes: 2 << 30,
            oltp_workers: 4,
            window: Duration::from_millis(1500),
            working_sets: vec![1, 2, 4, 8, 16, 32, 64, 100],
            sharing_sweep: vec![10, 20, 40, 70, 100],
            core_counts: vec![1, 2, 4, 8],
            multisite_pcts: vec![0, 20, 40, 60, 80, 100],
        }
    }

    fn quick() -> Self {
        Self {
            lineitem_rows: 60_000,
            layout_rows: 60_000,
            fig1_bytes: 256 << 20,
            oltp_workers: 2,
            window: Duration::from_millis(300),
            working_sets: vec![1, 16, 100],
            sharing_sweep: vec![10, 50, 100],
            core_counts: vec![1, 2, 4],
            multisite_pcts: vec![0, 50, 100],
        }
    }
}

/// Every experiment `main` can run, in run order.
const EXPERIMENTS: &str =
    "table1 fig1 fig4 placement operators multigpu hostperf chaos calibration fig5 fig6 fig7 fig8 fig9 ledger fig10 fig11";

fn is_experiment(name: &str) -> bool {
    EXPERIMENTS.split_whitespace().any(|e| e == name)
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn model_line(m: &h2tap_scheduler::CostModel) -> String {
    format!(
        "per-tuple {:.1} ns | per-core bw {:.2} GB/s | gpu dispatch {:.1} us | gpu bw scale {:.2}",
        m.cpu_per_tuple_ns,
        m.cpu_core_bandwidth_gbps,
        m.gpu_dispatch_overhead_secs * 1e6,
        m.gpu_bandwidth_scale
    )
}

fn model_json(m: &h2tap_scheduler::CostModel) -> String {
    format!(
        "{{\"cpu_per_tuple_ns\":{},\"cpu_core_bandwidth_gbps\":{},\"gpu_dispatch_overhead_secs\":{},\"gpu_bandwidth_scale\":{}}}",
        m.cpu_per_tuple_ns, m.cpu_core_bandwidth_gbps, m.gpu_dispatch_overhead_secs, m.gpu_bandwidth_scale
    )
}

/// Serialises the calibration summary to JSON by hand — the workspace's
/// offline serde stand-in has no serializer, and the artifact format is
/// small and stable (tracked across PRs as `BENCH_calibration.json`).
fn calibration_json(s: &exp::CalibrationSummary) -> String {
    let misplaced: Vec<String> = s.rows.iter().filter(|r| !r.agree).map(|r| r.query.to_string()).collect();
    format!(
        "{{\n  \"queries\": {},\n  \"warmup_queries\": {},\n  \"agreement_early\": {:.4},\n  \
         \"agreement_steady\": {:.4},\n  \"cpu_mean_rel_error\": {:.4},\n  \"gpu_mean_rel_error\": {:.4},\n  \
         \"misplaced_queries\": [{}],\n  \"initial_model\": {},\n  \"calibrated_model\": {}\n}}\n",
        s.queries,
        s.warmup_queries,
        s.agreement_early,
        s.agreement_steady,
        s.cpu_mean_rel_error,
        s.gpu_mean_rel_error,
        misplaced.join(","),
        model_json(&s.initial_model),
        model_json(&s.calibrated_model)
    )
}

/// Serialises the host-path wall-clock summary to JSON by hand (the offline
/// serde stand-in has no serializer; the artifact is tracked across PRs as
/// `BENCH_hostperf.json`).
fn hostperf_json(s: &exp::HostPerfSummary) -> String {
    let kernel: Vec<String> = s
        .kernel
        .iter()
        .map(|k| {
            format!(
                "  {{\"plan\":\"{}\",\"reference_ns_per_row\":{:.3},\"baseline_ns_per_row\":{:.3},\
                 \"dispatched_ns_per_row\":{:.3}}}",
                k.plan, k.reference_ns_per_row, k.baseline_ns_per_row, k.dispatched_ns_per_row
            )
        })
        .collect();
    let refresh: Vec<String> = s
        .refresh
        .iter()
        .map(|r| {
            format!(
                "  {{\"dirty_pct\":{},\"dirty_chunks\":{},\"chunks\":{},\"rebuild_ms\":{:.3},\"cold_ms\":{:.3},\
                 \"rebuild_cold_ratio\":{:.3},\"chunks_reused\":{},\"chunks_rebuilt\":{}}}",
                r.dirty_pct,
                r.dirty_chunks,
                r.chunks,
                r.rebuild_ms,
                r.cold_ms,
                r.rebuild_cold_ratio,
                r.chunks_reused,
                r.chunks_rebuilt
            )
        })
        .collect();
    format!(
        "{{\n\"isa\": \"{}\",\n\"kernel\": [\n{}\n],\n\"refresh\": [\n{}\n],\n\
         \"snapshot\": {{\"rows\":{},\"snapshot_us\":{:.3},\"row_count_us\":{:.3},\"drop_us\":{:.3},\
         \"column_into_us\":{:.3},\"ratio\":{:.4}}}\n}}\n",
        s.isa,
        kernel.join(",\n"),
        refresh.join(",\n"),
        s.snapshot.rows,
        s.snapshot.snapshot_us,
        s.snapshot.row_count_us,
        s.snapshot.drop_us,
        s.snapshot.column_into_us,
        s.snapshot.ratio()
    )
}

/// Serialises the chaos summary to JSON by hand (the offline serde
/// stand-in has no serializer; the artifact is tracked across PRs as
/// `BENCH_chaos.json`).
fn chaos_json(s: &exp::ChaosSummary) -> String {
    let items: Vec<String> = s
        .phases
        .iter()
        .map(|p| {
            format!(
                "  {{\"phase\":\"{}\",\"clients\":{},\"queries\":{},\"client_errors\":{},\"wrong_answers\":{},\
                 \"availability\":{:.6},\"faults\":{},\"retries\":{},\"fallbacks\":{},\"gpu_quarantines\":{},\
                 \"wall_ms\":{:.3},\"latency\":{}}}",
                p.phase,
                p.clients,
                p.queries,
                p.client_errors,
                p.wrong_answers,
                p.availability,
                p.faults,
                p.retries,
                p.fallbacks,
                p.gpu_quarantines,
                p.wall_ms,
                p.latency.json()
            )
        })
        .collect();
    format!(
        "{{\n\"availability\": {:.6},\n\"wrong_answers\": {},\n\"client_errors\": {},\n\"time_to_recover_ms\": \
         {:.3},\n\"final_gpu_state\": \"{}\",\n\"phases\": [\n{}\n]\n}}\n",
        s.availability,
        s.wrong_answers,
        s.client_errors,
        s.time_to_recover_ms,
        s.final_gpu_state,
        items.join(",\n")
    )
}

/// Serialises the multi-GPU sweep to JSON by hand (the offline serde
/// stand-in has no serializer; the artifact is tracked across PRs as
/// `BENCH_multigpu.json`).
fn multigpu_json(rows: &[exp::GpuMixRow]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mix\":\"{}\",\"devices\":{},\"placement\":\"{}\",\"lineitem_rows\":{},\"chosen\":\"{}\",\
                 \"cpu_ms\":{:.4},\"gpu_ms\":{:.4}}}",
                r.mix, r.devices, r.placement, r.lineitem_rows, r.chosen, r.cpu_ms, r.gpu_ms
            )
        })
        .collect();
    format!("{{\n\"configurations\": {},\n\"rows\": [\n{}\n]\n}}\n", rows.len(), items.join(",\n"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let trace_out: Option<String> = args.iter().position(|a| a == "--trace-out").and_then(|i| args.get(i + 1)).cloned();
    // Flag values must not be mistaken for experiment names.
    let mut selected: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--trace-out" {
            skip_next = true;
        } else if !a.starts_with("--") {
            selected.push(a.clone());
        }
    }
    // A misspelt name must fail loudly: it would otherwise run nothing and
    // exit 0, and a CI step that calls it would pass without running.
    let unknown: Vec<&String> = selected.iter().filter(|a| *a != "all" && !is_experiment(a)).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {unknown:?}; known: all {EXPERIMENTS}");
        std::process::exit(2);
    }
    let run_all = selected.is_empty() || selected.iter().any(|a| a == "all");
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let wants = |name: &str| {
        debug_assert!(is_experiment(name), "{name} is missing from EXPERIMENTS");
        run_all || selected.iter().any(|a| a == name)
    };

    if wants("table1") {
        header("Table 1: GPU generations");
        println!(
            "{:<14} {:<9} {:>6} {:>10} {:>9} {:>9} {:>9} {:>7}",
            "GPU", "Arch", "Cores", "GFLOPS", "Mem(MB)", "BW(GB/s)", "I/f", "I/f GB/s"
        );
        for r in exp::table1() {
            println!(
                "{:<14} {:<9} {:>6} {:>10.1} {:>9} {:>9.1} {:>9} {:>7.0}",
                r.gpu,
                r.architecture,
                r.cores,
                r.fp32_gflops,
                r.mem_capacity_mib,
                r.mem_bandwidth_gbps,
                r.interface,
                r.interface_gbps
            );
        }
    }

    if wants("fig1") {
        header("Figure 1: scan execution time under Fermi/Maxwell (5 filter queries)");
        for r in exp::fig1(scale.fig1_bytes) {
            let per: Vec<String> = r.per_query_secs.iter().map(|t| format!("{t:.3}")).collect();
            println!("{:<22} {:<7} total {:>7.3}s  per-query [{}]", r.gpu, r.mode, r.total_secs, per.join(", "));
        }
    }

    if wants("fig4") {
        header("Figure 4: TPC-H Q6, GPU Caldera vs CPU column stores");
        let rows = exp::fig4(scale.lineitem_rows);
        for r in &rows {
            println!("{:<16} {:>9.4}s   revenue {:.2}", r.engine, r.seconds, r.revenue);
        }
        if let (Some(gpu), Some(monet)) =
            (rows.iter().find(|r| r.engine.contains("Caldera")), rows.iter().find(|r| r.engine.contains("MonetDB")))
        {
            println!("-> Caldera speedup over MonetDB: {:.2}x", monet.seconds / gpu.seconds);
        }
    }

    if wants("placement") {
        header("Placement: CPU/GPU crossover for Q6 (data size x residency)");
        println!(
            "{:<10} {:>16} {:>6} {:>12} {:>8} {:>12} {:>12}",
            "rows", "placement", "cores", "scan bytes", "chosen", "cpu (ms)", "gpu (ms)"
        );
        let sweep: Vec<u64> = if quick { vec![5_000, 120_000] } else { vec![5_000, 20_000, 60_000, 120_000, 300_000] };
        for r in exp::fig_placement(&sweep, 24) {
            println!(
                "{:<10} {:>16} {:>6} {:>12} {:>8} {:>12.4} {:>12.4}",
                r.lineitem_rows,
                r.placement,
                r.cpu_cores,
                r.bytes_to_scan,
                r.chosen,
                r.cpu_secs * 1e3,
                r.gpu_secs * 1e3
            );
        }
    }

    if wants("operators") {
        header("Operators: join/group-by placement vs pure scans (selectivity x group cardinality)");
        println!(
            "{:<16} {:>9} {:>8} {:>7} {:>8} {:>11} {:>6} {:>6} {:>12} {:>12}",
            "placement",
            "max_size",
            "group",
            "groups",
            "joined",
            "plan chosen",
            "scan",
            "agree",
            "cpu (ms)",
            "gpu (ms)"
        );
        let (rows, parts) = if quick { (60_000, 2_000) } else { (scale.lineitem_rows, 20_000) };
        for r in exp::fig_operators(rows, parts, 24) {
            println!(
                "{:<16} {:>9} {:>8} {:>7} {:>8} {:>11} {:>6} {:>6} {:>12.4} {:>12.4}",
                r.placement,
                r.max_size,
                r.group_by,
                r.groups,
                r.joined_rows,
                r.plan_chosen,
                r.scan_chosen,
                if r.plan_chosen == r.scan_chosen { "same" } else { "DIFF" },
                r.cpu_secs * 1e3,
                r.gpu_secs * 1e3
            );
        }
    }

    if wants("multigpu") {
        header("Multi-GPU: device-list x residency sweep with two-way routing");
        println!(
            "{:<18} {:>4} {:>16} {:>10} {:>10} {:>12} {:>12}",
            "mix", "devs", "placement", "rows", "chosen", "cpu (ms)", "gpu (ms)"
        );
        let sweep: Vec<u64> = if quick { vec![5_000, 150_000] } else { vec![5_000, 60_000, 150_000, 300_000] };
        let rows = exp::fig_multigpu(&sweep, 24);
        for r in &rows {
            println!(
                "{:<18} {:>4} {:>16} {:>10} {:>10} {:>12.4} {:>12.4}",
                r.mix, r.devices, r.placement, r.lineitem_rows, r.chosen, r.cpu_ms, r.gpu_ms
            );
        }
        let mix_won = rows.iter().filter(|r| r.devices > 1 && r.chosen == "gpu").count();
        println!("-> {mix_won} of {} configurations routed to a multi-device GPU site", rows.len());
        if json {
            let path = "BENCH_multigpu.json";
            std::fs::write(path, multigpu_json(&rows)).expect("write multi-GPU summary");
            println!("wrote {path}");
        }
    }

    if wants("hostperf") {
        header("Host path: real wall-clock of the chunk kernel, refresh and snapshot, each against its reference");
        let (rows, parts, repeats) = if quick { (120_000, 5_000, 6) } else { (scale.lineitem_rows, 20_000, 10) };
        let s = exp::fig_hostperf(rows, parts, repeats);
        println!(
            "{:<12} {:>17} {:>16} {:>18}   (dispatched to: {})",
            "kernel", "reference ns/row", "baseline ns/row", "dispatched ns/row", s.isa
        );
        for k in &s.kernel {
            println!(
                "{:<12} {:>17.3} {:>16.3} {:>18.3}",
                k.plan, k.reference_ns_per_row, k.baseline_ns_per_row, k.dispatched_ns_per_row
            );
        }
        println!(
            "{:<12} {:>14} {:>12} {:>10} {:>14} {:>10} {:>10}",
            "refresh", "dirty chunks", "rebuild ms", "cold ms", "median ratio", "reused", "rebuilt"
        );
        for r in &s.refresh {
            println!(
                "{:<12} {:>14} {:>12.3} {:>10.3} {:>14.3} {:>10} {:>10}",
                format!("{}% dirty", r.dirty_pct),
                format!("{} of {}", r.dirty_chunks, r.chunks),
                r.rebuild_ms,
                r.cold_ms,
                r.rebuild_cold_ratio,
                r.chunks_reused,
                r.chunks_rebuilt
            );
        }
        let snap = &s.snapshot;
        println!(
            "{:<12} {:>10} rows: snapshot {:.1} us + first row_count {:.1} us + drop {:.1} us = {:.4} x one \
             column_into ({:.1} us)",
            "snapshot",
            snap.rows,
            snap.snapshot_us,
            snap.row_count_us,
            snap.drop_us,
            snap.ratio(),
            snap.column_into_us
        );
        // Release-mode acceptance gate: this binary is a dedicated process
        // (CI runs it as the hostperf smoke step), so the min-based timings
        // are clean and the thresholds are enforceable. Debug builds keep
        // their bounds checks and closure frames, so the wall-clock ratios
        // are meaningless there and the gate is compiled out with the
        // optimisations.
        #[cfg(not(debug_assertions))]
        {
            // Vectorization beats row-at-a-time on every plan; the ISA
            // dispatch never costs anything, and where it has AVX2 to
            // dispatch to it is worth at least 30 % on Q6.
            for k in &s.kernel {
                assert!(
                    k.dispatched_ns_per_row < k.reference_ns_per_row,
                    "kernel {}: dispatched {:.3} ns/row does not beat the row-at-a-time reference {:.3}",
                    k.plan,
                    k.dispatched_ns_per_row,
                    k.reference_ns_per_row
                );
                let limit = if s.isa == "avx2" && k.plan == "q6" { 0.7 } else { 1.05 };
                assert!(
                    k.dispatched_ns_per_row <= limit * k.baseline_ns_per_row,
                    "kernel {}: dispatched {:.3} ns/row is over {limit} x the baseline {:.3}",
                    k.plan,
                    k.dispatched_ns_per_row,
                    k.baseline_ns_per_row
                );
            }
            // A batch whose rows all pass the predicate streams like the
            // dense plan: an all-pass predicate costs its own column pass on
            // top of the dense plan, not a gather through an identity
            // selection vector (2.8-3.0 x dense when it did, at --quick).
            let kernel_ns =
                |plan: &str| s.kernel.iter().find(|k| k.plan == plan).expect("a kernel leg row").dispatched_ns_per_row;
            let (all_pass, dense) = (kernel_ns("pass-100%"), kernel_ns("dense"));
            let limit = if s.isa == "avx2" { 2.0 } else { 2.5 };
            assert!(
                all_pass <= limit * dense,
                "kernel pass-100%: {all_pass:.3} ns/row is over {limit} x the dense plan's {dense:.3}"
            );
            // A refresh costs what was written: nothing dirty is a segment
            // walk, everything dirty is no slower than never having had a
            // base. Gated on the median of the passes' paired ratios.
            for r in &s.refresh {
                let limit = match r.dirty_pct {
                    0 => 0.25,
                    100 => 1.10,
                    _ => continue,
                };
                assert!(
                    r.rebuild_cold_ratio <= limit,
                    "refresh with {}% of chunks dirty took a median {:.3} x the cold materialisation, over {limit} x \
                     (fastest {:.3} ms against {:.3} ms)",
                    r.dirty_pct,
                    r.rebuild_cold_ratio,
                    r.rebuild_ms,
                    r.cold_ms
                );
            }
            // Taking, indexing and dropping a snapshot of an unwritten table
            // costs its segments: a small fraction of copying one column out.
            assert!(
                snap.ratio() <= 0.05,
                "snapshot + first row_count + drop took {:.1} us, over 0.05 x one column_into ({:.1} us)",
                snap.snapshot_us + snap.row_count_us + snap.drop_us,
                snap.column_into_us
            );
        }
        if json {
            let path = "BENCH_hostperf.json";
            std::fs::write(path, hostperf_json(&s)).expect("write hostperf summary");
            println!("wrote {path}");
        }
    }

    if wants("chaos") {
        header("Chaos: concurrent serving under seeded fault plans, bit-checked against a fault-free oracle");
        println!(
            "{:<16} {:>8} {:>8} {:>7} {:>7} {:>9} {:>7} {:>8} {:>10} {:>9} {:>9}",
            "phase",
            "queries",
            "errors",
            "wrong",
            "faults",
            "retries",
            "fbacks",
            "quarant",
            "avail %",
            "p50 ms",
            "p99 ms"
        );
        let (rows, clients, per_client) = if quick { (40_000, 4, 8) } else { (120_000, 8, 16) };
        let s = exp::fig_chaos(rows, clients, per_client);
        for p in &s.phases {
            println!(
                "{:<16} {:>8} {:>8} {:>7} {:>7} {:>9} {:>7} {:>8} {:>10.2} {:>9.3} {:>9.3}",
                p.phase,
                p.queries,
                p.client_errors,
                p.wrong_answers,
                p.faults,
                p.retries,
                p.fallbacks,
                p.gpu_quarantines,
                p.availability * 100.0,
                p.latency.p50_ms,
                p.latency.p99_ms
            );
        }
        println!(
            "-> availability {:.2}% | wrong answers {} | time-to-recover {:.2} ms | final gpu breaker: {}",
            s.availability * 100.0,
            s.wrong_answers,
            s.time_to_recover_ms,
            s.final_gpu_state
        );
        // Release-mode acceptance gate: under the default transient-storm and
        // device-loss plans the resilience ladder must keep serving (>= 99%
        // availability) and must never trade correctness for liveness.
        #[cfg(not(debug_assertions))]
        {
            assert!(s.availability >= 0.99, "chaos availability fell below 99%: {:.4}", s.availability);
            assert_eq!(s.wrong_answers, 0, "a fault path changed an answer");
            assert_eq!(s.client_errors, 0, "a fault leaked to a client as an error");
            assert!(s.time_to_recover_ms > 0.0, "device loss never fired, recovery was not measured");
        }
        if json {
            let path = "BENCH_chaos.json";
            std::fs::write(path, chaos_json(&s)).expect("write chaos summary");
            println!("wrote {path}");
        }
    }

    if wants("calibration") {
        header("Calibration: placement feedback loop from deliberately wrong cost constants");
        let queries = if quick { 80 } else { 200 };
        let s = exp::fig_calibration(queries, 24);
        println!("seed model:       {}", model_line(&s.initial_model));
        println!("calibrated model: {}", model_line(&s.calibrated_model));
        println!(
            "oracle agreement: {:>5.1}% during warm-up | {:>5.1}% after the first 50 observations",
            s.agreement_early * 100.0,
            s.agreement_steady * 100.0
        );
        println!(
            "steady-state prediction error: cpu {:.1}% | gpu {:.1}%",
            s.cpu_mean_rel_error * 100.0,
            s.gpu_mean_rel_error * 100.0
        );
        let misses: Vec<u64> = s.rows.iter().filter(|r| !r.agree).map(|r| r.query).collect();
        println!(
            "{} of {} queries disagreed with the forced-site oracle (query indexes {:?})",
            misses.len(),
            s.queries,
            misses
        );
        if json {
            let path = "BENCH_calibration.json";
            std::fs::write(path, calibration_json(&s)).expect("write calibration summary");
            println!("wrote {path}");
        }
    }

    if wants("fig5") {
        header("Figure 5: OLTP throughput vs working set and snapshot frequency");
        println!("{:<18} {:>12} {:>14}", "queries/snapshot", "working set %", "OLTP KTps");
        for r in exp::fig5(scale.lineitem_rows, scale.oltp_workers, &scale.working_sets) {
            println!("{:<18} {:>12} {:>14.1}", r.queries_per_snapshot, r.working_set_pct, r.oltp_tps / 1e3);
        }
    }

    if wants("fig6") {
        header("Figure 6: OLAP response time vs OLTP working set (one shared snapshot)");
        println!("{:<14} {:>10} {:>10} {:>10} {:>12}", "working set %", "avg (s)", "min (s)", "max (s)", "COW pages");
        for r in exp::fig6(scale.lineitem_rows, scale.oltp_workers, &scale.working_sets) {
            println!(
                "{:<14} {:>10.4} {:>10.4} {:>10.4} {:>12}",
                r.working_set_pct, r.olap_avg_secs, r.olap_min_secs, r.olap_max_secs, r.cow_pages
            );
        }
    }

    if wants("fig7") {
        header("Figure 7: snapshot sharing sweep at 100% working set");
        println!("{:<14} {:>12} {:>12}", "#OLAP queries", "OLAP avg (s)", "OLTP KTps");
        for r in exp::fig7(scale.lineitem_rows, scale.oltp_workers, &scale.sharing_sweep) {
            println!("{:<14} {:>12.4} {:>12.1}", r.olap_queries, r.olap_avg_secs, r.oltp_tps / 1e3);
        }
    }

    if wants("fig8") {
        header("Figure 8: TPC-C NewOrder scalability (Caldera vs Silo)");
        println!("{:<8} {:<10} {:>12}", "cores", "system", "KTps");
        for r in exp::fig8(&scale.core_counts, scale.window) {
            println!("{:<8} {:<10} {:>12.1}", r.x, r.system, r.tps / 1e3);
        }
    }

    if wants("fig9") {
        header("Figure 9: multi-site transaction sensitivity");
        println!("{:<14} {:<10} {:>12}", "multisite %", "system", "KTps");
        for r in exp::fig9(scale.oltp_workers.max(2), 50_000, &scale.multisite_pcts, scale.window) {
            println!("{:<14} {:<10} {:>12.1}", r.x, r.system, r.tps / 1e3);
        }
    }

    if wants("ledger") {
        header("Work ledger: what each Caldera point of figures 5-9 counted (seed 1)");
        let ledger = exp::ledger(1);
        print!("{ledger}");
        if json {
            let path = "BENCH_ledger.json";
            std::fs::write(path, &ledger).expect("write work ledger");
            println!("wrote {path}");
        }
    }

    if wants("fig10") {
        header("Figure 10: layouts over UVA (host-resident), SUM(col1..colN)");
        println!("{:<6} {:>11} {:>12}", "layout", "attributes", "seconds");
        for r in exp::fig10(scale.layout_rows, &[1, 2, 4, 8, 16]) {
            println!("{:<6} {:>11} {:>12.4}", r.layout, r.attributes, r.seconds);
        }
    }

    if wants("fig11") {
        header("Figure 11: layouts with GPU-resident data (2 of 16 attributes)");
        println!("{:<24} {:<6} {:>12}", "GPU", "layout", "milliseconds");
        for r in exp::fig11(scale.layout_rows) {
            println!("{:<24} {:<6} {:>12.3}", r.gpu, r.layout, r.seconds * 1e3);
        }
    }

    if let Some(path) = trace_out {
        header("Trace: brand-revenue join stream with query tracing enabled");
        let (rows, parts, queries) = if quick { (60_000, 4_000, 4) } else { (200_000, 20_000, 8) };
        let trace = exp::capture_trace(rows, parts, queries);
        std::fs::write(&path, &trace).expect("write Chrome trace");
        println!(
            "wrote {path} ({} bytes, {queries} queries x {rows} rows) — open in chrome://tracing or ui.perfetto.dev",
            trace.len()
        );
    }
}
