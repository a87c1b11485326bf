//! Fresh-process repeats, the value taken from them, and the reports.
//!
//! Every repeat of every workload is its own driver process: memory layout
//! luck (which physical pages the tables land on) lasts for a whole process,
//! so repeats inside one process would agree with each other and still
//! disagree with the next run. Workloads are interleaved round-robin so slow
//! drift of the machine hits all of them alike.
//!
//! An end-to-end value is the **second best** of the five repeats. On a
//! shared machine the noise is one-sided: neighbours only ever slow a repeat
//! down, in bursts of up to a minute that can cover most of a run. The
//! better-side quartile estimates the speed of the undisturbed machine and
//! stays put until four of five repeats are hit; the median gives way at
//! three. The second best and not the best, so one freak repeat cannot set
//! the value. Over ten runs on ten seeds this cut the spread between runs by
//! a fifth to a third against the median (see README).

use crate::analyst::Oracle;
use crate::data::{Scale, Seeds};
use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::procstat::DISTURBED_FOREIGN_CPU_FRAC;
use crate::stats;
use crate::workload::{DriverReport, Workload};
use h2tap_workloads::tpch;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Fresh-process repeats behind every end-to-end value.
pub const REPEATS: u32 = 5;

/// Measured seconds per workload and run, split evenly over the repeats.
/// `BENCHMARK.json`'s `run_seconds` is the same number.
pub const RUN_SECONDS: f64 = 18.0;

/// Relative tolerance between the forced-CPU oracle and the generator's
/// scalar references (which sum in a different order).
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workloads, in run order.
    pub workloads: Vec<Workload>,
    /// The run's seed.
    pub seed: u64,
    /// Measured seconds per workload, over all repeats.
    pub seconds: f64,
    /// Untraced repeats per workload.
    pub repeats: u32,
    /// Whether to add the traced pass.
    pub trace: bool,
    /// Table sizes.
    pub scale: Scale,
    /// Where `htapbench.json` and the trace files go.
    pub out_dir: PathBuf,
}

/// One workload's repeats.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// The counted untraced repeats.
    pub repeats: Vec<DriverReport>,
    /// The traced run, when asked for.
    pub traced: Option<DriverReport>,
    /// Whether the oracles matched the generator's references and the
    /// repeats agreed on the digest.
    pub references_ok: bool,
}

impl WorkloadResult {
    /// The values of one end-to-end metric over the repeats.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.repeats.iter().filter_map(|r| r.metric(name)).collect()
    }

    /// The value of an end-to-end metric: the second best of its repeats
    /// (the only one when there is just one). Zero for a metric nobody
    /// reported.
    pub fn value(&self, name: &str) -> f64 {
        let higher = metrics::find(name).is_some_and(|m| m.better == Better::Higher);
        stats::second_best(&self.values(name), higher).unwrap_or(0.0)
    }

    /// Counted repeats during which other processes used the CPU.
    pub fn disturbed(&self) -> usize {
        self.repeats.iter().filter(|r| r.foreign_cpu_frac > DISTURBED_FOREIGN_CPU_FRAC).count()
    }

    fn reports(&self) -> impl Iterator<Item = &DriverReport> {
        self.repeats.iter().chain(&self.traced)
    }

    /// Operations attempted over every process of the workload.
    pub fn attempted(&self) -> u64 {
        self.reports().map(|r| r.attempted).sum()
    }

    /// Operations failed over every process of the workload.
    pub fn failed(&self) -> u64 {
        self.reports().map(|r| r.failed).sum()
    }

    /// Whether every check of every process passed.
    pub fn correct(&self) -> bool {
        self.references_ok && self.reports().all(|r| r.correct)
    }

    /// The per-layer metrics: the traced driver's, plus what only the
    /// parent knows — tracing overhead against the untraced repeats, and the
    /// health of those repeats.
    pub fn per_layer(&self) -> Vec<(&'static MetricDef, f64)> {
        let Some(traced) = &self.traced else { return Vec::new() };
        let primary = self.workload.primary_metric();
        let untraced = self.value(primary);
        let overhead = match traced.metric(primary) {
            Some(t) if untraced > 0.0 => 1.0 - t / untraced,
            _ => 0.0,
        };
        let spread = metrics::END_TO_END.iter().map(|m| stats::spread_frac(&self.values(m.name))).fold(0.0, f64::max);
        let mut layers = traced.per_layer.clone();
        layers.push(("obs.trace_overhead_frac", overhead));
        layers.push(("bench.disturbed_repeats", self.disturbed() as f64));
        layers.push(("bench.max_repeat_spread_frac", spread));
        // Report in the table's order, every name exactly once.
        metrics::PER_LAYER
            .iter()
            .map(|m| (m, layers.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v)))
            .collect()
    }
}

/// Runs one driver process and parses the report it prints last.
fn spawn_driver(opts: &RunOptions, workload: Workload, repeat: u32, trace: bool) -> Result<DriverReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("driver")
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--repeat", &repeat.to_string()])
        .args(["--seconds", &(opts.seconds / f64::from(REPEATS)).to_string()])
        .arg("--out")
        .arg(&opts.out_dir);
    if trace {
        cmd.arg("--trace");
    }
    if opts.scale == Scale::QUICK {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} driver: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("the {} driver exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("the {} driver printed nothing", workload.name()))?;
    let json = Json::parse(line).map_err(|e| format!("the {} driver's report does not parse: {e}", workload.name()))?;
    DriverReport::from_json(&json).ok_or_else(|| format!("the {} driver's report is incomplete", workload.name()))
}

/// Whether two f64 agree to [`REFERENCE_TOLERANCE`], relatively.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REFERENCE_TOLERANCE * a.abs().max(b.abs())
}

/// Whether `oracle` matches `tpch::q6_reference` and
/// `tpch::brand_revenue_reference` over the data this seed generates.
fn oracle_matches_references(oracle: &Oracle, scale: Scale, seeds: Seeds) -> bool {
    let scan = tpch::q6_reference(scale.lineitem_rows, seeds.lineitem);
    let join =
        tpch::brand_revenue_reference(scale.lineitem_rows, scale.part_rows, 30, seeds.lineitem, seeds.part, false);
    close(oracle.scan, scan)
        && oracle.join.len() == join.len()
        && oracle.join.iter().zip(&join).all(|(got, want)| {
            got.key == want.key
                && got.rows == want.rows
                && got.values.len() == want.values.len()
                && got.values.iter().zip(&want.values).all(|(g, w)| close(*g, *w))
        })
}

/// Runs every repeat of every workload (interleaved), then the traced pass.
pub fn run(opts: &RunOptions) -> Result<Vec<WorkloadResult>, String> {
    let mut results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .map(|&workload| WorkloadResult { workload, repeats: Vec::new(), traced: None, references_ok: true })
        .collect();
    let scheduled = opts.workloads.len() * opts.repeats as usize;
    // A disturbed repeat is rerun once, but at most once per five scheduled
    // repeats, so a noisy machine cannot double the run time.
    let mut reruns_left = scheduled.div_ceil(5);
    for repeat in 0..opts.repeats {
        for result in &mut results {
            let mut report = spawn_driver(opts, result.workload, repeat, false)?;
            if report.foreign_cpu_frac > DISTURBED_FOREIGN_CPU_FRAC && reruns_left > 0 {
                reruns_left -= 1;
                eprintln!(
                    "htapbench: {} repeat {repeat} was disturbed (foreign CPU {:.3} of a core); running it again",
                    result.workload.name(),
                    report.foreign_cpu_frac
                );
                // The rerun counts even if it is disturbed too.
                report = spawn_driver(opts, result.workload, repeat, false)?;
            }
            result.repeats.push(report);
        }
    }
    if opts.trace {
        for result in &mut results {
            result.traced = Some(spawn_driver(opts, result.workload, opts.repeats, true)?);
        }
    }

    // Every process of a workload must have generated the same inputs, and
    // where the tables are still as generated the oracle the drivers
    // compared every answer with must agree with the scalar references.
    let seeds = Seeds::derive(opts.seed);
    let mut reference_verdict: Option<(Oracle, bool)> = None;
    for result in &mut results {
        let mut reports = result.repeats.iter().chain(&result.traced);
        let first = reports.next().ok_or("a workload ran no repeat")?;
        let mut ok = reports.clone().all(|r| r.digest == first.digest);
        if matches!(result.workload, Workload::OlapCached | Workload::OlapFresh) {
            let oracle = first.oracle.as_ref().ok_or("a read-only workload reported no oracle")?;
            ok &= reports.all(|r| r.oracle.as_ref() == Some(oracle));
            // Both read-only workloads see the same tables: check once.
            let verdict = match &reference_verdict {
                Some((checked, verdict)) if checked == oracle => *verdict,
                _ => oracle_matches_references(oracle, opts.scale, seeds),
            };
            reference_verdict = Some((oracle.clone(), verdict));
            ok &= verdict;
        }
        if !ok {
            eprintln!("htapbench: {}: digests or oracle disagree with the references", result.workload.name());
        }
        result.references_ok = ok;
    }
    Ok(results)
}

fn metric_json(def: &MetricDef, value: f64, values: &[f64]) -> Json {
    let mut json = Json::obj()
        .with("unit", def.unit)
        .with("better", def.better.as_str())
        .with("value", value)
        .with("repeats", values)
        .with("spread", stats::spread_frac(values));
    if def.bound > 0.0 {
        json.set("bound", def.bound);
    }
    json
}

/// The whole run as the `htapbench.json` document.
pub fn report_json(opts: &RunOptions, results: &[WorkloadResult]) -> Json {
    let mut workloads = Json::obj();
    for result in results {
        let mut end_to_end = Json::obj();
        for def in metrics::END_TO_END {
            end_to_end.set(def.name, metric_json(def, result.value(def.name), &result.values(def.name)));
        }
        let mut per_layer = Json::obj();
        for (def, value) in result.per_layer() {
            let metric = Json::obj().with("unit", def.unit).with("better", def.better.as_str()).with("value", value);
            per_layer.set(def.name, metric);
        }
        let notes: Vec<Json> = result.reports().flat_map(|r| &r.notes).map(|n| Json::from(n.as_str())).collect();
        workloads.set(
            result.workload.name(),
            Json::obj()
                .with("why", result.workload.why())
                .with("correct", result.correct())
                .with("ops_attempted", result.attempted())
                .with("ops_failed", result.failed())
                .with("disturbed_repeats", result.disturbed() as u64)
                .with(
                    "foreign_cpu_frac",
                    result.repeats.iter().map(|r| Json::Num(r.foreign_cpu_frac)).collect::<Vec<_>>(),
                )
                .with("workload_digest", result.repeats.first().map_or("", |r| r.digest.as_str()))
                .with("notes", notes)
                .with("end_to_end", end_to_end)
                .with("per_layer", per_layer),
        );
    }
    Json::obj()
        .with("benchmark", "htapbench")
        .with("claim", Json::Null)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("repeats", u64::from(opts.repeats))
        .with("lineitem_rows", opts.scale.lineitem_rows)
        .with("part_rows", opts.scale.part_rows)
        .with("available_parallelism", std::thread::available_parallelism().map_or(0, |n| n.get()) as u64)
        .with("workloads", workloads)
}

/// Prints every metric of every workload by name, with its unit.
pub fn print_report(results: &[WorkloadResult]) {
    for result in results {
        println!(
            "\n== {} ==  correct: {}  ops: {} attempted, {} failed  disturbed repeats: {}",
            result.workload.name(),
            result.correct(),
            result.attempted(),
            result.failed(),
            result.disturbed()
        );
        for def in metrics::END_TO_END {
            let values = result.values(def.name);
            let repeats: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<22} {:>14.4} {:<4} ({} is better, bound {:.2}, spread {:.3})  [{}]",
                def.name,
                result.value(def.name),
                def.unit,
                def.better.as_str(),
                def.bound,
                stats::spread_frac(&values),
                repeats.join(", ")
            );
        }
        for (def, value) in result.per_layer() {
            println!("  {:<40} {value:>16.4} {}", def.name, def.unit);
        }
    }
}

/// Writes `htapbench.json` into the output directory.
pub fn write_report(opts: &RunOptions, results: &[WorkloadResult]) -> Result<PathBuf, String> {
    let path = opts.out_dir.join("htapbench.json");
    write_file(&path, &format!("{:#}\n", report_json(opts, results)))?;
    Ok(path)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The one-line result of the benchmark contract for a single workload: the
/// end-to-end metrics of an untraced run, or the per-layer metrics of a
/// traced one.
pub fn contract_line(result: &WorkloadResult, trace: bool) -> Json {
    let mut out = Json::obj();
    if trace {
        for (def, value) in result.per_layer() {
            out.set(def.name, Json::obj().with("value", value).with("unit", def.unit));
        }
    } else {
        for def in metrics::END_TO_END {
            out.set(def.name, Json::obj().with("value", result.value(def.name)).with("unit", def.unit));
        }
    }
    Json::obj()
        .with("correct", result.correct())
        .with("attempted", result.attempted())
        .with("failed", result.failed())
        .with("metrics", out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: Workload, qps: f64, foreign: f64) -> DriverReport {
        DriverReport {
            workload,
            repeat: 0,
            end_to_end: vec![("olap_qps", qps), ("setup_s", 1.0)],
            per_layer: vec![("olap.cache_hit_rate", 1.0)],
            attempted: 100,
            failed: 0,
            correct: true,
            digest: "d".into(),
            foreign_cpu_frac: foreign,
            oracle: None,
            notes: Vec::new(),
        }
    }

    #[test]
    fn the_value_of_a_metric_is_the_second_best_of_its_repeats() {
        let workload = Workload::OlapCached;
        let repeats = [57.5, 58.5, 41.0, 57.2, 57.9].map(|q| report(workload, q, 0.0)).to_vec();
        let result =
            WorkloadResult { workload, repeats, traced: Some(report(workload, 55.0, 0.2)), references_ok: true };
        // Higher is better for a throughput, lower for a time.
        assert_eq!(result.value("olap_qps"), 57.9);
        assert_eq!(result.value("setup_s"), 1.0);
        assert_eq!(result.value("oltp_tps"), 0.0, "nobody reported it");
        assert_eq!(result.disturbed(), 0, "only untraced repeats count as disturbed");
        assert_eq!(result.attempted(), 600);
        let layers = result.per_layer();
        assert_eq!(layers.len(), metrics::PER_LAYER.len());
        let get = |name: &str| layers.iter().find(|(def, _)| def.name == name).unwrap().1;
        assert_eq!(get("olap.cache_hit_rate"), 1.0);
        assert!((get("obs.trace_overhead_frac") - (1.0 - 55.0 / 57.9)).abs() < 1e-12);
        assert!((get("bench.max_repeat_spread_frac") - (58.5 - 41.0) / 57.5).abs() < 1e-12);
        let line = contract_line(&result, false);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.entries().len(), metrics::END_TO_END.len());
        assert_eq!(metrics.get("olap_qps").unwrap().get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn driver_reports_survive_the_pipe() {
        let mut original = report(Workload::HtapMixed, 9.99, 0.031);
        original.oracle = Some(Oracle {
            scan: 1.234_567_890_123e9,
            join: vec![caldera::GroupRow { key: 3, values: vec![0.1 + 0.2, 7.0], rows: 7 }],
        });
        original.notes.push("a \"quoted\" note".into());
        let parsed = DriverReport::from_json(&Json::parse(&original.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, original);
    }
}
