//! The `htapbench` command line.
//!
//! ```text
//! htapbench run [--seed N] [--trace] [--quick] [--out DIR]
//!     every workload, five fresh-process repeats each; prints every metric
//!     by name and unit, checks answers, writes DIR/htapbench.json
//! htapbench bench --workload W --seed N --seconds S --trace 0|1
//!     one workload, as BENCHMARK.json's command runs it; the last line of
//!     standard output is the result object
//! htapbench compare A.json B.json
//!     both medians, the change and the bound for every pair; exits 1 when
//!     B worsened beyond a bound or its failed share rose
//! htapbench driver ...
//!     one repeat in this process (what `run` and `bench` spawn)
//! ```

use htapbench::compare;
use htapbench::data::Scale;
use htapbench::json::Json;
use htapbench::orchestrate::{self, RunOptions, REPEATS, RUN_SECONDS};
use htapbench::workload::{self, DriverOptions, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where reports and traces go unless `--out` says otherwise.
const DEFAULT_OUT_DIR: &str = "htapbench-out";

/// The flags of every subcommand; each reads the ones it knows.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    repeat: Option<u32>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = Some(value()?.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".to_string());
                }
                flags.seconds = Some(seconds);
            }
            "--repeat" => flags.repeat = Some(value()?.parse().map_err(|_| "--repeat takes a whole number")?),
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--quick" => flags.quick = true,
            // `run --trace` is a switch; the contract's `bench --trace 0|1`
            // carries a value.
            "--trace" => {
                flags.trace = match args.clone().next().map(String::as_str) {
                    Some("0" | "1") => args.next().is_some_and(|v| v == "1"),
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => flags.files.push(file.to_string()),
        }
    }
    Ok(flags)
}

impl Flags {
    fn scale(&self) -> Scale {
        if self.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; the workloads are {}", names.join(", "))
        })
    }

    fn run_options(&self, workloads: Vec<Workload>, repeats: u32) -> RunOptions {
        RunOptions {
            workloads,
            seed: self.seed.unwrap_or(1),
            // The smoke test measures one second per repeat.
            seconds: self.seconds.unwrap_or(if self.quick { f64::from(REPEATS) } else { RUN_SECONDS }),
            repeats,
            trace: self.trace,
            scale: self.scale(),
            out_dir: self.out.clone().unwrap_or_else(|| PathBuf::from(DEFAULT_OUT_DIR)),
        }
    }
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let opts = flags.run_options(Workload::ALL.to_vec(), if flags.quick { 1 } else { REPEATS });
    let results = orchestrate::run(&opts)?;
    orchestrate::print_report(&results);
    let path = orchestrate::write_report(&opts, &results)?;
    println!("\nwrote {}", path.display());
    let ok = results.iter().all(|r| r.correct() && r.failed() == 0);
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn bench(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.workload()?;
    // A traced invocation reports per-layer metrics only; its single
    // untraced repeat is the baseline tracing overhead is measured against.
    let repeats = if flags.trace { 1 } else { REPEATS };
    let opts = flags.run_options(vec![workload], repeats);
    let results = orchestrate::run(&opts)?;
    orchestrate::print_report(&results);
    orchestrate::write_report(&opts, &results)?;
    println!("{}", orchestrate::contract_line(&results[0], flags.trace));
    Ok(ExitCode::SUCCESS)
}

fn driver(flags: &Flags) -> Result<ExitCode, String> {
    let opts = DriverOptions {
        workload: flags.workload()?,
        seed: flags.seed.unwrap_or(1),
        repeat: flags.repeat.unwrap_or(0),
        seconds: flags.seconds.unwrap_or(RUN_SECONDS / f64::from(REPEATS)),
        trace: flags.trace,
        scale: flags.scale(),
        out_dir: flags.out.clone().unwrap_or_else(|| PathBuf::from(DEFAULT_OUT_DIR)),
    };
    let report = workload::run(&opts).map_err(|e| format!("the {} driver failed: {e}", opts.workload.name()))?;
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

fn compare_files(flags: &Flags) -> Result<ExitCode, String> {
    let [a, b] = flags.files.as_slice() else { return Err("compare takes two report files".to_string()) };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path} does not parse: {e}"))
    };
    let comparison = compare::compare(&read(a)?, &read(b)?)?;
    compare::print(&comparison);
    Ok(if comparison.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) => parse_flags(rest).and_then(|flags| match command.as_str() {
            "run" => run(&flags),
            "bench" => bench(&flags),
            "driver" => driver(&flags),
            "compare" => compare_files(&flags),
            other => Err(format!("unknown command {other:?}; the commands are run, bench, driver and compare")),
        }),
        None => Err("usage: htapbench run|bench|driver|compare ... (see benchmark/README.md)".to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("htapbench: {message}");
        ExitCode::from(2)
    })
}
