//! CLI for the workspace lint engine.
//!
//! ```text
//! cargo run -p h2tap-analysis --release -- --deny
//! cargo run -p h2tap-analysis --release -- --root crates/analysis/tests/fixtures/known_bad --deny
//! ```
//!
//! Writes the machine-readable report (default `ANALYSIS.json`) and prints
//! a human summary. With `--deny`, exits non-zero when any finding lacks a
//! reasoned `// h2tap: allow(<lint>) — <reason>` annotation.

#![forbid(unsafe_code)]
#![expect(clippy::print_stdout, reason = "this is the CLI surface of the linter: stdout is its interface")]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report_path = PathBuf::from("ANALYSIS.json");
    let mut deny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root requires a path"),
            },
            "--report" => match args.next() {
                Some(p) => report_path = PathBuf::from(p),
                None => return usage("--report requires a path"),
            },
            "--deny" => deny = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let analysis = match h2tap_analysis::analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("h2tap-analysis: failed to analyze {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let json = h2tap_analysis::report::render_json(&analysis);
    if let Err(e) = std::fs::write(&report_path, &json) {
        eprintln!("h2tap-analysis: failed to write {}: {e}", report_path.display());
        return ExitCode::from(2);
    }
    print!("{}", h2tap_analysis::report::render_summary(&analysis));
    println!("  report: {}", report_path.display());
    if deny && !analysis.unannotated().is_empty() {
        println!("  --deny: failing on unannotated findings");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("h2tap-analysis: {err}");
    }
    eprintln!("usage: h2tap-analysis [--root <dir>] [--report <file>] [--deny]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
