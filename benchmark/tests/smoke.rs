//! The benchmark end to end at smoke-test size (60 k rows, one second, one
//! repeat), and `BENCHMARK.json` against the benchmark's own tables.

use htapbench::json::Json;
use htapbench::metrics::{END_TO_END, PER_LAYER};
use htapbench::orchestrate::RUN_SECONDS;
use htapbench::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn htapbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_htapbench")).args(args).output().expect("htapbench starts");
    assert!(output.status.success(), "htapbench {args:?} exited with {}", output.status);
    String::from_utf8(output.stdout).expect("htapbench prints UTF-8")
}

fn str_of<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {json}"))
}

#[test]
fn benchmark_json_lists_the_benchmarks_own_names() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS));
    assert_eq!(doc.get("paths").and_then(Json::as_array).map(<[Json]>::len), Some(1));

    let workloads = doc.get("workloads").and_then(Json::as_array).expect("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (listed, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(str_of(listed, "name"), workload.name());
        assert_eq!(str_of(listed, "why"), workload.why());
        assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
    }
    for (key, table, gated) in [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)] {
        let listed = doc.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (listed, def) in listed.iter().zip(table) {
            assert_eq!(str_of(listed, "name"), def.name);
            assert_eq!(str_of(listed, "unit"), def.unit, "{}", def.name);
            assert_eq!(str_of(listed, "better"), def.better.as_str(), "{}", def.name);
            assert_eq!(listed.get("bound").and_then(Json::as_f64), gated.then_some(def.bound), "{}", def.name);
        }
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "set-up time has the largest bound");
}

#[test]
fn the_quick_traced_run_reports_every_metric_and_passes_its_checks() {
    let out = out_dir("smoke-run");
    let printed = htapbench(&["run", "--quick", "--trace", "--seed", "1", "--out", out.to_str().unwrap()]);
    let report = Json::parse(&std::fs::read_to_string(out.join("htapbench.json")).unwrap()).unwrap();
    assert_eq!(report.get("claim"), Some(&Json::Null));
    for workload in Workload::ALL {
        let name = workload.name();
        let result = report.get("workloads").and_then(|w| w.get(name)).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{name}: {result}");
        assert_eq!(result.get("ops_failed").and_then(Json::as_u64), Some(0), "{name}");
        assert!(result.get("ops_attempted").and_then(Json::as_u64).unwrap() > 0, "{name}");
        // Every workload reports every end-to-end metric, and never as zero.
        for def in END_TO_END {
            let metric =
                result.get("end_to_end").and_then(|m| m.get(def.name)).unwrap_or_else(|| panic!("{name}/{}", def.name));
            assert_eq!(str_of(metric, "unit"), def.unit);
            let value = metric.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite() && value > 0.0, "{name}/{} = {value}", def.name);
        }
        for def in PER_LAYER {
            let metric =
                result.get("per_layer").and_then(|m| m.get(def.name)).unwrap_or_else(|| panic!("{name}/{}", def.name));
            assert_eq!(str_of(metric, "unit"), def.unit);
            assert!(metric.get("value").and_then(Json::as_f64).unwrap().is_finite(), "{name}/{}", def.name);
        }
        // One command prints every metric by name.
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(printed.contains(def.name), "{} not printed", def.name);
        }
        for file in [format!("trace_{name}.json"), format!("trace_{name}.engine.json")] {
            let text = std::fs::read_to_string(out.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(Json::parse(&text).is_ok(), "{file} is not JSON");
        }
    }

    // The design claim of each workload, as far as one second can show it.
    let layer = |workload: &str, name: &str| {
        let path = ["workloads", workload, "per_layer", name, "value"];
        path.iter().try_fold(&report, |json, key| json.get(key)).and_then(Json::as_f64).unwrap()
    };
    assert_eq!(layer("olap-cached", "olap.cache_hit_rate"), 1.0);
    assert_eq!(layer("olap-fresh", "olap.cache_hit_rate"), 0.0);
    assert_eq!(layer("oltp-only", "storage.cow_pages_per_snapshot"), 0.0);
    assert!(layer("htap-mixed", "storage.cow_pages_per_snapshot") > 0.0);
    let remote = layer("oltp-only", "oltp.remote_per_txn");
    assert!((0.08..0.12).contains(&remote), "remote locks per transaction: {remote}");

    // A report compares clean against itself.
    let file = out.join("htapbench.json");
    let table = htapbench(&["compare", file.to_str().unwrap(), file.to_str().unwrap()]);
    assert!(table.contains("olap_scan_p50_ms") && !table.contains("REGRESSED"));
}

#[test]
fn the_contract_invocation_ends_with_the_result_object() {
    let out = out_dir("smoke-bench");
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let args = ["bench", "--workload", "htap-mixed", "--seed", "7", "--seconds", "5", "--trace", trace, "--quick"];
        let printed = htapbench(&[&args[..], &["--out", out.to_str().unwrap()]].concat());
        let line = Json::parse(printed.lines().last().expect("a last line")).expect("the last line is JSON");
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = line.get("metrics").unwrap();
        let names: Vec<&str> = metrics.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, table.iter().map(|m| m.name).collect::<Vec<_>>(), "--trace {trace}");
        for def in table {
            let metric = metrics.get(def.name).unwrap();
            assert_eq!(str_of(metric, "unit"), def.unit);
            assert!(metric.get("value").and_then(Json::as_f64).is_some(), "{}", def.name);
        }
    }
}
