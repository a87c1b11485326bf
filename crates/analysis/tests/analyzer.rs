//! End-to-end analyzer tests over the fixture corpus and the workspace
//! itself. The fixture files under `tests/fixtures/{known_bad,known_good,
//! allowed}` are scanned as text by the analyzer — they are never compiled —
//! so each directory pins the exact finding counts its doc comments promise:
//! `known_bad` trips every lint family, `known_good` is silent, and
//! `allowed` reports findings that all carry reasoned escape hatches.
//! `tests/fixtures/clippy_known_bad` is the compiled counterpart for the
//! lints clippy enforces; CI requires clippy to fail on it.

use std::path::{Path, PathBuf};

use h2tap_analysis::report::{json_is_structurally_valid, render_json, render_summary};
use h2tap_analysis::{analyze, Analysis, Lint};

fn fixture_root(dir: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(dir)
}

fn run(dir: &str) -> Analysis {
    analyze(&fixture_root(dir)).expect("fixture directory scans")
}

#[test]
fn known_bad_trips_every_lint_family() {
    let a = run("known_bad");
    assert_eq!(a.files_scanned, 5);
    // Two nested acquisitions plus the a→b→a cycle report.
    assert_eq!(a.counts(Lint::LockOrder), (3, 0));
    // Three hash-container iteration sites plus one f64 fold.
    assert_eq!(a.counts(Lint::Determinism), (4, 0));
    // The `.ok()` of error_swallow.rs, the two of timed_poll.rs's patient
    // waits, and the two whose malformed annotations fail to suppress them
    // in allow_syntax.rs.
    assert_eq!(a.counts(Lint::ErrorSwallow), (5, 0));
    // A 200 µs receive and a 50 000 ns sleep.
    assert_eq!(a.counts(Lint::TimedPoll), (2, 0));
    // A reasonless allow and an unknown-lint allow.
    assert_eq!(a.counts(Lint::AllowSyntax), (2, 0));
    assert_eq!(a.unannotated().len(), 16);
    // The acquisition graph saw both orderings and the cycle is not allowed.
    assert_eq!(a.lock_edges.len(), 2);
    assert_eq!(a.lock_cycles.len(), 1);
    assert!(!a.lock_cycles[0].allowed);
}

#[test]
fn known_bad_exempts_test_code() {
    let a = run("known_bad");
    // error_swallow.rs has an `.ok()` inside #[cfg(test)]; only the one
    // non-test site in that file may be flagged.
    let in_swallow_rs = a.findings.iter().filter(|f| f.file.ends_with("error_swallow.rs")).count();
    assert_eq!(in_swallow_rs, 1);
}

#[test]
fn known_good_is_silent() {
    let a = run("known_good");
    assert_eq!(a.files_scanned, 1);
    assert!(a.findings.is_empty(), "unexpected findings: {:?}", a.findings);
    assert!(a.lock_edges.is_empty());
    assert!(a.lock_cycles.is_empty());
}

#[test]
fn allowed_findings_are_reported_but_suppressed() {
    let a = run("allowed");
    assert_eq!(a.counts(Lint::LockOrder), (1, 1));
    assert_eq!(a.counts(Lint::Determinism), (2, 2));
    assert_eq!(a.counts(Lint::ErrorSwallow), (1, 1));
    assert_eq!(a.counts(Lint::TimedPoll), (1, 1));
    assert_eq!(a.counts(Lint::AllowSyntax), (0, 0));
    assert!(a.unannotated().is_empty());
    // Every allow carries its reason text through to the finding.
    assert!(a.findings.iter().all(|f| f.allow_reason.as_deref().is_some_and(|r| !r.is_empty())));
}

#[test]
fn reports_render_for_every_fixture() {
    for dir in ["known_bad", "known_good", "allowed"] {
        let a = run(dir);
        let json = render_json(&a);
        assert!(json_is_structurally_valid(&json), "{dir}: malformed JSON report");
        for lint in Lint::ALL {
            assert!(json.contains(&format!("\"{}\"", lint.name())), "{dir}: missing {} summary", lint.name());
        }
        assert!(json.contains("\"suppressions\""), "{dir}: missing size section");
        let summary = render_summary(&a);
        assert!(summary.contains("lock_order"), "{dir}: summary missing lint table");
    }
}

/// The CI gate in test form: the workspace itself must analyze clean — every
/// finding carries a reasoned `h2tap: allow` annotation. If this fails, run
/// `cargo run -p h2tap-analysis` for the burn-down list.
#[test]
fn workspace_has_no_unannotated_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze(&root).expect("workspace scans");
    assert!(a.files_scanned > 50, "workspace scan looks truncated: {} files", a.files_scanned);
    let stray: Vec<String> =
        a.unannotated().iter().map(|f| format!("[{}] {}:{}: {}", f.lint.name(), f.file, f.line, f.message)).collect();
    assert!(stray.is_empty(), "unannotated findings:\n{}", stray.join("\n"));
    // The size report sees every crate and the engine's config struct.
    assert!(a.size.crates.iter().any(|c| c.name == "olap" && c.non_test_loc > 1_000 && c.pub_fns > 0));
    assert!(a.size.config_fields > 0, "size report missed CalderaConfig");
    // The "no new suppression, no new knob" ratchet. These constants only
    // ever go down: a PR that removes a suppression (`h2tap: allow` comment
    // or `#[expect]` attribute) or a config field lowers them, and a PR that
    // needs one more has to remove another first.
    assert!(a.size.suppressions <= 17, "suppressions went up: {}", a.size.suppressions);
    assert!(a.size.config_fields <= 18, "CalderaConfig grew: {} fields", a.size.config_fields);
}

/// The `#![warn(..)]` lint attribute of a crate root, as written.
fn lint_header(lib_rs: &Path) -> String {
    let src = std::fs::read_to_string(lib_rs).expect("crate root reads");
    let start = src.find("#![warn(").unwrap_or_else(|| panic!("{} has no #![warn(..)] header", lib_rs.display()));
    let end = start + src[start..].find(")]").expect("attribute closes") + 2;
    src[start..end].to_string()
}

/// The serving crates rely on clippy for panic paths and discarded results,
/// and CI proves that header works on `clippy_known_bad`: so every serving
/// crate must carry exactly the fixture's header.
#[test]
fn serving_crates_share_the_clippy_fixtures_lint_header() {
    let fixture = lint_header(&fixture_root("clippy_known_bad/src/lib.rs"));
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for krate in ["engine", "olap", "scheduler", "storage"] {
        assert_eq!(lint_header(&crates.join(krate).join("src/lib.rs")), fixture, "{krate}'s lint header drifted");
    }
}
