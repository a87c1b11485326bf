//! End-to-end analyzer tests over the fixture corpus and the workspace
//! itself. The fixture files under `tests/fixtures/` are scanned as text by
//! the analyzer — they are never compiled — so each directory pins the exact
//! finding counts its doc comments promise: `known_bad` trips every lint
//! family, `known_good` is silent, and `allowed` reports findings that all
//! carry reasoned escape hatches.

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
    assert_eq!(a.files_scanned, 6);
    // Two nested acquisitions plus the a→b→a cycle report.
    assert_eq!(a.counts(Lint::LockOrder), (3, 0));
    // Three hash-container iteration sites plus one f64 fold.
    assert_eq!(a.counts(Lint::Determinism), (4, 0));
    // unwrap/expect/panic!/todo! in panic.rs plus the two unwraps whose
    // malformed annotations fail to suppress them in allow_syntax.rs.
    assert_eq!(a.counts(Lint::Panic), (6, 0));
    // A discarded fallible call and an `.ok()` in error_swallow.rs, and the
    // two `.ok()`s of timed_poll.rs's patient waits.
    assert_eq!(a.counts(Lint::ErrorSwallow), (4, 0));
    // A 200 µs receive and a 50 000 ns sleep.
    assert_eq!(a.counts(Lint::TimedPoll), (2, 0));
    // A reasonless allow and an unknown-lint allow.
    assert_eq!(a.counts(Lint::AllowSyntax), (2, 0));
    assert_eq!(a.unannotated().len(), 21);
    // The acquisition graph saw both orderings and the cycle is not allowed.
    assert_eq!(a.lock_edges.len(), 2);
    assert_eq!(a.lock_cycles.len(), 1);
    assert!(!a.lock_cycles[0].allowed);
}

#[test]
fn known_bad_exempts_test_code() {
    let a = run("known_bad");
    // panic.rs has an unwrap inside #[cfg(test)]; only the four non-test
    // sites in that file may be flagged.
    let in_panic_rs = a.findings.iter().filter(|f| f.lint == Lint::Panic && f.file.ends_with("panic.rs")).count();
    assert_eq!(in_panic_rs, 4);
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
    assert_eq!(a.counts(Lint::Panic), (1, 1));
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
        assert!(json.contains("\"execution_site_mut_self\""), "{dir}: missing inventory section");
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
    // Sites are immutable once built: no `ExecutionSite` method takes
    // `&mut self` (`lints`' own unit test keeps the detection honest).
    let mut_self = &a.inventory.mut_self_methods;
    assert!(mut_self.is_empty(), "ExecutionSite grew a `&mut self` method: {mut_self:?}");
    assert!(!a.inventory.interior_fields.is_empty(), "inventory missed interior-mutability fields");
    // The size report sees every crate and the engine's config struct.
    assert!(a.size.crates.iter().any(|c| c.name == "olap" && c.non_test_loc > 1_000 && c.pub_fns > 0));
    assert!(a.size.config_fields > 0, "size report missed CalderaConfig");
    // The "no new allow, no new knob" ratchet. These constants only ever go
    // down: a PR that removes an allow or a config field lowers them, and a
    // PR that needs one more has to remove another first.
    assert!(a.size.allows <= 21, "h2tap: allow sites went up: {}", a.size.allows);
    assert!(a.size.config_fields <= 18, "CalderaConfig grew: {} fields", a.size.config_fields);
}
