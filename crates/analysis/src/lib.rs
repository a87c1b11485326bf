//! `h2tap-analysis` — the checks clippy cannot make.
//!
//! Panic paths and discarded `#[must_use]` results in the serving crates
//! are clippy's (`unwrap_used`, `expect_used`, `panic`, `todo`,
//! `let_underscore_must_use`, excused only by a reasoned `#[expect]`).
//! This crate is a token scanner (the offline vendor tree has no `syn`) for
//! the four families clippy has no lint for, run as a CI gate:
//!
//! 1. **lock-order audit** — every `.lock()`/`.read()`/`.write()`
//!    acquisition site per function; nested acquisitions (depth > 1) and
//!    cycles in the workspace-wide nested-acquisition graph are potential
//!    deadlocks.
//! 2. **determinism lint** — `HashMap`/`HashSet` iteration in
//!    result-producing crates (method chains too, which
//!    `clippy::iter_over_hash_type` misses) and f64-reassociating folds
//!    outside the blessed kernel modules, protecting the byte-identity
//!    contract.
//! 3. **error-swallow lint** — `.ok()` in non-test code of
//!    `engine`/`olap`/`scheduler`/`storage`: a `Result` whose error branch
//!    is erased is a fault the resilience ladder never sees.
//! 4. **timed-poll lint** — `recv_timeout`/`sleep`/`park_timeout`/
//!    `wait_timeout` with a sub-millisecond `from_micros`/`from_nanos`
//!    literal in non-test code of any crate: a wait that short is a poll.
//!    Judging the argument's value is what clippy's `disallowed-methods`
//!    cannot do.
//!
//! Escape hatch: `// h2tap: allow(<lint>) — <reason>` on the finding's
//! line or the line above. Reasonless or misspelt allows are themselves
//! findings and never suppress anything. The size scoreboard counts these
//! comments and `#[expect]` attributes together as the workspace's
//! suppressions.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lints::{LockCycle, LockEdge};
use model::SourceFile;

/// The lint families that produce findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    LockOrder,
    Determinism,
    /// Error branches erased by `.ok()`.
    ErrorSwallow,
    /// Waits too short to be anything but a poll.
    TimedPoll,
    /// Malformed `h2tap:` annotations; never allowable.
    AllowSyntax,
}

impl Lint {
    pub fn name(self) -> &'static str {
        match self {
            Lint::LockOrder => "lock_order",
            Lint::Determinism => "determinism",
            Lint::ErrorSwallow => "error_swallow",
            Lint::TimedPoll => "timed_poll",
            Lint::AllowSyntax => "allow_syntax",
        }
    }

    pub const ALL: [Lint; 5] =
        [Lint::LockOrder, Lint::Determinism, Lint::ErrorSwallow, Lint::TimedPoll, Lint::AllowSyntax];
}

/// One lint finding at a source location. `allow_reason` carries the text
/// of a matching `h2tap: allow` annotation; unannotated findings are what
/// `--deny` gates on.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    pub file: String,
    pub line: u32,
    pub function: Option<String>,
    pub message: String,
    pub allow_reason: Option<String>,
}

impl Finding {
    pub fn is_allowed(&self) -> bool {
        self.allow_reason.is_some()
    }
}

/// Non-test code size of one crate (the umbrella package is `caldera-repro`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateSize {
    pub name: String,
    /// Lines carrying a code token outside `#[cfg(test)]`/`#[test]` items
    /// (blank and comment-only lines do not count).
    pub non_test_loc: usize,
    /// `pub fn` items outside test code.
    pub pub_fns: usize,
}

/// The sizes ROADMAP aim 2 tracks from PR to PR. Informational: no gate.
#[derive(Debug, Default)]
pub struct Size {
    /// Per-crate sizes, in crate order.
    pub crates: Vec<CrateSize>,
    /// Fields of every struct in `CONFIG_FILE`: the engine's independently
    /// settable knobs. Counting every struct there, not only the top-level
    /// one, means moving a knob into a sub-struct does not lower the count.
    pub config_fields: usize,
    /// Well-formed `h2tap: allow(..)` comments plus `#[expect(..)]` lint
    /// attributes outside test code: every suppression the code carries.
    pub suppressions: usize,
}

/// Full analysis output over one root.
#[derive(Debug)]
pub struct Analysis {
    pub root: PathBuf,
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub lock_edges: Vec<LockEdge>,
    pub lock_cycles: Vec<LockCycle>,
    pub size: Size,
}

impl Analysis {
    pub fn unannotated(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.is_allowed()).collect()
    }

    /// `(total, allowed)` counts for one lint family.
    pub fn counts(&self, lint: Lint) -> (usize, usize) {
        let total = self.findings.iter().filter(|f| f.lint == lint).count();
        let allowed = self.findings.iter().filter(|f| f.lint == lint && f.is_allowed()).count();
        (total, allowed)
    }
}

/// Crates whose non-test code the error-swallow lint covers: the serving
/// path, where an erased error is a fault the resilience ladder never sees.
const SWALLOW_CRATES: &[&str] = &["engine", "olap", "scheduler", "storage"];

/// The file that declares the engine's configuration structs.
const CONFIG_FILE: &str = "crates/engine/src/config.rs";

/// Result-producing crates the determinism lint covers.
const DETERMINISM_CRATES: &[&str] = &["engine", "olap", "scheduler", "storage", "common", "workloads"];

/// Kernel modules where f64 fold order *is* the contract — `.sum::<f64>()`
/// there is the blessed implementation, not a violation.
const BLESSED_FOLD_MODULES: &[&str] = &["crates/olap/src/simd.rs", "crates/olap/src/operators.rs"];

/// Analyzes `root`. Two modes:
///
/// * **workspace mode** (`<root>/crates` exists): scans `crates/*/src` and
///   the umbrella `src/`, applying each lint to its configured crates;
/// * **fixture mode** (no `crates/` dir): scans every `.rs` under `root`
///   and applies every lint to every file — what the fixture tests and the
///   CI negative test use.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let mut files: Vec<(PathBuf, String, String)> = Vec::new(); // (abs, rel, crate)
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs = dir_entries(&crates_dir)?;
        crate_dirs.retain(|p| p.is_dir());
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
            collect_rs(&dir.join("src"), root, &crate_name, &mut files)?;
        }
        collect_rs(&root.join("src"), root, "caldera-repro", &mut files)?;
    } else {
        collect_rs(root, root, "", &mut files)?;
    }
    files.sort_by(|a, b| a.1.cmp(&b.1));

    let mut analysis = Analysis {
        root: root.to_path_buf(),
        files_scanned: 0,
        findings: Vec::new(),
        lock_edges: Vec::new(),
        lock_cycles: Vec::new(),
        size: Size::default(),
    };
    for (abs, rel, crate_name) in files {
        let src = fs::read_to_string(&abs)?;
        let fixture = crate_name.is_empty();
        let file = SourceFile::new(rel.clone(), crate_name.clone(), &src);
        analysis.files_scanned += 1;
        analysis.findings.extend(lints::lock_order(&file, &mut analysis.lock_edges));
        analysis.findings.extend(lints::timed_polls(&file));
        if fixture || DETERMINISM_CRATES.contains(&crate_name.as_str()) {
            let blessed = BLESSED_FOLD_MODULES.contains(&rel.as_str());
            analysis.findings.extend(lints::determinism(&file, blessed));
        }
        if fixture || SWALLOW_CRATES.contains(&crate_name.as_str()) {
            analysis.findings.extend(lints::error_swallows(&file));
        }
        let size = &mut analysis.size;
        if size.crates.last().is_none_or(|c| c.name != crate_name) {
            size.crates.push(CrateSize { name: crate_name.clone(), ..CrateSize::default() });
        }
        if let Some(krate) = size.crates.last_mut() {
            krate.non_test_loc += file.non_test_loc();
            krate.pub_fns += file.pub_fns();
        }
        if rel == CONFIG_FILE {
            size.config_fields += file.struct_fields();
        }
        size.suppressions += file.lexed.allows.values().map(Vec::len).sum::<usize>() + file.lint_expects();
        for (line, msg) in &file.lexed.malformed_allows {
            analysis.findings.push(Finding {
                lint: Lint::AllowSyntax,
                file: rel.clone(),
                line: *line,
                function: None,
                message: msg.clone(),
                allow_reason: None,
            });
        }
    }
    analysis.lock_cycles = lints::lock_cycles(&analysis.lock_edges);
    for cycle in &analysis.lock_cycles {
        if cycle.allowed {
            continue;
        }
        let anchor = analysis
            .lock_edges
            .iter()
            .find(|e| cycle.keys.contains(&e.from) && cycle.keys.contains(&e.to))
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_default();
        analysis.findings.push(Finding {
            lint: Lint::LockOrder,
            file: anchor.0,
            line: anchor.1,
            function: None,
            message: format!("lock-order cycle: {} \u{2192} {}", cycle.keys.join(" \u{2192} "), cycle.keys[0]),
            allow_reason: None,
        });
    }
    analysis.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(analysis)
}

/// The paths of `dir`'s entries; an entry that cannot be read is an error.
fn dir_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    fs::read_dir(dir)?.map(|entry| entry.map(|e| e.path())).collect()
}

/// Recursively collects `.rs` files under `dir` (skipping `target/` and
/// fixture-irrelevant noise) as (abs, root-relative, crate) triples.
fn collect_rs(dir: &Path, root: &Path, crate_name: &str, out: &mut Vec<(PathBuf, String, String)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries = dir_entries(dir)?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if name == "target" || name == ".git" || name == "vendor" {
                continue;
            }
            collect_rs(&path, root, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push((path.clone(), rel, crate_name.to_string()));
        }
    }
    Ok(())
}
