//! Machine-readable JSON report and human-readable summary rendering.
//!
//! The JSON is written by hand (the offline vendor `serde` is a minimal
//! stand-in), matching the style of `h2tap-obs`'s Chrome-trace exporter.

use std::fmt::Write as _;

use crate::{Analysis, Lint};

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn opt(s: &Option<String>) -> String {
    match s {
        Some(v) => format!("\"{}\"", esc(v)),
        None => "null".to_string(),
    }
}

/// Renders the full analysis as a JSON document.
pub fn render_json(a: &Analysis) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"version\": 1,");
    let _ = writeln!(j, "  \"root\": \"{}\",", esc(&a.root.display().to_string()));
    let _ = writeln!(j, "  \"files_scanned\": {},", a.files_scanned);
    // Summary block.
    j.push_str("  \"summary\": {\n");
    for lint in Lint::ALL {
        let (total, allowed) = a.counts(lint);
        let _ = writeln!(j, "    \"{}\": {{\"findings\": {total}, \"allowed\": {allowed}}},", lint.name());
    }
    let _ = writeln!(j, "    \"unannotated\": {}", a.unannotated().len());
    j.push_str("  },\n");
    // Findings.
    j.push_str("  \"findings\": [\n");
    for (i, f) in a.findings.iter().enumerate() {
        let comma = if i + 1 == a.findings.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"function\": {}, \"message\": \"{}\", \"allowed\": {}, \"reason\": {}}}{comma}",
            f.lint.name(),
            esc(&f.file),
            f.line,
            opt(&f.function),
            esc(&f.message),
            f.is_allowed(),
            opt(&f.allow_reason),
        );
    }
    j.push_str("  ],\n");
    // Lock graph.
    j.push_str("  \"lock_graph\": {\n    \"edges\": [\n");
    for (i, e) in a.lock_edges.iter().enumerate() {
        let comma = if i + 1 == a.lock_edges.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "      {{\"from\": \"{}\", \"to\": \"{}\", \"file\": \"{}\", \"line\": {}, \"function\": \"{}\", \"allowed\": {}}}{comma}",
            esc(&e.from),
            esc(&e.to),
            esc(&e.file),
            e.line,
            esc(&e.function),
            e.allowed,
        );
    }
    j.push_str("    ],\n    \"cycles\": [\n");
    for (i, c) in a.lock_cycles.iter().enumerate() {
        let comma = if i + 1 == a.lock_cycles.len() { "" } else { "," };
        let keys: Vec<String> = c.keys.iter().map(|k| format!("\"{}\"", esc(k))).collect();
        let _ = writeln!(j, "      {{\"keys\": [{}], \"allowed\": {}}}{comma}", keys.join(", "), c.allowed);
    }
    j.push_str("    ]\n  },\n");
    // Size: the shrink (or creep) of the workspace, PR over PR.
    j.push_str("  \"size\": {\n    \"crates\": [\n");
    for (i, c) in a.size.crates.iter().enumerate() {
        let comma = if i + 1 == a.size.crates.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "      {{\"crate\": \"{}\", \"non_test_loc\": {}, \"pub_fns\": {}}}{comma}",
            esc(&c.name),
            c.non_test_loc,
            c.pub_fns,
        );
    }
    let _ = writeln!(
        j,
        "    ],\n    \"non_test_loc\": {},\n    \"pub_fns\": {},\n    \"config_fields\": {},\n    \"suppressions\": {}\n  }}\n}}",
        a.size.crates.iter().map(|c| c.non_test_loc).sum::<usize>(),
        a.size.crates.iter().map(|c| c.pub_fns).sum::<usize>(),
        a.size.config_fields,
        a.size.suppressions,
    );
    j
}

/// One-screen human summary (the CLI prints this; unannotated findings are
/// listed in full so the CI log is actionable without the artifact).
pub fn render_summary(a: &Analysis) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "h2tap-analysis: scanned {} files under {}", a.files_scanned, a.root.display());
    for lint in Lint::ALL {
        let (total, allowed) = a.counts(lint);
        let _ = writeln!(s, "  {:<12} {:>4} findings ({} allowed)", lint.name(), total, allowed);
    }
    let _ = writeln!(
        s,
        "  size         {:>4} non-test LOC, {} pub fns, {} config fields, {} suppressions",
        a.size.crates.iter().map(|c| c.non_test_loc).sum::<usize>(),
        a.size.crates.iter().map(|c| c.pub_fns).sum::<usize>(),
        a.size.config_fields,
        a.size.suppressions,
    );
    let unannotated = a.unannotated();
    if unannotated.is_empty() {
        let _ = writeln!(s, "  clean: every finding carries a reasoned h2tap allow annotation");
    } else {
        let _ = writeln!(s, "  {} UNANNOTATED finding(s):", unannotated.len());
        for f in unannotated {
            let func = f.function.as_deref().map(|n| format!(" (fn {n})")).unwrap_or_default();
            let _ = writeln!(s, "    [{}] {}:{}{}: {}", f.lint.name(), f.file, f.line, func, f.message);
        }
    }
    s
}

/// A bare-bones structural validator used by tests: balanced braces and
/// quotes outside of escapes. Not a full JSON parser, but catches broken
/// escaping and truncated documents.
pub fn json_is_structurally_valid(j: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in j.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
    }
    depth == 0 && !in_str
}
