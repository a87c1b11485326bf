//! The size scoreboard, written to `ANALYSIS.json` at the workspace root:
//! per-crate non-test lines of code (lines with code outside comments and
//! `#[cfg(test)]` / `#[test]` items) and `pub fn`s, the engine's config
//! fields, and the suppressions: non-test `#[expect]`s plus any
//! `// <tool>: allow(..)` comment. It also holds the ratchets.

use std::fs;
use std::path::Path;

/// `src` with comments, the insides of string and char literals, and test
/// items blanked to spaces; line breaks are kept.
fn non_test_code(src: &str) -> String {
    let (b, mut out) = (src.as_bytes(), src.as_bytes().to_vec());
    let blank = |out: &mut [u8]| out.iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
    let mut i = 0;
    while i < b.len() {
        let next = b.get(i + 1).copied();
        if b[i] == b'/' && matches!(next, Some(b'/' | b'*')) {
            let (close, width) = if next == Some(b'/') { ("\n", 0) } else { ("*/", 2) };
            let end = src[i..].find(close).map_or(b.len(), |n| i + n + width);
            blank(&mut out[i..end]);
            i = end;
        } else if b[i] == b'"' || (b[i] == b'\'' && (next == Some(b'\\') || b.get(i + 2) == Some(&b'\''))) {
            let mut j = i + 1; // a string or a char literal, not a lifetime
            while j < b.len() && b[j] != b[i] {
                j += 1 + usize::from(b[j] == b'\\');
            }
            blank(&mut out[i + 1..j.min(b.len())]);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    // A test item runs from its `#[test]` / `#[cfg(test)]` through its first
    // `;` or the brace that closes its first `{`.
    let test_attr = |rest: &[u8]| rest.starts_with(b"#[test]") || rest.starts_with(b"#[cfg(test)]");
    let mut i = 0;
    while let Some(start) = (i..out.len()).find(|&j| test_attr(&out[j..])) {
        let body = (start..out.len()).find(|&j| matches!(out[j], b';' | b'{')).unwrap_or(start);
        let mut depth = 0;
        let mut closes = |j: &usize| {
            depth += i32::from(out[*j] == b'{') - i32::from(out[*j] == b'}');
            depth == 0
        };
        i = (body..out.len()).find(|j| closes(j)).unwrap_or(out.len() - 1) + 1;
        blank(&mut out[start..i]);
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// `[non-test LOC, pub fns, suppressions]` of the `.rs` files under `dir`.
fn count(dir: &Path) -> [usize; 3] {
    let per_file = fs::read_dir(dir).into_iter().flatten().flatten().map(|entry| {
        let path = entry.path();
        if path.is_dir() {
            return count(&path);
        } else if path.extension().is_none_or(|e| e != "rs") {
            return [0; 3];
        }
        let src = fs::read_to_string(&path).expect("source reads");
        let comments =
            src.lines().filter_map(|l| l.trim_start().strip_prefix("//")?.trim_start().split_once(": allow("));
        let comment_allows = comments.filter(|(tool, _)| tool.chars().all(char::is_alphanumeric)).count();
        let code = non_test_code(&src);
        let words: Vec<&str> =
            code.split(|c: char| !c.is_alphanumeric() && c != '_').filter(|w| !w.is_empty()).collect();
        let is_fn = |rest: &[&str]| rest.iter().find(|w| !["const", "unsafe", "async"].contains(w)) == Some(&"fn");
        let expects = code.matches("#[expect(").count() + code.matches("#![expect(").count();
        let fns = (0..words.len()).filter(|&i| words[i] == "pub" && is_fn(&words[i + 1..])).count();
        [code.lines().filter(|l| !l.trim().is_empty()).count(), fns, expects + comment_allows]
    });
    per_file.fold([0; 3], |sum, n| [sum[0] + n[0], sum[1] + n[1], sum[2] + n[2]])
}

/// The ratchets only go down, with the README / ROADMAP figures that quote them.
#[test]
fn scoreboard() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).expect("crates/ reads").flatten();
    let mut rows: Vec<(String, [usize; 3])> =
        crates.map(|dir| (dir.file_name().to_string_lossy().into(), count(&dir.path().join("src")))).collect();
    rows.sort();
    rows.push(("caldera-repro".into(), count(&root.join("src"))));
    let total = |k: usize| rows.iter().map(|(_, n)| n[k]).sum::<usize>();
    let (loc, pub_fns, suppressions) = (total(0), total(1), total(2));
    // Fields of every struct in the config file: the `name:` pairs in its braces.
    let config = non_test_code(&fs::read_to_string(root.join("crates/engine/src/config.rs")).unwrap());
    let bodies = config.split("struct ").skip(1).filter_map(|rest| {
        let (name, body) = rest.split_once('{')?;
        name.trim().chars().all(|c| c.is_alphanumeric() || c == '_').then(|| body.split('}').next())?
    });
    let config_fields: usize = bodies.map(|body| body.replace("::", "").matches(':').count()).sum();
    let crates: Vec<String> = rows.iter().map(|(name, n)| format!("\n    \"{name}\": [{}, {}]", n[0], n[1])).collect();
    let json = format!(
        "{{\n  \"non_test_loc\": {loc},\n  \"pub_fns\": {pub_fns},\n  \"config_fields\": {config_fields},\n  \
         \"suppressions\": {suppressions},\n  \"crates_loc_pub_fns\": {{{}\n  }}\n}}\n",
        crates.join(",")
    );
    fs::write(root.join("ANALYSIS.json"), json).expect("ANALYSIS.json writes");
    assert!(rows.iter().any(|(name, n)| name == "olap" && n[0] > 1_000 && n[1] > 0), "the count looks truncated");
    assert_eq!(suppressions, 5, "suppressions changed: move the ratchet with the code");
    assert!(config_fields <= 11, "config knobs went up: {config_fields} fields");
}

/// CI proves that `tests/clippy_known_bad`'s two `#![warn(..)]` headers work:
/// the serving crates carry both, the other result crates the second.
#[test]
fn result_crates_share_the_clippy_fixtures_lint_headers() {
    let headers = |lib_rs: &str| -> Vec<String> {
        let src = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(lib_rs)).expect("crate root reads");
        src.lines().filter(|l| l.starts_with("#![warn(")).map(String::from).collect()
    };
    let fixture = headers("tests/clippy_known_bad/src/lib.rs");
    for krate in ["engine", "olap", "scheduler", "storage", "common", "workloads"] {
        let expected = if ["common", "workloads"].contains(&krate) { &fixture[1..] } else { &fixture[..] };
        assert_eq!(headers(&format!("crates/{krate}/src/lib.rs")), expected, "{krate}'s lint headers drifted");
    }
}
