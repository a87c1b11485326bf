//! Per-file token model shared by the lint passes: test-code regions,
//! function extents, and allow-annotation lookup.

use crate::lexer::{self, Allow, Lexed, Token};

/// A lexed source file with the derived structure the lints consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root (`crates/olap/src/cache.rs`).
    pub rel_path: String,
    /// Workspace crate directory name (`olap`), or empty in fixture mode.
    pub crate_name: String,
    pub lexed: Lexed,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(u32, u32)>,
    pub functions: Vec<Function>,
}

/// One `fn` item: its name and the token extent of its body (absent for
/// bodiless trait-method declarations).
#[derive(Debug)]
pub struct Function {
    pub name: String,
    pub line: u32,
    /// Token range of the signature, from after the name to the body brace.
    pub sig: (usize, usize),
    /// Token range of the body, `{` inclusive to matching `}` inclusive.
    pub body: Option<(usize, usize)>,
}

impl SourceFile {
    pub fn new(rel_path: String, crate_name: String, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let test_ranges = test_ranges(&lexed.tokens);
        let functions = functions(&lexed.tokens);
        Self { rel_path, crate_name, lexed, test_ranges, functions }
    }

    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }

    /// Is `line` inside a `#[cfg(test)]` module / `#[test]` function?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The allow annotation for `lint` on `line` or the line directly above.
    pub fn allow_for(&self, lint: &str, line: u32) -> Option<&Allow> {
        [line, line.saturating_sub(1)]
            .iter()
            .filter_map(|l| self.lexed.allows.get(l))
            .flatten()
            .find(|a| a.lint == lint)
    }

    /// Lines carrying at least one code token outside test code.
    pub fn non_test_loc(&self) -> usize {
        let mut lines: Vec<u32> = self.tokens().iter().map(|t| t.line).filter(|&l| !self.in_test_code(l)).collect();
        lines.dedup();
        lines.len()
    }

    /// `pub fn` items (through `const`/`unsafe`/`async`) outside test code.
    pub fn pub_fns(&self) -> usize {
        let toks = self.tokens();
        (0..toks.len())
            .filter(|&i| toks[i].is_ident("pub") && !self.in_test_code(toks[i].line))
            .filter(|&i| {
                let qualifier = |t: &&Token| ["const", "unsafe", "async"].iter().any(|q| t.is_ident(q));
                toks[i + 1..].iter().find(|t| !qualifier(t)).is_some_and(|t| t.is_ident("fn"))
            })
            .count()
    }

    /// `#[expect(..)]` / `#![expect(..)]` lint attributes outside test code.
    pub fn lint_expects(&self) -> usize {
        let toks = self.tokens();
        toks.windows(4)
            .filter(|w| (w[0].is_punct('#') || w[0].is_punct('!')) && w[1].is_punct('[') && w[2].is_ident("expect"))
            .filter(|w| w[3].is_punct('(') && !self.in_test_code(w[2].line))
            .count()
    }

    /// Fields of every `struct <name> { .. }` outside test code: the
    /// `ident :` pairs inside its braces that are not path separators.
    pub fn struct_fields(&self) -> usize {
        let toks = self.tokens();
        let is_def =
            |i: usize| toks[i - 2].is_ident("struct") && toks[i - 1].ident().is_some() && toks[i].is_punct('{');
        (2..toks.len())
            .filter(|&open| is_def(open) && !self.in_test_code(toks[open].line))
            .map(|open| {
                (open + 1..matching_brace(toks, open))
                    .filter(|&i| toks[i].ident().is_some() && toks[i + 1].is_punct(':'))
                    .filter(|&i| !toks[i + 2].is_punct(':') && !toks[i - 1].is_punct(':'))
                    .count()
            })
            .sum()
    }

    /// The innermost function whose body contains token index `idx`.
    pub fn enclosing_function(&self, idx: usize) -> Option<&Function> {
        self.functions
            .iter()
            .filter(|f| f.body.is_some_and(|(lo, hi)| lo <= idx && idx <= hi))
            .min_by_key(|f| f.body.map(|(lo, hi)| hi - lo))
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// stream is truncated).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert!(tokens[open].is_punct('{'));
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Collects the line ranges of items marked `#[cfg(test)]` or `#[test]`.
/// `#[cfg(not(test))]` does not count. The extent of the marked item runs
/// to its closing `}` (modules, functions) or `;` (statements, uses).
fn test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // Collect the attribute tokens between the matching brackets.
        let mut j = i + 2;
        let mut depth = 1i64;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
            } else if let Some(id) = tokens[j].ident() {
                idents.push(id);
            }
            j += 1;
        }
        let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = j;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut d = 1i64;
            k += 2;
            while k < tokens.len() && d > 0 {
                if tokens[k].is_punct('[') {
                    d += 1;
                } else if tokens[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
        }
        // The item extends to the first top-level `;` or the brace block.
        let mut end = k;
        while end < tokens.len() {
            if tokens[end].is_punct(';') {
                break;
            }
            if tokens[end].is_punct('{') {
                end = matching_brace(tokens, end);
                break;
            }
            end += 1;
        }
        let end_line = tokens.get(end).map(|t| t.line).unwrap_or(attr_line);
        ranges.push((attr_line, end_line));
        i = end + 1;
    }
    ranges
}

/// Finds every `fn` item (free functions, methods, trait declarations).
/// `fn` pointer types (`fn(u32) -> u32`) are skipped because no identifier
/// follows the keyword.
fn functions(tokens: &[Token]) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.ident() else {
            i += 1;
            continue;
        };
        // Find the body `{` at zero paren depth, or `;` for declarations.
        let mut j = i + 2;
        let mut paren = 0i64;
        let mut body = None;
        let sig_start = j;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren -= 1;
            } else if paren == 0 && t.is_punct('{') {
                body = Some((j, matching_brace(tokens, j)));
                break;
            } else if paren == 0 && t.is_punct(';') {
                break;
            }
            j += 1;
        }
        out.push(Function { name: name.to_string(), line: tokens[i].line, sig: (sig_start, j), body });
        // Continue after the signature; nested fns inside the body are
        // found by the ongoing scan (i advances one token at a time only
        // past the header).
        i = j.min(tokens.len());
        if body.is_none() {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("lib.rs".into(), "demo".into(), src)
    }

    #[test]
    fn cfg_test_mod_lines_are_test_code() {
        let f = file("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let f = file("#[cfg(not(test))]\nfn prod() {}\n");
        assert!(!f.in_test_code(2));
    }

    #[test]
    fn functions_and_bodies_are_found() {
        let f = file("impl X {\n    fn a(&self) -> u32 { 1 }\n    fn b(&mut self);\n}\nfn c() {}\n");
        let names: Vec<_> = f.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(f.functions[0].body.is_some());
        assert!(f.functions[1].body.is_none());
    }

    #[test]
    fn size_counts_skip_comments_blanks_and_test_code() {
        let f = file(
            "// comment\n\npub struct Cfg {\n    pub a: u32,\n    pub b: Vec<(u8, u8)>,\n}\npub const fn one() -> u32 {\n    1\n}\n\
             pub(crate) fn hidden() {}\nstruct Unit;\nstruct Pair {\n    x: u8,\n}\n#[cfg(test)]\nmod tests {\n    \
             pub fn helper() {}\n    struct Fixture {\n        y: u8,\n    }\n}\n",
        );
        assert_eq!(f.non_test_loc(), 12, "struct (4 lines) + one (3) + hidden (1) + Unit (1) + Pair (3)");
        assert_eq!(f.pub_fns(), 1, "`pub const fn` counts; `pub(crate)` and test code do not");
        assert_eq!(f.struct_fields(), 3, "Cfg's two and Pair's one: type-level colons, generics and test code are not");
    }

    #[test]
    fn lint_expects_count_outside_test_code_only() {
        let f = file(
            "#![expect(clippy::print_stdout, reason = \"cli\")]\n#[expect(clippy::expect_used, reason = \"r\")]\nfn f() {\n    \
             #[expect(unsafe_code, reason = \"r\")]\n    {}\n    x.expect(\"y\");\n}\n#[cfg(test)]\nmod tests {\n    \
             #[expect(clippy::panic, reason = \"r\")]\n    fn t() {}\n}\n",
        );
        assert_eq!(
            f.lint_expects(),
            3,
            "a crate-level, an item and a block attribute; `.expect(` and test code are not"
        );
    }

    #[test]
    fn nested_functions_are_both_found() {
        let f = file("fn outer() {\n    fn inner() { body(); }\n    inner();\n}\n");
        let names: Vec<_> = f.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        // The innermost function wins for attribution.
        let idx = f.tokens().iter().position(|t| t.is_ident("body")).unwrap();
        assert_eq!(f.enclosing_function(idx).unwrap().name, "inner");
    }
}
