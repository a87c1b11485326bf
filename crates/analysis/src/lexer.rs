//! A minimal hand-rolled Rust lexer for the lint passes.
//!
//! Token-level only — no parse tree, no type information (the offline
//! vendor tree has no `syn`, and the lints in this crate only need token
//! patterns). Comments are consumed here; `// h2tap: allow(<lint>) —
//! <reason>` annotations are extracted into an allow map keyed by line so
//! lints can check "this line or the line above carries a reasoned allow".

use std::collections::BTreeMap;

/// Token kinds. Literal payloads are discarded, except the value of a plain
/// integer — otherwise the lints only pattern match identifiers and
/// punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `HashMap`, ...).
    Ident(String),
    /// A single punctuation character; multi-char operators arrive as runs.
    Punct(char),
    /// String / char / numeric literal.
    Lit,
    /// Decimal integer literal (`200`, `1_000`, `5u64`) and its value.
    Int(u64),
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

impl Token {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, TokKind::Punct(p) if p == c)
    }
}

/// A parsed `// h2tap: allow(<lint>) — <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub lint: String,
    pub reason: String,
    pub line: u32,
}

/// The lint names an allow annotation may suppress.
pub const ALLOW_LINTS: &[&str] = &["lock_order", "determinism", "error_swallow", "timed_poll"];

/// Lexer output: the token stream plus the allow annotations (keyed by
/// line) and any malformed `h2tap:` comments (reported as findings — a
/// reasonless or misspelt allow must not silently suppress anything).
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: BTreeMap<u32, Vec<Allow>>,
    pub malformed_allows: Vec<(u32, String)>,
}

pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments. Line comments may carry h2tap allow annotations.
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = src[i..].find('\n').map(|o| i + o).unwrap_or(b.len());
            parse_allow_comment(&src[i..end], line, &mut out);
            i = end;
            continue;
        }
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1u32;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // String literals (plain, byte, raw) before identifiers so `r#"..."#`
        // and `b"..."` are not mis-lexed as idents.
        if c == '"' {
            let start_line = line;
            i = skip_string(b, i, &mut line);
            out.tokens.push(Token { kind: TokKind::Lit, line: start_line });
            continue;
        }
        if c == 'r' || c == 'b' {
            if let Some(next) = skip_raw_or_byte_string(b, i, &mut line) {
                out.tokens.push(Token { kind: TokKind::Lit, line });
                i = next;
                continue;
            }
            if src[i..].starts_with("r#") {
                // Raw identifier `r#type` (raw string `r#"` handled above).
                let start = i + 2;
                let end = ident_end(b, start);
                if end > start {
                    out.tokens.push(Token { kind: TokKind::Ident(src[start..end].to_string()), line });
                    i = end;
                    continue;
                }
            }
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if let Some((next, kind)) = lex_quote(b, i) {
                out.tokens.push(Token { kind, line });
                i = next;
                continue;
            }
            out.tokens.push(Token { kind: TokKind::Punct('\''), line });
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            let end = skip_number(b, i);
            out.tokens.push(Token { kind: int_value(&src[i..end]).map_or(TokKind::Lit, TokKind::Int), line });
            i = end;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let end = ident_end(b, i);
            out.tokens.push(Token { kind: TokKind::Ident(src[i..end].to_string()), line });
            i = end;
            continue;
        }
        out.tokens.push(Token { kind: TokKind::Punct(c), line });
        i += 1;
    }
    out
}

fn ident_end(b: &[u8], start: usize) -> usize {
    let mut i = start;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    i
}

/// Skips a `"..."` literal starting at the opening quote; returns the index
/// past the closing quote and counts embedded newlines.
fn skip_string(b: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` starting at the
/// `r`/`b`; returns the index past the literal, or `None` if this is not a
/// string prefix.
fn skip_raw_or_byte_string(b: &[u8], start: usize, line: &mut u32) -> Option<usize> {
    let mut i = start + 1;
    if b[start] == b'b' && i < b.len() && b[i] == b'r' {
        i += 1;
    } else if b[start] == b'b' && i < b.len() && b[i] == b'"' {
        return Some(skip_string(b, i, line));
    } else if b[start] != b'r' {
        return None;
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return None;
    }
    if hashes == 0 && b[start] == b'r' && start + 1 == i {
        // `r"..."`: raw, no escapes.
        i += 1;
        while i < b.len() {
            if b[i] == b'\n' {
                *line += 1;
            }
            if b[i] == b'"' {
                return Some(i + 1);
            }
            i += 1;
        }
        return Some(i);
    }
    // `r#"` with one or more hashes: scan for `"` followed by `hashes` `#`s.
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
        }
        if b[i] == b'"' && b.len() >= i + 1 + hashes && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#') {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(i)
}

/// Disambiguates a `'` into a char literal or a lifetime.
fn lex_quote(b: &[u8], start: usize) -> Option<(usize, TokKind)> {
    let next = *b.get(start + 1)?;
    if next == b'\\' {
        // Escaped char literal: `'\n'`, `'\''`, `'\u{1F600}'`.
        let mut i = start + 2;
        if i < b.len() && b[i] == b'u' && i + 1 < b.len() && b[i + 1] == b'{' {
            while i < b.len() && b[i] != b'}' {
                i += 1;
            }
        }
        i += 1;
        while i < b.len() && b[i] != b'\'' {
            i += 1;
        }
        return Some((i + 1, TokKind::Lit));
    }
    if next.is_ascii_alphanumeric() || next == b'_' {
        let end = ident_end(b, start + 1);
        if b.get(end) == Some(&b'\'') && end == start + 2 {
            return Some((end + 1, TokKind::Lit)); // 'a'
        }
        return Some((end, TokKind::Lifetime)); // 'a, 'static, 'outer
    }
    // Punctuation char literal: '(' , '}' , ...
    if b.get(start + 2) == Some(&b'\'') {
        return Some((start + 3, TokKind::Lit));
    }
    None
}

fn skip_number(b: &[u8], start: usize) -> usize {
    let mut i = ident_end(b, start);
    // `1.5` continues the number; `0..n` and `1.method()` do not.
    if i < b.len() && b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
        i = ident_end(b, i + 1);
    }
    i
}

/// The value of a decimal integer literal, with or without digit separators
/// and an integer type suffix; `None` for floats, other radices and overflow.
fn int_value(literal: &str) -> Option<u64> {
    let end = literal.find(|c: char| !c.is_ascii_digit() && c != '_').unwrap_or(literal.len());
    let (digits, suffix) = literal.split_at(end);
    let is_int = suffix.is_empty() || suffix.starts_with(['u', 'i']);
    match digits.replace('_', "").parse() {
        Ok(value) if is_int => Some(value),
        _ => None,
    }
}

/// Parses `h2tap:` annotations out of a line comment. The annotation must
/// open the comment (`// h2tap: ...`); doc comments and prose that merely
/// mention the convention never count. An opening `h2tap` that is not a
/// well-formed `allow(<known-lint>) — <reason>` is recorded as malformed
/// so it surfaces as a finding instead of being silently ignored.
fn parse_allow_comment(comment: &str, line: u32, out: &mut Lexed) {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return;
    }
    let body = comment.trim_start_matches('/').trim_start();
    let Some(rest) = body.strip_prefix("h2tap") else {
        return;
    };
    let rest = rest.strip_prefix(':').unwrap_or(rest).trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        out.malformed_allows.push((line, format!("unrecognised h2tap annotation: `{}`", rest.trim())));
        return;
    };
    let Some(close) = args.find(')') else {
        out.malformed_allows.push((line, "h2tap allow annotation missing `)`".to_string()));
        return;
    };
    let lint = args[..close].trim();
    if !ALLOW_LINTS.contains(&lint) {
        out.malformed_allows
            .push((line, format!("unknown lint `{lint}` in h2tap allow (known: {})", ALLOW_LINTS.join(", "))));
        return;
    }
    let reason = args[close + 1..].trim_start_matches([' ', '\t', '\u{2014}', '\u{2013}', '-', ':', ',']).trim();
    if reason.is_empty() {
        out.malformed_allows
            .push((line, format!("h2tap allow({lint}) carries no reason — state why the site is safe")));
        return;
    }
    out.allows.entry(line).or_default().push(Allow { lint: lint.to_string(), reason: reason.to_string(), line });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_strings_and_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let idents: Vec<_> = l.tokens.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, vec!["fn", "f", "x", "str", "char"]);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Lit).count(), 1);
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        let l = lex("let s = r#\"lock() unwrap()\"#; let t = b\"x.lock()\";");
        assert!(l.tokens.iter().all(|t| !t.is_ident("lock") && !t.is_ident("unwrap")));
    }

    #[test]
    fn block_comments_nest_and_count_lines() {
        let l = lex("/* a /* b\n */ c\n*/ fn x() {}");
        assert_eq!(l.tokens[0].line, 3);
        assert!(l.tokens[0].is_ident("fn"));
    }

    #[test]
    fn allow_annotation_parses() {
        let l = lex("x.lock(); // h2tap: allow(lock_order) \u{2014} cache before tracer, never reversed\n");
        let allows = &l.allows[&1];
        assert_eq!(allows[0].lint, "lock_order");
        assert_eq!(allows[0].reason, "cache before tracer, never reversed");
        assert!(l.malformed_allows.is_empty());
    }

    #[test]
    fn reasonless_or_unknown_allows_are_malformed() {
        let l = lex("// h2tap: allow(lock_order)\n// h2tap: allow(panic) — clippy's now\n// h2tap: disable-all\n");
        assert!(l.allows.is_empty());
        assert_eq!(l.malformed_allows.len(), 3);
    }

    #[test]
    fn doc_comments_and_prose_mentions_never_parse_as_allows() {
        let l =
            lex("//! the `// h2tap: allow(panic)` convention\n/// see h2tap: allow(panic)\n// the h2tap: allow form\n");
        assert!(l.allows.is_empty());
        assert!(l.malformed_allows.is_empty());
    }

    #[test]
    fn plain_integers_keep_their_value() {
        let l = lex("f(200, 1_000u64, 0x10, 1.5, 2e3, 3f32, 99999999999999999999)");
        let kinds: Vec<&TokKind> =
            l.tokens.iter().map(|t| &t.kind).filter(|k| !matches!(k, TokKind::Punct(_))).collect();
        let (f, int, lit) = (TokKind::Ident("f".into()), TokKind::Int, TokKind::Lit);
        assert_eq!(kinds, [&f, &int(200), &int(1_000), &lit, &lit, &lit, &lit, &lit]);
    }

    #[test]
    fn char_escapes_and_ranges() {
        let l = lex("let c = '\\''; for i in 0..10 { v[i] }");
        assert!(l.tokens.iter().any(|t| t.is_ident("for")));
        assert_eq!(l.tokens.iter().filter(|t| t.is_punct('.')).count(), 2);
    }
}
