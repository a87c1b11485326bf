//! The lint passes: lock-order audit, determinism lint, error-swallow
//! (`.ok()`) lint and timed-poll lint.

use crate::lexer::{TokKind, Token};
use crate::model::SourceFile;
use crate::{Finding, Lint};

/// Lock-acquisition methods. All of them take **no arguments**, which is
/// what separates `RwLock::read()` from `io::Read::read(&mut buf)` at the
/// token level.
const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// A nested-acquisition edge: `to` was acquired while `from` was held.
/// Keys are `file-stem.receiver` so unrelated `inner` fields in different
/// files stay distinct in the workspace graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub function: String,
    pub allowed: bool,
}

/// A cycle in the nested-acquisition graph (`keys` in acquisition order).
#[derive(Debug, Clone)]
pub struct LockCycle {
    pub keys: Vec<String>,
    pub allowed: bool,
}

#[derive(Debug, Clone)]
struct Guard {
    /// Graph key: receiver field/local name qualified by file stem.
    key: String,
    /// Local binding name, for `drop(name)` tracking; `None` for
    /// statement-scoped temporaries.
    binding: Option<String>,
    /// Brace depth the guard was bound at; it dies when the block closes.
    depth: u32,
}

/// Lock-order audit over one function body: tracks live guards through
/// `let` bindings, statement temporaries, `drop()` calls, and block scope,
/// and reports every acquisition made while another guard is live.
///
/// Known limits (token-level, intraprocedural): a guard returned from a
/// helper or acquired inside a callee is invisible, and temporaries kept
/// alive by `match` scrutinees are tracked but plain-`if` condition
/// temporaries are assumed dropped at the block brace.
pub fn lock_order(file: &SourceFile, edges: &mut Vec<LockEdge>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stem = file.rel_path.rsplit('/').next().unwrap_or(&file.rel_path).trim_end_matches(".rs").to_string();
    for func in file.functions.iter().filter(|f| f.body.is_some()) {
        let (body_start, body_end) = func.body.expect("filtered to Some above");
        let toks = file.tokens();
        let mut held: Vec<Guard> = Vec::new();
        let mut stmt: Vec<Guard> = Vec::new();
        let mut depth = 0u32;
        let mut stmt_start = body_start + 1;
        let mut i = body_start;
        while i <= body_end {
            let t = &toks[i];
            if t.is_punct('{') {
                // `match` scrutinee and `if let`/`while let` temporaries
                // live into the block; plain condition temporaries do not.
                let keeps_temps = toks.get(stmt_start).is_some_and(|s| s.is_ident("match"))
                    || (toks.get(stmt_start).is_some_and(|s| s.is_ident("if") || s.is_ident("while"))
                        && toks.get(stmt_start + 1).is_some_and(|s| s.is_ident("let")));
                depth += 1;
                if keeps_temps {
                    for mut g in stmt.drain(..) {
                        g.depth = depth;
                        held.push(g);
                    }
                } else {
                    stmt.clear();
                }
                stmt_start = i + 1;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                held.retain(|g| g.depth <= depth);
                stmt.clear();
                stmt_start = i + 1;
            } else if t.is_punct(';') {
                stmt.clear();
                stmt_start = i + 1;
            } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                if let Some(name) = toks.get(i + 2).and_then(|n| n.ident()) {
                    if toks.get(i + 3).is_some_and(|n| n.is_punct(')')) {
                        held.retain(|g| g.binding.as_deref() != Some(name));
                    }
                }
            } else if let Some(acq) = acquisition_at(toks, i, body_end) {
                let key = format!("{stem}.{}", acq.receiver);
                let live: Vec<&Guard> = held.iter().chain(stmt.iter()).collect();
                if !live.is_empty() {
                    let allow = file.allow_for("lock_order", t.line);
                    let held_keys: Vec<&str> = live.iter().map(|g| g.key.as_str()).collect();
                    for h in &held_keys {
                        edges.push(LockEdge {
                            from: (*h).to_string(),
                            to: key.clone(),
                            file: file.rel_path.clone(),
                            line: t.line,
                            function: func.name.clone(),
                            allowed: allow.is_some(),
                        });
                    }
                    findings.push(Finding {
                        lint: Lint::LockOrder,
                        file: file.rel_path.clone(),
                        line: t.line,
                        function: Some(func.name.clone()),
                        message: format!(
                            "acquires `{}` while holding {} (nesting depth {})",
                            key,
                            held_keys.iter().map(|k| format!("`{k}`")).collect::<Vec<_>>().join(", "),
                            live.len() + 1,
                        ),
                        allow_reason: allow.map(|a| a.reason.clone()),
                    });
                }
                let guard = Guard { key, binding: acq.binding.clone(), depth };
                if acq.let_bound {
                    held.push(guard);
                } else {
                    stmt.push(guard);
                }
                i = acq.after_call;
                continue;
            }
            i += 1;
        }
    }
    findings
}

struct Acquisition {
    receiver: String,
    /// Token index just past the `()` of the lock call.
    after_call: usize,
    let_bound: bool,
    binding: Option<String>,
}

/// Detects `recv.lock()` / `.read()` / `.write()` (empty argument list) at
/// token index `i` pointing at the `.`; classifies the guard as let-bound
/// when the statement is `let [mut] name = <chain> [.unwrap()/.expect(..)];`.
fn acquisition_at(toks: &[Token], i: usize, body_end: usize) -> Option<Acquisition> {
    if !toks[i].is_punct('.') {
        return None;
    }
    let method = toks.get(i + 1)?.ident()?;
    if !LOCK_METHODS.contains(&method) {
        return None;
    }
    if !(toks.get(i + 2)?.is_punct('(') && toks.get(i + 3)?.is_punct(')')) {
        return None;
    }
    let receiver = receiver_name(toks, i);
    let mut after = i + 4;
    // Statement start: scan back to the previous `;`, `{`, or `}`.
    let mut s = i;
    while s > 0 && !(toks[s - 1].is_punct(';') || toks[s - 1].is_punct('{') || toks[s - 1].is_punct('}')) {
        s -= 1;
    }
    let mut let_bound = false;
    let mut binding = None;
    if toks.get(s).is_some_and(|t| t.is_ident("let")) {
        let mut b = s + 1;
        if toks.get(b).is_some_and(|t| t.is_ident("mut")) {
            b += 1;
        }
        binding = toks.get(b).and_then(|t| t.ident()).map(str::to_string);
        // Let-bound if the statement ends right after the call, modulo a
        // trailing `.unwrap()` / `.expect("...")` (std `Mutex` style).
        let mut j = after;
        loop {
            if toks.get(j).is_some_and(|t| t.is_punct(';')) {
                let_bound = true;
                after = j;
                break;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
            {
                let mut d = 1i64;
                j += 3;
                while j <= body_end && d > 0 {
                    if toks[j].is_punct('(') {
                        d += 1;
                    } else if toks[j].is_punct(')') {
                        d -= 1;
                    }
                    j += 1;
                }
                continue;
            }
            break;
        }
    }
    Some(Acquisition { receiver, after_call: after, let_bound, binding })
}

/// The receiver name of the chain ending at the `.` at index `dot`:
/// the field/local ident directly before it, or the method name for
/// call results (`self.partition(p)?.read()` → `partition`).
fn receiver_name(toks: &[Token], dot: usize) -> String {
    let mut k = dot;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct('?') {
            continue;
        }
        if let Some(id) = t.ident() {
            return id.to_string();
        }
        if t.is_punct(')') || t.is_punct(']') {
            // Walk back over the balanced group to the ident before it.
            let (open, close) = if t.is_punct(')') { ('(', ')') } else { ('[', ']') };
            let mut d = 1i64;
            while k > 0 && d > 0 {
                k -= 1;
                if toks[k].is_punct(close) {
                    d += 1;
                } else if toks[k].is_punct(open) {
                    d -= 1;
                }
            }
            continue;
        }
        break;
    }
    "<expr>".to_string()
}

/// Finds cycles in the workspace nested-acquisition graph. A cycle is
/// reported once per distinct key set; it is `allowed` only when **every**
/// edge on it carries an allow annotation.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<LockCycle> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut cycles: Vec<LockCycle> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();
    // Bounded DFS from each node; the workspace graph is tiny.
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, vec![start])];
        while let Some((node, path)) = stack.pop() {
            for &next in adj.get(node).into_iter().flatten() {
                if next == start {
                    let mut set: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    set.sort();
                    if seen_sets.insert(set) {
                        let keys: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                        let allowed = path
                            .iter()
                            .zip(path.iter().cycle().skip(1))
                            .all(|(f, t)| edges.iter().filter(|e| &e.from == f && &e.to == t).all(|e| e.allowed));
                        cycles.push(LockCycle { keys, allowed });
                    }
                } else if !path.contains(&next) && path.len() < 8 {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    cycles
}

/// Iteration-order methods on hash containers that leak nondeterminism.
const HASH_ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain"];

/// Determinism lint: flags iteration over `HashMap`/`HashSet`-typed names
/// (insertion-ordered arenas and `BTreeMap` are the blessed paths) and
/// f64-reassociating folds (`.sum::<f64>()`, `.product::<f64>()`, rayon
/// parallel iterators) outside the blessed kernel modules.
pub fn determinism(file: &SourceFile, blessed_fold_module: bool) -> Vec<Finding> {
    let toks = file.tokens();
    let mut findings = Vec::new();
    // Pass 1: names declared with a hash-container type in this file —
    // `name: HashMap<..>` fields/params and `let [mut] name = HashMap::new()`.
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let Some(id) = toks[i].ident() else {
            continue;
        };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // Walk back over reference sigils (`&`, `&mut`, `&'a`) so borrowed
        // params like `m: &HashMap<..>` still register the name.
        let mut p = i;
        while p > 0
            && (toks[p - 1].is_punct('&')
                || toks[p - 1].is_ident("mut")
                || matches!(toks[p - 1].kind, crate::lexer::TokKind::Lifetime))
        {
            p -= 1;
        }
        if p >= 2 && toks[p - 1].is_punct(':') && !toks[p - 2].is_punct(':') {
            if let Some(name) = toks[p - 2].ident() {
                hash_names.push(name.to_string());
            }
        } else if i >= 2 && toks[i - 1].is_punct('=') {
            let mut b = i - 1;
            while b > 0 && !(toks[b - 1].is_punct(';') || toks[b - 1].is_punct('{') || toks[b - 1].is_punct('}')) {
                b -= 1;
            }
            if toks.get(b).is_some_and(|t| t.is_ident("let")) {
                let n = if toks.get(b + 1).is_some_and(|t| t.is_ident("mut")) { b + 2 } else { b + 1 };
                if let Some(name) = toks.get(n).and_then(|t| t.ident()) {
                    hash_names.push(name.to_string());
                }
            }
        }
    }
    hash_names.sort();
    hash_names.dedup();
    // Pass 2: flag iteration over those names and reassociating f64 folds.
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if file.in_test_code(t.line) {
            i += 1;
            continue;
        }
        // `name.iter()` / `.keys()` / ... on a hash-typed name.
        if t.is_punct('.')
            && i >= 1
            && toks.get(i + 1).is_some_and(|m| m.ident().is_some_and(|id| HASH_ITER_METHODS.contains(&id)))
            && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            if let Some(recv) = toks[i - 1].ident() {
                if hash_names.iter().any(|n| n == recv) {
                    findings.push(finding(file, Lint::Determinism, i, format!(
                        "iteration over hash container `{recv}` ({}()); insertion-ordered arenas or BTreeMap are the blessed deterministic paths",
                        toks[i + 1].ident().unwrap_or("?"),
                    )));
                }
            }
        }
        // `for x in [&]name {` — bare iteration without a method call.
        if t.is_ident("for") {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_ident("in") && !toks[j].is_punct('{') {
                j += 1;
            }
            if toks.get(j).is_some_and(|x| x.is_ident("in")) {
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct('{') {
                    let bare = toks[k].ident().is_some_and(|id| hash_names.iter().any(|n| n == id))
                        && !toks.get(k + 1).is_some_and(|n| n.is_punct('.'));
                    if bare {
                        let name = toks[k].ident().expect("checked ident above");
                        findings.push(finding(file, Lint::Determinism, k, format!(
                            "iteration over hash container `{name}` in `for` loop; insertion-ordered arenas or BTreeMap are the blessed deterministic paths",
                        )));
                        break;
                    }
                    k += 1;
                }
            }
        }
        // `.sum::<f64>()` / `.product::<f64>()` outside blessed modules.
        if !blessed_fold_module
            && t.is_punct('.')
            && toks.get(i + 1).is_some_and(|m| m.is_ident("sum") || m.is_ident("product"))
            && toks.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && toks.get(i + 3).is_some_and(|p| p.is_punct(':'))
            && toks.get(i + 4).is_some_and(|p| p.is_punct('<'))
            && toks.get(i + 5).is_some_and(|m| m.is_ident("f64") || m.is_ident("f32"))
        {
            findings.push(finding(file, Lint::Determinism, i, format!(
                "float `.{}::<f64>()` fold outside the blessed kernel modules; f64 accumulation order is part of the byte-identity contract",
                toks[i + 1].ident().unwrap_or("?"),
            )));
        }
        // Rayon-style parallel reductions reassociate by construction.
        if !blessed_fold_module
            && t.ident().is_some_and(|id| matches!(id, "par_iter" | "into_par_iter" | "par_chunks" | "par_bridge"))
        {
            let message =
                format!("parallel iterator `{}` reassociates reductions", t.ident().expect("checked ident above"));
            findings.push(finding(file, Lint::Determinism, i, message));
        }
        i += 1;
    }
    findings
}

/// A finding of `lint` at token `idx`, with its enclosing function and any
/// allow annotation for that lint on the token's line or the one above.
fn finding(file: &SourceFile, lint: Lint, idx: usize, message: String) -> Finding {
    let line = file.tokens()[idx].line;
    Finding {
        lint,
        file: file.rel_path.clone(),
        line,
        function: file.enclosing_function(idx).map(|f| f.name.clone()),
        message,
        allow_reason: file.allow_for(lint.name(), line).map(|a| a.reason.clone()),
    }
}

/// Error-swallow lint: `.ok()` with an empty argument list in non-test
/// code — it turns a `Result` into an `Option` with the error branch
/// erased, whether chained or statement-discarded. (`ok_or*` and other
/// idents are distinct tokens and never match.) Clippy has no lint for
/// this shape; `let _ = <call>;` is `clippy::let_underscore_must_use`'s.
pub fn error_swallows(file: &SourceFile) -> Vec<Finding> {
    let message =
        "`.ok()` erases the error branch of a Result; surface the error or annotate why discarding it is safe";
    file.tokens()
        .windows(4)
        .enumerate()
        .filter(|(_, w)| w[0].is_punct('.') && w[1].is_ident("ok") && w[2].is_punct('(') && w[3].is_punct(')'))
        .filter(|(_, w)| !file.in_test_code(w[0].line))
        .map(|(i, _)| finding(file, Lint::ErrorSwallow, i, message.to_string()))
        .collect()
}

/// Waits that a short timeout turns into a poll.
const TIMED_WAITS: &[&str] = &["recv_timeout", "sleep", "park_timeout", "wait_timeout"];

/// Timed-poll lint: a wait (`recv_timeout`, `sleep`, `park_timeout`,
/// `wait_timeout`) whose argument is a sub-millisecond `from_micros(..)` /
/// `from_nanos(..)` literal, in non-test code. Nothing a thread waits for
/// takes that little time by itself: the thread is polling, and wakes
/// thousands of times a second to learn that nothing happened. Block on
/// whatever carries the event instead.
pub fn timed_polls(file: &SourceFile) -> Vec<Finding> {
    let toks = file.tokens();
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let called = toks.get(i + 1).is_some_and(|p| p.is_punct('('));
        if !called || !TIMED_WAITS.iter().any(|w| t.is_ident(w)) || file.in_test_code(t.line) {
            continue;
        }
        // The argument list runs to the parenthesis that closes the call.
        let mut depth = 0i64;
        let in_call = |a: &&Token| {
            depth += i64::from(a.is_punct('(')) - i64::from(a.is_punct(')'));
            depth > 0
        };
        let args: Vec<&Token> = toks[i + 1..].iter().take_while(in_call).collect();
        let short = args.windows(4).find_map(|w| {
            let unit = w[0].ident()?;
            let per_ms = match unit {
                "from_micros" => 1_000,
                "from_nanos" => 1_000_000,
                _ => return None,
            };
            match w[2].kind {
                TokKind::Int(n) if n < per_ms && w[1].is_punct('(') && w[3].is_punct(')') => Some((unit, n)),
                _ => None,
            }
        });
        let (Some((unit, n)), Some(wait)) = (short, t.ident()) else { continue };
        let message = format!("`{wait}({unit}({n}))` is a poll; block on what delivers the event");
        findings.push(finding(file, Lint::TimedPoll, i, message));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("demo.rs".into(), "demo".into(), src)
    }

    #[test]
    fn nested_let_guards_are_reported() {
        let f = file(
            "fn f(&self) {\n    let a = self.catalog.read();\n    let b = self.part.write();\n    use_both(a, b);\n}\n",
        );
        let mut edges = Vec::new();
        let findings = lock_order(&f, &mut edges);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("demo.part"));
        assert!(findings[0].message.contains("demo.catalog"));
        assert_eq!(edges.len(), 1);
    }

    #[test]
    fn sequential_temporaries_are_clean() {
        let f = file("fn f(&self) {\n    self.names.read().len();\n    self.catalog.write().clear();\n}\n");
        let mut edges = Vec::new();
        assert!(lock_order(&f, &mut edges).is_empty());
    }

    #[test]
    fn guard_dies_at_block_end_and_on_drop() {
        let f = file(
            "fn f(&self) {\n    { let a = self.x.lock(); touch(a); }\n    let b = self.y.lock();\n    drop(b);\n    let c = self.z.lock();\n    touch(c);\n}\n",
        );
        let mut edges = Vec::new();
        assert!(lock_order(&f, &mut edges).is_empty());
    }

    #[test]
    fn same_statement_nesting_is_reported() {
        let f = file("fn f(&self) {\n    combine(self.a.lock(), self.b.lock());\n}\n");
        let mut edges = Vec::new();
        assert_eq!(lock_order(&f, &mut edges).len(), 1);
    }

    #[test]
    fn cycles_are_detected_across_functions() {
        let f = file(
            "fn ab(&self) {\n    let a = self.a.lock();\n    let b = self.b.lock();\n}\nfn ba(&self) {\n    let b = self.b.lock();\n    let a = self.a.lock();\n}\n",
        );
        let mut edges = Vec::new();
        lock_order(&f, &mut edges);
        let cycles = lock_cycles(&edges);
        assert_eq!(cycles.len(), 1);
        assert!(!cycles[0].allowed);
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let f = file("fn f(&self) {\n    let g = self.state.lock();\n    file.read(&mut buf);\n    touch(g);\n}\n");
        let mut edges = Vec::new();
        assert!(lock_order(&f, &mut edges).is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged_and_lookup_is_not() {
        let f = file(
            "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) {\n    for (k, v) in s.m.iter() { use_kv(k, v); }\n    s.m.get(&1);\n}\n",
        );
        let findings = determinism(&f, false);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`m`"));
    }

    #[test]
    fn f64_sum_fold_flagged_outside_blessed_modules() {
        let f = file("fn f(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>()\n}\n");
        assert_eq!(determinism(&f, false).len(), 1);
        assert!(determinism(&f, true).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_nothing_but_marks_finding() {
        let f = file("fn f(v: &[f64]) -> f64 {\n    v.iter().sum::<f64>() // h2tap: allow(determinism) — order pinned by caller\n}\n");
        let findings = determinism(&f, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].allow_reason.as_deref(), Some("order pinned by caller"));
    }

    #[test]
    fn discarded_ok_is_flagged_and_let_underscore_is_left_to_clippy() {
        let f =
            file("fn f(&self) {\n    let _ = self.device.free(id);\n    self.flush().ok();\n    let _ = report;\n}\n");
        let findings = error_swallows(&f);
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), vec![3], "{findings:?}");
        assert!(findings[0].message.contains(".ok()"));
    }

    #[test]
    fn chained_ok_is_flagged_but_ok_or_is_not() {
        let f = file("fn f(s: &str) -> Option<u32> {\n    s.parse::<u32>().ok()\n}\nfn g(x: Option<u32>) -> Result<u32, E> { x.ok_or(E) }\n");
        let findings = error_swallows(&f);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn swallow_allow_marks_but_still_reports() {
        let f = file(
            "fn f(&self) {\n    // h2tap: allow(error_swallow) — best-effort free on the teardown path\n    self.device.free(id).ok();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { go().ok(); }\n}\n",
        );
        let findings = error_swallows(&f);
        assert_eq!(findings.len(), 1, "test code must be exempt: {findings:?}");
        assert!(findings[0].is_allowed());
    }

    #[test]
    fn sub_millisecond_waits_are_polls() {
        let f = file(
            "fn f(rx: &Receiver<u32>) {\n    let _ = rx.recv_timeout(Duration::from_micros(200));\n    std::thread::sleep(left.min(Duration::from_nanos(50_000)));\n    // h2tap: allow(timed_poll) — the device raises no interrupt\n    thread::park_timeout(Duration::from_micros(5));\n    std::thread::sleep(Duration::from_micros(1_000));\n    let _ = rx.recv_timeout(remaining);\n    let pause = Duration::from_micros(50);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(Duration::from_micros(10)); }\n}\n",
        );
        let findings = timed_polls(&f);
        assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), vec![2, 3, 5], "{findings:?}");
        assert!(findings[0].message.contains("recv_timeout(from_micros(200))"));
        assert_eq!(findings.iter().filter(|f| f.is_allowed()).count(), 1);
    }
}
