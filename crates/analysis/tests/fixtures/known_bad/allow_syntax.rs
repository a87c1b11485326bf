//! Known-bad fixture: malformed escape hatches. A reasonless allow and an
//! unknown lint name (`panic` is clippy's now) are each an `allow_syntax`
//! finding, and neither suppresses the error_swallow finding it sits above.
//! Expected findings: two allow_syntax plus two error_swallow.

// h2tap: allow(error_swallow)
pub fn reasonless(s: &str) -> Option<u32> {
    s.parse().ok()
}

// h2tap: allow(panic) — not a lint this analyzer knows
pub fn unknown_lint(s: &str) -> Option<u32> {
    s.parse().ok()
}
