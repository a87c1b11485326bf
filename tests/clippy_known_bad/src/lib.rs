//! Known-bad fixture for the checks that clippy and rustc enforce in the
//! workspace. Every item below trips one lint, so
//! `cargo clippy -- -D warnings` on this package must fail and name each of
//! them: `unwrap_used`, `expect_used`, `clippy::panic`, `clippy::todo`,
//! `let_underscore_must_use`, `allow_attributes`,
//! `allow_attributes_without_reason`, `unfulfilled_lint_expectations`,
//! `disallowed_methods` and `disallowed_types`. The two lint headers below
//! are the serving crates' and the result crates' headers, byte for byte
//! (`tests/scoreboard.rs` holds them equal), and the banned methods and types
//! come from the repository's root `clippy.toml`, which clippy finds by
//! walking up from this package.

// Serving-path lints (one header, byte-identical in engine, olap, scheduler
// and storage): a panic path or a discarded `#[must_use]` value is an error
// under CI's `-D warnings` unless it carries `#[expect(.., reason = "..")]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::let_underscore_must_use)]
// Result-crate lint (engine, olap, scheduler, storage, common, workloads):
// std `HashMap`/`HashSet` iterate in a per-process random order, so the
// crates whose output must be bit-identical run by run do not use them.
#![warn(clippy::disallowed_types)]

use std::collections::HashMap;
use std::time::Duration;

pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn named(x: Option<u32>) -> u32 {
    x.expect("must be set")
}

pub fn boom(flag: bool) -> u32 {
    if flag {
        panic!("bad state");
    }
    todo!()
}

pub fn teardown(path: &str) {
    let _ = std::fs::remove_file(path);
}

/// An `#[allow]` is rejected even with a reason: it never goes stale.
#[allow(clippy::unwrap_used, reason = "an allow never fails when its cause goes away")]
pub fn allowed(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// An `#[expect]` without a reason is rejected.
#[expect(clippy::unwrap_used)]
pub fn reasonless(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// A stale `#[expect]`: nothing here unwraps any more.
#[expect(clippy::unwrap_used, reason = "the unwrap this excused is gone")]
pub fn stale(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

/// An erased error: the caller never learns why the parse failed.
pub fn parsed(text: &str) -> Option<u32> {
    text.parse().ok()
}

/// A wait too short to be anything but a poll.
pub fn nap() {
    std::thread::sleep(Duration::from_micros(200));
}

/// A result that follows the map's per-process bucket order.
pub fn first_key(counts: &HashMap<u32, u32>) -> Option<u32> {
    counts.keys().next().copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert_eq!(super::first(&[1]), Some(1).unwrap());
    }
}
