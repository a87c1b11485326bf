//! Known-bad fixture for the error-swallow lint. Expected findings: one —
//! an `.ok()` that erases the error branch. The `.ok()` inside the test
//! module must NOT be flagged. (`let _ = <call>;` is
//! `clippy::let_underscore_must_use`'s; see `clippy_known_bad`.)

pub fn flush_quietly(sink: &mut Sink) {
    sink.flush().ok();
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert!("1".parse::<u32>().ok().is_some());
    }
}
