//! Trace export: Chrome trace-event JSON from captured [`SpanRecord`]s.
//!
//! The output is the `{"traceEvents": [...]}` object form of the Trace
//! Event Format, loadable in Perfetto (ui.perfetto.dev) and the legacy
//! `chrome://tracing` viewer. Every span becomes a complete (`"ph":"X"`)
//! event; execution sites map to trace thread ids so each site gets its own
//! timeline row. The workspace's vendored serde is an empty marker
//! stand-in, so the JSON is hand-written — and [`json_is_valid`], a small
//! recursive-descent checker, keeps it honest under test.

use crate::trace::{SpanEvent, SpanKind, SpanRecord};
use h2tap_common::OlapTarget;

/// Trace thread id for a span: host work on row 0 — dispatch, the cache, and
/// the wall-clock `Compute` phase whichever site it serves — and each
/// execution site's own timeline on its own row.
pub fn trace_tid(event: &SpanEvent) -> u32 {
    match (event.kind, event.site) {
        (SpanKind::Compute, _) | (_, None) => 0,
        (_, Some(OlapTarget::Gpu)) => 1,
        (_, Some(OlapTarget::Cpu)) => 2,
        (_, Some(OlapTarget::MultiGpu)) => 3,
    }
}

fn tid_name(tid: u32) -> &'static str {
    match tid {
        0 => "host",
        1 => "gpu-site",
        2 => "cpu-site",
        _ => "multi-gpu-site",
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn event_json(record: &SpanRecord) -> String {
    let e = &record.event;
    let tid = trace_tid(e);
    let dur_us = (e.dur_secs.max(0.0) * 1e6).round() as u64;
    let mut args: Vec<String> = vec![format!("\"query\":{}", record.query), format!("\"seq\":{}", record.seq)];
    if let Some(site) = e.site {
        args.push(format!("\"site\":\"{site:?}\""));
    }
    if let Some(table) = e.table {
        args.push(format!("\"table\":{table}"));
    }
    if let Some(epoch) = e.epoch {
        args.push(format!("\"epoch\":{epoch}"));
    }
    if e.bytes > 0 {
        args.push(format!("\"bytes\":{}", e.bytes));
    }
    if let Some(hit) = e.hit {
        args.push(format!("\"hit\":{hit}"));
    }
    if let Some(b) = e.breakdown {
        args.push(format!(
            "\"breakdown\":{{\"stream_secs\":{},\"compute_secs\":{},\"overhead_secs\":{}}}",
            fmt_f64(b.stream_secs),
            fmt_f64(b.compute_secs),
            fmt_f64(b.overhead_secs)
        ));
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"h2tap\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
        e.kind.label(),
        record.start_us,
        dur_us,
        tid,
        args.join(",")
    )
}

/// Serialises captured spans as Chrome trace-event JSON.
///
/// Events are emitted sorted by `(tid, start_us, seq)`, so each trace row's
/// timestamps are monotonically non-decreasing — viewers do not require
/// this, but it makes the artifact diff-stable and easy to assert on.
/// Thread-name metadata events label each row with its site.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|r| (trace_tid(&r.event), r.start_us, r.seq));

    let mut tids: Vec<u32> = ordered.iter().map(|r| trace_tid(&r.event)).collect();
    tids.dedup();
    tids.sort_unstable();
    tids.dedup();

    let mut events: Vec<String> = tids
        .iter()
        .map(|&tid| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                tid_name(tid)
            )
        })
        .collect();
    events.extend(ordered.iter().map(|r| event_json(r)));
    format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", events.join(","))
}

/// A minimal JSON validity checker (objects, arrays, strings, numbers,
/// `true`/`false`/`null`). Exists because the vendored serde stand-in has
/// no parser; used by tests to property-check every hand-written exporter.
pub fn json_is_valid(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> bool {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => false,
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> bool {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                // Escape: accept any single escaped byte (\uXXXX included —
                // the four hex digits parse as ordinary string bytes).
                *pos += 2;
            }
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if *pos == int_start {
        return false;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    *pos > start
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') || !parse_string(bytes, pos) {
            return false;
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(bytes, pos) {
            return false;
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(bytes, pos) {
            return false;
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use h2tap_common::ExecBreakdown;

    fn sample_spans(n: u64) -> Vec<SpanRecord> {
        let t = Tracer::with_capacity(256);
        for q in 0..n {
            t.set_query(q);
            t.record_wall(SpanEvent::new(SpanKind::Placement), t.start());
            t.record(SpanEvent::new(SpanKind::CacheLookup).site(OlapTarget::Gpu).table(q % 3).epoch(q).hit(q % 2 == 0));
            t.record_wall(SpanEvent::new(SpanKind::Compute).site(OlapTarget::Gpu).bytes(4096), t.start());
            t.record(
                SpanEvent::new(SpanKind::Kernel)
                    .site(if q % 2 == 0 { OlapTarget::Gpu } else { OlapTarget::Cpu })
                    .bytes(4096 * (q + 1))
                    .dur_secs(1e-3 * (q + 1) as f64)
                    .breakdown(ExecBreakdown::new(1e-4, 2e-4, 3e-5)),
            );
            t.record(SpanEvent::new(SpanKind::Merge).site(OlapTarget::MultiGpu).dur_secs(5e-4));
        }
        t.snapshot()
    }

    #[test]
    fn exported_trace_is_valid_json_across_span_mixes() {
        // Property: whatever combination of optional fields the spans carry,
        // the exporter emits valid JSON.
        for n in [0, 1, 2, 7, 23] {
            let json = chrome_trace_json(&sample_spans(n));
            assert!(json_is_valid(&json), "invalid JSON for {n} queries: {json}");
            assert!(json.starts_with("{\"traceEvents\":["));
        }
    }

    #[test]
    fn events_are_complete_phase_with_consistent_per_thread_timestamps() {
        let json = chrome_trace_json(&sample_spans(9));
        // Walk the emitted events in order and check ts monotonicity per tid.
        let mut last_ts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut x_events = 0usize;
        for chunk in json.split("{\"name\":").skip(1) {
            if !chunk.contains("\"ph\":\"X\"") {
                continue;
            }
            x_events += 1;
            let field = |key: &str| -> u64 {
                let tail = &chunk[chunk.find(key).unwrap() + key.len()..];
                tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
            };
            let (ts, dur, tid) = (field("\"ts\":"), field("\"dur\":"), field("\"tid\":"));
            let prev = last_ts.insert(tid, ts).unwrap_or(0);
            assert!(ts >= prev, "tid {tid}: ts {ts} went backwards from {prev}");
            // dur is parseable and non-negative by construction (u64).
            let _ = dur;
        }
        assert_eq!(x_events, 9 * 5);
    }

    #[test]
    fn span_metadata_lands_in_args() {
        let json = chrome_trace_json(&sample_spans(2));
        for needle in [
            "\"name\":\"placement\"",
            "\"name\":\"cache_lookup\"",
            "\"hit\":true",
            "\"hit\":false",
            "\"breakdown\":{",
            "\"stream_secs\":0.0001",
            "\"site\":\"Gpu\"",
            "\"name\":\"gpu-site\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Host compute is wall-clock: it sits on the host row, and its args
        // say which site it served.
        let compute = json.split("{\"name\":").find(|event| event.starts_with("\"compute\"")).unwrap();
        assert!(compute.contains("\"tid\":0,") && compute.contains("\"site\":\"Gpu\""), "{compute}");
    }

    #[test]
    fn validator_accepts_and_rejects_correctly() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            "\"a \\\"quoted\\\" string\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":false}",
            " { \"x\" : 0.5 } ",
        ] {
            assert!(json_is_valid(good), "should accept {good}");
        }
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "01x", "tru", "\"unterminated", "{}extra", "[1 2]"] {
            assert!(!json_is_valid(bad), "should reject {bad}");
        }
    }
}
