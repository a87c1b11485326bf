//! The per-query trace: typed spans in a bounded, lock-free ring.
//!
//! Every layer of the engine (placement, the plan-data cache, the three
//! execution sites) emits [`SpanEvent`]s through a shared [`Tracer`] handle.
//! The design centre is the *disabled* cost: a single relaxed atomic load
//! guards every emission site, so the CI-gated hostperf thresholds hold with
//! tracing off. Enabled, a span claims its slot with one relaxed
//! `fetch_add` on the ring cursor and writes the record through an
//! uncontended per-slot lock; if a reader (or a wrapped writer) holds the
//! slot, the span is *dropped* and counted — recording never blocks a query.

use h2tap_common::{ExecBreakdown, OlapTarget};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Observability configuration, carried by `CalderaConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether the engine's tracer records spans. Off by default: the
    /// observability layer must be provably near-zero-cost when unused.
    pub tracing: bool,
    /// Ring capacity in spans (rounded up to a power of two). When more
    /// spans are recorded than fit, the oldest are overwritten.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { tracing: false, trace_capacity: 16_384 }
    }
}

/// What a span measured. The fixed vocabulary keeps records `Copy` and lets
/// exporters and tests match on phases without string parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The dispatch-time site decision (N-way argmin over site estimates).
    Placement,
    /// A plan-data-cache probe (columns or hash table); `hit` says which
    /// way it went.
    CacheLookup,
    /// Column materialisation after a cache miss.
    Materialise,
    /// Join-hash-table build after a cache miss.
    HashBuild,
    /// The host computing a plan's answer — chunk kernels and merge — for
    /// whichever site executes it; wall-clock, so a faster kernel shows here.
    Compute,
    /// One execution-site kernel (simulated GPU kernel launch or the CPU
    /// site's chunk pipeline); duration is the site's reported time.
    Kernel,
    /// A partial-merge phase (`merge_scan_partials` / `merge_groups`).
    Merge,
    /// A failed attempt falling back to the next-best healthy site.
    Fallback,
    /// A typed fault surfaced by an execution site (injected or organic).
    Fault,
    /// A bounded in-place retry after a transient fault.
    Retry,
    /// A site-health state change (quarantine entered or lifted).
    Quarantine,
}

impl SpanKind {
    /// Stable lower-case label (used as the Chrome trace event name).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Placement => "placement",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::Materialise => "materialise",
            SpanKind::HashBuild => "hash_build",
            SpanKind::Compute => "compute",
            SpanKind::Kernel => "kernel",
            SpanKind::Merge => "merge",
            SpanKind::Fallback => "fallback",
            SpanKind::Fault => "fault",
            SpanKind::Retry => "retry",
            SpanKind::Quarantine => "quarantine",
        }
    }
}

/// A span as emitted by an instrumentation site. Everything an emitter may
/// know; the tracer stamps sequence, query id and timeline position.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// The measured phase.
    pub kind: SpanKind,
    /// The execution site the span belongs to, `None` for host/dispatch
    /// work (placement, cache management).
    pub site: Option<OlapTarget>,
    /// The table involved, if any (raw `TableId` index).
    pub table: Option<u64>,
    /// The snapshot epoch the work keyed on, if any.
    pub epoch: Option<u64>,
    /// Bytes moved or produced by the phase (0 when unknown).
    pub bytes: u64,
    /// Duration in seconds. Wall-clock for host phases (placement, the
    /// cache, `Compute`), *simulated* seconds for site kernels and merges —
    /// the same frame of reference as the site's reported `ExecBreakdown`,
    /// which is what makes per-query span sums comparable with the query's
    /// breakdown.
    pub dur_secs: f64,
    /// The site's time breakdown, on spans that summarise site execution.
    pub breakdown: Option<ExecBreakdown>,
    /// Cache-probe outcome (`CacheLookup` spans only).
    pub hit: Option<bool>,
}

impl SpanEvent {
    /// A zeroed event of `kind`; chain the builder setters for the rest.
    pub fn new(kind: SpanKind) -> Self {
        Self { kind, site: None, table: None, epoch: None, bytes: 0, dur_secs: 0.0, breakdown: None, hit: None }
    }

    /// Sets the execution site.
    pub fn site(mut self, site: OlapTarget) -> Self {
        self.site = Some(site);
        self
    }

    /// Sets the table id.
    pub fn table(mut self, table: u64) -> Self {
        self.table = Some(table);
        self
    }

    /// Sets the snapshot epoch.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Sets bytes moved.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Sets the duration in seconds (simulated or wall-clock).
    pub fn dur_secs(mut self, secs: f64) -> Self {
        self.dur_secs = secs;
        self
    }

    /// Attaches the site's execution breakdown.
    pub fn breakdown(mut self, b: ExecBreakdown) -> Self {
        self.breakdown = Some(b);
        self
    }

    /// Sets the cache-probe outcome.
    pub fn hit(mut self, hit: bool) -> Self {
        self.hit = Some(hit);
        self
    }
}

/// A recorded span: the event plus the tracer's stamps.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Global emission order (monotonic across threads).
    pub seq: u64,
    /// The query index active when the span was recorded.
    pub query: u64,
    /// The emitted event.
    pub event: SpanEvent,
    /// Microseconds since tracer creation at which the span *started*
    /// (recording time minus the wall-clock duration; simulated durations
    /// start at recording time).
    pub start_us: u64,
}

struct TracerInner {
    enabled: AtomicBool,
    /// Ring cursor; `fetch_add(1, Relaxed)` is the hot path's only shared
    /// write.
    cursor: AtomicU64,
    /// Current query id, stamped onto every span. OLAP dispatch is
    /// serialised under the engine's query lock, so a single cell suffices.
    query: AtomicU64,
    /// Spans dropped because their slot was contended.
    dropped: AtomicU64,
    /// Wall-clock anchor for the `start_us` timeline.
    anchor: Instant,
    /// Power-of-two ring of slots. Each slot's lock is only ever contended
    /// by a concurrent reader or a lapped writer; writers `try_lock` and
    /// drop the span on contention rather than waiting.
    slots: Box<[Mutex<Option<SpanRecord>>]>,
}

/// The shared trace handle. Cheap to clone (one `Arc`); a disabled tracer
/// costs one relaxed atomic load per would-be span.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("capacity", &self.inner.slots.len())
            .field("recorded", &self.inner.cursor.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    fn build(enabled: bool, capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let slots: Vec<Mutex<Option<SpanRecord>>> = (0..capacity).map(|_| Mutex::new(None)).collect();
        Self {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(enabled),
                cursor: AtomicU64::new(0),
                query: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                anchor: Instant::now(),
                slots: slots.into_boxed_slice(),
            }),
        }
    }

    /// A permanently cheap no-op tracer (capacity 1, disabled). The default
    /// every site starts with until the engine installs a real one.
    pub fn disabled() -> Self {
        Self::build(false, 1)
    }

    /// An enabled tracer with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(true, capacity)
    }

    /// A tracer configured from [`ObsConfig`].
    pub fn from_config(config: &ObsConfig) -> Self {
        if config.tracing {
            Self::with_capacity(config.trace_capacity)
        } else {
            Self::disabled()
        }
    }

    /// Whether spans are being recorded — the one-relaxed-load guard every
    /// emission site checks before doing any other work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Starts a wall-clock measurement, or `None` when disabled (so the
    /// disabled path never calls `Instant::now`).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    /// Sets the query id stamped onto subsequent spans.
    pub fn set_query(&self, query: u64) {
        if self.enabled() {
            self.inner.query.store(query, Ordering::Relaxed);
        }
    }

    /// Records an event whose duration is already in `event.dur_secs`
    /// (simulated site time). The span starts at recording time.
    pub fn record(&self, event: SpanEvent) {
        if !self.enabled() {
            return;
        }
        let now_us = self.inner.anchor.elapsed().as_micros() as u64;
        self.push(event, now_us);
    }

    /// Records an event measured by wall clock: duration is
    /// `started.elapsed()` and the span starts where the measurement did.
    /// `started` comes from [`Tracer::start`]; a `None` (tracing was off at
    /// start time) records nothing.
    pub fn record_wall(&self, event: SpanEvent, started: Option<Instant>) {
        let Some(started) = started else { return };
        if !self.enabled() {
            return;
        }
        let dur = started.elapsed();
        let start_us = started.saturating_duration_since(self.inner.anchor).as_micros() as u64;
        self.push(event.dur_secs(dur.as_secs_f64()), start_us);
    }

    fn push(&self, event: SpanEvent, start_us: u64) {
        let seq = self.inner.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.inner.slots[(seq as usize) & (self.inner.slots.len() - 1)];
        match slot.try_lock() {
            Some(mut guard) => {
                *guard = Some(SpanRecord { seq, query: self.inner.query.load(Ordering::Relaxed), event, start_us })
            }
            None => {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans dropped due to slot contention (not ring overwrites).
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Total spans ever recorded (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner.cursor.load(Ordering::Relaxed)
    }

    /// The retained spans, oldest first. Takes each slot's lock briefly —
    /// a span being written concurrently is skipped, never waited on.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::with_capacity(self.inner.slots.len());
        for slot in self.inner.slots.iter() {
            if let Some(guard) = slot.try_lock() {
                if let Some(record) = *guard {
                    out.push(record);
                }
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Clears every retained span (the ring stays enabled).
    pub fn clear(&self) {
        for slot in self.inner.slots.iter() {
            if let Some(mut guard) = slot.try_lock() {
                *guard = None;
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "a wall-clock span test needs wall time to pass")]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(t.start().is_none());
        t.record(SpanEvent::new(SpanKind::Kernel).dur_secs(1.0));
        t.record_wall(SpanEvent::new(SpanKind::Placement), t.start());
        assert_eq!(t.recorded(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn spans_are_stamped_in_order_with_the_current_query() {
        let t = Tracer::with_capacity(64);
        t.set_query(7);
        t.record(SpanEvent::new(SpanKind::Placement).site(OlapTarget::Gpu));
        t.set_query(8);
        t.record(SpanEvent::new(SpanKind::Kernel).site(OlapTarget::Gpu).dur_secs(0.25).bytes(1024));
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].query, 7);
        assert_eq!(spans[0].event.kind, SpanKind::Placement);
        assert_eq!(spans[1].query, 8);
        assert_eq!(spans[1].event.dur_secs, 0.25);
        assert_eq!(spans[1].event.bytes, 1024);
        assert!(spans[0].seq < spans[1].seq);
        assert!(spans[0].start_us <= spans[1].start_us);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.record(SpanEvent::new(SpanKind::Kernel).bytes(i));
        }
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        // The four newest survive, in emission order.
        let bytes: Vec<u64> = spans.iter().map(|s| s.event.bytes).collect();
        assert_eq!(bytes, vec![6, 7, 8, 9]);
        assert_eq!(t.recorded(), 10);
    }

    #[test]
    fn wall_measurement_sets_duration_and_start() {
        let t = Tracer::with_capacity(8);
        let started = t.start();
        assert!(started.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.record_wall(SpanEvent::new(SpanKind::Materialise), started);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].event.dur_secs >= 0.002);
    }

    #[test]
    fn concurrent_recording_from_many_threads_is_safe() {
        let t = Tracer::with_capacity(1024);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        t.record(SpanEvent::new(SpanKind::Kernel).bytes(thread * 1000 + i));
                    }
                });
            }
        });
        let spans = t.snapshot();
        // 800 spans fit in 1024 slots; a handful may drop under contention.
        assert_eq!(t.recorded(), 800);
        assert!(spans.len() as u64 + t.dropped() == 800, "{} retained, {} dropped", spans.len(), t.dropped());
        // seq stamps are unique.
        let mut seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), spans.len());
    }

    #[test]
    fn config_default_is_off() {
        let cfg = ObsConfig::default();
        assert!(!cfg.tracing);
        assert!(!Tracer::from_config(&cfg).enabled());
        assert!(Tracer::from_config(&ObsConfig { tracing: true, ..cfg }).enabled());
    }
}
