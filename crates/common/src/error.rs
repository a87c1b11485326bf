//! The shared error type of the workspace.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, H2Error>;

/// The kind of an injected (or surfaced) execution-site fault. Lives in
/// `common` so the error type can carry it without depending on the GPU
/// simulator; the fault *injector* itself lives in `h2tap-gpu-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A kernel launch failed and can be retried (ECC hiccup, driver
    /// timeout, preemption).
    TransientKernel,
    /// A transient out-of-memory spike: allocation pressure that clears on
    /// retry, distinct from a genuine capacity miss.
    OomSpike,
    /// The interconnect stalled: the launch completed but paid a large
    /// latency penalty. Never surfaces as an error — time-only.
    InterconnectStall,
    /// The device fell off the bus. Permanent: every later launch fails.
    DeviceLost,
}

impl FaultKind {
    /// Stable lower-snake name, used in metrics keys and span payloads.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientKernel => "transient_kernel",
            FaultKind::OomSpike => "oom_spike",
            FaultKind::InterconnectStall => "interconnect_stall",
            FaultKind::DeviceLost => "device_lost",
        }
    }

    /// All kinds, in declaration order (metrics/report iteration).
    pub const ALL: [FaultKind; 4] =
        [FaultKind::TransientKernel, FaultKind::OomSpike, FaultKind::InterconnectStall, FaultKind::DeviceLost];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors surfaced by the Caldera engine and its substrates.
#[derive(Debug, Clone, PartialEq)]
pub enum H2Error {
    /// A schema was malformed (empty, duplicate attribute names, ...).
    InvalidSchema(String),
    /// An attribute name or index does not exist in the schema.
    UnknownAttribute(String),
    /// A table id does not exist in the catalog.
    UnknownTable(String),
    /// A record id does not exist.
    UnknownRecord(String),
    /// A transaction was aborted (deadlock avoidance, validation failure,
    /// explicit user abort, or 2PC vote-no).
    TxnAborted(String),
    /// A lock could not be acquired within the deadlock-avoidance budget.
    LockTimeout(String),
    /// The GPU simulator was asked to do something its configuration cannot
    /// do (e.g. allocate past device capacity without oversubscription).
    GpuOutOfMemory { requested_bytes: u64, capacity_bytes: u64 },
    /// A kernel or operator was configured inconsistently.
    InvalidKernel(String),
    /// A message-passing endpoint disconnected unexpectedly.
    ChannelClosed(String),
    /// The scheduler could not satisfy a placement request.
    Placement(String),
    /// Generic configuration error.
    Config(String),
    /// An injected (or real) execution-site fault. `transient` faults are
    /// retry candidates; persistent ones mean the site is gone.
    Fault { site: String, kind: FaultKind, transient: bool },
}

impl fmt::Display for H2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2Error::InvalidSchema(m) => write!(f, "invalid schema: {m}"),
            H2Error::UnknownAttribute(m) => write!(f, "unknown attribute: {m}"),
            H2Error::UnknownTable(m) => write!(f, "unknown table: {m}"),
            H2Error::UnknownRecord(m) => write!(f, "unknown record: {m}"),
            H2Error::TxnAborted(m) => write!(f, "transaction aborted: {m}"),
            H2Error::LockTimeout(m) => write!(f, "lock timeout: {m}"),
            H2Error::GpuOutOfMemory { requested_bytes, capacity_bytes } => {
                write!(f, "GPU out of memory: requested {requested_bytes} bytes, capacity {capacity_bytes} bytes")
            }
            H2Error::InvalidKernel(m) => write!(f, "invalid kernel: {m}"),
            H2Error::ChannelClosed(m) => write!(f, "channel closed: {m}"),
            H2Error::Placement(m) => write!(f, "placement error: {m}"),
            H2Error::Config(m) => write!(f, "configuration error: {m}"),
            H2Error::Fault { site, kind, transient } => {
                let class = if *transient { "transient" } else { "persistent" };
                write!(f, "{class} {kind} fault on site {site}")
            }
        }
    }
}

impl std::error::Error for H2Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_detail() {
        let e = H2Error::TxnAborted("write conflict".into());
        assert!(e.to_string().contains("write conflict"));
        let g = H2Error::GpuOutOfMemory { requested_bytes: 10, capacity_bytes: 4 };
        assert!(g.to_string().contains("requested 10"));
    }

    #[test]
    fn fault_display_distinguishes_transient_from_persistent() {
        let t = H2Error::Fault { site: "gpu".into(), kind: FaultKind::TransientKernel, transient: true };
        assert!(t.to_string().contains("transient transient_kernel fault on site gpu"));
        let p = H2Error::Fault { site: "gpu".into(), kind: FaultKind::DeviceLost, transient: false };
        assert!(p.to_string().contains("persistent device_lost"));
    }

    #[test]
    fn fault_kind_names_are_stable() {
        let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["transient_kernel", "oom_spike", "interconnect_stall", "device_lost"]);
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<H2Error>();
    }
}
