//! Epoch numbers for the shadow-copy snapshot mechanism.
//!
//! Every node of Caldera's hierarchical data organization (partition → table
//! → column → page, Figure 3 of the paper) carries an epoch number. Taking a
//! snapshot is a shallow copy of the top-level container plus an increment of
//! the live epoch; copy-on-write then bumps the epoch of every shadow-copied
//! node so a writer can tell a page a snapshot may still share (stamped
//! before the live epoch) from one only the live store holds.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A monotonically increasing snapshot epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The initial epoch of a freshly created database.
    pub const ZERO: Epoch = Epoch(0);

    /// The next epoch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// Whether a node stamped with `self` is visible to a snapshot taken at
    /// `snapshot`: nodes are visible when they were created at or before the
    /// snapshot epoch.
    #[cfg(test)]
    pub(crate) fn visible_to(self, snapshot: Epoch) -> bool {
        self.0 <= snapshot.0
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_is_monotonic() {
        let e = Epoch::ZERO;
        assert!(e.next() > e);
        assert_eq!(e.next().next(), Epoch(2));
    }

    #[test]
    fn visibility_rules() {
        let snap = Epoch(5);
        assert!(Epoch(5).visible_to(snap));
        assert!(Epoch(0).visible_to(snap));
        assert!(!Epoch(6).visible_to(snap));
    }

    #[test]
    fn display() {
        assert_eq!(Epoch(3).to_string(), "e3");
    }
}
