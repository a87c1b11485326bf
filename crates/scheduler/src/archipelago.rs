//! Archipelago membership and migration.

use h2tap_common::{H2Error, Result};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The two workload-specific resource containers of the H2TAP architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchipelagoKind {
    /// CPU-only container running transactions.
    TaskParallel,
    /// GPU (plus optionally CPU) container running analytical queries.
    DataParallel,
}

/// A resource container: the CPU cores and GPUs assigned to one workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Archipelago {
    /// Which workload this container serves.
    pub kind: ArchipelagoKind,
    /// CPU core ids that belong to the container.
    pub cpu_cores: BTreeSet<u32>,
    /// Names of GPUs that belong to the container (always empty for the
    /// task-parallel archipelago: transactions need fine-grained
    /// synchronisation that data-parallel hardware does not offer).
    pub gpus: Vec<String>,
}

impl Archipelago {
    /// Total CPU cores in the container.
    pub fn core_count(&self) -> usize {
        self.cpu_cores.len()
    }
}

/// Core–archipelago membership manager.
#[derive(Debug)]
pub struct Scheduler {
    inner: RwLock<SchedulerInner>,
}

#[derive(Debug)]
struct SchedulerInner {
    task: Archipelago,
    data: Archipelago,
}

impl Scheduler {
    /// Creates a scheduler that assigns `oltp_cores` CPU cores to the
    /// task-parallel archipelago, `olap_cpu_cores` CPU cores plus the named
    /// GPUs to the data-parallel archipelago.
    pub fn new(oltp_cores: usize, olap_cpu_cores: usize, gpus: Vec<String>) -> Self {
        let task = Archipelago {
            kind: ArchipelagoKind::TaskParallel,
            cpu_cores: (0..oltp_cores as u32).collect(),
            gpus: Vec::new(),
        };
        let data = Archipelago {
            kind: ArchipelagoKind::DataParallel,
            cpu_cores: (oltp_cores as u32..(oltp_cores + olap_cpu_cores) as u32).collect(),
            gpus,
        };
        Self { inner: RwLock::new(SchedulerInner { task, data }) }
    }

    /// A copy of the archipelago of the given kind.
    pub fn archipelago(&self, kind: ArchipelagoKind) -> Archipelago {
        let inner = self.inner.read();
        match kind {
            ArchipelagoKind::TaskParallel => inner.task.clone(),
            ArchipelagoKind::DataParallel => inner.data.clone(),
        }
    }

    /// Moves a CPU core from one archipelago to the other ("run-time
    /// elasticity by enabling on-the-fly migration of CPU cores").
    ///
    /// # Errors
    /// Fails if the core is not currently a member of `from`, or if the move
    /// would leave the task-parallel archipelago empty.
    pub fn migrate_core(&self, core: u32, from: ArchipelagoKind, to: ArchipelagoKind) -> Result<()> {
        if from == to {
            return Ok(());
        }
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let (src, dst) = match from {
            ArchipelagoKind::TaskParallel => (&mut inner.task, &mut inner.data),
            ArchipelagoKind::DataParallel => (&mut inner.data, &mut inner.task),
        };
        if !src.cpu_cores.contains(&core) {
            return Err(H2Error::Placement(format!("core {core} is not in {from:?}")));
        }
        if matches!(from, ArchipelagoKind::TaskParallel) && src.cpu_cores.len() == 1 {
            return Err(H2Error::Placement("cannot empty the task-parallel archipelago".into()));
        }
        src.cpu_cores.remove(&core);
        dst.cpu_cores.insert(core);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_membership_is_disjoint() {
        let s = Scheduler::new(4, 2, vec!["GTX 980".into()]);
        let task = s.archipelago(ArchipelagoKind::TaskParallel);
        let data = s.archipelago(ArchipelagoKind::DataParallel);
        assert_eq!(task.core_count(), 4);
        assert_eq!(data.core_count(), 2);
        assert!(task.cpu_cores.is_disjoint(&data.cpu_cores));
        assert!(task.gpus.is_empty());
        assert_eq!(data.gpus, vec!["GTX 980".to_string()]);
    }

    #[test]
    fn migration_moves_cores_between_archipelagos() {
        let s = Scheduler::new(4, 0, vec![]);
        s.migrate_core(3, ArchipelagoKind::TaskParallel, ArchipelagoKind::DataParallel).unwrap();
        assert_eq!(s.archipelago(ArchipelagoKind::TaskParallel).core_count(), 3);
        assert_eq!(s.archipelago(ArchipelagoKind::DataParallel).core_count(), 1);
        // And back.
        s.migrate_core(3, ArchipelagoKind::DataParallel, ArchipelagoKind::TaskParallel).unwrap();
        assert_eq!(s.archipelago(ArchipelagoKind::TaskParallel).core_count(), 4);
    }

    #[test]
    fn migrating_a_foreign_core_fails() {
        let s = Scheduler::new(2, 1, vec![]);
        assert!(s.migrate_core(9, ArchipelagoKind::TaskParallel, ArchipelagoKind::DataParallel).is_err());
    }

    #[test]
    fn task_archipelago_cannot_be_emptied() {
        let s = Scheduler::new(1, 0, vec![]);
        let err = s.migrate_core(0, ArchipelagoKind::TaskParallel, ArchipelagoKind::DataParallel);
        assert!(err.is_err());
    }

    #[test]
    fn self_migration_is_a_noop() {
        let s = Scheduler::new(2, 0, vec![]);
        s.migrate_core(0, ArchipelagoKind::TaskParallel, ArchipelagoKind::TaskParallel).unwrap();
        assert_eq!(s.archipelago(ArchipelagoKind::TaskParallel).core_count(), 2);
    }
}
