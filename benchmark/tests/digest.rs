//! The seed decides every input: the same seed gives the same workload
//! digest, another seed another one.

use htapbench::data::{Scale, Seeds};
use htapbench::workload::{prepare, Workload};

fn digest(workload: Workload, seed: u64) -> String {
    prepare(workload, Seeds::derive(seed), Scale::QUICK, false).expect("quick-scale inputs load").digest
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        assert_eq!(digest(workload, 1), digest(workload, 1), "{}", workload.name());
    }
}

#[test]
fn the_development_and_held_out_seeds_give_different_inputs() {
    for workload in Workload::ALL {
        assert_ne!(digest(workload, 1), digest(workload, 2), "{}", workload.name());
    }
}

#[test]
fn workloads_that_differ_in_keys_or_rotation_differ_in_digest() {
    // Same tables, but other transaction keys (partitions, working set) or
    // another query rotation.
    let digests: Vec<String> = Workload::ALL.iter().map(|w| digest(*w, 1)).collect();
    assert_eq!(digests[0], digests[1], "the two read-only workloads share every input");
    assert_ne!(digests[0], digests[2]);
    assert_ne!(digests[2], digests[3]);
}
