//! Seeds, table sizes and loading.
//!
//! Everything random in a run derives from the one `--seed`: the two table
//! generators, the benchmark's own key choices and the engine's per-worker
//! workload RNGs. The engine receives only the generated inputs.

use caldera::CalderaBuilder;
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{Result, TableId, Value};
use h2tap_storage::Layout;
use h2tap_workloads::tpch;

/// The seeds one run uses, all derived from `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `lineitem` row generator.
    pub lineitem: u64,
    /// `part` row generator.
    pub part: u64,
    /// The benchmark's paced-client key choices.
    pub keys: u64,
    /// `OltpConfig::seed`: the per-worker generator RNGs inside the engine.
    pub oltp: u64,
}

impl Seeds {
    /// Derives the four seeds from the command-line seed.
    pub fn derive(seed: u64) -> Self {
        // A fixed tweak keeps seed 0 away from SplitMix's all-zero state.
        let mut rng = SplitMixRng::new(seed ^ 0x4854_4150_4245_4E43);
        Self { lineitem: rng.next_u64(), part: rng.next_u64(), keys: rng.next_u64(), oltp: rng.next_u64() }
    }
}

/// Table sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rows of `lineitem`.
    pub lineitem_rows: u64,
    /// Rows of `part`.
    pub part_rows: u64,
}

impl Scale {
    /// The measured size. Both archipelagos must be DRAM-bound for the
    /// numbers to repeat: below about 1 M rows the OLTP hot set sits on the
    /// shared L3's edge and throughput depends on the neighbours (see the
    /// README's sizing evidence).
    pub const FULL: Scale = Scale { lineitem_rows: 2_000_000, part_rows: 200_000 };

    /// The smoke-test size (`--quick`): exercises every code path in about a
    /// second; its numbers mean nothing.
    pub const QUICK: Scale = Scale { lineitem_rows: 60_000, part_rows: 6_000 };
}

/// What loading produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Loaded {
    /// The `lineitem` table.
    pub lineitem: TableId,
    /// The `part` table.
    pub part: TableId,
    /// `SUM(l_quantity)` of the generated rows. Quantities are small
    /// integers, so the sum is exact in f64 and the conservation check on
    /// it can demand equality.
    pub quantity_sum: f64,
    /// Order-sensitive checksum over every generated cell of both tables.
    pub checksum: u64,
}

/// Folds one value into a running FNV-style checksum.
fn fold(hash: u64, bits: u64) -> u64 {
    (hash ^ bits).wrapping_mul(0x0000_0100_0000_01B3)
}

fn fold_row(mut hash: u64, row: &[Value]) -> u64 {
    for value in row {
        let bits = match value {
            Value::Float64(x) => x.to_bits(),
            other => other.as_i64().unwrap_or(0) as u64,
        };
        hash = fold(hash, bits);
    }
    hash
}

/// Loads `part` then `lineitem` (keys are row numbers, as
/// `tpch::load_lineitem` assigns them) and returns the table ids with the
/// quantity sum and checksum taken in the same pass.
pub fn load(builder: &mut CalderaBuilder, scale: Scale, seeds: Seeds) -> Result<Loaded> {
    let mut checksum = 0xCBF2_9CE4_8422_2325;
    let part = builder.create_table("part", tpch::part_schema(), Layout::PAPER_PAX)?;
    let mut rng = SplitMixRng::new(seeds.part);
    for key in 0..scale.part_rows {
        let row = tpch::part_row(key, &mut rng);
        checksum = fold_row(checksum, &row);
        builder.load(part, key as i64, &row)?;
    }
    let lineitem = builder.create_table("lineitem", tpch::lineitem_schema(), Layout::PAPER_PAX)?;
    let mut rng = SplitMixRng::new(seeds.lineitem);
    let mut quantity_sum = 0.0;
    for key in 0..scale.lineitem_rows {
        let row = tpch::lineitem_row(key, &mut rng);
        quantity_sum += row[tpch::columns::QUANTITY].as_f64().unwrap_or(0.0);
        checksum = fold_row(checksum, &row);
        builder.load(lineitem, key as i64, &row)?;
    }
    Ok(Loaded { lineitem, part, quantity_sum, checksum })
}

/// A digest of everything the seed decides for a workload: the table
/// contents, the first transactions' keys and the query rotation. Two runs
/// with the same seed must agree on it; two seeds must not.
pub fn workload_digest(loaded: &Loaded, txn_keys: &[i64], rotation: &str) -> String {
    let mut hash = fold(0xCBF2_9CE4_8422_2325, loaded.checksum);
    for key in txn_keys {
        hash = fold(hash, *key as u64);
    }
    for byte in rotation.bytes() {
        hash = fold(hash, u64::from(byte));
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_from_each_other_and_between_runs() {
        let one = Seeds::derive(1);
        assert_eq!(one, Seeds::derive(1));
        assert_ne!(one, Seeds::derive(2));
        let all = [one.lineitem, one.part, one.keys, one.oltp];
        for (i, a) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|b| a != b));
        }
    }
}
