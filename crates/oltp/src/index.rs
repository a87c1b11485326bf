//! Thread-private primary-key indexes.
//!
//! "Each thread uses ... a primary-key index to assist in record lookup.
//! Unlike data, which is shared across archipelagos, the lock tables and
//! indices are private to each thread ... and do not belong to the snapshot
//! hierarchy. Thus, they refer to logical records whose physical location
//! changes during copy-on-write operations."
//!
//! The index therefore maps a primary key to a *logical* row slot within the
//! owning partition's table fragment — never to a page pointer.
//!
//! Every transaction resolves each of its keys here, so a lookup is one
//! array read for the dense key ranges every workload loads. Each table's
//! keys live in exactly one of two arms:
//!
//! * the **direct window**: a `u32` slot per key of the span
//!   `base..base + len`, holding `row + 1` (0 = absent). A key outside the
//!   window grows it, doubling toward the key, as long as the new span
//!   stays within `max(8 × keys, 2^18)` slots. Eight 4-byte slots are 32 B
//!   per key, under the ~35 B a `BTreeMap<i64, u64>` entry costs, so the
//!   window spans no more than the map would spend on the keys it admits
//!   (the deque backing it may reserve up to twice its span as it grows).
//!   Dense keys cost 4–8 B each, and `ModuloPartitioner` strides up to 8
//!   workers stay direct. A grown window absorbs the spilled keys it now
//!   covers.
//! * the **spill**: a `BTreeMap<i64, u64>` with every key the window cannot
//!   take — sparse keys (TPC-C orders), far outliers, and rows that do not
//!   fit a slot (`row ≥ u32::MAX`). These cost what a map entry costs.
//!
//! The window is anchored by the first key it takes, so a table loaded
//! from a far outlier first keeps its later dense run in the spill.

use h2tap_common::{H2Error, PartitionId, RecordId, Result, TableId};
use std::collections::{BTreeMap, VecDeque};

/// Slots the window may span per indexed key: 8 × 4 B = 32 B per key.
const SLOTS_PER_KEY: i128 = 8;
/// Span a window may reach whatever its key count (1 MiB of slots).
const MIN_SPAN: i128 = 1 << 18;

/// The primary-key indexes of one partition, one per table.
///
/// Indexed by `TableId.0`: `Database::create_table` numbers tables densely
/// from 0.
#[derive(Debug, Default, Clone)]
pub struct PartitionIndex {
    tables: Vec<TableKeys>,
}

/// One table's keys: a direct slot window plus a spill map. A key lives in
/// exactly one of them.
#[derive(Debug, Default, Clone)]
struct TableKeys {
    /// Key of `slots[0]`. The window `base..base + slots.len()` never
    /// reaches past `i64::MAX`.
    base: i64,
    /// `row + 1` per key of the window, 0 where the key is absent. A deque,
    /// so the window grows downward as cheaply as upward.
    slots: VecDeque<u32>,
    /// Occupied slots.
    direct: usize,
    /// Keys the window does not hold.
    spill: BTreeMap<i64, u64>,
}

impl TableKeys {
    fn len(&self) -> usize {
        self.direct + self.spill.len()
    }

    /// Position of `key` in the window, if the window covers it.
    fn slot(&self, key: i64) -> Option<usize> {
        // The window ends at or before `i64::MAX`, so the wrapped offset of
        // any key outside it is at least the window's length.
        let offset = key.wrapping_sub(self.base) as u64;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    fn get(&self, key: i64) -> Option<u64> {
        match self.slot(key).map(|i| self.slots[i]) {
            Some(row) if row != 0 => Some(u64::from(row) - 1),
            _ => self.spill.get(&key).copied(),
        }
    }

    fn insert(&mut self, key: i64, row: u64) {
        if row < u64::from(u32::MAX) {
            if let Some(i) = self.slot(key).or_else(|| self.grow_to(key)) {
                if std::mem::replace(&mut self.slots[i], row as u32 + 1) == 0 {
                    self.direct += 1;
                    self.spill.remove(&key);
                }
                return;
            }
        }
        if let Some(i) = self.slot(key) {
            if std::mem::take(&mut self.slots[i]) != 0 {
                self.direct -= 1;
            }
        }
        self.spill.insert(key, row);
    }

    fn remove(&mut self, key: i64) -> Option<u64> {
        if let Some(i) = self.slot(key) {
            let row = std::mem::take(&mut self.slots[i]);
            if row != 0 {
                self.direct -= 1;
                return Some(u64::from(row) - 1);
            }
        }
        self.spill.remove(&key)
    }

    /// Grows the window to cover `key` if the density rule admits the span
    /// that needs, and returns the key's slot. The window doubles toward the
    /// key, up to the rule's bound; the deque's own doubling keeps growth
    /// at that bound amortised in both directions. The first key a window
    /// takes anchors it.
    fn grow_to(&mut self, key: i64) -> Option<usize> {
        let key_at = i128::from(key);
        if self.slots.is_empty() {
            self.base = key;
        }
        let (old_lo, old_len) = (i128::from(self.base), self.slots.len() as i128);
        let (lo, hi) = (old_lo.min(key_at), (old_lo + old_len - 1).max(key_at));
        let needed = hi - lo + 1;
        let bound = (SLOTS_PER_KEY * (self.len() as i128 + 1)).max(MIN_SPAN);
        if needed > bound {
            return None;
        }
        let span = needed.max((2 * old_len).min(bound));
        let (new_lo, new_hi) = if key_at < old_lo {
            ((hi - span + 1).max(i128::from(i64::MIN)), hi)
        } else {
            (lo, (lo + span - 1).min(i128::from(i64::MAX)))
        };
        for _ in new_lo..old_lo {
            self.slots.push_front(0);
        }
        self.slots.resize((new_hi - new_lo + 1) as usize, 0);
        let (new_lo, new_hi) = (new_lo as i64, new_hi as i64);
        self.base = new_lo;
        let absorbed: Vec<(i64, u64)> = self
            .spill
            .range(new_lo..=new_hi)
            .filter(|(_, row)| **row < u64::from(u32::MAX))
            .map(|(k, row)| (*k, *row))
            .collect();
        for (k, row) in absorbed {
            self.spill.remove(&k);
            self.slots[k.abs_diff(new_lo) as usize] = row as u32 + 1;
            self.direct += 1;
        }
        self.slot(key)
    }
}

impl PartitionIndex {
    /// Creates an empty index set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `key -> row` for `table`, replacing any previous mapping.
    pub fn insert(&mut self, table: TableId, key: i64, row: u64) {
        let t = table.0 as usize;
        if t >= self.tables.len() {
            self.tables.resize_with(t + 1, TableKeys::default);
        }
        self.tables[t].insert(key, row);
    }

    /// Looks up the row of `key` in `table`.
    pub fn lookup(&self, table: TableId, key: i64) -> Option<u64> {
        self.tables.get(table.0 as usize).and_then(|t| t.get(key))
    }

    /// Looks up a key and converts it to a [`RecordId`] in `partition`.
    pub fn lookup_rid(&self, partition: PartitionId, table: TableId, key: i64) -> Result<RecordId> {
        self.lookup(table, key)
            .map(|row| RecordId::new(partition, table, row))
            .ok_or_else(|| H2Error::UnknownRecord(format!("key {key} in {table} of {partition}")))
    }

    /// Removes a key (used only by tests and future delete support).
    pub fn remove(&mut self, table: TableId, key: i64) -> Option<u64> {
        self.tables.get_mut(table.0 as usize).and_then(|t| t.remove(key))
    }

    /// Number of keys indexed for `table`.
    #[cfg(test)]
    pub(crate) fn key_count(&self, table: TableId) -> usize {
        self.tables.get(table.0 as usize).map_or(0, TableKeys::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::rng::SplitMixRng;
    use h2tap_workloads::tpcc::keys as tpcc;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = PartitionIndex::new();
        let t = TableId(3);
        idx.insert(t, 10, 0);
        idx.insert(t, 20, 1);
        assert_eq!(idx.lookup(t, 10), Some(0));
        assert_eq!(idx.lookup(t, 30), None);
        assert_eq!(idx.key_count(t), 2);
        assert_eq!(idx.remove(t, 10), Some(0));
        assert_eq!(idx.lookup(t, 10), None);
    }

    #[test]
    fn lookup_rid_builds_record_ids() {
        let mut idx = PartitionIndex::new();
        let t = TableId(1);
        idx.insert(t, 7, 42);
        let rid = idx.lookup_rid(PartitionId(5), t, 7).unwrap();
        assert_eq!(rid, RecordId::new(PartitionId(5), t, 42));
        assert!(idx.lookup_rid(PartitionId(5), t, 8).is_err());
    }

    #[test]
    fn keys_are_per_table() {
        let mut idx = PartitionIndex::new();
        idx.insert(TableId(1), 5, 0);
        idx.insert(TableId(2), 5, 9);
        assert_eq!(idx.lookup(TableId(1), 5), Some(0));
        assert_eq!(idx.lookup(TableId(2), 5), Some(9));
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Arm {
        Direct,
        Spill,
    }

    /// The arm holding `key`, asserting it is held by exactly one.
    fn arm_of(idx: &PartitionIndex, table: TableId, key: i64) -> Option<Arm> {
        let t = idx.tables.get(table.0 as usize)?;
        let direct = t.slot(key).is_some_and(|i| t.slots[i] != 0);
        let spilled = t.spill.contains_key(&key);
        assert!(!(direct && spilled), "key {key} of {table} is in both arms");
        match (direct, spilled) {
            (true, _) => Some(Arm::Direct),
            (_, true) => Some(Arm::Spill),
            _ => None,
        }
    }

    /// Checks every reference entry and both arms' bookkeeping.
    fn check_all(idx: &PartitionIndex, reference: &BTreeMap<(TableId, i64), u64>) {
        for (&(table, key), &row) in reference {
            assert_eq!(idx.lookup(table, key), Some(row), "key {key} of {table}");
            assert!(arm_of(idx, table, key).is_some());
        }
        for (t, keys) in idx.tables.iter().enumerate() {
            let table = TableId(t as u32);
            assert_eq!(keys.slots.iter().filter(|s| **s != 0).count(), keys.direct, "{table}: occupied slots");
            assert_eq!(keys.len(), reference.range((table, i64::MIN)..=(table, i64::MAX)).count(), "{table}");
        }
    }

    /// One key set: `(table, key)` pairs in load order, and the arm each
    /// loaded key is expected in (`None`: not asserted).
    struct KeySet {
        name: &'static str,
        keys: Vec<(TableId, i64)>,
        arm: fn(TableId, i64) -> Option<Arm>,
    }

    fn key_sets() -> Vec<KeySet> {
        let t = TableId(0);
        let on = |keys: Vec<i64>| keys.into_iter().map(|k| (t, k)).collect::<Vec<_>>();
        let (customer, stock, orders) = (TableId(2), TableId(4), TableId(5));
        let w = 3;
        let mut tpcc_keys = Vec::new();
        for d in 0..10 {
            tpcc_keys.extend((0..120).map(|c| (customer, tpcc::customer(w, d, c))));
        }
        tpcc_keys.extend((0..2_000).map(|i| (stock, tpcc::stock(w, i))));
        for o in 0..30 {
            tpcc_keys.extend((0..10).map(|d| (orders, tpcc::order(w, d, o))));
        }
        vec![
            KeySet { name: "dense", keys: on((0..5_000).collect()), arm: |_, _| Some(Arm::Direct) },
            KeySet {
                name: "negative base",
                keys: on((0..5_000).map(|k| k - 1_000_000_000_000).collect()),
                arm: |_, _| Some(Arm::Direct),
            },
            KeySet { name: "descending", keys: on((0..5_000).rev().collect()), arm: |_, _| Some(Arm::Direct) },
            KeySet {
                name: "stride 2",
                keys: on((0..5_000).map(|k| 1 + 2 * k).collect()),
                arm: |_, _| Some(Arm::Direct),
            },
            // Past the 2^18 floor, so the 8-slots-per-key rule decides.
            KeySet { name: "stride 8", keys: on((0..40_000).map(|k| 8 * k).collect()), arm: |_, _| Some(Arm::Direct) },
            KeySet {
                name: "stride 9",
                keys: on((0..40_000).map(|k| 9 * k).collect()),
                arm: |_, k| Some(if k < 1 << 18 { Arm::Direct } else { Arm::Spill }),
            },
            KeySet {
                name: "tpc-c",
                keys: tpcc_keys,
                // Ten districts of orders span 2 M keys: the later ones spill.
                arm: |table, k| match table.0 {
                    5 if k >= tpcc::order(3, 2, 0) => Some(Arm::Spill),
                    _ => Some(Arm::Direct),
                },
            },
            KeySet {
                name: "dense + 2^40",
                keys: on((0..5_000).chain([1 << 40]).collect()),
                arm: |_, k| Some(if k == 1 << 40 { Arm::Spill } else { Arm::Direct }),
            },
            KeySet {
                // Spills while the table is small; the stride-8 run grows
                // the window over it, and the window absorbs it.
                name: "outlier absorbed",
                keys: on([0, 262_150].into_iter().chain((1..=32_800).map(|k| 8 * k)).collect()),
                arm: |_, _| Some(Arm::Direct),
            },
            KeySet {
                name: "2^40 + dense",
                keys: on([1 << 40].into_iter().chain(0..2_000).collect()),
                arm: |_, _| None,
            },
            KeySet {
                name: "i64 ends",
                keys: on((i64::MAX - 300..=i64::MAX).chain(i64::MIN..i64::MIN + 300).collect()),
                arm: |_, k| Some(if k > 0 { Arm::Direct } else { Arm::Spill }),
            },
            KeySet {
                name: "descending to i64::MIN",
                keys: on((i64::MIN..i64::MIN + 3_000).rev().collect()),
                arm: |_, _| Some(Arm::Direct),
            },
        ]
    }

    #[test]
    fn dense_keys_land_in_the_window_and_sparse_keys_spill() {
        for set in key_sets() {
            let mut idx = PartitionIndex::new();
            for (row, &(table, key)) in set.keys.iter().enumerate() {
                idx.insert(table, key, row as u64);
            }
            for (row, &(table, key)) in set.keys.iter().enumerate() {
                assert_eq!(idx.lookup(table, key), Some(row as u64), "{}: key {key}", set.name);
                if let Some(arm) = (set.arm)(table, key) {
                    assert_eq!(arm_of(&idx, table, key), Some(arm), "{}: key {key} of {table}", set.name);
                }
            }
            // A row that does not fit a slot spills, and moves back when
            // re-inserted with one that does.
            let (table, key) = set.keys[set.keys.len() / 2];
            for row in [u64::from(u32::MAX) - 1, u64::from(u32::MAX), u64::MAX, 7] {
                idx.insert(table, key, row);
                assert_eq!(idx.lookup(table, key), Some(row), "{}", set.name);
                if row >= u64::from(u32::MAX) {
                    assert_eq!(arm_of(&idx, table, key), Some(Arm::Spill), "{}: row {row}", set.name);
                }
            }
            assert_eq!(idx.key_count(table), set.keys.iter().filter(|(t, _)| *t == table).count(), "{}", set.name);
        }
    }

    /// Seeded random insert / re-insert / remove / lookup sequences over
    /// every key set, against a `BTreeMap` reference.
    #[test]
    fn index_matches_a_btree_reference_on_random_sequences() {
        for (seed, set) in key_sets().into_iter().enumerate() {
            let mut rng = SplitMixRng::new(0x1DE7 + seed as u64);
            let mut idx = PartitionIndex::new();
            let mut reference = BTreeMap::new();
            let row_of = |rng: &mut SplitMixRng| match rng.next_below(16) {
                0 => [u64::from(u32::MAX) - 1, u64::from(u32::MAX), u64::MAX, 1 << 40][rng.next_below(4) as usize],
                _ => rng.next_below(1 << 31),
            };
            let pick = |rng: &mut SplitMixRng, loaded: usize| set.keys[rng.next_below(loaded.max(1) as u64) as usize];
            let mut counts = BTreeMap::<TableId, usize>::new();
            let mut loaded = 0;
            let mut step = 0usize;
            while loaded < set.keys.len() {
                step += 1;
                let (table, key) = match rng.next_below(10) {
                    0..=5 => {
                        let (table, key) = set.keys[loaded];
                        loaded += 1;
                        let row = row_of(&mut rng);
                        idx.insert(table, key, row);
                        if reference.insert((table, key), row).is_none() {
                            *counts.entry(table).or_default() += 1;
                        }
                        (table, key)
                    }
                    6 => {
                        let (table, key) = pick(&mut rng, loaded);
                        let row = row_of(&mut rng);
                        idx.insert(table, key, row);
                        if reference.insert((table, key), row).is_none() {
                            *counts.entry(table).or_default() += 1;
                        }
                        (table, key)
                    }
                    7 => {
                        let (table, key) = pick(&mut rng, loaded);
                        let removed = reference.remove(&(table, key));
                        assert_eq!(idx.remove(table, key), removed, "{}: remove {key}", set.name);
                        if removed.is_some() {
                            *counts.entry(table).or_default() -= 1;
                        }
                        (table, key)
                    }
                    _ => {
                        let (table, key) = pick(&mut rng, loaded);
                        // Neighbours, the far ends and a random key probe
                        // absent keys around the window.
                        let probe = match rng.next_below(4) {
                            0 => key.wrapping_add(1),
                            1 => key.wrapping_sub(1),
                            2 => [i64::MIN, i64::MAX, 0, -1][rng.next_below(4) as usize],
                            _ => rng.next_u64() as i64,
                        };
                        assert_eq!(idx.lookup(table, probe), reference.get(&(table, probe)).copied(), "{}", set.name);
                        (table, key)
                    }
                };
                assert_eq!(idx.lookup(table, key), reference.get(&(table, key)).copied(), "{}: key {key}", set.name);
                assert_eq!(arm_of(&idx, table, key).is_some(), reference.contains_key(&(table, key)), "{}", set.name);
                assert_eq!(idx.key_count(table), counts.get(&table).copied().unwrap_or(0), "{}: key count", set.name);
                if step.is_multiple_of(1_024) {
                    check_all(&idx, &reference);
                }
            }
            check_all(&idx, &reference);
        }
    }

    /// The window costs 4 B per dense key, up to the doubling's slack.
    #[test]
    fn a_million_dense_keys_take_at_most_4_2_mb_of_slots() {
        const KEYS: i64 = 1_000_000;
        for keys in [(0..KEYS).collect::<Vec<_>>(), (0..KEYS).rev().collect()] {
            let mut idx = PartitionIndex::new();
            for &k in &keys {
                idx.insert(TableId(0), k, k as u64);
            }
            let table = &idx.tables[0];
            assert!(table.spill.is_empty());
            let bytes = table.slots.capacity() * std::mem::size_of::<u32>();
            assert!(bytes <= 4_200_000, "{bytes} B of slots for {KEYS} keys");
        }
    }
}
