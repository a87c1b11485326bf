//! The elementwise kernels of the host data path, compiled for the host's
//! vector ISA.
//!
//! A handful of tight loops, each over one column slice at a time, do all
//! the per-cell work of a chunk: [`and_between_words`] evaluates one predicate
//! into 64-row bit words, [`stage_product`] / [`stage_add_column`] stage the
//! per-row aggregate inputs, [`stage_key_bits`] stages join-probe keys, and
//! [`min_max_lanes`] builds zonemap bounds. They are plain loops over slices
//! and fixed-width lane arrays: the repository pins a **stable** toolchain
//! (no `std::simd`), and the backend turns exactly this shape into the
//! target's vector instructions.
//!
//! # Selection is column at a time
//!
//! A predicate makes one pass over *its own* column and writes one bit per
//! row; the words of successive predicates are ANDed, and the selection
//! vector is the set bits in ascending order. No loop ever interleaves
//! columns, and the only data-dependent branch is one well-predicted test
//! per 64 rows (a word an earlier predicate already emptied is skipped).
//! Walking all predicate columns a few rows at a time with an early exit per
//! group would put a data-dependent branch on every group, one a selective
//! first predicate makes unpredictable — and that branch, not the cell
//! decode, is what dominates a scan.
//!
//! # One body, compiled per ISA
//!
//! The workspace builds for baseline x86-64, whose vectors are 2-lane SSE2.
//! [`with_widest_isa`] runs a kernel body inside a
//! `#[target_feature(enable = "avx2")]` function when the CPU reports AVX2
//! and as compiled for the baseline otherwise (older x86-64, aarch64,
//! anything else), so a non-AVX2 host runs exactly the same Rust, narrower.
//! Everything a body calls here and in [`crate::operators`] is
//! `#[inline(always)]`, which is what places it inside the wide function.
//! There are **no intrinsics**: once LLVM may use 256-bit registers it
//! vectorises these loops itself, and an intrinsic path would be a second
//! body to keep bit-identical. There is **no AVX-512** either: on AVX2 the
//! chunk kernels already read at memory speed (a standalone model of Q6's
//! four columns took 2.21 ms with AVX2 and 2.08 ms with AVX-512), and
//! 512-bit licences can lower the clock of a core the OLTP archipelago
//! shares. AVX2 alone also leaves FMA off, so no multiply-add is ever
//! contracted and products round as on the baseline. The call into the
//! `target_feature` function is the workspace's only `unsafe` block; every
//! other crate forbids `unsafe_code` and this one denies it outside
//! [`with_widest_isa`].
//!
//! # Bit-identity
//!
//! The plan IR requires f64 answers to be byte-identical across execution
//! sites, and f64 addition is not associative — so these kernels vectorise
//! only the **elementwise** work (cell decode, predicate compare, per-row
//! multiply/sum staging) and leave every *accumulation* sequential in
//! ascending row order. A vector lane never holds a partial sum that spans
//! rows; it only ever holds per-row values that the caller then folds in
//! exactly the reference order. A bit word selects exactly the rows
//! [`h2tap_common::Predicate::matches`] accepts (NaN never matches), so
//! staging, probing and accumulation see the same rows in the same order.
//! The zonemap min/max kernel is the one deliberate exception: its
//! lane-split fold can pick a different `-0.0`/`+0.0` tie representative
//! than the sequential reference, which is safe because zonemap bounds are
//! only ever *compared* numerically (where the two zeros are equal) and
//! never enter an answer. Lane width is fixed in the source, not by the ISA,
//! so both compilations pick the same representative.

use std::ops::Range;

/// Runs `body` compiled for the widest vector ISA this module targets that
/// the CPU supports: AVX2 on x86-64 when detected, the build's baseline
/// otherwise. Pass an `#[inline(always)]` closure over `#[inline(always)]`
/// kernels — the body is inlined into both compilations and only then
/// vectorised, so the two differ in register width and nothing else.
#[inline(always)]
pub(crate) fn with_widest_isa<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    #[expect(unsafe_code, reason = "the workspace's one `unsafe` block: entering the AVX2 compilation once detected")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: calling `avx2` requires only that the CPU supports
            // AVX2, which the detection on the line above has established.
            return unsafe { avx2(body) };
        }
    }
    body()
}

/// ANDs into `words` the 64-row bit words of `lo <= decode(cell) <= hi` over
/// `cells` (bit `i` of word `w` is row `w * 64 + i`; false for NaN, exactly
/// like [`h2tap_common::Predicate::matches`]). One tight pass over one
/// column slice; a word an earlier predicate already emptied is skipped —
/// one predictable test per 64 rows. Bits past the end of `cells` come out
/// zero.
#[inline(always)]
pub(crate) fn and_between_words<D: Fn(u64) -> f64>(decode: D, cells: &[u64], lo: f64, hi: f64, words: &mut [u64]) {
    for (word, cells) in words.iter_mut().zip(cells.chunks(64)) {
        if *word == 0 {
            continue;
        }
        let mut bits = 0u64;
        for (i, &cell) in cells.iter().enumerate() {
            let v = decode(cell);
            bits |= u64::from(v >= lo && v <= hi) << i;
        }
        *word &= bits;
    }
}

/// The rows of one batch a staging kernel visits, in ascending order, numbered
/// from the chunk's first row.
pub(crate) enum BatchRows<'a> {
    /// Every row of the range: the column streams, nothing is gathered.
    All(Range<usize>),
    /// The rows of a selection vector.
    Selected(&'a [u32]),
}

impl BatchRows<'_> {
    /// Rows visited.
    pub(crate) fn len(&self) -> usize {
        match self {
            BatchRows::All(range) => range.len(),
            BatchRows::Selected(sel) => sel.len(),
        }
    }
}

/// Stages a two-column product, `out[i] = d0(c0[r]) * d1(c1[r])` for the
/// `i`-th row `r` of `rows`, in one fused pass over both columns.
#[inline(always)]
pub(crate) fn stage_product<D1: Fn(u64) -> f64, D0: Fn(u64) -> f64>(
    d1: D1,
    d0: D0,
    c0: &[u64],
    c1: &[u64],
    rows: &BatchRows<'_>,
    out: &mut [f64],
) {
    match rows {
        BatchRows::All(range) => {
            for ((slot, &a), &b) in out.iter_mut().zip(&c0[range.clone()]).zip(&c1[range.clone()]) {
                *slot = d0(a) * d1(b);
            }
        }
        BatchRows::Selected(sel) => {
            for (slot, &row) in out.iter_mut().zip(*sel) {
                *slot = d0(c0[row as usize]) * d1(c1[row as usize]);
            }
        }
    }
}

/// Adds one column into the staged values, `out[i] += decode(col[r])` for
/// the `i`-th row `r` of `rows`.
#[inline(always)]
pub(crate) fn stage_add_column<D: Fn(u64) -> f64>(decode: D, col: &[u64], rows: &BatchRows<'_>, out: &mut [f64]) {
    match rows {
        BatchRows::All(range) => {
            for (slot, &cell) in out.iter_mut().zip(&col[range.clone()]) {
                *slot += decode(cell);
            }
        }
        BatchRows::Selected(sel) => {
            for (slot, &row) in out.iter_mut().zip(*sel) {
                *slot += decode(col[row as usize]);
            }
        }
    }
}

/// Lanes of the zonemap kernel: one cache line of cells.
const LANES: usize = 8;

/// Min/max of `cells` under `decode` with plain comparisons (NaN cells are
/// ignored; `(+inf, -inf)` for an empty slice) — the lane-parallel zonemap
/// kernel. Lanewise bounds run over 8-lane groups, the lane bounds fold in
/// ascending lane order, and the tail finishes scalar; the result equals
/// the sequential reference everywhere except possibly the `-0.0`/`+0.0`
/// tie representative (see the module doc for why that is safe).
#[inline(always)]
pub(crate) fn min_max_lanes<D: Fn(u64) -> f64>(decode: D, cells: &[u64]) -> (f64, f64) {
    let (mut vlo, mut vhi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
    let groups = cells.chunks_exact(LANES);
    let tail = groups.remainder();
    for group in groups {
        for lane in 0..LANES {
            let v = decode(group[lane]);
            vlo[lane] = if v < vlo[lane] { v } else { vlo[lane] };
            vhi[lane] = if v > vhi[lane] { v } else { vhi[lane] };
        }
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for lane in 0..LANES {
        lo = if vlo[lane] < lo { vlo[lane] } else { lo };
        hi = if vhi[lane] > hi { vhi[lane] } else { hi };
    }
    for &cell in tail {
        let v = decode(cell);
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi)
}

/// Stages the bit patterns of the decoded values of `col` at the selected
/// rows into `out` (`out[i] = decode(col[sel[i]]).to_bits()`) — the
/// elementwise half of the join probe; the join-index lookups stay in the
/// caller.
#[inline(always)]
pub(crate) fn stage_key_bits<D: Fn(u64) -> f64>(decode: D, col: &[u64], sel: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.extend(sel.iter().map(|&row| decode(col[row as usize]).to_bits()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(cell: u64) -> f64 {
        f64::from_bits(cell)
    }

    /// NaN- and signed-zero-salted values around zero.
    fn salted(len: usize) -> Vec<u64> {
        (0..len)
            .map(|i| match i % 9 {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                _ => (i as f64 - 30.0) * 1.25,
            })
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn bit_words_match_predicate_matches_row_by_row() {
        use h2tap_common::Predicate;
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let bounds = [
            (0.0, 4.0),
            (-0.0, 0.0),
            (-inf, inf),   // everything but the NaN cells
            (1e9, 2e9),    // none-pass words
            (10.0, -10.0), // inverted: selects nothing
            (nan, 4.0),
            (0.0, nan),
            (inf, inf),
            (-inf, -40.0),
        ];
        for len in [1usize, 63, 64, 65, 128, 200] {
            let mut cells = salted(len);
            for (i, cell) in cells.iter_mut().enumerate().skip(5).step_by(11) {
                *cell = if i % 2 == 0 { inf.to_bits() } else { (-inf).to_bits() };
            }
            for (lo, hi) in bounds {
                let pred = Predicate::between(0, lo, hi);
                for compiled in ["baseline", "dispatched"] {
                    let mut words = vec![u64::MAX; len.div_ceil(64)];
                    match compiled {
                        "baseline" => and_between_words(dec, &cells, lo, hi, &mut words),
                        _ => with_widest_isa(
                            #[inline(always)]
                            || and_between_words(dec, &cells, lo, hi, &mut words),
                        ),
                    }
                    for row in 0..words.len() * 64 {
                        let want = row < len && pred.matches(dec(cells[row]));
                        let got = (words[row / 64] >> (row % 64)) & 1 == 1;
                        assert_eq!(got, want, "{compiled}: row {row} of {len}, bounds [{lo}, {hi}]");
                    }
                }
            }
        }
        // An all-pass predicate leaves full words; a second predicate ANDs
        // into the first's words, and leaves a word the first one emptied
        // alone.
        let cells: Vec<u64> = (0..128).map(|i| f64::from(i).to_bits()).collect();
        let mut words = [u64::MAX; 2];
        and_between_words(dec, &cells, 0.0, inf, &mut words);
        assert_eq!(words, [u64::MAX; 2]);
        and_between_words(dec, &cells, 64.0, 100.0, &mut words);
        and_between_words(dec, &cells, 0.0, 70.0, &mut words);
        assert_eq!(words, [0, 0x7f]);
    }

    #[test]
    fn both_compilations_of_min_max_lanes_return_the_same_bits() {
        // `-0.0`/`+0.0` ties are where a lane-split fold could differ.
        for len in [0, 1, 7, 8, 9, 64, 67, 1025] {
            let cells = salted(len);
            let (lo, hi) = min_max_lanes(dec, &cells);
            let (wlo, whi) = with_widest_isa(
                #[inline(always)]
                || min_max_lanes(dec, &cells),
            );
            assert_eq!((lo.to_bits(), hi.to_bits()), (wlo.to_bits(), whi.to_bits()), "len {len}");
        }
    }

    #[test]
    fn min_max_lanes_matches_sequential_reference() {
        // NaN-salted, negative-zero-salted, and oddly sized inputs.
        for len in [0, 1, 7, 8, 9, 16, 23, 67] {
            let cells = salted(len);
            let (lo, hi) = min_max_lanes(dec, &cells);
            let (mut rlo, mut rhi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &c in &cells {
                let v = dec(c);
                if v < rlo {
                    rlo = v;
                }
                if v > rhi {
                    rhi = v;
                }
            }
            // Numeric equality: -0.0/+0.0 tie representatives may differ.
            assert_eq!(lo, rlo, "len {len}");
            assert_eq!(hi, rhi, "len {len}");
        }
    }

    #[test]
    fn all_nan_input_yields_the_empty_bounds() {
        let cells: Vec<u64> = std::iter::repeat_n(f64::NAN.to_bits(), 13).collect();
        let (lo, hi) = min_max_lanes(dec, &cells);
        assert_eq!(lo, f64::INFINITY);
        assert_eq!(hi, f64::NEG_INFINITY);
    }

    #[test]
    fn stage_key_bits_matches_scalar_gather() {
        let col: Vec<u64> = (0..40).map(|i| (i as f64 * 0.5).to_bits()).collect();
        for sel_len in [0usize, 1, 3, 4, 5, 11] {
            let sel: Vec<u32> = (0..sel_len as u32).map(|i| (i * 3) % 40).collect();
            let mut out = Vec::new();
            stage_key_bits(dec, &col, &sel, &mut out);
            let want: Vec<u64> = sel.iter().map(|&r| dec(col[r as usize]).to_bits()).collect();
            assert_eq!(out, want, "sel_len {sel_len}");
        }
    }

    #[test]
    fn lane_arithmetic_is_elementwise() {
        let a: Vec<u64> = (0..40).map(|i| (f64::from(i) * 0.5).to_bits()).collect();
        let b: Vec<u64> = (0..40).map(|i| (f64::from(i) - 7.25).to_bits()).collect();
        let sel: Vec<u32> = (0..19).map(|i| (i * 7) % 40).collect();
        for rows in [BatchRows::All(3..40), BatchRows::All(5..5), BatchRows::Selected(&sel), BatchRows::Selected(&[])] {
            let visited: Vec<usize> = match &rows {
                BatchRows::All(range) => range.clone().collect(),
                BatchRows::Selected(sel) => sel.iter().map(|&r| r as usize).collect(),
            };
            assert_eq!(rows.len(), visited.len());
            let mut out = vec![f64::NAN; rows.len()];
            stage_product(dec, dec, &a, &b, &rows, &mut out);
            let want: Vec<f64> = visited.iter().map(|&r| dec(a[r]) * dec(b[r])).collect();
            assert_eq!(out, want);
            let mut out = vec![0.0; rows.len()];
            stage_add_column(dec, &a, &rows, &mut out);
            stage_add_column(dec, &b, &rows, &mut out);
            let want: Vec<f64> = visited.iter().map(|&r| 0.0 + dec(a[r]) + dec(b[r])).collect();
            assert_eq!(out, want);
        }
    }
}
