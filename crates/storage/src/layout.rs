//! Storage layouts: NSM, DSM and PAX.
//!
//! The paper's Section 4 ("Data layout") supports three layouts and argues
//! that the hybrid PAX layout is the right middle ground for H2TAP: like NSM
//! it keeps whole records inside one page (cheap transactional updates), like
//! DSM it stores the values of one attribute contiguously (coalesced GPU
//! accesses and minimal PCIe traffic). The [`ScanProfile`] produced here is
//! what the OLAP engine feeds to the GPU model to decide how efficient a scan
//! over a given layout is.

use h2tap_common::Schema;
use serde::{Deserialize, Serialize};

/// Records per page of an NSM or DSM table. PAX pages derive their capacity
/// from the configured page size instead.
const NSM_DSM_ROWS_PER_PAGE: usize = 4096;

/// Physical record organization of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layout {
    /// N-ary Storage Model: whole records stored contiguously, row-major.
    Nsm,
    /// Decomposition Storage Model: one array per attribute.
    Dsm,
    /// PAX: pages of `page_bytes` split into one minipage per attribute.
    Pax {
        /// Page size in bytes; the paper uses 4 KiB pages whose minipages are
        /// close to the 512-byte PCIe MTU.
        page_bytes: u32,
    },
}

impl Layout {
    /// The PAX configuration used in the paper's Figure 10 experiment:
    /// 4 KiB pages, which for a 16-attribute integer schema yields 16
    /// minipages of 64 values (256 bytes) each.
    pub const PAPER_PAX: Layout = Layout::Pax { page_bytes: 4096 };

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Layout::Nsm => "NSM",
            Layout::Dsm => "DSM",
            Layout::Pax { .. } => "PAX",
        }
    }

    /// How many records one PAX page of this layout holds for `schema`.
    /// For NSM/DSM the storage engine picks its own page capacity, so this
    /// returns `None`.
    pub fn pax_rows_per_page(self, schema: &Schema) -> Option<usize> {
        match self {
            Layout::Pax { page_bytes } => {
                let record = schema.record_width().max(1);
                Some(((page_bytes as usize) / record).max(1))
            }
            _ => None,
        }
    }

    /// How many records one page of a table in this layout holds: the PAX
    /// geometry, or a fixed 4096 for NSM and DSM.
    pub fn rows_per_page(self, schema: &Schema) -> usize {
        self.pax_rows_per_page(schema).unwrap_or(NSM_DSM_ROWS_PER_PAGE)
    }

    /// Builds the scan profile for reading `attrs_accessed` of `schema` over
    /// `rows` records stored in this layout.
    pub fn scan_profile(self, schema: &Schema, attrs_accessed: &[usize], rows: u64) -> ScanProfile {
        let accessed_width: usize = attrs_accessed
            .iter()
            // Cost estimate only: an out-of-range attr index contributes zero
            // width rather than failing the profile.
            .map(|&i| schema.attr(i).map_or(0, |a| a.ty.width()))
            .sum();
        let useful_bytes = rows * accessed_width as u64;
        match self {
            Layout::Nsm => {
                // Values of one attribute are `record_width` apart; reading K
                // attributes of a record still leaves (arity - K) attributes'
                // worth of gap, so the effective stride per useful element is
                // the full record width divided by the attributes accessed.
                ScanProfile {
                    layout: self,
                    useful_bytes,
                    contiguous: false,
                    stride_bytes: schema.record_width() as u32,
                    elem_bytes: (accessed_width.max(1) as u32).min(schema.record_width() as u32),
                }
            }
            Layout::Dsm => ScanProfile {
                layout: self,
                useful_bytes,
                contiguous: true,
                stride_bytes: accessed_width.max(1) as u32,
                elem_bytes: accessed_width.max(1) as u32,
            },
            Layout::Pax { .. } => {
                // Minipages are contiguous runs of one attribute, so accesses
                // coalesce like DSM; the only overhead is the page-granular
                // interleaving, modelled as a small fixed inefficiency by the
                // OLAP engine (minipage switches), not as a stride.
                ScanProfile {
                    layout: self,
                    useful_bytes,
                    contiguous: true,
                    stride_bytes: accessed_width.max(1) as u32,
                    elem_bytes: accessed_width.max(1) as u32,
                }
            }
        }
    }
}

/// Description of the memory traffic of a layout-aware scan, independent of
/// any particular hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanProfile {
    /// The layout this profile describes.
    pub layout: Layout,
    /// Payload bytes the query actually needs.
    pub useful_bytes: u64,
    /// Whether consecutive useful values are adjacent in memory.
    pub contiguous: bool,
    /// Distance between consecutive useful values when not contiguous.
    pub stride_bytes: u32,
    /// Width of each useful value (or group of values read together).
    pub elem_bytes: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::AttrType;

    fn bench_schema() -> Schema {
        // The Figure 10 table: 16 four-byte integer attributes.
        Schema::homogeneous("col", 16, AttrType::Int32)
    }

    #[test]
    fn paper_pax_page_matches_described_geometry() {
        let s = bench_schema();
        let pax = Layout::PAPER_PAX;
        // "Each PAX page contains 16 minipages, and each minipage contains 64
        // values" — 64 rows of 16 x 4-byte attributes in a 4 KiB page.
        assert_eq!(pax.pax_rows_per_page(&s), Some(64));
        // Each minipage is 256 bytes, i.e. at most the 512-byte PCIe MTU.
        let mini = pax.rows_per_page(&s) * AttrType::Int32.width();
        assert!(mini <= 512, "minipage {mini} bytes");
        assert_eq!(mini, 256);
    }

    #[test]
    fn nsm_profile_is_strided() {
        let s = bench_schema();
        let p = Layout::Nsm.scan_profile(&s, &[0], 1000);
        assert!(!p.contiguous);
        assert_eq!(p.stride_bytes, 64);
        assert_eq!(p.elem_bytes, 4);
        assert_eq!(p.useful_bytes, 4000);
    }

    #[test]
    fn dsm_and_pax_profiles_are_contiguous() {
        let s = bench_schema();
        for layout in [Layout::Dsm, Layout::PAPER_PAX] {
            let p = layout.scan_profile(&s, &[0, 1], 1000);
            assert!(p.contiguous, "{layout:?}");
            assert_eq!(p.useful_bytes, 8000);
            // An out-of-range attr index contributes zero width.
            assert_eq!(layout.scan_profile(&s, &[0, 1, 99], 1000).useful_bytes, 8000, "{layout:?}");
        }
    }

    #[test]
    fn accessing_more_attributes_increases_useful_bytes() {
        let s = bench_schema();
        let one = Layout::Dsm.scan_profile(&s, &[0], 100);
        let all: Vec<usize> = (0..16).collect();
        let sixteen = Layout::Dsm.scan_profile(&s, &all, 100);
        assert_eq!(sixteen.useful_bytes, 16 * one.useful_bytes);
    }

    #[test]
    fn nsm_accessing_all_attributes_degenerates_to_full_record_reads() {
        let s = bench_schema();
        let all: Vec<usize> = (0..16).collect();
        let p = Layout::Nsm.scan_profile(&s, &all, 10);
        // Reading every attribute means the whole record is useful.
        assert_eq!(p.elem_bytes, p.stride_bytes);
    }

    #[test]
    fn labels() {
        assert_eq!(Layout::Nsm.label(), "NSM");
        assert_eq!(Layout::Dsm.label(), "DSM");
        assert_eq!(Layout::PAPER_PAX.label(), "PAX");
    }

    #[test]
    fn non_pax_layouts_have_no_pax_geometry() {
        let s = bench_schema();
        assert!(Layout::Nsm.pax_rows_per_page(&s).is_none());
        assert!(Layout::Dsm.pax_rows_per_page(&s).is_none());
        assert_eq!(Layout::Dsm.rows_per_page(&s), NSM_DSM_ROWS_PER_PAGE);
    }
}
