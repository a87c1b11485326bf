//! GPU device catalogue.
//!
//! Reproduces Table 1 of the paper ("Processing power, memory capacity, and
//! interconnection bandwidth of consumer-grade NVIDIA graphics cards across
//! generations") plus the two devices used in the evaluation hardware setup:
//! the Tesla M2090 (Fermi compute accelerator) and the GTX 980 (Maxwell
//! consumer card).

use crate::interconnect::{Interconnect, InterconnectKind};
use serde::{Deserialize, Serialize};

/// NVIDIA GPU micro-architecture generations covered by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GpuArchitecture {
    /// G80 generation (GeForce 8800).
    Tesla,
    /// Fermi generation (GTX 580, Tesla M2090).
    Fermi,
    /// Kepler generation (GTX 780 Ti).
    Kepler,
    /// Maxwell generation (GTX 980, GTX 980 Ti).
    Maxwell,
    /// Pascal generation (GTX 1080 Ti).
    Pascal,
}

impl GpuArchitecture {
    /// Whether the architecture supports Unified Virtual Addressing
    /// (zero-copy access to host memory from kernels). Available since Fermi
    /// / CUDA 4.0.
    pub fn supports_uva(self) -> bool {
        self >= GpuArchitecture::Fermi
    }

    /// Whether the architecture supports Unified Memory with automatic
    /// migration. Available since Kepler / CUDA 6.0.
    pub fn supports_um(self) -> bool {
        self >= GpuArchitecture::Kepler
    }

    /// Whether Unified Memory may oversubscribe device memory (demand paging
    /// with page faults). Available since Pascal / CUDA 8.0.
    pub fn supports_um_oversubscription(self) -> bool {
        self >= GpuArchitecture::Pascal
    }

    /// Upper bound on how much a fully non-coalesced access pattern can slow
    /// a kernel down when its data is resident in **device** memory.
    ///
    /// The paper observes (Figure 11) that NSM is 3x slower than DSM on
    /// Fermi but only 2x slower on Maxwell, because "modern GPUs have vastly
    /// reduced the performance impact of non-coalesced memory accesses when
    /// data fits in GPU memory" — newer architectures have larger L2 caches
    /// and more outstanding memory transactions to hide the waste. The raw
    /// wasted-bytes model is therefore capped per architecture.
    pub fn max_noncoalesced_penalty(self) -> f64 {
        match self {
            GpuArchitecture::Tesla => 8.0,
            GpuArchitecture::Fermi => 3.5,
            GpuArchitecture::Kepler => 2.8,
            GpuArchitecture::Maxwell => 2.2,
            GpuArchitecture::Pascal => 2.0,
        }
    }

    /// Fraction of the interconnect bandwidth that zero-copy (UVA) kernel
    /// accesses sustain on this architecture.
    ///
    /// Figure 1 of the paper shows UVA being 2.5x *slower* than an explicit
    /// memcpy on Fermi but 1.18x *faster* on Maxwell: early zero-copy
    /// implementations issued many small, poorly pipelined bus transactions,
    /// while Maxwell-era hardware streams them at close to full bandwidth.
    pub fn uva_streaming_efficiency(self) -> f64 {
        match self {
            GpuArchitecture::Tesla => 0.2,
            GpuArchitecture::Fermi => 0.35,
            GpuArchitecture::Kepler => 0.70,
            GpuArchitecture::Maxwell => 0.95,
            GpuArchitecture::Pascal => 1.0,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GpuArchitecture::Tesla => "Tesla",
            GpuArchitecture::Fermi => "Fermi",
            GpuArchitecture::Kepler => "Kepler",
            GpuArchitecture::Maxwell => "Maxwell",
            GpuArchitecture::Pascal => "Pascal",
        }
    }
}

/// Static description of one GPU device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. "GTX 980".
    pub name: String,
    /// Micro-architecture generation.
    pub architecture: GpuArchitecture,
    /// Number of CUDA cores.
    pub cores: u32,
    /// Single-precision throughput in GFLOP/s.
    pub fp32_gflops: f64,
    /// Board power in watts (reported in Table 1; informational only).
    pub power_watts: Option<f64>,
    /// On-board memory capacity in MiB.
    pub mem_capacity_mib: u64,
    /// On-board memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host interconnect.
    pub interconnect: Interconnect,
    /// Number of warps the device can keep in flight per SM; used only to
    /// size the executor's virtual thread blocks.
    pub warp_size: u32,
}

impl GpuSpec {
    fn new(
        name: &str,
        architecture: GpuArchitecture,
        cores: u32,
        fp32_gflops: f64,
        mem_capacity_mib: u64,
        mem_bandwidth_gbps: f64,
        interconnect: InterconnectKind,
    ) -> Self {
        Self {
            name: name.to_string(),
            architecture,
            cores,
            fp32_gflops,
            power_watts: None,
            mem_capacity_mib,
            mem_bandwidth_gbps,
            interconnect: Interconnect::new(interconnect),
            warp_size: 32,
        }
    }

    /// Device memory capacity in bytes.
    pub fn mem_capacity_bytes(&self) -> u64 {
        self.mem_capacity_mib * 1024 * 1024
    }

    /// Device memory bandwidth in bytes per second.
    pub fn mem_bytes_per_sec(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e9
    }

    /// The GeForce 8800 (Tesla architecture) row of Table 1.
    pub fn geforce_8800() -> Self {
        Self::new("GeForce 8800", GpuArchitecture::Tesla, 128, 345.6, 768, 103.7, InterconnectKind::PCIe1)
    }

    /// The GTX 580 (Fermi) row of Table 1.
    pub fn gtx_580() -> Self {
        Self::new("GTX 580", GpuArchitecture::Fermi, 512, 1581.1, 1536, 192.3, InterconnectKind::PCIe2)
    }

    /// The GTX 780 Ti (Kepler) row of Table 1.
    pub fn gtx_780_ti() -> Self {
        Self::new("GTX 780 Ti", GpuArchitecture::Kepler, 2304, 3976.7, 3072, 288.4, InterconnectKind::PCIe3)
    }

    /// The GTX 980 Ti (Maxwell) row of Table 1.
    pub fn gtx_980_ti() -> Self {
        Self::new("GTX 980 Ti", GpuArchitecture::Maxwell, 2816, 5632.0, 6144, 336.0, InterconnectKind::PCIe3)
    }

    /// The GTX 1080 Ti (Pascal) row of Table 1.
    pub fn gtx_1080_ti() -> Self {
        Self::new("GTX 1080 Ti", GpuArchitecture::Pascal, 3328, 10696.0, 10240, 400.0, InterconnectKind::NVLink)
    }

    /// The Tesla M2090 Fermi compute accelerator used in the paper's Figure 1
    /// and Figure 11 experiments (6 GiB GDDR5, PCIe 2.0).
    pub fn tesla_m2090() -> Self {
        Self::new("Tesla M2090", GpuArchitecture::Fermi, 512, 1331.2, 6144, 177.6, InterconnectKind::PCIe2)
    }

    /// The GeForce GTX 980 Maxwell card in the paper's evaluation server
    /// (4 GiB GDDR5, PCIe 3.0).
    pub fn gtx_980() -> Self {
        Self::new("GTX 980", GpuArchitecture::Maxwell, 2048, 4612.0, 4096, 224.0, InterconnectKind::PCIe3)
    }
}

/// The five consumer-grade cards of Table 1, in generation order.
pub fn table1_catalog() -> Vec<GpuSpec> {
    vec![
        GpuSpec::geforce_8800(),
        GpuSpec::gtx_580(),
        GpuSpec::gtx_780_ti(),
        GpuSpec::gtx_980_ti(),
        GpuSpec::gtx_1080_ti(),
    ]
}

/// A device mix of `n` cards for the GPU execution site, cycling through
/// the **zero-copy-capable** (Fermi and newer, per Section 2.1's CUDA feature
/// matrix) generations of Table 1 from newest to oldest — real deployments
/// mix generations as cards are added over the years, which is exactly why
/// the paper catalogues five of them. The GeForce 8800 is excluded: its
/// Tesla-generation architecture predates UVA, so it cannot join a site
/// whose tables live in host shared memory.
pub fn table1_mix(n: usize) -> Vec<GpuSpec> {
    let pool = [GpuSpec::gtx_1080_ti(), GpuSpec::gtx_980_ti(), GpuSpec::gtx_780_ti(), GpuSpec::gtx_580()];
    (0..n.max(1)).map(|i| pool[i % pool.len()].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_generations_in_order() {
        let cat = table1_catalog();
        assert_eq!(cat.len(), 5);
        for w in cat.windows(2) {
            assert!(w[0].architecture < w[1].architecture);
            assert!(w[0].fp32_gflops < w[1].fp32_gflops);
        }
    }

    #[test]
    fn pascal_has_16x_the_flops_of_tesla() {
        // The paper: "the latest Pascal GPUs offer 16x higher processing
        // power and 13.3x more memory capacity than their Tesla counterparts".
        let tesla = GpuSpec::geforce_8800();
        let pascal = GpuSpec::gtx_1080_ti();
        let flops_ratio = pascal.fp32_gflops / tesla.fp32_gflops;
        let mem_ratio = pascal.mem_capacity_mib as f64 / tesla.mem_capacity_mib as f64;
        assert!((28.0..34.0).contains(&flops_ratio) || (15.0..34.0).contains(&flops_ratio));
        assert!((13.0..14.0).contains(&mem_ratio), "mem ratio {mem_ratio}");
    }

    #[test]
    fn feature_support_follows_generations() {
        assert!(!GpuArchitecture::Tesla.supports_uva());
        assert!(GpuArchitecture::Fermi.supports_uva());
        assert!(!GpuArchitecture::Fermi.supports_um());
        assert!(GpuArchitecture::Kepler.supports_um());
        assert!(!GpuArchitecture::Maxwell.supports_um_oversubscription());
        assert!(GpuArchitecture::Pascal.supports_um_oversubscription());
    }

    #[test]
    fn noncoalesced_penalty_shrinks_with_newer_architectures() {
        assert!(
            GpuArchitecture::Fermi.max_noncoalesced_penalty() > GpuArchitecture::Maxwell.max_noncoalesced_penalty()
        );
    }

    #[test]
    fn table1_mixes_are_uva_capable_and_cycle_the_generations() {
        for n in 1..=6 {
            let mix = table1_mix(n);
            assert_eq!(mix.len(), n);
            assert!(mix.iter().all(|s| s.architecture.supports_uva()), "every mix member must support zero-copy");
        }
        // A mix larger than the pool repeats generations rather than failing.
        let six = table1_mix(6);
        assert_eq!(six[0].name, six[4].name);
        // Degenerate request still yields one device.
        assert_eq!(table1_mix(0).len(), 1);
    }

    #[test]
    fn evaluation_devices_match_paper_setup() {
        let m2090 = GpuSpec::tesla_m2090();
        assert_eq!(m2090.architecture, GpuArchitecture::Fermi);
        assert_eq!(m2090.interconnect.kind, InterconnectKind::PCIe2);
        let gtx980 = GpuSpec::gtx_980();
        assert_eq!(gtx980.architecture, GpuArchitecture::Maxwell);
        assert_eq!(gtx980.mem_capacity_bytes(), 4 * 1024 * 1024 * 1024);
    }
}
