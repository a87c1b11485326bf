//! Golden charge tests for the one-IR collapse: a scan-shaped plan (no join,
//! no group-by, one aggregate) must be charged **exactly** what the retired
//! `execute(ScanAggQuery)` path charged — same simulated time, kernel names,
//! interconnect bytes and cost-model breakdown on every site — so Figures
//! 1/4/11, the placement sweep and the calibrator do not shift, and a joined,
//! grouped plan must keep the plan path's charge. The table below was
//! captured at the parent commit (PR 13) over 200 000 lineitem rows (and
//! 20 000 parts) x {NSM, DSM, PAX} x {UVA, Unified Memory, memcpy,
//! device-resident} x {GTX 980, the 3-device Table-1 mix, 8-core CPU site}:
//! `q6/...` rows from `execute(ScanAggQuery)` (`#2` is Unified Memory's
//! second run, which streams from device memory), `join/...` rows from
//! `execute_plan` over the brand-revenue plan (NSM and DSM; PAX differs from
//! DSM only by the 3% interleave factor the `q6` rows already pin). The two
//! NSM/memcpy join rows are absent on purpose: that charge was wrong at the
//! parent (see `nsm_memcpy_join_plans_copy_whole_records`). The interconnect
//! bytes of the four `*/gpu/*/memcpy` rows were re-captured when the
//! single-GPU site became the one-device mix: they now include the
//! device→host result copy, which the multi-GPU rows always counted.

use caldera::{Caldera, CalderaConfig, DataPlacement, OlapTarget};
use h2tap_common::{AggExpr, OlapPlan, PlanColumn};
use h2tap_gpu_sim::{table1_mix, AccessMode, GpuDevice, GpuSpec};
use h2tap_olap::{PlanOutcome, Site};
use h2tap_storage::{Layout, SnapshotTable};
use h2tap_workloads::tpch::{self, q6};

const ROWS: u64 = 200_000;
const PARTS: u64 = 20_000;

/// `(plan/site/layout[/placement][#run], time in ns, interconnect bytes, and
/// the bit patterns of the breakdown's stream, compute and overhead seconds)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u128, u64, u64, u64, u64)] = &[
    ("q6/gpu/nsm/uva", 6401213, 73142860, 0x3f7a169a98948352, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/nsm/uva", 2864379, 73142865, 0x3f6733ede5989808, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/nsm/um", 1393187, 14417920, 0x3f564d3b6984f640, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/nsm/um#2", 103046, 0, 0x3f129fd0fc6d8a83, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/nsm/um", 483944, 14417920, 0x3f3d9e5cb31a854c, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/nsm/um#2", 54989, 0, 0x3ef81b100cf99ece, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/nsm/memcpy", 1534810, 14400008, 0x3f589f3df355a29e, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/nsm/memcpy", 537596, 14400024, 0x3f40913f247a801b, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/nsm/resident", 103046, 0, 0x3f129fd0fc6d8a83, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/nsm/resident", 54989, 0, 0x3ef81b100cf99ece, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/cpu/nsm", 2386764, 0, 0x3f3030f591371a6e, 0x3f630be0ded288cf, 0x0),
    ("q6/gpu/dsm/uva", 659277, 7200000, 0x3f448dfb19ab10a9, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/dsm/uva", 310888, 7200000, 0x3f3246f6d6d8e1a5, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/dsm/um", 616526, 5767168, 0x3f43275c06de62ee, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/dsm/um#2", 64472, 0, 0x3f0106516c9dfcc4, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/dsm/um", 243185, 5767168, 0x3f2bae315639479f, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/dsm/um#2", 40260, 0, 0x3ee1528dc174291d, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/dsm/memcpy", 633491, 5600008, 0x3f43b5ac164055a9, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/dsm/memcpy", 240162, 5600024, 0x3f2b48c1f6ec164f, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/dsm/resident", 64472, 0, 0x3f0106516c9dfcc4, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/dsm/resident", 40260, 0, 0x3ee1528dc174291d, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/cpu/dsm", 2386764, 0, 0x3f3030f591371a6e, 0x3f630be0ded288cf, 0x0),
    ("q6/gpu/pax/uva", 678094, 7416000, 0x3f452bd44cd17282, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/pax/uva", 319258, 7415991, 0x3f32d363b72bf31a, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/pax/um", 617493, 5767168, 0x3f432f78a4bda045, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/pax/um#2", 65439, 0, 0x3f01881b4a91d22e, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/pax/um", 243433, 5767168, 0x3f2bb683a3fdba70, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/pax/um#2", 40508, 0, 0x3ee1d7b29dbb561c, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/pax/memcpy", 634458, 5600008, 0x3f43bdc8b41f92fe, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/pax/memcpy", 240410, 5600024, 0x3f2b511444b0891f, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/gpu/pax/resident", 65439, 0, 0x3f01881b4a91d22e, 0x3e9cec860bd96344, 0x3f00c6f7a0b5ed8d),
    ("q6/multi/pax/resident", 40508, 0, 0x3ee1d7b29dbb561c, 0x3e859beafa00d9e8, 0x3f00c6f7a0b5ed8d),
    ("q6/cpu/pax", 2386764, 0, 0x3f3030f591371a6e, 0x3f630be0ded288cf, 0x0),
    ("join/gpu/nsm/uva", 6649520, 75887259, 0x3f7b129583e049d8, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/nsm/uva", 2949315, 76527263, 0x3f67e60d908c54b7, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/gpu/nsm/um", 1512317, 15400960, 0x3f581f5857516cfc, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/nsm/um", 576768, 16827392, 0x3f41d9d85f385af6, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/gpu/nsm/resident", 104895, 0, 0x3f1103079c568d56, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/nsm/resident", 92901, 640000, 0x3f0fedfe6d253ecb, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/cpu/nsm", 2733609, 0, 0x3f36c6fc8eecfe00, 0x3f65ae93c91782f6, 0x0),
    ("join/gpu/dsm/uva", 1921296, 21586304, 0x3f5ed2ba32d2766c, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/dsm/uva", 900327, 22226304, 0x3f4c740e089b1ded, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/gpu/dsm/um", 750876, 6619136, 0x3f474b4295f41507, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/dsm/um", 339282, 8045568, 0x3f34235624019a93, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/gpu/dsm/memcpy", 683649, 5920800, 0x3f451751b3da6b24, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/dsm/memcpy", 281425, 6562400, 0x3f3058a837c20e2d, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/gpu/dsm/resident", 73180, 0, 0x3f0165581e7a1397, 0x3ea1fc347708a8a4, 0x3f04f8b588e368f0),
    ("join/multi/dsm/resident", 81445, 640000, 0x3f09ec65437baac6, 0x3e8a2c2623ab2ae6, 0x3f00c6f7a0b5ed8d),
    ("join/cpu/dsm", 2733609, 0, 0x3f36c6fc8eecfe00, 0x3f65ae93c91782f6, 0x0),
];

/// Compares one outcome against its golden row; `false` when the table has
/// no row under `label`.
fn matches_golden(label: &str, out: &PlanOutcome) -> bool {
    let Some(want) = GOLDEN.iter().find(|g| g.0 == label) else { return false };
    let got = (
        out.time.as_nanos(),
        out.interconnect_bytes,
        out.breakdown.stream_secs.to_bits(),
        out.breakdown.compute_secs.to_bits(),
        out.breakdown.overhead_secs.to_bits(),
    );
    assert_eq!(got, (want.1, want.2, want.3, want.4, want.5), "{label}: charge drifted from the parent's");
    true
}

/// The launched kernels' names without their `.d<device>` suffix.
fn kernel_names(out: &PlanOutcome) -> Vec<&str> {
    out.kernels.iter().map(|k| k.name.split('.').next().unwrap_or("")).collect()
}

fn snapshot_of(load: impl FnOnce(&mut caldera::CalderaBuilder) -> h2tap_common::TableId) -> SnapshotTable {
    let mut builder = Caldera::builder(CalderaConfig::with_workers(1));
    let id = load(&mut builder);
    builder.database().snapshot().table(id).unwrap().clone()
}

fn lineitem(layout: Layout) -> SnapshotTable {
    snapshot_of(|b| tpch::load_lineitem(b, layout, ROWS, 7).unwrap())
}

const LAYOUTS: [(&str, Layout); 3] = [("nsm", Layout::Nsm), ("dsm", Layout::Dsm), ("pax", Layout::PAPER_PAX)];

const PLACEMENTS: [(&str, DataPlacement); 4] = [
    ("uva", DataPlacement::Host(AccessMode::Uva)),
    ("um", DataPlacement::Host(AccessMode::UnifiedMemory)),
    ("memcpy", DataPlacement::Host(AccessMode::Memcpy)),
    ("resident", DataPlacement::DeviceResident),
];

fn gpu_family(placement: DataPlacement) -> [(&'static str, Site); 2] {
    [
        ("gpu", Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), placement)),
        ("multi", Site::sharded(table1_mix(3).into_iter().map(GpuDevice::new).collect(), placement).unwrap()),
    ]
}

/// Every site of the matrix for one layout, labelled `site/layout[/placement]`.
fn sites(lname: &str) -> Vec<(String, Site)> {
    let mut sites: Vec<(String, Site)> = Vec::new();
    for (pname, placement) in PLACEMENTS {
        for (sname, site) in gpu_family(placement) {
            sites.push((format!("{sname}/{lname}/{pname}"), site));
        }
    }
    sites.push((format!("cpu/{lname}"), Site::archipelago_default(8)));
    sites
}

#[test]
fn scan_shaped_plans_are_charged_exactly_what_the_scan_path_charged() {
    let plan = OlapPlan::scan(&q6());
    let mut checked = 0;
    for (lname, layout) in LAYOUTS {
        let table = lineitem(layout);
        for (name, site) in sites(lname) {
            for label in [format!("q6/{name}"), format!("q6/{name}#2")] {
                let out = site.execute(&table, None, &plan).unwrap();
                checked += usize::from(matches_golden(&label, &out));
                // One selection per Q6 predicate plus the register-reducing
                // aggregate (suffixed `.d<n>` per device on the GPU-family
                // sites; the CPU site launches no kernels).
                let names = kernel_names(&out);
                let devices = names.len() / 4;
                assert_eq!(names, ["select_0", "select_1", "select_2", "aggregate"].repeat(devices), "{label}");
                assert_eq!(devices, if name.starts_with("multi/") { 3 } else { usize::from(name.starts_with("gpu/")) });
                assert_eq!(out.qualifying_rows, 3_709, "{label}");
            }
        }
    }
    assert_eq!(checked, GOLDEN.iter().filter(|g| g.0.starts_with("q6/")).count(), "every q6 row was compared");
}

#[test]
fn joined_grouped_plans_keep_the_plan_paths_charge() {
    let plan = tpch::brand_revenue_plan(30);
    let mut checked = 0;
    for (lname, layout) in LAYOUTS {
        let (probe, build) = (lineitem(layout), part(layout));
        for (name, site) in sites(lname) {
            let out = site.execute(&probe, Some(&build), &plan).unwrap();
            checked += usize::from(matches_golden(&format!("join/{name}"), &out));
            if name.starts_with("gpu/") {
                let names = kernel_names(&out);
                assert_eq!(names, ["select_0", "hash_build", "hash_probe", "partial_aggregate", "merge_groups"]);
            }
            assert_eq!((out.qualifying_rows, out.groups.len()), (1_703, 25), "join/{name}");
        }
    }
    assert_eq!(checked, GOLDEN.iter().filter(|g| g.0.starts_with("join/")).count(), "every join row was compared");
}

/// Part table of the brand-revenue join, in the same layout as the probe.
fn part(layout: Layout) -> SnapshotTable {
    snapshot_of(|b| tpch::load_part(b, layout, PARTS, 11).unwrap())
}

/// The explicit-copy (memcpy) placement copies whole records of a row-major
/// table, whatever the plan reads — on both sides of a join, on both GPU
/// sites — while columnar layouts copy just the accessed columns. (The plan
/// path used to charge NSM tables the accessed columns only.)
#[test]
fn nsm_memcpy_join_plans_copy_whole_records() {
    let plan = tpch::brand_revenue_plan(30);
    let memcpy = DataPlacement::Host(AccessMode::Memcpy);
    for (lname, layout) in LAYOUTS {
        let (probe, build) = (lineitem(layout), part(layout));
        let records = ROWS * probe.schema.record_width() as u64 + PARTS * build.schema.record_width() as u64;
        let columns = plan.probe_scan_bytes(&probe.schema, ROWS) + plan.build_scan_bytes(&build.schema, PARTS);
        for (sname, site) in gpu_family(memcpy) {
            let out = site.execute(&probe, Some(&build), &plan).unwrap();
            // Host-to-device copies and the result's copy back are the only
            // interconnect traffic of one device under memcpy; a mix adds
            // its hash all-gather and one result copy per device.
            let result = out.groups.len() as u64 * (2 + plan.aggregates.len() as u64) * 8;
            match (layout, sname) {
                (Layout::Nsm, _) => assert!(
                    out.interconnect_bytes >= records,
                    "{sname}/{lname}: {} < {records} record bytes",
                    out.interconnect_bytes
                ),
                (_, "gpu") => assert_eq!(out.interconnect_bytes, columns + result, "{sname}/{lname}: columnar copy"),
                _ => assert!(out.interconnect_bytes >= columns && out.interconnect_bytes < records, "{sname}/{lname}"),
            }
        }
    }
}

/// The register reduction is keyed on the plan's shape, not its aggregate
/// count: an ungrouped, unjoined plan with two aggregates still launches one
/// `aggregate` kernel, and adding a group-by brings back the arena pair.
#[test]
fn the_aggregation_charge_follows_the_plan_shape() {
    let table = lineitem(Layout::Dsm);
    let site = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::DeviceResident);
    let registered = ROWS * table.schema.record_width() as u64;
    let run = |plan: &OlapPlan| -> PlanOutcome {
        let out = site.execute(&table, None, plan).unwrap();
        assert_eq!(site.device_used_bytes(), [registered], "scratch is freed");
        out
    };
    let scan = OlapPlan::scan(&q6());
    let two_aggregates = OlapPlan { aggregates: vec![scan.aggregates[0].clone(), AggExpr::Count], ..scan.clone() };
    assert_eq!(kernel_names(&run(&two_aggregates)), ["select_0", "select_1", "select_2", "aggregate"]);
    let grouped = OlapPlan { group_by: Some(PlanColumn::Probe(tpch::columns::LINENUMBER)), ..scan.clone() };
    let names = ["select_0", "select_1", "select_2", "partial_aggregate", "merge_groups"];
    assert_eq!(kernel_names(&run(&grouped)), names);
}

/// One device is the degenerate shard: the single-GPU site and a one-device
/// mix are the same code over the same device list, so every charge agrees
/// to the bit and only the target they answer for differs.
#[test]
fn one_device_is_the_degenerate_shard() {
    let (q6_plan, join_plan) = (OlapPlan::scan(&q6()), tpch::brand_revenue_plan(30));
    for (lname, layout) in LAYOUTS {
        let (probe, build) = (lineitem(layout), part(layout));
        let charges = |site: Site, target: OlapTarget| {
            let scan = site.execute(&probe, None, &q6_plan).unwrap();
            let join = site.execute(&probe, Some(&build), &join_plan).unwrap();
            [scan, join].map(|out| {
                assert_eq!(out.site, target);
                let b = out.breakdown;
                let bits = [b.stream_secs, b.compute_secs, b.overhead_secs].map(f64::to_bits);
                (out.time, out.interconnect_bytes, bits, out.kernels, out.groups)
            })
        };
        for (pname, placement) in PLACEMENTS {
            let device = || GpuDevice::new(GpuSpec::gtx_980());
            assert_eq!(
                charges(Site::gpu(device(), placement), OlapTarget::Gpu),
                charges(Site::sharded(vec![device()], placement).unwrap(), OlapTarget::MultiGpu),
                "{lname}/{pname}"
            );
        }
    }
}
