//! Isolated layer probes of the traced run: one small measurement per
//! layer, through the layer's public API, after the workload's phases and
//! checks are done. They say where an end-to-end number comes from; none of
//! them is gated.

use crate::analyst::{Analyst, LatencyClass, QueryKind};
use crate::data::Loaded;
use crate::spans::Recorder;
use crate::stats;
use crate::txn::{self, Sampling};
use caldera::{Caldera, OlapTarget, SiteCapability};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{H2Error, PartitionId, RecordId, Result, TableId};
use h2tap_gpu_sim::GpuSpec;
use h2tap_mpmsg::{build_fabric, CoreId};
use h2tap_olap::operators::{check_plan_tables, scan_chunk};
use h2tap_olap::{merge_scan_partials, CpuOlapEngine, MaterializedColumns, PlanDataCache};
use h2tap_oltp::{LockMode, LockTable, PartitionIndex, TxnToken};
use h2tap_scheduler::{place_olap_query_sites, PlacementHints};
use h2tap_workloads::tpch;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `reps` timings of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        f()?;
        secs.push(started.elapsed().as_secs_f64());
    }
    Ok(stats::median(&secs).unwrap_or(0.0))
}

/// Seconds per iteration of a tight loop of `iters` calls to `f`.
fn per_iter_secs(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    started.elapsed().as_secs_f64() / iters as f64
}

type Metrics = Vec<(&'static str, f64)>;

/// `Database::snapshot` / `release_snapshot`, `SnapshotTable::column_into`
/// and `Database::update` first after a snapshot (copy-on-write) and again
/// (in place).
fn storage(caldera: &Caldera, lineitem: TableId, out: &mut Metrics) -> Result<()> {
    let db = caldera.database();
    let mut snapshot_secs = Vec::new();
    let mut release_secs = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        let snapshot = db.snapshot();
        snapshot_secs.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        db.release_snapshot(&snapshot)?;
        release_secs.push(started.elapsed().as_secs_f64());
    }
    out.push(("storage.snapshot_us", stats::median(&snapshot_secs).unwrap_or(0.0) * 1e6));
    out.push(("storage.release_us", stats::median(&release_secs).unwrap_or(0.0) * 1e6));

    let snapshot = db.snapshot();
    let frozen = snapshot.table(lineitem)?;
    let rows = frozen.row_count() as usize;
    let mut cells = vec![0u64; rows];
    let secs = median_secs(3, || {
        frozen.column_into(tpch::columns::EXTENDEDPRICE, 0..rows, &mut cells);
        black_box(&cells);
        Ok(())
    })?;
    out.push(("storage.column_read_gbps", (rows * 8) as f64 / secs / 1e9));

    // Rewrite records with the values they already hold: the first write to
    // a page the live snapshot shares copies it, the second is in place.
    let per_partition = (rows / db.partition_count()).max(1) as u64;
    let mut rng = SplitMixRng::new(0xC0);
    let records = (0..2_000)
        .map(|_| {
            let rid = RecordId::new(PartitionId(0), lineitem, rng.next_below(per_partition));
            db.read(rid).map(|values| (rid, values))
        })
        .collect::<Result<Vec<_>>>()?;
    for name in ["storage.update_cow_ns", "storage.update_inplace_ns"] {
        let started = Instant::now();
        for (rid, values) in &records {
            db.update(*rid, values)?;
        }
        out.push((name, started.elapsed().as_secs_f64() * 1e9 / records.len() as f64));
    }
    db.release_snapshot(&snapshot)?;
    Ok(())
}

/// A two-core fabric's ping-pong round trip.
fn mpmsg(out: &mut Metrics) -> Result<()> {
    const ROUNDS: u64 = 5_000;
    let (postboxes, mut mailboxes, _stats) = build_fabric::<u64>(2, 64);
    let echo_mailbox = mailboxes.pop().expect("a two-core fabric has two mailboxes");
    let home_mailbox = mailboxes.pop().expect("a two-core fabric has two mailboxes");
    let echo_postbox = postboxes[1].clone();
    let lost = || H2Error::ChannelClosed("a ping-pong message never arrived".into());
    let secs = std::thread::scope(|scope| -> Result<f64> {
        let echo = scope.spawn(move || -> Result<()> {
            for _ in 0..ROUNDS {
                let env = echo_mailbox.recv_timeout(Duration::from_secs(5))?.ok_or_else(lost)?;
                echo_postbox.send(env.from, env.payload)?;
            }
            Ok(())
        });
        let started = Instant::now();
        for i in 0..ROUNDS {
            postboxes[0].send(CoreId(1), i)?;
            home_mailbox.recv_timeout(Duration::from_secs(5))?.ok_or_else(lost)?;
        }
        let secs = started.elapsed().as_secs_f64();
        echo.join().expect("the echo thread panicked")?;
        Ok(secs)
    })?;
    out.push(("mpmsg.roundtrip_us", secs / ROUNDS as f64 * 1e6));
    Ok(())
}

/// `LockTable::acquire` + `release`, and `PartitionIndex::lookup_rid` over
/// one million keys.
fn oltp(out: &mut Metrics) {
    const KEYS: u64 = 1_000_000;
    let table = TableId(0);
    let mut rng = SplitMixRng::new(0x10C);
    let mut locks = LockTable::new();
    let secs = per_iter_secs(200_000, |i| {
        let rid = RecordId::new(PartitionId(0), table, rng.next_below(KEYS));
        let token = TxnToken::new(0, i);
        black_box(locks.acquire(rid, LockMode::Exclusive, token));
        locks.release(rid, token);
    });
    out.push(("oltp.lock_pair_ns", secs * 1e9));

    let mut index = PartitionIndex::new();
    for key in 0..KEYS {
        index.insert(table, key as i64, key);
    }
    let secs = per_iter_secs(500_000, |_| {
        black_box(index.lookup_rid(PartitionId(0), table, rng.next_below(KEYS) as i64).is_ok());
    });
    out.push(("oltp.index_lookup_ns", secs * 1e9));
}

/// Materialisation, hash build, warm kernels and the partial merge, each
/// called directly on the engine's current snapshot. Returns the direct
/// warm CPU-site times of scan and join, in seconds.
fn olap(caldera: &Caldera, loaded: &Loaded, out: &mut Metrics) -> Result<(f64, f64)> {
    let snapshot = caldera.current_snapshot().expect("every workload has taken a snapshot before the probes run");
    let lineitem = snapshot.table(loaded.lineitem)?;
    let part = snapshot.table(loaded.part)?;
    let (scan, join) = (tpch::q6(), tpch::brand_revenue_plan(30));
    let rows = lineitem.row_count() as f64;

    let secs = median_secs(3, || {
        MaterializedColumns::new(lineitem, scan.columns_accessed()).map(|m| {
            black_box(m);
        })
    })?;
    out.push(("olap.materialize_ms.scan", secs * 1e3));
    let secs = median_secs(3, || {
        MaterializedColumns::new(lineitem, join.probe_columns_accessed()).map(|m| {
            black_box(m);
        })
    })?;
    out.push(("olap.materialize_ms.join", secs * 1e3));

    let spec = join.join.as_ref().expect("the brand-revenue plan joins");
    let group_col = check_plan_tables(lineitem, Some(part), &join)?;
    let secs = median_secs(3, || {
        PlanDataCache::new().hash_table(part, spec, group_col).map(|h| {
            black_box(h);
        })
    })?;
    out.push(("olap.hash_build_ms", secs * 1e3));

    // One core, private cache: the first call warms it, the rest are kernels.
    let site = CpuOlapEngine::archipelago_default(1);
    site.execute_scan(lineitem, &scan)?;
    let scan_secs = median_secs(5, || {
        site.execute_scan(lineitem, &scan).map(|r| {
            black_box(r);
        })
    })?;
    out.push(("olap.kernel_ns_per_row.scan", scan_secs * 1e9 / rows));
    site.execute_plan_pipeline(lineitem, Some(part), &join)?;
    let join_secs = median_secs(5, || {
        site.execute_plan_pipeline(lineitem, Some(part), &join).map(|r| {
            black_box(r);
        })
    })?;
    out.push(("olap.kernel_ns_per_row.join", join_secs * 1e9 / rows));

    let mat = MaterializedColumns::new(lineitem, scan.columns_accessed())?;
    let partials: Vec<_> = (0..mat.chunk_count()).map(|i| scan_chunk(&mat, &scan, mat.chunk_range(i))).collect();
    let secs = per_iter_secs(10_000, |_| {
        black_box(merge_scan_partials(black_box(&partials).iter().copied()));
    });
    out.push(("olap.merge_us", secs * 1e6));
    Ok((scan_secs, join_secs))
}

/// `place_olap_query_sites` over the engine's two sites with Q6's hints.
fn scheduler(caldera: &Caldera, rows: u64, out: &mut Metrics) {
    let hints = caldera.cost_model().apply_to(PlacementHints {
        bytes_to_scan: tpch::q6_scan_bytes(rows),
        rows,
        available_cpu_cores: 1,
        ..PlacementHints::default()
    });
    let sites = [SiteCapability::single_gpu(&GpuSpec::gtx_980(), &hints), SiteCapability::Cpu { cores: 1 }];
    let secs = per_iter_secs(100_000, |_| {
        black_box(place_olap_query_sites(black_box(&sites), black_box(&hints)));
    });
    out.push(("scheduler.place_ns", secs * 1e9));
}

/// `Caldera::refresh_snapshot` with transactions idle and saturated, then
/// each site forced, and the engine's dispatch overhead over a direct site
/// call.
fn engine(caldera: &Caldera, loaded: &Loaded, rec: &Recorder, direct: (f64, f64), out: &mut Metrics) -> Result<()> {
    // Refreshes spaced out so each meets the generator in full swing.
    let refresh_secs = || -> Result<f64> {
        let mut secs = Vec::new();
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(50));
            let started = Instant::now();
            caldera.refresh_snapshot()?;
            secs.push(started.elapsed().as_secs_f64());
        }
        Ok(stats::median(&secs).unwrap_or(0.0))
    };
    out.push(("engine.refresh_ms.idle", refresh_secs()? * 1e3));
    let busy = std::thread::scope(|scope| {
        let oltp = scope.spawn(|| txn::saturated(caldera, 0.5, Sampling::Slices, rec));
        let secs = refresh_secs();
        oltp.join().expect("the generator window panicked")?;
        secs
    })?;
    out.push(("engine.refresh_ms.busy", busy * 1e3));

    // A fresh analyst without an oracle: these answers were checked already.
    let mut analyst = Analyst::new(caldera, rec, loaded.lineitem, loaded.part);
    let mut forced = |kind, site| {
        let ms: Vec<f64> =
            (0..6).map(|_| analyst.issue(kind, LatencyClass::Other, None, false, Some(site)).latency_ms).collect();
        // The first call after the refreshes above re-materialises.
        stats::median(&ms[1..]).unwrap_or(0.0)
    };
    let cpu_scan = forced(QueryKind::Scan, OlapTarget::Cpu);
    let cpu_join = forced(QueryKind::Join, OlapTarget::Cpu);
    out.push(("olap.site_ms.cpu.scan", cpu_scan));
    out.push(("olap.site_ms.cpu.join", cpu_join));
    out.push(("olap.site_ms.gpu.scan", forced(QueryKind::Scan, OlapTarget::Gpu)));
    out.push(("olap.site_ms.gpu.join", forced(QueryKind::Join, OlapTarget::Gpu)));
    out.push(("engine.dispatch_overhead_us.scan", (cpu_scan - direct.0 * 1e3) * 1e3));
    out.push(("engine.dispatch_overhead_us.join", (cpu_join - direct.1 * 1e3) * 1e3));
    Ok(())
}

/// Runs every probe and returns its metrics.
pub fn run(caldera: &Caldera, loaded: &Loaded, rec: &Recorder) -> Result<Vec<(&'static str, f64)>> {
    let mut out = Metrics::new();
    let rows = caldera.database().row_count(loaded.lineitem)?;
    rec.time("probe.storage", None, 0, || storage(caldera, loaded.lineitem, &mut out))?;
    rec.time("probe.mpmsg", None, 0, || mpmsg(&mut out))?;
    rec.time("probe.oltp", None, 0, || oltp(&mut out));
    let direct = rec.time("probe.olap", None, 0, || olap(caldera, loaded, &mut out))?;
    rec.time("probe.scheduler", None, 0, || scheduler(caldera, rows, &mut out));
    rec.time("probe.engine", None, 0, || engine(caldera, loaded, rec, direct, &mut out))?;
    Ok(out)
}
