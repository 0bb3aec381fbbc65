//! Wall-clock benchmarks: one target per reproduced table/figure.
//!
//! These measure the *wall-clock cost of the reproduction code* —
//! simulator throughput, middleware hot paths — while the simulated
//! bandwidth/goodput numbers themselves are printed by the `repro`
//! binary (simulated time is deterministic and not a wall-clock
//! quantity). Each figure/table has a bench target here so regressions
//! in any experiment's machinery are caught.
//!
//! Formerly a `criterion` harness; now a dependency-free self-timed
//! runner (`harness = false`) so the workspace builds offline. Run with
//! `cargo bench -p pdsi-bench`; pass a substring to filter targets.

use std::hint::black_box;
use std::time::Instant;

use diskmodel::{profiles, BlockDevice, DevOp};
use pfs::ClusterConfig;
use plfs::simadapter::{run_direct, run_plfs};
use simkit::units::{KIB, MIB};
use simkit::Rng;
use workloads::AppProfile;

/// Time `f` over a few iterations and print a one-line report.
fn bench<T>(filter: &str, name: &str, iters: u32, mut f: impl FnMut() -> T) {
    if !name.contains(filter) {
        return;
    }
    // One warm-up, then timed iterations.
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    let unit = if per >= 1.0 {
        format!("{per:8.3} s ")
    } else if per >= 1e-3 {
        format!("{:8.3} ms", per * 1e3)
    } else {
        format!("{:8.3} us", per * 1e6)
    };
    println!("{name:40} {unit}/iter  ({iters} iters)");
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let f = filter.as_str();

    // fig2: S3D weak-scaling simulation.
    let s3d = AppProfile::by_name("S3D").unwrap().pattern(128);
    bench(f, "fig2_s3d_weak_scaling_sim", 3, || {
        run_direct(ClusterConfig::lustre_like(16, MIB), black_box(&s3d))
    });

    // fig3: fsstats survey synthesis.
    bench(f, "fig3_fsstats_survey", 5, || {
        let s = pfs::fsstats::Survey::synthesize(&pfs::fsstats::SITE_PROFILES[0], 1);
        s.count_cdf().median()
    });

    // fig4/fig5: reliability models.
    bench(f, "fig4_failure_fit", 5, || {
        reliability::fit_rate_vs_chips(&reliability::lanl_like_fleet(), 2.0, 1)
    });
    let m = reliability::CheckpointModel::report_baseline();
    bench(f, "fig5_utilization_mc", 3, || {
        reliability::simulate_utilization(&m, 6.0 * 3600.0, 3600.0, 1.0e7, 1)
    });

    // fig7: GIGA+ metadata scaling.
    bench(f, "fig7_giga_metarates_8srv", 3, || {
        giga::run_metarates(&giga::MetaratesConfig::new(32, 200, 8, giga::Scheme::GigaPlus))
    });
    bench(f, "giga_directory_insert_10k", 5, || {
        let mut d = giga::GigaDirectory::new(8, 256);
        for i in 0..10_000 {
            d.insert(black_box(&format!("f{i}")));
        }
        d.len()
    });

    // fig8: PLFS vs direct, plus the real middleware write path.
    let flash = AppProfile::by_name("FLASH-IO").unwrap().pattern(64);
    bench(f, "fig8_direct_n1_sim", 3, || {
        run_direct(ClusterConfig::lustre_like(8, MIB), black_box(&flash))
    });
    bench(f, "fig8_plfs_sim", 3, || {
        run_plfs(ClusterConfig::lustre_like(8, MIB), black_box(&flash))
    });
    bench(f, "plfs_write_path_4k_records", 5, || {
        use plfs::backend::{Backend, MemBackend};
        use std::sync::Arc;
        let be = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
        let fs = plfs::Plfs::new(be, plfs::PlfsConfig::default());
        let mut w = fs.open_writer("/f", 0).unwrap();
        let buf = vec![7u8; 4096];
        for i in 0..512u64 {
            w.write_at(i * 8192, &buf).unwrap();
        }
        w.close().unwrap()
    });

    // fig9: incast collapse.
    bench(f, "fig9_incast_16way_1ms", 3, || {
        netsim::run_incast(&netsim::IncastConfig::gbe(16, netsim::RtoPolicy::hires_1ms()))
    });

    // fig10: Argon insulation.
    let argon_cfg = argon::InsulationConfig {
        duration: simkit::SimDuration::from_secs(5),
        ..Default::default()
    };
    bench(f, "fig10_argon_timesliced", 3, || {
        argon::run_insulation(&argon_cfg, argon::Policy::TimeSliced { coordinated: true })
    });

    // tab1/fig14: flash device model.
    let x25 = profiles::flash_by_name("x25").unwrap();
    bench(f, "tab1_flash_random_read_1k_ops", 5, || {
        let mut d = x25.device(16 * MIB);
        let mut rng = Rng::new(1);
        let pages = 16 * MIB / 4096;
        for _ in 0..1000 {
            d.service(DevOp::read(rng.below(pages) * 4096, 4096));
        }
        d.stats().busy
    });
    bench(f, "fig14_ftl_sustained_writes", 3, || {
        let mut d = x25.device(16 * MIB);
        let mut rng = Rng::new(2);
        let pages = 16 * MIB / 4096;
        for _ in 0..2 * pages {
            d.service(DevOp::write(rng.below(pages) * 4096, 4096));
        }
        d.ftl_stats().write_amplification()
    });

    // fig13: formatted-I/O optimization ladder.
    let w13 = miniio::FormattedWorkload::chombo(64);
    let cfg13 = ClusterConfig::lustre_like(8, MIB);
    bench(f, "fig13_optimization_ladder", 3, || {
        miniio::optimization_ladder(black_box(&w13), &cfg13)
    });

    // fig15: Ninjat rendering.
    let p15 = AppProfile::by_name("FLASH-IO").unwrap().pattern(16);
    let t15 = workloads::Trace::from_pattern("FLASH-IO", &p15);
    bench(f, "fig15_ninjat_render", 5, || workloads::render(black_box(&t15), 76, 20));

    // PLFS extension ablation: raw vs pattern-compressed index.
    use plfs::index::{decode, encode_compressed, encode_raw, IndexEntry, IndexMap};
    let entries: Vec<IndexEntry> = (0..100_000u64)
        .map(|i| IndexEntry {
            logical_offset: i * 48 * KIB,
            length: 47 * KIB,
            physical_offset: i * 47 * KIB,
            writer: (i % 64) as u32,
            timestamp: i,
        })
        .collect();
    bench(f, "index_encode_raw_100k", 10, || encode_raw(black_box(&entries)));
    bench(f, "index_encode_compressed_100k", 10, || encode_compressed(black_box(&entries)));
    let raw = encode_raw(&entries);
    bench(f, "index_decode_100k", 10, || decode(black_box(&raw)).unwrap());
    bench(f, "index_map_merge_100k", 5, || IndexMap::build(entries.clone()));

    // Fault machinery: retrying write path over a lossy backend.
    bench(f, "plfs_write_path_faulty_retry", 5, || {
        use plfs::backend::{Backend, MemBackend};
        use plfs::faults::{FaultPlan, FaultyBackend};
        use plfs::retry::RetryPolicy;
        use std::sync::Arc;
        let be = Arc::new(FaultyBackend::new(
            MemBackend::new(),
            FaultPlan { transient_error_rate: 0.05, ..FaultPlan::none(7) },
        )) as Arc<dyn Backend>;
        let fs = plfs::Plfs::new(
            be,
            plfs::PlfsConfig { retry: RetryPolicy::fast_test(), ..Default::default() },
        );
        let mut w = fs.open_writer("/f", 0).unwrap();
        let buf = vec![7u8; 4096];
        for i in 0..256u64 {
            w.write_at(i * 8192, &buf).unwrap();
        }
        w.close().unwrap()
    });
}
