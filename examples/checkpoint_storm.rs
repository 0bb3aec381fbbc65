//! Checkpoint storm: replay an application's N-1 checkpoint through
//! the simulated parallel file system, directly vs through PLFS.
//!
//! ```sh
//! cargo run --release --example checkpoint_storm -- [app] [ranks] [servers]
//! cargo run --release --example checkpoint_storm -- FLASH-IO 512 16
//! ```

use pdsi::pfs::ClusterConfig;
use pdsi::plfs::simadapter::compare;
use pdsi::simkit::units::MIB;
use pdsi::workloads::AppProfile;

fn main() {
    let mut args = std::env::args().skip(1);
    let app_name = args.next().unwrap_or_else(|| "FLASH-IO".into());
    let ranks: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let servers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let app = AppProfile::by_name(&app_name).unwrap_or_else(|| {
        eprintln!("unknown app {app_name:?}; known:");
        for p in &pdsi::workloads::APP_PROFILES {
            eprintln!("  {}", p.name);
        }
        std::process::exit(2);
    });

    println!(
        "{} checkpoint: {ranks} ranks x {} = {} total, {} writes",
        app.name,
        pdsi::simkit::units::fmt_bytes(app.bytes_per_rank),
        pdsi::simkit::units::fmt_bytes(app.checkpoint_bytes(ranks)),
        app.writes_per_rank() * ranks as u64,
    );
    let pattern = app.pattern(ranks);
    for (name, cfg) in [
        ("PanFS-like", ClusterConfig::panfs_like(servers, MIB)),
        ("Lustre-like", ClusterConfig::lustre_like(servers, MIB)),
        ("GPFS-like", ClusterConfig::gpfs_like(servers, MIB)),
    ] {
        let (direct, plfs, speedup) = compare(cfg, &pattern);
        println!(
            "{name:<12} direct {:>9.1} MB/s ({} revocations) | PLFS {:>9.1} MB/s | {speedup:.1}x",
            direct.write_bandwidth() / 1e6,
            direct.lock_stats.revocations,
            plfs.write_bandwidth() / 1e6,
        );
    }
}
