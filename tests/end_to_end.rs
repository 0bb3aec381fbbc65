//! Cross-crate integration tests: the real middleware paths working
//! together — PLFS over an actual directory, h5lite over backends,
//! traces flowing from workload generators through the simulators.

use pdsi::pfs::ClusterConfig;
use pdsi::plfs::backend::{Backend, DirBackend, MemBackend};
use pdsi::plfs::simadapter::{compare, run_direct};
use pdsi::plfs::{ParallelFile, Plfs, PlfsConfig};
use pdsi::simkit::units::MIB;
use pdsi::workloads::{AppProfile, Trace};
use std::sync::Arc;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("pdsi-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn plfs_on_real_directory_threaded_n1_roundtrip() {
    let root = temp_root("n1");
    let backend = Arc::new(DirBackend::new(&root).unwrap()) as Arc<dyn Backend>;
    let fs = Arc::new(Plfs::new(backend, PlfsConfig { hostdirs: 4, ..Default::default() }));
    let ranks = 6u32;
    let records = 40u64;
    let rec = 4097usize; // deliberately unaligned

    fs.create("/ckpt").unwrap();
    std::thread::scope(|s| {
        for rank in 0..ranks {
            let fs = Arc::clone(&fs);
            s.spawn(move || {
                let mut w = fs.open_writer("/ckpt", rank).unwrap();
                for i in 0..records {
                    let idx = i * ranks as u64 + rank as u64;
                    w.write_at(idx * rec as u64, &vec![(idx % 255) as u8; rec]).unwrap();
                }
                w.close().unwrap();
            });
        }
    });

    let r = fs.open_reader("/ckpt").unwrap();
    assert_eq!(r.size(), ranks as u64 * records * rec as u64);
    let data = r.read_all().unwrap();
    for (idx, chunk) in data.chunks(rec).enumerate() {
        assert!(chunk.iter().all(|&b| b == (idx % 255) as u8), "record {idx}");
    }

    // Flatten and compare against the logical content.
    let n = fs.flatten("/ckpt", "/flat", 123_457).unwrap();
    assert_eq!(n, data.len() as u64);
    let flat = fs.backend().read_all("/flat").unwrap();
    assert_eq!(flat, data);

    // stat fast path after clean close.
    let st = fs.stat("/ckpt").unwrap();
    assert!(st.from_meta);
    assert_eq!(st.size, data.len() as u64);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn plfs_survives_reopen_sessions_on_disk() {
    let root = temp_root("sessions");
    let make_fs = || {
        let backend = Arc::new(DirBackend::new(&root).unwrap()) as Arc<dyn Backend>;
        Plfs::new(backend, PlfsConfig::default())
    };
    {
        let fs = make_fs();
        let mut w = fs.open_writer("/log", 0).unwrap();
        w.write_at(0, b"generation-one........").unwrap();
        w.close().unwrap();
    }
    {
        // A *fresh* Plfs instance (new process, conceptually) overwrites
        // the middle; its session epoch must dominate.
        let fs = make_fs();
        let mut w = fs.open_writer("/log", 0).unwrap();
        w.write_at(11, b"TWO").unwrap();
        w.close().unwrap();
    }
    let fs = make_fs();
    let data = fs.open_reader("/log").unwrap().read_all().unwrap();
    assert_eq!(&data, b"generation-TWO........");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mpiio_collective_over_memory_backend() {
    let plfs =
        Arc::new(Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, PlfsConfig::default()));
    let mut f = ParallelFile::open_collective(plfs, "/c", 12).unwrap();
    for rank in 0..12u32 {
        for i in 0..8u64 {
            let idx = i * 12 + rank as u64;
            f.write_at(rank, idx * 100, &[(idx % 91) as u8; 100]).unwrap();
        }
    }
    f.sync_all().unwrap();
    let data = f.read_back().unwrap();
    assert_eq!(data.len(), 12 * 8 * 100);
    for (idx, chunk) in data.chunks(100).enumerate() {
        assert!(chunk.iter().all(|&b| b == (idx % 91) as u8));
    }
    f.close_collective().unwrap();
}

#[test]
fn workload_trace_roundtrips_through_text_and_sim() {
    let app = AppProfile::by_name("Chombo").unwrap();
    let pattern = app.pattern(16);
    let trace = Trace::from_pattern(app.name, &pattern);
    let parsed = Trace::parse(&trace.to_text()).unwrap();
    let recovered = parsed.to_pattern();
    assert_eq!(recovered, pattern);

    // Replaying the recovered pattern is bit-identical to the original.
    let a = run_direct(ClusterConfig::lustre_like(8, MIB), &pattern);
    let b = run_direct(ClusterConfig::lustre_like(8, MIB), &recovered);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.bytes_written, b.bytes_written);
    assert_eq!(a.lock_stats.revocations, b.lock_stats.revocations);
}

#[test]
fn h5lite_over_plfs_flattened_container() {
    // Full stack: write an h5lite container into a memory store, then
    // shovel the same bytes through PLFS (write_at per log) and verify
    // the format still opens from the flattened copy.
    use pdsi::miniio::{H5Reader, H5Writer};
    let staging = MemBackend::new();
    let mut w = H5Writer::create(&staging, "/stage.h5l", 2);
    let ds = w.add_dataset("density", 8, 512);
    let payload: Vec<u8> = (0..4096).map(|i| (i % 253) as u8).collect();
    w.write_elements(ds, 0, &payload);
    w.close().unwrap();
    let bytes = staging.read_all("/stage.h5l").unwrap();

    let fs = Plfs::new(Arc::new(MemBackend::new()) as Arc<dyn Backend>, PlfsConfig::default());
    let mut writer = fs.open_writer("/container.h5l", 0).unwrap();
    // Write it in awkward out-of-order pieces, because we can.
    let mid = bytes.len() / 3;
    writer.write_at(mid as u64, &bytes[mid..]).unwrap();
    writer.write_at(0, &bytes[..mid]).unwrap();
    writer.close().unwrap();
    fs.flatten("/container.h5l", "/flat.h5l", 1 << 16).unwrap();

    let r = H5Reader::open(fs.backend().as_ref(), "/flat.h5l").unwrap();
    assert_eq!(r.datasets()[0].name, "density");
    assert_eq!(r.read_elements(0, 0, 512).unwrap(), payload);
}

#[test]
fn simulated_speedup_is_deterministic_across_runs() {
    let app = AppProfile::by_name("FLASH-IO").unwrap();
    let pattern = app.pattern(64);
    let s1 = compare(ClusterConfig::lustre_like(8, MIB), &pattern).2;
    let s2 = compare(ClusterConfig::lustre_like(8, MIB), &pattern).2;
    assert_eq!(s1.to_bits(), s2.to_bits(), "simulation must be bit-reproducible");
}

#[test]
fn bytes_conserved_between_direct_and_plfs_modes() {
    let app = AppProfile::by_name("RAGE").unwrap();
    let pattern = app.pattern(32);
    let app_bytes: u64 = pattern.iter().flatten().map(|&(_, l)| l).sum();
    let (direct, plfs, _) = compare(ClusterConfig::lustre_like(8, MIB), &pattern);
    assert_eq!(direct.bytes_written, app_bytes);
    assert!(plfs.bytes_written >= app_bytes, "PLFS lost data bytes");
    assert!(
        plfs.bytes_written < app_bytes + app_bytes / 20,
        "PLFS index overhead should be under 5%: {} vs {app_bytes}",
        plfs.bytes_written
    );
}
