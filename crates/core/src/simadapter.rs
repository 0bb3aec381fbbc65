//! Bridge from PLFS to the `pfs` cluster simulator — the performance
//! half of the reproduction.
//!
//! Functional correctness of PLFS runs over real backends
//! ([`crate::backend::DirBackend`]); *bandwidth* numbers (Fig. 8, the
//! 5×–100× speedup table) come from replaying the same application
//! write pattern through the simulated parallel file system two ways:
//!
//! - **direct**: all ranks write the one shared file, exactly as the
//!   application intended — strided small writes, lock false sharing,
//!   the works;
//! - **through PLFS**: each rank writes its private data dropping
//!   sequentially, plus its index dropping appends, plus the container's
//!   metadata creates — everything PLFS actually does, including its
//!   overheads.

use crate::filesystem::PlfsConfig;
use obs::trace::Phase;
use pfs::{Cluster, ClusterConfig, Op, PhaseReport};

/// A logical-file write pattern: per-rank lists of `(offset, len)`.
pub type Pattern = Vec<Vec<(u64, u64)>>;

/// File id used for the shared logical file in direct mode.
const SHARED_FILE: u64 = 0;

/// Byte cost of one raw index record on the wire (see `index.rs`).
const INDEX_RECORD: u64 = crate::index::RAW_RECORD_BYTES as u64 + 1;

/// Replay `pattern` as the application would: one shared file.
pub fn run_direct(cluster_cfg: ClusterConfig, pattern: &Pattern) -> PhaseReport {
    let streams: Vec<Vec<Op>> = pattern
        .iter()
        .map(|ops| {
            let mut v = Vec::with_capacity(ops.len() + 1);
            v.push(Op::Open(SHARED_FILE));
            v.extend(ops.iter().map(|&(offset, len)| Op::Write { file: SHARED_FILE, offset, len }));
            v
        })
        .collect();
    let mut cluster = Cluster::new(cluster_cfg);
    cluster.run_phase(&streams)
}

/// Replay `pattern` as PLFS transforms it: per-rank logs + index
/// droppings + container metadata, buffered and spread over hostdirs
/// as a default [`PlfsConfig`] does it.
///
/// Container droppings are created with stripe count 1 (the PLFS
/// deployment default): each rank's log lives wholly on one object
/// server, assigned round-robin by file id, so every server sees a few
/// purely sequential streams instead of slivers of every file.
pub fn run_plfs(mut cluster_cfg: ClusterConfig, pattern: &Pattern) -> PhaseReport {
    // Stripe count 1: a stripe unit larger than any dropping keeps each
    // log file wholly on the server its id round-robins to.
    cluster_cfg.layout =
        pfs::Layout::new(1 << 30, pfs::Placement::RoundRobin, cluster_cfg.layout.servers);
    let PlfsConfig { hostdirs, writer, .. } = PlfsConfig::default();
    let (data_buffer, index_flush_every) =
        (writer.data_buffer as u64, writer.index_flush_every as u64);
    let mut streams: Vec<Vec<Op>> = Vec::with_capacity(pattern.len());
    // PLFS action naming each op, parallel to `streams` — used to graft
    // layer-level wrapper spans over the cluster-level trace.
    let mut kinds: Vec<Vec<&'static str>> = Vec::with_capacity(pattern.len());
    for (rank, ops) in pattern.iter().enumerate() {
        // File ids: rank's data dropping and index dropping.
        let data_file = 1 + 2 * rank as u64;
        let index_file = 2 + 2 * rank as u64;
        let mut v = Vec::with_capacity(ops.len() / 4 + 4);
        let mut k = Vec::with_capacity(ops.len() / 4 + 4);
        // Rank 0 creates the container skeleton (hostdirs); every
        // rank creates its two droppings. Hostdir creates are
        // directory ops charged at the MDS like creates.
        if rank == 0 {
            for _ in 0..hostdirs.min(8) {
                v.push(Op::Create(u64::MAX - 1)); // container subdirs
                k.push("plfs.container_mkdir");
            }
        }
        v.push(Op::Create(data_file));
        k.push("plfs.create_dropping");
        v.push(Op::Create(index_file));
        k.push("plfs.create_dropping");

        // Data: writes become appends at the rank's private log
        // cursor, coalesced into buffer-sized appends.
        let mut cursor = 0u64;
        let mut buffered = 0u64;
        let mut index_entries = 0u64;
        let mut index_appends = 0u64;
        for &(_, len) in ops {
            buffered += len;
            index_entries += 1;
            // Data before index: an index flush lands staged data first.
            let index_full = index_entries >= index_flush_every;
            if buffered >= data_buffer || (index_full && buffered > 0) {
                v.push(Op::Write { file: data_file, offset: cursor, len: buffered });
                k.push("plfs.data_append");
                cursor += buffered;
                buffered = 0;
            }
            if index_full {
                index_appends += 1;
                index_entries = 0;
            }
        }
        if buffered > 0 {
            v.push(Op::Write { file: data_file, offset: cursor, len: buffered });
            k.push("plfs.data_append");
        }
        if index_entries > 0 {
            index_appends += 1;
        }
        // Index appends: tiny sequential writes to the index file.
        // Pattern compression collapses a whole strided run into a
        // handful of records: one pattern record (~49B) per flush,
        // conservatively x4.
        let index_bytes = index_appends * 4 * INDEX_RECORD;
        let mut ipos = 0u64;
        let per_append = (index_bytes / index_appends.max(1)).max(1);
        for _ in 0..index_appends.max(1) {
            v.push(Op::Write { file: index_file, offset: ipos, len: per_append });
            k.push("plfs.index_append");
            ipos += per_append;
        }
        streams.push(v);
        kinds.push(k);
    }
    let trace = cluster_cfg.trace.clone();
    let mut cluster = Cluster::new(cluster_cfg);
    let (report, op_spans) = cluster.run_phase_traced(&streams);
    if trace.enabled() {
        // Graft the PLFS layer over the cluster-level trees: one span
        // per rank, one wrapper per op naming the PLFS action, with the
        // pfs request root re-parented underneath. Wrapper intervals
        // equal the op intervals, so the tree stays well-formed and the
        // critical path flows through unchanged.
        for (rank, refs) in op_spans.iter().enumerate() {
            if refs.is_empty() {
                continue;
            }
            let track = format!("plfs.rank.{rank}");
            let begin = refs[0].begin.0;
            let end = refs.iter().map(|r| r.end.0).max().unwrap_or(begin);
            let rank_span = trace.record("plfs.rank", Phase::Other, &track, begin, end, 0);
            for (r, kind) in refs.iter().zip(&kinds[rank]) {
                let w = trace.record(kind, Phase::Other, &track, r.begin.0, r.end.0, rank_span);
                trace.reparent(r.span, w);
            }
        }
    }
    report
}

/// Replay the restart read-back of `pattern` as the application would:
/// every rank re-reads its own records from the one shared file —
/// strided small reads scattering across every server's disk.
pub fn run_direct_restart(cluster_cfg: ClusterConfig, pattern: &Pattern) -> PhaseReport {
    let streams: Vec<Vec<Op>> = pattern
        .iter()
        .map(|ops| {
            let mut v = Vec::with_capacity(ops.len() + 1);
            v.push(Op::Open(SHARED_FILE));
            v.extend(ops.iter().map(|&(offset, len)| Op::Read { file: SHARED_FILE, offset, len }));
            v
        })
        .collect();
    let mut cluster = Cluster::new(cluster_cfg);
    cluster.run_phase(&streams)
}

/// Replay the same restart as the PLFS read engine issues it: the
/// coalescing planner turns each rank's interleaved records into a few
/// large sequential sweeps of that rank's data dropping (chunked at
/// `coalesce_chunk`), preceded by one index-dropping fetch per rank at
/// open time. Droppings keep the stripe-1 placement of [`run_plfs`].
pub fn run_plfs_restart(
    mut cluster_cfg: ClusterConfig,
    pattern: &Pattern,
    coalesce_chunk: u64,
) -> PhaseReport {
    cluster_cfg.layout =
        pfs::Layout::new(1 << 30, pfs::Placement::RoundRobin, cluster_cfg.layout.servers);
    let chunk = coalesce_chunk.max(1);
    let mut streams: Vec<Vec<Op>> = Vec::with_capacity(pattern.len());
    for (rank, ops) in pattern.iter().enumerate() {
        let data_file = 1 + 2 * rank as u64;
        let index_file = 2 + 2 * rank as u64;
        let total: u64 = ops.iter().map(|&(_, len)| len).sum();
        let mut v = Vec::with_capacity((total / chunk) as usize + 3);
        v.push(Op::Open(data_file));
        // Open-time index fetch (sized as run_plfs wrote it).
        v.push(Op::Read { file: index_file, offset: 0, len: 4 * INDEX_RECORD });
        // Coalesced data reads: the dropping is one contiguous run.
        let mut off = 0u64;
        while off < total {
            let len = chunk.min(total - off);
            v.push(Op::Read { file: data_file, offset: off, len });
            off += len;
        }
        streams.push(v);
    }
    let mut cluster = Cluster::new(cluster_cfg);
    cluster.run_phase(&streams)
}

/// Convenience: run both restart modes on fresh clusters and return
/// `(direct, plfs, speedup)` for the read bandwidth.
pub fn compare_restart(
    cluster_cfg: ClusterConfig,
    pattern: &Pattern,
) -> (PhaseReport, PhaseReport, f64) {
    let direct = run_direct_restart(cluster_cfg.clone(), pattern);
    let plfs = run_plfs_restart(cluster_cfg, pattern, crate::read::READ_CHUNK as u64);
    let speedup = plfs.read_bandwidth() / direct.read_bandwidth();
    (direct, plfs, speedup)
}

/// Convenience: run both modes on fresh clusters and return
/// `(direct, plfs, speedup)` for the durable write bandwidth.
pub fn compare(cluster_cfg: ClusterConfig, pattern: &Pattern) -> (PhaseReport, PhaseReport, f64) {
    let direct = run_direct(cluster_cfg.clone(), pattern);
    let plfs = run_plfs(cluster_cfg, pattern);
    let speedup = plfs.write_bandwidth() / direct.write_bandwidth();
    (direct, plfs, speedup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpiio::{segmented_n1_pattern, strided_n1_pattern};
    use simkit::units::{KIB, MIB};

    /// Not a correctness test: prints the speedup landscape so the
    /// thresholds in the real tests can be set honestly.
    /// Run with: cargo test -p plfs probe_speedups -- --ignored --nocapture
    #[test]
    #[ignore]
    fn probe_speedups() {
        for &servers in &[8usize, 16, 32] {
            for &ranks in &[8u32, 32, 128, 512] {
                let pattern = strided_n1_pattern(ranks, 64, 47 * KIB);
                let cfg = ClusterConfig::lustre_like(servers, MIB);
                let (d, p, s) = compare(cfg, &pattern);
                println!(
                    "servers={servers:3} ranks={ranks:4}: direct {:8.1} MB/s  plfs {:8.1} MB/s  speedup {s:6.2}x (revocations {})",
                    d.write_bandwidth() / 1e6,
                    p.write_bandwidth() / 1e6,
                    d.lock_stats.revocations,
                );
            }
        }
    }

    #[test]
    fn plfs_mode_trace_grafts_layer_spans() {
        let pattern = strided_n1_pattern(4, 16, 47 * KIB);
        let mut cfg = ClusterConfig::lustre_like(4, MIB);
        cfg.trace = obs::trace::TraceSink::bounded(1 << 16);
        let sink = cfg.trace.clone();
        run_plfs(cfg, &pattern);
        let spans = sink.snapshot();
        obs::trace::validate(&spans).expect("grafted tree stays well-formed");
        assert!(spans.iter().any(|s| s.name == "plfs.rank"));
        assert!(spans.iter().any(|s| s.name == "plfs.create_dropping"));
        // The pfs request roots were re-parented under PLFS wrappers, so
        // the layers chain plfs -> pfs -> osd in one causal tree.
        let w = spans.iter().find(|s| s.name == "plfs.data_append").unwrap();
        let req = spans.iter().find(|s| s.parent == w.id).expect("pfs root under wrapper");
        assert_eq!(req.name, "pfs.write");
        assert!(spans.iter().any(|s| s.name == "osd.ingest"));
    }

    #[test]
    fn plfs_dominates_on_small_strided_lustre_like() {
        // The win grows with job size (as in the report); at 512 ranks
        // over 16 servers the simulated gap is ~8x.
        let pattern = strided_n1_pattern(512, 64, 47 * KIB);
        let cfg = ClusterConfig::lustre_like(16, MIB);
        let (direct, plfs, speedup) = compare(cfg, &pattern);
        assert!(direct.bytes_written <= plfs.bytes_written + plfs.bytes_written / 2);
        assert!(
            speedup > 5.5,
            "expected order-of-magnitude PLFS win, got {speedup:.1}x \
             (direct {:.1} MB/s, plfs {:.1} MB/s)",
            direct.write_bandwidth() / 1e6,
            plfs.write_bandwidth() / 1e6
        );
    }

    #[test]
    fn plfs_roughly_neutral_on_large_segmented() {
        // Well-formed I/O: PLFS shouldn't hurt much (report: helps most
        // for unaligned/strided, neutral for friendly patterns).
        let pattern = segmented_n1_pattern(16, 64 * MIB, 4 * MIB);
        let cfg = ClusterConfig::lustre_like(8, MIB);
        let (_, _, speedup) = compare(cfg, &pattern);
        assert!(
            speedup > 0.5 && speedup < 6.0,
            "segmented speedup should be modest, got {speedup:.2}x"
        );
    }

    #[test]
    fn plfs_write_volume_includes_index_overhead() {
        let pattern = strided_n1_pattern(4, 16, 64 * KIB);
        let cfg = ClusterConfig::lustre_like(4, MIB);
        let app_bytes: u64 = pattern.iter().flatten().map(|&(_, l)| l).sum();
        let rep = run_plfs(cfg, &pattern);
        assert!(rep.bytes_written >= app_bytes, "lost data bytes");
        assert!(
            rep.bytes_written < app_bytes + app_bytes / 10,
            "index overhead should be tiny: {} vs {app_bytes}",
            rep.bytes_written
        );
    }

    #[test]
    fn coalesced_restart_beats_direct_strided_readback() {
        // Restart of a strided N-1 checkpoint: direct re-reads scatter
        // small requests over every server; the coalesced engine sweeps
        // each dropping sequentially.
        let pattern = strided_n1_pattern(128, 64, 47 * KIB);
        let app_bytes: u64 = pattern.iter().flatten().map(|&(_, l)| l).sum();
        let cfg = ClusterConfig::lustre_like(8, MIB);
        let (direct, plfs, speedup) = compare_restart(cfg, &pattern);
        assert_eq!(direct.bytes_read, app_bytes);
        assert!(plfs.bytes_read >= app_bytes, "engine reads all data plus indices");
        assert!(
            speedup > 1.5,
            "coalesced restart should beat direct strided read-back, got {speedup:.2}x \
             (direct {:.1} MB/s, plfs {:.1} MB/s)",
            direct.read_bandwidth() / 1e6,
            plfs.read_bandwidth() / 1e6
        );
    }

    #[test]
    fn plfs_wins_grow_with_scale() {
        let cfg = || ClusterConfig::lustre_like(16, MIB);
        let small = compare(cfg(), &strided_n1_pattern(32, 64, 47 * KIB)).2;
        let large = compare(cfg(), &strided_n1_pattern(512, 64, 47 * KIB)).2;
        assert!(
            large > 1.5 * small,
            "N-1 pain (and the PLFS win) should grow with ranks: {small:.1}x -> {large:.1}x"
        );
    }
}
