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
//! - **through PLFS**: the real [`Plfs`] writer runs the pattern over a
//!   length-only capture backend, and every backend call it makes —
//!   data and index appends, checksum sidecars, epoch markers,
//!   openhosts and metadata droppings, container creation and every
//!   lookup — is replayed as one simulator op. The writer's flush
//!   policy and container layout live in [`crate::write`] and
//!   [`crate::container`] alone; this module copies neither.
//!
//! The restart read-back ([`run_plfs_restart`]) is still a hand model
//! of the read engine; its docs say why.

use crate::backend::Backend;
use crate::filesystem::{Plfs, PlfsConfig};
use obs::trace::Phase;
use pfs::{Cluster, ClusterConfig, Op, PhaseReport};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// A logical-file write pattern: per-rank lists of `(offset, len)`.
pub type Pattern = Vec<Vec<(u64, u64)>>;

/// File id used for the shared logical file in direct mode.
const SHARED_FILE: u64 = 0;

/// Byte cost of one raw index record on the wire (see `index.rs`).
const INDEX_RECORD: u64 = crate::index::RAW_RECORD_BYTES as u64 + 1;

/// Every rank opens the one shared file and issues its records as
/// `io(file, offset, len)` ops.
fn run_shared(cfg: ClusterConfig, pattern: &Pattern, io: fn(u64, u64, u64) -> Op) -> PhaseReport {
    let stream = |ops: &Vec<(u64, u64)>| {
        let records = ops.iter().map(|&(offset, len)| io(SHARED_FILE, offset, len));
        std::iter::once(Op::Open(SHARED_FILE)).chain(records).collect()
    };
    Cluster::new(cfg).run_phase(&pattern.iter().map(stream).collect::<Vec<_>>())
}

/// Replay `pattern` as the application would: one shared file.
pub fn run_direct(cluster_cfg: ClusterConfig, pattern: &Pattern) -> PhaseReport {
    run_shared(cluster_cfg, pattern, |file, offset, len| Op::Write { file, offset, len })
}

/// A length-only [`Backend`] that turns each call into one `pfs` op in
/// the stream of the rank that made it: `mkdir_all`, `create` and
/// `create_new` are `Create`s, `append` is a `Write` at the file's
/// current length, and every other namespace call (`len`, `exists`,
/// `list`, `rename`, `remove`, `remove_dir_all`) is an `Open`, the
/// simulator's lookup-priced MDS op. A path takes the next file id the
/// first time an op names it, as an MDS allocates objects. It keeps
/// paths, lengths and directory names, never bytes, so `read_at` fails
/// with `Unsupported`.
type Capture = Mutex<Captured>;

#[derive(Default)]
struct Captured {
    /// The file id of every path an op has named, and its inverse.
    ids: HashMap<String, u64>,
    paths: Vec<String>,
    /// What is on the store now: a file's length, or `None` for a
    /// directory. Sorted, so `list` is too.
    live: BTreeMap<String, Option<u64>>,
    /// One op stream per rank; calls land in the last.
    streams: Vec<Vec<Op>>,
}

impl Captured {
    /// Add the op `op` makes of `path`'s file id to the current stream.
    fn push(&mut self, path: &str, op: impl FnOnce(u64) -> Op) {
        let Captured { ids, paths, .. } = self;
        let id = *ids.entry(path.to_string()).or_insert_with(|| {
            paths.push(path.to_string());
            paths.len() as u64 - 1
        });
        self.streams.last_mut().expect("a rank is capturing").push(op(id));
    }

    /// The PLFS action a captured op stands for, named after the
    /// writer's own spans.
    fn action(&self, op: Op) -> &'static str {
        let path = |id: u64| self.paths[id as usize].as_str();
        match op {
            Op::Create(id) if self.live.get(path(id)) == Some(&None) => "plfs.container_mkdir",
            Op::Create(_) => "plfs.create_dropping",
            Op::Write { file, .. } if path(file).contains("/data.") => "plfs.data_append",
            Op::Write { file, .. } if path(file).contains("/index.") => "plfs.index_append",
            Op::Write { .. } => "plfs.chk_append",
            _ => "plfs.lookup",
        }
    }
}

/// Issue `op` of `path` in the current stream and hand back the state.
fn issue<'a>(capture: &'a Capture, path: &str, op: fn(u64) -> Op) -> MutexGuard<'a, Captured> {
    let mut st = capture.lock().unwrap();
    st.push(path, op);
    st
}

impl Backend for Capture {
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        // `path` and each directory above it, but not the root.
        let ends = path.match_indices('/').map(|(i, _)| i).skip(1).chain([path.len()]);
        issue(self, path, Op::Create).live.extend(ends.map(|end| (path[..end].to_string(), None)));
        Ok(())
    }

    fn create(&self, path: &str) -> io::Result<()> {
        issue(self, path, Op::Create).live.insert(path.to_string(), Some(0));
        Ok(())
    }

    fn create_new(&self, path: &str) -> io::Result<()> {
        let mut st = issue(self, path, Op::Create);
        if st.live.contains_key(path) {
            return Err(io::ErrorKind::AlreadyExists.into());
        }
        st.live.insert(path.to_string(), Some(0));
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let st = &mut *self.lock().unwrap();
        let len = st.live.entry(path.to_string()).or_insert(Some(0));
        let offset = len.unwrap_or(0);
        *len = Some(offset + data.len() as u64);
        st.push(path, |file| Op::Write { file, offset, len: data.len() as u64 });
        Ok(offset)
    }

    fn read_at(&self, _: &str, _: u64, _: &mut [u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "the capture keeps no bytes"))
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        let st = issue(self, path, Op::Open);
        st.live.get(path).copied().flatten().ok_or_else(|| io::ErrorKind::NotFound.into())
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        let st = issue(self, dir, Op::Open);
        let under = st.live.range(prefix.clone()..).map_while(|(k, _)| k.strip_prefix(&prefix));
        Ok(under.filter(|name| !name.contains('/')).map(String::from).collect())
    }

    fn exists(&self, path: &str) -> bool {
        issue(self, path, Op::Open).live.contains_key(path)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut st = issue(self, from, Op::Open);
        let len = st.live.remove(from).ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))?;
        st.live.insert(to.to_string(), len);
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let removed = issue(self, path, Op::Open).live.remove(path);
        removed.map(drop).ok_or_else(|| io::ErrorKind::NotFound.into())
    }

    fn remove_dir_all(&self, path: &str) -> io::Result<()> {
        let prefix = format!("{}/", path.trim_end_matches('/'));
        issue(self, path, Op::Open).live.retain(|k, _| k != path && !k.starts_with(&prefix));
        Ok(())
    }
}

/// Drive the real writer (default [`PlfsConfig`], logical clock) over a
/// [`Capture`], one rank at a time, every write sliced from one shared
/// zero buffer. Rank 0's open creates the container, so its stream
/// holds that too.
fn capture(pattern: &Pattern) -> Captured {
    let capture = Arc::new(Capture::default());
    let plfs = Plfs::new(capture.clone(), PlfsConfig::default());
    let longest = pattern.iter().flatten().map(|&(_, len)| len).max().unwrap_or(0);
    let zeros = vec![0u8; longest as usize];
    let write_rank = |(rank, ops): (usize, &Vec<(u64, u64)>)| -> io::Result<()> {
        capture.lock().unwrap().streams.push(Vec::new());
        let mut w = plfs.open_writer("/ckpt", rank as u32)?;
        ops.iter().try_for_each(|&(offset, len)| w.write_at(offset, &zeros[..len as usize]))?;
        w.close().map(drop)
    };
    pattern.iter().enumerate().try_for_each(write_rank).expect("the capture fails no writer call");
    let captured = std::mem::take(&mut *capture.lock().unwrap());
    captured
}

/// Replay `pattern` as PLFS transforms it: the real writer's backend
/// calls, captured rank by rank by a length-only backend that turns each
/// call into one simulator op.
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
    let captured = capture(pattern);
    let trace = cluster_cfg.trace.clone();
    let mut cluster = Cluster::new(cluster_cfg);
    let (report, op_spans) = cluster.run_phase_traced(&captured.streams);
    if trace.enabled() {
        // Graft the PLFS layer over the cluster-level trees: one span
        // per rank, one wrapper per op naming the PLFS action, with the
        // pfs request root re-parented underneath. Wrapper intervals
        // equal the op intervals, so the tree stays well-formed and the
        // critical path flows through unchanged. Every rank's stream
        // holds at least its open, and a client's ops run back to back.
        for (rank, refs) in op_spans.iter().enumerate() {
            let track = format!("plfs.rank.{rank}");
            let (begin, end) = (refs[0].begin.0, refs[refs.len() - 1].end.0);
            let rank_span = trace.record("plfs.rank", Phase::Other, &track, begin, end, 0);
            for (r, &op) in refs.iter().zip(&captured.streams[rank]) {
                let kind = captured.action(op);
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
    run_shared(cluster_cfg, pattern, |file, offset, len| Op::Read { file, offset, len })
}

/// Replay the same restart as the PLFS read engine is meant to issue
/// it: the coalescing planner turns each rank's interleaved records into
/// a few large sequential sweeps of that rank's data dropping (chunked
/// at `coalesce_chunk`), preceded by one index-dropping fetch per rank
/// at open time. Droppings keep the stripe-1 layout of [`run_plfs`].
///
/// This is the one hand model left in this module, kept because the
/// real reader does not yet earn it. Replayed as captured, each rank's
/// `Reader::open` loads every dropping's sidecar, so R readers make R²
/// loads; a batch that straddles the end of the readahead surplus is
/// re-read whole; and a strided restart reads one record plus at most
/// [`crate::read::DEFAULT_READAHEAD`] per backend call, not
/// `coalesce_chunk` sweeps. The model also still numbers each rank's
/// droppings `1 + 2·rank` and `2 + 2·rank`, so on an even number of
/// servers every data dropping sits on the odd-numbered half.
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
        // Open-time index fetch, guessed at four raw index records.
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

    /// The file id a captured op names.
    fn file(op: Op) -> u64 {
        match op {
            Op::Create(f) | Op::Open(f) | Op::Write { file: f, .. } | Op::Read { file: f, .. } => f,
            Op::Compute(_) => panic!("the capture issues no compute"),
        }
    }

    #[test]
    fn capture_holds_the_writers_calls_rank_by_rank() {
        let pattern = strided_n1_pattern(2, 3, 47 * KIB);
        let cap = capture(&pattern);
        assert_eq!(cap.streams.len(), 2);
        for (rank, stream) in cap.streams.iter().enumerate() {
            let appends = |kind: &str| -> Vec<u64> {
                let leaf = format!("/{kind}.{rank}");
                let to_leaf = |&op: &&Op| cap.paths[file(*op) as usize].ends_with(&leaf);
                stream
                    .iter()
                    .filter(to_leaf)
                    .filter_map(|op| match *op {
                        Op::Write { len, .. } => Some(len),
                        _ => None,
                    })
                    .collect()
            };
            let want: u64 = pattern[rank].iter().map(|&(_, len)| len).sum();
            assert_eq!(appends("data").iter().sum::<u64>(), want, "rank {rank}'s data bytes");
            assert_eq!(appends("index").len(), 1, "rank {rank} flushes its index once");
            assert!(!appends("chk").is_empty() && !appends("chki").is_empty(), "sidecars");
            // Every op sits in the stream of the rank that issued it:
            // container creation is rank 0's, and any other path that
            // names a rank (droppings, `e.<session>`, `host.<rank>.*`,
            // meta `<rank>.*`; sessions follow ranks here) names this one.
            for &op in stream {
                let path = &cap.paths[file(op) as usize];
                let leaf = path.rsplit('/').next().unwrap();
                if cap.live.get(path) == Some(&None) {
                    let create = matches!(op, Op::Create(_));
                    assert!(rank == 0 || !create, "{path} created outside rank 0");
                } else if let Some(n) = leaf.split('.').find_map(|c| c.parse::<usize>().ok()) {
                    assert_eq!(n, rank, "{path} in rank {rank}'s stream");
                }
            }
        }
        assert_eq!(capture(&pattern).streams, cap.streams, "capture is deterministic");

        let c = Capture::default();
        c.lock().unwrap().streams.push(Vec::new());
        c.append("/d/b", b"xy").unwrap();
        c.create("/d/a").unwrap();
        c.mkdir_all("/d/c/e").unwrap();
        assert_eq!(c.list("/d").unwrap(), ["a", "b", "c"]);
        assert_eq!(c.len("/d/b").unwrap(), 2);
        let err = c.read_at("/d/b", 0, &mut [0; 2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn plfs_data_lands_on_every_server() {
        // Stripe-1 droppings round-robin by file id. The writer creates
        // 7 files per rank, coprime with 16, so rank r's data dropping
        // lands on its own server; a per-rank stride sharing a factor
        // with the server count would pile them onto a subset.
        let pattern = strided_n1_pattern(16, 16, 47 * KIB);
        let rep = run_plfs(ClusterConfig::lustre_like(16, MIB), &pattern);
        let written: Vec<u64> = rep.server_device.iter().map(|d| d.bytes_written).collect();
        let mean = written.iter().sum::<u64>() / written.len() as u64;
        assert!(written.iter().all(|&b| 2 * b >= mean), "per-server bytes {written:?}");
    }

    /// Not a correctness test: prints each rank's captured op counts.
    /// Run with: cargo test -p plfs --release probe_capture -- --ignored --nocapture
    #[test]
    #[ignore]
    fn probe_capture() {
        let flash = workloads::AppProfile::by_name("FLASH-IO").unwrap();
        let cap = capture(&flash.pattern(256));
        let mut counts = std::collections::BTreeMap::<&str, (u64, u64)>::new();
        for stream in &cap.streams {
            for &op in stream {
                let c = counts.entry(cap.action(op)).or_default();
                c.0 += 1;
                if let Op::Write { len, .. } = op {
                    c.1 += len;
                }
            }
        }
        let ranks = cap.streams.len() as f64;
        for (kind, (n, bytes)) in counts {
            println!("{kind:22} {n:6} ops ({:.2}/rank) {bytes:12} B", n as f64 / ranks);
        }
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
