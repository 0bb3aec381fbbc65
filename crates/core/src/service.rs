//! The concurrent checkpoint ingest service.
//!
//! Everything below this module is a *library*: one caller, one
//! [`Writer`] per rank, every `write_at` paying its own backend trip.
//! The paper's workload is the opposite shape — thousands of clients
//! checkpointing into one shared file at once — and the production
//! answer (ParaLog/iFast-style host-side logging) is a service that
//! absorbs parallel traffic into queues and drains them asynchronously.
//!
//! [`IngestService`] is that layer:
//!
//! - **Sharding.** Clients hash onto `shards` independent shards. Each
//!   owns its queue, its [`Writer`] (rank = shard id, its own
//!   atomically reserved session), its lock and its one drain thread —
//!   no global lock and no shared scheduler on the ingest path.
//! - **Group commit.** A shard's drain thread takes the whole queue,
//!   applies one `write_at_stamped` per logical write, then issues
//!   **one** `sync()` (the index append + flush) amortized across the
//!   batch. The fan-in — logical writes per index fsync — is the
//!   service's whole economic argument, exported as `svc.commit.fanin`.
//! - **State-driven wake-ups.** The drain thread commits when its
//!   queue holds a full batch (`batch_ops`), a [`sync`] waits on it, a
//!   producer is blocked, the service shuts down, or the oldest queued
//!   write has waited `flush_interval`. Each condition is state under
//!   the shard's lock that the thread re-checks before it sleeps, so no
//!   wake-up can be lost. The straggler deadline is the only timed
//!   wait; a shard with an empty queue sleeps until a write arrives.
//! - **Lazy drain threads.** A shard's thread is spawned by the first
//!   write the shard accepts, not by [`IngestService::start`], so
//!   starting a service costs only opening its writers, and a shard no
//!   client hashes onto never costs a thread.
//! - **Bounded backpressure.** Per-shard queues cap both ops and
//!   bytes; a full queue blocks the producer (recorded as
//!   `svc.queue.stalls` / `svc.queue.stall_ns`) instead of growing
//!   without bound.
//! - **External consistency.** Index stamps are taken from the shared
//!   instance clock at *enqueue* time, not drain time, so cross-shard
//!   overwrite resolution follows the order clients issued their
//!   writes regardless of which shard drains first.
//!
//! Durability contract (see `DESIGN.md`): a returned [`write`] is an
//! *accepted* write — queued, stamped, owed to the store. Only a
//! returned [`sync`] (or [`close`]) is a durability barrier: every
//! write accepted before it has been group-committed. After a
//! crash-stop, `fsck::repair` recovers every barriered byte; writes
//! accepted but not yet barriered may be lost (that is what the
//! barrier is *for*).
//!
//! [`write`]: IngestService::write
//! [`sync`]: IngestService::sync
//! [`close`]: IngestService::close

use crate::filesystem::Plfs;
use crate::metrics::PlfsMetrics;
use crate::write::Writer;
use obs::trace::Phase;
use obs::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning for one [`IngestService`]. Each shard gets one drain thread,
/// spawned by the first write it accepts (see the module docs).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Independent shards (one writer session and one drain thread
    /// each). Aggregate ingest bandwidth scales with this as long as
    /// the backend does.
    pub shards: usize,
    /// Per-shard queue cap in ops; a full queue blocks producers.
    pub queue_ops: usize,
    /// Per-shard queue cap in bytes. An empty queue admits any one
    /// write, so a write larger than the cap is queued alone.
    pub queue_bytes: usize,
    /// Drain a shard as soon as this many ops are queued (the
    /// batch-size half of the group-commit policy).
    pub batch_ops: usize,
    /// Drain a shard once its oldest queued write has waited this long
    /// (the flush-interval half; stragglers never wait longer than
    /// this).
    pub flush_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            queue_ops: 1024,
            queue_bytes: 8 << 20,
            batch_ops: 64,
            flush_interval: Duration::from_millis(2),
        }
    }
}

/// Cumulative service-level counters, returned by [`IngestService::close`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Writes accepted into a queue.
    pub enqueued_ops: u64,
    pub enqueued_bytes: u64,
    /// Writes made durable by a group commit.
    pub committed_ops: u64,
    /// Group commits issued (index fsyncs). Fan-in =
    /// `committed_ops / group_commits`.
    pub group_commits: u64,
    /// Producer blocks on a full queue.
    pub backpressure_stalls: u64,
    /// Total time producers spent blocked, nanoseconds.
    pub backpressure_stall_ns: u64,
}

impl ServiceStats {
    /// Mean logical writes per index fsync.
    pub fn fanin(&self) -> f64 {
        if self.group_commits == 0 {
            0.0
        } else {
            self.committed_ops as f64 / self.group_commits as f64
        }
    }
}

/// One write waiting in a shard queue.
struct QueuedWrite {
    offset: u64,
    data: Vec<u8>,
    /// Index stamp, taken from the instance clock at enqueue time.
    stamp: u64,
    /// Per-shard acceptance sequence number (1-based).
    seq: u64,
}

/// Sticky failure: the first surfaced drain/backpressure error poisons
/// its shard. `io::Error` is not `Clone`, so the kind + message are
/// kept and re-minted for every subsequent caller.
type ShardFailure = (io::ErrorKind, String);

/// Fails its shard if the drain thread unwinds (a panic in the store
/// below), waking producers and barrier waiters as a store error does:
/// no `sync` waits forever on a dead thread.
struct FailOnUnwind<'a>(&'a Shard);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let shard = self.0;
            // No panic here, mid-unwind: a store panic never holds
            // `state`, and setting `failed` is valid whatever it held.
            let mut st = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.failed = Some((io::ErrorKind::Other, "ingest drain thread panicked".into()));
            shard.space.notify_all();
            shard.done.notify_all();
        }
    }
}

#[derive(Default)]
struct ShardQueue {
    queue: VecDeque<QueuedWrite>,
    bytes: usize,
    /// When the oldest queued write was accepted; `None` while empty.
    oldest: Option<Instant>,
    /// Sequence of the last accepted write.
    enqueued_seq: u64,
    /// Sequence of the last write made durable by a group commit.
    committed_seq: u64,
    /// Sequence a [`IngestService::sync`] waits to see committed.
    barrier_seq: u64,
    /// Producers blocked on a full queue.
    blocked: usize,
    shutdown: bool,
    failed: Option<ShardFailure>,
    /// The drain thread, once the shard's first write spawned it.
    drainer: Option<JoinHandle<()>>,
}

impl ShardQueue {
    /// Would a write of `len` bytes overflow the queue caps? An empty
    /// queue admits any write: a write larger than `queue_bytes` could
    /// never fit otherwise, and the drain thread has nothing to free.
    fn full(&self, cfg: &ServiceConfig, len: usize) -> bool {
        !self.queue.is_empty()
            && (self.queue.len() >= cfg.queue_ops || self.bytes + len > cfg.queue_bytes)
    }

    /// Must the drain thread commit the queue now?
    fn due(&self, cfg: &ServiceConfig) -> bool {
        !self.queue.is_empty()
            && (self.queue.len() >= cfg.batch_ops
                || self.barrier_seq > self.committed_seq
                || self.blocked > 0
                || self.shutdown
                || self.oldest.is_some_and(|t| t.elapsed() >= cfg.flush_interval))
    }
}

struct Shard {
    state: Mutex<ShardQueue>,
    /// The drain thread waits here for its queue to become due.
    work: Condvar,
    /// Producers blocked on a full queue wait here.
    space: Condvar,
    /// Barrier waiters ([`IngestService::sync`]) wait here.
    done: Condvar,
    /// `None` once [`IngestService::close`] has consumed it.
    writer: Mutex<Option<Writer>>,
    depth: Gauge,
    depth_bytes: Gauge,
    stalls: Counter,
    commits: Counter,
    committed_ops: Counter,
}

struct Inner {
    shards: Vec<Shard>,
    metrics: Arc<PlfsMetrics>,
    cfg: ServiceConfig,
    enqueued_ops: Counter,
    enqueued_bytes: Counter,
    stall_ns: Counter,
    barriers: Counter,
    fanin: Histogram,
}

impl Inner {
    fn shard_err(failure: &ShardFailure) -> io::Error {
        io::Error::new(failure.0, failure.1.clone())
    }

    /// A shard's drain thread: sleep until the queue is due, take all
    /// of it (freeing producers at once — the batch is already bounded
    /// by the queue caps), group-commit it, repeat. Exits on shutdown
    /// once the queue is empty, or on the shard's first failure; a panic
    /// fails the shard on its way out (`FailOnUnwind`).
    fn run_drainer(&self, shard: &Shard) {
        let _unwind = FailOnUnwind(shard);
        let mut st = shard.state.lock().unwrap();
        loop {
            if st.failed.is_some() || (st.shutdown && st.queue.is_empty()) {
                return;
            }
            if !st.due(&self.cfg) {
                st = match st.oldest {
                    Some(t) => {
                        let left = self.cfg.flush_interval.saturating_sub(t.elapsed());
                        shard.work.wait_timeout(st, left).unwrap().0
                    }
                    None => shard.work.wait(st).unwrap(),
                };
                continue;
            }
            st.bytes = 0;
            st.oldest = None;
            shard.depth.set(0);
            shard.depth_bytes.set(0);
            let batch: Vec<QueuedWrite> = std::mem::take(&mut st.queue).into();
            shard.space.notify_all();
            drop(st);
            // The group commit: every write with its enqueue-time
            // stamp, then ONE sync — one index append + flush
            // amortized over the batch.
            let span = self.metrics.trace.start("svc.group_commit", Phase::Transfer, "svc", 0);
            let res = (|| {
                let mut guard = shard.writer.lock().unwrap();
                let w = guard.as_mut().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::BrokenPipe, "ingest service closed")
                })?;
                for q in &batch {
                    w.write_at_stamped(q.offset, &q.data, q.stamp)?;
                }
                w.sync()
            })();
            span.end();
            st = shard.state.lock().unwrap();
            match res {
                Ok(()) => {
                    st.committed_seq = batch.last().map_or(st.committed_seq, |q| q.seq);
                    shard.commits.inc();
                    shard.committed_ops.add(batch.len() as u64);
                    self.fanin.observe(batch.len() as u64);
                }
                Err(e) => {
                    // Sticky: the shard's writer state is unknown past
                    // the failure point, so everything after it must
                    // surface.
                    st.failed = Some((e.kind(), e.to_string()));
                    shard.space.notify_all();
                }
            }
            shard.done.notify_all();
        }
    }
}

/// A running sharded ingest service over one logical file. See the
/// module docs for the architecture and the durability contract.
pub struct IngestService {
    inner: Arc<Inner>,
}

impl IngestService {
    /// Open `shards` writers on `logical` (creating the container if
    /// needed). No thread starts here: each shard's drain thread is
    /// spawned by the first write it accepts.
    pub fn start(fs: &Plfs, logical: &str, cfg: ServiceConfig) -> io::Result<IngestService> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.queue_ops > 0 && cfg.queue_bytes > 0, "queue caps must be positive");
        assert!(cfg.batch_ops > 0, "batch size must be positive");
        let metrics = fs.metrics().clone();
        let reg = metrics.registry.clone();
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let writer = fs.open_writer(logical, s as u32)?;
            let sl = s.to_string();
            let labels: &[(&str, &str)] = &[("shard", &sl)];
            shards.push(Shard {
                state: Mutex::new(ShardQueue::default()),
                work: Condvar::new(),
                space: Condvar::new(),
                done: Condvar::new(),
                writer: Mutex::new(Some(writer)),
                depth: reg.gauge_with("svc.queue.depth", labels),
                depth_bytes: reg.gauge_with("svc.queue.depth_bytes", labels),
                stalls: reg.counter_with("svc.queue.stalls", labels),
                commits: reg.counter_with("svc.commits", labels),
                committed_ops: reg.counter_with("svc.committed_ops", labels),
            });
        }
        let inner = Arc::new(Inner {
            shards,
            metrics,
            enqueued_ops: reg.counter("svc.enqueued_ops"),
            enqueued_bytes: reg.counter("svc.enqueued_bytes"),
            stall_ns: reg.counter("svc.queue.stall_ns"),
            barriers: reg.counter("svc.sync.barriers"),
            fanin: reg.histogram("svc.commit.fanin"),
            cfg,
        });
        Ok(IngestService { inner })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Accept one write from `client`. Returns once the write is queued
    /// and stamped (a *queued ack*, not a durability guarantee — see
    /// the module docs); blocks while the client's shard queue is full.
    pub fn write(&self, client: u32, offset: u64, data: &[u8]) -> io::Result<()> {
        let inner = &self.inner;
        let idx = client as usize % inner.cfg.shards;
        let shard = &inner.shards[idx];
        let cfg = &inner.cfg;
        let mut st = shard.state.lock().unwrap();
        if st.failed.is_none() && st.full(cfg, data.len()) {
            // Backpressure: block rather than buffer without bound. A
            // blocked producer is itself a reason to drain.
            shard.stalls.inc();
            let t0 = Instant::now();
            st.blocked += 1;
            shard.work.notify_one();
            while st.failed.is_none() && st.full(cfg, data.len()) {
                st = shard.space.wait(st).unwrap();
            }
            st.blocked -= 1;
            inner.stall_ns.add(t0.elapsed().as_nanos() as u64);
        }
        if let Some(f) = &st.failed {
            return Err(Inner::shard_err(f));
        }
        if st.drainer.is_none() {
            let inner = Arc::clone(inner);
            let drainer = thread::Builder::new()
                .name(format!("plfs-ingest-{idx}"))
                .spawn(move || inner.run_drainer(&inner.shards[idx]))
                .map_err(|e| io::Error::other(format!("spawning drain thread: {e}")))?;
            st.drainer = Some(drainer);
        }
        // Stamp at enqueue: overwrite order across shards follows the
        // order clients issued writes, not the order shards drain.
        let stamp = inner.metrics.clock.stamp();
        st.enqueued_seq += 1;
        let seq = st.enqueued_seq;
        st.bytes += data.len();
        if st.queue.is_empty() {
            st.oldest = Some(Instant::now());
        }
        st.queue.push_back(QueuedWrite { offset, data: data.to_vec(), stamp, seq });
        let (depth, bytes) = (st.queue.len(), st.bytes);
        drop(st);
        shard.depth.set(depth as i64);
        shard.depth_bytes.set(bytes as i64);
        inner.enqueued_ops.inc();
        inner.enqueued_bytes.add(data.len() as u64);
        // The first write arms the straggler deadline; a full batch is
        // due now. Later writes need no wake-up: the drain thread
        // re-checks its queue before it sleeps.
        if depth == 1 || depth == cfg.batch_ops {
            shard.work.notify_one();
        }
        Ok(())
    }

    /// Durability barrier: returns once every write accepted before
    /// this call has been group-committed. An error means at least one
    /// shard failed — its un-committed accepted writes are lost.
    pub fn sync(&self) -> io::Result<()> {
        let inner = &self.inner;
        inner.barriers.inc();
        let span = inner.metrics.trace.start("svc.sync", Phase::Compute, "svc", 0);
        // Post every shard's target before waiting on any, so the
        // shards commit in parallel.
        let targets: Vec<u64> = inner
            .shards
            .iter()
            .map(|shard| {
                let mut st = shard.state.lock().unwrap();
                if st.enqueued_seq > st.committed_seq {
                    st.barrier_seq = st.enqueued_seq;
                    shard.work.notify_one();
                }
                st.enqueued_seq
            })
            .collect();
        let mut res = Ok(());
        for (shard, &target) in inner.shards.iter().zip(&targets) {
            let mut st = shard.state.lock().unwrap();
            while st.committed_seq < target && st.failed.is_none() {
                st = shard.done.wait(st).unwrap();
            }
            if let (Ok(()), Some(f)) = (&res, &st.failed) {
                res = Err(Inner::shard_err(f));
            }
        }
        span.end();
        res
    }

    /// Cumulative counters so far.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let mut commits = 0;
        let mut committed = 0;
        let mut stalls = 0;
        for s in &inner.shards {
            commits += s.commits.get();
            committed += s.committed_ops.get();
            stalls += s.stalls.get();
        }
        ServiceStats {
            enqueued_ops: inner.enqueued_ops.get(),
            enqueued_bytes: inner.enqueued_bytes.get(),
            committed_ops: committed,
            group_commits: commits,
            backpressure_stalls: stalls,
            backpressure_stall_ns: inner.stall_ns.get(),
        }
    }

    /// Final barrier, then shut down: stop the drain threads and close
    /// every shard writer (leaving meta droppings). Returns the final
    /// stats; the first barrier/close error surfaces after shutdown
    /// completes either way.
    pub fn close(self) -> io::Result<ServiceStats> {
        let mut res = self.sync();
        self.shutdown();
        for shard in &self.inner.shards {
            // A writer whose drain thread panicked mid-commit is in an
            // unknown state: leave it unclosed and surface the loss.
            let r = match shard.writer.lock() {
                Ok(mut guard) => guard.take().map_or(Ok(()), |w| w.close().map(drop)),
                Err(_) => Err(io::Error::other("ingest shard writer lost to a panic")),
            };
            if let (Ok(()), Err(e)) = (&res, r) {
                res = Err(e);
            }
        }
        res.map(|()| self.stats())
    }

    /// Tell every drain thread to commit what is queued and exit, then
    /// join them all.
    fn shutdown(&self) {
        let drainers: Vec<JoinHandle<()>> = self
            .inner
            .shards
            .iter()
            .filter_map(|shard| {
                let mut st = shard.state.lock().unwrap();
                st.shutdown = true;
                shard.work.notify_one();
                st.drainer.take()
            })
            .collect();
        for drainer in drainers {
            let _ = drainer.join();
        }
    }
}

impl Drop for IngestService {
    fn drop(&mut self) {
        // Best-effort: the drain threads commit what is queued and
        // exit; writers flush on their own Drop. Errors surface only on
        // explicit sync/close.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemBackend};
    use crate::filesystem::{Plfs, PlfsConfig};
    use obs::Registry;

    fn service_fs(reg: &Registry) -> Plfs {
        Plfs::new(
            Arc::new(MemBackend::new()) as Arc<dyn Backend>,
            PlfsConfig { hostdirs: 4, metrics: reg.clone(), ..Default::default() },
        )
    }

    #[test]
    fn roundtrip_through_service() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc =
            IngestService::start(&fs, "/ckpt", ServiceConfig { shards: 4, ..Default::default() })
                .unwrap();
        // 64 clients, rank-segmented N-1: client c owns [c*512, c*512+512).
        for c in 0..64u32 {
            svc.write(c, c as u64 * 512, &[c as u8; 512]).unwrap();
        }
        let stats = svc.close().unwrap();
        assert_eq!(stats.enqueued_ops, 64);
        assert_eq!(stats.committed_ops, 64);
        assert!(stats.group_commits >= 1);
        let data = fs.open_reader("/ckpt").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 64 * 512);
        for c in 0..64usize {
            assert!(data[c * 512..(c + 1) * 512].iter().all(|&x| x == c as u8), "client {c}");
        }
    }

    #[test]
    fn later_enqueue_wins_across_shards() {
        // Two clients on different shards overwrite the same range; the
        // enqueue-time stamp, not the drain order, must decide.
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc =
            IngestService::start(&fs, "/ow", ServiceConfig { shards: 2, ..Default::default() })
                .unwrap();
        svc.write(0, 0, &[b'a'; 64]).unwrap(); // shard 0
        svc.write(1, 16, &[b'b'; 16]).unwrap(); // shard 1, later stamp
        svc.close().unwrap();
        let data = fs.open_reader("/ow").unwrap().read_all().unwrap();
        assert_eq!(&data[..16], &[b'a'; 16][..]);
        assert_eq!(&data[16..32], &[b'b'; 16][..]);
        assert_eq!(&data[32..], &[b'a'; 32][..]);
    }

    #[test]
    fn group_commit_amortizes_index_syncs() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc = IngestService::start(
            &fs,
            "/gc",
            ServiceConfig {
                shards: 1,
                batch_ops: 1 << 30, // only the barrier drains
                flush_interval: Duration::from_secs(3600),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..256u64 {
            svc.write(0, i * 128, &[1u8; 128]).unwrap();
        }
        svc.sync().unwrap();
        let stats = svc.close().unwrap();
        assert_eq!(stats.committed_ops, 256);
        assert_eq!(stats.group_commits, 1, "one barrier, one fsync");
        assert!(stats.fanin() >= 256.0);
    }

    #[test]
    fn backpressure_blocks_instead_of_growing() {
        // The 1 h run puts the straggler timer out of reach: only state
        // wake-ups (a full batch, a blocked producer) can free the
        // producer.
        for flush_interval in [ServiceConfig::default().flush_interval, Duration::from_secs(3600)] {
            let reg = Registry::new();
            let fs = service_fs(&reg);
            let svc = IngestService::start(
                &fs,
                "/bp",
                ServiceConfig {
                    shards: 1,
                    queue_ops: 8,
                    batch_ops: 8,
                    flush_interval,
                    ..Default::default()
                },
            )
            .unwrap();
            // Far more writes than the queue holds: every one must be
            // accepted (blocking, not erroring), and the stall counter
            // must show the queue actually filled.
            for i in 0..512u64 {
                svc.write(0, i * 64, &[2u8; 64]).unwrap();
            }
            let stats = svc.close().unwrap();
            assert_eq!(stats.committed_ops, 512);
            assert!(stats.backpressure_stalls > 0, "queue of 8 never filled under 512 writes");
            assert_eq!(fs.open_reader("/bp").unwrap().read_all().unwrap().len(), 512 * 64);
        }
    }

    #[test]
    fn write_larger_than_the_byte_cap_is_admitted() {
        // A hang is the failure mode, so the body runs on its own
        // thread and the test fails when it does not finish in time.
        let (tx, rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let reg = Registry::new();
            let fs = service_fs(&reg);
            let cfg = ServiceConfig { shards: 1, queue_bytes: 1024, ..Default::default() };
            let svc = IngestService::start(&fs, "/big", cfg).unwrap();
            svc.write(0, 0, &[7u8; 2048]).unwrap();
            svc.write(0, 2048, &[8u8; 2048]).unwrap();
            let stats = svc.close().unwrap();
            let data = fs.open_reader("/big").unwrap().read_all().unwrap();
            tx.send((stats.committed_ops, data)).unwrap();
        });
        let (committed, data) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("two writes over queue_bytes did not complete in 30 s");
        body.join().unwrap();
        assert_eq!(committed, 2);
        assert_eq!(data.len(), 4096);
        assert!(data[..2048].iter().all(|&x| x == 7) && data[2048..].iter().all(|&x| x == 8));
    }

    #[test]
    fn straggler_commits_after_flush_interval_without_sync() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc = IngestService::start(
            &fs,
            "/late",
            ServiceConfig {
                shards: 1,
                batch_ops: 1 << 30,
                flush_interval: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap();
        svc.write(0, 0, &[6u8; 100]).unwrap();
        let t0 = Instant::now();
        while svc.stats().committed_ops == 0 {
            assert!(t0.elapsed() < Duration::from_secs(30), "straggler never committed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(svc.stats().group_commits, 1);
        assert_eq!(fs.open_reader("/late").unwrap().read_all().unwrap(), vec![6u8; 100]);
        svc.close().unwrap();
    }

    #[test]
    fn close_without_writes_is_ok() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc = IngestService::start(&fs, "/idle", ServiceConfig::default()).unwrap();
        let stats = svc.close().unwrap();
        assert_eq!(stats.enqueued_ops, 0);
        assert_eq!(stats.group_commits, 0);
    }

    #[test]
    fn sync_is_a_durability_barrier() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc = IngestService::start(
            &fs,
            "/bar",
            ServiceConfig {
                shards: 2,
                batch_ops: 1 << 30,
                flush_interval: Duration::from_secs(3600),
                ..Default::default()
            },
        )
        .unwrap();
        for c in 0..8u32 {
            svc.write(c, c as u64 * 256, &[3u8; 256]).unwrap();
        }
        svc.sync().unwrap();
        // Everything accepted before the barrier is now readable even
        // though the service is still open.
        let data = fs.open_reader("/bar").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 8 * 256);
        svc.close().unwrap();
    }

    #[test]
    fn shard_failure_is_sticky_and_surfaces() {
        use crate::faults::{FaultPlan, FaultyBackend};
        use crate::retry::RetryPolicy;
        let reg = Registry::new();
        let faulty = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(7)));
        let mut cfg = PlfsConfig { hostdirs: 4, metrics: reg.clone(), ..Default::default() };
        cfg.retry = RetryPolicy::none();
        let fs = Plfs::new(faulty.clone() as Arc<dyn Backend>, cfg);
        let svc =
            IngestService::start(&fs, "/crash", ServiceConfig { shards: 1, ..Default::default() })
                .unwrap();
        svc.write(0, 0, &[4u8; 128]).unwrap();
        svc.sync().unwrap();
        faulty.crash_now();
        svc.write(0, 128, &[4u8; 128]).unwrap(); // accepted into the queue
        assert!(svc.sync().is_err(), "barrier must surface the crash");
        // Sticky: later writes fail fast instead of queueing forever.
        let mut failed = false;
        for i in 2..64u64 {
            if svc.write(0, i * 128, &[4u8; 128]).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "shard failure must eventually surface on write");
        assert!(svc.close().is_err());
    }

    #[test]
    fn service_emits_per_shard_metrics() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let svc =
            IngestService::start(&fs, "/m", ServiceConfig { shards: 2, ..Default::default() })
                .unwrap();
        for c in 0..32u32 {
            svc.write(c, c as u64 * 64, &[5u8; 64]).unwrap();
        }
        svc.close().unwrap();
        assert_eq!(reg.value("svc.enqueued_ops"), Some(32));
        assert_eq!(reg.value("svc.enqueued_bytes"), Some(32 * 64));
        let committed: u64 = (0..2)
            .map(|s| {
                reg.value_with("svc.committed_ops", &[("shard", &s.to_string())])
                    .unwrap_or_else(|| panic!("missing per-shard committed_ops for shard {s}"))
            })
            .sum();
        assert_eq!(committed, 32);
        assert!(reg.histogram("svc.commit.fanin").count() >= 1);
    }

    /// A store that panics on its first append once armed.
    struct PanicOnAppend {
        below: MemBackend,
        armed: std::sync::atomic::AtomicBool,
    }

    impl crate::backend::Layer for PanicOnAppend {
        fn below(&self) -> &dyn Backend {
            &self.below
        }

        fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
            if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected store panic on append to {path}");
            }
            self.below.append(path, data)
        }
    }

    #[test]
    fn a_panicking_drain_thread_fails_sync_instead_of_hanging() {
        let store = Arc::new(PanicOnAppend { below: MemBackend::new(), armed: false.into() });
        let fs = Plfs::new(store.clone() as Arc<dyn Backend>, PlfsConfig::default());
        let cfg = ServiceConfig { shards: 1, ..Default::default() };
        let svc = Arc::new(IngestService::start(&fs, "/p", cfg).unwrap());
        store.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        for i in 0..20u64 {
            // Once the drain thread has died, writes are refused.
            let _ = svc.write(0, i * 64, &[i as u8 + 1; 64]);
        }
        // Wait on a helper thread, so a hang fails the test instead of
        // stalling it.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&svc);
        let helper = thread::spawn(move || tx.send(waiter.sync()).unwrap());
        let res = rx.recv_timeout(Duration::from_secs(5)).expect("sync still waiting after 5 s");
        assert!(res.is_err(), "a shard whose drain thread panicked must fail sync");
        helper.join().unwrap();
        let svc = Arc::into_inner(svc).expect("the helper thread has joined");
        assert!(svc.close().is_err(), "close must report the lost shard, not panic");
    }
}
