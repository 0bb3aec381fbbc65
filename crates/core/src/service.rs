//! The concurrent checkpoint ingest service.
//!
//! Everything below this module is a *library*: one caller, one
//! [`Writer`] per rank, every `write_at` paying its own backend trip.
//! The paper's workload is the opposite shape — thousands of clients
//! checkpointing into one shared file at once — and the production
//! answer (ParaLog/iFast-style host-side logging) is a service that
//! absorbs parallel traffic into per-writer logs and commits them in
//! groups.
//!
//! [`IngestService`] is that layer:
//!
//! - **Sharding.** Clients hash onto `shards` independent shards. Each
//!   owns its [`Writer`] (rank = shard id, its own atomically reserved
//!   session), its lock and its one drain thread — no global lock and
//!   no shared scheduler on the ingest path.
//! - **The writer is the queue.** A write takes its shard's lock and
//!   goes straight into the shard's writer, whose data log stages it
//!   (see [`crate::write`]): no second copy, no second queue. The
//!   writer's own thresholds (`data_buffer`, `index_flush_every`) bound
//!   the memory a shard holds, and the producer whose write crosses one
//!   lands the staged bytes itself.
//! - **Group commit.** A shard's drain thread only decides *when* to
//!   commit: it issues **one** `sync()` (the index append + flush)
//!   amortized across every write accepted since the last one. The
//!   fan-in — logical writes per index fsync — is the service's whole
//!   economic argument, exported as `svc.commit.fanin`.
//! - **State-driven wake-ups.** The drain thread commits when
//!   `batch_ops` writes are uncommitted, a [`sync`] waits on it, the
//!   service shuts down, or the oldest uncommitted write has waited
//!   `flush_interval`. Each condition is state under the shard's lock
//!   that the thread re-checks before it sleeps, so no wake-up can be
//!   lost. The straggler deadline is the only timed wait; a shard with
//!   nothing uncommitted sleeps until a write arrives.
//! - **Lazy drain threads.** A shard's thread is spawned by the first
//!   write the shard accepts, not by [`IngestService::start`], so
//!   starting a service costs only opening its writers, and a shard no
//!   client hashes onto never costs a thread.
//! - **Backpressure is the lock.** A producer that finds its shard busy
//!   (a commit, an inline flush, another producer) waits for the lock,
//!   recorded as `svc.queue.stalls` / `svc.queue.stall_ns`.
//! - **External consistency.** Index stamps are taken from the shared
//!   instance clock when a write is *accepted*, not when it commits, so
//!   cross-shard overwrite resolution follows the order clients issued
//!   their writes regardless of which shard commits first.
//!
//! Durability contract (see `DESIGN.md`): a returned [`write`] is an
//! *accepted* write — staged in its shard's writer, stamped, owed to
//! the store. Only a returned [`sync`] (or [`close`]) is a durability
//! barrier: every write accepted before it has been group-committed.
//! After a crash-stop, `fsck::repair` recovers every barriered byte;
//! writes accepted but not yet barriered may be lost (that is what the
//! barrier is *for*).
//!
//! [`write`]: IngestService::write
//! [`sync`]: IngestService::sync
//! [`close`]: IngestService::close

use crate::filesystem::Plfs;
use crate::metrics::PlfsMetrics;
use crate::write::Writer;
use obs::trace::Phase;
use obs::{Counter, Histogram};
use std::io;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, TryLockError};
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
    /// Commit a shard as soon as this many writes are uncommitted (the
    /// batch-size half of the group-commit policy).
    pub batch_ops: usize,
    /// Commit a shard once its oldest uncommitted write has waited this
    /// long (the flush-interval half; stragglers never wait longer than
    /// this).
    pub flush_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { shards: 4, batch_ops: 64, flush_interval: Duration::from_millis(2) }
    }
}

/// Cumulative service-level counters, returned by [`IngestService::close`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Writes accepted into a shard's writer.
    pub enqueued_ops: u64,
    pub enqueued_bytes: u64,
    /// Writes made durable by a group commit.
    pub committed_ops: u64,
    /// Group commits issued (index fsyncs). Fan-in =
    /// `committed_ops / group_commits`.
    pub group_commits: u64,
    /// Writes that found their shard's lock held and waited for it.
    pub backpressure_stalls: u64,
    /// Total time those writes waited, nanoseconds.
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

/// Sticky failure: the first writer error or panic poisons its shard.
/// `io::Error` is not `Clone`, so the kind + message are kept and
/// re-minted for every subsequent caller.
type ShardFailure = (io::ErrorKind, String);

/// Fails its shard if the thread holding it unwinds (a panic in the
/// store below a commit or a producer's inline flush), waking the drain
/// thread and barrier waiters as a store error does: no `sync` waits
/// forever on a shard whose writer died mid-call.
struct FailOnUnwind<'a>(&'a Shard);

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let shard = self.0;
            shard.lock().lose_writer();
            shard.work.notify_one();
            shard.done.notify_all();
        }
    }
}

#[derive(Default)]
struct ShardState {
    /// `None` once [`IngestService::close`] has consumed it.
    writer: Option<Writer>,
    /// When the oldest uncommitted write was accepted; `None` while
    /// everything accepted is committed.
    oldest: Option<Instant>,
    /// Sequence of the last accepted write (1-based).
    enqueued_seq: u64,
    /// Sequence of the last write made durable by a group commit.
    committed_seq: u64,
    /// Sequence a [`IngestService::sync`] waits to see committed.
    barrier_seq: u64,
    shutdown: bool,
    failed: Option<ShardFailure>,
    /// The drain thread, once the shard's first write spawned it.
    drainer: Option<JoinHandle<()>>,
}

impl ShardState {
    /// A thread panicked inside a writer call, so the writer's state is
    /// unknown: an index entry may be queued for bytes that never
    /// landed, or landed torn. Fail the shard and drop the writer
    /// unflushed, as a crash would, so nothing commits that entry.
    fn lose_writer(&mut self) {
        let panicked = || (io::ErrorKind::Other, "ingest shard writer panicked".into());
        self.failed.get_or_insert_with(panicked);
        if let Some(writer) = self.writer.take() {
            writer.abandon();
        }
    }

    /// Must the drain thread commit now?
    fn due(&self, cfg: &ServiceConfig) -> bool {
        let uncommitted = self.enqueued_seq - self.committed_seq;
        uncommitted > 0
            && (uncommitted >= cfg.batch_ops as u64
                || self.barrier_seq > self.committed_seq
                || self.shutdown
                || self.oldest.is_some_and(|t| t.elapsed() >= cfg.flush_interval))
    }
}

struct Shard {
    /// The writer and the commit bookkeeping; held across writer calls,
    /// so a panic below one poisons it (see [`Shard::recover`]).
    state: Mutex<ShardState>,
    /// The drain thread waits here for a commit to become due.
    work: Condvar,
    /// Barrier waiters ([`IngestService::sync`]) wait here.
    done: Condvar,
    stalls: Counter,
    commits: Counter,
    committed_ops: Counter,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        Shard::recover(self.state.lock())
    }

    /// Wait on `cv`, for at most `timeout` if one is given.
    fn wait<'a>(
        cv: &Condvar,
        st: MutexGuard<'a, ShardState>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, ShardState> {
        Shard::recover(match timeout {
            None => cv.wait(st),
            Some(t) => cv
                .wait_timeout(st, t)
                .map(|(st, _)| st)
                .map_err(|p| PoisonError::new(p.into_inner().0)),
        })
    }

    /// Every way into the state goes through here. A poisoned lock means
    /// a thread panicked inside a writer call, and `FailOnUnwind` only
    /// runs once its guard is gone: whoever takes the lock first, the
    /// drain thread or another producer, fails the shard before it can
    /// touch the writer.
    fn recover(res: LockResult<MutexGuard<'_, ShardState>>) -> MutexGuard<'_, ShardState> {
        res.unwrap_or_else(|poisoned| {
            let mut st = poisoned.into_inner();
            st.lose_writer();
            st
        })
    }
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

    fn closed() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "ingest service closed")
    }

    /// A shard's drain thread: sleep until a commit is due, then
    /// group-commit every accepted write with one `sync()`, repeat.
    /// Exits on shutdown once everything is committed, or on the
    /// shard's first failure; a panic fails the shard on its way out
    /// (`FailOnUnwind`).
    fn run_drainer(&self, shard: &Shard) {
        let _unwind = FailOnUnwind(shard);
        let mut st = shard.lock();
        loop {
            if st.failed.is_some() || (st.shutdown && st.enqueued_seq == st.committed_seq) {
                return;
            }
            if !st.due(&self.cfg) {
                let left = st.oldest.map(|t| self.cfg.flush_interval.saturating_sub(t.elapsed()));
                st = Shard::wait(&shard.work, st, left);
                continue;
            }
            // The group commit: ONE sync — one index append + flush
            // amortized over every write accepted since the last one.
            // Producers wait on the lock meanwhile.
            let target = st.enqueued_seq;
            let span = self.metrics.trace.start("svc.group_commit", Phase::Transfer, "svc", 0);
            let res = st.writer.as_mut().map_or_else(|| Err(Inner::closed()), Writer::sync);
            span.end();
            match res {
                Ok(()) => {
                    let batch = target - st.committed_seq;
                    st.committed_seq = target;
                    st.oldest = None;
                    shard.commits.inc();
                    shard.committed_ops.add(batch);
                    self.fanin.observe(batch);
                }
                // Sticky: the shard's writer state is unknown past the
                // failure point, so everything after it must surface.
                Err(e) => st.failed = Some((e.kind(), e.to_string())),
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
        assert!(cfg.batch_ops > 0, "batch size must be positive");
        let metrics = fs.metrics().clone();
        let reg = metrics.registry.clone();
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let writer = fs.open_writer(logical, s as u32)?;
            let sl = s.to_string();
            let labels: &[(&str, &str)] = &[("shard", &sl)];
            shards.push(Shard {
                state: Mutex::new(ShardState { writer: Some(writer), ..Default::default() }),
                work: Condvar::new(),
                done: Condvar::new(),
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

    /// Accept one write from `client`. Returns once the write is
    /// stamped and staged in its shard's writer (an *accepted* write,
    /// not a durability guarantee — see the module docs); waits while
    /// the shard is busy with a commit or another producer's write. A
    /// writer error fails the shard and is returned.
    pub fn write(&self, client: u32, offset: u64, data: &[u8]) -> io::Result<()> {
        let inner = &self.inner;
        let idx = client as usize % inner.cfg.shards;
        let shard = &inner.shards[idx];
        let _unwind = FailOnUnwind(shard);
        let mut st = match shard.state.try_lock() {
            Ok(st) => st,
            Err(TryLockError::Poisoned(p)) => Shard::recover(Err(p)),
            Err(TryLockError::WouldBlock) => {
                // Backpressure: the shard is busy, so wait for it.
                shard.stalls.inc();
                let t0 = Instant::now();
                let st = shard.lock();
                inner.stall_ns.add(t0.elapsed().as_nanos() as u64);
                st
            }
        };
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
        // Stamp at acceptance: overwrite order across shards follows
        // the order clients issued writes, not the order shards commit.
        let stamp = inner.metrics.clock.stamp();
        let writer = st.writer.as_mut().ok_or_else(Inner::closed)?;
        if let Err(e) = writer.write_at_stamped(offset, data, stamp) {
            st.failed = Some((e.kind(), e.to_string()));
            shard.done.notify_all();
            return Err(e);
        }
        if st.enqueued_seq == st.committed_seq {
            st.oldest = Some(Instant::now());
        }
        st.enqueued_seq += 1;
        let uncommitted = st.enqueued_seq - st.committed_seq;
        drop(st);
        inner.enqueued_ops.inc();
        inner.enqueued_bytes.add(data.len() as u64);
        // The first uncommitted write arms the straggler deadline; a
        // full batch is due now. Later writes need no wake-up: the
        // drain thread re-checks its state before it sleeps.
        if uncommitted == 1 || uncommitted == inner.cfg.batch_ops as u64 {
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
                let mut st = shard.lock();
                if st.enqueued_seq > st.committed_seq {
                    st.barrier_seq = st.enqueued_seq;
                    shard.work.notify_one();
                }
                st.enqueued_seq
            })
            .collect();
        let mut res = Ok(());
        for (shard, &target) in inner.shards.iter().zip(&targets) {
            let mut st = shard.lock();
            while st.committed_seq < target && st.failed.is_none() {
                st = Shard::wait(&shard.done, st, None);
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
            // A shard that lost its writer to a panic has none left to
            // close; its failure already failed the barrier above.
            let r = shard.lock().writer.take().map_or(Ok(()), |w| w.close().map(drop));
            if let (Ok(()), Err(e)) = (&res, r) {
                res = Err(e);
            }
        }
        res.map(|()| self.stats())
    }

    /// Tell every drain thread to commit what is accepted and exit,
    /// then join them all.
    fn shutdown(&self) {
        let drainers: Vec<JoinHandle<()>> = self
            .inner
            .shards
            .iter()
            .filter_map(|shard| {
                let mut st = shard.lock();
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
        // Best-effort: the drain threads commit what is accepted and
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
    use crate::write::WriterConfig;
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
        // acceptance-time stamp, not the commit order, must decide.
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
    fn full_batches_commit_without_the_straggler_timer() {
        // The 1 h flush interval puts the straggler timer out of reach:
        // only the full-batch wake-up and the final barrier can commit.
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let cfg =
            ServiceConfig { shards: 1, batch_ops: 8, flush_interval: Duration::from_secs(3600) };
        let svc = IngestService::start(&fs, "/bp", cfg).unwrap();
        for i in 0..8u64 {
            svc.write(0, i * 64, &[2u8; 64]).unwrap();
        }
        let t0 = Instant::now();
        while svc.stats().committed_ops < 8 {
            assert!(t0.elapsed() < Duration::from_secs(30), "a full batch never committed");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 8..512u64 {
            svc.write(0, i * 64, &[2u8; 64]).unwrap();
        }
        let stats = svc.close().unwrap();
        assert_eq!(stats.committed_ops, 512);
        assert_eq!(fs.open_reader("/bp").unwrap().read_all().unwrap().len(), 512 * 64);
    }

    #[test]
    fn write_larger_than_data_buffer_commits() {
        // A hang is the failure mode, so the body runs on its own
        // thread and the test fails when it does not finish in time.
        let big = WriterConfig::default().data_buffer + 4096;
        let (tx, rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let reg = Registry::new();
            let fs = service_fs(&reg);
            let cfg = ServiceConfig { shards: 1, ..Default::default() };
            let svc = IngestService::start(&fs, "/big", cfg).unwrap();
            svc.write(0, 0, &vec![7u8; big]).unwrap();
            svc.write(0, big as u64, &vec![8u8; big]).unwrap();
            let stats = svc.close().unwrap();
            let data = fs.open_reader("/big").unwrap().read_all().unwrap();
            tx.send((stats.committed_ops, data)).unwrap();
        });
        let (committed, data) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("two writes over data_buffer did not complete in 30 s");
        body.join().unwrap();
        assert_eq!(committed, 2);
        assert_eq!(data.len(), 2 * big);
        assert!(data[..big].iter().all(|&x| x == 7) && data[big..].iter().all(|&x| x == 8));
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
        svc.write(0, 128, &[4u8; 128]).unwrap(); // accepted: staged in the writer
        assert!(svc.sync().is_err(), "barrier must surface the crash");
        // Sticky: later writes fail fast instead of being accepted.
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

    /// `FailOnUnwind` runs only after the panicking thread's guard has
    /// poisoned the lock, so another thread can take the lock first.
    /// Poisoning the lock with no `FailOnUnwind` at all opens that gap
    /// for as long as the test likes: the drain thread (waking from its
    /// straggler wait), a producer and a barrier each find the shard
    /// failed, and the staged write's index entry never commits.
    #[test]
    fn a_thread_that_takes_a_poisoned_shard_first_fails_it() {
        let reg = Registry::new();
        let fs = service_fs(&reg);
        let cfg = ServiceConfig {
            shards: 1,
            batch_ops: 1 << 30,
            flush_interval: Duration::from_millis(100),
        };
        let svc = Arc::new(IngestService::start(&fs, "/gap", cfg).unwrap());
        svc.write(0, 0, &[1u8; 64]).unwrap();
        svc.sync().unwrap();
        // Staged, not committed: the drain thread now sleeps on the
        // straggler deadline.
        svc.write(0, 0, &[2u8; 64]).unwrap();
        let shard = &svc.inner.shards[0];
        thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = shard.state.lock().unwrap();
                panic!("injected panic while holding the shard");
            });
            assert!(poisoner.join().is_err());
        });
        // Past the deadline: the drain thread has woken to the poisoned
        // lock and must not have committed the staged write.
        thread::sleep(Duration::from_millis(300));
        assert_eq!(svc.stats().committed_ops, 1, "a poisoned shard committed");
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = Arc::clone(&svc);
        let helper = thread::spawn(move || {
            tx.send((caller.write(0, 64, &[3u8; 64]).is_err(), caller.sync().is_err())).unwrap()
        });
        let (write_failed, sync_failed) =
            rx.recv_timeout(Duration::from_secs(5)).expect("shard still busy after 5 s");
        helper.join().unwrap();
        assert!(write_failed, "a write into a poisoned shard must fail");
        assert!(sync_failed, "a barrier over a poisoned shard must fail");
        let svc = Arc::into_inner(svc).expect("the helper thread has joined");
        assert!(svc.close().is_err(), "close must report the lost shard");
        // The lost writer was dropped unflushed: only the barriered
        // bytes are visible.
        assert_eq!(fs.open_reader("/gap").unwrap().read_all().unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn a_panicking_inline_flush_fails_the_shard_instead_of_hanging() {
        let store = Arc::new(PanicOnAppend { below: MemBackend::new(), armed: false.into() });
        let fs = Plfs::new(store.clone() as Arc<dyn Backend>, PlfsConfig::default());
        let cfg = ServiceConfig { shards: 1, ..Default::default() };
        let svc = Arc::new(IngestService::start(&fs, "/p", cfg).unwrap());
        store.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        // Larger than `data_buffer`: the producer lands it itself, and
        // the store panics under that append.
        let big = vec![1u8; WriterConfig::default().data_buffer + 1];
        let first =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.write(0, 0, &big)));
        assert!(first.is_err(), "the store's panic reaches the producer");
        // Every later call runs on a helper thread, so a hang fails the
        // test instead of stalling it.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&svc);
        let helper = thread::spawn(move || {
            let writes: Vec<bool> =
                (1..4u64).map(|i| waiter.write(0, i << 24, &[2u8; 64]).is_err()).collect();
            tx.send((writes, waiter.sync().is_err())).unwrap();
        });
        let (writes, sync_failed) =
            rx.recv_timeout(Duration::from_secs(5)).expect("shard still busy after 5 s");
        helper.join().unwrap();
        assert!(writes.iter().all(|&failed| failed), "writes after the panic must fail");
        assert!(sync_failed, "a shard whose writer panicked must fail sync");
        let svc = Arc::into_inner(svc).expect("the helper thread has joined");
        assert!(svc.close().is_err(), "close must report the lost shard, not panic");
    }
}
