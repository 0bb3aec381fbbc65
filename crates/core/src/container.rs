//! PLFS container layout.
//!
//! A PLFS "file" is secretly a directory (the *container*) on the
//! backing store. Inside it:
//!
//! ```text
//! checkpoint1/                 <- logical file name
//!   access                     <- marker: this directory is a container
//!   openhosts/                 <- one dropping per open writer session
//!   meta/                      <- per-writer summaries written on close
//!   hostdir.0/                 <- data+index droppings, spread over
//!   hostdir.1/                    subdirs to dodge directory hotspots
//!     data.<rank>              <- that rank's write log (append-only)
//!     index.<rank>             <- that rank's index log (append-only)
//! ```
//!
//! `hostdir` spreading mirrors the original PLFS: backends whose
//! directories serialize concurrent creates (most parallel file
//! systems) see the container's per-rank file creates fan out over
//! several subdirectories.

use crate::backend::Backend;
use std::io;

/// Marker file name inside every container.
pub const ACCESS: &str = "access";
/// Flattened-index cache file name (see [`crate::canonical`]).
pub const CANONICAL: &str = "canonical.index";
/// Subdirectory holding open-session droppings.
pub const OPENHOSTS: &str = "openhosts";
/// Subdirectory holding close-time metadata droppings.
pub const META: &str = "meta";
/// Subdirectory holding session-reservation markers (see
/// [`reserve_session`]). The markers form a *monotone* session ledger:
/// the highest marker never goes backwards, so a recovered container
/// can never re-issue an epoch older droppings already stamped.
/// [`compact_epoch_ledger`] (run by `fsck::repair`) collapses the
/// ledger to its single high-water marker, which carries the same
/// monotone guarantee on its own.
pub const EPOCHS: &str = "epochs";

/// Static naming helpers for a container rooted at `base`.
#[derive(Debug, Clone)]
pub struct ContainerPaths {
    base: String,
    hostdirs: u32,
}

impl ContainerPaths {
    pub fn new(base: &str, hostdirs: u32) -> Self {
        assert!(hostdirs > 0, "need at least one hostdir");
        ContainerPaths { base: base.trim_end_matches('/').to_string(), hostdirs }
    }

    pub fn base(&self) -> &str {
        &self.base
    }

    pub fn hostdir_count(&self) -> u32 {
        self.hostdirs
    }

    pub fn access(&self) -> String {
        format!("{}/{ACCESS}", self.base)
    }

    pub fn openhosts_dir(&self) -> String {
        format!("{}/{OPENHOSTS}", self.base)
    }

    pub fn meta_dir(&self) -> String {
        format!("{}/{META}", self.base)
    }

    pub fn epochs_dir(&self) -> String {
        format!("{}/{EPOCHS}", self.base)
    }

    /// Reservation marker for session number `n`.
    pub fn epoch_marker(&self, n: u64) -> String {
        format!("{}/e.{n}", self.epochs_dir())
    }

    pub fn hostdir(&self, rank: u32) -> String {
        format!("{}/hostdir.{}", self.base, rank % self.hostdirs)
    }

    pub fn data_dropping(&self, rank: u32) -> String {
        format!("{}/data.{rank}", self.hostdir(rank))
    }

    pub fn index_dropping(&self, rank: u32) -> String {
        format!("{}/index.{rank}", self.hostdir(rank))
    }

    /// Checksum sidecar covering the rank's data dropping (see
    /// [`crate::checksum`]). The `chk.` prefix collides with neither
    /// the `index.` scan in [`discover_droppings`] nor the `data.`
    /// scans in `fsck`, so legacy tooling skips it cleanly.
    pub fn chk_dropping(&self, rank: u32) -> String {
        format!("{}/chk.{rank}", self.hostdir(rank))
    }

    /// Checksum sidecar covering the rank's index dropping.
    pub fn index_chk_dropping(&self, rank: u32) -> String {
        format!("{}/chki.{rank}", self.hostdir(rank))
    }

    pub fn open_dropping(&self, rank: u32, session: u64) -> String {
        format!("{}/host.{rank}.{session}", self.openhosts_dir())
    }

    pub fn meta_dropping(&self, rank: u32, eof: u64, bytes: u64, max_ts: u64) -> String {
        format!("{}/{rank}.{eof}.{bytes}.{max_ts}", self.meta_dir())
    }

    /// The flattened-index cache. Lives at the container root, outside
    /// the `hostdir.*` subtrees, so [`discover_droppings`] never
    /// mistakes it for a writer's dropping.
    pub fn canonical_index(&self) -> String {
        format!("{}/{CANONICAL}", self.base)
    }
}

/// Summary parsed back out of a metadata dropping's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaDropping {
    pub rank: u32,
    pub eof: u64,
    pub bytes: u64,
    pub max_ts: u64,
}

impl MetaDropping {
    pub fn parse(name: &str) -> Option<Self> {
        let mut it = name.split('.');
        let rank = it.next()?.parse().ok()?;
        let eof = it.next()?.parse().ok()?;
        let bytes = it.next()?.parse().ok()?;
        let max_ts = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(MetaDropping { rank, eof, bytes, max_ts })
    }
}

/// Create a fresh container (idempotent).
pub fn create_container(backend: &dyn Backend, paths: &ContainerPaths) -> io::Result<()> {
    backend.mkdir_all(paths.base())?;
    backend.mkdir_all(&paths.openhosts_dir())?;
    backend.mkdir_all(&paths.meta_dir())?;
    backend.mkdir_all(&paths.epochs_dir())?;
    for h in 0..paths.hostdir_count() {
        backend.mkdir_all(&format!("{}/hostdir.{h}", paths.base()))?;
    }
    if !backend.exists(&paths.access()) {
        backend.create(&paths.access())?;
    }
    Ok(())
}

/// Is `base` a PLFS container?
pub fn is_container(backend: &dyn Backend, base: &str) -> bool {
    backend.exists(&format!("{}/{ACCESS}", base.trim_end_matches('/')))
}

/// Every file in every `hostdir.*` subdirectory of the container, as
/// `(dir, name)` pairs in listing order.
pub fn hostdir_files(
    backend: &dyn Backend,
    paths: &ContainerPaths,
) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for entry in backend.list(paths.base())? {
        if entry.starts_with("hostdir.") {
            let dir = format!("{}/{entry}", paths.base());
            out.extend(backend.list(&dir)?.into_iter().map(|name| (dir.clone(), name)));
        }
    }
    Ok(out)
}

/// The rank of a dropping named `<kind>.<rank>` (`data.3` → 3 for
/// kind `data`), or `None` for any other name.
pub fn dropping_rank(name: &str, kind: &str) -> Option<u32> {
    name.strip_prefix(kind)?.strip_prefix('.')?.parse().ok()
}

/// Enumerate `(rank, index_path, data_path)` for every writer that left
/// droppings in the container.
pub fn discover_droppings(
    backend: &dyn Backend,
    paths: &ContainerPaths,
) -> io::Result<Vec<(u32, String, String)>> {
    Ok(droppings_in(&hostdir_files(backend, paths)?))
}

/// [`discover_droppings`] over a [`hostdir_files`] listing already in
/// hand: one entry per index dropping, by rank.
pub(crate) fn droppings_in(files: &[(String, String)]) -> Vec<(u32, String, String)> {
    let mut out: Vec<_> = files
        .iter()
        .filter_map(|(dir, name)| {
            let rank = dropping_rank(name, "index")?;
            Some((rank, format!("{dir}/{name}"), format!("{dir}/data.{rank}")))
        })
        .collect();
    out.sort_by_key(|(r, _, _)| *r);
    out
}

/// Read all metadata droppings.
pub fn read_meta(backend: &dyn Backend, paths: &ContainerPaths) -> io::Result<Vec<MetaDropping>> {
    let mut out = Vec::new();
    if let Ok(names) = backend.list(&paths.meta_dir()) {
        for n in names {
            if let Some(m) = MetaDropping::parse(&n) {
                out.push(m);
            }
        }
    }
    out.sort_by_key(|m| m.rank);
    Ok(out)
}

/// The session number an `epochs/e.<n>` marker name reserves.
fn marker(name: &str) -> Option<u64> {
    name.strip_prefix("e.")?.parse().ok()
}

/// Highest session number ever reserved, or `None` for a container
/// never opened for write.
fn max_reserved(backend: &dyn Backend, paths: &ContainerPaths) -> io::Result<Option<u64>> {
    Ok(backend.list(&paths.epochs_dir())?.iter().filter_map(|n| marker(n)).max())
}

/// Atomically reserve the next session number via a CAS loop over
/// persistent marker files (`epochs/e.<n>`, created with the backend's
/// exclusive-create primitive). Of any number of concurrent callers,
/// each gets a distinct session: the marker is reserved *before* the
/// caller computes its stamp-epoch floor, which is what makes minted
/// epochs disjoint even between concurrent openers.
///
/// The *highest* marker is never removed, so the ledger is monotone
/// across crash/repair cycles: a recovered container can never
/// re-issue an epoch that older droppings already stamped. Markers
/// *below* the high water may be compacted away at any time by
/// [`compact_epoch_ledger`]; the post-win validation below is what
/// keeps that safe against a reserver holding a stale watermark.
pub fn reserve_session(backend: &dyn Backend, paths: &ContainerPaths) -> io::Result<u64> {
    let mut next = epoch_watermark(backend, paths);
    loop {
        match backend.create_new(&paths.epoch_marker(next)) {
            Ok(()) => {
                // Validate against ledger compaction: if any marker
                // *above* `next` exists, the slot we just won may be a
                // compacted-away session being resurrected (our
                // watermark snapshot predates it). The high-water
                // marker itself is never removed while a higher one
                // does not exist, so "no marker above `next`" proves
                // `next` really is the new maximum. Release the
                // suspect slot and retry above the observed ceiling.
                let ceiling = max_reserved(backend, paths)?.unwrap_or(next);
                if ceiling > next {
                    // Best-effort release; a concurrent compactor may
                    // already have swept the suspect marker.
                    match backend.remove(&paths.epoch_marker(next)) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e),
                    }
                    next = ceiling + 1;
                } else {
                    return Ok(next);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                // Lost the race for `next`; someone reserved it first.
                next += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Compact the session-reservation ledger to its single high-water
/// marker, returning `(removed, high_water)` when anything was swept.
///
/// The ledger grows one `epochs/e.<n>` marker per writer session; only
/// the *maximum* carries information (it is the epoch watermark), so
/// everything below it is garbage. Compaction keeps the maximum and
/// removes the rest, which preserves the monotone-across-crash
/// guarantee: [`epoch_watermark`] depends only on the max, and the max
/// never decreases — compaction keeps it, and a reserver only releases
/// a marker it just created when a *higher* one exists (see
/// [`reserve_session`]).
///
/// Safe against concurrent reservers: a reserver holding a stale
/// watermark can win `create_new` on a slot compaction just vacated,
/// but its post-win validation sees the surviving high-water marker
/// above it and releases the slot, so no epoch is ever minted twice.
/// `NotFound` during the sweep just means another compactor got there
/// first and is ignored.
pub fn compact_epoch_ledger(
    backend: &dyn Backend,
    paths: &ContainerPaths,
) -> io::Result<Option<(usize, u64)>> {
    let names = match backend.list(&paths.epochs_dir()) {
        Ok(names) => names,
        // No ledger directory (not a container): nothing to compact.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let reserved: Vec<u64> = names.iter().filter_map(|n| marker(n)).collect();
    let Some(&high_water) = reserved.iter().max() else {
        return Ok(None);
    };
    let mut removed = 0usize;
    for n in reserved {
        if n == high_water {
            continue;
        }
        match backend.remove(&paths.epoch_marker(n)) {
            Ok(()) => removed += 1,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    if removed == 0 {
        Ok(None)
    } else {
        Ok(Some((removed, high_water)))
    }
}

/// One past the highest session ever reserved (0 before the first) —
/// the freshness stamp readers compare against (see
/// [`crate::canonical`]). Monotone: it never moves backwards when
/// sessions close, when repair clears stale open droppings, or when
/// [`compact_epoch_ledger`] sweeps the markers below the high water.
pub fn epoch_watermark(backend: &dyn Backend, paths: &ContainerPaths) -> u64 {
    max_reserved(backend, paths).ok().flatten().map_or(0, |hi| hi + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn create_then_detect() {
        let b = MemBackend::new();
        let p = ContainerPaths::new("/ckpt/step1", 4);
        create_container(&b, &p).unwrap();
        assert!(is_container(&b, "/ckpt/step1"));
        assert!(!is_container(&b, "/ckpt/step2"));
        // Idempotent.
        create_container(&b, &p).unwrap();
    }

    #[test]
    fn hostdir_spreading_is_stable() {
        let p = ContainerPaths::new("/f", 4);
        assert_eq!(p.data_dropping(0), "/f/hostdir.0/data.0");
        assert_eq!(p.data_dropping(5), "/f/hostdir.1/data.5");
        assert_eq!(p.index_dropping(5), "/f/hostdir.1/index.5");
    }

    #[test]
    fn discover_finds_all_writers() {
        let b = MemBackend::new();
        let p = ContainerPaths::new("/f", 3);
        create_container(&b, &p).unwrap();
        for rank in [0u32, 1, 2, 7, 9] {
            b.append(&p.index_dropping(rank), b"i").unwrap();
            b.append(&p.data_dropping(rank), b"d").unwrap();
        }
        let found = discover_droppings(&b, &p).unwrap();
        let ranks: Vec<u32> = found.iter().map(|(r, _, _)| *r).collect();
        assert_eq!(ranks, vec![0, 1, 2, 7, 9]);
        for (rank, idx, data) in &found {
            assert!(idx.contains(&format!("index.{rank}")));
            assert!(data.contains(&format!("data.{rank}")));
        }
    }

    #[test]
    fn meta_dropping_roundtrip() {
        let m = MetaDropping::parse("12.1048576.524288.99").unwrap();
        assert_eq!(m, MetaDropping { rank: 12, eof: 1048576, bytes: 524288, max_ts: 99 });
        assert!(MetaDropping::parse("garbage").is_none());
        assert!(MetaDropping::parse("1.2.3.4.5").is_none());
    }

    #[test]
    fn reserve_session_is_sequential_and_monotone() {
        let b = MemBackend::new();
        let p = ContainerPaths::new("/f", 2);
        create_container(&b, &p).unwrap();
        // Only markers count: open and meta droppings do not.
        b.create(&p.meta_dropping(0, 10, 10, 5)).unwrap();
        assert_eq!(epoch_watermark(&b, &p), 0);
        assert_eq!(reserve_session(&b, &p).unwrap(), 0);
        assert_eq!(reserve_session(&b, &p).unwrap(), 1);
        assert_eq!(epoch_watermark(&b, &p), 2);
        // Session 1 mid-close holds its open and its meta dropping at
        // once, and still counts once.
        b.create(&p.open_dropping(1, 1)).unwrap();
        b.create(&p.meta_dropping(1, 20, 10, 6)).unwrap();
        assert_eq!(epoch_watermark(&b, &p), 2);
        // The watermark survives clearing the open droppings (what
        // fsck repair does after a crash): the marker ledger holds it.
        b.remove(&p.open_dropping(1, 1)).unwrap();
        assert_eq!(epoch_watermark(&b, &p), 2, "the marker ledger survives");
        assert_eq!(reserve_session(&b, &p).unwrap(), 2);
    }

    /// The CAS under a real race: concurrent reservations must come out
    /// pairwise distinct.
    #[test]
    fn concurrent_reservations_are_disjoint() {
        use std::sync::Arc;
        let b = Arc::new(MemBackend::new());
        let p = ContainerPaths::new("/f", 2);
        create_container(b.as_ref(), &p).unwrap();
        let mut handles = Vec::new();
        for _ in 0..16 {
            let b = Arc::clone(&b);
            let p = p.clone();
            handles.push(std::thread::spawn(move || reserve_session(b.as_ref(), &p).unwrap()));
        }
        let mut got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        got.dedup();
        // A reserver that loses to a higher marker jumps above the
        // ceiling, so the epochs may leave gaps; they never repeat.
        assert_eq!(got.len(), 16, "16 reservations, pairwise distinct: {got:?}");
    }

    #[test]
    fn compaction_keeps_high_water_and_watermark() {
        let b = MemBackend::new();
        let p = ContainerPaths::new("/f", 2);
        create_container(&b, &p).unwrap();
        for _ in 0..5 {
            reserve_session(&b, &p).unwrap();
        }
        assert_eq!(epoch_watermark(&b, &p), 5);
        let (removed, high) = compact_epoch_ledger(&b, &p).unwrap().expect("swept");
        assert_eq!((removed, high), (4, 4));
        assert_eq!(
            b.list(&p.epochs_dir()).unwrap(),
            vec!["e.4".to_string()],
            "only the high-water marker survives"
        );
        assert_eq!(epoch_watermark(&b, &p), 5, "watermark unchanged by compaction");
        // The next session continues the monotone sequence.
        assert_eq!(reserve_session(&b, &p).unwrap(), 5);
        // Idempotent: a single-marker ledger has nothing to sweep.
        compact_epoch_ledger(&b, &p).unwrap();
        assert_eq!(compact_epoch_ledger(&b, &p).unwrap(), None);
    }

    #[test]
    fn compaction_on_empty_or_missing_ledger_is_noop() {
        let b = MemBackend::new();
        let p = ContainerPaths::new("/f", 2);
        assert_eq!(compact_epoch_ledger(&b, &p).unwrap(), None);
        create_container(&b, &p).unwrap();
        assert_eq!(compact_epoch_ledger(&b, &p).unwrap(), None);
    }

    /// Regression: compaction racing `reserve_session` must never mint
    /// a duplicate epoch. The dangerous interleaving is a reserver with
    /// a stale watermark winning `create_new` on a slot compaction just
    /// vacated; the post-win validation must make it release and retry.
    #[test]
    fn compaction_racing_reservation_never_mints_duplicates() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let b = Arc::new(MemBackend::new());
        let p = ContainerPaths::new("/f", 2);
        create_container(b.as_ref(), &p).unwrap();
        // Seed a ledger with history so compaction has work immediately.
        for _ in 0..4 {
            reserve_session(b.as_ref(), &p).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let compactor = {
            let (b, p, stop) = (Arc::clone(&b), p.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    compact_epoch_ledger(b.as_ref(), &p).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (b, p) = (Arc::clone(&b), p.clone());
            handles.push(std::thread::spawn(move || {
                (0..25).map(|_| reserve_session(b.as_ref(), &p).unwrap()).collect::<Vec<u64>>()
            }));
        }
        let mut got: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        compactor.join().unwrap();
        let minted = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), minted, "a session epoch was minted twice");
        assert!(got.iter().all(|&e| e >= 4), "pre-seeded epochs re-issued");
    }
}
