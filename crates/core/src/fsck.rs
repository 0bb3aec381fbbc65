//! Container integrity checking (`plfs_check` in the original tools).
//!
//! A PLFS container is many independent droppings; partial writes,
//! truncated logs, or lost index records after a crash show up as
//! specific, locally-detectable inconsistencies. Every check here starts
//! from one **survey** of the container, which reads it once: one walk
//! of the hostdirs, the `openhosts` listing, and per rank the index
//! dropping (read once, then decoded as far as its records go and as
//! far as its data dropping backs them), the data dropping's length and
//! both checksum sidecars (through `Sidecar::load`), plus the
//! flattened-index cache (through `canonical::load`, the loader the
//! reader uses too). Each recovery rule is decided in one place, on the
//! survey:
//!
//! - *the index is torn*: bytes past the index dropping's decodable
//!   prefix (`Rank::torn`, with the decoder's reason);
//! - *an extent dangles*: an entry ends past its data dropping
//!   (`dangles`), or a pattern record maps entries past it (counted as
//!   one finding per record, never expanded);
//! - *a tail is orphaned*: data bytes past every indexed extent
//!   (`Rank::orphaned`);
//! - *data has no index*: a data dropping whose rank left no index
//!   dropping (`Survey::unindexed`);
//! - *a session is stale*: an `openhosts` dropping (`Survey::open`);
//! - *the cache is stale*: `canonical::load` finds it undecodable or
//!   stale.
//!
//! [`fsck`] reports the survey. [`scrub`] surveys each rank on its own
//! worker, then checksum-walks what the rank's sidecars cover. [`repair`] fixes what the survey found: its
//! passes apply to the survey behind its `before` report, keeping its
//! lengths current as they cut, instead of re-reading the container
//! and deciding each rule again. It surveys again only when its opt-in
//! pass 0 cut a dropping, and its `after` report is a fresh [`fsck`].
//! A length the survey cannot measure is an error, never "0 bytes":
//! only `NotFound` means empty.
//!
//! Repair preserves the crash-recovery invariant: **every write
//! acknowledged (synced) before the crash reads back byte-for-byte
//! afterwards**. The writer flushes data before index, so a torn index
//! tail or an unindexed data tail always belongs to writes that were
//! never acked — truncating them is safe.

use crate::backend::Backend;
use crate::canonical::{self, Loaded};
use crate::checksum::{Sidecar, CHK_HEADER_BYTES};
use crate::container::{
    compact_epoch_ledger, dropping_rank, droppings_in, hostdir_files, is_container, ContainerPaths,
};
use crate::index::{decode_backed, encode_raw, Backing, Dangling, IndexEntry};
use crate::pool;
use crate::retry::len_or_zero_once;
use std::collections::{HashMap, HashSet};
use std::io;
use std::ops::ControlFlow;

/// One detected problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckError {
    NotAContainer,
    /// Index dropping failed to decode (offset of failure unknown —
    /// the tail after the last good record is unreadable).
    CorruptIndex {
        rank: u32,
        detail: String,
    },
    /// An index entry points outside its data dropping.
    DanglingExtent {
        rank: u32,
        physical_end: u64,
        data_len: u64,
    },
    /// Data bytes beyond anything the index references.
    OrphanedData {
        rank: u32,
        orphaned_bytes: u64,
    },
    /// A data dropping exists with no index dropping at all.
    MissingIndex {
        rank: u32,
    },
    /// An openhosts dropping from a session that never closed.
    StaleOpenSession {
        name: String,
    },
    /// The flattened-index cache no longer matches the droppings (or is
    /// undecodable). Not fatal: readers ignore a bad cache and rebuild,
    /// but `repair` removes it.
    StaleCanonicalIndex {
        detail: String,
    },
}

/// The full report.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    pub writers: usize,
    pub entries: usize,
    pub logical_eof: u64,
    pub errors: Vec<FsckError>,
    /// Per rank: dropping bytes (data + index) not covered by a
    /// checksum sidecar — a sidecar `repair` removed, or a crash before
    /// the sidecar flush. Informational, never an error:
    /// uncovered bytes read fine, they just can't be verified. Use
    /// [`scrub`] to checksum-walk what *is* covered.
    pub uncovered: Vec<(u32, u64)>,
}

impl FsckReport {
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Errors that make some logical bytes unreadable (vs. cosmetic).
    pub fn fatal_count(&self) -> usize {
        self.errors
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FsckError::NotAContainer
                        | FsckError::CorruptIndex { .. }
                        | FsckError::DanglingExtent { .. }
                        | FsckError::MissingIndex { .. }
                )
            })
            .count()
    }
}

// ---------------------------------------------------------------- survey

/// A data or index dropping and its checksum sidecar, as surveyed.
struct Dropping {
    path: String,
    /// Its length (`NotFound` is 0); `repair` keeps it current.
    len: u64,
    sidecar_path: String,
    sidecar: Sidecar,
}

impl Dropping {
    /// `repair` cut or grew the dropping to `len` bytes.
    fn set_len(&mut self, len: u64) {
        self.len = len;
        if let Sidecar::Parsed(cov) = &mut self.sidecar {
            cov.len = len;
        }
    }

    /// Bytes no sidecar entry covers: all of them when the sidecar is
    /// absent or unparseable.
    fn uncovered(&self) -> u64 {
        match &self.sidecar {
            Sidecar::Parsed(cov) => cov.uncovered(),
            _ => self.len,
        }
    }
}

/// One rank's droppings, as surveyed.
struct Rank {
    rank: u32,
    /// The entries of the index dropping's decodable prefix, each
    /// pattern record cut to the entries its data backs...
    entries: Vec<IndexEntry>,
    /// ...what pattern records of that prefix map past the data...
    dangling: Vec<Dangling>,
    /// ...which is its first `consumed` bytes.
    consumed: u64,
    /// Why the bytes past `consumed` do not decode: the index is torn.
    torn: Option<String>,
    data: Dropping,
    index: Dropping,
}

fn physical_end(e: &IndexEntry) -> u64 {
    e.physical_offset + e.length
}

/// An extent dangles when it ends past its data dropping: the index
/// record landed, the data it points at did not.
fn dangles(e: &IndexEntry, data_len: u64) -> bool {
    physical_end(e) > data_len
}

impl Rank {
    /// Survey one rank: its index dropping read once and decoded, its
    /// data dropping measured, both sidecars loaded.
    fn load(
        backend: &dyn Backend,
        paths: &ContainerPaths,
        (rank, index_path, data_path): (u32, String, String),
    ) -> io::Result<Rank> {
        let dropping = |path: String, len, sidecar_path: String| {
            let sidecar = Sidecar::load(backend, &path, &sidecar_path)?;
            Ok::<_, io::Error>(Dropping { path, len, sidecar_path, sidecar })
        };
        let blob = backend.read_all(&index_path)?;
        let data_len = len_or_zero_once(backend, &data_path)?;
        let decoded = decode_backed(&blob, Backing::Data(data_len));
        Ok(Rank {
            rank,
            entries: decoded.entries,
            dangling: decoded.dangling,
            consumed: decoded.consumed as u64,
            torn: decoded.torn.map(|e| e.to_string()),
            data: dropping(data_path, data_len, paths.chk_dropping(rank))?,
            index: dropping(index_path, blob.len() as u64, paths.index_chk_dropping(rank))?,
        })
    }

    /// Data bytes past every indexed extent: an unindexed tail.
    fn orphaned(&self) -> Option<u64> {
        let ends = self.entries.iter().map(physical_end);
        let highest = ends.chain(self.dangling.iter().map(|d| d.physical_end)).max().unwrap_or(0);
        self.data.len.checked_sub(highest).filter(|&n| n > 0)
    }
}

/// One read of a container (see the module docs).
struct Survey {
    /// Every hostdir file, in listing order.
    files: Vec<(String, String)>,
    /// `openhosts` droppings: sessions that never closed.
    open: Vec<String>,
    /// Every rank that left an index dropping, by rank.
    ranks: Vec<Rank>,
    /// Data droppings whose rank left no index dropping, in listing
    /// order.
    unindexed: Vec<(u32, String)>,
    canonical: Loaded,
}

impl Survey {
    fn take(backend: &dyn Backend, paths: &ContainerPaths) -> io::Result<Survey> {
        let open = backend.list(&paths.openhosts_dir()).unwrap_or_default();
        let files = hostdir_files(backend, paths)?;
        let ranks = droppings_in(&files)
            .into_iter()
            .map(|d| Rank::load(backend, paths, d))
            .collect::<io::Result<Vec<Rank>>>()?;
        let unindexed = files
            .iter()
            .filter_map(|(dir, name)| {
                let rank = dropping_rank(name, "data")?;
                let indexed = ranks.binary_search_by_key(&rank, |r| r.rank).is_ok();
                (!indexed).then(|| (rank, format!("{dir}/{name}")))
            })
            .collect();
        let canonical = canonical::load(backend, paths);
        Ok(Survey { files, open, ranks, unindexed, canonical })
    }

    /// The [`fsck`] report: every rule's findings.
    fn report(&self) -> FsckReport {
        let mut report = FsckReport { writers: self.ranks.len(), ..Default::default() };
        let errors = &mut report.errors;
        errors.extend(
            self.open.iter().map(|name| FsckError::StaleOpenSession { name: name.clone() }),
        );
        for r in &self.ranks {
            let (rank, data_len) = (r.rank, r.data.len);
            if let Some(detail) = &r.torn {
                errors.push(FsckError::CorruptIndex { rank, detail: detail.clone() });
                continue;
            }
            report.entries += r.entries.len();
            for e in &r.entries {
                report.logical_eof = report.logical_eof.max(e.logical_offset + e.length);
                if dangles(e, data_len) {
                    let physical_end = physical_end(e);
                    errors.push(FsckError::DanglingExtent { rank, physical_end, data_len });
                }
            }
            for d in &r.dangling {
                report.entries += d.entries as usize;
                report.logical_eof = report.logical_eof.max(d.logical_end);
                let physical_end = d.physical_end;
                errors.push(FsckError::DanglingExtent { rank, physical_end, data_len });
            }
            if let Some(orphaned_bytes) = r.orphaned() {
                errors.push(FsckError::OrphanedData { rank, orphaned_bytes });
            }
            let uncovered = r.data.uncovered() + r.index.uncovered();
            if uncovered > 0 {
                report.uncovered.push((rank, uncovered));
            }
        }
        errors.extend(self.unindexed.iter().map(|&(rank, _)| FsckError::MissingIndex { rank }));
        if let Loaded::Undecodable(detail) | Loaded::Stale(detail) = &self.canonical {
            errors.push(FsckError::StaleCanonicalIndex { detail: detail.clone() });
        }
        report
    }
}

fn not_a_container() -> FsckReport {
    FsckReport { errors: vec![FsckError::NotAContainer], ..Default::default() }
}

/// Check a container.
pub fn fsck(backend: &dyn Backend, logical: &str, hostdirs: u32) -> io::Result<FsckReport> {
    if !is_container(backend, logical) {
        return Ok(not_a_container());
    }
    Ok(Survey::take(backend, &ContainerPaths::new(logical, hostdirs))?.report())
}

// ----------------------------------------------------------------- scrub

/// One corrupt region [`scrub`] found. `path` is the file whose bytes
/// can't be trusted: the covered dropping for a checksum mismatch, the
/// sidecar itself when it is unparseable or claims coverage past EOF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    pub rank: u32,
    pub path: String,
    pub offset: u64,
    pub len: u64,
}

/// What a full-container checksum walk found.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    pub ranks: usize,
    /// Checksum blocks walked (data + index droppings).
    pub checked_blocks: u64,
    /// Bytes those blocks cover.
    pub checked_bytes: u64,
    pub findings: Vec<ScrubFinding>,
    /// Per rank: bytes no sidecar covers (same as [`FsckReport`]).
    pub uncovered: Vec<(u32, u64)>,
    /// `canonical.index` exists but fails its content checksum /
    /// decode. Not load-bearing (readers rebuild), but worth surfacing:
    /// it is the only corruption the cache's own CRC can see.
    pub canonical_corrupt: bool,
}

impl ScrubReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && !self.canonical_corrupt
    }
}

/// Per-rank scrub accumulator.
#[derive(Default)]
struct RankScrub {
    blocks: u64,
    bytes: u64,
    uncovered: u64,
    findings: Vec<ScrubFinding>,
}

impl Dropping {
    /// Checksum-walk what the sidecar covers, appending findings.
    fn scrub(&self, backend: &dyn Backend, rank: u32, out: &mut RankScrub) -> io::Result<()> {
        let finding =
            |path: &str, offset, len| ScrubFinding { rank, path: path.into(), offset, len };
        out.uncovered += self.uncovered();
        if let Sidecar::Unparseable { len, .. } = &self.sidecar {
            out.findings.push(finding(&self.sidecar_path, 0, *len));
        }
        let Sidecar::Parsed(cov) = &self.sidecar else { return Ok(()) };
        cov.walk(backend, &self.path, |_, r, ok| {
            out.blocks += 1;
            out.bytes += r.end - r.start;
            if !ok {
                out.findings.push(finding(&self.path, r.start, r.end - r.start));
            }
            ControlFlow::<()>::Continue(())
        })?;
        if let Some(k) = cov.overclaim() {
            // The sidecar claims coverage of bytes that don't exist: the
            // sidecar (not the dropping) is the corrupt artifact.
            let offset = (CHK_HEADER_BYTES + 4 * k) as u64;
            let len = 4 * (cov.crcs.len() - k) as u64;
            out.findings.push(finding(&self.sidecar_path, offset, len));
        }
        Ok(())
    }
}

/// Full-container checksum walk: verify every sidecar-covered block of
/// every data and index dropping, one bounded worker per rank (same
/// pool the read engine fans out on). Unlike verify-on-read, which only
/// checks blocks a read touches, scrub proves (or indicts) the whole
/// container — run it periodically to catch latent sector rot before a
/// restart depends on the bytes.
pub fn scrub(backend: &dyn Backend, logical: &str, hostdirs: u32) -> io::Result<ScrubReport> {
    if !is_container(backend, logical) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{logical}: not a PLFS container"),
        ));
    }
    let paths = ContainerPaths::new(logical, hostdirs);
    let droppings = droppings_in(&hostdir_files(backend, &paths)?);
    // Each worker surveys its rank, then walks what the sidecars cover.
    let cap = pool::available_parallelism();
    let (results, _) = pool::run_bounded(droppings.len(), cap, |i| {
        let r = Rank::load(backend, &paths, droppings[i].clone())?;
        let mut out = RankScrub::default();
        r.data.scrub(backend, r.rank, &mut out)?;
        r.index.scrub(backend, r.rank, &mut out)?;
        Ok::<(u32, RankScrub), io::Error>((r.rank, out))
    });

    let mut report = ScrubReport {
        ranks: droppings.len(),
        canonical_corrupt: matches!(canonical::load(backend, &paths), Loaded::Undecodable(_)),
        ..Default::default()
    };
    for r in results {
        let (rank, out) = r?;
        report.checked_blocks += out.blocks;
        report.checked_bytes += out.bytes;
        report.findings.extend(out.findings);
        if out.uncovered > 0 {
            report.uncovered.push((rank, out.uncovered));
        }
    }
    report.uncovered.sort_unstable();
    Ok(report)
}

// ---------------------------------------------------------------- repair

/// Repair knobs.
#[derive(Debug, Clone, Default)]
pub struct RepairOptions {
    /// Instead of discarding orphaned (unindexed) data bytes,
    /// synthesize index entries that expose them at the end of the
    /// logical file. Their original logical offsets are unknowable —
    /// this is forensic salvage, off by default.
    pub salvage_orphans: bool,
    /// Scrub each dropping first and truncate it at its first
    /// checksum-mismatched block, salvaging the verified prefix and
    /// letting the later passes drop the index entries that pointed
    /// into the cut tail. Destructive (corrupt bytes might still be
    /// wanted forensically), off by default.
    pub truncate_corrupt_tails: bool,
}

/// One mutation `repair` performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairAction {
    /// Cut an undecodable tail off an index dropping (a torn index
    /// flush from an unacked sync).
    TruncatedIndexTail { rank: u32, dropped_bytes: u64 },
    /// Dropped index entries pointing past the end of their data
    /// dropping (index flushed, data never fully landed — unacked).
    TrimmedDanglingExtents { rank: u32, dropped_entries: usize },
    /// Cut unindexed bytes off the end of a data dropping (a torn data
    /// flush from an unacked sync).
    TruncatedOrphanTail { rank: u32, dropped_bytes: u64 },
    /// Removed a data dropping that had no index dropping at all.
    RemovedUnindexedData { rank: u32 },
    /// Synthesized an index entry exposing orphaned bytes at the end of
    /// the logical file (salvage mode).
    SalvagedOrphan { rank: u32, bytes: u64, logical_offset: u64 },
    /// Removed an openhosts dropping left by a session that died.
    ClearedStaleSession { name: String },
    /// Removed a flattened-index cache that was stale, undecodable, or
    /// invalidated by the repairs above (rewriting a dropping silently
    /// breaks any cached merge of it).
    DroppedStaleCanonical,
    /// Cut a dropping at its first checksum-mismatched block
    /// ([`RepairOptions::truncate_corrupt_tails`]); the verified prefix
    /// survives, later passes reconcile the index.
    TruncatedCorruptTail { rank: u32, dropped_bytes: u64 },
    /// Removed a checksum sidecar that was unparseable, orphaned (its
    /// covered dropping is gone), or invalidated wholesale by a rewrite
    /// of the covered file. CRCs are never recomputed from bytes repair
    /// can't vouch for — the dropping reads as "uncovered" until the
    /// next writer session rebuilds its sidecar.
    RemovedChecksumSidecar { rank: u32 },
    /// Dropped sidecar entries that no longer match the covered file
    /// (coverage past EOF after a truncation, or a torn trailing
    /// partial entry).
    TrimmedChecksumTail { rank: u32, dropped_entries: usize },
    /// Swept a stale `<path>.repair` scratch file left by a repair that
    /// crashed between staging a rewrite and the atomic rename that
    /// commits it. The target file itself is untouched (the crash
    /// happened before the commit), so the staged bytes are garbage.
    RemovedRepairTemp { path: String },
    /// Compacted the session-reservation ledger (`epochs/e.N`) to its
    /// single high-water marker; the markers below it carried no
    /// information (see [`compact_epoch_ledger`]).
    CompactedEpochLedger { removed: usize, high_water: u64 },
}

/// What `repair` found and did.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Container state before repair.
    pub before: FsckReport,
    /// Container state after repair (clean unless the container was
    /// unrecognizable).
    pub after: FsckReport,
    pub actions: Vec<RepairAction>,
}

/// Suffix of the scratch file crash-safe rewrites stage into before
/// the atomic rename. The suffix keeps temps invisible to dropping
/// discovery (the rank no longer parses), and repair sweeps any the
/// previous crashed repair left behind.
pub(crate) const REPAIR_TEMP_SUFFIX: &str = ".repair";

/// Crash-safely replace `path` with `contents`: stage the new bytes in
/// `<path>.repair`, then commit with one atomic [`Backend::rename`]. A
/// crash at any byte leaves `path` holding either its old contents or
/// the new ones — never a torn mix, and never *gone* the way the old
/// read–remove–re-append rewrite could lose it between the remove and
/// the re-append. The worst a crash leaves is a stale temp, which the
/// next repair sweeps.
fn replace_file_atomic(backend: &dyn Backend, path: &str, contents: &[u8]) -> io::Result<()> {
    let tmp = format!("{path}{REPAIR_TEMP_SUFFIX}");
    backend.create(&tmp)?;
    if !contents.is_empty() {
        backend.append(&tmp, contents)?;
    }
    backend.rename(&tmp, path)
}

/// Rewrite `path` keeping only its first `keep` bytes. The [`Backend`]
/// trait has no truncate, so this stages the surviving prefix and
/// commits it via [`replace_file_atomic`]; droppings are small relative
/// to the data they index, and crash repair is not a hot path.
fn truncate_file(backend: &dyn Backend, path: &str, keep: u64) -> io::Result<()> {
    let data = backend.read_all(path)?;
    if keep as usize >= data.len() {
        return Ok(());
    }
    replace_file_atomic(backend, path, &data[..keep as usize])
}

/// Reconcile one checksum sidecar, `loaded` as it stands after the
/// repair passes rewrote droppings. Entries are only ever *dropped* —
/// recomputing a CRC from bytes repair can't vouch for would launder
/// corruption into "verified". `modified` says the covered file was
/// rewritten this run: then the boundary partial-block entry (a
/// close-time tail CRC) is dropped too, since the tail it hashed may
/// not be the tail that survived.
fn reconcile_sidecar(
    backend: &dyn Backend,
    rank: u32,
    (covered, sidecar): (&str, &str),
    loaded: &Sidecar,
    modified: bool,
    actions: &mut Vec<RepairAction>,
) -> io::Result<()> {
    let remove = |actions: &mut Vec<RepairAction>| {
        backend.remove(sidecar)?;
        actions.push(RepairAction::RemovedChecksumSidecar { rank });
        Ok(())
    };
    let cov = match loaded {
        Sidecar::Absent => return Ok(()),
        Sidecar::Parsed(cov) if backend.exists(covered) => cov,
        // Unparseable, or its covered file is gone.
        _ => return remove(actions),
    };
    // Full blocks always stay; so does an untouched file's own
    // close-time tail CRC, unless entries past EOF follow it.
    let n = cov.crcs.len();
    let full_blocks = (cov.len / cov.block) as usize;
    let keep = if modified || cov.overclaim().is_some() { n.min(full_blocks) } else { n };
    if keep == n && !cov.torn {
        return Ok(()); // consistent, no torn trailing bytes either
    }
    if keep == 0 {
        return remove(actions);
    }
    truncate_file(backend, sidecar, (CHK_HEADER_BYTES + 4 * keep) as u64)?;
    actions.push(RepairAction::TrimmedChecksumTail { rank, dropped_entries: n - keep });
    Ok(())
}

/// Repair a crashed container in place, fixing what its survey found
/// (see the module docs).
///
/// Fix order matters — each step can only expose problems a later step
/// handles:
///
/// 0. (opt-in) truncate droppings at their first checksum-mismatched
///    block — the cut tail becomes torn/dangling state for 1–3;
/// 1. truncate torn index tails to the last fully-decodable record;
/// 2. drop index entries whose extents dangle past their data dropping
///    (rewriting that index dropping);
/// 3. truncate (or, in salvage mode, index) unindexed data tails;
/// 4. remove (or salvage) data droppings that have no index dropping;
/// 5. clear stale `openhosts` sessions, then reconcile checksum
///    sidecars with whatever the passes above rewrote (entries are
///    only dropped, never recomputed).
///
/// Everything removed was, by the writer's data-before-index flush
/// ordering, never acknowledged; acked bytes survive verbatim.
pub fn repair(
    backend: &dyn Backend,
    logical: &str,
    hostdirs: u32,
    opts: &RepairOptions,
) -> io::Result<RepairReport> {
    if !is_container(backend, logical) {
        // Nothing we can do without a container skeleton.
        let before = not_a_container();
        return Ok(RepairReport { after: before.clone(), before, actions: Vec::new() });
    }
    let paths = ContainerPaths::new(logical, hostdirs);
    let mut s = Survey::take(backend, &paths)?;
    let before = s.report();
    let mut actions = Vec::new();

    // Which ranks' data/index files this run rewrites — their sidecars'
    // close-time tail CRCs are reconciled at the end — and which index
    // droppings it re-encodes wholesale.
    let (mut data_mod, mut index_mod) = (HashSet::new(), HashSet::new());
    let mut index_rewritten = HashSet::new();

    // Pass 0 (opt-in): salvage the verified prefix of corrupt
    // droppings. Cutting at the first bad block turns silent corruption
    // into the torn-tail / dangling-extent shapes passes 1–3 already
    // repair, so the cut container is surveyed again.
    if opts.truncate_corrupt_tails {
        for r in &s.ranks {
            for (d, modified) in [(&r.data, &mut data_mod), (&r.index, &mut index_mod)] {
                let Sidecar::Parsed(cov) = &d.sidecar else { continue };
                let first_bad = cov.walk(backend, &d.path, |_, b, ok| match ok {
                    true => ControlFlow::Continue(()),
                    false => ControlFlow::Break(b.start),
                })?;
                if let Some(first_bad) = first_bad {
                    truncate_file(backend, &d.path, first_bad)?;
                    modified.insert(r.rank);
                    actions.push(RepairAction::TruncatedCorruptTail {
                        rank: r.rank,
                        dropped_bytes: d.len - first_bad,
                    });
                }
            }
        }
        if !actions.is_empty() {
            s = Survey::take(backend, &paths)?;
        }
    }

    // Passes 1–2 per rank; the surviving entries place salvaged
    // orphans past the global logical EOF.
    let (mut logical_eof, mut max_ts) = (0u64, 0u64);
    for r in &mut s.ranks {
        let rank = r.rank;
        if r.torn.is_some() {
            truncate_file(backend, &r.index.path, r.consumed)?;
            let dropped_bytes = r.index.len - r.consumed;
            actions.push(RepairAction::TruncatedIndexTail { rank, dropped_bytes });
            r.index.set_len(r.consumed);
            index_mod.insert(rank);
        }
        let (n, data_len) = (r.entries.len(), r.data.len);
        r.entries.retain(|e| !dangles(e, data_len));
        let unbacked: u64 = r.dangling.drain(..).map(|d| d.entries).sum();
        if r.entries.len() < n || unbacked > 0 {
            replace_file_atomic(backend, &r.index.path, &encode_raw(&r.entries))?;
            let dropped_entries = n - r.entries.len() + unbacked as usize;
            actions.push(RepairAction::TrimmedDanglingExtents { rank, dropped_entries });
            index_rewritten.insert(rank);
        }
        for e in &r.entries {
            logical_eof = logical_eof.max(e.logical_offset + e.length);
            max_ts = max_ts.max(e.timestamp);
        }
    }
    // Salvage mode's index record for orphaned bytes. Its rank's index
    // grows (the tail CRC goes stale) and bytes past the data sidecar's
    // close-time coverage become live (the data tail CRC hashed a
    // shorter tail than now exists), so both count as rewritten.
    let salvaged = |writer, length, physical_offset, logical_offset| {
        let timestamp = max_ts + 1;
        encode_raw(&[IndexEntry { logical_offset, length, physical_offset, writer, timestamp }])
    };

    // Pass 3: orphaned data tails.
    for r in &mut s.ranks {
        let Some(bytes) = r.orphaned() else { continue };
        let (rank, highest) = (r.rank, r.data.len - bytes);
        if opts.salvage_orphans {
            let record = salvaged(rank, bytes, highest, logical_eof);
            backend.append(&r.index.path, &record)?;
            r.index.set_len(r.index.len + record.len() as u64);
            index_mod.insert(rank);
            actions.push(RepairAction::SalvagedOrphan { rank, bytes, logical_offset: logical_eof });
            logical_eof += bytes;
        } else {
            truncate_file(backend, &r.data.path, highest)?;
            r.data.set_len(highest);
            actions.push(RepairAction::TruncatedOrphanTail { rank, dropped_bytes: bytes });
        }
        data_mod.insert(rank);
    }

    // Pass 4: data droppings with no index dropping at all.
    for &(rank, ref data_path) in &s.unindexed {
        let bytes = if opts.salvage_orphans { len_or_zero_once(backend, data_path)? } else { 0 };
        if bytes > 0 {
            backend.append(&paths.index_dropping(rank), &salvaged(rank, bytes, 0, logical_eof))?;
            actions.push(RepairAction::SalvagedOrphan { rank, bytes, logical_offset: logical_eof });
            logical_eof += bytes;
            index_mod.insert(rank);
            data_mod.insert(rank);
        } else {
            backend.remove(data_path)?;
            actions.push(RepairAction::RemovedUnindexedData { rank });
        }
    }

    // Pass 5: sessions that never closed.
    for name in &s.open {
        backend.remove(&format!("{}/{name}", paths.openhosts_dir()))?;
        actions.push(RepairAction::ClearedStaleSession { name: name.clone() });
    }

    // Sidecar reconciliation. Prefix-preserving truncations invalidate
    // at most the close-time tail CRC (`*_mod`); a wholesale index
    // re-encode invalidates every `chki` block, so that sidecar is
    // removed outright. A surveyed sidecar still says what it covers
    // (the passes kept its covered length current); any other one is
    // loaded here.
    let surveyed: HashMap<&str, &Dropping> = s
        .ranks
        .iter()
        .flat_map(|r| [&r.data, &r.index])
        .map(|d| (d.sidecar_path.as_str(), d))
        .collect();
    for (dir, name) in &s.files {
        let (rank, covered, modified, rewritten) = if let Some(r) = dropping_rank(name, "chki") {
            (r, format!("{dir}/index.{r}"), index_mod.contains(&r), index_rewritten.contains(&r))
        } else if let Some(r) = dropping_rank(name, "chk") {
            (r, format!("{dir}/data.{r}"), data_mod.contains(&r), false)
        } else {
            continue;
        };
        let sidecar = format!("{dir}/{name}");
        if rewritten {
            backend.remove(&sidecar)?;
            actions.push(RepairAction::RemovedChecksumSidecar { rank });
            continue;
        }
        let unsurveyed;
        let loaded = match surveyed.get(sidecar.as_str()).filter(|d| d.path == covered) {
            Some(d) => &d.sidecar,
            None => {
                unsurveyed = Sidecar::load(backend, &covered, &sidecar)?;
                &unsurveyed
            }
        };
        reconcile_sidecar(backend, rank, (&covered, &sidecar), loaded, modified, &mut actions)?;
    }

    // Pass 6: the flattened-index cache. Runs last because the passes
    // above rewrite droppings and change the session count — both
    // silently invalidate a cached merge. An already-stale or
    // undecodable cache goes too; a fresh one on an untouched
    // container is kept (with no action taken, the survey's verdict
    // still holds).
    let fresh = matches!(s.canonical, Loaded::Fresh(..));
    if !matches!(s.canonical, Loaded::Absent) && (!actions.is_empty() || !fresh) {
        backend.remove(&paths.canonical_index())?;
        actions.push(RepairAction::DroppedStaleCanonical);
    }

    // Housekeeping runs after the canonical decision: neither action
    // below touches anything a cached merge covers, so they must not
    // count as "droppings changed" and drop a fresh cache.
    //
    // Sweep stale `.repair` scratch files left by a repair that crashed
    // between staging a rewrite and the rename that commits it. This
    // run's own temps are already gone (the rename consumed them), so
    // anything still here is from the crash; its target either got
    // re-repaired above or never needed the staged bytes.
    for (dir, name) in &s.files {
        let path = format!("{dir}/{name}");
        if name.ends_with(REPAIR_TEMP_SUFFIX) && backend.exists(&path) {
            backend.remove(&path)?;
            actions.push(RepairAction::RemovedRepairTemp { path });
        }
    }

    // Compact the session-reservation ledger to its high-water marker
    // so it stops growing one file per session forever. Safe against
    // concurrent reservers — see `container::compact_epoch_ledger`.
    if let Some((removed, high_water)) = compact_epoch_ledger(backend, &paths)? {
        actions.push(RepairAction::CompactedEpochLedger { removed, high_water });
    }

    let after = fsck(backend, logical, hostdirs)?;
    Ok(RepairReport { before, after, actions })
}

// ------------------------------------------------------ chunk-pool fsck

/// Orphan-chunk GC for containers stored through a
/// [`crate::chunk::ChunkBackend`]: mark every digest referenced by a
/// complete manifest record under `roots`, sweep every pool blob that
/// is not. Pass every container root that shares the pool. See
/// [`crate::chunk::ChunkBackend::gc`] for the safety argument (blobs
/// land before the records that reference them, so anything
/// unreferenced is provably unacknowledged).
pub fn gc_chunks(
    chunked: &crate::chunk::ChunkBackend,
    roots: &[&str],
) -> io::Result<crate::chunk::GcReport> {
    chunked.gc(roots)
}

/// Scrub the shared chunk pool on a bounded worker pool: every blob's
/// header, plaintext CRC, and digest-vs-filename are verified. The
/// chunk-layer analogue of [`scrub`] (which walks the *container*
/// sidecars above this layer).
pub fn scrub_chunks(
    chunked: &crate::chunk::ChunkBackend,
) -> io::Result<crate::chunk::ChunkScrubReport> {
    chunked.scrub_pool()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::canonical::CanonicalIndex;
    use crate::filesystem::{Plfs, PlfsConfig};
    use std::sync::Arc;

    fn setup() -> (Plfs, Arc<MemBackend>) {
        let b = Arc::new(MemBackend::new());
        let fs = Plfs::new(
            b.clone() as Arc<dyn Backend>,
            PlfsConfig { hostdirs: 4, ..Default::default() },
        );
        (fs, b)
    }

    /// Test store layer: counts the calls that reach the store below,
    /// and can fail the `n`th `len` of one path with a transient error.
    struct Probe {
        below: Arc<MemBackend>,
        counts: std::sync::Mutex<Counts>,
    }

    #[derive(Default)]
    struct Counts {
        /// Calls forwarded besides `len` and `read_at`.
        forwarded: u64,
        len: u64,
        read_at: u64,
        /// `read_at` calls per index dropping.
        index_reads: std::collections::BTreeMap<String, u64>,
        /// `(path, n)`: the `n`th `len` of `path` from now times out.
        fail_len: Option<(String, u64)>,
    }

    impl Probe {
        fn over(below: &Arc<MemBackend>) -> Arc<Probe> {
            Arc::new(Probe { below: below.clone(), counts: Default::default() })
        }
    }

    impl crate::backend::Layer for Probe {
        fn below(&self) -> &dyn Backend {
            self.below.as_ref()
        }

        fn call<T>(&self, mut op: impl FnMut(&dyn Backend) -> io::Result<T>) -> io::Result<T> {
            self.counts.lock().unwrap().forwarded += 1;
            op(self.below.as_ref())
        }

        fn len(&self, path: &str) -> io::Result<u64> {
            let mut c = self.counts.lock().unwrap();
            c.len += 1;
            let hit = match &mut c.fail_len {
                Some((p, n)) if p == path => {
                    *n -= 1;
                    *n == 0
                }
                _ => false,
            };
            if hit {
                c.fail_len = None;
                return Err(io::Error::new(io::ErrorKind::TimedOut, "injected len timeout"));
            }
            self.below.len(path)
        }

        fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
            let mut c = self.counts.lock().unwrap();
            c.read_at += 1;
            if path.rsplit('/').next().is_some_and(|name| name.starts_with("index.")) {
                *c.index_reads.entry(path.to_string()).or_default() += 1;
            }
            self.below.read_at(path, off, buf)
        }
    }

    fn healthy(fs: &Plfs) {
        for rank in 0..3 {
            let mut w = fs.open_writer("/f", rank).unwrap();
            w.write_at(rank as u64 * 1000, &[rank as u8; 1000]).unwrap();
            w.close().unwrap();
        }
    }

    #[test]
    fn clean_container_passes() {
        let (fs, b) = setup();
        healthy(&fs);
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.is_clean(), "{:?}", rep.errors);
        assert_eq!(rep.writers, 3);
        assert_eq!(rep.entries, 3);
        assert_eq!(rep.logical_eof, 3000);
    }

    #[test]
    fn not_a_container_detected() {
        let (_, b) = setup();
        let rep = fsck(b.as_ref(), "/nope", 4).unwrap();
        assert_eq!(rep.errors, vec![FsckError::NotAContainer]);
        assert_eq!(rep.fatal_count(), 1);
    }

    #[test]
    fn truncated_index_detected() {
        let (fs, b) = setup();
        healthy(&fs);
        // Chop the last byte off rank 1's index dropping.
        let p = crate::container::ContainerPaths::new("/f", 4).index_dropping(1);
        let blob = b.read_all(&p).unwrap();
        b.remove(&p).unwrap();
        b.append(&p, &blob[..blob.len() - 1]).unwrap();
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.errors.iter().any(|e| matches!(e, FsckError::CorruptIndex { rank: 1, .. })));
        assert!(rep.fatal_count() >= 1);
    }

    #[test]
    fn truncated_data_is_a_dangling_extent() {
        let (fs, b) = setup();
        healthy(&fs);
        let p = crate::container::ContainerPaths::new("/f", 4).data_dropping(2);
        let blob = b.read_all(&p).unwrap();
        b.remove(&p).unwrap();
        b.append(&p, &blob[..500]).unwrap();
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::DanglingExtent { rank: 2, data_len: 500, .. })));
    }

    #[test]
    fn unindexed_tail_is_orphaned_data() {
        let (fs, b) = setup();
        healthy(&fs);
        let p = crate::container::ContainerPaths::new("/f", 4).data_dropping(0);
        b.append(&p, &[0u8; 77]).unwrap();
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep
            .errors
            .iter()
            .any(|e| matches!(e, FsckError::OrphanedData { rank: 0, orphaned_bytes: 77 })));
        // Orphans are not fatal: the logical file still reads.
        assert_eq!(rep.fatal_count(), 0);
    }

    #[test]
    fn data_without_index_detected() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        b.append(&paths.data_dropping(9), b"lost").unwrap();
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.errors.contains(&FsckError::MissingIndex { rank: 9 }));
    }

    #[test]
    fn crashed_session_leaves_stale_openhosts() {
        let (fs, b) = setup();
        let mut w = fs.open_writer("/f", 0).unwrap();
        w.write_at(0, &[1; 10]).unwrap();
        w.sync().unwrap();
        std::mem::forget(w); // simulate a crash: no close, no cleanup
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.errors.iter().any(|e| matches!(e, FsckError::StaleOpenSession { .. })));
        assert_eq!(rep.fatal_count(), 0, "data is all indexed, just unclosed");
    }

    // ------------------------------------------------------------ repair

    #[test]
    fn repair_on_clean_container_is_a_noop() {
        let (fs, b) = setup();
        healthy(&fs);
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep.before.is_clean());
        assert!(rep.after.is_clean());
        // The only mutation on a clean container is ledger
        // housekeeping: `healthy` ran three writer sessions, leaving
        // three epoch markers to compact down to the high-water one.
        assert_eq!(
            rep.actions,
            vec![RepairAction::CompactedEpochLedger { removed: 2, high_water: 2 }]
        );
        // With the ledger compacted, repair is a true no-op.
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep.actions.is_empty(), "{:?}", rep.actions);
    }

    #[test]
    fn repair_sweeps_stale_repair_temps() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        // A repair that crashed between staging and the atomic rename
        // leaves `<path>.repair` behind.
        let tmp = format!("{}{}", paths.index_dropping(1), REPAIR_TEMP_SUFFIX);
        b.append(&tmp, b"staged-but-never-committed").unwrap();
        // Invisible to fsck (the suffixed rank no longer parses)...
        assert!(fsck(b.as_ref(), "/f", 4).unwrap().is_clean());
        // ...and swept by repair, with acked data untouched.
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::RemovedRepairTemp { path } if path == &tmp)));
        assert!(!b.exists(&tmp));
        assert_eq!(fs.open_reader("/f").unwrap().read_all().unwrap().len(), 3000);
    }

    #[test]
    fn repair_truncates_torn_index_tail() {
        let (fs, b) = setup();
        healthy(&fs);
        let p = crate::container::ContainerPaths::new("/f", 4).index_dropping(1);
        let blob = b.read_all(&p).unwrap();
        b.remove(&p).unwrap();
        // Whole index + 3 bytes of a torn next record.
        b.append(&p, &blob).unwrap();
        b.append(&p, &[1, 0, 0]).unwrap();
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep
            .actions
            .contains(&RepairAction::TruncatedIndexTail { rank: 1, dropped_bytes: 3 }));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        // Acked data still reads back.
        let data = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 3000);
        assert!(data[1000..2000].iter().all(|&x| x == 1));
    }

    #[test]
    fn repair_trims_dangling_extents_and_orphan_tails() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        // Rank 2's data dropping lost its second half.
        let dp = paths.data_dropping(2);
        let blob = b.read_all(&dp).unwrap();
        b.remove(&dp).unwrap();
        b.append(&dp, &blob[..500]).unwrap();
        // Rank 0's data dropping grew an unindexed tail.
        b.append(&paths.data_dropping(0), &[9u8; 33]).unwrap();
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep
            .actions
            .contains(&RepairAction::TrimmedDanglingExtents { rank: 2, dropped_entries: 1 }));
        assert!(rep
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::TruncatedOrphanTail { rank: 0, .. })));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        // Rank 2's partially-landed write is gone; rank 0/1 survive.
        let data = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 2000);
        assert!(data[..1000].iter().all(|&x| x == 0));
        assert!(data[1000..].iter().all(|&x| x == 1));
    }

    #[test]
    fn repair_removes_unindexed_data_and_stale_sessions() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        b.append(&paths.data_dropping(9), b"lost").unwrap();
        b.create(&paths.open_dropping(5, 3)).unwrap();
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep.actions.contains(&RepairAction::RemovedUnindexedData { rank: 9 }));
        assert!(rep.actions.iter().any(|a| matches!(a, RepairAction::ClearedStaleSession { .. })));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        assert!(!b.exists(&paths.data_dropping(9)));
    }

    #[test]
    fn repair_salvage_mode_keeps_orphan_bytes_readable() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        b.append(&paths.data_dropping(0), &[7u8; 50]).unwrap();
        b.append(&paths.data_dropping(9), &[8u8; 20]).unwrap();
        let rep = repair(
            b.as_ref(),
            "/f",
            4,
            &RepairOptions { salvage_orphans: true, ..Default::default() },
        )
        .unwrap();
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        assert_eq!(
            rep.actions.iter().filter(|a| matches!(a, RepairAction::SalvagedOrphan { .. })).count(),
            2
        );
        // Salvaged bytes appear past the original EOF, original data intact.
        let data = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 3000 + 50 + 20);
        assert!(data[2000..3000].iter().all(|&x| x == 2));
        assert_eq!(data[3000..3050], [7u8; 50][..]);
        assert_eq!(data[3050..], [8u8; 20][..]);
    }

    #[test]
    fn corrupt_canonical_reported_and_repair_drops_it() {
        let (fs, b) = setup();
        healthy(&fs);
        // A read-open persists the flattened-index cache...
        let _ = fs.open_reader("/f").unwrap();
        let paths = crate::container::ContainerPaths::new("/f", 4);
        assert!(b.exists(&paths.canonical_index()));
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.is_clean(), "fresh cache is not an error: {:?}", rep.errors);
        // ...which trailing junk turns into detectable corruption.
        b.append(&paths.canonical_index(), &[0xFF]).unwrap();
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.errors.iter().any(|e| matches!(e, FsckError::StaleCanonicalIndex { .. })));
        assert_eq!(rep.fatal_count(), 0, "the cache is never load-bearing");
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep.actions.contains(&RepairAction::DroppedStaleCanonical));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        assert!(!b.exists(&paths.canonical_index()));
    }

    #[test]
    fn repair_keeps_fresh_canonical_but_drops_it_when_droppings_change() {
        let (fs, b) = setup();
        healthy(&fs);
        let _ = fs.open_reader("/f").unwrap();
        let paths = crate::container::ContainerPaths::new("/f", 4);
        // Clean container, fresh cache: repair must not touch it —
        // ledger housekeeping runs after the canonical decision
        // precisely so it doesn't count as "droppings changed".
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(
            rep.actions.iter().all(|a| matches!(a, RepairAction::CompactedEpochLedger { .. })),
            "{:?}",
            rep.actions
        );
        assert!(b.exists(&paths.canonical_index()), "housekeeping must not drop a fresh cache");
        // An orphaned data tail leaves the index droppings untouched, so
        // the cache still looks fresh — but repair rewrites the data
        // dropping, so the cache must go with it.
        b.append(&paths.data_dropping(0), &[9u8; 21]).unwrap();
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::TruncatedOrphanTail { rank: 0, .. })));
        assert!(rep.actions.contains(&RepairAction::DroppedStaleCanonical));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        assert!(!b.exists(&paths.canonical_index()));
    }

    #[test]
    fn repair_not_a_container_reports_without_touching() {
        let (_, b) = setup();
        let rep = repair(b.as_ref(), "/nope", 4, &RepairOptions::default()).unwrap();
        assert_eq!(rep.after.errors, vec![FsckError::NotAContainer]);
        assert!(rep.actions.is_empty());
    }

    // ------------------------------------------------------------- scrub

    fn flip_byte(b: &MemBackend, path: &str, offset: usize, mask: u8) {
        let mut blob = b.read_all(path).unwrap();
        blob[offset] ^= mask;
        b.remove(path).unwrap();
        b.create(path).unwrap();
        b.append(path, &blob).unwrap();
    }

    #[test]
    fn scrub_clean_container_finds_nothing() {
        let (fs, b) = setup();
        healthy(&fs);
        let rep = scrub(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.is_clean(), "{:?}", rep.findings);
        assert_eq!(rep.ranks, 3);
        assert!(rep.uncovered.is_empty(), "{:?}", rep.uncovered);
        // 3 ranks × (one 1000-byte data block + one index block).
        assert_eq!(rep.checked_blocks, 6);
        assert!(rep.checked_bytes > 3000);
        assert!(!rep.canonical_corrupt);
    }

    #[test]
    fn scrub_finds_a_single_flipped_data_bit() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        flip_byte(&b, &paths.data_dropping(1), 500, 0x01);
        let rep = scrub(b.as_ref(), "/f", 4).unwrap();
        assert_eq!(
            rep.findings,
            vec![ScrubFinding { rank: 1, path: paths.data_dropping(1), offset: 0, len: 1000 }]
        );
        // fsck's structural checks can't see it — that's scrub's job.
        assert!(fsck(b.as_ref(), "/f", 4).unwrap().is_clean());
    }

    #[test]
    fn scrub_reports_unparseable_sidecar_as_finding_and_uncovered() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        flip_byte(&b, &paths.chk_dropping(0), 0, 0xFF); // break the magic
        let rep = scrub(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.findings.iter().any(|f| f.rank == 0 && f.path == paths.chk_dropping(0)));
        assert!(rep.uncovered.iter().any(|&(r, bytes)| r == 0 && bytes == 1000));
    }

    #[test]
    fn sidecar_claiming_blocks_past_eof_is_a_finding_everywhere() {
        let (fs, b) = setup();
        let mut w = fs.open_writer("/f", 0).unwrap();
        w.write_at(0, &[5u8; 9000]).unwrap();
        w.close().unwrap(); // three entries: 4096 + 4096 + 808 bytes
        let paths = crate::container::ContainerPaths::new("/f", 4);
        let chk = paths.chk_dropping(0);
        b.append(&chk, &[0u8; 8]).unwrap(); // two entries past EOF

        // Scrub verifies the real blocks, then indicts the sidecar.
        let rep = scrub(b.as_ref(), "/f", 4).unwrap();
        assert_eq!(rep.checked_blocks, 3 + 1, "three data blocks plus one index block");
        assert_eq!(
            rep.findings,
            vec![ScrubFinding { rank: 0, path: chk.clone(), offset: 25, len: 8 }]
        );
        assert!(rep.uncovered.is_empty(), "{:?}", rep.uncovered);

        // The reader trusts nothing about the dropping.
        let err = fs.open_reader("/f").unwrap().read_all().unwrap_err();
        assert!(crate::retry::is_integrity(&err), "{err}");
        assert!(err.to_string().contains(&chk), "{err}");
        let mut r = fs.open_reader("/f").unwrap();
        r.set_quarantine(crate::read::QuarantinePolicy::ZeroFill);
        assert_eq!(r.read_all().unwrap(), vec![5u8; 9000]);

        // Every covered block verifies, so pass 0 cuts nothing; the
        // sidecar reconcile trims the overclaim and the close-time tail.
        let opts = RepairOptions { truncate_corrupt_tails: true, ..Default::default() };
        let rep = repair(b.as_ref(), "/f", 4, &opts).unwrap();
        let trim = RepairAction::TrimmedChecksumTail { rank: 0, dropped_entries: 3 };
        assert_eq!(rep.actions, vec![trim, RepairAction::DroppedStaleCanonical]);
        assert!(scrub(b.as_ref(), "/f", 4).unwrap().is_clean());
        assert_eq!(fs.open_reader("/f").unwrap().read_all().unwrap(), vec![5u8; 9000]);
    }

    #[test]
    fn scrub_flags_corrupt_canonical_cache() {
        let (fs, b) = setup();
        healthy(&fs);
        let _ = fs.open_reader("/f").unwrap();
        let paths = crate::container::ContainerPaths::new("/f", 4);
        assert!(!scrub(b.as_ref(), "/f", 4).unwrap().canonical_corrupt);
        flip_byte(&b, &paths.canonical_index(), 30, 0x04);
        assert!(scrub(b.as_ref(), "/f", 4).unwrap().canonical_corrupt);
    }

    #[test]
    fn unchecksummed_containers_scrub_clean_but_report_uncovered() {
        let (fs, b) = setup();
        let mut w = fs.open_writer("/f", 0).unwrap();
        w.write_at(0, &[7u8; 2000]).unwrap();
        w.close().unwrap();
        // A container from before sidecars: same droppings, no `chk`.
        let paths = crate::container::ContainerPaths::new("/f", 4);
        b.remove(&paths.chk_dropping(0)).unwrap();
        b.remove(&paths.index_chk_dropping(0)).unwrap();
        let rep = scrub(b.as_ref(), "/f", 4).unwrap();
        assert!(rep.is_clean());
        assert_eq!(rep.checked_blocks, 0);
        assert_eq!(rep.uncovered.len(), 1);
        assert!(rep.uncovered[0].1 > 2000, "data + index bytes all uncovered");
        let fr = fsck(b.as_ref(), "/f", 4).unwrap();
        assert!(fr.is_clean(), "uncovered is informational: {:?}", fr.errors);
        assert_eq!(fr.uncovered, rep.uncovered);
    }

    #[test]
    fn repair_reconciles_sidecars_after_truncations() {
        let (fs, b) = setup();
        healthy(&fs);
        let paths = crate::container::ContainerPaths::new("/f", 4);
        // Rank 0 grows an unindexed tail: repair truncates the data
        // dropping back, which invalidates the close-time tail CRC.
        b.append(&paths.data_dropping(0), &[9u8; 33]).unwrap();
        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::TruncatedOrphanTail { rank: 0, .. })));
        assert!(rep.actions.contains(&RepairAction::RemovedChecksumSidecar { rank: 0 }));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        // The repaired container scrubs clean and reads clean.
        assert!(scrub(b.as_ref(), "/f", 4).unwrap().is_clean());
        let data = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 3000);
    }

    #[test]
    fn repair_truncate_corrupt_tails_salvages_verified_prefix() {
        let (fs, b) = setup();
        let mut w = fs.open_writer("/g", 0).unwrap();
        for i in 0..10u64 {
            w.write_at(i * 1000, &[i as u8; 1000]).unwrap();
        }
        w.close().unwrap();
        let paths = crate::container::ContainerPaths::new("/g", 4);
        // Rot a byte in the third checksum block (bytes 8192..10000).
        flip_byte(&b, &paths.data_dropping(0), 9000, 0x20);
        // Fail-stop default: the read surfaces the corruption.
        let r = fs.open_reader("/g").unwrap();
        assert!(r.read_all().is_err());
        // Repair with tail truncation: the verified prefix survives.
        let rep = repair(
            b.as_ref(),
            "/g",
            4,
            &RepairOptions { truncate_corrupt_tails: true, ..Default::default() },
        )
        .unwrap();
        assert!(rep
            .actions
            .iter()
            .any(|a| matches!(a, RepairAction::TruncatedCorruptTail { rank: 0, dropped_bytes } if *dropped_bytes == 10000 - 8192)));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        assert!(scrub(b.as_ref(), "/g", 4).unwrap().is_clean());
        // Writes fully inside the verified prefix read back verbatim
        // (verification on); the cut tail reads as a hole.
        let data = fs.open_reader("/g").unwrap().read_all().unwrap();
        assert_eq!(data.len(), 8000, "entries past the cut were trimmed");
        for i in 0..8u64 {
            assert!(
                data[(i * 1000) as usize..((i + 1) * 1000) as usize].iter().all(|&x| x == i as u8),
                "write {i} must survive"
            );
        }
    }

    // ------------------------------------------------------ the survey

    /// A clean container of `ranks` closed writers, 1000 B each.
    fn clean(ranks: u32, hostdirs: u32) -> Arc<MemBackend> {
        let b = Arc::new(MemBackend::new());
        let fs =
            Plfs::new(b.clone() as Arc<dyn Backend>, PlfsConfig { hostdirs, ..Default::default() });
        for rank in 0..ranks {
            let mut w = fs.open_writer("/f", rank).unwrap();
            w.write_at(rank as u64 * 1000, &[rank as u8 + 1; 1000]).unwrap();
            w.close().unwrap();
        }
        b
    }

    #[test]
    fn repair_reads_each_index_dropping_at_most_twice() {
        let b = clean(16, 32);
        repair(b.as_ref(), "/f", 32, &RepairOptions::default()).unwrap(); // ledger housekeeping
        let probe = Probe::over(&b);
        let rep = repair(probe.as_ref(), "/f", 32, &RepairOptions::default()).unwrap();
        assert!(rep.before.is_clean() && rep.actions.is_empty(), "{:?}", rep.actions);
        let c = probe.counts.lock().unwrap();
        assert_eq!(c.index_reads.len(), 16);
        for (path, reads) in &c.index_reads {
            assert!(*reads <= 2, "{path} read {reads} times: once before, once after");
        }
    }

    /// A transient `len` failure is not a 0 B file. On a cleanly closed
    /// 4096 B file, fail each `len` of its data dropping in turn: fsck
    /// must return the error instead of a dangling extent, and repair
    /// must either fail or leave every byte (and its sidecar) in place.
    #[test]
    fn a_failed_len_never_reads_as_an_empty_file() {
        let b = Arc::new(MemBackend::new());
        let fs = Plfs::new(
            b.clone() as Arc<dyn Backend>,
            PlfsConfig { hostdirs: 4, ..Default::default() },
        );
        let mut w = fs.open_writer("/f", 0).unwrap();
        w.write_at(0, &[7u8; 4096]).unwrap();
        w.close().unwrap();
        let data = crate::container::ContainerPaths::new("/f", 4).data_dropping(0);
        let probe_with = |n| {
            let probe = Probe::over(&b);
            probe.counts.lock().unwrap().fail_len = Some((data.clone(), n));
            probe
        };
        let (mut fsck_errs, mut repair_errs) = (0, 0);
        for n in 1..=8 {
            let probe = probe_with(n);
            match fsck(probe.as_ref(), "/f", 4) {
                Ok(rep) => assert!(rep.is_clean(), "len #{n} failed: fsck found {:?}", rep.errors),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut);
                    fsck_errs += 1;
                }
            }
            let probe = probe_with(n);
            match repair(probe.as_ref(), "/f", 4, &RepairOptions::default()) {
                Ok(rep) => {
                    assert!(rep.actions.is_empty(), "len #{n} failed: repair did {:?}", rep.actions)
                }
                Err(_) => repair_errs += 1,
            }
            assert_eq!(fs.open_reader("/f").unwrap().read_all().unwrap(), vec![7u8; 4096]);
            assert!(fsck(b.as_ref(), "/f", 4).unwrap().uncovered.is_empty(), "a sidecar went");
        }
        assert!(fsck_errs > 0 && repair_errs > 0, "no injected failure was hit");
    }

    /// A pattern record with a valid CRC and `count = u32::MAX` maps
    /// 2³² entries of 4 KiB onto rank 1's 1000 B data dropping. Nothing
    /// may expand it: `fsck` reports one dangling extent, the reader
    /// (warm with the record as a tail, and cold) refuses to open, and
    /// `repair` drops the record and keeps rank 1's real write.
    #[test]
    fn a_huge_pattern_record_is_never_expanded() {
        use crate::index::{put_pattern, PatternEntry};
        let (fs, b) = setup();
        healthy(&fs);
        let expected = fs.open_reader("/f").unwrap().read_all().unwrap();
        assert!(b.exists("/f/canonical.index"));
        let huge = PatternEntry {
            logical_start: 1 << 20,
            length: 4096,
            logical_stride: 4096,
            count: u32::MAX,
            physical_start: 0,
            writer: 1,
            timestamp_start: 1 << 50,
        };
        let mut record = Vec::new();
        put_pattern(&mut record, &huge);
        let index = crate::container::ContainerPaths::new("/f", 4).index_dropping(1);
        b.append(&index, &record).unwrap();

        let count = u64::from(u32::MAX);
        let rep = fsck(b.as_ref(), "/f", 4).unwrap();
        let dangling =
            FsckError::DanglingExtent { rank: 1, physical_end: count * 4096, data_len: 1000 };
        assert_eq!(rep.errors, vec![dangling]);
        assert_eq!(rep.entries as u64, 3 + count);
        assert_eq!(rep.logical_eof, (1 << 20) + count * 4096);
        let err = fs.open_reader("/f").err().expect("the reader refuses the record");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        b.remove("/f/canonical.index").unwrap();
        let err = fs.open_reader("/f").err().expect("the cold reader refuses it too");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        let rep = repair(b.as_ref(), "/f", 4, &RepairOptions::default()).unwrap();
        assert!(rep.actions.contains(&RepairAction::TrimmedDanglingExtents {
            rank: 1,
            dropped_entries: u32::MAX as usize
        }));
        assert!(rep.after.is_clean(), "{:?}", rep.after.errors);
        assert_eq!(fs.open_reader("/f").unwrap().read_all().unwrap(), expected);
    }

    /// Hostile bytes in the parsers the survey reads: every truncation,
    /// and a seeded sample of single-byte replacements, of an index
    /// dropping from `encode_compressed` (tags 3 and 4), of a
    /// `canonical.index` and of a sidecar. Each parser returns a typed
    /// error or a consistent value, never a panic, and `fsck` reports
    /// each rotted index dropping. Every input is decoded: no record
    /// kind escapes its checksum.
    #[test]
    fn survey_parsers_take_hostile_bytes() {
        use crate::checksum::{chk_header, crc32, VERIFY_BLOCK};
        use crate::index::{decode, decode_prefix};
        for seed in 0..4u64 {
            let mut rng = simkit::Rng::new(0xB17E5 + seed);
            // A strided run (one pattern record) and scattered writes.
            let mut entries: Vec<IndexEntry> = (0..6u64)
                .map(|i| IndexEntry {
                    logical_offset: i * 4000,
                    length: 1000,
                    physical_offset: i * 1000,
                    writer: 1,
                    timestamp: 10 + i,
                })
                .collect();
            for i in 0..4u64 {
                let (length, ts) = (1 + rng.below(900), 20 + i);
                let logical_offset = rng.below(1 << 20);
                entries.push(IndexEntry {
                    logical_offset,
                    length,
                    physical_offset: 6000 + i * 1000,
                    writer: 1,
                    timestamp: ts,
                });
            }
            let index = crate::index::encode_compressed(&entries);
            assert!(index.contains(&4) && index.len() < entries.len() * 41, "no pattern record");
            let canon = CanonicalIndex {
                watermark: 3 + seed,
                covered: vec![(0, 123), (1, index.len() as u64)],
                fragments: entries[..5].to_vec(),
            }
            .encode();
            let data = vec![9u8; 3 * VERIFY_BLOCK as usize + 100];
            let mut sidecar = chk_header(VERIFY_BLOCK as u32);
            for block in data.chunks(VERIFY_BLOCK as usize) {
                sidecar.extend_from_slice(&crc32(block).to_le_bytes());
            }

            let (fs, b) = setup();
            healthy(&fs);
            let paths = crate::container::ContainerPaths::new("/f", 4);
            b.append("/covered", &data).unwrap();
            for (kind, blob) in [("index", &index), ("canonical", &canon), ("sidecar", &sidecar)] {
                let mut variants: Vec<Vec<u8>> =
                    (0..blob.len()).map(|n| blob[..n].to_vec()).collect();
                for _ in 0..300 {
                    let mut v = blob.clone();
                    let at = rng.below(v.len() as u64) as usize;
                    v[at] ^= 1 + rng.below(255) as u8;
                    variants.push(v);
                }
                for v in &variants {
                    let ctx = format!("seed {seed} {kind} of {} B", v.len());
                    match kind {
                        "index" => {
                            let (got, consumed) = decode_prefix(v);
                            assert!(consumed <= v.len(), "{ctx}");
                            for e in &got {
                                assert!(e.logical_offset.checked_add(e.length).is_some(), "{ctx}");
                                assert!(e.physical_offset.checked_add(e.length).is_some(), "{ctx}");
                            }
                            assert_eq!(decode(&v[..consumed]).unwrap(), got, "{ctx}");
                            match decode(v) {
                                Ok(all) => assert!(consumed == v.len() && all == got, "{ctx}"),
                                Err(e) => assert!(
                                    consumed < v.len()
                                        && matches!(
                                            e.kind(),
                                            io::ErrorKind::InvalidData
                                                | io::ErrorKind::UnexpectedEof
                                        ),
                                    "{ctx}: {e}"
                                ),
                            }
                            // The survey reads it as rank 1's index dropping.
                            b.create(&paths.index_dropping(1)).unwrap();
                            b.append(&paths.index_dropping(1), v).unwrap();
                            let rep = fsck(b.as_ref(), "/f", 4).unwrap();
                            let corrupt = rep
                                .errors
                                .iter()
                                .any(|e| matches!(e, FsckError::CorruptIndex { rank: 1, .. }));
                            assert_eq!(corrupt, consumed < v.len(), "{ctx}: {:?}", rep.errors);
                        }
                        "canonical" => match CanonicalIndex::decode(v) {
                            Ok(c) => assert_eq!(&c.encode(), v, "{ctx}"),
                            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{ctx}"),
                        },
                        _ => {
                            b.create("/sidecar").unwrap();
                            b.append("/sidecar", v).unwrap();
                            match Sidecar::load(b.as_ref(), "/covered", "/sidecar").unwrap() {
                                Sidecar::Absent => panic!("{ctx}: the sidecar exists"),
                                Sidecar::Unparseable { len, .. } => {
                                    assert_eq!(len, v.len() as u64, "{ctx}")
                                }
                                Sidecar::Parsed(cov) => {
                                    let body = v.len() - CHK_HEADER_BYTES;
                                    assert!(cov.block > 0 && cov.len == data.len() as u64, "{ctx}");
                                    assert_eq!(
                                        (cov.crcs.len(), cov.torn),
                                        (body / 4, !body.is_multiple_of(4)),
                                        "{ctx}"
                                    );
                                    assert!(cov.uncovered() <= cov.len, "{ctx}");
                                    let mut seen = 0;
                                    cov.walk(b.as_ref(), "/covered", |k, r, _| {
                                        assert!(k < cov.crcs.len() && r.end <= cov.len, "{ctx}");
                                        seen += 1;
                                        ControlFlow::<()>::Continue(())
                                    })
                                    .unwrap();
                                    assert_eq!(
                                        seen,
                                        cov.overclaim().unwrap_or(cov.crcs.len()),
                                        "{ctx}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
