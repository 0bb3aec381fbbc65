//! Container integrity checking (`plfs_check` in the original tools).
//!
//! A PLFS container is many independent droppings; partial writes,
//! truncated logs, or lost index records after a crash show up as
//! specific, locally-detectable inconsistencies. `fsck` verifies:
//!
//! 1. the container skeleton (access marker, openhosts/meta dirs);
//! 2. every index dropping decodes cleanly;
//! 3. every index entry's physical extent lies within its data
//!    dropping (no dangling pointers);
//! 4. data droppings have no unindexed tail beyond the highest indexed
//!    byte (orphaned bytes — harmless but reported);
//! 5. writers that left data but no index (unreadable data), and
//!    stale `openhosts` droppings from sessions that never closed.
//!
//! [`repair`] fixes what [`fsck`] finds, preserving the crash-recovery
//! invariant: **every write acknowledged (synced) before the crash
//! reads back byte-for-byte afterwards**. The writer flushes data
//! before index, so a torn index tail or an unindexed data tail always
//! belongs to writes that were never acked — truncating them is safe.

use crate::backend::Backend;
use crate::canonical::{freshness, CanonicalIndex};
use crate::checksum::{Sidecar, CHK_HEADER_BYTES};
use crate::container::{compact_epoch_ledger, discover_droppings, is_container, ContainerPaths};
use crate::index::{decode, decode_prefix, encode_raw, IndexEntry};
use crate::pool;
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
    /// checksum sidecar — legacy sessions, a sidecar `repair` removed,
    /// or a crash before the sidecar flush. Informational, never an error:
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

/// Check a container.
pub fn fsck(backend: &dyn Backend, logical: &str, hostdirs: u32) -> io::Result<FsckReport> {
    let mut report = FsckReport::default();
    if !is_container(backend, logical) {
        report.errors.push(FsckError::NotAContainer);
        return Ok(report);
    }
    let paths = ContainerPaths::new(logical, hostdirs);

    // Stale open sessions.
    if let Ok(names) = backend.list(&paths.openhosts_dir()) {
        for name in names {
            report.errors.push(FsckError::StaleOpenSession { name });
        }
    }

    // Index/data cross-checks.
    let droppings = discover_droppings(backend, &paths)?;
    report.writers = droppings.len();
    let mut indexed_ranks = std::collections::HashSet::new();
    for (rank, idx_path, data_path) in &droppings {
        indexed_ranks.insert(*rank);
        let blob = backend.read_all(idx_path)?;
        let entries = match decode(&blob) {
            Ok(e) => e,
            Err(err) => {
                report
                    .errors
                    .push(FsckError::CorruptIndex { rank: *rank, detail: err.to_string() });
                continue;
            }
        };
        report.entries += entries.len();
        let data_len = backend.len(data_path).unwrap_or(0);
        let mut highest_physical = 0u64;
        for e in &entries {
            let phys_end = e.physical_offset + e.length;
            highest_physical = highest_physical.max(phys_end);
            report.logical_eof = report.logical_eof.max(e.logical_offset + e.length);
            if phys_end > data_len {
                report.errors.push(FsckError::DanglingExtent {
                    rank: *rank,
                    physical_end: phys_end,
                    data_len,
                });
            }
        }
        if data_len > highest_physical {
            report.errors.push(FsckError::OrphanedData {
                rank: *rank,
                orphaned_bytes: data_len - highest_physical,
            });
        }
        // Whole file when the sidecar is absent, unreadable or
        // unparseable; O(sidecar), never O(data).
        let unc: u64 =
            [(data_path, paths.chk_dropping(*rank)), (idx_path, paths.index_chk_dropping(*rank))]
                .iter()
                .map(|(covered, sidecar)| match Sidecar::load(backend, covered, sidecar) {
                    Ok(Sidecar::Parsed(cov)) => cov.uncovered(),
                    _ => backend.len(covered).unwrap_or(0),
                })
                .sum();
        if unc > 0 {
            report.uncovered.push((*rank, unc));
        }
    }

    // Data droppings with no index at all.
    for entry in backend.list(paths.base())? {
        if !entry.starts_with("hostdir.") {
            continue;
        }
        let dir = format!("{}/{entry}", paths.base());
        for name in backend.list(&dir)? {
            if let Some(rank) = name.strip_prefix("data.").and_then(|r| r.parse::<u32>().ok()) {
                if !indexed_ranks.contains(&rank) {
                    report.errors.push(FsckError::MissingIndex { rank });
                }
            }
        }
    }

    // Flattened-index cache consistency (see `crate::canonical`).
    let canonical_path = paths.canonical_index();
    if backend.exists(&canonical_path) {
        let stale = match backend
            .read_all(&canonical_path)
            .map_err(|e| e.to_string())
            .and_then(|blob| CanonicalIndex::decode(&blob).map_err(|e| e.to_string()))
        {
            Ok(canon) => freshness(backend, &paths, &canon).err(),
            Err(e) => Some(e),
        };
        if let Some(detail) = stale {
            report.errors.push(FsckError::StaleCanonicalIndex { detail });
        }
    }
    Ok(report)
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

/// Checksum-walk one covered/sidecar pair, appending findings.
fn scrub_pair(
    backend: &dyn Backend,
    rank: u32,
    covered: &str,
    sidecar: &str,
    out: &mut RankScrub,
) -> io::Result<()> {
    let finding = |path: &str, offset, len| ScrubFinding { rank, path: path.into(), offset, len };
    let cov = match Sidecar::load(backend, covered, sidecar)? {
        Sidecar::Parsed(cov) => cov,
        unverifiable => {
            if let Sidecar::Unparseable { len, .. } = unverifiable {
                out.findings.push(finding(sidecar, 0, len));
            }
            out.uncovered += backend.len(covered).unwrap_or(0);
            return Ok(());
        }
    };
    cov.walk(backend, covered, |_, r, ok| {
        out.blocks += 1;
        out.bytes += r.end - r.start;
        if !ok {
            out.findings.push(finding(covered, r.start, r.end - r.start));
        }
        ControlFlow::<()>::Continue(())
    })?;
    if let Some(k) = cov.overclaim() {
        // The sidecar claims coverage of bytes that don't exist: the
        // sidecar (not the dropping) is the corrupt artifact.
        let offset = (CHK_HEADER_BYTES + 4 * k) as u64;
        out.findings.push(finding(sidecar, offset, 4 * (cov.crcs.len() - k) as u64));
    }
    out.uncovered += cov.uncovered();
    Ok(())
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
    let droppings = discover_droppings(backend, &paths)?;
    let cap = pool::available_parallelism();
    let (results, _) = pool::run_bounded(droppings.len(), cap, |i| {
        let (rank, idx_path, data_path) = &droppings[i];
        let mut out = RankScrub::default();
        scrub_pair(backend, *rank, data_path, &paths.chk_dropping(*rank), &mut out)?;
        scrub_pair(backend, *rank, idx_path, &paths.index_chk_dropping(*rank), &mut out)?;
        Ok::<(u32, RankScrub), io::Error>((*rank, out))
    });

    let mut report = ScrubReport { ranks: droppings.len(), ..Default::default() };
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

    let canonical_path = paths.canonical_index();
    if backend.exists(&canonical_path) {
        report.canonical_corrupt = backend
            .read_all(&canonical_path)
            .ok()
            .and_then(|blob| CanonicalIndex::decode(&blob).ok())
            .is_none();
    }
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

/// Offset of the first checksum-mismatched block of `covered`, or
/// `None` when everything verifiable verifies (absent/unparseable
/// sidecars verify nothing — sidecar reconciliation handles those).
fn first_corrupt_block(
    backend: &dyn Backend,
    covered: &str,
    sidecar: &str,
) -> io::Result<Option<u64>> {
    let Ok(Sidecar::Parsed(cov)) = Sidecar::load(backend, covered, sidecar) else {
        return Ok(None);
    };
    cov.walk(backend, covered, |_, r, ok| match ok {
        true => ControlFlow::Continue(()),
        false => ControlFlow::Break(r.start),
    })
}

/// Reconcile one checksum sidecar with its covered file after the
/// repair passes rewrote droppings. Entries are only ever *dropped* —
/// recomputing a CRC from bytes repair can't vouch for would launder
/// corruption into "verified". `modified` says the covered file was
/// rewritten this run: then the boundary partial-block entry (a
/// close-time tail CRC) is dropped too, since the tail it hashed may
/// not be the tail that survived.
fn reconcile_sidecar(
    backend: &dyn Backend,
    rank: u32,
    covered: &str,
    sidecar: &str,
    modified: bool,
    actions: &mut Vec<RepairAction>,
) -> io::Result<()> {
    let remove = |actions: &mut Vec<RepairAction>| {
        backend.remove(sidecar)?;
        actions.push(RepairAction::RemovedChecksumSidecar { rank });
        Ok(())
    };
    let cov = match Sidecar::load(backend, covered, sidecar)? {
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

/// Repair a crashed container in place.
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
    let before = fsck(backend, logical, hostdirs)?;
    let mut actions = Vec::new();
    if before.errors.contains(&FsckError::NotAContainer) {
        // Nothing we can do without a container skeleton.
        return Ok(RepairReport { after: before.clone(), before, actions });
    }
    let paths = ContainerPaths::new(logical, hostdirs);
    let droppings = discover_droppings(backend, &paths)?;

    // Which ranks' data/index files this run rewrites — their sidecars'
    // close-time tail CRCs are reconciled at the end.
    let mut data_mod = std::collections::HashSet::new();
    let mut index_mod = std::collections::HashSet::new();

    // Pass 0 (opt-in): salvage the verified prefix of corrupt
    // droppings. Cutting at the first bad block turns silent corruption
    // into the torn-tail / dangling-extent shapes passes 1–3 already
    // repair.
    if opts.truncate_corrupt_tails {
        for (rank, idx_path, data_path) in &droppings {
            let pairs = [
                (data_path.as_str(), paths.chk_dropping(*rank), &mut data_mod),
                (idx_path.as_str(), paths.index_chk_dropping(*rank), &mut index_mod),
            ];
            for (covered, sidecar, modified) in pairs {
                if let Some(first_bad) = first_corrupt_block(backend, covered, &sidecar)? {
                    let clen = backend.len(covered).unwrap_or(0);
                    truncate_file(backend, covered, first_bad)?;
                    modified.insert(*rank);
                    actions.push(RepairAction::TruncatedCorruptTail {
                        rank: *rank,
                        dropped_bytes: clen - first_bad,
                    });
                }
            }
        }
    }

    // Passes 1–3 per writer; remember each writer's surviving entries
    // so salvage can place orphans past the global logical EOF.
    let mut kept_all: Vec<(u32, String, String, Vec<IndexEntry>, u64)> = Vec::new();
    let mut logical_eof = 0u64;
    let mut max_ts = 0u64;
    for (rank, idx_path, data_path) in droppings {
        let blob = backend.read_all(&idx_path)?;
        let (mut entries, consumed) = decode_prefix(&blob);
        if consumed < blob.len() {
            truncate_file(backend, &idx_path, consumed as u64)?;
            actions.push(RepairAction::TruncatedIndexTail {
                rank,
                dropped_bytes: (blob.len() - consumed) as u64,
            });
        }
        let data_len = backend.len(&data_path).unwrap_or(0);
        let n_before = entries.len();
        entries.retain(|e| e.physical_offset + e.length <= data_len);
        if entries.len() < n_before {
            replace_file_atomic(backend, &idx_path, &encode_raw(&entries))?;
            actions.push(RepairAction::TrimmedDanglingExtents {
                rank,
                dropped_entries: n_before - entries.len(),
            });
        }
        for e in &entries {
            logical_eof = logical_eof.max(e.logical_offset + e.length);
            max_ts = max_ts.max(e.timestamp);
        }
        kept_all.push((rank, idx_path, data_path, entries, data_len));
    }

    // Pass 3: orphaned data tails.
    for (rank, idx_path, data_path, entries, data_len) in &kept_all {
        let highest = entries.iter().map(|e| e.physical_offset + e.length).max().unwrap_or(0);
        if *data_len > highest {
            let orphaned = data_len - highest;
            if opts.salvage_orphans {
                let entry = IndexEntry {
                    logical_offset: logical_eof,
                    length: orphaned,
                    physical_offset: highest,
                    writer: *rank,
                    timestamp: max_ts + 1,
                };
                backend.append(idx_path, &encode_raw(&[entry]))?;
                actions.push(RepairAction::SalvagedOrphan {
                    rank: *rank,
                    bytes: orphaned,
                    logical_offset: logical_eof,
                });
                logical_eof += orphaned;
            } else {
                truncate_file(backend, data_path, highest)?;
                actions.push(RepairAction::TruncatedOrphanTail {
                    rank: *rank,
                    dropped_bytes: orphaned,
                });
            }
        }
    }

    // Pass 4: data droppings with no index dropping at all.
    let indexed: std::collections::HashSet<u32> = kept_all.iter().map(|(r, ..)| *r).collect();
    for entry in backend.list(paths.base())? {
        if !entry.starts_with("hostdir.") {
            continue;
        }
        let dir = format!("{}/{entry}", paths.base());
        for name in backend.list(&dir)? {
            let Some(rank) = name.strip_prefix("data.").and_then(|r| r.parse::<u32>().ok()) else {
                continue;
            };
            if indexed.contains(&rank) {
                continue;
            }
            let data_path = format!("{dir}/{name}");
            let bytes = backend.len(&data_path).unwrap_or(0);
            if opts.salvage_orphans && bytes > 0 {
                let entry = IndexEntry {
                    logical_offset: logical_eof,
                    length: bytes,
                    physical_offset: 0,
                    writer: rank,
                    timestamp: max_ts + 1,
                };
                backend.append(&paths.index_dropping(rank), &encode_raw(&[entry]))?;
                actions.push(RepairAction::SalvagedOrphan {
                    rank,
                    bytes,
                    logical_offset: logical_eof,
                });
                logical_eof += bytes;
            } else {
                backend.remove(&data_path)?;
                actions.push(RepairAction::RemovedUnindexedData { rank });
            }
        }
    }

    // Pass 5: sessions that never closed.
    if let Ok(names) = backend.list(&paths.openhosts_dir()) {
        for name in names {
            backend.remove(&format!("{}/{name}", paths.openhosts_dir()))?;
            actions.push(RepairAction::ClearedStaleSession { name });
        }
    }

    // Sidecar reconciliation. Prefix-preserving truncations invalidate
    // at most the close-time tail CRC (`*_mod`); a wholesale index
    // re-encode (dangling-extent trim) invalidates every `chki` block,
    // so that sidecar is removed outright.
    let mut index_rewritten = std::collections::HashSet::new();
    for a in &actions {
        match a {
            RepairAction::TruncatedIndexTail { rank, .. } => {
                index_mod.insert(*rank);
            }
            RepairAction::TrimmedDanglingExtents { rank, .. } => {
                index_rewritten.insert(*rank);
            }
            RepairAction::TruncatedOrphanTail { rank, .. } => {
                data_mod.insert(*rank);
            }
            RepairAction::SalvagedOrphan { rank, .. } => {
                // The index grew (tail CRC stale) and bytes beyond the
                // data sidecar's close-time coverage became live — the
                // data tail CRC hashed a shorter tail than now exists.
                index_mod.insert(*rank);
                data_mod.insert(*rank);
            }
            _ => {}
        }
    }
    for entry in backend.list(paths.base())? {
        if !entry.starts_with("hostdir.") {
            continue;
        }
        let dir = format!("{}/{entry}", paths.base());
        for name in backend.list(&dir)? {
            let (rank, covered, modified, rewritten) = if let Some(r) =
                name.strip_prefix("chki.").and_then(|r| r.parse::<u32>().ok())
            {
                (
                    r,
                    format!("{dir}/index.{r}"),
                    index_mod.contains(&r),
                    index_rewritten.contains(&r),
                )
            } else if let Some(r) = name.strip_prefix("chk.").and_then(|r| r.parse::<u32>().ok()) {
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
            reconcile_sidecar(backend, rank, &covered, &sidecar, modified, &mut actions)?;
        }
    }

    // Pass 6: the flattened-index cache. Runs last because the passes
    // above rewrite droppings and change the session count — both
    // silently invalidate a cached merge. An already-stale or
    // undecodable cache goes too; a fresh one on an untouched
    // container is kept.
    let canonical_path = paths.canonical_index();
    if backend.exists(&canonical_path) {
        let fresh = backend
            .read_all(&canonical_path)
            .ok()
            .and_then(|blob| CanonicalIndex::decode(&blob).ok())
            .map(|canon| freshness(backend, &paths, &canon).is_ok())
            .unwrap_or(false);
        if !actions.is_empty() || !fresh {
            backend.remove(&canonical_path)?;
            actions.push(RepairAction::DroppedStaleCanonical);
        }
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
    for entry in backend.list(paths.base())? {
        if !entry.starts_with("hostdir.") {
            continue;
        }
        let dir = format!("{}/{entry}", paths.base());
        for name in backend.list(&dir)? {
            if !name.ends_with(REPAIR_TEMP_SUFFIX) {
                continue;
            }
            let path = format!("{dir}/{name}");
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
}
