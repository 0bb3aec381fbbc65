//! The flattened-index cache (`canonical.index`).
//!
//! Read-open pays PLFS's deferred bill: fetch, decode, and merge every
//! rank's index dropping. The result of that merge — a disjoint extent
//! list — is itself a valid index, so after a successful merge the
//! reader persists it as a `canonical.index` dropping at the container
//! root. The next open loads it instead of re-merging the world, and
//! only merges index bytes that appended *after* the cache's stamp.
//!
//! Staleness is decided by two stamps taken when the merge ran:
//!
//! - the container's **epoch watermark** (one past the highest session
//!   ever reserved; see [`crate::container::epoch_watermark`]): a new
//!   writer session advances it, and [`crate::write::Writer`]
//!   additionally deletes the cache *before* its session becomes
//!   visible (belt and braces — and the ordering matters: a reader
//!   racing the open sees either no cache or a watermark mismatch,
//!   never a stale cache with a matching stamp);
//! - the **covered byte length of every index dropping**: a writer in
//!   a still-open session appends without changing the watermark,
//!   so a grown dropping means "decode just the tail"; a shrunk or
//!   vanished one means the world changed under us — rebuild.
//!
//! Whether the cache is usable (absent, undecodable, stale, or fresh
//! with tails to merge) is decided once, by `load`, for the reader's
//! open, `fsck`, `scrub` and `repair`. `fsck` reports a stale cache and
//! `fsck::repair` deletes it (repair rewrites droppings, which silently
//! invalidates any flattened view). Every decode error here is treated
//! as "no cache" by readers — the cache is an optimization, never a
//! correctness dependency.

use crate::backend::Backend;
use crate::container::{discover_droppings, epoch_watermark, ContainerPaths};
use crate::index::{self, Backing, GetLe, IndexEntry, PutLe};
use std::io;

/// Magic tag at byte 0 of every canonical index ("PLFSCAN2").
///
/// Version 2 added a content checksum: a CRC32 of every byte after the
/// checksum field, directly after the magic. Version-1 caches (no
/// checksum) fail the magic check and are rebuilt — acceptable because
/// the cache is never a correctness dependency.
pub const CANONICAL_MAGIC: u64 = u64::from_le_bytes(*b"PLFSCAN2");

/// A decoded flattened-index cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalIndex {
    /// The container's epoch watermark when the merge ran.
    pub watermark: u64,
    /// `(rank, index dropping byte length)` covered by the merge.
    pub covered: Vec<(u32, u64)>,
    /// The merged extent list as disjoint entries, logical order,
    /// original timestamps preserved (so tails merge correctly).
    pub fragments: Vec<IndexEntry>,
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("canonical index: {why}"))
}

impl CanonicalIndex {
    /// Wire format: magic, content CRC32, epoch watermark, covered
    /// table, payload length, then the fragments raw-encoded. The CRC
    /// covers every byte after itself, so the stamp-match check can
    /// never trust a silently corrupted cache; the explicit payload
    /// length makes a torn write detectable (the file is created then
    /// appended once; a tear can only shorten it).
    pub fn encode(&self) -> Vec<u8> {
        let payload = index::encode_raw(&self.fragments);
        let mut buf = Vec::with_capacity(32 + self.covered.len() * 12 + payload.len());
        buf.put_u64_le(CANONICAL_MAGIC);
        buf.put_u32_le(0); // CRC placeholder, patched below
        buf.put_u64_le(self.watermark);
        buf.put_u32_le(self.covered.len() as u32);
        for &(rank, len) in &self.covered {
            buf.put_u32_le(rank);
            buf.put_u64_le(len);
        }
        buf.put_u64_le(payload.len() as u64);
        buf.extend_from_slice(&payload);
        let crc = crate::checksum::crc32(&buf[12..]);
        buf[8..12].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    pub fn decode(data: &[u8]) -> io::Result<CanonicalIndex> {
        let mut cur = GetLe::new(data);
        if cur.remaining() < 24 {
            return Err(bad("short header"));
        }
        if cur.get_u64_le() != CANONICAL_MAGIC {
            return Err(bad("bad magic"));
        }
        let stored = cur.get_u32_le();
        if crate::checksum::crc32(cur.rest()) != stored {
            return Err(bad("content checksum mismatch"));
        }
        let watermark = cur.get_u64_le();
        let n = cur.get_u32_le() as usize;
        if cur.remaining() < n * 12 + 8 {
            return Err(bad("short covered table"));
        }
        let mut covered = Vec::with_capacity(n);
        for _ in 0..n {
            let rank = cur.get_u32_le();
            let len = cur.get_u64_le();
            covered.push((rank, len));
        }
        let payload_len = cur.get_u64_le() as usize;
        if cur.remaining() != payload_len {
            return Err(bad("torn payload"));
        }
        // Fragments are written with `encode_raw`: a pattern record here
        // is corrupt, and rejecting it bounds the payload's expansion.
        let fragments = index::decode_backed(cur.rest(), Backing::RawOnly)
            .whole()
            .map_err(|e| bad(&e.to_string()))?;
        Ok(CanonicalIndex { watermark, covered, fragments })
    }
}

/// One index dropping that grew past what a canonical index covered:
/// its tail `[covered, len)` holds the only entries left to merge.
#[derive(Debug, Clone)]
pub struct Tail {
    pub rank: u32,
    pub index_path: String,
    pub covered: u64,
    pub len: u64,
}

/// What `canonical.index` holds, decided once for the reader, `fsck`,
/// `scrub` and `repair`.
pub(crate) enum Loaded {
    /// No cache file.
    Absent,
    /// Unreadable, torn or corrupt (its own checksum caught it).
    Undecodable(String),
    /// Decodes, but the droppings moved on since the merge.
    Stale(String),
    /// Usable: merge the listed dropping tails on top (none = fully warm).
    Fresh(CanonicalIndex, Vec<Tail>),
}

/// Load and validate `canonical.index`: `exists`, then `read_all` and
/// decode, then [`freshness`]. `backend` should already mask transient
/// faults (the reader passes a retried backend); any hard error reads
/// as undecodable or stale.
pub(crate) fn load(backend: &dyn Backend, paths: &ContainerPaths) -> Loaded {
    let path = paths.canonical_index();
    if !backend.exists(&path) {
        return Loaded::Absent;
    }
    match backend.read_all(&path).and_then(|blob| CanonicalIndex::decode(&blob)) {
        Err(e) => Loaded::Undecodable(e.to_string()),
        Ok(canon) => match freshness(backend, paths, &canon) {
            Ok(tails) => Loaded::Fresh(canon, tails),
            Err(why) => Loaded::Stale(why),
        },
    }
}

/// Validate a decoded canonical index against the container's current
/// state. `Ok(tails)` means usable; `Err(reason)` means stale.
fn freshness(
    backend: &dyn Backend,
    paths: &ContainerPaths,
    canon: &CanonicalIndex,
) -> Result<Vec<Tail>, String> {
    let watermark = epoch_watermark(backend, paths);
    if watermark != canon.watermark {
        return Err(format!("writer sessions advanced ({} -> {watermark})", canon.watermark));
    }
    let droppings =
        discover_droppings(backend, paths).map_err(|e| format!("discovery failed: {e}"))?;
    let mut covered: std::collections::HashMap<u32, u64> = canon.covered.iter().copied().collect();
    let mut tails = Vec::new();
    for (rank, index_path, _) in droppings {
        let len = backend.len(&index_path).map_err(|e| format!("len({index_path}) failed: {e}"))?;
        let Some(cov) = covered.remove(&rank) else {
            return Err(format!("rank {rank} appeared after the merge"));
        };
        if len < cov {
            return Err(format!("rank {rank} index shrank ({cov} -> {len})"));
        }
        if len > cov {
            tails.push(Tail { rank, index_path, covered: cov, len });
        }
    }
    if let Some((&rank, _)) = covered.iter().next() {
        return Err(format!("rank {rank}'s index dropping vanished"));
    }
    Ok(tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(lo: u64, len: u64, phys: u64, writer: u32, ts: u64) -> IndexEntry {
        IndexEntry { logical_offset: lo, length: len, physical_offset: phys, writer, timestamp: ts }
    }

    #[test]
    fn roundtrip() {
        let c = CanonicalIndex {
            watermark: 7,
            covered: vec![(0, 111), (3, 222)],
            fragments: vec![frag(0, 10, 0, 0, 5), frag(10, 20, 0, 3, 9)],
        };
        let enc = c.encode();
        assert_eq!(CanonicalIndex::decode(&enc).unwrap(), c);
    }

    #[test]
    fn roundtrip_empty() {
        let c = CanonicalIndex { watermark: 0, covered: vec![], fragments: vec![] };
        assert_eq!(CanonicalIndex::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn torn_and_garbage_blobs_rejected() {
        let c = CanonicalIndex {
            watermark: 1,
            covered: vec![(0, 37)],
            fragments: vec![frag(0, 10, 0, 0, 5)],
        };
        let enc = c.encode();
        for cut in [0, 5, 19, enc.len() - 1] {
            assert!(CanonicalIndex::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        let mut grown = enc.clone();
        grown.push(0);
        assert!(CanonicalIndex::decode(&grown).is_err(), "trailing junk");
        let mut wrong_magic = enc;
        wrong_magic[0] ^= 0xFF;
        assert!(CanonicalIndex::decode(&wrong_magic).is_err());
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        // Regression: the cache used to be trusted on stamp match
        // alone, so a flipped bit silently poisoned every warm open.
        let c = CanonicalIndex {
            watermark: 3,
            covered: vec![(0, 100), (1, 200), (9, 50)],
            fragments: (0..20).map(|i| frag(i * 32, 16, i * 16, (i % 3) as u32, 100 + i)).collect(),
        };
        let enc = c.encode();
        assert_eq!(CanonicalIndex::decode(&enc).unwrap(), c);
        for pos in 0..enc.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = enc.clone();
                bad[pos] ^= bit;
                assert!(
                    CanonicalIndex::decode(&bad).is_err(),
                    "flip at byte {pos} decoded cleanly"
                );
            }
        }
    }
}
