//! Std-only CRC32 (IEEE 802.3, polynomial `0xEDB88320`) and the
//! per-block checksum sidecar format used to detect silent corruption.
//!
//! The CRC kernel is slicing-by-16: each step folds 16 input bytes
//! through sixteen 256-entry tables, which are built at compile time
//! (table `k` advances table `k−1` by one zero byte), so nothing is
//! initialised at run time. Fewer than 16 trailing bytes take the
//! classic bytewise step on table 0. The digest is the plain IEEE CRC32,
//! bit-for-bit what a bytewise loop computes, which every stored CRC —
//! sidecars, index and canonical records, chunk headers, op-log digests —
//! relies on.
//!
//! Droppings stay dense append-only logs — checksums live in a sidecar
//! file per dropping (`chk.R` covering `data.R`, `chki.R` covering
//! `index.R`): a fixed header followed by one little-endian CRC32 per
//! [`VERIFY_BLOCK`]-byte block of the covered file. Entry `k` covers
//! bytes `[k·B, min((k+1)·B, len))`, where `len` is the covered file's
//! length when its final (possibly partial) block was hashed at close.
//! Block granularity is what lets the coalescing read engine verify
//! inside a single swept backend read, and lets `scrub` walk a
//! container without decoding it.
//!
//! The writer appends sidecar entries strictly *after* the bytes they
//! cover land (data → chk, index → chki), so a crash can leave a tail
//! uncovered but never covered-and-wrong. Files without a sidecar
//! (containers written before this format, or with checksumming
//! disabled) stay readable and are reported as "uncovered" by `fsck`
//! and `scrub` — the header's version byte is the format escape hatch.

use std::io;

/// Bytes covered by one sidecar CRC entry.
pub const VERIFY_BLOCK: u64 = 4096;

/// Sidecar header layout: magic (8) + format version (1) + covered
/// block size (u32 LE) = 13 bytes, then whole `u32` LE CRC entries.
pub const CHK_HEADER_BYTES: usize = 13;

const CHK_MAGIC: &[u8; 8] = b"PLFSCHK1";
const CHK_VERSION: u8 = 1;

/// The slicing-by-16 tables: table 0 is the bytewise table, and
/// `[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes.
const fn build_table() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = build_table();

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC32 hasher (same digest as [`crc32`] over the
/// concatenated updates). The writer keeps one of these per dropping so
/// blocks are hashed as bytes land, never by re-reading the store.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for block in blocks {
            // The state folds into the first four bytes; byte `j` then
            // sits `15 - j` bytes before the end of the block.
            let mut lane = *block;
            for (b, s) in lane.iter_mut().zip(c.to_le_bytes()) {
                *b ^= s;
            }
            c = lane.iter().enumerate().fold(0, |x, (j, &b)| x ^ t[15 - j][b as usize]);
        }
        for &b in tail {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The digest so far; the hasher remains usable.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Encode a sidecar header for `block`-byte coverage.
pub fn chk_header(block: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(CHK_HEADER_BYTES);
    v.extend_from_slice(CHK_MAGIC);
    v.push(CHK_VERSION);
    v.extend_from_slice(&block.to_le_bytes());
    v
}

/// Parse a sidecar blob into `(block size, CRC entries)`.
///
/// Trailing bytes that do not form a whole entry are ignored — a torn
/// sidecar append is a crash artifact, and the whole entries before it
/// are still valid. A short or mangled header is an error: the sidecar
/// itself rotted, and nothing in it can be trusted.
pub fn parse_chk(blob: &[u8]) -> io::Result<(u64, Vec<u32>)> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("chk sidecar: {why}"));
    if blob.len() < CHK_HEADER_BYTES {
        return Err(bad("short header"));
    }
    if &blob[..8] != CHK_MAGIC {
        return Err(bad("bad magic"));
    }
    if blob[8] != CHK_VERSION {
        return Err(bad("unknown format version"));
    }
    let block = u32::from_le_bytes(blob[9..13].try_into().unwrap()) as u64;
    if block == 0 {
        return Err(bad("zero block size"));
    }
    let body = &blob[CHK_HEADER_BYTES..];
    let crcs = body.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
    Ok((block, crcs))
}

/// Incrementally hashes an append-only stream into sidecar entries.
///
/// Feed every byte that *successfully landed* (in landing order)
/// through [`ChkBuilder::absorb`]; completed-block CRCs accumulate as
/// encoded sidecar bytes in `pending` for the caller to append to the
/// sidecar file. At close, [`ChkBuilder::tail_crc`] yields the CRC of
/// the final partial block, if any.
#[derive(Debug)]
pub struct ChkBuilder {
    block: u64,
    partial: Crc32,
    partial_len: u64,
    pending: Vec<u8>,
}

impl ChkBuilder {
    pub fn new(block: u64) -> Self {
        assert!(block > 0);
        ChkBuilder { block, partial: Crc32::new(), partial_len: 0, pending: Vec::new() }
    }

    /// Hash `data` as the next bytes of the covered stream.
    pub fn absorb(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let room = (self.block - self.partial_len) as usize;
            let take = data.len().min(room);
            self.partial.update(&data[..take]);
            self.partial_len += take as u64;
            data = &data[take..];
            if self.partial_len == self.block {
                self.pending.extend_from_slice(&self.partial.finish().to_le_bytes());
                self.partial = Crc32::new();
                self.partial_len = 0;
            }
        }
    }

    /// Encoded completed-block entries accumulated since the last take.
    pub fn take_pending(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.pending)
    }

    /// CRC of the current partial block (`None` on a block boundary).
    pub fn tail_crc(&self) -> Option<u32> {
        (self.partial_len > 0).then(|| self.partial.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise single-table loop: the reference the sliced kernel
    /// must match bit for bit.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut z = 0x5EED_C0DE;
        (0..len).map(|_| simkit::rng::splitmix64(&mut z) as u8).collect()
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Long enough to take the 16-byte lanes.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn sliced_kernel_matches_bytewise_reference() {
        let data = seeded_bytes(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let piece = &data[start..start + len];
                assert_eq!(crc32(piece), reference_crc32(piece), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = seeded_bytes(300);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 4096];
        data[1234] = 7;
        let clean = crc32(&data);
        for bit in 0..8 {
            data[1234] ^= 1 << bit;
            assert_ne!(crc32(&data), clean, "flip of bit {bit} undetected");
            data[1234] ^= 1 << bit;
        }
    }

    #[test]
    fn header_roundtrips_and_rejects_garbage() {
        let hdr = chk_header(4096);
        assert_eq!(hdr.len(), CHK_HEADER_BYTES);
        let (block, crcs) = parse_chk(&hdr).unwrap();
        assert_eq!(block, 4096);
        assert!(crcs.is_empty());
        assert!(parse_chk(&hdr[..5]).is_err(), "short header");
        let mut bad = hdr.clone();
        bad[0] ^= 1;
        assert!(parse_chk(&bad).is_err(), "bad magic");
        let mut vers = hdr.clone();
        vers[8] = 9;
        assert!(parse_chk(&vers).is_err(), "unknown version");
    }

    #[test]
    fn parse_tolerates_torn_entry_tail() {
        let mut blob = chk_header(512);
        blob.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        blob.extend_from_slice(&[1, 2]); // torn second entry
        let (_, crcs) = parse_chk(&blob).unwrap();
        assert_eq!(crcs, vec![0xDEAD_BEEF]);
    }

    #[test]
    fn builder_matches_per_block_hashing() {
        let block = 256u64;
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut b = ChkBuilder::new(block);
        // Absorb in awkward chunk sizes crossing block boundaries.
        for chunk in data.chunks(37) {
            b.absorb(chunk);
        }
        let pending = b.take_pending();
        let crcs: Vec<u32> =
            pending.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(crcs.len(), 3, "three completed 256-byte blocks");
        for (k, crc) in crcs.iter().enumerate() {
            assert_eq!(*crc, crc32(&data[k * 256..(k + 1) * 256]));
        }
        assert_eq!(b.tail_crc(), Some(crc32(&data[768..])), "partial tail block");
        let mut aligned = ChkBuilder::new(250);
        aligned.absorb(&data);
        assert_eq!(aligned.tail_crc(), None, "no partial block at a boundary");
    }
}
