//! Std-only CRC32 (IEEE 802.3, polynomial `0xEDB88320`) and the
//! per-block checksum sidecar format used to detect silent corruption.
//!
//! The CRC kernel has two twins. On `x86_64` CPUs with PCLMULQDQ, an
//! update of at least 64 B folds its 16-byte-multiple bulk with
//! carry-less multiplies (four 128-bit lanes, then one, then a Barrett
//! reduction; Gopal et al., Intel 2009), about ten times faster. The
//! rest of the input, short updates, and every other CPU take the
//! portable slicing-by-16 kernel: each step folds 16 input bytes through
//! sixteen 256-entry tables, which are built at compile time (table `k`
//! advances table `k−1` by one zero byte), and fewer than 16 trailing
//! bytes take the classic bytewise step on table 0. Both twins compute
//! the plain IEEE CRC32, bit-for-bit what a bytewise loop computes, which
//! every stored CRC — sidecars, index and canonical records, chunk
//! headers, op-log digests — relies on.
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
//! (containers written before this format, a crash before the first
//! sidecar flush, or a sidecar `repair` removed) stay readable and are
//! reported as "uncovered" by `fsck` and `scrub` — the header's version
//! byte is the format escape hatch.
//!
//! Reading a sidecar is decided here too, once, for every caller: the
//! reader at open, `fsck`, `scrub` and `repair` all load through
//! `Sidecar::load` and verify through `Coverage::walk`. The loader says
//! what a sidecar claims (absent, unparseable, or which blocks it
//! covers); an entry that starts at or past the covered file's end is
//! an *overclaim*, a sidecar that rotted or outgrew its file. What to
//! do about each case is the caller's policy, not the loader's.

use crate::backend::Backend;
use crate::read::read_at_least;
use crate::retry::{len_or_zero_once, RetryPolicy};
use std::io;
use std::ops::{ControlFlow, Range};

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

/// Advance the raw (pre-inverted) CRC state over `bytes` by
/// slicing-by-16: the portable kernel, and the reference the hardware
/// fold is tested against.
fn slice16(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    c
}

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

    /// Absorb `bytes`. From 64 B up, the 16-byte-multiple bulk goes
    /// through the PCLMULQDQ fold where the CPU has it; the rest, and
    /// everything on other CPUs, through slicing-by-16.
    pub fn update(&mut self, bytes: &[u8]) {
        let bulk = bytes.len() & !15;
        self.state = match crate::accel::crc32_fold(self.state, &bytes[..bulk]) {
            Some(folded) => slice16(folded, &bytes[bulk..]),
            None => slice16(self.state, bytes),
        };
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
fn parse_chk(blob: &[u8]) -> io::Result<(u64, Vec<u32>)> {
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

/// Blocks per [`Coverage::walk`] backend read: 4 MiB at the default
/// block size, so a walk streams instead of materializing whole
/// droppings.
const SCRUB_BLOCKS_PER_READ: usize = 1024;

/// What one sidecar says about its covered file.
pub(crate) enum Sidecar {
    /// No sidecar file: the covered file is unverifiable, not suspect.
    Absent,
    /// The sidecar exists but its header is short or mangled. `len` is
    /// the sidecar's own length; `why` names the defect.
    Unparseable {
        len: u64,
        why: String,
    },
    Parsed(Coverage),
}

/// A parsed sidecar next to the covered file's length. Entry `k`
/// covers [`Coverage::block_range`]`(k)`; bytes past the last entry are
/// uncovered (a crash or mid-session tail).
pub(crate) struct Coverage {
    pub block: u64,
    pub crcs: Vec<u32>,
    /// Covered file length when the sidecar was loaded.
    pub len: u64,
    /// The sidecar ends in a partial entry (a torn append).
    pub torn: bool,
}

impl Sidecar {
    /// Load `sidecar` and measure `covered`: `exists`, then `read_all`,
    /// then (only once the header parses) `len`. An unreadable sidecar
    /// or a failed measurement is an error; only a missing covered file
    /// measures as empty.
    pub(crate) fn load(backend: &dyn Backend, covered: &str, sidecar: &str) -> io::Result<Self> {
        if !backend.exists(sidecar) {
            return Ok(Sidecar::Absent);
        }
        let blob = backend.read_all(sidecar)?;
        let (block, crcs) = match parse_chk(&blob) {
            Ok(p) => p,
            Err(e) => {
                return Ok(Sidecar::Unparseable { len: blob.len() as u64, why: e.to_string() })
            }
        };
        let torn = !(blob.len() - CHK_HEADER_BYTES).is_multiple_of(4);
        let len = len_or_zero_once(backend, covered)?;
        Ok(Sidecar::Parsed(Coverage { block, crcs, len, torn }))
    }
}

impl Coverage {
    /// Bytes entry `k` covers: `[k·block, min((k+1)·block, len))`,
    /// empty when the entry starts at or past the covered file's end.
    pub(crate) fn block_range(&self, k: usize) -> Range<u64> {
        let start = k as u64 * self.block;
        start.min(self.len)..(start + self.block).min(self.len)
    }

    /// The first entry that starts at or past the covered file's end:
    /// the sidecar claims bytes that do not exist.
    pub(crate) fn overclaim(&self) -> Option<usize> {
        let first_past = self.len.div_ceil(self.block) as usize;
        (first_past < self.crcs.len()).then_some(first_past)
    }

    /// Covered-file bytes past the last entry's coverage.
    pub(crate) fn uncovered(&self) -> u64 {
        self.len.saturating_sub(self.crcs.len() as u64 * self.block)
    }

    /// CRC-check every entry before any overclaim, in order, reading
    /// `covered` [`SCRUB_BLOCKS_PER_READ`] blocks per backend read
    /// (looping short reads). `f(k, range, ok)` sees each block; a
    /// `Break(b)` stops the walk, which then returns `Some(b)`.
    pub(crate) fn walk<B>(
        &self,
        backend: &dyn Backend,
        covered: &str,
        mut f: impl FnMut(usize, Range<u64>, bool) -> ControlFlow<B>,
    ) -> io::Result<Option<B>> {
        let end = self.overclaim().unwrap_or(self.crcs.len());
        let (mut buf, once) = (Vec::new(), RetryPolicy::none());
        for first in (0..end).step_by(SCRUB_BLOCKS_PER_READ) {
            let last = (first + SCRUB_BLOCKS_PER_READ).min(end) - 1;
            let base = self.block_range(first).start;
            let need = (self.block_range(last).end - base) as usize;
            buf.resize(need, 0);
            read_at_least(backend, &once, covered, base, &mut buf, need, &mut 0)?;
            for k in first..=last {
                let r = self.block_range(k);
                let bytes = &buf[(r.start - base) as usize..(r.end - base) as usize];
                if let ControlFlow::Break(b) = f(k, r, crc32(bytes) == self.crcs[k]) {
                    return Ok(Some(b));
                }
            }
        }
        Ok(None)
    }
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

    /// Append the encoded completed-block entries accumulated since the
    /// last take to `out`; both buffers keep their allocations.
    pub fn take_pending_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.pending);
        self.pending.clear();
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

    /// The hardware step: the PCLMULQDQ fold over the 16-byte-multiple
    /// bulk when there are at least 64 B of it, slicing-by-16 after.
    fn hardware(state: u32, bytes: &[u8]) -> u32 {
        let bulk = bytes.len() & !15;
        if bulk < 64 {
            return slice16(state, bytes);
        }
        let folded = crate::accel::crc32_fold(state, &bytes[..bulk]).expect("PCLMULQDQ vanished");
        slice16(folded, &bytes[bulk..])
    }

    #[test]
    fn clmul_fold_matches_slicing_by_16() {
        if crate::accel::crc32_fold(!0, &[0; 64]).is_none() {
            eprintln!("CPU lacks PCLMULQDQ: hardware step not compared");
            return;
        }
        let data = seeded_bytes(16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let piece = &data[start..start + len];
                assert_eq!(hardware(!0, piece), slice16(!0, piece), "start {start}, len {len}");
            }
        }
        // A split update hands the fold an arbitrary running state.
        let whole = slice16(!0, &data[..300]);
        for at in 0..=300 {
            let (a, b) = data[..300].split_at(at);
            assert_eq!(hardware(hardware(!0, a), b), whole, "split at {at}");
        }
        let big = seeded_bytes(1 << 20);
        assert_eq!(hardware(!0, &big), slice16(!0, &big));
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

    /// What the loader saw, then the walk: blocks visited, where the
    /// last one ended, and the entries that mismatched.
    fn describe(b: &dyn Backend) -> String {
        let cov = match Sidecar::load(b, "/data", "/chk").unwrap() {
            Sidecar::Absent => return "absent".into(),
            Sidecar::Unparseable { len, why } => return format!("{why} ({len} B)"),
            Sidecar::Parsed(cov) => cov,
        };
        let (mut n, mut end, mut bad) = (0, 0, Vec::new());
        let walk = cov.walk(b, "/data", |k, r, ok| {
            assert!(k == n && r.start == end, "block {k} at {r:?} does not follow on");
            (n, end) = (n + 1, r.end);
            bad.extend((!ok).then_some(k));
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(walk.unwrap(), None);
        let (len, torn, over, unc) = (cov.crcs.len(), cov.torn, cov.overclaim(), cov.uncovered());
        let walked = format!("walked {n} to {end}, bad {bad:?}");
        format!("{len} entries, torn {torn}, over {over:?}, uncovered {unc}; {walked}")
    }

    #[test]
    fn loader_and_walk_read_every_sidecar_shape() {
        let b = crate::backend::MemBackend::new();
        let data = seeded_bytes(9000); // two full blocks and an 808 B tail
        b.append("/data", &data).unwrap();
        let entries = |block| -> Vec<u8> {
            let crcs = data.chunks(block as usize).flat_map(|c| crc32(c).to_le_bytes());
            chk_header(block).into_iter().chain(crcs).collect()
        };
        let (hdr, all) = (&entries(4096)[..CHK_HEADER_BYTES], entries(4096));
        let edit = |at: usize, mask: u8| {
            let mut blob = all.clone();
            blob[at] ^= mask;
            blob
        };
        let cases = [
            ("absent", None, "absent"),
            ("short header", Some(hdr[..5].to_vec()), "chk sidecar: short header (5 B)"),
            ("bad magic", Some(edit(0, 1)), "chk sidecar: bad magic (25 B)"),
            ("version", Some(edit(8, 8)), "chk sidecar: unknown format version (25 B)"),
            (
                "header only",
                Some(hdr.to_vec()),
                "0 entries, torn false, over None, uncovered 9000; walked 0 to 0, bad []",
            ),
            (
                "torn trailing bytes",
                Some(all[..CHK_HEADER_BYTES + 10].to_vec()),
                "2 entries, torn true, over None, uncovered 808; walked 2 to 8192, bad []",
            ),
            (
                "partial tail block",
                Some(all.clone()),
                "3 entries, torn false, over None, uncovered 0; walked 3 to 9000, bad []",
            ),
            (
                "overclaim",
                Some([&all[..], &[0; 8]].concat()),
                "5 entries, torn false, over Some(3), uncovered 0; walked 3 to 9000, bad []",
            ),
            (
                "three backend reads", // 4-byte blocks, 1024 per read
                Some(entries(4)),
                "2250 entries, torn false, over None, uncovered 0; walked 2250 to 9000, bad []",
            ),
            (
                "rotten entry",
                Some(edit(CHK_HEADER_BYTES + 4, 1)),
                "3 entries, torn false, over None, uncovered 0; walked 3 to 9000, bad [1]",
            ),
        ];
        for (case, sidecar, want) in cases {
            let _ = b.remove("/chk");
            if let Some(blob) = sidecar {
                b.append("/chk", &blob).unwrap();
            }
            assert_eq!(describe(&b), want, "{case}");
        }
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
        let mut pending = Vec::new();
        b.take_pending_into(&mut pending);
        b.take_pending_into(&mut pending);
        assert_eq!(pending.len(), 12, "a take leaves nothing for the next one");
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
