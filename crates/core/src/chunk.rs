//! Content-addressed chunk store — a dedup/compression layer under any
//! [`Backend`].
//!
//! Repeated checkpoints are overwhelmingly *similar*: an application
//! dumping its state every few minutes rewrites mostly-identical bytes,
//! and a petascale store that persists every copy verbatim pays for the
//! same data N times. [`ChunkBackend`] slots transparently beneath the
//! PLFS container (it implements [`Backend`], so anything that stacks
//! on a backend — the writer, fsck, the replay harness — works
//! unchanged) and stores file contents exactly once per distinct chunk:
//!
//! - **Content-defined boundaries.** A seeded gear rolling hash cuts
//!   each appended run into chunks wherever the low `mask_bits` bits of
//!   the rolling state hit zero (bounded by `min`/`max`). Boundaries
//!   depend only on nearby bytes, so inserting data mid-stream reshifts
//!   only the O(1) neighbouring chunks — the rest re-align and dedup.
//! - **Digest addressing.** Each chunk is stored at
//!   `<pool>/<sha256-hex>`; a chunk whose blob already exists is not
//!   written again (the dedup hit). Blobs are published by staging to a
//!   temp name and committing with one atomic [`Backend::rename`], so a
//!   half-written blob is never visible under its digest.
//! - **Self-verifying blobs.** Every blob carries a header (magic,
//!   version, codec, plaintext length, plaintext CRC32) and the read
//!   path additionally recomputes the SHA-256 and compares it with the
//!   digest in the file's manifest — verify-on-digest, end to end.
//! - **Compression.** Chunk payloads are RLE-compressed when that wins,
//!   stored raw otherwise (negotiated per blob via the codec byte). The
//!   encoded size is measured before any RLE body is built, so a chunk
//!   that stays raw costs one word-at-a-time scan for runs and no
//!   encoded copy.
//!
//! What the inner backend sees for a "file" is its **manifest**: a flat
//! sequence of `(length, digest)` records, appended in the same order
//! as the logical bytes. Blobs land (and are atomically published)
//! *before* the manifest records that reference them — the same
//! data-before-index ordering the PLFS writer uses — which is what
//! makes [`ChunkBackend::gc`] safe: any pool blob not referenced by a
//! complete manifest record is provably unacknowledged garbage.

use crate::backend::Backend;
use crate::checksum::crc32;
use crate::pool;
use obs::trace::{Phase, TraceCtx};
use obs::{Counter, Registry};
use simkit::rng::splitmix64;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ------------------------------------------------------------- SHA-256

/// The SHA-256 round constants (FIPS 180-4 §4.2.2), shared by the
/// portable step and the hardware step in `accel`.
pub(crate) const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// One SHA-256 compression step: fold whole 64-byte blocks into the
/// state.
type Compress = fn(&mut [u32; 8], &[[u8; 64]]);

/// The hardware step where the CPU has the SHA extensions, else the
/// portable one.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if !crate::accel::sha256_compress(state, blocks) {
        compress_portable(state, blocks);
    }
}

/// The portable compression step, and the reference the hardware step
/// is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, word) in block.as_chunks::<4>().0.iter().enumerate() {
            w[i] = u32::from_be_bytes(*word);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 =
                hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in state.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
}

/// The streaming SHA-256 driver over one compression step. Whole
/// blocks are compressed straight from the caller's slice; only a
/// partial block waits in `tail`.
struct Sha256 {
    state: [u32; 8],
    tail: [u8; 64],
    tail_len: usize,
    total: u64,
    compress: Compress,
}

impl Sha256 {
    fn new(compress: Compress) -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            tail: [0; 64],
            tail_len: 0,
            total: 0,
            compress,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.tail_len > 0 {
            let take = data.len().min(64 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 64 {
                return;
            }
            (self.compress)(&mut self.state, &[self.tail]);
            self.tail_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        (self.compress)(&mut self.state, blocks);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Pad (0x80, zeros, the bit length) into one or two blocks on the
    /// stack and compress them.
    fn finish(mut self) -> [u8; 32] {
        let mut pad = [0u8; 128];
        pad[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        pad[self.tail_len] = 0x80;
        let end = if self.tail_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&self.total.wrapping_mul(8).to_be_bytes());
        (self.compress)(&mut self.state, pad[..end].as_chunks::<64>().0);
        let mut out = [0u8; 32];
        for (o, v) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *o = v.to_be_bytes();
        }
        out
    }
}

/// SHA-256 of `data` (FIPS 180-4; the test module pins its vectors).
/// In-tree, std only: on `x86_64` CPUs with the SHA extensions the
/// compression rounds run on them, elsewhere on portable code, and the
/// two give the same digest bit for bit. The input is never copied;
/// only the last partial block and the padding pass through a stack
/// buffer.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new(compress);
    h.update(data);
    h.finish()
}

fn hex(digest: &[u8; 32]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for b in digest {
        s.push(TABLE[(b >> 4) as usize] as char);
        s.push(TABLE[(b & 0xf) as usize] as char);
    }
    s
}

// ------------------------------------------------------------- chunker

/// Content-defined chunking parameters. `mask_bits` sets the expected
/// chunk size (`2^mask_bits` bytes past `min`); `min`/`max` bound the
/// extremes so pathological content can neither explode the manifest
/// nor defeat dedup with one giant chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    pub min: usize,
    pub max: usize,
    pub mask_bits: u32,
    /// Seeds the gear table; both sides of a dedup comparison must use
    /// the same seed or no boundaries (and so no digests) line up.
    pub seed: u64,
}

impl Default for ChunkParams {
    fn default() -> Self {
        // ~8 KiB expected chunks: small enough that a few changed bytes
        // in a multi-megabyte checkpoint dirty only a few chunks, large
        // enough that manifest overhead (36 B/chunk) stays under 0.5%.
        ChunkParams { min: 2048, max: 65536, mask_bits: 13, seed: 0x504c_4653 }
    }
}

/// The gear table, seeded deterministically through splitmix64.
fn gear_table(seed: u64) -> Box<[u64; 256]> {
    let mut t = Box::new([0u64; 256]);
    for (i, slot) in t.iter_mut().enumerate() {
        *slot = splitmix64(&mut (seed ^ (i as u64).wrapping_mul(0x0100_0000_01b3)));
    }
    t
}

/// Split `data` into content-defined chunks (returned as subslices, in
/// order, covering all of `data`). Deterministic in `(data, params)`:
/// the gear state `h = (h << 1) + table[byte]` forgets bytes more than
/// 64 positions back, so a boundary depends only on its local window —
/// the property that re-aligns chunks after an insertion.
///
/// The same property lets each chunk skip ahead: no cut can come before
/// `min` bytes, so hashing starts 64 bytes before that point and still
/// reaches it with exactly the state a byte-by-byte walk from the chunk
/// start would have. A chunk is at least 1 byte long even when `max` is
/// 0, and `min > max` means every chunk is cut at `max`.
pub fn split<'d>(data: &'d [u8], params: &ChunkParams, table: &[u64; 256]) -> Vec<&'d [u8]> {
    let mask: u64 = (1u64 << params.mask_bits) - 1;
    let max = params.max.max(1);
    let min = params.min.clamp(1, max);
    let mut out = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        let window = &rest[..rest.len().min(max)];
        let mut len = window.len();
        if len >= min {
            let mut h = 0u64;
            for &b in &window[min.saturating_sub(64)..min - 1] {
                h = (h << 1).wrapping_add(table[b as usize]);
            }
            for (i, &b) in window.iter().enumerate().skip(min - 1) {
                h = (h << 1).wrapping_add(table[b as usize]);
                if h & mask == 0 {
                    len = i + 1;
                    break;
                }
            }
        }
        let (chunk, tail) = rest.split_at(len);
        out.push(chunk);
        rest = tail;
    }
    out
}

// ----------------------------------------------------------- RLE codec

const MAX_LITERAL: usize = 128; // tag 0x00..=0x7F → (tag + 1) literals
const MIN_RUN: usize = 4; // shorter runs cost more than they save
const MAX_RUN: usize = 0x7F + MIN_RUN; // tag 0x80..=0xFF → run length

/// Byte-oriented RLE: `tag < 0x80` is a literal block of `tag + 1`
/// bytes; `tag >= 0x80` repeats the following byte `tag - 0x80 + 4`
/// times. Checkpoint pages full of zeros (or any repeated fill)
/// collapse ~128:1; incompressible data grows slightly, so the blob
/// encoder falls back to storing raw whenever RLE does not win.
///
/// The encoder is greedy: every stretch of at least `MIN_RUN` equal
/// bytes becomes run tokens of at most `MAX_RUN`, and everything
/// between them literal blocks of at most `MAX_LITERAL`.
fn rle_compress(data: &[u8], out: &mut Vec<u8>) {
    rle_walk(data, |lit, run| {
        for block in lit.chunks(MAX_LITERAL) {
            out.push((block.len() - 1) as u8);
            out.extend_from_slice(block);
        }
        if let Some((fill, len)) = run {
            out.extend_from_slice(&[(0x80 + (len - MIN_RUN)) as u8, fill]);
        }
    });
}

/// Bytes [`rle_compress`] would emit for `data`, without emitting them.
fn rle_len(data: &[u8]) -> usize {
    let mut len = 0;
    rle_walk(data, |lit, run| {
        len += lit.len() + lit.len().div_ceil(MAX_LITERAL) + if run.is_some() { 2 } else { 0 };
    });
    len
}

/// The greedy token walk shared by [`rle_compress`] and [`rle_len`]:
/// `emit` gets the literal stretch before each run (possibly empty)
/// with that run's `(fill, len)`, and finally the trailing literals
/// with `None`.
fn rle_walk(data: &[u8], mut emit: impl FnMut(&[u8], Option<(u8, usize)>)) {
    let mut i = 0;
    while let Some(p) = find_run(data, i) {
        let fill = data[p];
        let len = data[p..].iter().take(MAX_RUN).take_while(|&&b| b == fill).count();
        emit(&data[i..p], Some((fill, len)));
        i = p + len;
    }
    emit(&data[i..], None);
}

/// The first position at or after `from` where `MIN_RUN` (4) equal
/// bytes start. Word at a time: XOR-ing a little-endian load with
/// itself shifted by 1, 2 and 3 bytes leaves lane `k` zero exactly when
/// bytes `k..k + 4` are equal, for the 5 lanes whose four bytes lie
/// inside the load; the has-zero-byte test finds the lowest such lane
/// (its false positives only ever sit above a true zero).
fn find_run(data: &[u8], from: usize) -> Option<usize> {
    const LANES: usize = 5; // 8 - (MIN_RUN - 1)
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Lanes past `LANES` would compare against bytes beyond the load.
    const OUTSIDE: u64 = !0 << (8 * LANES);
    let mut p = from;
    while let Some(word) = data.get(p..p + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
        let diff = (w ^ (w >> 8)) | (w ^ (w >> 16)) | (w ^ (w >> 24)) | OUTSIDE;
        let zero = diff.wrapping_sub(ONES) & !diff & HIGHS;
        if zero != 0 {
            return Some(p + zero.trailing_zeros() as usize / 8);
        }
        p += LANES;
    }
    let end = (data.len() + 1).saturating_sub(MIN_RUN);
    (p..end).find(|&q| data[q + 1..q + MIN_RUN].iter().all(|&b| b == data[q]))
}

fn rle_decompress(mut body: &[u8], expect: usize) -> io::Result<Vec<u8>> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("chunk rle: {why}"));
    let mut out = Vec::with_capacity(expect);
    while let Some((&tag, rest)) = body.split_first() {
        if tag < 0x80 {
            let n = tag as usize + 1;
            if rest.len() < n {
                return Err(bad("truncated literal block"));
            }
            out.extend_from_slice(&rest[..n]);
            body = &rest[n..];
        } else {
            let Some((&fill, rest)) = rest.split_first() else {
                return Err(bad("truncated run token"));
            };
            out.resize(out.len() + (tag as usize - 0x80 + MIN_RUN), fill);
            body = rest;
        }
        if out.len() > expect {
            return Err(bad("output overruns declared length"));
        }
    }
    if out.len() != expect {
        return Err(bad("output shorter than declared length"));
    }
    Ok(out)
}

// ---------------------------------------------------------- blob format

const BLOB_MAGIC: &[u8; 8] = b"PLFSCHNK";
const BLOB_VERSION: u8 = 1;
const CODEC_RAW: u8 = 0;
const CODEC_RLE: u8 = 1;
/// magic(8) + version(1) + codec(1) + plaintext len(4 LE) + plaintext
/// CRC32(4 LE).
pub const BLOB_HEADER_BYTES: usize = 18;

/// Encode one chunk as a pool blob: self-describing header + payload in
/// whichever codec is smaller (compression negotiation is per blob —
/// readers honor the codec byte, so future codecs only need a new tag).
/// The RLE body is sized first and built only when it is the smaller.
fn encode_blob(plain: &[u8]) -> Vec<u8> {
    let rle_len = rle_len(plain);
    let rle = rle_len < plain.len();
    let mut v = Vec::with_capacity(BLOB_HEADER_BYTES + rle_len.min(plain.len()));
    v.extend_from_slice(BLOB_MAGIC);
    v.push(BLOB_VERSION);
    v.push(if rle { CODEC_RLE } else { CODEC_RAW });
    v.extend_from_slice(&(plain.len() as u32).to_le_bytes());
    v.extend_from_slice(&crc32(plain).to_le_bytes());
    if rle {
        rle_compress(plain, &mut v);
    } else {
        v.extend_from_slice(plain);
    }
    v
}

/// Decode and verify a pool blob back to its plaintext. Every field is
/// checked: magic/version/codec, declared length, and the plaintext
/// CRC32 recomputed over the decompressed bytes.
fn decode_blob(blob: &[u8]) -> io::Result<Vec<u8>> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("chunk blob: {why}"));
    if blob.len() < BLOB_HEADER_BYTES {
        return Err(bad("short header"));
    }
    if &blob[..8] != BLOB_MAGIC {
        return Err(bad("bad magic"));
    }
    if blob[8] != BLOB_VERSION {
        return Err(bad("unknown version"));
    }
    let codec = blob[9];
    let plain_len = u32::from_le_bytes(blob[10..14].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(blob[14..18].try_into().unwrap());
    let body = &blob[BLOB_HEADER_BYTES..];
    let plain = match codec {
        CODEC_RAW => {
            if body.len() != plain_len {
                return Err(bad("raw payload length mismatch"));
            }
            body.to_vec()
        }
        CODEC_RLE => rle_decompress(body, plain_len)?,
        _ => return Err(bad("unknown codec")),
    };
    if crc32(&plain) != crc {
        return Err(bad("plaintext crc mismatch"));
    }
    Ok(plain)
}

// ------------------------------------------------------------- manifest

/// One manifest record: chunk length (u32 LE) + SHA-256 digest.
const RECORD_BYTES: usize = 36;

/// Complete `(len, digest)` records of a manifest; a torn trailing
/// partial record is ignored (it references bytes that were never
/// acknowledged — the same contract as a torn index dropping tail).
fn parse_manifest(blob: &[u8]) -> Vec<(u32, [u8; 32])> {
    blob.chunks_exact(RECORD_BYTES)
        .map(|r| {
            let len = u32::from_le_bytes(r[..4].try_into().unwrap());
            let mut d = [0u8; 32];
            d.copy_from_slice(&r[4..]);
            (len, d)
        })
        .collect()
}

// -------------------------------------------------------------- metrics

#[derive(Clone)]
struct ChunkMetrics {
    /// Chunks whose blob already existed (no pool write needed).
    dedup_hits: Counter,
    /// Plaintext bytes those hits avoided storing.
    dedup_bytes: Counter,
    /// Blob bytes actually written to the pool (post-compression,
    /// including headers) — compare with `ingest_bytes` for the ratio.
    compressed_bytes: Counter,
    /// Plaintext bytes appended through the layer.
    ingest_bytes: Counter,
    /// New blobs published.
    blobs_written: Counter,
    /// Orphan blobs removed by [`ChunkBackend::gc`].
    gc_swept: Counter,
}

impl ChunkMetrics {
    fn unregistered() -> Self {
        ChunkMetrics {
            dedup_hits: Counter::new(),
            dedup_bytes: Counter::new(),
            compressed_bytes: Counter::new(),
            ingest_bytes: Counter::new(),
            blobs_written: Counter::new(),
            gc_swept: Counter::new(),
        }
    }

    fn registered(reg: &Registry) -> Self {
        ChunkMetrics {
            dedup_hits: reg.counter("chunk.dedup_hits"),
            dedup_bytes: reg.counter("chunk.dedup_bytes"),
            compressed_bytes: reg.counter("chunk.compressed_bytes"),
            ingest_bytes: reg.counter("chunk.ingest_bytes"),
            blobs_written: reg.counter("chunk.blobs_written"),
            gc_swept: reg.counter("chunk.gc_swept"),
        }
    }
}

// -------------------------------------------------------- ChunkBackend

/// Bounded digest-keyed chunk cache. Chunks are immutable by
/// construction (a digest names exactly one plaintext), so plain FIFO
/// eviction is correct — there is nothing to invalidate, ever.
struct ChunkCache {
    map: HashMap<[u8; 32], Arc<Vec<u8>>>,
    order: VecDeque<[u8; 32]>,
    cap: usize,
}

impl ChunkCache {
    fn get(&self, d: &[u8; 32]) -> Option<Arc<Vec<u8>>> {
        self.map.get(d).cloned()
    }

    fn put(&mut self, d: [u8; 32], chunk: Arc<Vec<u8>>) {
        if self.map.insert(d, chunk).is_none() {
            self.order.push_back(d);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// What [`ChunkBackend::gc`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Distinct digests referenced by complete manifest records under
    /// the roots (the live set).
    pub live: usize,
    /// Unreferenced blobs removed.
    pub swept: usize,
    /// Plaintext-equivalent blob bytes reclaimed.
    pub swept_bytes: u64,
    /// Abandoned `tmp.*` staging files removed (a crash between staging
    /// a blob and the rename that publishes it).
    pub temps_swept: usize,
}

/// What [`ChunkBackend::scrub_pool`] found.
#[derive(Debug, Clone, Default)]
pub struct ChunkScrubReport {
    /// Blobs verified (header + CRC + digest-vs-filename).
    pub blobs: usize,
    /// Pool paths that failed verification.
    pub corrupt: Vec<String>,
}

/// A [`Backend`] that stores file contents content-addressed: files
/// become manifests of `(len, digest)` records and the bytes live in a
/// shared dedup pool. See the module docs for the design; see
/// [`ChunkBackend::gc`]/[`ChunkBackend::scrub_pool`] for maintenance.
///
/// Only `append`, `read_at` and `len` translate between bytes and
/// manifests; every other call goes to the manifest in the inner store
/// unchanged. Truncating (`create`), renaming or removing a manifest
/// leaves the chunks it referenced in the pool, where other manifests
/// may share them, until the next gc.
pub struct ChunkBackend {
    inner: Arc<dyn Backend>,
    params: ChunkParams,
    table: Box<[u64; 256]>,
    pool_root: String,
    /// Serializes append's read-manifest → publish-blobs → extend-
    /// manifest cycle so concurrent appenders to one file can't compute
    /// the same logical base offset.
    append_lock: Mutex<()>,
    tmp_seq: AtomicU64,
    cache: Mutex<ChunkCache>,
    metrics: ChunkMetrics,
    trace: TraceCtx,
}

/// Where the shared blob pool lives in the inner store. A dot-name so
/// it can never collide with a PLFS container path component.
pub const DEFAULT_POOL_ROOT: &str = "/.chunks";

const CACHE_CHUNKS: usize = 64;

impl ChunkBackend {
    /// Unobserved layer with default parameters over `inner`.
    pub fn new(inner: Arc<dyn Backend>) -> Self {
        Self::with_params(inner, ChunkParams::default())
    }

    pub fn with_params(inner: Arc<dyn Backend>, params: ChunkParams) -> Self {
        ChunkBackend {
            table: gear_table(params.seed),
            inner,
            params,
            pool_root: DEFAULT_POOL_ROOT.to_string(),
            append_lock: Mutex::new(()),
            tmp_seq: AtomicU64::new(0),
            cache: Mutex::new(ChunkCache {
                map: HashMap::new(),
                order: VecDeque::new(),
                cap: CACHE_CHUNKS,
            }),
            metrics: ChunkMetrics::unregistered(),
            trace: TraceCtx::disabled(),
        }
    }

    /// Observed layer: `chunk.*` counters into `reg`, `plfs.chunk.*`
    /// spans into `trace`.
    pub fn observed(
        inner: Arc<dyn Backend>,
        params: ChunkParams,
        reg: &Registry,
        trace: TraceCtx,
    ) -> Self {
        let mut b = Self::with_params(inner, params);
        b.metrics = ChunkMetrics::registered(reg);
        b.trace = trace;
        b
    }

    /// The wrapped backend (e.g. to inspect raw manifests in tests).
    pub fn inner(&self) -> &Arc<dyn Backend> {
        &self.inner
    }

    pub fn params(&self) -> &ChunkParams {
        &self.params
    }

    fn blob_path(&self, hexd: &str) -> String {
        format!("{}/{hexd}", self.pool_root)
    }

    /// `(blobs, blob_bytes)` currently stored in the pool — the
    /// denominator of a dedup ratio.
    pub fn pool_usage(&self) -> io::Result<(u64, u64)> {
        let names = match self.inner.list(&self.pool_root) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => return Err(e),
        };
        let mut blobs = 0u64;
        let mut bytes = 0u64;
        for name in names {
            blobs += 1;
            bytes += self.inner.len(&self.blob_path(&name)).unwrap_or(0);
        }
        Ok((blobs, bytes))
    }

    /// Publish `chunk` into the pool unless its digest is already
    /// there. Staged under `tmp.*` and committed with one atomic
    /// rename, so a reader (or a concurrent dedup probe) never sees a
    /// torn blob under a digest name.
    fn publish(&self, chunk: &[u8], digest: &[u8; 32]) -> io::Result<()> {
        let hexd = hex(digest);
        let path = self.blob_path(&hexd);
        if self.inner.exists(&path) {
            self.metrics.dedup_hits.inc();
            self.metrics.dedup_bytes.add(chunk.len() as u64);
            return Ok(());
        }
        let blob = encode_blob(chunk);
        let tmp = format!(
            "{}/tmp.{hexd}.{}",
            self.pool_root,
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        );
        self.inner.create(&tmp)?;
        self.inner.append(&tmp, &blob)?;
        self.inner.rename(&tmp, &path)?;
        self.metrics.blobs_written.inc();
        self.metrics.compressed_bytes.add(blob.len() as u64);
        Ok(())
    }

    /// Load + fully verify the chunk named by `digest` (header, CRC,
    /// and the digest itself recomputed over the plaintext).
    fn load_chunk(&self, digest: &[u8; 32]) -> io::Result<Arc<Vec<u8>>> {
        if let Some(hit) = self.cache.lock().unwrap().get(digest) {
            return Ok(hit);
        }
        let hexd = hex(digest);
        let blob = self.inner.read_all(&self.blob_path(&hexd)).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("chunk blob {hexd} missing from pool"),
                )
            } else {
                e
            }
        })?;
        let plain = decode_blob(&blob)?;
        if sha256(&plain) != *digest {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("chunk blob {hexd}: digest mismatch"),
            ));
        }
        let chunk = Arc::new(plain);
        self.cache.lock().unwrap().put(*digest, chunk.clone());
        Ok(chunk)
    }

    fn manifest_records(&self, path: &str) -> io::Result<Vec<(u32, [u8; 32])>> {
        Ok(parse_manifest(&self.inner.read_all(path)?))
    }

    /// Collect the live digest set reachable from `root` (every
    /// complete manifest record of every file under it).
    fn mark(&self, path: &str, live: &mut HashSet<String>) -> io::Result<()> {
        // Directory-vs-file: a listable path with children is a
        // directory; otherwise try it as a manifest. An empty directory
        // fails the manifest read with NotFound and contributes
        // nothing, which is correct — it references no chunks.
        if let Ok(children) = self.inner.list(path) {
            if !children.is_empty() {
                for c in children {
                    self.mark(&format!("{path}/{c}"), live)?;
                }
                return Ok(());
            }
        }
        if let Ok(blob) = self.inner.read_all(path) {
            for (_, d) in parse_manifest(&blob) {
                live.insert(hex(&d));
            }
        }
        Ok(())
    }

    /// Mark-and-sweep the pool: every blob not referenced by a complete
    /// manifest record under `roots` is removed, as is every abandoned
    /// `tmp.*` staging file. Safe because blobs are published *before*
    /// the manifest records that reference them (data-before-index): an
    /// unreferenced blob can only be garbage from an unacknowledged
    /// append or an already-deleted file, never data a reader could
    /// still reach. Callers must pass every root that holds manifests
    /// over this pool.
    pub fn gc(&self, roots: &[&str]) -> io::Result<GcReport> {
        let _span = self.trace.start("plfs.chunk.gc", Phase::Other, "chunk", 0);
        let mut live = HashSet::new();
        for root in roots {
            self.mark(root, &mut live)?;
        }
        let mut report = GcReport { live: live.len(), ..Default::default() };
        let names = match self.inner.list(&self.pool_root) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        for name in names {
            let path = self.blob_path(&name);
            if name.starts_with("tmp.") {
                self.inner.remove(&path)?;
                report.temps_swept += 1;
            } else if !live.contains(&name) {
                report.swept_bytes += self.inner.len(&path).unwrap_or(0);
                self.inner.remove(&path)?;
                report.swept += 1;
                self.metrics.gc_swept.inc();
            }
        }
        Ok(report)
    }

    /// Verify every published blob in the pool — header, plaintext CRC,
    /// and digest-vs-filename — on a bounded worker pool.
    pub fn scrub_pool(&self) -> io::Result<ChunkScrubReport> {
        let _span = self.trace.start("plfs.chunk.scrub", Phase::Other, "chunk", 0);
        let names: Vec<String> = match self.inner.list(&self.pool_root) {
            Ok(n) => n.into_iter().filter(|n| !n.starts_with("tmp.")).collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (bad, _) = pool::run_bounded(names.len(), pool::available_parallelism(), |i| {
            let name = &names[i];
            let path = self.blob_path(name);
            let ok = self
                .inner
                .read_all(&path)
                .ok()
                .and_then(|blob| decode_blob(&blob).ok())
                .map(|plain| hex(&sha256(&plain)) == *name)
                .unwrap_or(false);
            if ok {
                None
            } else {
                Some(path)
            }
        });
        Ok(ChunkScrubReport { blobs: names.len(), corrupt: bad.into_iter().flatten().collect() })
    }
}

impl crate::backend::Layer for ChunkBackend {
    fn below(&self) -> &dyn Backend {
        self.inner.as_ref()
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let _span = self.trace.start("plfs.chunk.append", Phase::Other, "chunk", 0);
        let _guard = self.append_lock.lock().unwrap();
        let manifest = match self.inner.read_all(path) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let records = parse_manifest(&manifest);
        let base: u64 = records.iter().map(|&(l, _)| l as u64).sum();
        // A torn trailing partial record (an earlier append died inside
        // the inner store) would misalign everything we add after it:
        // commit the manifest back to a whole number of records first,
        // atomically. The torn record's bytes were never acknowledged.
        if manifest.len() % RECORD_BYTES != 0 {
            let whole = records.len() * RECORD_BYTES;
            let tmp = format!("{path}.chunktmp.{}", self.tmp_seq.fetch_add(1, Ordering::Relaxed));
            self.inner.create(&tmp)?;
            if whole > 0 {
                self.inner.append(&tmp, &manifest[..whole])?;
            }
            self.inner.rename(&tmp, path)?;
        }
        if data.is_empty() {
            return Ok(base);
        }
        self.metrics.ingest_bytes.add(data.len() as u64);
        self.inner.mkdir_all(&self.pool_root)?;
        // Data before index: publish every blob, then reference them.
        let mut batch = Vec::new();
        for chunk in split(data, &self.params, &self.table) {
            let digest = sha256(chunk);
            self.publish(chunk, &digest)?;
            batch.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            batch.extend_from_slice(&digest);
        }
        self.inner.append(path, &batch)?;
        Ok(base)
    }

    fn read_at(&self, path: &str, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let _span = self.trace.start("plfs.chunk.read", Phase::Other, "chunk", 0);
        let records = self.manifest_records(path)?;
        if buf.is_empty() {
            return Ok(0);
        }
        let mut filled = 0usize;
        let mut pos = 0u64;
        for (len, digest) in records {
            let clen = len as u64;
            let cstart = pos;
            pos += clen;
            if pos <= offset {
                continue;
            }
            if filled >= buf.len() {
                break;
            }
            let chunk = self.load_chunk(&digest)?;
            // The digest vouches for the blob, not for the record's
            // length field: a rotted length would index out of the
            // chunk or serve its bytes at the wrong offsets.
            if chunk.len() as u64 != clen {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "chunk {}: manifest record says {clen} B, blob holds {} B",
                        hex(&digest),
                        chunk.len()
                    ),
                ));
            }
            let skip = offset.saturating_sub(cstart) as usize;
            let want = buf.len() - filled;
            let take = (chunk.len() - skip).min(want);
            buf[filled..filled + take].copy_from_slice(&chunk[skip..skip + take]);
            filled += take;
        }
        Ok(filled)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        Ok(self.manifest_records(path)?.iter().map(|&(l, _)| l as u64).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn mem_chunked(params: ChunkParams) -> ChunkBackend {
        ChunkBackend::with_params(Arc::new(MemBackend::new()) as Arc<dyn Backend>, params)
    }

    /// Small chunks so a few KiB of test data spans many of them.
    fn small_params() -> ChunkParams {
        ChunkParams { min: 32, max: 512, mask_bits: 5, seed: 0xC0FFEE }
    }

    fn patterned(n: usize, seed: u64) -> Vec<u8> {
        // Mildly compressible pseudo-random data with embedded runs.
        let mut v = Vec::with_capacity(n);
        let mut z = seed;
        while v.len() < n {
            z = splitmix64(&mut z);
            if z.is_multiple_of(5) {
                let fill = (z >> 8) as u8;
                for _ in 0..(z % 40 + 8) {
                    if v.len() < n {
                        v.push(fill);
                    }
                }
            } else {
                v.push(z as u8);
            }
        }
        v
    }

    // -------------------------------------------------------- sha-256

    #[test]
    fn sha256_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Padding edge: 55/56/64-byte messages straddle the block
        // boundary in the three interesting ways.
        for n in [55usize, 56, 63, 64, 65] {
            let a = sha256(&vec![0x61; n]);
            let b = sha256(&vec![0x61; n]);
            assert_eq!(a, b);
            assert_ne!(sha256(&vec![0x61; n]), sha256(&vec![0x62; n]));
        }
    }

    fn sha_ni() -> bool {
        let found = crate::accel::sha256_compress(&mut [0; 8], &[]);
        if !found {
            eprintln!("CPU lacks the SHA extensions: hardware step not compared");
        }
        found
    }

    fn hardware(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        assert!(crate::accel::sha256_compress(state, blocks), "SHA extensions vanished");
    }

    /// SHA-256 of the concatenated `parts`, one `update` each.
    fn digest_with(step: Compress, parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new(step);
        for part in parts {
            h.update(part);
        }
        h.finish()
    }

    #[test]
    fn sha256_hardware_step_matches_portable() {
        if !sha_ni() {
            return;
        }
        let data = patterned(16 + 300, 0x5A);
        for start in 0..16 {
            for len in 0..=300 {
                let piece = &data[start..start + len];
                assert_eq!(
                    digest_with(hardware, &[piece]),
                    digest_with(compress_portable, &[piece]),
                    "start {start}, len {len}"
                );
            }
        }
        // The padding edges: the length field fits after the 0x80 byte
        // up to 55 bytes into a block, and needs a second block from 56.
        for len in [55, 56, 63, 64, 65, 119, 120] {
            let piece = &data[..len];
            assert_eq!(digest_with(hardware, &[piece]), sha256(piece), "len {len}");
            assert_eq!(digest_with(compress_portable, &[piece]), sha256(piece), "len {len}");
        }
        let whole = digest_with(compress_portable, &[&data[..300]]);
        for at in 0..=300 {
            let (a, b) = data[..300].split_at(at);
            assert_eq!(digest_with(hardware, &[a, b]), whole, "split at {at}");
            assert_eq!(digest_with(compress_portable, &[a, b]), whole, "split at {at}");
        }
        let big = patterned(1 << 20, 0xB16);
        assert_eq!(digest_with(hardware, &[&big]), digest_with(compress_portable, &[&big]));
    }

    // ------------------------------------------------------------- rle

    fn rle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        rle_compress(data, &mut out);
        out
    }

    /// The bytewise greedy encoder the word-at-a-time one replaced: the
    /// reference its token stream must match byte for byte.
    fn rle_reference(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 8);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while run < MAX_RUN && i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            if run >= MIN_RUN {
                let mut lit = &data[lit_start..i];
                while !lit.is_empty() {
                    let take = lit.len().min(MAX_LITERAL);
                    out.push((take - 1) as u8);
                    out.extend_from_slice(&lit[..take]);
                    lit = &lit[take..];
                }
                out.push((0x80 + (run - MIN_RUN)) as u8);
                out.push(b);
                i += run;
                lit_start = i;
            } else {
                i += run;
            }
        }
        let mut lit = &data[lit_start..];
        while !lit.is_empty() {
            let take = lit.len().min(MAX_LITERAL);
            out.push((take - 1) as u8);
            out.extend_from_slice(&lit[..take]);
            lit = &lit[take..];
        }
        out
    }

    /// The encoder, its size pass and the blob codec choice all agree
    /// with the reference encoder.
    fn assert_rle_matches_reference(data: &[u8], what: &str) {
        let want = rle_reference(data);
        assert_eq!(rle(data), want, "{what}");
        assert_eq!(rle_len(data), want.len(), "{what}");
        let blob = encode_blob(data);
        let (codec, payload) =
            if want.len() < data.len() { (CODEC_RLE, &want[..]) } else { (CODEC_RAW, data) };
        assert_eq!(blob[9], codec, "{what}");
        assert_eq!(&blob[BLOB_HEADER_BYTES..], payload, "{what}");
        assert_eq!(decode_blob(&blob).unwrap(), data, "{what}");
    }

    #[test]
    fn rle_matches_the_bytewise_reference() {
        // Every short length at every word alignment, over bytes drawn
        // from a 3-letter alphabet so runs of every length up to ~8
        // occur at every lane of a load.
        let mut z = 0xA11CE5u64;
        let small: Vec<u8> = (0..8 + 300).map(|_| (splitmix64(&mut z) % 3) as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                assert_rle_matches_reference(&small[start..start + len], "short");
            }
        }
        // One run of each edge length at the start, middle and end of a
        // buffer of distinct neighbours.
        let background: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8 + 1).collect();
        for run in [1, 3, 4, 5, 130, 131, 132, 263] {
            for at in [0, 137, 400 - run] {
                let mut data = background.clone();
                data[at..at + run].fill(0);
                assert_rle_matches_reference(&data, &format!("run {run} at {at}"));
            }
        }
        // Short runs ending at every byte of two words, among them
        // exactly at the 8-byte boundary (end 16), so a run ends on
        // every lane of a load and just past it.
        for end in 8..=24 {
            for run in [4, 5, 8] {
                let mut data = background[..40].to_vec();
                data[end - run..end].fill(0xEE);
                assert_rle_matches_reference(&data, &format!("run {run} ending at {end}"));
            }
        }
        // Seeded noise, and half-zero buffers whose runs start at
        // random places, up to 70 000 B.
        for seed in 0..12u64 {
            let mut z = seed;
            let len = (splitmix64(&mut z) % 70_000) as usize;
            let noise: Vec<u8> = (0..len).map(|_| splitmix64(&mut z) as u8).collect();
            assert_rle_matches_reference(&noise, &format!("noise seed {seed}"));
            let half: Vec<u8> = noise.iter().map(|&b| if b & 1 == 0 { 0 } else { b }).collect();
            assert_rle_matches_reference(&half, &format!("half-zero seed {seed}"));
        }
        assert_rle_matches_reference(&vec![0u8; 70_000], "zeros");
    }

    #[test]
    fn rle_roundtrips_and_wins_on_runs() {
        for seed in 0..20u64 {
            let data = patterned(3000, seed);
            let c = rle(&data);
            assert_eq!(rle_decompress(&c, data.len()).unwrap(), data, "seed {seed}");
        }
        let zeros = vec![0u8; 4096];
        let c = rle(&zeros);
        assert!(c.len() < zeros.len() / 16, "runs must collapse, got {}", c.len());
        // Incompressible data must not be forced through RLE.
        let noise: Vec<u8> = (0..1024u64).map(|i| splitmix64(&mut { i }) as u8).collect();
        let blob = encode_blob(&noise);
        assert_eq!(blob[9], CODEC_RAW);
        assert_eq!(decode_blob(&blob).unwrap(), noise);
    }

    #[test]
    fn blob_header_fields_are_all_checked() {
        let blob = encode_blob(&patterned(600, 3));
        assert!(decode_blob(&blob).is_ok());
        for (i, label) in [(0, "magic"), (8, "version"), (9, "codec"), (10, "len"), (14, "crc")] {
            let mut bad = blob.clone();
            bad[i] ^= 0xFF;
            assert!(decode_blob(&bad).is_err(), "corrupting {label} must fail");
        }
        assert!(decode_blob(&blob[..BLOB_HEADER_BYTES - 1]).is_err(), "short header");
    }

    // --------------------------------------------------------- chunker

    /// The gear table fixes on-disk chunk boundaries, so the default
    /// chunker's cut points over a seeded buffer are pinned exactly:
    /// any change to the table's mixer re-chunks every stored file.
    #[test]
    fn default_chunk_boundaries_are_pinned() {
        let p = ChunkParams::default();
        let mut rng = simkit::Rng::new(0x5EED_C4A1);
        let data: Vec<u8> = (0..256 * 1024).map(|_| rng.next_u64() as u8).collect();
        let lens: Vec<usize> =
            split(&data, &p, &gear_table(p.seed)).iter().map(|c| c.len()).collect();
        assert_eq!(
            lens,
            [
                2329, 6022, 9589, 26956, 3319, 9535, 13007, 5416, 4744, 24904, 13181, 4796, 6967,
                7171, 4682, 2174, 20720, 5939, 7501, 10741, 13817, 26663, 7492, 4075, 6376, 4276,
                5350, 4402
            ]
        );
    }

    /// The byte-by-byte chunker that hashed every byte from each chunk
    /// start: the reference the skip-to-min `split` must match.
    fn split_bytewise<'d>(
        data: &'d [u8],
        params: &ChunkParams,
        table: &[u64; 256],
    ) -> Vec<&'d [u8]> {
        let mask: u64 = (1u64 << params.mask_bits) - 1;
        let mut out = Vec::new();
        let mut start = 0usize;
        let mut h = 0u64;
        for (i, &b) in data.iter().enumerate() {
            h = (h << 1).wrapping_add(table[b as usize]);
            let len = i - start + 1;
            if (len >= params.min && h & mask == 0) || len >= params.max {
                out.push(&data[start..=i]);
                start = i + 1;
                h = 0;
            }
        }
        if start < data.len() {
            out.push(&data[start..]);
        }
        out
    }

    #[test]
    fn split_matches_the_bytewise_chunker() {
        let p = |min, max, mask_bits| ChunkParams { min, max, mask_bits, seed: 0xC0FFEE };
        let cases = [
            ChunkParams::default(),
            small_params(),
            p(0, 512, 5),
            p(1, 512, 5),
            p(10, 512, 3),
            p(63, 512, 5),
            p(64, 512, 5),
            p(65, 512, 5),
            p(100, 100, 5),
            p(300, 200, 5),
            p(600, 0, 5),
            p(0, 0, 5),
            p(0, 1, 5),
            p(2, 3, 0),
            p(70, 4096, 0),
            p(200, 4096, 1),
            p(2048, 65536, 16),
        ];
        for params in cases {
            let t = gear_table(params.seed);
            for (len, seed) in [(0, 1), (1, 2), (63, 3), (64, 4), (65, 5), (5_000, 6), (70_000, 7)]
            {
                let mut data = patterned(len, seed);
                // A long run as well: every window of it hashes alike.
                data.extend(std::iter::repeat_n(0x2A, len / 3));
                let lens = |v: Vec<&[u8]>| v.iter().map(|c| c.len()).collect::<Vec<_>>();
                assert_eq!(
                    lens(split(&data, &params, &t)),
                    lens(split_bytewise(&data, &params, &t)),
                    "{params:?}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn split_is_deterministic_and_bounded() {
        let p = small_params();
        let t = gear_table(p.seed);
        let data = patterned(20_000, 9);
        let a = split(&data, &p, &t);
        let b = split(&data, &p, &t);
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 10, "expected many chunks, got {}", a.len());
        let total: usize = a.iter().map(|c| c.len()).sum();
        assert_eq!(total, data.len(), "chunks must cover the input");
        for (i, c) in a.iter().enumerate() {
            assert!(c.len() <= p.max, "chunk {i} over max");
            // Only the final chunk may undershoot `min`.
            if i + 1 < a.len() {
                assert!(c.len() >= p.min, "chunk {i} under min");
            }
        }
    }

    /// The content-defined property: inserting bytes mid-stream
    /// reshifts only O(1) neighbouring chunks; the rest re-align.
    #[test]
    fn boundaries_are_stable_under_insertion() {
        let p = small_params();
        let t = gear_table(p.seed);
        for seed in 0..8u64 {
            let data = patterned(30_000, seed);
            let before: HashSet<[u8; 32]> =
                split(&data, &p, &t).iter().map(|c| sha256(c)).collect();
            let mut edited = data.clone();
            let at = edited.len() / 2;
            edited.splice(at..at, [0xAB, 0xCD, 0xEF, 0x01, 0x23].iter().copied());
            let after: Vec<[u8; 32]> = split(&edited, &p, &t).iter().map(|c| sha256(c)).collect();
            let changed = after.iter().filter(|d| !before.contains(*d)).count();
            assert!(
                changed <= 4,
                "seed {seed}: insertion dirtied {changed} of {} chunks",
                after.len()
            );
        }
    }

    // ---------------------------------------------------- ChunkBackend

    #[test]
    fn append_read_roundtrip_across_offsets() {
        let cb = mem_chunked(small_params());
        let a = patterned(5_000, 1);
        let b = patterned(3_000, 2);
        assert_eq!(cb.append("/f/data.0", &a).unwrap(), 0);
        assert_eq!(cb.append("/f/data.0", &b).unwrap(), a.len() as u64);
        assert_eq!(cb.len("/f/data.0").unwrap(), (a.len() + b.len()) as u64);
        let whole = cb.read_all("/f/data.0").unwrap();
        assert_eq!(&whole[..a.len()], &a[..]);
        assert_eq!(&whole[a.len()..], &b[..]);
        // Unaligned interior reads.
        for (off, n) in [(0usize, 10usize), (37, 999), (4_990, 50), (7_999, 1)] {
            let mut buf = vec![0u8; n];
            let got = cb.read_at("/f/data.0", off as u64, &mut buf).unwrap();
            assert_eq!(&buf[..got], &whole[off..off + got]);
            assert!(got > 0);
        }
        // EOF contract.
        let mut buf = [0u8; 8];
        assert_eq!(cb.read_at("/f/data.0", whole.len() as u64, &mut buf).unwrap(), 0);
        assert_eq!(
            cb.read_at("/missing", 0, &mut buf).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn identical_content_dedups_to_one_copy() {
        let cb = mem_chunked(small_params());
        let data = patterned(40_000, 7);
        cb.append("/a", &data).unwrap();
        let (blobs_once, bytes_once) = cb.pool_usage().unwrap();
        assert!(blobs_once > 0);
        for i in 0..5 {
            cb.append(&format!("/copy.{i}"), &data).unwrap();
        }
        let (blobs_after, bytes_after) = cb.pool_usage().unwrap();
        assert_eq!(blobs_after, blobs_once, "re-ingest must add no blobs");
        assert_eq!(bytes_after, bytes_once);
        assert!(cb.metrics.dedup_hits.get() >= 5 * blobs_once);
        assert_eq!(cb.metrics.dedup_bytes.get(), 5 * data.len() as u64);
        // Every copy still reads back exactly.
        assert_eq!(cb.read_all("/copy.4").unwrap(), data);
    }

    #[test]
    fn torn_manifest_tail_is_ignored_and_healed_on_next_append() {
        let cb = mem_chunked(small_params());
        let data = patterned(2_000, 11);
        cb.append("/f", &data).unwrap();
        // Tear the manifest: a partial trailing record.
        cb.inner().append("/f", &[0xEE; 17]).unwrap();
        assert_eq!(cb.len("/f").unwrap(), data.len() as u64, "torn tail invisible");
        assert_eq!(cb.read_all("/f").unwrap(), data);
        // The next append heals the alignment before extending.
        let more = patterned(500, 12);
        assert_eq!(cb.append("/f", &more).unwrap(), data.len() as u64);
        let whole = cb.read_all("/f").unwrap();
        assert_eq!(&whole[..data.len()], &data[..]);
        assert_eq!(&whole[data.len()..], &more[..]);
        assert_eq!(cb.inner().len("/f").unwrap() as usize % RECORD_BYTES, 0);
    }

    /// A manifest record whose length field rots while its digest stays
    /// valid must fail the read with a typed error naming the digest,
    /// whether the field grew (the reader used to index past the chunk
    /// and panic) or shrank (it used to serve bytes at wrong offsets).
    #[test]
    fn rotted_manifest_length_is_invalid_data() {
        let data = patterned(8_000, 13);
        for delta in [4096i64, -1] {
            let cb = mem_chunked(small_params());
            cb.append("/f", &data).unwrap();
            let mut manifest = cb.inner().read_all("/f").unwrap();
            let len = u32::from_le_bytes(manifest[..4].try_into().unwrap());
            let digest = hex(&manifest[4..RECORD_BYTES].try_into().unwrap());
            manifest[..4].copy_from_slice(&((len as i64 + delta) as u32).to_le_bytes());
            cb.inner().remove("/f").unwrap();
            cb.inner().append("/f", &manifest).unwrap();
            let offset = if delta > 0 { 3000 } else { 0 };
            let err = cb.read_at("/f", offset, &mut [0u8; 64]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "delta {delta}");
            assert!(err.to_string().contains(&digest), "delta {delta}: {err}");
        }
    }

    #[test]
    fn gc_sweeps_only_unreferenced_blobs() {
        let cb = mem_chunked(small_params());
        let shared = patterned(6_000, 20);
        let only_b = patterned(6_000, 21);
        cb.append("/keep/data.0", &shared).unwrap();
        cb.append("/drop/data.0", &shared).unwrap();
        cb.append("/drop/data.1", &only_b).unwrap();
        // Abandoned staging file (crash before the publish rename).
        cb.inner().append(&format!("{DEFAULT_POOL_ROOT}/tmp.dead.0"), b"x").unwrap();
        let (blobs_before, _) = cb.pool_usage().unwrap();
        cb.remove_dir_all("/drop").unwrap();
        let rep = cb.gc(&["/keep"]).unwrap();
        assert_eq!(rep.temps_swept, 1);
        assert!(rep.swept > 0, "only_b's blobs must go");
        let (blobs_after, _) = cb.pool_usage().unwrap();
        assert_eq!(blobs_after, rep.live as u64);
        assert!(blobs_after < blobs_before);
        // Shared content survives and still reads.
        assert_eq!(cb.read_all("/keep/data.0").unwrap(), shared);
        // Convergent: a second pass finds nothing.
        assert_eq!(cb.gc(&["/keep"]).unwrap().swept, 0);
        assert_eq!(cb.metrics.gc_swept.get(), rep.swept as u64);
    }

    #[test]
    fn scrub_pool_catches_a_rotten_blob() {
        let cb = mem_chunked(small_params());
        cb.append("/f", &patterned(4_000, 30)).unwrap();
        let rep = cb.scrub_pool().unwrap();
        assert!(rep.blobs > 0);
        assert!(rep.corrupt.is_empty());
        // Rot one payload byte of one blob, bypassing the layer.
        let name = cb.inner().list(DEFAULT_POOL_ROOT).unwrap().remove(0);
        let path = format!("{DEFAULT_POOL_ROOT}/{name}");
        let mut blob = cb.inner().read_all(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0x40;
        cb.inner().remove(&path).unwrap();
        cb.inner().append(&path, &blob).unwrap();
        let rep = cb.scrub_pool().unwrap();
        assert_eq!(rep.corrupt, vec![path]);
    }

    #[test]
    fn rename_and_create_behave_like_a_plain_backend() {
        let cb = mem_chunked(small_params());
        let data = patterned(1_000, 40);
        cb.append("/f/moving", &data).unwrap();
        cb.rename("/f/moving", "/f/moved").unwrap();
        assert!(!cb.exists("/f/moving"));
        assert_eq!(cb.read_all("/f/moved").unwrap(), data);
        cb.create("/f/moved").unwrap();
        assert_eq!(cb.len("/f/moved").unwrap(), 0, "create truncates");
        cb.create_new("/f/marker").unwrap();
        assert_eq!(cb.create_new("/f/marker").unwrap_err().kind(), io::ErrorKind::AlreadyExists);
    }
}
