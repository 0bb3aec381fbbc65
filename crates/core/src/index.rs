//! The PLFS index: mapping logical file extents to log-file extents.
//!
//! Every write a rank performs appends its bytes to that rank's *data
//! dropping* and appends one fixed-size record here describing where
//! those bytes logically belong. The "impact" of the concurrent writes
//! — what the single logical file actually contains — is resolved only
//! at read time by merging every rank's index (SC09 §3).
//!
//! Two encodings are implemented:
//! - **raw**: one fixed-size record per write;
//! - **pattern-compressed**: arithmetic-progression runs (the strided
//!   N-1 checkpoint pattern) collapse into one record per run — the
//!   index-compression extension the report lists among post-PDSI PLFS
//!   work (§1.1, item 5).
//!
//! There is one on-disk format: every record is *framed with a
//! checksum*. Tag `3` (raw) or `4` (pattern) is followed by the body
//! and a CRC32 of the tag byte plus body. Any other tag, including the
//! unchecksummed `1`/`2` of containers older than this format (which
//! are not read), and any checksum mismatch decode as a corrupt record:
//! detected at open on the cold path, or by `fsck::scrub` on warm
//! (canonical-cache) opens. A pattern record expands only as far as
//! its rank's data dropping backs it (see `Backing`), so one record
//! can never allocate past what the data could hold.
//!
//! Merging is a sweep-line over write boundaries: O(n log n) in the
//! number of entries regardless of how pathologically they interleave.
//! The old splice-into-a-`Vec` algorithm ([`IndexMap::build_splice_baseline`])
//! is kept as a correctness oracle and cost baseline; both charge their
//! work to a logical step counter ([`IndexMap::merge_steps`]) so the
//! speedup is assertable without wall clocks.

use std::collections::{BTreeMap, BinaryHeap};
use std::io;

/// Minimal little-endian write cursor (replaces the `bytes` crate so
/// the workspace builds with no external dependencies).
pub(crate) trait PutLe {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
}

impl PutLe for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Minimal little-endian read cursor over a byte slice.
pub(crate) struct GetLe<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> GetLe<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        GetLe { data, pos: 0 }
    }
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    /// The unread tail of the slice.
    #[inline]
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }
    #[inline]
    pub(crate) fn get_u8(&mut self) -> u8 {
        let v = self.data[self.pos];
        self.pos += 1;
        v
    }
    #[inline]
    pub(crate) fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.data[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        v
    }
    #[inline]
    pub(crate) fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.data[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        v
    }
}

/// One write's worth of mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Offset in the logical file.
    pub logical_offset: u64,
    /// Length of the write.
    pub length: u64,
    /// Offset within the writer's data dropping.
    pub physical_offset: u64,
    /// Which writer (rank) produced it — identifies the data dropping.
    pub writer: u32,
    /// Global write ordering stamp; larger wins on overlap.
    pub timestamp: u64,
}

/// Size of one raw record body on the wire (excluding tag and CRC).
pub const RAW_RECORD_BYTES: usize = 8 + 8 + 8 + 4 + 8;

/// Size of one pattern record body on the wire (excluding tag and CRC).
pub const PATTERN_RECORD_BYTES: usize = 8 + 8 + 8 + 4 + 8 + 4 + 8;

/// Trailing CRC32 on every checksummed record.
pub const RECORD_CRC_BYTES: usize = 4;

/// Record tags. Every record is framed as tag + body + CRC32(tag ‖ body).
const TAG_RAW: u8 = 3;
const TAG_PATTERN: u8 = 4;

/// A compressed run: `count` writes of `length` bytes, logical offsets
/// advancing by `logical_stride` (which may be negative — a rank
/// walking its region backwards), physical offsets advancing by
/// `length` (logs are dense), timestamps advancing by 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternEntry {
    pub logical_start: u64,
    pub length: u64,
    pub logical_stride: i64,
    pub count: u32,
    pub physical_start: u64,
    pub writer: u32,
    pub timestamp_start: u64,
}

impl PatternEntry {
    /// Expand back into raw entries. Callers must only expand patterns
    /// that pass the decoder's range check (decode does); arithmetic here is
    /// unchecked.
    pub fn expand(&self) -> impl Iterator<Item = IndexEntry> + '_ {
        (0..self.count as u64).map(move |i| self.entry(i))
    }

    /// The `i`th entry of the run (unchecked, as in [`PatternEntry::expand`]).
    fn entry(&self, i: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: (self.logical_start as i128 + i as i128 * self.logical_stride as i128)
                as u64,
            length: self.length,
            physical_offset: self.physical_start + i * self.length,
            writer: self.writer,
            timestamp: self.timestamp_start + i,
        }
    }
}

/// Does every extent the entry describes fit in u64 space?
fn entry_in_range(e: &IndexEntry) -> bool {
    e.logical_offset.checked_add(e.length).is_some()
        && e.physical_offset.checked_add(e.length).is_some()
}

/// Does the pattern hold at least one non-empty entry, and does every
/// extent it expands to fit in u64 space? The encoder never compresses
/// empty writes, so an empty pattern is a corrupt record.
fn pattern_in_range(p: &PatternEntry) -> bool {
    if p.count == 0 || p.length == 0 {
        return false;
    }
    let n1 = (p.count - 1) as i128;
    let first = p.logical_start as i128;
    let last = first + n1 * p.logical_stride as i128;
    let len = p.length as i128;
    let max = u64::MAX as i128;
    if last < 0 || last + len > max || first + len > max {
        return false;
    }
    if p.physical_start as i128 + n1 * len + len > max {
        return false;
    }
    p.timestamp_start.checked_add(n1 as u64).is_some()
}

/// Append one raw record: tag, body, `CRC32(tag ‖ body)`.
fn put_raw(buf: &mut Vec<u8>, e: &IndexEntry) {
    let start = buf.len();
    buf.put_u8(TAG_RAW);
    buf.put_u64_le(e.logical_offset);
    buf.put_u64_le(e.length);
    buf.put_u64_le(e.physical_offset);
    buf.put_u32_le(e.writer);
    buf.put_u64_le(e.timestamp);
    seal_record(buf, start);
}

/// Append one pattern record: tag, body, `CRC32(tag ‖ body)`.
pub(crate) fn put_pattern(buf: &mut Vec<u8>, p: &PatternEntry) {
    let start = buf.len();
    buf.put_u8(TAG_PATTERN);
    buf.put_u64_le(p.logical_start);
    buf.put_u64_le(p.length);
    buf.put_u64_le(p.logical_stride as u64);
    buf.put_u32_le(p.count);
    buf.put_u64_le(p.physical_start);
    buf.put_u32_le(p.writer);
    buf.put_u64_le(p.timestamp_start);
    seal_record(buf, start);
}

/// Append `CRC32(tag ‖ body)` for the record that started at `start`.
fn seal_record(buf: &mut Vec<u8>, start: usize) {
    let crc = crate::checksum::crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Encode a batch of entries, raw.
pub fn encode_raw(entries: &[IndexEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(entries.len() * (RAW_RECORD_BYTES + 1 + RECORD_CRC_BYTES));
    for e in entries {
        put_raw(&mut buf, e);
    }
    buf
}

/// Encode a batch of entries with pattern compression: maximal
/// arithmetic-progression runs become [`PatternEntry`] records.
pub fn encode_compressed(entries: &[IndexEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_compressed_into(entries, &mut buf);
    buf
}

/// [`encode_compressed`], appended to `buf`.
pub(crate) fn encode_compressed_into(entries: &[IndexEntry], buf: &mut Vec<u8>) {
    let mut i = 0;
    while i < entries.len() {
        // Try to grow a run starting at i.
        let run = run_length(&entries[i..]);
        if run >= 3 {
            let e0 = entries[i];
            let stride = (entries[i + 1].logical_offset as i128 - e0.logical_offset as i128) as i64;
            let p = PatternEntry {
                logical_start: e0.logical_offset,
                length: e0.length,
                logical_stride: stride,
                count: run as u32,
                physical_start: e0.physical_offset,
                writer: e0.writer,
                timestamp_start: e0.timestamp,
            };
            put_pattern(buf, &p);
            i += run;
        } else {
            put_raw(buf, &entries[i]);
            i += 1;
        }
    }
}

/// Longest prefix of `entries` forming a compressible run. The logical
/// stride may be negative (reverse-strided checkpoints compress too)
/// but not zero, and must fit an i64; empty writes never compress.
fn run_length(entries: &[IndexEntry]) -> usize {
    if entries.len() < 2 {
        return entries.len().min(1);
    }
    let e0 = entries[0];
    let e1 = entries[1];
    let stride = e1.logical_offset as i128 - e0.logical_offset as i128;
    if e1.length != e0.length
        || e0.length == 0
        || e1.writer != e0.writer
        || stride == 0
        || i64::try_from(stride).is_err()
        || e1.physical_offset != e0.physical_offset + e0.length
        || e1.timestamp != e0.timestamp + 1
    {
        return 1;
    }
    let mut n = 2;
    while n < entries.len() {
        let prev = entries[n - 1];
        let cur = entries[n];
        let fits = cur.length == e0.length
            && cur.writer == e0.writer
            && cur.logical_offset as i128 == prev.logical_offset as i128 + stride
            && cur.physical_offset == prev.physical_offset + prev.length
            && cur.timestamp == prev.timestamp + 1;
        if !fits {
            break;
        }
        n += 1;
    }
    n
}

/// How far a pattern record may expand when decoded.
#[derive(Clone, Copy)]
pub(crate) enum Backing {
    /// Not at all: the stream holds raw records only (a
    /// `canonical.index` payload, written with [`encode_raw`]), so a
    /// pattern tag is a bad tag.
    RawOnly,
    /// To the end of the rank's data dropping, which holds this many
    /// bytes. A pattern's entries past it are counted as [`Dangling`],
    /// never expanded, so a record allocates only what the data backs.
    Data(u64),
}

/// The entries of one pattern record that end past its data dropping:
/// the record landed, the bytes it maps did not (or were cut away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dangling {
    /// How many of the record's entries end past the data.
    pub entries: u64,
    /// Where the record's last entry ends in the data dropping.
    pub physical_end: u64,
    /// One past the highest logical byte those entries map.
    pub logical_end: u64,
}

/// An index stream, decoded as far as its records go.
pub(crate) struct Decoded {
    /// The entries of every whole record before the first that does not
    /// decode; a pattern record gives only the entries its data backs.
    pub entries: Vec<IndexEntry>,
    /// What pattern records map past their data, in record order.
    pub dangling: Vec<Dangling>,
    /// Bytes of whole records decoded: fewer than the stream holds is a
    /// torn or corrupt tail (the crash signature `fsck::repair` cuts).
    pub consumed: usize,
    /// Why the record at `consumed` does not decode.
    pub torn: Option<io::Error>,
}

impl Decoded {
    /// Every entry, or an error when a record does not decode or a
    /// pattern record maps entries past its data.
    pub(crate) fn whole(self) -> io::Result<Vec<IndexEntry>> {
        if let Some(e) = self.torn {
            return Err(e);
        }
        match self.dangling.first() {
            None => Ok(self.entries),
            Some(d) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "index pattern record maps {} entries past its data dropping, to byte {}",
                    d.entries, d.physical_end
                ),
            )),
        }
    }
}

fn invalid(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("invalid index record: {why}"))
}

/// Decode one record into `out`. On error nothing is appended and the
/// cursor position is unspecified; callers stop at their last good
/// offset.
fn decode_record(cur: &mut GetLe, backing: Backing, out: &mut Decoded) -> io::Result<()> {
    let start = cur.pos;
    let tag = cur.get_u8();
    // Verify CRC32(tag ‖ body) before parsing the body, so a corrupt
    // record can never parse into plausible entries.
    let check_crc = |cur: &mut GetLe, body: usize| -> io::Result<()> {
        if cur.remaining() < body + RECORD_CRC_BYTES {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated index dropping"));
        }
        let stored = u32::from_le_bytes(
            cur.data[start + 1 + body..start + 1 + body + RECORD_CRC_BYTES].try_into().unwrap(),
        );
        if crate::checksum::crc32(&cur.data[start..start + 1 + body]) != stored {
            return Err(invalid("index record checksum mismatch"));
        }
        Ok(())
    };
    match (tag, backing) {
        (TAG_RAW, _) => {
            check_crc(cur, RAW_RECORD_BYTES)?;
            let e = IndexEntry {
                logical_offset: cur.get_u64_le(),
                length: cur.get_u64_le(),
                physical_offset: cur.get_u64_le(),
                writer: cur.get_u32_le(),
                timestamp: cur.get_u64_le(),
            };
            cur.pos += RECORD_CRC_BYTES;
            if !entry_in_range(&e) {
                return Err(invalid("entry extent overflows u64"));
            }
            out.entries.push(e);
            Ok(())
        }
        (TAG_PATTERN, Backing::Data(data_len)) => {
            check_crc(cur, PATTERN_RECORD_BYTES)?;
            let p = PatternEntry {
                logical_start: cur.get_u64_le(),
                length: cur.get_u64_le(),
                logical_stride: cur.get_u64_le() as i64,
                count: cur.get_u32_le(),
                physical_start: cur.get_u64_le(),
                writer: cur.get_u32_le(),
                timestamp_start: cur.get_u64_le(),
            };
            cur.pos += RECORD_CRC_BYTES;
            if !pattern_in_range(&p) {
                return Err(invalid("pattern extent empty or overflows u64"));
            }
            let count = u64::from(p.count);
            let backed = (data_len.saturating_sub(p.physical_start) / p.length).min(count);
            out.entries.extend(p.expand().take(backed as usize));
            if backed < count {
                // Entries are physically dense, so every one after the
                // first unbacked entry is unbacked too.
                let highest = if p.logical_stride < 0 { backed } else { count - 1 };
                out.dangling.push(Dangling {
                    entries: count - backed,
                    physical_end: p.physical_start + count * p.length,
                    logical_end: p.entry(highest).logical_offset + p.length,
                });
            }
            Ok(())
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad index record tag {tag}"))),
    }
}

/// Decode whole records from the front of `data` until the first that
/// does not decode, expanding pattern records only as far as `backing`
/// allows.
pub(crate) fn decode_backed(data: &[u8], backing: Backing) -> Decoded {
    let mut cur = GetLe::new(data);
    let mut out = Decoded { entries: Vec::new(), dangling: Vec::new(), consumed: 0, torn: None };
    while cur.remaining() >= 1 {
        if let Err(e) = decode_record(&mut cur, backing, &mut out) {
            out.torn = Some(e);
            break;
        }
        out.consumed = cur.pos;
    }
    out
}

/// Decode a dropping (either record kind) back into raw entries.
///
/// With no data dropping at hand, pattern records expand in full; the
/// reader and `fsck` bound each one by its rank's data instead.
pub fn decode(data: &[u8]) -> io::Result<Vec<IndexEntry>> {
    decode_backed(data, Backing::Data(u64::MAX)).whole()
}

/// Decode as many whole records as possible from the front of `data`.
///
/// Returns the decoded entries plus the number of bytes consumed by
/// complete, valid records. `consumed == data.len()` means the blob is
/// fully intact; anything less is a torn or corrupt tail (the crash
/// signature `fsck::repair` truncates away). Records whose extents
/// overflow u64 space count as corrupt. Patterns expand as in
/// [`decode`].
pub fn decode_prefix(data: &[u8]) -> (Vec<IndexEntry>, usize) {
    let d = decode_backed(data, Backing::Data(u64::MAX));
    (d.entries, d.consumed)
}

/// An extent of the assembled logical file: `[start, end)` served from
/// `writer`'s dropping at `physical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub start: u64,
    pub end: u64,
    pub physical: u64,
    pub writer: u32,
}

/// Charged for one binary search / heap operation over `len` elements —
/// the shared logical cost unit of both merge implementations.
#[inline]
fn search_cost(len: usize) -> u64 {
    (usize::BITS - len.leading_zeros()) as u64 + 1
}

/// Result of the sweep-line merge: disjoint fragments in logical order,
/// each keeping its source entry's writer/physical/timestamp, plus the
/// logical steps charged.
pub(crate) struct MergedFragments {
    pub frags: Vec<IndexEntry>,
    pub steps: u64,
}

/// O(n log n) last-writer-wins merge.
///
/// Sort boundary events by offset; at each boundary segment the live
/// entry with the greatest `(timestamp, writer)` wins (a lazy-deletion
/// max-heap keyed by post-sort position); adjacent segments won by the
/// same entry coalesce. Produces exactly the extents the old
/// splice-based insertion produced, in one pass.
pub(crate) fn sweep_merge(mut entries: Vec<IndexEntry>) -> MergedFragments {
    entries.retain(|e| e.length > 0);
    let n = entries.len();
    let mut steps = 0u64;

    // Fast path: already disjoint and sorted — e.g. a flattened
    // canonical index being reloaded. One linear scan, no sort.
    if entries.windows(2).all(|w| w[0].logical_offset + w[0].length <= w[1].logical_offset) {
        steps += n as u64;
        return MergedFragments { frags: entries, steps };
    }

    // Win priority = position after a stable sort by (timestamp,
    // writer): identical to the order the splice algorithm inserted in.
    entries.sort_by_key(|e| (e.timestamp, e.writer));
    steps += n as u64 * search_cost(n);

    let mut bounds: Vec<u64> = Vec::with_capacity(2 * n);
    for e in &entries {
        bounds.push(e.logical_offset);
        bounds.push(e.logical_offset + e.length);
    }
    bounds.sort_unstable();
    bounds.dedup();
    steps += bounds.len() as u64 * search_cost(bounds.len());

    // Admission order: entries by start offset.
    let mut by_start: Vec<u32> = (0..n as u32).collect();
    by_start.sort_by_key(|&i| entries[i as usize].logical_offset);
    steps += n as u64 * search_cost(n);

    let mut heap: BinaryHeap<u32> = BinaryHeap::new();
    let mut next = 0usize;
    let mut frags: Vec<IndexEntry> = Vec::new();
    let mut prev_src: Option<u32> = None;
    for win in bounds.windows(2) {
        let (lo, hi) = (win[0], win[1]);
        while next < n && entries[by_start[next] as usize].logical_offset == lo {
            heap.push(by_start[next]);
            next += 1;
            steps += search_cost(heap.len());
        }
        // Lazily expire entries that ended at or before this boundary.
        while let Some(&top) = heap.peek() {
            let e = &entries[top as usize];
            if e.logical_offset + e.length <= lo {
                heap.pop();
                steps += search_cost(heap.len() + 1);
            } else {
                break;
            }
        }
        steps += 1;
        let Some(&top) = heap.peek() else {
            prev_src = None;
            continue;
        };
        let e = entries[top as usize];
        let off = lo - e.logical_offset;
        if prev_src == Some(top) {
            if let Some(last) = frags.last_mut() {
                if last.logical_offset + last.length == lo {
                    last.length += hi - lo;
                    continue;
                }
            }
        }
        frags.push(IndexEntry {
            logical_offset: lo,
            length: hi - lo,
            physical_offset: e.physical_offset + off,
            writer: e.writer,
            timestamp: e.timestamp,
        });
        prev_src = Some(top);
    }
    MergedFragments { frags, steps }
}

/// The merged, overlap-resolved view of a container's index: a flat
/// sorted list of disjoint extents (last-writer-wins by timestamp).
#[derive(Debug, Clone, Default)]
pub struct IndexMap {
    extents: Vec<Extent>,
    /// Source-entry timestamp per extent (parallel to `extents`), kept
    /// so a merged map can round-trip through the flattened-index cache
    /// and later re-merge against newer entries.
    stamps: Vec<u64>,
    merge_steps: u64,
}

impl IndexMap {
    /// Build from entries in any order; overlaps resolved by timestamp
    /// (ties by writer id, which cannot collide for distinct writes of
    /// the same writer since their timestamps differ). O(n log n).
    pub fn build(entries: Vec<IndexEntry>) -> Self {
        let merged = sweep_merge(entries);
        let mut extents = Vec::with_capacity(merged.frags.len());
        let mut stamps = Vec::with_capacity(merged.frags.len());
        for f in &merged.frags {
            extents.push(Extent {
                start: f.logical_offset,
                end: f.logical_offset + f.length,
                physical: f.physical_offset,
                writer: f.writer,
            });
            stamps.push(f.timestamp);
        }
        IndexMap { extents, stamps, merge_steps: merged.steps }
    }

    /// The original algorithm: sort by timestamp, splice each entry
    /// into a flat `Vec` — O(n²) worst case (every insert shifts the
    /// tail). Kept as the semantic oracle the sweep merge must match
    /// and as the cost baseline `repro openscale` reports against.
    pub fn build_splice_baseline(mut entries: Vec<IndexEntry>) -> Self {
        let n = entries.len();
        entries.sort_by_key(|e| (e.timestamp, e.writer));
        let mut map = IndexMap {
            extents: Vec::with_capacity(n),
            stamps: Vec::with_capacity(n),
            merge_steps: 0,
        };
        for e in entries {
            map.insert_splice(e);
        }
        map
    }

    /// Overlay one entry (later call wins over earlier, so callers must
    /// insert in timestamp order — `build_splice_baseline` does).
    fn insert_splice(&mut self, e: IndexEntry) {
        if e.length == 0 {
            return;
        }
        let (start, end) = (e.logical_offset, e.logical_offset + e.length);
        let len_before = self.extents.len();
        self.merge_steps += search_cost(len_before);
        // Find the range of existing extents overlapping [start, end).
        let lo = self.extents.partition_point(|x| x.end <= start);
        let mut hi = lo;
        while hi < self.extents.len() && self.extents[hi].start < end {
            hi += 1;
        }
        let mut replacement = Vec::with_capacity(2 + 1);
        let mut rep_stamps = Vec::with_capacity(2 + 1);
        if lo < hi {
            // Possibly keep a head fragment of the first overlapped
            // extent and a tail fragment of the last.
            let first = self.extents[lo];
            if first.start < start {
                replacement.push(Extent { start: first.start, end: start, ..first });
                rep_stamps.push(self.stamps[lo]);
            }
        }
        replacement.push(Extent { start, end, physical: e.physical_offset, writer: e.writer });
        rep_stamps.push(e.timestamp);
        if lo < hi {
            let last = self.extents[hi - 1];
            if last.end > end {
                let delta = end - last.start;
                replacement.push(Extent {
                    start: end,
                    end: last.end,
                    physical: last.physical + delta,
                    writer: last.writer,
                });
                rep_stamps.push(self.stamps[hi - 1]);
            }
        }
        // Splice cost: scan the overlapped range, write the
        // replacement, and shift the tail when lengths differ.
        self.merge_steps += (hi - lo) as u64 + replacement.len() as u64;
        if replacement.len() != hi - lo {
            self.merge_steps += (len_before - hi) as u64;
        }
        self.extents.splice(lo..hi, replacement);
        self.stamps.splice(lo..hi, rep_stamps);
    }

    /// Logical work units the merge charged (comparisons, element
    /// moves, heap operations) — a deterministic, wall-clock-free cost.
    pub fn merge_steps(&self) -> u64 {
        self.merge_steps
    }

    /// Disjoint extents in logical order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// The merged map re-expressed as disjoint `IndexEntry` fragments
    /// (original timestamps preserved) — the payload of the
    /// flattened-index cache.
    pub fn fragments(&self) -> Vec<IndexEntry> {
        self.extents
            .iter()
            .zip(&self.stamps)
            .map(|(x, &ts)| IndexEntry {
                logical_offset: x.start,
                length: x.end - x.start,
                physical_offset: x.physical,
                writer: x.writer,
                timestamp: ts,
            })
            .collect()
    }

    /// Logical EOF: one past the last mapped byte (0 if empty).
    pub fn eof(&self) -> u64 {
        self.extents.last().map(|e| e.end).unwrap_or(0)
    }

    /// Resolve `[offset, offset+len)` into `(logical_start, extent)`
    /// pieces plus implicit holes. Pieces are returned in logical
    /// order; holes are represented by `None` extents.
    pub fn lookup(&self, offset: u64, len: u64) -> Vec<(u64, u64, Option<Extent>)> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let end = offset + len;
        let mut pos = offset;
        let mut i = self.extents.partition_point(|x| x.end <= offset);
        while pos < end {
            if i >= self.extents.len() || self.extents[i].start >= end {
                out.push((pos, end - pos, None));
                break;
            }
            let x = self.extents[i];
            if x.start > pos {
                out.push((pos, x.start - pos, None));
                pos = x.start;
            }
            let take_end = x.end.min(end);
            let delta = pos - x.start;
            out.push((
                pos,
                take_end - pos,
                Some(Extent {
                    start: pos,
                    end: take_end,
                    physical: x.physical + delta,
                    writer: x.writer,
                }),
            ));
            pos = take_end;
            i += 1;
        }
        out
    }

    /// Self-check: extents sorted, disjoint, non-empty.
    pub fn check_invariants(&self) {
        assert_eq!(self.extents.len(), self.stamps.len(), "stamp per extent");
        for w in self.extents.windows(2) {
            assert!(w[0].start < w[0].end, "empty extent");
            assert!(w[0].end <= w[1].start, "overlapping extents");
        }
        if let Some(last) = self.extents.last() {
            assert!(last.start < last.end);
        }
    }
}

/// Exact logical cost of [`IndexMap::build_splice_baseline`] on these
/// entries, computed in O(n log n) — a "ghost" run of the splice
/// algorithm that charges every step it *would* take without moving
/// gigabytes of extents. At the scales `repro openscale` sweeps, the
/// real baseline would shift ~10¹¹ elements; this simulation tracks
/// extent geometry in a BTreeMap plus a Fenwick tree over
/// coordinate-compressed boundaries and charges the identical formula
/// (`insert_splice`): one binary search over the live map, the
/// overlapped-range scan, the replacement write, and the tail shift.
pub fn splice_merge_cost(entries: &[IndexEntry]) -> u64 {
    struct Fenwick {
        t: Vec<i64>,
    }
    impl Fenwick {
        fn new(n: usize) -> Self {
            Fenwick { t: vec![0; n + 1] }
        }
        fn add(&mut self, i: usize, d: i64) {
            let mut i = i + 1;
            while i < self.t.len() {
                self.t[i] += d;
                i += i & i.wrapping_neg();
            }
        }
        /// Count of inserted positions with coordinate index < `i`.
        fn prefix(&self, mut i: usize) -> u64 {
            let mut s = 0i64;
            while i > 0 {
                s += self.t[i];
                i -= i & i.wrapping_neg();
            }
            s as u64
        }
    }

    let mut sorted: Vec<IndexEntry> = entries.iter().copied().filter(|e| e.length > 0).collect();
    sorted.sort_by_key(|e| (e.timestamp, e.writer));

    // Every extent start the ghost map can ever hold is an entry start
    // or an entry end (head fragments keep their start; tail fragments
    // start at the overwriting entry's end).
    let mut coords: Vec<u64> = Vec::with_capacity(sorted.len() * 2);
    for e in &sorted {
        coords.push(e.logical_offset);
        coords.push(e.logical_offset + e.length);
    }
    coords.sort_unstable();
    coords.dedup();
    let idx_of = |x: u64| coords.partition_point(|&c| c < x);

    let mut fen = Fenwick::new(coords.len());
    let mut map: BTreeMap<u64, u64> = BTreeMap::new(); // start -> end
    let mut steps = 0u64;
    for e in &sorted {
        let (s, en) = (e.logical_offset, e.logical_offset + e.length);
        let live = map.len();
        steps += search_cost(live);
        // Overlapped extents: possibly a predecessor spanning `s`, plus
        // every extent starting inside [s, en).
        let pred = map.range(..s).next_back().map(|(&a, &b)| (a, b));
        let pred_overlaps = matches!(pred, Some((_, pe)) if pe > s);
        let in_range: Vec<(u64, u64)> = map.range(s..en).map(|(&a, &b)| (a, b)).collect();
        let overlaps = in_range.len() + usize::from(pred_overlaps);
        let lt_s = fen.prefix(idx_of(s));
        let lo = lt_s - u64::from(pred_overlaps);
        let hi = lo + overlaps as u64;
        let first = if pred_overlaps { pred } else { in_range.first().copied() };
        let last = if in_range.is_empty() {
            if pred_overlaps {
                pred
            } else {
                None
            }
        } else {
            in_range.last().copied()
        };
        let mut repl = 1u64;
        if matches!(first, Some((fs, _)) if fs < s) {
            repl += 1;
        }
        let tail = matches!(last, Some((_, le)) if le > en);
        if tail {
            repl += 1;
        }
        steps += overlaps as u64 + repl;
        if repl != overlaps as u64 {
            steps += live as u64 - hi;
        }
        // Mutate the ghost geometry the way splice would.
        if pred_overlaps {
            let (ps, _) = pred.unwrap();
            map.insert(ps, s); // head fragment keeps [ps, s)
        }
        for (a, _) in &in_range {
            map.remove(a);
            fen.add(idx_of(*a), -1);
        }
        if tail {
            let (_, le) = last.unwrap();
            map.insert(en, le);
            fen.add(idx_of(en), 1);
        }
        map.insert(s, en);
        fen.add(idx_of(s), 1);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(lo: u64, len: u64, phys: u64, writer: u32, ts: u64) -> IndexEntry {
        IndexEntry { logical_offset: lo, length: len, physical_offset: phys, writer, timestamp: ts }
    }

    #[test]
    fn raw_roundtrip() {
        let entries = vec![e(0, 10, 0, 0, 1), e(10, 20, 10, 1, 2), e(5, 5, 30, 2, 3)];
        let enc = encode_raw(&entries);
        assert_eq!(decode(&enc).unwrap(), entries);
    }

    #[test]
    fn compressed_roundtrip_strided() {
        // Classic N-1 strided pattern from one rank.
        let entries: Vec<_> =
            (0..100).map(|i| e(i * 4096 * 8, 4096, i * 4096, 3, 100 + i)).collect();
        let enc = encode_compressed(&entries);
        assert_eq!(decode(&enc).unwrap(), entries);
        // One pattern record instead of 100 raw: big compression.
        let raw = encode_raw(&entries);
        assert!(enc.len() * 10 < raw.len(), "compressed {} vs raw {}", enc.len(), raw.len());
    }

    #[test]
    fn compressed_roundtrip_descending_stride() {
        // A rank walking its region backwards: logical offsets descend
        // while the log (physical offsets, timestamps) advances.
        let entries: Vec<_> =
            (0..100u64).map(|i| e((99 - i) * 8192, 4096, i * 4096, 5, 200 + i)).collect();
        let enc = encode_compressed(&entries);
        assert_eq!(decode(&enc).unwrap(), entries);
        let raw = encode_raw(&entries);
        assert!(enc.len() * 10 < raw.len(), "descending runs must compress too");
    }

    #[test]
    fn compressed_handles_irregular_tail() {
        let mut entries: Vec<_> = (0..10).map(|i| e(i * 100, 10, i * 10, 0, i)).collect();
        entries.push(e(5000, 7, 100, 0, 50));
        entries.push(e(6000, 9, 107, 1, 51));
        let enc = encode_compressed(&entries);
        assert_eq!(decode(&enc).unwrap(), entries);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[9, 9, 9]).is_err());
        let good = encode_raw(&[e(0, 1, 0, 0, 0)]);
        assert!(decode(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_overflowing_raw_entry() {
        // logical_offset + length wraps u64: a corrupt dropping that
        // used to panic the merge in debug builds.
        let mut blob = encode_raw(&[e(0, 10, 0, 0, 1)]);
        blob.extend(encode_raw(&[e(u64::MAX - 4, 10, 0, 0, 2)]));
        let err = decode(&blob).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The good prefix is still salvageable.
        let (entries, consumed) = decode_prefix(&blob);
        assert_eq!(entries, vec![e(0, 10, 0, 0, 1)]);
        assert_eq!(consumed, RAW_RECORD_BYTES + 1 + RECORD_CRC_BYTES);
    }

    #[test]
    fn unchecksummed_tags_are_bad_tags() {
        // Tags 1 and 2 framed records without a CRC before this format;
        // they decode as corrupt, like any other unknown tag.
        let raw = {
            let mut b = vec![1];
            b.put_u64_le(0);
            b.put_u64_le(10);
            b.put_u64_le(0);
            b.put_u32_le(0);
            b.put_u64_le(1);
            b
        };
        let mut pattern =
            encode_compressed(&(0..3).map(|i| e(i * 8, 4, i * 4, 7, 9 + i)).collect::<Vec<_>>());
        assert_eq!(pattern[0], TAG_PATTERN);
        pattern[0] = 2;
        pattern.truncate(1 + PATTERN_RECORD_BYTES);
        for (tag, blob) in [(1, raw), (2, pattern)] {
            let err = decode(&blob).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), format!("bad index record tag {tag}"));
            assert_eq!(decode_prefix(&blob), (vec![], 0), "tag {tag}: nothing consumed");
        }
    }

    #[test]
    fn checksummed_records_detect_any_single_byte_corruption() {
        // Flip one bit in every byte of both encodings; every flip must
        // decode as an error (never as different-but-plausible entries).
        let entries: Vec<_> = (0..9).map(|i| e(i * 64, 32, i * 32, 2, 10 + i)).collect();
        for blob in [encode_raw(&entries), encode_compressed(&entries)] {
            assert_eq!(decode(&blob).unwrap(), entries);
            for pos in 0..blob.len() {
                let mut bad = blob.clone();
                bad[pos] ^= 0x10;
                assert!(
                    decode(&bad).is_err(),
                    "byte {pos} of {} corrupted yet decoded cleanly",
                    blob.len()
                );
            }
        }
    }

    fn pattern(logical_start: u64, length: u64, stride: i64, count: u32) -> PatternEntry {
        PatternEntry {
            logical_start,
            length,
            logical_stride: stride,
            count,
            physical_start: 0,
            writer: 0,
            timestamp_start: 1,
        }
    }

    #[test]
    fn decode_rejects_overflowing_pattern() {
        // Checksummed pattern records whose later repetitions run past
        // u64::MAX, whose negative stride underflows 0, or that hold no
        // entry or only empty ones (which would expand to 2³² entries
        // whatever the data holds).
        for p in [
            pattern(u64::MAX - 100, 10, 50, 5),
            pattern(100, 10, -60, 5),
            pattern(0, 10, 64, 0),
            pattern(0, 0, 64, u32::MAX),
        ] {
            let mut blob = Vec::new();
            put_pattern(&mut blob, &p);
            let err = decode(&blob).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{p:?}");
            assert!(err.to_string().starts_with("invalid index record: pattern"), "{p:?}: {err}");
            assert_eq!(decode_prefix(&blob).1, 0, "no bytes of a corrupt record consumed");
        }
    }

    #[test]
    fn patterns_expand_only_as_far_as_their_data() {
        // Two records: 3 entries at physical 0..48, then a descending
        // run of u32::MAX entries from physical 48.
        let mut blob =
            encode_compressed(&[e(0, 16, 0, 1, 5), e(64, 16, 16, 1, 6), e(128, 16, 32, 1, 7)]);
        let huge = PatternEntry { physical_start: 48, ..pattern(1 << 40, 16, -16, u32::MAX) };
        put_pattern(&mut blob, &huge);
        let d = decode_backed(&blob, Backing::Data(100));
        assert!(d.torn.is_none());
        assert_eq!(d.consumed, blob.len());
        // 48 + 3·16 ≤ 100 < 48 + 4·16: three of the huge run are backed.
        assert_eq!(d.entries.len(), 6);
        assert_eq!(d.entries[3..], huge.expand().take(3).collect::<Vec<_>>()[..]);
        let count = u64::from(u32::MAX);
        assert_eq!(
            d.dangling,
            vec![Dangling {
                entries: count - 3,
                physical_end: 48 + 16 * count,
                logical_end: (1 << 40) - 3 * 16 + 16,
            }]
        );
        let err = d.whole().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Data that backs all of the first record and none of the second.
        let d = decode_backed(&blob, Backing::Data(48));
        assert_eq!((d.entries.len(), d.dangling[0].entries), (3, count));
        // Raw-only streams take no pattern record at all.
        let d = decode_backed(&blob, Backing::RawOnly);
        assert_eq!((d.entries.len(), d.consumed), (0, 0));
        assert_eq!(d.torn.unwrap().to_string(), "bad index record tag 4");
        let raw = encode_raw(&[e(0, 16, 0, 1, 5)]);
        assert_eq!(decode_backed(&raw, Backing::RawOnly).whole().unwrap(), vec![e(0, 16, 0, 1, 5)]);
    }

    /// The one on-disk index format, byte for byte: an index dropping
    /// with one pattern and one raw record, a `canonical.index`, and a
    /// checksum sidecar. The round-trip tests cannot see an encoder and
    /// decoder that change together; this test can, so any change to
    /// the format has to edit it on purpose.
    #[test]
    fn on_disk_format_is_pinned() {
        use crate::canonical::CanonicalIndex;
        use crate::checksum::{chk_header, crc32};
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let entries = [
            e(0, 16, 0, 7, 100),
            e(64, 16, 16, 7, 101),
            e(128, 16, 32, 7, 102),
            e(1000, 5, 48, 7, 103),
        ];
        let index = encode_compressed(&entries);
        assert_eq!(
            hex(&index),
            concat!(
                // tag 4: logical 0, length 16, stride 64, count 3,
                // physical 0, writer 7, timestamp 100, CRC
                "04",
                "0000000000000000",
                "1000000000000000",
                "4000000000000000",
                "03000000",
                "0000000000000000",
                "07000000",
                "6400000000000000",
                "c6e0c3fb",
                // tag 3: logical 1000, length 5, physical 48, writer 7,
                // timestamp 103, CRC
                "03",
                "e803000000000000",
                "0500000000000000",
                "3000000000000000",
                "07000000",
                "6700000000000000",
                "b631f69b",
            )
        );
        assert_eq!(decode(&index).unwrap(), entries);
        let canon = CanonicalIndex {
            watermark: 2,
            covered: vec![(7, index.len() as u64)],
            fragments: vec![entries[0], entries[3]],
        };
        assert_eq!(
            hex(&canon.encode()),
            concat!(
                // magic "PLFSCAN2", CRC of the rest, watermark 2, one
                // covered (rank 7, 94 B), payload of 82 B
                "504c465343414e32",
                "40bf3b8a",
                "0200000000000000",
                "01000000",
                "07000000",
                "5e00000000000000",
                "5200000000000000",
                // payload: two raw records
                "03",
                "0000000000000000",
                "1000000000000000",
                "0000000000000000",
                "07000000",
                "6400000000000000",
                "1ad6d645",
                "03",
                "e803000000000000",
                "0500000000000000",
                "3000000000000000",
                "07000000",
                "6700000000000000",
                "b631f69b",
            )
        );
        assert_eq!(CanonicalIndex::decode(&canon.encode()).unwrap(), canon);
        let mut sidecar = chk_header(4096);
        for block in [&[0xAB; 4096][..], b"tail"] {
            sidecar.extend_from_slice(&crc32(block).to_le_bytes());
        }
        // magic "PLFSCHK1", version 1, block 4096, two CRCs
        assert_eq!(
            hex(&sidecar),
            concat!("504c465343484b31", "01", "00100000", "0b5c79a8", "5db4377c")
        );
    }

    #[test]
    fn map_non_overlapping() {
        let m = IndexMap::build(vec![e(0, 10, 0, 0, 1), e(20, 10, 10, 1, 2)]);
        m.check_invariants();
        assert_eq!(m.eof(), 30);
        assert_eq!(m.extents().len(), 2);
    }

    #[test]
    fn later_write_wins_overlap() {
        let m = IndexMap::build(vec![e(0, 100, 0, 0, 1), e(25, 50, 0, 1, 2)]);
        m.check_invariants();
        let x = m.extents();
        assert_eq!(x.len(), 3);
        assert_eq!((x[0].start, x[0].end, x[0].writer), (0, 25, 0));
        assert_eq!((x[1].start, x[1].end, x[1].writer), (25, 75, 1));
        assert_eq!((x[2].start, x[2].end, x[2].writer), (75, 100, 0));
        // Tail fragment physical offset advanced by the cut.
        assert_eq!(x[2].physical, 75);
    }

    #[test]
    fn earlier_write_loses_even_if_inserted_later() {
        // build() sorts by timestamp, so insertion order must not matter.
        let m1 = IndexMap::build(vec![e(0, 100, 0, 0, 2), e(25, 50, 0, 1, 1)]);
        let m2 = IndexMap::build(vec![e(25, 50, 0, 1, 1), e(0, 100, 0, 0, 2)]);
        assert_eq!(m1.extents(), m2.extents());
        assert_eq!(m1.extents().len(), 1);
        assert_eq!(m1.extents()[0].writer, 0);
    }

    #[test]
    fn sweep_matches_splice_baseline_on_fixed_cases() {
        let cases: Vec<Vec<IndexEntry>> = vec![
            vec![],
            vec![e(0, 10, 0, 0, 1)],
            vec![e(0, 100, 0, 0, 1), e(25, 50, 0, 1, 2)],
            vec![e(0, 100, 0, 0, 2), e(25, 50, 0, 1, 1)],
            vec![e(0, 10, 0, 0, 1), e(0, 10, 0, 1, 2)],
            vec![e(0, 100, 0, 0, 1), e(10, 10, 0, 1, 2), e(10, 10, 0, 2, 3)],
            vec![e(0, 100, 0, 0, 3), e(200, 50, 100, 0, 4), e(50, 200, 0, 1, 5)],
            // Zero-length entries are dropped by both.
            vec![e(5, 0, 0, 0, 1), e(0, 10, 0, 1, 2)],
        ];
        for entries in cases {
            let sweep = IndexMap::build(entries.clone());
            let splice = IndexMap::build_splice_baseline(entries.clone());
            sweep.check_invariants();
            splice.check_invariants();
            assert_eq!(sweep.extents(), splice.extents(), "entries {entries:?}");
            assert_eq!(sweep.fragments(), splice.fragments(), "stamps {entries:?}");
        }
    }

    #[test]
    fn ghost_splice_cost_equals_real_baseline() {
        let mut rng = simkit::Rng::new(0xC0575);
        for _ in 0..50 {
            let n = rng.range_inclusive(1, 40) as usize;
            let entries: Vec<IndexEntry> = (0..n)
                .map(|i| {
                    e(
                        rng.below(5000),
                        rng.range_inclusive(1, 400),
                        rng.below(1 << 20),
                        rng.below(4) as u32,
                        i as u64,
                    )
                })
                .collect();
            let real = IndexMap::build_splice_baseline(entries.clone());
            assert_eq!(
                splice_merge_cost(&entries),
                real.merge_steps(),
                "ghost must charge exactly what the real splice charges: {entries:?}"
            );
        }
    }

    #[test]
    fn merge_steps_scale_near_linearithmic() {
        // The worst case for the splice: per-rank timestamp blocks of
        // strided records, each insert landing mid-map.
        let gen = |ranks: u64, per: u64| -> Vec<IndexEntry> {
            let mut v = Vec::new();
            for r in 0..ranks {
                for i in 0..per {
                    v.push(e((i * ranks + r) * 64, 64, i * 64, r as u32, r * per + i));
                }
            }
            v
        };
        let small = IndexMap::build(gen(8, 100));
        let big = IndexMap::build(gen(8, 400));
        small.check_invariants();
        big.check_invariants();
        // 4x the entries must cost far less than 16x the steps (the
        // quadratic signature); allow ~4 * log factor.
        assert!(
            big.merge_steps() < small.merge_steps() * 8,
            "sweep no longer n log n: {} -> {}",
            small.merge_steps(),
            big.merge_steps()
        );
        let splice = IndexMap::build_splice_baseline(gen(8, 400));
        assert_eq!(big.extents(), splice.extents());
        assert!(
            splice.merge_steps() > big.merge_steps() * 10,
            "splice {} vs sweep {}",
            splice.merge_steps(),
            big.merge_steps()
        );
    }

    #[test]
    fn fragments_roundtrip_through_build() {
        let m = IndexMap::build(vec![e(0, 100, 0, 0, 1), e(25, 50, 0, 1, 2), e(300, 7, 60, 2, 3)]);
        let again = IndexMap::build(m.fragments());
        assert_eq!(m.extents(), again.extents());
        // Disjoint input takes the linear fast path.
        assert!(again.merge_steps() <= m.fragments().len() as u64);
    }

    #[test]
    fn lookup_with_holes() {
        let m = IndexMap::build(vec![e(10, 10, 0, 0, 1), e(30, 10, 10, 0, 2)]);
        let pieces = m.lookup(0, 50);
        // hole [0,10), data [10,20), hole [20,30), data [30,40), hole [40,50)
        assert_eq!(pieces.len(), 5);
        assert!(pieces[0].2.is_none());
        assert_eq!(pieces[1].2.unwrap().physical, 0);
        assert!(pieces[2].2.is_none());
        assert_eq!(pieces[3].2.unwrap().physical, 10);
        assert!(pieces[4].2.is_none());
        let total: u64 = pieces.iter().map(|p| p.1).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn lookup_mid_extent_adjusts_physical() {
        let m = IndexMap::build(vec![e(0, 100, 1000, 7, 1)]);
        let pieces = m.lookup(40, 20);
        assert_eq!(pieces.len(), 1);
        let x = pieces[0].2.unwrap();
        assert_eq!(x.physical, 1040);
        assert_eq!(pieces[0].1, 20);
    }

    #[test]
    fn strided_interleaving_resolves_fully() {
        // 4 ranks, strided 1 KiB records: rank r writes records r, r+4, ...
        let mut entries = Vec::new();
        for rec in 0..64u64 {
            let rank = (rec % 4) as u32;
            let phys = (rec / 4) * 1024;
            entries.push(e(rec * 1024, 1024, phys, rank, rec));
        }
        let m = IndexMap::build(entries);
        m.check_invariants();
        assert_eq!(m.eof(), 64 * 1024);
        // Fully covered: single lookup has no holes.
        let pieces = m.lookup(0, 64 * 1024);
        assert!(pieces.iter().all(|p| p.2.is_some()));
    }
}
