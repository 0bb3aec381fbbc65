//! Storage backends PLFS stacks on.
//!
//! PLFS is *middleware*: it reorganizes the application's I/O and hands
//! the result to an underlying file system. The original ran over PanFS,
//! Lustre, and GPFS through FUSE or MPI-IO; here the underlying store is
//! anything implementing [`Backend`] — an in-memory map for tests, a
//! real local directory ([`DirBackend`]) for actual use, or the
//! `pfs`-simulated cluster for performance experiments (see
//! `simadapter`).
//!
//! The trait is deliberately narrow: PLFS only ever *creates*,
//! *appends*, *reads*, and *lists* — the whole point of the log-structured
//! container is that the backing store never sees an overwrite or a
//! concurrent shared-file write.
//!
//! A decorator over another store (faults, retry, chunking, pacing)
//! implements [`Layer`]: it names the store [`below`](Layer::below) it
//! and overrides only what it changes. A blanket impl makes it a
//! [`Backend`] that forwards the rest, each fallible call through the
//! one around-hook [`Layer::call`] (a fault gate, a retry loop), so
//! `create_new` and `rename` stay the atomic calls of the store below.
//! `read_all` is never forwarded: it loops over the layer's own
//! `len`/`read_at`, so what a layer does to reads (bit flips, short-read
//! caps, chunk manifests) applies to whole-file reads too.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A minimal flat file-store interface.
pub trait Backend: Send + Sync {
    /// Create all directories along `path`.
    fn mkdir_all(&self, path: &str) -> io::Result<()>;

    /// Create an empty file (truncating any existing one).
    fn create(&self, path: &str) -> io::Result<()>;

    /// Create an empty file *only if it does not already exist*;
    /// `Err(AlreadyExists)` if it does. This is the one compare-and-swap
    /// primitive PLFS asks of the store: concurrent openers race their
    /// session reservations through it, so it must be genuinely atomic
    /// (`O_EXCL` on a POSIX store).
    fn create_new(&self, path: &str) -> io::Result<()>;

    /// Append `data` to `path` (creating it if missing); returns the
    /// offset at which the data landed.
    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64>;

    /// Read up to `buf.len()` bytes at `off`.
    ///
    /// Partial-read contract (POSIX `pread` semantics):
    ///
    /// - A short-but-nonzero read (`0 < got < buf.len()`) is *legal*
    ///   anywhere in the file, exactly as `pread(2)` may deliver fewer
    ///   bytes than asked for. Callers that need the buffer filled must
    ///   loop at the advanced offset (the PLFS read engine and the
    ///   default [`Backend::read_all`] do).
    /// - `Ok(0)` means EOF — true end of data at `off`, never a
    ///   transient condition. This is what lets callers distinguish
    ///   "file is shorter than the index claims" from a slow read.
    /// - A missing file is `Err(NotFound)`, never `Ok(0)`.
    ///
    /// The in-repo implementations ([`MemBackend`], [`DirBackend`]) go
    /// further and fill `buf` completely below EOF, but callers must
    /// not rely on that: any backend is free to return short.
    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Length of a file.
    fn len(&self, path: &str) -> io::Result<u64>;

    /// Names (not paths) of entries directly under `dir`.
    fn list(&self, dir: &str) -> io::Result<Vec<String>>;

    fn exists(&self, path: &str) -> bool;

    /// Atomically rename `from` to `to`, replacing any existing file at
    /// `to`. This is the commit primitive crash-safe rewrites build on
    /// (write to a temp path, then rename over the original): after a
    /// crash the destination holds either its old contents or the new
    /// ones, never a torn mix (`rename(2)` on POSIX).
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Remove a file.
    fn remove(&self, path: &str) -> io::Result<()>;

    /// Remove a directory tree. Removing the root (`/`) empties the
    /// store and leaves it usable.
    fn remove_dir_all(&self, path: &str) -> io::Result<()>;

    /// Read a whole file. Loops on short-but-nonzero reads, so it is
    /// correct over any `read_at` honouring the partial-read contract.
    fn read_all(&self, path: &str) -> io::Result<Vec<u8>> {
        let n = self.len(path)? as usize;
        let mut buf = vec![0u8; n];
        let mut filled = 0usize;
        while filled < n {
            match self.read_at(path, filled as u64, &mut buf[filled..])? {
                0 => break,
                got => filled += got,
            }
        }
        buf.truncate(filled);
        Ok(buf)
    }
}

/// The base of a decorating [`Backend`] (see the module docs).
pub trait Layer: Send + Sync {
    /// The store this layer decorates.
    fn below(&self) -> &dyn Backend;

    /// Runs every forwarded call but `exists` on the store below.
    fn call<T>(&self, mut op: impl FnMut(&dyn Backend) -> io::Result<T>) -> io::Result<T> {
        op(self.below())
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        self.call(|b| b.append(path, data))
    }

    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.call(|b| b.read_at(path, off, buf))
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.call(|b| b.len(path))
    }

    fn create_new(&self, path: &str) -> io::Result<()> {
        self.call(|b| b.create_new(path))
    }
}

impl<L: Layer> Backend for L {
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        self.call(|b| b.mkdir_all(path))
    }

    fn create(&self, path: &str) -> io::Result<()> {
        self.call(|b| b.create(path))
    }

    fn create_new(&self, path: &str) -> io::Result<()> {
        Layer::create_new(self, path)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        Layer::append(self, path, data)
    }

    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        Layer::read_at(self, path, off, buf)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        Layer::len(self, path)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.call(|b| b.list(dir))
    }

    fn exists(&self, path: &str) -> bool {
        self.below().exists(path)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.call(|b| b.rename(from, to))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.call(|b| b.remove(path))
    }

    fn remove_dir_all(&self, path: &str) -> io::Result<()> {
        self.call(|b| b.remove_dir_all(path))
    }
}

fn not_found(path: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such path: {path}"))
}

/// In-memory backend for tests and fast experiments.
///
/// Each file is stored as fixed-size segments of `SEG` (1 MiB) bytes:
/// the first segment lives inline in the file record and grows like a
/// `Vec` up to half a segment, then moves to a full one; every later
/// one is allocated once with capacity exactly `SEG` and never moves.
/// An append therefore copies only the bytes it adds. One `Vec<u8>` per
/// file would instead realloc-copy the whole file at every doubling and
/// fault in fresh pages each time, so
/// the cost of an append into a large dropping would measure the heap
/// rather than the caller. Small files (blobs, manifests, index
/// droppings) stay in their one inline segment and cost no more
/// allocations than a plain `Vec`. Keys are `Box<str>` and the later
/// segments hang off one boxed pointer, so a file's map entry is no
/// larger than a `String` key plus a `Vec<u8>`.
///
/// Segments also outlive their files. `remove`, `remove_dir_all`, a
/// truncating `create` and a `rename` over an existing file clear every
/// `SEG`-capacity segment of the file they drop (its head too, once it
/// moved to a full one) and keep it on a free list; an append that
/// needs a new segment, or a head about to grow past `SEG / 2`, takes
/// one from the list before it allocates. Fixed segments alone keep one file from
/// re-faulting, but not the next one: a store that writes and unlinks a
/// large file per round would hand its segments back to the OS and
/// fault every page in again for the next file. The list needs no cap:
/// it never holds more than the store's own high-water mark. A
/// recycled segment is cleared, so `len`, `read_at` and `total_bytes`
/// see only the live bytes of live files.
#[derive(Default)]
pub struct MemBackend {
    inner: Mutex<MemState>,
}

#[derive(Default)]
struct MemState {
    files: HashMap<Box<str>, MemFile>,
    dirs: HashMap<Box<str>, ()>,
    /// Cleared segments of dropped files, each of capacity `SEG`.
    free: Vec<Vec<u8>>,
}

/// Bytes per segment of a [`MemBackend`] file.
const SEG: usize = 1 << 20;

/// One file of a [`MemBackend`]: every segment but the last is exactly
/// `SEG` bytes long, so a byte offset maps to its segment by division.
#[derive(Default)]
struct MemFile {
    /// Segment 0, grown in place up to capacity `SEG / 2`, then moved
    /// to a full `SEG` one.
    head: Vec<u8>,
    /// Segments 1.., each allocated with capacity `SEG`; boxed, so a
    /// file that never passes `SEG` pays one null pointer for them.
    // The extra allocation this lint warns of is made only past `SEG`;
    // the box keeps every smaller file's record 16 bytes narrower.
    #[allow(clippy::box_collection)]
    rest: Option<Box<Vec<Vec<u8>>>>,
}

impl MemFile {
    fn rest(&self) -> &[Vec<u8>] {
        self.rest.as_deref().map_or(&[], Vec::as_slice)
    }

    fn len(&self) -> usize {
        let rest = self.rest();
        match rest.last() {
            None => self.head.len(),
            Some(last) => SEG * rest.len() + last.len(),
        }
    }

    fn segment(&self, i: usize) -> &[u8] {
        if i == 0 {
            &self.head
        } else {
            &self.rest()[i - 1]
        }
    }

    /// Append `data`, taking any new segment from `free` before it
    /// allocates one; returns the offset the data landed at.
    fn append(&mut self, mut data: &[u8], free: &mut Vec<Vec<u8>>) -> u64 {
        let off = self.len() as u64;
        let mut fresh = || free.pop().unwrap_or_else(|| Vec::with_capacity(SEG));
        while !data.is_empty() {
            let seg = match &mut self.rest {
                None if self.head.len() < SEG => &mut self.head,
                rest => {
                    let rest = rest.get_or_insert_with(Box::default);
                    if rest.last().is_none_or(|s| s.len() == SEG) {
                        rest.push(fresh());
                    }
                    rest.last_mut().expect("a segment was just pushed")
                }
            };
            let n = data.len().min(SEG - seg.len());
            // A head that would grow past half a segment moves to a full
            // one at once: doubling on would overshoot `SEG` (47 008 B
            // records double to 1 504 256 B), and a head of any other
            // capacity between `SEG / 2` and `SEG` could not be recycled.
            let need = seg.len() + n;
            if need > seg.capacity() && need.max(2 * seg.capacity()) > SEG / 2 {
                let mut full = fresh();
                full.extend_from_slice(seg);
                *seg = full;
            }
            seg.extend_from_slice(&data[..n]);
            data = &data[n..];
        }
        off
    }

    /// Drop the file, keeping its `SEG`-capacity segments, cleared, on
    /// `free`.
    fn recycle(self, free: &mut Vec<Vec<u8>>) {
        let rest = self.rest.map_or_else(Vec::new, |rest| *rest);
        for mut seg in std::iter::once(self.head).chain(rest) {
            if seg.capacity() == SEG {
                seg.clear();
                free.push(seg);
            }
        }
    }

    /// Fills `buf` from `off` up to EOF; returns the bytes copied.
    fn read_at(&self, off: usize, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.len().saturating_sub(off));
        let mut done = 0;
        while done < n {
            let pos = off + done;
            let seg = &self.segment(pos / SEG)[pos % SEG..];
            let k = seg.len().min(n - done);
            buf[done..done + k].copy_from_slice(&seg[..k]);
            done += k;
        }
        n
    }
}

/// `path` as a store key: a leading `/`, no empty or `.` components and
/// no trailing `/`. Borrowed when `path` already has that form.
fn norm(path: &str) -> Cow<'_, str> {
    let normal = path == "/"
        || path
            .strip_prefix('/')
            .is_some_and(|rest| rest.split('/').all(|c| !c.is_empty() && c != "."));
    if normal {
        return Cow::Borrowed(path);
    }
    let mut out = String::with_capacity(path.len());
    for comp in path.split('/').filter(|c| !c.is_empty() && *c != ".") {
        out.push('/');
        out.push_str(comp);
    }
    if out.is_empty() {
        out.push('/');
    }
    Cow::Owned(out)
}

/// The key prefix every path under `dir` starts with (`"/"` for the root).
fn dir_prefix(dir: &str) -> String {
    let mut p = norm(dir).into_owned();
    if !p.ends_with('/') {
        p.push('/');
    }
    p
}

impl MemBackend {
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Total bytes stored (test introspection).
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().unwrap().files.values().map(|f| f.len() as u64).sum()
    }

    /// Number of files stored.
    pub fn file_count(&self) -> usize {
        self.inner.lock().unwrap().files.len()
    }
}

impl Backend for MemBackend {
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        let mut st = self.inner.lock().unwrap();
        let p = norm(path);
        let mut acc = String::new();
        for comp in p.split('/').filter(|c| !c.is_empty()) {
            acc.push('/');
            acc.push_str(comp);
            st.dirs.insert(acc.as_str().into(), ());
        }
        Ok(())
    }

    fn create(&self, path: &str) -> io::Result<()> {
        let mut st = self.inner.lock().unwrap();
        if let Some(old) = st.files.insert(norm(path).into(), MemFile::default()) {
            old.recycle(&mut st.free);
        }
        Ok(())
    }

    // Atomic: the single state mutex makes check-and-insert one step.
    fn create_new(&self, path: &str) -> io::Result<()> {
        let mut st = self.inner.lock().unwrap();
        let p = norm(path);
        if st.files.contains_key(&*p) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("path already exists: {path}"),
            ));
        }
        st.files.insert(p.into(), MemFile::default());
        Ok(())
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let mut st = self.inner.lock().unwrap();
        let MemState { files, free, .. } = &mut *st;
        let p = norm(path);
        // Only a new file pays for its key.
        if let Some(f) = files.get_mut(&*p) {
            return Ok(f.append(data, free));
        }
        Ok(files.entry(p.into()).or_default().append(data, free))
    }

    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let st = self.inner.lock().unwrap();
        let f = st.files.get(&*norm(path)).ok_or_else(|| not_found(path))?;
        // An offset beyond `usize` is beyond EOF too.
        Ok(usize::try_from(off).map_or(0, |off| f.read_at(off, buf)))
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        let st = self.inner.lock().unwrap();
        st.files.get(&*norm(path)).map(|f| f.len() as u64).ok_or_else(|| not_found(path))
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let st = self.inner.lock().unwrap();
        let prefix = dir_prefix(dir);
        let mut names: Vec<String> = st
            .files
            .keys()
            .chain(st.dirs.keys())
            .filter_map(|k| {
                let rest = k.strip_prefix(&prefix)?;
                let first = rest.split('/').next()?;
                if first.is_empty() {
                    None
                } else {
                    Some(first.to_string())
                }
            })
            .collect();
        names.sort();
        names.dedup();
        Ok(names)
    }

    fn exists(&self, path: &str) -> bool {
        let st = self.inner.lock().unwrap();
        let p = norm(path);
        st.files.contains_key(&*p) || st.dirs.contains_key(&*p)
    }

    // Atomic: the single state mutex makes take-and-reinsert one step.
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut st = self.inner.lock().unwrap();
        let data = st.files.remove(&*norm(from)).ok_or_else(|| not_found(from))?;
        if let Some(old) = st.files.insert(norm(to).into(), data) {
            old.recycle(&mut st.free);
        }
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let mut st = self.inner.lock().unwrap();
        let f = st.files.remove(&*norm(path)).ok_or_else(|| not_found(path))?;
        f.recycle(&mut st.free);
        Ok(())
    }

    fn remove_dir_all(&self, path: &str) -> io::Result<()> {
        let mut st = self.inner.lock().unwrap();
        let MemState { files, dirs, free } = &mut *st;
        let p = norm(path);
        let prefix = dir_prefix(path);
        let under = |k: &str| *k == *p || k.starts_with(&prefix);
        for (_, f) in files.extract_if(|k, _| under(k)) {
            f.recycle(free);
        }
        dirs.retain(|k, _| !under(k));
        Ok(())
    }
}

/// A backend over a real directory on the local file system — PLFS
/// actually running as middleware, as in the original FUSE deployment.
pub struct DirBackend {
    root: PathBuf,
    /// Serializes append length-lookups with the writes themselves.
    append_lock: Mutex<()>,
}

impl DirBackend {
    pub fn new<P: AsRef<Path>>(root: P) -> io::Result<Self> {
        fs::create_dir_all(root.as_ref())?;
        Ok(DirBackend { root: root.as_ref().to_path_buf(), append_lock: Mutex::new(()) })
    }

    fn abs(&self, path: &str) -> PathBuf {
        let rel = norm(path);
        self.root.join(rel.trim_start_matches('/'))
    }
}

impl Backend for DirBackend {
    fn mkdir_all(&self, path: &str) -> io::Result<()> {
        fs::create_dir_all(self.abs(path))
    }

    fn create(&self, path: &str) -> io::Result<()> {
        fs::File::create(self.abs(path)).map(|_| ())
    }

    // Atomic via O_EXCL: the kernel arbitrates racing creators.
    fn create_new(&self, path: &str) -> io::Result<()> {
        fs::OpenOptions::new().write(true).create_new(true).open(self.abs(path)).map(|_| ())
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
        let _g = self.append_lock.lock().unwrap();
        let mut f = fs::OpenOptions::new().create(true).append(true).open(self.abs(path))?;
        let off = f.seek(SeekFrom::End(0))?;
        f.write_all(data)?;
        Ok(off)
    }

    fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut f = fs::File::open(self.abs(path))?;
        f.seek(SeekFrom::Start(off))?;
        // Loop until the buffer is full or EOF: `File::read` may return
        // short mid-file, but the Backend contract reserves short reads
        // for EOF alone.
        let mut total = 0;
        while total < buf.len() {
            match f.read(&mut buf[total..])? {
                0 => break,
                n => total += n,
            }
        }
        Ok(total)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.abs(path))?.len())
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for e in fs::read_dir(self.abs(dir))? {
            names.push(e?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &str) -> bool {
        self.abs(path).exists()
    }

    // Atomic via rename(2): the kernel swaps the directory entries.
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.abs(from), self.abs(to))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        fs::remove_file(self.abs(path))
    }

    // The root is the store itself: removing it empties it, as on
    // `MemBackend`, so later appends still land.
    fn remove_dir_all(&self, path: &str) -> io::Result<()> {
        if norm(path) != "/" {
            return fs::remove_dir_all(self.abs(path));
        }
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
            } else {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkBackend;
    use crate::faults::{FaultPlan, FaultyBackend};
    use crate::retry::{RetriedBackend, RetryPolicy};
    use std::sync::Arc;

    fn exercise(b: &dyn Backend) {
        b.mkdir_all("/cp/hostdir.0").unwrap();
        assert!(b.exists("/cp/hostdir.0"));
        let o1 = b.append("/cp/hostdir.0/data.0", b"hello ").unwrap();
        let o2 = b.append("/cp/hostdir.0/data.0", b"world").unwrap();
        assert_eq!((o1, o2), (0, 6));
        assert_eq!(b.len("/cp/hostdir.0/data.0").unwrap(), 11);
        let mut buf = [0u8; 5];
        let n = b.read_at("/cp/hostdir.0/data.0", 6, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"world");
        // Read past EOF.
        assert_eq!(b.read_at("/cp/hostdir.0/data.0", 100, &mut buf).unwrap(), 0);
        // Listing.
        b.append("/cp/hostdir.0/index.0", b"x").unwrap();
        let names = b.list("/cp/hostdir.0").unwrap();
        assert_eq!(names, vec!["data.0".to_string(), "index.0".to_string()]);
        // Whole-file read.
        assert_eq!(b.read_all("/cp/hostdir.0/data.0").unwrap(), b"hello world");
        // Exclusive create: first wins, second sees AlreadyExists.
        b.create_new("/cp/hostdir.0/excl").unwrap();
        let err = b.create_new("/cp/hostdir.0/excl").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        // Unlike `create`, it must never truncate existing content.
        b.append("/cp/hostdir.0/excl", b"kept").unwrap();
        assert!(b.create_new("/cp/hostdir.0/excl").is_err());
        assert_eq!(b.read_all("/cp/hostdir.0/excl").unwrap(), b"kept");
        // Rename: moves content, replaces the destination, errors on a
        // missing source.
        b.append("/cp/hostdir.0/moving", b"payload").unwrap();
        b.rename("/cp/hostdir.0/moving", "/cp/hostdir.0/moved").unwrap();
        assert!(!b.exists("/cp/hostdir.0/moving"));
        assert_eq!(b.read_all("/cp/hostdir.0/moved").unwrap(), b"payload");
        b.append("/cp/hostdir.0/moving", b"v2").unwrap();
        b.rename("/cp/hostdir.0/moving", "/cp/hostdir.0/moved").unwrap();
        assert_eq!(b.read_all("/cp/hostdir.0/moved").unwrap(), b"v2");
        let err = b.rename("/cp/hostdir.0/ghost", "/cp/hostdir.0/x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        b.remove("/cp/hostdir.0/moved").unwrap();
        // Removal.
        b.remove("/cp/hostdir.0/index.0").unwrap();
        assert!(!b.exists("/cp/hostdir.0/index.0"));
        b.remove_dir_all("/cp").unwrap();
        assert!(!b.exists("/cp/hostdir.0/data.0"));
        // Removing the root empties the store and keeps it usable.
        b.mkdir_all("/r/s").unwrap();
        b.append("/r/s/f", b"1").unwrap();
        b.append("/top", b"2").unwrap();
        b.remove_dir_all("/").unwrap();
        assert!(b.list("/").unwrap().is_empty());
        assert!(!b.exists("/r") && !b.exists("/top"));
        assert_eq!(b.append("/top", b"again").unwrap(), 0);
        assert_eq!(b.read_all("/top").unwrap(), b"again");
        b.remove("/top").unwrap();
    }

    /// The EOF half of the `read_at` contract, plus the stronger
    /// fill-completely behaviour the in-repo backends provide:
    /// straddling reads return the exact remainder, reads at/past EOF
    /// are `Ok(0)`, missing files error.
    fn exercise_read_at_eof(b: &dyn Backend) {
        b.mkdir_all("/eof").unwrap();
        b.append("/eof/f", b"0123456789").unwrap();
        // Entirely below EOF: buffer fills completely.
        let mut buf = [0u8; 4];
        assert_eq!(b.read_at("/eof/f", 2, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"2345");
        // Straddling EOF: exactly len - off bytes.
        let mut buf = [0u8; 8];
        assert_eq!(b.read_at("/eof/f", 7, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"789");
        // At EOF and past EOF: Ok(0), not an error.
        assert_eq!(b.read_at("/eof/f", 10, &mut buf).unwrap(), 0);
        assert_eq!(b.read_at("/eof/f", 1000, &mut buf).unwrap(), 0);
        // Empty file: any offset reads zero bytes.
        b.create("/eof/empty").unwrap();
        assert_eq!(b.read_at("/eof/empty", 0, &mut buf).unwrap(), 0);
        // Zero-length buffer never errors.
        assert_eq!(b.read_at("/eof/f", 0, &mut []).unwrap(), 0);
        // Missing file is NotFound, never Ok(0).
        let err = b.read_at("/eof/nope", 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        b.remove_dir_all("/eof").unwrap();
    }

    #[test]
    fn mem_backend_contract() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn mem_read_at_eof_contract() {
        exercise_read_at_eof(&MemBackend::new());
    }

    #[test]
    fn dir_read_at_eof_contract() {
        let dir = std::env::temp_dir().join(format!("plfs-eof-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        exercise_read_at_eof(&DirBackend::new(&dir).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_contract() {
        let dir = std::env::temp_dir().join(format!("plfs-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let b = DirBackend::new(&dir).unwrap();
        exercise(&b);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layers_keep_the_backend_contract() {
        let faulty = FaultyBackend::new(MemBackend::new(), FaultPlan::none(1));
        let mem = MemBackend::new();
        let policy = RetryPolicy::none();
        let retried = RetriedBackend::new(&mem, &policy);
        let chunked = ChunkBackend::new(Arc::new(MemBackend::new()));
        for layer in [&faulty as &dyn Backend, &retried, &chunked] {
            exercise(layer);
            exercise_read_at_eof(layer);
        }
    }

    /// A store that logs the name of every call it receives.
    #[derive(Default)]
    struct Recording {
        mem: MemBackend,
        calls: Mutex<Vec<&'static str>>,
    }

    impl Recording {
        fn log<T>(&self, name: &'static str, op: impl FnOnce(&MemBackend) -> T) -> T {
            self.calls.lock().unwrap().push(name);
            op(&self.mem)
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut self.calls.lock().unwrap())
        }
    }

    impl Backend for Recording {
        fn mkdir_all(&self, path: &str) -> io::Result<()> {
            self.log("mkdir_all", |m| m.mkdir_all(path))
        }
        fn create(&self, path: &str) -> io::Result<()> {
            self.log("create", |m| m.create(path))
        }
        fn create_new(&self, path: &str) -> io::Result<()> {
            self.log("create_new", |m| m.create_new(path))
        }
        fn append(&self, path: &str, data: &[u8]) -> io::Result<u64> {
            self.log("append", |m| m.append(path, data))
        }
        fn read_at(&self, path: &str, off: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.log("read_at", |m| m.read_at(path, off, buf))
        }
        fn len(&self, path: &str) -> io::Result<u64> {
            self.log("len", |m| m.len(path))
        }
        fn list(&self, dir: &str) -> io::Result<Vec<String>> {
            self.log("list", |m| m.list(dir))
        }
        fn exists(&self, path: &str) -> bool {
            self.log("exists", |m| m.exists(path))
        }
        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.log("rename", |m| m.rename(from, to))
        }
        fn remove(&self, path: &str) -> io::Result<()> {
            self.log("remove", |m| m.remove(path))
        }
        fn remove_dir_all(&self, path: &str) -> io::Result<()> {
            self.log("remove_dir_all", |m| m.remove_dir_all(path))
        }
    }

    /// A layer passes each atomic primitive down as that one call, never
    /// as exists + create or read + create + append + remove.
    fn assert_atomic_calls_pass_through(layer: &dyn Backend, below: &Recording) {
        layer.mkdir_all("/d").unwrap();
        layer.append("/d/src", b"payload").unwrap();
        below.take();
        layer.create_new("/d/marker").unwrap();
        assert_eq!(below.take(), ["create_new"]);
        layer.rename("/d/src", "/d/dst").unwrap();
        assert_eq!(below.take(), ["rename"]);
    }

    #[test]
    fn layers_pass_create_new_and_rename_through() {
        let faulty = FaultyBackend::new(Recording::default(), FaultPlan::none(1));
        assert_atomic_calls_pass_through(&faulty, faulty.inner());
        let rec = Recording::default();
        let policy = RetryPolicy::none();
        assert_atomic_calls_pass_through(&RetriedBackend::new(&rec, &policy), &rec);
        let rec = Arc::new(Recording::default());
        assert_atomic_calls_pass_through(&ChunkBackend::new(rec.clone()), &rec);
    }

    fn seeded_bytes(rng: &mut simkit::rng::Rng, n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n + 8);
        while v.len() < n {
            v.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        v.truncate(n);
        v
    }

    /// Segmented files against a plain `Vec<u8>` per file: appends of
    /// boundary and random sizes, then reads within, across and
    /// straddling segments and EOF, `len`, `total_bytes`, `rename` and a
    /// truncating `create`.
    #[test]
    fn mem_segments_match_a_vec_model() {
        use std::collections::BTreeMap;
        let mut rng = simkit::rng::Rng::new(0x5E6);
        let b = MemBackend::new();
        let paths = ["/m/a", "/m/b", "/m/c", "/m/d"];
        let mut model: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        let mut sizes = vec![0, 1, SEG - 1, SEG, SEG + 1, 2 * SEG + 7];
        sizes.extend((0..14).map(|_| rng.below(3 * SEG as u64 + 1) as usize));
        sizes.extend((0..10).map(|_| rng.below(100) as usize));
        rng.shuffle(&mut sizes);
        for n in sizes {
            let path = *rng.pick(&paths);
            let data = seeded_bytes(&mut rng, n);
            let f = model.entry(path).or_default();
            assert_eq!(b.append(path, &data).unwrap(), f.len() as u64);
            f.extend_from_slice(&data);
        }
        let check = |model: &BTreeMap<&str, Vec<u8>>, rng: &mut simkit::rng::Rng| {
            assert_eq!(b.total_bytes(), model.values().map(|v| v.len() as u64).sum::<u64>());
            for (path, want) in model {
                let len = want.len();
                assert_eq!(b.len(path).unwrap(), len as u64);
                let mut reads: Vec<(usize, usize)> = (0..40)
                    .map(|_| {
                        (rng.below(len as u64 + 10) as usize, rng.below(3 * SEG as u64) as usize)
                    })
                    .collect();
                // Around every segment boundary: spanning two and three
                // segments, ending on and starting at the boundary.
                for edge in (SEG..len).step_by(SEG) {
                    reads.extend([(edge - 5, 10), (edge - 1, SEG + 2), (edge - 7, 7), (edge, 3)]);
                }
                // Straddling, at and past EOF.
                reads.extend([(len.saturating_sub(3), 8), (len, 4), (len + 1, 4), (0, len + 1)]);
                for (off, n) in reads {
                    let mut buf = vec![0xAA; n];
                    let got = b.read_at(path, off as u64, &mut buf).unwrap();
                    let start = off.min(len);
                    let end = (off + n).min(len).max(start);
                    assert_eq!(got, end - start, "{path} read {n} at {off} of {len}");
                    assert_eq!(&buf[..got], &want[start..end], "{path} read {n} at {off}");
                }
                assert_eq!(&b.read_all(path).unwrap(), want);
            }
        };
        check(&model, &mut rng);
        assert!(model.values().filter(|v| v.len() > 2 * SEG).count() >= 2);

        let (big, _) = model.iter().max_by_key(|(_, v)| v.len()).unwrap();
        let (big, moved) = (*big, "/m/moved");
        b.rename(big, moved).unwrap();
        let data = model.remove(big).unwrap();
        model.insert(moved, data);
        assert!(!b.exists(big));
        check(&model, &mut rng);

        b.create(moved).unwrap();
        model.insert(moved, Vec::new());
        check(&model, &mut rng);
        let data = seeded_bytes(&mut rng, SEG + 3);
        assert_eq!(b.append(moved, &data).unwrap(), 0);
        model.insert(moved, data);
        check(&model, &mut rng);
    }

    /// Addresses of `path`'s `SEG`-capacity segments.
    fn full_segments(b: &MemBackend, path: &str) -> Vec<usize> {
        let st = b.inner.lock().unwrap();
        let f = &st.files[path];
        let segs = std::iter::once(&f.head).chain(f.rest());
        segs.filter(|s| s.capacity() == SEG).map(|s| s.as_ptr() as usize).collect()
    }

    /// Addresses of the segments on the free list.
    fn free_segments(b: &MemBackend) -> Vec<usize> {
        b.inner.lock().unwrap().free.iter().map(|s| s.as_ptr() as usize).collect()
    }

    /// No segment is ever allocated past `SEG`, however the appends fall,
    /// a head is either at most half a segment or a full, recyclable one,
    /// and a file's map entry is no larger than a `Vec<u8>` one. The
    /// second pass builds the same files again from the first pass's
    /// recycled segments, heads included.
    #[test]
    fn mem_segment_capacity_never_exceeds_seg() {
        use std::collections::HashSet;
        use std::mem::size_of;
        assert!(size_of::<(Box<str>, MemFile)>() <= size_of::<(String, Vec<u8>)>());
        let b = MemBackend::new();
        let mut rng = simkit::rng::Rng::new(47_008);
        for pass in 0..2 {
            let recycled: HashSet<usize> = free_segments(&b).into_iter().collect();
            assert_eq!(recycled.is_empty(), pass == 0);
            for n in [47_008, 4_099, SEG / 2 + 1, 700_001] {
                let path = format!("/cap/{n}");
                let data = seeded_bytes(&mut rng, n);
                while b.len(&path).unwrap_or(0) < 3 * SEG as u64 + 1 {
                    b.append(&path, &data).unwrap();
                    let st = b.inner.lock().unwrap();
                    let f = &st.files[path.as_str()];
                    let cap = f.head.capacity();
                    assert!(cap <= SEG / 2 || cap == SEG, "{path}: head capacity {cap}");
                    assert!(f.rest().iter().all(|s| s.capacity() == SEG));
                    drop(st);
                    if pass == 1 {
                        let segs = full_segments(&b, &path);
                        assert!(segs.iter().all(|s| recycled.contains(s)), "{path}: fresh segment");
                    }
                }
                assert_eq!(full_segments(&b, &path).len(), 4, "{path}: head is a full segment");
                assert_eq!(&b.read_all(&path).unwrap()[..n], &data[..]);
            }
            b.remove_dir_all("/cap").unwrap();
            assert_eq!(free_segments(&b).len(), 16);
        }
    }

    /// Appends interleaved with every call that drops a file (`remove`,
    /// `remove_dir_all`, truncating `create`, `rename` over an existing
    /// file), against a `Vec<u8>` per file: every `len`, `read_at` and
    /// `total_bytes` matches, each dropped file's full segments go on the
    /// free list, and an append takes its new segments from the list
    /// before it allocates.
    #[test]
    fn mem_freed_segments_are_reused_and_match_a_vec_model() {
        use std::collections::{BTreeMap, HashSet};
        let mut rng = simkit::rng::Rng::new(0xF4EE);
        let b = MemBackend::new();
        let paths = ["/p/0/a", "/p/0/b", "/p/0/c", "/p/1/a", "/p/1/b", "/p/2/a"];
        let mut model: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        let check = |model: &BTreeMap<&str, Vec<u8>>, path: &str, rng: &mut simkit::rng::Rng| {
            assert_eq!(b.total_bytes(), model.values().map(|v| v.len() as u64).sum::<u64>());
            let Some(want) = model.get(path) else {
                assert_eq!(b.len(path).unwrap_err().kind(), io::ErrorKind::NotFound);
                return;
            };
            let len = want.len();
            assert_eq!(b.len(path).unwrap(), len as u64);
            let mut reads: Vec<(usize, usize)> = (0..8)
                .map(|_| (rng.below(len as u64 + 10) as usize, rng.below(2 * SEG as u64) as usize))
                .collect();
            reads.extend([(len.saturating_sub(3), 8), (len, 4), (len + 1, 4), (0, len + 1)]);
            for (off, n) in reads {
                let mut buf = vec![0xAA; n];
                let got = b.read_at(path, off as u64, &mut buf).unwrap();
                let start = off.min(len);
                let end = (off + n).min(len).max(start);
                assert_eq!(got, end - start, "{path} read {n} at {off} of {len}");
                assert_eq!(&buf[..got], &want[start..end], "{path} read {n} at {off}");
                assert!(buf[got..].iter().all(|&x| x == 0xAA), "{path} read past EOF");
            }
        };
        let (mut reused, mut freed) = (0, 0);
        for step in 0..300 {
            let path = *rng.pick(&paths);
            let free_before = free_segments(&b);
            let mut dropped: Vec<usize> = Vec::new();
            let mut drop_file = |p: &str| {
                if model.contains_key(p) {
                    dropped.extend(full_segments(&b, p));
                }
            };
            match rng.below(10) {
                0 => {
                    drop_file(path);
                    assert_eq!(b.remove(path).is_ok(), model.remove(path).is_some());
                }
                1 => {
                    let dir = &path[..4];
                    for p in paths.iter().filter(|p| p.starts_with(dir)) {
                        drop_file(p);
                    }
                    b.remove_dir_all(dir).unwrap();
                    model.retain(|p, _| !p.starts_with(dir));
                }
                2 => {
                    drop_file(path);
                    b.create(path).unwrap();
                    model.insert(path, Vec::new());
                }
                3 => {
                    let to = *rng.pick(&paths);
                    if to != path && model.contains_key(path) {
                        drop_file(to);
                        b.rename(path, to).unwrap();
                        let data = model.remove(path).unwrap();
                        model.insert(to, data);
                        check(&model, to, &mut rng);
                    }
                }
                _ => {
                    if model.get(path).is_some_and(|v| v.len() > 3 * SEG) {
                        continue;
                    }
                    let n = match rng.below(3) {
                        0 => rng.below(5_000),
                        1 => SEG as u64 / 2 + rng.below(SEG as u64 / 2),
                        _ => rng.below(2 * SEG as u64 + 100),
                    } as usize;
                    let data = seeded_bytes(&mut rng, n);
                    let old: HashSet<usize> = b.len(path).map_or_else(
                        |_| HashSet::new(),
                        |_| full_segments(&b, path).into_iter().collect(),
                    );
                    let f = model.entry(path).or_default();
                    assert_eq!(b.append(path, &data).unwrap(), f.len() as u64);
                    f.extend_from_slice(&data);
                    // New full segments come off the top of the free list
                    // first; only what it cannot cover is allocated.
                    let new: Vec<usize> =
                        full_segments(&b, path).into_iter().filter(|s| !old.contains(s)).collect();
                    let took = new.len().min(free_before.len());
                    let top = &free_before[free_before.len() - took..];
                    assert!(new.iter().take(took).all(|s| top.contains(s)), "step {step}");
                    assert_eq!(free_segments(&b), &free_before[..free_before.len() - took]);
                    reused += took;
                }
            }
            if !dropped.is_empty() {
                // Every full segment of a dropped file is on the list.
                let free: HashSet<usize> = free_segments(&b).into_iter().collect();
                assert!(dropped.iter().all(|s| free.contains(s)), "step {step}");
                assert_eq!(free.len(), free_before.len() + dropped.len(), "step {step}");
                freed += dropped.len();
            }
            check(&model, path, &mut rng);
        }
        for path in paths {
            check(&model, path, &mut rng);
        }
        assert!(reused >= 20 && freed >= 20, "reused {reused}, freed {freed}");
    }

    /// A short file built from recycled segments holds only its own
    /// bytes: nothing of the file that owned them before is readable.
    #[test]
    fn mem_recycled_segments_read_nothing_past_eof() {
        let b = MemBackend::new();
        b.append("/old", &vec![0xEE; 3 * SEG]).unwrap();
        b.remove("/old").unwrap();
        assert_eq!(free_segments(&b).len(), 3);
        let mut rng = simkit::rng::Rng::new(0xE0F);
        // A head that jumped to a recycled segment, and a recycled
        // second segment, each holding a few bytes.
        for (path, n) in [("/short/head", SEG / 2 + 1), ("/short/rest", SEG + 7)] {
            let data: Vec<u8> = seeded_bytes(&mut rng, n).iter().map(|x| x & 0x7F).collect();
            b.append(path, &data[..SEG / 4]).unwrap();
            b.append(path, &data[SEG / 4..]).unwrap();
            assert_eq!(b.len(path).unwrap(), n as u64);
            assert_eq!(b.read_all(path).unwrap(), data);
            let mut buf = vec![0xAA; 64];
            assert_eq!(b.read_at(path, n as u64, &mut buf).unwrap(), 0);
            assert_eq!(b.read_at(path, n as u64 + 1, &mut buf).unwrap(), 0);
            assert_eq!(b.read_at(path, n as u64 - 3, &mut buf).unwrap(), 3);
            assert_eq!(&buf[..3], &data[n - 3..]);
            assert!(buf[3..].iter().all(|&x| x == 0xAA));
        }
        assert!(free_segments(&b).is_empty(), "both files took recycled segments");
        b.create("/short/rest").unwrap();
        let mut buf = vec![0xAA; 64];
        assert_eq!(b.read_at("/short/rest", 0, &mut buf).unwrap(), 0);
        b.append("/short/rest", b"x").unwrap();
        assert_eq!(b.read_at("/short/rest", 0, &mut buf).unwrap(), 1);
        assert_eq!(b.total_bytes(), SEG as u64 / 2 + 2);
    }

    #[test]
    fn mem_remove_dir_all_of_the_root_removes_everything() {
        let b = MemBackend::new();
        b.mkdir_all("/a/b").unwrap();
        b.mkdir_all("/empty").unwrap();
        b.append("/a/b/f", b"1").unwrap();
        b.append("/top", b"2").unwrap();
        b.remove_dir_all("/").unwrap();
        assert_eq!(b.file_count(), 0);
        assert!(b.list("/").unwrap().is_empty());
        assert!(!b.exists("/a") && !b.exists("/empty") && !b.exists("/top"));
    }

    #[test]
    fn mem_path_normalization() {
        let b = MemBackend::new();
        b.append("a//b/./c", b"x").unwrap();
        assert_eq!(b.len("/a/b/c").unwrap(), 1);
        assert!(b.exists("a/b/c"));
        for path in ["/", "/a", "/a/b.c", "/a/.b/c"] {
            assert!(matches!(norm(path), Cow::Borrowed(p) if p == path), "{path}");
        }
        for (path, key) in [("", "/"), ("/.", "/"), ("a", "/a"), ("/a/", "/a"), ("//a", "/a")] {
            assert!(matches!(norm(path), Cow::Owned(p) if p == key), "{path}");
        }
    }

    #[test]
    fn list_is_direct_children_only() {
        let b = MemBackend::new();
        b.append("/d/x/deep", b"1").unwrap();
        b.append("/d/y", b"2").unwrap();
        b.mkdir_all("/d/z").unwrap();
        assert_eq!(b.list("/d").unwrap(), vec!["x", "y", "z"]);
    }

    /// The CAS primitive under an actual race: of N threads calling
    /// `create_new` on the same path, exactly one may win.
    #[test]
    fn create_new_is_won_by_exactly_one_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let b = Arc::new(MemBackend::new());
        let wins = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let b = Arc::clone(&b);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                if b.create_new("/race/marker").is_ok() {
                    wins.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_appends_do_not_interleave_within_a_call() {
        use std::sync::Arc;
        let b = Arc::new(MemBackend::new());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    b.append("/f", &[t; 16]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let data = b.read_all("/f").unwrap();
        assert_eq!(data.len(), 8 * 100 * 16);
        for chunk in data.chunks(16) {
            assert!(chunk.iter().all(|&x| x == chunk[0]), "append torn");
        }
    }
}
