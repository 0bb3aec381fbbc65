//! # plfs — the Parallel Log-structured File System
//!
//! The PDSI report's flagship artifact (§1.1, §4.2.3, Fig. 8; published
//! as Bent et al., *PLFS: A Checkpoint Filesystem for Parallel
//! Applications*, SC'09): transparent middleware that decouples
//! concurrently-written shared files into per-process append-only logs,
//! deferring the resolution of "what does the file contain" to read
//! time via per-writer indices.
//!
//! Why it matters: parallel applications prefer writing one shared
//! checkpoint file with small, unaligned, strided records — a pattern
//! that collapses on deployed parallel file systems (lock false
//! sharing, non-sequential device traffic). PLFS converts that N-1
//! pattern into N sequential streams the backing store loves, with no
//! application changes; LANL measured 5×–28× on production codes and up
//! to two orders of magnitude on FLASH.
//!
//! Layered design, mirroring the original:
//!
//! - [`backend`]: the narrow store interface PLFS stacks on
//!   (in-memory, real local directory, or the `pfs` simulator);
//! - [`container`]: the on-store container layout (data/index
//!   droppings, hostdir spreading, metadata droppings);
//! - [`index`]: index records, pattern compression, and the
//!   overlap-resolving [`index::IndexMap`];
//! - [`mod@write`] / [`read`]: the O(1) write path and the merge-at-open
//!   read path;
//! - [`filesystem`]: the POSIX-flavoured top API ([`Plfs`]);
//! - [`mpiio`]: collective (MPI-IO-like) adapter and the canonical
//!   checkpoint patterns;
//! - [`simadapter`]: replay patterns through the `pfs` cluster
//!   simulator, directly vs through PLFS (the Fig. 8 experiment).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use plfs::{Plfs, PlfsConfig};
//! use plfs::backend::{Backend, MemBackend};
//!
//! let store = Arc::new(MemBackend::new()) as Arc<dyn Backend>;
//! let fs = Plfs::new(store, PlfsConfig::default());
//!
//! // Two "ranks" write disjoint strided records of one logical file.
//! let mut r0 = fs.open_writer("/ckpt", 0).unwrap();
//! let mut r1 = fs.open_writer("/ckpt", 1).unwrap();
//! r0.write_at(0, b"AAAA").unwrap();
//! r1.write_at(4, b"BBBB").unwrap();
//! r0.write_at(8, b"CCCC").unwrap();
//! r0.close().unwrap();
//! r1.close().unwrap();
//!
//! let reader = fs.open_reader("/ckpt").unwrap();
//! assert_eq!(reader.read_all().unwrap(), b"AAAABBBBCCCC");
//! ```

pub mod backend;
pub mod canonical;
pub mod checksum;
pub mod chunk;
pub mod container;
pub mod faults;
pub mod filesystem;
pub mod fsck;
pub mod index;
pub mod metrics;
pub mod mpiio;
pub mod pool;
pub mod read;
pub mod record;
pub mod replay;
pub mod retry;
pub mod service;
pub mod simadapter;
pub mod write;

pub use backend::{Backend, DirBackend, MemBackend};
pub use canonical::CanonicalIndex;
pub use checksum::{crc32, Crc32, VERIFY_BLOCK};
pub use chunk::{sha256, ChunkBackend, ChunkParams, ChunkScrubReport, GcReport};
pub use container::ContainerPaths;
pub use faults::{FaultObs, FaultPlan, FaultStats, FaultyBackend};
pub use filesystem::{FileStat, Plfs, PlfsConfig};
pub use fsck::{
    fsck, repair, scrub, FsckError, FsckReport, RepairAction, RepairOptions, RepairReport,
    ScrubFinding, ScrubReport,
};
pub use index::{IndexEntry, IndexMap};
pub use metrics::{PlfsMeters, PlfsMetrics};
pub use mpiio::{segmented_n1_pattern, strided_n1_pattern, ParallelFile};
pub use read::{QuarantinePolicy, Reader, DEFAULT_READAHEAD, READ_CHUNK};
pub use record::OpLogRecorder;
pub use replay::{
    content_hash, differential, replay, DiffOutcome, ReplayMode, ReplayOptions, ReplayOutcome,
};
pub use retry::{is_integrity, IntegrityError, RetryObs, RetryPolicy};
pub use service::{IngestService, ServiceConfig, ServiceStats};
pub use simadapter::{
    compare, compare_restart, run_direct, run_direct_restart, run_plfs, run_plfs_restart,
    PlfsSimOptions,
};
pub use write::{Writer, WriterConfig, WriterStats};
