//! # diskmodel — storage device service-time models
//!
//! The PDSI report's performance arguments all bottom out in device
//! mechanics: mechanical disks stream large sequential transfers well but
//! collapse under small random access (~100 IOPS), while NAND flash reads
//! randomly at phenomenal rates yet degrades under sustained random
//! writes once its pre-erased page pool is exhausted (report §4.2.6,
//! Figs. 11 & 14, Table 1).
//!
//! This crate provides:
//! - [`hdd`]: a mechanical disk model — seek curve, rotational latency,
//!   zoned transfer rates, sequential-stream detection;
//! - [`flash`]: a page-mapped FTL — erase blocks, pre-erased pool,
//!   greedy garbage collection, wear accounting;
//! - [`profiles`]: the five flash devices of Table 1 plus reference
//!   disks, parameterized from the published numbers;
//! - [`device`]: the [`device::BlockDevice`] trait the
//!   parallel-FS simulator consumes.

pub mod device;
pub mod flash;
pub mod hdd;
pub mod profiles;

pub use device::{BlockDevice, DevOp, DeviceStats, IoKind, ServiceSplit};
pub use flash::{FlashDevice, FtlConfig};
pub use hdd::{DiskDevice, DiskParams};
