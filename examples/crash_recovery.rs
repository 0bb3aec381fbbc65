//! Crash recovery: detect → repair → verify.
//!
//! A multi-rank PLFS checkpoint runs over a fault-injecting backend that
//! crash-stops (power loss) partway through, freezing the store at an
//! exact byte state — possibly mid-append, so index and data droppings
//! can be torn. After the "reboot" we run `fsck` to see the damage,
//! `repair` to truncate torn tails and drop dangling extents, and then
//! verify that every write acked (synced) before the crash reads back
//! byte-for-byte. That is the repair invariant: acked data survives any
//! crash point.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use pdsi::plfs::backend::{Backend, MemBackend};
use pdsi::plfs::faults::{FaultPlan, FaultyBackend};
use pdsi::plfs::{fsck, Plfs, PlfsConfig, WriterConfig};
use std::sync::Arc;

const RANKS: u32 = 4;
const RECORD: usize = 512;
const SLOTS: u64 = 64;
const SEED: u64 = 42;

fn config() -> PlfsConfig {
    PlfsConfig {
        hostdirs: 4,
        writer: WriterConfig { data_buffer: 2048, index_flush_every: 4 },
        ..Default::default()
    }
}

/// Run the checkpoint workload against `fs`, syncing every few records.
/// Returns, per logical slot, the fill byte if that record was acked
/// (its sync succeeded) before the backend froze.
fn run_checkpoint(fs: &Plfs) -> Vec<Option<u8>> {
    let mut acked: Vec<Option<u8>> = vec![None; SLOTS as usize];
    let mut writers: Vec<_> = Vec::new();
    for rank in 0..RANKS {
        match fs.open_writer("/ckpt", rank) {
            Ok(w) => writers.push(w),
            Err(_) => return acked, // crashed while opening: nothing acked
        }
    }
    let mut pending: Vec<Vec<(u64, u8)>> = vec![Vec::new(); RANKS as usize];
    for slot in 0..SLOTS {
        let rank = (slot % RANKS as u64) as usize;
        let fill = (slot % 251) as u8 + 1;
        if writers[rank].write_at(slot * RECORD as u64, &[fill; RECORD]).is_ok() {
            pending[rank].push((slot, fill));
        }
        if slot % 8 == 7 && writers[rank].sync().is_ok() {
            for &(s, f) in &pending[rank] {
                acked[s as usize] = Some(f);
            }
            pending[rank].clear();
        }
    }
    for (rank, w) in writers.into_iter().enumerate() {
        let flushed = std::mem::take(&mut pending[rank]);
        if w.close().is_ok() {
            for (s, f) in flushed {
                acked[s as usize] = Some(f);
            }
        }
    }
    acked
}

fn main() -> std::io::Result<()> {
    // Probe run with no crash to learn the workload's total append volume,
    // then pick a crash point ~60% of the way through.
    let probe = Arc::new(FaultyBackend::new(MemBackend::new(), FaultPlan::none(SEED)));
    run_checkpoint(&Plfs::new(probe.clone() as Arc<dyn Backend>, config()));
    let crash_after = probe.bytes_appended() * 3 / 5;

    println!("== 1. checkpoint under power loss ==");
    let faulty = Arc::new(FaultyBackend::new(
        MemBackend::new(),
        FaultPlan { crash_after_bytes: Some(crash_after), ..FaultPlan::none(SEED) },
    ));
    let fs = Plfs::new(faulty.clone() as Arc<dyn Backend>, config());
    let acked = run_checkpoint(&fs);
    let acked_records = acked.iter().flatten().count();
    println!(
        "backend froze after {crash_after} appended bytes; \
         {acked_records}/{SLOTS} records were acked (synced) before the crash"
    );

    println!("\n== 2. reboot: detect the damage ==");
    faulty.heal(); // power restored — the store serves again, torn tails and all
    let before = fsck::fsck(faulty.as_ref(), "/ckpt", config().hostdirs)?;
    println!(
        "fsck: {} writers, {} index entries, logical EOF {}",
        before.writers, before.entries, before.logical_eof
    );
    for err in &before.errors {
        println!("  damage: {err:?}");
    }
    if before.is_clean() {
        println!("  (crash landed between appends: container is consistent as-is)");
    }

    println!("\n== 3. repair ==");
    let report = fsck::repair(faulty.as_ref(), "/ckpt", config().hostdirs, &Default::default())?;
    for action in &report.actions {
        println!("  {action:?}");
    }
    assert!(report.after.is_clean(), "repair must leave a clean container");
    println!("container clean; logical EOF now {}", report.after.logical_eof);

    println!("\n== 4. verify acked data ==");
    let reader = fs.open_reader("/ckpt")?;
    let data = reader.read_all()?;
    for (slot, fill) in acked.iter().enumerate() {
        let Some(fill) = fill else { continue };
        let start = slot * RECORD;
        assert!(
            data.len() >= start + RECORD && data[start..start + RECORD].iter().all(|b| b == fill),
            "acked record {slot} lost or corrupt"
        );
    }
    println!("all {acked_records} acked records read back byte-for-byte");
    Ok(())
}
