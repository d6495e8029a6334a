//! Crash-safe persistence: per-shard checkpoint segments + a write-ahead
//! journal for the membership changes between checkpoints.
//!
//! The durable unit is one shard. Each shard owns two files under the
//! daemon's state directory:
//!
//! - `shard-{i}.ckpt` — a checkpoint segment: a fixed header (magic, the
//!   shard tick at capture, the table/arena record counts) followed by one
//!   length-prefixed, FNV-checksummed frame per [`crate::CompactStream`]
//!   record (table records first, arena records after). Rotation is
//!   atomic: the new segment is written to `shard-{i}.ckpt.tmp`, synced,
//!   and renamed over the old one — a reader never observes a half-written
//!   checkpoint, only the previous complete one.
//! - `shard-{i}.wal` — the journal: magic plus fixed-width checksummed
//!   records logging stream *membership* changes since the last
//!   checkpoint (admits of new streams, arena evictions). Replay is
//!   idempotent (admit-if-absent, evict-if-present), so the
//!   crash-between-rename-and-journal-reset window is safe: replaying ops
//!   already folded into the checkpoint changes nothing.
//!
//! Durability policy: a checkpoint survives power loss (the segment is
//! synced before its rename, and the directory after it and before the
//! journal reset). The journal does not: [`ShardPersist::flush_wal`] hands
//! each batch's records to the OS before that batch's replies go out but
//! never calls `sync_all`, since a sync per batch would put a disk flush
//! on the decision path. A killed process loses nothing the OS accepted;
//! a power loss can lose the journal records since the last checkpoint,
//! so a stream admitted after it recovers as unknown (a fresh cursor on
//! its next request) and one evicted after it comes back at its
//! checkpointed cursor.
//!
//! Recovery is total — it never panics and never errors. A torn tail
//! (frame length field short, wrong, or payload cut off) ends the scan:
//! everything before it is recovered, everything after is counted lost. A
//! checksum mismatch inside an intact frame quarantines that one record
//! and continues — the length field kept the scan aligned. Both losses
//! are surfaced in [`RecoveredShard::quarantined`]; the caller counts,
//! reports, and serves with what survived.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::compact::REC_BYTES;

/// First 8 bytes of every checkpoint segment.
pub const CKPT_MAGIC: [u8; 8] = *b"LAHDCKP1";

/// First 8 bytes of every journal file.
pub const WAL_MAGIC: [u8; 8] = *b"LAHDWAL1";

/// Checkpoint header: magic + tick + table count + arena count.
pub const CKPT_HEADER_BYTES: usize = 32;

/// Per-record frame overhead: `u32` payload length + `u64` FNV checksum.
pub const FRAME_OVERHEAD: usize = 12;

/// Journal record width: `u8` op + `u64` key + `u64` FNV checksum.
pub const WAL_REC_BYTES: usize = 17;

/// Journal op: a new stream was admitted to the shard.
pub const WAL_ADMIT: u8 = 1;

/// Journal op: a hibernated stream was evicted (forgotten) under arena
/// pressure.
pub const WAL_EVICT: u8 = 2;

/// FNV-1a over `bytes` — the same hash the rest of the serving layer uses
/// for action checksums and shard routing.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Path of shard `shard`'s checkpoint segment under `dir`.
pub fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.ckpt"))
}

/// Path of shard `shard`'s journal under `dir`.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// Encodes a checkpoint segment. `table` and `arena` are flat slabs of
/// [`REC_BYTES`]-wide records (the table's compact streams and the
/// hibernation arena's parked ones).
pub fn encode_checkpoint(tick: u64, table: &[u8], arena: &[u8]) -> Vec<u8> {
    debug_assert_eq!(table.len() % REC_BYTES, 0);
    debug_assert_eq!(arena.len() % REC_BYTES, 0);
    let n_table = (table.len() / REC_BYTES) as u64;
    let n_arena = (arena.len() / REC_BYTES) as u64;
    let mut out = Vec::with_capacity(
        CKPT_HEADER_BYTES + (table.len() + arena.len()) / REC_BYTES * (REC_BYTES + FRAME_OVERHEAD),
    );
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&tick.to_le_bytes());
    out.extend_from_slice(&n_table.to_le_bytes());
    out.extend_from_slice(&n_arena.to_le_bytes());
    for rec in table
        .chunks_exact(REC_BYTES)
        .chain(arena.chunks_exact(REC_BYTES))
    {
        out.extend_from_slice(&(REC_BYTES as u32).to_le_bytes());
        out.extend_from_slice(&fnv(rec).to_le_bytes());
        out.extend_from_slice(rec);
    }
    out
}

/// What a checkpoint scan recovered; see the module docs for the torn-tail
/// vs quarantine distinction.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DecodedCheckpoint {
    /// Shard tick the segment was captured at.
    pub tick: u64,
    /// Recovered table records, [`REC_BYTES`] each, in segment order.
    pub table: Vec<u8>,
    /// Recovered arena records, [`REC_BYTES`] each, in segment order.
    pub arena: Vec<u8>,
    /// Records the header promised but the scan could not recover —
    /// checksum failures plus everything lost to a torn tail.
    pub quarantined: u64,
}

impl DecodedCheckpoint {
    /// Records actually recovered (table + arena).
    pub fn recovered(&self) -> u64 {
        ((self.table.len() + self.arena.len()) / REC_BYTES) as u64
    }
}

/// Scans a checkpoint segment. `None` means the header itself is missing
/// or unrecognisable (no checkpoint to recover); otherwise the scan never
/// fails — it recovers the valid prefix and counts the rest.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<DecodedCheckpoint> {
    if bytes.len() < CKPT_HEADER_BYTES || bytes[..8] != CKPT_MAGIC {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let tick = word(8);
    let n_table = word(16);
    let n_arena = word(24);
    let expected = n_table.saturating_add(n_arena);
    let mut out = DecodedCheckpoint {
        tick,
        ..DecodedCheckpoint::default()
    };
    let mut at = CKPT_HEADER_BYTES;
    for i in 0..expected {
        // A short or wrong length field means the tail is torn (or the
        // frame boundary itself is corrupt): alignment is gone, stop.
        if bytes.len() < at + FRAME_OVERHEAD {
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if len != REC_BYTES || bytes.len() < at + FRAME_OVERHEAD + len {
            break;
        }
        let sum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let payload = &bytes[at + FRAME_OVERHEAD..at + FRAME_OVERHEAD + len];
        at += FRAME_OVERHEAD + len;
        if fnv(payload) != sum {
            // The frame is intact (alignment held) but the payload is
            // rotten: quarantine this one record and keep scanning.
            continue;
        }
        if i < n_table {
            out.table.extend_from_slice(payload);
        } else {
            out.arena.extend_from_slice(payload);
        }
    }
    out.quarantined = expected - out.recovered();
    Some(out)
}

/// Encodes one journal record.
pub fn encode_wal_record(op: u8, key: u64) -> [u8; WAL_REC_BYTES] {
    let mut rec = [0u8; WAL_REC_BYTES];
    rec[0] = op;
    rec[1..9].copy_from_slice(&key.to_le_bytes());
    let sum = fnv(&rec[..9]);
    rec[9..17].copy_from_slice(&sum.to_le_bytes());
    rec
}

/// What a journal scan recovered.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DecodedWal {
    /// `(op, key)` pairs in append order.
    pub ops: Vec<(u8, u64)>,
    /// Records dropped to checksum failures or unknown ops (the fixed
    /// record width keeps the scan aligned past them).
    pub quarantined: u64,
}

/// Scans a journal. Missing/foreign magic yields an empty scan; a short
/// trailing record (torn append) is dropped silently — it is the tail.
pub fn decode_wal(bytes: &[u8]) -> DecodedWal {
    let mut out = DecodedWal::default();
    if bytes.len() < 8 || bytes[..8] != WAL_MAGIC {
        return out;
    }
    for rec in bytes[8..].chunks(WAL_REC_BYTES) {
        if rec.len() < WAL_REC_BYTES {
            break;
        }
        let sum = u64::from_le_bytes(rec[9..17].try_into().unwrap());
        let op = rec[0];
        if fnv(&rec[..9]) != sum || (op != WAL_ADMIT && op != WAL_EVICT) {
            out.quarantined += 1;
            continue;
        }
        let key = u64::from_le_bytes(rec[1..9].try_into().unwrap());
        out.ops.push((op, key));
    }
    out
}

/// One shard's durable-state writer: buffers journal appends, flushes them
/// at batch boundaries, and rotates checkpoint segments atomically.
pub struct ShardPersist {
    dir: PathBuf,
    shard: usize,
    wal: Option<File>,
    pending: Vec<u8>,
}

impl ShardPersist {
    /// Opens (creating the directory if needed) shard `shard`'s writer.
    pub fn create(dir: &Path, shard: usize) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            shard,
            wal: None,
            pending: Vec::new(),
        })
    }

    /// Journals the admission of a new stream.
    pub fn log_admit(&mut self, key: u64) {
        self.pending
            .extend_from_slice(&encode_wal_record(WAL_ADMIT, key));
    }

    /// Journals an arena eviction (the stream is forgotten).
    pub fn log_evict(&mut self, key: u64) {
        self.pending
            .extend_from_slice(&encode_wal_record(WAL_EVICT, key));
    }

    /// Appends the buffered journal records to the journal file.
    pub fn flush_wal(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.wal.is_none() {
            let path = wal_path(&self.dir, self.shard);
            let fresh = !path.exists();
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            if fresh || f.metadata()?.len() == 0 {
                f.write_all(&WAL_MAGIC)?;
            }
            self.wal = Some(f);
        }
        let f = self.wal.as_mut().expect("opened above");
        f.write_all(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    /// Writes a checkpoint segment atomically (tmp + fsync + rename +
    /// directory fsync), then resets the journal — a crash between the
    /// rename and the reset only leaves ops the idempotent replay already
    /// tolerates. The directory is synced before the reset, so a power
    /// loss cannot keep the truncated journal and lose the new segment's
    /// name.
    pub fn write_checkpoint(
        &mut self,
        tick: u64,
        table: &[u8],
        arena: &[u8],
    ) -> std::io::Result<()> {
        let bytes = encode_checkpoint(tick, table, arena);
        let final_path = ckpt_path(&self.dir, self.shard);
        let tmp_path = final_path.with_extension("ckpt.tmp");
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&bytes)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        File::open(&self.dir)?.sync_all()?;
        self.pending.clear();
        self.wal = None;
        let mut wal = File::create(wal_path(&self.dir, self.shard))?;
        wal.write_all(&WAL_MAGIC)?;
        Ok(())
    }
}

/// Everything recovery found for one shard. Missing files are simply an
/// empty state — a first boot with `--recover` is a clean boot.
#[derive(Debug, Default)]
pub struct RecoveredShard {
    /// Shard tick of the recovered checkpoint.
    pub tick: u64,
    /// Recovered compact-table records (flat, [`REC_BYTES`] each).
    pub table: Vec<u8>,
    /// Recovered arena records (flat, [`REC_BYTES`] each).
    pub arena: Vec<u8>,
    /// Journal ops appended after the checkpoint, in order.
    pub wal_ops: Vec<(u8, u64)>,
    /// Checkpoint records recovered.
    pub recovered: u64,
    /// Records lost to corruption or torn tails (checkpoint + journal).
    pub quarantined: u64,
}

/// Recovers shard `shard`'s durable state from `dir`. Infallible: any
/// read or scan failure degrades to less recovered state, never an error.
pub fn recover_shard(dir: &Path, shard: usize) -> RecoveredShard {
    let mut out = RecoveredShard::default();
    if let Ok(bytes) = fs::read(ckpt_path(dir, shard)) {
        if let Some(ckpt) = decode_checkpoint(&bytes) {
            out.tick = ckpt.tick;
            out.recovered = ckpt.recovered();
            out.quarantined = ckpt.quarantined;
            out.table = ckpt.table;
            out.arena = ckpt.arena;
        }
    }
    if let Ok(bytes) = fs::read(wal_path(dir, shard)) {
        let wal = decode_wal(&bytes);
        out.quarantined += wal.quarantined;
        out.wal_ops = wal.ops;
    }
    out
}

/// A checkpoint segment's vital signs, read without mutating anything —
/// what the restart drill polls to know a quiesced daemon has captured
/// every stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Shard index parsed from the file name.
    pub shard: usize,
    /// Shard tick the segment was captured at.
    pub tick: u64,
    /// Records recovered by a scan (table + arena).
    pub records: u64,
    /// Records the scan had to drop.
    pub quarantined: u64,
}

/// Scans every `shard-*.ckpt` under `dir`, sorted by shard index.
pub fn inspect(dir: &Path) -> Vec<CheckpointInfo> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(shard) = name
            .strip_prefix("shard-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<usize>().ok())
        else {
            continue;
        };
        let Ok(bytes) = fs::read(entry.path()) else {
            continue;
        };
        if let Some(ckpt) = decode_checkpoint(&bytes) {
            out.push(CheckpointInfo {
                shard,
                tick: ckpt.tick,
                records: ckpt.recovered(),
                quarantined: ckpt.quarantined,
            });
        }
    }
    out.sort_by_key(|i| i.shard);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn rec(fill: u8) -> Vec<u8> {
        (0..REC_BYTES).map(|i| fill.wrapping_add(i as u8)).collect()
    }

    fn slab(fills: &[u8]) -> Vec<u8> {
        fills.iter().flat_map(|&f| rec(f)).collect()
    }

    #[test]
    fn checkpoint_roundtrips() {
        let table = slab(&[1, 2, 3]);
        let arena = slab(&[9, 10]);
        let bytes = encode_checkpoint(77, &table, &arena);
        let ckpt = decode_checkpoint(&bytes).expect("valid header");
        assert_eq!(ckpt.tick, 77);
        assert_eq!(ckpt.table, table);
        assert_eq!(ckpt.arena, arena);
        assert_eq!(ckpt.quarantined, 0);
        assert_eq!(ckpt.recovered(), 5);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let bytes = encode_checkpoint(0, &[], &[]);
        let ckpt = decode_checkpoint(&bytes).expect("valid header");
        assert_eq!(ckpt.recovered(), 0);
        assert_eq!(ckpt.quarantined, 0);
    }

    #[test]
    fn foreign_bytes_are_not_a_checkpoint() {
        assert_eq!(decode_checkpoint(b""), None);
        assert_eq!(decode_checkpoint(b"not a checkpoint at all........."), None);
        assert_eq!(decode_checkpoint(&CKPT_MAGIC), None, "header cut short");
    }

    #[test]
    fn payload_bit_flip_quarantines_exactly_one_record() {
        let table = slab(&[1, 2, 3, 4]);
        let mut bytes = encode_checkpoint(5, &table, &[]);
        // Flip a byte inside the second record's payload.
        let at = CKPT_HEADER_BYTES + (FRAME_OVERHEAD + REC_BYTES) + FRAME_OVERHEAD + 10;
        bytes[at] ^= 0x40;
        let ckpt = decode_checkpoint(&bytes).expect("valid header");
        assert_eq!(ckpt.quarantined, 1);
        assert_eq!(ckpt.recovered(), 3);
        // Records 1, 3 and 4 survive; the scan stayed aligned past the rot.
        assert_eq!(ckpt.table[..REC_BYTES], rec(1)[..]);
        assert_eq!(ckpt.table[REC_BYTES..2 * REC_BYTES], rec(3)[..]);
    }

    #[test]
    fn length_field_corruption_tears_the_tail() {
        let table = slab(&[1, 2, 3]);
        let mut bytes = encode_checkpoint(5, &table, &[]);
        let at = CKPT_HEADER_BYTES + (FRAME_OVERHEAD + REC_BYTES); // record 2's len
        bytes[at] ^= 0xFF;
        let ckpt = decode_checkpoint(&bytes).expect("valid header");
        assert_eq!(ckpt.recovered(), 1, "alignment lost at record 2");
        assert_eq!(ckpt.quarantined, 2);
    }

    proptest! {
        /// Truncating a checkpoint at *every* byte offset never panics and
        /// always recovers the intact record prefix.
        #[test]
        fn truncation_at_every_offset_recovers_the_prefix(
            table in collection::vec(any::<u8>(), 0..4).prop_map(|f| slab(&f)),
            arena in collection::vec(any::<u8>(), 0..3).prop_map(|f| slab(&f)),
            tick in any::<u64>(),
        ) {
            let bytes = encode_checkpoint(tick, &table, &arena);
            let total = ((table.len() + arena.len()) / REC_BYTES) as u64;
            for cut in 0..=bytes.len() {
                let got = decode_checkpoint(&bytes[..cut]);
                if cut < CKPT_HEADER_BYTES {
                    prop_assert_eq!(got, None);
                    continue;
                }
                let ckpt = got.expect("intact header");
                prop_assert_eq!(ckpt.tick, tick);
                // Every fully-present record is recovered.
                let whole = (cut - CKPT_HEADER_BYTES) / (FRAME_OVERHEAD + REC_BYTES);
                prop_assert_eq!(ckpt.recovered(), (whole as u64).min(total));
                prop_assert_eq!(ckpt.recovered() + ckpt.quarantined, total);
                // And it is a byte-exact prefix of the original slabs.
                prop_assert_eq!(&table[..ckpt.table.len()], &ckpt.table[..]);
                prop_assert_eq!(&arena[..ckpt.arena.len()], &ckpt.arena[..]);
            }
        }
    }

    #[test]
    fn wal_roundtrips_and_survives_torn_and_duplicate_records() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_wal_record(WAL_ADMIT, 11));
        bytes.extend_from_slice(&encode_wal_record(WAL_EVICT, 22));
        bytes.extend_from_slice(&encode_wal_record(WAL_ADMIT, 33));
        let wal = decode_wal(&bytes);
        assert_eq!(
            wal.ops,
            vec![(WAL_ADMIT, 11), (WAL_EVICT, 22), (WAL_ADMIT, 33)]
        );
        assert_eq!(wal.quarantined, 0);

        // A duplicated record decodes twice (replay is idempotent upstream).
        let mut dup = bytes.clone();
        dup.extend_from_slice(&encode_wal_record(WAL_ADMIT, 33));
        assert_eq!(decode_wal(&dup).ops.len(), 4);

        // A torn trailing append is dropped silently.
        for cut in 8 + WAL_REC_BYTES..8 + 2 * WAL_REC_BYTES {
            let wal = decode_wal(&bytes[..cut]);
            assert_eq!(wal.ops, vec![(WAL_ADMIT, 11)], "cut at {cut}");
        }

        // A mid-file bit flip quarantines one record; the fixed width
        // keeps the rest aligned.
        let mut flipped = bytes.clone();
        flipped[8 + WAL_REC_BYTES + 3] ^= 0x08;
        let wal = decode_wal(&flipped);
        assert_eq!(wal.ops, vec![(WAL_ADMIT, 11), (WAL_ADMIT, 33)]);
        assert_eq!(wal.quarantined, 1);

        // Foreign magic: nothing to replay.
        assert_eq!(decode_wal(b"????????rest").ops.len(), 0);
    }

    #[test]
    fn writer_rotates_atomically_and_resets_the_journal() {
        let dir = std::env::temp_dir().join("lahd_persist_writer_test");
        let _ = fs::remove_dir_all(&dir);
        let mut p = ShardPersist::create(&dir, 0).unwrap();
        p.log_admit(7);
        p.log_admit(8);
        p.flush_wal().unwrap();
        p.log_evict(7);
        p.flush_wal().unwrap();
        let wal = decode_wal(&fs::read(wal_path(&dir, 0)).unwrap());
        assert_eq!(
            wal.ops,
            vec![(WAL_ADMIT, 7), (WAL_ADMIT, 8), (WAL_EVICT, 7)]
        );

        p.write_checkpoint(42, &slab(&[1, 2]), &slab(&[5])).unwrap();
        assert!(!ckpt_path(&dir, 0).with_extension("ckpt.tmp").exists());
        let rec = recover_shard(&dir, 0);
        assert_eq!(rec.tick, 42);
        assert_eq!(rec.recovered, 3);
        assert_eq!(rec.quarantined, 0);
        assert!(rec.wal_ops.is_empty(), "journal reset with the rotation");

        // Post-checkpoint ops land in the fresh journal.
        p.log_admit(9);
        p.flush_wal().unwrap();
        assert_eq!(recover_shard(&dir, 0).wal_ops, vec![(WAL_ADMIT, 9)]);

        let info = inspect(&dir);
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].shard, 0);
        assert_eq!(info[0].tick, 42);
        assert_eq!(info[0].records, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_of_a_missing_directory_is_a_clean_boot() {
        let rec = recover_shard(Path::new("/nonexistent/lahd-state"), 3);
        assert_eq!(rec.recovered, 0);
        assert_eq!(rec.quarantined, 0);
        assert!(rec.wal_ops.is_empty());
        assert!(inspect(Path::new("/nonexistent/lahd-state")).is_empty());
    }
}
