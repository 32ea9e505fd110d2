//! Boot-time recovery: rebuild the newest consistent knowledge state
//! from checkpoints plus the log.
//!
//! Recovery boots from the newest checkpoint that loads
//! ([`choose_checkpoint`]), walks the log from its `(epoch, term)` with
//! the chain walker ([`crate::chain`]) and folds the verdicts into the
//! records to replay and the [`RecoveryStats`]. Torn tails are reported
//! so the caller can truncate them. The function is read-only;
//! [`apply_sanitize`] performs the truncations recovery recommends.
//! Orphaned records interleaved mid-log are dropped logically here and
//! physically retired by the caller's next checkpoint (the serve boot
//! path always re-checkpoints the recovered state, which truncates the
//! covered log).

use crate::chain::{Frame, Verdict, Walk};
use crate::checkpoint::{choose_checkpoint, CheckpointRef, LoadedCheckpoint, Rejection};
use crate::record::Record;
use crate::WalError;
use std::path::{Path, PathBuf};

/// What recovery observed, for STATS and the `recovery.*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records accepted for replay.
    pub replayed_records: u64,
    /// Complete records already covered by the checkpoint.
    pub skipped_records: u64,
    /// Complete records rejected (after corruption or an epoch gap).
    pub discarded_records: u64,
    /// Bytes dropped: torn tails plus everything after corruption.
    pub discarded_bytes: u64,
    /// Whether any segment ended in a torn frame.
    pub torn_tail: bool,
    /// Whether a corrupt frame or epoch gap ended replay early.
    pub corrupt: bool,
    /// Epoch of the checkpoint recovery started from (0 if none).
    pub checkpoint_epoch: u64,
    /// Records dropped because a higher term superseded their lineage
    /// (a deposed primary's unshipped suffix).
    pub orphaned_records: u64,
    /// Term of the checkpoint recovery started from (0 if none).
    pub checkpoint_term: u64,
    /// Newer checkpoints passed over because they did not load.
    pub checkpoints_rejected: u64,
}

/// The result of scanning a data directory.
#[derive(Debug)]
pub struct Recovered {
    /// The newest valid checkpoint, if any.
    pub checkpoint: Option<LoadedCheckpoint>,
    /// The epoch-contiguous record suffix to replay, oldest first.
    pub records: Vec<Record>,
    /// Accounting for STATS and metrics.
    pub stats: RecoveryStats,
    /// Highest segment sequence number present (0 on a fresh
    /// directory); the writer opens segment `last_seq + 1`.
    pub last_seq: u64,
    /// Truncation plan: `(segment, keep_bytes)` for every torn tail.
    pub torn: Vec<(PathBuf, u64)>,
    /// Checkpoints newer than [`Recovered::checkpoint`] that did not
    /// load, newest first.
    pub passed_over: Vec<(CheckpointRef, Rejection)>,
}

impl Recovered {
    /// The epoch of the recovered state (after replay).
    pub fn final_epoch(&self) -> u64 {
        self.records
            .last()
            .map(|r| r.epoch)
            .unwrap_or(self.stats.checkpoint_epoch)
    }

    /// The data version of the recovered state (after replay).
    pub fn final_data_version(&self) -> u64 {
        self.records
            .last()
            .map(|r| r.data_version)
            .or_else(|| self.checkpoint.as_ref().map(|c| c.data_version))
            .unwrap_or(0)
    }

    /// The primary term of the recovered state: the highest term on
    /// the replayed suffix, or the checkpoint's term.
    pub fn final_term(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.term)
            .max()
            .unwrap_or(0)
            .max(self.stats.checkpoint_term)
    }
}

/// Scan `data_dir` and compute the newest consistent state. Read-only:
/// nothing on disk changes. Fails only on I/O errors reading intact
/// files — corruption and torn tails are outcomes, not errors.
pub fn recover(data_dir: &Path) -> Result<Recovered, WalError> {
    let io = |e: std::io::Error| WalError(format!("recovery io: {e}"));

    let choice = choose_checkpoint(data_dir).map_err(io)?;
    let checkpoint = choice.loaded;
    let (base_epoch, base_term) = checkpoint.as_ref().map_or((0, 0), |c| (c.epoch, c.term));
    let mut stats = RecoveryStats {
        checkpoint_epoch: base_epoch,
        checkpoint_term: base_term,
        checkpoints_rejected: choice.passed_over.len() as u64,
        ..RecoveryStats::default()
    };
    let mut records: Vec<Record> = Vec::new();
    let mut torn: Vec<(PathBuf, u64)> = Vec::new();

    let walk = Walk::open(data_dir, base_epoch, base_term).map_err(io)?;
    let last_seq = walk.last_seq;
    for step in walk {
        match step.frame {
            Frame::Record(rec, Verdict::Replay) => records.push(rec),
            Frame::Record(rec, Verdict::Supersede) => {
                // The later record is the transition that was actually
                // acknowledged.
                if let Some(prev) = records.last_mut() {
                    *prev = rec;
                }
                stats.skipped_records += 1;
            }
            Frame::Record(_, Verdict::Covered) => stats.skipped_records += 1,
            Frame::Record(_, Verdict::Fenced { .. }) => {
                stats.orphaned_records += 1;
                stats.discarded_bytes += step.bytes;
            }
            Frame::Record(rec, Verdict::RetractTo { to, replay }) => {
                let kept = records.partition_point(|r| r.epoch <= to);
                stats.orphaned_records += (records.len() - kept) as u64;
                records.truncate(kept);
                if replay {
                    records.push(rec);
                } else {
                    stats.skipped_records += 1;
                }
            }
            Frame::Record(_, verdict @ (Verdict::Gap { .. } | Verdict::Discarded)) => {
                stats.corrupt |= verdict != Verdict::Discarded;
                stats.discarded_records += 1;
                stats.discarded_bytes += step.bytes;
            }
            Frame::Torn => {
                stats.torn_tail = true;
                stats.discarded_bytes += step.bytes;
                torn.push((step.segment.to_path_buf(), step.offset));
            }
            Frame::Corrupt(_) => {
                stats.corrupt = true;
                stats.discarded_bytes += step.bytes;
            }
            Frame::Unreadable(e) => return Err(io(e)),
        }
    }
    stats.replayed_records = records.len() as u64;

    intensio_obs::gauge("recovery.replayed_records", stats.replayed_records as i64);
    intensio_obs::gauge("recovery.skipped_records", stats.skipped_records as i64);
    intensio_obs::gauge("recovery.discarded_records", stats.discarded_records as i64);
    intensio_obs::gauge("recovery.discarded_bytes", stats.discarded_bytes as i64);
    intensio_obs::gauge("recovery.checkpoint_epoch", base_epoch as i64);
    intensio_obs::gauge("recovery.orphaned_records", stats.orphaned_records as i64);
    intensio_obs::gauge(
        "recovery.checkpoints_rejected",
        stats.checkpoints_rejected as i64,
    );

    Ok(Recovered {
        checkpoint,
        records,
        stats,
        last_seq,
        torn,
        passed_over: choice.passed_over,
    })
}

/// Truncate the torn tails recovery found, making the on-disk log equal
/// to the replayed prefix. Safe to re-run; a no-op when nothing tore.
pub fn apply_sanitize(recovered: &Recovered) -> Result<(), WalError> {
    for (path, keep) in &recovered.torn {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| WalError(format!("opening {} to truncate: {e}", path.display())))?;
        file.set_len(*keep)
            .map_err(|e| WalError(format!("truncating {}: {e}", path.display())))?;
        file.sync_all()
            .map_err(|e| WalError(format!("syncing {}: {e}", path.display())))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Wal;
    use crate::segment::{list_segments, segment_file_name, WAL_SUBDIR};
    use crate::{FsyncPolicy, WalConfig};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("intensio_recover_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> WalConfig {
        WalConfig {
            segment_bytes: 200,
            fsync: FsyncPolicy::Off,
            checkpoint_every: 1000,
            keep_checkpoints: 2,
        }
    }

    fn write_n(dir: &Path, n: u64) {
        let mut wal = Wal::open(dir, cfg(), 0).unwrap();
        for i in 1..=n {
            wal.append(&Record::write(i, i, &format!("script {i}")))
                .unwrap();
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = tmpdir("fresh");
        let rec = recover(&dir).unwrap();
        assert!(rec.checkpoint.is_none());
        assert!(rec.records.is_empty());
        assert_eq!(rec.final_epoch(), 0);
        assert_eq!(rec.last_seq, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        write_n(&dir, 5);
        // Tear the last segment: chop a few bytes off its tail.
        let segments = list_segments(&dir).unwrap();
        let (_, last) = segments.last().unwrap();
        let bytes = std::fs::read(last).unwrap();
        std::fs::write(last, &bytes[..bytes.len() - 3]).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 4, "the torn record is dropped");
        assert!(rec.stats.torn_tail);
        assert!(!rec.stats.corrupt);
        assert_eq!(rec.final_epoch(), 4);
        assert_eq!(rec.torn.len(), 1);

        apply_sanitize(&rec).unwrap();
        let again = recover(&dir).unwrap();
        assert_eq!(again.records.len(), 4);
        assert!(!again.stats.torn_tail, "sanitize removed the tear");
    }

    #[test]
    fn corruption_stops_replay_and_counts_the_rest() {
        let dir = tmpdir("corrupt");
        write_n(&dir, 6);
        // Flip a byte inside the second record of the first segment.
        let segments = list_segments(&dir).unwrap();
        let (_, first) = segments.first().unwrap();
        let mut bytes = std::fs::read(first).unwrap();
        let first_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize + 8;
        bytes[first_len + 10] ^= 0xFF;
        std::fs::write(first, &bytes).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 1, "only the record before the damage");
        assert!(rec.stats.corrupt);
        assert!(rec.stats.discarded_records >= 1 || rec.stats.discarded_bytes > 0);
        assert_eq!(rec.final_epoch(), 1);
    }

    #[test]
    fn epoch_gap_discards_the_suffix() {
        let dir = tmpdir("gap");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&Record::write(1, 1, "a").encode());
        buf.extend_from_slice(&Record::write(3, 3, "c").encode()); // gap: no epoch 2
        buf.extend_from_slice(&Record::write(4, 4, "d").encode());
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.stats.discarded_records, 2);
        assert!(rec.stats.corrupt);
    }

    #[test]
    fn later_segment_continues_past_a_sanitized_boot() {
        // Boot 1 writes records 1-2 and tears record 3's frame; boot 2
        // starts a fresh segment and appends records 3-4. Recovery must
        // replay 1-4 across the tear.
        let dir = tmpdir("reboot");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut seg1 = Vec::new();
        seg1.extend_from_slice(&Record::write(1, 1, "a").encode());
        seg1.extend_from_slice(&Record::write(2, 2, "b").encode());
        let torn = Record::write(3, 3, "lost").encode();
        seg1.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(wal_dir.join(segment_file_name(1)), &seg1).unwrap();
        let mut seg2 = Vec::new();
        seg2.extend_from_slice(&Record::write(3, 3, "c").encode());
        seg2.extend_from_slice(&Record::write(4, 4, "d").encode());
        std::fs::write(wal_dir.join(segment_file_name(2)), &seg2).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[2].script(), Some("c"));
        assert!(rec.stats.torn_tail);
        assert!(!rec.stats.corrupt);
        assert_eq!(rec.last_seq, 2);
    }

    #[test]
    fn duplicate_epoch_last_record_wins() {
        // Epoch 2 appears twice: the first append's install failed
        // before acknowledgement and the epoch was reused. The later,
        // acknowledged record must be the one replayed.
        let dir = tmpdir("dup");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&Record::write(1, 1, "a").encode());
        buf.extend_from_slice(&Record::write(2, 2, "unacked").encode());
        buf.extend_from_slice(&Record::write(2, 2, "acked").encode());
        buf.extend_from_slice(&Record::write(3, 3, "c").encode());
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[1].script(), Some("acked"));
        assert_eq!(rec.stats.skipped_records, 1);
        assert!(!rec.stats.corrupt);
        assert_eq!(rec.final_epoch(), 3);
    }

    #[test]
    fn checkpoint_plus_suffix_replay() {
        use intensio_storage::prelude::*;
        let dir = tmpdir("ckpt");
        let db = Database::new();
        crate::checkpoint::write_checkpoint(&dir, &db, None, 3, 2, 0).unwrap();
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        for (e, s) in [(2, "old"), (3, "old"), (4, "new"), (5, "new2")] {
            buf.extend_from_slice(&Record::write(e, e, s).encode());
        }
        std::fs::write(wal_dir.join(segment_file_name(7)), &buf).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.stats.checkpoint_epoch, 3);
        assert_eq!(rec.stats.skipped_records, 2, "records at or below epoch 3");
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.final_epoch(), 5);
        assert_eq!(rec.last_seq, 7);
    }

    #[test]
    fn term_record_chains_and_raises_the_term() {
        let dir = tmpdir("termchain");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&Record::write(1, 1, "a").encode());
        buf.extend_from_slice(&Record::write(2, 2, "b").encode());
        buf.extend_from_slice(&Record::term_bump(1, 3, 2).encode());
        buf.extend_from_slice(&Record::write(4, 3, "c").with_term(1).encode());
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.final_epoch(), 4);
        assert_eq!(rec.final_term(), 1);
        assert_eq!(rec.stats.orphaned_records, 0);
        assert!(!rec.stats.corrupt);
    }

    #[test]
    fn higher_term_retracts_the_orphaned_suffix() {
        // A deposed primary logged epochs 1-4 at term 0, then (after
        // demoting and rewinding to the new lineage) appended the new
        // primary's term-1 chain from epoch 3. The term-0 records at
        // epochs 3-4 are orphans: replay must retract them and follow
        // the term-1 chain.
        let dir = tmpdir("orphan");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&Record::write(1, 1, "a").encode());
        buf.extend_from_slice(&Record::write(2, 2, "b").encode());
        buf.extend_from_slice(&Record::write(3, 3, "orphan3").encode());
        buf.extend_from_slice(&Record::write(4, 4, "orphan4").encode());
        buf.extend_from_slice(&Record::term_bump(1, 3, 2).encode());
        buf.extend_from_slice(&Record::write(4, 3, "kept4").with_term(1).encode());
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[2].kind, crate::RecordKind::Term);
        assert_eq!(rec.records[3].script(), Some("kept4"));
        assert_eq!(rec.final_epoch(), 4);
        assert_eq!(rec.final_term(), 1);
        assert_eq!(rec.stats.orphaned_records, 2);
        assert!(!rec.stats.corrupt, "an orphaned suffix is not corruption");
    }

    #[test]
    fn stale_term_suffix_after_a_rewind_checkpoint_is_skipped() {
        // A durable follower rewound onto the new primary's lineage:
        // its checkpoint pins (epoch 3, term 2), but older segments
        // still hold the deposed primary's term-0 records at epochs
        // 4-5. Those are orphans; the term-2 chain from epoch 4 in the
        // later segment is the real suffix.
        use intensio_storage::prelude::*;
        let dir = tmpdir("stale");
        let db = Database::new();
        crate::checkpoint::write_checkpoint(&dir, &db, None, 3, 2, 2).unwrap();
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut seg1 = Vec::new();
        seg1.extend_from_slice(&Record::write(4, 4, "orphan4").encode());
        seg1.extend_from_slice(&Record::write(5, 5, "orphan5").encode());
        std::fs::write(wal_dir.join(segment_file_name(1)), &seg1).unwrap();
        let mut seg2 = Vec::new();
        seg2.extend_from_slice(&Record::write(4, 3, "kept4").with_term(2).encode());
        std::fs::write(wal_dir.join(segment_file_name(2)), &seg2).unwrap();

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.stats.checkpoint_term, 2);
        assert_eq!(rec.stats.orphaned_records, 2);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].script(), Some("kept4"));
        assert_eq!(rec.final_epoch(), 4);
        assert_eq!(rec.final_term(), 2);
    }
}
