//! The WAL writer: append records durably, rotate segments, take
//! checkpoints, and never leave the log in a state recovery cannot
//! classify.
//!
//! # Failure discipline
//!
//! Under [`FsyncPolicy::Always`] an append either reaches stable
//! storage or the segment is rewound to its pre-append length — a
//! record that was written but whose fsync failed must not stay in the
//! log, because the caller will not acknowledge it and will reuse its
//! epoch for the next write, which would otherwise collide with the
//! orphaned record on replay. If the rewind itself fails the writer is
//! *poisoned* and refuses all further appends: the log on disk is still
//! a valid prefix (recovery truncates the orphan as a torn/duplicate
//! suffix), but this process can no longer guarantee ordering.
//!
//! # Failpoints
//!
//! - `wal.append` — fail before writing anything.
//! - `wal.torn` — write half a frame, then rewind; models a torn write
//!   detected at append time.
//! - `wal.fsync` — fail the durability barrier after the write.
//! - `wal.checkpoint` — abort a checkpoint after its data directory is
//!   written but before the manifest and rename (see [`checkpoint`]).

use crate::checkpoint::{self, CheckpointRef};
use crate::record::{Record, MAX_PAYLOAD_BYTES, PAYLOAD_PREFIX_BYTES};
use crate::segment::{segment_file_name, WAL_SUBDIR};
use crate::sync_dir;
use crate::{FsyncPolicy, WalConfig, WalError};
use intensio_rules::rule::RuleSet;
use intensio_storage::catalog::Database;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Counters the writer maintains for `STATS` reporting. All values are
/// process-lifetime (since open), except `segment_seq`/`segment_bytes`
/// which describe the active segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appends: u64,
    /// Frame bytes appended since open.
    pub append_bytes: u64,
    /// Explicit durability barriers issued.
    pub fsyncs: u64,
    /// Checkpoints taken since open.
    pub checkpoints: u64,
    /// Sequence number of the active segment.
    pub segment_seq: u64,
    /// Bytes in the active segment.
    pub segment_bytes: u64,
}

/// An open write-ahead log rooted at a data directory.
pub struct Wal {
    root: PathBuf,
    cfg: WalConfig,
    file: File,
    seg_seq: u64,
    seg_bytes: u64,
    /// Highest epoch appended to the active segment (0 when empty).
    seg_max_epoch: u64,
    /// Segments this writer closed and has not yet truncated, as
    /// `(seq, highest epoch)` — what [`Wal::truncate_covered`] consults
    /// to delete only segments a checkpoint fully covers.
    closed: Vec<(u64, u64)>,
    unsynced: u32,
    since_checkpoint: u64,
    stats: WalStats,
    poisoned: Option<String>,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> WalError + '_ {
    move |e| WalError(format!("{what}: {e}"))
}

impl Wal {
    /// Open the log for writing, starting a fresh segment after
    /// `last_seq` (the highest segment recovery observed; 0 on a fresh
    /// directory). Starting fresh means the writer never appends after
    /// a tail it did not write itself.
    pub fn open(data_dir: &Path, cfg: WalConfig, last_seq: u64) -> Result<Wal, WalError> {
        let dir = data_dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&dir).map_err(io_err("creating wal directory"))?;
        let seg_seq = last_seq
            .checked_add(1)
            .ok_or_else(|| WalError("segment sequence exhausted".to_string()))?;
        let path = dir.join(segment_file_name(seg_seq));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(io_err("creating wal segment"))?;
        sync_dir(&dir);
        Ok(Wal {
            root: data_dir.to_path_buf(),
            cfg,
            file,
            seg_seq,
            seg_bytes: 0,
            seg_max_epoch: 0,
            closed: Vec::new(),
            unsynced: 0,
            since_checkpoint: 0,
            stats: WalStats {
                segment_seq: seg_seq,
                ..WalStats::default()
            },
            poisoned: None,
        })
    }

    /// The writer's configuration.
    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }

    /// Lifetime counters for STATS.
    pub fn stats(&self) -> WalStats {
        WalStats {
            segment_seq: self.seg_seq,
            segment_bytes: self.seg_bytes,
            ..self.stats
        }
    }

    /// Stream the log's records with epoch strictly greater than
    /// `from_epoch` — the replication feed (see [`crate::read`]). The
    /// returned iterator reads the segment files independently of this
    /// writer, so the caller may release any lock guarding the `Wal`
    /// while draining it; records appended after this call may or may
    /// not be observed.
    pub fn read_from(&self, from_epoch: u64) -> Result<crate::read::LogTail, WalError> {
        crate::read::LogTail::open(&self.root, from_epoch)
    }

    /// Whether enough records have accumulated to warrant a checkpoint.
    pub fn checkpoint_due(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.since_checkpoint >= self.cfg.checkpoint_every
    }

    fn check_poison(&self) -> Result<(), WalError> {
        match &self.poisoned {
            Some(why) => Err(WalError(format!("wal writer poisoned: {why}"))),
            None => Ok(()),
        }
    }

    /// Rewind the active segment to `offset`, erasing a partial or
    /// unsynced append. Poisons the writer if the rewind fails.
    fn rewind(&mut self, offset: u64, why: &str) -> Result<(), WalError> {
        let undo = self
            .file
            .set_len(offset)
            .and_then(|()| self.file.seek(SeekFrom::Start(offset)));
        if let Err(e) = undo {
            let msg = format!("{why}; rewind to {offset} also failed: {e}");
            self.poisoned = Some(msg.clone());
            return Err(WalError(msg));
        }
        self.seg_bytes = offset;
        Err(WalError(why.to_string()))
    }

    /// Issue the durability barrier demanded by the fsync policy after
    /// one append.
    fn barrier(&mut self) -> Result<(), WalError> {
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(n) => {
                self.unsynced += 1;
                self.unsynced >= n
            }
            FsyncPolicy::Off => false,
        };
        if !due {
            return Ok(());
        }
        intensio_fault::fire("wal.fsync")
            .map_err(|f| WalError(format!("fsync failed (injected): {f}")))?;
        self.file
            .sync_data()
            .map_err(io_err("fsync on wal segment"))?;
        self.unsynced = 0;
        self.stats.fsyncs += 1;
        intensio_obs::inc("wal.fsyncs");
        Ok(())
    }

    /// Append one record and make it as durable as the policy promises.
    /// On `Ok(())` the record is part of the log; on `Err` it is not
    /// (the segment was rewound, or nothing was written), so the caller
    /// must not acknowledge.
    ///
    /// A record whose payload exceeds [`MAX_PAYLOAD_BYTES`] is rejected
    /// here, before anything touches disk: recovery classifies such a
    /// frame as corruption and stops replay, so logging it would
    /// acknowledge a mutation that poisons every later record at the
    /// next boot. The oversized request fails instead.
    pub fn append(&mut self, record: &Record) -> Result<(), WalError> {
        self.check_poison()?;
        let payload = PAYLOAD_PREFIX_BYTES as u64 + record.body.len() as u64;
        if payload > u64::from(MAX_PAYLOAD_BYTES) {
            return Err(WalError(format!(
                "record payload of {payload} bytes exceeds the \
                 {MAX_PAYLOAD_BYTES}-byte maximum"
            )));
        }
        intensio_fault::fire("wal.append")
            .map_err(|f| WalError(format!("append failed (injected): {f}")))?;

        if self.seg_bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }

        let frame = record.encode();
        let start = self.seg_bytes;

        if let Err(f) = intensio_fault::fire("wal.torn") {
            // Model a torn write: half a frame lands, then the append
            // is rewound so later records stay readable. Recovery of a
            // real crash at this point would classify the half-frame as
            // a torn tail and truncate it, which is exactly what the
            // rewind does eagerly.
            let half = &frame[..frame.len() / 2];
            let _ = self.file.write_all(half).and_then(|()| self.file.flush());
            self.seg_bytes += half.len() as u64;
            return self.rewind(start, &format!("torn write (injected): {f}"));
        }

        if let Err(e) = self.file.write_all(&frame) {
            // A short write may have landed; rewind to the frame start.
            return self.rewind(start, &format!("writing wal record: {e}"));
        }
        self.seg_bytes += frame.len() as u64;

        if let Err(e) = self.barrier() {
            if matches!(self.cfg.fsync, FsyncPolicy::Batch(_)) {
                // Earlier records in the batch were already acknowledged
                // under relaxed durability; only the current record is
                // retracted.
                self.unsynced = self.unsynced.saturating_sub(1);
            }
            return self.rewind(start, &e.0);
        }

        self.since_checkpoint += 1;
        self.seg_max_epoch = self.seg_max_epoch.max(record.epoch);
        self.stats.appends += 1;
        self.stats.append_bytes += frame.len() as u64;
        intensio_obs::inc("wal.appends");
        intensio_obs::add("wal.append_bytes", frame.len() as u64);
        Ok(())
    }

    /// Force an fsync regardless of policy (shutdown, or a caller that
    /// wants a barrier before an external side effect).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.check_poison()?;
        self.file
            .sync_data()
            .map_err(io_err("fsync on wal segment"))?;
        self.unsynced = 0;
        self.stats.fsyncs += 1;
        intensio_obs::inc("wal.fsyncs");
        Ok(())
    }

    /// Close the active segment and start the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        if self.unsynced > 0 || matches!(self.cfg.fsync, FsyncPolicy::Always) {
            self.file
                .sync_data()
                .map_err(io_err("fsync before rotation"))?;
            self.unsynced = 0;
        }
        let dir = self.root.join(WAL_SUBDIR);
        let next = self
            .seg_seq
            .checked_add(1)
            .ok_or_else(|| WalError("segment sequence exhausted".to_string()))?;
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(dir.join(segment_file_name(next)))
            .map_err(io_err("creating wal segment"))?;
        sync_dir(&dir);
        self.closed.push((self.seg_seq, self.seg_max_epoch));
        self.file = file;
        self.seg_seq = next;
        self.seg_bytes = 0;
        self.seg_max_epoch = 0;
        Ok(())
    }

    /// Take a checkpoint of `(db, rules)` at `(epoch, data_version)`,
    /// then truncate the log: rotate to a fresh segment, delete every
    /// segment the checkpoint covers, and prune old checkpoints.
    ///
    /// Requires exclusive access: nothing may append between the state
    /// observation and this call, because *every* earlier segment is
    /// deleted — including ones this writer did not create, such as a
    /// previous boot's (that is the point: the boot checkpoint retires
    /// old segments and the torn tails they may carry). The live serve
    /// path must not use this; it materializes the checkpoint off the
    /// write path with [`checkpoint::write_checkpoint`] and then calls
    /// [`Wal::truncate_covered`], which tolerates concurrent appends.
    pub fn checkpoint(
        &mut self,
        db: &Database,
        rules: Option<&RuleSet>,
        epoch: u64,
        data_version: u64,
        term: u64,
    ) -> Result<CheckpointRef, WalError> {
        self.check_poison()?;
        let ckpt = checkpoint::write_checkpoint(&self.root, db, rules, epoch, data_version, term)?;
        // The checkpoint is durable; everything logged before it is now
        // redundant. Start a fresh segment and drop the covered ones.
        self.rotate()?;
        let dir = self.root.join(WAL_SUBDIR);
        if let Ok(segments) = crate::segment::list_segments(&self.root) {
            for (seq, path) in segments {
                if seq < self.seg_seq {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        sync_dir(&dir);
        self.closed.clear();
        let _ = checkpoint::prune_checkpoints(&self.root, self.cfg.keep_checkpoints);
        self.since_checkpoint = 0;
        self.stats.checkpoints += 1;
        Ok(ckpt)
    }

    /// Truncate the log after an externally materialized checkpoint at
    /// `epoch` (see [`checkpoint::write_checkpoint`]): delete the
    /// closed segments whose records all sit at or below `epoch`, prune
    /// old checkpoints, and reset the checkpoint cadence.
    ///
    /// Unlike [`Wal::checkpoint`], this is safe while appends land
    /// between the checkpoint's state observation and this call: a
    /// segment holding even one record above `epoch` is kept, so
    /// nothing acknowledged after the checkpointed snapshot is ever
    /// deleted. The checkpoint must be durable before this is called —
    /// `write_checkpoint` guarantees that on return.
    pub fn truncate_covered(&mut self, epoch: u64) -> Result<(), WalError> {
        self.check_poison()?;
        if self.seg_bytes > 0 && self.seg_max_epoch <= epoch {
            // The active segment is fully covered too; close it so the
            // sweep below can reclaim it.
            self.rotate()?;
        }
        let dir = self.root.join(WAL_SUBDIR);
        let mut deleted = false;
        self.closed.retain(|&(seq, max_epoch)| {
            if max_epoch <= epoch {
                let _ = std::fs::remove_file(dir.join(segment_file_name(seq)));
                deleted = true;
                false
            } else {
                true
            }
        });
        if deleted {
            sync_dir(&dir);
        }
        let _ = checkpoint::prune_checkpoints(&self.root, self.cfg.keep_checkpoints);
        self.since_checkpoint = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;
    use crate::recover::recover;
    use crate::segment::list_segments;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("intensio_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> WalConfig {
        WalConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 4,
            keep_checkpoints: 2,
        }
    }

    #[test]
    fn appends_rotate_and_recover() {
        let dir = tmpdir("rotate");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        for i in 1..=20u64 {
            wal.append(&Record::write(i, i, &format!("append to R (Id = \"{i}\")")))
                .unwrap();
        }
        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 20);
        assert_eq!(rec.records.last().unwrap().epoch, 20);
        assert_eq!(rec.stats.replayed_records, 20);
        assert_eq!(rec.stats.discarded_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_failpoint_rewinds_and_log_stays_valid() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        wal.append(&Record::write(1, 1, "append to R (Id = \"a\")"))
            .unwrap();
        let fault = intensio_fault::scoped("wal.torn", "error*1").unwrap();
        let err = wal.append(&Record::write(2, 2, "append to R (Id = \"b\")"));
        drop(fault);
        assert!(err.is_err(), "torn write must not acknowledge");
        // The writer healed itself: the next append lands cleanly and
        // replay sees records 1 and 2 with no gap.
        wal.append(&Record::write(2, 2, "append to R (Id = \"b2\")"))
            .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[1].script(), Some("append to R (Id = \"b2\")"));
        assert!(!rec.stats.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failpoint_retracts_the_record_under_always() {
        let dir = tmpdir("fsync");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        wal.append(&Record::write(1, 1, "append to R (Id = \"a\")"))
            .unwrap();
        let fault = intensio_fault::scoped("wal.fsync", "error*1").unwrap();
        let err = wal.append(&Record::write(2, 2, "append to R (Id = \"b\")"));
        drop(fault);
        assert!(err.is_err());
        let rec = recover(&dir).unwrap();
        assert_eq!(
            rec.records.len(),
            1,
            "the unacknowledged record must not survive"
        );
        // Epoch 2 can be reused by the retry without colliding.
        wal.append(&Record::write(2, 2, "append to R (Id = \"b\")"))
            .unwrap();
        assert_eq!(recover(&dir).unwrap().records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_failpoint_fails_cleanly() {
        let dir = tmpdir("appendfp");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        let fault = intensio_fault::scoped("wal.append", "error*1").unwrap();
        assert!(wal.append(&Record::write(1, 1, "x")).is_err());
        drop(fault);
        assert!(recover(&dir).unwrap().records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_policy_syncs_every_n() {
        let dir = tmpdir("batch");
        let mut c = cfg();
        c.fsync = FsyncPolicy::Batch(3);
        let mut wal = Wal::open(&dir, c, 0).unwrap();
        for i in 1..=7u64 {
            wal.append(&Record::write(i, i, "x")).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 2, "two full batches of three");
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_due_counts_appends() {
        let dir = tmpdir("due");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        for i in 1..=3u64 {
            wal.append(&Record::write(i, i, "x")).unwrap();
            assert!(!wal.checkpoint_due());
        }
        wal.append(&Record::write(4, 4, "x")).unwrap();
        assert!(wal.checkpoint_due());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_is_rejected_before_touching_disk() {
        let dir = tmpdir("oversize");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        let body = vec![0u8; MAX_PAYLOAD_BYTES as usize + 1];
        assert!(
            wal.append(&Record::rules(1, 1, body)).is_err(),
            "a payload recovery would reject as corrupt must fail the append"
        );
        // The log is untouched and still appendable: the next record
        // takes epoch 1 and recovery sees a clean single-record log.
        wal.append(&Record::write(1, 1, "append to R (Id = \"a\")"))
            .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.stats.discarded_records, 0);
        assert!(!rec.stats.corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_covered_keeps_records_past_the_checkpoint() {
        use intensio_storage::catalog::Database;
        let dir = tmpdir("covered");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        for i in 1..=12u64 {
            wal.append(&Record::write(i, i, &format!("append to R (Id = \"{i}\")")))
                .unwrap();
        }
        assert!(list_segments(&dir).unwrap().len() > 1, "rotation happened");
        // A checkpoint materialized at epoch 8 while epochs 9..=12 were
        // already on the log — the background-checkpointer shape.
        crate::checkpoint::write_checkpoint(&dir, &Database::new(), None, 8, 8, 0).unwrap();
        wal.truncate_covered(8).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.stats.checkpoint_epoch, 8);
        assert_eq!(
            rec.records.first().map(|r| r.epoch),
            Some(9),
            "records above the checkpoint epoch must survive truncation"
        );
        assert_eq!(rec.final_epoch(), 12);
        // The writer keeps going normally afterwards.
        wal.append(&Record::write(13, 13, "x")).unwrap();
        assert_eq!(recover(&dir).unwrap().final_epoch(), 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_covered_reclaims_a_fully_covered_log() {
        use intensio_storage::catalog::Database;
        let dir = tmpdir("covered_all");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        for i in 1..=5u64 {
            wal.append(&Record::write(i, i, "x")).unwrap();
        }
        crate::checkpoint::write_checkpoint(&dir, &Database::new(), None, 5, 5, 0).unwrap();
        wal.truncate_covered(5).unwrap();
        let rec = recover(&dir).unwrap();
        assert!(rec.records.is_empty(), "everything was covered");
        assert_eq!(rec.final_epoch(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rules_records_flow_through() {
        let dir = tmpdir("rules");
        let mut wal = Wal::open(&dir, cfg(), 0).unwrap();
        wal.append(&Record::rules(1, 0, b"fake body".to_vec()))
            .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records[0].kind, RecordKind::Rules);
        assert_eq!(rec.records[0].body, b"fake body");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
