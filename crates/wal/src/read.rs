//! Streaming reads of the log: the replication feed.
//!
//! [`LogTail`] is the chain walker ([`crate::chain`]) started at the
//! epoch the reader already holds and term 0, so it applies boot
//! recovery's acceptance rules, but incrementally, one segment in memory
//! at a time: a replication stream can ship a multi-gigabyte log without
//! materializing it. The chain must *begin* at `from_epoch + 1`; when a
//! checkpoint truncated the log past that point, the stream fails at
//! once with a gap error — the signal a replication source uses to fall
//! back to shipping a full snapshot instead of a log tail.

use crate::chain::{Frame, Verdict, Walk};
use crate::record::Record;
use crate::WalError;

/// A streaming iterator over the log's records with epoch strictly
/// greater than the `from_epoch` it was opened at. Yields every sound
/// record, then `Err` exactly once (and ends) when the chain breaks: an
/// epoch gap, a corrupt frame, a segment deleted mid-stream, or a higher
/// term retracting a record already yielded — so a caller that collects
/// the whole tail before using it, as the replication source does, never
/// uses a record recovery would fence or retract.
pub struct LogTail {
    walk: Walk,
    /// Lookahead slot: the next record to yield, held back one step so
    /// a duplicate epoch (an unacked append whose epoch was reused) can
    /// replace it before the caller sees it — recovery's last-wins rule
    /// — and a higher term can retract it.
    pending: Option<Record>,
    /// Epoch of the last record yielded (`from_epoch` before the first).
    yielded: u64,
    /// Set once the walk is over.
    done: bool,
    /// The error that ended the walk, reported after the lookahead.
    error: Option<WalError>,
}

impl LogTail {
    /// Open a tail over `data_dir`'s log starting after `from_epoch`.
    /// The segment list is snapshotted here; records appended to the
    /// active segment after this call may or may not be observed.
    pub fn open(data_dir: &std::path::Path, from_epoch: u64) -> Result<LogTail, WalError> {
        let walk = Walk::open(data_dir, from_epoch, 0)
            .map_err(|e| WalError(format!("listing wal segments: {e}")))?;
        Ok(LogTail {
            walk,
            pending: None,
            yielded: from_epoch,
            done: false,
            error: None,
        })
    }
}

impl Iterator for LogTail {
    type Item = Result<Record, WalError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let Some(step) = self.walk.next() else {
                self.done = true;
                break;
            };
            let err = match step.frame {
                Frame::Record(rec, Verdict::Replay) => match self.pending.replace(rec) {
                    Some(out) => {
                        self.yielded = out.epoch;
                        return Some(Ok(out));
                    }
                    None => continue,
                },
                Frame::Record(rec, Verdict::Supersede) => {
                    self.pending = Some(rec);
                    continue;
                }
                // Only the lookahead lies above `to`: drop it unseen.
                Frame::Record(rec, Verdict::RetractTo { to, replay }) if to >= self.yielded => {
                    self.pending = replay.then_some(rec);
                    continue;
                }
                Frame::Record(rec, Verdict::RetractTo { to, .. }) => {
                    self.pending = None;
                    WalError(format!(
                        "term {} record at epoch {} retracts epochs {}..={} the log tail already yielded",
                        rec.term,
                        rec.epoch,
                        to + 1,
                        self.yielded
                    ))
                }
                Frame::Record(rec, Verdict::Gap { chain_end }) => WalError(format!(
                    "epoch gap in log tail: wanted {}, found {}",
                    chain_end + 1,
                    rec.epoch
                )),
                Frame::Record(
                    _,
                    Verdict::Covered | Verdict::Fenced { .. } | Verdict::Discarded,
                )
                | Frame::Torn => continue,
                Frame::Corrupt(why) => WalError(format!("corrupt frame in log tail: {why}")),
                // A segment vanished mid-stream (checkpoint truncation
                // raced us): the chain is broken.
                Frame::Unreadable(e) => {
                    WalError(format!("reading segment {}: {e}", step.segment.display()))
                }
            };
            self.done = true;
            self.error = Some(err);
        }
        // The walk is over: flush the lookahead, then the error.
        self.pending
            .take()
            .map(Ok)
            .or_else(|| self.error.take().map(Err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Wal;
    use crate::segment::{segment_file_name, WAL_SUBDIR};
    use crate::{FsyncPolicy, WalConfig};
    use std::path::{Path, PathBuf};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("intensio_read_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(segment_bytes: u64) -> WalConfig {
        WalConfig {
            segment_bytes,
            fsync: FsyncPolicy::Off,
            checkpoint_every: 1000,
            keep_checkpoints: 2,
        }
    }

    fn collect(dir: &Path, from: u64) -> (Vec<Record>, Option<WalError>) {
        let mut records = Vec::new();
        let mut err = None;
        for item in LogTail::open(dir, from).unwrap() {
            match item {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        (records, err)
    }

    #[test]
    fn streams_across_a_segment_rotation_boundary() {
        let dir = tmpdir("rotation");
        // Tiny segments force several rotations mid-stream.
        let mut wal = Wal::open(&dir, cfg(128), 0).unwrap();
        for i in 1..=20u64 {
            wal.append(&Record::write(i, i, &format!("script {i}")))
                .unwrap();
        }
        assert!(
            crate::segment::list_segments(&dir).unwrap().len() > 2,
            "the stream must cross at least two rotation boundaries"
        );
        let (records, err) = collect(&dir, 0);
        assert!(err.is_none());
        assert_eq!(records.len(), 20);
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            (1..=20).collect::<Vec<_>>()
        );
        // A mid-stream start also lands exactly on the chain.
        let (tail, err) = collect(&dir, 13);
        assert!(err.is_none());
        assert_eq!(tail.first().map(|r| r.epoch), Some(14));
        assert_eq!(tail.len(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn start_past_the_end_is_empty_not_an_error() {
        let dir = tmpdir("past_end");
        let mut wal = Wal::open(&dir, cfg(4096), 0).unwrap();
        for i in 1..=3u64 {
            wal.append(&Record::write(i, i, "x")).unwrap();
        }
        let (records, err) = collect(&dir, 3);
        assert!(records.is_empty());
        assert!(err.is_none());
        let (records, err) = collect(&dir, 7);
        assert!(records.is_empty(), "nothing newer than epoch 7 exists");
        assert!(err.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_log_reports_a_gap_for_old_epochs() {
        let dir = tmpdir("gap");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        for e in 5..=8u64 {
            buf.extend_from_slice(&Record::write(e, e, "x").encode());
        }
        std::fs::write(wal_dir.join(segment_file_name(3)), &buf).unwrap();
        // The log starts at epoch 5; asking for the tail after epoch 2
        // cannot produce a contiguous chain.
        let (records, err) = collect(&dir, 2);
        assert!(records.is_empty());
        assert!(err.unwrap().to_string().contains("epoch gap"));
        // Asking from epoch 4 works: the chain starts at 5.
        let (records, err) = collect(&dir, 4);
        assert!(err.is_none());
        assert_eq!(records.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_ends_a_segment_but_later_segments_continue() {
        let dir = tmpdir("torn");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut seg1 = Vec::new();
        seg1.extend_from_slice(&Record::write(1, 1, "a").encode());
        let torn = Record::write(2, 2, "lost").encode();
        seg1.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(wal_dir.join(segment_file_name(1)), &seg1).unwrap();
        let mut seg2 = Vec::new();
        seg2.extend_from_slice(&Record::write(2, 2, "b").encode());
        seg2.extend_from_slice(&Record::write(3, 3, "c").encode());
        std::fs::write(wal_dir.join(segment_file_name(2)), &seg2).unwrap();

        let (records, err) = collect(&dir, 0);
        assert!(err.is_none());
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].script(), Some("b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_epoch_last_record_wins_even_at_the_tail() {
        let dir = tmpdir("dup");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&Record::write(1, 1, "a").encode());
        buf.extend_from_slice(&Record::write(2, 2, "unacked").encode());
        buf.extend_from_slice(&Record::write(2, 2, "acked").encode());
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();
        let (records, err) = collect(&dir, 0);
        assert!(err.is_none());
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].script(), Some("acked"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_flushes_sound_records_then_errors_once() {
        let dir = tmpdir("corrupt");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(&Record::write(1, 1, "a").encode());
        buf.extend_from_slice(&Record::write(2, 2, "b").encode());
        let mut bad = Record::write(3, 3, "c").encode();
        bad[12] ^= 0xFF;
        buf.extend_from_slice(&bad);
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();
        let mut tail = LogTail::open(&dir, 0).unwrap();
        assert_eq!(tail.next().unwrap().unwrap().epoch, 1);
        assert_eq!(tail.next().unwrap().unwrap().epoch, 2);
        assert!(tail.next().unwrap().is_err());
        assert!(tail.next().is_none(), "the stream ends after the error");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_writer_appends_are_visible_to_a_fresh_tail() {
        let dir = tmpdir("live");
        let mut wal = Wal::open(&dir, cfg(4096), 0).unwrap();
        wal.append(&Record::write(1, 1, "x")).unwrap();
        let (records, _) = collect(&dir, 0);
        assert_eq!(records.len(), 1);
        wal.append(&Record::write(2, 2, "y")).unwrap();
        let (records, _) = wal.read_from(1).map(collect_tail).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].epoch, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_fenced_suffix_never_reaches_a_collecting_caller() {
        // Term-0 epochs 3-4 are a deposed primary's unshipped tail; the
        // term-1 fencepost at epoch 3 retracts them, as recovery does.
        let dir = tmpdir("fenced");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        for rec in [
            Record::write(1, 1, "a"),
            Record::write(2, 2, "b"),
            Record::write(3, 3, "orphan3"),
            Record::write(4, 4, "orphan4"),
            Record::term_bump(1, 3, 2),
            Record::write(4, 3, "kept4").with_term(1),
        ] {
            buf.extend_from_slice(&rec.encode());
        }
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();

        // From epoch 2, orphan3 has left the lookahead when the
        // fencepost arrives: the stream ends with an error instead of
        // going on to splice the new term onto the orphan.
        let items: Vec<_> = LogTail::open(&dir, 2).unwrap().collect();
        assert_eq!(items.len(), 2, "{items:?}");
        assert_eq!(items[0].as_ref().unwrap().script(), Some("orphan3"));
        let err = items[1].as_ref().unwrap_err().to_string();
        assert!(err.contains("retracts epochs 3..=3"), "{err}");
        // The replication source collects the whole tail before it
        // ships anything, so it falls back to a snapshot.
        assert!(LogTail::open(&dir, 2)
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .is_err());

        // From epoch 3 only the lookahead (orphan4) is retracted: it is
        // dropped unseen and the new term's chain follows.
        let (records, err) = collect(&dir, 3);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].epoch, records[0].term), (4, 1));
        assert_eq!(records[0].script(), Some("kept4"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn records_below_the_established_term_are_never_yielded() {
        let dir = tmpdir("ghost");
        let wal_dir = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal_dir).unwrap();
        let mut buf = Vec::new();
        for rec in [
            Record::write(1, 1, "a").with_term(2),
            Record::write(2, 2, "b").with_term(2),
            Record::write(3, 3, "ghost").with_term(0),
        ] {
            buf.extend_from_slice(&rec.encode());
        }
        std::fs::write(wal_dir.join(segment_file_name(1)), &buf).unwrap();
        let (records, err) = collect(&dir, 0);
        assert!(err.is_none(), "{err:?}");
        let scripts: Vec<_> = records.iter().map(|r| r.script()).collect();
        assert_eq!(scripts, vec![Some("a"), Some("b")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn collect_tail(tail: LogTail) -> (Vec<Record>, Option<WalError>) {
        let mut records = Vec::new();
        let mut err = None;
        for item in tail {
            match item {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        (records, err)
    }
}
