//! The log chain walker: the one place that decides which logged
//! record belongs to the knowledge state.
//!
//! The log is an epoch chain. [`Walk`] starts from a base `(epoch,
//! term)` — the boot checkpoint's, or the epoch a replication follower
//! already holds — decodes every frame of every segment in sequence
//! order, and judges each complete record against the chain accepted so
//! far ([`Verdict`]). A torn frame ends its segment (the shape of a
//! crash mid-append; a later segment may continue the chain). A corrupt
//! frame, an unreadable segment or an epoch gap breaks the chain: every
//! later record is discarded, but frames are still decoded, so damage
//! further on stays visible.
//!
//! Boot recovery ([`crate::recover`]), the replication tail
//! ([`crate::LogTail`]) and `check fsck` read the log only through this
//! walker; each maps the verdicts to its own output.

use crate::record::{decode_frame, FrameOutcome, Record};
use crate::segment::list_segments;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What the chain makes of one complete record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Extends the chain by one epoch.
    Replay,
    /// Repeats the last accepted epoch and replaces that record: the
    /// earlier append was never acknowledged and its epoch was reused,
    /// so the last record wins.
    Supersede,
    /// At or below the last accepted epoch: already held.
    Covered,
    /// Carries a term below the `established` one: a deposed
    /// primary's record, superseded at failover. Never replays.
    Fenced {
        /// The highest term seen on the chain so far.
        established: u64,
    },
    /// Opens a higher term at or below the last accepted epoch: every
    /// accepted record above `to` was the previous term's unshipped
    /// tail and is retracted. The record itself then replays (at
    /// `to + 1`) when `replay` is set, and is covered otherwise (it sits
    /// at or below the base).
    RetractTo {
        /// The last epoch kept.
        to: u64,
        /// Whether the record replays after the retraction.
        replay: bool,
    },
    /// Skips epochs past `chain_end`: the chain breaks here.
    Gap {
        /// The last epoch the chain holds.
        chain_end: u64,
    },
    /// Follows a break in the chain: never replays.
    Discarded,
}

/// One frame of a segment, decoded and judged.
#[derive(Debug)]
pub enum Frame {
    /// A complete record and the chain's verdict on it.
    Record(Record, Verdict),
    /// The segment ends mid-frame; the walk moves to the next segment.
    Torn,
    /// The frame is structurally invalid; the chain breaks and the
    /// walk moves to the next segment.
    Corrupt(String),
    /// The segment could not be read; the chain breaks.
    Unreadable(std::io::Error),
}

/// One step of a [`Walk`].
#[derive(Debug)]
pub struct Step {
    /// The segment file the frame is in.
    pub segment: Arc<Path>,
    /// Byte offset of the frame in its segment.
    pub offset: u64,
    /// Bytes the step covers: the whole frame of a record, the rest of
    /// the segment for a torn or corrupt frame, 0 for an unreadable one.
    pub bytes: u64,
    /// What was found there.
    pub frame: Frame,
}

struct OpenSegment {
    path: Arc<Path>,
    buf: Vec<u8>,
    pos: usize,
}

/// An iterator over every frame of a data directory's log, judged
/// against the chain from a base `(epoch, term)`. Segments are read one
/// at a time, when the walk reaches them.
pub struct Walk {
    /// The highest segment sequence number the walk covers (0 when the
    /// log has no segment).
    pub last_seq: u64,
    segments: VecDeque<(u64, PathBuf)>,
    open: Option<OpenSegment>,
    /// The chain's base epoch, its last accepted epoch, the highest
    /// term on it, and whether it broke.
    base: u64,
    last: u64,
    term: u64,
    broken: bool,
}

impl Walk {
    /// Walk `data_dir`'s log from a chain that ends at `base_epoch`
    /// under `base_term`. The segment list is read here; segments
    /// created later are not walked.
    pub fn open(data_dir: &Path, base_epoch: u64, base_term: u64) -> std::io::Result<Walk> {
        let segments = list_segments(data_dir)?;
        Ok(Walk {
            last_seq: segments.last().map_or(0, |(seq, _)| *seq),
            segments: segments.into(),
            open: None,
            base: base_epoch,
            last: base_epoch,
            term: base_term,
            broken: false,
        })
    }

    /// The acceptance rule: judge `rec` against the chain so far.
    fn judge(&mut self, rec: &Record) -> Verdict {
        if self.broken {
            return Verdict::Discarded;
        }
        if rec.term < self.term {
            return Verdict::Fenced {
                established: self.term,
            };
        }
        let mut retract_to = None;
        if rec.term > self.term {
            self.term = rec.term;
            if self.last >= rec.epoch && self.last > self.base {
                self.last = rec.epoch.saturating_sub(1).max(self.base);
                retract_to = Some(self.last);
            }
        }
        let verdict = if rec.epoch == self.last && self.last > self.base {
            Verdict::Supersede
        } else if rec.epoch <= self.last {
            Verdict::Covered
        } else if rec.epoch == self.last + 1 {
            self.last = rec.epoch;
            Verdict::Replay
        } else {
            self.broken = true;
            Verdict::Gap {
                chain_end: self.last,
            }
        };
        match retract_to {
            Some(to) => Verdict::RetractTo {
                to,
                replay: verdict == Verdict::Replay,
            },
            None => verdict,
        }
    }
}

impl Iterator for Walk {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        loop {
            if let Some(mut seg) = self.open.take().filter(|s| s.pos < s.buf.len()) {
                let offset = seg.pos;
                let rest = (seg.buf.len() - offset) as u64;
                let (frame, bytes) = match decode_frame(&seg.buf[offset..]) {
                    FrameOutcome::Complete(rec, consumed) => {
                        let verdict = self.judge(&rec);
                        (Frame::Record(rec, verdict), consumed as u64)
                    }
                    FrameOutcome::Torn => (Frame::Torn, rest),
                    FrameOutcome::Corrupt(why) => {
                        // Framing is lost for the rest of this file.
                        self.broken = true;
                        (Frame::Corrupt(why), rest)
                    }
                };
                seg.pos += bytes as usize;
                let segment = seg.path.clone();
                self.open = Some(seg);
                return Some(Step {
                    segment,
                    offset: offset as u64,
                    bytes,
                    frame,
                });
            }
            let (_seq, path) = self.segments.pop_front()?;
            let path: Arc<Path> = path.into();
            match std::fs::read(&path) {
                Ok(buf) => self.open = Some(OpenSegment { path, buf, pos: 0 }),
                Err(e) => {
                    self.broken = true;
                    return Some(Step {
                        segment: path,
                        offset: 0,
                        bytes: 0,
                        frame: Frame::Unreadable(e),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{segment_file_name, WAL_SUBDIR};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("intensio_chain_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_segment(dir: &Path, seq: u64, bytes: &[u8]) {
        let wal = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal).unwrap();
        std::fs::write(wal.join(segment_file_name(seq)), bytes).unwrap();
    }

    fn judge_all(base: (u64, u64), records: &[Record]) -> Vec<Verdict> {
        let mut walk = Walk {
            last_seq: 0,
            segments: VecDeque::new(),
            open: None,
            base: base.0,
            last: base.0,
            term: base.1,
            broken: false,
        };
        records.iter().map(|r| walk.judge(r)).collect()
    }

    #[test]
    fn each_rule_has_its_verdict() {
        let v = judge_all(
            (2, 0),
            &[
                Record::write(2, 2, "covered"),
                Record::write(3, 3, "a"),
                Record::write(3, 3, "a again"),
                Record::write(4, 4, "orphan"),
                Record::term_bump(1, 4, 3),
                Record::write(5, 5, "ghost").with_term(0),
                Record::write(7, 7, "gap").with_term(1),
                Record::write(8, 8, "after").with_term(1),
            ],
        );
        assert_eq!(
            v,
            vec![
                Verdict::Covered,
                Verdict::Replay,
                Verdict::Supersede,
                Verdict::Replay,
                Verdict::RetractTo {
                    to: 3,
                    replay: true
                },
                Verdict::Fenced { established: 1 },
                Verdict::Gap { chain_end: 4 },
                Verdict::Discarded,
            ]
        );
    }

    #[test]
    fn a_higher_term_at_or_below_the_base_retracts_to_the_base() {
        let v = judge_all(
            (3, 0),
            &[
                Record::write(4, 4, "orphan"),
                Record::term_bump(1, 2, 2),
                Record::write(4, 3, "kept").with_term(1),
            ],
        );
        assert_eq!(
            v,
            vec![
                Verdict::Replay,
                Verdict::RetractTo {
                    to: 3,
                    replay: false
                },
                Verdict::Replay,
            ]
        );
        // Nothing accepted above the base: nothing to retract.
        let v = judge_all((3, 0), &[Record::term_bump(1, 3, 2)]);
        assert_eq!(v, vec![Verdict::Covered]);
    }

    #[test]
    fn walk_reports_offsets_and_damage_per_segment() {
        let dir = tmpdir("walk");
        let a = Record::write(1, 1, "a").encode();
        let b = Record::write(2, 2, "b").encode();
        let mut torn = a.clone();
        torn.extend_from_slice(&b[..b.len() - 3]);
        write_segment(&dir, 1, &torn);
        let mut bad = b.clone();
        bad[12] ^= 0xFF;
        bad.extend_from_slice(&Record::write(3, 3, "c").encode());
        write_segment(&dir, 2, &bad);
        write_segment(&dir, 3, &Record::write(3, 3, "c").encode());

        let walk = Walk::open(&dir, 0, 0).unwrap();
        assert_eq!(walk.last_seq, 3);
        let steps: Vec<Step> = walk.collect();
        let shape: Vec<(u64, u64, &str)> = steps
            .iter()
            .map(|s| {
                let what = match &s.frame {
                    Frame::Record(_, Verdict::Replay) => "replay",
                    Frame::Record(_, Verdict::Discarded) => "discarded",
                    Frame::Record(..) => "other",
                    Frame::Torn => "torn",
                    Frame::Corrupt(_) => "corrupt",
                    Frame::Unreadable(_) => "unreadable",
                };
                (s.offset, s.bytes, what)
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, a.len() as u64, "replay"),
                (a.len() as u64, b.len() as u64 - 3, "torn"),
                (0, bad.len() as u64, "corrupt"),
                (
                    0,
                    Record::write(3, 3, "c").encode().len() as u64,
                    "discarded"
                ),
            ]
        );
        assert!(steps[1].segment.ends_with(segment_file_name(1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
