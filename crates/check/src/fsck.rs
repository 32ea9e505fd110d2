//! Offline audit of a serve data directory — `intensio-check fsck`.
//!
//! Recovery ([`intensio_wal::recover`]) is an *acceptor*: it silently
//! skips everything that cannot be replayed and boots from what
//! remains. This pass is the *auditor*: it walks the same artifacts
//! read-only and reports every deviation from the healthy shape, so an
//! operator can tell an ordinary crash footprint from real damage
//! before trusting a node again. Nothing here writes, truncates, or
//! repairs.
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | IC060 | error    | term monotonicity violated: a record above the checkpoint epoch carries a term below the established term — a deposed primary's ghost suffix |
//! | IC061 | error    | corrupt frame: bad checksum, impossible length, or unknown record kind |
//! | IC062 | warn     | torn tail: a segment ends mid-frame (the expected crash-mid-append shape) |
//! | IC063 | error    | epoch contiguity broken: the log skips epochs, or no segment continues the checkpoint recovery boots from |
//! | IC064 | info     | duplicate epoch: an unacknowledged append was superseded (last record wins on replay) |
//! | IC065 | warn     | atomic-write debris: leftover `.tmp-*` / `.saving-*` / `.old-*` intermediates |
//! | IC066 | error    | bad checkpoint: unreadable or checksum-failing `MANIFEST`, a manifest disagreeing with its directory name, or a database/rules that do not load |
//!
//! The audit mirrors recovery by construction: it starts from the
//! checkpoint recovery boots from ([`choose_checkpoint`]) and walks the
//! log with recovery's own chain walker ([`Walk`]), only mapping
//! verdicts to findings — so "fsck reports no errors" and "recovery
//! replays everything present" coincide.

use crate::diag::{Diagnostic, Report, Severity};
use intensio_wal::chain::{Frame, Verdict, Walk};
use intensio_wal::checkpoint::{choose_checkpoint, debris, Rejection};
use std::path::Path;

/// Audit `dir` (a serve `--data-dir`) and report every finding. A
/// missing or empty directory is a clean (empty) report — the CLI
/// rejects nonexistent paths before calling this.
pub fn check_data_dir(dir: &Path) -> Report {
    let mut report = Report::new();
    let base = checkpoint_audit(dir, &mut report);
    debris_audit(dir, &mut report);
    log_audit(dir, base, &mut report);
    report.sort();
    report
}

fn file_name(path: &Path, fallback: &str) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(fallback)
        .to_string()
}

/// Report every checkpoint directory recovery cannot boot from, and
/// return the `(epoch, term)` of the one it boots from.
fn checkpoint_audit(dir: &Path, report: &mut Report) -> (u64, u64) {
    let choice = match choose_checkpoint(dir) {
        Ok(c) => c,
        Err(e) => {
            report.push(Diagnostic::new(
                "IC066",
                Severity::Error,
                "checkpoints",
                format!("cannot list checkpoint directories: {e}"),
            ));
            return (0, 0);
        }
    };
    let passed_over = choice.passed_over.into_iter().map(|(c, why)| (c.path, why));
    for (path, why) in passed_over.chain(choice.unusable) {
        let name = file_name(&path, "checkpoint");
        let bad =
            |message: String| Diagnostic::new("IC066", Severity::Error, name.clone(), message);
        report.push(match why {
            Rejection::Unnamed => bad("checkpoint directory name does not parse as \
                 ckpt-<epoch>-<seq>; recovery will never consider it"
                .to_string()),
            Rejection::EpochMismatch { manifest, name } => bad(format!(
                "manifest pins epoch {manifest} but the directory name claims epoch {name}; \
                 recovery rejects the checkpoint"
            )),
            Rejection::Manifest(e) => bad(format!("checkpoint manifest does not verify: {e}"))
                .with_note("recovery falls back to the next older checkpoint"),
            Rejection::Load(e) => bad(format!("checkpoint does not load: {e}")).with_note(
                "its manifest verifies, but recovery skips it and boots from the next older \
                 checkpoint that loads, if any",
            ),
        });
    }
    choice.loaded.map_or((0, 0), |c| (c.epoch, c.term))
}

/// Report leftover atomic-write intermediates.
fn debris_audit(dir: &Path, report: &mut Report) {
    let found = match debris(dir) {
        Ok(f) => f,
        Err(e) => {
            report.push(Diagnostic::new(
                "IC065",
                Severity::Warn,
                "fsck",
                format!("cannot scan for debris: {e}"),
            ));
            return;
        }
    };
    for path in found {
        let shown = path.strip_prefix(dir).unwrap_or(&path).display();
        report.push(
            Diagnostic::new(
                "IC065",
                Severity::Warn,
                "fsck",
                format!("atomic-write debris: {shown}"),
            )
            .with_note("a crash left this intermediate behind; recovery ignores it, deleting it reclaims the space"),
        );
    }
}

/// Walk the log from recovery's base checkpoint and report each frame
/// whose verdict deviates from the healthy shape.
fn log_audit(dir: &Path, (base_epoch, base_term): (u64, u64), report: &mut Report) {
    let walk = match Walk::open(dir, base_epoch, base_term) {
        Ok(w) => w,
        Err(e) => {
            report.push(Diagnostic::new(
                "IC063",
                Severity::Error,
                "wal",
                format!("cannot list segments: {e}"),
            ));
            return;
        }
    };
    for step in walk {
        let offset = step.offset;
        let finding = |code, severity, message: String| {
            Diagnostic::new(code, severity, file_name(&step.segment, "segment"), message)
        };
        report.push(match step.frame {
            Frame::Torn => finding(
                "IC062",
                Severity::Warn,
                format!(
                    "torn tail: frame at byte {offset} is incomplete ({} trailing byte(s))",
                    step.bytes
                ),
            )
            .with_note("the expected shape of a crash mid-append; recovery truncates it"),
            Frame::Corrupt(why) => finding(
                "IC061",
                Severity::Error,
                format!("corrupt frame at byte {offset}: {why}"),
            )
            .with_note("framing is lost from here; recovery discards the rest of the log"),
            Frame::Unreadable(e) => {
                finding("IC061", Severity::Error, format!("unreadable segment: {e}"))
            }
            // Covered stale records (epoch at or below the checkpoint)
            // are the benign footprint of a crash between a rewind
            // checkpoint and its log truncation.
            Frame::Record(rec, Verdict::Fenced { established }) if rec.epoch > base_epoch => {
                finding(
                    "IC060",
                    Severity::Error,
                    format!(
                        "term monotonicity violated: {} record at byte {offset} (epoch {}) \
                         carries term {} below the established term {established}",
                        rec.kind.name(),
                        rec.epoch,
                        rec.term
                    ),
                )
                .with_note(
                    "a deposed primary's ghost suffix — these records were fenced \
                     off at failover and will never replay",
                )
            }
            Frame::Record(rec, Verdict::Supersede) => finding(
                "IC064",
                Severity::Info,
                format!(
                    "duplicate epoch {}: the record at byte {offset} supersedes an \
                     earlier unacknowledged append (last record wins on replay)",
                    rec.epoch
                ),
            ),
            Frame::Record(rec, Verdict::Gap { chain_end }) => finding(
                "IC063",
                Severity::Error,
                format!(
                    "epoch contiguity broken: record at byte {offset} carries epoch {} \
                     but the replayable chain ends at epoch {chain_end}",
                    rec.epoch
                ),
            )
            .with_note(format!(
                "epoch(s) {}..={} are on no segment this directory holds; \
                 recovery discards everything from here",
                chain_end + 1,
                rec.epoch - 1
            )),
            Frame::Record(..) => continue,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_storage::catalog::Database;
    use intensio_wal::record::Record;
    use intensio_wal::segment::{segment_file_name, WAL_SUBDIR};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("intensio_fsck_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_segment(dir: &Path, seq: u64, records: &[Record]) {
        let wal = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal).unwrap();
        let mut buf = Vec::new();
        for r in records {
            buf.extend_from_slice(&r.encode());
        }
        std::fs::write(wal.join(segment_file_name(seq)), &buf).unwrap();
    }

    fn codes(r: &Report) -> Vec<&str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn healthy_directory_is_clean() {
        let dir = tmpdir("healthy");
        intensio_wal::checkpoint::write_checkpoint(&dir, &Database::new(), None, 2, 2, 0).unwrap();
        write_segment(
            &dir,
            3,
            &[Record::write(3, 3, "a"), Record::write(4, 4, "b")],
        );
        let r = check_data_dir(&dir);
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_clean() {
        let r = check_data_dir(Path::new("/nonexistent/intensio-fsck-test"));
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn torn_tail_is_a_warning_not_an_error() {
        let dir = tmpdir("torn");
        write_segment(&dir, 1, &[Record::write(1, 1, "a")]);
        let torn = Record::write(2, 2, "b").encode();
        let seg = dir.join(WAL_SUBDIR).join(segment_file_name(1));
        let mut buf = std::fs::read(&seg).unwrap();
        buf.extend_from_slice(&torn[..torn.len() - 4]);
        std::fs::write(&seg, &buf).unwrap();

        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC062"], "{}", r.render_text());
        assert!(!r.has_errors(), "a torn tail is an ordinary crash shape");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_is_ic061() {
        let dir = tmpdir("corrupt");
        write_segment(
            &dir,
            1,
            &[Record::write(1, 1, "a"), Record::write(2, 2, "b")],
        );
        let seg = dir.join(WAL_SUBDIR).join(segment_file_name(1));
        let mut buf = std::fs::read(&seg).unwrap();
        let first = Record::write(1, 1, "a").encode().len();
        buf[first + 12] ^= 0xFF;
        std::fs::write(&seg, &buf).unwrap();

        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC061"], "{}", r.render_text());
        assert!(r.has_errors());
        assert!(r.diagnostics[0].message.contains(&format!("byte {first}")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_gap_is_ic063_with_the_missing_range() {
        let dir = tmpdir("gap");
        write_segment(
            &dir,
            1,
            &[Record::write(1, 1, "a"), Record::write(4, 4, "d")],
        );
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC063"], "{}", r.render_text());
        assert!(r.diagnostics[0].notes[0].contains("2..=3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_above_the_checkpoint_is_ic063() {
        // Checkpoint pins epoch 2 but the only segment starts at epoch
        // 5: the covering records were lost with a deleted segment.
        let dir = tmpdir("coverage");
        intensio_wal::checkpoint::write_checkpoint(&dir, &Database::new(), None, 2, 2, 0).unwrap();
        write_segment(&dir, 4, &[Record::write(5, 5, "e")]);
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC063"], "{}", r.render_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_epoch_is_info_only() {
        let dir = tmpdir("dup");
        write_segment(
            &dir,
            1,
            &[
                Record::write(1, 1, "a"),
                Record::write(2, 2, "unacked"),
                Record::write(2, 2, "acked"),
                Record::write(3, 3, "c"),
            ],
        );
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC064"], "{}", r.render_text());
        assert!(!r.fails(true), "info never fails, even denying warnings");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn post_failover_retraction_shape_is_clean() {
        // The higher_term_retracts_the_orphaned_suffix recovery shape:
        // term-0 epochs 3-4 are retracted by the term-1 fencepost at
        // epoch 3, then the term-1 chain continues. Recovery replays
        // this without loss, so fsck must stay quiet.
        let dir = tmpdir("retraction");
        write_segment(
            &dir,
            1,
            &[
                Record::write(1, 1, "a"),
                Record::write(2, 2, "b"),
                Record::write(3, 3, "orphan3"),
                Record::write(4, 4, "orphan4"),
                Record::term_bump(1, 3, 2),
                Record::write(4, 3, "kept4").with_term(1),
            ],
        );
        let r = check_data_dir(&dir);
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ghost_suffix_below_the_established_term_is_ic060() {
        // A deposed primary appended term-0 records after a term-2
        // fencepost was already on disk: the planted failure shape.
        let dir = tmpdir("ghost");
        write_segment(
            &dir,
            1,
            &[
                Record::write(1, 1, "a").with_term(2),
                Record::write(2, 2, "ghost").with_term(0),
                Record::write(3, 3, "ghost2").with_term(0),
            ],
        );
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC060", "IC060"], "{}", r.render_text());
        assert!(r.has_errors());
        assert!(r.diagnostics[0].message.contains("term 0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_suffix_fenced_by_a_rewind_checkpoint_is_ic060() {
        // The stale_term recovery shape: a rewind checkpoint pins term
        // 2, but an old segment still holds the deposed primary's
        // term-0 records at epochs above the checkpoint.
        let dir = tmpdir("stale");
        intensio_wal::checkpoint::write_checkpoint(&dir, &Database::new(), None, 3, 2, 2).unwrap();
        write_segment(
            &dir,
            1,
            &[
                Record::write(4, 4, "orphan4"),
                Record::write(5, 5, "orphan5"),
            ],
        );
        write_segment(&dir, 2, &[Record::write(4, 3, "kept4").with_term(2)]);
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC060", "IC060"], "{}", r.render_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn covered_stale_records_below_the_checkpoint_are_benign() {
        // Crash between a rewind checkpoint and its log truncation:
        // term-0 records at or below the checkpoint epoch remain.
        // Recovery skips them; fsck stays quiet.
        let dir = tmpdir("covered");
        intensio_wal::checkpoint::write_checkpoint(&dir, &Database::new(), None, 3, 2, 2).unwrap();
        write_segment(
            &dir,
            1,
            &[
                Record::write(2, 2, "covered"),
                Record::write(3, 3, "covered"),
            ],
        );
        let r = check_data_dir(&dir);
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_manifest_is_ic066() {
        let dir = tmpdir("manifest");
        let ckpt =
            intensio_wal::checkpoint::write_checkpoint(&dir, &Database::new(), None, 2, 1, 0)
                .unwrap();
        let path = ckpt.path.join("MANIFEST");
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("epoch 2", "epoch 9");
        std::fs::write(&path, text).unwrap();
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC066"], "{}", r.render_text());
        assert!(r.has_errors());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn debris_is_ic065_warn() {
        let dir = tmpdir("debris");
        intensio_wal::checkpoint::write_checkpoint(&dir, &Database::new(), None, 1, 1, 0).unwrap();
        std::fs::create_dir_all(
            dir.join("checkpoints")
                .join("ckpt-0000000000000001-0001.tmp-4242"),
        )
        .unwrap();
        let r = check_data_dir(&dir);
        assert_eq!(codes(&r), vec!["IC065"], "{}", r.render_text());
        assert!(!r.has_errors());
        assert!(r.diagnostics[0].message.contains(".tmp-4242"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn findings_are_ordered_and_deterministic() {
        // One of each severity: errors sort first, then warnings, then
        // info, and two runs render byte-identically.
        let dir = tmpdir("ordered");
        write_segment(
            &dir,
            1,
            &[
                Record::write(1, 1, "a"),
                Record::write(2, 2, "dup"),
                Record::write(2, 2, "dup-wins"),
                Record::write(9, 9, "gap"),
            ],
        );
        std::fs::create_dir_all(dir.join("checkpoints").join("junk.tmp-1")).unwrap();
        let r1 = check_data_dir(&dir);
        let r2 = check_data_dir(&dir);
        assert_eq!(r1.render_text(), r2.render_text());
        assert_eq!(codes(&r1), vec!["IC063", "IC065", "IC064"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
