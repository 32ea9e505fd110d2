//! Golden tests for `check fsck` — the CLI contract CI scripts rely
//! on, exercised over crash-harness-style corpora built with the same
//! WAL primitives `serve` writes with:
//!
//! * a **post-crash** directory (checkpoint + log + torn tail) exits 0
//!   by default and 1 under `--deny-warnings`, reporting `IC062 warn`;
//! * a **post-failover** directory (term fencepost retracting an
//!   orphaned suffix) is clean — the drill leaves no findings;
//! * a **corrupt frame** exits 1 with `IC061 error`;
//! * a **ghost suffix** — a deposed primary's low-term records after a
//!   higher-term fencepost — exits 1 with `IC060 error`, and the
//!   finding is byte-identical across runs;
//! * a newest checkpoint whose **manifest verifies but whose database
//!   does not load** exits 1 with `IC066 error` naming the load
//!   failure, plus the `IC063` gap recovery hits from the older
//!   checkpoint it falls back to;
//! * usage errors (missing or non-directory operand) exit 2.

use intensio_storage::catalog::Database;
use intensio_wal::checkpoint::write_checkpoint;
use intensio_wal::record::Record;
use intensio_wal::recover::recover;
use intensio_wal::segment::{segment_file_name, WAL_SUBDIR};
use std::path::{Path, PathBuf};
use std::process::Command;

fn corpus_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "intensio-fsck-golden-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
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

fn run_fsck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_check"))
        .arg("fsck")
        .args(args)
        .output()
        .expect("check binary runs")
}

#[test]
fn post_crash_corpus_warns_on_the_torn_tail_only() {
    // The SIGKILL footprint: a checkpoint, a contiguous log suffix, and
    // a half-written final frame the crash interrupted.
    let dir = corpus_dir("post-crash");
    write_checkpoint(&dir, &Database::new(), None, 2, 2, 0).unwrap();
    write_segment(
        &dir,
        1,
        &[Record::write(3, 3, "a"), Record::write(4, 4, "b")],
    );
    let torn = Record::write(5, 5, "interrupted").encode();
    let seg = dir.join(WAL_SUBDIR).join(segment_file_name(1));
    let mut buf = std::fs::read(&seg).unwrap();
    buf.extend_from_slice(&torn[..torn.len() - 6]);
    std::fs::write(&seg, &buf).unwrap();

    let out = run_fsck(&[dir.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a torn tail is recoverable, not a failure:\n{text}"
    );
    assert!(
        text.contains("IC062 warning"),
        "torn tail reported:\n{text}"
    );
    assert!(
        text.contains("0 error(s)"),
        "no errors in a crash shape:\n{text}"
    );

    let strict = run_fsck(&["--deny-warnings", dir.to_str().unwrap()]);
    assert_eq!(
        strict.status.code(),
        Some(1),
        "--deny-warnings promotes the warning to a failing exit"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn post_failover_corpus_is_clean() {
    // The failover-drill footprint: the old primary's term-0 epochs 3-4
    // are retracted by the new primary's term-1 fencepost, which then
    // rewrites epoch 3 onward. Recovery replays this without loss, so
    // the auditor must agree there is nothing to report.
    let dir = corpus_dir("post-failover");
    write_segment(
        &dir,
        1,
        &[
            Record::write(1, 1, "a"),
            Record::write(2, 2, "b"),
            Record::write(3, 3, "orphan3"),
            Record::write(4, 4, "orphan4"),
            Record::term_bump(1, 3, 2),
            Record::write(3, 3, "kept3").with_term(1),
            Record::write(4, 4, "kept4").with_term(1),
        ],
    );
    let out = run_fsck(&["--deny-warnings", dir.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "failover retraction is a healthy shape:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_frame_corpus_fails_with_ic061() {
    let dir = corpus_dir("corrupt");
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

    let out = run_fsck(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "corruption must fail the audit");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IC061 error"), "corrupt frame named:\n{text}");
    assert!(
        text.contains(&format!("byte {first}")),
        "the finding pins the damaged offset:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ghost_suffix_corpus_fails_with_a_deterministic_ic060() {
    // A deposed primary kept appending term-0 records after the new
    // primary's term-2 history reached the same disk.
    let dir = corpus_dir("ghost");
    write_segment(
        &dir,
        1,
        &[
            Record::write(1, 1, "a").with_term(2),
            Record::write(2, 2, "ghost").with_term(0),
        ],
    );
    let out = run_fsck(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("IC060 error") && text.contains("term 0"),
        "term monotonicity violation named with its term:\n{text}"
    );

    // The finding is stable: a second run renders byte-identically, and
    // the JSON form carries the same code for machine consumers.
    let again = run_fsck(&[dir.to_str().unwrap()]);
    assert_eq!(
        out.stdout, again.stdout,
        "fsck output must be deterministic"
    );
    let json = run_fsck(&["--json", dir.to_str().unwrap()]);
    assert_eq!(json.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&json.stdout).contains(r#""code":"IC060""#),
        "json: {}",
        String::from_utf8_lossy(&json.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unloadable_newest_checkpoint_fails_with_ic066_and_the_gap_recovery_hits() {
    // Checkpoints at epochs 2 and 4, log records 5-6. The epoch-4
    // checkpoint's manifest verifies, but its database does not load,
    // so recovery boots from epoch 2 and stops at the missing 3-4.
    let dir = corpus_dir("unloadable");
    write_checkpoint(&dir, &Database::new(), None, 2, 2, 0).unwrap();
    let newest = write_checkpoint(&dir, &Database::new(), None, 4, 4, 0).unwrap();
    write_segment(
        &dir,
        1,
        &[Record::write(5, 5, "e"), Record::write(6, 6, "f")],
    );
    std::fs::remove_file(newest.path.join("db").join("_schema.csv")).unwrap();

    let recovered = recover(&dir).unwrap();
    assert_eq!(recovered.stats.checkpoint_epoch, 2);
    assert!(recovered.stats.corrupt);
    assert!(recovered.records.is_empty());
    assert_eq!(recovered.stats.checkpoints_rejected, 1);
    assert_eq!(
        intensio_obs::metrics().gauge_value("recovery.checkpoints_rejected"),
        Some(1),
        "the skipped checkpoint shows in STATS"
    );

    let out = run_fsck(&[dir.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    let ckpt_name = newest.path.file_name().unwrap().to_str().unwrap();
    assert!(
        text.lines().any(|l| l.contains("IC066 error")
            && l.contains(ckpt_name)
            && l.contains("checkpoint does not load")
            && l.contains("loading checkpoint db")),
        "the load failure is named on the skipped checkpoint:\n{text}"
    );
    assert!(
        text.contains("IC063 error") && text.contains("chain ends at epoch 2"),
        "the gap recovery hits after falling back:\n{text}"
    );
    assert!(text.contains("2 error(s)"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    let missing = run_fsck(&[]);
    assert_eq!(
        missing.status.code(),
        Some(2),
        "no operand is a usage error"
    );

    let dir = corpus_dir("not-a-dir");
    let file = dir.join("plain-file");
    std::fs::write(&file, b"x").unwrap();
    let nondir = run_fsck(&[file.to_str().unwrap()]);
    assert_eq!(nondir.status.code(), Some(2), "operand must be a directory");
    let _ = std::fs::remove_dir_all(&dir);
}
