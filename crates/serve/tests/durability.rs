//! Durable-mode round trips at the service level: a write acknowledged
//! by a `--data-dir` service must still be there after the process
//! state is thrown away and the service is reopened over the same
//! directory — with the epoch having moved only forward.

use intensio_serve::{Reply, Request, Service, ServiceConfig};
use intensio_wal::{FsyncPolicy, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "intensio-serve-durability-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open_durable(dir: &Path, fsync: FsyncPolicy, checkpoint_every: u64) -> Service {
    try_open_durable(dir, fsync, checkpoint_every).unwrap()
}

fn try_open_durable(
    dir: &Path,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
) -> Result<Service, intensio_serve::ServeError> {
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    let cfg = ServiceConfig {
        workers: 2,
        data_dir: Some(dir.to_path_buf()),
        wal: WalConfig {
            fsync,
            checkpoint_every,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    Service::with_config(db, model, cfg)
}

fn append_sub(service: &Service, id: &str, name: &str) -> u64 {
    let reply = service.submit(Request::Quel(format!(
        "append to SUBMARINE (Id = \"{id}\", Name = \"{name}\", Class = \"0101\")"
    )));
    match reply {
        Reply::Query(q) => q.epoch,
        other => panic!("append not acknowledged: {other:?}"),
    }
}

fn count_subs(service: &Service, prefix: &str) -> usize {
    let reply = service.submit(Request::Sql("SELECT Id, Name FROM SUBMARINE".to_string()));
    match reply {
        Reply::Query(q) => q
            .rows()
            .iter()
            .filter(|row| row.first().is_some_and(|id| id.starts_with(prefix)))
            .count(),
        other => panic!("query failed: {other:?}"),
    }
}

fn stats(service: &Service) -> intensio_serve::StatsReply {
    match service.submit(Request::Stats) {
        Reply::Stats(s) => *s,
        other => panic!("stats failed: {other:?}"),
    }
}

#[test]
fn acknowledged_writes_survive_reopen() {
    let dir = temp_dir("roundtrip");

    let mut last_epoch = 0;
    {
        let service = open_durable(&dir, FsyncPolicy::Always, 1_000);
        for i in 0..5 {
            let epoch = append_sub(&service, &format!("DUR{i:04}"), &format!("Durable {i}"));
            assert!(epoch > last_epoch, "epoch must advance on every ack");
            last_epoch = epoch;
        }
        assert_eq!(count_subs(&service, "DUR"), 5);

        let s = stats(&service);
        let d = s.durability.expect("durable mode must report wal stats");
        assert_eq!(d.fsync, "always");
        assert!(d.wal_appends >= 5, "five acked writes → ≥5 wal appends");
        assert!(d.wal_fsyncs >= 5, "fsync=always syncs before every ack");
    }

    // Reopen: everything acked above must be back, at an epoch at least
    // as large as the last one we were told about.
    let service = open_durable(&dir, FsyncPolicy::Always, 1_000);
    assert_eq!(
        count_subs(&service, "DUR"),
        5,
        "acked writes lost on reopen"
    );
    let s = stats(&service);
    assert!(
        s.epoch >= last_epoch,
        "recovered epoch {} ran backwards past acked epoch {last_epoch}",
        s.epoch
    );
    let d = s.durability.expect("durable stats after recovery");
    assert!(
        d.recovered_epoch >= last_epoch,
        "recovery reported epoch {} < acked {last_epoch}",
        d.recovered_epoch
    );

    // The recovered service keeps working: one more write, one more read.
    let epoch = append_sub(&service, "DUR9999", "Post-recovery");
    assert!(epoch > s.epoch);
    assert_eq!(count_subs(&service, "DUR"), 6);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_bound_replay_and_preserve_state() {
    let dir = temp_dir("checkpoint");

    {
        // Checkpoint every 3 records: 8 writes force at least two
        // checkpoints, so recovery starts from a checkpoint, not epoch 0.
        let service = open_durable(&dir, FsyncPolicy::Always, 3);
        for i in 0..8 {
            append_sub(&service, &format!("CKP{i:04}"), &format!("Ckpt {i}"));
        }
        // Checkpoints are materialized by a background thread; wait for
        // the cadence signals to land (the boot checkpoint counts too).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let d = stats(&service).durability.unwrap();
            if d.wal_checkpoints >= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "8 writes @ every-3 → ≥2 checkpoints, saw {}",
                d.wal_checkpoints
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    let service = open_durable(&dir, FsyncPolicy::Always, 3);
    assert_eq!(count_subs(&service, "CKP"), 8);
    let d = stats(&service).durability.unwrap();
    assert!(
        d.recovered_epoch >= 8,
        "recovered epoch {} below the 8 acked writes",
        d.recovered_epoch
    );
    // Replay only covers the post-checkpoint suffix.
    assert!(
        d.replayed_records <= 3,
        "checkpointing should bound replay, got {} records",
        d.replayed_records
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_and_off_policies_round_trip_on_clean_shutdown() {
    for (tag, fsync) in [("batch", FsyncPolicy::Batch(4)), ("off", FsyncPolicy::Off)] {
        let dir = temp_dir(tag);
        {
            let service = open_durable(&dir, fsync, 1_000);
            for i in 0..6 {
                append_sub(&service, &format!("POL{i:04}"), &format!("Policy {i}"));
            }
        } // Drop syncs the tail, so a clean shutdown loses nothing.
        let service = open_durable(&dir, fsync, 1_000);
        assert_eq!(
            count_subs(&service, "POL"),
            6,
            "clean shutdown under fsync={fsync} lost writes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovered_rules_pass_the_install_gate() {
    let dir = temp_dir("rules");

    {
        let service = open_durable(&dir, FsyncPolicy::Always, 1_000);
        // Wait for boot induction's rule set to be installed and logged.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if stats(&service).rules_fresh {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "boot induction never installed rules"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    let service = open_durable(&dir, FsyncPolicy::Always, 1_000);
    let s = stats(&service);
    assert!(
        s.rules_fresh,
        "recovered rule set should be installed without re-induction"
    );
    assert_eq!(
        s.rulesets_rejected, 0,
        "recovered rules must pass the same check gate they passed live"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn directly_subsumed_recovered_rules_are_pruned_on_install() {
    use intensio_rules::rule::{AttrId, Clause, Rule, RuleSet};
    use intensio_wal::record::Record;
    use intensio_wal::segment::{segment_file_name, WAL_SUBDIR};

    // A logged rule set carrying a redundant narrower duplicate of the
    // paper's R5: same conclusion, premise strictly inside the wider
    // rule. The install gate passes it (IC021 is a warning), and the
    // install path drops the duplicate before serving.
    let dir = temp_dir("prune");
    let wide = Rule::new(
        0,
        vec![Clause::between(
            AttrId::new("CLASS", "Displacement"),
            7250,
            30000,
        )],
        Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
    )
    .with_subtype("SSBN")
    .with_support(5);
    let narrow = Rule::new(
        0,
        vec![Clause::between(
            AttrId::new("CLASS", "Displacement"),
            8000,
            9000,
        )],
        Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
    )
    .with_subtype("SSBN")
    .with_support(3);
    let rules = RuleSet::from_rules([wide, narrow]);
    let body = intensio_wal::rules_codec::rules_to_bytes(&rules).unwrap();
    let wal_dir = dir.join(WAL_SUBDIR);
    std::fs::create_dir_all(&wal_dir).unwrap();
    std::fs::write(
        wal_dir.join(segment_file_name(1)),
        Record::rules(1, 0, body).encode(),
    )
    .unwrap();

    let service = open_durable(&dir, FsyncPolicy::Always, 1_000);
    let s = stats(&service);
    assert!(s.rules_fresh, "the recovered set installs");
    assert_eq!(s.rulesets_rejected, 0, "a redundant set is not rejected");
    assert_eq!(s.rules_pruned, 1, "the narrower duplicate is dropped");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint directory names under `dir`, oldest first: the fixed-width
/// hex `ckpt-<epoch>-<seq>` names sort by `(epoch, seq)`.
fn checkpoint_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("checkpoints"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    names.sort();
    names
}

fn checkpoint_epoch(name: &str) -> u64 {
    let (epoch, _seq) = name["ckpt-".len()..].split_once('-').unwrap();
    u64::from_str_radix(epoch, 16).unwrap()
}

#[test]
fn a_rejected_checkpoint_past_the_replayed_log_refuses_to_boot() {
    let dir = temp_dir("rollback");
    {
        let service = open_durable(&dir, FsyncPolicy::Always, 3);
        for i in 0..8 {
            append_sub(&service, &format!("RBK{i:04}"), &format!("Rollback {i}"));
        }
        // Wait for a checkpoint at the last epoch: it deletes every log
        // segment. Re-induction appends records of its own, so a write
        // more may be needed before the cadence lands on the last one.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut extra = 0;
        loop {
            let s = stats(&service);
            let newest = checkpoint_names(&dir)
                .pop()
                .map_or(0, |n| checkpoint_epoch(&n));
            if s.rules_fresh && newest == s.epoch {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no covering checkpoint"
            );
            std::thread::sleep(std::time::Duration::from_millis(100));
            if stats(&service).epoch == s.epoch && s.rules_fresh {
                append_sub(&service, &format!("RBX{extra:04}"), "Extra");
                extra += 1;
            }
        }
    }
    // The newest checkpoint truncated the whole log; without its
    // database, recovery can only fall back to an older checkpoint.
    let newest = checkpoint_names(&dir).pop().unwrap();
    let epoch = checkpoint_epoch(&newest);
    std::fs::remove_file(dir.join("checkpoints").join(&newest).join("db/_schema.csv")).unwrap();
    let recovered = intensio_wal::recover(&dir).unwrap();
    let reached = recovered.final_epoch();
    assert!(reached < epoch, "replay reaches epoch {reached} >= {epoch}");

    let message = match try_open_durable(&dir, FsyncPolicy::Always, 3) {
        Ok(_) => panic!("booted epoch {reached} behind a rejected checkpoint at {epoch}"),
        Err(e) => e.to_string(),
    };
    for needle in [
        format!("at epoch {epoch} was rejected"),
        format!("reaches only epoch {reached}"),
        "does not load".to_string(),
    ] {
        assert!(message.contains(&needle), "{needle:?} not in {message:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rejected_checkpoint_the_log_still_covers_boots() {
    let dir = temp_dir("covered");
    {
        // Only the boot checkpoint: the log keeps every record.
        let service = open_durable(&dir, FsyncPolicy::Always, 1000);
        for i in 0..4 {
            append_sub(&service, &format!("COV{i:04}"), &format!("Covered {i}"));
        }
    }
    // A newer checkpoint that does not load, at an epoch the log
    // reaches, and one past it.
    let boot = checkpoint_names(&dir).pop().unwrap();
    let reached = intensio_wal::recover(&dir).unwrap().final_epoch();
    let forge = |epoch: u64| {
        let name = format!("ckpt-{epoch:016x}-{:04x}", 0xfff);
        let path = dir.join("checkpoints").join(name);
        std::fs::create_dir_all(&path).unwrap();
        std::fs::write(path.join("MANIFEST"), "not a manifest").unwrap();
        path
    };
    let covered = forge(reached);
    assert_ne!(checkpoint_names(&dir).last(), Some(&boot));
    {
        let service = open_durable(&dir, FsyncPolicy::Always, 1000);
        assert_eq!(count_subs(&service, "COV"), 4);
        assert!(stats(&service).durability.unwrap().recovered_epoch >= reached);
    }
    std::fs::remove_dir_all(&covered).unwrap();
    forge(reached + 100);
    assert!(
        try_open_durable(&dir, FsyncPolicy::Always, 1000).is_err(),
        "booted behind a rejected checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
