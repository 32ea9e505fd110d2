//! The commit barrier's failure branches, driven through a `Service`.
//!
//! Every epoch advance goes through one commit path: WAL append, then
//! install, then `#repl` publish. A failed append must install nothing.
//! Each case arms `wal.append=error*1` globally and checks what the
//! caller of that path does with the failure:
//!
//! - a durable QUEL write answers with an error, leaves the epoch and
//!   the rows as they were, and its retry commits at the same epoch;
//! - a background rules install counts one `induction_retries` and the
//!   rules still become fresh;
//! - a durable candidate's promotion fencepost counts one
//!   `repl.promotion_failures`, a later deadline promotes with a forced
//!   fsync, and a service rebooted from the directory recovers the new
//!   term.
//!
//! Failpoints are process-global, so the cases run one at a time.

use intensio::serve::{Reply, Request, Service, ServiceConfig};
use intensio::shipdb::{ship_database, ship_model};
use intensio_wal::{FsyncPolicy, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms every failpoint when a case ends, even by panic.
struct Armed;

impl Armed {
    fn new(spec: &str) -> Armed {
        intensio_fault::configure_str(spec).unwrap();
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        intensio_fault::clear();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "intensio-commit-barrier-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        induction_threads: 1,
        data_dir: Some(dir.to_path_buf()),
        wal: WalConfig {
            fsync: FsyncPolicy::Off,
            checkpoint_every: u64::MAX,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn open(cfg: ServiceConfig) -> Service {
    Service::with_config(ship_database().unwrap(), ship_model().unwrap(), cfg).unwrap()
}

fn append(id: &str) -> Request {
    Request::Quel(format!(
        "append to SUBMARINE (Id = \"{id}\", Name = \"Barrier\", Class = \"0101\")"
    ))
}

fn submarine_ids(service: &Service) -> Vec<String> {
    let reply = service.submit(Request::Sql("SELECT Id FROM SUBMARINE".to_string()));
    let mut ids: Vec<String> = reply
        .query()
        .expect("query reply")
        .rows()
        .iter()
        .map(|row| row[0].clone())
        .collect();
    ids.sort();
    ids
}

fn counter(service: &Service, name: &str) -> u64 {
    service
        .stats()
        .metrics
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn failed_write_append() {
    let dir = temp_dir("write");
    let service = open(durable_config(&dir));
    assert!(service.wait_rules_fresh(Duration::from_secs(30)));
    let epoch = service.epoch();
    let ids = submarine_ids(&service);

    let armed = Armed::new("wal.append=error*1");
    let reply = service.submit(append("B000001"));
    let message = reply.error().expect("a failed append is an error reply");
    assert!(message.starts_with("durability:"), "{message}");
    assert_eq!(service.epoch(), epoch, "nothing installed");
    assert_eq!(submarine_ids(&service), ids, "no row landed");
    drop(armed);

    let retry = service.submit(append("B000001"));
    let ack = retry.query().unwrap_or_else(|| panic!("retry: {retry:?}"));
    assert_eq!(ack.epoch, epoch + 1, "the retry commits at the freed epoch");
    assert_eq!(submarine_ids(&service).len(), ids.len() + 1);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

fn failed_rules_append() {
    let dir = temp_dir("rules");
    let service = open(durable_config(&dir));
    assert!(service.wait_rules_fresh(Duration::from_secs(30)));
    let retries = service.stats().induction_retries;

    // Hold the inducer in its first run so the write's own append
    // commits before `wal.append` is armed for the rules record.
    let _armed = Armed::new("induction.run=delay:400*1");
    let ack = match service.submit(append("B000002")) {
        Reply::Query(q) => q.epoch,
        other => panic!("write: {other:?}"),
    };
    intensio_fault::configure_str("wal.append=error*1").unwrap();

    assert!(
        service.wait_rules_fresh(Duration::from_secs(30)),
        "the retry installs"
    );
    assert_eq!(service.stats().induction_retries - retries, 1);
    assert_eq!(
        service.epoch(),
        ack + 1,
        "the install takes the epoch the failed append left free"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

fn failed_promotion_fencepost() {
    let dir = temp_dir("promote");
    // A primary address nothing listens on.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let failures = "repl.promotion_failures";
    let _armed = Armed::new("wal.append=error*1");
    let candidate = open(ServiceConfig {
        replicate_from: Some(dead),
        candidate: true,
        failover_timeout: Duration::from_millis(300),
        failover_seed: 7,
        ..durable_config(&dir)
    });
    let before = counter(&candidate, failures);

    let deadline = Instant::now() + Duration::from_secs(20);
    while candidate.stats().role != "primary" {
        assert!(Instant::now() < deadline, "the candidate never promoted");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = candidate.stats();
    assert_eq!(counter(&candidate, failures) - before, 1);
    assert_eq!(stats.term, 1);
    let fsyncs = stats.durability.expect("durable").wal_fsyncs;
    assert!(
        fsyncs >= 1,
        "the fencepost is fsynced under fsync=off ({fsyncs} fsyncs)"
    );
    drop(candidate);

    let rebooted = open(durable_config(&dir));
    assert_eq!(rebooted.stats().term, 1, "the new term is durable");
    drop(rebooted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_write_append_installs_nothing_and_frees_its_epoch() {
    let _serial = serial();
    failed_write_append();
}

#[test]
fn a_failed_rules_append_is_retried_until_the_rules_are_fresh() {
    let _serial = serial();
    failed_rules_append();
}

#[test]
fn a_failed_promotion_fencepost_is_retried_and_survives_a_reboot() {
    let _serial = serial();
    failed_promotion_fencepost();
}

/// The long run: every case, again and again, to shake out timing.
#[test]
#[ignore]
fn every_case_holds_over_repeated_runs() {
    let _serial = serial();
    for _ in 0..10 {
        failed_write_append();
        failed_rules_append();
        failed_promotion_fencepost();
    }
}
