//! Replication contract tests.
//!
//! **Convergence property:** however a follower bootstraps — empty
//! against a full log, empty against a truncated log (wire snapshot),
//! or joining mid-workload — once the primary quiesces, the follower
//! reaches the primary's *exact* epoch and serves the *exact* same
//! relation contents. The property is exercised across a grid of
//! checkpoint cadences, segment sizes, and join points, so both the
//! log-tail and snapshot bootstrap paths are hit.
//!
//! **Seeded chaos:** SIGKILL a durable follower process mid-replay,
//! keep writing on the primary, restart the follower over the same
//! data directory, and hold it to the rejoin contract: it recovers
//! locally, re-requests the stream from its recovered epoch, skips the
//! overlap without re-applying any epoch (a double-applied append
//! would key-conflict and wedge the chain below the primary's epoch),
//! and converges with zero lost acked writes. `INTENSIO_CHAOS_SEED`
//! seeds the workload and kill timing for reproducible failures.

#![cfg(unix)]

mod support;

use intensio_serve::json::{self, Json};
use intensio_serve::{Client, Server, Service, ServiceConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "intensio-replication-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ship_service(cfg: ServiceConfig) -> Arc<Service> {
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    Arc::new(Service::with_config(db, model, cfg).unwrap())
}

fn roundtrip_json(client: &mut Client, request: &str) -> json::Json {
    let reply = client.roundtrip(request).expect("roundtrip");
    json::parse(&reply).unwrap_or_else(|e| panic!("undecodable reply ({e}): {reply}"))
}

/// Append one SUBMARINE row, returning the acked epoch.
fn append(client: &mut Client, id: &str) -> u64 {
    let v = roundtrip_json(
        client,
        &format!(
            "QUEL append to SUBMARINE (Id = \"{id}\", Name = \"Repl Probe\", Class = \"0101\")"
        ),
    );
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "append {id} rejected"
    );
    v.get("epoch").and_then(Json::as_u64).expect("epoch in ack")
}

fn submarine_ids(client: &mut Client) -> BTreeSet<String> {
    let v = roundtrip_json(client, "SQL SELECT Id FROM SUBMARINE");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    v.get("rows")
        .and_then(Json::as_array)
        .expect("rows")
        .iter()
        .filter_map(|row| {
            row.as_array()
                .and_then(|cells| cells.first())
                .and_then(Json::as_str)
                .map(|id| id.trim().to_string())
        })
        .collect()
}

/// (epoch, role, lag_epochs or 0, records_applied or 0, rules_fresh).
fn stats(client: &mut Client) -> (u64, String, u64, u64, bool) {
    let v = roundtrip_json(client, "STATS");
    let epoch = v.get("epoch").and_then(Json::as_u64).expect("epoch");
    let role = v
        .get("role")
        .and_then(Json::as_str)
        .expect("role in stats")
        .to_string();
    let lag = v
        .get("repl")
        .and_then(|r| r.get("lag_epochs"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let applied = v
        .get("repl")
        .and_then(|r| r.get("records_applied"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let fresh = v.get("rules_fresh").and_then(Json::as_bool) == Some(true);
    (epoch, role, lag, applied, fresh)
}

/// Poll until the follower sits at the primary's exact epoch with the
/// primary quiescent (rules fresh, epoch stable across reads).
fn await_convergence(primary: &mut Client, follower: &mut Client, what: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (pe, _, _, _, fresh) = stats(primary);
        let (fe, _, lag, _, _) = stats(follower);
        if fresh && pe == fe && lag == 0 {
            // Re-read the primary: convergence must not be a race with
            // a background induction that was about to bump the epoch.
            let (pe2, _, _, _, fresh2) = stats(primary);
            if fresh2 && pe2 == pe {
                return pe;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{what}: follower stuck at epoch {fe} (lag {lag}), primary at {pe}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One grid point of the convergence property: a primary with the
/// given WAL shape, `before` writes, then a follower joins, then
/// `after` writes; the follower must converge to identical state.
/// `tag` is at most two chars — ids must fit SUBMARINE's char(7) key.
fn converges(tag: &str, checkpoint_every: u64, segment_bytes: u64, before: u32, after: u32) {
    let pdir = temp_dir(&format!("{tag}-p"));
    let fdir = temp_dir(&format!("{tag}-f"));

    let mut pcfg = ServiceConfig {
        data_dir: Some(pdir.clone()),
        ..ServiceConfig::default()
    };
    pcfg.wal.checkpoint_every = checkpoint_every;
    pcfg.wal.segment_bytes = segment_bytes;
    let primary = Server::bind(ship_service(pcfg), "127.0.0.1:0").unwrap();
    let paddr = primary.local_addr().to_string();
    let mut pc = Client::connect(&paddr).unwrap();

    for i in 0..before {
        append(&mut pc, &format!("{tag}A{i:03}"));
    }

    let fcfg = ServiceConfig {
        data_dir: Some(fdir.clone()),
        replicate_from: Some(paddr.clone()),
        ..ServiceConfig::default()
    };
    let follower = Server::bind(ship_service(fcfg), "127.0.0.1:0").unwrap();
    let mut fc = Client::connect(&follower.local_addr().to_string()).unwrap();
    let (_, role, _, _, _) = stats(&mut fc);
    assert_eq!(role, "follower");

    for i in 0..after {
        append(&mut pc, &format!("{tag}B{i:03}"));
    }

    let epoch = await_convergence(&mut pc, &mut fc, tag);
    assert!(epoch > 0, "{tag}: nothing was ever committed");
    assert_eq!(
        submarine_ids(&mut pc),
        submarine_ids(&mut fc),
        "{tag}: follower contents diverge from primary at epoch {epoch}"
    );

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn follower_converges_from_any_bootstrap_split() {
    // (checkpoint cadence, segment bytes, writes before join, after).
    // Late checkpoints + big segments → pure log-tail bootstrap; tight
    // checkpoints + tiny segments truncate the log under the joining
    // follower → wire-snapshot bootstrap; `before = 0` → empty-log
    // join; `after = 0` → nothing to tail after bootstrap.
    converges("TL", 10_000, 8 * 1024 * 1024, 6, 6);
    converges("EM", 10_000, 8 * 1024 * 1024, 0, 8);
    converges("SN", 2, 256, 14, 6);
    converges("QT", 3, 512, 10, 0);
}

#[test]
fn follower_serves_read_your_writes_via_min_epoch() {
    let pdir = temp_dir("ryw-p");
    let pcfg = ServiceConfig {
        data_dir: Some(pdir.clone()),
        ..ServiceConfig::default()
    };
    let primary = Server::bind(ship_service(pcfg), "127.0.0.1:0").unwrap();
    let paddr = primary.local_addr().to_string();
    let mut pc = Client::connect(&paddr).unwrap();

    let fcfg = ServiceConfig {
        replicate_from: Some(paddr.clone()),
        ..ServiceConfig::default()
    };
    let follower = Server::bind(ship_service(fcfg), "127.0.0.1:0").unwrap();
    let mut fc = Client::connect(&follower.local_addr().to_string()).unwrap();

    // Write on the primary, then immediately read *that epoch* on the
    // follower: the reply must contain the row, never a stale miss.
    let epoch = append(&mut pc, "RYW0001");
    let v = roundtrip_json(
        &mut fc,
        &format!("SQL@{epoch} SELECT Id FROM SUBMARINE WHERE Id = \"RYW0001\""),
    );
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "min-epoch read failed"
    );
    assert!(
        v.get("epoch").and_then(Json::as_u64).unwrap_or(0) >= epoch,
        "read answered below the requested epoch"
    );
    let rows = v.get("rows").and_then(Json::as_array).expect("rows");
    assert_eq!(rows.len(), 1, "read-your-writes missed the acked row");

    // An epoch no node has yet must redirect, not block forever.
    let v = roundtrip_json(
        &mut fc,
        &format!("SQL@{} SELECT Id FROM SUBMARINE", epoch + 1_000),
    );
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let msg = v.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        msg.starts_with("REDIRECT") && msg.contains(&paddr),
        "unreachable min-epoch should redirect to the primary: {msg}"
    );

    // Writes and fault administration are refused with READONLY.
    let v = roundtrip_json(
        &mut fc,
        "QUEL append to SUBMARINE (Id = \"RYW0002\", Name = \"No\", Class = \"0101\")",
    );
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .starts_with("READONLY"),
        "follower accepted a write"
    );
    let v = roundtrip_json(&mut fc, "FAULT SET storage.scan=1%error");
    assert!(
        v.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .starts_with("READONLY"),
        "follower accepted fault administration"
    );

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
}

// ---------------------------------------------------------------------
// Seeded chaos: SIGKILL a follower process mid-replay.
// ---------------------------------------------------------------------

mod chaos {
    use super::*;
    use crate::support::{chaos_seed, Conn, ServeChild};
    use intensio_fault::Rng;

    #[test]
    fn sigkill_follower_mid_replay_rejoins_without_duplicate_application() {
        let seed: u64 = chaos_seed(0xC0FFEE);
        println!("chaos seed: {seed} (set INTENSIO_CHAOS_SEED to reproduce)");
        let mut rng = Rng::new(seed);

        let pdir = super::temp_dir("chaos-p");
        let fdir = super::temp_dir("chaos-f");
        let primary = ServeChild::spawn(&pdir, &["--fsync", "batch:4"]);
        let paddr = primary.addr.clone();
        let follower =
            ServeChild::spawn(&fdir, &["--fsync", "batch:4", "--replicate-from", &paddr]);

        let mut pc = primary.connect();
        let mut acked: Vec<(String, u64)> = Vec::new();
        let write = |pc: &mut Conn, rng: &mut Rng| {
            let id = format!("CH{:05}", rng.next_u64() % 100_000);
            let v = pc.json(&format!(
                "QUEL append to SUBMARINE (Id = \"{id}\", Name = \"Chaos\", Class = \"0101\")"
            ));
            // Seeded ids can collide with an earlier insert; only a
            // key-conflict rejection is acceptable, and only acked
            // writes join the oracle.
            if v.get("ok").and_then(Json::as_bool) == Some(true) {
                let epoch = v.get("epoch").and_then(Json::as_u64).expect("epoch");
                (Some((id, epoch)), true)
            } else {
                (None, v.get("error").is_some())
            }
        };

        // Phase 1: write until the follower has demonstrably started
        // applying records, then a seeded handful more — the kill lands
        // mid-replay, not at a tidy boundary.
        let mut fprobe = follower.connect();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (ok, sane) = write(&mut pc, &mut rng);
            assert!(sane, "primary write errored without a message");
            if let Some(a) = ok {
                acked.push(a);
            }
            let (_, _, applied) = fprobe.epoch_and_lag_and_applied();
            if applied >= 3 && acked.len() >= 8 {
                break;
            }
            assert!(Instant::now() < deadline, "follower never started applying");
        }
        for _ in 0..(rng.next_u64() % 5) {
            if let (Some(a), _) = write(&mut pc, &mut rng) {
                acked.push(a);
            }
        }
        drop(fprobe);
        follower.kill();

        // Phase 2: the primary keeps committing while the follower is a
        // corpse — this is the divergence window the rejoin must heal.
        for _ in 0..(6 + rng.next_u64() % 6) {
            if let (Some(a), _) = write(&mut pc, &mut rng) {
                acked.push(a);
            }
        }
        let max_acked_epoch = acked.iter().map(|(_, e)| *e).max().unwrap_or(0);

        // Phase 3: restart over the same data dir; it recovers locally,
        // rejoins from its recovered epoch, and must converge.
        let follower =
            ServeChild::spawn(&fdir, &["--fsync", "batch:4", "--replicate-from", &paddr]);
        let mut fc = follower.connect();
        let deadline = Instant::now() + Duration::from_secs(30);
        let final_epoch = loop {
            let (pe, _, _) = pc.epoch_and_lag_and_applied();
            let (fe, lag, _) = fc.epoch_and_lag_and_applied();
            if lag == 0 && fe == pe && pe >= max_acked_epoch {
                break pe;
            }
            assert!(
                Instant::now() < deadline,
                "rejoined follower stuck at {fe} (lag {lag}), primary at {pe}"
            );
            std::thread::sleep(Duration::from_millis(25));
        };

        // Zero lost acked writes, and exact contents — a duplicate-epoch
        // application would have key-conflicted on replay and wedged the
        // chain below `final_epoch`, so convergence + equality is also
        // the no-duplicates proof.
        let on_follower = fc.submarine_ids();
        let on_primary = pc.submarine_ids();
        for (id, epoch) in &acked {
            assert!(
                on_follower.contains(id),
                "acked write {id} (epoch {epoch}) lost on rejoined follower [seed {seed}]"
            );
        }
        assert_eq!(
            on_primary, on_follower,
            "follower diverged from primary at epoch {final_epoch} [seed {seed}]"
        );

        follower.kill();
        primary.kill();
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
}
