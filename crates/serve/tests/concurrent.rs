//! Concurrency tests for the serving layer: many threads hammering one
//! service with mixed reads and writes, cache identity, non-blocking
//! background re-induction, and the TCP front end.

use intensio_serve::{json, Client, Reply, Request, Server, Service, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn open_service(workers: usize) -> Service {
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    let cfg = ServiceConfig {
        workers,
        cache_capacity: 64,
        ..ServiceConfig::default()
    };
    Service::with_config(db, model, cfg).unwrap()
}

const EXAMPLE1: &str = "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
                        FROM SUBMARINE, CLASS \
                        WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000";

/// A query whose relations the hammer's writes never touch: its rows
/// are an oracle that must never change, whatever else is in flight.
const STABLE: &str = "SELECT Class FROM CLASS WHERE Displacement > 8000";

#[test]
fn hammer_mixed_reads_and_writes_from_eight_threads() {
    let service = Arc::new(open_service(4));
    let max_seen_epoch = Arc::new(AtomicU64::new(0));

    const THREADS: usize = 8;
    const ITERS: usize = 25;
    let mut handles = Vec::new();
    let mut expected_writes = 0u64;
    for t in 0..THREADS {
        let service = service.clone();
        let max_seen = max_seen_epoch.clone();
        // Two of the eight threads interleave writes with their reads.
        let writer = t < 2;
        if writer {
            expected_writes += (ITERS / 5) as u64;
        }
        handles.push(std::thread::spawn(move || {
            let mut last_epoch = 0u64;
            for i in 0..ITERS {
                let request = if writer && i % 5 == 4 {
                    // Unique 7-char Id per (thread, iteration): fits
                    // SUBMARINE.Id's char(7) domain, never collides.
                    Request::Quel(format!(
                        "append to SUBMARINE (Id = \"SSBT{t}{i:02}\", \
                         Name = \"Hammer {t}-{i}\", Class = \"0101\")"
                    ))
                } else {
                    match i % 3 {
                        0 => Request::Sql(STABLE.to_string()),
                        1 => Request::Sql(EXAMPLE1.to_string()),
                        _ => Request::Quel(
                            "range of c is CLASS\nretrieve (c.Class) where c.Type = \"SSBN\""
                                .to_string(),
                        ),
                    }
                };
                let is_stable_probe = matches!(&request, Request::Sql(s) if s == STABLE);
                match service.submit(request) {
                    Reply::Query(q) => {
                        // Epochs never run backwards within a thread.
                        assert!(
                            q.epoch >= last_epoch,
                            "epoch went backwards: {} after {last_epoch}",
                            q.epoch
                        );
                        last_epoch = q.epoch;
                        max_seen.fetch_max(q.epoch, Ordering::SeqCst);
                        if is_stable_probe {
                            // The oracle: writes touch only SUBMARINE,
                            // so this answer is invariant.
                            let rows = q.rows();
                            let mut classes: Vec<&str> =
                                rows.iter().map(|r| r[0].as_str()).collect();
                            classes.sort_unstable();
                            assert_eq!(classes, ["0101", "1301"], "incorrect answer under load");
                        }
                    }
                    Reply::Error { message } => panic!("request failed: {message}"),
                    Reply::Busy => panic!("shed with the default (large) queue capacity"),
                    Reply::Stats(_)
                    | Reply::Explain(_)
                    | Reply::Fault { .. }
                    | Reply::Check(_)
                    | Reply::Profile(_)
                    | Reply::Telemetry(_) => {
                        unreachable!()
                    }
                }
            }
            last_epoch
        }));
    }
    for h in handles {
        h.join().expect("no hammer thread may panic");
    }

    // No lock was poisoned: the service still answers, and the final
    // epoch is at least every epoch any thread observed.
    let stats = service.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.writes, expected_writes);
    assert!(stats.queries >= (THREADS * ITERS) as u64 - expected_writes);
    assert!(stats.epoch >= max_seen_epoch.load(Ordering::SeqCst));
    assert!(stats.cache_hits > 0, "repeated conditions must hit");
    let after = service.submit(Request::Sql(STABLE.to_string()));
    assert!(after.query().is_some(), "service healthy after the hammer");

    // All ten appended submarines landed (2 writer threads × 5 each).
    assert!(service.wait_rules_fresh(Duration::from_secs(10)));
    let count = service.submit(Request::Sql(
        "SELECT Id FROM SUBMARINE WHERE Name = \"Hammer\"".to_string(),
    ));
    assert!(count.query().is_some());
    let all = service.submit(Request::Sql("SELECT Id FROM SUBMARINE".to_string()));
    assert_eq!(
        all.query().unwrap().row_count(),
        24 + expected_writes as usize
    );
}

#[test]
fn cache_hit_is_bit_for_bit_identical_to_the_miss() {
    let service = open_service(2);
    let miss = service.submit(Request::Sql(EXAMPLE1.to_string()));
    let miss = miss.query().unwrap().clone();
    assert!(!miss.cached);
    assert!(!miss.intensional.is_empty(), "Example 1 derives SSBN");

    // Different select list, spacing, case, and conjunct order — the
    // same conditions, so the canonical fingerprint matches.
    let hit = service.submit(Request::Sql(
        "SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS \
         WHERE class.displacement > 8000 AND CLASS.CLASS = SUBMARINE.CLASS"
            .to_string(),
    ));
    let hit = hit.query().unwrap().clone();
    assert!(hit.cached, "same conditions and epoch must hit the cache");
    assert!(
        Arc::ptr_eq(&miss.intensional, &hit.intensional),
        "a hit returns the very object the miss computed"
    );
    assert_eq!(miss.intensional.render(), hit.intensional.render());
    assert_eq!(miss.epoch, hit.epoch);

    // The extensional parts are *not* shared: each query's own rows.
    assert_ne!(miss.columns(), hit.columns());
}

#[test]
fn writes_trigger_background_reinduction_without_blocking_readers() {
    let service = open_service(2);
    let before = service.submit(Request::Sql(EXAMPLE1.to_string()));
    let before = before.query().unwrap().clone();
    assert!(before.rules_fresh);
    assert_eq!(before.epoch, 0);

    let write = service.submit(Request::Quel(
        "append to SUBMARINE (Id = \"SSBT999\", Name = \"Epoch Probe\", Class = \"0101\")"
            .to_string(),
    ));
    let write = write.query().unwrap().clone();
    assert_eq!(write.epoch, 1, "the write installed a new epoch");
    assert_eq!(write.affected, Some(1));
    assert!(
        !write.rules_fresh,
        "rules are stale until background induction lands"
    );

    // Readers keep answering while (and after) induction runs; the
    // epoch advances again when the new rule set is swapped in.
    let during = service.submit(Request::Sql(STABLE.to_string()));
    assert!(during.query().is_some(), "reads never block on induction");
    assert!(
        service.wait_rules_fresh(Duration::from_secs(10)),
        "background induction must complete"
    );
    let stats = service.stats();
    assert!(stats.epoch >= 2, "induction bumps the epoch");
    assert!(stats.rules_fresh);
    assert!(stats.inductions >= 1);

    let after = service.submit(Request::Sql(EXAMPLE1.to_string()));
    let after = after.query().unwrap().clone();
    assert!(after.rules_fresh);
    assert!(
        after.intensional.subtypes().contains(&"SSBN"),
        "re-induced rules still derive the Example 1 characterization"
    );
    assert_eq!(
        after.row_count(),
        before.row_count() + 1,
        "the appended class-0101 submarine joins the answer"
    );
}

#[test]
fn read_only_quel_scratch_output_is_discarded() {
    let service = open_service(2);
    let reply = service.submit(Request::Quel(
        "range of s is SUBMARINE\nretrieve into T (s.Id)\nrange of t is T\nretrieve (t.Id)"
            .to_string(),
    ));
    let q = reply.query().unwrap().clone();
    assert_eq!(q.epoch, 0, "scratch writes do not make an epoch");
    assert_eq!(q.row_count(), 24);

    let stats = service.stats();
    assert_eq!(stats.writes, 0);
    assert_eq!(stats.epoch, 0);
    let t = service.submit(Request::Sql("SELECT Id FROM T".to_string()));
    assert!(
        t.error().is_some(),
        "the scratch relation never entered the shared snapshot"
    );
}

#[test]
fn failing_write_script_installs_nothing() {
    let service = open_service(2);
    let reply = service.submit(Request::Quel(
        "append to SUBMARINE (Id = \"SSBT998\", Name = \"Ghost\", Class = \"0101\")\n\
         append to NO_SUCH_RELATION (X = 1)"
            .to_string(),
    ));
    assert!(reply.error().is_some(), "the script must fail as a whole");

    let stats = service.stats();
    assert_eq!(stats.epoch, 0, "failed write installs no epoch");
    assert_eq!(stats.writes, 0);
    let sub = service.submit(Request::Sql("SELECT Id FROM SUBMARINE".to_string()));
    assert_eq!(
        sub.query().unwrap().row_count(),
        24,
        "the first statement's append was rolled back with the clone"
    );
}

#[test]
fn tcp_server_speaks_the_line_protocol() {
    let service = Arc::new(open_service(2));
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    let line = client.roundtrip(&format!("SQL {STABLE}")).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("query"));
    assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 2);
    assert_eq!(v.get("soundness").unwrap().as_str(), Some("mixed"));

    // One-line QUEL script with the \n escape.
    let line = client
        .roundtrip("QUEL range of c is CLASS\\nretrieve (c.Class) where c.Type = \"SSBN\"")
        .unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 4);

    // EXPLAIN returns provenance (rule ids, supports, directions) for
    // the same conditions, served from the answer cache.
    let line = client.roundtrip(&format!("EXPLAIN {STABLE}")).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(v.get("kind").unwrap().as_str(), Some("explain"));
    assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
    let prov = v.get("provenance").unwrap().as_array().unwrap();
    assert!(!prov.is_empty(), "Example 1 conditions fire rules");
    for u in prov {
        assert!(u.get("rule_id").unwrap().as_u64().is_some());
        assert!(u.get("support").unwrap().as_u64().is_some());
        let dir = u.get("direction").unwrap().as_str().unwrap();
        assert!(dir == "forward" || dir == "backward", "direction {dir:?}");
        assert!(!u.get("conclusion").unwrap().as_str().unwrap().is_empty());
    }

    let line = client.roundtrip("STATS").unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("kind").unwrap().as_str(), Some("stats"));
    assert!(v.get("queries").unwrap().as_u64().unwrap() >= 2);
    assert_eq!(v.get("cache_capacity").unwrap().as_u64(), Some(64));
    // The metrics snapshot rides along: per-stage histograms have
    // accumulated the requests this test already made.
    let metrics = v.get("metrics").expect("stats carries metrics");
    let hist = metrics.get("histograms").unwrap();
    for stage in [
        "parse",
        "inference",
        "induction",
        "scan",
        "request",
        "queue_wait",
    ] {
        assert!(hist.get(stage).is_some(), "missing histogram for {stage}");
    }
    assert!(
        hist.get("request")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 3,
        "request stage observed this connection's traffic"
    );
    assert!(
        metrics
            .get("counters")
            .unwrap()
            .get("serve.cache_hits")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );

    let line = client.roundtrip("FROB x").unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));

    // A second concurrent connection works while the first is open.
    let mut second = Client::connect(&addr).unwrap();
    let line = second.roundtrip(&format!("SQL {EXAMPLE1}")).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("cached").unwrap().as_bool(), Some(false));
    let intensional = v.get("intensional").unwrap().as_array().unwrap();
    assert!(!intensional.is_empty());
    second.quit();

    client.quit();
    server.shutdown();
}
