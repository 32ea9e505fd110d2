//! Chaos tests: the ship-database workload (the paper's Examples 1–3
//! territory) under randomized failpoint schedules.
//!
//! The contract under faults, in order of importance:
//!
//! 1. **Never a wrong answer.** A query either errors/sheds explicitly
//!    or returns correct extensional rows; a weakened intensional side
//!    is always flagged `degraded`.
//! 2. **Never a deadlock.** Every request gets *some* reply and the
//!    test completes.
//! 3. **Recovery.** Once faults stop, `rules_fresh` returns within the
//!    retry backoff cap and answers stop degrading.
//!
//! Failpoints are process-global, so every test serializes on one gate
//! and this file is its own test binary. The schedule is deterministic
//! for a given `INTENSIO_CHAOS_SEED` (default 42).

mod support;

use intensio_serve::json::Json;
use intensio_serve::{Reply, Request, Service, ServiceConfig};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// One test at a time owns the global failpoint registry.
fn fault_gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    intensio_fault::clear();
    guard
}

fn chaos_seed() -> u64 {
    support::chaos_seed(42)
}

fn open_service(tweak: impl FnOnce(&mut ServiceConfig)) -> Service {
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    let mut cfg = ServiceConfig {
        workers: 4,
        cache_capacity: 64,
        // Fast retries so recovery assertions run in test time.
        induction_backoff: Duration::from_millis(10),
        induction_backoff_cap: Duration::from_millis(200),
        ..ServiceConfig::default()
    };
    tweak(&mut cfg);
    Service::with_config(db, model, cfg).unwrap()
}

/// A query whose relations the chaos writes never touch: its rows are
/// an oracle that must hold in every non-error reply, faults or not.
const STABLE: &str = "SELECT Class FROM CLASS WHERE Displacement > 8000";

const JOIN: &str = "SELECT SUBMARINE.ID, CLASS.TYPE FROM SUBMARINE, CLASS \
                    WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000";

fn assert_stable_rows(rows: &[Vec<String>]) {
    let mut classes: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    classes.sort_unstable();
    assert_eq!(classes, ["0101", "1301"], "wrong answer under faults");
}

#[test]
fn randomized_faults_never_produce_wrong_answers_and_recovery_follows() {
    let _gate = fault_gate();
    intensio_fault::set_seed(chaos_seed());
    let service = Arc::new(open_service(|_| {}));

    // The randomized schedule: every layer can fail, none too often to
    // finish the workload.
    intensio_fault::configure_str(
        "storage.scan=1%error;\
         induction.run=20%error;\
         inference.engine=5%error;\
         serve.cache=5%error;\
         serve.install=2%error;\
         serve.worker=0.3%error",
    )
    .unwrap();

    const THREADS: usize = 8;
    const ITERS: usize = 40;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let service = service.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..ITERS {
                let request = if t < 2 && i % 10 == 9 {
                    Request::Quel(format!(
                        "append to SUBMARINE (Id = \"CH{t}{i:03}\", \
                         Name = \"Chaos Probe\", Class = \"0101\")"
                    ))
                } else if i % 13 == 7 {
                    Request::Stats
                } else if i % 5 == 3 {
                    Request::Sql(JOIN.to_string())
                } else {
                    Request::Sql(STABLE.to_string())
                };
                let is_stable = matches!(&request, Request::Sql(s) if s == STABLE);
                match service.submit(request) {
                    Reply::Query(q) => {
                        if is_stable {
                            // Degraded or not, the rows must be right.
                            assert_stable_rows(&q.rows());
                        }
                    }
                    // Explicit failure modes are the contract working.
                    Reply::Error { .. } | Reply::Busy => {}
                    Reply::Stats(_) => {}
                    Reply::Explain(_)
                    | Reply::Fault { .. }
                    | Reply::Check(_)
                    | Reply::Profile(_)
                    | Reply::Telemetry(_) => unreachable!(),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("chaos thread never panics");
    }

    // Faults stop; freshness must come back within the backoff cap.
    intensio_fault::clear();
    let reply = service.submit(Request::Quel(
        "append to SUBMARINE (Id = \"CHFIN01\", Name = \"Fin\", Class = \"1301\")".to_string(),
    ));
    assert!(
        reply.query().is_some(),
        "healthy write after faults clear, got {reply:?}"
    );
    assert!(
        service.wait_rules_fresh(Duration::from_secs(10)),
        "rules_fresh did not recover after faults stopped"
    );
    match service.submit(Request::Sql(STABLE.to_string())) {
        Reply::Query(q) => {
            assert_stable_rows(&q.rows());
            assert!(!q.degraded, "no reason to degrade once faults stop");
            assert!(q.rules_fresh);
        }
        other => panic!("healthy query failed: {other:?}"),
    }
}

#[test]
fn dead_workers_are_restarted_by_the_supervisor() {
    let _gate = fault_gate();
    let service = Arc::new(open_service(|_| {}));

    // The next two requests kill their worker outright.
    intensio_fault::configure("serve.worker", "error*2").unwrap();
    for _ in 0..2 {
        let reply = service.submit(Request::Sql(STABLE.to_string()));
        assert!(
            reply.error().is_some(),
            "a dropped request reports an error, got {reply:?}"
        );
    }

    // The supervisor notices and respawns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().worker_restarts < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        service.stats().worker_restarts >= 2,
        "supervisor never restarted the dead workers"
    );
    // CI greps `serve.worker_restarts` out of this snapshot line.
    println!(
        "chaos metrics snapshot: {}",
        service.stats().metrics.to_json()
    );

    // Full strength again: the pool still answers correctly.
    match service.submit(Request::Sql(STABLE.to_string())) {
        Reply::Query(q) => assert_stable_rows(&q.rows()),
        other => panic!("post-restart query failed: {other:?}"),
    }
}

#[test]
fn failed_induction_retries_with_backoff_until_fresh() {
    let _gate = fault_gate();
    let service = Arc::new(open_service(|_| {}));

    // The next 4 induction runs fail; the 5th (a backoff retry) succeeds.
    intensio_fault::configure("induction.run", "error*4").unwrap();
    let started = Instant::now();
    let reply = service.submit(Request::Quel(
        "append to SUBMARINE (Id = \"RETRY01\", Name = \"Retry\", Class = \"0101\")".to_string(),
    ));
    assert!(reply.query().is_some(), "the write itself succeeds");

    assert!(
        service.wait_rules_fresh(Duration::from_secs(10)),
        "induction never self-healed"
    );
    let stats = service.stats();
    assert!(
        stats.induction_retries >= 4,
        "expected 4 retries, saw {}",
        stats.induction_retries
    );
    assert!(stats.rules_fresh);
    // Each retry waited out its jittered delay, at least half of a base
    // (10 ms) that doubles per failure: 5 + 10 + 20 + 40 ms. A loop that
    // retried at once, or never grew its delay, is faster.
    let floor = Duration::from_millis(5 + 10 + 20 + 40);
    assert!(
        started.elapsed() >= floor,
        "four failed inductions took {:?}, under the backoff floor {floor:?}",
        started.elapsed()
    );
}

#[test]
fn a_failed_induction_leaves_no_half_updated_memo() {
    for spec in ["panic*1", "error*1"] {
        let _gate = fault_gate();
        let before = support::pair_counters();
        let service = open_service(|_| {});

        // The run fails while it assembles the pairs it recomputed,
        // after it took the memo: the retry must learn every pair from
        // scratch, and install what a from-scratch induction gives.
        intensio_fault::configure("induction.pair", spec).unwrap();
        let script = "append to SUBMARINE (Id = \"MEMO01\", Name = \"Memo\", Class = \"0101\")";
        let reply = service.submit(Request::Quel(script.to_string()));
        assert!(reply.query().is_some(), "the write itself succeeds");
        assert!(
            service.wait_rules_fresh(Duration::from_secs(10)),
            "{spec}: induction never self-healed"
        );
        assert!(service.stats().induction_retries >= 1, "{spec}");
        let after = support::pair_counters();

        let mut db = intensio_shipdb::ship_database().unwrap();
        intensio_quel::Session::new()
            .run_script(&mut db, script)
            .unwrap();
        let model = intensio_shipdb::ship_model().unwrap();
        let fresh = intensio_induction::Ils::new(&model, ServiceConfig::default().induction)
            .induce(&db)
            .unwrap();
        let delta: Vec<u64> = (0..3).map(|i| after[i] - before[i]).collect();
        // Boot learned every pair; the failed run recorded nothing; the
        // retry, with an empty memo, learned every pair again.
        let pairs = fresh.stats.pairs_examined as u64;
        assert_eq!(
            delta,
            [0, 0, 2 * pairs],
            "{spec}: reused, extended, rebuilt"
        );
        let mut want = fresh.rules;
        want.minimize();
        assert!(
            service.rules().identical(&want),
            "{spec}: installed rules differ"
        );
    }
}

#[test]
fn expired_deadline_degrades_but_rows_stay_correct() {
    let _gate = fault_gate();
    // A zero budget: every request is overdue on arrival.
    let service = open_service(|cfg| cfg.deadline = Some(Duration::ZERO));

    match service.submit(Request::Sql(STABLE.to_string())) {
        Reply::Query(q) => {
            assert!(q.degraded, "over-budget answer must be flagged");
            assert!(!q.cached, "nothing was cached yet");
            assert_stable_rows(&q.rows());
            assert!(
                q.intensional.is_empty(),
                "extensional-only degradation carries no characterization"
            );
        }
        other => panic!("expected degraded query reply, got {other:?}"),
    }
    assert!(service.stats().degraded_answers >= 1);
}

#[test]
fn failed_inference_falls_back_to_stale_cached_answer() {
    let _gate = fault_gate();
    let service = open_service(|_| {});

    // Prime the cache at the current epoch.
    let primed = match service.submit(Request::Sql(STABLE.to_string())) {
        Reply::Query(q) => q,
        other => panic!("priming query failed: {other:?}"),
    };
    assert!(!primed.degraded);

    // Break fresh inference, then move the epoch with a write.
    intensio_fault::configure("inference.engine", "error").unwrap();
    let reply = service.submit(Request::Quel(
        "append to SUBMARINE (Id = \"STALE01\", Name = \"Stale\", Class = \"0101\")".to_string(),
    ));
    assert!(reply.query().is_some());

    // The stale-epoch cached answer serves, flagged degraded; the rows
    // are computed fresh and stay correct.
    match service.submit(Request::Sql(STABLE.to_string())) {
        Reply::Query(q) => {
            assert!(q.degraded, "stale fallback must be flagged");
            assert!(q.cached, "the fallback came from the cache");
            assert_stable_rows(&q.rows());
            assert_eq!(
                q.intensional.render(),
                primed.intensional.render(),
                "stale answer is the primed characterization"
            );
        }
        other => panic!("expected degraded stale reply, got {other:?}"),
    }
    assert!(service.stats().degraded_answers >= 1);
}

#[test]
fn rejected_rule_sets_show_up_in_the_metrics_snapshot() {
    let _gate = fault_gate();
    // The conflict fixture's induced rules clash (IC020); the install
    // gate rejects them at open without taking the service down.
    let db = intensio_shipdb::conflict_database().unwrap();
    let model = intensio_shipdb::conflict_model().unwrap();
    let service = Service::with_config(db, model, ServiceConfig::default()).unwrap();

    let stats = service.stats();
    assert_eq!(stats.rulesets_rejected, 1);
    assert!(!stats.rules_fresh);
    // CI greps `serve.rulesets_rejected` out of this snapshot line.
    println!("chaos metrics snapshot: {}", stats.metrics.to_json());

    match service.submit(Request::Sql("SELECT Gid FROM G".to_string())) {
        Reply::Query(q) => assert_eq!(q.row_count(), 2),
        other => panic!("extensional query failed: {other:?}"),
    }
}

#[test]
fn queue_overflow_sheds_with_busy() {
    let _gate = fault_gate();
    let service = Arc::new(open_service(|cfg| {
        cfg.workers = 2;
        cfg.queue_capacity = 2;
    }));

    // Slow every inference so the tiny queue backs up.
    intensio_fault::configure("inference.infer", "delay:50").unwrap();

    const THREADS: usize = 16;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_busy = false;
    while !saw_busy && Instant::now() < deadline {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let service = service.clone();
            handles.push(std::thread::spawn(move || {
                let mut busy = 0u64;
                for i in 0..4 {
                    // Unique conditions defeat the cache: every request
                    // pays the injected delay.
                    let sql = format!(
                        "SELECT Class FROM CLASS WHERE Displacement > {}",
                        t * 64 + i
                    );
                    match service.submit(Request::Sql(sql)) {
                        Reply::Busy => busy += 1,
                        Reply::Query(_) | Reply::Error { .. } => {}
                        other => panic!("unexpected reply: {other:?}"),
                    }
                }
                busy
            }));
        }
        let busy: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        saw_busy = busy > 0;
    }
    assert!(saw_busy, "an overloaded bounded queue never shed");
    assert!(service.stats().requests_shed > 0);
    // CI greps `serve.requests_shed` out of this snapshot line.
    println!(
        "chaos metrics snapshot: {}",
        service.stats().metrics.to_json()
    );

    // Shedding is not sticking: once the burst passes, requests flow.
    intensio_fault::clear();
    match service.submit(Request::Sql(STABLE.to_string())) {
        Reply::Query(q) => assert_stable_rows(&q.rows()),
        other => panic!("post-shed query failed: {other:?}"),
    }
}

#[test]
fn flight_recorder_dumps_on_request_panic_and_shutdown() {
    let _gate = fault_gate();
    // A durable service arms the flight recorder at its data dir.
    let dir = std::env::temp_dir().join(format!("intensio-flightrec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let service = open_service(|cfg| {
        cfg.data_dir = Some(dir.clone());
        cfg.wal.fsync = intensio_wal::FsyncPolicy::Off;
    });

    // A panic mid-install: the worker's catch_unwind turns it into an
    // error reply AND dumps the span ring for the post-mortem.
    intensio_fault::configure_str("serve.install=panic*1").unwrap();
    let reply = service.submit(Request::Quel(
        "append to SUBMARINE (Id = \"FR00001\", Name = \"Doomed\", Class = \"0101\")".to_string(),
    ));
    assert!(
        reply.error().is_some(),
        "panicked request must error, got {reply:?}"
    );
    intensio_fault::clear();

    let dumps = |reason: &str| -> Vec<std::path::PathBuf> {
        std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&format!("flightrec-{reason}-")))
            })
            .collect()
    };
    let panic_dumps = dumps("request_panic");
    assert_eq!(panic_dumps.len(), 1, "one dump per panic onset");
    let body = std::fs::read_to_string(&panic_dumps[0]).unwrap();
    let v = intensio_serve::json::parse(&body).expect("dump is valid JSON");
    assert_eq!(
        v.get("reason").and_then(intensio_serve::json::Json::as_str),
        Some("request_panic")
    );
    assert!(
        !v.get("spans")
            .and_then(intensio_serve::json::Json::as_array)
            .expect("dump carries the span ring")
            .is_empty(),
        "span ring in the dump is not empty"
    );
    assert!(
        v.get("metrics").is_some(),
        "dump carries a metrics snapshot"
    );

    // Shutdown (the SIGTERM stand-in under forbid(unsafe_code): the
    // service's Drop) leaves a second dump behind.
    drop(service);
    assert_eq!(dumps("shutdown").len(), 1, "shutdown leaves a dump");
    // CI greps this line, then checks the files exist on disk.
    println!(
        "flight-recorder dumps: {} at {}",
        dumps("request_panic").len() + dumps("shutdown").len(),
        dir.display()
    );
}

#[test]
fn promotion_dumps_a_flight_record() {
    let _gate = fault_gate();
    let pdir = std::env::temp_dir().join(format!("intensio-fr-promo-p-{}", std::process::id()));
    let cdir = std::env::temp_dir().join(format!("intensio-fr-promo-c-{}", std::process::id()));
    for dir in [&pdir, &cdir] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
    }
    let primary = Arc::new(open_service(|cfg| {
        cfg.data_dir = Some(pdir.clone());
        cfg.wal.fsync = intensio_wal::FsyncPolicy::Off;
    }));
    let pserver = intensio_serve::Server::bind(primary.clone(), "127.0.0.1:0").unwrap();
    let paddr = pserver.local_addr().to_string();
    let candidate = open_service(|cfg| {
        cfg.data_dir = Some(cdir.clone());
        cfg.wal.fsync = intensio_wal::FsyncPolicy::Off;
        cfg.replicate_from = Some(paddr);
        cfg.candidate = true;
        cfg.failover_timeout = Duration::from_millis(200);
        cfg.failover_seed = 7;
        cfg.repl_heartbeat = Duration::from_millis(40);
    });

    // Silence the heartbeat stream: the candidate's deadline elapses
    // and the promotion path — which dumps the span ring — fires.
    pserver.shutdown();
    drop(primary);
    let deadline = Instant::now() + Duration::from_secs(20);
    while candidate.stats().role != "primary" {
        assert!(Instant::now() < deadline, "candidate never promoted");
        std::thread::sleep(Duration::from_millis(10));
    }

    let dump = std::fs::read_dir(&cdir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flightrec-promotion-"))
        })
        .expect("promotion left no flight-recorder dump");
    let body = std::fs::read_to_string(&dump).unwrap();
    let v = intensio_serve::json::parse(&body).expect("dump is valid JSON");
    assert_eq!(
        v.get("reason").and_then(intensio_serve::json::Json::as_str),
        Some("promotion")
    );
    // CI greps this line, then checks the file exists on disk.
    println!("promotion flight record: {}", dump.display());
    drop(candidate);
    let _ = std::fs::remove_dir_all(&pdir);
}

/// `INTENSIO_CHAOS_SEED` seeds the serve binary's failpoint `P%`
/// triggers, not only its link faults: a child armed with
/// `serve.worker=50%error` drops exactly the requests the same seed
/// drops in-process.
#[test]
fn chaos_seed_env_seeds_failpoint_triggers_in_serve() {
    const REQUESTS: usize = 24;
    let expected = |seed: u64| -> Vec<bool> {
        let _gate = fault_gate();
        intensio_fault::set_seed(seed);
        intensio_fault::configure("seed.probe", "50%error").unwrap();
        let drops = (0..REQUESTS)
            .map(|_| intensio_fault::fire("seed.probe").is_err())
            .collect();
        intensio_fault::clear();
        drops
    };
    let observed = |seed: u64| -> Vec<bool> {
        let dir = support::temp_dir("chaos-seed");
        let seed = seed.to_string();
        let child = support::ServeChild::spawn_env(
            &dir,
            &["--no-learn"],
            &[
                ("INTENSIO_CHAOS_SEED", seed.as_str()),
                ("INTENSIO_FAILPOINTS", "serve.worker=50%error"),
            ],
        );
        let mut conn = child.connect();
        let drops = (0..REQUESTS)
            .map(|_| {
                let v = conn.json(&format!("SQL {STABLE}"));
                v.get("ok").and_then(Json::as_bool) == Some(false)
            })
            .collect();
        child.kill();
        let _ = std::fs::remove_dir_all(&dir);
        drops
    };
    assert_ne!(expected(7), expected(1234), "seeds must differ");
    for seed in [7, 1234] {
        assert_eq!(observed(seed), expected(seed), "serve ignored seed {seed}");
    }
}
