//! Load generator for `intensio-serve`: a multi-threaded mixed
//! workload over the TCP wire protocol, with an answer oracle.
//!
//! ```text
//! serve_load [--threads N] [--queries N] [--workers N] [--obs on|off]
//!            [--durable] [--data-dir PATH] [--fsync always|batch:N|off]
//!            [--topology 1p2f|failover|partition] [--rounds N]
//!            [--failover-timeout-ms MS]
//! ```
//!
//! `--topology 1p2f` switches to the replication workload: one durable
//! primary and two in-process followers, with reader threads
//! round-robining across all three nodes while a writer streams
//! durable appends into the primary. Every few reads a thread issues a
//! `SQL@<acked epoch>` read-your-writes probe for the most recently
//! acked row (following a `REDIRECT` to the primary if the follower
//! can't serve that epoch in time). Mid-run one follower is killed and
//! a fresh one bootstraps in its place; at quiesce the run fails
//! unless every node converged to the primary's exact epoch, every
//! acked write is readable on every node, the primary shipped records
//! (`repl.records_shipped > 0`), and every lag gauge reads zero. This
//! is how `BENCH_repl.json` measures scale-out read throughput.
//!
//! `--topology failover` runs `--rounds` seeded kill/promote rounds: a
//! durable primary, a durable `--candidate` tailing it, and a
//! memory-only follower. Mid-write-burst the primary is killed; the
//! candidate promotes on heartbeat loss (bumping the term and fsyncing
//! a `TERM` fencepost), the writer retries idempotently against the
//! rotation, and the deposed primary is restarted so the `STALE_TERM`
//! fence demotes it and a snapshot bootstrap retracts any unshipped
//! suffix. Each round ends with an exact-set audit (every acked write
//! present on all three nodes, none applied twice); the run prints
//! time-to-promotion and write-unavailability percentiles, which is
//! how `BENCH_failover.json` is measured.
//!
//! `--topology partition` keeps every process alive and injects link
//! faults instead (`net.*` specs in `intensio_fault`): a symmetric
//! split, a one-way (half-open) link, flapping links, and pure
//! heartbeat delay. All three in-process nodes share this process's
//! fault registry, so one
//! `net.*` spec governs both ends of a link — the same physics a real
//! partition has. Per scenario the run measures time-to-promotion,
//! write unavailability, minority stale-read availability, and
//! time-to-heal after the fault clears, then audits the exact acked
//! set (and, for the one-way split, that minority-acked writes were
//! retracted on rejoin). This is how `BENCH_partition.json` is
//! measured.
//!
//! `--durable` opens the service with a write-ahead log (in a
//! throwaway temp directory unless `--data-dir` is given) and adds a
//! **write phase**: each client thread appends a batch of unique
//! submarines before querying, with write latencies tracked
//! separately. The run ends with the WAL counters (appends, bytes,
//! fsyncs, checkpoints), which is how `BENCH_wal.json` quantifies the
//! durability overhead per `--fsync` policy.
//!
//! `--obs off` disables all observability recording (spans, metrics,
//! the ring buffer) before the run — comparing a `--obs on` run
//! against `--obs off` on the same parameters measures the
//! instrumentation overhead. With observability on, the run ends with
//! a per-stage latency summary read from the service's histograms.
//!
//! The run has two phases per client thread:
//!
//! 1. **Unique phase** — every query has a distinct condition
//!    (`Displacement > n` for a per-request `n`), so the intensional
//!    cache cannot help; each answer is checked against an oracle
//!    computed from the Appendix C class table.
//! 2. **Repeated phase** — threads cycle through a small fixed query
//!    set, so the cache must start hitting. Between the phases one
//!    thread appends a submarine (a QUEL write), which bumps the epoch
//!    and triggers background re-induction; readers keep answering
//!    throughout, and the run verifies the epoch advanced again (the
//!    rule install) while queries were in flight.
//!
//! Exit status is non-zero if any answer was wrong, any request
//! errored, the repeated phase got no cache hits, or the epoch failed
//! to advance.

use intensio_serve::json::{self, Json};
use intensio_serve::{Client, Server, Service, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// One durable primary, two followers, mid-run follower kill.
    OnePrimaryTwoFollowers,
    /// Term-fenced failover rounds: kill the primary, promote the
    /// candidate, fence and rejoin the deposed primary, audit.
    Failover,
    /// Injected link-fault rounds: no process dies, the network does.
    /// Measures availability during the partition, time-to-promotion,
    /// and time-to-heal per scenario; feeds `BENCH_partition.json`.
    Partition,
}

struct Args {
    threads: usize,
    queries: usize,
    workers: usize,
    obs: bool,
    durable: bool,
    data_dir: Option<std::path::PathBuf>,
    fsync: intensio_wal::FsyncPolicy,
    topology: Option<Topology>,
    rounds: usize,
    failover_timeout_ms: u64,
    trace_dir: Option<std::path::PathBuf>,
    trace_sample: f64,
    profile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_load [--threads N] [--queries N] [--workers N] [--obs on|off]\n\
         \x20                 [--durable] [--data-dir PATH] [--fsync always|batch:N|off]\n\
         \x20                 [--topology 1p2f|failover|partition] [--rounds N]\n\
         \x20                 [--failover-timeout-ms MS] [--trace-dir PATH]\n\
         \x20                 [--trace-sample RATE] [--profile]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 4,
        queries: 1000,
        workers: 4,
        obs: true,
        durable: false,
        data_dir: None,
        fsync: intensio_wal::FsyncPolicy::Always,
        topology: None,
        rounds: 3,
        failover_timeout_ms: 800,
        trace_dir: None,
        trace_sample: 1.0,
        profile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |field: &mut usize| {
            *field = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| usage());
        };
        match a.as_str() {
            "--threads" => num(&mut args.threads),
            "--queries" => num(&mut args.queries),
            "--workers" => num(&mut args.workers),
            "--obs" => {
                args.obs = match it.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => usage(),
                };
            }
            "--durable" => args.durable = true,
            "--data-dir" => {
                args.durable = true;
                args.data_dir = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ));
            }
            "--fsync" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.fsync = intensio_wal::FsyncPolicy::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("serve_load: {e}");
                    usage()
                });
            }
            "--topology" => match it.next().as_deref() {
                Some("1p2f") => args.topology = Some(Topology::OnePrimaryTwoFollowers),
                Some("failover") => args.topology = Some(Topology::Failover),
                Some("partition") => args.topology = Some(Topology::Partition),
                other => {
                    eprintln!(
                        "serve_load: unsupported topology {other:?} (1p2f, failover, or partition)"
                    );
                    usage()
                }
            },
            "--rounds" => num(&mut args.rounds),
            "--failover-timeout-ms" => {
                args.failover_timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--trace-dir" => {
                args.trace_dir = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| usage()),
                ));
            }
            "--trace-sample" => {
                args.trace_sample = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s| (0.0..=1.0).contains(s))
                    .unwrap_or_else(|| usage());
            }
            "--profile" => args.profile = true,
            _ => usage(),
        }
    }
    if args.threads > 99 {
        eprintln!("serve_load: --threads must be <= 99 (write ids are char(7))");
        std::process::exit(2);
    }
    args
}

/// Connect to one of `targets`, rotating from `start` and retrying
/// briefly: under load (or CI) the accept backlog can transiently
/// refuse a burst of simultaneous connects, and in a replicated
/// topology a node may be mid-restart — neither is worth failing a
/// whole run over when a sibling target can serve. Returns the client
/// and the index of the target that accepted.
fn connect_with_retry(targets: &[String], start: usize) -> std::io::Result<(Client, usize)> {
    assert!(!targets.is_empty(), "no targets to connect to");
    let mut last_err = None;
    for round in 0..5 {
        for offset in 0..targets.len() {
            let idx = (start + offset) % targets.len();
            match Client::connect(&targets[idx]) {
                Ok(c) => return Ok((c, idx)),
                Err(e) => last_err = Some(e),
            }
        }
        if round + 1 < 5 {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// Oracle: the classes with displacement strictly above `n`, sorted.
fn expected_classes(n: i64) -> Vec<String> {
    let mut v: Vec<String> = intensio_shipdb::data::CLASSES
        .iter()
        .filter(|(_, _, _, d)| *d > n)
        .map(|(c, _, _, _)| c.to_string())
        .collect();
    v.sort();
    v
}

fn response_classes(v: &Json) -> Vec<String> {
    let mut out: Vec<String> = v
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| row.as_array()?.first()?.as_str().map(str::to_string))
        .collect();
    out.sort();
    out
}

#[derive(Default)]
struct ThreadOutcome {
    latencies_us: Vec<u64>,
    write_latencies_us: Vec<u64>,
    wrong: u64,
    errors: u64,
    repeated_hits: u64,
    max_epoch: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Build a follower service replicating from `primary`, bound on an
/// ephemeral port. Followers here are memory-only: the topology run
/// exercises wire bootstrap, not follower-local durability (the
/// replication tests cover that).
fn spawn_follower(workers: usize, primary: &str) -> (Arc<Service>, Server) {
    let db = intensio_shipdb::ship_database().expect("ship database");
    let model = intensio_shipdb::ship_model().expect("ship model");
    let cfg = ServiceConfig {
        workers,
        replicate_from: Some(primary.to_string()),
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::with_config(db, model, cfg).expect("follower opens"));
    let server = Server::bind(service.clone(), "127.0.0.1:0").expect("follower binds");
    (service, server)
}

/// The `--topology 1p2f` workload: durable writes into the primary,
/// reads fanned across the cluster, one follower killed and replaced
/// mid-run, and a zero-loss / zero-lag audit at quiesce.
fn topology_main(args: &Args) {
    use std::sync::RwLock;

    let scratch = std::env::temp_dir().join(format!("intensio-serve-1p2f-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let db = intensio_shipdb::ship_database().expect("ship database");
    let model = intensio_shipdb::ship_model().expect("ship model");
    let pcfg = ServiceConfig {
        workers: args.workers,
        data_dir: Some(args.data_dir.clone().unwrap_or_else(|| scratch.clone())),
        wal: intensio_wal::WalConfig {
            fsync: args.fsync,
            ..intensio_wal::WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    let primary = Arc::new(Service::with_config(db, model, pcfg).expect("primary opens"));
    let pserver = Server::bind(primary.clone(), "127.0.0.1:0").expect("primary binds");
    let paddr = pserver.local_addr().to_string();
    let (f1, f1_server) = spawn_follower(args.workers, &paddr);
    let (f2, f2_server) = spawn_follower(args.workers, &paddr);
    // Reads fan over every node; index 0 is always the primary so a
    // REDIRECT reply has a known place to go.
    let targets = Arc::new(RwLock::new(vec![
        paddr.clone(),
        f1_server.local_addr().to_string(),
        f2_server.local_addr().to_string(),
    ]));
    println!(
        "serve_load 1p2f: primary {paddr} (fsync {}), followers {} + {}; {} reader threads x {} reads",
        args.fsync,
        f1_server.local_addr(),
        f2_server.local_addr(),
        args.threads,
        args.queries / args.threads,
    );

    let total_writes = (args.queries / 10).clamp(30, 2000);
    // The most recent acked write, for read-your-writes probes:
    // (epoch, sequence of the id "TP{seq:04}").
    let acked_epoch = Arc::new(AtomicU64::new(0));
    let acked_seq = Arc::new(AtomicU64::new(u64::MAX));
    let writer = {
        let paddr = paddr.clone();
        let acked_epoch = acked_epoch.clone();
        let acked_seq = acked_seq.clone();
        std::thread::spawn(move || -> (Vec<String>, u64) {
            let (mut client, _) =
                connect_with_retry(std::slice::from_ref(&paddr), 0).expect("writer connects");
            let mut acked = Vec::new();
            let mut errors = 0u64;
            for i in 0..total_writes {
                let id = format!("TP{i:04}");
                let line = client
                    .roundtrip(&format!(
                        "QUEL append to SUBMARINE (Id = \"{id}\", \
                         Name = \"Topo Probe\", Class = \"0101\")"
                    ))
                    .expect("write roundtrip");
                let v = json::parse(&line).expect("write reply parses");
                match (
                    v.get("ok").and_then(Json::as_bool),
                    v.get("epoch").and_then(Json::as_u64),
                ) {
                    (Some(true), Some(epoch)) => {
                        acked.push(id);
                        acked_epoch.store(epoch, Ordering::SeqCst);
                        acked_seq.store(i as u64, Ordering::SeqCst);
                    }
                    _ => errors += 1,
                }
            }
            client.quit();
            (acked, errors)
        })
    };

    let reads_per_thread = (args.queries / args.threads).max(10);
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..args.threads {
        let targets = targets.clone();
        let acked_epoch = acked_epoch.clone();
        let acked_seq = acked_seq.clone();
        handles.push(std::thread::spawn(move || {
            let snapshot = |targets: &Arc<RwLock<Vec<String>>>| -> Vec<String> {
                targets.read().unwrap_or_else(|e| e.into_inner()).clone()
            };
            let (mut client, mut node) =
                connect_with_retry(&snapshot(&targets), t).expect("reader connects");
            let mut out = ThreadOutcome::default();
            let mut ryw_checked = 0u64;
            let mut redirects = 0u64;
            let mut i = 0usize;
            while i < reads_per_thread {
                // Every 4th read is a read-your-writes probe at the
                // writer's latest acked epoch; the rest are the plain
                // oracle-checked query mix.
                let probe = i % 4 == 3 && acked_seq.load(Ordering::SeqCst) != u64::MAX;
                let (request, oracle, want_id) = if probe {
                    let epoch = acked_epoch.load(Ordering::SeqCst);
                    let seq = acked_seq.load(Ordering::SeqCst);
                    (
                        format!("SQL@{epoch} SELECT Id FROM SUBMARINE WHERE Id = \"TP{seq:04}\""),
                        None,
                        Some(()),
                    )
                } else {
                    let n = 1000 + ((t * reads_per_thread + i) % 20_000) as i64;
                    (
                        format!("SQL SELECT Class FROM CLASS WHERE Displacement > {n}"),
                        Some(expected_classes(n)),
                        None,
                    )
                };
                let sent = Instant::now();
                let line = match client.roundtrip(&request) {
                    Ok(l) => l,
                    Err(_) => {
                        // The node died under us (the mid-run kill):
                        // rotate to the next live target and retry the
                        // same read — node loss must not lose reads.
                        let (c, n) = connect_with_retry(&snapshot(&targets), node + 1)
                            .expect("reader reconnects");
                        client = c;
                        node = n;
                        continue;
                    }
                };
                out.latencies_us
                    .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let v = match json::parse(&line) {
                    Ok(v) => v,
                    Err(_) => {
                        out.errors += 1;
                        i += 1;
                        continue;
                    }
                };
                let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
                if !ok {
                    let msg = v.get("error").and_then(Json::as_str).unwrap_or("");
                    if probe && msg.starts_with("REDIRECT") {
                        // The follower couldn't reach the epoch in its
                        // deadline; the contract says the primary can.
                        redirects += 1;
                        let ryw = {
                            let t = snapshot(&targets);
                            let (mut pc, _) =
                                connect_with_retry(&t[..1], 0).expect("redirect connect");
                            let line = pc.roundtrip(&request).expect("redirected read");
                            json::parse(&line).expect("redirected reply parses")
                        };
                        if ryw.get("ok").and_then(Json::as_bool) == Some(true)
                            && ryw.get("rows").and_then(Json::as_array).map(<[Json]>::len)
                                == Some(1)
                        {
                            ryw_checked += 1;
                        } else {
                            out.wrong += 1;
                        }
                    } else {
                        out.errors += 1;
                    }
                    i += 1;
                    continue;
                }
                if let Some(epoch) = v.get("epoch").and_then(Json::as_u64) {
                    out.max_epoch = out.max_epoch.max(epoch);
                }
                if want_id.is_some() {
                    // An ok reply at min_epoch MUST contain the acked row.
                    if v.get("rows").and_then(Json::as_array).map(<[Json]>::len) == Some(1) {
                        ryw_checked += 1;
                    } else {
                        out.wrong += 1;
                    }
                } else if let Some(want) = oracle {
                    if response_classes(&v) != want {
                        out.wrong += 1;
                    }
                }
                i += 1;
            }
            client.quit();
            // Reuse repeated_hits to carry the read-your-writes count
            // and write_latencies to carry redirects (both are unused
            // by the topology reader otherwise).
            out.repeated_hits = ryw_checked;
            out.write_latencies_us = vec![redirects];
            out
        }));
    }

    // Mid-run chaos: once the writer is half done, kill follower #2 and
    // bootstrap a replacement. Acked writes must survive on every node.
    let half = (total_writes / 2) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked_seq.load(Ordering::SeqCst) == u64::MAX
        || acked_seq.load(Ordering::SeqCst) < half.saturating_sub(1)
    {
        assert!(Instant::now() < deadline, "writer stalled before the kill");
        std::thread::sleep(Duration::from_millis(5));
    }
    f2_server.shutdown();
    drop(f2);
    let (f2, f2_server) = spawn_follower(args.workers, &paddr);
    {
        let mut t = targets.write().unwrap_or_else(|e| e.into_inner());
        t[2] = f2_server.local_addr().to_string();
    }
    println!(
        "killed follower #2 mid-run; replacement bootstrapping at {}",
        f2_server.local_addr()
    );

    let mut all = ThreadOutcome::default();
    let mut ryw_checked = 0u64;
    let mut redirects = 0u64;
    for h in handles {
        let out = h.join().expect("reader thread panicked");
        all.latencies_us.extend(out.latencies_us);
        all.wrong += out.wrong;
        all.errors += out.errors;
        ryw_checked += out.repeated_hits;
        redirects += out.write_latencies_us.first().copied().unwrap_or(0);
        all.max_epoch = all.max_epoch.max(out.max_epoch);
    }
    let elapsed = started.elapsed();
    let (acked_ids, write_errors) = writer.join().expect("writer thread panicked");

    // Quiesce: primary induction settles, then both followers must hit
    // the primary's exact epoch with zero lag.
    let fresh = primary.wait_rules_fresh(Duration::from_secs(10));
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut lag1, mut lag2);
    loop {
        let pe = primary.stats().epoch;
        let s1 = f1.stats();
        let s2 = f2.stats();
        lag1 = s1.repl.as_ref().map_or(u64::MAX, |r| r.lag_epochs);
        lag2 = s2.repl.as_ref().map_or(u64::MAX, |r| r.lag_epochs);
        if lag1 == 0 && lag2 == 0 && s1.epoch == pe && s2.epoch == pe {
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Zero lost acked writes: every acked id readable on every node.
    let mut lost = 0u64;
    let target_list = targets.read().unwrap_or_else(|e| e.into_inner()).clone();
    for addr in &target_list {
        let (mut c, _) = connect_with_retry(std::slice::from_ref(addr), 0).expect("audit connects");
        let line = c
            .roundtrip("SQL SELECT Id FROM SUBMARINE")
            .expect("audit read");
        let v = json::parse(&line).expect("audit reply parses");
        let present: std::collections::BTreeSet<String> = v
            .get("rows")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|row| {
                row.as_array()?
                    .first()?
                    .as_str()
                    .map(|s| s.trim().to_string())
            })
            .collect();
        for id in &acked_ids {
            if !present.contains(id) {
                eprintln!("LOST: acked write {id} missing on {addr}");
                lost += 1;
            }
        }
        // Raw quiesce-time STATS, so CI can grep the replication
        // counters (repl.records_shipped, repl.lag_epochs) per node.
        let line = c.roundtrip("STATS").expect("audit stats");
        println!("stats[{addr}]: {}", line.trim_end());
        c.quit();
    }

    // A traced redirect probe: one trace id must span the follower's
    // admission (the REDIRECT) and the primary's execution — the
    // context survives both wire hops. All three nodes live in this
    // process, so one sink file carries both legs.
    let mut trace_ok = true;
    if let Some(trace_dir) = &args.trace_dir {
        let trace = format!("{:016x}", intensio_obs::trace::mint_id());
        let (mut fc, _) = connect_with_retry(&target_list[1..2], 0).expect("trace probe connects");
        let line = fc
            .roundtrip(&format!(
                "#trace {trace}/0000000000000000 SQL@{} SELECT Id FROM SUBMARINE",
                all.max_epoch + 1_000_000
            ))
            .expect("trace probe roundtrip");
        fc.quit();
        let v = json::parse(&line).expect("trace probe reply parses");
        let redirected = v
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.starts_with("REDIRECT"));
        // The client-side stitch: re-issue against the primary under
        // the same trace id, exactly as a redirected caller would.
        let (mut pc, _) = connect_with_retry(&target_list[..1], 0).expect("trace probe primary");
        let _ = pc.roundtrip(&format!(
            "#trace {trace}/0000000000000000 SQL SELECT Id FROM SUBMARINE"
        ));
        pc.quit();
        let has_leg = |needle: &str| -> bool {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                intensio_obs::flush_trace_sink();
                let found = std::fs::read_dir(trace_dir).ok().is_some_and(|rd| {
                    rd.flatten().any(|entry| {
                        std::fs::read_to_string(entry.path()).is_ok_and(|content| {
                            content
                                .lines()
                                .any(|l| l.contains(&trace) && l.contains(needle))
                        })
                    })
                });
                if found || Instant::now() >= deadline {
                    return found;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        };
        let follower_leg = has_leg("serve.admission");
        let primary_leg = has_leg("serve.request");
        trace_ok = redirected && follower_leg && primary_leg;
        if trace_ok {
            println!(
                "trace-propagation: OK trace {trace} spans follower admission \
                 and primary execution"
            );
        } else {
            eprintln!(
                "trace-propagation: FAIL trace {trace} (redirected {redirected}, \
                 follower leg {follower_leg}, primary leg {primary_leg})"
            );
        }
    }

    let pstats = primary.stats();
    let shipped = pstats
        .metrics
        .counters
        .get("repl.records_shipped")
        .copied()
        .unwrap_or(0);
    all.latencies_us.sort_unstable();
    let total = all.latencies_us.len() as u64;
    let qps = total as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "completed {total} reads in {:.2}s ({qps:.0} q/s aggregate across 3 nodes)",
        elapsed.as_secs_f64()
    );
    println!(
        "read latency p50 {} us, p95 {} us, p99 {} us",
        percentile(&all.latencies_us, 0.50),
        percentile(&all.latencies_us, 0.95),
        percentile(&all.latencies_us, 0.99)
    );
    println!(
        "writes: {} acked ({} errors); read-your-writes: {} verified, {} redirected",
        acked_ids.len(),
        write_errors,
        ryw_checked,
        redirects
    );
    println!(
        "replication: {} records shipped, follower lags at quiesce {} / {}, epoch {}",
        shipped, lag1, lag2, pstats.epoch
    );

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    check(all.wrong == 0, "every answer must match its oracle");
    check(all.errors == 0, "no read may error");
    check(write_errors == 0, "no write may error");
    check(
        lost == 0,
        "zero lost acked writes after follower kill/rejoin",
    );
    check(fresh, "primary induction must settle");
    check(shipped > 0, "the primary must ship records");
    check(
        lag1 == 0 && lag2 == 0,
        "both followers must reach lag 0 at quiesce",
    );
    check(
        ryw_checked > 0,
        "read-your-writes probes must verify at least once",
    );
    check(
        trace_ok,
        "the traced redirect probe must span both wire hops",
    );

    f1_server.shutdown();
    f2_server.shutdown();
    pserver.shutdown();
    drop((f1, f2));
    if args.data_dir.is_none() {
        match Arc::try_unwrap(primary) {
            Ok(s) => drop(s),
            Err(arc) => drop(arc),
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

/// What one kill/promote/rejoin round measured and verified.
struct FailoverRound {
    /// Kill of the primary to the candidate's `role == "primary"`.
    promotion: Duration,
    /// Kill of the primary to the first successfully acked write.
    unavailable: Duration,
    acked: Vec<String>,
    lost: u64,
    duplicates: u64,
    stale_fenced: bool,
    deposed_rejoined: bool,
}

/// Write `id` into whichever target currently accepts writes, retrying
/// across the rotation until one acks. Idempotent under lost acks: a
/// presence probe runs before every (re-)issue, so an append whose ack
/// died on the wire is never applied twice in the surviving lineage.
fn write_failover(targets: &[String], id: &str) -> Result<Instant, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let probe = format!("SQL SELECT Id FROM SUBMARINE WHERE Id = \"{id}\"");
    let append = format!(
        "QUEL append to SUBMARINE (Id = \"{id}\", \
         Name = \"Failover Probe\", Class = \"0101\")"
    );
    loop {
        for addr in targets {
            let Ok(mut c) = Client::connect(addr) else {
                continue;
            };
            if let Ok(line) = c.roundtrip(&probe) {
                if let Ok(v) = json::parse(&line) {
                    if v.get("ok").and_then(Json::as_bool) == Some(true)
                        && v.get("rows").and_then(Json::as_array).map(<[Json]>::len) == Some(1)
                    {
                        return Ok(Instant::now()); // a lost ack: already applied
                    }
                }
            }
            if let Ok(line) = c.roundtrip(&append) {
                if let Ok(v) = json::parse(&line) {
                    if v.get("ok").and_then(Json::as_bool) == Some(true) {
                        return Ok(Instant::now());
                    }
                    // READONLY / candidate refusal: try the next target.
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("no target acked write {id} within 30s"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Tear a service down, waiting out any straggler connection handlers
/// still holding an `Arc` clone, so its WAL directory can be reopened.
fn drop_service(mut svc: Arc<Service>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Arc::try_unwrap(svc) {
            Ok(s) => return drop(s),
            Err(arc) => {
                if Instant::now() >= deadline {
                    return drop(arc); // leak rather than hang the run
                }
                svc = arc;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One `--topology failover` round: durable primary, durable candidate,
/// and memory-only follower; kill the primary mid-burst, measure the
/// candidate's term-bumped promotion and the write-unavailability
/// window, restart the deposed primary so the term fence (`STALE_TERM`)
/// demotes it, and audit the exact acked-write set on all three nodes.
fn failover_round(args: &Args, round: usize) -> Result<FailoverRound, String> {
    let timeout = Duration::from_millis(args.failover_timeout_ms);
    let base =
        std::env::temp_dir().join(format!("intensio-failover-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mk = |data_dir: Option<std::path::PathBuf>,
              replicate_from: Option<String>,
              candidate: bool,
              seed: u64| ServiceConfig {
        workers: args.workers,
        data_dir,
        wal: intensio_wal::WalConfig {
            fsync: args.fsync,
            ..intensio_wal::WalConfig::default()
        },
        replicate_from,
        candidate,
        failover_timeout: timeout,
        failover_seed: seed,
        repl_heartbeat: Duration::from_millis(100),
        ..ServiceConfig::default()
    };
    let open = |cfg: ServiceConfig| -> Result<(Arc<Service>, Server, String), String> {
        let db = intensio_shipdb::ship_database().map_err(|e| e.to_string())?;
        let model = intensio_shipdb::ship_model().map_err(|e| e.to_string())?;
        let svc = Arc::new(Service::with_config(db, model, cfg).map_err(|e| e.to_string())?);
        let server = Server::bind(svc.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        Ok((svc, server, addr))
    };

    let (primary, pserver, paddr) = open(mk(Some(base.join("primary")), None, false, 0))?;
    let (cand, cserver, caddr) = open(mk(
        Some(base.join("candidate")),
        Some(paddr.clone()),
        true,
        0x5eed + round as u64,
    ))?;
    let (follower, fserver, faddr) = open(mk(None, Some(format!("{paddr},{caddr}")), false, 0))?;

    // Both replicas must be caught up before the chaos starts.
    let catchup = Instant::now() + Duration::from_secs(30);
    loop {
        let pe = primary.stats().epoch;
        if cand.stats().epoch == pe && follower.stats().epoch == pe {
            break;
        }
        if Instant::now() >= catchup {
            return Err("replicas never caught up to the primary".to_string());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let total_writes = 30usize;
    let kill_at = total_writes / 2;
    let targets = vec![paddr.clone(), caddr.clone()];
    let mut acked = Vec::with_capacity(total_writes);
    let mut primary_slot = Some((primary, pserver));
    let mut killed_at = None;
    let mut unavailable = None;
    let mut watcher: Option<std::thread::JoinHandle<Option<Duration>>> = None;
    for i in 0..total_writes {
        if i == kill_at {
            // Replication is async and single-copy: an acked term-0
            // write is only guaranteed once shipped. Let the candidate
            // hold the whole prefix before the kill so the audit can
            // demand zero loss of every acked write.
            let ship = Instant::now() + Duration::from_secs(30);
            if let Some((svc, _)) = primary_slot.as_ref() {
                let pe = svc.stats().epoch;
                while cand.stats().epoch < pe {
                    if Instant::now() >= ship {
                        return Err("prefix never shipped to the candidate".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            // The kill: stop serving mid-burst and release the WAL so
            // the deposed primary can be restarted from its directory.
            let (svc, server) = primary_slot.take().ok_or("primary already killed")?;
            server.shutdown();
            drop_service(svc);
            let t0 = Instant::now();
            killed_at = Some(t0);
            let cand = cand.clone();
            watcher = Some(std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                while Instant::now() < deadline {
                    if cand.stats().role == "primary" {
                        return Some(t0.elapsed());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                None
            }));
        }
        let id = format!("TP{i:04}");
        let acked_at = write_failover(&targets, &id)?;
        acked.push(id);
        if let (Some(t0), None) = (killed_at, unavailable) {
            unavailable = Some(acked_at.duration_since(t0));
        }
    }
    let promotion = watcher
        .ok_or("kill never happened")?
        .join()
        .map_err(|_| "promotion watcher panicked")?
        .ok_or("candidate never promoted within 60s")?;
    let unavailable = unavailable.ok_or("no write acked after the kill")?;
    let new_term = cand.stats().term;

    // The deposed primary wakes up: same WAL directory, no knowledge of
    // the failover beyond `--peers`. It boots as a primary of the old
    // term; the fence must demote it, and the new primary's snapshot
    // bootstrap must retract any acked-but-unshipped suffix.
    let (deposed, dserver, daddr) = open(mk(Some(base.join("primary")), None, false, 0))?;
    // A stale-lineage handshake observes the fence directly: any node
    // that has durably seen the new term is rejected with STALE_TERM.
    // Probe *before* handing it peers — once the telemetry poller can
    // discover the new primary it may demote this node first, and a
    // demoted node answers "I'm a follower" instead of the fence.
    let stale_fenced = Client::connect(&daddr)
        .ok()
        .and_then(|mut c| c.roundtrip(&format!("REPLICATE 0 term={new_term}")).ok())
        .is_some_and(|line| line.contains("STALE_TERM"));
    deposed.set_peers(vec![caddr.clone()]);

    // Rejoin: the deposed primary demotes (probe and telemetry poll
    // both fence it) and both replicas converge on the new lineage.
    let converge = Instant::now() + Duration::from_secs(60);
    let mut deposed_rejoined = false;
    while Instant::now() < converge {
        let ce = cand.stats().epoch;
        let ds = deposed.stats();
        let fs = follower.stats();
        if ds.role == "follower" && ds.epoch == ce && fs.epoch == ce {
            deposed_rejoined = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Exact-set audit on every node: all acked writes present, none
    // applied twice.
    let mut lost = 0u64;
    let mut duplicates = 0u64;
    for addr in [&caddr, &daddr, &faddr] {
        let (mut c, _) = connect_with_retry(std::slice::from_ref(addr), 0)
            .map_err(|e| format!("audit connect {addr}: {e}"))?;
        let line = c
            .roundtrip("SQL SELECT Id FROM SUBMARINE")
            .map_err(|e| format!("audit read {addr}: {e}"))?;
        let v = json::parse(&line).map_err(|e| format!("audit reply {addr}: {e}"))?;
        let mut counts: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for row in v.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
            if let Some(id) = row
                .as_array()
                .and_then(|r| r.first())
                .and_then(Json::as_str)
            {
                *counts.entry(id.trim().to_string()).or_insert(0) += 1;
            }
        }
        for id in &acked {
            match counts.get(id).copied().unwrap_or(0) {
                0 => {
                    eprintln!("LOST: acked write {id} missing on {addr}");
                    lost += 1;
                }
                1 => {}
                n => {
                    eprintln!("DUPLICATE: acked write {id} applied {n} times on {addr}");
                    duplicates += 1;
                }
            }
        }
        c.quit();
    }

    dserver.shutdown();
    cserver.shutdown();
    fserver.shutdown();
    drop_service(deposed);
    drop_service(cand);
    drop(follower);
    let _ = std::fs::remove_dir_all(&base);
    Ok(FailoverRound {
        promotion,
        unavailable,
        acked,
        lost,
        duplicates,
        stale_fenced,
        deposed_rejoined,
    })
}

/// The `--topology failover` workload: `--rounds` seeded kill/promote
/// rounds (see [`failover_round`]), with time-to-promotion and
/// write-unavailability percentiles, a zero-loss / zero-duplicate
/// audit, and the replication counters CI greps. This is how
/// `BENCH_failover.json` is measured.
fn failover_main(args: &Args) {
    println!(
        "serve_load failover: {} round(s), failover timeout {} ms (fsync {})",
        args.rounds, args.failover_timeout_ms, args.fsync
    );
    let mut promotions_ms = Vec::with_capacity(args.rounds);
    let mut unavailable_ms = Vec::with_capacity(args.rounds);
    let mut acked_total = 0u64;
    let mut lost = 0u64;
    let mut duplicates = 0u64;
    let mut failed = false;
    for round in 0..args.rounds {
        match failover_round(args, round) {
            Ok(r) => {
                println!(
                    "round {round}: promoted in {} ms, writes unavailable {} ms, \
                     {} acked, stale-term fence {}, deposed primary {}",
                    r.promotion.as_millis(),
                    r.unavailable.as_millis(),
                    r.acked.len(),
                    if r.stale_fenced { "OK" } else { "MISSING" },
                    if r.deposed_rejoined {
                        "demoted and converged"
                    } else {
                        "NEVER REJOINED"
                    },
                );
                promotions_ms.push(r.promotion.as_millis() as u64);
                unavailable_ms.push(r.unavailable.as_millis() as u64);
                acked_total += r.acked.len() as u64;
                lost += r.lost;
                duplicates += r.duplicates;
                if !r.stale_fenced || !r.deposed_rejoined {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("FAIL: round {round}: {e}");
                failed = true;
            }
        }
    }
    promotions_ms.sort_unstable();
    unavailable_ms.sort_unstable();
    println!(
        "failover timing: rounds={} timeout_ms={} promotion_p50_ms={} promotion_p95_ms={} \
         unavailability_p50_ms={} unavailability_p95_ms={}",
        promotions_ms.len(),
        args.failover_timeout_ms,
        percentile(&promotions_ms, 0.50),
        percentile(&promotions_ms, 0.95),
        percentile(&unavailable_ms, 0.50),
        percentile(&unavailable_ms, 0.95),
    );
    println!(
        "failover audit: acked={acked_total} present={} lost={lost} duplicates={duplicates}",
        acked_total - lost,
    );
    // Process-global counters, so these totals span every round.
    let counters = intensio_obs::metrics().snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    println!(
        "counters: repl.promotions={} repl.demotions={} repl.stale_term_rejections={} \
         repl.lineage_bootstraps={} repl.promotion_failures={}",
        counter("repl.promotions"),
        counter("repl.demotions"),
        counter("repl.stale_term_rejections"),
        counter("repl.lineage_bootstraps"),
        counter("repl.promotion_failures"),
    );
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    check(
        promotions_ms.len() == args.rounds,
        "every round must complete",
    );
    check(lost == 0, "zero lost acked writes across all rounds");
    check(
        duplicates == 0,
        "zero duplicate applications across all rounds",
    );
    check(
        counter("repl.promotions") >= args.rounds as u64,
        "every round must record a promotion",
    );
    check(
        counter("repl.stale_term_rejections") >= args.rounds as u64,
        "every round must fence the deposed primary",
    );
    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

/// What one injected-fault scenario measured and verified.
struct PartitionOutcome {
    /// Fault injection to the winner candidate's `role == "primary"`;
    /// `None` for scenarios that must not promote at all.
    promotion: Option<Duration>,
    /// Fault injection to the first write acked on the majority side.
    unavailable: Option<Duration>,
    /// Stale reads served by the stranded minority primary while the
    /// partition was up: (answered, attempted).
    minority_reads: (u64, u64),
    /// Fault clear to full convergence: one primary, one term,
    /// identical epochs on all three nodes.
    heal: Duration,
    acked: Vec<String>,
    lost: u64,
    duplicates: u64,
    /// Minority-acked writes still visible anywhere after the heal —
    /// the single-copy contract says the rejoin must retract them.
    leaked: u64,
    /// The term the cluster converged on.
    final_term: u64,
    /// Invariant violations observed mid-scenario (empty on success).
    notes: Vec<String>,
}

/// Failover seeds whose deterministic promotion deadlines are far
/// enough apart that the earlier one (the winner) always promotes
/// before the later one's pre-promotion sweep runs — the same scan the
/// dueling-candidates drill in the serve test suite uses. Requires
/// `--failover-timeout-ms >= 400` so the jitter band is wide enough.
fn partition_seeds(timeout: Duration) -> (u64, u64) {
    let deadline_for = |seed: u64| {
        timeout / 2
            + intensio_fault::Backoff::new(timeout, timeout, seed.wrapping_add(1)).delay_for(0)
    };
    let (win, lose) = (1u64..=64)
        .flat_map(|x| (1u64..=64).map(move |y| (x, y)))
        .filter(|(x, y)| x != y && deadline_for(*x) < deadline_for(*y))
        .max_by_key(|(x, y)| deadline_for(*y) - deadline_for(*x))
        .expect("seed pool yields a winner/loser pair");
    assert!(
        deadline_for(lose) - deadline_for(win) >= Duration::from_millis(150),
        "seed pool too narrow for a deterministic winner"
    );
    (win, lose)
}

/// Three in-process nodes sharing this process's fault registry:
/// primary `a` polling its peers, durable candidate `b` (seeded to win
/// any promotion race), memory candidate `c` (seeded to lose). Address
/// aliases are registered so a `net.*` spec written in terms of labels
/// also governs dials that only know a peer's address.
struct PartitionCluster {
    a: Arc<Service>,
    b: Arc<Service>,
    c: Arc<Service>,
    servers: Vec<Server>,
    /// `[a, b, c]` listen addresses.
    addrs: [String; 3],
    base: std::path::PathBuf,
}

impl PartitionCluster {
    fn spawn(args: &Args, tag: &str) -> Result<PartitionCluster, String> {
        intensio_fault::clear();
        intensio_fault::clear_aliases();
        let timeout = Duration::from_millis(args.failover_timeout_ms);
        let (win, lose) = partition_seeds(timeout);
        let base =
            std::env::temp_dir().join(format!("intensio-partition-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mk = |label: &str,
                  data_dir: Option<std::path::PathBuf>,
                  replicate_from: Option<String>,
                  candidate: bool,
                  seed: u64| ServiceConfig {
            workers: args.workers,
            data_dir,
            wal: intensio_wal::WalConfig {
                fsync: args.fsync,
                ..intensio_wal::WalConfig::default()
            },
            replicate_from,
            candidate,
            failover_timeout: timeout,
            failover_seed: seed,
            repl_heartbeat: Duration::from_millis(100),
            net_label: label.to_string(),
            ..ServiceConfig::default()
        };
        let open = |cfg: ServiceConfig| -> Result<(Arc<Service>, Server, String), String> {
            let db = intensio_shipdb::ship_database().map_err(|e| e.to_string())?;
            let model = intensio_shipdb::ship_model().map_err(|e| e.to_string())?;
            let svc = Arc::new(Service::with_config(db, model, cfg).map_err(|e| e.to_string())?);
            let server = Server::bind(svc.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = server.local_addr().to_string();
            Ok((svc, server, addr))
        };
        let (a, aserver, paddr) = open(mk("a", Some(base.join("a")), None, false, 0))?;
        let (b, bserver, baddr) = open(mk(
            "b",
            Some(base.join("b")),
            Some(paddr.clone()),
            true,
            win,
        ))?;
        // `c` cannot know `b`'s address before `b` binds, so its
        // rotation is primary-first with the sibling as the fallback
        // the pre-promotion sweep probes.
        let (c, cserver, caddr) =
            open(mk("c", None, Some(format!("{paddr},{baddr}")), true, lose))?;
        intensio_fault::register_alias(&paddr, "a");
        intensio_fault::register_alias(&baddr, "b");
        intensio_fault::register_alias(&caddr, "c");
        // The poller is how a stranded primary discovers a newer term
        // after a heal — without peers it would stay primary forever.
        a.set_peers(vec![baddr.clone(), caddr.clone()]);
        let cluster = PartitionCluster {
            a,
            b,
            c,
            servers: vec![aserver, bserver, cserver],
            addrs: [paddr, baddr, caddr],
            base,
        };
        cluster.await_shipped("initial catch-up")?;
        Ok(cluster)
    }

    /// Wait until all three nodes sit at the same epoch.
    fn await_shipped(&self, what: &str) -> Result<Duration, String> {
        let start = Instant::now();
        loop {
            let (ea, eb, ec) = (
                self.a.stats().epoch,
                self.b.stats().epoch,
                self.c.stats().epoch,
            );
            if ea == eb && eb == ec {
                return Ok(start.elapsed());
            }
            if start.elapsed() >= Duration::from_secs(30) {
                return Err(format!("{what}: epochs stuck at {ea}/{eb}/{ec}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Wait until the cluster has exactly one primary, every node is on
    /// `want_term`, and all epochs match; returns the elapsed time.
    fn await_converged(&self, want_term: u64, what: &str) -> Result<Duration, String> {
        let start = Instant::now();
        loop {
            let (sa, sb, sc) = (self.a.stats(), self.b.stats(), self.c.stats());
            let primaries = [&sa, &sb, &sc]
                .iter()
                .filter(|s| s.role == "primary")
                .count();
            if primaries == 1
                && [sa.term, sb.term, sc.term] == [want_term; 3]
                && sa.epoch == sb.epoch
                && sb.epoch == sc.epoch
            {
                return Ok(start.elapsed());
            }
            if start.elapsed() >= Duration::from_secs(60) {
                return Err(format!(
                    "{what}: never converged (roles {}/{}/{}, terms {}/{}/{}, epochs {}/{}/{})",
                    sa.role,
                    sb.role,
                    sc.role,
                    sa.term,
                    sb.term,
                    sc.term,
                    sa.epoch,
                    sb.epoch,
                    sc.epoch,
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Watch `b` (via its in-process handle — the control plane is not
    /// the network) until it reports `role == "primary"`.
    fn watch_promotion(&self, from: Instant) -> std::thread::JoinHandle<Option<Duration>> {
        let b = self.b.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                if b.stats().role == "primary" {
                    return Some(from.elapsed());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            None
        })
    }

    /// Exact-set audit over the wire on all three nodes: every acked
    /// write present exactly once, every `banned` (retracted) write
    /// absent. Returns `(lost, duplicates, leaked)`.
    fn audit(&self, acked: &[String], banned: &[String]) -> Result<(u64, u64, u64), String> {
        let (mut lost, mut duplicates, mut leaked) = (0u64, 0u64, 0u64);
        for addr in &self.addrs {
            let (mut c, _) = connect_with_retry(std::slice::from_ref(addr), 0)
                .map_err(|e| format!("audit connect {addr}: {e}"))?;
            let line = c
                .roundtrip("SQL SELECT Id FROM SUBMARINE")
                .map_err(|e| format!("audit read {addr}: {e}"))?;
            let v = json::parse(&line).map_err(|e| format!("audit reply {addr}: {e}"))?;
            let mut counts: std::collections::BTreeMap<String, usize> =
                std::collections::BTreeMap::new();
            for row in v.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
                if let Some(id) = row
                    .as_array()
                    .and_then(|r| r.first())
                    .and_then(Json::as_str)
                {
                    *counts.entry(id.trim().to_string()).or_insert(0) += 1;
                }
            }
            for id in acked {
                match counts.get(id).copied().unwrap_or(0) {
                    0 => {
                        eprintln!("LOST: acked write {id} missing on {addr}");
                        lost += 1;
                    }
                    1 => {}
                    n => {
                        eprintln!("DUPLICATE: acked write {id} applied {n} times on {addr}");
                        duplicates += 1;
                    }
                }
            }
            for id in banned {
                if counts.get(id).copied().unwrap_or(0) > 0 {
                    eprintln!("LEAKED: retracted minority write {id} still visible on {addr}");
                    leaked += 1;
                }
            }
            c.quit();
        }
        Ok((lost, duplicates, leaked))
    }

    fn teardown(self) {
        for server in self.servers {
            server.shutdown();
        }
        drop_service(self.a);
        drop_service(self.b);
        drop_service(self.c);
        intensio_fault::clear();
        intensio_fault::clear_aliases();
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// Append one row through a plain client connection (clients dial with
/// the `client` label, so node-targeted link faults never touch them).
fn partition_append(addr: &str, id: &str) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let line = c
        .roundtrip(&format!(
            "QUEL append to SUBMARINE (Id = \"{id}\", \
             Name = \"Partition Probe\", Class = \"0101\")"
        ))
        .map_err(|e| format!("append {id} on {addr}: {e}"))?;
    let v = json::parse(&line).map_err(|e| format!("append reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("append {id} rejected on {addr}: {}", line.trim()));
    }
    Ok(())
}

/// One stale-read probe: does `addr` still answer a SQL read?
fn partition_read_ok(addr: &str) -> bool {
    Client::connect(addr)
        .ok()
        .and_then(|mut c| c.roundtrip("SQL SELECT Id FROM SUBMARINE").ok())
        .and_then(|line| json::parse(&line).ok())
        .is_some_and(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
}

/// Inject `specs` into the shared registry, failing the scenario on a
/// refused spec rather than silently running without the fault.
fn partition_inject(specs: &str) -> Result<(), String> {
    intensio_fault::configure_str(specs).map_err(|e| format!("fault spec {specs:?}: {e}"))
}

/// Symmetric split: `a` loses both followers at once. The majority
/// promotes `b`, the stranded primary keeps serving stale reads until
/// the term fence demotes it, and the heal converges everyone on the
/// new lineage.
fn partition_scenario_symmetric(args: &Args) -> Result<PartitionOutcome, String> {
    let cluster = PartitionCluster::spawn(args, "symmetric")?;
    let [paddr, baddr, caddr] = cluster.addrs.clone();
    let mut notes = Vec::new();
    let mut acked = Vec::new();
    for i in 0..4 {
        let id = format!("SP{i:04}");
        partition_append(&paddr, &id)?;
        acked.push(id);
    }
    cluster.await_shipped("pre-cut prefix")?;

    partition_inject("net.partition=a<->b;net.partition#2=a<->c")?;
    let cut = Instant::now();
    let watcher = cluster.watch_promotion(cut);
    // The writer fails over to the majority rotation; the first ack
    // bounds the write-unavailability window.
    let mut unavailable = None;
    let majority = [baddr.clone(), caddr.clone()];
    for i in 0..4 {
        let id = format!("SPM{i:04}");
        let at = write_failover(&majority, &id)?;
        acked.push(id);
        if unavailable.is_none() {
            unavailable = Some(at.duration_since(cut));
        }
    }
    let promotion = watcher
        .join()
        .map_err(|_| "promotion watcher panicked")?
        .ok_or("b never promoted behind the symmetric split")?;
    // The stranded minority primary must keep answering stale reads
    // (and must still believe it is the term-0 primary).
    let mut minority_reads = (0u64, 0u64);
    for _ in 0..20 {
        minority_reads.1 += 1;
        if partition_read_ok(&paddr) {
            minority_reads.0 += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stranded = cluster.a.stats();
    if stranded.role != "primary" || stranded.term != 0 {
        notes.push(format!(
            "stranded primary should still be term-0 primary, is {} at term {}",
            stranded.role, stranded.term
        ));
    }
    // The fence, observed directly: a handshake carrying the new term
    // is rejected with STALE_TERM and demotes the stranded primary.
    let new_term = cluster.b.stats().term;
    let fenced = Client::connect(&paddr)
        .ok()
        .and_then(|mut c| c.roundtrip(&format!("REPLICATE 0 term={new_term}")).ok())
        .is_some_and(|line| line.contains("STALE_TERM"));
    if !fenced {
        notes.push("stale-term fence missing on the stranded primary".to_string());
    }

    intensio_fault::clear();
    let heal = cluster.await_converged(new_term, "post-heal")?;
    let _ = caddr;
    let (lost, duplicates, leaked) = cluster.audit(&acked, &[])?;
    cluster.teardown();
    Ok(PartitionOutcome {
        promotion: Some(promotion),
        unavailable,
        minority_reads,
        heal,
        acked,
        lost,
        duplicates,
        leaked,
        final_term: new_term,
        notes,
    })
}

/// One-way (half-open) link: `a`'s frames to `b` vanish while `b`'s
/// dials still reach `a`. `b` starves and takes over; writes acked by
/// the oblivious minority primary during the split must be retracted
/// when it rejoins the new lineage.
fn partition_scenario_oneway(args: &Args) -> Result<PartitionOutcome, String> {
    let cluster = PartitionCluster::spawn(args, "oneway")?;
    let [paddr, baddr, _caddr] = cluster.addrs.clone();
    let mut notes = Vec::new();
    let mut acked = Vec::new();
    for i in 0..4 {
        let id = format!("OW{i:04}");
        partition_append(&paddr, &id)?;
        acked.push(id);
    }
    cluster.await_shipped("pre-cut prefix")?;

    partition_inject("net.oneway=a->b")?;
    let cut = Instant::now();
    let watcher = cluster.watch_promotion(cut);
    let mut unavailable = None;
    for i in 0..4 {
        let id = format!("OWM{i:04}");
        let at = write_failover(std::slice::from_ref(&baddr), &id)?;
        acked.push(id);
        if unavailable.is_none() {
            unavailable = Some(at.duration_since(cut));
        }
    }
    let promotion = watcher
        .join()
        .map_err(|_| "promotion watcher panicked")?
        .ok_or("b never promoted behind the one-way link")?;
    // Split brain, live: `a` cannot hear the new term (its poll dials
    // toward `b` die on the severed direction), so it keeps acking
    // writes. The single-copy contract retracts them on rejoin.
    let mut banned = Vec::new();
    for i in 0..2 {
        let id = format!("OWX{i:03}");
        partition_append(&paddr, &id)?;
        banned.push(id);
    }
    let oblivious = cluster.a.stats();
    if oblivious.role != "primary" || oblivious.term != 0 {
        notes.push(format!(
            "minority primary should still be term-0 primary, is {} at term {}",
            oblivious.role, oblivious.term
        ));
    }
    if cluster.c.stats().term != 0 {
        notes.push("follower c crossed terms before the heal".to_string());
    }
    let new_term = cluster.b.stats().term;

    intensio_fault::clear();
    let heal = cluster.await_converged(new_term, "post-heal")?;
    let (lost, duplicates, leaked) = cluster.audit(&acked, &banned)?;
    cluster.teardown();
    Ok(PartitionOutcome {
        promotion: Some(promotion),
        unavailable,
        minority_reads: (0, 0),
        heal,
        acked,
        lost,
        duplicates,
        leaked,
        final_term: new_term,
        notes,
    })
}

/// Flapping links: short full cuts, each healed well inside the
/// failover timeout. Nobody may promote; every blackholed record must
/// resync after each heal (a post-heal marker write trips the
/// followers' gap detection — heartbeats alone never replay history).
fn partition_scenario_flapping(args: &Args) -> Result<PartitionOutcome, String> {
    let cluster = PartitionCluster::spawn(args, "flapping")?;
    let [paddr, _baddr, _caddr] = cluster.addrs.clone();
    let mut notes = Vec::new();
    let mut acked = Vec::new();
    let flap_hold = Duration::from_millis((args.failover_timeout_ms / 4).min(150));
    let mut heal = Duration::ZERO;
    for flap in 0..4 {
        partition_inject("net.partition=a<->b;net.partition#2=a<->c")?;
        for i in 0..2 {
            let id = format!("FL{flap}{i:03}");
            partition_append(&paddr, &id)?;
            acked.push(id);
        }
        std::thread::sleep(flap_hold);
        intensio_fault::clear();
        let marker = format!("FLM{flap:04}");
        partition_append(&paddr, &marker)?;
        acked.push(marker);
        heal = heal.max(cluster.await_shipped(&format!("flap {flap} resync"))?);
    }
    let (sa, sb, sc) = (cluster.a.stats(), cluster.b.stats(), cluster.c.stats());
    if sa.role != "primary" || sb.role == "primary" || sc.role == "primary" {
        notes.push(format!(
            "flapping must not change roles (got {}/{}/{})",
            sa.role, sb.role, sc.role
        ));
    }
    if [sa.term, sb.term, sc.term] != [0; 3] {
        notes.push(format!(
            "flapping must not bump terms (got {}/{}/{})",
            sa.term, sb.term, sc.term
        ));
    }
    let (lost, duplicates, leaked) = cluster.audit(&acked, &[])?;
    cluster.teardown();
    Ok(PartitionOutcome {
        promotion: None,
        unavailable: None,
        minority_reads: (0, 0),
        heal,
        acked,
        lost,
        duplicates,
        leaked,
        final_term: 0,
        notes,
    })
}

/// Pure heartbeat delay, well past the failover timeout: candidates
/// come due, but their pre-promotion sweep still reaches the primary
/// (poll replies ride unlabeled connections), so slow must never be
/// mistaken for dead — no promotion, no term bump, full availability.
fn partition_scenario_delay(args: &Args) -> Result<PartitionOutcome, String> {
    let cluster = PartitionCluster::spawn(args, "delay")?;
    let [paddr, _baddr, _caddr] = cluster.addrs.clone();
    let mut notes = Vec::new();
    let mut acked = Vec::new();
    for i in 0..2 {
        let id = format!("DL{i:04}");
        partition_append(&paddr, &id)?;
        acked.push(id);
    }
    cluster.await_shipped("pre-delay prefix")?;

    let delay_ms = args.failover_timeout_ms * 2;
    partition_inject(&format!(
        "net.delay:{delay_ms}=a->b;net.delay:{delay_ms}#2=a->c"
    ))?;
    // Several failover timeouts under delayed heartbeats: every
    // candidate becomes due at least once.
    std::thread::sleep(Duration::from_millis(args.failover_timeout_ms * 3));
    let mut minority_reads = (0u64, 0u64);
    for _ in 0..10 {
        minority_reads.1 += 1;
        if partition_read_ok(&paddr) {
            minority_reads.0 += 1;
        }
    }
    let id = "DLW0000".to_string();
    partition_append(&paddr, &id)?;
    acked.push(id);
    let (sb, sc) = (cluster.b.stats(), cluster.c.stats());
    if sb.role == "primary" || sc.role == "primary" || sb.term != 0 || sc.term != 0 {
        notes.push(format!(
            "delay caused a false promotion (roles {}/{}, terms {}/{})",
            sb.role, sc.role, sb.term, sc.term
        ));
    }

    intensio_fault::clear();
    let heal = cluster.await_converged(0, "post-delay")?;
    let (lost, duplicates, leaked) = cluster.audit(&acked, &[])?;
    cluster.teardown();
    Ok(PartitionOutcome {
        promotion: None,
        unavailable: None,
        minority_reads,
        heal,
        acked,
        lost,
        duplicates,
        leaked,
        final_term: 0,
        notes,
    })
}

/// The `--topology partition` workload: four injected-link-fault
/// scenarios (see the module docs), each with promotion / availability
/// / heal timings and a zero-loss, zero-duplicate, zero-leak audit.
/// This is how `BENCH_partition.json` is measured.
fn partition_main(args: &Args) {
    if args.failover_timeout_ms < 400 {
        eprintln!(
            "serve_load: --topology partition needs --failover-timeout-ms >= 400 \
             (the deterministic winner/loser seed scan needs the jitter band)"
        );
        std::process::exit(2);
    }
    let seed = intensio_fault::chaos_seed().unwrap_or(42);
    intensio_fault::set_seed(seed);
    println!(
        "serve_load partition: 4 scenario(s), failover timeout {} ms, chaos seed {seed} (fsync {})",
        args.failover_timeout_ms, args.fsync
    );
    let counters_before = intensio_obs::metrics().snapshot().counters;
    type Scenario = fn(&Args) -> Result<PartitionOutcome, String>;
    let scenarios: [(&str, Scenario); 4] = [
        ("symmetric-split", partition_scenario_symmetric),
        ("oneway-link", partition_scenario_oneway),
        ("flapping-links", partition_scenario_flapping),
        ("heartbeat-delay", partition_scenario_delay),
    ];
    let mut failed = false;
    let mut acked_total = 0u64;
    for (name, run) in scenarios {
        match run(args) {
            Ok(o) => {
                let promotion = match o.promotion {
                    Some(d) => format!("promoted in {} ms", d.as_millis()),
                    None => "no promotion (by design)".to_string(),
                };
                let unavailable = match o.unavailable {
                    Some(d) => format!("writes unavailable {} ms", d.as_millis()),
                    None => "writes never unavailable".to_string(),
                };
                println!(
                    "scenario {name}: {promotion}, {unavailable}, \
                     minority stale reads {}/{}, healed in {} ms, \
                     {} acked, lost {}, duplicates {}, leaked {}, final term {}",
                    o.minority_reads.0,
                    o.minority_reads.1,
                    o.heal.as_millis(),
                    o.acked.len(),
                    o.lost,
                    o.duplicates,
                    o.leaked,
                    o.final_term,
                );
                acked_total += o.acked.len() as u64;
                for note in &o.notes {
                    eprintln!("FAIL: {name}: {note}");
                    failed = true;
                }
                if o.lost > 0 || o.duplicates > 0 || o.leaked > 0 {
                    failed = true;
                }
                if o.minority_reads.0 < o.minority_reads.1 {
                    eprintln!(
                        "FAIL: {name}: {} of {} minority stale reads went unanswered",
                        o.minority_reads.1 - o.minority_reads.0,
                        o.minority_reads.1
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("FAIL: scenario {name}: {e}");
                failed = true;
            }
        }
    }
    // Counter deltas across the whole run: exactly the two scenarios
    // that partition the majority away may promote, and the symmetric
    // split must have fenced its stranded primary.
    let counters = intensio_obs::metrics().snapshot().counters;
    let delta = |name: &str| {
        counters.get(name).copied().unwrap_or(0) - counters_before.get(name).copied().unwrap_or(0)
    };
    println!(
        "counters: repl.promotions={} repl.demotions={} repl.stale_term_rejections={} \
         repl.half_open_drops={} repl.lineage_bootstraps={}",
        delta("repl.promotions"),
        delta("repl.demotions"),
        delta("repl.stale_term_rejections"),
        delta("repl.half_open_drops"),
        delta("repl.lineage_bootstraps"),
    );
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    check(
        delta("repl.promotions") == 2,
        "exactly two promotions (symmetric split and one-way link, nothing else)",
    );
    check(
        delta("repl.stale_term_rejections") >= 1,
        "the stranded primary must be fenced at least once",
    );
    check(
        delta("repl.demotions") >= 2,
        "both partition scenarios must demote the stranded primary",
    );
    check(acked_total > 0, "scenarios must ack writes");
    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}

fn main() {
    let args = parse_args();
    intensio_obs::set_enabled(args.obs);
    if let Some(dir) = &args.trace_dir {
        let path = intensio_obs::set_trace_sink(dir, args.trace_sample).expect("open trace sink");
        println!(
            "serve_load tracing: {} (sample {})",
            path.display(),
            args.trace_sample
        );
    }
    match args.topology {
        Some(Topology::OnePrimaryTwoFollowers) => return topology_main(&args),
        Some(Topology::Failover) => return failover_main(&args),
        Some(Topology::Partition) => return partition_main(&args),
        None => {}
    }
    let db = intensio_shipdb::ship_database().expect("ship database");
    let model = intensio_shipdb::ship_model().expect("ship model");
    // In durable mode, stage the WAL in a throwaway directory unless the
    // caller pinned one (to measure a specific filesystem, say).
    let scratch_dir = if args.durable && args.data_dir.is_none() {
        let dir = std::env::temp_dir().join(format!("intensio-serve-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Some(dir)
    } else {
        None
    };
    let cfg = ServiceConfig {
        workers: args.workers,
        data_dir: args.data_dir.clone().or_else(|| scratch_dir.clone()),
        wal: intensio_wal::WalConfig {
            fsync: args.fsync,
            ..intensio_wal::WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::with_config(db, model, cfg).expect("service opens"));
    let server = Server::bind(service.clone(), "127.0.0.1:0").expect("server binds");
    let addr = server.local_addr().to_string();
    println!(
        "serve_load: {} threads x {} queries against {} ({} workers){}",
        args.threads,
        args.queries / args.threads,
        addr,
        args.workers,
        if args.durable {
            format!("; durable (fsync {})", args.fsync)
        } else {
            String::new()
        }
    );

    let per_thread = (args.queries / args.threads).max(2);
    let repeated = [
        "SELECT Class FROM CLASS WHERE Displacement > 8000",
        "SELECT CLASS.CLASS FROM CLASS WHERE CLASS.DISPLACEMENT > 8000",
        "SELECT SUBMARINE.ID, CLASS.TYPE FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
        "SELECT Class FROM CLASS WHERE Displacement < 3000",
    ];

    // Durable mode: how many appends each thread issues in its write
    // phase, before any querying, so the WAL is on the critical path.
    let writes_per_thread = if args.durable {
        (per_thread / 4).clamp(2, 999)
    } else {
        0
    };

    let write_done = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..args.threads {
        let addr = addr.clone();
        let write_done = write_done.clone();
        handles.push(std::thread::spawn(move || {
            let (mut client, _) =
                connect_with_retry(std::slice::from_ref(&addr), 0).expect("client connects");
            let mut out = ThreadOutcome::default();
            for i in 0..writes_per_thread {
                // Unique char(7) id per (thread, write): "L" tt iii.
                let sent = Instant::now();
                let line = client
                    .roundtrip(&format!(
                        "QUEL append to SUBMARINE (Id = \"L{t:02}{i:03}\", \
                         Name = \"WAL Probe\", Class = \"0101\")"
                    ))
                    .expect("write roundtrip");
                out.write_latencies_us
                    .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let v = json::parse(&line).expect("write reply parses");
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    out.errors += 1;
                }
            }
            let unique_phase = per_thread / 2;
            for i in 0..per_thread {
                // Thread 0 issues the mid-run write between the phases.
                if t == 0 && i == unique_phase {
                    let line = client
                        .roundtrip(
                            "QUEL append to SUBMARINE (Id = \"SSBL000\", \
                             Name = \"Load Probe\", Class = \"0101\")",
                        )
                        .expect("write roundtrip");
                    let v = json::parse(&line).expect("write reply parses");
                    if v.get("ok").and_then(Json::as_bool) != Some(true) {
                        out.errors += 1;
                    } else {
                        write_done.store(
                            v.get("epoch").and_then(Json::as_u64).unwrap_or(0),
                            Ordering::SeqCst,
                        );
                    }
                }

                let in_unique = i < unique_phase;
                let (request, oracle) = if in_unique {
                    // Globally unique threshold: no fingerprint repeats.
                    let n = 1000 + (t * per_thread + i) as i64;
                    (
                        format!("SQL SELECT Class FROM CLASS WHERE Displacement > {n}"),
                        Some(expected_classes(n)),
                    )
                } else {
                    let q = repeated[(t + i) % repeated.len()];
                    let oracle = if q.contains("> 8000") && !q.contains("SUBMARINE") {
                        Some(expected_classes(8000))
                    } else {
                        None
                    };
                    (format!("SQL {q}"), oracle)
                };

                let sent = Instant::now();
                let line = match client.roundtrip(&request) {
                    Ok(l) => l,
                    Err(_) => {
                        out.errors += 1;
                        continue;
                    }
                };
                out.latencies_us
                    .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                let v = match json::parse(&line) {
                    Ok(v) => v,
                    Err(_) => {
                        out.errors += 1;
                        continue;
                    }
                };
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    out.errors += 1;
                    continue;
                }
                if let Some(epoch) = v.get("epoch").and_then(Json::as_u64) {
                    out.max_epoch = out.max_epoch.max(epoch);
                }
                if !in_unique && v.get("cached").and_then(Json::as_bool) == Some(true) {
                    out.repeated_hits += 1;
                }
                if let Some(want) = oracle {
                    if response_classes(&v) != want {
                        out.wrong += 1;
                    }
                }
            }
            client.quit();
            out
        }));
    }

    let mut all = ThreadOutcome::default();
    for h in handles {
        let out = h.join().expect("load thread panicked");
        all.latencies_us.extend(out.latencies_us);
        all.write_latencies_us.extend(out.write_latencies_us);
        all.wrong += out.wrong;
        all.errors += out.errors;
        all.repeated_hits += out.repeated_hits;
        all.max_epoch = all.max_epoch.max(out.max_epoch);
    }
    let elapsed = started.elapsed();

    // `--profile`: ask the live server to PROFILE a representative
    // intensional query and print the flattened stage list, so CI can
    // grep the plan stages out of a load run.
    let mut profile_ok = true;
    if args.profile {
        fn flat_names(node: &Json, out: &mut Vec<String>) {
            if let Some(name) = node.get("name").and_then(Json::as_str) {
                out.push(name.to_string());
            }
            for child in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
                flat_names(child, out);
            }
        }
        let (mut c, _) =
            connect_with_retry(std::slice::from_ref(&addr), 0).expect("profile connects");
        let line = c
            .roundtrip("PROFILE SELECT Class FROM CLASS WHERE Displacement > 4000")
            .expect("profile roundtrip");
        c.quit();
        let v = json::parse(&line).expect("profile reply parses");
        let mut names = Vec::new();
        for node in v.get("tree").and_then(Json::as_array).unwrap_or(&[]) {
            flat_names(node, &mut names);
        }
        let total_us = v.get("total_us").and_then(Json::as_u64).unwrap_or(0);
        profile_ok = v.get("ok").and_then(Json::as_bool) == Some(true)
            && total_us > 0
            && names.iter().any(|n| n == "parse.sql");
        println!("profile stages ({total_us} us total): {}", names.join(" "));
    }

    // Let the triggered re-induction land, then read the final stats.
    let fresh = service.wait_rules_fresh(Duration::from_secs(10));
    let stats = service.stats();
    server.shutdown();

    all.latencies_us.sort_unstable();
    let total = all.latencies_us.len() as u64;
    println!(
        "completed {total} queries in {:.2}s ({:.0} q/s)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "latency p50 {} us, p95 {} us, p99 {} us",
        percentile(&all.latencies_us, 0.50),
        percentile(&all.latencies_us, 0.95),
        percentile(&all.latencies_us, 0.99)
    );
    println!(
        "cache: {} hits / {} misses overall; {} hits in the repeated phase",
        stats.cache_hits, stats.cache_misses, all.repeated_hits
    );
    println!(
        "epochs: write installed epoch {}, max observed {}, final {} \
         ({} inductions, rules {})",
        write_done.load(Ordering::SeqCst),
        all.max_epoch,
        stats.epoch,
        stats.inductions,
        if stats.rules_fresh { "fresh" } else { "stale" }
    );
    println!(
        "incorrect answers: {}, request errors: {}",
        all.wrong, all.errors
    );
    if args.durable {
        all.write_latencies_us.sort_unstable();
        println!(
            "writes: {} durable appends, latency p50 {} us, p95 {} us, p99 {} us",
            all.write_latencies_us.len(),
            percentile(&all.write_latencies_us, 0.50),
            percentile(&all.write_latencies_us, 0.95),
            percentile(&all.write_latencies_us, 0.99)
        );
        match &stats.durability {
            Some(d) => println!(
                "wal (fsync {}): {} appends, {} bytes, {} fsyncs, {} checkpoints, segment {}",
                d.fsync,
                d.wal_appends,
                d.wal_append_bytes,
                d.wal_fsyncs,
                d.wal_checkpoints,
                d.wal_segment_seq
            ),
            None => println!("wal: no durability stats (?)"),
        }
    }
    if args.obs {
        println!("per-stage latency (from service histograms):");
        for stage in intensio_obs::Stage::ALL {
            let h = stats
                .metrics
                .stage(stage.name())
                .cloned()
                .unwrap_or_default();
            println!(
                "  {:<10} count {:>7}  p50 {:>6} us  p95 {:>6} us  p99 {:>6} us  mean {:>6} us",
                stage.name(),
                h.count,
                h.p50_us,
                h.p95_us,
                h.p99_us,
                h.mean_us()
            );
        }
    }

    let write_epoch = write_done.load(Ordering::SeqCst);
    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    check(all.wrong == 0, "every answer must match the oracle");
    check(all.errors == 0, "no request may error");
    check(
        all.repeated_hits > 0,
        "the repeated phase must hit the cache",
    );
    check(write_epoch >= 1, "the mid-run write must install an epoch");
    check(
        fresh && stats.epoch > write_epoch,
        "background re-induction must advance the epoch past the write",
    );
    check(
        all.max_epoch >= write_epoch,
        "queries must observe the post-write epoch while answering",
    );
    check(
        profile_ok,
        "the PROFILE probe must return a timed plan with pipeline stages",
    );
    if args.durable {
        let d = stats.durability.as_ref();
        check(d.is_some(), "durable mode must report WAL stats");
        check(
            d.is_some_and(|d| d.wal_appends >= all.write_latencies_us.len() as u64),
            "every acknowledged write must have a WAL append",
        );
    }
    if let Some(dir) = scratch_dir {
        match Arc::try_unwrap(service) {
            Ok(s) => drop(s), // close the WAL before sweeping its directory
            Err(arc) => drop(arc),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    if failed {
        std::process::exit(1);
    }
    println!("PASS");
}
