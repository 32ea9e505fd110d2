//! The `serve` binary: the intensional query service over TCP, loaded
//! with the paper's Appendix B/C naval ship test bed.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--cache N] [--no-learn]
//!       [--quiet] [--verbose] [--slow-ms N] [--slow-stage-ms STAGE=MS[,..]]
//!       [--queue N] [--deadline-ms N]
//!       [--trace-dir PATH] [--trace-sample F]
//!       [--data-dir PATH] [--fsync always|batch:N|off]
//!       [--checkpoint-every N] [--wal-segment-bytes N]
//!       [--replicate-from HOST:PORT[,HOST:PORT..]] [--peers HOST:PORT,..]
//!       [--candidate] [--failover-timeout-ms N] [--failover-seed N]
//!       [--repl-heartbeat-ms N]
//!       [--net-name LABEL]
//! ```
//!
//! Observability: `--verbose` logs every completed span to stderr,
//! `--quiet` silences logging entirely, and `--slow-ms N` logs only
//! spans slower than `N` milliseconds (the slow-query log);
//! `--slow-stage-ms scan=2,inference=10` tightens the threshold for
//! individual stages. The `INTENSIO_LOG` environment variable
//! (`silent`/`normal`/`verbose`) sets the default level; the flags
//! override it.
//!
//! Tracing: `--trace-dir PATH` opens a bounded JSONL trace sink
//! (`PATH/trace-<pid>.jsonl`); `--trace-sample F` sets the fraction of
//! untraced requests that mint a fresh trace at admission (default
//! 0.01 once a trace dir is set — requests arriving with a `#trace`
//! prefix are always recorded). `PROFILE <query>` works regardless:
//! span collection for a profile is per-request, not sampled.
//!
//! Cluster telemetry: `--peers HOST:PORT[,HOST:PORT..]` makes this node
//! poll each listed peer's `TELEMETRY` verb about once a second and
//! fold per-node lag/apply-rate/health into its own `STATS` reply and
//! Prometheus export (typically set on the primary, listing followers).
//!
//! Fault tolerance: `--queue N` bounds the admission queue (overflow is
//! shed with a `BUSY` reply; `0` disables shedding) and `--deadline-ms N`
//! sets the per-request budget past which answers degrade their
//! intensional side.
//!
//! Fault injection: the `INTENSIO_FAILPOINTS` environment variable arms
//! faults of both kinds at startup, and the `FAULT` protocol verb
//! administers them at runtime. Failpoints inject errors, latency or
//! panics (`storage.scan=1%error;inference.infer=5%delay:20`); link
//! faults under `net.` sever or skew this node's links
//! (`net.partition=a<->b;net.delay:25=client->a` severs the a↔b link
//! and skews client→a writes by 25ms). `--net-name LABEL` names this
//! node for link-fault specs (the label also rides the `REPLICATE`
//! handshake so the primary can target a follower's stream by name).
//! Read-only followers accept `FAULT SET net.…` too. `INTENSIO_CHAOS_SEED`
//! seeds the probabilistic (`P%`) triggers of both kinds.
//!
//! Durability: `--data-dir PATH` turns on the write-ahead log — every
//! acknowledged mutation and rule-set install is appended to
//! `PATH/wal/` before the new snapshot becomes visible, and boot
//! recovers from the newest checkpoint plus the log tail. `--fsync`
//! picks the sync policy (`always` is the crash-safe default; `batch:N`
//! syncs every N appends; `off` leaves flushing to the OS),
//! `--checkpoint-every N` sets how many logged records trigger a
//! checkpoint, and `--wal-segment-bytes N` bounds segment size.
//!
//! Replication: `--replicate-from HOST:PORT` starts this node as a
//! read-only *follower* of the primary at that address — it bootstraps
//! over the wire (log tail or full snapshot), applies shipped records
//! into its own epoch chain, re-gates shipped rule sets through the
//! same static-analysis check a primary uses, and rejects mutating
//! requests with a `READONLY` error naming the primary. Combine with
//! `--data-dir` for a durable follower that recovers locally and
//! rejoins from its recovered epoch. `--replicate-from` accepts a
//! comma-separated rotation of upstream addresses, tried in order.
//!
//! Failover: `--candidate` makes a follower monitor the replication
//! stream's heartbeats and, when none arrives for the failover
//! deadline (`--failover-timeout-ms`, default 1000, plus a jitter
//! seeded by `--failover-seed` so dueling candidates tie-break
//! deterministically), promote itself to primary: it bumps the
//! monotonic **term**, fsyncs a `TERM` fencepost record into its WAL
//! before accepting any write, and announces the new term on its
//! `REPLICATE` streams. A deposed primary that wakes up is rejected
//! with a `STALE_TERM` wire error and demotes itself to follower of
//! the new primary. `--repl-heartbeat-ms` sets the primary's idle
//! heartbeat cadence (default 500).
//!
//! Talk to it with `examples/shell.rs --connect HOST:PORT`, or any
//! line client:
//!
//! ```text
//! $ printf 'SQL SELECT Class FROM CLASS WHERE Displacement > 8000\n' | nc localhost 7878
//! ```

use intensio_serve::{Server, Service, ServiceConfig};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--cache N] [--no-learn]\n\
         \x20            [--quiet] [--verbose] [--slow-ms N] [--slow-stage-ms STAGE=MS[,..]]\n\
         \x20            [--queue N] [--deadline-ms N]\n\
         \x20            [--trace-dir PATH] [--trace-sample F]\n\
         \x20            [--data-dir PATH] [--fsync always|batch:N|off]\n\
         \x20            [--checkpoint-every N] [--wal-segment-bytes N]\n\
         \x20            [--replicate-from HOST:PORT[,HOST:PORT..]] [--peers HOST:PORT,..]\n\
         \x20            [--candidate] [--failover-timeout-ms N] [--failover-seed N]\n\
         \x20            [--repl-heartbeat-ms N]\n\
         \x20            [--net-name LABEL]"
    );
    std::process::exit(2);
}

/// Parse `STAGE=MS[,STAGE=MS...]` (stage names as they appear in
/// `STATS` histograms, e.g. `scan=2,inference=10`) into per-stage
/// slow-span thresholds.
fn apply_slow_stage_spec(spec: &str) -> Result<(), String> {
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (name, ms) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --slow-stage-ms entry {part:?}; expected STAGE=MS"))?;
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad millisecond count in {part:?}"))?;
        let stage = intensio_obs::Stage::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = intensio_obs::Stage::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown stage {name:?}; expected one of {}",
                    known.join(", ")
                )
            })?;
        intensio_obs::set_stage_slow_threshold(stage, std::time::Duration::from_millis(ms));
    }
    Ok(())
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServiceConfig::default();
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut trace_sample = 0.01f64;
    let mut peers: Vec<String> = Vec::new();
    intensio_obs::init_from_env();
    intensio_fault::init_from_env();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cache" => {
                cfg.cache_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--no-learn" => cfg.learn_on_open = false,
            "--queue" => {
                cfg.queue_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--deadline-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--data-dir" => {
                cfg.data_dir = Some(std::path::PathBuf::from(
                    args.next().unwrap_or_else(|| usage()),
                ));
            }
            "--fsync" => {
                let spec = args.next().unwrap_or_else(|| usage());
                cfg.wal.fsync = intensio_wal::FsyncPolicy::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("serve: {e}");
                    usage()
                });
            }
            "--checkpoint-every" => {
                cfg.wal.checkpoint_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--wal-segment-bytes" => {
                cfg.wal.segment_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--replicate-from" => {
                cfg.replicate_from = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--candidate" => cfg.candidate = true,
            "--failover-timeout-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&ms| ms > 0)
                    .unwrap_or_else(|| usage());
                cfg.failover_timeout = std::time::Duration::from_millis(ms);
            }
            "--failover-seed" => {
                cfg.failover_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--repl-heartbeat-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&ms| ms > 0)
                    .unwrap_or_else(|| usage());
                cfg.repl_heartbeat = std::time::Duration::from_millis(ms);
            }
            "--net-name" => {
                cfg.net_label = args.next().unwrap_or_else(|| usage());
            }
            "--peers" => {
                peers = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--trace-dir" => {
                trace_dir = Some(std::path::PathBuf::from(
                    args.next().unwrap_or_else(|| usage()),
                ));
            }
            "--trace-sample" => {
                trace_sample = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f| (0.0..=1.0).contains(f))
                    .unwrap_or_else(|| usage());
            }
            "--slow-stage-ms" => {
                let spec = args.next().unwrap_or_else(|| usage());
                if let Err(e) = apply_slow_stage_spec(&spec) {
                    eprintln!("serve: {e}");
                    usage();
                }
            }
            "--quiet" => intensio_obs::set_level(intensio_obs::Level::Silent),
            "--verbose" => intensio_obs::set_level(intensio_obs::Level::Verbose),
            "--slow-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                intensio_obs::set_slow_span_threshold(std::time::Duration::from_millis(ms));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    // Distinct candidates must jitter differently or a dueling
    // promotion never tie-breaks: an unset (or zero) seed derives one
    // from the listen address (FNV-1a), which is unique per node.
    if cfg.failover_seed == 0 {
        cfg.failover_seed = addr
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
            .max(1);
    }

    if let Some(dir) = &trace_dir {
        match intensio_obs::set_trace_sink(dir, trace_sample) {
            Ok(path) => println!(
                "intensio-serve tracing: {} (sample {trace_sample})",
                path.display()
            ),
            Err(e) => {
                eprintln!("serve: cannot open trace sink in {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    let db = intensio_shipdb::ship_database().expect("ship database");
    let model = intensio_shipdb::ship_model().expect("ship model");
    let workers = cfg.workers;
    let durable = cfg.data_dir.clone().map(|dir| (dir, cfg.wal.fsync));
    let follower_of = cfg.replicate_from.clone();
    let candidate = cfg.candidate;
    let failover_timeout = cfg.failover_timeout;
    let service = match Service::with_config(db, model, cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    };
    if !peers.is_empty() {
        println!("intensio-serve cluster: polling {} peer(s)", peers.len());
        service.set_peers(peers);
    }

    let server = match Server::bind(service, &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    if let Some((dir, fsync)) = durable {
        println!(
            "intensio-serve durable: data-dir {} (fsync {fsync})",
            dir.display()
        );
    }
    if let Some(primary) = follower_of {
        if candidate {
            println!(
                "intensio-serve candidate: replicating from {primary} (reads only; \
                 promotes after {}ms of heartbeat loss)",
                failover_timeout.as_millis()
            );
        } else {
            println!("intensio-serve follower: replicating from {primary} (reads only)");
        }
    }
    println!(
        "intensio-serve listening on {} ({} workers); protocol: SQL <q> | QUEL <script> | EXPLAIN <q> | CHECK [q] | STATS | QUIT",
        server.local_addr(),
        workers
    );

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
