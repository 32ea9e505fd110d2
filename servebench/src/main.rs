//! The serve benchmark: one command that builds a seeded synthetic
//! fleet, opens an in-process `Service` behind a `Server`, and drives
//! it over the TCP wire protocol from one closed-loop client.
//!
//! ```text
//! servebench --workload infer_miss|cache_hit|write_relearn
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod oracle;
mod procfs;
mod stats;
mod trace;
mod workload;

use intensio_serve::json::{self, Json};
use intensio_serve::{escape_script, Client, Server, Service, ServiceConfig};
use intensio_shipdb::synthetic::{generate, Fleet};
use oracle::World;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{fleet_config, Operation, Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// WAL records between checkpoints on `write_relearn`: each cycle logs
/// two (the write and the re-induced rule set), so a checkpoint comes
/// due every eight cycles.
const CHECKPOINT_EVERY: u64 = 16;

/// Failure messages echoed to standard error.
const MAX_REPORTED_FAILURES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A service behind a TCP server, and the benchmark's one connection.
/// Fields drop in order: the connection closes, the server drains, and
/// the last handle to the service then shuts it down on this thread,
/// before the next set-up starts.
pub struct Rig {
    client: Client,
    _server: Server,
    service: Arc<Service>,
    fleet: Fleet,
}

impl Rig {
    /// One request line over the connection.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.client
            .roundtrip(line)
            .map_err(|e| format!("roundtrip: {e}"))
    }

    /// `STATS` over the wire, decoded.
    fn stats(&mut self) -> Result<Json, String> {
        json::parse(&self.roundtrip("STATS")?)
    }
}

/// The service configuration: the defaults, made durable for
/// `write_relearn` (fsync `always` is the default policy).
pub fn service_config(workload: Workload, data_dir: Option<&Path>) -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    if workload == Workload::WriteRelearn {
        cfg.data_dir = data_dir.map(Path::to_path_buf);
        cfg.wal.checkpoint_every = CHECKPOINT_EVERY;
    }
    cfg
}

/// Set-up cost: process CPU seconds (steady under host steal) and
/// wall-clock seconds (reported for reference).
#[derive(Debug, Clone, Copy)]
struct SetupCost {
    cpu: f64,
    wall: f64,
}

/// Generate the fleet, open the service, bind, and wait for the first
/// reply. Returns the rig and what that cost.
fn boot(args: &Args, data_dir: &Path) -> Result<(Rig, SetupCost), String> {
    let started = Instant::now();
    let cpu0 = procfs::process_cpu();
    let fleet = generate(fleet_config(args.seed)).map_err(|e| format!("generate: {e}"))?;
    let cfg = service_config(args.workload, Some(data_dir));
    let service = Arc::new(
        Service::with_config(fleet.db.clone(), fleet.ker_model(), cfg)
            .map_err(|e| format!("open: {e}"))?,
    );
    let server = Server::bind(service.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let client =
        Client::connect(&server.local_addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let mut rig = Rig {
        client,
        _server: server,
        service,
        fleet,
    };
    let first = rig.stats()?;
    let cost = SetupCost {
        cpu: procfs::process_cpu() - cpu0,
        wall: started.elapsed().as_secs_f64(),
    };
    if first.get("rules_fresh").and_then(Json::as_bool) != Some(true) {
        return Err("service booted without fresh rules".to_string());
    }
    Ok((rig, cost))
}

/// Boot [`SETUPS`] times from scratch; keep the last rig.
fn setup(args: &Args, scratch: &Path) -> Result<(Rig, Vec<SetupCost>), String> {
    let mut costs = Vec::new();
    let mut rig = None;
    for i in 0..SETUPS {
        drop(rig.take());
        let (r, cost) = boot(args, &scratch.join(format!("boot-{i}")))?;
        costs.push(cost);
        rig = Some(r);
    }
    Ok((rig.expect("at least one set-up"), costs))
}

/// What one operation produced: its client-side time and its replies.
pub struct Done {
    /// Time from sending the first request to reading the last reply.
    pub elapsed: Duration,
    /// CPU seconds the service's threads used meanwhile.
    pub cpu: f64,
    /// Every reply line, in order.
    pub replies: Vec<String>,
}

/// Run one operation over the wire. Only the requests and replies are
/// timed; checking happens afterwards, in [`check_op`].
pub fn run_op(rig: &mut Rig, op: &Operation) -> Result<Done, String> {
    let cpu0 = procfs::others_cpu();
    let started = Instant::now();
    let replies = match op {
        Operation::Read(q) => vec![rig.roundtrip(&format!("SQL {}", q.sql()))?],
        Operation::Cycle { ship, query } => {
            let ack = rig.roundtrip(&format!("QUEL {}", escape_script(&ship.script())))?;
            let epoch = ack_epoch(&ack)?;
            let read = rig.roundtrip(&format!("SQL@{} {}", epoch + 1, query.sql()))?;
            vec![ack, read]
        }
    };
    let elapsed = started.elapsed();
    Ok(Done {
        elapsed,
        cpu: procfs::others_cpu() - cpu0,
        replies,
    })
}

/// The epoch a write acknowledgement carries.
fn ack_epoch(line: &str) -> Result<u64, String> {
    json::parse(line)?
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("write not acknowledged: {line}"))
}

/// Check one operation's replies against the benchmark's own model,
/// recording an appended ship in it.
pub fn check_op(world: &mut World, op: &Operation, replies: &[String]) -> Result<(), String> {
    match op {
        Operation::Read(q) => world.check(q, &oracle::decode(&replies[0])?),
        Operation::Cycle { ship, query } => {
            let ack = json::parse(&replies[0])?;
            if ack.get("affected").and_then(Json::as_u64) != Some(1) {
                return Err(format!("append not applied: {}", replies[0]));
            }
            world.append_ship(&ship.id, &ship.name, &ship.class);
            let install_epoch = ack_epoch(&replies[0])? + 1;
            let read = oracle::decode(&replies[1])?;
            oracle::check_install_read(&ship.id, install_epoch, &read)?;
            world.check(query, &read)
        }
    }
}

/// A run of whole rounds.
#[derive(Default)]
pub struct Phase {
    /// Each operation's client-side time.
    pub times: Vec<Duration>,
    /// Each operation's service CPU seconds.
    pub cpu: Vec<f64>,
    /// Operations whose output failed a check (or that errored).
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Rounds completed.
    pub rounds: u64,
}

impl Phase {
    fn note(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_REPORTED_FAILURES {
                self.failures.push(e);
            }
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.times.extend(other.times);
        self.cpu.extend(other.cpu);
        self.failed += other.failed;
        self.rounds += other.rounds;
        for f in other.failures {
            if self.failures.len() < MAX_REPORTED_FAILURES {
                self.failures.push(f);
            }
        }
    }
}

/// Drive whole rounds from `first`, starting new ones until `budget`
/// has passed.
fn drive(rig: &mut Rig, world: &mut World, plan: &Plan, first: u64, budget: Duration) -> Phase {
    let started = Instant::now();
    let mut phase = Phase::default();
    let mut r = first;
    loop {
        for op in plan.round(r) {
            match run_op(rig, &op) {
                Ok(done) => {
                    phase.times.push(done.elapsed);
                    phase.cpu.push(done.cpu);
                    phase.note(check_op(world, &op, &done.replies));
                }
                Err(e) => {
                    phase.times.push(Duration::ZERO);
                    phase.cpu.push(0.0);
                    phase.note(Err(e));
                }
            }
        }
        r += 1;
        phase.rounds += 1;
        if started.elapsed() >= budget {
            return phase;
        }
    }
}

/// What a run hands back for its result line.
pub struct Outcome {
    /// The measured operations.
    pub phase: Phase,
    /// `"name":{"value":..,"unit":..}` entries.
    pub metrics: Vec<String>,
    /// Whether the benchmark's own consistency checks held.
    pub consistent: bool,
}

/// Counter deltas from two `STATS` replies.
pub struct StatsDelta {
    before: Json,
    after: Json,
}

impl StatsDelta {
    /// `after - before` of a top-level counter, or of a `durability`
    /// counter (0 for an in-memory service).
    pub fn get(&self, path: &[&str]) -> f64 {
        let read = |v: &Json| {
            path.iter()
                .try_fold(v, |v, k| v.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        read(&self.after).saturating_sub(read(&self.before)) as f64
    }
}

fn median_of(costs: &[SetupCost], f: impl Fn(&SetupCost) -> f64) -> f64 {
    let v: Vec<f64> = costs.iter().map(f).collect();
    stats::median(&v).expect("set-ups ran")
}

/// Operations per round.
fn round_len(plan: &Plan) -> usize {
    plan.round(0).len()
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The untraced run: the gated end-to-end metrics, and wall-clock
/// reference figures.
fn end_to_end(
    rig: &mut Rig,
    world: &mut World,
    plan: &Plan,
    first_round: u64,
    budget: Duration,
    setups: &[SetupCost],
) -> Result<Outcome, String> {
    let before = rig.stats()?;
    let host0 = procfs::host_cpu_ticks();
    let cpu0 = procfs::others_cpu();
    let phase = drive(rig, world, plan, first_round, budget);
    let cpu = procfs::others_cpu() - cpu0;
    let host = procfs::host_cpu_ticks();
    let delta = StatsDelta {
        before,
        after: rig.stats()?,
    };
    let ops = phase.times.len() as f64;
    let wall_us: Vec<f64> = phase.times.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let cpu_us: Vec<f64> = phase.cpu.iter().map(|c| c * 1e6).collect();
    // Wall-clock figures move with the host's CPU steal, so they are
    // printed for reference and not gated.
    println!(
        "reference: op_p50_us {:.0}, ops_per_s {:.2} (median of {}-operation blocks), {}",
        stats::median(&wall_us).ok_or("no operations timed")?,
        stats::block_median_rate(&phase.times, round_len(plan)).ok_or("no whole round timed")?,
        round_len(plan),
        match stats::tail_percentile(&wall_us) {
            Some(t) => format!(
                "tail p{} {:.0} us over {} operations ({} beyond)",
                t.percentile, t.value, t.samples, t.beyond
            ),
            None => "under 40 operations, no tail".to_string(),
        }
    );
    println!(
        "reference: setup wall {:.3} s (median of {SETUPS})",
        median_of(setups, |c| c.wall)
    );
    if let (Ok(h0), Ok(h1)) = (host0, host) {
        let d: Vec<u64> = h1
            .iter()
            .zip(&h0)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        // user + system vs steal, over every CPU of the host.
        let busy = (d[0] + d[2]) as f64;
        println!(
            "reference: host steal {:.0}% of busy-or-stolen CPU time",
            100.0 * d[7] as f64 / (busy + d[7] as f64).max(1.0)
        );
    }
    eprintln!(
        "served {} queries, {} cache hits, {} installs over {ops} operations",
        delta.get(&["queries"]),
        delta.get(&["cache_hits"]),
        delta.get(&["inductions"])
    );
    let metrics = vec![
        metric("setup_s", median_of(setups, |c| c.cpu), "s"),
        metric(
            "op_cpu_p50_us",
            stats::median(&cpu_us).expect("operations timed"),
            "us",
        ),
        metric("cpu_us_per_op", cpu * 1e6 / ops, "us"),
        metric(
            "peak_rss_mib",
            procfs::peak_rss_mib().map_err(|e| e.to_string())?,
            "MiB",
        ),
    ];
    Ok(Outcome {
        phase,
        metrics,
        consistent: true,
    })
}

fn run(args: &Args, scratch: &Path) -> Result<String, String> {
    let (mut rig, setups) = setup(args, scratch)?;
    let mut world = World::new(&rig.fleet);
    let plan = Plan::new(args.workload, args.seed, &world.type_band);
    // One warm-up round: pages in code, fills the answer cache on
    // `cache_hit`, and is checked and counted like the rest.
    let mut all = drive(&mut rig, &mut world, &plan, 0, Duration::ZERO);
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        trace::run(&mut rig, &mut world, &plan, budget, scratch)?
    } else {
        end_to_end(&mut rig, &mut world, &plan, all.rounds, budget, &setups)?
    };
    all.absorb(outcome.phase);
    for f in &all.failures {
        eprintln!("failed: {f}");
    }
    let attempted = all.times.len() as u64;
    drop(rig);
    Ok(result_line(
        outcome.consistent,
        attempted,
        all.failed,
        &outcome.metrics,
    ))
}

fn main() {
    procfs::single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload infer_miss|cache_hit|write_relearn --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Throwaway state (data directories, the traced run's private WAL)
    // lives under the working directory and is removed on exit.
    let scratch: PathBuf = Path::new(".servebench-run").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))
        .and_then(|()| run(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".servebench-run");
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
