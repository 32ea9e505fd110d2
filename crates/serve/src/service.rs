//! The concurrent intensional query service.
//!
//! A [`Service`] owns one epoch-versioned [`Snapshot`] behind a
//! read/write lock, a worker pool draining a request queue, an LRU
//! [`AnswerCache`], and its background threads. This module holds the
//! shared state, the worker pool and the one commit path; each
//! background concern has its own child module:
//!
//! * `query` executes requests (SQL, EXPLAIN, PROFILE, QUEL, CHECK,
//!   FAULT), and the QUEL write path;
//! * `durability` boots (in memory or from disk), replays records, and
//!   runs the checkpointer;
//! * `induction` runs the background inducer;
//! * `replication` serves `REPLICATE` streams, tails a primary, and
//!   promotes a candidate;
//! * `telemetry` answers `STATS` and `TELEMETRY` and polls peers.
//!
//! The concurrency story:
//!
//! * **Readers never block on writers or on induction.** A query pins
//!   the current `Arc<Snapshot>` under a briefly held read lock and
//!   computes against that immutable state.
//! * **Epochs advance through one commit path.** `write_lock`
//!   serializes every epoch advance — a QUEL write, a rule install, a
//!   promotion's term bump, a follower's applied record — and each goes
//!   through `Shared::commit`: WAL append, install, `#repl` publish,
//!   checkpoint-due check, in that order.
//!
//! The fault-tolerance story layers on top:
//!
//! * **Admission control.** The request queue is bounded
//!   ([`ServiceConfig::queue_capacity`]); past the bound, [`Service::submit`]
//!   sheds the request immediately with [`Reply::Busy`] instead of letting
//!   latency collapse for everyone.
//! * **Workers are expendable.** Each request runs under `catch_unwind`;
//!   a panic becomes an error reply. If a worker thread dies anyway, a
//!   supervisor thread restarts it (`worker_restarts` in stats).
//!
//! Failpoints from [`intensio_fault`] (`serve.cache`, `serve.install`,
//! `serve.worker`, plus the storage/induction/inference points) exercise
//! all of these paths; see the chaos integration test.

mod durability;
mod induction;
mod query;
mod replication;
mod telemetry;

use crate::cache::AnswerCache;
use crate::gate::InstallGate;
use crate::reply::{PeerTelemetry, Reply, Request, StatsReply};
use crate::snapshot::Snapshot;
use durability::{boot, checkpointer_loop, Booted, Durability};
use induction::inducer_loop;
use intensio_induction::InductionConfig;
use intensio_inference::InferenceConfig;
use intensio_ker::model::KerModel;
use intensio_repl::ReplHub;
use intensio_rules::rule::RuleSet;
use intensio_storage::catalog::Database;
use intensio_wal::record::Record;
use intensio_wal::{WalConfig, WalError};
use query::{error, execute};
use replication::{replicator_loop, ReplState};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use telemetry::{poller_loop, stats_reply};

/// Tuning knobs for [`Service::with_config`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Maximum cached intensional answers.
    pub cache_capacity: usize,
    /// ILS configuration for (re-)induction.
    pub induction: InductionConfig,
    /// Threads for the parallel ILS driver.
    pub induction_threads: usize,
    /// Inference configuration for every query.
    pub inference: InferenceConfig,
    /// Induce rules synchronously before serving the first request.
    pub learn_on_open: bool,
    /// Maximum requests waiting in the queue before [`Service::submit`]
    /// sheds new arrivals with [`Reply::Busy`]. `0` disables shedding.
    pub queue_capacity: usize,
    /// Per-request time budget, measured from submission. A request
    /// over budget degrades its intensional side (stale cache, then
    /// extensional-only) instead of running fresh inference. `None`
    /// disables deadlines.
    pub deadline: Option<std::time::Duration>,
    /// How many epochs of superseded cached answers to keep around for
    /// degraded (stale) serving.
    pub stale_epochs: u64,
    /// Base delay for retrying a failed background re-induction.
    pub induction_backoff: std::time::Duration,
    /// Upper bound on the re-induction retry delay.
    pub induction_backoff_cap: std::time::Duration,
    /// Run [`intensio_check::check_rules`] over every induced rule set
    /// before installing it, and refuse installs with Error-level
    /// findings (counted in `rulesets_rejected`). The gate also backs
    /// the `CHECK` protocol verb's ability to retroactively reject the
    /// live rule set's cached answers.
    pub check_rulesets: bool,
    /// Root directory for durable state. When set, the service recovers
    /// its knowledge state from the directory's checkpoints and
    /// write-ahead log at boot, and acknowledges a mutation only after
    /// its WAL record is appended under [`ServiceConfig::wal`]'s fsync
    /// policy. `None` keeps the service purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// WAL tuning (fsync policy, segment size, checkpoint cadence);
    /// only consulted when [`ServiceConfig::data_dir`] is set.
    pub wal: WalConfig,
    /// Primary address(es) (`HOST:PORT[,HOST:PORT...]`) to replicate
    /// from, tried in order. When set, this node boots as a read-only
    /// **follower**: it bootstraps over the wire (log tail or full
    /// snapshot), tails the primary's committed records, and re-gates
    /// every shipped rule set through the same static-analysis check a
    /// local install would pass. Mutating requests are refused with a
    /// `READONLY` error, and the node never runs its own induction —
    /// shipping the *induced* rules is what keeps intensional answers
    /// identical cluster-wide.
    pub replicate_from: Option<String>,
    /// Boot as a failover **candidate**: a follower that monitors the
    /// replication stream's heartbeats and, on loss past
    /// [`ServiceConfig::failover_timeout`] (plus seeded jitter),
    /// promotes itself to primary — bumping the term, fsyncing a
    /// `TERM` record, and fencing the deposed primary's lineage.
    pub candidate: bool,
    /// Heartbeat-loss budget before a candidate starts promotion. The
    /// effective deadline is `timeout/2 + jitter`, with jitter drawn
    /// seeded from `[timeout/2, timeout)` — i.e. in
    /// `[timeout, 1.5*timeout)` — so dueling candidates with equal
    /// timeouts break the tie deterministically by seed.
    pub failover_timeout: std::time::Duration,
    /// Seed for the promotion jitter (and reconnect backoff). Give each
    /// candidate a distinct seed; 0 is a valid seed.
    pub failover_seed: u64,
    /// Cadence of `#repl heartbeat` frames on idle primary streams, and
    /// the follower's staleness baseline.
    pub repl_heartbeat: std::time::Duration,
    /// This node's name on the cluster network (`--net-name`): the
    /// local label every [`intensio_net`] connection carries, announced
    /// to the primary in the `REPLICATE ... node=<label>` handshake.
    /// Link-fault specs (`net.partition=a<->b`) address nodes by this
    /// label; empty means unlabeled (specs can still match by raw
    /// address, or `*`).
    pub net_label: String,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            workers: cores.clamp(2, 8),
            cache_capacity: 256,
            induction: InductionConfig::default(),
            induction_threads: cores.clamp(1, 4),
            inference: InferenceConfig::default(),
            learn_on_open: true,
            queue_capacity: 1024,
            deadline: None,
            stale_epochs: 2,
            induction_backoff: std::time::Duration::from_millis(50),
            induction_backoff_cap: std::time::Duration::from_secs(2),
            check_rulesets: true,
            data_dir: None,
            wal: WalConfig::default(),
            replicate_from: None,
            candidate: false,
            failover_timeout: std::time::Duration::from_millis(1000),
            failover_seed: 0,
            repl_heartbeat: std::time::Duration::from_millis(500),
            net_label: String::new(),
        }
    }
}

/// The bounds on every short cluster-I/O wait and background tick.
mod timeouts {
    use std::time::Duration;

    /// Read tick on a follower's replication stream: how often a
    /// blocked stream read wakes to check the failover clock, shutdown,
    /// and half-open staleness.
    pub const STREAM_READ_TICK: Duration = Duration::from_millis(200);
    /// Connect bound for one `TELEMETRY` poll of a peer (an unreachable
    /// peer costs the poll loop this much, never a query worker).
    pub const PEER_CONNECT: Duration = Duration::from_millis(250);
    /// Reply bound for one `TELEMETRY` poll round trip.
    pub const PEER_REPLY: Duration = Duration::from_millis(500);
    /// Connect bound for a follower's replication stream attempt.
    pub const REPL_CONNECT: Duration = Duration::from_millis(500);
    /// Tick for condvar waits on the background inducer/checkpointer
    /// loops (how often they re-check shutdown without a wake).
    pub const BACKGROUND_WAIT_TICK: Duration = Duration::from_millis(200);
}

/// Replication roles, stored in [`Shared::role`] as a `usize` so role
/// transitions (promotion, demotion) are a single atomic store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, runs induction, serves `REPLICATE` streams.
    Primary,
    /// Read-only; tails a primary's stream.
    Follower,
    /// A follower that promotes itself on heartbeat loss.
    Candidate,
}

impl Role {
    fn from_usize(v: usize) -> Role {
        match v {
            0 => Role::Primary,
            2 => Role::Candidate,
            _ => Role::Follower,
        }
    }

    fn as_usize(self) -> usize {
        match self {
            Role::Primary => 0,
            Role::Follower => 1,
            Role::Candidate => 2,
        }
    }

    /// Wire name, as reported by `STATS` and `TELEMETRY`.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Candidate => "candidate",
        }
    }
}

/// Service construction failure: boot recovery or the durable boot
/// checkpoint, the initial induction, or spawning a thread.
#[derive(Debug)]
pub struct ServeError(pub String);

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serve: {}", self.0)
    }
}

impl std::error::Error for ServeError {}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    writes: AtomicU64,
    inductions: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    worker_restarts: AtomicU64,
    induction_retries: AtomicU64,
    rulesets_rejected: AtomicU64,
    rules_pruned: AtomicU64,
    degraded: AtomicU64,
}

/// The wake-up signal of a condvar-driven background thread (the
/// inducer and the checkpointer each own one).
#[derive(Default)]
struct Wake {
    flags: Mutex<WakeFlags>,
    cv: Condvar,
}

#[derive(Default, Clone, Copy)]
struct WakeFlags {
    /// There is work.
    dirty: bool,
    shutdown: bool,
}

impl Wake {
    fn raise(&self, set: impl FnOnce(&mut WakeFlags)) {
        set(&mut self.flags.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    /// Signal work.
    fn signal(&self) {
        self.raise(|f| f.dirty = true);
    }

    /// Signal shutdown.
    fn shut_down(&self) {
        self.raise(|f| f.shutdown = true);
    }

    /// Block until there is work or shutdown, and consume the work
    /// signal. Returns the flags as they were.
    fn wait(&self) -> WakeFlags {
        let mut flags = self.flags.lock().unwrap_or_else(|e| e.into_inner());
        while !flags.dirty && !flags.shutdown {
            flags = self
                .cv
                .wait_timeout(flags, timeouts::BACKGROUND_WAIT_TICK)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        let seen = *flags;
        flags.dirty = false;
        seen
    }

    /// Sleep for `delay` unless shut down, then signal work, so a retry
    /// happens even when nothing new arrives. Returns `false` on
    /// shutdown.
    fn retry_after(&self, delay: std::time::Duration) -> bool {
        let mut flags = self.flags.lock().unwrap_or_else(|e| e.into_inner());
        if !flags.shutdown {
            flags = self
                .cv
                .wait_timeout(flags, delay)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        flags.dirty = !flags.shutdown;
        flags.dirty
    }
}

/// How a commit's WAL record reaches the disk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Barrier {
    /// The configured fsync policy.
    Policy,
    /// An fsync whatever the policy: a promotion that is not durable is
    /// not a promotion.
    Forced,
}

struct Shared {
    state: RwLock<Arc<Snapshot>>,
    /// Serializes every epoch advance (see [`Shared::commit`]), so
    /// epoch successors are computed from the snapshot they replace.
    write_lock: Mutex<()>,
    cache: Mutex<AnswerCache>,
    cfg: ServiceConfig,
    counters: Counters,
    /// The install gate every rule set passes before it is served.
    gate: InstallGate,
    /// Signals the background inducer.
    induce: Wake,
    /// Signals the background checkpointer (durable mode only).
    ckpt: Wake,
    /// Jobs accepted but not yet picked up by a worker; the admission
    /// gauge for load shedding.
    queue_depth: AtomicUsize,
    /// Set by [`Service`]'s drop before the queue closes, so the
    /// supervisor stops resurrecting workers that exited on purpose.
    shutdown: AtomicBool,
    /// Durable mode: the WAL writer plus what boot recovery observed.
    /// The `Wal` mutex nests *inside* `write_lock` on the commit path;
    /// readers (stats) and the background checkpointer take it alone,
    /// never `write_lock`, so the order is acyclic.
    durability: Option<Durability>,
    /// Replication fan-out: the commit path publishes every committed
    /// record here (after install, still under `write_lock`, so streams
    /// observe strict epoch order).
    repl_hub: ReplHub,
    /// This node's replication role (see [`Role`]); transitions are a
    /// single atomic store (promotion, demotion).
    role: AtomicUsize,
    /// Mirror of the installed snapshot's term, kept current by
    /// [`Shared::install`] and raised eagerly when a higher term is
    /// observed on the wire. Monotonic.
    term: AtomicU64,
    /// Replication state: always present so a deposed primary can
    /// demote into a follower and tail its successor.
    repl: ReplState,
    /// Peer addresses the cluster-telemetry poller samples
    /// ([`Service::set_peers`]); empty until configured.
    peers: RwLock<Vec<String>>,
    /// The latest cluster-wide telemetry sample, merged into `STATS`.
    cluster: Mutex<Vec<PeerTelemetry>>,
}

impl Shared {
    /// Pin the current snapshot (brief read lock, then lock-free use).
    fn snapshot(&self) -> Arc<Snapshot> {
        self.state.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn install(&self, snapshot: Snapshot) {
        // Failpoint before the publish: an armed `error` or `panic` spec
        // aborts the install atomically. The unwind is caught by the
        // worker (the client sees an error, the mutation never lands) or
        // by the inducer's retry loop.
        if let Err(f) = intensio_fault::fire("serve.install") {
            panic!("{f}");
        }
        let epoch = snapshot.epoch;
        self.term.fetch_max(snapshot.term, Ordering::Relaxed);
        *self.state.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain_recent(epoch, self.cfg.stale_epochs);
        intensio_obs::inc("serve.epoch_swaps");
        intensio_obs::gauge("serve.epoch", epoch as i64);
    }

    /// Advance the knowledge state by one epoch to `next`, the successor
    /// of the installed snapshot. Every epoch advance goes through here:
    /// a QUEL write, a rule install, a promotion's term bump, and a
    /// record a follower applies. The caller holds `write_lock`.
    ///
    /// 1. Durable mode: append `record(&next)` to the WAL under
    ///    `barrier`. An in-memory service never builds the record. On
    ///    failure nothing is installed: the writer rewound the log, so
    ///    the epoch is free for a retry.
    /// 2. Install `next`.
    /// 3. Publish the record to the `#repl` streams, still under
    ///    `write_lock`, so every stream observes strict epoch order. The
    ///    `wal.append` span's ids ride along, so a follower's apply span
    ///    joins the commit's trace. (A follower's hub has no streams:
    ///    `REPLICATE` is refused on a non-primary.)
    /// 4. Wake the checkpointer when its cadence is due.
    fn commit(
        &self,
        next: Snapshot,
        record: impl FnOnce(&Snapshot) -> Result<Record, WalError>,
        barrier: Barrier,
    ) -> Result<(), WalError> {
        let mut logged = None;
        let mut due = false;
        if let Some(dur) = &self.durability {
            let record = record(&next)?;
            let span = intensio_obs::Span::stage("wal.append", intensio_obs::Stage::WalAppend)
                .with_field("epoch", next.epoch);
            {
                let mut wal = dur.wal.lock().unwrap_or_else(|e| e.into_inner());
                wal.append(&record)?;
                if barrier == Barrier::Forced {
                    wal.sync()?;
                }
                due = wal.checkpoint_due();
            }
            logged = Some((record, span.trace_ids()));
        }
        self.install(next);
        if let Some((record, trace)) = logged {
            self.repl_hub.publish(&record, trace);
        }
        if due {
            self.ckpt.signal();
        }
        Ok(())
    }

    fn note_rules_pruned(&self, n: u64) {
        if n > 0 {
            self.counters.rules_pruned.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn note_ruleset_rejected(&self) {
        self.counters
            .rulesets_rejected
            .fetch_add(1, Ordering::Relaxed);
        intensio_obs::inc("serve.rulesets_rejected");
    }

    /// Pass `candidate`, induced from or shipped for `db`, through the
    /// install gate, counting a rejection or the rules pruned. Returns
    /// the set to install, `None` when the gate rejected it.
    fn admit(&self, candidate: RuleSet, db: &Database) -> Option<Arc<RuleSet>> {
        let verdict = self.gate.admit(candidate, db);
        if verdict.rules.is_none() {
            self.note_ruleset_rejected();
        }
        self.note_rules_pruned(verdict.pruned);
        verdict.rules
    }

    /// This node's current replication role.
    fn role(&self) -> Role {
        Role::from_usize(self.role.load(Ordering::SeqCst))
    }

    /// Whether this node currently accepts writes and serves streams.
    fn is_primary(&self) -> bool {
        self.role() == Role::Primary
    }

    /// The highest term this node has durably observed.
    fn current_term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    /// Refresh the `repl.lag_epochs` gauge from the follower's local
    /// epoch and the highest epoch the primary has reported.
    fn update_lag(&self) {
        if !self.is_primary() {
            let primary = self.repl.primary_epoch.load(Ordering::Relaxed);
            let local = self.snapshot().epoch;
            intensio_obs::gauge("repl.lag_epochs", primary.saturating_sub(local) as i64);
        }
    }

    /// Demote this node to follower after observing `new_term` (higher
    /// than its own) from `source`. The local state is left as-is — the
    /// replicator will tail the new primary, whose higher-term stream
    /// is allowed to rewind any orphaned local suffix. Idempotent per
    /// term: a second observation of the same term is a no-op.
    fn demote(&self, new_term: u64, source: &str) {
        if self.term.fetch_max(new_term, Ordering::SeqCst) >= new_term {
            return;
        }
        let was = self.role.swap(Role::Follower.as_usize(), Ordering::SeqCst);
        if Role::from_usize(was) == Role::Primary {
            intensio_obs::inc("repl.demotions");
            intensio_obs::gauge("repl.term", new_term as i64);
            let _ = intensio_obs::flight_record("demotion");
            eprintln!(
                "intensio-serve: demoted to follower — observed term {new_term} from {source} \
                 (own lineage fenced)"
            );
        }
    }
}

struct Job {
    request: Request,
    reply_to: SyncSender<Reply>,
    /// When the job entered the queue, for queue-wait telemetry.
    enqueued: std::time::Instant,
    /// Absolute deadline, from [`ServiceConfig::deadline`].
    deadline: Option<std::time::Instant>,
    /// Read-your-writes floor: the worker waits (bounded by the
    /// deadline ladder) for the local epoch to reach this before
    /// executing; a still-behind follower redirects to its primary.
    min_epoch: Option<u64>,
    /// The request's trace context: propagated from the wire (`#trace`
    /// prefix) or minted at admission under the sink's sampling rate.
    /// The worker installs it for the job's duration so every span the
    /// request opens joins the trace.
    trace: Option<intensio_obs::TraceContext>,
}

/// The concurrent intensional query service. See the module docs for
/// the concurrency design; see [`crate::server`] for the TCP front end.
pub struct Service {
    shared: Arc<Shared>,
    queue: Mutex<Option<Sender<Job>>>,
    /// The supervisor owns the worker handles; see [`supervise`].
    supervisor: Mutex<Option<JoinHandle<()>>>,
    /// Background inducer; runs on every node but only learns while
    /// the node is primary (rules are shipped to followers).
    inducer: Mutex<Option<JoinHandle<()>>>,
    /// Background checkpointer; `None` for in-memory services.
    checkpointer: Mutex<Option<JoinHandle<()>>>,
    /// Apply/reconnect/failover loop; runs on every node but idles
    /// while the node is primary.
    replicator: Mutex<Option<JoinHandle<()>>>,
    /// Cluster-telemetry poller; idle until [`Service::set_peers`].
    poller: Mutex<Option<JoinHandle<()>>>,
}

impl Service {
    /// Open a service over a database and its KER model with default
    /// configuration (induces rules before serving).
    pub fn open(db: Database, model: KerModel) -> Result<Service, ServeError> {
        Service::with_config(db, model, ServiceConfig::default())
    }

    /// Open a service with explicit configuration. With
    /// [`ServiceConfig::data_dir`] set, boot recovers the knowledge
    /// state from the newest valid checkpoint plus the write-ahead
    /// log, re-checks recovered rule sets through the static-analysis
    /// gate, and pins the result with a fresh boot checkpoint before
    /// accepting any request.
    pub fn with_config(
        db: Database,
        model: KerModel,
        mut cfg: ServiceConfig,
    ) -> Result<Service, ServeError> {
        // A follower never induces: its rule sets arrive over the wire
        // from the primary (re-gated locally), which is what keeps
        // intensional answers identical cluster-wide.
        if cfg.replicate_from.is_some() {
            cfg.learn_on_open = false;
        }
        let gate = InstallGate::new(cfg.check_rulesets, cfg.induction.min_support);
        let Booted {
            snapshot,
            durability,
            rejected,
            pruned,
        } = boot(&cfg, &gate, db, model)?;
        // Arm the flight recorder: worker panics, shed onset, ladder
        // degradation, and shutdown dump the span ring + metrics here.
        if let Some(dir) = &cfg.data_dir {
            intensio_obs::flightrec::set_dir(Some(dir));
        }
        let workers = cfg.workers.max(1);
        let targets: Vec<String> = cfg
            .replicate_from
            .as_deref()
            .unwrap_or("")
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect();
        let role = if targets.is_empty() {
            Role::Primary
        } else if cfg.candidate {
            Role::Candidate
        } else {
            Role::Follower
        };
        let term = snapshot.term;
        let shared = Arc::new(Shared {
            state: RwLock::new(Arc::new(snapshot)),
            write_lock: Mutex::new(()),
            cache: Mutex::new(AnswerCache::new(cfg.cache_capacity)),
            cfg,
            counters: Counters::default(),
            gate,
            induce: Wake::default(),
            ckpt: Wake::default(),
            queue_depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            durability,
            repl_hub: ReplHub::new(),
            role: AtomicUsize::new(role.as_usize()),
            term: AtomicU64::new(term),
            repl: ReplState::new(targets),
            peers: RwLock::new(Vec::new()),
            cluster: Mutex::new(Vec::new()),
        });
        intensio_obs::gauge("repl.term", term as i64);
        if rejected {
            shared.note_ruleset_rejected();
        }
        shared.note_rules_pruned(pruned);

        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            handles.push(
                spawn_worker(&format!("intensio-worker-{i}"), &shared, &rx)
                    .map_err(|e| ServeError(format!("spawning worker: {e}")))?,
            );
        }
        let supervisor = {
            let shared = shared.clone();
            let rx = rx.clone();
            std::thread::Builder::new()
                .name("intensio-supervisor".to_string())
                .spawn(move || supervise(&shared, &rx, handles))
                .map_err(|e| ServeError(format!("spawning supervisor: {e}")))?
        };
        // Every node runs an inducer and a replicator: the inducer
        // idles unless the node is primary, the replicator idles unless
        // it is not — so a promotion or demotion is a role flip, not a
        // thread lifecycle event.
        let inducer = spawn_background(&shared, "inducer", inducer_loop)?;
        let replicator = spawn_background(&shared, "replicator", replicator_loop)?;
        let checkpointer = match shared.durability {
            Some(_) => Some(spawn_background(
                &shared,
                "checkpointer",
                checkpointer_loop,
            )?),
            None => None,
        };
        let poller = spawn_background(&shared, "telemetry", poller_loop)?;

        Ok(Service {
            shared,
            queue: Mutex::new(Some(tx)),
            supervisor: Mutex::new(Some(supervisor)),
            inducer: Mutex::new(Some(inducer)),
            checkpointer: Mutex::new(checkpointer),
            replicator: Mutex::new(Some(replicator)),
            poller: Mutex::new(Some(poller)),
        })
    }

    /// Name the peers the cluster-telemetry poller samples (follower
    /// addresses on a primary, or any set of nodes to watch). Replaces
    /// any previous set; the next poll round uses it.
    pub fn set_peers(&self, peers: Vec<String>) {
        *self.shared.peers.write().unwrap_or_else(|e| e.into_inner()) = peers;
    }

    /// This node's cluster-network label ([`ServiceConfig::net_label`]);
    /// empty when unlabeled. The TCP server stamps it on every accepted
    /// connection, and the replicator announces it upstream.
    pub fn net_label(&self) -> &str {
        &self.shared.cfg.net_label
    }

    /// Execute a request on the worker pool and wait for its reply.
    /// Returns [`Reply::Busy`] without executing anything when the
    /// queue is at capacity.
    pub fn submit(&self, request: Request) -> Reply {
        self.submit_at(request, None)
    }

    /// [`Service::submit`] with a read-your-writes floor: the request
    /// does not execute until this node's epoch reaches `min_epoch`
    /// (e.g. the epoch a write acknowledgement carried). The wait is
    /// bounded by the deadline ladder; a follower still behind at the
    /// bound answers with a `REDIRECT` error naming its primary.
    pub fn submit_at(&self, request: Request, min_epoch: Option<u64>) -> Reply {
        self.submit_traced(request, min_epoch, None)
    }

    /// [`Service::submit_at`] with an explicit trace context (e.g. one
    /// propagated from the wire's `#trace` prefix). With `None`, a
    /// fresh root trace is minted under the sink's sampling rate.
    pub fn submit_traced(
        &self,
        request: Request,
        min_epoch: Option<u64>,
        trace: Option<intensio_obs::TraceContext>,
    ) -> Reply {
        let shared = &self.shared;
        let trace = trace.or_else(intensio_obs::start_trace);
        let cap = shared.cfg.queue_capacity;
        if cap > 0 && shared.queue_depth.load(Ordering::Relaxed) >= cap {
            let prev = shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            intensio_obs::inc("serve.requests_shed");
            if prev == 0 {
                // First shed since boot: capture the span ring while
                // the overload that caused it is still in view.
                let _ = intensio_obs::flight_record("shed_onset");
            }
            return Reply::Busy;
        }
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        // Count the job before sending so a racing worker's decrement
        // can never observe the queue at depth zero and underflow.
        shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        let deadline = shared.cfg.deadline.map(|d| std::time::Instant::now() + d);
        let sent = {
            let queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            match queue.as_ref() {
                Some(tx) => tx
                    .send(Job {
                        request,
                        reply_to: reply_tx,
                        enqueued: std::time::Instant::now(),
                        deadline,
                        min_epoch,
                        trace,
                    })
                    .is_ok(),
                None => false,
            }
        };
        if !sent {
            shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            return Reply::Error {
                message: "service is shut down".to_string(),
            };
        }
        reply_rx.recv().unwrap_or(Reply::Error {
            message: "worker dropped the request".to_string(),
        })
    }

    /// Current statistics (answered inline, not via the worker pool).
    pub fn stats(&self) -> StatsReply {
        stats_reply(&self.shared)
    }

    /// Current knowledge epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.snapshot().epoch
    }

    /// The rule set the current snapshot serves.
    pub fn rules(&self) -> Arc<RuleSet> {
        Arc::clone(self.shared.snapshot().dictionary.shared_rules())
    }

    /// Block until the current snapshot's rules match its data version
    /// (i.e. any triggered background induction has landed), up to
    /// `timeout`. Returns whether freshness was reached. Queries keep
    /// flowing while waiting — this is a test/ops convenience, not a
    /// barrier the request path ever takes.
    pub fn wait_rules_fresh(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.shared.snapshot().rules_fresh {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Final flight-recorder dump. The workspace forbids unsafe
        // code, so there is no signal handler to hook SIGTERM: orderly
        // shutdown (which a caught SIGTERM funnels into by dropping
        // the service) dumps here instead.
        let _ = intensio_obs::flight_record("shutdown");
        intensio_obs::flush_trace_sink();
        // Tell the supervisor this is a planned exit, then close the
        // queue; workers drain and exit, the supervisor joins them.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        join(&self.poller);
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).take();
        join(&self.supervisor);
        // The replicator polls the shutdown flag on its read ticks and
        // between reconnect backoff steps; no wake needed.
        join(&self.replicator);
        self.shared.induce.shut_down();
        join(&self.inducer);
        // The checkpointer goes down last among the writers' helpers: a
        // cadence signal raised by the final writes or rule installs is
        // still honored, so the shutdown checkpoint bounds the next
        // boot's replay.
        self.shared.ckpt.shut_down();
        join(&self.checkpointer);
        // Final durability barrier: under a batch/off fsync policy the
        // tail of the log may still be in the page cache.
        if let Some(dur) = &self.shared.durability {
            let _ = dur.wal.lock().unwrap_or_else(|e| e.into_inner()).sync();
        }
    }
}

/// Join the thread in `slot`, if it is still there.
fn join(slot: &Mutex<Option<JoinHandle<()>>>) {
    if let Some(h) = slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
        let _ = h.join();
    }
}

/// Spawn the background thread `intensio-<name>` running `body`.
fn spawn_background(
    shared: &Arc<Shared>,
    name: &str,
    body: fn(&Shared),
) -> Result<JoinHandle<()>, ServeError> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("intensio-{name}"))
        .spawn(move || body(&shared))
        .map_err(|e| ServeError(format!("spawning {name}: {e}")))
}

fn spawn_worker(
    name: &str,
    shared: &Arc<Shared>,
    rx: &Arc<Mutex<Receiver<Job>>>,
) -> std::io::Result<JoinHandle<()>> {
    let shared = shared.clone();
    let rx = rx.clone();
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || worker_loop(&shared, &rx))
}

/// Restart worker threads that die (a panic that escapes the
/// per-request `catch_unwind`, or the `serve.worker` failpoint). On
/// shutdown the queue closes, workers drain and exit on purpose, and
/// the supervisor joins them instead of resurrecting them.
fn supervise(
    shared: &Arc<Shared>,
    rx: &Arc<Mutex<Receiver<Job>>>,
    mut workers: Vec<JoinHandle<()>>,
) {
    let mut generation: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            for h in workers.drain(..) {
                let _ = h.join();
            }
            return;
        }
        for slot in workers.iter_mut() {
            if !slot.is_finished() || shared.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            generation += 1;
            let name = format!("intensio-worker-r{generation}");
            let fresh = match spawn_worker(&name, shared, rx) {
                Ok(h) => h,
                Err(_) => continue, // out of threads: keep the dead slot, retry next tick
            };
            let dead = std::mem::replace(slot, fresh);
            let _ = dead.join();
            shared
                .counters
                .worker_restarts
                .fetch_add(1, Ordering::Relaxed);
            intensio_obs::inc("serve.worker_restarts");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let job = match job {
            Ok(job) => job,
            Err(_) => return, // queue closed: shut down
        };
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        intensio_obs::record_stage(intensio_obs::Stage::QueueWait, job.enqueued.elapsed());
        // Worker-crash failpoint. Deliberately outside the catch_unwind
        // so the thread actually dies: the reply channel drops (the
        // client sees "worker dropped the request") and the supervisor
        // restarts the worker.
        if intensio_fault::fire("serve.worker").is_err() {
            return;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Install the job's trace context for its whole run;
            // the guard restores the previous one (workers are
            // reused) even when the request panics.
            let _trace = intensio_obs::with_context(job.trace);
            match await_min_epoch(shared, job.min_epoch, job.deadline) {
                Some(reply) => reply,
                None => execute(shared, &job.request, job.deadline),
            }
        }));
        let reply = outcome.unwrap_or_else(|p| {
            let _ = intensio_obs::flight_record("request_panic");
            Reply::Error {
                message: format!("request panicked: {}", panic_message(p.as_ref())),
            }
        });
        if matches!(reply, Reply::Error { .. }) {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            intensio_obs::inc("serve.errors");
        }
        let _ = job.reply_to.send(reply);
    }
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(p: &(dyn std::any::Any + Send)) -> &str {
    p.downcast_ref::<&'static str>()
        .copied()
        .or_else(|| p.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// How long a `min_epoch` request may wait for replication to catch up
/// when no per-request deadline is configured.
const MIN_EPOCH_WAIT: std::time::Duration = std::time::Duration::from_secs(2);

/// Read-your-writes barrier: block (briefly) until this node's epoch
/// reaches `min_epoch`. `None` means proceed; `Some(reply)` is the
/// ready-made answer for a node that stayed behind past the bound — a
/// follower redirects to its primary, a primary reports the requested
/// epoch as unknown (it is the commit point; a higher epoch does not
/// exist yet).
fn await_min_epoch(
    shared: &Shared,
    min_epoch: Option<u64>,
    deadline: Option<std::time::Instant>,
) -> Option<Reply> {
    let min_epoch = min_epoch?;
    let bound = deadline.unwrap_or_else(|| std::time::Instant::now() + MIN_EPOCH_WAIT);
    loop {
        let epoch = shared.snapshot().epoch;
        if epoch >= min_epoch {
            return None;
        }
        if std::time::Instant::now() >= bound {
            intensio_obs::inc("repl.min_epoch_timeouts");
            // Admission span: with tracing on, the REDIRECT leg of a
            // cross-node read shows up in this node's trace under the
            // same trace id the primary's execution will carry.
            let mut admission = intensio_obs::Span::enter("serve.admission");
            admission.field("epoch", epoch);
            admission.field("min_epoch", min_epoch);
            let message = if !shared.is_primary() {
                admission.field("outcome", "redirect");
                format!(
                    "REDIRECT {} term={}: epoch {min_epoch} not yet replicated here (follower at {epoch})",
                    shared.repl.primary_hint(),
                    shared.current_term(),
                )
            } else {
                admission.field("outcome", "unsatisfiable");
                format!(
                    "min_epoch {min_epoch} is ahead of the primary (epoch {epoch}); \
                     no node can satisfy it"
                )
            };
            return Some(error(message));
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}
