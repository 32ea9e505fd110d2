//! The concurrent intensional query service.
//!
//! A [`Service`] owns one epoch-versioned [`Snapshot`] behind a
//! read/write lock, a worker pool draining a request queue, an LRU
//! [`AnswerCache`], and a background induction thread. The
//! concurrency story:
//!
//! * **Readers never block on writers or on induction.** A query pins
//!   the current `Arc<Snapshot>` under a briefly held read lock and
//!   computes against that immutable state.
//! * **Writers are serialized** by a dedicated mutation lock. A write
//!   clones the database (copy-on-write — only touched relations are
//!   deep-copied), applies the whole QUEL script to the clone, and
//!   installs the result as a new snapshot; a failing script installs
//!   nothing. The induced rules carry over, flagged stale
//!   (`rules_fresh = false`), and the background inducer is woken.
//! * **Induction runs off the request path** on its own thread, using
//!   the parallel ILS driver. It learns from a pinned snapshot and
//!   installs the new rule set only if the data version is unchanged —
//!   otherwise it simply goes around again.
//!
//! The fault-tolerance story layers on top:
//!
//! * **Admission control.** The request queue is bounded
//!   ([`ServiceConfig::queue_capacity`]); past the bound, [`Service::submit`]
//!   sheds the request immediately with [`Reply::Busy`] instead of letting
//!   latency collapse for everyone.
//! * **Deadlines degrade, never lie.** A request past its deadline (or whose
//!   inference fails) skips fresh inference and falls down a ladder:
//!   stale-epoch cached answer, then extensional-only answer — always with
//!   `degraded = true` on the reply. The extensional rows are always
//!   computed against the pinned snapshot, so degraded answers are correct
//!   answers with weaker (or absent) intensional characterizations.
//! * **Workers are expendable.** Each request runs under `catch_unwind`;
//!   a panic becomes an error reply. If a worker thread dies anyway, a
//!   supervisor thread restarts it (`worker_restarts` in stats).
//! * **Induction self-heals.** A failed background re-induction retries
//!   with capped exponential backoff plus jitter (`induction_retries`),
//!   so a transient fault cannot strand the service at
//!   `rules_fresh = false` forever.
//! * **Checkpoints run off the request path.** In durable mode a write
//!   only appends its WAL record; when the checkpoint cadence comes
//!   due, a background checkpointer materializes the pinned snapshot
//!   through `storage::persist` without holding the write lock or the
//!   WAL lock, then briefly takes the WAL lock to delete only the log
//!   segments the checkpoint fully covers. Writers and `STATS` never
//!   stall behind full-state serialization.
//!
//! Failpoints from [`intensio_fault`] (`serve.cache`, `serve.install`,
//! `serve.worker`, plus the storage/induction/inference points) exercise
//! all of these paths; see the chaos integration test.

use crate::cache::AnswerCache;
use crate::gate::{self, InstallGate, Verdict};
use crate::snapshot::Snapshot;
use intensio_check::Report;
use intensio_core::DataDictionary;
use intensio_induction::{Ils, InductionConfig};
use intensio_inference::{
    condition_fingerprint, InferenceConfig, InferenceEngine, IntensionalAnswer,
};
use intensio_ker::model::KerModel;
use intensio_quel::{AccessKind, Output, Session};
use intensio_repl::{snapshot as repl_codec, ReplHub, StreamMsg};
use intensio_rules::rule::RuleSet;
use intensio_sql::{analyze, parse};
use intensio_storage::catalog::Database;
use intensio_storage::relation::Relation;
use intensio_wal::checkpoint::write_checkpoint;
use intensio_wal::record::{Record, RecordKind};
use intensio_wal::{rules_codec, Wal, WalConfig};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

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

/// The named timeout set for every short cluster-I/O wait in this
/// module — each bound used to be an ad-hoc literal at its call site.
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

/// A replication stream with no frame (not even a heartbeat) for this
/// many heartbeat intervals is treated as half-open: the follower drops
/// it and redials rather than blocking on a silently dead link.
const HALF_OPEN_HEARTBEATS: u32 = 3;

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

/// A request to the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A SQL query: extensional + intensional answer.
    Sql(String),
    /// A QUEL script (possibly multi-statement). Scripts with any
    /// mutating statement go through the serialized write path.
    Quel(String),
    /// Service statistics.
    Stats,
    /// Answer provenance for a SQL query: which rules fired, with what
    /// support, in which direction — without the extensional rows.
    Explain(String),
    /// Failpoint administration: `LIST`, `SET name=spec[;...]`, `CLEAR`.
    Fault(String),
    /// Static analysis. An empty argument lints the live rule set
    /// (rejecting its cached answers on Error-level findings); a
    /// non-empty argument is a SQL query (or `QUEL <script>`) to lint
    /// against the live catalog and rules without executing it.
    Check(String),
    /// Profile a SQL query: execute it like [`Request::Sql`] would,
    /// but answer with an EXPLAIN-ANALYZE-style timing tree (parse →
    /// cache → inference → scan, with per-rule attempts) instead of
    /// the rows.
    Profile(String),
    /// This node's own telemetry sample: role, epoch, lag, apply and
    /// shed counters, and tail latencies. Polled by the primary's
    /// cluster-telemetry loop.
    Telemetry,
}

impl Request {
    /// The request's wire verb, for span labels and counters.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Sql(_) => "sql",
            Request::Quel(_) => "quel",
            Request::Stats => "stats",
            Request::Explain(_) => "explain",
            Request::Fault(_) => "fault",
            Request::Check(_) => "check",
            Request::Profile(_) => "profile",
            Request::Telemetry => "telemetry",
        }
    }
}

/// Which soundness guarantee the intensional part of an answer carries
/// (paper §4): forward conclusions contain the answer set, backward
/// characterizations are contained in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Soundness {
    /// Forward conclusions only: characterization ⊇ answer set.
    Superset,
    /// Backward characterizations only: characterization ⊆ answer set.
    Subset,
    /// Both kinds present.
    Mixed,
    /// No intensional characterization was derived.
    None,
}

impl Soundness {
    /// Classify an intensional answer.
    pub fn of(a: &IntensionalAnswer) -> Soundness {
        match (a.certain.is_empty(), a.partial.is_empty()) {
            (false, true) => Soundness::Superset,
            (true, false) => Soundness::Subset,
            (false, false) => Soundness::Mixed,
            (true, true) => Soundness::None,
        }
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Soundness::Superset => "superset",
            Soundness::Subset => "subset",
            Soundness::Mixed => "mixed",
            Soundness::None => "none",
        }
    }
}

/// A successful query answer plus serving metadata.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Whether the intensional part came from the cache.
    pub cached: bool,
    /// Whether the snapshot's rules matched its data version.
    pub rules_fresh: bool,
    /// Whether the intensional side was degraded (stale-epoch cache hit
    /// or dropped entirely) because the deadline expired or inference
    /// failed. The extensional rows are never degraded.
    pub degraded: bool,
    /// Soundness class of the intensional part.
    pub soundness: Soundness,
    /// Output column names (empty for pure mutations).
    pub columns: Vec<String>,
    /// Extensional rows, values rendered bare.
    pub rows: Vec<Vec<String>>,
    /// The intensional answer (shared with the cache).
    pub intensional: Arc<IntensionalAnswer>,
    /// One-sentence intensional summary, if derivable.
    pub headline: Option<String>,
    /// Aggregate response over the type hierarchy, if any.
    pub summary: Option<String>,
    /// Tuples affected, for mutating QUEL scripts.
    pub affected: Option<usize>,
}

/// The provenance behind one query's intensional answer.
#[derive(Debug, Clone)]
pub struct ExplainReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Whether the intensional part came from the cache.
    pub cached: bool,
    /// Whether the snapshot's rules matched its data version.
    pub rules_fresh: bool,
    /// Whether the answer was degraded (stale-epoch cache hit or empty)
    /// because the deadline expired or inference failed.
    pub degraded: bool,
    /// Soundness class of the intensional part.
    pub soundness: Soundness,
    /// The intensional answer; `intensional.provenance` lists every
    /// rule application (id, support, direction, conclusion) and
    /// `intensional.steps` the full inference trace.
    pub intensional: Arc<IntensionalAnswer>,
    /// One-sentence intensional summary, if derivable.
    pub headline: Option<String>,
}

/// The outcome of one `CHECK` request.
#[derive(Debug, Clone)]
pub struct CheckReply {
    /// Epoch of the snapshot that was analyzed.
    pub epoch: u64,
    /// Whether the snapshot's rules matched its data version.
    pub rules_fresh: bool,
    /// Whether this check rejected the live rule set: Error-level
    /// findings against the installed rules purge their epochs from the
    /// answer cache and bump `rulesets_rejected`.
    pub rejected: bool,
    /// The diagnostics, sorted most severe first.
    pub report: Report,
}

/// A point-in-time view of service counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Current knowledge epoch.
    pub epoch: u64,
    /// Current data version.
    pub data_version: u64,
    /// Whether current rules match the current data.
    pub rules_fresh: bool,
    /// Queries answered (SQL + read-only QUEL).
    pub queries: u64,
    /// Intensional cache hits.
    pub cache_hits: u64,
    /// Intensional cache misses.
    pub cache_misses: u64,
    /// Cached answers right now.
    pub cache_len: u64,
    /// Maximum cached answers (the LRU capacity).
    pub cache_capacity: u64,
    /// Mutating scripts applied.
    pub writes: u64,
    /// Background rule-set installs completed.
    pub inductions: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Requests shed with [`Reply::Busy`] because the queue was full.
    pub requests_shed: u64,
    /// Worker threads restarted by the supervisor after dying.
    pub worker_restarts: u64,
    /// Background re-inductions retried after a failure.
    pub induction_retries: u64,
    /// Induced rule sets the static-analysis gate refused to install
    /// (plus live rule sets rejected by a `CHECK` request).
    pub rulesets_rejected: u64,
    /// Directly-subsumed rules dropped by the install-time prune (a
    /// narrower premise under a wider rule with the same conclusion
    /// adds nothing the inference engine can use).
    pub rules_pruned: u64,
    /// Replies served with a degraded intensional side.
    pub degraded_answers: u64,
    /// Worker threads.
    pub workers: u64,
    /// Durability counters; `None` when the service runs in-memory.
    pub durability: Option<DurabilityStats>,
    /// This node's replication role: `"primary"`, `"follower"`, or
    /// `"candidate"`.
    pub role: String,
    /// The primary term this node's knowledge state was committed
    /// under. Bumped by failover promotions; fences deposed lineages.
    pub term: u64,
    /// Follower-side replication counters; `None` on a primary.
    pub repl: Option<ReplStats>,
    /// Full metrics snapshot: pipeline-stage latency histograms
    /// (p50/p95/p99) and every named counter/gauge.
    pub metrics: intensio_obs::MetricsSnapshot,
    /// The latest cluster-wide telemetry sample, one entry per peer
    /// configured with [`Service::set_peers`] (empty otherwise).
    pub cluster: Vec<PeerTelemetry>,
}

/// One node of a `PROFILE` timing tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// The span name (e.g. `inference.infer`) or a synthetic label
    /// (the `request` root, per-rule `rule R<n>` attempts).
    pub name: String,
    /// Wall-clock duration in microseconds (0 for synthetic nodes).
    pub duration_us: u64,
    /// Key/value annotations captured while the span was open.
    pub fields: Vec<(String, String)>,
    /// Child stages, in completion order.
    pub children: Vec<ProfileNode>,
}

/// The timing tree a `PROFILE <query>` request answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Whether the intensional part came from the cache.
    pub cached: bool,
    /// Whether the snapshot's rules matched its data version.
    pub rules_fresh: bool,
    /// Whether the intensional side was degraded.
    pub degraded: bool,
    /// Extensional rows the query produced (the rows themselves are
    /// not returned; `SQL` does that).
    pub rows: u64,
    /// End-to-end execution time in microseconds.
    pub total_us: u64,
    /// The timing tree, rooted at a synthetic `request` node.
    pub tree: Vec<ProfileNode>,
}

/// One node's self-reported telemetry sample (the `TELEMETRY` verb).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryReply {
    /// `"primary"`, `"follower"`, or `"candidate"`.
    pub role: String,
    /// Current knowledge epoch.
    pub epoch: u64,
    /// The primary term of this node's knowledge state. Pollers compare
    /// it against their own: a primary that sees a peer at a higher
    /// term has been deposed and demotes itself.
    pub term: u64,
    /// Whether current rules match the current data.
    pub rules_fresh: bool,
    /// Whether the replication stream is established (always true on a
    /// primary).
    pub connected: bool,
    /// Epochs this node trails its primary (0 on a primary).
    pub lag_epochs: u64,
    /// Shipped records applied since boot (0 on a primary).
    pub records_applied: u64,
    /// Replication stream reconnects since boot (0 on a primary).
    pub reconnects: u64,
    /// Queries answered since boot.
    pub queries: u64,
    /// Replies served with a degraded intensional side.
    pub degraded_answers: u64,
    /// Requests shed at admission.
    pub requests_shed: u64,
    /// Worker threads restarted by the supervisor.
    pub worker_restarts: u64,
    /// p99 of the replication-apply stage, in microseconds.
    pub repl_apply_p99_us: u64,
    /// p99 of the WAL-append stage, in microseconds.
    pub wal_append_p99_us: u64,
}

/// One peer's telemetry as sampled by the cluster poller, merged into
/// the primary's `STATS`/Prometheus view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerTelemetry {
    /// The peer's address as configured with [`Service::set_peers`].
    pub addr: String,
    /// Whether the last poll round-trip succeeded; the remaining
    /// fields are the last good sample (zeros if never reached).
    pub ok: bool,
    /// The peer's replication role.
    pub role: String,
    /// The peer's knowledge epoch.
    pub epoch: u64,
    /// The peer's primary term.
    pub term: u64,
    /// Epochs the peer trails its primary.
    pub lag_epochs: u64,
    /// Shipped records the peer has applied since boot.
    pub records_applied: u64,
    /// Records applied per second, from successive poll deltas.
    pub apply_rate: u64,
    /// The peer's replication reconnects since boot.
    pub reconnects: u64,
    /// The peer's degraded answers since boot.
    pub degraded_answers: u64,
    /// Requests the peer shed at admission since boot.
    pub requests_shed: u64,
    /// Worker restarts on the peer since boot.
    pub worker_restarts: u64,
}

/// Follower-side replication counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplStats {
    /// The primary address this follower tails.
    pub primary: String,
    /// Whether the replication stream is currently established.
    pub connected: bool,
    /// Highest committed epoch the primary has reported (records and
    /// heartbeats both carry it).
    pub primary_epoch: u64,
    /// How many epochs this follower trails the primary.
    pub lag_epochs: u64,
    /// Shipped records applied since boot.
    pub records_applied: u64,
    /// Stream reconnects since boot (lost or unreachable primary).
    pub reconnects: u64,
    /// Streams this follower dropped as half-open: the socket stayed
    /// readable but no frame arrived for 3× the heartbeat cadence
    /// (each drop also counts as a reconnect).
    pub half_open_drops: u64,
    /// Milliseconds since the last frame arrived on the replication
    /// stream; `None` when no frame has ever arrived.
    pub heartbeat_age_ms: Option<u64>,
    /// Streams and snapshots this node rejected because they carried a
    /// term below its own (a deposed primary's lineage).
    pub stale_term_rejections: u64,
}

/// Durable-mode counters: the WAL's lifetime stats plus what boot
/// recovery observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStats {
    /// The fsync policy in force (`always`, `batch:N`, `off`).
    pub fsync: String,
    /// WAL records appended since boot.
    pub wal_appends: u64,
    /// WAL frame bytes appended since boot.
    pub wal_append_bytes: u64,
    /// Explicit fsync barriers issued since boot.
    pub wal_fsyncs: u64,
    /// Checkpoints written since boot (the boot checkpoint included).
    pub wal_checkpoints: u64,
    /// Sequence number of the active WAL segment.
    pub wal_segment_seq: u64,
    /// Epoch the service recovered to at boot (0 on a fresh directory).
    pub recovered_epoch: u64,
    /// WAL records replayed during boot recovery.
    pub replayed_records: u64,
    /// Records discarded during boot recovery (torn tail, bad CRC, or
    /// an epoch gap).
    pub discarded_records: u64,
    /// Wall-clock milliseconds boot recovery took.
    pub recovery_ms: u64,
}

/// What the service hands back for one request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A query (or mutation) completed.
    Query(QueryReply),
    /// Statistics.
    Stats(Box<StatsReply>),
    /// Answer provenance.
    Explain(ExplainReply),
    /// Static-analysis results.
    Check(CheckReply),
    /// A `PROFILE` timing tree.
    Profile(Box<ProfileReply>),
    /// One node's telemetry sample.
    Telemetry(Box<TelemetryReply>),
    /// The request was shed at admission: the queue is full. The client
    /// should back off and retry; nothing was executed.
    Busy,
    /// Failpoint administration succeeded; the armed failpoints after
    /// the operation.
    Fault {
        /// Every armed failpoint with its hit/trigger counts.
        failpoints: Vec<intensio_fault::FailpointStatus>,
    },
    /// The request failed; the service itself is unaffected.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Reply {
    /// The query payload, if this is a query reply.
    pub fn query(&self) -> Option<&QueryReply> {
        match self {
            Reply::Query(q) => Some(q),
            _ => None,
        }
    }

    /// The explain payload, if this is an explain reply.
    pub fn explain(&self) -> Option<&ExplainReply> {
        match self {
            Reply::Explain(e) => Some(e),
            _ => None,
        }
    }

    /// The check payload, if this is a check reply.
    pub fn check(&self) -> Option<&CheckReply> {
        match self {
            Reply::Check(c) => Some(c),
            _ => None,
        }
    }

    /// The profile payload, if this is a profile reply.
    pub fn profile(&self) -> Option<&ProfileReply> {
        match self {
            Reply::Profile(p) => Some(p),
            _ => None,
        }
    }

    /// The telemetry payload, if this is a telemetry reply.
    pub fn telemetry(&self) -> Option<&TelemetryReply> {
        match self {
            Reply::Telemetry(t) => Some(t),
            _ => None,
        }
    }

    /// The error message, if this is an error reply.
    pub fn error(&self) -> Option<&str> {
        match self {
            Reply::Error { message } => Some(message),
            _ => None,
        }
    }
}

/// Service construction failure (initial induction).
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

/// Wake-up state for a condvar-driven background thread (the inducer
/// and the checkpointer each own one).
#[derive(Default)]
struct WakeFlags {
    dirty: bool,
    shutdown: bool,
}

struct Shared {
    state: RwLock<Arc<Snapshot>>,
    /// Serializes the write path (QUEL mutations and rule installs), so
    /// epoch successors are computed from the snapshot they replace.
    write_lock: Mutex<()>,
    cache: Mutex<AnswerCache>,
    cfg: ServiceConfig,
    counters: Counters,
    /// The install gate every rule set passes before it is served.
    gate: InstallGate,
    induce: Mutex<WakeFlags>,
    induce_wake: Condvar,
    /// Signals the background checkpointer (durable mode only).
    ckpt: Mutex<WakeFlags>,
    ckpt_wake: Condvar,
    /// Jobs accepted but not yet picked up by a worker; the admission
    /// gauge for load shedding.
    queue_depth: AtomicUsize,
    /// Set by [`Service`]'s drop before the queue closes, so the
    /// supervisor stops resurrecting workers that exited on purpose.
    shutdown: AtomicBool,
    /// Durable mode: the WAL writer plus what boot recovery observed.
    /// The `Wal` mutex nests *inside* `write_lock` on the write path;
    /// readers (stats) and the background checkpointer take it alone,
    /// never `write_lock`, so the order is acyclic.
    durability: Option<Durability>,
    /// Primary-side replication fan-out: the write path publishes every
    /// committed record here (after install, still under `write_lock`,
    /// so streams observe strict epoch order).
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

/// Replication state, updated by the replicator thread and read by
/// `STATS`. Present on every node: a primary's copy idles until a
/// demotion turns the node into a follower.
struct ReplState {
    /// Upstream addresses to try, in rotation. Seeded from
    /// [`ServiceConfig::replicate_from`]; a demotion discovered through
    /// the telemetry poller prepends the new primary here.
    targets: Mutex<Vec<String>>,
    /// Index of the target the replicator tries next.
    target_idx: AtomicUsize,
    /// The address of the stream's current (or last) upstream, for
    /// `STATS` and `REDIRECT`s. Empty when never connected.
    primary: Mutex<String>,
    /// Highest committed epoch the primary has reported.
    primary_epoch: AtomicU64,
    /// Shipped records applied since boot.
    records_applied: AtomicU64,
    /// Stream reconnects since boot.
    reconnects: AtomicU64,
    /// Half-open streams dropped: the read side stayed quiet past 3×
    /// the heartbeat cadence while the socket itself reported nothing.
    half_open_drops: AtomicU64,
    /// Whether the stream is currently established.
    connected: AtomicBool,
    /// When the last stream frame arrived (any frame counts as a
    /// heartbeat); `None` until the first frame.
    last_heartbeat: Mutex<Option<std::time::Instant>>,
    /// Streams/snapshots rejected for carrying a stale term.
    stale_term_rejections: AtomicU64,
    /// Next stream attempt must re-bootstrap from epoch 0: the local
    /// suffix was orphaned by a higher term and only a full snapshot
    /// (shipped at the new term) may rewind it.
    force_bootstrap: AtomicBool,
}

impl ReplState {
    fn new(targets: Vec<String>) -> ReplState {
        ReplState {
            targets: Mutex::new(targets),
            target_idx: AtomicUsize::new(0),
            primary: Mutex::new(String::new()),
            primary_epoch: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            half_open_drops: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            last_heartbeat: Mutex::new(None),
            stale_term_rejections: AtomicU64::new(0),
            force_bootstrap: AtomicBool::new(false),
        }
    }

    /// The upstream address for `STATS`/`REDIRECT`: the live stream's
    /// target, else the first configured one, else `"unknown"`.
    fn primary_hint(&self) -> String {
        let cur = self.primary.lock().unwrap_or_else(|e| e.into_inner());
        if !cur.is_empty() {
            return cur.clone();
        }
        drop(cur);
        self.targets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .first()
            .cloned()
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// Record a frame arrival (resets the failover clock).
    fn note_heartbeat(&self) {
        *self
            .last_heartbeat
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(std::time::Instant::now());
    }

    /// Milliseconds since the last frame, `None` if never.
    fn heartbeat_age_ms(&self) -> Option<u64> {
        self.last_heartbeat
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|t| t.elapsed().as_millis() as u64)
    }

    /// Count one stale-term rejection (issued by this node, in either
    /// direction: a follower refusing a deposed primary's stream, or a
    /// deposed primary refusing a higher-term handshake).
    fn note_stale_term(&self) {
        self.stale_term_rejections.fetch_add(1, Ordering::Relaxed);
        intensio_obs::inc("repl.stale_term_rejections");
    }

    /// Put `addr` at the front of the rotation (the poller found the
    /// new primary there).
    fn prefer_target(&self, addr: &str) {
        let mut targets = self.targets.lock().unwrap_or_else(|e| e.into_inner());
        targets.retain(|t| t != addr);
        targets.insert(0, addr.to_string());
        self.target_idx.store(0, Ordering::Relaxed);
    }
}

struct Durability {
    /// The data-dir root; the background checkpointer writes checkpoint
    /// directories here without holding the WAL lock.
    dir: PathBuf,
    wal: Mutex<Wal>,
    recovery: RecoveryReport,
}

/// What boot recovery observed, frozen for the lifetime of the process.
#[derive(Debug, Clone, Default)]
struct RecoveryReport {
    recovered_epoch: u64,
    replayed_records: u64,
    discarded_records: u64,
    recovery_ms: u64,
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

    fn wake_inducer(&self) {
        let mut flags = self.induce.lock().unwrap_or_else(|e| e.into_inner());
        flags.dirty = true;
        self.induce_wake.notify_all();
    }

    fn wake_checkpointer(&self) {
        let mut flags = self.ckpt.lock().unwrap_or_else(|e| e.into_inner());
        flags.dirty = true;
        self.ckpt_wake.notify_all();
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

/// Synchronous boot induction, through the install gate.
fn boot_induce(
    cfg: &ServiceConfig,
    gate: &InstallGate,
    dictionary: &DataDictionary,
    db: &Database,
) -> Result<Verdict, ServeError> {
    let ils = Ils::new(dictionary.model(), cfg.induction);
    let out = ils
        .induce_parallel(db, cfg.induction_threads)
        .map_err(|e| ServeError(format!("initial induction failed: {e}")))?;
    Ok(gate.admit(out.rules, db))
}

/// Checkpoint a snapshot through the *exclusive* [`Wal::checkpoint`]
/// path — boot only, before any worker thread exists. The rule set is
/// stored only when it is fresh for this data — stale rules are cheaper
/// to re-induce after recovery than to pin durably. Falls back to a
/// rule-less checkpoint when the rules fail to encode. The live service
/// checkpoints via [`checkpoint_once`] instead.
fn checkpoint_snapshot(
    wal: &mut Wal,
    snap: &Snapshot,
) -> Result<intensio_wal::CheckpointRef, intensio_wal::WalError> {
    let rules = snap.dictionary.rules();
    let with_rules = (snap.rules_fresh && !rules.is_empty()).then_some(rules);
    match wal.checkpoint(
        &snap.db,
        with_rules,
        snap.epoch,
        snap.data_version,
        snap.term,
    ) {
        Ok(c) => Ok(c),
        Err(_) if with_rules.is_some() => {
            wal.checkpoint(&snap.db, None, snap.epoch, snap.data_version, snap.term)
        }
        Err(e) => Err(e),
    }
}

/// Durable boot: recover the knowledge state from disk, replay the log
/// through the same code paths live requests use, gate recovered rules,
/// optionally re-induce, and pin the result with a boot checkpoint.
fn boot_durable(
    cfg: &ServiceConfig,
    gate: &InstallGate,
    dir: &Path,
    seed_db: Database,
    model: KerModel,
) -> Result<(Snapshot, Durability, bool, u64), ServeError> {
    let started = std::time::Instant::now();
    let err = |e: intensio_wal::WalError| ServeError(format!("durability: {e}"));
    let recovered = intensio_wal::recover(dir).map_err(err)?;
    intensio_wal::recover::apply_sanitize(&recovered).map_err(err)?;

    let mut rejected = false;
    let mut pruned_on_open = 0u64;
    let (mut db, ckpt_rules, base_epoch, base_dv, base_term) = match recovered.checkpoint {
        Some(c) => (c.db, c.rules, c.epoch, c.data_version, c.term),
        // Fresh directory (or no readable checkpoint): replay starts
        // from the seed database the caller provided.
        None => (seed_db, None, 0, 0, 0),
    };
    let mut epoch = base_epoch;
    let mut data_version = base_dv;
    let mut term = base_term;
    let mut pending_rules = ckpt_rules;
    let mut rules_fresh = pending_rules.is_some();

    for record in &recovered.records {
        let mut replay_span = intensio_obs::Span::enter("wal.replay");
        replay_span.field("epoch", record.epoch);
        match record.kind {
            RecordKind::Write => {
                let script = record.script().ok_or_else(|| {
                    ServeError(format!(
                        "recovery: write record at epoch {} is not UTF-8",
                        record.epoch
                    ))
                })?;
                let mut session = Session::new();
                // A write that applied before the crash must apply
                // again — a replay failure means the log and the
                // checkpoint disagree, and serving from half a replay
                // would silently drop acknowledged writes.
                session.run_script(&mut db, script).map_err(|e| {
                    ServeError(format!(
                        "recovery: replaying write at epoch {}: {e}",
                        record.epoch
                    ))
                })?;
                rules_fresh = false;
            }
            RecordKind::Rules => match rules_codec::rules_from_bytes(&record.body) {
                Ok(rules) => {
                    pending_rules = Some(rules);
                    rules_fresh = true;
                }
                Err(_) => {
                    // The epoch still advances (contiguity!) but the
                    // rules stay stale, so the inducer re-learns them.
                    intensio_obs::inc("recovery.undecodable_rulesets");
                    rules_fresh = false;
                }
            },
            // A promotion fencepost: no data change, but the epoch is
            // consumed and the term adopted.
            RecordKind::Term => {}
        }
        epoch = record.epoch;
        data_version = record.data_version;
        term = term.max(record.term);
    }

    let mut dictionary = DataDictionary::new(model);
    if let Some(rules) = pending_rules {
        // Recovered knowledge passes the same gate a fresh induction
        // would: replay must not reinstall a rule set the checker
        // rejects today.
        let verdict = gate.admit(rules, &db);
        match verdict.rules {
            Some(rules) => {
                pruned_on_open += verdict.pruned;
                dictionary.set_shared_rules(rules);
            }
            None => {
                rejected = true;
                rules_fresh = false;
            }
        }
    }
    if !rules_fresh && cfg.learn_on_open {
        let verdict = boot_induce(cfg, gate, &dictionary, &db)?;
        match verdict.rules {
            Some(rules) => {
                pruned_on_open += verdict.pruned;
                dictionary.set_shared_rules(rules);
                rules_fresh = true;
            }
            None => rejected = true,
        }
    }

    let snapshot = Snapshot::recovered(epoch, data_version, term, db, dictionary, rules_fresh);

    let mut wal = Wal::open(dir, cfg.wal, recovered.last_seq).map_err(err)?;
    // The boot checkpoint makes the recovered (and boot-induced) state
    // durable before the first acknowledgement, and retires the old
    // segments and the torn tails they may carry.
    checkpoint_snapshot(&mut wal, &snapshot).map_err(err)?;

    let recovery = RecoveryReport {
        recovered_epoch: epoch,
        replayed_records: recovered.stats.replayed_records,
        discarded_records: recovered.stats.discarded_records,
        recovery_ms: started.elapsed().as_millis() as u64,
    };
    intensio_obs::gauge("recovery.ms", recovery.recovery_ms as i64);
    intensio_obs::gauge("recovery.epoch", epoch as i64);
    Ok((
        snapshot,
        Durability {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            recovery,
        },
        rejected,
        pruned_on_open,
    ))
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
        let mut rejected_on_open = false;
        let mut pruned_on_open = 0u64;
        let gate = InstallGate::new(cfg.check_rulesets, cfg.induction.min_support);
        let (snapshot, durability) = match cfg.data_dir.clone() {
            Some(dir) => {
                let (snap, dur, rejected, pruned) = boot_durable(&cfg, &gate, &dir, db, model)?;
                rejected_on_open = rejected;
                pruned_on_open = pruned;
                (snap, Some(dur))
            }
            None => {
                let mut dictionary = DataDictionary::new(model);
                let mut rules_fresh = false;
                if cfg.learn_on_open {
                    let verdict = boot_induce(&cfg, &gate, &dictionary, &db)?;
                    match verdict.rules {
                        Some(rules) => {
                            pruned_on_open = verdict.pruned;
                            dictionary.set_shared_rules(rules);
                            rules_fresh = true;
                        }
                        // Serve without intensional rules rather than
                        // with provably unsound ones; the dictionary
                        // keeps its empty rule set and the background
                        // inducer stays quiet until the data changes.
                        None => rejected_on_open = true,
                    }
                }
                (Snapshot::initial(db, dictionary, rules_fresh), None)
            }
        };
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
            induce: Mutex::new(WakeFlags::default()),
            induce_wake: Condvar::new(),
            ckpt: Mutex::new(WakeFlags::default()),
            ckpt_wake: Condvar::new(),
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
        if rejected_on_open {
            shared.note_ruleset_rejected();
        }
        shared.note_rules_pruned(pruned_on_open);

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
        let inducer = {
            let shared = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name("intensio-inducer".to_string())
                    .spawn(move || inducer_loop(&shared))
                    .map_err(|e| ServeError(format!("spawning inducer: {e}")))?,
            )
        };
        let replicator = {
            let shared = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name("intensio-replicator".to_string())
                    .spawn(move || replicator_loop(&shared))
                    .map_err(|e| ServeError(format!("spawning replicator: {e}")))?,
            )
        };
        let checkpointer = if shared.durability.is_some() {
            let shared = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name("intensio-checkpointer".to_string())
                    .spawn(move || checkpointer_loop(&shared))
                    .map_err(|e| ServeError(format!("spawning checkpointer: {e}")))?,
            )
        } else {
            None
        };
        let poller = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("intensio-telemetry".to_string())
                .spawn(move || poller_loop(&shared))
                .map_err(|e| ServeError(format!("spawning telemetry poller: {e}")))?
        };

        Ok(Service {
            shared,
            queue: Mutex::new(Some(tx)),
            supervisor: Mutex::new(Some(supervisor)),
            inducer: Mutex::new(inducer),
            checkpointer: Mutex::new(checkpointer),
            replicator: Mutex::new(replicator),
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

    /// Serve one replication stream (the `REPLICATE <from_epoch>
    /// [term=<t>]` verb): write `#repl` lines to `out` until the
    /// follower disconnects, the server stops, or the service shuts
    /// down. Runs on the connection thread, not the worker pool — a
    /// slow follower never occupies a query worker.
    ///
    /// `peer_term` is the highest term the follower has durably
    /// observed. A primary asked to serve a follower from a *higher*
    /// term has been deposed without noticing: it answers with a
    /// `STALE_TERM` error and demotes itself to follower.
    ///
    /// The bootstrap closes the history/live race by subscribing to the
    /// record hub *before* reading the log: any record missing from the
    /// history read below is already waiting in the channel, and the
    /// monotone `last_sent` epoch dedupes the overlap. When the log no
    /// longer reaches back to `from_epoch` (a checkpoint truncated it),
    /// the stream falls back to shipping a full state snapshot.
    pub fn replicate(
        &self,
        from_epoch: u64,
        peer_term: u64,
        out: &mut dyn std::io::Write,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        let shared = &self.shared;
        let mut send = |msg: &StreamMsg| -> std::io::Result<()> {
            // One frame, one write call: injected link faults
            // (`net.dup`, `net.torn_write`) act on write-call
            // boundaries, so this keeps duplication and tearing
            // whole-frame — the failure modes the follower's reader is
            // specified (and property-tested) against.
            let mut frame = msg.encode();
            frame.push('\n');
            out.write_all(frame.as_bytes())?;
            out.flush()
        };
        let own_term = shared.current_term();
        if peer_term > own_term {
            // The follower has durably seen a term this node never
            // committed: a failover happened while this node was down
            // (or partitioned). Fence the stream and step down.
            shared.repl.note_stale_term();
            shared.demote(peer_term, "REPLICATE handshake");
            return send(&StreamMsg::Error(format!(
                "{}: this node is at term {own_term}, you have durably observed \
                 term {peer_term}; it is no longer primary",
                intensio_repl::STALE_TERM,
            )));
        }
        if !shared.is_primary() {
            return send(&StreamMsg::Error(format!(
                "this node is itself a {}; replicate from the primary",
                shared.role().as_str()
            )));
        }
        let Some(dur) = &shared.durability else {
            return send(&StreamMsg::Error(
                "replication requires a durable primary (start it with --data-dir)".to_string(),
            ));
        };
        let rx = shared.repl_hub.subscribe();
        intensio_obs::inc("repl.streams_opened");
        // History: collect the whole log tail up front so a chain break
        // discovered halfway (gap, corruption, truncation race) can
        // still fall back to a clean snapshot bootstrap. A follower
        // that has not durably observed this term never gets a tail:
        // its log may end in a divergent suffix from a deposed lineage
        // (a SIGKILLed primary's acked-but-unshipped writes), and a
        // tail appended past its claimed epoch would silently merge
        // the two lineages. Only a full snapshot at the current term
        // is safe; the follower's orphaned suffix is retracted by the
        // snapshot install (and by recovery's term fencing on its next
        // restart).
        let history: Option<Vec<Record>> = if peer_term < own_term {
            intensio_obs::inc("repl.lineage_bootstraps");
            None
        } else {
            match intensio_wal::LogTail::open(&dur.dir, from_epoch) {
                Ok(tail) => {
                    let mut records = Vec::new();
                    let mut intact = true;
                    for item in tail {
                        match item {
                            Ok(rec) => records.push(rec),
                            Err(_) => {
                                intact = false;
                                break;
                            }
                        }
                    }
                    intact.then_some(records)
                }
                Err(_) => None,
            }
        };
        send(&StreamMsg::Ok {
            epoch: shared.snapshot().epoch,
            term: shared.current_term(),
        })?;
        let mut last_sent = from_epoch;
        match history {
            Some(records) => {
                for rec in records {
                    last_sent = rec.epoch;
                    // History comes from the log, which stores no trace
                    // context: only live-tail records ship one.
                    send(&StreamMsg::Record { rec, trace: None })?;
                    intensio_obs::inc("repl.records_shipped");
                }
            }
            None => {
                // Pinned after the subscribe, so every later record is
                // either above this epoch or waiting in the channel.
                let snap = shared.snapshot();
                let db = match repl_codec::db_to_bytes(&snap.db) {
                    Ok(db) => db,
                    Err(e) => return send(&StreamMsg::Error(format!("encoding snapshot: {e}"))),
                };
                let rules = snap.dictionary.shared_rules();
                let rules = (snap.rules_fresh && !rules.is_empty())
                    .then(|| shared.gate.encode(rules).ok())
                    .flatten();
                last_sent = snap.epoch;
                send(&StreamMsg::Snapshot {
                    epoch: snap.epoch,
                    data_version: snap.data_version,
                    term: snap.term,
                    db,
                    rules,
                })?;
                intensio_obs::inc("repl.snapshots_shipped");
            }
        }
        // Live tail: forward hub records (the bootstrap overlap dedupes
        // on `last_sent`), heartbeat the current epoch when idle.
        loop {
            if stop.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
                return send(&StreamMsg::Error("primary shutting down".to_string()));
            }
            if !shared.is_primary() {
                // Demoted mid-stream (a higher term was observed): end
                // the stream so the follower re-resolves the primary.
                return send(&StreamMsg::Error(format!(
                    "{}: this node was demoted to follower at term {}",
                    intensio_repl::STALE_TERM,
                    shared.current_term(),
                )));
            }
            match rx.recv_timeout(shared.cfg.repl_heartbeat) {
                Ok((rec, trace)) => {
                    if rec.epoch <= last_sent {
                        continue;
                    }
                    last_sent = rec.epoch;
                    send(&StreamMsg::Record { rec, trace })?;
                    intensio_obs::inc("repl.records_shipped");
                }
                Err(RecvTimeoutError::Timeout) => {
                    let snap = shared.snapshot();
                    send(&StreamMsg::Heartbeat {
                        epoch: snap.epoch,
                        term: snap.term,
                    })?;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return send(&StreamMsg::Error("record hub closed".to_string()));
                }
            }
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
        if let Some(h) = self.poller.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = self
            .supervisor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        // The replicator polls the shutdown flag on its read ticks and
        // between reconnect backoff steps; no wake needed.
        if let Some(h) = self
            .replicator
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        {
            let mut flags = self.shared.induce.lock().unwrap_or_else(|e| e.into_inner());
            flags.shutdown = true;
            self.shared.induce_wake.notify_all();
        }
        if let Some(h) = self
            .inducer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        // The checkpointer goes down last among the writers' helpers: a
        // cadence signal raised by the final writes or rule installs is
        // still honored, so the shutdown checkpoint bounds the next
        // boot's replay.
        {
            let mut flags = self.shared.ckpt.lock().unwrap_or_else(|e| e.into_inner());
            flags.shutdown = true;
            self.shared.ckpt_wake.notify_all();
        }
        if let Some(h) = self
            .checkpointer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = h.join();
        }
        // Final durability barrier: under a batch/off fsync policy the
        // tail of the log may still be in the page cache.
        if let Some(dur) = &self.shared.durability {
            let _ = dur.wal.lock().unwrap_or_else(|e| e.into_inner()).sync();
        }
    }
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

fn execute(shared: &Shared, request: &Request, deadline: Option<std::time::Instant>) -> Reply {
    let mut span = intensio_obs::Span::stage("serve.request", intensio_obs::Stage::Request)
        .with_field("verb", request.verb());
    if let Request::Sql(q) | Request::Explain(q) | Request::Quel(q) | Request::Profile(q) = request
    {
        // The query text makes the slow-request log actionable.
        span.field("query", truncate(q, 120));
    }
    match request {
        Request::Sql(sql) => exec_sql(shared, sql, deadline),
        Request::Quel(script) => exec_quel(shared, script),
        Request::Stats => Reply::Stats(Box::new(stats_reply(shared))),
        Request::Explain(sql) => exec_explain(shared, sql, deadline),
        Request::Fault(cmd) => exec_fault(shared, cmd),
        Request::Check(arg) => exec_check(shared, arg),
        Request::Profile(sql) => exec_profile(shared, sql, deadline),
        Request::Telemetry => Reply::Telemetry(Box::new(telemetry_reply(shared))),
    }
}

/// `CHECK`: static analysis against the pinned snapshot.
///
/// * No argument — lint the live rule set. Error-level findings mean
///   every answer inferred from these rules is suspect: the cache drops
///   all epochs up to the snapshot's, `rulesets_rejected` is bumped,
///   and the reply carries `rejected = true`.
/// * `CHECK <sql>` / `CHECK QUEL <script>` — lint a query against the
///   live catalog and rules without executing it (IC040–IC045,
///   including provably-empty conditions with the refuting rule as
///   provenance).
fn exec_check(shared: &Shared, arg: &str) -> Reply {
    let snap = shared.snapshot();
    let arg = arg.trim();
    let mut rejected = false;
    let report = if arg.is_empty() {
        let report = gate::lint(
            snap.dictionary.rules(),
            &snap.db,
            shared.cfg.induction.min_support,
        );
        if report.has_errors() {
            shared
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .reject_through(snap.epoch);
            shared.note_ruleset_rejected();
            rejected = true;
        }
        report
    } else {
        let mut report = match arg.split_once(char::is_whitespace) {
            Some((verb, script)) if verb.eq_ignore_ascii_case("quel") => {
                intensio_check::check_quel(script.trim(), &snap.db, snap.dictionary.rules())
            }
            _ => intensio_check::check_sql(arg, &snap.db, snap.dictionary.rules()),
        };
        report.sort();
        report
    };
    intensio_obs::inc("serve.checks");
    Reply::Check(CheckReply {
        epoch: snap.epoch,
        rules_fresh: snap.rules_fresh,
        rejected,
        report,
    })
}

/// `FAULT LIST` / `FAULT SET name=spec[;...]` / `FAULT CLEAR`: runtime
/// administration of the fault registry, failpoints and link faults
/// alike. A follower may `SET` only link faults (`net.*`) and its
/// `CLEAR` clears only those: link faults are node-local transport
/// state, which a partition drill must be able to sever on a follower,
/// while failpoints mutate node state a replica's primary owns.
fn exec_fault(shared: &Shared, cmd: &str) -> Reply {
    let cmd = cmd.trim();
    let (op, rest) = match cmd.split_once(char::is_whitespace) {
        Some((op, rest)) => (op, rest.trim()),
        None => (cmd, ""),
    };
    let op = op.to_ascii_uppercase();
    let primary = shared.is_primary();
    let links_only = !rest.is_empty()
        && rest
            .split(';')
            .all(|part| intensio_fault::is_link(part.split('=').next().unwrap_or("")));
    if !primary && op == "SET" && !links_only {
        return error(readonly_message(
            &shared.repl.primary_hint(),
            "FAULT administration",
        ));
    }
    match op.as_str() {
        "" | "LIST" => {}
        "SET" if !rest.is_empty() => {
            if let Err(e) = intensio_fault::configure_str(rest) {
                return error(format!("fault: {e}"));
            }
        }
        "SET" => return error("FAULT SET requires name=spec[;...]".to_string()),
        "CLEAR" if primary => intensio_fault::clear(),
        "CLEAR" => intensio_fault::clear_links(),
        other => {
            return error(format!(
                "unknown FAULT operation {other:?}; expected LIST, SET, or CLEAR"
            ))
        }
    }
    Reply::Fault {
        failpoints: intensio_fault::list(),
    }
}

/// Truncate to at most `max` characters on a char boundary.
fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max).collect();
        format!("{cut}…")
    }
}

fn stats_reply(shared: &Shared) -> StatsReply {
    let snap = shared.snapshot();
    let c = &shared.counters;
    StatsReply {
        epoch: snap.epoch,
        data_version: snap.data_version,
        rules_fresh: snap.rules_fresh,
        queries: c.queries.load(Ordering::Relaxed),
        cache_hits: c.cache_hits.load(Ordering::Relaxed),
        cache_misses: c.cache_misses.load(Ordering::Relaxed),
        cache_len: shared.cache.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
        cache_capacity: shared.cfg.cache_capacity as u64,
        writes: c.writes.load(Ordering::Relaxed),
        inductions: c.inductions.load(Ordering::Relaxed),
        errors: c.errors.load(Ordering::Relaxed),
        requests_shed: c.shed.load(Ordering::Relaxed),
        worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
        induction_retries: c.induction_retries.load(Ordering::Relaxed),
        rulesets_rejected: c.rulesets_rejected.load(Ordering::Relaxed),
        rules_pruned: c.rules_pruned.load(Ordering::Relaxed),
        degraded_answers: c.degraded.load(Ordering::Relaxed),
        workers: shared.cfg.workers.max(1) as u64,
        durability: shared.durability.as_ref().map(|dur| {
            let wal = dur.wal.lock().unwrap_or_else(|e| e.into_inner());
            let ws = wal.stats();
            DurabilityStats {
                fsync: wal.config().fsync.to_string(),
                wal_appends: ws.appends,
                wal_append_bytes: ws.append_bytes,
                wal_fsyncs: ws.fsyncs,
                wal_checkpoints: ws.checkpoints,
                wal_segment_seq: ws.segment_seq,
                recovered_epoch: dur.recovery.recovered_epoch,
                replayed_records: dur.recovery.replayed_records,
                discarded_records: dur.recovery.discarded_records,
                recovery_ms: dur.recovery.recovery_ms,
            }
        }),
        role: shared.role().as_str().to_string(),
        term: shared.current_term(),
        repl: (!shared.is_primary()).then(|| {
            let r = &shared.repl;
            let primary_epoch = r.primary_epoch.load(Ordering::Relaxed);
            ReplStats {
                primary: r.primary_hint(),
                connected: r.connected.load(Ordering::Relaxed),
                primary_epoch,
                lag_epochs: primary_epoch.saturating_sub(snap.epoch),
                records_applied: r.records_applied.load(Ordering::Relaxed),
                reconnects: r.reconnects.load(Ordering::Relaxed),
                half_open_drops: r.half_open_drops.load(Ordering::Relaxed),
                heartbeat_age_ms: r.heartbeat_age_ms(),
                stale_term_rejections: r.stale_term_rejections.load(Ordering::Relaxed),
            }
        }),
        metrics: intensio_obs::metrics().snapshot(),
        cluster: shared
            .cluster
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone(),
    }
}

/// The intensional side of one query, with its serving provenance.
struct Intension {
    q: intensio_sql::SelectQuery,
    answer: Arc<IntensionalAnswer>,
    cached: bool,
    degraded: bool,
}

/// Parse + analyze a SQL query and produce its intensional answer,
/// consulting the cache. Shared by [`exec_sql`] and [`exec_explain`];
/// also returns the parsed query so the caller can run the extensional
/// side. `Err` carries a ready-made error reply (parse/analyze errors
/// only — inference trouble degrades instead of failing):
///
/// 1. **Fresh**: current-epoch cache hit, or run inference (deadline
///    permitting) and cache the result.
/// 2. **Stale**: deadline expired or inference failed — serve the most
///    recent prior-epoch cached answer, flagged `degraded`.
/// 3. **Extensional-only**: nothing cached — serve an empty intensional
///    answer, flagged `degraded`. The caller still computes the rows.
fn intensional_for(
    shared: &Shared,
    snap: &Snapshot,
    sql: &str,
    deadline: Option<std::time::Instant>,
) -> Result<Intension, Box<Reply>> {
    let q = parse(sql).map_err(|e| Box::new(error(format!("sql parse: {e}"))))?;
    let analysis =
        analyze(&snap.db, &q).map_err(|e| Box::new(error(format!("sql analyze: {e}"))))?;

    let fingerprint = condition_fingerprint(&analysis);
    // Cache failpoint: an armed fault makes the cache unavailable for
    // this request (no lookup, no insert) — a miss, never a wrong hit.
    let cache_ok = intensio_fault::fire("serve.cache").is_ok();
    if cache_ok {
        let mut cache_span =
            intensio_obs::Span::enter("serve.cache").with_field("epoch", snap.epoch);
        let hit = shared
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(fingerprint.clone(), snap.epoch));
        if let Some(answer) = hit {
            cache_span.field("outcome", "hit");
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            intensio_obs::inc("serve.cache_hits");
            return Ok(Intension {
                q,
                answer,
                cached: true,
                degraded: false,
            });
        }
        cache_span.field("outcome", "miss");
    }
    shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("serve.cache_misses");

    let overdue = deadline.is_some_and(|d| std::time::Instant::now() >= d);
    if !overdue {
        let engine = InferenceEngine::new(
            snap.dictionary.model(),
            snap.dictionary.rules(),
            &snap.db,
            shared.cfg.inference,
        );
        match engine {
            Ok(engine) => {
                let answer = Arc::new(engine.infer(&analysis));
                if cache_ok {
                    shared
                        .cache
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert((fingerprint, snap.epoch), answer.clone());
                }
                return Ok(Intension {
                    q,
                    answer,
                    cached: false,
                    degraded: false,
                });
            }
            Err(_) => intensio_obs::inc("serve.inference_failures"),
        }
    }

    // Degraded path: stale cached answer, else extensional-only.
    let prev = shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("serve.degraded_answers");
    if prev == 0 {
        // First ladder descent since boot: capture the span ring while
        // the deadline pressure that forced it is still in view.
        let _ = intensio_obs::flight_record("degraded_onset");
    }
    let mut degrade = intensio_obs::Span::enter("serve.degrade").with_field("epoch", snap.epoch);
    if cache_ok {
        let stale = shared
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_stale(&fingerprint, snap.epoch);
        if let Some(answer) = stale {
            degrade.field("step", "stale");
            return Ok(Intension {
                q,
                answer,
                cached: true,
                degraded: true,
            });
        }
    }
    degrade.field("step", "extensional");
    Ok(Intension {
        q,
        answer: Arc::new(IntensionalAnswer::default()),
        cached: false,
        degraded: true,
    })
}

fn exec_sql(shared: &Shared, sql: &str, deadline: Option<std::time::Instant>) -> Reply {
    let snap = shared.snapshot();
    let Intension {
        q,
        answer: intensional,
        cached,
        degraded,
    } = match intensional_for(shared, &snap, sql, deadline) {
        Ok(r) => r,
        Err(reply) => return *reply,
    };
    let extensional = match intensio_sql::execute(&snap.db, &q) {
        Ok(r) => r,
        Err(e) => return error(format!("sql execute: {e}")),
    };

    let summary = intensio_core::summarize(&extensional, snap.dictionary.model());
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("serve.queries");
    let (columns, rows) = render_relation(&extensional);
    Reply::Query(QueryReply {
        epoch: snap.epoch,
        cached,
        rules_fresh: snap.rules_fresh,
        degraded,
        soundness: Soundness::of(&intensional),
        columns,
        rows,
        headline: intensional.headline(),
        intensional,
        summary: if summary.is_empty() {
            None
        } else {
            Some(summary.to_string().trim_end().to_string())
        },
        affected: None,
    })
}

/// `EXPLAIN`: the provenance of a query's intensional answer — rule
/// ids, supports, and inference directions — without enumerating the
/// extensional rows. Hits the same answer cache as `SQL`.
fn exec_explain(shared: &Shared, sql: &str, deadline: Option<std::time::Instant>) -> Reply {
    let snap = shared.snapshot();
    let Intension {
        answer: intensional,
        cached,
        degraded,
        ..
    } = match intensional_for(shared, &snap, sql, deadline) {
        Ok(r) => r,
        Err(reply) => return *reply,
    };
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("serve.explains");
    Reply::Explain(ExplainReply {
        epoch: snap.epoch,
        cached,
        rules_fresh: snap.rules_fresh,
        degraded,
        soundness: Soundness::of(&intensional),
        headline: intensional.headline(),
        intensional,
    })
}

/// `PROFILE <sql>`: execute the query exactly as `SQL` would while a
/// per-thread span collector is active, then fold the collected spans
/// into an EXPLAIN-ANALYZE-style timing tree. A cache miss yields the
/// full ladder — parse → cache → inference (with per-rule attempts
/// grafted from the answer's provenance) → scan; a hit yields the
/// shorter parse → cache tree.
fn exec_profile(shared: &Shared, sql: &str, deadline: Option<std::time::Instant>) -> Reply {
    let collector = intensio_obs::trace::collect_spans();
    let started = std::time::Instant::now();
    let reply = exec_sql(shared, sql, deadline);
    let total_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let spans = collector.take();
    let q = match reply {
        Reply::Query(q) => q,
        // Parse/analyze errors (and shed/panic replies) have no tree.
        other => return other,
    };
    let mut children = build_profile_tree(&spans);
    graft_rule_attempts(&mut children, &q.intensional.provenance);
    intensio_obs::inc("serve.profiles");
    Reply::Profile(Box::new(ProfileReply {
        epoch: q.epoch,
        cached: q.cached,
        rules_fresh: q.rules_fresh,
        degraded: q.degraded,
        rows: q.rows.len() as u64,
        total_us,
        tree: vec![ProfileNode {
            name: "request".to_string(),
            duration_us: total_us,
            fields: vec![("rows".to_string(), q.rows.len().to_string())],
            children,
        }],
    }))
}

/// Fold completion-ordered span records into a tree. Spans close
/// children-first on one worker thread, so a node at depth `d` adopts
/// every already-closed node one level deeper. Depths are normalized
/// against the shallowest record (the collector starts inside the
/// already-open `serve.request` span).
fn build_profile_tree(spans: &[intensio_obs::SpanRecord]) -> Vec<ProfileNode> {
    let Some(min_depth) = spans.iter().map(|s| s.depth).min() else {
        return Vec::new();
    };
    let max_depth = spans.iter().map(|s| s.depth - min_depth).max().unwrap_or(0);
    let mut pending: Vec<Vec<ProfileNode>> = vec![Vec::new(); max_depth + 2];
    for s in spans {
        let d = s.depth - min_depth;
        let children = std::mem::take(&mut pending[d + 1]);
        pending[d].push(ProfileNode {
            name: s.name.to_string(),
            duration_us: s.duration_us,
            fields: s
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            children,
        });
    }
    // Orphans (a deeper span whose parent closed before collection
    // started) fold up a level rather than vanish.
    for d in (1..pending.len()).rev() {
        let orphans = std::mem::take(&mut pending[d]);
        pending[d - 1].extend(orphans);
    }
    std::mem::take(&mut pending[0])
}

/// Attach one child per rule application under the `inference.infer`
/// node, from the answer's provenance: rule id, direction (forward
/// conclusions vs backward characterizations), and support.
fn graft_rule_attempts(tree: &mut [ProfileNode], uses: &[intensio_inference::RuleUse]) {
    for node in tree.iter_mut() {
        if node.name == "inference.infer" {
            for u in uses {
                node.children.push(ProfileNode {
                    name: format!("rule R{}", u.rule_id),
                    duration_us: 0,
                    fields: vec![
                        ("direction".to_string(), u.direction.as_str().to_string()),
                        ("support".to_string(), u.support.to_string()),
                        ("conclusion".to_string(), u.conclusion.clone()),
                    ],
                    children: Vec::new(),
                });
            }
            return;
        }
        graft_rule_attempts(&mut node.children, uses);
    }
}

/// This node's own telemetry sample, for the `TELEMETRY` verb.
fn telemetry_reply(shared: &Shared) -> TelemetryReply {
    let snap = shared.snapshot();
    let c = &shared.counters;
    let m = intensio_obs::metrics();
    let (connected, lag_epochs, records_applied, reconnects) = if shared.is_primary() {
        (true, 0, 0, 0)
    } else {
        let r = &shared.repl;
        let primary_epoch = r.primary_epoch.load(Ordering::Relaxed);
        (
            r.connected.load(Ordering::Relaxed),
            primary_epoch.saturating_sub(snap.epoch),
            r.records_applied.load(Ordering::Relaxed),
            r.reconnects.load(Ordering::Relaxed),
        )
    };
    TelemetryReply {
        role: shared.role().as_str().to_string(),
        epoch: snap.epoch,
        term: shared.current_term(),
        rules_fresh: snap.rules_fresh,
        connected,
        lag_epochs,
        records_applied,
        reconnects,
        queries: c.queries.load(Ordering::Relaxed),
        degraded_answers: c.degraded.load(Ordering::Relaxed),
        requests_shed: c.shed.load(Ordering::Relaxed),
        worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
        repl_apply_p99_us: m.stage(intensio_obs::Stage::ReplApply).snapshot().p99_us,
        wal_append_p99_us: m.stage(intensio_obs::Stage::WalAppend).snapshot().p99_us,
    }
}

/// How often the cluster poller samples its peers.
const POLL_PERIOD: std::time::Duration = std::time::Duration::from_millis(1000);

/// The cluster-telemetry poller: about once a second, round-trip the
/// `TELEMETRY` verb to every peer named by [`Service::set_peers`] and
/// merge the samples into this node's `STATS`/Prometheus view (the
/// `cluster` array plus `cluster.peer<i>.*` gauges). Runs on every
/// node but does nothing until peers are configured; a dead peer costs
/// one short connect timeout per round, never a query worker.
fn poller_loop(shared: &Shared) {
    let mut prev: std::collections::HashMap<String, (u64, std::time::Instant)> =
        std::collections::HashMap::new();
    let mut next_poll = std::time::Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if std::time::Instant::now() < next_poll {
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        }
        next_poll = std::time::Instant::now() + POLL_PERIOD;
        let peers = shared
            .peers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if peers.is_empty() {
            continue;
        }
        let mut cluster = Vec::with_capacity(peers.len());
        for (i, addr) in peers.iter().enumerate() {
            let mut peer =
                poll_peer(&shared.cfg.net_label, addr).unwrap_or_else(|| PeerTelemetry {
                    addr: addr.clone(),
                    ok: false,
                    role: String::new(),
                    epoch: 0,
                    term: 0,
                    lag_epochs: 0,
                    records_applied: 0,
                    apply_rate: 0,
                    reconnects: 0,
                    degraded_answers: 0,
                    requests_shed: 0,
                    worker_restarts: 0,
                });
            if peer.ok {
                // Failover discovery: a peer serving as primary at a
                // term at least ours is where the write lineage lives —
                // re-point the replication rotation at it (a deposed
                // primary restarted with only `--peers` has no
                // replication targets until this fires). At a strictly
                // higher term it also means this node's lineage is
                // fenced: a (deposed) primary demotes.
                if peer.role == "primary" && peer.term >= shared.current_term() {
                    shared.repl.prefer_target(&peer.addr);
                    shared.demote(peer.term, &format!("telemetry poll of {}", peer.addr));
                }
                let now = std::time::Instant::now();
                if let Some(&(applied, at)) = prev.get(addr) {
                    let dt = now.duration_since(at).as_secs_f64();
                    if dt > 0.0 && peer.records_applied >= applied {
                        peer.apply_rate =
                            ((peer.records_applied - applied) as f64 / dt).round() as u64;
                    }
                }
                prev.insert(addr.clone(), (peer.records_applied, now));
                intensio_obs::gauge(&format!("cluster.peer{i}.epoch"), peer.epoch as i64);
                intensio_obs::gauge(
                    &format!("cluster.peer{i}.lag_epochs"),
                    peer.lag_epochs as i64,
                );
                intensio_obs::gauge(
                    &format!("cluster.peer{i}.apply_rate"),
                    peer.apply_rate as i64,
                );
                intensio_obs::gauge(
                    &format!("cluster.peer{i}.reconnects"),
                    peer.reconnects as i64,
                );
                intensio_obs::gauge(
                    &format!("cluster.peer{i}.degraded_answers"),
                    peer.degraded_answers as i64,
                );
            }
            intensio_obs::gauge(&format!("cluster.peer{i}.up"), i64::from(peer.ok));
            cluster.push(peer);
        }
        *shared.cluster.lock().unwrap_or_else(|e| e.into_inner()) = cluster;
    }
}

/// One `TELEMETRY` round trip, with short timeouts
/// ([`timeouts::PEER_CONNECT`], [`timeouts::PEER_REPLY`]) so an
/// unreachable peer delays the poll loop, not the serve path. Routed
/// through [`intensio_net`]: a severed link makes the peer look down,
/// which is exactly what a partitioned poller should see.
fn poll_peer(local_label: &str, addr: &str) -> Option<PeerTelemetry> {
    use std::io::{BufRead as _, Write as _};
    let stream = intensio_net::connect_timeout(local_label, addr, timeouts::PEER_CONNECT).ok()?;
    stream.set_read_timeout(Some(timeouts::PEER_REPLY)).ok()?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"TELEMETRY\n").ok()?;
    writer.flush().ok()?;
    let mut line = String::new();
    std::io::BufReader::new(stream).read_line(&mut line).ok()?;
    let v = crate::json::parse(line.trim()).ok()?;
    if !v.get("ok")?.as_bool()? || v.get("kind")?.as_str()? != "telemetry" {
        return None;
    }
    let num = |k: &str| v.get(k).and_then(crate::json::Json::as_u64).unwrap_or(0);
    Some(PeerTelemetry {
        addr: addr.to_string(),
        ok: true,
        role: v
            .get("role")
            .and_then(crate::json::Json::as_str)
            .unwrap_or("")
            .to_string(),
        epoch: num("epoch"),
        term: num("term"),
        lag_epochs: num("lag_epochs"),
        records_applied: num("records_applied"),
        apply_rate: 0,
        reconnects: num("reconnects"),
        degraded_answers: num("degraded_answers"),
        requests_shed: num("requests_shed"),
        worker_restarts: num("worker_restarts"),
    })
}

fn exec_quel(shared: &Shared, script: &str) -> Reply {
    let stmts = match intensio_quel::parse_script(script) {
        Ok(s) => s,
        Err(e) => return error(format!("quel parse: {e}")),
    };
    if stmts.is_empty() {
        return error("empty QUEL script".to_string());
    }
    let writes = stmts.iter().any(|s| s.access() == AccessKind::Write);
    if writes {
        if !shared.is_primary() {
            return error(readonly_message(
                &shared.repl.primary_hint(),
                "mutating QUEL",
            ));
        }
        quel_write(shared, script)
    } else {
        quel_read(shared, script)
    }
}

/// The error a follower answers to any state-mutating verb. Starts with
/// the literal token `READONLY` so clients (and greps) can detect it,
/// and names the primary so they know where to go.
fn readonly_message(primary: &str, what: &str) -> String {
    format!("READONLY: this node is a follower of {primary}; {what} must go to the primary")
}

/// Read-only scripts run against a *private copy-on-write clone* of the
/// pinned snapshot's database: `retrieve into` scratch relations land
/// in the clone and are discarded with it, and shared relations are
/// never touched.
fn quel_read(shared: &Shared, script: &str) -> Reply {
    let snap = shared.snapshot();
    let mut db = snap.db.clone();
    let mut session = Session::new();
    let outputs = match session.run_script(&mut db, script) {
        Ok(o) => o,
        Err(e) => return error(format!("quel: {e}")),
    };
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    Reply::Query(quel_reply(&snap, &outputs))
}

/// Mutating scripts are serialized, applied transactionally to a COW
/// clone, and installed as the next epoch. Readers keep answering from
/// the previous snapshot until the install; nothing blocks on the
/// background re-induction this triggers.
fn quel_write(shared: &Shared, script: &str) -> Reply {
    let _writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    let snap = shared.snapshot();
    let mut db = snap.db.clone();
    let mut session = Session::new();
    let outputs = match session.run_script(&mut db, script) {
        Ok(o) => o,
        // The clone is discarded: a failing script mutates nothing.
        Err(e) => return error(format!("quel: {e}")),
    };
    let next = snap.after_write(db);
    // Durability barrier: the record must be on the log (under the
    // configured fsync policy) before the new epoch is published or the
    // client acknowledged. On failure nothing is installed — the writer
    // rewound the log, so the epoch is free for the client's retry.
    let mut committed = None;
    if let Some(dur) = &shared.durability {
        let record = Record::write(next.epoch, next.data_version, script).with_term(next.term);
        let span = intensio_obs::Span::stage("wal.append", intensio_obs::Stage::WalAppend)
            .with_field("epoch", next.epoch);
        let result = dur
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(&record);
        // The commit span's ids ride the replication stream so a
        // follower's apply span joins this trace.
        let trace = span.trace_ids();
        drop(span);
        if let Err(e) = result {
            return error(format!("durability: {e}"));
        }
        committed = Some((record, trace));
    }
    let reply = {
        let mut r = quel_reply(&next, &outputs);
        r.cached = false;
        r
    };
    shared.install(next);
    // Fan the committed record out to replication streams after the
    // install, still under `write_lock`: every stream observes records
    // in strict epoch order.
    if let Some((record, trace)) = committed {
        shared.repl_hub.publish(&record, trace);
    }
    shared.counters.writes.fetch_add(1, Ordering::Relaxed);
    maybe_checkpoint(shared);
    shared.wake_inducer();
    Reply::Query(reply)
}

/// Hand the checkpoint to the background checkpointer when enough
/// records have accumulated. The request path only peeks at the cadence
/// counter under a briefly held WAL lock; the expensive full-state
/// materialization happens on the checkpointer thread, off the write
/// path (see [`checkpointer_loop`]).
fn maybe_checkpoint(shared: &Shared) {
    let Some(dur) = &shared.durability else {
        return;
    };
    let due = dur
        .wal
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .checkpoint_due();
    if due {
        shared.wake_checkpointer();
    }
}

/// Materialize `snap` as an on-disk checkpoint, with the same rule-less
/// fallback [`checkpoint_snapshot`] applies on the boot path.
fn write_snapshot_checkpoint(
    dir: &Path,
    snap: &Snapshot,
) -> Result<intensio_wal::CheckpointRef, intensio_wal::WalError> {
    let rules = snap.dictionary.rules();
    let with_rules = (snap.rules_fresh && !rules.is_empty()).then_some(rules);
    match write_checkpoint(
        dir,
        &snap.db,
        with_rules,
        snap.epoch,
        snap.data_version,
        snap.term,
    ) {
        Ok(c) => Ok(c),
        Err(_) if with_rules.is_some() => write_checkpoint(
            dir,
            &snap.db,
            None,
            snap.epoch,
            snap.data_version,
            snap.term,
        ),
        Err(e) => Err(e),
    }
}

/// One checkpointer pass: pin the current snapshot, materialize it into
/// a checkpoint directory with *no* locks held (appends, reads, and
/// STATS all keep flowing), then take the WAL lock just long enough to
/// delete the segments the checkpoint fully covers. Records appended
/// while the checkpoint was being written are above its epoch and are
/// never deleted ([`Wal::truncate_covered`]). Failure is not fatal: the
/// log keeps growing and the next due write re-signals.
fn checkpoint_once(shared: &Shared) {
    let Some(dur) = &shared.durability else {
        return;
    };
    let snap = shared.snapshot();
    let started = std::time::Instant::now();
    match write_snapshot_checkpoint(&dur.dir, &snap) {
        Ok(_) => {
            let truncated = dur
                .wal
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .truncate_covered(snap.epoch);
            match truncated {
                Ok(()) => {
                    intensio_obs::gauge("wal.checkpoint_ms", started.elapsed().as_millis() as i64);
                }
                Err(_) => intensio_obs::inc("wal.checkpoint_failures"),
            }
        }
        Err(_) => intensio_obs::inc("wal.checkpoint_failures"),
    }
}

/// The background checkpointer loop. Signaled by the write path when
/// the cadence counter comes due; coalesces bursts (a signal raised
/// mid-pass triggers one more pass against the then-newer snapshot). A
/// signal pending at shutdown still runs, so the final checkpoint
/// bounds the next boot's replay.
fn checkpointer_loop(shared: &Shared) {
    loop {
        let (dirty, shutdown) = {
            let mut flags = shared.ckpt.lock().unwrap_or_else(|e| e.into_inner());
            while !flags.dirty && !flags.shutdown {
                let (next, _) = shared
                    .ckpt_wake
                    .wait_timeout(flags, timeouts::BACKGROUND_WAIT_TICK)
                    .unwrap_or_else(|e| e.into_inner());
                flags = next;
            }
            let out = (flags.dirty, flags.shutdown);
            flags.dirty = false;
            out
        };
        if dirty {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| checkpoint_once(shared)));
            if outcome.is_err() {
                intensio_obs::inc("wal.checkpoint_failures");
            }
        }
        if shutdown {
            return;
        }
    }
}

fn quel_reply(snap: &Snapshot, outputs: &[Output]) -> QueryReply {
    let mut affected = None;
    let mut result: Option<&Relation> = None;
    for out in outputs {
        match out {
            Output::Relation(r) => result = Some(r),
            Output::Affected(n) => *affected.get_or_insert(0) += n,
            Output::None | Output::Stored(_) => {}
        }
    }
    let (columns, rows) = match result {
        Some(r) => render_relation(r),
        None => (Vec::new(), Vec::new()),
    };
    QueryReply {
        epoch: snap.epoch,
        cached: false,
        rules_fresh: snap.rules_fresh,
        degraded: false,
        soundness: Soundness::None,
        columns,
        rows,
        intensional: Arc::new(IntensionalAnswer::default()),
        headline: None,
        summary: None,
        affected,
    }
}

fn render_relation(rel: &Relation) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let rows = rel
        .iter()
        .map(|t| t.values().iter().map(|v| v.render_bare()).collect())
        .collect();
    (columns, rows)
}

fn error(message: String) -> Reply {
    Reply::Error { message }
}

/// One attempt of the background inducer.
enum Induce {
    /// Rules were already fresh; nothing to do.
    Idle,
    /// A fresh rule set was installed.
    Installed,
    /// A write landed while learning; the rules describe old data.
    Raced,
    /// Induction failed (e.g. an injected fault); retry with backoff.
    Failed,
    /// The static-analysis gate found Error-level defects in the
    /// induced rules. Deterministic — re-inducing the same data yields
    /// the same rejection — so there is no retry; the service keeps its
    /// previous rules until the data changes again.
    Rejected,
}

fn induce_once(shared: &Shared) -> Induce {
    // Only a primary learns: follower rule sets arrive over the wire,
    // and a candidate must not fork the rule lineage pre-promotion.
    if !shared.is_primary() {
        return Induce::Idle;
    }
    let snap = shared.snapshot();
    if snap.rules_fresh {
        return Induce::Idle;
    }
    let ils = Ils::new(snap.dictionary.model(), shared.cfg.induction);
    let candidate = match ils.induce_parallel(&snap.db, shared.cfg.induction_threads) {
        Ok(out) => out.rules,
        Err(_) => return Induce::Failed,
    };
    // The gate prunes before the durable encode below: the WAL record
    // and the bytes shipped to followers carry the set actually served.
    let Some(rules) = shared.admit(candidate, &snap.db) else {
        return Induce::Rejected;
    };

    let _writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    let current = shared.snapshot();
    if current.data_version != snap.data_version {
        return Induce::Raced;
    }
    // Durable mode: encode the rule set for the log *before* consuming
    // it. An install may not advance the epoch without a WAL record —
    // a silent gap would make every later record unreplayable.
    let rules_body = if shared.durability.is_some() {
        match shared.gate.encode(&rules) {
            Ok(body) => Some(body),
            Err(_) => {
                intensio_obs::inc("wal.unloggable_rulesets");
                return Induce::Failed;
            }
        }
    } else {
        None
    };
    let mut dictionary = current.dictionary.clone();
    dictionary.set_shared_rules(rules);
    let next = current.after_induction(dictionary);
    let mut committed = None;
    if let (Some(dur), Some(body)) = (&shared.durability, rules_body) {
        let record = Record::rules(next.epoch, next.data_version, body).with_term(next.term);
        let span = intensio_obs::Span::stage("wal.append", intensio_obs::Stage::WalAppend)
            .with_field("epoch", next.epoch);
        let result = dur
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(&record);
        // Inducer-thread appends run outside any request trace, so this
        // is normally `None` — the record then ships untraced.
        let trace = span.trace_ids();
        drop(span);
        if result.is_err() {
            return Induce::Failed;
        }
        committed = Some((record, trace));
    }
    shared.install(next);
    // Rule installs replicate like writes: publish after install, still
    // under `write_lock`, so followers see the same epoch order.
    if let Some((record, trace)) = committed {
        shared.repl_hub.publish(&record, trace);
    }
    shared.counters.inductions.fetch_add(1, Ordering::Relaxed);
    maybe_checkpoint(shared);
    Induce::Installed
}

/// The background induction loop: wake on write, learn from a pinned
/// snapshot, install only if the data did not move underneath. A failed
/// or panicking attempt self-heals: it retries with the capped,
/// jittered exponential backoff of [`intensio_fault::Backoff`] (the
/// same helper the follower reconnect loop uses) until induction
/// succeeds, so `rules_fresh` always recovers once the fault clears.
fn inducer_loop(shared: &Shared) {
    let mut backoff = intensio_fault::Backoff::new(
        shared.cfg.induction_backoff,
        shared.cfg.induction_backoff_cap,
        0,
    );
    loop {
        {
            let mut flags = shared.induce.lock().unwrap_or_else(|e| e.into_inner());
            while !flags.dirty && !flags.shutdown {
                let (next, _) = shared
                    .induce_wake
                    .wait_timeout(flags, timeouts::BACKGROUND_WAIT_TICK)
                    .unwrap_or_else(|e| e.into_inner());
                flags = next;
            }
            if flags.shutdown {
                return;
            }
            flags.dirty = false;
        }

        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| induce_once(shared)));
        match outcome {
            // Rejection is deterministic: retrying against unchanged
            // data cannot succeed, so wait for the next write instead.
            Ok(Induce::Idle) | Ok(Induce::Installed) | Ok(Induce::Rejected) => backoff.reset(),
            Ok(Induce::Raced) => {
                // Go around and learn against the newer data.
                backoff.reset();
                shared.wake_inducer();
            }
            Ok(Induce::Failed) | Err(_) => {
                shared
                    .counters
                    .induction_retries
                    .fetch_add(1, Ordering::Relaxed);
                intensio_obs::inc("serve.induction_retries");
                let delay = backoff.next_delay();
                let mut flags = shared.induce.lock().unwrap_or_else(|e| e.into_inner());
                if !flags.shutdown {
                    let (next, _) = shared
                        .induce_wake
                        .wait_timeout(flags, delay)
                        .unwrap_or_else(|e| e.into_inner());
                    flags = next;
                }
                if flags.shutdown {
                    return;
                }
                // Re-arm: the retry must happen even with no new write.
                flags.dirty = true;
            }
        }
    }
}

/// How a follower's stream attempt ended.
enum FollowEnd {
    /// The service is shutting down; exit the loop.
    Shutdown,
    /// The connection failed, broke, or the primary ended the stream;
    /// reconnect after a backoff.
    Lost,
    /// A candidate's failover deadline expired with no live stream;
    /// the replicator loop runs the promotion protocol.
    Deadline,
}

/// Whether a candidate's failover clock has expired. `deadline` is the
/// seeded per-node promotion deadline (see [`replicator_loop`]).
fn failover_due(shared: &Shared, deadline: std::time::Duration) -> bool {
    shared.role() == Role::Candidate
        && shared
            .repl
            .heartbeat_age_ms()
            .is_some_and(|age| std::time::Duration::from_millis(age) >= deadline)
}

/// The follower-side replication driver: connect to a primary out of
/// the target rotation, request the tail after the local epoch, apply
/// what arrives, and on any break reconnect (rotating to the next
/// target) with the capped jittered backoff of
/// [`intensio_fault::Backoff`]. A divergence (epoch gap, failed
/// replay) also lands here: the reconnect re-requests from the local
/// epoch, and the primary's snapshot fallback repairs the state.
///
/// On a **candidate**, this loop doubles as the failover watchdog: if
/// no stream frame arrives for the node's promotion deadline —
/// `failover_timeout/2` plus a jitter drawn seeded from
/// `[timeout/2, timeout)`, i.e. a deadline in `[timeout, 1.5*timeout)`
/// — it first sweeps the other targets for an already-promoted primary
/// (joining it instead of dueling), then promotes itself via
/// [`promote`]. Runs on every node; it idles while the node is
/// primary, so a demotion simply un-idles it.
fn replicator_loop(shared: &Shared) {
    let repl = &shared.repl;
    let mut backoff = intensio_fault::Backoff::new(
        std::time::Duration::from_millis(100),
        std::time::Duration::from_secs(5),
        shared.cfg.failover_seed,
    );
    // The promotion deadline is fixed per process: dueling candidates
    // with equal timeouts still diverge through their seeds.
    let deadline = shared.cfg.failover_timeout / 2
        + intensio_fault::Backoff::new(
            shared.cfg.failover_timeout,
            shared.cfg.failover_timeout,
            shared.cfg.failover_seed.wrapping_add(1),
        )
        .delay_for(0);
    // Arm the failover clock at boot: a candidate that never reaches
    // any primary must still promote after the deadline.
    repl.note_heartbeat();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.is_primary() {
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        }
        if failover_due(shared, deadline) {
            if let Some(primary) = discover_promoted_primary(shared) {
                // Someone else already won: join them instead of
                // splitting the cluster into dueling primaries.
                repl.prefer_target(&primary);
                repl.note_heartbeat();
            } else {
                promote(shared);
                continue;
            }
        }
        let end = follow_once(shared, repl, deadline);
        // `connected` doubles as the made-progress flag: a stream that
        // got as far as the handshake earns a backoff reset.
        let progressed = repl.connected.swap(false, Ordering::Relaxed);
        match end {
            FollowEnd::Shutdown => return,
            // Re-enter the loop head, which re-checks the clock.
            FollowEnd::Deadline => {}
            FollowEnd::Lost => {
                repl.reconnects.fetch_add(1, Ordering::Relaxed);
                intensio_obs::inc("repl.reconnects");
                if progressed {
                    backoff.reset();
                }
                let until = std::time::Instant::now() + backoff.next_delay();
                while std::time::Instant::now() < until {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if failover_due(shared, deadline) {
                        break; // don't sit out the backoff while due
                    }
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
            }
        }
    }
}

/// Pre-promotion sweep: poll every target's `TELEMETRY` for a node
/// already serving as primary at this node's term or higher. Returns
/// its address, or `None` when this candidate should promote itself.
fn discover_promoted_primary(shared: &Shared) -> Option<String> {
    let targets = shared
        .repl
        .targets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let own_term = shared.current_term();
    targets
        .iter()
        .find(|addr| {
            poll_peer(&shared.cfg.net_label, addr)
                .is_some_and(|peer| peer.role == "primary" && peer.term >= own_term)
        })
        .cloned()
}

/// Promote this candidate to primary: bump the term, fsync a `TERM`
/// fencepost record into the local WAL *before* accepting any write,
/// install the new-term snapshot, and announce the term on every
/// replication stream (the fencepost ships like any record). The role
/// flips last, so no write can be acknowledged under the new term
/// until the term is durable.
fn promote(shared: &Shared) {
    let _writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    if shared.role() != Role::Candidate {
        return; // demoted (or already promoted) while waiting for the lock
    }
    let current = shared.snapshot();
    let new_term = shared.current_term().max(current.term) + 1;
    let next = current.after_term(new_term);
    let mut committed = None;
    if let Some(dur) = &shared.durability {
        let record = Record::term_bump(new_term, next.epoch, next.data_version);
        let mut wal = dur.wal.lock().unwrap_or_else(|e| e.into_inner());
        // The fencepost is fsynced regardless of the configured policy:
        // a promotion that is not durable is not a promotion.
        if wal.append(&record).is_err() || wal.sync().is_err() {
            intensio_obs::inc("repl.promotion_failures");
            shared.repl.note_heartbeat(); // re-arm; retry after another deadline
            return;
        }
        committed = Some(record);
    }
    shared.install(next);
    if let Some(record) = committed {
        shared.repl_hub.publish(&record, None);
    }
    shared
        .role
        .store(Role::Primary.as_usize(), Ordering::SeqCst);
    shared.repl.connected.store(false, Ordering::Relaxed);
    intensio_obs::inc("repl.promotions");
    intensio_obs::gauge("repl.term", new_term as i64);
    intensio_obs::gauge("repl.lag_epochs", 0);
    let _ = intensio_obs::flight_record("promotion");
    // The rules may be stale (mid-induction primary death); the
    // inducer un-idles now that the node is primary.
    shared.wake_inducer();
    eprintln!(
        "intensio-serve: promoted to primary at term {new_term} \
         (heartbeat lost past the failover deadline)"
    );
}

/// One stream attempt: connect to the rotation's current target, send
/// `REPLICATE <local epoch> term=<own term>`, and apply messages until
/// the stream breaks, the failover deadline expires, or shutdown.
fn follow_once(shared: &Shared, repl: &ReplState, deadline: std::time::Duration) -> FollowEnd {
    use std::io::Write as _;
    let target = {
        let targets = repl.targets.lock().unwrap_or_else(|e| e.into_inner());
        if targets.is_empty() {
            return FollowEnd::Lost;
        }
        let idx = repl.target_idx.load(Ordering::Relaxed) % targets.len();
        targets[idx].clone()
    };
    // Rotate eagerly: any failure below tries the next target; a
    // healthy stream re-pins its own index on the next reconnect via
    // `prefer_target` or simply wraps around.
    let rotate = || {
        repl.target_idx.fetch_add(1, Ordering::Relaxed);
    };
    let Ok(stream) =
        intensio_net::connect_timeout(&shared.cfg.net_label, &target, timeouts::REPL_CONNECT)
    else {
        rotate();
        return FollowEnd::Lost;
    };
    let setup = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(timeouts::STREAM_READ_TICK)));
    if setup.is_err() {
        rotate();
        return FollowEnd::Lost;
    }
    let Ok(mut writer) = stream.try_clone() else {
        rotate();
        return FollowEnd::Lost;
    };
    // A suffix orphaned by a higher term can only be repaired by a
    // full snapshot shipped at the new term: request from epoch 0.
    let snap = shared.snapshot();
    let from = if repl.force_bootstrap.swap(false, Ordering::SeqCst) {
        0
    } else {
        snap.epoch
    };
    // Announce the term of the last *applied* record (the snapshot's
    // lineage), not the volatile term counter: a deposed primary whose
    // poller already learned the new term via demote() still carries a
    // divergent term-0 suffix, and only the lineage term lets the
    // upstream see that and force a snapshot bootstrap instead of
    // merging a log tail onto ghost records.
    // `node=` announces this follower's net label so the primary can
    // attribute the stream to a cluster link (and link faults can
    // target it from the primary side).
    let node = &shared.cfg.net_label;
    let hello = if node.is_empty() {
        format!("REPLICATE {from} term={}\n", snap.term)
    } else {
        format!("REPLICATE {from} term={} node={node}\n", snap.term)
    };
    if writer
        .write_all(hello.as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        rotate();
        return FollowEnd::Lost;
    }
    *repl.primary.lock().unwrap_or_else(|e| e.into_inner()) = target;
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    // Half-open detection is per-stream: this clock starts at the
    // handshake and resets on every frame. It is NOT the promotion
    // clock (`repl.last_heartbeat`) — resetting that one per reconnect
    // attempt would postpone a candidate's failover deadline forever.
    let mut last_frame = std::time::Instant::now();
    let half_open_after = shared
        .cfg
        .repl_heartbeat
        .saturating_mul(HALF_OPEN_HEARTBEATS);
    loop {
        match std::io::BufRead::read_line(&mut reader, &mut line) {
            Ok(0) => {
                rotate();
                return FollowEnd::Lost;
            }
            Ok(_) => {
                last_frame = std::time::Instant::now();
                let stream_line = std::mem::take(&mut line);
                let msg = match StreamMsg::parse(&stream_line) {
                    Ok(msg) => msg,
                    Err(_) => {
                        intensio_obs::inc("repl.bad_stream_lines");
                        rotate();
                        return FollowEnd::Lost;
                    }
                };
                match apply_stream_msg(shared, repl, msg) {
                    Ok(true) => {}
                    Ok(false) => {
                        rotate();
                        return FollowEnd::Lost;
                    }
                    Err(_) => {
                        intensio_obs::inc("repl.apply_failures");
                        rotate();
                        return FollowEnd::Lost;
                    }
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return FollowEnd::Shutdown;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick; a partial line survives in `line`.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return FollowEnd::Shutdown;
                }
                if let Some(age) = repl.heartbeat_age_ms() {
                    intensio_obs::gauge("repl.heartbeat_age_ms", age as i64);
                }
                if failover_due(shared, deadline) {
                    return FollowEnd::Deadline;
                }
                // Half-open stream: the socket is "connected" but no
                // frame (not even a heartbeat) has crossed it for 3×
                // the heartbeat cadence — a silent partition, a peer
                // frozen mid-write, or a NAT that dropped the mapping.
                // Blocking forever here would pin the follower to a
                // dead primary; drop and redial instead.
                if last_frame.elapsed() > half_open_after {
                    repl.half_open_drops.fetch_add(1, Ordering::Relaxed);
                    intensio_obs::inc("repl.half_open_drops");
                    rotate();
                    return FollowEnd::Lost;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                rotate();
                return FollowEnd::Lost;
            }
        }
    }
}

/// Apply one stream message on the follower. `Ok(true)` keeps the
/// stream, `Ok(false)` ends it cleanly (the primary said stop), `Err`
/// is a divergence that forces a reconnect-and-rebootstrap.
fn apply_stream_msg(shared: &Shared, repl: &ReplState, msg: StreamMsg) -> Result<bool, String> {
    // Every frame counts as a heartbeat: the failover clock measures
    // stream liveness, not write traffic.
    repl.note_heartbeat();
    match msg {
        StreamMsg::Ok { epoch, term } | StreamMsg::Heartbeat { epoch, term } => {
            if term < shared.snapshot().term {
                // A deposed primary's stream: its lineage is fenced.
                // Drop the stream; the rotation tries the next target.
                repl.note_stale_term();
                return Ok(false);
            }
            repl.primary_epoch.fetch_max(epoch, Ordering::Relaxed);
            repl.connected.store(true, Ordering::Relaxed);
            shared.update_lag();
            Ok(true)
        }
        StreamMsg::Error(_) => {
            intensio_obs::inc("repl.stream_errors");
            Ok(false)
        }
        StreamMsg::Snapshot {
            epoch,
            data_version,
            term,
            db,
            rules,
        } => {
            apply_wire_snapshot(
                shared,
                repl,
                epoch,
                data_version,
                term,
                &db,
                rules.as_deref(),
            )?;
            Ok(true)
        }
        StreamMsg::Record { rec, trace } => {
            if rec.term < shared.snapshot().term {
                repl.note_stale_term();
                return Ok(false);
            }
            apply_record(shared, repl, &rec, trace)?;
            Ok(true)
        }
    }
}

/// Install a full-state bootstrap shipped by the primary (the log no
/// longer covered this follower's epoch).
///
/// Term rules: a snapshot below this node's term is a deposed
/// primary's state and is refused outright (`stale_term_rejections`).
/// A same-term snapshot may never rewind the local epoch — that would
/// silently drop durably applied records — so an epoch regression is
/// an explicit wire error (`repl.snapshot_regressions`) and the
/// follower re-syncs from its own durable epoch on reconnect. Only a
/// *higher*-term snapshot may rewind: a failover legitimately
/// truncates the old lineage's unshipped suffix.
fn apply_wire_snapshot(
    shared: &Shared,
    repl: &ReplState,
    epoch: u64,
    data_version: u64,
    term: u64,
    db_bytes: &[u8],
    rules_bytes: Option<&[u8]>,
) -> Result<(), String> {
    let db = repl_codec::db_from_bytes(db_bytes).map_err(|e| e.to_string())?;
    let _writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    let current = shared.snapshot();
    if term < current.term {
        repl.note_stale_term();
        return Err(format!(
            "shipped snapshot carries fenced term {term} (local term {})",
            current.term
        ));
    }
    repl.primary_epoch.fetch_max(epoch, Ordering::Relaxed);
    if epoch < current.epoch && term == current.term {
        intensio_obs::inc("repl.snapshot_regressions");
        return Err(format!(
            "shipped snapshot at epoch {epoch} would rewind local epoch {} within term {term}; \
             refusing silent rewind — re-syncing from the durable epoch",
            current.epoch
        ));
    }
    if epoch == current.epoch && term == current.term {
        shared.update_lag();
        return Ok(()); // already caught up (reconnect overlap)
    }
    let mut dictionary = current.dictionary.clone();
    dictionary.set_rules(RuleSet::new());
    let mut rules_fresh = false;
    if let Some(bytes) = rules_bytes {
        match rules_codec::rules_from_bytes(bytes) {
            // Shipped rules pass the same static-analysis gate a local
            // install would: a primary/follower checker version skew
            // must not smuggle rejected rules into service.
            Ok(rules) => {
                if let Some(rules) = shared.admit(rules, &db) {
                    dictionary.set_shared_rules(rules);
                    rules_fresh = true;
                }
            }
            Err(_) => intensio_obs::inc("repl.undecodable_rulesets"),
        }
    }
    let snap = Snapshot::recovered(epoch, data_version, term, db, dictionary, rules_fresh);
    if let Some(dur) = &shared.durability {
        // A wire snapshot papers over exactly the records this
        // follower's own log is missing: persist it as a local
        // checkpoint so a restart recovers contiguously, then retire
        // the now-covered local segments.
        write_snapshot_checkpoint(&dur.dir, &snap)
            .map_err(|e| format!("follower checkpoint: {e}"))?;
        let _ = dur
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .truncate_covered(epoch);
    }
    shared.install(snap);
    intensio_obs::inc("repl.snapshots_applied");
    shared.update_lag();
    Ok(())
}

/// Apply one shipped record on the follower: replay a write through the
/// same QUEL session a primary uses, or install a (re-gated) rule set.
/// Exactly-once by construction — a record at or below the local epoch
/// is the bootstrap/reconnect overlap and is skipped, a record further
/// ahead than `local + 1` is a chain break.
fn apply_record(
    shared: &Shared,
    repl: &ReplState,
    rec: &Record,
    trace: Option<(u64, u64)>,
) -> Result<(), String> {
    // Join the primary-side commit's trace (if the record shipped with
    // one): the apply span below cites the commit span as its parent,
    // so one trace covers a write from client admission on the primary
    // through its installation on this follower.
    let _trace = intensio_obs::with_context(trace.map(|(trace_id, parent_span)| {
        intensio_obs::TraceContext {
            trace_id,
            parent_span,
        }
    }));
    repl.primary_epoch.fetch_max(rec.epoch, Ordering::Relaxed);
    let _writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    let current = shared.snapshot();
    if rec.epoch <= current.epoch {
        if rec.term > current.term {
            // A higher-term record at or below the local epoch means
            // this node's suffix belongs to a fenced lineage (it was
            // ahead of the new primary's fork point). Only a full
            // snapshot shipped at the new term may rewind it.
            repl.force_bootstrap.store(true, Ordering::SeqCst);
            return Err(format!(
                "term conflict: shipped record (term {}, epoch {}) fences local suffix \
                 (term {}, epoch {}); re-bootstrapping",
                rec.term, rec.epoch, current.term, current.epoch
            ));
        }
        shared.update_lag();
        return Ok(()); // duplicate from the bootstrap overlap: never re-applied
    }
    if rec.epoch != current.epoch + 1 {
        return Err(format!(
            "record chain gap: local epoch {}, shipped {}",
            current.epoch, rec.epoch
        ));
    }
    let mut apply_span = intensio_obs::Span::stage("repl.apply", intensio_obs::Stage::ReplApply);
    apply_span.field("epoch", rec.epoch);
    apply_span.field("kind", rec.kind.name());
    let next = match rec.kind {
        RecordKind::Write => {
            let script = rec
                .script()
                .ok_or_else(|| format!("write record at epoch {} is not UTF-8", rec.epoch))?;
            let mut db = current.db.clone();
            let mut session = Session::new();
            session
                .run_script(&mut db, script)
                .map_err(|e| format!("replaying shipped write at epoch {}: {e}", rec.epoch))?;
            Snapshot::recovered(
                rec.epoch,
                rec.data_version,
                rec.term,
                db,
                current.dictionary.clone(),
                false,
            )
        }
        // A promotion fencepost: adopt the new term; data, dictionary,
        // and rule freshness are unchanged (the epoch is consumed so
        // the bump ships through the exactly-once chain).
        RecordKind::Term => Snapshot::recovered(
            rec.epoch,
            rec.data_version,
            rec.term,
            current.db.clone(),
            current.dictionary.clone(),
            current.rules_fresh,
        ),
        RecordKind::Rules => {
            let mut dictionary = current.dictionary.clone();
            let mut rules_fresh = false;
            match rules_codec::rules_from_bytes(&rec.body) {
                // Re-gated like a local install; the epoch advances
                // either way (contiguity with the primary), but
                // rejected rules are never served.
                Ok(rules) => {
                    if let Some(rules) = shared.admit(rules, &current.db) {
                        dictionary.set_shared_rules(rules);
                        rules_fresh = true;
                    }
                }
                Err(_) => intensio_obs::inc("repl.undecodable_rulesets"),
            }
            Snapshot::recovered(
                rec.epoch,
                rec.data_version,
                rec.term,
                current.db.clone(),
                dictionary,
                rules_fresh,
            )
        }
    };
    // A durable follower logs the record before installing it, so a
    // restart recovers locally and re-joins from its recovered epoch.
    if let Some(dur) = &shared.durability {
        dur.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(rec)
            .map_err(|e| format!("follower wal append: {e}"))?;
    }
    shared.install(next);
    drop(apply_span);
    repl.records_applied.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("repl.records_applied");
    maybe_checkpoint(shared);
    shared.update_lag();
    Ok(())
}
