//! The service's request and reply types.

use intensio_check::Report;
use intensio_inference::IntensionalAnswer;
use intensio_sql::Selection;
use std::sync::Arc;

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
    /// The extensional answer, as row ids into the snapshot's relations
    /// (a QUEL result's relation, or nothing for pure mutations); read
    /// it through [`QueryReply::columns`] and [`QueryReply::rows`].
    pub(crate) result: Selection,
    /// The intensional answer (shared with the cache).
    pub intensional: Arc<IntensionalAnswer>,
    /// One-sentence intensional summary, if derivable.
    pub headline: Option<String>,
    /// Aggregate response over the type hierarchy, if any.
    pub summary: Option<String>,
    /// Tuples affected, for mutating QUEL scripts.
    pub affected: Option<usize>,
}

impl QueryReply {
    /// Output column names (empty for pure mutations).
    pub fn columns(&self) -> Vec<&str> {
        let attrs = self.result.schema().attributes();
        attrs.iter().map(|a| a.name()).collect()
    }

    /// How many extensional rows the answer holds.
    pub fn row_count(&self) -> usize {
        self.result.len()
    }

    /// The extensional rows, each value rendered bare, as the wire
    /// reply carries them.
    pub fn rows(&self) -> Vec<Vec<String>> {
        (0..self.result.len())
            .map(|r| self.result.row(r).map(|v| v.render_bare()).collect())
            .collect()
    }
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
    /// configured with [`Service::set_peers`](crate::Service::set_peers) (empty otherwise).
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerTelemetry {
    /// The peer's address as configured with [`Service::set_peers`](crate::Service::set_peers).
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
