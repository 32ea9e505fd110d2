//! Replication: the `REPLICATE` stream, the follower's apply loop, and
//! failover.

use super::durability::Replay;
use super::telemetry::poll_peer;
use super::{timeouts, Barrier, Role, Service, Shared};
use crate::snapshot::Snapshot;
use intensio_repl::{snapshot as repl_codec, StreamMsg};
use intensio_rules::rule::RuleSet;
use intensio_wal::record::Record;
use intensio_wal::rules_codec;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;

/// A replication stream with no frame (not even a heartbeat) for this
/// many heartbeat intervals is treated as half-open: the follower drops
/// it and redials rather than blocking on a silently dead link.
const HALF_OPEN_HEARTBEATS: u32 = 3;

/// Replication state, updated by the replicator thread and read by
/// `STATS`. Present on every node: a primary's copy idles until a
/// demotion turns the node into a follower.
#[derive(Default)]
pub(super) struct ReplState {
    /// Upstream addresses to try, in rotation. Seeded from
    /// [`ServiceConfig::replicate_from`](super::ServiceConfig::replicate_from);
    /// a demotion discovered through the telemetry poller prepends the
    /// new primary here.
    pub(super) targets: Mutex<Vec<String>>,
    /// Index of the target the replicator tries next.
    pub(super) target_idx: AtomicUsize,
    /// The address of the stream's current (or last) upstream, for
    /// `STATS` and `REDIRECT`s. Empty when never connected.
    pub(super) primary: Mutex<String>,
    /// Highest committed epoch the primary has reported.
    pub(super) primary_epoch: AtomicU64,
    /// Shipped records applied since boot.
    pub(super) records_applied: AtomicU64,
    /// Stream reconnects since boot.
    pub(super) reconnects: AtomicU64,
    /// Half-open streams dropped: the read side stayed quiet past 3×
    /// the heartbeat cadence while the socket itself reported nothing.
    pub(super) half_open_drops: AtomicU64,
    /// Whether the stream is currently established.
    pub(super) connected: AtomicBool,
    /// When the last stream frame arrived (any frame counts as a
    /// heartbeat); `None` until the first frame.
    pub(super) last_heartbeat: Mutex<Option<std::time::Instant>>,
    /// Streams/snapshots rejected for carrying a stale term.
    pub(super) stale_term_rejections: AtomicU64,
    /// Next stream attempt must re-bootstrap from epoch 0: the local
    /// suffix was orphaned by a higher term and only a full snapshot
    /// (shipped at the new term) may rewind it.
    pub(super) force_bootstrap: AtomicBool,
}

impl ReplState {
    pub(super) fn new(targets: Vec<String>) -> ReplState {
        ReplState {
            targets: Mutex::new(targets),
            ..ReplState::default()
        }
    }

    /// The upstream address for `STATS`/`REDIRECT`: the live stream's
    /// target, else the first configured one, else `"unknown"`.
    pub(super) fn primary_hint(&self) -> String {
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
    pub(super) fn note_heartbeat(&self) {
        *self
            .last_heartbeat
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(std::time::Instant::now());
    }

    /// Milliseconds since the last frame, `None` if never.
    pub(super) fn heartbeat_age_ms(&self) -> Option<u64> {
        self.last_heartbeat
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|t| t.elapsed().as_millis() as u64)
    }

    /// Count one stale-term rejection (issued by this node, in either
    /// direction: a follower refusing a deposed primary's stream, or a
    /// deposed primary refusing a higher-term handshake).
    pub(super) fn note_stale_term(&self) {
        self.stale_term_rejections.fetch_add(1, Ordering::Relaxed);
        intensio_obs::inc("repl.stale_term_rejections");
    }

    /// Put `addr` at the front of the rotation (the poller found the
    /// new primary there).
    pub(super) fn prefer_target(&self, addr: &str) {
        let mut targets = self.targets.lock().unwrap_or_else(|e| e.into_inner());
        targets.retain(|t| t != addr);
        targets.insert(0, addr.to_string());
        self.target_idx.store(0, Ordering::Relaxed);
    }
}

impl Service {
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
            intensio_wal::LogTail::open(&dur.dir, from_epoch)
                .and_then(|tail| tail.collect::<Result<Vec<_>, _>>())
                .ok()
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
pub(super) fn replicator_loop(shared: &Shared) {
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
                // Rotate eagerly: the next attempt tries the next target;
                // a healthy stream re-pins its own index via
                // `prefer_target` or simply wraps around.
                repl.target_idx.fetch_add(1, Ordering::Relaxed);
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
    let record = |next: &Snapshot| Ok(Record::term_bump(new_term, next.epoch, next.data_version));
    if shared
        .commit(current.after_term(new_term), record, Barrier::Forced)
        .is_err()
    {
        intensio_obs::inc("repl.promotion_failures");
        shared.repl.note_heartbeat(); // re-arm; retry after another deadline
        return;
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
    shared.induce.signal();
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
    let Ok(stream) =
        intensio_net::connect_timeout(&shared.cfg.net_label, &target, timeouts::REPL_CONNECT)
    else {
        return FollowEnd::Lost;
    };
    let setup = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(timeouts::STREAM_READ_TICK)));
    if setup.is_err() {
        return FollowEnd::Lost;
    }
    let Ok(mut writer) = stream.try_clone() else {
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
            Ok(0) => return FollowEnd::Lost,
            Ok(_) => {
                last_frame = std::time::Instant::now();
                let stream_line = std::mem::take(&mut line);
                let Ok(msg) = StreamMsg::parse(&stream_line) else {
                    intensio_obs::inc("repl.bad_stream_lines");
                    return FollowEnd::Lost;
                };
                match apply_stream_msg(shared, repl, msg) {
                    Ok(true) => {}
                    Ok(false) => return FollowEnd::Lost,
                    Err(_) => {
                        intensio_obs::inc("repl.apply_failures");
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
                    return FollowEnd::Lost;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return FollowEnd::Lost,
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
            apply_record(shared, repl, rec, trace)?;
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
    let rules = rules_bytes.and_then(|bytes| match rules_codec::rules_from_bytes(bytes) {
        Ok(rules) => Some(rules),
        Err(_) => {
            intensio_obs::inc("repl.undecodable_rulesets");
            None
        }
    });
    let mut dictionary = current.dictionary.clone();
    dictionary.set_rules(RuleSet::new());
    // Shipped rules pass the same static-analysis gate a local install
    // would: a primary/follower checker version skew must not smuggle
    // rejected rules into service.
    let snap = Replay::new(epoch, data_version, term, db, rules)
        .into_snapshot(dictionary, |rules, db| shared.admit(rules, db));
    if let Some(dur) = &shared.durability {
        // A wire snapshot papers over exactly the records this
        // follower's own log is missing: persist it as a local
        // checkpoint so a restart recovers contiguously, then retire
        // the now-covered local segments.
        dur.checkpoint(&snap)
            .map_err(|e| format!("follower checkpoint: {e}"))?;
    }
    shared.install(snap);
    intensio_obs::inc("repl.snapshots_applied");
    shared.update_lag();
    Ok(())
}

/// Apply one shipped record on the follower: [`Replay`] turns it into
/// the successor state (re-gating a rule set) and [`Shared::commit`]
/// logs and installs it, as boot replay and a primary would.
/// Exactly-once by construction — a record at or below the local epoch
/// is the bootstrap/reconnect overlap and is skipped, a record further
/// ahead than `local + 1` is a chain break.
fn apply_record(
    shared: &Shared,
    repl: &ReplState,
    rec: Record,
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
    let mut state = Replay::after(&current);
    state.apply(&rec, "repl.undecodable_rulesets")?;
    // Re-gated like a local install; the epoch advances either way
    // (contiguity with the primary), but rejected rules are never
    // served.
    let next = state.into_snapshot(current.dictionary.clone(), |rules, db| {
        shared.admit(rules, db)
    });
    // A durable follower logs the record before installing it, so a
    // restart recovers locally and re-joins from its recovered epoch.
    shared
        .commit(next, |_| Ok(rec), Barrier::Policy)
        .map_err(|e| format!("follower wal append: {e}"))?;
    drop(apply_span);
    repl.records_applied.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("repl.records_applied");
    shared.update_lag();
    Ok(())
}
