//! `STATS`, `TELEMETRY` and the cluster-telemetry poller.

use super::{timeouts, Shared};
use crate::reply::{DurabilityStats, PeerTelemetry, ReplStats, StatsReply, TelemetryReply};
use std::sync::atomic::Ordering;

pub(super) fn stats_reply(shared: &Shared) -> StatsReply {
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

/// This node's own telemetry sample, for the `TELEMETRY` verb.
pub(super) fn telemetry_reply(shared: &Shared) -> TelemetryReply {
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
/// `TELEMETRY` verb to every peer named by [`Service::set_peers`](super::Service::set_peers) and
/// merge the samples into this node's `STATS`/Prometheus view (the
/// `cluster` array plus `cluster.peer<i>.*` gauges). Runs on every
/// node but does nothing until peers are configured; a dead peer costs
/// one short connect timeout per round, never a query worker.
pub(super) fn poller_loop(shared: &Shared) {
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
                    ..PeerTelemetry::default()
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
                for (name, value) in [
                    ("epoch", peer.epoch),
                    ("lag_epochs", peer.lag_epochs),
                    ("apply_rate", peer.apply_rate),
                    ("reconnects", peer.reconnects),
                    ("degraded_answers", peer.degraded_answers),
                ] {
                    intensio_obs::gauge(&format!("cluster.peer{i}.{name}"), value as i64);
                }
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
pub(super) fn poll_peer(local_label: &str, addr: &str) -> Option<PeerTelemetry> {
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
