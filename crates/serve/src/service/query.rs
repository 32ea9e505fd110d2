//! Request execution: SQL, EXPLAIN, PROFILE, QUEL, CHECK and FAULT.
//!
//! * **Writers are serialized** by `write_lock`. A write clones the
//!   database (copy-on-write — only touched relations are deep-copied),
//!   applies the whole QUEL script to the clone, and commits the result
//!   as the next epoch; a failing script commits nothing. The induced
//!   rules carry over, flagged stale (`rules_fresh = false`), and the
//!   background inducer is woken.
//! * **Deadlines degrade, never lie.** A request past its deadline (or
//!   whose inference fails) skips fresh inference and falls down a
//!   ladder: stale-epoch cached answer, then extensional-only answer —
//!   always with `degraded = true` on the reply. The extensional rows
//!   are always computed against the pinned snapshot, so degraded
//!   answers are correct answers with weaker (or absent) intensional
//!   characterizations.

use super::telemetry::{stats_reply, telemetry_reply};
use super::{Barrier, Shared};
use crate::gate;
use crate::reply::{
    CheckReply, ExplainReply, ProfileNode, ProfileReply, QueryReply, Reply, Request, Soundness,
};
use crate::snapshot::Snapshot;
use intensio_inference::{condition_fingerprint, InferenceEngine, IntensionalAnswer};
use intensio_quel::{AccessKind, Output, Session};
use intensio_sql::{analyze, parse, Selection};
use intensio_wal::record::Record;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(super) fn execute(
    shared: &Shared,
    request: &Request,
    deadline: Option<std::time::Instant>,
) -> Reply {
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
    let extensional = match intensio_sql::select(&snap.db, &q) {
        Ok(r) => r,
        Err(e) => return error(format!("sql execute: {e}")),
    };

    let summary = intensio_core::summarize_selection(&extensional, snap.dictionary.model());
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    intensio_obs::inc("serve.queries");
    Reply::Query(QueryReply {
        epoch: snap.epoch,
        cached,
        rules_fresh: snap.rules_fresh,
        degraded,
        soundness: Soundness::of(&intensional),
        result: extensional,
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
        rows: q.row_count() as u64,
        total_us,
        tree: vec![ProfileNode {
            name: "request".to_string(),
            duration_us: total_us,
            fields: vec![("rows".to_string(), q.row_count().to_string())],
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
    Reply::Query(quel_reply(&snap, outputs))
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
    let reply = quel_reply(&next, outputs);
    // Durability barrier: the record must be on the log (under the
    // configured fsync policy) before the new epoch is published or the
    // client acknowledged.
    let record = |next: &Snapshot| {
        Ok(Record::write(next.epoch, next.data_version, script).with_term(next.term))
    };
    let data_version = next.data_version;
    if let Err(e) = shared.commit(next, record, Barrier::Policy) {
        return error(format!("durability: {e}"));
    }
    shared.note_write_acked(data_version);
    shared.counters.writes.fetch_add(1, Ordering::Relaxed);
    shared.induce.signal();
    Reply::Query(reply)
}

fn quel_reply(snap: &Snapshot, outputs: Vec<Output>) -> QueryReply {
    let mut affected = None;
    let mut result = None;
    for out in outputs {
        match out {
            Output::Relation(r) => result = Some(r),
            Output::Affected(n) => *affected.get_or_insert(0) += n,
            Output::None | Output::Stored(_) => {}
        }
    }
    QueryReply {
        epoch: snap.epoch,
        cached: false,
        rules_fresh: snap.rules_fresh,
        degraded: false,
        soundness: Soundness::None,
        result: result.map(Selection::from).unwrap_or_default(),
        intensional: Arc::new(IntensionalAnswer::default()),
        headline: None,
        summary: None,
        affected,
    }
}

pub(super) fn error(message: String) -> Reply {
    Reply::Error { message }
}
