//! The line-based wire protocol.
//!
//! One request per line, one single-line JSON response per request:
//!
//! ```text
//! C: SQL SELECT Class FROM CLASS WHERE Displacement > 8000
//! S: {"ok":true,"kind":"query","epoch":0,"cached":false,...}
//! C: QUEL range of s is SUBMARINE\nretrieve (s.Name)
//! S: {"ok":true,"kind":"query",...}
//! C: EXPLAIN SELECT Class FROM CLASS WHERE Displacement > 8000
//! S: {"ok":true,"kind":"explain","provenance":[{"rule_id":3,...}],...}
//! C: STATS
//! S: {"ok":true,"kind":"stats",...,"metrics":{...}}
//! C: QUIT
//! ```
//!
//! Verbs are case-insensitive. Because requests are line-framed, a
//! multi-statement QUEL script is written on one line with the
//! two-character escape `\n` between statements (and `\\` for a
//! literal backslash) — [`parse_request`] unescapes before parsing.
//!
//! Query responses carry: `epoch` (the knowledge version that
//! answered), `cached` (intensional answer served from the LRU cache),
//! `rules_fresh` (false while a background re-induction is pending),
//! `soundness` (`"superset"` / `"subset"` / `"mixed"` / `"none"`, the
//! paper's §4 containment direction), `columns` + `rows` (the
//! extensional answer), `intensional` (rendered characterization
//! lines), `headline`, `summary`, and `affected` (mutations only).
//! `EXPLAIN` responses drop the rows and instead carry `provenance`: an
//! array of `{rule_id, support, direction, conclusion}` objects — the
//! rule applications behind the intensional answer. `STATS` responses
//! carry the service counters plus a `metrics` object (counters,
//! gauges, and per-stage latency histograms with p50/p95/p99 in µs).
//! Error responses are `{"ok":false,"error":"..."}`.
//!
//! Fault tolerance on the wire: query and explain responses carry
//! `degraded` (true when the intensional side fell back to a
//! stale-epoch cached answer or was dropped entirely); a shed request
//! answers `{"ok":false,"kind":"busy",...}` without executing; and the
//! `FAULT` verb (`FAULT LIST` / `FAULT SET name=spec[;...]` /
//! `FAULT CLEAR`) administers [`intensio_fault`] faults — failpoints
//! and link faults — at runtime.
//!
//! Observability on the wire: `PROFILE <sql>` runs the query and
//! answers with an EXPLAIN-ANALYZE-style timing tree; `TELEMETRY`
//! returns one node's replication/latency sample (the cluster poller's
//! probe). A request line may carry a distributed-tracing prefix,
//! `#trace <trace-id>/<parent-span>` (two 16-digit lowercase hex
//! fields), before the verb — see [`parse_traced`]. Replies to traced
//! requests lead with a `"trace"` field echoing the trace id, so a
//! client that was REDIRECTed can re-issue under the same id and stitch
//! one trace across nodes.

use crate::json::ObjWriter;
use crate::reply::{Reply, Request};

/// A decoded request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Execute via [`crate::Service::submit`].
    Execute(Request),
    /// Execute once the node's epoch reaches the given minimum
    /// (read-your-writes on a follower), via [`crate::Service::submit_at`].
    ExecuteAt(Request, u64),
    /// Switch the connection into a replication stream from the given
    /// epoch, via [`crate::Service::replicate`]. The second field is
    /// the follower's highest durably observed primary term
    /// (`REPLICATE <from-epoch> [term=<t>] [node=<label>]`; a missing
    /// term means term 0, for pre-failover clients). The optional
    /// `node=` token names the follower (`--net-name`), so the primary
    /// can attribute the stream to a cluster link — that is what lets
    /// `net.dup=a->b`-style fault specs tear exactly this stream
    /// without touching any client connection.
    Replicate(u64, u64, Option<String>),
    /// Close the connection.
    Quit,
}

/// Decode one request line. Returns `Err` with a client-facing message
/// for unknown verbs or missing arguments.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let upper = verb.to_ascii_uppercase();
    // `SQL@7` / `QUEL@7` / `EXPLAIN@7`: don't answer from state older
    // than epoch 7 (read-your-writes against a lagging follower).
    let (base, min_epoch) = match upper.split_once('@') {
        Some((base, at)) => {
            let epoch: u64 = at
                .parse()
                .map_err(|_| format!("bad min-epoch in {verb:?}; expected e.g. SQL@7"))?;
            if !matches!(base, "SQL" | "QUEL" | "EXPLAIN") {
                return Err(format!(
                    "the @min-epoch suffix applies to SQL, QUEL, and EXPLAIN, not {base}"
                ));
            }
            (base.to_string(), Some(epoch))
        }
        None => (upper, None),
    };
    let execute = |req: Request| match min_epoch {
        Some(epoch) => WireRequest::ExecuteAt(req, epoch),
        None => WireRequest::Execute(req),
    };
    match base.as_str() {
        "SQL" if !rest.is_empty() => Ok(execute(Request::Sql(rest.to_string()))),
        "QUEL" if !rest.is_empty() => Ok(execute(Request::Quel(unescape_script(rest)))),
        "EXPLAIN" if !rest.is_empty() => Ok(execute(Request::Explain(rest.to_string()))),
        "PROFILE" if !rest.is_empty() => Ok(execute(Request::Profile(rest.to_string()))),
        "SQL" | "QUEL" | "EXPLAIN" | "PROFILE" => Err(format!("{base} requires a query argument")),
        "STATS" => Ok(WireRequest::Execute(Request::Stats)),
        "TELEMETRY" => Ok(WireRequest::Execute(Request::Telemetry)),
        "FAULT" => Ok(WireRequest::Execute(Request::Fault(rest.to_string()))),
        "CHECK" => Ok(WireRequest::Execute(Request::Check(unescape_script(rest)))),
        "REPLICATE" => {
            let mut tokens = rest.split_whitespace();
            let from = tokens
                .next()
                .unwrap_or("")
                .parse::<u64>()
                .map_err(|_| format!("REPLICATE requires a from-epoch argument, got {rest:?}"))?;
            let mut term = 0u64;
            let mut node = None;
            for suffix in tokens {
                if let Some(t) = suffix.strip_prefix("term=") {
                    term = t.parse::<u64>().map_err(|_| {
                        format!("bad REPLICATE suffix {suffix:?}; expected term=<n>")
                    })?;
                } else if let Some(label) = suffix.strip_prefix("node=") {
                    node = Some(label.to_string());
                } else {
                    return Err(format!(
                        "bad REPLICATE suffix {suffix:?}; expected term=<n> or node=<label>"
                    ));
                }
            }
            Ok(WireRequest::Replicate(from, term, node))
        }
        "QUIT" => Ok(WireRequest::Quit),
        "" => Err(
            "empty request; expected SQL, QUEL, EXPLAIN, PROFILE, CHECK, STATS, TELEMETRY, FAULT, REPLICATE, or QUIT"
                .to_string(),
        ),
        other => Err(format!(
            "unknown verb {other:?}; expected SQL, QUEL, EXPLAIN, PROFILE, CHECK, STATS, TELEMETRY, FAULT, REPLICATE, or QUIT"
        )),
    }
}

/// The request-line prefix that carries distributed-tracing context.
const TRACE_PREFIX: &str = "#trace ";

/// Decode one request line, honoring an optional `#trace
/// <trace-id>/<parent-span> ` prefix ahead of the verb. Returns the
/// trace context (if a well-formed prefix was present) alongside the
/// ordinary [`parse_request`] result. A malformed prefix fails the
/// whole line — silently dropping it would break the client's trace
/// stitching without telling anyone.
pub fn parse_traced(
    line: &str,
) -> (
    Option<intensio_obs::TraceContext>,
    Result<WireRequest, String>,
) {
    let trimmed = line.trim_start();
    let Some(rest) = trimmed.strip_prefix(TRACE_PREFIX) else {
        return (None, parse_request(line));
    };
    let Some((token, request)) = rest.trim_start().split_once(char::is_whitespace) else {
        return (None, Err("#trace prefix without a request".to_string()));
    };
    match parse_trace_token(token) {
        Some(ctx) => (Some(ctx), parse_request(request)),
        None => (
            None,
            Err(format!(
                "bad trace token {token:?}; expected <16-hex-trace-id>/<16-hex-span-id>"
            )),
        ),
    }
}

/// Parse `<trace:016x>/<span:016x>`. A zero trace id is reserved for
/// "untraced" and rejected.
fn parse_trace_token(token: &str) -> Option<intensio_obs::TraceContext> {
    let (t, s) = token.split_once('/')?;
    if t.len() != 16 || s.len() != 16 {
        return None;
    }
    let trace_id = u64::from_str_radix(t, 16).ok()?;
    let parent_span = u64::from_str_radix(s, 16).ok()?;
    if trace_id == 0 {
        return None;
    }
    Some(intensio_obs::TraceContext {
        trace_id,
        parent_span,
    })
}

/// Render a trace context as the client-side request prefix.
pub fn format_trace_prefix(ctx: intensio_obs::TraceContext) -> String {
    format!(
        "{TRACE_PREFIX}{:016x}/{:016x} ",
        ctx.trace_id, ctx.parent_span
    )
}

/// [`encode_reply`], but leading with a `"trace"` field echoing the
/// request's trace id when the request was traced. The echo is what
/// lets a client stitch a REDIRECTed read into one cross-node trace: it
/// re-issues against the primary under the id the reply confirmed.
pub fn encode_reply_with_trace(reply: &Reply, ctx: Option<intensio_obs::TraceContext>) -> String {
    let s = encode_reply(reply);
    match ctx {
        // `encode_reply` always produces `{"..."` — splice after the brace.
        Some(t) => format!("{{\"trace\":\"{:016x}\",{}", t.trace_id, &s[1..]),
        None => s,
    }
}

/// Turn the line-safe escapes back into script text: `\n` → newline,
/// `\\` → backslash. Unrecognized escapes pass through untouched.
pub fn unescape_script(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Escape script text for a one-line `QUEL` request (client side).
pub fn escape_script(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Encode a service reply as one JSON line (no trailing newline).
pub fn encode_reply(reply: &Reply) -> String {
    let mut w = ObjWriter::new();
    match reply {
        Reply::Query(q) => {
            let intensional: Vec<String> = if q.intensional.is_empty() {
                Vec::new()
            } else {
                q.intensional
                    .render()
                    .lines()
                    .map(str::to_string)
                    .filter(|l| !l.is_empty())
                    .collect()
            };
            w.bool("ok", true)
                .str("kind", "query")
                .num("epoch", q.epoch)
                .bool("cached", q.cached)
                .bool("rules_fresh", q.rules_fresh)
                .bool("degraded", q.degraded)
                .str("soundness", q.soundness.as_str())
                .str_array("columns", &q.columns)
                .rows("rows", &q.rows)
                .str_array("intensional", &intensional)
                .opt_str("headline", q.headline.as_deref())
                .opt_str("summary", q.summary.as_deref());
            match q.affected {
                Some(n) => w.num("affected", n as u64),
                None => w.raw("affected", "null"),
            };
        }
        Reply::Explain(e) => {
            let intensional: Vec<String> = if e.intensional.is_empty() {
                Vec::new()
            } else {
                e.intensional
                    .render()
                    .lines()
                    .map(str::to_string)
                    .filter(|l| !l.is_empty())
                    .collect()
            };
            w.bool("ok", true)
                .str("kind", "explain")
                .num("epoch", e.epoch)
                .bool("cached", e.cached)
                .bool("rules_fresh", e.rules_fresh)
                .bool("degraded", e.degraded)
                .str("soundness", e.soundness.as_str())
                .raw("provenance", &encode_provenance(&e.intensional.provenance))
                .str_array("intensional", &intensional)
                .opt_str("headline", e.headline.as_deref());
        }
        Reply::Check(c) => {
            use intensio_check::Severity;
            w.bool("ok", true)
                .str("kind", "check")
                .num("epoch", c.epoch)
                .bool("rules_fresh", c.rules_fresh)
                .bool("rejected", c.rejected)
                .num("errors", c.report.count(Severity::Error) as u64)
                .num("warnings", c.report.count(Severity::Warn) as u64)
                .num("infos", c.report.count(Severity::Info) as u64)
                .raw("diagnostics", &c.report.render_json());
        }
        Reply::Stats(s) => {
            w.bool("ok", true)
                .str("kind", "stats")
                .num("epoch", s.epoch)
                .num("data_version", s.data_version)
                .bool("rules_fresh", s.rules_fresh)
                .num("queries", s.queries)
                .num("cache_hits", s.cache_hits)
                .num("cache_misses", s.cache_misses)
                .num("cache_len", s.cache_len)
                .num("cache_capacity", s.cache_capacity)
                .num("writes", s.writes)
                .num("inductions", s.inductions)
                .num("errors", s.errors)
                .num("requests_shed", s.requests_shed)
                .num("worker_restarts", s.worker_restarts)
                .num("induction_retries", s.induction_retries)
                .num("rulesets_rejected", s.rulesets_rejected)
                .num("rules_pruned", s.rules_pruned)
                .num("degraded_answers", s.degraded_answers)
                .num("workers", s.workers)
                .str("role", &s.role)
                .num("term", s.term);
            match &s.repl {
                Some(r) => {
                    let mut rw = ObjWriter::new();
                    rw.str("primary", &r.primary)
                        .bool("connected", r.connected)
                        .num("primary_epoch", r.primary_epoch)
                        .num("lag_epochs", r.lag_epochs)
                        .num("records_applied", r.records_applied)
                        .num("reconnects", r.reconnects)
                        .num("half_open_drops", r.half_open_drops)
                        .num("stale_term_rejections", r.stale_term_rejections);
                    match r.heartbeat_age_ms {
                        Some(age) => rw.num("heartbeat_age_ms", age),
                        None => rw.raw("heartbeat_age_ms", "null"),
                    };
                    w.raw("repl", &rw.finish())
                }
                None => w.raw("repl", "null"),
            };
            match &s.durability {
                Some(d) => {
                    let mut dw = ObjWriter::new();
                    dw.str("fsync", &d.fsync)
                        .num("wal_appends", d.wal_appends)
                        .num("wal_append_bytes", d.wal_append_bytes)
                        .num("wal_fsyncs", d.wal_fsyncs)
                        .num("wal_checkpoints", d.wal_checkpoints)
                        .num("wal_segment_seq", d.wal_segment_seq)
                        .num("recovered_epoch", d.recovered_epoch)
                        .num("replayed_records", d.replayed_records)
                        .num("discarded_records", d.discarded_records)
                        .num("recovery_ms", d.recovery_ms);
                    w.raw("durability", &dw.finish())
                }
                None => w.raw("durability", "null"),
            };
            let mut cluster = String::from("[");
            for (i, p) in s.cluster.iter().enumerate() {
                if i > 0 {
                    cluster.push(',');
                }
                let mut pw = ObjWriter::new();
                pw.str("addr", &p.addr)
                    .bool("ok", p.ok)
                    .str("role", &p.role)
                    .num("epoch", p.epoch)
                    .num("term", p.term)
                    .num("lag_epochs", p.lag_epochs)
                    .num("records_applied", p.records_applied)
                    .num("apply_rate", p.apply_rate)
                    .num("reconnects", p.reconnects)
                    .num("degraded_answers", p.degraded_answers)
                    .num("requests_shed", p.requests_shed)
                    .num("worker_restarts", p.worker_restarts);
                cluster.push_str(&pw.finish());
            }
            cluster.push(']');
            w.raw("cluster", &cluster);
            w.raw("metrics", &s.metrics.to_json());
        }
        Reply::Profile(p) => {
            w.bool("ok", true)
                .str("kind", "profile")
                .num("epoch", p.epoch)
                .bool("cached", p.cached)
                .bool("rules_fresh", p.rules_fresh)
                .bool("degraded", p.degraded)
                .num("rows", p.rows)
                .num("total_us", p.total_us)
                .raw("tree", &encode_profile_nodes(&p.tree));
        }
        Reply::Telemetry(t) => {
            w.bool("ok", true)
                .str("kind", "telemetry")
                .str("role", &t.role)
                .num("epoch", t.epoch)
                .num("term", t.term)
                .bool("rules_fresh", t.rules_fresh)
                .bool("connected", t.connected)
                .num("lag_epochs", t.lag_epochs)
                .num("records_applied", t.records_applied)
                .num("reconnects", t.reconnects)
                .num("queries", t.queries)
                .num("degraded_answers", t.degraded_answers)
                .num("requests_shed", t.requests_shed)
                .num("worker_restarts", t.worker_restarts)
                .num("repl_apply_p99_us", t.repl_apply_p99_us)
                .num("wal_append_p99_us", t.wal_append_p99_us);
        }
        Reply::Busy => {
            w.bool("ok", false)
                .str("kind", "busy")
                .str("error", "server at capacity; retry later");
        }
        Reply::Fault { failpoints } => {
            w.bool("ok", true)
                .str("kind", "fault")
                .raw("failpoints", &encode_failpoints(failpoints));
        }
        Reply::Error { message } => {
            w.bool("ok", false).str("error", message);
        }
    }
    w.finish()
}

/// Encode armed failpoints as a JSON array of
/// `{"name":..,"spec":..,"hits":..,"triggered":..}`.
fn encode_failpoints(points: &[intensio_fault::FailpointStatus]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut w = ObjWriter::new();
        w.str("name", &p.name)
            .str("spec", &p.spec)
            .num("hits", p.hits)
            .num("triggered", p.triggered);
        out.push_str(&w.finish());
    }
    out.push(']');
    out
}

/// Encode a profile timing tree as a JSON array of
/// `{"name":..,"us":..,"fields":{..},"children":[..]}` nodes.
fn encode_profile_nodes(nodes: &[crate::reply::ProfileNode]) -> String {
    let mut out = String::from("[");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut fields = ObjWriter::new();
        for (k, v) in &n.fields {
            fields.str(k, v);
        }
        let mut w = ObjWriter::new();
        w.str("name", &n.name)
            .num("us", n.duration_us)
            .raw("fields", &fields.finish())
            .raw("children", &encode_profile_nodes(&n.children));
        out.push_str(&w.finish());
    }
    out.push(']');
    out
}

/// Encode a provenance list as a JSON array of
/// `{"rule_id":..,"support":..,"direction":"forward","conclusion":".."}`.
fn encode_provenance(uses: &[intensio_inference::RuleUse]) -> String {
    let mut out = String::from("[");
    for (i, u) in uses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut w = ObjWriter::new();
        w.num("rule_id", u.rule_id as u64)
            .num("support", u.support as u64)
            .str("direction", u.direction.as_str())
            .str("conclusion", &u.conclusion);
        out.push_str(&w.finish());
    }
    out.push(']');
    out
}

/// Encode a protocol-level error (bad request line) as a JSON line.
pub fn encode_protocol_error(message: &str) -> String {
    let mut w = ObjWriter::new();
    w.bool("ok", false).str("error", message);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn parses_request_verbs() {
        assert_eq!(
            parse_request("sql SELECT 1 FROM T"),
            Ok(WireRequest::Execute(Request::Sql("SELECT 1 FROM T".into())))
        );
        assert_eq!(
            parse_request("QUEL range of s is S\\nretrieve (s.Id)"),
            Ok(WireRequest::Execute(Request::Quel(
                "range of s is S\nretrieve (s.Id)".into()
            )))
        );
        assert_eq!(
            parse_request(" stats "),
            Ok(WireRequest::Execute(Request::Stats))
        );
        assert_eq!(
            parse_request("explain SELECT 1 FROM T"),
            Ok(WireRequest::Execute(Request::Explain(
                "SELECT 1 FROM T".into()
            )))
        );
        assert_eq!(
            parse_request("FAULT SET storage.scan=10%error"),
            Ok(WireRequest::Execute(Request::Fault(
                "SET storage.scan=10%error".into()
            )))
        );
        assert_eq!(
            parse_request("fault"),
            Ok(WireRequest::Execute(Request::Fault(String::new())))
        );
        assert_eq!(
            parse_request("CHECK"),
            Ok(WireRequest::Execute(Request::Check(String::new())))
        );
        assert_eq!(
            parse_request("check SELECT 1 FROM T"),
            Ok(WireRequest::Execute(Request::Check(
                "SELECT 1 FROM T".into()
            )))
        );
        assert_eq!(parse_request("QUIT"), Ok(WireRequest::Quit));
        assert!(parse_request("SQL").is_err());
        assert!(parse_request("EXPLAIN").is_err());
        assert!(parse_request("BOGUS x").is_err());
        assert!(parse_request("").is_err());
    }

    #[test]
    fn parses_min_epoch_suffix_and_replicate() {
        assert_eq!(
            parse_request("SQL@7 SELECT 1 FROM T"),
            Ok(WireRequest::ExecuteAt(
                Request::Sql("SELECT 1 FROM T".into()),
                7
            ))
        );
        assert_eq!(
            parse_request("quel@12 range of s is S\\nretrieve (s.Id)"),
            Ok(WireRequest::ExecuteAt(
                Request::Quel("range of s is S\nretrieve (s.Id)".into()),
                12
            ))
        );
        assert_eq!(
            parse_request("EXPLAIN@0 SELECT 1 FROM T"),
            Ok(WireRequest::ExecuteAt(
                Request::Explain("SELECT 1 FROM T".into()),
                0
            ))
        );
        assert_eq!(
            parse_request("REPLICATE 42"),
            Ok(WireRequest::Replicate(42, 0, None))
        );
        assert_eq!(
            parse_request("replicate 0"),
            Ok(WireRequest::Replicate(0, 0, None))
        );
        assert_eq!(
            parse_request("REPLICATE 42 term=3"),
            Ok(WireRequest::Replicate(42, 3, None))
        );
        assert_eq!(
            parse_request("REPLICATE 42 term=3 node=b"),
            Ok(WireRequest::Replicate(42, 3, Some("b".into())))
        );
        assert_eq!(
            parse_request("REPLICATE 7 node=f1"),
            Ok(WireRequest::Replicate(7, 0, Some("f1".into())))
        );
        assert!(parse_request("REPLICATE 42 term=").is_err());
        assert!(parse_request("REPLICATE 42 epoch=3").is_err());
        assert!(parse_request("SQL@ SELECT 1 FROM T").is_err());
        assert!(parse_request("SQL@x SELECT 1 FROM T").is_err());
        assert!(parse_request("STATS@3").is_err());
        assert!(
            parse_request("SQL@7").is_err(),
            "suffix still needs a query"
        );
        assert!(parse_request("REPLICATE").is_err());
        assert!(parse_request("REPLICATE later").is_err());
    }

    #[test]
    fn parses_profile_and_telemetry_verbs() {
        assert_eq!(
            parse_request("profile SELECT 1 FROM T"),
            Ok(WireRequest::Execute(Request::Profile(
                "SELECT 1 FROM T".into()
            )))
        );
        assert_eq!(
            parse_request("TELEMETRY"),
            Ok(WireRequest::Execute(Request::Telemetry))
        );
        assert!(parse_request("PROFILE").is_err(), "PROFILE needs a query");
    }

    #[test]
    fn trace_prefix_round_trips_and_bad_tokens_fail_loudly() {
        let ctx = intensio_obs::TraceContext {
            trace_id: 0xdead_beef_cafe_f00d,
            parent_span: 0x2a,
        };
        let line = format!("{}SQL SELECT 1 FROM T", format_trace_prefix(ctx));
        let (parsed_ctx, req) = parse_traced(&line);
        assert_eq!(parsed_ctx, Some(ctx));
        assert_eq!(
            req,
            Ok(WireRequest::Execute(Request::Sql("SELECT 1 FROM T".into())))
        );
        // No prefix: plain parse, no context.
        let (none_ctx, req) = parse_traced("STATS");
        assert_eq!(none_ctx, None);
        assert_eq!(req, Ok(WireRequest::Execute(Request::Stats)));
        // Malformed prefixes fail the line instead of silently dropping
        // the trace.
        for bad in [
            "#trace deadbeef SQL SELECT 1 FROM T",
            "#trace 0000000000000000/000000000000002a SQL SELECT 1 FROM T",
            "#trace xyzc0ffee0000000/000000000000002a SQL SELECT 1 FROM T",
            "#trace deadbeefcafef00d/000000000000002a",
        ] {
            let (ctx, req) = parse_traced(bad);
            assert_eq!(ctx, None, "{bad:?}");
            assert!(req.is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn traced_replies_lead_with_the_trace_id() {
        let ctx = intensio_obs::TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            parent_span: 0,
        };
        let reply = Reply::Error {
            message: "nope".to_string(),
        };
        let line = encode_reply_with_trace(&reply, Some(ctx));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("trace").unwrap().as_str(), Some("1122334455667788"));
        assert_eq!(v.get("error").unwrap().as_str(), Some("nope"));
        // Untraced replies are byte-identical to `encode_reply`.
        assert_eq!(encode_reply_with_trace(&reply, None), encode_reply(&reply));
    }

    #[test]
    fn profile_reply_encodes_the_timing_tree() {
        use crate::reply::{ProfileNode, ProfileReply};
        let reply = Reply::Profile(Box::new(ProfileReply {
            epoch: 2,
            cached: false,
            rules_fresh: true,
            degraded: false,
            rows: 3,
            total_us: 1200,
            tree: vec![ProfileNode {
                name: "request".to_string(),
                duration_us: 1200,
                fields: vec![("rows".to_string(), "3".to_string())],
                children: vec![ProfileNode {
                    name: "inference.infer".to_string(),
                    duration_us: 800,
                    fields: Vec::new(),
                    children: vec![ProfileNode {
                        name: "rule R5".to_string(),
                        duration_us: 0,
                        fields: vec![("direction".to_string(), "backward".to_string())],
                        children: Vec::new(),
                    }],
                }],
            }],
        }));
        let v = json::parse(&encode_reply(&reply)).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("profile"));
        assert_eq!(v.get("total_us").unwrap().as_u64(), Some(1200));
        let tree = v.get("tree").unwrap().as_array().unwrap();
        assert_eq!(tree[0].get("name").unwrap().as_str(), Some("request"));
        let children = tree[0].get("children").unwrap().as_array().unwrap();
        assert_eq!(
            children[0].get("name").unwrap().as_str(),
            Some("inference.infer")
        );
        let rules = children[0].get("children").unwrap().as_array().unwrap();
        assert_eq!(rules[0].get("name").unwrap().as_str(), Some("rule R5"));
        assert_eq!(
            rules[0]
                .get("fields")
                .unwrap()
                .get("direction")
                .unwrap()
                .as_str(),
            Some("backward")
        );
    }

    #[test]
    fn telemetry_reply_encodes_as_json() {
        use crate::reply::TelemetryReply;
        let line = encode_reply(&Reply::Telemetry(Box::new(TelemetryReply {
            role: "follower".to_string(),
            epoch: 9,
            term: 2,
            rules_fresh: true,
            connected: true,
            lag_epochs: 1,
            records_applied: 42,
            reconnects: 2,
            queries: 100,
            degraded_answers: 3,
            requests_shed: 0,
            worker_restarts: 1,
            repl_apply_p99_us: 450,
            wal_append_p99_us: 90,
        })));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("telemetry"));
        assert_eq!(v.get("role").unwrap().as_str(), Some("follower"));
        assert_eq!(v.get("term").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("lag_epochs").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("records_applied").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("repl_apply_p99_us").unwrap().as_u64(), Some(450));
    }

    #[test]
    fn script_escaping_round_trips() {
        let script = "range of s is S\ndelete s where s.Id = \"a\\b\"";
        assert_eq!(unescape_script(&escape_script(script)), script);
    }

    #[test]
    fn stats_reply_carries_capacity_and_metrics() {
        let reg = intensio_obs::Registry::new();
        reg.inc("serve.queries");
        reg.add("serve.cache_hits", 2);
        reg.stage(intensio_obs::Stage::Parse).record_us(1500);
        let line = encode_reply(&Reply::Stats(Box::new(crate::reply::StatsReply {
            epoch: 3,
            data_version: 4,
            rules_fresh: true,
            queries: 10,
            cache_hits: 6,
            cache_misses: 4,
            cache_len: 4,
            cache_capacity: 128,
            writes: 1,
            inductions: 2,
            errors: 0,
            requests_shed: 5,
            worker_restarts: 1,
            induction_retries: 3,
            rulesets_rejected: 1,
            rules_pruned: 3,
            degraded_answers: 2,
            workers: 4,
            role: "follower".to_string(),
            term: 6,
            repl: Some(crate::reply::ReplStats {
                primary: "127.0.0.1:4050".to_string(),
                connected: true,
                primary_epoch: 5,
                lag_epochs: 2,
                records_applied: 3,
                reconnects: 1,
                half_open_drops: 1,
                heartbeat_age_ms: Some(120),
                stale_term_rejections: 1,
            }),
            durability: Some(crate::reply::DurabilityStats {
                fsync: "batch:8".to_string(),
                wal_appends: 40,
                wal_append_bytes: 4096,
                wal_fsyncs: 5,
                wal_checkpoints: 2,
                wal_segment_seq: 3,
                recovered_epoch: 2,
                replayed_records: 7,
                discarded_records: 1,
                recovery_ms: 12,
            }),
            metrics: reg.snapshot(),
            cluster: vec![crate::reply::PeerTelemetry {
                addr: "127.0.0.1:4061".to_string(),
                ok: true,
                role: "follower".to_string(),
                epoch: 3,
                term: 6,
                lag_epochs: 0,
                records_applied: 9,
                apply_rate: 4,
                reconnects: 0,
                degraded_answers: 0,
                requests_shed: 0,
                worker_restarts: 0,
            }],
        })));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("stats"));
        let dur = v.get("durability").expect("stats reply embeds durability");
        assert_eq!(dur.get("fsync").unwrap().as_str(), Some("batch:8"));
        assert_eq!(dur.get("wal_appends").unwrap().as_u64(), Some(40));
        assert_eq!(dur.get("replayed_records").unwrap().as_u64(), Some(7));
        assert_eq!(dur.get("recovered_epoch").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("cache_capacity").unwrap().as_u64(), Some(128));
        assert_eq!(v.get("requests_shed").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("rulesets_rejected").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("rules_pruned").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("worker_restarts").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("induction_retries").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("degraded_answers").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("role").unwrap().as_str(), Some("follower"));
        assert_eq!(v.get("term").unwrap().as_u64(), Some(6));
        let repl = v.get("repl").expect("stats reply embeds repl");
        assert_eq!(
            repl.get("primary").unwrap().as_str(),
            Some("127.0.0.1:4050")
        );
        assert_eq!(repl.get("connected").unwrap().as_bool(), Some(true));
        assert_eq!(repl.get("lag_epochs").unwrap().as_u64(), Some(2));
        assert_eq!(repl.get("records_applied").unwrap().as_u64(), Some(3));
        assert_eq!(repl.get("reconnects").unwrap().as_u64(), Some(1));
        assert_eq!(repl.get("half_open_drops").unwrap().as_u64(), Some(1));
        assert_eq!(repl.get("heartbeat_age_ms").unwrap().as_u64(), Some(120));
        assert_eq!(repl.get("stale_term_rejections").unwrap().as_u64(), Some(1));
        let cluster = v.get("cluster").unwrap().as_array().unwrap();
        assert_eq!(cluster.len(), 1);
        assert_eq!(
            cluster[0].get("addr").unwrap().as_str(),
            Some("127.0.0.1:4061")
        );
        assert_eq!(cluster[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(cluster[0].get("term").unwrap().as_u64(), Some(6));
        assert_eq!(cluster[0].get("apply_rate").unwrap().as_u64(), Some(4));
        let metrics = v.get("metrics").expect("stats reply embeds metrics");
        let counters = metrics.get("counters").unwrap();
        assert_eq!(counters.get("serve.queries").unwrap().as_u64(), Some(1));
        let hist = metrics.get("histograms").unwrap();
        let stages = ["parse", "inference", "induction", "scan", "request"];
        let missing: Vec<&str> = stages
            .iter()
            .copied()
            .filter(|s| hist.get(s).is_none())
            .collect();
        assert!(
            missing.is_empty(),
            "metrics missing stage histograms: {missing:?}"
        );
        for stage in stages {
            if let Some(h) = hist.get(stage) {
                assert!(h.get("p99_us").unwrap().as_u64().is_some());
            }
        }
    }

    #[test]
    fn busy_and_fault_replies_encode_as_json() {
        let line = encode_reply(&Reply::Busy);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("busy"));

        let line = encode_reply(&Reply::Fault {
            failpoints: vec![intensio_fault::FailpointStatus {
                name: "storage.scan".to_string(),
                spec: "10%error".to_string(),
                hits: 7,
                triggered: 1,
            }],
        });
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("fault"));
        let points = v.get("failpoints").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(
            points[0].get("name").unwrap().as_str(),
            Some("storage.scan")
        );
        assert_eq!(points[0].get("spec").unwrap().as_str(), Some("10%error"));
        assert_eq!(points[0].get("triggered").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn explain_reply_carries_provenance() {
        use intensio_inference::{Direction, IntensionalAnswer, RuleUse};
        let mut answer = IntensionalAnswer::default();
        answer.provenance.push(RuleUse {
            rule_id: 5,
            support: 7,
            direction: Direction::Backward,
            conclusion: "CLASS.Type = \"SSBN\"".to_string(),
        });
        let line = encode_reply(&Reply::Explain(crate::reply::ExplainReply {
            epoch: 1,
            cached: true,
            rules_fresh: true,
            degraded: false,
            soundness: crate::reply::Soundness::None,
            intensional: std::sync::Arc::new(answer),
            headline: None,
        }));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("explain"));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        let prov = v.get("provenance").unwrap().as_array().unwrap();
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].get("rule_id").unwrap().as_u64(), Some(5));
        assert_eq!(prov[0].get("support").unwrap().as_u64(), Some(7));
        assert_eq!(prov[0].get("direction").unwrap().as_str(), Some("backward"));
        assert_eq!(
            prov[0].get("conclusion").unwrap().as_str(),
            Some("CLASS.Type = \"SSBN\"")
        );
    }

    #[test]
    fn check_reply_encodes_severity_counts_and_diagnostics() {
        use intensio_check::{Diagnostic, Report, Severity};
        let mut report = Report::new();
        report.push(
            Diagnostic::new(
                "IC020",
                Severity::Error,
                "R5",
                "conflicts with R24: premises overlap",
            )
            .with_note("R24: if ... then ..."),
        );
        report.push(Diagnostic::new(
            "IC022",
            Severity::Info,
            "rules",
            "gap between rules",
        ));
        let line = encode_reply(&Reply::Check(crate::reply::CheckReply {
            epoch: 7,
            rules_fresh: true,
            rejected: true,
            report,
        }));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("check"));
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("rejected").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("warnings").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("infos").unwrap().as_u64(), Some(1));
        let diags = v.get("diagnostics").unwrap().as_array().unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("IC020"));
        assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(diags[0].get("origin").unwrap().as_str(), Some("R5"));
    }

    #[test]
    fn error_reply_encodes_as_json() {
        let line = encode_reply(&Reply::Error {
            message: "bad \"query\"".to_string(),
        });
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad \"query\""));
    }
}
