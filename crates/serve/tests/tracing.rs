//! Distributed-tracing contract, against real `serve` processes: one
//! trace id spans a REDIRECTed read's follower admission and primary
//! execution, and a traced write's commit span reappears in the
//! follower's apply span via the `#repl` stream.

#![cfg(unix)]

mod support;

use intensio_serve::json::{self, Json};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use support::{temp_dir, ServeChild};

/// A `serve` child with tracing armed at sample 1.0 into its own trace
/// directory, which is returned alongside it.
fn spawn_traced(tag: &str, extra: &[&str]) -> (ServeChild, PathBuf) {
    let trace_dir = temp_dir(&format!("{tag}-trace"));
    let dir = trace_dir.to_str().expect("utf-8 temp dir");
    let mut args = vec![
        "--trace-dir",
        dir,
        "--trace-sample",
        "1.0",
        "--fsync",
        "off",
    ];
    args.extend_from_slice(extra);
    let child = ServeChild::spawn(&temp_dir(&format!("{tag}-data")), &args);
    (child, trace_dir)
}

/// Poll a child's trace files (the background flusher writes them
/// every ~200ms) until `pred` matches some line.
fn await_trace_line(trace_dir: &Path, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for entry in std::fs::read_dir(trace_dir).unwrap().flatten() {
            if let Ok(content) = std::fs::read_to_string(entry.path()) {
                if let Some(line) = content.lines().find(|l| pred(l)) {
                    return line.to_string();
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "no trace line matching {what} in {}",
            trace_dir.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

const READ: &str = "SELECT Class FROM CLASS WHERE Displacement > 8000";

#[test]
fn one_trace_spans_follower_redirect_and_primary_execution() {
    let (primary, p_trace) = spawn_traced("p", &[]);
    // Two followers (the 1p2f topology); the REDIRECT probe goes
    // through the first. `--deadline-ms` keeps the redirect prompt.
    let follower_args = ["--replicate-from", &primary.addr, "--deadline-ms", "300"];
    let (f1, f1_trace) = spawn_traced("f1", &follower_args);
    let _f2 = spawn_traced("f2", &follower_args);

    let mut pc = primary.connect();
    let mut fc = f1.connect();

    // A traced write on the primary: its commit span ids ride the
    // `#repl` stream to both followers.
    let write_trace = "11c0ffee00000001";
    let v = pc.json(&format!(
        "#trace {write_trace}/0000000000000000 QUEL append to SUBMARINE \
         (Id = \"TRC0001\", Name = \"Trace Probe\", Class = \"0101\")"
    ));
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "append failed"
    );
    assert_eq!(v.get("trace").and_then(Json::as_str), Some(write_trace));
    let acked_epoch = v.get("epoch").and_then(Json::as_u64).expect("acked epoch");

    // A REDIRECTed read: ask the follower for an epoch nobody has.
    // The reply is the redirect, under the same trace id.
    let read_trace = "22c0ffee00000002";
    let v = fc.json(&format!(
        "#trace {read_trace}/0000000000000000 SQL@{} {READ}",
        acked_epoch + 1000
    ));
    assert_eq!(v.get("trace").and_then(Json::as_str), Some(read_trace));
    let err = v
        .get("error")
        .and_then(Json::as_str)
        .expect("redirect error");
    assert!(
        err.starts_with("REDIRECT "),
        "expected a redirect, got {err:?}"
    );
    let target = err.split_whitespace().nth(1).unwrap().trim_end_matches(':');
    assert_eq!(target, primary.addr, "redirect names the primary");

    // The client re-issues against the primary under the same id —
    // that is the stitch that makes one cross-node trace.
    let v = pc.json(&format!("#trace {read_trace}/0000000000000000 SQL {READ}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("trace").and_then(Json::as_str), Some(read_trace));

    // Both nodes' trace files carry spans of the read's trace: the
    // follower its admission/redirect leg, the primary the execution.
    let follower_leg = await_trace_line(&f1_trace, "follower redirect span", |l| {
        l.contains(read_trace) && l.contains("serve.admission")
    });
    assert!(follower_leg.contains("redirect"), "got {follower_leg}");
    await_trace_line(&p_trace, "primary execution span", |l| {
        l.contains(read_trace) && l.contains("serve.request")
    });

    // The traced write reappears on the follower as a repl.apply span
    // under the write's trace id (shipped on the record line).
    await_trace_line(&f1_trace, "follower apply span", |l| {
        l.contains(write_trace) && l.contains("repl.apply")
    });
    // And the primary logged the commit (wal.append) under it.
    await_trace_line(&p_trace, "primary commit span", |l| {
        l.contains(write_trace) && l.contains("wal.append")
    });
}

/// Trace lines and flight records escape strings per RFC 8259: a span
/// field holding a newline, a tab, a control character, a quote and a
/// backslash parses back byte for byte through the wire protocol's
/// JSON parser.
#[test]
fn trace_lines_and_flight_records_round_trip_control_characters() {
    const NASTY: &str = "\n\t\u{1}\"\\";
    let field = |v: &Json| {
        v.get("fields")
            .and_then(|f| f.get("nasty"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };

    let sink = intensio_obs::set_trace_sink(&temp_dir("escape-trace"), 1.0).unwrap();
    {
        let _trace = intensio_obs::with_context(intensio_obs::start_trace());
        let _span = intensio_obs::Span::enter("escape.probe").with_field("nasty", NASTY);
    }
    intensio_obs::flush_trace_sink();
    let traced: Vec<String> = std::fs::read_to_string(&sink)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad trace line ({e}): {l}")))
        .filter_map(|v| field(&v))
        .collect();
    assert_eq!(traced, [NASTY]);

    intensio_obs::flightrec::set_dir(Some(&temp_dir("escape-flightrec")));
    let dump = intensio_obs::flight_record("escape_probe").expect("flight record written");
    let record = json::parse(&std::fs::read_to_string(&dump).unwrap()).unwrap();
    let spans = record.get("spans").and_then(Json::as_array).expect("spans");
    assert!(
        spans.iter().filter_map(field).any(|f| f == NASTY),
        "flight record lost the field"
    );
}
