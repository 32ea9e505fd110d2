//! # intensio-obs
//!
//! A zero-dependency structured tracing and metrics layer for the
//! intensional query pipeline. The paper's value proposition is
//! *explanatory* — an intensional answer is only trustworthy if you can
//! see which induced rules fired, in which inference direction, and at
//! what cost — so every stage of the pipeline (parse → inference →
//! induction → storage scan → serve) records into this crate:
//!
//! * **Spans** ([`Span`]): RAII-timed regions with key/value fields,
//!   parent/child nesting (thread-local), and thread-safe collection
//!   into a bounded ring buffer ([`recent_spans`]).
//! * **Metrics** ([`Registry`]): named counters, gauges, and
//!   fixed-bucket latency histograms, named or per pipeline [`Stage`], with
//!   p50/p95/p99 estimation, exported as Prometheus-style text and as
//!   JSON ([`MetricsSnapshot`]).
//! * **Verbosity and slow-span logging**: a global [`Level`]
//!   (silent/normal/verbose, also settable via the `INTENSIO_LOG`
//!   environment variable) and a configurable slow-span threshold that
//!   logs any span exceeding it to stderr.
//!
//! All recording funnels through one process-global [`Registry`]
//! (instrumented crates cannot thread a handle through every
//! signature); independent registries can still be constructed for
//! tests. Recording is gated on a global enabled flag so benchmarks can
//! measure the instrumentation's own overhead:
//!
//! ```
//! use intensio_obs::{self as obs, Span, Stage};
//!
//! let _span = Span::stage("inference.forward", Stage::Inference)
//!     .with_field("rules_fired", 3);
//! obs::add("inference.rules_fired", 3);
//! drop(_span);
//! let snap = obs::metrics().snapshot();
//! assert!(snap.counters["inference.rules_fired"] >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flightrec;
pub mod metrics;
pub mod span;
pub mod trace;

pub use flightrec::flight_record;
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, Registry, Stage};
pub use span::{recent_spans, Span, SpanRecord};
pub use trace::{flush_trace_sink, set_trace_sink, start_trace, with_context, TraceContext};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// How chatty the observability layer is on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Nothing is printed (metrics still record).
    Silent,
    /// Slow-span warnings only.
    #[default]
    Normal,
    /// Every closed span is printed.
    Verbose,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Silent,
            2 => Level::Verbose,
            _ => Level::Normal,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Level::Silent => 0,
            Level::Normal => 1,
            Level::Verbose => 2,
        }
    }

    /// Parse a level name as used by `INTENSIO_LOG`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "silent" | "quiet" | "off" | "0" | "none" => Some(Level::Silent),
            "normal" | "info" | "1" | "on" => Some(Level::Normal),
            "verbose" | "debug" | "trace" | "2" => Some(Level::Verbose),
            _ => None,
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);
static LEVEL: AtomicU8 = AtomicU8::new(1);
static SLOW_US: AtomicU64 = AtomicU64::new(0);

/// The process-global metrics registry all instrumentation records into.
pub fn metrics() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Append `s` to `out` as an RFC 8259 JSON string literal, quotes
/// included: `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` get
/// their short escapes, and every other control character becomes
/// `\u00XX`. The one JSON string escaper of the workspace.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    // Every escaped byte is ASCII, so each cut lands on a char boundary.
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append span fields as a JSON object member: `,"fields":{"k":"v",..}`
/// (nothing when there are none).
pub(crate) fn push_json_fields(out: &mut String, fields: &[(&'static str, String)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
    }
    out.push('}');
}

/// Whether recording is enabled (cheap relaxed load; hot paths check
/// this before doing any work).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable all recording (spans, histograms, counters).
/// Benchmarks toggle this to bound instrumentation overhead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The current verbosity level.
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Set the verbosity level.
pub fn set_level(level: Level) {
    LEVEL.store(level.as_u8(), Ordering::Relaxed);
}

/// Initialize the level from the `INTENSIO_LOG` environment variable
/// (`silent`/`quiet`/`off`, `normal`/`info`, `verbose`/`debug`).
/// Unset or unrecognized values leave the current level unchanged.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("INTENSIO_LOG") {
        if let Some(l) = Level::parse(&v) {
            set_level(l);
        }
    }
}

/// The slow-span threshold in microseconds (`0` disables the log).
pub fn slow_span_threshold_us() -> u64 {
    SLOW_US.load(Ordering::Relaxed)
}

/// Set the slow-span threshold. Any span whose duration meets or
/// exceeds it is logged to stderr (unless the level is silent).
pub fn set_slow_span_threshold(d: Duration) {
    SLOW_US.store(
        d.as_micros().min(u64::MAX as u128) as u64,
        Ordering::Relaxed,
    );
}

static SLOW_STAGE_US: [AtomicU64; Stage::ALL.len()] =
    [const { AtomicU64::new(0) }; Stage::ALL.len()];

/// The per-stage slow-span threshold in microseconds (`0` means the
/// stage falls back to the request-scope [`slow_span_threshold_us`]).
pub fn stage_slow_threshold_us(stage: Stage) -> u64 {
    SLOW_STAGE_US[stage.index()].load(Ordering::Relaxed)
}

/// Set a per-stage slow-span threshold. A stage span whose duration
/// meets or exceeds it is logged even when the request-scope threshold
/// would let it pass — a 2 ms scan is notable inside a 50 ms budget.
pub fn set_stage_slow_threshold(stage: Stage, d: Duration) {
    SLOW_STAGE_US[stage.index()].store(
        d.as_micros().min(u64::MAX as u128) as u64,
        Ordering::Relaxed,
    );
}

/// Increment a named counter on the global registry by 1.
pub fn inc(name: &str) {
    add(name, 1);
}

/// Increment a named counter on the global registry.
pub fn add(name: &str, n: u64) {
    if enabled() {
        metrics().add(name, n);
    }
}

/// Set a named gauge on the global registry.
pub fn gauge(name: &str, value: i64) {
    if enabled() {
        metrics().gauge(name, value);
    }
}

/// Record a duration into a named histogram on the global registry.
pub fn observe(name: &str, d: Duration) {
    if enabled() {
        metrics().observe(name, d);
    }
}

/// Record a duration into a stage histogram on the global registry.
pub fn record_stage(stage: Stage, d: Duration) {
    if enabled() {
        metrics().stage(stage).record(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_follows_rfc_8259() {
        let lit = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, s);
            out
        };
        assert_eq!(lit("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(lit("\t\r\u{1}\u{1f}"), "\"\\t\\r\\u0001\\u001f\"");
        assert_eq!(lit("é→ plain"), "\"é→ plain\"");
    }
}
