//! Distributed tracing: 64-bit trace ids minted at request admission,
//! per-hop span ids, thread-local trace-context propagation, a bounded
//! JSONL trace sink, and a per-thread span collector for `PROFILE`.
//!
//! A trace context is two 64-bit ids: the trace id (constant across
//! every hop of one logical request, including a REDIRECT to the
//! primary and the `#repl` record that ships its write) and the parent
//! span id (the most recent span on the *previous* hop, so a
//! follower's apply span links to the primary's commit span). The wire
//! encoding is `<trace:016x>/<span:016x>`.

use crate::span::SpanRecord;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A propagated trace context: the request's trace id plus the span id
/// of the nearest enclosing span on the sending hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The 64-bit trace id, constant across every hop (never 0).
    pub trace_id: u64,
    /// The parent span id from the previous hop (0 = no parent).
    pub parent_span: u64,
}

impl TraceContext {
    /// Wire encoding: `<trace:016x>/<span:016x>`.
    pub fn encode(&self) -> String {
        format!("{:016x}/{:016x}", self.trace_id, self.parent_span)
    }

    /// Parse the wire encoding produced by [`TraceContext::encode`].
    pub fn parse(s: &str) -> Option<TraceContext> {
        let (t, p) = s.split_once('/')?;
        if t.len() != 16 || p.len() != 16 {
            return None;
        }
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let parent_span = u64::from_str_radix(p, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            parent_span,
        })
    }
}

/// Mint a fresh nonzero 64-bit id (trace or span). A splitmix64 walk
/// over a process-global counter seeded from the clock and the pid:
/// unique within a process, collision-unlikely across a cluster.
pub fn mint_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        nanos ^ ((std::process::id() as u64) << 32)
    });
    loop {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        // splitmix64 finalizer over seed + counter.
        let mut z = seed
            .wrapping_add(n)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        if z != 0 {
            return z;
        }
    }
}

thread_local! {
    /// The trace context installed on this thread, if any. Spans opened
    /// while a context is installed mint span ids and join the trace.
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };

    /// When `Some`, every span closed on this thread is also appended
    /// here (the `PROFILE` collector).
    static COLLECT: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// The trace context installed on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Install `ctx` as this thread's trace context for the guard's
/// lifetime; the previous context (worker threads are reused across
/// requests) is restored on drop.
pub fn with_context(ctx: Option<TraceContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { prev }
}

/// Restores the previously installed trace context on drop. Created by
/// [`with_context`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev.take()));
    }
}

/// The JSONL trace sink: one bounded file per process.
#[derive(Debug)]
struct Sink {
    file: std::io::BufWriter<std::fs::File>,
    written: u64,
}

/// Sink file size cap: past it, events are counted as dropped rather
/// than written, so a long-lived server cannot fill the disk.
const SINK_BYTE_CAP: u64 = 32 * 1024 * 1024;

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
/// Sampling rate in permille (0..=1000); 0 means the sink is inactive.
static SAMPLE_PERMILLE: AtomicU64 = AtomicU64::new(0);
/// Admission counter driving the deterministic sampling decision.
static SAMPLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Open (or truncate) the JSONL trace sink at
/// `dir/trace-<pid>.jsonl` and set the sampling rate (`0.0..=1.0`).
/// Returns the sink path. Passing `sample <= 0` closes the sink.
pub fn set_trace_sink(dir: &Path, sample: f64) -> std::io::Result<PathBuf> {
    let permille = (sample.clamp(0.0, 1.0) * 1000.0).round() as u64;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
    let file = std::fs::File::create(&path)?;
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(Sink {
        file: std::io::BufWriter::new(file),
        written: 0,
    });
    SAMPLE_PERMILLE.store(permille, Ordering::Relaxed);
    // Events buffer through a BufWriter; a background flusher bounds
    // how stale the on-disk file can be, so readers (and a crash) see
    // recent traces without paying a write syscall per span.
    static FLUSHER: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    FLUSHER.get_or_init(|| {
        let spawned = std::thread::Builder::new()
            .name("intensio-trace-flush".to_string())
            .spawn(|| loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                flush_trace_sink();
            });
        // Best-effort: without the thread, events still land on flush
        // calls from shutdown paths.
        drop(spawned);
    });
    Ok(path)
}

/// Whether the trace sink is open and sampling at a nonzero rate.
pub fn sink_active() -> bool {
    SAMPLE_PERMILLE.load(Ordering::Relaxed) > 0
}

/// Flush buffered trace events to disk (tests and shutdown paths).
pub fn flush_trace_sink() {
    if let Some(sink) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
        let _ = sink.file.flush();
    }
}

/// Mint a fresh root trace context for a request admitted without one,
/// subject to the sink's sampling rate. Returns `None` when the sink is
/// inactive or this request lost the sampling draw.
pub fn start_trace() -> Option<TraceContext> {
    let permille = SAMPLE_PERMILLE.load(Ordering::Relaxed);
    if permille == 0 {
        return None;
    }
    let n = SAMPLE_SEQ.fetch_add(1, Ordering::Relaxed);
    if n % 1000 >= permille {
        return None;
    }
    Some(TraceContext {
        trace_id: mint_id(),
        parent_span: 0,
    })
}

/// Dispatch a closed span: to the per-thread `PROFILE` collector when
/// one is active, and to the JSONL sink when the span belongs to a
/// trace. Called from `Span`'s drop.
pub(crate) fn record_closed(record: &SpanRecord) {
    COLLECT.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(record.clone());
        }
    });
    if record.trace_id == 0 || !sink_active() {
        return;
    }
    let mut line = String::with_capacity(128);
    let _ = write!(
        line,
        "{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"name\":",
        record.trace_id, record.span_id, record.parent_span,
    );
    crate::push_json_str(&mut line, record.name);
    let _ = write!(
        line,
        ",\"us\":{},\"depth\":{}",
        record.duration_us, record.depth
    );
    crate::push_json_fields(&mut line, &record.fields);
    line.push_str("}\n");
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = guard.as_mut() {
        if sink.written >= SINK_BYTE_CAP {
            drop(guard);
            crate::inc("trace.events_dropped");
            return;
        }
        sink.written += line.len() as u64;
        if sink.file.write_all(line.as_bytes()).is_ok() {
            drop(guard);
            crate::inc("trace.events");
        }
    }
}

/// Start collecting every span closed on this thread (the `PROFILE`
/// path). Single level: a nested collector replaces the outer one.
pub fn collect_spans() -> Collector {
    COLLECT.with(|c| *c.borrow_mut() = Some(Vec::new()));
    Collector { _private: () }
}

/// Owns the thread's span collection started by [`collect_spans`];
/// call [`Collector::take`] to stop collecting and get the spans.
#[derive(Debug)]
pub struct Collector {
    _private: (),
}

impl Collector {
    /// Stop collecting and return every span closed on this thread
    /// since [`collect_spans`], in close order (children first).
    pub fn take(self) -> Vec<SpanRecord> {
        COLLECT.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        COLLECT.with(|c| {
            c.borrow_mut().take();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_encoding_round_trips() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_0000_1234,
            parent_span: 7,
        };
        let wire = ctx.encode();
        assert_eq!(wire, "deadbeef00001234/0000000000000007");
        assert_eq!(TraceContext::parse(&wire), Some(ctx));
        assert_eq!(TraceContext::parse("garbage"), None);
        assert_eq!(TraceContext::parse("00/00"), None);
        // A zero trace id is "no trace", never a valid context.
        assert_eq!(
            TraceContext::parse("0000000000000000/0000000000000001"),
            None
        );
    }

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn with_context_restores_the_previous_context_on_drop() {
        let outer = TraceContext {
            trace_id: 1,
            parent_span: 0,
        };
        let inner = TraceContext {
            trace_id: 2,
            parent_span: 9,
        };
        let _g1 = with_context(Some(outer));
        assert_eq!(current(), Some(outer));
        {
            let _g2 = with_context(Some(inner));
            assert_eq!(current(), Some(inner));
        }
        assert_eq!(current(), Some(outer));
    }
}
