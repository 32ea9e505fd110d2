//! The flight recorder: on a notable failure event (worker panic, BUSY
//! shedding onset, deadline-ladder degradation, shutdown) the span ring
//! buffer and a metrics snapshot are dumped to
//! `<dir>/flightrec-<reason>-<seq>.json`, so every chaos-suite failure
//! leaves a postmortem artifact even when nobody was watching stderr.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where dumps go; `None` disables the recorder.
static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// Monotonic dump sequence, so filenames never collide within a process.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Last dump time per reason, for rate limiting.
static LAST: Mutex<Option<BTreeMap<String, Instant>>> = Mutex::new(None);

/// Minimum interval between two dumps for the same reason: a panic
/// storm produces one artifact, not a disk full of identical ones.
const MIN_INTERVAL: std::time::Duration = std::time::Duration::from_secs(10);

/// Arm (or with `None`, disarm) the flight recorder. The serve tier
/// points this at its `--data-dir` when one is configured.
pub fn set_dir(dir: Option<&Path>) {
    *DIR.lock().unwrap_or_else(|e| e.into_inner()) = dir.map(Path::to_path_buf);
}

/// Dump the span ring and a metrics snapshot for `reason` (a short
/// identifier like `worker_panic`). Returns the dump path, or `None`
/// when the recorder is disarmed, rate-limited for this reason, or the
/// write failed. Never panics — this runs on failure paths.
pub fn flight_record(reason: &str) -> Option<PathBuf> {
    let dir = DIR.lock().unwrap_or_else(|e| e.into_inner()).clone()?;
    {
        let mut last = LAST.lock().unwrap_or_else(|e| e.into_inner());
        let map = last.get_or_insert_with(BTreeMap::new);
        let now = Instant::now();
        if let Some(prev) = map.get(reason) {
            if now.duration_since(*prev) < MIN_INTERVAL {
                return None;
            }
        }
        map.insert(reason.to_string(), now);
    }
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("flightrec-{}-{seq}.json", sanitize(reason)));
    let body = render(reason);
    if std::fs::create_dir_all(&dir).is_err() || std::fs::write(&path, body).is_err() {
        return None;
    }
    crate::inc("flightrec.dumps");
    if crate::level() >= crate::Level::Normal {
        eprintln!("[flightrec] {reason}: wrote {}", path.display());
    }
    Some(path)
}

fn render(reason: &str) -> String {
    let mut out = String::from("{\"reason\":\"");
    out.push_str(&sanitize(reason));
    out.push_str("\",\"spans\":[");
    for (i, s) in crate::recent_spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        crate::push_json_str(&mut out, s.name);
        let _ = write!(
            out,
            ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"depth\":{},\"us\":{}",
            s.trace_id, s.span_id, s.depth, s.duration_us
        );
        crate::push_json_fields(&mut out, &s.fields);
        out.push('}');
    }
    out.push_str("],\"metrics\":");
    out.push_str(&crate::metrics().snapshot().to_json());
    out.push('}');
    out
}

fn sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests set the process-wide dump directory; holding this
    /// keeps one from disarming the recorder while the other dumps.
    static DIR_OWNER: Mutex<()> = Mutex::new(());

    fn own_dir() -> std::sync::MutexGuard<'static, ()> {
        DIR_OWNER.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_recorder_writes_nothing() {
        let _owner = own_dir();
        set_dir(None);
        assert_eq!(flight_record("test_disarmed"), None);
    }

    #[test]
    fn armed_recorder_dumps_valid_json_and_rate_limits() {
        let _owner = own_dir();
        let dir = std::env::temp_dir().join(format!("intensio-flightrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_dir(Some(&dir));
        drop(crate::Span::enter("test.flightrec.span"));
        let path = flight_record("test_armed").expect("armed recorder dumps");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"reason\":\"test_armed\""));
        assert!(body.contains("\"spans\":["));
        assert!(body.contains("\"metrics\":{"));
        // The same reason is rate-limited; a different reason is not.
        assert_eq!(flight_record("test_armed"), None);
        assert!(flight_record("test_armed_other").is_some());
        set_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
