//! intensio-wal: crash-safe durability for the intensional knowledge
//! state.
//!
//! The paper's pipeline maintains a *knowledge state* — the database,
//! the type-inference dictionary derived from it, and the induced rule
//! set — that [`intensio-serve`] advances through epoch-versioned
//! snapshots. This crate makes that state survive a crash:
//!
//! - **Log** ([`log::Wal`]): every data mutation and rule-set install
//!   is appended as a length-prefixed, CRC-32-checksummed record (see
//!   [`record`]) carrying the epoch and data version of the snapshot it
//!   created. Records are acknowledged under a configurable
//!   [`FsyncPolicy`]. Segments rotate at a size threshold.
//! - **Checkpoints** ([`checkpoint`]): periodically the full state is
//!   materialized through `storage::persist` into an atomically-renamed
//!   directory whose `MANIFEST` pins the epoch, letting the log be
//!   truncated.
//! - **Chain walker** ([`chain`]): the one acceptance rule. It judges
//!   every logged frame against the epoch/term chain from a base —
//!   replay, supersede (last wins), covered, fenced, retract, gap,
//!   torn, corrupt — and everything that reads the log goes through it.
//! - **Recovery** ([`recover`]): boot loads the newest checkpoint that
//!   loads ([`checkpoint::choose_checkpoint`]), replays the chain's
//!   suffix, truncates a torn tail, and rejects corrupt frames — any
//!   prefix of a valid log recovers to a consistent epoch.
//! - **Replication tail** ([`read::LogTail`]): the same walk from a
//!   follower's epoch, streamed one segment at a time.
//! - **Offline audit**: `check fsck` reads the same walk and the same
//!   checkpoint choice, plus the atomic-write debris recovery ignores
//!   ([`checkpoint::debris`]).
//!
//! The crate is zero-dependency beyond the workspace: framing,
//! checksums, and file handling are all implemented here.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod crc;

pub mod chain;
pub mod checkpoint;
pub mod log;
pub mod read;
pub mod record;
pub mod recover;
pub mod rules_codec;
pub mod segment;

pub use checkpoint::{CheckpointRef, LoadedCheckpoint};
pub use log::{Wal, WalStats};
pub use read::LogTail;
pub use record::{Record, RecordKind};
pub use recover::{recover, Recovered, RecoveryStats};

use std::fmt;
use std::path::Path;

/// Best-effort fsync of a directory, so renames and new files inside it
/// survive a power cut. Ignored on platforms where directories cannot
/// be opened for reading.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Write one file and flush it to stable storage before returning.
pub(crate) fn write_sync(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    std::io::Write::write_all(&mut f, contents.as_bytes())?;
    f.sync_all()
}

/// A durability error: failed append, unreadable checkpoint, corrupt
/// log, or a poisoned writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalError(pub String);

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wal: {}", self.0)
    }
}

impl std::error::Error for WalError {}

/// When an appended record is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` before every acknowledgement. Slowest, loses nothing;
    /// the crash-safe default.
    #[default]
    Always,
    /// `fsync` once per `n` appends. A crash can lose up to `n - 1`
    /// acknowledged records — but never corrupt the log.
    Batch(u32),
    /// Never `fsync` explicitly; the OS flushes when it likes. A crash
    /// can lose any acknowledged record still in the page cache.
    Off,
}

impl FsyncPolicy {
    /// Parse `always`, `off`, or `batch:N` (N ≥ 1).
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("always") {
            return Ok(FsyncPolicy::Always);
        }
        if s.eq_ignore_ascii_case("off") {
            return Ok(FsyncPolicy::Off);
        }
        if let Some(n) = s
            .strip_prefix("batch:")
            .or_else(|| s.strip_prefix("BATCH:"))
        {
            let n: u32 = n
                .trim()
                .parse()
                .map_err(|_| format!("bad fsync batch size {n:?}"))?;
            if n == 0 {
                return Err("fsync batch size must be at least 1".to_string());
            }
            return Ok(FsyncPolicy::Batch(n));
        }
        Err(format!(
            "unknown fsync policy {s:?}; expected always, batch:N, or off"
        ))
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Tuning for the durable write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many appended records.
    pub checkpoint_every: u64,
    /// How many checkpoints to retain after pruning.
    pub keep_checkpoints: usize,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 256,
            keep_checkpoints: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse(" off "), Ok(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("batch:8"), Ok(FsyncPolicy::Batch(8)));
        assert!(FsyncPolicy::parse("batch:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Batch(8).to_string(), "batch:8");
        assert_eq!(FsyncPolicy::default().to_string(), "always");
    }
}
