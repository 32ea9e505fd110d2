//! Boot, record replay, and the background checkpointer.
//!
//! * **One boot routine.** An in-memory service starts from the seed
//!   database at epoch 0; a durable one recovers the newest valid
//!   checkpoint and replays the log after it. Either way the last
//!   recovered rule set passes the install gate, stale rules are
//!   re-induced when [`ServiceConfig::learn_on_open`] asks for it, and a
//!   durable boot pins the result with a checkpoint before the first
//!   acknowledgement.
//! * **One reader of the record format.** [`Replay`] turns a logged
//!   record into the successor state. Boot replay and the follower's
//!   apply both go through it.
//! * **Checkpoints run off the request path.** In durable mode a write
//!   only appends its WAL record; when the checkpoint cadence comes due,
//!   the background checkpointer materializes the pinned snapshot
//!   through `storage::persist` without holding the write lock or the
//!   WAL lock, then briefly takes the WAL lock to delete only the log
//!   segments the checkpoint fully covers. Writers and `STATS` never
//!   stall behind full-state serialization.

use super::induction::induce;
use super::{ServeError, ServiceConfig, Shared};
use crate::gate::InstallGate;
use crate::snapshot::Snapshot;
use intensio_core::DataDictionary;
use intensio_ker::model::KerModel;
use intensio_quel::Session;
use intensio_rules::rule::RuleSet;
use intensio_storage::catalog::Database;
use intensio_wal::checkpoint::write_checkpoint;
use intensio_wal::record::{Record, RecordKind};
use intensio_wal::{rules_codec, Wal, WalError};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Durable mode: the WAL writer plus what boot recovery observed.
pub(super) struct Durability {
    /// The data-dir root; the background checkpointer writes checkpoint
    /// directories here without holding the WAL lock.
    pub(super) dir: PathBuf,
    pub(super) wal: Mutex<Wal>,
    pub(super) recovery: RecoveryReport,
}

/// What boot recovery observed, frozen for the lifetime of the process.
#[derive(Debug, Clone, Default)]
pub(super) struct RecoveryReport {
    pub(super) recovered_epoch: u64,
    pub(super) replayed_records: u64,
    pub(super) discarded_records: u64,
    pub(super) recovery_ms: u64,
}

/// A knowledge state advanced one logged record at a time: by boot
/// over the recovered log, and by a follower over the `#repl` stream.
pub(super) struct Replay {
    epoch: u64,
    data_version: u64,
    term: u64,
    db: Database,
    /// The newest rule set a record (or the base state) carried, not yet
    /// gated: boot gates only the last one it recovers, a follower each
    /// one it receives.
    rules: Option<RuleSet>,
    /// Whether the rules this state will serve were induced from exactly
    /// its data.
    rules_fresh: bool,
}

impl Replay {
    /// A state at `(epoch, data_version, term)` over `db`, carrying the
    /// `rules` of a checkpoint or a wire snapshot, fresh for it.
    pub(super) fn new(
        epoch: u64,
        data_version: u64,
        term: u64,
        db: Database,
        rules: Option<RuleSet>,
    ) -> Replay {
        Replay {
            epoch,
            data_version,
            term,
            db,
            rules_fresh: rules.is_some(),
            rules,
        }
    }

    /// `snap`'s state, about to take its next record. It keeps `snap`'s
    /// rules, and their freshness, until a record replaces them.
    pub(super) fn after(snap: &Snapshot) -> Replay {
        Replay {
            epoch: snap.epoch,
            data_version: snap.data_version,
            term: snap.term,
            db: snap.db.clone(),
            rules: None,
            rules_fresh: snap.rules_fresh,
        }
    }

    /// Apply one record, through the same QUEL session a live write
    /// uses. This is the one place a record's kind is read. An
    /// undecodable rule set bumps the `undecodable` counter; the epoch
    /// still advances (contiguity) but the rules go stale, so the
    /// inducer re-learns them.
    pub(super) fn apply(&mut self, rec: &Record, undecodable: &str) -> Result<(), String> {
        match rec.kind {
            RecordKind::Write => {
                let script = rec
                    .script()
                    .ok_or_else(|| format!("write record at epoch {} is not UTF-8", rec.epoch))?;
                Session::new()
                    .run_script(&mut self.db, script)
                    .map_err(|e| format!("replaying write at epoch {}: {e}", rec.epoch))?;
                self.rules_fresh = false;
            }
            RecordKind::Rules => match rules_codec::rules_from_bytes(&rec.body) {
                Ok(rules) => {
                    self.rules = Some(rules);
                    self.rules_fresh = true;
                }
                Err(_) => {
                    intensio_obs::inc(undecodable);
                    self.rules_fresh = false;
                }
            },
            // A promotion fencepost: no data change, but the epoch is
            // consumed and the term adopted.
            RecordKind::Term => {}
        }
        self.epoch = rec.epoch;
        self.data_version = rec.data_version;
        self.term = self.term.max(rec.term);
        Ok(())
    }

    /// The snapshot this state reaches over `dictionary`. A pending rule
    /// set passes `admit`, the install gate; a rejected one leaves the
    /// dictionary's rules in place, stale.
    pub(super) fn into_snapshot(
        self,
        mut dictionary: DataDictionary,
        admit: impl FnOnce(RuleSet, &Database) -> Option<Arc<RuleSet>>,
    ) -> Snapshot {
        let mut rules_fresh = self.rules_fresh;
        if let Some(rules) = self.rules {
            match admit(rules, &self.db) {
                Some(rules) => dictionary.set_shared_rules(rules),
                None => rules_fresh = false,
            }
        }
        Snapshot::recovered(
            self.epoch,
            self.data_version,
            self.term,
            self.db,
            dictionary,
            rules_fresh,
        )
    }
}

/// What [`boot`] hands the service.
pub(super) struct Booted {
    pub(super) snapshot: Snapshot,
    /// `None` for an in-memory service.
    pub(super) durability: Option<Durability>,
    /// Whether the gate rejected a recovered or boot-induced rule set.
    pub(super) rejected: bool,
    /// Rules the gate pruned from the sets it admitted.
    pub(super) pruned: u64,
}

/// Boot the knowledge state. With [`ServiceConfig::data_dir`] set,
/// recover it from disk and replay the log through the same code paths
/// live requests use; otherwise start from `seed_db` at epoch 0. Then
/// gate the recovered rules, optionally re-induce, and, when durable,
/// pin the result with a boot checkpoint.
pub(super) fn boot(
    cfg: &ServiceConfig,
    gate: &InstallGate,
    seed_db: Database,
    model: KerModel,
) -> Result<Booted, ServeError> {
    let started = std::time::Instant::now();
    let err = |e: WalError| ServeError(format!("durability: {e}"));
    let mut recovered = match &cfg.data_dir {
        Some(dir) => {
            let recovered = intensio_wal::recover(dir).map_err(err)?;
            intensio_wal::recover::apply_sanitize(&recovered).map_err(err)?;
            Some((dir, recovered))
        }
        None => None,
    };
    let mut state = match recovered.as_mut().and_then(|(_, r)| r.checkpoint.take()) {
        Some(c) => Replay::new(c.epoch, c.data_version, c.term, c.db, c.rules),
        // In memory, or a fresh directory (or no readable checkpoint):
        // replay starts from the seed database the caller provided.
        None => Replay::new(0, 0, 0, seed_db, None),
    };
    for record in recovered.iter().flat_map(|(_, r)| &r.records) {
        let mut replay_span = intensio_obs::Span::enter("wal.replay");
        replay_span.field("epoch", record.epoch);
        // A write that applied before the crash must apply again — a
        // replay failure means the log and the checkpoint disagree, and
        // serving from half a replay would silently drop acknowledged
        // writes.
        state
            .apply(record, "recovery.undecodable_rulesets")
            .map_err(|e| ServeError(format!("recovery: {e}")))?;
    }

    let (mut rejected, mut pruned) = (false, 0);
    let mut admit = |rules: RuleSet, db: &Database| {
        let verdict = gate.admit(rules, db);
        rejected |= verdict.rules.is_none();
        pruned += verdict.pruned;
        verdict.rules
    };
    // Recovered knowledge passes the same gate a fresh induction would:
    // replay must not reinstall a rule set the checker rejects today.
    let mut snapshot = state.into_snapshot(DataDictionary::new(model), &mut admit);
    if !snapshot.rules_fresh && cfg.learn_on_open {
        let rules = induce(cfg, &snapshot)
            .map_err(|e| ServeError(format!("initial induction failed: {e}")))?;
        // A rejected set leaves the service without intensional rules
        // rather than with provably unsound ones; the background
        // inducer stays quiet until the data changes.
        if let Some(rules) = admit(rules, &snapshot.db) {
            snapshot.dictionary.set_shared_rules(rules);
            snapshot.rules_fresh = true;
        }
    }

    let durability = match recovered {
        Some((dir, recovered)) => {
            let mut wal = Wal::open(dir, cfg.wal, recovered.last_seq).map_err(err)?;
            // The boot checkpoint makes the recovered (and boot-induced)
            // state durable before the first acknowledgement, and
            // retires the old segments and the torn tails they may
            // carry. Nothing else runs yet, so the exclusive path is
            // safe.
            checkpoint_with(&snapshot, |rules| {
                wal.checkpoint(
                    &snapshot.db,
                    rules,
                    snapshot.epoch,
                    snapshot.data_version,
                    snapshot.term,
                )
            })
            .map_err(err)?;
            let recovery = RecoveryReport {
                recovered_epoch: snapshot.epoch,
                replayed_records: recovered.stats.replayed_records,
                discarded_records: recovered.stats.discarded_records,
                recovery_ms: started.elapsed().as_millis() as u64,
            };
            intensio_obs::gauge("recovery.ms", recovery.recovery_ms as i64);
            intensio_obs::gauge("recovery.epoch", snapshot.epoch as i64);
            Some(Durability {
                dir: dir.clone(),
                wal: Mutex::new(wal),
                recovery,
            })
        }
        None => None,
    };
    Ok(Booted {
        snapshot,
        durability,
        rejected,
        pruned,
    })
}

/// Write a checkpoint of `snap` through `write`, the one rule-less
/// fallback both checkpoint writers share. The rule set is stored only
/// when it is fresh for this data — stale rules are cheaper to
/// re-induce after recovery than to pin durably — and a checkpoint
/// whose rules fail to encode is retried without them.
fn checkpoint_with<T>(
    snap: &Snapshot,
    mut write: impl FnMut(Option<&RuleSet>) -> Result<T, WalError>,
) -> Result<T, WalError> {
    let rules = snap.dictionary.rules();
    let with_rules = (snap.rules_fresh && !rules.is_empty()).then_some(rules);
    match write(with_rules) {
        Err(_) if with_rules.is_some() => write(None),
        written => written,
    }
}

impl Durability {
    /// Checkpoint `snap` while appends keep landing: materialize it with
    /// *no* lock held, then take the WAL lock just long enough to delete
    /// the segments it fully covers. Records appended meanwhile are
    /// above its epoch and are never deleted ([`Wal::truncate_covered`]).
    /// Every failure counts in `wal.checkpoint_failures` and none is
    /// fatal: the log keeps growing. `Err` means no checkpoint was
    /// written; a failed truncation only leaves the log longer.
    pub(super) fn checkpoint(&self, snap: &Snapshot) -> Result<(), WalError> {
        let started = std::time::Instant::now();
        let written = checkpoint_with(snap, |rules| {
            write_checkpoint(
                &self.dir,
                &snap.db,
                rules,
                snap.epoch,
                snap.data_version,
                snap.term,
            )
        });
        if let Err(e) = written {
            intensio_obs::inc("wal.checkpoint_failures");
            return Err(e);
        }
        let truncated = self
            .wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .truncate_covered(snap.epoch);
        match truncated {
            Ok(()) => {
                intensio_obs::gauge("wal.checkpoint_ms", started.elapsed().as_millis() as i64)
            }
            Err(_) => intensio_obs::inc("wal.checkpoint_failures"),
        }
        Ok(())
    }
}

/// The background checkpointer loop. Signaled by the commit path when
/// the cadence counter comes due; coalesces bursts (a signal raised
/// mid-pass triggers one more pass against the then-newer snapshot). A
/// signal pending at shutdown still runs, so the final checkpoint
/// bounds the next boot's replay.
pub(super) fn checkpointer_loop(shared: &Shared) {
    let Some(dur) = &shared.durability else {
        return;
    };
    loop {
        let flags = shared.ckpt.wait();
        if flags.dirty {
            let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dur.checkpoint(&shared.snapshot())
            }));
            if pass.is_err() {
                intensio_obs::inc("wal.checkpoint_failures");
            }
        }
        if flags.shutdown {
            return;
        }
    }
}
