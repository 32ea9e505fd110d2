//! Checkpoints: a durable, atomic materialization of one knowledge
//! state — the database (via [`intensio_storage::persist`]), the rule
//! relations, and a `MANIFEST` pinning the epoch and data version.
//!
//! A checkpoint is written into a temporary directory and renamed into
//! place, so a crash mid-checkpoint leaves either the previous state or
//! the new one, never a half-written directory that recovery could
//! mistake for valid. The write order is a durability chain: every data
//! file is fsynced, then the `MANIFEST` (written last, fsynced), then
//! the temporary directory itself, then — after the rename — the
//! `checkpoints/` parent. Only once [`write_checkpoint`] returns is the
//! checkpoint guaranteed to survive a power cut, which is what lets the
//! caller delete the log records it replaces. Checkpoint directories
//! are never reused: each write gets a fresh `ckpt-<epoch>-<seq>` name,
//! and recovery boots from the newest `(epoch, seq)` that loads
//! ([`choose_checkpoint`]).

use crate::crc::crc32;
use crate::segment::{CHECKPOINT_SUBDIR, WAL_SUBDIR};
use crate::WalError;
use intensio_rules::encode::{decode as decode_rules, encode as encode_rules, RuleRelations};
use intensio_rules::rule::RuleSet;
use intensio_storage::catalog::Database;
use intensio_storage::persist::{load_database, save_database};
use std::path::{Path, PathBuf};

const MANIFEST: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "intensio-checkpoint v1";

/// A checkpoint directory on disk, identified but not yet loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef {
    /// The epoch the checkpoint pins.
    pub epoch: u64,
    /// Write sequence, to order checkpoints at the same epoch (a boot
    /// re-checkpoint after recovery reuses the recovered epoch).
    pub seq: u64,
    /// The checkpoint directory.
    pub path: PathBuf,
}

/// A checkpoint loaded back into memory.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The epoch the checkpoint pins.
    pub epoch: u64,
    /// The data version at that epoch.
    pub data_version: u64,
    /// The primary term the checkpointed state was committed under
    /// (0 for manifests written before terms existed).
    pub term: u64,
    /// The database.
    pub db: Database,
    /// The rule set, when one was installed at checkpoint time.
    pub rules: Option<RuleSet>,
}

fn dir_name(epoch: u64, seq: u64) -> String {
    format!("ckpt-{epoch:016x}-{seq:04x}")
}

fn parse_dir_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("ckpt-")?;
    let (epoch_hex, seq_hex) = rest.split_once('-')?;
    if epoch_hex.len() != 16 || seq_hex.len() != 4 {
        return None;
    }
    Some((
        u64::from_str_radix(epoch_hex, 16).ok()?,
        u64::from_str_radix(seq_hex, 16).ok()?,
    ))
}

/// Whether a file name is an atomic-write intermediate: a `.tmp-*`
/// checkpoint staging directory or a `.saving-*` / `.old-*` persist
/// sibling.
fn is_debris_name(name: &str) -> bool {
    name.contains(".tmp-") || name.contains(".saving-") || name.contains(".old-")
}

/// The directories under `data_dir/checkpoints`: the checkpoints whose
/// name parses, sorted oldest-first by `(epoch, seq)`, and the paths of
/// the ones whose name does not. Atomic-write debris is in neither.
fn scan_checkpoints(data_dir: &Path) -> std::io::Result<(Vec<CheckpointRef>, Vec<PathBuf>)> {
    let dir = data_dir.join(CHECKPOINT_SUBDIR);
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Default::default()),
        Err(e) => return Err(e),
    };
    let (mut named, mut unnamed) = (Vec::new(), Vec::new());
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_debris_name(name) || !entry.path().is_dir() {
            continue;
        }
        match parse_dir_name(name) {
            Some((epoch, seq)) => named.push(CheckpointRef {
                epoch,
                seq,
                path: entry.path(),
            }),
            None => unnamed.push(entry.path()),
        }
    }
    named.sort_by_key(|c| (c.epoch, c.seq));
    Ok((named, unnamed))
}

/// Leftover atomic-write intermediates: `.tmp-*` checkpoint staging
/// directories and `.saving-*` / `.old-*` persist siblings. Each is the
/// footprint of a crash mid-write — harmless to recovery (which ignores
/// them) but disk an operator may want back. Scans the data directory
/// root, `wal/`, `checkpoints/`, and one level inside each checkpoint.
pub fn debris(data_dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let (named, unnamed) = scan_checkpoints(data_dir)?;
    let mut roots = vec![data_dir.join(WAL_SUBDIR), data_dir.join(CHECKPOINT_SUBDIR)];
    roots.extend(named.into_iter().map(|c| c.path).chain(unnamed));
    let mut out = Vec::new();
    for root in std::iter::once(data_dir.to_path_buf()).chain(roots) {
        let entries = match std::fs::read_dir(&root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(is_debris_name) {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Checkpoints under `data_dir/checkpoints`, sorted oldest-first by
/// `(epoch, seq)`. Temporary (`.tmp-*`) and unparseable directories are
/// ignored — a crash mid-checkpoint must not confuse recovery.
pub fn list_checkpoints(data_dir: &Path) -> std::io::Result<Vec<CheckpointRef>> {
    Ok(scan_checkpoints(data_dir)?.0)
}

/// Why a checkpoint directory cannot be booted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The name does not parse as `ckpt-<epoch>-<seq>`: recovery never
    /// considers the directory.
    Unnamed,
    /// The `MANIFEST` is missing or unreadable, or fails its checksum
    /// or format.
    Manifest(WalError),
    /// The manifest pins another epoch than the directory name.
    EpochMismatch {
        /// The epoch in the manifest.
        manifest: u64,
        /// The epoch in the directory name.
        name: u64,
    },
    /// The manifest verifies, but the database or rules do not load.
    Load(WalError),
}

/// The checkpoint recovery boots from, and the ones it cannot use.
#[derive(Debug)]
pub struct CheckpointChoice {
    /// The newest checkpoint that loads.
    pub loaded: Option<LoadedCheckpoint>,
    /// Newer checkpoints recovery tried and passed over, newest first.
    pub passed_over: Vec<(PathBuf, Rejection)>,
    /// Directories recovery never needed: ones whose name does not
    /// parse, and older checkpoints whose manifest does not verify.
    pub unusable: Vec<(PathBuf, Rejection)>,
}

/// Pick the checkpoint recovery boots from: the newest by
/// `(epoch, seq)` that loads. Fails only when the checkpoint directory
/// cannot be listed.
pub fn choose_checkpoint(data_dir: &Path) -> std::io::Result<CheckpointChoice> {
    let (named, unnamed) = scan_checkpoints(data_dir)?;
    let mut choice = CheckpointChoice {
        loaded: None,
        passed_over: Vec::new(),
        unusable: unnamed
            .into_iter()
            .map(|p| (p, Rejection::Unnamed))
            .collect(),
    };
    for ckpt in named.into_iter().rev() {
        if choice.loaded.is_some() {
            // Older than the boot checkpoint: recovery never reads it,
            // so only its manifest is checked.
            if let Err(why) = read_manifest(&ckpt) {
                choice.unusable.push((ckpt.path, why));
            }
            continue;
        }
        match load_checkpoint(&ckpt) {
            Ok(loaded) => choice.loaded = Some(loaded),
            Err(why) => choice.passed_over.push((ckpt.path, why)),
        }
    }
    Ok(choice)
}

fn manifest_text(epoch: u64, data_version: u64, term: u64, has_rules: bool) -> String {
    let body = format!(
        "{MANIFEST_HEADER}\nepoch {epoch}\ndata_version {data_version}\nterm {term}\nrules {}\n",
        u8::from(has_rules)
    );
    let crc = crc32(body.as_bytes());
    format!("{body}crc {crc}\n")
}

/// `(epoch, data_version, term, has_rules)`.
fn parse_manifest(text: &str) -> Result<(u64, u64, u64, bool), WalError> {
    let bad = |why: &str| WalError(format!("invalid checkpoint manifest: {why}"));
    let (body, crc_line) = text
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .ok_or_else(|| bad("too short"))?;
    let body = format!("{body}\n");
    let crc: u32 = crc_line
        .strip_prefix("crc ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad("missing crc line"))?;
    if crc32(body.as_bytes()) != crc {
        return Err(bad("checksum mismatch"));
    }
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(bad("wrong header"));
    }
    let rest: Vec<&str> = lines.collect();
    let mut at = 0usize;
    let mut field = |key: &str| -> Result<u64, WalError> {
        let v = rest
            .get(at)
            .and_then(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad(&format!("missing {key}")))?;
        at += 1;
        Ok(v)
    };
    let epoch = field("epoch ")?;
    let data_version = field("data_version ")?;
    // Manifests written before failover existed have no `term` line;
    // they pin term 0 (the pre-election lineage).
    let term = field("term ").unwrap_or(0);
    let rules = field("rules ")?;
    Ok((epoch, data_version, term, rules != 0))
}

/// Write a checkpoint of `(db, rules)` at `(epoch, data_version)`
/// committed under `term`.
///
/// The `wal.checkpoint` failpoint aborts after the database directory
/// is written but before the manifest and rename — the partial-
/// checkpoint crash shape recovery must ignore.
pub fn write_checkpoint(
    data_dir: &Path,
    db: &Database,
    rules: Option<&RuleSet>,
    epoch: u64,
    data_version: u64,
    term: u64,
) -> Result<CheckpointRef, WalError> {
    let io = |e: std::io::Error| WalError(format!("checkpoint io: {e}"));
    let parent = data_dir.join(CHECKPOINT_SUBDIR);
    std::fs::create_dir_all(&parent).map_err(io)?;
    // On the first checkpoint the `checkpoints/` entry itself must
    // survive a power cut, or everything under it is unreachable.
    crate::sync_dir(data_dir);
    let seq = list_checkpoints(data_dir)
        .map_err(io)?
        .iter()
        .map(|c| c.seq)
        .max()
        .unwrap_or(0)
        + 1;
    let name = dir_name(epoch, seq);
    let tmp = parent.join(format!("{name}.tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    save_database(db, &tmp.join("db")).map_err(|e| WalError(format!("checkpoint db: {e}")))?;
    intensio_fault::fire("wal.checkpoint")
        .map_err(|f| WalError(format!("checkpoint aborted: {f}")))?;
    if let Some(rules) = rules {
        let rels = encode_rules(rules).map_err(|e| WalError(format!("checkpoint rules: {e}")))?;
        let mut rules_db = Database::new();
        for (_, rel) in rels.named() {
            rules_db
                .create(rel.clone())
                .map_err(|e| WalError(format!("checkpoint rules: {e}")))?;
        }
        save_database(&rules_db, &tmp.join("rules"))
            .map_err(|e| WalError(format!("checkpoint rules: {e}")))?;
    }
    // The manifest is what recovery verifies, and the caller truncates
    // the log the moment this function returns — so the manifest, its
    // directory entry, and the rename below must all reach stable
    // storage here, not whenever the OS flushes. Otherwise a power cut
    // could persist the log truncation but not the checkpoint,
    // destroying acknowledged writes even under fsync=always.
    crate::write_sync(
        &tmp.join(MANIFEST),
        &manifest_text(epoch, data_version, term, rules.is_some()),
    )
    .map_err(io)?;
    crate::sync_dir(&tmp);

    let final_path = parent.join(&name);
    std::fs::rename(&tmp, &final_path).map_err(io)?;
    crate::sync_dir(&parent);
    intensio_obs::inc("wal.checkpoints");
    intensio_obs::gauge("wal.checkpoint_epoch", epoch as i64);
    Ok(CheckpointRef {
        epoch,
        seq,
        path: final_path,
    })
}

/// Read and verify `ckpt`'s `MANIFEST`: `(epoch, data_version, term,
/// has_rules)`.
fn read_manifest(ckpt: &CheckpointRef) -> Result<(u64, u64, u64, bool), Rejection> {
    let text = std::fs::read_to_string(ckpt.path.join(MANIFEST))
        .map_err(|e| Rejection::Manifest(WalError(format!("reading manifest: {e}"))))?;
    let manifest = parse_manifest(&text).map_err(Rejection::Manifest)?;
    if manifest.0 != ckpt.epoch {
        return Err(Rejection::EpochMismatch {
            manifest: manifest.0,
            name: ckpt.epoch,
        });
    }
    Ok(manifest)
}

/// Load a checkpoint back: manifest, database, rule relations.
pub fn load_checkpoint(ckpt: &CheckpointRef) -> Result<LoadedCheckpoint, Rejection> {
    let (epoch, data_version, term, has_rules) = read_manifest(ckpt)?;
    let db = load_database(&ckpt.path.join("db"))
        .map_err(|e| Rejection::Load(WalError(format!("loading checkpoint db: {e}"))))?;
    let rules = if has_rules {
        Some(load_rules(&ckpt.path).map_err(Rejection::Load)?)
    } else {
        None
    };
    Ok(LoadedCheckpoint {
        epoch,
        data_version,
        term,
        db,
        rules,
    })
}

fn load_rules(ckpt_dir: &Path) -> Result<RuleSet, WalError> {
    let rules_db = load_database(&ckpt_dir.join("rules"))
        .map_err(|e| WalError(format!("loading checkpoint rules: {e}")))?;
    let mut rels = RuleRelations::empty();
    rels.rules = take_relation(&rules_db, "RULES")?;
    rels.value_map = take_relation(&rules_db, "ATTRVALUEMAP")?;
    rels.attr_catalog = take_relation(&rules_db, "ATTRCATALOG")?;
    rels.meta = take_relation(&rules_db, "RULEMETA")?;
    decode_rules(&rels).map_err(|e| WalError(format!("decoding checkpoint rules: {e}")))
}

fn take_relation(db: &Database, name: &str) -> Result<intensio_storage::Relation, WalError> {
    db.get(name)
        .cloned()
        .map_err(|_| WalError(format!("checkpoint rules missing relation {name}")))
}

/// Delete all but the newest `keep` checkpoints. Best-effort: a
/// checkpoint that will not delete is skipped, not fatal.
pub fn prune_checkpoints(data_dir: &Path, keep: usize) -> std::io::Result<()> {
    let mut all = list_checkpoints(data_dir)?;
    let n = all.len().saturating_sub(keep.max(1));
    for ckpt in all.drain(..n) {
        let _ = std::fs::remove_dir_all(&ckpt.path);
    }
    // Also sweep stale temporaries from crashed checkpoints.
    let parent = data_dir.join(CHECKPOINT_SUBDIR);
    if let Ok(entries) = std::fs::read_dir(&parent) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.contains(".tmp-") {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_storage::prelude::*;
    use intensio_storage::tuple;

    fn sample_db() -> Database {
        let schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Displacement", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut ships = Relation::new("SHIPS", schema);
        ships.insert(tuple!["SSBN730", 16600]).unwrap();
        let mut db = Database::new();
        db.create(ships).unwrap();
        db
    }

    fn sample_rules() -> RuleSet {
        use intensio_rules::rule::{AttrId, Clause, Rule};
        RuleSet::from_rules([Rule::new(
            1,
            vec![Clause::between(
                AttrId::new("SHIPS", "Displacement"),
                7250,
                30000,
            )],
            Clause::equals(AttrId::new("SHIPS", "Type"), "SSBN"),
        )
        .with_support(3)])
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("intensio_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let rules = sample_rules();
        let r = write_checkpoint(&dir, &sample_db(), Some(&rules), 5, 3, 2).unwrap();
        assert_eq!((r.epoch, r.seq), (5, 1));
        let loaded = load_checkpoint(&r).unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.data_version, 3);
        assert_eq!(loaded.term, 2);
        assert_eq!(loaded.db.get("SHIPS").unwrap().len(), 1);
        let back = loaded.rules.unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.get(1).unwrap().support, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_checkpoint_wins_and_same_epoch_reuses() {
        let dir = tmpdir("newest");
        write_checkpoint(&dir, &sample_db(), None, 2, 1, 0).unwrap();
        write_checkpoint(&dir, &sample_db(), None, 7, 4, 0).unwrap();
        write_checkpoint(&dir, &sample_db(), None, 7, 4, 0).unwrap();
        let list = list_checkpoints(&dir).unwrap();
        assert_eq!(list.len(), 3);
        let newest = list.last().unwrap();
        assert_eq!((newest.epoch, newest.seq), (7, 3), "seq breaks the tie");
        prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = tmpdir("corrupt");
        let r = write_checkpoint(&dir, &sample_db(), None, 3, 3, 0).unwrap();
        let path = r.path.join(MANIFEST);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("epoch 3", "epoch 4");
        std::fs::write(&path, text).unwrap();
        assert!(load_checkpoint(&r).is_err(), "tampered manifest must fail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_without_term_line_pins_term_zero() {
        // A manifest written before failover existed: no `term` line.
        let body = format!("{MANIFEST_HEADER}\nepoch 9\ndata_version 4\nrules 0\n");
        let crc = crc32(body.as_bytes());
        let (epoch, dv, term, rules) = parse_manifest(&format!("{body}crc {crc}\n")).unwrap();
        assert_eq!((epoch, dv, term, rules), (9, 4, 0, false));
    }

    #[test]
    fn partial_checkpoint_failpoint_leaves_no_valid_checkpoint() {
        let dir = tmpdir("partial");
        let fault = intensio_fault::scoped("wal.checkpoint", "error*1").unwrap();
        let err = write_checkpoint(&dir, &sample_db(), None, 1, 1, 0);
        drop(fault);
        assert!(err.is_err());
        assert!(
            list_checkpoints(&dir).unwrap().is_empty(),
            "aborted checkpoint must not be listed"
        );
        // The torn temporary is swept by the next prune.
        prune_checkpoints(&dir, 2).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir.join(CHECKPOINT_SUBDIR))
            .unwrap()
            .collect();
        assert!(leftovers.is_empty(), "tmp dir swept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_reads_back_and_debris_is_found() {
        use intensio_storage::catalog::Database;
        let dir = std::env::temp_dir().join(format!("intensio_audit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = write_checkpoint(&dir, &Database::new(), None, 4, 2, 3).unwrap();
        let info = choose_checkpoint(&dir).unwrap().loaded.unwrap();
        assert_eq!(
            (
                info.epoch,
                info.data_version,
                info.term,
                info.rules.is_some()
            ),
            (4, 2, 3, false)
        );
        assert!(debris(&dir).unwrap().is_empty());

        // Plant a crashed checkpoint staging dir and a persist sibling.
        let tmp = dir.join(CHECKPOINT_SUBDIR).join("ckpt-x.tmp-999");
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::create_dir_all(r.path.join(".db.saving-999")).unwrap();
        let found = debris(&dir).unwrap();
        assert_eq!(found.len(), 2, "{found:?}");
        let choice = choose_checkpoint(&dir).unwrap();
        assert!(
            choice.unusable.is_empty() && choice.passed_over.is_empty(),
            "debris is not a checkpoint: {choice:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
