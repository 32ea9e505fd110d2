//! Differential test of the WAL chain walker.
//!
//! Boot recovery (`intensio_wal::recover`), the replication tail
//! (`LogTail`) and `check fsck` read the log through one walker
//! (`intensio_wal::chain`) and pick their base checkpoint through one
//! function (`choose_checkpoint`). [`reference`] keeps the three walkers
//! they replaced, each with its own copy of the acceptance rule, and
//! their own checkpoint listers and manifest reader. Over seeded data
//! directories — a generated history of writes, rule installs,
//! duplicate epochs, term fenceposts, lower-term records and gaps, split
//! across segments and then damaged by byte flips, truncations,
//! duplicated and reordered frames and segments, and checkpoints that
//! are tampered, unloadable, unnamed or mismatched — each consumer must
//! match its reference:
//!
//! - `recover()`: records, stats, torn plan, `last_seq` and checkpoint;
//! - `LogTail`: every item, for every `from_epoch`;
//! - `check_data_dir`: the rendered report, byte for byte.
//!
//! Two stated behaviour changes are counted, named and checked
//! positively instead:
//!
//! - **fsck's base checkpoint.** The reference fsck picks its base from
//!   the manifest alone. fsck now starts from the checkpoint recovery
//!   loads and reports each newer one that does not load as IC066. Where
//!   the two bases differ, the report must equal the reference's
//!   checkpoint and debris findings, plus one IC066 per such checkpoint,
//!   plus the reference's log findings from recovery's base.
//! - **The tail's term rule.** The reference tail has no term rule. The
//!   tail now fences lower terms and retracts. It differs only on logs
//!   holding more than one term, and on every input a tail that ends
//!   without an error yields exactly the records the reference recovery
//!   replays from `(from_epoch, term 0)`: a caller that collects the
//!   tail never applies a record recovery would fence or retract.

use intensio_check::{check_data_dir, Diagnostic, Report, Severity};
use intensio_fault::Rng;
use intensio_storage::catalog::Database;
use intensio_wal::checkpoint::write_checkpoint;
use intensio_wal::record::Record;
use intensio_wal::recover::recover;
use intensio_wal::segment::{segment_file_name, CHECKPOINT_SUBDIR, WAL_SUBDIR};
use intensio_wal::LogTail;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n.max(1)
}

fn chance(rng: &mut Rng, percent: u64) -> bool {
    below(rng, 100) < percent
}

/// A manifest in the on-disk checkpoint format, with a valid checksum.
fn manifest_text(epoch: u64, data_version: u64, term: Option<u64>, rules: bool) -> String {
    let term = term.map(|t| format!("term {t}\n")).unwrap_or_default();
    let body = format!(
        "intensio-checkpoint v1\nepoch {epoch}\ndata_version {data_version}\n{term}rules {}\n",
        u8::from(rules)
    );
    format!("{body}crc {}\n", reference::crc32(body.as_bytes()))
}

/// A scratch root holding one template checkpoint written by the real
/// writer; generated checkpoints copy its database directory, so no
/// case pays for the writer's fsyncs.
struct Scratch {
    root: PathBuf,
    template_db: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Scratch {
        let root =
            std::env::temp_dir().join(format!("intensio-wal-diff-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let template = root.join("template");
        let ckpt = write_checkpoint(&template, &Database::new(), None, 0, 0, 0).unwrap();
        Scratch {
            template_db: ckpt.path.join("db"),
            root,
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// One generated data directory.
struct Case {
    dir: PathBuf,
    /// The highest epoch any complete record was written with.
    max_epoch: u64,
    /// Every term a written record carries.
    terms: BTreeSet<u64>,
}

fn plant_checkpoint(rng: &mut Rng, scratch: &Scratch, dir: &Path, seq: u64, max: (u64, u64)) {
    let (max_epoch, max_term) = max;
    let epoch = below(rng, max_epoch + 2);
    let term = below(rng, max_term + 2);
    let mut name = format!("ckpt-{epoch:016x}-{seq:04x}");
    let mut manifest = manifest_text(epoch, epoch, Some(term), false);
    let mut with_schema = true;
    match below(rng, 16) {
        // A flipped byte: checksum or format failure.
        0 => {
            let mut bytes = manifest.into_bytes();
            let at = below(rng, bytes.len() as u64) as usize;
            bytes[at] ^= 1 << below(rng, 7);
            manifest = String::from_utf8_lossy(&bytes).into_owned();
        }
        // No manifest at all.
        1 => manifest.clear(),
        // The manifest verifies but the database does not load.
        2 => with_schema = false,
        // The manifest promises rules the directory does not hold.
        3 => manifest = manifest_text(epoch, epoch, Some(term), true),
        // The manifest pins another epoch than the name.
        4 => manifest = manifest_text(epoch + 1 + below(rng, 3), epoch, Some(term), false),
        // A name recovery never considers.
        5 => name = format!("ckpt-{epoch:x}-{seq}"),
        // A manifest from before terms existed: term 0.
        6 => manifest = manifest_text(epoch, epoch, None, false),
        _ => {}
    }
    let path = dir.join(CHECKPOINT_SUBDIR).join(name);
    std::fs::create_dir_all(path.join("db")).unwrap();
    for entry in std::fs::read_dir(&scratch.template_db).unwrap() {
        let entry = entry.unwrap();
        if with_schema || entry.file_name() != "_schema.csv" {
            std::fs::copy(entry.path(), path.join("db").join(entry.file_name())).unwrap();
        }
    }
    if !manifest.is_empty() {
        std::fs::write(path.join("MANIFEST"), manifest).unwrap();
    }
}

fn generate(seed: u64, scratch: &Scratch) -> Case {
    let mut rng = Rng::new(seed);
    let dir = scratch.root.join(format!("case-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A history: mostly a chain, with the shapes the walker judges.
    let mut records = Vec::new();
    let mut epoch = below(&mut rng, 3);
    let mut term = below(&mut rng, 2);
    for _ in 0..3 + below(&mut rng, 14) {
        match below(&mut rng, 20) {
            // An unacknowledged append whose epoch is reused.
            0 | 1 => records.push(Record::write(epoch.max(1), epoch, "dup").with_term(term)),
            // A failover: a higher term rewinds to an earlier epoch.
            2 | 3 => {
                term += 1 + below(&mut rng, 2);
                epoch = epoch.saturating_sub(below(&mut rng, 3)) + 1;
                records.push(Record::term_bump(term, epoch, epoch));
            }
            // A deposed primary's record.
            4 => {
                let low = term.saturating_sub(1 + below(&mut rng, 2));
                records.push(Record::write(epoch + 1, epoch + 1, "ghost").with_term(low));
            }
            // Missing epochs.
            5 => {
                epoch += 2 + below(&mut rng, 2);
                records.push(Record::write(epoch, epoch, "after gap").with_term(term));
            }
            // An old, covered record.
            6 => {
                let old = below(&mut rng, epoch + 1);
                records.push(Record::write(old, old, "stale").with_term(term));
            }
            7 => {
                epoch += 1;
                records.push(Record::rules(epoch, epoch, vec![7; 5]).with_term(term));
            }
            _ => {
                epoch += 1;
                records.push(Record::write(epoch, epoch, "w").with_term(term));
            }
        }
    }
    let max_epoch = records.iter().map(|r| r.epoch).max().unwrap_or(0);
    let terms: BTreeSet<u64> = records.iter().map(|r| r.term).collect();

    for seq in 1..=below(&mut rng, 4) {
        let max_term = terms.iter().max().copied().unwrap_or(0);
        plant_checkpoint(&mut rng, scratch, &dir, seq, (max_epoch, max_term));
    }

    // Frames: duplicated and reordered, then split into segments.
    let mut frames: Vec<Vec<u8>> = records.iter().map(Record::encode).collect();
    if chance(&mut rng, 20) && !frames.is_empty() {
        let at = below(&mut rng, frames.len() as u64) as usize;
        let to = below(&mut rng, frames.len() as u64 + 1) as usize;
        let copy = frames[at].clone();
        frames.insert(to, copy);
    }
    if chance(&mut rng, 20) && frames.len() > 1 {
        let at = below(&mut rng, frames.len() as u64 - 1) as usize;
        frames.swap(at, at + 1);
    }
    let mut segments: Vec<Vec<u8>> = vec![Vec::new()];
    for frame in frames {
        if chance(&mut rng, 25) {
            segments.push(Vec::new());
        }
        segments.last_mut().unwrap().extend_from_slice(&frame);
    }
    // Byte damage: flips and truncations.
    for _ in 0..below(&mut rng, 3) {
        let seg = below(&mut rng, segments.len() as u64) as usize;
        let len = segments[seg].len() as u64;
        if len == 0 {
            continue;
        }
        if chance(&mut rng, 50) {
            let at = below(&mut rng, len) as usize;
            segments[seg][at] ^= 1 << below(&mut rng, 8);
        } else {
            segments[seg].truncate(below(&mut rng, len) as usize);
        }
    }
    if chance(&mut rng, 10) && segments.len() > 1 {
        let at = below(&mut rng, segments.len() as u64 - 1) as usize;
        segments.swap(at, at + 1);
    }
    if !segments.is_empty() && chance(&mut rng, 90) {
        let wal = dir.join(WAL_SUBDIR);
        std::fs::create_dir_all(&wal).unwrap();
        let mut seq = 1 + below(&mut rng, 3);
        for bytes in segments {
            std::fs::write(wal.join(segment_file_name(seq)), bytes).unwrap();
            seq += 1 + below(&mut rng, 2);
        }
    }
    Case {
        dir,
        max_epoch,
        terms,
    }
}

/// What the run saw, so a test can insist every stated case occurred.
#[derive(Debug, Default)]
struct Tally {
    cases: u64,
    tails: u64,
    /// Inputs where fsck's base now differs from the manifest-only one.
    fsck_base_changes: Vec<u64>,
    /// `(seed, from_epoch)` pairs where the tail's term rule changed
    /// what it yields.
    tail_term_changes: Vec<(u64, u64)>,
    /// fsck codes reported, over all inputs.
    codes: BTreeSet<&'static str>,
}

fn tail_items(dir: &Path, from: u64) -> Vec<Result<Record, String>> {
    match LogTail::open(dir, from) {
        Ok(tail) => tail.map(|item| item.map_err(|e| e.to_string())).collect(),
        Err(e) => vec![Err(e.to_string())],
    }
}

fn check_case(seed: u64, scratch: &Scratch, tally: &mut Tally) {
    let case = generate(seed, scratch);
    let dir = &case.dir;
    tally.cases += 1;

    // Recovery equals the reference, field by field.
    let got = recover(dir).unwrap();
    let want = reference::recover(dir, None);
    let what = || format!("seed {seed}, dir {}", dir.display());
    assert_eq!(got.records, want.records, "records: {}", what());
    assert_eq!(got.stats, want.stats, "stats: {}", what());
    assert_eq!(got.torn, want.torn, "torn plan: {}", what());
    assert_eq!(got.last_seq, want.last_seq, "last_seq: {}", what());
    let chosen = got
        .checkpoint
        .as_ref()
        .map(|c| (c.epoch, c.data_version, c.term));
    assert_eq!(
        chosen,
        want.checkpoint.map(|c| (c.epoch, c.data_version, c.term)),
        "checkpoint: {}",
        what()
    );

    // The tail equals the reference for every starting epoch, except
    // where the term rule applies.
    for from in 0..=case.max_epoch + 1 {
        tally.tails += 1;
        let got = tail_items(dir, from);
        let want = reference::tail(dir, from);
        if got != want {
            assert!(
                case.terms.len() > 1,
                "tail from {from} differs on a one-term log: {}\n got {got:?}\nwant {want:?}",
                what()
            );
            tally.tail_term_changes.push((seed, from));
        }
        if let Ok(records) = got.into_iter().collect::<Result<Vec<_>, _>>() {
            let replayed = reference::recover(dir, Some((from, 0)));
            assert!(
                !replayed.stats.corrupt,
                "tail from {from} ended cleanly past a break: {}",
                what()
            );
            assert_eq!(
                records,
                replayed.records,
                "tail from {from} is not what recovery replays: {}",
                what()
            );
        }
    }

    // fsck equals the reference byte for byte, or, where its base
    // checkpoint changed, the reference's findings from recovery's base.
    let report = check_data_dir(dir);
    tally
        .codes
        .extend(report.diagnostics.iter().map(|d| d.code));
    let got = report.render_text();
    let mut expected = Report::new();
    let manifest_base =
        reference::checkpoint_audit(dir, &mut expected).map(|(epoch, seq, _)| (epoch, seq));
    if manifest_base == want.checkpoint.map(|c| (c.epoch, c.seq)) {
        assert_eq!(got, reference::fsck(dir).render_text(), "fsck: {}", what());
        return;
    }
    tally.fsck_base_changes.push(seed);
    for (name, err) in &want.unloadable {
        expected.push(
            Diagnostic::new(
                "IC066",
                Severity::Error,
                name.clone(),
                format!("checkpoint does not load: wal: {err}"),
            )
            .with_note(
                "its manifest verifies, but recovery skips it and boots from the next older \
                 checkpoint that loads, if any",
            ),
        );
    }
    reference::debris_audit(dir, &mut expected);
    let base = want.checkpoint.map(|c| (c.epoch, c.term));
    reference::log_audit(dir, base, &mut expected);
    expected.sort();
    assert_eq!(
        got,
        expected.render_text(),
        "fsck from recovery's base: {}",
        what()
    );
}

fn run(seeds: std::ops::Range<u64>, name: &str) -> Tally {
    let scratch = Scratch::new(name);
    let mut tally = Tally::default();
    for seed in seeds {
        check_case(seed, &scratch, &mut tally);
        let _ = std::fs::remove_dir_all(scratch.root.join(format!("case-{seed}")));
    }
    println!(
        "{} cases, {} tails; fsck base changed on {} input(s) {:?}; \
         tail term rule changed {} (seed, from_epoch) pair(s) {:?}",
        tally.cases,
        tally.tails,
        tally.fsck_base_changes.len(),
        tally.fsck_base_changes,
        tally.tail_term_changes.len(),
        tally.tail_term_changes,
    );
    tally
}

#[test]
fn seeded_data_directories_read_like_the_reference() {
    let tally = run(0..400, "short");
    assert!(
        !tally.fsck_base_changes.is_empty(),
        "no input exercised the fsck base change"
    );
    assert!(
        !tally.tail_term_changes.is_empty(),
        "no input exercised the tail's term rule"
    );
    let every = ["IC060", "IC061", "IC062", "IC063", "IC064", "IC066"];
    assert!(
        every.iter().all(|c| tally.codes.contains(c)),
        "inputs reached only {:?}",
        tally.codes
    );
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_reads_like_the_reference() {
    run(1_000..11_000, "long");
}

/// The three log readers as they stood before they shared one walker:
/// boot recovery, the replication tail and `check fsck`, each with its
/// own copy of the acceptance rule, plus the checkpoint listers,
/// manifest reader and frame scanner they used.
mod reference {
    use intensio_check::{Diagnostic, Report, Severity};
    use intensio_rules::encode::{decode as decode_rules, RuleRelations};
    use intensio_storage::catalog::Database;
    use intensio_storage::persist::load_database;
    use intensio_wal::checkpoint::debris;
    use intensio_wal::record::{decode_frame, FrameOutcome, Record};
    use intensio_wal::segment::{list_segments, CHECKPOINT_SUBDIR};
    use intensio_wal::RecoveryStats;
    use std::path::{Path, PathBuf};

    /// CRC-32 (IEEE, reflected), bit by bit.
    pub fn crc32(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn parse_manifest(text: &str) -> Result<(u64, u64, u64, bool), String> {
        let bad = |why: &str| format!("invalid checkpoint manifest: {why}");
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
        if lines.next() != Some("intensio-checkpoint v1") {
            return Err(bad("wrong header"));
        }
        let rest: Vec<&str> = lines.collect();
        let mut at = 0usize;
        let mut field = |key: &str| -> Result<u64, String> {
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
        let term = field("term ").unwrap_or(0);
        let rules = field("rules ")?;
        Ok((epoch, data_version, term, rules != 0))
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

    /// Recovery's lister: every entry whose name parses, by
    /// `(epoch, seq)`.
    fn list_checkpoints(data_dir: &Path) -> Vec<(u64, u64, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(data_dir.join(CHECKPOINT_SUBDIR)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.unwrap();
            let name = entry.file_name();
            if let Some((epoch, seq)) = name.to_str().and_then(parse_dir_name) {
                out.push((epoch, seq, entry.path()));
            }
        }
        out.sort_by_key(|c| (c.0, c.1));
        out
    }

    /// The audit's lister: every directory but debris, parsed or not.
    fn list_checkpoint_dirs(data_dir: &Path) -> Vec<(PathBuf, Option<(u64, u64)>)> {
        let Ok(entries) = std::fs::read_dir(data_dir.join(CHECKPOINT_SUBDIR)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.unwrap();
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.contains(".tmp-") || name.contains(".saving-") || name.contains(".old-") {
                continue;
            }
            out.push((entry.path(), parse_dir_name(name)));
        }
        out.sort();
        out
    }

    /// The audit's manifest reader.
    fn read_manifest(ckpt_dir: &Path) -> Result<(u64, u64, u64, bool), String> {
        let text = std::fs::read_to_string(ckpt_dir.join("MANIFEST"))
            .map_err(|e| format!("reading manifest: {e}"))?;
        parse_manifest(&text)
    }

    /// Why recovery's loader rejected a checkpoint.
    enum LoadError {
        Manifest,
        Load(String),
    }

    fn take(db: &Database, name: &str) -> Result<intensio_storage::Relation, String> {
        db.get(name)
            .cloned()
            .map_err(|_| format!("checkpoint rules missing relation {name}"))
    }

    /// Recovery's loader: `(epoch, data_version, term)`.
    fn load_checkpoint(epoch: u64, path: &Path) -> Result<(u64, u64, u64), LoadError> {
        let text =
            std::fs::read_to_string(path.join("MANIFEST")).map_err(|_| LoadError::Manifest)?;
        let (m_epoch, data_version, term, has_rules) =
            parse_manifest(&text).map_err(|_| LoadError::Manifest)?;
        if m_epoch != epoch {
            return Err(LoadError::Manifest);
        }
        load_database(&path.join("db"))
            .map_err(|e| LoadError::Load(format!("loading checkpoint db: {e}")))?;
        if has_rules {
            let rules_db = load_database(&path.join("rules"))
                .map_err(|e| LoadError::Load(format!("loading checkpoint rules: {e}")))?;
            let mut rels = RuleRelations::empty();
            rels.rules = take(&rules_db, "RULES").map_err(LoadError::Load)?;
            rels.value_map = take(&rules_db, "ATTRVALUEMAP").map_err(LoadError::Load)?;
            rels.attr_catalog = take(&rules_db, "ATTRCATALOG").map_err(LoadError::Load)?;
            rels.meta = take(&rules_db, "RULEMETA").map_err(LoadError::Load)?;
            decode_rules(&rels)
                .map_err(|e| LoadError::Load(format!("decoding checkpoint rules: {e}")))?;
        }
        Ok((m_epoch, data_version, term))
    }

    #[derive(Debug, Clone, Copy)]
    pub struct Checkpoint {
        pub epoch: u64,
        pub seq: u64,
        pub data_version: u64,
        pub term: u64,
    }

    pub struct Recovered {
        pub checkpoint: Option<Checkpoint>,
        pub records: Vec<Record>,
        pub stats: RecoveryStats,
        pub last_seq: u64,
        pub torn: Vec<(PathBuf, u64)>,
        /// Newer checkpoints whose manifest verified but whose data did
        /// not load: `(directory name, error)`.
        pub unloadable: Vec<(String, String)>,
    }

    /// Boot recovery. With `base` set, no checkpoint is read and replay
    /// starts from that `(epoch, term)`.
    pub fn recover(data_dir: &Path, base: Option<(u64, u64)>) -> Recovered {
        let mut checkpoint = None;
        let mut rejected = 0;
        let mut unloadable = Vec::new();
        if base.is_none() {
            for (epoch, seq, path) in list_checkpoints(data_dir).iter().rev() {
                match load_checkpoint(*epoch, path) {
                    Ok((epoch, data_version, term)) => {
                        checkpoint = Some(Checkpoint {
                            epoch,
                            seq: *seq,
                            data_version,
                            term,
                        });
                        break;
                    }
                    Err(why) => {
                        rejected += 1;
                        if let LoadError::Load(e) = why {
                            let name = path.file_name().unwrap().to_str().unwrap();
                            unloadable.push((name.to_string(), e));
                        }
                    }
                }
            }
        }
        let (base_epoch, base_term) =
            base.unwrap_or_else(|| checkpoint.map_or((0, 0), |c| (c.epoch, c.term)));

        let mut stats = RecoveryStats {
            checkpoint_epoch: base_epoch,
            checkpoint_term: base_term,
            checkpoints_rejected: rejected,
            ..RecoveryStats::default()
        };
        let mut records: Vec<Record> = Vec::new();
        let mut torn: Vec<(PathBuf, u64)> = Vec::new();
        let mut last_epoch = base_epoch;
        let mut last_term = base_term;
        let mut stopped = false;

        let segments = list_segments(data_dir).unwrap();
        let last_seq = segments.last().map(|(seq, _)| *seq).unwrap_or(0);

        for (_seq, path) in &segments {
            let buf = std::fs::read(path).unwrap();
            let mut pos = 0usize;
            while pos < buf.len() {
                match decode_frame(&buf[pos..]) {
                    FrameOutcome::Complete(rec, consumed) => {
                        pos += consumed;
                        if stopped {
                            stats.discarded_records += 1;
                            stats.discarded_bytes += consumed as u64;
                            continue;
                        }
                        if rec.term < last_term {
                            stats.orphaned_records += 1;
                            stats.discarded_bytes += consumed as u64;
                            continue;
                        }
                        if rec.term > last_term {
                            while records.last().is_some_and(|p| p.epoch >= rec.epoch) {
                                records.pop();
                                stats.replayed_records -= 1;
                                stats.orphaned_records += 1;
                            }
                            last_epoch = records.last().map(|r| r.epoch).unwrap_or(base_epoch);
                            last_term = rec.term;
                        }
                        let duplicates_tail = rec.epoch == last_epoch
                            && records.last().is_some_and(|prev| prev.epoch == rec.epoch);
                        if duplicates_tail {
                            if let Some(prev) = records.last_mut() {
                                *prev = rec;
                            }
                            stats.skipped_records += 1;
                        } else if rec.epoch <= last_epoch {
                            stats.skipped_records += 1;
                        } else if rec.epoch == last_epoch + 1 {
                            last_epoch = rec.epoch;
                            stats.replayed_records += 1;
                            records.push(rec);
                        } else {
                            stats.corrupt = true;
                            stopped = true;
                            stats.discarded_records += 1;
                            stats.discarded_bytes += consumed as u64;
                        }
                    }
                    FrameOutcome::Torn => {
                        stats.torn_tail = true;
                        stats.discarded_bytes += (buf.len() - pos) as u64;
                        torn.push((path.clone(), pos as u64));
                        break;
                    }
                    FrameOutcome::Corrupt(_) => {
                        stats.corrupt = true;
                        stats.discarded_bytes += (buf.len() - pos) as u64;
                        stopped = true;
                        break;
                    }
                }
            }
        }
        Recovered {
            checkpoint,
            records,
            stats,
            last_seq,
            torn,
            unloadable,
        }
    }

    /// The replication tail's items (errors rendered), in order.
    pub fn tail(data_dir: &Path, from_epoch: u64) -> Vec<Result<Record, String>> {
        let segments = list_segments(data_dir).unwrap();
        let mut out = Vec::new();
        let mut pending: Option<Record> = None;
        let mut last_epoch = from_epoch;
        let mut err = None;
        'segments: for (_seq, path) in segments {
            let buf = match std::fs::read(&path) {
                Ok(buf) => buf,
                Err(e) => {
                    err = Some(format!("reading segment {}: {e}", path.display()));
                    break;
                }
            };
            let mut pos = 0usize;
            while pos < buf.len() {
                match decode_frame(&buf[pos..]) {
                    FrameOutcome::Complete(rec, consumed) => {
                        pos += consumed;
                        if pending.as_ref().is_some_and(|prev| prev.epoch == rec.epoch) {
                            pending = Some(rec);
                        } else if rec.epoch <= last_epoch {
                            continue;
                        } else if rec.epoch == last_epoch + 1 {
                            last_epoch = rec.epoch;
                            if let Some(prev) = pending.replace(rec) {
                                out.push(Ok(prev));
                            }
                        } else {
                            err = Some(format!(
                                "epoch gap in log tail: wanted {}, found {}",
                                last_epoch + 1,
                                rec.epoch
                            ));
                            break 'segments;
                        }
                    }
                    FrameOutcome::Torn => break,
                    FrameOutcome::Corrupt(why) => {
                        err = Some(format!("corrupt frame in log tail: {why}"));
                        break 'segments;
                    }
                }
            }
        }
        out.extend(pending.map(Ok));
        out.extend(err.map(|e| Err(format!("wal: {e}"))));
        out
    }

    /// The whole audit, from the manifest-chosen base.
    pub fn fsck(dir: &Path) -> Report {
        let mut report = Report::new();
        let base = checkpoint_audit(dir, &mut report).map(|(epoch, _, term)| (epoch, term));
        debris_audit(dir, &mut report);
        log_audit(dir, base, &mut report);
        report.sort();
        report
    }

    /// Verify every checkpoint's manifest and return the
    /// `(epoch, seq, term)` of the base the audit picks: the newest
    /// whose manifest verifies.
    pub fn checkpoint_audit(dir: &Path, report: &mut Report) -> Option<(u64, u64, u64)> {
        let mut best: Option<((u64, u64), u64)> = None;
        for (path, parsed) in list_checkpoint_dirs(dir) {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let Some((epoch, seq)) = parsed else {
                report.push(Diagnostic::new(
                    "IC066",
                    Severity::Error,
                    name,
                    "checkpoint directory name does not parse as ckpt-<epoch>-<seq>; \
                     recovery will never consider it",
                ));
                continue;
            };
            match read_manifest(&path) {
                Ok(info) if info.0 != epoch => {
                    report.push(Diagnostic::new(
                        "IC066",
                        Severity::Error,
                        name,
                        format!(
                            "manifest pins epoch {} but the directory name claims epoch {epoch}; \
                             recovery rejects the checkpoint",
                            info.0
                        ),
                    ));
                }
                Ok(info) => {
                    if best.map(|(k, _)| k < (epoch, seq)).unwrap_or(true) {
                        best = Some(((epoch, seq), info.2));
                    }
                }
                Err(e) => {
                    report.push(
                        Diagnostic::new(
                            "IC066",
                            Severity::Error,
                            name,
                            format!("checkpoint manifest does not verify: wal: {e}"),
                        )
                        .with_note("recovery falls back to the next older checkpoint"),
                    );
                }
            }
        }
        best.map(|((epoch, seq), term)| (epoch, seq, term))
    }

    pub fn debris_audit(dir: &Path, report: &mut Report) {
        for path in debris(dir).unwrap() {
            let shown = path.strip_prefix(dir).unwrap_or(&path).display();
            report.push(
                Diagnostic::new(
                    "IC065",
                    Severity::Warn,
                    "fsck",
                    format!("atomic-write debris: {shown}"),
                )
                .with_note("a crash left this intermediate behind; recovery ignores it, deleting it reclaims the space"),
            );
        }
    }

    /// Decode every frame, stopping after the first torn or corrupt.
    fn scan_frames(buf: &[u8]) -> Vec<(u64, FrameOutcome)> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            let outcome = decode_frame(&buf[pos..]);
            let consumed = match &outcome {
                FrameOutcome::Complete(_, consumed) => *consumed,
                FrameOutcome::Torn | FrameOutcome::Corrupt(_) => {
                    out.push((pos as u64, outcome));
                    break;
                }
            };
            out.push((pos as u64, outcome));
            pos += consumed;
        }
        out
    }

    /// The audit's walk, from a base `(epoch, term)`.
    pub fn log_audit(dir: &Path, base: Option<(u64, u64)>, report: &mut Report) {
        let segments = list_segments(dir).unwrap();
        let base_epoch = base.map(|b| b.0).unwrap_or(0);
        let mut last_epoch = base_epoch;
        let mut last_term = base.map(|b| b.1).unwrap_or(0);
        let mut last_from_log = false;
        let mut chain_intact = true;

        for (_seq, path) in &segments {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let buf = std::fs::read(path).unwrap();
            for (offset, outcome) in scan_frames(&buf) {
                match outcome {
                    FrameOutcome::Torn => {
                        let lost = buf.len() as u64 - offset;
                        report.push(
                            Diagnostic::new(
                                "IC062",
                                Severity::Warn,
                                name.clone(),
                                format!("torn tail: frame at byte {offset} is incomplete ({lost} trailing byte(s))"),
                            )
                            .with_note("the expected shape of a crash mid-append; recovery truncates it"),
                        );
                    }
                    FrameOutcome::Corrupt(why) => {
                        report.push(
                            Diagnostic::new(
                                "IC061",
                                Severity::Error,
                                name.clone(),
                                format!("corrupt frame at byte {offset}: {why}"),
                            )
                            .with_note(
                                "framing is lost from here; recovery discards the rest of the log",
                            ),
                        );
                        chain_intact = false;
                    }
                    FrameOutcome::Complete(rec, _) => {
                        if !chain_intact {
                            continue;
                        }
                        if rec.term < last_term {
                            if rec.epoch > base_epoch {
                                report.push(
                                    Diagnostic::new(
                                        "IC060",
                                        Severity::Error,
                                        name.clone(),
                                        format!(
                                            "term monotonicity violated: {} record at byte {offset} \
                                             (epoch {}) carries term {} below the established term {last_term}",
                                            rec.kind.name(),
                                            rec.epoch,
                                            rec.term
                                        ),
                                    )
                                    .with_note(
                                        "a deposed primary's ghost suffix — these records were fenced \
                                         off at failover and will never replay",
                                    ),
                                );
                            }
                            continue;
                        }
                        if rec.term > last_term {
                            if last_epoch >= rec.epoch {
                                last_epoch = rec.epoch.saturating_sub(1).max(base_epoch);
                                last_from_log = last_epoch > base_epoch;
                            }
                            last_term = rec.term;
                        }
                        if rec.epoch == last_epoch && last_from_log {
                            report.push(Diagnostic::new(
                                "IC064",
                                Severity::Info,
                                name.clone(),
                                format!(
                                    "duplicate epoch {}: the record at byte {offset} supersedes an \
                                     earlier unacknowledged append (last record wins on replay)",
                                    rec.epoch
                                ),
                            ));
                        } else if rec.epoch <= last_epoch {
                        } else if rec.epoch == last_epoch + 1 {
                            last_epoch = rec.epoch;
                            last_from_log = true;
                        } else {
                            report.push(
                                Diagnostic::new(
                                    "IC063",
                                    Severity::Error,
                                    name.clone(),
                                    format!(
                                        "epoch contiguity broken: record at byte {offset} carries epoch {} \
                                         but the replayable chain ends at epoch {last_epoch}",
                                        rec.epoch
                                    ),
                                )
                                .with_note(format!(
                                    "epoch(s) {}..={} are on no segment this directory holds; \
                                     recovery discards everything from here",
                                    last_epoch + 1,
                                    rec.epoch - 1
                                )),
                            );
                            chain_intact = false;
                        }
                    }
                }
            }
        }
    }
}
