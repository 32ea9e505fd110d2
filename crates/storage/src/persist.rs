//! Directory persistence: save and load a whole [`Database`] as a
//! directory of CSV files plus a schema manifest.
//!
//! The paper's §5.2.2 requires that "a database and its associated rule
//! relations can be relocated together"; this module provides the
//! relocation vehicle. Layout:
//!
//! ```text
//! <dir>/
//!   _schema.csv          one row per attribute:
//!                        (Relation, Position, Attribute, IsKey, Type, CharLen)
//!   <RELATION>.csv       data, one file per relation
//! ```
//!
//! Domain range/set constraints are not persisted (they live in the KER
//! schema, which travels as source text); `char[n]` widths are, because
//! they affect value validation on load.

use crate::catalog::Database;
use crate::csv::{from_csv, write_csv};
use crate::domain::Domain;
use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use crate::tuple::Tuple;
use crate::value::{Value, ValueType};
use std::fs;
use std::path::Path;

fn schema_manifest_schema() -> Result<Schema> {
    Schema::new(vec![
        Attribute::new("Relation", Domain::basic(ValueType::Str)),
        Attribute::new("Position", Domain::basic(ValueType::Int)),
        Attribute::new("Attribute", Domain::basic(ValueType::Str)),
        Attribute::new("IsKey", Domain::basic(ValueType::Int)),
        Attribute::new("Type", Domain::basic(ValueType::Str)),
        Attribute::new("CharLen", Domain::basic(ValueType::Int)),
    ])
    .map_err(|e| StorageError::Invalid(format!("manifest schema: {e}")))
}

/// Serialize the catalog's schemas into the manifest relation.
fn manifest_of(db: &Database) -> Result<Relation> {
    let mut m = Relation::new("_schema", schema_manifest_schema()?);
    for rel in db.relations() {
        for (pos, a) in rel.schema().attributes().iter().enumerate() {
            let char_len = a
                .domain()
                .constraints()
                .iter()
                .find_map(|c| match c {
                    crate::domain::DomainConstraint::CharLen(n) => Some(*n as i64),
                    _ => None,
                })
                .unwrap_or(0);
            m.insert(Tuple::new(vec![
                Value::str(rel.name()),
                Value::Int(pos as i64),
                Value::str(a.name()),
                Value::Int(i64::from(a.is_key())),
                Value::str(a.value_type().keyword()),
                Value::Int(char_len),
            ]))?;
        }
    }
    Ok(m)
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Invalid(format!("io error: {e}"))
}

/// Write one file and flush it to stable storage before returning.
fn write_sync(path: &Path, contents: &str) -> Result<()> {
    let mut f = fs::File::create(path).map_err(io_err)?;
    std::io::Write::write_all(&mut f, contents.as_bytes()).map_err(io_err)?;
    f.sync_all().map_err(io_err)
}

/// Flush a directory entry itself (best effort — not all filesystems
/// support syncing directories).
fn sync_dir(path: &Path) {
    if let Ok(d) = fs::File::open(path) {
        let _ = d.sync_all();
    }
}

/// The hidden siblings [`save_database`]'s rename dance leaves next to
/// `dir`: `.{name}.{marker}-{pid}` directories, any pid.
fn hidden_siblings(parent: &Path, name: &str, marker: &str) -> Vec<std::path::PathBuf> {
    let prefix = format!(".{name}.{marker}-");
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(parent) {
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix))
            {
                out.push(entry.path());
            }
        }
    }
    out
}

/// Save a database to a directory: the full layout is staged in a
/// temporary sibling directory, synced, and renamed into place. A crash
/// mid-save never leaves a torn mix — readers see the old save, the new
/// save, or (in the brief window between the two renames) no directory
/// plus an `.old-*` sibling that [`load_database`] falls back to.
/// Saves to one destination are single-writer: stale `.saving-*` and
/// `.old-*` siblings from a crashed process are swept here.
pub fn save_database(db: &Database, dir: &Path) -> Result<()> {
    let manifest = manifest_of(db)?;

    let parent = dir.parent().unwrap_or_else(|| Path::new("."));
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| StorageError::Invalid(format!("bad save path {}", dir.display())))?;
    if !parent.as_os_str().is_empty() {
        fs::create_dir_all(parent).map_err(io_err)?;
    }
    for stale in hidden_siblings(parent, name, "saving") {
        let _ = fs::remove_dir_all(&stale);
    }
    let staging = parent.join(format!(".{name}.saving-{}", std::process::id()));
    fs::create_dir_all(&staging).map_err(io_err)?;

    let staged = (|| -> Result<()> {
        // One buffer serves every file.
        let mut text = String::new();
        write_csv(&manifest, &mut text);
        write_sync(&staging.join("_schema.csv"), &text)?;
        for rel in db.relations() {
            text.clear();
            write_csv(rel, &mut text);
            write_sync(&staging.join(format!("{}.csv", rel.name())), &text)?;
        }
        Ok(())
    })();
    if let Err(e) = staged {
        let _ = fs::remove_dir_all(&staging);
        return Err(e);
    }
    sync_dir(&staging);

    // Swap in. `rename` won't replace a non-empty directory, so an
    // existing save is moved aside first and only deleted once the new
    // one is in place. A crash between the two renames leaves nothing
    // at `dir`, but the previous save survives as the `.old-*` sibling
    // and `load_database` consults it — the worst case is reading the
    // previous save, never a torn one.
    let old = parent.join(format!(".{name}.old-{}", std::process::id()));
    let _ = fs::remove_dir_all(&old);
    let had_old = dir.exists();
    if had_old {
        fs::rename(dir, &old).map_err(io_err)?;
    }
    if let Err(e) = fs::rename(&staging, dir) {
        // Try to put the old save back before reporting failure.
        if had_old {
            let _ = fs::rename(&old, dir);
        }
        let _ = fs::remove_dir_all(&staging);
        return Err(io_err(e));
    }
    // The new save is in place; every `.old-*` sibling (ours, or a
    // crashed process's with another pid) is now stale.
    for stale in hidden_siblings(parent, name, "old") {
        let _ = fs::remove_dir_all(&stale);
    }
    sync_dir(parent);
    Ok(())
}

/// Load a database previously written by [`save_database`]. When `dir`
/// itself is missing but a crash left an `.old-*` sibling behind (the
/// window between `save_database`'s two renames), the newest such
/// sibling is read instead; nothing on disk is modified — the next
/// successful save sweeps the relic.
pub fn load_database(dir: &Path) -> Result<Database> {
    if !dir.exists() {
        if let Some(old) = newest_old_save(dir) {
            return load_database_dir(&old);
        }
    }
    load_database_dir(dir)
}

/// The newest `.old-*` sibling of `dir`, by modification time.
fn newest_old_save(dir: &Path) -> Option<std::path::PathBuf> {
    let parent = match dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let name = dir.file_name()?.to_str()?;
    hidden_siblings(parent, name, "old")
        .into_iter()
        .max_by_key(|p| fs::metadata(p).and_then(|m| m.modified()).ok())
}

fn load_database_dir(dir: &Path) -> Result<Database> {
    let manifest_text = fs::read_to_string(dir.join("_schema.csv")).map_err(io_err)?;
    let manifest = from_csv("_schema", schema_manifest_schema()?, &manifest_text)?;

    // Group manifest rows by relation, ordered by position.
    let mut relations: Vec<String> = Vec::new();
    for t in manifest.iter() {
        let name = t.get(0).as_str().unwrap_or_default().to_string();
        if !relations.contains(&name) {
            relations.push(name);
        }
    }

    let mut db = Database::new();
    for rel_name in relations {
        let mut attrs: Vec<(i64, Attribute)> = Vec::new();
        for t in manifest.iter() {
            if t.get(0).as_str() != Some(rel_name.as_str()) {
                continue;
            }
            let pos = t
                .get(1)
                .as_int()
                .ok_or_else(|| StorageError::Invalid("bad manifest Position".to_string()))?;
            let name = t
                .get(2)
                .as_str()
                .ok_or_else(|| StorageError::Invalid("bad manifest Attribute".to_string()))?;
            let is_key = t.get(3).as_int().unwrap_or(0) != 0;
            let ty = ValueType::from_keyword(t.get(4).as_str().unwrap_or(""))
                .ok_or_else(|| StorageError::Invalid("bad manifest Type".to_string()))?;
            let char_len = t.get(5).as_int().unwrap_or(0);
            let domain = if char_len > 0 && ty == ValueType::Str {
                Domain::char_n(char_len as usize)
            } else {
                Domain::basic(ty)
            };
            let attr = if is_key {
                Attribute::key(name, domain)
            } else {
                Attribute::new(name, domain)
            };
            attrs.push((pos, attr));
        }
        attrs.sort_by_key(|(pos, _)| *pos);
        let schema = Schema::new(attrs.into_iter().map(|(_, a)| a).collect())?;
        let text = fs::read_to_string(dir.join(format!("{rel_name}.csv"))).map_err(io_err)?;
        db.create(from_csv(&rel_name, schema, &text)?)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample_db() -> Database {
        let schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Name", Domain::char_n(20)),
            Attribute::new("Displacement", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut ships = Relation::new("SHIPS", schema);
        ships
            .insert_all([
                tuple!["SSBN730", "Rhode Island", 16600],
                tuple!["SSN671", "Narwhal", 4450],
            ])
            .unwrap();
        let schema2 = Schema::new(vec![
            Attribute::key("Type", Domain::char_n(4)),
            Attribute::new("Count", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut types = Relation::new("TYPES", schema2);
        types.insert(tuple!["SSN", 17]).unwrap();
        let mut db = Database::new();
        db.create(ships).unwrap();
        db.create(types).unwrap();
        db
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("intensio_persist_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_everything() {
        let dir = tmpdir("roundtrip");
        let db = sample_db();
        save_database(&db, &dir).unwrap();
        let loaded = load_database(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        let ships = loaded.get("SHIPS").unwrap();
        assert_eq!(ships.len(), 2);
        assert_eq!(ships.tuples(), db.get("SHIPS").unwrap().tuples());
        // Keys survive: duplicate insert must fail.
        let mut loaded = loaded;
        assert!(loaded
            .get_mut("SHIPS")
            .unwrap()
            .insert(tuple!["SSBN730", "Impostor", 1])
            .is_err());
        // char[n] domains survive: overlong strings rejected.
        assert!(loaded
            .get_mut("SHIPS")
            .unwrap()
            .insert(tuple!["WAY-TOO-LONG-ID", "x", 1])
            .is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_errors() {
        let dir = tmpdir("missing").join("nope");
        assert!(load_database(&dir).is_err());
    }

    #[test]
    fn load_falls_back_to_old_sibling_in_the_crash_window() {
        let dir = tmpdir("oldfallback");
        let db = sample_db();
        save_database(&db, &dir).unwrap();
        // Simulate a crash between save's two renames: `dir` is gone
        // and only an `.old-*` sibling (another pid's) remains.
        let parent = dir.parent().unwrap().to_path_buf();
        let name = dir.file_name().unwrap().to_str().unwrap().to_string();
        let old = parent.join(format!(".{name}.old-999999"));
        fs::rename(&dir, &old).unwrap();

        let loaded = load_database(&dir).unwrap();
        assert_eq!(loaded.total_tuples(), db.total_tuples());
        assert!(!dir.exists(), "the fallback load must not modify disk");

        // The next successful save restores `dir` and sweeps the relic.
        save_database(&db, &dir).unwrap();
        assert!(dir.exists());
        assert!(!old.exists(), "stale .old-* swept after a save");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_staging_directories_are_swept_on_save() {
        let dir = tmpdir("sweepstaging");
        let parent = dir.parent().unwrap().to_path_buf();
        let name = dir.file_name().unwrap().to_str().unwrap().to_string();
        let stale = parent.join(format!(".{name}.saving-999999"));
        fs::create_dir_all(&stale).unwrap();
        save_database(&sample_db(), &dir).unwrap();
        assert!(!stale.exists(), "crashed staging dir swept by the save");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_idempotent() {
        let dir = tmpdir("idempotent");
        let db = sample_db();
        save_database(&db, &dir).unwrap();
        save_database(&db, &dir).unwrap();
        let loaded = load_database(&dir).unwrap();
        assert_eq!(loaded.total_tuples(), db.total_tuples());
        fs::remove_dir_all(&dir).unwrap();
    }
}
