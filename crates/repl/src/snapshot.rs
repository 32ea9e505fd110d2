//! Serializing a whole database to one byte buffer, for followers that
//! must bootstrap over the wire.
//!
//! A checkpoint materializes the database through `storage::persist` as
//! a *directory* — fine for disk, useless for a TCP stream. This codec
//! renders the same information (a schema manifest plus one CSV section
//! per relation) into a single sectioned buffer, mirroring the WAL's
//! rule-relation encoding:
//!
//! ```text
//! %intensio-db v1
//! %relation _schema
//! Relation,Position,Attribute,IsKey,Type,CharLen
//! ...
//! %relation CLASS
//! Class,Displacement,Type,...
//! ...
//! ```
//!
//! Domain range/set constraints are not shipped (they live in the KER
//! schema source, exactly as `storage::persist` documents); `char[n]`
//! widths are, because they affect value validation on the follower.

use crate::ReplError;
use intensio_storage::csv::{from_csv, write_csv};
use intensio_storage::{
    Attribute, Database, Domain, DomainConstraint, Relation, Schema, Tuple, Value, ValueType,
};

const HEADER: &str = "%intensio-db v1";
const SECTION: &str = "%relation ";
const MANIFEST: &str = "_schema";

fn manifest_schema() -> Result<Schema, ReplError> {
    Schema::new(vec![
        Attribute::new("Relation", Domain::basic(ValueType::Str)),
        Attribute::new("Position", Domain::basic(ValueType::Int)),
        Attribute::new("Attribute", Domain::basic(ValueType::Str)),
        Attribute::new("IsKey", Domain::basic(ValueType::Int)),
        Attribute::new("Type", Domain::basic(ValueType::Str)),
        Attribute::new("CharLen", Domain::basic(ValueType::Int)),
    ])
    .map_err(|e| ReplError(format!("manifest schema: {e}")))
}

/// Encode a database as a sectioned-CSV buffer.
pub fn db_to_bytes(db: &Database) -> Result<Vec<u8>, ReplError> {
    let mut manifest = Relation::new(MANIFEST, manifest_schema()?);
    for rel in db.relations() {
        for (pos, a) in rel.schema().attributes().iter().enumerate() {
            let char_len = a
                .domain()
                .constraints()
                .iter()
                .find_map(|c| match c {
                    DomainConstraint::CharLen(n) => Some(*n as i64),
                    _ => None,
                })
                .unwrap_or(0);
            manifest
                .insert(Tuple::new(vec![
                    Value::str(rel.name()),
                    Value::Int(pos as i64),
                    Value::str(a.name()),
                    Value::Int(i64::from(a.is_key())),
                    Value::str(a.value_type().keyword()),
                    Value::Int(char_len),
                ]))
                .map_err(|e| ReplError(format!("building manifest: {e}")))?;
        }
    }
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(SECTION);
    out.push_str(MANIFEST);
    out.push('\n');
    write_csv(&manifest, &mut out);
    for rel in db.relations() {
        out.push_str(SECTION);
        out.push_str(rel.name());
        out.push('\n');
        write_csv(rel, &mut out);
    }
    Ok(out.into_bytes())
}

/// Decode a buffer written by [`db_to_bytes`].
pub fn db_from_bytes(bytes: &[u8]) -> Result<Database, ReplError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ReplError("database snapshot is not UTF-8".to_string()))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err(ReplError("database snapshot missing header".to_string()));
    }
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some(name) = line.strip_prefix(SECTION) {
            sections.push((name.trim().to_string(), String::new()));
        } else {
            let Some((_, body)) = sections.last_mut() else {
                return Err(ReplError("snapshot CSV outside any section".to_string()));
            };
            body.push_str(line);
            body.push('\n');
        }
    }
    let Some((first_name, manifest_csv)) = sections.first() else {
        return Err(ReplError("database snapshot has no sections".to_string()));
    };
    if first_name != MANIFEST {
        return Err(ReplError(format!(
            "first snapshot section is {first_name:?}, expected {MANIFEST:?}"
        )));
    }
    let manifest = from_csv(MANIFEST, manifest_schema()?, manifest_csv)
        .map_err(|e| ReplError(format!("parsing schema manifest: {e}")))?;

    let mut db = Database::new();
    for (name, body) in sections.iter().skip(1) {
        let mut attrs: Vec<(i64, Attribute)> = Vec::new();
        for t in manifest.iter() {
            if t.get(0).as_str() != Some(name.as_str()) {
                continue;
            }
            let bad = |what: &str| ReplError(format!("bad manifest {what} for {name}"));
            let pos = t.get(1).as_int().ok_or_else(|| bad("Position"))?;
            let attr_name = t.get(2).as_str().ok_or_else(|| bad("Attribute"))?;
            let is_key = t.get(3).as_int().unwrap_or(0) != 0;
            let ty = ValueType::from_keyword(t.get(4).as_str().unwrap_or(""))
                .ok_or_else(|| bad("Type"))?;
            let char_len = t.get(5).as_int().unwrap_or(0);
            let domain = if char_len > 0 && ty == ValueType::Str {
                Domain::char_n(char_len as usize)
            } else {
                Domain::basic(ty)
            };
            let attr = if is_key {
                Attribute::key(attr_name, domain)
            } else {
                Attribute::new(attr_name, domain)
            };
            attrs.push((pos, attr));
        }
        if attrs.is_empty() {
            return Err(ReplError(format!(
                "snapshot section {name:?} has no manifest entry"
            )));
        }
        attrs.sort_by_key(|(pos, _)| *pos);
        let schema = Schema::new(attrs.into_iter().map(|(_, a)| a).collect())
            .map_err(|e| ReplError(format!("rebuilding schema for {name}: {e}")))?;
        let rel = from_csv(name, schema, body)
            .map_err(|e| ReplError(format!("parsing relation {name}: {e}")))?;
        db.create(rel)
            .map_err(|e| ReplError(format!("installing relation {name}: {e}")))?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_storage::tuple;

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

    #[test]
    fn round_trip_preserves_schema_and_data() {
        let db = sample_db();
        let bytes = db_to_bytes(&db).unwrap();
        let mut back = db_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.get("SHIPS").unwrap().tuples(),
            db.get("SHIPS").unwrap().tuples()
        );
        // Keys and char[n] widths survive the trip.
        assert!(back
            .get_mut("SHIPS")
            .unwrap()
            .insert(tuple!["SSBN730", "Impostor", 1])
            .is_err());
        assert!(back
            .get_mut("SHIPS")
            .unwrap()
            .insert(tuple!["WAY-TOO-LONG-ID", "x", 1])
            .is_err());
    }

    #[test]
    fn empty_database_round_trips() {
        let bytes = db_to_bytes(&Database::new()).unwrap();
        assert_eq!(db_from_bytes(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(db_from_bytes(b"not a snapshot").is_err());
        assert!(db_from_bytes(&[0xFF, 0xFE]).is_err());
        let valid = db_to_bytes(&sample_db()).unwrap();
        let truncated = &valid[..valid.len() / 3];
        assert!(db_from_bytes(truncated).is_err());
    }
}
