//! Minimal CSV import/export for relations.
//!
//! Supports RFC-4180-style quoting (double quotes, embedded commas and
//! quotes, quote-doubling). Used to relocate a database together with its
//! rule relations, as the paper's §5.2.2 requires ("a database and its
//! associated rule relations can be relocated together").

use crate::error::{Result, StorageError};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Serialize a relation to CSV with a header row.
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    write_csv(rel, &mut out);
    out
}

/// Append [`to_csv`]'s text for `rel` to `out`, writing each cell
/// straight into the buffer. Callers that serialize several relations
/// (checkpoints, the rule-relation codec) share one buffer.
pub fn write_csv(rel: &Relation, out: &mut String) {
    for (i, a) in rel.schema().attributes().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, a.name());
    }
    out.push('\n');
    for t in rel.iter() {
        for (i, v) in t.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match v {
                Value::Null => {}
                Value::Str(s) => push_escaped(out, s),
                // Numbers and dates never render a comma, a quote or a
                // newline, so they need no quoting.
                other => other.write_bare(out),
            }
        }
        out.push('\n');
    }
}

/// Parse CSV text (with header) into a relation under the given schema.
/// Empty cells become `Null`; other cells are parsed as the attribute's
/// basic type.
pub fn from_csv(name: &str, schema: Schema, text: &str) -> Result<Relation> {
    let mut rows = parse_rows(text)?;
    if rows.is_empty() {
        return Err(StorageError::Csv("missing header row".to_string()));
    }
    let header = rows.remove(0);
    if header.len() != schema.arity() {
        return Err(StorageError::Csv(format!(
            "header has {} columns, schema expects {}",
            header.len(),
            schema.arity()
        )));
    }
    for (cell, attr) in header.iter().zip(schema.attributes()) {
        if !cell.eq_ignore_ascii_case(attr.name()) {
            return Err(StorageError::Csv(format!(
                "header column {cell:?} does not match attribute {:?}",
                attr.name()
            )));
        }
    }
    let mut rel = Relation::new(name, schema);
    for (lineno, row) in rows.into_iter().enumerate() {
        if row.len() != rel.schema().arity() {
            return Err(StorageError::Csv(format!(
                "row {} has {} cells, expected {}",
                lineno + 2,
                row.len(),
                rel.schema().arity()
            )));
        }
        let mut vals = Vec::with_capacity(row.len());
        for (cell, attr) in row.iter().zip(rel.schema().attributes()) {
            if cell.is_empty() {
                vals.push(Value::Null);
            } else {
                vals.push(Value::parse_as(cell, attr.value_type())?);
            }
        }
        rel.insert(Tuple::new(vals))?;
    }
    Ok(rel)
}

/// Append `s` as one CSV cell: quoted, with quotes doubled, when it
/// holds a comma, a quote or a newline.
fn push_escaped(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n']) {
        out.push('"');
        for part in s.split_inclusive('"') {
            out.push_str(part);
            if part.ends_with('"') {
                out.push('"');
            }
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Split CSV text into rows of cells, honoring quoting.
fn parse_rows(text: &str) -> Result<Vec<Vec<String>>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => cell.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                }
                other => cell.push(other),
            }
        }
    }
    if in_quotes {
        return Err(StorageError::Csv("unterminated quoted cell".to_string()));
    }
    if any && (!cell.is_empty() || !row.is_empty()) {
        row.push(cell);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::Attribute;
    use crate::tuple;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Name", Domain::char_n(30)),
            Attribute::new("Displacement", Domain::basic(ValueType::Int)),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip() {
        let mut r = Relation::new("SHIPS", schema());
        r.insert_all([
            tuple!["SSBN730", "Rhode Island", 16600],
            tuple!["SSN671", "Narwhal", 4450],
        ])
        .unwrap();
        let csv = to_csv(&r);
        let back = from_csv("SHIPS", schema(), &csv).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.tuples()[0], r.tuples()[0]);
    }

    #[test]
    fn quoting_round_trip() {
        let s = Schema::new(vec![Attribute::new("Note", Domain::basic(ValueType::Str))]).unwrap();
        let mut r = Relation::new("NOTES", s.clone());
        r.insert(tuple!["has, comma and \"quotes\""]).unwrap();
        let csv = to_csv(&r);
        let back = from_csv("NOTES", s, &csv).unwrap();
        assert_eq!(back.tuples()[0], r.tuples()[0]);
    }

    #[test]
    fn nulls_round_trip() {
        let s = Schema::new(vec![
            Attribute::new("A", Domain::basic(ValueType::Str)),
            Attribute::new("B", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut r = Relation::new("T", s.clone());
        r.insert(Tuple::new(vec![Value::str("x"), Value::Null]))
            .unwrap();
        let back = from_csv("T", s, &to_csv(&r)).unwrap();
        assert!(back.tuples()[0].get(1).is_null());
    }

    /// The per-cell serializer `write_csv` replaced: a `String` per
    /// cell, joined per row.
    fn reference_to_csv(rel: &Relation) -> String {
        fn escape(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = rel
            .schema()
            .attributes()
            .iter()
            .map(|a| escape(a.name()))
            .collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for t in rel.iter() {
            let row: Vec<String> = t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    other => escape(&other.render_bare()),
                })
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    #[test]
    fn write_csv_matches_the_per_cell_serializer() {
        let s = Schema::new(vec![
            Attribute::new("Note, \"quoted\"", Domain::basic(ValueType::Str)),
            Attribute::new("N", Domain::basic(ValueType::Int)),
            Attribute::new("R", Domain::basic(ValueType::Real)),
            Attribute::new("D", Domain::basic(ValueType::Date)),
        ])
        .unwrap();
        let notes = [
            "plain",
            "",
            "has, comma",
            "\"\"",
            "a \"quote\" inside",
            "multi\nline",
            "trailing\"",
            "carriage\rreturn",
        ];
        let reals = [
            0.0,
            -0.0,
            3.0,
            -2.5,
            0.1,
            1e15,
            1e20,
            -1e-7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut r = Relation::new("MIXED", s);
        for (i, &real) in reals.iter().enumerate() {
            let note = notes[i % notes.len()];
            let null = |k: usize| (i + k) % 4 == 3;
            r.insert(Tuple::new(vec![
                if null(1) {
                    Value::Null
                } else {
                    Value::str(note)
                },
                if null(2) {
                    Value::Null
                } else {
                    Value::Int(i as i64 * 7 - 30)
                },
                if null(3) {
                    Value::Null
                } else {
                    Value::Real(real)
                },
                if null(0) {
                    Value::Null
                } else {
                    Value::Date(format!("1991-04-{:02}", i + 1).parse().unwrap())
                },
            ]))
            .unwrap();
        }
        r.insert(Tuple::new(vec![Value::Null; 4])).unwrap();
        let expected = reference_to_csv(&r);
        assert_eq!(to_csv(&r), expected);
        let mut shared = String::from("prefix\n");
        write_csv(&r, &mut shared);
        assert_eq!(shared, format!("prefix\n{expected}"));
        assert!(
            expected.contains("\"a \"\"quote\"\" inside\""),
            "{expected}"
        );
        assert!(expected.contains("-0.0"), "{expected}");
    }

    #[test]
    fn header_mismatch_rejected() {
        let text = "Wrong,Name,Displacement\nSSBN730,Rhode Island,16600\n";
        assert!(from_csv("SHIPS", schema(), text).is_err());
    }

    #[test]
    fn bad_cell_type_rejected() {
        let text = "Id,Name,Displacement\nSSBN730,Rhode Island,heavy\n";
        assert!(from_csv("SHIPS", schema(), text).is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse_rows("a,\"b\nc,d").is_err());
    }
}
