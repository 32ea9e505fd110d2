//! Rule relations: storing induced rules *in the database itself*
//! (paper §5.2.2).
//!
//! Each rule becomes rows of the relation
//! `R' = (RuleNo, Role, Lvalue, Att_no, Uvalue)` — one row per clause,
//! `Role` being `L` (premise) or `R` (consequence) — and every attribute
//! boundary value is encoded as a real number through an *attribute value
//! mapping relation* `(Att_no, Value, RealValue)`. The paper leans on an
//! INGRES system table to identify attributes; we carry an explicit
//! attribute catalog `(Att_no, Object, Attribute, AttrType)` instead,
//! plus a small rule-metadata relation `(RuleNo, Support, Subtype)` so
//! that support counts and subtype labels survive relocation (an
//! extension the paper's encoding loses).

use crate::range::ValueRange;
use crate::rule::{AttrId, Clause, Rule, RuleSet};
use intensio_storage::domain::Domain;
use intensio_storage::error::{Result, StorageError};
use intensio_storage::relation::Relation;
use intensio_storage::schema::{Attribute, Schema};
use intensio_storage::tuple::Tuple;
use intensio_storage::value::{Value, ValueKey, ValueRef, ValueType};
use std::collections::BTreeMap;

/// The four relations a rule set is stored as.
#[derive(Debug, Clone)]
pub struct RuleRelations {
    /// `R' = (RuleNo, Role, Lvalue, Att_no, Uvalue)`.
    pub rules: Relation,
    /// `(Att_no, Value, RealValue)` — encoded boundary values.
    pub value_map: Relation,
    /// `(Att_no, Object, Attribute, AttrType)` — attribute catalog.
    pub attr_catalog: Relation,
    /// `(RuleNo, Support, Subtype)` — rule metadata (extension).
    pub meta: Relation,
}

impl RuleRelations {
    /// The four relations, empty, under their canonical names and
    /// schemas. Deserializers (CSV import, WAL replay, checkpoint
    /// loading) start from this shape.
    pub fn empty() -> RuleRelations {
        RuleRelations {
            rules: Relation::new("RULES", rules_schema()),
            value_map: Relation::new("ATTRVALUEMAP", value_map_schema()),
            attr_catalog: Relation::new("ATTRCATALOG", attr_catalog_schema()),
            meta: Relation::new("RULEMETA", meta_schema()),
        }
    }

    /// The relations in a stable order, paired with their names — the
    /// relocation set of paper §5.2.2.
    pub fn named(&self) -> [(&'static str, &Relation); 4] {
        [
            ("RULES", &self.rules),
            ("ATTRVALUEMAP", &self.value_map),
            ("ATTRCATALOG", &self.attr_catalog),
            ("RULEMETA", &self.meta),
        ]
    }
}

fn rules_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("RuleNo", Domain::basic(ValueType::Int)),
        Attribute::new("Role", Domain::char_n(1)),
        Attribute::new("Lvalue", Domain::basic(ValueType::Real)),
        Attribute::new("Att_no", Domain::basic(ValueType::Int)),
        Attribute::new("Uvalue", Domain::basic(ValueType::Real)),
    ])
    .expect("static schema")
}

fn value_map_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("Att_no", Domain::basic(ValueType::Int)),
        Attribute::new("Value", Domain::basic(ValueType::Real)),
        Attribute::new("RealValue", Domain::basic(ValueType::Str)),
    ])
    .expect("static schema")
}

fn attr_catalog_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("Att_no", Domain::basic(ValueType::Int)),
        Attribute::new("Object", Domain::basic(ValueType::Str)),
        Attribute::new("Attribute", Domain::basic(ValueType::Str)),
        Attribute::new("AttrType", Domain::basic(ValueType::Str)),
    ])
    .expect("static schema")
}

fn meta_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("RuleNo", Domain::basic(ValueType::Int)),
        Attribute::new("Support", Domain::basic(ValueType::Int)),
        Attribute::new("Subtype", Domain::basic(ValueType::Str)),
    ])
    .expect("static schema")
}

/// Encode a rule set into rule relations.
///
/// Only closed, finite clause ranges can be stored (the paper's clause
/// form); an open-ended range is an encoding error.
pub fn encode(rules: &RuleSet) -> Result<RuleRelations> {
    // Assign attribute numbers in sorted order for determinism.
    let mut attrs: BTreeMap<AttrId, i64> = BTreeMap::new();
    let mut attr_types: BTreeMap<AttrId, ValueType> = BTreeMap::new();
    // Per attribute, its distinct boundary values (each standing for
    // those equal to it under the total order, the first seen) mapped
    // to their code.
    let mut boundary_values: BTreeMap<AttrId, BTreeMap<ValueRef<'_>, usize>> = BTreeMap::new();

    for clause in rules.iter().flat_map(|r| r.lhs.iter().chain([&r.rhs])) {
        let (lo, hi) = closed_bounds(clause)?;
        if !attrs.contains_key(&clause.attr) {
            attrs.insert(clause.attr.clone(), attrs.len() as i64);
            boundary_values.insert(clause.attr.clone(), BTreeMap::new());
        }
        if !attr_types.contains_key(&clause.attr) {
            if let Some(t) = lo.value_type().or_else(|| hi.value_type()) {
                attr_types.insert(clause.attr.clone(), t);
            }
        }
        let list = boundary_values
            .get_mut(&clause.attr)
            .expect("inserted above");
        for v in [lo, hi] {
            list.entry(ValueRef(v)).or_insert(0);
        }
    }

    // Code assignment: 1.00, 2.00, ... per attribute, in value order.
    for list in boundary_values.values_mut() {
        for (rank, code) in list.values_mut().enumerate() {
            *code = rank + 1;
        }
    }
    let code_of = |attr: &AttrId, v: &Value| -> f64 { boundary_values[attr][&ValueRef(v)] as f64 };

    let mut rules_rel = Relation::new("RULES", rules_schema());
    let mut meta_rel = Relation::new("RULEMETA", meta_schema());
    for rule in rules.iter() {
        let mut emit = |role: &str, clause: &Clause| -> Result<()> {
            let (lo, hi) = closed_bounds(clause)?;
            rules_rel.insert(Tuple::new(vec![
                Value::Int(i64::from(rule.id)),
                Value::str(role),
                Value::Real(code_of(&clause.attr, lo)),
                Value::Int(attrs[&clause.attr]),
                Value::Real(code_of(&clause.attr, hi)),
            ]))
        };
        for c in &rule.lhs {
            emit("L", c)?;
        }
        emit("R", &rule.rhs)?;
        meta_rel.insert(Tuple::new(vec![
            Value::Int(i64::from(rule.id)),
            Value::Int(rule.support as i64),
            rule.rhs_subtype
                .as_ref()
                .map(|s| Value::str(s.clone()))
                .unwrap_or(Value::Null),
        ]))?;
    }

    let mut map_rel = Relation::new("ATTRVALUEMAP", value_map_schema());
    let mut cat_rel = Relation::new("ATTRCATALOG", attr_catalog_schema());
    for (attr, no) in &attrs {
        let ty = attr_types.get(attr).copied().unwrap_or(ValueType::Str);
        cat_rel.insert(Tuple::new(vec![
            Value::Int(*no),
            Value::str(attr.object.clone()),
            Value::str(attr.attribute.clone()),
            Value::str(ty.keyword()),
        ]))?;
        for (v, code) in &boundary_values[attr] {
            map_rel.insert(Tuple::new(vec![
                Value::Int(*no),
                Value::Real(*code as f64),
                Value::str(v.0.render_bare()),
            ]))?;
        }
    }

    Ok(RuleRelations {
        rules: rules_rel,
        value_map: map_rel,
        attr_catalog: cat_rel,
        meta: meta_rel,
    })
}

fn closed_bounds(clause: &Clause) -> Result<(&Value, &Value)> {
    match (&clause.range.lo, &clause.range.hi) {
        (Some(l), Some(h)) if l.inclusive && h.inclusive => Ok((&l.value, &h.value)),
        _ => Err(StorageError::Invalid(format!(
            "rule clause on {} is not a closed range and cannot be stored",
            clause.attr
        ))),
    }
}

/// Decode rule relations back into a rule set.
pub fn decode(rels: &RuleRelations) -> Result<RuleSet> {
    // Attribute catalog: Att_no -> (AttrId, type).
    let mut attr_of: BTreeMap<i64, (AttrId, ValueType)> = BTreeMap::new();
    for t in rels.attr_catalog.iter() {
        let no = expect_int(t.get(0), "Att_no")?;
        let object = expect_str(t.get(1), "Object")?;
        let attribute = expect_str(t.get(2), "Attribute")?;
        let ty = ValueType::from_keyword(&expect_str(t.get(3), "AttrType")?)
            .ok_or_else(|| StorageError::Invalid("bad AttrType".to_string()))?;
        attr_of.insert(no, (AttrId::new(object, attribute), ty));
    }

    // Value map: (Att_no, code) -> typed value.
    let mut value_of: BTreeMap<(i64, ValueKey), Value> = BTreeMap::new();
    for t in rels.value_map.iter() {
        let no = expect_int(t.get(0), "Att_no")?;
        let code = t.get(1).clone();
        let raw = expect_str(t.get(2), "RealValue")?;
        let ty = attr_of.get(&no).map(|(_, t)| *t).ok_or_else(|| {
            StorageError::Invalid(format!("value map references unknown attribute {no}"))
        })?;
        value_of.insert((no, ValueKey(code)), Value::parse_as(&raw, ty)?);
    }

    // Meta: RuleNo -> (support, subtype).
    let mut meta_of: BTreeMap<i64, (usize, Option<String>)> = BTreeMap::new();
    for t in rels.meta.iter() {
        let no = expect_int(t.get(0), "RuleNo")?;
        let support = expect_int(t.get(1), "Support")? as usize;
        let subtype = t.get(2).as_str().map(str::to_string);
        meta_of.insert(no, (support, subtype));
    }

    // Group clause rows by rule number.
    let mut grouped: BTreeMap<i64, (Vec<Clause>, Option<Clause>)> = BTreeMap::new();
    for t in rels.rules.iter() {
        let no = expect_int(t.get(0), "RuleNo")?;
        let role = expect_str(t.get(1), "Role")?;
        let lcode = t.get(2).clone();
        let att_no = expect_int(t.get(3), "Att_no")?;
        let ucode = t.get(4).clone();
        let (attr, _) = attr_of
            .get(&att_no)
            .ok_or_else(|| StorageError::Invalid(format!("unknown Att_no {att_no}")))?;
        let lo = value_of
            .get(&(att_no, ValueKey(lcode)))
            .ok_or_else(|| StorageError::Invalid("unknown Lvalue code".to_string()))?;
        let hi = value_of
            .get(&(att_no, ValueKey(ucode)))
            .ok_or_else(|| StorageError::Invalid("unknown Uvalue code".to_string()))?;
        let clause = Clause {
            attr: attr.clone(),
            range: ValueRange::closed(lo.clone(), hi.clone()),
        };
        let entry = grouped.entry(no).or_default();
        match role.as_str() {
            "L" => entry.0.push(clause),
            "R" => {
                if entry.1.replace(clause).is_some() {
                    return Err(StorageError::Invalid(format!(
                        "rule {no} has two consequences (not Horn)"
                    )));
                }
            }
            other => {
                return Err(StorageError::Invalid(format!("bad Role {other:?}")));
            }
        }
    }

    let mut out = Vec::with_capacity(grouped.len());
    for (no, (lhs, rhs)) in grouped {
        let rhs =
            rhs.ok_or_else(|| StorageError::Invalid(format!("rule {no} has no consequence")))?;
        let mut rule = Rule::new(no as u32, lhs, rhs);
        if let Some((support, subtype)) = meta_of.get(&no) {
            rule.support = *support;
            rule.rhs_subtype = subtype.clone();
        }
        out.push(rule);
    }
    Ok(RuleSet::from_rules(out))
}

fn expect_int(v: &Value, what: &str) -> Result<i64> {
    v.as_int().ok_or_else(|| StorageError::TypeMismatch {
        expected: "integer".to_string(),
        found: v.to_string(),
        context: what.to_string(),
    })
}

fn expect_str(v: &Value, what: &str) -> Result<String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| StorageError::TypeMismatch {
            expected: "string".to_string(),
            found: v.to_string(),
            context: what.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rules() -> RuleSet {
        RuleSet::from_rules([
            // R5-like: if 0101 <= Class <= 0103 then Type = SSBN.
            Rule::new(
                0,
                vec![Clause::between(
                    AttrId::new("CLASS", "Class"),
                    "0101",
                    "0103",
                )],
                Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
            )
            .with_subtype("SSBN")
            .with_support(3),
            // R8-like: numeric ranges.
            Rule::new(
                0,
                vec![Clause::between(
                    AttrId::new("CLASS", "Displacement"),
                    2145,
                    6955,
                )],
                Clause::equals(AttrId::new("CLASS", "Type"), "SSN"),
            )
            .with_subtype("SSN")
            .with_support(10),
            // Multi-clause premise.
            Rule::new(
                0,
                vec![
                    Clause::between(AttrId::new("EMP", "Age"), 18, 65),
                    Clause::equals(AttrId::new("EMP", "Position"), "ENGINEER"),
                ],
                Clause::between(AttrId::new("EMP", "Salary"), 50, 90),
            )
            .with_support(7),
        ])
    }

    #[test]
    fn round_trip_preserves_rules() {
        let rs = sample_rules();
        let encoded = encode(&rs).unwrap();
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded.len(), rs.len());
        for (a, b) in rs.iter().zip(decoded.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.lhs, b.lhs);
            assert_eq!(a.rhs, b.rhs);
            assert_eq!(a.support, b.support);
            assert_eq!(a.rhs_subtype, b.rhs_subtype);
        }
    }

    #[test]
    fn encoding_shape_matches_paper() {
        let rs = RuleSet::from_rules([Rule::new(
            0,
            vec![Clause::between(AttrId::new("R", "A"), 1, 2)],
            Clause::equals(AttrId::new("R", "B"), 10),
        )]);
        let enc = encode(&rs).unwrap();
        // Paper's example: two rows for a one-premise rule, roles L and R.
        assert_eq!(enc.rules.len(), 2);
        let roles: Vec<String> = enc
            .rules
            .iter()
            .map(|t| t.get(1).as_str().unwrap().to_string())
            .collect();
        assert_eq!(roles, vec!["L", "R"]);
        // A has boundary values {1, 2} coded 1.00, 2.00; B has {10} coded 1.00.
        assert_eq!(enc.value_map.len(), 3);
        // Consequence row has Lvalue = Uvalue (a point).
        let rrow = &enc.rules.tuples()[1];
        assert_eq!(rrow.get(2), rrow.get(4));
        assert_eq!(enc.attr_catalog.len(), 2);
    }

    #[test]
    fn open_range_rejected() {
        let rs = RuleSet::from_rules([Rule::new(
            0,
            vec![Clause {
                attr: AttrId::new("R", "A"),
                range: ValueRange::from_cmp(intensio_storage::expr::CmpOp::Gt, 5).unwrap(),
            }],
            Clause::equals(AttrId::new("R", "B"), 1),
        )]);
        assert!(encode(&rs).is_err());
    }

    #[test]
    fn decode_rejects_double_consequence() {
        let rs = RuleSet::from_rules([Rule::new(
            0,
            vec![Clause::between(AttrId::new("R", "A"), 1, 2)],
            Clause::equals(AttrId::new("R", "B"), 10),
        )]);
        let mut enc = encode(&rs).unwrap();
        // Duplicate the consequence row with role R.
        let row = enc.rules.tuples()[1].clone();
        enc.rules.insert(row).unwrap();
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn csv_relocation_round_trip() {
        // §5.2.2: "a database and its associated rule relations can be
        // relocated together" — rule relations survive CSV export/import.
        let rs = sample_rules();
        let enc = encode(&rs).unwrap();
        let csv = intensio_storage::csv::to_csv(&enc.rules);
        let back =
            intensio_storage::csv::from_csv("RULES", enc.rules.schema().clone(), &csv).unwrap();
        let rebuilt = RuleRelations {
            rules: back,
            value_map: enc.value_map.clone(),
            attr_catalog: enc.attr_catalog.clone(),
            meta: enc.meta.clone(),
        };
        let decoded = decode(&rebuilt).unwrap();
        assert_eq!(decoded.len(), rs.len());
    }
}
