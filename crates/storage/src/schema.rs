//! Relation schemas: named, typed, optionally key attributes.

use crate::domain::Domain;
use crate::error::{Result, StorageError};
use crate::value::ValueType;
use std::fmt;
use std::sync::Arc;

/// One attribute of a relation schema.
#[derive(Debug, Clone)]
pub struct Attribute {
    name: String,
    domain: Domain,
    key: bool,
}

impl Attribute {
    /// A non-key attribute.
    pub fn new(name: impl Into<String>, domain: Domain) -> Attribute {
        Attribute {
            name: name.into(),
            domain,
            key: false,
        }
    }

    /// A key attribute (`has key:` in KER).
    pub fn key(name: impl Into<String>, domain: Domain) -> Attribute {
        Attribute {
            name: name.into(),
            domain,
            key: true,
        }
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The attribute's basic value type.
    pub fn value_type(&self) -> ValueType {
        self.domain.base()
    }

    /// Whether this attribute participates in the primary key.
    pub fn is_key(&self) -> bool {
        self.key
    }
}

/// An ordered list of attributes with case-insensitive name lookup.
///
/// Attribute names in the paper appear in mixed case (`ShipId`, `SHIPID`,
/// `Id`); lookups are case-insensitive while the declared spelling is
/// preserved for display.
#[derive(Debug, Clone)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

/// A cheaply clonable shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema from attributes; names must be unique
    /// (case-insensitively).
    pub fn new(attrs: Vec<Attribute>) -> Result<Schema> {
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i]
                .iter()
                .any(|b| b.name.eq_ignore_ascii_case(&a.name))
            {
                return Err(StorageError::Invalid(format!(
                    "duplicate attribute name: {}",
                    a.name
                )));
            }
        }
        Ok(Schema { attrs })
    }

    /// The attributes, in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Position of an attribute by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        // A scan of a handful of names beats lowercasing the probe into
        // a fresh string for a hash lookup, on every attribute read.
        self.attrs
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Position of an attribute, or an error naming the relation.
    pub fn require(&self, relation: &str, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| StorageError::UnknownAttribute {
                relation: relation.to_string(),
                attribute: name.to_string(),
            })
    }

    /// The attribute at a position.
    pub fn attr(&self, idx: usize) -> &Attribute {
        &self.attrs[idx]
    }

    /// Positions of the key attributes, in declaration order.
    pub fn key_indices(&self) -> Vec<usize> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.key)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the schema declares any key attribute.
    pub fn has_key(&self) -> bool {
        self.attrs.iter().any(|a| a.key)
    }

    /// A schema with the given attributes projected out, preserving order
    /// of `indices`. Key flags are dropped (a projection loses keyness).
    // Infallible by construction: a subset of a valid schema's attributes
    // keeps names unique, so `Schema::new` cannot reject it.
    #[allow(clippy::expect_used)]
    pub fn project(&self, indices: &[usize]) -> Schema {
        let attrs = indices
            .iter()
            .map(|&i| {
                let a = &self.attrs[i];
                Attribute::new(a.name.clone(), a.domain.clone())
            })
            .collect();
        Schema::new(attrs).expect("projection of valid schema is valid")
    }

    /// Concatenate two schemas for a join result; colliding names are
    /// prefixed with the relation aliases.
    // Infallible by construction: colliding names are alias-prefixed
    // before `Schema::new` sees them.
    #[allow(clippy::expect_used)]
    pub fn join(&self, self_alias: &str, other: &Schema, other_alias: &str) -> Schema {
        let mut attrs = Vec::with_capacity(self.arity() + other.arity());
        for a in &self.attrs {
            let name = if other.index_of(&a.name).is_some() {
                format!("{self_alias}.{}", a.name)
            } else {
                a.name.clone()
            };
            attrs.push(Attribute::new(name, a.domain.clone()));
        }
        for a in &other.attrs {
            let name = if self.index_of(&a.name).is_some() {
                format!("{other_alias}.{}", a.name)
            } else {
                a.name.clone()
            };
            attrs.push(Attribute::new(name, a.domain.clone()));
        }
        Schema::new(attrs).expect("join schema names are disambiguated")
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if a.key {
                write!(f, "*")?;
            }
            write!(f, "{}: {}", a.name, a.domain.name())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn sample() -> Schema {
        Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Name", Domain::char_n(20)),
            Attribute::new("Class", Domain::char_n(4)),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Attribute::new("A", Domain::basic(ValueType::Int)),
            Attribute::new("a", Domain::basic(ValueType::Int)),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn key_indices() {
        let s = sample();
        assert_eq!(s.key_indices(), vec![0]);
        assert!(s.has_key());
    }

    #[test]
    fn projection_keeps_order() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.attr(0).name(), "Class");
        assert_eq!(p.attr(1).name(), "Id");
        assert!(!p.has_key());
    }

    #[test]
    fn join_disambiguates_collisions() {
        let a = sample();
        let b = Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new("Type", Domain::char_n(4)),
        ])
        .unwrap();
        let j = a.join("s", &b, "c");
        assert_eq!(j.arity(), 5);
        assert!(j.index_of("s.Class").is_some());
        assert!(j.index_of("c.Class").is_some());
        assert!(j.index_of("Type").is_some());
    }

    #[test]
    fn require_names_relation_in_error() {
        let s = sample();
        let err = s.require("SUBMARINE", "Draft").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown attribute Draft in relation SUBMARINE"
        );
    }
}
