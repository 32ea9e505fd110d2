//! Tuples: ordered value lists conforming to a schema.

use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::value::{Value, ValueKey};
use std::fmt;
use std::sync::Arc;

/// A tuple (row) of values.
///
/// The values live in one shared allocation, so cloning a tuple (and
/// so a relation, on a copy-on-write write) copies a pointer, not the
/// row's strings. [`Tuple::get_mut`] copies the values first when
/// another clone still shares them.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into(),
        }
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at position `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Mutable access to the value at position `idx`. A tuple whose
    /// values another clone still shares gets its own copy first.
    pub fn get_mut(&mut self, idx: usize) -> &mut Value {
        if Arc::get_mut(&mut self.values).is_none() {
            self.values = self.values.iter().cloned().collect();
        }
        match Arc::get_mut(&mut self.values) {
            Some(values) => &mut values[idx],
            None => unreachable!("a freshly collected tuple is unshared"),
        }
    }

    /// Whether `other` is a clone of this tuple: the same shared
    /// values, not merely equal ones.
    pub fn shares_values(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consume the tuple, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }

    /// The value named `attr` under `schema`.
    pub fn value_by_name<'a>(&'a self, schema: &Schema, attr: &str) -> Option<&'a Value> {
        schema.index_of(attr).map(|i| self.get(i))
    }

    /// Validate the tuple against a schema: arity and per-attribute domain.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        if self.arity() != schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: schema.arity(),
                found: self.arity(),
            });
        }
        for (v, a) in self.values.iter().zip(schema.attributes()) {
            a.domain().check(a.name(), v)?;
        }
        Ok(())
    }

    /// The key of this tuple under `key_indices`, as hashable/orderable
    /// wrapper values.
    pub fn key(&self, key_indices: &[usize]) -> Vec<ValueKey> {
        key_indices
            .iter()
            .map(|&i| ValueKey(self.get(i).clone()))
            .collect()
    }

    /// Project the tuple onto the given positions.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.get(i).clone()).collect()
    }

    /// Concatenate two tuples (for join results).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Collect values straight into the tuple's shared allocation; an
/// iterator of known length (a mapped slice, say) is written in place,
/// with no intermediate `Vec`.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

/// Build a tuple from heterogeneous literals: `tuple!["SSBN730", "Rhode Island", 16600]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::{Attribute, Schema};
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Displacement", Domain::int_range("D", 0, 50000)),
        ])
        .unwrap()
    }

    #[test]
    fn check_validates_arity_and_domains() {
        let s = schema();
        assert!(tuple!["SSBN730", 16600].check(&s).is_ok());
        assert!(tuple!["SSBN730"].check(&s).is_err());
        assert!(tuple!["SSBN730", 99999].check(&s).is_err());
        assert!(tuple!["TOO-LONG-ID", 100].check(&s).is_err());
    }

    #[test]
    fn value_by_name() {
        let s = schema();
        let t = tuple!["SSN582", 2145];
        assert_eq!(t.value_by_name(&s, "displacement"), Some(&Value::Int(2145)));
        assert_eq!(t.value_by_name(&s, "nope"), None);
    }

    #[test]
    fn project_and_concat() {
        let t = tuple![1, 2, 3];
        assert_eq!(t.project(&[2, 0]), tuple![3, 1]);
        assert_eq!(t.concat(&tuple![4]), tuple![1, 2, 3, 4]);
    }

    #[test]
    fn key_extraction() {
        let t = tuple!["SSN582", 2145];
        let k = t.key(&[0]);
        assert_eq!(k.len(), 1);
        assert_eq!(k[0].0, Value::str("SSN582"));
    }

    #[test]
    fn get_mut_copies_only_a_shared_tuple() {
        let original = tuple!["SSN582", 2145];
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.values, &copy.values));
        *copy.get_mut(1) = Value::Int(1);
        assert_eq!(
            original,
            tuple!["SSN582", 2145],
            "the clone's edit stays its own"
        );
        assert_eq!(copy, tuple!["SSN582", 1]);
        let before = Arc::as_ptr(&copy.values);
        *copy.get_mut(0) = Value::str("SSN583");
        assert_eq!(
            Arc::as_ptr(&copy.values),
            before,
            "an unshared tuple edits in place"
        );
        assert_eq!(
            copy.into_values(),
            vec![Value::str("SSN583"), Value::Int(1)]
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, \"a\")");
        let _ = ValueType::Int; // silence unused import in some cfgs
    }
}
