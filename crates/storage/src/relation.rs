//! Relations: named collections of tuples over a schema.

use crate::error::{Result, StorageError};
use crate::index::AttributeIndex;
use crate::schema::{Schema, SchemaRef};
use crate::tuple::Tuple;
use crate::value::{Value, ValueKey, ValueRef};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, RwLock};

/// An in-memory relation (table).
///
/// Tuples preserve insertion order, matching the paper's QUEL prototype
/// where physical order is only changed by explicit `sort by`. If the
/// schema declares key attributes, key uniqueness is enforced on insert.
#[derive(Debug)]
pub struct Relation {
    name: String,
    schema: SchemaRef,
    tuples: Vec<Tuple>,
    key_indices: Vec<usize>,
    /// Key uniqueness, by row position: the hash of each distinct key
    /// maps to the first row holding it, and `key_spill` lists the rows
    /// whose key shares its hash with a different key. Positions, not
    /// key values, so copying a relation copies no key string.
    key_rows: HashMap<u64, usize>,
    key_spill: Vec<(u64, usize)>,
    /// Lazily built secondary indexes: attr (lowercase) -> index.
    /// Interior mutability lets read-only scans build and reuse
    /// indexes; the lock is uncontended in single-threaded use. Every
    /// mutation empties the cache, and a clone shares the built indexes
    /// (`Arc`), so a copy-on-write snapshot copies none of them.
    indexes: RwLock<HashMap<String, Arc<AttributeIndex>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            tuples: self.tuples.clone(),
            key_indices: self.key_indices.clone(),
            key_rows: self.key_rows.clone(),
            key_spill: self.key_spill.clone(),
            indexes: RwLock::new(
                self.indexes
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

impl Relation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Relation {
        Self::with_schema_ref(name, Arc::new(schema))
    }

    /// Create an empty relation sharing an existing schema handle.
    pub fn with_schema_ref(name: impl Into<String>, schema: SchemaRef) -> Relation {
        let key_indices = schema.key_indices();
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            key_indices,
            key_rows: HashMap::new(),
            key_spill: Vec::new(),
            indexes: RwLock::new(HashMap::new()),
        }
    }

    /// Drop the cached indexes after a mutation; the next lookup
    /// rebuilds the one it needs.
    fn touch(&mut self) {
        self.indexes
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (used by `retrieve into`).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A shared handle to the schema.
    pub fn schema_ref(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over tuples in physical order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The tuples as a slice.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Insert a tuple, validating schema conformance and key uniqueness.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        tuple.check(&self.schema)?;
        if !self.key_indices.is_empty() {
            let hash = self.key_hash(|i| tuple.get(i));
            if self.holds_key(hash, |i| tuple.get(i)) {
                return Err(StorageError::DuplicateKey {
                    relation: self.name.clone(),
                    key: format!("{}", tuple.project(&self.key_indices)),
                });
            }
            self.register_key(hash, self.tuples.len());
        }
        self.tuples.push(tuple);
        self.touch();
        Ok(())
    }

    /// Insert many tuples; stops at the first error.
    pub fn insert_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> Result<()> {
        for t in tuples {
            self.insert(t)?;
        }
        Ok(())
    }

    /// Insert without key/domain validation. For internal operators whose
    /// outputs are derived (projections lose keys, values already checked).
    pub(crate) fn push_unchecked(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
        self.touch();
    }

    /// Delete all tuples matching `pred`; returns the number removed.
    pub fn delete_where<F: FnMut(&Tuple) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.tuples.len();
        self.tuples.retain(|t| !pred(t));
        let removed = before - self.tuples.len();
        if removed > 0 {
            self.rebuild_keys();
            self.touch();
        }
        removed
    }

    /// Remove every tuple.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.key_rows.clear();
        self.key_spill.clear();
        self.touch();
    }

    /// Replace the relation's contents with `tuples`, validating each
    /// (used by updates that rewrite tuples in place). On error the
    /// relation is left empty of the failing suffix; callers treat the
    /// operation as transactional by cloning first.
    pub fn replace_all<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> Result<()> {
        self.clear();
        self.insert_all(tuples)
    }

    /// The hash of a key whose `i`-th key attribute (a schema
    /// position) reads `value(i)`, consistent with key equality: values
    /// equal under the total order hash alike.
    fn key_hash<'v>(&self, value: impl Fn(usize) -> &'v Value) -> u64 {
        let mut h = DefaultHasher::new();
        for &i in &self.key_indices {
            ValueRef(value(i)).hash(&mut h);
        }
        h.finish()
    }

    /// Whether row `pos` holds the key `value` reads.
    fn row_has_key<'v>(&self, pos: usize, value: &impl Fn(usize) -> &'v Value) -> bool {
        let row = &self.tuples[pos];
        self.key_indices
            .iter()
            .all(|&i| row.get(i).total_cmp(value(i)) == Ordering::Equal)
    }

    /// Whether a registered row holds the key `value` reads, whose hash
    /// is `hash`.
    fn holds_key<'v>(&self, hash: u64, value: impl Fn(usize) -> &'v Value) -> bool {
        self.key_rows
            .get(&hash)
            .is_some_and(|&p| self.row_has_key(p, &value))
            || self
                .key_spill
                .iter()
                .any(|&(h, p)| h == hash && self.row_has_key(p, &value))
    }

    /// Register row `pos`, whose key (hashing to `hash`) no registered
    /// row holds.
    fn register_key(&mut self, hash: u64, pos: usize) {
        match self.key_rows.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(pos);
            }
            Entry::Occupied(_) => self.key_spill.push((hash, pos)),
        }
    }

    /// Re-register every row's key after rows moved. A key held twice
    /// (only `push_unchecked` can do that) is registered once.
    fn rebuild_keys(&mut self) {
        self.key_rows.clear();
        self.key_spill.clear();
        if self.key_indices.is_empty() {
            return;
        }
        for pos in 0..self.tuples.len() {
            let row = &self.tuples[pos];
            let hash = self.key_hash(|i| row.get(i));
            if !self.holds_key(hash, |i| row.get(i)) {
                self.register_key(hash, pos);
            }
        }
    }

    /// Whether a tuple with the given key values exists.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        if self.key_indices.is_empty() || key.len() != self.key_indices.len() {
            return false;
        }
        // `value(i)` is asked for schema positions; map them back to
        // the probe's order.
        let at = |i: usize| {
            let k = self.key_indices.iter().position(|&j| j == i).unwrap_or(0);
            &key[k]
        };
        self.holds_key(self.key_hash(at), at)
    }

    /// Find the first tuple whose key attributes equal `key`.
    pub fn find_by_key(&self, key: &[Value]) -> Option<&Tuple> {
        if self.key_indices.len() != key.len() {
            return None;
        }
        self.tuples.iter().find(|t| {
            self.key_indices
                .iter()
                .zip(key)
                .all(|(&i, v)| t.get(i).sem_eq(v))
        })
    }

    /// Sort tuples in place by the listed attribute positions (ascending,
    /// using the total value order).
    pub fn sort_by_indices(&mut self, indices: &[usize]) {
        self.touch();
        self.tuples.sort_by(|a, b| {
            for &i in indices {
                let o = a.get(i).total_cmp(b.get(i));
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.rebuild_keys();
    }

    /// Sort tuples in place by attribute names.
    pub fn sort_by_names(&mut self, names: &[&str]) -> Result<()> {
        let mut indices = Vec::with_capacity(names.len());
        for n in names {
            indices.push(self.schema.require(&self.name, n)?);
        }
        self.sort_by_indices(&indices);
        Ok(())
    }

    /// Run `f` over the (lazily built, cached) secondary index on
    /// `attr`. The index is rebuilt when the relation has mutated since
    /// it was last built; until then every caller, and every clone of
    /// the relation, reads the same one.
    ///
    /// `f` runs outside the cache lock, so a panicking reader cannot
    /// poison it; a poisoned lock is recovered anyway — the cache holds
    /// only derived data (rebuildable from `tuples`), and one failed
    /// reader must not wedge every future query of a long-lived service.
    pub fn with_index<R>(&self, attr: &str, f: impl FnOnce(&AttributeIndex) -> R) -> Result<R> {
        let idx = self.schema.require(&self.name, attr)?;
        let key = attr.to_ascii_lowercase();
        let cached = self
            .indexes
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned();
        let index = match cached {
            Some(index) => index,
            None => {
                let built = Arc::new(AttributeIndex::over_rows(&self.tuples, idx));
                self.indexes
                    .write()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key, Arc::clone(&built));
                built
            }
        };
        Ok(f(&index))
    }

    /// Positions of tuples whose `attr` equals `v`, via the secondary
    /// index.
    pub fn index_lookup(&self, attr: &str, v: &Value) -> Result<Vec<usize>> {
        self.with_index(attr, |idx| idx.lookup(v).to_vec())
    }

    /// Positions of tuples whose `attr` lies within the bounds
    /// (`(value, inclusive)`), via the secondary index, in value order.
    pub fn index_range(
        &self,
        attr: &str,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Result<Vec<usize>> {
        self.with_index(attr, |idx| idx.range(lo, hi))
    }

    /// The distinct values of one attribute, sorted by the total order.
    pub fn distinct_values(&self, attr: &str) -> Result<Vec<Value>> {
        let idx = self.schema.require(&self.name, attr)?;
        let mut set: BTreeSet<ValueKey> = BTreeSet::new();
        for t in &self.tuples {
            set.insert(ValueKey(t.get(idx).clone()));
        }
        Ok(set.into_iter().map(|k| k.0).collect())
    }

    /// Column accessor: all values of one attribute in physical order.
    pub fn column(&self, attr: &str) -> Result<Vec<Value>> {
        let idx = self.schema.require(&self.name, attr)?;
        Ok(self.tuples.iter().map(|t| t.get(idx).clone()).collect())
    }

    /// Render as an ASCII table in the style of the paper's example
    /// answers (header row, separator, data rows).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values().iter().map(|v| v.render_bare()).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line
        };
        let sep = {
            let mut line = String::from("+");
            for w in &widths {
                line.push_str(&"-".repeat(w + 2));
                line.push('+');
            }
            line
        };
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {}", self.name, self.schema)?;
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::Attribute;
    use crate::tuple;

    fn submarine() -> Relation {
        let schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Name", Domain::char_n(20)),
            Attribute::new("Class", Domain::char_n(4)),
        ])
        .unwrap();
        Relation::new("SUBMARINE", schema)
    }

    #[test]
    fn insert_and_len() {
        let mut r = submarine();
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
        r.insert(tuple!["SSN582", "Bonefish", "0215"]).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut r = submarine();
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
        let err = r.insert(tuple!["SSBN730", "Impostor", "0101"]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
    }

    #[test]
    fn delete_where_updates_key_set() {
        let mut r = submarine();
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
        let removed = r.delete_where(|t| t.get(0) == &Value::str("SSBN730"));
        assert_eq!(removed, 1);
        // Key is free again after delete.
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
    }

    #[test]
    fn keys_stay_unique_through_sorts_deletes_and_hash_twins() {
        use crate::value::ValueType;
        let schema = Schema::new(vec![
            Attribute::key("K", Domain::basic(ValueType::Int)),
            Attribute::new("V", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut r = Relation::new("T", schema);
        // 2^53 and 2^53 + 1 are distinct keys that hash alike.
        let big = 1i64 << 53;
        r.insert(tuple![big, 1]).unwrap();
        r.insert(tuple![big + 1, 2]).unwrap();
        assert!(r.insert(tuple![big + 1, 3]).is_err());
        assert!(r.contains_key(&[Value::Int(big)]));
        assert!(r.contains_key(&[Value::Int(big + 1)]));
        r.insert(tuple![5, 4]).unwrap();
        r.sort_by_indices(&[0]);
        assert!(r.insert(tuple![5, 9]).is_err());
        assert!(r.insert(tuple![big, 9]).is_err());
        assert_eq!(r.delete_where(|t| t.get(1) == &Value::Int(1)), 1);
        assert!(!r.contains_key(&[Value::Int(big)]));
        r.insert(tuple![big, 7]).unwrap();
        assert!(r.insert(tuple![big + 1, 7]).is_err());
        // A copy registers its own keys.
        let mut copy = r.clone();
        copy.insert(tuple![6, 0]).unwrap();
        assert!(!r.contains_key(&[Value::Int(6)]));
        assert!(r.clone().insert(tuple![6, 0]).is_ok());
    }

    #[test]
    fn a_composite_key_is_probed_in_key_order() {
        let schema = Schema::new(vec![
            Attribute::key("Ship", Domain::char_n(7)),
            Attribute::new("Note", Domain::char_n(8)),
            Attribute::key("Sonar", Domain::char_n(8)),
        ])
        .unwrap();
        let mut r = Relation::new("INSTALL", schema);
        r.insert(tuple!["SSN582", "a", "BQQ-2"]).unwrap();
        r.insert(tuple!["SSN582", "b", "BQS-04"]).unwrap();
        assert!(r.insert(tuple!["SSN582", "c", "BQQ-2"]).is_err());
        assert!(r.contains_key(&[Value::str("SSN582"), Value::str("BQS-04")]));
        assert!(!r.contains_key(&[Value::str("BQS-04"), Value::str("SSN582")]));
        assert!(!r.contains_key(&[Value::str("SSN582")]));
    }

    #[test]
    fn find_by_key() {
        let mut r = submarine();
        r.insert(tuple!["SSN582", "Bonefish", "0215"]).unwrap();
        let t = r.find_by_key(&[Value::str("SSN582")]).unwrap();
        assert_eq!(t.get(1), &Value::str("Bonefish"));
        assert!(r.find_by_key(&[Value::str("NOPE")]).is_none());
    }

    #[test]
    fn sort_and_distinct() {
        let mut r = submarine();
        r.insert(tuple!["SSN592", "Snook", "0209"]).unwrap();
        r.insert(tuple!["SSBN130", "Typhoon", "1301"]).unwrap();
        r.insert(tuple!["SSN582", "Bonefish", "0209"]).unwrap();
        r.sort_by_names(&["Id"]).unwrap();
        assert_eq!(r.tuples()[0].get(0), &Value::str("SSBN130"));
        let classes = r.distinct_values("Class").unwrap();
        assert_eq!(classes, vec![Value::str("0209"), Value::str("1301")]);
    }

    #[test]
    fn table_rendering_contains_headers_and_rows() {
        let mut r = submarine();
        r.insert(tuple!["SSN582", "Bonefish", "0215"]).unwrap();
        let table = r.to_table();
        assert!(table.contains("| Id "));
        assert!(table.contains("Bonefish"));
    }

    #[test]
    fn arity_violation_rejected() {
        let mut r = submarine();
        assert!(r.insert(tuple!["only-one"]).is_err());
    }

    #[test]
    fn index_cache_recovers_from_poisoned_lock() {
        let mut r = submarine();
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
        r.insert(tuple!["SSN582", "Bonefish", "0215"]).unwrap();
        // A reader panics inside the index closure.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = r.with_index("Class", |_| panic!("reader died"));
        }));
        assert!(poisoned.is_err());
        // Later readers must still get correct answers.
        let hits = r.index_lookup("Class", &Value::str("0215")).unwrap();
        assert_eq!(hits, vec![1]);
        let range = r
            .index_range("Class", Some((&Value::str("0000"), true)), None)
            .unwrap();
        assert_eq!(range.len(), 2);
    }

    #[test]
    fn index_cache_survives_concurrent_poisoning_hammer() {
        let mut r = submarine();
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
        r.insert(tuple!["SSN582", "Bonefish", "0215"]).unwrap();
        r.insert(tuple!["SSN592", "Snook", "0209"]).unwrap();
        let r = &r;
        // Panicking threads repeatedly kill readers inside the index
        // closure while reader threads hammer lookups; every answer
        // must stay correct throughout — poisoning is invisible.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..50 {
                        let dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let _ = r.with_index("Class", |_| panic!("reader died"));
                        }));
                        assert!(dead.is_err());
                    }
                });
            }
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..200 {
                        let hits = r.index_lookup("Class", &Value::str("0215")).unwrap();
                        assert_eq!(hits, vec![1]);
                        let range = r
                            .index_range("Class", Some((&Value::str("0000"), true)), None)
                            .unwrap();
                        assert_eq!(range.len(), 3);
                    }
                });
            }
        });
        // And the cache still answers correctly after the storm.
        let hits = r.index_lookup("Class", &Value::str("0101")).unwrap();
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn clone_shares_cached_indexes_until_a_side_mutates() {
        let mut r = submarine();
        r.insert(tuple!["SSBN730", "Rhode Island", "0101"]).unwrap();
        let addr = |rel: &Relation| {
            rel.with_index("Class", |idx| idx as *const AttributeIndex as usize)
                .unwrap()
        };
        let original = addr(&r);
        let mut copy = r.clone();
        assert_eq!(addr(&copy), original, "a clone reuses the built index");
        copy.insert(tuple!["SSN582", "Bonefish", "0215"]).unwrap();
        assert_eq!(
            copy.index_lookup("Class", &Value::str("0215")).unwrap(),
            vec![1]
        );
        // The original keeps its own index and never sees the row.
        assert_eq!(addr(&r), original);
        assert!(r
            .index_lookup("Class", &Value::str("0215"))
            .unwrap()
            .is_empty());
    }
}
