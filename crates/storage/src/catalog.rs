//! The database catalog: a named collection of relations.
//!
//! Relations are held behind [`Arc`] so that cloning a `Database` is a
//! **copy-on-write snapshot**: the clone shares every relation's tuple
//! storage with the original, and only a relation that is subsequently
//! mutated (through [`Database::get_mut`]) is copied; even then its rows
//! keep sharing their values ([`crate::tuple::Tuple`]). Long-lived
//! services lean on this — each query epoch pins an immutable snapshot
//! while the write path builds the next one, paying only for the
//! relations it actually touches.

use crate::error::{Result, StorageError};
use crate::relation::Relation;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory database: relations indexed by (case-insensitive) name.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Add a relation; fails if the name is taken.
    pub fn create(&mut self, rel: Relation) -> Result<()> {
        let key = Self::key(rel.name());
        if self.relations.contains_key(&key) {
            return Err(StorageError::DuplicateRelation(rel.name().to_string()));
        }
        self.relations.insert(key, Arc::new(rel));
        Ok(())
    }

    /// Add or replace a relation (used by `retrieve into` re-runs).
    pub fn create_or_replace(&mut self, rel: Relation) {
        self.relations.insert(Self::key(rel.name()), Arc::new(rel));
    }

    /// Remove a relation; returns it if present.
    pub fn drop(&mut self, name: &str) -> Option<Relation> {
        self.relations
            .remove(&Self::key(name))
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(&Self::key(name))
            .map(Arc::as_ref)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// A shared handle to a relation (no copy; shares storage with this
    /// catalog until either side mutates).
    pub fn get_shared(&self, name: &str) -> Result<Arc<Relation>> {
        self.relations
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Look up a relation mutably. If the relation is shared with a
    /// snapshot (a cloned `Database`), it is copied first (copy-on-write;
    /// rows are copied only when written), so snapshots never observe
    /// the mutation.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(&Self::key(name))
            .map(Arc::make_mut)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(&Self::key(name))
    }

    /// Declared relation names, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.values().map(|r| r.name()).collect()
    }

    /// Iterate over relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values().map(Arc::as_ref)
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the database holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total tuple count across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Whether `other` shares `name`'s physical storage with `self`
    /// (i.e. neither side has mutated the relation since the snapshot).
    pub fn shares_storage(&self, other: &Database, name: &str) -> bool {
        match (
            self.relations.get(&Self::key(name)),
            other.relations.get(&Self::key(name)),
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::schema::{Attribute, Schema};
    use crate::tuple;

    fn rel(name: &str) -> Relation {
        let schema = Schema::new(vec![Attribute::key("Id", Domain::char_n(7))]).unwrap();
        Relation::new(name, schema)
    }

    #[test]
    fn create_get_drop() {
        let mut db = Database::new();
        db.create(rel("SUBMARINE")).unwrap();
        assert!(db.get("submarine").is_ok(), "lookup is case-insensitive");
        assert!(db.contains("SUBMARINE"));
        assert!(db.create(rel("Submarine")).is_err(), "duplicate rejected");
        assert!(db.drop("SUBMARINE").is_some());
        assert!(db.get("SUBMARINE").is_err());
    }

    #[test]
    fn create_or_replace_overwrites() {
        let mut db = Database::new();
        let mut a = rel("S");
        a.insert(tuple!["X1"]).unwrap();
        db.create(a).unwrap();
        db.create_or_replace(rel("S"));
        assert_eq!(db.get("S").unwrap().len(), 0);
    }

    #[test]
    fn stats() {
        let mut db = Database::new();
        let mut a = rel("A");
        a.insert(tuple!["X1"]).unwrap();
        a.insert(tuple!["X2"]).unwrap();
        db.create(a).unwrap();
        db.create(rel("B")).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_tuples(), 2);
        assert_eq!(db.relation_names(), vec!["A", "B"]);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut db = Database::new();
        let mut a = rel("A");
        a.insert(tuple!["X1"]).unwrap();
        db.create(a).unwrap();
        db.create(rel("B")).unwrap();

        let snapshot = db.clone();
        assert!(db.shares_storage(&snapshot, "A"), "clone shares storage");
        assert!(db.shares_storage(&snapshot, "B"));

        // Mutating A through the original detaches only A.
        db.get_mut("A").unwrap().insert(tuple!["X2"]).unwrap();
        assert!(!db.shares_storage(&snapshot, "A"), "A detached on write");
        assert!(db.shares_storage(&snapshot, "B"), "B still shared");

        // The snapshot kept the pre-mutation contents.
        assert_eq!(snapshot.get("A").unwrap().len(), 1);
        assert_eq!(db.get("A").unwrap().len(), 2);
    }

    #[test]
    fn get_shared_pins_a_relation() {
        let mut db = Database::new();
        let mut a = rel("A");
        a.insert(tuple!["X1"]).unwrap();
        db.create(a).unwrap();
        let pinned = db.get_shared("A").unwrap();
        db.get_mut("A").unwrap().insert(tuple!["X2"]).unwrap();
        assert_eq!(pinned.len(), 1, "pin is immutable across writes");
        assert_eq!(db.get("A").unwrap().len(), 2);
        assert!(db.get_shared("MISSING").is_err());
    }
}
