//! # intensio-storage
//!
//! An in-memory relational storage engine: the substrate beneath the
//! intensional query processing system of Chu & Lee, *"Using Type
//! Inference and Induced Rules to Provide Intensional Answers"* (ICDE
//! 1991). The paper's prototype ran on INGRES; this crate provides the
//! same relational semantics the prototype relied on — typed values,
//! constrained domains, relations with primary keys, selection,
//! projection, joins, `unique`, `sort by`, and deletion — as a
//! self-contained library.
//!
//! ## Quick tour
//!
//! ```
//! use intensio_storage::prelude::*;
//! use intensio_storage::tuple;
//!
//! let schema = Schema::new(vec![
//!     Attribute::key("Class", Domain::char_n(4)),
//!     Attribute::new("Type", Domain::char_n(4)),
//!     Attribute::new("Displacement", Domain::basic(ValueType::Int)),
//! ]).unwrap();
//! let mut class = Relation::new("CLASS", schema);
//! class.insert(tuple!["0101", "SSBN", 16600]).unwrap();
//! class.insert(tuple!["0215", "SSN", 2145]).unwrap();
//!
//! let heavy = ops::restrict(&class, "Displacement", CmpOp::Gt, 8000).unwrap();
//! assert_eq!(heavy.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The storage layer underpins durability: a panic here can tear a save
// half-done. Panicking escape hatches are lint-visible so every one
// needs an explicit, justified exemption.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod csv;
pub mod date;
pub mod domain;
pub mod error;
pub mod expr;
pub mod index;
pub mod ops;
pub mod persist;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::catalog::Database;
    pub use crate::date::Date;
    pub use crate::domain::{Bound, Domain, DomainConstraint};
    pub use crate::error::{Result, StorageError};
    pub use crate::expr::{ArithOp, AttrRef, CmpOp, Env, Expr};
    pub use crate::index::AttributeIndex;
    pub use crate::ops;
    pub use crate::ops::Aggregate;
    pub use crate::relation::Relation;
    pub use crate::schema::{Attribute, Schema, SchemaRef};
    pub use crate::tuple::Tuple;
    pub use crate::value::{Value, ValueKey, ValueRef, ValueType};
}

pub use prelude::*;
