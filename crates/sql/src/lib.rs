//! # intensio-sql
//!
//! The SQL front end of the intensional query processing system: the
//! paper's worked examples (§6) pose queries in SQL over the ship test
//! bed. This crate provides:
//!
//! * a parser for the `SELECT`/`FROM`/`WHERE [AND ...]`/`ORDER BY`
//!   subset those examples use (plus `DISTINCT`, `OR`, `NOT`, aliases);
//! * an executor that computes the *extensional* answer over row ids:
//!   restrictions become sorted row-id sets (through a relation's
//!   cached index when a conjunct allows), joins start from the entry
//!   admitting the fewest rows and probe the other entries' cached
//!   indexes, and the result is a [`Selection`] of row ids whose rows
//!   follow base-row positions in FROM order unless `ORDER BY` says
//!   otherwise; values are copied only when [`execute`] materializes
//!   it (see [`exec`]);
//! * [`explain`] — a rendering of the plan the executor runs;
//! * [`analyze`] — extraction of the query's restrictions and join
//!   structure, which the inference processor consumes to derive the
//!   *intensional* answer.
//!
//! ```
//! use intensio_sql::query;
//! use intensio_storage::prelude::*;
//! use intensio_storage::tuple;
//!
//! let mut db = Database::new();
//! let schema = Schema::new(vec![
//!     Attribute::key("Class", Domain::char_n(4)),
//!     Attribute::new("Displacement", Domain::basic(ValueType::Int)),
//! ]).unwrap();
//! let mut class = Relation::new("CLASS", schema);
//! class.insert(tuple!["0101", 16600]).unwrap();
//! class.insert(tuple!["0215", 2145]).unwrap();
//! db.create(class).unwrap();
//!
//! let r = query(&db, "SELECT Class FROM CLASS WHERE Displacement > 8000").unwrap();
//! assert_eq!(r.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod exec;
pub mod explain;
pub mod parser;

pub use analyze::{analyze, BoundAttr, JoinCond, QueryAnalysis, Restriction};
pub use ast::{SelectItem, SelectQuery, TableRef};
pub use exec::{execute, query, select, Selection, SqlError};
pub use explain::explain;
pub use parser::{parse, SqlParseError};
