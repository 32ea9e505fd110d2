//! # intensio-ker
//!
//! The Knowledge-based Entity-Relationship (KER) data model of Chu & Lee
//! (ICDE 1991), §2 and Appendix A: object types built from `has`/`with`
//! (aggregation), `isa`/`contains` `with` (generalization with derivation
//! constraints), and `has-instance` (classification via relations in
//! `intensio-storage`).
//!
//! The crate provides:
//! * an AST and recursive-descent parser for the Appendix A BNF (tolerant
//!   of the Appendix B notational conventions, including role
//!   declarations in comments);
//! * a resolved [`model::KerModel`] with attribute inheritance, domain
//!   resolution, hierarchy traversal, and classifying-attribute
//!   detection;
//! * textual rendering in the style of the paper's Figures 1, 2, and 5.
//!
//! ```
//! use intensio_ker::model::KerModel;
//!
//! let m = KerModel::parse(r#"
//!     object type SUBMARINE
//!       has key: Id domain: char[7]
//!       has: ShipType domain: char[4]
//!     SUBMARINE contains SSBN, SSN
//!     SSBN isa SUBMARINE with ShipType = "SSBN"
//!     SSN isa SUBMARINE with ShipType = "SSN"
//! "#).unwrap();
//! assert!(m.is_subtype_of("SSBN", "SUBMARINE"));
//! assert_eq!(m.classifier_of("SUBMARINE").unwrap().attribute, "ShipType");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod classify;
pub mod equiv;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod render;

pub use ast::{
    AttrPath, AttributeDef, ClauseAst, ConsequenceAst, ConstraintAst, ContainsDef, DomainBase,
    DomainDef, DomainSpec, IsaDef, KerSchema, KerStatement, ObjectTypeDef, RoleDef,
};
pub use classify::classify_value;
pub use equiv::{Edge, Equivalences};
pub use lexer::KerError;
pub use model::{coerce_value, Classifier, KerModel, ModelError, ObjectType};
pub use parser::parse;
