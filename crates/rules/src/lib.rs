//! # intensio-rules
//!
//! Rule representation and storage for the intensional query processing
//! system of Chu & Lee (ICDE 1991):
//!
//! * [`range::ValueRange`] — interval algebra (containment, subsumption,
//!   intersection, merging) over typed values, the machinery behind
//!   forward/backward type inference;
//! * [`rule::Rule`] / [`rule::RuleSet`] — Horn rules whose clauses are
//!   attribute value ranges, with support counts and subtype labels;
//! * [`lookup::RuleLookup`] — a rule set keyed by attribute, so the
//!   inference processor reads only the rules a query's facts reach;
//! * [`encode`] — the §5.2.2 *rule relations* encoding, storing a rule
//!   set as ordinary relations `(RuleNo, Role, Lvalue, Att_no, Uvalue)`
//!   plus an attribute value mapping, so knowledge relocates with the
//!   database.
//!
//! ```
//! use intensio_rules::prelude::*;
//!
//! let rule = Rule::new(
//!     9,
//!     vec![Clause::between(AttrId::new("CLASS", "Displacement"), 7250, 30000)],
//!     Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
//! ).with_subtype("SSBN");
//! assert_eq!(
//!     rule.to_string(),
//!     "R9: if 7250 <= CLASS.Displacement <= 30000 then x isa SSBN"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod lookup;
pub mod range;
pub mod rule;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::encode::{decode, encode, RuleRelations};
    pub use crate::range::{Endpoint, ValueRange};
    pub use crate::rule::{AttrId, Clause, Rule, RuleSet};
}

pub use prelude::*;
