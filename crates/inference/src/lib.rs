//! # intensio-inference
//!
//! The inference processor of Chu & Lee (ICDE 1991), §4: deriving
//! *intensional answers* — characterizations of a query's answer set —
//! by forward and backward type inference over induced rules and the
//! KER type hierarchy.
//!
//! * Forward inference (Modus Ponens) concludes facts that hold for
//!   **every** tuple of the answer: the characterization *contains* the
//!   extensional answer.
//! * Backward inference inverts rules whose consequence the query fixes,
//!   describing a *subset* of the answer, with an explicit completeness
//!   check (the paper's Example 2 caveat).
//! * [`schema_rules::rules_from_schema`] compiles the schema's `with`
//!   constraints into rules, giving the integrity-constraint-only
//!   baseline ([MOTR89]) the paper's conclusion compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod answer;
mod bits;
pub mod engine;
pub mod fingerprint;
pub mod optimizer;
pub mod quality;
pub mod schema_rules;

pub use absint::{AbstractState, AbstractValue, Saturation, Saturator};
pub use answer::{BackwardCharacterization, Direction, ForwardFact, IntensionalAnswer, RuleUse};
pub use engine::{InferenceConfig, InferenceEngine, SubsumptionMode};
pub use fingerprint::condition_fingerprint;
pub use optimizer::{optimize, Optimized};
pub use quality::{evaluate, AnswerQuality};
pub use schema_rules::rules_from_schema;
