//! # intensio-induction
//!
//! The Inductive Learning Subsystem (ILS) of Chu & Lee (ICDE 1991),
//! §3 and §5.2: machine learning over database contents, guided by the
//! database schema, producing the `if lo <= X <= hi then Y = y` rules
//! that type inference turns into intensional answers.
//!
//! * [`pairwise`] — the 4-step pairwise induction algorithm of §5.2.1;
//! * [`quel_impl`] — the same algorithm executed through the published
//!   QUEL statements (fidelity check);
//! * [`driver`] — the model-based ILS: schema-guided candidate selection,
//!   intra-object and inter-object (relationship-join) induction;
//! * [`tree`] — an ID3-style decision-tree learner ([QUIN79]), the
//!   general inductive technique §3.2 builds on;
//! * [`config`] — the pruning threshold `N_c` and the semantic knobs the
//!   paper leaves informal, exposed for ablation.
//!
//! ```
//! use intensio_induction::{Ils, InductionConfig};
//!
//! let db = intensio_shipdb::ship_database().unwrap();
//! let model = intensio_shipdb::ship_model().unwrap();
//! let ils = Ils::new(&model, InductionConfig::default());
//! let out = ils.induce(&db).unwrap();
//! assert!(!out.rules.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod constraints;
pub mod driver;
pub mod pairwise;
pub mod quel_impl;
pub mod tree;

pub use config::{InconsistencyPolicy, InductionConfig, RunScope, SupportMetric};
pub use constraints::InterObjectConstraint;
pub use driver::{Ils, IlsMemo, IlsOutput, IlsStats};
pub use pairwise::{induce_pair, induce_pair_ids, induce_pair_ids_with_stats, InducedRule};
pub use quel_impl::induce_pair_quel;
