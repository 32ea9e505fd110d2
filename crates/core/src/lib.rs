//! # intensio-core
//!
//! The intensional query processing system of Chu & Lee (ICDE 1991),
//! §5/Figure 6, assembled from the substrate crates:
//!
//! * a **traditional query processor** (`intensio-sql` over
//!   `intensio-storage`) computing extensional answers;
//! * an **intelligent data dictionary** holding the KER schema (frames,
//!   `intensio-ker`) and semantic knowledge (induced rules,
//!   `intensio-rules`, persisted as rule relations);
//! * an **inductive learning subsystem** (`intensio-induction`)
//!   populating the dictionary from database contents;
//! * an **inference processor** (`intensio-inference`) deriving
//!   intensional answers by forward/backward type inference.
//!
//! ```
//! use intensio_core::IntensionalQueryProcessor;
//!
//! let db = intensio_shipdb::ship_database().unwrap();
//! let model = intensio_shipdb::ship_model().unwrap();
//! let mut iqp = IntensionalQueryProcessor::new(db, model);
//! iqp.learn().unwrap();
//!
//! let answer = iqp.query(
//!     "SELECT SUBMARINE.ID, CLASS.TYPE FROM SUBMARINE, CLASS \
//!      WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
//! ).unwrap();
//! assert_eq!(answer.extensional.len(), 2);
//! assert!(answer.intensional.render().contains("SSBN"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dictionary;
pub mod error;
pub mod processor;
pub mod summary;
pub mod workspace;

pub use dictionary::DataDictionary;
pub use error::IqpError;
pub use processor::{answer, answer_intensional, Answer, IntensionalQueryProcessor};
pub use summary::{summarize, summarize_selection, AnswerSummary, SummaryGroup, SummaryLevel};
pub use workspace::{load_workspace, save_workspace};
