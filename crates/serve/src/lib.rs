//! # intensio-serve
//!
//! A concurrent serving layer for the intensional query processor —
//! what the paper's single-user EQUEL/C prototype would need to answer
//! many users at once without re-deriving the same characterizations:
//!
//! * **Versioned knowledge snapshots** ([`snapshot`]): database +
//!   dictionary pinned under an epoch; readers never block.
//! * **An intensional-answer cache** ([`cache`]): LRU over
//!   `(condition fingerprint, epoch)`; a hit returns the identical
//!   answer object a miss computed.
//! * **A worker-pool service** ([`service`]): SQL and QUEL requests,
//!   serialized copy-on-write mutations, and background re-induction
//!   that atomically swaps in fresh rules. Its child modules hold
//!   request execution (`query`), boot, record replay and the
//!   checkpointer (`durability`), the inducer (`induction`),
//!   replication and failover (`replication`), and `STATS`/`TELEMETRY`
//!   with the peer poller (`telemetry`). Every epoch advance goes
//!   through one commit path.
//! * **Request and reply types** ([`reply`]).
//! * **A wire protocol and TCP server** ([`protocol`], [`server`],
//!   [`json`]): one request per line, one JSON response per request.
//! * **Fault tolerance** ([`service`] + [`intensio_fault`]): bounded
//!   admission with `BUSY` shedding, per-request deadlines that degrade
//!   the intensional side (stale cache → extensional-only, always
//!   flagged `degraded`), supervised worker restarts, and self-healing
//!   background induction with capped, jittered retry backoff.
//! * **A static-analysis gate** ([`gate`] + [`intensio_check`]):
//!   every induced rule set is linted before install; Error-level
//!   findings (conflicting rules, IC020) reject the set
//!   (`rulesets_rejected` in `STATS`). A re-induction that reproduces
//!   the last checked set reuses its verdict, prune and WAL encoding.
//!   The `CHECK` protocol verb lints the live rule set — retroactively
//!   purging cached answers inferred from rejected knowledge — or lints
//!   a query without executing it.
//!
//! ```
//! use intensio_serve::{Reply, Request, Service, ServiceConfig};
//!
//! let db = intensio_shipdb::ship_database().unwrap();
//! let model = intensio_shipdb::ship_model().unwrap();
//! let service = Service::open(db, model).unwrap();
//!
//! let reply = service.submit(Request::Sql(
//!     "SELECT Class FROM CLASS WHERE Displacement > 8000".to_string(),
//! ));
//! let q = reply.query().expect("query reply");
//! assert_eq!(q.rows.len(), 2);
//! assert!(!q.cached);
//! let again = service.submit(Request::Sql(
//!     "SELECT CLASS.CLASS FROM CLASS WHERE CLASS.DISPLACEMENT > 8000".to_string(),
//! ));
//! assert!(again.query().unwrap().cached, "same conditions: cache hit");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serve path must degrade, not die: panicking escape hatches are
// lint-visible so every one needs an explicit, justified exemption.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod gate;
pub mod json;
pub mod protocol;
pub mod reply;
pub mod server;
pub mod service;
pub mod snapshot;

pub use cache::AnswerCache;
pub use gate::{InstallGate, Verdict};
pub use protocol::{
    encode_reply, encode_reply_with_trace, escape_script, format_trace_prefix, parse_request,
    parse_traced, WireRequest,
};
pub use reply::{
    CheckReply, DurabilityStats, PeerTelemetry, ProfileNode, ProfileReply, QueryReply, ReplStats,
    Reply, Request, Soundness, StatsReply, TelemetryReply,
};
pub use server::{Client, Server};
pub use service::{ServeError, Service, ServiceConfig};
pub use snapshot::Snapshot;
