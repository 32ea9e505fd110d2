//! Versioned, immutable knowledge snapshots.
//!
//! A [`Snapshot`] pins everything an answer depends on — the database
//! and the data dictionary (KER model + induced rules) — under a single
//! **epoch** number. Readers clone an `Arc<Snapshot>` and compute
//! against it without any further locking; writers build a *new*
//! snapshot (cheap, thanks to the storage layer's copy-on-write
//! catalog, whose tuples share their values across versions, and the
//! dictionary's shared model and rule set) and install it atomically. Two answers computed at the same
//! epoch are answers to the same knowledge state, which is what makes
//! `(condition fingerprint, epoch)` a sound cache key.
//!
//! The snapshot also carries the primary **term** under which it was
//! committed (see `intensio_wal`): answers computed at `(term, epoch)`
//! are answers on one authoritative lineage, so a failover that fences
//! the old term can never mix two primaries' knowledge states.

use intensio_core::DataDictionary;
use intensio_storage::catalog::Database;

/// One immutable knowledge state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotonic version of the *knowledge state*: bumped by every data
    /// mutation and by every rule-set install. Cache keys include it.
    pub epoch: u64,
    /// Monotonic version of the *data* alone. Background induction
    /// records the data version it learned from and only installs its
    /// rules if the data has not moved since.
    pub data_version: u64,
    /// The primary term this state was committed under. Bumped only by
    /// a failover promotion; writes inherit it unchanged.
    pub term: u64,
    /// The database at this epoch.
    pub db: Database,
    /// The dictionary (KER model + rule set) at this epoch.
    pub dictionary: DataDictionary,
    /// Whether the dictionary's rules were induced from exactly this
    /// data version. `false` between a write and the completion of the
    /// background re-induction it triggered; intensional answers served
    /// in that window are flagged so clients can tell.
    pub rules_fresh: bool,
}

impl Snapshot {
    /// A snapshot at an explicit epoch, data version, and term: the
    /// boot state (epoch 0 in memory; checkpoint state plus the replayed
    /// WAL suffix when durable), or a follower's next state.
    pub fn recovered(
        epoch: u64,
        data_version: u64,
        term: u64,
        db: Database,
        dictionary: DataDictionary,
        rules_fresh: bool,
    ) -> Snapshot {
        Snapshot {
            epoch,
            data_version,
            term,
            db,
            dictionary,
            rules_fresh,
        }
    }

    /// The successor snapshot after a data mutation: new database, same
    /// term, same (now possibly stale) rules.
    pub fn after_write(&self, db: Database) -> Snapshot {
        Snapshot {
            epoch: self.epoch + 1,
            data_version: self.data_version + 1,
            term: self.term,
            db,
            dictionary: self.dictionary.clone(),
            rules_fresh: false,
        }
    }

    /// The successor snapshot after installing a freshly induced rule
    /// set: same data, same term, new dictionary.
    pub fn after_induction(&self, dictionary: DataDictionary) -> Snapshot {
        Snapshot {
            epoch: self.epoch + 1,
            data_version: self.data_version,
            term: self.term,
            db: self.db.clone(),
            dictionary,
            rules_fresh: true,
        }
    }

    /// The successor snapshot after a failover promotion: same data and
    /// dictionary, new term. Consumes an epoch so the term bump ships
    /// through the ordinary exactly-once replication chain.
    pub fn after_term(&self, term: u64) -> Snapshot {
        Snapshot {
            epoch: self.epoch + 1,
            data_version: self.data_version,
            term,
            db: self.db.clone(),
            dictionary: self.dictionary.clone(),
            rules_fresh: self.rules_fresh,
        }
    }
}
