//! The background inducer.
//!
//! * **Induction runs off the request path** on its own thread. It
//!   learns from a pinned snapshot and installs the new rule set only if
//!   the data version is unchanged — otherwise it simply goes around
//!   again.
//! * **Induction is incremental.** Boot and every re-induction learn
//!   through one [`IlsMemo`] (`Shared::ils_memo`), so a run re-induces
//!   only the attribute pairs whose relations a write touched; those
//!   pairs are spread over [`ServiceConfig::induction_threads`] workers.
//!   A run that fails or panics leaves the memo empty, and the next one
//!   learns every pair from scratch.
//! * **Induction self-heals.** A failed background re-induction retries
//!   with capped exponential backoff plus jitter (`induction_retries`),
//!   so a transient fault cannot strand the service at
//!   `rules_fresh = false` forever.

use super::{Barrier, ServiceConfig, Shared};
use crate::snapshot::Snapshot;
use intensio_induction::{Ils, IlsMemo};
use intensio_rules::rule::RuleSet;
use intensio_wal::record::Record;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Induce a candidate rule set from `snap`'s data, reusing what `memo`
/// kept of the previous run (the previous set itself, the same `Arc`,
/// when no pair's rules changed). Boot and the background inducer both
/// learn through here.
pub(super) fn induce(
    cfg: &ServiceConfig,
    snap: &Snapshot,
    memo: &Mutex<IlsMemo>,
) -> intensio_storage::error::Result<Arc<RuleSet>> {
    let mut memo = memo.lock().unwrap_or_else(|e| e.into_inner());
    Ils::new(snap.dictionary.model(), cfg.induction)
        .induce_memo(&snap.db, cfg.induction_threads, &mut memo)
        .map(|out| out.rules)
}

/// One attempt of the background inducer.
enum Induce {
    /// Rules were already fresh; nothing to do.
    Idle,
    /// A fresh rule set was installed.
    Installed,
    /// A write landed while learning; the rules describe old data.
    Raced,
    /// Induction failed (e.g. an injected fault); retry with backoff.
    Failed,
    /// The static-analysis gate found Error-level defects in the
    /// induced rules. Deterministic — re-inducing the same data yields
    /// the same rejection — so there is no retry; the service keeps its
    /// previous rules until the data changes again.
    Rejected,
}

fn induce_once(shared: &Shared) -> Induce {
    // Only a primary learns: follower rule sets arrive over the wire,
    // and a candidate must not fork the rule lineage pre-promotion.
    if !shared.is_primary() {
        return Induce::Idle;
    }
    let snap = shared.snapshot();
    if snap.rules_fresh {
        return Induce::Idle;
    }
    let Ok(candidate) = induce(&shared.cfg, &snap, &shared.ils_memo) else {
        return Induce::Failed;
    };
    // The gate prunes before the durable encode below: the WAL record
    // and the bytes shipped to followers carry the set actually served.
    let Some(rules) = shared.admit(candidate, &snap.db) else {
        return Induce::Rejected;
    };

    let _writer = shared.write_lock.lock().unwrap_or_else(|e| e.into_inner());
    let current = shared.snapshot();
    if current.data_version != snap.data_version {
        return Induce::Raced;
    }
    let mut dictionary = current.dictionary.clone();
    dictionary.set_shared_rules(rules);
    // An install may not advance the epoch without a WAL record — a
    // silent gap would make every later record unreplayable — so a set
    // that does not encode is not installed.
    let record = |next: &Snapshot| {
        let body = shared
            .gate
            .encode(next.dictionary.shared_rules())
            .inspect_err(|_| intensio_obs::inc("wal.unloggable_rulesets"))?;
        Ok(Record::rules(next.epoch, next.data_version, body).with_term(next.term))
    };
    // Counted before the install publishes the rules, so a reader that
    // sees them fresh also sees their induction; a failed commit
    // installs nothing and takes the count back.
    shared.counters.inductions.fetch_add(1, Ordering::Relaxed);
    if shared
        .commit(current.after_induction(dictionary), record, Barrier::Policy)
        .is_err()
    {
        shared.counters.inductions.fetch_sub(1, Ordering::Relaxed);
        return Induce::Failed;
    }
    Induce::Installed
}

/// The background induction loop: wake on write, learn from a pinned
/// snapshot, install only if the data did not move underneath. A failed
/// or panicking attempt self-heals: it retries with the capped,
/// jittered exponential backoff of [`intensio_fault::Backoff`] (the
/// same helper the follower reconnect loop uses) until induction
/// succeeds, so `rules_fresh` always recovers once the fault clears.
pub(super) fn inducer_loop(shared: &Shared) {
    let mut backoff = intensio_fault::Backoff::new(
        shared.cfg.induction_backoff,
        shared.cfg.induction_backoff_cap,
        0,
    );
    loop {
        if shared.induce.wait().shutdown {
            return;
        }
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| induce_once(shared)));
        match outcome {
            // Rejection is deterministic: retrying against unchanged
            // data cannot succeed, so wait for the next write instead.
            Ok(Induce::Idle) | Ok(Induce::Installed) | Ok(Induce::Rejected) => backoff.reset(),
            Ok(Induce::Raced) => {
                // Go around and learn against the newer data.
                backoff.reset();
                shared.induce.signal();
            }
            Ok(Induce::Failed) | Err(_) => {
                shared
                    .counters
                    .induction_retries
                    .fetch_add(1, Ordering::Relaxed);
                intensio_obs::inc("serve.induction_retries");
                if !shared.induce.retry_after(backoff.next_delay()) {
                    return;
                }
            }
        }
    }
}
