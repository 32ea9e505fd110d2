//! Data-grounded subsumption reads each relation's cached secondary
//! index. A write makes the next snapshot's copy of the relation, whose
//! index must be rebuilt from the new rows, while the old snapshot keeps
//! answering from its own.
//!
//! The scenario is the paper's Example 1: `Displacement > 8000` fires
//! the rule `7250 <= Displacement <= 30000 ⇒ Type = SSBN` because every
//! stored displacement above 8000 lies in that range. Appending a class
//! of displacement 40000 breaks the premise for the new data only.
//!
//! Failpoints are process-global, so this file is its own test binary.

use intensio_core::IntensionalQueryProcessor;
use intensio_inference::{InferenceConfig, IntensionalAnswer};
use intensio_serve::{Reply, Request, Service, ServiceConfig};
use std::time::Duration;

const EXAMPLE1: &str = "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
     FROM SUBMARINE, CLASS \
     WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000";

const APPEND_HEAVY_CLASS: &str = "append to CLASS (Class = \"9901\", ClassName = \"Leviathan\", \
     Type = \"SSN\", Displacement = 40000)";

fn concludes_ssbn(answer: &IntensionalAnswer) -> bool {
    answer
        .certain
        .iter()
        .any(|f| f.value.render_bare() == "SSBN")
}

#[test]
fn a_miss_after_a_write_sees_the_appended_row() {
    let cfg = ServiceConfig {
        workers: 1,
        // The held-back re-induction retries rarely while the test runs.
        induction_backoff: Duration::from_secs(5),
        induction_backoff_cap: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let service = Service::with_config(
        intensio_shipdb::ship_database().unwrap(),
        intensio_shipdb::ship_model().unwrap(),
        cfg,
    )
    .unwrap();
    let before = match service.submit(Request::Sql(EXAMPLE1.to_string())) {
        Reply::Query(q) => q,
        other => panic!("query failed: {other:?}"),
    };
    assert!(
        concludes_ssbn(&before.intensional),
        "{:?}",
        before.intensional
    );

    // Keep the induced rules as they are, so the next epoch differs
    // from this one in its data alone.
    intensio_fault::configure("induction.run", "error").unwrap();
    let epoch = match service.submit(Request::Quel(APPEND_HEAVY_CLASS.to_string())) {
        Reply::Query(q) => q.epoch,
        other => panic!("append not acknowledged: {other:?}"),
    };
    assert!(epoch > before.epoch);
    let after = match service.submit_at(Request::Sql(EXAMPLE1.to_string()), Some(epoch)) {
        Reply::Query(q) => q,
        other => panic!("query failed: {other:?}"),
    };
    intensio_fault::clear();
    assert_eq!(after.epoch, epoch, "no rules were installed in between");
    assert!(!after.rules_fresh && !after.cached && !after.degraded);
    assert!(
        !concludes_ssbn(&after.intensional),
        "displacement 40000 lies outside the premise: {:?}",
        after.intensional
    );
    assert_eq!(
        after.rows(),
        before.rows(),
        "the new class has no submarines"
    );
}

#[test]
fn the_old_snapshot_still_answers_from_its_own_rows() {
    let mut iqp = IntensionalQueryProcessor::new(
        intensio_shipdb::ship_database().unwrap(),
        intensio_shipdb::ship_model().unwrap(),
    );
    iqp.learn().unwrap();
    let old = iqp.db().clone();
    let cfg = InferenceConfig::default();
    let dictionary = iqp.dictionary();
    let ask = |db| intensio_core::answer_intensional(db, dictionary, cfg, EXAMPLE1).unwrap();
    // Builds and caches the index the premise check reads.
    assert!(concludes_ssbn(&ask(&old)));

    // The write path's copy-on-write step: the new snapshot's CLASS
    // starts as a clone sharing the cached index, then mutates.
    let mut new = old.clone();
    intensio_quel::Session::new()
        .execute(&mut new, APPEND_HEAVY_CLASS)
        .unwrap();
    assert!(!new.shares_storage(&old, "CLASS"));
    assert!(!concludes_ssbn(&ask(&new)));
    assert!(
        concludes_ssbn(&ask(&old)),
        "the old snapshot never sees the row"
    );
}
