//! Incremental re-induction as the service runs it.
//!
//! Boot and the background inducer learn through one `IlsMemo`, so a
//! write re-induces only the attribute pairs whose relations it
//! touched. On the servebench-shaped fleet (6 types x 10 classes x 30
//! ships), one SUBMARINE append extends the two SUBMARINE pairs and
//! reuses the other fourteen: the INSTALL role join is left alone, as
//! the new ship has no INSTALL row. The installed rules are those a
//! from-scratch induction gives. The write's `rules_fresh_lag` — from
//! its acknowledgement to the install of rules induced from it — lands
//! in the `STATS` histograms.
//!
//! The tests read process-wide counters, so they run one at a time,
//! and this file is its own test binary.

mod support;

use intensio_induction::Ils;
use intensio_quel::Session;
use intensio_serve::{Request, Service, ServiceConfig};
use intensio_shipdb::synthetic::{generate, FleetConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn lag_count(service: &Service) -> u64 {
    service
        .stats()
        .metrics
        .histograms
        .get("rules_fresh_lag")
        .map_or(0, |h| h.count)
}

#[test]
fn one_submarine_append_extends_two_pairs_and_reuses_fourteen() {
    let _serial = serial();
    let fleet = generate(FleetConfig {
        seed: 1,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class: 30,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .unwrap();
    let model = fleet.ker_model();
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let induction = cfg.induction;
    let service = Service::with_config(fleet.db.clone(), model.clone(), cfg).unwrap();
    assert!(service.wait_rules_fresh(Duration::from_secs(10)));

    let script = "append to SUBMARINE (Id = \"S900001\", Name = \"added 1\", Class = \"0000\")";
    let (counters, lags) = (support::pair_counters(), lag_count(&service));
    assert!(service
        .submit(Request::Quel(script.to_string()))
        .query()
        .is_some());
    assert!(
        service.wait_rules_fresh(Duration::from_secs(10)),
        "re-induction never installed"
    );
    let after = support::pair_counters();
    let delta: Vec<u64> = (0..3).map(|i| after[i] - counters[i]).collect();
    assert_eq!(delta, [14, 2, 0], "pairs reused, extended, rebuilt");
    assert_eq!(lag_count(&service), lags + 1, "one write, one lag observed");

    // The installed rules are the from-scratch ones, pruned as the
    // install gate prunes them.
    let mut db = fleet.db;
    Session::new().run_script(&mut db, script).unwrap();
    let mut want = Ils::new(&model, induction).induce(&db).unwrap().rules;
    want.minimize();
    assert!(service.rules().identical(&want), "installed rules differ");
}
