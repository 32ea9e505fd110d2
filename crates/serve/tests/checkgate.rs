//! The static-analysis gate on the serve path.
//!
//! The `intensio-shipdb` conflict fixture induces two rules that
//! disagree about `G.Cat` over `V ∈ [3, 5]` (an `IC020` Error), so
//! these tests exercise the gate with *organically* bad knowledge, not
//! hand-built rule sets:
//!
//! 1. A rule set that fails the lint never installs — at open, or from
//!    background re-induction after a write.
//! 2. `CHECK` with no argument lints the *live* rules and, on Error,
//!    retroactively purges cached answers inferred from them: a stale
//!    cached answer derived from rejected knowledge must not be served
//!    again, even on the degraded fallback path.
//! 3. `CHECK <query>` lints without executing.
//! 4. Property: rule sets induced from a single relationship relation
//!    are structurally conflict-free and never trigger the gate.
//!
//! One test arms failpoints, which are process-global; every test
//! serializes on the same gate.

use intensio_check::{check_rules, RuleCheckConfig};
use intensio_induction::{Ils, InductionConfig};
use intensio_serve::{Reply, Request, Service, ServiceConfig};
use intensio_shipdb::{conflict_database, conflict_model};
use intensio_storage::catalog::Database;
use intensio_storage::domain::Domain;
use intensio_storage::relation::Relation;
use intensio_storage::schema::{Attribute, Schema};
use intensio_storage::tuple;
use intensio_storage::value::ValueType;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// One test at a time owns the global failpoint registry.
fn fault_gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    intensio_fault::clear();
    guard
}

fn conflict_service(tweak: impl FnOnce(&mut ServiceConfig)) -> Service {
    let db = conflict_database().unwrap();
    let model = conflict_model().unwrap();
    let mut cfg = ServiceConfig {
        workers: 2,
        induction_backoff: Duration::from_millis(10),
        induction_backoff_cap: Duration::from_millis(100),
        ..ServiceConfig::default()
    };
    tweak(&mut cfg);
    Service::with_config(db, model, cfg).unwrap()
}

#[test]
fn conflicting_rules_are_rejected_at_open_and_service_stays_up() {
    let _gate = fault_gate();
    let service = conflict_service(|_| {});

    let stats = service.stats();
    assert_eq!(stats.rulesets_rejected, 1, "open-time induction rejected");
    assert!(!stats.rules_fresh, "rejected rules must not read as fresh");
    // The gate is the one check an induced set gets; its findings feed
    // the lint counters STATS exports.
    let lint_errors = stats.metrics.counters.get("induction.lint_errors");
    assert!(
        lint_errors.is_some_and(|&n| n >= 1),
        "{:?}",
        stats.metrics.counters
    );

    // Extensional service is unaffected by the missing knowledge.
    match service.submit(Request::Sql("SELECT Gid FROM G".to_string())) {
        Reply::Query(q) => {
            assert_eq!(q.rows.len(), 2);
            assert!(!q.rules_fresh);
        }
        other => panic!("extensional query failed: {other:?}"),
    }
}

#[test]
fn background_reinduction_is_gated_after_a_write() {
    let _gate = fault_gate();
    let service = conflict_service(|cfg| cfg.learn_on_open = false);
    assert_eq!(service.stats().rulesets_rejected, 0);

    // A write marks the knowledge dirty; re-induction runs, conflicts,
    // and is rejected instead of installed.
    let reply = service.submit(Request::Quel(
        "append to E (Eid = \"E009\", V = 9)".to_string(),
    ));
    assert!(reply.query().is_some(), "the write itself succeeds");

    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().rulesets_rejected == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = service.stats();
    assert!(stats.rulesets_rejected >= 1, "gate never fired");
    assert!(!stats.rules_fresh, "a rejected set must not install");

    // Rejection is deterministic, not transient: no retry storm. Give
    // the inducer a beat and confirm the count settled.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(service.stats().rulesets_rejected, stats.rulesets_rejected);
}

#[test]
fn an_unchanged_rejected_set_is_rejected_again_not_installed() {
    let _gate = fault_gate();
    let service = conflict_service(|_| {});
    let reused = |s: &Service| {
        s.stats()
            .metrics
            .counters
            .get("induction.gate_reused")
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(service.stats().rulesets_rejected, 1, "rejected at open");
    let reused_before = reused(&service);
    let epoch = service.epoch();

    // E009 has no R1/R2 row, so re-induction reproduces the set the
    // gate rejected at open: its remembered verdict applies again.
    let reply = service.submit(Request::Quel(
        "append to E (Eid = \"E009\", V = 9)".to_string(),
    ));
    assert!(reply.query().is_some(), "the write itself succeeds");
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().rulesets_rejected < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = service.stats();
    assert_eq!(stats.rulesets_rejected, 2, "re-rejected");
    assert!(!stats.rules_fresh, "a rejected set must not install");
    assert!(service.rules().is_empty());
    assert_eq!(service.epoch(), epoch + 1, "only the write took an epoch");
    assert_eq!(
        reused(&service),
        reused_before + 1,
        "the verdict was reused"
    );
}

#[test]
fn check_verb_purges_stale_cached_answers_from_rejected_rules() {
    let _gate = fault_gate();
    // Gate off: the conflicting rules *install*, poisoning answers.
    let service = conflict_service(|cfg| {
        cfg.check_rulesets = false;
        cfg.stale_epochs = 8;
    });
    assert!(service.wait_rules_fresh(Duration::from_secs(5)));

    const Q: &str = "SELECT Gid FROM G WHERE Cat = \"A\"";
    let first = service.submit(Request::Sql(Q.to_string()));
    assert!(!first.query().unwrap().cached);
    let second = service.submit(Request::Sql(Q.to_string()));
    assert!(second.query().unwrap().cached, "same epoch: cache hit");

    // Move the epoch past the cached entry, then break fresh inference
    // so the degraded path reaches for the stale answer.
    let reply = service.submit(Request::Quel(
        "append to E (Eid = \"E009\", V = 9)".to_string(),
    ));
    assert!(reply.query().is_some());
    assert!(service.wait_rules_fresh(Duration::from_secs(5)));
    intensio_fault::configure_str("inference.engine=error").unwrap();

    // The hazard: a stale answer inferred from conflicting rules serves.
    match service.submit(Request::Sql(Q.to_string())) {
        Reply::Query(q) => {
            assert!(q.degraded && q.cached, "expected a stale cache hit");
        }
        other => panic!("expected degraded stale reply, got {other:?}"),
    }

    // CHECK lints the live rules, finds the conflict, and rejects
    // through the current epoch — purging every poisoned entry.
    let check = service.submit(Request::Check(String::new()));
    let c = check.check().expect("check reply");
    assert!(c.report.has_errors(), "live rules are conflicting");
    assert!(c.rejected, "error-level lint rejects the epoch");
    assert!(service.stats().rulesets_rejected >= 1);

    // Regression: the stale answer from rejected knowledge is gone. The
    // degraded fallback now serves extensional-only instead.
    match service.submit(Request::Sql(Q.to_string())) {
        Reply::Query(q) => {
            assert!(q.degraded, "inference is still broken");
            assert!(!q.cached, "rejected-epoch answers must not serve");
            assert!(q.intensional.is_empty(), "extensional-only fallback");
        }
        other => panic!("expected degraded reply, got {other:?}"),
    }
    intensio_fault::clear();
}

#[test]
fn check_verb_lints_queries_without_rejecting() {
    let _gate = fault_gate();
    let service = conflict_service(|_| {});
    let before = service.stats().rulesets_rejected;

    let reply = service.submit(Request::Check("SELECT Gid FROM NOSUCH".to_string()));
    let c = reply.check().expect("check reply");
    assert!(c.report.has_errors(), "unknown relation is an error");
    assert!(!c.rejected, "query lints never reject rule sets");
    assert_eq!(service.stats().rulesets_rejected, before);
}

#[test]
fn check_verb_is_clean_on_the_ship_database() {
    let _gate = fault_gate();
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    let service = Service::open(db, model).unwrap();
    assert!(service.wait_rules_fresh(Duration::from_secs(10)));

    let reply = service.submit(Request::Check(String::new()));
    let c = reply.check().expect("check reply");
    assert!(
        !c.report.has_errors(),
        "ship rules lint clean:\n{}",
        c.report.render_text()
    );
    assert!(!c.rejected);
    assert!(c.rules_fresh);
}

/// A database with one relationship relation mapping each entity to a
/// group chosen by `cats`. Induction over a single source partitions
/// the premise axis, so whatever rules come out can never conflict.
fn single_source_db(cats: &[usize]) -> Database {
    let mut db = Database::new();

    let g_schema = Schema::new(vec![
        Attribute::key("Gid", Domain::char_n(4)),
        Attribute::new("Cat", Domain::char_n(1)),
    ])
    .expect("static schema");
    let mut g = Relation::new("G", g_schema);
    g.insert(tuple!["G00A", "A"]).unwrap();
    g.insert(tuple!["G00B", "B"]).unwrap();
    db.create(g).unwrap();

    let e_schema = Schema::new(vec![
        Attribute::key("Eid", Domain::char_n(4)),
        Attribute::new("V", Domain::basic(ValueType::Int)),
    ])
    .expect("static schema");
    let mut e = Relation::new("E", e_schema);
    for v in 1..=cats.len() as i64 {
        e.insert(tuple![format!("E{v:03}"), v]).unwrap();
    }
    db.create(e).unwrap();

    let r_schema = Schema::new(vec![
        Attribute::key("Er", Domain::char_n(4)),
        Attribute::new("Gr", Domain::char_n(4)),
    ])
    .expect("static schema");
    let mut r1 = Relation::new("R1", r_schema);
    for (i, cat) in cats.iter().enumerate() {
        let gid = if *cat == 0 { "G00A" } else { "G00B" };
        r1.insert(tuple![format!("E{:03}", i + 1), gid]).unwrap();
    }
    db.create(r1).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever a single relationship relation teaches, the gate stays
    /// open: check-clean induction is the common case, and the install
    /// gate must never reject it.
    #[test]
    fn single_source_induction_never_triggers_the_gate(
        cats in prop::collection::vec(0usize..2, 1..9),
    ) {
        let _gate = fault_gate();
        let model = conflict_model().unwrap();
        let db = single_source_db(&cats);
        let cfg = InductionConfig::default();
        let rules = Ils::new(&model, cfg).induce(&db).unwrap().rules;
        let report = check_rules(
            &rules,
            Some(&db),
            &RuleCheckConfig { min_support: cfg.min_support },
        );
        prop_assert!(!report.has_errors(), "gate would reject:\n{}", report.render_text());
    }
}
