//! Differential test of the install gate's memo.
//!
//! [`InstallGate`] reuses its last verdict, pruned set and WAL body
//! when a candidate rule set is identical (reals by bit pattern) to the
//! last one it checked, against the same catalog schemas. [`reference`]
//! is the gate without a memo: `check_rules`, `RuleSet::minimize` and
//! `rules_to_bytes` from scratch. At every step the memoized gate must
//! match it: the installed set (compared by `RuleSet::identical`), the
//! Warn/Error counts, the rules pruned, the rejection, and the WAL
//! body. A step reuses a verdict exactly when the reference predicts a
//! hit, and a reuse installs the very allocation the previous step did.
//!
//! Inputs: random QUEL append/delete/replace sequences over generated
//! fleets (seeds 1-3) and the Appendix C ship database, re-induced after
//! every write. Some steps decorate the induced set with a conflicting
//! rule (an IC020 rejection, often repeated), or with a rule bounded by
//! `0.0` or `-0.0`; some replace a relation by a copy under a fresh but
//! equal schema; some re-gate the previous candidate against a catalog
//! whose schema renames an attribute a rule reads. A second test runs
//! a durable service through random writes and compares each install,
//! every logged rule record and the four gate counters
//! (`rulesets_rejected`, `rules_pruned`, `induction.lint_warnings`,
//! `induction.lint_errors`) with the reference.
//!
//! Each of these mutants of the gate fails this file:
//! - the memo key drops the catalog's schemas;
//! - the key compares reals with `==`;
//! - a hit re-prunes the candidate instead of reusing the pruned set;
//! - rejections are not remembered.

use intensio::check::{check_rules, RuleCheckConfig, Severity};
use intensio::prelude::*;
use intensio::quel::Session;
use intensio::serve::{InstallGate, Request, Service, ServiceConfig, Verdict};
use intensio::shipdb::{generate, ship_database, ship_model, FleetConfig};
use intensio::storage::schema::SchemaRef;
use intensio_wal::record::RecordKind;
use intensio_wal::rules_codec::rules_to_bytes;
use intensio_wal::{FsyncPolicy, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The tests read process-wide metrics; one runs at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const MIN_SUPPORT: usize = 3;

/// What the gate without a memo decides.
struct Expected {
    rules: Option<RuleSet>,
    warnings: usize,
    errors: usize,
    pruned: u64,
    body: Option<Vec<u8>>,
}

fn reference(candidate: &RuleSet, db: &Database) -> Expected {
    let cfg = RuleCheckConfig {
        min_support: MIN_SUPPORT,
    };
    let mut report = check_rules(candidate, Some(db), &cfg);
    report.sort();
    let warnings = report.count(Severity::Warn);
    let errors = report.count(Severity::Error);
    if errors > 0 {
        return Expected {
            rules: None,
            warnings,
            errors,
            pruned: 0,
            body: None,
        };
    }
    let mut rules = candidate.clone();
    let pruned = rules.minimize() as u64;
    let body = rules_to_bytes(&rules).ok();
    Expected {
        rules: Some(rules),
        warnings,
        errors,
        pruned,
        body,
    }
}

/// The memo key as the reference sees it: the candidate, plus each
/// relation's name and schema handle.
struct Key {
    candidate: RuleSet,
    catalog: Vec<(String, SchemaRef)>,
}

impl Key {
    fn of(candidate: &RuleSet, db: &Database) -> Key {
        Key {
            candidate: candidate.clone(),
            catalog: db
                .relations()
                .map(|r| (r.name().to_string(), r.schema_ref()))
                .collect(),
        }
    }

    fn same(&self, other: &Key) -> bool {
        self.candidate.identical(&other.candidate)
            && self.catalog.len() == other.catalog.len()
            && self
                .catalog
                .iter()
                .zip(&other.catalog)
                .all(|((a, s), (b, t))| a == b && Arc::ptr_eq(s, t))
    }
}

/// Running totals of the four gate counters.
#[derive(Debug, Default, PartialEq)]
struct Counters {
    rejected: u64,
    pruned: u64,
    warnings: u64,
    errors: u64,
}

impl Counters {
    fn add(&mut self, rejected: bool, pruned: u64, warnings: usize, errors: usize) {
        self.rejected += u64::from(rejected);
        self.pruned += pruned;
        self.warnings += warnings as u64;
        self.errors += errors as u64;
    }
}

fn assert_same_set(got: &RuleSet, want: &RuleSet, ctx: &str) {
    assert!(
        got.identical(want),
        "{ctx}: installed set differs\n got:\n{got}\nwant:\n{want}"
    );
}

/// A database to edit and the QUEL vocabulary for it.
struct Bed {
    name: &'static str,
    db: Database,
    model: KerModel,
    ids: Vec<String>,
    classes: Vec<String>,
    next_id: usize,
}

impl Bed {
    fn fleet(seed: u64, n_types: usize, classes: usize, ships: usize) -> Bed {
        let fleet = generate(FleetConfig {
            seed,
            n_types,
            classes_per_type: classes,
            ships_per_class: ships,
            sonars_per_family: 2,
            id_noise: 0.05,
            overlapping_bands: false,
        })
        .unwrap();
        Bed::over("fleet", fleet.db.clone(), fleet.ker_model())
    }

    fn appendix_c() -> Bed {
        Bed::over(
            "Appendix C",
            ship_database().unwrap(),
            ship_model().unwrap(),
        )
    }

    fn over(name: &'static str, db: Database, model: KerModel) -> Bed {
        let column = |rel: &str, attr: &str| -> Vec<String> {
            let mut vals: Vec<String> = db
                .get(rel)
                .unwrap()
                .column(attr)
                .unwrap()
                .iter()
                .map(|v| v.render_bare())
                .collect();
            vals.sort();
            vals.dedup();
            vals
        };
        Bed {
            name,
            ids: column("SUBMARINE", "Id"),
            classes: column("CLASS", "Class"),
            db,
            model,
            next_id: 0,
        }
    }

    /// A random write that succeeds and changes one row.
    fn write(&mut self, rng: &mut StdRng) -> String {
        let pick = |v: &[String], rng: &mut StdRng| v[rng.gen_range(0..v.len())].clone();
        match rng.gen_range(0..10) {
            0..=4 => {
                let id = format!("S9{:05}", self.next_id);
                self.next_id += 1;
                self.ids.push(id.clone());
                let class = pick(&self.classes, rng);
                format!(
                    "append to SUBMARINE (Id = \"{id}\", Name = \"added {}\", Class = \"{class}\")",
                    self.next_id
                )
            }
            5..=6 if self.ids.len() > 4 => {
                let i = rng.gen_range(0..self.ids.len());
                let id = self.ids.swap_remove(i);
                format!("range of s is SUBMARINE\ndelete s where s.Id = \"{id}\"")
            }
            _ => {
                let id = pick(&self.ids, rng);
                let class = pick(&self.classes, rng);
                format!(
                    "range of s is SUBMARINE\nreplace s (Class = \"{class}\") where s.Id = \"{id}\""
                )
            }
        }
    }

    fn apply(&mut self, script: &str) {
        Session::new()
            .run_script(&mut self.db, script)
            .unwrap_or_else(|e| panic!("{}: {script}: {e}", self.name));
    }

    fn induce(&self) -> RuleSet {
        let cfg = InductionConfig::with_min_support(MIN_SUPPORT);
        Ils::new(&self.model, cfg).induce(&self.db).unwrap().rules
    }
}

/// `rel` rebuilt under a fresh copy of its schema, `rename` renaming
/// one attribute on the way.
fn rebuilt(rel: &Relation, rename: Option<&str>) -> Relation {
    let attrs = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| match rename {
            Some(name) if a.name().eq_ignore_ascii_case(name) => {
                Attribute::new(format!("{}_renamed", a.name()), a.domain().clone())
            }
            _ => a.clone(),
        })
        .collect();
    let mut out = Relation::new(rel.name(), Schema::new(attrs).unwrap());
    out.insert_all(rel.iter().cloned()).unwrap();
    out
}

/// A rule no induced set holds: on a relation absent from the catalog
/// (an IC024 warning), bounded below by `low`.
fn real_bound_rule(low: f64) -> Rule {
    Rule::new(
        0,
        vec![Clause::between(
            AttrId::new("HULL", "Draft"),
            Value::Real(low),
            Value::Real(9.5),
        )],
        Clause::equals(AttrId::new("HULL", "Rating"), "A"),
    )
    .with_support(MIN_SUPPORT + 2)
}

/// A rule with `base`'s premise and a conclusion that contradicts it:
/// an IC020 conflict, so the set is rejected.
fn conflicting(base: &RuleSet) -> Option<Rule> {
    let r = base.rules().iter().find(|r| {
        r.rhs.range.lo.is_some()
            && r.rhs.range.lo == r.rhs.range.hi
            && matches!(
                r.rhs.range.lo.as_ref().map(|e| &e.value),
                Some(Value::Str(_))
            )
    })?;
    let Some(Value::Str(v)) = r.rhs.range.lo.as_ref().map(|e| &e.value) else {
        return None;
    };
    Some(
        Rule::new(
            0,
            r.lhs.clone(),
            Clause::equals(r.rhs.attr.clone(), format!("{v}~")),
        )
        .with_support(r.support),
    )
}

/// How many hits, rejections and rejected hits a gate run saw.
#[derive(Debug, Default)]
struct Tally {
    steps: usize,
    hits: usize,
    rejected: usize,
    rejected_hits: usize,
    regates: usize,
}

/// Gate one candidate through `gate` and the reference, and compare.
fn step(
    gate: &InstallGate,
    candidate: RuleSet,
    db: &Database,
    last: &mut Option<(Key, Verdict)>,
    tally: &mut Tally,
    ctx: &str,
) {
    let key = Key::of(&candidate, db);
    let want = reference(&candidate, db);
    let predicted_hit = last.as_ref().is_some_and(|(k, _)| k.same(&key));
    let got = gate.admit(candidate, db);
    assert_eq!(got.reused, predicted_hit, "{ctx}: reuse");
    assert_eq!(got.warnings, want.warnings, "{ctx}: warnings");
    assert_eq!(got.errors, want.errors, "{ctx}: errors");
    assert_eq!(got.pruned, want.pruned, "{ctx}: pruned");
    match (&got.rules, &want.rules) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            assert_same_set(g, w, ctx);
            let body = gate.encode(g).ok();
            assert_eq!(body, want.body, "{ctx}: WAL body");
        }
        (g, w) => panic!(
            "{ctx}: gate installs {}, reference {}",
            g.is_some(),
            w.is_some()
        ),
    }
    if got.reused {
        let (_, prev) = last.as_ref().unwrap();
        match (&got.rules, &prev.rules) {
            (Some(g), Some(p)) => assert!(Arc::ptr_eq(g, p), "{ctx}: a hit installs a new set"),
            (None, None) => {}
            _ => panic!("{ctx}: a hit changed the verdict"),
        }
    }
    tally.steps += 1;
    tally.hits += usize::from(got.reused);
    tally.rejected += usize::from(got.rules.is_none());
    tally.rejected_hits += usize::from(got.reused && got.rules.is_none());
    *last = Some((key, got));
}

/// A random edit sequence over `bed`, every candidate gated twice.
fn run_gate_sequence(mut bed: Bed, seed: u64, steps: usize) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let gate = InstallGate::new(true, MIN_SUPPORT);
    let mut last = None;
    let mut tally = Tally::default();
    // Decorations persist for a few steps, so decorated sets repeat.
    let mut conflict = false;
    let mut real: Option<f64> = None;
    for i in 0..steps {
        let ctx = format!("{} seed {seed} step {i}", bed.name);
        if rng.gen_bool(0.25) {
            conflict = !conflict;
        }
        if rng.gen_bool(0.3) {
            real = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(0.0),
                _ => Some(-0.0),
            };
        }
        match rng.gen_range(0..10) {
            // Re-gate the last candidate against a catalog whose schema
            // renames an attribute one of its rules reads.
            0 if last.is_some() => {
                let (key, _): &(Key, Verdict) = last.as_ref().unwrap();
                let candidate = key.candidate.clone();
                let attr = &candidate.rules()[0].lhs[0].attr;
                let mut db = bed.db.clone();
                if let Ok(rel) = bed.db.get(&attr.object) {
                    db.create_or_replace(rebuilt(rel, Some(&attr.attribute)));
                }
                step(
                    &gate,
                    candidate,
                    &db,
                    &mut last,
                    &mut tally,
                    &format!("{ctx} (re-gate)"),
                );
                tally.regates += 1;
                continue;
            }
            // The same data under a fresh, equal schema.
            1 => {
                let rel = bed.db.get("SUBMARINE").unwrap();
                let copy = rebuilt(rel, None);
                bed.db.create_or_replace(copy);
            }
            // No write: re-induce the same data.
            2 => {}
            _ => {
                let script = bed.write(&mut rng);
                bed.apply(&script);
            }
        }
        let mut candidate = bed.induce();
        if conflict {
            if let Some(rule) = conflicting(&candidate) {
                candidate.push(rule);
            }
        }
        if let Some(low) = real {
            candidate.push(real_bound_rule(low));
        }
        step(&gate, candidate, &bed.db, &mut last, &mut tally, &ctx);
    }
    tally
}

fn check_tally(t: &Tally, ctx: &str) {
    assert!(t.hits > 0, "{ctx}: no step reused a verdict: {t:?}");
    assert!(
        t.hits < t.steps,
        "{ctx}: every step reused a verdict: {t:?}"
    );
    assert!(t.rejected_hits > 0, "{ctx}: no rejection was reused: {t:?}");
    assert!(t.regates > 0, "{ctx}: no re-gate ran: {t:?}");
}

#[test]
fn memoized_gate_matches_a_fresh_gate_on_fleet_edit_sequences() {
    let _serial = serial();
    for seed in 1..=3 {
        let tally = run_gate_sequence(Bed::fleet(seed, 3, 4, 5), seed, 40);
        check_tally(&tally, &format!("fleet seed {seed}"));
    }
}

#[test]
fn memoized_gate_matches_a_fresh_gate_on_appendix_c_edit_sequences() {
    let _serial = serial();
    let tally = run_gate_sequence(Bed::appendix_c(), 7, 40);
    check_tally(&tally, "Appendix C");
}

#[test]
fn signed_zero_bounds_never_share_a_verdict() {
    let _serial = serial();
    let bed = Bed::appendix_c();
    let gate = InstallGate::new(true, MIN_SUPPORT);
    let mut last = None;
    let mut tally = Tally::default();
    for (i, low) in [0.0, -0.0, -0.0, 0.0].into_iter().enumerate() {
        let mut candidate = bed.induce();
        candidate.push(real_bound_rule(low));
        step(
            &gate,
            candidate,
            &bed.db,
            &mut last,
            &mut tally,
            &format!("bound {low:?} ({i})"),
        );
    }
    assert_eq!(tally.hits, 1, "{tally:?}");
}

/// Metric counters the gate emits, read from a service's STATS.
fn metric(service: &Service, name: &str) -> u64 {
    service
        .stats()
        .metrics
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// A durable service over `bed`'s data, driven through `writes` random
/// writes, against the reference gate over a mirror of the data.
fn run_service_sequence(mut bed: Bed, seed: u64, writes: usize) {
    let dir = std::env::temp_dir().join(format!(
        "intensio-gate-memo-{}-{seed}-{}",
        std::process::id(),
        bed.name.replace(' ', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        workers: 1,
        induction: InductionConfig::with_min_support(MIN_SUPPORT),
        induction_threads: 1,
        data_dir: Some(dir.clone()),
        wal: WalConfig {
            fsync: FsyncPolicy::Off,
            checkpoint_every: u64::MAX,
            ..WalConfig::default()
        },
        ..ServiceConfig::default()
    };
    let metrics = [
        "induction.lint_warnings",
        "induction.lint_errors",
        "induction.gate_reused",
    ];
    let service = Service::with_config(bed.db.clone(), bed.model.clone(), cfg).unwrap();
    // Counters are process-wide: the boot gate's share is read back
    // from the reference, the rest as deltas from here.
    let base: Vec<u64> = metrics.iter().map(|m| metric(&service, m)).collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut want = Counters::default();
    let mut bodies = Vec::new();
    let mut hits = 0u64;
    let mut last: Option<Key> = None;
    // Compare the service's installed set with the reference's; count
    // it and return its WAL body.
    let mut install = |bed: &Bed, service: &Service, want: &mut Counters, ctx: &str| {
        let candidate = bed.induce();
        let key = Key::of(&candidate, &bed.db);
        hits += u64::from(last.as_ref().is_some_and(|k| k.same(&key)));
        last = Some(key);
        let expected = reference(&candidate, &bed.db);
        want.add(
            expected.rules.is_none(),
            expected.pruned,
            expected.warnings,
            expected.errors,
        );
        let rules = expected.rules.expect("fleet rule sets pass the gate");
        assert_same_set(&service.rules(), &rules, ctx);
        expected.body.expect("fleet rule sets encode")
    };
    // The boot set is checkpointed, not logged, and its lint findings
    // land before `base` was read.
    let mut boot = Counters::default();
    install(&bed, &service, &mut boot, "boot");
    for i in 0..writes {
        let ctx = format!("{} seed {seed} write {i}", bed.name);
        let script = bed.write(&mut rng);
        let reply = service.submit(Request::Quel(script.clone()));
        assert!(reply.error().is_none(), "{ctx}: {script}: {reply:?}");
        bed.apply(&script);
        assert!(
            service.wait_rules_fresh(Duration::from_secs(60)),
            "{ctx}: no install"
        );
        bodies.push(install(&bed, &service, &mut want, &ctx));
    }

    let stats = service.stats();
    let deltas: Vec<u64> = metrics
        .iter()
        .zip(&base)
        .map(|(m, b)| metric(&service, m) - b)
        .collect();
    let got = Counters {
        rejected: stats.rulesets_rejected,
        pruned: stats.rules_pruned - boot.pruned,
        warnings: deltas[0],
        errors: deltas[1],
    };
    assert_eq!(got, want, "{}: gate counters", bed.name);
    assert_eq!(deltas[2], hits, "{}: gate reuses", bed.name);
    assert!(hits > 0, "{}: no install reused a verdict", bed.name);
    drop(service);

    let logged: Vec<Vec<u8>> = intensio_wal::recover(&dir)
        .unwrap()
        .records
        .into_iter()
        .filter(|r| r.kind == RecordKind::Rules)
        .map(|r| r.body)
        .collect();
    assert_eq!(logged.len(), bodies.len(), "{}: rule records", bed.name);
    for (i, (got, want)) in logged.iter().zip(&bodies).enumerate() {
        assert!(got == want, "{}: rule record {i} differs", bed.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_service_installs_and_logs_what_a_fresh_gate_would() {
    let _serial = serial();
    for seed in 1..=3 {
        run_service_sequence(Bed::fleet(seed, 3, 4, 5), seed, 8);
    }
    run_service_sequence(Bed::appendix_c(), 4, 8);
}

/// The long run: the servebench-shaped fleet (6 types x 10 classes x
/// 30 ships) and longer sequences.
#[test]
#[ignore]
fn long_edit_sequences_on_the_servebench_fleet() {
    let _serial = serial();
    for seed in 1..=3 {
        let tally = run_gate_sequence(Bed::fleet(seed, 6, 10, 30), seed, 150);
        check_tally(&tally, &format!("servebench fleet seed {seed}"));
        run_service_sequence(Bed::fleet(seed, 6, 10, 30), seed, 40);
    }
    for seed in 4..=6 {
        let tally = run_gate_sequence(Bed::appendix_c(), seed, 150);
        check_tally(&tally, &format!("Appendix C seed {seed}"));
    }
}
