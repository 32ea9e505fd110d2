//! Differential test of the inference processor.
//!
//! The engine reads the rules through their attribute lookup: forward
//! inference visits, in id order, only the unfired rules premised on an
//! attribute whose fact changed; backward inference reads only the
//! rules concluding on each point fact's attribute; facts are compared
//! by lookup key; the referential equivalences are cached on the model;
//! and the echo and duplicate filters work from keys, not texts.
//! [`infer_reference`] keeps the engine it replaced, which scanned
//! every rule on every pass and for every point fact. Every answer here
//! must be `Debug`-identical to the reference's, and every `SQL` and
//! `EXPLAIN` reply must encode to the bytes of the same reply carrying
//! the reference's answer.
//!
//! Inputs: the `sql_differential` generator's SELECTs; the servebench
//! read families (band, inner band, type ∧ displacement, two-type
//! band, class-code range) on the servebench-shaped fleet; Examples 1-3;
//! queries with `!=`, contradictory bounds, and contradictions reached
//! through a join; mixed-case spellings of relations in queries and of
//! attributes in rules (duplicated rules spelled in another case
//! included). Every `InferenceConfig` mode runs: data-grounded and
//! `PureInterval` subsumption, forward-only, backward-only and both.
//! Rule sets are also mutated by `push`, `prune_below`, `minimize` and
//! `extend` after their lookup was built.
//!
//! Each of these mutants of the new path fails this file:
//! - a lookup not reset on mutation;
//! - candidates visited in the order they became reachable instead of
//!   id order;
//! - conclusion keys compared case-sensitively.

#[path = "support/infer_reference.rs"]
mod infer_reference;
#[path = "support/sql_gen.rs"]
mod sql_gen;

use intensio::inference::{InferenceConfig, InferenceEngine, IntensionalAnswer, SubsumptionMode};
use intensio::ker::model::KerModel;
use intensio::prelude::{Ils, InductionConfig};
use intensio::rules::rule::{AttrId, Rule, RuleSet};
use intensio::serve::reply::Soundness;
use intensio::serve::{encode_reply, Reply, Request, Service};
use intensio::shipdb::{generate, ship_database, ship_model, Fleet, FleetConfig};
use intensio::sql::{analyze, parse};
use intensio::storage::prelude::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What the compared answers held, so a suite that only ever compares
/// empty answers fails rather than passes.
#[derive(Debug, Default)]
struct Tally {
    answers: usize,
    forward: usize,
    backward: usize,
    incomplete: usize,
    contradictions: usize,
    /// Answers whose forward pass fired a rule after one with a
    /// higher id.
    out_of_order: usize,
    replies: usize,
}

/// Every `InferenceConfig`.
fn configs() -> Vec<InferenceConfig> {
    let mut out = Vec::new();
    for subsumption in [SubsumptionMode::DataGrounded, SubsumptionMode::PureInterval] {
        for (forward_only, backward_only) in [(false, false), (true, false), (false, true)] {
            out.push(InferenceConfig {
                subsumption,
                forward_only,
                backward_only,
            });
        }
    }
    out
}

/// Infer `sql` with the engine and the reference under `cfg`; the
/// answers must match. `None` when the query does not analyze.
fn check(
    model: &KerModel,
    rules: &RuleSet,
    db: &Database,
    cfg: InferenceConfig,
    sql: &str,
    tally: &mut Tally,
) -> Option<IntensionalAnswer> {
    let analysis = analyze(db, &parse(sql).ok()?).ok()?;
    let got = InferenceEngine::new(model, rules, db, cfg)
        .unwrap()
        .infer(&analysis);
    let want = infer_reference::InferenceEngine::new(model, rules, db, cfg)
        .unwrap()
        .infer(&analysis);
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{sql}\nunder {cfg:?} over {} rules",
        rules.len()
    );
    tally.answers += 1;
    tally.forward += usize::from(!got.certain.is_empty());
    tally.backward += usize::from(!got.partial.is_empty());
    tally.incomplete += usize::from(got.partial.iter().any(|b| b.complete == Some(false)));
    tally.contradictions += usize::from(got.steps.iter().any(|s| s.starts_with("contradiction")));
    let fired: Vec<u32> = (got.certain.iter()).filter_map(|f| f.rule_id).collect();
    tally.out_of_order += usize::from(fired.windows(2).any(|w| w[0] > w[1]));
    Some(got)
}

/// `check` under every configuration.
fn check_all(model: &KerModel, rules: &RuleSet, db: &Database, sql: &str, tally: &mut Tally) {
    for cfg in configs() {
        check(model, rules, db, cfg, sql, tally);
    }
}

/// Send `sql` as `SQL` and as `EXPLAIN`: each reply must encode to the
/// bytes of the same reply carrying the reference's answer.
fn check_replies(service: &Service, db: &Database, model: &KerModel, sql: &str, tally: &mut Tally) {
    let rules = service.rules();
    let want = || {
        let analysis = analyze(db, &parse(sql).ok()?).ok()?;
        let engine =
            infer_reference::InferenceEngine::new(model, &rules, db, InferenceConfig::default())
                .unwrap();
        Some(Arc::new(engine.infer(&analysis)))
    };
    for request in [
        Request::Sql(sql.to_string()),
        Request::Explain(sql.to_string()),
    ] {
        let reply = service.submit(request);
        let mut expected = reply.clone();
        match (&mut expected, want()) {
            (Reply::Query(q), Some(answer)) => {
                q.soundness = Soundness::of(&answer);
                q.headline = answer.headline();
                q.intensional = answer;
            }
            (Reply::Explain(e), Some(answer)) => {
                e.soundness = Soundness::of(&answer);
                e.headline = answer.headline();
                e.intensional = answer;
            }
            _ => {}
        }
        assert_eq!(encode_reply(&reply), encode_reply(&expected), "{sql}");
        tally.replies += 1;
    }
}

/// `rules` with every attribute of every `k`th rule respelled in upper
/// or lower case, and every `k`th rule followed by a respelled copy.
fn respelled(rules: &RuleSet, k: usize) -> RuleSet {
    let spell = |a: &AttrId, i: usize| match i % 3 {
        0 => AttrId::new(
            a.object.to_ascii_lowercase(),
            a.attribute.to_ascii_uppercase(),
        ),
        1 => AttrId::new(
            a.object.to_ascii_uppercase(),
            a.attribute.to_ascii_lowercase(),
        ),
        _ => a.clone(),
    };
    let recase = |r: &Rule, i: usize| {
        let mut r = r.clone();
        for c in &mut r.lhs {
            c.attr = spell(&c.attr, i);
        }
        r.rhs.attr = spell(&r.rhs.attr, i + 1);
        r
    };
    let mut out = Vec::new();
    for (i, r) in rules.iter().enumerate() {
        out.push(if i % k == 0 { recase(r, i) } else { r.clone() });
        if i % k == 1 {
            out.push(recase(r, i + 1));
        }
    }
    RuleSet::from_rules(out)
}

/// The servebench fleet shape: six types of ten classes.
fn servebench_fleet(seed: u64, ships_per_class: usize) -> Fleet {
    generate(FleetConfig {
        seed,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .unwrap()
}

/// servebench's read families, plus contradictions, `!=` and mixed-case
/// spellings, over a fleet's ground-truth bands.
fn family_queries(fleet: &Fleet) -> Vec<String> {
    let select = "SELECT SUBMARINE.Id, SUBMARINE.Name, CLASS.Class, CLASS.Type \
                  FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class";
    let bands: Vec<(&String, &(i64, i64))> = fleet.type_band.iter().collect();
    let mut out = Vec::new();
    for (t, (code, &(lo, hi))) in bands.iter().enumerate() {
        let digits = &code[1..];
        let mut conds = vec![
            format!("CLASS.Type = '{code}'"),
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo - 1,
                hi + 1
            ),
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo + 1,
                hi - 1
            ),
            format!("CLASS.Type = '{code}' AND CLASS.Displacement <= {}", hi + 7),
            format!(
                "CLASS.Type = '{code}' AND CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo - 1,
                hi + 1
            ),
            format!("SUBMARINE.Class >= '{digits}00' AND SUBMARINE.Class <= '{digits}99'"),
            format!("SUBMARINE.Class = '{digits}01'"),
            format!("CLASS.Type != '{code}' AND CLASS.Displacement >= {lo}"),
            format!("CLASS.Displacement > {hi} AND CLASS.Displacement < {lo}"),
            format!("CLASS.Type = '{code}' AND CLASS.Type = 'none'"),
            format!("SUBMARINE.Class = '{digits}01' AND CLASS.Class = '{digits}02'"),
        ];
        if let Some((next, &(_, next_hi))) = bands.get(t + 1) {
            conds.push(format!(
                "CLASS.Displacement >= {lo} AND CLASS.Displacement <= {next_hi}"
            ));
            conds.push(format!("CLASS.Type = '{code}' AND CLASS.Type = '{next}'"));
        }
        for c in conds {
            out.push(format!("{select} AND {c}"));
        }
        out.push(format!(
            "select s.id from submarine s, Class where s.CLASS = class.class \
             and CLASS.displacement >= {} and class.DISPLACEMENT <= {}",
            lo - 1,
            hi + 1
        ));
        out.push(format!("SELECT Name FROM class WHERE type = '{code}'"));
    }
    // A sonar's rules conclude its type and its class type; the type's
    // rules, behind them in id order, fire on the next pass.
    let sonars = fleet.db.get("SONAR").unwrap();
    for t in sonars.iter().step_by(5) {
        out.push(format!(
            "SELECT INSTALL.Ship FROM INSTALL, SONAR WHERE INSTALL.Sonar = SONAR.Sonar \
             AND SONAR.Sonar = '{}'",
            t.get(0).render_bare()
        ));
    }
    out
}

/// The paper's Examples 1-3 and neighbours on the Appendix C ship
/// database.
const PAPER_QUERIES: [&str; 7] = [
    "SELECT SUBMARINE.ID FROM SUBMARINE, CLASS \
     WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
    "SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS \
     WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = \"SSBN\"",
    "SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS, INSTALL \
     WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP \
     AND INSTALL.SONAR = \"BQS-04\"",
    "SELECT submarine.name FROM submarine, class, install \
     WHERE submarine.class = class.class AND submarine.id = install.ship \
     AND install.sonar = 'BQS-04' AND class.type = 'SSN'",
    "SELECT Name FROM SUBMARINE WHERE Class = '0101' AND Class = '0102'",
    "SELECT Class FROM CLASS WHERE Type != 'SSBN' AND Displacement > 3000",
    "SELECT i.Ship FROM INSTALL i, SONAR WHERE i.Sonar = SONAR.Sonar \
     AND SONAR.SonarType = 'BQS'",
];

/// A rule set induced at `min_support` from `db`.
fn induced(model: &KerModel, db: &Database, min_support: usize) -> RuleSet {
    Ils::new(model, InductionConfig::with_min_support(min_support))
        .induce(db)
        .unwrap()
        .rules
}

/// The rule sets each query is inferred over: the served set, a larger
/// one, both respelled, and the served set mutated step by step after
/// each step's lookup was built — each step checked against `queries`.
fn rule_sets_and_mutations(
    model: &KerModel,
    db: &Database,
    served: &RuleSet,
    queries: &[String],
    tally: &mut Tally,
) {
    let wide = induced(model, db, 1);
    for rules in [
        served.clone(),
        respelled(served, 3),
        respelled(&wide, 4),
        wide.clone(),
    ] {
        for sql in queries {
            check_all(model, &rules, db, sql, tally);
        }
    }
    let mut rules = served.clone();
    let half = RuleSet::from_rules(wide.iter().skip(wide.len() / 2).cloned());
    let respelled_wide = respelled(&wide, 2);
    for what in [
        "push",
        "push respelled",
        "minimize",
        "prune_below",
        "extend",
    ] {
        // Build the lookup before the mutation.
        let _ = rules.lookup();
        match what {
            "push" => wide.iter().step_by(5).for_each(|r| {
                rules.push(r.clone());
            }),
            "push respelled" => {
                rules.push(respelled_wide.rules()[1].clone());
                rules.push(respelled_wide.rules()[0].clone());
            }
            "minimize" => {
                rules.minimize();
            }
            "prune_below" => {
                rules.prune_below(3);
            }
            _ => rules.extend(half.clone()),
        }
        for sql in queries {
            for cfg in configs() {
                check(model, &rules, db, cfg, sql, tally)
                    .unwrap_or_else(|| panic!("{what}: {sql} analyzes"));
            }
        }
    }
}

/// Generated SELECTs over `seeds`' small fleets, plus the families, as
/// answers and as replies.
fn generated_cases(seeds: std::ops::Range<u64>, per_seed: usize, ships_per_class: usize) -> Tally {
    let mut tally = Tally::default();
    for seed in seeds {
        let db = sql_gen::fleet_db(seed, ships_per_class);
        let fleet = generate(sql_gen::fleet_config(seed, ships_per_class)).unwrap();
        let model = fleet.ker_model();
        let service = Service::open(db.clone(), model.clone()).unwrap();
        let served = service.rules();
        let wide = induced(&model, &db, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..per_seed {
            let sql = sql_gen::random_query(&db, &mut rng);
            let rules = if rng.gen_bool(0.5) { &served } else { &wide };
            check_all(&model, rules, &db, &sql, &mut tally);
            check_replies(&service, &db, &model, &sql, &mut tally);
        }
        for sql in family_queries(&fleet) {
            check_all(&model, &respelled(&wide, 3), &db, &sql, &mut tally);
            check_replies(&service, &db, &model, &sql, &mut tally);
        }
    }
    tally
}

#[test]
fn generated_selects_infer_like_the_reference() {
    let tally = generated_cases(0..3, 40, 3);
    assert!(tally.forward * 10 >= tally.answers, "{tally:?}");
    assert!(tally.backward * 10 >= tally.answers, "{tally:?}");
}

#[test]
fn paper_examples_infer_like_the_reference() {
    let db = ship_database().unwrap();
    let model = ship_model().unwrap();
    let service = Service::open(db.clone(), model.clone()).unwrap();
    let queries: Vec<String> = PAPER_QUERIES.iter().map(|q| q.to_string()).collect();
    let mut tally = Tally::default();
    rule_sets_and_mutations(&model, &db, &induced(&model, &db, 3), &queries, &mut tally);
    for sql in &queries {
        check_replies(&service, &db, &model, sql, &mut tally);
    }
    assert!(
        tally.incomplete > 0 && tally.contradictions > 0,
        "{tally:?}"
    );
}

#[test]
fn servebench_families_infer_like_the_reference() {
    let fleet = servebench_fleet(1, 4);
    let model = fleet.ker_model();
    let service = Service::open(fleet.db.clone(), model.clone()).unwrap();
    let queries = family_queries(&fleet);
    let mut tally = Tally::default();
    rule_sets_and_mutations(&model, &fleet.db, &service.rules(), &queries, &mut tally);
    for sql in &queries {
        check_replies(&service, &fleet.db, &model, sql, &mut tally);
    }
    println!("{tally:?}");
    assert!(tally.forward * 4 >= tally.answers, "{tally:?}");
    assert!(tally.backward * 4 >= tally.answers, "{tally:?}");
    assert!(
        tally.contradictions > 0 && tally.out_of_order > 0,
        "{tally:?}"
    );
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_infers_like_the_reference() {
    let tally = generated_cases(100..120, 300, 5);
    println!("{tally:?}");
    for seed in 1..=3 {
        let fleet = servebench_fleet(seed, 30);
        let model = fleet.ker_model();
        let service = Service::open(fleet.db.clone(), model.clone()).unwrap();
        let queries = family_queries(&fleet);
        let mut tally = Tally::default();
        rule_sets_and_mutations(&model, &fleet.db, &service.rules(), &queries, &mut tally);
        for sql in &queries {
            check_replies(&service, &fleet.db, &model, sql, &mut tally);
        }
        println!("seed {seed}: {tally:?}");
    }
}
