//! Differential test of the inductive learning subsystem.
//!
//! The ILS induces each attribute pair by sorting its non-null
//! `(X, Y)` values, borrowed from the stored relations, and scanning
//! them once; a relationship's role join is held as row ids into the
//! entities, not as a copied relation. [`reference`] keeps what that
//! replaced: the `BTreeMap` pair kernel that cloned every value, the
//! materialized role join, the sequential driver over both, constraint
//! discovery over the materialized join, the rule encoder that
//! deduplicated boundary values by linear search, and `minimize` over
//! every pair of rules. Every output here
//! must match it: each pair's rules (every field, representation of
//! each value included, in order) and constructed count; each ILS
//! run's numbered rule set (Display, support, subtype label), its
//! `IlsStats`, or its error; each constraint list; the WAL bytes of
//! each rule set; each minimized set and its removal count.
//!
//! Inputs: seeded two-column relations (integers, reals, strings,
//! integer and real representations of one number in one column,
//! nulls, duplicate and inconsistent X values) under all eight
//! `InductionConfig` combinations with `N_c` from 1 to 5; seeded
//! databases with a relationship whose role references dangle, whose
//! hop-2 references miss their target, and whose integer keys are
//! referenced by reals; the servebench-shaped fleet for seeds 1-3; the
//! Appendix C ship database; the VISIT scenario; seeded rule sets whose
//! boundary values repeat in both representations; seeded rule sets
//! whose consequences repeat (equal clauses under different labels,
//! `0.0` and `-0.0`, NaN).
//!
//! The memoized driver, `Ils::induce_memo`, re-induces only what a write
//! touched. After every step of seeded write sequences — QUEL append,
//! delete and replace, `retrieve into` (create) and drop, a relation
//! re-created as it was or under a fresh schema, an entity losing its
//! key (an ILS error) — over the role-join databases above, Appendix C
//! and the servebench-shaped fleet (seeds 1-3), its output must equal
//! the reference from scratch, under all eight configurations, and so
//! must both wrappers; a memo switching configuration and model, and
//! runs failing on injected `induction.run` and `induction.pair`
//! faults, included. A failed run must leave its memo empty, or (for
//! `induction.run`, which fails before the memo is taken) as it was.
//! A run that hands back the previous run's rule set (the same `Arc`)
//! is held to the same comparison. Hand-made appends pin when it must:
//! exactly when no pair's kept rules changed — not after a support
//! bump, a run reaching `N_c`, a new inconsistency or a new X value
//! splitting a run.
//!
//! Each of these mutants of the new path fails this file:
//! - an unstable sort of the pairs;
//! - an X group represented by its last-seen value instead of its
//!   first-seen one;
//! - a hop-2 reference that misses its target dropping the joined row
//!   instead of reading NULL;
//! - appended rows merged at the lower bound of their `(X, Y)`;
//! - a remembered join reused after an entity gained rows although the
//!   join had a dangling reference (the new row can resolve it);
//! - a memo that remembers a relation's address instead of holding it,
//!   so a relation edited in place compares equal;
//! - a failed run that leaves the memo half updated: the new run's key
//!   over the old run's results (wrong rules on a later step even with
//!   the emptiness checks removed).
//!
//! Two more are covered elsewhere: a repeated entity key keeping its
//! first row instead of its last fails the `key_rows` unit test in the
//! driver (storage enforces keys, so no database reaches it here); a
//! majority tie broken toward the first maximal Y cannot change any
//! output, since a Y is kept only with a strict majority.

use intensio::induction::{
    induce_pair_ids_with_stats, IlsMemo, IlsOutput, IlsStats, InconsistencyPolicy, InducedRule,
    RunScope, SupportMetric,
};
use intensio::prelude::*;
use intensio::quel::Session;
use intensio::shipdb::schema::SHIP_SCHEMA_KER;
use intensio::shipdb::visit::{visit_database, visit_model};
use intensio::shipdb::{generate, ship_database, ship_model, FleetConfig};
use intensio::storage::domain::Domain;
use intensio::storage::error::StorageError;
use intensio::storage::expr::CmpOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Every combination of the three semantic knobs.
fn configs(min_support: usize) -> Vec<InductionConfig> {
    let mut out = Vec::new();
    for inconsistency in [
        InconsistencyPolicy::Remove,
        InconsistencyPolicy::MajorityVote,
    ] {
        for run_scope in [RunScope::FullObservedOrder, RunScope::RemainingOrder] {
            for support_metric in [SupportMetric::Instances, SupportMetric::DistinctValues] {
                out.push(InductionConfig {
                    min_support,
                    support_metric,
                    run_scope,
                    inconsistency,
                });
            }
        }
    }
    out
}

/// What the compared outputs held, so a corpus that only ever compares
/// empty rule lists fails rather than passes.
#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    with_rules: usize,
    with_violations: usize,
    /// Kept rules with a bound or conclusion written as an integral
    /// real: where the representative of a tie showed.
    integral_reals: usize,
}

impl Tally {
    fn count(&mut self, rules: &[InducedRule]) {
        self.cases += 1;
        self.with_rules += usize::from(!rules.is_empty());
        self.with_violations += usize::from(rules.iter().any(|r| r.violations > 0));
        let integral = |v: &Value| matches!(v, Value::Real(f) if f.fract() == 0.0);
        self.integral_reals += rules
            .iter()
            .filter(|r| integral(&r.lo) || integral(&r.hi) || integral(&r.y_value))
            .count();
    }

    fn check(&self) {
        assert!(self.with_rules * 2 >= self.cases, "{self:?}");
        assert!(self.with_violations > 0, "{self:?}");
        assert!(self.integral_reals > 0, "{self:?}");
    }
}

/// A seeded value `k` of the given kind: 0 integers, 1 reals (halves
/// between integers too), 2 strings, 3 the integer `k` written as an
/// `Int` or a `Real` at random.
fn value(kind: u8, k: i64, rng: &mut StdRng) -> Value {
    match kind {
        0 => Value::Int(k),
        1 if rng.gen_bool(0.3) => Value::Real(k as f64 + 0.5),
        1 => Value::Real(k as f64),
        2 => Value::str(format!("v{k:03}")),
        _ if rng.gen_bool(0.5) => Value::Int(k),
        _ => Value::Real(k as f64),
    }
}

fn domain(kind: u8) -> Domain {
    match kind {
        2 => Domain::basic(ValueType::Str),
        0 => Domain::basic(ValueType::Int),
        _ => Domain::basic(ValueType::Real),
    }
}

/// A seeded relation `R(X, Y)`: Y mostly follows runs of X, with noise
/// (inconsistent X values), repeats and nulls. Some relations have few
/// distinct X values and hundreds of rows, so their X groups are large.
fn pair_relation(rng: &mut StdRng) -> Relation {
    let (xk, yk) = (rng.gen_range(0..4u8), [2u8, 3, 0][rng.gen_range(0..3usize)]);
    let schema = Schema::new(vec![
        Attribute::new("X", domain(xk)),
        Attribute::new("Y", domain(yk)),
    ])
    .unwrap();
    let mut rel = Relation::new("R", schema);
    let rows = rng.gen_range(0..=400usize);
    let distinct_x = if rng.gen_bool(0.3) {
        rng.gen_range(1..=4i64)
    } else {
        rng.gen_range(1..=60i64)
    };
    let run = rng.gen_range(1..=8i64);
    let ys = rng.gen_range(1..=4i64);
    let noise = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
    let nulls = [0.0, 0.1][rng.gen_range(0..2usize)];
    for _ in 0..rows {
        let k = rng.gen_range(0..distinct_x);
        let y = if rng.gen_bool(noise) {
            rng.gen_range(0..ys)
        } else {
            (k / run) % ys
        };
        let x = if rng.gen_bool(nulls) {
            Value::Null
        } else {
            value(xk, k, rng)
        };
        let y = if rng.gen_bool(nulls) {
            Value::Null
        } else {
            value(yk, y, rng)
        };
        rel.insert(Tuple::new(vec![x, y])).unwrap();
    }
    rel
}

fn pair_relations(seeds: std::ops::Range<u64>) -> Tally {
    let mut tally = Tally::default();
    let (x_id, y_id) = (AttrId::new("R", "X"), AttrId::new("R", "Y"));
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let rel = pair_relation(&mut rng);
        for nc in 1..=5 {
            for cfg in configs(nc) {
                let got =
                    induce_pair_ids_with_stats(&rel, "X", x_id.clone(), "Y", y_id.clone(), &cfg)
                        .unwrap();
                let want = reference::induce_pair(&rel, "X", &x_id, "Y", &y_id, &cfg).unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}, {cfg:?}"
                );
                tally.count(&got.0);
            }
        }
    }
    tally
}

#[test]
fn seeded_pairs_induce_like_the_reference() {
    pair_relations(0..40).check();
}

/// Compare one ILS run with the reference: rule set (Display and
/// every field, each value's representation included), statistics, or
/// error.
fn assert_same_output<R: std::fmt::Display + std::fmt::Debug>(
    got: &intensio::storage::error::Result<IlsOutput<R>>,
    want: &intensio::storage::error::Result<(RuleSet, IlsStats)>,
    what: &str,
) {
    match (got, want) {
        (Ok(got), Ok((rules, stats))) => {
            assert_eq!(got.rules.to_string(), rules.to_string(), "{what}");
            assert_eq!(format!("{:?}", got.rules), format!("{rules:?}"), "{what}");
            assert_eq!(&got.stats, stats, "{what}");
        }
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
        _ => panic!(
            "{what}: {:?} vs reference {:?}",
            got.as_ref().map(|o| o.stats.clone()),
            want.as_ref().map(|o| o.1.clone())
        ),
    }
}

/// Run the ILS both ways (sequential and on two threads) and compare
/// with the reference: rule set, statistics, or error.
fn assert_same_ils(model: &KerModel, db: &Database, cfg: InductionConfig, what: &str) -> usize {
    let want = reference::induce(model, cfg, db);
    let ils = Ils::new(model, cfg);
    assert_same_output(&ils.induce(db), &want, &format!("{what} sequential"));
    assert_same_output(
        &ils.induce_parallel(db, 2),
        &want,
        &format!("{what} parallel"),
    );
    let constraints = ils.discover_relationship_constraints(db);
    let reference = reference::discover_constraints(model, cfg, db);
    assert_eq!(
        format!("{constraints:?}"),
        format!("{reference:?}"),
        "{what}"
    );
    if let Ok((rules, _)) = &want {
        assert_same_bytes(rules, what);
    }
    want.map(|(rules, _)| rules.len()).unwrap_or(0)
}

/// WAL bytes of a rule set, against the reference encoder.
fn assert_same_bytes(rules: &RuleSet, what: &str) {
    let got = intensio_wal::rules_codec::rules_to_bytes(rules);
    let want = reference::rules_to_bytes(rules);
    match (got, want) {
        (Ok(got), Ok(want)) => assert!(got == want, "{what}: rule bytes differ"),
        (Err(_), Err(_)) => {}
        (got, want) => panic!("{what}: {:?} vs reference {:?}", got.is_ok(), want.is_ok()),
    }
}

const JOIN_KER: &str = r#"
object type C
  has key: Cid domain: CHAR[4]
  has: Grade domain: CHAR[4]
  has: Size domain: REAL
object type A
  has key: Aid domain: CHAR[4]
  has: Weight domain: REAL
  has: Kind domain: CHAR[4]
  has: Ref domain: C
object type B
  has key: Bid domain: INTEGER
  has: Band domain: CHAR[4]
  has: Level domain: INTEGER
object type L
  has key: Lid domain: CHAR[6]
  has: Left domain: A
  has: Right domain: B
A contains A0, A1, A2
A0 isa A with Kind = "k0"
A1 isa A with Kind = "k1"
A2 isa A with Kind = "k2"
B contains B0, B1
B0 isa B with Band = "b0"
B1 isa B with Band = "b1"
C contains C0, C1
C0 isa C with Grade = "g0"
C1 isa C with Grade = "g1"
"#;

/// Relation `name` over `attrs`, its first attribute the key.
fn keyed(name: &str, attrs: Vec<(&str, Domain)>, rows: Vec<Vec<Value>>) -> Relation {
    let attrs = attrs
        .into_iter()
        .enumerate()
        .map(|(i, (a, d))| {
            if i == 0 {
                Attribute::key(a, d)
            } else {
                Attribute::new(a, d)
            }
        })
        .collect();
    let mut rel = Relation::new(name, Schema::new(attrs).unwrap());
    for row in rows {
        rel.insert(Tuple::new(row)).unwrap();
    }
    rel
}

/// A seeded database for [`JOIN_KER`]: `L` links `A` and `B`, `A`
/// references `C`. Some references dangle (the `L` row drops out of the
/// join) or miss (the `C` columns read NULL); `L.Right` holds `B`'s
/// integer keys as integers or reals.
fn join_database(rng: &mut StdRng) -> Database {
    let text = Domain::basic(ValueType::Str);
    let real = Domain::basic(ValueType::Real);
    let int = Domain::basic(ValueType::Int);
    let maybe = |v: Value, rng: &mut StdRng| if rng.gen_bool(0.08) { Value::Null } else { v };
    let (nc, na, nb) = (
        rng.gen_range(0..6i64),
        rng.gen_range(0..24i64),
        rng.gen_range(0..12i64),
    );
    let c_rows = (0..nc)
        .map(|i| {
            vec![
                Value::str(format!("c{i}")),
                maybe(Value::str(format!("g{}", i % 2)), rng),
                maybe(value(3, i / 2, rng), rng),
            ]
        })
        .collect();
    let a_rows = (0..na)
        .map(|i| {
            let kind = if rng.gen_bool(0.15) {
                rng.gen_range(0..3i64)
            } else {
                (i / 4) % 3
            };
            vec![
                Value::str(format!("a{i:02}")),
                maybe(value(3, i / 3, rng), rng),
                maybe(Value::str(format!("k{kind}")), rng),
                maybe(Value::str(format!("c{}", rng.gen_range(0..nc + 2))), rng),
            ]
        })
        .collect();
    let b_rows = (0..nb)
        .map(|i| {
            vec![
                Value::Int(i),
                maybe(Value::str(format!("b{}", (i / 3) % 2)), rng),
                maybe(Value::Int(rng.gen_range(0..5i64)), rng),
            ]
        })
        .collect();
    let l_rows = (0..rng.gen_range(0..80i64))
        .map(|i| {
            let b = rng.gen_range(0..nb + 2);
            vec![
                Value::str(format!("l{i:03}")),
                Value::str(format!("a{:02}", rng.gen_range(0..na + 3))),
                if rng.gen_bool(0.5) {
                    Value::Int(b)
                } else {
                    Value::Real(b as f64)
                },
            ]
        })
        .collect();
    let mut db = Database::new();
    let c_attrs = vec![
        ("Cid", text.clone()),
        ("Grade", text.clone()),
        ("Size", real.clone()),
    ];
    db.create(keyed("C", c_attrs, c_rows)).unwrap();
    let a_attrs = vec![
        ("Aid", text.clone()),
        ("Weight", real.clone()),
        ("Kind", text.clone()),
        ("Ref", text.clone()),
    ];
    db.create(keyed("A", a_attrs, a_rows)).unwrap();
    let b_attrs = vec![("Bid", int.clone()), ("Band", text.clone()), ("Level", int)];
    db.create(keyed("B", b_attrs, b_rows)).unwrap();
    let l_attrs = vec![("Lid", text.clone()), ("Left", text), ("Right", real)];
    db.create(keyed("L", l_attrs, l_rows)).unwrap();
    db
}

fn join_databases(seeds: std::ops::Range<u64>) {
    let model = KerModel::parse(JOIN_KER).unwrap();
    let mut induced = 0;
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = join_database(&mut rng);
        for cfg in configs(rng.gen_range(1..=3usize)) {
            induced += assert_same_ils(&model, &db, cfg, &format!("seed {seed}, {cfg:?}"));
        }
    }
    assert!(induced > 0);
}

#[test]
fn seeded_role_joins_induce_like_the_reference() {
    join_databases(0..60);
}

#[test]
fn role_join_errors_match_the_reference() {
    // Two roles over one entity: their columns collide.
    let ker = JOIN_KER.replace("has: Right domain: B", "has: Right domain: A");
    let model = KerModel::parse(&ker).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let db = join_database(&mut rng);
    let err = Ils::new(&model, InductionConfig::default()).induce(&db);
    assert!(err.is_err());
    assert_same_ils(&model, &db, InductionConfig::default(), "shared entity");

    // A hop target without a single-attribute key.
    let mut db = join_database(&mut rng);
    let c = db.drop("C").unwrap();
    let schema = Schema::new(
        c.schema()
            .attributes()
            .iter()
            .map(|a| Attribute::new(a.name(), a.domain().clone()))
            .collect(),
    )
    .unwrap();
    let mut unkeyed = Relation::new("C", schema);
    unkeyed.insert_all(c.iter().cloned()).unwrap();
    db.create(unkeyed).unwrap();
    let model = KerModel::parse(JOIN_KER).unwrap();
    assert!(Ils::new(&model, InductionConfig::default())
        .induce(&db)
        .is_err());
    assert_same_ils(&model, &db, InductionConfig::default(), "unkeyed hop");
}

#[test]
fn induced_fleets_match_the_reference() {
    for seed in 1..=3 {
        let fleet = generate(FleetConfig {
            seed,
            n_types: 6,
            classes_per_type: 10,
            ships_per_class: 30,
            sonars_per_family: 4,
            id_noise: 0.02,
            overlapping_bands: false,
        })
        .expect("fleet");
        let model = fleet.ker_model();
        let kept = assert_same_ils(
            &model,
            &fleet.db,
            InductionConfig::default(),
            &format!("fleet seed {seed}"),
        );
        assert!(kept > 400, "fleet seed {seed}: {kept} rules");
    }
}

#[test]
fn ship_database_matches_the_reference_under_every_config() {
    let db = ship_database().unwrap();
    let model = ship_model().unwrap();
    for nc in 1..=5 {
        for cfg in configs(nc) {
            assert_same_ils(&model, &db, cfg, &format!("ship db {cfg:?}"));
        }
    }
}

#[test]
fn visit_constraints_match_the_reference() {
    let model = visit_model().unwrap();
    let mut db = visit_database().unwrap();
    for nc in [1, 3, 12, 13] {
        assert_same_ils(&model, &db, InductionConfig::with_min_support(nc), "visit");
    }
    let constraints = Ils::new(&model, InductionConfig::with_min_support(3))
        .discover_relationship_constraints(&db)
        .unwrap();
    assert!(!constraints.is_empty());
    // A visit to a missing port drops out of the join.
    db.get_mut("VISIT")
        .unwrap()
        .insert(Tuple::new(vec![
            Value::str("V99999"),
            Value::str("SH004"),
            Value::str("P42"),
        ]))
        .unwrap();
    assert_same_ils(
        &model,
        &db,
        InductionConfig::with_min_support(3),
        "visit, dangling",
    );
}

/// Seeded rule sets over a few attributes whose boundary values repeat,
/// some as both `Int` and `Real`, some holding commas, quotes and
/// newlines; a few carry an open range.
fn random_rule_set(rng: &mut StdRng) -> RuleSet {
    fn clause(rng: &mut StdRng) -> Clause {
        let attrs = [
            ("E", "A", 3u8),
            ("E", "B", 2),
            ("F", "A", 0),
            ("F", "C", 1),
            ("F", "D,\"q\"", 4),
        ];
        let (object, attribute, kind) = attrs[rng.gen_range(0..attrs.len())];
        let lo = rng.gen_range(0..20i64);
        let hi = lo + rng.gen_range(0..6i64);
        // Kind 4: strings the CSV writer must quote.
        let mut value = |k: i64| match kind {
            4 => Value::str(format!("x,{k:02}\"\n")),
            _ => value(kind, k, rng),
        };
        let (lo, hi) = (value(lo), value(hi));
        let mut c = Clause::between(AttrId::new(object, attribute), lo.clone(), hi);
        if rng.gen_bool(0.01) {
            c.range = ValueRange::from_cmp(CmpOp::Ge, lo).unwrap();
        }
        c
    }
    let mut rules = RuleSet::new();
    for _ in 0..rng.gen_range(0..40usize) {
        let lhs = (0..rng.gen_range(1..=2usize))
            .map(|_| clause(rng))
            .collect();
        let mut rule = Rule::new(0, lhs, clause(rng)).with_support(rng.gen_range(0..50usize));
        if rng.gen_bool(0.3) {
            rule = rule.with_subtype(["S", "S,\"T\""][rng.gen_range(0..2usize)]);
        }
        rules.push(rule);
    }
    rules
}

#[test]
fn rule_bytes_match_the_reference_encoder() {
    for seed in 0..300 {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_same_bytes(&random_rule_set(&mut rng), &format!("seed {seed}"));
    }
}

/// Seeded rule sets whose consequences come from a small pool, so many
/// rules share one: equal clauses under different labels, `0.0` and
/// `-0.0`, a NaN point, `Int` and `Real` of one number; premises over
/// one or two attributes, often nested.
fn consequence_pool_rule_set(rng: &mut StdRng) -> RuleSet {
    let points = [
        Value::Int(1),
        Value::Real(1.0),
        Value::Real(0.0),
        Value::Real(-0.0),
        Value::Real(f64::NAN),
        Value::str("T1"),
    ];
    let mut rules = RuleSet::new();
    for _ in 0..rng.gen_range(0..60usize) {
        let lhs = (0..rng.gen_range(1..=2usize))
            .map(|_| {
                let attr = AttrId::new("E", ["A", "B"][rng.gen_range(0..2usize)]);
                let lo = rng.gen_range(0..6i64);
                Clause::between(attr, lo, lo + rng.gen_range(0..6i64))
            })
            .collect();
        let attr = AttrId::new("E", ["Y", "y"][usize::from(rng.gen_bool(0.1))]);
        let rhs = Clause::equals(attr, points[rng.gen_range(0..points.len())].clone());
        let mut rule = Rule::new(0, lhs, rhs);
        if let Some(label) = [None, Some("S"), Some("s")][rng.gen_range(0..3usize)] {
            rule = rule.with_subtype(label);
        }
        rules.push(rule);
    }
    rules
}

#[test]
fn minimized_rule_sets_match_the_reference() {
    let mut removed = 0;
    for seed in 0..300 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = consequence_pool_rule_set(&mut rng);
        let (want, want_removed) = reference::minimize(&rules);
        let mut got = rules.clone();
        assert_eq!(got.minimize(), want_removed, "seed {seed}");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}");
        removed += want_removed;
    }
    assert!(removed > 0);
}

/// QUEL text for a value, `None` for NULL (an `append` leaves the
/// attribute unassigned).
fn literal(v: &Value) -> Option<String> {
    match v {
        Value::Null | Value::Date(_) => None,
        Value::Int(i) => Some(i.to_string()),
        Value::Real(f) => Some(format!("{f:?}")),
        Value::Str(s) => Some(format!("\"{s}\"")),
    }
}

/// `v` in the other numeric representation (`Int(3)` and `Real(3.0)`).
fn flipped(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Real(i as f64),
        Value::Real(f) if f.fract() == 0.0 => Value::Int(f as i64),
        v => v,
    }
}

/// `rel` under a fresh schema: the same attributes, without keys when
/// `unkeyed`. The tuples are shared, not copied.
fn copy_of(rel: &Relation, unkeyed: bool) -> Relation {
    let attrs = rel
        .schema()
        .attributes()
        .iter()
        .map(|a| match unkeyed {
            true => Attribute::new(a.name(), a.domain().clone()),
            false => a.clone(),
        })
        .collect();
    let mut out = Relation::new(rel.name(), Schema::new(attrs).unwrap());
    out.insert_all(rel.iter().cloned()).unwrap();
    out
}

/// A database under a seeded sequence of writes, for the memoized
/// driver. Each write is one of: a QUEL `append` (values drawn from the
/// column, some in the other numeric representation, some keys
/// resolving a dangling reference), the same row inserted or a row
/// deleted through the catalog in place, `delete` or `replace` of a row, a
/// `replace` matching nothing, a `retrieve into` a new relation, a drop
/// of one, a relation dropped and re-created as it was or under a
/// fresh copy of its schema, and an entity replaced by an unkeyed copy
/// (an ILS error) until the next write restores it. The database is
/// edited in place and nothing else holds its relations, so only the
/// memo's handles force a copy on write.
struct Edits {
    what: String,
    model: KerModel,
    /// The model parsed again: equal, so the memo stays valid.
    same_model: KerModel,
    /// The model with one subtype derived from another value: the
    /// same pairs, other labels.
    other_model: KerModel,
    db: Database,
    base: Vec<String>,
    created: Vec<String>,
    broken: Option<Relation>,
    fresh: usize,
    rng: StdRng,
}

impl Edits {
    fn new(what: String, ker: &str, db: Database, seed: u64) -> Edits {
        // Relabel the last subtype: its derivation value gains a `~`.
        let mut lines: Vec<String> = ker.lines().map(str::to_string).collect();
        let last = lines
            .iter()
            .rposition(|l| l.contains(" isa ") && l.contains(" with ") && l.ends_with('"'))
            .expect("a subtype derived by value");
        let quote = lines[last].len() - 1;
        lines[last].insert(quote, '~');
        Edits {
            what,
            model: KerModel::parse(ker).unwrap(),
            same_model: KerModel::parse(ker).unwrap(),
            other_model: KerModel::parse(&lines.join("\n")).unwrap(),
            base: db.relations().map(|r| r.name().to_string()).collect(),
            db,
            created: Vec::new(),
            broken: None,
            fresh: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn run(&mut self, script: &str) -> String {
        match Session::new().run_script(&mut self.db, script) {
            Ok(_) => script.to_string(),
            Err(e) => format!("{script} (failed: {e})"),
        }
    }

    /// Apply one seeded write; returns what it did.
    fn write(&mut self) -> String {
        if let Some(rel) = self.broken.take() {
            let what = format!("restore {}", rel.name());
            self.db.create_or_replace(rel);
            return what;
        }
        let name = self.base[self.rng.gen_range(0..self.base.len())].clone();
        match self.rng.gen_range(0..100) {
            0..=29 => {
                let script = self.append(&name);
                self.run(&script)
            }
            // Through the catalog, not QUEL (whose script runs against
            // a copy): a relation nothing else holds is edited in
            // place, at the same address.
            30..=39 => {
                let row = Tuple::new(self.new_row(&name));
                let rel = self.db.get_mut(&name).unwrap();
                if self.rng.gen_bool(0.7) {
                    let what = format!("{name}: {row} inserted in place");
                    match rel.insert(row) {
                        Ok(()) => what,
                        Err(e) => format!("{what} (failed: {e})"),
                    }
                } else {
                    let at = self.rng.gen_range(0..rel.len().max(1));
                    let mut i = 0;
                    let n = rel.delete_where(|_| {
                        i += 1;
                        i == at + 1
                    });
                    format!("{name}: row {at} deleted in place ({n} removed)")
                }
            }
            40..=69 => {
                let rel = self.db.get(&name).unwrap().clone();
                let (Some(k), false) =
                    (rel.schema().key_indices().first().copied(), rel.is_empty())
                else {
                    return format!("{name}: nothing to edit");
                };
                let row = rel.tuples()[self.rng.gen_range(0..rel.len())].clone();
                let key = rel.schema().attributes()[k].name().to_string();
                let Some(at) = literal(row.get(k)) else {
                    return format!("{name}: a NULL key");
                };
                let at = match self.rng.gen_range(0..6) {
                    // A write that matches no row leaves every tuple as
                    // it was.
                    0 => {
                        literal(&self.fresh_key(rel.schema().attributes()[k].value_type())).unwrap()
                    }
                    _ => at,
                };
                let script = if self.rng.gen_bool(0.4) {
                    format!("range of r is {name}\ndelete r where r.{key} = {at}")
                } else {
                    let attrs = rel.schema().attributes();
                    let i = self.rng.gen_range(0..attrs.len());
                    let value = self.drawn(&rel, i);
                    let Some(value) = literal(&value).filter(|_| i != k) else {
                        return format!("{name}: no value to replace with");
                    };
                    let attr = attrs[i].name();
                    format!(
                        "range of r is {name}\nreplace r ({attr} = {value}) where r.{key} = {at}"
                    )
                };
                self.run(&script)
            }
            70..=77 => {
                let rel = self.db.get(&name).unwrap();
                let attrs = rel.schema().attributes();
                let targets: Vec<String> = attrs
                    .iter()
                    .filter(|_| self.rng.gen_bool(0.6))
                    .map(|a| format!("r.{}", a.name()))
                    .collect();
                if targets.len() < 2 {
                    return format!("{name}: too few columns to retrieve");
                }
                self.fresh += 1;
                let into = format!("T{}", self.fresh);
                self.created.push(into.clone());
                let script = format!(
                    "range of r is {name}\nretrieve into {into} ({})",
                    targets.join(", ")
                );
                self.run(&script)
            }
            78..=83 => match self.created.pop() {
                Some(t) => {
                    self.db.drop(&t);
                    format!("drop {t}")
                }
                None => format!("{name}: nothing to drop"),
            },
            84..=88 => {
                let copy = copy_of(self.db.get(&name).unwrap(), false);
                self.db.create_or_replace(copy);
                format!("{name} under a fresh schema")
            }
            89..=93 => {
                let rel = self.db.drop(&name).unwrap();
                self.db.create(rel).unwrap();
                format!("{name} dropped and re-created")
            }
            _ => {
                // An entity some relation's attribute refers to: a role
                // join over it needs its single key.
                let referenced = self.referencing(&name).next().is_some();
                let rel = self.db.get(&name).unwrap();
                if !referenced || rel.schema().key_indices().len() != 1 {
                    return format!("{name}: no join to break");
                }
                let unkeyed = copy_of(rel, true);
                self.broken = Some(self.db.drop(&name).unwrap());
                self.db.create(unkeyed).unwrap();
                format!("{name} without its key")
            }
        }
    }

    /// `(relation, attribute position)` of every column whose model
    /// domain is the entity `name`.
    fn referencing<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (String, usize)> + 'a {
        self.db.relations().flat_map(move |rel| {
            let ot = self.model.object_type(rel.name());
            rel.schema()
                .attributes()
                .iter()
                .enumerate()
                .filter(move |(_, a)| {
                    ot.and_then(|ot| {
                        ot.declared_attrs
                            .iter()
                            .find(|d| d.name().eq_ignore_ascii_case(a.name()))
                    })
                    .is_some_and(|d| d.domain().name().eq_ignore_ascii_case(name))
                })
                .map(move |(i, _)| (rel.name().to_string(), i))
        })
    }

    fn fresh_key(&mut self, ty: ValueType) -> Value {
        self.fresh += 1;
        match ty {
            ValueType::Int => Value::Int(9_000 + self.fresh as i64),
            ValueType::Real => Value::Real(9_000.0 + self.fresh as f64),
            _ => Value::str(format!("Z{:03}", self.fresh)),
        }
    }

    /// A value of column `i` drawn from a random row, sometimes in the
    /// other numeric representation, sometimes NULL.
    fn drawn(&mut self, rel: &Relation, i: usize) -> Value {
        if rel.is_empty() || self.rng.gen_bool(0.05) {
            return Value::Null;
        }
        let v = rel.tuples()[self.rng.gen_range(0..rel.len())]
            .get(i)
            .clone();
        let real = rel.schema().attributes()[i].value_type() == ValueType::Real;
        match real && self.rng.gen_bool(0.3) {
            true => flipped(v),
            false => v,
        }
    }

    /// A new row for `name`: a key that a dangling reference names, or
    /// a fresh one; every other value drawn from its column.
    fn new_row(&mut self, name: &str) -> Vec<Value> {
        let rel = self.db.get(name).unwrap().clone();
        let mut row = Vec::new();
        for (i, attr) in rel.schema().attributes().iter().enumerate() {
            let value = if attr.is_key() {
                let dangling: Vec<Value> = self
                    .referencing(name)
                    .flat_map(|(r, col)| {
                        let refs = self.db.get(&r).unwrap();
                        refs.iter()
                            .map(move |t| t.get(col).clone())
                            .collect::<Vec<_>>()
                    })
                    .filter(|v| !v.is_null() && !rel.contains_key(std::slice::from_ref(v)))
                    .collect();
                match dangling.is_empty() || self.rng.gen_bool(0.5) {
                    true => self.fresh_key(attr.value_type()),
                    false => dangling[self.rng.gen_range(0..dangling.len())].clone(),
                }
            } else {
                self.drawn(&rel, i)
            };
            row.push(value);
        }
        row
    }

    /// The QUEL `append` of a new row for `name`.
    fn append(&mut self, name: &str) -> String {
        let row = self.new_row(name);
        let schema = self.db.get(name).unwrap().schema_ref();
        let assigns: Vec<String> = schema
            .attributes()
            .iter()
            .zip(&row)
            .filter_map(|(attr, v)| Some(format!("{} = {}", attr.name(), literal(v)?)))
            .collect();
        format!("append to {name} ({})", assigns.join(", "))
    }
}

/// What the memoized runs of [`memo_sequence`] saw.
#[derive(Debug, Default)]
struct MemoTally {
    runs: usize,
    errors: usize,
    faults: usize,
    with_rules: usize,
    /// Runs that returned the rule set of their memo's previous run.
    reused: usize,
}

/// Run `steps` seeded writes over `ed`, and after every one compare
/// with [`reference::induce`] from scratch: one memoized run per
/// configuration of `configs`, each with its own memo; a roaming memo
/// whose configuration and model change now and then (always on a
/// write that breaks a join), and whose run sometimes fails on an
/// injected `induction.run` or `induction.pair` fault; and both
/// wrappers under the roaming configuration. A failed run must leave
/// its memo empty (`induction.pair`, or an ILS error) or as it was
/// (`induction.run`).
fn memo_sequence(mut ed: Edits, configs: &[InductionConfig], steps: usize) -> MemoTally {
    let mut tally = MemoTally::default();
    let mut memos: Vec<IlsMemo> = configs.iter().map(|_| IlsMemo::new()).collect();
    let mut last: Vec<Option<Arc<RuleSet>>> = configs.iter().map(|_| None).collect();
    let mut roaming = IlsMemo::new();
    let (mut roam_cfg, mut roam_model) = (0usize, 0usize);
    for step in 0..=steps {
        let what = match step {
            0 => "as generated".to_string(),
            _ => ed.write(),
        };
        let ctx = |extra: &str| format!("{} step {step} ({what}) {extra}", ed.what);
        let threads = 1 + step % 3;
        let mut wants = Vec::new();
        for ((cfg, memo), last) in configs.iter().zip(&mut memos).zip(&mut last) {
            let want = reference::induce(&ed.model, *cfg, &ed.db);
            let got = Ils::new(&ed.model, *cfg).induce_memo(&ed.db, threads, memo);
            assert_same_output(&got, &want, &ctx(&format!("{cfg:?}")));
            let now = got.as_ref().ok().map(|o| Arc::clone(&o.rules));
            let reused = last.as_ref().zip(now.as_ref());
            tally.reused += usize::from(reused.is_some_and(|(a, b)| Arc::ptr_eq(a, b)));
            *last = now;
            assert_eq!(
                memo.is_empty(),
                got.is_err(),
                "{}",
                ctx("memo after the run")
            );
            tally.runs += 1;
            tally.errors += usize::from(got.is_err());
            tally.with_rules += usize::from(got.is_ok_and(|o| !o.rules.is_empty()));
            wants.push(want);
        }

        // A fault often coincides with a new configuration: a run that
        // failed halfway must not leave its key over older results.
        let fault = ed.rng.gen_bool(0.15);
        let switch =
            ed.broken.is_some() || ed.rng.gen_bool(0.25) || (fault && ed.rng.gen_bool(0.5));
        if switch && configs.len() > 1 {
            roam_cfg = (roam_cfg + ed.rng.gen_range(1..configs.len())) % configs.len();
        }
        if ed.rng.gen_bool(0.15) {
            roam_model = ed.rng.gen_range(0..3usize);
        }
        let model = [&ed.model, &ed.same_model, &ed.other_model][roam_model];
        let cfg = configs[roam_cfg];
        let want = match roam_model {
            2 => reference::induce(model, cfg, &ed.db),
            _ => std::mem::replace(
                &mut wants[roam_cfg],
                Err(StorageError::Invalid(String::new())),
            ),
        };
        let ils = Ils::new(model, cfg);
        let ctx = ctx(&format!("roaming, model {roam_model}, {cfg:?}"));
        if fault {
            let fault = ["induction.run", "induction.pair"][ed.rng.gen_range(0..2usize)];
            let was_empty = roaming.is_empty();
            let armed = intensio::fault::scoped(fault, "error*1").unwrap();
            let got = ils.induce_memo(&ed.db, threads, &mut roaming);
            drop(armed);
            if let Err(e) = &got {
                if e.to_string().contains(fault) {
                    tally.faults += 1;
                    let expect_empty = fault == "induction.pair" || was_empty;
                    assert_eq!(roaming.is_empty(), expect_empty, "{ctx}: after {e}");
                } else {
                    assert_same_output(&got, &want, &ctx);
                }
            }
        }
        let got = ils.induce_memo(&ed.db, threads, &mut roaming);
        assert_same_output(&got, &want, &ctx);
        assert_eq!(
            roaming.is_empty(),
            got.is_err(),
            "{ctx}: memo after the run"
        );
        assert_same_output(&ils.induce(&ed.db), &want, &format!("{ctx} induce"));
        assert_same_output(
            &ils.induce_parallel(&ed.db, threads),
            &want,
            &format!("{ctx} induce_parallel"),
        );
    }
    tally
}

/// The servebench fleet shape (6 types x 10 classes x 30 ships) at
/// `seed`, or a smaller fleet of the same generator.
fn fleet_edits(seed: u64, classes: usize, ships: usize) -> Edits {
    let fleet = generate(FleetConfig {
        seed,
        n_types: 6,
        classes_per_type: classes,
        ships_per_class: ships,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .expect("fleet");
    Edits::new(
        format!("fleet {seed} ({classes}x{ships})"),
        &fleet.ker_source,
        fleet.db,
        seed,
    )
}

fn appendix_c_edits(seed: u64) -> Edits {
    Edits::new(
        "Appendix C".to_string(),
        SHIP_SCHEMA_KER,
        ship_database().unwrap(),
        seed,
    )
}

fn join_edits(seed: u64) -> Edits {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = join_database(&mut rng);
    Edits::new(format!("join db {seed}"), JOIN_KER, db, seed)
}

/// The counters of how runs came by their pairs.
fn pair_counters() -> [u64; 3] {
    let m = intensio::obs::metrics();
    ["reused", "extended", "rebuilt"].map(|k| m.counter(&format!("induction.pairs_{k}")))
}

#[test]
fn memoized_runs_match_the_reference_after_every_write() {
    let before = pair_counters();
    let mut tally = MemoTally::default();
    let mut add = |t: MemoTally| {
        tally.runs += t.runs;
        tally.errors += t.errors;
        tally.faults += t.faults;
        tally.with_rules += t.with_rules;
        tally.reused += t.reused;
    };
    for seed in 0..6 {
        add(memo_sequence(join_edits(seed), &configs(2), 25));
    }
    add(memo_sequence(appendix_c_edits(1), &configs(3), 25));
    add(memo_sequence(fleet_edits(1, 3, 6), &configs(3), 15));
    for seed in 1..=3 {
        let default = [InductionConfig::default()];
        add(memo_sequence(fleet_edits(seed, 10, 30), &default, 3));
    }
    assert!(tally.errors > 0 && tally.faults > 0, "{tally:?}");
    assert!(tally.with_rules * 2 > tally.runs, "{tally:?}");
    assert!(tally.reused > 0, "{tally:?}");
    let after = pair_counters();
    assert!(
        (0..3).all(|i| after[i] > before[i]),
        "pairs reused, extended, rebuilt: {before:?} -> {after:?}"
    );
}

/// One stored relation `T(X, Kind)` whose `Kind` classifies, so a run
/// has exactly one pair; `N_c` = 3.
const REUSE_KER: &str = r#"
object type T
  has: X domain: INTEGER
  has: Kind domain: CHAR[4]
T contains T0, T1
T0 isa T with Kind = "k0"
T1 isa T with Kind = "k1"
"#;

#[test]
fn appends_reuse_the_rule_set_exactly_when_no_rule_changes() {
    let model = KerModel::parse(REUSE_KER).unwrap();
    let cfg = InductionConfig::with_min_support(3);
    let row = |x: Option<i64>, kind: Option<&str>| {
        Tuple::new(vec![
            x.map_or(Value::Null, Value::Int),
            kind.map_or(Value::Null, Value::str),
        ])
    };
    let schema = Schema::new(vec![
        Attribute::new("X", Domain::basic(ValueType::Int)),
        Attribute::new("Kind", Domain::basic(ValueType::Str)),
    ])
    .unwrap();
    let mut t = Relation::new("T", schema);
    // Kept: [10, 30] -> k0 (support 3) and [100, 130] -> k1 (4); the
    // runs [50, 60] -> k1 (2), 80 -> k0 and 200 -> k0 fall below N_c.
    for (x, kind) in [
        (10, "k0"),
        (20, "k0"),
        (30, "k0"),
        (50, "k1"),
        (60, "k1"),
        (80, "k0"),
        (100, "k1"),
        (110, "k1"),
        (120, "k1"),
        (130, "k1"),
        (200, "k0"),
    ] {
        t.insert(row(Some(x), Some(kind))).unwrap();
    }
    let mut db = Database::new();
    db.create(t).unwrap();
    let ils = Ils::new(&model, cfg);
    let mut memo = IlsMemo::new();
    let mut last = ils.induce_memo(&db, 1, &mut memo).unwrap().rules;
    assert_eq!(last.len(), 2);
    let reused = || intensio::obs::metrics().counter("induction.rules_reused");
    let steps = [
        ("a null X", row(None, Some("k0")), true),
        (
            "a below-N_c run above the rest",
            row(Some(300), Some("k1")),
            true,
        ),
        ("a null Kind", row(Some(20), None), true),
        ("a support bump", row(Some(20), Some("k0")), false),
        ("a run reaching N_c", row(Some(50), Some("k1")), false),
        ("a new inconsistency", row(Some(110), Some("k0")), false),
        (
            "an X that stays inconsistent",
            row(Some(110), Some("k1")),
            true,
        ),
        (
            "a new X group splitting a run",
            row(Some(15), Some("k1")),
            false,
        ),
        ("an all-null row", row(None, None), true),
    ];
    for (what, appended, reuse) in steps {
        db.get_mut("T").unwrap().insert(appended).unwrap();
        let before = reused();
        let got = ils.induce_memo(&db, 1, &mut memo).unwrap();
        assert_same_output(&Ok(got.clone()), &reference::induce(&model, cfg, &db), what);
        let fresh = ils.induce(&db).unwrap();
        assert!(got.rules.identical(&fresh.rules), "{what}");
        assert_eq!(got.stats, fresh.stats, "{what}");
        assert_eq!(Arc::ptr_eq(&got.rules, &last), reuse, "{what}");
        if reuse {
            assert!(reused() > before, "{what}: induction.rules_reused");
        }
        last = got.rules;
    }
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_induces_like_the_reference() {
    pair_relations(1_000..3_000).check();
    join_databases(1_000..2_000);
    for seed in 1_000..4_000 {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_same_bytes(&random_rule_set(&mut rng), &format!("seed {seed}"));
    }
    let fleet = generate(FleetConfig {
        seed: 4,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class: 30,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .expect("fleet");
    let model = fleet.ker_model();
    for cfg in configs(3) {
        assert_same_ils(&model, &fleet.db, cfg, &format!("fleet {cfg:?}"));
    }
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_memoizes_like_the_reference() {
    let mut tally = MemoTally::default();
    let mut add = |t: MemoTally| {
        tally.runs += t.runs;
        tally.errors += t.errors;
        tally.faults += t.faults;
    };
    for seed in 100..160 {
        add(memo_sequence(
            join_edits(seed),
            &configs(1 + seed as usize % 3),
            40,
        ));
    }
    add(memo_sequence(appendix_c_edits(2), &configs(2), 150));
    for seed in 1..=3 {
        add(memo_sequence(fleet_edits(seed, 10, 30), &configs(3), 30));
    }
    assert!(tally.errors > 0 && tally.faults > 0, "{tally:?}");
}

/// The ILS data path as it was before pairs were induced by
/// sort-and-scan over borrowed values and role joins were held as row
/// ids, and the encoder before its boundary values were ranked through
/// an ordered map.
mod reference {
    use intensio::induction::{
        IlsStats, InconsistencyPolicy, InducedRule, InductionConfig, InterObjectConstraint,
        RunScope, SupportMetric,
    };
    use intensio::ker::model::{subtype_label_among, KerModel};
    use intensio::rules::encode::RuleRelations;
    use intensio::rules::rule::{AttrId, Clause, RuleSet};
    use intensio::storage::catalog::Database;
    use intensio::storage::csv::to_csv;
    use intensio::storage::error::{Result, StorageError};
    use intensio::storage::expr::CmpOp;
    use intensio::storage::relation::Relation;
    use intensio::storage::schema::{Attribute, Schema};
    use intensio::storage::tuple::Tuple;
    use intensio::storage::value::{Value, ValueKey, ValueType};
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    type ColSpec = (String, String, String, bool);

    /// The `BTreeMap` pair kernel.
    pub fn induce_pair(
        rel: &Relation,
        x_col: &str,
        x_id: &AttrId,
        y_col: &str,
        y_id: &AttrId,
        cfg: &InductionConfig,
    ) -> Result<(Vec<InducedRule>, usize)> {
        let xi = rel.schema().require(rel.name(), x_col)?;
        let yi = rel.schema().require(rel.name(), y_col)?;
        let mut pair_counts: BTreeMap<ValueKey, BTreeMap<ValueKey, usize>> = BTreeMap::new();
        for t in rel.iter() {
            let xv = t.get(xi);
            let yv = t.get(yi);
            if xv.is_null() || yv.is_null() {
                continue;
            }
            *pair_counts
                .entry(ValueKey(xv.clone()))
                .or_default()
                .entry(ValueKey(yv.clone()))
                .or_insert(0) += 1;
        }
        let observed: Vec<ValueKey> = pair_counts.keys().cloned().collect();
        let mut assigned: BTreeMap<ValueKey, Option<(ValueKey, usize, usize)>> = BTreeMap::new();
        for (xv, ys) in &pair_counts {
            let total: usize = ys.values().sum();
            let (best_y, best_n) = ys
                .iter()
                .max_by_key(|(_, n)| **n)
                .map(|(y, n)| (y.clone(), *n))
                .expect("non-empty");
            let value = if ys.len() == 1 {
                Some((best_y, best_n, 0))
            } else {
                match cfg.inconsistency {
                    InconsistencyPolicy::Remove => None,
                    InconsistencyPolicy::MajorityVote => {
                        if best_n * 2 > total {
                            Some((best_y, best_n, total - best_n))
                        } else {
                            None
                        }
                    }
                }
            };
            assigned.insert(xv.clone(), value);
        }
        let run_values: Vec<&ValueKey> = match cfg.run_scope {
            RunScope::FullObservedOrder => observed.iter().collect(),
            RunScope::RemainingOrder => {
                observed.iter().filter(|x| assigned[*x].is_some()).collect()
            }
        };
        let mut rules: Vec<InducedRule> = Vec::new();
        let mut current: Option<(ValueKey, Vec<&ValueKey>)> = None;
        let flush = |current: &mut Option<(ValueKey, Vec<&ValueKey>)>,
                     rules: &mut Vec<InducedRule>| {
            if let Some((yv, xs)) = current.take() {
                let mut support = 0usize;
                let mut violations = 0usize;
                for xv in &xs {
                    if let Some((_, n, v)) = &assigned[*xv] {
                        support += n;
                        violations += v;
                    }
                }
                rules.push(InducedRule {
                    x: x_id.clone(),
                    lo: xs.first().expect("non-empty run").0.clone(),
                    hi: xs.last().expect("non-empty run").0.clone(),
                    y: y_id.clone(),
                    y_value: yv.0.clone(),
                    support,
                    violations,
                    distinct_x: xs.len(),
                });
            }
        };
        for xv in run_values {
            match (&assigned[xv], &mut current) {
                (None, cur) => flush(cur, &mut rules),
                (Some((yv, _, _)), Some((cy, xs))) if yv == cy => xs.push(xv),
                (Some((yv, _, _)), cur) => {
                    flush(cur, &mut rules);
                    *cur = Some((yv.clone(), vec![xv]));
                }
            }
        }
        flush(&mut current, &mut rules);
        if cfg.run_scope == RunScope::RemainingOrder {
            for r in &mut rules {
                let mut violations = 0usize;
                for (xv, ys) in &pair_counts {
                    let in_range = xv.0.compare(&r.lo).map(|o| o.is_ge()).unwrap_or(false)
                        && xv.0.compare(&r.hi).map(|o| o.is_le()).unwrap_or(false);
                    if in_range {
                        for (yv, n) in ys {
                            if yv.0 != r.y_value {
                                violations += n;
                            }
                        }
                    }
                }
                r.violations = violations;
            }
        }
        let constructed = rules.len();
        rules.retain(|r| {
            let measure = match cfg.support_metric {
                SupportMetric::Instances => r.support,
                SupportMetric::DistinctValues => r.distinct_x,
            };
            measure >= cfg.min_support
        });
        Ok((rules, constructed))
    }

    /// The sequential driver: intra-object pairs over each stored
    /// relation, inter-object pairs over each materialized role join.
    pub fn induce(
        model: &KerModel,
        cfg: InductionConfig,
        db: &Database,
    ) -> Result<(RuleSet, IlsStats)> {
        let classifier_attrs: BTreeSet<String> = model
            .classifiers()
            .into_iter()
            .map(|(_, c)| c.attribute.to_ascii_lowercase())
            .collect();
        let mut stats = IlsStats::default();
        let mut induced: Vec<InducedRule> = Vec::new();
        let mut pair =
            |rel: &Relation, x: &str, x_id: AttrId, y: &str, y_id: AttrId, stats: &mut IlsStats| {
                stats.pairs_examined += 1;
                let (rules, constructed) = induce_pair(rel, x, &x_id, y, &y_id, &cfg)?;
                stats.rules_constructed += constructed;
                induced.extend(rules);
                Ok::<(), StorageError>(())
            };
        for rel in db.relations() {
            let roles = role_attrs(model, db, rel);
            if roles.len() >= 2 {
                let joined = join_roles(model, db, rel, &roles)?;
                let role_cols = role_columns(model, db, &roles);
                for (ai, a_cols) in role_cols.iter().enumerate() {
                    for (bi, b_cols) in role_cols.iter().enumerate() {
                        if ai == bi {
                            continue;
                        }
                        for (x_col, x_entity, x_attr, _) in a_cols {
                            for (y_col, y_entity, y_attr, y_key) in b_cols {
                                if *y_key
                                    || !classifier_attrs.contains(&y_attr.to_ascii_lowercase())
                                {
                                    continue;
                                }
                                pair(
                                    &joined,
                                    x_col,
                                    AttrId::new(x_entity.clone(), x_attr.clone()),
                                    y_col,
                                    AttrId::new(y_entity.clone(), y_attr.clone()),
                                    &mut stats,
                                )?;
                            }
                        }
                    }
                }
            } else {
                let object = rel.name();
                for y_attr in rel.schema().attributes() {
                    if y_attr.is_key()
                        || !classifier_attrs.contains(&y_attr.name().to_ascii_lowercase())
                    {
                        continue;
                    }
                    for x_attr in rel.schema().attributes() {
                        if x_attr.name().eq_ignore_ascii_case(y_attr.name()) {
                            continue;
                        }
                        pair(
                            rel,
                            x_attr.name(),
                            AttrId::new(object, x_attr.name()),
                            y_attr.name(),
                            AttrId::new(object, y_attr.name()),
                            &mut stats,
                        )?;
                    }
                }
            }
        }
        stats.rules_kept = induced.len();
        let classifiers = model.classifier_list();
        let mut rules = RuleSet::new();
        for r in induced {
            let subtype = subtype_label_among(classifiers, &r.y.attribute, &r.y_value);
            let mut rule = r.into_rule();
            rule.rhs_subtype = subtype;
            rules.push(rule);
        }
        Ok((rules, stats))
    }

    fn role_columns(
        model: &KerModel,
        db: &Database,
        roles: &[(String, String)],
    ) -> Vec<Vec<ColSpec>> {
        roles
            .iter()
            .map(|(_, entity)| {
                let mut cols = Vec::new();
                collect_entity_columns(model, db, entity, &mut cols, 1);
                cols
            })
            .collect()
    }

    /// Object-valued attributes of `entity` whose target is stored.
    fn hops(model: &KerModel, db: &Database, entity: &str) -> Vec<(String, String)> {
        let Some(ot) = model.object_type(entity) else {
            return Vec::new();
        };
        ot.declared_attrs
            .iter()
            .filter_map(|a| {
                let target = a.domain().name();
                if model.contains_type(target)
                    && db.contains(target)
                    && !target.eq_ignore_ascii_case(entity)
                {
                    Some((a.name().to_string(), target.to_string()))
                } else {
                    None
                }
            })
            .collect()
    }

    fn role_attrs(model: &KerModel, db: &Database, rel: &Relation) -> Vec<(String, String)> {
        hops(model, db, rel.name())
    }

    fn collect_entity_columns(
        model: &KerModel,
        db: &Database,
        entity: &str,
        out: &mut Vec<ColSpec>,
        depth: usize,
    ) {
        let Ok(erel) = db.get(entity) else { return };
        let mut targets: Vec<String> = Vec::new();
        for a in erel.schema().attributes() {
            out.push((
                format!("{entity}.{}", a.name()),
                entity.to_string(),
                a.name().to_string(),
                a.is_key(),
            ));
            if depth > 0 {
                if let Some(ot) = model.object_type(entity) {
                    if let Some(decl) = ot
                        .declared_attrs
                        .iter()
                        .find(|d| d.name().eq_ignore_ascii_case(a.name()))
                    {
                        let target = decl.domain().name();
                        if model.contains_type(target)
                            && db.contains(target)
                            && !target.eq_ignore_ascii_case(entity)
                        {
                            targets.push(target.to_string());
                        }
                    }
                }
            }
        }
        for target in targets {
            if let Ok(trel) = db.get(&target) {
                for a in trel.schema().attributes() {
                    if a.is_key() {
                        continue;
                    }
                    out.push((
                        format!("{target}.{}", a.name()),
                        target.clone(),
                        a.name().to_string(),
                        false,
                    ));
                }
            }
        }
    }

    /// The materialized role join: columns `ENTITY.Attr`, every value
    /// cloned.
    fn join_roles(
        model: &KerModel,
        db: &Database,
        rel: &Relation,
        roles: &[(String, String)],
    ) -> Result<Relation> {
        let mut attrs: Vec<Attribute> = Vec::new();
        for (_, entity) in roles {
            let mut cols: Vec<ColSpec> = Vec::new();
            collect_entity_columns(model, db, entity, &mut cols, 1);
            for (col, src_entity, attr, _) in &cols {
                let src_rel = db.get(src_entity)?;
                let idx = src_rel.schema().require(src_entity, attr)?;
                attrs.push(Attribute::new(
                    col.clone(),
                    src_rel.schema().attr(idx).domain().clone(),
                ));
            }
        }
        let schema = Schema::new(attrs)?;
        let mut joined = Relation::new(format!("{}⋈roles", rel.name()), schema);

        let mut lookups: HashMap<String, HashMap<ValueKey, &Tuple>> = HashMap::new();
        let mut entities_needed: BTreeSet<String> = BTreeSet::new();
        for (_, entity) in roles {
            entities_needed.insert(entity.clone());
            for (_, hop_entity) in hops(model, db, entity) {
                entities_needed.insert(hop_entity);
            }
        }
        for entity in &entities_needed {
            let erel = db.get(entity)?;
            let keys = erel.schema().key_indices();
            let [kidx] = keys.as_slice() else {
                return Err(StorageError::Invalid(format!(
                    "entity {entity} needs a single-attribute key for role joins"
                )));
            };
            let mut map = HashMap::with_capacity(erel.len());
            for t in erel.iter() {
                map.insert(ValueKey(t.get(*kidx).clone()), t);
            }
            lookups.insert(entity.to_ascii_lowercase(), map);
        }

        struct ColPlan {
            src_entity: String,
            attr_idx: usize,
            via_idx: Option<usize>,
        }
        let mut role_plans: Vec<(usize, String, Vec<ColPlan>)> = Vec::new();
        for (role_attr, entity) in roles {
            let ri = rel.schema().require(rel.name(), role_attr)?;
            let erel = db.get(entity)?;
            let mut cols: Vec<ColSpec> = Vec::new();
            collect_entity_columns(model, db, entity, &mut cols, 1);
            let entity_hops = hops(model, db, entity);
            let mut plans = Vec::with_capacity(cols.len());
            for (_, src_entity, attr, _) in &cols {
                if src_entity.eq_ignore_ascii_case(entity) {
                    plans.push(ColPlan {
                        src_entity: src_entity.to_ascii_lowercase(),
                        attr_idx: erel.schema().require(entity, attr)?,
                        via_idx: None,
                    });
                } else {
                    let via = entity_hops
                        .iter()
                        .find(|(_, e)| e.eq_ignore_ascii_case(src_entity))
                        .map(|(via, _)| via.clone())
                        .ok_or_else(|| {
                            StorageError::Invalid(format!(
                                "no reference from {entity} to {src_entity}"
                            ))
                        })?;
                    let srel = db.get(src_entity)?;
                    plans.push(ColPlan {
                        src_entity: src_entity.to_ascii_lowercase(),
                        attr_idx: srel.schema().require(src_entity, attr)?,
                        via_idx: Some(erel.schema().require(entity, &via)?),
                    });
                }
            }
            role_plans.push((ri, entity.clone(), plans));
        }

        'tuples: for t in rel.iter() {
            let mut values = Vec::new();
            for (ri, entity, plans) in &role_plans {
                let key = ValueKey(t.get(*ri).clone());
                let Some(entity_tuple) = lookups[&entity.to_ascii_lowercase()].get(&key) else {
                    continue 'tuples;
                };
                for plan in plans {
                    match plan.via_idx {
                        None => values.push(entity_tuple.get(plan.attr_idx).clone()),
                        Some(vi) => {
                            let k = ValueKey(entity_tuple.get(vi).clone());
                            match lookups[&plan.src_entity].get(&k) {
                                Some(ht) => values.push(ht.get(plan.attr_idx).clone()),
                                None => values.push(Value::Null),
                            }
                        }
                    }
                }
            }
            joined.insert(Tuple::new(values))?;
        }
        Ok(joined)
    }

    /// Constraint discovery over the materialized join.
    pub fn discover_constraints(
        model: &KerModel,
        cfg: InductionConfig,
        db: &Database,
    ) -> Result<Vec<InterObjectConstraint>> {
        let mut out = Vec::new();
        for rel in db.relations() {
            let roles = role_attrs(model, db, rel);
            if roles.len() < 2 {
                continue;
            }
            let joined = join_roles(model, db, rel, &roles)?;
            let role_cols = role_columns(model, db, &roles);
            for (ai, a_cols) in role_cols.iter().enumerate() {
                for (bi, b_cols) in role_cols.iter().enumerate() {
                    if ai >= bi {
                        continue;
                    }
                    for (a_col, a_entity, a_attr, a_key) in a_cols {
                        for (b_col, b_entity, b_attr, b_key) in b_cols {
                            if *a_key || *b_key {
                                continue;
                            }
                            let Some(xi) = joined.schema().index_of(a_col) else {
                                continue;
                            };
                            let Some(yi) = joined.schema().index_of(b_col) else {
                                continue;
                            };
                            let (mut lt, mut eq, mut gt, mut n) = (false, false, false, 0usize);
                            let mut comparable = true;
                            for t in joined.iter() {
                                let (l, r) = (t.get(xi), t.get(yi));
                                if l.is_null() || r.is_null() {
                                    continue;
                                }
                                match l.compare(r) {
                                    Ok(Ordering::Less) => lt = true,
                                    Ok(Ordering::Equal) => eq = true,
                                    Ok(Ordering::Greater) => gt = true,
                                    Err(_) => {
                                        comparable = false;
                                        break;
                                    }
                                }
                                n += 1;
                            }
                            if !comparable || n < cfg.min_support {
                                continue;
                            }
                            let op = match (lt, eq, gt) {
                                (true, false, false) => Some(CmpOp::Lt),
                                (true, true, false) => Some(CmpOp::Le),
                                (false, true, false) => Some(CmpOp::Eq),
                                (false, true, true) => Some(CmpOp::Ge),
                                (false, false, true) => Some(CmpOp::Gt),
                                _ => None,
                            };
                            if let Some(op) = op {
                                out.push(InterObjectConstraint {
                                    relationship: rel.name().to_string(),
                                    left: AttrId::new(a_entity.clone(), a_attr.clone()),
                                    op,
                                    right: AttrId::new(b_entity.clone(), b_attr.clone()),
                                    support: n,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// `RuleSet::minimize` over every pair, returning the kept set and
    /// the number removed.
    pub fn minimize(set: &RuleSet) -> (RuleSet, usize) {
        let rules = set.rules().to_vec();
        let mut keep: Vec<bool> = vec![true; rules.len()];
        for i in 0..rules.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..rules.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let (a, b) = (&rules[j], &rules[i]); // does a subsume b?
                let same_consequence = a.rhs.attr == b.rhs.attr
                    && a.rhs.range == b.rhs.range
                    && a.rhs_subtype == b.rhs_subtype;
                if !same_consequence {
                    continue;
                }
                let a_subsumes_b = a.lhs.iter().all(|ca| {
                    b.lhs_clause(&ca.attr.object, &ca.attr.attribute)
                        .map(|cb| ca.range.subsumes(&cb.range))
                        .unwrap_or(false)
                });
                if a_subsumes_b && (a.lhs != b.lhs || a.id < b.id) {
                    keep[i] = false;
                    break;
                }
            }
        }
        let removed = keep.iter().filter(|k| !**k).count();
        let kept = rules
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(r, _)| r);
        (RuleSet::from_rules(kept), removed)
    }

    fn closed_bounds(clause: &Clause) -> Result<(&Value, &Value)> {
        match (&clause.range.lo, &clause.range.hi) {
            (Some(l), Some(h)) if l.inclusive && h.inclusive => Ok((&l.value, &h.value)),
            _ => Err(StorageError::Invalid(format!(
                "rule clause on {} is not a closed range and cannot be stored",
                clause.attr
            ))),
        }
    }

    /// The encoder with linear-search deduplication and coding.
    fn encode(rules: &RuleSet) -> Result<RuleRelations> {
        let mut attrs: BTreeMap<AttrId, i64> = BTreeMap::new();
        let mut attr_types: BTreeMap<AttrId, ValueType> = BTreeMap::new();
        let mut boundary_values: BTreeMap<AttrId, Vec<ValueKey>> = BTreeMap::new();
        let mut visit = |clause: &Clause| -> Result<()> {
            let (lo, hi) = closed_bounds(clause)?;
            let next = attrs.len() as i64;
            attrs.entry(clause.attr.clone()).or_insert(next);
            for v in [lo, hi] {
                if let Some(t) = v.value_type() {
                    attr_types.entry(clause.attr.clone()).or_insert(t);
                }
                let list = boundary_values.entry(clause.attr.clone()).or_default();
                let k = ValueKey(v.clone());
                if !list.contains(&k) {
                    list.push(k);
                }
            }
            Ok(())
        };
        for rule in rules.iter() {
            for c in &rule.lhs {
                visit(c)?;
            }
            visit(&rule.rhs)?;
        }
        for list in boundary_values.values_mut() {
            list.sort();
        }
        let code_of = |attr: &AttrId, v: &Value| -> f64 {
            let list = &boundary_values[attr];
            let k = ValueKey(v.clone());
            (list.iter().position(|x| *x == k).expect("visited above") + 1) as f64
        };
        let mut rels = RuleRelations::empty();
        for rule in rules.iter() {
            for (role, clause) in rule.lhs.iter().map(|c| ("L", c)).chain([("R", &rule.rhs)]) {
                let (lo, hi) = closed_bounds(clause)?;
                rels.rules.insert(Tuple::new(vec![
                    Value::Int(i64::from(rule.id)),
                    Value::str(role),
                    Value::Real(code_of(&clause.attr, lo)),
                    Value::Int(attrs[&clause.attr]),
                    Value::Real(code_of(&clause.attr, hi)),
                ]))?;
            }
            rels.meta.insert(Tuple::new(vec![
                Value::Int(i64::from(rule.id)),
                Value::Int(rule.support as i64),
                rule.rhs_subtype
                    .as_ref()
                    .map(|s| Value::str(s.clone()))
                    .unwrap_or(Value::Null),
            ]))?;
        }
        for (attr, no) in &attrs {
            let ty = attr_types.get(attr).copied().unwrap_or(ValueType::Str);
            rels.attr_catalog.insert(Tuple::new(vec![
                Value::Int(*no),
                Value::str(attr.object.clone()),
                Value::str(attr.attribute.clone()),
                Value::str(ty.keyword()),
            ]))?;
            for (i, v) in boundary_values[attr].iter().enumerate() {
                rels.value_map.insert(Tuple::new(vec![
                    Value::Int(*no),
                    Value::Real((i + 1) as f64),
                    Value::str(v.0.render_bare()),
                ]))?;
            }
        }
        Ok(rels)
    }

    /// A WAL rule-set record body, as `rules_to_bytes` wrote it over
    /// the old encoder.
    pub fn rules_to_bytes(rules: &RuleSet) -> Result<Vec<u8>> {
        let rels = encode(rules)?;
        let mut out = String::from("%intensio-rules v1\n");
        for (name, rel) in rels.named() {
            out.push_str("%relation ");
            out.push_str(name);
            out.push('\n');
            out.push_str(&to_csv(rel));
        }
        Ok(out.into_bytes())
    }
}
