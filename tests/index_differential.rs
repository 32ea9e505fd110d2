//! Differential test of the inference engine's data checks.
//!
//! The engine decides data-grounded subsumption and backward
//! completeness (paper §4, Examples 1–2) from each relation's cached
//! secondary indexes. [`scan_reference`] keeps the full-domain
//! definitions those checks replaced — filter every observed value of
//! the attribute, rescan every row — and every answer here must match it
//! field by field: forward facts, backward characterizations (with their
//! completeness flags), the inference trace and the provenance.
//!
//! Inputs: the paper's Examples 1–3 and the `nc_sweep` type-membership
//! workload; generated fleets at several seeds and `N_c` values under
//! random restriction sets (open, closed, point and empty ranges, type
//! mismatches, with and without joins); a relation mutated after its
//! indexes were cached; a column holding integers, reals and nulls. Each
//! case runs under both subsumption modes.

use intensio::prelude::*;
use intensio::shipdb::{generate, ship_database, ship_model, FleetConfig};
use intensio::sql::{analyze, parse, BoundAttr, JoinCond, QueryAnalysis, Restriction};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scan_reference::ScanEngine;

const EXAMPLE1: &str = "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
     FROM SUBMARINE, CLASS \
     WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000";
const EXAMPLE2: &str = "SELECT SUBMARINE.NAME, SUBMARINE.CLASS \
     FROM SUBMARINE, CLASS \
     WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = \"SSBN\"";
const EXAMPLE3: &str = "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
     FROM SUBMARINE, CLASS, INSTALL \
     WHERE SUBMARINE.CLASS = CLASS.CLASS \
     AND SUBMARINE.ID = INSTALL.SHIP \
     AND INSTALL.SONAR = \"BQS-04\"";

/// Every engine configuration: both subsumption modes, each direction
/// alone and both together.
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

/// What the compared answers contained, so a suite that compares only
/// empty answers fails rather than passes.
#[derive(Debug, Default)]
struct Tally {
    answers: usize,
    forward: usize,
    backward_complete: usize,
    backward_incomplete: usize,
}

impl Tally {
    fn add(&mut self, a: &IntensionalAnswer) {
        self.answers += 1;
        self.forward += a.certain.len();
        for b in &a.partial {
            match b.complete {
                Some(true) => self.backward_complete += 1,
                Some(false) => self.backward_incomplete += 1,
                None => {}
            }
        }
    }
}

/// Run the engine and the reference on one input under every
/// configuration; every field of the two answers must match.
fn assert_same(
    db: &Database,
    model: &KerModel,
    rules: &RuleSet,
    analysis: &QueryAnalysis,
    ctx: &str,
    tally: &mut Tally,
) {
    for cfg in configs() {
        let got = InferenceEngine::new(model, rules, db, cfg)
            .unwrap()
            .infer(analysis);
        let want = ScanEngine::new(model, rules, db, cfg).infer(analysis);
        let ctx = format!("{ctx} [{cfg:?}]\n{analysis:#?}");
        assert_eq!(got.certain, want.certain, "forward facts differ: {ctx}");
        assert_eq!(
            got.partial, want.partial,
            "backward characterizations differ: {ctx}"
        );
        assert_eq!(got.steps, want.steps, "inference trace differs: {ctx}");
        assert_eq!(got.provenance, want.provenance, "provenance differs: {ctx}");
        tally.add(&got);
    }
}

fn sql_analysis(db: &Database, sql: &str) -> QueryAnalysis {
    analyze(db, &parse(sql).unwrap()).unwrap()
}

fn induce(db: &Database, model: &KerModel, nc: usize) -> RuleSet {
    Ils::new(model, InductionConfig::with_min_support(nc))
        .induce(db)
        .unwrap()
        .rules
}

/// The `nc_sweep` workload: one type-membership query per subtype.
fn type_membership_queries(model: &KerModel) -> Vec<String> {
    let classifier = model.classifier_of("CLASS").expect("CLASS has subtypes");
    classifier
        .mapping
        .iter()
        .map(|(value, _)| {
            format!(
                "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE FROM SUBMARINE, CLASS \
                 WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = {value}"
            )
        })
        .collect()
}

fn small_fleet(seed: u64) -> intensio::shipdb::Fleet {
    generate(FleetConfig {
        seed,
        // One type makes a premise span its attribute's whole domain.
        n_types: 1 + seed as usize % 3,
        classes_per_type: 4,
        ships_per_class: 3,
        sonars_per_family: 2,
        id_noise: if seed.is_multiple_of(2) { 0.0 } else { 0.2 },
        overlapping_bands: seed.is_multiple_of(3),
    })
    .unwrap()
}

fn bound(rel: &Relation, attribute: &str) -> BoundAttr {
    BoundAttr {
        relation: rel.name().to_string(),
        alias: rel.name().to_string(),
        attribute: attribute.to_string(),
    }
}

/// A constant for a restriction on a column: usually a stored value,
/// sometimes a neighbour of one (so ranges open and close between
/// stored values), sometimes a value of another type.
fn constant(column: &[Value], rng: &mut StdRng) -> Value {
    let v = column.choose(rng).cloned().unwrap_or(Value::Int(0));
    match (rng.gen_range(0..10), &v) {
        (0, Value::Str(_)) => Value::Int(rng.gen_range(0i64..5000)),
        (0, _) => Value::str("0101"),
        (1..=2, Value::Int(i)) => Value::Int(i + rng.gen_range(-1i64..=1)),
        (1..=2, Value::Real(r)) => Value::Real(r + 0.25),
        (3, Value::Int(i)) => Value::Real(*i as f64 - 0.5),
        _ => v,
    }
}

/// A random restriction set over the database's attributes: zero to
/// three conditions, each a point, a half-open range, a closed range
/// (two conditions), an inequality, or a provably empty pair; with
/// probability one half, some equi-joins between same-named attributes.
fn random_analysis(db: &Database, rng: &mut StdRng) -> QueryAnalysis {
    let attrs: Vec<(&Relation, String)> = db
        .relations()
        .flat_map(|r| {
            r.schema()
                .attributes()
                .iter()
                .map(move |a| (r, a.name().to_string()))
        })
        .collect();
    let mut restrictions = Vec::new();
    for _ in 0..rng.gen_range(0..=3) {
        let (rel, attr) = attrs.choose(rng).unwrap();
        let column: Vec<Value> = rel
            .distinct_values(attr)
            .unwrap()
            .into_iter()
            .filter(|v| !v.is_null())
            .collect();
        let mut push = |op, value| {
            restrictions.push(Restriction {
                attr: bound(rel, attr),
                op,
                value,
            })
        };
        let (a, b) = (constant(&column, rng), constant(&column, rng));
        let (lo, hi) = if a.total_cmp(&b).is_le() {
            (a, b)
        } else {
            (b, a)
        };
        match rng.gen_range(0..7) {
            0 => push(CmpOp::Eq, lo),
            1 => push(CmpOp::Gt, lo),
            2 => push(CmpOp::Le, hi),
            3 => {
                push(CmpOp::Ge, lo);
                push(CmpOp::Lt, hi);
            }
            4 => {
                push(CmpOp::Gt, hi);
                push(CmpOp::Lt, lo);
            }
            5 => push(CmpOp::Ne, lo),
            _ => {
                push(CmpOp::Ge, lo);
                push(CmpOp::Le, hi);
            }
        }
    }
    let mut joins = Vec::new();
    if rng.gen_bool(0.5) {
        for (i, (r1, a1)) in attrs.iter().enumerate() {
            for (r2, a2) in &attrs[i + 1..] {
                if r1.name() != r2.name() && a1.eq_ignore_ascii_case(a2) && rng.gen_bool(0.7) {
                    joins.push(JoinCond {
                        left: bound(r1, a1),
                        right: bound(r2, a2),
                    });
                }
            }
        }
    }
    QueryAnalysis {
        relations: Vec::new(),
        restrictions,
        joins,
        unsupported: Vec::new(),
    }
}

#[test]
fn paper_examples_match_the_scan_reference() {
    let db = ship_database().unwrap();
    let model = ship_model().unwrap();
    let rules = induce(&db, &model, 3);
    let mut tally = Tally::default();
    for (name, sql) in [
        ("Example 1", EXAMPLE1),
        ("Example 2", EXAMPLE2),
        ("Example 3", EXAMPLE3),
    ] {
        assert_same(
            &db,
            &model,
            &rules,
            &sql_analysis(&db, sql),
            name,
            &mut tally,
        );
    }
    // Example 2's caveat (class 1301 is SSBN but outside R5's range) is
    // an incomplete backward characterization.
    assert!(
        tally.forward > 0 && tally.backward_complete > 0 && tally.backward_incomplete > 0,
        "{tally:?}"
    );
}

#[test]
fn nc_sweep_workload_matches_the_scan_reference() {
    let mut tally = Tally::default();
    let paper = (ship_database().unwrap(), ship_model().unwrap());
    let fleets: Vec<(Database, KerModel)> = [11, 12]
        .into_iter()
        .map(|seed| {
            let fleet = small_fleet(seed);
            let model = fleet.ker_model();
            (fleet.db, model)
        })
        .collect();
    for (i, (db, model)) in std::iter::once(&paper).chain(&fleets).enumerate() {
        for nc in [1, 2, 3, 5] {
            let rules = induce(db, model, nc);
            for sql in type_membership_queries(model) {
                let ctx = format!("database {i}, N_c = {nc}: {sql}");
                assert_same(db, model, &rules, &sql_analysis(db, &sql), &ctx, &mut tally);
            }
        }
    }
    assert!(
        tally.backward_complete > 0 && tally.backward_incomplete > 0,
        "{tally:?}"
    );
}

#[test]
fn random_restrictions_on_generated_fleets_match_the_scan_reference() {
    let mut tally = Tally::default();
    for seed in [1u64, 2, 3] {
        let fleet = small_fleet(seed);
        let model = fleet.ker_model();
        for nc in [1, 2, 3] {
            let rules = induce(&fleet.db, &model, nc);
            let mut rng = StdRng::seed_from_u64(seed * 100 + nc as u64);
            for case in 0..40 {
                let analysis = random_analysis(&fleet.db, &mut rng);
                let ctx = format!("fleet seed {seed}, N_c = {nc}, case {case}");
                assert_same(&fleet.db, &model, &rules, &analysis, &ctx, &mut tally);
            }
        }
    }
    assert!(
        tally.forward > 0 && tally.backward_complete > 0,
        "{tally:?}"
    );
}

#[test]
fn relations_mutated_after_their_indexes_were_cached_match_the_scan_reference() {
    let fleet = small_fleet(4);
    let model = fleet.ker_model();
    let rules = induce(&fleet.db, &model, 2);
    let before = fleet.db;
    let mut rng = StdRng::seed_from_u64(4);
    let analyses: Vec<QueryAnalysis> = (0..40)
        .map(|_| random_analysis(&before, &mut rng))
        .collect();
    let mut tally = Tally::default();
    // Caches every index the engine reads on the old snapshot.
    for (case, analysis) in analyses.iter().enumerate() {
        assert_same(
            &before,
            &model,
            &rules,
            analysis,
            &format!("before, case {case}"),
            &mut tally,
        );
    }
    // The next epoch: a new class of the first type whose displacement
    // lies in the last type's band (so premises the old data met now
    // fail), with one ship; and one old ship gone.
    let mut after = before.clone();
    let (first_type, _) = fleet.type_band.iter().next().unwrap();
    let (_, (_, last_hi)) = fleet.type_band.iter().next_back().unwrap();
    after
        .get_mut("CLASS")
        .unwrap()
        .insert(Tuple::new(vec![
            Value::str("9999"),
            Value::str("Interloper"),
            Value::str(first_type.clone()),
            Value::Int(*last_hi),
        ]))
        .unwrap();
    after
        .get_mut("SUBMARINE")
        .unwrap()
        .insert(Tuple::new(vec![
            Value::str("ZZZ0001"),
            Value::str("Odd"),
            Value::str("9999"),
        ]))
        .unwrap();
    let dropped = after.get("SUBMARINE").unwrap().tuples()[0].get(0).clone();
    after
        .get_mut("SUBMARINE")
        .unwrap()
        .delete_where(|t| t.get(0) == &dropped);
    assert!(!after.shares_storage(&before, "CLASS"));
    for (case, analysis) in analyses.iter().enumerate() {
        assert_same(
            &after,
            &model,
            &rules,
            analysis,
            &format!("after, case {case}"),
            &mut tally,
        );
        // The old snapshot still answers from its own rows.
        assert_same(
            &before,
            &model,
            &rules,
            analysis,
            &format!("old snapshot, case {case}"),
            &mut tally,
        );
    }
    let type_query = format!("SELECT CLASS.CLASS FROM CLASS WHERE CLASS.TYPE = \"{first_type}\"");
    assert_same(
        &after,
        &model,
        &rules,
        &sql_analysis(&after, &type_query),
        "appended class",
        &mut tally,
    );
    assert!(
        tally.forward > 0 && tally.backward_incomplete > 0,
        "{tally:?}"
    );
}

#[test]
fn a_column_of_integers_reals_and_nulls_matches_the_scan_reference() {
    let fleet = small_fleet(5);
    let model = fleet.ker_model();
    let rules = induce(&fleet.db, &model, 2);
    let mut db = fleet.db;
    let class = db.get_mut("CLASS").unwrap();
    let at = class.schema().index_of("Displacement").unwrap();
    let rows: Vec<Tuple> = class
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut values = t.values().to_vec();
            values[at] = match (i % 5, &values[at]) {
                (1, Value::Int(d)) => Value::Real(*d as f64 + 0.5),
                (2, Value::Int(d)) => Value::Real(*d as f64),
                (3, _) if i % 10 == 3 => Value::Null,
                (_, v) => v.clone(),
            };
            Tuple::new(values)
        })
        .collect();
    class.replace_all(rows).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut tally = Tally::default();
    for case in 0..60 {
        let analysis = random_analysis(&db, &mut rng);
        assert_same(
            &db,
            &model,
            &rules,
            &analysis,
            &format!("mixed column, case {case}"),
            &mut tally,
        );
    }
    assert!(tally.forward > 0, "{tally:?}");
}

/// The inference engine as it stood before it read the relations'
/// indexes: data-grounded subsumption filters each attribute's whole
/// observed domain, and backward completeness rescans every row. The
/// rest of the engine (fact propagation, chaining, echo suppression) is
/// kept as it was, so any difference in an answer comes from the data
/// checks.
mod scan_reference {
    use intensio::inference::{
        BackwardCharacterization, Direction, ForwardFact, InferenceConfig, IntensionalAnswer,
        RuleUse, SubsumptionMode,
    };
    use intensio::ker::model::KerModel;
    use intensio::rules::range::ValueRange;
    use intensio::rules::rule::{AttrId, Rule, RuleSet};
    use intensio::sql::QueryAnalysis;
    use intensio::storage::catalog::Database;
    use intensio::storage::value::{Value, ValueKey};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    fn attr_key(a: &AttrId) -> (String, String) {
        (
            a.object.to_ascii_lowercase(),
            a.attribute.to_ascii_lowercase(),
        )
    }

    /// The engine with full-domain data checks: a private copy of every
    /// rule attribute's distinct values and of every rule relation's rows.
    pub struct ScanEngine<'a> {
        model: &'a KerModel,
        rules: &'a RuleSet,
        cfg: InferenceConfig,
        /// Distinct observed values per attribute (sorted).
        observed: HashMap<(String, String), Vec<Value>>,
        /// Per-relation (X, Y) joint support for completeness checks:
        /// observed X values per (X attr, Y attr, y value).
        db_snapshot: DbSnapshot,
    }

    /// Column-index map plus materialized rows for one relation.
    type RelationSnapshot = (HashMap<String, usize>, Vec<Vec<Value>>);

    /// Lightweight snapshot of the relations the rules mention.
    struct DbSnapshot {
        /// relation (lowercase) -> (attr lowercase -> column index, rows).
        relations: HashMap<String, RelationSnapshot>,
    }

    impl DbSnapshot {
        fn build(db: &Database, attrs: &BTreeSet<(String, String)>) -> DbSnapshot {
            let mut relations = HashMap::new();
            for (rel_name, _) in attrs {
                if relations.contains_key(rel_name) {
                    continue;
                }
                if let Ok(rel) = db.get(rel_name) {
                    let cols: HashMap<String, usize> = rel
                        .schema()
                        .attributes()
                        .iter()
                        .enumerate()
                        .map(|(i, a)| (a.name().to_ascii_lowercase(), i))
                        .collect();
                    let rows: Vec<Vec<Value>> = rel.iter().map(|t| t.values().to_vec()).collect();
                    relations.insert(rel_name.clone(), (cols, rows));
                }
            }
            DbSnapshot { relations }
        }

        /// Observed X values among rows with Y = y (same relation only).
        fn x_values_where_y(&self, x: &AttrId, y: &AttrId, y_value: &Value) -> Option<Vec<Value>> {
            if !x.object.eq_ignore_ascii_case(&y.object) {
                return None;
            }
            let (cols, rows) = self.relations.get(&x.object.to_ascii_lowercase())?;
            let xi = *cols.get(&x.attribute.to_ascii_lowercase())?;
            let yi = *cols.get(&y.attribute.to_ascii_lowercase())?;
            let mut set: BTreeSet<ValueKey> = BTreeSet::new();
            for row in rows {
                if row[yi].sem_eq(y_value) {
                    set.insert(ValueKey(row[xi].clone()));
                }
            }
            Some(set.into_iter().map(|k| k.0).collect())
        }
    }

    impl<'a> ScanEngine<'a> {
        /// Copy what the data checks read out of the database.
        pub fn new(
            model: &'a KerModel,
            rules: &'a RuleSet,
            db: &Database,
            cfg: InferenceConfig,
        ) -> ScanEngine<'a> {
            let mut attrs: BTreeSet<(String, String)> = BTreeSet::new();
            for r in rules.iter() {
                for c in &r.lhs {
                    attrs.insert(attr_key(&c.attr));
                }
                attrs.insert(attr_key(&r.rhs.attr));
            }
            let mut observed = HashMap::new();
            for (rel_name, attr_name) in &attrs {
                if let Ok(rel) = db.get(rel_name) {
                    if let Ok(vals) = rel.distinct_values(attr_name) {
                        observed.insert(
                            (rel_name.clone(), attr_name.clone()),
                            vals.into_iter().filter(|v| !v.is_null()).collect(),
                        );
                    }
                }
            }
            let db_snapshot = DbSnapshot::build(db, &attrs);
            ScanEngine {
                model,
                rules,
                cfg,
                observed,
                db_snapshot,
            }
        }

        /// Derive the intensional answer for an analyzed query.
        pub fn infer(&self, analysis: &QueryAnalysis) -> IntensionalAnswer {
            let mut answer = IntensionalAnswer::default();

            // Equivalence classes from equi-joins, for fact propagation.
            let equiv = self.equivalences(analysis);

            // Initial facts: query restrictions as ranges, intersected per
            // attribute and propagated across joins.
            let mut facts: BTreeMap<(String, String), ValueRange> = BTreeMap::new();
            for r in &analysis.restrictions {
                let Some(range) = ValueRange::from_cmp(r.op, r.value.clone()) else {
                    continue; // != has no interval form
                };
                let attr = AttrId::new(r.attr.relation.clone(), r.attr.attribute.clone());
                self.add_fact(&mut facts, &equiv, &attr, range, &mut answer.steps);
            }
            let given: BTreeSet<(String, String)> = facts.keys().cloned().collect();

            // Forward chaining to fixpoint.
            if !self.cfg.backward_only {
                let mut fired: BTreeSet<u32> = BTreeSet::new();
                loop {
                    let mut progressed = false;
                    for rule in self.rules.iter() {
                        if fired.contains(&rule.id) {
                            continue;
                        }
                        if !self.premise_satisfied(rule, &facts) {
                            continue;
                        }
                        fired.insert(rule.id);
                        progressed = true;
                        let rhs_value = rule
                            .rhs
                            .range
                            .as_point()
                            .cloned()
                            .expect("induced consequences are points");
                        answer.steps.push(format!(
                            "forward: R{} fires, concluding {} = {}",
                            rule.id, rule.rhs.attr, rhs_value
                        ));
                        answer.provenance.push(RuleUse {
                            rule_id: rule.id,
                            support: rule.support,
                            direction: Direction::Forward,
                            conclusion: format!("{} = {}", rule.rhs.attr, rhs_value),
                        });
                        let subtype = rule.rhs_subtype.clone().or_else(|| {
                            self.model
                                .subtype_label_for(&rule.rhs.attr.attribute, &rhs_value)
                        });
                        answer.certain.push(ForwardFact {
                            attr: rule.rhs.attr.clone(),
                            value: rhs_value.clone(),
                            subtype,
                            rule_id: Some(rule.id),
                        });
                        self.add_fact(
                            &mut facts,
                            &equiv,
                            &rule.rhs.attr,
                            ValueRange::point(rhs_value),
                            &mut answer.steps,
                        );
                    }
                    if !progressed {
                        break;
                    }
                }
                // Deduplicate identical conclusions from different rules.
                answer.certain.dedup_by(|a, b| {
                    a.attr == b.attr && a.value == b.value && a.subtype == b.subtype
                });
            }

            // Backward inference: from every point fact (given or derived),
            // invert rules concluding it.
            if !self.cfg.forward_only {
                for ((obj, attr_name), range) in &facts {
                    let Some(value) = range.as_point() else {
                        continue;
                    };
                    for rule in self.rules.iter() {
                        if !rule.rhs.attr.matches(obj, attr_name) {
                            continue;
                        }
                        let Some(rhs_value) = rule.rhs.range.as_point() else {
                            continue;
                        };
                        if !rhs_value.sem_eq(value) {
                            continue;
                        }
                        // Single-premise rules only (the paper's induced
                        // rules are single-clause).
                        let [lhs] = rule.lhs.as_slice() else { continue };
                        let complete = self.backward_completeness(rule, &lhs.attr, value);
                        answer.steps.push(format!(
                            "backward: R{} inverted — instances with {} {} have {} = {}",
                            rule.id, lhs.attr, lhs.range, rule.rhs.attr, value
                        ));
                        answer.provenance.push(RuleUse {
                            rule_id: rule.id,
                            support: rule.support,
                            direction: Direction::Backward,
                            conclusion: format!(
                                "{} {} ⇒ {} = {}",
                                lhs.attr, lhs.range, rule.rhs.attr, value
                            ),
                        });
                        answer.partial.push(BackwardCharacterization {
                            x: lhs.attr.clone(),
                            range: lhs.range.clone(),
                            y: rule.rhs.attr.clone(),
                            value: value.clone(),
                            subtype: rule.rhs_subtype.clone().or_else(|| {
                                self.model
                                    .subtype_label_for(&rule.rhs.attr.attribute, value)
                            }),
                            rule_id: rule.id,
                            complete,
                        });
                    }
                }
            }

            // Suppress trivial backward echoes: a backward characterization
            // whose X attribute the query already fixed to the same range
            // adds nothing.
            answer.partial.retain(|b| {
                let k = attr_key(&b.x);
                match (given.contains(&k), facts.get(&k)) {
                    (true, Some(r)) => r != &b.range,
                    _ => true,
                }
            });
            // Two rules with the same premise and conclusion (a redundant
            // duplicate the install-time prune would drop) invert to the
            // same description; keep the first — iteration is in rule-id
            // order, so the citation is stable — and the answer reads the
            // same whether or not the duplicate was pruned.
            let mut seen_descriptions = BTreeSet::new();
            answer.partial.retain(|b| {
                seen_descriptions.insert(format!(
                    "{}|{}|{}|{}|{:?}",
                    b.x, b.range, b.y, b.value, b.subtype
                ))
            });
            // Keep provenance consistent with the surviving characterizations.
            let kept_backward: BTreeSet<u32> = answer.partial.iter().map(|b| b.rule_id).collect();
            answer.provenance.retain(|u| match u.direction {
                Direction::Forward => true,
                Direction::Backward => kept_backward.contains(&u.rule_id),
            });

            answer
        }

        /// Referential equivalences from the KER schema: an object-valued
        /// attribute holds the referenced entity's key, so facts transfer
        /// between them (`INSTALL.Sonar` ≡ `SONAR.Sonar`,
        /// `SUBMARINE.Class` ≡ `CLASS.Class`). This is how a condition on a
        /// relationship attribute reaches rules phrased over the entity —
        /// the paper's Example 3 relies on it (`INSTALL.SONAR = "BQS-04"`
        /// fires R17/R11, which speak of `y.Sonar`).
        fn schema_equivalences(&self) -> Vec<(AttrId, AttrId)> {
            let mut out = Vec::new();
            for type_name in self.model.type_names() {
                let Some(ot) = self.model.object_type(type_name) else {
                    continue;
                };
                for a in &ot.declared_attrs {
                    let target = a.domain().name();
                    if !self.model.contains_type(target) || target.eq_ignore_ascii_case(type_name) {
                        continue;
                    }
                    let Some(tt) = self.model.object_type(target) else {
                        continue;
                    };
                    let Some(key) = tt.declared_attrs.iter().find(|k| k.is_key()) else {
                        continue;
                    };
                    out.push((
                        AttrId::new(ot.name.clone(), a.name().to_string()),
                        AttrId::new(tt.name.clone(), key.name().to_string()),
                    ));
                }
            }
            out
        }

        /// Join-equivalence classes: attr -> every attr equated with it.
        fn equivalences(&self, analysis: &QueryAnalysis) -> HashMap<(String, String), Vec<AttrId>> {
            // Union-find over the attributes mentioned in joins.
            let mut parent: HashMap<(String, String), (String, String)> = HashMap::new();
            fn find(
                parent: &mut HashMap<(String, String), (String, String)>,
                k: (String, String),
            ) -> (String, String) {
                let p = parent.get(&k).cloned();
                match p {
                    None => k,
                    Some(p) if p == k => k,
                    Some(p) => {
                        let root = find(parent, p);
                        parent.insert(k, root.clone());
                        root
                    }
                }
            }
            let mut members: HashMap<(String, String), BTreeSet<(String, String)>> = HashMap::new();
            let mut ids: HashMap<(String, String), AttrId> = HashMap::new();
            let mut edges: Vec<(AttrId, AttrId)> = analysis
                .joins
                .iter()
                .map(|j| {
                    (
                        AttrId::new(j.left.relation.clone(), j.left.attribute.clone()),
                        AttrId::new(j.right.relation.clone(), j.right.attribute.clone()),
                    )
                })
                .collect();
            edges.extend(self.schema_equivalences());
            for (a, b) in &edges {
                let (ka, kb) = (attr_key(a), attr_key(b));
                let (a, b) = (a.clone(), b.clone());
                ids.insert(ka.clone(), a);
                ids.insert(kb.clone(), b);
                let ra = find(&mut parent, ka.clone());
                let rb = find(&mut parent, kb.clone());
                parent.insert(ka.clone(), ra.clone());
                parent.insert(kb, ra.clone());
                if ra != rb {
                    parent.insert(rb, ra);
                }
            }
            let keys: Vec<(String, String)> = ids.keys().cloned().collect();
            for k in keys {
                let r = find(&mut parent, k.clone());
                members.entry(r).or_default().insert(k);
            }
            let mut out: HashMap<(String, String), Vec<AttrId>> = HashMap::new();
            for set in members.values() {
                for k in set {
                    let peers: Vec<AttrId> = set
                        .iter()
                        .filter(|o| *o != k)
                        .filter_map(|o| ids.get(o).cloned())
                        .collect();
                    out.insert(k.clone(), peers);
                }
            }
            out
        }

        /// Record a fact, intersecting with any existing fact on the
        /// attribute, and propagate it across join equivalences.
        fn add_fact(
            &self,
            facts: &mut BTreeMap<(String, String), ValueRange>,
            equiv: &HashMap<(String, String), Vec<AttrId>>,
            attr: &AttrId,
            range: ValueRange,
            steps: &mut Vec<String>,
        ) {
            let mut queue = vec![(attr.clone(), range)];
            while let Some((a, r)) = queue.pop() {
                let k = attr_key(&a);
                let merged = match facts.get(&k) {
                    Some(existing) => match existing.intersect(&r) {
                        Some(i) => i,
                        None => {
                            steps.push(format!("contradiction on {a}: {existing} ∧ {r} is empty"));
                            r.clone()
                        }
                    },
                    None => r.clone(),
                };
                let changed = facts.get(&k) != Some(&merged);
                facts.insert(k.clone(), merged.clone());
                if changed {
                    if let Some(peers) = equiv.get(&k) {
                        for p in peers {
                            queue.push((p.clone(), merged.clone()));
                        }
                    }
                }
            }
        }

        /// Is a rule's premise subsumed by the current facts?
        ///
        /// Every premise clause must be satisfied, and at least one premise
        /// attribute must actually be constrained by the query (otherwise
        /// any database-wide regularity would fire).
        fn premise_satisfied(
            &self,
            rule: &Rule,
            facts: &BTreeMap<(String, String), ValueRange>,
        ) -> bool {
            let mut any_constrained = false;
            for clause in &rule.lhs {
                let k = attr_key(&clause.attr);
                let fact = facts.get(&k);
                if fact.is_some() {
                    any_constrained = true;
                }
                let satisfied = match self.cfg.subsumption {
                    SubsumptionMode::PureInterval => match fact {
                        Some(f) => clause.range.subsumes(f),
                        None => false,
                    },
                    SubsumptionMode::DataGrounded => {
                        let Some(observed) = self.observed.get(&k) else {
                            return false;
                        };
                        let matching: Vec<&Value> = observed
                            .iter()
                            .filter(|v| fact.map(|f| f.contains(v)).unwrap_or(true))
                            .collect();
                        !matching.is_empty() && matching.iter().all(|v| clause.range.contains(v))
                    }
                };
                if !satisfied {
                    return false;
                }
            }
            any_constrained
        }

        /// Does the rule's premise range cover *every* observed X value
        /// whose Y equals `value`? (`None` when X and Y live in different
        /// relations and the joint distribution is not directly checkable.)
        fn backward_completeness(&self, rule: &Rule, x: &AttrId, value: &Value) -> Option<bool> {
            let xs = self
                .db_snapshot
                .x_values_where_y(x, &rule.rhs.attr, value)?;
            let lhs = rule.lhs_clause(&x.object, &x.attribute)?;
            Some(xs.iter().all(|v| lhs.range.contains(v)))
        }
    }
}
