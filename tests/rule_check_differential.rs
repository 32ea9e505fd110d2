//! Differential test of the rule-set checks.
//!
//! `check_rules` compares only rules that conclude on one attribute and
//! share a premise attribute, and it saturates through
//! `absint::Saturator`: interned slots, a premise-slot index and sorted
//! clause ranges. `prunable_rules` and `RuleSet::minimize` use the same
//! conclusion groups. [`reference`] keeps the definitions those
//! replaced: every pair compared, and every rule tested on every
//! saturation pass. Every output here must match it byte for byte: the
//! report's text and JSON, `prunable_rules`, `RuleSet::minimize`'s set
//! and count, and each saturation's chain and final state.
//!
//! Inputs: seeded generated rule sets checked with and without a
//! catalog. They have multi-clause and empty premises, subtype labels
//! and attribute names in mixed case, cycles, chained conflicts,
//! duplicates, and integer, real, string and mixed-kind ranges (some
//! of another kind than the rest on their attribute); the catalog's
//! domains include value sets. Seeded abstract states
//! (ranges, half-open ranges, value sets, explicit ⊤, ⊥) are saturated
//! with and without held-out rules. The rule sets induced from the
//! servebench-shaped fleet (6 types x 10 classes x 30 ships) are checked
//! for seeds 1-3.

use intensio::check::{check_rules, prunable_rules, Report, RuleCheckConfig};
use intensio::inference::absint::{AbstractState, AbstractValue, Saturator};
use intensio::prelude::*;
use intensio::rules::range::ValueRange;
use intensio::shipdb::{generate, FleetConfig};
use intensio::storage::domain::{Domain, DomainConstraint};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How a generated attribute's values look.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Str,
    /// Integer and real endpoints on one attribute.
    Mixed,
}

/// Premise and conclusion attributes. `G` and `Z` are absent from the
/// catalog.
const OBJECTS: [&str; 3] = ["E", "F", "G"];
const ATTRS: [(&str, Kind); 6] = [
    ("A", Kind::Int),
    ("B", Kind::Int),
    ("C", Kind::Int),
    ("D", Kind::Str),
    ("K", Kind::Mixed),
    ("Z", Kind::Int),
];
const LABELS: [&str; 4] = ["S1", "S2", "s1", "S3"];

/// `name` with each letter's case flipped now and then.
fn cased(name: &str, rng: &mut StdRng) -> String {
    name.chars()
        .map(|c| {
            if rng.gen_bool(0.15) {
                if c.is_ascii_uppercase() {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            } else {
                c
            }
        })
        .collect()
}

fn attr(rng: &mut StdRng) -> (AttrId, Kind) {
    let object = if rng.gen_bool(0.04) {
        "G"
    } else {
        OBJECTS[rng.gen_range(0..2usize)]
    };
    let (name, kind) = if rng.gen_bool(0.04) {
        ATTRS[5]
    } else {
        ATTRS[rng.gen_range(0..5usize)]
    };
    (AttrId::new(cased(object, rng), cased(name, rng)), kind)
}

fn value(kind: Kind, x: i64, rng: &mut StdRng) -> Value {
    match kind {
        Kind::Int => Value::Int(x),
        Kind::Str => Value::str(((b'a' + x as u8 % 12) as char).to_string()),
        Kind::Mixed if rng.gen_bool(0.5) => Value::Real(x as f64),
        Kind::Mixed => Value::Int(x),
    }
}

/// A closed range over `kind`: a point now and then, else up to eight
/// wide, inside a domain small enough that ranges often nest.
fn range(kind: Kind, rng: &mut StdRng) -> ValueRange {
    let lo = rng.gen_range(0..=11i64);
    let hi = if rng.gen_bool(0.3) {
        lo
    } else {
        lo + rng.gen_range(0..=8i64)
    };
    let hi = if kind == Kind::Str { hi.min(11) } else { hi };
    ValueRange::closed(value(kind, lo, rng), value(kind, hi, rng))
}

fn random_rule(rng: &mut StdRng) -> Rule {
    let clauses = match rng.gen_range(0..100u32) {
        0..=2 => 0,
        3..=62 => 1,
        63..=89 => 2,
        _ => 3,
    };
    let lhs = (0..clauses)
        .map(|_| {
            let (attr, kind) = attr(rng);
            // Now and then a range of another kind than the attribute's.
            let kind = if rng.gen_bool(0.05) {
                ATTRS[rng.gen_range(3..5usize)].1
            } else {
                kind
            };
            Clause {
                attr,
                range: range(kind, rng),
            }
        })
        .collect();
    let (rhs_attr, kind) = attr(rng);
    let rhs = if rng.gen_bool(0.8) {
        let x = rng.gen_range(0..=11i64);
        Clause::equals(rhs_attr, value(kind, x, rng))
    } else {
        Clause {
            attr: rhs_attr,
            range: range(kind, rng),
        }
    };
    let mut rule = Rule::new(0, lhs, rhs).with_support(rng.gen_range(1..=6usize));
    if rule.rhs.range.is_point() && rng.gen_bool(0.4) {
        rule.rhs_subtype = LABELS.choose(rng).map(|s| s.to_string());
    }
    rule
}

/// A rule set of 4-40 rules; about one in ten repeats an earlier rule,
/// sometimes with its conclusion's names in another case.
fn random_rule_set(rng: &mut StdRng) -> RuleSet {
    let n = rng.gen_range(4..=40usize);
    let mut rules: Vec<Rule> = Vec::with_capacity(n);
    for _ in 0..n {
        let repeat = !rules.is_empty() && rng.gen_bool(0.1);
        let rule = if repeat {
            let mut r = rules[rng.gen_range(0..rules.len())].clone();
            r.rhs.attr.object = cased(&r.rhs.attr.object, rng);
            r
        } else {
            random_rule(rng)
        };
        rules.push(rule);
    }
    RuleSet::from_rules(rules)
}

/// Relations `E` and `F` over `A`-`K`, with a bounded, an unbounded, a
/// set-valued and a real-valued domain.
fn catalog() -> Database {
    let mut db = Database::new();
    for name in ["E", "F"] {
        let letters = ["a", "c", "e", "g", "i"].map(Value::str).to_vec();
        let schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(8)),
            Attribute::new("A", Domain::int_range("A_DOM", 0, 15)),
            Attribute::new("B", Domain::basic(ValueType::Int)),
            Attribute::new("C", Domain::int_range("C_DOM", 3, 30)),
            Attribute::new(
                "D",
                Domain::named("D_DOM", ValueType::Str)
                    .with_constraint(DomainConstraint::Set(letters)),
            ),
            Attribute::new("K", Domain::basic(ValueType::Real)),
        ])
        .expect("valid schema");
        db.create(Relation::new(name, schema))
            .expect("fresh relation");
    }
    db
}

/// A seed state over one to three slots: ranges (some half-open), value
/// sets, explicit ⊤, and now and then a contradiction.
fn random_state(rng: &mut StdRng) -> AbstractState {
    let mut st = AbstractState::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let (a, kind) = attr(rng);
        let v = match rng.gen_range(0..10u32) {
            0 => AbstractValue::Top,
            1..=2 => {
                let n = rng.gen_range(1..=4usize);
                AbstractValue::set(
                    (0..n)
                        .map(|_| value(kind, rng.gen_range(0..=11i64), rng))
                        .collect(),
                )
            }
            3 => {
                let mut r = range(kind, rng);
                if rng.gen_bool(0.5) {
                    r.lo = None;
                } else {
                    r.hi = None;
                }
                AbstractValue::Range(r)
            }
            _ => AbstractValue::Range(range(kind, rng)),
        };
        st.constrain(&a.object, &a.attribute, &v);
    }
    st
}

/// Findings and saturations seen, so a generator that stops producing
/// them fails the test instead of passing vacuously.
#[derive(Default)]
struct Tally {
    codes: BTreeMap<&'static str, usize>,
    chains: usize,
    emptied: usize,
}

impl Tally {
    fn count(&mut self, report: &Report) {
        for d in &report.diagnostics {
            *self.codes.entry(d.code).or_insert(0) += 1;
        }
    }

    fn assert_covers(&self, codes: &[&str]) {
        for code in codes {
            assert!(
                self.codes.get(code).copied().unwrap_or(0) > 0,
                "no {code} finding in the corpus: {:?}",
                self.codes
            );
        }
        assert!(self.chains > 0, "no saturation fired two rules");
        assert!(self.emptied > 0, "no saturation reached ⊥");
    }
}

/// Every output of the checks on `rules` against the reference.
fn assert_same_checks(
    rules: &RuleSet,
    db: Option<&Database>,
    min_support: usize,
    tally: &mut Tally,
) {
    let cfg = RuleCheckConfig { min_support };
    let got = check_rules(rules, db, &cfg);
    let want = reference::check_rules(rules, db, &cfg);
    assert_eq!(
        got.render_text(),
        want.render_text(),
        "report text for\n{rules}"
    );
    assert_eq!(
        got.render_json(),
        want.render_json(),
        "report JSON for\n{rules}"
    );
    assert_eq!(
        prunable_rules(rules),
        reference::prunable_rules(rules),
        "prune list for\n{rules}"
    );
    let (mut got_min, want_min) = (rules.clone(), reference::minimize(rules));
    let removed = got_min.minimize();
    assert_eq!(
        (got_min.to_string(), removed),
        (want_min.0.to_string(), want_min.1),
        "minimize of\n{rules}"
    );
    assert_eq!(got_min, want_min.0);
    tally.count(&got);
}

/// Saturate random states over `rules`, with and without held-out
/// rules, against the reference.
fn assert_same_saturations(rules: &RuleSet, states: usize, rng: &mut StdRng, tally: &mut Tally) {
    let sat = Saturator::new(rules);
    for _ in 0..states {
        let seed = random_state(rng);
        let skip: Vec<u32> = (0..rng.gen_range(0..=2usize))
            .map(|_| rng.gen_range(1..=rules.len() as u32 + 1))
            .collect();
        let (mut got_state, mut want_state) = (seed.clone(), seed.clone());
        let got = sat.saturate_excluding(&mut got_state, &skip);
        let want = reference::saturate_excluding(rules, &mut want_state, &skip);
        assert_eq!(
            got, want,
            "saturating {seed:?} skipping {skip:?} over\n{rules}"
        );
        assert_eq!(
            got_state, want_state,
            "state after saturating {seed:?} over\n{rules}"
        );
        tally.chains += usize::from(got.fired.len() >= 2);
        tally.emptied += usize::from(got.empty && !seed.is_empty());
    }
}

fn generated_sets(seeds: std::ops::Range<u64>) -> Tally {
    let db = catalog();
    let mut tally = Tally::default();
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = random_rule_set(&mut rng);
        assert_same_checks(&rules, None, 0, &mut tally);
        assert_same_checks(&rules, Some(&db), 3, &mut tally);
        assert_same_saturations(&rules, 20, &mut rng, &mut tally);
    }
    tally
}

const EVERY_RULE_CODE: [&str; 8] = [
    "IC020", "IC021", "IC022", "IC023", "IC024", "IC025", "IC026", "IC027",
];

#[test]
fn generated_rule_sets_check_like_the_reference() {
    generated_sets(0..300).assert_covers(&EVERY_RULE_CODE);
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_checks_like_the_reference() {
    generated_sets(1_000..11_000).assert_covers(&EVERY_RULE_CODE);
}

#[test]
fn induced_fleet_rule_sets_check_like_the_reference() {
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
        let cfg = InductionConfig::default();
        let rules = Ils::new(&model, cfg)
            .induce_parallel(&fleet.db, 2)
            .expect("induction")
            .rules;
        assert!(rules.len() > 400, "seed {seed}: {} rules", rules.len());
        let mut tally = Tally::default();
        assert_same_checks(&rules, Some(&fleet.db), cfg.min_support, &mut tally);
        assert!(
            tally.codes.contains_key("IC025"),
            "seed {seed}: {:?}",
            tally.codes
        );
    }
}

/// The rule checks as they were before the saturator was indexed and
/// the pairwise, subsumption and minimize loops were grouped by
/// conclusion: every pair of rules compared, every rule tested on every
/// saturation pass.
mod reference {
    use intensio::check::diag::{locate, Diagnostic, Report, Severity};
    use intensio::check::RuleCheckConfig;
    use intensio::inference::absint::{AbstractState, AbstractValue, Saturation};
    use intensio::rules::range::ValueRange;
    use intensio::rules::rule::{Rule, RuleSet};
    use intensio::storage::catalog::Database;
    use std::cmp::Ordering;

    fn origin(r: &Rule) -> String {
        format!("R{}", r.id)
    }

    /// A diagnostic whose span points into the rule's own rendered text
    /// (`R3: if ... then ...`), located at `token`.
    fn rule_diag(
        code: &'static str,
        severity: Severity,
        r: &Rule,
        message: String,
        token: &str,
    ) -> Diagnostic {
        let text = r.to_string();
        Diagnostic::new(code, severity, origin(r), message)
            .with_span(locate(&text, token))
            .with_note(text.clone())
    }

    /// Run the rule lints. `db` enables the catalog cross-check (IC024).
    pub fn check_rules(rules: &RuleSet, db: Option<&Database>, cfg: &RuleCheckConfig) -> Report {
        let mut report = Report::new();
        let all = rules.rules();

        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                if let Some(d) = conflict(a, b) {
                    report.push(d);
                }
                if let Some(d) = subsumption(a, b) {
                    report.push(d);
                }
            }
            if cfg.min_support > 0 && a.support < cfg.min_support {
                report.push(rule_diag(
                    "IC023",
                    Severity::Warn,
                    a,
                    format!(
                        "support {} is below the configured threshold N_c = {}",
                        a.support, cfg.min_support
                    ),
                    &format!("R{}", a.id),
                ));
            }
            if let Some(db) = db {
                for c in a.lhs.iter().chain(std::iter::once(&a.rhs)) {
                    let known = db
                        .get(&c.attr.object)
                        .ok()
                        .map(|rel| rel.schema().index_of(&c.attr.attribute).is_some());
                    let (code_needed, what) = match known {
                        None => (true, format!("unknown relation {}", c.attr.object)),
                        Some(false) => (true, format!("unknown attribute {}", c.attr)),
                        Some(true) => (false, String::new()),
                    };
                    if code_needed {
                        report.push(rule_diag(
                            "IC024",
                            Severity::Warn,
                            a,
                            format!("rule references {what}, absent from the catalog"),
                            &c.attr.attribute,
                        ));
                        break;
                    }
                }
            }
        }

        gaps(all, &mut report);
        saturation_lints(rules, db, &mut report);
        report.sort();
        report
    }

    /// IC025/IC026/IC027 over the whole rule base.
    fn saturation_lints(rules: &RuleSet, db: Option<&Database>, report: &mut Report) {
        let all = rules.rules();
        for r in all {
            if r.lhs.is_empty() {
                continue;
            }
            // IC026: a premise clause the schema domain cannot satisfy, or a
            // self-contradictory premise, makes the rule dead weight.
            if let Some(d) = dead_premise(r, db) {
                report.push(d);
                continue; // the other lints assume a satisfiable premise
            }
            let mut premise = AbstractState::new();
            for c in &r.lhs {
                premise.constrain(
                    &c.attr.object,
                    &c.attr.attribute,
                    &AbstractValue::Range(c.range.clone()),
                );
            }
            if premise.is_empty() {
                continue; // handled by dead_premise above
            }

            // IC025: is the conclusion derivable from the rest of the set?
            // (Direct one-rule subsumption is IC021's finding — skip it.)
            let directly_subsumed = all.iter().any(|o| o.id != r.id && subsumes(o, r));
            if !directly_subsumed {
                let mut st = premise.clone();
                let sat = saturate_excluding(rules, &mut st, &[r.id]);
                if !sat.empty && !sat.fired.is_empty() {
                    let derived = st.value_of(&r.rhs.attr.object, &r.rhs.attr.attribute);
                    let range_ok =
                        !matches!(derived, AbstractValue::Top) && derived.within(&r.rhs.range);
                    // A subtype-labelled conclusion must be re-derived with
                    // the same label, not just a compatible range.
                    let label_ok = r.rhs_subtype.is_none()
                        || sat.fired.iter().filter_map(|id| rules.get(*id)).any(|s| {
                            s.rhs
                                .attr
                                .matches(&r.rhs.attr.object, &r.rhs.attr.attribute)
                                && s.rhs_subtype == r.rhs_subtype
                        });
                    if range_ok && label_ok {
                        let chain = sat
                            .fired
                            .iter()
                            .map(|id| format!("R{id}"))
                            .collect::<Vec<_>>()
                            .join(" -> ");
                        let mut d = rule_diag(
                            "IC025",
                            Severity::Warn,
                            r,
                            format!(
                                "derivable by chaining {chain}: from this rule's premise the rest \
                                 of the set already concludes {} {derived}",
                                r.rhs.attr
                            ),
                            &format!("R{}", r.id),
                        )
                        .with_note(format!("prune-candidate: R{}", r.id));
                        for id in &sat.fired {
                            if let Some(s) = rules.get(*id) {
                                d = d.with_note(format!("via {s}"));
                            }
                        }
                        report.push(d);
                    }
                }
            }

            // IC027: firing the rule, does the chained closure contradict
            // itself? (Pairwise direct conflicts stay IC020's finding.)
            let mut st = premise.clone();
            st.constrain(
                &r.rhs.attr.object,
                &r.rhs.attr.attribute,
                &AbstractValue::Range(r.rhs.range.clone()),
            );
            if st.is_empty() {
                continue; // conclusion contradicts own premise: dead_premise territory
            }
            let sat = saturate_excluding(rules, &mut st, &[r.id]);
            if !sat.empty || sat.fired.is_empty() {
                continue;
            }
            if sat.fired.len() == 1 {
                let direct = rules
                    .get(sat.fired[0])
                    .map(|s| conflict(r, s).is_some() || conflict(s, r).is_some())
                    .unwrap_or(false);
                if direct {
                    continue; // already an IC020
                }
            }
            let chain = std::iter::once(format!("R{}", r.id))
                .chain(sat.fired.iter().map(|id| format!("R{id}")))
                .collect::<Vec<_>>()
                .join(" -> ");
            let mut d = rule_diag(
                "IC027",
                Severity::Error,
                r,
                format!(
                    "chained conflict: any instance firing R{} is contradicted by the \
                     derivation {chain} — the closure admits no tuple",
                    r.id
                ),
                &format!("R{}", r.id),
            );
            for id in &sat.fired {
                if let Some(s) = rules.get(*id) {
                    d = d.with_note(format!("via {s}"));
                }
            }
            report.push(d);
        }
    }

    /// IC026: hold each premise clause against the declared domain (when a
    /// catalog is available) and against the rule's own other clauses.
    fn dead_premise(r: &Rule, db: Option<&Database>) -> Option<Diagnostic> {
        if let Some(db) = db {
            for c in &r.lhs {
                let Ok(rel) = db.get(&c.attr.object) else {
                    continue; // IC024 reports missing catalog entries
                };
                let Some(idx) = rel.schema().index_of(&c.attr.attribute) else {
                    continue;
                };
                let dom = rel.schema().attr(idx).domain();
                let dv = AbstractValue::from_domain(dom);
                if dv.meet(&AbstractValue::Range(c.range.clone())).is_bottom() {
                    return Some(rule_diag(
                        "IC026",
                        Severity::Warn,
                        r,
                        format!(
                            "dead rule: the declared domain {} admits no value in the premise \
                             {} {} — the rule can never fire",
                            dom.name(),
                            c.attr,
                            c.range
                        ),
                        &c.attr.attribute,
                    ));
                }
            }
        }
        // Self-contradictory premise: two clauses on one attribute with an
        // empty intersection.
        for (i, a) in r.lhs.iter().enumerate() {
            for b in r.lhs.iter().skip(i + 1) {
                if a.attr.matches(&b.attr.object, &b.attr.attribute)
                    && !a.range.intersects(&b.range)
                {
                    return Some(rule_diag(
                        "IC026",
                        Severity::Warn,
                        r,
                        format!(
                            "dead rule: premise clauses {} {} and {} {} admit no common value — \
                             the rule can never fire",
                            a.attr, a.range, b.attr, b.range
                        ),
                        &a.attr.attribute,
                    ));
                }
            }
        }
        None
    }

    /// The machine-readable prune list: ids of rules redundant under the
    /// rest of the set — directly subsumed (IC021, what
    /// [`RuleSet::minimize`] removes) or derivable by chaining (IC025).
    /// Deterministic: ascending id order.
    pub fn prunable_rules(rules: &RuleSet) -> Vec<u32> {
        let all = rules.rules();
        let mut out = Vec::new();
        for r in all {
            if r.lhs.is_empty() {
                continue;
            }
            if all.iter().any(|o| o.id != r.id && subsumes(o, r)) {
                out.push(r.id);
                continue;
            }
            let mut st = AbstractState::new();
            for c in &r.lhs {
                st.constrain(
                    &c.attr.object,
                    &c.attr.attribute,
                    &AbstractValue::Range(c.range.clone()),
                );
            }
            if st.is_empty() {
                continue;
            }
            let sat = saturate_excluding(rules, &mut st, &[r.id]);
            if sat.empty || sat.fired.is_empty() {
                continue;
            }
            let derived = st.value_of(&r.rhs.attr.object, &r.rhs.attr.attribute);
            let range_ok = !matches!(derived, AbstractValue::Top) && derived.within(&r.rhs.range);
            let label_ok = r.rhs_subtype.is_none()
                || sat.fired.iter().filter_map(|id| rules.get(*id)).any(|s| {
                    s.rhs
                        .attr
                        .matches(&r.rhs.attr.object, &r.rhs.attr.attribute)
                        && s.rhs_subtype == r.rhs_subtype
                });
            if range_ok && label_ok {
                out.push(r.id);
            }
        }
        out
    }

    /// IC020: could one tuple fire both rules while the conclusions
    /// disagree?
    fn conflict(a: &Rule, b: &Rule) -> Option<Diagnostic> {
        if !a
            .rhs
            .attr
            .matches(&b.rhs.attr.object, &b.rhs.attr.attribute)
        {
            return None;
        }
        let conclusions_clash = match (&a.rhs_subtype, &b.rhs_subtype) {
            (Some(x), Some(y)) if !x.eq_ignore_ascii_case(y) => true,
            _ => !a.rhs.range.intersects(&b.rhs.range),
        };
        if !conclusions_clash {
            return None;
        }
        // Premises must share an attribute, and every shared attribute's
        // ranges must overlap (non-shared attributes are freely satisfiable).
        let mut shared = 0usize;
        for ca in &a.lhs {
            let Some(cb) = b.lhs_clause(&ca.attr.object, &ca.attr.attribute) else {
                continue;
            };
            shared += 1;
            if !ca.range.intersects(&cb.range) {
                return None;
            }
        }
        if shared == 0 {
            return None;
        }
        let overlap = a
            .lhs
            .iter()
            .find_map(|ca| {
                b.lhs_clause(&ca.attr.object, &ca.attr.attribute)
                    .and_then(|cb| ca.range.intersect(&cb.range))
                    .map(|r| format!("{} {r}", ca.attr))
            })
            .unwrap_or_default();
        Some(
            rule_diag(
                "IC020",
                Severity::Error,
                a,
                format!(
                    "conflicts with R{}: premises overlap ({overlap}) but conclusions on {} \
                     admit no common value",
                    b.id, a.rhs.attr
                ),
                &a.rhs.attr.attribute,
            )
            .with_note(b.to_string()),
        )
    }

    /// IC021: `b` is redundant because `a` (or vice versa) is strictly wider
    /// with the same conclusion — the predicate [`RuleSet::minimize`] uses.
    fn subsumption(a: &Rule, b: &Rule) -> Option<Diagnostic> {
        let (wide, narrow) = if subsumes(a, b) {
            (a, b)
        } else if subsumes(b, a) {
            (b, a)
        } else {
            return None;
        };
        Some(
            rule_diag(
                "IC021",
                Severity::Warn,
                narrow,
                format!(
                    "subsumed by the wider rule R{}: every query it answers, R{} answers",
                    wide.id, wide.id
                ),
                &format!("R{}", narrow.id),
            )
            .with_note(wide.to_string()),
        )
    }

    fn subsumes(a: &Rule, b: &Rule) -> bool {
        let same_consequence = a.rhs.attr == b.rhs.attr
            && a.rhs.range == b.rhs.range
            && a.rhs_subtype == b.rhs_subtype;
        if !same_consequence {
            return false;
        }
        let covers = a.lhs.iter().all(|ca| {
            b.lhs_clause(&ca.attr.object, &ca.attr.attribute)
                .map(|cb| ca.range.subsumes(&cb.range))
                .unwrap_or(false)
        });
        covers && (a.lhs != b.lhs || a.id < b.id)
    }

    /// IC022: within each family of single-premise rules over the same
    /// `(premise attribute, conclusion attribute)`, report the holes between
    /// consecutive premise ranges.
    fn gaps(all: &[Rule], report: &mut Report) {
        let mut families: Vec<(&Rule, &ValueRange)> = Vec::new();
        let mut seen: Vec<usize> = Vec::new();
        for (i, r) in all.iter().enumerate() {
            if seen.contains(&i) || r.lhs.len() != 1 {
                continue;
            }
            families.clear();
            families.push((r, &r.lhs[0].range));
            for (j, s) in all.iter().enumerate().skip(i + 1) {
                if s.lhs.len() == 1
                    && s.lhs[0]
                        .attr
                        .matches(&r.lhs[0].attr.object, &r.lhs[0].attr.attribute)
                    && s.rhs
                        .attr
                        .matches(&r.rhs.attr.object, &r.rhs.attr.attribute)
                {
                    seen.push(j);
                    families.push((s, &s.lhs[0].range));
                }
            }
            if families.len() < 2 {
                continue;
            }
            families.sort_by(|(_, x), (_, y)| cmp_lo(x, y));
            for w in families.windows(2) {
                let ((ra, x), (rb, y)) = (w[0], w[1]);
                if x.intersects(y) || x.merge(y).is_some() {
                    continue; // overlapping or adjacent: no hole
                }
                let (Some(hi), Some(lo)) = (&x.hi, &y.lo) else {
                    continue;
                };
                report.push(
                    rule_diag(
                        "IC022",
                        Severity::Info,
                        ra,
                        format!(
                            "gap between R{} and R{} on {}: values in ({}, {}) match no rule, \
                             so backward inference cannot characterize them",
                            ra.id, rb.id, ra.lhs[0].attr, hi.value, lo.value
                        ),
                        &format!("R{}", ra.id),
                    )
                    .with_note(rb.to_string()),
                );
            }
        }
    }

    fn cmp_lo(a: &ValueRange, b: &ValueRange) -> Ordering {
        match (&a.lo, &b.lo) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => x.value.total_cmp(&y.value),
        }
    }

    /// The linear fixpoint iteration: every pass tests every rule.
    pub fn saturate_excluding(
        rules: &RuleSet,
        state: &mut AbstractState,
        skip: &[u32],
    ) -> Saturation {
        let mut out = Saturation::default();
        if state.is_empty() {
            out.empty = true;
            return out;
        }
        // Each productive pass fires at least one rule; a rule's conclusion
        // can tighten a slot at most twice (once per endpoint) before the
        // meet is idempotent, so 2·|rules| + 1 passes always suffice.
        let max_passes = rules.len() * 2 + 1;
        for _ in 0..max_passes {
            let mut changed = false;
            for rule in rules.iter() {
                if rule.lhs.is_empty() || skip.contains(&rule.id) {
                    continue;
                }
                let applicable = rule.lhs.iter().all(|cl| {
                    let v = state.value_of(&cl.attr.object, &cl.attr.attribute);
                    !matches!(v, AbstractValue::Top) && v.within(&cl.range)
                });
                if !applicable {
                    continue;
                }
                let conclusion = AbstractValue::Range(rule.rhs.range.clone());
                if state.constrain(&rule.rhs.attr.object, &rule.rhs.attr.attribute, &conclusion) {
                    out.fired.push(rule.id);
                    changed = true;
                    if state.is_empty() {
                        out.empty = true;
                        return out;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        out.empty = state.is_empty();
        out
    }

    /// `RuleSet::minimize`, all pairs, returning the kept set and the
    /// number removed.
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
                // Every clause of a must subsume b's clause on the same
                // attribute (and a must not constrain attributes b does
                // not — that would make a narrower).
                let a_subsumes_b = a.lhs.iter().all(|ca| {
                    b.lhs_clause(&ca.attr.object, &ca.attr.attribute)
                        .map(|cb| ca.range.subsumes(&cb.range))
                        .unwrap_or(false)
                });
                let strictly_wider = a_subsumes_b && (a.lhs != b.lhs || a.id < b.id);
                if strictly_wider {
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
}
