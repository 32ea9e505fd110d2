//! Rule-set lints: static analysis over induced (or hand-written) rule
//! sets.
//!
//! | code | severity | finding |
//! |---|---|---|
//! | IC020 | error | conflicting rules: jointly satisfiable premises, incompatible conclusions |
//! | IC021 | warning | rule subsumed by a wider rule with the same conclusion |
//! | IC022 | info | range gap between premises concluding on the same attribute (weakens backward inference) |
//! | IC023 | warning | support below the configured `N_c` |
//! | IC024 | warning | rule references a relation or attribute missing from the catalog |
//! | IC025 | warning | rule derivable from the rest of the set by chaining (prune candidate) |
//! | IC026 | warning | dead rule: premise unsatisfiable given the schema domains |
//! | IC027 | error | chained conflict: firing the rule enables a derivation that admits no tuple |
//!
//! **Conflicts (IC020).** Two rules conflict when a single tuple could
//! fire both while their conclusions disagree. That requires (a)
//! conclusions on the same attribute that admit no common value (disjoint
//! ranges, or distinct subtype labels), and (b) jointly satisfiable
//! premises. We require the premises to *share at least one attribute*
//! (every shared attribute's ranges overlapping): rules premised on
//! entirely different attributes (`Displacement → SSN` vs
//! `Class → SSBN`) are exactly what pairwise induction produces for
//! every classifier and are consistent on the observed data — flagging
//! them would reject every organically induced rule set.
//!
//! **Gaps (IC022)** are informational: induction from sparse data always
//! leaves gaps between runs (`6955 < Displacement < 7250` belongs to no
//! rule), and a backward query landing in the gap simply gets no
//! intensional answer. The lint surfaces where that will happen.
//!
//! **Saturation lints (IC025–IC027)** reason over the *whole* rule base
//! with the shared abstract-interpretation engine. For each rule the
//! premise seeds an abstract state and the **rest** of the set is
//! applied forward to saturation: if the state ends up inside the
//! rule's own conclusion, the rule is derivable by chaining and a prune
//! candidate (IC025 — a strict superset of IC021's direct subsumption,
//! which is reported there and skipped here); if additionally meeting
//! the rule's own conclusion lets the chain drive the state to ⊥, any
//! instance firing the rule is contradictory (IC027 — the chained
//! upgrade of the pairwise IC020). IC026 holds the schema domains
//! against each premise clause: a premise no domain value can satisfy
//! means the rule can never fire.
//!
//! Only **directly** subsumed rules (IC021, [`RuleSet::minimize`]) are
//! safe to auto-prune: the inference engine applies rules one at a
//! time, so a chain-derivable rule (IC025) may still be the only
//! single-step answer to some query. IC025 therefore reports a prune
//! list ([`prunable_rules`]) but serve only ever minimizes.

use crate::diag::{locate, Diagnostic, Report, Severity};
use intensio_inference::absint::{AbstractState, AbstractValue, Saturator};
use intensio_rules::range::ValueRange;
use intensio_rules::rule::{Rule, RuleSet};
use intensio_storage::catalog::Database;
use std::cmp::Ordering;

/// Configuration for the rule pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleCheckConfig {
    /// The induction support threshold `N_c`; rules below it draw
    /// IC023. `0` disables the support lint.
    pub min_support: usize,
}

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
    let groups = rules.conclusion_groups();

    // Conflicts and subsumption need both conclusions on one attribute,
    // so only rules of one group are compared. Both also need a premise
    // attribute in common — unless one premise is empty, which subsumes
    // any premise — so pairs whose premise masks are disjoint are skipped.
    let masks: Vec<u64> = all.iter().map(premise_mask).collect();
    for group in &groups {
        for (k, &i) in group.iter().enumerate() {
            for &j in &group[k + 1..] {
                if masks[i] & masks[j] == 0 && masks[i] != 0 && masks[j] != 0 {
                    continue;
                }
                let (a, b) = (&all[i], &all[j]);
                if let Some(d) = conflict(a, b) {
                    report.push(d);
                }
                if let Some(d) = subsumption(a, b) {
                    report.push(d);
                }
            }
        }
    }
    for a in all {
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

    gaps(all, &groups, &mut report);
    saturation_lints(rules, &groups, db, &mut report);
    report.sort();
    report
}

/// One bit per premise attribute of `r` (a hash of its name, folded
/// to 64 bits): two rules whose masks are disjoint share no premise
/// attribute.
fn premise_mask(r: &Rule) -> u64 {
    r.lhs.iter().fold(0, |mask, c| {
        let name = c
            .attr
            .object
            .bytes()
            .chain([b'.'])
            .chain(c.attr.attribute.bytes());
        let hash = name.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0100_0000_01b3)
        });
        mask | 1 << (hash % 64)
    })
}

/// The abstract state admitting exactly what `r`'s premise admits.
fn premise_state(r: &Rule) -> AbstractState {
    let mut st = AbstractState::new();
    for c in &r.lhs {
        st.constrain(
            &c.attr.object,
            &c.attr.attribute,
            &AbstractValue::Range(c.range.clone()),
        );
    }
    st
}

/// Whether another rule of `r`'s conclusion group directly subsumes it
/// (IC021, what [`RuleSet::minimize`] removes).
fn directly_subsumed(all: &[Rule], group: &[usize], r: &Rule) -> bool {
    group
        .iter()
        .any(|&p| all[p].id != r.id && subsumes(&all[p], r))
}

/// IC025's test: saturating `premise` (a satisfiable premise of `r`)
/// over the rest of the set derives `r`'s own conclusion — with its
/// subtype label, when it has one. Returns the firing chain and the
/// derived value of the conclusion attribute.
fn derived_by_chaining(
    sat: &Saturator,
    r: &Rule,
    premise: &AbstractState,
) -> Option<(Vec<u32>, AbstractValue)> {
    let mut st = premise.clone();
    let chain = sat.saturate_excluding(&mut st, &[r.id]);
    if chain.empty || chain.fired.is_empty() {
        return None;
    }
    let derived = st.value_of(&r.rhs.attr.object, &r.rhs.attr.attribute);
    let range_ok = !matches!(derived, AbstractValue::Top) && derived.within(&r.rhs.range);
    // A subtype-labelled conclusion must be re-derived with the same
    // label, not just a compatible range.
    let label_ok = r.rhs_subtype.is_none()
        || chain
            .fired
            .iter()
            .filter_map(|id| sat.rules().get(*id))
            .any(|s| {
                s.rhs
                    .attr
                    .matches(&r.rhs.attr.object, &r.rhs.attr.attribute)
                    && s.rhs_subtype == r.rhs_subtype
            });
    (range_ok && label_ok).then(|| (chain.fired, derived.clone()))
}

/// IC025/IC026/IC027 over the whole rule base.
fn saturation_lints(
    rules: &RuleSet,
    groups: &[Vec<usize>],
    db: Option<&Database>,
    report: &mut Report,
) {
    let all = rules.rules();
    let saturator = Saturator::new(rules);
    for (r, group) in all.iter().zip(group_of(groups, all.len())) {
        if r.lhs.is_empty() {
            continue;
        }
        // IC026: a premise clause the schema domain cannot satisfy, or a
        // self-contradictory premise, makes the rule dead weight.
        if let Some(d) = dead_premise(r, db) {
            report.push(d);
            continue; // the other lints assume a satisfiable premise
        }
        let premise = premise_state(r);
        if premise.is_empty() {
            continue; // handled by dead_premise above
        }

        // IC025: is the conclusion derivable from the rest of the set?
        // (Direct one-rule subsumption is IC021's finding — skip it.)
        if !directly_subsumed(all, &groups[group], r) {
            if let Some((fired, derived)) = derived_by_chaining(&saturator, r, &premise) {
                let chain = fired
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
                for id in &fired {
                    if let Some(s) = rules.get(*id) {
                        d = d.with_note(format!("via {s}"));
                    }
                }
                report.push(d);
            }
        }

        // IC027: firing the rule, does the chained closure contradict
        // itself? (Pairwise direct conflicts stay IC020's finding.)
        let mut st = premise;
        st.constrain(
            &r.rhs.attr.object,
            &r.rhs.attr.attribute,
            &AbstractValue::Range(r.rhs.range.clone()),
        );
        if st.is_empty() {
            continue; // conclusion contradicts own premise: dead_premise territory
        }
        let sat = saturator.saturate_excluding(&mut st, &[r.id]);
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
            if a.attr.matches(&b.attr.object, &b.attr.attribute) && !a.range.intersects(&b.range) {
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
    let groups = rules.conclusion_groups();
    let sat = Saturator::new(rules);
    let mut out = Vec::new();
    for (r, group) in all.iter().zip(group_of(&groups, all.len())) {
        if r.lhs.is_empty() {
            continue;
        }
        if directly_subsumed(all, &groups[group], r) {
            out.push(r.id);
            continue;
        }
        let premise = premise_state(r);
        if !premise.is_empty() && derived_by_chaining(&sat, r, &premise).is_some() {
            out.push(r.id);
        }
    }
    out
}

/// Per rule position, the index of its group in `groups`.
fn group_of(groups: &[Vec<usize>], rules: usize) -> Vec<usize> {
    let mut out = vec![0; rules];
    for (g, group) in groups.iter().enumerate() {
        for &pos in group {
            out[pos] = g;
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
    let same_consequence =
        a.rhs.attr == b.rhs.attr && a.rhs.range == b.rhs.range && a.rhs_subtype == b.rhs_subtype;
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
/// consecutive premise ranges. Families never span conclusion groups.
fn gaps(all: &[Rule], groups: &[Vec<usize>], report: &mut Report) {
    for group in groups {
        // Each family in id order, keyed by its first rule's premise.
        let mut families: Vec<Vec<(&Rule, &ValueRange)>> = Vec::new();
        for &pos in group {
            let r = &all[pos];
            let [premise] = r.lhs.as_slice() else {
                continue;
            };
            let same_premise = |f: &&mut Vec<(&Rule, &ValueRange)>| {
                let head = &f[0].0.lhs[0].attr;
                head.matches(&premise.attr.object, &premise.attr.attribute)
            };
            match families.iter_mut().find(same_premise) {
                Some(f) => f.push((r, &premise.range)),
                None => families.push(vec![(r, &premise.range)]),
            }
        }
        for mut family in families {
            if family.len() < 2 {
                continue;
            }
            family.sort_by(|(_, x), (_, y)| cmp_lo(x, y));
            for w in family.windows(2) {
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
}

fn cmp_lo(a: &ValueRange, b: &ValueRange) -> Ordering {
    match (&a.lo, &b.lo) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => x.value.total_cmp(&y.value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_rules::rule::{AttrId, Clause};

    fn rule(lo: i64, hi: i64, concl: &str) -> Rule {
        Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "V"), lo, hi)],
            Clause::equals(AttrId::new("G", "Cat"), concl),
        )
        .with_support(5)
    }

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn conflicting_rules_are_ic020() {
        let rs = RuleSet::from_rules([rule(1, 5, "A"), rule(3, 8, "B")]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC020"), "{}", r.render_text());
        assert!(r.has_errors());
        let d = r.diagnostics.iter().find(|d| d.code == "IC020").unwrap();
        assert!(d.message.contains("conflicts with R2"));
        assert_eq!(d.notes.len(), 2, "own text + the other rule");
    }

    #[test]
    fn disjoint_premises_do_not_conflict() {
        let rs = RuleSet::from_rules([rule(1, 5, "A"), rule(6, 9, "B")]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(!codes(&r).contains(&"IC020"), "{}", r.render_text());
    }

    #[test]
    fn different_premise_attributes_do_not_conflict() {
        let a = rule(1, 5, "A");
        let b = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "W"), 1, 5)],
            Clause::equals(AttrId::new("G", "Cat"), "B"),
        )
        .with_support(5);
        let rs = RuleSet::from_rules([a, b]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(!codes(&r).contains(&"IC020"), "{}", r.render_text());
    }

    #[test]
    fn subtype_labels_clash_is_ic020() {
        let mut a = rule(1, 5, "X");
        a.rhs_subtype = Some("SSBN".into());
        let mut b = rule(3, 8, "X");
        b.rhs_subtype = Some("SSN".into());
        let rs = RuleSet::from_rules([a, b]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC020"), "{}", r.render_text());
    }

    #[test]
    fn subsumed_rule_is_ic021() {
        let rs = RuleSet::from_rules([rule(0, 100, "A"), rule(10, 20, "A")]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC021"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "IC021").unwrap();
        assert_eq!(d.origin, "R2", "the narrow rule carries the lint");
    }

    #[test]
    fn gap_is_ic022_info_only() {
        let rs = RuleSet::from_rules([rule(1, 5, "A"), rule(9, 12, "A")]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC022"), "{}", r.render_text());
        assert!(!r.fails(true), "info findings never fail the run");
    }

    #[test]
    fn low_support_is_ic023() {
        let rs = RuleSet::from_rules([rule(1, 5, "A").with_support(1)]);
        let r = check_rules(&rs, None, &RuleCheckConfig { min_support: 3 });
        assert!(codes(&r).contains(&"IC023"), "{}", r.render_text());
        let clean = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(!clean.diagnostics.iter().any(|d| d.code == "IC023"));
    }

    #[test]
    fn unknown_catalog_reference_is_ic024() {
        let db = Database::new();
        let rs = RuleSet::from_rules([rule(1, 5, "A")]);
        let r = check_rules(&rs, Some(&db), &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC024"), "{}", r.render_text());
    }

    #[test]
    fn chain_derivable_rule_is_ic025_with_prune_note() {
        // R1: V in [0,10] -> W = 5;  R2: W in [4,6] -> Cat = A;
        // R3: V in [2,8]  -> Cat = A   — derivable by chaining R1 -> R2,
        // but NOT directly subsumed (no single rule with a wider premise
        // over V concludes Cat = A).
        let r1 = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "V"), 0, 10)],
            Clause::equals(AttrId::new("E", "W"), 5),
        )
        .with_support(5);
        let r2 = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "W"), 4, 6)],
            Clause::equals(AttrId::new("G", "Cat"), "A"),
        )
        .with_support(5);
        let r3 = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "V"), 2, 8)],
            Clause::equals(AttrId::new("G", "Cat"), "A"),
        )
        .with_support(5);
        let rs = RuleSet::from_rules([r1, r2, r3]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "IC025")
            .unwrap_or_else(|| panic!("chain subsumption missed:\n{}", r.render_text()));
        assert_eq!(d.origin, "R3", "the redundant rule carries the lint");
        assert!(d.message.contains("R1 -> R2"), "{}", d.message);
        assert!(
            d.notes.iter().any(|n| n == "prune-candidate: R3"),
            "machine-readable prune note: {:?}",
            d.notes
        );
        assert!(!codes(&r).contains(&"IC021"), "not a direct subsumption");
        assert_eq!(prunable_rules(&rs), vec![3]);
    }

    #[test]
    fn directly_subsumed_rule_stays_ic021_not_ic025() {
        let rs = RuleSet::from_rules([rule(0, 100, "A"), rule(10, 20, "A")]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC021"), "{}", r.render_text());
        assert!(!codes(&r).contains(&"IC025"), "{}", r.render_text());
        // ... but the prune list covers both kinds of redundancy.
        assert_eq!(prunable_rules(&rs), vec![2]);
    }

    #[test]
    fn domain_dead_premise_is_ic026() {
        use intensio_storage::domain::Domain;
        use intensio_storage::relation::Relation;
        use intensio_storage::schema::{Attribute, Schema};
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(8)),
            Attribute::new("V", Domain::int_range("V_DOM", 0, 100)),
        ])
        .unwrap();
        db.create(Relation::new("E", schema)).unwrap();
        // Premise V in [500, 900] can never hold in range [0..100].
        let dead = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "V"), 500, 900)],
            Clause::equals(AttrId::new("E", "Id"), "X"),
        )
        .with_support(5);
        let rs = RuleSet::from_rules([dead]);
        let r = check_rules(&rs, Some(&db), &RuleCheckConfig::default());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "IC026")
            .unwrap_or_else(|| panic!("dead premise missed:\n{}", r.render_text()));
        assert!(d.message.contains("can never fire"), "{}", d.message);
        assert!(!r.has_errors(), "IC026 is a warning");
    }

    #[test]
    fn self_contradictory_premise_is_ic026_without_a_catalog() {
        let dead = Rule::new(
            0,
            vec![
                Clause::between(AttrId::new("E", "V"), 0, 5),
                Clause::between(AttrId::new("E", "V"), 10, 20),
            ],
            Clause::equals(AttrId::new("G", "Cat"), "A"),
        )
        .with_support(5);
        let rs = RuleSet::from_rules([dead]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC026"), "{}", r.render_text());
    }

    #[test]
    fn conflict_reachable_only_through_chaining_is_ic027() {
        // R1: V in [0,10] -> W = 5;  R2: W in [4,6] -> X = 1;
        // R3: V in [2,8]  -> X = 9.
        // R3 and R2 share no premise attribute (IC020 stays silent), yet
        // any instance firing R3 also fires R1 then R2, deriving X = 1
        // against R3's own X = 9.
        let r1 = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "V"), 0, 10)],
            Clause::equals(AttrId::new("E", "W"), 5),
        )
        .with_support(5);
        let r2 = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "W"), 4, 6)],
            Clause::equals(AttrId::new("E", "X"), 1),
        )
        .with_support(5);
        let r3 = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "V"), 2, 8)],
            Clause::equals(AttrId::new("E", "X"), 9),
        )
        .with_support(5);
        let rs = RuleSet::from_rules([r1, r2, r3]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(!codes(&r).contains(&"IC020"), "{}", r.render_text());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "IC027")
            .unwrap_or_else(|| panic!("chained conflict missed:\n{}", r.render_text()));
        assert_eq!(d.origin, "R3");
        assert!(d.message.contains("R3 -> R1 -> R2"), "{}", d.message);
        assert!(r.has_errors(), "IC027 is an error");
    }

    #[test]
    fn direct_conflicts_stay_ic020_not_ic027() {
        let rs = RuleSet::from_rules([rule(1, 5, "A"), rule(3, 8, "B")]);
        let r = check_rules(&rs, None, &RuleCheckConfig::default());
        assert!(codes(&r).contains(&"IC020"), "{}", r.render_text());
        assert!(!codes(&r).contains(&"IC027"), "{}", r.render_text());
    }
}
