//! Query lints: SQL and QUEL statements checked against the catalog and
//! the induced rule set.
//!
//! | code | severity | finding |
//! |---|---|---|
//! | IC000 | error | query failed to parse |
//! | IC040 | error | unknown relation |
//! | IC041 | error | unknown or ambiguous attribute / range variable |
//! | IC042 | error | type-mismatched comparison |
//! | IC043 | error | contradictory restrictions (condition self-empty) |
//! | IC044 | error | condition provably empty under the induced rules |
//! | IC045 | warning | restriction vacuously false (or true) against the declared domain |
//!
//! **Soundness of IC043/IC044.** The condition is split into a bounded
//! disjunctive normal form; within each disjunct only conjuncts of the
//! form `attr op constant` participate. Dropping the other conjuncts
//! (joins, negations, arithmetic) keeps a *superset* of the disjunct's
//! answer set, and a disjunction is empty iff **all** its disjuncts
//! are, so proving every abstract disjunct empty proves the query
//! empty. Per disjunct the restrictions seed an
//! [`AbstractState`](intensio_inference::absint::AbstractState) (meet
//! of the declared domain and the query ranges, every other attribute
//! of the relation at its domain value) and the rule set is applied
//! forward to **saturation** — the paper's Modus Ponens direction,
//! chained: when the state's value on every premise attribute is
//! contained in the premise range, the conclusion holds for every
//! admitted tuple and is met into the state, possibly enabling further
//! rules. Each meet only removes tuples the rules prove impossible, so
//! a ⊥ state is a sound emptiness proof; the fired rules are returned
//! as the derivation chain.

use crate::diag::{locate_word, Diagnostic, Report, Severity};
use intensio_inference::absint::{AbstractState, AbstractValue, Saturator};
use intensio_ker::coerce_value;
use intensio_rules::range::ValueRange;
use intensio_rules::rule::RuleSet;
use intensio_storage::catalog::Database;
use intensio_storage::expr::{AttrRef, CmpOp, Expr};
use intensio_storage::value::Value;
use std::collections::BTreeMap;

/// Disjunct cap for the DNF split. A condition that expands past this
/// is analyzed as an opaque (unconstrained) leaf instead — sound, just
/// imprecise.
const MAX_DISJUNCTS: usize = 16;

/// One resolved `attr op constant` restriction, tagged with the tuple
/// variable (SQL alias or QUEL range variable) it constrains.
struct Cond {
    alias: String,
    relation: String,
    attribute: String,
    op: CmpOp,
    value: Value,
    /// The attribute's declared domain as an abstract value (interval
    /// and/or finite set). Query ranges are clamped by it before
    /// forward inference — exactly what lets `Displacement > 8000` sit
    /// inside a `[7250, 30000]` premise.
    domain: AbstractValue,
}

/// Check one SQL `SELECT` against the catalog and rules.
pub fn check_sql(sql_text: &str, db: &Database, rules: &RuleSet) -> Report {
    let mut report = Report::new();
    let q = match intensio_sql::parse(sql_text) {
        Ok(q) => q,
        Err(e) => {
            report.push(Diagnostic::new(
                "IC000",
                Severity::Error,
                "query",
                format!("query failed to parse: {e}"),
            ));
            return report;
        }
    };

    // Relations.
    let mut tables: Vec<(String, String)> = Vec::new(); // (alias, relation)
    let mut missing = false;
    for t in &q.from {
        if db.get(&t.name).is_err() {
            missing = true;
            report.push(unknown_relation(sql_text, &t.name));
        } else {
            tables.push((t.alias.clone(), t.name.clone()));
        }
    }
    if missing {
        report.sort();
        return report;
    }

    // Attribute references in the select list, WHERE, GROUP/ORDER BY.
    let mut refs: Vec<&AttrRef> = Vec::new();
    for item in &q.targets {
        match item {
            intensio_sql::SelectItem::Attr { attr, .. } => refs.push(attr),
            intensio_sql::SelectItem::Aggregate { arg: Some(a), .. } => refs.push(a),
            _ => {}
        }
    }
    if let Some(w) = &q.where_clause {
        refs.extend(w.attr_refs());
    }
    refs.extend(q.group_by.iter());
    refs.extend(q.order_by.iter());
    for a in refs {
        if let Err(d) = resolve(sql_text, db, &tables, a) {
            if !report.diagnostics.contains(&d) {
                report.push(d);
            }
        }
    }
    if report.has_errors() {
        report.sort();
        return report;
    }

    if let Some(w) = &q.where_clause {
        check_qual(sql_text, db, rules, &tables, w, &mut report);
    }
    report.sort();
    report
}

/// Check a QUEL script (any number of statements) against the catalog
/// and rules. `range of` declarations accumulate across the script, as
/// in a session.
pub fn check_quel(script: &str, db: &Database, rules: &RuleSet) -> Report {
    let mut report = Report::new();
    let stmts = match intensio_quel::parse_script(script) {
        Ok(s) => s,
        Err(e) => {
            report.push(Diagnostic::new(
                "IC000",
                Severity::Error,
                "query",
                format!("query failed to parse: {e}"),
            ));
            return report;
        }
    };

    let mut tables: Vec<(String, String)> = Vec::new(); // (var, relation)
    for stmt in &stmts {
        match stmt {
            intensio_quel::Statement::Range { var, relation } => {
                if db.get(relation).is_err() {
                    report.push(unknown_relation(script, relation));
                } else {
                    tables.retain(|(v, _)| !v.eq_ignore_ascii_case(var));
                    tables.push((var.clone(), relation.clone()));
                }
            }
            intensio_quel::Statement::Retrieve { targets, qual, .. } => {
                for t in targets {
                    let exprs: Vec<&Expr> = match &t.expr {
                        intensio_quel::ast::TargetExpr::Plain(e) => vec![e],
                        intensio_quel::ast::TargetExpr::Aggregate { arg, .. } => vec![arg],
                    };
                    for e in exprs {
                        for a in e.attr_refs() {
                            if let Err(d) = resolve(script, db, &tables, a) {
                                if !report.diagnostics.contains(&d) {
                                    report.push(d);
                                }
                            }
                        }
                    }
                }
                self_check_qual(script, db, rules, &tables, qual.as_ref(), &mut report);
            }
            intensio_quel::Statement::Delete { qual, .. }
            | intensio_quel::Statement::Replace { qual, .. } => {
                self_check_qual(script, db, rules, &tables, qual.as_ref(), &mut report);
            }
            intensio_quel::Statement::Append { relation, .. } => {
                if db.get(relation).is_err() {
                    report.push(unknown_relation(script, relation));
                }
            }
        }
    }
    report.sort();
    report
}

fn self_check_qual(
    text: &str,
    db: &Database,
    rules: &RuleSet,
    tables: &[(String, String)],
    qual: Option<&Expr>,
    report: &mut Report,
) {
    let Some(qual) = qual else { return };
    for a in qual.attr_refs() {
        if let Err(d) = resolve(text, db, tables, a) {
            if !report.diagnostics.contains(&d) {
                report.push(d);
            }
        }
    }
    if report.has_errors() {
        return;
    }
    check_qual(text, db, rules, tables, qual, report);
}

fn unknown_relation(text: &str, name: &str) -> Diagnostic {
    Diagnostic::new(
        "IC040",
        Severity::Error,
        "query",
        format!("unknown relation {name}"),
    )
    .with_span(locate_word(text, name))
}

/// Resolve an attribute reference against the visible tuple variables.
// The Err is a ready-to-report Diagnostic; the lint path is cold.
#[allow(clippy::result_large_err)]
fn resolve(
    text: &str,
    db: &Database,
    tables: &[(String, String)],
    a: &AttrRef,
) -> Result<(String, String), Diagnostic> {
    let fail = |msg: String| {
        Diagnostic::new("IC041", Severity::Error, "query", msg).with_span(
            locate_word(text, &a.name)
                .or_else(|| a.qualifier.as_deref().and_then(|q| locate_word(text, q))),
        )
    };
    let (alias, relation) = match &a.qualifier {
        Some(q) => tables
            .iter()
            .find(|(alias, _)| alias.eq_ignore_ascii_case(q))
            .cloned()
            .ok_or_else(|| fail(format!("unknown range variable or alias {q}")))?,
        None => {
            let mut hit = None;
            for (alias, rel) in tables {
                let has = db
                    .get(rel)
                    .ok()
                    .map(|r| r.schema().index_of(&a.name).is_some())
                    .unwrap_or(false);
                if has {
                    if hit.is_some() {
                        return Err(fail(format!("ambiguous attribute {}", a.name)));
                    }
                    hit = Some((alias.clone(), rel.clone()));
                }
            }
            hit.ok_or_else(|| fail(format!("unknown attribute {}", a.name)))?
        }
    };
    let rel = db
        .get(&relation)
        .map_err(|e| fail(format!("unknown relation: {e}")))?;
    if rel.schema().index_of(&a.name).is_none() {
        return Err(fail(format!(
            "unknown attribute {} on relation {relation}",
            a.name
        )));
    }
    Ok((alias, relation))
}

/// Push a diagnostic unless an identical one is already present — DNF
/// disjuncts can share leaves, and a shared leaf's finding must render
/// once.
fn push_once(report: &mut Report, d: Diagnostic) {
    if !report.diagnostics.contains(&d) {
        report.push(d);
    }
}

/// Bounded disjunctive normal form: each inner vec is one disjunct's
/// leaf conjuncts. `And` distributes over `Or`; when the expansion
/// would exceed [`MAX_DISJUNCTS`], the subtree collapses to a single
/// opaque leaf (non-`Cmp`, so it constrains nothing — a superset).
fn dnf(expr: &Expr) -> Vec<Vec<&Expr>> {
    match expr {
        Expr::And(a, b) => {
            let l = dnf(a);
            let r = dnf(b);
            if l.len() * r.len() > MAX_DISJUNCTS {
                return vec![vec![expr]];
            }
            let mut out = Vec::with_capacity(l.len() * r.len());
            for x in &l {
                for y in &r {
                    let mut d = x.clone();
                    d.extend(y.iter().copied());
                    out.push(d);
                }
            }
            out
        }
        Expr::Or(a, b) => {
            let mut l = dnf(a);
            let r = dnf(b);
            if l.len() + r.len() > MAX_DISJUNCTS {
                return vec![vec![expr]];
            }
            l.extend(r);
            l
        }
        other => vec![vec![other]],
    }
}

/// Extract the `attr op constant` restriction of one leaf (either
/// orientation), resolving the attribute, flagging type mismatches
/// (IC042) and domain-vacuous restrictions (IC045).
fn leaf_cond(
    text: &str,
    db: &Database,
    tables: &[(String, String)],
    leaf: &Expr,
    report: &mut Report,
) -> Option<Cond> {
    let Expr::Cmp { op, left, right } = leaf else {
        return None;
    };
    let (attr, op, value) = match (left.as_ref(), right.as_ref()) {
        (Expr::Attr(a), Expr::Const(v)) => (a, *op, v),
        (Expr::Const(v), Expr::Attr(a)) => (a, op.flip(), v),
        _ => return None,
    };
    let Ok((alias, relation)) = resolve(text, db, tables, attr) else {
        return None; // already reported
    };
    let schema_attr = {
        let rel = db.get(&relation).expect("resolved above");
        let idx = rel.schema().index_of(&attr.name).expect("resolved above");
        rel.schema().attr(idx).clone()
    };
    let coerced = match value.value_type() {
        None => return None, // NULL comparisons never participate
        Some(vt) if vt == schema_attr.value_type() => value.clone(),
        Some(_) => match coerce_value(value, schema_attr.value_type()) {
            Some(v) => v,
            None => {
                push_once(
                    report,
                    Diagnostic::new(
                        "IC042",
                        Severity::Error,
                        "query",
                        format!(
                            "type mismatch: {}.{} is {} but is compared with {}",
                            relation,
                            schema_attr.name(),
                            schema_attr.value_type().keyword(),
                            value
                        ),
                    )
                    .with_span(locate_word(text, &attr.name)),
                );
                return None;
            }
        },
    };
    let domain = AbstractValue::from_domain(schema_attr.domain());
    let query_range = ValueRange::from_cmp(op, coerced.clone());
    let vacuously_false = (op == CmpOp::Eq && !schema_attr.domain().admits(&coerced))
        || query_range
            .as_ref()
            .map(|r| domain.meet(&AbstractValue::Range(r.clone())).is_bottom())
            .unwrap_or(false);
    if vacuously_false {
        push_once(
            report,
            Diagnostic::new(
                "IC045",
                Severity::Warn,
                "query",
                format!(
                    "restriction on {}.{} lies outside its declared domain {}: \
                     no stored value can satisfy it",
                    relation,
                    schema_attr.name(),
                    schema_attr.domain().name(),
                ),
            )
            .with_span(locate_word(text, &attr.name)),
        );
        return None;
    }
    // The mirror image: the comparison excludes nothing the domain
    // admits — `Displacement < 50000` against `range [2000..30000]`.
    let vacuously_true = query_range
        .as_ref()
        .map(|r| {
            (r.lo.is_some() || r.hi.is_some())
                && !matches!(domain, AbstractValue::Top)
                && domain.within(r)
        })
        .unwrap_or(false);
    if vacuously_true {
        push_once(
            report,
            Diagnostic::new(
                "IC045",
                Severity::Warn,
                "query",
                format!(
                    "restriction on {}.{} is vacuously true: every value of its \
                     declared domain {} satisfies {} {} {}",
                    relation,
                    schema_attr.name(),
                    schema_attr.domain().name(),
                    schema_attr.name(),
                    op,
                    coerced,
                ),
            )
            .with_span(locate_word(text, &attr.name)),
        );
        // A no-op restriction still participates (it is satisfiable).
    }
    Some(Cond {
        alias,
        relation,
        attribute: schema_attr.name().to_string(),
        op,
        value: coerced,
        domain,
    })
}

/// How one disjunct was proven empty.
enum EmptyProof {
    /// The query's own restrictions on one attribute contradict each
    /// other (no rules needed).
    Contradiction { relation: String, attribute: String },
    /// Forward saturation of the rule set drove the state to ⊥.
    Refuted {
        /// Productively fired rule ids, in firing order.
        chain: Vec<u32>,
        /// The attribute whose abstract value reached ⊥.
        object: String,
        attribute: String,
        /// Rendering of the pre-saturation constraint on that slot.
        required: String,
    },
}

/// Try to prove one disjunct's restrictions empty. `None` = no proof
/// (the disjunct may well be satisfiable — the analysis is sound, not
/// complete).
fn prove_empty(db: &Database, rules: &Saturator, conds: &[Cond]) -> Option<EmptyProof> {
    // (alias, attribute-lowercase) -> (relation, attribute, folded range)
    let mut folded: BTreeMap<(String, String), (String, String, ValueRange)> = BTreeMap::new();
    for c in conds {
        let Some(mut r) = ValueRange::from_cmp(c.op, c.value.clone()) else {
            continue; // `<>` has no interval form
        };
        if let Some(clamp) = c.domain.as_range() {
            // Nonempty by construction: empty clamps were IC045'd away.
            if let Some(tight) = clamp.intersect(&r) {
                r = tight;
            }
        }
        let slot = (
            c.alias.to_ascii_lowercase(),
            c.attribute.to_ascii_lowercase(),
        );
        match folded.get_mut(&slot) {
            None => {
                folded.insert(slot, (c.relation.clone(), c.attribute.clone(), r));
            }
            Some((rel, attr, prev)) => match prev.intersect(&r) {
                Some(tight) => *prev = tight,
                None => {
                    return Some(EmptyProof::Contradiction {
                        relation: rel.clone(),
                        attribute: attr.clone(),
                    });
                }
            },
        }
    }

    // Forward saturation, one abstract state per tuple variable.
    let mut aliases: Vec<&str> = folded.keys().map(|(a, _)| a.as_str()).collect();
    aliases.dedup();
    for alias in aliases {
        let mut state = AbstractState::new();
        let mut relation = None;
        // Every attribute of the alias's relation starts at its domain
        // value: rules whose premises the schema alone satisfies apply
        // to every tuple, enabling cross-attribute propagation.
        for ((a, _), (rel, _, _)) in &folded {
            if a == alias {
                relation = Some(rel.clone());
                break;
            }
        }
        let relation = relation.expect("alias came from folded");
        if let Ok(rel) = db.get(&relation) {
            for sa in rel.schema().attributes() {
                let dv = AbstractValue::from_domain(sa.domain());
                if !matches!(dv, AbstractValue::Top) {
                    state.constrain(&relation, sa.name(), &dv);
                }
            }
        }
        for ((a, _), (rel, attr, r)) in &folded {
            if a != alias {
                continue;
            }
            state.constrain(rel, attr, &AbstractValue::Range(r.clone()));
            if state.is_empty() {
                // Query range vs a set-valued domain — a contradiction
                // the interval clamp above could not see.
                return Some(EmptyProof::Contradiction {
                    relation: rel.clone(),
                    attribute: attr.clone(),
                });
            }
        }
        let seeded = state.clone();
        let sat = rules.saturate(&mut state);
        if sat.empty {
            let ((object, attr_lc), _) = state
                .slots()
                .find(|(_, v)| v.is_bottom())
                .expect("an empty state has a bottom slot");
            // Recover the display-cased relation/attribute names and
            // the pre-saturation requirement on the slot.
            let (display_rel, attribute) = folded
                .get(&(alias.to_string(), attr_lc.clone()))
                .map(|(rel, attr, _)| (rel.clone(), attr.clone()))
                .unwrap_or_else(|| (relation.clone(), attr_lc.clone()));
            let required = seeded.value_of(object, attr_lc).to_string();
            return Some(EmptyProof::Refuted {
                chain: sat.fired,
                object: display_rel,
                attribute,
                required,
            });
        }
    }
    None
}

/// Analyze a qualification: split into disjuncts, extract restrictions
/// (IC042/IC045 ride along), and prove emptiness (IC043/IC044). The
/// whole condition is provably empty iff **every** disjunct is.
fn check_qual(
    text: &str,
    db: &Database,
    rules: &RuleSet,
    tables: &[(String, String)],
    qual: &Expr,
    report: &mut Report,
) {
    let disjuncts = dnf(qual);
    let saturator = Saturator::new(rules);
    let mut proofs = Vec::with_capacity(disjuncts.len());
    for leaves in &disjuncts {
        let conds: Vec<Cond> = leaves
            .iter()
            .filter_map(|leaf| leaf_cond(text, db, tables, leaf, report))
            .collect();
        proofs.push(prove_empty(db, &saturator, &conds));
    }
    if proofs.iter().any(|p| p.is_none()) {
        return; // at least one disjunct may be satisfiable
    }
    let proofs: Vec<EmptyProof> = proofs.into_iter().flatten().collect();

    if proofs.len() == 1 {
        report_single_proof(text, rules, &proofs[0], report);
        return;
    }

    // Several disjuncts, all provably empty: one summary diagnostic.
    let any_rules = proofs
        .iter()
        .any(|p| matches!(p, EmptyProof::Refuted { .. }));
    let span_attr = proofs
        .iter()
        .map(|p| match p {
            EmptyProof::Refuted { attribute, .. } => attribute.as_str(),
            EmptyProof::Contradiction { attribute, .. } => attribute.as_str(),
        })
        .next();
    let (code, message) = if any_rules {
        (
            "IC044",
            "condition is provably empty: every disjunct is refuted under the \
             induced rules"
                .to_string(),
        )
    } else {
        (
            "IC043",
            "contradictory restrictions: every disjunct of the condition admits \
             no value and the answer is provably empty"
                .to_string(),
        )
    };
    let mut d = Diagnostic::new(code, Severity::Error, "query", message)
        .with_span(span_attr.and_then(|a| locate_word(text, a)));
    for (i, p) in proofs.iter().enumerate() {
        d = d.with_note(match p {
            EmptyProof::Contradiction {
                relation,
                attribute,
            } => format!(
                "disjunct {}: contradictory restrictions on {relation}.{attribute}",
                i + 1
            ),
            EmptyProof::Refuted {
                chain,
                object,
                attribute,
                ..
            } => format!(
                "disjunct {}: {}.{attribute} refuted by {}",
                i + 1,
                object,
                chain_label(rules, chain),
            ),
        });
    }
    report.push(d);
}

/// `R1 -> R2 -> R4` for a derivation chain.
fn chain_label(rules: &RuleSet, chain: &[u32]) -> String {
    let _ = rules;
    chain
        .iter()
        .map(|id| format!("R{id}"))
        .collect::<Vec<_>>()
        .join(" -> ")
}

fn report_single_proof(text: &str, rules: &RuleSet, proof: &EmptyProof, report: &mut Report) {
    match proof {
        EmptyProof::Contradiction {
            relation,
            attribute,
        } => {
            report.push(
                Diagnostic::new(
                    "IC043",
                    Severity::Error,
                    "query",
                    format!(
                        "contradictory restrictions on {relation}.{attribute}: the condition \
                         admits no value and the answer is provably empty"
                    ),
                )
                .with_span(locate_word(text, attribute)),
            );
        }
        EmptyProof::Refuted {
            chain,
            object,
            attribute,
            required,
        } => {
            let last = chain.last().and_then(|id| rules.get(*id));
            let mut d = match (chain.len(), last) {
                (1, Some(rule)) => Diagnostic::new(
                    "IC044",
                    Severity::Error,
                    "query",
                    format!(
                        "condition is provably empty: R{} concludes {} {} for every \
                         tuple the condition admits, but the query requires {} {}",
                        rule.id, rule.rhs.attr, rule.rhs.range, rule.rhs.attr, required
                    ),
                ),
                (_, Some(rule)) => Diagnostic::new(
                    "IC044",
                    Severity::Error,
                    "query",
                    format!(
                        "condition is provably empty under rule chaining: {} concludes \
                         {} {} for every tuple the condition admits, but the \
                         condition requires {}.{} {}",
                        chain_label(rules, chain),
                        rule.rhs.attr,
                        rule.rhs.range,
                        object,
                        attribute,
                        required
                    ),
                ),
                _ => Diagnostic::new(
                    "IC044",
                    Severity::Error,
                    "query",
                    format!(
                        "condition is provably empty: the restriction on {object}.{attribute} \
                         ({required}) admits no value of the declared domain"
                    ),
                ),
            };
            d = d.with_span(locate_word(text, attribute));
            if let Some(rule) = last {
                d = d.with_note(format!("refuted by {rule}"));
            }
            for id in chain.iter().rev().skip(1).rev() {
                if let Some(rule) = rules.get(*id) {
                    d = d.with_note(format!("via {rule}"));
                }
            }
            report.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_rules::rule::{AttrId, Clause, Rule};
    use intensio_storage::domain::Domain;
    use intensio_storage::relation::Relation;
    use intensio_storage::schema::{Attribute, Schema};
    use intensio_storage::tuple;
    use intensio_storage::value::ValueType;

    fn db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new("Type", Domain::char_n(4)),
            Attribute::new(
                "Displacement",
                Domain::int_range("DISPLACEMENT", 2000, 30000),
            ),
        ])
        .unwrap();
        let mut class = Relation::new("CLASS", schema);
        class.insert(tuple!["0101", "SSBN", 8250]).unwrap();
        class.insert(tuple!["0201", "SSN", 4640]).unwrap();
        db.create(class).unwrap();
        db
    }

    fn rules() -> RuleSet {
        RuleSet::from_rules([Rule::new(
            0,
            vec![Clause::between(
                AttrId::new("CLASS", "Displacement"),
                7250,
                30000,
            )],
            Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
        )
        .with_subtype("SSBN")
        .with_support(4)])
    }

    fn codes(r: &Report) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_is_clean() {
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement > 8000",
            &db(),
            &rules(),
        );
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn unknown_relation_is_ic040() {
        let r = check_sql("SELECT X FROM NOPE", &db(), &rules());
        assert_eq!(codes(&r), vec!["IC040"]);
    }

    #[test]
    fn unknown_attribute_is_ic041() {
        let r = check_sql("SELECT Tonnage FROM CLASS", &db(), &rules());
        assert_eq!(codes(&r), vec!["IC041"]);
        let r = check_sql("SELECT z.Class FROM CLASS", &db(), &rules());
        assert_eq!(codes(&r), vec!["IC041"], "unknown alias");
    }

    #[test]
    fn type_mismatch_is_ic042() {
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement = \"heavy\"",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC042"), "{}", r.render_text());
    }

    #[test]
    fn numeric_string_coerces_without_ic042() {
        let r = check_sql("SELECT Type FROM CLASS WHERE Class = 101", &db(), &rules());
        assert!(
            !codes(&r).contains(&"IC042"),
            "ints coerce to char classes: {}",
            r.render_text()
        );
    }

    #[test]
    fn contradictory_restrictions_are_ic043() {
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement > 9000 AND Displacement < 8000",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC043"), "{}", r.render_text());
    }

    #[test]
    fn rule_refuted_condition_is_ic044_with_provenance() {
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement > 8000 AND Type = \"SSN\"",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC044"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "IC044").unwrap();
        assert!(
            d.notes.iter().any(|n| n.contains("R1")),
            "refuting rule cited: {:?}",
            d.notes
        );
    }

    #[test]
    fn partial_premise_coverage_is_not_refuted() {
        // Query range [2500, ...) is NOT contained in the premise
        // [7250, 30000]; the rule does not apply forward.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement > 2500 AND Type = \"SSN\"",
            &db(),
            &rules(),
        );
        assert!(!codes(&r).contains(&"IC044"), "{}", r.render_text());
    }

    #[test]
    fn out_of_domain_equality_is_ic045() {
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement = 50000",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC045"), "{}", r.render_text());
        assert!(!r.has_errors());
    }

    #[test]
    fn out_of_domain_inequality_is_ic045() {
        // `Displacement > 40000` can never hold in `range [2000..30000]`.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement > 40000",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC045"), "{}", r.render_text());
        assert!(!r.has_errors());
        // ... and `< 1000` is its mirror image.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement < 1000",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC045"), "{}", r.render_text());
    }

    #[test]
    fn vacuously_true_inequality_is_ic045() {
        // Every DISPLACEMENT value satisfies `< 50000`: a no-op filter.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement < 50000",
            &db(),
            &rules(),
        );
        let d = r.diagnostics.iter().find(|d| d.code == "IC045").unwrap();
        assert!(d.message.contains("vacuously true"), "{}", d.message);
        assert!(!r.has_errors());
        // An in-domain bound is a real filter, not vacuous.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement < 20000",
            &db(),
            &rules(),
        );
        assert!(!codes(&r).contains(&"IC045"), "{}", r.render_text());
    }

    #[test]
    fn chained_rules_prove_emptiness_ic044() {
        // R1: Displacement in [8000, 9000] -> Crew in [100, 120]
        // R2: Crew in [90, 130]            -> Reactors = 1
        // Query: Displacement = 8500 AND Reactors = 2.
        // Neither rule alone refutes the query (it never restricts
        // Crew); chaining R1 then R2 derives Reactors = 1, which
        // contradicts the required Reactors = 2.
        let mut db = Database::new();
        let schema = Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new(
                "Displacement",
                Domain::int_range("DISPLACEMENT", 2000, 30000),
            ),
            Attribute::new("Crew", Domain::int_range("CREW", 50, 200)),
            Attribute::new("Reactors", Domain::int_range("REACTORS", 1, 4)),
        ])
        .unwrap();
        let mut class = Relation::new("CLASS", schema);
        class.insert(tuple!["0101", 8500, 110, 1]).unwrap();
        db.create(class).unwrap();
        let rules = RuleSet::from_rules([
            Rule::new(
                0,
                vec![Clause::between(
                    AttrId::new("CLASS", "Displacement"),
                    8000,
                    9000,
                )],
                Clause::between(AttrId::new("CLASS", "Crew"), 100, 120),
            )
            .with_support(4),
            Rule::new(
                0,
                vec![Clause::between(AttrId::new("CLASS", "Crew"), 90, 130)],
                Clause::equals(AttrId::new("CLASS", "Reactors"), 1),
            )
            .with_support(4),
        ]);
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement = 8500 AND Reactors = 2",
            &db,
            &rules,
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "IC044")
            .unwrap_or_else(|| panic!("chained refutation missed:\n{}", r.render_text()));
        assert!(
            d.message.contains("R1 -> R2"),
            "the derivation chain is cited: {}",
            d.message
        );
        assert!(
            d.notes.iter().any(|n| n.contains("refuted by")),
            "{:?}",
            d.notes
        );
        // Sanity: each rule alone does not refute.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement = 8500",
            &db,
            &rules,
        );
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn disjunction_empty_only_when_all_disjuncts_are() {
        // One empty disjunct + one satisfiable disjunct = satisfiable.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE (Displacement > 8000 AND Type = \"SSN\") \
             OR Type = \"SSN\"",
            &db(),
            &rules(),
        );
        assert!(
            !codes(&r).contains(&"IC044"),
            "a satisfiable disjunct saves the query: {}",
            r.render_text()
        );
        // Both disjuncts refuted -> IC044 with per-disjunct provenance.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE (Displacement > 8000 AND Type = \"SSN\") \
             OR (Displacement = 9000 AND Type = \"CVN\")",
            &db(),
            &rules(),
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "IC044")
            .unwrap_or_else(|| panic!("all-empty disjunction missed:\n{}", r.render_text()));
        assert!(d.message.contains("every disjunct"), "{}", d.message);
        assert_eq!(d.notes.len(), 2, "{:?}", d.notes);
        // Both disjuncts self-contradictory -> IC043.
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE (Displacement > 9000 AND Displacement < 8000) \
             OR (Displacement > 20000 AND Displacement < 10000)",
            &db(),
            &rules(),
        );
        assert!(codes(&r).contains(&"IC043"), "{}", r.render_text());
    }

    #[test]
    fn quel_checks_mirror_sql() {
        let db = db();
        let rs = rules();
        let r = check_quel(
            "range of c is CLASS\nretrieve (c.Class) where c.Tonnage > 5",
            &db,
            &rs,
        );
        assert!(codes(&r).contains(&"IC041"), "{}", r.render_text());
        let r = check_quel(
            "range of c is CLASS\nretrieve (c.Class) where c.Displacement > 8000 and c.Type = \"SSN\"",
            &db,
            &rs,
        );
        assert!(codes(&r).contains(&"IC044"), "{}", r.render_text());
        let r = check_quel("range of c is NOPE", &db, &rs);
        assert!(codes(&r).contains(&"IC040"), "{}", r.render_text());
    }

    #[test]
    fn null_and_ne_do_not_participate() {
        let r = check_sql(
            "SELECT Class FROM CLASS WHERE Displacement <> 8000 AND Displacement <> 9000",
            &db(),
            &rules(),
        );
        assert!(r.diagnostics.is_empty(), "{}", r.render_text());
        let _ = ValueType::Int;
    }
}
