//! The inference processor: forward and backward type inference over
//! induced rules and the type hierarchy (paper §4).
//!
//! **Forward** inference fires a rule when the query's condition on the
//! rule's premise attribute is *subsumed by* the premise. Subsumption is
//! data-grounded by default: the paper's Example 1 treats
//! `Displacement > 8000` as subsumed by `7250 <= Displacement <= 30000`
//! because every *database* displacement above 8000 lies in the rule's
//! range — interval containment alone would reject it (the condition is
//! unbounded above). The engine therefore checks that every stored
//! value of the attribute satisfying the condition lies in the premise
//! range, walking only the distinct values inside the condition's range
//! in the relation's secondary index. A `PureInterval` mode is provided
//! as an ablation.
//!
//! **Backward** inference inverts rules whose consequence the query (or
//! a forward conclusion) fixes, yielding descriptions of a subset of the
//! answer, with an explicit completeness check that reproduces the
//! paper's Example 2 caveat about class 1301: an index lookup of the
//! rows holding the consequence, each of whose premise values must lie
//! in the premise range.
//!
//! The engine borrows the database and keeps no copy of it, and reads
//! the rules through their attribute lookup ([`RuleSet::lookup`], the
//! §5.2.2 rule relations keyed by attribute): forward inference visits
//! only the rules premised on an attribute whose fact changed, backward
//! inference only the rules concluding on a point fact's attribute. An
//! engine is built per query at no cost; the lookup is built on the
//! first inference over a rule set and kept until the set changes, the
//! referential equivalences once per model, and both data checks read
//! the indexes each relation caches until it next mutates.

use crate::answer::{BackwardCharacterization, Direction, ForwardFact, IntensionalAnswer, RuleUse};
use crate::bits::RuleBits;
use intensio_ker::model::{subtype_label_among, KerModel};
use intensio_ker::Equivalences;
use intensio_rules::lookup::KeyId;
use intensio_rules::range::{Endpoint, ValueRange};
use intensio_rules::rule::{AttrId, Rule, RuleSet};
use intensio_sql::QueryAnalysis;
use intensio_storage::catalog::Database;
use intensio_storage::error::Result;
use intensio_storage::index::AttributeIndex;
use intensio_storage::value::Value;
use std::fmt::Write;

/// How premise subsumption is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsumptionMode {
    /// Every observed attribute value satisfying the query condition
    /// must lie in the premise range (the paper's semantics).
    #[default]
    DataGrounded,
    /// The condition's interval must be contained in the premise
    /// interval (ablation; rejects open-ended conditions like `> 8000`).
    PureInterval,
}

/// Inference engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InferenceConfig {
    /// Subsumption semantics.
    pub subsumption: SubsumptionMode,
    /// When true, skip backward inference.
    pub forward_only: bool,
    /// When true, skip forward inference.
    pub backward_only: bool,
}

/// A range endpoint in the `(value, inclusive)` form of index lookups.
fn index_bound(end: &Option<Endpoint>) -> Option<(&Value, bool)> {
    end.as_ref().map(|e| (&e.value, e.inclusive))
}

/// One attribute's fact.
struct Fact<'q> {
    object: &'q str,
    attribute: &'q str,
    /// The attribute's key in the rule lookup, if a rule mentions it.
    key: Option<KeyId>,
    range: ValueRange,
}

/// The facts of one inference: at most one range per attribute, names
/// compared ASCII case-insensitively.
struct Facts<'q> {
    /// In the order their attributes were first constrained.
    entries: Vec<Fact<'q>>,
    /// Per rule-lookup key: the position of its fact, or `u32::MAX`.
    slot: Vec<u32>,
    /// How many of `entries` the query's own conditions made (the given
    /// facts, propagated across equivalences).
    given: usize,
    /// The lookup keys whose fact changed since forward inference last
    /// took them.
    changed: Vec<KeyId>,
}

impl<'q> Facts<'q> {
    fn new(keys: usize) -> Facts<'q> {
        Facts {
            entries: Vec::new(),
            slot: vec![u32::MAX; keys],
            given: 0,
            changed: Vec::new(),
        }
    }

    /// The fact on a lookup key.
    fn on_key(&self, key: KeyId) -> Option<&ValueRange> {
        let at = self.slot[key as usize] as usize;
        self.entries.get(at).map(|f| &f.range)
    }

    /// Whether the key's fact is a given one.
    fn is_given(&self, key: KeyId) -> bool {
        (self.slot[key as usize] as usize) < self.given
    }

    /// The position of the fact on `object.attribute`, if any.
    fn position(&self, key: Option<KeyId>, object: &str, attribute: &str) -> Option<usize> {
        match key {
            Some(k) => Some(self.slot[k as usize] as usize).filter(|&at| at < self.entries.len()),
            None => self.entries.iter().position(|f| {
                f.key.is_none()
                    && f.object.eq_ignore_ascii_case(object)
                    && f.attribute.eq_ignore_ascii_case(attribute)
            }),
        }
    }
}

/// Whether two ranges print alike. Ranges that print alike bound the
/// same values (a NaN bound aside), so only those are printed to tell
/// representations apart (`-0.0` prints unlike `0.0`, `1e15` like
/// `1000000000000000`).
fn same_text(a: &ValueRange, b: &ValueRange) -> bool {
    let nan = |v: &Value| matches!(v, Value::Real(f) if f.is_nan());
    let alike = |x: &Option<Endpoint>, y: &Option<Endpoint>| match (x, y) {
        (Some(x), Some(y)) => {
            x.inclusive == y.inclusive
                && (x.value.sem_eq(&y.value) || nan(&x.value) || nan(&y.value))
        }
        (x, y) => x.is_none() && y.is_none(),
    };
    a.identical(b) || (alike(&a.lo, &b.lo) && alike(&a.hi, &b.hi) && a.to_string() == b.to_string())
}

/// The inference processor.
pub struct InferenceEngine<'a> {
    model: &'a KerModel,
    rules: &'a RuleSet,
    /// Supplies stored values for data-grounded subsumption and
    /// completeness checks, through each relation's secondary indexes.
    db: &'a Database,
    cfg: InferenceConfig,
}

impl<'a> InferenceEngine<'a> {
    /// An engine over a model, rule set, and database.
    pub fn new(
        model: &'a KerModel,
        rules: &'a RuleSet,
        db: &'a Database,
        cfg: InferenceConfig,
    ) -> Result<InferenceEngine<'a>> {
        intensio_fault::fire("inference.engine")?;
        Ok(InferenceEngine {
            model,
            rules,
            db,
            cfg,
        })
    }

    /// The subtype `attribute = value` selects, if any.
    fn subtype_label(&self, attribute: &str, value: &Value) -> Option<String> {
        subtype_label_among(self.model.classifier_list(), attribute, value)
    }

    /// Derive the intensional answer for an analyzed query.
    pub fn infer(&self, analysis: &QueryAnalysis) -> IntensionalAnswer {
        let _span = intensio_obs::Span::stage("inference.infer", intensio_obs::Stage::Inference)
            .with_field("restrictions", analysis.restrictions.len())
            .with_field("rules", self.rules.len());
        // Latency/panic injection point. `infer` is infallible, so an
        // `error` spec here is swallowed; arm `inference.engine` to make
        // inference fail, or `delay`/`panic` here.
        let _ = intensio_fault::fire("inference.infer");
        let mut answer = IntensionalAnswer::default();
        let lookup = self.rules.lookup();
        let rules = self.rules.rules();

        // Equivalence classes from the schema and the equi-joins, for
        // fact propagation.
        let joins = analysis.joins.iter().map(|j| {
            [
                (&j.left.relation[..], &j.left.attribute[..]),
                (&j.right.relation[..], &j.right.attribute[..]),
            ]
        });
        let equiv = self.model.equivalences_with(joins);

        // Initial facts: query restrictions as ranges, intersected per
        // attribute and propagated across joins.
        let mut facts = Facts::new(lookup.key_count());
        for r in &analysis.restrictions {
            let Some(range) = ValueRange::from_cmp(r.op, r.value.clone()) else {
                continue; // != has no interval form
            };
            let attr = (&r.attr.relation[..], &r.attr.attribute[..]);
            self.add_fact(&mut facts, &equiv, attr, range, &mut answer.steps);
        }
        facts.given = facts.entries.len();

        // Forward chaining to fixpoint, in passes over the rules in id
        // order. A rule's premise check reads only the facts on its
        // premise attributes, so a rule is visited again only when one
        // of them changed: those that changed since a visit are the
        // candidates, and a candidate behind the pass's position waits
        // for the next pass, as in a pass over every rule.
        if !self.cfg.backward_only {
            let mut forward_span =
                intensio_obs::Span::enter("inference.forward").with_field("given", facts.given);
            let mut fired = RuleBits::new(rules.len());
            let mut fired_count = 0usize;
            let mut candidates = RuleBits::new(rules.len());
            let mut next = 0;
            loop {
                for k in facts.changed.drain(..) {
                    for &pos in lookup.premised_on(k) {
                        if !fired.contains(pos as usize) {
                            candidates.insert(pos as usize);
                        }
                    }
                }
                let Some(pos) = candidates
                    .next_from(next)
                    .or_else(|| candidates.next_from(0))
                else {
                    break;
                };
                candidates.remove(pos);
                next = pos + 1;
                let rule = &rules[pos];
                if !self.premise_satisfied(pos, rule, &facts) {
                    continue;
                }
                fired.insert(pos);
                fired_count += 1;
                let rhs_value = rule
                    .rhs
                    .range
                    .as_point()
                    .cloned()
                    .expect("induced consequences are points");
                // Writing into a `String` cannot fail.
                let mut step = format!("forward: R{} fires, concluding ", rule.id);
                let conclusion = step.len();
                let _ = write!(step, "{} = {}", rule.rhs.attr, rhs_value);
                answer.provenance.push(RuleUse {
                    rule_id: rule.id,
                    support: rule.support,
                    direction: Direction::Forward,
                    conclusion: step[conclusion..].to_string(),
                });
                answer.steps.push(step);
                let subtype = rule
                    .rhs_subtype
                    .clone()
                    .or_else(|| self.subtype_label(&rule.rhs.attr.attribute, &rhs_value));
                answer.certain.push(ForwardFact {
                    attr: rule.rhs.attr.clone(),
                    value: rhs_value.clone(),
                    subtype,
                    rule_id: Some(rule.id),
                });
                let attr = (&rule.rhs.attr.object[..], &rule.rhs.attr.attribute[..]);
                let point = ValueRange::point(rhs_value);
                self.add_fact(&mut facts, &equiv, attr, point, &mut answer.steps);
            }
            // Deduplicate identical conclusions from different rules.
            answer
                .certain
                .dedup_by(|a, b| a.attr == b.attr && a.value == b.value && a.subtype == b.subtype);
            count("inference.forward_fired", fired_count);
            forward_span.field("fired", fired_count);
            drop(forward_span);
        }

        // Backward inference: from every point fact (given or derived),
        // invert rules concluding it, facts in key order.
        if !self.cfg.forward_only {
            let mut backward_span = intensio_obs::Span::enter("inference.backward");
            let mut inverted = 0usize;
            for key in 0..lookup.key_count() as KeyId {
                let Some(value) = facts.on_key(key).and_then(ValueRange::as_point) else {
                    continue;
                };
                let first = answer.partial.len();
                for &pos in lookup.concluding(key) {
                    let rule = &rules[pos as usize];
                    let Some(rhs_value) = rule.rhs.range.as_point() else {
                        continue;
                    };
                    if !rhs_value.sem_eq(value) {
                        continue;
                    }
                    // Single-premise rules only (the paper's induced
                    // rules are single-clause).
                    let [lhs] = rule.lhs.as_slice() else { continue };
                    inverted += 1;
                    let mut step = format!("backward: R{} inverted — instances with ", rule.id);
                    let x = step.len();
                    let _ = write!(step, "{} {}", lhs.attr, lhs.range);
                    let x_end = step.len();
                    step.push_str(" have ");
                    let y = step.len();
                    let _ = write!(step, "{} = {}", rule.rhs.attr, value);
                    let x_key = lookup.premise_keys(pos as usize)[0];
                    if let Some(b) =
                        self.characterize(&answer.partial[first..], &facts, x_key, rule, value)
                    {
                        answer.provenance.push(RuleUse {
                            rule_id: rule.id,
                            support: rule.support,
                            direction: Direction::Backward,
                            conclusion: [&step[x..x_end], " ⇒ ", &step[y..]].concat(),
                        });
                        answer.partial.push(b);
                    }
                    answer.steps.push(step);
                }
            }
            count("inference.backward_inverted", inverted);
            backward_span.field("inverted", inverted);
            drop(backward_span);
        }

        if intensio_obs::enabled() {
            let mut name = String::from("inference.rule.R");
            let prefix = name.len();
            for u in &answer.provenance {
                name.truncate(prefix);
                let _ = write!(name, "{}.used", u.rule_id);
                intensio_obs::inc(&name);
            }
        }

        answer
    }

    /// The characterization inverting `rule` describes, unless it adds
    /// nothing: its premise attribute (key `x_key`) is a given fact with
    /// the premise's range, a trivial echo of the query; or `earlier`,
    /// the characterizations of the same point fact, already describe
    /// the same instances. Two rules with the same premise and
    /// conclusion (a redundant duplicate the install-time prune would
    /// drop) invert to the same description; the first is kept — rules
    /// are inverted in id order, so the citation is stable — and the
    /// answer reads the same whether or not the duplicate was pruned.
    fn characterize(
        &self,
        earlier: &[BackwardCharacterization],
        facts: &Facts<'_>,
        x_key: KeyId,
        rule: &Rule,
        value: &Value,
    ) -> Option<BackwardCharacterization> {
        let lhs = &rule.lhs[0];
        if facts.is_given(x_key) && facts.on_key(x_key) == Some(&lhs.range) {
            return None;
        }
        let subtype = rule
            .rhs_subtype
            .clone()
            .or_else(|| self.subtype_label(&rule.rhs.attr.attribute, value));
        // Every earlier one concludes on the same attribute key with the
        // same value, so the description differs only in these.
        let same = |b: &BackwardCharacterization| {
            b.x == lhs.attr
                && b.y == rule.rhs.attr
                && b.subtype == subtype
                && same_text(&b.range, &lhs.range)
        };
        if earlier.iter().any(same) {
            return None;
        }
        Some(BackwardCharacterization {
            x: lhs.attr.clone(),
            range: lhs.range.clone(),
            y: rule.rhs.attr.clone(),
            value: value.clone(),
            subtype,
            rule_id: rule.id,
            complete: self.backward_completeness(rule, &lhs.attr, value),
        })
    }

    /// Record a fact, intersecting with any existing fact on the
    /// attribute, and propagate it across equivalences.
    fn add_fact<'q>(
        &self,
        facts: &mut Facts<'q>,
        equiv: &'q Equivalences,
        attr: (&'q str, &'q str),
        range: ValueRange,
        steps: &mut Vec<String>,
    ) {
        let lookup = self.rules.lookup();
        let mut queue = vec![(attr, range)];
        while let Some(((object, attribute), r)) = queue.pop() {
            let key = lookup.key(object, attribute);
            let at = facts.position(key, object, attribute);
            let merged = match at.map(|i| &facts.entries[i].range) {
                Some(existing) => match existing.intersect(&r) {
                    Some(i) => i,
                    None => {
                        steps.push(format!(
                            "contradiction on {object}.{attribute}: {existing} ∧ {r} is empty"
                        ));
                        r
                    }
                },
                None => r,
            };
            let at = match at {
                Some(i) if facts.entries[i].range == merged => {
                    facts.entries[i].range = merged;
                    continue;
                }
                Some(i) => {
                    facts.entries[i].range = merged;
                    i
                }
                None => {
                    if let Some(k) = key {
                        facts.slot[k as usize] = facts.entries.len() as u32;
                    }
                    facts.entries.push(Fact {
                        object,
                        attribute,
                        key,
                        range: merged,
                    });
                    facts.entries.len() - 1
                }
            };
            facts.changed.extend(key);
            let Some(class) = equiv.class_of(object, attribute) else {
                continue;
            };
            for (o, a) in class {
                if !(o.eq_ignore_ascii_case(object) && a.eq_ignore_ascii_case(attribute)) {
                    queue.push(((o, a), facts.entries[at].range.clone()));
                }
            }
        }
    }

    /// Is a rule's premise subsumed by the current facts?
    ///
    /// Every premise clause must be satisfied. At least one premise
    /// attribute must actually be constrained by the query (otherwise
    /// any database-wide regularity would fire): forward inference only
    /// visits rules premised on an attribute with a fact.
    fn premise_satisfied(&self, pos: usize, rule: &Rule, facts: &Facts<'_>) -> bool {
        let keys = self.rules.lookup().premise_keys(pos);
        rule.lhs.iter().zip(keys).all(|(clause, &key)| {
            let fact = facts.on_key(key);
            match self.cfg.subsumption {
                SubsumptionMode::PureInterval => fact.is_some_and(|f| clause.range.subsumes(f)),
                SubsumptionMode::DataGrounded => {
                    // Every stored value meeting the fact (all of them
                    // when the attribute carries none) lies in the
                    // premise, and there is at least one.
                    let (lo, hi) =
                        fact.map_or((None, None), |f| (index_bound(&f.lo), index_bound(&f.hi)));
                    let premise_covers = |idx: &AttributeIndex| {
                        let mut matching = idx.values_in(lo, hi).peekable();
                        matching.peek().is_some() && matching.all(|v| clause.range.contains(v))
                    };
                    self.db
                        .get(&clause.attr.object)
                        .and_then(|rel| rel.with_index(&clause.attr.attribute, premise_covers))
                        .unwrap_or(false)
                }
            }
        })
    }

    /// Does the rule's premise range cover the X value of *every* row
    /// whose Y equals `value`? (`None` when X and Y live in different
    /// relations and the joint distribution is not directly checkable.)
    fn backward_completeness(&self, rule: &Rule, x: &AttrId, value: &Value) -> Option<bool> {
        let y = &rule.rhs.attr;
        if !x.object.eq_ignore_ascii_case(&y.object) {
            return None;
        }
        let rel = self.db.get(&x.object).ok()?;
        let xi = rel.schema().index_of(&x.attribute)?;
        let lhs = rule.lhs_clause(&x.object, &x.attribute)?;
        rel.with_index(&y.attribute, |idx| {
            idx.lookup(value)
                .iter()
                .all(|&row| lhs.range.contains(rel.tuples()[row].get(xi)))
        })
        .ok()
    }
}

/// Add `n` to a counter, leaving an untouched one absent.
fn count(name: &str, n: usize) {
    if n > 0 {
        intensio_obs::add(name, n as u64);
    }
}
