//! The inference processor as it stood before rules were looked up by
//! attribute: every forward pass and every point fact scanned the whole
//! rule set, facts were keyed by lowercase `(object, attribute)`
//! strings, the referential equivalences were rebuilt per query, and
//! the answer's texts were formatted per use. A verbatim copy (less the
//! configuration types, which it shares with the engine), kept as the
//! reference `inference_differential.rs` compares the engine against.

use intensio::inference::{
    BackwardCharacterization, Direction, ForwardFact, IntensionalAnswer, RuleUse,
};
use intensio::inference::{InferenceConfig, SubsumptionMode};
use intensio::ker::model::{subtype_label_among, KerModel};
use intensio::rules::range::{Endpoint, ValueRange};
use intensio::rules::rule::{AttrId, Clause, Rule, RuleSet};
use intensio::sql::QueryAnalysis;
use intensio::storage::catalog::Database;
use intensio::storage::error::Result;
use intensio::storage::index::AttributeIndex;
use intensio::storage::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap};

fn attr_key(a: &AttrId) -> (String, String) {
    (
        a.object.to_ascii_lowercase(),
        a.attribute.to_ascii_lowercase(),
    )
}

/// A range endpoint in the `(value, inclusive)` form of index lookups.
fn index_bound(end: &Option<Endpoint>) -> Option<(&Value, bool)> {
    end.as_ref().map(|e| (&e.value, e.inclusive))
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
        intensio::fault::fire("inference.engine")?;
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
        let _span = intensio::obs::Span::stage("inference.infer", intensio::obs::Stage::Inference)
            .with_field("restrictions", analysis.restrictions.len())
            .with_field("rules", self.rules.len());
        // Latency/panic injection point. `infer` is infallible, so an
        // `error` spec here is swallowed; arm `inference.engine` to make
        // inference fail, or `delay`/`panic` here.
        let _ = intensio::fault::fire("inference.infer");
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
            let mut forward_span =
                intensio::obs::Span::enter("inference.forward").with_field("given", given.len());
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
                    intensio::obs::inc("inference.forward_fired");
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
            answer
                .certain
                .dedup_by(|a, b| a.attr == b.attr && a.value == b.value && a.subtype == b.subtype);
            forward_span.field("fired", fired.len());
            drop(forward_span);
        }

        // Backward inference: from every point fact (given or derived),
        // invert rules concluding it.
        if !self.cfg.forward_only {
            let mut backward_span = intensio::obs::Span::enter("inference.backward");
            let mut inverted = 0usize;
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
                    inverted += 1;
                    intensio::obs::inc("inference.backward_inverted");
                    answer.partial.push(BackwardCharacterization {
                        x: lhs.attr.clone(),
                        range: lhs.range.clone(),
                        y: rule.rhs.attr.clone(),
                        value: value.clone(),
                        subtype: rule
                            .rhs_subtype
                            .clone()
                            .or_else(|| self.subtype_label(&rule.rhs.attr.attribute, value)),
                        rule_id: rule.id,
                        complete,
                    });
                }
            }
            backward_span.field("inverted", inverted);
            drop(backward_span);
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
        for u in &answer.provenance {
            intensio::obs::inc(&format!("inference.rule.R{}.used", u.rule_id));
        }

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
        let fact_on = |clause: &Clause| facts.get(&attr_key(&clause.attr));
        if !rule.lhs.iter().any(|c| fact_on(c).is_some()) {
            return false;
        }
        rule.lhs.iter().all(|clause| match self.cfg.subsumption {
            SubsumptionMode::PureInterval => {
                fact_on(clause).is_some_and(|f| clause.range.subsumes(f))
            }
            SubsumptionMode::DataGrounded => {
                // Every stored value meeting the fact (all of them when
                // the attribute carries none) lies in the premise, and
                // there is at least one.
                let (lo, hi) = fact_on(clause)
                    .map_or((None, None), |f| (index_bound(&f.lo), index_bound(&f.hi)));
                let premise_covers = |idx: &AttributeIndex| {
                    let mut matching = idx.values_in(lo, hi).peekable();
                    matching.peek().is_some() && matching.all(|v| clause.range.contains(v))
                };
                self.db
                    .get(&clause.attr.object)
                    .and_then(|rel| rel.with_index(&clause.attr.attribute, premise_covers))
                    .unwrap_or(false)
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
