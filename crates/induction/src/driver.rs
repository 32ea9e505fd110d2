//! The model-based Inductive Learning Subsystem (ILS) of §5.2.
//!
//! The paper's key idea for taming rule induction on large databases is
//! to let the *schema* choose the induction candidates: the object
//! hierarchy's classifying attributes are the rule consequences worth
//! learning, and the entity/relationship structure tells which joins to
//! consider for inter-object knowledge.
//!
//! * **Intra-object** (§3.1): for every stored relation, every
//!   classifying attribute `Y` it carries (that is not its key) is paired
//!   with every other attribute `X` of the relation.
//! * **Inter-object**: every relationship relation (one whose attributes
//!   are object-valued, like INSTALL's `Ship` and `Sonar`) is joined with
//!   the entities it links (transitively, one extra hop, so a ship's
//!   CLASS attributes are visible too); then pairs are induced across
//!   roles — premise attributes from one role, classifying consequences
//!   from another.

use crate::config::InductionConfig;
use crate::pairwise::{induce_pair_ids_with_stats, InducedRule};
use intensio_ker::model::{subtype_label_among, Classifier, KerModel};
use intensio_rules::rule::AttrId as RuleAttrId;
use intensio_rules::rule::{AttrId, Rule, RuleSet};
use intensio_storage::catalog::Database;
use intensio_storage::error::{Result, StorageError};
use intensio_storage::relation::Relation;
use intensio_storage::schema::{Attribute, Schema};
use intensio_storage::value::ValueKey;
use std::collections::{BTreeSet, HashMap};

/// Statistics from one ILS run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IlsStats {
    /// Attribute pairs examined.
    pub pairs_examined: usize,
    /// Rules constructed before pruning.
    pub rules_constructed: usize,
    /// Rules surviving the `N_c` pruning.
    pub rules_kept: usize,
}

/// The result of a learning run: the rule set plus statistics.
#[derive(Debug, Clone)]
pub struct IlsOutput {
    /// The induced rules, numbered.
    pub rules: RuleSet,
    /// Run statistics.
    pub stats: IlsStats,
}

/// Bump the global induction counters from one run's statistics.
fn record_induction_metrics(stats: &IlsStats) {
    intensio_obs::inc("induction.runs");
    intensio_obs::add("induction.pairs_examined", stats.pairs_examined as u64);
    intensio_obs::add("induction.rules_kept", stats.rules_kept as u64);
    intensio_obs::add(
        "induction.rules_pruned",
        stats.rules_constructed.saturating_sub(stats.rules_kept) as u64,
    );
}

/// An induced rule, labelled with the subtype its consequence selects.
fn labelled_rule(r: InducedRule, classifiers: &[Classifier]) -> Rule {
    let subtype = subtype_label_among(classifiers, &r.y.attribute, &r.y_value);
    let mut rule = r.into_rule();
    rule.rhs_subtype = subtype;
    rule
}

/// The model-based inductive learning subsystem.
#[derive(Debug, Clone)]
pub struct Ils<'m> {
    model: &'m KerModel,
    cfg: InductionConfig,
}

impl<'m> Ils<'m> {
    /// An ILS over a KER model with the given configuration.
    pub fn new(model: &'m KerModel, cfg: InductionConfig) -> Ils<'m> {
        Ils { model, cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &InductionConfig {
        &self.cfg
    }

    /// The KER model driving the ILS.
    pub fn model(&self) -> &KerModel {
        self.model
    }

    /// Run schema-guided induction over every relation of the database.
    pub fn induce(&self, db: &Database) -> Result<IlsOutput> {
        let _span = intensio_obs::Span::stage("induction.run", intensio_obs::Stage::Induction)
            .with_field("mode", "sequential");
        intensio_fault::fire("induction.run")?;
        let mut stats = IlsStats::default();
        let mut induced: Vec<InducedRule> = Vec::new();
        let classifier_attrs = self.classifier_attr_names();

        for rel in db.relations() {
            if self.is_relationship(db, rel) {
                let mut rules = self.induce_inter(db, rel, &classifier_attrs, &mut stats)?;
                induced.append(&mut rules);
            } else {
                let mut rules = self.induce_intra(rel, &classifier_attrs, &mut stats)?;
                induced.append(&mut rules);
            }
        }

        stats.rules_kept = induced.len();
        let classifiers = self.model.classifier_list();
        let mut rules = RuleSet::new();
        for r in induced {
            rules.push(labelled_rule(r, &classifiers));
        }
        record_induction_metrics(&stats);
        Ok(IlsOutput { rules, stats })
    }

    /// Run schema-guided induction with pair-level parallelism.
    ///
    /// The §5.2.1 algorithm is embarrassingly parallel across attribute
    /// pairs: each pair's induction touches only its own columns. Jobs
    /// are partitioned across `threads` scoped worker threads and the
    /// results reassembled in job order, so the output is identical to
    /// [`Ils::induce`] (tested). Relationship joins are materialized
    /// once, up front, on the calling thread.
    pub fn induce_parallel(&self, db: &Database, threads: usize) -> Result<IlsOutput> {
        let _span = intensio_obs::Span::stage("induction.run", intensio_obs::Stage::Induction)
            .with_field("mode", "parallel")
            .with_field("threads", threads.max(1));
        intensio_fault::fire("induction.run")?;
        let threads = threads.max(1);
        let classifier_attrs = self.classifier_attr_names();

        /// Column descriptor: (column, source entity, attribute, is key).
        type ColSpec = (String, String, String, bool);
        // Materialize relationship joins first (sequential).
        let mut joined: Vec<Relation> = Vec::new();
        let mut joined_roles: Vec<Vec<Vec<ColSpec>>> = Vec::new();
        for rel in db.relations() {
            if self.is_relationship(db, rel) {
                let roles = self.role_attrs(db, rel);
                joined.push(self.join_roles(db, rel, &roles)?);
                let mut per_role = Vec::new();
                for (_, entity) in &roles {
                    let mut cols = Vec::new();
                    collect_entity_columns(self.model, db, entity, &mut cols, 1);
                    per_role.push(cols);
                }
                joined_roles.push(per_role);
            }
        }

        // Job list: (relation ref, x_col, x_id, y_col, y_id), in the same
        // order the sequential driver visits pairs.
        struct Job<'r> {
            rel: &'r Relation,
            x_col: String,
            x_id: AttrId,
            y_col: String,
            y_id: AttrId,
        }
        let mut jobs: Vec<Job<'_>> = Vec::new();
        let mut join_idx = 0usize;
        for rel in db.relations() {
            if self.is_relationship(db, rel) {
                let jrel = &joined[join_idx];
                let role_cols = &joined_roles[join_idx];
                join_idx += 1;
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
                                jobs.push(Job {
                                    rel: jrel,
                                    x_col: x_col.clone(),
                                    x_id: AttrId::new(x_entity.clone(), x_attr.clone()),
                                    y_col: y_col.clone(),
                                    y_id: AttrId::new(y_entity.clone(), y_attr.clone()),
                                });
                            }
                        }
                    }
                }
            } else {
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
                        jobs.push(Job {
                            rel,
                            x_col: x_attr.name().to_string(),
                            x_id: AttrId::new(rel.name(), x_attr.name()),
                            y_col: y_attr.name().to_string(),
                            y_id: AttrId::new(rel.name(), y_attr.name()),
                        });
                    }
                }
            }
        }

        let mut stats = IlsStats {
            pairs_examined: jobs.len(),
            ..IlsStats::default()
        };

        // Fan jobs out over scoped threads, keeping job order in the
        // reassembled result.
        let cfg = self.cfg;
        let n = jobs.len();
        let chunk = n.div_ceil(threads).max(1);
        let mut results: Vec<Option<(Vec<InducedRule>, usize)>> = Vec::new();
        results.resize_with(n, || None);
        let errors = std::sync::Mutex::new(Vec::new());
        {
            let mut slots: &mut [Option<(Vec<InducedRule>, usize)>] = &mut results;
            let mut job_slices: &[Job<'_>] = &jobs;
            std::thread::scope(|scope| {
                while !job_slices.is_empty() {
                    let take = chunk.min(job_slices.len());
                    let (job_chunk, rest_jobs) = job_slices.split_at(take);
                    let (slot_chunk, rest_slots) = slots.split_at_mut(take);
                    job_slices = rest_jobs;
                    slots = rest_slots;
                    let errors = &errors;
                    scope.spawn(move || {
                        for (job, slot) in job_chunk.iter().zip(slot_chunk) {
                            match induce_pair_ids_with_stats(
                                job.rel,
                                &job.x_col,
                                job.x_id.clone(),
                                &job.y_col,
                                job.y_id.clone(),
                                &cfg,
                            ) {
                                Ok(pair) => *slot = Some(pair),
                                Err(e) => {
                                    errors.lock().expect("mutex").push(e);
                                }
                            }
                        }
                    });
                }
            });
        }
        if let Some(e) = errors.into_inner().expect("mutex").into_iter().next() {
            return Err(e);
        }

        let classifiers = self.model.classifier_list();
        let mut rules = RuleSet::new();
        for slot in results.into_iter().flatten() {
            let (pair_rules, constructed) = slot;
            stats.rules_constructed += constructed;
            for r in pair_rules {
                stats.rules_kept += 1;
                rules.push(labelled_rule(r, &classifiers));
            }
        }
        record_induction_metrics(&stats);
        Ok(IlsOutput { rules, stats })
    }

    /// Extension beyond the paper's §5.2.1: learn *multi-clause* rules
    /// with the decision-tree learner (§3.2's general technique) and
    /// merge them with the pairwise rules.
    ///
    /// For each classifying attribute `Y` of a relation, a tree is
    /// trained over the non-key attributes; every pure root-to-leaf path
    /// of depth ≥ 2 whose support clears `N_c` becomes a conjunctive
    /// rule — knowledge the single-pair algorithm cannot express. Tree
    /// clauses arrive half-open; they are closed against the observed
    /// extrema so they remain storable as rule relations (§5.2.2's
    /// closed-clause format).
    pub fn induce_with_trees(&self, db: &Database) -> Result<IlsOutput> {
        let mut out = self.induce(db)?;
        let classifiers = self.model.classifier_list();
        let classifier_attrs = self.classifier_attr_names();
        for rel in db.relations() {
            if self.is_relationship(db, rel) {
                continue;
            }
            for y_attr in rel.schema().attributes() {
                if y_attr.is_key()
                    || !classifier_attrs.contains(&y_attr.name().to_ascii_lowercase())
                {
                    continue;
                }
                let features: Vec<&str> = rel
                    .schema()
                    .attributes()
                    .iter()
                    .filter(|a| !a.is_key() && !a.name().eq_ignore_ascii_case(y_attr.name()))
                    .map(|a| a.name())
                    .collect();
                if features.is_empty() {
                    continue;
                }
                let Ok(tree) = crate::tree::learn(
                    rel,
                    &features,
                    y_attr.name(),
                    &crate::tree::TreeConfig::default(),
                ) else {
                    continue;
                };
                for mut rule in crate::tree::to_closed_rules(&tree, rel, rel.name())? {
                    if rule.lhs.len() < 2 || rule.support < self.cfg.min_support {
                        continue;
                    }
                    rule.rhs_subtype = rule.rhs.range.as_point().and_then(|v| {
                        subtype_label_among(&classifiers, &rule.rhs.attr.attribute, v)
                    });
                    out.rules.push(rule);
                    out.stats.rules_kept += 1;
                }
            }
        }
        Ok(out)
    }

    /// The classifying attribute names declared by the model's
    /// hierarchies (lowercase).
    fn classifier_attr_names(&self) -> BTreeSet<String> {
        self.model
            .classifiers()
            .into_iter()
            .map(|(_, c)| c.attribute.to_ascii_lowercase())
            .collect()
    }

    /// A relation is a relationship when at least two of its attributes
    /// are object-valued (their KER domain names another object type
    /// stored in the database).
    pub(crate) fn is_relationship(&self, db: &Database, rel: &Relation) -> bool {
        self.role_attrs(db, rel).len() >= 2
    }

    /// The object-valued attributes of a relation: `(attr name, target
    /// entity relation name)`.
    pub(crate) fn role_attrs(&self, db: &Database, rel: &Relation) -> Vec<(String, String)> {
        let Some(ot) = self.model.object_type(rel.name()) else {
            return Vec::new();
        };
        ot.declared_attrs
            .iter()
            .filter_map(|a| {
                let target = a.domain().name();
                if self.model.contains_type(target)
                    && db.contains(target)
                    && !target.eq_ignore_ascii_case(rel.name())
                {
                    Some((a.name().to_string(), target.to_string()))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Intra-object induction: for every non-key classifying attribute Y
    /// of the relation, pair it with every other attribute X.
    fn induce_intra(
        &self,
        rel: &Relation,
        classifier_attrs: &BTreeSet<String>,
        stats: &mut IlsStats,
    ) -> Result<Vec<InducedRule>> {
        let mut out = Vec::new();
        let object = rel.name();
        for y_attr in rel.schema().attributes() {
            if y_attr.is_key() {
                continue;
            }
            if !classifier_attrs.contains(&y_attr.name().to_ascii_lowercase()) {
                continue;
            }
            for x_attr in rel.schema().attributes() {
                if x_attr.name().eq_ignore_ascii_case(y_attr.name()) {
                    continue;
                }
                stats.pairs_examined += 1;
                let (rules, constructed) = induce_pair_ids_with_stats(
                    rel,
                    x_attr.name(),
                    RuleAttrId::new(object, x_attr.name()),
                    y_attr.name(),
                    RuleAttrId::new(object, y_attr.name()),
                    &self.cfg,
                )?;
                stats.rules_constructed += constructed;
                out.extend(rules);
            }
        }
        Ok(out)
    }

    /// Inter-object induction over a relationship relation.
    fn induce_inter(
        &self,
        db: &Database,
        rel: &Relation,
        classifier_attrs: &BTreeSet<String>,
        stats: &mut IlsStats,
    ) -> Result<Vec<InducedRule>> {
        let roles = self.role_attrs(db, rel);
        let joined = self.join_roles(db, rel, &roles)?;

        // Columns per role: (column name in `joined`, entity name, attr
        // name, is_key_of_entity).
        let mut role_cols: Vec<Vec<(String, String, String, bool)>> = Vec::new();
        for (_, entity) in &roles {
            let mut cols = Vec::new();
            collect_entity_columns(self.model, db, entity, &mut cols, 1);
            role_cols.push(cols);
        }

        let mut out = Vec::new();
        for (ai, a_cols) in role_cols.iter().enumerate() {
            for (bi, b_cols) in role_cols.iter().enumerate() {
                if ai == bi {
                    continue;
                }
                for (x_col, x_entity, x_attr, _) in a_cols {
                    for (y_col, y_entity, y_attr, y_key) in b_cols {
                        if *y_key || !classifier_attrs.contains(&y_attr.to_ascii_lowercase()) {
                            continue;
                        }
                        stats.pairs_examined += 1;
                        let (rules, constructed) = induce_pair_ids_with_stats(
                            &joined,
                            x_col,
                            AttrId::new(x_entity.clone(), x_attr.clone()),
                            y_col,
                            AttrId::new(y_entity.clone(), y_attr.clone()),
                            &self.cfg,
                        )?;
                        stats.rules_constructed += constructed;
                        out.extend(rules);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Join a relationship relation with its role entities (and one more
    /// hop of object-valued attributes). Columns are named
    /// `ENTITY.Attr`.
    pub(crate) fn join_roles(
        &self,
        db: &Database,
        rel: &Relation,
        roles: &[(String, String)],
    ) -> Result<Relation> {
        // Plan the joined schema.
        let mut attrs: Vec<Attribute> = Vec::new();
        for (_role_attr, entity) in roles {
            let mut cols: Vec<(String, String, String, bool)> = Vec::new();
            collect_entity_columns(self.model, db, entity, &mut cols, 1);
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

        // Key-indexed lookup per entity (including hop-2 targets).
        let mut lookups: HashMap<String, HashMap<ValueKey, &intensio_storage::tuple::Tuple>> =
            HashMap::new();
        let mut entities_needed: BTreeSet<String> = BTreeSet::new();
        for (_, entity) in roles {
            entities_needed.insert(entity.clone());
            for (hop_attr, hop_entity) in self.entity_hops(db, entity) {
                let _ = hop_attr;
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

        // Per-role column plans, resolved to source relation + index.
        // (source entity lowercase, attribute index, hop via-attribute
        // index in the role entity or None for the entity's own column).
        struct ColPlan {
            src_entity: String,
            attr_idx: usize,
            via_idx: Option<usize>,
        }
        let mut role_plans: Vec<(usize, String, Vec<ColPlan>)> = Vec::new(); // (rel attr idx, entity, cols)
        for (role_attr, entity) in roles {
            let ri = rel.schema().require(rel.name(), role_attr)?;
            let erel = db.get(entity)?;
            let mut cols: Vec<(String, String, String, bool)> = Vec::new();
            collect_entity_columns(self.model, db, entity, &mut cols, 1);
            let hops = self.entity_hops(db, entity);
            let mut plans = Vec::with_capacity(cols.len());
            for (_, src_entity, attr, _) in &cols {
                if src_entity.eq_ignore_ascii_case(entity) {
                    plans.push(ColPlan {
                        src_entity: src_entity.to_ascii_lowercase(),
                        attr_idx: erel.schema().require(entity, attr)?,
                        via_idx: None,
                    });
                } else {
                    let via = hops
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

        // Produce joined tuples (inner join: dangling references skip).
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
                                None => values.push(intensio_storage::value::Value::Null),
                            }
                        }
                    }
                }
            }
            joined.insert(intensio_storage::tuple::Tuple::new(values))?;
        }
        Ok(joined)
    }

    /// Object-valued attributes of an entity: `(attr, target entity)`.
    fn entity_hops(&self, db: &Database, entity: &str) -> Vec<(String, String)> {
        let Some(ot) = self.model.object_type(entity) else {
            return Vec::new();
        };
        ot.declared_attrs
            .iter()
            .filter_map(|a| {
                let target = a.domain().name();
                if self.model.contains_type(target)
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
}

/// Columns contributed by an entity to a role join: its own attributes
/// plus (at `depth` ≥ 1) the attributes of entities it references.
/// Each entry is `(column name, source entity, attribute, is key)`.
pub(crate) fn collect_entity_columns(
    model: &KerModel,
    db: &Database,
    entity: &str,
    out: &mut Vec<(String, String, String, bool)>,
    depth: usize,
) {
    let Ok(erel) = db.get(entity) else { return };
    let mut hops: Vec<(String, String)> = Vec::new();
    for a in erel.schema().attributes() {
        out.push((
            format!("{entity}.{}", a.name()),
            entity.to_string(),
            a.name().to_string(),
            a.is_key(),
        ));
        // Hop detection via the KER model.
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
                        hops.push((a.name().to_string(), target.to_string()));
                    }
                }
            }
        }
    }
    for (_, target) in hops {
        if let Ok(trel) = db.get(&target) {
            for a in trel.schema().attributes() {
                // Skip the target's key (it duplicates the referencing
                // attribute's values).
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
