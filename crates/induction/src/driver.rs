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
use crate::pairwise::{induce_values, InducedRule};
use intensio_ker::model::{subtype_label_among, Classifier, KerModel};
use intensio_rules::rule::{AttrId, Rule, RuleSet};
use intensio_storage::catalog::Database;
use intensio_storage::error::{Result, StorageError};
use intensio_storage::relation::Relation;
use intensio_storage::tuple::Tuple;
use intensio_storage::value::{Value, ValueRef};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

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
        let plan = self.plan(db)?;
        let results = plan.jobs.iter().map(|job| plan.run(job, &self.cfg));
        Ok(self.assemble(plan.jobs.len(), results))
    }

    /// Run schema-guided induction with pair-level parallelism.
    ///
    /// The §5.2.1 algorithm is embarrassingly parallel across attribute
    /// pairs: each pair's induction touches only its own columns. Jobs
    /// are partitioned across `threads` scoped worker threads and the
    /// results reassembled in job order, so the output is identical to
    /// [`Ils::induce`] (tested). Relationship joins are resolved to row
    /// ids once, up front, on the calling thread.
    pub fn induce_parallel(&self, db: &Database, threads: usize) -> Result<IlsOutput> {
        let _span = intensio_obs::Span::stage("induction.run", intensio_obs::Stage::Induction)
            .with_field("mode", "parallel")
            .with_field("threads", threads.max(1));
        intensio_fault::fire("induction.run")?;
        let plan = self.plan(db)?;
        let chunk = plan.jobs.len().div_ceil(threads.max(1)).max(1);
        let mut results: Vec<(Vec<InducedRule>, usize)> = Vec::with_capacity(plan.jobs.len());
        std::thread::scope(|scope| {
            let workers: Vec<_> = plan
                .jobs
                .chunks(chunk)
                .map(|jobs| {
                    let plan = &plan;
                    let cfg = &self.cfg;
                    scope.spawn(move || {
                        jobs.iter()
                            .map(|job| plan.run(job, cfg))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                results.extend(worker.join().expect("induction worker panicked"));
            }
        });
        Ok(self.assemble(plan.jobs.len(), results))
    }

    /// Number and label the rules of every job, in job order, and
    /// record the run's statistics.
    fn assemble(
        &self,
        pairs_examined: usize,
        results: impl IntoIterator<Item = (Vec<InducedRule>, usize)>,
    ) -> IlsOutput {
        let mut stats = IlsStats {
            pairs_examined,
            ..IlsStats::default()
        };
        let classifiers = self.model.classifier_list();
        let mut rules = RuleSet::new();
        for (pair_rules, constructed) in results {
            stats.rules_constructed += constructed;
            stats.rules_kept += pair_rules.len();
            for r in pair_rules {
                rules.push(labelled_rule(r, &classifiers));
            }
        }
        record_induction_metrics(&stats);
        IlsOutput { rules, stats }
    }

    /// The induction jobs of a database, in the order their rules are
    /// numbered: relations in catalog order; within a stored relation,
    /// every non-key classifying attribute `Y` paired with every other
    /// attribute `X` (intra-object, §3.1); within a relationship, every
    /// column of one role paired with every non-key classifying column
    /// of another (inter-object).
    fn plan<'d>(&self, db: &'d Database) -> Result<Plan<'d>> {
        let classifier_attrs = self.classifier_attr_names();
        let is_classifier = |name: &str| classifier_attrs.contains(&name.to_ascii_lowercase());
        let mut plan = Plan {
            sources: Vec::new(),
            jobs: Vec::new(),
        };
        for rel in db.relations() {
            let source = plan.sources.len();
            let roles = self.role_attrs(db, rel);
            if roles.len() >= 2 {
                let join = self.join_roles(db, rel, &roles)?;
                for (ai, a) in join.roles.iter().enumerate() {
                    for (bi, b) in join.roles.iter().enumerate() {
                        if ai == bi {
                            continue;
                        }
                        for x in a.clone() {
                            for y in b.clone() {
                                let yc = &join.columns[y];
                                if yc.is_key || !is_classifier(&yc.attribute) {
                                    continue;
                                }
                                plan.jobs.push(Job {
                                    source,
                                    x,
                                    x_id: join.columns[x].attr_id(),
                                    y,
                                    y_id: yc.attr_id(),
                                });
                            }
                        }
                    }
                }
                plan.sources.push(Source::Joined(join));
            } else {
                let attrs = rel.schema().attributes();
                for (y, y_attr) in attrs.iter().enumerate() {
                    if y_attr.is_key() || !is_classifier(y_attr.name()) {
                        continue;
                    }
                    for (x, x_attr) in attrs.iter().enumerate() {
                        if x_attr.name().eq_ignore_ascii_case(y_attr.name()) {
                            continue;
                        }
                        plan.jobs.push(Job {
                            source,
                            x,
                            x_id: AttrId::new(rel.name(), x_attr.name()),
                            y,
                            y_id: AttrId::new(rel.name(), y_attr.name()),
                        });
                    }
                }
                plan.sources.push(Source::Stored(rel));
            }
        }
        Ok(plan)
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
    fn is_relationship(&self, db: &Database, rel: &Relation) -> bool {
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

    /// Join a relationship relation with its role entities (and one
    /// more hop of object-valued attributes), as row ids: no value is
    /// copied. `roles` is [`Ils::role_attrs`] of the relation.
    ///
    /// A relationship row whose role reference dangles is skipped (an
    /// inner join); a hop whose target is missing reads as NULL. Where
    /// an entity repeats a key, its last row is the one joined.
    pub(crate) fn join_roles<'d>(
        &self,
        db: &'d Database,
        rel: &'d Relation,
        roles: &[(String, String)],
    ) -> Result<RoleJoin<'d>> {
        // The columns each role contributes. Their `ENTITY.Attr` names
        // must be distinct, as the columns of one relation.
        let mut role_cols: Vec<Vec<(String, String, String, bool)>> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for (_, entity) in roles {
            let mut cols = Vec::new();
            collect_entity_columns(self.model, db, entity, &mut cols, 1);
            for (col, ..) in &cols {
                if names.iter().any(|n| n.eq_ignore_ascii_case(col)) {
                    return Err(StorageError::Invalid(format!(
                        "duplicate attribute name: {col}"
                    )));
                }
                names.push(col.clone());
            }
            role_cols.push(cols);
        }

        // Key -> row maps per entity (including hop-2 targets).
        let mut entities_needed: BTreeSet<String> = BTreeSet::new();
        for (_, entity) in roles {
            entities_needed.insert(entity.clone());
            for (_, hop_entity) in self.entity_hops(db, entity) {
                entities_needed.insert(hop_entity);
            }
        }
        let mut rows_by_key: HashMap<String, HashMap<ValueRef<'d>, u32>> = HashMap::new();
        for entity in &entities_needed {
            let erel = db.get(entity)?;
            let keys = erel.schema().key_indices();
            let [kidx] = keys.as_slice() else {
                return Err(StorageError::Invalid(format!(
                    "entity {entity} needs a single-attribute key for role joins"
                )));
            };
            let map = key_rows(erel.iter().map(|t| t.get(*kidx)));
            rows_by_key.insert(entity.to_ascii_lowercase(), map);
        }

        // Slots of a joined row: per role, one for the role entity's
        // row, then one per hop its columns read through.
        let mut join = RoleJoin {
            columns: Vec::new(),
            roles: Vec::new(),
            width: 0,
            rows: Vec::new(),
        };
        let mut plans: Vec<RolePlan<'_, 'd>> = Vec::new();
        for ((role_attr, entity), cols) in roles.iter().zip(&role_cols) {
            let erel = db.get(entity)?;
            let mut role = RolePlan {
                attr: rel.schema().require(rel.name(), role_attr)?,
                rows: &rows_by_key[&entity.to_ascii_lowercase()],
                tuples: erel.tuples(),
                slot: join.width,
                hops: Vec::new(),
            };
            join.width += 1;
            let hops = self.entity_hops(db, entity);
            let first = join.columns.len();
            for (_, src_entity, attr, is_key) in cols {
                let (src, slot) = if src_entity.eq_ignore_ascii_case(entity) {
                    (erel, role.slot)
                } else {
                    let via = hops
                        .iter()
                        .find(|(_, e)| e.eq_ignore_ascii_case(src_entity))
                        .map(|(via, _)| via.as_str())
                        .ok_or_else(|| {
                            StorageError::Invalid(format!(
                                "no reference from {entity} to {src_entity}"
                            ))
                        })?;
                    let srel = db.get(src_entity)?;
                    let via = erel.schema().require(entity, via)?;
                    // One hop attribute names one target entity.
                    let slot = match role.hops.iter().find(|h| h.via == via) {
                        Some(hop) => hop.slot,
                        None => {
                            role.hops.push(HopPlan {
                                via,
                                rows: &rows_by_key[&src_entity.to_ascii_lowercase()],
                                slot: join.width,
                            });
                            join.width += 1;
                            join.width - 1
                        }
                    };
                    (srel, slot)
                };
                join.columns.push(JoinColumn {
                    entity: src_entity.clone(),
                    attribute: attr.clone(),
                    is_key: *is_key,
                    tuples: src.tuples(),
                    attr: src.schema().require(src_entity, attr)?,
                    slot,
                });
            }
            join.roles.push(first..join.columns.len());
            plans.push(role);
        }

        // Resolve every relationship row (inner join: a dangling role
        // reference skips the row).
        let mut row = vec![NO_ROW; join.width];
        join.rows.reserve(rel.len() * join.width);
        'tuples: for t in rel.iter() {
            for role in &plans {
                let Some(&rid) = role.rows.get(&ValueRef(t.get(role.attr))) else {
                    continue 'tuples;
                };
                row[role.slot] = rid;
                let entity_row = &role.tuples[rid as usize];
                for hop in &role.hops {
                    let key = ValueRef(entity_row.get(hop.via));
                    row[hop.slot] = hop.rows.get(&key).copied().unwrap_or(NO_ROW);
                }
            }
            join.rows.extend_from_slice(&row);
        }
        Ok(join)
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
fn collect_entity_columns(
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

/// Slot value for a hop whose target row is missing: the columns read
/// through it are NULL.
const NO_ROW: u32 = u32::MAX;

/// What a missing hop target's columns read as.
static NULL: Value = Value::Null;

/// Row ids by key value, over an entity's key column in row order. A
/// repeated key keeps its last row.
fn key_rows<'d>(keys: impl Iterator<Item = &'d Value>) -> HashMap<ValueRef<'d>, u32> {
    let mut map = HashMap::new();
    for (row, key) in keys.enumerate() {
        let row = u32::try_from(row)
            .ok()
            .filter(|&r| r != NO_ROW)
            .expect("an entity holds fewer than u32::MAX rows");
        map.insert(ValueRef(key), row);
    }
    map
}

/// How [`Ils::join_roles`] resolves one role of a relationship row.
struct RolePlan<'m, 'd> {
    /// The role attribute's position in the relationship relation.
    attr: usize,
    /// The role entity's rows by key.
    rows: &'m HashMap<ValueRef<'d>, u32>,
    /// The role entity's tuples.
    tuples: &'d [Tuple],
    /// The slot holding the role entity's row id.
    slot: usize,
    /// The hops the role's columns read through.
    hops: Vec<HopPlan<'m, 'd>>,
}

/// One hop of a role: the entity's attribute that references another
/// entity, whose row id goes to `slot`.
struct HopPlan<'m, 'd> {
    via: usize,
    rows: &'m HashMap<ValueRef<'d>, u32>,
    slot: usize,
}

/// A column of a [`RoleJoin`]: attribute `attr` of the `tuples` row
/// that slot `slot` of a joined row names.
pub(crate) struct JoinColumn<'d> {
    /// The entity the column's values come from.
    pub(crate) entity: String,
    /// The attribute's name.
    pub(crate) attribute: String,
    /// Whether the attribute is its entity's key.
    pub(crate) is_key: bool,
    tuples: &'d [Tuple],
    attr: usize,
    slot: usize,
}

impl JoinColumn<'_> {
    /// The attribute a rule over this column speaks of.
    pub(crate) fn attr_id(&self) -> AttrId {
        AttrId::new(self.entity.clone(), self.attribute.clone())
    }
}

/// A relationship relation joined with its role entities (one hop
/// further for the entities those reference), held as row ids into the
/// stored relations: every joined row is `width` slots of `rows`.
pub(crate) struct RoleJoin<'d> {
    /// Every column, role by role, each role's in
    /// [`collect_entity_columns`] order.
    pub(crate) columns: Vec<JoinColumn<'d>>,
    /// The positions in `columns` of each role's columns.
    pub(crate) roles: Vec<Range<usize>>,
    width: usize,
    rows: Vec<u32>,
}

impl<'d> RoleJoin<'d> {
    /// Column `col`'s values, one per joined row, borrowed from the
    /// stored relations.
    pub(crate) fn values(&self, col: usize) -> impl Iterator<Item = &'d Value> + '_ {
        let c = &self.columns[col];
        self.rows
            .chunks_exact(self.width)
            .map(move |row| match row[c.slot] {
                NO_ROW => &NULL,
                id => c.tuples[id as usize].get(c.attr),
            })
    }
}

/// Where an induction job reads its rows.
enum Source<'d> {
    /// A stored relation, read in place; columns are attribute positions.
    Stored(&'d Relation),
    /// A relationship joined with its role entities; columns index
    /// [`RoleJoin::columns`].
    Joined(RoleJoin<'d>),
}

/// One attribute pair to induce over.
struct Job {
    /// Index into [`Plan::sources`].
    source: usize,
    x: usize,
    x_id: AttrId,
    y: usize,
    y_id: AttrId,
}

/// The sources and jobs of one ILS run.
struct Plan<'d> {
    sources: Vec<Source<'d>>,
    jobs: Vec<Job>,
}

impl Plan<'_> {
    /// Induce one job's pair: its kept rules and the number constructed.
    fn run(&self, job: &Job, cfg: &InductionConfig) -> (Vec<InducedRule>, usize) {
        match &self.sources[job.source] {
            Source::Stored(rel) => {
                let pairs = rel.iter().map(|t| (t.get(job.x), t.get(job.y)));
                induce_values(pairs, &job.x_id, &job.y_id, cfg)
            }
            Source::Joined(join) => {
                let pairs = join.values(job.x).zip(join.values(job.y));
                induce_values(pairs, &job.x_id, &job.y_id, cfg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_key_joins_its_last_row() {
        let keys = [
            Value::str("a"),
            Value::Int(3),
            Value::str("a"),
            Value::Real(3.0),
            Value::Null,
        ];
        let rows = key_rows(keys.iter());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[&ValueRef(&Value::str("a"))], 2);
        // Int and Real keys that compare equal are one key.
        assert_eq!(rows[&ValueRef(&Value::Int(3))], 3);
        assert_eq!(rows[&ValueRef(&Value::Real(3.0))], 3);
        assert_eq!(rows[&ValueRef(&Value::Null)], 4);
    }
}
