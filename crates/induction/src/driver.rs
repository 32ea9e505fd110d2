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
use crate::pairwise::{merge_appended, pair_rule, scan, sorted_obs, Obs};
use intensio_ker::model::{subtype_label_among, Classifier, KerModel};
use intensio_rules::rule::{AttrId, Rule, RuleSet};
use intensio_storage::catalog::Database;
use intensio_storage::error::{Result, StorageError};
use intensio_storage::relation::Relation;
use intensio_storage::schema::SchemaRef;
use intensio_storage::tuple::Tuple;
use intensio_storage::value::{Value, ValueRef};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

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

/// The result of a learning run: the rule set plus statistics. A
/// memoized run ([`Ils::induce_memo`]) shares its rule set with the
/// memo, as an `Arc<RuleSet>`.
#[derive(Debug, Clone)]
pub struct IlsOutput<R = RuleSet> {
    /// The induced rules, numbered.
    pub rules: R,
    /// Run statistics.
    pub stats: IlsStats,
}

/// How a run came by each pair's rules.
#[derive(Debug, Clone, Copy, Default)]
struct PairWork {
    /// Taken from the memo: the source did not change.
    reused: usize,
    /// The rows appended since the memo were merged into its order.
    extended: usize,
    /// Sorted and scanned from scratch.
    rebuilt: usize,
}

/// Bump the global induction counters from one run's statistics.
fn record_induction_metrics(stats: &IlsStats, work: PairWork) {
    intensio_obs::inc("induction.runs");
    intensio_obs::add("induction.pairs_examined", stats.pairs_examined as u64);
    intensio_obs::add("induction.rules_kept", stats.rules_kept as u64);
    intensio_obs::add(
        "induction.rules_pruned",
        stats.rules_constructed.saturating_sub(stats.rules_kept) as u64,
    );
    intensio_obs::add("induction.pairs_reused", work.reused as u64);
    intensio_obs::add("induction.pairs_extended", work.extended as u64);
    intensio_obs::add("induction.pairs_rebuilt", work.rebuilt as u64);
}

/// What [`Ils::induce_memo`] carries from one run to the next, so a
/// re-induction does work only for the sources that changed.
///
/// It holds the `Arc<Relation>` handles it learned from. Holding them
/// is what makes a pointer comparison sound: while the memo shares a
/// relation's tuples, no later write can edit them in place — the
/// catalog's copy-on-write copies the relation, and a tuple copies its
/// values, first — so a tuple still pointer-equal to a remembered one
/// holds the remembered values.
///
/// Per source, against the remembered handles:
/// * a stored relation that is the same `Arc`, or the remembered
///   tuples and nothing else, reuses its pairs' rules;
/// * a stored relation whose remembered tuples are a pointer-equal
///   prefix (same schema handle) merges the appended rows into each
///   pair's persisted sort order, then re-runs the §5.2.1 scan;
/// * a relationship reuses its pairs, join and all, when it is the same
///   `Arc`, every role and hop entity only gained rows, and the
///   remembered join resolved every reference: storage keeps keys
///   unique, so an appended entity row cannot join;
/// * anything else rebuilds that source.
///
/// A different model (as far as a run reads it: its classifiers and
/// each object type's declared attribute names and domains),
/// configuration, or catalog (relation names and schema handles)
/// empties the whole memo.
///
/// The memo also keeps the rule set the run produced. When every pair
/// a run recomputes kept the rules it had (bounds and conclusion
/// [`Value::identical`], the same support and subtype), the run returns
/// that same `Arc` instead of numbering the rules again, and
/// `induction.rules_reused` counts it. A run takes the memo's
/// contents once it starts and puts the new ones back only when it
/// succeeds, so a run that fails or panics leaves it empty (the
/// `induction.run` failpoint fires before, and leaves it as it was).
#[derive(Debug, Clone, Default)]
pub struct IlsMemo {
    learned: Option<Learned>,
}

impl IlsMemo {
    /// An empty memo: the next run learns every pair from scratch.
    pub fn new() -> IlsMemo {
        IlsMemo::default()
    }

    /// Whether the memo holds nothing to reuse.
    pub fn is_empty(&self) -> bool {
        self.learned.is_none()
    }
}

/// What an ILS run reads of the KER model: the classifiers (which
/// attributes are classifying, and the subtype labels of their values),
/// and each object type, in declaration order, with its declared
/// attributes' names and domain names (which attributes are
/// object-valued, and the types they reference).
#[derive(Debug, Clone)]
struct ModelKey {
    classifiers: Vec<Classifier>,
    types: Vec<(String, Vec<(String, String)>)>,
}

impl ModelKey {
    /// Whether `model` reads as this key: [`ModelKey::of`], compared
    /// in place instead of built.
    fn matches(&self, model: &KerModel) -> bool {
        let mut types = (model.type_names().iter()).filter_map(|name| model.object_type(name));
        self.classifiers.as_slice() == model.classifier_list()
            && self.types.iter().all(|(name, attrs)| {
                types.next().is_some_and(|ot| {
                    *name == ot.name
                        && attrs.len() == ot.declared_attrs.len()
                        && (attrs.iter().zip(&ot.declared_attrs))
                            .all(|((n, d), a)| n == a.name() && d == a.domain().name())
                })
            })
            && types.next().is_none()
    }

    fn of(model: &KerModel) -> ModelKey {
        let types = model.type_names().iter().filter_map(|name| {
            let ot = model.object_type(name)?;
            let attrs = (ot.declared_attrs.iter())
                .map(|a| (a.name().to_string(), a.domain().name().to_string()))
                .collect();
            Some((ot.name.clone(), attrs))
        });
        ModelKey {
            classifiers: model.classifier_list().to_vec(),
            types: types.collect(),
        }
    }
}

/// One successful run: its key, what it learned per source, and the
/// rule set it produced.
#[derive(Debug, Clone)]
struct Learned {
    model: ModelKey,
    cfg: InductionConfig,
    /// Each relation's name and schema handle, in catalog order.
    catalog: Vec<(String, SchemaRef)>,
    /// One per relation, in catalog order.
    sources: Vec<SourceMemo>,
    /// Every source's pairs' rules, numbered in job order.
    rules: Arc<RuleSet>,
}

impl Learned {
    fn matches(&self, model: &KerModel, cfg: &InductionConfig, db: &Database) -> bool {
        self.cfg == *cfg
            && self.catalog.len() == db.len()
            && self
                .catalog
                .iter()
                .zip(db.relations())
                .all(|((name, schema), rel)| {
                    name == rel.name() && Arc::ptr_eq(schema, &rel.schema_ref())
                })
            && self.model.matches(model)
    }
}

/// What a run learned from one source.
#[derive(Debug, Clone)]
struct SourceMemo {
    /// The stored relation, or the relationship of a joined source.
    rel: Arc<Relation>,
    /// A joined source's entities, `None` for a stored one.
    join: Option<JoinMemo>,
    /// One per job of the source, in job order.
    pairs: Vec<PairMemo>,
}

/// The entities a role join read.
#[derive(Debug, Clone)]
struct JoinMemo {
    /// Every role and hop entity, in [`RoleJoin::entities`] order.
    entities: Vec<Arc<Relation>>,
    /// Whether every role reference and every hop found its row.
    complete: bool,
}

/// One pair's result.
#[derive(Debug, Clone)]
struct PairMemo {
    x_id: AttrId,
    y_id: AttrId,
    /// The positions of X and Y in the tuples the rules point into.
    x: usize,
    y: usize,
    /// The kept rules, in scan order.
    rules: Vec<PairRule>,
    constructed: usize,
    /// A stored relation's non-null rows in §5.2.1 sort order; empty
    /// for a joined source, which is only ever reused or rebuilt.
    order: Vec<u32>,
}

/// A kept rule of a pair, pointing at the tuples whose values are its
/// bounds and its conclusion rather than copying them.
#[derive(Debug, Clone)]
struct PairRule {
    lo: Tuple,
    hi: Tuple,
    y: Tuple,
    support: usize,
    /// The subtype the conclusion selects.
    subtype: Option<String>,
}

impl PairRule {
    /// Whether `other` yields the same rule: its bounds (value `x` of
    /// `lo` and `hi`) and conclusion (value `y` of `y`) identical, and
    /// the same support and subtype.
    fn same_rule(&self, other: &PairRule, x: usize, y: usize) -> bool {
        self.lo.get(x).identical(other.lo.get(x))
            && self.hi.get(x).identical(other.hi.get(x))
            && self.y.get(y).identical(other.y.get(y))
            && self.support == other.support
            && self.subtype == other.subtype
    }
}

impl PairMemo {
    /// The pair's rules, labelled and ready to number.
    fn rules(&self) -> impl Iterator<Item = Rule> + '_ {
        self.rules.iter().map(|r| {
            let mut rule = pair_rule(
                self.x_id.clone(),
                r.lo.get(self.x).clone(),
                r.hi.get(self.x).clone(),
                self.y_id.clone(),
                r.y.get(self.y).clone(),
                r.support,
            );
            rule.rhs_subtype = r.subtype.clone();
            rule
        })
    }
}

/// Whether `new` is `old` plus appended rows: the same schema handle,
/// and `old`'s tuples, pointer for pointer, as its prefix.
fn extends(old: &Relation, new: &Relation) -> bool {
    Arc::ptr_eq(&old.schema_ref(), &new.schema_ref())
        && old.len() <= new.len()
        && old
            .tuples()
            .iter()
            .zip(new.tuples())
            .all(|(a, b)| a.shares_values(b))
}

/// A row position as the memo stores it.
fn row_id(row: usize) -> u32 {
    u32::try_from(row).expect("a relation holds fewer than u32::MAX rows")
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
        self.induce_parallel(db, 1)
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
        // The memo is dropped with the statement, so the set is unshared.
        let out = self.induce_memo(db, threads, &mut IlsMemo::new())?;
        Ok(IlsOutput {
            rules: Arc::try_unwrap(out.rules).unwrap_or_else(|shared| RuleSet::clone(&shared)),
            stats: out.stats,
        })
    }

    /// Run schema-guided induction, reusing what `memo` learned from an
    /// earlier run for every source that did not change (see
    /// [`IlsMemo`]), and leave this run's results in it. The pairs that
    /// must be recomputed are spread over `threads` workers as in
    /// [`Ils::induce_parallel`]. The output is that of [`Ils::induce`]
    /// on `db` (tested); when no recomputed pair's rules changed, its
    /// rule set is the one the memo's run returned, the same `Arc`.
    pub fn induce_memo(
        &self,
        db: &Database,
        threads: usize,
        memo: &mut IlsMemo,
    ) -> Result<IlsOutput<Arc<RuleSet>>> {
        let threads = threads.max(1);
        let mode = if threads == 1 {
            "sequential"
        } else {
            "parallel"
        };
        let _span = intensio_obs::Span::stage("induction.run", intensio_obs::Stage::Induction)
            .with_field("mode", mode)
            .with_field("threads", threads);
        intensio_fault::fire("induction.run")?;
        let old = memo
            .learned
            .take()
            .filter(|l| l.matches(self.model, &self.cfg, db));
        let (model, catalog, old_sources, old_rules) = match old {
            Some(l) => (l.model, l.catalog, l.sources, Some(l.rules)),
            None => {
                let catalog = db
                    .relations()
                    .map(|r| (r.name().to_string(), r.schema_ref()))
                    .collect();
                (ModelKey::of(self.model), catalog, Vec::new(), None)
            }
        };
        let mut plan = self.plan(db, old_sources)?;
        let jobs = std::mem::take(&mut plan.jobs);
        let results = plan.run_jobs(jobs, &self.cfg, self.model.classifier_list(), threads);
        let (out, sources) = self.assemble(plan, results, old_rules)?;
        memo.learned = Some(Learned {
            model,
            cfg: self.cfg,
            catalog,
            sources,
            rules: Arc::clone(&out.rules),
        });
        Ok(out)
    }

    /// Number the rules of every pair, in job order, record the run's
    /// statistics, and collect what the memo keeps. `previous` is the
    /// rule set of the run the memo held, if it still applies: when
    /// every recomputed pair kept its rules, it is the run's rule set.
    fn assemble(
        &self,
        plan: Plan<'_>,
        results: Vec<(PairMemo, bool)>,
        previous: Option<Arc<RuleSet>>,
    ) -> Result<(IlsOutput<Arc<RuleSet>>, Vec<SourceMemo>)> {
        let mut stats = IlsStats::default();
        let mut work = PairWork::default();
        let mut changed = false;
        let mut results = results.into_iter();
        let mut sources = Vec::with_capacity(plan.sources.len());
        for planned in plan.sources {
            let pairs = match planned.read {
                Read::Reused(pairs) => {
                    work.reused += pairs.len();
                    pairs
                }
                read => {
                    if matches!(read, Read::Extend(..)) {
                        work.extended += planned.jobs;
                    } else {
                        work.rebuilt += planned.jobs;
                    }
                    let mut pairs = Vec::with_capacity(planned.jobs);
                    for (pair, kept) in results.by_ref().take(planned.jobs) {
                        intensio_fault::fire("induction.pair")?;
                        changed |= !kept;
                        pairs.push(pair);
                    }
                    pairs
                }
            };
            for pair in &pairs {
                stats.pairs_examined += 1;
                stats.rules_constructed += pair.constructed;
                stats.rules_kept += pair.rules.len();
            }
            sources.push(SourceMemo {
                rel: planned.rel,
                join: planned.join,
                pairs,
            });
        }
        record_induction_metrics(&stats, work);
        let rules = match previous.filter(|_| !changed) {
            Some(rules) => {
                intensio_obs::inc("induction.rules_reused");
                rules
            }
            None => {
                let pairs = sources.iter().flat_map(|s| &s.pairs);
                Arc::new(RuleSet::from_rules(pairs.flat_map(PairMemo::rules)))
            }
        };
        Ok((IlsOutput { rules, stats }, sources))
    }

    /// The induction jobs of a database, in the order their rules are
    /// numbered: relations in catalog order; within a stored relation,
    /// every non-key classifying attribute `Y` paired with every other
    /// attribute `X` (intra-object, §3.1); within a relationship, every
    /// column of one role paired with every non-key classifying column
    /// of another (inter-object). `old` is what the memo learned per
    /// relation, in catalog order, or empty; a source it covers reuses
    /// or extends it instead.
    fn plan<'d>(&self, db: &'d Database, old: Vec<SourceMemo>) -> Result<Plan<'d>> {
        let classifier_attrs = self.classifier_attr_names();
        let is_classifier = |name: &str| classifier_attrs.contains(&name.to_ascii_lowercase());
        let mut old = old.into_iter();
        let mut plan = Plan {
            sources: Vec::new(),
            jobs: Vec::new(),
        };
        for rel in db.relations() {
            let shared = db.get_shared(rel.name())?;
            let old = old.next();
            let source = plan.sources.len();
            let first_job = plan.jobs.len();
            let roles = self.role_attrs(db, rel);
            if roles.len() >= 2 {
                if let Some(old) = old {
                    if let Some(entities) = self.join_unchanged(db, &old, &shared) {
                        let join = Some(JoinMemo {
                            entities,
                            complete: true,
                        });
                        plan.sources
                            .push(Planned::reused(SourceMemo { join, ..old }));
                        continue;
                    }
                }
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
                                    remembered: None,
                                });
                            }
                        }
                    }
                }
                let entities = join
                    .entities
                    .iter()
                    .map(|e| db.get_shared(e))
                    .collect::<Result<_>>()?;
                plan.sources.push(Planned {
                    rel: shared,
                    join: Some(JoinMemo {
                        entities,
                        complete: join.complete,
                    }),
                    jobs: plan.jobs.len() - first_job,
                    read: Read::Joined(join),
                });
            } else {
                let (read, remembered) = match old {
                    Some(old) if Arc::ptr_eq(&old.rel, &shared) => {
                        plan.sources.push(Planned::reused(old));
                        continue;
                    }
                    Some(old) if extends(&old.rel, rel) => {
                        if old.rel.len() == rel.len() {
                            plan.sources
                                .push(Planned::reused(SourceMemo { rel: shared, ..old }));
                            continue;
                        }
                        (Read::Extend(rel, old.rel.len()), old.pairs)
                    }
                    _ => (Read::Stored(rel), Vec::new()),
                };
                let mut remembered = remembered.into_iter();
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
                            remembered: remembered.next(),
                        });
                    }
                }
                plan.sources.push(Planned {
                    rel: shared,
                    join: None,
                    jobs: plan.jobs.len() - first_job,
                    read,
                });
            }
        }
        Ok(plan)
    }

    /// Whether a remembered role join still holds for `rel`: the
    /// relationship is the same `Arc`, every entity it read only gained
    /// rows, and none of its references missed (a missed one could now
    /// find an appended row). Returns the entities' current handles,
    /// which the memo keeps in place of the ones it read.
    fn join_unchanged(
        &self,
        db: &Database,
        old: &SourceMemo,
        rel: &Arc<Relation>,
    ) -> Option<Vec<Arc<Relation>>> {
        let join = old.join.as_ref()?;
        if !join.complete || !Arc::ptr_eq(&old.rel, rel) {
            return None;
        }
        join.entities
            .iter()
            .map(|e| db.get_shared(e.name()).ok().filter(|now| extends(e, now)))
            .collect()
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
                        subtype_label_among(classifiers, &rule.rhs.attr.attribute, v)
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
            entities: entities_needed.into_iter().collect(),
            complete: true,
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
                    join.complete = false;
                    continue 'tuples;
                };
                row[role.slot] = rid;
                let entity_row = &role.tuples[rid as usize];
                for hop in &role.hops {
                    let key = ValueRef(entity_row.get(hop.via));
                    row[hop.slot] = hop.rows.get(&key).copied().unwrap_or_else(|| {
                        join.complete = false;
                        NO_ROW
                    });
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
    /// The names of every role and hop entity the join read.
    entities: Vec<String>,
    /// Whether every relationship row found its role rows, and every
    /// hop its target row.
    complete: bool,
}

impl<'d> RoleJoin<'d> {
    /// The tuple column `col` reads at joined row `row`; the row must
    /// not read NULL through a missing hop.
    fn tuple(&self, col: usize, row: usize) -> &'d Tuple {
        let c = &self.columns[col];
        match self.rows[row * self.width + c.slot] {
            NO_ROW => panic!("joined row {row} reads no {} row", c.entity),
            id => &c.tuples[id as usize],
        }
    }

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

/// Where the jobs of a source read their rows.
enum Read<'d> {
    /// A stored relation, read in place; columns are attribute positions.
    Stored(&'d Relation),
    /// A stored relation that gained rows after the first `usize` the
    /// memo learned from: each job merges them into its remembered
    /// order.
    Extend(&'d Relation, usize),
    /// A relationship joined with its role entities; columns index
    /// [`RoleJoin::columns`].
    Joined(RoleJoin<'d>),
    /// Nothing: the source is unchanged, and the memo holds its pairs'
    /// results.
    Reused(Vec<PairMemo>),
}

/// One source of a run, in catalog order.
struct Planned<'d> {
    rel: Arc<Relation>,
    join: Option<JoinMemo>,
    /// The number of jobs in [`Plan::jobs`] that read this source.
    jobs: usize,
    read: Read<'d>,
}

impl Planned<'_> {
    /// A source whose pairs are all taken from the memo.
    fn reused(memo: SourceMemo) -> Self {
        Planned {
            rel: memo.rel,
            join: memo.join,
            jobs: 0,
            read: Read::Reused(memo.pairs),
        }
    }
}

/// One attribute pair to induce over.
struct Job {
    /// Index into [`Plan::sources`].
    source: usize,
    x: usize,
    x_id: AttrId,
    y: usize,
    y_id: AttrId,
    /// The pair as the memo has it, to extend (its buffers are reused).
    remembered: Option<PairMemo>,
}

/// The sources of one ILS run, and the jobs of those it must recompute.
struct Plan<'d> {
    sources: Vec<Planned<'d>>,
    jobs: Vec<Job>,
}

impl Plan<'_> {
    /// Run every job, spread over `threads` scoped workers (the last
    /// chunk on the calling thread), and return the results in job
    /// order.
    fn run_jobs(
        &self,
        jobs: Vec<Job>,
        cfg: &InductionConfig,
        classifiers: &[Classifier],
        threads: usize,
    ) -> Vec<(PairMemo, bool)> {
        let total = jobs.len();
        let chunk = total.div_ceil(threads).max(1);
        let mut jobs = jobs.into_iter();
        let mut chunks: Vec<Vec<Job>> = Vec::new();
        while jobs.len() > 0 {
            chunks.push(jobs.by_ref().take(chunk).collect());
        }
        let last = chunks.pop().unwrap_or_default();
        let run = |jobs: Vec<Job>| {
            jobs.into_iter()
                .map(|job| self.run(job, cfg, classifiers))
                .collect::<Vec<_>>()
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = chunks
                .into_iter()
                .map(|jobs| scope.spawn(move || run(jobs)))
                .collect();
            let mine = run(last);
            let mut results = Vec::with_capacity(total);
            for worker in workers {
                results.extend(worker.join().expect("induction worker panicked"));
            }
            results.extend(mine);
            results
        })
    }

    /// Induce one job's pair, and tell whether it kept the rules of the
    /// pair the job remembered (a job with none kept nothing).
    fn run(&self, job: Job, cfg: &InductionConfig, classifiers: &[Classifier]) -> (PairMemo, bool) {
        let source = &self.sources[job.source].read;
        let obs = match source {
            Read::Stored(rel) => sorted_obs(rel.iter().map(|t| (t.get(job.x), t.get(job.y))), 0),
            Read::Extend(rel, from) => {
                let tuples = rel.tuples();
                let pair = |row: usize| (tuples[row].get(job.x), tuples[row].get(job.y));
                let order = &job.remembered.as_ref().expect("a remembered pair").order;
                let known = order
                    .iter()
                    .map(|&row| {
                        let (x, y) = pair(row as usize);
                        Obs::new(x, y, row as usize)
                    })
                    .collect();
                let appended = sorted_obs((*from..tuples.len()).map(pair), *from);
                merge_appended(known, appended)
            }
            Read::Joined(join) => sorted_obs(join.values(job.x).zip(join.values(job.y)), 0),
            Read::Reused(_) => unreachable!("a reused source has no jobs"),
        };
        let (kept, constructed) = scan(&obs, cfg);
        // The tuple holding column `col` at row `row`.
        let tuple = |col: usize, row: usize| match source {
            Read::Stored(rel) | Read::Extend(rel, _) => rel.tuples()[row].clone(),
            Read::Joined(join) => join.tuple(col, row).clone(),
            Read::Reused(_) => unreachable!("a reused source has no jobs"),
        };
        let rules = kept.iter().map(|k| PairRule {
            lo: tuple(job.x, k.lo.row),
            hi: tuple(job.x, k.hi.row),
            y: tuple(job.y, k.y.row),
            support: k.support,
            subtype: subtype_label_among(classifiers, &job.y_id.attribute, k.y.y),
        });
        let remembered = job.remembered.is_some();
        let mut pair = match job.remembered {
            Some(pair) => pair,
            // Where X and Y sit in the tuples the rules point into.
            None => {
                let (x, y) = match source {
                    Read::Joined(join) => (join.columns[job.x].attr, join.columns[job.y].attr),
                    _ => (job.x, job.y),
                };
                PairMemo {
                    x_id: job.x_id.clone(),
                    y_id: job.y_id.clone(),
                    x,
                    y,
                    rules: Vec::new(),
                    constructed: 0,
                    order: Vec::new(),
                }
            }
        };
        // Refilled in place (an extended pair keeps its buffers), noting
        // whether every rule came out as the remembered one.
        let mut kept_rules = remembered && pair.rules.len() == kept.len();
        if kept_rules {
            for (old, new) in pair.rules.iter_mut().zip(rules) {
                kept_rules &= old.same_rule(&new, pair.x, pair.y);
                *old = new;
            }
        } else {
            pair.rules.clear();
            pair.rules.extend(rules);
        }
        pair.constructed = constructed;
        pair.order.clear();
        // Only a stored relation's order is kept, to extend.
        if !matches!(source, Read::Joined(_)) {
            pair.order.extend(obs.iter().map(|o| row_id(o.row)));
        }
        (pair, kept_rules)
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

    /// A model that differs in what a run reads empties the memo: a
    /// run with it equals one from scratch. Retyping `SUBMARINE.Class`
    /// drops the hop from INSTALL's ship role to CLASS; a remembered
    /// role join (the same `Arc`, unchanged entities) would be reused
    /// were the memo keyed on less than attribute domains.
    #[test]
    fn a_changed_model_empties_the_memo() {
        use intensio_shipdb::schema::SHIP_SCHEMA_KER;
        let db = intensio_shipdb::ship_database().unwrap();
        let model = KerModel::parse(SHIP_SCHEMA_KER).unwrap();
        let retyped = SHIP_SCHEMA_KER.replace("Class domain: CLASS", "Class domain: CHAR[4]");
        let relabelled = SHIP_SCHEMA_KER.replace("with Type = \"SSN\"", "with Type = \"SSN~\"");
        let cfg = InductionConfig::with_min_support(2);
        let fresh = |m: &KerModel| Ils::new(m, cfg).induce(&db).unwrap().rules.to_string();
        let mut memo = IlsMemo::new();
        let first = Ils::new(&model, cfg)
            .induce_memo(&db, 1, &mut memo)
            .unwrap();
        assert_eq!(first.rules.to_string(), fresh(&model));
        for ker in [retyped, relabelled] {
            let other = KerModel::parse(&ker).unwrap();
            let want = fresh(&other);
            assert_ne!(want, fresh(&model), "the change shows in the rules");
            let got = Ils::new(&other, cfg)
                .induce_memo(&db, 1, &mut memo)
                .unwrap();
            assert_eq!(got.rules.to_string(), want);
            // The same model parsed again keeps the memo.
            let again = KerModel::parse(&ker).unwrap();
            let got = Ils::new(&again, cfg)
                .induce_memo(&db, 1, &mut memo)
                .unwrap();
            assert_eq!(got.rules.to_string(), want);
        }
    }
}
