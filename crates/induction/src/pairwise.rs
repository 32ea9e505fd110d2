//! The pairwise rule-induction algorithm of §5.2.1.
//!
//! For an attribute pair `(X, Y)` of a relation:
//!
//! 1. collect the distinct `(Y, X)` value pairs, sorted by X;
//! 2. remove inconsistent pairs (an X with more than one Y);
//! 3. for each distinct `y`, build rules `if x1 <= X <= x2 then Y = y`
//!    over maximal runs of consecutive observed X values;
//! 4. prune rules with support below `N_c`.

use crate::config::{InconsistencyPolicy, InductionConfig, RunScope, SupportMetric};
use intensio_rules::rule::{AttrId, Clause, Rule};
use intensio_storage::error::Result;
use intensio_storage::relation::Relation;
use intensio_storage::value::Value;
use std::ops::Range;

/// A rule produced by pairwise induction, before numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct InducedRule {
    /// The premise attribute.
    pub x: AttrId,
    /// The induced X range (inclusive).
    pub lo: Value,
    /// Upper end of the range.
    pub hi: Value,
    /// The consequence attribute.
    pub y: AttrId,
    /// The concluded Y value.
    pub y_value: Value,
    /// Instances satisfying premise and consequence.
    pub support: usize,
    /// Instances satisfying the premise but *not* the consequence
    /// (non-zero only under the `RemainingOrder`/`MajorityVote`
    /// ablations).
    pub violations: usize,
    /// Distinct X values covered.
    pub distinct_x: usize,
}

impl InducedRule {
    /// Convert into a [`Rule`] (id assigned by the rule set).
    pub fn into_rule(self) -> Rule {
        let support = self.support;
        Rule::new(
            0,
            vec![Clause::between(self.x, self.lo, self.hi)],
            Clause::equals(self.y, self.y_value),
        )
        .with_support(support)
    }
}

/// Induce rules for the pair `(X, Y)` over a relation.
///
/// `object_x`/`object_y` name the object types the attributes belong to
/// (used for rule display and inference); for intra-object induction
/// both are the relation name.
pub fn induce_pair(
    rel: &Relation,
    object_x: &str,
    x: &str,
    object_y: &str,
    y: &str,
    cfg: &InductionConfig,
) -> Result<Vec<InducedRule>> {
    induce_pair_ids(
        rel,
        x,
        AttrId::new(object_x, x),
        y,
        AttrId::new(object_y, y),
        cfg,
    )
}

/// Like [`induce_pair`], but with explicit column names and attribute
/// ids. Used for inter-object induction, where the joined relation's
/// columns are role-prefixed (`SUBMARINE.Id`) while the rule should
/// speak of `SUBMARINE.Id` via its [`AttrId`].
pub fn induce_pair_ids(
    rel: &Relation,
    x_col: &str,
    x_id: AttrId,
    y_col: &str,
    y_id: AttrId,
    cfg: &InductionConfig,
) -> Result<Vec<InducedRule>> {
    induce_pair_ids_with_stats(rel, x_col, x_id, y_col, y_id, cfg).map(|(rules, _)| rules)
}

/// Like [`induce_pair_ids`], additionally returning the number of rules
/// constructed in step 3 *before* the `N_c` pruning of step 4.
pub fn induce_pair_ids_with_stats(
    rel: &Relation,
    x_col: &str,
    x_id: AttrId,
    y_col: &str,
    y_id: AttrId,
    cfg: &InductionConfig,
) -> Result<(Vec<InducedRule>, usize)> {
    let xi = rel.schema().require(rel.name(), x_col)?;
    let yi = rel.schema().require(rel.name(), y_col)?;
    let pairs = rel.iter().map(|t| (t.get(xi), t.get(yi)));
    Ok(induce_values(pairs, &x_id, &y_id, cfg))
}

/// One observed `(X, Y)` pair: both values non-null, and the position
/// of its row in scan order.
#[derive(Clone, Copy)]
struct Obs<'v> {
    x: &'v Value,
    y: &'v Value,
    row: usize,
}

/// The rule a run of X groups is building: its first and last X, its Y,
/// and the span of sorted observations it covers.
struct Run<'v> {
    lo: &'v Value,
    hi: &'v Value,
    y: &'v Value,
    support: usize,
    violations: usize,
    distinct_x: usize,
    span: Range<usize>,
}

/// §5.2.1 over one attribute pair, given its `(X, Y)` values in row
/// order: `retrieve unique (X, Y) sort by X`, then one scan.
///
/// The non-null pairs are sorted stably by `(X, Y)` under
/// [`Value::total_cmp`], so equal X values form one group and, inside
/// it, equal Y values one sub-run. Where equal values differ in
/// representation (`Int(3)` and `Real(3.0)`), the one whose row comes
/// first stands for them, as a `BTreeMap` keyed by the first insertion
/// would have it. Values are borrowed throughout; only those of a rule
/// that survives step 4 are copied. Returns the kept rules and the
/// number constructed before pruning.
pub(crate) fn induce_values<'v>(
    pairs: impl Iterator<Item = (&'v Value, &'v Value)>,
    x_id: &AttrId,
    y_id: &AttrId,
    cfg: &InductionConfig,
) -> (Vec<InducedRule>, usize) {
    // Step 1: the non-null pairs, sorted by (X, Y); missing values
    // carry no classification evidence.
    let mut obs: Vec<Obs<'v>> = pairs
        .enumerate()
        .filter(|(_, (x, y))| !x.is_null() && !y.is_null())
        .map(|(row, (x, y))| Obs { x, y, row })
        .collect();
    obs.sort_by(|a, b| a.x.total_cmp(b.x).then_with(|| a.y.total_cmp(b.y)));

    let mut rules = Vec::new();
    let mut constructed = 0usize;
    let mut flush = |run: Option<Run<'v>>| {
        let Some(run) = run else { return };
        constructed += 1;
        // Step 4: prune by support.
        let measure = match cfg.support_metric {
            SupportMetric::Instances => run.support,
            SupportMetric::DistinctValues => run.distinct_x,
        };
        if measure < cfg.min_support {
            return;
        }
        // Under RemainingOrder, a rule's range may span removed X
        // values: recount violations from the raw pairs.
        let violations = match cfg.run_scope {
            RunScope::FullObservedOrder => run.violations,
            RunScope::RemainingOrder => recount_violations(&obs[run.span], run.lo, run.hi, run.y),
        };
        rules.push(InducedRule {
            x: x_id.clone(),
            lo: run.lo.clone(),
            hi: run.hi.clone(),
            y: y_id.clone(),
            y_value: run.y.clone(),
            support: run.support,
            violations,
            distinct_x: run.distinct_x,
        });
    };

    let mut run: Option<Run<'v>> = None;
    let mut start = 0;
    while start < obs.len() {
        let end = group_end(&obs, start, |o| o.x);
        let (x, assigned) = resolve_group(&obs[start..end], cfg.inconsistency);
        match assigned {
            // Step 2 removed this X: under the full observed order it
            // breaks the run; among the remaining values it is skipped.
            None => {
                if cfg.run_scope == RunScope::FullObservedOrder {
                    flush(run.take());
                }
            }
            // Step 3: maximal runs of consecutive X values sharing a Y.
            Some((y, n, v)) => match &mut run {
                Some(r) if r.y.total_cmp(y).is_eq() => {
                    r.hi = x;
                    r.support += n;
                    r.violations += v;
                    r.distinct_x += 1;
                    r.span.end = end;
                }
                _ => {
                    flush(run.take());
                    run = Some(Run {
                        lo: x,
                        hi: x,
                        y,
                        support: n,
                        violations: v,
                        distinct_x: 1,
                        span: start..end,
                    });
                }
            },
        }
        start = end;
    }
    flush(run);
    (rules, constructed)
}

/// The end of the group of sorted observations starting at `start`:
/// those whose `key` equals the first one's under the total order.
fn group_end<'v>(obs: &[Obs<'v>], start: usize, key: impl Fn(&Obs<'v>) -> &'v Value) -> usize {
    let first = key(&obs[start]);
    start
        + obs[start..]
            .iter()
            .take_while(|o| key(o).total_cmp(first).is_eq())
            .count()
}

/// Step 2 for one X group (sorted by Y): the X value standing for the
/// group, and its `(Y, instances, contradicting instances)` if it is
/// consistent or majority-voted, `None` if it is removed.
fn resolve_group<'v>(
    group: &[Obs<'v>],
    policy: InconsistencyPolicy,
) -> (&'v Value, Option<(&'v Value, usize, usize)>) {
    let mut first = group[0];
    let (mut best_y, mut best_n) = (group[0].y, 0);
    let mut distinct_y = 0;
    let mut start = 0;
    while start < group.len() {
        let end = group_end(group, start, |o| o.y);
        // A stable sort leaves each sub-run's earliest row first.
        if group[start].row < first.row {
            first = group[start];
        }
        // Ties go to the last maximal Y, as `max_by_key` breaks them;
        // no output shows it, as a Y is kept only when it is the
        // group's one Y or holds a strict majority.
        if end - start >= best_n {
            (best_y, best_n) = (group[start].y, end - start);
        }
        distinct_y += 1;
        start = end;
    }
    let total = group.len();
    let assigned = if distinct_y == 1 {
        Some((best_y, best_n, 0))
    } else {
        match policy {
            InconsistencyPolicy::Remove => None,
            InconsistencyPolicy::MajorityVote => {
                (best_n * 2 > total).then_some((best_y, best_n, total - best_n))
            }
        }
    };
    (first.x, assigned)
}

/// Instances in `obs` (sorted by X, then Y) whose X lies in `[lo, hi]`
/// and whose Y is not `y`. Each sub-run's Y is compared as its earliest
/// row's value, under `Value`'s own equality.
fn recount_violations(obs: &[Obs<'_>], lo: &Value, hi: &Value, y: &Value) -> usize {
    let in_range = |x: &Value| {
        x.compare(lo).map(|o| o.is_ge()).unwrap_or(false)
            && x.compare(hi).map(|o| o.is_le()).unwrap_or(false)
    };
    let mut violations = 0;
    let mut start = 0;
    while start < obs.len() {
        let x_end = group_end(obs, start, |o| o.x);
        if in_range(obs[start].x) {
            while start < x_end {
                let end = group_end(&obs[..x_end], start, |o| o.y);
                if obs[start].y != y {
                    violations += end - start;
                }
                start = end;
            }
        }
        start = x_end;
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_storage::domain::Domain;
    use intensio_storage::schema::{Attribute, Schema};
    use intensio_storage::tuple;
    use intensio_storage::value::ValueType;

    fn class_rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new("Type", Domain::char_n(4)),
            Attribute::new("Displacement", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut r = Relation::new("CLASS", schema);
        r.insert_all([
            tuple!["0101", "SSBN", 16600],
            tuple!["0102", "SSBN", 7250],
            tuple!["0103", "SSBN", 7250],
            tuple!["0201", "SSN", 6000],
            tuple!["0203", "SSN", 4450],
            tuple!["0204", "SSN", 3640],
            tuple!["1301", "SSBN", 30000],
        ])
        .unwrap();
        r
    }

    #[test]
    fn induces_class_to_type_runs() {
        let cfg = InductionConfig::with_min_support(1);
        let rules = induce_pair(&class_rel(), "CLASS", "Class", "CLASS", "Type", &cfg).unwrap();
        // Runs: 0101-0103 SSBN, 0201-0204 SSN, 1301 SSBN.
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].lo, Value::str("0101"));
        assert_eq!(rules[0].hi, Value::str("0103"));
        assert_eq!(rules[0].y_value, Value::str("SSBN"));
        assert_eq!(rules[0].support, 3);
        assert_eq!(rules[2].lo, Value::str("1301"));
        assert_eq!(rules[2].support, 1);
    }

    #[test]
    fn pruning_drops_singletons() {
        let cfg = InductionConfig::with_min_support(3);
        let rules = induce_pair(&class_rel(), "CLASS", "Class", "CLASS", "Type", &cfg).unwrap();
        assert_eq!(rules.len(), 2, "the 1301 singleton is pruned (R_new)");
    }

    #[test]
    fn displacement_ranges_match_paper_r8_r9() {
        let cfg = InductionConfig::with_min_support(2);
        let rules =
            induce_pair(&class_rel(), "CLASS", "Displacement", "CLASS", "Type", &cfg).unwrap();
        // Sorted displacements: 3640,4450,6000 SSN | 7250(x2),16600,30000 SSBN.
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].y_value, Value::str("SSN"));
        assert_eq!(rules[0].lo, Value::Int(3640));
        assert_eq!(rules[0].hi, Value::Int(6000));
        assert_eq!(rules[1].y_value, Value::str("SSBN"));
        assert_eq!(rules[1].lo, Value::Int(7250));
        assert_eq!(rules[1].hi, Value::Int(30000));
        assert_eq!(rules[1].support, 4, "7250 appears twice");
    }

    fn noisy_rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::new("X", Domain::basic(ValueType::Int)),
            Attribute::new("Y", Domain::char_n(1)),
        ])
        .unwrap();
        let mut r = Relation::new("R", schema);
        r.insert_all([
            tuple![1, "a"],
            tuple![2, "a"],
            tuple![3, "a"],
            tuple![3, "a"],
            tuple![3, "b"], // inconsistent X=3, majority a
            tuple![4, "a"],
            tuple![5, "b"],
        ])
        .unwrap();
        r
    }

    #[test]
    fn remove_policy_breaks_runs() {
        let cfg = InductionConfig {
            min_support: 1,
            ..InductionConfig::default()
        };
        let rules = induce_pair(&noisy_rel(), "R", "X", "R", "Y", &cfg).unwrap();
        // X=3 removed: runs {1,2}:a, {4}:a, {5}:b.
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].hi, Value::Int(2));
        assert!(rules.iter().all(|r| r.violations == 0));
    }

    #[test]
    fn majority_vote_keeps_x3() {
        let cfg = InductionConfig {
            min_support: 1,
            inconsistency: InconsistencyPolicy::MajorityVote,
            ..InductionConfig::default()
        };
        let rules = induce_pair(&noisy_rel(), "R", "X", "R", "Y", &cfg).unwrap();
        // X=3 assigned to a (3 of 4... actually 2 of 3): run {1..4}:a, {5}:b.
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].hi, Value::Int(4));
        assert_eq!(rules[0].violations, 1, "the one b at X=3");
        assert_eq!(rules[0].support, 5);
    }

    #[test]
    fn remaining_order_spans_removed_values() {
        let cfg = InductionConfig {
            min_support: 1,
            run_scope: RunScope::RemainingOrder,
            ..InductionConfig::default()
        };
        let rules = induce_pair(&noisy_rel(), "R", "X", "R", "Y", &cfg).unwrap();
        // X=3 removed but runs computed over remaining {1,2,4}:a, {5}:b.
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].lo, Value::Int(1));
        assert_eq!(rules[0].hi, Value::Int(4));
        assert_eq!(
            rules[0].violations, 1,
            "range [1,4] covers the removed X=3 with one contradicting instance"
        );
    }

    #[test]
    fn distinct_value_support_metric() {
        let cfg = InductionConfig {
            min_support: 2,
            support_metric: SupportMetric::DistinctValues,
            ..InductionConfig::default()
        };
        let rules = induce_pair(&noisy_rel(), "R", "X", "R", "Y", &cfg).unwrap();
        // Only the {1,2} run has >= 2 distinct X values.
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].distinct_x, 2);
    }

    #[test]
    fn nulls_are_skipped() {
        let schema = Schema::new(vec![
            Attribute::new("X", Domain::basic(ValueType::Int)),
            Attribute::new("Y", Domain::char_n(1)),
        ])
        .unwrap();
        let mut r = Relation::new("R", schema);
        r.insert(tuple![1, "a"]).unwrap();
        r.insert(intensio_storage::tuple::Tuple::new(vec![
            Value::Null,
            Value::str("b"),
        ]))
        .unwrap();
        r.insert(intensio_storage::tuple::Tuple::new(vec![
            Value::Int(2),
            Value::Null,
        ]))
        .unwrap();
        let cfg = InductionConfig::with_min_support(1);
        let rules = induce_pair(&r, "R", "X", "R", "Y", &cfg).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].support, 1);
    }

    #[test]
    fn point_rule_when_single_value() {
        let cfg = InductionConfig::with_min_support(1);
        let rules = induce_pair(&class_rel(), "CLASS", "Type", "CLASS", "Type", &cfg);
        // X == Y degenerates to identity point rules; allowed but odd.
        assert!(rules.is_ok());
    }

    #[test]
    fn unknown_attribute_errors() {
        let cfg = InductionConfig::default();
        assert!(induce_pair(&class_rel(), "CLASS", "Nope", "CLASS", "Type", &cfg).is_err());
    }

    #[test]
    fn into_rule_display() {
        let cfg = InductionConfig::with_min_support(3);
        let rules = induce_pair(&class_rel(), "CLASS", "Class", "CLASS", "Type", &cfg).unwrap();
        let rule = rules[0].clone().into_rule();
        assert_eq!(
            rule.to_string(),
            "R0: if \"0101\" <= CLASS.Class <= \"0103\" then CLASS.Type = \"SSBN\""
        );
    }
}
