//! Induced rules: Horn clauses over attribute value ranges (§5.2.2).
//!
//! Each rule is `if C_L1 and ... and C_Ln then C_R`, where every clause
//! constrains one attribute to a closed value range. A rule may carry a
//! *subtype label*: when its consequence equates a hierarchy's
//! classifying attribute with a subtype's derivation value, the rule is
//! equivalently `... then x isa SUBTYPE` (the form the paper prints).

use crate::lookup::RuleLookup;
use crate::range::ValueRange;
use intensio_storage::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::OnceLock;

/// An attribute identified by its owning object type (or relation) and
/// name, e.g. `CLASS.Displacement`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId {
    /// The object type / relation name.
    pub object: String,
    /// The attribute name.
    pub attribute: String,
}

impl AttrId {
    /// Construct an attribute id.
    pub fn new(object: impl Into<String>, attribute: impl Into<String>) -> AttrId {
        AttrId {
            object: object.into(),
            attribute: attribute.into(),
        }
    }

    /// Case-insensitive equality.
    pub fn matches(&self, object: &str, attribute: &str) -> bool {
        self.object.eq_ignore_ascii_case(object) && self.attribute.eq_ignore_ascii_case(attribute)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.object, self.attribute)
    }
}

/// A clause `(lvalue, attribute, uvalue)`: the attribute's value lies in
/// a range. Rule clauses are closed ranges; clause ranges derived from
/// query conditions may be half-open.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// The constrained attribute.
    pub attr: AttrId,
    /// The admitted range.
    pub range: ValueRange,
}

impl Clause {
    /// `==` with range endpoints compared by [`Value::identical`].
    pub fn identical(&self, other: &Clause) -> bool {
        self.attr == other.attr && self.range.identical(&other.range)
    }

    /// `lvalue <= attr <= uvalue`.
    pub fn between(attr: AttrId, lo: impl Into<Value>, hi: impl Into<Value>) -> Clause {
        Clause {
            attr,
            range: ValueRange::closed(lo, hi),
        }
    }

    /// `attr = value`.
    pub fn equals(attr: AttrId, v: impl Into<Value>) -> Clause {
        Clause {
            attr,
            range: ValueRange::point(v),
        }
    }

    /// Whether this clause's range subsumes another clause on the same
    /// attribute.
    pub fn subsumes(&self, other: &Clause) -> bool {
        self.attr == other.attr && self.range.subsumes(&other.range)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.range.as_point() {
            return write!(f, "{} = {p}", self.attr);
        }
        match (&self.range.lo, &self.range.hi) {
            (Some(l), Some(h)) if l.inclusive && h.inclusive => {
                write!(f, "{} <= {} <= {}", l.value, self.attr, h.value)
            }
            _ => write!(f, "{} {}", self.attr, self.range),
        }
    }
}

/// An induced rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule number (unique within a [`RuleSet`]).
    pub id: u32,
    /// Premise clauses (conjunction).
    pub lhs: Vec<Clause>,
    /// Consequence clause (Horn: exactly one).
    pub rhs: Clause,
    /// When the consequence selects a subtype of a hierarchy, its name
    /// (`then x isa SSBN`).
    pub rhs_subtype: Option<String>,
    /// Number of database instances satisfying the rule when induced.
    pub support: usize,
}

impl Rule {
    /// `==` with every clause compared by [`Clause::identical`].
    pub fn identical(&self, other: &Rule) -> bool {
        self.id == other.id
            && self.support == other.support
            && self.rhs_subtype == other.rhs_subtype
            && self.rhs.identical(&other.rhs)
            && self.lhs.len() == other.lhs.len()
            && self.lhs.iter().zip(&other.lhs).all(|(a, b)| a.identical(b))
    }

    /// Build a rule; id and support can be adjusted afterwards.
    pub fn new(id: u32, lhs: Vec<Clause>, rhs: Clause) -> Rule {
        Rule {
            id,
            lhs,
            rhs,
            rhs_subtype: None,
            support: 0,
        }
    }

    /// Attach a subtype label (builder style).
    pub fn with_subtype(mut self, name: impl Into<String>) -> Rule {
        self.rhs_subtype = Some(name.into());
        self
    }

    /// Attach a support count (builder style).
    pub fn with_support(mut self, support: usize) -> Rule {
        self.support = support;
        self
    }

    /// The premise clause over the given attribute, if present.
    pub fn lhs_clause(&self, object: &str, attribute: &str) -> Option<&Clause> {
        self.lhs.iter().find(|c| c.attr.matches(object, attribute))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}: if ", self.id)?;
        for (i, c) in self.lhs.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        match &self.rhs_subtype {
            Some(s) => write!(f, " then x isa {s}"),
            None => write!(f, " then {}", self.rhs),
        }
    }
}

/// A collection of rules with stable numbering.
#[derive(Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// [`RuleSet::lookup`], built on first use.
    lookup: LookupCache,
}

/// A rule set's lookup, built once. It is derived from the rules, so it
/// takes no part in equality; every method that changes the rules
/// empties it.
#[derive(Clone, Default)]
struct LookupCache(OnceLock<RuleLookup>);

impl PartialEq for LookupCache {
    fn eq(&self, _: &LookupCache) -> bool {
        true
    }
}

impl fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleSet")
            .field("rules", &self.rules)
            .finish()
    }
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Build from rules, renumbering them 1..n.
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> RuleSet {
        let mut rs = RuleSet::new();
        for r in rules {
            rs.push(r);
        }
        rs
    }

    /// Append a rule, assigning the next id.
    pub fn push(&mut self, mut rule: Rule) -> u32 {
        self.lookup.0.take();
        let id = self.rules.len() as u32 + 1;
        rule.id = id;
        self.rules.push(rule);
        id
    }

    /// Whether `other` holds the same rules, compared by
    /// [`Rule::identical`]: ids, premises, conclusions, labels and
    /// support all agree, and reals agree bit for bit. Unlike `==`
    /// (under which `-0.0 == 0.0`), two identical sets encode to the
    /// same bytes and check to the same report.
    pub fn identical(&self, other: &RuleSet) -> bool {
        self.rules.len() == other.rules.len()
            && self
                .rules
                .iter()
                .zip(&other.rules)
                .all(|(a, b)| a.identical(b))
    }

    /// The rules keyed by attribute, built on the first call after the
    /// rules last changed; later calls borrow the same lookup.
    pub fn lookup(&self) -> &RuleLookup {
        self.lookup.0.get_or_init(|| RuleLookup::new(&self.rules))
    }

    /// The rules at `positions` (ids − 1).
    fn at<'s>(&'s self, positions: &'s [u32]) -> impl Iterator<Item = &'s Rule> + 's {
        positions.iter().map(|&p| &self.rules[p as usize])
    }

    /// The rules, in id order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Look up by id.
    pub fn get(&self, id: u32) -> Option<&Rule> {
        // Ids are positions + 1 (see [`RuleSet::push`]).
        let pos = (id as usize).checked_sub(1)?;
        self.rules.get(pos).filter(|r| r.id == id)
    }

    /// Rule positions grouped by conclusion attribute (compared ASCII
    /// case-insensitively, like [`AttrId::matches`]), each group in id
    /// order, groups in order of their first rule. Two rules can only
    /// conflict or subsume each other within one group.
    pub fn conclusion_groups(&self) -> Vec<Vec<usize>> {
        let mut group_of: HashMap<(String, String), usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (pos, r) in self.rules.iter().enumerate() {
            let key = (
                r.rhs.attr.object.to_ascii_lowercase(),
                r.rhs.attr.attribute.to_ascii_lowercase(),
            );
            let g = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(pos);
        }
        groups
    }

    /// Rule positions grouped by whole consequence: attribute, range and
    /// subtype label, all compared with `==`. Each group is in id order,
    /// groups in order of their first rule. A rule whose consequence is
    /// not equal to itself (a NaN bound) is a group of its own.
    fn consequence_groups(&self) -> Vec<Vec<usize>> {
        // Buckets of groups whose consequences hash alike; a rule joins
        // the bucket's group whose first rule it equals.
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (pos, r) in self.rules.iter().enumerate() {
            let bucket = buckets.entry(consequence_hash(r)).or_default();
            let same = |&&g: &&usize| {
                let first = &self.rules[groups[g][0]];
                first.rhs == r.rhs && first.rhs_subtype == r.rhs_subtype
            };
            match bucket.iter().find(same) {
                Some(&g) => groups[g].push(pos),
                None => {
                    bucket.push(groups.len());
                    groups.push(vec![pos]);
                }
            }
        }
        groups
    }

    /// Rules whose consequence constrains `object.attribute`.
    pub fn rules_concluding(&self, object: &str, attribute: &str) -> Vec<&Rule> {
        let lookup = self.lookup();
        let positions = lookup.key(object, attribute).map(|k| lookup.concluding(k));
        self.at(positions.unwrap_or_default()).collect()
    }

    /// Rules whose consequence is the given subtype.
    pub fn rules_concluding_subtype(&self, subtype: &str) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| {
                r.rhs_subtype
                    .as_deref()
                    .map(|s| s.eq_ignore_ascii_case(subtype))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Rules whose premise mentions `object.attribute`.
    pub fn rules_premised_on(&self, object: &str, attribute: &str) -> Vec<&Rule> {
        let lookup = self.lookup();
        let positions = lookup.key(object, attribute).map(|k| lookup.premised_on(k));
        self.at(positions.unwrap_or_default()).collect()
    }

    /// Drop rules with support below `min_support`, renumbering. Returns
    /// the number removed. This is the §5.2.1 step-4 pruning with
    /// threshold `N_c`.
    pub fn prune_below(&mut self, min_support: usize) -> usize {
        self.lookup.0.take();
        let before = self.rules.len();
        self.rules.retain(|r| r.support >= min_support);
        for (i, r) in self.rules.iter_mut().enumerate() {
            r.id = i as u32 + 1;
        }
        before - self.rules.len()
    }

    /// Remove redundant rules: a rule is dropped when another rule with
    /// the same consequence has a premise that subsumes it clause-for-
    /// clause (every clause of the keeper covers the corresponding
    /// attribute's clause of the dropped rule). Ties keep the wider
    /// rule; among equals, the lower id. Returns the number removed.
    ///
    /// This is an optional pass beyond the paper's support-based pruning
    /// (§5.2.1 step 4): it trades no applicability at all, since every
    /// query the dropped rule would answer is answered by its subsumer.
    pub fn minimize(&mut self) -> usize {
        self.lookup.0.take();
        let groups = self.consequence_groups();
        let rules = std::mem::take(&mut self.rules);
        let mut keep: Vec<bool> = vec![true; rules.len()];
        // Only a rule with the same consequence can subsume another, and
        // no rule is in two groups, so each group is minimized alone.
        for group in &groups {
            for &i in group {
                if !keep[i] {
                    continue;
                }
                for &j in group {
                    if i == j || !keep[j] {
                        continue;
                    }
                    // Does a subsume b? Every clause of a must subsume b's
                    // clause on the same attribute (and a must not
                    // constrain attributes b does not — that would make a
                    // narrower).
                    let (a, b) = (&rules[j], &rules[i]);
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
        }
        let removed = keep.iter().filter(|k| !**k).count();
        self.rules = rules
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(r, _)| r)
            .collect();
        for (i, r) in self.rules.iter_mut().enumerate() {
            r.id = i as u32 + 1;
        }
        removed
    }

    /// Merge another rule set into this one, renumbering its rules.
    pub fn extend(&mut self, other: RuleSet) {
        for r in other.rules {
            self.push(r);
        }
    }

    /// Iterate over rules.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }
}

/// A hash of a rule's consequence (clause and subtype label) that agrees
/// with `==` on them: equal consequences hash alike.
fn consequence_hash(r: &Rule) -> u64 {
    fn value(v: &Value, h: &mut DefaultHasher) {
        match v {
            Value::Null => 0u8.hash(h),
            Value::Int(i) => (1u8, i).hash(h),
            // 0.0 == -0.0; a NaN equals nothing, so any hash serves.
            Value::Real(f) => (2u8, if *f == 0.0 { 0 } else { f.to_bits() }).hash(h),
            Value::Str(s) => (3u8, s).hash(h),
            Value::Date(d) => (4u8, d).hash(h),
        }
    }
    let mut h = DefaultHasher::new();
    r.rhs.attr.hash(&mut h);
    r.rhs_subtype.hash(&mut h);
    for end in [&r.rhs.range.lo, &r.rhs.range.hi] {
        match end {
            None => 0u8.hash(&mut h),
            Some(e) => {
                (1u8, e.inclusive).hash(&mut h);
                value(&e.value, &mut h);
            }
        }
    }
    h.finish()
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl IntoIterator for RuleSet {
    type Item = Rule;
    type IntoIter = std::vec::IntoIter<Rule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r9() -> Rule {
        // R9: if 7250 <= Displacement <= 30000 then x isa SSBN.
        Rule::new(
            9,
            vec![Clause::between(
                AttrId::new("CLASS", "Displacement"),
                7250,
                30000,
            )],
            Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
        )
        .with_subtype("SSBN")
        .with_support(4)
    }

    #[test]
    fn identical_tells_signed_zeros_apart() {
        let with = |v: f64| {
            RuleSet::from_rules([Rule::new(
                0,
                vec![Clause::between(AttrId::new("CLASS", "Draft"), v, 9.5)],
                Clause::equals(AttrId::new("CLASS", "Type"), "SSN"),
            )])
        };
        assert!(with(0.0).identical(&with(0.0)));
        assert_eq!(with(-0.0), with(0.0), "`==` equates the signed zeros");
        assert!(!with(-0.0).identical(&with(0.0)));
        assert!(with(f64::NAN).identical(&with(f64::NAN)));
        let mut more = with(0.0);
        more.push(r9());
        assert!(!more.identical(&with(0.0)));
        let mut relabelled = with(0.0);
        relabelled.rules[0].support = 3;
        assert!(!relabelled.identical(&with(0.0)));
    }

    #[test]
    fn display_matches_paper_style() {
        let r = r9();
        assert_eq!(
            r.to_string(),
            "R9: if 7250 <= CLASS.Displacement <= 30000 then x isa SSBN"
        );
        let plain = Rule::new(
            1,
            vec![Clause::equals(AttrId::new("R", "A"), 1)],
            Clause::equals(AttrId::new("R", "B"), 2),
        );
        assert_eq!(plain.to_string(), "R1: if R.A = 1 then R.B = 2");
    }

    #[test]
    fn clause_subsumption() {
        let a = Clause::between(AttrId::new("C", "D"), 0, 100);
        let b = Clause::between(AttrId::new("C", "D"), 10, 20);
        let c = Clause::between(AttrId::new("C", "E"), 10, 20);
        assert!(a.subsumes(&b));
        assert!(!b.subsumes(&a));
        assert!(!a.subsumes(&c), "different attribute");
    }

    #[test]
    fn ruleset_numbering_and_lookup() {
        let mut rs = RuleSet::new();
        let id1 = rs.push(r9());
        let id2 = rs.push(r9());
        assert_eq!((id1, id2), (1, 2));
        assert!(rs.get(2).is_some());
        assert!(rs.get(3).is_none());
        assert_eq!(rs.rules_concluding("class", "type").len(), 2);
        assert_eq!(rs.rules_concluding_subtype("ssbn").len(), 2);
        assert_eq!(rs.rules_premised_on("CLASS", "Displacement").len(), 2);
        assert_eq!(rs.rules_premised_on("CLASS", "Nope").len(), 0);
        // Each mutation empties the lookup the queries above built.
        let draft = Clause::between(AttrId::new("Class", "DRAFT"), 1, 9);
        rs.push(Rule::new(
            0,
            vec![draft],
            Clause::equals(AttrId::new("class", "Type"), "SSN"),
        ));
        assert_eq!(rs.rules_concluding("CLASS", "TYPE").len(), 3);
        assert_eq!(rs.rules_premised_on("CLASS", "Draft").len(), 1);
        assert_eq!(rs.prune_below(4), 1);
        assert_eq!(rs.rules_premised_on("CLASS", "Draft").len(), 0);
        assert_eq!(rs.minimize(), 1);
        assert_eq!(rs.rules_concluding("CLASS", "Type").len(), 1);
        let lookup = rs.lookup();
        let k = lookup.key("class", "displacement").unwrap();
        assert_eq!(
            (lookup.key_count(), lookup.premised_on(k)),
            (2, &[0u32][..])
        );
    }

    #[test]
    fn minimize_drops_subsumed_rules() {
        let wide = Rule::new(
            0,
            vec![Clause::between(AttrId::new("C", "D"), 0, 100)],
            Clause::equals(AttrId::new("C", "T"), "SSN"),
        )
        .with_subtype("SSN");
        let narrow = Rule::new(
            0,
            vec![Clause::between(AttrId::new("C", "D"), 10, 20)],
            Clause::equals(AttrId::new("C", "T"), "SSN"),
        )
        .with_subtype("SSN");
        let other_consequence = Rule::new(
            0,
            vec![Clause::between(AttrId::new("C", "D"), 10, 20)],
            Clause::equals(AttrId::new("C", "T"), "SSBN"),
        )
        .with_subtype("SSBN");
        let mut rs = RuleSet::from_rules([wide.clone(), narrow, other_consequence]);
        let removed = rs.minimize();
        assert_eq!(removed, 1, "only the subsumed same-consequence rule goes");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rules()[0].lhs, wide.lhs);
        // Ids renumbered.
        assert_eq!(rs.rules()[0].id, 1);
        assert_eq!(rs.rules()[1].id, 2);
    }

    #[test]
    fn minimize_keeps_multi_clause_non_subsumed() {
        // A two-clause rule is NOT subsumed by a one-clause rule that
        // constrains an attribute the other also constrains — unless the
        // one-clause rule's premise covers every clause.
        let two = Rule::new(
            0,
            vec![
                Clause::between(AttrId::new("E", "Age"), 18, 65),
                Clause::equals(AttrId::new("E", "Dept"), "ENG"),
            ],
            Clause::equals(AttrId::new("E", "Grade"), "SENIOR"),
        );
        let one = Rule::new(
            0,
            vec![Clause::between(AttrId::new("E", "Age"), 0, 100)],
            Clause::equals(AttrId::new("E", "Grade"), "SENIOR"),
        );
        // `one` covers `two`'s Age clause AND does not constrain Dept,
        // so it subsumes the narrower rule.
        let mut rs = RuleSet::from_rules([two.clone(), one.clone()]);
        let removed = rs.minimize();
        assert_eq!(removed, 1);
        assert_eq!(rs.rules()[0].lhs, one.lhs, "the wide rule survives");

        // But two multi-clause rules on different attributes coexist.
        let other = Rule::new(
            0,
            vec![Clause::equals(AttrId::new("E", "Office"), "HQ")],
            Clause::equals(AttrId::new("E", "Grade"), "SENIOR"),
        );
        let mut rs = RuleSet::from_rules([two, other]);
        assert_eq!(rs.minimize(), 0);
    }

    #[test]
    fn minimize_identical_rules_keeps_one() {
        let r = Rule::new(
            0,
            vec![Clause::between(AttrId::new("C", "D"), 0, 10)],
            Clause::equals(AttrId::new("C", "T"), "X"),
        );
        let mut rs = RuleSet::from_rules([r.clone(), r]);
        assert_eq!(rs.minimize(), 1);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn pruning_renumbers() {
        let mut rs = RuleSet::new();
        rs.push(r9().with_support(1));
        rs.push(r9().with_support(5));
        rs.push(r9().with_support(2));
        let removed = rs.prune_below(2);
        assert_eq!(removed, 1);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rules()[0].id, 1);
        assert_eq!(rs.rules()[1].id, 2);
    }
}
