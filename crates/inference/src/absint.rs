//! Rule application over **abstract states**: the interval-lattice
//! abstract interpretation engine shared by the inference optimizer and
//! the `intensio-check` static analyzer.
//!
//! An [`AbstractState`] maps attributes to [`AbstractValue`]s — an
//! over-approximation of the set of tuples satisfying some condition.
//! The lattice per attribute is
//!
//! ```text
//!            ⊤  (unconstrained)
//!          /   \
//!   Range(..)   Set{..}      intervals with open/closed bounds,
//!          \   /             finite scalar sets
//!            ⊥  (provably empty)
//! ```
//!
//! A [`Saturator`] applies a rule set *forward* (the paper's Modus Ponens
//! direction) to a state until fixpoint: a rule fires when every premise
//! clause's range contains the state's abstract value for that
//! attribute — then **every** concrete tuple the state admits satisfies
//! the premise, so the conclusion must hold for all of them and is met
//! (∧) into the state. Chained derivations fall out naturally: one
//! rule's conclusion can tighten an attribute enough to fire another
//! rule premised on it. The result stays a superset of the concrete
//! answer set at every step (each meet only removes tuples the rules
//! prove impossible), so a ⊥ state is a *sound* emptiness proof —
//! assuming the rules themselves hold on the data, which is exactly the
//! contract induced rules carry.

use crate::bits::RuleBits;
use intensio_rules::range::ValueRange;
use intensio_rules::rule::RuleSet;
use intensio_storage::domain::{Bound, Domain, DomainConstraint};
use intensio_storage::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The abstract value of one attribute: an over-approximation of the
/// values it can take in any tuple of the concrete set.
#[derive(Debug, Clone, PartialEq)]
pub enum AbstractValue {
    /// ⊤ — any value of the attribute's type.
    Top,
    /// An interval with optional open/closed endpoints (ints, floats,
    /// and lexicographically ordered strings all use this form).
    Range(ValueRange),
    /// A finite set of admissible scalars (e.g. a `set of {..}` domain),
    /// sorted and deduplicated for canonical display.
    Set(Vec<Value>),
    /// ⊥ — no value is admissible; the concrete set is provably empty.
    Bottom,
}

impl AbstractValue {
    /// A finite set, canonicalized (sorted, semantically deduplicated).
    /// An empty set is ⊥.
    pub fn set(mut values: Vec<Value>) -> AbstractValue {
        values.sort_by(|a, b| a.compare(b).unwrap_or(std::cmp::Ordering::Equal));
        values.dedup_by(|a, b| a.sem_eq(b));
        if values.is_empty() {
            AbstractValue::Bottom
        } else {
            AbstractValue::Set(values)
        }
    }

    /// Whether this is ⊥.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AbstractValue::Bottom)
    }

    /// The meet (∧, conjunction): the abstract value admitting exactly
    /// what both operands admit — up to the usual interval imprecision,
    /// which only ever keeps the result a superset, never smaller.
    pub fn meet(&self, other: &AbstractValue) -> AbstractValue {
        match (self, other) {
            (AbstractValue::Bottom, _) | (_, AbstractValue::Bottom) => AbstractValue::Bottom,
            (AbstractValue::Top, v) | (v, AbstractValue::Top) => v.clone(),
            (AbstractValue::Range(a), AbstractValue::Range(b)) => match a.intersect(b) {
                Some(r) => AbstractValue::Range(r),
                None => AbstractValue::Bottom,
            },
            (AbstractValue::Set(a), AbstractValue::Set(b)) => AbstractValue::set(
                a.iter()
                    .filter(|v| b.iter().any(|w| w.sem_eq(v)))
                    .cloned()
                    .collect(),
            ),
            (AbstractValue::Set(s), AbstractValue::Range(r))
            | (AbstractValue::Range(r), AbstractValue::Set(s)) => {
                AbstractValue::set(s.iter().filter(|v| r.contains(v)).cloned().collect())
            }
        }
    }

    /// The join (∨, disjunction): the smallest representable value
    /// admitting everything either operand admits. Disjoint intervals
    /// join to their hull — an over-approximation, which is the sound
    /// direction for a superset analysis.
    pub fn join(&self, other: &AbstractValue) -> AbstractValue {
        match (self, other) {
            (AbstractValue::Top, _) | (_, AbstractValue::Top) => AbstractValue::Top,
            (AbstractValue::Bottom, v) | (v, AbstractValue::Bottom) => v.clone(),
            (AbstractValue::Set(a), AbstractValue::Set(b)) => {
                AbstractValue::set(a.iter().chain(b.iter()).cloned().collect())
            }
            (a, b) => match (a.as_range(), b.as_range()) {
                (Some(x), Some(y)) => match x.merge(&y) {
                    Some(hull) => AbstractValue::Range(hull),
                    // Disjoint and non-adjacent: take the convex hull.
                    None => match hull(&x, &y) {
                        Some(h) => AbstractValue::Range(h),
                        None => AbstractValue::Top,
                    },
                },
                _ => AbstractValue::Top,
            },
        }
    }

    /// An interval covering this value (exact for `Range`, the convex
    /// hull for `Set`), `None` for ⊤ (⊥ yields an empty-ish point-free
    /// `None` too — callers check [`AbstractValue::is_bottom`] first).
    pub fn as_range(&self) -> Option<ValueRange> {
        match self {
            AbstractValue::Range(r) => Some(r.clone()),
            AbstractValue::Set(vs) => {
                let lo = vs.first()?.clone();
                let hi = vs.last()?.clone();
                Some(ValueRange::closed(lo, hi))
            }
            AbstractValue::Top | AbstractValue::Bottom => None,
        }
    }

    /// Whether every concrete value this abstract value admits lies in
    /// `range` — the premise-containment test of forward application.
    /// ⊤ is contained only in the full range; ⊥ vacuously in anything.
    pub fn within(&self, range: &ValueRange) -> bool {
        match self {
            AbstractValue::Bottom => true,
            AbstractValue::Top => range.lo.is_none() && range.hi.is_none(),
            AbstractValue::Range(r) => range.subsumes(r),
            AbstractValue::Set(vs) => vs.iter().all(|v| range.contains(v)),
        }
    }

    /// The abstract value of an attribute constrained only by its
    /// declared domain: the meet of the domain's constraint stack
    /// (`range [..]` → interval, `set of {..}` → finite set; `char[n]`
    /// does not restrict the value lattice).
    pub fn from_domain(domain: &Domain) -> AbstractValue {
        let mut out = AbstractValue::Top;
        for c in domain.constraints() {
            let v = match c {
                DomainConstraint::Range {
                    lo,
                    lo_bound,
                    hi,
                    hi_bound,
                } => AbstractValue::Range(ValueRange {
                    lo: Some(endpoint(lo, *lo_bound)),
                    hi: Some(endpoint(hi, *hi_bound)),
                }),
                DomainConstraint::Set(vs) => AbstractValue::set(vs.clone()),
                DomainConstraint::CharLen(_) => continue,
            };
            out = out.meet(&v);
        }
        out
    }
}

fn endpoint(v: &Value, b: Bound) -> intensio_rules::range::Endpoint {
    intensio_rules::range::Endpoint {
        value: v.clone(),
        inclusive: b == Bound::Inclusive,
    }
}

/// The convex hull of two intervals whose endpoints compare.
fn hull(a: &ValueRange, b: &ValueRange) -> Option<ValueRange> {
    // `merge` already handles the touching cases; here the intervals are
    // disjoint, so the hull is simply the outermost bounds.
    let lo = match (&a.lo, &b.lo) {
        (None, _) | (_, None) => None,
        (Some(x), Some(y)) => match x.value.compare(&y.value).ok()? {
            std::cmp::Ordering::Less => Some(x.clone()),
            std::cmp::Ordering::Greater => Some(y.clone()),
            std::cmp::Ordering::Equal => Some(if x.inclusive { x.clone() } else { y.clone() }),
        },
    };
    let hi = match (&a.hi, &b.hi) {
        (None, _) | (_, None) => None,
        (Some(x), Some(y)) => match x.value.compare(&y.value).ok()? {
            std::cmp::Ordering::Greater => Some(x.clone()),
            std::cmp::Ordering::Less => Some(y.clone()),
            std::cmp::Ordering::Equal => Some(if x.inclusive { x.clone() } else { y.clone() }),
        },
    };
    Some(ValueRange { lo, hi })
}

impl fmt::Display for AbstractValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstractValue::Top => write!(f, "⊤"),
            AbstractValue::Bottom => write!(f, "⊥"),
            AbstractValue::Range(r) => write!(f, "{r}"),
            AbstractValue::Set(vs) => {
                write!(f, "{{")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// An abstract state: per-attribute abstract values, keyed by
/// `(object, attribute)` lowercased. Attributes not present are ⊤.
/// The state as a whole is ⊥ as soon as any attribute is.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AbstractState {
    slots: BTreeMap<(String, String), AbstractValue>,
    empty: bool,
}

impl AbstractState {
    /// The ⊤ state (no constraints).
    pub fn new() -> AbstractState {
        AbstractState::default()
    }

    /// Whether the state is ⊥ — the concrete set is provably empty.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// The abstract value of `object.attribute` (⊤ when unconstrained).
    pub fn value_of(&self, object: &str, attribute: &str) -> &AbstractValue {
        self.slots
            .get(&key(object, attribute))
            .unwrap_or(&AbstractValue::Top)
    }

    /// Meet `v` into the slot for `object.attribute`. Returns whether
    /// the slot actually tightened. A ⊥ result marks the whole state ⊥.
    pub fn constrain(&mut self, object: &str, attribute: &str, v: &AbstractValue) -> bool {
        let slot = self
            .slots
            .entry(key(object, attribute))
            .or_insert(AbstractValue::Top);
        let met = slot.meet(v);
        if met == *slot {
            return false;
        }
        if met.is_bottom() {
            self.empty = true;
        }
        *slot = met;
        true
    }

    /// The constrained slots, in deterministic key order.
    pub fn slots(&self) -> impl Iterator<Item = (&(String, String), &AbstractValue)> {
        self.slots.iter()
    }
}

fn key(object: &str, attribute: &str) -> (String, String) {
    (object.to_ascii_lowercase(), attribute.to_ascii_lowercase())
}

/// The outcome of saturating a rule set over a state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Saturation {
    /// Rule ids in the order they (productively) fired. A rule appears
    /// each time its application tightened the state, so this is the
    /// derivation chain a refutation can cite.
    pub fired: Vec<u32>,
    /// Whether the state reached ⊥.
    pub empty: bool,
}

/// A rule set indexed for forward application over abstract states.
/// Built once per [`RuleSet`], it saturates any number of states.
///
/// Every `(object, attribute)` a rule mentions is interned once as a
/// slot number, and each slot lists the premise clauses that read it.
/// A saturation keeps, per rule, how many premise clauses its state
/// does not yet contain, and updates that count only for the clauses on
/// a slot that just tightened; a pass then visits just the rules whose
/// every clause holds. When a slot's clauses are all closed ranges over
/// one kind of value, they are also kept sorted by lower bound, so a
/// tightened slot re-tests only the clauses that can contain its new
/// interval. The result is the plain fixpoint iteration's, step for
/// step:
///
/// * rules are tried in id order, and each pass applies every enabled
///   rule before re-testing;
/// * a slot tightened mid-pass enables later rules in the same pass
///   (earlier ones wait for the next pass);
/// * a rule fires when every premise clause's range contains the
///   state's non-⊤ value for its slot, and `fired` records each
///   application that tightened the state.
///
/// Termination: every productive application strictly tightens one
/// slot by meeting it with a rule conclusion, and each slot can only
/// tighten finitely often (each meet either yields ⊥ or an interval
/// whose endpoints come from the finite set of rule/seed endpoints), so
/// the pass loop reaches a fixpoint; a generous pass cap guards the
/// degenerate cases.
#[derive(Debug)]
pub struct Saturator<'r> {
    rules: &'r RuleSet,
    /// Interned slot keys, lowercased like [`AbstractState`]'s.
    keys: Vec<(String, String)>,
    slot_of: HashMap<(String, String), usize>,
    /// Every premise clause of every rule, rule by rule: `(rule
    /// position, range)`.
    clauses: Vec<(usize, &'r ValueRange)>,
    /// Per rule position: its premise clause count.
    premise_len: Vec<u32>,
    /// Per rule position: its conclusion's slot and abstract value.
    conclusions: Vec<(usize, AbstractValue)>,
    /// Per slot: the clauses premised on it, in rule order.
    readers: Vec<Vec<usize>>,
    /// Per slot: its clauses sorted by range, when they admit it.
    sorted: Vec<Option<SortedClauses<'r>>>,
}

/// A slot's premise clauses sorted by lower bound, for slots whose
/// clauses are all closed ranges over values of one kind — where
/// [`Value::compare`] is a total order on every endpoint.
#[derive(Debug)]
struct SortedClauses<'r> {
    /// The kind of every endpoint.
    kind: std::mem::Discriminant<Value>,
    /// Clause numbers, by ascending lower bound.
    by_lo: Vec<usize>,
    /// `max_hi[i]`: the largest upper bound among `by_lo[..=i]`.
    max_hi: Vec<&'r Value>,
}

impl<'r> SortedClauses<'r> {
    fn new(clauses: &[(usize, &'r ValueRange)], readers: &[usize]) -> Option<Self> {
        let mut bounds: Vec<(usize, &'r Value, &'r Value)> = Vec::with_capacity(readers.len());
        for &c in readers {
            let r = clauses[c].1;
            bounds.push((c, &r.lo.as_ref()?.value, &r.hi.as_ref()?.value));
        }
        let kind = std::mem::discriminant(bounds.first()?.1);
        let same = |v: &Value| std::mem::discriminant(v) == kind && !v.is_null();
        if !bounds.iter().all(|(_, lo, hi)| same(lo) && same(hi)) {
            return None;
        }
        let cmp = |a: &Value, b: &Value| a.compare(b).expect("values of one kind compare");
        bounds.sort_by(|x, y| cmp(x.1, y.1));
        let mut max_hi: Vec<&Value> = Vec::with_capacity(bounds.len());
        for &(_, _, hi) in &bounds {
            max_hi.push(match max_hi.last() {
                Some(&top) if cmp(top, hi) == Ordering::Greater => top,
                _ => hi,
            });
        }
        Some(SortedClauses {
            kind,
            by_lo: bounds.iter().map(|&(c, _, _)| c).collect(),
            max_hi,
        })
    }

    /// The clauses whose range can contain the closed interval `[lo,
    /// hi]` (a superset: the ones with a lower bound ≤ `lo` and an upper
    /// bound ≥ `hi`), or `None` when an endpoint is of another kind.
    fn containing(
        &self,
        clauses: &[(usize, &ValueRange)],
        lo: &Value,
        hi: &Value,
    ) -> Option<&[usize]> {
        if std::mem::discriminant(lo) != self.kind || std::mem::discriminant(hi) != self.kind {
            return None;
        }
        let below = |a: &Value, b: &Value| a.compare(b).is_ok_and(Ordering::is_le);
        let end = self.by_lo.partition_point(|&c| {
            let r = clauses[c].1;
            r.lo.as_ref().is_some_and(|e| below(&e.value, lo))
        });
        let start = self.max_hi.partition_point(|top| !below(hi, top));
        Some(self.by_lo.get(start..end).unwrap_or(&[]))
    }
}

impl<'r> Saturator<'r> {
    /// Index `rules` for saturation.
    pub fn new(rules: &'r RuleSet) -> Saturator<'r> {
        let mut sat = Saturator {
            rules,
            keys: Vec::new(),
            slot_of: HashMap::new(),
            clauses: Vec::new(),
            premise_len: Vec::with_capacity(rules.len()),
            conclusions: Vec::with_capacity(rules.len()),
            readers: Vec::new(),
            sorted: Vec::new(),
        };
        for (pos, rule) in rules.iter().enumerate() {
            for cl in &rule.lhs {
                let slot = sat.intern(&cl.attr.object, &cl.attr.attribute);
                sat.readers[slot].push(sat.clauses.len());
                sat.clauses.push((pos, &cl.range));
            }
            sat.premise_len.push(rule.lhs.len() as u32);
            let slot = sat.intern(&rule.rhs.attr.object, &rule.rhs.attr.attribute);
            sat.conclusions
                .push((slot, AbstractValue::Range(rule.rhs.range.clone())));
        }
        sat.sorted = (sat.readers.iter())
            .map(|readers| SortedClauses::new(&sat.clauses, readers))
            .collect();
        sat
    }

    /// The clauses on `slot` that can hold when it has `value`: the
    /// sorted ones that can contain a closed interval, else all of them.
    fn candidates(&self, slot: usize, value: &AbstractValue) -> &[usize] {
        let sorted = self.sorted[slot].as_ref();
        let interval = match value {
            AbstractValue::Range(ValueRange {
                lo: Some(lo),
                hi: Some(hi),
            }) => Some((&lo.value, &hi.value)),
            _ => None,
        };
        match (sorted, interval) {
            (Some(sorted), Some((lo, hi))) => sorted
                .containing(&self.clauses, lo, hi)
                .unwrap_or(&self.readers[slot]),
            _ => &self.readers[slot],
        }
    }

    fn intern(&mut self, object: &str, attribute: &str) -> usize {
        let k = key(object, attribute);
        if let Some(&slot) = self.slot_of.get(&k) {
            return slot;
        }
        let slot = self.keys.len();
        self.keys.push(k.clone());
        self.slot_of.insert(k, slot);
        self.readers.push(Vec::new());
        slot
    }

    /// The indexed rule set.
    pub fn rules(&self) -> &'r RuleSet {
        self.rules
    }

    /// Apply the rules forward over `state` until fixpoint (or until the
    /// state reaches ⊥).
    pub fn saturate(&self, state: &mut AbstractState) -> Saturation {
        self.saturate_excluding(state, &[])
    }

    /// [`Saturator::saturate`] with some rules held out — the rule-base
    /// lints saturate a rule's premise over *the rest* of the set to
    /// test whether its own conclusion is derivable without it.
    pub fn saturate_excluding(&self, state: &mut AbstractState, skip: &[u32]) -> Saturation {
        let mut out = Saturation::default();
        if state.is_empty() {
            out.empty = true;
            return out;
        }
        let mut run = Run {
            sat: self,
            values: vec![AbstractValue::Top; self.keys.len()],
            touched: vec![false; self.keys.len()],
            held: vec![Vec::new(); self.keys.len()],
            open: self.premise_len.clone(),
            ready: RuleBits::new(self.rules.len()),
        };
        let mut seeded = Vec::new();
        for (k, v) in state.slots() {
            if let Some(&slot) = self.slot_of.get(k) {
                run.values[slot] = v.clone();
                seeded.push(slot);
            }
        }
        for slot in seeded {
            run.refresh(slot);
        }
        let all = self.rules.rules();
        // Each productive pass fires at least one rule; a rule's conclusion
        // can tighten a slot at most twice (once per endpoint) before the
        // meet is idempotent, so 2·|rules| + 1 passes always suffice.
        let max_passes = self.rules.len() * 2 + 1;
        'passes: for _ in 0..max_passes {
            let mut changed = false;
            let mut from = 0;
            while let Some(pos) = run.ready.next_from(from) {
                from = pos + 1;
                let rule = &all[pos];
                if skip.contains(&rule.id) {
                    continue;
                }
                let (slot, conclusion) = &self.conclusions[pos];
                let met = run.values[*slot].meet(conclusion);
                if met == run.values[*slot] {
                    continue;
                }
                out.fired.push(rule.id);
                changed = true;
                let bottom = met.is_bottom();
                run.values[*slot] = met;
                run.touched[*slot] = true;
                if bottom {
                    out.empty = true;
                    break 'passes;
                }
                run.refresh(*slot);
            }
            if !changed {
                break;
            }
        }
        for (slot, value) in run.values.into_iter().enumerate() {
            if run.touched[slot] {
                state.slots.insert(self.keys[slot].clone(), value);
            }
        }
        if out.empty {
            state.empty = true;
        }
        out
    }
}

/// One saturation's working state over a [`Saturator`]'s slots.
struct Run<'s, 'r> {
    sat: &'s Saturator<'r>,
    /// Per slot: its current abstract value.
    values: Vec<AbstractValue>,
    /// Per slot: whether a rule tightened it.
    touched: Vec<bool>,
    /// Per slot: the clauses on it the state satisfies (the slot is
    /// non-⊤ and lies within the clause's range).
    held: Vec<Vec<usize>>,
    /// Per rule: how many of its premise clauses do not hold.
    open: Vec<u32>,
    /// The rules every premise clause of which holds (and there is one).
    ready: RuleBits,
}

impl Run<'_, '_> {
    /// Re-test the clauses premised on `slot` after it changed.
    fn refresh(&mut self, slot: usize) {
        let mut held = std::mem::take(&mut self.held[slot]);
        for &c in &held {
            self.mark(c, false);
        }
        held.clear();
        let sat = self.sat;
        let value = &self.values[slot];
        if !matches!(value, AbstractValue::Top) {
            let holds = sat.candidates(slot, value).iter();
            held.extend(holds.filter(|&&c| value.within(sat.clauses[c].1)));
        }
        for &c in &held {
            self.mark(c, true);
        }
        self.held[slot] = held;
    }

    /// Record that clause `c` now holds, or no longer does.
    fn mark(&mut self, c: usize, holds: bool) {
        let pos = self.sat.clauses[c].0;
        if holds {
            self.open[pos] -= 1;
            if self.open[pos] == 0 {
                self.ready.insert(pos);
            }
        } else {
            if self.open[pos] == 0 {
                self.ready.remove(pos);
            }
            self.open[pos] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_rules::rule::{AttrId, Clause, Rule};
    use intensio_storage::value::ValueType;

    fn rule(id: u32, attr: &str, lo: i64, hi: i64, concl_attr: &str, clo: i64, chi: i64) -> Rule {
        Rule::new(
            id,
            vec![Clause::between(AttrId::new("R", attr), lo, hi)],
            Clause::between(AttrId::new("R", concl_attr), clo, chi),
        )
        .with_support(5)
    }

    #[test]
    fn meet_and_join_lattice_laws() {
        let a = AbstractValue::Range(ValueRange::closed(0, 10));
        let b = AbstractValue::Range(ValueRange::closed(5, 20));
        assert_eq!(a.meet(&b), AbstractValue::Range(ValueRange::closed(5, 10)));
        assert_eq!(a.join(&b), AbstractValue::Range(ValueRange::closed(0, 20)));
        assert_eq!(a.meet(&AbstractValue::Top), a);
        assert_eq!(a.join(&AbstractValue::Top), AbstractValue::Top);
        assert_eq!(a.meet(&AbstractValue::Bottom), AbstractValue::Bottom);
        assert_eq!(a.join(&AbstractValue::Bottom), a);
        let c = AbstractValue::Range(ValueRange::closed(30, 40));
        assert_eq!(a.meet(&c), AbstractValue::Bottom);
        // Disjoint join over-approximates to the hull: sound for meets.
        assert_eq!(a.join(&c), AbstractValue::Range(ValueRange::closed(0, 40)));
    }

    #[test]
    fn sets_meet_ranges() {
        let s = AbstractValue::set(vec![Value::Int(1), Value::Int(5), Value::Int(9)]);
        let r = AbstractValue::Range(ValueRange::closed(2, 9));
        assert_eq!(
            s.meet(&r),
            AbstractValue::set(vec![Value::Int(5), Value::Int(9)])
        );
        let empty = s.meet(&AbstractValue::Range(ValueRange::closed(2, 4)));
        assert!(empty.is_bottom());
        assert!(s.within(&ValueRange::closed(0, 10)));
        assert!(!s.within(&ValueRange::closed(2, 10)));
    }

    #[test]
    fn from_domain_covers_constraint_kinds() {
        let d = Domain::int_range("DISPLACEMENT", 2000, 30000);
        assert_eq!(
            AbstractValue::from_domain(&d),
            AbstractValue::Range(ValueRange::closed(2000, 30000))
        );
        let s = Domain::named("TYPE", ValueType::Str).with_constraint(DomainConstraint::Set(vec![
            Value::str("SSN"),
            Value::str("SSBN"),
        ]));
        assert_eq!(
            AbstractValue::from_domain(&s),
            AbstractValue::set(vec![Value::str("SSBN"), Value::str("SSN")])
        );
        assert_eq!(
            AbstractValue::from_domain(&Domain::char_n(4)),
            AbstractValue::Top
        );
    }

    #[test]
    fn saturation_chains_two_rules() {
        // R1: A in [0,10] -> B in [5,5];  R2: B in [4,6] -> C in [1,2].
        let rules = RuleSet::from_rules([
            rule(0, "A", 0, 10, "B", 5, 5),
            rule(0, "B", 4, 6, "C", 1, 2),
        ]);
        let mut state = AbstractState::new();
        state.constrain("R", "A", &AbstractValue::Range(ValueRange::point(3)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert_eq!(sat.fired, vec![1, 2], "the chain fires in order");
        assert!(!sat.empty);
        assert_eq!(
            state.value_of("R", "C"),
            &AbstractValue::Range(ValueRange::closed(1, 2))
        );
        // Now also require C = 9: the meet is ⊥.
        let mut state = AbstractState::new();
        state.constrain("R", "A", &AbstractValue::Range(ValueRange::point(3)));
        state.constrain("R", "C", &AbstractValue::Range(ValueRange::point(9)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert!(sat.empty);
        assert!(state.is_empty());
    }

    #[test]
    fn top_premise_never_fires() {
        let rules = RuleSet::from_rules([rule(0, "A", 0, 10, "B", 5, 5)]);
        let mut state = AbstractState::new();
        state.constrain("R", "C", &AbstractValue::Range(ValueRange::point(1)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert!(
            sat.fired.is_empty(),
            "A is ⊤ — not every tuple satisfies the premise"
        );
    }

    #[test]
    fn partial_premise_coverage_never_fires() {
        let rules = RuleSet::from_rules([rule(0, "A", 0, 10, "B", 5, 5)]);
        let mut state = AbstractState::new();
        state.constrain("R", "A", &AbstractValue::Range(ValueRange::closed(5, 20)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert!(sat.fired.is_empty());
    }

    #[test]
    fn saturation_terminates_on_cyclic_rules() {
        // A -> B and B -> A: the fixpoint exists and is reached.
        let rules = RuleSet::from_rules([
            rule(0, "A", 0, 10, "B", 0, 10),
            rule(0, "B", 0, 10, "A", 0, 10),
        ]);
        let mut state = AbstractState::new();
        state.constrain("R", "A", &AbstractValue::Range(ValueRange::closed(2, 4)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert!(!sat.empty);
        assert!(sat.fired.len() <= 2);
    }

    /// The plain fixpoint iteration the saturator must reproduce: every
    /// pass tests every rule, in id order, against the current state.
    fn linear(rules: &RuleSet, state: &mut AbstractState, skip: &[u32]) -> Saturation {
        let mut out = Saturation::default();
        if state.is_empty() {
            out.empty = true;
            return out;
        }
        for _ in 0..rules.len() * 2 + 1 {
            let mut changed = false;
            for rule in rules.iter() {
                if rule.lhs.is_empty() || skip.contains(&rule.id) {
                    continue;
                }
                let applicable = rule.lhs.iter().all(|cl| {
                    let v = state.value_of(&cl.attr.object, &cl.attr.attribute);
                    !matches!(v, AbstractValue::Top) && v.within(&cl.range)
                });
                let conclusion = AbstractValue::Range(rule.rhs.range.clone());
                if applicable
                    && state.constrain(&rule.rhs.attr.object, &rule.rhs.attr.attribute, &conclusion)
                {
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
        out
    }

    #[test]
    fn later_rules_fire_in_the_pass_that_enables_them() {
        // R1: B in [0,9] -> C = 1 sits before R2: A in [0,9] -> B = 5,
        // and R3: C in [0,9] -> D = 2 after it. From A = 3 the first pass
        // fires R2 (enabling R1 for the next pass); the second pass fires
        // R1 then R3, which R1 enabled within that pass.
        let rules = RuleSet::from_rules([
            rule(0, "B", 0, 9, "C", 1, 1),
            rule(0, "A", 0, 9, "B", 5, 5),
            rule(0, "C", 0, 9, "D", 2, 2),
        ]);
        let seed = |st: &mut AbstractState| {
            st.constrain("r", "a", &AbstractValue::Range(ValueRange::point(3)));
        };
        let sat = Saturator::new(&rules);
        for skip in [&[][..], &[1], &[2], &[3]] {
            let (mut a, mut b) = (AbstractState::new(), AbstractState::new());
            seed(&mut a);
            seed(&mut b);
            assert_eq!(
                sat.saturate_excluding(&mut a, skip),
                linear(&rules, &mut b, skip)
            );
            assert_eq!(a, b, "skipping {skip:?}");
        }
        let mut st = AbstractState::new();
        seed(&mut st);
        assert_eq!(sat.saturate(&mut st).fired, vec![2, 1, 3]);
        let mut st = AbstractState::new();
        seed(&mut st);
        assert_eq!(sat.saturate_excluding(&mut st, &[1]).fired, vec![2]);
    }

    #[test]
    fn multi_premise_rules_need_every_clause_contained() {
        let two = Rule::new(
            0,
            vec![
                Clause::between(AttrId::new("R", "A"), 0, 10),
                Clause::between(AttrId::new("R", "B"), 0, 10),
            ],
            Clause::between(AttrId::new("R", "C"), 1, 1),
        );
        let rules = RuleSet::from_rules([two]);
        let mut state = AbstractState::new();
        state.constrain("R", "A", &AbstractValue::Range(ValueRange::point(5)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert!(sat.fired.is_empty(), "B is unconstrained");
        state.constrain("R", "B", &AbstractValue::Range(ValueRange::point(5)));
        let sat = Saturator::new(&rules).saturate(&mut state);
        assert_eq!(sat.fired, vec![1]);
    }
}
