//! Rules keyed by attribute.
//!
//! The paper stores induced rules in rule relations keyed by attribute
//! (§5.2.2, `R' = (RuleNo, Role, Lvalue, AttributeNo, Uvalue)`), so the
//! inference processor (§4) fetches only the rules that speak of a
//! query's attributes. [`RuleLookup`] is that access path over a
//! [`RuleSet`](crate::rule::RuleSet): it numbers every attribute the
//! rules mention (compared ASCII case-insensitively, like
//! [`AttrId::matches`]) and lists, per attribute, the rules premised on
//! it and the rules concluding on it, in id order.

use crate::rule::{AttrId, Rule};
use std::cmp::Ordering;

/// The id of an attribute key: its position among the lookup's keys,
/// which are sorted by lowercase `(object, attribute)`.
pub type KeyId = u32;

/// The attribute keys of a rule set and, per key, the rules that speak
/// of it. Rules are named by position (id − 1).
#[derive(Debug, Clone, Default)]
pub struct RuleLookup {
    /// Lowercase `(object, attribute)` of every attribute a rule
    /// mentions, sorted and distinct.
    keys: Vec<(Box<str>, Box<str>)>,
    /// Row `p`: rule `p`'s premise keys, one per clause in clause order.
    premise_keys: Rows,
    /// Row `k`: the rules with a premise clause on key `k`.
    premised: Rows,
    /// Row `k`: the rules concluding on key `k`.
    concluding: Rows,
}

/// Rows of `u32`s stored back to back: row `r` is
/// `items[at[r]..at[r + 1]]`.
#[derive(Debug, Clone, Default)]
struct Rows {
    at: Vec<u32>,
    items: Vec<u32>,
}

impl Rows {
    /// `rows` rows holding each `(row, item)` entry, each row's items in
    /// entry order.
    fn collect(rows: usize, entries: &[(u32, u32)]) -> Rows {
        let mut at = vec![0u32; rows + 1];
        for &(row, _) in entries {
            at[row as usize + 1] += 1;
        }
        for r in 0..rows {
            at[r + 1] += at[r];
        }
        let mut next = at.clone();
        let mut items = vec![0u32; entries.len()];
        for &(row, item) in entries {
            items[next[row as usize] as usize] = item;
            next[row as usize] += 1;
        }
        Rows { at, items }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.items[self.at[r] as usize..self.at[r + 1] as usize]
    }
}

/// Order two names as their ASCII lowercase forms would be ordered.
fn cmp_folded(a: &str, b: &str) -> Ordering {
    fn fold(s: &str) -> impl Iterator<Item = u8> + '_ {
        s.bytes().map(|b| b.to_ascii_lowercase())
    }
    fold(a).cmp(fold(b))
}

fn cmp_attr(a: &AttrId, b: &AttrId) -> Ordering {
    cmp_folded(&a.object, &b.object).then_with(|| cmp_folded(&a.attribute, &b.attribute))
}

/// The distinct spellings of the attributes a rule set mentions.
#[derive(Default)]
struct Spellings<'r> {
    seen: Vec<&'r AttrId>,
}

impl<'r> Spellings<'r> {
    /// The position of `a` among the spellings, trying `hint` (the last
    /// answer for the same role) first: rules come in runs over one
    /// attribute pair.
    fn find(&mut self, a: &'r AttrId, hint: &mut usize) -> u32 {
        if self.seen.get(*hint) != Some(&a) {
            *hint = match self.seen.iter().position(|s| *s == a) {
                Some(i) => i,
                None => {
                    self.seen.push(a);
                    self.seen.len() - 1
                }
            };
        }
        *hint as u32
    }
}

impl RuleLookup {
    /// Index `rules`, which are in id order.
    pub(crate) fn new(rules: &[Rule]) -> RuleLookup {
        // Each clause's and conclusion's spelling, then each spelling's key.
        let mut spellings = Spellings::default();
        let (mut premise_hint, mut conclusion_hint) = (0, 0);
        let mut premises = Vec::new();
        let mut conclusions = Vec::with_capacity(rules.len());
        for (pos, r) in rules.iter().enumerate() {
            for c in &r.lhs {
                premises.push((pos as u32, spellings.find(&c.attr, &mut premise_hint)));
            }
            conclusions.push(spellings.find(&r.rhs.attr, &mut conclusion_hint));
        }
        let seen = spellings.seen;
        let mut order: Vec<usize> = (0..seen.len()).collect();
        order.sort_unstable_by(|&a, &b| cmp_attr(seen[a], seen[b]));
        let mut keys: Vec<(Box<str>, Box<str>)> = Vec::new();
        let mut key_of = vec![0 as KeyId; seen.len()];
        for (i, &s) in order.iter().enumerate() {
            if i == 0 || cmp_attr(seen[order[i - 1]], seen[s]).is_ne() {
                let a = seen[s];
                let lower = |n: &str| n.to_ascii_lowercase().into_boxed_str();
                keys.push((lower(&a.object), lower(&a.attribute)));
            }
            key_of[s] = keys.len() as KeyId - 1;
        }

        let mut premised = Vec::new();
        for i in 0..premises.len() {
            let (pos, spelling) = premises[i];
            let k = key_of[spelling as usize];
            premises[i].1 = k;
            // A rule is listed once per key, however many of its clauses
            // constrain it.
            let mut earlier = premises[..i].iter().rev().take_while(|e| e.0 == pos);
            if !earlier.any(|e| e.1 == k) {
                premised.push((k, pos));
            }
        }
        let mut concluding: Vec<(KeyId, u32)> = (conclusions.iter().enumerate())
            .map(|(pos, &s)| (key_of[s as usize], pos as u32))
            .collect();
        // Stable sorts: each key's rules stay in id order.
        premised.sort_by_key(|&(k, _)| k);
        concluding.sort_by_key(|&(k, _)| k);
        let n = keys.len();
        RuleLookup {
            keys,
            premise_keys: Rows::collect(rules.len(), &premises),
            premised: Rows::collect(n, &premised),
            concluding: Rows::collect(n, &concluding),
        }
    }

    /// The key of `object.attribute` (ASCII case-insensitive), if a rule
    /// mentions it.
    pub fn key(&self, object: &str, attribute: &str) -> Option<KeyId> {
        self.keys
            .binary_search_by(|(o, a)| cmp_folded(o, object).then_with(|| cmp_folded(a, attribute)))
            .ok()
            .map(|k| k as KeyId)
    }

    /// The number of keys; ids run from 0 below it, in lowercase
    /// `(object, attribute)` order.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The keys of the rule at `pos`'s premise clauses, in clause order.
    pub fn premise_keys(&self, pos: usize) -> &[KeyId] {
        self.premise_keys.row(pos)
    }

    /// The positions of the rules with a premise clause on `key`, in id
    /// order.
    pub fn premised_on(&self, key: KeyId) -> &[u32] {
        self.premised.row(key as usize)
    }

    /// The positions of the rules concluding on `key`, in id order.
    pub fn concluding(&self, key: KeyId) -> &[u32] {
        self.concluding.row(key as usize)
    }
}
