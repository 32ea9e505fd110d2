//! Secondary indexes over relation attributes.
//!
//! An index maps attribute values to tuple positions, supporting exact
//! lookups and range scans. Indexes are owned by the relation, built on
//! demand, and invalidated by any mutation (inserts, deletes, updates,
//! sorting) — the next lookup rebuilds them lazily. The SQL executor
//! reads restriction candidates from their ranges and probes them to
//! attach join partners; the inference engine reads the distinct
//! values inside a condition's range (data-grounded subsumption) and
//! the rows holding one value (backward completeness) from them.

use crate::date::Date;
use crate::tuple::Tuple;
use crate::value::{Value, ValueKey};
use std::cmp::Ordering;
use std::ops::{Bound, Range};

/// A sorted index from attribute values to tuple positions.
///
/// The non-null positions are sorted by value (stably, so ascending
/// within one value) and cut into one group per distinct value under
/// the total order. A group names its value by a row that holds it —
/// for an index over a relation, a shared handle to the value's first
/// row — so building copies no value.
#[derive(Debug, Clone, Default)]
pub struct AttributeIndex {
    /// One `(row, start)` per distinct value, ascending: a row whose
    /// `col`-th value is the group's value (its first occurrence), and
    /// where the group's positions start in `positions`.
    groups: Vec<(Tuple, usize)>,
    /// Which value of a group's row is the indexed one.
    col: usize,
    /// Every non-null position, grouped by value.
    positions: Vec<usize>,
    /// Tuple count the index was built against (staleness check).
    built_for: usize,
}

impl AttributeIndex {
    /// Build an index over a column of values.
    pub fn build<'a, I: Iterator<Item = &'a Value>>(column: I) -> AttributeIndex {
        let column: Vec<&Value> = column.collect();
        AttributeIndex::grouped(
            column.len(),
            0,
            |i| column[i],
            |i| Tuple::new(vec![column[i].clone()]),
        )
    }

    /// Index value `col` of each of `rows`. Groups share the rows'
    /// values instead of copying them.
    pub fn over_rows(rows: &[Tuple], col: usize) -> AttributeIndex {
        AttributeIndex::grouped(rows.len(), col, |i| rows[i].get(col), |i| rows[i].clone())
    }

    fn grouped<'a>(
        n: usize,
        col: usize,
        value: impl Fn(usize) -> &'a Value,
        row: impl Fn(usize) -> Tuple,
    ) -> AttributeIndex {
        // Nulls never satisfy predicates, so they are not indexed.
        let mut positions: Vec<usize> = (0..n).filter(|&i| !value(i).is_null()).collect();
        positions.sort_by(|&a, &b| value(a).total_cmp(value(b)));
        let mut groups: Vec<(Tuple, usize)> = Vec::new();
        for (k, &p) in positions.iter().enumerate() {
            if k == 0 || value(positions[k - 1]).total_cmp(value(p)) != Ordering::Equal {
                groups.push((row(p), k));
            }
        }
        AttributeIndex {
            groups,
            col,
            positions,
            built_for: n,
        }
    }

    /// Tuple count the index was built against.
    pub fn built_for(&self) -> usize {
        self.built_for
    }

    /// The value of group `g`.
    fn value(&self, g: usize) -> &Value {
        self.groups[g].0.get(self.col)
    }

    /// The positions of groups `first..end`.
    fn positions_of(&self, groups: Range<usize>) -> &[usize] {
        let at = |g: usize| self.groups.get(g).map_or(self.positions.len(), |e| e.1);
        &self.positions[at(groups.start)..at(groups.end)]
    }

    /// The groups whose values lie within `bounds`.
    fn span(&self, (lo, hi): (Bound<ValueKey>, Bound<ValueKey>)) -> Range<usize> {
        let below = |v: &ValueKey, or_equal: bool| {
            self.groups
                .partition_point(|(row, _)| match row.get(self.col).total_cmp(&v.0) {
                    Ordering::Less => true,
                    Ordering::Equal => or_equal,
                    Ordering::Greater => false,
                })
        };
        let start = match &lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => below(v, false),
            Bound::Excluded(v) => below(v, true),
        };
        let end = match &hi {
            Bound::Unbounded => self.groups.len(),
            Bound::Included(v) => below(v, true),
            Bound::Excluded(v) => below(v, false),
        };
        start..end.max(start)
    }

    /// Positions of tuples with the exact value, ascending. The probe is
    /// borrowed, not copied into a key.
    pub fn lookup(&self, v: &Value) -> &[usize] {
        let g = self
            .groups
            .partition_point(|(row, _)| row.get(self.col).total_cmp(v) == Ordering::Less);
        match self.groups.get(g) {
            Some((row, _)) if row.get(self.col).total_cmp(v) == Ordering::Equal => {
                self.positions_of(g..g + 1)
            }
            _ => &[],
        }
    }

    /// Positions of tuples whose value lies in `[lo, hi]`-style bounds,
    /// in value order. Bounds compare under the total order, so an open
    /// side runs on into the other value types (contrast
    /// [`AttributeIndex::values_in`]).
    pub fn range(&self, lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>) -> Vec<usize> {
        match key_bounds(lo, hi) {
            Some(bounds) => self.positions_of(self.span(bounds)).to_vec(),
            None => Vec::new(),
        }
    }

    /// The distinct values inside the bounds, ascending, with a range
    /// predicate's semantics: a value of a type incomparable with a
    /// bound (a string under integer bounds) lies outside, as do nulls.
    /// Only values inside the bounds are visited: an open side stops at
    /// the edge of the bound's type.
    pub fn values_in(
        &self,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> impl Iterator<Item = &Value> + '_ {
        let satisfiable = match (lo, hi) {
            (Some((l, _)), Some((h, _))) => l.compare(h).is_ok(),
            (Some((v, _)), None) | (None, Some((v, _))) => !v.is_null(),
            (None, None) => true,
        };
        let groups = key_bounds(lo, hi)
            .filter(|_| satisfiable)
            .map(|(l, h)| match lo.or(hi) {
                None => (l, h),
                Some((v, _)) => {
                    let (floor, ceiling) = type_span(v);
                    (
                        if lo.is_some() { l } else { floor },
                        if hi.is_some() { h } else { ceiling },
                    )
                }
            })
            .map_or(0..0, |bounds| self.span(bounds));
        groups.map(move |g| self.value(g))
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> usize {
        self.groups.len()
    }
}

/// The bounds for `(value, inclusive)` endpoints, or `None` when they
/// are provably empty: lo > hi, or a shared endpoint excluded on either
/// side.
fn key_bounds(
    lo: Option<(&Value, bool)>,
    hi: Option<(&Value, bool)>,
) -> Option<(Bound<ValueKey>, Bound<ValueKey>)> {
    if let (Some((l, l_incl)), Some((h, h_incl))) = (lo, hi) {
        match l.total_cmp(h) {
            Ordering::Greater => return None,
            Ordering::Equal if !(l_incl && h_incl) => return None,
            _ => {}
        }
    }
    let bound = |end: Option<(&Value, bool)>| match end {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(ValueKey(v.clone())),
        Some((v, false)) => Bound::Excluded(ValueKey(v.clone())),
    };
    Some((bound(lo), bound(hi)))
}

/// Bounds enclosing every non-null value of `v`'s type. The total order
/// ranks nulls, then numbers, then strings, then dates, so each type is
/// one contiguous run of keys.
fn type_span(v: &Value) -> (Bound<ValueKey>, Bound<ValueKey>) {
    let first_string = || ValueKey(Value::Str(String::new()));
    let first_date = || ValueKey(Value::Date(Date::MIN));
    match v {
        Value::Str(_) => (
            Bound::Included(first_string()),
            Bound::Excluded(first_date()),
        ),
        Value::Date(_) => (Bound::Included(first_date()), Bound::Unbounded),
        // Only nulls, which are never indexed, rank below the numbers.
        _ => (Bound::Unbounded, Bound::Excluded(first_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributeIndex {
        let values = [
            Value::Int(5),
            Value::Int(3),
            Value::Int(5),
            Value::Null,
            Value::Int(9),
        ];
        AttributeIndex::build(values.iter())
    }

    #[test]
    fn an_index_over_rows_shares_them_and_answers_like_a_column_index() {
        let rows: Vec<Tuple> = [(1, "b"), (2, "a"), (3, "b"), (4, "c")]
            .into_iter()
            .map(|(n, s)| Tuple::new(vec![Value::Int(n), Value::str(s)]))
            .collect();
        let idx = AttributeIndex::over_rows(&rows, 1);
        let column: Vec<Value> = rows.iter().map(|t| t.get(1).clone()).collect();
        let reference = AttributeIndex::build(column.iter());
        let b = Value::str("b");
        assert_eq!(idx.lookup(&b), &[0, 2]);
        assert_eq!(idx.lookup(&b), reference.lookup(&b));
        assert_eq!(idx.range(None, None), reference.range(None, None));
        assert_eq!(
            idx.values_in(Some((&b, true)), None).collect::<Vec<_>>(),
            reference
                .values_in(Some((&b, true)), None)
                .collect::<Vec<_>>()
        );
        // Each group names its value through the first row holding it.
        let shared = |v: &Value, row: &Tuple| std::ptr::eq(v, row.get(1));
        let firsts: Vec<&Value> = idx.values_in(None, None).collect();
        assert!(shared(firsts[0], &rows[1]) && shared(firsts[1], &rows[0]));
        assert!(shared(firsts[2], &rows[3]));
    }

    #[test]
    fn exact_lookup() {
        let idx = sample();
        assert_eq!(idx.lookup(&Value::Int(5)), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Int(3)), &[1]);
        assert!(idx.lookup(&Value::Int(4)).is_empty());
        assert_eq!(idx.built_for(), 5);
        assert_eq!(idx.distinct(), 3);
    }

    #[test]
    fn lookup_probes_under_the_total_order() {
        let column = [
            Value::Int(2),
            Value::Real(2.5),
            Value::str("2"),
            Value::Real(2.0),
        ];
        let idx = AttributeIndex::build(column.iter());
        // Int(2) and Real(2.0) are one key, whichever spelling probes.
        assert_eq!(idx.lookup(&Value::Int(2)), &[0, 3]);
        assert_eq!(idx.lookup(&Value::Real(2.0)), &[0, 3]);
        assert_eq!(idx.lookup(&Value::Real(2.5)), &[1]);
        assert_eq!(idx.lookup(&Value::str("2")), &[2]);
        assert!(idx.lookup(&Value::str("2.5")).is_empty());
        assert!(idx.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn nulls_not_indexed() {
        let idx = sample();
        assert!(idx.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn range_scan() {
        let idx = sample();
        let v3 = Value::Int(3);
        let v9 = Value::Int(9);
        assert_eq!(
            idx.range(Some((&v3, true)), Some((&v9, false))),
            vec![1, 0, 2]
        );
        assert_eq!(idx.range(None, Some((&v3, true))), vec![1]);
        assert_eq!(idx.range(Some((&v9, false)), None), Vec::<usize>::new());
    }

    #[test]
    fn cross_type_range_uses_total_order() {
        let values = [Value::Int(1), Value::str("a"), Value::Int(2)];
        let idx = AttributeIndex::build(values.iter());
        // Numbers sort before strings in the total order.
        let all = idx.range(None, None);
        assert_eq!(all, vec![0, 2, 1]);
    }

    fn values(
        idx: &AttributeIndex,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Vec<Value> {
        idx.values_in(lo, hi).cloned().collect()
    }

    #[test]
    fn lo_above_hi_is_empty() {
        let idx = sample();
        let (v3, v9) = (Value::Int(3), Value::Int(9));
        assert!(idx.range(Some((&v9, true)), Some((&v3, true))).is_empty());
        assert!(values(&idx, Some((&v9, true)), Some((&v3, true))).is_empty());
    }

    #[test]
    fn equal_endpoints_need_both_sides_included() {
        let idx = sample();
        let v5 = Value::Int(5);
        assert_eq!(idx.range(Some((&v5, true)), Some((&v5, true))), vec![0, 2]);
        assert_eq!(
            values(&idx, Some((&v5, true)), Some((&v5, true))),
            vec![v5.clone()]
        );
        for (li, hi) in [(true, false), (false, true), (false, false)] {
            assert!(idx.range(Some((&v5, li)), Some((&v5, hi))).is_empty());
            assert!(values(&idx, Some((&v5, li)), Some((&v5, hi))).is_empty());
        }
    }

    #[test]
    fn unbounded_both_sides_yields_every_value_but_null() {
        let idx = sample();
        assert_eq!(idx.range(None, None), vec![1, 0, 2, 4]);
        assert_eq!(
            values(&idx, None, None),
            vec![Value::Int(3), Value::Int(5), Value::Int(9)]
        );
    }

    #[test]
    fn nulls_are_never_returned() {
        let idx = sample();
        let null = Value::Null;
        let v9 = Value::Int(9);
        assert!(values(&idx, Some((&null, true)), None).is_empty());
        assert!(values(&idx, None, Some((&null, true))).is_empty());
        assert!(!idx.range(None, Some((&v9, true))).contains(&3));
        assert!(!values(&idx, None, Some((&v9, true))).contains(&Value::Null));
    }

    #[test]
    fn int_and_real_share_one_number_line() {
        let column = [
            Value::Int(1),
            Value::Real(1.5),
            Value::Int(2),
            Value::Real(2.0),
        ];
        let idx = AttributeIndex::build(column.iter());
        let (lo, hi) = (Value::Real(1.0), Value::Int(2));
        // Int(2) and Real(2.0) are one key; the first stored spelling wins.
        assert_eq!(
            values(&idx, Some((&lo, false)), Some((&hi, true))),
            vec![Value::Real(1.5), Value::Int(2)]
        );
        assert_eq!(
            idx.range(Some((&lo, false)), Some((&hi, true))),
            vec![1, 2, 3]
        );
        let half = Value::Real(1.5);
        assert_eq!(
            values(&idx, None, Some((&half, false))),
            vec![Value::Int(1)]
        );
    }

    #[test]
    fn int_bounds_on_a_string_column_match_nothing() {
        let column = [Value::str("0101"), Value::str("9000"), Value::str("x")];
        let idx = AttributeIndex::build(column.iter());
        let (lo, hi) = (Value::Int(0), Value::Int(10_000));
        assert!(values(&idx, Some((&lo, true)), None).is_empty());
        assert!(values(&idx, None, Some((&hi, true))).is_empty());
        assert!(values(&idx, Some((&lo, true)), Some((&hi, true))).is_empty());
        // The total-order scan keeps its cross-type reach: strings rank
        // above every number.
        assert_eq!(idx.range(Some((&lo, true)), None), vec![0, 1, 2]);
    }

    #[test]
    fn mixed_columns_yield_only_the_bounds_type() {
        let day = |d| Value::Date(Date::new(1981, 1, d).unwrap());
        let column = [
            Value::Int(7),
            Value::str("a"),
            day(5),
            Value::Int(9),
            Value::str("c"),
            day(2),
        ];
        let idx = AttributeIndex::build(column.iter());
        let (seven, b, z) = (Value::Int(7), Value::str("b"), Value::str("z"));
        assert_eq!(
            values(&idx, Some((&seven, false)), None),
            vec![Value::Int(9)]
        );
        assert_eq!(values(&idx, None, Some((&b, true))), vec![Value::str("a")]);
        assert_eq!(values(&idx, Some((&b, true)), None), vec![Value::str("c")]);
        assert_eq!(
            values(&idx, None, Some((&z, true))),
            vec![Value::str("a"), Value::str("c")]
        );
        assert_eq!(values(&idx, None, Some((&day(3), true))), vec![day(2)]);
        assert_eq!(values(&idx, Some((&day(3), true)), None), vec![day(5)]);
        // Bounds of two incomparable types admit nothing.
        assert!(values(&idx, Some((&seven, true)), Some((&z, true))).is_empty());
    }

    #[test]
    fn string_bounds_on_a_number_column_match_nothing() {
        let idx = sample();
        let (a, z) = (Value::str("a"), Value::str("z"));
        assert!(values(&idx, None, Some((&z, true))).is_empty());
        assert!(values(&idx, Some((&a, true)), None).is_empty());
        let never = Value::Date(Date::MIN);
        assert!(values(&idx, None, Some((&never, true))).is_empty());
    }
}
