//! Value ranges and their algebra.
//!
//! The paper's rule clauses are closed intervals `(lvalue, attribute,
//! uvalue)` ≡ `lvalue ≤ attribute ≤ uvalue` (§5.2.2). Query conditions,
//! however, can be half-open (`Displacement > 8000`), so the general
//! [`ValueRange`] supports optional, inclusive-or-exclusive endpoints.
//! Subsumption between query conditions and rule premises — the heart of
//! forward type inference (§4) — is interval containment.

use intensio_storage::expr::CmpOp;
use intensio_storage::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// One endpoint of a range.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// The boundary value.
    pub value: Value,
    /// Whether the boundary itself is included.
    pub inclusive: bool,
}

impl Endpoint {
    /// An inclusive endpoint.
    pub fn incl(value: impl Into<Value>) -> Endpoint {
        Endpoint {
            value: value.into(),
            inclusive: true,
        }
    }

    /// An exclusive endpoint.
    pub fn excl(value: impl Into<Value>) -> Endpoint {
        Endpoint {
            value: value.into(),
            inclusive: false,
        }
    }

    /// `==` with the value compared by [`Value::identical`].
    pub fn identical(&self, other: &Endpoint) -> bool {
        self.inclusive == other.inclusive && self.value.identical(&other.value)
    }
}

/// A (possibly unbounded) interval of values of one comparable type.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueRange {
    /// Lower bound; `None` means unbounded below.
    pub lo: Option<Endpoint>,
    /// Upper bound; `None` means unbounded above.
    pub hi: Option<Endpoint>,
}

impl ValueRange {
    /// `==` with endpoint values compared by [`Value::identical`].
    pub fn identical(&self, other: &ValueRange) -> bool {
        let same = |a: &Option<Endpoint>, b: &Option<Endpoint>| match (a, b) {
            (Some(a), Some(b)) => a.identical(b),
            (a, b) => a.is_none() && b.is_none(),
        };
        same(&self.lo, &other.lo) && same(&self.hi, &other.hi)
    }

    /// The full range (no constraint).
    pub fn full() -> ValueRange {
        ValueRange { lo: None, hi: None }
    }

    /// The closed interval `[lo, hi]` — the paper's clause form.
    pub fn closed(lo: impl Into<Value>, hi: impl Into<Value>) -> ValueRange {
        ValueRange {
            lo: Some(Endpoint::incl(lo)),
            hi: Some(Endpoint::incl(hi)),
        }
    }

    /// The degenerate interval `[v, v]` (an equality).
    pub fn point(v: impl Into<Value>) -> ValueRange {
        let v = v.into();
        ValueRange::closed(v.clone(), v)
    }

    /// The range equivalent to `attribute op constant`.
    ///
    /// `Ne` has no single-interval equivalent and returns `None`.
    pub fn from_cmp(op: CmpOp, v: impl Into<Value>) -> Option<ValueRange> {
        let v = v.into();
        Some(match op {
            CmpOp::Eq => ValueRange::point(v),
            CmpOp::Ne => return None,
            CmpOp::Lt => ValueRange {
                lo: None,
                hi: Some(Endpoint::excl(v)),
            },
            CmpOp::Le => ValueRange {
                lo: None,
                hi: Some(Endpoint::incl(v)),
            },
            CmpOp::Gt => ValueRange {
                lo: Some(Endpoint::excl(v)),
                hi: None,
            },
            CmpOp::Ge => ValueRange {
                lo: Some(Endpoint::incl(v)),
                hi: None,
            },
        })
    }

    /// Whether this is a single point (`lo == hi`, both inclusive).
    pub fn is_point(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) => l.inclusive && h.inclusive && l.value.sem_eq(&h.value),
            _ => false,
        }
    }

    /// The point value, if this is a degenerate interval.
    pub fn as_point(&self) -> Option<&Value> {
        if self.is_point() {
            self.lo.as_ref().map(|e| &e.value)
        } else {
            None
        }
    }

    /// Whether `v` lies in the range. Incomparable values are outside.
    pub fn contains(&self, v: &Value) -> bool {
        if let Some(lo) = &self.lo {
            match v.compare(&lo.value) {
                Ok(Ordering::Greater) => {}
                Ok(Ordering::Equal) if lo.inclusive => {}
                _ => return false,
            }
        }
        if let Some(hi) = &self.hi {
            match v.compare(&hi.value) {
                Ok(Ordering::Less) => {}
                Ok(Ordering::Equal) if hi.inclusive => {}
                _ => return false,
            }
        }
        true
    }

    /// Whether `self` contains every value of `other` (self ⊇ other).
    ///
    /// Comparisons between incomparable endpoint types yield `false`
    /// (conservative: no subsumption claimed).
    pub fn subsumes(&self, other: &ValueRange) -> bool {
        let lo_ok = match (&self.lo, &other.lo) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => match b.value.compare(&a.value) {
                Ok(Ordering::Greater) => true,
                Ok(Ordering::Equal) => a.inclusive || !b.inclusive,
                _ => false,
            },
        };
        if !lo_ok {
            return false;
        }
        match (&self.hi, &other.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => match b.value.compare(&a.value) {
                Ok(Ordering::Less) => true,
                Ok(Ordering::Equal) => a.inclusive || !b.inclusive,
                _ => false,
            },
        }
    }

    /// The intersection, or `None` when provably empty.
    ///
    /// With incomparable endpoints the result is `None` (conservative).
    pub fn intersect(&self, other: &ValueRange) -> Option<ValueRange> {
        let lo = tighter(&self.lo, &other.lo, true)?;
        let hi = tighter(&self.hi, &other.hi, false)?;
        if let (Some(l), Some(h)) = (&lo, &hi) {
            match l.value.compare(&h.value) {
                Ok(Ordering::Greater) => return None,
                Ok(Ordering::Equal) if !(l.inclusive && h.inclusive) => return None,
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        Some(ValueRange { lo, hi })
    }

    /// Whether the two ranges overlap.
    pub fn intersects(&self, other: &ValueRange) -> bool {
        self.intersect(other).is_some()
    }

    /// Merge two *overlapping or touching* ranges into their hull; `None`
    /// if they are disjoint and non-adjacent (a union would not be an
    /// interval).
    pub fn merge(&self, other: &ValueRange) -> Option<ValueRange> {
        let touching = self.intersects(other)
            || adjacent(&self.hi, &other.lo)
            || adjacent(&other.hi, &self.lo);
        if !touching {
            return None;
        }
        let lo = looser(&self.lo, &other.lo, true)?;
        let hi = looser(&self.hi, &other.hi, false)?;
        Some(ValueRange { lo, hi })
    }
}

/// Two endpoints are adjacent when `hi` and `lo` share a value and at
/// least one side includes it (`[a, b] ∪ (b, c] = [a, c]`).
fn adjacent(hi: &Option<Endpoint>, lo: &Option<Endpoint>) -> bool {
    match (hi, lo) {
        (Some(h), Some(l)) => h.value.sem_eq(&l.value) && (h.inclusive || l.inclusive),
        _ => false,
    }
}

/// The tighter of two bounds (max of lower bounds / min of upper bounds).
/// Returns `Err`-like `None` on incomparable values.
#[allow(clippy::type_complexity)]
fn tighter(a: &Option<Endpoint>, b: &Option<Endpoint>, is_lower: bool) -> Option<Option<Endpoint>> {
    match (a, b) {
        (None, None) => Some(None),
        (Some(x), None) | (None, Some(x)) => Some(Some(x.clone())),
        (Some(x), Some(y)) => {
            let ord = x.value.compare(&y.value).ok()?;
            let pick_x = match ord {
                Ordering::Equal => !x.inclusive || y.inclusive,
                Ordering::Greater => is_lower,
                Ordering::Less => !is_lower,
            };
            Some(Some(if pick_x { x.clone() } else { y.clone() }))
        }
    }
}

/// The looser of two bounds (min of lower bounds / max of upper bounds).
#[allow(clippy::type_complexity)]
fn looser(a: &Option<Endpoint>, b: &Option<Endpoint>, is_lower: bool) -> Option<Option<Endpoint>> {
    match (a, b) {
        (None, _) | (_, None) => Some(None),
        (Some(x), Some(y)) => {
            let ord = x.value.compare(&y.value).ok()?;
            let pick_x = match ord {
                Ordering::Equal => x.inclusive || !y.inclusive,
                Ordering::Greater => !is_lower,
                Ordering::Less => is_lower,
            };
            Some(Some(if pick_x { x.clone() } else { y.clone() }))
        }
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = self.as_point() {
            return write!(f, "= {p}");
        }
        match (&self.lo, &self.hi) {
            (None, None) => write!(f, "(unconstrained)"),
            (Some(l), None) => write!(f, "{} {}", if l.inclusive { ">=" } else { ">" }, l.value),
            (None, Some(h)) => write!(f, "{} {}", if h.inclusive { "<=" } else { "<" }, h.value),
            (Some(l), Some(h)) => write!(
                f,
                "in {}{}, {}{}",
                if l.inclusive { '[' } else { '(' },
                l.value,
                h.value,
                if h.inclusive { ']' } else { ')' }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_respects_bounds() {
        let r = ValueRange::closed(7250, 30000);
        assert!(r.contains(&Value::Int(7250)));
        assert!(r.contains(&Value::Int(30000)));
        assert!(!r.contains(&Value::Int(7249)));
        let open = ValueRange::from_cmp(CmpOp::Gt, 8000).unwrap();
        assert!(!open.contains(&Value::Int(8000)));
        assert!(open.contains(&Value::Int(8001)));
    }

    #[test]
    fn strings_work_too() {
        // R1: SSN623 <= Id <= SSN635.
        let r = ValueRange::closed("SSBN623", "SSBN635");
        assert!(r.contains(&Value::str("SSBN629")));
        assert!(!r.contains(&Value::str("SSBN644")));
        assert!(!r.contains(&Value::Int(5)), "incomparable is outside");
    }

    #[test]
    fn subsumption_paper_example1() {
        // "Displacement > 8000 is subsumed by Displacement >= 7250".
        let rule_lhs = ValueRange::from_cmp(CmpOp::Ge, 7250).unwrap();
        let cond = ValueRange::from_cmp(CmpOp::Gt, 8000).unwrap();
        assert!(rule_lhs.subsumes(&cond));
        assert!(!cond.subsumes(&rule_lhs));
    }

    #[test]
    fn subsumption_boundary_inclusivity() {
        let a = ValueRange::from_cmp(CmpOp::Ge, 10).unwrap();
        let b = ValueRange::from_cmp(CmpOp::Gt, 10).unwrap();
        assert!(a.subsumes(&b));
        assert!(!b.subsumes(&a));
        assert!(a.subsumes(&a));
        assert!(b.subsumes(&b));
    }

    #[test]
    fn intersect_closed() {
        let a = ValueRange::closed(0, 10);
        let b = ValueRange::closed(5, 20);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, ValueRange::closed(5, 10));
        let c = ValueRange::closed(11, 20);
        assert!(a.intersect(&c).is_none());
        // Touching at a point with both inclusive is non-empty.
        let d = ValueRange::closed(10, 15);
        assert_eq!(a.intersect(&d).unwrap(), ValueRange::point(10));
    }

    #[test]
    fn intersect_exclusive_touch_is_empty() {
        let a = ValueRange::from_cmp(CmpOp::Lt, 10).unwrap();
        let b = ValueRange::from_cmp(CmpOp::Ge, 10).unwrap();
        assert!(a.intersect(&b).is_none());
        let c = ValueRange::from_cmp(CmpOp::Le, 10).unwrap();
        assert_eq!(c.intersect(&b).unwrap(), ValueRange::point(10));
    }

    #[test]
    fn merge_overlapping_and_adjacent() {
        let a = ValueRange::closed(0, 10);
        let b = ValueRange::closed(5, 20);
        assert_eq!(a.merge(&b).unwrap(), ValueRange::closed(0, 20));
        // Adjacent: [0,10] and (10, 20].
        let c = ValueRange {
            lo: Some(Endpoint::excl(10)),
            hi: Some(Endpoint::incl(20)),
        };
        assert_eq!(a.merge(&c).unwrap(), ValueRange::closed(0, 20));
        // Disjoint.
        let d = ValueRange::closed(12, 20);
        assert!(a.merge(&d).is_none());
    }

    #[test]
    fn from_cmp_covers_operators() {
        assert_eq!(
            ValueRange::from_cmp(CmpOp::Eq, 5).unwrap(),
            ValueRange::point(5)
        );
        assert!(ValueRange::from_cmp(CmpOp::Ne, 5).is_none());
        assert!(ValueRange::from_cmp(CmpOp::Le, 5)
            .unwrap()
            .contains(&Value::Int(5)));
        assert!(!ValueRange::from_cmp(CmpOp::Lt, 5)
            .unwrap()
            .contains(&Value::Int(5)));
    }

    #[test]
    fn point_detection() {
        assert!(ValueRange::point("SSBN").is_point());
        assert_eq!(
            ValueRange::point("SSBN").as_point(),
            Some(&Value::str("SSBN"))
        );
        assert!(!ValueRange::closed(1, 2).is_point());
        assert!(!ValueRange::full().is_point());
    }

    #[test]
    fn full_range_subsumes_everything() {
        let f = ValueRange::full();
        assert!(f.subsumes(&ValueRange::closed(0, 1)));
        assert!(f.subsumes(&f));
        assert!(!ValueRange::closed(0, 1).subsumes(&f));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ValueRange::point(5).to_string(), "= 5");
        assert_eq!(ValueRange::closed(1, 2).to_string(), "in [1, 2]");
        assert_eq!(
            ValueRange::from_cmp(CmpOp::Gt, 8000).unwrap().to_string(),
            "> 8000"
        );
    }
}
