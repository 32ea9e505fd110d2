//! Relational algebra operators over [`Relation`]s.
//!
//! These are the operations the paper's prototype obtained from INGRES:
//! selection, projection, duplicate elimination (`unique`), sorting
//! (`sort by`), joins, and simple aggregates. All operators are
//! value-based and produce new relations; inputs are untouched.

use crate::domain::Domain;
use crate::error::{Result, StorageError};
use crate::expr::{AttrRef, CmpOp, Env, Expr};
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use crate::tuple::Tuple;
use crate::value::{Value, ValueKey};
use std::collections::{BTreeSet, HashMap};

/// Selection: tuples of `rel` (bound to `alias`) satisfying `pred`.
pub fn select(rel: &Relation, alias: &str, pred: &Expr) -> Result<Relation> {
    let span = scan_span(rel, "full");
    intensio_fault::fire("storage.scan")?;
    let mut out = Relation::with_schema_ref(format!("σ({})", rel.name()), rel.schema_ref());
    for t in rel.iter() {
        let env = Env::single(alias, rel.schema(), t);
        if pred.eval_bool(&env)? {
            out.push_unchecked(t.clone());
        }
    }
    finish_scan(span, rel.len(), out.len());
    Ok(out)
}

/// Open the relation-scan span (one per selection, whatever the access
/// path).
fn scan_span(rel: &Relation, path: &'static str) -> intensio_obs::Span {
    intensio_obs::Span::stage("storage.scan", intensio_obs::Stage::Scan)
        .with_field("relation", rel.name())
        .with_field("path", path)
}

/// Close the scan span with its outcome and bump the scan counters.
fn finish_scan(mut span: intensio_obs::Span, scanned: usize, kept: usize) {
    span.field("scanned", scanned);
    span.field("kept", kept);
    intensio_obs::inc("storage.scans");
    intensio_obs::add("storage.tuples_scanned", scanned as u64);
}

/// Projection onto named attributes, in the given order.
pub fn project(rel: &Relation, attrs: &[&str]) -> Result<Relation> {
    let mut indices = Vec::with_capacity(attrs.len());
    for a in attrs {
        indices.push(rel.schema().require(rel.name(), a)?);
    }
    let schema = rel.schema().project(&indices);
    let mut out = Relation::new(format!("π({})", rel.name()), schema);
    for t in rel.iter() {
        out.push_unchecked(t.project(&indices));
    }
    Ok(out)
}

/// Generalized projection: evaluate `(output name, expression)` pairs per
/// tuple, producing a new relation. Output domains are inferred loosely
/// (basic type of the first non-null result, defaulting to string).
pub fn project_exprs(rel: &Relation, alias: &str, targets: &[(String, Expr)]) -> Result<Relation> {
    let mut rows: Vec<Tuple> = Vec::with_capacity(rel.len());
    for t in rel.iter() {
        let env = Env::single(alias, rel.schema(), t);
        let mut vals = Vec::with_capacity(targets.len());
        for (_, e) in targets {
            vals.push(e.eval(&env)?);
        }
        rows.push(Tuple::new(vals));
    }
    let schema = infer_schema(targets, &rows)?;
    let mut out = Relation::new(format!("π({})", rel.name()), schema);
    for t in rows {
        out.push_unchecked(t);
    }
    Ok(out)
}

/// Infer a schema for computed rows: each column takes the basic type of
/// its first non-null value (string when the column is entirely null).
fn infer_schema(targets: &[(String, Expr)], rows: &[Tuple]) -> Result<Schema> {
    let mut attrs = Vec::with_capacity(targets.len());
    for (i, (name, _)) in targets.iter().enumerate() {
        let ty = rows
            .iter()
            .find_map(|t| t.get(i).value_type())
            .unwrap_or(crate::value::ValueType::Str);
        attrs.push(Attribute::new(name.clone(), Domain::basic(ty)));
    }
    Schema::new(attrs)
}

/// Duplicate elimination over whole tuples (QUEL `unique`).
pub fn unique(rel: &Relation) -> Relation {
    let mut seen: BTreeSet<Vec<ValueKey>> = BTreeSet::new();
    let mut out = Relation::with_schema_ref(format!("δ({})", rel.name()), rel.schema_ref());
    let all: Vec<usize> = (0..rel.schema().arity()).collect();
    for t in rel.iter() {
        if seen.insert(t.key(&all)) {
            out.push_unchecked(t.clone());
        }
    }
    out
}

/// Sort (ascending) by the named attributes, returning a new relation.
pub fn sort(rel: &Relation, attrs: &[&str]) -> Result<Relation> {
    let mut out = rel.clone();
    out.sort_by_names(attrs)?;
    out.set_name(format!("τ({})", rel.name()));
    Ok(out)
}

/// Cartesian product of two relations under aliases.
pub fn cartesian(left: &Relation, lalias: &str, right: &Relation, ralias: &str) -> Relation {
    let schema = left.schema().join(lalias, right.schema(), ralias);
    let mut out = Relation::new(format!("{}×{}", left.name(), right.name()), schema);
    for l in left.iter() {
        for r in right.iter() {
            out.push_unchecked(l.concat(r));
        }
    }
    out
}

/// Theta join: the subset of the cartesian product satisfying `pred`,
/// where `pred` sees the two sides under their aliases.
pub fn theta_join(
    left: &Relation,
    lalias: &str,
    right: &Relation,
    ralias: &str,
    pred: &Expr,
) -> Result<Relation> {
    let schema = left.schema().join(lalias, right.schema(), ralias);
    let mut out = Relation::new(format!("{}⋈{}", left.name(), right.name()), schema);
    for l in left.iter() {
        for r in right.iter() {
            let mut env = Env::single(lalias, left.schema(), l);
            env.push(ralias, right.schema(), r);
            if pred.eval_bool(&env)? {
                out.push_unchecked(l.concat(r));
            }
        }
    }
    Ok(out)
}

/// Equi-join on `left.lattr = right.rattr`, probing the right side's
/// (lazily built, cached) secondary index; null join keys never match.
/// Repeated joins against the same relation reuse the index.
pub fn equi_join(
    left: &Relation,
    lalias: &str,
    lattr: &str,
    right: &Relation,
    ralias: &str,
    rattr: &str,
) -> Result<Relation> {
    let li = left.schema().require(left.name(), lattr)?;
    right.schema().require(right.name(), rattr)?;
    let schema = left.schema().join(lalias, right.schema(), ralias);
    let mut out = Relation::new(format!("{}⋈{}", left.name(), right.name()), schema);
    right.with_index(rattr, |idx| {
        for l in left.iter() {
            let v = l.get(li);
            if v.is_null() {
                continue;
            }
            for &p in idx.lookup(v) {
                out.push_unchecked(l.concat(&right.tuples()[p]));
            }
        }
    })?;
    Ok(out)
}

/// An index-scan bound: `(value, inclusive)`.
type ScanBound<'e> = Option<(&'e Value, bool)>;

/// The index range scan that gives a restriction its candidates.
#[derive(Debug, Clone, Copy)]
pub struct IndexScan<'e> {
    attr: &'e str,
    lo: ScanBound<'e>,
    hi: ScanBound<'e>,
}

/// The index range scan [`select_positions`] uses for the conjunction
/// of `conjuncts` over `rel` (bound to `alias`): that of the first
/// conjunct comparing one of its attributes with a constant by anything
/// but `!=`. `None` means every tuple is a candidate.
pub fn index_scan<'e>(
    rel: &Relation,
    alias: &str,
    conjuncts: impl IntoIterator<Item = &'e Expr>,
) -> Option<IndexScan<'e>> {
    conjuncts.into_iter().find_map(|conjunct| {
        let Expr::Cmp { op, left, right } = conjunct else {
            return None;
        };
        let (attr, op, value) = match (&**left, &**right) {
            (Expr::Attr(a), Expr::Const(v)) => (a, *op, v),
            (Expr::Const(v), Expr::Attr(a)) => (a, op.flip(), v),
            _ => return None,
        };
        let foreign = attr
            .qualifier
            .as_ref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(alias));
        if foreign || rel.schema().index_of(&attr.name).is_none() {
            return None;
        }
        let (lo, hi) = match op {
            CmpOp::Eq => (Some((value, true)), Some((value, true))),
            CmpOp::Lt => (None, Some((value, false))),
            CmpOp::Le => (None, Some((value, true))),
            CmpOp::Gt => (Some((value, false)), None),
            CmpOp::Ge => (Some((value, true)), None),
            CmpOp::Ne => return None,
        };
        Some(IndexScan {
            attr: &attr.name,
            lo,
            hi,
        })
    })
}

/// The positions of the tuples of `rel` (bound to `alias`) satisfying
/// `pred`, ascending. When [`index_scan`] finds an index range, its
/// candidates are evaluated against the whole predicate in value order;
/// otherwise every tuple is a candidate, in physical order. An
/// evaluation error is that of the first candidate that fails.
pub fn select_positions(rel: &Relation, alias: &str, pred: &Expr) -> Result<Vec<usize>> {
    let plan = index_scan(rel, alias, pred.conjuncts());
    let span = scan_span(rel, if plan.is_some() { "index" } else { "full" });
    intensio_fault::fire("storage.scan")?;
    let candidates = match plan {
        Some(scan) => rel.index_range(scan.attr, scan.lo, scan.hi)?,
        None => (0..rel.len()).collect(),
    };
    let tuples = rel.tuples();
    let mut kept = Vec::new();
    if let Some(&first) = candidates.first() {
        let mut env = Env::single(alias, rel.schema(), &tuples[first]);
        for &p in &candidates {
            env.rebind(0, &tuples[p]);
            if pred.eval_bool(&env)? {
                kept.push(p);
            }
        }
    }
    finish_scan(span, candidates.len(), kept.len());
    kept.sort_unstable();
    Ok(kept)
}

/// An aggregate function over a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Row count (nulls included).
    Count,
    /// Minimum non-null value.
    Min,
    /// Maximum non-null value.
    Max,
    /// Numeric sum of non-null values.
    Sum,
    /// Numeric mean of non-null values.
    Avg,
}

/// Apply an aggregate to a column of values.
pub fn aggregate<'a>(agg: Aggregate, values: impl IntoIterator<Item = &'a Value>) -> Result<Value> {
    let mut count = 0usize;
    let present: Vec<&Value> = values
        .into_iter()
        .inspect(|_| count += 1)
        .filter(|v| !v.is_null())
        .collect();
    match agg {
        Aggregate::Count => Ok(Value::Int(count as i64)),
        Aggregate::Min => Ok(present
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        Aggregate::Max => Ok(present
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        Aggregate::Sum | Aggregate::Avg => {
            if present.is_empty() {
                return Ok(Value::Null);
            }
            let mut all_int = true;
            let mut sum = 0.0f64;
            let mut isum = 0i64;
            for v in &present {
                match v {
                    Value::Int(i) => {
                        isum = isum.wrapping_add(*i);
                        sum += *i as f64;
                    }
                    Value::Real(r) => {
                        all_int = false;
                        sum += r;
                    }
                    other => {
                        return Err(StorageError::TypeMismatch {
                            expected: "numeric".to_string(),
                            found: other.to_string(),
                            context: "aggregate".to_string(),
                        })
                    }
                }
            }
            if agg == Aggregate::Sum {
                Ok(if all_int {
                    Value::Int(isum)
                } else {
                    Value::Real(sum)
                })
            } else {
                Ok(Value::Real(sum / present.len() as f64))
            }
        }
    }
}

/// Group `rel` by `group_attrs` and compute `(output name, aggregate,
/// input attr)` per group. The result schema is the group attributes
/// followed by the aggregate outputs; groups appear in first-seen order.
pub fn group_by(
    rel: &Relation,
    group_attrs: &[&str],
    aggs: &[(&str, Aggregate, &str)],
) -> Result<Relation> {
    let mut gidx = Vec::with_capacity(group_attrs.len());
    for a in group_attrs {
        gidx.push(rel.schema().require(rel.name(), a)?);
    }
    let mut aidx = Vec::with_capacity(aggs.len());
    for (_, _, a) in aggs {
        aidx.push(rel.schema().require(rel.name(), a)?);
    }

    let mut order: Vec<Vec<ValueKey>> = Vec::new();
    let mut groups: HashMap<Vec<ValueKey>, Vec<&Tuple>> = HashMap::new();
    for t in rel.iter() {
        let key = t.key(&gidx);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(t);
    }

    // Output schema: group columns keep their domains; aggregates get
    // inferred basic types after computation.
    let mut rows: Vec<Tuple> = Vec::with_capacity(order.len());
    for key in &order {
        let members = &groups[key];
        let mut vals: Vec<Value> = key.iter().map(|k| k.0.clone()).collect();
        for ((_, agg, _), &ai) in aggs.iter().zip(&aidx) {
            vals.push(aggregate(*agg, members.iter().map(|t| t.get(ai)))?);
        }
        rows.push(Tuple::new(vals));
    }

    let mut attrs: Vec<Attribute> = gidx
        .iter()
        .map(|&i| {
            let a = rel.schema().attr(i);
            Attribute::new(a.name().to_string(), a.domain().clone())
        })
        .collect();
    for (i, (name, _, _)) in aggs.iter().enumerate() {
        let col_pos = gidx.len() + i;
        let ty = rows
            .iter()
            .find_map(|t| t.get(col_pos).value_type())
            .unwrap_or(crate::value::ValueType::Int);
        attrs.push(Attribute::new(name.to_string(), Domain::basic(ty)));
    }
    let mut out = Relation::new(format!("γ({})", rel.name()), Schema::new(attrs)?);
    for t in rows {
        out.push_unchecked(t);
    }
    Ok(out)
}

/// Convenience: `select` with an `attr op constant` predicate.
pub fn restrict(
    rel: &Relation,
    attr: &str,
    op: CmpOp,
    value: impl Into<Value>,
) -> Result<Relation> {
    let pred = Expr::cmp_value(AttrRef::bare(attr), op, value);
    select(rel, rel.name(), &pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::tuple;
    use crate::value::ValueType;

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
            tuple!["0201", "SSN", 6000],
            tuple!["0215", "SSN", 2145],
            tuple!["1301", "SSBN", 30000],
        ])
        .unwrap();
        r
    }

    fn sub_rel() -> Relation {
        let schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Class", Domain::char_n(4)),
        ])
        .unwrap();
        let mut r = Relation::new("SUBMARINE", schema);
        r.insert_all([
            tuple!["SSBN730", "0101"],
            tuple!["SSN582", "0215"],
            tuple!["SSBN130", "1301"],
        ])
        .unwrap();
        r
    }

    #[test]
    fn select_filters() {
        let r = class_rel();
        let out = restrict(&r, "Displacement", CmpOp::Gt, 8000).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.get(2).as_int().unwrap() > 8000));
    }

    #[test]
    fn project_reorders() {
        let r = class_rel();
        let out = project(&r, &["Type", "Class"]).unwrap();
        assert_eq!(out.schema().attr(0).name(), "Type");
        assert_eq!(out.tuples()[0], tuple!["SSBN", "0101"]);
    }

    #[test]
    fn unique_deduplicates() {
        let r = class_rel();
        let types = project(&r, &["Type"]).unwrap();
        assert_eq!(types.len(), 5);
        let u = unique(&types);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn sort_orders() {
        let r = class_rel();
        let s = sort(&r, &["Displacement"]).unwrap();
        let d: Vec<i64> = s.iter().map(|t| t.get(2).as_int().unwrap()).collect();
        assert_eq!(d, vec![2145, 6000, 7250, 16600, 30000]);
    }

    #[test]
    fn equi_join_matches_paper_join() {
        // SUBMARINE.CLASS = CLASS.CLASS, as in the paper's Example 1.
        let s = sub_rel();
        let c = class_rel();
        let j = equi_join(&s, "s", "Class", &c, "c", "Class").unwrap();
        assert_eq!(j.len(), 3);
        assert!(j.schema().index_of("s.Class").is_some());
        assert!(j.schema().index_of("Displacement").is_some());
    }

    #[test]
    fn theta_join_general_predicate() {
        let s = sub_rel();
        let c = class_rel();
        let pred = Expr::And(
            Box::new(Expr::eq_attrs(
                AttrRef::qualified("s", "Class"),
                AttrRef::qualified("c", "Class"),
            )),
            Box::new(Expr::cmp_value(
                AttrRef::qualified("c", "Displacement"),
                CmpOp::Gt,
                8000,
            )),
        );
        let j = theta_join(&s, "s", &c, "c", &pred).unwrap();
        assert_eq!(j.len(), 2); // SSBN730 (16600) and SSBN130 (30000)
    }

    #[test]
    fn cartesian_size() {
        let s = sub_rel();
        let c = class_rel();
        assert_eq!(cartesian(&s, "s", &c, "c").len(), 15);
    }

    #[test]
    fn aggregates() {
        let r = class_rel();
        let d = r.column("Displacement").unwrap();
        assert_eq!(aggregate(Aggregate::Count, &d).unwrap(), Value::Int(5));
        assert_eq!(aggregate(Aggregate::Min, &d).unwrap(), Value::Int(2145));
        assert_eq!(aggregate(Aggregate::Max, &d).unwrap(), Value::Int(30000));
        assert_eq!(aggregate(Aggregate::Sum, &d).unwrap(), Value::Int(61995));
        assert_eq!(
            aggregate(Aggregate::Avg, &d).unwrap(),
            Value::Real(61995.0 / 5.0)
        );
    }

    #[test]
    fn group_by_type() {
        let r = class_rel();
        let g = group_by(
            &r,
            &["Type"],
            &[
                ("MinD", Aggregate::Min, "Displacement"),
                ("MaxD", Aggregate::Max, "Displacement"),
                ("N", Aggregate::Count, "Displacement"),
            ],
        )
        .unwrap();
        assert_eq!(g.len(), 2);
        let ssbn = g.iter().find(|t| t.get(0) == &Value::str("SSBN")).unwrap();
        assert_eq!(ssbn.get(1), &Value::Int(7250));
        assert_eq!(ssbn.get(2), &Value::Int(30000));
        assert_eq!(ssbn.get(3), &Value::Int(3));
    }

    #[test]
    fn project_exprs_computes() {
        let r = class_rel();
        let targets = vec![
            ("Class".to_string(), Expr::Attr(AttrRef::bare("Class"))),
            (
                "DoubleD".to_string(),
                Expr::Arith {
                    op: crate::expr::ArithOp::Mul,
                    left: Box::new(Expr::Attr(AttrRef::bare("Displacement"))),
                    right: Box::new(Expr::Const(Value::Int(2))),
                },
            ),
        ];
        let out = project_exprs(&r, "c", &targets).unwrap();
        assert_eq!(out.tuples()[0], tuple!["0101", 33200]);
        assert_eq!(out.schema().attr(1).value_type(), ValueType::Int);
    }

    #[test]
    fn select_positions_agree_with_select() {
        let r = class_rel();
        for pred in [
            Expr::cmp_value(AttrRef::bare("Displacement"), CmpOp::Gt, 8000),
            Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, "SSN"),
            Expr::And(
                Box::new(Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, "SSBN")),
                Box::new(Expr::cmp_value(
                    AttrRef::bare("Displacement"),
                    CmpOp::Lt,
                    20000,
                )),
            ),
            // Not indexable (Ne): falls back to a scan.
            Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Ne, "SSN"),
        ] {
            let plain = select(&r, "c", &pred).unwrap();
            let positions = select_positions(&r, "c", &pred).unwrap();
            let fast: Vec<&Tuple> = positions.iter().map(|&p| &r.tuples()[p]).collect();
            // Positions ascend, so the tuples come in physical order.
            assert_eq!(plain.iter().collect::<Vec<_>>(), fast, "pred {pred}");
        }
    }

    #[test]
    fn select_positions_are_ascending_and_fail_on_the_first_bad_candidate() {
        let r = class_rel();
        let d = |op, v: i64| Expr::cmp_value(AttrRef::bare("Displacement"), op, v);
        // The index range yields 2, 1, 0, 4 in value order.
        assert_eq!(
            select_positions(&r, "c", &d(CmpOp::Gt, 2145)).unwrap(),
            vec![0, 1, 2, 4]
        );
        // No indexable conjunct: every tuple is a candidate.
        assert_eq!(
            select_positions(&r, "c", &d(CmpOp::Ne, 6000)).unwrap(),
            vec![0, 1, 3, 4]
        );
        // A type mismatch fails only when a candidate reaches it.
        let mismatch = |lo| {
            Expr::And(
                Box::new(d(CmpOp::Gt, lo)),
                Box::new(Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, 5)),
            )
        };
        assert!(select_positions(&r, "c", &mismatch(40000))
            .unwrap()
            .is_empty());
        assert!(matches!(
            select_positions(&r, "c", &mismatch(0)),
            Err(StorageError::Incomparable { .. })
        ));
    }

    #[test]
    fn index_invalidated_by_mutation() {
        let mut r = class_rel();
        let ssn = Expr::cmp_value(AttrRef::bare("Type"), CmpOp::Eq, "SSN");
        let before = select_positions(&r, "c", &ssn).unwrap().len();
        r.insert(tuple!["0216", "SSN", 2500]).unwrap();
        let after = select_positions(&r, "c", &ssn).unwrap().len();
        assert_eq!(after, before + 1, "stale index must be rebuilt");
    }

    #[test]
    fn equi_join_reuses_right_index() {
        // Functional check: two joins against the same right side give
        // identical results (the second reuses the cached index).
        let s = sub_rel();
        let c = class_rel();
        let j1 = equi_join(&s, "s", "Class", &c, "c", "Class").unwrap();
        let j2 = equi_join(&s, "s", "Class", &c, "c", "Class").unwrap();
        assert_eq!(j1.len(), j2.len());
    }

    #[test]
    fn empty_aggregate_behaviour() {
        assert_eq!(aggregate(Aggregate::Count, &[]).unwrap(), Value::Int(0));
        assert_eq!(aggregate(Aggregate::Min, &[]).unwrap(), Value::Null);
        assert_eq!(aggregate(Aggregate::Sum, &[]).unwrap(), Value::Null);
    }
}
