//! The SQL executor as it stood before `select`: the row-id plan,
//! then DISTINCT, projection into a result relation, and ORDER BY on
//! that relation. A verbatim copy (less EXPLAIN's helpers), kept as the
//! reference the reply differential test compares `select` against.

use intensio::sql::{SelectItem, SelectQuery, SqlError, TableRef};
use intensio::storage::prelude::{
    ops, AttrRef, Attribute, CmpOp, Database, Domain, Env, Expr, Relation, Schema, Tuple, Value,
    ValueRef, ValueType,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A resolved attribute: which FROM entry and which column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolved {
    table: usize,
    column: usize,
}

/// An equi-join edge `left = right` between two FROM entries.
struct Join<'a> {
    left: Resolved,
    right: Resolved,
    expr: &'a Expr,
}

/// One step of a join order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Pair every row so far with each admitted row of the entry.
    Scan(usize),
    /// Attach `into.table` along join edge `edge`: each row probes the
    /// entry's index on `into.column` with its value at `from`.
    Probe {
        edge: usize,
        from: Resolved,
        into: Resolved,
    },
}

/// How a query runs: the rows each FROM entry admits, the join order,
/// and the predicates checked on joined rows.
struct Plan<'a> {
    from: &'a [TableRef],
    base: Vec<&'a Relation>,
    /// Per FROM entry, its single-table conjuncts.
    restrictions: Vec<Vec<&'a Expr>>,
    /// Per FROM entry, the admitted rows (ascending); `None` admits all.
    admitted: Vec<Option<Vec<usize>>>,
    /// Equi-join edges, in WHERE order.
    joins: Vec<Join<'a>>,
    steps: Vec<Step>,
    /// Conjuncts over several entries that are not equi-joins.
    residual: Vec<&'a Expr>,
}

/// Resolve a query, evaluate its restrictions and order its joins.
fn plan<'a>(db: &'a Database, q: &'a SelectQuery) -> Result<Plan<'a>, SqlError> {
    if q.from.is_empty() {
        return Err(SqlError::Semantic("FROM list is empty".to_string()));
    }
    for (i, t) in q.from.iter().enumerate() {
        if q.from[..i]
            .iter()
            .any(|u| u.alias.eq_ignore_ascii_case(&t.alias))
        {
            return Err(SqlError::Semantic(format!("duplicate alias: {}", t.alias)));
        }
    }
    let n = q.from.len();
    let mut plan = Plan {
        from: &q.from,
        base: q
            .from
            .iter()
            .map(|t| db.get(&t.name))
            .collect::<Result<_, _>>()?,
        restrictions: vec![Vec::new(); n],
        admitted: Vec::with_capacity(n),
        joins: Vec::new(),
        steps: Vec::with_capacity(n),
        residual: Vec::new(),
    };

    for expr in q.where_clause.iter().flat_map(Expr::conjuncts) {
        let refs = expr.attr_refs().into_iter();
        let tables: HashSet<usize> = refs
            .map(|a| plan.resolve(a).map(|r| r.table))
            .collect::<Result<_, _>>()?;
        if tables.len() <= 1 {
            plan.restrictions[tables.into_iter().next().unwrap_or(0)].push(expr);
            continue;
        }
        let edge = match expr {
            Expr::Cmp { op, left, right } if *op == CmpOp::Eq => match (&**left, &**right) {
                (Expr::Attr(a), Expr::Attr(b)) => Some((plan.resolve(a)?, plan.resolve(b)?)),
                _ => None,
            },
            _ => None,
        };
        match edge {
            Some((left, right)) if left.table != right.table => {
                plan.joins.push(Join { left, right, expr })
            }
            _ => plan.residual.push(expr),
        }
    }

    for (i, rel) in plan.base.iter().enumerate() {
        let pred = Expr::conjoin(plan.restrictions[i].iter().map(|e| (*e).clone()).collect());
        plan.admitted.push(match pred {
            None => None,
            Some(pred) => Some(ops::select_positions(rel, &q.from[i].alias, &pred)?),
        });
    }

    // Probe along the first equi-join in WHERE order with one side
    // bound; failing that, scan the unbound entry admitting the fewest
    // rows (the lowest FROM position on a tie).
    let mut bound = vec![false; n];
    while plan.steps.len() < n {
        let probe = plan.joins.iter().enumerate().find_map(|(edge, j)| {
            match (bound[j.left.table], bound[j.right.table]) {
                (true, false) => Some((edge, j.left, j.right)),
                (false, true) => Some((edge, j.right, j.left)),
                _ => None,
            }
        });
        let (step, table) = match probe {
            Some((edge, from, into)) => (Step::Probe { edge, from, into }, into.table),
            None => {
                let unbound = (0..n).filter(|&t| !bound[t]);
                let t = unbound.min_by_key(|&t| plan.admitted_len(t));
                let t = t.expect("an unbound entry remains");
                (Step::Scan(t), t)
            }
        };
        bound[table] = true;
        plan.steps.push(step);
    }
    Ok(plan)
}

impl<'a> Plan<'a> {
    fn resolve(&self, attr: &AttrRef) -> Result<Resolved, SqlError> {
        let column_of = |table: usize| self.base[table].schema().index_of(&attr.name);
        if let Some(q) = &attr.qualifier {
            let table = self
                .from
                .iter()
                .position(|t| t.alias.eq_ignore_ascii_case(q))
                .ok_or_else(|| SqlError::Semantic(format!("unknown relation or alias: {q}")))?;
            let column = column_of(table).ok_or_else(|| {
                SqlError::Semantic(format!(
                    "relation {} has no attribute {}",
                    self.from[table].name, attr.name
                ))
            })?;
            return Ok(Resolved { table, column });
        }
        let mut found = None;
        for table in 0..self.base.len() {
            if let Some(column) = column_of(table) {
                if found.is_some() {
                    return Err(SqlError::Semantic(format!(
                        "ambiguous attribute: {}",
                        attr.name
                    )));
                }
                found = Some(Resolved { table, column });
            }
        }
        found.ok_or_else(|| SqlError::Semantic(format!("unknown attribute: {}", attr.name)))
    }

    fn attribute(&self, r: Resolved) -> &'a Attribute {
        self.base[r.table].schema().attr(r.column)
    }

    /// How many rows FROM entry `t` admits.
    fn admitted_len(&self, t: usize) -> usize {
        self.admitted[t]
            .as_ref()
            .map_or(self.base[t].len(), Vec::len)
    }

    /// The join edges no step probed along, in WHERE order.
    fn unused_joins(&self) -> impl Iterator<Item = &Join<'a>> + '_ {
        self.joins.iter().enumerate().filter_map(|(e, j)| {
            let probed = self
                .steps
                .iter()
                .any(|s| matches!(s, Step::Probe { edge, .. } if *edge == e));
            (!probed).then_some(j)
        })
    }

    fn tuple(&self, row: &[usize], t: usize) -> &'a Tuple {
        &self.base[t].tuples()[row[t]]
    }

    fn value(&self, row: &[usize], r: Resolved) -> &'a Value {
        self.tuple(row, r.table).get(r.column)
    }

    /// Run the join order and the post-join checks; rows come back in
    /// the order contract's order.
    fn rows(&self) -> Result<Vec<Vec<usize>>, SqlError> {
        let mut rows = vec![vec![0; self.base.len()]];
        for step in &self.steps {
            let mut next = Vec::new();
            let mut extend = |row: &Vec<usize>, t: usize, p: usize| {
                let mut r = row.clone();
                r[t] = p;
                next.push(r);
            };
            match *step {
                Step::Scan(t) => {
                    for row in &rows {
                        match &self.admitted[t] {
                            Some(ps) => ps.iter().for_each(|&p| extend(row, t, p)),
                            None => (0..self.base[t].len()).for_each(|p| extend(row, t, p)),
                        }
                    }
                }
                Step::Probe { from, into, .. } => {
                    let name = self.attribute(into).name();
                    let admitted = self.admitted[into.table].as_deref();
                    self.base[into.table].with_index(name, |idx| {
                        for row in &rows {
                            let v = self.value(row, from);
                            if v.is_null() {
                                continue;
                            }
                            // Both lists ascend: walk the shorter and
                            // search the other.
                            let (walk, search) = match (idx.lookup(v), admitted) {
                                (matches, None) => (matches, None),
                                (matches, Some(ps)) if matches.len() <= ps.len() => {
                                    (matches, Some(ps))
                                }
                                (matches, Some(ps)) => (ps, Some(matches)),
                            };
                            for &p in walk {
                                if search.is_none_or(|s| s.binary_search(&p).is_ok()) {
                                    extend(row, into.table, p);
                                }
                            }
                        }
                    })?;
                }
            }
            rows = next;
        }

        let post: Vec<&Expr> = self
            .unused_joins()
            .map(|j| j.expr)
            .chain(self.residual.iter().copied())
            .collect();
        if let (false, Some(first)) = (post.is_empty(), rows.first()) {
            let mut env = Env::empty();
            for (t, from) in self.from.iter().enumerate() {
                env.push(&from.alias, self.base[t].schema(), self.tuple(first, t));
            }
            rows.retain(|row| {
                for t in 0..row.len() {
                    env.rebind(t, self.tuple(row, t));
                }
                post.iter().all(|e| e.eval_bool(&env).unwrap_or(false))
            });
        }
        rows.sort_unstable();
        Ok(rows)
    }
}

/// Execute a parsed query.
pub fn execute(db: &Database, q: &SelectQuery) -> Result<Relation, SqlError> {
    let plan = plan(db, q)?;
    let rows = plan.rows()?;
    if q.is_aggregate() {
        return project_grouped(q, &plan, &rows);
    }

    let mut out_cols: Vec<(String, Resolved)> = Vec::new();
    for item in &q.targets {
        match item {
            SelectItem::Star => {
                for (table, rel) in plan.base.iter().enumerate() {
                    for (column, a) in rel.schema().attributes().iter().enumerate() {
                        out_cols.push((a.name().to_string(), Resolved { table, column }));
                    }
                }
            }
            SelectItem::Attr { attr, output } => {
                let name = output.clone().unwrap_or_else(|| attr.name.clone());
                out_cols.push((name, plan.resolve(attr)?));
            }
            SelectItem::Aggregate { .. } => unreachable!("handled by project_grouped"),
        }
    }
    // Duplicate output names are disambiguated with alias prefixes.
    let mut attrs: Vec<Attribute> = Vec::with_capacity(out_cols.len());
    for (i, (name, r)) in out_cols.iter().enumerate() {
        let dup = out_cols
            .iter()
            .enumerate()
            .any(|(j, (n, _))| j != i && n.eq_ignore_ascii_case(name));
        let name = match dup {
            true => format!("{}.{name}", q.from[r.table].alias),
            false => name.clone(),
        };
        attrs.push(Attribute::new(name, plan.attribute(*r).domain().clone()));
    }
    let mut result = Relation::new("result", Schema::new(attrs)?);

    // DISTINCT keeps the first of each set of equal output rows.
    let mut seen = BTreeSet::new();
    for row in &rows {
        let values = || out_cols.iter().map(|(_, r)| plan.value(row, *r));
        if q.distinct && !seen.insert(values().map(ValueRef).collect::<Vec<_>>()) {
            continue;
        }
        result.insert(values().cloned().collect::<Tuple>())?;
    }
    order_result(&mut result, q, Some(&plan))?;
    Ok(result)
}

/// Sort the result by the ORDER BY attributes, each matched against an
/// output column name, then (given the plan) an alias-prefixed one.
fn order_result(
    result: &mut Relation,
    q: &SelectQuery,
    plan: Option<&Plan<'_>>,
) -> Result<(), SqlError> {
    if q.order_by.is_empty() {
        return Ok(());
    }
    let mut keys: Vec<String> = Vec::new();
    for a in &q.order_by {
        let key = match plan {
            _ if result.schema().index_of(&a.name).is_some() => a.name.clone(),
            Some(plan) => format!("{}.{}", q.from[plan.resolve(a)?.table].alias, a.name),
            None => String::new(),
        };
        if result.schema().index_of(&key).is_none() {
            return Err(SqlError::Semantic(format!(
                "ORDER BY attribute {a} is not in the select list"
            )));
        }
        keys.push(key);
    }
    let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    result.sort_by_names(&refs)?;
    Ok(())
}

/// Grouped projection for aggregate queries: group the joined rows by
/// the GROUP BY attributes and compute one output row per group.
fn project_grouped(
    q: &SelectQuery,
    plan: &Plan<'_>,
    rows: &[Vec<usize>],
) -> Result<Relation, SqlError> {
    let group_cols: Vec<Resolved> = q
        .group_by
        .iter()
        .map(|a| plan.resolve(a))
        .collect::<Result<_, _>>()?;
    // Validate the select list: plain attributes must be grouped; `*`
    // is not meaningful under aggregation.
    for item in &q.targets {
        match item {
            SelectItem::Star => {
                return Err(SqlError::Semantic(
                    "`*` cannot be combined with aggregates".to_string(),
                ))
            }
            SelectItem::Attr { attr, .. } => {
                if !group_cols.contains(&plan.resolve(attr)?) {
                    return Err(SqlError::Semantic(format!(
                        "attribute {attr} must appear in GROUP BY"
                    )));
                }
            }
            SelectItem::Aggregate { .. } => {}
        }
    }

    let mut groups: BTreeMap<Vec<ValueRef<'_>>, Vec<&[usize]>> = BTreeMap::new();
    for row in rows {
        let key = group_cols.iter().map(|r| ValueRef(plan.value(row, *r)));
        groups.entry(key.collect()).or_default().push(row);
    }

    // Output values per group, in target order.
    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    let mut emit = |members: &[&[usize]], key: &[ValueRef<'_>]| -> Result<(), SqlError> {
        let mut vals = Vec::with_capacity(q.targets.len());
        for item in &q.targets {
            match item {
                SelectItem::Star => unreachable!("validated"),
                SelectItem::Attr { attr, .. } => {
                    let r = plan.resolve(attr)?;
                    let pos = group_cols.iter().position(|g| *g == r).expect("validated");
                    vals.push(key[pos].0.clone());
                }
                SelectItem::Aggregate { func, arg, .. } => {
                    let one = Value::Int(1);
                    let value = match arg {
                        None => ops::aggregate(*func, members.iter().map(|_| &one)),
                        Some(a) => {
                            let r = plan.resolve(a)?;
                            ops::aggregate(*func, members.iter().map(|row| plan.value(row, r)))
                        }
                    };
                    vals.push(value?);
                }
            }
        }
        out_rows.push(vals);
        Ok(())
    };
    for (key, members) in &groups {
        emit(members, key)?;
    }
    // Global aggregate over an empty input still yields one row.
    if groups.is_empty() && q.group_by.is_empty() {
        emit(&[], &[])?;
    }

    // Grouped attributes keep their domains; aggregates are typed from
    // the computed values.
    let mut attrs: Vec<Attribute> = Vec::with_capacity(q.targets.len());
    for (i, item) in q.targets.iter().enumerate() {
        let (name, domain) = match item {
            SelectItem::Star => unreachable!("validated"),
            SelectItem::Attr { attr, output } => (
                output.clone().unwrap_or_else(|| attr.name.clone()),
                plan.attribute(plan.resolve(attr)?).domain().clone(),
            ),
            SelectItem::Aggregate { func, arg, output } => {
                let f = match func {
                    ops::Aggregate::Count => "count",
                    ops::Aggregate::Sum => "sum",
                    ops::Aggregate::Min => "min",
                    ops::Aggregate::Max => "max",
                    ops::Aggregate::Avg => "avg",
                };
                let name = match (output, arg) {
                    (Some(o), _) => o.clone(),
                    (None, None) => f.to_string(),
                    (None, Some(a)) => format!("{f}_{}", a.name),
                };
                let ty = out_rows.iter().find_map(|row| row[i].value_type());
                (name, Domain::basic(ty.unwrap_or(ValueType::Int)))
            }
        };
        attrs.push(Attribute::new(name, domain));
    }
    let mut result = Relation::new("result", Schema::new(attrs)?);
    for vals in out_rows {
        result.insert(Tuple::new(vals))?;
    }
    order_result(&mut result, q, None)?;
    Ok(result)
}
