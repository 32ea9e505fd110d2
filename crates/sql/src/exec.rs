//! SQL execution over row ids; no base relation or intermediate row is
//! copied. Each FROM entry's restriction is evaluated once, by
//! [`ops::select_positions`], into a sorted row-id set (an unrestricted
//! entry admits every row). The join order starts from the entry
//! admitting the fewest rows and attaches the others along the first
//! equi-join in WHERE order with one side bound, probing that entry's
//! cached [`AttributeIndex`] and keeping its admitted matches (null keys
//! never match); with no such join, the smallest unbound entry starts a
//! cartesian product. Unused join edges and residual predicates then
//! filter the rows. A row is one row id per FROM entry, and the rows lie
//! end to end in one buffer. [`select`] projects, deduplicates and sorts
//! them without copying a value, into a [`Selection`] that reads values
//! through borrowed tuples; [`execute`] copies a selection into a
//! relation. Without ORDER BY, result rows follow their base-row
//! positions in FROM order, compared lexicographically, whichever entry
//! the plan starts from; ORDER BY sorts stably on top. EXPLAIN renders
//! the same [`Plan`].
//!
//! [`AttributeIndex`]: intensio_storage::index::AttributeIndex

use crate::ast::{SelectItem, SelectQuery, TableRef};
use crate::parser::{parse, SqlParseError};
use intensio_storage::catalog::Database;
use intensio_storage::domain::Domain;
use intensio_storage::error::StorageError;
use intensio_storage::expr::{AttrRef, CmpOp, Env, Expr};
use intensio_storage::ops;
use intensio_storage::relation::Relation;
use intensio_storage::schema::{Attribute, Schema};
use intensio_storage::tuple::Tuple;
use intensio_storage::value::{Value, ValueRef, ValueType};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

/// An error from parsing or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Parse failure.
    Parse(SqlParseError),
    /// Storage-engine failure.
    Storage(StorageError),
    /// Semantic failure (unknown alias, ambiguous attribute, ...).
    Semantic(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::Storage(e) => write!(f, "{e}"),
            SqlError::Semantic(m) => write!(f, "SQL error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<SqlParseError> for SqlError {
    fn from(e: SqlParseError) -> Self {
        SqlError::Parse(e)
    }
}

impl From<StorageError> for SqlError {
    fn from(e: StorageError) -> Self {
        SqlError::Storage(e)
    }
}

/// Parse and execute a query against a database.
pub fn query(db: &Database, src: &str) -> Result<Relation, SqlError> {
    execute(db, &parse(src)?)
}

/// A resolved attribute: which FROM entry and which column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    pub(crate) table: usize,
    pub(crate) column: usize,
}

/// An equi-join edge `left = right` between two FROM entries.
pub(crate) struct Join<'a> {
    pub(crate) left: Resolved,
    pub(crate) right: Resolved,
    expr: &'a Expr,
}

/// One step of a join order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
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
pub(crate) struct Plan<'a> {
    from: &'a [TableRef],
    base: Vec<&'a Relation>,
    /// Per FROM entry, its single-table conjuncts.
    pub(crate) restrictions: Vec<Vec<&'a Expr>>,
    /// Per FROM entry, the admitted rows (ascending); `None` admits all.
    admitted: Vec<Option<Vec<usize>>>,
    /// Equi-join edges, in WHERE order.
    pub(crate) joins: Vec<Join<'a>>,
    pub(crate) steps: Vec<Step>,
    /// Conjuncts over several entries that are not equi-joins.
    pub(crate) residual: Vec<&'a Expr>,
}

/// Resolve a query, evaluate its restrictions and order its joins.
pub(crate) fn plan<'a>(db: &'a Database, q: &'a SelectQuery) -> Result<Plan<'a>, SqlError> {
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

    /// `alias.Attribute`, in the relation's declared spelling.
    pub(crate) fn name(&self, r: Resolved) -> String {
        format!("{}.{}", self.from[r.table].alias, self.attribute(r).name())
    }

    /// How many rows FROM entry `t` admits.
    pub(crate) fn admitted_len(&self, t: usize) -> usize {
        self.admitted[t]
            .as_ref()
            .map_or(self.base[t].len(), Vec::len)
    }

    /// The join edges no step probed along, in WHERE order.
    pub(crate) fn unused_joins(&self) -> impl Iterator<Item = &Join<'a>> + '_ {
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

    /// Run the join order and the post-join checks. A row is one row id
    /// per FROM entry, and the rows lie end to end in one buffer; they
    /// come back in the order contract's order.
    fn rows(&self) -> Result<Vec<usize>, SqlError> {
        let n = self.base.len();
        let mut rows = vec![0; n];
        for step in &self.steps {
            let mut next = Vec::new();
            let mut extend = |row: &[usize], t: usize, p: usize| {
                let at = next.len() + t;
                next.extend_from_slice(row);
                next[at] = p;
            };
            match *step {
                Step::Scan(t) => {
                    for row in rows.chunks_exact(n) {
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
                        for row in rows.chunks_exact(n) {
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
        if let (false, Some(first)) = (post.is_empty(), rows.get(..n)) {
            let mut env = Env::empty();
            for (t, from) in self.from.iter().enumerate() {
                env.push(&from.alias, self.base[t].schema(), self.tuple(first, t));
            }
            let mut kept = 0;
            for r in 0..rows.len() / n {
                let row = &rows[r * n..(r + 1) * n];
                for t in 0..n {
                    env.rebind(t, self.tuple(row, t));
                }
                if post.iter().all(|e| e.eval_bool(&env).unwrap_or(false)) {
                    rows.copy_within(r * n..(r + 1) * n, kept * n);
                    kept += 1;
                }
            }
            rows.truncate(kept * n);
        }
        let row = |r: usize| &rows[r * n..(r + 1) * n];
        let count = rows.len() / n;
        if (1..count).all(|r| row(r - 1) < row(r)) {
            // Already in order, as a scan or a probe from the first
            // entry leaves it: no permuted copy.
            return Ok(rows);
        }
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        Ok(order.iter().flat_map(|&r| row(r).iter().copied()).collect())
    }
}

/// The rows a query selected, as row ids into its FROM entries'
/// relations: no value is copied. It holds shared handles on those
/// relations, so it outlives the database it was selected from.
/// [`execute`] materializes one; a reply renders one straight to text.
/// The default selection has no columns and no rows.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Per FROM entry, its relation.
    sources: Vec<Arc<Relation>>,
    /// The output columns: names (alias-prefixed where two collide)
    /// and domains.
    schema: Schema,
    /// Per output column, its FROM entry and position there.
    columns: Vec<(usize, usize)>,
    /// The rows, one row id per FROM entry each, end to end.
    ids: Vec<usize>,
}

impl Selection {
    /// The output columns.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// How many rows were selected.
    pub fn len(&self) -> usize {
        self.ids.len() / self.sources.len().max(1)
    }

    /// Whether no row was selected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The value at output column `column` of row `row`.
    pub fn value(&self, row: usize, column: usize) -> &Value {
        let (t, c) = self.columns[column];
        self.sources[t].tuples()[self.ids[row * self.sources.len() + t]].get(c)
    }

    /// The values of row `row`, in column order.
    pub fn row(&self, row: usize) -> impl Iterator<Item = &Value> + '_ {
        (0..self.columns.len()).map(move |c| self.value(row, c))
    }

    /// The values of output column `column`, in row order.
    pub fn column(&self, column: usize) -> impl Iterator<Item = &Value> + '_ {
        (0..self.len()).map(move |r| self.value(r, column))
    }

    /// Copy the selected rows into a relation named `result`.
    pub fn materialize(&self) -> Result<Relation, SqlError> {
        let mut result = Relation::new("result", self.schema.clone());
        for r in 0..self.len() {
            result.insert(self.row(r).cloned().collect::<Tuple>())?;
        }
        Ok(result)
    }

    /// Sort the rows stably by the ORDER BY attributes, each matched
    /// against an output column name, then (given the plan) an
    /// alias-prefixed one.
    fn order(&mut self, q: &SelectQuery, plan: Option<&Plan<'_>>) -> Result<(), SqlError> {
        if q.order_by.is_empty() {
            return Ok(());
        }
        let mut keys = Vec::with_capacity(q.order_by.len());
        for a in &q.order_by {
            let key = match plan {
                _ if self.schema.index_of(&a.name).is_some() => a.name.clone(),
                Some(plan) => format!("{}.{}", q.from[plan.resolve(a)?.table].alias, a.name),
                None => String::new(),
            };
            let Some(column) = self.schema.index_of(&key) else {
                return Err(SqlError::Semantic(format!(
                    "ORDER BY attribute {a} is not in the select list"
                )));
            };
            keys.push(column);
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            keys.iter()
                .map(|&c| self.value(a, c).total_cmp(self.value(b, c)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        let n = self.sources.len();
        self.ids = order
            .iter()
            .flat_map(|&r| self.ids[r * n..(r + 1) * n].iter().copied())
            .collect();
        Ok(())
    }
}

impl From<Relation> for Selection {
    /// Every row of `rel`, in its order.
    fn from(rel: Relation) -> Selection {
        let schema = rel.schema().clone();
        Selection {
            columns: (0..schema.arity()).map(|c| (0, c)).collect(),
            ids: (0..rel.len()).collect(),
            sources: vec![Arc::new(rel)],
            schema,
        }
    }
}

/// Select a parsed query's rows: run its plan, then project, apply
/// DISTINCT (the first of equal output rows is kept) and sort for
/// ORDER BY, all over row ids. An aggregate query's (small) grouped
/// output is computed into a relation the selection then covers.
pub fn select(db: &Database, q: &SelectQuery) -> Result<Selection, SqlError> {
    let plan = plan(db, q)?;
    let rows = plan.rows()?;
    if q.is_aggregate() {
        let mut sel = Selection::from(project_grouped(q, &plan, &rows)?);
        sel.order(q, None)?;
        return Ok(sel);
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
    let schema = Schema::new(attrs)?;

    // DISTINCT keeps the first of each set of equal output rows.
    let ids = if q.distinct {
        let n = plan.base.len();
        let mut seen = BTreeSet::new();
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows.chunks_exact(n) {
            let values = out_cols.iter().map(|(_, r)| ValueRef(plan.value(row, *r)));
            if seen.insert(values.collect::<Vec<_>>()) {
                ids.extend_from_slice(row);
            }
        }
        ids
    } else {
        rows
    };
    let mut sel = Selection {
        sources: q
            .from
            .iter()
            .map(|t| db.get_shared(&t.name))
            .collect::<Result<_, _>>()?,
        schema,
        columns: out_cols.iter().map(|(_, r)| (r.table, r.column)).collect(),
        ids,
    };
    sel.order(q, Some(&plan))?;
    Ok(sel)
}

/// Execute a parsed query: [`select`] its rows, then copy them into a
/// relation.
pub fn execute(db: &Database, q: &SelectQuery) -> Result<Relation, SqlError> {
    select(db, q)?.materialize()
}

/// Grouped projection for aggregate queries: group the joined rows by
/// the GROUP BY attributes and compute one output row per group.
fn project_grouped(q: &SelectQuery, plan: &Plan<'_>, rows: &[usize]) -> Result<Relation, SqlError> {
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
    for row in rows.chunks_exact(plan.base.len()) {
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
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_storage::domain::Domain;
    use intensio_storage::tuple;
    use intensio_storage::value::{Value, ValueType};

    fn ship_db() -> Database {
        let mut db = Database::new();
        let sub_schema = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Name", Domain::char_n(20)),
            Attribute::new("Class", Domain::char_n(4)),
        ])
        .unwrap();
        let mut sub = Relation::new("SUBMARINE", sub_schema);
        sub.insert_all([
            tuple!["SSBN730", "Rhode Island", "0101"],
            tuple!["SSBN130", "Typhoon", "1301"],
            tuple!["SSN582", "Bonefish", "0215"],
            tuple!["SSN671", "Narwhal", "0203"],
        ])
        .unwrap();
        db.create(sub).unwrap();

        let cls_schema = Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new("ClassName", Domain::char_n(20)),
            Attribute::new("Type", Domain::char_n(4)),
            Attribute::new("Displacement", Domain::basic(ValueType::Int)),
        ])
        .unwrap();
        let mut cls = Relation::new("CLASS", cls_schema);
        cls.insert_all([
            tuple!["0101", "Ohio", "SSBN", 16600],
            tuple!["1301", "Typhoon", "SSBN", 30000],
            tuple!["0215", "Barbel", "SSN", 2145],
            tuple!["0203", "Narwhal", "SSN", 4450],
        ])
        .unwrap();
        db.create(cls).unwrap();

        let inst_schema = Schema::new(vec![
            Attribute::new("Ship", Domain::char_n(7)),
            Attribute::new("Sonar", Domain::char_n(8)),
        ])
        .unwrap();
        let mut inst = Relation::new("INSTALL", inst_schema);
        inst.insert_all([
            tuple!["SSBN730", "BQQ-5"],
            tuple!["SSN582", "BQS-04"],
            tuple!["SSN671", "BQQ-2"],
        ])
        .unwrap();
        db.create(inst).unwrap();
        db
    }

    #[test]
    fn example1_join_and_restriction() {
        let db = ship_db();
        let r = query(
            &db,
            "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
             FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        let ids: Vec<&str> = r.iter().map(|t| t.get(0).as_str().unwrap()).collect();
        assert!(ids.contains(&"SSBN730"));
        assert!(ids.contains(&"SSBN130"));
        // Output columns keep the queried attribute names.
        assert!(r.schema().index_of("Class").is_some());
        assert!(r.schema().index_of("Type").is_some());

        // When the same output name occurs twice, alias prefixes
        // disambiguate.
        let r2 = query(
            &db,
            "SELECT SUBMARINE.CLASS, CLASS.CLASS FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS",
        )
        .unwrap();
        assert!(r2.schema().index_of("SUBMARINE.Class").is_some());
        assert!(r2.schema().index_of("CLASS.Class").is_some());
    }

    #[test]
    fn three_way_join_example3() {
        let db = ship_db();
        let r = query(
            &db,
            "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
             FROM SUBMARINE, CLASS, INSTALL \
             WHERE SUBMARINE.CLASS = CLASS.CLASS \
             AND SUBMARINE.ID = INSTALL.SHIP \
             AND INSTALL.SONAR = \"BQS-04\"",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), &Value::str("Bonefish"));
    }

    #[test]
    fn star_selects_everything() {
        let db = ship_db();
        let r = query(&db, "SELECT * FROM CLASS WHERE Type = 'SSN'").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().arity(), 4);
    }

    #[test]
    fn distinct_and_order_by() {
        let db = ship_db();
        let r = query(&db, "SELECT DISTINCT Type FROM CLASS ORDER BY Type").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0].get(0), &Value::str("SSBN"));
    }

    #[test]
    fn aliases_work() {
        let db = ship_db();
        let r = query(
            &db,
            "SELECT s.Name FROM SUBMARINE s, CLASS c \
             WHERE s.Class = c.Class AND c.Type = 'SSBN' ORDER BY Name",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0].get(0), &Value::str("Rhode Island"));
    }

    #[test]
    fn cartesian_when_no_join() {
        let db = ship_db();
        let r = query(&db, "SELECT s.Id, c.Class FROM SUBMARINE s, CLASS c").unwrap();
        assert_eq!(r.len(), 16);
    }

    #[test]
    fn semantic_errors() {
        let db = ship_db();
        assert!(matches!(
            query(&db, "SELECT Nope FROM CLASS"),
            Err(SqlError::Semantic(_))
        ));
        assert!(matches!(
            query(&db, "SELECT x.Class FROM CLASS"),
            Err(SqlError::Semantic(_))
        ));
        assert!(matches!(
            query(&db, "SELECT Class FROM SUBMARINE, CLASS"),
            Err(SqlError::Semantic(_)),
        ));
        assert!(query(&db, "SELECT Id FROM MISSING").is_err());
        assert!(matches!(
            query(&db, "SELECT Id FROM SUBMARINE s, CLASS s"),
            Err(SqlError::Semantic(_))
        ));
    }

    #[test]
    fn residual_predicates_apply() {
        let db = ship_db();
        // Non-equality cross-table comparison: residual after the join.
        let r = query(
            &db,
            "SELECT s.Id FROM SUBMARINE s, CLASS c \
             WHERE s.Class = c.Class AND s.Id != c.ClassName AND c.Displacement >= 2145",
        )
        .unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn rows_follow_base_positions_in_from_order() {
        let db = ship_db();
        let column = |r: &Relation, i: usize| -> Vec<String> {
            r.iter().map(|t| t.get(i).render_bare()).collect()
        };
        // CLASS's restriction reads the index in displacement order
        // (0203, 0101, 1301); rows still follow CLASS's positions.
        let r = query(
            &db,
            "SELECT c.Class, s.Id FROM CLASS c, SUBMARINE s \
             WHERE s.Class = c.Class AND c.Displacement > 4000",
        )
        .unwrap();
        assert_eq!(column(&r, 0), ["0101", "1301", "0203"]);
        // The plan starts from CLASS (two rows admitted against three),
        // but a cartesian product still varies the last entry fastest.
        let sql = |from: &str| {
            format!("SELECT s.Id, c.Class FROM {from} WHERE c.Type = 'SSBN' AND s.Class >= '0200'")
        };
        let r = query(&db, &sql("SUBMARINE s, CLASS c")).unwrap();
        assert_eq!(
            column(&r, 0),
            ["SSBN130", "SSBN130", "SSN582", "SSN582", "SSN671", "SSN671"]
        );
        assert_eq!(
            column(&r, 1),
            ["0101", "1301", "0101", "1301", "0101", "1301"]
        );
        let r = query(&db, &sql("CLASS c, SUBMARINE s")).unwrap();
        assert_eq!(
            column(&r, 0),
            ["SSBN130", "SSN582", "SSN671", "SSBN130", "SSN582", "SSN671"]
        );
    }

    #[test]
    fn or_predicate() {
        let db = ship_db();
        let r = query(
            &db,
            "SELECT Class FROM CLASS WHERE Displacement > 20000 OR Type = 'SSN' ORDER BY Class",
        )
        .unwrap();
        assert_eq!(r.len(), 3);
    }
}
