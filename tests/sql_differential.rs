//! Differential test of the SQL executor.
//!
//! `intensio_sql::execute` runs a query over row ids: restrictions
//! become row-id sets, joins probe each relation's cached index from the
//! entry admitting the fewest rows, and values are cloned only into the
//! result. [`reference`] keeps the executor it replaced — every base
//! relation filtered into a copy, rows as vectors of cloned tuples, a
//! fresh hash table per join, always starting from the first FROM entry
//! — and every result here must match it: Ok or Err (with the same
//! error), the output schema, the row multiset, and under ORDER BY the
//! sequence of the sort-key columns. Rows are compared value for value,
//! except under DISTINCT and aggregates, where equal values of the total
//! order (`Int(3)`, `Real(3.0)`) may stand for each other.
//!
//! Inputs: seeded SELECTs over generated fleets plus a `MIX` relation
//! whose join keys are integers, reals and nulls. Each query has one to
//! three FROM entries, with aliases and self-joins; zero to three
//! restrictions on any entry (open, closed, point, empty, `!=`,
//! type-mismatched, OR, NOT); equi-joins, repeated join edges and
//! cartesian products; residual cross-table predicates; DISTINCT,
//! aggregates, GROUP BY and ORDER BY. One suite mutates relations after
//! their indexes were cached.
//!
//! Each of these mutants of the executor fails this file:
//! - probing a relation without its admitted row-id set;
//! - indexing null keys and probing with them, so nulls join;
//! - dropping the join edges the join order did not probe along;
//! - leaving a restriction's row-id set unsorted (admission is a binary
//!   search).

#[path = "support/sql_gen.rs"]
mod sql_gen;

use intensio::shipdb::ship_database;
use intensio::sql::{execute, parse, SelectItem, SqlError};
use intensio::storage::prelude::{Database, Relation, Tuple, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sql_gen::{fleet_db, literal, random_query};
use std::cmp::Ordering;

/// What the compared results held, so a suite that compares only empty
/// results or errors fails rather than passes.
#[derive(Debug, Default)]
struct Tally {
    cases: usize,
    non_empty: usize,
    errors: usize,
}

impl Tally {
    fn check(&self) {
        assert!(
            self.non_empty * 3 >= self.cases,
            "too few non-empty results: {self:?}"
        );
    }
}

fn rows_of(r: &Relation) -> Vec<Vec<Value>> {
    r.iter().map(|t| t.values().to_vec()).collect()
}

fn schema_of(r: &Relation) -> Vec<(String, String)> {
    r.schema()
        .attributes()
        .iter()
        .map(|a| (a.name().to_string(), a.domain().to_string()))
        .collect()
}

/// Rows under the total order: `Int(3)` and `Real(3.0)` are equal.
fn row_cmp(a: &[Value], b: &[Value]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.total_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// A sort order for multisets that also puts `Int(3)` before `Real(3.0)`.
fn row_sort(a: &[Value], b: &[Value]) -> Ordering {
    let real = |v: &Value| matches!(v, Value::Real(_));
    row_cmp(a, b).then_with(|| {
        a.iter()
            .zip(b)
            .map(|(x, y)| real(x).cmp(&real(y)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    })
}

/// Run both executors on `sql` and compare; tally what was compared.
fn assert_same(db: &Database, sql: &str, tally: &mut Tally) {
    let q = parse(sql).unwrap_or_else(|e| panic!("generated SQL must parse: {e}\n{sql}"));
    let got = execute(db, &q);
    let want = reference::execute(db, &q);
    tally.cases += 1;
    let (got, want) = match (got, want) {
        (Err(g), Err(w)) => {
            match (&g, &w) {
                // An aggregate's error names the first value it rejects,
                // which depends on the order of the group's rows.
                (SqlError::Storage(a), SqlError::Storage(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "different errors for {sql}: {g} / {w}"
                ),
                _ => assert_eq!(g, w, "different errors for {sql}"),
            }
            tally.errors += 1;
            return;
        }
        (Ok(g), Ok(w)) => (g, w),
        (g, w) => panic!(
            "Ok/Err disagree for {sql}\n got: {:?}\nwant: {:?}",
            g.map(|r| r.len()),
            w.map(|r| r.len())
        ),
    };
    assert_eq!(schema_of(&got), schema_of(&want), "schemas differ: {sql}");
    let (mut g, mut w) = (rows_of(&got), rows_of(&want));
    if !q.order_by.is_empty() {
        let keys: Vec<usize> = q
            .order_by
            .iter()
            .map(|a| {
                got.schema()
                    .index_of(&a.name)
                    .or_else(|| {
                        let prefixed =
                            format!("{}.{}", a.qualifier.as_deref().unwrap_or(""), a.name);
                        got.schema().index_of(&prefixed)
                    })
                    .unwrap_or_else(|| panic!("sort key {a} not in the result: {sql}"))
            })
            .collect();
        let key_seq = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
            rows.iter()
                .map(|r| keys.iter().map(|&k| r[k].clone()).collect())
                .collect()
        };
        let (gk, wk) = (key_seq(&g), key_seq(&w));
        assert!(
            gk.len() == wk.len() && gk.iter().zip(&wk).all(|(a, b)| row_cmp(a, b).is_eq()),
            "ORDER BY key sequences differ: {sql}\n got: {gk:?}\nwant: {wk:?}"
        );
    }
    g.sort_by(|a, b| row_sort(a, b));
    w.sort_by(|a, b| row_sort(a, b));
    let by_value = q.distinct
        || !q.group_by.is_empty()
        || q.targets
            .iter()
            .any(|t| matches!(t, SelectItem::Aggregate { .. }));
    let same = g.len() == w.len()
        && g.iter().zip(&w).all(|(a, b)| {
            if by_value {
                row_cmp(a, b).is_eq()
            } else {
                a == b
            }
        });
    assert!(
        same,
        "row multisets differ: {sql}\n got: {g:?}\nwant: {w:?}"
    );
    if !g.is_empty() {
        tally.non_empty += 1;
    }
}

fn random_cases(seeds: std::ops::Range<u64>, per_seed: usize, ships_per_class: usize) -> Tally {
    let mut tally = Tally::default();
    for seed in seeds {
        let db = fleet_db(seed, ships_per_class);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..per_seed {
            assert_same(&db, &random_query(&db, &mut rng), &mut tally);
        }
    }
    tally.check();
    tally
}

#[test]
fn hand_picked_queries_match_the_reference() {
    let mut tally = Tally::default();
    let db = ship_database().unwrap();
    for sql in [
        // Examples 1-3 of the paper.
        "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
        "SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = \"SSBN\"",
        "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE FROM SUBMARINE, CLASS, INSTALL \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP \
         AND INSTALL.SONAR = \"BQS-04\"",
        // The start entry is the restricted last one; a cycle of edges.
        "SELECT s.Id, i.Sonar FROM SUBMARINE s, CLASS c, INSTALL i \
         WHERE s.Class = c.Class AND i.Ship = s.Id AND i.Sonar = 'BQQ-5'",
        "SELECT a.Class, b.Class FROM CLASS a, CLASS b, CLASS c \
         WHERE a.Type = b.Type AND b.Type = c.Type AND a.Type = c.Type AND c.Class = '0101'",
        "SELECT COUNT(*), MAX(c.Displacement) FROM SUBMARINE s, CLASS c WHERE c.Type = 'SSN'",
    ] {
        assert_same(&db, sql, &mut tally);
    }
    let db = fleet_db(7, 2);
    for sql in [
        // Null and Int/Real join keys, self-join on nullable codes.
        "SELECT a.Code, a.Weight, b.Tag FROM MIX a, MIX b WHERE a.Code = b.Code",
        "SELECT m.Weight, c.Class FROM MIX m, CLASS c WHERE m.Weight = c.Displacement",
        "SELECT DISTINCT m.Code FROM CLASS c, MIX m WHERE c.Class = m.Code AND m.Weight > 0",
        "SELECT m.Tag, SUM(m.Weight) FROM MIX m, CLASS c \
         WHERE c.Displacement = m.Weight GROUP BY m.Tag ORDER BY Tag",
    ] {
        assert_same(&db, sql, &mut tally);
    }
    // A restricted entry probed along a low-cardinality key: one ship's
    // sonar matches about nine installs, and the probed entry admits two
    // rows, one of them with another sonar.
    let db = fleet_db(7, 6);
    let installs = db.get("INSTALL").unwrap().tuples();
    let (ship, sonar) = (installs[0].get(0), installs[0].get(1));
    let with = |same: bool| {
        let t = installs[1..].iter().find(|t| (t.get(1) == sonar) == same);
        literal(t.unwrap().get(0))
    };
    let sql = format!(
        "SELECT a.Ship, b.Ship FROM INSTALL a, INSTALL b WHERE a.Sonar = b.Sonar \
         AND a.Ship = {} AND (b.Ship = {} OR b.Ship = {})",
        literal(ship),
        with(true),
        with(false)
    );
    assert_same(&db, &sql, &mut tally);
    assert_eq!(tally.errors, 0, "{tally:?}");
    assert_eq!(tally.non_empty, tally.cases, "{tally:?}");
}

#[test]
fn random_selects_on_generated_fleets_match_the_reference() {
    random_cases(0..4, 100, 3);
}

#[test]
fn relations_mutated_after_their_indexes_were_cached_match_the_reference() {
    let mut tally = Tally::default();
    let mut db = fleet_db(11, 3);
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..3u64 {
        for _ in 0..40 {
            assert_same(&db, &random_query(&db, &mut rng), &mut tally);
        }
        // Every index these queries cached is now stale.
        let class = db.get("CLASS").unwrap().tuples()[0].get(0).clone();
        let sub = db.get_mut("SUBMARINE").unwrap();
        sub.delete_where(|t| t.get(0).as_str().is_some_and(|id| id.ends_with('1')));
        sub.insert(Tuple::new(vec![
            Value::str(format!("X{round}")),
            Value::str("added"),
            class.clone(),
        ]))
        .unwrap();
        let mix = db.get_mut("MIX").unwrap();
        let rows: Vec<Tuple> = mix.tuples().iter().rev().cloned().collect();
        mix.replace_all(rows).unwrap();
        mix.insert(Tuple::new(vec![class, Value::Real(1.0), Value::Null]))
            .unwrap();
    }
    tally.check();
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_matches_the_reference() {
    let tally = random_cases(100..160, 400, 5);
    println!("{tally:?}");
}

/// The SQL executor as it stood before it ran over row ids: each
/// restriction filters a copy of its relation (through the index range
/// of its first indexable conjunct, in value order), rows are vectors of
/// cloned tuples joined greedily from the first FROM entry through a
/// hash table built per join, and projection copies again.
mod reference {
    use intensio::sql::{SelectItem, SelectQuery, SqlError, TableRef};
    use intensio::storage::prelude::{
        ops, AttrRef, Attribute, CmpOp, Database, Domain, Env, Expr, Relation, Schema,
        StorageError, Tuple, Value, ValueKey, ValueType,
    };
    use std::collections::{HashMap, HashSet};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Resolved {
        table: usize,
        column: usize,
    }

    struct Ctx<'a> {
        from: &'a [TableRef],
        schemas: Vec<&'a Schema>,
    }

    impl<'a> Ctx<'a> {
        fn resolve(&self, attr: &AttrRef) -> Result<Resolved, SqlError> {
            match &attr.qualifier {
                Some(q) => {
                    let table = self
                        .from
                        .iter()
                        .position(|t| t.alias.eq_ignore_ascii_case(q))
                        .ok_or_else(|| {
                            SqlError::Semantic(format!("unknown relation or alias: {q}"))
                        })?;
                    let column = self.schemas[table].index_of(&attr.name).ok_or_else(|| {
                        SqlError::Semantic(format!(
                            "relation {} has no attribute {}",
                            self.from[table].name, attr.name
                        ))
                    })?;
                    Ok(Resolved { table, column })
                }
                None => {
                    let mut found = None;
                    for (i, s) in self.schemas.iter().enumerate() {
                        if let Some(c) = s.index_of(&attr.name) {
                            if found.is_some() {
                                return Err(SqlError::Semantic(format!(
                                    "ambiguous attribute: {}",
                                    attr.name
                                )));
                            }
                            found = Some(Resolved {
                                table: i,
                                column: c,
                            });
                        }
                    }
                    found.ok_or_else(|| {
                        SqlError::Semantic(format!("unknown attribute: {}", attr.name))
                    })
                }
            }
        }
    }

    fn tables_of(e: &Expr, ctx: &Ctx<'_>) -> Result<HashSet<usize>, SqlError> {
        let mut out = HashSet::new();
        for a in e.attr_refs() {
            out.insert(ctx.resolve(a)?.table);
        }
        Ok(out)
    }

    /// Selection through the index range of the first `attr op const`
    /// conjunct, in value order, or a full scan in physical order.
    fn select_indexed(rel: &Relation, alias: &str, pred: &Expr) -> Result<Relation, StorageError> {
        type ScanBound = Option<(Value, bool)>;
        let mut plan: Option<(String, ScanBound, ScanBound)> = None;
        for c in pred.conjuncts() {
            let Expr::Cmp { op, left, right } = c else {
                continue;
            };
            let (attr, op, value) = match (&**left, &**right) {
                (Expr::Attr(a), Expr::Const(v)) => (a, *op, v.clone()),
                (Expr::Const(v), Expr::Attr(a)) => (a, op.flip(), v.clone()),
                _ => continue,
            };
            if let Some(q) = &attr.qualifier {
                if !q.eq_ignore_ascii_case(alias) {
                    continue;
                }
            }
            if rel.schema().index_of(&attr.name).is_none() {
                continue;
            }
            let bounds = match op {
                CmpOp::Eq => (Some((value.clone(), true)), Some((value, true))),
                CmpOp::Lt => (None, Some((value, false))),
                CmpOp::Le => (None, Some((value, true))),
                CmpOp::Gt => (Some((value, false)), None),
                CmpOp::Ge => (Some((value, true)), None),
                CmpOp::Ne => continue,
            };
            plan = Some((attr.name.clone(), bounds.0, bounds.1));
            break;
        }
        let positions: Vec<usize> = match plan {
            None => (0..rel.len()).collect(),
            Some((attr, lo, hi)) => rel.index_range(
                &attr,
                lo.as_ref().map(|(v, i)| (v, *i)),
                hi.as_ref().map(|(v, i)| (v, *i)),
            )?,
        };
        let mut out = Relation::with_schema_ref(rel.name(), rel.schema_ref());
        for p in positions {
            let t = &rel.tuples()[p];
            if pred.eval_bool(&Env::single(alias, rel.schema(), t))? {
                out.insert(t.clone())?;
            }
        }
        Ok(out)
    }

    pub fn execute(db: &Database, q: &SelectQuery) -> Result<Relation, SqlError> {
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

        let base: Vec<&Relation> = q
            .from
            .iter()
            .map(|t| db.get(&t.name))
            .collect::<Result<_, _>>()?;
        let ctx = Ctx {
            from: &q.from,
            schemas: base.iter().map(|r| r.schema()).collect(),
        };

        let mut restrictions: Vec<Vec<&Expr>> = vec![Vec::new(); q.from.len()];
        let mut joins: Vec<(Resolved, Resolved, &Expr)> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        if let Some(w) = &q.where_clause {
            for c in w.conjuncts() {
                let tables = tables_of(c, &ctx)?;
                match tables.len() {
                    0 | 1 => {
                        let t = tables.into_iter().next().unwrap_or(0);
                        restrictions[t].push(c);
                    }
                    2 => {
                        if let Expr::Cmp {
                            op: CmpOp::Eq,
                            left,
                            right,
                        } = c
                        {
                            if let (Expr::Attr(a), Expr::Attr(b)) = (&**left, &**right) {
                                let ra = ctx.resolve(a)?;
                                let rb = ctx.resolve(b)?;
                                if ra.table != rb.table {
                                    joins.push((ra, rb, c));
                                    continue;
                                }
                            }
                        }
                        residual.push(c);
                    }
                    _ => residual.push(c),
                }
            }
        }

        let mut filtered: Vec<Relation> = Vec::with_capacity(base.len());
        for (i, rel) in base.iter().enumerate() {
            if restrictions[i].is_empty() {
                filtered.push((*rel).clone());
            } else {
                let pred = Expr::conjoin(restrictions[i].iter().map(|e| (*e).clone()).collect())
                    .expect("non-empty");
                filtered.push(select_indexed(rel, &q.from[i].alias, &pred)?);
            }
        }

        let mut bound: Vec<usize> = vec![0];
        let mut rows: Vec<Vec<Tuple>> = filtered[0].iter().map(|t| vec![t.clone()]).collect();
        let mut remaining: Vec<usize> = (1..q.from.len()).collect();
        let mut pending_joins: Vec<(Resolved, Resolved)> =
            joins.iter().map(|(a, b, _)| (*a, *b)).collect();

        while !remaining.is_empty() {
            let next_info = pending_joins.iter().enumerate().find_map(|(ji, (a, b))| {
                let (inb, outb) = (bound.contains(&a.table), bound.contains(&b.table));
                match (inb, outb) {
                    (true, false) => Some((ji, *a, *b)),
                    (false, true) => Some((ji, *b, *a)),
                    _ => None,
                }
            });
            let (new_rows, new_table) = match next_info {
                Some((ji, bound_side, new_side)) => {
                    pending_joins.remove(ji);
                    let pos_in_bound = bound
                        .iter()
                        .position(|&t| t == bound_side.table)
                        .expect("bound side is bound");
                    let mut table: HashMap<ValueKey, Vec<&Tuple>> = HashMap::new();
                    for t in filtered[new_side.table].iter() {
                        let v = t.get(new_side.column);
                        if !v.is_null() {
                            table.entry(ValueKey(v.clone())).or_default().push(t);
                        }
                    }
                    let mut out = Vec::new();
                    for row in &rows {
                        let v = row[pos_in_bound].get(bound_side.column);
                        if v.is_null() {
                            continue;
                        }
                        if let Some(matches) = table.get(&ValueKey(v.clone())) {
                            for m in matches {
                                let mut r = row.clone();
                                r.push((*m).clone());
                                out.push(r);
                            }
                        }
                    }
                    (out, new_side.table)
                }
                None => {
                    let t = remaining[0];
                    let mut out = Vec::new();
                    for row in &rows {
                        for m in filtered[t].iter() {
                            let mut r = row.clone();
                            r.push(m.clone());
                            out.push(r);
                        }
                    }
                    (out, t)
                }
            };
            rows = new_rows;
            bound.push(new_table);
            remaining.retain(|&t| t != new_table);
        }

        let mut post: Vec<&Expr> = residual;
        for (a, b, e) in joins.iter() {
            if pending_joins.contains(&(*a, *b)) {
                post.push(e);
            }
        }
        if !post.is_empty() {
            let order = bound.clone();
            rows.retain(|row| {
                let mut env = Env::empty();
                for (pos, &t) in order.iter().enumerate() {
                    env.push(&q.from[t].alias, ctx.schemas[t], &row[pos]);
                }
                post.iter().all(|e| e.eval_bool(&env).unwrap_or(false))
            });
        }

        let table_pos: HashMap<usize, usize> =
            bound.iter().enumerate().map(|(pos, &t)| (t, pos)).collect();
        let has_aggregate = !q.group_by.is_empty()
            || q.targets
                .iter()
                .any(|t| matches!(t, SelectItem::Aggregate { .. }));
        if has_aggregate {
            return project_grouped(q, &ctx, &rows, &table_pos);
        }

        let mut out_cols: Vec<(String, Resolved)> = Vec::new();
        for item in &q.targets {
            match item {
                SelectItem::Star => {
                    for (ti, s) in ctx.schemas.iter().enumerate() {
                        for (ci, a) in s.attributes().iter().enumerate() {
                            out_cols.push((
                                a.name().to_string(),
                                Resolved {
                                    table: ti,
                                    column: ci,
                                },
                            ));
                        }
                    }
                }
                SelectItem::Attr { attr, output } => {
                    let r = ctx.resolve(attr)?;
                    let name = output.clone().unwrap_or_else(|| attr.name.clone());
                    out_cols.push((name, r));
                }
                SelectItem::Aggregate { .. } => unreachable!("handled by project_grouped"),
            }
        }
        let mut names: Vec<String> = Vec::with_capacity(out_cols.len());
        for (i, (name, r)) in out_cols.iter().enumerate() {
            let dup = out_cols
                .iter()
                .enumerate()
                .any(|(j, (n, _))| j != i && n.eq_ignore_ascii_case(name));
            if dup {
                names.push(format!("{}.{}", q.from[r.table].alias, name));
            } else {
                names.push(name.clone());
            }
        }

        let mut attrs: Vec<Attribute> = Vec::with_capacity(out_cols.len());
        for ((_, r), name) in out_cols.iter().zip(&names) {
            let src_attr = ctx.schemas[r.table].attr(r.column);
            attrs.push(Attribute::new(name.clone(), src_attr.domain().clone()));
        }
        let schema = Schema::new(attrs).map_err(SqlError::from)?;
        let mut result = Relation::new("result", schema);

        for row in &rows {
            let vals = out_cols
                .iter()
                .map(|(_, r)| row[table_pos[&r.table]].get(r.column).clone())
                .collect();
            result.insert(Tuple::new(vals))?;
        }

        let mut result = if q.distinct {
            ops::unique(&result)
        } else {
            result
        };
        result.set_name("result");

        if !q.order_by.is_empty() {
            let mut keys: Vec<String> = Vec::new();
            for a in &q.order_by {
                if result.schema().index_of(&a.name).is_some() {
                    keys.push(a.name.clone());
                } else {
                    let r = ctx.resolve(a)?;
                    let prefixed = format!("{}.{}", q.from[r.table].alias, a.name);
                    if result.schema().index_of(&prefixed).is_some() {
                        keys.push(prefixed);
                    } else {
                        return Err(SqlError::Semantic(format!(
                            "ORDER BY attribute {} is not in the select list",
                            a
                        )));
                    }
                }
            }
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            result.sort_by_names(&refs)?;
        }
        Ok(result)
    }

    fn project_grouped(
        q: &SelectQuery,
        ctx: &Ctx<'_>,
        rows: &[Vec<Tuple>],
        table_pos: &HashMap<usize, usize>,
    ) -> Result<Relation, SqlError> {
        let mut group_cols: Vec<(String, Resolved)> = Vec::new();
        for a in &q.group_by {
            group_cols.push((a.name.clone(), ctx.resolve(a)?));
        }
        for item in &q.targets {
            match item {
                SelectItem::Star => {
                    return Err(SqlError::Semantic(
                        "`*` cannot be combined with aggregates".to_string(),
                    ))
                }
                SelectItem::Attr { attr, .. } => {
                    let r = ctx.resolve(attr)?;
                    if !group_cols.iter().any(|(_, g)| *g == r) {
                        return Err(SqlError::Semantic(format!(
                            "attribute {attr} must appear in GROUP BY"
                        )));
                    }
                }
                SelectItem::Aggregate { .. } => {}
            }
        }

        let mut groups: std::collections::BTreeMap<Vec<ValueKey>, Vec<&Vec<Tuple>>> =
            std::collections::BTreeMap::new();
        for row in rows {
            let key: Vec<ValueKey> = group_cols
                .iter()
                .map(|(_, r)| ValueKey(row[table_pos[&r.table]].get(r.column).clone()))
                .collect();
            groups.entry(key).or_default().push(row);
        }

        let mut out_rows: Vec<Vec<Value>> = Vec::new();
        let mut emit = |members: &[&Vec<Tuple>], key: &[ValueKey]| -> Result<(), SqlError> {
            let mut vals = Vec::with_capacity(q.targets.len());
            for item in &q.targets {
                match item {
                    SelectItem::Star => unreachable!("validated"),
                    SelectItem::Attr { attr, .. } => {
                        let r = ctx.resolve(attr)?;
                        let pos = group_cols
                            .iter()
                            .position(|(_, g)| *g == r)
                            .expect("validated");
                        vals.push(key[pos].0.clone());
                    }
                    SelectItem::Aggregate { func, arg, .. } => {
                        let column: Vec<Value> = match arg {
                            None => vec![Value::Int(1); members.len()],
                            Some(a) => {
                                let r = ctx.resolve(a)?;
                                members
                                    .iter()
                                    .map(|row| row[table_pos[&r.table]].get(r.column).clone())
                                    .collect()
                            }
                        };
                        vals.push(ops::aggregate(*func, &column).map_err(SqlError::from)?);
                    }
                }
            }
            out_rows.push(vals);
            Ok(())
        };
        for (key, members) in &groups {
            emit(members, key)?;
        }
        if groups.is_empty() && q.group_by.is_empty() {
            emit(&[], &[])?;
        }

        let mut names: Vec<String> = Vec::with_capacity(q.targets.len());
        for item in &q.targets {
            let name = match item {
                SelectItem::Star => unreachable!("validated"),
                SelectItem::Attr { attr, output } => {
                    output.clone().unwrap_or_else(|| attr.name.clone())
                }
                SelectItem::Aggregate { func, arg, output } => {
                    output.clone().unwrap_or_else(|| {
                        let f = match func {
                            ops::Aggregate::Count => "count",
                            ops::Aggregate::Sum => "sum",
                            ops::Aggregate::Min => "min",
                            ops::Aggregate::Max => "max",
                            ops::Aggregate::Avg => "avg",
                        };
                        match arg {
                            None => f.to_string(),
                            Some(a) => format!("{f}_{}", a.name),
                        }
                    })
                }
            };
            names.push(name);
        }

        let mut attrs: Vec<Attribute> = Vec::with_capacity(q.targets.len());
        for (i, (item, name)) in q.targets.iter().zip(&names).enumerate() {
            let domain = match item {
                SelectItem::Attr { attr, .. } => {
                    let r = ctx.resolve(attr)?;
                    ctx.schemas[r.table].attr(r.column).domain().clone()
                }
                _ => {
                    let ty = out_rows
                        .iter()
                        .find_map(|row| row[i].value_type())
                        .unwrap_or(ValueType::Int);
                    Domain::basic(ty)
                }
            };
            attrs.push(Attribute::new(name.clone(), domain));
        }
        let schema = Schema::new(attrs).map_err(SqlError::from)?;
        let mut result = Relation::new("result", schema);
        for vals in out_rows {
            result.insert(Tuple::new(vals))?;
        }

        if !q.order_by.is_empty() {
            let mut keys: Vec<String> = Vec::new();
            for a in &q.order_by {
                if result.schema().index_of(&a.name).is_some() {
                    keys.push(a.name.clone());
                } else {
                    return Err(SqlError::Semantic(format!(
                        "ORDER BY attribute {a} is not in the select list"
                    )));
                }
            }
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            result.sort_by_names(&refs)?;
        }
        Ok(result)
    }
}
