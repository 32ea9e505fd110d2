//! Query plan explanation: a textual rendering of the plan the
//! executor runs — each FROM entry's restrictions (with index
//! eligibility) and admitted rows, the join order, the post-join
//! checks, grouping, and ordering.

use crate::ast::SelectQuery;
use crate::exec::{plan, SqlError, Step};
use intensio_storage::catalog::Database;
use intensio_storage::ops;
use std::fmt::Write as _;

/// Produce a human-readable plan for a query. Restrictions are
/// evaluated, as [`execute`](crate::execute) does, to count the rows
/// each entry admits, so EXPLAIN returns the errors they raise and
/// fires the `storage.scan` failpoint, span and counters.
pub fn explain(db: &Database, q: &SelectQuery) -> Result<String, SqlError> {
    let plan = plan(db, q)?;
    let alias = |t: usize| q.from[t].alias.as_str();
    let mut out = String::new();
    let _ = writeln!(out, "plan:");

    for (t, from) in q.from.iter().enumerate() {
        let rel = db.get(&from.name)?;
        let _ = write!(
            out,
            "  scan {} as {} ({} tuples)",
            from.name,
            from.alias,
            rel.len()
        );
        let restrictions = &plan.restrictions[t];
        if restrictions.is_empty() {
            let _ = writeln!(out);
            continue;
        }
        let conds: Vec<String> = restrictions.iter().map(|e| e.to_string()).collect();
        let path = if ops::index_scan(rel, &from.alias, restrictions.iter().copied()).is_some() {
            "index range scan"
        } else {
            "scan"
        };
        let _ = writeln!(
            out,
            " where {} [{path}] -> {} rows",
            conds.join(" and "),
            plan.admitted_len(t)
        );
    }

    for (i, step) in plan.steps.iter().enumerate() {
        let _ = match *step {
            Step::Scan(t) if i == 0 => {
                writeln!(
                    out,
                    "  start with {} ({} rows)",
                    alias(t),
                    plan.admitted_len(t)
                )
            }
            Step::Scan(t) => writeln!(
                out,
                "  cartesian product with {} ({} rows)",
                alias(t),
                plan.admitted_len(t)
            ),
            Step::Probe { edge, into, .. } => {
                let j = &plan.joins[edge];
                writeln!(
                    out,
                    "  equi-join on {} = {} (index probe into {})",
                    plan.name(j.left),
                    plan.name(j.right),
                    alias(into.table)
                )
            }
        };
    }
    for j in plan.unused_joins() {
        let _ = writeln!(
            out,
            "  residual join check {} = {}",
            plan.name(j.left),
            plan.name(j.right)
        );
    }
    for e in &plan.residual {
        let _ = writeln!(out, "  residual filter {e}");
    }

    if q.is_aggregate() {
        let keys: Vec<String> = q.group_by.iter().map(|a| a.to_string()).collect();
        if keys.is_empty() {
            let _ = writeln!(out, "  aggregate (single group)");
        } else {
            let _ = writeln!(out, "  aggregate group by {}", keys.join(", "));
        }
    }
    if q.distinct {
        let _ = writeln!(out, "  distinct");
    }
    if !q.order_by.is_empty() {
        let keys: Vec<String> = q.order_by.iter().map(|a| a.to_string()).collect();
        let _ = writeln!(out, "  sort by {}", keys.join(", "));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::plan;
    use crate::parser::parse;
    use intensio_storage::domain::Domain;
    use intensio_storage::relation::Relation;
    use intensio_storage::schema::{Attribute, Schema};
    use intensio_storage::tuple;

    fn db() -> Database {
        let mut d = Database::new();
        let s1 = Schema::new(vec![
            Attribute::key("Id", Domain::char_n(7)),
            Attribute::new("Class", Domain::char_n(4)),
        ])
        .unwrap();
        let mut sub = Relation::new("SUBMARINE", s1);
        sub.insert(tuple!["SSBN730", "0101"]).unwrap();
        d.create(sub).unwrap();
        let s2 = Schema::new(vec![
            Attribute::key("Class", Domain::char_n(4)),
            Attribute::new(
                "Displacement",
                Domain::basic(intensio_storage::value::ValueType::Int),
            ),
        ])
        .unwrap();
        let mut cls = Relation::new("CLASS", s2);
        cls.insert(tuple!["0101", 16600]).unwrap();
        d.create(cls).unwrap();
        d
    }

    #[test]
    fn explains_a_join_query() {
        let d = db();
        let q = parse(
            "SELECT SUBMARINE.ID FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000 \
             ORDER BY ID",
        )
        .unwrap();
        let plan = explain(&d, &q).unwrap();
        assert!(plan.contains("scan SUBMARINE"));
        assert!(plan.contains("[index range scan]"));
        assert!(plan.contains("equi-join on SUBMARINE.Class = CLASS.Class"));
        assert!(plan.contains("sort by ID"));
    }

    #[test]
    fn explain_shows_the_join_order_execute_runs() {
        let mut d = db();
        let sub = d.get_mut("SUBMARINE").unwrap();
        for (id, class) in [("SSN582", "0215"), ("SSN671", "0203"), ("SSN592", "0215")] {
            sub.insert(tuple![id, class]).unwrap();
        }
        let cls = d.get_mut("CLASS").unwrap();
        cls.insert(tuple!["0215", 2145]).unwrap();
        cls.insert(tuple!["0203", 4450]).unwrap();
        let q = parse(
            "SELECT SUBMARINE.ID FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT < 3000",
        )
        .unwrap();
        let text = explain(&d, &q).unwrap();
        // The entry each join-order line binds, in order.
        let order: Vec<&str> = text
            .lines()
            .filter_map(|l| {
                let l = l.trim();
                let rest = l
                    .strip_prefix("start with ")
                    .or_else(|| l.strip_prefix("cartesian product with "));
                match rest {
                    Some(r) => r.split(' ').next(),
                    None => l.split("(index probe into ").nth(1)?.strip_suffix(')'),
                }
            })
            .collect();
        let executed: Vec<&str> = plan(&d, &q)
            .unwrap()
            .steps
            .iter()
            .map(|s| match *s {
                Step::Scan(t) => q.from[t].alias.as_str(),
                Step::Probe { into, .. } => q.from[into.table].alias.as_str(),
            })
            .collect();
        assert_eq!(order, executed, "{text}");
        assert_eq!(order, ["CLASS", "SUBMARINE"], "{text}");
        assert!(text.contains("start with CLASS (1 rows)"), "{text}");
        let ids = crate::execute(&d, &q).unwrap();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn explains_aggregates_and_cartesian() {
        let d = db();
        let q = parse("SELECT COUNT(*) FROM SUBMARINE, CLASS").unwrap();
        let plan = explain(&d, &q).unwrap();
        assert!(plan.contains("cartesian product"));
        assert!(plan.contains("aggregate (single group)"));
        let q2 = parse("SELECT Class, COUNT(*) FROM SUBMARINE GROUP BY Class").unwrap();
        let plan2 = explain(&d, &q2).unwrap();
        assert!(plan2.contains("aggregate group by Class"));
    }
}
