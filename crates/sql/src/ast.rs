//! Abstract syntax for the SQL subset the paper's examples use
//! (`SELECT`/`FROM`/`WHERE` with conjunctive conditions, equi-joins, and
//! `ORDER BY`), extended with `DISTINCT`, `OR`/`NOT`, and parentheses.

use intensio_storage::expr::{AttrRef, Expr};
use intensio_storage::ops::Aggregate;

/// A relation in the `FROM` list with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// The relation name.
    pub name: String,
    /// The alias (defaults to the relation name).
    pub alias: String,
}

impl TableRef {
    /// A table reference with the alias defaulted to the name.
    pub fn named(name: impl Into<String>) -> TableRef {
        let name = name.into();
        TableRef {
            alias: name.clone(),
            name,
        }
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — every attribute of every FROM relation.
    Star,
    /// An attribute reference with an optional output name
    /// (`SUBMARINE.NAME` or `NAME AS ShipName`).
    Attr {
        /// The referenced attribute.
        attr: AttrRef,
        /// Output column name override (`AS`).
        output: Option<String>,
    },
    /// An aggregate over the (grouped) result: `COUNT(*)`,
    /// `MIN(Displacement)`, ...
    Aggregate {
        /// The aggregate function.
        func: Aggregate,
        /// The aggregated attribute; `None` for `COUNT(*)`.
        arg: Option<AttrRef>,
        /// Output column name override (`AS`).
        output: Option<String>,
    },
}

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Whether `DISTINCT` was given.
    pub distinct: bool,
    /// The select list.
    pub targets: Vec<SelectItem>,
    /// The FROM relations.
    pub from: Vec<TableRef>,
    /// The WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY attributes.
    pub group_by: Vec<AttrRef>,
    /// ORDER BY attributes (ascending).
    pub order_by: Vec<AttrRef>,
}

impl SelectQuery {
    /// Whether the query aggregates: an aggregate item or a GROUP BY.
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .targets
                .iter()
                .any(|t| matches!(t, SelectItem::Aggregate { .. }))
    }
}
