//! Inter-object constraint discovery (§3.1).
//!
//! Beyond classification rules, the paper's inter-object knowledge
//! includes relational *constraints* between the entities a relationship
//! links: "the relationship VISIT involves entities of SHIP and PORT and
//! satisfies the constraint that the draft of the ship must be less than
//! the depth of the port. The inter-object knowledge can be induced from
//! the interrelationship between SHIP and PORT linked by the VISIT
//! relationship."
//!
//! This module induces exactly that: for every pair of comparable
//! attributes across the roles of a relationship join, it finds the
//! strongest comparison (`<`, `<=`, `=`, `>=`, `>`) that every joined
//! instance satisfies.

use crate::driver::{Ils, RoleJoin};
use intensio_rules::rule::AttrId;
use intensio_storage::catalog::Database;
use intensio_storage::error::Result;
use intensio_storage::expr::CmpOp;
use std::cmp::Ordering;
use std::fmt;

/// A discovered constraint `left op right` holding for every instance of
/// the relationship.
#[derive(Debug, Clone, PartialEq)]
pub struct InterObjectConstraint {
    /// The relationship relation the constraint was induced from.
    pub relationship: String,
    /// Left attribute (role-qualified).
    pub left: AttrId,
    /// The strongest operator that always holds.
    pub op: CmpOp,
    /// Right attribute.
    pub right: AttrId,
    /// Number of relationship instances supporting it.
    pub support: usize,
}

impl fmt::Display for InterObjectConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} {} (support {})",
            self.relationship, self.left, self.op, self.right, self.support
        )
    }
}

impl Ils<'_> {
    /// Discover inter-object inequality/equality constraints over every
    /// relationship relation of the database. Only constraints supported
    /// by at least `min_support` (the ILS's `N_c`) instances are kept,
    /// and trivial self-comparisons are skipped.
    pub fn discover_relationship_constraints(
        &self,
        db: &Database,
    ) -> Result<Vec<InterObjectConstraint>> {
        let mut out = Vec::new();
        for rel in db.relations() {
            let roles = self.role_attrs(db, rel);
            if roles.len() < 2 {
                continue;
            }
            let joined = self.join_roles(db, rel, &roles)?;
            discover_in_joined(rel.name(), &joined, self.config().min_support, &mut out);
        }
        Ok(out)
    }
}

/// Scan a role join for universally-held comparisons between columns
/// of *different* roles.
fn discover_in_joined(
    relationship: &str,
    joined: &RoleJoin<'_>,
    min_support: usize,
    out: &mut Vec<InterObjectConstraint>,
) {
    for (ai, a_cols) in joined.roles.iter().enumerate() {
        for (bi, b_cols) in joined.roles.iter().enumerate() {
            if ai >= bi {
                continue; // each unordered pair once; op orientation covers both
            }
            for a in a_cols.clone() {
                for b in b_cols.clone() {
                    let (ac, bc) = (&joined.columns[a], &joined.columns[b]);
                    // Key attributes are surrogate identifiers; any
                    // ordering between them is lexicographic noise.
                    if ac.is_key || bc.is_key {
                        continue;
                    }
                    // Track which orderings occur.
                    let (mut lt, mut eq, mut gt, mut n) = (false, false, false, 0usize);
                    let mut comparable = true;
                    for (l, r) in joined.values(a).zip(joined.values(b)) {
                        if l.is_null() || r.is_null() {
                            continue;
                        }
                        match l.compare(r) {
                            Ok(Ordering::Less) => lt = true,
                            Ok(Ordering::Equal) => eq = true,
                            Ok(Ordering::Greater) => gt = true,
                            Err(_) => {
                                comparable = false;
                                break;
                            }
                        }
                        n += 1;
                    }
                    if !comparable || n < min_support {
                        continue;
                    }
                    let op = match (lt, eq, gt) {
                        (true, false, false) => Some(CmpOp::Lt),
                        (true, true, false) => Some(CmpOp::Le),
                        (false, true, false) => Some(CmpOp::Eq),
                        (false, true, true) => Some(CmpOp::Ge),
                        (false, false, true) => Some(CmpOp::Gt),
                        _ => None, // both < and > occur: no constraint
                    };
                    if let Some(op) = op {
                        out.push(InterObjectConstraint {
                            relationship: relationship.to_string(),
                            left: ac.attr_id(),
                            op,
                            right: bc.attr_id(),
                            support: n,
                        });
                    }
                }
            }
        }
    }
}
