//! Aggregate responses over the type hierarchy.
//!
//! The paper positions type hierarchies as usable "to provide an
//! aggregate response to queries" ([SHUM88]) — the summarized answers
//! its introduction motivates. This module implements that companion
//! capability: given an extensional answer, produce a per-hierarchy
//! distribution ("4 ships: all SSN; by class: 0208 ×1, 0209 ×1, ...")
//! by grouping on every classifying attribute present in the answer's
//! schema.

use intensio_ker::model::{subtype_label_among, KerModel};
use intensio_sql::Selection;
use intensio_storage::relation::Relation;
use intensio_storage::schema::Schema;
use intensio_storage::value::{Value, ValueRef};
use std::collections::BTreeMap;
use std::fmt;

/// One group of an answer summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryGroup {
    /// The grouping value.
    pub value: Value,
    /// The subtype the value selects, if the hierarchy declares one.
    pub subtype: Option<String>,
    /// Number of answer tuples in the group.
    pub count: usize,
}

/// A summary level: the distribution of one classifying attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryLevel {
    /// The classifying attribute (as named in the answer schema).
    pub attribute: String,
    /// The groups, largest first.
    pub groups: Vec<SummaryGroup>,
}

impl SummaryLevel {
    /// Whether every answer tuple falls in a single group.
    pub fn is_uniform(&self) -> bool {
        self.groups.len() == 1
    }
}

/// An aggregate response: total count plus one level per classifying
/// attribute found in the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSummary {
    /// Total answer tuples.
    pub total: usize,
    /// Hierarchy levels present in the answer.
    pub levels: Vec<SummaryLevel>,
}

impl AnswerSummary {
    /// Whether any hierarchy level was found.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

impl fmt::Display for AnswerSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} answers", self.total)?;
        for level in &self.levels {
            write!(f, "  by {}: ", level.attribute)?;
            if level.is_uniform() && self.total > 0 {
                let g = &level.groups[0];
                let label = g.subtype.clone().unwrap_or_else(|| g.value.render_bare());
                writeln!(f, "all {label}")?;
                continue;
            }
            let parts: Vec<String> = level
                .groups
                .iter()
                .map(|g| {
                    let label = g.subtype.clone().unwrap_or_else(|| g.value.render_bare());
                    format!("{label} ×{}", g.count)
                })
                .collect();
            writeln!(f, "{}", parts.join(", "))?;
        }
        Ok(())
    }
}

/// Summarize an answer relation over the model's type hierarchies.
///
/// ```
/// let db = intensio_shipdb::ship_database().unwrap();
/// let model = intensio_shipdb::ship_model().unwrap();
/// let answer = intensio_sql::query(&db, "SELECT Class, Type FROM CLASS").unwrap();
/// let s = intensio_core::summarize(&answer, &model);
/// assert_eq!(s.total, 13);
/// assert!(s.to_string().contains("by Type"));
/// ```
///
/// Every answer column whose name matches a classifying attribute of
/// some hierarchy becomes a summary level. Column names produced by the
/// SQL executor may be alias-prefixed (`c.Type`); the suffix after the
/// last `.` is matched.
pub fn summarize(rel: &Relation, model: &KerModel) -> AnswerSummary {
    summarize_columns(rel.schema(), rel.len(), model, |c| {
        rel.iter().map(move |t| t.get(c))
    })
}

/// [`summarize`] over a [`Selection`]'s rows, read in place.
pub fn summarize_selection(sel: &Selection, model: &KerModel) -> AnswerSummary {
    summarize_columns(sel.schema(), sel.len(), model, |c| sel.column(c))
}

/// Count each classifying column's values, borrowed from the answer:
/// `column(c)` yields column `c` of every one of the `total` rows.
fn summarize_columns<'v, I: Iterator<Item = &'v Value>>(
    schema: &Schema,
    total: usize,
    model: &KerModel,
    column: impl Fn(usize) -> I,
) -> AnswerSummary {
    let classifiers = model.classifier_list();
    let mut levels = Vec::new();
    for (idx, attr) in schema.attributes().iter().enumerate() {
        let base_name = attr.name().rsplit('.').next().unwrap_or(attr.name());
        if !classifiers
            .iter()
            .any(|c| c.attribute.eq_ignore_ascii_case(base_name))
        {
            continue;
        }
        // Rows follow base-row order, so equal values mostly arrive in
        // runs: count a run, then add it to its group once. The group
        // keeps the first value of its first run.
        let mut counts: BTreeMap<ValueRef<'_>, usize> = BTreeMap::new();
        let mut run: Option<(ValueRef<'_>, usize)> = None;
        for v in column(idx).map(ValueRef) {
            match &mut run {
                Some((first, n)) if *first == v => *n += 1,
                _ => {
                    if let Some((first, n)) = run.replace((v, 1)) {
                        *counts.entry(first).or_insert(0) += n;
                    }
                }
            }
        }
        if let Some((first, n)) = run {
            *counts.entry(first).or_insert(0) += n;
        }
        let mut groups: Vec<SummaryGroup> = counts
            .into_iter()
            .map(|(v, count)| SummaryGroup {
                subtype: subtype_label_among(classifiers, base_name, v.0),
                value: v.0.clone(),
                count,
            })
            .collect();
        groups.sort_by(|a, b| b.count.cmp(&a.count).then(a.value.total_cmp(&b.value)));
        levels.push(SummaryLevel {
            attribute: attr.name().to_string(),
            groups,
        });
    }
    AnswerSummary { total, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntensionalQueryProcessor;

    fn system() -> IntensionalQueryProcessor {
        IntensionalQueryProcessor::new(
            intensio_shipdb::ship_database().unwrap(),
            intensio_shipdb::ship_model().unwrap(),
        )
    }

    #[test]
    fn example3_summary_is_uniform_in_type() {
        let iqp = system();
        let r = iqp
            .query_extensional(
                "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE \
                 FROM SUBMARINE, CLASS, INSTALL \
                 WHERE SUBMARINE.CLASS = CLASS.CLASS \
                 AND SUBMARINE.ID = INSTALL.SHIP AND INSTALL.SONAR = \"BQS-04\"",
            )
            .unwrap();
        let s = summarize(&r, iqp.dictionary().model());
        assert_eq!(s.total, 4);
        // Two classifier columns matched: CLASS (SUBMARINE.Class) and TYPE.
        assert_eq!(s.levels.len(), 2);
        let type_level = s
            .levels
            .iter()
            .find(|l| l.attribute.eq_ignore_ascii_case("type"))
            .unwrap();
        assert!(type_level.is_uniform());
        assert_eq!(type_level.groups[0].subtype.as_deref(), Some("SSN"));
        let class_level = s
            .levels
            .iter()
            .find(|l| l.attribute.to_ascii_lowercase().contains("class"))
            .unwrap();
        assert_eq!(class_level.groups.len(), 4, "four distinct classes");
        let text = s.to_string();
        assert!(text.contains("all SSN"), "{text}");
    }

    #[test]
    fn mixed_answer_lists_distribution() {
        let iqp = system();
        let r = iqp
            .query_extensional("SELECT Class, Type FROM CLASS WHERE Displacement > 6000")
            .unwrap();
        let s = summarize(&r, iqp.dictionary().model());
        let type_level = s
            .levels
            .iter()
            .find(|l| l.attribute.eq_ignore_ascii_case("type"))
            .unwrap();
        assert!(!type_level.is_uniform());
        // Largest group first.
        assert!(type_level.groups[0].count >= type_level.groups[1].count);
    }

    #[test]
    fn no_classifier_columns_gives_empty_summary() {
        let iqp = system();
        let r = iqp.query_extensional("SELECT Name FROM SUBMARINE").unwrap();
        let s = summarize(&r, iqp.dictionary().model());
        assert!(s.is_empty());
        assert_eq!(s.total, 24);
    }
}
