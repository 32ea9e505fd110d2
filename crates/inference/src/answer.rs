//! Intensional answers: the characterizations derived by type inference
//! (paper §4), with provenance and English rendering.

use intensio_rules::range::ValueRange;
use intensio_rules::rule::AttrId;
use intensio_storage::value::Value;
use std::fmt;

/// Which way a rule was applied during inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Premise subsumed by the query: the conclusion holds for every
    /// answer (superset-sound).
    Forward,
    /// Consequence fixed by the query: the inverted premise describes a
    /// subset of the answer (subset-sound).
    Backward,
}

impl Direction {
    /// Wire name (`"forward"` / `"backward"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Forward => "forward",
            Direction::Backward => "backward",
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule application behind an intensional answer: the provenance
/// record surfaced through the protocol's `EXPLAIN` verb and the
/// shell's `\explain` command.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleUse {
    /// The rule's id within the rule set.
    pub rule_id: u32,
    /// The rule's support count (tuples it was induced from).
    pub support: usize,
    /// The inference direction it was applied in.
    pub direction: Direction,
    /// The conclusion it contributed, rendered (`CLASS.Type = SSBN`).
    pub conclusion: String,
}

impl fmt::Display for RuleUse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R{} ({}, support {}): {}",
            self.rule_id, self.direction, self.support, self.conclusion
        )
    }
}

/// A fact derived by *forward* inference: it holds for **every** tuple of
/// the extensional answer, so the characterization *contains* the answer
/// set (§4: "the intensional answers derived from forward inference
/// characterize a set of instances containing the extensional answer").
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardFact {
    /// The concluded attribute.
    pub attr: AttrId,
    /// The concluded value.
    pub value: Value,
    /// The subtype the value selects in the type hierarchy, if any.
    pub subtype: Option<String>,
    /// The rule that fired (`None` when the fact came from hierarchy
    /// traversal rather than an induced rule).
    pub rule_id: Option<u32>,
}

impl fmt::Display for ForwardFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.subtype {
            Some(s) => write!(f, "every answer isa {s} ({} = {})", self.attr, self.value),
            None => write!(f, "every answer has {} = {}", self.attr, self.value),
        }?;
        if let Some(id) = self.rule_id {
            write!(f, " [R{id}, forward]")?;
        }
        Ok(())
    }
}

/// A characterization derived by *backward* inference: instances with
/// `x` in `range` are known to satisfy `y = value`, so it describes a
/// **subset** of the extensional answer (§4: "contained in").
#[derive(Debug, Clone, PartialEq)]
pub struct BackwardCharacterization {
    /// The describing attribute.
    pub x: AttrId,
    /// Its range.
    pub range: ValueRange,
    /// The consequence attribute the query fixed.
    pub y: AttrId,
    /// The consequence value.
    pub value: Value,
    /// Subtype label of the consequence, if any.
    pub subtype: Option<String>,
    /// The rule used.
    pub rule_id: u32,
    /// Whether the characterization covers every matching instance:
    /// `Some(false)` reproduces the paper's Example 2 caveat (class 1301
    /// is SSBN but not covered by R5); `None` when completeness cannot
    /// be checked (cross-relation rules).
    pub complete: Option<bool>,
}

impl fmt::Display for BackwardCharacterization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let target = self
            .subtype
            .clone()
            .unwrap_or_else(|| format!("{} = {}", self.y, self.value));
        write!(f, "instances with {} {} are {target}", self.x, self.range)?;
        write!(f, " [R{}, backward", self.rule_id)?;
        match self.complete {
            Some(true) => write!(f, ", complete]"),
            Some(false) => write!(f, ", incomplete]"),
            None => write!(f, "]"),
        }
    }
}

/// The full intensional answer to a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntensionalAnswer {
    /// Forward conclusions (superset-sound).
    pub certain: Vec<ForwardFact>,
    /// Backward characterizations (subset-sound).
    pub partial: Vec<BackwardCharacterization>,
    /// Human-readable inference trace.
    pub steps: Vec<String>,
    /// Every rule application behind this answer, in firing order.
    pub provenance: Vec<RuleUse>,
}

impl IntensionalAnswer {
    /// Whether any inference succeeded.
    pub fn is_empty(&self) -> bool {
        self.certain.is_empty() && self.partial.is_empty()
    }

    /// The most specific forward subtype conclusions (those that are not
    /// ancestors of another conclusion are kept).
    pub fn subtypes(&self) -> Vec<&str> {
        self.certain
            .iter()
            .filter_map(|f| f.subtype.as_deref())
            .collect()
    }

    /// A single-sentence summary in the style of the paper's `A_I`
    /// answers, composing the forward conclusions with the most
    /// informative backward characterization — e.g. for Example 3:
    /// *"Every answer is a SSN; instances with SUBMARINE.Class in
    /// [0208, 0215] qualify."*
    pub fn headline(&self) -> Option<String> {
        let mut labels: Vec<String> = Vec::new();
        for f in &self.certain {
            let label = f
                .subtype
                .clone()
                .unwrap_or_else(|| format!("{} = {}", f.attr, f.value));
            if !labels.contains(&label) {
                labels.push(label);
            }
        }
        // Prefer a complete backward characterization; fall back to the
        // first one.
        let back = self
            .partial
            .iter()
            .find(|b| b.complete == Some(true))
            .or_else(|| self.partial.first());
        match (labels.is_empty(), back) {
            (true, None) => None,
            (false, None) => Some(format!("Every answer is a {}.", labels.join(" and "))),
            (true, Some(b)) => {
                let target = b
                    .subtype
                    .clone()
                    .unwrap_or_else(|| format!("{} = {}", b.y, b.value));
                Some(format!(
                    "Instances with {} {} are {target}{}.",
                    b.x,
                    b.range,
                    if b.complete == Some(false) {
                        " (not necessarily all of them)"
                    } else {
                        ""
                    }
                ))
            }
            (false, Some(b)) => Some(format!(
                "Every answer is a {}; instances with {} {} qualify{}.",
                labels.join(" and "),
                b.x,
                b.range,
                if b.complete == Some(false) {
                    " (among others)"
                } else {
                    ""
                }
            )),
        }
    }

    /// Render the answer as English sentences in the spirit of the
    /// paper's `A_I` examples, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the text of [`IntensionalAnswer::render`] to `out`.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        if self.is_empty() {
            out.push_str("No intensional characterization could be derived.");
            return;
        }
        // Writing into a `String` cannot fail.
        for f in &self.certain {
            let (object, attribute) = (&f.attr.object, &f.attr.attribute);
            let _ = match &f.subtype {
                Some(s) => write!(out, "Every answer is a {s} ({object}.{attribute} = "),
                None => write!(out, "Every answer has {object}.{attribute} = "),
            };
            f.value.write_bare(out);
            out.push_str(if f.subtype.is_some() { ")." } else { "." });
            let _ = match f.rule_id {
                Some(id) => write!(out, " [by rule R{id}, forward inference]"),
                None => out.write_str(" [by type hierarchy]"),
            };
            out.push('\n');
        }
        for b in &self.partial {
            let _ = write!(
                out,
                "Instances with {}.{} {} are ",
                b.x.object, b.x.attribute, b.range
            );
            match &b.subtype {
                Some(s) => out.push_str(s),
                None => {
                    let _ = write!(out, "{}.{} = ", b.y.object, b.y.attribute);
                    b.value.write_bare(out);
                }
            }
            let _ = write!(out, ". [by rule R{}, backward inference", b.rule_id);
            match b.complete {
                Some(true) => out.push_str("; this covers all such instances]"),
                Some(false) => out.push_str(
                    "; NOTE: this description is incomplete — other instances also qualify]",
                ),
                None => out.push(']'),
            }
            out.push('\n');
        }
    }
}
