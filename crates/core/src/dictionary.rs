//! The intelligent data dictionary (paper §5.3): frame-based schema
//! knowledge (the KER model) combined with rule-based semantic knowledge
//! (induced rules, persisted as rule relations so they relocate with the
//! database).

use crate::error::IqpError;
use intensio_ker::model::KerModel;
use intensio_ker::render;
use intensio_rules::encode::{decode, encode, RuleRelations};
use intensio_rules::rule::RuleSet;
use std::fmt;
use std::sync::Arc;

/// The knowledge base behind the inference processor.
///
/// Both halves are shared: a clone (every snapshot a write or a rule
/// install derives) copies two pointers, and a rule set installed with
/// [`DataDictionary::set_shared_rules`] is the caller's allocation.
#[derive(Debug, Clone)]
pub struct DataDictionary {
    /// Frame-based knowledge: the KER schema.
    model: Arc<KerModel>,
    /// Rule-based knowledge: induced semantic rules.
    rules: Arc<RuleSet>,
}

impl DataDictionary {
    /// A dictionary with schema knowledge only (no rules learned yet).
    pub fn new(model: KerModel) -> DataDictionary {
        DataDictionary {
            model: Arc::new(model),
            rules: Arc::new(RuleSet::new()),
        }
    }

    /// The frame-based half: the KER model.
    pub fn model(&self) -> &KerModel {
        &self.model
    }

    /// The rule-based half: the current rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The current rule set's shared handle.
    pub fn shared_rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    /// Replace the rule set (after a learning run).
    pub fn set_rules(&mut self, rules: RuleSet) {
        self.rules = Arc::new(rules);
    }

    /// Replace the rule set with a shared one, without copying it.
    pub fn set_shared_rules(&mut self, rules: Arc<RuleSet>) {
        self.rules = rules;
    }

    /// Whether semantic rules have been loaded or learned.
    pub fn has_rules(&self) -> bool {
        !self.rules.is_empty()
    }

    /// Export the rules as rule relations (§5.2.2) for relocation with
    /// the database.
    pub fn export_rule_relations(&self) -> Result<RuleRelations, IqpError> {
        encode(&self.rules).map_err(IqpError::from)
    }

    /// Load rules from rule relations (the other end of relocation).
    pub fn import_rule_relations(&mut self, rels: &RuleRelations) -> Result<(), IqpError> {
        self.rules = Arc::new(decode(rels)?);
        Ok(())
    }
}

impl fmt::Display for DataDictionary {
    /// Render the dictionary: frames (type hierarchies and object type
    /// boxes) followed by the numbered rules.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Intelligent Data Dictionary ===")?;
        f.write_str(&render::render_model(&self.model))?;
        writeln!(f, "== Semantic rules ({}) ==", self.rules.len())?;
        write!(f, "{}", self.rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_rules::rule::{AttrId, Clause, Rule};

    fn sample_rules() -> RuleSet {
        RuleSet::from_rules([Rule::new(
            0,
            vec![Clause::between(
                AttrId::new("CLASS", "Displacement"),
                7250,
                30000,
            )],
            Clause::equals(AttrId::new("CLASS", "Type"), "SSBN"),
        )
        .with_subtype("SSBN")
        .with_support(4)])
    }

    #[test]
    fn rule_relation_round_trip_through_dictionary() {
        let model = intensio_shipdb::ship_model().unwrap();
        let mut dict = DataDictionary::new(model.clone());
        assert!(!dict.has_rules());
        dict.set_rules(sample_rules());
        let exported = dict.export_rule_relations().unwrap();

        let mut other = DataDictionary::new(model);
        other.import_rule_relations(&exported).unwrap();
        assert_eq!(other.rules().len(), 1);
        assert_eq!(
            other.rules().rules()[0].rhs_subtype.as_deref(),
            Some("SSBN")
        );
    }

    #[test]
    fn clones_share_both_halves() {
        let model = intensio_shipdb::ship_model().unwrap();
        let mut dict = DataDictionary::new(model);
        let rules = Arc::new(sample_rules());
        dict.set_shared_rules(Arc::clone(&rules));
        let copy = dict.clone();
        assert!(Arc::ptr_eq(copy.shared_rules(), &rules));
        assert!(std::ptr::eq(copy.model(), dict.model()));
        dict.set_rules(RuleSet::new());
        assert_eq!(copy.rules().len(), 1, "a replaced set leaves clones alone");
    }

    #[test]
    fn display_shows_frames_and_rules() {
        let model = intensio_shipdb::ship_model().unwrap();
        let mut dict = DataDictionary::new(model);
        dict.set_rules(sample_rules());
        let text = dict.to_string();
        assert!(text.contains("Intelligent Data Dictionary"));
        assert!(text.contains("object type CLASS"));
        assert!(text.contains("Semantic rules (1)"));
        assert!(text.contains("then x isa SSBN"));
    }
}
