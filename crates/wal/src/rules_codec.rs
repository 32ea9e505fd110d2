//! Serializing rule sets for WAL records.
//!
//! A rule-set install is logged as the paper's §5.2.2 *rule relations*
//! (`RULES`, `ATTRVALUEMAP`, `ATTRCATALOG`, `RULEMETA`), rendered as
//! CSV sections inside one record body:
//!
//! ```text
//! %intensio-rules v1
//! %relation RULES
//! RuleNo,Role,Lvalue,Att_no,Uvalue
//! ...
//! %relation ATTRVALUEMAP
//! ...
//! ```
//!
//! The same encoding the paper uses to relocate rules with their
//! database thus also carries them across a crash.

use crate::WalError;
use intensio_rules::encode::{decode, encode, RuleRelations};
use intensio_rules::rule::RuleSet;
use intensio_storage::csv::{from_csv, write_csv};

const HEADER: &str = "%intensio-rules v1";
const SECTION: &str = "%relation ";

/// Encode a rule set as a sectioned-CSV record body.
///
/// Fails when a rule clause has no closed-range representation (the
/// paper's storable clause form); callers should treat that rule set as
/// unloggable and fall back to re-induction on recovery.
pub fn rules_to_bytes(rules: &RuleSet) -> Result<Vec<u8>, WalError> {
    let rels = encode(rules).map_err(|e| WalError(format!("encoding rule set: {e}")))?;
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (name, rel) in rels.named() {
        out.push_str(SECTION);
        out.push_str(name);
        out.push('\n');
        write_csv(rel, &mut out);
    }
    Ok(out.into_bytes())
}

/// Decode a record body written by [`rules_to_bytes`].
pub fn rules_from_bytes(bytes: &[u8]) -> Result<RuleSet, WalError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| WalError("rule-set record body is not UTF-8".to_string()))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err(WalError("rule-set record missing header".to_string()));
    }
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some(name) = line.strip_prefix(SECTION) {
            sections.push((name.trim().to_string(), String::new()));
        } else {
            let Some((_, body)) = sections.last_mut() else {
                return Err(WalError(
                    "rule-set CSV outside any %relation section".to_string(),
                ));
            };
            body.push_str(line);
            body.push('\n');
        }
    }
    let empty = RuleRelations::empty();
    let mut rels = RuleRelations::empty();
    for (name, body) in &sections {
        let template = empty
            .named()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, rel)| rel.schema().clone())
            .ok_or_else(|| WalError(format!("unknown rule relation {name:?}")))?;
        let parsed = from_csv(name, template, body)
            .map_err(|e| WalError(format!("parsing rule relation {name}: {e}")))?;
        match name.as_str() {
            "RULES" => rels.rules = parsed,
            "ATTRVALUEMAP" => rels.value_map = parsed,
            "ATTRCATALOG" => rels.attr_catalog = parsed,
            "RULEMETA" => rels.meta = parsed,
            _ => unreachable!("matched against named() above"),
        }
    }
    if sections.len() != 4 {
        return Err(WalError(format!(
            "rule-set record has {} sections, expected 4",
            sections.len()
        )));
    }
    decode(&rels).map_err(|e| WalError(format!("decoding rule set: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_rules::rule::{AttrId, Clause, Rule};

    fn sample_rules() -> RuleSet {
        let disp = AttrId::new("CLASS", "Displacement");
        let ty = AttrId::new("CLASS", "Type");
        RuleSet::from_rules([
            Rule::new(
                1,
                vec![Clause::between(disp.clone(), 7250, 30000)],
                Clause::equals(ty.clone(), "SSBN"),
            )
            .with_subtype("SSBN")
            .with_support(4),
            Rule::new(
                2,
                vec![Clause::between(disp, 220, 7000)],
                Clause::equals(ty, "SSN"),
            )
            .with_support(13),
        ])
    }

    #[test]
    fn round_trips() {
        let rules = sample_rules();
        let bytes = rules_to_bytes(&rules).unwrap();
        let back = rules_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), rules.len());
        assert_eq!(back.get(1).unwrap().support, 4);
        assert_eq!(back.get(1).unwrap().rhs_subtype.as_deref(), Some("SSBN"));
        assert_eq!(back.get(2).unwrap().support, 13);
        assert_eq!(back.get(2).unwrap().lhs, rules.get(2).unwrap().lhs);
    }

    #[test]
    fn empty_rule_set_round_trips() {
        let bytes = rules_to_bytes(&RuleSet::new()).unwrap();
        assert!(rules_from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(rules_from_bytes(b"not a rule set").is_err());
        assert!(rules_from_bytes(&[0xFF, 0xFE]).is_err());
        let valid = rules_to_bytes(&sample_rules()).unwrap();
        let truncated = &valid[..valid.len() / 2];
        assert!(
            rules_from_bytes(truncated).is_err(),
            "a truncated body must not decode"
        );
    }
}
