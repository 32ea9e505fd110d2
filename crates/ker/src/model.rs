//! The resolved KER model: object types, domains, and type hierarchies
//! with inheritance and derivation specifications.
//!
//! This is the *frame-based* half of the paper's intelligent data
//! dictionary (§5.3): each object type is a frame; the object hierarchy
//! is a hierarchy of frames. The rule-based half (induced semantic
//! rules) lives in `intensio-rules`.

use crate::ast::*;
use intensio_storage::domain::Domain;
use intensio_storage::schema::{Attribute, Schema};
use intensio_storage::value::{Value, ValueType};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;

/// An error while resolving a KER schema into a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError(pub String);

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KER model error: {}", self.0)
    }
}

impl std::error::Error for ModelError {}

fn err(msg: impl Into<String>) -> ModelError {
    ModelError(msg.into())
}

/// A resolved object type (a frame in the data dictionary).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectType {
    /// The declared name.
    pub name: String,
    /// Attributes declared directly on this type.
    pub declared_attrs: Vec<Attribute>,
    /// Constraints attached to this type (`with` block), in AST form.
    pub constraints: Vec<ConstraintAst>,
    /// The supertype, if this type appears in an `isa`/`contains`.
    pub parent: Option<String>,
    /// Direct subtypes.
    pub children: Vec<String>,
    /// Derivation specification: clauses over the supertype's attributes
    /// that characterize membership (`SSBN isa SUBMARINE with
    /// ShipType = "SSBN"`).
    pub derivation: Vec<ClauseAst>,
}

/// A classifying attribute for a type hierarchy: the attribute whose
/// value determines which subtype an instance belongs to, with the
/// value → subtype mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Classifier {
    /// The partitioning attribute (e.g. `Type` for the CLASS hierarchy).
    pub attribute: String,
    /// `(value, subtype name)` pairs, one per subtype.
    pub mapping: Vec<(Value, String)>,
}

impl Classifier {
    /// The subtype whose derivation value equals `v`.
    pub fn subtype_for(&self, v: &Value) -> Option<&str> {
        self.mapping
            .iter()
            .find(|(val, _)| val.sem_eq(v))
            .map(|(_, name)| name.as_str())
    }

    /// The derivation value for a subtype.
    pub fn value_for(&self, subtype: &str) -> Option<&Value> {
        self.mapping
            .iter()
            .find(|(_, name)| name.eq_ignore_ascii_case(subtype))
            .map(|(v, _)| v)
    }
}

/// The resolved KER model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KerModel {
    domains: HashMap<String, Domain>,
    types: BTreeMap<String, ObjectType>,
    /// Preserves declaration order of object types for rendering.
    type_order: Vec<String>,
    /// [`KerModel::classifier_list`], built on first use.
    classifiers: ClassifierCache,
}

/// A model's classifier list, built once. It is derived from the
/// model's types, so it takes no part in equality; a model is not
/// changed after [`KerModel::from_schema`] returns, so it never goes
/// stale.
#[derive(Debug, Clone, Default)]
struct ClassifierCache(OnceLock<Vec<Classifier>>);

impl PartialEq for ClassifierCache {
    fn eq(&self, _: &ClassifierCache) -> bool {
        true
    }
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl KerModel {
    /// Build a model from a parsed schema.
    pub fn from_schema(schema: &KerSchema) -> Result<KerModel, ModelError> {
        let mut model = KerModel::default();

        // Pass 1: domains (in order; bases must be defined earlier or be
        // standard).
        for d in schema.domains() {
            let dom = model.resolve_domain_def(d)?;
            model.domains.insert(key(&d.name), dom);
        }

        // Pass 2: declare object types (attributes resolved in pass 3 so
        // object-valued attributes can reference later types).
        for ot in schema.object_types() {
            if model.types.contains_key(&key(&ot.name)) {
                return Err(err(format!("duplicate object type: {}", ot.name)));
            }
            model.type_order.push(ot.name.clone());
            model.types.insert(
                key(&ot.name),
                ObjectType {
                    name: ot.name.clone(),
                    declared_attrs: Vec::new(),
                    constraints: ot.constraints.clone(),
                    parent: None,
                    children: Vec::new(),
                    derivation: Vec::new(),
                },
            );
        }

        // Pass 3: hierarchy edges, creating implicit subtypes.
        for c in schema.contains_defs() {
            if !model.types.contains_key(&key(&c.supertype)) {
                return Err(err(format!(
                    "`contains` on undeclared type: {}",
                    c.supertype
                )));
            }
            for sub in &c.subtypes {
                model.ensure_type(sub);
                model.link(sub, &c.supertype)?;
            }
            let sup = model
                .types
                .get_mut(&key(&c.supertype))
                .expect("checked above");
            sup.constraints.extend(c.constraints.iter().cloned());
            if !c.attrs.is_empty() {
                // Attributes listed on the hierarchy belong to the
                // supertype level.
                let resolved = Self::placeholder_attrs(&c.attrs);
                sup.declared_attrs.extend(resolved);
            }
        }
        for i in schema.isa_defs() {
            if !model.types.contains_key(&key(&i.supertype)) {
                return Err(err(format!("`isa` on undeclared type: {}", i.supertype)));
            }
            model.ensure_type(&i.subtype);
            model.link(&i.subtype, &i.supertype)?;
            let sub = model
                .types
                .get_mut(&key(&i.subtype))
                .expect("ensured above");
            sub.derivation = i.derivation.clone();
        }

        // Pass 4: resolve declared attributes now that all types exist.
        for ot in schema.object_types() {
            let mut resolved = Vec::with_capacity(ot.attrs.len());
            for a in &ot.attrs {
                resolved.push(model.resolve_attribute(a)?);
            }
            model
                .types
                .get_mut(&key(&ot.name))
                .expect("declared in pass 2")
                .declared_attrs = resolved;
        }

        // Pass 5: coerce rule constants to their attributes' types, and
        // check for hierarchy cycles.
        model.check_acyclic()?;
        model.coerce_constraint_values();
        Ok(model)
    }

    /// Parse and resolve in one step.
    pub fn parse(src: &str) -> Result<KerModel, ModelError> {
        let schema = crate::parser::parse(src).map_err(|e| err(e.to_string()))?;
        Self::from_schema(&schema)
    }

    fn ensure_type(&mut self, name: &str) {
        if !self.types.contains_key(&key(name)) {
            self.type_order.push(name.to_string());
            self.types.insert(
                key(name),
                ObjectType {
                    name: name.to_string(),
                    declared_attrs: Vec::new(),
                    constraints: Vec::new(),
                    parent: None,
                    children: Vec::new(),
                    derivation: Vec::new(),
                },
            );
        }
    }

    fn link(&mut self, child: &str, parent: &str) -> Result<(), ModelError> {
        {
            let c = self
                .types
                .get_mut(&key(child))
                .ok_or_else(|| err(format!("unknown type {child}")))?;
            match &c.parent {
                Some(p) if !p.eq_ignore_ascii_case(parent) => {
                    return Err(err(format!(
                        "type {child} has two supertypes: {p} and {parent}"
                    )));
                }
                _ => c.parent = Some(parent.to_string()),
            }
        }
        let p = self
            .types
            .get_mut(&key(parent))
            .ok_or_else(|| err(format!("unknown type {parent}")))?;
        if !p.children.iter().any(|c| c.eq_ignore_ascii_case(child)) {
            p.children.push(child.to_string());
        }
        Ok(())
    }

    fn check_acyclic(&self) -> Result<(), ModelError> {
        for name in self.types.keys() {
            let mut seen = vec![name.clone()];
            let mut cur = name.clone();
            while let Some(parent) = self.types.get(&cur).and_then(|t| t.parent.clone()) {
                let pk = key(&parent);
                if seen.contains(&pk) {
                    return Err(err(format!("hierarchy cycle through {parent}")));
                }
                seen.push(pk.clone());
                cur = pk;
            }
        }
        Ok(())
    }

    fn resolve_domain_def(&self, d: &DomainDef) -> Result<Domain, ModelError> {
        let base = match &d.base {
            DomainBase::Standard(t) => Domain::basic(*t).derive(&d.name),
            DomainBase::CharN(n) => Domain::char_n(*n).derive(&d.name),
            DomainBase::Named(n) => self
                .lookup_domain(n)
                .ok_or_else(|| err(format!("domain {} references unknown domain {n}", d.name)))?
                .derive(&d.name),
        };
        Ok(match &d.spec {
            None => base,
            Some(spec) => base.with_constraint(spec_to_constraint(spec)),
        })
    }

    /// Look up a domain by name: user-defined, `char[n]`, or standard.
    pub fn lookup_domain(&self, name: &str) -> Option<Domain> {
        if let Some(d) = self.domains.get(&key(name)) {
            return Some(d.clone());
        }
        if let Some(n) = parse_char_n(name) {
            return Some(Domain::char_n(n));
        }
        ValueType::from_keyword(name).map(Domain::basic)
    }

    fn resolve_attribute(&self, a: &AttributeDef) -> Result<Attribute, ModelError> {
        let domain = if let Some(d) = self.lookup_domain(&a.domain) {
            d
        } else if let Some(target) = self.types.get(&key(&a.domain)) {
            // Object-valued attribute: adopt the target type's key domain
            // (the paper's INSTALL has `Ship domain: SUBMARINE`).
            target
                .declared_attrs
                .iter()
                .find(|ka| ka.is_key())
                .map(|ka| ka.domain().clone())
                .unwrap_or_else(|| Domain::basic(ValueType::Str))
                .derive(&target.name)
        } else {
            return Err(err(format!(
                "attribute {} has unknown domain {}",
                a.name, a.domain
            )));
        };
        Ok(if a.key {
            Attribute::key(&a.name, domain)
        } else {
            Attribute::new(&a.name, domain)
        })
    }

    fn placeholder_attrs(attrs: &[AttributeDef]) -> Vec<Attribute> {
        attrs
            .iter()
            .map(|a| {
                let d = Domain::basic(ValueType::Str);
                if a.key {
                    Attribute::key(&a.name, d)
                } else {
                    Attribute::new(&a.name, d)
                }
            })
            .collect()
    }

    /// Coerce rule/derivation constants to the types of the attributes
    /// they constrain (class codes written as `0101` become strings when
    /// the attribute is a char domain, and vice versa).
    fn coerce_constraint_values(&mut self) {
        // Collect attribute types per object type (including inherited).
        let mut attr_types: HashMap<String, HashMap<String, ValueType>> = HashMap::new();
        let names: Vec<String> = self.types.keys().cloned().collect();
        for tkey in &names {
            let t = &self.types[tkey];
            let mut map = HashMap::new();
            for a in self.all_attributes_of(&t.name) {
                map.insert(key(a.name()), a.value_type());
            }
            attr_types.insert(tkey.clone(), map);
        }

        for tkey in &names {
            let lookup = |roles: &[RoleDef], attr: &AttrPath| -> Option<ValueType> {
                // Qualified by a role variable: use the role's type.
                if let Some(q) = &attr.qualifier {
                    if let Some(role) = roles.iter().find(|r| r.var.eq_ignore_ascii_case(q)) {
                        return attr_types
                            .get(&key(&role.type_name))
                            .and_then(|m| m.get(&key(&attr.name)))
                            .copied();
                    }
                    // Qualified by a type name directly.
                    return attr_types
                        .get(&key(q))
                        .and_then(|m| m.get(&key(&attr.name)))
                        .copied();
                }
                attr_types
                    .get(tkey)
                    .and_then(|m| m.get(&key(&attr.name)))
                    .copied()
            };

            let t = self.types.get_mut(tkey).expect("iterating keys");
            for c in &mut t.constraints {
                if let ConstraintAst::Rule {
                    roles,
                    premise,
                    consequence,
                } = c
                {
                    for cl in premise.iter_mut() {
                        if let Some(ty) = lookup(roles, &cl.attr) {
                            if let Some(v) = coerce_value(&cl.value, ty) {
                                cl.value = v;
                            }
                        }
                    }
                    if let ConsequenceAst::Clause(cl) = consequence {
                        if let Some(ty) = lookup(roles, &cl.attr) {
                            if let Some(v) = coerce_value(&cl.value, ty) {
                                cl.value = v;
                            }
                        }
                    }
                }
            }
            // Derivations are over the supertype's attributes.
            let parent_key = t.parent.as_deref().map(key);
            let t = self.types.get_mut(tkey).expect("iterating keys");
            for cl in t.derivation.iter_mut() {
                if let Some(pk) = &parent_key {
                    if let Some(ty) = attr_types.get(pk).and_then(|m| m.get(&key(&cl.attr.name))) {
                        if let Some(v) = coerce_value(&cl.value, *ty) {
                            cl.value = v;
                        }
                    }
                }
            }
        }
    }

    // ---- queries ----------------------------------------------------

    /// Look up an object type by name.
    pub fn object_type(&self, name: &str) -> Option<&ObjectType> {
        self.types.get(&key(name))
    }

    /// All object type names, in declaration order.
    pub fn type_names(&self) -> &[String] {
        &self.type_order
    }

    /// Whether a type is declared.
    pub fn contains_type(&self, name: &str) -> bool {
        self.types.contains_key(&key(name))
    }

    /// The attributes of a type, inherited then declared (a subtype
    /// inherits all properties of its supertypes unless redefined, §2).
    pub fn all_attributes_of(&self, name: &str) -> Vec<Attribute> {
        let mut chain: Vec<&ObjectType> = Vec::new();
        let mut cur = self.object_type(name);
        while let Some(t) = cur {
            chain.push(t);
            cur = t.parent.as_deref().and_then(|p| self.object_type(p));
        }
        // Supertype attributes first, subtype redefinitions override.
        let mut attrs: Vec<Attribute> = Vec::new();
        for t in chain.iter().rev() {
            for a in &t.declared_attrs {
                if let Some(existing) = attrs
                    .iter_mut()
                    .find(|x| x.name().eq_ignore_ascii_case(a.name()))
                {
                    *existing = a.clone();
                } else {
                    attrs.push(a.clone());
                }
            }
        }
        attrs
    }

    /// A storage schema for instances of a type.
    pub fn schema_for(&self, name: &str) -> Result<Schema, ModelError> {
        let attrs = self.all_attributes_of(name);
        if attrs.is_empty() {
            return Err(err(format!("type {name} has no attributes")));
        }
        Schema::new(attrs).map_err(|e| err(e.to_string()))
    }

    /// Direct parent of a type.
    pub fn parent_of(&self, name: &str) -> Option<&str> {
        self.object_type(name)?.parent.as_deref()
    }

    /// All ancestors, nearest first.
    pub fn ancestors_of(&self, name: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = self.parent_of(name);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent_of(p);
        }
        out
    }

    /// All descendants (preorder).
    pub fn descendants_of(&self, name: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack: Vec<&str> = match self.object_type(name) {
            Some(t) => t.children.iter().map(String::as_str).collect(),
            None => return out,
        };
        stack.reverse();
        while let Some(c) = stack.pop() {
            out.push(c);
            if let Some(t) = self.object_type(c) {
                for ch in t.children.iter().rev() {
                    stack.push(ch);
                }
            }
        }
        out
    }

    /// Whether `sub` is a (transitive) subtype of `sup`.
    pub fn is_subtype_of(&self, sub: &str, sup: &str) -> bool {
        if sub.eq_ignore_ascii_case(sup) {
            return true;
        }
        self.ancestors_of(sub)
            .iter()
            .any(|a| a.eq_ignore_ascii_case(sup))
    }

    /// Root types (no parent).
    pub fn roots(&self) -> Vec<&str> {
        self.type_order
            .iter()
            .filter(|n| self.parent_of(n).is_none())
            .map(String::as_str)
            .collect()
    }

    /// The classifying attribute of a type's direct subtypes, if every
    /// subtype's derivation is a single equality on the same attribute
    /// (e.g. `Type` partitions CLASS into SSBN and SSN).
    pub fn classifier_of(&self, name: &str) -> Option<Classifier> {
        let t = self.object_type(name)?;
        if t.children.is_empty() {
            return None;
        }
        let mut attribute: Option<String> = None;
        let mut mapping = Vec::with_capacity(t.children.len());
        for child in &t.children {
            let c = self.object_type(child)?;
            let [clause] = c.derivation.as_slice() else {
                return None;
            };
            if clause.op != intensio_storage::expr::CmpOp::Eq {
                return None;
            }
            match &attribute {
                None => attribute = Some(clause.attr.name.clone()),
                Some(a) if a.eq_ignore_ascii_case(&clause.attr.name) => {}
                Some(_) => return None,
            }
            mapping.push((clause.value.clone(), c.name.clone()));
        }
        Some(Classifier {
            attribute: attribute?,
            mapping,
        })
    }

    /// Every classifier in the model: `(parent type name, classifier)`
    /// pairs for each hierarchy level whose subtypes are derived by a
    /// shared attribute equality.
    pub fn classifiers(&self) -> Vec<(&str, Classifier)> {
        self.type_order
            .iter()
            .filter_map(|name| self.classifier_of(name).map(|c| (name.as_str(), c)))
            .collect()
    }

    /// The classifiers of [`KerModel::classifiers`], in the same order,
    /// without their parent names, for labelling any number of values
    /// with [`subtype_label_among`]. Built on the first call; later
    /// calls borrow the same list.
    pub fn classifier_list(&self) -> &[Classifier] {
        self.classifiers
            .0
            .get_or_init(|| self.classifiers().into_iter().map(|(_, c)| c).collect())
    }

    /// The subtype selected by `attribute = value` in *any* hierarchy
    /// whose classifier uses that attribute name. Classifying attribute
    /// names are assumed unique across the schema (true of the paper's
    /// test bed: `Type`, `Class`, `SonarType`); when several hierarchies
    /// share the attribute name, the first declared match wins.
    pub fn subtype_label_for(&self, attribute: &str, value: &Value) -> Option<String> {
        subtype_label_among(self.classifier_list(), attribute, value)
    }

    /// The derivation clause(s) characterizing a subtype, if any.
    pub fn derivation_of(&self, subtype: &str) -> Option<&[ClauseAst]> {
        self.object_type(subtype).map(|t| t.derivation.as_slice())
    }

    /// The subtype of `parent` selected by `attr = value`, if the
    /// hierarchy has a classifier on `attr`.
    pub fn subtype_for_value(&self, parent: &str, attr: &str, value: &Value) -> Option<&str> {
        let c = self.classifier_of(parent)?;
        if !c.attribute.eq_ignore_ascii_case(attr) {
            return None;
        }
        let name = c.subtype_for(value)?;
        // Return the canonical name owned by the model.
        self.object_type(name).map(|t| {
            // Safety: classifier names come from `children`, which exist.
            let t: &ObjectType = t;
            t.name.as_str()
        })
    }
}

/// The subtype selected by `attribute = value` among `classifiers`, in
/// the order [`KerModel::classifiers`] declares them: the first one on
/// that attribute that maps the value wins.
pub fn subtype_label_among(
    classifiers: &[Classifier],
    attribute: &str,
    value: &Value,
) -> Option<String> {
    classifiers
        .iter()
        .filter(|c| c.attribute.eq_ignore_ascii_case(attribute))
        .find_map(|c| c.subtype_for(value))
        .map(str::to_string)
}

fn parse_char_n(name: &str) -> Option<usize> {
    let lower = name.to_ascii_lowercase();
    let rest = lower.strip_prefix("char[")?;
    let n = rest.strip_suffix(']')?;
    n.parse().ok()
}

fn spec_to_constraint(spec: &DomainSpec) -> intensio_storage::domain::DomainConstraint {
    use intensio_storage::domain::{Bound, DomainConstraint};
    match spec {
        DomainSpec::Range {
            lo,
            lo_inclusive,
            hi,
            hi_inclusive,
        } => DomainConstraint::Range {
            lo: lo.clone(),
            lo_bound: if *lo_inclusive {
                Bound::Inclusive
            } else {
                Bound::Exclusive
            },
            hi: hi.clone(),
            hi_bound: if *hi_inclusive {
                Bound::Inclusive
            } else {
                Bound::Exclusive
            },
        },
        DomainSpec::Set(vs) => DomainConstraint::Set(vs.clone()),
    }
}

/// Coerce a constant to an attribute's basic type, preserving meaning:
/// numbers render to strings, numeric strings parse to numbers. Returns
/// `None` when no sensible coercion exists (callers keep the original).
pub fn coerce_value(v: &Value, ty: ValueType) -> Option<Value> {
    match (v, ty) {
        (Value::Int(_), ValueType::Int)
        | (Value::Real(_), ValueType::Real)
        | (Value::Str(_), ValueType::Str)
        | (Value::Date(_), ValueType::Date) => Some(v.clone()),
        (Value::Int(i), ValueType::Real) => Some(Value::Real(*i as f64)),
        (Value::Real(r), ValueType::Int) if r.fract() == 0.0 => Some(Value::Int(*r as i64)),
        (Value::Int(i), ValueType::Str) => Some(Value::Str(i.to_string())),
        (Value::Real(r), ValueType::Str) => Some(Value::Str(r.to_string())),
        (Value::Str(s), ValueType::Int) => s.trim().parse::<i64>().ok().map(Value::Int),
        (Value::Str(s), ValueType::Real) => s.trim().parse::<f64>().ok().map(Value::Real),
        (Value::Str(s), ValueType::Date) => s.trim().parse().ok().map(Value::Date),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SHIP_SRC: &str = r#"
        domain: NAME isa CHAR[20]
        domain: SHIP_NAME isa NAME

        object type CLASS
          has key: Class domain: CHAR[4]
          has: ClassName domain: NAME
          has: Type domain: CHAR[4]
          has: Displacement domain: INTEGER
        with /* x isa CLASS */
          if 2145 <= x.Displacement <= 6955 then x isa SSN
          if 7250 <= x.Displacement <= 30000 then x isa SSBN

        CLASS contains SSBN, SSN

        SSBN isa CLASS with Type = "SSBN"
        SSN isa CLASS with Type = "SSN"

        object type SUBMARINE
          has key: Id domain: CHAR[7]
          has: Name domain: SHIP_NAME
          has: Class domain: class
    "#;

    fn model() -> KerModel {
        KerModel::from_schema(&parse(SHIP_SRC).unwrap()).unwrap()
    }

    #[test]
    fn resolves_domains_and_attributes() {
        let m = model();
        let class = m.object_type("CLASS").unwrap();
        assert_eq!(class.declared_attrs.len(), 4);
        assert!(class.declared_attrs[0].is_key());
        // SHIP_NAME chases NAME chases CHAR[20].
        let sub = m.object_type("SUBMARINE").unwrap();
        assert_eq!(sub.declared_attrs[1].value_type(), ValueType::Str);
        // Object-valued attribute Class adopts CLASS's key domain.
        assert_eq!(sub.declared_attrs[2].value_type(), ValueType::Str);
    }

    #[test]
    fn hierarchy_links() {
        let m = model();
        assert_eq!(m.parent_of("SSBN"), Some("CLASS"));
        assert_eq!(
            m.object_type("CLASS").unwrap().children,
            vec!["SSBN", "SSN"]
        );
        assert!(m.is_subtype_of("SSBN", "CLASS"));
        assert!(!m.is_subtype_of("CLASS", "SSBN"));
        assert!(m.is_subtype_of("CLASS", "CLASS"));
        assert_eq!(m.ancestors_of("SSBN"), vec!["CLASS"]);
        assert_eq!(m.descendants_of("CLASS"), vec!["SSBN", "SSN"]);
    }

    #[test]
    fn subtypes_inherit_attributes() {
        let m = model();
        let attrs = m.all_attributes_of("SSBN");
        assert_eq!(attrs.len(), 4, "SSBN inherits all CLASS attributes");
        assert_eq!(attrs[0].name(), "Class");
    }

    #[test]
    fn classifier_detected() {
        let m = model();
        let c = m.classifier_of("CLASS").unwrap();
        assert_eq!(c.attribute, "Type");
        assert_eq!(c.subtype_for(&Value::str("SSBN")), Some("SSBN"));
        assert_eq!(c.value_for("SSN"), Some(&Value::str("SSN")));
        assert_eq!(
            m.subtype_for_value("CLASS", "Type", &Value::str("SSN")),
            Some("SSN")
        );
        assert_eq!(
            m.subtype_for_value("CLASS", "Displacement", &Value::Int(5)),
            None
        );
    }

    #[test]
    fn roots_listed() {
        let m = model();
        assert_eq!(m.roots(), vec!["CLASS", "SUBMARINE"]);
    }

    #[test]
    fn cycle_detected() {
        let src = "object type A has key: X domain: integer\nA isa B\nB isa A";
        let schema = parse(src).unwrap();
        assert!(KerModel::from_schema(&schema).is_err());
    }

    #[test]
    fn two_parents_rejected() {
        let src = "\
            object type A has key: X domain: integer\n\
            object type B has key: X domain: integer\n\
            C isa A\nC isa B";
        let schema = parse(src).unwrap();
        assert!(KerModel::from_schema(&schema).is_err());
    }

    #[test]
    fn unknown_domain_rejected() {
        let src = "object type A has key: X domain: NOPE";
        let schema = parse(src).unwrap();
        assert!(KerModel::from_schema(&schema).is_err());
    }

    #[test]
    fn coercion_of_class_codes() {
        // `if 0101 <= Class <= 0103` parses as strings (leading zero) and
        // the CLASS.Class attribute is char, so values stay strings.
        let src = r#"
            object type CLASS
              has key: Class domain: CHAR[4]
              has: Type domain: CHAR[4]
            with
              if 0101 <= Class <= 0103 then Type = "SSBN"
        "#;
        let m = KerModel::parse(src).unwrap();
        let t = m.object_type("CLASS").unwrap();
        match &t.constraints[0] {
            ConstraintAst::Rule { premise, .. } => {
                assert_eq!(premise[0].value, Value::str("0101"));
            }
            other => panic!("expected rule, got {other:?}"),
        }
    }

    #[test]
    fn coerce_value_conversions() {
        assert_eq!(
            coerce_value(&Value::str("42"), ValueType::Int),
            Some(Value::Int(42))
        );
        assert_eq!(
            coerce_value(&Value::Int(7), ValueType::Str),
            Some(Value::str("7"))
        );
        assert_eq!(coerce_value(&Value::str("abc"), ValueType::Int), None);
        assert_eq!(
            coerce_value(&Value::Real(2.0), ValueType::Int),
            Some(Value::Int(2))
        );
        assert_eq!(coerce_value(&Value::Real(2.5), ValueType::Int), None);
    }

    #[test]
    fn schema_for_builds_storage_schema() {
        let m = model();
        let s = m.schema_for("SUBMARINE").unwrap();
        assert_eq!(s.arity(), 3);
        assert!(s.attr(0).is_key());
        assert!(m.schema_for("MISSING").is_err());
    }
}
