//! The benchmark's own answer checks, computed apart from the program.
//!
//! [`World`] is the benchmark's model of the generated data: one entity
//! per ship, joined by hand to its class, type, installed sonar and
//! sonar family, plus the generator's ground truth (class → type map
//! and per-type displacement bands). [`World::check`] holds a decoded
//! wire reply against it:
//!
//! * the extensional rows must equal the benchmark's own evaluation of
//!   the query over the entities, as a multiset;
//! * every forward conclusion must hold for every answer (§4: the
//!   conclusion *contains* the answer), and one that names a type must
//!   name the ground-truth type of the query's conditions;
//! * every backward characterization must describe only answers (§4:
//!   the characterization is *contained in* the answer).

use intensio_serve::json::{self, Json};
use intensio_shipdb::synthetic::Fleet;
use intensio_storage::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A comparable attribute value: the two types the fleet uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// An integer (`CLASS.Displacement`).
    Int(i64),
    /// A string (every other attribute).
    Str(String),
}

impl Val {
    fn from_storage(v: &Value) -> Option<Val> {
        match v {
            Value::Null => None,
            Value::Int(i) => Some(Val::Int(*i)),
            other => Some(Val::Str(other.render_bare())),
        }
    }

    /// The value as the reply renders it bare (no quotes).
    pub fn bare(&self) -> String {
        match self {
            Val::Int(i) => i.to_string(),
            Val::Str(s) => s.clone(),
        }
    }

    /// The value as a SQL literal.
    fn sql(&self) -> String {
        match self {
            Val::Int(i) => i.to_string(),
            Val::Str(s) => format!("'{s}'"),
        }
    }

    /// Order within one type; `None` across types.
    fn cmp_same(&self, other: &Val) -> Option<Ordering> {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Some(a.cmp(b)),
            (Val::Str(a), Val::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

/// A comparison in a query condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

/// One conjunct `ATTR op value` of a query's `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// `RELATION.Attribute`, as written in the SQL.
    pub attr: &'static str,
    /// The comparison.
    pub op: Op,
    /// The constant.
    pub value: Val,
}

impl Cond {
    /// Shorthand constructor.
    pub fn new(attr: &'static str, op: Op, value: Val) -> Cond {
        Cond { attr, op, value }
    }

    fn holds(&self, v: Option<&Val>) -> bool {
        let Some(ord) = v.and_then(|v| v.cmp_same(&self.value)) else {
            return false;
        };
        match self.op {
            Op::Eq => ord == Ordering::Equal,
            Op::Ge => ord != Ordering::Less,
            Op::Le => ord != Ordering::Greater,
        }
    }
}

/// The projection every benchmark query selects: one row per ship.
const SELECT: [&str; 4] = [
    "SUBMARINE.Id",
    "SUBMARINE.Name",
    "CLASS.Class",
    "CLASS.Type",
];

/// A benchmark query: ships joined to their class, under conjunctive
/// conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The conjuncts after the join condition.
    pub conds: Vec<Cond>,
}

impl Query {
    /// The SQL text sent to the server.
    pub fn sql(&self) -> String {
        let mut s = format!(
            "SELECT {} FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class",
            SELECT.join(", ")
        );
        for c in &self.conds {
            let op = match c.op {
                Op::Eq => "=",
                Op::Ge => ">=",
                Op::Le => "<=",
            };
            s.push_str(&format!(" AND {} {op} {}", c.attr, c.value.sql()));
        }
        s
    }
}

/// A decoded query reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Whether the rules matched the data.
    pub rules_fresh: bool,
    /// Whether the intensional side was degraded.
    pub degraded: bool,
    /// The extensional rows.
    pub rows: Vec<Vec<String>>,
    /// The intensional answer, one rendered sentence per line.
    pub intensional: Vec<String>,
}

/// Decode a wire reply line; `Err` for an error reply or bad JSON.
pub fn decode(line: &str) -> Result<Reply, String> {
    let v = json::parse(line)?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error reply: {line}"));
    }
    let strings = |v: &Json| -> Result<Vec<String>, String> {
        v.as_array()
            .ok_or("expected an array")?
            .iter()
            .map(|s| s.as_str().map(str::to_string).ok_or("expected a string"))
            .collect::<Result<_, _>>()
            .map_err(str::to_string)
    };
    let field = |k: &str| v.get(k).ok_or_else(|| format!("reply lacks {k:?}"));
    let rows = field("rows")?
        .as_array()
        .ok_or("rows is not an array")?
        .iter()
        .map(strings)
        .collect::<Result<_, _>>()?;
    Ok(Reply {
        epoch: field("epoch")?.as_u64().ok_or("bad epoch")?,
        rules_fresh: field("rules_fresh")?.as_bool().ok_or("bad rules_fresh")?,
        degraded: field("degraded")?.as_bool().ok_or("bad degraded")?,
        rows,
        intensional: strings(field("intensional")?)?,
    })
}

/// One parsed intensional sentence.
#[derive(Debug, Clone, PartialEq)]
pub enum Sentence {
    /// `Every answer is a LABEL (REL.Attr = v).` / `Every answer has REL.Attr = v.`
    Forward {
        /// Lower-cased `relation.attribute`.
        attr: String,
        /// The concluded value, bare.
        value: String,
        /// The subtype label, if the sentence names one.
        label: Option<String>,
    },
    /// `Instances with REL.Attr RANGE are TARGET.`
    Backward {
        /// Lower-cased `relation.attribute`.
        attr: String,
        /// The described range.
        range: Range,
    },
}

/// A parsed value range (`= v`, `in [a, b]`, `>= v`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    lo: Option<(Val, bool)>,
    hi: Option<(Val, bool)>,
}

impl Range {
    /// Whether `v` lies in the range; `None` when the types differ.
    fn contains(&self, v: &Val) -> Option<bool> {
        let mut ok = true;
        if let Some((lo, incl)) = &self.lo {
            let o = v.cmp_same(lo)?;
            ok &= o == Ordering::Greater || (*incl && o == Ordering::Equal);
        }
        if let Some((hi, incl)) = &self.hi {
            let o = v.cmp_same(hi)?;
            ok &= o == Ordering::Less || (*incl && o == Ordering::Equal);
        }
        Some(ok)
    }
}

/// Parse one value as `Value`'s `Display` writes it: a quoted string
/// or an integer. Returns the value and the unparsed rest.
fn parse_val(s: &str) -> Option<(Val, &str)> {
    if let Some(rest) = s.strip_prefix('"') {
        let end = rest.find('"')?;
        return Some((Val::Str(rest[..end].to_string()), &rest[end + 1..]));
    }
    let end = s
        .char_indices()
        .find(|&(i, c)| !(c.is_ascii_digit() || (i == 0 && c == '-')))
        .map_or(s.len(), |(i, _)| i);
    Some((Val::Int(s[..end].parse().ok()?), &s[end..]))
}

fn parse_range(s: &str) -> Option<(Range, &str)> {
    let open = |v: Val, incl| Some((v, incl));
    if let Some(rest) = s.strip_prefix("in ") {
        let lo_incl = rest.starts_with('[');
        let (lo, rest) = parse_val(rest.get(1..)?)?;
        let (hi, rest) = parse_val(rest.strip_prefix(", ")?)?;
        let hi_incl = rest.starts_with(']');
        let range = Range {
            lo: open(lo, lo_incl),
            hi: open(hi, hi_incl),
        };
        return Some((range, rest.get(1..)?));
    }
    for (prefix, lower, incl) in [
        (">= ", true, true),
        ("<= ", false, true),
        ("> ", true, false),
        ("< ", false, false),
        ("= ", true, true),
    ] {
        if let Some(rest) = s.strip_prefix(prefix) {
            let (v, rest) = parse_val(rest)?;
            let range = match (prefix, lower) {
                ("= ", _) => Range {
                    lo: open(v.clone(), true),
                    hi: open(v, true),
                },
                (_, true) => Range {
                    lo: open(v, incl),
                    hi: None,
                },
                (_, false) => Range {
                    lo: None,
                    hi: open(v, incl),
                },
            };
            return Some((range, rest));
        }
    }
    None
}

/// Parse one rendered intensional sentence.
pub fn parse_sentence(line: &str) -> Option<Sentence> {
    if let Some(rest) = line.strip_prefix("Every answer is a ") {
        let (label, rest) = rest.split_once(" (")?;
        let (attr, rest) = rest.split_once(" = ")?;
        let (value, _) = rest.split_once("). [")?;
        return Some(Sentence::Forward {
            attr: attr.to_ascii_lowercase(),
            value: value.to_string(),
            label: Some(label.to_string()),
        });
    }
    if let Some(rest) = line.strip_prefix("Every answer has ") {
        let (attr, rest) = rest.split_once(" = ")?;
        let (value, _) = rest.split_once(". [")?;
        return Some(Sentence::Forward {
            attr: attr.to_ascii_lowercase(),
            value: value.to_string(),
            label: None,
        });
    }
    let rest = line.strip_prefix("Instances with ")?;
    let (attr, rest) = rest.split_once(' ')?;
    let (range, rest) = parse_range(rest)?;
    rest.strip_prefix(" are ")?;
    Some(Sentence::Backward {
        attr: attr.to_ascii_lowercase(),
        range,
    })
}

/// One relation joined into a ship entity.
#[derive(Debug, Clone)]
struct Joined {
    /// Column (in the entity row) of the attribute that keys the join.
    key_col: usize,
    /// Column where this relation's attributes start.
    offset: usize,
    /// Its tuples, keyed on their first attribute.
    rows: HashMap<String, Vec<Option<Val>>>,
}

/// The benchmark's model of the fleet.
#[derive(Debug, Clone)]
pub struct World {
    /// Lower-cased `relation.attribute` → column in [`World::ships`].
    attrs: HashMap<String, usize>,
    /// One row per ship: its own attributes, then its class's, its
    /// type's, its install's and its sonar's (`None` where a ship has
    /// no install).
    ships: Vec<Vec<Option<Val>>>,
    /// Each ship's id, for answer-set membership.
    ids: Vec<String>,
    joins: Vec<Joined>,
    /// Ground truth: class code → type code.
    pub class_type: BTreeMap<String, String>,
    /// Ground truth: type code → inclusive displacement band.
    pub type_band: BTreeMap<String, (i64, i64)>,
}

/// The relations joined into a ship entity, in join order, with the
/// already-joined attribute that keys each.
const JOIN_PATH: [(&str, &str); 4] = [
    ("CLASS", "submarine.class"),
    ("TYPE", "class.type"),
    ("INSTALL", "submarine.id"),
    ("SONAR", "install.sonar"),
];

impl World {
    /// Build the model from the generated fleet.
    pub fn new(fleet: &Fleet) -> World {
        let mut attrs = HashMap::new();
        let mut load = |name: &str| {
            let rel = fleet.db.get(name).expect("generated relation");
            let offset = attrs.len();
            for a in rel.schema().attributes() {
                let n = attrs.len();
                attrs.insert(format!("{name}.{}", a.name()).to_ascii_lowercase(), n);
            }
            let rows: Vec<Vec<Option<Val>>> = rel
                .iter()
                .map(|t| t.values().iter().map(Val::from_storage).collect())
                .collect();
            (offset, rows)
        };
        let (_, subs) = load("SUBMARINE");
        let loaded: Vec<_> = JOIN_PATH.iter().map(|(rel, _)| load(rel)).collect();
        let joins = JOIN_PATH
            .iter()
            .zip(loaded)
            .map(|((_, key), (offset, rows))| Joined {
                key_col: attrs[*key],
                offset,
                rows: rows
                    .into_iter()
                    .map(|r| (r[0].as_ref().map(Val::bare).unwrap_or_default(), r))
                    .collect(),
            })
            .collect();
        let mut world = World {
            attrs,
            ships: Vec::new(),
            ids: Vec::new(),
            joins,
            class_type: fleet.class_type.clone(),
            type_band: fleet.type_band.clone(),
        };
        for own in subs {
            world.push_ship(own);
        }
        world
    }

    fn push_ship(&mut self, mut row: Vec<Option<Val>>) {
        row.resize(self.attrs.len(), None);
        for j in &self.joins {
            let key = row[j.key_col].as_ref().map(Val::bare);
            if let Some(vals) = key.and_then(|k| j.rows.get(&k)) {
                row[j.offset..j.offset + vals.len()].clone_from_slice(vals);
            }
        }
        self.ids
            .push(row[0].as_ref().map(Val::bare).unwrap_or_default());
        self.ships.push(row);
    }

    /// Record a ship appended through the server (no sonar installed).
    pub fn append_ship(&mut self, id: &str, name: &str, class: &str) {
        let s = |v: &str| Some(Val::Str(v.to_string()));
        self.push_ship(vec![s(id), s(name), s(class)]);
    }

    fn col(&self, attr: &str) -> Result<usize, String> {
        self.attrs
            .get(&attr.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| format!("attribute {attr} is not modelled"))
    }

    /// The benchmark's own evaluation of `q`: the expected rows.
    pub fn evaluate(&self, q: &Query) -> Vec<Vec<String>> {
        let col = |a: &str| {
            self.col(a)
                .expect("benchmark queries use modelled attributes")
        };
        let conds: Vec<(usize, &Cond)> = q.conds.iter().map(|c| (col(c.attr), c)).collect();
        let select: Vec<usize> = SELECT.iter().map(|a| col(a)).collect();
        let class = col("CLASS.Class");
        self.ships
            .iter()
            // A ship whose class is unknown drops out of the join.
            .filter(|s| s[class].is_some())
            .filter(|s| conds.iter().all(|(i, c)| c.holds(s[*i].as_ref())))
            .map(|s| {
                select
                    .iter()
                    .map(|&i| s[i].as_ref().map(Val::bare).unwrap_or_default())
                    .collect()
            })
            .collect()
    }

    /// The types the query's conditions admit under the generator's
    /// ground truth (bands and class → type map).
    pub fn truth_types(&self, q: &Query) -> BTreeSet<String> {
        let mut types: BTreeSet<String> = self.type_band.keys().cloned().collect();
        for c in &q.conds {
            let admits = |t: &String| match c.attr.to_ascii_lowercase().as_str() {
                "class.type" => c.holds(Some(&Val::Str(t.clone()))),
                "class.displacement" => {
                    let (lo, hi) = self.type_band[t];
                    let Val::Int(v) = c.value else { return true };
                    match c.op {
                        Op::Eq => lo <= v && v <= hi,
                        Op::Ge => hi >= v,
                        Op::Le => lo <= v,
                    }
                }
                "class.class" | "submarine.class" => self
                    .class_type
                    .iter()
                    .any(|(cl, ty)| ty == t && c.holds(Some(&Val::Str(cl.clone())))),
                _ => true,
            };
            types.retain(admits);
        }
        types
    }

    /// Hold a decoded reply to `q` against the model. `Err` names the
    /// first violation found.
    pub fn check(&self, q: &Query, reply: &Reply) -> Result<(), String> {
        if reply.degraded {
            return Err("degraded reply".to_string());
        }
        let mut got = reply.rows.clone();
        let mut want = self.evaluate(q);
        got.sort();
        want.sort();
        if got != want {
            return Err(row_diff(&want, &got));
        }
        let answer_ids: HashSet<&str> = reply.rows.iter().map(|r| r[0].as_str()).collect();
        let is_answer: Vec<bool> = self
            .ids
            .iter()
            .map(|id| answer_ids.contains(id.as_str()))
            .collect();
        let truth = self.truth_types(q);
        for line in &reply.intensional {
            let sentence = parse_sentence(line)
                .ok_or_else(|| format!("unparsed intensional line {line:?}"))?;
            let violation = match sentence {
                Sentence::Forward { attr, value, label } => {
                    self.check_type_named(&attr, &value, label.as_deref(), &truth)
                        .map_err(|e| format!("{e} in {line:?}"))?;
                    let col = self.col(&attr)?;
                    // Answers without the attribute (a ship with no
                    // installed sonar) neither confirm nor refute it.
                    self.ships.iter().zip(&is_answer).position(|(s, &ans)| {
                        ans && s[col].as_ref().is_some_and(|v| v.bare() != value)
                    })
                }
                Sentence::Backward { attr, range } => {
                    let col = self.col(&attr)?;
                    let mut found = None;
                    for (i, s) in self.ships.iter().enumerate() {
                        let Some(v) = &s[col] else { continue };
                        let inside = range
                            .contains(v)
                            .ok_or_else(|| format!("range type mismatch in {line:?}"))?;
                        if inside && !is_answer[i] {
                            found = Some(i);
                            break;
                        }
                    }
                    found
                }
            };
            if let Some(i) = violation {
                return Err(format!("ship {} refutes {line:?}", self.ids[i]));
            }
        }
        Ok(())
    }

    /// A forward conclusion that names a type (a ship type, a sonar
    /// family, or a class subtype) must name the query's ground-truth
    /// type, and the conditions must pin exactly one.
    fn check_type_named(
        &self,
        attr: &str,
        value: &str,
        label: Option<&str>,
        truth: &BTreeSet<String>,
    ) -> Result<(), String> {
        let named_type = match attr {
            "class.type" | "type.type" => value.to_string(),
            // Sonar family F<nn> is installed on ships of type T<nn>.
            "sonar.sonartype" => format!("T{}", value.trim_start_matches('F')),
            "class.class" | "submarine.class" => self
                .class_type
                .get(value)
                .cloned()
                .ok_or_else(|| format!("unknown class {value}"))?,
            _ => return Ok(()),
        };
        if truth.len() != 1 || !truth.contains(&named_type) {
            return Err(format!(
                "forward conclusion names {named_type}, ground truth admits {truth:?}"
            ));
        }
        let label_ok = match (attr, label) {
            (_, None) => true,
            ("class.class" | "submarine.class", Some(l)) => l == format!("C{value}"),
            (_, Some(l)) => l == value,
        };
        if !label_ok {
            return Err(format!("subtype label {label:?} disagrees with {value}"));
        }
        Ok(())
    }
}

/// The read of a write-and-relearn cycle must come from the install
/// epoch, with fresh rules, and include the appended ship.
pub fn check_install_read(id: &str, install_epoch: u64, read: &Reply) -> Result<(), String> {
    if read.epoch != install_epoch || !read.rules_fresh {
        return Err(format!(
            "read at epoch {} (rules fresh: {}), want the install epoch {install_epoch}",
            read.epoch, read.rules_fresh
        ));
    }
    if !read.rows.iter().any(|r| r[0] == id) {
        return Err(format!("appended ship {id} missing at the install epoch"));
    }
    Ok(())
}

fn row_diff(want: &[Vec<String>], got: &[Vec<String>]) -> String {
    let w: BTreeSet<&Vec<String>> = want.iter().collect();
    let g: BTreeSet<&Vec<String>> = got.iter().collect();
    let missing = w.difference(&g).next();
    let extra = g.difference(&w).next();
    format!(
        "rows differ: want {} got {}; first missing {missing:?}, first extra {extra:?}",
        want.len(),
        got.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_serve::{encode_reply, Request, Service};
    use intensio_shipdb::synthetic::{generate, FleetConfig};

    /// Two types of three classes of four ships: small enough to boot
    /// a service per test, large enough for `N_c = 3` rules.
    fn small_fleet() -> Fleet {
        generate(FleetConfig {
            seed: 7,
            n_types: 2,
            classes_per_type: 3,
            ships_per_class: 4,
            sonars_per_family: 2,
            id_noise: 0.0,
            overlapping_bands: false,
        })
        .unwrap()
    }

    fn type_query(t: &str) -> Query {
        Query {
            conds: vec![Cond::new("CLASS.Type", Op::Eq, Val::Str(t.to_string()))],
        }
    }

    /// The service's own reply to `q`, decoded.
    fn served(fleet: &Fleet, q: &Query) -> Reply {
        let service = Service::open(fleet.db.clone(), fleet.ker_model()).unwrap();
        decode(&encode_reply(&service.submit(Request::Sql(q.sql())))).unwrap()
    }

    fn forward(t: &str) -> String {
        format!("Every answer is a {t} (CLASS.Type = {t}). [by rule R1, forward inference]")
    }

    #[test]
    fn the_service_reply_passes() {
        let fleet = small_fleet();
        let world = World::new(&fleet);
        let q = type_query("T00");
        let reply = served(&fleet, &q);
        assert_eq!(reply.rows.len(), 12);
        assert!(
            !reply.intensional.is_empty(),
            "rules should characterize a type"
        );
        world.check(&q, &reply).unwrap();
    }

    #[test]
    fn a_dropped_or_extra_row_fails() {
        let fleet = small_fleet();
        let world = World::new(&fleet);
        let q = type_query("T00");
        let reply = served(&fleet, &q);

        let mut dropped = reply.clone();
        dropped.rows.pop();
        assert!(world
            .check(&q, &dropped)
            .unwrap_err()
            .contains("rows differ"));

        let mut duplicated = reply.clone();
        duplicated.rows.push(reply.rows[0].clone());
        assert!(world
            .check(&q, &duplicated)
            .unwrap_err()
            .contains("rows differ"));

        let mut foreign = reply.clone();
        foreign
            .rows
            .push(world.evaluate(&type_query("T01"))[0].clone());
        assert!(world
            .check(&q, &foreign)
            .unwrap_err()
            .contains("rows differ"));
    }

    #[test]
    fn a_forward_conclusion_naming_the_wrong_type_fails() {
        let fleet = small_fleet();
        let world = World::new(&fleet);
        let q = type_query("T00");
        let mut reply = served(&fleet, &q);
        reply.intensional.push(forward("T00"));
        world.check(&q, &reply).unwrap();

        let mut wrong = reply.clone();
        wrong.intensional.push(forward("T01"));
        assert!(world.check(&q, &wrong).unwrap_err().contains("names T01"));

        let mut family = reply.clone();
        family.intensional.push(
            "Every answer is a F01 (SONAR.SonarType = F01). [by rule R2, forward inference]"
                .to_string(),
        );
        assert!(world.check(&q, &family).unwrap_err().contains("names T01"));

        // A band spanning both types pins no single type.
        let (lo, _) = fleet.type_band["T00"];
        let (_, hi) = fleet.type_band["T01"];
        let wide = Query {
            conds: vec![
                Cond::new("CLASS.Displacement", Op::Ge, Val::Int(lo)),
                Cond::new("CLASS.Displacement", Op::Le, Val::Int(hi)),
            ],
        };
        let mut reply = served(&fleet, &wide);
        reply.intensional.push(forward("T00"));
        assert!(world
            .check(&wide, &reply)
            .unwrap_err()
            .contains("ground truth admits"));
    }

    #[test]
    fn a_characterization_admitting_a_non_answer_fails() {
        let fleet = small_fleet();
        let world = World::new(&fleet);
        let q = type_query("T00");
        let reply = served(&fleet, &q);
        let (lo, hi) = fleet.type_band["T00"];
        let (_, hi1) = fleet.type_band["T01"];

        let mut exact = reply.clone();
        exact.intensional.push(format!(
            "Instances with CLASS.Displacement in [{lo}, {hi}] are T00. [by rule R9, backward inference]"
        ));
        world.check(&q, &exact).unwrap();

        let mut wide = reply.clone();
        wide.intensional.push(format!(
            "Instances with CLASS.Displacement in [{lo}, {hi1}] are T00. [by rule R9, backward inference]"
        ));
        assert!(world.check(&q, &wide).unwrap_err().contains("refutes"));

        let mut open = reply.clone();
        open.intensional.push(
            "Instances with SUBMARINE.Class >= \"0000\" are T00. [by rule R9, backward inference]"
                .to_string(),
        );
        assert!(world.check(&q, &open).unwrap_err().contains("refutes"));
    }

    #[test]
    fn an_appended_ship_missing_at_the_install_epoch_fails() {
        let fleet = small_fleet();
        let mut world = World::new(&fleet);
        let q = type_query("T00");
        let mut reply = served(&fleet, &q);
        reply.rows.push(vec![
            "S900000".to_string(),
            "added 00000".to_string(),
            "0001".to_string(),
            "T00".to_string(),
        ]);
        reply.epoch = 2;
        world.append_ship("S900000", "added 00000", "0001");
        check_install_read("S900000", 2, &reply).unwrap();
        world.check(&q, &reply).unwrap();

        assert!(check_install_read("S900000", 3, &reply)
            .unwrap_err()
            .contains("install epoch"));
        let mut missing = reply.clone();
        missing.rows.retain(|r| r[0] != "S900000");
        assert!(check_install_read("S900000", 2, &missing)
            .unwrap_err()
            .contains("missing"));
        assert!(world
            .check(&q, &missing)
            .unwrap_err()
            .contains("rows differ"));
    }

    #[test]
    fn sentences_parse_in_every_range_form() {
        let parse_range = |s: &str| match parse_sentence(&format!(
            "Instances with CLASS.Displacement {s} are T00. [by rule R1, backward inference]"
        )) {
            Some(Sentence::Backward { range, .. }) => range,
            other => panic!("{s}: {other:?}"),
        };
        let int = |v| Val::Int(v);
        let r = parse_range("in [10, 20]");
        assert_eq!(r.contains(&int(10)), Some(true));
        assert_eq!(r.contains(&int(21)), Some(false));
        let r = parse_range("in (10, 20)");
        assert_eq!(r.contains(&int(10)), Some(false));
        assert_eq!(r.contains(&int(15)), Some(true));
        assert_eq!(parse_range(">= 5").contains(&int(5)), Some(true));
        assert_eq!(parse_range("> 5").contains(&int(5)), Some(false));
        assert_eq!(parse_range("<= -3").contains(&int(-3)), Some(true));
        assert_eq!(parse_range("< -3").contains(&int(-3)), Some(false));
        assert_eq!(parse_range("= 7").contains(&int(7)), Some(true));
        let r = parse_range("in [\"0100\", \"0109\"]");
        assert_eq!(r.contains(&Val::Str("0105".into())), Some(true));
        assert_eq!(r.contains(&int(105)), None);
        assert_eq!(
            parse_sentence("Every answer has CLASS.Type = T00. [by type hierarchy]"),
            Some(Sentence::Forward {
                attr: "class.type".to_string(),
                value: "T00".to_string(),
                label: None,
            })
        );
        assert_eq!(parse_sentence("No intensional characterization."), None);
    }
}
