//! The SELECT generator the SQL and reply differential tests share:
//! seeded queries over a small generated fleet plus a `MIX` relation
//! whose join keys are integers, reals and nulls.

use intensio::shipdb::{generate, FleetConfig};
use intensio::storage::prelude::{
    Attribute, Database, Domain, Relation, Schema, Tuple, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// A small generated fleet plus `MIX`: class codes (some unknown, some
/// null) and weights that equal a displacement as an integer or as a
/// real, miss it by half a ton, or are null.
pub fn fleet_db(seed: u64, ships_per_class: usize) -> Database {
    let fleet = generate(fleet_config(seed, ships_per_class)).unwrap();
    let mut db = fleet.db;
    let classes: Vec<(Value, Value)> = db
        .get("CLASS")
        .unwrap()
        .iter()
        .map(|t| (t.get(0).clone(), t.get(3).clone()))
        .collect();
    let schema = Schema::new(vec![
        Attribute::new("Code", Domain::char_n(4)),
        Attribute::new("Weight", Domain::basic(ValueType::Int)),
        Attribute::new("Tag", Domain::char_n(4)),
    ])
    .unwrap();
    let mut mix = Relation::new("MIX", schema);
    for i in 0..14usize {
        let (code, disp) = &classes[(i * 5 + seed as usize) % classes.len()];
        let d = disp.as_int().unwrap();
        let code = match i % 5 {
            4 => Value::Null,
            3 => Value::str("9999"),
            _ => code.clone(),
        };
        let weight = match i % 4 {
            0 => Value::Int(d),
            1 => Value::Real(d as f64),
            2 => Value::Real(d as f64 + 0.5),
            _ => Value::Null,
        };
        mix.insert(Tuple::new(vec![
            code,
            weight,
            Value::str(format!("m{}", i % 3)),
        ]))
        .unwrap();
    }
    db.create(mix).unwrap();
    db
}

/// The generated half of [`fleet_db`]: two types of three classes.
pub fn fleet_config(seed: u64, ships_per_class: usize) -> FleetConfig {
    FleetConfig {
        seed,
        n_types: 2,
        classes_per_type: 3,
        ships_per_class,
        sonars_per_family: 2,
        id_noise: 0.1,
        overlapping_bands: seed % 2 == 1,
    }
}

/// Attribute pairs with different names that make sensible join keys.
const JOINABLE: [(&str, &str); 3] = [
    ("Ship", "Id"),
    ("Weight", "Displacement"),
    ("Code", "Class"),
];

pub fn literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        Value::Real(r) => format!("{r:?}"),
        other => other.to_string(),
    }
}

/// A constant for a restriction on a column: usually a stored value,
/// sometimes a neighbour of one, sometimes a value of another type.
fn constant(column: &[Value], rng: &mut StdRng) -> Value {
    let v = column.choose(rng).cloned().unwrap_or(Value::Int(0));
    match (rng.gen_range(0..30), &v) {
        (0, Value::Str(_)) => Value::Int(rng.gen_range(0i64..5000)),
        (0, _) => Value::str("0101"),
        (1..=6, Value::Int(i)) => Value::Int((i + rng.gen_range(-1i64..=1)).max(0)),
        (1..=6, Value::Real(r)) => Value::Real(r + 0.25),
        (7..=9, Value::Int(i)) => Value::Real(*i as f64 + 0.5),
        _ => v,
    }
}

struct Entry<'a> {
    rel: &'a Relation,
    alias: String,
}

impl Entry<'_> {
    fn attr(&self, rng: &mut StdRng) -> String {
        let a = self.rel.schema().attributes().choose(rng).unwrap();
        format!("{}.{}", self.alias, a.name())
    }

    fn column(&self, qualified: &str) -> Vec<Value> {
        let name = qualified.rsplit('.').next().unwrap();
        self.rel
            .distinct_values(name)
            .unwrap()
            .into_iter()
            .filter(|v| !v.is_null())
            .collect()
    }
}

/// One single-entry restriction: point, open or closed range, empty
/// range, `!=`, OR, or NOT.
fn restriction(e: &Entry<'_>, rng: &mut StdRng) -> String {
    let a = e.attr(rng);
    let col = e.column(&a);
    let (x, y) = (constant(&col, rng), constant(&col, rng));
    let (lo, hi) = if x.total_cmp(&y).is_le() {
        (x, y)
    } else {
        (y, x)
    };
    let (lo, hi) = (literal(&lo), literal(&hi));
    let op = ["<", "<=", ">", ">="].choose(rng).unwrap();
    match rng.gen_range(0..9) {
        0 => format!("{a} = {lo}"),
        1 => format!("{a} {op} {hi}"),
        2 => format!("{lo} {op} {a}"),
        3 => format!("{a} >= {lo} AND {a} <= {hi}"),
        4 => format!("{a} > {hi} AND {a} < {lo}"),
        5 => format!("{a} != {lo}"),
        6 => {
            let b = e.attr(rng);
            let c = literal(&constant(&e.column(&b), rng));
            format!("({a} = {lo} OR {b} {op} {c})")
        }
        7 => format!("NOT ({a} <= {hi})"),
        _ => format!("{a} >= {lo} AND {a} < {hi}"),
    }
}

/// A random SELECT over the database.
pub fn random_query(db: &Database, rng: &mut StdRng) -> String {
    let rels: Vec<&Relation> = db.relations().collect();
    let mut entries: Vec<Entry<'_>> = Vec::new();
    let mut from = Vec::new();
    for i in 0..rng.gen_range(1..=3usize) {
        let rel = match entries.choose(rng) {
            Some(e) if rng.gen_bool(0.25) => e.rel, // a self-join
            _ => *rels.choose(rng).unwrap(),
        };
        let taken = entries
            .iter()
            .any(|e| e.alias.eq_ignore_ascii_case(rel.name()));
        if taken || rng.gen_bool(0.5) {
            from.push(format!("{} t{i}", rel.name()));
            entries.push(Entry {
                rel,
                alias: format!("t{i}"),
            });
        } else {
            from.push(rel.name().to_string());
            entries.push(Entry {
                rel,
                alias: rel.name().to_string(),
            });
        }
    }

    let mut conds = Vec::new();
    for (i, a) in entries.iter().enumerate() {
        for b in &entries[i + 1..] {
            for x in a.rel.schema().attributes() {
                for y in b.rel.schema().attributes() {
                    let (x, y) = (x.name(), y.name());
                    let joinable = x.eq_ignore_ascii_case(y)
                        || JOINABLE
                            .iter()
                            .any(|&(p, q)| (x, y) == (p, q) || (y, x) == (p, q));
                    if !joinable || !rng.gen_bool(0.5) {
                        continue;
                    }
                    let (l, r) = (format!("{}.{x}", a.alias), format!("{}.{y}", b.alias));
                    conds.push(if rng.gen_bool(0.5) {
                        format!("{l} = {r}")
                    } else {
                        format!("{r} = {l}")
                    });
                    if rng.gen_bool(0.15) {
                        conds.push(format!("{r} = {l}")); // a repeated edge
                    }
                }
            }
        }
    }
    for _ in 0..rng.gen_range(0..=3) {
        let e = entries.choose(rng).unwrap();
        conds.push(restriction(e, rng));
    }
    if entries.len() >= 2 && rng.gen_bool(0.3) {
        let (a, b) = (entries[0].attr(rng), entries[entries.len() - 1].attr(rng));
        conds.push(match rng.gen_range(0..3) {
            0 => format!("{a} < {b}"),
            1 => format!("{a} != {b}"),
            _ => format!("({a} = {b} OR {b} = {a})"),
        });
    }
    conds.shuffle(rng);

    let mut order_by = Vec::new();
    let targets = match rng.gen_range(0..8) {
        0 => "*".to_string(),
        1 | 2 => {
            let groups: Vec<String> = (0..rng.gen_range(0..=2usize))
                .map(|_| entries.choose(rng).unwrap().attr(rng))
                .collect();
            let mut items = groups.clone();
            for _ in 0..rng.gen_range(1..=2) {
                let arg = entries.choose(rng).unwrap().attr(rng);
                let func = if arg.ends_with(".Weight") {
                    // Int and Real ties make MIN and MAX order-dependent.
                    ["COUNT", "SUM", "AVG"].choose(rng).unwrap()
                } else {
                    ["COUNT", "MIN", "MAX", "SUM", "AVG"].choose(rng).unwrap()
                };
                items.push(if rng.gen_bool(0.2) {
                    "COUNT(*)".to_string()
                } else {
                    format!("{func}({arg})")
                });
            }
            if !groups.is_empty() {
                if rng.gen_bool(0.4) {
                    order_by.push(groups[0].rsplit('.').next().unwrap().to_string());
                }
                return finish(
                    &items.join(", "),
                    &from,
                    &conds,
                    &format!(" GROUP BY {}", groups.join(", ")),
                    &order_by,
                );
            }
            items.join(", ")
        }
        _ => {
            let mut cols: Vec<String> = Vec::new();
            for _ in 0..rng.gen_range(1..=4usize) {
                let c = entries.choose(rng).unwrap().attr(rng);
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            if rng.gen_bool(0.35) {
                order_by.push(cols[0].clone());
            }
            let list = cols.join(", ");
            if rng.gen_bool(0.25) {
                format!("DISTINCT {list}")
            } else {
                list
            }
        }
    };
    finish(&targets, &from, &conds, "", &order_by)
}

fn finish(
    targets: &str,
    from: &[String],
    conds: &[String],
    group: &str,
    order: &[String],
) -> String {
    let mut sql = format!("SELECT {targets} FROM {}", from.join(", "));
    if !conds.is_empty() {
        sql.push_str(&format!(" WHERE {}", conds.join(" AND ")));
    }
    sql.push_str(group);
    if !order.is_empty() {
        sql.push_str(&format!(" ORDER BY {}", order.join(", ")));
    }
    sql
}
